"""Write ``reference.json``: the expected outputs every benchmark run is
checked against.

Nothing here comes from silscope.  The census of each pool graph is
recomputed with the brute-force oracles in ``tests/oracles.py`` and the
classification rule of the paper; the expected ``checked_graphs`` of each
verify spec is counted directly (labelled graphs) or by Burnside's lemma
over vertex permutations (isomorphism classes).  This takes a few minutes,
so the result is committed and only rebuilt when the pool or a spec
changes:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "tests"))

import graphgen  # noqa: E402
import oracles  # noqa: E402
from reference import classify_rule, content  # noqa: E402
from run import VERIFY_SPECS, spec_key  # noqa: E402


def graph_reference(graph: dict) -> dict:
    names = [v["name"] for v in graph["vertices"]]
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    adj = [0] * n
    for a, b in graph["edges"]:
        adj[index[a]] |= 1 << index[b]
        adj[index[b]] |= 1 << index[a]
    g = SimpleNamespace(n=n, adj=tuple(adj),
                        orders=tuple(v["order"] for v in graph["vertices"]))

    def named(vertices):
        return [names[v] for v in vertices]

    sils = oracles.sil_census(g)
    stils = oracles.stil_census(g)
    fsils = oracles.fsil_census(g)
    coxeter = sum(1 for _, _, x in sils if x)
    evidence = {"coxeter_sils": coxeter, "non_coxeter_sils": len(sils) - coxeter,
                "stils": len(stils), "fsils": len(fsils)}
    generators = 0
    for v in range(n):
        rest = set(range(n)) - oracles.neighbors_scan(g, v) - {v}
        generators += max(0, len(oracles.components_uf(g, rest)) - 1)
    return {
        "n": n,
        "content": content(
            classify_rule(**evidence), evidence, generators,
            [(named(p), named(c), x) for p, c, x in sils],
            [(named(t), named(c)) for t, c in stils],
            [named(t) for t in fsils]),
    }


def _cycle_count(mapping: dict) -> int:
    seen = set()
    cycles = 0
    for start in mapping:
        if start in seen:
            continue
        cycles += 1
        x = start
        while x not in seen:
            seen.add(x)
            x = mapping[x]
    return cycles


def checked_graphs(max_vertices: int, orders: tuple, dedup: bool) -> int:
    """Labelled graphs up to ``max_vertices`` with vertex orders from
    ``orders``, or their isomorphism classes when ``dedup`` is set."""
    total = 0
    for n in range(1, max_vertices + 1):
        pairs = list(itertools.combinations(range(n), 2))
        if not dedup:
            total += len(orders) ** n * 2 ** len(pairs)
            continue
        fixed = 0
        for perm in itertools.permutations(range(n)):
            on_pairs = {p: tuple(sorted((perm[p[0]], perm[p[1]]))) for p in pairs}
            fixed += (len(orders) ** _cycle_count(dict(enumerate(perm)))
                      * 2 ** _cycle_count(on_pairs))
        total += fixed // math.factorial(n)
    return total


def main() -> int:
    graphs = graphgen.pool()
    entries = []
    for k, graph in enumerate(graphs):
        entries.append(graph_reference(graph))
        print(f"graph {k + 1}/{len(graphs)}: n={entries[-1]['n']} "
              f"{entries[-1]['content']['class']}", file=sys.stderr)
    verify = {}
    for specs in VERIFY_SPECS.values():
        for max_vertices, orders, dedup, _ in specs:
            verify[spec_key(max_vertices, orders, dedup)] = checked_graphs(
                max_vertices, orders, dedup)
    out = {
        "pool": {"seed": graphgen.POOL_SEED, "size": graphgen.POOL_SIZE,
                 "digest": graphgen.pool_digest(graphs)},
        "graphs": entries,
        "verify_checked_graphs": verify,
    }
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
