"""Exhaustive small-graph enumeration and the property suite run over it.

Every check encodes a structural fact that must hold for all labelled
graphs (shared separated components, separation counts versus triple
separations, the commutation predicate versus the word-engine oracle, ...).
The suite enumerates all graphs up to a vertex bound, optionally one
representative per isomorphism class, runs each requested check, and
reports counterexamples; an empty report is the expected outcome.

Checks are pure functions of the graph's census (one :class:`Census` is
built per graph and shared by every check run on it).  The suite streams:
graphs are taken from the enumeration in fixed-size chunks, each chunk is
checked in this process or by a worker process, and the results are joined
in chunk order.  Reports therefore come out in enumeration order, and in
check-id order per graph, whatever the number of workers.
"""

from __future__ import annotations

import itertools
import json
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .graphs import (MAX_ORDER, LabelledGraph, from_json_dict, is_vertex_order,
                     to_json_dict, vertex_names)
from .outer import build_p0, commutes
from .sils import Census, SharedComponentError, shared_sil_component
from .words import commutator, search_inner

MAX_ENUMERATION_VERTICES = 8
CHUNK_SIZE = 256  # graphs per task: bounds memory, amortises pickling

DEFAULT_CHECKS = (
    "lemma_2_2",
    "lemma_4",
    "stil_two_sils",
    "lemma_7",
    "lemma_1_7",
    "finite_equiv",
    "three_components_fsil",
    "fsil_three_sils",
    "lemma_1_4_oracle",
)


@dataclass(frozen=True)
class EnumSpec:
    """What to enumerate and which checks to run.  ``orders`` and ``checks``
    must be non-empty; they are stored sorted and without repeats."""

    max_vertices: int
    orders: tuple = (2,)
    dedup_isomorphic: bool = False
    checks: tuple = DEFAULT_CHECKS
    workers: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.max_vertices <= MAX_ENUMERATION_VERTICES:
            raise ValueError(
                f"max_vertices must be in 1..{MAX_ENUMERATION_VERTICES}")
        if not self.orders:
            raise ValueError("the order alphabet is empty")
        for m in self.orders:
            if not is_vertex_order(m):
                raise ValueError(f"order alphabet entry {m} is not a prime power "
                                 f"in 2..{MAX_ORDER}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not self.checks:
            raise ValueError("no check ids given")
        unknown = [c for c in self.checks if c not in CHECKS]
        if unknown:
            raise ValueError(f"unknown check ids: {unknown}; "
                             f"known: {sorted(CHECKS)}")
        object.__setattr__(self, "orders", tuple(sorted(set(self.orders))))
        object.__setattr__(self, "checks", tuple(sorted(set(self.checks))))


@dataclass(frozen=True)
class CounterexampleReport:
    """A failed check, with enough data to replay it."""

    check: str
    graph: dict = field(compare=False)
    witness: dict = field(compare=False)
    message: str

    def to_json_dict(self) -> dict:
        return {"check": self.check, "graph": self.graph,
                "witness": self.witness, "message": self.message}

    def to_json_line(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, ensure_ascii=False)


def _report(check: str, g: LabelledGraph, witness: dict,
            message: str) -> CounterexampleReport:
    return CounterexampleReport(check, to_json_dict(g), witness, message)


# ---------------------------------------------------------------------------
# Enumeration


def _edge_pairs(n: int) -> list:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@lru_cache(maxsize=None)
def _perm_tables(n: int) -> tuple:
    """For each permutation of n vertices, the induced edge-bit remapping."""
    pairs = _edge_pairs(n)
    index = {p: k for k, p in enumerate(pairs)}
    tables = []
    for perm in itertools.permutations(range(n)):
        table = tuple(index[tuple(sorted((perm[i], perm[j])))] for i, j in pairs)
        tables.append((perm, table))
    return tuple(tables)


def graph_from_bits(n: int, mask: int, orders: Sequence[int]) -> LabelledGraph:
    adj = [0] * n
    for k, (i, j) in enumerate(_edge_pairs(n)):
        if mask >> k & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    names = tuple(f"v{i + 1}" for i in range(n))
    return LabelledGraph(names, tuple(orders), tuple(adj))


def enumerate_graphs(spec: EnumSpec) -> Iterator[LabelledGraph]:
    """All labelled graphs up to the vertex bound, optionally deduplicated.

    Edge sets are enumerated as bitmasks and order maps as assignments from
    the (sorted) alphabet, so graphs come in ascending (n, edge mask, order
    tuple).  With dedup on, each order-preserving isomorphism class appears
    once, represented by its minimal (edge mask, order tuple) encoding:
    since enumeration is in ascending encoding order, the first unseen
    graph of an orbit is that representative.
    """
    for n in range(1, spec.max_vertices + 1):
        n_edge_bits = n * (n - 1) // 2
        seen: set = set()
        tables = _perm_tables(n) if spec.dedup_isomorphic else ()
        for mask in range(1 << n_edge_bits):
            for orders in itertools.product(spec.orders, repeat=n):
                if spec.dedup_isomorphic:
                    if (mask, orders) in seen:
                        continue
                    for perm, table in tables:
                        pmask = 0
                        rest = mask
                        while rest:
                            low = rest & -rest
                            pmask |= 1 << table[low.bit_length() - 1]
                            rest ^= low
                        porders = [0] * n
                        for i in range(n):
                            porders[perm[i]] = orders[i]
                        seen.add((pmask, tuple(porders)))
                yield graph_from_bits(n, mask, orders)


# ---------------------------------------------------------------------------
# Checks: each takes the census and returns a report or None


def check_lemma_2_2(census: Census) -> Optional[CounterexampleReport]:
    """Every separating pair shares its separated component on both sides."""
    g = census.graph
    for sil in census.sils:
        try:
            shared_sil_component(census, sil)
        except SharedComponentError as exc:
            return _report("lemma_2_2", g,
                           {"pair": vertex_names(g, sil.pair),
                            "component": vertex_names(g, sil.component)},
                           str(exc))
    return None


def check_lemma_4(census: Census) -> Optional[CounterexampleReport]:
    """A graph with exactly one separating pair has no separating triple."""
    if len(census.sils) != 1:
        return None
    stils = census.stils
    if stils:
        g = census.graph
        return _report("lemma_4", g,
                       {"triple": vertex_names(g, stils[0].triple),
                        "component": vertex_names(g, stils[0].component)},
                       "unique separating pair coexists with a separating triple")
    return None


def check_stil_two_sils(census: Census) -> Optional[CounterexampleReport]:
    """Any separating triple forces at least two distinct separating pairs."""
    stils = census.stils
    if not stils:
        return None
    sils = census.sils
    if len(sils) < 2:
        g = census.graph
        return _report("stil_two_sils", g,
                       {"triple": vertex_names(g, stils[0].triple),
                        "sil_count": len(sils)},
                       "separating triple with fewer than two separating pairs")
    return None


def check_lemma_7(census: Census) -> Optional[CounterexampleReport]:
    """Connected with a unique separating pair: both punctured graphs have
    exactly two components."""
    if len(census.components()) > 1:
        return None
    sils = census.sils
    if len(sils) != 1:
        return None
    g = census.graph
    for v in sils[0].pair:
        ncomp = len(census.star_components(v))
        if ncomp != 2:
            return _report("lemma_7", g,
                           {"vertex": g.names[v], "components": ncomp},
                           "puncturing a unique-pair vertex left "
                           f"{ncomp} components instead of 2")
    return None


def check_lemma_1_7(census: Census) -> Optional[CounterexampleReport]:
    """Two separating pairs sharing one vertex and a witness give a
    separating triple on the three vertices at that witness."""
    if len(census.components()) > 1:
        return None
    g = census.graph
    for s1, s2 in itertools.combinations(census.sils, 2):
        common = set(s1.pair) & set(s2.pair)
        if len(common) != 1:
            continue
        x1 = common.pop()
        x2 = next(v for v in s1.pair if v != x1)
        x3 = next(v for v in s2.pair if v != x1)
        shared = g.adj[x1] & g.adj[x2] & g.adj[x3]
        for z in sorted(s1.component & s2.component):
            for comp in census.components(shared):
                if z in comp:
                    if comp & {x1, x2, x3}:
                        return _report(
                            "lemma_1_7", g,
                            {"triple": vertex_names(g, (x1, x2, x3)),
                             "witness": g.names[z]},
                            "shared witness of two separating pairs does not "
                            "separate the triple")
                    break
    return None


def check_finite_equiv(census: Census) -> Optional[CounterexampleReport]:
    """No separating pair iff all generator pairs commute."""
    sils = census.sils
    gens = build_p0(census)
    all_commute = all(commutes(census, x, y)
                      for x, y in itertools.combinations(gens, 2))
    if (not sils) != all_commute:
        return _report("finite_equiv", census.graph,
                       {"sil_count": len(sils), "all_commute": all_commute},
                       "separating-pair census disagrees with generator commutation")
    return None


def check_three_components_fsil(census: Census) -> Optional[CounterexampleReport]:
    """Three or more connected components force a flexible triple."""
    comps = census.components()
    if len(comps) < 3:
        return None
    if not census.fsils:
        g = census.graph
        return _report("three_components_fsil", g,
                       {"components": [vertex_names(g, c) for c in comps]},
                       f"{len(comps)} components but no flexible separating triple")
    return None


def check_fsil_three_sils(census: Census) -> Optional[CounterexampleReport]:
    """Every flexible triple induces separating pairs on all three pairs."""
    for fsil in census.fsils:
        triple = set(fsil.triple)
        pairs = {sil.pair for sil in census.sils if set(sil.pair) <= triple}
        if len(pairs) < 3:
            g = census.graph
            return _report("fsil_three_sils", g,
                           {"triple": vertex_names(g, fsil.triple),
                            "pairs": sorted(map(list, pairs))},
                           "flexible triple with fewer than three distinct pairs")
    return None


def check_lemma_1_4_oracle(census: Census) -> Optional[CounterexampleReport]:
    """Commutation predicate agrees with the word engine's exact innerness
    decision for every commutator of two generators."""
    g = census.graph
    gens = build_p0(census)
    for x, y in itertools.combinations(gens, 2):
        predicted = commutes(census, x, y)
        witness = search_inner(g, commutator(g, x, y))
        if predicted != (witness is not None):
            return _report("lemma_1_4_oracle", g,
                           {"x": x.label(g), "y": y.label(g),
                            "predicted_commutes": predicted,
                            "inner_witness_found": witness is not None},
                           "commutation predicate disagrees with the word oracle")
    return None


CHECKS: dict = {
    "lemma_2_2": check_lemma_2_2,
    "lemma_4": check_lemma_4,
    "stil_two_sils": check_stil_two_sils,
    "lemma_7": check_lemma_7,
    "lemma_1_7": check_lemma_1_7,
    "finite_equiv": check_finite_equiv,
    "three_components_fsil": check_three_components_fsil,
    "fsil_three_sils": check_fsil_three_sils,
    "lemma_1_4_oracle": check_lemma_1_4_oracle,
}


# ---------------------------------------------------------------------------
# Suite driver


def _run_checks(graphs: list, spec: EnumSpec) -> tuple:
    """Check one chunk: (number of graphs, their reports in order)."""
    out = []
    for g in graphs:
        census = Census(g)
        for check_id in spec.checks:
            report = CHECKS[check_id](census)
            if report is not None:
                out.append(report)
    return len(graphs), out


def _checked_chunks(spec: EnumSpec) -> Iterator[tuple]:
    """``_run_checks`` of each chunk of the enumeration, in chunk order: in
    this process for one worker, else in a pool with at most two chunks per
    process pending."""
    graphs = enumerate_graphs(spec)
    chunks = iter(lambda: list(itertools.islice(graphs, CHUNK_SIZE)), [])
    workers = min(spec.workers, os.cpu_count() or 1)
    if workers == 1:
        yield from (_run_checks(chunk, spec) for chunk in chunks)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        for chunk in chunks:
            pending.append(pool.submit(_run_checks, chunk, spec))
            if len(pending) > 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def run_suite(spec: EnumSpec) -> tuple:
    """Run every check of ``spec`` on each enumerated graph.

    Returns ``(checked_graphs, reports)``, the reports in enumeration order
    and by check id per graph; no report means every check passed.  Unknown
    check ids are refused when the spec is built, so a typo cannot silently
    skip coverage.  The pool never has more processes than there are CPUs.
    """
    checked, reports = 0, []
    for n, part in _checked_chunks(spec):
        checked += n
        reports.extend(part)
    return checked, reports


def replay(report: CounterexampleReport) -> Optional[CounterexampleReport]:
    """Re-run a report's check on its deserialized graph."""
    return CHECKS[report.check](Census(from_json_dict(report.graph)))
