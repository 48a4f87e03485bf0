"""The census against the brute-force oracles on every enumerated graph.

Each isomorphism class of the two specs below is checked: the Sils, Stils
and Fsils read from one :class:`Census` equal the per-definition scans of
``oracles``, the stored star components equal union-find components,
the generator masks equal the rank sort over union-find components that
``build_p0`` first was, and the non-commutation rows and the commuting
edges of the presentation, on the graph and on three seeded random
relabellings of it, equal the rule that scans all Sils for each generator
pair.
Seeded random graphs on 9 to 16 vertices, half of them connected and half
sparse (often disconnected), check the census and the generators on stars
with more and larger components than the small classes.

The census reads the Sils and Stils off the star splits alone, relying on
the identity that C is a component of G minus the common link of a pair
(or of a triple spanning at most one edge), avoiding it, iff C is a
component of G - St(v) for each of its vertices.  The identity is checked
from the oracles alone on the same graphs.  Building the census searches
the graph n + 1 times, once per star and once whole, never per link, and
reading what it holds searches no more.  The generating set, the
presentation and the word oracle read its bitmasks only, never its Sil,
Stil or Fsil objects.
"""

import inspect
import itertools
import random

import pytest

import silscope
from silscope import make_graph, outer, star_cut_points
from silscope import sils as sils_module
from silscope.graphs import LabelledGraph, _bits_to_set, component_masks
from silscope.harness import CHECKS, EnumSpec, enumerate_graphs
from silscope.outer import PartialConjugation, build_p0, presentation
from silscope.sils import Census

import oracles

SPECS = [EnumSpec(6, orders=(2,), dedup_isomorphic=True),
         EnumSpec(5, orders=(2, 3), dedup_isomorphic=True)]


def read_census(monkeypatch, g):
    """The census of ``g`` after every read of what it holds.  Building it
    must make exactly n + 1 searches, one per star and one of G, none per
    link; reading it must make none."""
    calls = []

    def counted(adj, keep_mask):
        calls.append(keep_mask)
        return component_masks(adj, keep_mask)

    with monkeypatch.context() as m:
        m.setattr(sils_module, "component_masks", counted)
        census = Census(g)
        assert len(calls) == g.n + 1
        census.sils, census.stils, census.fsils
        census.generators, census.non_commuting, census.components()
        for v in range(g.n):
            census.star_components(v)
    assert len(calls) == g.n + 1
    return census


def check_witnesses(census, sils):
    """The witness index against the union of each pair's components in
    ``sils`` (``oracles.sil_census`` output)."""
    expected = {}
    for pair, comp, _ in sils:
        expected[pair] = expected.get(pair, 0) | sum(1 << v for v in comp)
    assert census.witnesses == expected


def check_against_oracles(monkeypatch, g):
    census = read_census(monkeypatch, g)
    sils = oracles.sil_census(g)
    got = [(s.pair, s.component, s.coxeter) for s in census.sils]
    assert len(got) == len(set(got)) and set(got) == sils
    stils = [(s.triple, s.component) for s in census.stils]
    assert len(stils) == len(set(stils)) and set(stils) == oracles.stil_census(g)
    assert {f.triple for f in census.fsils} == oracles.fsil_census(g)
    check_witnesses(census, sils)
    for f in census.fsils:
        for (a, b), sil in zip(itertools.combinations(f.triple, 2), f.sils):
            (third,) = set(f.triple) - {a, b}
            assert sil.pair == (a, b) and third in sil.component
    for v in range(g.n):
        keep = set(range(g.n)) - oracles.neighbors_scan(g, v) - {v}
        assert list(census.star_components(v)) == oracles.components_uf(g, keep)
    check_generators(g, census, sils)


def check_generators(g, census, sils):
    """The census's generator masks and non-commutation rows against the
    rank sort over union-find components and the commutation rule that
    scans every Sil; then the generating set and commuting edges of ``g``
    and of three seeded random relabellings of it against the same."""
    gens = [PartialConjugation(v, comp)
            for v, comp in oracles.generators_by_rank(g)]
    assert [(v, _bits_to_set(c)) for v, c in census.generators] == [
        (pc.vertex, pc.component) for pc in gens]
    assert star_cut_points(census) == sorted({pc.vertex for pc in gens})
    assert list(census.non_commuting) == [
        sum(1 << j for j, y in enumerate(gens)
            if not oracles.commutes_by_sil_scan(g, x, y, sils))
        for x in gens]
    rng = random.Random(g.n * 7919 + sum(g.adj))
    for h in [g] + [g.relabelled(rng.sample(range(g.n), g.n)) for _ in range(3)]:
        h_census, h_sils = Census(h), oracles.sil_census(h)
        gens = tuple(PartialConjugation(v, comp)
                     for v, comp in oracles.generators_by_rank(h))
        assert build_p0(h_census) == gens
        pres = presentation(h_census)
        assert pres.generators == gens
        assert pres.commuting_edges == {
            (i, j) for i, j in itertools.combinations(range(len(gens)), 2)
            if oracles.commutes_by_sil_scan(h, gens[i], gens[j], h_sils)}


@pytest.mark.parametrize("spec", SPECS, ids=["n6_orders2", "n5_orders23"])
def test_census_matches_oracles_on_every_class(monkeypatch, spec):
    count = 0
    for g in oracles.graphs_of(spec):
        check_against_oracles(monkeypatch, g)
        count += 1
    assert count == {6: 208, 5: 662}[spec.max_vertices]


def random_graph(rng, connected):
    """A connected graph (random spanning tree plus extra random edges up to
    a random mean degree) or a sparse G(n, p), on 9 to 16 vertices."""
    n = rng.randint(9, 16)
    edges = set()
    if connected:
        order = list(range(n))
        rng.shuffle(order)
        for k in range(1, n):
            u, v = order[k], order[rng.randrange(k)]
            edges.add((min(u, v), max(u, v)))
        target = round(rng.choice((2.2, 3, 5)) * n / 2)
        while len(edges) < target:
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v)))
    else:
        p = rng.choice((0.08, 0.12, 0.18))
        edges = {(u, v) for u, v in itertools.combinations(range(n), 2)
                 if rng.random() < p}
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    orders = tuple(rng.choice((2, 2, 3)) for _ in range(n))
    return LabelledGraph(tuple(f"v{i}" for i in range(n)), orders, tuple(adj))


def test_census_matches_oracles_on_random_larger_graphs(monkeypatch):
    rng = random.Random(20261018)
    disconnected = 0
    for k in range(30):
        g = random_graph(rng, connected=k % 2 == 0)
        census = read_census(monkeypatch, g)
        stils = sorted(oracles.stil_census(g), key=lambda t: (t[0], min(t[1])))
        assert [(s.triple, s.component) for s in census.stils] == stils
        sils = sorted(oracles.sil_census(g), key=lambda t: (t[0], min(t[1])))
        assert [(s.pair, s.component, s.coxeter) for s in census.sils] == sils
        assert {f.triple for f in census.fsils} == oracles.fsil_census(g)
        check_witnesses(census, sils)
        disconnected += len(census.components()) > 1
        for v in range(g.n):
            keep = set(range(g.n)) - oracles.neighbors_scan(g, v) - {v}
            assert list(census.star_components(v)) == oracles.components_uf(g, keep)
        check_generators(g, census, sils)
    assert disconnected >= 10


def star_split_census(g):
    """The Sils and Stils as read off the components of every G - St(v),
    from union-find components and edge-list scans only: (Sil set, Stil
    set) in the shapes of ``oracles.sil_census`` and ``stil_census``."""
    owners = {}
    for v in range(g.n):
        keep = set(range(g.n)) - oracles.neighbors_scan(g, v) - {v}
        for comp in oracles.components_uf(g, keep):
            owners.setdefault(comp, set()).add(v)
    sils, stils = set(), set()
    for comp, vs in owners.items():
        for a, b in itertools.combinations(sorted(vs), 2):
            if b not in oracles.neighbors_scan(g, a):
                sils.add(((a, b), comp,
                          g.orders[a] == 2 and g.orders[b] == 2))
        for triple in itertools.combinations(sorted(vs), 3):
            spanned = sum(1 for a, b in itertools.combinations(triple, 2)
                          if b in oracles.neighbors_scan(g, a))
            if spanned <= 1:
                stils.add((triple, comp))
    return sils, stils


def identity_graphs():
    yield from itertools.chain.from_iterable(map(oracles.graphs_of, SPECS))
    rng = random.Random(20261018)
    for k in range(30):
        yield random_graph(rng, connected=k % 2 == 0)


def test_sils_and_stils_are_read_off_the_star_splits():
    count = 0
    for g in identity_graphs():
        sils, stils = star_split_census(g)
        assert sils == oracles.sil_census(g)
        assert stils == oracles.stil_census(g)
        count += 1
    assert count == 208 + 662 + 30


def census_fields(census):
    return (census.graph, census.split, census.star_splits, census.generators,
            census._sil_masks, census.witnesses, census.non_commuting,
            census._order_two, census.sils, census.stils, census.fsils)


def test_a_census_with_other_orders_equals_a_fresh_one(monkeypatch):
    """``with_orders_of`` searches nothing: it keeps what the adjacency gives,
    shares the oracle's verdict store, and rebuilds what reads orders.  The
    Sil and Fsil objects hold Coxeter flags, so one read before the copy
    must not leak into it."""
    calls = []

    def counted(adj, keep_mask):
        calls.append(keep_mask)
        return component_masks(adj, keep_mask)

    count = 0
    for first, tuples in enumerate_graphs(EnumSpec(5, orders=(2, 3, 4),
                                                   dedup_isomorphic=True)):
        census = Census(first)
        census.sils, census.fsils
        with monkeypatch.context() as m:
            m.setattr(sils_module, "component_masks", counted)
            graphs = [LabelledGraph(first.names, orders, first.adj)
                      for orders in tuples]
            copies = [census.with_orders_of(g) for g in graphs]
        for g, copy in zip(graphs, copies):
            assert copy.inner_verdicts is census.inner_verdicts
            assert census_fields(copy) == census_fields(Census(g))
            count += 1
    assert count == 3686 and calls == []


def test_bitmask_readers_build_no_sil_objects(monkeypatch):
    """The generating set, the presentation and the word oracle read the
    census's bitmasks; none of them enumerates Sils, Stils or Fsils."""
    calls = []
    for name in ("enumerate_sils", "enumerate_stils", "enumerate_fsils"):
        def counted(census, name=name, real=getattr(sils_module, name)):
            calls.append(name)
            return real(census)
        monkeypatch.setattr(sils_module, name, counted)
    count = 0
    for g in oracles.graphs_of(SPECS[1]):
        census = Census(g)
        build_p0(census)
        presentation(census)
        assert CHECKS["lemma_1_4_oracle"](census) is None
        count += 1
    assert count == 662 and calls == []
    census.sils, census.stils, census.fsils
    assert calls == ["enumerate_sils", "enumerate_stils", "enumerate_fsils"]


# ---------------------------------------------------------------------------
# One entry point per question

READERS = {
    sils_module: ("enumerate_sils", "enumerate_stils", "enumerate_fsils",
                  "shared_sil_component", "is_sil"),
    outer: ("star_cut_points", "partial_conjugations", "build_p0", "commutes",
            "classify", "presentation", "disconnected_structure"),
}
MASK_READERS = {"commute_rule", "factor_summary"}  # no graph: masks only
PUBLIC_NAMES = {
    # graph model and file formats
    "GraphError", "LabelledGraph", "UnknownVertexError", "from_dot",
    "from_json", "from_json_dict", "load_graph", "make_graph", "to_dot",
    "to_json", "to_json_dict",
    # census and its readers
    "Census", "Fsil", "SharedComponentError", "Sil", "Stil",
    "enumerate_fsils", "enumerate_sils", "enumerate_stils", "is_sil",
    "shared_sil_component", "CommutationPresentation",
    "DisconnectedStructure", "OutClass", "OutKind", "PartialConjugation",
    "build_p0", "classify", "commutes", "disconnected_structure",
    "partial_conjugations", "presentation", "star_cut_points",
    # verification suite
    "CounterexampleReport", "EnumSpec", "enumerate_graphs", "run_suite",
    # word engine
    "EPSILON", "Automorphism0", "WordError", "apply", "apply_automorphism",
    "commutator", "commutator_power_probe", "compose",
    "identity_automorphism", "make_word", "parse_word_literal",
    "pc_automorphism", "reduce", "search_inner",
}


def test_package_exports_the_census_readers():
    """silscope defines no function: each census reader it exports is the
    function of ``sils`` or ``outer`` itself.  Its public names are exactly
    ``PUBLIC_NAMES`` (submodules aside), so a helper that only tests call
    cannot be exported unnoticed."""
    assert not [name for name, value in vars(silscope).items()
                if inspect.isfunction(value) and value.__module__ == "silscope"]
    for module, names in READERS.items():
        for name in names:
            assert getattr(silscope, name) is getattr(module, name), name
    exported = {name for name, value in vars(silscope).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 51


def test_every_public_graph_function_takes_a_census():
    g = make_graph([("a", 2), ("b", 2), ("c", 2)], [])
    for module in READERS:
        for name, fn in vars(module).items():
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__ or name in MASK_READERS):
                continue
            first = next(iter(inspect.signature(fn).parameters.values()))
            assert (first.name, first.annotation) == ("census", "Census"), name
    # a graph where a census belongs fails loudly
    with pytest.raises(AttributeError):
        silscope.classify(g)
    with pytest.raises(AttributeError):
        silscope.is_sil(g, 0, 1, 2)
