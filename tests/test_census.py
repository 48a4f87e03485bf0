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
reading what it holds searches no more.  The census reads the
non-commutation rows from the Sil pairs alone; they equal the scan of
every generator pair on every class of dedup n <= 7 {2} and n <= 6
{2, 3}, and on sparse families (trees, paths with an isolated vertex,
matchings plus a universal vertex, G(n, p)) where most generator pairs
are skipped, together with the rule that scans the Sils.  There, and on
every fixture, the closed-form Stil count equals the Stils enumerated.
The generating set, the presentation, the classifier, the report and the
word oracle read its bitmasks only: no module of the package defines a
Sil, Stil or Fsil object or a reading of the census as one.  ``oracles``
keeps that reading as a reference; the classifier's counts equal those of
the objects it reads, and a report written from the masks alone equals
the one written from them.
"""

import importlib
import inspect
import itertools
import json
import random
from pathlib import Path

import pytest

import silscope
from silscope import (classify, cli, disconnected_structure, harness,
                      load_graph, make_graph, outer, words)
from silscope import graphs as graphs_module
from silscope import sils as sils_module
from silscope.graphs import LabelledGraph, _bits_to_set, component_masks
from silscope.cli import build_report
from silscope.harness import CHECKS, EnumSpec
from silscope.outer import PartialConjugation, build_p0, presentation
from silscope.sils import Census

import oracles
from oracles import (enumerate_fsils, enumerate_sils, enumerate_stils,
                     star_components, star_cut_points)

FIXTURES = Path(__file__).parent / "fixtures"
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
        enumerate_sils(census), enumerate_stils(census)
        enumerate_fsils(census)
        census.generators, census.non_commuting, census.components()
        for v in range(g.n):
            star_components(census, v)
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
    got = [(s.pair, s.component, s.coxeter) for s in enumerate_sils(census)]
    assert len(got) == len(set(got)) and set(got) == sils
    stils = [(s.triple, s.component) for s in enumerate_stils(census)]
    assert len(stils) == len(set(stils)) and set(stils) == oracles.stil_census(g)
    assert {f.triple for f in enumerate_fsils(census)} == oracles.fsil_census(g)
    check_witnesses(census, sils)
    for f in enumerate_fsils(census):
        for (a, b), sil in zip(itertools.combinations(f.triple, 2), f.sils):
            (third,) = set(f.triple) - {a, b}
            assert sil.pair == (a, b) and third in sil.component
    for v in range(g.n):
        keep = set(range(g.n)) - oracles.neighbors_scan(g, v) - {v}
        assert list(star_components(census, v)) == oracles.components_uf(g, keep)
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
        assert [(s.triple, s.component)
                for s in enumerate_stils(census)] == stils
        sils = sorted(oracles.sil_census(g), key=lambda t: (t[0], min(t[1])))
        assert [(s.pair, s.component, s.coxeter)
                for s in enumerate_sils(census)] == sils
        assert ({f.triple for f in enumerate_fsils(census)}
                == oracles.fsil_census(g))
        check_witnesses(census, sils)
        disconnected += len(census.components()) > 1
        for v in range(g.n):
            keep = set(range(g.n)) - oracles.neighbors_scan(g, v) - {v}
            assert list(star_components(census, v)) == oracles.components_uf(g, keep)
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


# what the package once read the census as, and ``oracles`` keeps
OBJECT_LAYER = ("Sil", "Stil", "Fsil", "SharedComponentError",
                "enumerate_sils", "enumerate_stils", "enumerate_fsils",
                "is_sil", "sil_at", "shared_sil_component", "star_components",
                "commutes", "partial_conjugations", "star_cut_points")


def assert_no_object_layer():
    """No module of the package, and no ``Census``, defines a Sil, Stil or
    Fsil object or a reading of the census as one, so no reader of the
    census can build one."""
    for module in (silscope, sils_module, outer, cli, harness, words):
        for name in OBJECT_LAYER:
            assert not hasattr(module, name), (module.__name__, name)
    assert not set(OBJECT_LAYER) & set(dir(Census))


def test_bitmask_readers_build_no_sil_objects():
    """The generating set, the presentation, the classifier, the
    disconnected-structure report and the word oracle read the census's
    bitmasks; there is no Sil, Stil or Fsil reading for them to call."""
    assert_no_object_layer()
    count = 0
    for g in oracles.graphs_of(SPECS[1]):
        census = Census(g)
        build_p0(census)
        presentation(census)
        classify(census)
        disconnected_structure(census)
        assert CHECKS["lemma_1_4_oracle"](census) is None
        count += 1
    assert count == 662


def test_a_report_enumerates_each_kind_at_most_once():
    """``build_report`` enumerates no kind of separation as objects: the
    package has no enumerator (the next test compares the reports)."""
    assert_no_object_layer()


def _no_vertex_set(mask):
    raise AssertionError(f"vertex set of mask {mask:#x} built")


def test_the_report_builds_no_census_objects(monkeypatch):
    """``build_report`` writes every Sil, Stil and Fsil item from the
    census's masks: with no reading of the census as objects in the
    package, the report equals the text of the oracle, which writes it
    from those objects, and on a connected graph it builds no vertex
    set."""
    assert_no_object_layer()
    graphs = [load_graph(str(path))
              for path in sorted(FIXTURES.glob("*.json"))]
    graphs += oracles.graphs_of(SPECS[1])
    expected = [json.dumps(oracles.build_report(g), indent=2,
                           ensure_ascii=False) for g in graphs]
    for g, text in zip(graphs, expected):
        census = Census(g)
        with monkeypatch.context() as patch:
            if len(census.split) <= 1:
                for module in (graphs_module, sils_module, outer):
                    patch.setattr(module, "_bits_to_set", _no_vertex_set)
            assert build_report(census) == text, g
    assert len(graphs) == 662 + len(list(FIXTURES.glob("*.json")))


def counts_of_objects(census):
    """The counts of an ``OutClass``, read off the objects of the oracles'
    reading of the census."""
    sils = enumerate_sils(census)
    coxeter = sum(s.coxeter for s in sils)
    return (coxeter, len(sils) - coxeter, len(enumerate_stils(census)),
            len(enumerate_fsils(census)))


def check_counts(census):
    out = classify(census)
    assert (out.coxeter_sils, out.non_coxeter_sils, out.stils,
            out.fsils) == counts_of_objects(census)


@pytest.mark.parametrize("spec, classes", [
    (EnumSpec(6, orders=(2, 3), dedup_isomorphic=True), 5758),
    (EnumSpec(5, orders=(2, 3, 4), dedup_isomorphic=True), 3686),
], ids=["dedup_6_23", "dedup_5_234"])
def test_classify_counts_equal_the_enumerated_objects(spec, classes):
    count = 0
    for g in oracles.graphs_of(spec):
        check_counts(Census(g))
        count += 1
    assert count == classes


def path_plus_isolated(n):
    """A path on n - 1 vertices plus an isolated vertex z: {z} is a
    component of G - St(v) for every other v, so each triple of the path
    spanning at most one edge is a Stil, a number cubic in n."""
    return LabelledGraph(tuple(f"v{i}" for i in range(n)), (2,) * n,
                         tuple((1 << i - 1 if 0 < i < n - 1 else 0)
                               | (1 << i + 1 if i < n - 2 else 0)
                               for i in range(n)))


def test_classify_counts_on_the_path_plus_isolated_family():
    stils = []
    for n in (2, 3, 4, 40, 160):
        census = Census(path_plus_isolated(n))
        check_counts(census)
        stils.append(classify(census).stils)
    assert stils[-1] == 657202


@pytest.mark.parametrize("spec, classes", [
    (EnumSpec(7, orders=(2,), dedup_isomorphic=True), 1252),
    (EnumSpec(6, orders=(2, 3), dedup_isomorphic=True), 5758),
], ids=["dedup_7_2", "dedup_6_23"])
def test_non_commuting_rows_equal_the_pair_scan(spec, classes):
    count = 0
    for g in oracles.graphs_of(spec):
        census = Census(g)
        assert census.non_commuting == oracles.non_commuting_by_pair_scan(census)
        count += 1
    assert count == classes


def graph_of_edges(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return LabelledGraph(tuple(f"v{i}" for i in range(n)), (2,) * n, tuple(adj))


def matching_plus_universal(n):
    """Disjoint edges on the first n - 1 vertices (n odd), each vertex of
    them adjacent to the last: many Sil pairs, each with many generators."""
    return graph_of_edges(n, [(v, v + 1) for v in range(0, n - 1, 2)]
                          + [(v, n - 1) for v in range(n - 1)])


def sparse_graphs():
    """Seeded random trees on 10 to 40 vertices, paths with an isolated
    vertex, matchings plus a universal vertex on up to 21 vertices, and
    seeded G(n, p) on 12 to 30 vertices: graphs where most pairs of
    generators act at two vertices that form no Sil pair."""
    rng = random.Random(20261020)
    for _ in range(6):
        n = rng.randint(10, 40)
        yield graph_of_edges(n, [(k, rng.randrange(k)) for k in range(1, n)])
    for n in (3, 5, 12, 24):
        yield path_plus_isolated(n)
    for n in (3, 7, 13, 21):
        yield matching_plus_universal(n)
    for _ in range(6):
        n, p = rng.randint(12, 30), rng.choice((0.08, 0.12, 0.18))
        yield graph_of_edges(n, [e for e in itertools.combinations(range(n), 2)
                                 if rng.random() < p])


def rows_by_sil_scan(g, census):
    """The non-commutation rows of the census's generators by the rule
    that scans the Sils, handed only those of the generators' pair."""
    by_pair = {}
    for sil in oracles.sil_census(g):
        by_pair.setdefault(sil[0], []).append(sil)
    gens = [PartialConjugation(v, _bits_to_set(c)) for v, c in census.generators]
    assert [(pc.vertex, pc.component) for pc in gens] == (
        oracles.generators_by_rank(g))
    return tuple(
        sum(1 << j for j, y in enumerate(gens) if not oracles.commutes_by_sil_scan(
            g, x, y, by_pair.get(tuple(sorted((x.vertex, y.vertex))), ())))
        for x in gens)


def test_rows_and_counts_on_sparse_families():
    """On each graph and a seeded relabelling of it, the rows read from
    the Sil pairs equal the scan of every generator pair and the rule that
    scans the Sils, and the classifier's counts, the closed-form Stil
    count among them, equal those of the enumerated objects."""
    rng = random.Random(7)
    count = 0
    for g in sparse_graphs():
        for h in (g, g.relabelled(rng.sample(range(g.n), g.n))):
            census = Census(h)
            rows = census.non_commuting
            assert rows == oracles.non_commuting_by_pair_scan(census)
            assert rows == rows_by_sil_scan(h, census)
            check_counts(census)
        count += 1
    assert count == 20


def test_classify_counts_on_every_fixture():
    for path in sorted(FIXTURES.glob("*.json")):
        check_counts(Census(load_graph(str(path))))


# ---------------------------------------------------------------------------
# One entry point per question

READERS = {
    sils_module: (),  # the census itself; its public functions read masks
    outer: ("build_p0", "classify", "presentation", "disconnected_structure"),
}
MASK_READERS = {"commute_rule", "factor_summary"}  # no graph: masks only
# each public name of silscope, by the submodule that defines it
EXPORTS = {
    # graph model and file formats
    "graphs": ("GraphError", "LabelledGraph", "UnknownVertexError",
               "from_json", "from_json_dict", "load_graph", "make_graph",
               "to_json_dict"),
    "dot": ("from_dot", "to_dot"),
    # census and its readers
    "sils": ("Census",),
    "outer": ("CommutationPresentation", "DisconnectedStructure", "OutClass",
              "OutKind", "PartialConjugation", "build_p0", "classify",
              "disconnected_structure", "presentation"),
    # verification suite
    "harness": ("CounterexampleReport", "EnumSpec", "enumerate_graphs",
                "run_suite"),
    # word engine
    "words": ("EPSILON", "Automorphism0", "WordError", "apply",
              "apply_automorphism", "commutator", "compose", "make_word",
              "parse_word_literal", "pc_automorphism", "reduce",
              "search_inner"),
}
PUBLIC_NAMES = {name for names in EXPORTS.values() for name in names}


def test_package_exports_the_census_readers():
    """silscope defines no function but the two that resolve its lazy
    names: each name it exports is the object of the submodule that
    defines it, each census reader the function of ``outer`` itself.  Its public names are exactly ``PUBLIC_NAMES``, so a helper
    that only tests call cannot be exported unnoticed."""
    assert {name for name, value in vars(silscope).items()
            if inspect.isfunction(value) and value.__module__ == "silscope"
            } == {"__getattr__", "__dir__"}
    assert set(silscope.__all__) == PUBLIC_NAMES
    assert len(silscope.__all__) == len(PUBLIC_NAMES) == 36
    for module_name, names in EXPORTS.items():
        module = importlib.import_module(f"silscope.{module_name}")
        for name in names:
            value = getattr(silscope, name)
            assert value is getattr(module, name), name
            assert getattr(value, "__module__", module.__name__) == \
                module.__name__, name
    for module, names in READERS.items():
        for name in names:
            assert getattr(silscope, name) is getattr(module, name), name
    # each lazy name read above is now bound in the module, and no other
    exported = {name for name, value in vars(silscope).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == PUBLIC_NAMES
    star: dict = {}
    exec("from silscope import *", star)
    del star["__builtins__"]
    assert star.keys() == PUBLIC_NAMES
    assert all(value is getattr(silscope, name) for name, value in star.items())
    assert PUBLIC_NAMES <= set(dir(silscope))
    with pytest.raises(AttributeError):
        silscope.format_word  # a words helper the package does not export


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
        silscope.presentation(g)
