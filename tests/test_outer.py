import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from silscope import (Census, OutKind, PartialConjugation, build_p0, classify,
                      commutes, disconnected_structure, enumerate_sils,
                      make_graph, partial_conjugations, presentation,
                      star_cut_points)
from silscope.harness import EnumSpec
from silscope.outer import factor_summary, validate_partial_conjugation

import oracles
from conftest import (names, triangle, two_sil_pairs_over_cliques, vset)
from test_graphs import labelled_graphs
from test_sils import triple_link_star_graph

DINF = "D∞"
Z2 = "ℤ/2ℤ"
TIMES = " × "


def gen_set(g, p0):
    return {(g.names[pc.vertex], tuple(names(g, pc.component))) for pc in p0}


# ---------------------------------------------------------------------------
# Generating set


def test_build_p0_pentagon_triangle(g_pentagon_triangle):
    g = g_pentagon_triangle
    p0 = build_p0(Census(g))  # input order puts a first
    assert gen_set(g, p0) == {
        ("v1", ("d", "e", "f")),
        ("v2", ("d", "e", "f")),
        ("c", ("e", "f")),
    }


def test_build_p0_pentagon_path(g_pentagon_path):
    g = g_pentagon_path
    p0 = build_p0(Census(g))
    assert gen_set(g, p0) == {
        ("v1", ("d", "e", "f")),
        ("v2", ("d", "e", "f")),
        ("c", ("e", "f")),
        ("d", ("f",)),
    }


def test_build_p0_pentagon_fork(g_pentagon_fork):
    g = g_pentagon_fork
    assert gen_set(g, build_p0(Census(g))) == {
        ("v1", ("d", "e", "f")),
        ("v2", ("d", "e", "f")),
        ("c", ("e",)),
        ("c", ("f",)),
        ("e", ("f",)),
        ("f", ("e",)),
    }


def test_build_p0_complete_graph_is_empty(g_triangle):
    assert build_p0(Census(g_triangle)) == ()


def test_build_p0_respects_ordering(g_pentagon_triangle):
    g = g_pentagon_triangle
    # with d numbered first, the dropped component at v1/v2 flips sides
    order = [g.index(n) for n in ("d", "e", "f", "a", "b", "c", "v1", "v2")]
    h = g.relabelled([order.index(v) for v in range(g.n)])
    assert h.names == ("d", "e", "f", "a", "b", "c", "v1", "v2")
    assert gen_set(h, build_p0(Census(h))) == {
        ("v1", ("b", "v2")),
        ("v2", ("a", "v1")),
        ("c", ("a", "b")),
    }


@given(labelled_graphs(max_n=5), st.randoms(use_true_random=False))
def test_build_p0_size_formula(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = g.relabelled(perm)
    census = Census(h)
    p0 = build_p0(census)
    expected = sum(len(partial_conjugations(census, v)) - 1
                   for v in star_cut_points(census))
    assert len(p0) == expected
    for pc in p0:
        assert validate_partial_conjugation(census, pc.vertex, pc.component) == pc


# ---------------------------------------------------------------------------
# Commutation predicate


def test_commutes_pentagon_triangle(g_pentagon_triangle):
    g = g_pentagon_triangle
    C = vset(g, "d", "e", "f")
    x1 = PartialConjugation(g.index("v1"), C)
    x2 = PartialConjugation(g.index("v2"), C)
    hinge = PartialConjugation(g.index("c"), vset(g, "e", "f"))
    census = Census(g)
    assert not commutes(census, x1, x2)  # shared separated component
    assert commutes(census, x1, hinge)   # adjacent acting vertices: no pair Sil
    assert commutes(census, x2, hinge)
    with pytest.raises(ValueError, match=r'\["d"\] is not a connected component'):
        commutes(census, PartialConjugation(g.index("v1"), vset(g, "d")), x2)
    with pytest.raises(ValueError, match="vertex index out of range: 99"):
        commutes(census, PartialConjugation(g.index("v1"), frozenset({99})), x2)


def test_commutes_same_acting_vertex(g_pentagon_fork):
    g = g_pentagon_fork
    a = PartialConjugation(g.index("c"), vset(g, "e"))
    b = PartialConjugation(g.index("c"), vset(g, "f"))
    assert commutes(Census(g), a, b)


def test_commutes_case_analysis_three_isolated(g_three_isolated):
    g = g_three_isolated
    x1, x2, x3 = (g.index(n) for n in ("x1", "x2", "x3"))
    census = Census(g)
    # witness inside both components (z in C = D)
    assert not commutes(census, PartialConjugation(x1, frozenset({x3})),
                        PartialConjugation(x2, frozenset({x3})))
    # acting vertex of one inside the other's component, witness in the first
    assert not commutes(census, PartialConjugation(x1, frozenset({x3})),
                        PartialConjugation(x3, frozenset({x2})))
    # mutual containment of acting vertices
    assert not commutes(census, PartialConjugation(x2, frozenset({x3})),
                        PartialConjugation(x3, frozenset({x2})))
    # no separating pair at all: same-side conjugations of a triangle
    t = triangle()
    assert commutes(Census(t), PartialConjugation(0, frozenset({1})),
                    PartialConjugation(0, frozenset({2})))


# ---------------------------------------------------------------------------
# Classification


def test_classify_fixtures(g_path_mixed, g_pentagon_triangle, g_path_isolated,
                           g_three_isolated, g_pentagon_fork):
    assert classify(Census(g_path_mixed)).kind is OutKind.FINITE
    assert classify(Census(g_pentagon_triangle)).kind is OutKind.VIRTUALLY_Z
    assert classify(Census(g_path_isolated)).kind is OutKind.VIRTUALLY_Z
    e3 = classify(Census(g_three_isolated))
    assert e3.kind is OutKind.LARGE
    assert (e3.coxeter_sils, e3.non_coxeter_sils, e3.stils, e3.fsils) == (3, 0, 0, 1)
    fork = classify(Census(g_pentagon_fork))
    assert fork.kind is OutKind.LARGE
    assert (fork.coxeter_sils, fork.stils, fork.fsils) == (4, 0, 1)


def test_classify_virtually_abelian_and_stil():
    va = classify(Census(two_sil_pairs_over_cliques()))
    assert va.kind is OutKind.VIRTUALLY_ABELIAN_NOT_Z
    assert va.coxeter_sils == 2 and va.non_coxeter_sils == 0
    big = classify(Census(triple_link_star_graph()))
    assert big.kind is OutKind.LARGE
    assert big.stils >= 1


def test_smallest_single_non_coxeter_sil_graph_is_large():
    """Search all labelled graphs with orders in {2,3} on up to 4 vertices
    for those whose census is exactly one non-Coxeter separating pair; they
    exist only at 4 vertices and every one of them classifies Large."""
    hits = []
    for g in oracles.graphs_of(EnumSpec(4, orders=(2, 3))):
        census = Census(g)
        sils = enumerate_sils(census)
        if len(sils) == 1 and not sils[0].coxeter:
            out = classify(census)
            assert out.kind is OutKind.LARGE
            assert out.non_coxeter_sils == 1
            hits.append(g)
    assert hits and min(g.n for g in hits) == 4


@given(labelled_graphs(max_n=5))
def test_classify_consistent_with_census(g):
    census = Census(g)
    out = classify(census)
    sils = enumerate_sils(census)
    assert out.coxeter_sils + out.non_coxeter_sils == len(sils)
    if out.kind is OutKind.FINITE:
        assert not sils
    elif out.kind is OutKind.VIRTUALLY_Z:
        assert len(sils) == 1 and sils[0].coxeter
        assert out.stils == out.fsils == 0
    elif out.kind is OutKind.VIRTUALLY_ABELIAN_NOT_Z:
        assert len(sils) >= 2 and all(s.coxeter for s in sils)
        assert out.stils == out.fsils == 0
    else:
        assert out.non_coxeter_sils or out.stils or out.fsils


# ---------------------------------------------------------------------------
# Presentation


def test_presentation_summaries(g_pentagon_triangle, g_pentagon_path,
                                g_path_isolated, g_path_mixed,
                                g_three_isolated):
    assert presentation(Census(g_pentagon_triangle)).summary == DINF + TIMES + Z2
    assert presentation(Census(g_pentagon_path)).summary == \
        DINF + TIMES + Z2 + TIMES + Z2
    assert presentation(Census(g_path_isolated)).summary == DINF
    assert presentation(Census(g_path_mixed)).summary == "1"
    assert presentation(Census(g_three_isolated)).summary == \
        "unfactored graph product"


def test_factor_summary_on_non_commutation_rows():
    # rows[i] masks the generators that generator i does not commute with
    assert factor_summary((), ()) == "1"
    assert factor_summary((3, 2, 2), (0, 0b100, 0b010)) == DINF + TIMES + "ℤ/3ℤ"
    assert factor_summary((2, 3), (0b10, 0b01)) == "unfactored graph product"
    assert factor_summary((4, 2), (0, 0)) == Z2 + TIMES + "ℤ/4ℤ"
    path = (0b010, 0b101, 0b010)  # a path of three generators
    assert factor_summary((2, 2, 2), path) == "unfactored graph product"


def test_presentation_edges_pentagon_triangle(g_pentagon_triangle):
    g = g_pentagon_triangle
    pres = presentation(Census(g))
    gens = pres.generators
    assert len(gens) == 3
    non_edges = {frozenset(p) for p in itertools.combinations(range(3), 2)
                 } - {frozenset(e) for e in pres.commuting_edges}
    (pair,) = non_edges
    acting = {g.names[gens[i].vertex] for i in pair}
    assert acting == {"v1", "v2"}
    assert pres.orders == (2, 2, 2)


def sample_relabellings(g, count, seed):
    """g and count - 1 other distinct seeded random relabellings of it."""
    rng = random.Random(seed)
    seen = {tuple(range(g.n))}
    while len(seen) < count:
        perm = list(range(g.n))
        rng.shuffle(perm)
        seen.add(tuple(perm))
    return [g.relabelled(perm) for perm in sorted(seen)]


@pytest.mark.parametrize("fixture", ["g_pentagon_triangle", "g_pentagon_path",
                                     "g_path_isolated"])
def test_virtually_z_has_one_non_commuting_pair_any_ordering(fixture, request):
    g = request.getfixturevalue(fixture)
    assert classify(Census(g)).kind is OutKind.VIRTUALLY_Z
    for h in sample_relabellings(g, 24, seed=7):
        pres = presentation(Census(h))
        total = len(pres.generators) * (len(pres.generators) - 1) // 2
        assert total - len(pres.commuting_edges) == 1


def test_commuting_edge_count_ordering_invariant(g_pentagon_triangle,
                                                 g_pentagon_path):
    # both graphs have exactly two components at every star cut point, so a
    # change of numbering only inverts generators
    for g in (g_pentagon_triangle, g_pentagon_path):
        census = Census(g)
        assert all(len(partial_conjugations(census, v)) == 2
                   for v in star_cut_points(census))
        counts = {len(presentation(Census(h)).commuting_edges)
                  for h in sample_relabellings(g, 12, seed=3)}
        assert len(counts) == 1


def test_conjugation_closure_in_virtually_z(g_pentagon_triangle, g_pentagon_path):
    # the unique non-commuting pair commutes with every other generator
    for g in (g_pentagon_triangle, g_pentagon_path):
        census = Census(g)
        pres = presentation(census)
        gens = pres.generators
        (i, j) = next((i, j) for i, j in itertools.combinations(range(len(gens)), 2)
                      if (i, j) not in pres.commuting_edges)
        for k in range(len(gens)):
            if k in (i, j):
                continue
            assert commutes(census, gens[k], gens[i])
            assert commutes(census, gens[k], gens[j])


def test_virtually_z_unique_pair_across_enumeration():
    """Every graph on <= 5 vertices that classifies virtually cyclic has
    exactly one non-commuting generator pair, whatever the numbering."""
    rng = random.Random(11)
    for g in oracles.graphs_of(EnumSpec(5, dedup_isomorphic=True)):
        if classify(Census(g)).kind is not OutKind.VIRTUALLY_Z:
            continue
        for h in (g, g.relabelled(rng.sample(range(g.n), g.n))):
            pres = presentation(Census(h))
            total = len(pres.generators) * (len(pres.generators) - 1) // 2
            assert total - len(pres.commuting_edges) == 1, g


# three VirtuallyAbelianNotZ classes of dedup n <= 8 {2}: Sils
# {v4, v5 | v7} and {v4, v6 | v8}, and G - St(v4) = {v5}, {v6}, {v7}, {v8}
_NO_DROP_RULE_EDGES = "v1v4 v1v6 v1v8 v2v4 v2v5 v2v7 v3v4 v3v5 v3v6"


@pytest.mark.parametrize("extra", ["", "v1v3", "v1v3 v2v3"])
def test_no_choice_of_dropped_components_factors(extra):
    """Whichever component each star cut point drops, the commutation graph
    of the kept generators is not a product of D-infinity and cyclic
    factors, so no drop rule makes the presentation summary exact."""
    edges = [(e[:2], e[2:]) for e in f"{_NO_DROP_RULE_EDGES} {extra}".split()]
    g = make_graph([(f"v{i}", 2) for i in range(1, 9)], edges)
    assert classify(Census(g)).kind is OutKind.VIRTUALLY_ABELIAN_NOT_Z
    sils = oracles.sil_census(g)
    v4, v5, v6 = g.index("v4"), g.index("v5"), g.index("v6")
    assert {(pair, comp) for pair, comp, _ in sils} == {
        ((v4, v5), vset(g, "v7")), ((v4, v6), vset(g, "v8"))}
    splits = []
    for v in range(g.n):
        keep = set(range(g.n)) - oracles.neighbors_scan(g, v) - {v}
        comps = oracles.components_uf(g, keep)
        if len(comps) >= 2:
            splits.append([PartialConjugation(v, c) for c in comps])
    choices = list(itertools.product(*map(range, map(len, splits))))
    assert len(choices) == 32
    for choice in choices:
        gens = [pc for split, k in zip(splits, choice)
                for i, pc in enumerate(split) if i != k]
        rows = [sum(1 << j for j, y in enumerate(gens)
                    if not oracles.commutes_by_sil_scan(g, x, y, sils))
                for x in gens]
        assert factor_summary([2] * len(gens), rows) == \
            "unfactored graph product", choice


@given(labelled_graphs(max_n=5))
@settings(max_examples=60)
def test_finite_iff_all_generators_commute(g):
    census = Census(g)
    sils = enumerate_sils(census)
    gens = build_p0(census)
    all_commute = all(commutes(census, x, y)
                      for x, y in itertools.combinations(gens, 2))
    assert (not sils) == all_commute


# ---------------------------------------------------------------------------
# Disconnected structure


def test_disconnected_structure_fixtures(g_path_isolated, g_three_isolated,
                                         g_pentagon_triangle):
    assert disconnected_structure(Census(g_pentagon_triangle)) is None

    d = disconnected_structure(Census(g_path_isolated))
    assert d.status == "product"
    assert d.summary == DINF
    assert [names(g_path_isolated, q) for q in d.quotients] == [["v1", "v2"], []]

    e = disconnected_structure(Census(g_three_isolated))
    assert e.status == "large" and e.quotients is None
    assert "three or more components" in e.reason


def test_disconnected_structure_two_sil_pairs():
    g = two_sil_pairs_over_cliques()
    d = disconnected_structure(Census(g))
    assert d.status == "product"
    assert d.summary == DINF + TIMES + DINF
    assert [names(g, q) for q in d.quotients] == [["p", "q"], ["w1", "w2"]]


def test_disconnected_structure_trivial_product():
    g = make_graph([("p", 2), ("q", 2), ("r", 2), ("s", 3), ("t", 3)],
                   [("p", "q"), ("q", "r"), ("p", "r"), ("s", "t")])
    d = disconnected_structure(Census(g))
    assert d.status == "product" and d.summary == "1"
    assert classify(Census(g)).kind is OutKind.FINITE


def test_disconnected_structure_blocked_cases():
    # a non-Coxeter separating pair in a two-component graph
    g = make_graph([("v1", 3), ("k", 2), ("v2", 2), ("w", 2)],
                   [("v1", "k"), ("k", "v2")])
    d = disconnected_structure(Census(g))
    assert d.status == "large" and "non-Coxeter" in d.reason
    # a separating triple across two components (path of 4 plus a point)
    h = make_graph([(n, 2) for n in "abcdw"],
                   [("a", "b"), ("b", "c"), ("c", "d")])
    dh = disconnected_structure(Census(h))
    assert dh.status == "large"


def test_disconnected_structure_reason_agrees_with_its_blockers():
    """One blocker takes "makes", two or more joined by "and" take "make"."""
    pair = make_graph([("v1", 3), ("k", 2), ("v2", 2), ("w", 2)],
                      [("v1", "k"), ("k", "v2")])
    assert disconnected_structure(Census(pair)).reason == \
        "a non-Coxeter separating pair makes the group large"
    path = [("a", "b"), ("b", "c"), ("c", "d")]
    triple = make_graph([(n, 2) for n in "abcdw"], path)
    assert disconnected_structure(Census(triple)).reason == \
        "a separating triple makes the group large"
    both = make_graph([(n, 3 if n == "d" else 2) for n in "abcdw"], path)
    assert disconnected_structure(Census(both)).reason == \
        "a non-Coxeter separating pair and a separating triple make the group large"
