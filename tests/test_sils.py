import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from silscope import EnumSpec, make_graph
from silscope.sils import Census

import oracles
from oracles import (SharedComponentError, Sil, enumerate_fsils,
                     enumerate_sils, enumerate_stils, is_sil,
                     shared_sil_component)
from conftest import names, vset
from test_graphs import labelled_graphs


def census(g):
    """enumerate_sils output in the oracle's (pair, component, coxeter) shape."""
    return {(s.pair, s.component, s.coxeter) for s in enumerate_sils(Census(g))}


def triple_link_star_graph():
    """Three mutually non-adjacent vertices over a shared 3-vertex link,
    with a pendant vertex hung off the link: the smallest shape giving a
    separating triple."""
    verts = [(n, 2) for n in ("t1", "t2", "t3", "l1", "l2", "l3", "p")]
    edges = [(t, l) for t in ("t1", "t2", "t3") for l in ("l1", "l2", "l3")]
    edges.append(("l3", "p"))
    return make_graph(verts, edges)


# ---------------------------------------------------------------------------
# Examples


def test_enumerate_sils_pentagon_triangle(g_pentagon_triangle):
    g = g_pentagon_triangle
    sils = enumerate_sils(Census(g))
    assert len(sils) == 1
    (sil,) = sils
    assert sil.pair == (g.index("v1"), g.index("v2"))
    assert sil.component == vset(g, "d", "e", "f")
    assert sil.coxeter


def test_enumerate_sils_three_isolated(g_three_isolated):
    g = g_three_isolated
    sils = enumerate_sils(Census(g))
    assert [(names(g, s.pair), names(g, s.component)) for s in sils] == [
        (["x1", "x2"], ["x3"]),
        (["x1", "x3"], ["x2"]),
        (["x2", "x3"], ["x1"]),
    ]
    assert all(s.coxeter for s in sils)


def test_enumerate_sils_trivial_cases(g_triangle, g_path_isolated):
    assert enumerate_sils(Census(g_triangle)) == []
    d = g_path_isolated
    sils = enumerate_sils(Census(d))
    assert len(sils) == 1
    assert sils[0].pair == (d.index("v1"), d.index("v2"))
    assert sils[0].component == vset(d, "w")


def test_pentagon_fork_census(g_pentagon_fork):
    # the full list, frozen from the brute-force definition scan
    g = g_pentagon_fork
    got = {(tuple(names(g, s.pair)), tuple(names(g, s.component)))
           for s in enumerate_sils(Census(g))}
    assert got == {
        (("c", "e"), ("f",)),
        (("c", "f"), ("e",)),
        (("e", "f"), ("a", "b", "c", "v1", "v2")),
        (("v1", "v2"), ("d", "e", "f")),
    }
    assert census(g) == oracles.sil_census(g)


def test_is_sil_examples(g_pentagon_triangle):
    g = g_pentagon_triangle
    c = Census(g)
    v1, v2 = g.index("v1"), g.index("v2")
    sil = is_sil(c, v1, v2, g.index("d"))
    assert sil == Sil((v1, v2), vset(g, "d", "e", "f"), True)
    assert is_sil(c, v2, v1, g.index("d")) == sil  # order-insensitive
    assert is_sil(c, v1, g.index("c"), g.index("d")) is None  # adjacent pair
    assert is_sil(c, g.index("a"), g.index("d"), g.index("b")) is None
    assert is_sil(c, v1, v2, g.index("a")) is None  # component holds v1
    assert is_sil(c, v1, v2, g.index("c")) is None  # witness is removed
    assert is_sil(c, v1, v1, g.index("d")) is None  # equal vertices


def test_enumerate_stils_examples(g_pentagon_triangle, g_three_isolated,
                                  g_pentagon_fork):
    assert enumerate_stils(Census(g_pentagon_triangle)) == []
    assert enumerate_stils(Census(g_three_isolated)) == []
    assert enumerate_stils(Census(g_pentagon_fork)) == []
    g = triple_link_star_graph()
    stils = enumerate_stils(Census(g))
    assert len(stils) == 1
    assert names(g, stils[0].triple) == ["t1", "t2", "t3"]
    assert stils[0].component == vset(g, "p")
    assert {(s[0], s[1]) for s in oracles.stil_census(g)} == {
        (stils[0].triple, stils[0].component)}


def test_enumerate_fsils_examples(g_three_isolated, g_pentagon_triangle,
                                  g_pentagon_fork):
    e = g_three_isolated
    fsils = enumerate_fsils(Census(e))
    assert [names(e, f.triple) for f in fsils] == [["x1", "x2", "x3"]]
    assert enumerate_fsils(Census(g_pentagon_triangle)) == []
    g = g_pentagon_fork
    fsils = enumerate_fsils(Census(g))
    assert [names(g, f.triple) for f in fsils] == [["c", "e", "f"]]
    # each pair of the triple is witnessed by the third vertex
    f = fsils[0]
    c, e_, f_ = (g.index(x) for x in ("c", "e", "f"))
    assert f_ in f.sils[0].component and e_ in f.sils[1].component
    assert c in f.sils[2].component


def test_shared_sil_component_examples(g_pentagon_triangle, g_path_isolated,
                                       g_three_isolated):
    g = g_pentagon_triangle
    c = Census(g)
    assert shared_sil_component(c, enumerate_sils(c)[0]) == vset(g, "d", "e", "f")
    d = g_path_isolated
    c = Census(d)
    assert shared_sil_component(c, enumerate_sils(c)[0]) == vset(d, "w")
    e = g_three_isolated
    c = Census(e)
    first = enumerate_sils(c)[0]
    assert names(e, first.pair) == ["x1", "x2"]
    assert shared_sil_component(c, first) == vset(e, "x3")


def test_shared_sil_component_rejects_fabricated_sil(g_pentagon_triangle):
    g = g_pentagon_triangle
    fake = Sil((g.index("a"), g.index("d")), vset(g, "v2"), True)
    with pytest.raises(SharedComponentError):
        shared_sil_component(Census(g), fake)


# ---------------------------------------------------------------------------
# Properties


@given(labelled_graphs())
def test_census_matches_definition_oracle(g):
    assert census(g) == oracles.sil_census(g)


@given(labelled_graphs(max_n=8))
def test_stil_and_fsil_match_definition_oracle(g):
    c = Census(g)
    assert {(s.triple, s.component) for s in enumerate_stils(c)} == \
        oracles.stil_census(g)
    assert {f.triple for f in enumerate_fsils(c)} == oracles.fsil_census(g)


@given(labelled_graphs())
def test_every_sil_shares_its_component(g):
    c = Census(g)
    for sil in enumerate_sils(c):
        assert shared_sil_component(c, sil) == sil.component


@given(labelled_graphs())
def test_sil_component_avoids_both_stars(g):
    for sil in enumerate_sils(Census(g)):
        v1, v2 = sil.pair
        stars = g.adj[v1] | 1 << v1 | g.adj[v2] | 1 << v2
        assert not any(stars >> u & 1 for u in sil.component)


@given(labelled_graphs(max_n=5), st.randoms(use_true_random=False))
def test_enumerate_sils_relabelling_equivariant(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = g.relabelled(perm)

    def mapped(s):
        a, b = sorted((perm[s.pair[0]], perm[s.pair[1]]))
        return ((a, b), frozenset(perm[v] for v in s.component), s.coxeter)

    assert {mapped(s) for s in enumerate_sils(Census(g))} == census(h)


@given(labelled_graphs(max_n=5))
def test_fsil_triples_induce_three_sils(g):
    c = Census(g)
    sils = enumerate_sils(c)
    for fsil in enumerate_fsils(c):
        pairs = {s.pair for s in sils if set(s.pair) <= set(fsil.triple)}
        assert len(pairs) >= 3


@given(labelled_graphs(max_n=5))
@settings(max_examples=60)
def test_stil_implies_two_sils(g):
    c = Census(g)
    if enumerate_stils(c):
        assert len(enumerate_sils(c)) >= 2


@pytest.mark.parametrize("spec", [
    EnumSpec(5, orders=(2,), dedup_isomorphic=True),
    EnumSpec(4, orders=(2, 3), dedup_isomorphic=True),
], ids=["dedup_n5_orders2", "dedup_n4_orders23"])
def test_is_sil_matches_oracle_on_every_vertex_triple(spec):
    """Every ordered (v1, v2, z), including v1 == v2 and z in the common
    link: is_sil is the oracle Sil on {v1, v2} whose component holds z."""
    for g in oracles.graphs_of(spec):
        sils, c = oracles.sil_census(g), Census(g)
        for v1, v2, z in itertools.product(range(g.n), repeat=3):
            pair = (min(v1, v2), max(v1, v2))
            expected = next((Sil(p, comp, cox) for p, comp, cox in sils
                             if p == pair and z in comp), None)
            assert is_sil(c, v1, v2, z) == expected


def test_is_sil_unknown_vertex(g_triangle):
    with pytest.raises(Exception):
        is_sil(Census(g_triangle), 0, 1, 99)
