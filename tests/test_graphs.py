import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from silscope import (Census, GraphError, UnknownVertexError, from_dot,
                      from_json, from_json_dict, make_graph, to_dot)
from silscope import graphs as graphs_module
from silscope.graphs import component_masks, is_prime_power

import oracles
from oracles import star_components, star_cut_points, to_json
from conftest import (names, path_mixed_orders, path_plus_isolated,
                      pentagon_fork, pentagon_path, pentagon_triangle,
                      three_isolated, triangle, two_sil_pairs_over_cliques,
                      vset)


@st.composite
def labelled_graphs(draw, max_n=6, orders=(2, 3)):
    n = draw(st.integers(min_value=1, max_value=max_n))
    order_list = [draw(st.sampled_from(orders)) for _ in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((f"u{i}", f"u{j}"))
    return make_graph([(f"u{i}", order_list[i]) for i in range(n)], edges)


def mask(g, *vertex_names):
    return sum(1 << g.index(x) for x in vertex_names)


# ---------------------------------------------------------------------------
# Examples


def test_link_examples(g_pentagon_triangle, g_path_mixed):
    """The link of v is the adjacency mask adj[v]."""
    g = g_pentagon_triangle
    assert g.adj[g.index("c")] == mask(g, "v1", "v2", "d")
    p = g_path_mixed
    assert p.adj[p.index("v1")] == mask(p, "v2", "v3")
    single = make_graph([("x", 2)], [])
    assert single.adj == (0,)


def test_star_examples(g_pentagon_triangle, g_path_mixed, g_path_isolated):
    """The census splits the graph minus each star St(v) = adj[v] | v."""
    g = g_pentagon_triangle
    assert star_components(Census(g), g.index("d")) == (
        vset(g, "a", "b", "v1", "v2"),)
    p = g_path_mixed
    assert star_components(Census(p), p.index("v3")) == (vset(p, "v2"),)
    d = g_path_isolated
    assert star_components(Census(d), d.index("w")) == (vset(d, "v1", "k", "v2"),)


def test_components_examples(g_pentagon_triangle, g_path_isolated, g_three_isolated):
    g = g_pentagon_triangle
    keep = (1 << g.n) - 1 ^ mask(g, "c")
    assert component_masks(g.adj, keep) == (mask(g, "a", "b", "v1", "v2"),
                                            mask(g, "d", "e", "f"))
    d = g_path_isolated
    assert component_masks(d.adj, (1 << d.n) - 1) == (mask(d, "v1", "k", "v2"),
                                                      mask(d, "w"))
    e = g_three_isolated
    assert component_masks(e.adj, (1 << e.n) - 1) == (
        mask(e, "x1"), mask(e, "x2"), mask(e, "x3"))
    assert component_masks(g.adj, 0) == ()


def test_star_cut_points_examples(g_pentagon_triangle, g_pentagon_path, g_triangle):
    g = g_pentagon_triangle
    assert names(g, star_cut_points(Census(g))) == ["c", "v1", "v2"]
    g2 = g_pentagon_path
    assert names(g2, star_cut_points(Census(g2))) == ["c", "d", "v1", "v2"]
    assert star_cut_points(Census(g_triangle)) == []


def test_unknown_vertex_errors(g_triangle):
    with pytest.raises(UnknownVertexError):
        g_triangle.check_vertex(17)
    with pytest.raises(UnknownVertexError):
        g_triangle.index("nope")


# ---------------------------------------------------------------------------
# Validation


def test_prime_power_validation():
    for good in (2, 3, 4, 5, 8, 9, 16, 27, 121, 2**31):
        assert is_prime_power(good)
    for bad in (0, 1, 6, 10, 12, 15, 36, 2 * 3**4):
        assert not is_prime_power(bad)


def test_make_graph_rejects_bad_input():
    with pytest.raises(GraphError):
        make_graph([], [])
    with pytest.raises(GraphError, match="duplicate vertex"):
        make_graph([("a", 2), ("a", 2)], [])
    with pytest.raises(GraphError, match="prime power"):
        make_graph([("a", 6)], [])
    with pytest.raises(GraphError, match="prime power"):
        make_graph([("a", 1)], [])
    with pytest.raises(GraphError, match="self-loop"):
        make_graph([("a", 2)], [("a", "a")])
    with pytest.raises(GraphError, match="duplicate edge"):
        make_graph([("a", 2), ("b", 2)], [("a", "b"), ("b", "a")])
    with pytest.raises(UnknownVertexError):
        make_graph([("a", 2)], [("a", "b")])


# ---------------------------------------------------------------------------
# Properties


@given(labelled_graphs())
def test_link_and_star_relation(g):
    """Each link mask misses its vertex and matches an edge-list scan, and
    the census splits exactly the vertices outside each star."""
    full = (1 << g.n) - 1
    census = Census(g)
    for v in range(g.n):
        lk = g.adj[v]
        assert not lk >> v & 1
        assert {u for u in range(g.n) if lk >> u & 1} == oracles.neighbors_scan(g, v)
        assert sum(census.star_splits[v]) == full & ~(lk | 1 << v)


@given(labelled_graphs(), st.data())
def test_components_partition(g, data):
    keep = data.draw(st.integers(0, (1 << g.n) - 1))
    parts = component_masks(g.adj, keep)
    lowest = [part & -part for part in parts]
    assert lowest == sorted(lowest)
    seen = 0
    for part in parts:
        assert part and not part & seen
        seen |= part
    assert seen == keep
    # no edges between distinct parts
    for i, part in enumerate(parts):
        others = sum(parts[i + 1:])
        assert not any(g.adj[u] & others for u in range(g.n) if part >> u & 1)


@given(labelled_graphs(max_n=9), st.data())
def test_component_masks_match_union_find(g, data):
    keep = data.draw(st.integers(0, (1 << g.n) - 1))
    parts = oracles.components_uf(g, [v for v in range(g.n) if keep >> v & 1])
    assert component_masks(g.adj, keep) == tuple(sum(1 << v for v in part)
                                                  for part in parts)


@given(labelled_graphs())
def test_star_cut_points_consistency(g):
    cut = star_cut_points(Census(g))
    assert cut == sorted(cut)
    for v in range(g.n):
        rest = set(range(g.n)) - oracles.neighbors_scan(g, v) - {v}
        ncomp = len(oracles.components_uf(g, rest))
        assert (v in cut) == (ncomp >= 2)


@given(labelled_graphs())
def test_relabelled_preserves_structure(g):
    perm = list(range(g.n))[::-1]
    h = g.relabelled(perm)
    assert sorted(h.names) == sorted(g.names)
    for u in range(g.n):
        assert h.orders[perm[u]] == g.orders[u]
        for v in range(g.n):
            assert g.adjacent(u, v) == h.adjacent(perm[u], perm[v])


def test_relabelled_rejects_non_permutation(g_triangle):
    for perm in ([0, 0, 1], [0, 1], [0, 1, 3], [0, 1, 2, 3]):
        with pytest.raises(GraphError, match="permutation"):
            g_triangle.relabelled(perm)


# ---------------------------------------------------------------------------
# Serialization


@given(labelled_graphs())
@settings(max_examples=50)
def test_json_round_trip_byte_stable(g):
    text = to_json(g)
    again = to_json(from_json(text))
    assert again == text
    h = from_json(text)
    assert h == g


def test_json_rejects_bad_documents():
    with pytest.raises(GraphError):
        from_json("[1, 2]")
    with pytest.raises(GraphError, match="vertices"):
        from_json('{"edges": []}')
    with pytest.raises(GraphError):
        from_json('{"vertices": [{"name": "a"}], "edges": [["a"]]}')
    with pytest.raises(GraphError, match="unexpected"):
        from_json('{"vertices": [{"name": "a"}], "edges": [], "extra": 1}')
    with pytest.raises(json.JSONDecodeError):
        from_json("{nope")


def test_json_rejects_unknown_vertex_keys():
    # a misspelt "order" must not silently become the default order 2
    with pytest.raises(GraphError, match=r"\['ordr'\]"):
        from_json('{"vertices": [{"name": "a", "ordr": 3}], "edges": []}')
    with pytest.raises(GraphError, match=r"\['colour', 'label'\]"):
        from_json('{"vertices": [{"name": "a", "order": 3, "label": "x", '
                  '"colour": 1}], "edges": []}')


@pytest.mark.parametrize("text, key", [
    ('{"vertices": [{"name": "a", "order": 3, "order": 2}], "edges": []}',
     "order"),
    ('{"vertices": [{"name": "a"}, {"name": "b"}], "edges": [], '
     '"edges": [["a", "b"]]}', "edges"),
], ids=["vertex_order", "edges"])
def test_json_refuses_a_key_given_twice(text, key):
    # json.loads alone keeps the last value: an order-2 vertex, an edge
    with pytest.raises(GraphError, match=f"duplicate key '{key}'"):
        from_json(text)


def test_json_default_order_is_two():
    g = from_json('{"vertices": [{"name": "a"}, {"name": "b", "order": 9}], '
                  '"edges": [["a", "b"]]}')
    assert g.orders == (2, 9)


class _Names(list):
    """A list subclass: an edge the loader must read as it reads a list."""


_ORDERS = st.one_of(
    st.integers(-2, 40),
    st.sampled_from([2**31 - 1, 2**31, True, False, 2.0, 3.5, "2", None,
                     [2], {"order": 2}]))


def _rarely(draw, one_in):
    """True about once in ``one_in`` draws; a middle value, since
    hypothesis draws the bounds of a range more often."""
    return draw(st.integers(0, one_in - 1)) == one_in // 2


@st.composite
def graph_json_like(draw):
    """Graph-JSON-like objects, many of them malformed in one way or more:
    vertex entries with extra keys or without a name, orders of every JSON
    type, edges that are no lists or have the wrong length, self-loops,
    unknown endpoints and edges given twice, in either direction."""
    vertices = []
    for k in range(0 if _rarely(draw, 20) else draw(st.integers(1, 5))):
        entry = {}
        if not _rarely(draw, 20):
            entry["name"] = ("abcde"[k] if not _rarely(draw, 10) else draw(
                st.sampled_from(["a", "", 7, None])))
        if draw(st.booleans()):
            entry["order"] = draw(_ORDERS) if _rarely(draw, 4) else draw(
                st.sampled_from([2, 3, 4]))
        if _rarely(draw, 30):
            entry[draw(st.sampled_from(["ordr", "colour"]))] = 1
        vertices.append(draw(st.sampled_from(["a", 2, None, []]))
                        if _rarely(draw, 30) else entry)
    known = list(dict.fromkeys(
        v["name"] for v in vertices
        if isinstance(v, dict) and isinstance(v.get("name"), str))) or ["a"]
    name = st.sampled_from(known)
    edges = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 39))
        if kind == 1:
            edges.append(draw(st.sampled_from(["a", None, 3, {"a": "b"},
                                               ("a", "b")])))
        elif kind == 2:
            edges.append(draw(st.lists(name, max_size=3).filter(
                lambda e: len(e) != 2)))
        elif kind == 3:
            edges.append([draw(name), "zz"][::draw(st.sampled_from([1, -1]))])
        elif kind == 4:
            edges.append([draw(name), draw(st.sampled_from([5, None, ["a"]]))])
        elif kind in (5, 6, 7) and edges:
            again = draw(st.sampled_from(edges))
            if isinstance(again, list):
                edges.append(again[::draw(st.sampled_from([1, -1]))])
        elif kind == 8:
            edges.append(_Names([draw(name), draw(name)]))
        else:
            edges.append([draw(name), draw(name)])
    data = {"vertices": vertices, "edges": edges}
    if _rarely(draw, 20):
        del data["edges"]
    if _rarely(draw, 40):
        data["extra"] = 1
    if _rarely(draw, 40):
        data["vertices"] = draw(st.sampled_from([None, {}, "a"]))
    return data


def _loaded(loader, data):
    """The graph ``loader`` makes of ``data``, or its exception's class
    and message."""
    try:
        return loader(data)
    except Exception as exc:  # noqa: BLE001 -- the class is compared
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(data=graph_json_like())
def test_loader_matches_the_reference_loader(data):
    """The one-pass loader makes the graph the reference loader makes, or
    raises the same exception class with the same message: the first
    fault either finds is the same."""
    assert _loaded(from_json_dict, data) == _loaded(oracles.from_json_dict,
                                                     data)


def test_loader_reads_each_distinct_order_once(monkeypatch):
    """Each distinct int order is tested once; an order of another type,
    hashable or not, is tested every time."""
    seen = []

    def counted(m, real=graphs_module.is_vertex_order):
        seen.append(m)
        return real(m)

    monkeypatch.setattr(graphs_module, "is_vertex_order", counted)
    make_graph([(name, 3 if name in "ace" else 2) for name in "abcdef"], [])
    assert seen == [3, 2]
    for bad in (True, 2.0, [2], {"order": 2}, None):
        seen.clear()
        with pytest.raises(GraphError, match="prime powers"):
            make_graph([("a", 2), ("b", 2), ("c", bad)], [])
        assert seen == [2, bad]


@given(labelled_graphs())
@settings(max_examples=50)
def test_dot_round_trip(g):
    h = from_dot(to_dot(g))
    assert h == g


def test_dot_parses_orders_and_defaults():
    g = from_dot("""
    graph G {
      // a path with one heavy endpoint
      a [order=3];
      a -- b;
      b -- "c d";
    }
    """)
    assert g.names == ("a", "b", "c d")
    assert g.orders == (3, 2, 2)
    assert g.adjacent(0, 1) and g.adjacent(1, 2) and not g.adjacent(0, 2)


def test_dot_rejects_garbage():
    with pytest.raises(GraphError, match="directed"):
        from_dot("digraph G { a -> b; }")
    with pytest.raises(GraphError, match="line 1"):
        from_dot('a [order=x];')
    with pytest.raises(GraphError, match="no vertices"):
        from_dot("graph G { }")


def test_dot_edge_chain_makes_consecutive_edges():
    g = from_dot("graph G {\n  a -- b -- c;\n}\n")
    assert g.names == ("a", "b", "c")
    assert g.edges() == [(0, 1), (1, 2)]


def test_dot_one_line_graph():
    g = from_dot("graph G { a -- b; }")
    assert g.names == ("a", "b") and g.edges() == [(0, 1)]


def test_dot_statements_share_a_line():
    g = from_dot("graph G {\n  a; b;\n}")
    assert g.names == ("a", "b") and g.edges() == []


@pytest.mark.parametrize("text, message", [
    ("a -- b;", "'graph' header"),
    ("graph G { a -- b; } c", "after the closing"),
    ("graph G { a -- b;", "missing closing"),
    ("graph G { node [order=3]; a; }", "'node' statements"),
    ("graph G { a -> b; }", "directed edges"),
    ("graph G { rankdir = LR; }", "expected a name"),
    ("graph G { a -- b -- ; }", "expected a name"),
    ("graph G { a [order]; }", "expected '='"),
    ('graph G { a [order="3x"]; }', "order attribute"),
    ("graph G { v-1; }", "unexpected character '-'"),
    ('graph G {\n  "a;\n}', "line 2: unterminated"),
], ids=["no_header", "text_after_brace", "missing_brace", "node_statement",
        "directed_edge", "graph_attribute", "dangling_edge",
        "attribute_without_value", "non_integer_order", "unquoted_dash",
        "unterminated_quote"])
def test_dot_refuses_what_it_does_not_read(text, message):
    with pytest.raises(GraphError, match=message):
        from_dot(text)


@pytest.mark.parametrize("text, expected", [
    ("graph G {\n  # note\n  a;\n}", ("a",)),
    ('graph G { "a\\" }', "line 1: unterminated quoted name"),
    ('graph G { "a\\b" }', ("a\\b",)),
    ('graph G { "a\\\\" }', ("a\\",)),
], ids=["indented_hash_line", "escaped_closing_quote", "lone_backslash",
        "escaped_backslash"])
def test_dot_reads_hash_lines_and_backslashes(text, expected):
    """A '#' line is skipped even when indented.  In a quoted name a
    backslash escapes a quote or a backslash and is kept before any other
    character, so an escaped quote does not end the name."""
    if isinstance(expected, str):
        with pytest.raises(GraphError, match=f"^{expected}$"):
            from_dot(text)
    else:
        assert from_dot(text).names == expected


@pytest.mark.parametrize("key", ["Order", "ORDER", "ordr", "orders", "oder",
                                 "odrer", "ordet", "xorder"])
def test_dot_refuses_a_misspelt_order(key):
    with pytest.raises(GraphError, match=f"line 3: attribute '{key}'"):
        from_dot(f"graph G {{\n  a -- b;\n  a [{key}=3];\n}}")


def test_dot_ignores_attributes_that_are_not_near_order():
    g = from_dot('graph G { a [color=red, style=filled, fillcolor="#ffcccc", '
                 'ordering=out, order=3]; a -- b [ordr=5]; }')
    assert g.orders == (3, 2)


@given(st.lists(st.tuples(st.text(min_size=1, max_size=6),
                          st.sampled_from((2, 3, 4))),
                min_size=1, max_size=5, unique_by=lambda v: v[0]),
       st.data())
@settings(max_examples=50, deadline=None)
def test_dot_round_trip_of_any_names(vertices, data):
    names = [name for name, _ in vertices]
    pairs = list(itertools.combinations(names, 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = make_graph(vertices, edges)
    assert from_dot(to_dot(g)) == g


DOT_PIECES = ("graph", "strict", "digraph", "node", "G", "{", "}", "[", "]",
              ";", ",", "=", "--", "->", "order", "color", "2", "3", "x", "0",
              "a", "b", "c", '"a b"', '"q\\"x"', '"', "\\", "-", ":", "\n",
              " ", "// c\n", "# p\n", "/", "*", "\u00e9", "\u00a0")


def dot_texts():
    """Arbitrary text, token soup, and well-formed bodies with some noise."""
    soup = st.lists(st.sampled_from(DOT_PIECES), max_size=30)
    name = st.sampled_from(("a", "b", "c", "v1", "2", '"a b"', '"q\\"x"',
                            '"\\\\"', "\u00e9", '"graph"'))
    attrs = st.sampled_from(("", " [order=3]", "[order=2, color=red]",
                             " [order=4][x=y]", ' [order="3"]', " [order=6]"))
    statement = st.builds(lambda names, a: " -- ".join(names) + a,
                          st.lists(name, min_size=1, max_size=3), attrs)
    separator = st.sampled_from((";", "\n", "; ", " ", ";\n", "\n// c\n"))
    body = st.lists(st.tuples(statement, separator), max_size=6).map(
        lambda stmts: "".join(stm + sep for stm, sep in stmts))
    return st.one_of(
        st.text(max_size=40),
        soup.map(" ".join),
        soup.map("".join),
        soup.map(lambda parts: "graph G {" + " ".join(parts) + "}"),
        st.tuples(st.sampled_from(("graph G {", "strict graph {", "graph{\n")),
                  body, st.sampled_from(("}", "}\n", "", "} x"))).map("".join),
    )


@given(dot_texts())
@settings(max_examples=400)
def test_dot_reader_parses_exactly_or_raises_graph_error(text):
    try:
        g = from_dot(text)
    except GraphError:
        return
    assert from_dot(to_dot(g)) == g


def test_fixture_shapes():
    # frozen structural facts about the shared fixtures
    def count_components(g):
        return len(component_masks(g.adj, (1 << g.n) - 1))

    assert count_components(pentagon_triangle()) == 1
    assert count_components(pentagon_path()) == 1
    assert count_components(path_plus_isolated()) == 2
    assert count_components(three_isolated()) == 3
    assert path_mixed_orders().orders == (2, 2, 3)
    assert len(pentagon_triangle().edges()) == 9
    assert len(triangle().edges()) == 3


def test_edges_walk_the_masks_in_the_order_of_the_pair_scan():
    fixtures = [make() for make in (
        pentagon_triangle, pentagon_path, pentagon_fork, path_mixed_orders,
        path_plus_isolated, three_isolated, triangle,
        two_sil_pairs_over_cliques)]
    rng = random.Random(23)
    drawn = [oracles.graph_from_bits(n, rng.getrandbits(n * (n - 1) // 2),
                                     (2,) * n)
             for n in (rng.randint(1, 36) for _ in range(200))]
    for g in fixtures + drawn:
        assert g.edges() == oracles.edge_list(g)
