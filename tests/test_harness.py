import itertools
import json

import pytest

from silscope import make_graph
from silscope.harness import (CHECKS, CounterexampleReport, EnumSpec,
                              bits_from_graph, count_graphs, enumerate_graphs,
                              graph_from_bits, graph_key, replay, run_suite)

NO_ORACLE = tuple(c for c in CHECKS if c != "lemma_1_4_oracle")


def exactly_n(spec, n):
    return [g for g in enumerate_graphs(spec) if g.n == n]


# ---------------------------------------------------------------------------
# Enumeration


def test_enumeration_counts_plain():
    # 2^C(n,2) labelled graphs on exactly n vertices
    assert len(exactly_n(EnumSpec(2), 2)) == 2
    assert len(exactly_n(EnumSpec(3), 3)) == 8
    assert count_graphs(EnumSpec(2)) == 1 + 2
    assert count_graphs(EnumSpec(3)) == 1 + 2 + 8
    assert count_graphs(EnumSpec(5)) == 1 + 2 + 8 + 64 + 1024


def test_enumeration_counts_dedup():
    # classes on exactly 3 vertices: empty, one edge, path, triangle
    spec = EnumSpec(3, dedup_isomorphic=True)
    assert len(exactly_n(spec, 3)) == 4
    assert count_graphs(spec) == 1 + 2 + 4
    # known census of graph isomorphism classes: 1, 2, 4, 11, 34, 156
    assert count_graphs(EnumSpec(5, dedup_isomorphic=True)) == 52
    assert count_graphs(EnumSpec(6, dedup_isomorphic=True)) == 208


def test_enumeration_counts_with_order_alphabet():
    assert count_graphs(EnumSpec(2, orders=(2, 3))) == 2 + 2 * 4
    # dedup folds the order-swapped two-vertex assignments together
    assert count_graphs(EnumSpec(2, orders=(2, 3), dedup_isomorphic=True)) == 2 + 2 * 3


def test_enumeration_is_deterministic():
    spec = EnumSpec(4, orders=(2, 3), dedup_isomorphic=True)
    assert list(enumerate_graphs(spec)) == list(enumerate_graphs(spec))


def are_isomorphic(g, h):
    if g.n != h.n:
        return False
    for perm in itertools.permutations(range(g.n)):
        if all(g.orders[i] == h.orders[perm[i]] for i in range(g.n)) and \
           all(g.adjacent(i, j) == h.adjacent(perm[i], perm[j])
               for i in range(g.n) for j in range(i + 1, g.n)):
            return True
    return False


def test_dedup_representatives_cover_all_classes():
    reps = exactly_n(EnumSpec(4, dedup_isomorphic=True), 4)
    assert len(reps) == 11
    for a, b in itertools.combinations(reps, 2):
        assert not are_isomorphic(a, b)
    for g in exactly_n(EnumSpec(4), 4):
        assert sum(are_isomorphic(g, rep) for rep in reps) == 1


def test_dedup_respects_order_labels():
    reps = exactly_n(EnumSpec(2, orders=(2, 3), dedup_isomorphic=True), 2)
    # one-edge graphs with orders (2,2), (2,3), (3,3) stay distinct
    assert len([g for g in reps if bits_from_graph(g)]) == 3


def test_graph_bits_round_trip():
    g = make_graph([("v1", 2), ("v2", 3), ("v3", 2)], [("v1", "v3")])
    mask = bits_from_graph(g)
    assert graph_from_bits(3, mask, g.orders) == g
    assert graph_key(g) == (3, mask, (2, 3, 2))


def test_enum_spec_validation():
    with pytest.raises(ValueError):
        EnumSpec(0)
    with pytest.raises(ValueError):
        EnumSpec(9)
    with pytest.raises(ValueError):
        EnumSpec(3, orders=(2, 6))
    with pytest.raises(ValueError):
        EnumSpec(3, workers=0)


# ---------------------------------------------------------------------------
# Suite driver


def test_run_suite_clean_on_small_graphs():
    assert run_suite(EnumSpec(4, dedup_isomorphic=True)) == []


def test_run_suite_rejects_unknown_check():
    with pytest.raises(ValueError, match="unknown check"):
        run_suite(EnumSpec(2, checks=("lemma_2_2", "not_a_check")))


def _fails_on_triangles(census):
    g = census.graph
    if g.n == 3 and len(g.edges()) == 3:
        return CounterexampleReport(
            "fails_on_triangles", json.loads(json.dumps(
                {"vertices": [{"name": n, "order": o}
                              for n, o in zip(g.names, g.orders)],
                 "edges": [[g.names[u], g.names[v]] for u, v in g.edges()]})),
            {"edges": len(g.edges())}, "deliberately falsified check")
    return None


@pytest.fixture
def falsified_check():
    CHECKS["fails_on_triangles"] = _fails_on_triangles
    try:
        yield "fails_on_triangles"
    finally:
        del CHECKS["fails_on_triangles"]


def test_falsified_check_self_test(falsified_check):
    reports = run_suite(EnumSpec(3, checks=(falsified_check, "lemma_2_2")))
    assert len(reports) == 1
    report = reports[0]
    assert report.check == falsified_check
    # replayable: deserializing the graph and re-running reproduces it
    again = replay(report)
    assert again is not None and again.check == falsified_check
    # JSON line round-trips
    assert json.loads(report.to_json_line())["message"] == report.message


def test_reports_sorted_by_graph_then_check(falsified_check):
    def _fails_everywhere(census):
        return CounterexampleReport("a_fails_first", {"vertices": [], "edges": []},
                                    {}, "x")
    CHECKS["a_fails_first"] = _fails_everywhere
    try:
        reports = run_suite(EnumSpec(3, checks=(falsified_check, "a_fails_first")))
    finally:
        del CHECKS["a_fails_first"]
    keys = [(r.check,) for r in reports]
    # per graph the check ids come out sorted; triangle graph carries both
    assert ("a_fails_first",) in keys and (falsified_check,) in keys
    by_graph = {}
    for r in reports:
        by_graph.setdefault(json.dumps(r.graph, sort_keys=True), []).append(r.check)
    for checks in by_graph.values():
        assert checks == sorted(checks)


def test_worker_counts_agree(falsified_check):
    spec1 = EnumSpec(3, checks=(falsified_check,), workers=1)
    spec2 = EnumSpec(3, checks=(falsified_check,), workers=2)
    lines1 = [r.to_json_line() for r in run_suite(spec1)]
    lines2 = [r.to_json_line() for r in run_suite(spec2)]
    assert lines1 == lines2 and lines1


def test_oracle_check_runs_on_six_vertices():
    spec = EnumSpec(6, dedup_isomorphic=True, checks=("lemma_1_4_oracle",))
    assert run_suite(spec) == []
