import gc
import itertools
import json
import os
import subprocess
import sys
import textwrap
from collections import Counter
from concurrent.futures import Future
from pathlib import Path

import pytest

from silscope import from_json_dict, harness, make_graph, sils, to_json_dict
from silscope.graphs import component_masks
from silscope.harness import (CHECKS, CounterexampleReport, EnumSpec,
                              enumerate_graphs, graph_from_bits, run_suite)
from silscope.sils import Census, Sil, shared_sil_component
from silscope.words import search_inner

import oracles

NO_ORACLE = tuple(c for c in CHECKS if c != "lemma_1_4_oracle")


def exactly_n(spec, n):
    return [g for g in oracles.graphs_of(spec) if g.n == n]


def count_graphs(spec):
    return len(list(oracles.graphs_of(spec)))


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
    # graphs on n unlabelled vertices, OEIS A000088
    per_n = Counter(g.n for g in oracles.graphs_of(EnumSpec(7, dedup_isomorphic=True)))
    assert [per_n[n] for n in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]
    # two vertex orders behave as graphs with loops allowed, OEIS A000666:
    # 2 + 6 + 20 + 90 + 544 + 5096 classes on 1..6 vertices
    spec = EnumSpec(6, orders=(2, 3), dedup_isomorphic=True)
    assert count_graphs(spec) == 5758


def test_enumeration_counts_with_order_alphabet():
    assert count_graphs(EnumSpec(2, orders=(2, 3))) == 2 + 2 * 4
    # dedup folds the order-swapped two-vertex assignments together
    assert count_graphs(EnumSpec(2, orders=(2, 3), dedup_isomorphic=True)) == 2 + 2 * 3


def test_dedup_enumeration_leaves_no_reference_cycles():
    """The automorphism search of the dedup enumeration frees what it
    builds without the cyclic collector."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert count_graphs(EnumSpec(5, orders=(2, 3), dedup_isomorphic=True)) == 662
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


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
    assert len([g for g in reps if g.edges()]) == 3


def test_graph_bits_round_trip():
    g = make_graph([("v1", 2), ("v2", 3), ("v3", 2)], [("v1", "v3")])
    # edge bits run over the pairs (0,1), (0,2), (1,2)
    assert graph_from_bits(3, 0b010, g.orders) == g


def encoding(g):
    pairs = list(itertools.combinations(range(g.n), 2))
    return sum(1 << pairs.index(e) for e in g.edges()), g.orders


def test_dedup_representatives_are_minimal_encodings():
    # an unsorted alphabet must still give the minimal representatives
    reps = list(oracles.graphs_of(EnumSpec(3, orders=(3, 2), dedup_isomorphic=True)))
    # n=3: empty 4, one edge 3*2, path 2*3, triangle 4
    assert len(reps) == 2 + 2 * 3 + (4 + 6 + 6 + 4)
    reps += oracles.graphs_of(EnumSpec(5, orders=(2, 3), dedup_isomorphic=True))
    for g in reps:
        assert all(encoding(g) <= encoding(g.relabelled(perm))
                   for perm in itertools.permutations(range(g.n))), g


@pytest.mark.parametrize("max_vertices, orders", [
    (6, (2,)), (5, (2, 3)), (5, (2, 4)), (4, (2, 3, 4)), (3, (2, 3, 5))])
def test_orderly_generation_matches_orbit_marking(max_vertices, orders):
    spec = EnumSpec(max_vertices, orders=orders, dedup_isomorphic=True)
    assert list(oracles.graphs_of(spec)) == list(oracles.dedup_by_orbit_marking(spec))


@pytest.mark.parametrize("spec", [
    EnumSpec(7, dedup_isomorphic=True),
    EnumSpec(6, orders=(2, 3), dedup_isomorphic=True),
    EnumSpec(5, orders=(2, 3, 4), dedup_isomorphic=True),
    EnumSpec(5, orders=(2, 3)),
], ids=["dedup_7_2", "dedup_6_23", "dedup_5_234", "labelled_5_23"])
def test_mask_records_flatten_to_the_per_graph_enumeration(spec):
    assert list(oracles.graphs_of(spec)) == list(
        oracles.enumerate_graphs_per_graph(spec))
    masks = [(g.n, encoding(g)[0]) for g, _ in enumerate_graphs(spec)]
    assert masks == sorted(set(masks))  # one record per mask, ascending
    for g, tuples in enumerate_graphs(spec):
        assert g.orders == tuples[0]


def test_labelled_masks_share_one_list_of_order_tuples():
    lists = {}
    for g, tuples in enumerate_graphs(EnumSpec(4, orders=(2, 3))):
        lists.setdefault(g.n, set()).add(id(tuples))
    assert {n: len(ids) for n, ids in lists.items()} == {1: 1, 2: 1, 3: 1, 4: 1}


def test_parent_automorphisms_prune_the_minimality_searches(monkeypatch):
    """A row of vertex 0 that an automorphism of the parent, or a swap of
    two of its twins, lowers gives no minimal child, so it is not searched."""
    calls = []

    def counted(adj, every):
        calls.append(adj)
        return automorphisms(adj, every)

    automorphisms = harness._automorphisms
    monkeypatch.setattr(harness, "_automorphisms", counted)
    spec = EnumSpec(7, dedup_isomorphic=True)
    assert sum(1 for _ in oracles.enumerate_graphs_per_graph(spec)) == 1252
    assert len(calls) == 11291
    calls.clear()
    assert sum(len(tuples) for _, tuples in enumerate_graphs(spec)) == 1252
    assert len(calls) == 5759


def test_enum_spec_sorts_and_folds_repeats():
    spec = EnumSpec(3, orders=(3, 2, 2), checks=("lemma_4", "lemma_2_2", "lemma_4"))
    assert spec.orders == (2, 3)
    assert spec.checks == ("lemma_2_2", "lemma_4")
    assert count_graphs(spec) == count_graphs(EnumSpec(3, orders=(2, 3)))


def test_enum_spec_refuses_empty_lists():
    with pytest.raises(ValueError, match="order alphabet is empty"):
        EnumSpec(3, orders=())
    with pytest.raises(ValueError, match="no check ids"):
        EnumSpec(3, checks=())


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
    assert run_suite(EnumSpec(4, dedup_isomorphic=True))[1] == []


def test_run_suite_rejects_unknown_check():
    with pytest.raises(ValueError, match="unknown check"):
        run_suite(EnumSpec(2, checks=("lemma_2_2", "not_a_check")))


def _fails_on_triangles(census):
    g = census.graph
    if g.n == 3 and len(g.edges()) == 3:
        return {"edges": len(g.edges())}, "deliberately falsified check"
    return None


@pytest.fixture
def falsified_check():
    CHECKS["fails_on_triangles"] = _fails_on_triangles
    try:
        yield "fails_on_triangles"
    finally:
        del CHECKS["fails_on_triangles"]


def test_falsified_check_self_test(falsified_check):
    _, reports = run_suite(EnumSpec(3, checks=(falsified_check, "lemma_2_2")))
    assert len(reports) == 1
    report = reports[0]
    assert report.check == falsified_check
    assert report.graph == {"vertices": [{"name": f"v{i}", "order": 2}
                                         for i in (1, 2, 3)],
                            "edges": [["v1", "v2"], ["v1", "v3"], ["v2", "v3"]]}
    # replayable: deserializing the graph and re-running reproduces it
    again = CHECKS[report.check](Census(from_json_dict(report.graph)))
    assert again == (report.witness, report.message)
    # JSON line round-trips
    assert json.loads(report.to_json_line())["message"] == report.message


def test_reports_compare_by_every_field():
    empty = {"vertices": [], "edges": []}
    one = {"vertices": [{"name": "v1", "order": 2}], "edges": []}
    report = CounterexampleReport("c", empty, {}, "m")
    assert report == CounterexampleReport("c", dict(empty), {}, "m")
    assert report != CounterexampleReport("c", one, {}, "m")
    assert report != CounterexampleReport("c", empty, {"k": 1}, "m")


def test_reports_sorted_by_graph_then_check(falsified_check):
    def _fails_everywhere(census):
        return {}, "x"
    CHECKS["a_fails_first"] = _fails_everywhere
    try:
        _, reports = run_suite(EnumSpec(3, checks=(falsified_check, "a_fails_first")))
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
    lines1 = [r.to_json_line() for r in run_suite(spec1)[1]]
    lines2 = [r.to_json_line() for r in run_suite(spec2)[1]]
    assert lines1 == lines2 and lines1


# ---------------------------------------------------------------------------
# Mask groups: the order-free checks run once per edge mask

C8 = tuple(sorted(harness.ORDER_FREE))
ORDER_FREE_SPECS = [EnumSpec(4, orders=(2, 3, 4)),
                    EnumSpec(6, orders=(2, 3), dedup_isomorphic=True),
                    EnumSpec(5, orders=(2, 3, 4), dedup_isomorphic=True)]


def order_dependent_checks(spec):
    """The checks declared order-free whose verdict, witness or message
    differs between two order tuples of one edge mask of ``spec``."""
    outcomes = {}  # (check id, adjacency) -> set of outcomes
    for g in oracles.graphs_of(spec):
        census = Census(g)
        for check_id in harness.ORDER_FREE:
            verdict = CHECKS[check_id](census)
            outcomes.setdefault((check_id, g.adj), set()).add(
                None if verdict is None else
                (json.dumps(verdict[0], sort_keys=True), verdict[1]))
    return sorted({c for (c, _), seen in outcomes.items() if len(seen) > 1})


def test_c8_is_the_default_checks_but_the_oracle():
    assert harness.ORDER_FREE == set(NO_ORACLE)


@pytest.mark.parametrize("spec", ORDER_FREE_SPECS,
                         ids=["labelled_4_234", "dedup_6_23", "dedup_5_234"])
def test_order_free_checks_agree_on_every_order_tuple(spec):
    assert order_dependent_checks(spec) == []


def _all_sils_coxeter(census):
    """Reads ``Sil.coxeter``, so its verdict depends on the vertex orders."""
    count = sum(not sil.coxeter for sil in census.sils)
    if count:
        return ({"non_coxeter_sils": count},
                "a separating pair is not a Coxeter pair")
    return None


def test_order_free_guard_catches_a_check_that_reads_orders(monkeypatch):
    monkeypatch.setitem(CHECKS, "all_sils_coxeter", _all_sils_coxeter)
    monkeypatch.setattr(harness, "ORDER_FREE",
                        harness.ORDER_FREE | {"all_sils_coxeter"})
    assert order_dependent_checks(ORDER_FREE_SPECS[0]) == ["all_sils_coxeter"]
    # declared order-free, it runs once per mask, on the all-2 order tuple
    # that passes, and misses the failing tuples of the mask
    spec = EnumSpec(3, orders=(2, 3), checks=("all_sils_coxeter",))
    assert run_suite(spec)[1] == []
    assert len(oracles.run_suite_per_graph(spec)[1]) > 0


def as_lines(result):
    checked, reports = result
    return checked, [r.to_json_line() for r in reports]


@pytest.mark.parametrize("workers", [1, 2])
def test_mask_groups_match_the_per_graph_driver_on_lemma_7(workers):
    spec = EnumSpec(7, dedup_isomorphic=True, checks=C8, workers=workers)
    checked, lines = as_lines(run_suite(spec))
    assert (checked, len(lines)) == (1252, 7)
    assert (checked, lines) == as_lines(oracles.run_suite_per_graph(spec))


def _fails_with_two_edges(census):
    """An order-free stand-in for a C8 check that fails on some masks."""
    edges = len(census.graph.edges())
    if edges >= 2:
        return {"edges": edges}, "two or more edges"
    return None


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("other", ["lemma_1_4_oracle", "fails_on_triangles"])
def test_mask_groups_emit_one_report_per_order_tuple(monkeypatch, workers,
                                                     other):
    """A C8 check failing on a mask is reported for each of its order
    tuples, from the one verdict of the mask, so each report carries its
    own graph, in the per-graph driver's order next to a check that runs
    per graph."""
    monkeypatch.setitem(CHECKS, "lemma_4", _fails_with_two_edges)
    monkeypatch.setitem(CHECKS, "fails_on_triangles", _fails_on_triangles)
    # chunks of one whole mask group each on three vertices (8 graphs)
    monkeypatch.setattr(harness, "CHUNK_SIZE", 5)
    spec = EnumSpec(3, orders=(2, 3), checks=C8 + (other,), workers=workers)
    checked, lines = as_lines(run_suite(spec))
    # paths and triangles: 3 + 1 masks on three vertices, 8 tuples each
    assert checked == 74
    assert sum('"check": "lemma_4"' in line for line in lines) == 32
    assert (checked, lines) == as_lines(oracles.run_suite_per_graph(spec))


def test_order_free_verdicts_are_shared_by_the_mask_group(monkeypatch):
    """A failing order-free verdict stands for every order tuple of its
    mask: the check runs once per edge mask, not again per graph."""
    masks = []

    def counted(census):
        masks.append(census.graph.adj)
        return _fails_with_two_edges(census)

    monkeypatch.setitem(CHECKS, "lemma_4", counted)
    checked, reports = run_suite(EnumSpec(3, orders=(2, 3), checks=C8))
    # 1 + 2 + 8 masks on one to three vertices
    assert len(masks) == len(set(masks)) == 11
    assert checked == 74
    assert [r.check for r in reports] == ["lemma_4"] * 32


# Every counterexample of dedup n <= 7, orders {2}: all are lemma_7, each a
# connected graph with one separating pair, one vertex of which leaves three
# components of G - St(v), not two.  Edges "ij" join vi and vj.
LEMMA_7_ON_SEVEN_VERTICES = [
    "13 14 15 17 24 26 34 35",
    "14 15 17 23 24 26 34 35",
    "13 14 15 17 23 24 26 34 35",
    "14 16 17 24 25 26 34 35",
    "12 14 16 17 24 25 26 34 35",
    "14 16 17 23 24 25 26 34 35",
    "12 14 16 17 23 24 25 26 34 35",
]


def test_lemma_7_counterexamples_on_seven_vertices_are_pinned():
    checked, reports = run_suite(EnumSpec(7, dedup_isomorphic=True))
    assert checked == 1252
    assert [(r.check, " ".join(a[1:] + b[1:] for a, b in r.graph["edges"]))
            for r in reports] == [("lemma_7", e) for e in LEMMA_7_ON_SEVEN_VERTICES]
    for report in reports:
        g = from_json_dict(report.graph)
        assert len(oracles.components_uf(g, range(g.n))) == 1
        [(pair, _, _)] = oracles.sil_census(g)
        v = g.index(report.witness["vertex"])
        star_components = [
            len(oracles.components_uf(g, set(range(g.n)) - {u}
                                      - oracles.neighbors_scan(g, u)))
            for u in pair]
        # the check names the first pair vertex that does not leave two
        assert star_components[:pair.index(v) + 1] == [2] * pair.index(v) + [3]
        assert report.witness["components"] == 3


def test_oracle_check_runs_on_six_vertices():
    spec = EnumSpec(6, dedup_isomorphic=True, checks=("lemma_1_4_oracle",))
    assert run_suite(spec)[1] == []


def _commute_rule_without_the_crossed_clause(witnesses, x, c, y, d):
    """sils.commute_rule without its "x in D and y in C" clause."""
    if x == y or not witnesses:
        return True
    if witnesses & c and (c == d or d >> x & 1):
        return False
    return not (c >> y & 1 and witnesses & d)


@pytest.mark.parametrize("rule, expected, first", [
    (_commute_rule_without_the_crossed_clause, 16,
     ("chi v2 {v3}", "chi v3 {v2}")),
    (lambda witnesses, x, c, y, d: True, 23,
     ("chi v1 {v3}", "chi v2 {v3}")),
], ids=["crossed_clause_dropped", "always_commute"])
def test_oracle_catches_a_wrong_commutation_rule(monkeypatch, rule, expected,
                                                 first):
    """The word oracle builds its commutators without the rule, so a rule
    that predicts commutation where there is none is reported."""
    monkeypatch.setattr(sils, "commute_rule", rule)
    spec = EnumSpec(5, dedup_isomorphic=True, checks=("lemma_1_4_oracle",))
    checked, reports = run_suite(spec)
    assert checked == 52
    assert len(reports) == expected
    assert (reports[0].witness["x"], reports[0].witness["y"]) == first
    for report in reports:
        assert report.check == "lemma_1_4_oracle"
        assert report.witness["predicted_commutes"] is True
        assert report.witness["inner_witness_found"] is False


WRONG_RULES = {"crossed_clause_dropped": _commute_rule_without_the_crossed_clause,
               "always_commute": lambda witnesses, x, c, y, d: True}


@pytest.mark.parametrize("rule", WRONG_RULES)
@pytest.mark.parametrize("spec, expected", [
    (EnumSpec(5, orders=(2, 3), dedup_isomorphic=True,
              checks=("lemma_1_4_oracle",)),
     {"crossed_clause_dropped": 196, "always_commute": 330}),
    (EnumSpec(5, orders=(2, 3, 4), dedup_isomorphic=True,
              checks=("lemma_1_4_oracle",), workers=2),
     {"crossed_clause_dropped": 1036, "always_commute": 1882}),
    (EnumSpec(4, orders=(2, 3), checks=("lemma_1_4_oracle",)),
     {"crossed_clause_dropped": 248, "always_commute": 376}),
], ids=["dedup_5_23", "dedup_5_234_two_workers", "labelled_4_23"])
def test_stored_oracle_verdicts_match_a_census_per_graph(monkeypatch, rule,
                                                         spec, expected):
    """The oracle decides each commutator once per edge mask and pair of
    acting orders.  Under a wrong rule, many order tuples of a mask fail,
    and each must report the same first failing pair, with the same
    verdicts, as a fresh census of its own graph."""
    monkeypatch.setattr(sils, "commute_rule", WRONG_RULES[rule])
    checked, lines = as_lines(run_suite(spec))
    assert len(lines) == expected[rule]
    assert (checked, lines) == as_lines(oracles.run_suite_per_graph(spec))


def test_oracle_decides_each_commutator_once_per_pair_of_acting_orders(
        monkeypatch):
    """On dedup n <= 6 {2, 3}, 5,758 graphs over 208 edge masks, deciding every
    P0 commutator of every graph takes 43,812 innerness searches.  Stored
    per mask under (pair, m(a), m(b)), they take 6,890."""
    calls = []

    def counted(g, phi):
        calls.append(g.adj)
        return search_inner(g, phi)

    monkeypatch.setattr(harness, "search_inner", counted)
    spec = EnumSpec(6, orders=(2, 3), dedup_isomorphic=True,
                    checks=("lemma_1_4_oracle",))
    assert run_suite(spec) == (5758, [])
    assert len(calls) == 6890


def test_lemma_2_2_reports_a_sil_that_is_no_component_of_the_link_split(
        monkeypatch):
    """a and b share the neighbour x, so {a, b | {c, d}} is a Sil.  A
    fabricated Sil on the part {c} of that component passes the star-split
    test of ``shared_sil_component``; only the search of G minus the
    common link {x} shows that {c} is no component."""
    g = make_graph([(n, 2) for n in "abxcd"],
                   [("a", "x"), ("b", "x"), ("c", "d")])
    census = Census(g)
    assert [(s.pair, sorted(s.component)) for s in census.sils] == [((0, 1), [3, 4])]
    assert CHECKS["lemma_2_2"](census) is None
    fake = Sil((0, 1), frozenset({3}), True)
    assert shared_sil_component(census, fake) == frozenset({3, 4})
    monkeypatch.setattr(census, "sils", (fake,))
    assert CHECKS["lemma_2_2"](census) == (
        {"pair": ["a", "b"], "component": ["c"]},
        "separated component of pair (a, b) is not a component of the graph "
        "minus their common link")


def test_lemma_2_2_searches_each_sil_pair_once(monkeypatch):
    """In K_{2,4}, each of the six pairs of the four-vertex side has two
    Sils, one per remaining vertex of that side, so twelve Sils need only
    six searches of G minus a common link."""
    g = make_graph([(n, 2) for n in "ab1234"],
                   [(x, y) for x in "ab" for y in "1234"])
    census = Census(g)
    assert len(census.sils) == 12
    assert len({s.pair for s in census.sils}) == 6
    calls = []

    def counted(adj, keep_mask):
        calls.append(keep_mask)
        return component_masks(adj, keep_mask)

    monkeypatch.setattr(harness, "component_masks", counted)
    assert CHECKS["lemma_2_2"](census) is None
    assert len(calls) == 6


def _fails_everywhere(census):
    return {}, "deliberately falsified check"


@pytest.mark.parametrize("workers", [1, 2])
def test_reports_come_in_enumeration_order(workers):
    CHECKS["fails_everywhere"] = _fails_everywhere
    try:
        spec = EnumSpec(5, checks=("fails_everywhere",), workers=workers)
        checked, reports = run_suite(spec)
    finally:
        del CHECKS["fails_everywhere"]
    # 1,099 graphs span several chunks, so the pool joins them in order
    assert checked == 1099 > harness.CHUNK_SIZE
    assert [r.graph for r in reports] == [to_json_dict(g)
                                          for g in oracles.graphs_of(spec)]


def test_workers_of_a_fresh_interpreter_run_checks_registered_at_run_time(
        tmp_path):
    """Under the ``forkserver`` start method (the default on Linux from
    Python 3.14) each worker imports silscope afresh, so its ``CHECKS``
    lacks a check registered at run time; the workers are handed the
    check functions themselves."""
    (tmp_path / "falsified.py").write_text(textwrap.dedent("""
        def fails_everywhere(census):
            return {}, "x"
        """))
    script = textwrap.dedent("""
        import multiprocessing, os
        from silscope import harness
        from falsified import fails_everywhere

        multiprocessing.set_start_method("forkserver", force=True)
        os.cpu_count = lambda: 2  # a pool of two whatever the host
        harness.CHECKS["fails_everywhere"] = fails_everywhere
        checked, reports = harness.run_suite(
            harness.EnumSpec(4, checks=("fails_everywhere",), workers=2))
        print(checked, len(reports))
        """)
    src = Path(harness.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(tmp_path)]))
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["75", "75"]


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size it is asked
    for and runs each task at once in this process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("cpus, workers, pool_size", [
    (4, 10_000, 4), (4, 3, 3), (None, 10_000, None), (1, 2, None)])
def test_pool_is_capped_at_the_cpu_count(monkeypatch, cpus, workers, pool_size):
    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    spec = EnumSpec(5, checks=("lemma_2_2",), workers=workers)
    assert run_suite(spec) == (1099, [])
    # no pool at all when only one process would run
    assert RecordingPool.sizes == ([] if pool_size is None else [pool_size])
