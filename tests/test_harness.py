import concurrent.futures
import functools
import gc
import itertools
import json
import math
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from concurrent.futures import Future
from pathlib import Path

import pytest

from silscope import (from_json_dict, harness, make_graph, sils, to_json_dict,
                      words)
from silscope.graphs import GraphError, component_masks, load_graph
from silscope.harness import (CHECKS, CounterexampleReport, EnumSpec,
                              enumerate_graphs, run_suite)
from silscope.outer import build_p0
from silscope.sils import Census
from silscope.words import commutator, search_inner

import oracles
from oracles import Sil, shared_sil_component

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
    assert oracles.graph_from_bits(3, 0b010, g.orders) == g


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
    EnumSpec(6, orders=(2, 3)),
], ids=["dedup_7_2", "dedup_6_23", "dedup_5_234", "labelled_5_23",
        "labelled_6_23"])
def test_mask_records_flatten_to_the_per_graph_enumeration(spec):
    for got, want in itertools.zip_longest(
            oracles.graphs_of(spec), oracles.enumerate_graphs_per_graph(spec)):
        assert got == want
    masks = [(g.n, encoding(g)[0]) for g, _, _ in enumerate_graphs(spec)]
    assert masks == sorted(set(masks))  # one record per mask, ascending
    for g, _, auts in enumerate_graphs(spec):
        assert g.orders == oracles.kept_tuples(spec, g, auts)[0]


def test_labelled_records_count_every_order_tuple():
    """Without dedup every order tuple of a mask is kept: a record counts
    k^n of them and carries no automorphism."""
    spec = EnumSpec(4, orders=(2, 3))
    records = list(enumerate_graphs(spec))
    assert len(records) == 1 + 2 + 8 + 64
    for g, count, auts in records:
        assert (g.orders, count, auts) == ((2,) * g.n, 2 ** g.n, ())


def burnside_sum(k, group):
    """The sum over the permutations of ``group`` of k^cycles, with the
    cycles counted by following each permutation from every vertex."""
    total = 0
    for perm in group:
        cycles = set()
        for v in range(len(perm)):
            orbit, u = {v}, perm[v]
            while u != v:
                orbit.add(u)
                u = perm[u]
            cycles.add(frozenset(orbit))
        total += k ** len(cycles)
    return total


def twin_classes(adj):
    """The twin class of each vertex of ``adj``, as a frozenset, by the
    definition: u and v are twins iff N(u) - v = N(v) - u."""
    n = len(adj)
    return [frozenset(u for u in range(n)
                      if adj[u] & ~(1 << v) == adj[v] & ~(1 << u))
            for v in range(n)]


def coset_group(first, auts):
    """The group of a dedup record: r composed with each permutation of
    the twin classes within themselves, for r the identity and each of
    ``auts``."""
    n = first.n
    classes = [sorted(c) for c in set(twin_classes(first.adj))]
    inside = []
    for shuffles in itertools.product(*map(itertools.permutations, classes)):
        s = list(range(n))
        for c, shuffled in zip(classes, shuffles):
            for p, v in zip(c, shuffled):
                s[p] = v
        inside.append(s)
    return [tuple(r[s[p]] for p in range(n))
            for r in [tuple(range(n))] + list(auts) for s in inside]


def reference_records(spec):
    """The mask records as the filter lists them: per-child searches with
    dedup, else every order tuple of every mask."""
    if spec.dedup_isomorphic:
        return oracles.enumerate_graphs_per_child(spec)
    return ((g, list(itertools.product(spec.orders, repeat=g.n)))
            for g in oracles.enumerate_graphs_per_graph(spec)
            if g.orders == spec.orders[:1] * g.n)


@pytest.mark.parametrize("spec", [
    EnumSpec(7, orders=(2, 3), dedup_isomorphic=True),
    EnumSpec(6, orders=(2, 3), dedup_isomorphic=True),
    EnumSpec(5, orders=(2, 3, 4), dedup_isomorphic=True),
    EnumSpec(5, orders=(4, 8, 9), dedup_isomorphic=True),
    EnumSpec(6, orders=(2, 3, 4, 5), dedup_isomorphic=True),
    EnumSpec(4, orders=(2, 3)),
], ids=["dedup_7_23", "dedup_6_23", "dedup_5_234", "dedup_5_489",
        "dedup_6_2345", "labelled_4_23"])
def test_burnside_counts_the_kept_order_tuples(spec):
    """Each record's count is the number of order tuples that the
    reference's filter keeps, and the driver's listing of them is the
    reference's list, in order.  With dedup the count is also the
    Burnside average of k^cycles over the whole group, each listed coset
    expanded by the permutations of the twin classes; without it, no
    permutation but the identity keeps a tuple out."""
    records = 0
    for got, want in itertools.zip_longest(enumerate_graphs(spec),
                                           reference_records(spec)):
        (first, count, auts), (g, kept) = got, want
        assert first == g
        assert count == len(kept)
        assert oracles.kept_tuples(spec, first, auts) == kept
        group = (coset_group(first, auts) if spec.dedup_isomorphic
                 else [tuple(range(first.n))])
        assert burnside_sum(len(spec.orders), group) == count * len(group)
        records += 1
    assert records > 50


@pytest.mark.parametrize("spec, records", [
    (EnumSpec(7, orders=(2, 3), dedup_isomorphic=True), 1252),
    (EnumSpec(6, orders=(2, 3, 4), dedup_isomorphic=True), 208),
    (EnumSpec(5, orders=(2, 3, 5, 7), dedup_isomorphic=True), 52),
], ids=["dedup_7_23", "dedup_6_234", "dedup_5_2357"])
def test_neighbourhood_keys_give_the_pairwise_twin_classes(spec, records):
    """On every record, the one-pass twin classes equal the reference's,
    which tests each vertex against every lower one, with each class's
    size, and the record's count is the number of tuples the reference
    keeps."""
    seen = 0
    for first, count, auts in enumerate_graphs(spec):
        low, size = harness._twin_lows(first.adj)
        want = oracles._twin_lows(first.adj)
        assert low == want, first
        assert list(size.items()) == sorted(Counter(want).items()), first
        assert count == len(oracles._kept_tuples(spec.orders, first.adj,
                                                 auts)), first
        seen += 1
    assert seen == records


def test_listed_automorphisms_are_one_per_twin_class_coset():
    """With two or more orders, a record lists one automorphism r of each
    coset rS of the group S that permutes every twin class within itself,
    the identity for S itself: |R| times the product of t! over the
    classes of t vertices is the order of the whole group, and each of its
    elements lies in exactly one coset rS, the one whose r sends every
    position into the class that the element sends it to."""
    spec = EnumSpec(6, orders=(2, 3), dedup_isomorphic=True)
    cosets = 0
    for first, _, auts in enumerate_graphs(spec):
        group = oracles.automorphisms_per_child(first.adj, True)
        of = twin_classes(first.adj)
        inside = math.prod(math.factorial(len(c)) for c in set(of))
        reps = [tuple(range(first.n))] + list(auts)
        assert len(reps) * inside == len(group), first
        for g in group:
            assert sum(all(of[g[p]] == of[r[p]] for p in range(first.n))
                       for r in reps) == 1, (first, g)
        cosets += len(reps) > 1
    assert cosets > 20


def test_parent_automorphisms_prune_the_minimality_searches(monkeypatch):
    """In the per-child reference, a row of vertex 0 that an automorphism
    of the parent, or a swap of two of its twins, lowers gives no minimal
    child, so it is not searched; the per-graph reference searches every
    row, and both keep the same graphs."""
    calls = []

    def counted(adj, every):
        calls.append(adj)
        return automorphisms(adj, every)

    automorphisms = oracles.automorphisms_per_child
    monkeypatch.setattr(oracles, "automorphisms_per_child", counted)
    spec = EnumSpec(7, dedup_isomorphic=True)
    assert sum(1 for _ in oracles.enumerate_graphs_per_graph(spec)) == 1252
    assert len(calls) == 11291
    calls.clear()
    assert sum(len(tuples) for _, tuples in
               oracles.enumerate_graphs_per_child(spec)) == 1252
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
    # a wrong type is refused by name, not deep in the enumeration; a bool
    # is no count, a string is no list of orders or check ids, a truthy
    # string is no dedup flag, and a list is no check id
    for field, value in [("max_vertices", 3.0), ("max_vertices", True),
                         ("workers", 1.5), ("workers", True),
                         ("orders", "2"), ("checks", "lemma_4"),
                         ("dedup_isomorphic", "no"), ("checks", [["x"]]),
                         ("orders", 5), ("checks", 5), ("orders", None)]:
        with pytest.raises(ValueError, match=f"^{field} must be"):
            EnumSpec(**{"max_vertices": 3, field: value})
    # a one-shot iterable is read once, so the validation does not use it
    # up and leave no orders or no checks to run
    assert EnumSpec(8, dedup_isomorphic=True, checks=iter(["lemma_7"])) == \
        EnumSpec(8, dedup_isomorphic=True, checks=["lemma_7"])
    assert EnumSpec(8, dedup_isomorphic=True, checks=iter(["lemma_7"])).checks \
        == ("lemma_7",)
    assert EnumSpec(3, orders=iter([3, 2, 3])).orders == (2, 3)
    assert EnumSpec(3, orders=(m for m in (2, 3))) == EnumSpec(3, orders=[2, 3])
    with pytest.raises(ValueError, match="^the order alphabet is empty$"):
        EnumSpec(3, orders=iter([]))
    with pytest.raises(ValueError, match=r"^unknown check ids: \['x'\]"):
        EnumSpec(3, checks=iter(["lemma_7", "x"]))


@pytest.mark.parametrize("fields", [
    {"max_vertices": 0}, {"max_vertices": 8}, {"max_vertices": 3.0},
    {"workers": 0}, {"workers": True}, {"dedup_isomorphic": "no"},
    {"orders": ()}, {"orders": (2, 6)}, {"orders": "2"}, {"orders": 5},
    {"checks": ()}, {"checks": "lemma_4"}, {"checks": 5}, {"checks": [["x"]]},
    {"checks": ["x"]},
], ids=lambda fields: "-".join(f"{k}={v!r}" for k, v in fields.items()))
def test_every_enum_spec_refusal_is_a_graph_error(fields):
    """A refused enumeration spec is malformed input, which the command
    line reports by one handler: each of ``EnumSpec``'s refusals raises
    ``GraphError``, still a ``ValueError``."""
    with pytest.raises(GraphError):
        EnumSpec(**{"max_vertices": 3, **fields})


def test_labelled_enumeration_is_bounded_at_seven_vertices(monkeypatch):
    """Every labelled graph on 8 vertices is one of 2^28 edge masks, hours
    of checks: that spec is refused, while labelled n <= 7 and dedup
    n <= 9 are accepted, and dedup n = 10 is refused.  Nothing is
    enumerated here."""
    assert EnumSpec(7).max_vertices == 7
    assert EnumSpec(8, dedup_isomorphic=True).max_vertices == 8
    assert EnumSpec(9, dedup_isomorphic=True).max_vertices == 9
    with pytest.raises(ValueError, match=r"^max_vertices must be in "
                                         r"1\.\.7 without dedup$"):
        EnumSpec(8)
    with pytest.raises(ValueError, match=r"^max_vertices must be in 1\.\.9$"):
        EnumSpec(10, dedup_isomorphic=True)
    # a lower bound on every enumeration also caps the labelled one
    monkeypatch.setattr(harness, "MAX_ENUMERATION_VERTICES", 3)
    assert EnumSpec(3).max_vertices == 3
    for dedup in (False, True):
        with pytest.raises(ValueError, match=r"1\.\.3"):
            EnumSpec(4, dedup_isomorphic=dedup)


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
    report = CounterexampleReport("c", empty, {}, "m", 1)
    assert report == CounterexampleReport("c", dict(empty), {}, "m", 1)
    assert report != CounterexampleReport("c", one, {}, "m", 1)
    assert report != CounterexampleReport("c", empty, {"k": 1}, "m", 1)
    assert report != CounterexampleReport("c", empty, {}, "m", 2)


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

C8 = tuple(sorted(NO_ORACLE))
ORDER_FREE_SPECS = [EnumSpec(4, orders=(2, 3, 4)),
                    EnumSpec(6, orders=(2, 3), dedup_isomorphic=True),
                    EnumSpec(5, orders=(2, 3, 4), dedup_isomorphic=True)]


def order_dependent_checks(spec):
    """The checks in ``CHECKS`` whose verdict, witness or message differs
    between two order tuples of one edge mask of ``spec``."""
    outcomes = {}  # (check id, adjacency) -> set of outcomes
    for g in oracles.graphs_of(spec):
        census = Census(g)
        for check_id in CHECKS:
            verdict = CHECKS[check_id](census)
            outcomes.setdefault((check_id, g.adj), set()).add(
                None if verdict is None else
                (json.dumps(verdict[0], sort_keys=True), verdict[1]))
    return sorted({c for (c, _), seen in outcomes.items() if len(seen) > 1})


def test_the_default_checks_are_the_nine_built_in_ones():
    assert harness.DEFAULT_CHECKS == tuple(CHECKS)
    assert len(CHECKS) == 9


@pytest.mark.parametrize("spec", ORDER_FREE_SPECS,
                         ids=["labelled_4_234", "dedup_6_23", "dedup_5_234"])
def test_order_free_checks_agree_on_every_order_tuple(spec):
    assert order_dependent_checks(spec) == []


def _all_sils_coxeter(census):
    """Reads ``Sil.coxeter``, so its verdict depends on the vertex orders."""
    count = sum(not sil.coxeter for sil in oracles.enumerate_sils(census))
    if count:
        return ({"non_coxeter_sils": count},
                "a separating pair is not a Coxeter pair")
    return None


def test_order_free_guard_catches_a_check_that_reads_orders(monkeypatch):
    """A check that reads orders breaks the contract stated beside
    ``CHECKS``: the guard above names it, and the suite, which runs it once
    per mask on the all-2 order tuple that passes, misses the failing
    tuples of the mask."""
    monkeypatch.setitem(CHECKS, "all_sils_coxeter", _all_sils_coxeter)
    assert order_dependent_checks(ORDER_FREE_SPECS[0]) == ["all_sils_coxeter"]
    spec = EnumSpec(3, orders=(2, 3), checks=("all_sils_coxeter",))
    assert run_suite(spec)[1] == []
    assert len(oracles.run_suite_per_graph(spec)[1]) > 0


def as_lines(result):
    checked, reports = result
    return checked, [r.to_json_line() for r in reports]


def expanded(spec, result):
    """``as_lines`` of ``result``, a suite run of ``spec``, with each
    report expanded into one line per order tuple it stands for."""
    checked, reports = result
    return as_lines((checked, oracles.expand_reports(spec, reports)))


@pytest.mark.parametrize("workers", [1, 2])
def test_mask_groups_match_the_per_graph_driver_on_lemma_7(workers):
    spec = EnumSpec(7, dedup_isomorphic=True, checks=C8, workers=workers)
    result = run_suite(spec)
    checked, lines = as_lines(result)
    assert (checked, len(lines)) == (1252, 7)
    assert expanded(spec, result) == as_lines(oracles.run_suite_per_graph(spec))


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
    """A C8 check failing on a mask is reported once, from the one verdict
    of the mask, and the report counts the mask's order tuples.  Expanded
    into one report per order tuple, each on its own graph, the reports
    are the per-graph driver's, in its order, next to the oracle or a
    check registered at run time, each also run once per mask."""
    monkeypatch.setitem(CHECKS, "lemma_4", _fails_with_two_edges)
    monkeypatch.setitem(CHECKS, "fails_on_triangles", _fails_on_triangles)
    # chunks of 5 masks: 11 masks on one to three vertices span three
    monkeypatch.setattr(harness, "CHUNK_SIZE", 5)
    spec = EnumSpec(3, orders=(2, 3), checks=C8 + (other,), workers=workers)
    result = run_suite(spec)
    checked, lines = as_lines(result)
    # paths and triangles: 3 + 1 masks on three vertices, 8 tuples each
    assert checked == 74
    assert [r.order_tuples for r in result[1]
            if r.check == "lemma_4"] == [8] * 4
    per_tuple = expanded(spec, result)
    assert per_tuple == as_lines(oracles.run_suite_per_graph(spec))
    assert sum('"check": "lemma_4"' in line for line in per_tuple[1]) == 32


def _logged(path, census):
    """``_fails_with_two_edges``, which also appends the census's adjacency
    to the file ``path``, so that calls in worker processes count too."""
    with open(path, "a", encoding="utf-8") as log:
        print(census.graph.adj, file=log)
    return _fails_with_two_edges(census)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_check_registered_at_run_time_runs_once_per_edge_mask(
        monkeypatch, tmp_path, workers):
    """The contract beside ``CHECKS`` binds a check registered at run time
    too: it is called once per edge mask, and a verdict that fails there is
    reported once, counting the mask's order tuples; expanded per tuple,
    the reports are those of a driver with a census per graph."""
    log = tmp_path / "calls"
    monkeypatch.setitem(CHECKS, "counted", functools.partial(_logged, str(log)))
    monkeypatch.setattr(harness, "CHUNK_SIZE", 5)
    spec = EnumSpec(3, orders=(2, 3), checks=("counted",), workers=workers)
    result = run_suite(spec)
    checked, lines = as_lines(result)
    calls = log.read_text(encoding="utf-8").splitlines()
    # 1 + 2 + 8 masks on one to three vertices
    assert len(calls) == len(set(calls)) == 11
    # 74 graphs; the 3 paths and the triangle fail, 8 order tuples each
    assert (checked, len(lines)) == (74, 4)
    assert [r.order_tuples for r in result[1]] == [8] * 4
    per_tuple = expanded(spec, result)
    assert per_tuple == as_lines(oracles.run_suite_per_graph(spec))
    assert len(per_tuple[1]) == 32


def test_one_census_per_mask_record(monkeypatch):
    """Every check of a record reads the one census of its first graph."""
    built = []

    def counted(graph):
        built.append(graph.adj)
        return Census(graph)

    monkeypatch.setattr(harness, "Census", counted)
    spec = EnumSpec(3, orders=(2, 3))
    records = list(enumerate_graphs(spec))
    checks = (("fails_with_two_edges", _fails_with_two_edges),
              ("lemma_7", CHECKS["lemma_7"]))
    checked, reports = harness._run_checks(records, checks)
    assert built == [first.adj for first, _, _ in records]
    assert (checked, len(reports)) == (74, 4)
    assert [r.order_tuples for r in reports] == [8] * 4
    assert len(oracles.expand_reports(spec, reports)) == 32


@pytest.mark.parametrize("spec, checks, expected", [
    (dict(max_vertices=4, orders=(2, 3, 4)), ("fails_with_two_edges",),
     (61, 4725)),
    (dict(max_vertices=5, orders=(2, 3), dedup_isomorphic=True),
     ("fails_with_two_edges",), (43, 612)),
    (dict(max_vertices=7, orders=(2, 3), dedup_isomorphic=True), ("lemma_7",),
     (7, 896)),
], ids=["labelled_4_234", "dedup_5_23", "dedup_7_23_lemma_7"])
def test_each_report_counts_the_order_tuples_it_stands_for(monkeypatch, spec,
                                                           checks, expected):
    """A report carries its record's first graph, its ``order_tuples`` is
    the number of order tuples listed for the record, and it replays from
    its graph alone.  ``expected`` counts the reports and their tuples."""
    monkeypatch.setitem(CHECKS, "fails_with_two_edges", _fails_with_two_edges)
    spec = EnumSpec(**spec, checks=checks)
    records = {first.adj: (first, auts)
               for first, _, auts in enumerate_graphs(spec)}
    reports = run_suite(spec)[1]
    assert (len(reports), sum(r.order_tuples for r in reports)) == expected
    for r in reports:
        g = from_json_dict(r.graph)
        first, auts = records[g.adj]
        assert g == first
        assert r.order_tuples == len(oracles.kept_tuples(spec, first, auts))
        assert CHECKS[r.check](Census(g)) == (r.witness, r.message)


# ---------------------------------------------------------------------------
# The bitmask search and checks against the references they replaced


@pytest.mark.parametrize("spec, parents", [
    (EnumSpec(7, dedup_isomorphic=True), 209),
    (EnumSpec(6, orders=(2, 3), dedup_isomorphic=True), 53),
    (EnumSpec(5, orders=(2, 3, 4), dedup_isomorphic=True), 19),
], ids=["dedup_7_2", "dedup_6_23", "dedup_5_234"])
def test_one_search_per_parent_decides_every_child_row(monkeypatch, spec,
                                                       parents):
    """One minimality search per minimal parent, the empty graph first,
    decides every row of a new vertex 0: it keeps the rows whose child's
    own search finds the child minimal, ascending, and lists for each the
    automorphisms of that search, in the same order, identity first."""
    calls = []

    def compared(padj, sets):
        calls.append(padj)
        found = minimal_rows(padj, sets)
        assert list(found) == sorted(found)
        for row in range(1 << len(padj)):
            adj = oracles.child_adjacency(padj, row)
            assert found.get(row) == oracles.automorphisms_per_child(
                adj, False), (padj, row)
        return found

    minimal_rows = harness._minimal_rows
    monkeypatch.setattr(harness, "_minimal_rows", compared)
    smaller = [first.adj for first, _, _ in enumerate_graphs(spec)
               if first.n < spec.max_vertices]
    assert calls == [()] + smaller
    assert len(calls) == parents


@pytest.mark.parametrize("spec, records", [
    (EnumSpec(7, dedup_isomorphic=True), 1252),
    (EnumSpec(6, orders=(2, 3), dedup_isomorphic=True), 208),
    (EnumSpec(5, orders=(2, 3, 4), dedup_isomorphic=True), 52),
], ids=["dedup_7_2", "dedup_6_23", "dedup_5_234"])
def test_minimality_search_lists_the_automorphisms_of_the_word_search(
        monkeypatch, spec, records):
    """The bit-parallel search lists for every row of a new vertex 0 the
    same automorphisms as the search over per-vertex words, in the same
    order, identity first, and refuses the same children; each row it
    keeps gives one mask record."""
    kept = []

    def compared(padj, sets):
        found = minimal_rows(padj, sets)
        kept.extend(found)
        for row in range(1 << len(padj)):
            adj = oracles.child_adjacency(padj, row)
            assert found.get(row) == oracles.automorphisms_by_words(
                adj, False), (padj, row)
        return found

    minimal_rows = harness._minimal_rows
    monkeypatch.setattr(harness, "_minimal_rows", compared)
    assert sum(1 for _ in enumerate_graphs(spec)) == len(kept) == records


def test_one_search_per_parent_beyond_the_enumeration_bound():
    """On a seeded sample of the minimal graphs on 8 vertices, the search
    per parent gives each of the 256 rows of a ninth vertex the verdict and
    the automorphisms of the child's own search, one per twin-class
    coset.  The ninth vertex is the last layer that the bound admits; this
    samples it without enumerating its 274,668 minimal graphs."""
    parents = [first.adj for first, _, _ in
               enumerate_graphs(EnumSpec(8, dedup_isomorphic=True))
               if first.n == 8]
    sets = harness._row_sets(8)
    for padj in random.Random(9).sample(parents, 100):
        found = harness._minimal_rows(padj, sets)
        for row in range(256):
            adj = oracles.child_adjacency(padj, row)
            assert found.get(row) == oracles.automorphisms_per_child(
                adj, False), (padj, row)


def verdicts_against_references(spec, alter=lambda census: None):
    """Run each order-free check on a census of every record of ``spec``,
    and each reference in ``oracles.ORDER_FREE_ON_OBJECTS`` on a second
    census, both changed by ``alter`` first; assert that the verdicts are
    equal and count the failing ones per check."""
    failed = Counter()
    for first, _, _ in enumerate_graphs(spec):
        census, reference = Census(first), Census(first)
        alter(census)
        alter(reference)
        for check_id in C8:
            verdict = CHECKS[check_id](census)
            assert verdict == oracles.ORDER_FREE_ON_OBJECTS[check_id](
                reference), (check_id, first)
            failed[check_id] += verdict is not None
    return +failed


@pytest.mark.parametrize("spec, failed", [
    (EnumSpec(7, dedup_isomorphic=True), {"lemma_7": 7}),
    (EnumSpec(6, orders=(2, 3), dedup_isomorphic=True), {}),
    (EnumSpec(5, orders=(2, 3)), {}),
], ids=["dedup_7_2", "dedup_6_23", "labelled_5_23"])
def test_order_free_checks_match_the_object_reading_references(spec, failed):
    assert verdicts_against_references(spec) == failed


def _replace_sil_masks(census, new):
    census._sil_masks = [new(a, b, low, mask)
                         for a, b, low, mask in census._sil_masks]


# Changes to a census that make the order-free checks fail: each check
# must still give the reference's verdict, witness and message.
ALTERATIONS = {
    "one_sil": lambda census: setattr(census, "_sil_masks",
                                      census._sil_masks[:1]),
    "no_sils": lambda census: setattr(census, "_sil_masks", []),
    "no_witnesses": lambda census: setattr(census, "witnesses", {}),
    "all_commute": lambda census: setattr(
        census, "non_commuting", (0,) * len(census.non_commuting)),
    "whole_components": lambda census: _replace_sil_masks(
        census, lambda a, b, low, mask: (a, b, 1, (1 << census.graph.n) - 1)),
    "lowest_vertex_components": lambda census: _replace_sil_masks(
        census, lambda a, b, low, mask: (a, b, low, low)),
}
# the failing verdicts of each change on dedup n <= 6 {2}, per check: between
# them, every one of the eight checks fails
ALTERED_FAILURES = {
    "one_sil": {"fsil_three_sils": 63, "lemma_4": 67, "lemma_7": 12,
                "stil_two_sils": 67},
    "no_sils": {"finite_equiv": 120, "fsil_three_sils": 63,
                "stil_two_sils": 67},
    "no_witnesses": {"three_components_fsil": 22},
    "all_commute": {"finite_equiv": 120},
    "whole_components": {"lemma_1_7": 38, "lemma_2_2": 120},
    "lowest_vertex_components": {"lemma_2_2": 55},
}


@pytest.mark.parametrize("alteration, failed", ALTERED_FAILURES.items(),
                         ids=list(ALTERED_FAILURES))
def test_order_free_checks_match_the_references_on_altered_censuses(
        alteration, failed):
    spec = EnumSpec(6, dedup_isomorphic=True)
    assert verdicts_against_references(spec, ALTERATIONS[alteration]) == failed


def test_lemma_2_2_on_a_patched_sil_matches_the_reference():
    g = make_graph([(n, 2) for n in "abxcd"],
                   [("a", "x"), ("b", "x"), ("c", "d")])
    census, reference = Census(g), Census(g)
    for c in (census, reference):
        c._sil_masks = [(0, 1, 8, 8)]  # {a, b | {c}}
    assert CHECKS["lemma_2_2"](census) == oracles.lemma_2_2_on_objects(
        reference) is not None


def test_passing_order_free_checks_build_no_census_objects(monkeypatch):
    """The order-free checks decide on the census's masks: no module they
    run defines a Sil, Stil or Fsil enumerator, and a record whose checks
    all pass gets one census."""
    made = []

    class Recorded(Census):
        def __init__(self, graph):
            super().__init__(graph)
            made.append(self)

    monkeypatch.setattr(harness, "Census", Recorded)
    for module in (harness, sils):
        for name in ("enumerate_sils", "enumerate_stils", "enumerate_fsils",
                     "Sil", "Stil", "Fsil"):
            assert not hasattr(module, name), (module, name)
    assert run_suite(EnumSpec(6, dedup_isomorphic=True, checks=C8)) == (208, [])
    assert len(made) == 208


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


def test_lemma_7_counterexample_on_ten_vertices_is_pinned():
    """A connected graph on ten vertices, all orders 2, whose one Sil is
    {v2, v10 | {v1, v6}}: G - St(v2) has two components and G - St(v10)
    three, so lemma_7 fails at v10, and the other eight checks hold."""
    g = load_graph(str(Path(__file__).parent / "fixtures"
                       / "lemma_7_ten_vertices.json"))
    assert g.orders == (2,) * 10
    assert len(oracles.components_uf(g, range(g.n))) == 1
    assert oracles.sil_census(g) == {((1, 9), frozenset({0, 5}), True)}
    assert [len(oracles.components_uf(g, set(range(g.n)) - {u}
                                      - oracles.neighbors_scan(g, u)))
            for u in (1, 9)] == [2, 3]
    census = Census(g)
    assert CHECKS["lemma_7"](census) == (
        {"vertex": "v10", "components": 3},
        "puncturing a unique-pair vertex left 3 components instead of 2")
    assert [c for c, check in CHECKS.items() if check(census)] == ["lemma_7"]


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
    """The oracle decides innerness without reading the rule, so a rule
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
     {"crossed_clause_dropped": (16, 196), "always_commute": (23, 330)}),
    (EnumSpec(5, orders=(2, 3, 4), dedup_isomorphic=True,
              checks=("lemma_1_4_oracle",), workers=2),
     {"crossed_clause_dropped": (16, 1036), "always_commute": (23, 1882)}),
    (EnumSpec(4, orders=(2, 3), checks=("lemma_1_4_oracle",)),
     {"crossed_clause_dropped": (16, 248), "always_commute": (24, 376)}),
], ids=["dedup_5_23", "dedup_5_234_two_workers", "labelled_4_23"])
def test_stored_oracle_verdicts_match_a_census_per_graph(monkeypatch, rule,
                                                         spec, expected):
    """The oracle decides each commutator on the masks of one census per
    edge mask, and its verdict stands for every order tuple of the mask.
    Under a wrong rule, many order tuples of a mask fail: the mask's one
    report, expanded per tuple, must give the same first failing pair,
    with the same verdicts, as a fresh census of each tuple's graph.
    ``expected`` counts the masks and the order tuples that fail."""
    monkeypatch.setattr(sils, "commute_rule", WRONG_RULES[rule])
    result = run_suite(spec)
    _, lines = as_lines(result)
    assert (len(lines), sum(r.order_tuples for r in result[1])) == expected[rule]
    assert expanded(spec, result) == as_lines(oracles.run_suite_per_graph(spec))


def test_oracle_runs_no_word_engine(monkeypatch):
    """The oracle decides innerness on masks: with the word engine's
    search and normal form made to raise, it still checks all 5,758 graphs
    of dedup n <= 6 {2, 3}, without a report."""
    def refuse(*args):
        raise AssertionError("the oracle ran the word engine")

    monkeypatch.setattr(words, "search_inner", refuse)
    monkeypatch.setattr(words, "reduce", refuse)
    spec = EnumSpec(6, orders=(2, 3), dedup_isomorphic=True,
                    checks=("lemma_1_4_oracle",))
    assert run_suite(spec) == (5758, [])


EXACTNESS_SPECS = [
    EnumSpec(6, orders=(2, 3), dedup_isomorphic=True,
             checks=("lemma_1_4_oracle",)),
    EnumSpec(5, orders=(2, 3, 4), dedup_isomorphic=True,
             checks=("lemma_1_4_oracle",)),
    EnumSpec(5, orders=(4, 8, 9), dedup_isomorphic=True,
             checks=("lemma_1_4_oracle",)),
    EnumSpec(4, orders=(2, 3), checks=("lemma_1_4_oracle",)),
]


@pytest.mark.parametrize("spec", EXACTNESS_SPECS,
                         ids=["dedup_6_23", "dedup_5_234", "dedup_5_489",
                              "labelled_4_23"])
def test_stored_verdicts_equal_a_fresh_search_on_every_pair(spec):
    """After an oracle run, the oracle's verdict on the masks of each P0
    pair of each graph is the innerness of that pair's own commutator,
    under the graph's own orders."""
    assert run_suite(spec)[1] == []
    decisions = inner = 0
    for g in oracles.graphs_of(spec):
        census = Census(g)
        p0 = build_p0(census)
        full = (1 << g.n) - 1
        for (i, (a, c)), (j, (b, d)) in itertools.combinations(
                enumerate(census.generators), 2):
            fresh = search_inner(g, commutator(g, p0[i], p0[j])) is not None
            found = harness._is_inner(g.adj, full, a, c, b, d)
            assert found == fresh, (g, i, j)
            decisions += 1
            inner += found
    assert 0 < inner < decisions


@pytest.mark.parametrize("rule", WRONG_RULES)
def test_oracle_reports_replay_with_a_fresh_store(monkeypatch, rule):
    """Each oracle report of a run under a wrong rule, and each report of
    its expansion per order tuple, gives back its witness and message when
    its graph is checked alone."""
    monkeypatch.setattr(sils, "commute_rule", WRONG_RULES[rule])
    spec = EnumSpec(5, orders=(2, 3), dedup_isomorphic=True,
                    checks=("lemma_1_4_oracle",))
    reports = run_suite(spec)[1]
    assert ((len(reports), sum(r.order_tuples for r in reports))
            == {"crossed_clause_dropped": (16, 196),
                "always_commute": (23, 330)}[rule])
    for report in reports + oracles.expand_reports(spec, reports):
        census = Census(from_json_dict(report.graph))
        assert CHECKS[report.check](census) == (report.witness,
                                                report.message)


def test_lemma_2_2_reports_a_sil_that_is_no_component_of_the_link_split(
        monkeypatch):
    """a and b share the neighbour x, so {a, b | {c, d}} is a Sil.  A
    fabricated Sil on the part {c} of that component passes the star-split
    test of ``shared_sil_component``; only the search of G minus the
    common link {x} shows that {c} is no component."""
    g = make_graph([(n, 2) for n in "abxcd"],
                   [("a", "x"), ("b", "x"), ("c", "d")])
    census = Census(g)
    assert [(s.pair, sorted(s.component))
            for s in oracles.enumerate_sils(census)] == [((0, 1), [3, 4])]
    assert CHECKS["lemma_2_2"](census) is None
    fake = Sil((0, 1), frozenset({3}), True)
    assert shared_sil_component(census, fake) == frozenset({3, 4})
    monkeypatch.setattr(census, "_sil_masks", [(0, 1, 8, 8)])  # fake's mask
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
    found = oracles.enumerate_sils(census)
    assert len(found) == 12
    assert len({s.pair for s in found}) == 6
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
    # checked_chunks imports the pool class where it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    spec = EnumSpec(5, checks=("lemma_2_2",), workers=workers)
    assert run_suite(spec) == (1099, [])
    # no pool at all when only one process would run
    assert RecordingPool.sizes == ([] if pool_size is None else [pool_size])
