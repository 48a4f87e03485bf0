import argparse
import ast
import importlib
import io
import itertools
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import silscope
from silscope import (Census, cli, from_dot, from_json, from_json_dict,
                      harness, make_graph, to_json_dict)
from silscope.cli import build_parser, build_report, main
from silscope.graphs import MAX_ORDER, GraphError
from silscope.harness import CHECKS, CounterexampleReport, EnumSpec

import conftest as fx
import oracles
from oracles import to_json

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture(name):
    return str(FIXTURES / f"{name}.json")


def test_fixture_files_match_builders():
    for name, builder in [
        ("pentagon_triangle", fx.pentagon_triangle),
        ("pentagon_path", fx.pentagon_path),
        ("pentagon_fork", fx.pentagon_fork),
        ("path_mixed_orders", fx.path_mixed_orders),
        ("path_plus_isolated", fx.path_plus_isolated),
        ("three_isolated", fx.three_isolated),
    ]:
        assert from_json(Path(fixture(name)).read_text()) == builder()


# ---------------------------------------------------------------------------
# classify


def test_classify_pentagon_triangle(capsys):
    code, out, _ = run_cli(capsys, "classify", fixture("pentagon_triangle"))
    assert code == 0
    report = json.loads(out)
    assert report["version"] == 2
    assert report["class"] == "VirtuallyZ"
    assert report["evidence"] == {"coxeter_sils": 1, "non_coxeter_sils": 0,
                                  "stils": 0, "fsils": 0}
    assert report["presentation"]["summary"] == "D∞ × ℤ/2ℤ"
    assert {(pc["vertex"], tuple(pc["component"]))
            for pc in report["presentation"]["generators"]} == {
        ("v1", ("d", "e", "f")), ("v2", ("d", "e", "f")), ("c", ("e", "f"))}
    assert report["warnings"] == []
    assert report["disconnected"] is None
    # round trip: the graph echo re-parses to an equal graph
    assert from_json_dict(report["graph"]) == fx.pentagon_triangle()


def test_classify_three_isolated(capsys):
    code, out, _ = run_cli(capsys, "classify", fixture("three_isolated"))
    assert code == 0
    report = json.loads(out)
    assert report["class"] == "Large"
    assert report["evidence"]["fsils"] == 1
    assert report["disconnected"]["status"] == "large"
    assert [f["triple"] for f in report["fsils"]] == [["x1", "x2", "x3"]]


def test_classify_fork_flags_divergence(capsys):
    code, out, _ = run_cli(capsys, "classify", fixture("pentagon_fork"))
    report = json.loads(out)
    assert report["class"] == "Large"
    assert [f["triple"] for f in report["fsils"]] == [["c", "e", "f"]]
    assert len(report["warnings"]) == 1
    assert "VirtuallyAbelianNotZ" in report["warnings"][0]


def test_classify_reads_numbering_from_vertex_list(capsys, tmp_path):
    # renumbering is listing the vertices in another order
    data = json.loads(Path(fixture("pentagon_triangle")).read_text())
    by_name = {v["name"]: v for v in data["vertices"]}
    data["vertices"] = [by_name[name] for name in "d e f a b c v1 v2".split()]
    path = tmp_path / "renumbered.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 0
    report = json.loads(out)
    assert {(pc["vertex"], tuple(pc["component"]))
            for pc in report["presentation"]["generators"]} == {
        ("v1", ("b", "v2")), ("v2", ("a", "v1")), ("c", ("a", "b"))}


@pytest.mark.parametrize("name", ["pentagon_triangle", "three_isolated",
                                  "pentagon_fork", "path_mixed_orders",
                                  "path_plus_isolated", "pentagon_path"])
def test_classify_matches_golden_report(capsys, name):
    code, out, _ = run_cli(capsys, "classify", fixture(name))
    assert code == 0
    assert out == (GOLDEN / f"{name}.report.json").read_text()


def _oracle_text(g):
    return json.dumps(oracles.build_report(g), indent=2, ensure_ascii=False)


def test_report_writer_matches_the_oracle_on_every_fixture():
    for path in sorted(FIXTURES.glob("*.json")):
        g = from_json(path.read_text(encoding="utf-8"))
        assert build_report(Census(g)) == _oracle_text(g)


def test_report_writer_matches_the_oracle_on_every_class():
    statuses, filled = set(), set()
    for g in oracles.graphs_of(EnumSpec(5, orders=(2, 3), dedup_isomorphic=True)):
        text = build_report(Census(g))
        assert text == _oracle_text(g)
        report = json.loads(text)
        statuses.add(report["disconnected"] and report["disconnected"]["status"])
        sections = dict(report, **report["presentation"])
        filled.update((key, bool(sections[key])) for key in (
            "sils", "stils", "fsils", "generators", "commuting_edges",
            "warnings"))
    # every section both empty and not, both statuses, and the Fsil-only
    # warning
    assert statuses == {None, "product", "large"}
    assert len(filled) == 12


_NAMES = (st.text(alphabet=st.characters(exclude_categories=("Cs",)),
                  min_size=1, max_size=5)
          | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u2028", "𝄞",
                             "é ✓", '{"name": "x"}', '["a", 1]', "null"]))


@st.composite
def _named_graphs(draw):
    # from 10 vertices on, a frozenset of indices need not iterate sorted
    n = draw(st.integers(min_value=1, max_value=12))
    names = draw(st.lists(_NAMES, min_size=n, max_size=n, unique=True))
    orders = draw(st.lists(st.sampled_from((2, 3, 4)), min_size=n, max_size=n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [(names[i], names[j]) for i, j in draw(st.lists(
        st.sampled_from(pairs), max_size=2 * n, unique=True))] if pairs else []
    return make_graph(zip(names, orders), edges)


@settings(max_examples=100, deadline=None)
@given(g=_named_graphs())
def test_report_writer_matches_the_oracle_on_any_names(g):
    # quotes, backslashes, control characters, U+2028, astral characters
    # and names that read as JSON are all written as json writes them
    assert build_report(Census(g)) == _oracle_text(g)


def test_classify_dot_export(capsys, tmp_path):
    dot = tmp_path / "out.dot"
    code, _, _ = run_cli(capsys, "classify", fixture("pentagon_triangle"),
                         "--dot", str(dot))
    assert code == 0
    text = dot.read_text()
    assert text == (GOLDEN / "pentagon_triangle.dot").read_text()
    assert 'color=red' in text and 'color=blue' in text
    assert from_dot(text) == fx.pentagon_triangle()


def test_classify_dot_write_failure_prints_nothing(capsys, tmp_path):
    dot = tmp_path / "missing" / "out.dot"
    code, out, err = run_cli(capsys, "classify", fixture("pentagon_triangle"),
                             "--dot", str(dot))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# listings and the word engine


def test_sils_listing(capsys):
    code, out, _ = run_cli(capsys, "sils", fixture("pentagon_path"))
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines == [{"pair": ["v1", "v2"], "component": ["d", "e", "f"],
                      "coxeter": True}]


def _sil_lines(g):
    """What ``silscope sils`` prints for ``g``, built from the definition
    scan: one JSON line per Sil, sorted by pair, then by lowest component
    vertex."""
    return "".join(
        json.dumps({"pair": [g.names[a], g.names[b]],
                    "component": [g.names[v] for v in sorted(comp)],
                    "coxeter": coxeter}, ensure_ascii=False) + "\n"
        for (a, b), comp, coxeter in sorted(
            oracles.sil_census(g), key=lambda s: (s[0], min(s[1]))))


def test_sils_listing_matches_the_definition_scan(capsys, tmp_path):
    """Byte for byte, on every fixture, on a graph with non-ASCII and
    escaped names, and on every class of dedup n <= 5 {2, 3}."""
    graphs = [from_json(path.read_text(encoding="utf-8"))
              for path in sorted(FIXTURES.glob("*.json"))]
    # pentagon_fork, its vertices a..f renamed
    renamed = dict(zip("abcdef", ("α", "β", '"γ"', "δ\\", "é ✓", "𝄞")))
    g = fx.pentagon_fork()
    graphs.append(make_graph(
        [(renamed.get(x, x), m) for x, m in zip(g.names, g.orders)],
        [(renamed.get(g.names[u], g.names[u]),
          renamed.get(g.names[v], g.names[v])) for u, v in g.edges()]))
    graphs += oracles.graphs_of(
        EnumSpec(5, orders=(2, 3), dedup_isomorphic=True))
    path = tmp_path / "graph.json"
    for g in graphs:
        path.write_text(json.dumps(to_json_dict(g), ensure_ascii=False),
                        encoding="utf-8")
        assert run_cli(capsys, "sils", str(path)) == (0, _sil_lines(g), "")
    assert len(graphs) == 7 + 1 + 662
    assert sum(bool(_sil_lines(g)) for g in graphs) > 100


def test_gens_listing(capsys):
    code, out, _ = run_cli(capsys, "gens", fixture("pentagon_path"))
    lines = [json.loads(line) for line in out.splitlines()]
    assert {(d["vertex"], tuple(d["component"])) for d in lines} == {
        ("v1", ("d", "e", "f")), ("v2", ("d", "e", "f")),
        ("c", ("e", "f")), ("d", ("f",))}
    assert all(d["order"] == 2 for d in lines)


def test_presentation_listing(capsys):
    code, out, _ = run_cli(capsys, "presentation", fixture("path_plus_isolated"))
    data = json.loads(out)
    assert data["summary"] == "D∞"
    assert data["commuting_edges"] == []
    assert len(data["generators"]) == 2


LISTED_FIXTURES = ["path_mixed_orders", "path_plus_isolated", "pentagon_fork",
                   "pentagon_path", "pentagon_triangle", "three_isolated"]


def _named_listing(command, text):
    """A ``gens`` or ``presentation`` listing with generator indices
    replaced by names, so listings of one graph under two numberings
    compare equal: a set of generators for ``gens``; for
    ``presentation``, the generators, the commuting pairs of generators
    and the summary."""
    def named(pc):
        return pc["vertex"], frozenset(pc["component"]), pc["order"]
    if command == "gens":
        return {named(json.loads(line)) for line in text.splitlines()}
    data = json.loads(text)
    gens = [named(pc) for pc in data["generators"]]
    return (set(gens),
            {frozenset((gens[i], gens[j])) for i, j in data["commuting_edges"]},
            data["summary"])


@pytest.mark.parametrize("command", ["gens", "presentation"])
@pytest.mark.parametrize("name", LISTED_FIXTURES)
def test_listings_match_golden(capsys, tmp_path, name, command):
    code, out, _ = run_cli(capsys, command, fixture(name))
    golden = GOLDEN / "listings" / f"{name}.{command}.out"
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")
    # the .reversed goldens hold the listing of the graph numbered in
    # reverse input order: the same graph with its vertex list reversed
    g = from_json(Path(fixture(name)).read_text(encoding="utf-8"))
    reversed_path = tmp_path / f"{name}.reversed.json"
    reversed_path.write_text(to_json(g.relabelled(range(g.n)[::-1])),
                             encoding="utf-8")
    code, out, _ = run_cli(capsys, command, str(reversed_path))
    golden = GOLDEN / "listings" / f"{name}.{command}.reversed.out"
    assert code == 0
    assert _named_listing(command, out) == _named_listing(
        command, golden.read_text(encoding="utf-8"))


def test_reduce_command(capsys):
    code, out, _ = run_cli(capsys, "reduce", fixture("pentagon_triangle"), "v1 v1")
    assert code == 0
    data = json.loads(out)
    assert data["reduced"] == {"literal": "", "syllables": []}
    code, out, _ = run_cli(capsys, "reduce", fixture("path_mixed_orders"),
                           "v3^2 v1 v3^2")
    data = json.loads(out)
    assert data["reduced"]["literal"] == "v1 v3"


def test_act_command(capsys):
    code, out, _ = run_cli(capsys, "act", fixture("pentagon_triangle"),
                           "chi v1 {d,e,f}", "d")
    assert code == 0
    data = json.loads(out)
    assert data["image"]["literal"] == "v1 d v1"
    code, out, _ = run_cli(capsys, "act", fixture("pentagon_triangle"),
                           "chi v1 {d,e,f}", "a")
    assert json.loads(out)["image"]["literal"] == "a"


@pytest.mark.parametrize("name", LISTED_FIXTURES)
def test_act_accepts_the_lines_of_gens(capsys, name):
    """Each line ``gens`` prints acts on every vertex as its label does."""
    code, out, _ = run_cli(capsys, "gens", fixture(name))
    assert code == 0
    g = from_json(Path(fixture(name)).read_text(encoding="utf-8"))
    for line in out.splitlines():
        pc = json.loads(line)
        label = f"chi {pc['vertex']} {{{','.join(pc['component'])}}}"
        for word in g.names:
            images = []
            for spec in (line, label):
                code, act_out, _ = run_cli(capsys, "act", fixture(name), spec, word)
                assert code == 0
                images.append(json.loads(act_out))
            assert images[0] == images[1]
            assert images[0]["generator"] == label


@pytest.mark.parametrize("spec, message", [
    ('{"vertex": "c", "component": ["e", "f"], "colour": 1}', "keys"),
    ('{"vertex": "c", "component": ["e", "f"], "order": 3}',
     "order 3 is not the order 2 of vertex 'c'"),
    ('{"vertex": "c", "component": ["e", "f"]', "as JSON"),
])
def test_exit_two_on_bad_gens_line(capsys, spec, message):
    code, out, err = run_cli(capsys, "act", fixture("pentagon_triangle"), spec, "e")
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize("spec", ['{"vertex": "c", "component": ["e"]}',
                                  "chi c {e}"])
def test_act_names_the_refused_component(capsys, spec):
    """The refused component is named by its vertex names, as the acting
    vertex is, not by vertex indices."""
    code, out, err = run_cli(capsys, "act", fixture("pentagon_path"), spec, "e")
    assert code == 2 and out == ""
    assert err == ('error: ["e"] is not a connected component of the graph '
                   "minus St(c)\n")


# ---------------------------------------------------------------------------
# verify


def test_verify_clean_run(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-vertices", "3", "--dedup")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1  # no counterexamples, summary only
    summary = json.loads(lines[0])
    assert summary["counterexamples"] == 0
    assert summary["checked_graphs"] == 7
    assert summary["max_vertices"] == 3
    assert summary["version"] == 2


def test_verify_prints_each_chunk_as_it_arrives(capsys, monkeypatch):
    report = CounterexampleReport("lemma_4", {"vertices": [], "edges": []},
                                  {}, "deliberately falsified", 1)

    def chunks(spec):
        yield 1, [report]
        # the first chunk's report is out before the next chunk is checked
        assert capsys.readouterr().out == report.to_json_line() + "\n"
        yield 2, []

    monkeypatch.setattr("silscope.harness.checked_chunks", chunks)
    code, out, _ = run_cli(capsys, "verify", "--max-vertices", "2")
    assert code == 1
    summary = json.loads(out)
    assert (summary["checked_graphs"], summary["counterexamples"]) == (3, 1)


def test_verify_unknown_check(capsys):
    code, _, err = run_cli(capsys, "verify", "--max-vertices", "2",
                           "--checks", "bogus")
    assert code == 2
    assert "unknown check" in err


def test_verify_refuses_empty_orders_and_checks(capsys):
    for option in ("--orders", "--checks"):
        code, out, err = run_cli(capsys, "verify", "--max-vertices", "4",
                                 option, ",")
        assert code == 2 and out == ""
        assert "error:" in err


def test_verify_folds_repeated_orders_and_checks(capsys):
    _, plain, _ = run_cli(capsys, "verify", "--max-vertices", "4",
                          "--orders", "2,3", "--checks", "lemma_4")
    _, repeated, _ = run_cli(capsys, "verify", "--max-vertices", "4",
                             "--orders", "3,2,2", "--checks", "lemma_4,lemma_4")
    assert repeated == plain
    summary = json.loads(plain)
    assert summary["orders"] == [2, 3] and summary["checks"] == ["lemma_4"]
    assert summary["checked_graphs"] == 2 + 2 * 4 + 8 * 8 + 64 * 16


def test_verify_reports_failures_with_exit_one(capsys):
    def bad(census):
        return {}, "forced failure"
    CHECKS["always_fails"] = bad
    try:
        code, out, _ = run_cli(capsys, "verify", "--max-vertices", "1",
                               "--checks", "always_fails")
    finally:
        del CHECKS["always_fails"]
    assert code == 1
    lines = out.splitlines()
    assert json.loads(lines[0])["check"] == "always_fails"
    assert json.loads(lines[-1])["counterexamples"] == 1


def test_removed_oracle_flags_are_refused(capsys):
    # the word oracle decides exactly, so it has no radius or size cutoff
    for argv in (["--oracle-depth", "4"], ["--oracle-max-vertices", "5"]):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# error handling and exit codes


def test_exit_two_on_missing_file(capsys):
    code, _, err = run_cli(capsys, "classify", "no_such_file.json")
    assert code == 2 and "error:" in err


def test_exit_two_on_malformed_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [,]}')
    code, _, err = run_cli(capsys, "classify", str(bad))
    assert code == 2
    assert "line 1" in err and "column" in err


def test_exit_two_on_bad_order_map(capsys, tmp_path):
    bad = tmp_path / "bad_order.json"
    bad.write_text('{"vertices": [{"name": "a", "order": 6}], "edges": []}')
    code, _, err = run_cli(capsys, "classify", str(bad))
    assert code == 2 and "prime power" in err


@pytest.mark.parametrize("order", ["true", "2.0", "[2]"])
def test_exit_two_on_an_order_that_is_no_int(capsys, tmp_path, order):
    # true == 1 and 2.0 == 2 in Python, and a list cannot be hashed: each
    # is still refused with the message of any bad order
    bad = tmp_path / "bad_order.json"
    bad.write_text('{"vertices": [{"name": "a"}, {"name": "b", "order": %s}],'
                   ' "edges": []}' % order)
    code, out, err = run_cli(capsys, "classify", str(bad))
    assert code == 2 and out == ""
    assert err == (f"error: vertex 'b' has order {json.loads(order)!r}; "
                   "orders must be prime powers in 2..2147483647\n")


def test_exit_two_on_an_edge_given_in_both_directions(capsys, tmp_path):
    bad = tmp_path / "duplicate_edge.json"
    bad.write_text('{"vertices": [{"name": "a"}, {"name": "b"}], '
                   '"edges": [["a", "b"], ["b", "a"]]}')
    code, out, err = run_cli(capsys, "classify", str(bad))
    assert code == 2 and out == ""
    assert err == "error: duplicate edge 'b' -- 'a'\n"


def test_exit_two_on_bad_verify_order(capsys):
    code, out, err = run_cli(capsys, "verify", "--max-vertices", "2",
                             "--orders", "x")
    assert code == 2 and out == ""
    assert "error:" in err and "'x'" in err


@pytest.mark.parametrize("orders, token", [
    ("2,1_1", "1_1"), ("2,\u0663", "\u0663"), ("2,+3", "+3"), ("2,-3", "-3"),
])
def test_exit_two_on_a_verify_order_that_is_no_ascii_decimal(capsys, orders,
                                                             token):
    # int() reads "1_1" as 11 and the Arabic-Indic digit three as 3
    code, out, err = run_cli(capsys, "verify", "--max-vertices", "2",
                             "--orders", orders)
    assert code == 2 and out == ""
    assert err == f"error: order {token!r} is not a decimal integer\n"


@pytest.mark.parametrize("flag", ["--max-vertices", "--workers"])
@pytest.mark.parametrize("token", ["0_3", "\u0663", "+3", "3.0", ""])
def test_exit_two_on_a_verify_count_that_is_no_ascii_decimal(capsys, flag,
                                                            token):
    # int() reads "0_3" as 3 and the Arabic-Indic digit three as 3
    argv = {"--max-vertices": "3", "--workers": "1", flag: token}
    code, out, err = run_cli(capsys, "verify", *itertools.chain(*argv.items()))
    assert code == 2 and out == ""
    assert err == f"error: {flag} {token!r} is not a decimal integer\n"


@pytest.mark.parametrize("argv, message", [
    (["--max-vertices", "8"], "max_vertices must be in 1..7 without dedup"),
    (["--max-vertices", "10", "--dedup"], "max_vertices must be in 1..9"),
])
def test_exit_two_on_a_vertex_bound_past_the_limit(capsys, argv, message):
    # labelled enumeration on 8 vertices is 2^28 edge masks, hours of checks
    code, out, err = run_cli(capsys, "verify", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("flag, limit", [
    ("--orders", f"orders are at most {MAX_ORDER}"),
    ("--max-vertices", "it is at most 9"),
    ("--workers", "the pool has at most one process per CPU"),
])
def test_exit_two_on_a_verify_number_too_long_for_int(capsys, flag, limit):
    digits = "7" * 5000  # more digits than int() converts
    argv = {"--max-vertices": "3", "--orders": "2", flag: digits}
    code, out, err = run_cli(capsys, "verify", *itertools.chain(*argv.items()))
    what = "order" if flag == "--orders" else flag
    assert code == 2 and out == ""
    assert err == f"error: {what} has 5000 digits; {limit}\n"


@pytest.mark.parametrize("token", ["x", "1_1", "+3", "", "7" * 5000],
                         ids=["letter", "underscore", "sign", "empty",
                              "5000_digits"])
def test_a_verify_number_that_is_no_count_is_a_graph_error(token):
    """``main``'s one malformed-input handler reports it: a number token
    that is refused raises ``GraphError``, still a ``ValueError``."""
    with pytest.raises(GraphError):
        cli._ascii_decimal(token, "--workers", "no limit")


def test_verify_counts_may_be_padded_with_whitespace(capsys):
    _, padded, _ = run_cli(capsys, "verify", "--max-vertices", " 3 ",
                           "--workers", " 1 ", "--checks", "lemma_4")
    _, plain, _ = run_cli(capsys, "verify", "--max-vertices", "3",
                          "--checks", "lemma_4")
    assert padded == plain and json.loads(plain)["max_vertices"] == 3


def test_verify_orders_may_be_padded_with_whitespace(capsys):
    _, padded, _ = run_cli(capsys, "verify", "--max-vertices", "3",
                           "--orders", " 2 , 3 ", "--checks", "lemma_4")
    _, plain, _ = run_cli(capsys, "verify", "--max-vertices", "3",
                          "--orders", "2,3", "--checks", "lemma_4")
    assert padded == plain and json.loads(plain)["orders"] == [2, 3]


def test_exit_two_on_a_word_exponent_that_is_no_ascii_decimal(capsys):
    # "v1^1_0" would read as v1^10, the empty word on an order-2 vertex
    code, out, err = run_cli(capsys, "reduce", fixture("pentagon_triangle"),
                             "v1^1_0")
    assert code == 2 and out == "" and "'v1^1_0'" in err


def test_exit_two_on_a_json_key_given_twice(capsys, tmp_path):
    bad = tmp_path / "twice.json"
    bad.write_text('{"vertices": [{"name": "a", "order": 3, "order": 2}], '
                   '"edges": []}')
    code, out, err = run_cli(capsys, "classify", str(bad))
    assert code == 2 and out == ""
    assert err == "error: duplicate key 'order' in a JSON object\n"
    code, out, err = run_cli(
        capsys, "act", fixture("pentagon_triangle"),
        '{"vertex": "v1", "component": ["d", "e", "f"], "vertex": "v2"}', "d")
    assert code == 2 and out == ""
    assert "duplicate key 'vertex'" in err


def test_exit_two_on_order_too_long_for_int(capsys, tmp_path):
    digits = "7" * 5000  # more digits than int() converts
    bad = tmp_path / "long_order.json"
    bad.write_text('{"vertices": [{"name": "a", "order": %s}], "edges": []}'
                   % digits)
    code, out, err = run_cli(capsys, "sils", str(bad))
    assert code == 2 and out == "" and "error:" in err
    bad_dot = tmp_path / "long_order.dot"
    bad_dot.write_text("graph G { a [order=%s]; }" % digits)
    code, out, err = run_cli(capsys, "sils", str(bad_dot))
    assert code == 2 and out == "" and "5000 digits" in err


def test_exit_two_on_a_misspelt_dot_order(capsys, tmp_path):
    bad = tmp_path / "ordr.dot"
    bad.write_text("graph G { a [ordr=3]; a -- b; }")
    code, out, err = run_cli(capsys, "sils", str(bad))
    assert code == 2 and out == "" and "'ordr'" in err


def test_exit_two_on_deeply_nested_json(capsys, tmp_path):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000)
    code, out, err = run_cli(capsys, "sils", str(bad))
    assert code == 2 and out == "" and "error:" in err


def test_huge_orders_are_refused_before_trial_division(capsys, tmp_path):
    # trial division of a 25-digit prime would not finish
    huge = "1000000000000000000000007"
    code, out, err = run_cli(capsys, "verify", "--orders", huge)
    assert code == 2 and out == "" and "2147483647" in err
    bad = tmp_path / "huge_order.json"
    bad.write_text('{"vertices": [{"name": "a", "order": %s}], "edges": []}'
                   % huge)
    code, out, err = run_cli(capsys, "sils", str(bad))
    assert code == 2 and out == "" and "2147483647" in err
    # the largest accepted order is a (Mersenne) prime
    ok = tmp_path / "max_order.json"
    ok.write_text('{"vertices": [{"name": "a", "order": 2147483647}], "edges": []}')
    assert run_cli(capsys, "sils", str(ok))[0] == 0


def test_exit_two_on_string_edge_entry(capsys, tmp_path):
    # "ab" is a two-character string, not the edge a-b
    bad = tmp_path / "string_edge.json"
    bad.write_text('{"vertices": [{"name": "a"}, {"name": "b"}], "edges": ["ab"]}')
    code, out, err = run_cli(capsys, "classify", str(bad))
    assert code == 2 and out == ""
    assert "error:" in err and "bad edge entry" in err


def test_exit_two_on_integer_vertex_name(capsys, tmp_path):
    bad = tmp_path / "int_name.json"
    bad.write_text('{"vertices": [{"name": 1}, {"name": 2}], "edges": []}')
    code, out, err = run_cli(capsys, "classify", str(bad))
    assert code == 2 and out == ""
    assert "error:" in err and "non-empty string" in err


def test_exit_two_on_unhashable_vertex_name(capsys, tmp_path):
    bad = tmp_path / "list_name.json"
    bad.write_text('{"vertices": [{"name": [1]}], "edges": []}')
    code, out, err = run_cli(capsys, "classify", str(bad))
    assert code == 2 and out == ""
    assert "error:" in err and "non-empty string" in err


def test_exit_two_on_non_utf8_file(capsys, tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"vertices": [{"name": "é"}], "edges": []}'.encode("latin-1"))
    code, out, err = run_cli(capsys, "classify", str(bad))
    assert code == 2 and out == ""
    assert "error:" in err and "UTF-8" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--max-vertices", "2", "--checks=--"],
    ["verify", "--max-vertices=--"],
    ["classify", fixture("pentagon_triangle"), "--dot=--"],
])
def test_exit_two_on_double_dash_option_value(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "expected one value" in err


def test_removed_ordering_flag_exits_two(capsys):
    # renumbering is done by reordering the input's vertex list
    names = "a,b,c,d,e,f,v1,v2"
    for command in ("classify", "gens", "presentation"):
        with pytest.raises(SystemExit) as exc:
            main([command, fixture("pentagon_triangle"), "--ordering", names])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_exit_two_on_unknown_vertex_key(capsys, tmp_path):
    bad = tmp_path / "misspelt_order.json"
    bad.write_text('{"vertices": [{"name": "a", "ordr": 3}], "edges": []}')
    code, out, err = run_cli(capsys, "classify", str(bad))
    assert code == 2 and out == ""
    assert "error:" in err and "ordr" in err


def test_exit_two_on_bad_word(capsys):
    code, _, err = run_cli(capsys, "reduce", fixture("pentagon_triangle"), "zz")
    assert code == 2 and "word token" in err


def test_exit_two_on_bad_genspec(capsys):
    code, _, err = run_cli(capsys, "act", fixture("pentagon_triangle"),
                           "chi v1 {d}", "d")
    assert code == 2 and "connected component" in err
    code, _, err = run_cli(capsys, "act", fixture("pentagon_triangle"),
                           "zeta v1 {d}", "d")
    assert code == 2 and "generator spec" in err


def test_dot_input_via_cli(capsys, tmp_path):
    dot = tmp_path / "g.dot"
    dot.write_text('graph G {\n  "u" [order=3];\n  u -- w;\n}\n')
    code, out, _ = run_cli(capsys, "classify", str(dot))
    assert code == 0
    report = json.loads(out)
    assert report["class"] == "Finite"
    assert report["graph"]["vertices"][0] == {"name": "u", "order": 3}


# ---------------------------------------------------------------------------
# main never raises


_FUZZ = settings(max_examples=60, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FUZZ
@given(text=st.one_of(
    st.text(max_size=200),
    st.lists(st.sampled_from(['{', '}', '[', ']', ',', ':', '"vertices"',
                              '"edges"', '"name"', '"order"', '"a"', '"b"',
                              '2', '3', '6', '1e400', '-1', 'null', 'graph',
                              'a', 'b', '--', ';', '[order=4]', '=']),
             max_size=40).map(" ".join)),
       suffix=st.sampled_from([".json", ".dot"]),
       command=st.sampled_from(["classify", "sils", "gens", "presentation"]))
def test_main_never_raises_on_graph_files(capsys, tmp_path, text, suffix, command):
    path = tmp_path / f"fuzz{suffix}"
    path.write_text(text, encoding="utf-8")
    assert main([command, str(path)]) in (0, 2)
    capsys.readouterr()


@_FUZZ
@given(orders=st.one_of(st.text(max_size=30),
                        st.lists(st.integers(-10, 2**40).map(str),
                                 max_size=4).map(",".join)),
       checks=st.one_of(st.text(max_size=30),
                        st.lists(st.sampled_from(sorted(CHECKS)),
                                 max_size=3).map(",".join)))
def test_main_never_raises_on_verify_options(capsys, orders, checks):
    argv = ["verify", "--max-vertices", "2", f"--orders={orders}",
            f"--checks={checks}"]
    assert main(argv) in (0, 1, 2)
    capsys.readouterr()


# every subcommand and option string, `--` and `--opt=value` forms, fixture
# paths (FIXTURE/ and OUT are replaced by a scratch copy), words and small
# integers; no token asks for more than 3 vertices or 2 workers
_ARGV_TOKENS = st.one_of(
    st.sampled_from(["classify", "sils", "gens", "presentation", "verify",
                     "reduce", "act", "-h", "--help", "--ordering", "--dot",
                     "--max-vertices", "--orders", "--dedup", "--checks",
                     "--workers", "--", "--bogus"]),
    st.sampled_from(["--max-vertices=0", "--max-vertices=3", "--workers=1",
                     "--workers=2", "--orders=2,3", "--orders=4", "--orders=6",
                     "--checks=lemma_4,finite_equiv", "--checks=bogus",
                     "--checks=--", "--dedup=1", "--ordering=v1,v2",
                     "--ordering=a,b,c,d,e,f,v1,v2", "--dot=OUT"]),
    st.sampled_from(["FIXTURE/pentagon_triangle.json",
                     "FIXTURE/path_plus_isolated.json",
                     "FIXTURE/three_isolated.json", "FIXTURE/missing.json",
                     "v1", "v1 d v1", "chi v1 {d,e,f}", "chi c {e,f}", ""]),
    st.integers(-1, 2).map(str))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=st.one_of(
    st.lists(_ARGV_TOKENS, max_size=7),
    st.builds(lambda command, rest: [command] + rest,
              st.sampled_from(["verify", "reduce", "act"]),
              st.lists(_ARGV_TOKENS, max_size=6)),
    st.lists(_ARGV_TOKENS, max_size=5).map(
        lambda rest: ["verify", "--max-vertices=2"] + rest),
    st.builds(lambda command, path, rest: [command, path] + rest,
              st.sampled_from(["classify", "sils", "gens", "presentation"]),
              st.sampled_from(["FIXTURE/pentagon_triangle.json",
                               "FIXTURE/three_isolated.json"]),
              st.lists(_ARGV_TOKENS, max_size=4))))
def test_main_exit_paths_on_any_argv(capsys, monkeypatch, tmp_path, argv):
    # verify's default of 5 vertices is refused here, so no example runs a
    # long enumeration
    monkeypatch.setattr("silscope.harness.MAX_ENUMERATION_VERTICES", 3)
    # `--dot` followed by a bare token such as `reduce` writes that file
    monkeypatch.chdir(tmp_path)
    for name in ("pentagon_triangle", "path_plus_isolated", "three_isolated"):
        (tmp_path / f"{name}.json").write_text(
            Path(fixture(name)).read_text(encoding="utf-8"), encoding="utf-8")
    argv = [t.replace("FIXTURE", str(tmp_path))
            .replace("=OUT", "=" + str(tmp_path / "out.dot")) for t in argv]
    expected = _outcome(capsys, _main_with_full_parser, monkeypatch, argv)
    outcome = _outcome(capsys, main, argv)
    assert outcome == expected
    code = outcome[0]
    if type(code) is int:
        assert code in (0, 1, 2)
    else:
        assert code[1] in (0, 2)


def _outcome(capsys, run, *args):
    """The exit code, or ``("SystemExit", code)``, then stdout and stderr
    of ``run(*args)``."""
    try:
        code = run(*args)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _main_with_full_parser(monkeypatch, argv):
    """``main(argv)`` parsing with ``build_parser().parse_args`` alone, the
    argparse reference for the plain reader."""
    with monkeypatch.context() as m:
        m.setattr(cli, "_read_plain", lambda argv: None)
        return main(argv)


@pytest.mark.parametrize("command", [
    [], ["classify"], ["sils"], ["gens"], ["presentation"], ["verify"],
    ["reduce"], ["act"]])
def test_help_equals_the_full_parsers(capsys, monkeypatch, command):
    argv = command + ["-h"]
    expected = _outcome(capsys, _main_with_full_parser, monkeypatch, argv)
    assert expected[0] == ("SystemExit", 0) and expected[1]
    assert _outcome(capsys, main, argv) == expected


@pytest.mark.parametrize("argv", [
    ["verify", "--max-vertices=3", "--dedup"],
    ["verify", "--max", "3", "--dedup"],
    ["verify", "--max-vertices", "3", "--"],
    ["verify", "--", "--max-vertices", "3"],
    ["classify", fixture("pentagon_triangle"), "-h"],
    ["verify", "--max-vertices", "2", "--orders", "-1"],
    ["classify", "-"],
    ["classify", fixture("pentagon_triangle"), fixture("three_isolated")],
    ["reduce", fixture("pentagon_triangle"), "v1", "d"],
    ["reduce", fixture("pentagon_triangle")],
    ["verify", "--max-vertices", "2", "--orders"],
    ["classify", fixture("pentagon_triangle"), "--dot"],
    ["verify", "--max-vertices", "2", "--dedup=1"],
    ["verify", "--max-vertices", "2", "--dedup", "1"],
    ["verify", "--max-vertices", "2", "--bogus"],
    ["classify", "--dot", "--orders", fixture("pentagon_triangle")],
    ["Classify", fixture("pentagon_triangle")],
    [],
])
def test_the_plain_reader_declines_what_argparse_must_read(capsys, monkeypatch,
                                                          argv):
    assert cli._read_plain(argv) is None
    expected = _outcome(capsys, _main_with_full_parser, monkeypatch, argv)
    assert _outcome(capsys, main, argv) == expected


@st.composite
def _argvs_of_one_command(draw, values):
    """A subcommand, its positionals drawn from ``values``, its flags in
    between (each followed by a value from ``values`` if it takes one), and
    now and then a stray token anywhere."""
    command, _, _, arguments = draw(st.sampled_from(cli._COMMANDS))
    items = [[draw(values)] for flag, _ in arguments if not flag.startswith("-")]
    options = [a for a in arguments if a[0].startswith("-")]
    for flag, spec in draw(st.lists(st.sampled_from(options), max_size=4)
                           if options else st.just([])):
        items.insert(draw(st.integers(0, len(items))),
                     [flag] if spec.get("action") else [flag, draw(values)])
    tokens = [token for item in items for token in item]
    if draw(st.integers(0, 4)) == 0:
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(
            ["-h", "--help", "--", "-", "-1", "--max", "--dot=x", "--dedup=1",
             "--orders", "--dot", "--bogus", "verify", "v1", ""])))
    return [command, *tokens]


@settings(max_examples=2000, deadline=None)
@given(argv=_argvs_of_one_command(st.one_of(
    st.text(max_size=6),
    st.sampled_from(["2", "2,3", "lemma_4", "a b", "-x", "x=y", "%s", "--"]))))
def test_a_plain_argv_reads_as_argparse_reads_it(argv):
    # no command runs: only the namespaces are compared
    args = cli._read_plain(argv)
    if args is not None:
        assert vars(args) == vars(build_parser().parse_args(argv))


def test_every_command_table_entry_is_one_the_plain_reader_reads():
    # the plain reader knows only this shape: a typed, multi-valued or
    # choice option, or a renamed dest, would make argparse build another
    # namespace than the reader's
    for name, _, _, arguments in cli._COMMANDS:
        assert not name.startswith("-")
        options = [(f, o) for f, o in arguments if f.startswith("-")]
        positionals = [(f, o) for f, o in arguments if not f.startswith("-")]
        # argparse fills two or more positionals in chunks between options
        assert not (options and len(positionals) >= 2), name
        for flag, spec in options:
            assert flag.startswith("--") and "=" not in flag, flag
            if spec.get("action") is not None:
                assert spec["action"] == "store_true", flag
                assert spec.keys() <= {"action", "help"}, flag
            else:
                assert spec.keys() <= {"default", "metavar", "help"}, flag
                assert spec.get("default") is None or type(spec["default"]) is str
        for flag, spec in positionals:
            assert spec.keys() <= {"metavar", "help"}, flag


def test_a_plain_call_builds_no_parser(capsys, monkeypatch):
    # a later change must neither build a parser for a plain call nor move
    # the build into import; any other argv builds the full parser once
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    importlib.reload(cli)
    assert built == []
    for argv in (["classify", fixture("pentagon_triangle")],
                 ["verify", "--max-vertices", "2"]):
        assert main(argv) == 0
        assert built == []
    full = ["silscope"] + [f"silscope {c[0]}" for c in cli._COMMANDS]
    for argv in (["verify", "--max-vertices=2"], ["classify"]):
        built.clear()
        _outcome(capsys, main, argv)
        assert built == full
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["classify", fixture("pentagon_triangle")],
    ["verify", "--max-vertices", "3", "--dedup"]])
def test_a_plain_call_imports_no_argparse(argv):
    # argparse and the gettext it loads take milliseconds to import
    script = ("import sys\n"
              "from silscope.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "assert 'argparse' not in sys.modules, 'argparse'\n"
              "assert 'gettext' not in sys.modules, 'gettext'\n"
              "sys.exit(code)\n")
    run = subprocess.run([sys.executable, "-c", script, *argv],
                         capture_output=True, env=_env_with_src(), timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout


_SUITE = ("silscope.harness", "silscope.words", "silscope.dot",
          "concurrent.futures", "multiprocessing")
# nothing a report or a listing runs decorates a dataclass
_LEAN = _SUITE + ("dataclasses", "inspect")


_CALLS = [
    ("classify", ["classify", fixture("pentagon_triangle")], (), _LEAN),
    ("sils", ["sils", fixture("pentagon_triangle")], (), _LEAN),
    ("classify_dot",
     ["classify", "--dot", "OUT", fixture("pentagon_triangle")],
     ("silscope.dot",), ("silscope.harness", "silscope.words",
                         "concurrent.futures")),
    ("reduce", ["reduce", fixture("pentagon_triangle"), "v1 d v1"],
     ("silscope.words",),
     ("silscope.harness", "silscope.dot", "concurrent.futures")),
    ("verify", ["verify", "--max-vertices", "3", "--dedup"],
     ("silscope.harness",),
     ("silscope.words", "silscope.dot", "concurrent.futures",
      "multiprocessing"))]


# two entries: ``main`` called from a script, and the console entry
# ``python -m silscope.cli``, which runs cli as ``__main__`` and, under
# ``-X importtime``, names each module on stderr as it loads
@pytest.mark.parametrize("entry, argv, loaded, absent", [
    pytest.param(entry, argv, loaded, absent, id=name + suffix)
    for entry, suffix in (("main", ""), ("-m", "-m"))
    for name, argv, loaded, absent in _CALLS])
def test_a_call_loads_only_the_modules_its_command_runs(tmp_path, entry, argv,
                                                        loaded, absent):
    # each module compiles from source on every call when no bytecode is
    # written, as in the benchmark
    argv = [str(tmp_path / "out.dot") if t == "OUT" else t for t in argv]
    script = ("import json, sys\n"
              "from silscope.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
              "sys.exit(code)\n")
    command = (["-X", "importtime", "-m", "silscope.cli"] if entry == "-m"
               else ["-c", script])
    run = subprocess.run([sys.executable, *command, *argv],
                         capture_output=True, text=True, env=_env_with_src(),
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout
    if entry == "-m":
        modules = {line.rpartition("|")[2].strip()
                   for line in run.stderr.splitlines()
                   if line.startswith("import time:")}
    else:
        modules = set(json.loads(run.stderr.splitlines()[-1]))
    assert modules >= {"silscope.graphs", "silscope.sils", "silscope.outer",
                       *loaded}
    assert not modules & set(absent)


def test_no_module_imports_a_name_it_never_uses():
    """Every name a module of the package imports is read in it: in code,
    in an annotation or in ``__all__``."""
    unused = []
    for path in sorted(Path(silscope.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, used = [], set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif (isinstance(node, (ast.Import, ast.ImportFrom))
                  and getattr(node, "module", None) != "__future__"):
                imported += [(node.lineno, alias.asname
                              or alias.name.partition(".")[0])
                             for alias in node.names]
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                used.update(c.value for c in ast.walk(node.value)
                            if isinstance(c, ast.Constant))
        unused += [f"{path.name}:{line} {name}"
                   for line, name in imported if name not in used]
    assert unused == []


def test_a_word_error_exits_2_from_a_fresh_console_entry():
    # `python -m` runs cli as __main__, where the word engine loads late
    run = subprocess.run(
        [sys.executable, "-m", "silscope.cli", "reduce",
         fixture("pentagon_triangle"), "zz"],
        capture_output=True, text=True, env=_env_with_src(), timeout=120)
    assert (run.returncode, run.stdout, run.stderr) == (
        2, "", "error: cannot parse word token 'zz'\n")


@pytest.mark.parametrize("command", [[], ["verify"], ["classify"], ["act"]])
def test_help_from_a_fresh_console_entry(capsys, monkeypatch, command):
    env = dict(_env_with_src(), COLUMNS="80")
    run = subprocess.run([sys.executable, "-m", "silscope.cli", *command,
                          "--help"], capture_output=True, text=True, env=env,
                         timeout=120)
    monkeypatch.setenv("COLUMNS", "80")
    assert _outcome(capsys, main, [*command, "--help"]) == (
        ("SystemExit", 0), run.stdout, run.stderr)
    assert run.returncode == 0
    # the help quotes the suite's limits as it did when they were read at
    # import, and keeps the braces of a generator spec; argparse may wrap
    # a line inside a check id
    text = "".join(run.stdout.split())
    quoted = {
        "verify": ["largest number of vertices, a decimal in "
                   f"1..{harness.MAX_ENUMERATION_VERTICES} with --dedup, "
                   f"else in 1..{harness.MAX_LABELLED_VERTICES} (default: 5)",
                   "comma-separated check ids (default: all: "
                   f"{','.join(harness.DEFAULT_CHECKS)})"],
        "act": ["generator spec, e.g. 'chi v1 {d,e,f}'"]}
    for line in quoted.get(command[0] if command else "", []):
        assert "".join(line.split()) in text


def _env_with_src():
    """The environment, with silscope's source first on ``PYTHONPATH``."""
    src = str(Path(silscope.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


class _ClosedPipe(io.StringIO):
    """A stdout whose reader is gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_closed_stdout_exits_141_without_a_message(capsys, monkeypatch,
                                                     workers):
    # the first report of this run is written while later chunks are
    # still pending in the pool
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["verify", "--max-vertices", "7", "--dedup", "--checks",
                 "lemma_7", "--workers", workers]) == 141
    assert capsys.readouterr().err == ""
    assert multiprocessing.active_children() == []


def test_a_closed_pipe_ends_the_console_entry_with_141():
    # 281 reports, about 165 KB, more than a pipe holds: the writer is
    # still running when the reader goes, and the interpreter's final
    # flush must not fail
    with subprocess.Popen(
            [sys.executable, "-m", "silscope.cli", "verify", "--max-vertices",
             "8", "--dedup", "--checks", "lemma_7"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=_env_with_src()) as proc:
        assert proc.stdout.readline().startswith(b'{"check": "lemma_7"')
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
    assert err == b""
