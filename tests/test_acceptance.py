"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import json
import random
import time

from silscope import (EPSILON, Census, OutKind, apply, build_p0, classify,
                      commutator_power_probe, compose, disconnected_structure,
                      enumerate_sils, identity_automorphism, make_word,
                      partial_conjugations, pc_automorphism, presentation,
                      reduce)
from silscope.cli import build_report, main
from silscope.harness import EnumSpec, run_suite

import oracles
from oracles import image_of_vertex
from conftest import (names, path_mixed_orders, path_plus_isolated,
                      pentagon_fork, pentagon_path, pentagon_triangle,
                      three_isolated)

DINF = "D∞"
Z2 = "ℤ/2ℤ"
TIMES = " × "

SUITE_CHECKS = ("lemma_2_2", "lemma_4", "stil_two_sils", "lemma_7", "lemma_1_7",
                "finite_equiv", "three_components_fsil", "fsil_three_sils")


class Criterion:
    def __init__(self, number, title):
        self.label = f"criterion {number} ({title})"
        self.failures = []

    def expect(self, condition, detail):
        if not condition:
            self.failures.append(detail)

    def finish(self):
        status = "PASS" if not self.failures else "FAIL"
        print(f"[{status}] {self.label}"
              + (f": {'; '.join(self.failures)}" if self.failures else ""))
        assert not self.failures, f"{self.label}: {self.failures}"


def p0_set(g):
    return {(g.names[pc.vertex], tuple(names(g, pc.component)))
            for pc in build_p0(Census(g))}


def test_criterion_1_fixture_classifications():
    c = Criterion(1, "fixture classifications")

    t0 = time.perf_counter()
    g1 = pentagon_triangle()
    census = Census(g1)
    c.expect(classify(census).kind is OutKind.VIRTUALLY_Z, "pentagon_triangle class")
    c.expect(p0_set(g1) == {("v1", ("d", "e", "f")), ("v2", ("d", "e", "f")),
                            ("c", ("e", "f"))},
             "pentagon_triangle generating set")
    c.expect(presentation(census).summary == DINF + TIMES + Z2,
             "pentagon_triangle summary")
    c.expect(time.perf_counter() - t0 < 1.0, "pentagon_triangle runtime")

    t0 = time.perf_counter()
    census = Census(pentagon_path())
    c.expect(classify(census).kind is OutKind.VIRTUALLY_Z, "pentagon_path class")
    c.expect(len(build_p0(census)) == 4, "pentagon_path generating set size")
    c.expect(presentation(census).summary == DINF + TIMES + Z2 + TIMES + Z2,
             "pentagon_path summary")
    c.expect(time.perf_counter() - t0 < 1.0, "pentagon_path runtime")

    t0 = time.perf_counter()
    census = Census(path_plus_isolated())
    c.expect(classify(census).kind is OutKind.VIRTUALLY_Z, "path_plus_isolated class")
    c.expect(presentation(census).summary == DINF, "path_plus_isolated summary")
    disc = disconnected_structure(census)
    c.expect(disc is not None and disc.summary == DINF,
             "path_plus_isolated disconnected structure")
    c.expect(time.perf_counter() - t0 < 1.0, "path_plus_isolated runtime")

    t0 = time.perf_counter()
    c.expect(classify(Census(three_isolated())).kind is OutKind.LARGE,
             "three_isolated class")
    c.expect(time.perf_counter() - t0 < 1.0, "three_isolated runtime")

    t0 = time.perf_counter()
    c.expect(classify(Census(path_mixed_orders())).kind is OutKind.FINITE,
             "path_mixed_orders class")
    c.expect(time.perf_counter() - t0 < 1.0, "path_mixed_orders runtime")

    c.finish()


def test_criterion_2_fork_divergence_flag():
    c = Criterion(2, "definitional census of the fork fixture")
    g = pentagon_fork()
    report = json.loads(build_report(Census(g)))
    c.expect(report["class"] == "Large", "class must be Large")
    c.expect([f["triple"] for f in report["fsils"]] == [["c", "e", "f"]],
             "flexible triple {c,e,f} must be reported")
    c.expect(len(report["warnings"]) == 1
             and "VirtuallyAbelianNotZ" in report["warnings"][0],
             "divergence warning must be attached")
    # independent oracle: naive per-definition scan over all pairs/components
    got = {(s.pair, s.component, s.coxeter) for s in enumerate_sils(Census(g))}
    c.expect(got == oracles.sil_census(g),
             "census must match the brute-force definition scan")
    c.expect(report["evidence"] == {"coxeter_sils": 4, "non_coxeter_sils": 0,
                                    "stils": 0, "fsils": 1},
             "evidence counts")
    c.finish()


def test_criterion_3_exhaustive_suite():
    c = Criterion(3, "exhaustive lemma suite")
    t0 = time.perf_counter()
    _, reports = run_suite(EnumSpec(6, orders=(2,), dedup_isomorphic=True,
                                    checks=SUITE_CHECKS))
    elapsed = time.perf_counter() - t0
    c.expect(reports == [], f"n<=6 orders [2]: {len(reports)} counterexamples")
    c.expect(elapsed <= 600, f"n<=6 runtime {elapsed:.1f}s")

    t0 = time.perf_counter()
    _, reports = run_suite(EnumSpec(5, orders=(2, 3), dedup_isomorphic=True,
                                    checks=SUITE_CHECKS))
    elapsed = time.perf_counter() - t0
    c.expect(reports == [], f"n<=5 orders [2,3]: {len(reports)} counterexamples")
    c.expect(elapsed <= 600, f"n<=5 orders [2,3] runtime {elapsed:.1f}s")
    c.finish()


def test_criterion_4_oracle_agreement():
    c = Criterion(4, "commutation predicate vs word oracle")
    spec = EnumSpec(5, orders=(2,), checks=("lemma_1_4_oracle",))
    c.expect(len(list(oracles.graphs_of(spec))) == 1099, "all labelled graphs on <= 5 vertices")
    t0 = time.perf_counter()
    _, reports = run_suite(spec)
    elapsed = time.perf_counter() - t0
    c.expect(reports == [], f"{len(reports)} disagreements")
    c.expect(elapsed <= 900, f"runtime {elapsed:.1f}s")
    c.finish()


def test_criterion_5_word_engine_bulk():
    c = Criterion(5, "word engine bulk properties")
    fixtures = [pentagon_triangle(), pentagon_path(), pentagon_fork(),
                path_mixed_orders(), path_plus_isolated(), three_isolated()]
    rng = random.Random(20260810)
    trials = 10_000
    for g in fixtures:
        census = Census(g)
        pcs = [pc for v in range(g.n) for pc in partial_conjugations(census, v)]
        bad = 0
        for _ in range(trials):
            w = make_word(g, [(rng.randrange(g.n), rng.randint(1, 4))
                              for _ in range(rng.randint(0, 8))])
            r = reduce(g, w)
            if reduce(g, r) != r or len(r) > len(w):
                bad += 1
                continue
            if reduce(g, w + tuple((v, -e) for v, e in reversed(w))) != EPSILON:
                bad += 1
                continue
            if pcs:
                pc = rng.choice(pcs)
                k = rng.randint(0, len(w))
                if apply(g, pc, w) != reduce(g, apply(g, pc, w[:k])
                                             + apply(g, pc, w[k:])):
                    bad += 1
        c.expect(bad == 0, f"{bad} word-property failures on {g.names}")
        for pc in pcs:
            phi = pc_automorphism(g, pc)
            power = identity_automorphism(g)
            for _ in range(g.orders[pc.vertex]):
                power = compose(g, phi, power)
            c.expect(power == identity_automorphism(g)
                     and all(image_of_vertex(g, power, v) == ((v, 1),)
                             for v in range(g.n)),
                     f"order of {pc} on {g.names}")

    g1 = pentagon_triangle()
    census = Census(g1)
    sil = enumerate_sils(census)[0]
    x = next(pc for pc in partial_conjugations(census, sil.pair[0])
             if pc.component == sil.component)
    y = next(pc for pc in partial_conjugations(census, sil.pair[1])
             if pc.component == sil.component)
    probe = commutator_power_probe(g1, x, y, 4)
    c.expect(probe == 4, f"commutator power probe returned {probe}")
    c.finish()


def test_criterion_6_worker_determinism(capsys):
    c = Criterion(6, "deterministic reports across worker counts")
    argv = ["verify", "--max-vertices", "6", "--orders", "2", "--dedup",
            "--checks", ",".join(SUITE_CHECKS)]
    code1 = main(argv + ["--workers", "1"])
    out1 = capsys.readouterr().out
    code2 = main(argv + ["--workers", "2"])
    out2 = capsys.readouterr().out
    c.expect(code1 == 0 and code2 == 0, f"exit codes {code1}, {code2}")
    c.expect(out1.encode() == out2.encode(), "byte-identical JSON-lines output")
    summary = json.loads(out1.splitlines()[-1])
    c.expect(summary["counterexamples"] == 0, "clean suite")
    c.expect(summary["checked_graphs"] == 208, "graph census")
    c.finish()
