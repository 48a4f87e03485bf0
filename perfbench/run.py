"""Benchmark of ``silscope classify`` and ``silscope verify``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # each workload in a child

silscope is driven only through ``silscope.cli.main(argv)``, in this
process, with stdout captured and ``--workers`` at its default of 1.
Every op is checked against ``reference.json`` outside the timed region.
Functools caches in silscope are cleared before each op, so every op pays
what one command-line call pays.

With ``--trace 0`` the run repeats whole passes over its ops for about
``--seconds`` and reports the end-to-end metrics, with every time scaled
to a reference host speed by a calibration loop timed around it.  With ``--trace 1`` it
makes one pass untraced and one traced (see ``spans.py``) and reports the
per-layer metrics.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import graphgen  # noqa: E402
import reference  # noqa: E402
from spans import Tracer  # noqa: E402

C8 = ("lemma_2_2", "lemma_4", "stil_two_sils", "lemma_7", "lemma_1_7",
      "finite_equiv", "three_components_fsil", "fsil_three_sils")
CHECK_IDS = C8 + ("lemma_1_4_oracle",)

# workload -> ((max_vertices, orders, dedup, checks) at full size, at --tiny)
VERIFY_SPECS = {
    "verify_dedup": ((6, (2,), True, C8), (4, (2,), True, C8)),
    "verify_labelled": ((4, (2, 3, 4), False, C8), (3, (2, 3, 4), False, C8)),
    "verify_oracle": ((4, (2, 3), True, ("lemma_1_4_oracle",)),
                      (3, (2, 3), True, ("lemma_1_4_oracle",))),
}
WORKLOADS = ("classify_random",) + tuple(VERIFY_SPECS)
TINY_POOL = 3
SETUP_REPEATS = 11
# The host this was built on changes speed by up to 2x for seconds to
# minutes at a time (other tenants), which no run length averages away.
# Every reported time is therefore scaled by the time of a calibration loop
# run next to it: REFERENCE_CALIBRATION_S is what CALIBRATION_LOOPS take
# on that host at full speed, so scaled times read as milliseconds there.
CALIBRATION_LOOPS = 15000
REFERENCE_CALIBRATION_S = 0.0034

END_TO_END = (("setup_s", "s"), ("graphs_per_s", "1/s"),
              ("latency_p50_ms", "ms"), ("peak_rss_mb", "MiB"))
# Printed by every --trace 0 run but not in the result line: over identical
# verify ops, the p90 is host noise, too unsteady between runs to bound.
PRINTED_ONLY = (("latency_p90_ms", "ms"),)

# Spans whose call counts are reported, then those whose self times are.
COUNTED = ("sils.enumerate_sils", "outer.sil_witnesses", "outer.commutes",
           "sils.enumerate_stils", "graphs.components", "words.reduce",
           "words.search_inner")
TIMED = ("sils.enumerate_sils", "outer.commutes", "outer.presentation",
         "sils.enumerate_stils", "sils.enumerate_fsils", "outer.classify",
         "outer.build_p0", "outer.disconnected_structure",
         "sils.shared_sil_component", "graphs.components",
         "graphs.star_cut_points", "words.reduce", "words.search_inner",
         "words.commutator", "harness.enumerate_graphs",
         "harness.count_graphs", "graphs.load_graph", "cli.build_report",
         "cli.main")
TRACED = tuple(dict.fromkeys(COUNTED + TIMED))


def per_layer_metrics() -> list:
    """(name, unit, better) of every metric a ``--trace 1`` run reports."""
    out = [(f"{s}.calls", "count", "lower") for s in COUNTED]
    out += [(f"{s}.self_s", "s", "lower") for s in TIMED]
    out += [("sils.enumerate_sils.per_graph", "calls/graph", "lower"),
            ("words.search_inner.hit_ratio", "fraction", "higher"),
            ("harness.enumerate_graphs.yielded", "count", "lower")]
    for check_id in CHECK_IDS:
        out += [(f"harness.check.{check_id}.calls", "count", "lower"),
                (f"harness.check.{check_id}.self_s", "s", "lower")]
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


class BenchError(RuntimeError):
    """The benchmark itself cannot run (not a failed op of the program)."""


@dataclass
class Op:
    argv: list
    graphs: int  # graphs the op classifies or verifies
    expected: object  # reference content, or the known checked_graphs

    def passed(self, rc, stdout: str) -> bool:
        if rc != 0:
            return False
        try:
            if self.argv[0] == "classify":
                return reference.report_content(json.loads(stdout)) == self.expected
            summary = json.loads(stdout.splitlines()[-1])
            return (summary["counterexamples"] == 0
                    and summary["checked_graphs"] == self.expected)
        except (KeyError, TypeError, ValueError, IndexError):
            return False


def spec_key(max_vertices: int, orders: tuple, dedup: bool) -> str:
    return (f"max_vertices={max_vertices} orders={','.join(map(str, orders))}"
            f" dedup={dedup}")


def provenance() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True,
                             timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {"git_sha": sha or "unknown", "python": platform.python_version(),
            "nproc": os.cpu_count(), "loadavg_1m": os.getloadavg()[0]}


def import_silscope():
    """A fresh import of silscope from ``src/``; returns ``silscope.cli``."""
    for name in [m for m in sys.modules
                 if m == "silscope" or m.startswith("silscope.")]:
        del sys.modules[name]
    return importlib.import_module("silscope.cli")


def clear_caches() -> None:
    for name, mod in list(sys.modules.items()):
        if name == "silscope" or name.startswith("silscope."):
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def load_reference(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read reference {path}: {exc}") from None


def make_ops(workload: str, seed: int, tiny: bool, ref: dict,
             workdir: Path) -> list:
    """The run's ops; classify inputs are written under ``workdir``."""
    rng = random.Random(seed)
    if workload == "classify_random":
        pool = graphgen.pool()
        if graphgen.pool_digest(pool) != ref["pool"]["digest"]:
            raise BenchError("generated pool differs from the reference pool; "
                             "rebuild it with perfbench/make_reference.py")
        picks = list(range(TINY_POOL if tiny else len(pool)))
        rng.shuffle(picks)
        workdir.mkdir(parents=True, exist_ok=True)
        ops = []
        for k in picks:
            path = workdir / f"g{k:03d}.json"
            path.write_text(json.dumps(graphgen.relabel(pool[k], rng)))
            ops.append(Op(["classify", str(path)], 1,
                          ref["graphs"][k]["content"]))
        return ops
    max_vertices, orders, dedup, checks = VERIFY_SPECS[workload][tiny]
    checks = list(checks)
    rng.shuffle(checks)  # the CLI sorts them; the order must not matter
    argv = ["verify", "--max-vertices", str(max_vertices),
            "--orders", ",".join(map(str, orders)), "--checks", ",".join(checks)]
    if dedup:
        argv.append("--dedup")
    count = ref["verify_checked_graphs"][spec_key(max_vertices, orders, dedup)]
    return [Op(argv, count, count)]


def run_op(cli, op: Op) -> tuple:
    """(seconds, passed) for one ``cli.main`` call."""
    clear_caches()
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(op.argv)
        except (Exception, SystemExit):
            rc = None
            traceback.print_exc(file=err)
        seconds = time.perf_counter() - t0
    ok = op.passed(rc, out.getvalue())
    if not ok:
        print(f"FAILED op {' '.join(op.argv)} (exit {rc}): "
              f"{err.getvalue().strip()[-400:]}", file=sys.stderr)
    return seconds, ok


def calibrate() -> float:
    """Seconds this process takes, right now, for a fixed loop of the
    integer, bit and dict work silscope's own loops do (best of three)."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(CALIBRATION_LOOPS):
            m = (i * 2654435761) & 0xFFFF
            acc ^= m & -m
            table[m & 255] = acc
            acc += len(table)
        best = min(best, time.perf_counter() - t0)
    return best


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at reference host speed, judged by the calibration loop
    timed just before and just after."""
    return seconds * REFERENCE_CALIBRATION_S * 2 / (before + after)


def run_pass(cli, ops: list) -> tuple:
    """(wall seconds, scaled seconds, failed) over one pass of ``ops``."""
    wall, marks, failed = [], [calibrate()], 0
    for op in ops:
        seconds, ok = run_op(cli, op)
        wall.append(seconds)
        marks.append(calibrate())
        failed += not ok
    return (wall, [scaled(t, marks[i], marks[i + 1]) for i, t in enumerate(wall)],
            failed)


def nearest_rank(sorted_values: list, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def describe_population(ref: dict, tiny: bool) -> str:
    graphs = ref["graphs"][:TINY_POOL] if tiny else ref["graphs"]
    mix: dict = {}
    for g in graphs:
        mix[g["content"]["class"]] = mix.get(g["content"]["class"], 0) + 1
    ns = sorted(g["n"] for g in graphs)
    sils = sorted(g["content"]["evidence"]["coxeter_sils"]
                  + g["content"]["evidence"]["non_coxeter_sils"] for g in graphs)
    return (f"population: pool seed {ref['pool']['seed']}, {len(graphs)} graphs; "
            f"classes {json.dumps(dict(sorted(mix.items())))}; "
            f"n min/median/max {ns[0]}/{statistics.median(ns)}/{ns[-1]}; "
            f"Sils min/median/max {sils[0]}/{statistics.median(sils)}/{sils[-1]}")


def layer_metrics(tracer: Tracer, graphs: int, overhead: float) -> dict:
    totals = tracer.totals()

    def calls(span):
        return totals.get(span, (0, 0.0))[0]

    values = {}
    for span in COUNTED:
        values[f"{span}.calls"] = calls(span)
    for span in TIMED:
        values[f"{span}.self_s"] = totals.get(span, (0, 0.0))[1]
    values["sils.enumerate_sils.per_graph"] = calls("sils.enumerate_sils") / graphs
    searches = calls("words.search_inner")
    values["words.search_inner.hit_ratio"] = (
        tracer.hits["words.search_inner"] / searches if searches else 0.0)
    values["harness.enumerate_graphs.yielded"] = tracer.yielded["harness.enumerate_graphs"]
    for check_id in CHECK_IDS:
        span = f"harness.check.{check_id}"
        values[f"{span}.calls"] = calls(span)
        values[f"{span}.self_s"] = totals.get(span, (0, 0.0))[1]
    values["trace.overhead_ratio"] = overhead
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in per_layer_metrics()}


def run_workload(args) -> dict:
    ref = load_reference(args.reference)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    prov = provenance()
    print("provenance: " + json.dumps(prov))
    if args.workload == "classify_random":
        print(describe_population(ref, args.tiny))
    try:
        setup = []
        for _ in range(SETUP_REPEATS):
            before = calibrate()
            t0 = time.perf_counter()
            cli = import_silscope()
            ops = make_ops(args.workload, args.seed, args.tiny, ref, workdir)
            seconds = time.perf_counter() - t0
            setup.append(scaled(seconds, before, calibrate()))
        if args.trace:
            return traced_run(args, cli, ops, prov)
        return timed_run(args, cli, ops, statistics.median(setup))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def timed_run(args, cli, ops: list, setup_s: float) -> dict:
    """Whole passes over ``ops`` until the next would end after
    ``--seconds``; always at least one."""
    wall, latencies, pass_rates, failed = [], [], [], 0
    pass_graphs = sum(op.graphs for op in ops)
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        raw, lat, bad = run_pass(cli, ops)
        wall += raw
        latencies += lat
        pass_rates.append(pass_graphs / sum(lat))
        failed += bad
        now = time.perf_counter()
        if (now - start) + (now - t0) > args.seconds:
            break
    ordered = sorted(latencies)
    p90 = nearest_rank(ordered, 0.9)
    metrics = {
        "setup_s": setup_s,
        "graphs_per_s": statistics.median(pass_rates),
        "latency_p50_ms": 1000 * statistics.median(ordered),
        "latency_p90_ms": 1000 * p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    graphs = len(pass_rates) * pass_graphs
    print(f"latency samples: {len(ordered)} ops in {len(pass_rates)} passes, "
          f"{sum(v > p90 for v in ordered)} beyond p90")
    print(f"unscaled: {sum(wall):.6g} s wall for {graphs} graphs, "
          f"{graphs / sum(wall):.6g} graphs/s; times below are at reference "
          f"host speed")
    print(f"failed_ratio: {failed / len(latencies):.6g} fraction "
          f"({failed} of {len(latencies)} ops)")
    for name, unit in END_TO_END + PRINTED_ONLY:
        print(f"{name}: {metrics[name]:.6g} {unit}")
    return {"correct": failed == 0, "attempted": len(latencies), "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in END_TO_END}}


def traced_run(args, cli, ops: list, prov: dict) -> dict:
    plain, _, failed_plain = run_pass(cli, ops)
    tracer = Tracer()
    tracer.install(TRACED)
    try:
        traced, _, failed_traced = run_pass(cli, ops)
    finally:
        tracer.uninstall()
    overhead = sum(traced) / sum(plain)
    metrics = layer_metrics(tracer, sum(op.graphs for op in ops), overhead)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{args.workload}-seed{args.seed}",
                 {"workload": args.workload, "seed": args.seed,
                  "provenance": prov, "metrics": metrics})
    failed = failed_plain + failed_traced
    attempted = 2 * len(ops)
    print(f"spans: {len(tracer.name_id)} written to "
          f"{OUT.name}/{args.workload}-seed{args.seed}.spans.*")
    print(f"failed_ratio: {failed / attempted:.6g} fraction "
          f"({failed} of {attempted} ops)")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in a child process of its own; metrics are keyed
    ``<workload>.<metric>``."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--reference", str(args.reference)] + (["--tiny"] if args.tiny else [])
        print(f"== {workload}", flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {workload} exited {proc.returncode}")
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = m
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json",
                        help="expected outputs (default: perfbench/reference.json)")
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: 3 graphs, or a 3- or 4-vertex spec")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "silscope").is_dir():
        print(f"error: no silscope package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # The oracle depth must be the CLI default, whatever the environment says.
    os.environ.pop("SILSCOPE_ORACLE_DEPTH", None)
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
