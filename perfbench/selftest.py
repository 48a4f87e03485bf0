"""Self-test of the benchmark; exits 0 when every assertion holds.

    python3 perfbench/selftest.py

Runs each workload at its ``--tiny`` size, untraced and traced, and checks
that the result line carries exactly the metrics named in BENCHMARK.json,
each with its unit, and that every metric is also printed by name with its
unit.  Then it feeds a deliberately corrupted reference and checks that
every workload reports failed ops, so the correctness gate can fail.
Finally it runs the benchmark from a directory that holds only
BENCHMARK.json and perfbench/, where it must exit non-zero without a
result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

# A span of the layer each workload is built to load; the traced run must
# have seen calls to it, or the wrappers are not in place.
MAIN_LAYER = {
    "classify_random": "sils.enumerate_stils.calls",
    "verify_dedup": "harness.enumerate_graphs.yielded",
    "verify_labelled": "harness.check.lemma_2_2.calls",
    "verify_oracle": "words.search_inner.calls",
}


def bench(cwd: Path, *args: str) -> tuple:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    return proc.returncode, lines, proc.stderr


def result_of(lines: list) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def check_metrics(result: dict, lines: list, declared: list) -> None:
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, sorted(set(got) ^ set(expected))
    for name, unit in expected.items():
        assert any(line.startswith(f"{name}: ") and line.endswith(f" {unit}")
                   for line in lines), f"{name} not printed with unit {unit}"
    assert any(line.startswith("failed_ratio: ") and " fraction " in line
               for line in lines), "failed_ratio not printed"


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] \
        == run.per_layer_metrics()
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] \
        == list(run.END_TO_END)

    for workload in run.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            rc, lines, err = bench(ROOT, "--workload", workload, "--seed", "3",
                                   "--seconds", "1", "--trace", str(trace),
                                   "--tiny")
            assert rc == 0, err
            result = result_of(lines)
            assert result["correct"] and result["failed"] == 0, (workload, err)
            check_metrics(result, lines, declared[kind])
            if trace:
                assert result["metrics"][MAIN_LAYER[workload]]["value"] > 0
            else:
                assert any(line.startswith("latency_p90_ms: ")
                           and line.endswith(" ms") for line in lines)
            print(f"ok {workload} trace={trace}")

    ref = json.loads((HERE / "reference.json").read_text())
    for g in ref["graphs"]:
        g["content"]["class"] = "Corrupted"
    for key in ref["verify_checked_graphs"]:
        ref["verify_checked_graphs"][key] += 1
    corrupt = run.WORK / "corrupt-reference.json"
    corrupt.parent.mkdir(exist_ok=True)
    corrupt.write_text(json.dumps(ref))
    try:
        for workload in run.WORKLOADS:
            rc, lines, err = bench(ROOT, "--workload", workload, "--seed", "3",
                                   "--seconds", "1", "--trace", "0", "--tiny",
                                   "--reference", str(corrupt))
            assert rc == 0, err
            result = result_of(lines)
            assert not result["correct"] and result["failed"] > 0, workload
            print(f"ok {workload} fails against a corrupted reference "
                  f"(failed_ratio {result['failed'] / result['attempted']:g})")
    finally:
        corrupt.unlink()

    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        rc, lines, _ = bench(bare, "--workload", "verify_oracle", "--seed", "1",
                             "--seconds", "1", "--trace", "0")
        assert rc != 0 and not any(line.startswith("{") for line in lines)
        print("ok refuses to run without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
