"""Self-test of the benchmark at a tiny size.

Run from the root of a checkout (a few minutes):

    python3 bench/selftest.py

It checks that every workload runs with no failed task; that the last
line carries every BENCHMARK.json metric with its unit, untraced and
traced; that the report line carries every metric the benchmark
defines; that exact counts repeat across two traced runs of one seed;
that a corrupted artifact, in the warm-up pass and in a later pass, is
counted as a failure; and that a directory holding only the benchmark
exits non-zero without a result. Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 7
E2E_ALWAYS = ("setup_s", "setup_wall_s", "pass_s", "pass_wall_s", "fail_share", "peak_rss_mb")
LAYER_NAMES = set(Tracer().snapshot()) | {"cli.output_bytes", "trace.overhead_share"}


def fail(message: str) -> None:
    print(f"selftest: FAIL: {message}")
    sys.exit(1)


def bench(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def parse(proc, what: str):
    if proc.returncode != 0:
        fail(f"{what} exited {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{what}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        fail(f"{what}: failures {report['failures'][:3]}")
    return result, report


def check_units(metrics: dict, spec: list, what: str) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in metrics.items()}
    if got != want:
        fail(f"{what}: metrics {got} differ from BENCHMARK.json {want}")
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)):
            fail(f"{what}: {name} is not a number")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in workloads.GROUPS:
        result, report = parse(bench(workload, 0), f"{workload} untraced")
        check_units(result["metrics"], spec["end_to_end"], workload)
        want = set(E2E_ALWAYS) | set(workloads.GROUPS[workload])
        if set(report["end_to_end"]) != want:
            fail(f"{workload}: report end-to-end {sorted(report['end_to_end'])}")
        if any("unit" not in v or "n" not in v for v in report["end_to_end"].values()):
            fail(f"{workload}: a report metric lacks its unit or sample count")

        counts = []
        for _ in range(2):
            result, report = parse(bench(workload, 1), f"{workload} traced")
            check_units(result["metrics"], spec["per_layer"], f"{workload} traced")
            if set(report["per_layer"]) != LAYER_NAMES:
                fail(f"{workload}: report per-layer {sorted(report['per_layer'])}")
            counts.append({k: v["value"] for k, v in report["per_layer"].items()
                           if v["unit"] in ("count", "bytes")})
        if counts[0] != counts[1]:
            diff = {k for k in counts[0] if counts[0][k] != counts[1][k]}
            fail(f"{workload}: exact counts differ across runs: {sorted(diff)}")
        print(f"selftest: {workload} ok")

        for corrupt in ((0, 0), (1, len(workloads.generate(workload, SEED, "tiny")) - 1)):
            result, _ = run.run_workload(workload, SEED, 0.1, False, "tiny",
                                         corrupt=corrupt, probes=1)
            if result["correct"] or result["failed"] < 1:
                fail(f"{workload}: corrupted artifact at pass {corrupt[0]} not counted")
        print(f"selftest: {workload} corrupted artifacts counted as failures")

    empty = run.RUN_DIR / "selftest-empty"
    shutil.rmtree(empty, ignore_errors=True)
    (empty / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", empty)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, empty / "bench")
    proc = bench("checks", 0, cwd=empty)
    shutil.rmtree(empty, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("a directory without the program did not fail cleanly")
    print("selftest: benchmark-only directory exits non-zero without a result")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
