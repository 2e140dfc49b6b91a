"""Benchmark of the magsuper CLI and library, one workload per run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload checks|orbits|spectra --seed N \
        --seconds S --trace 0|1

The run imports ``magsuper`` from ``src/`` of the checkout, generates
the workload's inputs from the seed, and repeats passes over the task
list until S seconds of passes are measured (at least two). A warm-up
pass comes first and is excluded from the pass metrics; its artifacts
are judged by the oracles, and every later pass must reproduce them
byte for byte. ``setup_s`` is the median time of several fresh
interpreters that import ``magsuper.cli`` and generate and validate the
inputs (``bench/probe.py``).

Every timed interval (a task, a set-up probe) is bracketed by a fixed
calibration kernel and reported scaled to the kernel's reference speed
(``calibrate``), because the speed of a core on a shared host drifts by
up to a factor of two within a minute. The unscaled wall times are in
the report as ``pass_wall_s`` and ``setup_wall_s``.

With ``--trace 0`` the last line of stdout carries the end-to-end
metrics; with ``--trace 1`` half of the time runs untraced and half with
the outside-in tracer (``bench/tracer.py``), and the last line carries
the per-layer metrics. The line before it is a full report: every
metric with unit and sample count, the command metrics, ``fail_share``,
the failures found, and the machine and version provenance. No tail
percentile is reported: a run has fewer than ten passes beyond any of
them. Spans of a traced run are written to ``.bench_run/traces/``.

The run is a single process without worker threads; the BLAS and OpenMP
pools are pinned to one thread before numpy loads.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.integrate import solve_ivp  # noqa: E402
from scipy.linalg import eigh_tridiagonal  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

SETUP_PROBES = 7
MIN_PASSES = 2
# Time of `calibrate()` on an idle core of a 2-core Xeon VM; reported
# times are scaled to this speed (see `calibrate`).
CAL_REF_S = 0.08
# tasks shorter than this share one calibration interval
CAL_INTERVAL_S = 0.3


class BenchError(Exception):
    """The benchmark cannot run here (no program, bad inputs, failed probe)."""


def import_program():
    """Import magsuper.cli from the checkout's src/, never from elsewhere."""
    if not (SRC / "magsuper" / "__init__.py").is_file():
        raise BenchError(f"no magsuper package under {SRC}")
    sys.path.insert(0, str(SRC))
    import magsuper
    import magsuper.cli

    if Path(magsuper.__file__).resolve().parent != (SRC / "magsuper").resolve():
        raise BenchError(f"magsuper was imported from {magsuper.__file__}")
    return magsuper


def setup_inputs(workload: str, seed: int, size: str):
    """Import the program, then generate and validate the workload inputs."""
    ms = import_program()
    tasks = workloads.generate(workload, seed, size)
    workloads.validate(tasks, ms.cli.validate_config)
    return ms, tasks


def calibrate() -> float:
    """Wall time of a fixed CPU kernel that does not use magsuper.

    On a shared host the speed of a core drifts by up to a factor of two
    within a minute, while the time never counts as stolen and the
    process CPU time equals its wall time. Timing this kernel right
    before and after each measured interval and scaling the interval by
    CAL_REF_S / (kernel time) removes most of that drift: the scaled
    value is the interval's time at the core's reference speed. The
    kernel mixes what the program does, with a code footprint as broad:
    JSON and regular expressions, exact fractions, float formatting and
    sorting, small numpy arrays driven from Python, a scipy RK45 solve
    with a Python right-hand side, a sweep over a 16 MB array and a few
    eigenvalues of a large tridiagonal matrix. Contention from a
    neighbouring core slows code with a small footprint less than this
    program, so a narrow kernel would under-correct.
    """
    t0 = perf_counter()
    doc = {f"k{i}": [i * 0.5, str(i), {"x": [1.0, 2.0, i]}] for i in range(600)}
    text = json.dumps(doc, sort_keys=True)
    acc = float(len(json.loads(text)))
    acc += sum(int(m.group(1)) for m in re.finditer(r'"k(\d+)"', text))
    acc += float(sum(Fraction(i, i + 1) for i in range(1, 80)))
    rows = sorted((math.sin(i), "%.17g" % math.cos(i)) for i in range(2000))
    axis = np.array([1.0, 0.0, 0.0])
    v = np.array([0.3, -0.2, 0.7])
    for i in range(500):
        u = np.cross(v, np.array([0.0, 1e-3 * i, 1.0]))
        v = u / np.linalg.norm(u)
        v = v + 1e-9 * float(np.concatenate([v, u]) @ np.concatenate([v, u]))

    def rhs(_t, y):
        return np.concatenate([y[3:], -np.cross(y[3:], axis) - 0.1 * y[:3]])

    solve_ivp(rhs, (0.0, 2.0), [0.1, 0.2, 0.3, 0.5, -0.2, 0.4], rtol=1e-10, atol=1e-10)
    sweep = np.arange(2_000_000.0)
    sweep *= 1.000001
    diag = 2.0 + np.cos(np.arange(15000.0))
    low = eigh_tridiagonal(diag, np.full(14999, -1.0), select="i", select_range=(0, 3),
                           eigvals_only=True)
    acc += len(rows) + float(v[0]) + float(sweep.sum()) + float(low[0])
    return perf_counter() - t0


def scaled(seconds: float, cal_before: float, cal_after: float) -> float:
    """An interval's wall time at the reference core speed."""
    return seconds * CAL_REF_S / (0.5 * (cal_before + cal_after))


def measure_setup(workload: str, seed: int, size: str, probes: int):
    """Wall and scaled times of fresh interpreters running the set-up."""
    cmd = [sys.executable, str(BENCH / "probe.py"), "--workload", workload,
           "--seed", str(seed), "--size", size]
    wall, norm = [], []
    cal = calibrate()
    for _ in range(probes):
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=os.environ.copy(), capture_output=True,
                              text=True, timeout=120)
        wall.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        cal_next = calibrate()
        norm.append(scaled(wall[-1], cal, cal_next))
        cal = cal_next
    return wall, norm


# ---------------------------------------------------------------------------
# passes


@dataclass
class PassRecord:
    times: dict = field(default_factory=dict)      # task name -> scaled seconds
    wall: dict = field(default_factory=dict)       # task name -> wall seconds
    digests: dict = field(default_factory=dict)    # task name -> sha256
    artifacts: dict = field(default_factory=dict)  # kept for the warm-up only
    errors: dict = field(default_factory=dict)     # task name -> message
    out_bytes: int = 0
    layers: dict | None = None                     # traced passes only


class Runner:
    """Runs the tasks of one workload in this process."""

    def __init__(self, ms, tasks, workdir: Path, corrupt=None):
        self.ms = ms
        self.tasks = tasks
        self.corrupt = corrupt  # (pass index, task index) to damage, for the self-test
        self.passes = 0
        workdir.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        for task in tasks:
            cfg_path = workdir / f"{task.name}.json"
            if task.config is not None:
                cfg_path.write_text(json.dumps(task.config), encoding="utf-8")
            self.paths[task.name] = (str(cfg_path), str(workdir / f"{task.name}.out"))

    def _argv(self, task):
        cfg, out = self.paths[task.name]
        return [cfg if a == "{config}" else out if a == "{out}" else a for a in task.argv]

    def run_pass(self, tracer=None, keep: bool = False) -> PassRecord:
        rec = PassRecord()
        gc.collect()
        cal, pending, since = calibrate(), [], 0.0
        for index, task in enumerate(self.tasks):
            out_path = Path(self.paths[task.name][1])
            out_path.unlink(missing_ok=True)
            stdout, stderr = io.StringIO(), io.StringIO()
            rc, data = None, b""
            layer = "task" if task.call is not None else "cli"
            span = tracer.task(task.name, layer) if tracer else contextlib.nullcontext()
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    with span:
                        if task.call is not None:
                            data = task.call(self.ms)
                            rc = 0
                        else:
                            rc = self.ms.cli.main(self._argv(task))
                    rec.wall[task.name] = perf_counter() - t0
            except Exception as exc:  # a crashing task is a failed task
                rec.wall[task.name] = perf_counter() - t0
                rec.errors[task.name] = f"{type(exc).__name__}: {exc}"
            pending.append(task.name)
            since += rec.wall[task.name]
            if since >= CAL_INTERVAL_S or index == len(self.tasks) - 1:
                cal_next = calibrate()
                for name in pending:
                    rec.times[name] = scaled(rec.wall[name], cal, cal_next)
                cal, pending, since = cal_next, [], 0.0
            if task.call is None and out_path.exists():
                data = out_path.read_bytes()
            out = stdout.getvalue().encode("utf-8")
            if self.corrupt == (self.passes, index) and data:
                mid = len(data) // 2
                data = data[:mid] + bytes([data[mid] ^ 0x01]) + data[mid + 1:]
            rec.out_bytes += len(data) + len(out)
            rec.digests[task.name] = hashlib.sha256(data + b"\0" + out).hexdigest()
            if keep:
                rec.artifacts[task.name] = workloads.Artifact(data, out, rc)
            if rc != task.expect_rc and task.name not in rec.errors:
                msg = stderr.getvalue().strip()[-300:]
                rec.errors[task.name] = f"exit code {rc}, expected {task.expect_rc} {msg}"
        self.passes += 1
        return rec


def measure(runner, budget: float, tracer=None) -> list[PassRecord]:
    """Passes until `budget` seconds have elapsed, at least MIN_PASSES."""
    out = []
    start = perf_counter()
    while len(out) < MIN_PASSES or perf_counter() - start < budget:
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            rec = runner.run_pass(tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            # layer times get their pass's calibration scale, like task times
            scale = sum(rec.times.values()) / sum(rec.wall.values())
            rec.layers = {name: (value * scale if unit in ("s", "us") else value, unit)
                          for name, (value, unit) in tracer.snapshot().items()}
        out.append(rec)
    return out


# ---------------------------------------------------------------------------
# metrics


def _median(values) -> float:
    return float(statistics.median(values))


def _timing(values, unit: str = "s") -> dict:
    return {"value": _median(values), "unit": unit, "n": len(values),
            "samples": [float(v) for v in values]}


def judge(tasks, warm: PassRecord, passes: list[PassRecord]):
    """Count attempted and failed task runs over every pass, warm-up included."""
    verdicts = {t.name: t.check(warm.artifacts[t.name]) for t in tasks}
    attempted = failed = 0
    failures = []
    for index, rec in enumerate([warm] + passes):
        for task in tasks:
            attempted += 1
            reasons = list(verdicts[task.name])
            if task.name in rec.errors:
                reasons.append(rec.errors[task.name])
            if rec.digests[task.name] != warm.digests[task.name]:
                reasons.append("artifact differs from the warm-up pass")
            if reasons:
                failed += 1
                failures.append({"pass": index, "task": task.name, "reasons": reasons})
    return attempted, failed, failures


def command_metrics(workload: str, tasks, passes: list[PassRecord]) -> dict:
    out = {}
    for group in workloads.GROUPS[workload]:
        names = [t.name for t in tasks if t.group == group]
        out[group] = _timing([sum(rec.times[n] for n in names) for rec in passes])
    return out


def layer_metrics(passes: list[PassRecord]) -> tuple[dict, list]:
    """Medians of per-pass layer values; counts must repeat exactly."""
    out, unsteady = {}, []
    for name, (value, unit) in passes[0].layers.items():
        values = [rec.layers[name][0] for rec in passes]
        if unit == "count":
            if len(set(values)) != 1:
                unsteady.append(name)
            out[name] = {"value": values[0], "unit": unit, "n": len(values)}
        else:
            out[name] = _timing(values, unit)
    sizes = {rec.out_bytes for rec in passes}
    if len(sizes) != 1:
        unsteady.append("cli.output_bytes")
    out["cli.output_bytes"] = {"value": passes[0].out_bytes, "unit": "bytes", "n": len(passes)}
    return out, unsteady


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def provenance(seed: int, workload: str, size: str) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    threads = None
    with contextlib.suppress(OSError):
        threads = len(os.listdir("/proc/self/task"))
    return {
        "workload": workload, "seed": seed, "size": size, "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "git_commit": _git_commit(), "os_threads": threads,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


# ---------------------------------------------------------------------------
# one run


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", corrupt=None, probes: int = SETUP_PROBES):
    """Run one workload; returns (contract result line, full report)."""
    ms, tasks = setup_inputs(workload, seed, size)
    setup_wall, setup = measure_setup(workload, seed, size, probes)
    workdir = RUN_DIR / f"{workload}-seed{seed}-pid{os.getpid()}"
    try:
        runner = Runner(ms, tasks, workdir, corrupt)
        warm = runner.run_pass(keep=True)
        if trace:
            plain = measure(runner, seconds / 2)
            tracer = Tracer()
            traced = measure(runner, seconds / 2, tracer)
            passes = plain + traced
        else:
            plain = measure(runner, seconds)
            passes = plain
        attempted, failed, failures = judge(tasks, warm, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = {
        "setup_s": _timing(setup),
        "setup_wall_s": _timing(setup_wall),
        "pass_s": _timing([sum(rec.times.values()) for rec in plain]),
        "pass_wall_s": _timing([sum(rec.wall.values()) for rec in plain]),
        "fail_share": {"value": failed / attempted, "unit": "ratio", "n": attempted},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB", "n": 1},
    }
    e2e.update(command_metrics(workload, tasks, plain))
    report = {"provenance": provenance(seed, workload, size), "end_to_end": e2e,
              "task_s": {t.name: _timing([rec.times[t.name] for rec in plain])
                         for t in tasks},
              "tasks": len(tasks), "warmup_passes": 1, "measured_passes": len(plain),
              "failures": failures[:20]}
    unsteady = []
    if trace:
        layers, unsteady = layer_metrics(traced)
        traced_pass = _median([sum(rec.times.values()) for rec in traced])
        layers["trace.overhead_share"] = {
            "value": traced_pass / e2e["pass_s"]["value"] - 1.0, "unit": "ratio",
            "n": len(traced)}
        report["per_layer"] = layers
        report["traced_passes"] = len(traced)
        report["unsteady_counts"] = unsteady
        trace_dir = RUN_DIR / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(trace_dir / f"{workload}-seed{seed}-pid{os.getpid()}.json",
                    {"provenance": report["provenance"], "per_layer": layers})
        chosen = {k: layers[k] for k in contract_metrics("per_layer")}
    else:
        chosen = {k: e2e[k] for k in contract_metrics("end_to_end")}
    result = {
        "correct": failed == 0 and not unsteady,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in chosen.items()},
    }
    return result, report


def contract_metrics(kind: str) -> list[str]:
    """Names of the `end_to_end` or `per_layer` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec[kind]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="task sizes; tiny is for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        result, report = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace), args.size)
    except (BenchError, ImportError, OSError, ValueError,
            subprocess.TimeoutExpired) as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
