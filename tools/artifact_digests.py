"""Digests of every benchmark artifact, one line per task.

Usage, from the root of a checkout:

    python3 tools/artifact_digests.py --seed S --size full|tiny [--workload W]

Generates the tasks of each workload (all three unless --workload names
one) from the seed as ``bench/run.py`` does, runs them once, and prints
``workload/task sha256 rc`` per task. The digest is the benchmark's own:
sha256 of the artifact bytes, a NUL byte and the captured stdout. Two
checkouts give the same artifacts exactly when their outputs are equal,
so ``diff`` of the two outputs checks that a change keeps every artifact
byte-identical. Files are written only to a temporary directory. The
exit status is 1 when a task crashed or ended with an unexpected code.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import run  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), required=True)
    parser.add_argument("--workload", choices=tuple(workloads.GENERATORS))
    args = parser.parse_args(argv)
    failed = False
    for workload in [args.workload] if args.workload else list(workloads.GENERATORS):
        ms, tasks = run.setup_inputs(workload, args.seed, args.size)
        with tempfile.TemporaryDirectory() as tmp:
            rec = run.Runner(ms, tasks, Path(tmp)).run_pass(keep=True)
        for task in tasks:
            art = rec.artifacts.get(task.name)
            print(f"{workload}/{task.name} {rec.digests[task.name]} "
                  f"{art.rc if art else None}")
        for name, message in rec.errors.items():
            print(f"{workload}/{name}: {message}", file=sys.stderr)
        failed = failed or bool(rec.errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
