"""Gate on the bytes of the benchmark artifacts against a base checkout.

Usage, from the root of a checkout:

    python3 tools/digest_gate.py BASE [--seeds 7 1061] [--size tiny] [--workload W]

BASE is another checkout of the repository at the commit the change is
measured against (in CI, a ``git worktree`` of the base commit). The
gate runs ``tools/artifact_digests.py`` of each checkout, on that
checkout's own ``bench/`` and ``src/``, at every seed (for the one
workload W if given, else for all), and compares the two outputs per
``workload/task``. A task has moved when its digest or
exit code differs at some seed, or when only one side has it.

A change that means to move bits lists the moved tasks, one
``workload/task`` per line, in ``tools/expected_digest_changes.txt``
(``#`` starts a comment); the next change empties the list. With
--workload, listed tasks of other workloads are not expected to move. The exit
status is 1 when a task moved that the list does not name, when a
listed task did not move, or when a digest run failed.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "tools" / "expected_digest_changes.txt"


def parse_digests(text: str) -> dict[str, str]:
    """{workload/task: "sha256 rc"} of the output of artifact_digests.py."""
    out = {}
    for line in text.splitlines():
        name, _, rest = line.partition(" ")
        if rest:
            out[name] = rest
    return out


def digests(checkout: Path, seed: int, size: str, workload: str | None = None) -> dict[str, str]:
    """The digests of one checkout's benchmark tasks (of one workload, if
    named), run by its own tool."""
    tool = checkout / "tools" / "artifact_digests.py"
    if not tool.is_file():
        raise SystemExit(f"digest gate: {checkout} has no tools/artifact_digests.py")
    only = ["--workload", workload] if workload else []
    run = subprocess.run([sys.executable, str(tool), "--seed", str(seed), "--size", size, *only],
                         cwd=checkout, capture_output=True, text=True)
    if run.returncode != 0:
        raise SystemExit(f"digest gate: the digests of {checkout} at seed {seed} failed:\n"
                         f"{run.stdout}{run.stderr}")
    return parse_digests(run.stdout)


def moved_tasks(base: dict[str, str], change: dict[str, str]) -> set[str]:
    """Tasks whose digest line differs, or that one side lacks."""
    return {name for name in base.keys() | change.keys() if base.get(name) != change.get(name)}


def read_expected(text: str, workload: str | None = None) -> set[str]:
    """The task names of the expected-changes list, without comments; only
    those of `workload` if given."""
    names = {line.split("#", 1)[0].strip() for line in text.splitlines()} - {""}
    return {name for name in names if workload is None or name.startswith(f"{workload}/")}


def problems(moved: set[str], expected: set[str]) -> list[str]:
    """Why the gate fails: moves that are not declared, declarations
    that did not move."""
    return ([f"{name}: its artifact bytes changed, but {EXPECTED.name} does not list it"
             for name in sorted(moved - expected)]
            + [f"{name}: listed in {EXPECTED.name}, but its artifact bytes did not change"
               for name in sorted(expected - moved)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout of the base commit")
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 1061])
    parser.add_argument("--size", choices=("tiny", "full"), default="tiny")
    parser.add_argument("--workload", help="gate only this workload's tasks")
    args = parser.parse_args(argv)
    moved: set[str] = set()
    for seed in args.seeds:
        base, change = (digests(checkout, seed, args.size, args.workload)
                        for checkout in (args.base.resolve(), ROOT))
        now = moved_tasks(base, change)
        print(f"seed {seed}: {len(change)} tasks, {len(now)} moved"
              + "".join(f"\n  {name}" for name in sorted(now)))
        moved |= now
    found = problems(moved, read_expected(EXPECTED.read_text(), args.workload))
    for line in found:
        print(f"digest gate: {line}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
