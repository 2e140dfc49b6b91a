"""The byte-identity gate of tools/digest_gate.py: which tasks moved, and
whether the expected-changes list declares exactly those."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import digest_gate  # noqa: E402

BASE = """checks/verify-helical-0 aaa 0
orbits/simulate-monopole-rk45 bbb 0
spectra/spectrum-landau ccc 0
"""


def test_parse_keeps_the_digest_and_exit_code_per_task():
    assert digest_gate.parse_digests(BASE + "\n") == {
        "checks/verify-helical-0": "aaa 0",
        "orbits/simulate-monopole-rk45": "bbb 0",
        "spectra/spectrum-landau": "ccc 0",
    }


def test_a_new_digest_an_exit_code_and_a_lone_task_count_as_moves():
    base = digest_gate.parse_digests(BASE)
    assert digest_gate.moved_tasks(base, dict(base)) == set()
    change = dict(base, **{"checks/verify-helical-0": "abc 0",
                           "spectra/spectrum-landau": "ccc 1",
                           "spectra/spectrum-new": "ddd 0"})
    del change["orbits/simulate-monopole-rk45"]
    assert digest_gate.moved_tasks(base, change) == {
        "checks/verify-helical-0", "spectra/spectrum-landau", "spectra/spectrum-new",
        "orbits/simulate-monopole-rk45"}


def test_the_list_must_name_exactly_the_moved_tasks():
    listed = digest_gate.read_expected("# header\n\nchecks/verify-helical-0  # the %.16g change\n")
    assert listed == {"checks/verify-helical-0"}
    # a gate of one workload expects only that workload's listed tasks to move
    both = "checks/verify-helical-0\norbits/simulate-monopole-rk45\n"
    assert digest_gate.read_expected(both, "orbits") == {"orbits/simulate-monopole-rk45"}
    assert digest_gate.read_expected(both, "spectra") == set()
    assert digest_gate.problems({"checks/verify-helical-0"}, listed) == []
    assert digest_gate.problems(set(), set()) == []
    moved = {"checks/verify-helical-0", "spectra/spectrum-landau"}
    undeclared = digest_gate.problems(moved, listed)
    assert len(undeclared) == 1 and undeclared[0].startswith("spectra/spectrum-landau: its ")
    unmoved = digest_gate.problems(set(), listed)
    assert len(unmoved) == 1 and "did not change" in unmoved[0]
