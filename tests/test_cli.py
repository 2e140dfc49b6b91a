"""End-to-end command-line checks, run in process through cli.main."""

import filecmp
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import magsuper as ms
from magsuper import cli


def _write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def _sim_cfg(tmp_path, system, x, p, t_end=5.0, name="cfg.json", **extra):
    cfg = {"system": system, "state0": {"x": x, "p": p}, "t_end": t_end}
    cfg.update(extra)
    return _write_cfg(tmp_path, name, cfg)


def _read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").strip().split("\n")
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, data


def test_simulate_constant_b_columns(tmp_path):
    cfg = _sim_cfg(tmp_path, {"model": "constant_b", "B": 1.0},
                   [0.0, 0.0, 0.0], [1.0, 0.5, 0.25])
    out = str(tmp_path / "traj.csv")
    assert cli.main(["simulate", "--config", cfg, "--out", out]) == 0
    header, data = _read_csv(out)
    assert header == ["t", "x", "y", "z", "p1", "p2", "p3", "H",
                      "X1", "X2", "X3", "X4", "X5"]
    assert data.shape[1] == len(header)
    assert data[0, 0] == 0.0 and data[-1, 0] == pytest.approx(5.0)
    # energy and the watched integrals stay put
    for col in range(7, 13):
        assert np.max(np.abs(data[:, col] - data[0, col])) < 1e-8


def test_simulate_without_p1_drops_x5(tmp_path):
    cfg = _sim_cfg(tmp_path, {"model": "constant_b", "B": 1.0},
                   [0.0, 0.0, 0.0], [0.0, 0.5, 0.25])
    out = str(tmp_path / "traj.csv")
    assert cli.main(["simulate", "--config", cfg, "--out", out]) == 0
    header, _ = _read_csv(out)
    assert header[-1] == "X4" and "X5" not in header


def test_trajectory_closed_form_constant_b(tmp_path):
    cfg = _sim_cfg(tmp_path, {"model": "constant_b", "B": 2.0},
                   [0.1, -0.2, 0.3], [0.7, 0.4, -0.5], t_end=10.0)
    out = str(tmp_path / "traj.csv")
    assert cli.main(["trajectory", "--config", cfg, "--closed-form",
                     "--out", out]) == 0
    header, data = _read_csv(out)
    assert header[-1] == "closed_form_error"
    assert np.max(data[:, -1]) < 1e-6


def test_trajectory_closed_form_helical(tmp_path):
    cfg = _sim_cfg(tmp_path, {"model": "helical", "A_amp": 1.0, "beta": 1.0},
                   [0.0, 0.0, 0.3], [2.0, 1.5, 0.8], t_end=10.0)
    out = str(tmp_path / "traj.csv")
    assert cli.main(["trajectory", "--config", cfg, "--closed-form",
                     "--out", out]) == 0
    _, data = _read_csv(out)
    assert np.max(data[:, -1]) < 1e-5


def test_trajectory_closed_form_monopole_rejected(tmp_path, capsys):
    cfg = _sim_cfg(tmp_path, {"model": "monopole", "g": 2.0, "Q": 1.0},
                   [1.2, 0.0, 0.4], [0.1, 0.9, 0.3], t_end=2.0)
    assert cli.main(["trajectory", "--config", cfg, "--closed-form"]) == 1
    assert "closed-form" in capsys.readouterr().err


def test_simulate_json_format(tmp_path, capsys):
    cfg = _sim_cfg(tmp_path, {"model": "monopole", "g": 2.0, "Q": 1.0},
                   [1.2, 0.0, 0.4], [0.1, 0.9, 0.3], t_end=2.0)
    assert cli.main(["simulate", "--config", cfg, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["columns"][:8] == ["t", "x", "y", "z", "p1", "p2", "p3", "H"]
    assert set(doc["columns"][8:]) == {"X1", "X2", "X3", "X_sq",
                                       "R1", "R2", "R3"}
    assert len(doc["rows"][0]) == len(doc["columns"])


def test_verify_systems_pass(capsys):
    for system in ("constant_b", "helical", "monopole"):
        assert cli.main(["verify", "--system", system]) == 0, system
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is True
        assert doc["max_residual_by_integral"]
        assert set(doc["max_residual_by_equation"]) == {
            "ds1_dx", "ds2_dy", "ds3_dz", "ds1_dy+ds2_dx", "ds1_dz+ds3_dx",
            "ds3_dy+ds2_dz", "dm_dx", "dm_dy", "dm_dz", "zero_order"}
        k = len(doc["integrals"])
        assert len(doc["bracket_matrix"]) == k
        assert all(len(row) == k for row in doc["bracket_matrix"])


def test_verify_coulomb_only_fails(capsys):
    code = cli.main(["verify", "--system", "monopole",
                     "--potential", "coulomb-only"])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False
    # the angular integrals survive; the Runge-Lenz candidates do not
    assert doc["max_residual_by_integral"]["X1"] < 1e-6
    assert doc["max_residual_by_integral"]["R1"] > 1e-3


def test_verify_quantum_mode(capsys):
    for system in ("constant_b", "monopole"):
        assert cli.main(["verify", "--system", system,
                         "--mode", "quantum", "--n-points", "40"]) == 0, system
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "quantum" and doc["pass"] is True


def test_verify_quantum_mode_uses_the_config_hbar(tmp_path):
    # the hbar^2/4 correction of the zero-order residual, at the config's hbar
    spec = _write_cfg(tmp_path, "spec.json", {"integrals": [{"name": "q", "alpha": {"16": 1.0}}]})
    system = {"model": "monopole", "g": 2.0, "Q": 1.0}
    model = ms.model_from_config(system)
    xs = cli._sample_positions(cli._rng(7), 30, model)
    worst = {}
    for hbar in (0.5, 3.0):
        cfg = _write_cfg(tmp_path, "cfg.json", {"system": system, "n_points": 30, "hbar": hbar})
        out = tmp_path / "verify.json"
        assert cli.main(["verify", "--config", cfg, "--mode", "quantum", "--spec", spec,
                         "--seed", "7", "--out", str(out)]) == 2
        doc = json.loads(out.read_text(encoding="utf-8"))
        res = ms.determining_residuals(ms.IntegralSpec("q", {"16": 1.0}), model, xs,
                                       mode="quantum", hbar=hbar)
        worst[hbar] = doc["max_residual_by_equation"]["zero_order"]
        assert worst[hbar] == float(np.max(np.abs(res["zero_order"])))
    assert worst[3.0] > worst[0.5]


def test_verify_spec_file_flows(tmp_path, capsys):
    good = _write_cfg(tmp_path, "good.json", {"integrals": [{"known": "X2"}]})
    assert cli.main(["verify", "--system", "constant_b", "--spec", good]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["integrals"] == ["X2"]

    bad_name = _write_cfg(tmp_path, "bad.json", {"integrals": [{"known": "X9"}]})
    assert cli.main(["verify", "--system", "constant_b",
                     "--spec", bad_name]) == 1
    assert "unknown integral" in capsys.readouterr().err

    # p3 alone is not conserved in a transverse field, so this must fail
    cand = _write_cfg(tmp_path, "cand.json", {"integrals": [
        {"name": "p3_guess", "s": [0.0, 0.0, 1.0], "m": 0.0}]})
    assert cli.main(["verify", "--system", "constant_b", "--spec", cand]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False
    assert doc["max_residual_by_integral"]["p3_guess"] > 1e-3


def test_verify_brackets_with_h_use_exact_gradients(capsys):
    for system in ("constant_b", "helical", "monopole"):
        assert cli.main(["verify", "--system", system]) == 0, system
        doc = json.loads(capsys.readouterr().out)
        assert max(doc["bracket_with_h"].values()) <= 1e-12, system


def test_algebra_reports(capsys):
    assert cli.main(["algebra", "--system", "constant_b"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True and len(doc["pairs"]) == 21
    assert doc["casimirs"]["first"] < 1e-10

    assert cli.main(["algebra", "--system", "monopole"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True and len(doc["checks"]) == 6

    assert cli.main(["algebra", "--system", "helical"]) == 1
    assert "algebra supports" in capsys.readouterr().err


def test_spectrum_landau(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "spec.json", {
        "system": {"model": "constant_b", "B": 1.0},
        "grid": {"lo": -12.0, "hi": 12.0, "n": 2000},
        "n_levels": 6,
    })
    assert cli.main(["spectrum", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["analytic_reference"] == [0.5, 1.5, 2.5, 3.5, 4.5, 5.5]
    assert doc["max_rel_error"] < 1e-4
    assert len(doc["eigenvalues"]) == 6


def test_spectrum_landau_csv(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "spec.json", {
        "system": {"model": "constant_b", "B": 1.0},
        "grid": {"lo": -10.0, "hi": 10.0, "n": 400},
        "n_levels": 3,
    })
    assert cli.main(["spectrum", "--config", cfg, "--format", "csv"]) == 1
    assert "requires --out" in capsys.readouterr().err

    out = str(tmp_path / "funcs.csv")
    assert cli.main(["spectrum", "--config", cfg, "--format", "csv",
                     "--out", out]) == 0
    doc = json.loads(capsys.readouterr().out)  # report still goes to stdout
    assert doc["max_rel_error"] < 1e-2
    header, data = _read_csv(out)
    assert header == ["z", "f0", "f1", "f2"]
    assert data.shape == (400, 4)


def test_spectrum_helical(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "spec.json", {
        "system": {"model": "helical", "A_amp": 1.0, "beta": 1.0},
        "K": 1.0, "E": 1.0, "r_max": 3,
    })
    assert cli.main(["spectrum", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["a"] == pytest.approx(0.0, abs=1e-12)
    assert doc["q"] == pytest.approx(-4.0)
    assert doc["wronskian_drift"] < 1e-8
    assert len(doc["characteristic_values"]["even"]) == 4
    assert len(doc["characteristic_values"]["odd"]) == 3

    missing = _write_cfg(tmp_path, "bad.json", {
        "system": {"model": "helical", "A_amp": 1.0, "beta": 1.0}, "E": 1.0})
    assert cli.main(["spectrum", "--config", missing]) == 1
    assert "'K'" in capsys.readouterr().err


def test_spectrum_helical_integration_failure_exits_1(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "spec.json", {
        "system": {"model": "helical", "A_amp": 1.0, "beta": 1.0},
        "K": 1e6, "E": 1.0, "hbar": 1.0,
    })
    with np.errstate(all="ignore"):
        assert cli.main(["spectrum", "--config", cfg]) == 1
    assert "fundamental-solution integration failed" in capsys.readouterr().err


def test_spectrum_helical_overflow_raises_no_warning(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "spec.json", {
        "system": {"model": "helical", "A_amp": 1.0, "beta": 1.0},
        "K": 1e6, "E": 1.0, "hbar": 1.0,
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["spectrum", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "fundamental-solution integration failed" in err
    assert "RuntimeWarning" not in err


def test_spectrum_csv_matches_per_cell_reference(tmp_path, capsys):
    B, k1, k2, n_levels = 1.5, 0.3, -0.4, 3
    cfg = _write_cfg(tmp_path, "spec.json", {
        "system": {"model": "constant_b", "B": B},
        "grid": {"lo": -9.0, "hi": 9.0, "n": 60},
        "n_levels": n_levels, "k1": k1, "k2": k2,
    })
    out = tmp_path / "funcs.csv"
    assert cli.main(["spectrum", "--config", cfg, "--format", "csv",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    grid = ms.Grid1D(-9.0, 9.0, 60)
    res = ms.landau_reduced_solve(B, k1, k2, 1.0, grid, n_levels)
    z = grid.points
    lines = ["z,f0,f1,f2"]
    for j in range(grid.n):
        cells = [z[j]] + [res.eigenfunctions[i][j] for i in range(n_levels)]
        lines.append(",".join("%.17g" % float(v) for v in cells))
    assert out.read_text(encoding="utf-8") == "\n".join(lines) + "\n"


def test_spectrum_missing_grid(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "spec.json",
                     {"system": {"model": "constant_b", "B": 1.0}})
    assert cli.main(["spectrum", "--config", cfg]) == 1
    assert "grid" in capsys.readouterr().err


def test_fields_check_systems(capsys):
    for system in ("constant_b", "helical", "monopole"):
        assert cli.main(["fields-check", "--system", system]) == 0, system
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is True and doc["max_div_b"] < 1e-6


def test_schema_violations(tmp_path, capsys):
    zero_b = _write_cfg(tmp_path, "a.json",
                        {"system": {"model": "constant_b", "B": 0}})
    assert cli.main(["verify", "--config", zero_b]) == 1
    assert "schema violation at $" in capsys.readouterr().err

    stray = _write_cfg(tmp_path, "b.json",
                       {"system": {"model": "constant_b", "B": 1.0}, "wat": 1})
    assert cli.main(["verify", "--config", stray]) == 1
    assert "schema violation at $" in capsys.readouterr().err

    not_json = tmp_path / "c.json"
    not_json.write_text("{", encoding="utf-8")
    assert cli.main(["verify", "--config", str(not_json)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command, text, literal", [
    ("spectrum", '{"system": {"model": "constant_b", "B": 1.0}, '
                 '"grid": {"lo": -12.0, "hi": 12.0, "n": 200}, "k2": NaN}', "NaN"),
    ("simulate", '{"system": {"model": "constant_b", "B": 1.0}, '
                 '"state0": {"x": [0, 0, 0], "p": [1, 0, 0]}, "t_end": Infinity}',
     "Infinity"),
    ("verify", '{"system": {"model": "constant_b", "B": -Infinity}}', "-Infinity"),
])
def test_non_json_number_literals_exit_1(tmp_path, capsys, command, text, literal):
    # json.loads takes NaN and +-Infinity, and the schema's bounds let NaN through
    path = tmp_path / "cfg.json"
    path.write_text(text, encoding="utf-8")
    assert cli.main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{literal} is not a JSON number" in err and "Traceback" not in err


def test_spec_file_rejects_non_json_number_literals(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"integrals": [{"name": "c", "m": NaN}]}', encoding="utf-8")
    assert cli.main(["verify", "--system", "constant_b", "--spec", str(spec)]) == 1
    assert "NaN is not a JSON number" in capsys.readouterr().err


_HUGE_INT = "1" + "0" * 400


@pytest.mark.parametrize("text", [
    '{"system": {"model": "constant_b", "B": 1.0}, "t_end": 1e400}',
    '{"system": {"model": "constant_b", "B": 1.0}, "t_end": -1e400}',
    '{"system": {"model": "constant_b", "B": 1.0}, "t_end": %s}' % _HUGE_INT,
    '{"system": {"model": "constant_b", "B": 1.0}, "t_end": 1%s}' % ("0" * 5000),
], ids=["float", "negative-float", "int", "int-past-digit-limit"])
def test_load_config_refuses_numbers_beyond_a_double(tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ms.ConfigError, match="is not a finite double"):
        cli.load_config(str(path))


@pytest.mark.parametrize("argv, text", [
    (["--config", "{cfg}"], '{"system": {"model": "constant_b", "B": 1e400}}'),
    (["--config", "{cfg}"], '{"system": {"model": "constant_b", "B": %s}}' % _HUGE_INT),
    (["--system", "constant_b", "--spec", "{cfg}"],
     '{"integrals": [{"name": "u", "alpha": {"11": 1e400}}]}'),
    (["--system", "constant_b", "--seed", _HUGE_INT], None),
    (["--system", "constant_b", "--n-points", _HUGE_INT], None),
], ids=["config-float", "config-int", "spec-file", "seed-flag", "n-points-flag"])
def test_verify_refuses_numbers_beyond_a_double(tmp_path, capsys, argv, text):
    path = tmp_path / "in.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    argv = [str(path) if a == "{cfg}" else a for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["verify", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("magsuper: error: ")
    assert "is not a finite double" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("alpha, message", [
    ({"1": 1.0}, "alpha key '1' is not two digits"),
    ({"123": 1.0}, "alpha key '123' is not two digits"),
    ({"11": True}, "alpha value True at '11' is not a number"),
], ids=["one-digit", "three-digits", "bool"])
def test_spec_file_alpha_keys_are_two_digits_and_values_numbers(tmp_path, capsys,
                                                                 alpha, message):
    spec = _write_cfg(tmp_path, "spec.json", {"integrals": [{"name": "u", "alpha": alpha}]})
    assert cli.main(["verify", "--system", "constant_b", "--spec", spec]) == 1
    err = capsys.readouterr().err
    assert f"magsuper: error: integrals[0]: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize("entry, message", [
    ({"s": ["a", 1, 2]}, "s must be null, 'zero', or 3 numbers"),
    ({"s": [True, 1, 2]}, "s must be null, 'zero', or 3 numbers"),
    ({"s": [1, 2]}, "s must be null, 'zero', or 3 numbers"),
    ({"s": "x"}, "s must be null, 'zero', or 3 numbers"),
    ({"m": True}, "m must be null, 'zero', or a number"),
], ids=["s-string-entry", "s-bool-entry", "s-two-numbers", "s-string", "m-bool"])
def test_spec_file_s_and_m_are_numbers(tmp_path, capsys, entry, message):
    spec = _write_cfg(tmp_path, "spec.json", {"integrals": [
        {"known": "X1"}, {"name": "u", **entry}]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["verify", "--system", "constant_b", "--spec", spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"magsuper: error: integrals[1].{message}\n"


@pytest.mark.parametrize("entry, message", [
    ({"name": [1]}, "integrals[0].name must be a string"),
    ({"known": [1]}, "unknown integral [1]; this model has "),
], ids=["name-list", "known-list"])
def test_spec_file_names_are_strings(tmp_path, capsys, entry, message):
    # a list is no dict key: these used to escape as TypeError tracebacks
    spec = _write_cfg(tmp_path, "spec.json", {"integrals": [entry]})
    assert cli.main(["verify", "--system", "constant_b", "--spec", spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"magsuper: error: {message}")


@pytest.mark.parametrize("integrals, name", [
    ([{"name": "a", "s": [0, 1, 0]}, {"name": "a", "alpha": {"11": 1.0}}], "a"),
    ([{"known": "X1"}, {"known": "X1"}], "X1"),
    ([{"known": "X2"}, {"name": "X2", "s": [0, 1, 0]}], "X2"),
    ([{"name": "user1", "m": 1.0}, {"s": [1, 0, 0]}], "user1"),
], ids=["given", "known", "known-then-given", "given-then-default"])
def test_spec_file_refuses_a_repeated_name(tmp_path, capsys, integrals, name):
    # the report's maps are keyed by name: a second entry of one name would
    # hide the first one's residual
    spec = _write_cfg(tmp_path, "spec.json", {"integrals": integrals})
    assert cli.main(["verify", "--system", "constant_b", "--n-points", "20",
                     "--spec", spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"magsuper: error: integrals[1] repeats the name {name!r}\n"


@pytest.mark.parametrize("data, message", [
    ([{"known": "X1"}], 'spec file must be {"integrals": [...]}'),
    ({"integrals": {"known": "X1"}}, 'spec file must be {"integrals": [...]}'),
    ({"integrals": [{"known": "X1"}, 3]}, "integrals[1] must be an object"),
    ({"integrals": [{"name": "u", "alpha": [1.0]}]}, "integrals[0].alpha must be an object"),
    ({"integrals": []}, "spec file lists no integrals"),
], ids=["root-list", "integrals-object", "entry-number", "alpha-list", "empty"])
def test_spec_file_shape_is_refused_by_name(tmp_path, capsys, data, message):
    spec = _write_cfg(tmp_path, "spec.json", data)
    assert cli.main(["verify", "--system", "constant_b", "--spec", spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"magsuper: error: {message}\n"


def test_spec_file_candidates_take_no_per_point_path(tmp_path, capsys, monkeypatch):
    # constant s and m are functions of stacks, as the built-ins' are: none
    # of them is called once per sampled point
    def per_point(*args, **kwargs):
        raise AssertionError("a spec-file candidate was called point by point")

    monkeypatch.setattr(ms.fields, "_per_point", per_point)
    monkeypatch.setattr(ms.integrals, "_per_point", per_point)
    spec = _write_cfg(tmp_path, "spec.json", {"integrals": [
        {"name": "p1", "s": [1, 0, 0]}, {"name": "c", "m": 1.5},
        {"name": "p1sq", "alpha": {"11": 1}}, {"known": "X2"}]})
    assert cli.main(["verify", "--system", "constant_b", "--n-points", "50",
                     "--spec", spec]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["integrals"] == ["p1", "c", "p1sq", "X2"] and doc["pass"] is True


def test_a_directory_as_config_exits_1(tmp_path, capsys):
    assert cli.main(["verify", "--config", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"magsuper: error: cannot read config {tmp_path}: ")


@pytest.mark.parametrize("text", ["[]", "1.5", '"constant_b"', "null"])
def test_a_config_root_that_is_not_an_object_exits_1(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text, encoding="utf-8")
    assert cli.main(["fields-check", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "magsuper: error: config root must be a JSON object\n"


@pytest.mark.parametrize("command", ["verify", "fields-check"])
@pytest.mark.parametrize("system", ["constant_b", "helical"])
def test_potential_on_a_model_other_than_the_monopole_exits_1(capsys, command, system):
    assert cli.main([command, "--system", system, "--potential", "modified"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("magsuper: error: --potential applies only to the "
                            "monopole model\n")


@pytest.mark.parametrize("command", ["simulate", "trajectory"])
@pytest.mark.parametrize("drop, message", [
    ("state0", "config needs a 'state0' object with 'x' and 'p'"),
    ("t_end", "config needs 't_end'"),
])
def test_a_trajectory_config_without_state0_or_t_end_exits_1(tmp_path, capsys, command,
                                                              drop, message):
    cfg = {"system": {"model": "constant_b", "B": 1.0},
           "state0": {"x": [0, 0, 0], "p": [1, 0, 0]}, "t_end": 1.0}
    del cfg[drop]
    path = _write_cfg(tmp_path, "cfg.json", cfg)
    assert cli.main([command, "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"magsuper: error: {message}\n"


_BORIS = {"state0": {"x": [0, 0, 0], "p": [1, 0, 0]}, "t_end": 5.0,
          "integrator": {"method": "boris", "dt": 0.5}}
_FAR = {"state0": {"x": [1e110, 0, 1e110], "p": [0, 0, 0]}, "t_end": 1.0}


@pytest.mark.parametrize("command, system, extra", [
    ("verify", {"model": "constant_b", "B": 1e300}, {}),
    ("algebra", {"model": "constant_b", "B": 1e300}, {}),
    ("algebra", {"model": "monopole", "g": 1e300, "Q": 1}, {}),
    ("fields-check", {"model": "constant_b", "B": 1e308}, {}),
    ("spectrum", {"model": "helical", "A_amp": 1.0, "beta": 1e200}, {"K": 1.0, "E": 1.0}),
    ("spectrum", {"model": "helical", "A_amp": 1.0, "beta": 1.0},
     {"K": 1.0, "E": 3.0, "hbar": 1e-200}),
    ("spectrum", {"model": "constant_b", "B": 1e300},
     {"grid": {"lo": -12.0, "hi": 12.0, "n": 200}}),
    ("simulate", {"model": "constant_b", "B": 1e300}, _BORIS),
    ("simulate", {"model": "monopole", "g": 2, "Q": 1}, _FAR),
    ("trajectory", {"model": "monopole", "g": 2, "Q": 1}, _FAR),
], ids=["verify", "algebra-constant-b", "algebra-monopole", "fields-check",
        "spectrum-helical", "spectrum-helical-tiny-hbar", "spectrum-landau",
        "simulate-boris", "simulate-rk45", "trajectory-rk45"])
def test_field_overflow_exits_1(tmp_path, capsys, command, system, extra):
    cfg = _write_cfg(tmp_path, "cfg.json", {"system": system, **extra})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([command, "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("magsuper: error: a field value overflowed the double range; "
                            "use smaller field parameters\n")


@pytest.mark.parametrize("argv, what", [
    (["verify", "--config", "{path}"], "config"),
    (["verify", "--system", "constant_b", "--spec", "{path}"], "spec file"),
], ids=["config", "spec-file"])
def test_deeply_nested_json_exits_1(tmp_path, capsys, argv, what):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000, encoding="utf-8")
    argv = [str(path) if a == "{path}" else a for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"magsuper: error: {what} {path} nests arrays or "
                            "objects too deeply\n")


def test_validate_config_refuses_values_nested_past_the_recursion_limit():
    # json reads a value nested just below the limit; jsonschema's message
    # about it then recurses past the limit
    nested = []
    for _ in range(sys.getrecursionlimit()):
        nested = [nested]
    with pytest.raises(ms.ConfigError, match="^config nests arrays or objects too deeply$"):
        cli.validate_config({"system": nested})


def test_verify_and_fields_check_draws_are_pinned():
    # PCG64 uniform doubles use no libm, so these bits hold on every
    # platform: the positions, one try per draw of three, then the momenta
    # of verify; the monopole rejects the fourth position drawn
    positions = [[0.5003818664186679, 1.588855203878302, 1.102742760980774],
                 [-1.0991712400376326, -0.7993348603550983, 1.4942137815850476],
                 [-1.978938781737701, 1.2849136735310651, 1.188277715008185],
                 [-0.1282601886251169, -0.7878702927227459, -0.8862975515969067],
                 [-0.9805216493835016, -0.2196947764694137, 0.018193035831813198]]
    gen = cli._rng(7)
    xs = np.array(cli._sample_positions(gen, 4, ms.Monopole(g=2.0, Q=1.0)))
    assert xs.tolist() == positions[:3] + positions[4:]
    assert gen.uniform(-2.0, 2.0, xs.shape)[0].tolist() == [
        0.21398940829796986, 1.9820011337375707, 1.1706476768550123]
    gen = cli._rng(7)
    assert np.array(cli._sample_positions(gen, 4, ms.ConstantB(B=1.0))).tolist() == positions[:4]


def test_negative_b_runs_every_command(tmp_path, capsys):
    system = {"model": "constant_b", "B": -1.3}
    cfg = _write_cfg(tmp_path, "sys.json", {"system": system})
    for command in ("verify", "algebra", "fields-check"):
        assert cli.main([command, "--config", cfg]) == 0, command
        assert json.loads(capsys.readouterr().out)["pass"] is True, command

    landau = _write_cfg(tmp_path, "landau.json", {
        "system": system, "grid": {"lo": -12.0, "hi": 12.0, "n": 2000},
        "n_levels": 6, "k1": 0.5, "k2": 1.0,
    })
    assert cli.main(["spectrum", "--config", landau, "--tolerance", "1e-4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    want = [0.5 * 0.5**2 + 1.3 * (n + 0.5) for n in range(6)]
    assert doc["analytic_reference"] == pytest.approx(want, rel=1e-15)
    assert doc["max_rel_error"] < 1e-4

    traj = _sim_cfg(tmp_path, system, [0.1, -0.2, 0.3], [0.7, 0.4, -0.5],
                    t_end=10.0, name="traj.json")
    out = str(tmp_path / "traj.csv")
    assert cli.main(["trajectory", "--config", traj, "--closed-form", "--out", out]) == 0
    header, data = _read_csv(out)
    assert header[-1] == "closed_form_error"
    assert np.max(data[:, -1]) < 1e-6


def test_usage_errors(capsys):
    assert cli.main([]) == 1
    capsys.readouterr()
    assert cli.main(["verify", "--wat"]) == 1
    capsys.readouterr()
    assert cli.main(["simulate"]) == 1  # --config is required
    capsys.readouterr()
    assert cli.main(["verify"]) == 1  # neither --config nor --system
    assert "--config" in capsys.readouterr().err


def test_boris_run_beyond_the_step_cap_exits_1(tmp_path, capsys):
    # t_end / dt overflows to inf: refused before any array is allocated
    cfg = _sim_cfg(tmp_path, {"model": "helical", "A_amp": 1.0, "beta": 1.0},
                   [0.0, 0.0, 0.0], [1.0, 0.5, 0.2], t_end=1e308,
                   integrator={"method": "boris", "dt": 1e-10})
    assert cli.main(["simulate", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the maximum of 10000000 steps" in captured.err


def test_boris_overflow_exits_1_without_a_traceback(tmp_path, capsys):
    cfg = _sim_cfg(tmp_path, {"model": "constant_b", "B": 1.0}, [0.0, 0.0, 0.0],
                   [1e308, 0.0, 0.0], t_end=100.0, integrator={"method": "boris", "dt": 10.0})
    out = tmp_path / "traj.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"magsuper: error: {ms.errors.OVERFLOW_MESSAGE}\n"


@pytest.mark.parametrize("system, state0", [
    ({"model": "helical", "A_amp": 1.0, "beta": 1e-3}, {"x": [0, 0, 1e306], "p": [0.1, 0.2, 0.3]}),
    ({"model": "helical", "A_amp": 1e-300, "beta": 1e-300}, {"x": [0, 0, 1.7e8], "p": [0, 0, 1e8]}),
], ids=["at-the-start", "on-the-way"])
@pytest.mark.parametrize("integrator", [{}, {"integrator": {"method": "boris", "dt": 0.01}}],
                         ids=["rk45", "boris"])
def test_helical_phase_overflow_exits_1_with_the_domain_error(tmp_path, capsys, system,
                                                               state0, integrator):
    # the phase (z + phi0) / beta beyond the double range is off the domain,
    # not a "math domain error" of cos and sin
    cfg = _write_cfg(tmp_path, "cfg.json",
                     {"system": system, "state0": state0, "t_end": 1.0, **integrator})
    out = tmp_path / "traj.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("magsuper: error: point [")
    assert captured.err.endswith(" puts the helical phase (z + phi0) / beta "
                                 "beyond the double range\n")


@pytest.mark.parametrize("command", ["simulate", "trajectory", "verify", "fields-check",
                                     "algebra", "spectrum"])
@pytest.mark.parametrize("params, shown", [
    ({"A_amp": 1e300, "beta": 1e-10}, "1e+300 / 1e-10"),
    ({"A_amp": 1.0, "beta": 1e-310}, "1.0 / 1e-310"),
], ids=["large-amplitude", "tiny-pitch"])
def test_helical_field_beyond_the_double_range_exits_1_naming_it(tmp_path, capsys, command,
                                                                params, shown):
    cfg = _write_cfg(tmp_path, "cfg.json", {
        "system": {"model": "helical", **params},
        "state0": {"x": [0.1, 0.2, 0.3], "p": [0.1, 0.2, 0.3]}, "t_end": 1.0,
        "K": 1.0, "E": 1.0})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == ("magsuper: error: bad parameters for model 'helical': HelicalB "
                            f"A_amp / beta = {shown} is not finite\n")


def test_rk45_run_past_the_step_cap_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ms.dynamics, "RK45_MAX_STEPS", 40)
    cfg = _sim_cfg(tmp_path, {"model": "constant_b", "B": 1.0}, [0.1, 0.2, -0.3],
                   [0.5, 0.3, -0.2], t_end=40.0)
    out = tmp_path / "traj.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("magsuper: error: an RK45 run reached the maximum of 40 steps")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command, system", [
    ("verify", {"model": "constant_b", "B": 1.0}),
    ("algebra", {"model": "monopole", "g": 1.0}),
    ("fields-check", {"model": "helical", "A_amp": 1.0, "beta": 1.0}),
], ids=["verify", "algebra", "fields-check"])
def test_n_points_beyond_the_cap_exit_1_before_sampling(tmp_path, capsys, monkeypatch,
                                                        command, system):
    class NoDraws:
        def uniform(self, *args):
            raise AssertionError("sampled points for a refused run")

    monkeypatch.setattr(cli, "_rng", lambda seed: NoDraws())
    over = ms.algebra.SAMPLE_MAX_ROWS + 1
    assert cli.main([command, "--system", system["model"], "--n-points", str(over)]) == 1
    assert f"--n-points: {over} is greater than the maximum of 200000" in capsys.readouterr().err
    cfg = _write_cfg(tmp_path, "big.json", {"system": system, "n_points": over})
    assert cli.main([command, "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{over} is greater than the maximum of 200000" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["verify", "--system", "constant_b", "--n-points", "0"], "--n-points"),
    (["algebra", "--system", "monopole", "--n-points", "0"], "--n-points"),
    (["fields-check", "--system", "helical", "--n-points", "0"], "--n-points"),
    (["verify", "--system", "helical", "--tolerance", "-1"], "--tolerance"),
    (["spectrum", "--config", "{landau}", "--tolerance", "-1"], "--tolerance"),
    (["spectrum", "--config", "{landau}", "--tolerance", "0"], "--tolerance"),
    (["verify", "--system", "helical", "--tolerance", "nan"], "--tolerance: nan"),
    (["spectrum", "--config", "{landau}", "--tolerance", "inf"], "--tolerance: inf"),
], ids=["verify-n-points", "algebra-n-points", "fields-check-n-points",
        "verify-tolerance", "spectrum-tolerance-negative", "spectrum-tolerance-zero",
        "verify-tolerance-nan", "spectrum-tolerance-inf"])
def test_sampled_flags_follow_schema_bounds(argv, message, tmp_path, capsys):
    landau = _write_cfg(tmp_path, "landau.json", {
        "system": {"model": "constant_b", "B": 1.0},
        "grid": {"lo": -10.0, "hi": 10.0, "n": 400},
    })
    argv = [landau if a == "{landau}" else a for a in argv]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("command, flag, value", [
    ("simulate", "--seed", "1"), ("simulate", "--tolerance", "1e-3"),
    ("trajectory", "--seed", "1"), ("trajectory", "--tolerance", "1e-3"),
    ("spectrum", "--seed", "1"), ("verify", "--format", "csv"),
    ("algebra", "--format", "csv"), ("fields-check", "--format", "json"),
])
def test_a_flag_the_command_does_not_read_exits_1(tmp_path, capsys, command, flag, value):
    cfg = _sim_cfg(tmp_path, {"model": "constant_b", "B": 1.0}, [0, 0, 0], [1, 0, 0],
                   grid={"lo": -10.0, "hi": 10.0, "n": 400})
    assert cli.main([command, "--config", cfg, flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"magsuper: error: unrecognized arguments: {flag} {value}\n"


def test_one_parser_serves_every_call_in_a_process(tmp_path):
    # each call parses into a fresh namespace: no flag of one call reaches
    # the next, and the bytes equal those of a fresh process per call
    calls = [
        ["verify", "--system", "monopole", "--mode", "quantum", "--potential",
         "coulomb-only", "--seed", "3", "--n-points", "7", "--tolerance", "1e-3"],
        ["fields-check", "--system", "helical"],
        ["verify", "--system", "monopole", "--n-points", "5"],
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run_main = "import sys; from magsuper.cli import main; sys.exit(main(sys.argv[1:]))"
    for i, argv in enumerate(calls):
        here, fresh = tmp_path / f"here{i}.json", tmp_path / f"fresh{i}.json"
        rc = cli.main([*argv, "--out", str(here)])
        done = subprocess.run([sys.executable, "-c", run_main, *argv, "--out", str(fresh)],
                              env=env, capture_output=True, timeout=120)
        assert rc == done.returncode, done.stderr
        assert here.read_bytes() == fresh.read_bytes()
    assert cli._parser() is cli._parser()
    second = json.loads((tmp_path / "here1.json").read_text(encoding="utf-8"))
    assert (second["seed"], second["n_points"], second["tolerance"]) == (0, 100, 1e-6)
    third = json.loads((tmp_path / "here2.json").read_text(encoding="utf-8"))
    assert third["mode"] == "classical" and "potential" not in third["system"]


def test_import_leaves_scipy_solvers_unloaded():
    # scipy's integrate, linalg and special load on the first call that
    # uses them, so a command without one starts without them
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = ("import sys, magsuper.cli; "
             "print(sorted(m for m in ('scipy.integrate', 'scipy.linalg', 'scipy.special') "
             "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_helical_spectrum_leaves_scipy_integrate_unloaded(tmp_path):
    # the helical solve is numpy only; the characteristic values load scipy.linalg
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    cfg = _write_cfg(tmp_path, "spec.json", {
        "system": {"model": "helical", "A_amp": 1.0, "beta": 1.0}, "K": 1.0, "E": 3.0})
    probe = ("import sys, magsuper.cli; "
             f"code = magsuper.cli.main(['spectrum', '--config', {cfg!r}, '--out', {os.devnull!r}]); "
             "print(code, 'scipy.integrate' in sys.modules, 'scipy.linalg' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0 False True"


def test_separatrix_closed_form_leaves_scipy_integrate_unloaded(tmp_path):
    # kappa = 1: the closed-form column comes from the Dormand-Prince loop
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    cfg = _sim_cfg(tmp_path, {"model": "helical", "A_amp": 1.0, "beta": 1.0},
                   [0, 0, 0], [3.0, 0.0, 2.0 * 3.0 ** 0.5], t_end=2.0)
    probe = ("import sys, magsuper.cli; "
             f"code = magsuper.cli.main(['trajectory', '--closed-form', '--config', {cfg!r}, "
             f"'--out', {os.devnull!r}]); "
             "print(code, 'scipy.integrate' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0 False"


@pytest.mark.parametrize("argv, code", [
    (["verify", "--config", "{checks}"], 0),
    (["trajectory", "--config", "{orbit}", "--closed-form"], 0),
    (["spectrum", "--config", "{landau}", "--tolerance", "1e-6"], 2),
    (["verify", "--system", "monopole", "--n-points", "10"], 0),
], ids=["verify-config", "trajectory-config", "spectrum-tolerance", "verify-n-points"])
def test_accepted_commands_leave_jsonschema_unloaded(tmp_path, argv, code):
    # the compiled schema test accepts the config and the flags; jsonschema
    # is imported only to word a refusal
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    configs = {
        "{checks}": _write_cfg(tmp_path, "checks.json", {
            "system": {"model": "constant_b", "B": 1.0}, "n_points": 5, "seed": 3}),
        "{orbit}": _sim_cfg(tmp_path, {"model": "helical", "A_amp": 1.0, "beta": 1.0},
                            [0.9, -0.4, 0.3], [0.6, 0.2, -0.5], t_end=1.0, name="orbit.json",
                            integrator={"method": "rk45", "rel_tol": 1e-9}),
        "{landau}": _write_cfg(tmp_path, "landau.json", {
            "system": {"model": "constant_b", "B": 1.0},
            "grid": {"lo": -10.0, "hi": 10.0, "n": 400}, "n_levels": 2}),
    }
    argv = [configs.get(a, a) for a in argv] + ["--out", str(tmp_path / "out")]
    probe = ("import sys, magsuper.cli; "
             f"code = magsuper.cli.main({argv!r}); "
             "print(code, 'jsonschema' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"{code} False"


@pytest.mark.parametrize("argv, message", [
    (["verify", "--config", "{zero_b}"],
     "config schema violation at $.system: {'model': 'constant_b', 'B': 0} is not valid "
     "under any of the given schemas"),
    (["verify", "--system", "monopole", "--n-points", "0"],
     "--n-points: 0 is less than the minimum of 1"),
], ids=["config", "flag"])
def test_refusals_import_jsonschema_to_word_them(tmp_path, argv, message):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    zero_b = _write_cfg(tmp_path, "zero.json", {"system": {"model": "constant_b", "B": 0}})
    argv = [zero_b if a == "{zero_b}" else a for a in argv]
    probe = ("import sys, magsuper.cli; "
             f"code = magsuper.cli.main({argv!r}); "
             "print(code, 'jsonschema' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (done.returncode, done.stdout.strip()) == (0, "1 True"), done.stderr
    assert done.stderr == f"magsuper: error: {message}\n"


def test_a_refusal_that_jsonschema_cannot_word_still_exits_1(monkeypatch, capsys):
    # the compiled test alone decides; the refusal stands with a generic message
    monkeypatch.setattr(cli, "_ACCEPTS_CONFIG", lambda cfg: False)
    with pytest.raises(ms.ConfigError,
                       match=r"^config schema violation at \$: the schema's compiled test "
                             r"refuses it$"):
        cli.validate_config({"system": {"model": "constant_b", "B": 1.0}})
    monkeypatch.setitem(cli._ACCEPTS_KEY, "n_points", lambda value: False)
    assert cli.main(["verify", "--system", "constant_b", "--n-points", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("magsuper: error: --n-points: the schema's compiled test "
                            "refuses it\n")


def _readme_json_blocks():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    parts = readme.read_text(encoding="utf-8").split("```json\n")[1:]
    return [json.loads(part.split("```")[0]) for part in parts]


def test_readme_json_configs_are_valid():
    configs = _readme_json_blocks()
    assert {cfg["system"]["model"] for cfg in configs} >= {"constant_b", "helical"}
    assert any("K" in cfg and "E" in cfg for cfg in configs)  # a helical spectrum
    for cfg in configs:
        cli.validate_config(cfg)
        ms.model_from_config(cfg["system"])


def test_spectrum_refuses_a_grid_beyond_the_cap(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "big.json", {
        "system": {"model": "constant_b", "B": 1.0},
        "grid": {"lo": -12.0, "hi": 12.0, "n": 10**12}})
    assert cli.main(["spectrum", "--config", cfg]) == 1
    assert "greater than the maximum of 10000000" in capsys.readouterr().err


def test_schema_level_and_order_maxima_are_the_library_caps():
    props = cli.CONFIG_SCHEMA["properties"]
    # n_levels * grid.n <= GRID_MAX_POINTS with grid.n >= 16
    assert props["n_levels"]["maximum"] == ms.quantum.GRID_MAX_POINTS // 16
    assert props["r_max"]["maximum"] == ms.quantum.MATHIEU_R_MAX
    assert props["n_points"]["maximum"] == ms.algebra.SAMPLE_MAX_ROWS


@pytest.mark.parametrize("extra, message", [
    ({"grid": {"lo": -12.0, "hi": 12.0, "n": 10**6}, "n_levels": 999998},
     "999998 is greater than the maximum of 625000"),
    ({"grid": {"lo": -12.0, "hi": 12.0, "n": 10**6}, "n_levels": 11},
     "11 eigenfunctions on a grid of n = 1000000 points exceed the maximum"),
])
def test_spectrum_refuses_levels_beyond_the_cap(tmp_path, capsys, extra, message):
    cfg = _write_cfg(tmp_path, "levels.json",
                     {"system": {"model": "constant_b", "B": 1.0}, **extra})
    assert cli.main(["spectrum", "--config", cfg]) == 1
    assert message in capsys.readouterr().err


def test_spectrum_refuses_an_order_beyond_the_cap(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "order.json", {
        "system": {"model": "helical", "A_amp": 1.0, "beta": 1.0},
        "K": 1.0, "E": 3.0, "r_max": ms.quantum.MATHIEU_R_MAX + 1})
    assert cli.main(["spectrum", "--config", cfg]) == 1
    assert "1001 is greater than the maximum of 1000" in capsys.readouterr().err


@pytest.mark.parametrize("routine, fmt, system", [
    ("dstebz", "json", "constant_b"),
    ("dstein", "json", "constant_b"),
    ("dstein", "csv", "constant_b"),
    ("dstebz", "json", "helical"),
])
def test_a_lapack_failure_exits_1_without_a_traceback(tmp_path, capsys, monkeypatch,
                                                      routine, fmt, system):
    from scipy.linalg import lapack

    real = getattr(lapack, routine)
    monkeypatch.setattr(lapack, routine, lambda *args: (*real(*args)[:-1], 3))
    if system == "constant_b":
        cfg = {"system": {"model": "constant_b", "B": 1.0},
               "grid": {"lo": -12.0, "hi": 12.0, "n": 400}, "n_levels": 3}
    else:
        cfg = {"system": {"model": "helical", "A_amp": 1.0, "beta": 1.0}, "K": 1.0, "E": 3.0}
    path = _write_cfg(tmp_path, "spec.json", cfg)
    argv = ["spectrum", "--config", path, "--format", fmt, "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert f"magsuper: error: LAPACK {routine} failed with info = 3" in err
    assert "Traceback" not in err


def test_json_spectrum_forms_no_eigenvector_array(tmp_path, capsys):
    # one column of interior values is 8 (n - 2) bytes; the eigenvectors of
    # 4 levels would add three or four of them to the 1-level peak
    n = 100000
    out = str(tmp_path / "out.json")
    peaks = {}
    for n_levels in (1, 1, 4):  # the first run is a warm-up
        cfg = _write_cfg(tmp_path, "spec.json", {
            "system": {"model": "constant_b", "B": 1.0},
            "grid": {"lo": -12.0, "hi": 12.0, "n": n}, "n_levels": n_levels})
        tracemalloc.start()
        try:
            assert cli.main(["spectrum", "--config", cfg, "--out", out]) == 0
            peaks[n_levels] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    assert peaks[4] <= 1.25 * peaks[1]
    assert peaks[4] - peaks[1] < 8 * (n - 2)


def test_json_spectrum_holds_only_what_lapack_needs(tmp_path, capsys):
    # 76 bytes per interior point: d and e (16) with dstebz's work, iwork, w,
    # iblock and isplit (32 + 12 + 8 + 4 + 4), or with dstein's iblock,
    # isplit, work, iwork and one vector (8 + 40 + 4 + 8); nothing beside them
    n = 100000
    out = str(tmp_path / "out.json")
    peaks = []
    for n_grid in (1000, n):  # the first run is a warm-up
        cfg = _write_cfg(tmp_path, "spec.json", {
            "system": {"model": "constant_b", "B": 1.0},
            "grid": {"lo": -12.0, "hi": 12.0, "n": n_grid}, "n_levels": 4})
        tracemalloc.start()
        try:
            assert cli.main(["spectrum", "--config", cfg, "--out", out]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    assert peaks[1] <= 1.02 * 76 * (n - 2)


def test_byte_determinism(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for path in (a, b):
        assert cli.main(["verify", "--system", "constant_b",
                         "--n-points", "25", "--out", path]) == 0
    assert filecmp.cmp(a, b, shallow=False)

    cfg = _sim_cfg(tmp_path, {"model": "constant_b", "B": 1.0},
                   [0.0, 0.0, 0.0], [1.0, 0.5, 0.25], t_end=2.0)
    c, d = str(tmp_path / "c.csv"), str(tmp_path / "d.csv")
    for path in (c, d):
        assert cli.main(["simulate", "--config", cfg, "--out", path]) == 0
    assert filecmp.cmp(c, d, shallow=False)
    raw = Path(c).read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")


def test_schema_grid_maximum_is_the_grid_cap():
    grid_n = cli.CONFIG_SCHEMA["properties"]["grid"]["properties"]["n"]
    assert grid_n["maximum"] == ms.quantum.GRID_MAX_POINTS


def test_schema_ships_as_package_data():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        import tomli as tomllib

    here = Path(__file__).resolve().parents[1]
    with open(here / "pyproject.toml", "rb") as fh:
        package_data = tomllib.load(fh)["tool"]["setuptools"]["package-data"]
    assert "config.schema.json" in package_data["magsuper"]
    assert (here / "src" / "magsuper" / "config.schema.json").is_file()


@pytest.mark.parametrize("system", [
    {"model": "constant_b", "B": 2.0},
    {"model": "helical", "A_amp": 1.0, "beta": -0.5},
    {"model": "helical", "A_amp": 1.0, "beta": 2.0, "phi0": 0.3},
    {"model": "monopole", "g": 2.0},
    {"model": "monopole", "g": -1.0, "Q": 0.5, "potential": "coulomb-only"},
    {"model": "constant_b"},
    {"model": "helical", "beta": 1.0},
    {"model": "helical", "A_amp": 1.0},
    {"model": "monopole", "Q": 1.0},
    {"model": "constant_b", "B": "2"},
    {"model": "constant_b", "B": True},
    {"model": "helical", "A_amp": 1.0, "beta": 1.0, "phi0": None},
    {"model": "monopole", "g": 2.0, "Q": "1"},
    {"model": "constant_b", "B": 0.0},
    {"model": "helical", "A_amp": 0.0, "beta": 1.0},
    {"model": "helical", "A_amp": 1.0, "beta": 0},
    {"model": "monopole", "g": 0.0},
    {"model": "monopole", "g": 2.0, "potential": "bare"},
    {"model": "constant_b", "B": 1.0, "junk": 1},
    {"model": "nope"},
    {"model": "constant_b", "B": -1.5},
])
def test_schema_and_model_from_config_agree(system):
    try:
        cli.validate_config({"system": system})
        schema_ok = True
    except ms.ConfigError:
        schema_ok = False
    try:
        ms.model_from_config(dict(system))
        model_ok = True
    except ms.ConfigError:
        model_ok = False
    assert schema_ok == model_ok


def test_model_from_config_names_the_missing_key():
    for system, key in (({"model": "constant_b"}, "'B'"),
                        ({"model": "helical", "beta": 1.0}, "'A_amp'"),
                        ({"model": "helical", "A_amp": 1.0}, "'beta'"),
                        ({"model": "monopole", "Q": 1.0}, "'g'")):
        with pytest.raises(ms.ConfigError, match=key):
            ms.model_from_config(system)


def _per_cell_csv(header, rows):
    lines = [",".join(header)]
    lines.extend(",".join("%.17g" % float(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def test_csv_text_matches_per_cell_formatting():
    table = np.array([
        [np.nan, np.inf, -np.inf, -0.0],
        [5e-324, 1e300, -1e-300, 1.0 / 3.0],
        [3.0, -7.0, 2.0**53, 0.1],
    ])
    header = ["a", "b", "c", "d"]
    assert cli._csv_text(header, table) == _per_cell_csv(header, table)


@pytest.mark.parametrize("table", [
    np.array([[0.0, -0.0, 1.0], [5e-324, -1e300, 2.0 / 3.0]]),
    np.array([[1.0, np.nan], [np.inf, -np.inf]]),
], ids=["finite", "non-finite"])
def test_dumps_report_table_matches_per_cell_path(table):
    # lists take the per-cell path, so they are the reference bytes
    assert cli.dumps_report(table) == cli.dumps_report(table.tolist())
    nested = {"columns": ["a", "b"], "rows": table}
    assert cli.dumps_report(nested) == cli.dumps_report({**nested, "rows": table.tolist()})


def _hand_trajectory():
    times = np.array([0.0, 0.5, 1.25, 3.0])
    x = np.array([[0.0, -0.0, 1.0], [0.1, 2.0, -3.5], [1e-300, 5e-324, 7.0],
                  [1.0 / 3.0, 2.0 / 3.0, -1.0]])
    p = x[::-1] * 2.5 + 1.0
    return ms.Trajectory(times, x, p, energy=np.array([0.5, 0.5, 0.5000001, 0.49]),
                         diagnostics={"X1": np.array([1.0, -2.0, 0.25, 1e10])},
                         model=ms.ConstantB(B=1.0), method="rk45")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_trajectory_text_matches_row_by_row_construction(fmt):
    traj = _hand_trajectory()
    extra = ("closed_form_error", np.array([0.0, 1e-12, 2.5e-9, 3.0]))
    header = ["t", "x", "y", "z", "p1", "p2", "p3", "H", "X1", extra[0]]
    rows = []
    for i in range(len(traj.times)):
        row = [traj.times[i], *traj.x[i], *traj.p[i], traj.energy[i]]
        row.append(traj.diagnostics["X1"][i])
        row.append(extra[1][i])
        rows.append(row)
    if fmt == "json":
        want = cli.dumps_report({"columns": header, "rows": rows}) + "\n"
    else:
        want = _per_cell_csv(header, rows)
    assert cli._trajectory_text(traj, ["X1"], fmt, extra) == want
