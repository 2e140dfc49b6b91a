"""End-to-end command-line checks, run in process through cli.main."""

import filecmp
import json
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


def test_usage_errors(capsys):
    assert cli.main([]) == 1
    capsys.readouterr()
    assert cli.main(["verify", "--wat"]) == 1
    capsys.readouterr()
    assert cli.main(["simulate"]) == 1  # --config is required
    capsys.readouterr()
    assert cli.main(["verify"]) == 1  # neither --config nor --system
    assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["verify", "--system", "constant_b", "--n-points", "0"], "--n-points"),
    (["algebra", "--system", "monopole", "--n-points", "0"], "--n-points"),
    (["fields-check", "--system", "helical", "--n-points", "0"], "--n-points"),
    (["verify", "--system", "helical", "--tolerance", "-1"], "--tolerance"),
    (["spectrum", "--config", "{landau}", "--tolerance", "-1"], "--tolerance"),
    (["spectrum", "--config", "{landau}", "--tolerance", "0"], "--tolerance"),
], ids=["verify-n-points", "algebra-n-points", "fields-check-n-points",
        "verify-tolerance", "spectrum-tolerance-negative", "spectrum-tolerance-zero"])
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


def test_shipped_schema_matches_module():
    here = Path(__file__).resolve().parents[1]
    shipped = json.loads((here / "docs" / "config.schema.json")
                         .read_text(encoding="utf-8"))
    assert shipped == cli.CONFIG_SCHEMA


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
