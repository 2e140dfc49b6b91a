"""Command-line front end with deterministic, byte-reproducible artifacts.

Commands: simulate, trajectory, verify, algebra, spectrum, fields-check.
Exit codes: 0 success, 2 verification failure (some residual or
discrepancy exceeded its tolerance), 1 usage, config, or domain errors.
JSON reports use sorted keys and 17-significant-digit floats; CSV uses
LF line endings. Randomness comes from numpy's PCG64 with the --seed
value, so identical config + seed gives identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .algebra import (
    casimir_check,
    monopole_admissible,
    monopole_closure_check,
    sample_states,
    verify_bracket_table,
)
from .closedform import helix_solution, pendulum_reduction, helical_z_of_t, x5_integral
from .dynamics import IntegratorConfig, PhaseState, integrate
from .errors import ConfigError, MagsuperError
from .fields import ConstantB, HelicalB, Monopole, divergence_checks, model_from_config
from .integrals import (
    RESIDUAL_KEYS,
    IntegralSpec,
    PhaseFunction,
    as_phase_function,
    determining_residuals,
    hamiltonian_function,
    known_integrals,
    monopole_runge_lenz_specs,
    poisson_bracket,
)
from .quantum import Grid1D, helical_reduced_solve, landau_reduced_solve, mathieu_table


# ---------------------------------------------------------------------------
# deterministic serialization


def _fmt(v: float) -> str:
    return "%.17g" % float(v)


def _json_scalar(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if math.isnan(f):
            return '"nan"'
        if math.isinf(f):
            return '"inf"' if f > 0 else '"-inf"'
        return _fmt(f)
    if isinstance(v, str):
        return json.dumps(v)
    if v is None:
        return "null"
    raise TypeError(f"cannot serialize {type(v).__name__}")


def dumps_report(obj, indent: int = 0) -> str:
    """JSON text with sorted keys and %.17g floats; stable byte-for-byte."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{pad}  {json.dumps(str(k))}: {dumps_report(obj[k], indent + 1)}"
            for k in sorted(obj, key=str)
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if (isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype == float
            and obj.size and np.isfinite(obj).all()):
        # a table of finite floats: one %-format per row, same bytes as below
        cell = "\n" + "  " * (indent + 2) + "%.17g"
        row_fmt = f"{pad}  [" + ",".join([cell] * obj.shape[1]) + f"\n{pad}  ]"
        return "[\n" + ",\n".join(row_fmt % tuple(r) for r in obj.tolist()) + f"\n{pad}]"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        parts = [f"{pad}  {dumps_report(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    return _json_scalar(obj)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _csv_text(header: list[str], table: np.ndarray) -> str:
    """CSV of an (n, k) float table; each row is one %-format of k %.17g
    fields, the same conversion `_fmt` makes cell by cell."""
    row_fmt = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)]
    lines.extend(row_fmt % tuple(row) for row in table.tolist())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# configuration schema and loading

_VEC3 = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 3,
    "maxItems": 3,
}

#: JSON Schema for run configs; a copy ships in docs/config.schema.json.
CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "magsuper run configuration",
    "type": "object",
    "additionalProperties": False,
    "required": ["system"],
    "properties": {
        "system": {
            "oneOf": [
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["model", "B"],
                    "properties": {
                        "model": {"const": "constant_b"},
                        "B": {"type": "number", "not": {"const": 0}},
                    },
                },
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["model", "A_amp", "beta"],
                    "properties": {
                        "model": {"const": "helical"},
                        "A_amp": {"type": "number", "exclusiveMinimum": 0},
                        "beta": {"type": "number", "not": {"const": 0}},
                        "phi0": {"type": "number"},
                    },
                },
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["model", "g"],
                    "properties": {
                        "model": {"const": "monopole"},
                        "g": {"type": "number", "not": {"const": 0}},
                        "Q": {"type": "number"},
                        "potential": {"enum": ["modified", "coulomb-only"]},
                    },
                },
            ],
        },
        "state0": {
            "type": "object",
            "additionalProperties": False,
            "required": ["x", "p"],
            "properties": {"x": _VEC3, "p": _VEC3},
        },
        "t_end": {"type": "number", "exclusiveMinimum": 0},
        "integrator": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "method": {"enum": ["rk45", "boris"]},
                "rel_tol": {"type": "number", "exclusiveMinimum": 0},
                "abs_tol": {"type": "number", "exclusiveMinimum": 0},
                "max_step": {"type": "number", "exclusiveMinimum": 0},
                "dt": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["lo", "hi", "n"],
            "properties": {
                "lo": {"type": "number"},
                "hi": {"type": "number"},
                "n": {"type": "integer", "minimum": 16},
            },
        },
        "n_levels": {"type": "integer", "minimum": 1},
        "hbar": {"type": "number", "exclusiveMinimum": 0},
        "k1": {"type": "number"},
        "k2": {"type": "number"},
        "K": {"type": "number", "minimum": 0},
        "phi_K": {"type": "number"},
        "E": {"type": "number"},
        "r_max": {"type": "integer", "minimum": 1},
        "tolerance": {"type": "number", "exclusiveMinimum": 0},
        "n_points": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
    },
}

_DEFAULT_SYSTEMS = {
    "constant_b": {"model": "constant_b", "B": 1.0},
    "helical": {"model": "helical", "A_amp": 1.0, "beta": 1.0},
    "monopole": {"model": "monopole", "g": 2.0, "Q": 1.0},
}


def validate_config(cfg: dict) -> None:
    import jsonschema

    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(cfg), key=lambda e: str(e.json_path))
    if errors:
        err = errors[0]
        raise ConfigError(f"config schema violation at {err.json_path}: {err.message}")


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON "
            f"(line {exc.lineno}, column {exc.colno}): {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    validate_config(cfg)
    return cfg


def _config_for(ns) -> dict:
    if ns.config:
        cfg = load_config(ns.config)
    elif getattr(ns, "system", None):
        cfg = {"system": dict(_DEFAULT_SYSTEMS[ns.system])}
    else:
        raise ConfigError("provide --config PATH or --system NAME")
    if getattr(ns, "potential", None):
        if cfg["system"].get("model") != "monopole":
            raise ConfigError("--potential applies only to the monopole model")
        cfg["system"]["potential"] = ns.potential
    return cfg


def _flag(ns, attr: str, key: str):
    """A flag's value (None when absent), held to the schema bounds of the
    config key it overrides."""
    value = getattr(ns, attr, None)
    if value is not None:
        import jsonschema

        schema = CONFIG_SCHEMA["properties"][key]
        err = next(jsonschema.Draft202012Validator(schema).iter_errors(value), None)
        if err is not None:
            raise ConfigError(f"--{attr.replace('_', '-')}: {err.message}")
    return value


def _resolve_seed(ns, cfg) -> int:
    seed = _flag(ns, "seed", "seed")
    return seed if seed is not None else int(cfg.get("seed", 0))


def _resolve_tol(ns, cfg, default=1e-6):
    tol = _flag(ns, "tolerance", "tolerance")
    if tol is not None:
        return float(tol)
    if "tolerance" in cfg:
        return float(cfg["tolerance"])
    return default


def _resolve_n_points(ns, cfg) -> int:
    n = _flag(ns, "n_points", "n_points")
    if n is not None:
        return int(n)
    return int(cfg.get("n_points", 100))


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _state0(cfg: dict) -> PhaseState:
    if "state0" not in cfg:
        raise ConfigError("config needs a 'state0' object with 'x' and 'p'")
    st = cfg["state0"]
    return PhaseState(np.array(st["x"], dtype=float), np.array(st["p"], dtype=float))


def _integrator(cfg: dict) -> IntegratorConfig:
    raw = cfg.get("integrator", {})
    try:
        return IntegratorConfig(
            method=raw.get("method", "rk45"),
            rel_tol=float(raw.get("rel_tol", 1e-10)),
            abs_tol=float(raw.get("abs_tol", 1e-10)),
            max_step=float(raw.get("max_step", math.inf)),
            dt=float(raw.get("dt", 1e-3)),
        )
    except ValueError as exc:
        raise ConfigError(f"bad integrator options: {exc}") from exc


def _sample_positions(rng, n: int, model) -> list[np.ndarray]:
    """Uniform positions in [-2, 2]^3, filtered to the model's domain."""
    admissible = monopole_admissible if isinstance(model, Monopole) else None
    pts: list[np.ndarray] = []
    tries = 0
    while len(pts) < n:
        tries += 1
        if tries > 100000:
            raise ConfigError("could not sample admissible points for this model")
        x = rng.uniform(-2.0, 2.0, 3)
        if admissible is not None and not admissible(x):
            continue
        pts.append(x)
    return pts


# ---------------------------------------------------------------------------
# trajectory commands


def _watch_for(model, s0: PhaseState):
    watch = list(known_integrals(model))
    if isinstance(model, ConstantB) and abs(s0.p[0]) > 1e-6:
        B = model.B
        watch.append(PhaseFunction("X5", lambda s: x5_integral(B, s)))
    return watch


def _trajectory_text(traj, names, fmt: str, extra=None) -> str:
    header = ["t", "x", "y", "z", "p1", "p2", "p3", "H", *names]
    columns = [traj.times, traj.x, traj.p, traj.energy,
               *(traj.diagnostics[n] for n in names)]
    if extra is not None:
        header.append(extra[0])
        columns.append(extra[1])
    table = np.column_stack(columns)
    if fmt == "json":
        return dumps_report({"columns": header, "rows": table}) + "\n"
    return _csv_text(header, table)


def _run_trajectory(ns, closed_form: bool) -> int:
    cfg = load_config(ns.config)
    model = model_from_config(cfg["system"])
    if "t_end" not in cfg:
        raise ConfigError("config needs 't_end'")
    s0 = _state0(cfg)
    watch = _watch_for(model, s0)
    traj = integrate(model, s0, float(cfg["t_end"]), _integrator(cfg), watch)
    names = [w.name for w in watch]

    extra = None
    if closed_form:
        if isinstance(model, ConstantB):
            refs = [helix_solution(model.B, s0, float(t)) for t in traj.times]
            ref = np.array([np.concatenate([r.x, r.p]) for r in refs])
            err = np.max(np.abs(np.hstack([traj.x, traj.p]) - ref), axis=1)
        elif isinstance(model, HelicalB):
            red = pendulum_reduction(model, s0)
            zc = helical_z_of_t(model, red, traj.times)
            err = np.abs(traj.x[:, 2] - np.atleast_1d(zc))
        else:
            raise ConfigError(
                "closed-form comparison is available for constant_b and helical only")
        extra = ("closed_form_error", err)

    _emit(_trajectory_text(traj, names, ns.format or "csv", extra), ns.out)
    return 0


def _cmd_simulate(ns) -> int:
    return _run_trajectory(ns, closed_form=False)


def _cmd_trajectory(ns) -> int:
    return _run_trajectory(ns, closed_form=ns.closed_form)


# ---------------------------------------------------------------------------
# verify


def _verify_specs(model) -> list[IntegralSpec]:
    # Runge-Lenz candidates are always tested for the monopole, so a
    # coulomb-only potential demonstrably fails verification.
    specs = known_integrals(model)
    if isinstance(model, Monopole) and not model.barrier:
        specs.extend(monopole_runge_lenz_specs(model.g, model.Q))
    return specs


def _const_vec(v):
    arr = np.array(v, dtype=float)
    if arr.shape != (3,):
        raise ConfigError("spec-file 's' must be null, 'zero', or 3 numbers")
    return arr


def _load_spec_file(path: str, model) -> list[IntegralSpec]:
    """User-supplied integral candidates: alpha entries plus constant or
    named s, m choices; {"known": NAME} pulls a built-in closed form."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read spec file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"spec file {path} is not valid JSON: {exc.msg}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("integrals"), list):
        raise ConfigError("spec file must be {\"integrals\": [...]}")
    known = {sp.name: sp for sp in _verify_specs(model)}
    out = []
    for i, ent in enumerate(data["integrals"]):
        if not isinstance(ent, dict):
            raise ConfigError(f"integrals[{i}] must be an object")
        if "known" in ent:
            name = ent["known"]
            if name not in known:
                raise ConfigError(
                    f"unknown integral {name!r}; this model has {sorted(known)}")
            out.append(known[name])
            continue
        name = ent.get("name", f"user{i}")
        alpha = ent.get("alpha", {})
        if not isinstance(alpha, dict):
            raise ConfigError(f"integrals[{i}].alpha must be an object")
        s_raw = ent.get("s")
        m_raw = ent.get("m")
        s_fn = None
        jac_s = None
        if s_raw is not None and s_raw != "zero":
            sv = _const_vec(s_raw)
            s_fn = lambda x, sv=sv: sv
            jac_s = lambda x: np.zeros((3, 3))
        m_fn = None
        grad_m = None
        if m_raw is not None and m_raw != "zero":
            if not isinstance(m_raw, (int, float)) or isinstance(m_raw, bool):
                raise ConfigError("spec-file 'm' must be null, 'zero', or a number")
            m_fn = lambda x, c=float(m_raw): c
            grad_m = lambda x: np.zeros(3)
        try:
            out.append(IntegralSpec(name, alpha, s=s_fn, m=m_fn,
                                    jac_s=jac_s, grad_m=grad_m))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"integrals[{i}]: {exc}") from exc
    if not out:
        raise ConfigError("spec file lists no integrals")
    return out


def _cmd_verify(ns) -> int:
    cfg = _config_for(ns)
    model = model_from_config(cfg["system"])
    tol = _resolve_tol(ns, cfg)
    n = _resolve_n_points(ns, cfg)
    seed = _resolve_seed(ns, cfg)
    rng = _rng(seed)
    specs = _load_spec_file(ns.spec, model) if ns.spec else _verify_specs(model)

    pts = _sample_positions(rng, n, model)
    states = [PhaseState(x, rng.uniform(-2.0, 2.0, 3)) for x in pts]

    by_eq = {k: 0.0 for k in RESIDUAL_KEYS}
    by_int = {}
    for sp in specs:
        worst = 0.0
        for x in pts:
            res = determining_residuals(sp, model, x, mode=ns.mode)
            for key, val in res.items():
                av = abs(val)
                by_eq[key] = max(by_eq[key], av)
                worst = max(worst, av)
        by_int[sp.name] = worst

    h_fn = hamiltonian_function(model)
    fns = [as_phase_function(sp, model) for sp in specs]
    bracket_h = {
        sp.name: max(abs(poisson_bracket(f, h_fn, s)) for s in states)
        for sp, f in zip(specs, fns)
    }
    # informational structure matrix, not a pass criterion
    k = len(fns)
    matrix = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            val = max(abs(poisson_bracket(fns[i], fns[j], s)) for s in states)
            matrix[i][j] = matrix[j][i] = val

    ok = max(by_eq.values()) < tol and max(bracket_h.values()) < tol
    report = {
        "system": cfg["system"],
        "mode": ns.mode,
        "seed": seed,
        "n_points": n,
        "tolerance": tol,
        "integrals": [sp.name for sp in specs],
        "max_residual_by_equation": by_eq,
        "max_residual_by_integral": by_int,
        "bracket_with_h": bracket_h,
        "bracket_matrix": matrix,
        "pass": ok,
    }
    _emit(dumps_report(report) + "\n", ns.out)
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# algebra

_CASIMIR_TOL = 1e-10


def _cmd_algebra(ns) -> int:
    cfg = _config_for(ns)
    sys_cfg = cfg["system"]
    kind = sys_cfg.get("model")
    tol = _resolve_tol(ns, cfg)
    n = _resolve_n_points(ns, cfg)
    seed = _resolve_seed(ns, cfg)
    rng = _rng(seed)

    if kind == "constant_b":
        B = float(sys_cfg["B"])
        states = sample_states(rng, n, p1_min=0.1)
        pairs = verify_bracket_table(B, states)
        cas = casimir_check(B, states)
        ok = (pairs["max_discrepancy"] < tol
              and cas["max_residual"] < _CASIMIR_TOL)
        report = {
            "system": "constant_b",
            "B": B,
            "seed": seed,
            "n_states": n,
            "tolerance": tol,
            "casimir_tolerance": _CASIMIR_TOL,
            "pairs": pairs["pairs"],
            "max_discrepancy": pairs["max_discrepancy"],
            "casimirs": {"first": cas["first_casimir"],
                         "second": cas["second_casimir"]},
            "pass": ok,
        }
    elif kind == "monopole":
        g = float(sys_cfg["g"])
        states = sample_states(rng, n, admissible=monopole_admissible)
        rep = monopole_closure_check(g, states, Q=float(sys_cfg.get("Q", 0.0)))
        ok = rep["max_discrepancy"] < tol
        report = {
            "system": "monopole",
            "g": g,
            "seed": seed,
            "n_states": n,
            "tolerance": tol,
            "checks": rep["checks"],
            "max_discrepancy": rep["max_discrepancy"],
            "pass": ok,
        }
    else:
        raise ConfigError("algebra supports the constant_b and monopole models")
    _emit(dumps_report(report) + "\n", ns.out)
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# spectrum


def _grid(cfg: dict) -> Grid1D:
    if "grid" not in cfg:
        raise ConfigError("config needs a 'grid' object with lo, hi, n")
    g = cfg["grid"]
    try:
        return Grid1D(float(g["lo"]), float(g["hi"]), int(g["n"]))
    except ValueError as exc:
        raise ConfigError(f"bad grid: {exc}") from exc


def _cmd_spectrum(ns) -> int:
    cfg = load_config(ns.config)
    kind = cfg["system"].get("model")
    hbar = float(cfg.get("hbar", 1.0))
    tol = _flag(ns, "tolerance", "tolerance")
    if tol is None:
        tol = cfg.get("tolerance")

    if kind == "constant_b":
        model = model_from_config(cfg["system"])
        grid = _grid(cfg)
        n_levels = int(cfg.get("n_levels", 6))
        k1, k2 = float(cfg.get("k1", 0.0)), float(cfg.get("k2", 0.0))
        res = landau_reduced_solve(model.B, k1, k2, hbar, grid, n_levels)
        analytic = [0.5 * k1**2 + hbar * model.B * (i + 0.5) for i in range(n_levels)]
        max_rel = max(abs(e - a) / abs(a) for e, a in zip(res.eigenvalues, analytic))
        report = {
            "system": "constant_b",
            "B": model.B,
            "hbar": hbar,
            "k1": k1,
            "k2": k2,
            "n_levels": n_levels,
            "grid": {"lo": grid.lo, "hi": grid.hi, "n": grid.n},
            "eigenvalues": list(res.eigenvalues),
            "analytic_reference": analytic,
            "max_rel_error": max_rel,
        }
        if ns.format == "csv":
            if ns.out is None:
                raise ConfigError("--format csv (eigenfunctions) requires --out")
            header = ["z"] + [f"f{i}" for i in range(n_levels)]
            table = np.column_stack([grid.points, res.eigenfunctions.T])
            _emit(_csv_text(header, table), ns.out)
            sys.stdout.write(dumps_report(report) + "\n")
        else:
            _emit(dumps_report(report) + "\n", ns.out)
        return 2 if tol is not None and max_rel > float(tol) else 0

    if kind == "helical":
        sys_cfg = cfg["system"]
        for key in ("K", "E"):
            if key not in cfg:
                raise ConfigError(f"helical spectrum config needs {key!r}")
        params = {"A_amp": float(sys_cfg["A_amp"]), "beta": float(sys_cfg["beta"]),
                  "K": float(cfg["K"]), "phi_K": float(cfg.get("phi_K", 0.0)),
                  "hbar": hbar, "E": float(cfg["E"])}
        res = helical_reduced_solve(**params)
        r_max = int(cfg.get("r_max", 5))
        table = mathieu_table(r_max, res.q)
        report = {
            "system": "helical",
            **params,
            "a": res.a,
            "q": res.q,
            "period": res.period,
            "monodromy_trace": float(res.monodromy[0, 0] + res.monodromy[1, 1]),
            "wronskian_drift": res.wronskian_drift,
            "r_max": r_max,
            "characteristic_values": {
                "even": list(table.even),
                "odd": list(table.odd),
            },
        }
        _emit(dumps_report(report) + "\n", ns.out)
        return 2 if tol is not None and res.wronskian_drift > float(tol) else 0

    raise ConfigError("spectrum supports the constant_b and helical models")


# ---------------------------------------------------------------------------
# fields-check


def _cmd_fields_check(ns) -> int:
    cfg = _config_for(ns)
    model = model_from_config(cfg["system"])
    tol = _resolve_tol(ns, cfg)
    n = _resolve_n_points(ns, cfg)
    seed = _resolve_seed(ns, cfg)
    pts = _sample_positions(_rng(seed), n, model)
    rep = divergence_checks(model, pts)
    ok = rep.max_div_b < tol and rep.max_curl_mismatch < tol
    report = {
        "system": cfg["system"],
        "seed": seed,
        "n_points": rep.n_points,
        "tolerance": tol,
        "max_div_b": rep.max_div_b,
        "max_curl_mismatch": rep.max_curl_mismatch,
        "max_div_a": rep.max_div_a,
        "pass": ok,
    }
    _emit(dumps_report(report) + "\n", ns.out)
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# parser and entry point


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        raise ConfigError(message)


def _add_common(sp, config_required: bool) -> None:
    sp.add_argument("--config", metavar="PATH", required=config_required,
                    help="JSON run configuration (see docs/config.schema.json)")
    sp.add_argument("--seed", type=int, default=None,
                    help="PCG64 seed for sampled points (default 0)")
    sp.add_argument("--out", metavar="PATH", default=None,
                    help="output file (default: stdout)")
    sp.add_argument("--format", choices=("csv", "json"), default=None,
                    help="artifact format where both make sense")
    sp.add_argument("--tolerance", type=float, default=None,
                    help="override the pass/fail tolerance")


def _add_sampled(sp) -> None:
    sp.add_argument("--system", choices=("constant_b", "helical", "monopole"),
                    default=None, help="use a default config for this model")
    sp.add_argument("--n-points", type=int, default=None,
                    help="number of sampled points/states (default 100)")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="magsuper",
                description="Charged-particle systems in static magnetic "
                            "fields: simulation, verification, spectra.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="integrate and export a trajectory")
    _add_common(sp, config_required=True)

    sp = sub.add_parser("trajectory",
                        help="like simulate, optionally with closed-form error")
    _add_common(sp, config_required=True)
    sp.add_argument("--closed-form", action="store_true",
                    help="append a closed_form_error column")

    sp = sub.add_parser("verify",
                        help="determining-equation residuals and {X,H} brackets")
    _add_common(sp, config_required=False)
    _add_sampled(sp)
    sp.add_argument("--potential", choices=("modified", "coulomb-only"),
                    default=None, help="monopole scalar-potential variant")
    sp.add_argument("--mode", choices=("classical", "quantum"),
                    default="classical", help="determining-equation mode")
    sp.add_argument("--spec", metavar="PATH", default=None,
                    help="JSON file of integral candidates to test instead")

    sp = sub.add_parser("algebra", help="bracket-table and closure reports")
    _add_common(sp, config_required=False)
    _add_sampled(sp)

    sp = sub.add_parser("spectrum", help="separated quantum eigenproblems")
    _add_common(sp, config_required=True)

    sp = sub.add_parser("fields-check", help="div B, curl A - B, div A report")
    _add_common(sp, config_required=False)
    _add_sampled(sp)
    sp.add_argument("--potential", choices=("modified", "coulomb-only"),
                    default=None, help="monopole scalar-potential variant")
    return p


_HANDLERS = {
    "simulate": _cmd_simulate,
    "trajectory": _cmd_trajectory,
    "verify": _cmd_verify,
    "algebra": _cmd_algebra,
    "spectrum": _cmd_spectrum,
    "fields-check": _cmd_fields_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        return _HANDLERS[ns.command](ns)
    except (MagsuperError, ValueError, OSError) as exc:
        print(f"magsuper: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
