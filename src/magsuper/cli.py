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
import functools
import json
import math
import numbers
import os
import sys

import numpy as np

from ._g17 import g17_table
from .algebra import (
    casimir_check,
    constantB_basis,
    monopole_admissible,
    monopole_closure_check,
    sample_states,
    sample_uniform,
    verify_bracket_table,
)
from .closedform import helix_solution, pendulum_reduction, helical_z_of_t
from .dynamics import IntegratorConfig, PhaseState, integrate
from .errors import OVERFLOW_MESSAGE, ConfigError, MagsuperError, ParameterError
from .fields import (ConstantB, HelicalB, Monopole, divergence_checks, field_record,
                     model_from_config)
from .integrals import (
    RESIDUAL_KEYS,
    IntegralSpec,
    _constant_spec,
    _hamiltonian_gradient,
    _integral_gradient,
    _worst_brackets,
    determining_residuals,
    integral_record,
    known_integrals,
    monopole_runge_lenz_specs,
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
    if isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype == float and obj.size:
        # a table: the same bytes as the lists below, from the array
        # conversion's "," and "\n" with the indents put in
        cells = "\n" + "  " * (indent + 2)
        rows = f"\n{pad}  ],\n{pad}  [" + cells
        text = g17_table(obj, _json_scalar)[:-1]
        text = text.replace("\n", "\0").replace(",", "," + cells).replace("\0", rows)
        return f"[\n{pad}  [{cells}{text}\n{pad}  ]\n{pad}]"
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
    """CSV of an (n, k) float table, each cell as `_fmt` writes it."""
    return ",".join(header) + "\n" + g17_table(table, _fmt)


# ---------------------------------------------------------------------------
# configuration schema and loading

#: JSON Schema for run configs, shipped beside this module as package data
with open(os.path.join(os.path.dirname(__file__), "config.schema.json"),
          encoding="utf-8") as _fh:
    CONFIG_SCHEMA = json.load(_fh)

_DEFAULT_SYSTEMS = {
    "constant_b": {"model": "constant_b", "B": 1.0},
    "helical": {"model": "helical", "A_amp": 1.0, "beta": 1.0},
    "monopole": {"model": "monopole", "g": 2.0, "Q": 1.0},
}


#: JSON Schema's types as jsonschema's draft 2020-12 tells them apart
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}
#: each bound keyword: the type of value it holds, and its test that refuses one
_BOUNDS = {"minItems": ("array", lambda v, n: len(v) < n),
           "maxItems": ("array", lambda v, n: len(v) > n),
           "minimum": ("number", lambda v, n: v < n),
           "maximum": ("number", lambda v, n: v > n),
           "exclusiveMinimum": ("number", lambda v, n: v <= n)}


def _accepts(schema: dict):
    """The predicate that holds for exactly the values that `schema` accepts
    under JSON Schema draft 2020-12, for the keywords of the config schema;
    it ignores the annotations $schema and title, and refuses any other."""
    tests = []
    for key, arg in schema.items():
        values = [arg] if key == "const" else arg
        if key == "type" and arg in [*_TYPES]:
            tests.append(_TYPES[arg])
        elif key == "properties":
            subs = {name: _accepts(sub) for name, sub in arg.items()}
            tests.append(lambda v, s=subs: not isinstance(v, dict) or all(
                s[k](x) for k, x in v.items() if k in s))
        elif key == "required":
            tests.append(lambda v, keys=arg: not isinstance(v, dict) or all(k in v for k in keys))
        elif key == "additionalProperties" and arg is False:
            known = frozenset(schema.get("properties", ()))
            tests.append(lambda v, known=known: not isinstance(v, dict) or v.keys() <= known)
        elif key == "items":
            tests.append(lambda v, sub=_accepts(arg): not isinstance(v, list) or all(map(sub, v)))
        elif key in _BOUNDS:
            kind, refused = _BOUNDS[key]
            tests.append(lambda v, is_a=_TYPES[kind], r=refused, n=arg: not is_a(v) or not r(v, n))
        elif key in ("const", "enum") and not any(isinstance(c, (list, dict)) for c in values):
            # JSON equality of scalars: bools stand apart from numbers
            tests.append(lambda v, values=values: any(
                v == c and isinstance(v, bool) == isinstance(c, bool) for c in values))
        elif key == "not":
            tests.append(lambda v, sub=_accepts(arg): not sub(v))
        elif key == "oneOf":
            tests.append(lambda v, subs=[*map(_accepts, arg)]: sum(sub(v) for sub in subs) == 1)
        elif key not in ("$schema", "title"):
            raise ValueError(f"schema keyword {key!r} with {arg!r} has no compiled test")
    return functools.reduce(lambda a, b: lambda v: a(v) and b(v), tests or [lambda v: True])


#: whether CONFIG_SCHEMA accepts a config, and each of its keys a flag's value
_ACCEPTS_CONFIG = _accepts(CONFIG_SCHEMA)
_ACCEPTS_KEY = {key: _accepts(sub) for key, sub in CONFIG_SCHEMA["properties"].items()}


def _refusal(schema: dict, value) -> tuple[str, str]:
    """The JSON path and message of jsonschema's first error of `value`, by path."""
    import jsonschema  # only to word a refusal

    errors = jsonschema.Draft202012Validator(schema).iter_errors(value)
    err = min(errors, key=lambda e: str(e.json_path), default=None)
    return (("$", "the schema's compiled test refuses it") if err is None
            else (str(err.json_path), err.message))


def validate_config(cfg: dict) -> None:
    """A ConfigError in jsonschema's words for a config that CONFIG_SCHEMA refuses."""
    if not _ACCEPTS_CONFIG(cfg):
        try:
            where, message = _refusal(CONFIG_SCHEMA, cfg)
        except RecursionError as exc:  # a value nested just within what json reads
            raise ConfigError("config nests arrays or objects too deeply") from exc
        raise ConfigError(f"config schema violation at {where}: {message}")


def _no_constant(literal: str):
    # json accepts NaN, Infinity and -Infinity, which are not JSON numbers
    raise ConfigError(f"{literal} is not a JSON number")


def _finite(value, text: str):
    """value if a double holds it as a finite number, else a ConfigError
    naming `text`."""
    try:
        if math.isfinite(value):  # OverflowError for an int beyond a double
            return value
    except OverflowError:
        pass
    raise ConfigError(f"{text if len(text) <= 24 else text[:20] + '...'} is not a finite double")


def _json_int(text: str) -> int:
    # a double holds the digits first, so that int() stays within its digit limit
    _finite(float(text), text)
    return int(text)


#: json hooks of config and spec files: every number is a finite double
_JSON_HOOKS = {"parse_constant": _no_constant, "parse_int": _json_int,
               "parse_float": lambda text: _finite(float(text), text)}


def _read_json(path: str, what: str):
    """The JSON value in file `path`, each number a finite double; a
    ConfigError that names `what` when the file cannot be read or parsed."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, **_JSON_HOOKS)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{what} {path} is not valid JSON "
            f"(line {exc.lineno}, column {exc.colno}): {exc.msg}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{what} {path} nests arrays or objects too deeply") from exc


def load_config(path: str) -> dict:
    cfg = _read_json(path, "config")
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


def _setting(ns, cfg: dict, key: str, default, kind):
    """kind of the flag that overrides config key `key`, held to the schema
    bounds of that key; else of the config's value, else of default. None
    when all three are None."""
    value = getattr(ns, key, None)
    if value is None:
        value = cfg.get(key, default)
    else:
        flag = "--" + key.replace("_", "-")
        # argparse's float() reads nan and inf, and int() integers beyond a
        # double, which a config cannot hold
        _finite(value, f"{flag}: {value}")
        if not _ACCEPTS_KEY[key](value):
            raise ConfigError(f"{flag}: {_refusal(CONFIG_SCHEMA['properties'][key], value)[1]}")
    return None if value is None else kind(value)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _sampled(ns) -> tuple:
    """config, model, tolerance, n_points and seed of a command that
    checks sampled points."""
    cfg = _config_for(ns)
    model = model_from_config(cfg["system"])
    return (cfg, model, _setting(ns, cfg, "tolerance", 1e-6, float),
            _setting(ns, cfg, "n_points", 100, int), _setting(ns, cfg, "seed", 0, int))


def _state0(cfg: dict) -> PhaseState:
    if "state0" not in cfg:
        raise ConfigError("config needs a 'state0' object with 'x' and 'p'")
    st = cfg["state0"]
    return PhaseState(np.array(st["x"], dtype=float), np.array(st["p"], dtype=float))


def _sample_positions(rng, n: int, model) -> np.ndarray:
    """n uniform positions in [-2, 2]^3, filtered to the model's domain."""
    return sample_uniform(rng, n, 3, monopole_admissible if isinstance(model, Monopole) else None)


# ---------------------------------------------------------------------------
# trajectory commands


def _watch_for(model, s0: PhaseState):
    watch = list(known_integrals(model))
    if isinstance(model, ConstantB) and abs(s0.p[0]) > 1e-6:
        watch.append(constantB_basis(model.B)[4])  # X5
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
    traj = integrate(model, s0, float(cfg["t_end"]),
                     IntegratorConfig(**cfg.get("integrator", {})), watch)
    names = [w.name for w in watch]

    extra = None
    if closed_form:
        if isinstance(model, ConstantB):
            ref = np.hstack(helix_solution(model.B, s0, traj.times))
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


# ---------------------------------------------------------------------------
# verify


def _verify_specs(model) -> list[IntegralSpec]:
    # Runge-Lenz candidates are always tested for the monopole, so a
    # coulomb-only potential demonstrably fails verification.
    specs = known_integrals(model)
    if isinstance(model, Monopole) and not model.barrier:
        specs.extend(monopole_runge_lenz_specs(model.g, model.Q))
    return specs


def _load_spec_file(path: str, model) -> list[IntegralSpec]:
    """User-supplied integral candidates, each of its own name: alpha
    entries plus constant or named s, m choices; {"known": NAME} pulls a
    built-in closed form. Constant s and m are functions of stacks,
    generated from one statement, as the built-ins' are."""
    data = _read_json(path, "spec file")
    if not isinstance(data, dict) or not isinstance(data.get("integrals"), list):
        raise ConfigError("spec file must be {\"integrals\": [...]}")
    known = {sp.name: sp for sp in _verify_specs(model)}
    out = []
    for i, ent in enumerate(data["integrals"]):
        if not isinstance(ent, dict):
            raise ConfigError(f"integrals[{i}] must be an object")
        name = ent.get("known", ent.get("name", f"user{i}"))
        if "known" in ent and not (isinstance(name, str) and name in known):
            raise ConfigError(f"unknown integral {name!r}; this model has {sorted(known)}")
        if not isinstance(name, str):
            raise ConfigError(f"integrals[{i}].name must be a string")
        if name in (sp.name for sp in out):
            raise ConfigError(f"integrals[{i}] repeats the name {name!r}")
        if "known" in ent:
            out.append(known[name])
            continue
        alpha = ent.get("alpha", {})
        if not isinstance(alpha, dict):
            raise ConfigError(f"integrals[{i}].alpha must be an object")
        s, m = (None if v == "zero" else v for v in (ent.get("s"), ent.get("m")))
        if s is not None and not (isinstance(s, list) and len(s) == 3
                                  and all(map(_TYPES["number"], s))):
            raise ConfigError(f"integrals[{i}].s must be null, 'zero', or 3 numbers")
        if m is not None and not _TYPES["number"](m):
            raise ConfigError(f"integrals[{i}].m must be null, 'zero', or a number")
        try:
            out.append(_constant_spec(name, alpha, s, m))
        except ParameterError as exc:
            raise ConfigError(f"integrals[{i}]: {exc}") from exc
    if not out:
        raise ConfigError("spec file lists no integrals")
    return out


def _cmd_verify(ns) -> int:
    cfg, model, tol, n, seed = _sampled(ns)
    hbar = float(cfg.get("hbar", 1.0))
    rng = _rng(seed)
    specs = _load_spec_file(ns.spec, model) if ns.spec else _verify_specs(model)

    xs = _sample_positions(rng, n, model)
    ps = rng.uniform(-2.0, 2.0, xs.shape)  # the draws of one momentum per point
    rec = field_record(model, xs)

    # one pass over the stack per spec, from its IntegralRecord, which is
    # dropped before the next spec; the maxima are over axis 0
    by_eq = dict.fromkeys(RESIDUAL_KEYS, 0.0)
    by_int, grads = {}, []
    for sp in specs:
        irec = integral_record(sp, rec)
        res = determining_residuals(sp, model, irec, mode=ns.mode, hbar=hbar)
        worst = dict(zip(res, np.max(np.abs(list(res.values())), axis=1).tolist()))
        grads.append(_integral_gradient(sp, irec, ps))
        del irec, res
        for key, val in worst.items():
            by_eq[key] = max(by_eq[key], val)
        by_int[sp.name] = max(0.0, *worst.values())

    # max |{f_i, f_j}| over the states, with H as the last function
    grads.append(_hamiltonian_gradient(rec, ps))
    worst = _worst_brackets(grads, {})
    bracket_h = {sp.name: float(v) for sp, v in zip(specs, worst[:-1, -1])}
    # informational structure matrix, not a pass criterion
    matrix = worst[:-1, :-1].tolist()

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
    cfg, model, tol, n, seed = _sampled(ns)
    rng = _rng(seed)

    if isinstance(model, ConstantB):
        B = model.B
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
    elif isinstance(model, Monopole):
        states = sample_states(rng, n, admissible=monopole_admissible)
        rep = monopole_closure_check(model.g, states, Q=model.Q)
        ok = rep["max_discrepancy"] < tol
        report = {
            "system": "monopole",
            "g": model.g,
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
    return Grid1D(float(g["lo"]), float(g["hi"]), int(g["n"]))


def _cmd_spectrum(ns) -> int:
    cfg = load_config(ns.config)
    model = model_from_config(cfg["system"])
    hbar = float(cfg.get("hbar", 1.0))
    tol = _setting(ns, cfg, "tolerance", None, float)

    if isinstance(model, ConstantB):
        grid = _grid(cfg)
        n_levels = int(cfg.get("n_levels", 6))
        k1, k2 = float(cfg.get("k1", 0.0)), float(cfg.get("k2", 0.0))
        res = landau_reduced_solve(model.B, k1, k2, hbar, grid, n_levels)
        analytic = [0.5 * k1**2 + hbar * abs(model.B) * (i + 0.5) for i in range(n_levels)]
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
        return 2 if tol is not None and max_rel > tol else 0

    if isinstance(model, HelicalB):
        for key in ("K", "E"):
            if key not in cfg:
                raise ConfigError(f"helical spectrum config needs {key!r}")
        params = {"A_amp": model.A_amp, "beta": model.beta,
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
        return 2 if tol is not None and res.wronskian_drift > tol else 0

    raise ConfigError("spectrum supports the constant_b and helical models")


# ---------------------------------------------------------------------------
# fields-check


def _cmd_fields_check(ns) -> int:
    cfg, model, tol, n, seed = _sampled(ns)
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


#: the flags that some commands read, beyond --config and --out
_FLAGS = {
    "--seed": {"type": int, "help": "PCG64 seed for sampled points (default 0)"},
    "--format": {"choices": ("csv", "json"), "help": "artifact format"},
    "--tolerance": {"type": float, "help": "override the pass/fail tolerance"},
    "--system": {"choices": ("constant_b", "helical", "monopole"),
                 "help": "use a default config for this model"},
    "--n-points": {"type": int, "help": "number of sampled points/states (default 100)"},
    "--potential": {"choices": ("modified", "coulomb-only"),
                    "help": "monopole scalar-potential variant"},
}
#: the flags of the commands that check sampled points
_SAMPLED = ("--seed", "--tolerance", "--system", "--n-points")


def _add_command(sub, name: str, text: str, config_required: bool, *flags: str):
    sp = sub.add_parser(name, help=text)
    sp.add_argument("--config", metavar="PATH", required=config_required,
                    help="JSON run configuration (see src/magsuper/config.schema.json)")
    sp.add_argument("--out", metavar="PATH", default=None,
                    help="output file (default: stdout)")
    for flag in flags:
        sp.add_argument(flag, default=None, **_FLAGS[flag])
    return sp


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="magsuper",
                description="Charged-particle systems in static magnetic "
                            "fields: simulation, verification, spectra.")
    sub = p.add_subparsers(dest="command", required=True)
    _add_command(sub, "simulate", "integrate and export a trajectory", True, "--format")
    sp = _add_command(sub, "trajectory", "like simulate, optionally with closed-form error",
                      True, "--format")
    sp.add_argument("--closed-form", action="store_true",
                    help="append a closed_form_error column")
    sp = _add_command(sub, "verify", "determining-equation residuals and {X,H} brackets",
                      False, *_SAMPLED, "--potential")
    sp.add_argument("--mode", choices=("classical", "quantum"),
                    default="classical", help="determining-equation mode")
    sp.add_argument("--spec", metavar="PATH", default=None,
                    help="JSON file of integral candidates to test instead")
    _add_command(sub, "algebra", "bracket-table and closure reports", False, *_SAMPLED)
    _add_command(sub, "spectrum", "separated quantum eigenproblems", True,
                 "--format", "--tolerance")
    _add_command(sub, "fields-check", "div B, curl A - B, div A report", False,
                 *_SAMPLED, "--potential")
    return p


_HANDLERS = {
    "simulate": lambda ns: _run_trajectory(ns, closed_form=False),
    "trajectory": lambda ns: _run_trajectory(ns, closed_form=ns.closed_form),
    "verify": _cmd_verify,
    "algebra": _cmd_algebra,
    "spectrum": _cmd_spectrum,
    "fields-check": _cmd_fields_check,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        ns = _parser().parse_args(argv)
        with np.errstate(over="raise", invalid="raise"):
            return _HANDLERS[ns.command](ns)
    except ArithmeticError:
        # numpy's overflow, or its inf - inf of values that Python floats let
        # overflow; Python's overflow of a float pow, or its division by a
        # square that underflowed to 0: such parameters exit 1 instead of
        # reporting inf or nan
        message = OVERFLOW_MESSAGE
    except (MagsuperError, OSError) as exc:
        message = str(exc)
    print(f"magsuper: error: {message}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
