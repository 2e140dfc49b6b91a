"""Seeded inputs, task lists and output oracles for the benchmark workloads.

Each workload has one generator. The seed varies states, sample points
and spectral parameters inside named regimes while the system parameters
stay at their documented defaults, so the work per task is comparable
across seeds. A task is either a ``magsuper`` CLI invocation (the
program sees only the generated config file and arguments) or a library
call; every task carries an oracle built on ``oracles`` that judges its
artifact without calling magsuper.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles

# documented default systems (README / `--system NAME`)
SYSTEMS = {
    "constant_b": {"model": "constant_b", "B": 1.0},
    "helical": {"model": "helical", "A_amp": 1.0, "beta": 1.0},
    "monopole": {"model": "monopole", "g": 2.0, "Q": 1.0},
}

SIZES = {
    "full": {
        "verify_n": {"monopole": 10, "constant_b": 40, "helical": 40},
        "algebra_n": 60, "fields_n": 400,
        "orbits_each": 2, "cb_t": 40.0, "hel_t": 60.0, "kepler_periods": 2, "kepler_a": 8.0,
        "boris_periods": 0.5, "boris_dt": 0.1, "hel_boris_t": 10.0,
        "hel_boris_dt": 0.005, "lib_n": 20000, "lib_t": 200.0, "helix_n": 2000,
        "landau_n": 300000, "landau_levels": 4, "landau_tol": 1e-6,
        "csv_n": 20000, "csv_levels": 8, "csv_tol": 1e-5,
        "mathieu_count": 12, "r_max": 8,
    },
    "tiny": {
        "verify_n": {"monopole": 3, "constant_b": 3, "helical": 3},
        "algebra_n": 5, "fields_n": 20,
        "orbits_each": 1, "cb_t": 5.0, "hel_t": 5.0, "kepler_periods": 1, "kepler_a": 8.0,
        "boris_periods": 0.05, "boris_dt": 0.1, "hel_boris_t": 1.0,
        "hel_boris_dt": 0.01, "lib_n": 200, "lib_t": 20.0, "helix_n": 50,
        "landau_n": 2000, "landau_levels": 2, "landau_tol": 1e-3,
        "csv_n": 1000, "csv_levels": 2, "csv_tol": 1e-3,
        "mathieu_count": 2, "r_max": 2,
    },
}

# command metric of every task group, per workload
GROUPS = {
    "checks": ("verify_s", "algebra_s", "fields_check_s"),
    "orbits": ("rk45_s", "boris_s", "closed_form_s"),
    "spectra": ("landau_s", "eigenfunctions_s", "mathieu_s"),
}


@dataclass
class Artifact:
    """What one task produced: the output file, captured stdout, exit code."""

    data: bytes
    stdout: bytes
    rc: int | None


@dataclass
class Task:
    """One unit of a pass.

    CLI tasks run ``argv`` with ``{config}`` and ``{out}`` replaced by the
    paths of the written config and the artifact; library tasks run
    ``call(magsuper)`` and return the artifact bytes. ``check`` returns
    the problems it found in an artifact (empty when correct).
    """

    name: str
    group: str
    check: Callable[[Artifact], list]
    argv: list = field(default_factory=list)
    config: dict | None = None
    expect_rc: int = 0
    call: Callable | None = None


# ---------------------------------------------------------------------------
# shared check helpers


def _json(art: Artifact, stdout: bool = False) -> dict:
    return json.loads((art.stdout if stdout else art.data).decode("utf-8"))


def _csv(data: bytes):
    text = data.decode("utf-8")
    header = text.split("\n", 1)[0].split(",")
    rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    return header, rows


def _expect(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _guarded(check):
    """Turn a parse error or an exception inside a check into a problem."""

    def run(art: Artifact) -> list:
        try:
            return check(art)
        except Exception as exc:  # a malformed artifact is a failed task
            return [f"check raised {type(exc).__name__}: {exc}"]

    return run


# ---------------------------------------------------------------------------
# checks workload: verify, algebra, fields-check at seeded sample points


def _report_check(n_points_key: str, n_points: int, seed: int, want_pass: bool,
                  extra=None):
    def check(art: Artifact) -> list:
        rep = _json(art)
        problems = []
        _expect(problems, rep["pass"] is want_pass, f"pass is {rep['pass']}")
        _expect(problems, rep[n_points_key] == n_points,
                f"{n_points_key} {rep[n_points_key]} != {n_points}")
        _expect(problems, rep["seed"] == seed, "seed not echoed")
        if extra is not None:
            extra(rep, problems)
        return problems

    return _guarded(check)


def _verify_extra(rep, problems):
    tol = rep["tolerance"]
    worst = max(max(rep["max_residual_by_equation"].values()),
                max(rep["bracket_with_h"].values()))
    _expect(problems, (worst < tol) is rep["pass"], "pass disagrees with the gates")
    _expect(problems, len(rep["bracket_matrix"]) == len(rep["integrals"]),
            "bracket matrix shape")


def _coulomb_extra(rep, problems):
    _verify_extra(rep, problems)
    bad = [k for k, v in rep["bracket_with_h"].items() if v >= rep["tolerance"]]
    _expect(problems, any(k.startswith("R") for k in bad),
            "no Runge-Lenz bracket fails without the barrier")


def _algebra_extra(rep, problems):
    _expect(problems, rep["max_discrepancy"] < rep["tolerance"], "discrepancy over tolerance")
    if rep["system"] == "constant_b":
        _expect(problems, len(rep["pairs"]) == 21, "expected 21 bracket pairs")
        _expect(problems, max(rep["casimirs"].values()) < rep["casimir_tolerance"],
                "Casimir residual over tolerance")


def _fields_extra(rep, problems):
    tol = rep["tolerance"]
    _expect(problems, rep["max_div_b"] < tol and rep["max_curl_mismatch"] < tol,
            "div B or curl A - B over tolerance")


def checks(rng: np.random.Generator, size: dict) -> list[Task]:
    tasks = []

    def cfg(system: str, n: int) -> dict:
        return {"system": dict(SYSTEMS[system]), "n_points": n,
                "seed": int(rng.integers(0, 2**31 - 1))}

    # the monopole runs are split in two, so calibration brackets shorter
    # intervals (see run.calibrate)
    for system, copies in (("monopole", 2), ("constant_b", 1), ("helical", 1)):
        for i in range(copies):
            c = cfg(system, size["verify_n"][system])
            tasks.append(Task(
                f"verify-{system}-{i}", "verify_s",
                _report_check("n_points", c["n_points"], c["seed"], True, _verify_extra),
                ["verify", "--config", "{config}", "--out", "{out}"], c))
    for i in range(2):
        c = cfg("monopole", size["verify_n"]["monopole"])
        tasks.append(Task(
            f"verify-monopole-coulomb-only-{i}", "verify_s",
            _report_check("n_points", c["n_points"], c["seed"], False, _coulomb_extra),
            ["verify", "--config", "{config}", "--potential", "coulomb-only",
             "--out", "{out}"], c, expect_rc=2))
    for system in ("constant_b", "monopole"):
        c = cfg(system, size["algebra_n"])
        tasks.append(Task(
            f"algebra-{system}", "algebra_s",
            _report_check("n_states", c["n_points"], c["seed"], True, _algebra_extra),
            ["algebra", "--config", "{config}", "--out", "{out}"], c))
    for system in ("monopole", "constant_b", "helical"):
        c = cfg(system, size["fields_n"])
        tasks.append(Task(
            f"fields-check-{system}", "fields_check_s",
            _report_check("n_points", c["n_points"], c["seed"], True, _fields_extra),
            ["fields-check", "--config", "{config}", "--out", "{out}"], c))
    return tasks


# ---------------------------------------------------------------------------
# orbits workload: RK45 and Boris trajectories, closed forms


def _constant_b_state(rng):
    x = rng.uniform(-1.0, 1.0, 3)
    p = rng.uniform(-1.0, 1.0, 3)
    p[0] = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.0)
    return x, p


def _helical_state(rng, system: dict, regime: str):
    """Initial state with pendulum constant kappa inside the named regime.

    Librating draws kappa in [-0.4, 0.4], rotating in [1.7, 2.3]: both
    far from the separatrix band around kappa = 1 and from rest at -1.
    """
    amp, beta, phi0 = system["A_amp"], system["beta"], system.get("phi0", 0.0)
    pmod = rng.uniform(0.9, 1.1)
    psi = rng.uniform(0.0, 2.0 * math.pi)
    p1, p2 = pmod * math.cos(psi), pmod * math.sin(psi)
    if regime == "librating":
        kappa = rng.uniform(-0.4, 0.4)
        amplitude = math.acos(-kappa)
        theta0 = rng.uniform(-0.8, 0.8) * amplitude
    else:
        kappa = rng.uniform(1.7, 2.3)
        theta0 = rng.uniform(-math.pi, math.pi)
    zdot = rng.choice([-1.0, 1.0]) * math.sqrt(2.0 * amp * pmod * (kappa + math.cos(theta0)))
    z0 = beta * theta0 + beta * math.atan2(p2, p1) - phi0
    x = np.array([rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), z0])
    return x, np.array([p1, p2, zdot])


@dataclass
class KeplerOrbit:
    """A bound monopole orbit (MIC-Kepler) with its conserved data."""

    x0: np.ndarray
    p0: np.ndarray
    energy: float
    period: float
    r_min: float
    r_max: float


def _kepler_orbit(rng, system: dict, a: float) -> KeplerOrbit:
    """Bound orbit of semi-major axis a on a cone clear of the Dirac string.

    The conserved X = l^A + g x/|x| fixes the cone (half-angle acos(g/|X|))
    and the orbit is a Kepler ellipse with angular momentum |X|, so
    E = -Q/(2a) and T = 2 pi Q / (-2E)^(3/2). The cone axis stays within
    30 degrees of +z, so the orbit keeps well away from the negative z-axis.
    """
    g, q = system["g"], system["Q"]
    ecc = rng.uniform(0.33, 0.42)
    big_l = math.sqrt(q * a * (1.0 - ecc * ecc))
    energy = -q / (2.0 * a)
    pol, az = math.radians(rng.uniform(0.0, 30.0)), rng.uniform(0.0, 2.0 * math.pi)
    axis = np.array([math.sin(pol) * math.cos(az), math.sin(pol) * math.sin(az), math.cos(pol)])
    e1 = np.cross(axis, [1.0, 0.0, 0.0] if abs(axis[0]) < 0.9 else [0.0, 1.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    half = math.acos(g / big_l)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    r_min, r_max = a * (1.0 - ecc), a * (1.0 + ecc)
    r0 = rng.uniform(r_min + 0.1 * (r_max - r_min), r_max - 0.1 * (r_max - r_min))
    xhat = math.cos(half) * axis + math.sin(half) * (math.cos(phi) * e1 + math.sin(phi) * e2)
    x = r0 * xhat
    l_vec = big_l * axis - g * xhat
    vr = rng.choice([-1.0, 1.0]) * math.sqrt(
        2.0 * (energy - big_l**2 / (2.0 * r0**2) + q / r0))
    v = vr * xhat + np.cross(l_vec, x) / r0**2
    a_fn, _, _ = oracles.potentials(system)
    period = 2.0 * math.pi * q / (-2.0 * energy) ** 1.5
    return KeplerOrbit(x, v - a_fn(x), energy, period, r_min, r_max)


def _state0(x, p) -> dict:
    return {"x": [float(v) for v in x], "p": [float(v) for v in p]}


def _trajectory_check(system: dict, x0, p0, t_end: float, closed_form: bool):
    """Closed-form error, energy and watch drift, and a reference orbit.

    RK45 at the default rel_tol 1e-10 over about 2000 steps leaves
    errors near 1e-8 relative in H and below 1e-6 in the state, so the
    bounds (1e-7 relative for H, 1e-5 for states) leave a margin of ten
    while a wrong formula or a broken integrator misses them by far.
    """

    def check(art: Artifact) -> list:
        header, rows = _csv(art.data)
        problems = []
        n_watch = len(header) - 8 - (1 if closed_form else 0)
        _expect(problems, n_watch >= 1, "no watched integrals")
        _expect(problems, np.array_equal(rows[0, 1:7], np.concatenate([x0, p0])),
                "first row is not the initial state")
        _expect(problems, rows[-1, 0] == t_end, "last row is not at t_end")
        h0 = oracles.energy(system, x0, p0)
        _expect(problems, abs(rows[0, 7] - h0) < 1e-12 * max(1.0, abs(h0)),
                "H column disagrees with the reference energy")
        _expect(problems, np.max(np.abs(rows[:, 7] - h0)) < 1e-7 * max(1.0, abs(h0)),
                "energy drift")
        watch = rows[:, 8:8 + n_watch]
        _expect(problems, np.max(np.abs(watch - watch[0])) < 1e-6, "watched integral drift")
        if closed_form:
            _expect(problems, header[-1] == "closed_form_error"
                    and np.max(rows[:, -1]) < 1e-5, "closed-form error over 1e-5")
        ref = oracles.reference_orbit(system, x0, p0, t_end)
        idx = np.unique(np.linspace(0, len(rows) - 1, 8).astype(int))
        dev = max(np.max(np.abs(rows[i, 1:7] - ref(rows[i, 0]))) for i in idx)
        _expect(problems, dev < 1e-5, f"deviates {dev:.3g} from the reference orbit")
        return problems

    return _guarded(check)


def _kepler_closure_check(system: dict, orbit: KeplerOrbit):
    """Bound orbits close at multiples of the Kepler period."""

    def check(art: Artifact) -> list:
        _, rows = _csv(art.data)
        problems = []
        _expect(problems, np.array_equal(rows[0, 1:7], np.concatenate([orbit.x0, orbit.p0])),
                "first row is not the initial state")
        gap = float(np.linalg.norm(rows[-1, 1:4] - orbit.x0))
        _expect(problems, gap < 1e-6 * orbit.r_max, f"orbit does not close: gap {gap:.3g}")
        _expect(problems, abs(rows[0, 7] - orbit.energy) < 1e-12,
                "initial energy differs from -Q/(2a)")
        _expect(problems, np.max(np.abs(rows[:, 7] - orbit.energy)) < 1e-9, "energy drift")
        watch = rows[:, 8:]
        _expect(problems, watch.shape[1] == 7, "expected 7 watched integrals")
        _expect(problems, np.max(np.abs(watch - watch[0])) < 1e-6, "watched integral drift")
        return problems

    return _guarded(check)


def _boris_monopole_check(system: dict, orbit: KeplerOrbit):
    """Energy drift small; radius and speed inside the Kepler orbit's range."""
    g, q = system["g"], system["Q"]
    rs = np.linspace(0.99 * orbit.r_min, 1.01 * orbit.r_max, 2001)
    v_max = float(np.sqrt(np.max(2.0 * (orbit.energy + q / rs - 0.5 * g * g / rs**2))))
    a_fn, _, _ = oracles.potentials(system)

    def check(art: Artifact) -> list:
        _, rows = _csv(art.data)
        problems = []
        _expect(problems, np.max(np.abs(rows[:, 7] - orbit.energy)) < 1e-4 * abs(orbit.energy),
                "Boris energy drift over 1e-4 relative")
        r = np.linalg.norm(rows[:, 1:4], axis=1)
        _expect(problems, np.all((r > 0.99 * orbit.r_min) & (r < 1.01 * orbit.r_max)),
                "radius leaves the Kepler range")
        speed = np.array([np.linalg.norm(row[4:7] + a_fn(row[1:4])) for row in rows])
        _expect(problems, np.max(speed) <= v_max * 1.001, "speed exceeds the orbit's bound")
        return problems

    return _guarded(check)


def _boris_helical_check(system: dict):
    """V = 0, so the Boris rotation keeps |v| and H fixed to rounding."""
    a_fn, _, _ = oracles.potentials(system)

    def check(art: Artifact) -> list:
        doc = _json(art)
        rows = np.array(doc["rows"], dtype=float)
        problems = []
        _expect(problems, doc["columns"][:8] == ["t", "x", "y", "z", "p1", "p2", "p3", "H"],
                "unexpected columns")
        speed = np.array([np.linalg.norm(row[4:7] + a_fn(row[1:4])) for row in rows])
        _expect(problems, np.max(np.abs(speed - speed[0])) < 1e-9 * speed[0],
                "|v| not conserved by the Boris rotation")
        _expect(problems, np.max(np.abs(rows[:, 7] - rows[0, 7])) < 1e-9, "energy drift")
        return problems

    return _guarded(check)


def _closed_form_call(helical: dict, states, cb: dict, cb_state, times, helix_times):
    def call(ms) -> bytes:
        closedform = ms.closedform
        model = ms.fields.HelicalB(helical["A_amp"], helical["beta"])
        parts = []
        for x0, p0 in states:
            s0 = ms.dynamics.PhaseState(x0, p0)
            red = closedform.pendulum_reduction(model, s0)
            parts.append(np.asarray(closedform.helical_z_of_t(model, red, times)))
        s0 = ms.dynamics.PhaseState(*cb_state)
        for t in helix_times:
            s = closedform.helix_solution(cb["B"], s0, float(t))
            parts.append(np.concatenate([s.x, s.p]))
        return np.concatenate(parts).tobytes()

    return call


def _closed_form_check(helical: dict, states, cb: dict, cb_state, times, helix_times):
    def check(art: Artifact) -> list:
        data = np.frombuffer(art.data, dtype=float)
        n, problems = len(times), []
        _expect(problems, data.size == len(states) * n + 6 * len(helix_times),
                "unexpected artifact size")
        idx = np.unique(np.linspace(0, n - 1, 8).astype(int))
        for k, (x0, p0) in enumerate(states):
            ref = oracles.reference_orbit(helical, x0, p0, float(times[-1]))
            z = data[k * n:(k + 1) * n]
            dev = max(abs(z[i] - ref(times[i])[2]) for i in idx)
            _expect(problems, dev < 1e-7, f"z(t) of state {k} deviates {dev:.3g}")
        helix = data[len(states) * n:].reshape(-1, 6)
        ref = oracles.reference_orbit(cb, *cb_state, float(helix_times[-1]))
        hidx = np.unique(np.linspace(0, len(helix_times) - 1, 8).astype(int))
        dev = max(np.max(np.abs(helix[i] - ref(helix_times[i]))) for i in hidx)
        _expect(problems, dev < 1e-8, f"helix deviates {dev:.3g}")
        return problems

    return _guarded(check)


def orbits(rng: np.random.Generator, size: dict) -> list[Task]:
    cb, hel, mono = SYSTEMS["constant_b"], SYSTEMS["helical"], SYSTEMS["monopole"]
    tasks = []

    # several short trajectories rather than one long one: the work per
    # pass varies less across seeds, and calibration brackets each of them
    runs = [(cb, "constant_b", None, size["cb_t"])] * size["orbits_each"]
    for regime in ("librating", "rotating"):
        runs += [(hel, "helical", regime, size["hel_t"])] * size["orbits_each"]
    for i, (system, name, regime, t_end) in enumerate(runs):
        if regime is None:
            x0, p0 = _constant_b_state(rng)
        else:
            x0, p0 = _helical_state(rng, system, regime)
            name = f"{name}-{regime}"
        cfg = {"system": dict(system), "state0": _state0(x0, p0), "t_end": t_end}
        tasks.append(Task(f"trajectory-{name}-{i}", "rk45_s",
                          _trajectory_check(system, x0, p0, t_end, True),
                          ["trajectory", "--closed-form", "--config", "{config}",
                           "--out", "{out}"], cfg))

    orbit = _kepler_orbit(rng, mono, size["kepler_a"])
    t_end = size["kepler_periods"] * orbit.period
    cfg = {"system": dict(mono), "state0": _state0(orbit.x0, orbit.p0), "t_end": t_end,
           "integrator": {"method": "rk45", "rel_tol": 1e-10, "abs_tol": 1e-10}}
    tasks.append(Task("simulate-monopole-rk45", "rk45_s", _kepler_closure_check(mono, orbit),
                      ["simulate", "--config", "{config}", "--out", "{out}"], cfg))

    orbit = _kepler_orbit(rng, mono, size["kepler_a"])
    cfg = {"system": dict(mono), "state0": _state0(orbit.x0, orbit.p0),
           "t_end": size["boris_periods"] * orbit.period,
           "integrator": {"method": "boris", "dt": size["boris_dt"]}}
    tasks.append(Task("simulate-monopole-boris", "boris_s", _boris_monopole_check(mono, orbit),
                      ["simulate", "--config", "{config}", "--out", "{out}"], cfg))

    x0, p0 = _helical_state(rng, hel, "librating")
    cfg = {"system": dict(hel), "state0": _state0(x0, p0), "t_end": size["hel_boris_t"],
           "integrator": {"method": "boris", "dt": size["hel_boris_dt"]}}
    tasks.append(Task("simulate-helical-boris", "boris_s", _boris_helical_check(hel),
                      ["simulate", "--config", "{config}", "--format", "json",
                       "--out", "{out}"], cfg))

    states = [_helical_state(rng, hel, r) for r in ("librating", "rotating")]
    cb_state = _constant_b_state(rng)
    times = np.linspace(0.0, size["lib_t"], size["lib_n"])
    helix_times = np.linspace(0.0, 0.25 * size["lib_t"], size["helix_n"])
    tasks.append(Task("closed-form-library", "closed_form_s",
                      _closed_form_check(hel, states, cb, cb_state, times, helix_times),
                      call=_closed_form_call(hel, states, cb, cb_state, times, helix_times)))
    return tasks


# ---------------------------------------------------------------------------
# spectra workload: Landau levels and helical Mathieu problems


def _landau_config(rng, n: int, levels: int) -> dict:
    """Grid of half-width 12 oscillator lengths around the center k2/B."""
    system = SYSTEMS["constant_b"]
    k1, k2 = rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0)
    center = k2 / system["B"]
    half = 12.0 * math.sqrt(1.0 / system["B"])
    return {"system": dict(system), "grid": {"lo": center - half, "hi": center + half, "n": n},
            "n_levels": levels, "hbar": 1.0, "k1": k1, "k2": k2}


def _levels_problems(rep: dict, cfg: dict, tol: float) -> list:
    want = oracles.landau_levels(cfg["system"]["B"], cfg["hbar"], cfg["k1"], cfg["n_levels"])
    got = np.array(rep["eigenvalues"], dtype=float)
    problems = []
    _expect(problems, got.shape == want.shape, "wrong number of levels")
    if got.shape == want.shape:
        rel = float(np.max(np.abs(got - want) / np.abs(want)))
        _expect(problems, rel <= tol, f"levels off by {rel:.3g} relative")
    return problems


def _landau_check(cfg: dict, tol: float):
    return _guarded(lambda art: _levels_problems(_json(art), cfg, tol))


def _eigenfunctions_check(cfg: dict, tol: float):
    """Report levels plus grid, normalization and the Gaussian ground state."""

    def check(art: Artifact) -> list:
        problems = _levels_problems(_json(art, stdout=True), cfg, tol)
        header, rows = _csv(art.data)
        g, levels = cfg["grid"], cfg["n_levels"]
        z = np.linspace(g["lo"], g["hi"], g["n"])
        _expect(problems, header == ["z"] + [f"f{i}" for i in range(levels)], "CSV header")
        _expect(problems, rows.shape == (g["n"], 1 + levels), "wrong CSV shape")
        _expect(problems, np.max(np.abs(rows[:, 0] - z)) < 1e-12, "grid column")
        norms = np.trapezoid(rows[:, 1:] ** 2, z, axis=0)
        _expect(problems, np.max(np.abs(norms - 1.0)) < 1e-6, "eigenfunctions not normalized")
        b, hbar = cfg["system"]["B"], cfg["hbar"]
        gauss = (b / (math.pi * hbar)) ** 0.25 * np.exp(
            -0.5 * b / hbar * (z - cfg["k2"] / b) ** 2)
        f0 = rows[:, 1] * np.sign(np.trapezoid(rows[:, 1] * gauss, z))
        dist = math.sqrt(np.trapezoid((f0 - gauss) ** 2, z))
        _expect(problems, dist < 1e-3, f"ground state is {dist:.3g} from the Gaussian")
        return problems

    return _guarded(check)


def _mathieu_check(cfg: dict, tol: float):
    system = cfg["system"]
    amp, beta, hbar = system["A_amp"], system["beta"], cfg["hbar"]
    a_want = -4.0 * beta**2 * (amp**2 + cfg["K"] ** 2 - 2.0 * cfg["E"]) / hbar**2
    q_want = -4.0 * beta**2 * amp * cfg["K"] / hbar**2

    def check(art: Artifact) -> list:
        rep = _json(art)
        problems = []
        _expect(problems, rep["wronskian_drift"] <= tol, "Wronskian drift over the gate")
        _expect(problems, math.isclose(rep["a"], a_want, rel_tol=1e-12, abs_tol=1e-12)
                and math.isclose(rep["q"], q_want, rel_tol=1e-12), "Mathieu (a, q)")
        even = rep["characteristic_values"]["even"]
        odd = rep["characteristic_values"]["odd"]
        r_max = cfg["r_max"]
        _expect(problems, len(even) == r_max + 1 and len(odd) == r_max, "table size")
        kinds = [("a_even" if r % 2 == 0 else "a_odd") for r in range(len(even))]
        kinds += [("b_odd" if r % 2 == 1 else "b_even") for r in range(1, len(odd) + 1)]
        ok = oracles.mathieu_brackets(list(even) + list(odd), kinds, rep["q"])
        _expect(problems, all(ok), f"{ok.count(False)} characteristic values fail shooting")
        return problems

    return _guarded(check)


def spectra(rng: np.random.Generator, size: dict) -> list[Task]:
    tasks = []
    cfg = _landau_config(rng, size["landau_n"], size["landau_levels"])
    tol = size["landau_tol"]
    tasks.append(Task("spectrum-landau", "landau_s", _landau_check(cfg, tol),
                      ["spectrum", "--config", "{config}", "--tolerance", repr(tol),
                       "--out", "{out}"], cfg))
    cfg = _landau_config(rng, size["csv_n"], size["csv_levels"])
    tol = size["csv_tol"]
    tasks.append(Task("spectrum-landau-csv", "eigenfunctions_s",
                      _eigenfunctions_check(cfg, tol),
                      ["spectrum", "--config", "{config}", "--format", "csv",
                       "--tolerance", repr(tol), "--out", "{out}"], cfg))
    system = SYSTEMS["helical"]
    for i in range(size["mathieu_count"]):
        k = rng.uniform(0.5, 3.0)
        # above the potential maximum (A + K)^2 / 2, so the reduced
        # equation oscillates and the Wronskian stays at 1
        e = 0.5 * (system["A_amp"] + k) ** 2 + rng.uniform(0.5, 2.0)
        cfg = {"system": dict(system), "K": k, "E": e, "phi_K": rng.uniform(0.0, math.pi),
               "hbar": 1.0, "r_max": size["r_max"]}
        tasks.append(Task(f"spectrum-mathieu-{i}", "mathieu_s", _mathieu_check(cfg, 1e-8),
                          ["spectrum", "--config", "{config}", "--tolerance", "1e-08",
                           "--out", "{out}"], cfg))
    return tasks


GENERATORS = {"checks": checks, "orbits": orbits, "spectra": spectra}


def generate(workload: str, seed: int, size: str = "full") -> list[Task]:
    """The task list of a workload; the same seed gives the same tasks."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return GENERATORS[workload](rng, SIZES[size])


def validate(tasks: list[Task], validate_config) -> None:
    """Schema-check every config and confirm each input sits in its regime."""
    for task in tasks:
        if task.config is None:
            continue
        validate_config(task.config)
        cfg, system = task.config, task.config["system"]
        if task.name.startswith("trajectory-helical-"):
            kappa = oracles.helical_kappa(system, cfg["state0"]["x"], cfg["state0"]["p"])
            regime = "librating" if kappa < 1.0 else "rotating"
            if abs(kappa - 1.0) < 0.2 or regime not in task.name:
                raise ValueError(f"{task.name}: kappa {kappa} outside its regime")
        if system["model"] == "monopole" and "state0" in cfg:
            st = cfg["state0"]
            if not oracles.energy(system, st["x"], st["p"]) < 0:
                raise ValueError(f"{task.name}: monopole orbit is not bound")
        if "grid" in cfg:
            center = cfg["k2"] / system["B"]
            ell = math.sqrt(cfg["hbar"] / system["B"])
            g = cfg["grid"]
            if min(center - g["lo"], g["hi"] - center) < 8.0 * ell:
                raise ValueError(f"{task.name}: grid covers fewer than 8 oscillator lengths")
