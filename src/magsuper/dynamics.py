"""Hamilton's equations for H = (p + A)^2 / 2 + V and time integration.

User code of one state is lifted to stacks of states where it enters:
a watch of `integrate` in `integrals.as_phase_function`.

Two integrators are provided: adaptive Dormand-Prince 5(4) ("RK45"), a
loop on Python floats with the step control of scipy's RK45, for general
accuracy, and a synchronized Boris-style rotation step that bounds
energy drift on long magnetic-field runs.
"""

from __future__ import annotations

import math
import sys
import warnings
from array import array
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import OVERFLOW_MESSAGE, ConfigError, ParameterError, StepFailure
from .fields import FieldModel, Vec3, _as_vec3, dot

#: most steps a Boris run may take; a longer t_end / dt is refused before
#: any step is taken
BORIS_MAX_STEPS = 10**7
#: most steps an RK45 run may accept before it stops with a ConfigError: an
#: accepted step peaks at about 110 traced bytes (its time and state kept in
#: flat buffers of doubles) and a Boris step at about 112, so the states of a
#: run at this cap take no more memory than a Boris run of BORIS_MAX_STEPS
RK45_MAX_STEPS = 2_500_000


def _rationals(row: str) -> tuple[float, ...]:
    """The floats nearest the rationals "n/d" of a row (int / int rounds
    correctly)."""
    return tuple(int(n) / int(d or 1) for n, _, d in (q.partition("/") for q in row.split()))


# Dormand-Prince 5(4) (Dormand & Prince, J. Comput. Appl. Math. 6, 19,
# 1980; Hairer, Norsett & Wanner, Solving ODEs I, II.5): nodes C, stage
# rows A, 5th-order weights B, error weights E (7 stages, the last being
# the slope at the new state), and the 4th-order dense-output matrix P
# of Shampine (Math. Comp. 46, 135, 1986), one row per stage and one
# column per power of the step fraction. Hamilton's equations are
# autonomous, so C only completes the tableau.
RK45_C = _rationals("0 1/5 3/10 4/5 8/9 1")
RK45_A = tuple(map(_rationals, (
    "",
    "1/5",
    "3/40 9/40",
    "44/45 -56/15 32/9",
    "19372/6561 -25360/2187 64448/6561 -212/729",
    "9017/3168 -355/33 46732/5247 49/176 -5103/18656",
)))
RK45_B = _rationals("35/384 0 500/1113 125/192 -2187/6784 11/84")
RK45_E = _rationals("-71/57600 0 71/16695 -71/1920 17253/339200 -22/525 1/40")
RK45_P = tuple(map(_rationals, (
    "1 -8048581381/2820520608 8663915743/2820520608 -12715105075/11282082432",
    "0 0 0 0",
    "0 131558114200/32700410799 -68118460800/10900136933 87487479700/32700410799",
    "0 -1754552775/470086768 14199869525/1410260304 -10690763975/1880347072",
    "0 127303824393/49829197408 -318862633887/49829197408 701980252875/199316789632",
    "0 -282668133/205662961 2019193451/616988883 -1453857185/822651844",
    "0 40617522/29380423 -110615467/29380423 69997945/29380423",
)))
#: rows of P for the stages the interpolant uses (the second has weight 0)
_P_USED = np.array(RK45_P[:1] + RK45_P[2:])

# step control of scipy's RK45 (Hairer, Norsett & Wanner II.4):
# h *= clip(SAFETY * err^(-1/5), MIN_FACTOR, MAX_FACTOR) with no growth
# right after a rejection; rel_tol is raised to RTOL_FLOOR
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
RTOL_FLOOR = 100 * sys.float_info.epsilon


@dataclass(frozen=True)
class PhaseState:
    """Position and canonical momentum of one particle."""

    x: Vec3
    p: Vec3

    def __post_init__(self):
        object.__setattr__(self, "x", _as_vec3(self.x))
        object.__setattr__(self, "p", _as_vec3(self.p))

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.x, self.p])

    @staticmethod
    def from_array(y) -> "PhaseState":
        y = np.asarray(y, dtype=float)
        return PhaseState(y[:3], y[3:6])


@dataclass(frozen=True)
class IntegratorConfig:
    """Numerical options for integrate().

    `dt` is the fixed step used by the Boris method; the adaptive RK45
    path ignores it, and raises a `rel_tol` below RTOL_FLOOR (100
    machine epsilons) to that floor with a warning.
    """

    method: str = "rk45"
    rel_tol: float = 1e-10
    abs_tol: float = 1e-10
    max_step: float = math.inf
    dt: float = 1e-3

    def __post_init__(self):
        if self.method not in ("rk45", "boris"):
            raise ParameterError(f"unknown integrator method {self.method!r}")
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ParameterError("tolerances must be positive")
        if not (self.max_step > 0 and self.dt > 0):
            raise ParameterError("max_step and dt must be positive")


def _state_arrays(s):
    """(x, p) of a PhaseState, or of a pair (x, p) of arrays, each of
    shape (3,) or (n,3)."""
    if isinstance(s, PhaseState):
        return s.x, s.p
    x, p = s
    return x, p


def hamiltonian(model: FieldModel, s: PhaseState):
    """H at a PhaseState, or per state of a pair (x, p) of (n,3) stacks."""
    x, p = _state_arrays(s)
    v = p + model.vector_potential(x)
    h = 0.5 * dot(v, v) + model.scalar_potential(x)
    return h if np.ndim(x) == 2 else float(h)


@dataclass(frozen=True)
class SolverStats:
    """What an integrator did: accepted steps, rejected steps, right-hand
    side evaluations and the smallest and largest accepted step.

    A Boris run takes `steps` equal steps of t_end / steps, rejects none
    and evaluates the fields once per step.
    """

    steps: int
    rejected: int
    nfev: int
    min_step: float
    max_step: float


@dataclass
class Trajectory:
    """Time-ordered phase-space samples with conservation diagnostics.

    `diagnostics` maps each watched integral's name to its per-sample
    values; `energy` holds H at every sample; `stats` is what the
    integrator did.
    """

    times: np.ndarray
    x: np.ndarray  # (n, 3)
    p: np.ndarray  # (n, 3)
    energy: np.ndarray
    diagnostics: dict[str, np.ndarray]
    model: FieldModel
    method: str
    _dense: Callable | None = None
    stats: SolverStats | None = None

    def __post_init__(self):
        if not np.all(np.diff(self.times) > 0):
            raise ParameterError("trajectory times must be strictly increasing")
        n = len(self.times)
        if not (self.x.shape == (n, 3) and self.p.shape == (n, 3) and len(self.energy) == n):
            raise ParameterError("trajectory arrays have inconsistent lengths")

    def __len__(self) -> int:
        return len(self.times)

    def state(self, i: int) -> PhaseState:
        return PhaseState(self.x[i], self.p[i])

    @property
    def final_state(self) -> PhaseState:
        return self.state(len(self) - 1)

    def sample(self, t: float) -> PhaseState:
        """State at arbitrary t inside the integrated span.

        Uses the integrator's dense output when available, otherwise a
        cubic Hermite interpolant between the two bracketing samples.
        """
        t = float(t)
        if not self.times[0] <= t <= self.times[-1]:
            raise ParameterError(f"t={t} outside integrated span")
        if self._dense is not None:
            return PhaseState.from_array(self._dense(t))
        i = int(np.searchsorted(self.times, t, side="right")) - 1
        i = min(max(i, 0), len(self) - 2)
        t0, t1 = self.times[i], self.times[i + 1]
        h = t1 - t0
        th = (t - t0) / h
        y0, y1 = self.state(i).as_array(), self.state(i + 1).as_array()
        f0 = np.array(self.model.hamilton_rhs(y0.tolist()))
        f1 = np.array(self.model.hamilton_rhs(y1.tolist()))
        h00 = 2 * th**3 - 3 * th**2 + 1
        h10 = th**3 - 2 * th**2 + th
        h01 = -2 * th**3 + 3 * th**2
        h11 = th**3 - th**2
        return PhaseState.from_array(h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1)

    def drift(self, name: str) -> float:
        vals = self.diagnostics[name]
        return float(np.max(np.abs(vals - vals[0])))

    def energy_drift(self) -> float:
        h0 = self.energy[0]
        return float(np.max(np.abs(self.energy - h0)) / max(1.0, abs(h0)))


def integrate(
    model: FieldModel,
    s0: PhaseState,
    t_end: float,
    cfg: IntegratorConfig | None = None,
    watch: Sequence = (),
) -> Trajectory:
    """Integrate Hamilton's equations from s0 over [0, t_end].

    Watched quantities (integral specs, phase functions, or callables of
    a PhaseState; one without a name is `watch{i}`) and the energy are
    evaluated at every accepted step, each in one pass over the stacked
    samples through `as_phase_function`.
    """
    from .integrals import as_phase_function

    if cfg is None:
        cfg = IntegratorConfig()
    if not t_end > 0:
        raise ParameterError("t_end must be positive")
    model.check_domain(s0.x)
    items = [(getattr(w, "name", None) or f"watch{i}", as_phase_function(w, model).fn)
             for i, w in enumerate(watch)]

    if cfg.method == "rk45":
        times, y, dense, stats = _run_rk45(model.hamilton_rhs, s0.as_array().tolist(), t_end,
                                           cfg.rel_tol, cfg.abs_tol, cfg.max_step)
        xs, ps = y[:, :3].copy(), y[:, 3:].copy()
        del y  # with dense, it holds the store: freed before the energy is formed
        dense = _dp5_interpolant(model.hamilton_rhs, times, (xs, ps))
    else:
        times, xs, ps, dense, stats = _run_boris(model, s0, t_end, cfg)

    energy = hamiltonian(model, (xs, ps))
    diag = {name: fn((xs, ps)) for name, fn in items}
    return Trajectory(times, xs, ps, energy, diag, model, cfg.method, dense, stats)


def _finite(y):
    """y, a list of floats, or a StepFailure if a component is not finite."""
    if not all(map(math.isfinite, y)):
        raise StepFailure("integration aborted: vector has non-finite components")
    return y


def _rms(v) -> float:
    return math.hypot(*v) / math.sqrt(len(v))


def _initial_step(rhs, y, f, t_end, max_step, rtol, atol) -> float:
    """First step from the size of y, f and a difference of f (Hairer,
    Norsett & Wanner II.4), as scipy's select_initial_step."""
    scale = [atol + abs(c) * rtol for c in y]
    d0 = _rms([c / s for c, s in zip(y, scale)])
    d1 = _rms([c / s for c, s in zip(f, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    f1 = rhs(_finite([c + h0 * d for c, d in zip(y, f)]))
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, f, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, t_end, max_step)


def _dp5_stepper(rhs):
    """step(y, k1, h) -> (y_new, (k1, k3, k4, k5, k6, k7)): one Dormand-
    Prince attempt of size h from the state y (a list of floats) with slope
    k1 = rhs(y), and the stage slopes that the error and the dense output
    weigh (the second has weight 0 in both). A y_new that is not finite is
    a StepFailure before its slope k7 is taken."""
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = RK45_A[1:]
    b1, _, b3, b4, b5, b6 = RK45_B

    def step(y, k1, h):
        k2 = rhs([c + (a21 * p) * h for c, p in zip(y, k1)])
        k3 = rhs([c + (a31 * p + a32 * q) * h for c, p, q in zip(y, k1, k2)])
        k4 = rhs([c + (a41 * p + a42 * q + a43 * r) * h
                  for c, p, q, r in zip(y, k1, k2, k3)])
        k5 = rhs([c + (a51 * p + a52 * q + a53 * r + a54 * s) * h
                  for c, p, q, r, s in zip(y, k1, k2, k3, k4)])
        k6 = rhs([c + (a61 * p + a62 * q + a63 * r + a64 * s + a65 * u) * h
                  for c, p, q, r, s, u in zip(y, k1, k2, k3, k4, k5)])
        y_new = [c + (b1 * p + b3 * r + b4 * s + b5 * u + b6 * w) * h
                 for c, p, r, s, u, w in zip(y, k1, k3, k4, k5, k6)]
        return y_new, (k1, k3, k4, k5, k6, rhs(_finite(y_new)))

    return step


def _run_rk45(fun, y, t_end, rtol, atol, max_step=math.inf):
    """Dormand-Prince 5(4) of dy/dt = fun(y) over [0, t_end] from y,
    a list of floats of any length, as every state is.

    Steps as scipy's RK45: the error of an attempt is the RMS over
    components of h E.K / (atol + max(|y|, |y_new|) rtol), and an
    attempt with error below 1 is accepted; a step under 10 ulp(t) is a
    StepFailure, and so are an overflow in fun and a state that is not
    finite (checked on y, on the initial-step probe and on each y_new).
    A run that needs more than RK45_MAX_STEPS steps is a ConfigError.
    Returns the accepted times and states, the dense output and the
    SolverStats: the dense output repeats each step that holds a query
    time, which gives the same slopes.
    """
    if rtol < RTOL_FLOOR:
        warnings.warn(f"rel_tol {rtol:g} is below {RTOL_FLOOR:.3g}; using {RTOL_FLOOR:.3g}",
                      stacklevel=3)
        rtol = RTOL_FLOOR
    step = _dp5_stepper(fun)
    e1, _, e3, e4, e5, e6, e7 = RK45_E
    t_end = float(t_end)
    t = 0.0
    times, states = array("d", [t]), array("d", y)
    attempts = 0
    try:
        f = fun(_finite(y))
        h_abs = _initial_step(fun, y, f, t_end, max_step, rtol, atol)
        while t < t_end:
            if len(times) > RK45_MAX_STEPS:
                raise ConfigError(f"an RK45 run reached the maximum of {RK45_MAX_STEPS} steps "
                                  f"at t = {t:.6g}, before t_end = {t_end:.6g}")
            min_step = 10 * math.ulp(t)
            if h_abs > max_step:
                h_abs = max_step
            elif h_abs < min_step:
                h_abs = min_step
            rejected = False
            while True:
                if h_abs < min_step:
                    raise StepFailure("integration failed: Required step size is less "
                                      "than spacing between numbers.")
                t_new = min(t + h_abs, t_end)
                h = h_abs = t_new - t
                attempts += 1
                y_new, (k1, k3, k4, k5, k6, k7) = step(y, f, h)
                err = _rms([(e1 * p + e3 * r + e4 * s + e5 * u + e6 * w + e7 * z) * h
                            / (atol + (c if c > d else d) * rtol)
                            for c, d, p, r, s, u, w, z in zip(
                                map(abs, y), map(abs, y_new), k1, k3, k4, k5, k6, k7)])
                if err < 1:
                    factor = MAX_FACTOR if err == 0 else min(MAX_FACTOR, SAFETY * err ** -0.2)
                    h_abs *= min(1, factor) if rejected else factor
                    break
                h_abs *= max(MIN_FACTOR, SAFETY * err ** -0.2)
                rejected = True
            t, y, f = t_new, y_new, k7
            times.append(t)
            states.extend(y)
    except ArithmeticError as exc:
        # overflow in a right-hand side, or a division by a value that underflowed to 0
        raise StepFailure(OVERFLOW_MESSAGE) from exc
    except ValueError as exc:
        raise StepFailure(f"integration aborted: {exc}") from exc
    # the arrays share the buffers of the store
    times, y = np.frombuffer(times), np.frombuffer(states).reshape(len(times), -1)
    steps = np.diff(times)
    stats = SolverStats(len(steps), attempts - len(steps), 2 + 6 * attempts,
                        float(steps.min()), float(steps.max()))
    return times, y, _dp5_interpolant(fun, times, (y,)), stats


def _dp5_interpolant(fun, times, blocks):
    """States at t, a number or an array of times, from the 4th-order
    Dormand-Prince interpolant of the step that holds each t (the earlier
    one at a step boundary, as scipy's OdeSolution),
    y_i + h (K^T P) (theta, theta^2, theta^3, theta^4). State y_i is row i
    of the arrays `blocks` side by side (the states, or x and p). The
    slopes K of a step are taken again from y_i and h, once per call for
    each step that holds a query; shape (n,) for a number, (len(t), n) for
    an array."""
    step = _dp5_stepper(fun)
    last = len(times) - 2
    width = sum(b.shape[1] for b in blocks)

    def at(t):
        ts = np.asarray(t, dtype=float)
        out = np.empty(ts.shape + (width,))
        rows = out.reshape(-1, width)
        found = np.searchsorted(times, ts.ravel(), side="left") - 1
        weights = {}  # step -> (y_i, K^T P)
        for j, (tq, i) in enumerate(zip(ts.ravel().tolist(), found.tolist())):
            i = min(max(i, 0), last)
            h = times[i + 1] - times[i]
            if i not in weights:
                y_i = np.concatenate([b[i] for b in blocks])
                y0 = y_i.tolist()
                _, slopes = step(y0, fun(y0), float(h))
                weights[i] = y_i, np.array(slopes).T @ _P_USED
            y_i, kp = weights[i]
            theta = np.cumprod(np.full(4, (tq - times[i]) / h))
            rows[j] = y_i + h * (kp @ theta)
        return out

    return at


def _run_boris(model, s0, t_end, cfg):
    """Synchronized Boris scheme on the kinetic velocity v = p + A.

    Per step: half position drift, half potential kick, magnetic
    rotation (exactly norm-preserving), half kick, half drift; the
    canonical momentum is reconstructed as p = v - A at the new x.
    A run of more than BORIS_MAX_STEPS steps is a ConfigError, and a
    position or velocity that leaves the double range a StepFailure.

    The step runs on Python floats with the operations, and so the bits,
    of the same step on 3-vectors; B and grad V come from the model's
    own methods at one point, and |t|^2 from numpy's dot product of the
    rotation vector t = -B dt / 2 (BLAS may fuse its multiply-adds).
    """
    steps = float(t_end) / cfg.dt
    if not steps <= BORIS_MAX_STEPS:
        raise ConfigError(f"a Boris run of t_end / dt = {steps:.3g} steps exceeds "
                          f"the maximum of {BORIS_MAX_STEPS} steps")
    n_steps = max(1, int(math.ceil(steps)))
    dt = float(t_end) / n_steps
    half, rot = 0.5 * dt, -0.5 * dt

    x0, x1, x2 = s0.x.tolist()
    v0, v1, v2 = (s0.p + model.vector_potential(s0.x)).tolist()
    table = np.empty((n_steps + 1, 7))  # t, x and v of each step
    table[0] = (0.0, x0, x1, x2, v0, v1, v2)
    t = 0.0
    for i in range(1, n_steps + 1):
        x0, x1, x2 = x0 + half * v0, x1 + half * v1, x2 + half * v2
        # a drift to inf stops here, before the model's numpy methods see it
        if not all(map(math.isfinite, (x0, x1, x2))):
            raise StepFailure(OVERFLOW_MESSAGE)
        x = np.array((x0, x1, x2))
        g0, g1, g2 = model.grad_potential(x).tolist()
        tv = rot * model.magnetic_field(x)
        den = 1.0 + float(tv @ tv)
        tv0, tv1, tv2 = tv.tolist()
        sv0, sv1, sv2 = 2.0 * tv0 / den, 2.0 * tv1 / den, 2.0 * tv2 / den
        # each kick adds -half grad V; the rotation is v += (v + v x t) x s
        v0, v1, v2 = v0 - half * g0, v1 - half * g1, v2 - half * g2
        w0, w1, w2 = (v0 + (v1 * tv2 - v2 * tv1), v1 + (v2 * tv0 - v0 * tv2),
                      v2 + (v0 * tv1 - v1 * tv0))
        v0, v1, v2 = (v0 + (w1 * sv2 - w2 * sv1), v1 + (w2 * sv0 - w0 * sv2),
                      v2 + (w0 * sv1 - w1 * sv0))
        v0, v1, v2 = v0 - half * g0, v1 - half * g1, v2 - half * g2
        x0, x1, x2 = x0 + half * v0, x1 + half * v1, x2 + half * v2
        if not all(map(math.isfinite, (x0, x1, x2, v0, v1, v2))):
            raise StepFailure(OVERFLOW_MESSAGE)
        model.check_domain(np.array((x0, x1, x2)))
        t += dt
        table[i] = (t, x0, x1, x2, v0, v1, v2)
    times, xs, vs = table[:, 0].copy(), table[:, 1:4].copy(), table[:, 4:].copy()
    del table  # before p is formed, so that a step peaks at about 112 bytes
    times[-1] = float(t_end)
    ps = vs - model.vector_potential(xs)
    ps[0] = s0.p
    stats = SolverStats(n_steps, 0, n_steps, dt, dt)
    return times, xs, ps, None, stats
