"""Hamilton's equations for H = (p + A)^2 / 2 + V and time integration.

Two integrators are provided: adaptive Dormand-Prince RK45 (via scipy)
for general accuracy, and a synchronized Boris-style rotation step that
bounds energy drift on long magnetic-field runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ConfigError, StepFailure
from .fields import FieldModel, Vec3, _as_vec3, cross, dot

#: most steps a Boris run may take; a longer t_end / dt is refused before
#: its arrays (about 100 bytes per step) are allocated
BORIS_MAX_STEPS = 10**7


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
    path ignores it.
    """

    method: str = "rk45"
    rel_tol: float = 1e-10
    abs_tol: float = 1e-10
    max_step: float = math.inf
    dt: float = 1e-3

    def __post_init__(self):
        if self.method not in ("rk45", "boris"):
            raise ValueError(f"unknown integrator method {self.method!r}")
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if not (self.max_step > 0 and self.dt > 0):
            raise ValueError("max_step and dt must be positive")


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


def eom_rhs(model: FieldModel, s: PhaseState) -> tuple[Vec3, Vec3]:
    """Right-hand side of Hamilton's equations at one state, a PhaseState
    or a pair (x, p) of 3-vectors.

    dx/dt = p + A(x); dp/dt = -J_A(x)^T (p + A) - grad V, from the
    model's `hamilton_rhs`.
    """
    x, p = _state_arrays(s)
    f = model.hamilton_rhs(np.concatenate([x, p], dtype=float).tolist())
    return np.array(f[:3]), np.array(f[3:])


@dataclass
class Trajectory:
    """Time-ordered phase-space samples with conservation diagnostics.

    `diagnostics` maps each watched integral's name to its per-sample
    values; `energy` holds H at every sample.
    """

    times: np.ndarray
    x: np.ndarray  # (n, 3)
    p: np.ndarray  # (n, 3)
    energy: np.ndarray
    diagnostics: dict[str, np.ndarray]
    model: FieldModel
    method: str
    _dense: Callable | None = None

    def __post_init__(self):
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("trajectory times must be strictly increasing")
        n = len(self.times)
        if not (self.x.shape == (n, 3) and self.p.shape == (n, 3) and len(self.energy) == n):
            raise ValueError("trajectory arrays have inconsistent lengths")

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
            raise ValueError(f"t={t} outside integrated span")
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


def _bind_watch(item, model: FieldModel, i: int):
    """(name, function, whether it takes the stacked (xs, ps) pair)."""
    from .integrals import IntegralSpec

    name = getattr(item, "name", None) or f"watch{i}"
    if isinstance(item, IntegralSpec):
        return name, lambda s: item.value_at(model, s), True
    if hasattr(item, "value_at"):
        return name, lambda s: item.value_at(model, s), False
    value = getattr(item, "value", None)
    if callable(value):
        return name, value, False
    if callable(item):
        return name, item, False
    raise TypeError(f"cannot watch object of type {type(item).__name__}")


def integrate(
    model: FieldModel,
    s0: PhaseState,
    t_end: float,
    cfg: IntegratorConfig | None = None,
    watch: Sequence = (),
) -> Trajectory:
    """Integrate Hamilton's equations from s0 over [0, t_end].

    Watched quantities (integral specs or objects with .name/.value)
    and the energy are evaluated at every accepted step: the energy and
    the integral specs in one pass over the stacked samples, any other
    watch one PhaseState at a time.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    if not t_end > 0:
        raise ValueError("t_end must be positive")
    model.check_domain(s0.x)
    items = [_bind_watch(w, model, i) for i, w in enumerate(watch)]

    if cfg.method == "rk45":
        times, xs, ps, dense = _run_rk45(model, s0, t_end, cfg)
    else:
        times, xs, ps, dense = _run_boris(model, s0, t_end, cfg)

    energy = hamiltonian(model, (xs, ps))
    states = None
    diag = {}
    for name, fn, stacked in items:
        if stacked:
            diag[name] = fn((xs, ps))
            continue
        if states is None:
            states = [PhaseState(x, p) for x, p in zip(xs, ps)]
        diag[name] = np.array([fn(s) for s in states], dtype=float)
    return Trajectory(times, xs, ps, energy, diag, model, cfg.method, dense)


def _run_rk45(model, s0, t_end, cfg):
    field_rhs = model.hamilton_rhs

    def rhs(_t, y):
        y = y.tolist()
        if not all(map(math.isfinite, y)):
            raise StepFailure("integration aborted: vector has non-finite components")
        return np.array(field_rhs(y))

    try:
        sol = solve_ivp(
            rhs,
            (0.0, float(t_end)),
            s0.as_array(),
            method="RK45",
            rtol=cfg.rel_tol,
            atol=cfg.abs_tol,
            max_step=cfg.max_step,
            dense_output=True,
        )
    except (ValueError, ArithmeticError) as exc:
        # ArithmeticError: float division by zero or overflow in a
        # right-hand side evaluated on Python floats
        raise StepFailure(f"integration aborted: {exc}") from exc
    if not sol.success:
        raise StepFailure(f"integration failed: {sol.message}")
    y = sol.y.T
    return sol.t.copy(), y[:, :3].copy(), y[:, 3:].copy(), sol.sol


def _run_boris(model, s0, t_end, cfg):
    """Synchronized Boris scheme on the kinetic velocity v = p + A.

    Per step: half position drift, half potential kick, magnetic
    rotation (exactly norm-preserving), half kick, half drift; the
    canonical momentum is reconstructed as p = v - A at the new x.
    A run of more than BORIS_MAX_STEPS steps is a ConfigError.
    """
    steps = float(t_end) / cfg.dt
    if not steps <= BORIS_MAX_STEPS:
        raise ConfigError(f"a Boris run of t_end / dt = {steps:.3g} steps exceeds "
                          f"the maximum of {BORIS_MAX_STEPS} steps")
    n_steps = max(1, int(math.ceil(steps)))
    dts = np.full(n_steps, float(t_end) / n_steps)

    x = s0.x.copy()
    v = s0.p + model.vector_potential(x)
    times = np.empty(n_steps + 1)
    xs = np.empty((n_steps + 1, 3))
    vs = np.empty((n_steps + 1, 3))
    times[0], xs[0], vs[0] = 0.0, x, v
    t = 0.0
    for i, dt in enumerate(dts):
        x = x + 0.5 * dt * v
        g = -model.grad_potential(x)
        b = model.magnetic_field(x)
        v = v + 0.5 * dt * g
        tv = -0.5 * dt * b
        sv = 2.0 * tv / (1.0 + tv @ tv)
        v = v + cross(v + cross(v, tv), sv)
        v = v + 0.5 * dt * g
        x = x + 0.5 * dt * v
        model.check_domain(x)
        t += dt
        times[i + 1] = t
        xs[i + 1] = x
        vs[i + 1] = v
    times[-1] = float(t_end)
    ps = vs - model.vector_potential(xs)
    ps[0] = s0.p
    return times, xs, ps, None
