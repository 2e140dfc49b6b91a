"""Hamilton's equations for H = (p + A)^2 / 2 + V and time integration.

User code of one state is lifted to stacks of states where it enters:
a watch of `integrate` in `integrals.as_phase_function`.

Two integrators are provided: adaptive Dormand-Prince 5(4) ("RK45"), a
loop on Python floats with the step control of scipy's RK45, for general
accuracy, and a synchronized Boris-style rotation step that bounds
energy drift on long magnetic-field runs.

An RK45 attempt is one function generated from the tableau for states
of n floats (`_dp5_source`): each stage sum and the error norm are
written out per component, in the order of the list comprehensions over
components that they replace, so every float keeps their bits. Where
the right-hand side is the `hamilton_rhs` of a model that states it as
source (`fields.RhsSource`: `ConstantB`, `HelicalB`, `Monopole`,
`Cylindrical`), each stage evaluates that source in place and calls no
method (the user's F1, F2 and V of a `Cylindrical` are called where its
source calls them); any other right-hand side (`Custom`, an override of
`hamilton_rhs` in a subclass, a wrapper, the separatrix pendulum) is
called once per stage. A momentum that the source conserves (its slope
is the literal 0.0: p0 and p1 of `ConstantB` and `HelicalB`, p2 of
`Cylindrical`) costs no arithmetic: each of its stage sums is y_j plus a
zero fixed when the attempt is generated, and its error term is 0.0.
The attempt is compiled on the first run for each n, or each model class
and n, in 1-3 ms, and kept in a small cache; the loop, the dense output
and the separatrix z(t) of `closedform` all use it.
"""

from __future__ import annotations

import ast
import functools
import math
import operator
import re
import sys
import textwrap
import warnings
from array import array
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import OVERFLOW_MESSAGE, ConfigError, ParameterError, StepFailure
from .fields import (RHS_GLOBALS, RHS_STATE, FieldModel, RhsSource, Vec3, _as_instance,
                     _as_real, _as_vec3, dot)

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

    @classmethod
    def _of_finite(cls, x: Vec3, p: Vec3) -> "PhaseState":
        """The state of x and p, float arrays of shape (3,) that the caller
        built from finite floats, without checking them again."""
        s = object.__new__(cls)
        object.__setattr__(s, "x", x)
        object.__setattr__(s, "p", p)
        return s


@dataclass(frozen=True)
class IntegratorConfig:
    """Numerical options for integrate().

    `dt` is the fixed step used by the Boris method; the adaptive RK45
    path ignores it, and raises a `rel_tol` below RTOL_FLOOR (100
    machine epsilons) to that floor with a warning. `rel_tol`, `abs_tol`
    and `dt` are finite positive real numbers and `max_step` a positive
    one (inf by default), each kept as a float.
    """

    method: str = "rk45"
    rel_tol: float = 1e-10
    abs_tol: float = 1e-10
    max_step: float = math.inf
    dt: float = 1e-3

    def __post_init__(self):
        if self.method not in ("rk45", "boris"):
            raise ParameterError(f"unknown integrator method {self.method!r}")
        for key in ("rel_tol", "abs_tol", "max_step", "dt"):
            value = getattr(self, key)
            object.__setattr__(self, key, _as_real(value, f"{key} {value!r}", positive=True,
                                                   finite=key != "max_step"))


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

    `nfev` counts the evaluations, whether the attempt writes the model's
    source in place or calls `hamilton_rhs`: an RK45 run evaluates it
    twice to start and six times per attempt, and only the two starting
    evaluations of a stated model are calls.

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
    samples through `as_phase_function`. A model, s0 or cfg of another
    type is a ParameterError that names it.
    """
    from .integrals import as_phase_function

    _as_instance(model, FieldModel, "model", "a field model")
    _as_instance(s0, PhaseState, "s0", "a PhaseState")
    cfg = IntegratorConfig() if cfg is None else _as_instance(
        cfg, IntegratorConfig, "cfg", "an IntegratorConfig")
    t_end = _as_real(t_end, f"t_end {t_end!r}", positive=True)
    model.check_domain(s0.x)
    items = [(getattr(w, "name", None) or f"watch{i}", as_phase_function(w, model).fn)
             for i, w in enumerate(watch)]

    if cfg.method == "rk45":
        times, y, stats = _run_rk45(model.hamilton_rhs, s0.as_array().tolist(), t_end,
                                    cfg.rel_tol, cfg.abs_tol, cfg.max_step)
        xs, ps = y[:, :3].copy(), y[:, 3:].copy()
        del y  # it holds the run's store: freed before the energy is formed
        dense = _dp5_interpolant(model.hamilton_rhs, times, (xs, ps))
    else:
        times, xs, ps, dense, stats = _run_boris(model, s0, t_end, cfg)

    energy = hamiltonian(model, (xs, ps))
    diag = {name: fn((xs, ps)) for name, fn in items}
    return Trajectory(times, xs, ps, energy, diag, model, cfg.method, dense, stats)


_NON_FINITE = "integration aborted: vector has non-finite components"


def _finite(y):
    """y, a list of floats, or a StepFailure if a component is not finite."""
    if not all(map(math.isfinite, y)):
        raise StepFailure(_NON_FINITE)
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


def _structural_zeros(result: str) -> frozenset[int]:
    """The indices of the items of `result`, the items of a tuple as source,
    that are the literal 0.0: the structural zeros of a right-hand side."""
    items = ast.parse(f"({result},)", mode="eval").body.elts
    # a literal is never negative: -0.0 is a minus applied to 0.0
    return frozenset(j for j, item in enumerate(items)
                     if isinstance(item, ast.Constant) and type(item.value) is float
                     and item.value == 0.0)


def _zero_sum(weights) -> float:
    """(sum_i w_i k_i) * h, summed from the left as an attempt sums it, for
    slopes k_i that are all +0.0 and a step h > 0: a signed zero."""
    return functools.reduce(operator.add, (w * 0.0 for w in weights if w)) * 1.0


def _dp5_source(n: int, source: RhsSource | None = None) -> str:
    """Source of `make(_rhs, *params)`, which returns the attempt `step` of
    `_dp5_stepper` for states of n floats. Each stage sum, y_new and the
    error norm are written out per component with the operations, in the
    order, of list comprehensions over the components such as
    `[c + (a21 * p) * h for c, p in zip(y, k1)]`, zero weights left out,
    so every float has the bits of the comprehension's.

    Each of the seven stages evaluates the right-hand side in place: the
    body and result of the model's RhsSource, its state x0 .. p2 bound to
    the stage sums and its parameters to the arguments of `make` (n is 6);
    without a source, the call `_rhs([...])` of the stage sums. Every
    other name of the attempt starts with an underscore, so none meets a
    name of the source.

    A component j whose result item is the literal 0.0 (a conserved
    momentum, `_structural_zeros`) has the slope +0.0 at every stage, k1
    and the k7 carried to the next step included, since both come from
    the same source. So each of its sums is y_j plus the signed zero that
    the weighted sum of +0.0 slopes times h > 0 gives (`_zero_sum`), and
    its error term is 0.0: no slope of j is named or weighed."""
    idx = range(n)
    if source is None:
        state = [f"_x{j}" for j in idx]
        source = RhsSource((), "", f"_rhs([{', '.join(state)}])")
    else:
        state = RHS_STATE
    zero = _structural_zeros(source.result)
    # a component that the source does not read is not summed: its sum has
    # no effect, and float sums raise nothing. One that only a raise line
    # reads, to name the point it refuses, is summed in that line.
    read = set(re.findall(r"\w+", "\n".join(
        line for line in f"{source.body}\n({source.result})".splitlines()
        if not line.lstrip().startswith("raise "))))

    def names(prefix):
        return ", ".join("_" if j in zero else f"{prefix}{j}" for j in idx)

    def weighted(weights, j):
        # each weight as its float's repr, which reads back as the same float
        return " + ".join(f"{w!r} * _k{i}_{j}" for i, w in enumerate(weights, 1) if w)

    def summed(weights, j):
        if j in zero:
            return f"_y{j} + {_zero_sum(weights)!r}"
        return f"_y{j} + ({weighted(weights, j)}) * _h"

    def stage(i, sums):
        # the state bound to the sums, then the slopes k_i and their components
        unread = {x: f"({v})" for x, v in zip(state, sums) if x not in read}
        body = "\n".join(re.sub(r"\w+", lambda w: unread.get(w[0], w[0]), line)
                         if line.lstrip().startswith("raise ") else line
                         for line in source.body.splitlines())
        return ([f"        {x} = {v}" for x, v in zip(state, sums) if x in read]
                + ([textwrap.indent(body, " " * 8)] if body else [])
                + [f"        _k{i} = ({source.result})", f"        {names(f'_k{i}_')}, = _k{i}"])

    def error(j):
        # h E.K_j / (atol + max(|y_j|, |y_new_j|) rtol), each abs taken once
        if j in zero:
            return "0.0"
        return (f"({weighted(RK45_E, j)}) * _h / (_atol + (_a{j} if _a{j} > _b{j} else _b{j})"
                " * _rtol)")

    lines = [f"def make({', '.join(('_rhs', *source.params))}):",
             "    def step(_y, _k1, _h, _atol=1.0, _rtol=1.0):",
             f"        {', '.join(f'_y{j}' for j in idx)}, = _y",
             f"        {names('_k1_')}, = _k1"]
    for i, row in enumerate(RK45_A[1:], 2):
        lines += stage(i, [summed(row, j) for j in idx])
    lines += [f"        _d{j} = {summed(RK45_B, j)}" for j in idx]
    # y is finite, and so is a folded y_j plus a zero
    finite = " and ".join(f"_isfinite(_d{j})" for j in idx if j not in zero)
    lines += [f"        if not ({finite}):",
              "            raise _StepFailure(_NON_FINITE)",
              f"        _y_new = [{', '.join(f'_d{j}' for j in idx)}]",
              *stage(7, [f"_d{j}" for j in idx]),
              *(f"        _a{j}, _b{j} = abs(_y{j}), abs(_d{j})" for j in idx if j not in zero),
              f"        _err = _hypot({', '.join(map(error, idx))}) / {math.sqrt(n)!r}",
              "        return _y_new, _err, (_k1, _k3, _k4, _k5, _k6, _k7)",
              "    return step"]
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=8)
def _dp5_maker(n: int, source: RhsSource | None = None):
    """`make` of `_dp5_source(n, source)`, compiled on the first call for
    the pair: one per state length in the call form, and one per model
    class that states its right-hand side, whatever its parameters."""
    if n < 1:
        raise ParameterError("an RK45 state needs at least one component")
    namespace = {**RHS_GLOBALS, "_isfinite": math.isfinite, "_hypot": math.hypot,
                 "_StepFailure": StepFailure, "_NON_FINITE": _NON_FINITE}
    exec(compile(_dp5_source(n, source), f"<dp5 stepper, n={n}>", "exec"), namespace)
    return namespace["make"]


def _dp5_stepper(rhs, n: int):
    """step(y, k1, h, atol=1.0, rtol=1.0) -> (y_new, err, (k1, k3, k4, k5,
    k6, k7)): one Dormand-Prince attempt of size h > 0 from the state y (n
    finite floats) with slope k1 = rhs(y), its error norm (the RMS over
    components of h E.K / (atol + max(|y|, |y_new|) rtol)), and the stage
    slopes that the error and the dense output weigh (the second has
    weight 0 in both). A y_new that is not finite is a StepFailure before
    its slope k7 is taken.

    When rhs is the `hamilton_rhs` of a model that carries its RhsSource
    (the class's own method, not an override or a wrapper) the attempt
    evaluates that source in place, with the model's parameters, and
    calls nothing, and the components that the source keeps constant take
    no arithmetic; any other rhs is called once per stage."""
    source = getattr(getattr(rhs, "__func__", None), "source", None)
    if not isinstance(source, RhsSource):
        return _dp5_maker(n)(rhs)
    model = rhs.__self__
    return _dp5_maker(n, source)(rhs, *(getattr(model, name) for name in source.params))


def _run_rk45(fun, y, t_end, rtol, atol, max_step=math.inf):
    """Dormand-Prince 5(4) of dy/dt = fun(y) over [0, t_end] from y,
    a list of n >= 1 floats (an empty one is a ParameterError), as every
    state is; each attempt is one call of the stepper generated for n.

    Steps as scipy's RK45: the error of an attempt is the RMS over
    components of h E.K / (atol + max(|y|, |y_new|) rtol), and an
    attempt with error below 1 is accepted; a step under 10 ulp(t) is a
    StepFailure, and so are an overflow in fun and a state that is not
    finite (checked on y, on the initial-step probe and on each y_new).
    A run that needs more than RK45_MAX_STEPS steps is a ConfigError.
    Returns the accepted times and states and the SolverStats; the dense
    output of a run is `_dp5_interpolant` of them.
    """
    step = _dp5_stepper(fun, len(y))
    if rtol < RTOL_FLOOR:
        warnings.warn(f"rel_tol {rtol:g} is below {RTOL_FLOOR:.3g}; using {RTOL_FLOOR:.3g}",
                      stacklevel=3)
        rtol = RTOL_FLOOR
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
                y_new, err, slopes = step(y, f, h, atol, rtol)
                if err < 1:
                    factor = MAX_FACTOR if err == 0 else min(MAX_FACTOR, SAFETY * err ** -0.2)
                    h_abs *= min(1, factor) if rejected else factor
                    break
                h_abs *= max(MIN_FACTOR, SAFETY * err ** -0.2)
                rejected = True
            t, y, f = t_new, y_new, slopes[-1]
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
    return times, y, stats


def _dp5_interpolant(fun, times, blocks):
    """States at t, a number or an array of times, from the 4th-order
    Dormand-Prince interpolant of the step that holds each t (the earlier
    one at a step boundary, as scipy's OdeSolution),
    y_i + h (K^T P) (theta, theta^2, theta^3, theta^4). State y_i is row i
    of the arrays `blocks` side by side (the states, or x and p). The
    slopes K of a step are taken again from y_i and h, once per call for
    each step that holds a query, which gives the slopes of the run; shape
    (n,) for a number, (len(t), n) for an array."""
    width = sum(b.shape[1] for b in blocks)
    step = _dp5_stepper(fun, width)
    last = len(times) - 2

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
                _, _, slopes = step(y0, fun(y0), float(h))
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
    A run of more than BORIS_MAX_STEPS steps is a ConfigError, a
    position or velocity that leaves the double range a StepFailure, and
    a position off the model's domain after a step its DomainError.

    The step runs on Python floats with the operations, and so the bits,
    of the same step on 3-vectors; B and grad V come from one call of the
    model's `b_and_grad_v` at the half-drifted point, and |t|^2 from
    numpy's dot product of the rotation vector t = -B dt / 2 (BLAS may
    fuse its multiply-adds). The domain test after each step is the
    `floats` form of a stated model's `check_domain`, and `check_domain`
    itself for any other model.
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
    fields = model.b_and_grad_v
    stated = getattr(model.check_domain, "floats", None)
    domain = stated.__get__(model) if stated else lambda x: model.check_domain(np.array(x))
    for i in range(1, n_steps + 1):
        x0, x1, x2 = x0 + half * v0, x1 + half * v1, x2 + half * v2
        # a drift to inf stops here, before the model's methods see it
        if not all(map(math.isfinite, (x0, x1, x2))):
            raise StepFailure(OVERFLOW_MESSAGE)
        b0, b1, b2, g0, g1, g2 = fields((x0, x1, x2))
        tv0, tv1, tv2 = rot * b0, rot * b1, rot * b2
        tv = np.array((tv0, tv1, tv2))
        den = 1.0 + float(tv @ tv)
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
        domain((x0, x1, x2))
        t += dt
        table[i] = (t, x0, x1, x2, v0, v1, v2)
    times, xs, vs = table[:, 0].copy(), table[:, 1:4].copy(), table[:, 4:].copy()
    del table  # before p is formed, so that a step peaks at about 112 bytes
    times[-1] = float(t_end)
    ps = vs - model.vector_potential(xs)
    ps[0] = s0.p
    stats = SolverStats(n_steps, 0, n_steps, dt, dt)
    return times, xs, ps, None, stats
