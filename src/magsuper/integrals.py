"""First- and second-order integrals of motion over the covariant basis.

A second-order integral is stored as
    X = sum_{a<=b} alpha_ab Y_a Y_b + s(x) . p^A + m(x),
where Y = (p1^A, p2^A, p3^A, l1^A, l2^A, l3^A) collects the covariant
linear and angular momenta. The module evaluates such integrals,
computes Poisson brackets, and checks the pointwise residuals of the
determining equations that characterize integrals of motion.

User code of one point or one state is lifted to (n,3) stacks where it
enters: in the constructor of `IntegralSpec` for its s, m, jac_s and
grad_m, and in `as_phase_function`, the one place that decides how a
phase-space function is called.

Each built-in first-order integral (`known_integrals`) is a generator
a.P + b.L of the Euclidean algebra made covariant,
X = (a + b x x) . p^A + m(x), with only m written per model:
    uniform field      X1, X2, X3 = P1, P2, P3 and X4 = L1;
    helical field      X1, X2 = P1, P2 and X3 = L3 + beta P3, a screw;
    monopole           X1, X2, X3 = L1, L2, L3;
    cylindrical family l3 = L3 and p3 = P3.
The monopole's X_sq and Runge-Lenz components R1-R3 are of second order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from numbers import Integral
from typing import Callable, Mapping

import numpy as np

from .dynamics import PhaseState, _state_arrays, hamiltonian
from .errors import ParameterError, UnsupportedModel
from .fields import (
    ConstantB,
    Cylindrical,
    FieldModel,
    FieldRecord,
    HelicalB,
    Monopole,
    Vec3,
    _as_points,
    _as_real,
    _as_vec3,
    _callable_fields,
    _per_point,
    _pow,
    _zeros,
    cross,
    dot,
    field_record,
    jacobian_fd,
    norm,
)


def _normalize_alpha(alpha) -> dict[tuple[int, int], float]:
    """Accept {(a,b): v} with integers 1 <= a <= b <= 6 and v a finite real
    number, or {"ab": v} with two digits a, b."""
    if alpha is None:
        return {}
    if not isinstance(alpha, Mapping):
        raise ParameterError(f"alpha must be a mapping, not {type(alpha).__name__}")
    out: dict[tuple[int, int], float] = {}
    for key, val in alpha.items():
        if isinstance(key, str):
            if not (len(key) == 2 and key.isascii() and key.isdigit()):
                raise ParameterError(f"alpha key {key!r} is not two digits 'ab'")
        elif not (isinstance(key, tuple) and len(key) == 2 and all(
                isinstance(i, Integral) and not isinstance(i, bool) for i in key)):
            raise ParameterError(f"alpha key {key!r} is not two digits 'ab' "
                                 "or a pair of integers")
        val = _as_real(val, f"alpha value {val!r} at {key!r}")
        a, b = map(int, key)
        if not (1 <= a <= b <= 6):
            raise ParameterError(f"alpha index ({a},{b}) out of range or unordered")
        if val != 0.0:
            out[(a, b)] = out.get((a, b), 0.0) + val
    return out


def _a(alpha: dict, a: int, b: int) -> float:
    return alpha.get((a, b), 0.0)


@dataclass(frozen=True)
class IntegralSpec:
    """One integral of motion in covariant form.

    `jac_s` (rows ds_i/dx_j) and `grad_m` are optional analytic
    derivatives; central differences are used when absent. Each of s, m,
    jac_s and grad_m takes (3,) or (n,3) points: the constructor lifts a
    user's function of one point to one call per point, while the
    functions of built-in specs, marked `stacks`, take stacks as given.
    """

    name: str
    alpha: dict
    s: Callable[[Vec3], Vec3] | None = None
    m: Callable[[Vec3], float] | None = None
    jac_s: Callable[[Vec3], np.ndarray] | None = None
    grad_m: Callable[[Vec3], Vec3] | None = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", _normalize_alpha(self.alpha))
        _callable_fields(self, optional=("s", "m", "jac_s", "grad_m"))
        for key, one in (("s", _as_vec3), ("m", float), ("grad_m", _as_vec3),
                         ("jac_s", lambda j: np.asarray(j, dtype=float))):
            object.__setattr__(self, key, _lift_point_function(getattr(self, key), one))


@dataclass(frozen=True)
class CoeffPolynomials:
    """The quadratic polynomials h, n determined by the alpha matrix.

    They are exactly the coefficients of the momentum-quadratic part:
    sum alpha_ab Y_a Y_b = sum_j h_j (p_j^A)^2
                           + n_1 p_2^A p_3^A + n_2 p_1^A p_3^A + n_3 p_1^A p_2^A.
    `alpha` takes the forms that `IntegralSpec` does. Each method takes
    one point (3,) or an (n,3) stack; squares go through `_pow`, so a
    stack has the bits of its points.
    """

    alpha: dict

    def __post_init__(self):
        object.__setattr__(self, "alpha", _normalize_alpha(self.alpha))

    def h(self, pos) -> Vec3:
        x, y, z = _coords(pos)
        xx, yy, zz = _pow(x, 2), _pow(y, 2), _pow(z, 2)
        al = self.alpha
        h1 = (_a(al, 6, 6) * yy + (-_a(al, 5, 6) * z - _a(al, 1, 6)) * y
              + _a(al, 5, 5) * zz + _a(al, 1, 5) * z + _a(al, 1, 1))
        h2 = (_a(al, 6, 6) * xx + (-_a(al, 4, 6) * z + _a(al, 2, 6)) * x
              + _a(al, 4, 4) * zz - _a(al, 2, 4) * z + _a(al, 2, 2))
        h3 = (_a(al, 5, 5) * xx + (-_a(al, 4, 5) * y - _a(al, 3, 5)) * x
              + _a(al, 4, 4) * yy + _a(al, 3, 4) * y + _a(al, 3, 3))
        return np.array([h1, h2, h3]).T

    def n(self, pos) -> Vec3:
        x, y, z = _coords(pos)
        al = self.alpha
        n1 = (-_a(al, 5, 6) * _pow(x, 2)
              + (_a(al, 4, 6) * y + _a(al, 4, 5) * z - _a(al, 2, 5) + _a(al, 3, 6)) * x
              + (-2 * _a(al, 4, 4) * z + _a(al, 2, 4)) * y
              - _a(al, 3, 4) * z + _a(al, 2, 3))
        n2 = ((_a(al, 5, 6) * y - 2 * _a(al, 5, 5) * z - _a(al, 1, 5)) * x
              - _a(al, 4, 6) * _pow(y, 2)
              + (_a(al, 4, 5) * z - _a(al, 3, 6) + _a(al, 1, 4)) * y
              + _a(al, 3, 5) * z + _a(al, 1, 3))
        n3 = ((-2 * _a(al, 6, 6) * y + _a(al, 1, 6) + _a(al, 5, 6) * z) * x
              + (_a(al, 4, 6) * z - _a(al, 2, 6)) * y
              - _a(al, 4, 5) * _pow(z, 2) + (_a(al, 2, 5) - _a(al, 1, 4)) * z + _a(al, 1, 2))
        return np.array([n1, n2, n3]).T

    def jac_n(self, pos) -> np.ndarray:
        x, y, z = _coords(pos)
        al = self.alpha
        return _rows([
            [-2 * _a(al, 5, 6) * x + _a(al, 4, 6) * y + _a(al, 4, 5) * z
             - _a(al, 2, 5) + _a(al, 3, 6),
             _a(al, 4, 6) * x - 2 * _a(al, 4, 4) * z + _a(al, 2, 4),
             _a(al, 4, 5) * x - 2 * _a(al, 4, 4) * y - _a(al, 3, 4)],
            [_a(al, 5, 6) * y - 2 * _a(al, 5, 5) * z - _a(al, 1, 5),
             _a(al, 5, 6) * x - 2 * _a(al, 4, 6) * y + _a(al, 4, 5) * z
             - _a(al, 3, 6) + _a(al, 1, 4),
             -2 * _a(al, 5, 5) * x + _a(al, 4, 5) * y + _a(al, 3, 5)],
            [-2 * _a(al, 6, 6) * y + _a(al, 1, 6) + _a(al, 5, 6) * z,
             -2 * _a(al, 6, 6) * x + _a(al, 4, 6) * z - _a(al, 2, 6),
             _a(al, 5, 6) * x + _a(al, 4, 6) * y - 2 * _a(al, 4, 5) * z
             + _a(al, 2, 5) - _a(al, 1, 4)],
        ])


def _coords(pos):
    """x, y, z of one point (numbers) or of an (n,3) stack ((n,) arrays)."""
    xs, one = _as_points(pos)
    return xs[0] if one else xs.T


def _rows(rows) -> np.ndarray:
    """A 3x3 matrix, or one per point, from rows of numbers or (n,) arrays."""
    return np.moveaxis(np.array(rows), (0, 1), (-2, -1))


def covariant_momentum(model: FieldModel, s: PhaseState) -> Vec3:
    x, p = _state_arrays(s)
    return p + model.vector_potential(x)


def _lift_point_function(fn, one):
    """fn of one point, called once per point of an (n,3) stack
    (`_per_point`), each value passed through `one`; None and functions
    marked `stacks` pass through."""
    if fn is None or getattr(fn, "stacks", False):
        return fn
    lifted = partial(_per_point, lambda x: one(fn(x)))
    lifted.stacks = True
    return lifted


def evaluate_integral(spec: IntegralSpec, model: FieldModel, s: PhaseState):
    """X at a PhaseState (a float), or at each state of a pair (x, p) of
    (n,3) stacks (shape (n,))."""
    x, _ = _state_arrays(s)
    pa = covariant_momentum(model, s)
    val = _zeros(x)
    if spec.alpha:
        y = (*pa.T, *cross(x, pa).T)
        for (a, b), c in spec.alpha.items():
            val += c * y[a - 1] * y[b - 1]
    if spec.s is not None:
        val += dot(spec.s(x), pa)
    if spec.m is not None:
        val += spec.m(x)
    return val if x.ndim == 2 else float(val)


# ---------------------------------------------------------------------------
# Poisson brackets


@dataclass(frozen=True)
class PhaseFunction:
    """Scalar function on phase space, optionally with analytic gradient.

    `grad(state)` returns (df/dx, df/dp) as two 3-vectors. A function
    made on a field `model` (`as_phase_function` of an IntegralSpec,
    `hamiltonian_function`, the uniform-field algebra basis) also takes a
    pair (x, p) of (n,3) stacks in `fn` and `grad`, and its grad accepts
    the model's FieldRecord at x as a second argument. Any other one is
    called one PhaseState at a time, through `as_phase_function`.
    """

    name: str
    fn: Callable[[PhaseState], float]
    grad: Callable[[PhaseState], tuple[Vec3, Vec3]] | None = None
    model: FieldModel | None = None

    def __post_init__(self):
        _callable_fields(self, ("fn",), ("grad",))

    def __call__(self, s: PhaseState) -> float:
        return float(self.fn(s))


def _model_gradient(model: FieldModel, kernel: Callable) -> Callable:
    """grad(s, record=None) of a phase function made on a model, from
    kernel(record, p) on (n,3) stacks; one state is a stack of one."""

    def grad(s, record: FieldRecord | None = None):
        x, p = _state_arrays(s)
        xs, one = _as_points(x)
        if record is None:
            record = field_record(model, xs)
        gx, gp = kernel(record, np.reshape(p, xs.shape))
        return (gx[0], gp[0]) if one else (gx, gp)

    return grad


def _phase_coords(s) -> np.ndarray:
    """The six coordinates (x, p) of a PhaseState, or (n,6) of a pair of
    (n,3) stacks."""
    return np.concatenate(_state_arrays(s), axis=-1)


def _coordinate_gradient(dz: Callable) -> Callable:
    """grad(s, record=None) from dz, the derivative in the six coordinates."""

    def grad(s, record=None):
        g = dz(_phase_coords(s))
        return g[..., :3], g[..., 3:]

    return grad


def as_phase_function(obj, model: FieldModel | None = None, name: str = "") -> PhaseFunction:
    """The PhaseFunction of obj, whose `fn(s)` and `grad(s, record=None)`
    take a PhaseState or a pair (x, p) of (n,3) stacks.

    A PhaseFunction made on a model passes through, with central
    differences for a missing grad; an IntegralSpec on `model` carries
    the spec's exact gradient. Anything else is user code of one
    PhaseState (a PhaseFunction without a model, a plain callable), called
    one state at a time, as is its own grad; central differences stand in
    for a missing one.
    """
    if isinstance(obj, IntegralSpec):
        if model is None:
            raise ParameterError("an IntegralSpec needs a model to become a phase function")
        return PhaseFunction(name or obj.name,
                             lambda s: evaluate_integral(obj, model, s),
                             _model_gradient(model, lambda rec, p: _integral_gradient(obj, rec, p)),
                             model)
    if isinstance(obj, PhaseFunction) and obj.model is not None:
        if obj.grad is not None:
            return obj
        return replace(obj, grad=_coordinate_gradient(
            partial(jacobian_fd, lambda z: obj.fn((z[..., :3], z[..., 3:])))))
    if not callable(obj):
        raise TypeError(f"cannot interpret {type(obj).__name__} as a phase-space function")
    fn, grad = (obj.fn, obj.grad) if isinstance(obj, PhaseFunction) else (obj, None)
    value = _lift_point_function(lambda z: fn(PhaseState.from_array(z)), float)
    dz = partial(jacobian_fd, value) if grad is None else _lift_point_function(
        lambda z: grad(PhaseState.from_array(z)),
        lambda g: np.concatenate([_as_vec3(c) for c in g]))
    return PhaseFunction(name or getattr(obj, "name", "") or getattr(obj, "__name__", "f"),
                         lambda s: value(_phase_coords(s)), _coordinate_gradient(dz))


def _transpose_times(j: np.ndarray, v: np.ndarray) -> np.ndarray:
    """J^T v per point of (n,3,3) and (n,3) stacks. np.matvec gives each
    row the bits of a one-point `J.T @ v`; a written-out sum does not."""
    return np.matvec(j.transpose(0, 2, 1), v)


def _hamiltonian_gradient(rec: FieldRecord, p: np.ndarray):
    v = p + rec.a
    return _transpose_times(rec.jac_a, v) + rec.grad_v, v


def hamiltonian_function(model: FieldModel) -> PhaseFunction:
    return PhaseFunction("H", lambda s: hamiltonian(model, s),
                         _model_gradient(model, _hamiltonian_gradient), model)


def _integral_gradient(spec: IntegralSpec, rec: FieldRecord,
                       p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(dX/dx, dX/dp) of a covariant integral at the (n,3) stacks rec.x and
    p, by the chain rule through pi = p + A(x), with
    c = (c_lin, c_ang) = d(sum alpha_ab Y_a Y_b)/dY:
        dX/dp = c_lin + c_ang x x + s(x)
        dX/dx = J_A^T dX/dp + pi x c_ang + J_s^T pi + grad m.
    """
    x = rec.x
    pa = p + rec.a
    c = np.zeros((6, len(x)))
    if spec.alpha:
        y = (*pa.T, *cross(x, pa).T)
        for (a, b), coef in spec.alpha.items():
            c[a - 1] += coef * y[b - 1]
            c[b - 1] += coef * y[a - 1]
    c_lin, c_ang = c[:3].T, c[3:].T
    gp = c_lin + cross(c_ang, x) + _spec_s(spec, x)
    gx = (_transpose_times(rec.jac_a, gp) + cross(pa, c_ang)
          + _transpose_times(_spec_jac_s(spec, x), pa) + _spec_grad_m(spec, x))
    return gx, gp


def phase_gradient(f, s, record: FieldRecord | None = None):
    """(df/dx, df/dp) at a PhaseState, or (n,3) stacks at a pair (x, p) of
    stacks, from the grad of `as_phase_function(f)`; `record`, the
    FieldRecord of f's model at x, saves a function made on a model its
    field evaluations."""
    return as_phase_function(f).grad(s, record)


def _state_stacks(s, what: str = "states") -> tuple[np.ndarray, np.ndarray]:
    """s, a pair (x, p) of sampled states, as two finite (n,3) float stacks
    of one shape; anything else is a ParameterError that names `what`."""
    try:
        x, p = (np.asarray(a, dtype=float) for a in s)
    except (TypeError, ValueError):
        raise ParameterError(f"{what} is not a pair (x, p) of (n,3) arrays") from None
    if x.ndim != 2 or x.shape[1] != 3 or p.shape != x.shape:
        raise ParameterError(f"{what} has x of shape {x.shape} and p of shape {p.shape}, "
                             "not two (n,3) stacks of one shape")
    if not (np.isfinite(x).all() and np.isfinite(p).all()):
        raise ParameterError(f"{what} has non-finite components")
    return x, p


def bracket_matrix(fns, s, record: FieldRecord | None = None) -> np.ndarray:
    """The antisymmetric table of {f_i, f_j}: (k, k) at a PhaseState,
    (n, k, k) at a pair (x, p) of (n,3) stacks (`_state_stacks`).

    One phase gradient per function; the functions made on one model
    share one FieldRecord, `record` when it is given.
    """
    one = isinstance(s, PhaseState)
    xs, ps = (s.x[None], s.p[None]) if one else _state_stacks(s, "s")
    records = {} if record is None else {id(record.model): record}
    gx, gp = [], []
    for f in fns:
        model = f.model if isinstance(f, PhaseFunction) else None
        if model is not None and id(model) not in records:
            records[id(model)] = field_record(model, xs)
        fx, fp = phase_gradient(f, (xs, ps), records.get(id(model)))
        gx.append(fx)
        gp.append(fp)
    # m[t, i, j] = df_i/dx . df_j/dp, each with the bits of a one-point `@`
    m = np.vecdot(np.stack(gx, axis=1)[:, :, None], np.stack(gp, axis=1)[:, None])
    out = m - m.transpose(0, 2, 1)
    return out[0] if one else out


# ---------------------------------------------------------------------------
# determining-equation residuals

#: residual record keys, in report order
RESIDUAL_KEYS = (
    "ds1_dx", "ds2_dy", "ds3_dz",
    "ds1_dy+ds2_dx", "ds1_dz+ds3_dx", "ds3_dy+ds2_dz",
    "dm_dx", "dm_dy", "dm_dz",
    "zero_order",
)


def _spec_s(spec: IntegralSpec, x: np.ndarray) -> np.ndarray:
    """s at each point of an (n,3) stack."""
    return np.zeros(x.shape) if spec.s is None else spec.s(x)


def _spec_jac_s(spec: IntegralSpec, x: np.ndarray) -> np.ndarray:
    """The Jacobian of s at each point of an (n,3) stack, shape (n,3,3)."""
    if spec.s is None:
        return np.zeros(x.shape + (3,))
    if spec.jac_s is not None:
        return np.broadcast_to(spec.jac_s(x), x.shape + (3,))
    return jacobian_fd(spec.s, x)


def _spec_grad_m(spec: IntegralSpec, x: np.ndarray) -> np.ndarray:
    """grad m at each point of an (n,3) stack."""
    if spec.m is None:
        return np.zeros(x.shape)
    if spec.grad_m is not None:
        return np.broadcast_to(spec.grad_m(x), x.shape)
    return jacobian_fd(spec.m, x)


def determining_residuals(
    spec: IntegralSpec,
    model: FieldModel,
    x,
    mode: str = "classical",
    hbar: float = 1.0,
) -> dict:
    """Pointwise residuals of the determining equations at x: one point
    (3,) gives floats; an (n,3) stack, or the model's FieldRecord at one,
    gives an (n,) array per key.

    Keys: the three diagonal and three mixed second-order conditions,
    the three first-order conditions, and the zero-order condition. In
    quantum mode the zero-order entry gains the hbar^2/4 term built from
    derivatives of n and B; first-order integrals get no correction.
    """
    if mode not in ("classical", "quantum"):
        raise ParameterError(f"unknown mode {mode!r}")
    if isinstance(x, FieldRecord):
        rec, one = x, False
    else:
        xs, one = _as_points(x)
        rec = field_record(model, xs)
    xs = rec.x
    if spec.alpha:
        poly = CoeffPolynomials(spec.alpha)
        h1, h2, h3 = poly.h(xs).T
        n1, n2, n3 = poly.n(xs).T
    else:  # a first-order integral: h and n vanish
        h1 = h2 = h3 = n1 = n2 = n3 = np.zeros(len(xs))
    b1, b2, b3 = rec.b.T
    vx, vy, vz = rec.grad_v.T
    sv = _spec_s(spec, xs).T
    js = _spec_jac_s(spec, xs).transpose(1, 2, 0)  # js[i, j]: ds_i/dx_j per point
    gm = _spec_grad_m(spec, xs).T

    res = {
        "ds1_dx": js[0, 0] - (n2 * b2 - n3 * b3),
        "ds2_dy": js[1, 1] - (n3 * b3 - n1 * b1),
        "ds3_dz": js[2, 2] - (n1 * b1 - n2 * b2),
        "ds1_dy+ds2_dx": js[0, 1] + js[1, 0]
        - (n1 * b2 - n2 * b1 + 2 * (h1 - h2) * b3),
        "ds1_dz+ds3_dx": js[0, 2] + js[2, 0]
        - (n3 * b1 - n1 * b3 + 2 * (h3 - h1) * b2),
        "ds3_dy+ds2_dz": js[2, 1] + js[1, 2]
        - (n2 * b3 - n3 * b2 + 2 * (h2 - h3) * b1),
        "dm_dx": gm[0] - (2 * h1 * vx + n3 * vy + n2 * vz + sv[2] * b2 - sv[1] * b3),
        "dm_dy": gm[1] - (n3 * vx + 2 * h2 * vy + n1 * vz + sv[0] * b3 - sv[2] * b1),
        "dm_dz": gm[2] - (n2 * vx + n1 * vy + 2 * h3 * vz + sv[1] * b1 - sv[0] * b2),
        # vecdot: the bits of a one-point `sv @ grad V`
        "zero_order": np.vecdot(sv.T, rec.grad_v),
    }
    if mode == "quantum" and spec.alpha:
        jn = poly.jac_n(xs).transpose(1, 2, 0)
        jb = jacobian_fd(model.magnetic_field, xs).transpose(1, 2, 0)
        corr = (jn[0, 2] * jb[0, 2] - jn[0, 1] * jb[0, 1]
                + jn[1, 0] * jb[1, 0] - jn[1, 2] * jb[1, 2]
                + jn[2, 1] * jb[2, 1] - jn[2, 0] * jb[2, 0]
                + jn[0, 0] * jb[1, 1] - jn[1, 1] * jb[0, 0])
        res["zero_order"] += 0.25 * hbar**2 * corr
    return {k: float(v[0]) for k, v in res.items()} if one else res


# ---------------------------------------------------------------------------
# known integrals per system


_E = np.eye(3)


def _known(name, alpha, s=None, m=None, jac_s=None, grad_m=None) -> IntegralSpec:
    """A built-in spec, or a candidate of a `verify --spec` file; its s, m,
    jac_s and grad_m take (3,) or (n,3) points (a jac_s or grad_m that
    returns one constant serves every point)."""
    for fn in (s, m, jac_s, grad_m):
        if fn is not None:
            fn.stacks = True
    return IntegralSpec(name, alpha, s, m, jac_s, grad_m)


def _generator(name, a, b, m, grad_m) -> IntegralSpec:
    """The first-order integral X = (a + b x x) . p^A + m(x): the Euclidean
    generator a.P + b.L made covariant, from constant 3-vectors a and b
    (None for zero). Its jac_s is the constant [b]_x, whose column k is
    b x e_k."""
    if b is None:
        def s(x):
            return np.broadcast_to(a, x.shape).copy()

        jac = np.zeros((3, 3))
    else:
        def s(x):
            return cross(b, x) if a is None else cross(b, x) + a

        jac = cross(b, _E).T
    return _known(name, {}, s, m, lambda x: jac, grad_m)


def _const_b_specs(model: ConstantB) -> list[IntegralSpec]:
    """P1, P2, P3 and L1."""
    B = model.B
    return [
        _generator("X1", _E[0], None, lambda x: _zeros(x), lambda x: np.zeros(3)),
        _generator("X2", _E[1], None, lambda x: B * x.T[2], lambda x: np.array([0.0, 0.0, B])),
        _generator("X3", _E[2], None, lambda x: -B * x.T[1], lambda x: np.array([0.0, -B, 0.0])),
        _generator("X4", None, _E[0],
                   lambda x: -0.5 * B * (_pow(x.T[1], 2) + _pow(x.T[2], 2)),
                   lambda x: np.array([_zeros(x), -B * x.T[1], -B * x.T[2]]).T),
    ]


def _helical_specs(model: HelicalB) -> list[IntegralSpec]:
    """P1, P2 and the screw L3 + beta P3."""
    amp, beta, phi0 = model.A_amp, model.beta, model.phi0

    def u(x):
        return (x.T[2] + phi0) / beta

    return [
        _generator("X1", _E[0], None, lambda x: amp * np.cos(u(x)),
                   lambda x: np.array([_zeros(x), _zeros(x), -amp * np.sin(u(x)) / beta]).T),
        _generator("X2", _E[1], None, lambda x: amp * np.sin(u(x)),
                   lambda x: np.array([_zeros(x), _zeros(x), amp * np.cos(u(x)) / beta]).T),
        _generator(
            "X3", beta * _E[2], _E[2],
            lambda x: amp * (x.T[0] * np.sin(u(x)) - x.T[1] * np.cos(u(x))),
            lambda x: np.array([
                amp * np.sin(u(x)),
                -amp * np.cos(u(x)),
                amp * (x.T[0] * np.cos(u(x)) + x.T[1] * np.sin(u(x))) / beta,
            ]).T,
        ),
    ]


def _unit_radial(j: int):
    """x_j/|x| and its gradient, as closures."""

    def val(x):
        return x.T[j] / norm(x)

    def grad(x):
        r = norm(x)
        g = (-x.T[j] * x.T / _pow(r, 3)).T
        g.T[j] += 1.0 / r
        return g

    return val, grad


def monopole_angular_specs(g: float) -> list[IntegralSpec]:
    """X_j = l_j^A + g x_j/|x| for j = 1..3: L1, L2, L3."""
    specs = []
    for j in range(3):
        val, grad = _unit_radial(j)
        specs.append(_generator(f"X{j + 1}", None, _E[j],
                                lambda x, v=val: g * v(x), lambda x, gr=grad: g * gr(x)))
    return specs


def monopole_total_square_spec(g: float) -> IntegralSpec:
    """(X)^2 = sum_j (l_j^A)^2 + g^2."""
    return _known(
        "X_sq", {(4, 4): 1.0, (5, 5): 1.0, (6, 6): 1.0},
        s=None,
        m=lambda x: g**2 + _zeros(x),
        grad_m=lambda x: np.zeros(3),
    )


def monopole_runge_lenz_specs(g: float, Q: float) -> list[IntegralSpec]:
    """R_j = eps_jkl p_k^A X_l - Q x_j/|x| in covariant form.

    The quadratic parts are p2^A l3^A - p3^A l2^A and cyclic; the rest
    folds into s and m.
    """
    alphas = [
        {(2, 6): 1.0, (3, 5): -1.0},
        {(1, 6): -1.0, (3, 4): 1.0},
        {(1, 5): 1.0, (2, 4): -1.0},
    ]

    def s_fn(j):
        def s(x):
            return (g * cross(x, _E[j]).T / norm(x)).T

        return s

    def jac_s_fn(j):
        def jac(x):
            r = norm(x)
            c = cross(x, _E[j])
            jc = np.zeros((3, 3))
            jc[(j + 1) % 3, (j + 2) % 3] = 1.0
            jc[(j + 2) % 3, (j + 1) % 3] = -1.0
            # rows: d/dx_k of g c_i / r, per point
            outer = c[..., :, None] * x[..., None, :]
            return g * (jc / np.asarray(r)[..., None, None]
                        - outer / np.asarray(_pow(r, 3))[..., None, None])

        return jac

    specs = []
    for j in range(3):
        val, grad = _unit_radial(j)
        specs.append(_known(
            f"R{j + 1}", alphas[j],
            s=s_fn(j),
            m=(lambda x, v=val: -Q * v(x)),
            jac_s=jac_s_fn(j),
            grad_m=(lambda x, gr=grad: -Q * gr(x)),
        ))
    return specs


def _cylindrical_specs(model: Cylindrical) -> list[IntegralSpec]:
    """L3 and P3."""
    # F1, F2 and their derivatives are the user's: one radius per call
    def of_radius(fn, x):
        return model._at_radius(fn, model._radius(x))

    return [
        _generator("l3", None, _E[2], lambda x: -of_radius(model.f2, x),
                   lambda x: -model._radial_gradient(model.df2, x)),
        _generator("p3", _E[2], None, lambda x: of_radius(model.f1, x),
                   lambda x: model._radial_gradient(model.df1, x)),
    ]


def known_integrals(model: FieldModel) -> list[IntegralSpec]:
    """The integrals of motion attached to each named field model.

    For the monopole, the Runge-Lenz components are included only when
    the scalar potential carries the g^2/(2|x|^2) barrier that makes
    them conserved.
    """
    if isinstance(model, ConstantB):
        return _const_b_specs(model)
    if isinstance(model, HelicalB):
        return _helical_specs(model)
    if isinstance(model, Monopole):
        specs = monopole_angular_specs(model.g)
        specs.append(monopole_total_square_spec(model.g))
        if model.barrier:
            specs.extend(monopole_runge_lenz_specs(model.g, model.Q))
        return specs
    if isinstance(model, Cylindrical):
        return _cylindrical_specs(model)
    raise UnsupportedModel(f"no known integrals for {type(model).__name__}")
