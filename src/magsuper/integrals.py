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

Each built-in integral (`known_integrals`) is stated once, as a
`fields.Statement` of its s, J_s, m and grad m, from which `fields`
generates the four functions at import; a spec binds them to its model,
or to the g and Q of a monopole builder. A first-order one is a
generator a.P + b.L of the Euclidean algebra made covariant,
X = (a + b x x) . p^A + m(x), so s = a + b x x (`_rotation` for L_j):
    uniform field      X1, X2, X3 = P1, P2, P3 and X4 = L1;
    helical field      X1, X2 = P1, P2 and X3 = L3 + beta P3, a screw;
    monopole           X1, X2, X3 = L1, L2, L3;
    cylindrical family l3 = L3 and p3 = P3.
The monopole's X_sq and Runge-Lenz components R1-R3 are of second order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import partial, reduce
from numbers import Integral
from operator import add
from types import MethodType, SimpleNamespace
from typing import Callable, Mapping, NamedTuple

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
    Statement,
    Vec3,
    _as_points,
    _as_real,
    _as_reals,
    _as_vec3,
    _callable_fields,
    _generated,
    _per_point,
    _pow,
    _zeros,
    cross,
    dot,
    field_record,
    jacobian_fd,
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
        for key, shape in (("s", (3,)), ("m", ()), ("jac_s", (3, 3)), ("grad_m", (3,))):
            one = partial(_as_reals, what=f"IntegralSpec {self.name!r} {key} value", shape=shape)
            object.__setattr__(self, key, _lift_point_function(getattr(self, key), one))


def _parsed(text: str) -> list:
    """The terms (c, ab, f) of a sum written as in _H_N, c alpha_ab times
    the factor f ("" for 1), and (terms, None, f) for a sum in parentheses."""
    return [(_parsed(inner), None, f) if inner else
            ({"": 1, "-": -1, "-2*": -2}[c], tuple(map(int, ab)), g)
            for inner, f, c, ab, g in re.findall(r"\((.*?)\)(\w)|(-?(?:2\*)?)(\d\d)(\w*)", text)]


#: h1, h2, h3, n1, n2, n3, each closed by `+ alpha_cc`, then the rows of
#: jac_n, as they are summed: "-2*44z" is (-2 alpha_44) z, and "(...)y" the
#: sum in parentheses times y
_H_N = [_parsed(text) for text in (
    "66yy (-56z -16)y 55zz 15z 11", "66xx (-46z 26)x 44zz -24z 22",
    "55xx (-45y -35)x 44yy 34y 33", "-56xx (46y 45z -25 36)x (-2*44z 24)y -34z 23",
    "(56y -2*55z -15)x -46yy (45z -36 14)y 35z 13",
    "(-2*66y 16 56z)x (46z -26)y -45zz (25 -14)z 12",
    "-2*56x 46y 45z -25 36", "46x -2*44z 24", "45x -2*44y -34",
    "56y -2*55z -15", "56x -2*46y 45z -36 14", "-2*55x 45y 35",
    "-2*66y 16 56z", "-2*66x 46z -26", "56x 46y -2*45z 25 -14")]


def _folded(alpha: dict, terms: list, keep: tuple = ()) -> list:
    """The terms (c alpha_ab, f) of alpha, in order and grouping,
    less those of zero alpha_ab unless f is in `keep`. A sum closed by
    `+ alpha_cc` keeps it: `+ 0.0` makes a zero sum +0.0, as the dropped do."""
    folded = [(_folded(alpha, c) if ab is None else c * alpha.get(ab, 0.0), f)
              for c, ab, f in terms]
    return [(c, f) for c, f in folded if c or f in keep]


def _sum(terms: list, v: dict):
    """A folded sum at v["x"], v["y"], v["z"], with v[""] ones, so that a
    constant c enters as c * 1.0; a square "xx" enters v on first use."""
    for f in {f for _, f in terms} - v.keys():
        v[f] = _pow(v[f[0]], 2)
    return reduce(add, [(_sum(c, v) if isinstance(c, list) else c) * v[f] for c, f in terms])


@dataclass(frozen=True)
class CoeffPolynomials:
    """The quadratic polynomials h, n determined by the alpha matrix.

    They are exactly the coefficients of the momentum-quadratic part:
    sum alpha_ab Y_a Y_b = sum_j h_j (p_j^A)^2
                           + n_1 p_2^A p_3^A + n_2 p_1^A p_3^A + n_3 p_1^A p_2^A.
    `alpha` takes the forms that `IntegralSpec` does. Each method takes
    one point (3,) or an (n,3) stack; squares go through `_pow`, so a
    stack has the bits of its points. Zero terms are dropped once.
    """

    alpha: dict

    def __post_init__(self):
        object.__setattr__(self, "alpha", _normalize_alpha(self.alpha))
        object.__setattr__(self, "_terms", [_folded(self.alpha, t, ("",)) for t in _H_N[:6]])

    def _values(self, pos, terms) -> np.ndarray:
        x, y, z = _coords(pos)
        v = {"x": x, "y": y, "z": z, "": np.ones(np.shape(x))}
        return np.array([_sum(t, v) for t in terms])

    def h(self, pos) -> Vec3:
        return self._values(pos, self._terms[:3]).T

    def n(self, pos) -> Vec3:
        return self._values(pos, self._terms[3:]).T

    def jac_n(self, pos) -> np.ndarray:
        """dn_i/dx_j: a 3x3 matrix, or one per point, of every term, for a
        sum that ends in `- alpha_ab` may end in -0.0."""
        v = self._values(pos, [_folded(self.alpha, t, ("", *"xyz")) for t in _H_N[6:]])
        return np.moveaxis(v.reshape((3, 3) + v.shape[1:]), (0, 1), (-2, -1))


def _coords(pos):
    """x, y, z of one point (numbers) or of an (n,3) stack ((n,) arrays)."""
    xs, one = _as_points(pos)
    return xs[0] if one else xs.T


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
                             _model_gradient(model, lambda rec, p: _integral_gradient(
                                 obj, integral_record(obj, rec), p)),
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


def _integral_gradient(spec: IntegralSpec, irec: IntegralRecord,
                       p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(dX/dx, dX/dp) of a covariant integral at the (n,3) stacks x and p,
    from its IntegralRecord at x, by the chain rule through pi = p + A(x),
    with c = (c_lin, c_ang) = d(sum alpha_ab Y_a Y_b)/dY:
        dX/dp = c_lin + c_ang x x + s(x)
        dX/dx = J_A^T dX/dp + pi x c_ang + J_s^T pi + grad m.
    """
    rec = irec.field
    x = rec.x
    pa = p + rec.a
    c = np.zeros((6, len(x)))
    if spec.alpha:
        y = (*pa.T, *cross(x, pa).T)
        for (a, b), coef in spec.alpha.items():
            c[a - 1] += coef * y[b - 1]
            c[b - 1] += coef * y[a - 1]
    c_lin, c_ang = c[:3].T, c[3:].T
    gp = c_lin + cross(c_ang, x) + irec.s
    gx = _transpose_times(rec.jac_a, gp) + cross(pa, c_ang)
    if _zero_jac_s(spec):
        gx += 0.0  # J_s^T pi, the +0.0 that the stack of zero J_s gives
    else:
        gx += _transpose_times(irec.jac_s, pa)
    gx += irec.grad_m
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
    grads = []
    for f in fns:
        model = f.model if isinstance(f, PhaseFunction) else None
        if model is not None and id(model) not in records:
            records[id(model)] = field_record(model, xs)
        grads.append(phase_gradient(f, (xs, ps), records.get(id(model))))
    out = _bracket_table(grads)
    return out[0] if one else out


def _bracket_table(grads: list) -> np.ndarray:
    """The (n, k, k) table of {f_i, f_j} from the phase gradients
    (df_i/dx, df_i/dp) of k functions, each a pair of (n,3) stacks."""
    gx, gp = zip(*grads)
    # m[t, i, j] = df_i/dx . df_j/dp, each with the bits of a one-point `@`
    m = np.vecdot(np.stack(gx, axis=1)[:, :, None], np.stack(gp, axis=1)[:, None])
    return m - m.transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# determining-equation residuals

#: residual record keys, in report order
RESIDUAL_KEYS = (
    "ds1_dx", "ds2_dy", "ds3_dz",
    "ds1_dy+ds2_dx", "ds1_dz+ds3_dx", "ds3_dy+ds2_dz",
    "dm_dx", "dm_dy", "dm_dz",
    "zero_order",
)


class IntegralRecord(NamedTuple):
    """s, J_s and grad m of a spec at the stack of a FieldRecord, shared by
    the residual and gradient kernels as the FieldRecord is."""

    field: FieldRecord
    s: np.ndarray  # (n, 3)
    jac_s: np.ndarray  # (n, 3, 3), rows ds_i/dx_j
    grad_m: np.ndarray  # (n, 3)


def integral_record(spec: IntegralSpec, rec: FieldRecord) -> IntegralRecord:
    """The IntegralRecord of spec at rec's stack: each part from the spec's
    function (one constant jac_s or grad_m serves every point), by central
    differences, or zeros where the spec has no s or m, or a J_s that is a
    structural zero."""
    x = rec.x
    jac_s = (np.zeros((3, 3)) if _zero_jac_s(spec) else jacobian_fd(spec.s, x)
             if spec.jac_s is None else spec.jac_s(x))
    return IntegralRecord(
        rec, np.zeros(x.shape) if spec.s is None else spec.s(x),
        np.broadcast_to(jac_s, x.shape + (3,)),
        np.zeros(x.shape) if spec.m is None else jacobian_fd(spec.m, x)
        if spec.grad_m is None else np.broadcast_to(spec.grad_m(x), x.shape))


def determining_residuals(
    spec: IntegralSpec,
    model: FieldModel,
    x,
    mode: str = "classical",
    hbar: float = 1.0,
) -> dict:
    """Pointwise residuals of the determining equations at x: one point
    (3,) gives floats; an (n,3) stack, the model's FieldRecord at one, or
    the spec's IntegralRecord at that, gives an (n,) array per key.

    Keys: the three diagonal and three mixed second-order conditions,
    the three first-order conditions, and the zero-order condition. In
    quantum mode the zero-order entry gains the hbar^2/4 term built from
    derivatives of n and B; first-order integrals get no correction.
    """
    if mode not in ("classical", "quantum"):
        raise ParameterError(f"unknown mode {mode!r}")
    one = False
    if not isinstance(x, (FieldRecord, IntegralRecord)):
        xs, one = _as_points(x)
        x = field_record(model, xs)
    irec = x if isinstance(x, IntegralRecord) else integral_record(spec, x)
    rec = irec.field
    xs = rec.x
    if spec.alpha:
        poly = CoeffPolynomials(spec.alpha)
        h1, h2, h3 = poly.h(xs).T
        n1, n2, n3 = poly.n(xs).T
    else:  # a first-order integral: h and n vanish
        h1 = h2 = h3 = n1 = n2 = n3 = np.zeros(len(xs))
    b1, b2, b3 = rec.b.T
    vx, vy, vz = rec.grad_v.T
    sv = irec.s.T
    js = irec.jac_s.transpose(1, 2, 0)  # js[i, j]: ds_i/dx_j per point
    gm = irec.grad_m.T

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


def _rotation(j: int) -> list[str]:
    """The lines of s = e_j x x and of J_s, the constant [e_j]_x whose
    column k is e_j x e_k: the generator L_j made covariant."""
    i, k = (j + 1) % 3, (j + 2) % 3
    return [f"s{i} = -x{k}", f"s{k} = x{i}", f"S{i}{k} = -1.0", f"S{k}{i} = 1.0"]


def _x_over_r(j: int, c: str) -> list[str]:
    """The lines of m = c x_j/|x| and of its gradient, over r = |x| and r3."""
    return [f"m = {c} * (x{j} / r)", *(f"M{k} = {c} * (-x{j} * x{k} / r3{' + 1.0 / r' * (k == j)})"
                                       for k in range(3))]


def _runge_lenz(j: int) -> list[str]:
    """The lines of s = g (x x e_j) / |x| and J_s, over r = |x| and r3."""
    i, k = (j + 1) % 3, (j + 2) % 3
    c = {i: f"x{k}", k: f"-x{i}"}  # x x e_j
    jc = {(i, k): "1.0", (k, i): "-1.0"}  # its Jacobian
    return [f"s{n} = g * {c[n]} / r" for n in c] + [
        f"S{n}{q} = g * " + (f"({jc[n, q]} / r - {t})" if (n, q) in jc else f"-({t})")
        for n in c for q in range(3) for t in [f"{c[n]} * x{q} / r3"]]


def _stated(model: str, params: str, prelude: str, integrals: list) -> dict[str, tuple]:
    """name: (alpha, statement, its s, m, jac_s and grad_m) of each integral
    (name, alpha, lines), stated over `params` by the lines of `prelude`,
    which it reads as it needs, and its own."""
    out = {}
    for name, alpha, lines in integrals:
        st = Statement(params, "\n".join([*map(str.strip, prelude.strip().splitlines()), *lines]))
        out[name] = (alpha, st, _generated(f"{model}.{name}", st, ("s", "m", "jac_s", "grad_m")))
    return out


def _specs(stated: dict[str, tuple], params) -> list[IntegralSpec]:
    """The specs of `_stated`, their functions bound to `params`; a statement
    that assigns no s_i has no s, as the second-order X_sq."""
    specs = []
    for name, (alpha, _, functions) in stated.items():
        s, m, jac_s, grad_m = (MethodType(fn, params) for fn in functions)
        specs.append(IntegralSpec(name, alpha, *((s, m, jac_s, grad_m) if s.outputs else
                                                 (None, m, None, grad_m))))
    return specs


def _zero_jac_s(spec: IntegralSpec) -> bool:
    """Whether spec's J_s is a structural zero: spec has no s, or its jac_s
    is generated from a statement that assigns no entry of J_s."""
    return spec.s is None or getattr(spec.jac_s, "outputs", None) == ()


_MONOPOLE = "r = sqrt(x0 * x0 + x1 * x1 + x2 * x2)\nr3 = pow(r, 3)"
_CONSTANT_B = _stated("ConstantB", "B", "", [
    ("X1", {}, ["s0 = 1.0"]),
    ("X2", {}, ["s1 = 1.0", "m = B * x2", "M2 = B"]),
    ("X3", {}, ["s2 = 1.0", "m = -B * x1", "M1 = -B"]),
    ("X4", {}, [*_rotation(0), "m = -0.5 * B * (pow(x1, 2) + pow(x2, 2))", "M1 = -B * x1",
                "M2 = -B * x2"]),
])
_HELICAL = _stated("HelicalB", "A_amp beta phi0", """
    u = (x2 + phi0) / beta
    c = cos(u)
    sn = sin(u)""", [
    ("X1", {}, ["s0 = 1.0", "m = A_amp * c", "M2 = -A_amp * sn / beta"]),
    ("X2", {}, ["s1 = 1.0", "m = A_amp * sn", "M2 = A_amp * c / beta"]),
    ("X3", {}, [*_rotation(2), "s2 = beta", "m = A_amp * (x0 * sn - x1 * c)",
                "M0 = A_amp * sn", "M1 = -A_amp * c", "M2 = A_amp * (x0 * c + x1 * sn) / beta"]),
])
_ANGULAR = _stated("Monopole", "g", _MONOPOLE, [
    (f"X{j + 1}", {}, _rotation(j) + _x_over_r(j, "g")) for j in range(3)])
_SQUARE = _stated("Monopole", "g", "", [
    ("X_sq", {(4, 4): 1.0, (5, 5): 1.0, (6, 6): 1.0}, ["m = pow(g, 2)"])])
_RUNGE_LENZ = _stated("Monopole", "g Q", _MONOPOLE, [
    (f"R{j + 1}", alpha, _runge_lenz(j) + _x_over_r(j, "-Q")) for j, alpha in enumerate([
        {(2, 6): 1.0, (3, 5): -1.0}, {(1, 6): -1.0, (3, 4): 1.0}, {(1, 5): 1.0, (2, 4): -1.0}])])
# R as the model's statement reads it, and grad m = d (x/R, y/R, 0) with d = m'(R)
_GRAD_M_OF_R = ["M0 = d * x0 / r", "M1 = d * x1 / r"]
_CYLINDRICAL = _stated("Cylindrical", "f1 df1 f2 df2", "r = sqrt(x0 * x0 + x1 * x1)", [
    ("l3", {}, [*_rotation(2), "m = -at(f2, r)", "d = -at(df2, r)", *_GRAD_M_OF_R]),
    ("p3", {}, ["s2 = 1.0", "m = at(f1, r)", "d = at(df1, r)", *_GRAD_M_OF_R]),
])
#: a candidate of a `verify --spec` file: constant s = (c0, c1, c2) and m = c
_CONSTANT = _stated("SpecFile", "c0 c1 c2 c", "", [
    ("constant", {}, ["s0 = c0", "s1 = c1", "s2 = c2", "m = c"])])


def _constant_spec(name: str, alpha, s=None, m=None) -> IntegralSpec:
    """The candidate `name` of a spec file: alpha, constant s (three floats)
    and m (a float), each None for none; its J_s is a structural zero."""
    c0, c1, c2 = s or (0.0, 0.0, 0.0)
    bound = SimpleNamespace(c0=c0, c1=c1, c2=c2, c=m)
    return IntegralSpec(name, alpha, *(None if v is None else MethodType(fn, bound)
                                       for fn, v in zip(_CONSTANT["constant"][2], (s, m, s, m))))


def monopole_angular_specs(g: float) -> list[IntegralSpec]:
    """X_j = l_j^A + g x_j/|x| for j = 1..3: L1, L2, L3."""
    return _specs(_ANGULAR, SimpleNamespace(g=_as_real(g, f"g {g!r}")))


def monopole_total_square_spec(g: float) -> IntegralSpec:
    """(X)^2 = sum_j (l_j^A)^2 + g^2."""
    return _specs(_SQUARE, SimpleNamespace(g=_as_real(g, f"g {g!r}")))[0]


def monopole_runge_lenz_specs(g: float, Q: float) -> list[IntegralSpec]:
    """R_j = eps_jkl p_k^A X_l - Q x_j/|x| in covariant form: the quadratic
    parts are p2^A l3^A - p3^A l2^A and cyclic; the rest folds into s and m."""
    return _specs(_RUNGE_LENZ, SimpleNamespace(g=_as_real(g, f"g {g!r}"),
                                               Q=_as_real(Q, f"Q {Q!r}")))


def known_integrals(model: FieldModel) -> list[IntegralSpec]:
    """The integrals of motion attached to each named field model.

    For the monopole, the Runge-Lenz components are included only when
    the scalar potential carries the g^2/(2|x|^2) barrier that makes
    them conserved.
    """
    if isinstance(model, ConstantB):
        return _specs(_CONSTANT_B, model)
    if isinstance(model, HelicalB):
        return _specs(_HELICAL, model)
    if isinstance(model, Monopole):
        specs = monopole_angular_specs(model.g)
        specs.append(monopole_total_square_spec(model.g))
        if model.barrier:
            specs.extend(monopole_runge_lenz_specs(model.g, model.Q))
        return specs
    if isinstance(model, Cylindrical):
        return _specs(_CYLINDRICAL, model)
    raise UnsupportedModel(f"no known integrals for {type(model).__name__}")
