"""Static electromagnetic field models.

Every model supplies a vector potential A(x), the magnetic field
B(x) = curl A(x), and a scalar potential V(x), in units where the
particle has mass 1 and charge -1 so the Hamiltonian reads
H = (p + A)^2 / 2 + V.

The methods of every model take one point of shape (3,) or a stack of
shape (n,3) and answer per point. Callables a model holds from its user
(`Custom`, the F1, F2 and V of `Cylindrical`) are still called with one
point or one radius at a time. `field_record` gathers A, J_A, B and
grad V at a stack into one `FieldRecord`, which the checks share.

Every model also has `hamilton_rhs`, the right-hand side of Hamilton's
equations at one state given as six floats: the three closed-form
models write it out in scalar arithmetic, `Cylindrical` and `Custom`
assemble it from their A, J_A and grad V (`_matrix_rhs`).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, DomainError, ParameterError

Vec3 = np.ndarray

#: clearance below which a point counts as sitting on a singular locus
EPS_DOMAIN = 1e-8


def _as_vec3(x) -> Vec3:
    a = np.asarray(x, dtype=float)
    if a.shape != (3,):
        raise ParameterError(f"expected a 3-vector, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ParameterError("vector has non-finite components")
    return a


def _as_points(x) -> tuple[np.ndarray, bool]:
    """x as an (n,3) stack of finite points, and whether it was one (3,) point."""
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[1] != 3:
        return _as_vec3(a)[None], True
    if not np.isfinite(a).all():
        raise ParameterError("vector has non-finite components")
    return a, False


# Kernels on points: x is one point of shape (3,) or a stack of shape
# (n,3), and results keep that leading shape. Going through the
# transpose serves both: `x0, x1, x2 = x.T` and `x.T[k]` give numbers
# or (n,) arrays, `np.array([c0, c1, c2]).T` builds vectors back, and
# `out.T[k] = c` or `j.T[k, i] = c` sets a component or J_ik at every
# point. (`x[..., k]` would give 0-d arrays for one point, and numpy
# arithmetic on those costs several times more than on numbers.)


def cross(a, b):
    """a x b for 3-vectors or (n,3) stacks, either side broadcast.

    The same products and differences as np.cross, so the same bits,
    without its per-call overhead.
    """
    a0, a1, a2 = a.T
    b0, b1, b2 = b.T
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]).T


def dot(a, b):
    """a . b per point: a number, or shape (n,) for stacks."""
    a0, a1, a2 = a.T
    b0, b1, b2 = b.T
    return a0 * b0 + a1 * b1 + a2 * b2


def norm(x):
    """|x| per point."""
    x0, x1, x2 = x.T
    return np.sqrt(x0 * x0 + x1 * x1 + x2 * x2)


def _zeros(x):
    """0.0 per point of x: a float, or shape (n,) for a stack."""
    return np.zeros(len(x)) if np.ndim(x) == 2 else 0.0


def _zero_matrices(x) -> np.ndarray:
    """A 3x3 zero matrix per point of x."""
    return np.zeros(x.shape[:-1] + (3, 3))


def _first_flagged(x, flags):
    """The first point of x whose flag is set, or None."""
    if x.ndim == 1:
        return x if flags else None
    return x[np.argmax(flags)] if flags.any() else None


def _rowwise(*shape):
    """Let a method of one point take a stack too, calling it row by row;
    `shape` is its result's shape per point, which an empty stack keeps.

    Used where a model calls user code, which only ever sees single
    points of shape (3,).
    """

    def decorate(method):
        @functools.wraps(method)
        def wrapper(self, x):
            if np.ndim(x) == 2:
                rows = [method(self, row) for row in x]
                return np.array(rows) if rows else np.zeros((0, *shape))
            return method(self, x)

        return wrapper

    return decorate


def _pow(r, k):
    """r**k per point with the bits of a one-point call (numpy's vectorised
    power can differ from libm's pow in the last bit)."""
    if np.ndim(r) == 0:
        return r**k
    return np.array([v**k for v in r.tolist()])


def _matrix_rhs(model, y) -> tuple:
    """Hamilton's right-hand side at one state y = (x0, x1, x2, p0, p1, p2)
    from the model's A, J_A and grad V as arrays: v = p + A and
    dp = -J_A^T v - grad V, returned as six floats."""
    x, p = np.array(y[:3]), np.array(y[3:])
    v = p + model.vector_potential(x)
    dp = -(model.jacobian_a(x).T @ v) - model.grad_potential(x)
    return (*v.tolist(), *dp.tolist())


def _per_radius(fn, r):
    """fn(r) of a user function of one radius, r a number or shape (n,)."""
    if np.ndim(r) == 0:
        return fn(float(r))
    return np.array([fn(float(q)) for q in r], dtype=float)


@dataclass(frozen=True)
class ConstantB:
    """Uniform magnetic field B along the x-axis (B of either sign).

    Gauge: A = (0, -B z, 0), V = 0.
    """

    B: float

    def __post_init__(self):
        if not abs(self.B) > 0:
            raise ParameterError("ConstantB requires B != 0")

    def check_domain(self, x: Vec3) -> None:
        pass

    def vector_potential(self, x: Vec3) -> Vec3:
        a = np.zeros(x.shape)
        a.T[1] = -self.B * x.T[2]
        return a

    def magnetic_field(self, x: Vec3) -> Vec3:
        b = np.zeros(x.shape)
        b.T[0] = self.B
        return b

    def scalar_potential(self, x: Vec3) -> float:
        return _zeros(x)

    def grad_potential(self, x: Vec3) -> Vec3:
        return np.zeros(x.shape)

    def jacobian_a(self, x: Vec3) -> np.ndarray:
        j = _zero_matrices(x)
        j.T[2, 1] = -self.B
        return j

    def hamilton_rhs(self, y) -> tuple:
        """(v, dp) at one state of six floats; J_A^T v = (0, 0, -B v_y)."""
        _, _, x2, p0, p1, p2 = y
        v1 = p1 - self.B * x2
        return p0, v1, p2, 0.0, 0.0, self.B * v1


@dataclass(frozen=True)
class HelicalB:
    """Helical magnetic field of constant magnitude A_amp / |beta|.

    Gauge: A = (-A_amp cos u, -A_amp sin u, 0) with u = (z + phi0) / beta,
    so B = (A_amp / beta)(cos u, sin u, 0) and V = 0.
    """

    A_amp: float
    beta: float
    phi0: float = 0.0

    def __post_init__(self):
        if not self.A_amp > 0:
            raise ParameterError("HelicalB requires A_amp > 0")
        if self.beta == 0:
            raise ParameterError("HelicalB requires beta != 0")

    def _u(self, x: Vec3):
        return (x.T[2] + self.phi0) / self.beta

    def check_domain(self, x: Vec3) -> None:
        pass

    def vector_potential(self, x: Vec3) -> Vec3:
        u = self._u(x)
        a = np.zeros(x.shape)
        a.T[0] = -self.A_amp * np.cos(u)
        a.T[1] = -self.A_amp * np.sin(u)
        return a

    def magnetic_field(self, x: Vec3) -> Vec3:
        u = self._u(x)
        c = self.A_amp / self.beta
        b = np.zeros(x.shape)
        b.T[0] = c * np.cos(u)
        b.T[1] = c * np.sin(u)
        return b

    def scalar_potential(self, x: Vec3) -> float:
        return _zeros(x)

    def grad_potential(self, x: Vec3) -> Vec3:
        return np.zeros(x.shape)

    def jacobian_a(self, x: Vec3) -> np.ndarray:
        u = self._u(x)
        j = _zero_matrices(x)
        j.T[2, 0] = self.A_amp * np.sin(u) / self.beta
        j.T[2, 1] = -self.A_amp * np.cos(u) / self.beta
        return j

    def hamilton_rhs(self, y) -> tuple:
        """(v, dp) at one state of six floats; J_A has the one column
        dA/dz = (A_amp sin u, -A_amp cos u, 0) / beta."""
        _, _, x2, p0, p1, p2 = y
        u = (x2 + self.phi0) / self.beta
        c, s = math.cos(u), math.sin(u)
        v0 = p0 - self.A_amp * c
        v1 = p1 - self.A_amp * s
        dp2 = -(self.A_amp * s / self.beta * v0 - self.A_amp * c / self.beta * v1)
        return v0, v1, p2, 0.0, 0.0, dp2


@dataclass(frozen=True)
class Monopole:
    """Magnetic monopole of charge g with a modified Coulomb potential.

    Gauge (Dirac string along the negative z half-axis):
        A = -g / (|x| (|x| + z)) * (y, -x, 0),
    which equals g/(|x|(x^2+y^2)) * (y(z-|x|), -x(z-|x|), 0) off the
    string but stays numerically regular on the positive z-axis.
    V = g^2/(2|x|^2) - Q/|x|; the barrier term g^2/(2|x|^2) is what makes
    the modified Runge-Lenz vector conserved and can be switched off to
    demonstrate that it is required.
    """

    g: float
    Q: float = 0.0
    barrier: bool = True

    def __post_init__(self):
        if self.g == 0:
            raise ParameterError("Monopole requires g != 0")

    @staticmethod
    def _off_domain(r, z):
        """Whether a point of radius r and height z is on the center or the
        string: r below EPS_DOMAIN, or r + z, the gauge's denominator, below
        the relative clearance EPS_DOMAIN r (numbers or (n,) arrays)."""
        return (r < EPS_DOMAIN) | (r + z < EPS_DOMAIN * r)

    def _radius(self, x: Vec3):
        """|x| per point, after rejecting points on the center or the string."""
        x0, x1, x2 = x.T
        r = np.sqrt(x0 * x0 + x1 * x1 + x2 * x2)
        point = _first_flagged(x, self._off_domain(r, x2))
        if point is not None:
            raise self._domain_error(point)
        return r

    @staticmethod
    def _domain_error(point: Vec3) -> DomainError:
        where = ("is too close to the monopole at the origin"
                 if norm(point) < EPS_DOMAIN
                 else "lies on the Dirac string (negative z-axis)")
        return DomainError(f"point {point} {where}")

    def check_domain(self, x: Vec3) -> None:
        self._radius(x)

    def vector_potential(self, x: Vec3) -> Vec3:
        r = self._radius(x)
        x0, x1, x2 = x.T
        c = -self.g / (r * (r + x2))
        a = np.zeros(x.shape)
        a.T[0] = c * x1
        a.T[1] = -c * x0
        return a

    def magnetic_field(self, x: Vec3) -> Vec3:
        r = self._radius(x)
        return (self.g * x.T / _pow(r, 3)).T

    def scalar_potential(self, x: Vec3) -> float:
        r = self._radius(x)
        v = -self.Q / r
        if self.barrier:
            v += 0.5 * self.g**2 / _pow(r, 2)
        return v

    def grad_potential(self, x: Vec3) -> Vec3:
        r = self._radius(x)
        dv_dr = self.Q / _pow(r, 2)
        if self.barrier:
            dv_dr -= self.g**2 / _pow(r, 3)
        return (dv_dr * x.T / r).T

    def jacobian_a(self, x: Vec3) -> np.ndarray:
        r = self._radius(x)
        x0, x1, x2 = x.T
        w = r * (r + x2)
        c = -self.g / w
        # grad of w = (x/r)(2r+z) + r e_z
        dw = x.T / r * (2 * r + x2)
        dw[2] += r
        dc = self.g * dw / _pow(w, 2)
        j = _zero_matrices(x)
        j.T[:, 0] = dc * x1
        j.T[1, 0] += c
        j.T[:, 1] = -dc * x0
        j.T[0, 1] -= c
        return j

    def hamilton_rhs(self, y) -> tuple:
        """(v, dp) at one state of six floats, after the domain test of
        `_radius`; J_A as in `jacobian_a`, J_A^T v summed row by row."""
        x0, x1, x2, p0, p1, p2 = y
        r = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2)
        if self._off_domain(r, x2):
            raise self._domain_error(np.array([x0, x1, x2]))
        w = r * (r + x2)
        c = -self.g / w
        v0 = p0 + c * x1
        v1 = p1 - c * x0
        k = 2 * r + x2
        w2 = w**2
        dc0 = self.g * (x0 / r * k) / w2
        dc1 = self.g * (x1 / r * k) / w2
        dc2 = self.g * (x2 / r * k + r) / w2
        dv_dr = self.Q / r**2
        if self.barrier:
            dv_dr -= self.g**2 / r**3
        return (v0, v1, p2,
                -(dc0 * x1 * v0 + (-dc0 * x0 - c) * v1) - dv_dr * x0 / r,
                -((dc1 * x1 + c) * v0 - dc1 * x0 * v1) - dv_dr * x1 / r,
                -(dc2 * x1 * v0 - dc2 * x0 * v1) - dv_dr * x2 / r)


@dataclass(frozen=True)
class Cylindrical:
    """Axially symmetric field family B = (-F1' y/R, F1' x/R, F2'/R).

    Gauge: A = (-y F2(R)/R^2, x F2(R)/R^2, -F1(R)) with R = sqrt(x^2+y^2);
    V is an arbitrary function of R. F1, F2, V are supplied as callables
    of R together with their first derivatives. The axis R = 0 is
    singular unless F2(0) = 0.
    """

    f1: Callable[[float], float]
    df1: Callable[[float], float]
    f2: Callable[[float], float]
    df2: Callable[[float], float]
    v: Callable[[float], float]
    dv: Callable[[float], float]

    hamilton_rhs = _matrix_rhs

    def _radius(self, x: Vec3):
        return np.hypot(x.T[0], x.T[1])

    def check_domain(self, x: Vec3) -> None:
        point = _first_flagged(x, self._radius(x) < EPS_DOMAIN)
        if point is not None and abs(self.f2(EPS_DOMAIN)) > EPS_DOMAIN:
            raise DomainError(f"point {point} lies on the singular symmetry axis")

    def vector_potential(self, x: Vec3) -> Vec3:
        self.check_domain(x)
        r = self._radius(x)
        f2 = _per_radius(self.f2, r)
        x0, x1, _ = x.T
        r2 = _pow(r, 2)
        return np.array([-x1 * f2 / r2, x0 * f2 / r2, -_per_radius(self.f1, r)]).T

    def magnetic_field(self, x: Vec3) -> Vec3:
        self.check_domain(x)
        r = self._radius(x)
        d1 = _per_radius(self.df1, r)
        x0, x1, _ = x.T
        return np.array([-d1 * x1 / r, d1 * x0 / r, _per_radius(self.df2, r) / r]).T

    def scalar_potential(self, x: Vec3) -> float:
        return _per_radius(self.v, self._radius(x))

    def grad_potential(self, x: Vec3) -> Vec3:
        r = self._radius(x)
        d = _per_radius(self.dv, r)
        x0, x1, _ = x.T
        return np.array([d * x0 / r, d * x1 / r, _zeros(x)]).T

    def jacobian_a(self, x: Vec3) -> np.ndarray:
        self.check_domain(x)
        r = self._radius(x)
        f2, d2, d1 = (_per_radius(f, r) for f in (self.f2, self.df2, self.df1))
        x0, x1, _ = x.T
        # d/dxj of f2/R^2, with dR/dx = (x/R, y/R, 0)
        gx = x0 / r
        gy = x1 / r
        dq = (d2 * r - 2 * f2) / _pow(r, 3)  # d/dR (f2/R^2)
        q = f2 / _pow(r, 2)
        j = _zero_matrices(x)
        j.T[0, 0] = -x1 * dq * gx
        j.T[1, 0] = -q - x1 * dq * gy
        j.T[0, 1] = q + x0 * dq * gx
        j.T[1, 1] = x0 * dq * gy
        j.T[0, 2] = -d1 * gx
        j.T[1, 2] = -d1 * gy
        return j


@dataclass(frozen=True)
class Custom:
    """Field model assembled from user-supplied callables.

    Only `a` (vector potential) and `v` (scalar potential) are required;
    the magnetic field defaults to a central-difference curl of `a`, and
    derivative callbacks default to central differences as well. A stack
    of points is evaluated row by row, so the callables see shape (3,).
    """

    a: Callable[[Vec3], Vec3]
    v: Callable[[Vec3], float]
    b: Callable[[Vec3], Vec3] | None = None
    jac_a: Callable[[Vec3], np.ndarray] | None = None
    grad_v: Callable[[Vec3], Vec3] | None = None
    domain: Callable[[Vec3], None] | None = None

    hamilton_rhs = _matrix_rhs

    @_rowwise()
    def check_domain(self, x: Vec3) -> None:
        if self.domain is not None:
            self.domain(x)

    @_rowwise(3)
    def vector_potential(self, x: Vec3) -> Vec3:
        self.check_domain(x)
        return _as_vec3(self.a(x))

    @_rowwise(3)
    def magnetic_field(self, x: Vec3) -> Vec3:
        self.check_domain(x)
        if self.b is not None:
            return _as_vec3(self.b(x))
        return curl_fd(self.a, x)

    @_rowwise()
    def scalar_potential(self, x: Vec3) -> float:
        self.check_domain(x)
        return float(self.v(x))

    @_rowwise(3)
    def grad_potential(self, x: Vec3) -> Vec3:
        if self.grad_v is not None:
            return _as_vec3(self.grad_v(x))
        return jacobian_fd(self.v, x)

    @_rowwise(3, 3)
    def jacobian_a(self, x: Vec3) -> np.ndarray:
        if self.jac_a is not None:
            return np.asarray(self.jac_a(x), dtype=float)
        return jacobian_fd(self.a, x)


FieldModel = ConstantB | HelicalB | Monopole | Cylindrical | Custom


@dataclass(frozen=True)
class GaugeFunction:
    """Scalar gauge function chi with its gradient (and optional Hessian)."""

    chi: Callable[[Vec3], float]
    gradient: Callable[[Vec3], Vec3]
    hessian: Callable[[Vec3], np.ndarray] | None = None

    def hessian_at(self, x: Vec3) -> np.ndarray:
        if self.hessian is not None:
            return np.asarray(self.hessian(x), dtype=float)
        return jacobian_fd(self.gradient, x)


# ---------------------------------------------------------------------------
# module-level operations


def vector_potential(model: FieldModel, x) -> Vec3:
    return model.vector_potential(_as_vec3(x))


def magnetic_field(model: FieldModel, x) -> Vec3:
    return model.magnetic_field(_as_vec3(x))


def scalar_potential(model: FieldModel, x) -> float:
    return float(model.scalar_potential(_as_vec3(x)))


class FieldRecord(NamedTuple):
    """A model's fields at an (n,3) stack of points, computed once and
    shared by the residual, gradient and bracket kernels."""

    model: FieldModel
    x: np.ndarray  # (n, 3)
    a: np.ndarray  # (n, 3)
    jac_a: np.ndarray  # (n, 3, 3), rows dA_i/dx_j
    b: np.ndarray  # (n, 3)
    grad_v: np.ndarray  # (n, 3)


def field_record(model: FieldModel, x: np.ndarray) -> FieldRecord:
    """A, J_A, B and grad V of the model at an (n,3) stack, after its
    domain test."""
    model.check_domain(x)
    return FieldRecord(model, x, model.vector_potential(x), model.jacobian_a(x),
                       model.magnetic_field(x), model.grad_potential(x))


def gauge_shift(model: FieldModel, chi: GaugeFunction) -> Custom:
    """Return the model with A replaced by A + grad chi (V unchanged).

    The magnetic field of the result is the analytic field of the input,
    so curl(A + grad chi) = B remains exact.
    """

    def a(x):
        return model.vector_potential(x) + _as_vec3(chi.gradient(x))

    def jac(x):
        return model.jacobian_a(x) + chi.hessian_at(x)

    return Custom(
        a=a,
        v=model.scalar_potential,
        b=model.magnetic_field,
        jac_a=jac,
        grad_v=model.grad_potential,
        domain=model.check_domain,
    )


@dataclass(frozen=True)
class FieldCheckReport:
    max_div_b: float
    max_curl_mismatch: float
    max_div_a: float
    n_points: int


def divergence_checks(model: FieldModel, points) -> FieldCheckReport:
    """Central-difference consistency report over a batch of points.

    Checks div B = 0 and curl A = B; also reports div A, which vanishes
    for every built-in gauge choice. All points go through the model as
    one stack, and one Jacobian of A serves both curl A and div A.
    """
    x = np.array([_as_vec3(p) for p in points]).reshape(-1, 3)
    if not len(x):
        return FieldCheckReport(0.0, 0.0, 0.0, 0)
    model.check_domain(x)
    jb = jacobian_fd(model.magnetic_field, x)
    ja = jacobian_fd(model.vector_potential, x)
    return FieldCheckReport(
        float(np.max(np.abs(np.trace(jb, axis1=1, axis2=2)))),
        float(np.max(np.abs(_curl(ja) - model.magnetic_field(x)))),
        float(np.max(np.abs(np.trace(ja, axis1=1, axis2=2)))),
        len(x),
    )


# ---------------------------------------------------------------------------
# central differences (step eps^(1/3) * max(1, |x_j|) along each x_j)

#: eps^(1/3) balances the truncation error against round-off
_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)


def jacobian_fd(f: Callable, x) -> np.ndarray:
    """Central-difference derivative of f at a point x of any length d,
    or at each row of an (n, d) stack when f takes stacks.

    A scalar f gives its gradient, shape (d,); a vector f gives the
    Jacobian with rows df_i/dx_j, shape (m, d); a stack adds a leading n.
    """
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.shape[-1]):
        h = _FD_STEP * np.maximum(1.0, np.abs(x.T[j]))
        xp, xm = x.copy(), x.copy()
        xp.T[j] += h
        xm.T[j] -= h
        cols.append((np.subtract(f(xp), f(xm)).T / (2 * h)).T)
    return np.moveaxis(np.array(cols), 0, -1)


def _curl(j):
    """curl from Jacobian rows df_i/dx_j, per point of a (3,3) or (n,3,3) j."""
    return np.array([j[..., 2, 1] - j[..., 1, 2], j[..., 0, 2] - j[..., 2, 0],
                     j[..., 1, 0] - j[..., 0, 1]]).T


def curl_fd(f: Callable[[Vec3], Vec3], x: Vec3) -> Vec3:
    return _curl(jacobian_fd(f, x))


# ---------------------------------------------------------------------------
# JSON config


def model_from_config(cfg: dict) -> FieldModel:
    """Build a field model from a JSON-style dict {"model": name, ...}.

    Only the three named systems are constructible this way; Cylindrical
    and Custom carry callables and exist in code only.
    """
    if not isinstance(cfg, dict) or "model" not in cfg:
        raise ConfigError("field config must be an object with a 'model' key")
    kind = cfg["model"]
    params = {k: v for k, v in cfg.items() if k != "model"}

    def number(key, default=None):
        # the schema's "number": present unless it has a default, never a bool
        if key not in params and default is None:
            raise ConfigError(f"model {kind!r} needs the parameter {key!r}")
        value = params.pop(key, default)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"parameter {key!r} of model {kind!r} must be a number")
        return float(value)

    try:
        if kind == "constant_b":
            return ConstantB(B=number("B"), **_none(params))
        if kind == "helical":
            return HelicalB(
                A_amp=number("A_amp"),
                beta=number("beta"),
                phi0=number("phi0", 0.0),
                **_none(params),
            )
        if kind == "monopole":
            potential = params.pop("potential", "modified")
            if potential not in ("modified", "coulomb-only"):
                raise ConfigError(f"unknown monopole potential {potential!r}")
            return Monopole(
                g=number("g"),
                Q=number("Q", 0.0),
                barrier=(potential == "modified"),
                **_none(params),
            )
    except ParameterError as exc:
        raise ConfigError(f"bad parameters for model {kind!r}: {exc}") from exc
    raise ConfigError(f"unknown field model {kind!r}")


def _none(params: dict) -> dict:
    if params:
        raise ConfigError(f"unknown field parameters: {sorted(params)}")
    return {}
