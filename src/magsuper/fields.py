"""Static electromagnetic field models.

Every model supplies a vector potential A(x), the magnetic field
B(x) = curl A(x), and a scalar potential V(x), in units where the
particle has mass 1 and charge -1 so the Hamiltonian reads
H = (p + A)^2 / 2 + V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError

Vec3 = np.ndarray

#: clearance below which a point counts as sitting on a singular locus
EPS_DOMAIN = 1e-8


def vec3(x, y, z) -> Vec3:
    return np.array([x, y, z], dtype=float)


def _as_vec3(x) -> Vec3:
    a = np.asarray(x, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("vector has non-finite components")
    return a


@dataclass(frozen=True)
class ConstantB:
    """Uniform magnetic field of strength B along the x-axis.

    Gauge: A = (0, -B z, 0), V = 0.
    """

    B: float

    def __post_init__(self):
        if not self.B > 0:
            raise ValueError("ConstantB requires B > 0")

    def check_domain(self, x: Vec3) -> None:
        pass

    def vector_potential(self, x: Vec3) -> Vec3:
        return np.array([0.0, -self.B * x[2], 0.0])

    def magnetic_field(self, x: Vec3) -> Vec3:
        return np.array([self.B, 0.0, 0.0])

    def scalar_potential(self, x: Vec3) -> float:
        return 0.0

    def grad_potential(self, x: Vec3) -> Vec3:
        return np.zeros(3)

    def jacobian_a(self, x: Vec3) -> np.ndarray:
        j = np.zeros((3, 3))
        j[1, 2] = -self.B
        return j


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
            raise ValueError("HelicalB requires A_amp > 0")
        if self.beta == 0:
            raise ValueError("HelicalB requires beta != 0")

    def _u(self, z: float) -> float:
        return (z + self.phi0) / self.beta

    def check_domain(self, x: Vec3) -> None:
        pass

    def vector_potential(self, x: Vec3) -> Vec3:
        u = self._u(x[2])
        return np.array([-self.A_amp * math.cos(u), -self.A_amp * math.sin(u), 0.0])

    def magnetic_field(self, x: Vec3) -> Vec3:
        u = self._u(x[2])
        c = self.A_amp / self.beta
        return np.array([c * math.cos(u), c * math.sin(u), 0.0])

    def scalar_potential(self, x: Vec3) -> float:
        return 0.0

    def grad_potential(self, x: Vec3) -> Vec3:
        return np.zeros(3)

    def jacobian_a(self, x: Vec3) -> np.ndarray:
        u = self._u(x[2])
        j = np.zeros((3, 3))
        j[0, 2] = self.A_amp * math.sin(u) / self.beta
        j[1, 2] = -self.A_amp * math.cos(u) / self.beta
        return j


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
            raise ValueError("Monopole requires g != 0")

    def check_domain(self, x: Vec3) -> None:
        r = float(np.linalg.norm(x))
        if r < EPS_DOMAIN:
            raise DomainError(f"point {x} is too close to the monopole at the origin")
        if x[0] ** 2 + x[1] ** 2 < EPS_DOMAIN**2 and x[2] < 0:
            raise DomainError(f"point {x} lies on the Dirac string (negative z-axis)")

    def vector_potential(self, x: Vec3) -> Vec3:
        self.check_domain(x)
        r = float(np.linalg.norm(x))
        c = -self.g / (r * (r + x[2]))
        return np.array([c * x[1], -c * x[0], 0.0])

    def magnetic_field(self, x: Vec3) -> Vec3:
        self.check_domain(x)
        r = float(np.linalg.norm(x))
        return self.g * x / r**3

    def scalar_potential(self, x: Vec3) -> float:
        self.check_domain(x)
        r = float(np.linalg.norm(x))
        v = -self.Q / r
        if self.barrier:
            v += 0.5 * self.g**2 / r**2
        return v

    def grad_potential(self, x: Vec3) -> Vec3:
        self.check_domain(x)
        r = float(np.linalg.norm(x))
        dv_dr = self.Q / r**2
        if self.barrier:
            dv_dr -= self.g**2 / r**3
        return dv_dr * x / r

    def jacobian_a(self, x: Vec3) -> np.ndarray:
        self.check_domain(x)
        r = float(np.linalg.norm(x))
        w = r * (r + x[2])
        c = -self.g / w
        # grad of w = (x/r)(2r+z) + r e_z
        dw = x / r * (2 * r + x[2])
        dw[2] += r
        dc = self.g * dw / w**2
        j = np.zeros((3, 3))
        j[0, :] = dc * x[1]
        j[0, 1] += c
        j[1, :] = -dc * x[0]
        j[1, 0] -= c
        return j


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

    def _radius(self, x: Vec3) -> float:
        return math.hypot(x[0], x[1])

    def check_domain(self, x: Vec3) -> None:
        if self._radius(x) < EPS_DOMAIN and abs(self.f2(EPS_DOMAIN)) > EPS_DOMAIN:
            raise DomainError(f"point {x} lies on the singular symmetry axis")

    def vector_potential(self, x: Vec3) -> Vec3:
        self.check_domain(x)
        r = self._radius(x)
        f2 = self.f2(r)
        return np.array([-x[1] * f2 / r**2, x[0] * f2 / r**2, -self.f1(r)])

    def magnetic_field(self, x: Vec3) -> Vec3:
        self.check_domain(x)
        r = self._radius(x)
        d1 = self.df1(r)
        return np.array([-d1 * x[1] / r, d1 * x[0] / r, self.df2(r) / r])

    def scalar_potential(self, x: Vec3) -> float:
        return self.v(self._radius(x))

    def grad_potential(self, x: Vec3) -> Vec3:
        r = self._radius(x)
        d = self.dv(r)
        return np.array([d * x[0] / r, d * x[1] / r, 0.0])

    def jacobian_a(self, x: Vec3) -> np.ndarray:
        self.check_domain(x)
        r = self._radius(x)
        f2, d2, d1 = self.f2(r), self.df2(r), self.df1(r)
        # d/dxj of f2/R^2, with dR/dx = (x/R, y/R, 0)
        gx = x[0] / r
        gy = x[1] / r
        dq = (d2 * r - 2 * f2) / r**3  # d/dR (f2/R^2)
        q = f2 / r**2
        j = np.zeros((3, 3))
        j[0, 0] = -x[1] * dq * gx
        j[0, 1] = -q - x[1] * dq * gy
        j[1, 0] = q + x[0] * dq * gx
        j[1, 1] = x[0] * dq * gy
        j[2, 0] = -d1 * gx
        j[2, 1] = -d1 * gy
        return j


@dataclass(frozen=True)
class Custom:
    """Field model assembled from user-supplied callables.

    Only `a` (vector potential) and `v` (scalar potential) are required;
    the magnetic field defaults to a central-difference curl of `a`, and
    derivative callbacks default to central differences as well.
    """

    a: Callable[[Vec3], Vec3]
    v: Callable[[Vec3], float]
    b: Callable[[Vec3], Vec3] | None = None
    jac_a: Callable[[Vec3], np.ndarray] | None = None
    grad_v: Callable[[Vec3], Vec3] | None = None
    domain: Callable[[Vec3], None] | None = None

    def check_domain(self, x: Vec3) -> None:
        if self.domain is not None:
            self.domain(x)

    def vector_potential(self, x: Vec3) -> Vec3:
        self.check_domain(x)
        return _as_vec3(self.a(x))

    def magnetic_field(self, x: Vec3) -> Vec3:
        self.check_domain(x)
        if self.b is not None:
            return _as_vec3(self.b(x))
        return curl_fd(self.a, x)

    def scalar_potential(self, x: Vec3) -> float:
        self.check_domain(x)
        return float(self.v(x))

    def grad_potential(self, x: Vec3) -> Vec3:
        if self.grad_v is not None:
            return _as_vec3(self.grad_v(x))
        return grad_fd(self.v, x)

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
    for every built-in gauge choice.
    """
    max_db = max_cm = max_da = 0.0
    n = 0
    for x in points:
        x = _as_vec3(x)
        model.check_domain(x)
        max_db = max(max_db, abs(divergence_fd(model.magnetic_field, x)))
        cm = curl_fd(model.vector_potential, x) - model.magnetic_field(x)
        max_cm = max(max_cm, float(np.max(np.abs(cm))))
        max_da = max(max_da, abs(divergence_fd(model.vector_potential, x)))
        n += 1
    return FieldCheckReport(max_db, max_cm, max_da, n)


# ---------------------------------------------------------------------------
# central differences (step eps^(1/3) * max(1, |x_j|) along each x_j)

#: eps^(1/3) balances the truncation error against round-off
_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)


def jacobian_fd(f: Callable, x) -> np.ndarray:
    """Central-difference derivative of f at a point x of any length.

    A scalar f gives its gradient, shape (n,); a vector f gives the
    Jacobian with rows df_i/dx_j, shape (m, n).
    """
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        h = _FD_STEP * max(1.0, abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        cols.append(np.subtract(f(xp), f(xm)) / (2 * h))
    return np.array(cols).T


def grad_fd(f: Callable[[Vec3], float], x: Vec3) -> Vec3:
    return jacobian_fd(f, x)


def divergence_fd(f: Callable[[Vec3], Vec3], x: Vec3) -> float:
    return float(np.trace(jacobian_fd(f, x)))


def curl_fd(f: Callable[[Vec3], Vec3], x: Vec3) -> Vec3:
    j = jacobian_fd(f, x)
    return np.array([j[2, 1] - j[1, 2], j[0, 2] - j[2, 0], j[1, 0] - j[0, 1]])


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
    try:
        if kind == "constant_b":
            return ConstantB(B=float(params.pop("B", 1.0)), **_none(params))
        if kind == "helical":
            return HelicalB(
                A_amp=float(params.pop("A_amp", 1.0)),
                beta=float(params.pop("beta", 1.0)),
                phi0=float(params.pop("phi0", 0.0)),
                **_none(params),
            )
        if kind == "monopole":
            potential = params.pop("potential", "modified")
            if potential not in ("modified", "coulomb-only"):
                raise ConfigError(f"unknown monopole potential {potential!r}")
            return Monopole(
                g=float(params.pop("g", 1.0)),
                Q=float(params.pop("Q", 0.0)),
                barrier=(potential == "modified"),
                **_none(params),
            )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameters for model {kind!r}: {exc}") from exc
    raise ConfigError(f"unknown field model {kind!r}")


def _none(params: dict) -> dict:
    if params:
        raise ConfigError(f"unknown field parameters: {sorted(params)}")
    return {}
