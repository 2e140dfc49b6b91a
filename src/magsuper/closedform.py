"""Closed-form classical trajectories.

Covers the constant-field helix with its nonpolynomial fifth integral
and canonical tilde transformation, and the helical-field system's
reduction to a pendulum equation solved by Jacobi elliptic functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import PhaseState, _dp5_interpolant, _run_rk45, _state_arrays
from .elliptic import _ellipj, ellipk, inv_am, inv_sn
from .errors import DegenerateKappa, DegenerateMomentum, ParameterError, SeparatrixRegime
from .fields import HelicalB, _as_instance, _as_real, _as_reals, _pow, _real_fields, _zeros

#: half-width of the separatrix band |kappa - 1| routed to numerics
SEPARATRIX_DELTA = 1e-6


def helix_solution(B: float, s0: PhaseState, t):
    """Exact constant-field state at time t from initial state s0.

    Uniform drift along x and gyration in the (y, z) plane with
    angular frequency B; p1 and p2 are constant. For a 1-D array of times
    the states come as a pair (x, p) of (n,3) stacks, each row with the
    bits of the one-time call. B and each t are finite real numbers, else
    a ParameterError names them; a phase B t or a state that leaves the
    double range at any t is a ParameterError too.
    """
    # a finite float passes as it is; any other B or t goes through its checks
    if type(B) is not float or not math.isfinite(B):
        B = _as_real(B, f"helix_solution B {B!r}")
    if B == 0:
        raise ParameterError("helix_solution requires B != 0")
    if type(t) is not float or not math.isfinite(t):
        t = _as_reals(t, "helix_solution t", "a 1-D array of finite times")
        if np.ndim(t) > 1:
            raise ParameterError("helix_solution t is not a 1-D array of finite times")
    if type(t) is float:
        return _helix(B, s0, t, math.isfinite)
    with np.errstate(over="ignore", invalid="ignore"):
        return _helix(B, s0, t, lambda v: np.isfinite(v).all())


def _helix(B: float, s0: PhaseState, t, finite):
    """The state of `helix_solution` at a finite float t, or the pair of
    stacks at a 1-D array of finite times; `finite` tests one number or
    array."""
    # a phase or a state beyond the double range is refused, at any t
    phase = B * t
    if not finite(phase):
        raise ParameterError("helix_solution phase B t is beyond the double range")
    x0, y0, z0 = s0.x.tolist()
    p1, p2, p3 = s0.p.tolist()
    lib = math if type(t) is float else np  # math: the cheaper call on a float
    c, s = lib.cos(phase), lib.sin(phase)
    x = x0 + p1 * t
    y = y0 - p3 / B + c * p3 / B - s * (z0 - p2 / B)
    z = p2 / B + s * p3 / B + c * (z0 - p2 / B)
    p3t = c * p3 + s * (p2 - B * z0)
    if not (finite(x) and finite(y) and finite(z) and finite(p3t)):
        raise ParameterError("vector has non-finite components")
    if type(t) is float:
        return PhaseState._of_finite(np.array([x, y, z]), np.array([p1, p2, p3t]))
    ones = np.ones_like(t)
    return np.column_stack([x, y, z]), np.column_stack([p1 * ones, p2 * ones, p3t])


#: the least |p1| at which X5 and X6 are evaluated
_P1_MIN = 1e-8


def _phase_vectors(x, *c):
    """(dF/dx, dF/dp) as two (n,3) stacks from six components, each a
    number or an (n,) array, per point of the (n,3) stack x."""
    c = np.broadcast_arrays(*c, _zeros(x))
    return np.array(c[:3]).T, np.array(c[3:6]).T


def _x5_x6(B: float, x, p) -> dict:
    """X5 and X6 per state of (n,3) stacks x and p, each as (F, dF/dx,
    dF/dp): the one place that forms the angle B x/p1, with its cos and sin."""
    (x0, _, x2), (p0, p1, p2) = x.T, p.T
    if (abs(p0) < _P1_MIN).any():
        raise DegenerateMomentum(f"|p1|={abs(p0)[abs(p0) < _P1_MIN][0]} below {_P1_MIN}: "
                                 "the helix degenerates to a circle")
    th = B * x0 / p0
    c, sn = np.cos(th), np.sin(th)
    v5 = (B * x2 - p1) * c - p2 * sn
    v6 = (p1 - B * x2) * sn - p2 * c
    return {"X5": (v5, *_phase_vectors(x, B / p0 * v6, 0.0, B * c,
                                       -B * x0 / _pow(p0, 2) * v6, -c, -sn)),
            "X6": (v6, *_phase_vectors(x, -B / p0 * v5, 0.0, -B * sn,
                                       B * x0 / _pow(p0, 2) * v5, sn, -c))}


def _rows_at(kernel, B: float, s) -> dict:
    """kernel(B, x, p), (F, dF/dx, dF/dp) by name, at a pair (x, p) of (n,3)
    stacks, or at a PhaseState as a stack of one: a number and two 3-vectors."""
    x, p = _state_arrays(s)
    rows = kernel(B, np.reshape(x, (-1, 3)), np.reshape(p, (-1, 3)))
    return rows if np.ndim(x) == 2 else {k: tuple(a[0] for a in v) for k, v in rows.items()}


def x5_integral(B: float, s: PhaseState):
    """(Bz - p2) cos(Bx/p1) - p3 sin(Bx/p1); needs p1 away from 0.

    At a PhaseState, or per state of a pair (x, p) of (n,3) stacks with
    the bits of the one-state call.
    """
    return _rows_at(_x5_x6, _as_real(B, f"x5_integral B {B!r}"), s)["X5"][0]


def x6_integral(B: float, s: PhaseState):
    """(p2 - Bz) sin(Bx/p1) - p3 cos(Bx/p1); companion of x5_integral."""
    return _rows_at(_x5_x6, _as_real(B, f"x6_integral B {B!r}"), s)["X6"][0]


def tilde_transform(s: PhaseState) -> tuple[float, float]:
    """Canonical pair (x/p1, p1^2/2) replacing (x, p1); needs p1 > 0."""
    p1 = _as_instance(s, PhaseState, "tilde_transform s", "a PhaseState").p[0]
    if p1 <= 0:
        raise DegenerateMomentum(f"tilde_transform needs p1 > 0, got {p1}")
    return float(s.x[0] / p1), float(0.5 * p1 * p1)


@dataclass(frozen=True)
class PendulumReduction:
    """Reduced description of helical-field z-motion.

    The z coordinate obeys a pendulum equation in the scaled time
    tau = sqrt(2 A p) t / beta with angle theta = (z + phi0 - phi_p)/beta
    and energy-like constant kappa; zeta = cos(theta) satisfies
    (dzeta/dtau)^2 = -(zeta - 1)(zeta + 1)(zeta + kappa).
    z0 and zdot0 pin the solution branch (winding and direction) that
    (kappa, tau0) alone cannot distinguish.
    """

    p: float
    phi_p: float
    kappa: float
    tau0: float
    z0: float
    zdot0: float

    def __post_init__(self):
        _real_fields(self, "p", "phi_p", "kappa", "tau0", "z0", "zdot0")
        if self.p < 0:
            raise ParameterError("momentum modulus p must be nonnegative")
        if self.kappa < -1:
            raise ParameterError("kappa < -1 is unphysical")

    @property
    def regime(self) -> str:
        if abs(self.kappa - 1.0) <= SEPARATRIX_DELTA:
            return "separatrix"
        return "librating" if self.kappa < 1.0 else "rotating"


def pendulum_reduction(model: HelicalB, s0: PhaseState) -> PendulumReduction:
    """Conserved pendulum data (p, phi_p, kappa, tau0) of an initial state
    in a HelicalB model (another model is a ParameterError)."""
    if not isinstance(model, HelicalB):
        raise ParameterError(f"pendulum_reduction needs a HelicalB model, got {model!r}")
    p1, p2, zdot0 = s0.p
    p = math.hypot(p1, p2)
    if p < 1e-12:
        raise DegenerateMomentum("pendulum reduction needs |(p1,p2)| > 0")
    beta = model.beta
    phi_p = beta * math.atan2(p2, p1)
    z0 = float(s0.x[2])
    theta0 = (z0 + model.phi0 - phi_p) / beta
    kappa = zdot0**2 / (2.0 * model.A_amp * p) - math.cos(theta0)
    kappa = max(kappa, -1.0)
    tau0 = _reference_phase(kappa, theta0, zdot0)
    return PendulumReduction(p, phi_p, kappa, tau0, z0, float(zdot0))


def _reference_phase(kappa: float, theta0: float, zdot0: float) -> float:
    """Phase offset tau0 at which zeta reaches its reference turning value."""
    if abs(kappa - 1.0) <= SEPARATRIX_DELTA or kappa <= -1.0 + 1e-15:
        return 0.0
    if kappa < 1.0:
        k = math.sqrt((kappa + 1.0) / 2.0)
        bigk = ellipk(k)
        theta_r = theta0 - 2.0 * math.pi * round(theta0 / (2.0 * math.pi))
        xt = max(-1.0, min(1.0, math.sin(0.5 * theta_r) / k))
        ub = inv_sn(xt, k)
        if zdot0 < 0:
            ub = 2.0 * bigk - ub
        return -math.sqrt(2.0) * ub - math.sqrt(2.0) * bigk
    _, bigk, w0 = _rotating_start(kappa, theta0)
    sigma = 1.0 if zdot0 >= 0 else -1.0
    return -2.0 / math.sqrt(kappa + 1.0) * (sigma * w0 + bigk)


def _rotating_start(kappa: float, theta0: float) -> tuple[float, float, float]:
    """Rotating regime: modulus k, K(k), and the argument w0 with
    2 am(w0, k) = theta0, counted across turns."""
    k = math.sqrt(2.0 / (kappa + 1.0))
    bigk = ellipk(k)
    psi = 0.5 * theta0
    n = round(psi / math.pi)
    psi_r = max(-math.pi / 2, min(math.pi / 2, psi - n * math.pi))
    return k, bigk, 2.0 * n * bigk + inv_am(psi_r, k)


def zeta_solution(red: PendulumReduction, tau: float) -> float:
    """zeta(tau) = cos(theta(tau)) from the elliptic-function solution.

    Uses the bounded-motion formula for -1 < kappa < 1 (zeta = -kappa
    at tau0) and the rotating formula for kappa > 1 (zeta = -1 at
    tau0). The separatrix band must be integrated numerically instead.
    """
    kappa = _as_instance(red, PendulumReduction, "zeta_solution red",
                         "a PendulumReduction").kappa
    tau = _as_real(tau, f"zeta_solution tau {tau!r}")
    if kappa <= -1.0 + SEPARATRIX_DELTA:
        raise DegenerateKappa(
            f"kappa={kappa} too close to -1: motion degenerates to rest")
    if abs(kappa - 1.0) <= SEPARATRIX_DELTA:
        raise SeparatrixRegime(
            f"kappa={kappa} within {SEPARATRIX_DELTA} of 1: integrate numerically")
    dt = tau - red.tau0
    if kappa > 1.0:
        k = math.sqrt(2.0 / (kappa + 1.0))
        u = 0.5 * math.sqrt(kappa + 1.0) * dt
    else:
        k = math.sqrt((kappa + 1.0) / 2.0)
        u = dt / math.sqrt(2.0)
    sn = _ellipj(u, k)[0]
    if math.isnan(sn):  # u beyond the double range, or beyond what scipy evaluates
        raise ParameterError(f"zeta_solution tau {tau!r} is beyond the range of scipy's ellipj")
    if kappa > 1.0:
        return (1.0 - kappa**2) / (2.0 * sn**2 - kappa - 1.0) - kappa
    return 2.0 * (1.0 - kappa) / (2.0 - (kappa + 1.0) * sn**2) - 1.0


class _DigitsLost(ArithmeticError):
    """A librating elliptic argument too large for its reduction to keep
    half its digits."""


def _theta_librating(red: PendulumReduction, theta0: float, taus: np.ndarray) -> np.ndarray:
    k = math.sqrt((red.kappa + 1.0) / 2.0)
    if k < 1e-8:
        return np.full_like(taus, theta0)
    bigk = ellipk(k)
    nw = round(theta0 / (2.0 * math.pi))
    tau_b = red.tau0 + math.sqrt(2.0) * bigk
    u = (taus - tau_b) / math.sqrt(2.0)
    # z is bounded and comes from u - 2K m alone: refuse a u whose ulp would
    # leave it fewer than half its digits (one reduction over u)
    if math.ulp(float(np.max(np.abs(u)))) > 2.0**-26 * bigk:
        raise _DigitsLost
    m = np.round(u / (2.0 * bigk))
    sn = _ellipj(u - 2.0 * bigk * m, k)[0] * np.where(m % 2, -1.0, 1.0)
    return 2.0 * np.arcsin(np.clip(k * sn, -1.0, 1.0)) + 2.0 * math.pi * nw


def _theta_rotating(red: PendulumReduction, theta0: float, taus: np.ndarray) -> np.ndarray:
    k, bigk, w0 = _rotating_start(red.kappa, theta0)
    sigma = 1.0 if red.zdot0 >= 0 else -1.0
    w = w0 + sigma * 0.5 * math.sqrt(red.kappa + 1.0) * taus
    m = np.round(w / (2.0 * bigk))
    return 2.0 * (m * math.pi + _ellipj(w - 2.0 * bigk * m, k)[3])


def helical_z_of_t(model: HelicalB, red: PendulumReduction, t) -> float | np.ndarray:
    """Closed-form z(t) for the helical field, continuous across turns.

    Librating and rotating regimes use the elliptic-function solution
    with winding bookkeeping; the separatrix band |kappa - 1| <= 1e-6
    and the rest state kappa = -1 fall back to direct integration or a
    constant. Accepts a finite real t or an array of them. A t whose
    phase leaves the double range is a ParameterError as well, and so is
    a librating t whose elliptic argument u, reduced as u - 2K round(u / 2K),
    would keep fewer than half its digits: ulp(u) > 2^-26 K(k), from |u| of
    about 2^26 K on (t of about 1e8 at unit scales). A rotating z grows
    with u, so its own ulp covers what the reduction loses, and it is kept.
    """
    if not isinstance(model, HelicalB):
        raise ParameterError(f"helical_z_of_t needs a HelicalB model, got {model!r}")
    if not isinstance(red, PendulumReduction):
        raise ParameterError(f"helical_z_of_t needs a PendulumReduction, got {red!r}")
    t = _as_reals(t, "helical_z_of_t t")
    scale = math.sqrt(2.0 * model.A_amp * red.p) / model.beta
    theta0 = (red.z0 + model.phi0 - red.phi_p) / model.beta
    kappa = red.kappa
    # a finite t whose phase overflows turns the floating-point flag into an error
    try:
        with np.errstate(over="raise", invalid="raise"):
            taus = scale * np.atleast_1d(t)
            if abs(kappa - 1.0) <= SEPARATRIX_DELTA:
                dtheta0 = red.zdot0 / math.sqrt(2.0 * model.A_amp * red.p)
                theta = _separatrix_theta(theta0, dtheta0, taus)
            elif kappa < 1.0:
                theta = _theta_librating(red, theta0, taus)
            else:
                theta = _theta_rotating(red, theta0, taus)
            z = red.phi_p - model.phi0 + model.beta * theta
    except (FloatingPointError, _DigitsLost) as exc:
        what = f"helical_z_of_t t {t!r}" if np.ndim(t) == 0 else "helical_z_of_t t"
        why = ("leaves the reduced elliptic argument fewer than half its digits"
               if isinstance(exc, _DigitsLost) else "takes the phase beyond the double range")
        raise ParameterError(f"{what} {why}") from None
    return float(z[0]) if np.ndim(t) == 0 else z


def _separatrix_theta(theta0: float, dtheta0: float, taus: np.ndarray) -> np.ndarray:
    """theta at each tau from theta'' = -sin(theta) / 2, by the Dormand-Prince
    loop of `dynamics` at tolerances 1e-13; the equation is time-reversible,
    so negative tau runs forward from (theta0, -dtheta0)."""
    def pendulum(y):
        return [y[1], -0.5 * math.sin(y[0])]

    out = np.full_like(taus, theta0)
    for sign in (1.0, -1.0):
        mask = sign * taus > 0
        if np.any(mask):
            span = sign * taus[mask]
            times, y, _ = _run_rk45(pendulum, [theta0, sign * dtheta0], float(span.max()),
                                    1e-13, 1e-13)
            out[mask] = _dp5_interpolant(pendulum, times, (y,))(span)[:, 0]
    return out
