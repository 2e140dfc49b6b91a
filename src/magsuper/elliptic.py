"""Jacobi elliptic functions as thin wrappers over scipy.special.

Modulus convention: all functions take k (not the parameter m = k^2).
sn interpolates between sin (k=0) and tanh (k=1). The functions accept
scalar or array arguments u, x, phi. A u that is not a finite real
number, or at which scipy's ellipj gives nan, is a ParameterError that
names it; at k = 1, where ellipj gives nan from |u| > 355.58 on because
cosh u overflows inside it, the Jacobi functions answer from tanh and
sech instead. scipy.special is imported on the first call, not with the
package.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError
from .fields import _as_real, _as_reals


def _check_modulus(k: float) -> float:
    k = _as_real(k, f"modulus k {k!r}")
    if not 0.0 <= k <= 1.0:
        raise ParameterError(f"modulus k={k} outside [0, 1]")
    return k


def ellipk(k: float) -> float:
    """Complete elliptic integral of the first kind, K(k)."""
    from scipy import special

    k = _check_modulus(k)
    return float(special.ellipk(k * k))


def _ellipj(u, k):
    """(sn, cn, dn, am) at u for modulus k, with u taken as it is."""
    from scipy import special

    k = _check_modulus(k)
    return special.ellipj(u, k * k)


def _gudermannian(u, lost, values) -> tuple:
    """`values` of `_ellipj` at k = 1 with the entries `lost` to nan
    answered in closed form: sn = tanh u, cn = dn = sech u and
    am = gd u = 2 atan(e^u) - pi/2. Those entries have |u| > 355, where
    sech u = 2 e^-|u| to a relative e^-710 and gd u = sign(u) (pi/2 -
    2 atan e^-|u|): neither form overflows, and sech keeps its subnormals."""
    small = np.exp(-np.abs(u))
    closed = (np.tanh(u), 2.0 * small, 2.0 * small,
              np.copysign(math.pi / 2 - 2.0 * np.arctan(small), u))
    return tuple(np.where(lost, new, old)[()] for new, old in zip(closed, values))


def _jacobi(name: str, u, k) -> tuple:
    """`_ellipj` of the public function `name`, which names u when it is
    not finite or real, or when scipy gives nan at it and k < 1."""
    u = _as_reals(u, f"{name} u")
    values = _ellipj(u, k)  # which checks k
    lost = np.isnan(values[0])
    if lost.any():
        if k == 1:
            return _gudermannian(u, lost, values)
        what = f"{name} u {u!r}" if np.ndim(u) == 0 else f"{name} u"
        raise ParameterError(f"{what} is beyond the range of scipy's ellipj")
    return values


def jacobi_sn(u, k):
    return _jacobi("jacobi_sn", u, k)[0]


def jacobi_cn(u, k):
    return _jacobi("jacobi_cn", u, k)[1]


def jacobi_dn(u, k):
    return _jacobi("jacobi_dn", u, k)[2]


def jacobi_am(u, k):
    """Jacobi amplitude, continuous in u (am(u + 2K) = am(u) + pi)."""
    return _jacobi("jacobi_am", u, k)[3]


def inv_am(phi, k):
    """Principal inverse of am: u in [-K, K] with am(u, k) = phi.

    This is the incomplete elliptic integral F(phi | k^2).
    """
    from scipy import special

    k = _check_modulus(k)
    phi = np.asarray(phi, dtype=float)
    if not np.all(np.abs(phi) <= math.pi / 2):
        raise ParameterError(f"inv_am argument {phi} outside [-pi/2, pi/2]")
    return special.ellipkinc(phi, k * k)[()]


def inv_sn(x, k):
    """Principal inverse of sn: u in [-K, K] with sn(u, k) = x."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.abs(x) <= 1.0):
        raise ParameterError(f"inv_sn argument {x} outside [-1, 1]")
    return inv_am(np.arcsin(x), k)
