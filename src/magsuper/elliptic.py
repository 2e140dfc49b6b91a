"""Jacobi elliptic functions as thin wrappers over scipy.special.

Modulus convention: all functions take k (not the parameter m = k^2).
sn interpolates between sin (k=0) and tanh (k=1). The functions accept
scalar or array arguments u, x, phi. scipy.special is imported on the
first call, not with the package.
"""

from __future__ import annotations

import math

import numpy as np


def _check_modulus(k: float) -> float:
    k = float(k)
    if not 0.0 <= k <= 1.0:
        raise ValueError(f"modulus k={k} outside [0, 1]")
    return k


def agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean of two nonnegative numbers."""
    a, b = float(a), float(b)
    if a < 0 or b < 0:
        raise ValueError("agm needs nonnegative arguments")
    # tolerance must exceed one ulp of the limit or the pair can cycle
    for _ in range(64):
        if abs(a - b) <= 4e-16 * max(a, b):
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def ellipk(k: float) -> float:
    """Complete elliptic integral of the first kind, K(k)."""
    from scipy import special

    k = _check_modulus(k)
    return float(special.ellipk(k * k))


def _ellipj(u, k):
    """(sn, cn, dn, am) at u for modulus k."""
    from scipy import special

    k = _check_modulus(k)
    return special.ellipj(u, k * k)


def jacobi_sn(u, k):
    return _ellipj(u, k)[0]


def jacobi_cn(u, k):
    return _ellipj(u, k)[1]


def jacobi_dn(u, k):
    return _ellipj(u, k)[2]


def jacobi_am(u, k):
    """Jacobi amplitude, continuous in u (am(u + 2K) = am(u) + pi)."""
    return _ellipj(u, k)[3]


def inv_am(phi, k):
    """Principal inverse of am: u in [-K, K] with am(u, k) = phi.

    This is the incomplete elliptic integral F(phi | k^2).
    """
    from scipy import special

    k = _check_modulus(k)
    phi = np.asarray(phi, dtype=float)
    if not np.all(np.abs(phi) <= math.pi / 2):
        raise ValueError(f"inv_am argument {phi} outside [-pi/2, pi/2]")
    return special.ellipkinc(phi, k * k)[()]


def inv_sn(x, k):
    """Principal inverse of sn: u in [-K, K] with sn(u, k) = x."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.abs(x) <= 1.0):
        raise ValueError(f"inv_sn argument {x} outside [-1, 1]")
    return inv_am(np.arcsin(x), k)
