"""Separated 1D quantum eigenproblems on finite-difference grids.

Covers the uniform-field Landau problem, characteristic values of the
Mathieu equation y'' + (a - 2q cos 2x) y = 0 arising from the helical
field, and the radial equation of the axially symmetric family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal

from .errors import GridTooSmall, NoBoundStates, StepFailure
from .fields import Cylindrical


@dataclass(frozen=True)
class Grid1D:
    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("grid needs lo < hi")
        if self.n < 16:
            raise ValueError("grid needs at least 16 points")

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)


@dataclass(frozen=True)
class SpectrumResult:
    """Ascending eigenvalues with trapezoid-normalized grid eigenfunctions."""

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray  # (n_levels, grid.n), zero at both ends
    grid: Grid1D


def _dirichlet_solve(w: np.ndarray, h: float, hbar: float, n_levels: int):
    """Lowest eigenpairs of -hbar^2 f'' + w f on interior points."""
    n_in = len(w)
    if not 1 <= n_levels <= n_in:
        raise ValueError(f"n_levels must be in [1, {n_in}]")
    diag = 2.0 * hbar**2 / h**2 + w
    off = np.full(n_in - 1, -(hbar**2) / h**2)
    vals, vecs = eigh_tridiagonal(diag, off, select="i",
                                  select_range=(0, n_levels - 1))
    return vals, vecs


def _embed(vecs: np.ndarray, h: float, n_total: int) -> np.ndarray:
    """Interior eigenvectors -> full-grid functions, trapezoid-normalized."""
    n_levels = vecs.shape[1]
    funcs = np.zeros((n_levels, n_total))
    funcs[:, 1:-1] = vecs.T / math.sqrt(h)
    return funcs


def landau_reduced_solve(
    B: float, k1: float, k2: float, hbar: float, grid: Grid1D, n_levels: int,
) -> SpectrumResult:
    """Eigenvalues E of hbar^2 f'' = ((Bz - k2)^2 + k1^2 - 2E) f.

    Second-order central differences with Dirichlet ends. The box must
    cover 8 oscillator lengths sqrt(hbar/B) on both sides of the center
    z = k2/B, and the computed ground state must have a negligible tail
    at the walls; otherwise GridTooSmall is raised.
    """
    if not (B > 0 and hbar > 0):
        raise ValueError("landau_reduced_solve needs B > 0 and hbar > 0")
    center = k2 / B
    ell = math.sqrt(hbar / B)
    if center - grid.lo < 8 * ell or grid.hi - center < 8 * ell:
        raise GridTooSmall(
            f"grid [{grid.lo}, {grid.hi}] spans fewer than 8 oscillator "
            f"lengths {ell:g} around the center {center:g}")
    z = grid.points
    w = (B * z[1:-1] - k2) ** 2
    vals, vecs = _dirichlet_solve(w, grid.spacing, hbar, n_levels)
    funcs = _embed(vecs, grid.spacing, grid.n)
    ground = np.abs(funcs[0])
    tail = max(ground[1], ground[-2]) / np.max(ground)
    if tail > 1e-10:
        raise GridTooSmall(
            f"ground-state boundary tail {tail:g} exceeds 1e-10; enlarge the box")
    energies = 0.5 * (vals + k1**2)
    return SpectrumResult(energies, funcs, grid)


def hermite_values(n: int, xi: np.ndarray) -> np.ndarray:
    """Physicists' Hermite polynomial H_n by the three-term recurrence."""
    h_prev = np.ones_like(xi)
    if n == 0:
        return h_prev
    h = 2.0 * xi
    for m in range(1, n):
        h, h_prev = 2.0 * xi * h - 2.0 * m * h_prev, h
    return h


def hermite_check(result: SpectrumResult, B: float, k2: float, hbar: float, n: int) -> float:
    """L2 distance of the n-th grid eigenfunction from the Hermite-Gaussian.

    Both functions are trapezoid-normalized and sign-aligned before the
    distance is taken, so the value is phase-unambiguous.
    """
    if n >= len(result.eigenvalues):
        raise ValueError(f"level {n} not computed")
    z = result.grid.points
    xi = math.sqrt(B / hbar) * (z - k2 / B)
    phi = hermite_values(n, xi) * np.exp(-0.5 * xi**2)
    phi = phi / math.sqrt(np.trapezoid(phi**2, z))
    psi = result.eigenfunctions[n]
    if np.trapezoid(psi * phi, z) < 0:
        psi = -psi
    return float(math.sqrt(np.trapezoid((psi - phi) ** 2, z)))


# ---------------------------------------------------------------------------
# Mathieu characteristic values


def _mathieu_matrix(r: int, parity: str, q: float, n_dim: int):
    """Symmetric tridiagonal Fourier-basis matrix and the eigen index."""
    if parity == "even":
        if r % 2 == 0:
            diag = np.array([(2.0 * m) ** 2 for m in range(n_dim)])
            off = np.full(n_dim - 1, q)
            off[0] = math.sqrt(2.0) * q
            return diag, off, r // 2
        diag = np.array([(2.0 * m + 1.0) ** 2 for m in range(n_dim)])
        diag[0] += q
        return diag, np.full(n_dim - 1, q), (r - 1) // 2
    if r % 2 == 1:
        diag = np.array([(2.0 * m + 1.0) ** 2 for m in range(n_dim)])
        diag[0] -= q
        return diag, np.full(n_dim - 1, q), (r - 1) // 2
    diag = np.array([(2.0 * m) ** 2 for m in range(1, n_dim + 1)])
    return diag, np.full(n_dim - 1, q), r // 2 - 1


def mathieu_characteristic(r: int, parity: str, q: float) -> float:
    """Characteristic value a_r(q) (even parity) or b_r(q) (odd parity)."""
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    if r < 0 or (parity == "odd" and r == 0):
        raise ValueError(f"no characteristic value of parity {parity!r} at r={r}")
    if abs(q) > 1e4:
        raise ValueError("|q| must not exceed 1e4")
    n_dim = 50 + 2 * math.ceil(math.sqrt(abs(q))) + r
    diag, off, idx = _mathieu_matrix(r, parity, float(q), n_dim)
    vals = eigh_tridiagonal(diag, off, select="i", select_range=(idx, idx),
                            eigvals_only=True)
    return float(vals[0])


@dataclass(frozen=True)
class MathieuResult:
    """Characteristic values up to order r_max at fixed q.

    `even[r]` is a_r for r = 0..r_max; `odd[r-1]` is b_r for r = 1..r_max.
    """

    q: float
    even: np.ndarray
    odd: np.ndarray


def mathieu_table(r_max: int, q: float) -> MathieuResult:
    if r_max < 1:
        raise ValueError("r_max must be at least 1")
    even = np.array([mathieu_characteristic(r, "even", q) for r in range(r_max + 1)])
    odd = np.array([mathieu_characteristic(r, "odd", q) for r in range(1, r_max + 1)])
    return MathieuResult(float(q), even, odd)


# ---------------------------------------------------------------------------
# helical reduced equation


@dataclass(frozen=True)
class HelicalReducedResult:
    """Mathieu parameters (a, q) and fundamental solutions over one period."""

    a: float
    q: float
    period: float
    z: np.ndarray
    chi1: np.ndarray
    dchi1: np.ndarray
    chi2: np.ndarray
    dchi2: np.ndarray
    monodromy: np.ndarray
    wronskian_drift: float


def helical_reduced_solve(
    A_amp: float, beta: float, K: float, phi_K: float, hbar: float, E: float,
    n_samples: int = 801,
) -> HelicalReducedResult:
    """Solve hbar^2 chi'' = (-2 A K cos(z/beta - phi_K) + A^2 + K^2 - 2E) chi.

    Returns the Mathieu coefficients of the equivalent equation in the
    half-argument variable x = phi_K/2 - z/(2 beta) and the fundamental
    matrix over one period 2 pi |beta|, integrated as one DOP853 system,
    together with its monodromy matrix (unit Wronskian).
    """
    if not all(math.isfinite(v) for v in (A_amp, beta, K, phi_K, hbar, E)):
        raise ValueError("helical_reduced_solve needs finite parameters")
    if K < 0:
        raise ValueError("K must be nonnegative")
    if beta == 0 or hbar <= 0:
        raise ValueError("beta must be nonzero and hbar positive")
    a = -4.0 * beta**2 * (A_amp**2 + K**2 - 2.0 * E) / hbar**2
    q = -4.0 * beta**2 * A_amp * K / hbar**2
    period = 2.0 * math.pi * abs(beta)

    def rhs(z, y):
        w = (-2.0 * A_amp * K * math.cos(z / beta - phi_K)
             + A_amp**2 + K**2 - 2.0 * E) / hbar**2
        return [y[1], w * y[0], y[3], w * y[2]]

    # both fundamental solutions as one system [chi1, chi1', chi2, chi2'];
    # a solve that blows up ends in a StepFailure, so its overflows stay silent
    z_eval = np.linspace(0.0, period, n_samples)
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(rhs, (0.0, period), [1.0, 0.0, 0.0, 1.0], method="DOP853",
                        rtol=1e-12, atol=1e-12, t_eval=z_eval, dense_output=False)
    if not sol.success:
        raise StepFailure(f"fundamental-solution integration failed: {sol.message}")
    chi1, dchi1, chi2, dchi2 = sol.y
    wr = chi1 * dchi2 - dchi1 * chi2
    monodromy = np.array([[chi1[-1], chi2[-1]], [dchi1[-1], dchi2[-1]]])
    return HelicalReducedResult(
        a, q, period, z_eval, chi1, dchi1, chi2, dchi2, monodromy,
        float(np.max(np.abs(wr - 1.0))),
    )


# ---------------------------------------------------------------------------
# radial equation of the axially symmetric family


def radial_reduced_solve(
    model: Cylindrical, m_quantum: int, k: float, hbar: float,
    grid: Grid1D, n_levels: int,
) -> SpectrumResult:
    """Bound states of the separated radial equation.

    The substitution rho = u/sqrt(R) symmetrizes the problem to
    -hbar^2 u'' + [(F1 - hbar k)^2 + ((F2 + hbar m)^2 - hbar^2/4)/R^2
    + 2V] u = 2E u, solved with Dirichlet ends; the returned
    eigenfunctions are the symmetrized u. States whose probability mass
    leaks into the outer 5% of the box are not counted as bound.
    """
    if grid.lo <= 0:
        raise ValueError("radial grid must start at lo > 0")
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    r_in = grid.points[1:-1]
    w = np.array([
        (model.f1(r) - hbar * k) ** 2
        + ((model.f2(r) + hbar * m_quantum) ** 2 - 0.25 * hbar**2) / r**2
        + 2.0 * model.v(r)
        for r in r_in
    ])
    vals, vecs = _dirichlet_solve(w, grid.spacing, hbar, n_levels)
    funcs = _embed(vecs, grid.spacing, grid.n)
    edge = max(2, int(0.05 * grid.n))
    n_bound = 0
    for f in funcs:
        tail_mass = float(np.sum(f[-edge:] ** 2) / np.sum(f**2))
        if tail_mass > 1e-8:
            break
        n_bound += 1
    if n_bound < n_levels:
        raise NoBoundStates(
            f"only {n_bound} of {n_levels} requested states are bound in the box")
    return SpectrumResult(0.5 * vals, funcs, grid)
