"""Separated 1D quantum eigenproblems on finite-difference grids.

Covers the uniform-field Landau problem, characteristic values of the
Mathieu equation y'' + (a - 2q cos 2x) y = 0 arising from the helical
field, and the radial equation of the axially symmetric family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError, EigenSolveFailure, GridTooSmall, NoBoundStates, ParameterError, StepFailure,
)
from .fields import Cylindrical, _as_count, _as_instance, _as_real, _real_fields

#: most points a Grid1D may have; a larger n is refused before its arrays
#: are allocated: the Landau solve holds 76 bytes per interior point, all of
#: them LAPACK's d, e, outputs and workspace
GRID_MAX_POINTS = 10**7
#: largest Mathieu order of a table: its 2 r_max + 1 solves cost about r_max^2
MATHIEU_R_MAX = 1000


@dataclass(frozen=True)
class Grid1D:
    lo: float
    hi: float
    n: int

    def __post_init__(self):
        _real_fields(self, "lo", "hi")
        object.__setattr__(self, "n", _as_count(self.n, f"Grid1D n {self.n!r}", least=16))
        if not self.lo < self.hi:
            raise ParameterError("grid needs lo < hi")
        if self.n > GRID_MAX_POINTS:
            raise ConfigError(f"a grid of n = {self.n} points exceeds the maximum "
                              f"of {GRID_MAX_POINTS} points")

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)


def _check_info(routine: str, info: int) -> None:
    if info != 0:
        raise EigenSolveFailure(f"LAPACK {routine} failed with info = {info}")


def _bisect(diag: np.ndarray, off: np.ndarray, lo: int, hi: int, order: str):
    """Eigenvalues lo..hi (0-based, ascending) of a symmetric tridiagonal matrix.

    One LAPACK dstebz call by index with abstol 0, the call of scipy's
    eigh_tridiagonal(select="i"): order "E" sorts the values, order "B"
    keeps them by split block as dstein needs. Returns the values with
    their block indices iblock and the split points isplit.
    """
    from scipy.linalg.lapack import dstebz

    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
        raise ParameterError("the tridiagonal matrix has non-finite entries")
    m, w, iblock, isplit, info = dstebz(diag, off, 2, 0.0, 1.0, lo + 1, hi + 1, 0.0, order)
    _check_info("dstebz", info)
    # a copy, so that the full-length w is freed; iblock and isplit stay full
    # length, because the dstein wrapper requires both of bounds (n)
    return w[:m].copy(), iblock, isplit


class _Tridiagonal:
    """Lowest eigenvalues of a symmetric tridiagonal matrix, vectors on demand.

    The values come from one `_bisect` call in block order; `vectors`
    runs dstein on them as eigh_tridiagonal does, so values and vectors
    are bit for bit those of eigh_tridiagonal(select="i").
    """

    def __init__(self, diag: np.ndarray, off: np.ndarray, n_levels: int):
        self.diag, self.off = diag, off
        self.w, self.iblock, self.isplit = _bisect(diag, off, 0, n_levels - 1, "B")
        self.order = np.argsort(self.w)
        self.values = self.w[self.order]

    def vectors(self, count: int) -> np.ndarray:
        """Interior eigenvectors of the `count` lowest values, one per column.

        dstein seeds each inverse iteration from where the previous one
        left its random generator, so it runs over the block-ordered
        values up to the last one wanted: a prefix of the full call, with
        the same bits.
        """
        from scipy.linalg.lapack import dstein

        want = self.order[:count]
        stop = int(want.max()) + 1
        vecs, info = dstein(self.diag, self.off, self.w[:stop], self.iblock, self.isplit)
        _check_info("dstein", info)
        return vecs[:, want]


@dataclass(frozen=True)
class SpectrumResult:
    """Ascending eigenvalues with trapezoid-normalized grid eigenfunctions.

    The solve computes the eigenvalues, and the ground vector only where
    a check needs it. `eigenfunctions` (n_levels, grid.n), zero at both
    ends, is built on first read, by one dstein call on every level, and
    cached; the JSON report of `spectrum` never reads it.
    """

    eigenvalues: np.ndarray
    grid: Grid1D
    _solve: _Tridiagonal = field(repr=False, compare=False)

    @cached_property
    def eigenfunctions(self) -> np.ndarray:
        return _embed(self._solve.vectors(len(self.eigenvalues)), self.grid.spacing, self.grid.n)


def _check_levels(grid: Grid1D, n_levels: int) -> None:
    """Refuse a level count the grid cannot hold before any array is made."""
    n_in = grid.n - 2
    if not 1 <= _as_count(n_levels, f"n_levels {n_levels!r}") <= n_in:
        raise ParameterError(f"n_levels must be in [1, {n_in}]")
    if n_levels * grid.n > GRID_MAX_POINTS:
        raise ConfigError(f"{n_levels} eigenfunctions on a grid of n = {grid.n} points exceed "
                          f"the maximum of {GRID_MAX_POINTS} values")


def _dirichlet(w: np.ndarray, h: float, hbar: float, n_levels: int) -> _Tridiagonal:
    """Lowest eigenvalues of -hbar^2 f'' + w f on interior points.

    Takes w over: the kinetic diagonal is added into it in place, so it
    becomes the matrix diagonal and no second array of its length is
    made. The Landau and the radial solve each pass an array of their own.
    """
    np.add(w, 2.0 * hbar**2 / h**2, out=w)
    off = np.full(len(w) - 1, -(hbar**2) / h**2)
    return _Tridiagonal(w, off, n_levels)


def _embed(vecs: np.ndarray, h: float, n_total: int) -> np.ndarray:
    """Interior eigenvectors -> full-grid functions, trapezoid-normalized."""
    n_levels = vecs.shape[1]
    funcs = np.zeros((n_levels, n_total))
    np.divide(vecs.T, math.sqrt(h), out=funcs[:, 1:-1])
    return funcs


def landau_reduced_solve(
    B: float, k1: float, k2: float, hbar: float, grid: Grid1D, n_levels: int,
) -> SpectrumResult:
    """Eigenvalues E of hbar^2 f'' = ((Bz - k2)^2 + k1^2 - 2E) f.

    Second-order central differences with Dirichlet ends, B of either
    sign. The box must cover 8 oscillator lengths sqrt(hbar/|B|) on both
    sides of the center z = k2/B, and the computed ground state must have
    a negligible tail at the walls; otherwise GridTooSmall is raised. A
    grid that is not a Grid1D is a ParameterError.
    """
    B, k1, k2 = (_as_real(v, f"landau_reduced_solve {k} {v!r}")
                 for k, v in (("B", B), ("k1", k1), ("k2", k2)))
    hbar = _as_real(hbar, f"landau_reduced_solve hbar {hbar!r}", positive=True)
    _as_instance(grid, Grid1D, "landau_reduced_solve grid", "a Grid1D")
    if B == 0:
        raise ParameterError("landau_reduced_solve needs B != 0")
    center = k2 / B
    ell = math.sqrt(hbar / abs(B))
    if center - grid.lo < 8 * ell or grid.hi - center < 8 * ell:
        raise GridTooSmall(
            f"grid [{grid.lo}, {grid.hi}] spans fewer than 8 oscillator "
            f"lengths {ell:g} around the center {center:g}")
    _check_levels(grid, n_levels)
    solve = _dirichlet((B * grid.points[1:-1] - k2) ** 2, grid.spacing, hbar, n_levels)
    # the interior of the ground function, divided as `_embed` divides
    ground = np.abs(solve.vectors(1)[:, 0] / math.sqrt(grid.spacing))
    tail = max(ground[0], ground[-1]) / np.max(ground)
    if tail > 1e-10:
        raise GridTooSmall(
            f"ground-state boundary tail {tail:g} exceeds 1e-10; enlarge the box")
    return SpectrumResult(0.5 * (solve.values + k1**2), grid, solve)


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
        raise ParameterError(f"parity must be 'even' or 'odd', got {parity!r}")
    r = _as_count(r, f"r {r!r}")
    if parity == "odd" and r == 0:
        raise ParameterError(f"no characteristic value of parity {parity!r} at r={r}")
    q = _as_real(q, f"q {q!r}")
    if not abs(q) <= 1e4:
        raise ParameterError("|q| must not exceed 1e4")
    n_dim = 50 + 2 * math.ceil(math.sqrt(abs(q))) + r
    diag, off, idx = _mathieu_matrix(r, parity, q, n_dim)
    vals, _, _ = _bisect(diag, off, idx, idx, "E")
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
    r_max = _as_count(r_max, f"r_max {r_max!r}", least=1)
    if r_max > MATHIEU_R_MAX:
        raise ConfigError(f"r_max = {r_max} exceeds the maximum of {MATHIEU_R_MAX}")
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


#: Richardson bound on max|Phi_2m - Phi_m| / (15 max(1, max|Phi|))
MAGNUS_TOL = 1e-12
#: most Magnus substeps per sample interval before the solve gives up
MAGNUS_MAX_SUBSTEPS = 2**10
#: most Magnus steps formed at once: the intervals go in blocks of this many steps
MAGNUS_BLOCK_STEPS = 2**16
_GAUSS_OFFSET = math.sqrt(3.0) / 6.0


def _magnus_intervals(z: np.ndarray, m: int, w_of) -> tuple:
    """Propagators (a, b, c, d) of y' = [[0, 1], [w, 0]] y over each z interval.

    Each interval takes m fourth-order Magnus steps: with w1, w2 at the two
    Gauss-Legendre points of a step of length h, the traceless exponent is
    Omega = [[s, h], [h (w1 + w2)/2, -s]], s = sqrt(3) h^2 (w1 - w2)/12, and
    exp(Omega) = cosh(mu) I + sinh(mu)/mu Omega with mu^2 = -det Omega (the
    cos/sin form when mu^2 < 0), so every step has unit determinant. The
    steps of an interval are multiplied pairwise, later ones on the left.
    """
    h = (np.diff(z) / m)[:, None]
    start = z[:-1, None] + h * np.arange(m)
    w1 = w_of(start + (0.5 - _GAUSS_OFFSET) * h)
    w2 = w_of(start + (0.5 + _GAUSS_OFFSET) * h)
    s = (math.sqrt(3.0) / 12.0) * h**2 * (w1 - w2)
    lower = 0.5 * h * (w1 + w2)
    mu2 = s * s + h * lower
    mu = np.sqrt(np.abs(mu2))
    grow = mu2 > 0.0
    even = np.where(grow, np.cosh(mu), np.cos(mu))
    nonzero = mu > 0.0
    odd = np.where(nonzero, np.where(grow, np.sinh(mu), np.sin(mu))
                   / np.where(nonzero, mu, 1.0), 1.0)
    a, b, c, d = even + odd * s, odd * h, odd * lower, even - odd * s
    while a.shape[1] > 1:
        a, b, c, d = (a[:, 1::2] * a[:, 0::2] + b[:, 1::2] * c[:, 0::2],
                      a[:, 1::2] * b[:, 0::2] + b[:, 1::2] * d[:, 0::2],
                      c[:, 1::2] * a[:, 0::2] + d[:, 1::2] * c[:, 0::2],
                      c[:, 1::2] * b[:, 0::2] + d[:, 1::2] * d[:, 0::2])
    return tuple(p[:, 0].tolist() for p in (a, b, c, d))


def _fundamental_matrix(z: np.ndarray, m: int, w_of) -> np.ndarray:
    """Rows chi1, dchi1, chi2, dchi2 at the points z from the unit matrix at z[0]."""
    per = max(1, MAGNUS_BLOCK_STEPS // m)
    x1, v1, x2, v2 = 1.0, 0.0, 0.0, 1.0
    rows = [(x1, v1, x2, v2)]
    for lo in range(0, len(z) - 1, per):
        for a, b, c, d in zip(*_magnus_intervals(z[lo:lo + per + 1], m, w_of)):
            x1, v1, x2, v2 = a * x1 + b * v1, c * x1 + d * v1, a * x2 + b * v2, c * x2 + d * v2
            rows.append((x1, v1, x2, v2))
    return np.array(rows).T


def helical_reduced_solve(
    A_amp: float, beta: float, K: float, phi_K: float, hbar: float, E: float,
    n_samples: int = 801,
) -> HelicalReducedResult:
    """Solve hbar^2 chi'' = (-2 A K cos(z/beta - phi_K) + A^2 + K^2 - 2E) chi.

    Returns the Mathieu coefficients of the equivalent equation in the
    half-argument variable x = phi_K/2 - z/(2 beta) and the fundamental
    matrix over one period 2 pi |beta| at n_samples equally spaced points,
    together with its monodromy matrix (unit Wronskian). The fundamental
    matrix is propagated by a fourth-order Magnus method with m substeps
    per sample interval, formed at most MAGNUS_BLOCK_STEPS steps at a time;
    m doubles from 2 until the Richardson estimate max|Phi_2m - Phi_m| /
    (15 max(1, max|Phi_2m|)) is at most MAGNUS_TOL, and Phi_2m is
    returned. A non-finite Phi or Wronskian, or m past
    MAGNUS_MAX_SUBSTEPS, raises StepFailure.
    """
    A_amp, beta, K, phi_K, E = (
        _as_real(v, f"helical_reduced_solve {k} {v!r}")
        for k, v in (("A_amp", A_amp), ("beta", beta), ("K", K), ("phi_K", phi_K), ("E", E)))
    hbar = _as_real(hbar, f"helical_reduced_solve hbar {hbar!r}", positive=True)
    n_samples = _as_count(n_samples, f"helical_reduced_solve n_samples {n_samples!r}", least=2)
    if K < 0:
        raise ParameterError("K must be nonnegative")
    if beta == 0:
        raise ParameterError("beta must be nonzero")

    a = -4.0 * beta**2 * (A_amp**2 + K**2 - 2.0 * E) / hbar**2
    q = -4.0 * beta**2 * A_amp * K / hbar**2
    period = 2.0 * math.pi * abs(beta)
    mean = A_amp**2 + K**2 - 2.0 * E

    def w_of(z):
        return (-2.0 * A_amp * K * np.cos(z / beta - phi_K) + mean) / hbar**2

    z_eval = np.linspace(0.0, period, n_samples)
    # a solution that blows up ends in a StepFailure, so its overflows stay silent
    with np.errstate(over="ignore", invalid="ignore"):
        m, coarse = 2, None
        while True:
            fine = _fundamental_matrix(z_eval, m, w_of)
            if not np.all(np.isfinite(fine)):
                raise StepFailure("fundamental-solution integration failed: non-finite "
                                  f"fundamental matrix with {m} substeps per interval")
            if coarse is not None and np.max(np.abs(fine - coarse)) <= (
                    MAGNUS_TOL * 15.0 * max(1.0, float(np.max(np.abs(fine))))):
                break
            if m >= MAGNUS_MAX_SUBSTEPS:
                raise StepFailure("fundamental-solution integration failed: no "
                                  f"convergence with {m} substeps per interval")
            m, coarse = 2 * m, fine
        chi1, dchi1, chi2, dchi2 = fine
        drift = float(np.max(np.abs(chi1 * dchi2 - dchi1 * chi2 - 1.0)))
    if not math.isfinite(drift):
        raise StepFailure("fundamental-solution integration failed: the Wronskian "
                          "of the fundamental matrix overflows")
    monodromy = np.array([[chi1[-1], chi2[-1]], [dchi1[-1], dchi2[-1]]])
    return HelicalReducedResult(
        a, q, period, z_eval, chi1, dchi1, chi2, dchi2, monodromy, drift,
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
    leaks into the outer 5% of the box are not counted as bound. A model
    that is not Cylindrical, or a grid that is not a Grid1D, is a
    ParameterError.
    """
    m_quantum, k = (_as_real(v, f"radial_reduced_solve {name} {v!r}")
                    for name, v in (("m_quantum", m_quantum), ("k", k)))
    hbar = _as_real(hbar, f"radial_reduced_solve hbar {hbar!r}", positive=True)
    _as_instance(model, Cylindrical, "radial_reduced_solve model", "a Cylindrical model")
    _as_instance(grid, Grid1D, "radial_reduced_solve grid", "a Grid1D")
    if grid.lo <= 0:
        raise ParameterError("radial grid must start at lo > 0")
    _check_levels(grid, n_levels)
    r_in = grid.points[1:-1]
    w = np.array([
        (model.f1(r) - hbar * k) ** 2
        + ((model.f2(r) + hbar * m_quantum) ** 2 - 0.25 * hbar**2) / r**2
        + 2.0 * model.v(r)
        for r in r_in.tolist()
    ])
    solve = _dirichlet(w, grid.spacing, hbar, n_levels)
    res = SpectrumResult(0.5 * solve.values, grid, solve)
    edge = max(2, int(0.05 * grid.n))
    n_bound = 0
    for f in res.eigenfunctions:
        tail_mass = float(np.sum(f[-edge:] ** 2) / np.sum(f**2))
        if tail_mass > 1e-8:
            break
        n_bound += 1
    if n_bound < n_levels:
        raise NoBoundStates(
            f"only {n_bound} of {n_levels} requested states are bound in the box")
    return res
