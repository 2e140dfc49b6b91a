"""Separated quantum problems: Landau levels, Mathieu bands, radial states."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.special as sps

import magsuper as ms
from magsuper import quantum

from helpers import hermite_check, mathieu_shooting


LANDAU_GRID = ms.Grid1D(-12.0, 12.0, 2000)


def _free_radial_model(v=None, dv=None, f1=None, df1=None):
    zero = lambda r: 0.0
    return ms.Cylindrical(
        f1=f1 or zero, df1=df1 or zero,
        f2=zero, df2=zero,
        v=v or zero, dv=dv or zero,
    )


def test_landau_levels():
    res = ms.landau_reduced_solve(B=1.0, k1=0.0, k2=0.0, hbar=1.0,
                                  grid=LANDAU_GRID, n_levels=6)
    want = np.array([n + 0.5 for n in range(6)])
    rel = np.max(np.abs(res.eigenvalues - want) / want)
    assert rel < 1e-4
    assert np.all(np.diff(res.eigenvalues) > 0)
    assert hermite_check(res, B=1.0, k2=0.0, hbar=1.0, n=0) < 1e-5
    assert hermite_check(res, B=1.0, k2=0.0, hbar=1.0, n=3) < 1e-4
    with pytest.raises(ValueError):
        hermite_check(res, B=1.0, k2=0.0, hbar=1.0, n=6)


def test_landau_scaling_with_field():
    res = ms.landau_reduced_solve(B=2.5, k1=0.0, k2=0.0, hbar=1.0,
                                  grid=ms.Grid1D(-8.0, 8.0, 2000), n_levels=4)
    want = 2.5 * (np.arange(4) + 0.5)
    assert np.max(np.abs(res.eigenvalues - want) / want) < 1e-4


@pytest.mark.parametrize("B, grid, n_levels", [
    (-1.0, LANDAU_GRID, 6),
    (-2.5, ms.Grid1D(-8.0, 8.0, 2000), 4),
])
def test_landau_levels_negative_field(B, grid, n_levels):
    # hbar |B| (n + 1/2) + k1^2/2 whatever the sign of B, around z = k2/B;
    # the grids and tolerances are those of the B > 0 tests above
    k1, k2 = 0.4, 0.5
    res = ms.landau_reduced_solve(B=B, k1=k1, k2=k2, hbar=1.0,
                                  grid=grid, n_levels=n_levels)
    want = 0.5 * k1**2 + abs(B) * (np.arange(n_levels) + 0.5)
    assert np.max(np.abs(res.eigenvalues - want) / want) < 1e-4
    assert hermite_check(res, B=B, k2=k2, hbar=1.0, n=0) < 1e-5
    # the mirrored problem z -> -z has the same levels
    mirror = ms.landau_reduced_solve(B=-B, k1=k1, k2=-k2, hbar=1.0,
                                     grid=grid, n_levels=n_levels)
    assert np.max(np.abs(res.eigenvalues - mirror.eigenvalues)) < 1e-12


def test_landau_k1_shift_is_exact():
    base = ms.landau_reduced_solve(B=1.0, k1=0.0, k2=0.0, hbar=1.0,
                                   grid=LANDAU_GRID, n_levels=4)
    moved = ms.landau_reduced_solve(B=1.0, k1=0.7, k2=0.0, hbar=1.0,
                                    grid=LANDAU_GRID, n_levels=4)
    shift = moved.eigenvalues - base.eigenvalues
    assert np.max(np.abs(shift - 0.5 * 0.7**2)) < 1e-12


def test_landau_k2_only_moves_the_center():
    base = ms.landau_reduced_solve(B=1.0, k1=0.0, k2=0.0, hbar=1.0,
                                   grid=LANDAU_GRID, n_levels=4)
    moved = ms.landau_reduced_solve(B=1.0, k1=0.0, k2=2.0, hbar=1.0,
                                    grid=LANDAU_GRID, n_levels=4)
    assert np.max(np.abs(moved.eigenvalues - base.eigenvalues)) < 1e-6


@pytest.mark.parametrize("n", [quantum.GRID_MAX_POINTS + 1, 10**12])
def test_grid_refuses_more_points_than_the_cap(monkeypatch, n):
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated arrays for a refused grid")

    for name in ("linspace", "empty", "zeros"):
        monkeypatch.setattr(quantum.np, name, no_allocation)
    with pytest.raises(ms.ConfigError, match="exceeds the maximum of 10000000 points"):
        ms.Grid1D(-12.0, 12.0, n)
    assert ms.Grid1D(-12.0, 12.0, quantum.GRID_MAX_POINTS).n == quantum.GRID_MAX_POINTS


def test_landau_grid_guards():
    with pytest.raises(ms.GridTooSmall):
        ms.landau_reduced_solve(B=1.0, k1=0.0, k2=0.0, hbar=1.0,
                                grid=ms.Grid1D(-2.0, 2.0, 200), n_levels=2)
    with pytest.raises(ms.GridTooSmall):
        # center k2/B = 4 sits too close to the right wall
        ms.landau_reduced_solve(B=1.0, k1=0.0, k2=4.0, hbar=1.0,
                                grid=ms.Grid1D(-9.0, 9.0, 1000), n_levels=2)
    with pytest.raises(ValueError):
        ms.landau_reduced_solve(B=0.0, k1=0.0, k2=0.0, hbar=1.0,
                                grid=LANDAU_GRID, n_levels=2)
    with pytest.raises(ValueError):
        ms.landau_reduced_solve(B=1.0, k1=0.0, k2=0.0, hbar=1.0,
                                grid=LANDAU_GRID, n_levels=0)


def test_eigenfunctions_orthonormal():
    res = ms.landau_reduced_solve(B=1.0, k1=0.0, k2=0.0, hbar=1.0,
                                  grid=LANDAU_GRID, n_levels=4)
    z = res.grid.points
    for i in range(4):
        for j in range(i, 4):
            overlap = np.trapezoid(res.eigenfunctions[i] * res.eigenfunctions[j], z)
            assert overlap == pytest.approx(1.0 if i == j else 0.0, abs=1e-8)
        assert res.eigenfunctions[i][0] == 0.0
        assert res.eigenfunctions[i][-1] == 0.0


def _eigh_reference(w, h, hbar, n_levels):
    """scipy's eigh_tridiagonal on the Dirichlet matrix of -hbar^2 f'' + w f."""
    from scipy.linalg import eigh_tridiagonal

    diag = 2.0 * hbar**2 / h**2 + w
    off = np.full(len(w) - 1, -(hbar**2) / h**2)
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, n_levels - 1))
    return vals, vecs.T / math.sqrt(h)


@pytest.mark.parametrize("B", [1.5, -1.5])
@pytest.mark.parametrize("n_levels", [1, 198])
def test_landau_solve_is_eigh_tridiagonal_bit_for_bit(B, n_levels):
    grid, k1, k2, hbar = ms.Grid1D(-12.0, 12.0, 200), 0.3, -0.4, 0.8
    res = ms.landau_reduced_solve(B, k1, k2, hbar, grid, n_levels)
    z = grid.points
    vals, funcs = _eigh_reference((B * z[1:-1] - k2) ** 2, grid.spacing, hbar, n_levels)
    assert np.array_equal(res.eigenvalues, 0.5 * (vals + k1**2))
    assert np.array_equal(res.eigenfunctions[:, 1:-1], funcs)
    assert not res.eigenfunctions[:, [0, -1]].any()


def test_radial_solve_is_eigh_tridiagonal_bit_for_bit():
    model = _free_radial_model(v=lambda r: 0.5 * r**2, dv=lambda r: r)
    grid = ms.Grid1D(1e-3, 12.0, 3000)
    res = ms.radial_reduced_solve(model, m_quantum=1, k=0.0, hbar=1.0, grid=grid, n_levels=3)
    r = grid.points[1:-1]
    vals, funcs = _eigh_reference(0.75 / r**2 + r**2, grid.spacing, 1.0, 3)
    assert np.array_equal(res.eigenvalues, 0.5 * vals)
    assert np.array_equal(res.eigenfunctions[:, 1:-1], funcs)


class _Potential(Exception):
    """Stops a radial solve at its potential, which it carries."""


@pytest.mark.parametrize("model", [
    _free_radial_model(v=lambda r: 0.5 * r**2, dv=lambda r: r),
    ms.Cylindrical(f1=lambda r: r**1.5, df1=lambda r: 1.5 * r**0.5,
                   f2=lambda r: r**3, df2=lambda r: 3 * r * r,
                   v=lambda r: math.exp(-r) + r**-1, dv=lambda r: -math.exp(-r) - r**-2),
], ids=["harmonic", "powers"])
def test_radial_potential_has_the_bits_of_the_float64_loop(model, monkeypatch):
    # the potential is formed over Python floats, with the bits of the same
    # sum over the grid's np.float64 scalars, whose arithmetic is numpy's
    def stop(w, *args):
        raise _Potential(w.copy())

    monkeypatch.setattr(quantum, "_dirichlet", stop)
    grid, m, k, hbar = ms.Grid1D(1e-3, 12.0, 200000), 2, 0.3, 0.9
    with pytest.raises(_Potential) as stopped:
        ms.radial_reduced_solve(model, m, k, hbar, grid, 3)
    want = np.array([(model.f1(r) - hbar * k) ** 2
                     + ((model.f2(r) + hbar * m) ** 2 - 0.25 * hbar**2) / r**2
                     + 2.0 * model.v(r) for r in grid.points[1:-1]])
    assert stopped.value.args[0].tobytes() == want.tobytes()


def test_eigenfunctions_are_built_once_and_only_when_read(monkeypatch):
    from scipy.linalg import lapack

    sizes = []
    real = lapack.dstein

    def counting(d, e, w, iblock, isplit):
        sizes.append(len(w))
        return real(d, e, w, iblock, isplit)

    monkeypatch.setattr(lapack, "dstein", counting)
    res = ms.landau_reduced_solve(1.0, 0.0, 0.0, 1.0, LANDAU_GRID, 4)
    assert sizes == [1]  # the ground vector of the wall-tail gate
    funcs = res.eigenfunctions
    assert sizes == [1, 4] and funcs.shape == (4, LANDAU_GRID.n)
    assert res.eigenfunctions is funcs
    assert sizes == [1, 4]


def test_vectors_of_a_split_matrix_keep_the_full_call_bits():
    # zero off-diagonals split the matrix into blocks, and the lowest value
    # (-1) is in the third block: dstein still runs the block-ordered prefix
    from scipy.linalg import eigh_tridiagonal

    diag = np.array([0.0, 5.0, 6.0, 7.0, 5.0, 6.0, 7.0, -1.0, 3.0, 4.0])
    off = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.5, 0.5])
    solve = quantum._Tridiagonal(diag, off, 4)
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 3))
    assert list(solve.order) == [1, 0, 2, 3]
    assert np.array_equal(solve.values, vals)
    for count in range(1, 5):
        assert np.array_equal(solve.vectors(count), vecs[:, :count])


def test_tridiagonal_solve_refuses_non_finite_entries():
    # a NaN k2 would pass the box check (every comparison with NaN is false):
    # the entry point refuses it by name, and the solve refuses a NaN entry
    with pytest.raises(ms.ParameterError, match="^landau_reduced_solve k2 nan is not finite$"):
        ms.landau_reduced_solve(1.0, 0.0, math.nan, 1.0, LANDAU_GRID, 2)
    with pytest.raises(ms.ParameterError, match="non-finite"):
        quantum._Tridiagonal(np.array([2.0, math.nan, 2.0]), np.full(2, -1.0), 1)
    with np.errstate(over="ignore"), pytest.raises(ms.ParameterError, match="non-finite"):
        ms.landau_reduced_solve(1e200, 0.0, 0.0, 1.0, LANDAU_GRID, 2)


@pytest.mark.parametrize("solve", ["landau", "radial"])
@pytest.mark.parametrize("n, n_levels", [(10**6, 11), (10**7, 2), (625002, 625000)])
def test_level_cap_is_refused_before_any_array(monkeypatch, solve, n, n_levels):
    assert n_levels * n > quantum.GRID_MAX_POINTS
    grid = ms.Grid1D(-12.0, 12.0, n) if solve == "landau" else ms.Grid1D(1.0, 13.0, n)
    model = _free_radial_model(v=lambda r: 0.5 * r**2, dv=lambda r: r)

    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated arrays for a refused level count")

    for name in ("linspace", "empty", "zeros", "full", "array"):
        monkeypatch.setattr(quantum.np, name, no_allocation)
    with pytest.raises(ms.ConfigError, match="exceed the maximum of 10000000 values"):
        if solve == "landau":
            ms.landau_reduced_solve(1.0, 0.0, 0.0, 1.0, grid, n_levels)
        else:
            ms.radial_reduced_solve(model, 1, 0.0, 1.0, grid, n_levels)


def test_grid_validation():
    with pytest.raises(ValueError):
        ms.Grid1D(1.0, 1.0, 100)
    with pytest.raises(ValueError):
        ms.Grid1D(0.0, 1.0, 8)
    g = ms.Grid1D(0.0, 1.0, 101)
    assert g.spacing == pytest.approx(0.01)
    assert len(g.points) == 101


def test_mathieu_free_limit():
    for r in range(1, 6):
        assert ms.mathieu_characteristic(r, "even", 0.0) == pytest.approx(r**2, abs=1e-12)
        assert ms.mathieu_characteristic(r, "odd", 0.0) == pytest.approx(r**2, abs=1e-12)
    assert ms.mathieu_characteristic(0, "even", 0.0) == pytest.approx(0.0, abs=1e-12)


def test_mathieu_matches_scipy():
    for q in (0.5, 1.0, 5.0, 10.0):
        for r in range(5):
            a = ms.mathieu_characteristic(r, "even", q)
            assert a == pytest.approx(float(sps.mathieu_a(r, q)), abs=1e-8)
            if r >= 1:
                b = ms.mathieu_characteristic(r, "odd", q)
                assert b == pytest.approx(float(sps.mathieu_b(r, q)), abs=1e-8)


def test_mathieu_matches_shooting():
    # independent oracle: quarter-period shooting on y'' + (a - 2q cos 2x) y = 0
    for q in (0.5, 5.0, 10.0, -4.0):
        for r in range(5):
            a = ms.mathieu_characteristic(r, "even", q)
            assert abs(a - mathieu_shooting(r, "even", q, a)) < 1e-8
            if r >= 1:
                b = ms.mathieu_characteristic(r, "odd", q)
                assert abs(b - mathieu_shooting(r, "odd", q, b)) < 1e-8


def test_mathieu_negative_q_identities():
    for q in (0.7, 2.0, 4.0):
        for r in (0, 2, 4):
            assert ms.mathieu_characteristic(r, "even", -q) == pytest.approx(
                ms.mathieu_characteristic(r, "even", q), abs=1e-10)
        for r in (1, 3):
            assert ms.mathieu_characteristic(r, "even", -q) == pytest.approx(
                ms.mathieu_characteristic(r, "odd", q), abs=1e-10)
            assert ms.mathieu_characteristic(r, "odd", -q) == pytest.approx(
                ms.mathieu_characteristic(r, "even", q), abs=1e-10)
        for r in (2, 4):
            assert ms.mathieu_characteristic(r, "odd", -q) == pytest.approx(
                ms.mathieu_characteristic(r, "odd", q), abs=1e-10)


def test_mathieu_interlacing():
    # a_0 < b_1 <= a_1 < b_2 <= a_2 < ... for q > 0
    q = 3.0
    table = ms.mathieu_table(5, q)
    seq = [table.even[0]]
    for r in range(1, 6):
        seq.extend([table.odd[r - 1], table.even[r]])
    assert all(x < y + 1e-12 for x, y in zip(seq, seq[1:]))


def test_mathieu_large_q_follows_the_asymptotic_series():
    # a_r(q) ~ -2q + 2(2r+1) sqrt(q) - ((2r+1)^2 + 1)/8 + O(q^-1/2) as q grows;
    # the next term is -(2r+1)((2r+1)^2 + 3)/(2^7 sqrt(q)) = -0.0028 here
    q, r = 1e4, 1
    w = 2 * r + 1
    asymptotic = -2 * q + 2 * w * np.sqrt(q) - (w**2 + 1) / 8
    assert asymptotic == -19401.25
    assert ms.mathieu_characteristic(r, "even", q) == pytest.approx(asymptotic, abs=0.01)


@pytest.mark.parametrize("call, message", [
    (lambda: ms.landau_reduced_solve(1.0, math.inf, 0.0, 1.0, LANDAU_GRID, 2),
     "landau_reduced_solve k1 inf is not finite"),
    (lambda: ms.landau_reduced_solve("1", 0.0, 0.0, 1.0, LANDAU_GRID, 2),
     "landau_reduced_solve B '1' is not a number"),
    (lambda: ms.landau_reduced_solve(1.0, 0.0, 0.0, 0.0, LANDAU_GRID, 2),
     "landau_reduced_solve hbar 0.0 is not positive"),
    (lambda: ms.landau_reduced_solve(1.0, 0.0, 0.0, 1.0, LANDAU_GRID, 2.5),
     "n_levels 2.5 is not an integer"),
    (lambda: ms.Grid1D(0.0, math.inf, 20), "Grid1D hi inf is not finite"),
    (lambda: ms.Grid1D("0", 1.0, 20), "Grid1D lo '0' is not a number"),
    (lambda: ms.Grid1D(0.0, 1.0, 20.5), "Grid1D n 20.5 is not an integer"),
    (lambda: ms.Grid1D(0.0, 1.0, 15), "Grid1D n 15 is below 16"),
    (lambda: ms.mathieu_table(3, "x"), "q 'x' is not a number"),
    (lambda: ms.mathieu_table(3, None), "q None is not a number"),
    (lambda: ms.mathieu_characteristic(1.5, "even", 1.0), "r 1.5 is not an integer"),
    (lambda: ms.helical_reduced_solve("x", 1.0, 1.0, 0.0, 1.0, 1.0),
     "helical_reduced_solve A_amp 'x' is not a number"),
    (lambda: ms.helical_reduced_solve(1.0, None, 1.0, 0.0, 1.0, 1.0),
     "helical_reduced_solve beta None is not a number"),
    (lambda: ms.helical_reduced_solve(1.0, 1.0, True, 0.0, 1.0, 1.0),
     "helical_reduced_solve K True is not a number"),
    (lambda: ms.helical_reduced_solve(1.0, 1.0, 1.0, math.inf, 1.0, 1.0),
     "helical_reduced_solve phi_K inf is not finite"),
    (lambda: ms.helical_reduced_solve(1.0, 1.0, 1.0, 0.0, -1.0, 1.0),
     "helical_reduced_solve hbar -1.0 is not positive"),
    (lambda: ms.helical_reduced_solve(1.0, 1.0, 1.0, 0.0, 1.0, "2"),
     "helical_reduced_solve E '2' is not a number"),
    (lambda: ms.helical_reduced_solve(1.0, 1.0, 1.0, 0.0, 1.0, 1.0, n_samples=2.5),
     "helical_reduced_solve n_samples 2.5 is not an integer"),
    # one sample (or none) covers no period: it returned the identity as monodromy
    (lambda: ms.helical_reduced_solve(1.0, 1.0, 1.0, 0.0, 1.0, 1.0, n_samples=1),
     "helical_reduced_solve n_samples 1 is below 2"),
    (lambda: ms.radial_reduced_solve(_free_radial_model(), 0, "1", 1.0, LANDAU_GRID, 2),
     "radial_reduced_solve k '1' is not a number"),
    (lambda: ms.radial_reduced_solve(_free_radial_model(), 0, math.nan, 1.0, LANDAU_GRID, 2),
     "radial_reduced_solve k nan is not finite"),
    (lambda: ms.radial_reduced_solve(_free_radial_model(), [1], 0.0, 1.0, LANDAU_GRID, 2),
     r"radial_reduced_solve m_quantum \[1\] is not a number"),
    (lambda: ms.radial_reduced_solve(_free_radial_model(), 0, 0.0, math.inf, LANDAU_GRID, 2),
     "radial_reduced_solve hbar inf is not finite"),
    (lambda: ms.radial_reduced_solve(_free_radial_model(), 0, 0.0, 0, LANDAU_GRID, 2),
     "radial_reduced_solve hbar 0 is not positive"),
    (lambda: ms.radial_reduced_solve("x", 0, 0.0, 1.0, LANDAU_GRID, 2),
     "radial_reduced_solve model 'x' is not a Cylindrical model"),
    (lambda: ms.radial_reduced_solve(ms.ConstantB(1.0), 0, 0.0, 1.0, LANDAU_GRID, 2),
     r"radial_reduced_solve model ConstantB\(B=1.0\) is not a Cylindrical model"),
    (lambda: ms.radial_reduced_solve(_free_radial_model(), 0, 0.0, 1.0, "grid", 2),
     "radial_reduced_solve grid 'grid' is not a Grid1D"),
    (lambda: ms.radial_reduced_solve(_free_radial_model(), 0, 0.0, 1.0, (0, 1, 100), 2),
     r"radial_reduced_solve grid \(0, 1, 100\) is not a Grid1D"),
    (lambda: ms.landau_reduced_solve(1.0, 0.0, 0.0, 1.0, "grid", 2),
     "landau_reduced_solve grid 'grid' is not a Grid1D"),
    (lambda: ms.landau_reduced_solve(1.0, 0.0, 0.0, 1.0, (0, 1, 100), 2),
     r"landau_reduced_solve grid \(0, 1, 100\) is not a Grid1D"),
])
def test_quantum_entry_points_refuse_bad_arguments_by_name(call, message):
    with pytest.raises(ms.ParameterError, match=f"^{message}$"):
        call()


def test_grid_bounds_are_stored_as_floats():
    grid = ms.Grid1D(0, 2, 17)
    assert type(grid.lo) is float and type(grid.hi) is float and grid.spacing == 0.125


def test_mathieu_validation():
    with pytest.raises(ValueError):
        ms.mathieu_characteristic(1, "mixed", 1.0)
    with pytest.raises(ValueError):
        ms.mathieu_characteristic(0, "odd", 1.0)
    with pytest.raises(ValueError):
        ms.mathieu_characteristic(-1, "even", 1.0)
    with pytest.raises(ValueError):
        ms.mathieu_characteristic(1, "even", 2e4)
    with pytest.raises(ms.ParameterError, match="finite"):
        ms.mathieu_characteristic(1, "even", math.nan)
    with pytest.raises(ValueError):
        ms.mathieu_table(0, 1.0)
    for r_max, problem in ((2.5, "is not an integer"), (True, "is not an integer"),
                           ("3", "is not an integer"), (0, "is below 1")):
        with pytest.raises(ms.ParameterError, match=f"^r_max {r_max!r} {problem}$"):
            ms.mathieu_table(r_max, 1.0)
    table = ms.mathieu_table(3, -4.0)
    assert table.even.shape == (4,) and table.odd.shape == (3,)


@pytest.mark.parametrize("q", [0.0, 5e-324, 0.3, -3.7, 12.5, 1e4, -1e4])
def test_mathieu_values_are_eigh_tridiagonal_bit_for_bit(q):
    # at q = 0 every off-diagonal is zero and each row is a block of its own
    from scipy.linalg import eigh_tridiagonal

    for r in range(12):
        for parity in ("even", "odd") if r else ("even",):
            n_dim = 50 + 2 * math.ceil(math.sqrt(abs(q))) + r
            diag, off, idx = quantum._mathieu_matrix(r, parity, q, n_dim)
            want = eigh_tridiagonal(diag, off, select="i", select_range=(idx, idx),
                                    eigvals_only=True)
            assert ms.mathieu_characteristic(r, parity, q) == float(want[0])


def test_mathieu_order_cap_is_refused_before_the_first_solve(monkeypatch):
    def no_solve(*args):
        raise AssertionError("solved for a refused table")

    monkeypatch.setattr(quantum, "mathieu_characteristic", no_solve)
    with pytest.raises(ms.ConfigError, match="exceeds the maximum of 1000"):
        ms.mathieu_table(quantum.MATHIEU_R_MAX + 1, 1.0)


def test_helical_reduced_fundamental_solutions():
    res = ms.helical_reduced_solve(A_amp=1.0, beta=1.0, K=1.0, phi_K=0.0,
                                   hbar=1.0, E=1.0)
    assert res.a == pytest.approx(0.0, abs=1e-14)
    assert res.q == pytest.approx(-4.0, abs=1e-14)
    assert res.period == pytest.approx(2 * math.pi)
    assert res.wronskian_drift < 1e-8
    assert abs(np.linalg.det(res.monodromy) - 1.0) < 1e-9
    # initial conditions chi1(0)=1, chi1'(0)=0, chi2(0)=0, chi2'(0)=1
    assert res.chi1[0] == 1.0 and res.dchi1[0] == 0.0
    assert res.chi2[0] == 0.0 and res.dchi2[0] == 1.0


def _band_edge_energy(a_value, beta=1.0, A_amp=1.0, K=1.0, hbar=1.0):
    # invert a = -4 beta^2 (A^2 + K^2 - 2E)/hbar^2
    return 0.5 * (A_amp**2 + K**2 + a_value * hbar**2 / (4.0 * beta**2))


def test_band_edges_give_periodic_monodromy():
    # at a = a_r(q) the monodromy trace is +2 for even r, -2 for odd r
    q = -4.0
    for r, parity, want in ((0, "even", 2.0), (1, "odd", -2.0), (1, "even", -2.0)):
        a = ms.mathieu_characteristic(r, parity, q)
        res = ms.helical_reduced_solve(A_amp=1.0, beta=1.0, K=1.0, phi_K=0.0,
                                       hbar=1.0, E=_band_edge_energy(a))
        assert res.q == pytest.approx(q, abs=1e-13)
        assert res.a == pytest.approx(a, rel=1e-12)
        trace = float(np.trace(res.monodromy))
        assert trace == pytest.approx(want, abs=1e-5), (r, parity)


def test_generic_energy_is_not_band_edge():
    res = ms.helical_reduced_solve(A_amp=1.0, beta=1.0, K=1.0, phi_K=0.0,
                                   hbar=1.0, E=1.0)
    assert abs(abs(np.trace(res.monodromy)) - 2.0) > 1.0


@pytest.mark.parametrize("beta, E", [(1.0, 2.0), (-1.5, 3.3), (0.7, 0.8), (1.2, 0.2)])
def test_helical_monodromy_at_zero_k_is_constant_coefficient(beta, E):
    # K = 0 leaves chi'' = w chi with constant w = (A^2 - 2E)/hbar^2, whose
    # fundamental matrix over T = 2 pi |beta| is known in closed form
    A_amp, hbar = 1.0, 1.0
    res = ms.helical_reduced_solve(A_amp=A_amp, beta=beta, K=0.0, phi_K=0.4,
                                   hbar=hbar, E=E)
    w = (A_amp**2 - 2.0 * E) / hbar**2
    T = 2.0 * math.pi * abs(beta)
    assert res.period == T
    if w < 0:
        om = math.sqrt(-w)
        c, s = math.cos(om * T), math.sin(om * T)
        want = np.array([[c, s / om], [-om * s, c]])
        assert float(np.trace(res.monodromy)) == pytest.approx(2.0 * math.cos(om * T),
                                                               abs=1e-9)
    else:
        om = math.sqrt(w)
        c, s = math.cosh(om * T), math.sinh(om * T)
        want = np.array([[c, s / om], [om * s, c]])
        assert float(np.trace(res.monodromy)) == pytest.approx(2.0 * math.cosh(om * T),
                                                               rel=1e-9)
    assert np.allclose(res.monodromy, want, rtol=1e-9, atol=1e-9)
    assert abs(np.linalg.det(res.monodromy) - 1.0) < 1e-10


@pytest.mark.parametrize("beta, E", [(1.0, 2.0), (-1.5, 3.3), (0.7, 0.8), (1.2, 0.2),
                                     (10.0, 0.1), (-10.0, 5.0)])
@pytest.mark.parametrize("hbar", [1.0, 0.6])
def test_magnus_step_is_exact_at_zero_k(beta, E, hbar):
    # with K = 0 the coefficient w is constant, every Magnus step is the exact
    # exponential, and only round-off separates the monodromy from its closed form
    res = ms.helical_reduced_solve(A_amp=1.0, beta=beta, K=0.0, phi_K=0.4, hbar=hbar, E=E)
    w = (1.0 - 2.0 * E) / hbar**2
    T = 2.0 * math.pi * abs(beta)
    om = math.sqrt(abs(w))
    if w < 0:
        c, s = math.cos(om * T), math.sin(om * T)
        want = np.array([[c, s / om], [-om * s, c]])
    else:
        c, s = math.cosh(om * T), math.sinh(om * T)
        want = np.array([[c, s / om], [om * s, c]])
    assert np.allclose(res.monodromy, want, rtol=1e-12, atol=1e-12)


def test_magnus_step_at_zero_coefficient_is_a_shear():
    # K = 0 and E = A^2/2 leave chi'' = 0: mu = 0 in every step, chi1 = 1, chi2 = z
    res = ms.helical_reduced_solve(A_amp=1.0, beta=-1.3, K=0.0, phi_K=0.2, hbar=0.7, E=0.5)
    assert np.array_equal(res.chi1, np.ones(801)) and np.array_equal(res.dchi2, np.ones(801))
    assert np.allclose(res.chi2, res.z, rtol=1e-14, atol=0.0)
    assert np.array_equal(res.dchi1, np.zeros(801))


def _dop853_reference(A_amp, beta, K, phi_K, hbar, E, n_samples=801):
    # the fundamental pair by scipy's DOP853 at a tolerance near round-off
    from scipy.integrate import solve_ivp

    def rhs(z, y):
        w = (-2.0 * A_amp * K * math.cos(z / beta - phi_K) + A_amp**2 + K**2
             - 2.0 * E) / hbar**2
        return [y[1], w * y[0], y[3], w * y[2]]

    period = 2.0 * math.pi * abs(beta)
    sol = solve_ivp(rhs, (0.0, period), [1.0, 0.0, 0.0, 1.0], method="DOP853",
                    rtol=2.3e-14, atol=1e-14, t_eval=np.linspace(0.0, period, n_samples))
    assert sol.success
    return sol.y


# (A_amp, beta, K, phi_K, hbar, E): above the barrier (A + K)^2/2, beta < 0,
# hbar != 1, |beta| = 10 of either sign, and below the barrier where the
# fundamental pair grows
HELICAL_CASES = {
    "above-barrier": (1.0, 1.0, 1.5, 0.3, 1.0, 5.0),
    "negative-beta": (1.0, -1.5, 1.0, 0.7, 1.0, 3.0),
    "hbar-0.6": (1.0, 1.0, 1.0, 0.2, 0.6, 2.5),
    "beta-10": (1.0, 10.0, 0.8, 1.1, 1.0, 2.0),
    "beta-minus-10": (1.0, -10.0, 0.8, 1.1, 1.0, 2.0),
    "below-barrier": (1.0, 1.0, 1.0, 0.0, 1.0, 1.0),
    "below-barrier-growing": (2.0, -1.5, 0.7, 1.0, 1.0, 0.2),
}


@pytest.mark.parametrize("params", HELICAL_CASES.values(), ids=HELICAL_CASES.keys())
def test_magnus_matches_a_tight_dop853_reference(params):
    res = ms.helical_reduced_solve(*params)
    ref = _dop853_reference(*params)
    assert res.z.tolist() == np.linspace(0.0, res.period, 801).tolist()
    for got, want in zip((res.chi1, res.dchi1, res.chi2, res.dchi2), ref):
        assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("params", HELICAL_CASES.values(), ids=HELICAL_CASES.keys())
def test_magnus_keeps_the_unit_wronskian(params):
    # each step has determinant 1; evaluating chi1 dchi2 - dchi1 chi2 rounds
    # at |Phi|^2 eps, so the bound scales with the size of the entries
    res = ms.helical_reduced_solve(*params)
    size = np.max(np.abs([res.chi1, res.dchi1, res.chi2, res.dchi2]), axis=0)
    drift = np.abs(res.chi1 * res.dchi2 - res.dchi1 * res.chi2 - 1.0)
    held = size <= 1e3
    assert held.sum() > 100
    assert np.all(drift[held] <= 1e-13 * np.maximum(1.0, size[held]) ** 2)
    if np.max(size) <= 10.0:
        assert res.wronskian_drift <= 1e-13


def test_magnus_solve_is_deterministic():
    params = HELICAL_CASES["beta-minus-10"]
    one, two = ms.helical_reduced_solve(*params), ms.helical_reduced_solve(*params)
    for name in ("z", "chi1", "dchi1", "chi2", "dchi2", "monodromy"):
        assert np.array_equal(getattr(one, name), getattr(two, name)), name
    assert one.wronskian_drift == two.wronskian_drift


def test_magnus_gives_up_past_the_substep_cap(monkeypatch):
    # a cap of 2 substeps leaves no room to double, so the solve cannot converge
    monkeypatch.setattr(quantum, "MAGNUS_MAX_SUBSTEPS", 2)
    with pytest.raises(ms.StepFailure, match="^fundamental-solution integration failed: "
                                             "no convergence with 2 substeps"):
        ms.helical_reduced_solve(*HELICAL_CASES["above-barrier"])


def test_wronskian_overflow_raises_step_failure():
    # below the barrier at small hbar the pair grows past 1e154: the matrix is
    # finite, but chi1 dchi2 - dchi1 chi2 is not
    with pytest.raises(ms.StepFailure, match="^fundamental-solution integration failed: "
                                             "the Wronskian of the fundamental matrix"):
        ms.helical_reduced_solve(1.0, 1.0, 1.0, 0.0, hbar=0.008, E=1.0)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


#: bytes per interior point that LAPACK needs in the Landau solve. dstebz:
#: d and e (16), the wrapper's hidden work and iwork (32 + 12), and its
#: outputs w, iblock and isplit (8 + 4 + 4). dstein with one vector: d and e
#: (16), iblock and isplit (8), work and iwork (40 + 4), and z (8).
LAPACK_BYTES_PER_POINT = 76


def test_landau_solve_holds_only_what_lapack_needs():
    # nothing beside d, e and LAPACK's arrays: not the grid, not the
    # potential beside the diagonal, not dstebz's full-length w
    n = 100000
    grid = ms.Grid1D(-12.0, 12.0, n)
    ms.landau_reduced_solve(1.0, 0.0, 0.0, 1.0, ms.Grid1D(-12.0, 12.0, 1000), 4)  # imports
    peak = _traced_peak(lambda: ms.landau_reduced_solve(1.0, 0.0, 0.0, 1.0, grid, 4))
    assert peak <= 1.02 * LAPACK_BYTES_PER_POINT * (n - 2)


def test_magnus_memory_stays_flat_in_the_substeps():
    # beta = 1e3 doubles m to 1024 and beta = 100 stops at m = 128; the steps
    # go in blocks of MAGNUS_BLOCK_STEPS, so both peaks are about one block
    large = _traced_peak(lambda: ms.helical_reduced_solve(1.0, 1e3, 1.0, 0.0, 1.0, 3.0))
    small = _traced_peak(lambda: ms.helical_reduced_solve(1.0, 100.0, 1.0, 0.0, 1.0, 3.0))
    assert large <= 1.25 * small


def test_magnus_blocks_leave_the_bits(monkeypatch):
    params = (1.0, 10.0, 1.0, 0.0, 1.0, 3.0)
    whole = ms.helical_reduced_solve(*params)
    # 100 steps a block: at m = 64 one interval a block, at m = 2 fifty
    monkeypatch.setattr(quantum, "MAGNUS_BLOCK_STEPS", 100)
    blocked = ms.helical_reduced_solve(*params)
    for name in ("chi1", "dchi1", "chi2", "dchi2", "monodromy"):
        assert np.array_equal(getattr(whole, name), getattr(blocked, name)), name
    assert whole.wronskian_drift == blocked.wronskian_drift


def test_helical_solver_validation():
    with pytest.raises(ms.ParameterError):
        ms.helical_reduced_solve(1.0, 1.0, K=-0.5, phi_K=0.0, hbar=1.0, E=1.0)
    with pytest.raises(ValueError):
        ms.helical_reduced_solve(1.0, 1.0, K=-0.5, phi_K=0.0, hbar=1.0, E=1.0)
    with pytest.raises(ValueError):
        ms.helical_reduced_solve(1.0, 0.0, K=1.0, phi_K=0.0, hbar=1.0, E=1.0)
    with pytest.raises(ValueError):
        ms.helical_reduced_solve(1.0, 1.0, K=1.0, phi_K=0.0, hbar=0.0, E=1.0)
    # a NaN coefficient used to keep the step loop rejecting steps forever
    with pytest.raises(ValueError, match="finite"):
        ms.helical_reduced_solve(1.0, 1.0, K=1.0, phi_K=0.0, hbar=1.0, E=math.nan)
    with pytest.raises(ValueError, match="finite"):
        ms.helical_reduced_solve(1.0, math.nan, K=1.0, phi_K=0.0, hbar=1.0, E=2.0)


def test_radial_oscillator_levels():
    model = _free_radial_model(v=lambda r: 0.5 * r**2, dv=lambda r: r)
    grid = ms.Grid1D(1e-3, 12.0, 3000)
    res = ms.radial_reduced_solve(model, m_quantum=1, k=0.0, hbar=1.0,
                                  grid=grid, n_levels=3)
    want = np.array([2.0, 4.0, 6.0])
    assert np.max(np.abs(res.eigenvalues - want) / want) < 1e-4


def test_radial_convergence_is_second_order():
    model = _free_radial_model(v=lambda r: 0.5 * r**2, dv=lambda r: r)
    errs = []
    for n in (2000, 4000, 8000):
        res = ms.radial_reduced_solve(model, m_quantum=1, k=0.0, hbar=1.0,
                                      grid=ms.Grid1D(1e-5, 12.0, n), n_levels=1)
        errs.append(abs(res.eigenvalues[0] - 2.0))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 2e-6
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.25)


def test_radial_constant_f1_shifts_all_levels():
    base = _free_radial_model(v=lambda r: 0.5 * r**2, dv=lambda r: r)
    lifted = _free_radial_model(v=lambda r: 0.5 * r**2, dv=lambda r: r,
                                f1=lambda r: 0.8, df1=lambda r: 0.0)
    grid = ms.Grid1D(1e-3, 12.0, 2000)
    e0 = ms.radial_reduced_solve(base, 1, 0.0, 1.0, grid, 3).eigenvalues
    e1 = ms.radial_reduced_solve(lifted, 1, 0.0, 1.0, grid, 3).eigenvalues
    assert np.max(np.abs((e1 - e0) - 0.5 * 0.8**2)) < 1e-10


def test_radial_no_bound_states():
    model = _free_radial_model()
    with pytest.raises(ms.NoBoundStates):
        ms.radial_reduced_solve(model, m_quantum=1, k=0.0, hbar=1.0,
                                grid=ms.Grid1D(0.1, 10.0, 1000), n_levels=1)


def test_radial_validation():
    model = _free_radial_model(v=lambda r: 0.5 * r**2, dv=lambda r: r)
    with pytest.raises(ValueError):
        ms.radial_reduced_solve(model, 1, 0.0, 1.0, ms.Grid1D(0.0, 10.0, 100), 1)
    with pytest.raises(ValueError):
        ms.radial_reduced_solve(model, 1, 0.0, -1.0, ms.Grid1D(0.1, 10.0, 100), 1)
