"""Separated quantum problems: Landau levels, Mathieu bands, radial states."""

import math

import numpy as np
import pytest
import scipy.special as sps

import magsuper as ms

from helpers import mathieu_shooting


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
    assert ms.hermite_check(res, B=1.0, k2=0.0, hbar=1.0, n=0) < 1e-5
    assert ms.hermite_check(res, B=1.0, k2=0.0, hbar=1.0, n=3) < 1e-4
    with pytest.raises(ValueError):
        ms.hermite_check(res, B=1.0, k2=0.0, hbar=1.0, n=6)


def test_landau_scaling_with_field():
    res = ms.landau_reduced_solve(B=2.5, k1=0.0, k2=0.0, hbar=1.0,
                                  grid=ms.Grid1D(-8.0, 8.0, 2000), n_levels=4)
    want = 2.5 * (np.arange(4) + 0.5)
    assert np.max(np.abs(res.eigenvalues - want) / want) < 1e-4


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


def test_landau_grid_guards():
    with pytest.raises(ms.GridTooSmall):
        ms.landau_reduced_solve(B=1.0, k1=0.0, k2=0.0, hbar=1.0,
                                grid=ms.Grid1D(-2.0, 2.0, 200), n_levels=2)
    with pytest.raises(ms.GridTooSmall):
        # center k2/B = 4 sits too close to the right wall
        ms.landau_reduced_solve(B=1.0, k1=0.0, k2=4.0, hbar=1.0,
                                grid=ms.Grid1D(-9.0, 9.0, 1000), n_levels=2)
    with pytest.raises(ValueError):
        ms.landau_reduced_solve(B=-1.0, k1=0.0, k2=0.0, hbar=1.0,
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


def test_mathieu_validation():
    with pytest.raises(ValueError):
        ms.mathieu_characteristic(1, "mixed", 1.0)
    with pytest.raises(ValueError):
        ms.mathieu_characteristic(0, "odd", 1.0)
    with pytest.raises(ValueError):
        ms.mathieu_characteristic(-1, "even", 1.0)
    with pytest.raises(ValueError):
        ms.mathieu_characteristic(1, "even", 2e4)
    with pytest.raises(ValueError):
        ms.mathieu_table(0, 1.0)
    table = ms.mathieu_table(3, -4.0)
    assert table.even.shape == (4,) and table.odd.shape == (3,)


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


def test_helical_solver_validation():
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
