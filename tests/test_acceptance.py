"""Release acceptance gate: one test per criterion, at its stated tolerance.

Run `pytest tests/test_acceptance.py -v` to get a pass/fail line per
criterion. Tolerances here are contractual; do not loosen them to make
a failing build green.
"""

import math
import time

import numpy as np
import pytest

import magsuper as ms

from helpers import mathieu_shooting, monopole_positions, monopole_states, rng, stack_states


def _helical():
    return ms.HelicalB(A_amp=1.0, beta=1.0)


def test_criterion_01_landau_levels():
    t0 = time.perf_counter()
    res = ms.landau_reduced_solve(1.0, 0.0, 0.0, 1.0,
                                  ms.Grid1D(-12.0, 12.0, 2000), 6)
    elapsed = time.perf_counter() - t0
    for n, e in enumerate(res.eigenvalues):
        assert abs(e - (n + 0.5)) / (n + 0.5) < 1e-4, n
    assert elapsed < 5.0


def test_criterion_02_helix_oracle():
    B = 1.0
    s0 = ms.PhaseState([0.1, -0.2, 0.3], [0.7, 0.4, -0.5])
    t0 = time.perf_counter()
    traj = ms.integrate(ms.ConstantB(B=B), s0, 50.0,
                        ms.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-10))
    worst = 0.0
    for i, t in enumerate(traj.times):
        ref = ms.helix_solution(B, s0, float(t))
        worst = max(worst,
                    float(np.max(np.abs(traj.x[i] - ref.x))),
                    float(np.max(np.abs(traj.p[i] - ref.p))))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-6
    assert elapsed < 1.0


def test_criterion_03_constant_field_drift():
    B = 1.0
    model = ms.ConstantB(B=B)
    watch = list(ms.known_integrals(model))
    watch.append(ms.PhaseFunction("X5", lambda s: ms.x5_integral(B, s)))
    s0 = ms.PhaseState([0.1, 0.2, -0.3], [1.2, 0.4, 0.7])  # p1 != 0
    traj = ms.integrate(model, s0, 50.0, watch=watch)
    for name in ("X1", "X2", "X3", "X4", "X5"):
        assert traj.drift(name) < 1e-7, name


def test_criterion_04_poisson_table_and_casimirs():
    states = ms.sample_states(rng(4), 100, p1_min=0.1)
    rep = ms.verify_bracket_table(1.0, states)
    assert len(rep["pairs"]) == 21
    assert rep["max_discrepancy"] < 1e-6
    cas = ms.casimir_check(1.0, states)
    assert cas["max_residual"] < 1e-10


def test_criterion_05_helical_pendulum():
    model = _helical()
    lib = ms.pendulum_reduction(model, ms.PhaseState([0, 0, 0], [3.0, 0.0, 3.2]))
    assert lib.kappa == 3.2**2 / 6.0 - 1.0  # 0.70666...
    crit = ms.pendulum_reduction(
        model, ms.PhaseState([0, 0, 0], [3.0, 0.0, 2.0 * math.sqrt(3.0)]))
    assert abs(crit.kappa - 1.0) < 1e-12
    assert crit.regime == "separatrix"

    # cubic ODE identity for zeta = cos(theta), both regimes
    gen = rng(5)
    h = 1e-5
    for _ in range(1000):
        if gen.uniform() < 0.5:
            kappa = float(gen.uniform(-0.95, 0.95))
        else:
            kappa = float(gen.uniform(1.05, 5.0))
        red = ms.PendulumReduction(p=1.0, phi_p=0.0, kappa=kappa,
                                   tau0=0.0, z0=0.0, zdot0=1.0)
        tau = float(gen.uniform(-20, 20))
        z = ms.zeta_solution(red, tau)
        dz = (ms.zeta_solution(red, tau + h)
              - ms.zeta_solution(red, tau - h)) / (2 * h)
        assert abs(dz**2 + (z - 1.0) * (z + 1.0) * (z + kappa)) < 1e-8

    # closed-form z(t) against tight numeric integration
    tight = ms.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12)
    ts = np.linspace(0.0, 20.0, 200)
    for p3 in (3.2, 3.8):
        s0 = ms.PhaseState([0, 0, 0], [3.0, 0.0, p3])
        red = ms.pendulum_reduction(model, s0)
        traj = ms.integrate(model, s0, 20.0, tight)
        zc = ms.helical_z_of_t(model, red, ts)
        zn = np.array([traj.sample(float(t)).x[2] for t in ts])
        assert np.max(np.abs(zc - zn)) < 1e-6, p3


def test_criterion_06_mathieu_characteristic_values():
    for q in (0.5, 1.0, 5.0, 10.0):
        for parity, r_lo in (("even", 0), ("odd", 1)):
            for r in range(r_lo, 5):
                a_mat = ms.mathieu_characteristic(r, parity, q)
                a_ode = mathieu_shooting(r, parity, q, a_mat)
                assert abs(a_mat - a_ode) < 1e-8, (q, parity, r)
    table = ms.mathieu_table(4, 0.0)
    assert np.max(np.abs(np.asarray(table.even) - np.array([0, 1, 4, 9, 16]))) < 1e-11
    assert np.max(np.abs(np.asarray(table.odd) - np.array([1, 4, 9, 16]))) < 1e-11


def test_criterion_07_monopole_closure_and_runge_lenz():
    g, Q = 2.0, 1.0
    rep = ms.monopole_closure_check(g, stack_states(monopole_states(rng(7), 100)), Q=Q)
    assert rep["max_discrepancy"] < 1e-6
    assert "{X1,X2}-X3" in rep["checks"] and "{X_sq,X1}" in rep["checks"]

    s0 = ms.PhaseState([1.2, 0.0, 0.4], [0.1, 0.9, 0.3])
    watch = ms.monopole_runge_lenz_specs(g, Q)
    kept = ms.integrate(ms.Monopole(g=g, Q=Q), s0, 20.0, watch=watch)
    assert max(kept.drift(f"R{j}") for j in (1, 2, 3)) < 1e-6
    lost = ms.integrate(ms.Monopole(g=g, Q=Q, barrier=False), s0, 20.0,
                        watch=watch)
    assert max(lost.drift(f"R{j}") for j in (1, 2, 3)) > 1e-3


def test_criterion_08_determining_equation_residuals():
    cyl = ms.Cylindrical(
        f1=lambda r: r**2, df1=lambda r: 2 * r,
        f2=lambda r: r**3, df2=lambda r: 3 * r**2,
        v=lambda r: 0.5 * r**2, dv=lambda r: r,
    )
    gen = rng(8)

    def box_points(n, keep=lambda x: True):
        out = []
        while len(out) < n:
            x = gen.uniform(-2.0, 2.0, 3)
            if keep(x):
                out.append(x)
        return out

    cases = [
        (ms.ConstantB(B=1.0), box_points(100)),
        (_helical(), box_points(100)),
        (ms.Monopole(g=2.0, Q=1.0), monopole_positions(gen, 100)),
        (cyl, box_points(100, keep=lambda x: np.hypot(x[0], x[1]) > 0.3)),
    ]
    for model, pts in cases:
        for spec in ms.known_integrals(model):
            for x in pts:
                res = ms.determining_residuals(spec, model, x)
                worst = max(abs(v) for v in res.values())
                assert worst < 1e-6, (type(model).__name__, spec.name)

    # first-order integrals: the quantum correction must change nothing
    for model, pts in cases[:2]:
        for spec in ms.known_integrals(model):
            assert not spec.alpha
            for x in pts[:20]:
                classical = ms.determining_residuals(spec, model, x)
                quantum = ms.determining_residuals(spec, model, x,
                                                   mode="quantum")
                assert quantum == classical


def test_criterion_09_field_sanity_and_gauge():
    cyl = ms.Cylindrical(
        f1=lambda r: r**2, df1=lambda r: 2 * r,
        f2=lambda r: r**3, df2=lambda r: 3 * r**2,
        v=lambda r: 0.5 * r**2, dv=lambda r: r,
    )
    gen = rng(9)

    def box_points(n, keep=lambda x: True):
        out = []
        while len(out) < n:
            x = gen.uniform(-2.0, 2.0, 3)
            if keep(x):
                out.append(x)
        return out

    cases = [
        (ms.ConstantB(B=1.0), box_points(100)),
        (_helical(), box_points(100)),
        (ms.Monopole(g=2.0, Q=1.0), monopole_positions(gen, 100)),
        (cyl, box_points(100, keep=lambda x: np.hypot(x[0], x[1]) > 0.3)),
    ]
    for model, pts in cases:
        rep = ms.divergence_checks(model, pts)
        assert rep.max_div_b < 1e-6, type(model).__name__
        assert rep.max_curl_mismatch < 1e-6, type(model).__name__

    chi = ms.GaugeFunction(
        chi=lambda x: x[0] * x[1] + 0.5 * x[2] ** 2,
        gradient=lambda x: np.array([x[1], x[0], x[2]]),
    )
    x0 = np.array([0.2, -0.1, 0.4])
    p0 = np.array([1.0, 0.3, -0.2])
    for model in (ms.ConstantB(B=1.0), _helical()):
        shifted = ms.gauge_shift(model, chi)
        traj_a = ms.integrate(model, ms.PhaseState(x0, p0), 8.0)
        traj_b = ms.integrate(shifted,
                              ms.PhaseState(x0, p0 - chi.gradient(x0)), 8.0)
        for t in np.linspace(0.5, 8.0, 12):
            assert np.max(np.abs(traj_a.sample(t).x - traj_b.sample(t).x)) < 1e-8


def test_figures_pendulum_regime_properties():
    # below the separatrix the motion stays bounded transverse to the
    # drift direction (p1, p2, 0); at or above it z grows without bound
    model = _helical()
    lib = ms.PhaseState([0, 0, 0], [3.0, 0.0, 3.2])
    red = ms.pendulum_reduction(model, lib)
    assert -1.0 < red.kappa < 1.0
    traj = ms.integrate(model, lib, 60.0)
    z_bound = abs(model.beta) * math.acos(-red.kappa)
    assert np.max(np.abs(traj.x[:, 2] - red.phi_p)) <= z_bound + 1e-6
    assert np.ptp(traj.x[:, 1]) < 3.0  # y stays bounded too
    assert np.ptp(traj.x[:, 0]) > 100.0  # while the drift coordinate runs

    rot = ms.PhaseState([0, 0, 0], [3.0, 0.0, 3.8])
    red = ms.pendulum_reduction(model, rot)
    assert red.kappa > 1.0
    traj = ms.integrate(model, rot, 60.0)
    assert np.all(np.diff(traj.x[:, 2]) > 0)
    assert traj.x[-1, 2] - traj.x[0, 2] > 100.0
