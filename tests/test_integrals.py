"""Covariant integrals, determining equations, Poisson brackets."""

import numpy as np
import pytest

import magsuper as ms
from magsuper.integrals import RESIDUAL_KEYS

from helpers import monopole_states, random_states, rng


def _cyl_model():
    return ms.Cylindrical(
        f1=lambda r: r**2, df1=lambda r: 2 * r,
        f2=lambda r: r**3, df2=lambda r: 3 * r**2,
        v=lambda r: 0.5 * r**2, dv=lambda r: r,
    )


def _off_axis(states, rmin=0.3):
    return [s for s in states if np.hypot(s.x[0], s.x[1]) > rmin]


def _all_pairs():
    return [(a, b) for a in range(1, 7) for b in range(a, 7)]


def test_alpha_input_forms_agree():
    model = ms.Monopole(g=2.0)
    dict_form = {(2, 6): 1.0, (3, 5): -1.0}
    str_form = {"26": 1.0, "35": -1.0}
    specs = [ms.IntegralSpec("a", form) for form in (dict_form, str_form)]
    assert specs[0].alpha == specs[1].alpha
    assert ms.CoeffPolynomials(str_form).alpha == specs[0].alpha
    gen = rng(31)
    for s in monopole_states(gen, 10):
        vals = [ms.evaluate_integral(sp, model, s) for sp in specs]
        assert vals[0] == vals[1]


def test_alpha_validation():
    with pytest.raises(ValueError):
        ms.IntegralSpec("bad", {(3, 2): 1.0})  # unordered
    with pytest.raises(ValueError):
        ms.IntegralSpec("bad", {(0, 4): 1.0})
    with pytest.raises(ValueError):
        ms.IntegralSpec("bad", {(1, 7): 1.0})
    with pytest.raises(ValueError):
        ms.IntegralSpec("bad", np.ones((5, 5)))
    # a 6x6 array is not an alpha, symmetric or not
    with pytest.raises(ValueError, match="alpha must be a mapping"):
        ms.IntegralSpec("bad", np.eye(6))
    with pytest.raises(ValueError, match="alpha must be a mapping"):
        ms.CoeffPolynomials(np.eye(6))
    with pytest.raises(ValueError):
        ms.CoeffPolynomials({(3, 2): 1.0})
    assert ms.IntegralSpec("ok", None).alpha == {}
    assert ms.IntegralSpec("ok", {(1, 1): 2.0}).alpha == {(1, 1): 2.0}


def test_quadratic_expansion_identity():
    # sum alpha_ab Y_a Y_b == sum_j h_j (pA_j)^2 + n1 pA2 pA3 + n2 pA1 pA3 + n3 pA1 pA2
    gen = rng(32)
    alpha = {pair: float(gen.standard_normal()) for pair in _all_pairs()}
    spec = ms.IntegralSpec("q", alpha)
    poly = ms.CoeffPolynomials(alpha)
    model = ms.HelicalB(A_amp=2.0, beta=1.5)
    for s in random_states(gen, 50):
        left = ms.evaluate_integral(spec, model, s)
        pa = ms.covariant_momentum(model, s)
        h = poly.h(s.x)
        n = poly.n(s.x)
        right = (h @ pa**2 + n[0] * pa[1] * pa[2]
                 + n[1] * pa[0] * pa[2] + n[2] * pa[0] * pa[1])
        assert abs(left - right) < 1e-10 * max(1.0, abs(left))


def test_coefficient_polynomial_jacobians():
    gen = rng(33)
    alpha = {pair: float(gen.standard_normal()) for pair in _all_pairs()}
    poly = ms.CoeffPolynomials(alpha)
    h = 1e-6
    for _ in range(20):
        x = gen.uniform(-3, 3, 3)
        jn = poly.jac_n(x)
        for col in range(3):
            e = np.zeros(3)
            e[col] = h
            assert np.allclose((poly.n(x + e) - poly.n(x - e)) / (2 * h),
                               jn[:, col], atol=1e-7)
            # h_j does not depend on x_j at all
            assert poly.h(x + e)[col] == poly.h(x)[col]
        # structural identity: div n = 0
        assert abs(np.trace(jn)) < 1e-13


def test_known_integrals_satisfy_determining_equations():
    gen = rng(34)
    cases = [
        (ms.ConstantB(B=2.0), random_states(gen, 50)),
        (ms.HelicalB(A_amp=3.0, beta=3.0), random_states(gen, 50)),
        (ms.Monopole(g=2.0, Q=1.0), monopole_states(gen, 50)),
        (_cyl_model(), _off_axis(random_states(gen, 80))),
    ]
    for model, states in cases:
        for spec in ms.known_integrals(model):
            worst = 0.0
            for s in states:
                res = ms.determining_residuals(spec, model, s.x)
                assert set(res) == set(RESIDUAL_KEYS)
                worst = max(worst, max(abs(v) for v in res.values()))
            assert worst < 1e-9, (type(model).__name__, spec.name, worst)


def test_residuals_detect_wrong_m():
    B = 2.0
    model = ms.ConstantB(B=B)
    broken = ms.IntegralSpec("X2_wrong", {}, s=lambda x: np.array([0.0, 1.0, 0.0]),
                             m=lambda x: 0.0)
    res = ms.determining_residuals(broken, model, [0.3, -0.2, 0.7])
    assert res["dm_dz"] == pytest.approx(-B)
    others = {k: v for k, v in res.items() if k != "dm_dz"}
    assert max(abs(v) for v in others.values()) < 1e-12


def test_quantum_mode_matches_classical_for_first_order():
    model = ms.HelicalB(A_amp=1.0, beta=2.0)
    x = np.array([0.4, -0.6, 1.1])
    for spec in ms.known_integrals(model):
        assert not spec.alpha
        rc = ms.determining_residuals(spec, model, x, mode="classical")
        rq = ms.determining_residuals(spec, model, x, mode="quantum", hbar=3.0)
        assert rc == rq


def test_quantum_correction_vanishes_for_constant_field():
    # second order in momenta, but jacobian of B is identically zero
    B = 1.5
    model = ms.ConstantB(B=B)
    sq = ms.IntegralSpec(
        "X2_sq", {(2, 2): 1.0},
        s=lambda x: np.array([0.0, 2 * B * x[2], 0.0]),
        m=lambda x: (B * x[2]) ** 2,
    )
    gen = rng(35)
    for _ in range(10):
        x = gen.uniform(-2, 2, 3)
        rc = ms.determining_residuals(sq, model, x, mode="classical")
        rq = ms.determining_residuals(sq, model, x, mode="quantum")
        assert max(abs(v) for v in rc.values()) < 1e-9
        assert rc == rq


def test_quantum_correction_vanishes_for_monopole_integrals():
    model = ms.Monopole(g=2.0, Q=1.0)
    gen = rng(36)
    states = monopole_states(gen, 25)
    second_order = [sp for sp in ms.known_integrals(model) if sp.alpha]
    assert {sp.name for sp in second_order} == {"X_sq", "R1", "R2", "R3"}
    for spec in second_order:
        for s in states:
            rc = ms.determining_residuals(spec, model, s.x, mode="classical")
            rq = ms.determining_residuals(spec, model, s.x, mode="quantum")
            assert abs(rq["zero_order"] - rc["zero_order"]) < 1e-8


def test_quantum_correction_scales_as_hbar_squared():
    model = ms.HelicalB(A_amp=2.0, beta=1.0)
    spec = ms.IntegralSpec("l1_sq", {(4, 4): 1.0}, m=lambda x: 0.0)
    x = np.array([0.7, 0.9, 0.3])
    rc = ms.determining_residuals(spec, model, x, mode="classical")
    r1 = ms.determining_residuals(spec, model, x, mode="quantum", hbar=1.0)
    r2 = ms.determining_residuals(spec, model, x, mode="quantum", hbar=2.0)
    c1 = r1["zero_order"] - rc["zero_order"]
    c2 = r2["zero_order"] - rc["zero_order"]
    assert abs(c1) > 1e-3
    assert c2 == pytest.approx(4.0 * c1, rel=1e-9)
    for k in RESIDUAL_KEYS:
        if k != "zero_order":
            assert r1[k] == rc[k]


def test_determining_residuals_validation():
    model = ms.ConstantB(B=1.0)
    spec = ms.known_integrals(model)[0]
    with pytest.raises(ValueError):
        ms.determining_residuals(spec, model, [0, 0, 0], mode="semiclassical")
    with pytest.raises(ms.DomainError):
        ms.determining_residuals(spec, ms.Monopole(g=1.0), [0, 0, -1.0])


def test_canonical_poisson_brackets():
    gen = rng(37)
    for s in random_states(gen, 5):
        for i in range(3):
            for j in range(3):
                br = ms.poisson_bracket(lambda q, i=i: q.x[i],
                                        lambda q, j=j: q.p[j], s)
                assert br == pytest.approx(1.0 if i == j else 0.0, abs=1e-9)
        f = ms.PhaseFunction("f", lambda q: q.x[0] * q.p[1] ** 2)
        g = ms.PhaseFunction("g", lambda q: np.sin(q.x[1]) + q.p[0])
        assert ms.poisson_bracket(f, g, s) == pytest.approx(
            -ms.poisson_bracket(g, f, s), abs=1e-9)


def test_hamiltonian_function_gradient():
    gen = rng(38)
    for model, states in ((ms.HelicalB(A_amp=2.0, beta=1.0), random_states(gen, 10)),
                          (ms.Monopole(g=2.0, Q=1.0), monopole_states(gen, 10))):
        hf = ms.hamiltonian_function(model)
        for s in states:
            gx, gp = hf.grad(s)
            fx, fp = ms.phase_gradient(ms.PhaseFunction("h", hf.fn), s)
            assert np.allclose(gx, fx, atol=2e-6)
            assert np.allclose(gp, fp, atol=2e-6)
            assert hf(s) == ms.hamiltonian(model, s)


def test_brackets_with_hamiltonian_vanish():
    gen = rng(39)
    cases = [
        (ms.ConstantB(B=2.0), random_states(gen, 30)),
        (ms.HelicalB(A_amp=3.0, beta=3.0), random_states(gen, 30)),
        (ms.Monopole(g=2.0, Q=1.0), monopole_states(gen, 30)),
    ]
    for model, states in cases:
        hf = ms.hamiltonian_function(model)
        for spec in ms.known_integrals(model):
            f = ms.as_phase_function(spec, model)
            worst = max(abs(ms.poisson_bracket(f, hf, s)) for s in states)
            assert worst < 1e-6, (type(model).__name__, spec.name, worst)


def test_known_integrals_dispatch():
    assert [sp.name for sp in ms.known_integrals(ms.ConstantB(B=1.0))] == \
        ["X1", "X2", "X3", "X4"]
    assert [sp.name for sp in ms.known_integrals(ms.HelicalB(A_amp=1, beta=1))] == \
        ["X1", "X2", "X3"]
    full = ms.known_integrals(ms.Monopole(g=2.0, Q=1.0))
    assert [sp.name for sp in full] == ["X1", "X2", "X3", "X_sq", "R1", "R2", "R3"]
    bare = ms.known_integrals(ms.Monopole(g=2.0, Q=1.0, barrier=False))
    assert [sp.name for sp in bare] == ["X1", "X2", "X3", "X_sq"]
    assert [sp.name for sp in ms.known_integrals(_cyl_model())] == ["l3", "p3"]
    with pytest.raises(ms.UnsupportedModel):
        ms.known_integrals(ms.Custom(a=lambda x: np.zeros(3), v=lambda x: 0.0))


def test_x4_reference_value():
    model = ms.ConstantB(B=2.0)
    spec = next(sp for sp in ms.known_integrals(model) if sp.name == "X4")
    s = ms.PhaseState([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
    assert ms.evaluate_integral(spec, model, s) == pytest.approx(3.0, abs=1e-14)


def test_as_phase_function_paths():
    model = ms.ConstantB(B=1.0)
    spec = ms.known_integrals(model)[0]
    pf = ms.as_phase_function(spec, model)
    assert pf.name == "X1"
    s = ms.PhaseState([0, 0, 0], [2.0, 0, 0])
    assert pf(s) == ms.evaluate_integral(spec, model, s)
    with pytest.raises(ValueError):
        ms.as_phase_function(spec)  # spec without model
    with pytest.raises(TypeError):
        ms.as_phase_function(42)
    named = ms.as_phase_function(lambda q: q.x[0], name="x0")
    assert named.name == "x0"


def _fd_gradient(spec, model, s):
    bare = ms.PhaseFunction("fd", lambda q: ms.evaluate_integral(spec, model, q))
    return ms.phase_gradient(bare, s)


def test_integral_gradients_match_finite_differences():
    gen = rng(40)
    helical = ms.HelicalB(A_amp=1.5, beta=2.0, phi0=0.7)
    chi = ms.GaugeFunction(
        chi=lambda x: np.sin(x[0]) * np.cos(x[1]) * x[2],
        gradient=lambda x: np.array([
            np.cos(x[0]) * np.cos(x[1]) * x[2],
            -np.sin(x[0]) * np.sin(x[1]) * x[2],
            np.sin(x[0]) * np.cos(x[1]),
        ]),
    )
    cases = [
        (ms.ConstantB(B=2.0), ms.known_integrals(ms.ConstantB(B=2.0)),
         random_states(gen, 10)),
        (helical, ms.known_integrals(helical), random_states(gen, 10)),
        (ms.Monopole(g=2.0, Q=1.0), ms.known_integrals(ms.Monopole(g=2.0, Q=1.0)),
         monopole_states(gen, 10)),
        (_cyl_model(), ms.known_integrals(_cyl_model()),
         _off_axis(random_states(gen, 20))),
        (ms.gauge_shift(helical, chi), ms.known_integrals(helical),
         random_states(gen, 10)),
    ]
    for model, specs, states in cases:
        for spec in specs:
            f = ms.as_phase_function(spec, model)
            assert f.grad is not None
            for s in states:
                gx, gp = f.grad(s)
                fx, fp = _fd_gradient(spec, model, s)
                scale = max(1.0, float(np.max(np.abs(np.concatenate([fx, fp])))))
                assert np.allclose(gx, fx, rtol=0.0, atol=1e-7 * scale), \
                    (type(model).__name__, spec.name)
                assert np.allclose(gp, fp, rtol=0.0, atol=1e-7 * scale), \
                    (type(model).__name__, spec.name)


def test_model_function_without_grad_brackets_by_central_differences():
    # the X5 watch of `trajectory`: made on the model, no analytic grad
    from magsuper.closedform import x5_integral

    model = ms.ConstantB(B=1.5)
    x5 = ms.PhaseFunction("X5", lambda s: x5_integral(1.5, s), model=model)
    h = ms.hamiltonian_function(model)
    states = random_states(rng(41), 20, p1_min=0.5)
    for s in states:
        val = ms.poisson_bracket(x5, h, s)
        assert isinstance(val, float) and abs(val) < 1e-6
    xs = np.array([s.x for s in states])
    ps = np.array([s.p for s in states])
    table = ms.bracket_matrix([x5, h], (xs, ps))
    assert table.shape == (20, 2, 2) and np.isfinite(table).all()
    assert np.max(np.abs(table[:, 0, 1])) < 1e-6
    # one stacked difference per coordinate gives the bits of a per-state one
    per_state = ms.PhaseFunction("X5", x5.fn)
    assert np.array_equal(table, ms.bracket_matrix([per_state, h], (xs, ps)))
