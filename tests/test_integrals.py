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


@pytest.mark.parametrize("alpha, message", [
    ({26: 1.0}, "alpha key 26 is not two digits 'ab' or a pair of integers"),
    ({(1, 2, 3): 1.0}, r"alpha key \(1, 2, 3\) is not two digits"),
    ({(1.5, 2): 1.0}, r"alpha key \(1.5, 2\) is not two digits"),
    ({(True, 2): 1.0}, r"alpha key \(True, 2\) is not two digits"),
    ({"11": float("nan")}, "alpha value nan at '11' is not finite"),
    ({(1, 1): float("-inf")}, r"alpha value -inf at \(1, 1\) is not finite"),
    ({"11": 10**400}, "alpha value 1000.* at '11' is beyond the double range"),
    ({"11": "2"}, "alpha value '2' at '11' is not a number"),
], ids=["int-key", "triple", "float-index", "bool-index", "nan", "inf", "huge-int", "str-value"])
def test_alpha_keys_and_values_are_refused_by_name(alpha, message):
    for cls in (lambda a: ms.IntegralSpec("bad", a), ms.CoeffPolynomials):
        with pytest.raises(ms.ParameterError, match=f"^{message}"):
            cls(alpha)


@pytest.mark.parametrize("make, message", [
    (lambda: ms.IntegralSpec("a", {}, s=[1, 2]), r"IntegralSpec s \[1, 2\] is not callable"),
    (lambda: ms.IntegralSpec("a", {}, s="abc"), "IntegralSpec s 'abc' is not callable"),
    (lambda: ms.IntegralSpec("a", {}, m=5), "IntegralSpec m 5 is not callable"),
    (lambda: ms.IntegralSpec("a", {}, grad_m=0.0), "IntegralSpec grad_m 0.0 is not callable"),
    (lambda: ms.PhaseFunction("f", 3), "PhaseFunction fn 3 is not callable"),
    (lambda: ms.PhaseFunction("f", abs, grad=1), "PhaseFunction grad 1 is not callable"),
], ids=["s-list", "s-str", "m-int", "grad_m-float", "fn", "grad"])
def test_functions_that_are_not_callable_are_refused_by_name(make, message):
    with pytest.raises(ms.ParameterError, match=f"^{message}$"):
        make()


@pytest.mark.parametrize("functions, message", [
    (dict(s=lambda x: x, jac_s=lambda x: np.eye(2)),
     r"IntegralSpec 'u' jac_s value has shape \(2, 2\), not \(3, 3\)"),
    (dict(m=lambda x: None), "IntegralSpec 'u' m value None is not a number"),
    (dict(m=lambda x: [1.0, 2.0]), r"IntegralSpec 'u' m value has shape \(2,\), not \(\)"),
    (dict(s=lambda x: x, jac_s=lambda x: np.full((3, 3), np.nan)),
     "IntegralSpec 'u' jac_s value is not an array of finite real numbers"),
    (dict(s=lambda x: [1.0, "a", 2.0]),
     "IntegralSpec 'u' s value is not an array of finite real numbers"),
    (dict(m=lambda x: 0.0, grad_m=lambda x: [0.0, None, 0.0]),
     "IntegralSpec 'u' grad_m value is not an array of finite real numbers"),
], ids=["jac_s-shape", "m-none", "m-list", "jac_s-nan", "s-str", "grad_m-none"])
def test_user_spec_outputs_are_refused_by_spec_and_function(functions, message):
    # unchecked, these surface as numpy's broadcast ValueError, float()'s
    # TypeError and NaN residuals
    spec = ms.IntegralSpec("u", {}, **functions)
    model = ms.ConstantB(B=1.0)
    for x in (np.array([0.1, 0.2, 0.3]), rng(5).uniform(-1.0, 1.0, (4, 3))):
        with pytest.raises(ms.ParameterError, match=f"^{message}$"):
            ms.determining_residuals(spec, model, x)


def test_user_spec_outputs_keep_their_values():
    spec = ms.IntegralSpec("u", {}, s=lambda x: [1, 2, 3], m=lambda x: np.float32(0.5),
                           jac_s=lambda x: np.zeros((3, 3), dtype=int),
                           grad_m=lambda x: np.array([0.0, 1.0, -2.0]))
    x = rng(6).uniform(-1.0, 1.0, (3, 3))
    assert spec.s(x).tolist() == 3 * [[1.0, 2.0, 3.0]] and spec.s(x).dtype == float
    assert spec.m(x).tolist() == [0.5, 0.5, 0.5] and spec.m(x[0]) == 0.5
    assert spec.m(np.array(x[0])) == 0.5 and type(spec.m(x[0])) is float
    assert spec.jac_s(x).shape == (3, 3, 3) and spec.jac_s(x).dtype == float
    assert spec.grad_m(x).tolist() == 3 * [[0.0, 1.0, -2.0]]


def test_alpha_integer_pairs_of_any_integer_type_are_accepted():
    spec = ms.IntegralSpec("ok", {(np.int64(2), 6): np.float64(1.5), "35": 2})
    assert spec.alpha == {(2, 6): 1.5, (3, 5): 2.0}
    assert all(type(v) is float for v in spec.alpha.values())


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
                br = ms.bracket_matrix([lambda q, i=i: q.x[i],
                                        lambda q, j=j: q.p[j]], s)[0, 1]
                assert br == pytest.approx(1.0 if i == j else 0.0, abs=1e-9)
        f = ms.PhaseFunction("f", lambda q: q.x[0] * q.p[1] ** 2)
        g = ms.PhaseFunction("g", lambda q: np.sin(q.x[1]) + q.p[0])
        assert ms.bracket_matrix([f, g], s)[0, 1] == pytest.approx(
            -ms.bracket_matrix([g, f], s)[0, 1], abs=1e-9)


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
            worst = max(abs(ms.bracket_matrix([f, hf], s)[0, 1]) for s in states)
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
        val = ms.bracket_matrix([x5, h], s)[0, 1]
        assert isinstance(val, float) and abs(val) < 1e-6
    xs = np.array([s.x for s in states])
    ps = np.array([s.p for s in states])
    table = ms.bracket_matrix([x5, h], (xs, ps))
    assert table.shape == (20, 2, 2) and np.isfinite(table).all()
    assert np.max(np.abs(table[:, 0, 1])) < 1e-6
    # one stacked difference per coordinate gives the bits of a per-state one
    per_state = ms.PhaseFunction("X5", x5.fn)
    assert np.array_equal(table, ms.bracket_matrix([per_state, h], (xs, ps)))


def test_a_structurally_zero_j_s_is_skipped_with_the_bits_of_the_zero_stack(tmp_path,
                                                                             monkeypatch):
    # states with -0.0 and negative entries, whose products with a zero J_s
    # are -0.0: the skipped J_s^T pi adds the +0.0 that the zero stack gives
    from dataclasses import replace

    from magsuper import cli, integrals
    from magsuper.fields import field_record

    model = ms.ConstantB(B=1.5)
    x = np.array([[-0.0, 1.0, -2.0], [0.0, -0.0, -0.0], [-1.0, -0.0, 3.0], [-0.5, -2.0, -0.0]])
    p = np.array([[-0.0, -1.0, -0.0], [-1.5, 0.0, 0.0], [0.0, -0.0, -0.0], [1.5, -0.0, -3.0]])
    rec = field_record(model, x)
    spec_file = tmp_path / "spec.json"
    spec_file.write_text('{"integrals": [{"name": "c", "s": [-0.0, 1, -2]}, '
                         '{"name": "q", "alpha": {"14": -1}, "s": [0, -1, 0], "m": 2}]}')
    specs = [*ms.known_integrals(model), ms.IntegralSpec("p1sq", {(1, 1): 1.0}),
             *cli._load_spec_file(str(spec_file), model)]

    def zero_stack(x):
        return np.zeros((3, 3))

    def zeros(x):
        return np.zeros(x.shape)

    zero_stack.stacks = zeros.stacks = True
    calls = []
    transpose_times = integrals._transpose_times
    monkeypatch.setattr(integrals, "_transpose_times",
                        lambda j, v: calls.append(1) or transpose_times(j, v))
    skipped = 0
    for spec in specs:
        zero = spec.s is None or spec.jac_s.outputs == ()  # no entry of J_s assigned
        # the same spec with J_s^T pi formed from a stack of zeros
        stacked = replace(spec, s=spec.s or zeros, jac_s=zero_stack) if zero else spec
        calls.clear()
        got = integrals._integral_gradient(spec, integrals.integral_record(spec, rec), p)
        assert len(calls) == 1 + (not zero), spec.name
        want = integrals._integral_gradient(stacked, integrals.integral_record(stacked, rec), p)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes(), spec.name
        skipped += zero
    # X1-X3, p1sq and both candidates of the file skip it; X4 does not
    assert skipped == len(specs) - 1 == 6


# ---------------------------------------------------------------------------
# the built-in specs' statements against the hand-written closures they
# replaced (`helpers.known_integrals_reference`)

BIT_MODELS = {
    "monopole": ms.Monopole(g=2.0, Q=0.7),
    "monopole g<0": ms.Monopole(g=-2.0, Q=0.7),
    "coulomb-only monopole": ms.Monopole(g=2.0, Q=0.7, barrier=False),
    "coulomb-only monopole g<0": ms.Monopole(g=-2.0, Q=0.7, barrier=False),
    "constant_b": ms.ConstantB(B=-1.5),
    "helical": ms.HelicalB(A_amp=1.3, beta=-0.6, phi0=0.9),
    "cylindrical": _cyl_model(),
}
#: each (spec, output) of each model whose closure gives -0.0 in entries
#: that its statement leaves a structural zero, as +0.0: the products 0 * x
#: of cross(e_j, x) and cross(x, e_j), and g < 0 times the zero row j of
#: the Runge-Lenz R_j's J_s
_ANGULAR = {("X1", "s"), ("X2", "s"), ("X3", "s"), ("R1", "s"), ("R2", "s"), ("R3", "s")}
_ZERO_ROWS = {("R1", "jac_s"), ("R2", "jac_s"), ("R3", "jac_s")}
SIGNED_ZEROS = {
    "monopole": _ANGULAR,
    "monopole g<0": _ANGULAR | _ZERO_ROWS,
    "coulomb-only monopole": _ANGULAR,
    "coulomb-only monopole g<0": _ANGULAR | _ZERO_ROWS,
    "constant_b": {("X4", "s")},
    "helical": set(),
    "cylindrical": {("l3", "s")},
}
#: each output of a spec, its value shape and its entries in the statement
_OUTPUTS = {"s": ((3,), [f"s{i}" for i in range(3)]), "m": ((), ["m"]),
            "jac_s": ((3, 3), [f"S{i}{k}" for i in range(3) for k in range(3)]),
            "grad_m": ((3,), [f"M{k}" for k in range(3)])}


def _with_runge_lenz(model, known, runge_lenz):
    # the candidates of `verify`: R1-R3 also for a coulomb-only monopole
    specs = known(model)
    if isinstance(model, ms.Monopole) and not model.barrier:
        specs += runge_lenz(model.g, model.Q)
    return specs


@pytest.mark.parametrize("label", list(BIT_MODELS))
def test_generated_spec_functions_have_the_bits_of_the_closures(label):
    import helpers

    model = BIT_MODELS[label]
    x = rng(2000).uniform(-2.0, 2.0, (2000, 3))
    got = _with_runge_lenz(model, ms.known_integrals, ms.monopole_runge_lenz_specs)
    want = _with_runge_lenz(model, helpers.known_integrals_reference,
                            helpers.monopole_runge_lenz_specs_reference)
    assert [(g.name, g.alpha) for g in got] == [(w.name, w.alpha) for w in want]
    signed = set()
    for g, w in zip(got, want):
        for key, (shape, entries) in _OUTPUTS.items():
            fn, ref = getattr(g, key), getattr(w, key)
            assert (fn is None) == (ref is None), (g.name, key)
            if fn is None:
                continue
            a = fn(x)
            b = np.broadcast_to(ref(x), a.shape)
            assert a.shape == (len(x), *shape)
            differ = a.view(np.uint64) != b.view(np.uint64)
            if not differ.any():
                continue
            signed.add((g.name, key))
            # equal values, +0.0 against -0.0, and only in unassigned entries
            assert np.array_equal(a, b), (g.name, key)
            assert (a[differ].view(np.uint64) == 0).all(), (g.name, key)
            structural = np.array([e not in fn.outputs for e in entries]).reshape(shape)
            assert not (differ & ~structural).any(), (g.name, key)
    assert signed == SIGNED_ZEROS[label]


def test_spec_builders_refuse_a_charge_that_is_not_a_finite_number():
    import warnings

    builders = {"g": (ms.monopole_angular_specs, ms.monopole_total_square_spec,
                      lambda g: ms.monopole_runge_lenz_specs(g, 1.0)),
                "Q": (lambda Q: ms.monopole_runge_lenz_specs(2.0, Q),)}
    x = np.array([[0.3, -0.4, 1.2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, builds in builders.items():
            for build in builds:
                for bad in ("a", "2.0", None, True, False, np.nan, np.inf, -np.inf, 10**400,
                            [1.0]):
                    with pytest.raises(ms.ParameterError, match=rf"^{name} "):
                        build(bad)
                # g = 0, the Kepler limit, and Q = 0 still build and answer
                specs = build(0)
                for spec in specs if isinstance(specs, list) else [specs]:
                    assert np.isfinite(spec.m(x)).all() and np.isfinite(spec.grad_m(x)).all()


def test_spec_builders_generate_no_source_per_call(monkeypatch):
    from magsuper import fields, integrals

    def build():
        specs = [sp for model in [*BIT_MODELS.values(), ms.HelicalB(A_amp=1.0, beta=2.0)]
                 for sp in ms.known_integrals(model)]
        specs += [*ms.monopole_angular_specs(0.0), ms.monopole_total_square_spec(0.0),
                  *ms.monopole_runge_lenz_specs(0.0, 1.0),
                  integrals._constant_spec("c", {}, [1.0, -0.0, 2.0], 3.0)]
        return specs

    def refuse(*args, **kwargs):
        raise AssertionError("compile called while building specs")

    monkeypatch.setattr(fields, "compile", refuse, raising=False)
    first, second = build(), build()
    x = rng(3).uniform(-2.0, 2.0, (5, 3))
    for a, b in zip(first, second):
        for key in _OUTPUTS:
            fn = getattr(a, key)
            if fn is not None:
                assert fn.__code__ is getattr(b, key).__code__, (a.name, key)
                fn(x)
