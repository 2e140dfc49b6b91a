"""Stacked kernels: field methods and built-in specs on (n,3) points."""

import numpy as np
import pytest

import magsuper as ms
from magsuper.fields import cross

from helpers import (field_reference, hamilton_rhs_reference, monopole_positions,
                     monopole_states, random_states, rng)

METHODS = ("vector_potential", "magnetic_field", "scalar_potential",
           "grad_potential", "jacobian_a")


def _cyl_model():
    return ms.Cylindrical(
        f1=lambda r: r**2, df1=lambda r: 2 * r,
        f2=lambda r: r**3, df2=lambda r: 3 * r**2,
        v=lambda r: 0.5 * r**2, dv=lambda r: r,
    )


def _models():
    return [
        ms.ConstantB(B=1.3),
        ms.HelicalB(A_amp=3.0, beta=3.0, phi0=0.7),
        ms.Monopole(g=2.0, Q=1.0, barrier=True),
        ms.Monopole(g=2.0, Q=1.0, barrier=False),
        _cyl_model(),
    ]


def _stack(model, seed, n=25):
    gen = rng(seed)
    if isinstance(model, ms.Monopole):
        return np.array(monopole_positions(gen, n))
    xs = gen.uniform(-2.0, 2.0, (4 * n, 3))
    if isinstance(model, ms.Cylindrical):
        xs = xs[np.hypot(xs[:, 0], xs[:, 1]) > 0.3]
    return xs[:n]


def _assert_rel_close(stacked, per_point, what):
    stacked, per_point = np.asarray(stacked), np.asarray(per_point)
    assert stacked.shape == per_point.shape, what
    scale = max(1.0, float(np.max(np.abs(per_point))))
    assert np.max(np.abs(stacked - per_point)) <= 1e-14 * scale, what


@pytest.mark.parametrize("model", _models(), ids=lambda m: type(m).__name__)
def test_stacked_field_methods_match_per_point(model):
    xs = _stack(model, 501)
    for name in METHODS:
        method = getattr(model, name)
        per_point = np.array([method(x) for x in xs])
        _assert_rel_close(method(xs), per_point, name)
    model.check_domain(xs)


@pytest.mark.parametrize("model", _models(), ids=lambda m: type(m).__name__)
def test_stacked_spec_values_match_per_point(model):
    specs = list(ms.known_integrals(model))
    if isinstance(model, ms.Monopole) and not model.barrier:
        specs += ms.monopole_runge_lenz_specs(model.g, model.Q)
    xs = _stack(model, 502)
    ps = rng(503).uniform(-2.0, 2.0, xs.shape)
    for spec in specs:
        for part in (spec.s, spec.m):
            if part is not None:
                _assert_rel_close(part(xs), np.array([part(x) for x in xs]), spec.name)
        per_point = [ms.evaluate_integral(spec, model, ms.PhaseState(x, p))
                     for x, p in zip(xs, ps)]
        _assert_rel_close(ms.evaluate_integral(spec, model, (xs, ps)), per_point, spec.name)
    per_point = [ms.hamiltonian(model, ms.PhaseState(x, p)) for x, p in zip(xs, ps)]
    _assert_rel_close(ms.hamiltonian(model, (xs, ps)), per_point, "H")


@pytest.mark.parametrize("bad", [[0.0, 0.0, -1.0], [0.0, 0.0, 0.0]])
def test_stack_with_one_singular_row_raises(bad):
    model = ms.Monopole(g=2.0, Q=1.0)
    xs = np.array(monopole_positions(rng(504), 6))
    xs[3] = bad
    for name in METHODS + ("check_domain",):
        with pytest.raises(ms.DomainError):
            getattr(model, name)(xs)
    specs = ms.known_integrals(model)
    with pytest.raises(ms.DomainError):
        ms.evaluate_integral(specs[0], model, (xs, np.ones_like(xs)))


def test_cross_is_bitwise_numpy_cross():
    gen = rng(505)
    a = gen.normal(size=(50, 3)) * 10.0 ** gen.integers(-8, 8, (50, 1))
    b = gen.normal(size=(50, 3))
    assert np.array_equal(cross(a, b), np.cross(a, b))
    for i in range(5):
        assert np.array_equal(cross(a[i], b[i]), np.cross(a[i], b[i]))
    for axis in (np.eye(3)[2], np.array([0.3, -1.7, 2.9])):
        assert np.array_equal(cross(a, axis), np.cross(a, axis))
        assert np.array_equal(cross(axis, a), np.cross(axis, a))


def _one_point(fn):
    """Wrap a user callable so it fails if it ever sees a stack."""

    def checked(x):
        assert np.shape(x) == (3,), np.shape(x)
        return fn(x)

    return checked


def _per_point_watches(traj, model, specs):
    """H and spec values one PhaseState at a time, as a reference."""
    states = [traj.state(i) for i in range(len(traj))]
    energy = np.array([ms.hamiltonian(model, s) for s in states])
    values = {sp.name: np.array([ms.evaluate_integral(sp, model, s) for s in states])
              for sp in specs}
    return energy, values


def test_integrate_custom_model_calls_user_code_per_point():
    base = ms.ConstantB(B=1.5)
    model = ms.Custom(
        a=_one_point(base.vector_potential),
        v=_one_point(lambda x: 0.1 * x[2]),
        b=_one_point(base.magnetic_field),
        jac_a=_one_point(base.jacobian_a),
        grad_v=_one_point(lambda x: np.array([0.0, 0.0, 0.1])),
        domain=_one_point(lambda x: None),
    )
    user_spec = ms.IntegralSpec("P1", {}, s=_one_point(lambda x: np.array([1.0, 0.0, 0.0])),
                                m=_one_point(lambda x: 0.0))
    phase_fn = ms.PhaseFunction("p2", lambda s: s.p[1])
    nothing = ms.IntegralSpec("nothing", {})
    s0 = ms.PhaseState([0.1, 0.4, -0.3], [0.6, 0.2, -0.5])
    for method in ("rk45", "boris"):
        cfg = ms.IntegratorConfig(method=method, dt=0.01)
        traj = ms.integrate(model, s0, 3.0, cfg, watch=[user_spec, phase_fn, nothing])
        assert np.array_equal(traj.diagnostics["nothing"], np.zeros(len(traj)))
        energy, values = _per_point_watches(traj, model, [user_spec])
        np.testing.assert_allclose(traj.energy, energy, rtol=1e-14, atol=0)
        np.testing.assert_allclose(traj.diagnostics["P1"], values["P1"], rtol=1e-14, atol=0)
        assert np.array_equal(traj.diagnostics["p2"], traj.p[:, 1])
        assert traj.drift("P1") < 1e-8


def test_integrate_gauge_shifted_model_keeps_watch_values():
    base = ms.HelicalB(A_amp=1.0, beta=1.0, phi0=0.7)
    chi = ms.GaugeFunction(
        chi=lambda x: x[0] * x[1] + 0.5 * x[2] ** 2,
        gradient=_one_point(lambda x: np.array([x[1], x[0], x[2]])),
    )
    shifted = ms.gauge_shift(base, chi)
    specs = ms.known_integrals(base)
    x0 = np.array([0.2, -0.1, 0.4])
    s0 = ms.PhaseState(x0, np.array([1.0, 0.3, -0.2]) - chi.gradient(x0))
    traj = ms.integrate(shifted, s0, 5.0, watch=specs)
    energy, values = _per_point_watches(traj, shifted, specs)
    np.testing.assert_allclose(traj.energy, energy, rtol=1e-14, atol=0)
    for sp in specs:
        np.testing.assert_allclose(traj.diagnostics[sp.name], values[sp.name],
                                   rtol=1e-14, atol=1e-15)
        # covariant integrals of the base field are integrals of the shifted one
        assert traj.drift(sp.name) < 1e-8


def test_boris_keeps_speed_in_helical_field():
    model = ms.HelicalB(A_amp=3.0, beta=3.0, phi0=0.7)
    s0 = ms.PhaseState([0.08, 0.05, 0.0], [1.0, 0.0, 3.2])
    cfg = ms.IntegratorConfig(method="boris", dt=2e-3)
    traj = ms.integrate(model, s0, 20.0, cfg)
    speed = np.linalg.norm(traj.p + model.vector_potential(traj.x), axis=1)
    assert np.max(np.abs(speed - speed[0])) <= 1e-12 * speed[0]


def test_integrate_stacked_pass_matches_state_by_state():
    # for every built-in model and both integrators
    for model in _models():
        if isinstance(model, ms.Monopole):
            s0 = monopole_states(rng(506), 1)[0]
        else:
            s0 = [s for s in random_states(rng(507), 20)
                  if np.hypot(s.x[0], s.x[1]) > 0.3][0]
        specs = list(ms.known_integrals(model))
        for method in ("rk45", "boris"):
            cfg = ms.IntegratorConfig(method=method, dt=0.01)
            traj = ms.integrate(model, s0, 2.0, cfg, watch=specs)
            energy, values = _per_point_watches(traj, model, specs)
            _assert_rel_close(traj.energy, energy, f"H {method}")
            for sp in specs:
                _assert_rel_close(traj.diagnostics[sp.name], values[sp.name],
                                  f"{sp.name} {method}")


# ---------------------------------------------------------------------------
# hamilton_rhs: Hamilton's right-hand side at one state, in scalar arithmetic

RHS_MODELS = [
    ms.ConstantB(B=1.3),
    ms.ConstantB(B=-0.7),
    ms.HelicalB(A_amp=3.0, beta=3.0, phi0=0.7),
    ms.HelicalB(A_amp=1.5, beta=-2.0, phi0=-1.1),
    ms.Monopole(g=2.0, Q=1.0, barrier=True),
    ms.Monopole(g=-1.5, Q=0.5, barrier=True),
    ms.Monopole(g=0.8, Q=1.0, barrier=False),
    ms.Monopole(g=-1.1, Q=0.0, barrier=False),
]


def _matrix_rhs_and_sizes(model, x, p):
    """v = p + A, dp = -J_A^T v - grad V from the model's own array methods,
    with the size |p| + |A|, |J_A|^T |v| + |grad V| of the terms of each
    component."""
    a, j, gv = model.vector_potential(x), model.jacobian_a(x), model.grad_potential(x)
    v = p + a
    want = np.concatenate([v, -(j.T @ v) - gv])
    size = np.concatenate([np.abs(p) + np.abs(a), np.abs(j).T @ np.abs(v) + np.abs(gv)])
    return want, size


@pytest.mark.parametrize("model", RHS_MODELS, ids=repr)
def test_hamilton_rhs_matches_matrix_form(model):
    gen = rng(511)
    eps = np.finfo(float).eps
    for x in _stack(model, 512, n=300):
        p = gen.uniform(-3.0, 3.0, 3)
        got = np.array(model.hamilton_rhs(np.concatenate([x, p]).tolist()))
        want, size = _matrix_rhs_and_sizes(model, x, p)
        if isinstance(model, ms.ConstantB):
            assert np.array_equal(got, want)
        else:
            assert np.all(np.abs(got - want) <= 4 * eps * size), (x, p)


def _rhs_states(model, gen, n=200):
    """n states of six floats; for a Monopole every fourth lies beside the
    z-axis, on the string when z < 0, and every twelfth at the center."""
    ys = gen.uniform(-3.0, 3.0, (n, 6))
    if isinstance(model, ms.Monopole):
        near = ys[::4]
        near[:, :2] *= 10.0 ** gen.integers(-12, -2, (len(near), 1))
        near[::3, :3] *= 1e-9
    return ys.tolist()


@pytest.mark.parametrize("model", RHS_MODELS, ids=repr)
def test_compiled_hamilton_rhs_has_the_bits_of_the_hand_written_one(model):
    # the method compiled from the model's RhsSource against the methods
    # written out by hand that it replaced: six equal floats, and a
    # DomainError at the same states
    refused = 0
    for y in _rhs_states(model, rng(517)):
        try:
            want = hamilton_rhs_reference(model, y)
        except ms.DomainError:
            refused += 1
            with pytest.raises(ms.DomainError):
                model.hamilton_rhs(y)
            continue
        got = model.hamilton_rhs(y)
        assert type(got) is tuple and len(got) == 6 and got == want, y
    assert (refused > 0) == isinstance(model, ms.Monopole)


@pytest.mark.parametrize("model", RHS_MODELS, ids=repr)
def test_hamilton_rhs_keeps_the_sign_of_zeros(model):
    # the structural zeros of J_A and grad V are left out, not added as 0.0,
    # so each of the six floats has the bytes of the hand-written method,
    # the sign of a zero included, at states with zero and -0.0 components
    gen = rng(531)
    for y in _rhs_states(model, gen, 400):
        y = [(0.0, -0.0)[i % 2] if gen.uniform() < 0.3 else c for i, c in enumerate(y)]
        try:
            want = hamilton_rhs_reference(model, y)
        except ms.DomainError:
            continue
        assert np.array(model.hamilton_rhs(y)).tobytes() == np.array(want).tobytes(), y


@pytest.mark.parametrize("model", RHS_MODELS + [_cyl_model()], ids=repr)
def test_eom_rhs_goes_through_hamilton_rhs(model):
    # the right-hand side of the equations of motion is one call of
    # hamilton_rhs: six Python floats, the matrix form itself for a model
    # that calls user code
    x = _stack(model, 513, n=1)[0]
    s = ms.PhaseState(x, [0.4, -1.2, 0.9])
    f = model.hamilton_rhs(s.as_array().tolist())
    assert len(f) == 6 and all(type(c) is float for c in f)
    want, _ = _matrix_rhs_and_sizes(model, s.x, s.p)
    if isinstance(model, ms.Cylindrical):
        assert np.array_equal(f, want)


@pytest.mark.parametrize("bad", [[0.0, 0.0, -1.0], [1e-9, -1e-9, -2.0], [0.0, 0.0, 0.0],
                                 [1e-9, 0.0, 1e-9]])
def test_monopole_rhs_raises_the_domain_error_of_radius(bad):
    # and so does b_and_grad_v, the other compiled method
    model = ms.Monopole(g=2.0, Q=1.0)
    with pytest.raises(ms.DomainError) as direct:
        model.check_domain(np.array(bad))
    with pytest.raises(ms.DomainError) as rhs:
        model.hamilton_rhs(bad + [0.5, 0.5, 0.5])
    with pytest.raises(ms.DomainError) as point:
        model.b_and_grad_v(bad)
    assert str(rhs.value) == str(point.value) == str(direct.value)


# ---------------------------------------------------------------------------
# b_and_grad_v: B and grad V at one point, in scalar arithmetic


def _point_lists(gen, n):
    """n points of three floats: uniform in a box of half-width 3, every
    fourth beside the z-axis (on the string when z < 0), every seventh
    scaled by a power of ten from 1e-4 to 1e4, and the center once."""
    xs = gen.uniform(-3.0, 3.0, (n, 3))
    near = xs[::4]
    near[:, :2] *= 10.0 ** gen.integers(-12, -1, (len(near), 1))
    xs[::7] *= 10.0 ** gen.integers(-4, 5, (len(xs[::7]), 1))
    xs[-1] = 0.0
    return xs.tolist()


@pytest.mark.parametrize("model", RHS_MODELS, ids=repr)
def test_b_and_grad_v_has_the_bits_of_the_numpy_methods(model):
    # the compiled method against magnetic_field and grad_potential at one
    # point: six floats with the same bytes, and the DomainError of `_radius`
    # with the same message where those refuse the point
    refused = 0
    for x in _point_lists(rng(523), 10000):
        try:
            want = np.concatenate([model.magnetic_field(np.array(x)),
                                   model.grad_potential(np.array(x))])
        except ms.DomainError as exc:
            refused += 1
            with pytest.raises(ms.DomainError) as got:
                model.b_and_grad_v(x)
            assert str(got.value) == str(exc), x
            continue
        got = model.b_and_grad_v(x)
        assert type(got) is tuple and len(got) == 6 and all(type(c) is float for c in got)
        assert np.array(got).tobytes() == want.tobytes(), x
    assert (refused > 100) == isinstance(model, ms.Monopole)


# ---------------------------------------------------------------------------
# the stacked methods generated from each model's statement


def _outcome(call):
    """What a call gives: its type, shape, dtype and bytes, or the text of
    its DomainError."""
    try:
        value = call()
    except ms.DomainError as exc:
        return "DomainError", str(exc)
    if value is None:
        return None
    return type(value), np.shape(value), np.asarray(value).dtype, np.asarray(value).tobytes()


@pytest.mark.parametrize("model", RHS_MODELS + [ms.HelicalB(A_amp=2.0, beta=1e-300, phi0=0.5)],
                         ids=repr)
def test_stacked_methods_have_the_bits_of_the_hand_written_ones(model):
    # each method generated from the statement against the numpy methods
    # written out by hand that it replaced, on a stack of 20000 points and
    # on 2000 of them one by one: the same type, shape and bytes, and the
    # same DomainError text where the domain test refuses a point. The
    # last point, z = 1e9, puts the phase of the tiny beta beyond the
    # double range (a stack would warn of numpy's overflow first).
    xs = np.array(_point_lists(rng(529), 20000))
    xs[1::13] *= -1.0
    xs[2::13, 0] = -0.0
    xs[3::13, :2] = [0.0, -0.0]
    refused = np.array([_outcome(lambda: model.check_domain(x)) is not None for x in xs])
    assert refused.any() == isinstance(model, ms.Monopole)
    kept = xs[~refused]
    for name in METHODS + ("check_domain",):
        method = getattr(model, name)
        for stack in (kept, xs, kept[:0]):
            assert _outcome(lambda: method(stack)) == _outcome(
                lambda: field_reference(model, name, stack)), name
        for x in [*xs[:2000], np.array([0.0, 0.0, 1e9])]:
            assert _outcome(lambda: method(x)) == _outcome(
                lambda: field_reference(model, name, x)), (name, x)
    far = _outcome(lambda: model.check_domain(np.array([0.0, 0.0, 1e9])))
    assert (far is not None) == (getattr(model, "beta", None) == 1e-300)


# ---------------------------------------------------------------------------
# Cylindrical: the stated model whose F1, F2 and V are the user's


def _cylindrical_points(seed, n):
    """The points of `_point_lists` with the signs and zeros of
    `test_stacked_methods_have_the_bits_of_the_hand_written_ones`: every
    fourth beside the z-axis, so some on it, and the center."""
    xs = np.array(_point_lists(rng(seed), n))
    xs[1::13] *= -1.0
    xs[2::13, 0] = -0.0
    xs[3::13, :2] = [0.0, -0.0]
    return xs


def test_cylindrical_b_and_grad_v_has_the_bits_of_its_numpy_methods():
    # as test_b_and_grad_v_has_the_bits_of_the_numpy_methods: six floats with
    # the same bytes, and the same DomainError text where those refuse the point
    model, refused = _cyl_model(), 0
    for x in _cylindrical_points(523, 10000).tolist():
        try:
            want = np.concatenate([model.magnetic_field(np.array(x)),
                                   model.grad_potential(np.array(x))])
        except ms.DomainError as exc:
            refused += 1
            with pytest.raises(ms.DomainError) as got:
                model.b_and_grad_v(x)
            assert str(got.value) == str(exc), x
            continue
        got = model.b_and_grad_v(x)
        assert type(got) is tuple and len(got) == 6 and all(type(c) is float for c in got)
        assert np.array(got).tobytes() == want.tobytes(), x
    assert refused > 100


def test_cylindrical_stacked_methods_have_the_bits_of_per_point_calls():
    # on a stack off the axis: the bytes of the per-point calls, row by row;
    # on a stack with points on it: the DomainError of the first of them
    model, xs = _cyl_model(), _cylindrical_points(529, 20000)
    refused = np.array([_outcome(lambda: model.check_domain(x)) is not None for x in xs])
    kept, first = xs[~refused][:2000], xs[np.argmax(refused)]
    assert refused.sum() > 100
    for name in METHODS:
        method = getattr(model, name)
        want = np.array([method(x) for x in kept])
        assert method(kept).tobytes() == want.tobytes(), name
        assert _outcome(lambda: method(xs)) == _outcome(lambda: method(first)), name
        assert _outcome(lambda: method(kept[:0])) == _outcome(lambda: want[:0]), name


# the most ulps, of the largest value at the point, by which a Cylindrical
# method differs from the hand-written one it replaced: R was np.hypot there
# and is sqrt(x x + y y) here (measured on these points: 4 for A, B and J_A,
# 3 for V and 2 for grad V)
CYLINDRICAL_ULPS = 4


@pytest.mark.parametrize("name", METHODS)
def test_cylindrical_methods_are_the_hand_written_ones_within_a_few_ulps(name):
    model, xs = _cyl_model(), _cylindrical_points(541, 20000)
    xs = xs[np.hypot(xs[:, 0], xs[:, 1]) > 1e-6]
    got, want = getattr(model, name)(xs), field_reference(model, name, xs)
    assert got.shape == want.shape
    scale = np.abs(want).reshape(len(xs), -1).max(axis=1)
    error = np.abs(got - want).reshape(len(xs), -1).max(axis=1)
    assert np.all(error <= CYLINDRICAL_ULPS * np.spacing(scale))
    # the two radii differ in the last bit at a sixth of these points
    assert np.mean(got == want) > 0.8
