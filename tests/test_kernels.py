"""Stacked kernels: field methods and built-in specs on (n,3) points."""

import numpy as np
import pytest

import magsuper as ms
from magsuper.fields import cross

from helpers import monopole_positions, monopole_states, random_states, rng

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
    model = ms.Monopole(g=2.0, Q=1.0)
    with pytest.raises(ms.DomainError) as direct:
        model.check_domain(np.array(bad))
    with pytest.raises(ms.DomainError) as rhs:
        model.hamilton_rhs(bad + [0.5, 0.5, 0.5])
    assert str(rhs.value) == str(direct.value)
