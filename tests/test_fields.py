"""Field models: values, derivatives, domains, gauge shifts."""

import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import magsuper as ms
from magsuper.fields import _pow, curl_fd, jacobian_fd

from helpers import monopole_positions, rng


def test_constant_b_values():
    m = ms.ConstantB(B=2.5)
    x = np.array([0.3, -1.2, 0.7])
    assert np.allclose(m.vector_potential(x), [0.0, -2.5 * 0.7, 0.0])
    assert np.allclose(m.magnetic_field(x), [2.5, 0.0, 0.0])
    assert m.scalar_potential(x) == 0.0


def test_constant_b_requires_nonzero_b():
    for bad in (0.0, -0.0, float("nan")):
        with pytest.raises(ValueError):
            ms.ConstantB(B=bad)
    m = ms.ConstantB(B=-2.5)
    x = np.array([0.3, -1.2, 0.7])
    assert np.allclose(m.vector_potential(x), [0.0, 2.5 * 0.7, 0.0])
    assert np.allclose(m.magnetic_field(x), [-2.5, 0.0, 0.0])
    assert np.allclose(curl_fd(m.vector_potential, x), m.magnetic_field(x), atol=1e-9)


@pytest.mark.parametrize("make, message", [
    (lambda: ms.ConstantB("1"), "ConstantB B '1' is not a number"),
    (lambda: ms.ConstantB(True), "ConstantB B True is not a number"),
    (lambda: ms.ConstantB(math.inf), "ConstantB B inf is not finite"),
    (lambda: ms.HelicalB(1.0, None), "HelicalB beta None is not a number"),
    (lambda: ms.HelicalB(1, 1, phi0=math.nan), "HelicalB phi0 nan is not finite"),
    (lambda: ms.HelicalB([1.0], 1.0), r"HelicalB A_amp \[1.0\] is not a number"),
    (lambda: ms.HelicalB(1e300, 1e-10), r"HelicalB A_amp / beta = 1e\+300 / 1e-10 is not finite"),
    (lambda: ms.HelicalB(1.0, -1e-310), "HelicalB A_amp / beta = 1.0 / -1e-310 is not finite"),
    (lambda: ms.Monopole(math.inf), "Monopole g inf is not finite"),
    (lambda: ms.Monopole(1.0, Q="x"), "Monopole Q 'x' is not a number"),
    (lambda: ms.Monopole(10**400), "Monopole g 1000.* is beyond the double range"),
    (lambda: ms.Monopole(1.0, barrier="yes"), "Monopole barrier 'yes' is not a bool"),
])
def test_model_numbers_that_are_not_finite_reals_are_refused_by_name(make, message):
    with pytest.raises(ms.ParameterError, match=f"^{message}$"):
        make()


def test_helical_fields_up_to_the_double_range_are_kept():
    # A_amp / beta = 1e300 and 1.0: the field stays finite at the edge
    for model in (ms.HelicalB(1e300, 1.0), ms.HelicalB(1.0, 1e-300), ms.HelicalB(1e-300, 1e-300)):
        assert np.isfinite(model.magnetic_field(np.array([0.1, 0.2, 0.3]))).all()
        assert np.isfinite(model.b_and_grad_v([0.1, 0.2, 0.3])).all()


def _radius_fn(r):
    return r


@pytest.mark.parametrize("make, message", [
    (lambda: ms.Custom(a=5, v=1), "Custom a 5 is not callable"),
    (lambda: ms.Custom(a=np.zeros, v=None), "Custom v None is not callable"),
    (lambda: ms.Custom(a=np.zeros, v=np.sum, grad_v="x"), "Custom grad_v 'x' is not callable"),
    (lambda: ms.Cylindrical(*[_radius_fn] * 5, 0.0), "Cylindrical dv 0.0 is not callable"),
    (lambda: ms.Cylindrical(None, *[_radius_fn] * 5), "Cylindrical f1 None is not callable"),
    (lambda: ms.GaugeFunction(1, 2), "GaugeFunction chi 1 is not callable"),
    (lambda: ms.GaugeFunction(_radius_fn, 2), "GaugeFunction gradient 2 is not callable"),
])
def test_model_functions_that_are_not_callable_are_refused_by_name(make, message):
    with pytest.raises(ms.ParameterError, match=f"^{message}$"):
        make()


def test_model_numbers_are_stored_as_floats():
    models = [ms.ConstantB(2), ms.HelicalB(3, -1, phi0=np.float32(0.5)), ms.Monopole(2, Q=1)]
    for model, names in zip(models, (["B"], ["A_amp", "beta", "phi0"], ["g", "Q"])):
        assert all(type(getattr(model, name)) is float for name in names)
    assert models[1] == ms.HelicalB(3.0, -1.0, 0.5)


def test_cylindrical_axis_is_off_the_domain_when_f2_does_not_vanish_there():
    model = ms.Cylindrical(f1=lambda r: 0.0, df1=lambda r: 0.0, f2=lambda r: 1.0,
                           df2=lambda r: 0.0, v=lambda r: 0.0, dv=lambda r: 0.0)
    axis = np.array([0.0, 0.0, 0.5])
    for x in (axis, np.array([[1.0, 0.0, 0.0], axis, [0.0, 0.0, -1.0]])):
        with pytest.raises(ms.DomainError) as exc:
            model.check_domain(x)
        assert str(exc.value) == f"point {axis} lies on the singular symmetry axis"
    model.check_domain(np.array([[1.0, 0.0, 0.0], [0.0, 1e-3, 0.0]]))


@pytest.mark.parametrize("f2, df2", [(lambda r: 1.0, lambda r: 0.0),
                                     (lambda r: r**3, lambda r: 3 * r**2)],
                         ids=["F2(0)=1", "F2(0)=0"])
def test_every_cylindrical_call_refuses_the_axis(f2, df2):
    # every formula divides by R, so the axis is off the domain also where
    # F2(0) = 0: a DomainError before any division, warnings as errors
    model = ms.Cylindrical(f1=lambda r: r**2, df1=lambda r: 2 * r, f2=f2, df2=df2,
                           v=lambda r: 0.5 * r**2, dv=lambda r: r)
    axis, p = np.array([0.0, 0.0, 0.5]), np.array([0.6, 0.2, -0.5])
    stack = np.array([[1.0, 0.0, 0.0], axis, [0.0, 0.0, -1.0]])
    s0, pair = ms.PhaseState(axis, p), (stack, np.tile(p, (3, 1)))
    calls = [lambda: model.b_and_grad_v(axis.tolist()),
             lambda: model.hamilton_rhs([*axis, *p])]
    for name in ("vector_potential", "magnetic_field", "scalar_potential", "grad_potential",
                 "jacobian_a", "check_domain"):
        calls += [lambda m=getattr(model, name): m(axis), lambda m=getattr(model, name): m(stack)]
    for method in ("rk45", "boris"):
        calls.append(lambda m=method: ms.integrate(model, s0, 1.0,
                                                    ms.IntegratorConfig(method=m, dt=0.01)))
    for spec in ms.known_integrals(model):
        calls += [lambda sp=spec: ms.evaluate_integral(sp, model, s0),
                  lambda sp=spec: ms.evaluate_integral(sp, model, pair),
                  lambda sp=spec: ms.determining_residuals(sp, model, axis),
                  lambda sp=spec: ms.determining_residuals(sp, model, stack)]
    assert [spec.name for spec in ms.known_integrals(model)] == ["l3", "p3"]
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ms.DomainError) as exc:
                call()
        assert str(exc.value) == f"point {axis} lies on the singular symmetry axis"


def test_helical_field_is_curl_of_potential():
    m = ms.HelicalB(A_amp=3.0, beta=3.0, phi0=0.4)
    gen = rng(11)
    for _ in range(40):
        x = gen.uniform(-3, 3, 3)
        assert np.allclose(curl_fd(m.vector_potential, x),
                           m.magnetic_field(x), atol=1e-8)
        assert np.allclose(jacobian_fd(m.vector_potential, x),
                           m.jacobian_a(x), atol=1e-8)


def test_helical_field_magnitude_constant():
    m = ms.HelicalB(A_amp=2.0, beta=0.5)
    gen = rng(12)
    for _ in range(20):
        x = gen.uniform(-3, 3, 3)
        b = m.magnetic_field(x)
        assert np.isclose(np.linalg.norm(b), 2.0 / 0.5)
        assert b[2] == 0.0


#: (model, point) where the helical phase u = (z + phi0) / beta leaves the
#: double range: far along z, for a tiny beta, or in z + phi0 itself
PHASE_OVERFLOWS = [(ms.HelicalB(1.0, 1e-3), [0.0, 0.0, 1e306]),
                   (ms.HelicalB(1.0, 1e-300), [0.5, -0.5, 1e9]),
                   (ms.HelicalB(1.0, -1.0, phi0=1e308), [0.0, 0.0, 1e308])]
PHASE_MESSAGE = r"^point \[.*\] puts the helical phase \(z \+ phi0\) / beta beyond the double range$"


@pytest.mark.parametrize("model, x", PHASE_OVERFLOWS)
def test_helical_phase_beyond_the_double_range_is_off_the_domain(model, x):
    # every method refuses the point with one DomainError that names it, and
    # without a warning: the float methods, one (3,) point and a stack
    with pytest.raises(ms.DomainError, match=PHASE_MESSAGE) as first:
        model.b_and_grad_v(x)
    messages = set()
    for call in [lambda: model.hamilton_rhs(x + [0.1, 0.2, 0.3])] + [
            (lambda name: lambda: getattr(model, name)(np.array(x)))(name)
            for name in ("check_domain", *STACKED)]:
        with pytest.raises(ms.DomainError) as exc:
            call()
        messages.add(str(exc.value))
    stack = np.array([[0.1, 0.2, 0.3], x])
    for name in ("check_domain", *STACKED):
        with warnings.catch_warnings(), pytest.raises(ms.DomainError) as exc:
            warnings.simplefilter("error")
            getattr(model, name)(stack)
        messages.add(str(exc.value))
    assert messages == {str(first.value)}


def test_helical_stack_flags_the_point_before_numpy_overflows():
    # the phase (1e308 + 0) / 0.1 of the first row overflows; a stack names
    # that row as one point does, under warnings as errors
    model = ms.HelicalB(1.0, 0.1)
    with pytest.raises(ms.DomainError) as one:
        model.magnetic_field(np.array([0.0, 0.0, 1e308]))
    with warnings.catch_warnings(), pytest.raises(ms.DomainError) as stack:
        warnings.simplefilter("error")
        model.magnetic_field(np.array([[0.0, 0.0, 1e308], [0.0, 0.0, 1.0]]))
    assert str(stack.value) == str(one.value)


def test_helical_phase_within_the_double_range_is_in_the_domain():
    # u = 1e308 and u = 0 from z + phi0 = 0 are numbers like any other
    for model, x in ((ms.HelicalB(1.0, 1e-3), [0.0, 0.0, 1e305]),
                     (ms.HelicalB(1.0, -1.0, phi0=1e308), [0.0, 0.0, -1e308])):
        model.check_domain(np.array(x))
        model.check_domain(np.array([x, x]))
        assert all(map(math.isfinite, model.hamilton_rhs(x + [0.1, 0.2, 0.3])))
        assert np.isfinite(model.magnetic_field(np.array(x))).all()


STACKED = ("vector_potential", "magnetic_field", "scalar_potential", "grad_potential",
           "jacobian_a")


def test_monopole_field_is_radial():
    g = 2.0
    m = ms.Monopole(g=g)
    gen = rng(13)
    for x in monopole_positions(gen, 40):
        r = np.linalg.norm(x)
        assert np.allclose(m.magnetic_field(x), g * x / r**3, atol=1e-12)
        assert np.allclose(curl_fd(m.vector_potential, x),
                           g * x / r**3, atol=1e-7)
        assert np.allclose(jacobian_fd(m.vector_potential, x),
                           m.jacobian_a(x), atol=1e-7)


def test_monopole_potential_variants():
    x = np.array([0.6, -0.3, 1.1])
    r = np.linalg.norm(x)
    full = ms.Monopole(g=2.0, Q=1.5)
    bare = ms.Monopole(g=2.0, Q=1.5, barrier=False)
    assert np.isclose(full.scalar_potential(x), -1.5 / r + 2.0 / r**2)
    assert np.isclose(bare.scalar_potential(x), -1.5 / r)
    for mdl in (full, bare):
        assert np.allclose(jacobian_fd(mdl.scalar_potential, x),
                           mdl.grad_potential(x), atol=1e-9)


def test_monopole_string_rejected():
    m = ms.Monopole(g=1.0)
    for bad in ([0.0, 0.0, -1.0], [1e-9, 0.0, -2.0], [0.0, 0.0, 0.0]):
        with pytest.raises(ms.DomainError):
            m.check_domain(np.array(bad))
    m.check_domain(np.array([0.0, 0.0, 1.0]))  # positive axis is fine


def test_cylindrical_field_formulas():
    # F1 = R^2, F2 = R^3
    m = ms.Cylindrical(
        f1=lambda r: r**2, df1=lambda r: 2 * r,
        f2=lambda r: r**3, df2=lambda r: 3 * r**2,
        v=lambda r: 0.0, dv=lambda r: 0.0,
    )
    gen = rng(14)
    for _ in range(30):
        x = gen.uniform(-2, 2, 3)
        radius = np.hypot(x[0], x[1])
        if radius < 0.2:
            continue
        want = np.array([-2 * radius * x[1] / radius,
                         2 * radius * x[0] / radius,
                         3 * radius**2 / radius])
        assert np.allclose(m.magnetic_field(x), want, rtol=1e-12)
        assert np.allclose(curl_fd(m.vector_potential, x),
                           m.magnetic_field(x), atol=1e-6)


def test_divergence_checks_all_models():
    gen = rng(15)
    box_pts = [gen.uniform(-2, 2, 3) for _ in range(50)]
    for model in (ms.ConstantB(B=1.0), ms.HelicalB(A_amp=3.0, beta=3.0)):
        rep = ms.divergence_checks(model, box_pts)
        assert rep.max_div_b < 1e-7
        assert rep.max_curl_mismatch < 1e-7
        assert rep.max_div_a < 1e-7
        assert rep.n_points == 50
    rep = ms.divergence_checks(ms.Monopole(g=2.0), monopole_positions(gen, 50))
    assert rep.max_div_b < 1e-7
    assert rep.max_curl_mismatch < 1e-7


def test_divergence_checks_rejects_bad_point():
    with pytest.raises(ms.DomainError):
        ms.divergence_checks(ms.Monopole(g=1.0), [np.array([0.0, 0.0, -1.0])])


def test_gauge_shift_preserves_b_and_jacobian():
    base = ms.HelicalB(A_amp=1.5, beta=2.0)
    chi = ms.GaugeFunction(
        chi=lambda x: np.sin(x[0]) * np.cos(x[1]) * x[2],
        gradient=lambda x: np.array([
            np.cos(x[0]) * np.cos(x[1]) * x[2],
            -np.sin(x[0]) * np.sin(x[1]) * x[2],
            np.sin(x[0]) * np.cos(x[1]),
        ]),
    )
    shifted = ms.gauge_shift(base, chi)
    gen = rng(16)
    for _ in range(25):
        x = gen.uniform(-2, 2, 3)
        assert np.allclose(shifted.vector_potential(x),
                           base.vector_potential(x) + chi.gradient(x))
        assert np.allclose(shifted.magnetic_field(x), base.magnetic_field(x))
        assert np.allclose(curl_fd(shifted.vector_potential, x),
                           base.magnetic_field(x), atol=1e-7)
        assert np.allclose(jacobian_fd(shifted.vector_potential, x),
                           shifted.jacobian_a(x), atol=1e-7)


def test_custom_model_fd_fallbacks():
    base = ms.ConstantB(B=1.7)
    bare = ms.Custom(a=base.vector_potential, v=lambda x: 0.1 * x[0] ** 2)
    gen = rng(17)
    for _ in range(20):
        x = gen.uniform(-2, 2, 3)
        assert np.allclose(bare.magnetic_field(x), [1.7, 0, 0], atol=1e-8)
        assert np.allclose(bare.jacobian_a(x), base.jacobian_a(x), atol=1e-8)
        assert np.allclose(bare.grad_potential(x), [0.2 * x[0], 0, 0], atol=1e-8)


def test_module_level_ops_delegate():
    m = ms.HelicalB(A_amp=1.0, beta=1.0)
    x = np.array([0.1, 0.2, 0.3])
    assert np.allclose(ms.vector_potential(m, x), m.vector_potential(x))
    assert np.allclose(ms.magnetic_field(m, x), m.magnetic_field(x))
    assert ms.scalar_potential(m, x) == m.scalar_potential(x)


def test_model_from_config():
    m = ms.model_from_config({"model": "constant_b", "B": 2.0})
    assert isinstance(m, ms.ConstantB) and m.B == 2.0
    m = ms.model_from_config(
        {"model": "helical", "A_amp": 3.0, "beta": 3.0, "phi0": 0.1})
    assert isinstance(m, ms.HelicalB) and m.phi0 == 0.1
    m = ms.model_from_config(
        {"model": "monopole", "g": 2.0, "Q": 1.0, "potential": "coulomb-only"})
    assert isinstance(m, ms.Monopole) and not m.barrier
    m = ms.model_from_config({"model": "monopole", "g": 2.0})
    assert m.barrier


def test_model_from_config_rejects_bad_input():
    with pytest.raises(ms.ConfigError):
        ms.model_from_config({"model": "nope"})
    with pytest.raises(ms.ConfigError):
        ms.model_from_config({"model": "constant_b", "B": 1.0, "junk": 2})
    with pytest.raises(ms.ConfigError):
        ms.model_from_config({"model": "constant_b", "B": 0.0})
    assert ms.model_from_config({"model": "constant_b", "B": -1.0}).B == -1.0
    with pytest.raises(ms.ConfigError):
        ms.model_from_config({"model": "monopole", "g": 1.0, "potential": "bare"})
    with pytest.raises(ms.ConfigError):
        ms.model_from_config({"no_model": True})


def test_vectors_validated():
    m = ms.ConstantB(B=1.0)
    with pytest.raises(ValueError):
        ms.vector_potential(m, [1.0, 2.0])
    with pytest.raises(ValueError):
        ms.magnetic_field(m, [1.0, np.nan, 0.0])


def _exponents_in_src():
    """The exponents k of every pow(r, k) and _pow(r, k) written in src/."""
    src = Path(ms.__file__).parent
    text = "\n".join(path.read_text() for path in src.glob("*.py"))
    call = r"\bpow\([^()]*(?:\([^()]*\))?[^()]*,\s*(-?[\d.]+)\)"
    return sorted({float(k) for k in re.findall(call, text)})


def test_float_power_has_the_bits_of_libm_pow_for_every_exponent_in_src():
    # _pow on a stack calls np.float_power; a one-point call and the float
    # methods call libm's pow. The two must agree bit for bit on this host
    # and numpy, or stacked and per-point checks part ways in the last bit.
    exponents = _exponents_in_src()
    assert {2.0, 3.0} <= set(exponents)
    gen = rng(2301)
    r = np.concatenate([gen.uniform(lo, hi, 30000)
                        for lo, hi in ((1e-6, 1e-3), (0.01, 50.0), (1e3, 1e8), (-50.0, 50.0))])
    for k in exponents:
        v = r if k.is_integer() else np.abs(r)  # no fractional power of a negative
        want = np.array([x**k for x in v.tolist()])
        got = np.float_power(v, k)
        differ = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
        assert differ.size == 0, (
            f"np.float_power(r, {k}) differs from libm's r**{k} at {differ.size} of "
            f"{v.size} points, first r = {v[differ[0]]!r}; _pow needs the per-point "
            "fallback on this numpy")
        assert np.array_equal(_pow(v, k).view(np.uint64), want.view(np.uint64))


def test_numpy_cos_and_sin_have_the_bits_of_libm():
    # numpy's cos and sin of an array and libm's of a float must agree bit for
    # bit: the last range holds every angle B x/p1 that |x| <= 2 and
    # |p1| >= 1e-8 reach at the sampled |B| <= 2
    gen = rng(2302)
    a = np.concatenate([gen.uniform(lo, hi, 60000) * gen.choice([-1.0, 1.0], 60000)
                        for lo, hi in ((0.0, 50.0), (1e-6, 1e-3), (1e3, 1e8), (1e8, 4e8))])
    for np_fn, libm_fn in ((np.cos, math.cos), (np.sin, math.sin)):
        want = np.array([libm_fn(v) for v in a.tolist()])
        differ = np.flatnonzero(np_fn(a).view(np.uint64) != want.view(np.uint64))
        assert differ.size == 0, (
            f"np.{np_fn.__name__} differs from libm at {differ.size} of {a.size} angles, "
            f"first {a[differ[0]]!r}; HelicalB's stacked methods, the array path of "
            "helix_solution and X5 and X6 with their gradients rely on the match")
