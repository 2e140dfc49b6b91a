"""Field models: values, derivatives, domains, gauge shifts."""

import numpy as np
import pytest

import magsuper as ms
from magsuper.fields import curl_fd, jacobian_fd

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
