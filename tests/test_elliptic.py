"""Jacobi elliptic functions against scipy and exact identities."""

import math
import warnings

import numpy as np
import pytest
import scipy.special as sps

import magsuper as ms

from helpers import agm, rng


MODULI = (0.0, 0.1, 0.5, 0.9, 0.99, 0.999)


def test_matches_scipy_ellipj():
    gen = rng(41)
    us = np.concatenate([gen.uniform(-100, 100, 40), [0.0, 1.0, -1.0]])
    for k in MODULI:
        sn_ref, cn_ref, dn_ref, _ = sps.ellipj(us, k * k)
        for u, s_r, c_r, d_r in zip(us, sn_ref, cn_ref, dn_ref):
            assert abs(ms.jacobi_sn(u, k) - s_r) < 1e-10
            assert abs(ms.jacobi_cn(u, k) - c_r) < 1e-10
            assert abs(ms.jacobi_dn(u, k) - d_r) < 1e-10


def test_trig_limit():
    for u in (-3.0, -0.5, 0.0, 0.7, 2.5):
        assert ms.jacobi_sn(u, 0.0) == pytest.approx(math.sin(u), abs=1e-15)
        assert ms.jacobi_cn(u, 0.0) == pytest.approx(math.cos(u), abs=1e-15)
        assert ms.jacobi_dn(u, 0.0) == 1.0
        assert ms.jacobi_am(u, 0.0) == pytest.approx(u, abs=1e-15)


def test_hyperbolic_limit():
    for u in (-2.0, 0.0, 0.3, 5.0):
        assert ms.jacobi_sn(u, 1.0) == pytest.approx(math.tanh(u), abs=1e-15)
        assert ms.jacobi_cn(u, 1.0) == pytest.approx(1 / math.cosh(u), abs=1e-15)
        assert ms.jacobi_dn(u, 1.0) == pytest.approx(1 / math.cosh(u), abs=1e-15)
    assert ms.ellipk(1.0) == math.inf


def test_small_modulus_continuity():
    # series branch below 1e-7, Landen above; they must agree at the seam
    for u in (0.3, 1.2, -2.1):
        assert abs(ms.jacobi_sn(u, 9.9e-8) - ms.jacobi_sn(u, 1.01e-7)) < 1e-13
        assert abs(ms.jacobi_sn(u, 1e-8) - math.sin(u)) < 1e-14


def test_ellipk_matches_scipy():
    assert ms.ellipk(0.0) == pytest.approx(math.pi / 2, abs=1e-15)
    for k in (0.1, 0.5, 0.9, 0.99, 0.9999):
        assert ms.ellipk(k) == pytest.approx(float(sps.ellipk(k * k)), rel=1e-14)


def test_pythagorean_identities():
    gen = rng(42)
    for _ in range(60):
        u = float(gen.uniform(-40, 40))
        k = float(gen.uniform(0, 1))
        s = ms.jacobi_sn(u, k)
        c = ms.jacobi_cn(u, k)
        d = ms.jacobi_dn(u, k)
        assert s * s + c * c == pytest.approx(1.0, abs=1e-12)
        assert d * d + (k * s) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_periodicity():
    k = 0.8
    bigk = ms.ellipk(k)
    for u in (-1.7, 0.25, 2.9):
        assert ms.jacobi_sn(u + 4 * bigk, k) == pytest.approx(
            ms.jacobi_sn(u, k), abs=1e-11)
        assert ms.jacobi_sn(u + 2 * bigk, k) == pytest.approx(
            -ms.jacobi_sn(u, k), abs=1e-11)
        assert ms.jacobi_cn(u + 4 * bigk, k) == pytest.approx(
            ms.jacobi_cn(u, k), abs=1e-11)
        assert ms.jacobi_dn(u + 2 * bigk, k) == pytest.approx(
            ms.jacobi_dn(u, k), abs=1e-11)
        assert ms.jacobi_am(u + 2 * bigk, k) == pytest.approx(
            ms.jacobi_am(u, k) + math.pi, abs=1e-11)


def test_inverse_round_trips():
    k = 0.6
    bigk = ms.ellipk(k)
    gen = rng(43)
    for u in gen.uniform(-bigk, bigk, 30):
        assert ms.inv_sn(ms.jacobi_sn(u, k), k) == pytest.approx(float(u), abs=1e-10)
    for phi in gen.uniform(-math.pi / 2, math.pi / 2, 30):
        u = ms.inv_am(float(phi), k)
        assert ms.jacobi_am(u, k) == pytest.approx(float(phi), abs=1e-10)
    assert ms.inv_sn(1.0, k) == pytest.approx(bigk)
    assert ms.inv_sn(-1.0, k) == pytest.approx(-bigk)
    assert ms.inv_sn(0.0, k) == pytest.approx(0.0, abs=1e-15)


def test_agm_basics():
    assert agm(1.0, 1.0) == 1.0
    assert agm(2.0, 8.0) == pytest.approx(agm(8.0, 2.0), rel=1e-15)
    assert agm(0.0, 5.0) == pytest.approx(0.0, abs=1e-12)
    # K(k) = pi / (2 agm(1, k'))
    k = 0.7
    kp = math.sqrt(1 - k * k)
    assert ms.ellipk(k) == pytest.approx(math.pi / (2 * agm(1.0, kp)), rel=1e-15)
    with pytest.raises(ValueError):
        agm(-1.0, 2.0)


def test_domain_validation():
    for bad in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError):
            ms.jacobi_sn(0.5, bad)
        with pytest.raises(ValueError):
            ms.ellipk(bad)
    with pytest.raises(ValueError):
        ms.inv_sn(1.5, 0.5)
    with pytest.raises(ValueError):
        ms.inv_am(2.0, 0.5)


@pytest.mark.parametrize("call", [lambda: ms.jacobi_sn(0.1, "a"), lambda: ms.ellipk("a"),
                                  lambda: ms.inv_am(0.1, "a")])
def test_a_modulus_that_is_not_a_number_is_refused_by_name(call):
    with pytest.raises(ms.ParameterError, match="^modulus k 'a' is not a number$"):
        call()


@pytest.mark.parametrize("name", ["jacobi_sn", "jacobi_cn", "jacobi_dn", "jacobi_am"])
@pytest.mark.parametrize("u, message", [
    (None, "u None is not a number"),
    ("x", "u 'x' is not a number"),
    (True, "u True is not a number"),
    (math.inf, "u inf is not finite"),
    (-math.inf, "u -inf is not finite"),
    (math.nan, "u nan is not finite"),
    (np.array(math.inf), r"u array\(inf\) is not finite"),
    (np.array([0.5, math.inf]), "u is not an array of finite real numbers"),
    ([0.5, "x"], "u is not an array of finite real numbers"),
    (1e308, r"u 1e\+308 is beyond the range of scipy's ellipj"),
    (np.array([0.5, 1e308]), "u is beyond the range of scipy's ellipj"),
])
def test_jacobi_functions_refuse_arguments_by_name(name, u, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ms.ParameterError, match=f"^{name} {message}$"):
            getattr(ms, name)(u, 0.5)


def test_jacobi_functions_keep_scipys_values():
    us = [-3.0, 0.0, 0.25, 2.5]
    for k in MODULI:
        want = sps.ellipj(np.array(us), k * k)
        for name, column in zip(("jacobi_sn", "jacobi_cn", "jacobi_dn", "jacobi_am"), want):
            f = getattr(ms, name)
            assert np.array_equal(f(us, k), column)
            assert [f(u, k) for u in us] == column.tolist()
