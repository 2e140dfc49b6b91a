"""Closed-form trajectories: helix, pendulum reduction, elliptic z(t)."""

import math
import re
import warnings

import numpy as np
import pytest

import magsuper as ms

from helpers import pendulum_z_mp, random_states, rng, separatrix_z


TIGHT = ms.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12)


def _helical():
    return ms.HelicalB(A_amp=1.0, beta=1.0)


def test_helix_satisfies_equations_of_motion():
    B = 1.7
    model = ms.ConstantB(B=B)
    gen = rng(51)
    h = 1e-6
    for s0 in random_states(gen, 10):
        for t in (0.0, 0.9, 4.3):
            st = ms.helix_solution(B, s0, t)
            f = np.array(model.hamilton_rhs(st.as_array().tolist()))
            dx_want, dp_want = f[:3], f[3:]
            plus = ms.helix_solution(B, s0, t + h)
            minus = ms.helix_solution(B, s0, t - h)
            assert np.allclose((plus.x - minus.x) / (2 * h), dx_want, atol=1e-7)
            assert np.allclose((plus.p - minus.p) / (2 * h), dp_want, atol=1e-7)


def test_helix_matches_numerical_integration():
    B = 1.5
    model = ms.ConstantB(B=B)
    s0 = ms.PhaseState([0.3, -0.2, 0.8], [0.9, 0.1, -0.4])
    traj = ms.integrate(model, s0, 10.0, TIGHT)
    for t in np.linspace(0.0, 10.0, 25):
        want = ms.helix_solution(B, s0, float(t))
        got = traj.sample(float(t))
        assert np.max(np.abs(got.x - want.x)) < 1e-9
        assert np.max(np.abs(got.p - want.p)) < 1e-9


def test_helix_requires_field():
    with pytest.raises(ValueError):
        ms.helix_solution(0.0, ms.PhaseState([0, 0, 0], [1, 0, 0]), 1.0)


@pytest.mark.parametrize("B, t, message", [
    ("1", 1.0, "helix_solution B '1' is not a number"),
    (math.nan, 1.0, "helix_solution B nan is not finite"),
    (None, 1.0, "helix_solution B None is not a number"),
    (1.0, "1", "helix_solution t '1' is not a number"),
    (1.0, math.inf, "helix_solution t inf is not finite"),
    (True, 1.0, "helix_solution B True is not a number"),
    (np.float64(math.inf), 1.0, r"helix_solution B np\.float64\(inf\) is not finite"),
    (1.0, np.float64(math.nan), r"helix_solution t np\.float64\(nan\) is not finite"),
    (1.0, np.array(-math.inf), r"helix_solution t array\(-inf\) is not finite"),
    (1.0, None, "helix_solution t None is not a number"),
])
def test_helix_refuses_arguments_that_are_not_finite_reals_by_name(B, t, message):
    with pytest.raises(ms.ParameterError, match=f"^{message}$"):
        ms.helix_solution(B, ms.PhaseState([0, 0, 0], [1, 0, 0]), t)


@pytest.mark.parametrize("t", [np.array([0.0, math.inf]), np.array([-math.inf, 1.0]),
                               np.array([1.0, math.nan]), np.array([[1e308]]), ["a"]],
                         ids=["inf", "-inf", "nan", "2-D", "str"])
def test_helix_refuses_an_array_of_times_that_are_not_finite_reals(t):
    with pytest.raises(ms.ParameterError,
                       match="^helix_solution t is not a 1-D array of finite times$"):
        ms.helix_solution(1.0, ms.PhaseState([0, 0, 0], [1, 0, 0]), t)


def test_helix_refuses_a_state_beyond_the_double_range():
    # x = x0 + p1 t overflows at a finite t
    s0 = ms.PhaseState([0.0, 0.0, 0.0], [4.0, 0.0, 0.0])
    with pytest.raises(ms.ParameterError, match="^vector has non-finite components$"):
        ms.helix_solution(1.0, s0, 1e308)


@pytest.mark.parametrize("B, p, message", [
    (1.0, [4.0, 0.0, 0.0], "vector has non-finite components"),  # x = p1 t
    (10.0, [0.0, 0.0, 0.0], "helix_solution phase B t is beyond the double range"),
], ids=["x", "phase"])
def test_helix_refuses_a_time_beyond_the_double_range_alone_and_in_an_array(B, p, message):
    # at t = 1e308 among finite times as at t = 1e308 alone, and with no
    # numpy warning on the way
    s0 = ms.PhaseState([0.0, 0.0, 0.0], p)
    for t in (1e308, np.array([1.0, 1e308]), np.array([1e308, 1.0]), [2.0, 1e308]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ms.ParameterError, match=f"^{message}$"):
                ms.helix_solution(B, s0, t)
    # the finite times alone still pass
    assert np.isfinite(np.hstack(ms.helix_solution(B, s0, np.array([1.0, 2.0])))).all()


_HELICAL_REDUCTION = ms.pendulum_reduction(
    ms.HelicalB(1.0, 1.0), ms.PhaseState([0.1, 0.2, 0.3], [0.5, 0.3, 0.4]))


@pytest.mark.parametrize("call, message", [
    (lambda s: ms.x5_integral("1", s), "x5_integral B '1' is not a number"),
    (lambda s: ms.x5_integral(math.nan, s), "x5_integral B nan is not finite"),
    (lambda s: ms.x6_integral(None, s), "x6_integral B None is not a number"),
    (lambda s: ms.helical_z_of_t(ms.ConstantB(1.0), _HELICAL_REDUCTION, 1.0),
     r"helical_z_of_t needs a HelicalB model, got ConstantB\(B=1.0\)"),
    (lambda s: ms.helical_z_of_t(ms.HelicalB(1.0, 1.0), None, 1.0),
     "helical_z_of_t needs a PendulumReduction, got None"),
])
def test_closed_form_entry_points_refuse_bad_arguments_by_name(call, message):
    with pytest.raises(ms.ParameterError, match=f"^{message}$"):
        call(ms.PhaseState([0.1, 0.2, 0.3], [0.5, 0.3, 0.4]))


_LIBRATING = _HELICAL_REDUCTION
_ROTATING = ms.pendulum_reduction(
    ms.HelicalB(1.0, 1.0), ms.PhaseState([0.1, 0.2, 0.3], [0.5, 0.3, 3.0]))


@pytest.mark.parametrize("red", [_LIBRATING, _ROTATING], ids=["librating", "rotating"])
@pytest.mark.parametrize("t, message", [
    (None, "helical_z_of_t t None is not a number"),
    (math.nan, "helical_z_of_t t nan is not finite"),
    (math.inf, "helical_z_of_t t inf is not finite"),
    (-math.inf, "helical_z_of_t t -inf is not finite"),
    ("a", "helical_z_of_t t 'a' is not a number"),
    (np.array(math.nan), r"helical_z_of_t t array\(nan\) is not finite"),
    (np.array([1.0, math.inf]), "helical_z_of_t t is not an array of finite real numbers"),
    ([1.0, "a"], "helical_z_of_t t is not an array of finite real numbers"),
    ([None], "helical_z_of_t t is not an array of finite real numbers"),
])
def test_helical_z_refuses_times_that_are_not_finite_reals_by_name(red, t, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ms.ParameterError, match=f"^{message}$"):
            ms.helical_z_of_t(ms.HelicalB(1.0, 1.0), red, t)


def test_helical_z_refuses_a_rotating_phase_beyond_the_double_range():
    # the rotating phase grows faster than t and overflows at t = 1e308,
    # alone and among finite times, with no numpy warning on the way
    model = ms.HelicalB(1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ms.ParameterError, match="^helical_z_of_t t 1e\\+308 takes the phase "
                                                    "beyond the double range$"):
            ms.helical_z_of_t(model, _ROTATING, 1e308)
        with pytest.raises(ms.ParameterError, match="^helical_z_of_t t takes the phase "
                                                    "beyond the double range$"):
            ms.helical_z_of_t(model, _ROTATING, np.array([1.0, 1e308]))
        # the finite times alone still pass, each with the bits of its scalar call
        times = np.array([1.0, 1e300])
        z = ms.helical_z_of_t(model, _ROTATING, times)
        assert [ms.helical_z_of_t(model, _ROTATING, t) for t in times.tolist()] == z.tolist()


def test_pendulum_reduction_of_another_model_names_it():
    s0 = ms.PhaseState([0.1, 0.2, 0.3], [0.5, 0.3, 0.4])
    with pytest.raises(ms.ParameterError,
                       match=r"^pendulum_reduction needs a HelicalB model, got ConstantB\(B=1.0\)$"):
        ms.pendulum_reduction(ms.ConstantB(1.0), s0)


@pytest.mark.parametrize("p, kappa, message", [
    (-1.0, 0.0, "momentum modulus p must be nonnegative"),
    (1.0, -1.5, "kappa < -1 is unphysical"),
])
def test_pendulum_reduction_refuses_unphysical_constants(p, kappa, message):
    with pytest.raises(ms.ParameterError, match=f"^{message}$"):
        ms.PendulumReduction(p=p, phi_p=0.0, kappa=kappa, tau0=0.0, z0=0.0, zdot0=0.0)


@pytest.mark.parametrize("field, value, message", [
    ("p", math.nan, "PendulumReduction p nan is not finite"),
    ("kappa", math.nan, "PendulumReduction kappa nan is not finite"),
    ("tau0", math.inf, "PendulumReduction tau0 inf is not finite"),
    ("p", "a", "PendulumReduction p 'a' is not a number"),
])
def test_pendulum_reduction_refuses_constants_that_are_not_finite_reals(field, value, message):
    constants = {"p": 1.0, "phi_p": 0.0, "kappa": 0.0, "tau0": 0.0, "z0": 0.0, "zdot0": 0.0}
    with pytest.raises(ms.ParameterError, match=f"^{message}$"):
        ms.PendulumReduction(**{**constants, field: value})


@pytest.mark.parametrize("call, message", [
    (lambda: ms.zeta_solution(_HELICAL_REDUCTION, math.nan), "zeta_solution tau nan is not finite"),
    (lambda: ms.zeta_solution(_HELICAL_REDUCTION, math.inf), "zeta_solution tau inf is not finite"),
    (lambda: ms.zeta_solution(_HELICAL_REDUCTION, "x"), "zeta_solution tau 'x' is not a number"),
    (lambda: ms.zeta_solution("x", 1.0), "zeta_solution red 'x' is not a PendulumReduction"),
    (lambda: ms.tilde_transform("x"), "tilde_transform s 'x' is not a PhaseState"),
])
def test_reduced_entry_points_refuse_bad_arguments_by_name(call, message):
    with pytest.raises(ms.ParameterError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("red", [_LIBRATING, _ROTATING], ids=["librating", "rotating"])
@pytest.mark.parametrize("tau", [1e308, -1e308])
def test_zeta_refuses_a_tau_beyond_the_range_of_the_elliptic_functions(red, tau):
    # the elliptic argument is finite but beyond what scipy's ellipj evaluates
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = f"zeta_solution tau {tau!r} is beyond the range of scipy's ellipj"
        with pytest.raises(ms.ParameterError, match=f"^{re.escape(message)}$"):
            ms.zeta_solution(red, tau)


def test_x5_x6_constant_along_helix():
    B = 2.0
    s0 = ms.PhaseState([0.1, 0.5, -0.3], [1.2, 0.4, 0.7])
    v5_0 = ms.x5_integral(B, s0)
    v6_0 = ms.x6_integral(B, s0)
    for t in np.linspace(0.0, 15.0, 40):
        st = ms.helix_solution(B, s0, float(t))
        assert ms.x5_integral(B, st) == pytest.approx(v5_0, abs=1e-10)
        assert ms.x6_integral(B, st) == pytest.approx(v6_0, abs=1e-10)
    # X5^2 + X6^2 = (B z - p2)^2 + p3^2 = 2H - p1^2
    h0 = ms.hamiltonian(ms.ConstantB(B=B), s0)
    assert v5_0**2 + v6_0**2 == pytest.approx(2 * h0 - s0.p[0] ** 2, rel=1e-12)


def test_degenerate_momentum_paths():
    B = 1.0
    flat = ms.PhaseState([0.5, 0, 0], [1e-10, 0.3, 0.2])
    with pytest.raises(ms.DegenerateMomentum):
        ms.x5_integral(B, flat)
    with pytest.raises(ms.DegenerateMomentum):
        ms.x6_integral(B, flat)
    with pytest.raises(ms.DegenerateMomentum):
        ms.tilde_transform(ms.PhaseState([0, 0, 0], [-1.0, 0, 0]))
    with pytest.raises(ms.DegenerateMomentum):
        ms.pendulum_reduction(_helical(), ms.PhaseState([0, 0, 0], [0, 0, 1.0]))


def test_tilde_transform_values():
    s = ms.PhaseState([3.0, 0, 0], [2.0, 1.0, -1.0])
    xt, e1 = ms.tilde_transform(s)
    assert xt == pytest.approx(1.5)
    assert e1 == pytest.approx(2.0)


def test_reference_kappa_values():
    model = _helical()
    librating = ms.pendulum_reduction(
        model, ms.PhaseState([0, 0, 0], [3.0, 0.0, 3.2]))
    assert librating.kappa == 3.2**2 / 6.0 - 1.0
    assert librating.regime == "librating"

    critical = ms.pendulum_reduction(
        model, ms.PhaseState([0, 0, 0], [3.0, 0.0, 2.0 * math.sqrt(3.0)]))
    assert abs(critical.kappa - 1.0) < 1e-14
    assert critical.regime == "separatrix"

    rotating = ms.pendulum_reduction(
        model, ms.PhaseState([0, 0, 0], [3.0, 0.0, 3.8]))
    assert rotating.kappa == pytest.approx(3.8**2 / 6.0 - 1.0, rel=1e-15)
    assert rotating.regime == "rotating"


def _red_for_kappa(kappa):
    return ms.PendulumReduction(p=1.0, phi_p=0.0, kappa=kappa,
                                tau0=0.0, z0=0.0, zdot0=1.0)


def test_zeta_satisfies_cubic_ode():
    # (dzeta/dtau)^2 + (zeta - 1)(zeta + 1)(zeta + kappa) == 0
    # step 1e-5 balances truncation against roundoff in the quotient
    gen = rng(52)
    h = 1e-5
    for _ in range(1000):
        if gen.uniform() < 0.5:
            kappa = float(gen.uniform(-0.95, 0.95))
        else:
            kappa = float(gen.uniform(1.05, 5.0))
        red = _red_for_kappa(kappa)
        tau = float(gen.uniform(-20, 20))
        z = ms.zeta_solution(red, tau)
        dz = (ms.zeta_solution(red, tau + h) - ms.zeta_solution(red, tau - h)) / (2 * h)
        resid = dz**2 + (z - 1.0) * (z + 1.0) * (z + kappa)
        assert abs(resid) < 1e-8, (kappa, tau, resid)


def test_zeta_reference_turning_values():
    model = _helical()
    lib = ms.pendulum_reduction(model, ms.PhaseState([0, 0, 0.4], [3.0, 0.0, 1.5]))
    assert ms.zeta_solution(lib, lib.tau0) == pytest.approx(-lib.kappa, abs=1e-9)
    rot = ms.pendulum_reduction(model, ms.PhaseState([0, 0, 0.4], [3.0, 0.0, 3.9]))
    assert ms.zeta_solution(rot, rot.tau0) == pytest.approx(-1.0, abs=1e-9)
    # zeta equals cos(theta) at tau = 0, i.e. at the initial state
    theta0 = (lib.z0 - lib.phi_p) / model.beta
    assert ms.zeta_solution(lib, 0.0) == pytest.approx(math.cos(theta0), abs=1e-9)


def test_zeta_regime_guards():
    with pytest.raises(ms.SeparatrixRegime):
        ms.zeta_solution(_red_for_kappa(1.0), 0.5)
    with pytest.raises(ms.DegenerateKappa):
        ms.zeta_solution(_red_for_kappa(-1.0), 0.5)
    with pytest.raises(ValueError):
        _red_for_kappa(-1.5)


def _z_error(model, s0, t_end=20.0, n=80):
    red = ms.pendulum_reduction(model, s0)
    traj = ms.integrate(model, s0, t_end, TIGHT)
    ts = np.linspace(0.0, t_end, n)
    zc = ms.helical_z_of_t(model, red, ts)
    zn = np.array([traj.sample(float(t)).x[2] for t in ts])
    return red, float(np.max(np.abs(zc - zn)))


def test_closed_form_z_librating():
    red, err = _z_error(_helical(), ms.PhaseState([0, 0, 0], [3.0, 0.0, 3.2]))
    assert red.regime == "librating"
    assert err < 1e-6


def test_closed_form_z_rotating():
    red, err = _z_error(_helical(), ms.PhaseState([0, 0, 0], [3.0, 0.0, 3.8]))
    assert red.regime == "rotating"
    assert err < 1e-6


def test_closed_form_z_negative_vertical_speed():
    red, err = _z_error(_helical(), ms.PhaseState([0, 0, 0.3], [3.0, 0.0, -1.5]))
    assert red.regime == "librating"
    assert err < 1e-6
    red, err = _z_error(_helical(), ms.PhaseState([0, 0, 0.3], [3.0, 0.0, -3.8]))
    assert red.regime == "rotating"
    assert err < 1e-6


def test_closed_form_z_separatrix_band():
    # deviations grow like exp(sqrt(3) t) here, so keep the horizon short
    s0 = ms.PhaseState([0, 0, 0], [3.0, 0.0, 2.0 * math.sqrt(3.0)])
    red, err = _z_error(_helical(), s0, t_end=8.0)
    assert red.regime == "separatrix"
    assert err < 1e-6
    with pytest.raises(ms.SeparatrixRegime):
        ms.zeta_solution(red, 1.0)


_PHI0_MODEL = ms.HelicalB(A_amp=0.7, beta=-1.3, phi0=0.4)
# theta0 = -0.4 / 1.3 and kappa = 1 at p = (2, 0, p3), as 2 A p = 2.8
_PHI0_P3 = math.sqrt(2.8 * (1.0 + math.cos(0.4 / 1.3)))


# each bound is the error of the solve_ivp (DOP853, 1e-12) route that the
# Dormand-Prince loop replaced, on the same state and times, cut to 3 digits
@pytest.mark.parametrize("model, s0, bound", [
    (_helical(), ms.PhaseState([0, 0, 0], [3.0, 0.0, 2.0 * math.sqrt(3.0)]), 1.64e-8),
    (_helical(), ms.PhaseState([0, 0, 0], [3.0, 0.0, -2.0 * math.sqrt(3.0)]), 1.64e-8),
    (_PHI0_MODEL, ms.PhaseState([0, 0, 0], [2.0, 0.0, _PHI0_P3]), 3.45e-11),
], ids=["up", "down", "phi0"])
def test_separatrix_z_matches_the_exact_kappa_one_solution(model, s0, bound):
    red = ms.pendulum_reduction(model, s0)
    assert abs(red.kappa - 1.0) < 1e-15
    ts = np.linspace(-8.0, 8.0, 4001)
    err = np.max(np.abs(ms.helical_z_of_t(model, red, ts) - separatrix_z(model, s0, ts)))
    assert err < bound, err


@pytest.mark.parametrize("dkappa, z0, sign, bound", [
    (-5e-7, 0.0, 1.0, 1.63e-8),
    (-5e-7, 0.5, -1.0, 2.89e-8),
    (5e-7, 0.0, -1.0, 1.65e-8),
    (5e-7, 0.5, 1.0, 2.86e-8),
], ids=["librating-up", "librating-down", "rotating-down", "rotating-up"])
def test_near_separatrix_z_matches_the_elliptic_solution(dkappa, z0, sign, bound):
    # inside the separatrix band, against the elliptic solution at 30 digits;
    # bounds as for the kappa = 1 states above
    model = _helical()
    p3 = sign * math.sqrt(6.0 * (1.0 + dkappa + math.cos(z0)))
    s0 = ms.PhaseState([0, 0, z0], [3.0, 0.0, p3])
    red = ms.pendulum_reduction(model, s0)
    assert red.regime == "separatrix"
    assert red.kappa - 1.0 == pytest.approx(dkappa, rel=1e-6)
    ts = np.linspace(-8.0, 8.0, 81)
    err = np.max(np.abs(ms.helical_z_of_t(model, red, ts) - pendulum_z_mp(model, s0, ts)))
    assert err < bound, err


def test_closed_form_z_nonzero_phase_offset():
    model = ms.HelicalB(A_amp=1.0, beta=1.0, phi0=0.7)
    for p3 in (1.5, 3.8):
        _, err = _z_error(model, ms.PhaseState([0, 0, 0.2], [3.0, 0.0, p3]))
        assert err < 1e-6


def test_closed_form_z_wound_start():
    model = _helical()
    z0 = 6.0 * math.pi + 0.3
    _, err = _z_error(model, ms.PhaseState([0, 0, z0], [3.0, 0.0, 1.5]))
    assert err < 1e-6


def test_rest_state_stays_put():
    model = _helical()
    # zdot = 0 at the potential minimum theta = 0: kappa = -1
    s0 = ms.PhaseState([0, 0, 0], [3.0, 0.0, 0.0])
    red = ms.pendulum_reduction(model, s0)
    assert red.kappa == -1.0
    ts = np.linspace(0.0, 12.0, 30)
    assert np.max(np.abs(ms.helical_z_of_t(model, red, ts) - 0.0)) < 1e-12
    with pytest.raises(ms.DegenerateKappa):
        ms.zeta_solution(red, 1.0)


def test_bounded_and_unbounded_z():
    model = _helical()
    ts = np.linspace(0.0, 60.0, 600)
    lib = ms.pendulum_reduction(model, ms.PhaseState([0, 0, 0], [3.0, 0.0, 3.2]))
    z = ms.helical_z_of_t(model, lib, ts)
    bound = abs(model.beta) * math.acos(-lib.kappa)
    assert np.max(np.abs(z - lib.phi_p)) <= bound + 1e-9

    rot = ms.pendulum_reduction(model, ms.PhaseState([0, 0, 0], [3.0, 0.0, 3.8]))
    z = ms.helical_z_of_t(model, rot, ts)
    assert np.all(np.diff(z) > 0)
    down = ms.pendulum_reduction(model, ms.PhaseState([0, 0, 0], [3.0, 0.0, -3.8]))
    z = ms.helical_z_of_t(model, down, ts)
    assert np.all(np.diff(z) < 0)


def test_helical_z_scalar_and_array_agree():
    model = _helical()
    red = ms.pendulum_reduction(model, ms.PhaseState([0, 0, 0], [3.0, 0.0, 3.2]))
    ts = np.array([0.0, 1.3, 7.7])
    arr = ms.helical_z_of_t(model, red, ts)
    assert arr.shape == (3,)
    for t, z in zip(ts, arr):
        scalar = ms.helical_z_of_t(model, red, float(t))
        assert isinstance(scalar, float)
        assert scalar == pytest.approx(z, abs=1e-12)
