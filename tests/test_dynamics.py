"""Equations of motion, integrators, trajectory diagnostics."""

import math
import warnings

import numpy as np
import pytest

import magsuper as ms
from magsuper import dynamics

from helpers import boris_numpy, kepler_orbit, monopole_states, random_states, rng


def _models():
    return [
        ms.ConstantB(B=1.0),
        ms.HelicalB(A_amp=3.0, beta=3.0),
        ms.Monopole(g=2.0, Q=1.0),
        ms.Cylindrical(
            f1=lambda r: r**2, df1=lambda r: 2 * r,
            f2=lambda r: r**3, df2=lambda r: 3 * r**2,
            v=lambda r: 0.5 * r**2, dv=lambda r: r,
        ),
    ]


def _states_for(model, gen, n):
    if isinstance(model, ms.Monopole):
        return monopole_states(gen, n)
    states = random_states(gen, n)
    if isinstance(model, ms.Cylindrical):
        states = [s for s in states if np.hypot(s.x[0], s.x[1]) > 0.3]
    return states


def test_eom_matches_hamiltonian_gradients():
    # dual route: rhs formula vs central differences of H
    gen = rng(21)
    h = 1e-6
    for model in _models():
        for s in _states_for(model, gen, 12):
            f = model.hamilton_rhs(s.as_array().tolist())
            dx, dp = f[:3], f[3:]
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                dHdp = (ms.hamiltonian(model, ms.PhaseState(s.x, s.p + e))
                        - ms.hamiltonian(model, ms.PhaseState(s.x, s.p - e))) / (2 * h)
                dHdx = (ms.hamiltonian(model, ms.PhaseState(s.x + e, s.p))
                        - ms.hamiltonian(model, ms.PhaseState(s.x - e, s.p))) / (2 * h)
                assert abs(dx[k] - dHdp) < 1e-6
                assert abs(dp[k] + dHdx) < 1e-6


def test_rk45_energy_conservation():
    gen = rng(22)
    for model in _models():
        s0 = _states_for(model, gen, 1)[0]
        traj = ms.integrate(model, s0, 10.0)
        assert traj.energy_drift() < 1e-8
        assert traj.times[0] == 0.0
        assert traj.times[-1] == 10.0


def test_boris_exact_energy_for_pure_magnetic_field():
    model = ms.ConstantB(B=1.3)
    s0 = ms.PhaseState([0.2, -0.4, 0.9], [1.0, 0.3, -0.7])
    cfg = ms.IntegratorConfig(method="boris", dt=1e-2)
    traj = ms.integrate(model, s0, 100.0, cfg)
    assert traj.energy_drift() < 1e-10
    assert traj.method == "boris"


def test_boris_tracks_rk45():
    model = ms.HelicalB(A_amp=1.0, beta=1.0)
    s0 = ms.PhaseState([0.1, 0.0, 0.3], [1.2, 0.4, 0.5])
    ref = ms.integrate(model, s0, 5.0)
    cfg = ms.IntegratorConfig(method="boris", dt=1e-3)
    traj = ms.integrate(model, s0, 5.0, cfg)
    assert np.max(np.abs(traj.final_state.x - ref.final_state.x)) < 1e-5
    assert np.max(np.abs(traj.final_state.p - ref.final_state.p)) < 1e-5


def test_watched_integrals_stay_constant():
    model = ms.ConstantB(B=2.0)
    s0 = ms.PhaseState([0.0, 1.0, 0.5], [1.1, 0.2, -0.3])
    traj = ms.integrate(model, s0, 20.0, watch=ms.known_integrals(model))
    assert set(traj.diagnostics) == {"X1", "X2", "X3", "X4"}
    for name in traj.diagnostics:
        assert traj.drift(name) < 1e-8, name


def test_watch_accepts_callables_and_named_objects():
    model = ms.ConstantB(B=1.0)
    s0 = ms.PhaseState([0, 0, 0], [1.0, 0, 0])
    fn = ms.PhaseFunction("half_px", lambda s: 0.5 * s.p[0])
    traj = ms.integrate(model, s0, 1.0, watch=[fn, lambda s: s.x[2]])
    assert "half_px" in traj.diagnostics
    assert "watch1" in traj.diagnostics
    with pytest.raises(TypeError):
        ms.integrate(model, s0, 1.0, watch=[object()])


def test_dense_sampling_matches_closed_form():
    model = ms.ConstantB(B=1.5)
    s0 = ms.PhaseState([0.3, -0.2, 0.8], [0.9, 0.1, -0.4])
    traj = ms.integrate(model, s0, 10.0)
    gen = rng(23)
    for t in gen.uniform(0, 10, 20):
        got = traj.sample(t)
        want = ms.helix_solution(1.5, s0, float(t))
        assert np.max(np.abs(got.x - want.x)) < 1e-8
        assert np.max(np.abs(got.p - want.p)) < 1e-8


def test_hermite_sampling_for_boris():
    model = ms.ConstantB(B=1.0)
    s0 = ms.PhaseState([0.0, 0.0, 0.0], [1.0, 0.5, 0.2])
    cfg = ms.IntegratorConfig(method="boris", dt=1e-3)
    traj = ms.integrate(model, s0, 2.0, cfg)
    for t in (0.0, 0.3777, 1.25001, 2.0):
        got = traj.sample(t)
        want = ms.helix_solution(1.0, s0, t)
        assert np.max(np.abs(got.x - want.x)) < 1e-6
    with pytest.raises(ValueError):
        traj.sample(2.5)
    with pytest.raises(ValueError):
        traj.sample(-0.1)


def test_runaway_potential_raises_step_failure():
    model = ms.Custom(a=lambda x: np.zeros(3), v=lambda x: -float((x @ x) ** 2))
    s0 = ms.PhaseState([1.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    with pytest.raises(ms.StepFailure):
        ms.integrate(model, s0, 10.0)


def test_non_finite_state_raises_step_failure():
    # dp_z/dt = B (p_y - B z) overflows to inf; the next stage state is not finite
    model = ms.ConstantB(B=1e200)
    s0 = ms.PhaseState([0.0, 0.0, 0.0], [0.0, 1e200, 0.0])
    # the stages run on Python floats, so no RuntimeWarning comes first
    with pytest.raises(ms.StepFailure,
                       match=r"^integration aborted: vector has non-finite components$"):
        ms.integrate(model, s0, 1.0)


def test_overflowing_right_hand_side_raises_step_failure():
    # |x|^3 of Python floats overflows in the monopole's force
    s0 = ms.PhaseState([1e110, 0.0, 1e110], [0.0, 0.0, 0.0])
    with pytest.raises(ms.StepFailure, match="^a field value overflowed the double range"):
        ms.integrate(ms.Monopole(g=2.0, Q=1.0), s0, 1.0)


@pytest.mark.parametrize("cfg", [ms.IntegratorConfig(),
                                 ms.IntegratorConfig(method="boris", dt=0.01)],
                         ids=["rk45", "boris"])
def test_orbit_into_the_helical_phase_overflow_raises_domain_error(cfg):
    # B = A_amp / beta = 1, and an A of size 1e-300 leaves v = p + A almost
    # free: z runs at 1e8 past 1.8e8, where u = z / beta leaves the double range
    model = ms.HelicalB(A_amp=1e-300, beta=1e-300)
    s0 = ms.PhaseState([0.0, 0.0, 1.7e8], [0.0, 0.0, 1e8])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ms.DomainError, match="puts the helical phase") as run:
            ms.integrate(model, s0, 1.0, cfg)
        # at the start, the domain test of integrate refuses it
        with pytest.raises(ms.DomainError, match="puts the helical phase"):
            ms.integrate(ms.HelicalB(1.0, 1e-3), ms.PhaseState([0.0, 0.0, 1e306], s0.p), 1.0, cfg)
    msg = str(run.value)
    point = np.array([float(c) for c in msg[msg.index("[") + 1:msg.index("]")].split()])
    assert point[2] > 1.7e8


def test_monopole_orbit_into_the_dirac_string_raises_domain_error():
    # on the z-axis with V = 0 the force vanishes: free fall through the
    # center's neighbourhood onto the negative z-axis
    model = ms.Monopole(g=1.0, Q=0.0, barrier=False)
    s0 = ms.PhaseState([0.0, 0.0, 1.0], [0.0, 0.0, -1.0])
    with pytest.raises(ms.DomainError) as run:
        ms.integrate(model, s0, 3.0)
    msg = str(run.value)
    assert msg.endswith(" lies on the Dirac string (negative z-axis)")
    point = np.array([float(c) for c in msg[msg.index("[") + 1:msg.index("]")].split()])
    assert point[0] == point[1] == 0.0 and point[2] < 0.0
    with pytest.raises(ms.DomainError) as direct:
        model.check_domain(point)
    assert msg == str(direct.value)


def test_the_inlined_monopole_source_raises_the_domain_error_in_a_run():
    # the stage that lands on the string raises from the generated attempt,
    # which writes the model's source in place and calls nothing
    model = ms.Monopole(g=1.0, Q=0.0, barrier=False)
    s0 = ms.PhaseState([0.0, 0.0, 1.0], [0.0, 0.0, -1.0])
    with pytest.raises(ms.DomainError, match=r"lies on the Dirac string \(negative z-axis\)$") as run:
        ms.integrate(model, s0, 3.0)
    tb = run.tb
    while tb.tb_next is not None:
        tb = tb.tb_next
    assert tb.tb_frame.f_code.co_filename == "<dp5 stepper, n=6>"


def test_monopole_state_beside_the_string_raises_domain_error():
    # r + z, the gauge's denominator in g / (r (r + z)), rounds to 0 or
    # falls below the relative clearance: refused like a point on the string
    model = ms.Monopole(g=1.0, Q=1.0)
    clear = np.array([[1e-3, 0.0, -1.0], [0.0, 0.0, 1.0], [1.0, 1.0, -1.0]])
    model.check_domain(clear)
    for x in ([1e-8, 0.0, -1.0], [1e-5, 1e-5, -3.0], [0.0, 1e-9, -1e-3]):
        s0 = ms.PhaseState(x, [0.1, 0.2, 0.3])
        with pytest.raises(ms.DomainError) as direct:
            model.check_domain(s0.x)
        assert str(direct.value).startswith(f"point {s0.x} ")
        with pytest.raises(ms.DomainError) as run:
            ms.integrate(model, s0, 1.0)
        assert str(run.value) == str(direct.value)
        # the same predicate serves stacks
        with pytest.raises(ms.DomainError) as stacked:
            model.check_domain(np.vstack([clear, s0.x]))
        assert str(stacked.value) == str(direct.value)


@pytest.mark.parametrize("g, q, a", [(0.5, 1.0, 2.0), (1.2, 2.0, 3.0), (0.3, 0.7, 1.5)])
def test_mic_kepler_orbits_close(g, q, a):
    # bounded orbits of the superintegrable monopole close after T
    x0, p0, energy, period, r_max = kepler_orbit(rng(31), g, q, a)
    model = ms.Monopole(g=g, Q=q)
    s0 = ms.PhaseState(x0, p0)
    assert ms.hamiltonian(model, s0) == pytest.approx(energy, rel=1e-12)
    cfg = ms.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12)
    traj = ms.integrate(model, s0, 3.0 * period, cfg)
    for n in (1, 2, 3):
        assert np.linalg.norm(traj.sample(n * period).x - x0) <= 1e-9 * r_max
    # and not after half a period
    assert np.linalg.norm(traj.sample(0.5 * period).x - x0) > 1e-3 * r_max


@pytest.mark.parametrize("g, q, a", [(0.5, 1.0, 2.0), (1.2, 2.0, 3.0), (0.3, 0.7, 1.5)])
def test_boris_closure_error_falls_like_dt_squared(g, q, a):
    # the same closed MIC-Kepler orbits, one period of the second-order
    # Boris scheme: each halving of dt divides the closure error by about 4
    x0, p0, _, period, r_max = kepler_orbit(rng(31), g, q, a)
    model = ms.Monopole(g=g, Q=q)
    errors = []
    for steps in (400, 800, 1600):
        cfg = ms.IntegratorConfig(method="boris", dt=period / steps)
        traj = ms.integrate(model, ms.PhaseState(x0, p0), period, cfg)
        errors.append(np.linalg.norm(traj.x[-1] - x0) / r_max)
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.8 <= coarse / fine <= 4.2


def _custom_model():
    # B is the model's own central-difference curl of A; grad V is written out
    return ms.Custom(a=lambda x: 0.5 * (1.0 + 0.1 * x[2] ** 2) * np.array([-x[1], x[0], 0.0]),
                     v=lambda x: 0.05 * float(x @ x), grad_v=lambda x: 0.1 * x)


@pytest.mark.parametrize("index", range(5), ids=["constant_b", "helical", "monopole",
                                                 "cylindrical", "custom"])
def test_boris_keeps_the_bits_of_the_step_on_vectors(index):
    # the loop on floats against a frozen copy of the same step on numpy 3-vectors
    model = (_models() + [_custom_model()])[index]
    if isinstance(model, ms.Monopole):
        x0, p0, _, period, _ = kepler_orbit(rng(41), 2.0, 1.0, 6.0)
        s0, t_end, dt = ms.PhaseState(x0, p0), 0.3 * period, 0.05
    else:
        s0, t_end, dt = ms.PhaseState([0.9, -0.4, 0.3], [0.6, 0.2, -0.5]), 3.0, 0.007
    traj = ms.integrate(model, s0, t_end, ms.IntegratorConfig(method="boris", dt=dt))
    times, xs, ps = boris_numpy(model, s0, t_end, dt)
    assert len(traj) > 100
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.x, xs) and np.array_equal(traj.p, ps)


@pytest.mark.parametrize("index", range(5), ids=["constant_b", "helical", "monopole",
                                                 "cylindrical", "custom"])
def test_boris_takes_b_and_grad_v_from_one_call_per_step(monkeypatch, index):
    # the closed-form models answer from their compiled b_and_grad_v and never
    # reach their numpy magnetic_field or grad_potential; Cylindrical and
    # Custom reach each of them once per step
    model = (_models() + [_custom_model()])[index]
    s0, t_end, dt = ms.PhaseState([0.9, -0.4, 0.3], [0.6, 0.2, -0.5]), 1.0, 0.01
    if isinstance(model, ms.Monopole):
        x0, p0, _, period, _ = kepler_orbit(rng(43), 2.0, 1.0, 6.0)
        s0, t_end, dt = ms.PhaseState(x0, p0), 0.1 * period, 0.05
    cfg = ms.IntegratorConfig(method="boris", dt=dt)
    want = ms.integrate(model, s0, t_end, cfg)
    calls = []
    for name in ("magnetic_field", "grad_potential"):
        method = getattr(type(model), name)

        def counted(self, x, method=method, name=name):
            if not isinstance(self, (ms.Cylindrical, ms.Custom)):
                raise AssertionError(f"{name} was called")
            calls.append(name)
            return method(self, x)

        monkeypatch.setattr(type(model), name, counted)
    traj = ms.integrate(model, s0, t_end, cfg)
    assert np.array_equal(traj.x, want.x) and np.array_equal(traj.p, want.p)
    user_code = isinstance(model, (ms.Cylindrical, ms.Custom))
    assert sorted(calls) == sorted(["magnetic_field", "grad_potential"] * user_code
                                   * want.stats.steps)


@pytest.mark.parametrize("call, message", [
    (lambda s0, cfg: ms.integrate("x", s0, 1.0, cfg), "model 'x' is not a field model"),
    (lambda s0, cfg: ms.integrate(ms.ConstantB(1.0), "x", 1.0, cfg),
     "s0 'x' is not a PhaseState"),
    (lambda s0, cfg: ms.integrate(ms.ConstantB(1.0), (s0.x, s0.p), 1.0, cfg),
     r"s0 \(array.* is not a PhaseState"),
    (lambda s0, cfg: ms.integrate(ms.ConstantB(1.0), s0, 1.0, "boris"),
     "cfg 'boris' is not an IntegratorConfig"),
    (lambda s0, cfg: ms.integrate(ms.ConstantB(1.0), s0, 1.0, {"method": "boris"}),
     "cfg {'method': 'boris'} is not an IntegratorConfig"),
])
@pytest.mark.parametrize("method", ["rk45", "boris"])
def test_integrate_refuses_arguments_of_another_type_by_name(call, message, method):
    s0 = ms.PhaseState([0.1, 0.2, 0.3], [0.5, 0.3, 0.4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ms.ParameterError, match=f"^{message}$"):
            call(s0, ms.IntegratorConfig(method=method))


def test_boris_overflow_before_the_field_calls_raises_step_failure():
    # the first half drift 5 * 1e308 of z overflows to inf; HelicalB's field
    # methods take cos and sin of z, which would warn before the step ends
    s0 = ms.PhaseState([0.0, 0.0, 0.0], [0.0, 0.0, 1e308])
    cfg = ms.IntegratorConfig(method="boris", dt=10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ms.StepFailure, match="^a field value overflowed the double range"):
            ms.integrate(ms.HelicalB(A_amp=1.0, beta=1.0), s0, 100.0, cfg)


def test_boris_overflow_raises_step_failure():
    # the first half drift 5 * 1e308 overflows a Python float to inf without
    # a sound; the step's finiteness check turns it into the overflow message
    s0 = ms.PhaseState([0.0, 0.0, 0.0], [1e308, 0.0, 0.0])
    cfg = ms.IntegratorConfig(method="boris", dt=10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ms.StepFailure, match="^a field value overflowed the double range"):
            ms.integrate(ms.ConstantB(B=1.0), s0, 100.0, cfg)


@pytest.mark.parametrize("t_end, dt", [(1e308, 1e-10), (1e6, 1e-6)])
def test_boris_refuses_runs_beyond_the_step_cap(monkeypatch, t_end, dt):
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated arrays for a refused run")

    for name in ("empty", "full", "zeros"):
        monkeypatch.setattr(dynamics.np, name, no_allocation)
    s0 = ms.PhaseState([0.0, 0.0, 0.0], [1.0, 0.5, 0.2])
    cfg = ms.IntegratorConfig(method="boris", dt=dt)
    with pytest.raises(ms.ConfigError, match="maximum of 10000000 steps"):
        ms.integrate(ms.HelicalB(A_amp=1.0, beta=1.0), s0, t_end, cfg)


def test_domain_error_on_bad_start():
    model = ms.Monopole(g=1.0)
    s0 = ms.PhaseState([0.0, 0.0, -1.0], [0.0, 1.0, 0.0])
    with pytest.raises(ms.DomainError):
        ms.integrate(model, s0, 1.0)


def test_t_end_and_config_validation():
    model = ms.ConstantB(B=1.0)
    s0 = ms.PhaseState([0, 0, 0], [1.0, 0, 0])
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            ms.integrate(model, s0, bad)
    with pytest.raises(ValueError):
        ms.IntegratorConfig(method="verlet")
    with pytest.raises(ValueError):
        ms.IntegratorConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        ms.IntegratorConfig(dt=-0.1)


class _NoCalls(ms.HelicalB):
    """A HelicalB whose right-hand side must not be called."""

    def hamilton_rhs(self, y):
        raise AssertionError("a step was taken")


@pytest.mark.parametrize("t_end, message", [
    (math.inf, "t_end inf is not finite"),
    (math.nan, "t_end nan is not finite"),
    ("5", "t_end '5' is not a number"),
    (None, "t_end None is not a number"),
    (True, "t_end True is not a number"),
    (0, "t_end 0 is not positive"),
    (-math.inf, "t_end -inf is not finite"),
    (10**400, "t_end 1000.* is beyond the double range"),
])
@pytest.mark.parametrize("method", ["rk45", "boris"])
def test_t_end_that_is_not_a_finite_positive_real_is_refused_before_any_step(
        t_end, message, method):
    s0 = ms.PhaseState([0.1, 0.2, 0.3], [0.5, 0.3, 0.4])
    with pytest.raises(ms.ParameterError, match=f"^{message}$"):
        ms.integrate(_NoCalls(1.0, 1.0), s0, t_end, ms.IntegratorConfig(method=method))


@pytest.mark.parametrize("key", ["rel_tol", "abs_tol", "dt", "max_step"])
@pytest.mark.parametrize("value, problem", [
    ("1", "is not a number"), (None, "is not a number"), (True, "is not a number"),
    (math.nan, "is not finite"), (math.inf, "is not finite"), (0.0, "is not positive"),
    (-1e-3, "is not positive"), (-math.inf, "is not positive"),
    (10**400, "is beyond the double range"),
])
def test_integrator_config_holds_finite_positive_reals(key, value, problem):
    if key == "max_step" and value == math.inf:
        assert ms.IntegratorConfig(max_step=value).max_step == math.inf
        return
    if key != "max_step" and value == -math.inf:
        problem = "is not finite"
    with pytest.raises(ms.ParameterError, match=rf"^{key} .* {problem}$"):
        ms.IntegratorConfig(**{key: value})


def test_integrator_config_keeps_floats():
    cfg = ms.IntegratorConfig(rel_tol=np.float64(1e-8), abs_tol=1, max_step=2, dt=np.float32(0.5))
    assert (cfg.rel_tol, cfg.abs_tol, cfg.max_step, cfg.dt) == (1e-8, 1.0, 2.0, 0.5)
    assert all(type(v) is float for v in (cfg.rel_tol, cfg.abs_tol, cfg.max_step, cfg.dt))
    assert cfg == ms.IntegratorConfig(rel_tol=1e-8, abs_tol=1.0, max_step=2.0, dt=0.5)


def test_gauge_invariance_of_positions():
    base = ms.HelicalB(A_amp=1.0, beta=1.0)
    chi = ms.GaugeFunction(
        chi=lambda x: x[0] * x[1] + 0.5 * x[2] ** 2,
        gradient=lambda x: np.array([x[1], x[0], x[2]]),
    )
    shifted = ms.gauge_shift(base, chi)
    x0 = np.array([0.2, -0.1, 0.4])
    p0 = np.array([1.0, 0.3, -0.2])
    traj_a = ms.integrate(base, ms.PhaseState(x0, p0), 8.0)
    traj_b = ms.integrate(shifted, ms.PhaseState(x0, p0 - chi.gradient(x0)), 8.0)
    for t in np.linspace(0.5, 8.0, 12):
        xa = traj_a.sample(t).x
        xb = traj_b.sample(t).x
        assert np.max(np.abs(xa - xb)) < 1e-8


def test_phase_state_round_trip():
    s = ms.PhaseState([1, 2, 3], [4, 5, 6])
    assert np.array_equal(s.as_array(), [1, 2, 3, 4, 5, 6])
    s2 = ms.PhaseState.from_array(s.as_array())
    assert np.array_equal(s2.x, s.x) and np.array_equal(s2.p, s.p)
    with pytest.raises(ValueError):
        ms.PhaseState([1, 2], [3, 4, 5])


def test_trajectory_validation():
    times = np.array([0.0, 1.0, 0.5])
    arr = np.zeros((3, 3))
    with pytest.raises(ValueError):
        ms.Trajectory(times, arr, arr, np.zeros(3), {}, ms.ConstantB(B=1.0), "rk45")


def test_every_watch_kind_keeps_its_name_and_bits():
    from magsuper.closedform import x5_integral

    model = ms.ConstantB(B=1.3)
    s0 = ms.PhaseState([0.2, -0.4, 0.1], [0.9, 0.3, -0.5])
    spec = ms.known_integrals(model)[3]
    x5 = ms.PhaseFunction("X5", lambda s: x5_integral(1.3, s), model=model)
    bare = ms.PhaseFunction("half_px", lambda s: 0.5 * s.p[0] ** 2)

    def plain(s):
        return np.sin(s.x[1]) + s.p[1]

    for method in ("rk45", "boris"):
        cfg = ms.IntegratorConfig(method=method, dt=0.01)
        traj = ms.integrate(model, s0, 2.0, cfg, watch=[spec, x5, bare, plain])
        assert list(traj.diagnostics) == ["X4", "X5", "half_px", "watch3"]
        states = [ms.PhaseState(x, p) for x, p in zip(traj.x, traj.p)]
        want = {
            "X4": ms.evaluate_integral(spec, model, (traj.x, traj.p)),
            "X5": x5_integral(1.3, (traj.x, traj.p)),
            "half_px": np.array([bare.fn(s) for s in states], dtype=float),
            "watch3": np.array([plain(s) for s in states], dtype=float),
        }
        for name, values in want.items():
            assert traj.diagnostics[name].tobytes() == values.tobytes(), (method, name)
        # a one-state spec value and the stacked column agree bit for bit
        assert traj.diagnostics["X4"][-1] == ms.evaluate_integral(spec, model, traj.final_state)


def test_watch_refuses_objects_with_only_value_at():
    # a watch is an integral spec, a phase function or a callable; an object
    # that only carries a method of some name is none of these
    class ValueAt:
        name = "v"

        def value_at(self, model, s):
            return 0.0

    class Value:
        name = "v"

        @staticmethod
        def value(s):
            return 0.0

    model = ms.ConstantB(B=1.0)
    s0 = ms.PhaseState([0, 0, 0], [1.0, 0, 0])
    for obj in (ValueAt(), Value()):
        with pytest.raises(TypeError, match=f"cannot interpret {type(obj).__name__}"):
            ms.integrate(model, s0, 1.0, watch=[obj])


def test_a_subclass_that_overrides_hamilton_rhs_is_called_by_the_stepper():
    y = [0.1, 0.2, 0.3, 0.5, 0.3, 0.4]
    step = dynamics._dp5_stepper(_NoCalls(1.0, 1.0).hamilton_rhs, 6)
    with pytest.raises(AssertionError, match="^a step was taken$"):
        step(y, ms.HelicalB(1.0, 1.0).hamilton_rhs(y), 0.01)


def test_trajectory_arrays_of_inconsistent_lengths_are_refused():
    with pytest.raises(ms.ParameterError, match=r"^trajectory arrays have inconsistent lengths$"):
        ms.Trajectory(np.array([0.0, 1.0]), np.zeros((3, 3)), np.zeros((2, 3)), np.zeros(2),
                      {}, ms.ConstantB(B=1.0), "rk45")


def test_a_value_error_of_user_code_aborts_an_rk45_run():
    def a(x):
        if x[0] > 0.5:
            raise ValueError("beyond the wall")
        return np.zeros(3)

    model = ms.Custom(a=a, v=lambda x: 0.0)
    s0 = ms.PhaseState([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    with pytest.raises(ms.StepFailure, match=r"^integration aborted: beyond the wall$"):
        ms.integrate(model, s0, 2.0)


def test_a_boris_kick_that_overflows_v_stops_after_the_full_step():
    # the first half drift stays at the origin; the two kicks of -grad V take
    # v to -inf, and the second half drift carries x there
    model = ms.Custom(a=lambda x: np.zeros(3), v=lambda x: -1.7e308 * x[0],
                      b=lambda x: np.zeros(3), grad_v=lambda x: np.array([1.7e308, 0.0, 0.0]))
    s0 = ms.PhaseState([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    cfg = ms.IntegratorConfig(method="boris", dt=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ms.StepFailure) as exc:
            ms.integrate(model, s0, 4.0, cfg)
    assert str(exc.value) == ms.errors.OVERFLOW_MESSAGE
