"""The Dormand-Prince 5(4) loop of `dynamics`: its tableau, its step
control against scipy's RK45, its failures, its convergence to the exact
helix, and the solver statistics a trajectory carries."""

import math

import numpy as np
import pytest
from scipy.integrate import RK45, solve_ivp

import magsuper as ms
from magsuper import dynamics

from helpers import kepler_orbit, rng

RUNS = {
    "constant_b": (ms.ConstantB(B=1.0), [0.1, 0.2, -0.3], [0.5, 0.3, -0.2], 40.0),
    "helical": (ms.HelicalB(A_amp=1.0, beta=1.0), [0.1, 0.2, -0.3], [0.5, 0.3, 0.4], 60.0),
    "monopole": (ms.Monopole(g=2.0, Q=1.0), [3.0, 0.5, 1.0], [0.1, 0.3, 0.05], 60.0),
}


def test_tableau_equals_scipy_rk45():
    a = np.zeros((6, 5))
    for i, row in enumerate(dynamics.RK45_A):
        a[i, :len(row)] = row
    assert np.array_equal(a, RK45.A)
    assert np.array_equal(dynamics.RK45_B, RK45.B)
    assert np.array_equal(dynamics.RK45_C, RK45.C)
    assert np.array_equal(dynamics.RK45_E, RK45.E)
    assert np.array_equal(np.array(dynamics.RK45_P), RK45.P)


@pytest.mark.parametrize("name", list(RUNS))
def test_steps_follow_solve_ivp(name):
    model, x0, p0, t_end = RUNS[name]
    s0 = ms.PhaseState(x0, p0)
    traj = ms.integrate(model, s0, t_end)
    sol = solve_ivp(lambda _t, y: model.hamilton_rhs(y.tolist()), (0.0, t_end),
                    s0.as_array(), method="RK45", rtol=1e-10, atol=1e-10,
                    dense_output=True)
    assert sol.success and len(traj) == len(sol.t)
    assert traj.stats.steps == len(sol.t) - 1 and traj.stats.nfev == sol.nfev
    assert np.max(np.abs(traj.times - sol.t)) < 1e-6
    assert np.max(np.abs(np.hstack([traj.x, traj.p]) - sol.y.T)) < 1e-6
    ts = np.linspace(0.0, t_end, 101)
    dense = np.array([traj.sample(t).as_array() for t in ts])
    assert np.max(np.abs(dense - sol.sol(ts).T)) < 1e-6
    # at its own nodes the interpolant returns the stored states
    nodes = np.array([traj.sample(t).as_array() for t in traj.times[::25]])
    assert np.max(np.abs(nodes - np.hstack([traj.x, traj.p])[::25])) < 1e-13


def test_the_loop_takes_a_state_of_any_length():
    # the reduced pendulum of the helical field, two floats per state
    def rhs(y):
        return [y[1], -0.5 * math.sin(y[0])]

    times, y, dense, stats = dynamics._run_rk45(rhs, [0.3, 1.2], 20.0, 1e-13, 1e-13)
    sol = solve_ivp(lambda _t, y: rhs(y), (0.0, 20.0), [0.3, 1.2], method="RK45",
                    rtol=1e-13, atol=1e-13, dense_output=True)
    assert y.shape == (len(sol.t), 2) and stats.nfev == sol.nfev
    assert np.max(np.abs(times - sol.t)) < 1e-6
    assert np.max(np.abs(y - sol.y.T)) < 1e-6
    ts = np.linspace(0.0, 20.0, 41)
    assert np.max(np.abs(np.array([dense(t) for t in ts]) - sol.sol(ts).T)) < 1e-6


def test_collapsing_step_raises_step_failure():
    # V = -|x|^4 sends the particle to infinity in finite time; the step
    # shrinks below 10 ulp(t) before the state overflows, at any tolerance
    model = ms.Custom(a=lambda x: np.zeros(3), v=lambda x: -float((x @ x) ** 2),
                      jac_a=lambda x: np.zeros((3, 3)), grad_v=lambda x: -4.0 * (x @ x) * x)
    s0 = ms.PhaseState([1.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    text = r"^integration failed: Required step size is less than spacing between numbers\.$"
    with pytest.raises(ms.StepFailure, match=text):
        ms.integrate(model, s0, 10.0)
    tiny = ms.IntegratorConfig(rel_tol=1e-300, abs_tol=1e-300)
    with pytest.warns(UserWarning, match="rel_tol 1e-300 is below"):
        with pytest.raises(ms.StepFailure, match=text):
            ms.integrate(model, s0, 10.0, tiny)


def test_rel_tol_is_raised_to_the_floor():
    model, x0, p0, _ = RUNS["constant_b"]
    s0 = ms.PhaseState(x0, p0)
    with pytest.warns(UserWarning, match="rel_tol"):
        low = ms.integrate(model, s0, 2.0, ms.IntegratorConfig(rel_tol=1e-300))
    floor = ms.integrate(model, s0, 2.0, ms.IntegratorConfig(rel_tol=dynamics.RTOL_FLOOR))
    assert np.array_equal(low.x, floor.x) and low.stats == floor.stats


def test_error_against_the_helix_falls_as_rel_tol_tightens():
    # the exact constant-field orbit is an oracle that does not use scipy
    B = 1.3
    s0 = ms.PhaseState([0.2, -0.4, 0.1], [0.6, -0.3, 0.8])
    errors, steps = [], []
    for tol in (1e-5, 1e-7, 1e-9, 1e-11):
        traj = ms.integrate(ms.ConstantB(B=B), s0, 30.0,
                            ms.IntegratorConfig(rel_tol=tol, abs_tol=tol))
        ref = np.hstack(ms.helix_solution(B, s0, traj.times))
        errors.append(np.max(np.abs(np.hstack([traj.x, traj.p]) - ref)))
        steps.append(traj.stats.steps)
    assert all(b < 0.1 * a for a, b in zip(errors, errors[1:])), errors
    assert errors[-1] < 1e-8 and steps == sorted(steps)


def test_solver_statistics_repeat_and_add_up():
    gen = rng(811)
    x0, p0, _, period, _ = kepler_orbit(gen, 2.0, 1.0, 6.0)
    model = ms.Monopole(g=2.0, Q=1.0)
    s0 = ms.PhaseState(x0, p0)
    cfg = ms.IntegratorConfig(rel_tol=1e-6, abs_tol=1e-6)
    first, second = (ms.integrate(model, s0, 3 * period, cfg) for _ in range(2))
    stats = first.stats
    assert stats == second.stats and np.array_equal(first.x, second.x)
    steps = np.diff(first.times)
    assert stats.steps == len(steps) and stats.rejected > 0
    assert stats.nfev == 2 + 6 * (stats.steps + stats.rejected)
    assert (stats.min_step, stats.max_step) == (steps.min(), steps.max())
    # scipy makes the same attempts, rejected ones included
    sol = solve_ivp(lambda _t, y: model.hamilton_rhs(y.tolist()), (0.0, 3 * period),
                    s0.as_array(), method="RK45", rtol=1e-6, atol=1e-6)
    assert (len(sol.t), sol.nfev) == (len(first), stats.nfev)

    boris = ms.integrate(model, s0, 3.0, ms.IntegratorConfig(method="boris", dt=0.007))
    n = math.ceil(3.0 / 0.007)
    assert boris.stats == ms.SolverStats(n, 0, n, 3.0 / n, 3.0 / n)
    assert boris.stats == ms.integrate(model, s0, 3.0, ms.IntegratorConfig(
        method="boris", dt=0.007)).stats


class _Counted:
    """A right-hand side that counts its calls."""

    def __init__(self, fun):
        self.fun, self.calls = fun, 0

    def __call__(self, y):
        self.calls += 1
        return self.fun(y)


def test_nfev_counts_every_right_hand_side_call():
    # a run with rejected attempts: 2 + 6 calls per attempt, the finiteness
    # checks add none
    x0, p0, _, period, _ = kepler_orbit(rng(811), 2.0, 1.0, 6.0)
    fun = _Counted(ms.Monopole(g=2.0, Q=1.0).hamilton_rhs)
    y0 = ms.PhaseState(x0, p0).as_array().tolist()
    _, _, _, stats = dynamics._run_rk45(fun, y0, 3 * period, 1e-6, 1e-6)
    assert stats.rejected > 0 and fun.calls == stats.nfev


def test_dense_output_of_an_array_matches_one_time_calls():
    fun = _Counted(lambda y: [y[1], -0.5 * math.sin(y[0])])
    times, y, dense, _ = dynamics._run_rk45(fun, [0.3, 1.2], 20.0, 1e-10, 1e-10)
    ts = np.concatenate([np.linspace(0.0, 20.0, 301), times[3:9], [times[5]] * 3])[::-1]
    fun.calls = 0
    values = dense(ts)
    holding = np.unique(np.clip(np.searchsorted(times, ts) - 1, 0, len(times) - 2))
    # one Dormand-Prince step (7 calls) per step that holds a query
    assert fun.calls <= 7 * len(holding)
    assert values.shape == (len(ts), 2)
    assert np.array_equal(values, np.array([dense(t) for t in ts.tolist()]))
    assert np.array_equal(dense(np.float64(ts[7])), values[7])
    # at the nodes the interpolant returns the stored states
    assert np.max(np.abs(dense(times) - y)) < 1e-13


def test_rk45_stops_past_the_step_cap(monkeypatch):
    model, x0, p0, t_end = RUNS["constant_b"]
    s0 = ms.PhaseState(x0, p0)
    steps = ms.integrate(model, s0, t_end).stats.steps
    # a run that needs exactly the cap runs; one more step is refused
    monkeypatch.setattr(dynamics, "RK45_MAX_STEPS", steps)
    assert ms.integrate(model, s0, t_end).stats.steps == steps
    monkeypatch.setattr(dynamics, "RK45_MAX_STEPS", steps - 1)
    with pytest.raises(ms.ConfigError,
                       match=rf"^an RK45 run reached the maximum of {steps - 1} steps at t = "):
        ms.integrate(model, s0, t_end)


def test_rk45_cap_keeps_stored_states_within_the_boris_budget():
    # traced peak bytes per step of each method, times its step cap
    import tracemalloc

    model, x0, p0, _ = RUNS["helical"]
    s0 = ms.PhaseState(x0, p0)
    per_step = {}
    for cfg, t_end in ((ms.IntegratorConfig(), 150.0),
                       (ms.IntegratorConfig(method="boris", dt=0.01), 30.0)):
        ms.integrate(model, s0, 1.0, cfg)
        tracemalloc.start()
        try:
            traj = ms.integrate(model, s0, t_end, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.stats.steps > 2000
        per_step[cfg.method] = peak / traj.stats.steps
    # an RK45 step keeps its time and state as 7 doubles, 56 bytes
    assert per_step["rk45"] <= 120
    assert (dynamics.RK45_MAX_STEPS * per_step["rk45"]
            <= dynamics.BORIS_MAX_STEPS * per_step["boris"])


def test_a_state_that_leaves_the_doubles_raises_step_failure():
    # the slope turns infinite past y = 1; the next accepted state would
    # hold inf, and is refused before its slope is taken
    def fun(y):
        return [math.inf if y[0] >= 1.0 else 1.0]

    with pytest.raises(ms.StepFailure,
                       match=r"^integration aborted: vector has non-finite components$"):
        dynamics._run_rk45(fun, [0.0], 5.0, 1e-8, 1e-8)
