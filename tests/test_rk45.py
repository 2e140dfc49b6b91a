"""The Dormand-Prince 5(4) loop of `dynamics`: its tableau, its step
control against scipy's RK45, its failures, its convergence to the exact
helix, and the solver statistics a trajectory carries."""

import ast
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import RK45, solve_ivp

import magsuper as ms
from magsuper import dynamics

from helpers import (dp5_error_reference, dp5_step_reference, hamilton_rhs_reference, kepler_orbit,
                     monopole_states, random_states, rng)

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

    times, y, stats = dynamics._run_rk45(rhs, [0.3, 1.2], 20.0, 1e-13, 1e-13)
    dense = dynamics._dp5_interpolant(rhs, times, (y,))
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
    _, _, stats = dynamics._run_rk45(fun, y0, 3 * period, 1e-6, 1e-6)
    assert stats.rejected > 0 and fun.calls == stats.nfev


def test_dense_output_of_an_array_matches_one_time_calls():
    fun = _Counted(lambda y: [y[1], -0.5 * math.sin(y[0])])
    times, y, _ = dynamics._run_rk45(fun, [0.3, 1.2], 20.0, 1e-10, 1e-10)
    dense = dynamics._dp5_interpolant(fun, times, (y,))
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


def _pendulum(y):
    return [y[1], -0.5 * math.sin(y[0])]


# the `hamilton_rhs` of a stated model: its stepper writes the model's
# source into each stage and calls no method (a Cylindrical's source calls
# its user's functions of the radius)
_HELICAL = ms.HelicalB(A_amp=1.0, beta=1.0).hamilton_rhs
_MONOPOLE = ms.Monopole(g=2.0, Q=1.0).hamilton_rhs
_CONSTANT_B = ms.ConstantB(B=-0.7).hamilton_rhs
_HELICAL_SHIFTED = ms.HelicalB(A_amp=1.5, beta=-1.3, phi0=-1.1).hamilton_rhs
_MONOPOLE_BARE = ms.Monopole(g=-1.1, Q=0.0, barrier=False).hamilton_rhs
_CYLINDRICAL = ms.Cylindrical(f1=lambda r: r**2, df1=lambda r: 2 * r,
                              f2=lambda r: r**3, df2=lambda r: 3 * r**2,
                              v=lambda r: 0.5 * r**2, dv=lambda r: r).hamilton_rhs


def _random_state(gen):
    return random_states(gen, 1)[0].as_array()


def _monopole_state(gen):
    return monopole_states(gen, 1)[0].as_array()


# right-hand sides of n = 1, 2, 6 and 7 floats, with states drawn for each;
# the "-called" cases wrap a model's method, so their stepper calls it
STEPPER_CASES = {
    "pendulum-force-1": (lambda y: [-0.5 * math.sin(y[0])],
                         lambda gen: gen.uniform(-3.0, 3.0, 1)),
    "pendulum-2": (_pendulum, lambda gen: gen.uniform(-3.0, 3.0, 2)),
    "helical-6": (_HELICAL, _random_state),
    "helical-called-6": (lambda y: _HELICAL(y), _random_state),
    "helical-shifted-6": (_HELICAL_SHIFTED, _random_state),
    "constant-b-6": (_CONSTANT_B, _random_state),
    "monopole-6": (_MONOPOLE, _monopole_state),
    "monopole-called-6": (lambda y: _MONOPOLE(y), _monopole_state),
    "monopole-bare-6": (_MONOPOLE_BARE, _monopole_state),
    "cylindrical-6": (_CYLINDRICAL, _random_state),
    "cylindrical-called-6": (lambda y: _CYLINDRICAL(y), _random_state),
    "helical-with-clock-7": (lambda y: (*_HELICAL(y[:6]), 1.0),
                             lambda gen: np.append(random_states(gen, 1)[0].as_array(), 0.0)),
    "monopole-with-energy-7": (lambda y: (*_MONOPOLE(y[:6]), y[3] * y[3] - y[5]),
                               lambda gen: np.append(monopole_states(gen, 1)[0].as_array(),
                                                     gen.uniform(-1.0, 1.0))),
}


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("case", list(STEPPER_CASES))
def test_generated_stepper_has_the_bits_of_the_comprehensions(case):
    rhs, draw = STEPPER_CASES[case]
    gen = rng(1601)
    reference = dp5_step_reference(rhs)
    for _ in range(40):
        y = draw(gen).tolist()
        n = len(y)
        step = dynamics._dp5_stepper(rhs, n)
        h = float(10.0 ** gen.uniform(-5.0, -0.5))
        atol, rtol = (float(10.0 ** gen.uniform(-13.0, -3.0)) for _ in range(2))
        k1 = rhs(y)
        y_new, err, slopes = step(y, k1, h, atol, rtol)
        ref_new, ref_slopes = reference(y, k1, h)
        assert len(y_new) == n and _bits(y_new) == _bits(ref_new)
        assert len(slopes) == 6 and slopes[0] is k1
        for k, ref_k in zip(slopes, ref_slopes):
            assert _bits(k) == _bits(ref_k)
        assert err == dp5_error_reference(y, ref_new, ref_slopes, h, atol, rtol)


# the momenta that each stated model conserves: its hamilton_rhs source has
# the literal 0.0 for their slopes, and its attempt folds them
FOLDED = {"constant-b": (_CONSTANT_B, (3, 4)), "helical": (_HELICAL, (3, 4)),
          "helical-shifted": (_HELICAL_SHIFTED, (3, 4)), "cylindrical": (_CYLINDRICAL, (5,)),
          "monopole": (_MONOPOLE, ()), "monopole-bare": (_MONOPOLE_BARE, ())}


@pytest.mark.parametrize("case", list(FOLDED))
def test_the_attempt_folds_exactly_the_conserved_momenta(case):
    rhs, folded = FOLDED[case]
    source = type(rhs.__self__).hamilton_rhs.source
    assert dynamics._structural_zeros(source.result) == frozenset(folded)
    text = dynamics._dp5_source(6, source)
    for j in range(6):
        named = {i for i in range(1, 8) if re.search(rf"\b_k{i}_{j}\b", text)}
        assert named == (set() if j in folded else {1, 2, 3, 4, 5, 6, 7}), j
        # a folded sum is y_j plus a zero, and its error term is 0.0
        assert (f"_d{j} = _y{j} + 0.0\n" in text) == (j in folded)
        assert (f"_a{j}, _b{j} = abs(_y{j}), abs(_d{j})" in text) != (j in folded)
    err = next(line for line in text.splitlines() if "_err = _hypot(" in line)
    terms = ast.parse(err.strip()).body[0].value.left.args
    assert [j for j, t in enumerate(terms) if isinstance(t, ast.Constant)] == list(folded)


def test_the_call_form_folds_nothing():
    text = dynamics._dp5_source(6)
    assert " + 0.0\n" not in text and "_err = _hypot(" in text
    for i in range(1, 8):
        for j in range(6):
            assert re.search(rf"\b_k{i}_{j}\b", text)


@pytest.mark.parametrize("result, zeros", [
    ("pow(x0, 2), 0.0, p1", {1}),
    ("at(f, pow(x0, 2)), max(0.0, p0), 0.0", {2}),
    ("0.0, -0.0, 0, 0.0 * x1, (0.0), 1e-300 * 0.0", {0, 4}),
    ("_rhs([_x0, _x1])", set()),
], ids=["call", "nested-call", "not-literal", "call-form"])
def test_structural_zeros_are_the_literal_items_of_the_result(result, zeros):
    # a comma inside a call separates no items, and only a literal 0.0 is a
    # structural zero: a -0.0, an int 0 and a product are not
    assert dynamics._structural_zeros(result) == frozenset(zeros)


@pytest.mark.parametrize("case", [c for c in FOLDED if FOLDED[c][1]])
def test_a_folded_attempt_keeps_the_bits_with_signed_zero_momenta(case):
    # each folded momentum of y at +0.0 and at -0.0: its sums are y_j + 0.0,
    # which turns -0.0 into +0.0 as the comprehensions' y_j + (w * 0.0) * h do
    rhs, folded = FOLDED[case]
    gen = rng(2207)
    reference = dp5_step_reference(rhs)
    step = dynamics._dp5_stepper(rhs, 6)
    for zero in (0.0, -0.0):
        for _ in range(10):
            y = _random_state(gen).tolist()
            for j in folded:
                y[j] = zero
            h = float(10.0 ** gen.uniform(-5.0, -0.5))
            atol, rtol = (float(10.0 ** gen.uniform(-13.0, -3.0)) for _ in range(2))
            k1 = rhs(y)
            y_new, err, slopes = step(y, k1, h, atol, rtol)
            ref_new, ref_slopes = reference(y, k1, h)
            assert _bits(y_new) == _bits(ref_new)
            assert all(math.copysign(1.0, y_new[j]) == 1.0 for j in folded)
            assert _bits(slopes) == _bits(ref_slopes)
            assert err == dp5_error_reference(y, ref_new, ref_slopes, h, atol, rtol)


def _reference_stepper(rhs, n):
    """The comprehension stepper and error norm in the signature of
    `dynamics._dp5_stepper`."""
    reference = dp5_step_reference(rhs)

    def step(y, k1, h, atol=1.0, rtol=1.0):
        y_new, slopes = reference(y, k1, h)
        return y_new, dp5_error_reference(y, y_new, slopes, h, atol, rtol), slopes

    return step


@pytest.mark.parametrize("case", ["kepler", "pendulum", "helical", "helical-shifted",
                                  "constant-b", "monopole-bare"])
def test_a_run_on_the_reference_stepper_is_the_library_run(case, monkeypatch):
    if case == "kepler":  # rejected attempts included
        x0, p0, _, period, _ = kepler_orbit(rng(811), 2.0, 1.0, 6.0)
        args = (_MONOPOLE, ms.PhaseState(x0, p0).as_array().tolist(), 3 * period, 1e-6, 1e-6)
    elif case == "pendulum":
        args = (_pendulum, [0.3, 1.2], 20.0, 1e-13, 1e-13)
    elif case == "helical":
        args = (_HELICAL, [0.1, 0.2, -0.3, 0.5, 0.3, 0.4], 60.0, 1e-10, 1e-10, 0.5)
    elif case == "helical-shifted":
        args = (_HELICAL_SHIFTED, [0.1, 0.2, -0.3, 0.5, 0.3, 0.4], 40.0, 1e-9, 1e-9)
    elif case == "constant-b":
        args = (_CONSTANT_B, [0.1, 0.2, -0.3, 0.5, 0.3, -0.2], 40.0, 1e-10, 1e-10)
    else:
        args = (_MONOPOLE_BARE, [3.0, 0.5, 1.0, 0.1, 0.3, 0.05], 30.0, 1e-8, 1e-8)
    times, y, stats = dynamics._run_rk45(*args)
    dense = dynamics._dp5_interpolant(args[0], times, (y,))
    ts = np.linspace(0.0, args[2], 57)
    # the reference calls the hand-written right-hand side of a model
    model = getattr(args[0], "__self__", None)
    if model is not None:
        args = (lambda y: hamilton_rhs_reference(model, y), *args[1:])
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "_dp5_stepper", _reference_stepper)
        ref_times, ref_y, ref_stats = dynamics._run_rk45(*args)
        ref_values = dynamics._dp5_interpolant(args[0], ref_times, (ref_y,))(ts)
    assert stats == ref_stats and (case != "kepler" or stats.rejected > 0)
    assert _bits(times) == _bits(ref_times) and _bits(y) == _bits(ref_y)
    assert _bits(dense(ts)) == _bits(ref_values)


def test_an_empty_state_is_a_parameter_error():
    def fun(y):
        raise AssertionError("called")

    with pytest.raises(ms.ParameterError, match="^an RK45 state needs at least one component$"):
        dynamics._run_rk45(fun, [], 1.0, 1e-8, 1e-8)
    with pytest.raises(ms.ParameterError):
        dynamics._dp5_stepper(fun, 0)


def test_steppers_are_compiled_on_first_use_and_cached():
    # importing the package and the command line compiles none
    code = ("import magsuper.cli\n"
            "from magsuper import dynamics\n"
            "print(dynamics._dp5_maker.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "0"
    # one compiled maker per state length, shared by every right-hand side
    dynamics._dp5_maker(3)
    hits = dynamics._dp5_maker.cache_info().hits
    assert dynamics._dp5_stepper(_pendulum, 3) is not dynamics._dp5_stepper(_pendulum, 3)
    assert dynamics._dp5_maker.cache_info().hits == hits + 2
    assert dynamics._dp5_maker.cache_info().maxsize == 8


def test_models_of_one_class_share_one_compiled_stepper():
    # the parameters are bound when the maker is called, not compiled in
    first, second = ms.HelicalB(1.0, 1.0), ms.HelicalB(2.5, -0.5, 0.3)
    dynamics._dp5_stepper(first.hamilton_rhs, 6)
    before = dynamics._dp5_maker.cache_info()
    step = dynamics._dp5_stepper(second.hamilton_rhs, 6)
    after = dynamics._dp5_maker.cache_info()
    assert after.hits == before.hits + 1 and after.currsize == before.currsize
    y = [0.1, 0.2, -0.3, 0.5, 0.3, 0.4]
    k1 = second.hamilton_rhs(y)
    ref_new, ref_slopes = dp5_step_reference(lambda v: hamilton_rhs_reference(second, v))(
        y, k1, 0.05)
    y_new, _, slopes = step(y, k1, 0.05)
    assert _bits(y_new) == _bits(ref_new) and _bits(slopes) == _bits(ref_slopes)


class _CountedHelical(ms.HelicalB):
    """A HelicalB whose right-hand side counts its calls."""

    calls = [0]

    def hamilton_rhs(self, y):
        self.calls[0] += 1
        return super().hamilton_rhs(y)


class _PlainHelical(ms.HelicalB):
    """A HelicalB subclass that keeps the class's right-hand side."""


def test_a_model_that_overrides_hamilton_rhs_is_called_and_keeps_the_bits():
    y = [0.1, 0.2, -0.3, 0.5, 0.3, 0.4]
    base = ms.HelicalB(1.5, -2.0, -1.1)
    k1 = base.hamilton_rhs(y)
    want = dynamics._dp5_stepper(base.hamilton_rhs, 6)(y, k1, 0.05, 1e-8, 1e-8)
    counted = _CountedHelical(1.5, -2.0, -1.1)
    step = dynamics._dp5_stepper(counted.hamilton_rhs, 6)
    _CountedHelical.calls[0] = 0
    got = step(y, k1, 0.05, 1e-8, 1e-8)
    assert _CountedHelical.calls[0] == 6
    plain = dynamics._dp5_stepper(_PlainHelical(1.5, -2.0, -1.1).hamilton_rhs, 6)
    for y_new, err, slopes in (got, plain(y, k1, 0.05, 1e-8, 1e-8)):
        assert _bits(y_new) == _bits(want[0]) and err == want[1]
        assert _bits(slopes) == _bits(want[2])
