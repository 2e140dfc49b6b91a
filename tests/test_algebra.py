"""Bracket algebra of the uniform field and monopole angular closure."""

import tracemalloc

import numpy as np
import pytest

import magsuper as ms

from helpers import (monopole_admissible_per_point, monopole_states, rng,
                     sample_uniform_per_row, stack_states, state_list)


def _states(seed, n, p1_min=0.0):
    return ms.sample_states(rng(seed), n, p1_min=p1_min)


def test_bracket_table_with_analytic_gradients():
    rep = ms.verify_bracket_table(2.0, _states(61, 100, p1_min=0.1))
    assert len(rep["pairs"]) == 21
    assert rep["n_states"] == 100
    assert rep["max_discrepancy"] < 1e-12
    assert "{X1t,X5}" in rep["pairs"]
    assert "{X5,X6}" in rep["pairs"]


def test_bracket_table_negative_field():
    rep = ms.verify_bracket_table(-1.5, _states(62, 60, p1_min=0.1))
    assert rep["max_discrepancy"] < 1e-12


def _stripped_discrepancy(fns, states, want):
    """max |bracket_matrix - want| of fns with their gradients stripped,
    so that every bracket comes from central differences of fn."""
    stripped = [ms.PhaseFunction(f.name, f.fn) for f in fns]
    return float(np.max(np.abs(ms.bracket_matrix(stripped, states) - want(states))))


def test_bracket_table_fd_fallback():
    B = 2.0
    basis = ms.constantB_basis(B)
    table = ms.constantB_bracket_table(B)

    def want(s):
        vals = {f.name: f.fn(s) for f in basis}
        out = np.zeros((len(s[0]), 7, 7))
        for i in range(7):
            for j in range(7):
                out[:, i, j] = sum(c * vals[n] for n, c in table.combination(i, j).items())
        return out

    assert _stripped_discrepancy(basis, _states(63, 40, p1_min=0.5), want) < 1e-6


def test_basis_gradients_match_finite_differences():
    basis = ms.constantB_basis(1.7)
    gen = rng(64)
    states = state_list(ms.sample_states(gen, 15, p1_min=0.5))
    for f in basis:
        stripped = ms.PhaseFunction(f.name, f.fn)
        for s in states:
            gx, gp = f.grad(s)
            fx, fp = ms.phase_gradient(stripped, s)
            assert np.allclose(gx, fx, atol=2e-6), f.name
            assert np.allclose(gp, fp, atol=2e-6), f.name


def test_basis_names_and_validation():
    basis = ms.constantB_basis(1.0)
    assert [f.name for f in basis] == ["X1t", "X2", "X3", "X4", "X5", "X6", "X7"]
    with pytest.raises(ValueError):
        ms.constantB_basis(0.0)
    s = ms.PhaseState([0.4, 0.1, -0.2], [1.3, 0.5, 0.7])
    assert basis[0](s) == pytest.approx(0.5 * 1.3**2)
    assert basis[6](s) == 1.0


def test_x5_x6_match_closed_form_integrals():
    B = 2.0
    basis = {f.name: f for f in ms.constantB_basis(B)}
    for s in state_list(_states(65, 20, p1_min=0.2)):
        assert basis["X5"](s) == pytest.approx(ms.x5_integral(B, s), abs=1e-12)
        assert basis["X6"](s) == pytest.approx(ms.x6_integral(B, s), abs=1e-12)


def test_casimir_relations():
    for B in (2.0, -2.0, 0.7):
        rep = ms.casimir_check(B, _states(66, 80, p1_min=0.1))
        assert rep["max_residual"] < 1e-10, B
        assert rep["first_casimir"] < 1e-10
        assert rep["second_casimir"] < 1e-10


def test_structure_table_antisymmetry():
    table = ms.constantB_bracket_table(3.0)
    assert table.combination(2, 2) == {}
    assert table.combination(0, 4) == {"X6": -3.0}
    assert table.combination(4, 0) == {"X6": 3.0}
    assert table.combination(0, 1) == {}  # {X1t, X2} = 0
    n_nonzero = len(table.structure)
    assert n_nonzero == 8


def test_monopole_closure_analytic():
    gen = rng(67)
    rep = ms.monopole_closure_check(2.0, stack_states(monopole_states(gen, 60)), Q=1.0)
    assert rep["max_discrepancy"] < 1e-9
    assert set(rep["checks"]) == {
        "{X1,X2}-X3", "{X2,X3}-X1", "{X3,X1}-X2",
        "{X_sq,X1}", "{X_sq,X2}", "{X_sq,X3}",
    }


def test_monopole_closure_fd_fallback():
    g, Q = 2.0, 1.0
    model = ms.Monopole(g=g, Q=Q)
    specs = [*ms.monopole_angular_specs(g), ms.monopole_total_square_spec(g)]
    fns = [ms.as_phase_function(sp, model) for sp in specs]

    def want(s):
        # {X_j, X_k} = X_l cyclically, {X_sq, X_j} = 0
        out = np.zeros((len(s[0]), 4, 4))
        for j in range(3):
            k, l = (j + 1) % 3, (j + 2) % 3
            out[:, j, k] = fns[l].fn(s)
            out[:, k, j] = -out[:, j, k]
        return out

    assert _stripped_discrepancy(fns, stack_states(monopole_states(rng(68), 30)), want) < 1e-6


def test_zero_charge_reduces_to_angular_momenta():
    states = state_list(_states(69, 40))
    states = [s for s in states if np.linalg.norm(s.x) > 0.3]
    rep = ms.monopole_closure_check(0.0, stack_states(states))
    assert rep["max_discrepancy"] < 1e-9


@pytest.mark.parametrize("g", [0.0, 2.0])
@pytest.mark.parametrize("Q", ["abc", float("nan"), None, True], ids=["str", "nan", "None", "True"])
def test_closure_check_refuses_a_charge_that_is_not_a_finite_real_number(g, Q):
    # at g = 0 no Monopole is built to refuse it
    with pytest.raises(ms.ParameterError, match=r"^Q .* is not"):
        ms.monopole_closure_check(g, stack_states(monopole_states(rng(957), 3)), Q=Q)


def test_monopole_function_values_match_covariant_specs():
    g, Q = 2.0, 1.0
    model = ms.Monopole(g=g, Q=Q)
    specs = {sp.name: sp for sp in ms.known_integrals(model)}
    gen = rng(70)
    for s in monopole_states(gen, 25):
        want = np.array([ms.evaluate_integral(specs[f"R{j + 1}"], model, s)
                         for j in range(3)])
        got = np.array([ms.evaluate_integral(sp, model, s)
                        for sp in ms.monopole_runge_lenz_specs(g, Q)])
        assert np.max(np.abs(got - want)) < 1e-12
        x_sq = ms.evaluate_integral(specs["X_sq"], model, s)
        la = np.cross(s.x, ms.covariant_momentum(model, s))
        xvec = la + g * s.x / np.linalg.norm(s.x)
        assert float(xvec @ xvec) == pytest.approx(x_sq, rel=1e-12)


def test_runge_lenz_conserved_only_with_barrier():
    g, Q = 2.0, 1.0
    s0 = ms.PhaseState([1.2, 0.0, 0.4], [0.1, 0.9, 0.3])
    watch = ms.monopole_runge_lenz_specs(g, Q)
    kept = ms.integrate(ms.Monopole(g=g, Q=Q), s0, 20.0, watch=watch)
    assert max(kept.drift(f"R{j}") for j in (1, 2, 3)) < 1e-7
    lost = ms.integrate(ms.Monopole(g=g, Q=Q, barrier=False), s0, 20.0, watch=watch)
    assert max(lost.drift(f"R{j}") for j in (1, 2, 3)) > 1e-3


def test_runge_lenz_kepler_limit():
    # g = 0 with V = -Q/r is the Kepler problem; R is the classic vector
    Q = 1.0
    model = ms.Custom(
        a=lambda x: np.zeros(3),
        v=lambda x: -Q / np.linalg.norm(x),
        b=lambda x: np.zeros(3),
        jac_a=lambda x: np.zeros((3, 3)),
        grad_v=lambda x: Q * x / np.linalg.norm(x) ** 3,
    )
    s0 = ms.PhaseState([1.0, 0.0, 0.0], [0.0, 1.1, 0.2])
    traj = ms.integrate(model, s0, 20.0, watch=ms.monopole_runge_lenz_specs(0.0, Q))
    assert max(traj.drift(f"R{j}") for j in (1, 2, 3)) < 1e-7
    # eccentricity vector length: |R| = sqrt(1 + 2 H l^2) for this orbit
    h0 = ms.hamiltonian(model, s0)
    l0 = np.cross(s0.x, s0.p)
    want = np.sqrt(1.0 + 2.0 * h0 * float(l0 @ l0))
    got = np.linalg.norm([ms.evaluate_integral(sp, model, s0)
                          for sp in ms.monopole_runge_lenz_specs(0.0, Q)])
    assert got == pytest.approx(want, rel=1e-12)


def test_runge_lenz_domain_errors():
    with pytest.raises(ms.DomainError):
        ms.monopole_closure_check(0.0, stack_states([ms.PhaseState([0, 0, 0], [1, 0, 0])]),
                                  Q=1.0)
    with pytest.raises(ms.DomainError):
        ms.evaluate_integral(ms.monopole_runge_lenz_specs(2.0, 1.0)[0], ms.Monopole(g=2.0, Q=1.0),
                             ms.PhaseState([0, 0, -1.0], [1, 0, 0]))


def test_sample_states_contract():
    a = state_list(ms.sample_states(rng(71), 30, p1_min=0.3))
    b = state_list(ms.sample_states(rng(71), 30, p1_min=0.3))
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.x, sb.x) and np.array_equal(sa.p, sb.p)
    for s in a:
        assert np.all(np.abs(s.x) <= 2.0) and np.all(np.abs(s.p) <= 2.0)
        assert abs(s.p[0]) >= 0.3
    picky = state_list(ms.sample_states(rng(72), 20, admissible=ms.monopole_admissible))
    assert all(ms.monopole_admissible(s.x) for s in picky)
    with pytest.raises(ms.ConfigError):
        ms.sample_states(rng(73), 1, admissible=lambda x: np.zeros(len(x), bool))


def test_sample_states_gives_up_with_config_error():
    with pytest.raises(ms.ConfigError, match=r"^state sampling failed: 0 of 3 admissible "
                                             r"points in 3000 tries$"):
        ms.sample_states(rng(76), 3, admissible=lambda x: np.zeros(len(x), bool))


def test_sample_uniform_draws_more_rows_than_a_fixed_cap():
    # the try cap grows with n; every row is admissible here, and one row
    # per try takes the same stream as a single draw of all of them
    n = 100_001
    rows = ms.algebra.sample_uniform(rng(77), n, 1, accept=lambda y: np.ones(len(y), bool))
    assert np.array_equal(rows, rng(77).uniform(-2.0, 2.0, (n, 1)))


def test_a_count_of_states_that_is_not_a_nonnegative_integer_is_refused():
    for n, problem in ((-1, "is below 0"), (2.0, "is not an integer"), (None, "is not an integer"),
                       (True, "is not an integer")):
        with pytest.raises(ms.ParameterError, match=f"^n {n!r} {problem}$"):
            ms.sample_states(rng(74), n)
    assert state_list(ms.sample_states(rng(74), 0)) == []
    assert len(state_list(ms.sample_states(rng(74), np.int64(3)))) == 3


def test_sample_uniform_refuses_rows_beyond_the_cap_before_drawing():
    class NoDraws:
        def uniform(self, *args):
            raise AssertionError("drew rows for a refused request")

    cap = ms.algebra.SAMPLE_MAX_ROWS
    with pytest.raises(ms.ConfigError, match=f"^{cap + 1} sampled points exceed the maximum "
                                             f"of {cap}$"):
        ms.sample_states(NoDraws(), cap + 1)
    with pytest.raises(ms.ConfigError, match="exceed the maximum"):
        ms.algebra.sample_uniform(NoDraws(), 10**18, 3)


# (size, block filter for the library, row filter for the per-row reference):
# None, p1_min, the monopole domain, about 90% and nearly all rows rejected
_SAMPLER_FILTERS = {
    "none": (3, None, None),
    "p1_min": (6, lambda y: np.abs(y.T[3]) >= 0.3, lambda y: abs(y[3]) >= 0.3),
    "monopole": (3, ms.monopole_admissible, monopole_admissible_per_point),
    "rejects_90pc": (2, lambda y: y.T[0] > 1.6, lambda y: y[0] > 1.6),
    "rejects_nearly_all": (3, lambda y: y.T[1] > 1.999, lambda y: y[1] > 1.999),
}


def _sampled(sample, seed):
    """The rows or the failure message of sample(gen), and the next draw."""
    gen = rng(seed)
    try:
        out = sample(gen)
    except ms.ConfigError as exc:
        out = str(exc)
    return out, gen.uniform(-2.0, 2.0, 5)


def _assert_same_sampling(got, want):
    (rows, after), (ref_rows, ref_after) = got, want
    if isinstance(ref_rows, str):
        assert rows == ref_rows
    else:
        assert np.array_equal(rows, ref_rows)
    assert np.array_equal(after, ref_after)


@pytest.mark.parametrize("kind", list(_SAMPLER_FILTERS))
def test_block_sampler_keeps_the_rows_stream_and_failure_of_the_per_row_loop(kind):
    size, block, row = _SAMPLER_FILTERS[kind]
    failures = 0
    for seed in range(900, 924):
        # small counts for the rare filter, so that the try cap is reached
        n = 1 + seed % 4 if kind == "rejects_nearly_all" else 3 * (seed - 890)
        got = _sampled(lambda g: ms.algebra.sample_uniform(g, n, size, block), seed)
        want = _sampled(lambda g: sample_uniform_per_row(g, n, size, row), seed)
        _assert_same_sampling(got, want)
        failures += isinstance(want[0], str)
    if kind == "rejects_nearly_all":
        assert failures >= 10
    else:
        assert failures == 0


@pytest.mark.parametrize("kind", ["none", "p1_min", "monopole", "rejects_90pc"])
def test_sample_states_keeps_the_states_of_the_per_row_loop(kind):
    p1_min = 0.3 if kind == "p1_min" else 0.0
    admissible = {"monopole": ms.monopole_admissible,
                  "rejects_90pc": lambda x: x.T[0] > 1.6}.get(kind)
    row = {"p1_min": lambda y: abs(y[3]) >= 0.3,
           "monopole": lambda y: monopole_admissible_per_point(y[:3]),
           "rejects_90pc": lambda y: y[0] > 1.6}.get(kind)
    for seed in range(930, 950):
        n = 5 * (seed - 925)
        got = _sampled(lambda g: np.hstack(ms.sample_states(
            g, n, p1_min=p1_min, admissible=admissible)), seed)
        _assert_same_sampling(got, _sampled(lambda g: sample_uniform_per_row(g, n, 6, row), seed))


def test_p1_min_keeps_a_momentum_on_the_bound():
    class Rows:
        """A generator that hands out fixed rows, as many as asked for."""

        def __init__(self, rows):
            self.rows = np.array(rows, dtype=float)

        def uniform(self, low, high, shape):
            out, self.rows = self.rows[:shape[0]], self.rows[shape[0]:]
            return out

    rows = [[0, 0, 0, 0.3, 0, 0], [0, 0, 0, 0.2999, 0, 0], [0, 0, 0, -0.3, 0, 0]]
    assert [s.p[0] for s in state_list(ms.sample_states(Rows(rows), 2, p1_min=0.3))] == [0.3, -0.3]


def test_monopole_admissible_takes_a_stack():
    xs = rng(951).uniform(-2.0, 2.0, (12000, 3))
    # points on the boundary of each test: r = 0.5, r + z = 0.5, the string;
    # then two where np.linalg.norm gives r = 0.5 but a written-out sum of
    # squares rounds above it (OpenBLAS dot, numpy 2.4)
    xs[:5] = [[0.5, 0.0, 0.0], [1.0, 0.0, -0.75], [0.0, 0.0, -1.5],
              [-0.07531673496565527, -0.004883886887780187, 0.49427071234595793],
              [-0.04553671344240057, 0.33193033528147875, 0.3711450663134159]]
    ok = ms.monopole_admissible(xs)
    assert ok.shape == (12000,) and ok.dtype == bool
    want = [monopole_admissible_per_point(x) for x in xs]
    assert ok.tolist() == want == [ms.monopole_admissible(x) for x in xs]
    assert 0.5 < np.mean(ok) < 1.0 and not ok[:5].any()
    assert ms.monopole_admissible([1.0, 0.0, 0.0]) is True
    # a slice of phase-space rows, as sample_states passes them
    ys = rng(952).uniform(-2.0, 2.0, (10000, 6))
    assert ms.monopole_admissible(ys[:, :3]).tolist() == [
        monopole_admissible_per_point(y[:3]) for y in ys]


@pytest.mark.parametrize("bad", [
    lambda y: True,
    lambda y: np.ones((len(y), 1), bool),
    lambda y: np.ones(len(y) + 1, bool),
    lambda y: np.ones(len(y), int),
], ids=["scalar", "column", "one_more", "ints"])
def test_a_filter_that_does_not_return_one_bool_per_row_is_refused(bad):
    with pytest.raises(ms.ParameterError, match=r"^accept '<lambda>' returned .* for 4 rows; "
                                                r"it must return one bool per row$"):
        ms.algebra.sample_uniform(rng(953), 4, 3, bad)
    with pytest.raises(ms.ParameterError, match=r"^admissible '<lambda>' returned"):
        ms.sample_states(rng(953), 4, admissible=bad)
    with pytest.raises(ms.ParameterError, match=r"^admissible 'monopole_admissible_per_point'"):
        ms.sample_states(rng(953), 4, admissible=monopole_admissible_per_point)


def test_a_filter_may_return_a_list_of_bools():
    rows = ms.algebra.sample_uniform(rng(954), 4, 3, lambda y: [bool(v > 0) for v in y.T[0]])
    assert len(rows) == 4 and (rows.T[0] > 0).all()


def test_generator_inputs_match_lists():
    cb = list(_states(74, 20, p1_min=0.1))
    mono = list(stack_states(monopole_states(rng(75), 20)))
    checks = [
        (lambda st: ms.verify_bracket_table(2.0, st), cb),
        (lambda st: ms.casimir_check(2.0, st), cb),
        (lambda st: ms.monopole_closure_check(2.0, st, Q=1.0), mono),
    ]
    for check, states in checks:
        from_list = check(states)
        assert from_list["n_states"] == 20
        assert check(a for a in states) == from_list


_PAIR_TAKERS = {
    "verify_bracket_table": ("states", lambda s: ms.verify_bracket_table(2.0, s)),
    "casimir_check": ("states", lambda s: ms.casimir_check(2.0, s)),
    "monopole_closure_check": ("states", lambda s: ms.monopole_closure_check(2.0, s, Q=1.0)),
    "bracket_matrix": ("s", lambda s: ms.bracket_matrix(ms.constantB_basis(2.0), s)),
}


def _not_a_pair(case):
    """A states argument of the kind `case` that is not a pair of (n,3)
    stacks, and the end of its refusal."""
    x, p = ms.sample_states(rng(955), 4, p1_min=0.1, admissible=ms.monopole_admissible)
    bad_p = p.copy()
    bad_p[2, 1] = np.nan
    return {
        # the old input; a list of exactly two would unpack as x and p
        "two_states": (state_list((x[:2], p[:2])), r"is not a pair \(x, p\) of \(n,3\) arrays"),
        "four_states": (state_list((x, p)), r"is not a pair \(x, p\) of \(n,3\) arrays"),
        "shapes_differ": ((x, p[:3]), r"has x of shape \(4, 3\) and p of shape \(3, 3\), "
                                      r"not two \(n,3\) stacks of one shape"),
        "one_state": ((x[0], p[0]), r"has x of shape \(3,\) and p of shape \(3,\)"),
        "non_finite_p": ((x, bad_p), "has non-finite components"),
    }[case]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("taker", list(_PAIR_TAKERS))
@pytest.mark.parametrize("case", ["two_states", "four_states", "shapes_differ", "one_state",
                                  "non_finite_p"])
def test_states_that_are_not_a_pair_of_stacks_are_refused_by_name(taker, case):
    name, take = _PAIR_TAKERS[taker]
    states, problem = _not_a_pair(case)
    with pytest.raises(ms.ParameterError, match=f"^{name} {problem}"):
        take(states)


@pytest.mark.filterwarnings("error")
def test_no_sampled_states_are_two_empty_stacks():
    x, p = ms.sample_states(rng(956), 0)
    assert x.shape == p.shape == (0, 3)
    for rep in (ms.verify_bracket_table(2.0, (x, p)), ms.monopole_closure_check(2.0, (x, p))):
        assert rep["n_states"] == 0 and rep["max_discrepancy"] == 0.0
    cas = ms.casimir_check(2.0, (x, p))
    assert cas["n_states"] == 0 and cas["max_residual"] == 0.0
    assert ms.bracket_matrix(ms.constantB_basis(2.0), (x, p)).shape == (0, 7, 7)


def test_bracket_table_is_not_held_whole():
    # the basis rows (392 bytes a state) and the eight expected stacks (64)
    # stay whole; the (n, 7, 7) table and its products come 8192 states at a
    # time, about 9 MB at once. Held whole, they take about 1170 bytes a state
    n = 40000
    x, p = _states(958, n, p1_min=0.1)
    ms.verify_bracket_table(2.0, (x[:10], p[:10]))  # a warm-up
    tracemalloc.start()
    try:
        ms.verify_bracket_table(2.0, (x, p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 900 * n, peak / n


def test_sample_states_draws_are_pinned():
    # PCG64 uniform doubles use no libm, so these bits hold on every
    # platform; each try draws x then p, rejected or not (here p1 and the
    # fourth position are rejected)
    p1 = state_list(ms.sample_states(rng(5), 3, p1_min=1.0))
    assert [s.x.tolist() + s.p.tolist() for s in p1] == [
        [-0.3661071783200054, -1.8188992243902193, -1.8049691570913278,
         1.9967044602602857, 0.6094764463519509, -1.0619591933207042],
        [-0.2602097910994319, 1.8967447730370215, 1.5907104324341952,
         1.3769241504349639, -0.43038134266088734, -0.027907925073029638],
        [0.7167261320854599, 1.4803540093100134, -1.0907258993563675,
         1.581792957656504, 1.48878187209734, -1.925931129319157],
    ]
    mono = state_list(ms.sample_states(rng(3), 4, admissible=ms.monopole_admissible))
    assert [s.x.tolist() + s.p.tolist() for s in mono] == [
        [-1.6574033314255026, -1.0527579736156012, 1.2050978608255876,
         0.32864814425747113, -1.6234854310384033, -0.2674922390541048],
        [-0.0837948074366639, -1.3610443414516857, 0.9383086056368581,
         -1.5453119203143864, -0.43508723801735183, 0.0669607304854547],
        [-0.2774879183432888, 0.34719428575256295, 0.9513511491686408,
         1.8250690193443941, -0.8631953450048342, 0.5941888283193002],
        [1.5668442817806287, 0.34065175956363225, -0.11476133927267451,
         1.0931080385952656, -1.8786159693501152, 0.827860382622494],
    ]
