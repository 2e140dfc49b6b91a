"""Bracket algebra of the uniform field and monopole angular closure."""

import numpy as np
import pytest

import magsuper as ms

from helpers import monopole_states, rng


def _states(seed, n, p1_min=0.0):
    return ms.sample_states(rng(seed), n, box=2.0, p1_min=p1_min)


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
    x = np.array([s.x for s in states])
    p = np.array([s.p for s in states])
    return float(np.max(np.abs(ms.bracket_matrix(stripped, (x, p)) - want((x, p)))))


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
    states = ms.sample_states(gen, 15, p1_min=0.5)
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
    for s in _states(65, 20, p1_min=0.2):
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
    rep = ms.monopole_closure_check(2.0, monopole_states(gen, 60), Q=1.0)
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

    assert _stripped_discrepancy(fns, monopole_states(rng(68), 30), want) < 1e-6


def test_zero_charge_reduces_to_angular_momenta():
    states = _states(69, 40)
    states = [s for s in states if np.linalg.norm(s.x) > 0.3]
    rep = ms.monopole_closure_check(0.0, states)
    assert rep["max_discrepancy"] < 1e-9


def test_monopole_function_values_match_covariant_specs():
    g, Q = 2.0, 1.0
    model = ms.Monopole(g=g, Q=Q)
    specs = {sp.name: sp for sp in ms.known_integrals(model)}
    gen = rng(70)
    for s in monopole_states(gen, 25):
        want = np.array([ms.evaluate_integral(specs[f"R{j + 1}"], model, s)
                         for j in range(3)])
        got = ms.runge_lenz(g, Q, s)
        assert np.max(np.abs(got - want)) < 1e-12
        x_sq = ms.evaluate_integral(specs["X_sq"], model, s)
        la = ms.covariant_angular_momentum(model, s)
        xvec = la + g * s.x / np.linalg.norm(s.x)
        assert float(xvec @ xvec) == pytest.approx(x_sq, rel=1e-12)


def test_runge_lenz_conserved_only_with_barrier():
    g, Q = 2.0, 1.0
    s0 = ms.PhaseState([1.2, 0.0, 0.4], [0.1, 0.9, 0.3])
    watch = ms.runge_lenz_functions(g, Q)
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
    traj = ms.integrate(model, s0, 20.0, watch=ms.runge_lenz_functions(0.0, Q))
    assert max(traj.drift(f"R{j}") for j in (1, 2, 3)) < 1e-7
    # eccentricity vector length: |R| = sqrt(1 + 2 H l^2) for this orbit
    h0 = ms.hamiltonian(model, s0)
    l0 = np.cross(s0.x, s0.p)
    want = np.sqrt(1.0 + 2.0 * h0 * float(l0 @ l0))
    got = np.linalg.norm(ms.runge_lenz(0.0, Q, s0))
    assert got == pytest.approx(want, rel=1e-12)


def test_runge_lenz_domain_errors():
    with pytest.raises(ms.DomainError):
        ms.runge_lenz(0.0, 1.0, ms.PhaseState([0, 0, 0], [1, 0, 0]))
    with pytest.raises(ms.DomainError):
        ms.runge_lenz(2.0, 1.0, ms.PhaseState([0, 0, -1.0], [1, 0, 0]))


def test_sample_states_contract():
    a = ms.sample_states(rng(71), 30, box=1.5, p1_min=0.3)
    b = ms.sample_states(rng(71), 30, box=1.5, p1_min=0.3)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.x, sb.x) and np.array_equal(sa.p, sb.p)
    for s in a:
        assert np.all(np.abs(s.x) <= 1.5) and np.all(np.abs(s.p) <= 1.5)
        assert abs(s.p[0]) >= 0.3
    picky = ms.sample_states(rng(72), 20, admissible=ms.monopole_admissible)
    assert all(ms.monopole_admissible(s.x) for s in picky)
    with pytest.raises(ms.ConfigError):
        ms.sample_states(rng(73), 1, admissible=lambda x: False)


def test_sample_states_gives_up_with_config_error():
    with pytest.raises(ms.ConfigError, match=r"^state sampling failed: 0 of 3 admissible "
                                             r"points in 3000 tries$"):
        ms.sample_states(rng(76), 3, admissible=lambda x: False)


def test_sample_uniform_draws_more_rows_than_a_fixed_cap():
    # the try cap grows with n; every row is admissible here, and one row
    # per try takes the same stream as a single draw of all of them
    n = 100_001
    rows = ms.algebra.sample_uniform(rng(77), n, 1, accept=lambda y: True)
    assert np.array_equal(rows, rng(77).uniform(-2.0, 2.0, (n, 1)))


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


def test_generator_inputs_match_lists():
    cb = _states(74, 20, p1_min=0.1)
    mono = monopole_states(rng(75), 20)
    checks = [
        (lambda st: ms.verify_bracket_table(2.0, st), cb),
        (lambda st: ms.casimir_check(2.0, st), cb),
        (lambda st: ms.monopole_closure_check(2.0, st, Q=1.0), mono),
    ]
    for check, states in checks:
        from_list = check(states)
        assert from_list["n_states"] == 20
        assert check(s for s in states) == from_list


def test_sample_states_draws_are_pinned():
    # PCG64 uniform doubles use no libm, so these bits hold on every
    # platform; each try draws x then p, rejected or not (here p1 and the
    # fourth position are rejected)
    p1 = ms.sample_states(rng(5), 3, p1_min=1.0)
    assert [s.x.tolist() + s.p.tolist() for s in p1] == [
        [-0.3661071783200054, -1.8188992243902193, -1.8049691570913278,
         1.9967044602602857, 0.6094764463519509, -1.0619591933207042],
        [-0.2602097910994319, 1.8967447730370215, 1.5907104324341952,
         1.3769241504349639, -0.43038134266088734, -0.027907925073029638],
        [0.7167261320854599, 1.4803540093100134, -1.0907258993563675,
         1.581792957656504, 1.48878187209734, -1.925931129319157],
    ]
    mono = ms.sample_states(rng(3), 4, admissible=ms.monopole_admissible)
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
