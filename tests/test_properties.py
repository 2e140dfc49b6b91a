"""Property tests over the signs and sizes of the field parameters.

Hypothesis draws the sign of B, the monopole charge g, the sign of the
helical pitch beta and the phase phi0, then checks identities that hold
for every such system: the bracket table is antisymmetric and agrees
with `poisson_bracket` pair by pair, every known integral commutes with
H up to round-off, in any gauge, and the uniform-field algebra keeps its
structure constants and both Casimirs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import magsuper as ms

from helpers import monopole_states, random_states, rng

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)

#: |{f, g}| of a true identity is round-off of the two products in
#: fx . gp - gx . fp; 64 eps of their sizes leaves a wide margin
ROUND_OFF = 64 * float(np.finfo(float).eps)

sign = st.sampled_from([-1.0, 1.0])
size = st.floats(0.3, 3.0)
seed = st.integers(0, 2**32 - 1)


@st.composite
def systems(draw):
    kind = draw(st.sampled_from(["constant_b", "helical", "monopole"]))
    if kind == "constant_b":
        return ms.ConstantB(B=draw(sign) * draw(size))
    if kind == "helical":
        return ms.HelicalB(A_amp=draw(size), beta=draw(sign) * draw(size),
                           phi0=draw(st.floats(-np.pi, np.pi)))
    return ms.Monopole(g=draw(sign) * draw(size), Q=draw(st.floats(-2.0, 2.0)),
                       barrier=draw(st.booleans()))


def _functions(model):
    specs = ms.known_integrals(model)
    return [ms.as_phase_function(sp, model) for sp in specs], ms.hamiltonian_function(model)


def _states(model, seed, n=4):
    if isinstance(model, ms.Monopole):
        return monopole_states(rng(seed), n)
    return random_states(rng(seed), n)


@SETTINGS
@given(systems(), seed)
def test_bracket_matrix_is_antisymmetric_and_pairwise(model, seed):
    fns, h = _functions(model)
    fns.append(h)
    for s in _states(model, seed):
        m = ms.bracket_matrix(fns, s)
        assert np.array_equal(m, -m.T)
        assert not np.diag(m).any()
        for i, f in enumerate(fns):
            for j, g in enumerate(fns):
                assert m[i, j] == ms.poisson_bracket(f, g, s)


@SETTINGS
@given(systems(), seed)
def test_known_integrals_commute_with_h(model, seed):
    fns, h = _functions(model)
    for s in _states(model, seed):
        hx, hp = ms.phase_gradient(h, s)
        m = ms.bracket_matrix([*fns, h], s)
        for i, f in enumerate(fns):
            fx, fp = ms.phase_gradient(f, s)
            scale = (np.linalg.norm(fx) * np.linalg.norm(hp)
                     + np.linalg.norm(hx) * np.linalg.norm(fp))
            assert abs(m[i, -1]) <= ROUND_OFF * scale, f.name


@SETTINGS
@given(systems(), seed, st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9))
def test_integrals_are_gauge_invariant(model, seed, coef):
    # chi = x.Sx/2 + c.x: A -> A + grad chi with p -> p - grad chi keeps
    # every covariant integral and H, and their brackets
    S = np.array([[coef[0], coef[1], coef[2]],
                  [coef[1], coef[3], coef[4]],
                  [coef[2], coef[4], coef[5]]])
    c = np.array(coef[6:])
    chi = ms.GaugeFunction(chi=lambda x: 0.5 * x @ S @ x + c @ x,
                           gradient=lambda x: S @ x + c, hessian=lambda x: S)
    shifted = ms.gauge_shift(model, chi)
    fns, h = _functions(model)
    moved = [ms.as_phase_function(sp, shifted) for sp in ms.known_integrals(model)]
    moved.append(ms.hamiltonian_function(shifted))
    for s in _states(model, seed):
        t = ms.PhaseState(s.x, s.p - chi.gradient(s.x))
        for f, g in zip([*fns, h], moved):
            assert abs(g(t) - f(s)) <= 1e-12 * max(1.0, abs(f(s))), f.name
        hx, hp = ms.phase_gradient(moved[-1], t)
        m = ms.bracket_matrix(moved, t)
        for i, f in enumerate(moved[:-1]):
            fx, fp = ms.phase_gradient(f, t)
            scale = (np.linalg.norm(fx) * np.linalg.norm(hp)
                     + np.linalg.norm(hx) * np.linalg.norm(fp))
            assert abs(m[i, -1]) <= ROUND_OFF * scale, f.name


@SETTINGS
@given(sign, size, seed)
def test_constant_b_structure_constants_and_casimirs(sign, size, seed):
    B = sign * size
    basis = ms.constantB_basis(B)
    table = ms.constantB_bracket_table(B)
    states = random_states(rng(seed), 10, p1_min=0.1)
    for s in states:
        m = ms.bracket_matrix(basis, s)
        grads = [ms.phase_gradient(f, s) for f in basis]
        vals = {f.name: f(s) for f in basis}
        for i, (fx, fp) in enumerate(grads):
            for j, (gx, gp) in enumerate(grads):
                terms = [c * vals[k] for k, c in table.combination(i, j).items()]
                scale = (np.linalg.norm(fx) * np.linalg.norm(gp)
                         + np.linalg.norm(gx) * np.linalg.norm(fp) + sum(map(abs, terms)))
                assert abs(m[i, j] - sum(terms)) <= ROUND_OFF * scale
    # 2 X1t X7 + X5^2 + X6^2 = 2H and 2(B X4 + X1t) X7 + X2^2 + X3^2 = 2H
    assert ms.casimir_check(B, states)["max_residual"] < 1e-10


@SETTINGS
@given(sign, size, st.floats(-2.0, 2.0), seed)
def test_monopole_closure_either_charge(sign, size, Q, seed):
    rep = ms.monopole_closure_check(sign * size, monopole_states(rng(seed), 20), Q=Q)
    assert rep["max_discrepancy"] < 1e-9
