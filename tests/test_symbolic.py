"""A symbolic oracle for the uniform-field algebra.

The seven generators of `constantB_basis` are written out in sympy in the
gauge A = (0, -B z, 0), and their Poisson brackets are taken exactly. The
structure table and the numerical bracket tables are checked against
them, so neither depends on the code under test.
"""

import numpy as np
import pytest

import magsuper as ms

from helpers import random_states, rng

sp = pytest.importorskip("sympy")

X, Y, Z, P1, P2, P3, B = sp.symbols("x y z p1 p2 p3 B", real=True)
COORDS, MOMENTA = (X, Y, Z), (P1, P2, P3)


def _basis():
    """X1t..X7 as sympy expressions, in the order of constantB_basis."""
    th = B * X / P1
    return {
        "X1t": P1**2 / 2,
        "X2": P2,
        "X3": P3 - B * Y,
        "X4": Y * P3 - Z * P2 + B * (Z**2 - Y**2) / 2,
        "X5": (B * Z - P2) * sp.cos(th) - P3 * sp.sin(th),
        "X6": (P2 - B * Z) * sp.sin(th) - P3 * sp.cos(th),
        "X7": sp.Integer(1),
    }


def _bracket(f, g):
    return sum(sp.diff(f, q) * sp.diff(g, p) - sp.diff(f, p) * sp.diff(g, q)
               for q, p in zip(COORDS, MOMENTA))


def _brackets():
    """The 7x7 table of exact brackets {X_i, X_j}."""
    fns = list(_basis().values())
    return [[_bracket(f, g) for g in fns] for f in fns]


def test_basis_names_are_the_symbolic_ones():
    assert [f.name for f in ms.constantB_basis(1.0)] == list(_basis())


def test_every_bracket_is_its_structure_table_combination():
    basis = _basis()
    names = list(basis)
    table = ms.constantB_bracket_table(B)
    brackets = _brackets()
    for i in range(7):
        for j in range(i + 1, 7):
            combination = sum(c * basis[n] for n, c in table.combination(i, j).items())
            assert sp.simplify(brackets[i][j] - combination) == 0, (names[i], names[j])


def _lambdified(b_value):
    """The exact brackets as one numpy function of (x, p) stacks -> (n, 7, 7)."""
    table = [[sp.lambdify((*COORDS, *MOMENTA), e.subs(B, b_value), "numpy") for e in row]
             for row in _brackets()]

    def at(x, p):
        args = (*x.T, *p.T)
        return np.stack([np.stack([np.broadcast_to(f(*args), len(x)) for f in row], axis=-1)
                         for row in table], axis=-2)

    return at


def _states(seed, p1_min):
    states = random_states(rng(seed), 50, p1_min=p1_min)
    return np.array([s.x for s in states]), np.array([s.p for s in states])


@pytest.mark.parametrize("b_value", [1.3, -0.7])
def test_bracket_matrix_matches_the_exact_brackets(b_value):
    x, p = _states(91, 0.1)
    want = _lambdified(b_value)(x, p)
    got = ms.bracket_matrix(ms.constantB_basis(b_value), (x, p))
    assert got.shape == want.shape == (50, 7, 7)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("b_value", [1.3, -0.7])
def test_central_difference_brackets_match_the_exact_brackets(b_value):
    # the basis without its gradients: every bracket by central differences,
    # at the tolerance and the |p1| bound of the bracket-table fallback test
    x, p = _states(92, 0.5)
    want = _lambdified(b_value)(x, p)
    stripped = [ms.PhaseFunction(f.name, f.fn) for f in ms.constantB_basis(b_value)]
    got = ms.bracket_matrix(stripped, (x, p))
    assert np.max(np.abs(got - want)) < 1e-6


def test_basis_refuses_a_vanishing_p1():
    s = ms.PhaseState([0.3, 0.1, -0.2], [1e-9, 0.5, 0.7])
    basis = {f.name: f for f in ms.constantB_basis(1.0)}
    for name in ("X5", "X6"):
        with pytest.raises(ms.DegenerateMomentum):
            basis[name](s)
