"""A symbolic oracle for the uniform-field algebra and the built-in integrals.

The seven generators of `constantB_basis` are written out in sympy in the
gauge A = (0, -B z, 0), and their Poisson brackets are taken exactly. The
structure table and the numerical bracket tables are checked against
them, so neither depends on the code under test. Likewise every entry of
`known_integrals` is written out in sympy for each model; its bracket
with H must simplify to 0, and the spec's parts, their derivatives and
the phase gradients of `bracket_matrix` must match the exact ones.
"""

import functools
from typing import NamedTuple

import numpy as np
import pytest

import magsuper as ms
from magsuper.fields import field_record
from magsuper.integrals import integral_record

from helpers import monopole_positions, random_states, rng

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


# ---------------------------------------------------------------------------
# the built-in integrals of every model
#
# Each model's A and V and each integral X(x, p) are written out below in
# the canonical momenta: the generators P_j, L_j and the screw L3 + beta P3
# made covariant, the monopole's X_j = l_j^A + g x_j/|x|, their square and
# the Runge-Lenz vector. The covariant parts s and m are derived from X
# alone: with p = pi - A(x), X is a polynomial of degree at most 2 in pi,
# s_i = dX/dpi_i and m = X at pi = 0. The library's s, m and their
# derivatives are only compared with these, never used to build them.
#
# A radius sqrt(x^2 + y^2 (+ z^2)) is the positive symbol r, differentiated
# by the chain rule, dr/dq = q/r. A bracket of functions rational in r is
# taken in the field of rational functions and vanishes when its numerator
# is 0 modulo r^2 = x^2 + y^2 (+ z^2); any other when sympy simplifies it
# to 0.

PI = sp.symbols("pi1 pi2 pi3", real=True)
AMP, BETA, PHI0, G, Q = sp.symbols("A_amp beta phi0 g Q", real=True)
RADIUS = sp.Symbol("r", positive=True)


class Case(NamedTuple):
    model: object
    params: dict  # sympy parameter -> its value in `model`
    a: list
    v: object
    integrals: dict  # name -> X(x, p)
    r2: object  # the square of RADIUS in the coordinates, or None


def _cross(u, v):
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


def _covariant(a):
    return [p + c for p, c in zip(MOMENTA, a)]


@functools.cache
def _constant_b():
    integrals = {"X1": P1, "X2": P2, "X3": P3 - B * Y,
                 "X4": Y * P3 - Z * P2 + B * (Z**2 - Y**2) / 2}
    return Case(ms.ConstantB(-1.3), {B: -1.3}, [0, -B * Z, 0], 0, integrals, None)


@functools.cache
def _helical():
    u = (Z + PHI0) / BETA
    integrals = {"X1": P1, "X2": P2, "X3": X * P2 - Y * P1 + BETA * P3}
    return Case(ms.HelicalB(1.7, -0.8, phi0=0.4), {AMP: 1.7, BETA: -0.8, PHI0: 0.4},
                [-AMP * sp.cos(u), -AMP * sp.sin(u), 0], 0, integrals, None)


@functools.cache
def _monopole():
    coef = -G / (RADIUS * (RADIUS + Z))
    a = [coef * Y, -coef * X, 0]
    pa = _covariant(a)
    angular = [c + G * q / RADIUS for c, q in zip(_cross(COORDS, pa), COORDS)]
    integrals = {f"X{j + 1}": c for j, c in enumerate(angular)}
    integrals["X_sq"] = sum(c**2 for c in angular)
    # R_j = eps_jkl p_k^A X_l - Q x_j/|x|
    integrals.update({f"R{j + 1}": c - Q * q / RADIUS
                      for j, (c, q) in enumerate(zip(_cross(pa, angular), COORDS))})
    return Case(ms.Monopole(1.3, Q=0.9), {G: 1.3, Q: 0.9}, a,
                G**2 / (2 * RADIUS**2) - Q / RADIUS, integrals, X**2 + Y**2 + Z**2)


# polynomial F1, F2 and V of the radius, with coefficients exact in binary
_F1 = (sp.Rational(1, 2), sp.Rational(-1, 4), sp.Rational(3, 8))
_F2 = (0, 0, sp.Rational(3, 4), sp.Rational(1, 8))
_V = (0, 0, sp.Rational(1, 2), 0, sp.Rational(-1, 16))


def _poly(coefs):
    return sum(c * RADIUS**k for k, c in enumerate(coefs))


def _radial(coefs):
    """The polynomial and its derivative as functions of one radius."""
    c = [float(k) for k in coefs]
    return (lambda r: sum(ck * r**k for k, ck in enumerate(c)),
            lambda r: sum(k * ck * r ** (k - 1) for k, ck in enumerate(c) if k))


@functools.cache
def _cylindrical():
    f2 = _poly(_F2)
    a = [-Y * f2 / RADIUS**2, X * f2 / RADIUS**2, -_poly(_F1)]
    model = ms.Cylindrical(*_radial(_F1), *_radial(_F2), *_radial(_V))
    return Case(model, {}, a, _poly(_V), {"l3": X * P2 - Y * P1, "p3": P3}, X**2 + Y**2)


CASES = {"constant_b": _constant_b, "helical": _helical, "monopole": _monopole,
         "cylindrical": _cylindrical}
INTEGRALS = [(case, name) for case, make in CASES.items() for name in make().integrals]


def _d(expr, q, r2):
    """d expr/dq, RADIUS depending on the coordinates through r2."""
    out = sp.diff(expr, q)
    if r2 is not None and q in COORDS:
        out += sp.diff(expr, RADIUS) * sp.diff(r2, q) / (2 * RADIUS)
    return out


def _hamiltonian(case: Case):
    return sum(c**2 for c in _covariant(case.a)) / 2 + case.v


def _radial_bracket_vanishes(f, g, r2) -> bool:
    """{f, g} = 0 for f and g rational in the coordinates, the momenta and
    RADIUS. RADIUS is the first variable of the field, so the remainder of
    the numerator holds it to degree below 2."""
    variables = (RADIUS, *COORDS, *MOMENTA)
    field, r, *_ = sp.field((*variables, *(f.free_symbols | g.free_symbols) - set(variables)),
                            sp.QQ)

    def d(e, q):
        out = e.diff(field(q))
        if q in COORDS:
            out += e.diff(r) * field(sp.diff(r2, q)) / (2 * r)
        return out

    f, g = field(f), field(g)
    bracket = sum((d(f, q) * d(g, p) - d(f, p) * d(g, q) for q, p in zip(COORDS, MOMENTA)),
                  field(0))
    return bracket.numer.rem([field.ring(RADIUS**2 - r2)]) == 0


def _numeric(exprs, case: Case, x, p):
    """The expressions at the parameters of the case's model and at the
    (x, p) stacks, shape (n, len(exprs))."""
    fn = sp.lambdify((*COORDS, *MOMENTA, RADIUS),
                     [sp.sympify(e).subs(case.params) for e in exprs], "numpy", cse=True)
    r = None if case.r2 is None else np.sqrt(sp.lambdify(COORDS, case.r2)(*x.T))
    return np.stack([np.broadcast_to(v, len(x)) for v in fn(*x.T, *p.T, r)], axis=-1)


def _gradient(expr, variables, case: Case, x, p):
    """d expr/d variables at the (x, p) stacks, shape (n, len(variables))."""
    return _numeric([_d(expr, q, case.r2) for q in variables], case, x, p)


def _covariant_parts(case: Case, name: str):
    """(s, m) of an integral: its linear and constant terms in pi."""
    of_pi = case.integrals[name].subs(dict(zip(MOMENTA, [q - c for q, c in zip(PI, case.a)])),
                                      simultaneous=True)
    at_zero = dict.fromkeys(PI, 0)
    return [sp.diff(of_pi, q).subs(at_zero) for q in PI], of_pi.subs(at_zero)


def _sample(case: str, n: int, seed: int):
    """n seeded states (x, p) inside the model's domain."""
    gen = rng(seed)
    if case == "monopole":
        x = np.array(monopole_positions(gen, n))
    else:
        x = gen.uniform(-2.0, 2.0, (4 * n, 3))
        if case == "cylindrical":  # off the axis, where F2/R^2 is singular
            x = x[np.hypot(x[:, 0], x[:, 1]) > 0.3]
        x = x[:n]
    return x, gen.uniform(-2.0, 2.0, x.shape)


def _close(got, want) -> bool:
    """Within 1e-12 relative, or absolute below magnitude 1."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    return bool(np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))))


@pytest.mark.parametrize("case", list(CASES))
def test_known_integral_names_are_the_symbolic_ones(case):
    c = CASES[case]()
    assert [spec.name for spec in ms.known_integrals(c.model)] == list(c.integrals)


@pytest.mark.parametrize("case, name", INTEGRALS)
def test_symbolic_integral_commutes_with_h(case, name):
    c = CASES[case]()
    if c.r2 is None:
        assert sp.simplify(_bracket(c.integrals[name], _hamiltonian(c))) == 0
    else:
        assert _radial_bracket_vanishes(c.integrals[name], _hamiltonian(c), c.r2)


@pytest.mark.parametrize("case, name", INTEGRALS)
def test_spec_parts_match_the_symbolic_derivatives(case, name):
    c = CASES[case]()
    spec = {s.name: s for s in ms.known_integrals(c.model)}[name]
    s_sym, m_sym = _covariant_parts(c, name)
    x, p = _sample(case, 40, 71)
    # the value pins alpha, s and m together
    assert _close(ms.evaluate_integral(spec, c.model, (x, p)),
                  _numeric([c.integrals[name]], c, x, p)[:, 0])
    parts = integral_record(spec, field_record(c.model, x))
    assert _close(parts.s, _numeric(s_sym, c, x, p))
    assert _close(parts.jac_s, np.stack([_gradient(e, COORDS, c, x, p) for e in s_sym],
                                        axis=-2))
    assert _close(np.zeros(len(x)) if spec.m is None else spec.m(x),
                  _numeric([m_sym], c, x, p)[:, 0])
    assert _close(parts.grad_m, _gradient(m_sym, COORDS, c, x, p))


@pytest.mark.parametrize("case", list(CASES))
def test_bracket_matrix_gradients_match_the_symbolic_ones(case):
    c = CASES[case]()
    exprs = [_hamiltonian(c), *c.integrals.values()]
    fns = [ms.hamiltonian_function(c.model),
           *(ms.as_phase_function(s, c.model) for s in ms.known_integrals(c.model))]
    x, p = _sample(case, 40, 73)
    want_x, want_p = [], []
    for f, expr in zip(fns, exprs):
        gx, gp = ms.phase_gradient(f, (x, p))
        want = _gradient(expr, (*COORDS, *MOMENTA), c, x, p)
        want_x.append(want[:, :3])
        want_p.append(want[:, 3:])
        assert _close(gx, want_x[-1]), f.name
        assert _close(gp, want_p[-1]), f.name
    # {f_i, f_j} from the exact gradients
    m = np.einsum("ink,jnk->nij", want_x, want_p)
    assert _close(ms.bracket_matrix(fns, (x, p)), m - m.transpose(0, 2, 1))


# ---------------------------------------------------------------------------
# each closed-form model's statement, and each built-in integral's, read in
# sympy


def _statement_outputs(st, **env):
    """Every name that the statement st assigns, in sympy: its lines
    evaluated in order on the symbols x, y, z, the names of `env` and its
    other parameters, with sqrt, cos, sin and pow as sympy's, `at` as
    function application, and its decimals as exact rationals. The f1, f2
    and v of a Cylindrical are sympy functions, and df1, df2 and dv their
    derivatives."""
    env = {"x0": X, "x1": Y, "x2": Z, **env}
    r = sp.Dummy("r")
    for name in ("f1", "f2", "v"):
        if name in st.params.split():
            env[name] = sp.Function(name.upper())
            env["d" + name] = lambda q, fn=env[name]: fn(r).diff(r).subs(r, q)
    env.update((p, sp.Symbol(p, real=True)) for p in st.params.split() if p not in env)
    functions = {"sqrt": sp.sqrt, "cos": sp.cos, "sin": sp.sin, "pow": sp.Pow,
                 "at": lambda fn, r: fn(r)}
    for line in st.text.strip().splitlines():
        name, expr = line.strip().split(" = ", 1)
        value = sp.sympify(eval(expr, functions, env))
        env[name] = value.xreplace({f: sp.Rational(str(f)) for f in value.atoms(sp.Float)})
    return env


@pytest.mark.parametrize("cls, barrier", [(ms.ConstantB, True), (ms.HelicalB, True),
                                          (ms.Monopole, True), (ms.Monopole, False),
                                          (ms.Cylindrical, True)])
def test_statement_states_b_j_and_grad_v_of_its_a_and_v(cls, barrier):
    # an output that the statement does not assign is a structural zero
    out = _statement_outputs(cls.statement, barrier=barrier)
    a = [out.get(f"A{i}", 0) for i in range(3)]
    v = out.get("V", 0)
    curl = [sp.diff(a[2], Y) - sp.diff(a[1], Z), sp.diff(a[0], Z) - sp.diff(a[2], X),
            sp.diff(a[1], X) - sp.diff(a[0], Y)]
    for i in range(3):
        assert sp.simplify(out.get(f"B{i}", 0) - curl[i]) == 0, f"B{i}"
        assert sp.simplify(out.get(f"G{i}", 0) - sp.diff(v, COORDS[i])) == 0, f"G{i}"
        for k in range(3):
            assert sp.simplify(out.get(f"J{i}{k}", 0) - sp.diff(a[i], COORDS[k])) == 0, f"J{i}{k}"


def _integral_statements():
    from magsuper import integrals

    tables = {"constant_b": integrals._CONSTANT_B, "helical": integrals._HELICAL,
              "monopole": {**integrals._ANGULAR, **integrals._SQUARE, **integrals._RUNGE_LENZ},
              "cylindrical": integrals._CYLINDRICAL, "spec file": integrals._CONSTANT}
    return {(case, name): stated[1] for case, table in tables.items()
            for name, stated in table.items()}


@pytest.mark.parametrize("case, name", list(_integral_statements()))
def test_integral_statement_states_j_s_and_grad_m_of_its_s_and_m(case, name):
    # an output that the statement does not assign is a structural zero
    out = _statement_outputs(_integral_statements()[case, name])
    s = [out.get(f"s{i}", 0) for i in range(3)]
    m = out.get("m", 0)
    for k in range(3):
        assert sp.simplify(out.get(f"M{k}", 0) - sp.diff(m, COORDS[k])) == 0, f"M{k}"
        for i in range(3):
            assert sp.simplify(out.get(f"S{i}{k}", 0) - sp.diff(s[i], COORDS[k])) == 0, f"S{i}{k}"
