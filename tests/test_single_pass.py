"""The checks in one pass: residuals, phase gradients and bracket tables
over a whole stack of sample states from one field record, and
fields-check as one stacked central-difference pass.

Each result is compared bit for bit with the per-pair or per-point loop
it replaces, written out here as the reference: one-point arithmetic,
BLAS `@` on 3-vectors and libm powers. The stacks hold at least 300
points, so that a last-bit slip in a stacked reduction or power shows.
"""

import json

import numpy as np
import pytest

import magsuper as ms
from magsuper import cli
from magsuper.algebra import _zero_field_model

from helpers import (CoeffPolynomialsUnfolded, bracket_table_reference,
                     integral_gradient_reference, monopole_positions, monopole_states,
                     random_states, residuals_reference, rng, stack_states)


# ---------------------------------------------------------------------------
# brackets


def _reference_verify_brackets(specs, model, states):
    """bracket_with_h and bracket_matrix from one two-function table per pair."""
    h_fn = ms.hamiltonian_function(model)
    fns = [ms.as_phase_function(sp, model) for sp in specs]
    bracket_h = {
        sp.name: max(abs(ms.bracket_matrix([f, h_fn], s)[0, 1]) for s in states)
        for sp, f in zip(specs, fns)
    }
    k = len(fns)
    matrix = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            val = max(abs(ms.bracket_matrix([fns[i], fns[j]], s)[0, 1]) for s in states)
            matrix[i][j] = matrix[j][i] = val
    return bracket_h, matrix


def _write_spec(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"integrals": [
        {"known": "X4"},
        {"known": "X2"},
        {"name": "p2sq", "alpha": {"22": 1.0}, "s": [0.0, 1.0, 0.0], "m": 0.5},
        {"name": "lin", "s": [1.0, 0.0, 0.0], "m": "zero"},
    ]}), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("args, rc", [
    (["--system", "constant_b"], 0),
    (["--system", "helical"], 0),
    (["--system", "monopole"], 0),
    (["--system", "monopole", "--mode", "quantum"], 0),
    (["--system", "monopole", "--potential", "coulomb-only"], 2),
    (["--system", "constant_b", "--spec", "SPEC"], 2),
], ids=["constant_b", "helical", "monopole", "quantum", "coulomb-only", "spec"])
def test_verify_report_matches_per_pair_brackets(tmp_path, args, rc):
    spec = _write_spec(tmp_path)
    args = [spec if a == "SPEC" else a for a in args]
    out = tmp_path / "verify.json"
    assert cli.main(["verify", *args, "--n-points", "15", "--seed", "7",
                     "--out", str(out)]) == rc

    ns = cli.build_parser().parse_args(["verify", *args])
    model = ms.model_from_config(cli._config_for(ns)["system"])
    specs = cli._load_spec_file(spec, model) if ns.spec else cli._verify_specs(model)
    gen = cli._rng(7)
    states = [ms.PhaseState(x, gen.uniform(-2.0, 2.0, 3))
              for x in cli._sample_positions(gen, 15, model)]
    bracket_h, matrix = _reference_verify_brackets(specs, model, states)

    text = out.read_text(encoding="utf-8")
    doc = json.loads(text)
    doc["bracket_with_h"], doc["bracket_matrix"] = bracket_h, matrix
    doc["pass"] = (max(doc["max_residual_by_equation"].values()) < doc["tolerance"]
                   and max(bracket_h.values()) < doc["tolerance"])
    assert cli.dumps_report(doc) + "\n" == text


def _one_point_gradient(f, s):
    """(df/dx, df/dp) at one state: the function's own gradient, or
    central differences when it has none."""
    if f.grad is not None:
        gx, gp = f.grad(s)
        return np.asarray(gx, dtype=float), np.asarray(gp, dtype=float)
    g = _jacobian_one_point(lambda z: f.fn(ms.PhaseState.from_array(z)), s.as_array())
    return g[:3], g[3:]


def _one_point_bracket(fg, gg):
    (fx, fp), (gx, gp) = fg, gg
    return fx @ gp - gx @ fp


def _reference_bracket_table(B, states, use_gradients):
    basis = ms.constantB_basis(B)
    if not use_gradients:
        basis = [ms.PhaseFunction(f.name, f.fn, None) for f in basis]
    table = ms.constantB_bracket_table(B)
    by_name = {f.name: f for f in basis}
    grads = [[_one_point_gradient(f, s) for f in basis] for s in states]
    pairs = {}
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            worst = 0.0
            for s, g in zip(states, grads):
                br = _one_point_bracket(g[i], g[j])
                pred = sum(c * by_name[k](s) for k, c in table.combination(i, j).items())
                worst = max(worst, abs(br - pred))
            pairs[f"{{{basis[i].name},{basis[j].name}}}"] = worst
    return {"pairs": pairs, "max_discrepancy": max(pairs.values()),
            "n_states": len(states)}


def _stripped(fns):
    """The functions without their gradients: brackets by central differences."""
    return [ms.PhaseFunction(f.name, f.fn) for f in fns]


def _stripped_bracket_table(B, states):
    """The report of verify_bracket_table for the basis with its gradients
    stripped, all states through one bracket_matrix."""
    basis = ms.constantB_basis(B)
    table = ms.constantB_bracket_table(B)
    s = stack_states(states)
    vals = {f.name: f.fn(s) for f in basis}
    br = ms.bracket_matrix(_stripped(basis), s)
    pairs = {}
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            pred = sum(c * vals[n] for n, c in table.combination(i, j).items())
            pairs[f"{{{basis[i].name},{basis[j].name}}}"] = float(
                np.max(np.abs(br[:, i, j] - pred)))
    return {"pairs": pairs, "max_discrepancy": max(pairs.values()),
            "n_states": len(states)}


@pytest.mark.parametrize("use_gradients", [True, False])
@pytest.mark.parametrize("B", [1.3, -0.7])
def test_bracket_table_matches_per_pair_loop(B, use_gradients):
    states = random_states(rng(611), 300 if use_gradients else 40, p1_min=0.1)
    got = (ms.verify_bracket_table(B, stack_states(states)) if use_gradients
           else _stripped_bracket_table(B, states))
    assert got == _reference_bracket_table(B, states, use_gradients)


def _reference_closure(g, states, Q, use_gradients):
    model = ms.Monopole(g=g, Q=Q) if g != 0 else _zero_field_model()
    specs = [*ms.monopole_angular_specs(g), ms.monopole_total_square_spec(g)]
    checks = {}
    for s in states:
        if use_gradients:
            grads = [_reference_gradient(sp, model, s.x, s.p) for sp in specs]
        else:
            grads = [_one_point_gradient(ms.PhaseFunction("f", ms.as_phase_function(sp, model).fn), s)
                     for sp in specs]
        vals = [ms.evaluate_integral(sp, model, s) for sp in specs[:3]]
        for j in range(3):
            k, l = (j + 1) % 3, (j + 2) % 3
            name = f"{{X{j + 1},X{k + 1}}}-X{l + 1}"
            checks[name] = max(checks.get(name, 0.0),
                               abs(_one_point_bracket(grads[j], grads[k]) - vals[l]))
        for j in range(3):
            name = f"{{X_sq,X{j + 1}}}"
            checks[name] = max(checks.get(name, 0.0), abs(_one_point_bracket(grads[3], grads[j])))
    return {"checks": checks, "max_discrepancy": max(checks.values()),
            "n_states": len(states)}


def _stripped_closure(g, states, Q):
    """The report of monopole_closure_check for the functions with their
    gradients stripped, all states through one bracket_matrix."""
    model = ms.Monopole(g=g, Q=Q) if g != 0 else _zero_field_model()
    specs = [*ms.monopole_angular_specs(g), ms.monopole_total_square_spec(g)]
    fns = [ms.as_phase_function(sp, model) for sp in specs]
    s = stack_states(states)
    vals = [f.fn(s) for f in fns[:3]]
    br = ms.bracket_matrix(_stripped(fns), s)
    checks = {}
    for j in range(3):
        k, l = (j + 1) % 3, (j + 2) % 3
        checks[f"{{X{j + 1},X{k + 1}}}-X{l + 1}"] = float(np.max(np.abs(br[:, j, k] - vals[l])))
    for j in range(3):
        checks[f"{{X_sq,X{j + 1}}}"] = float(np.max(np.abs(br[:, 3, j])))
    return {"checks": checks, "max_discrepancy": max(checks.values()),
            "n_states": len(states)}


@pytest.mark.parametrize("use_gradients", [True, False])
@pytest.mark.parametrize("g, Q", [(2.0, 1.0), (-1.5, 0.0), (0.0, 0.0)])
def test_closure_check_matches_per_pair_loop(g, Q, use_gradients):
    states = monopole_states(rng(612), 300 if use_gradients else 40)
    got = (ms.monopole_closure_check(g, stack_states(states), Q=Q) if use_gradients
           else _stripped_closure(g, states, Q))
    assert got == _reference_closure(g, states, Q, use_gradients)


def test_bracket_matrix_computes_each_gradient_once():
    model = ms.Monopole(g=2.0, Q=1.0)
    calls = []

    def counted(f):
        def grad(s):
            calls.append(f.name)
            return f.grad(s)
        return ms.PhaseFunction(f.name, f.fn, grad)

    fns = [counted(ms.as_phase_function(sp, model)) for sp in ms.known_integrals(model)]
    fns.append(counted(ms.hamiltonian_function(model)))
    s = monopole_states(rng(613), 1)[0]
    m = ms.bracket_matrix(fns, s)
    assert sorted(calls) == sorted(f.name for f in fns)
    assert m.shape == (len(fns), len(fns))
    assert np.array_equal(m, -m.T)


# ---------------------------------------------------------------------------
# fields-check

_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)


def _jacobian_one_point(f, x):
    cols = []
    for j in range(len(x)):
        h = _STEP * max(1.0, abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        cols.append(np.subtract(f(xp), f(xm)) / (2 * h))
    return np.array(cols).T


def _reference_divergence_checks(model, points):
    """The per-point loop it replaces: 19 model calls per point, with the
    A Jacobian built twice."""
    max_db = max_cm = max_da = 0.0
    n = 0
    for x in points:
        x = np.asarray(x, dtype=float)
        model.check_domain(x)
        jb = _jacobian_one_point(model.magnetic_field, x)
        max_db = max(max_db, abs(float(np.trace(jb))))
        ja = _jacobian_one_point(model.vector_potential, x)
        curl = np.array([ja[2, 1] - ja[1, 2], ja[0, 2] - ja[2, 0], ja[1, 0] - ja[0, 1]])
        max_cm = max(max_cm, float(np.max(np.abs(curl - model.magnetic_field(x)))))
        ja = _jacobian_one_point(model.vector_potential, x)
        max_da = max(max_da, abs(float(np.trace(ja))))
        n += 1
    return ms.FieldCheckReport(max_db, max_cm, max_da, n)


def _one_point(fn):
    def wrapped(x):
        assert np.shape(x) == (3,), "user code must see one point"
        return fn(x)
    return wrapped


def _custom_model():
    return ms.Custom(
        a=_one_point(lambda x: np.array([-x[1] * x[2], x[0] * x[2], 0.5 * x[0] ** 2])),
        v=_one_point(lambda x: 0.0),
    )


def _shifted_helical():
    chi = ms.GaugeFunction(
        chi=lambda x: x[0] * x[1] + 0.5 * x[2] ** 2,
        gradient=_one_point(lambda x: np.array([x[1], x[0], x[2]])),
    )
    return ms.gauge_shift(ms.HelicalB(A_amp=1.0, beta=1.0, phi0=0.7), chi)


def _cyl_model():
    return ms.Cylindrical(
        f1=lambda r: r**2, df1=lambda r: 2 * r,
        f2=lambda r: r**3, df2=lambda r: 3 * r**2,
        v=lambda r: 0.5 * r**2, dv=lambda r: r,
    )


@pytest.mark.parametrize("model", [
    ms.ConstantB(B=1.3),
    ms.ConstantB(B=-0.8),
    ms.HelicalB(A_amp=3.0, beta=3.0, phi0=0.7),
    ms.HelicalB(A_amp=1.0, beta=-0.5),
    ms.Monopole(g=2.0, Q=1.0),
    _cyl_model(),
    _custom_model(),
    _shifted_helical(),
], ids=["constant_b", "constant_b_negative", "helical", "helical_negative_beta",
        "monopole", "cylindrical", "custom", "gauge_shifted"])
def test_stacked_divergence_checks_match_per_point_loop(model):
    # enough points that a last-bit difference between the stacked and the
    # one-point arithmetic (numpy's vectorised power, say) shows
    if isinstance(model, ms.Monopole):
        pts = monopole_positions(rng(621), 300)
    else:
        pts = [x for x in rng(621).uniform(-2.0, 2.0, (300, 3)) if np.hypot(x[0], x[1]) > 0.3]
    assert ms.divergence_checks(model, pts) == _reference_divergence_checks(model, pts)
    # a generator gives the same report
    assert ms.divergence_checks(model, (x for x in pts)) == _reference_divergence_checks(model, pts)
    # and so does one (n,3) array, validated as a whole
    assert ms.divergence_checks(model, np.array(pts)) == _reference_divergence_checks(model, pts)


@pytest.mark.parametrize("model", [
    ms.ConstantB(B=-0.8),
    ms.HelicalB(A_amp=3.0, beta=3.0, phi0=0.7),
    ms.Monopole(g=2.0, Q=1.0),
    _cyl_model(),
], ids=["constant_b", "helical", "monopole", "cylindrical"])
def test_stacked_fields_have_one_point_bits(model):
    # the report keeps only maxima, which hide most points: compare the A and
    # B that the stacked pass is built from, over enough points that a last-bit
    # difference (numpy's vectorised power against libm's pow) shows
    if isinstance(model, ms.Monopole):
        xs = np.array(monopole_positions(rng(624), 4000))
    else:
        xs = rng(624).uniform(-2.0, 2.0, (4000, 3))
    if isinstance(model, ms.Cylindrical):
        # add radii that numpy's vectorised square rounds unlike pow (about
        # 1 in 1000), on the x-axis where hypot gives them back exactly
        r = rng(625).uniform(0.3, 3.0, 20000)
        r = r[r**2 != np.array([v**2 for v in r.tolist()])]
        xs = np.vstack([xs, np.column_stack([r, np.zeros_like(r), r])])
    for name in ("vector_potential", "magnetic_field", "jacobian_a", "grad_potential"):
        method = getattr(model, name)
        assert np.array_equal(method(xs), [method(x) for x in xs]), name


def test_stacked_divergence_checks_name_the_first_bad_point():
    model = ms.Monopole(g=2.0, Q=1.0)
    pts = monopole_positions(rng(622), 6)
    pts[2] = np.array([0.0, 0.0, -1.0])
    pts[4] = np.array([0.0, 0.0, 0.0])
    with pytest.raises(ms.DomainError) as single:
        model.check_domain(pts[2])
    with pytest.raises(ms.DomainError) as stacked:
        ms.divergence_checks(model, pts)
    assert str(stacked.value) == str(single.value)
    assert "Dirac string" in str(stacked.value)


def test_stacked_divergence_checks_validate_points():
    model = ms.ConstantB(B=1.0)
    assert ms.divergence_checks(model, []) == ms.FieldCheckReport(0.0, 0.0, 0.0, 0)
    with pytest.raises(ValueError, match="3-vector"):
        ms.divergence_checks(model, [np.zeros(3), np.zeros(2)])
    with pytest.raises(ValueError, match="non-finite"):
        ms.divergence_checks(model, [np.zeros(3), np.array([0.0, np.nan, 1.0])])


def test_divergence_checks_validate_an_array_stack_at_once():
    model = ms.ConstantB(B=1.0)
    xs = rng(626).uniform(-2.0, 2.0, (50, 3))
    assert ms.divergence_checks(model, xs) == ms.divergence_checks(model, list(xs))
    assert ms.divergence_checks(model, np.empty((0, 3))) == ms.FieldCheckReport(0.0, 0.0, 0.0, 0)
    xs[7, 1] = np.inf
    with pytest.raises(ms.ParameterError, match="^vector has non-finite components$"):
        ms.divergence_checks(model, xs)
    # an array of other points still goes point by point, with its message
    with pytest.raises(ms.ParameterError, match=r"^expected a 3-vector, got shape \(2,\)$"):
        ms.divergence_checks(model, np.zeros((4, 2)))


def test_jacobian_fd_of_a_stack_matches_each_point():
    model = ms.HelicalB(A_amp=2.0, beta=0.7, phi0=0.3)
    xs = rng(623).uniform(-3.0, 3.0, (9, 3))
    stacked = ms.fields.jacobian_fd(model.vector_potential, xs)
    assert stacked.shape == (9, 3, 3)
    for x, j in zip(xs, stacked):
        assert np.array_equal(j, _jacobian_one_point(model.vector_potential, x))
    # a scalar function of stacks gives one gradient per point
    grads = ms.fields.jacobian_fd(lambda q: np.sum(q**2, axis=-1), xs)
    assert grads.shape == (9, 3)
    np.testing.assert_allclose(grads, 2 * xs, rtol=1e-9)


# ---------------------------------------------------------------------------
# residuals, gradients and bracket tables over a stack


def _reference_spec_parts(spec, x):
    """s, its Jacobian and grad m at one point, as the one-point kernels
    took them: the spec's functions, or central differences."""
    if spec.s is None:
        sv, js = np.zeros(3), np.zeros((3, 3))
    else:
        sv = np.asarray(spec.s(x), dtype=float)
        js = (np.asarray(spec.jac_s(x), dtype=float) if spec.jac_s is not None
              else _jacobian_one_point(lambda q: np.asarray(spec.s(q), dtype=float), x))
    if spec.m is None:
        gm = np.zeros(3)
    elif spec.grad_m is not None:
        gm = np.asarray(spec.grad_m(x), dtype=float)
    else:
        gm = _jacobian_one_point(lambda q: float(spec.m(q)), x)
    return sv, js, gm


def _reference_residuals(spec, model, x, mode, hbar=1.0):
    """The one-point determining_residuals: a list in RESIDUAL_KEYS order."""
    poly = ms.CoeffPolynomials(spec.alpha)
    h1, h2, h3 = poly.h(x)
    n1, n2, n3 = poly.n(x)
    b1, b2, b3 = model.magnetic_field(x)
    gv = model.grad_potential(x)
    vx, vy, vz = gv
    sv, js, gm = _reference_spec_parts(spec, x)
    res = [
        js[0, 0] - (n2 * b2 - n3 * b3),
        js[1, 1] - (n3 * b3 - n1 * b1),
        js[2, 2] - (n1 * b1 - n2 * b2),
        js[0, 1] + js[1, 0] - (n1 * b2 - n2 * b1 + 2 * (h1 - h2) * b3),
        js[0, 2] + js[2, 0] - (n3 * b1 - n1 * b3 + 2 * (h3 - h1) * b2),
        js[2, 1] + js[1, 2] - (n2 * b3 - n3 * b2 + 2 * (h2 - h3) * b1),
        gm[0] - (2 * h1 * vx + n3 * vy + n2 * vz + sv[2] * b2 - sv[1] * b3),
        gm[1] - (n3 * vx + 2 * h2 * vy + n1 * vz + sv[0] * b3 - sv[2] * b1),
        gm[2] - (n2 * vx + n1 * vy + 2 * h3 * vz + sv[1] * b1 - sv[0] * b2),
        float(sv @ gv),
    ]
    if mode == "quantum" and spec.alpha:
        jn = poly.jac_n(x)
        jb = _jacobian_one_point(model.magnetic_field, x)
        res[-1] += 0.25 * hbar**2 * (
            jn[0, 2] * jb[0, 2] - jn[0, 1] * jb[0, 1] + jn[1, 0] * jb[1, 0]
            - jn[1, 2] * jb[1, 2] + jn[2, 1] * jb[2, 1] - jn[2, 0] * jb[2, 0]
            + jn[0, 0] * jb[1, 1] - jn[1, 1] * jb[0, 0])
    return [float(v) for v in res]


def _reference_gradient(spec, model, x, p):
    """(dX/dx, dX/dp) at one state by the chain rule through p + A(x)."""
    pa = p + model.vector_potential(x)
    c = np.zeros(6)
    if spec.alpha:
        y = np.concatenate([pa, ms.fields.cross(x, pa)])
        for (a, b), coef in spec.alpha.items():
            c[a - 1] += coef * y[b - 1]
            c[b - 1] += coef * y[a - 1]
    sv, js, gm = _reference_spec_parts(spec, x)
    gp = c[:3] + ms.fields.cross(c[3:], x) + sv
    gx = model.jacobian_a(x).T @ gp + ms.fields.cross(pa, c[3:]) + js.T @ pa + gm
    return gx, gp


def _reference_h_gradient(model, x, p):
    v = p + model.vector_potential(x)
    return model.jacobian_a(x).T @ v + model.grad_potential(x), v


def _user_specs():
    """Candidates whose functions are user code, called one point at a time:
    with and without derivatives (then central differences)."""
    quad = {(1, 1): 0.5, (4, 6): 1.5, (5, 5): -0.3, (2, 3): 2.0, (6, 6): 0.7}
    return [
        ms.IntegralSpec("user_fd", quad,
                        s=_one_point(lambda x: np.array([x[1] * x[2], -x[0], 0.5 * x[2] ** 2])),
                        m=_one_point(lambda x: x[0] * x[1] - x[2] ** 3)),
        ms.IntegralSpec("user_exact", {(3, 3): 1.0, (1, 4): -0.25},
                        s=_one_point(lambda x: np.array([0.1, -0.2, 0.3])),
                        m=_one_point(lambda x: 1.0),
                        jac_s=_one_point(lambda x: np.zeros((3, 3))),
                        grad_m=_one_point(lambda x: np.zeros(3))),
    ]


_STACK_SYSTEMS = {
    "constant_b": ms.ConstantB(B=1.3),
    "constant_b_negative": ms.ConstantB(B=-0.8),
    "helical": ms.HelicalB(A_amp=3.0, beta=3.0, phi0=0.7),
    "helical_negative_beta": ms.HelicalB(A_amp=1.0, beta=-0.5),
    "monopole": ms.Monopole(g=2.0, Q=1.0),
    "monopole_coulomb_only": ms.Monopole(g=-1.3, Q=0.8, barrier=False),
    "cylindrical": _cyl_model(),
}


def _stack_case(name):
    model = _STACK_SYSTEMS[name]
    specs = cli._verify_specs(model) + _user_specs()
    if isinstance(model, ms.Monopole):
        xs = np.array(monopole_positions(rng(631), 300))
    else:
        xs = rng(631).uniform(-2.0, 2.0, (400, 3))
        xs = xs[np.hypot(xs[:, 0], xs[:, 1]) > 0.3][:300]
    ps = rng(632).uniform(-2.0, 2.0, xs.shape)
    return model, specs, xs, ps


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("name", list(_STACK_SYSTEMS))
def test_stacked_residuals_match_per_point_loop(name, mode):
    model, specs, xs, _ = _stack_case(name)
    assert len(xs) >= 300
    rec = ms.fields.field_record(model, xs)
    for spec in specs:
        want = np.array([_reference_residuals(spec, model, x, mode) for x in xs])
        for given in (xs, rec):
            res = ms.determining_residuals(spec, model, given, mode=mode)
            got = np.column_stack([res[k] for k in ms.RESIDUAL_KEYS])
            assert np.array_equal(got, want), spec.name
        # one point is a stack of one, with floats for values
        one = ms.determining_residuals(spec, model, xs[0], mode=mode)
        assert [one[k] for k in ms.RESIDUAL_KEYS] == want[0].tolist()


@pytest.mark.parametrize("name", list(_STACK_SYSTEMS))
def test_first_order_residuals_need_no_quadratic_polynomials(name, monkeypatch):
    model, specs, xs, _ = _stack_case(name)
    xs = xs[:40]
    first = [sp for sp in specs if not sp.alpha]
    assert first

    def no_polynomials(alpha):
        raise AssertionError("built h and n of a first-order integral")

    monkeypatch.setattr(ms.integrals, "CoeffPolynomials", no_polynomials)
    for spec in first:
        for mode in ("classical", "quantum"):
            want = np.array([_reference_residuals(spec, model, x, mode) for x in xs])
            res = ms.determining_residuals(spec, model, xs, mode=mode)
            assert np.array_equal(np.column_stack([res[k] for k in ms.RESIDUAL_KEYS]), want)


@pytest.mark.parametrize("name", list(_STACK_SYSTEMS))
def test_stacked_gradients_and_brackets_match_per_point_loop(name):
    model, specs, xs, ps = _stack_case(name)
    fns = [ms.as_phase_function(sp, model) for sp in specs] + [ms.hamiltonian_function(model)]
    want = [[_reference_gradient(sp, model, x, p) for x, p in zip(xs, ps)] for sp in specs]
    want.append([_reference_h_gradient(model, x, p) for x, p in zip(xs, ps)])
    for f, ref in zip(fns, want):
        gx, gp = ms.phase_gradient(f, (xs, ps))
        assert np.array_equal(gx, [g[0] for g in ref]), f.name
        assert np.array_equal(gp, [g[1] for g in ref]), f.name
    table = np.array([[[_one_point_bracket(want[i][t], want[j][t]) if i != j else 0.0
                        for j in range(len(fns))] for i in range(len(fns))]
                      for t in range(len(xs))])
    rec = ms.fields.field_record(model, xs)
    assert np.array_equal(ms.bracket_matrix(fns, (xs, ps)), table)
    assert np.array_equal(ms.bracket_matrix(fns, (xs, ps), rec), table)
    s = ms.PhaseState(xs[0], ps[0])
    assert np.array_equal(ms.bracket_matrix(fns, s), table[0])
    # a function without a model of its own goes state by state
    plain = [ms.PhaseFunction(f.name, f.fn, f.grad) for f in fns]
    assert np.array_equal(ms.bracket_matrix(plain, (xs[:20], ps[:20])), table[:20])


def _squares_unlike_pow(seed, n):
    """Coordinates whose stacked square (a product) rounds unlike a one-point
    pow (about 1 in 1000), placed in every column of some points."""
    v = rng(seed).uniform(-3.0, 3.0, 200000)
    v = v[v**2 != np.array([c**2 for c in v.tolist()])][:n]
    return np.vstack([np.column_stack([np.roll(v, k) for k in range(3)]),
                      rng(seed + 1).uniform(-2.0, 2.0, (300, 3))])


def test_stacked_polynomials_have_one_point_bits():
    xs = _squares_unlike_pow(641, 60)
    poly = ms.CoeffPolynomials({(a, b): 0.5 + a - 0.3 * b for a in range(1, 7)
                                for b in range(a, 7)})
    for name in ("h", "n", "jac_n"):
        method = getattr(poly, name)
        assert np.array_equal(method(xs), [method(x) for x in xs]), name


def _reference_casimirs(B, states):
    basis = ms.constantB_basis(B)
    r1 = r2 = 0.0
    for s in states:
        h2 = 2.0 * 0.5 * (s.p[0] ** 2 + (s.p[1] - B * s.x[2]) ** 2 + s.p[2] ** 2)
        v = {f.name: f(s) for f in basis}
        r1 = max(r1, abs(2 * v["X1t"] * v["X7"] + v["X5"] ** 2 + v["X6"] ** 2 - h2))
        r2 = max(r2, abs(2 * (B * v["X4"] + v["X1t"]) * v["X7"]
                         + v["X2"] ** 2 + v["X3"] ** 2 - h2))
    return {"first_casimir": r1, "second_casimir": r2, "max_residual": max(r1, r2),
            "n_states": len(states)}


@pytest.mark.parametrize("B", [1.3, -0.7])
def test_stacked_algebra_basis_and_casimirs_have_one_point_bits(B):
    xs = _squares_unlike_pow(651, 60)
    ps = np.roll(xs, 7, axis=0)
    keep = np.abs(ps[:, 0]) > 0.1
    xs, ps = xs[keep], ps[keep]
    states = [ms.PhaseState(x, p) for x, p in zip(xs, ps)]
    for f in ms.constantB_basis(B):
        assert np.array_equal(np.broadcast_to(f.fn((xs, ps)), len(xs)),
                              [f(s) for s in states]), f.name
        for got, want in zip(f.grad((xs, ps)), zip(*(f.grad(s) for s in states))):
            assert np.array_equal(got, want), f.name
    assert ms.casimir_check(B, stack_states(states)) == _reference_casimirs(B, states)
    # at x1 = x3 = 0, X5 = -p2 and X6 = -p3 carry those coordinates into the
    # squares of the Casimirs; one state per call, so no maximum hides them
    for x, p in zip(xs[:60], ps[:60]):
        s = ms.PhaseState([0.0, x[1], 0.0], p)
        assert ms.casimir_check(B, stack_states([s])) == _reference_casimirs(B, [s])


@pytest.mark.parametrize("g", [2.0, 0.0])
def test_checks_of_no_states_report_zeros(g):
    # g = 0 is a Custom model, whose row-by-row methods must keep the
    # shape of an empty stack
    closure = ms.monopole_closure_check(g, stack_states([]))
    assert closure["n_states"] == 0 and set(closure["checks"].values()) == {0.0}
    table = ms.verify_bracket_table(1.3, stack_states([]))
    assert table["n_states"] == 0 and set(table["pairs"].values()) == {0.0}
    assert ms.casimir_check(1.3, stack_states([]))["max_residual"] == 0.0


# ---------------------------------------------------------------------------
# trajectory columns


def test_stacked_closed_forms_have_one_state_bits():
    gen = rng(661)
    B = 1.7
    s0 = ms.PhaseState(gen.uniform(-2.0, 2.0, 3), gen.uniform(-2.0, 2.0, 3))
    times = np.concatenate([[0.0], np.sort(gen.uniform(0.0, 400.0, 2000))])
    xs, ps = ms.helix_solution(B, s0, times)
    refs = [ms.helix_solution(B, s0, float(t)) for t in times]
    assert np.array_equal(xs, [r.x for r in refs]) and np.array_equal(ps, [r.p for r in refs])
    # every other form of one time, through the checks a float skips
    for form in (np.array(times[5]), np.float64(times[5])):
        other = ms.helix_solution(np.float64(B), s0, form)
        assert other.x.tobytes() == refs[5].x.tobytes()
        assert other.p.tobytes() == refs[5].p.tobytes()
    assert np.array_equal(ms.helix_solution(B, s0, 7).x, ms.helix_solution(B, s0, 7.0).x)
    states = random_states(gen, 2000, box=3.0, p1_min=0.05)
    xs, ps = np.array([s.x for s in states]), np.array([s.p for s in states])
    for fn in (ms.x5_integral, ms.x6_integral):
        assert np.array_equal(fn(B, (xs, ps)), [fn(B, s) for s in states]), fn.__name__
    ps[7, 0] = 1e-9
    with pytest.raises(ms.DegenerateMomentum, match=r"^\|p1\|=1e-09 below 1e-08"):
        ms.x5_integral(B, (xs, ps))


def test_trajectory_closed_form_and_x5_columns_have_one_state_bits(tmp_path):
    B = 0.8
    s0 = ms.PhaseState([0.3, -0.2, 0.5], [0.7, -0.4, 0.9])
    cfg = {"system": {"model": "constant_b", "B": B},
           "state0": {"x": s0.x.tolist(), "p": s0.p.tolist()}, "t_end": 60.0}
    path, out = tmp_path / "cfg.json", tmp_path / "traj.csv"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["trajectory", "--closed-form", "--config", str(path),
                     "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])

    traj = ms.integrate(ms.ConstantB(B=B), s0, 60.0)
    assert np.array_equal(table[:, 0], traj.times)
    rows = np.hstack([traj.x, traj.p])
    ref = [np.concatenate([r.x, r.p]) for r in
           (ms.helix_solution(B, s0, float(t)) for t in traj.times)]
    err = [np.max(np.abs(row - r)) for row, r in zip(rows, ref)]
    assert np.array_equal(table[:, header.index("closed_form_error")], err)
    x5 = [ms.x5_integral(B, traj.state(i)) for i in range(len(traj))]
    assert np.array_equal(table[:, header.index("X5")], x5)


@pytest.mark.parametrize("name", ["constant_b", "monopole"])
def test_integrate_energy_and_integrals_have_one_state_bits(name):
    # over 5000 states a stacked square that rounds unlike libm's pow shows
    if name == "constant_b":
        model = ms.ConstantB(B=1.3)
        s0 = ms.PhaseState([0.4, -1.1, 0.9], [0.3, 1.2, -0.8])
    else:
        model = ms.Monopole(g=2.0, Q=1.0)
        s0 = ms.PhaseState([3.0, 0.5, 1.0], [0.1, 0.3, 0.05])
    specs = ms.known_integrals(model)
    traj = ms.integrate(model, s0, 60.0, ms.IntegratorConfig(max_step=0.012), specs)
    assert len(traj) > 5000
    states = [traj.state(i) for i in range(len(traj))]
    assert np.array_equal(traj.energy, [ms.hamiltonian(model, s) for s in states])
    for spec in specs:
        assert np.array_equal(traj.diagnostics[spec.name],
                              [ms.evaluate_integral(spec, model, s) for s in states]), spec.name


# ---------------------------------------------------------------------------
# verify in one pass per spec


# the candidates of the spec file that CI runs at the n_points cap
_CAP_SPEC_FILE = {"integrals": [{"name": "p1", "s": [1, 0, 0]}, {"name": "c", "m": 1.5},
                                {"name": "p1sq", "alpha": {"11": 1}}, {"known": "X2"}]}


def _one_pass_case(name, tmp_path):
    """A model and the specs that `verify` checks on it."""
    if name == "spec_file":
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_CAP_SPEC_FILE), encoding="utf-8")
        model = ms.ConstantB(B=1.3)
        return model, cli._load_spec_file(str(path), model)
    model = {"constant_b": ms.ConstantB(B=-0.8), "helical": ms.HelicalB(1.0, -0.5, 0.7),
             "monopole": ms.Monopole(g=2.0, Q=1.0),
             "monopole_coulomb_only": ms.Monopole(g=-1.3, Q=0.8, barrier=False),
             "cylindrical": _cyl_model()}[name]
    return model, cli._verify_specs(model)


def _assert_same_bytes(got, want, what):
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), what


def _alpha_patterns():
    """alpha of one coefficient each, of random sparse subsets, and full,
    with values of both signs, some of them -0.0 or 0.0."""
    pairs = [(a, b) for a in range(1, 7) for b in range(a, 7)]
    gen = rng(691)
    out = [{pair: -1.5} for pair in pairs] + [{}, {(1, 1): -0.0, (4, 6): 0.0}]
    for size in (2, 3, 5, 8, 21):
        for _ in range(6):
            chosen = gen.choice(len(pairs), size, replace=False)
            out.append({pairs[i]: float(gen.choice([-2.0, -0.5, 0.0, 0.75, 3.0]))
                        for i in chosen})
    return out


def test_folded_polynomials_have_the_bits_of_every_term():
    # points with zero coordinates of both signs, where a dropped term
    # could flip the sign of a zero sum
    gen = rng(692)
    xs = gen.uniform(-2.0, 2.0, (2400, 3))
    xs[::3, 0], xs[1::3, 1], xs[::4, 2] = 0.0, -0.0, 0.0
    xs[::7] = 0.0
    xs[1::11] = -0.0
    for alpha in _alpha_patterns():
        poly, ref = ms.CoeffPolynomials(alpha), CoeffPolynomialsUnfolded(
            ms.CoeffPolynomials(alpha).alpha)
        for name in ("h", "n", "jac_n"):
            want = getattr(ref, name)(xs)
            _assert_same_bytes(getattr(poly, name)(xs), want, (alpha, name))
            for i in (0, 1, 2, 5):
                _assert_same_bytes(getattr(poly, name)(xs[i]), want[i], (alpha, name, i))


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("name", ["constant_b", "helical", "monopole", "monopole_coulomb_only",
                                  "cylindrical", "spec_file"])
def test_one_pass_per_spec_has_the_bits_of_evaluating_twice(name, mode, tmp_path):
    # the reference evaluates each spec's s, J_s and grad m again for the
    # residuals and for the gradient, and multiplies out every coefficient
    # of h and n; tobytes() tells the signs of zeros apart
    model, specs = _one_pass_case(name, tmp_path)
    gen = rng(671)
    xs = cli._sample_positions(gen, 2000, model)
    ps = gen.uniform(-2.0, 2.0, xs.shape)
    rec = ms.fields.field_record(model, xs)
    grads, ours = [], []
    for sp in specs:
        want = residuals_reference(sp, model, rec, mode, hbar=0.7)
        irec = ms.integrals.integral_record(sp, rec)
        for given in (irec, rec, xs):
            got = ms.determining_residuals(sp, model, given, mode=mode, hbar=0.7)
            assert list(got) == list(want) == list(ms.RESIDUAL_KEYS)
            for key in want:
                _assert_same_bytes(got[key], want[key], (sp.name, key))
        grads.append(integral_gradient_reference(sp, rec, ps))
        fn = ms.as_phase_function(sp, model)
        ours.append(ms.integrals._integral_gradient(sp, irec, ps))
        for got in (ours[-1], ms.phase_gradient(fn, (xs, ps)), ms.phase_gradient(fn, (xs, ps), rec)):
            for g, w in zip(got, grads[-1]):
                _assert_same_bytes(g, w, sp.name)
    h_fn = ms.hamiltonian_function(model)
    grads.append(ms.phase_gradient(h_fn, (xs, ps)))
    ours.append(ms.integrals._hamiltonian_gradient(rec, ps))
    want = bracket_table_reference(grads)
    fns = [ms.as_phase_function(sp, model) for sp in specs] + [h_fn]
    _assert_same_bytes(ms.bracket_matrix(fns, (xs, ps)), want, "bracket_matrix")
    _assert_same_bytes(ms.bracket_matrix(fns, (xs, ps), rec), want, "bracket_matrix, record")
    _assert_same_bytes(ms.integrals._bracket_table(ours), want, "table of verify's gradients")
    _assert_same_bytes(ms.bracket_matrix(fns, ms.PhaseState(xs[5], ps[5])), want[5], "one state")


@pytest.mark.parametrize("args", [
    ["--system", "constant_b"],
    ["--system", "helical"],
    ["--system", "monopole"],
    ["--system", "monopole", "--mode", "quantum"],
    ["--system", "monopole", "--potential", "coulomb-only"],
    ["--system", "constant_b", "--spec", "SPEC"],
], ids=["constant_b", "helical", "monopole", "quantum", "coulomb-only", "spec"])
@pytest.mark.parametrize("n", [2000, 20000])
def test_verify_report_has_the_numbers_of_evaluating_twice(tmp_path, args, n):
    # 20000 states make three blocks of the bracket table, the last one short
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_CAP_SPEC_FILE), encoding="utf-8")
    args = [str(spec) if a == "SPEC" else a for a in args]
    out = tmp_path / "verify.json"
    cli.main(["verify", *args, "--n-points", str(n), "--seed", "11", "--out", str(out)])

    ns = cli.build_parser().parse_args(["verify", *args])
    model = ms.model_from_config(cli._config_for(ns)["system"])
    specs = cli._load_spec_file(str(spec), model) if ns.spec else cli._verify_specs(model)
    gen = cli._rng(11)
    xs = cli._sample_positions(gen, n, model)
    ps = gen.uniform(-2.0, 2.0, xs.shape)
    rec = ms.fields.field_record(model, xs)
    by_eq, by_int, grads = dict.fromkeys(ms.RESIDUAL_KEYS, 0.0), {}, []
    for sp in specs:
        res = residuals_reference(sp, model, rec, ns.mode)
        worst = {key: float(np.max(np.abs(val))) for key, val in res.items()}
        by_eq = {key: max(by_eq[key], worst[key]) for key in by_eq}
        by_int[sp.name] = max(0.0, *worst.values())
        grads.append(integral_gradient_reference(sp, rec, ps))
    grads.append(ms.phase_gradient(ms.hamiltonian_function(model), (xs, ps)))
    table = np.max(np.abs(bracket_table_reference(grads)), axis=0)

    text = out.read_text(encoding="utf-8")
    doc = json.loads(text)
    doc.update(max_residual_by_equation=by_eq, max_residual_by_integral=by_int,
               bracket_with_h={sp.name: float(v) for sp, v in zip(specs, table[:-1, -1])},
               bracket_matrix=table[:-1, :-1].tolist())
    assert cli.dumps_report(doc) + "\n" == text


def test_verify_evaluates_each_spec_function_once(tmp_path, monkeypatch):
    # the residuals and the gradient of a spec share one evaluation of s,
    # J_s and grad m (X_sq has no s, so no J_s)
    from collections import Counter
    from dataclasses import replace

    calls = Counter()

    def counted(sp, key):
        fn = getattr(sp, key)
        if fn is None:
            return None

        def call(x):
            calls[(key, sp.name)] += 1
            return fn(x)

        call.stacks = True
        return call

    verify_specs = cli._verify_specs
    monkeypatch.setattr(cli, "_verify_specs", lambda model: [
        replace(sp, **{key: counted(sp, key) for key in ("s", "m", "jac_s", "grad_m")})
        for sp in verify_specs(model)])
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--system", "monopole", "--n-points", "50", "--out", str(out)]) == 0
    specs = verify_specs(ms.Monopole(g=1.0, Q=1.0))
    assert len(specs) == 7
    # m has its exact gradient, so it is not called
    want = Counter((key, sp.name) for sp in specs for key in ("s", "jac_s", "grad_m")
                   if getattr(sp, key))
    assert calls == want and sum(calls.values()) == 6 + 6 + 7


def test_cylindrical_field_record_calls_each_user_function_once_per_point(monkeypatch):
    calls = []

    def counting(name, fn):
        return lambda r: calls.append(name) or fn(r)

    base = _cyl_model()
    model = ms.Cylindrical(**{name: counting(name, getattr(base, name))
                              for name in ("f1", "df1", "f2", "df2", "v", "dv")})
    xs = rng(681).uniform(-2.0, 2.0, (100, 3))

    # a stacked domain test runs under one np.errstate, and R is one sqrt
    tests, roots = [], []

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def errstate(self, **kwargs):
            tests.append(kwargs)
            return np.errstate(**kwargs)

    space = type(model).field_record.__globals__
    monkeypatch.setitem(space, "_np", Numpy())
    monkeypatch.setitem(space, "sqrt", lambda v: roots.append(1) or np.sqrt(v))
    rec = ms.fields.field_record(model, xs)
    assert len(tests) == 1 and len(roots) == 1
    # V itself is not in the record
    assert sorted(calls) == sorted(100 * ["f1", "df1", "f2", "df2", "dv"])
    monkeypatch.undo()
    for got, method in zip(rec[2:], ("vector_potential", "jacobian_a", "magnetic_field",
                                     "grad_potential")):
        _assert_same_bytes(got, getattr(base, method)(xs), method)
    assert rec.model is model and rec.x is xs
