"""The checks in one pass: bracket tables from one gradient per function
and state, and fields-check as one stacked central-difference pass.

Each result is compared bit for bit with the per-pair or per-point loop
it replaces, written out here as the reference.
"""

import json

import numpy as np
import pytest

import magsuper as ms
from magsuper import cli
from magsuper.algebra import _monopole_model

from helpers import monopole_positions, monopole_states, random_states, rng


# ---------------------------------------------------------------------------
# brackets


def _reference_verify_brackets(specs, model, states):
    """bracket_with_h and bracket_matrix from one poisson_bracket per pair."""
    h_fn = ms.hamiltonian_function(model)
    fns = [ms.as_phase_function(sp, model) for sp in specs]
    bracket_h = {
        sp.name: max(abs(ms.poisson_bracket(f, h_fn, s)) for s in states)
        for sp, f in zip(specs, fns)
    }
    k = len(fns)
    matrix = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            val = max(abs(ms.poisson_bracket(fns[i], fns[j], s)) for s in states)
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


def _reference_bracket_table(B, states, use_gradients):
    basis = ms.constantB_basis(B)
    if not use_gradients:
        basis = [ms.PhaseFunction(f.name, f.fn, None) for f in basis]
    table = ms.constantB_bracket_table(B)
    by_name = {f.name: f for f in basis}
    pairs = {}
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            worst = 0.0
            for s in states:
                br = ms.poisson_bracket(basis[i], basis[j], s)
                pred = sum(c * by_name[k](s) for k, c in table.combination(i, j).items())
                worst = max(worst, abs(br - pred))
            pairs[f"{{{basis[i].name},{basis[j].name}}}"] = worst
    return {"pairs": pairs, "max_discrepancy": max(pairs.values()),
            "n_states": len(states)}


@pytest.mark.parametrize("use_gradients", [True, False])
@pytest.mark.parametrize("B", [1.3, -0.7])
def test_bracket_table_matches_per_pair_loop(B, use_gradients):
    states = random_states(rng(611), 12, p1_min=0.1)
    got = ms.verify_bracket_table(B, states, use_gradients=use_gradients)
    assert got == _reference_bracket_table(B, states, use_gradients)


def _reference_closure(g, states, Q, use_gradients):
    model = _monopole_model(g, Q)
    fns = [ms.as_phase_function(sp, model) for sp in ms.monopole_angular_specs(g)]
    fsq = ms.as_phase_function(ms.monopole_total_square_spec(g), model)
    if not use_gradients:
        fns = [ms.PhaseFunction(f.name, f.fn, None) for f in fns]
        fsq = ms.PhaseFunction(fsq.name, fsq.fn, None)
    checks = {}
    for j in range(3):
        k, l = (j + 1) % 3, (j + 2) % 3
        checks[f"{{X{j + 1},X{k + 1}}}-X{l + 1}"] = max(
            abs(ms.poisson_bracket(fns[j], fns[k], s) - fns[l](s)) for s in states)
    for j in range(3):
        checks[f"{{X_sq,X{j + 1}}}"] = max(
            abs(ms.poisson_bracket(fsq, fns[j], s)) for s in states)
    return {"checks": checks, "max_discrepancy": max(checks.values()),
            "n_states": len(states)}


@pytest.mark.parametrize("use_gradients", [True, False])
@pytest.mark.parametrize("g, Q", [(2.0, 1.0), (-1.5, 0.0), (0.0, 0.0)])
def test_closure_check_matches_per_pair_loop(g, Q, use_gradients):
    states = monopole_states(rng(612), 12)
    got = ms.monopole_closure_check(g, states, Q=Q, use_gradients=use_gradients)
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
    for j in range(3):
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
    for name in ("vector_potential", "magnetic_field"):
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
