"""Poisson-algebra verification for the uniform-field and monopole systems.

The uniform-field integrals close into a 7-dimensional Lie algebra once
X1 is replaced by X1^2/2; the monopole angular integrals close like
angular momenta. Both facts are checked numerically at sampled states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closedform import _phase_vectors, _rows_at, _x5_x6
from .errors import ConfigError, DomainError, ParameterError
from .fields import (EPS_DOMAIN, ConstantB, FieldRecord, Monopole, _as_count, _as_real,
                     _first_flagged, _pow, dot, field_record)
from .integrals import (
    PhaseFunction,
    _integral_gradient,
    _state_stacks,
    _worst_brackets,
    integral_record,
    monopole_angular_specs,
    monopole_total_square_spec,
)

_BASIS_NAMES = ("X1t", "X2", "X3", "X4", "X5", "X6", "X7")


def _polynomial_basis(B: float, x, p) -> dict:
    """X1t, X2, X3, X4 and X7 per state of (n,3) stacks x and p, each as
    (F, dF/dx, dF/dp). None forms the angle of X5 and X6, so all answer at
    p1 = 0; squares go through `_pow`, so a stack has the bits of its states."""
    (_, x1, x2), (p0, p1, p2) = x.T, p.T
    return {"X1t": (0.5 * _pow(p0, 2), *_phase_vectors(x, 0.0, 0.0, 0.0, p0, 0.0, 0.0)),
            "X2": (p1, *_phase_vectors(x, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)),
            "X3": (p2 - B * x1, *_phase_vectors(x, 0.0, -B, 0.0, 0.0, 0.0, 1.0)),
            "X4": (x1 * p2 - x2 * p1 + 0.5 * B * (_pow(x2, 2) - _pow(x1, 2)),
                   *_phase_vectors(x, 0.0, p2 - B * x1, B * x2 - p1, 0.0, -x2, x1)),
            "X7": (np.ones(len(x)), *_phase_vectors(x, *[0.0] * 6))}


def _field(B) -> ConstantB:
    """ConstantB(B), or a ParameterError that names constantB_basis at B = 0."""
    if B == 0:
        raise ParameterError("constantB_basis requires B != 0")
    return ConstantB(B)


def constantB_basis(B: float) -> list[PhaseFunction]:
    """The 7 closed-algebra generators X1t=p1^2/2, X2..X7, with gradients.

    Each takes a PhaseState or a pair (x, p) of (n,3) stacks (one state is a
    stack of one) and reads `_polynomial_basis` (X1t..X4, X7) or
    `closedform._x5_x6` (X5, X6, as `x5_integral` and `x6_integral`), which
    contain cos(Bx/p1) and sin(Bx/p1) and raise DegenerateMomentum at |p1| < 1e-8.
    """
    model = _field(B)

    def generator(name):
        kernel = _x5_x6 if name in ("X5", "X6") else _polynomial_basis
        return PhaseFunction(name, lambda s: _rows_at(kernel, model.B, s)[name][0],
                             lambda s, record=None: _rows_at(kernel, model.B, s)[name][1:],
                             model)

    return [generator(name) for name in _BASIS_NAMES]


def _basis_rows(B: float, x, p) -> dict:
    """X1t..X7 by name, each as (F, dF/dx, dF/dp) per state of (n,3) stacks
    x and p: each kernel of `constantB_basis` once."""
    B = _field(B).B
    return {**_polynomial_basis(B, x, p), **_x5_x6(B, x, p)}


@dataclass(frozen=True)
class BracketTable:
    """Structure constants {basis[i], basis[j]} = sum_k structure[i,j][k] basis[k]."""

    basis: tuple[str, ...]
    structure: dict[tuple[int, int], dict[str, float]]

    def combination(self, i: int, j: int) -> dict[str, float]:
        if i == j:
            return {}
        if i < j:
            return self.structure.get((i, j), {})
        return {k: -c for k, c in self.structure.get((j, i), {}).items()}


def constantB_bracket_table(B: float) -> BracketTable:
    s = {
        (0, 4): {"X6": -B},
        (0, 5): {"X5": B},
        (1, 2): {"X7": B},
        (1, 3): {"X3": -1.0},
        (2, 3): {"X2": 1.0},
        (3, 4): {"X6": 1.0},
        (3, 5): {"X5": -1.0},
        (4, 5): {"X7": -B},
    }
    return BracketTable(_BASIS_NAMES, s)


def verify_bracket_table(B: float, states) -> dict:
    """Max discrepancy of every basis pair against the structure table at
    `states`, a pair (x, p) of (n,3) stacks, through `_worst_brackets`."""
    x, p = _state_stacks(states)
    rows = _basis_rows(B, x, p)
    table = constantB_bracket_table(B)
    pairs = [(i, j) for i in range(len(_BASIS_NAMES)) for j in range(i + 1, len(_BASIS_NAMES))]
    worst = _worst_brackets([rows[n][1:] for n in _BASIS_NAMES], {
        (i, j): sum(c * rows[n][0] for n, c in table.combination(i, j).items())
        for i, j in pairs if table.combination(i, j)})
    pairs = {f"{{{_BASIS_NAMES[i]},{_BASIS_NAMES[j]}}}": float(worst[i, j]) for i, j in pairs}
    return {
        "pairs": pairs,
        "max_discrepancy": max(pairs.values()),
        "n_states": len(x),
    }


def casimir_check(B: float, states) -> dict:
    """Residuals of 2 X1t X7 + X5^2 + X6^2 = 2H and
    2(B X4 + X1t) X7 + X2^2 + X3^2 = 2H at `states`, a pair (x, p) of
    (n,3) stacks."""
    x, p = _state_stacks(states)
    v = {name: row[0] for name, row in _basis_rows(B, x, p).items()}
    # H in the gauge of the basis, squared by pow: `hamiltonian` sums v.v by
    # products, and the bits of the two differ in about 1 state of 1400
    h2 = 2.0 * (0.5 * (_pow(p.T[0], 2) + _pow(p.T[1] - B * x.T[2], 2) + _pow(p.T[2], 2)))
    r1, r2 = (float(np.max(np.abs(r), initial=0.0)) for r in (  # 0.0 for no states
        2 * v["X1t"] * v["X7"] + _pow(v["X5"], 2) + _pow(v["X6"], 2) - h2,
        2 * (B * v["X4"] + v["X1t"]) * v["X7"] + _pow(v["X2"], 2) + _pow(v["X3"], 2) - h2))
    return {
        "first_casimir": r1,
        "second_casimir": r2,
        "max_residual": max(r1, r2),
        "n_states": len(x),
    }


def monopole_closure_check(g: float, states, Q: float = 0.0) -> dict:
    """Checks {X1,X2}=X3 (cyclically) and involution of (X)^2 with each X_j.

    g = 0 reduces to the ordinary angular momenta l_j in no field, singular
    only at the origin. All of `states`, a pair (x, p) of (n,3) stacks, go
    through one field record, the specs' exact gradients and
    `_worst_brackets`, as in `verify`.
    """
    x, p = _state_stacks(states)
    Q = _as_real(Q, f"Q {Q!r}")
    if g != 0:
        rec = field_record(Monopole(g=g, Q=Q), x)
    elif (bad := _first_flagged(x, np.sqrt(np.vecdot(x, x)) < EPS_DOMAIN)) is not None:
        raise DomainError(f"point {bad} is too close to the center")
    else:  # no field
        rec = FieldRecord(None, x, np.zeros(x.shape), np.zeros((len(x), 3, 3)),
                          np.zeros(x.shape), np.zeros(x.shape))
    grads, vals = [], []
    for sp in [*monopole_angular_specs(g), monopole_total_square_spec(g)]:
        irec = integral_record(sp, rec)
        grads.append(_integral_gradient(sp, irec, p))
        if not sp.alpha:  # X_j, formed as evaluate_integral forms it
            vals.append(0.0 + dot(irec.s, p + rec.a) + sp.m(x))
    cyclic = ((0, 1, 2), (1, 2, 0), (2, 0, 1))  # of the rows X1, X2, X3, X_sq
    worst = _worst_brackets(grads, {(j, k): vals[l] for j, k, l in cyclic})
    checks = {f"{{X{j + 1},X{k + 1}}}-X{l + 1}": float(worst[j, k]) for j, k, l in cyclic}
    checks.update({f"{{X_sq,X{j + 1}}}": float(worst[3, j]) for j in range(3)})
    return {
        "checks": checks,
        "max_discrepancy": max(checks.values()),
        "n_states": len(x),
    }


#: most points or states a sampled check may ask for (the schema's n_points
#: maximum); at this many, `verify` peaks at about 240 MB (the monopole in
#: quantum mode) and `algebra` at 150 MB (either system)
SAMPLE_MAX_ROWS = 200_000


def _row_mask(fn, what: str, rows: np.ndarray) -> np.ndarray:
    """fn(rows) as one bool per row, or a ParameterError that names `what`
    and fn when fn returns anything else."""
    ok = np.asarray(fn(rows))
    if ok.shape != (len(rows),) or ok.dtype != bool:
        raise ParameterError(f"{what} {getattr(fn, '__name__', fn)!r} returned {ok.dtype} of "
                             f"shape {ok.shape} for {len(rows)} rows; it must return "
                             "one bool per row")
    return ok


def sample_uniform(rng, n: int, size: int, accept=None) -> np.ndarray:
    """n rows of `size` uniform draws in [-2, 2], kept where `accept`
    passes them; a ConfigError after 1000 tries per row, and before any
    draw when n exceeds SAMPLE_MAX_ROWS; a ParameterError when n is not a
    count, or when `accept` does not return one bool per row.

    Each round draws the rows still missing as one (m, size) block and
    `accept` takes the whole block. A row kept is a row fewer to draw, so
    no round draws a row past the one that completes n (or past the try
    cap): the rows, the generator's state after them and the failure
    message are those of drawing one row per try.
    """
    n = _as_count(n, f"n {n!r}")
    if n > SAMPLE_MAX_ROWS:
        raise ConfigError(f"{n} sampled points exceed the maximum of {SAMPLE_MAX_ROWS}")
    blocks, kept, tries = [], 0, 0
    while kept < n:
        if tries == 1000 * n:
            raise ConfigError(f"state sampling failed: {kept} of {n} admissible "
                              f"points in {tries} tries")
        m = min(n - kept, 1000 * n - tries)
        block = rng.uniform(-2.0, 2.0, (m, size))
        tries += m
        if accept is not None:
            block = block[_row_mask(accept, "accept", block)]
        blocks.append(block)
        kept += len(block)
    return np.concatenate(blocks) if blocks else np.empty((0, size))


def sample_states(rng, n: int, p1_min: float = 0.0,
                  admissible=None) -> tuple[np.ndarray, np.ndarray]:
    """n uniform random states in [-2, 2]^6 with optional constraints,
    as the pair (x, p) of (n,3) stacks that the checks take.

    `admissible` filters positions (used to stay off singular loci): it
    takes an (m,3) block of positions and returns one bool per row.
    `p1_min` keeps |p1| away from 0 where X5, X6 need it.
    """

    def accept(y):
        ok = np.abs(y.T[3]) >= p1_min  # every row when p1_min <= 0
        if admissible is not None:
            ok &= _row_mask(admissible, "admissible", y[:, :3])
        return ok

    y = sample_uniform(rng, n, 6, accept)
    return y[:, :3], y[:, 3:]


def monopole_admissible(x):
    """Position filter keeping samples well off the center and the string:
    a bool for one point (3,), one per row of an (n,3) stack.

    The gauge factor 1/(r (r + z)) controls both the size of A and the
    accuracy of finite-difference probes, so the exclusion is phrased as
    a lower bound on r + z rather than on the cylinder radius.
    """
    x = np.asarray(x, dtype=float)
    # vecdot: per row the bits of a one-point `x @ x`, hence of np.linalg.norm
    r = np.sqrt(np.vecdot(x, x))
    ok = (0.5 < r) & (r < 5.0) & (r + x.T[2] > 0.5)
    return bool(ok) if x.ndim == 1 else ok
