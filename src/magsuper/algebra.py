"""Poisson-algebra verification for the uniform-field and monopole systems.

The uniform-field integrals close into a 7-dimensional Lie algebra once
X1 is replaced by X1^2/2; the monopole angular integrals close like
angular momenta. Both facts are checked numerically at sampled states.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .closedform import x5_integral, x6_integral
from .dynamics import _state_arrays
from .errors import ConfigError, DomainError, ParameterError
from .fields import EPS_DOMAIN, ConstantB, Custom, Monopole, _as_count, _pow, _zeros
from .integrals import (
    PhaseFunction,
    _state_stacks,
    as_phase_function,
    bracket_matrix,
    monopole_angular_specs,
    monopole_total_square_spec,
)

_BASIS_NAMES = ("X1t", "X2", "X3", "X4", "X5", "X6", "X7")


def constantB_basis(B: float) -> list[PhaseFunction]:
    """The 7 closed-algebra generators X1t=p1^2/2, X2..X7, with gradients.

    Each takes a PhaseState or a pair (x, p) of (n,3) stacks; squares go
    through `_pow`, so a stack has the bits of its states. X5 and X6 are
    `closedform.x5_integral` and `x6_integral`: they contain cos(Bx/p1)
    and sin(Bx/p1) and raise DegenerateMomentum at |p1| < 1e-8.
    """
    if B == 0:
        raise ParameterError("constantB_basis requires B != 0")

    def parts(s):
        """x0, x1, x2, p0, p1, p2: numbers, or (n,) arrays for stacks."""
        x, p = _state_arrays(s)
        return (*x.T, *p.T)

    def vectors(s, *c):
        """(df/dx, df/dp) per state from six components, numbers or arrays."""
        c = np.broadcast_arrays(*c, _zeros(_state_arrays(s)[0]))
        return np.array(c[:3]).T, np.array(c[3:6]).T

    def grad_x5(s, record=None):
        x0, _, _, p0, _, _ = parts(s)
        th, v6 = B * x0 / p0, x6_integral(B, s)
        return vectors(s, B / p0 * v6, 0.0, B * np.cos(th),
                       -B * x0 / _pow(p0, 2) * v6, -np.cos(th), -np.sin(th))

    def grad_x6(s, record=None):
        x0, _, _, p0, _, _ = parts(s)
        th, v5 = B * x0 / p0, x5_integral(B, s)
        return vectors(s, -B / p0 * v5, 0.0, -B * np.sin(th),
                       B * x0 / _pow(p0, 2) * v5, np.sin(th), -np.cos(th))

    def x4(s):
        _, x1, x2, _, p1, p2 = parts(s)
        return x1 * p2 - x2 * p1 + 0.5 * B * (_pow(x2, 2) - _pow(x1, 2))

    def grad_x4(s, record=None):
        _, x1, x2, _, p1, p2 = parts(s)
        return vectors(s, 0.0, p2 - B * x1, B * x2 - p1, 0.0, -x2, x1)

    model = ConstantB(B)
    return [PhaseFunction(name, fn, grad, model) for name, fn, grad in (
        ("X1t", lambda s: 0.5 * _pow(parts(s)[3], 2),
         lambda s, record=None: vectors(s, 0.0, 0.0, 0.0, parts(s)[3], 0.0, 0.0)),
        ("X2", lambda s: parts(s)[4],
         lambda s, record=None: vectors(s, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)),
        ("X3", lambda s: parts(s)[5] - B * parts(s)[1],
         lambda s, record=None: vectors(s, 0.0, -B, 0.0, 0.0, 0.0, 1.0)),
        ("X4", x4, grad_x4),
        ("X5", partial(x5_integral, B), grad_x5),
        ("X6", partial(x6_integral, B), grad_x6),
        ("X7", lambda s: 1.0, lambda s, record=None: vectors(s, *[0.0] * 6)),
    )]


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
    `states`, a pair (x, p) of (n,3) stacks, all through one bracket table."""
    s = _state_stacks(states)
    basis = constantB_basis(B)
    vals = {f.name: f.fn(s) for f in basis}
    br = bracket_matrix(basis, s)
    table = constantB_bracket_table(B)
    pairs = {}
    for i, fi in enumerate(basis):
        for j in range(i + 1, len(basis)):
            pred = sum(c * vals[n] for n, c in table.combination(i, j).items())
            pairs[f"{{{fi.name},{basis[j].name}}}"] = _max_abs(br[:, i, j] - pred)
    return {
        "pairs": pairs,
        "max_discrepancy": max(pairs.values()),
        "n_states": len(s[0]),
    }


def _max_abs(v) -> float:
    """max |v| over the states, 0.0 for none."""
    return float(np.max(np.abs(v), initial=0.0))


def casimir_check(B: float, states) -> dict:
    """Residuals of 2 X1t X7 + X5^2 + X6^2 = 2H and
    2(B X4 + X1t) X7 + X2^2 + X3^2 = 2H at `states`, a pair (x, p) of
    (n,3) stacks."""
    x, p = s = _state_stacks(states)
    v = {f.name: f.fn(s) for f in constantB_basis(B)}
    # H in the gauge of the basis, squared by pow: `hamiltonian` sums v.v by
    # products, and the bits of the two differ in about 1 state of 1400
    h2 = 2.0 * (0.5 * (_pow(p.T[0], 2) + _pow(p.T[1] - B * x.T[2], 2) + _pow(p.T[2], 2)))
    r1 = _max_abs(2 * v["X1t"] * v["X7"] + _pow(v["X5"], 2) + _pow(v["X6"], 2) - h2)
    r2 = _max_abs(2 * (B * v["X4"] + v["X1t"]) * v["X7"]
                  + _pow(v["X2"], 2) + _pow(v["X3"], 2) - h2)
    return {
        "first_casimir": r1,
        "second_casimir": r2,
        "max_residual": max(r1, r2),
        "n_states": len(x),
    }


def _zero_field_model() -> Custom:
    """The g = 0 limit of the monopole: no field, singular only at the origin."""

    def domain(x):
        if float(np.linalg.norm(x)) < EPS_DOMAIN:
            raise DomainError(f"point {x} is too close to the center")

    return Custom(
        a=lambda x: np.zeros(3),
        v=lambda x: 0.0,
        b=lambda x: np.zeros(3),
        jac_a=lambda x: np.zeros((3, 3)),
        grad_v=lambda x: np.zeros(3),
        domain=domain,
    )


def monopole_closure_check(g: float, states, Q: float = 0.0) -> dict:
    """Checks {X1,X2}=X3 (cyclically) and involution of (X)^2 with each X_j.

    g = 0 reduces to the ordinary angular momenta l_j. All of `states`, a
    pair (x, p) of (n,3) stacks, go through one bracket table, with the
    specs' exact gradients.
    """
    s = _state_stacks(states)
    model = Monopole(g=g, Q=Q) if g != 0 else _zero_field_model()
    fns = [as_phase_function(sp, model) for sp in monopole_angular_specs(g)]
    vals = [f.fn(s) for f in fns]
    fns.append(as_phase_function(monopole_total_square_spec(g), model))
    br = bracket_matrix(fns, s)  # rows X1, X2, X3, X_sq
    checks = {}
    for j in range(3):
        k, l = (j + 1) % 3, (j + 2) % 3
        checks[f"{{X{j + 1},X{k + 1}}}-X{l + 1}"] = _max_abs(br[:, j, k] - vals[l])
    for j in range(3):
        checks[f"{{X_sq,X{j + 1}}}"] = _max_abs(br[:, 3, j])
    return {
        "checks": checks,
        "max_discrepancy": max(checks.values()),
        "n_states": len(s[0]),
    }


#: most points or states a sampled check may ask for (the schema's n_points
#: maximum); at this many, `algebra` peaks at about 300 MB and `verify` at 240 MB
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


def sample_uniform(rng, n: int, size: int, accept=None, box: float = 2.0) -> np.ndarray:
    """n rows of `size` uniform draws in [-box, box], kept where `accept`
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
        block = rng.uniform(-box, box, (m, size))
        tries += m
        if accept is not None:
            block = block[_row_mask(accept, "accept", block)]
        blocks.append(block)
        kept += len(block)
    return np.concatenate(blocks) if blocks else np.empty((0, size))


def sample_states(rng, n: int, box: float = 2.0, p1_min: float = 0.0,
                  admissible=None) -> tuple[np.ndarray, np.ndarray]:
    """n uniform random states in [-box, box]^6 with optional constraints,
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

    y = sample_uniform(rng, n, 6, accept, box)
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
