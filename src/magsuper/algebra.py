"""Poisson-algebra verification for the uniform-field and monopole systems.

The uniform-field integrals close into a 7-dimensional Lie algebra once
X1 is replaced by X1^2/2; the monopole angular integrals close like
angular momenta. Both facts are checked numerically at sampled states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import PhaseState
from .errors import ConfigError, DomainError
from .fields import EPS_DOMAIN, Custom, Monopole, Vec3
from .integrals import (
    PhaseFunction,
    as_phase_function,
    bracket_matrix,
    evaluate_integral,
    monopole_angular_specs,
    monopole_runge_lenz_specs,
    monopole_total_square_spec,
)

_BASIS_NAMES = ("X1t", "X2", "X3", "X4", "X5", "X6", "X7")


def constantB_basis(B: float) -> list[PhaseFunction]:
    """The 7 closed-algebra generators X1t=p1^2/2, X2..X7, with gradients.

    X5 and X6 contain cos(Bx/p1) and sin(Bx/p1) and are regular only
    away from p1 = 0.
    """
    if B == 0:
        raise ValueError("constantB_basis requires B != 0")

    def theta(s: PhaseState) -> float:
        return B * s.x[0] / s.p[0]

    def x5(s):
        th = theta(s)
        return (B * s.x[2] - s.p[1]) * math.cos(th) - s.p[2] * math.sin(th)

    def x6(s):
        th = theta(s)
        return (s.p[1] - B * s.x[2]) * math.sin(th) - s.p[2] * math.cos(th)

    def grad_x5(s):
        th = theta(s)
        v6 = x6(s)
        gx = np.array([B / s.p[0] * v6, 0.0, B * math.cos(th)])
        gp = np.array([-B * s.x[0] / s.p[0] ** 2 * v6, -math.cos(th), -math.sin(th)])
        return gx, gp

    def grad_x6(s):
        th = theta(s)
        v5 = x5(s)
        gx = np.array([-B / s.p[0] * v5, 0.0, -B * math.sin(th)])
        gp = np.array([B * s.x[0] / s.p[0] ** 2 * v5, math.sin(th), -math.cos(th)])
        return gx, gp

    zero3 = np.zeros(3)
    return [
        PhaseFunction("X1t", lambda s: 0.5 * s.p[0] ** 2,
                      lambda s: (zero3, np.array([s.p[0], 0.0, 0.0]))),
        PhaseFunction("X2", lambda s: s.p[1],
                      lambda s: (zero3, np.array([0.0, 1.0, 0.0]))),
        PhaseFunction("X3", lambda s: s.p[2] - B * s.x[1],
                      lambda s: (np.array([0.0, -B, 0.0]), np.array([0.0, 0.0, 1.0]))),
        PhaseFunction(
            "X4",
            lambda s: s.x[1] * s.p[2] - s.x[2] * s.p[1]
            + 0.5 * B * (s.x[2] ** 2 - s.x[1] ** 2),
            lambda s: (np.array([0.0, s.p[2] - B * s.x[1], B * s.x[2] - s.p[1]]),
                       np.array([0.0, -s.x[2], s.x[1]])),
        ),
        PhaseFunction("X5", x5, grad_x5),
        PhaseFunction("X6", x6, grad_x6),
        PhaseFunction("X7", lambda s: 1.0, lambda s: (zero3, zero3)),
    ]


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


def verify_bracket_table(B: float, states, use_gradients: bool = True) -> dict:
    """Max discrepancy of every basis pair against the structure table.

    With use_gradients=False the analytic gradients are stripped and
    the brackets fall back to central differences.
    """
    states = list(states)
    basis = constantB_basis(B)
    if not use_gradients:
        basis = [PhaseFunction(f.name, f.fn, None) for f in basis]
    table = constantB_bracket_table(B)
    # (i, j, name, predicted combination) of every pair i < j
    checks = [(i, j, f"{{{fi.name},{fj.name}}}", table.combination(i, j))
              for i, fi in enumerate(basis) for j, fj in enumerate(basis) if i < j]
    pairs = {name: 0.0 for _, _, name, _ in checks}
    for s in states:
        br = bracket_matrix(basis, s)
        vals = {f.name: f(s) for f in basis}
        for i, j, name, combo in checks:
            pred = sum(c * vals[n] for n, c in combo.items())
            pairs[name] = max(pairs[name], abs(float(br[i, j]) - pred))
    return {
        "pairs": pairs,
        "max_discrepancy": max(pairs.values()),
        "n_states": len(states),
    }


def _const_b_hamiltonian(B: float, s: PhaseState) -> float:
    return 0.5 * (s.p[0] ** 2 + (s.p[1] - B * s.x[2]) ** 2 + s.p[2] ** 2)


def casimir_check(B: float, states) -> dict:
    """Residuals of 2 X1t X7 + X5^2 + X6^2 = 2H and
    2(B X4 + X1t) X7 + X2^2 + X3^2 = 2H at the given states."""
    states = list(states)
    basis = {f.name: f for f in constantB_basis(B)}
    r1 = r2 = 0.0
    for s in states:
        h2 = 2.0 * _const_b_hamiltonian(B, s)
        v = {name: f(s) for name, f in basis.items()}
        r1 = max(r1, abs(2 * v["X1t"] * v["X7"] + v["X5"] ** 2 + v["X6"] ** 2 - h2))
        r2 = max(r2, abs(2 * (B * v["X4"] + v["X1t"]) * v["X7"]
                         + v["X2"] ** 2 + v["X3"] ** 2 - h2))
    return {
        "first_casimir": r1,
        "second_casimir": r2,
        "max_residual": max(r1, r2),
        "n_states": len(states),
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


def _monopole_model(g: float, Q: float = 0.0):
    return Monopole(g=g, Q=Q) if g != 0 else _zero_field_model()


def monopole_closure_check(g: float, states, Q: float = 0.0,
                           use_gradients: bool = True) -> dict:
    """Checks {X1,X2}=X3 (cyclically) and involution of (X)^2 with each X_j.

    g = 0 reduces to the ordinary angular momenta l_j. Analytic
    gradients are the default; use_gradients=False falls back to
    central differences.
    """
    states = list(states)
    model = _monopole_model(g, Q)
    fns = [as_phase_function(sp, model) for sp in monopole_angular_specs(g)]
    fsq = as_phase_function(monopole_total_square_spec(g), model)
    if not use_gradients:
        fns = [PhaseFunction(f.name, f.fn, None) for f in fns]
        fsq = PhaseFunction(fsq.name, fsq.fn, None)
    names = [f"{{X{j + 1},X{(j + 1) % 3 + 1}}}-X{(j + 2) % 3 + 1}" for j in range(3)]
    names += [f"{{X_sq,X{j + 1}}}" for j in range(3)]
    checks = dict.fromkeys(names, 0.0)
    for s in states:
        br = bracket_matrix([*fns, fsq], s)  # rows X1, X2, X3, X_sq
        vals = [f(s) for f in fns]
        for j in range(3):
            k, l = (j + 1) % 3, (j + 2) % 3
            checks[names[j]] = max(checks[names[j]], abs(float(br[j, k]) - vals[l]))
            checks[names[3 + j]] = max(checks[names[3 + j]], abs(float(br[3, j])))
    return {
        "checks": checks,
        "max_discrepancy": max(checks.values()),
        "n_states": len(states),
    }


def runge_lenz(g: float, Q: float, s: PhaseState) -> Vec3:
    """Modified Runge-Lenz vector R = p^A x X - Q x/|x|.

    X = l^A + g x/|x| is the conserved angular vector; R is conserved
    when the scalar potential is g^2/(2|x|^2) - Q/|x|.
    """
    model = _monopole_model(g, Q)
    return np.array([evaluate_integral(sp, model, s)
                     for sp in monopole_runge_lenz_specs(g, Q)])


def runge_lenz_functions(g: float, Q: float) -> list[PhaseFunction]:
    """R_1, R_2, R_3 as watchable phase functions with exact gradients."""
    model = _monopole_model(g, Q)
    return [as_phase_function(sp, model) for sp in monopole_runge_lenz_specs(g, Q)]


def sample_states(rng, n: int, box: float = 2.0, p1_min: float = 0.0,
                  admissible=None, max_tries: int = 100000) -> list[PhaseState]:
    """Uniform random states in [-box, box]^6 with optional constraints.

    `admissible` filters positions (used to stay off singular loci);
    `p1_min` keeps |p1| away from 0 where X5, X6 need it.
    """
    out: list[PhaseState] = []
    tries = 0
    while len(out) < n:
        tries += 1
        if tries > max_tries:
            raise ConfigError("state sampling failed to find admissible points")
        x = rng.uniform(-box, box, 3)
        p = rng.uniform(-box, box, 3)
        if p1_min > 0 and abs(p[0]) < p1_min:
            continue
        if admissible is not None and not admissible(x):
            continue
        out.append(PhaseState(x, p))
    return out


def monopole_admissible(x) -> bool:
    """Position filter keeping samples well off the center and the string.

    The gauge factor 1/(r (r + z)) controls both the size of A and the
    accuracy of finite-difference probes, so the exclusion is phrased as
    a lower bound on r + z rather than on the cylinder radius.
    """
    r = float(np.linalg.norm(x))
    return 0.5 < r < 5.0 and r + x[2] > 0.5
