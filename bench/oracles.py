"""Reference physics that does not use magsuper.

Each function restates a formula from the paper or integrates Hamilton's
equations with scipy directly, so a check built on it does not share
code with the program under test. Units as in magsuper: mass 1, charge
-1, H = |p + A(x)|^2 / 2 + V(x).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp


def potentials(system: dict):
    """(A(x), V(x), dA/dx(x)) for a system config, written out by hand."""
    kind = system["model"]
    if kind == "constant_b":
        B = system["B"]

        def a(x):
            return np.array([0.0, -B * x[2], 0.0])

        def jac(x):
            j = np.zeros((3, 3))
            j[1, 2] = -B
            return j

        return a, (lambda x: 0.0), jac
    if kind == "helical":
        amp, beta, phi0 = system["A_amp"], system["beta"], system.get("phi0", 0.0)

        def a(x):
            u = (x[2] + phi0) / beta
            return np.array([-amp * math.cos(u), -amp * math.sin(u), 0.0])

        def jac(x):
            u = (x[2] + phi0) / beta
            j = np.zeros((3, 3))
            j[0, 2] = amp * math.sin(u) / beta
            j[1, 2] = -amp * math.cos(u) / beta
            return j

        return a, (lambda x: 0.0), jac
    if kind == "monopole":
        g, q = system["g"], system.get("Q", 0.0)
        barrier = system.get("potential", "modified") == "modified"

        def a(x):
            r = math.sqrt(x @ x)
            c = -g / (r * (r + x[2]))
            return np.array([c * x[1], -c * x[0], 0.0])

        def v(x):
            r = math.sqrt(x @ x)
            return -q / r + (0.5 * g * g / (r * r) if barrier else 0.0)

        return a, v, None
    raise ValueError(f"no reference potentials for {kind!r}")


def energy(system: dict, x, p) -> float:
    a, v, _ = potentials(system)
    x, p = np.asarray(x, float), np.asarray(p, float)
    w = p + a(x)
    return 0.5 * float(w @ w) + v(x)


def reference_orbit(system: dict, x0, p0, t_end: float):
    """Dense DOP853 solution of Hamilton's equations (fields with V = 0)."""
    a, _, jac = potentials(system)

    def rhs(_t, y):
        x, p = y[:3], y[3:]
        w = p + a(x)
        return np.concatenate([w, -(jac(x).T @ w)])

    sol = solve_ivp(rhs, (0.0, t_end), np.concatenate([x0, p0]), method="DOP853",
                    rtol=1e-12, atol=1e-12, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.sol


def helical_kappa(system: dict, x0, p0) -> float:
    """Pendulum constant of the helical z-motion (A_3 = 0, so zdot = p3)."""
    amp, beta, phi0 = system["A_amp"], system["beta"], system.get("phi0", 0.0)
    p = math.hypot(p0[0], p0[1])
    theta0 = (x0[2] + phi0 - beta * math.atan2(p0[1], p0[0])) / beta
    return p0[2] ** 2 / (2.0 * amp * p) - math.cos(theta0)


def landau_levels(B: float, hbar: float, k1: float, n: int) -> np.ndarray:
    """hbar |B| (n + 1/2) + k1^2 / 2."""
    return hbar * abs(B) * (np.arange(n) + 0.5) + 0.5 * k1 * k1


def mathieu_brackets(values, kinds, q: float, rel: float = 1e-8) -> list[bool]:
    """Whether each characteristic value is a root to within `rel`.

    Quarter-period shooting for y'' + (a - 2q cos 2x) y = 0 on
    [0, pi/2]: kind "a_even"/"a_odd" starts from y = 1, y' = 0 and
    "b_odd"/"b_even" from y = 0, y' = 1 (parity of the order r); orders
    with even r need y'(pi/2) = 0 for a and y(pi/2) = 0 for b, odd r
    the other way round. A value passes when the endpoint condition
    changes sign between a (1 - rel) and a (1 + rel), all shots
    integrated together in one system.
    """
    lows, highs, inits = [], [], []
    for a, kind in zip(values, kinds):
        d = rel * max(1.0, abs(a))
        lows.append(a - d)
        highs.append(a + d)
        inits.append([1.0, 0.0] if kind.startswith("a") else [0.0, 1.0])
    avals = np.array(lows + highs)
    y0 = np.array(inits + inits, dtype=float).ravel()

    def rhs(x, y):
        yy = y.reshape(-1, 2)
        return np.column_stack(
            [yy[:, 1], -(avals - 2.0 * q * math.cos(2.0 * x)) * yy[:, 0]]).ravel()

    sol = solve_ivp(rhs, (0.0, 0.5 * math.pi), y0, method="DOP853",
                    rtol=1e-12, atol=1e-12)
    end = sol.y[:, -1].reshape(-1, 2)
    out = []
    n = len(values)
    for i, kind in enumerate(kinds):
        # a_even: r even -> y'(pi/2) = 0; a_odd -> y(pi/2) = 0
        # b_odd: r odd -> y'(pi/2) = 0; b_even -> y(pi/2) = 0
        col = 1 if kind in ("a_even", "b_odd") else 0
        out.append(bool(end[i, col] * end[n + i, col] < 0))
    return out
