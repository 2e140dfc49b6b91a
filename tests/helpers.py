"""Shared test utilities: seeded sampling and independent oracles."""

import math

import mpmath
import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from magsuper import (ConfigError, ConstantB, Cylindrical, DomainError, HelicalB, IntegralSpec,
                      Monopole, ParameterError, PhaseState, StepFailure)
from magsuper.dynamics import RK45_A, RK45_B, RK45_E
from magsuper.fields import EPS_DOMAIN, _at, _zeros, cross, norm


def rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def random_states(gen, n, box=2.0, p1_min=0.0):
    out = []
    while len(out) < n:
        x = gen.uniform(-box, box, 3)
        p = gen.uniform(-box, box, 3)
        if p1_min > 0 and abs(p[0]) < p1_min:
            continue
        out.append(PhaseState(x, p))
    return out


def stack_states(states):
    """The pair (x, p) of (n,3) stacks of an iterable of PhaseStates, the
    form the sampled checks take."""
    states = list(states)
    return (np.array([s.x for s in states]).reshape(-1, 3),
            np.array([s.p for s in states]).reshape(-1, 3))


def state_list(pair):
    """The PhaseStates of a pair (x, p) of (n,3) stacks, one per row."""
    return [PhaseState(x, p) for x, p in zip(*pair)]


def monopole_positions(gen, n):
    # off the center, with r + z bounded away from the gauge string
    out = []
    while len(out) < n:
        x = gen.uniform(-2.0, 2.0, 3)
        r = np.linalg.norm(x)
        if not 0.5 < r < 5.0 or r + x[2] <= 0.5:
            continue
        out.append(x)
    return out


def sample_uniform_per_row(gen, n, size, accept=None, box=2.0):
    """The reference of `algebra.sample_uniform`: one row of `size` uniform
    draws per try, kept where `accept(row)` is true, a ConfigError after
    1000 tries per row."""
    rows, tries = [], 0
    while len(rows) < n:
        if tries == 1000 * n:
            raise ConfigError(f"state sampling failed: {len(rows)} of {n} admissible "
                              f"points in {tries} tries")
        tries += 1
        row = gen.uniform(-box, box, size)
        if accept is None or accept(row):
            rows.append(row)
    return np.array(rows).reshape(-1, size)


def monopole_admissible_per_point(x):
    """The reference of `algebra.monopole_admissible` at one point."""
    r = float(np.linalg.norm(x))
    return 0.5 < r < 5.0 and r + x[2] > 0.5


def monopole_states(gen, n):
    return [PhaseState(x, gen.uniform(-2.0, 2.0, 3))
            for x in monopole_positions(gen, n)]


def kepler_orbit(gen, g, q, a):
    """Bound MIC-Kepler orbit of the monopole with barrier, g > 0 and q > 0.

    X = x cross v + g x/|x| is conserved, so x/|x| keeps X . x/|x| = g and
    the orbit lies on a cone of half-angle acos(g/|X|) about X; the radial
    motion is a Kepler ellipse of angular momentum |X|. For semi-major axis
    a: E = -q/(2a), |X|^2 = q a (1 - e^2), and every orbit closes after
    T = 2 pi q / (-2E)^(3/2). The cone axis stays within 30 degrees of +z,
    clear of the Dirac string. A is the Dirac-string gauge written out.

    Returns (x0, p0, E, T, r_max).
    """
    ecc = gen.uniform(0.2, 0.5)
    big_x = math.sqrt(q * a * (1.0 - ecc * ecc))
    energy = -q / (2.0 * a)
    pol, az = gen.uniform(0.0, math.pi / 6), gen.uniform(0.0, 2.0 * math.pi)
    axis = np.array([math.sin(pol) * math.cos(az), math.sin(pol) * math.sin(az),
                     math.cos(pol)])
    e1 = np.cross(axis, [1.0, 0.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    half, phi = math.acos(g / big_x), gen.uniform(0.0, 2.0 * math.pi)
    xhat = math.cos(half) * axis + math.sin(half) * (math.cos(phi) * e1 + math.sin(phi) * e2)
    r_min, r_max = a * (1.0 - ecc), a * (1.0 + ecc)
    r = gen.uniform(r_min, r_max)
    x = r * xhat
    l_kin = big_x * axis - g * xhat  # x cross v, orthogonal to xhat
    vr = math.sqrt(max(0.0, 2.0 * (energy + q / r) - big_x**2 / r**2))
    v = gen.choice([-1.0, 1.0]) * vr * xhat + np.cross(l_kin, x) / r**2
    a_vec = -g / (r * (r + x[2])) * np.array([x[1], -x[0], 0.0])
    period = 2.0 * math.pi * q / (-2.0 * energy) ** 1.5
    return x, v - a_vec, energy, period, r_max


def agm(a, b):
    """Arithmetic-geometric mean of two nonnegative numbers: the oracle of
    K(k) = pi / (2 agm(1, k'))."""
    a, b = float(a), float(b)
    if a < 0 or b < 0:
        raise ValueError("agm needs nonnegative arguments")
    # tolerance must exceed one ulp of the limit or the pair can cycle
    for _ in range(64):
        if abs(a - b) <= 4e-16 * max(a, b):
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def hermite_values(n, xi):
    """Physicists' Hermite polynomial H_n by the three-term recurrence."""
    h_prev = np.ones_like(xi)
    if n == 0:
        return h_prev
    h = 2.0 * xi
    for m in range(1, n):
        h, h_prev = 2.0 * xi * h - 2.0 * m * h_prev, h
    return h


def hermite_check(result, B, k2, hbar, n):
    """L2 distance of the n-th grid eigenfunction of a Landau solve from the
    Hermite-Gaussian of level n, the oracle of the Landau eigenfunctions.

    Both functions are trapezoid-normalized and sign-aligned before the
    distance is taken, so the value is phase-unambiguous.
    """
    if n >= len(result.eigenvalues):
        raise ParameterError(f"level {n} not computed")
    z = result.grid.points
    xi = math.sqrt(abs(B) / hbar) * (z - k2 / B)
    phi = hermite_values(n, xi) * np.exp(-0.5 * xi**2)
    phi = phi / math.sqrt(np.trapezoid(phi**2, z))
    psi = result.eigenfunctions[n]
    if np.trapezoid(psi * phi, z) < 0:
        psi = -psi
    return float(math.sqrt(np.trapezoid((psi - phi) ** 2, z)))


def _mathieu_endpoint(a, q, y0, dy0):
    sol = solve_ivp(
        lambda x, y: [y[1], -(a - 2.0 * q * np.cos(2.0 * x)) * y[0]],
        (0.0, np.pi / 2.0), [y0, dy0], method="DOP853",
        rtol=1e-12, atol=1e-12,
    )
    return sol.y[0, -1], sol.y[1, -1]


def mathieu_shooting(r, parity, q, center, half_width=0.5):
    """Characteristic value by quarter-period ODE shooting.

    Fourier series of the periodic solutions give the boundary
    conditions: even parity starts y(0)=1, y'(0)=0 and needs
    y'(pi/2)=0 for even r, y(pi/2)=0 for odd r; odd parity starts
    y(0)=0, y'(0)=1 and needs y(pi/2)=0 for even r, y'(pi/2)=0 for
    odd r. The root is bracketed around `center`.
    """
    if parity == "even":
        y0, dy0 = 1.0, 0.0
        pick = 1 if r % 2 == 0 else 0
    else:
        y0, dy0 = 0.0, 1.0
        pick = 1 if r % 2 == 1 else 0

    def f(a):
        return _mathieu_endpoint(a, q, y0, dy0)[pick]

    lo, hi = center - half_width, center + half_width
    flo, fhi = f(lo), f(hi)
    grow = 0
    while flo * fhi > 0:
        grow += 1
        if grow > 8:
            raise RuntimeError("no sign change around the candidate value")
        lo -= half_width
        hi += half_width
        flo, fhi = f(lo), f(hi)
    return brentq(f, lo, hi, xtol=1e-11, rtol=8.9e-16)


def _helical_pendulum(model, s0):
    """theta0, dtheta/dtau at tau = 0, dtau/dt and phi_p - phi0 of the
    helical z-motion: theta = (z + phi0 - phi_p) / beta with phi_p = beta
    atan2(p2, p1) obeys theta'' = -sin(theta) / 2 in the time
    tau = sqrt(2 A |(p1, p2)|) t / beta, with kappa = theta'^2 - cos(theta)."""
    p1, p2, zdot = (float(c) for c in s0.p)
    phi_p = model.beta * math.atan2(p2, p1)
    theta0 = (float(s0.x[2]) + model.phi0 - phi_p) / model.beta
    rate = math.sqrt(2.0 * model.A_amp * math.hypot(p1, p2))
    return theta0, zdot / rate, rate / model.beta, phi_p - model.phi0


def separatrix_z(model, s0, ts):
    """Exact helical z(t) at kappa = 1, where theta' = +-sqrt(2) cos(theta/2):
    theta = 2 gd(+-tau/sqrt(2) + gd^-1(theta0/2)) plus 2 pi per turn of theta0.
    gd(u) = atan(sinh(u)) is arcsin(tanh(u)) without its loss of digits
    near +-pi/2."""
    theta0, dtheta0, rate, offset = _helical_pendulum(model, s0)
    turns = round(theta0 / (2.0 * math.pi))
    u0 = math.asinh(math.tan(0.5 * theta0 - math.pi * turns))
    u = math.copysign(1.0, dtheta0) * rate * np.asarray(ts) / math.sqrt(2.0) + u0
    return offset + model.beta * (2.0 * np.arctan(np.sinh(u)) + 2.0 * math.pi * turns)


def pendulum_z_mp(model, s0, ts, dps=30):
    """Helical z(t) from the Jacobi elliptic solution of the pendulum, with
    mpmath at `dps` digits, for kappa on either side of 1.

    Librating, m = (kappa + 1) / 2: sin(theta/2) = sqrt(m) sn(w0 + tau/sqrt(2) | m)
    about the nearest multiple of 2 pi. Rotating, m = 2 / (kappa + 1):
    theta/2 = am(w0 + sigma sqrt(kappa + 1) tau / 2 | m), where am is the
    angle of (cn, sn) on the branch nearest pi w / (2 K), which stays
    within pi/2 of it.
    """
    theta0, dtheta0, rate, offset = _helical_pendulum(model, s0)
    out = []
    with mpmath.workdps(dps):
        th0 = mpmath.mpf(theta0)
        kappa = mpmath.mpf(dtheta0) ** 2 - mpmath.cos(th0)
        if kappa < 1:
            m = (kappa + 1) / 2
            turns = round(theta0 / (2.0 * math.pi))
            half = (th0 - 2 * mpmath.pi * turns) / 2
            w0 = mpmath.ellipf(mpmath.asin(mpmath.sin(half) / mpmath.sqrt(m)), m)
            if dtheta0 < 0:
                w0 = 2 * mpmath.ellipk(m) - w0
            for t in ts:
                w = w0 + rate * mpmath.mpf(t) / mpmath.sqrt(2)
                sn = mpmath.ellipfun("sn", w, m=m)
                out.append(2 * mpmath.asin(mpmath.sqrt(m) * sn) + 2 * mpmath.pi * turns)
        else:
            m = 2 / (kappa + 1)
            quarter = mpmath.pi / (2 * mpmath.ellipk(m))
            speed = math.copysign(1.0, dtheta0) * mpmath.sqrt(kappa + 1) / 2
            w0 = mpmath.ellipf(th0 / 2, m)
            for t in ts:
                w = w0 + speed * rate * mpmath.mpf(t)
                am = mpmath.atan2(mpmath.ellipfun("sn", w, m=m), mpmath.ellipfun("cn", w, m=m))
                am += 2 * mpmath.pi * mpmath.nint((quarter * w - am) / (2 * mpmath.pi))
                out.append(2 * am)
        return np.array([float(offset + model.beta * th) for th in out])


def boris_numpy(model, s0, t_end, dt):
    """Times, x and p of the synchronized Boris scheme written on numpy
    3-vectors, one array operation per vector update: the loop that
    `dynamics._run_boris` replaced, kept as its bit-for-bit reference."""
    n_steps = max(1, int(math.ceil(float(t_end) / dt)))
    dts = np.full(n_steps, float(t_end) / n_steps)
    x = s0.x.copy()
    v = s0.p + model.vector_potential(x)
    times = np.empty(n_steps + 1)
    xs = np.empty((n_steps + 1, 3))
    vs = np.empty((n_steps + 1, 3))
    times[0], xs[0], vs[0] = 0.0, x, v
    t = 0.0
    for i, h in enumerate(dts):
        x = x + 0.5 * h * v
        g = -model.grad_potential(x)
        b = model.magnetic_field(x)
        v = v + 0.5 * h * g
        tv = -0.5 * h * b
        sv = 2.0 * tv / (1.0 + tv @ tv)
        v = v + cross(v + cross(v, tv), sv)
        v = v + 0.5 * h * g
        x = x + 0.5 * h * v
        model.check_domain(x)
        t += h
        times[i + 1] = t
        xs[i + 1] = x
        vs[i + 1] = v
    times[-1] = float(t_end)
    ps = vs - model.vector_potential(xs)
    ps[0] = s0.p
    return times, xs, ps


def csv_text_reference(header, table):
    """CSV of an (n, k) float table with one %-format of k %.17g fields per
    row: the `cli._csv_text` that the array conversion replaced, kept as
    its byte-for-byte reference."""
    row_fmt = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)]
    lines.extend(row_fmt % tuple(row) for row in table.tolist())
    return "\n".join(lines) + "\n"


def json_table_reference(table, indent=0):
    """`cli.dumps_report` of a 2-D float array with one %-format per row, as
    it wrote a table of finite floats before the array conversion; other
    tables take its path of nested lists, which writes one cell at a time."""
    from magsuper import cli

    if not (table.size and np.isfinite(table).all()):
        return cli.dumps_report(table.tolist(), indent)
    pad = "  " * indent
    cell = "\n" + "  " * (indent + 2) + "%.17g"
    row_fmt = f"{pad}  [" + ",".join([cell] * table.shape[1]) + f"\n{pad}  ]"
    return "[\n" + ",\n".join(row_fmt % tuple(r) for r in table.tolist()) + f"\n{pad}]"


def dp5_step_reference(rhs):
    """step(y, k1, h) -> (y_new, (k1, k3, k4, k5, k6, k7)): the Dormand-Prince
    attempt written as one list comprehension per stage, the stepper that
    `dynamics._dp5_stepper` replaced, kept as its bit-for-bit reference."""
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = RK45_A[1:]
    b1, _, b3, b4, b5, b6 = RK45_B

    def step(y, k1, h):
        k2 = rhs([c + (a21 * p) * h for c, p in zip(y, k1)])
        k3 = rhs([c + (a31 * p + a32 * q) * h for c, p, q in zip(y, k1, k2)])
        k4 = rhs([c + (a41 * p + a42 * q + a43 * r) * h
                  for c, p, q, r in zip(y, k1, k2, k3)])
        k5 = rhs([c + (a51 * p + a52 * q + a53 * r + a54 * s) * h
                  for c, p, q, r, s in zip(y, k1, k2, k3, k4)])
        k6 = rhs([c + (a61 * p + a62 * q + a63 * r + a64 * s + a65 * u) * h
                  for c, p, q, r, s, u in zip(y, k1, k2, k3, k4, k5)])
        y_new = [c + (b1 * p + b3 * r + b4 * s + b5 * u + b6 * w) * h
                 for c, p, r, s, u, w in zip(y, k1, k3, k4, k5, k6)]
        if not all(map(math.isfinite, y_new)):
            raise StepFailure("integration aborted: vector has non-finite components")
        return y_new, (k1, k3, k4, k5, k6, rhs(y_new))

    return step


def dp5_error_reference(y, y_new, slopes, h, atol, rtol):
    """The RMS error norm of a Dormand-Prince attempt as the comprehension
    that `dynamics._dp5_stepper` replaced: over components of
    h E.K / (atol + max(|y|, |y_new|) rtol)."""
    e1, _, e3, e4, e5, e6, e7 = RK45_E
    k1, k3, k4, k5, k6, k7 = slopes
    v = [(e1 * p + e3 * r + e4 * s + e5 * u + e6 * w + e7 * z) * h
         / (atol + (c if c > d else d) * rtol)
         for c, d, p, r, s, u, w, z in zip(
             map(abs, y), map(abs, y_new), k1, k3, k4, k5, k6, k7)]
    return math.hypot(*v) / math.sqrt(len(v))


def hamilton_rhs_reference(model, y):
    """Hamilton's right-hand side of a ConstantB, HelicalB or Monopole at
    one state of six floats, as the methods written out by hand that the
    models' compiled `hamilton_rhs` replaced, kept as its bit-for-bit
    reference. A Monopole state on the center or the string is a
    DomainError."""
    if isinstance(model, ConstantB):
        _, _, x2, p0, p1, p2 = y
        v1 = p1 - model.B * x2
        return p0, v1, p2, 0.0, 0.0, model.B * v1
    if isinstance(model, HelicalB):
        _, _, x2, p0, p1, p2 = y
        u = (x2 + model.phi0) / model.beta
        c, s = math.cos(u), math.sin(u)
        v0 = p0 - model.A_amp * c
        v1 = p1 - model.A_amp * s
        dp2 = -(model.A_amp * s / model.beta * v0 - model.A_amp * c / model.beta * v1)
        return v0, v1, p2, 0.0, 0.0, dp2
    assert isinstance(model, Monopole)
    x0, x1, x2, p0, p1, p2 = y
    r = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2)
    if (r < EPS_DOMAIN) | (r + x2 < EPS_DOMAIN * r):
        raise DomainError(f"point {np.array([x0, x1, x2])} is off the domain")
    w = r * (r + x2)
    c = -model.g / w
    v0 = p0 + c * x1
    v1 = p1 - c * x0
    k = 2 * r + x2
    w2 = w**2
    dc0 = model.g * (x0 / r * k) / w2
    dc1 = model.g * (x1 / r * k) / w2
    dc2 = model.g * (x2 / r * k + r) / w2
    dv_dr = model.Q / r**2
    if model.barrier:
        dv_dr -= model.g**2 / r**3
    return (v0, v1, p2,
            -(dc0 * x1 * v0 + (-dc0 * x0 - c) * v1) - dv_dr * x0 / r,
            -((dc1 * x1 + c) * v0 - dc1 * x0 * v1) - dv_dr * x1 / r,
            -(dc2 * x1 * v0 - dc2 * x0 * v1) - dv_dr * x2 / r)


def _pow(r, k):
    # libm's pow per element, the bits of a one-point call
    return r**k if np.ndim(r) == 0 else np.array([v**k for v in r.tolist()])


def _first_flagged(x, flags):
    if x.ndim == 1:
        return x if flags else None
    return x[np.argmax(flags)] if flags.any() else None


def _monopole_radius(x):
    """|x| per point after the Monopole's domain test, with its DomainError."""
    x0, x1, x2 = x.T
    r = np.sqrt(x0 * x0 + x1 * x1 + x2 * x2)
    point = _first_flagged(x, (r < EPS_DOMAIN) | (r + x2 < EPS_DOMAIN * r))
    if point is not None:
        where = ("is too close to the monopole at the origin"
                 if np.linalg.norm(point) < EPS_DOMAIN
                 else "lies on the Dirac string (negative z-axis)")
        raise DomainError(f"point {point} {where}")
    return r


def _helical_phase(model, x):
    """u = (z + phi0) / beta per point, after the HelicalB's domain test."""
    with np.errstate(over="ignore"):
        u = (x.T[2] + model.phi0) / model.beta
    point = _first_flagged(x, np.isinf(u))
    if point is not None:
        raise DomainError(f"point {point} puts the helical phase (z + phi0) / beta "
                          "beyond the double range")
    return u


def _cylindrical_radius(x):
    """R per point as the hand-written Cylindrical methods took it, by
    np.hypot, after the domain test of the model's statement."""
    r = np.hypot(x.T[0], x.T[1])
    point = _first_flagged(x, r < EPS_DOMAIN)
    if point is not None:
        raise DomainError(f"point {point} lies on the singular symmetry axis")
    return r


def _cylindrical_reference(model, method, x):
    r = _cylindrical_radius(x)

    def at(fn):
        # the user's function at one radius per call
        if np.ndim(r) == 0:
            return fn(float(r))
        return np.array([fn(float(q)) for q in r], dtype=float).reshape(r.shape)

    x0, x1, _ = x.T
    if method == "vector_potential":
        f2, r2 = at(model.f2), _pow(r, 2)
        return np.array([-x1 * f2 / r2, x0 * f2 / r2, -at(model.f1)]).T
    if method == "magnetic_field":
        d1 = at(model.df1)
        return np.array([-d1 * x1 / r, d1 * x0 / r, at(model.df2) / r]).T
    if method == "scalar_potential":
        return at(model.v)
    if method == "grad_potential":
        d = at(model.dv)
        return np.array([d * x0 / r, d * x1 / r, np.zeros(x.shape[:-1])]).T
    if method == "check_domain":
        return None
    assert method == "jacobian_a"
    f2, d2, d1 = at(model.f2), at(model.df2), at(model.df1)
    # d/dx_j of F2/R^2, with dR/dx = (x/R, y/R, 0)
    gx, gy = x0 / r, x1 / r
    dq = (d2 * r - 2 * f2) / _pow(r, 3)
    q = f2 / _pow(r, 2)
    jac = np.zeros(x.shape + (3,))
    jac.T[0, 0] = -x1 * dq * gx
    jac.T[1, 0] = -q - x1 * dq * gy
    jac.T[0, 1] = q + x0 * dq * gx
    jac.T[1, 1] = x0 * dq * gy
    jac.T[0, 2] = -d1 * gx
    jac.T[1, 2] = -d1 * gy
    return jac


def field_reference(model, method, x):
    """`method` of a ConstantB, HelicalB, Monopole or Cylindrical at one
    point (3,) or an (n,3) stack x, as the numpy methods written out by
    hand that the models' generated methods replaced; a point off the
    domain is the DomainError of the model's domain test. It is the
    bit-for-bit reference of the first three; the Cylindrical methods took
    R = np.hypot(x, y), where the statement takes sqrt(x x + y y), so they
    agree within a few ulps."""
    if isinstance(model, Cylindrical):
        return _cylindrical_reference(model, method, x)
    zeros = np.zeros(x.shape)
    jac = np.zeros(x.shape[:-1] + (3, 3))
    scalar_zero = np.zeros(len(x)) if x.ndim == 2 else 0.0
    if isinstance(model, ConstantB):
        if method == "vector_potential":
            zeros.T[1] = -model.B * x.T[2]
        elif method == "magnetic_field":
            zeros.T[0] = model.B
        elif method == "jacobian_a":
            jac.T[2, 1] = -model.B
            return jac
        elif method == "scalar_potential":
            return scalar_zero
        elif method == "check_domain":
            return None
        return zeros
    if isinstance(model, HelicalB):
        u = _helical_phase(model, x)
        if method == "vector_potential":
            zeros.T[0] = -model.A_amp * np.cos(u)
            zeros.T[1] = -model.A_amp * np.sin(u)
        elif method == "magnetic_field":
            c = model.A_amp / model.beta
            zeros.T[0] = c * np.cos(u)
            zeros.T[1] = c * np.sin(u)
        elif method == "jacobian_a":
            jac.T[2, 0] = model.A_amp * np.sin(u) / model.beta
            jac.T[2, 1] = -model.A_amp * np.cos(u) / model.beta
            return jac
        elif method == "scalar_potential":
            return scalar_zero
        elif method == "check_domain":
            return None
        return zeros
    assert isinstance(model, Monopole)
    r = _monopole_radius(x)
    x0, x1, x2 = x.T
    g = model.g
    if method == "vector_potential":
        c = -g / (r * (r + x2))
        zeros.T[0] = c * x1
        zeros.T[1] = -c * x0
        return zeros
    if method == "magnetic_field":
        return (g * x.T / _pow(r, 3)).T
    if method == "scalar_potential":
        v = -model.Q / r
        if model.barrier:
            v += 0.5 * g**2 / _pow(r, 2)
        return v
    if method == "grad_potential":
        dv_dr = model.Q / _pow(r, 2)
        if model.barrier:
            dv_dr -= g**2 / _pow(r, 3)
        return (dv_dr * x.T / r).T
    if method == "jacobian_a":
        w = r * (r + x2)
        c = -g / w
        # grad of w = (x/r)(2r+z) + r e_z
        dw = x.T / r * (2 * r + x2)
        dw[2] += r
        dc = g * dw / _pow(w, 2)
        jac.T[:, 0] = dc * x1
        jac.T[1, 0] += c
        jac.T[:, 1] = -dc * x0
        jac.T[0, 1] -= c
        return jac
    assert method == "check_domain"
    return None


# ---------------------------------------------------------------------------
# reference checks of `verify`: each spec's s, J_s and grad m evaluated
# afresh by the residuals and by the gradient, and h, n and jac_n written
# out over every alpha coefficient, zeros included


class CoeffPolynomialsUnfolded:
    """h, n and jac_n of `CoeffPolynomials` written out, with a term for
    every coefficient."""

    def __init__(self, alpha):
        self.alpha = dict(alpha)

    def _a(self, a, b):
        return self.alpha.get((a, b), 0.0)

    def h(self, pos):
        _a, (x, y, z) = self._a, np.asarray(pos, dtype=float).T
        xx, yy, zz = _pow(x, 2), _pow(y, 2), _pow(z, 2)
        h1 = (_a(6, 6) * yy + (-_a(5, 6) * z - _a(1, 6)) * y
              + _a(5, 5) * zz + _a(1, 5) * z + _a(1, 1))
        h2 = (_a(6, 6) * xx + (-_a(4, 6) * z + _a(2, 6)) * x
              + _a(4, 4) * zz - _a(2, 4) * z + _a(2, 2))
        h3 = (_a(5, 5) * xx + (-_a(4, 5) * y - _a(3, 5)) * x
              + _a(4, 4) * yy + _a(3, 4) * y + _a(3, 3))
        return np.array([h1, h2, h3]).T

    def n(self, pos):
        _a, (x, y, z) = self._a, np.asarray(pos, dtype=float).T
        n1 = (-_a(5, 6) * _pow(x, 2)
              + (_a(4, 6) * y + _a(4, 5) * z - _a(2, 5) + _a(3, 6)) * x
              + (-2 * _a(4, 4) * z + _a(2, 4)) * y
              - _a(3, 4) * z + _a(2, 3))
        n2 = ((_a(5, 6) * y - 2 * _a(5, 5) * z - _a(1, 5)) * x
              - _a(4, 6) * _pow(y, 2)
              + (_a(4, 5) * z - _a(3, 6) + _a(1, 4)) * y
              + _a(3, 5) * z + _a(1, 3))
        n3 = ((-2 * _a(6, 6) * y + _a(1, 6) + _a(5, 6) * z) * x
              + (_a(4, 6) * z - _a(2, 6)) * y
              - _a(4, 5) * _pow(z, 2) + (_a(2, 5) - _a(1, 4)) * z + _a(1, 2))
        return np.array([n1, n2, n3]).T

    def jac_n(self, pos):
        _a, (x, y, z) = self._a, np.asarray(pos, dtype=float).T
        rows = [
            [-2 * _a(5, 6) * x + _a(4, 6) * y + _a(4, 5) * z - _a(2, 5) + _a(3, 6),
             _a(4, 6) * x - 2 * _a(4, 4) * z + _a(2, 4),
             _a(4, 5) * x - 2 * _a(4, 4) * y - _a(3, 4)],
            [_a(5, 6) * y - 2 * _a(5, 5) * z - _a(1, 5),
             _a(5, 6) * x - 2 * _a(4, 6) * y + _a(4, 5) * z - _a(3, 6) + _a(1, 4),
             -2 * _a(5, 5) * x + _a(4, 5) * y + _a(3, 5)],
            [-2 * _a(6, 6) * y + _a(1, 6) + _a(5, 6) * z,
             -2 * _a(6, 6) * x + _a(4, 6) * z - _a(2, 6),
             _a(5, 6) * x + _a(4, 6) * y - 2 * _a(4, 5) * z + _a(2, 5) - _a(1, 4)],
        ]
        return np.moveaxis(np.array(rows), (0, 1), (-2, -1))


def _spec_parts_reference(spec, x):
    """s, J_s and grad m of a spec at an (n,3) stack, evaluated afresh."""
    from magsuper.fields import jacobian_fd

    sv = np.zeros(x.shape) if spec.s is None else spec.s(x)
    if spec.s is None:
        js = np.zeros(x.shape + (3,))
    elif spec.jac_s is not None:
        js = np.broadcast_to(spec.jac_s(x), x.shape + (3,))
    else:
        js = jacobian_fd(spec.s, x)
    if spec.m is None:
        gm = np.zeros(x.shape)
    elif spec.grad_m is not None:
        gm = np.broadcast_to(spec.grad_m(x), x.shape)
    else:
        gm = jacobian_fd(spec.m, x)
    return sv, js, gm


def residuals_reference(spec, model, rec, mode="classical", hbar=1.0):
    """`determining_residuals` at a FieldRecord, from the unfolded
    polynomials and the spec's functions evaluated for this call."""
    from magsuper.fields import jacobian_fd

    xs = rec.x
    if spec.alpha:
        poly = CoeffPolynomialsUnfolded(spec.alpha)
        h1, h2, h3 = poly.h(xs).T
        n1, n2, n3 = poly.n(xs).T
    else:
        h1 = h2 = h3 = n1 = n2 = n3 = np.zeros(len(xs))
    b1, b2, b3 = rec.b.T
    vx, vy, vz = rec.grad_v.T
    sv, js, gm = _spec_parts_reference(spec, xs)
    sv, js, gm = sv.T, js.transpose(1, 2, 0), gm.T
    res = {
        "ds1_dx": js[0, 0] - (n2 * b2 - n3 * b3),
        "ds2_dy": js[1, 1] - (n3 * b3 - n1 * b1),
        "ds3_dz": js[2, 2] - (n1 * b1 - n2 * b2),
        "ds1_dy+ds2_dx": js[0, 1] + js[1, 0] - (n1 * b2 - n2 * b1 + 2 * (h1 - h2) * b3),
        "ds1_dz+ds3_dx": js[0, 2] + js[2, 0] - (n3 * b1 - n1 * b3 + 2 * (h3 - h1) * b2),
        "ds3_dy+ds2_dz": js[2, 1] + js[1, 2] - (n2 * b3 - n3 * b2 + 2 * (h2 - h3) * b1),
        "dm_dx": gm[0] - (2 * h1 * vx + n3 * vy + n2 * vz + sv[2] * b2 - sv[1] * b3),
        "dm_dy": gm[1] - (n3 * vx + 2 * h2 * vy + n1 * vz + sv[0] * b3 - sv[2] * b1),
        "dm_dz": gm[2] - (n2 * vx + n1 * vy + 2 * h3 * vz + sv[1] * b1 - sv[0] * b2),
        "zero_order": np.vecdot(sv.T, rec.grad_v),
    }
    if mode == "quantum" and spec.alpha:
        jn = CoeffPolynomialsUnfolded(spec.alpha).jac_n(xs).transpose(1, 2, 0)
        jb = jacobian_fd(model.magnetic_field, xs).transpose(1, 2, 0)
        corr = (jn[0, 2] * jb[0, 2] - jn[0, 1] * jb[0, 1]
                + jn[1, 0] * jb[1, 0] - jn[1, 2] * jb[1, 2]
                + jn[2, 1] * jb[2, 1] - jn[2, 0] * jb[2, 0]
                + jn[0, 0] * jb[1, 1] - jn[1, 1] * jb[0, 0])
        res["zero_order"] += 0.25 * hbar**2 * corr
    return res


def integral_gradient_reference(spec, rec, p):
    """(dX/dx, dX/dp) of a spec at the stacks rec.x and p, with its s, J_s
    and grad m evaluated afresh, J_s^T pi skipped where J_s is a structural
    zero: there is no s, or a generated jac_s that assigns no entry."""
    x = rec.x
    pa = p + rec.a
    c = np.zeros((6, len(x)))
    if spec.alpha:
        y = (*pa.T, *cross(x, pa).T)
        for (a, b), coef in spec.alpha.items():
            c[a - 1] += coef * y[b - 1]
            c[b - 1] += coef * y[a - 1]
    c_lin, c_ang = c[:3].T, c[3:].T
    sv, js, gm = _spec_parts_reference(spec, x)
    gp = c_lin + cross(c_ang, x) + sv
    gx = np.matvec(rec.jac_a.transpose(0, 2, 1), gp) + cross(pa, c_ang)
    if spec.s is None or getattr(spec.jac_s, "outputs", None) == ():
        gx += 0.0
    else:
        gx += np.matvec(js.transpose(0, 2, 1), pa)
    gx += gm
    return gx, gp


def bracket_table_reference(grads):
    """The (n, k, k) table of {f_i, f_j} from a list of k pairs of (n,3)
    phase gradients (df/dx, df/dp)."""
    gx, gp = zip(*grads)
    m = np.vecdot(np.stack(gx, axis=1)[:, :, None], np.stack(gp, axis=1)[:, None])
    return m - m.transpose(0, 2, 1)

# ---------------------------------------------------------------------------
# the built-in integrals as hand-written closures


_E = np.eye(3)


def _known(name, alpha, s=None, m=None, jac_s=None, grad_m=None) -> IntegralSpec:
    """A built-in spec, or a candidate of a `verify --spec` file; its s, m,
    jac_s and grad_m take (3,) or (n,3) points (a jac_s or grad_m that
    returns one constant serves every point)."""
    for fn in (s, m, jac_s, grad_m):
        if fn is not None:
            fn.stacks = True
    return IntegralSpec(name, alpha, s, m, jac_s, grad_m)


def _zero_jacobian(x) -> np.ndarray:
    """The jac_s of a constant s: a structural zero, whose J_s^T pi
    `_integral_gradient` does not form."""
    return np.zeros((3, 3))


_zero_jacobian.stacks = True


def _generator(name, a, b, m, grad_m) -> IntegralSpec:
    """The first-order integral X = (a + b x x) . p^A + m(x): the Euclidean
    generator a.P + b.L made covariant, from constant 3-vectors a and b
    (None for zero). Its jac_s is the constant [b]_x, whose column k is
    b x e_k, or `_zero_jacobian` when b is None."""
    if b is None:
        def s(x):
            return np.broadcast_to(a, x.shape).copy()

        return _known(name, {}, s, m, _zero_jacobian, grad_m)

    def s(x):
        return cross(b, x) if a is None else cross(b, x) + a

    jac = cross(b, _E).T
    return _known(name, {}, s, m, lambda x: jac, grad_m)


def _const_b_specs(model: ConstantB) -> list[IntegralSpec]:
    """P1, P2, P3 and L1."""
    B = model.B
    return [
        _generator("X1", _E[0], None, lambda x: _zeros(x), lambda x: np.zeros(3)),
        _generator("X2", _E[1], None, lambda x: B * x.T[2], lambda x: np.array([0.0, 0.0, B])),
        _generator("X3", _E[2], None, lambda x: -B * x.T[1], lambda x: np.array([0.0, -B, 0.0])),
        _generator("X4", None, _E[0],
                   lambda x: -0.5 * B * (_pow(x.T[1], 2) + _pow(x.T[2], 2)),
                   lambda x: np.array([_zeros(x), -B * x.T[1], -B * x.T[2]]).T),
    ]


def _helical_specs(model: HelicalB) -> list[IntegralSpec]:
    """P1, P2 and the screw L3 + beta P3."""
    amp, beta, phi0 = model.A_amp, model.beta, model.phi0

    def u(x):
        return (x.T[2] + phi0) / beta

    return [
        _generator("X1", _E[0], None, lambda x: amp * np.cos(u(x)),
                   lambda x: np.array([_zeros(x), _zeros(x), -amp * np.sin(u(x)) / beta]).T),
        _generator("X2", _E[1], None, lambda x: amp * np.sin(u(x)),
                   lambda x: np.array([_zeros(x), _zeros(x), amp * np.cos(u(x)) / beta]).T),
        _generator(
            "X3", beta * _E[2], _E[2],
            lambda x: amp * (x.T[0] * np.sin(u(x)) - x.T[1] * np.cos(u(x))),
            lambda x: np.array([
                amp * np.sin(u(x)),
                -amp * np.cos(u(x)),
                amp * (x.T[0] * np.cos(u(x)) + x.T[1] * np.sin(u(x))) / beta,
            ]).T,
        ),
    ]


def _unit_radial(j: int):
    """x_j/|x| and its gradient, as closures."""

    def val(x):
        return x.T[j] / norm(x)

    def grad(x):
        r = norm(x)
        g = (-x.T[j] * x.T / _pow(r, 3)).T
        g.T[j] += 1.0 / r
        return g

    return val, grad


def monopole_angular_specs_reference(g: float) -> list[IntegralSpec]:
    """X_j = l_j^A + g x_j/|x| for j = 1..3: L1, L2, L3."""
    specs = []
    for j in range(3):
        val, grad = _unit_radial(j)
        specs.append(_generator(f"X{j + 1}", None, _E[j],
                                lambda x, v=val: g * v(x), lambda x, gr=grad: g * gr(x)))
    return specs


def monopole_total_square_spec_reference(g: float) -> IntegralSpec:
    """(X)^2 = sum_j (l_j^A)^2 + g^2."""
    return _known(
        "X_sq", {(4, 4): 1.0, (5, 5): 1.0, (6, 6): 1.0},
        s=None,
        m=lambda x: g**2 + _zeros(x),
        grad_m=lambda x: np.zeros(3),
    )


def monopole_runge_lenz_specs_reference(g: float, Q: float) -> list[IntegralSpec]:
    """R_j = eps_jkl p_k^A X_l - Q x_j/|x| in covariant form.

    The quadratic parts are p2^A l3^A - p3^A l2^A and cyclic; the rest
    folds into s and m.
    """
    alphas = [
        {(2, 6): 1.0, (3, 5): -1.0},
        {(1, 6): -1.0, (3, 4): 1.0},
        {(1, 5): 1.0, (2, 4): -1.0},
    ]

    def s_fn(j):
        def s(x):
            return (g * cross(x, _E[j]).T / norm(x)).T

        return s

    def jac_s_fn(j):
        def jac(x):
            r = norm(x)
            c = cross(x, _E[j])
            jc = np.zeros((3, 3))
            jc[(j + 1) % 3, (j + 2) % 3] = 1.0
            jc[(j + 2) % 3, (j + 1) % 3] = -1.0
            # rows: d/dx_k of g c_i / r, per point
            outer = c[..., :, None] * x[..., None, :]
            return g * (jc / np.asarray(r)[..., None, None]
                        - outer / np.asarray(_pow(r, 3))[..., None, None])

        return jac

    specs = []
    for j in range(3):
        val, grad = _unit_radial(j)
        specs.append(_known(
            f"R{j + 1}", alphas[j],
            s=s_fn(j),
            m=(lambda x, v=val: -Q * v(x)),
            jac_s=jac_s_fn(j),
            grad_m=(lambda x, gr=grad: -Q * gr(x)),
        ))
    return specs


def _cylindrical_specs(model: Cylindrical) -> list[IntegralSpec]:
    """L3 and P3: m = -F2(R) and F1(R), with R as the model's statement
    reads it, and grad m = m'(R) (x/R, y/R, 0)."""
    def radial(fn, sign, gradient=False):
        def of_x(x):
            r = np.sqrt(x.T[0] * x.T[0] + x.T[1] * x.T[1])
            d = sign * _at(fn, r)
            return np.array([d * x.T[0] / r, d * x.T[1] / r, _zeros(x)]).T if gradient else d

        return of_x

    return [
        _generator("l3", None, _E[2], radial(model.f2, -1.0), radial(model.df2, -1.0, True)),
        _generator("p3", _E[2], None, radial(model.f1, 1.0), radial(model.df1, 1.0, True)),
    ]


def known_integrals_reference(model) -> list[IntegralSpec]:
    """`known_integrals` as its spec functions were written by hand, each
    closure of one model; the bit reference of the generated ones.

    For the monopole, the Runge-Lenz components are included only when
    the scalar potential carries the g^2/(2|x|^2) barrier that makes
    them conserved.
    """
    if isinstance(model, ConstantB):
        return _const_b_specs(model)
    if isinstance(model, HelicalB):
        return _helical_specs(model)
    if isinstance(model, Monopole):
        specs = monopole_angular_specs_reference(model.g)
        specs.append(monopole_total_square_spec_reference(model.g))
        if model.barrier:
            specs.extend(monopole_runge_lenz_specs_reference(model.g, model.Q))
        return specs
    if isinstance(model, Cylindrical):
        return _cylindrical_specs(model)
    raise TypeError(f"no known integrals for {type(model).__name__}")
