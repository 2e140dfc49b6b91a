"""Shared test utilities: seeded sampling and independent oracles."""

import math

import mpmath
import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from magsuper import PhaseState
from magsuper.fields import cross


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
