"""Static electromagnetic field models.

Every model supplies a vector potential A(x), the magnetic field
B(x) = curl A(x), and a scalar potential V(x), in units where the
particle has mass 1 and charge -1 so the Hamiltonian reads
H = (p + A)^2 / 2 + V.

The methods of every model take one point of shape (3,) or a stack of
shape (n,3) and answer per point. Callables a model holds from its user
(`Custom`, the F1, F2 and V of `Cylindrical`) are still called with one
point or one radius at a time. `field_record` gathers A, J_A, B and
grad V at a stack into one `FieldRecord`, which the checks share.

Every model also has two methods on floats: `hamilton_rhs`, the
right-hand side of Hamilton's equations at one state of six floats, and
`b_and_grad_v`, B and grad V at one point of three floats, which the
Boris step calls once per step. The Boris step also runs the domain
test of a stated model on floats: `check_domain.floats`.

`ConstantB`, `HelicalB`, `Monopole` and `Cylindrical` are each stated
once, as a `Statement` of A, J_A, B, V, grad V and the domain test in
straight-line source, and all their methods are generated from it at
import (`_generated`); the user's functions of `Cylindrical` enter the
statement through `at`. The source of `hamilton_rhs` is its `source`,
which the Dormand-Prince attempt of `dynamics` writes into each of its
stages instead of calling it. Only `Custom` assembles both float methods
from its numpy methods.

The generator's output table, `_METHODS`, also holds the s, J_s, m and
grad m that the statement of a built-in integral of `integrals` gives.
"""

from __future__ import annotations

import math
import numbers
import re
import textwrap
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, DomainError, ParameterError

Vec3 = np.ndarray

#: clearance below which a point counts as sitting on a singular locus
EPS_DOMAIN = 1e-8


def _as_vec3(x) -> Vec3:
    a = np.asarray(x, dtype=float)
    if a.shape != (3,):
        raise ParameterError(f"expected a 3-vector, got shape {a.shape}")
    if not all(map(math.isfinite, a.tolist())):
        raise ParameterError("vector has non-finite components")
    return a


def _as_real(value, what: str, *, positive: bool = False, finite: bool = True) -> float:
    """value as a float, or a ParameterError that starts with `what` (the
    argument's name, and its value) unless value is a real number and not
    a bool, not nan, finite unless `finite` is false, and > 0 if
    `positive`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterError(f"{what} is not a number")
    try:
        x = float(value)
    except OverflowError:  # an int beyond the double range
        raise ParameterError(f"{what} is beyond the double range") from None
    if math.isnan(x) or (finite and math.isinf(x)):
        raise ParameterError(f"{what} is not finite")
    if positive and not x > 0:
        raise ParameterError(f"{what} is not positive")
    return x


def _as_reals(value, what: str, noun: str = "an array of finite real numbers", shape=None):
    """The array twin of `_as_real`: value as a float array, or a
    ParameterError "`what` is not `noun`" unless its elements are real
    numbers, not bools, and finite (one reduction); a value of no
    dimensions goes through `_as_real`, with its repr after `what`, unless
    a `shape` other than () is required of value."""
    try:
        a = np.asarray(value)
    except (TypeError, ValueError):  # a ragged sequence
        a = np.asarray([None])
    if a.ndim == 0 and not shape:
        return _as_real(a.item() if isinstance(value, np.ndarray) else value, f"{what} {value!r}")
    if a.dtype.kind in "iuf" and np.isfinite(a).all():
        if shape is None or a.shape == shape:
            return a.astype(float, copy=False)
        raise ParameterError(f"{what} has shape {a.shape}, not {shape}")
    raise ParameterError(f"{what} is not {noun}")


def _as_count(value, what: str, *, least: int = 0) -> int:
    """value as an int, or a ParameterError that starts with `what` unless
    value is an integer, not a bool, of at least `least`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{what} is not an integer")
    if value < least:
        raise ParameterError(f"{what} is below {least}")
    return int(value)


def _as_instance(value, kind, name: str, noun: str):
    """value if it is an instance of `kind`, a class or a union of classes;
    else a ParameterError that names the argument `name`, shows the value
    and ends "is not `noun`"."""
    if not isinstance(value, kind):
        raise ParameterError(f"{name} {value!r} is not {noun}")
    return value


def _real_fields(model, *names: str) -> None:
    """Store each named number of a frozen model as a float, or raise the
    ParameterError of `_as_real` that names the model and the parameter."""
    for name in names:
        value = getattr(model, name)
        object.__setattr__(model, name,
                           _as_real(value, f"{type(model).__name__} {name} {value!r}"))


def _callable_fields(obj, required=(), optional=()) -> None:
    """A ParameterError that names the class, the field and its value
    unless each field of obj named in `required` is callable and each
    named in `optional` is callable or None."""
    for name in (*required, *optional):
        value = getattr(obj, name)
        if not (callable(value) or (value is None and name in optional)):
            raise ParameterError(f"{type(obj).__name__} {name} {value!r} is not callable")


def _as_points(x) -> tuple[np.ndarray, bool]:
    """x as an (n,3) stack of finite points, and whether it was one (3,) point."""
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[1] != 3:
        return _as_vec3(a)[None], True
    if not np.isfinite(a).all():
        raise ParameterError("vector has non-finite components")
    return a, False


# Kernels on points: x is one point of shape (3,) or a stack of shape
# (n,3), and results keep that leading shape. Going through the
# transpose serves both: `x0, x1, x2 = x.T` and `x.T[k]` give numbers
# or (n,) arrays, `np.array([c0, c1, c2]).T` builds vectors back, and
# `out.T[k] = c` or `j.T[k, i] = c` sets a component or J_ik at every
# point. (`x[..., k]` would give 0-d arrays for one point, and numpy
# arithmetic on those costs several times more than on numbers.)


def cross(a, b):
    """a x b for 3-vectors or (n,3) stacks, either side broadcast.

    The same products and differences as np.cross, so the same bits,
    without its per-call overhead.
    """
    a0, a1, a2 = a.T
    b0, b1, b2 = b.T
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]).T


def dot(a, b):
    """a . b per point: a number, or shape (n,) for stacks."""
    a0, a1, a2 = a.T
    b0, b1, b2 = b.T
    return a0 * b0 + a1 * b1 + a2 * b2


def norm(x):
    """|x| per point."""
    x0, x1, x2 = x.T
    return np.sqrt(x0 * x0 + x1 * x1 + x2 * x2)


def _zeros(x):
    """0.0 per point of x: a float, or shape (n,) for a stack."""
    return np.zeros(len(x)) if np.ndim(x) == 2 else 0.0


def _first_flagged(x, flags):
    """The first point of x whose flag is set, or None."""
    if x.ndim == 1:
        return x if flags else None
    return x[np.argmax(flags)] if flags.any() else None


def _per_point(fn, x, ndim=1, shape=(), dtype=None):
    """fn(x) if x is one point of `ndim` dimensions (1 for a (3,) point, 0
    for a radius), else the array of fn at each row of the stack x, of shape
    (0, *shape) if empty: how models and specs call their user's code."""
    if np.ndim(x) == ndim:
        return fn(x)
    rows = [fn(row) for row in x]
    return np.array(rows, dtype=dtype) if rows else np.zeros((0, *shape))


def _pow(r, k):
    """r**k per point with the bits of a one-point call: `np.float_power`
    calls libm's pow per element, where `np.power` may take a SIMD path
    that differs in the last bit (a Tier-1 test guards the bits)."""
    return r**k if np.ndim(r) == 0 else np.float_power(r, k)


class FieldRecord(NamedTuple):
    """A model's fields at an (n,3) stack of points, computed once and
    shared by the residual, gradient and bracket kernels."""

    model: FieldModel
    x: np.ndarray  # (n, 3)
    a: np.ndarray  # (n, 3)
    jac_a: np.ndarray  # (n, 3, 3), rows dA_i/dx_j
    b: np.ndarray  # (n, 3)
    grad_v: np.ndarray  # (n, 3)


class Statement(NamedTuple):
    """A model or an integral stated once: `text`, lines `name = expression`
    over x0, x1, x2, the attributes `params` (separated by spaces) and
    RHS_GLOBALS, that end in the outputs of _METHODS (one that no line
    assigns is a structural zero); `domain`, written with `|`, true off the
    model's domain, where the function `refusal` of RHS_GLOBALS gives a
    point's DomainError."""

    params: str
    text: str
    domain: str | None = None
    refusal: str | None = None


class RhsSource(NamedTuple):
    """A float method of a stated model as straight-line source: the
    statements `body`, then `result`, the items of the tuple of six floats
    it returns. Both read the method's state (RHS_STATE for `hamilton_rhs`,
    x0, x1, x2 for `b_and_grad_v`), the attributes `params` and the names
    of `RHS_GLOBALS`, and bind no name that starts with an underscore: the
    Dormand-Prince stepper keeps those for its own when it writes the
    source of `hamilton_rhs` in place. A raise statement takes one line."""

    params: tuple[str, ...]
    body: str
    result: str


def _monopole_domain_error(point) -> DomainError:
    where = ("is too close to the monopole at the origin"
             if norm(point) < EPS_DOMAIN
             else "lies on the Dirac string (negative z-axis)")
    return DomainError(f"point {point} {where}")


def _helical_domain_error(point) -> DomainError:
    return DomainError(f"point {point} puts the helical phase (z + phi0) / beta "
                       "beyond the double range")


def _cylindrical_domain_error(point) -> DomainError:
    return DomainError(f"point {point} lies on the singular symmetry axis")


def _at(fn, r):
    """fn, a user's function of one radius, as a float at r, a number, or
    at each radius of an (n,) array, one call per radius."""
    return _per_point(lambda q: float(fn(float(q))), r, 0, dtype=float)


#: the state of an RhsSource, in the order of Hamilton's six equations
RHS_STATE = ("x0", "x1", "x2", "p0", "p1", "p2")
#: what a Statement, and so an RhsSource, may read besides its state and
#: parameters, as functions of floats
RHS_GLOBALS = {"sqrt": math.sqrt, "cos": math.cos, "sin": math.sin, "pow": math.pow,
               "at": lambda fn, r: float(fn(r)), "inf": math.inf, "array": np.array,
               "EPS_DOMAIN": EPS_DOMAIN, "monopole_domain_error": _monopole_domain_error,
               "helical_domain_error": _helical_domain_error,
               "cylindrical_domain_error": _cylindrical_domain_error}
#: the same names as functions of arrays, and what the stacked methods add
_ARRAY_GLOBALS = {**RHS_GLOBALS, "sqrt": np.sqrt, "cos": np.cos, "sin": np.sin, "pow": _pow,
                  "at": _at, "_np": np, "_zeros": _zeros, "_first_flagged": _first_flagged,
                  "FieldRecord": FieldRecord}
#: each generated method: what it returns, and the outputs of the statement that it reads
_METHODS = {"vector_potential": ("A", "A0 A1 A2"), "magnetic_field": ("B = curl A", "B0 B1 B2"),
            "scalar_potential": ("V", "V"), "grad_potential": ("grad V", "G0 G1 G2"),
            "jacobian_a": ("J_A, rows dA_i/dx_k", "J00 J01 J02 J10 J11 J12 J20 J21 J22"),
            "check_domain": ("None, or the DomainError of the first point off the domain", ""),
            "b_and_grad_v": ("(B, grad V) at one point of three floats", "B0 B1 B2 G0 G1 G2"),
            "hamilton_rhs": ("(v, dp) at one state of six floats", "")}
_METHODS["field_record"] = ("the FieldRecord of A, J_A, B and grad V", " ".join(
    _METHODS[m][1] for m in "vector_potential jacobian_a magnetic_field grad_potential".split()))
#: an integral's statement ends in s0..s2, Sik = ds_i/dx_k, m and M0..M2 = grad m
_METHODS.update(s=("s", "s0 s1 s2"), m=("m", "m"), grad_m=("grad m", "M0 M1 M2"), jac_s=(
    "J_s, rows ds_i/dx_k", " ".join(f"S{i}{k}" for i in range(3) for k in range(3))))
#: the methods of a model's statement, in the order `_generated` returns them
_MODEL_METHODS = tuple(_METHODS)[:9]


def _generated(name: str, st: Statement, methods=_MODEL_METHODS) -> tuple:
    """The `methods` of _METHODS, in their order, generated from st."""
    return tuple(_generated_method(name, method, st) for method in methods)


def _generated_method(model: str, method: str, st: Statement, floats: bool = False):
    """One method of `model` (a name) from st: the lines of st that its result
    reads, walking back from it, and the domain test right after the last
    line that the test reads. A line after the test that is read once is
    written into its reader, in parentheses, with the same bits.

    `b_and_grad_v` and `hamilton_rhs` run on floats and keep their
    RhsSource as `source`. `check_domain` keeps as `floats` the same test
    at one point of three floats (generated with `floats` true), which
    the Boris step runs after each step. hamilton_rhs is v = p + A and
    dp_k = -(sum_i J_ik v_i) - G_k without structural zeros, whose `+ 0.0`
    could flip the sign of a zero. The stacked methods run on numpy arrays
    for an (n,3) stack and on floats for one (3,) point, which overflow
    without a warning, as in the float methods; outputs that read no
    coordinate are one constant, a scalar added to `_zeros(x)` and a vector
    or matrix broadcast to every point (read-only). Each keeps as
    `outputs` those of the statement that it reads (none: a structural
    zero), and a stacked one is marked `stacks`, as `integrals` marks the
    functions of a spec that take stacks."""
    lines = [tuple(line.strip().split(" = ", 1)) for line in st.text.strip().splitlines()]
    has = {name for name, _ in lines}
    names = _METHODS[method][1].split()
    outputs = [name for name in names if name in has]
    floats, tail, result = floats or method in ("b_and_grad_v", "hamilton_rhs"), [], None
    if method == "b_and_grad_v":
        result = [name if name in has else "0.0" for name in names]
    elif method == "hamilton_rhs":
        lines += [(f"v{i}", f"p{i} + A{i}") for i in range(3) if f"A{i}" in has]
        result = [f"v{i}" if f"A{i}" in has else f"p{i}" for i in range(3)]
        for k in range(3):
            terms = [f"J{i}{k} * {result[i]}" for i in range(3) if f"J{i}{k}" in has]
            dp = f"-({' + '.join(terms)})" if terms else ""
            result.append((dp + f" - G{k}" * (f"G{k}" in has)).strip() or "0.0")
    need = set(re.findall(r"\w+", "\n".join([*(result or outputs), st.domain or ""])))
    body = []
    for name, expr in reversed(lines):
        if name in need:
            body.insert(0, f"{name} = {expr}")
            need |= set(re.findall(r"\w+", expr))
    const = not re.search(r"\bx\d", "\n".join(body))  # one value serves every point
    if result:
        tail = [f"return ({', '.join(result)})"]
    elif len(names) == 1:  # one scalar output
        tail = [f"return {outputs[0] + ' + _zeros(x)' * const if outputs else '_zeros(x)'}"]
    elif names:
        # _A.T[i] is the component A_i at every point, _J.T[k, i] the entry
        # J_ik: an output of two digits is an entry of a 3x3 matrix
        letters = {name[0]: " + (3,)" * (len(name) == 3) for name in names}
        tail = [line for c, matrix in letters.items() for line in (
            f"_{c} = _np.zeros({'(3,)' if const else 'x.shape'}{matrix})",
            *(f"_{c}.T[{', '.join(name[:0:-1])}] = {name}" for name in outputs if name[0] == c),
            *[f"_{c} = _np.broadcast_to(_{c}, x.shape{matrix})"] * const)]
        tail.append("return " + ("FieldRecord(self, x, _A, _J, _B, _G)" if len(letters) > 1 else
                                 f"_{names[0][0]}"))
    test = -1  # the index of the domain test in body
    if st.domain:
        tested = set(re.findall(r"\w+", st.domain))
        test = 1 + max((i for i, line in enumerate(body) if line.split(" = ")[0] in tested),
                       default=-1)
        if floats:
            body.insert(test, f"if {st.domain}:\n    raise {st.refusal}(array((x0, x1, x2)))")
        else:
            # on a stack, what the test reads overflows to inf without a
            # warning, as on the floats of one point, and the test flags it
            read = "\n".join([*body[:test], f"_off = {st.domain}"])
            body[:test] = [f"if x.ndim == 1:\n{textwrap.indent(read, '    ')}\nelse:\n"
                           f"    with _np.errstate(over='ignore'):\n"
                           f"{textwrap.indent(read, '        ')}\n"
                           f"if _off if x.ndim == 1 else _off.any():\n"
                           f"    raise {st.refusal}(_first_flagged(x, _off))"]
            test = 0
    code = body + tail
    for i in range(len(body) - 1, test, -1):
        name, expr = code[i].split(" = ", 1)
        word = re.compile(rf"\b{name}\b")
        uses = [len(word.findall(line)) for line in code[i + 1:]]
        if sum(uses) == 1:
            j = i + 1 + uses.index(1)
            code[j] = word.sub(lambda _: f"({expr})", code[j])
            del code[i]
    for i in range(len(code) - 2, -1, -1):
        # a stacked method drops each array of a line after its last reader
        last = set(re.findall(r"\w+", code[i])) & (has | {"_off"}) - set(
            re.findall(r"\w+", "\n".join(code[i + 1:])))
        if last and not floats:
            code.insert(i + 1, f"del {', '.join(sorted(last))}")
    text = "\n".join(code)
    params = tuple(p for p in st.params.split() if re.search(rf"\b{p}\b", text))
    if floats:
        head = f"{', '.join(RHS_STATE[:6 if method == 'hamilton_rhs' else 3])}, = y"
    else:
        head = "x0, x1, x2 = x.tolist() if x.ndim == 1 else x.T" * bool(re.search(r"\bx\d", text))
    source = "\n".join([f"def {method}(self, {'y' if floats else 'x'}):",
                        textwrap.indent("\n".join([head, *(f"{p} = self.{p}" for p in params),
                                                   text or "pass"]), "    ")])
    namespace = dict(RHS_GLOBALS if floats else _ARRAY_GLOBALS)
    exec(compile(source, f"<{model}.{method}>", "exec"), namespace)
    function = namespace[method]
    function.__doc__ = f"{_METHODS[method][0]}, from the statement of {model}."
    function.__qualname__ = f"{model}.{method}"
    function.outputs, function.stacks = tuple(outputs), not floats
    if result:
        function.source = RhsSource(params, "\n".join(code[:-1]), code[-1][len("return ("):-1])
    elif method == "check_domain" and not floats:
        function.floats = _generated_method(model, method, st, floats=True)
    return function


@dataclass(frozen=True)
class ConstantB:
    """Uniform magnetic field B along the x-axis (B of either sign).

    Gauge: A = (0, -B z, 0), V = 0.
    """

    B: float

    def __post_init__(self):
        _real_fields(self, "B")
        if self.B == 0:
            raise ParameterError("ConstantB requires B != 0")

    statement = Statement("B", """
        A1 = -B * x2
        J12 = -B
        B0 = B
        """)
    (vector_potential, magnetic_field, scalar_potential, grad_potential, jacobian_a, check_domain,
     b_and_grad_v, hamilton_rhs, field_record) = _generated("ConstantB", statement)


@dataclass(frozen=True)
class HelicalB:
    """Helical magnetic field of constant magnitude A_amp / |beta|.

    Gauge: A = (-A_amp cos u, -A_amp sin u, 0) with u = (z + phi0) / beta,
    so B = (A_amp / beta)(cos u, sin u, 0) and V = 0.
    """

    A_amp: float
    beta: float
    phi0: float = 0.0

    def __post_init__(self):
        _real_fields(self, "A_amp", "beta", "phi0")
        if not self.A_amp > 0:
            raise ParameterError("HelicalB requires A_amp > 0")
        if self.beta == 0:
            raise ParameterError("HelicalB requires beta != 0")
        if not math.isfinite(self.A_amp / self.beta):
            raise ParameterError(f"HelicalB A_amp / beta = {self.A_amp!r} / {self.beta!r} "
                                 "is not finite")

    statement = Statement("A_amp beta phi0", """
        u = (x2 + phi0) / beta
        c = cos(u)
        s = sin(u)
        A0 = -A_amp * c
        A1 = -A_amp * s
        J02 = A_amp * s / beta
        J12 = -A_amp * c / beta
        k = A_amp / beta
        B0 = k * c
        B1 = k * s
        """, domain="abs(u) == inf", refusal="helical_domain_error")
    (vector_potential, magnetic_field, scalar_potential, grad_potential, jacobian_a, check_domain,
     b_and_grad_v, hamilton_rhs, field_record) = _generated("HelicalB", statement)


@dataclass(frozen=True)
class Monopole:
    """Magnetic monopole of charge g with a modified Coulomb potential.

    Gauge (Dirac string along the negative z half-axis):
        A = -g / (|x| (|x| + z)) * (y, -x, 0),
    which equals g/(|x|(x^2+y^2)) * (y(z-|x|), -x(z-|x|), 0) off the
    string but stays numerically regular on the positive z-axis.
    V = g^2/(2|x|^2) - Q/|x|; the barrier term g^2/(2|x|^2) is what makes
    the modified Runge-Lenz vector conserved and can be switched off to
    demonstrate that it is required.
    """

    g: float
    Q: float = 0.0
    barrier: bool = True

    def __post_init__(self):
        _real_fields(self, "g", "Q")
        if self.g == 0:
            raise ParameterError("Monopole requires g != 0")
        if not isinstance(self.barrier, bool):
            raise ParameterError(f"Monopole barrier {self.barrier!r} is not a bool")

    # w = r (r + z), A = -g / w (y, -x, 0) and d_k = g dw/dx_k / w^2, with
    # grad w = (x/r)(2r + z) + r e_z; off the domain: r below EPS_DOMAIN, or
    # w / r, the gauge's denominator, below the relative clearance EPS_DOMAIN r
    statement = Statement("g Q barrier", """
        r = sqrt(x0 * x0 + x1 * x1 + x2 * x2)
        w = r * (r + x2)
        c = -g / w
        A0 = c * x1
        A1 = -c * x0
        k = 2 * r + x2
        w2 = pow(w, 2)
        d0 = g * (x0 / r * k) / w2
        d1 = g * (x1 / r * k) / w2
        d2 = g * (x2 / r * k + r) / w2
        J00 = d0 * x1
        J01 = d1 * x1 + c
        J02 = d2 * x1
        J10 = -d0 * x0 - c
        J11 = -d1 * x0
        J12 = -d2 * x0
        r2 = pow(r, 2)
        r3 = pow(r, 3)
        B0 = g * x0 / r3
        B1 = g * x1 / r3
        B2 = g * x2 / r3
        V = -Q / r + 0.5 * pow(g, 2) / r2 if barrier else -Q / r
        dv = Q / r2 - pow(g, 2) / r3 if barrier else Q / r2
        G0 = dv * x0 / r
        G1 = dv * x1 / r
        G2 = dv * x2 / r
        """, domain="(r < EPS_DOMAIN) | (r + x2 < EPS_DOMAIN * r)",
        refusal="monopole_domain_error")
    (vector_potential, magnetic_field, scalar_potential, grad_potential, jacobian_a, check_domain,
     b_and_grad_v, hamilton_rhs, field_record) = _generated("Monopole", statement)


@dataclass(frozen=True)
class Cylindrical:
    """Axially symmetric field family B = (-F1' y/R, F1' x/R, F2'/R).

    Gauge: A = (-y F2(R)/R^2, x F2(R)/R^2, -F1(R)) with R = sqrt(x^2+y^2);
    V is an arbitrary function of R. F1, F2, V are supplied as callables
    of R, each called with one radius at a time, with their first
    derivatives. Every formula divides by R: the axis is off the domain.
    """

    f1: Callable[[float], float]
    df1: Callable[[float], float]
    f2: Callable[[float], float]
    df2: Callable[[float], float]
    v: Callable[[float], float]
    dv: Callable[[float], float]

    def __post_init__(self):
        _callable_fields(self, ("f1", "df1", "f2", "df2", "v", "dv"))

    # q = F2 / R^2 and dq = d/dR (F2 / R^2), with dR/dx = (gx, gy, 0)
    statement = Statement("f1 df1 f2 df2 v dv", """
        r = sqrt(x0 * x0 + x1 * x1)
        F2 = at(f2, r)
        r2 = pow(r, 2)
        A0 = -x1 * F2 / r2
        A1 = x0 * F2 / r2
        A2 = -at(f1, r)
        D1 = at(df1, r)
        D2 = at(df2, r)
        gx = x0 / r
        gy = x1 / r
        dq = (D2 * r - 2 * F2) / pow(r, 3)
        q = F2 / r2
        J00 = -x1 * dq * gx
        J01 = -q - x1 * dq * gy
        J10 = q + x0 * dq * gx
        J11 = x0 * dq * gy
        J20 = -D1 * gx
        J21 = -D1 * gy
        B0 = -D1 * x1 / r
        B1 = D1 * x0 / r
        B2 = D2 / r
        V = at(v, r)
        dV = at(dv, r)
        G0 = dV * x0 / r
        G1 = dV * x1 / r
        """, domain="r < EPS_DOMAIN", refusal="cylindrical_domain_error")
    (vector_potential, magnetic_field, scalar_potential, grad_potential, jacobian_a, check_domain,
     b_and_grad_v, hamilton_rhs, field_record) = _generated("Cylindrical", statement)


@dataclass(frozen=True)
class Custom:
    """Field model assembled from user-supplied callables.

    Only `a` (vector potential) and `v` (scalar potential) are required;
    the magnetic field defaults to a central-difference curl of `a`, and
    derivative callbacks default to central differences as well. A stack
    of points is evaluated row by row, so the callables see shape (3,).
    """

    a: Callable[[Vec3], Vec3]
    v: Callable[[Vec3], float]
    b: Callable[[Vec3], Vec3] | None = None
    jac_a: Callable[[Vec3], np.ndarray] | None = None
    grad_v: Callable[[Vec3], Vec3] | None = None
    domain: Callable[[Vec3], None] | None = None

    def __post_init__(self):
        _callable_fields(self, ("a", "v"), ("b", "jac_a", "grad_v", "domain"))

    def hamilton_rhs(self, y) -> tuple:
        """Hamilton's right-hand side at one state y = (x0, x1, x2, p0, p1,
        p2) from the array methods: v = p + A and dp = -J_A^T v - grad V,
        returned as six floats."""
        x, p = np.array(y[:3]), np.array(y[3:])
        v = p + self.vector_potential(x)
        dp = -(self.jacobian_a(x).T @ v) - self.grad_potential(x)
        return (*v.tolist(), *dp.tolist())

    def b_and_grad_v(self, x) -> tuple:
        """B and grad V at one point x = (x0, x1, x2), as six floats."""
        x = np.array(x)
        return (*self.magnetic_field(x).tolist(), *self.grad_potential(x).tolist())

    def field_record(self, x) -> FieldRecord:
        self.check_domain(x)
        return FieldRecord(self, x, self.vector_potential(x), self.jacobian_a(x),
                           self.magnetic_field(x), self.grad_potential(x))

    def _rows(self, value, x, *shape, tested=True):
        """value(p) at one (3,) point x, or at each row p of a stack, of
        shape `shape`; after the domain test of p if `tested`."""
        def at(p):
            if tested and self.domain is not None:
                self.domain(p)
            return value(p)

        return _per_point(at, x, 1, shape)

    def check_domain(self, x) -> None:
        if self.domain is not None:
            self._rows(lambda p: None, x)

    def vector_potential(self, x) -> Vec3:
        return self._rows(lambda p: _as_vec3(self.a(p)), x, 3)

    def magnetic_field(self, x) -> Vec3:
        return self._rows(lambda p: curl_fd(self.a, p) if self.b is None else _as_vec3(self.b(p)),
                          x, 3)

    def scalar_potential(self, x) -> float:
        return self._rows(lambda p: float(self.v(p)), x)

    def grad_potential(self, x) -> Vec3:
        return self._rows(lambda p: jacobian_fd(self.v, p) if self.grad_v is None else
                          _as_vec3(self.grad_v(p)), x, 3, tested=False)

    def jacobian_a(self, x) -> np.ndarray:
        return self._rows(lambda p: jacobian_fd(self.a, p) if self.jac_a is None else
                          np.asarray(self.jac_a(p), dtype=float), x, 3, 3, tested=False)


FieldModel = ConstantB | HelicalB | Monopole | Cylindrical | Custom


@dataclass(frozen=True)
class GaugeFunction:
    """Scalar gauge function chi with its gradient (and optional Hessian)."""

    chi: Callable[[Vec3], float]
    gradient: Callable[[Vec3], Vec3]
    hessian: Callable[[Vec3], np.ndarray] | None = None

    def __post_init__(self):
        _callable_fields(self, ("chi", "gradient"), ("hessian",))

    def hessian_at(self, x: Vec3) -> np.ndarray:
        if self.hessian is not None:
            return np.asarray(self.hessian(x), dtype=float)
        return jacobian_fd(self.gradient, x)


# ---------------------------------------------------------------------------
# module-level operations


def vector_potential(model: FieldModel, x) -> Vec3:
    return model.vector_potential(_as_vec3(x))


def magnetic_field(model: FieldModel, x) -> Vec3:
    return model.magnetic_field(_as_vec3(x))


def scalar_potential(model: FieldModel, x) -> float:
    return float(model.scalar_potential(_as_vec3(x)))


def field_record(model: FieldModel, x: np.ndarray) -> FieldRecord:
    """A, J_A, B and grad V of the model at an (n,3) stack, after its
    domain test: the model's `field_record`."""
    return model.field_record(x)


def gauge_shift(model: FieldModel, chi: GaugeFunction) -> Custom:
    """Return the model with A replaced by A + grad chi (V unchanged).

    The magnetic field of the result is the analytic field of the input,
    so curl(A + grad chi) = B remains exact.
    """

    def a(x):
        return model.vector_potential(x) + _as_vec3(chi.gradient(x))

    def jac(x):
        return model.jacobian_a(x) + chi.hessian_at(x)

    return Custom(a=a, v=model.scalar_potential, b=model.magnetic_field, jac_a=jac,
                  grad_v=model.grad_potential, domain=model.check_domain)


@dataclass(frozen=True)
class FieldCheckReport:
    max_div_b: float
    max_curl_mismatch: float
    max_div_a: float
    n_points: int


def divergence_checks(model: FieldModel, points) -> FieldCheckReport:
    """Central-difference consistency report over a batch of points.

    Checks div B = 0 and curl A = B; also reports div A, which vanishes
    for every built-in gauge choice. All points go through the model as
    one stack, and one Jacobian of A serves both curl A and div A. An
    (n,3) array is validated as one stack; any other iterable point by
    point.
    """
    if isinstance(points, np.ndarray) and points.ndim == 2 and points.shape[1] == 3:
        x = _as_points(points)[0]
    else:
        x = np.array([_as_vec3(p) for p in points]).reshape(-1, 3)
    if not len(x):
        return FieldCheckReport(0.0, 0.0, 0.0, 0)
    model.check_domain(x)
    jb = jacobian_fd(model.magnetic_field, x)
    ja = jacobian_fd(model.vector_potential, x)
    return FieldCheckReport(
        float(np.max(np.abs(np.trace(jb, axis1=1, axis2=2)))),
        float(np.max(np.abs(_curl(ja) - model.magnetic_field(x)))),
        float(np.max(np.abs(np.trace(ja, axis1=1, axis2=2)))),
        len(x),
    )


# ---------------------------------------------------------------------------
# central differences (step eps^(1/3) * max(1, |x_j|) along each x_j)

#: eps^(1/3) balances the truncation error against round-off
_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)


def jacobian_fd(f: Callable, x) -> np.ndarray:
    """Central-difference derivative of f at a point x of any length d,
    or at each row of an (n, d) stack when f takes stacks.

    A scalar f gives its gradient, shape (d,); a vector f gives the
    Jacobian with rows df_i/dx_j, shape (m, d); a stack adds a leading n.
    """
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.shape[-1]):
        h = _FD_STEP * np.maximum(1.0, np.abs(x.T[j]))
        xp, xm = x.copy(), x.copy()
        xp.T[j] += h
        xm.T[j] -= h
        cols.append((np.subtract(f(xp), f(xm)).T / (2 * h)).T)
    return np.moveaxis(np.array(cols), 0, -1)


def _curl(j):
    """curl from Jacobian rows df_i/dx_j, per point of a (3,3) or (n,3,3) j."""
    return np.array([j[..., 2, 1] - j[..., 1, 2], j[..., 0, 2] - j[..., 2, 0],
                     j[..., 1, 0] - j[..., 0, 1]]).T


def curl_fd(f: Callable[[Vec3], Vec3], x: Vec3) -> Vec3:
    return _curl(jacobian_fd(f, x))


# ---------------------------------------------------------------------------
# JSON config


def model_from_config(cfg: dict) -> FieldModel:
    """Build a field model from a JSON-style dict {"model": name, ...}.

    Only the three named systems are constructible this way; Cylindrical
    and Custom carry callables and exist in code only.
    """
    if not isinstance(cfg, dict) or "model" not in cfg:
        raise ConfigError("field config must be an object with a 'model' key")
    kind = cfg["model"]
    params = {k: v for k, v in cfg.items() if k != "model"}

    def number(key, default=None):
        # the schema's "number": present unless it has a default, never a bool
        if key not in params and default is None:
            raise ConfigError(f"model {kind!r} needs the parameter {key!r}")
        value = params.pop(key, default)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"parameter {key!r} of model {kind!r} must be a number")
        return float(value)

    try:
        if kind == "constant_b":
            return ConstantB(B=number("B"), **_none(params))
        if kind == "helical":
            return HelicalB(
                A_amp=number("A_amp"),
                beta=number("beta"),
                phi0=number("phi0", 0.0),
                **_none(params),
            )
        if kind == "monopole":
            potential = params.pop("potential", "modified")
            if potential not in ("modified", "coulomb-only"):
                raise ConfigError(f"unknown monopole potential {potential!r}")
            return Monopole(
                g=number("g"),
                Q=number("Q", 0.0),
                barrier=(potential == "modified"),
                **_none(params),
            )
    except ParameterError as exc:
        raise ConfigError(f"bad parameters for model {kind!r}: {exc}") from exc
    raise ConfigError(f"unknown field model {kind!r}")


def _none(params: dict) -> dict:
    if params:
        raise ConfigError(f"unknown field parameters: {sorted(params)}")
    return {}
