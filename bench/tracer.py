"""Outside-in tracer for the magsuper layers.

The tracer replaces public functions of the package with timing
wrappers at every binding site it finds (module globals, including the
names that ``cli``, ``algebra`` and ``closedform`` import directly, and
the methods of the built-in field models). Nothing inside ``src/`` is
edited; ``uninstall`` puts the original objects back.

Per call a wrapper adds its duration to the caller's child time, so a
layer's self time is the time its frames ran minus the time of the
wrapped calls they made. Calls from ``cli`` (or from a benchmark task)
into a layer also keep one span each with a parent id; the hot inner
boundaries (field methods, ``eom_rhs``, ``evaluate_integral``,
``phase_gradient``, the elliptic functions, the tridiagonal eigensolver)
only aggregate counts and time. A function already running on the stack
is called through untimed, so recursive functions such as
``dumps_report`` count once per outermost call. Everything stays in
memory until ``dump`` writes it.
"""

from __future__ import annotations

import contextlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function, layer, hot, patch inside the defining module too)
TARGETS = [
    ("magsuper.cli", "load_config", "cli", False, True),
    ("magsuper.cli", "dumps_report", "cli", False, True),
    ("magsuper.fields", "model_from_config", "fields", False, True),
    ("magsuper.fields", "divergence_checks", "fields", False, True),
    ("magsuper.dynamics", "integrate", "dynamics", False, True),
    ("magsuper.dynamics", "eom_rhs", "dynamics", True, True),
    ("magsuper.dynamics", "hamiltonian", "dynamics", True, True),
    ("magsuper.integrals", "determining_residuals", "integrals", False, True),
    ("magsuper.integrals", "poisson_bracket", "integrals", False, True),
    ("magsuper.integrals", "phase_gradient", "integrals", True, True),
    ("magsuper.integrals", "evaluate_integral", "integrals", True, True),
    ("magsuper.integrals", "as_phase_function", "integrals", False, True),
    ("magsuper.integrals", "hamiltonian_function", "integrals", False, True),
    ("magsuper.integrals", "known_integrals", "integrals", False, True),
    ("magsuper.integrals", "monopole_angular_specs", "integrals", False, True),
    ("magsuper.integrals", "monopole_total_square_spec", "integrals", False, True),
    ("magsuper.integrals", "monopole_runge_lenz_specs", "integrals", False, True),
    ("magsuper.algebra", "verify_bracket_table", "algebra", False, True),
    ("magsuper.algebra", "casimir_check", "algebra", False, True),
    ("magsuper.algebra", "monopole_closure_check", "algebra", False, True),
    ("magsuper.algebra", "sample_states", "algebra", False, True),
    ("magsuper.algebra", "monopole_admissible", "algebra", True, True),
    ("magsuper.closedform", "helix_solution", "closedform", True, True),
    ("magsuper.closedform", "x5_integral", "closedform", True, True),
    ("magsuper.closedform", "x6_integral", "closedform", True, True),
    ("magsuper.closedform", "pendulum_reduction", "closedform", False, True),
    ("magsuper.closedform", "helical_z_of_t", "closedform", False, True),
    ("magsuper.quantum", "landau_reduced_solve", "quantum", False, True),
    ("magsuper.quantum", "helical_reduced_solve", "quantum", False, True),
    ("magsuper.quantum", "mathieu_table", "quantum", False, True),
] + [
    # only calls into elliptic from other modules count; its internal
    # calls (jacobi_sn -> ellipk, inv_am -> inv_sn) are its own self time
    ("magsuper.elliptic", name, "elliptic", True, False)
    for name in ("agm", "ellipk", "jacobi_sn", "jacobi_cn", "jacobi_dn",
                 "jacobi_am", "inv_sn", "inv_am")
]

FIELD_CLASSES = ("ConstantB", "HelicalB", "Monopole")
FIELD_METHODS = ("vector_potential", "magnetic_field", "jacobian_a",
                 "grad_potential", "scalar_potential")


class Tracer:
    """Timing wrappers plus the in-memory aggregates and spans they fill."""

    def __init__(self):
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._depth: dict[str, list[int]] = {}
        self._h_refs: list = []
        self._next_id = 0
        self.spans: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Clear the aggregates (spans are kept for the trace file)."""
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.layer_self: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._h_refs.clear()

    # ------------------------------------------------------------------
    # frames

    def _push(self, layer: str, span: bool):
        parent = self._stack[-1] if self._stack else None
        sid = None
        if span:
            self._next_id += 1
            sid = self._next_id
        frame = [0.0, layer, sid, parent[2] if parent else None]
        self._stack.append(frame)
        return frame

    def _pop(self, frame, name: str, t0: float, t1: float) -> float:
        self._stack.pop()
        dur = t1 - t0
        if self._stack:
            self._stack[-1][0] += dur
        self.calls[name] += 1
        self.total[name] += dur
        self.layer_self[frame[1]] += dur - frame[0]
        if frame[2] is not None:
            self.spans.append((frame[2], frame[3], name, t0, t1))
        return dur

    @contextlib.contextmanager
    def task(self, name: str, layer: str):
        """Frame and root span of one benchmark task."""
        frame = self._push(layer, True)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._pop(frame, name, t0, perf_counter())

    def _wrap(self, fn, layer: str, name: str, hot: bool, hook=None):
        tracer = self
        depth = self._depth.setdefault(name, [0])
        stack = self._stack

        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            parent_layer = parent[1] if parent else None
            frame = tracer._push(layer, not hot and parent_layer in ("cli", "task"))
            depth[0] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                depth[0] -= 1
                dur = tracer._pop(frame, name, t0, t1)
            if hook is not None:
                hook(args, kwargs, result, dur, parent_layer)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # hooks that turn calls into layer counters

    def _hooks(self):
        from magsuper.integrals import PhaseFunction

        def integrate(args, kwargs, result, dur, _parent):
            steps = len(result.times) - 1
            self.counts["dynamics.steps"] += steps
            if result.method == "boris":
                self.counts["dynamics.boris_steps"] += steps
                self.total["dynamics.boris_integrate"] += dur

        def phase_gradient(args, kwargs, result, dur, _parent):
            f = args[0] if args else kwargs.get("f")
            if not (isinstance(f, PhaseFunction) and f.grad is not None):
                self.counts["integrals.fd_gradients"] += 1

        def evaluate_integral(args, kwargs, result, dur, _parent):
            if self._depth.get("integrals.poisson_bracket", [0])[0]:
                self.counts["integrals.evals_in_brackets"] += 1

        def hamiltonian_function(args, kwargs, result, dur, _parent):
            self._h_refs.append(result)

        def poisson_bracket(args, kwargs, result, dur, parent):
            if parent != "cli":
                return
            h_ids = {id(h) for h in self._h_refs}
            if any(id(a) in h_ids for a in args[:2]):
                self.total["integrals.bracket_h"] += dur
            else:
                self.total["integrals.bracket_matrix"] += dur

        def eigensolve(args, kwargs, result, dur, _parent):
            diag = args[0] if args else kwargs["d"]
            self.counts["quantum.eigensolve_dim"] += len(diag)

        return {
            "dynamics.integrate": integrate,
            "integrals.phase_gradient": phase_gradient,
            "integrals.evaluate_integral": evaluate_integral,
            "integrals.hamiltonian_function": hamiltonian_function,
            "integrals.poisson_bracket": poisson_bracket,
            "quantum.eigensolve": eigensolve,
        }

    # ------------------------------------------------------------------
    # installation

    def install(self) -> None:
        """Wrap every target at every binding site in the loaded package."""
        import importlib

        import scipy.linalg

        hooks = self._hooks()
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "magsuper" or n.startswith("magsuper."))]
        targets = []
        for modname, fname, layer, hot, internal in TARGETS:
            home = importlib.import_module(modname)
            if hasattr(home, fname):
                targets.append((getattr(home, fname), home, f"{layer}.{fname}",
                                layer, hot, internal))
        targets.append((scipy.linalg.eigh_tridiagonal, scipy.linalg,
                        "quantum.eigensolve", "quantum", True, False))
        for original, home, name, layer, hot, internal in targets:
            wrapper = self._wrap(original, layer, name, hot, hooks.get(name))
            for mod in modules:
                if mod is home and not internal:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

        fields = importlib.import_module("magsuper.fields")
        for cls_name in FIELD_CLASSES:
            cls = getattr(fields, cls_name)
            for meth in FIELD_METHODS:
                original = cls.__dict__.get(meth)
                if original is None:
                    continue
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, "fields",
                                              f"fields.{meth}", True))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # results

    def snapshot(self) -> dict:
        """Per-layer metrics of everything traced since the last reset."""
        calls, total, counts = self.calls, self.total, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        field_calls = sum(calls[f"fields.{m}"] for m in FIELD_METHODS)
        brackets = calls["integrals.poisson_bracket"]
        boris_steps = counts["dynamics.boris_steps"]
        out = {
            "cli.self_s": (self.layer_self["cli"], "s"),
            "cli.load_config.s": (total["cli.load_config"], "s"),
            "cli.dumps_report.s": (total["cli.dumps_report"], "s"),
            "fields.calls": (field_calls, "count"),
            "fields.self_s": (self.layer_self["fields"], "s"),
            "fields.divergence_checks.s": (total["fields.divergence_checks"], "s"),
            "dynamics.integrate.calls": (calls["dynamics.integrate"], "count"),
            "dynamics.integrate.s": (total["dynamics.integrate"], "s"),
            "dynamics.self_s": (self.layer_self["dynamics"], "s"),
            "dynamics.eom_rhs.calls": (calls["dynamics.eom_rhs"], "count"),
            "dynamics.steps": (counts["dynamics.steps"], "count"),
            "dynamics.boris_us_per_step": (
                1e6 * ratio(total["dynamics.boris_integrate"], boris_steps), "us"),
            "integrals.self_s": (self.layer_self["integrals"], "s"),
            "integrals.residuals_s": (total["integrals.determining_residuals"], "s"),
            "integrals.bracket_h_s": (total["integrals.bracket_h"], "s"),
            "integrals.bracket_matrix_s": (total["integrals.bracket_matrix"], "s"),
            "integrals.poisson_bracket.calls": (brackets, "count"),
            "integrals.evaluate_integral.calls": (
                calls["integrals.evaluate_integral"], "count"),
            "integrals.fd_gradient_share": (
                ratio(counts["integrals.fd_gradients"],
                      calls["integrals.phase_gradient"]), "ratio"),
            "integrals.evals_per_bracket": (
                ratio(counts["integrals.evals_in_brackets"], brackets), "ratio"),
            "algebra.self_s": (self.layer_self["algebra"], "s"),
            "algebra.verify_bracket_table.s": (total["algebra.verify_bracket_table"], "s"),
            "algebra.casimir_check.s": (total["algebra.casimir_check"], "s"),
            "algebra.monopole_closure_check.s": (
                total["algebra.monopole_closure_check"], "s"),
            "algebra.sample_states.s": (total["algebra.sample_states"], "s"),
            "closedform.self_s": (self.layer_self["closedform"], "s"),
            "closedform.helical_z_of_t.s": (total["closedform.helical_z_of_t"], "s"),
            "closedform.helix_solution.calls": (calls["closedform.helix_solution"], "count"),
            "closedform.pendulum_reduction.calls": (
                calls["closedform.pendulum_reduction"], "count"),
            "elliptic.calls": (sum(n for k, n in calls.items()
                                   if k.startswith("elliptic.")), "count"),
            "elliptic.self_s": (self.layer_self["elliptic"], "s"),
            "quantum.self_s": (self.layer_self["quantum"], "s"),
            "quantum.eigensolves": (calls["quantum.eigensolve"], "count"),
            "quantum.eigensolve_s": (total["quantum.eigensolve"], "s"),
            "quantum.eigensolve_dim": (counts["quantum.eigensolve_dim"], "count"),
            "quantum.helical_reduced_solve.s": (
                total["quantum.helical_reduced_solve"], "s"),
            "quantum.mathieu_table.s": (total["quantum.mathieu_table"], "s"),
        }
        return out

    def dump(self, path, extra: dict) -> None:
        """Write the kept spans and the last aggregates as JSON."""
        doc = dict(extra)
        doc["span_fields"] = ["id", "parent", "name", "start_s", "end_s"]
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
