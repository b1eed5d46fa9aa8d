"""Per-module tracing from outside the program.

``Tracer.install`` replaces public functions of ``regularflow`` modules by
timing wrappers, under the same name in every ``regularflow`` module that
holds them (``cli.load_scenario`` as well as ``scenario.load_scenario``), and
``Tracer.restore`` puts every original back.  Three kinds of wrapper:

* span: one record per call (layer, function, start, end, parent), kept in
  compact arrays in memory;
* leaf: ``Expression.__call__``, over a million calls per smooth check, so
  only a count, the points evaluated and the summed time; its time is taken
  out of the self time of the span that called it;
* scipy: calls into scipy that a module makes (``quad``, ``solve_ivp``,
  ``brentq``), a count, summed time and ``nfev``; their time stays in the
  calling module's self time.

A module's self time is the time of its spans minus their child spans and
leaf calls, so the self times of all layers plus the time of the harness's
root span outside every module add up to the traced pass.
"""

from __future__ import annotations

import array
import os
import sys
import time

# (layer, module, attribute): public functions whose calls are spans.
SPAN_TARGETS = [
    ("scenario", "scenario", "load_scenario"),
    ("scenario", "scenario", "assumptions_report"),
    *[("quadrature", "quadrature", n) for n in (
        "potential", "energy_profile", "time_of_flight", "gap_time_of_flight",
        "dT_dx", "dT_dx_by_parts", "dT_dx_weighted")],
    *[("regularity", "regularity", n) for n in (
        "check_auto", "check_smooth_positive_v", "check_smooth_general",
        "check_one_gap_zero_v", "check_one_gap_general",
        "check_corollary_sufficient", "check_two_gap", "check_monotone_multi",
        "check_linear", "check_constant_force_pair",
        "check_constant_force_profile", "check_halfspace_step",
        "check_central")],
    ("simulator", "simulator", "simulate_ensemble"),
    ("simulator", "simulator", "detect_collisions_1d"),
    ("simulator", "simulator", "detect_collisions_multid"),
    ("simulator", "simulator", "asymptotic_verdict_1d"),
    *[("field", "field", n) for n in (
        "sample_field", "invert_flow_1d", "reconstruct_velocity",
        "euler_residual", "continuity_residual", "track_boundary",
        "check_euler_global")],
    ("io", "simulator", "write_trajectory_csv"),
    ("io", "simulator", "write_collision_report"),
    ("io", "field", "write_field_csv"),
    ("io", "cli", "_write"),
]

# (layer, module, attribute): scipy entry points as each module names them.
SCIPY_TARGETS = [
    ("quadrature", "quadrature", "_scipy_quad"),
    ("simulator", "simulator", "solve_ivp"),
    ("field", "field", "solve_ivp"),
    ("field", "field", "brentq"),
]

# Criteria are the check_* spans other than the router.
CRITERIA = {n for layer, _, n in SPAN_TARGETS
            if layer == "regularity" and n != "check_auto"}
DETECT = {"detect_collisions_1d", "detect_collisions_multid",
          "asymptotic_verdict_1d"}
ROOT = "outside"
PACKAGE = "regularflow"
LAYERS = ["expressions", "quadrature", "regularity", "simulator", "field",
          "scenario", "io"]


class Tracer:
    """Records spans and counters while installed; see the module doc."""

    def __init__(self):
        self.names = []             # span name index -> (layer, name)
        self._name_ids = {}
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("l")
        self.name_id = array.array("l")
        self.child = array.array("d")   # time of children and leaf calls
        self._stack = []                # open span ids
        self.counters = {}              # key -> [calls, seconds, extra]
        self.bytes_written = 0
        self._failures = []             # distinct QuadratureFailure objects
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _name(self, layer, name):
        key = (layer, name)
        if key not in self._name_ids:
            self._name_ids[key] = len(self.names)
            self.names.append(key)
        return self._name_ids[key]

    def open(self, layer, name):
        sid = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.child.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name_id.append(self._name(layer, name))
        self._stack.append(sid)
        return sid

    def close(self, sid):
        self.end[sid] = t = time.perf_counter()
        self._stack.pop()
        p = self.parent[sid]
        if p >= 0:
            self.child[p] += t - self.start[sid]

    def _note_exception(self, exc):
        if type(exc).__name__ == "QuadratureFailure" and \
                not any(e is exc for e in self._failures):
            self._failures.append(exc)

    def _span(self, layer, name, fn, io_path_arg=None):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer.open(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._note_exception(exc)
                raise
            finally:
                tracer.close(sid)
            if io_path_arg is not None:
                path = result if io_path_arg == "result" else \
                    (args[io_path_arg:] or [kwargs.get("path")])[0]
                if isinstance(path, str) and os.path.isfile(path):
                    tracer.bytes_written += os.path.getsize(path)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, key):
        return self.counters.setdefault(key, [0, 0.0, 0])

    def _scipy(self, key, fn):
        c = self._counter(key)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                c[0] += 1
                c[1] += perf() - t0
            c[2] += getattr(result, "nfev", 0)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, fn):
        c = self._counter(("expressions", "Expression.__call__"))
        perf = time.perf_counter
        stack, child = self._stack, self.child

        def call(expr, *args, **kwargs):
            t0 = perf()
            try:
                return fn(expr, *args, **kwargs)
            finally:
                d = perf() - t0
                c[0] += 1
                c[1] += d
                c[2] += getattr(args[0], "size", 1) if args else 1
                if stack:
                    child[stack[-1]] += d

        call.__wrapped__ = fn
        return call

    # -- installing --------------------------------------------------------

    def _rebind(self, original, replacement):
        for mod in _modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self):
        """Wrap every target.  A target the program no longer has raises
        ``LookupError`` before anything is wrapped: its metrics would
        otherwise read 0, as if the work were gone."""
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _modules()}
        expr_cls = getattr(mods.get("expressions"), "Expression", None)
        missing = [f"{mod}.{attr}"
                   for _, mod, attr in SPAN_TARGETS + SCIPY_TARGETS
                   if getattr(mods.get(mod), attr, None) is None]
        if expr_cls is None or "__call__" not in vars(expr_cls):
            missing.append("expressions.Expression.__call__")
        if missing:
            raise LookupError("trace targets not found: " + " ".join(missing))

        for layer, mod, attr in SPAN_TARGETS:
            fn = getattr(mods[mod], attr)
            io_arg = ("result" if attr == "_write" else 1) \
                if layer == "io" else None
            self._rebind(fn, self._span(layer, attr, fn, io_arg))
        for layer, mod, attr in SCIPY_TARGETS:
            fn = getattr(mods[mod], attr)
            setattr(mods[mod], attr, self._scipy((layer, attr), fn))
            self._undo.append((mods[mod], attr, fn))
        original = vars(expr_cls)["__call__"]
        expr_cls.__call__ = self._leaf(original)
        self._undo.append((expr_cls, "__call__", original))

    def restore(self):
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- summary -----------------------------------------------------------

    def _detect_seconds(self):
        """Inclusive time of detection spans not nested in another one."""
        total = 0.0
        for sid in range(len(self.start)):
            if self.names[self.name_id[sid]][1] not in DETECT:
                continue
            p = self.parent[sid]
            if p >= 0 and self.names[self.name_id[p]][1] in DETECT:
                continue
            total += self.end[sid] - self.start[sid]
        return total

    def summary(self):
        """Per-layer totals: ``self_s`` by layer (``outside`` for the root
        spans), ``pass_s`` summed over the root spans, inclusive seconds and
        call counts by (layer, name), detection time, the counters, and the
        number of QuadratureFailure exceptions seen."""
        self_s = dict.fromkeys(LAYERS + [ROOT], 0.0)
        incl, calls = {}, {}
        traced = 0.0
        for sid in range(len(self.start)):
            key = self.names[self.name_id[sid]]
            dur = self.end[sid] - self.start[sid]
            self_s[key[0]] += dur - self.child[sid]
            if self.parent[sid] < 0:
                traced += dur
            incl[key] = incl.get(key, 0.0) + dur
            calls[key] = calls.get(key, 0) + 1
        expr = self.counters.get(("expressions", "Expression.__call__"),
                                 [0, 0.0, 0])
        self_s["expressions"] += expr[1]
        return {"self_s": self_s, "pass_s": traced, "incl": incl, "calls": calls,
                "detect_s": self._detect_seconds(),
                "counters": dict(self.counters),
                "quad_failures": len(self._failures),
                "bytes_written": self.bytes_written}


def _modules():
    """The program's loaded modules."""
    return [m for n, m in list(sys.modules.items()) if m is not None and
            (n == PACKAGE or n.startswith(PACKAGE + "."))]


def wrappers_left():
    """Names in the program's modules still bound to a tracing wrapper."""
    left = []
    for mod in _modules():
        for attr, value in vars(mod).items():
            if getattr(value, "__module__", "") == __name__ and \
                    hasattr(value, "__wrapped__"):
                left.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and getattr(
                    vars(value).get("__call__"), "__module__", "") == __name__:
                left.append(f"{mod.__name__}.{attr}.__call__")
    return left
