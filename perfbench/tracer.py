"""Spans around the public entry points of jetcalc's layers.

The tracer is installed from outside the package.  Every binding of a
wrapped function, in every ``jetcalc.*`` module namespace and class body, is
replaced by one wrapper that records a span: name, start, end and parent.
Spans stay in memory until ``collect`` turns them into additive per-command
totals and clears them; ``layer_metrics`` maps summed totals onto the named
per-layer metrics of the benchmark.
"""

from __future__ import annotations

import gc
import importlib
import sys
import time
import types
from array import array

# Wrapped entry points, layer by layer from the bottom of the stack.  A class
# attribute is written "Class.attr"; aliases such as ``__radd__ = __add__`` or
# ``from .calculus import total_x`` are found by identity and wrapped too.
ENTRY_POINTS = {
    "poly": ("Poly.__add__", "Poly.__sub__", "Poly.__neg__", "Poly.__mul__",
             "Poly.__pow__", "poly_gcd", "div_exact"),
    "expr": ("JetExpr.__add__", "JetExpr.__sub__", "JetExpr.__rsub__",
             "JetExpr.__neg__", "JetExpr.__mul__", "JetExpr.__truediv__",
             "JetExpr.__rtruediv__", "JetExpr.__pow__", "partial",
             "partial_u_total", "substitute", "substitute_map", "specialize_f"),
    "calculus": ("total_x", "total_t", "du_coefficient", "order", "frechet",
                 "frechet_hat", "euler", "formal_x_integrate"),
    "series": ("compose", "commutator", "adjoint", "series_power", "nth_root",
               "dt_series"),
    "analysis": ("symmetry_residual", "conservation_residual",
                 "is_conserved_density", "reconstruct_flux", "is_trivial_density",
                 "symmetry_from_density", "formal_symmetry_residual", "rank_of",
                 "formal_symmetry_scan", "solve_linear_ansatz"),
    "kawahara": ("gke", "catalog", "verify_catalog", "normalize_quadratic_f",
                 "linear_dependence_gate", "verify_theorem", "verify_theorem_1",
                 "verify_theorem_2", "verify_theorem_3"),
    "dsl": ("parse", "parse_series", "print_expr", "print_series"),
    "cli": ("main",),
}
LAYERS = tuple(ENTRY_POINTS)

OUTERMOST = 1      # no enclosing span of the same name
LAYER_ENTRY = 2    # the parent span belongs to another layer, or there is none

COUNTERS = ("poly.peak_terms", "poly.gcd_nonconst", "expr.rational",
            "expr.peak_num_terms", "expr.peak_den_terms", "calculus.dx_repeats",
            "calculus.integrate_residuals", "analysis.scan_steps")
PEAK_COUNTERS = frozenset(c for c in COUNTERS if ".peak_" in c)


class CoverageError(RuntimeError):
    """A wrapped function is still reachable through an unwrapped binding."""


def self_times(parents, starts, ends) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Spans of one thread nest, so the children of a span are disjoint and
    the covered time is the sum of their durations.
    """
    own = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= ends[i] - starts[i]
    return own


class Tracer:
    """Records spans in memory; one instance per worker process."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.flags = array("b")
        self.stack: list[int] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.dx_seen: set = set()
        self._originals: dict[str, types.FunctionType] = {}
        self._wrappers: dict[str, types.FunctionType] = {}
        self._undo: list[tuple[object, str, str]] = []

    # -- spans --------------------------------------------------------------

    def _wrap(self, name: str, layer: int, fn, observe):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        name_ids, parents, starts, ends, flags = (
            self.name_ids, self.parents, self.starts, self.ends, self.flags)
        stack, layer_of, clock = self.stack, self.layer_of, time.perf_counter
        depth = [0]

        def wrapper(*args, **kwargs):
            idx = len(starts)
            if stack:
                parent = stack[-1]
                entry = layer_of[name_ids[parent]] != layer
            else:
                parent, entry = -1, True
            outer = depth[0] == 0
            name_ids.append(nid)
            parents.append(parent)
            flags.append((OUTERMOST if outer else 0) | (LAYER_ENTRY if entry else 0))
            ends.append(0.0)
            stack.append(idx)
            depth[0] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                depth[0] -= 1
                stack.pop()
            if observe is not None:
                observe(args, result, outer, entry)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def collect(self) -> dict:
        """Additive totals of the spans recorded since the last call; clears them."""
        n = len(self.names)
        calls, outer = [0] * n, [0] * n
        incl, entry_s, own = [0.0] * n, [0.0] * n, [0.0] * n
        entries, layer_self = [0] * len(LAYERS), [0.0] * len(LAYERS)
        selfs = self_times(self.parents, self.starts, self.ends)
        for i, nid in enumerate(self.name_ids):
            f = self.flags[i]
            layer = self.layer_of[nid]
            calls[nid] += 1
            own[nid] += selfs[i]
            layer_self[layer] += selfs[i]
            if f & OUTERMOST:
                outer[nid] += 1
                incl[nid] += self.ends[i] - self.starts[i]
            if f & LAYER_ENTRY:
                entries[layer] += 1
                entry_s[nid] += self.ends[i] - self.starts[i]
        totals = {
            "calls": dict(zip(self.names, calls)),
            "outer": dict(zip(self.names, outer)),
            "incl_s": dict(zip(self.names, incl)),
            "entry_s": dict(zip(self.names, entry_s)),
            "self_s": dict(zip(self.names, own)),
            "layer_entries": dict(zip(LAYERS, entries)),
            "layer_self_s": dict(zip(LAYERS, layer_self)),
            "counters": dict(self.counters),
        }
        for arr in (self.name_ids, self.parents, self.starts, self.ends, self.flags):
            del arr[:]
        self.counters.update(dict.fromkeys(COUNTERS, 0))
        self.dx_seen.clear()
        return totals

    # -- observers: counts taken where the work happens -----------------------

    def _observers(self) -> dict:
        c = self.counters
        seen = self.dx_seen

        def poly_result(args, result, outer, entry):
            if result is not None and len(result.terms) > c["poly.peak_terms"]:
                c["poly.peak_terms"] = len(result.terms)

        def gcd_result(args, result, outer, entry):
            poly_result(args, result, outer, entry)
            if outer and not result.is_const():
                c["poly.gcd_nonconst"] += 1

        def expr_result(args, result, outer, entry):
            num, den = len(result.num.terms), len(result.den.terms)
            if num > c["expr.peak_num_terms"]:
                c["expr.peak_num_terms"] = num
            if den > c["expr.peak_den_terms"]:
                c["expr.peak_den_terms"] = den
            if entry and not result.den.is_const():
                c["expr.rational"] += 1

        def dx_argument(args, result, outer, entry):
            if outer:
                if args[0] in seen:
                    c["calculus.dx_repeats"] += 1
                else:
                    seen.add(args[0])

        def integrate_result(args, result, outer, entry):
            if outer and not result[1].is_zero:
                c["calculus.integrate_residuals"] += 1

        def scan_result(args, result, outer, entry):
            c["analysis.scan_steps"] += len(result.steps)

        observers = {q: poly_result for q in ENTRY_POINTS["poly"]}
        observers["poly_gcd"] = gcd_result
        observers.update({q: expr_result for q in ENTRY_POINTS["expr"]})
        observers.update(total_x=dx_argument, formal_x_integrate=integrate_result,
                         formal_symmetry_scan=scan_result)
        return observers

    # -- installing the wrappers ----------------------------------------------

    @staticmethod
    def _namespaces() -> list:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "jetcalc" or name.startswith("jetcalc."))]
        classes = {id(v): v for m in modules for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith("jetcalc")}
        return modules + list(classes.values())

    def install(self) -> None:
        """Wrap every entry point under every name it is bound to."""
        importlib.import_module("jetcalc.cli")
        observers = self._observers()
        by_id = {}
        for layer, quals in enumerate(ENTRY_POINTS.values()):
            module = importlib.import_module(f"jetcalc.{LAYERS[layer]}")
            for qual in quals:
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                fn = vars(owner)[attr]
                name = f"{LAYERS[layer]}.{qual}"
                self._originals[name] = fn
                self._wrappers[name] = self._wrap(name, layer, fn, observers.get(qual))
                by_id[id(fn)] = name
        for owner in self._namespaces():
            for attr, value in list(vars(owner).items()):
                name = by_id.get(id(value))
                if name is not None:
                    setattr(owner, attr, self._wrappers[name])
                    self._undo.append((owner, attr, name))
        missed = self.unwrapped_bindings()
        if missed:
            self.uninstall()
            raise CoverageError("wrapped functions still bound unwrapped: "
                                + "; ".join(missed))

    def uninstall(self) -> None:
        for owner, attr, name in reversed(self._undo):
            setattr(owner, attr, self._originals[name])
        self._undo.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Every live reference to an original outside the tracer's own state."""
        originals = list(self._originals.values())
        names = {id(fn): name for name, fn in self._originals.items()}
        own = {id(self._originals), id(originals)}
        for w in self._wrappers.values():
            own.update(id(cell) for cell in w.__closure__)
        found = []
        for ref in gc.get_referrers(*originals):
            if id(ref) in own or isinstance(ref, types.FrameType):
                continue
            if isinstance(ref, tuple) and len(ref) == len(originals) \
                    and all(a is b for a, b in zip(ref, originals)):
                continue    # the argument tuple of this get_referrers call
            if isinstance(ref, dict):
                where = ref.get("__name__", "a dict")
                found.extend(f"{names[id(v)]} as {k} in {where}"
                             for k, v in ref.items() if id(v) in names)
            else:
                found.extend(f"{names[id(o)]} in a {type(ref).__name__}"
                             for o in gc.get_referents(ref) if id(o) in names)
        return found


def add_totals(into: dict, more: dict) -> dict:
    """Sum two ``collect`` results; peak counters take the maximum."""
    if not into:
        into.update((k, dict(v)) for k, v in more.items())
        return into
    for key, table in more.items():
        for k, v in table.items():
            if k in PEAK_COUNTERS:
                into[key][k] = max(into[key][k], v)
            else:
                into[key][k] += v
    return into


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(t: dict) -> dict[str, tuple[float, str]]:
    """The benchmark's per-layer metrics, (value, unit), from summed totals."""
    calls, outer, incl, own, c = (t["calls"], t["outer"], t["incl_s"],
                                  t["self_s"], t["counters"])
    gcd = outer["poly.poly_gcd"]
    ops = t["layer_entries"]["expr"]
    dx = outer["calculus.total_x"]
    integ = outer["calculus.formal_x_integrate"]
    return {
        "poly.gcd_calls": (gcd, "count"),
        "poly.gcd_s": (incl["poly.poly_gcd"], "s"),
        "poly.gcd_cancel_ratio": (_ratio(c["poly.gcd_nonconst"], gcd), "ratio"),
        "poly.div_exact_calls": (outer["poly.div_exact"], "count"),
        "poly.mul_calls": (outer["poly.Poly.__mul__"], "count"),
        "poly.mul_s": (incl["poly.Poly.__mul__"], "s"),
        "poly.peak_terms": (c["poly.peak_terms"], "terms"),
        "expr.ops_calls": (ops, "count"),
        "expr.self_s": (t["layer_self_s"]["expr"], "s"),
        "expr.rational_ratio": (_ratio(c["expr.rational"], ops), "ratio"),
        "expr.peak_num_terms": (c["expr.peak_num_terms"], "terms"),
        "expr.peak_den_terms": (c["expr.peak_den_terms"], "terms"),
        "calculus.dx_calls": (dx, "count"),
        "calculus.dx_s": (incl["calculus.total_x"], "s"),
        "calculus.dx_repeat_ratio": (_ratio(c["calculus.dx_repeats"], dx), "ratio"),
        "calculus.dt_calls": (outer["calculus.total_t"], "count"),
        "calculus.euler_calls": (outer["calculus.euler"], "count"),
        "calculus.euler_s": (incl["calculus.euler"], "s"),
        "calculus.integrate_calls": (integ, "count"),
        "calculus.integrate_s": (incl["calculus.formal_x_integrate"], "s"),
        "calculus.integrate_residual_ratio": (
            _ratio(c["calculus.integrate_residuals"], integ), "ratio"),
        "series.compose_calls": (calls["series.compose"], "count"),
        "series.compose_self_s": (own["series.compose"], "s"),
        "series.adjoint_calls": (calls["series.adjoint"], "count"),
        "series.nth_root_s": (incl["series.nth_root"], "s"),
        "analysis.scan_runs": (calls["analysis.formal_symmetry_scan"], "count"),
        "analysis.scan_steps": (c["analysis.scan_steps"], "count"),
        "analysis.scan_s": (incl["analysis.formal_symmetry_scan"], "s"),
        "analysis.ansatz_s": (incl["analysis.solve_linear_ansatz"], "s"),
        "analysis.density_checks": (calls["analysis.is_conserved_density"], "count"),
        "kawahara.theorem1_s": (incl["kawahara.verify_theorem_1"], "s"),
        "kawahara.theorem2_s": (incl["kawahara.verify_theorem_2"], "s"),
        "kawahara.theorem3_s": (incl["kawahara.verify_theorem_3"], "s"),
        "dsl.parse_s": (t["entry_s"]["dsl.parse"] + t["entry_s"]["dsl.parse_series"], "s"),
        "dsl.print_s": (t["entry_s"]["dsl.print_expr"] + t["entry_s"]["dsl.print_series"], "s"),
        "cli.self_s": (own["cli.main"], "s"),
    }
