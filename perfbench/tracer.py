"""
Traced mode of the benchmark: spans around the public calls of each bsbimod
layer, and plain counts on the hot constructors.  Only the traced worker
imports this module; untimed runs carry no wrapper at all.

A wrapper is installed on every module attribute that refers to the wrapped
function, not only in the defining module: `orderalg` calls `con_component`
through its own `from .subexpr import ...` binding, and that call would
escape a wrapper set on `subexpr` alone.

Each span records (span id, parent span id, name, instance index, start,
end).  Spans are kept in memory and written out by `Tracer.dump` when the
run ends, as a little-endian float64 array of six values per span, next to
a JSON file holding the span names.  A layer's self time is its spans'
total duration minus the time covered by their child spans.
"""

import array
import functools
import json
import sys
from time import perf_counter

from bsbimod import coxeter, polyring, subexpr

SPANNED = {
    "subexpr": ("enumerate_sub", "graph", "con_component", "frozen_set"),
    "orderalg": ("algorithm1", "algorithm2", "closeness",
                 "residual_constraints"),
    "locmod": ("basis", "express_in_basis", "mu", "inner", "membership",
               "sigma"),
    "polyring": ("divisible_by_power", "exact_div"),
    "strmod": ("buchberger", "reduce_elem", "syzygies", "free_resolution"),
    "dseq": ("dichotomy_report", "structure_checks"),
}

# (class, method, counter name): counted on every call, no span
COUNTED = (
    (subexpr.Subexpr, "__post_init__", "subexpr.Subexpr.built"),
    (subexpr.Subexpr, "fold", "subexpr.Subexpr.fold.calls"),
    (coxeter.Permutation, "__mul__", "coxeter.Permutation.mul.calls"),
    (polyring.Polynomial, "__init__", "polyring.Polynomial.built"),
)


class Tracer:
    def __init__(self):
        self.enabled = False
        self.instance = -1
        self.names = []
        self.calls = []
        self.self_s = []
        self.counts = {}
        self.stack = []            # open spans: [span id, child time]
        self.next_id = 0
        self.spans = array.array("d")

    def install(self, modules):
        """Wrap every function of SPANNED wherever `modules` bind it, and
        count the COUNTED methods."""
        for mod_name, funcs in SPANNED.items():
            home = sys.modules[f"bsbimod.{mod_name}"]
            for fn_name in funcs:
                orig = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
        for cls, meth, counter in COUNTED:
            setattr(cls, meth, self._count(counter, getattr(cls, meth)))
        for key in ("subexpr.enumerate_sub.members", "subexpr.graph.vertices",
                    "orderalg.closeness.certs", "orderalg.families",
                    "orderalg.families_peak", "locmod.membership.rejects",
                    "polyring.exact_div.not_divisible"):
            self.counts[key] = 0

    def _count(self, counter, orig):
        self.counts[counter] = 0

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            if self.enabled:
                self.counts[counter] += 1
            return orig(*args, **kwargs)
        return counted

    def _wrap(self, name, orig):
        k = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        after = _AFTER.get(name)
        counts = self.counts

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if not self.enabled:
                return orig(*args, **kwargs)
            span = self.next_id
            self.next_id += 1
            parent = self.stack[-1][0] if self.stack else -1
            frame = [span, 0.0]
            self.stack.append(frame)
            start = perf_counter()
            try:
                out = orig(*args, **kwargs)
            except polyring.NotDivisible:
                if name == "polyring.exact_div":
                    counts["polyring.exact_div.not_divisible"] += 1
                raise
            finally:
                end = perf_counter()
                self.stack.pop()
                dur = end - start
                self.calls[k] += 1
                self.self_s[k] += dur - frame[1]
                if self.stack:
                    self.stack[-1][1] += dur
                self.spans.extend((span, parent, k, self.instance, start, end))
            if after is not None:
                after(counts, out)
            return out
        return traced

    def metrics(self) -> dict:
        """Per-layer metrics named <module>.<function>.<stat>."""
        out = {}
        for name, calls, self_s in zip(self.names, self.calls, self.self_s):
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out.update(self.counts)
        calls = out["orderalg.closeness.calls"]
        out["orderalg.closeness.hit_ratio"] = (
            out["orderalg.closeness.certs"] / calls if calls else 0.0)
        return out

    def dump(self, stem: str):
        with open(stem + ".spans.f64", "wb") as fh:
            self.spans.tofile(fh)
        with open(stem + ".spans.json", "w") as fh:
            json.dump({"fields": ["span", "parent", "name", "instance",
                                  "start", "end"],
                       "names": self.names, "count": len(self.spans) // 6},
                      fh)


def _families(counts, res):
    sizes = [len(level) for level in res.trace]
    counts["orderalg.families"] += sum(sizes)
    counts["orderalg.families_peak"] = max(counts["orderalg.families_peak"],
                                           max(sizes))


def _add(key, fn):
    def after(counts, out):
        counts[key] += fn(out)
    return after


_AFTER = {
    "subexpr.enumerate_sub": _add("subexpr.enumerate_sub.members", len),
    "subexpr.graph": _add("subexpr.graph.vertices",
                          lambda g: len(g.vertices)),
    "orderalg.closeness": _add("orderalg.closeness.certs",
                               lambda cert: cert is not None),
    "orderalg.algorithm1": _families,
    "orderalg.algorithm2": _families,
    "locmod.membership": _add("locmod.membership.rejects",
                              lambda res: not res[0]),
}
