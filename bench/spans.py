"""Per-layer spans and counters for the traced run.

Each entry point below is wrapped where it is defined and wherever a
resforge module holds a copy of it (``from .x import y`` bindings such as
``resforge.extension.quotient_struct``), and methods are wrapped on their
class.  A wrapper opens a span; a layer's self time is the time of its
spans minus the time of the spans nested in them.  Spans are aggregated
as they close, because the hot layers open millions of them.
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc

LAYERS = ("padic", "rings", "fields", "musets", "modules", "torsor",
          "lattices", "extension", "symbols")

# (layer, defining module, function or Class.method)
ENTRY_POINTS = (
    ("padic", "padic", "KElem.__mul__"),
    ("padic", "padic", "KElem.__pow__"),
    ("padic", "padic", "KElem.inverse"),
    ("padic", "padic", "KElem.reduce_mod_pi"),
    ("rings", "rings", "RingCtx.mul"),
    ("rings", "rings", "RingCtx.pow"),
    ("rings", "rings", "RingCtx.inv"),
    ("fields", "fields", "power_residue_char"),
    ("fields", "fields", "mu_dlog"),
    ("fields", "fields", "field_det"),
    ("fields", "fields", "FieldCtx.mul"),
    ("fields", "fields", "FieldCtx.pow"),
    ("fields", "fields", "FieldCtx.inv"),
    ("musets", "musets", "OrbitView.__init__"),
    ("musets", "musets", "OrbitView.as_aut"),
    ("musets", "musets", "iso_scalar"),
    ("musets", "musets", "aut_delta"),
    ("modules", "modules", "FiniteModule.view"),
    ("modules", "modules", "ModuleHom.apply"),
    ("modules", "modules", "scalar_hom"),
    ("modules", "modules", "module_aut_as_musetaut"),
    ("torsor", "torsor", "_exact_seq_exp"),
    ("torsor", "torsor", "det_of_module_aut"),
    ("lattices", "lattices", "quotient_struct"),
    ("lattices", "lattices", "lat_intersect"),
    ("lattices", "lattices", "lat_apply"),
    ("lattices", "lattices", "lat_contains_lattice"),
    ("lattices", "lattices", "induced_hom"),
    ("lattices", "lattices", "rel_dim"),
    ("lattices", "lattices", "smith_normal_form"),
    ("lattices", "lattices", "KMat.__matmul__"),
    ("lattices", "lattices", "KMat.inverse"),
    ("lattices", "lattices", "KMat.canonical_hnf"),
    ("extension", "extension", "cocycle_exp"),
    ("extension", "extension", "rho_exp"),
    ("extension", "extension", "kappa_exp"),
    ("extension", "extension", "comm_symbol"),
    ("extension", "extension", "corrected_symbol"),
    ("symbols", "symbols", "tame_symbol"),
    ("symbols", "symbols", "power_residue_symbol"),
    ("symbols", "symbols", "delta_route_symbol"),
    ("symbols", "symbols", "crosscheck"),
)

# per-layer metrics: name -> unit, in report order
LAYER_METRICS = {}
for _layer in LAYERS:
    LAYER_METRICS[f"{_layer}.calls"] = "count"
    LAYER_METRICS[f"{_layer}.self_s"] = "s"
LAYER_METRICS.update({
    "musets.view_builds": "count",
    "musets.view_elements": "count",
    "modules.view_hit_ratio": "ratio",
    "modules.hom_apply_calls": "count",
    "torsor.exact_seq_elements": "count",
    "lattices.quotient_calls": "count",
    "extension.rho_memo_hit_ratio": "ratio",
    "extension.kappa_memo_hit_ratio": "ratio",
    "extension.enum_bound_raised": "count",
})
for _layer in LAYERS:
    LAYER_METRICS[f"{_layer}.retained_kb"] = "kB"
LAYER_METRICS["trace_overhead_ratio"] = "ratio"

# everything above except times and retained memory repeats exactly
COUNT_METRICS = tuple(k for k, u in LAYER_METRICS.items()
                      if u in ("count", "ratio") and k != "trace_overhead_ratio")


def _ratio(hits: int, total: int) -> float:
    return hits / total if total else 0.0


class Tracer:
    """Wraps the entry points of every layer and aggregates their spans."""

    def __init__(self, rf):
        self.rf = rf
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.entry_calls: dict[str, int] = {}
        self.counts = {"view_elements": 0, "view_hits": 0, "exact_seq_elements": 0,
                       "m1_cocycles": 0, "rho_hits": 0, "kappa_hits": 0,
                       "enum_bound_raised": 0}
        self._stack: list[list] = []   # open spans: [nested ns, layer]
        self._undo: list[tuple] = []

    # installation -----------------------------------------------------------

    def install(self):
        mods = [m for k, m in sys.modules.items()
                if m is not None and (k == "resforge" or k.startswith("resforge."))]
        for layer, modname, qual in ENTRY_POINTS:
            mod = sys.modules[f"resforge.{modname}"]
            self.entry_calls.setdefault(qual, 0)
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(layer, qual, orig))
                continue
            orig = getattr(mod, qual)
            wrapper = self._wrap(layer, qual, orig)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, attr, wrapper)

    def uninstall(self):
        while self._undo:
            obj, attr, val = self._undo.pop()
            setattr(obj, attr, val)

    def _set(self, obj, attr, val):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, val)

    # spans ------------------------------------------------------------------

    def _hooks(self, qual):
        """(before(args) -> state, after(args, result, state)) for counters."""
        c, ec = self.counts, self.entry_calls
        if qual == "OrbitView.__init__":
            def after(args, _res, _st):
                view = args[0]
                c["view_elements"] += view.n * view.t
            return None, after
        if qual == "FiniteModule.view":
            def before(_args):
                return ec["OrbitView.__init__"]

            def after(_args, _res, builds):
                if ec["OrbitView.__init__"] == builds:
                    c["view_hits"] += 1
            return before, after
        if qual == "_exact_seq_exp":
            def after(args, _res, _st):
                c["exact_seq_elements"] += args[1].size
            return None, after
        if qual == "cocycle_exp":
            def before(args):
                if args[0].nrows != 1:
                    return None
                c["m1_cocycles"] += 1
                return ec["rho_exp"], ec["kappa_exp"]

            def after(_args, _res, st):
                if st is not None:
                    c["rho_hits"] += ec["rho_exp"] == st[0]
                    c["kappa_hits"] += ec["kappa_exp"] == st[1]
            return before, after
        return None, None

    def _wrap(self, layer, qual, fn):
        stack, calls, self_ns, entry_calls = self._stack, self.calls, self.self_ns, self.entry_calls
        clock = time.perf_counter_ns
        before, after = self._hooks(qual)
        enum_bound = self.rf.EnumerationBound
        counts = self.counts

        def wrapper(*args, **kwargs):
            entry_calls[qual] += 1
            state = before(args) if before else None
            span = [0, layer]
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except enum_bound:
                if layer == "extension" and all(s[1] != "extension" for s in stack[:-1]):
                    counts["enum_bound_raised"] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                self_ns[layer] += dt - span[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += dt
            if after:
                after(args, result, state)
            return result

        return wrapper

    # results ----------------------------------------------------------------

    def metrics(self) -> dict:
        """Counts and self times of every layer, plus the layer counters."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_ns[layer] / 1e9
        c, ec = self.counts, self.entry_calls
        out.update({
            "musets.view_builds": ec["OrbitView.__init__"],
            "musets.view_elements": c["view_elements"],
            "modules.view_hit_ratio": _ratio(c["view_hits"], ec["FiniteModule.view"]),
            "modules.hom_apply_calls": ec["ModuleHom.apply"],
            "torsor.exact_seq_elements": c["exact_seq_elements"],
            "lattices.quotient_calls": ec["quotient_struct"],
            "extension.rho_memo_hit_ratio": _ratio(c["rho_hits"], c["m1_cocycles"]),
            "extension.kappa_memo_hit_ratio": _ratio(c["kappa_hits"], c["m1_cocycles"]),
            "extension.enum_bound_raised": c["enum_bound_raised"],
        })
        return out


def retained_kb(snapshot: tracemalloc.Snapshot, package_dir: str) -> dict:
    """tracemalloc bytes still live, grouped by the resforge module that allocated them."""
    kb = dict.fromkeys(LAYERS, 0.0)
    for stat in snapshot.statistics("filename"):
        path = stat.traceback[0].filename
        if os.path.dirname(os.path.abspath(path)) != package_dir:
            continue
        layer = os.path.splitext(os.path.basename(path))[0]
        if layer in kb:
            kb[layer] += stat.size / 1024
    return {f"{layer}.retained_kb": kb[layer] for layer in LAYERS}
