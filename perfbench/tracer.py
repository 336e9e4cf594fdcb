"""Outside-in tracing of the autbound layers.

The tracer changes no file of the program.  It replaces layer functions
with wrappers and rebinds every module-level name that referred to the
original, so that calls made through `from .matrix import mat_mul_mod`
style imports are seen as well.  Functions that run millions of times get
a call counter only; the rest record a span (name, layer, parent span,
start, end) kept in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cyclo", "matrix", "groups", "poly", "lattice", "molien", "bounds", "catalog")

# Hot functions: counted, never spanned.
COUNTED = {
    ("cyclo", "Cyc.__mul__"): "cyclo.mul_calls",
    ("cyclo", "Cyc.__rmul__"): "cyclo.mul_calls",
    ("cyclo", "Cyc.inverse"): "cyclo.inverse_calls",
    ("cyclo", "reduce_mod"): "cyclo.reduce_calls",
    ("matrix", "mat_mul_mod"): "matrix.mul_mod_calls",
    ("matrix", "mat_inv_mod"): "matrix.inv_mod_calls",
    ("matrix", "mat_vec_mod"): "matrix.vec_mod_calls",
    ("matrix", "CycloMatrix.__matmul__"): "matrix.matmul_calls",
}

# Layers whose public functions get spans, and the names left out: xi is
# called once per block of every partition of the high-dimension sweep.
SPANNED_LAYERS = ("groups", "poly", "lattice", "molien", "bounds", "catalog")
NOT_SPANNED = {("bounds", "xi")}

# Spans beyond the public module functions: the characteristic polynomial
# behind every Molien summand, and the stabilizer-chain engine that verify
# calls directly for the budget-degraded order check.
EXTRA_SPANS = {
    ("matrix", "CycloMatrix.charpoly"),
    ("groups", "_bsgs_chain"),
    ("groups", "_scalar_order_bsgs"),
}

# Work read off a span's return value.
WORK = {
    "groups.closure_order": lambda s: s.order * (len(s.primes) or 1),
    "molien.molien_prefix": lambda p: p.group_order,
    "bounds.verify_no_exceptional": lambda r: r.partitions_checked,
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj) or inspect.isgeneratorfunction(obj) or not callable(obj):
            continue
        yield name, obj


class Tracer:
    def __init__(self):
        # span: [name, layer, parent index or -1, start, end, work]
        self.spans: list[list] = []
        self.counts: dict[str, list[int]] = {key: [0] for key in set(COUNTED.values())}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------

    def _counter(self, key, fn):
        cell = self.counts[key]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, layer, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work = WORK.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            rec = [name, layer, stack[-1] if stack else -1, clock(), 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                if work is not None:
                    rec[5] = work(out)
                return out
            finally:
                stack.pop()
                rec[4] = clock()

        return spanned

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "autbound" or k.startswith("autbound.")]
        wrappers: dict[int, object] = {}
        for layer, owner, attr, orig in _targets():
            qual = attr if inspect.ismodule(owner) else f"{owner.__name__}.{attr}"
            key = COUNTED.get((layer, qual))
            if id(orig) not in wrappers:
                wrappers[id(orig)] = (self._counter(key, orig) if key
                                      else self._span(layer, f"{layer}.{qual}", orig))
            wrapper = wrappers[id(orig)]
            if inspect.ismodule(owner):
                # rebind the name wherever it was imported
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is orig:
                            self._patch(module, name, orig, wrapper)
            else:
                self._patch(owner, attr, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def snapshot(self) -> tuple[int, dict[str, int]]:
        """A mark between phases: span count and call counts so far."""
        return len(self.spans), {k: c[0] for k, c in self.counts.items()}


def _targets():
    """(layer, owner, attribute, original) for every wrapped callable."""
    for layer in LAYERS:
        module = sys.modules[f"autbound.{layer}"]
        for lay, qual in [*COUNTED, *EXTRA_SPANS]:
            if lay == layer:
                yield (layer, *_resolve(module, qual))
        if layer in SPANNED_LAYERS:
            for name, obj in _public_functions(module):
                if (layer, name) not in NOT_SPANNED:
                    yield layer, module, name, obj


def _resolve(module, qual: str):
    """(owner, attribute, original) for "name" or "Class.method"."""
    owner = module
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


# -- per-layer metrics ---------------------------------------------------

UNITS = {
    "cyclo.mul_calls": "count",
    "cyclo.inverse_calls": "count",
    "cyclo.reduce_calls": "count",
    "matrix.self_s": "s",
    "matrix.mul_mod_calls": "count",
    "matrix.inv_mod_calls": "count",
    "matrix.vec_mod_calls": "count",
    "matrix.matmul_calls": "count",
    "matrix.charpoly_calls": "count",
    "matrix.charpoly_s": "s",
    "groups.self_s": "s",
    "groups.closure_s": "s",
    "groups.closure_elements": "count",
    "groups.closure_elements_per_s": "1/s",
    "groups.closure_bytes_per_element": "B",
    "groups.bsgs_s": "s",
    "groups.bsgs_calls": "count",
    "groups.exact_elements_s": "s",
    "groups.derived_s": "s",
    "molien.self_s": "s",
    "molien.prefix_s": "s",
    "molien.reynolds_s": "s",
    "molien.elements_summed": "count",
    "poly.self_s": "s",
    "poly.act_calls": "count",
    "poly.invariance_s": "s",
    "lattice.self_s": "s",
    "lattice.snf_calls": "count",
    "bounds.self_s": "s",
    "bounds.partitions_checked": "count",
    "bounds.partitions_per_s": "1/s",
    "catalog.self_s": "s",
    "catalog.load_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[list], ranges, counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics over the spans in the given index ranges.

    Each range is one top-level phase (set-up or one pass), so a span's
    parent always lies in the same range as the span.  Call counts are
    passed in already summed over the same phases.
    """
    sel = [i for start, end in ranges for i in range(start, end)]
    dur = {i: spans[i][4] - spans[i][3] for i in sel}
    child = dict.fromkeys(sel, 0.0)
    for i in sel:
        if spans[i][2] >= 0:
            child[spans[i][2]] += dur[i]

    def inclusive(pred) -> tuple[float, int]:
        """Time and work of the matching spans with no matching ancestor."""
        inside: dict[int, bool] = {}
        total, work = 0.0, 0
        for i in sel:
            p = spans[i][2]
            inside[i] = p >= 0 and (inside[p] or pred(spans[p]))
            if pred(spans[i]) and not inside[i]:
                total += dur[i]
                work += spans[i][5]
        return total, work

    def named(*names):
        full = set(names)
        return lambda s: s[0] in full

    def calls(name) -> int:
        return sum(1 for i in sel if spans[i][0] == name)

    out: dict[str, float] = {}
    for layer in LAYERS:
        if layer != "cyclo":  # counters only
            out[f"{layer}.self_s"] = sum((dur[i] - child[i] for i in sel if spans[i][1] == layer), 0.0)
    out.update(counts)
    out["matrix.charpoly_calls"] = calls("matrix.CycloMatrix.charpoly")
    out["matrix.charpoly_s"] = inclusive(named("matrix.CycloMatrix.charpoly"))[0]
    closure_s, elements = inclusive(named("groups.closure_order"))
    out["groups.closure_s"] = closure_s
    out["groups.closure_elements"] = elements
    out["groups.closure_elements_per_s"] = elements / closure_s if closure_s else 0.0
    out["groups.bsgs_s"] = inclusive(named("groups.schreier_sims_order", "groups._bsgs_chain",
                                           "groups._scalar_order_bsgs"))[0]
    out["groups.bsgs_calls"] = calls("groups._bsgs_chain")
    out["groups.exact_elements_s"] = inclusive(named("groups.exact_elements"))[0]
    out["groups.derived_s"] = inclusive(named("groups.derived_subgroup"))[0]
    out["molien.prefix_s"], out["molien.elements_summed"] = inclusive(named("molien.molien_prefix"))
    out["molien.reynolds_s"] = inclusive(named("molien.reynolds_basis"))[0]
    out["poly.act_calls"] = calls("poly.act_by_inverse_of")
    out["poly.invariance_s"] = inclusive(named("poly.is_invariant", "poly.semi_invariant_character"))[0]
    out["lattice.snf_calls"] = calls("lattice.smith_normal_form")
    sweep_s, checked = inclusive(named("bounds.verify_no_exceptional"))
    out["bounds.partitions_checked"] = checked
    out["bounds.partitions_per_s"] = checked / sweep_s if sweep_s else 0.0
    out["catalog.load_s"] = inclusive(lambda s: s[1] == "catalog")[0]
    return out
