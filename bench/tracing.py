"""Per-layer tracing of rmcodes from outside the library.

install() replaces every module binding of each public rmcodes function
(codes, subspaces and verify import rank/rref by name, so the defining
module alone is not enough) and a fixed set of hot methods on their
classes.  Calls are not stored one span each: they are aggregated per
(phase, parent function, function) as calls, inclusive time, self time and
items yielded, which keeps the F_16 stabilizer's ~10^6 wrapped calls cheap.
Self time is a call's duration minus the time of wrapped calls nested in it.
uninstall() restores every binding.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

LAYERS = ("fields", "matrices", "expansion", "codes", "subspaces",
          "equivalence", "automorphisms", "verify", "cli")

METHODS = {
    ("fields", "FieldTower"): ("fq_rank",),
    ("matrices", "Mat"): ("__matmul__",),
    ("codes", "MatrixCode"): ("contains", "codewords"),
    ("codes", "RankMetricCode"): ("contains_codes", "codeword_codes"),
    ("subspaces", "Subspace"): ("__init__",),
    ("equivalence", "MatMap"): ("apply_mat",),
    ("equivalence", "RmMap"): ("apply_codes",),
}

CONTAINS = ("codes.MatrixCode.contains", "codes.RankMetricCode.contains_codes")

# (name, unit, better); the order is the order of BENCHMARK.json's per_layer
PER_LAYER = [
    ("fields.make_tower.calls", "count", "lower"),
    ("fields.make_tower.s", "s", "lower"),
    ("fields.fq_rank.calls", "count", "lower"),
    ("fields.self_s", "s", "lower"),
    ("matrices.rref.calls", "count", "lower"),
    ("matrices.rank.calls", "count", "lower"),
    ("matrices.inverse.calls", "count", "lower"),
    ("matrices.row_decompose.calls", "count", "lower"),
    ("matrices.matmul.calls", "count", "lower"),
    ("matrices.enumerate_gl.items", "count", "lower"),
    ("matrices.self_s", "s", "lower"),
    ("expansion.expand.calls", "count", "lower"),
    ("expansion.compress.calls", "count", "lower"),
    ("expansion.coords.calls", "count", "lower"),
    ("expansion.self_s", "s", "lower"),
    ("codes.contains.calls", "count", "lower"),
    ("codes.contains.hit_ratio", "ratio", "higher"),
    ("codes.codewords.items", "count", "lower"),
    ("codes.min_rank_distance.calls", "count", "lower"),
    ("codes.self_s", "s", "lower"),
    ("subspaces.canonicalise.calls", "count", "lower"),
    ("subspaces.subspace_distance.calls", "count", "lower"),
    ("subspaces.self_s", "s", "lower"),
    ("equivalence.maps_enumerated", "count", "lower"),
    ("equivalence.maps_checked", "count", "lower"),
    ("equivalence.apply.calls", "count", "lower"),
    ("equivalence.self_s", "s", "lower"),
    ("automorphisms.brute.maps_scanned", "count", "lower"),
    ("automorphisms.brute.hit_ratio", "ratio", "higher"),
    ("automorphisms.analytic.calls", "count", "lower"),
    ("automorphisms.self_s", "s", "lower"),
    ("verify.run_example.s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.stats: dict[tuple, list] = {}  # (phase, parent, fn) -> [calls, incl, self, items]
        self.counters: dict[str, float] = {}
        self.import_s: list[float] = []     # fresh-interpreter imports of rmcodes.cli
        self._stack = [["harness", 0.0]]
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _record(self, name, dt, child, items):
        parent = self._stack[-1]
        parent[1] += dt
        key = (self.phase, parent[0], name)
        rec = self.stats.get(key)
        if rec is None:
            rec = self.stats[key] = [0, 0.0, 0.0, 0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - child
        rec[3] += items

    def _count(self, name, n):
        self.counters[name] = self.counters.get(name, 0) + n

    def _wrap(self, name, fn, post=None):
        stack, record, perf = self._stack, self._record, time.perf_counter
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return self._iterate(name, fn(*args, **kwargs))
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                record(name, dt, frame[1], 0)
            if post is not None:
                post(fn, args, kwargs, result)
            return result
        return wrapper

    def _iterate(self, name, it):
        """Each resumption of a wrapped generator is one call; items are counted."""
        stack, record, perf = self._stack, self._record, time.perf_counter
        while True:
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf()
            done = False
            try:
                item = next(it)
            except StopIteration:
                done = True
            finally:
                dt = perf() - t0
                stack.pop()
                record(name, dt, frame[1], 0 if done else 1)
            if done:
                return
            yield item

    # -- result-derived counts -------------------------------------------------

    def _contains_hit(self, fn, args, kwargs, result):
        self._count("codes.contains.hits", bool(result))

    def _equiv_checked(self, fn, args, kwargs, result):
        self._count("equivalence.maps_checked", result.checked)

    def _brute_scanned(self, fn, args, kwargs, result):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        kind = "rm" if "c" in a else "mat"
        code = a["c"] if kind == "rm" else a["mc"]
        mode = f"{kind}-{'semilinear' if a['semilinear'] else 'linear'}"
        m = code.m if kind == "mat" else None
        self._count("automorphisms.brute.maps_scanned",
                    self._group_order(code.tower, code.l, mode, m=m))
        self._count("automorphisms.brute.elements", result.order)

    # -- installation --------------------------------------------------------

    def install(self, phase):
        self.phase = phase
        mods = {name: mod for name, mod in list(sys.modules.items())
                if name == "rmcodes" or name.startswith("rmcodes.")}
        self._group_order = mods["rmcodes.equivalence"].group_order
        posts = {"equivalence.are_equivalent": self._equiv_checked,
                 "automorphisms.rm_aut_brute": self._brute_scanned,
                 "automorphisms.mat_aut_brute": self._brute_scanned}
        posts.update(dict.fromkeys(CONTAINS, self._contains_hit))
        wrappers = {}
        for layer in LAYERS:
            mod = mods.get(f"rmcodes.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self._wrap(name, obj, posts.get(name))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(mods[f"rmcodes.{layer}"], cls_name)
            for meth in methods:
                name = f"{layer}.{cls_name}.{meth}"
                self._patch(cls, meth, self._wrap(name, cls.__dict__[meth], posts.get(name)))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def layer_metrics(self, overhead_s: float) -> dict[str, tuple[float, str]]:
        per_fn: dict[str, list] = {}
        for (_, _, fn), rec in self.stats.items():
            acc = per_fn.setdefault(fn, [0, 0.0, 0.0, 0])
            for i, v in enumerate(rec):
                acc[i] += v

        def total(index, *names):
            return sum(per_fn[n][index] for n in names if n in per_fn)

        def calls(*names):
            return total(0, *names)

        def items(*names):
            return total(3, *names)

        def self_s(layer):
            return sum(rec[2] for fn, rec in per_fn.items() if fn.startswith(layer + "."))

        def ratio(num, den):
            return num / den if den else 0.0

        contains = calls(*CONTAINS)
        scanned = self.counters.get("automorphisms.brute.maps_scanned", 0)
        values = {
            "fields.make_tower.calls": calls("fields.make_tower"),
            "fields.make_tower.s": total(1, "fields.make_tower"),
            "fields.fq_rank.calls": calls("fields.FieldTower.fq_rank"),
            "matrices.rref.calls": calls("matrices.rref"),
            "matrices.rank.calls": calls("matrices.rank"),
            "matrices.inverse.calls": calls("matrices.inverse"),
            "matrices.row_decompose.calls": calls("matrices.row_decompose"),
            "matrices.matmul.calls": calls("matrices.Mat.__matmul__"),
            "matrices.enumerate_gl.items": items("matrices.enumerate_gl"),
            "expansion.expand.calls": calls("expansion.expand"),
            "expansion.compress.calls": calls("expansion.compress"),
            "expansion.coords.calls": calls("expansion.coords"),
            "codes.contains.calls": contains,
            "codes.contains.hit_ratio": ratio(self.counters.get("codes.contains.hits", 0),
                                              contains),
            "codes.codewords.items": items("codes.MatrixCode.codewords",
                                           "codes.RankMetricCode.codeword_codes"),
            "codes.min_rank_distance.calls": calls("codes.min_rank_distance"),
            "subspaces.canonicalise.calls": calls("subspaces.Subspace.__init__"),
            "subspaces.subspace_distance.calls": calls("subspaces.subspace_distance"),
            "equivalence.maps_enumerated": items("equivalence.enumerate_rm_maps",
                                                 "equivalence.enumerate_mat_maps"),
            "equivalence.maps_checked": self.counters.get("equivalence.maps_checked", 0),
            "equivalence.apply.calls": calls("equivalence.MatMap.apply_mat",
                                             "equivalence.RmMap.apply_codes"),
            "automorphisms.brute.maps_scanned": scanned,
            "automorphisms.brute.hit_ratio": ratio(
                self.counters.get("automorphisms.brute.elements", 0), scanned),
            "automorphisms.analytic.calls": calls("automorphisms.rm_aut_group"),
            "verify.run_example.s": total(1, "verify.run_example"),
            "cli.import_s": statistics.median(self.import_s) if self.import_s else 0.0,
            "cli.main.self_s": total(2, "cli.main"),
            "trace.overhead_s": overhead_s,
        }
        for layer in LAYERS:
            values[f"{layer}.self_s"] = self_s(layer)
        return {name: (values[name], unit) for name, unit, _ in PER_LAYER}

    def top_rows(self, n=15) -> list[str]:
        rows = sorted(self.stats.items(), key=lambda kv: -kv[1][2])[:n]
        return [f"  {phase:5} {parent:36} -> {fn:36} calls={rec[0]:<8} "
                f"self={rec[2]:.3f}s incl={rec[1]:.3f}s items={rec[3]}"
                for (phase, parent, fn), rec in rows]
