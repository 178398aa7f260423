"""Spans around calls into quiverrep's public functions, kept in memory.

`Tracer.install` replaces each listed function, in every quiverrep module
that holds a reference to it, with a wrapper that records a span:
``[name, field, start, end, parent, op, extra]``.  ``field`` is "Q" or "Fp"
when an argument carries a field, ``parent`` indexes the enclosing span,
``op`` is the workload operation the span belongs to (None during set-up),
and ``extra`` holds the functor input key or whether an lru_cache missed.
The program itself is not changed; spans of a traced CLI child are merged
into the parent's list with the child's operation id.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time

LAYERS = {
    "formats": ("parse_quiver_file", "parse_rep_file", "rep_file_text", "report_json"),
    "quiver": ("classify",),
    "roots": ("positive_roots",),
    "indec": ("all_indecomposables", "construct_indecomposable", "reflect_at_source", "reflect_at_sink"),
    "rep": ("commutation_map", "hom_ext_dims", "hom_space", "ext1_space"),
    # kernel_basis, cokernel_basis, solve and column_space_pivots all reach rref.
    "linalg": ("rank", "rref"),
    "deform": ("udr_report", "lifts_isomorphic"),
}
FUNCTORS = ("indec.reflect_at_source", "indec.reflect_at_sink")
INDEC_TOP = ("indec.all_indecomposables", "indec.construct_indecomposable")


def _field_tag(args):
    for a in args:
        f = a if hasattr(a, "is_rational") else getattr(a, "field", None)
        if f is None and hasattr(a, "base"):
            f = a.base.field
        if f is not None:
            return "Q" if f.is_rational else "Fp"
    return None


def _functor_key(args) -> str:
    Q, i, M = args[0], args[1], args[2]
    arrows = ",".join(f"{a.source}>{a.target}" for a in Q.arrows)
    return f"{arrows}|{i}|{','.join(map(str, M.dims))}"


def program_modules():
    return [m for name, m in sys.modules.items() if name == "quiverrep" or name.startswith("quiverrep.")]


def clear_program_caches() -> None:
    """Empty every lru_cache in quiverrep so the next call runs cold."""
    for mod in program_modules():
        for value in list(vars(mod).values()):
            target = getattr(value, "_traced_original", value)
            if callable(getattr(target, "cache_clear", None)):
                target.cache_clear()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        modules = program_modules()
        for layer, names in LAYERS.items():
            mod = importlib.import_module(f"quiverrep.{layer}")
            for fn_name in names:
                original = getattr(mod, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for m in modules:
                    for attr in [a for a, v in vars(m).items() if v is original]:
                        setattr(m, attr, wrapper)
                        self._saved.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._saved):
            setattr(m, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        cache_info = getattr(fn, "cache_info", None)
        is_functor = name in FUNCTORS

        def wrapper(*args, **kwargs):
            extra = _functor_key(args) if is_functor else None
            misses = cache_info().misses if cache_info else 0
            rec = [name, _field_tag(args), 0.0, 0.0, stack[-1] if stack else None, self.op, extra]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
                if cache_info:
                    rec[6] = "cold" if cache_info().misses > misses else "warm"

        wrapper._traced_original = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def merge(self, child_spans: list, op) -> None:
        """Append spans recorded in a child process, under operation `op`."""
        offset = len(self.spans)
        for name, fld, start, end, parent, _, extra in child_spans:
            self.spans.append([name, fld, start, end, None if parent is None else parent + offset, op, extra])


# (metric, span name, split by field)
TIMERS = [
    ("formats.parse_quiver_s", "formats.parse_quiver_file", False),
    ("formats.parse_rep_s", "formats.parse_rep_file", False),
    ("formats.render_rep_s", "formats.rep_file_text", False),
    ("formats.report_json_s", "formats.report_json", False),
    ("indec.catalog_s", "indec.all_indecomposables", True),
    ("indec.construct_s", "indec.construct_indecomposable", True),
    ("rep.commutation_map_s", "rep.commutation_map", True),
    ("rep.hom_ext_dims_s", "rep.hom_ext_dims", True),
    ("rep.hom_space_s", "rep.hom_space", True),
    ("rep.ext1_space_s", "rep.ext1_space", True),
    ("linalg.rank_s", "linalg.rank", True),
    ("linalg.rref_s", "linalg.rref", True),
    ("deform.udr_report_s", "deform.udr_report", True),
    ("deform.lifts_isomorphic_s", "deform.lifts_isomorphic", True),
]
COLD_TIMERS = [("quiver.classify_s", "quiver.classify"), ("roots.positive_roots_s", "roots.positive_roots")]
COUNTERS = [("linalg.rank_calls", "linalg.rank"), ("linalg.rref_calls", "linalg.rref")]


def _mean(xs) -> float:
    return statistics.fmean(xs) if xs else 0.0


def layer_metrics(spans: list, tally, processes: list) -> dict:
    """Per-layer metrics from the spans of a traced run.

    Times are mean seconds per call (all calls, set-up included; lru_cached
    functions count only cold calls).  `*_calls.<field>` are calls per
    traced operation over that field, set-up excluded.  Functor counts are
    per top-level indec call (a catalog build, or a single construction
    outside one).  `processes` holds (wall, import_s) for each traced CLI
    child.  The tracing overhead is the mean traced operation's wall time
    minus the mean untraced one's, over the same inputs.
    """
    out = {}
    traced_ops = [(kind, wall) for kind, wall, traced in tally.ops if traced]

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    put("cli.process_s", _mean([w for w, _ in processes]), "s/call")
    put("cli.import_s", _mean([i for _, i in processes]), "s/call")
    durations: dict = {}
    for name, fld, start, end, _, _, extra in spans:
        durations.setdefault((name, fld, extra == "cold"), []).append(end - start)
    for metric, span, split in TIMERS:
        tags = ("Q", "Fp") if split else (None,)
        for tag in tags:
            xs = [d for (n, f, _), ds in durations.items() if n == span and (f == tag or not split) for d in ds]
            put(f"{metric}.{tag}" if split else metric, _mean(xs), "s/call")
    for metric, span in COLD_TIMERS:
        xs = [d for (n, _, cold), ds in durations.items() if n == span and cold for d in ds]
        put(metric, _mean(xs), "s/call")
    for tag in ("Q", "Fp"):
        for metric, span in COUNTERS:
            n = sum(1 for s in spans if s[0] == span and s[1] == tag and s[5] is not None)
            ops = sum(1 for kind, _ in traced_ops if kind == tag)
            put(f"{metric}.{tag}", n / ops if ops else 0.0, "calls/op")
    _functor_metrics(spans, put)
    plain = [wall for _, wall, traced in tally.ops if not traced]
    put("trace.overhead_s", _mean([w for _, w in traced_ops]) - _mean(plain), "s/op")
    return out


def _functor_metrics(spans: list, put) -> None:
    top_of: dict[int, int] = {}

    def top(idx):
        # Outermost indec construction enclosing span idx.
        if idx not in top_of:
            parent = spans[idx][4]
            above = top(parent) if parent is not None else None
            top_of[idx] = above if above is not None else (idx if spans[idx][0] in INDEC_TOP else None)
        return top_of[idx]

    calls = 0
    keys: dict = {}
    times = {"Q": [], "Fp": []}
    for idx, s in enumerate(spans):
        if s[0] in FUNCTORS:
            calls += 1
            keys.setdefault(top(idx), set()).add(s[6])
            times[s[1]].append(s[3] - s[2])
    groups = sum(1 for i, s in enumerate(spans) if s[0] in INDEC_TOP and top(i) == i)
    distinct = sum(len(k) for k in keys.values())
    for tag in ("Q", "Fp"):
        put(f"indec.functor_s.{tag}", _mean(times[tag]), "s/call")
    put("indec.functor_calls", calls / groups if groups else 0.0, "calls/build")
    put("indec.functor_distinct_inputs", distinct / groups if groups else 0.0, "inputs/build")
    put("indec.functor_distinct_share", distinct / calls if calls else 0.0, "ratio")
