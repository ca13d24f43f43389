"""Span recorder, wrapper installation and self-time reducer for traced runs.

Tracing is done from the benchmark's side only: the public functions of the
five layers are replaced by wrappers at every name the package binds them to
(``classify`` imports ``kernel_basis`` and friends by name), and the
``Matrix``/``RrefAccumulator`` methods are replaced on the class.  ``rat`` and
``Fraction`` are never wrapped.  Each call records one span ``(name, start,
end, parent)`` in CPU seconds of this process; spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import json
import re
import time
from collections import Counter

# (layer, metric name, defining module, attribute or Class.method)
TARGETS = (
    ("exactlinalg", "matmul", "exactlinalg", "Matrix.__mul__"),
    ("exactlinalg", "matvec", "exactlinalg", "Matrix.matvec"),
    ("exactlinalg", "rank", "exactlinalg", "Matrix.rank"),
    ("exactlinalg", "det", "exactlinalg", "Matrix.det"),
    ("exactlinalg", "inverse", "exactlinalg", "Matrix.inverse"),
    ("exactlinalg", "rref", "exactlinalg", "rref"),
    ("exactlinalg", "kernel_basis", "exactlinalg", "kernel_basis"),
    ("exactlinalg", "rref_acc_add", "exactlinalg", "RrefAccumulator.add"),
    ("exactlinalg", "spin", "exactlinalg", "spin"),
    ("exactlinalg", "char_poly", "exactlinalg", "char_poly"),
    ("exactlinalg", "min_poly", "exactlinalg", "min_poly"),
    ("exactlinalg", "rational_roots", "exactlinalg", "rational_roots"),
    ("exactlinalg", "rational_spectrum", "exactlinalg", "rational_spectrum"),
    ("bimodule", "build", "bimodule", "even_module"),
    ("bimodule", "build", "bimodule", "odd_module"),
    ("bimodule", "twist", "bimodule", "twist"),
    ("bimodule", "check_relations", "bimodule", "check_relations"),
    ("bimodule", "derive_Z", "bimodule", "derive_Z"),
    ("classify", "criterion", "classify", "criterion_even"),
    ("classify", "criterion", "classify", "criterion_odd"),
    ("classify", "oracle_irreducible", "classify", "oracle_irreducible"),
    ("classify", "verify_invariant_subspace", "classify", "verify_invariant_subspace"),
    ("classify", "are_isomorphic", "classify", "are_isomorphic"),
    ("classify", "intertwiner_space", "classify", "intertwiner_space"),
    ("classify", "invariants", "classify", "invariants"),
    ("classify", "identify", "classify", "identify"),
    ("classify", "lowering_matrix", "classify", "lowering_matrix"),
    ("universal", "truncated_verma", "universal", "truncated_verma"),
    ("universal", "interior_relation_check", "universal", "interior_relation_check"),
    ("universal", "verma_quotient_check", "universal", "verma_quotient_check"),
    ("universal", "ladder_vector", "universal", "ladder_vector"),
    ("cli", "parse_module", "cli", "parse_module"),
    ("cli", "serialize_module", "cli", "serialize_module"),
    ("cli", "main", "cli", "main"),
)

LAYERS = ("exactlinalg", "bimodule", "classify", "universal", "cli")
LOWERING_METHODS = ("closed", "recurrence", "operator")
TASK_SPAN = "harness.task"

# Y-eigenvalue Norton labels are "Y - <eigenvalue>"; word labels start with "(".
_NORTON_Y = re.compile(r"(?:kernel of |ker\()Y - ")


def span_names() -> list[str]:
    """Every span name a traced run can record, in report order."""
    names = []
    for layer, fn, _, _ in TARGETS:
        if fn == "lowering_matrix":
            names += [f"{layer}.{fn}.{m}" for m in LOWERING_METHODS]
        elif f"{layer}.{fn}" not in names:
            names.append(f"{layer}.{fn}")
    return names


def oracle_route(verdict) -> str:
    """Which decision path of ``oracle_irreducible`` produced a verdict."""
    if verdict.status == "indeterminate":
        return "indeterminate"
    if verdict.detail == "dimension 1":
        return "dim1"
    if verdict.detail.startswith("two-sided spin"):
        route = "two_sided_spin"
    elif verdict.detail.startswith("dual kernel"):
        route = "dual_kernel_witness"
    else:
        route = "kernel_witness"
    return route if _NORTON_Y.search(verdict.detail) else "word_found"


class Recorder:
    """In-memory span list plus the counts taken at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []  # (name id, start, end, parent index or -1)
        self.stack = [-1]
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name_of, before=None, after=None):
        """Wrapper recording one span per call.  ``name_of(args, kwargs)``
        gives the span name id, or None to call through without a span."""
        spans, stack, clock = self.spans, self.stack, time.process_time

        def traced(*args, **kwargs):
            nid = name_of(args, kwargs)
            if nid is None:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if after is not None:
                after(result)
            return result

        return traced

    def task(self, fn, *args):
        """Run one harness task under a root span."""
        return self.wrap(fn, lambda a, k, nid=self.name_id(TASK_SPAN): nid)(*args)


def install(rec: Recorder, lib) -> None:
    """Replace every traced function of ``lib`` by a recording wrapper.

    ``lib`` maps module short names (and ``package``) to the imported
    modules.  A function is rebound at every module attribute that holds it.
    """
    modules = list(lib.values())
    for layer, fn_name, home, attr in TARGETS:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(lib[home], cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, _wrapped(rec, layer, fn_name, original, lib))
            continue
        original = getattr(lib[home], attr)
        wrapper = _wrapped(rec, layer, fn_name, original, lib)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def _wrapped(rec: Recorder, layer: str, fn_name: str, original, lib):
    name = f"{layer}.{fn_name}"
    if fn_name == "matmul":
        matrix_cls = lib["exactlinalg"].Matrix
        nid = rec.name_id(name)
        # scalar scaling shares Matrix.__mul__ but is not a matrix product
        return rec.wrap(original, lambda a, k: nid if isinstance(a[1], matrix_cls) else None)
    if fn_name == "lowering_matrix":
        ids = {m: rec.name_id(f"{name}.{m}") for m in LOWERING_METHODS}
        return rec.wrap(original, lambda a, k: ids.get(k.get("method", a[4] if len(a) > 4 else "closed")))
    nid = rec.name_id(name)
    before = after = None
    if fn_name == "kernel_basis":
        def before(a, k):
            rec.counts["kernel_basis.cells"] += a[0].nrows * a[0].ncols
    elif fn_name == "oracle_irreducible":
        def after(verdict):
            rec.counts["oracle." + oracle_route(verdict)] += 1
    return rec.wrap(original, lambda a, k: nid, before, after)


def reduce_spans(rec: Recorder) -> dict:
    """Per-name calls and self time, where self time is a span's duration
    minus the durations of its direct children."""
    spans = rec.spans
    child = [0.0] * len(spans)
    for nid, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for i, (nid, start, end, _) in enumerate(spans):
        name = rec.names[nid]
        calls[name] += 1
        self_s[name] += (end - start) - child[i]
    return {"calls": calls, "self_s": self_s}


def count_under(rec: Recorder, name: str, ancestor: str) -> int:
    """Spans called ``name`` with a span called ``ancestor`` above them."""
    if name not in rec._ids or ancestor not in rec._ids:
        return 0
    nid, aid = rec._ids[name], rec._ids[ancestor]
    under = [False] * len(rec.spans)
    total = 0
    for i, (sid, _, _, parent) in enumerate(rec.spans):
        if parent >= 0:
            under[i] = under[parent] or rec.spans[parent][0] == aid
        if sid == nid and under[i]:
            total += 1
    return total


def layer_metrics(rec: Recorder, traced_cpu: float, untraced_cpu: float) -> dict:
    """The per-layer metric values of a traced run, keyed by metric name."""
    red = reduce_spans(rec)
    calls, self_s = red["calls"], red["self_s"]
    out: dict[str, tuple[float, str]] = {}
    layer_self = Counter()
    for name in span_names():
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
        layer_self[name.split(".")[0]] += self_s[name]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_self[layer], "s")
    out["exactlinalg.kernel_basis.cells"] = (rec.counts["kernel_basis.cells"], "count")

    oracle_calls = calls["classify.oracle_irreducible"]
    iso_calls = calls["classify.are_isomorphic"]
    identify_calls = calls["classify.identify"]
    norton_y = sum(rec.counts[f"oracle.{r}"] for r in
                   ("two_sided_spin", "dual_kernel_witness", "kernel_witness"))
    out["classify.oracle.norton_y_frac"] = (_ratio(norton_y, oracle_calls), "ratio")
    out["classify.oracle.words_tried"] = (
        count_under(rec, "exactlinalg.rank", "classify.oracle_irreducible"), "count")
    out["classify.oracle.indeterminate_frac"] = (
        _ratio(rec.counts["oracle.indeterminate"], oracle_calls), "ratio")
    out["classify.are_isomorphic.slow_path_frac"] = (
        _ratio(calls["classify.intertwiner_space"], iso_calls), "ratio")
    out["classify.identify.iso_attempts_per_call"] = (
        _ratio(count_under(rec, "classify.are_isomorphic", "classify.identify"),
               identify_calls), "ratio")

    out["trace.tasks"] = (calls[TASK_SPAN], "count")
    out["trace.harness_s"] = (traced_cpu - sum(layer_self.values()), "s")
    out["trace.overhead_frac"] = (traced_cpu / untraced_cpu - 1 if untraced_cpu else 0.0,
                                  "ratio")
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def write_spans(rec: Recorder, path) -> None:
    """Write the span list as ``{"names": [...], "spans": [[id, start, end,
    parent], ...]}`` with times in seconds from the first span."""
    t0 = rec.spans[0][1] if rec.spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"names": rec.names,
                   "spans": [[n, round(s - t0, 7), round(e - t0, 7), p]
                             for n, s, e, p in rec.spans]},
                  fh, separators=(",", ":"))
