"""Span recording around radnorm's layer boundaries, and per-layer metrics.

A traced process installs wrappers on the public functions each radnorm
module calls (see ``LAYER_FUNCTIONS``).  Every wrapped call records one span
(name, start, end, parent) in memory; ``Tracer.write`` dumps them when the
process ends.  ``layer_metrics`` reads one or more span files back, computes
self time (a span's duration minus the durations of its direct children) and
turns spans plus counters into the per-layer metrics of BENCHMARK.json.

Span file format, one file per traced process:

* line 1: a JSON header ``{"names": [...], "spans": N, "byteorder": ...,
  "counters": {...}}`` terminated by a newline;
* then four packed arrays of N items each, in the header's byte order:
  name index (``uint32``, into ``names``), parent span index (``int32``,
  -1 for a root span), start and end (``float64``, ``time.perf_counter``
  seconds).

Spans are appended in start order, so a parent's index is always smaller
than its children's.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

# (span name, module, attribute): every module attribute bound to the same
# object is replaced, so call sites that imported the name are traced too.
LAYER_FUNCTIONS = (
    ("exactnum.binomial", "radnorm.exactnum", "binomial"),
    ("constants.closed", "radnorm.constants", "gamma_closed"),
    ("constants.closed", "radnorm.constants", "ell_closed"),
    ("constants.recursive", "radnorm.constants", "gamma_recursive"),
    ("constants.recursive", "radnorm.constants", "ell_recursive"),
    ("constants.special", "radnorm.constants", "gamma_even"),
    ("constants.special", "radnorm.constants", "gamma_special"),
    ("constants.special", "radnorm.constants", "ell2_special"),
    ("symdiff.derivative", "radnorm.symdiff", "derivative"),
    ("symdiff.grad_norm_sq", "radnorm.symdiff", "grad_norm_sq"),
    ("symdiff.identity", "radnorm.symdiff", "functions_equal"),
    ("symdiff.identity", "radnorm.symdiff", "laplacian_recursion_check"),
    ("symdiff.identity", "radnorm.symdiff", "dimension_split_check"),
)

# (counter prefix, module, attribute) of the memo caches read via cache_info().
CACHES = (
    ("exactnum.pochhammer", "radnorm.exactnum", "pochhammer"),
    ("symdiff.derivative", "radnorm.symdiff", "_derivative_cached"),
)

# name, unit, better -- the order and content of BENCHMARK.json's per_layer.
PER_LAYER = (
    ("exactnum.binomial.calls", "count", "lower"),
    ("exactnum.binomial.self_s", "s", "lower"),
    ("exactnum.pochhammer.cache_hit_ratio", "ratio", "higher"),
    ("exactnum.pochhammer.cache_entries", "count", "lower"),
    ("constants.closed.calls", "count", "lower"),
    ("constants.closed.self_s", "s", "lower"),
    ("constants.recursive.calls", "count", "lower"),
    ("constants.recursive.self_s", "s", "lower"),
    ("constants.special.self_s", "s", "lower"),
    ("symdiff.derivative.calls", "count", "lower"),
    ("symdiff.derivative.self_s", "s", "lower"),
    ("symdiff.derivative.cache_hit_ratio", "ratio", "higher"),
    ("symdiff.derivative.cache_entries", "count", "lower"),
    ("symdiff.differentiate.calls", "count", "lower"),
    ("symdiff.differentiate.distinct_ratio", "ratio", "higher"),
    ("symdiff.build.calls", "count", "lower"),
    ("symdiff.evaluate.calls", "count", "lower"),
    ("symdiff.evaluate.self_s", "s", "lower"),
    ("symdiff.grad_norm_sq.self_s", "s", "lower"),
    ("symdiff.identity.self_s", "s", "lower"),
    ("cli.process_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.output_bytes", "B", "lower"),
    ("trace.throughput_ratio", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
)


class Tracer:
    """Records nested spans of one single-threaded process in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("I")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self.distinct: dict[str, set[int]] = {}

    def wrap(self, name, func, distinct=None):
        """Return func wrapped in a span called ``name``.

        ``distinct(*args)`` -> int, when given, is collected per call so that
        the number of distinct inputs can be counted.
        """
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        seen = self.distinct.setdefault(name, set()) if distinct else None
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if seen is not None:
                seen.add(distinct(*args, **kwargs))
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def write(self, path: Path, counters: dict) -> None:
        counters = dict(counters)
        for name, seen in self.distinct.items():
            counters[f"{name}.distinct"] = len(seen)
        header = {
            "names": self.names,
            "spans": len(self.starts),
            "byteorder": sys.byteorder,
            "counters": counters,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_ids, self.parents, self.starts, self.ends):
                column.tofile(handle)


def install(tracer: Tracer) -> None:
    """Wrap radnorm's layer functions and TermSum methods in place.

    Call after every radnorm module the process uses has been imported.
    """
    modules = [m for name, m in sys.modules.items() if name == "radnorm" or name.startswith("radnorm.")]
    for span, module, attr in LAYER_FUNCTIONS:
        original = getattr(sys.modules[module], attr)
        traced = tracer.wrap(span, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, traced)
    term_sum = sys.modules["radnorm.symdiff"].TermSum
    # TermSum is a frozen dataclass of Fractions and int tuples, so its hash
    # does not depend on the interpreter's string-hash seed.
    term_sum.differentiate = tracer.wrap(
        "symdiff.differentiate", term_sum.differentiate, distinct=lambda u, axis: hash((u, axis))
    )
    term_sum.evaluate_reduced = tracer.wrap("symdiff.evaluate", term_sum.evaluate_reduced)
    term_sum.build = classmethod(tracer.wrap("symdiff.build", term_sum.__dict__["build"].__func__))


def cache_counters() -> dict:
    """hits, misses and entries of radnorm's memo caches (0 where absent)."""
    counters = {}
    for prefix, module, attr in CACHES:
        cache_info = getattr(getattr(sys.modules.get(module), attr, None), "cache_info", None)
        info = cache_info() if cache_info else None
        counters[f"{prefix}.cache_hits"] = info.hits if info else 0
        counters[f"{prefix}.cache_misses"] = info.misses if info else 0
        counters[f"{prefix}.cache_entries"] = info.currsize if info else 0
    return counters


def read_spans(path: Path):
    """Header dict and the four span columns of one span file."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        count = header["spans"]
        columns = [array(code) for code in ("I", "i", "d", "d")]
        for column in columns:
            column.fromfile(handle, count)
            if header["byteorder"] != sys.byteorder:
                column.byteswap()
    return header, columns


def aggregate(paths) -> tuple[Counter, dict, Counter, int]:
    """Calls and self seconds per span name, and summed counters, over files."""
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    counters: Counter = Counter()
    spans = 0
    for path in paths:
        header, (name_ids, parents, starts, ends) = read_spans(path)
        names = header["names"]
        counters.update(header["counters"])
        spans += header["spans"]
        covered = [0.0] * len(starts)
        for i, parent in enumerate(parents):
            if parent >= 0:
                covered[parent] += ends[i] - starts[i]
        for i, name_id in enumerate(name_ids):
            name = names[name_id]
            calls[name] += 1
            self_s[name] += ends[i] - starts[i] - covered[i]
    return calls, self_s, counters, spans


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(paths, process_s: float, output_bytes: int, throughput_ratio: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from span files and counters."""
    calls, self_s, counters, spans = aggregate(paths)
    values = {"trace.spans": spans, "trace.throughput_ratio": throughput_ratio}
    for prefix in ("exactnum.pochhammer", "symdiff.derivative"):
        hits, misses = counters[f"{prefix}.cache_hits"], counters[f"{prefix}.cache_misses"]
        values[f"{prefix}.cache_hit_ratio"] = _ratio(hits, hits + misses)
        values[f"{prefix}.cache_entries"] = counters[f"{prefix}.cache_entries"]
    for name in ("exactnum.binomial", "constants.closed", "constants.recursive",
                 "symdiff.derivative", "symdiff.differentiate", "symdiff.build",
                 "symdiff.evaluate"):
        values[f"{name}.calls"] = calls[name]
    for name in ("exactnum.binomial", "constants.closed", "constants.recursive",
                 "constants.special", "symdiff.derivative", "symdiff.evaluate",
                 "symdiff.grad_norm_sq", "symdiff.identity", "cli.main"):
        values[f"{name}.self_s"] = self_s[name]
    values["symdiff.differentiate.distinct_ratio"] = _ratio(
        counters["symdiff.differentiate.distinct"], calls["symdiff.differentiate"]
    )
    values["cli.import_s"] = counters["cli.import_s"]
    values["cli.process_s"] = process_s
    values["cli.output_bytes"] = output_bytes
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
