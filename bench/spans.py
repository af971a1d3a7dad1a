"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's own files: around calls it makes into
the library, and by swapping a timing wrapper in for a library function while
a traced phase runs (``Tracer.installed``). Nothing inside ``src/`` knows it
is being traced.

A span is ``[name, start, end, parent, op]``: times from ``perf_counter``, the
index of the enclosing span (-1 at top level) and the id of the op (train
step or stream window) in progress, or None outside ops. Span names are
``<layer>.<what>`` where the layer is the package module the call goes into,
so self time can be summed per module.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import statistics
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

LAYERS = ("data", "graph", "kernels", "network", "tensor", "training", "checkpoint")

# (owner, attribute, span name, before(args), after(args, result))
Patch = Tuple[object, str, str, Optional[Callable], Optional[Callable]]


class Tracer:
    """Spans and per-op counts of one traced run, kept in memory."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[Tuple[Optional[int], str], float] = collections.defaultdict(float)
        self.op: Optional[int] = None
        self._stack: List[int] = []
        self._ops = 0
        self._op_span = -1

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def begin_op(self, name: str) -> None:
        self.op = self._ops
        self._ops += 1
        self._op_span = self.open(name)

    def end_op(self) -> None:
        self.close(self._op_span)
        self.op = None

    def unwind_op(self) -> None:
        """Close every span an op left open when an exception cut it short."""
        while self._stack and self.spans[self._stack[-1]][4] is not None:
            self.close(self._stack[-1])
        self.op = None

    def count(self, name: str, value: float) -> None:
        self.counts[(self.op, name)] += value

    def _wrap(self, fn, name, before, after):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self, patches: Sequence[Patch]) -> Iterator[None]:
        """Swap timing wrappers in for the patched functions, restore on exit."""
        saved = []
        try:
            for owner, attr, name, before, after in patches:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, before, after))
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)


def maybe_span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _median(values) -> Optional[float]:
    values = list(values)
    return statistics.median(values) if values else None


def summarize(tracer: Tracer, op_name: str) -> dict:
    """Reduce the spans of a traced run to per-op figures.

    Inside ops (spans under a top-level ``op_name`` span) every figure is a
    median over ops of the per-op total: span time and span self time by span
    name, self time by layer, and counts; ``count_totals`` sums counts over
    ops. Spans outside ops (set-up, validation, output checks) give per-call
    medians. ``coverage`` is the share of op time that the ops' child spans
    cover.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start

    op_time: Dict[int, float] = {}
    covered = 0.0
    total: Dict[str, Dict[int, float]] = collections.defaultdict(dict)
    own: Dict[str, Dict[int, float]] = collections.defaultdict(dict)
    by_layer: Dict[str, Dict[int, float]] = collections.defaultdict(dict)
    calls: Dict[str, List[float]] = collections.defaultdict(list)
    for i, (name, start, end, parent, op) in enumerate(spans):
        dur = end - start
        if op is None:
            calls[name].append(dur)
        elif name == op_name and parent < 0:
            op_time[op] = dur
            covered += child[i]
        else:
            layer = name.split(".", 1)[0]
            for table, key, value in ((total, name, dur), (own, name, dur - child[i]),
                                      (by_layer, layer, dur - child[i])):
                table[key][op] = table[key].get(op, 0.0) + value

    ops = sorted(op_time)

    def per_op_ms(table, key):
        return _median(1e3 * table.get(key, {}).get(o, 0.0) for o in ops)

    count_names = sorted({n for o, n in tracer.counts if o is not None})
    return {
        "ops": len(ops),
        "spans": len(spans),
        "op_ms_p50": _median(1e3 * op_time[o] for o in ops),
        "coverage": covered / sum(op_time.values()) if ops else None,
        "span_ms": {n: per_op_ms(total, n) for n in sorted(total)},
        "span_self_ms": {n: per_op_ms(own, n) for n in sorted(own)},
        "layer_self_ms": {layer: per_op_ms(by_layer, layer) for layer in LAYERS},
        "call_ms": {n: _median(1e3 * d for d in ds) for n, ds in sorted(calls.items())},
        "counts": {n: _median(tracer.counts.get((o, n), 0.0) for o in ops)
                   for n in count_names},
        "count_totals": {n: sum(tracer.counts.get((o, n), 0.0) for o in ops)
                         for n in count_names},
    }
