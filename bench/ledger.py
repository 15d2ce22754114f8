"""Outside-in wall ledger: spans recorded by wrappers around layer calls.

The benchmark never edits the program to time it.  Instead,
:func:`install` replaces named functions and methods with thin wrappers
for the duration of a traced run, patching each name where its caller
looks it up (``repro.serve.scheduler.autotune``, not
``repro.core.autotune.autotune``, because the scheduler imported the
function into its own namespace).  A target that does not exist raises
:class:`LookupError` naming it: a renamed function must break the
benchmark loudly, not silently drop out of the ledger.

Every wrapped call is a span with a name, a start, an end and a parent
(the innermost enclosing wrapped call).  A layer's *self time* is the
sum over its spans of duration minus the time covered by child spans,
so the layers' self times never overlap and, with an ``unattributed``
remainder, add up to the measured wall.  Self and inclusive times are
accumulated as spans close, so a run with millions of calls needs no
memory per call; the first ``span_cap`` spans are also kept verbatim
for the Chrome trace written at the end of the run.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Ledger", "Target", "install", "resolve", "write_chrome_trace"]

#: ``count(args, result) -> number`` added to a named counter per call
CountFn = Callable[[tuple, object], float]


class Target:
    """One wrapped name: ``"module:Attr.path"`` charged to ``layer``.

    ``counts`` maps counter names to functions of the call's positional
    arguments and its result; each call adds the function's value to
    ``<layer>.<counter>`` in :attr:`Ledger.counts`.
    """

    __slots__ = ("layer", "path", "counts")

    def __init__(
        self, layer: str, path: str, counts: Optional[Dict[str, CountFn]] = None
    ) -> None:
        self.layer = layer
        self.path = path
        self.counts = counts or {}


class Ledger:
    """Span store plus per-target self/inclusive time and counters.

    The hot path touches only closure-local lists: each wrapped target
    owns one accumulator ``[self_s, incl_s, calls]``, and the stack of
    open spans starts with a root frame so every span has a parent.
    """

    def __init__(self, span_cap: int = 100_000) -> None:
        self.span_cap = span_cap
        #: kept spans: (name, layer, start, end, parent index or -1)
        self.spans: List[Optional[Tuple[str, str, float, float, int]]] = []
        #: ``<layer>.<counter>`` -> total, for targets with count functions
        self.counts: Dict[str, float] = defaultdict(float)
        self._accs: List[Tuple[Target, list]] = []
        self._stack: List[list] = [[0.0, -1]]

    def self_s(self, layer: str) -> float:
        """Seconds of ``layer``'s spans not covered by child spans."""
        return sum(acc[0] for t, acc in self._accs if t.layer == layer)

    def calls(self, layer: str) -> int:
        return sum(acc[2] for t, acc in self._accs if t.layer == layer)

    def calls_of(self, path: str) -> int:
        return sum(acc[2] for t, acc in self._accs if t.path == path)

    def incl_s(self, path: str) -> float:
        """Seconds inside spans of one target, children included."""
        return sum(acc[1] for t, acc in self._accs if t.path == path)

    @property
    def dropped(self) -> int:
        """Spans timed but not kept (beyond ``span_cap``)."""
        return sum(acc[2] for _t, acc in self._accs) - len(self.spans)

    def wrap(self, target: Target, fn: Callable) -> Callable:
        """A function that records one span per call to ``fn``."""
        layer, name = target.layer, target.path
        counts = [(f"{layer}.{c}", f) for c, f in target.counts.items()]
        acc = [0.0, 0.0, 0]
        self._accs.append((target, acc))
        stack, totals, spans, cap = self._stack, self.counts, self.spans, self.span_cap
        push, pop = stack.append, stack.pop

        def traced(*args, **kwargs):
            idx = len(spans)
            if idx < cap:
                spans.append(None)  # reserve the slot so children index after it
            else:
                idx = -1
            frame = [0.0, idx]
            parent = stack[-1]
            push(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                pop()
                dur = t1 - t0
                acc[0] += dur - frame[0]
                acc[1] += dur
                acc[2] += 1
                parent[0] += dur
                if idx >= 0:
                    spans[idx] = (name, layer, t0, t1, parent[1])
            for key, f in counts:
                totals[key] += f(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__wrapped__ = fn
        return traced


def resolve(path: str):
    """``(owner, attribute, raw value)`` for ``"module:Attr.path"``.

    The last attribute must be defined on the owner itself (``vars``),
    so an inherited method is never patched on the wrong class.
    """
    module_name, _, attr_path = path.partition(":")
    if not attr_path:
        raise LookupError(f"trace target {path!r} must look like 'module:attr'")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"trace target {path!r}: {exc}") from None
    *parents, attr = attr_path.split(".")
    for p in parents:
        try:
            owner = vars(owner)[p]
        except KeyError:
            raise LookupError(f"trace target {path!r}: no {p!r} in {owner!r}") from None
    try:
        raw = vars(owner)[attr]
    except KeyError:
        raise LookupError(f"trace target {path!r}: no {attr!r} in {owner!r}") from None
    return owner, attr, raw


def install(ledger: Ledger, targets: Sequence[Target]) -> Callable[[], None]:
    """Patch every target with a recording wrapper; returns ``restore``.

    Every target is resolved before anything is patched, so a missing
    one leaves the program untouched.
    """
    resolved = [(t, *resolve(t.path)) for t in targets]
    undo = []
    for target, owner, attr, raw in resolved:
        if isinstance(raw, staticmethod):
            new = staticmethod(ledger.wrap(target, raw.__func__))
        elif isinstance(raw, property):
            new = property(ledger.wrap(target, raw.fget), raw.fset, raw.fdel, raw.__doc__)
        elif callable(raw):
            new = ledger.wrap(target, raw)
        else:
            raise LookupError(f"trace target {target.path!r} is not callable")
        setattr(owner, attr, new)
        undo.append((owner, attr, raw))

    def restore() -> None:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)
        undo.clear()

    return restore


def write_chrome_trace(ledger: Ledger, path: str) -> None:
    """Write the kept spans as Chrome ``traceEvents`` (one track per layer)."""
    if not ledger.spans:
        origin = 0.0
    else:
        origin = min(s[2] for s in ledger.spans if s is not None)
    layers = sorted({s[1] for s in ledger.spans if s is not None})
    tid = {layer: i for i, layer in enumerate(layers)}
    events = [
        {"ph": "M", "name": "thread_name", "pid": 0, "tid": i, "args": {"name": layer}}
        for layer, i in tid.items()
    ]
    for i, span in enumerate(ledger.spans):
        if span is None:
            continue
        name, layer, t0, t1, parent = span
        events.append({
            "ph": "X", "name": name, "cat": layer, "pid": 0, "tid": tid[layer],
            "ts": (t0 - origin) * 1e6, "dur": (t1 - t0) * 1e6,
            "args": {"span": i, "parent": parent},
        })
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"kept_spans": len(ledger.spans), "dropped_spans": ledger.dropped},
        }, fh)
