"""Outside-in span tracer: wraps the program's layer entry points.

The benchmark must measure the program without changing it, so the
traced run records spans from the benchmark's own code: :meth:`Tracer.
install` replaces each hooked function or method with a timing wrapper
and :meth:`Tracer.restore` puts every original back.

* A method is wrapped by patching the class attribute, so existing
  instances and subclasses that inherit it see the wrapper.
* A module function is wrapped by rebinding *every* global of every
  loaded ``repro`` module that is the original object, which also
  covers names imported elsewhere (``from repro.dse.pareto import
  non_dominated_sort``) and function-local imports, which read the
  defining module's attribute at call time.
* A mapping of callables (the experiment registry, the serve handler
  table) has each value wrapped in place.

Spans stay in memory.  Each records its layer, the wrapped operation,
start and end (``perf_counter`` seconds), the enclosing span on the same
thread, a request id inherited from that parent (an experiment name, a
block or run index, a serve job id) and counters the hook computed from
the call.  :func:`rollup` turns them into per-layer self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence

_MISSING = object()


@dataclass(frozen=True)
class Hook:
    """One wrap target.

    ``attr`` names a module function (``"pareto_front"``), a method
    (``"NSGA2.run"``) or, with ``entries=True``, a dict whose values are
    wrapped (op and default request id: the key).  ``before(args,
    kwargs)`` snapshots state ahead of the call; ``after(args, kwargs,
    result, state)`` returns counter increments keyed by metric name.
    ``request(args)`` gives the span a request id of its own.
    """

    layer: str
    module: str
    attr: str
    before: Optional[Callable] = None
    after: Optional[Callable] = None
    request: Optional[Callable] = None
    entries: bool = False


@dataclass
class Span:
    id: int
    parent: Optional[int]
    layer: str
    op: str
    request: Optional[str]
    start: float
    end: float
    counts: Optional[Dict[str, float]] = None

    def to_dict(self) -> dict:
        return dict(vars(self))


class Tracer:
    """Span recorder plus the install/restore of wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: List[tuple] = []
        # id(wrapper) -> (wrapper, original); holding the wrapper keeps
        # its id from being reused before restore() has run.
        self._originals: Dict[int, tuple] = {}

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def request(self, request_id: str) -> Iterator[None]:
        """Tag spans opened inside the block with ``request_id``."""
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        stack.append((parent, request_id))
        try:
            yield
        finally:
            stack.pop()

    def wrap(self, hook: Hook, op: str, fn: Callable, request: Optional[str] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent, inherited = stack[-1] if stack else (None, None)
            if hook.request is not None:
                req = hook.request(args)
            else:
                req = request if request is not None else inherited
            span_id = next(tracer._ids)
            state = hook.before(args, kwargs) if hook.before is not None else None
            stack.append((span_id, req))
            start = time.perf_counter()
            result = _MISSING
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = None
                if hook.after is not None and result is not _MISSING:
                    counts = hook.after(args, kwargs, result, state)
                tracer.spans.append(
                    Span(span_id, parent, hook.layer, op, req, start, end, counts)
                )

        self._originals[id(traced)] = (traced, fn)
        return traced

    # ------------------------------------------------------------------
    def install(self, hooks: Sequence[Hook]) -> None:
        """Wrap every hook target.  All originals are resolved before
        anything is patched, so a subclass hook on an inherited method
        wraps the plain function, not another hook's wrapper."""
        plan = []
        for hook in hooks:
            module = importlib.import_module(hook.module)
            owner_name, _, name = hook.attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            plan.append((hook, owner, name, getattr(owner, name), owner.__dict__.get(name, _MISSING)))
        for hook, owner, name, original, own in plan:
            if hook.entries:
                for key, fn in list(original.items()):
                    original[key] = self.wrap(hook, key, fn, request=key)
                    self._undo.append(("item", original, key, fn))
            elif isinstance(owner, type):
                setattr(owner, name, self.wrap(hook, hook.attr, original))
                self._undo.append(("attr", owner, name, own))
            else:
                wrapper = self.wrap(hook, hook.attr, original)
                for module in _repro_modules():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self._undo.append(("attr", module, key, original))

    def restore(self) -> None:
        """Undo :meth:`install`, including wrappers that modules imported
        after installation picked up."""
        while self._undo:
            kind, owner, key, original = self._undo.pop()
            if kind == "item":
                owner[key] = original
            elif original is _MISSING:
                delattr(owner, key)
            else:
                setattr(owner, key, original)
        for module in _repro_modules():
            for key, value in list(vars(module).items()):
                wrapper, original = self._originals.get(id(value), (None, None))
                if wrapper is value:
                    setattr(module, key, original)
        self._originals.clear()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def read_jsonl(path: str) -> List[Span]:
    with open(path, "r", encoding="utf-8") as handle:
        return [Span(**json.loads(line)) for line in handle if line.strip()]


@dataclass
class Rollup:
    """Span totals: self time and entries per layer, inclusive time per
    ``(layer, op)`` and ``(layer, request)``, summed counters."""

    self_s: Dict[str, float]
    calls: Dict[str, int]
    inclusive_by_op: Dict[tuple, float]
    inclusive_by_request: Dict[tuple, float]
    counts: Dict[str, float]


def rollup(spans: Sequence[Span]) -> Rollup:
    """A span's self time is its duration minus its children's.  Children
    run on their parent's thread, nested and one after another, so the
    time they cover is the sum of their durations.  ``calls`` counts a
    layer's outermost spans only: entries into the layer from outside."""
    by_id = {span.id: span for span in spans}
    child_time: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.end - span.start
    out = Rollup({}, {}, {}, {}, {})
    for span in spans:
        duration = span.end - span.start
        out.self_s[span.layer] = out.self_s.get(span.layer, 0.0) + duration - child_time.get(span.id, 0.0)
        parent = by_id.get(span.parent)
        if parent is None or parent.layer != span.layer:
            out.calls[span.layer] = out.calls.get(span.layer, 0) + 1
            key = (span.layer, span.request)
            out.inclusive_by_request[key] = out.inclusive_by_request.get(key, 0.0) + duration
        key = (span.layer, span.op)
        out.inclusive_by_op[key] = out.inclusive_by_op.get(key, 0.0) + duration
        for name, value in (span.counts or {}).items():
            out.counts[name] = out.counts.get(name, 0.0) + value
    return out
