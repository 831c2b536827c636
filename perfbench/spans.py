"""Layer spans for the traced pass, recorded from outside the program.

:class:`Tracer` replaces a list of public entry points (module functions
and class methods of ``repro``) with wrappers that record a span per
call: name, start, end, parent span and op id.  Spans stay in memory;
:meth:`Tracer.save` writes them once at the end.  Nothing here is
imported by the program, and :meth:`Tracer.uninstall` puts every
original back, so the untraced runs execute unmodified code.

:func:`self_times` splits an op's wall time over its spans exactly: at
every instant the time goes to the deepest open span (the latest
started one when open spans are equally deep), so the self times of one
op's spans sum to the op's wall time even when child spans overlap each
other or outlive their parent.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, Sequence

ROOT_SPAN = "op"


class Tracer:
    """In-memory span recorder with runtime patching of entry points."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One column per span field, so recording a span allocates no
        # container the garbage collector would have to traverse.
        self.name: list[int] = []
        self.start: list[float] = []
        self.stop: list[float] = []
        self.parent: list[int] = []
        self.op_of: list[int] = []
        self.depth: list[int] = []
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self.op: int = -1
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []

    # ---------------------------------------------------------------- spans

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def begin(self, name: str, depth: int | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if depth is None:
            depth = self.depth[parent] + 1 if parent >= 0 else 1
        index = len(self.name)
        self.name.append(self._name_id(name))
        self.parent.append(parent)
        self.op_of.append(self.op)
        self.depth.append(depth)
        self.stop.append(math.nan)
        self.start.append(time.perf_counter())
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.stop[index] = time.perf_counter()
        self._stack().pop()

    def begin_op(self, op: int) -> int:
        """Open op ``op``'s root span; every span until :meth:`end` joins it."""
        self.op = op
        return self.begin(ROOT_SPAN, depth=0)

    def count(self, key: str, value: float = 1) -> None:
        self.counters[(self.op, key)] += value

    # ------------------------------------------------------------- patching

    def wrap(self, name: str, fn: Callable, on_call: Callable | None = None) -> Callable:
        """``fn`` recording a span per call; ``on_call(tracer, args, kwargs, result)``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if on_call is not None:
                on_call(self, args, kwargs, result)
            return result

        return traced

    def patch_method(self, cls: type, attr: str, name: str, on_call=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, on_call))
        self._patched.append((cls, attr, original))

    def patch_function(self, fn: Callable, name: str, on_call=None) -> None:
        """Replace ``fn`` in every loaded module that holds it by name."""
        wrapper = self.wrap(name, fn, on_call)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, fn))

    def patch_instance(self, obj: Any, attr: str, name: str) -> None:
        """Span one object's bound method (an instance attribute shadows it)."""
        setattr(obj, attr, self.wrap(name, getattr(obj, attr)))
        self._patched.append((obj, attr, None))

    def uninstall(self) -> None:
        """Put back every patched original (last patched first)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ---------------------------------------------------------------- output

    def spans(self):
        """Every closed span as ``(name, start, end, op, depth)``."""
        for name_id, start, end, op, depth in zip(
            self.name, self.start, self.stop, self.op_of, self.depth
        ):
            if not math.isnan(end):
                yield self.names[name_id], start, end, op, depth

    def op_spans(self) -> dict[int, list[tuple[str, float, float, int]]]:
        """Closed spans grouped by op: ``(name, start, end, depth)``."""
        grouped: dict[int, list] = defaultdict(list)
        for name, start, end, op, depth in self.spans():
            grouped[op].append((name, start, end, depth))
        return grouped

    def save(self, path) -> None:
        """Write every span (open ones with a NaN end) as a compressed ``.npz``."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name=np.array(self.name, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.stop, dtype=np.float64),
            parent=np.array(self.parent, dtype=np.int64),
            op=np.array(self.op_of, dtype=np.int64),
            depth=np.array(self.depth, dtype=np.int32),
        )


def self_times(spans: Sequence[tuple[float, float, int]]) -> list[float]:
    """Exclusive time of each ``(start, end, depth)`` span.

    Each instant covered by any span goes to exactly one: the deepest
    open span, ties to the latest started (then the latest listed).  The
    results therefore sum to the length of the union of the spans.
    """
    events = []
    for index, (start, end, _depth) in enumerate(spans):
        if end > start:
            events.append((start, 1, index))
            events.append((end, 0, index))
    events.sort()
    out = [0.0] * len(spans)
    active: set[int] = set()
    previous = None
    for instant, is_start, index in events:
        if active and instant > previous:
            top = max(active, key=lambda j: (spans[j][2], spans[j][0], j))
            out[top] += instant - previous
        if is_start:
            active.add(index)
        else:
            active.discard(index)
        previous = instant
    return out


def op_breakdown(spans: Iterable[tuple[str, float, float, int]]) -> dict:
    """Split one op's wall time into layer self times plus unattributed time.

    ``spans`` must hold exactly one root span named ``"op"``; other spans
    are clipped to it.  Returns ``{"wall_s", "unattributed_s", "self_s":
    {layer: s}, "inclusive_s": {span name: s}, "calls": {span name: n}}``;
    ``unattributed_s`` plus the layer self times equal ``wall_s``.
    """
    spans = list(spans)
    roots = [s for s in spans if s[0] == ROOT_SPAN]
    if len(roots) != 1:
        raise ValueError(f"an op needs exactly one root span, got {len(roots)}")
    _, op_start, op_end, _ = roots[0]
    clipped = [
        (name, max(start, op_start), min(end, op_end), depth)
        for name, start, end, depth in spans
    ]
    exclusive = self_times([(s, e, d) for _, s, e, d in clipped])
    self_by_layer: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    unattributed = 0.0
    for (name, start, end, _depth), own in zip(clipped, exclusive):
        if name == ROOT_SPAN:
            unattributed += own
            continue
        self_by_layer[name.split(".", 1)[0]] += own
        inclusive[name] += max(0.0, end - start)
        calls[name] += 1
    return {
        "wall_s": op_end - op_start,
        "unattributed_s": unattributed,
        "self_s": dict(self_by_layer),
        "inclusive_s": dict(inclusive),
        "calls": dict(calls),
    }
