"""Spans timed from outside the program, and wrappers that bind at every import site.

A span is opened when a wrapped function is entered and closed when it
returns.  Spans nest on one stack (the benchmark is single-threaded), so a
span's self time is its duration minus the time its child spans cover, and
its inclusive time counts only the outermost active span of each name, so a
recursive function is not counted twice.

Hot leaves (the scalar field operations) are too frequent for one span per
call: a leaf wrapper adds its duration to the enclosing span's child time and
to the leaf's own totals, which aggregates the leaf per parent span.

Wrapping a function on its defining module alone misses every site that
imported it with `from .x import f`; `bind` therefore rebinds the function
wherever the same object is reachable in the package's modules or in the
owning class's namespace (aliases such as `__rmul__ = __mul__` included).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    incl_s: float = 0.0


@dataclass
class Frame:
    name: str
    start: float
    child_s: float = 0.0
    notes: list = field(default_factory=list)


class Tracer:
    """Span stack plus per-name totals; `counters` holds event counts set by hooks."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[Frame] = []
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, float] = {}
        self.kept: list = []  # objects hooks keep for work after the traced pass
        self.active: dict[str, int] = {}

    def enter(self, name: str) -> Frame:
        frame = Frame(name, self.clock())
        self.stack.append(frame)
        self.active[name] = self.active.get(name, 0) + 1
        return frame

    def exit(self, frame: Frame) -> None:
        dur = self.clock() - frame.start
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        st = self.stats.get(frame.name)
        if st is None:
            st = self.stats[frame.name] = Stat()
        st.calls += 1
        st.self_s += dur - frame.child_s
        left = self.active[frame.name] - 1
        self.active[frame.name] = left
        if left == 0:
            st.incl_s += dur
        if self.stack:
            self.stack[-1].child_s += dur

    def leaf(self, name: str, dur: float) -> None:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        st.calls += 1
        st.self_s += dur
        st.incl_s += dur
        if self.stack:
            self.stack[-1].child_s += dur

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def stat(self, name: str) -> Stat:
        return self.stats.get(name, Stat())


@dataclass
class Layer:
    """One wrapped callable: `owner.attr`, reported under `name`.

    `name_of(args)` may refine the span name from the arguments; `after(tracer,
    frame, args, kwargs, result, exc)` runs once the span has closed, with `exc`
    set when the call raised.
    """

    name: str
    owner: object
    attr: str
    leaf: bool = False
    name_of: object = None
    after: object = None


def _span_wrapper(tracer: Tracer, layer: Layer, fn):
    name_of, after = layer.name_of, layer.after

    def wrapper(*args, **kwargs):
        frame = tracer.enter(name_of(args) if name_of else layer.name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.exit(frame)
            if after:
                after(tracer, frame, args, kwargs, None, exc)
            raise
        tracer.exit(frame)
        if after:
            after(tracer, frame, args, kwargs, result, None)
        return result

    return wrapper


def _leaf_wrapper(tracer: Tracer, layer: Layer, fn):
    clock, name = tracer.clock, layer.name

    def wrapper(*args):
        t0 = clock()
        result = fn(*args)
        tracer.leaf(name, clock() - t0)
        return result

    return wrapper


def bind(tracer: Tracer, layers, package: str) -> list[tuple[object, str, object]]:
    """Wrap every layer at every site that holds it; returns the undo list.

    Raises RuntimeError when a layer's function is reachable from no site,
    which would otherwise read as zero calls.
    """
    undo: list[tuple[object, str, object]] = []
    modules = [m for n, m in list(sys.modules.items()) if m is not None and (n == package or n.startswith(package + "."))]
    for layer in layers:
        fn = vars(layer.owner).get(layer.attr) if isinstance(layer.owner, type) else getattr(layer.owner, layer.attr)
        if fn is None:
            raise RuntimeError(f"{layer.name}: {layer.attr} not found on {layer.owner!r}")
        wrapper = (_leaf_wrapper if layer.leaf else _span_wrapper)(tracer, layer, fn)
        namespaces = [layer.owner] if isinstance(layer.owner, type) else modules
        sites = 0
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is fn:
                    undo.append((ns, key, value))
                    setattr(ns, key, wrapper)
                    sites += 1
        if sites == 0:
            unbind(undo)
            raise RuntimeError(f"{layer.name}: bound at no site")
    return undo


def unbind(undo) -> None:
    for ns, key, value in reversed(undo):
        setattr(ns, key, value)
    undo.clear()
