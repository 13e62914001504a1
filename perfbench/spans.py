"""In-memory call-tree spans recorded from outside the program under test.

Every wrapped call opens a span under the span of the wrapped call that is
running when it starts.  Calls of one name under one parent are merged into a
single span: its `calls` field says how many calls it holds, and its
duration (`end - start`) is the summed duration of those calls, not a wall
interval.  Merging keeps memory bounded when a hot function runs millions of
times.  A span's self time is its duration minus the durations of its child
spans.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional


class Node:
    """One merged span of the call tree."""

    __slots__ = ("name", "children", "calls", "total", "start", "errors",
                 "yields", "durations")

    def __init__(self, name: str):
        self.name = name
        self.children: dict[str, Node] = {}
        self.calls = 0
        self.total = 0.0
        self.start: Optional[float] = None
        self.errors = 0
        self.yields = 0
        self.durations: Optional[list[float]] = None

    def child(self, name: str) -> "Node":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Node(name)
        return node


@dataclass(frozen=True)
class Span:
    """A written-out span; `end - start` is the merged duration."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: int
    calls: int = 1
    errors: int = 0
    yields: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent, self.run,
                self.calls, self.errors, self.yields]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        return cls(*row)


class Tracer:
    """Owns the call tree of one process and the wrappers that grow it."""

    def __init__(self, run: int = 0):
        self.run = run
        self.root = Node("<process>")
        self.stack = [self.root]
        self.durations_for: set[str] = set()

    def _observe(self, node: Node, dt: float, t0: float) -> None:
        node.calls += 1
        node.total += dt
        if node.start is None:
            node.start = t0
        if node.durations is not None:
            node.durations.append(dt)

    def _node(self, name: str) -> Node:
        node = self.stack[-1].child(name)
        if node.durations is None and name in self.durations_for:
            node.durations = []
        return node

    def wrap(self, fn: Callable, name: str,
             on_call: Optional[Callable] = None,
             on_result: Optional[Callable] = None) -> Callable:
        """Return a wrapper of fn that records a span named name.

        on_call(args) runs before each call and on_result(result) after each
        normal return.  Both run inside the recorded duration, so keep them
        cheap.  Generator functions are timed per resume.
        """
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)
        stack = self.stack
        clock = time.perf_counter
        observe = self._observe
        make = self._node

        def wrapper(*args, **kwargs):
            node = make(name)
            stack.append(node)
            t0 = clock()
            try:
                if on_call is not None:
                    on_call(args)
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            except BaseException:
                node.errors += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                observe(node, dt, t0)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_generator(self, fn: Callable, name: str) -> Callable:
        # Each resume is timed on its own, so the consumer's work between
        # two items is never charged to the generator.
        stack = self.stack
        clock = time.perf_counter
        observe = self._observe
        make = self._node

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            node = make(name)
            while True:
                stack.append(node)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                except BaseException:
                    node.errors += 1
                    raise
                finally:
                    dt = clock() - t0
                    stack.pop()
                    observe(node, dt, t0)
                node.yields += 1
                yield item

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def spans(self) -> list[Span]:
        """The call tree as spans, parents before children."""
        out: list[Span] = []

        def walk(node: Node, parent: Optional[int]) -> None:
            for child in node.children.values():
                sid = len(out)
                start = child.start if child.start is not None else 0.0
                out.append(Span(sid, child.name, start, start + child.total, parent,
                                self.run, child.calls, child.errors, child.yields))
                walk(child, sid)

        walk(self.root, None)
        return out

    def durations(self) -> dict[str, list[float]]:
        """Per-call durations of the names listed in durations_for."""
        out: dict[str, list[float]] = {}

        def walk(node: Node) -> None:
            for child in node.children.values():
                if child.durations:
                    out.setdefault(child.name, []).extend(child.durations)
                walk(child)

        walk(self.root)
        return out


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus its children's."""
    spans = list(spans)
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def replace_everywhere(original: Callable, wrapper: Callable, prefix: str) -> int:
    """Rebind every module-level name under prefix that refers to original.

    `from .x import y` copies the binding, so a wrapper installed only in the
    defining module would miss callers that look the name up elsewhere.
    """
    count = 0
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == prefix or modname.startswith(prefix + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                count += 1
    return count
