"""In-memory span recorder that wraps layer entry points from outside.

The benchmark never edits the program under test: a :class:`Tracer`
replaces a class attribute (an instance method) or a module attribute
(a function, at the name its caller looks it up by) with a thin timing
wrapper, and puts the original back on :meth:`Tracer.uninstall`.  While
``enabled`` is false a wrapper costs one attribute test, so untraced
blocks of a traced run pay next to nothing.

Spans are kept as parallel lists (name, start, end, parent index) and
written out once, at the end of the run.  A span's *self time* is its
duration minus the part of its interval its children cover.
"""

import functools
import inspect
import json
from time import perf_counter
from typing import Dict, List, Sequence, Tuple


class Tracer:
    """Records nested spans from wrapped callables on one thread.

    Synchronous wrappers nest through a stack.  Coroutine wrappers
    record *detached* root spans (parent ``-1``): several coroutines
    may be in flight at once on one event loop, so a stack would give
    them the wrong parents.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._stack: List[int] = []
        self._installed: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.starts.append(perf_counter())
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")

    def record_detached(self, name: str, start: float, end: float) -> None:
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(-1)

    # ------------------------------------------------------------------
    def wrap(self, function, name: str):
        """A timing wrapper around ``function`` recording span ``name``."""
        tracer = self
        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def async_wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return await function(*args, **kwargs)
                start = perf_counter()
                try:
                    return await function(*args, **kwargs)
                finally:
                    tracer.record_detached(name, start, perf_counter())

            return async_wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            index = tracer.open(name)
            try:
                return function(*args, **kwargs)
            finally:
                tracer.close(index)

        return wrapper

    def install(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` (class or module) with a wrapper.

        For a class the attribute must be defined on that class itself,
        so uninstalling restores exactly what was there.
        """
        if isinstance(owner, type):
            if attribute not in owner.__dict__:
                raise AttributeError(
                    f"{owner.__name__}.{attribute} is inherited; wrap the defining class"
                )
            original = owner.__dict__[attribute]
        else:
            original = getattr(owner, attribute)
        setattr(owner, attribute, self.wrap(original, name))
        self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    def self_times(self) -> List[float]:
        return self_times(self.starts, self.ends, self.parents)

    def totals(self) -> Dict[str, Tuple[float, int]]:
        """Per span name: (summed self time, number of spans)."""
        return totals_by_name(self.names, self.self_times())

    def write(self, path: str) -> None:
        """Write every span as ``[name, start, end, parent]`` rows."""
        rows = [
            [name, start, end, parent]
            for name, start, end, parent in zip(
                self.names, self.starts, self.ends, self.parents
            )
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": rows}, handle)


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> List[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append((starts[index], ends[index]))
    result = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        clipped = [
            (max(child_start, start), min(child_end, end))
            for child_start, child_end in children.get(index, ())
            if child_end > start and child_start < end
        ]
        result.append((end - start) - _union_length(clipped))
    return result


def totals_by_name(
    names: Sequence[str], selfs: Sequence[float]
) -> Dict[str, Tuple[float, int]]:
    out: Dict[str, Tuple[float, int]] = {}
    for name, value in zip(names, selfs):
        total, count = out.get(name, (0.0, 0))
        out[name] = (total + value, count + 1)
    return out
