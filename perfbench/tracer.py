"""In-memory span tracer that wraps library functions from the outside.

The tracer installs wrappers around named functions and methods of the
``repro`` package for the duration of one traced run and restores the
originals afterwards; nothing under ``src/`` knows it exists.  Each call
through a wrapper records one span ``(name, start, end, parent)`` in memory,
plus a row count where the target declares one.  The spans are written out
once, at the end, by :meth:`Tracer.dump`.

A span's *self time* is its duration minus the time covered by its direct
child spans.  Calls are strictly nested on one thread, so children never
overlap and the covered time is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Target:
    """One function or method to wrap.

    ``path`` is ``"package.module:function"`` or ``"package.module:Class.method"``.
    ``rows`` optionally maps the call's positional arguments (``self``
    included for methods) to the number of rows the call processed.
    """

    name: str
    path: str
    rows: Optional[Callable[[tuple], int]] = None


def leading_rows(position: int) -> Callable[[tuple], int]:
    """Row counter reading ``len`` of the positional argument ``position``."""

    def count(args: tuple) -> int:
        value = args[position]
        shape = getattr(value, "shape", None)
        if shape is not None:
            return int(shape[0]) if len(shape) > 1 else 1
        return len(value)

    return count


class Tracer:
    """Collects spans from installed wrappers; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: Parallel span columns, one entry per span in opening order.
        self.span_name: List[int] = []
        self.span_start: List[float] = []
        self.span_end: List[float] = []
        self.span_parent: List[int] = []
        self.rows: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn: Callable, rows=None) -> Callable:
        """Return ``fn`` wrapped so that every call records one span."""
        name_id = self._name_id(name)
        clock = self.clock
        stack = self._stack
        names, starts, ends, parents = (
            self.span_name,
            self.span_start,
            self.span_end,
            self.span_parent,
        )
        row_totals = self.rows

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                if rows is not None:
                    row_totals[name] += rows(args)

        traced.__wrapped_by_tracer__ = True
        return traced

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #
    def install(self, targets: Sequence[Target]) -> None:
        """Wrap every target.

        A method is replaced on its class.  A module-level function is
        replaced in its home module *and* in every loaded module that bound
        the same object under the same name with ``from ... import``, so
        callers that resolve it through either namespace see the wrapper.
        """
        for target in targets:
            module_name, _, attr_path = target.path.partition(":")
            owner = importlib.import_module(module_name)
            *owners, attr = attr_path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapped = self.wrap(target.name, original, target.rows)
            if isinstance(owner, type):
                self._replace(owner, attr, original, wrapped)
                continue
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if namespace is not None and namespace.get(attr) is original:
                    self._replace(module, attr, original, wrapped)

    def _replace(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original, wrapped))

    def uninstall(self) -> None:
        """Put every original function back, newest wrapper first.

        Modules imported while the wrappers were installed may have bound a
        wrapper with ``from ... import``; those bindings are restored too.
        """
        originals = {id(wrapped): original for _, _, original, wrapped in self._restore}
        while self._restore:
            owner, attr, original, _ = self._restore.pop()
            setattr(owner, attr, original)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if namespace is None:
                continue
            for attr, value in list(namespace.items()):
                if id(value) in originals and getattr(value, "__wrapped_by_tracer__", False):
                    setattr(module, attr, originals[id(value)])

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"calls", "s" (self seconds), "total_s", "rows"}}``."""
        durations = [end - start for start, end in zip(self.span_start, self.span_end)]
        child_time = [0.0] * len(durations)
        for index, parent in enumerate(self.span_parent):
            if parent >= 0:
                child_time[parent] += durations[index]
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "s": 0.0, "total_s": 0.0, "rows": self.rows.get(name, 0)}
            for name in self.names
        }
        for index, name_id in enumerate(self.span_name):
            entry = out[self.names[name_id]]
            entry["calls"] += 1
            entry["s"] += durations[index] - child_time[index]
            entry["total_s"] += durations[index]
        return out

    def covered_seconds(self, start: float, end: float) -> float:
        """Time inside ``[start, end]`` covered by root (parentless) spans."""
        covered = 0.0
        for span_start, span_end, parent in zip(
            self.span_start, self.span_end, self.span_parent
        ):
            if parent < 0:
                covered += max(0.0, min(span_end, end) - max(span_start, start))
        return covered

    def dump(self, path: str) -> None:
        """Write every span to ``path`` as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "names": self.names,
                    "columns": ["name", "start", "end", "parent"],
                    "spans": list(
                        zip(self.span_name, self.span_start, self.span_end, self.span_parent)
                    ),
                },
                handle,
            )
