"""Span tracing around public ``repro`` entry points, from outside.

:class:`Tracer` replaces the named functions and methods with wrappers
that record one span per call — span name, start, end, parent span and
job id — into flat in-memory arrays.  Nothing inside ``src/`` changes:
module-level functions are rebound in every loaded ``repro`` (and
benchmark) module that imported them by name, methods on their class
and on each subclass that overrides them.  :meth:`Tracer.uninstall`
puts the originals back.

Wrappers must be installed before the run whose calls they should
see: objects that cache a bound method keep whichever version they
saw.  A span's self time is its duration minus its direct children's.
Per-name totals assume a wrapped call never runs inside another call
of the same name; :meth:`Tracer.summarize` rejects direct recursion.
"""

import array
import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

#: Modules whose by-name imports of a wrapped function get rebound.
PATCHED_PACKAGES = ("repro", "perfbench")


@dataclass(frozen=True)
class Target:
    """One wrapped call: ``module``'s ``qualname`` recorded as ``span``.

    ``qualname`` is ``"function"`` or ``"Class.method"``.  ``after``,
    if given, runs after each successful call as ``after(job_state,
    args, kwargs, result)`` so counts are taken at the boundary where
    the work happens.  Several targets may share one span name.
    """

    span: str
    module: str
    qualname: str
    after: Optional[Callable] = None


@dataclass
class JobSummary:
    """Per-span-name totals of one job (arrays indexed like ``names``)."""

    calls: np.ndarray
    seconds: np.ndarray
    self_seconds: np.ndarray
    #: Time covered by the job's top-level spans.
    covered: float
    spans: int


def _patched_modules() -> list:
    return [
        m
        for name, m in list(sys.modules.items())
        if name.split(".")[0] in PATCHED_PACKAGES and m is not None
    ]


def _classes_defining(cls: type, attr: str) -> List[type]:
    """``cls`` and every subclass that defines ``attr`` itself."""
    found, pending, seen = [], [cls], set()
    while pending:
        klass = pending.pop()
        if klass in seen:
            continue
        seen.add(klass)
        if attr in vars(klass):
            found.append(klass)
        pending.extend(klass.__subclasses__())
    return found


class Tracer:
    """In-memory span recorder with install/uninstall of wrappers."""

    def __init__(self, targets: Sequence[Target], end_job: Optional[Callable] = None):
        self.targets = list(targets)
        self.names: List[str] = list(dict.fromkeys(t.span for t in self.targets))
        self._name_ids = {name: i for i, name in enumerate(self.names)}
        self._end_job_hook = end_job
        self._span_name = array.array("H")
        self._start = array.array("d")
        self._end = array.array("d")
        self._parent = array.array("q")
        self._job = array.array("q")
        self._stack = [-1]
        self._patches: List[tuple] = []
        #: ``id(wrapper) -> (wrapper, original)`` for module functions.
        self._originals: Dict[int, tuple] = {}
        self.job = 0
        self.job_state: Dict[str, object] = {}
        #: Finished jobs' states, keyed by job id.
        self.job_states: Dict[int, Dict[str, object]] = {}

    # -- jobs -------------------------------------------------------------

    def begin_job(self, job: int) -> None:
        self.job = job
        self.job_state = {}

    def end_job(self) -> None:
        if self._end_job_hook is not None:
            self._end_job_hook(self.job_state)
        self.job_states[self.job] = self.job_state
        self.job_state = {}

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn: Callable, name_id: int, after: Optional[Callable]) -> Callable:
        name_append = self._span_name.append
        parent_append = self._parent.append
        job_append = self._job.append
        start_append = self._start.append
        end_append = self._end.append
        ends = self._end
        stack = self._stack
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(ends)
            name_append(name_id)
            parent_append(stack[-1])
            job_append(tracer.job)
            end_append(0.0)
            stack.append(index)
            start_append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf()
                stack.pop()
            if after is not None:
                after(tracer.job_state, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target; call before the runs to be traced."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _patched_modules()
        try:
            for target in self.targets:
                name_id = self._name_ids[target.span]
                module = importlib.import_module(target.module)
                owner_name, _, attr = target.qualname.rpartition(".")
                if owner_name:
                    for klass in _classes_defining(getattr(module, owner_name), attr):
                        raw = vars(klass)[attr]
                        if isinstance(raw, (classmethod, staticmethod)):
                            wrapped = type(raw)(self._wrap(raw.__func__, name_id, target.after))
                        else:
                            wrapped = self._wrap(raw, name_id, target.after)
                        self._patch(klass, attr, wrapped)
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(original, name_id, target.after)
                self._originals[id(wrapped)] = (wrapped, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, key, wrapped)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every wrapped attribute (latest patch first).

        A module first imported while the wrappers were in place bound
        a wrapper by name; those bindings are restored too.
        """
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        for m in _patched_modules():
            for key, value in list(vars(m).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(m, key, entry[1])
        self._originals.clear()

    # -- results ----------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._span_name, dtype=np.uint16).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "job": np.frombuffer(self._job, dtype=np.int64).copy(),
        }

    def summarize(self) -> Dict[int, JobSummary]:
        """Per-job call counts, inclusive and self seconds per span name."""
        a = self.arrays()
        name, parent, job = a["name"], a["parent"], a["job"]
        duration = a["end"] - a["start"]
        nested = parent >= 0
        if np.any(name[parent[nested]] == name[nested]):
            raise RuntimeError("a wrapped call recursed into itself")
        children = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(duration)
        )
        self_time = duration - children
        n = len(self.names)
        summaries = {}
        for j in np.unique(job):
            mine = job == j
            summaries[int(j)] = JobSummary(
                calls=np.bincount(name[mine], minlength=n),
                seconds=np.bincount(name[mine], weights=duration[mine], minlength=n),
                self_seconds=np.bincount(name[mine], weights=self_time[mine], minlength=n),
                covered=float(duration[mine & ~nested].sum()),
                spans=int(mine.sum()),
            )
        return summaries

    def save(self, path) -> None:
        """Write every recorded span (``np.savez``) for offline study."""
        np.savez(path, names=np.array(self.names), **self.arrays())
