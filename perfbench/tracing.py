"""The traced run's instruments: spans, GC pauses and a module profile.

Spans are recorded from the benchmark's own files only: the tracer
wraps, for the duration of one timed section, the public functions and
methods through which the workloads call into each layer.  Nothing
inside ``src/`` is edited.  Spans stay in memory and are returned with
the iteration's result.
"""

from __future__ import annotations

import cProfile
import functools
import gc
import importlib
import pstats
from contextlib import contextmanager
from time import perf_counter

#: (module, attribute path, span name): the layer boundaries wrapped in
#: a traced run.  ``generate_trace`` is wrapped where the pipeline's
#: tasks call it, so a workload's own untimed set-up is never traced.
BOUNDARIES = (
    ("repro.experiments.registry", "build_traces", "pipeline.build_traces"),
    ("repro.experiments.registry", "build_accesses", "pipeline.build_accesses"),
    (
        "repro.experiments.registry",
        "build_cluster_results",
        "pipeline.build_cluster_results",
    ),
    ("repro.pipeline.tasks", "generate_trace", "workload.generate_trace"),
    ("repro.pipeline.scaleout", "generate_trace", "workload.generate_trace"),
    ("repro.pipeline.scaleout", "merge_cluster_results", "pipeline.merge"),
    ("repro.fs.cluster", "Cluster.__init__", "fs.construct"),
    ("repro.fs.cluster", "Cluster.replay", "fs.replay"),
    ("repro.pipeline.cache", "ArtifactCache.load", "pipeline.cache_get"),
    ("repro.pipeline.cache", "ArtifactCache.store", "pipeline.cache_put"),
)

#: Modules the profile attributes self time to, most specific first.
#: ``builtins`` is C code (cProfile's ``~`` file); anything else under
#: ``repro/fs`` is ``fs.other``, and the rest ``other``.
PROFILE_MODULES = (
    "fs.client",
    "fs.cluster",
    "fs.cache",
    "fs.server",
    "fs.rpc",
    "fs.replication",
    "fs.integrity",
    "fs.oracle",
    "fs.counters",
    "fs.other",
    "sim",
    "common.rng",
    "trace",
    "workload",
    "analysis",
    "caching",
    "consistency",
    "pipeline.codec",
    "builtins",
    "other",
)


class SpanRecorder:
    """Nested spans on one thread: (name, start, end, parent index)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, func, name: str):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap every boundary in :data:`BOUNDARIES`."""
        for module_name, path, name in BOUNDARIES:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds, self seconds, call count.

        A span's self time is its duration minus the time its direct
        children cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0})
            entry["total"] += end - start
            entry["self"] += end - start - child_time[index]
            entry["calls"] += 1
        return out


class GcMeter:
    """Collections and pause time through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = 0
        self.full_collections = 0
        self.pause_s = 0.0
        self._start = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = perf_counter()
            return
        self.pause_s += perf_counter() - self._start
        self.collections += 1
        if info["generation"] == 2:
            self.full_collections += 1

    def __enter__(self) -> "GcMeter":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


def module_of(filename: str) -> str:
    """The :data:`PROFILE_MODULES` entry a profiled function belongs to."""
    if filename == "~":
        return "builtins"
    marker = "/repro/"
    at = filename.replace("\\", "/").rfind(marker)
    if at < 0:
        return "other"
    dotted = filename[at + len(marker):].removesuffix(".py").replace("/", ".")
    for module in PROFILE_MODULES:
        if dotted == module or dotted.startswith(module + "."):
            return module
    return "fs.other" if dotted.startswith("fs.") else "other"


@contextmanager
def module_profile(shares: dict[str, float]):
    """Profile the body; fill ``shares`` with each module's share of
    the profiled self time."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
    self_time = dict.fromkeys(PROFILE_MODULES, 0.0)
    for (filename, _, _), stat in pstats.Stats(profiler).stats.items():
        self_time[module_of(filename)] += stat[2]
    total = sum(self_time.values()) or 1.0
    shares.update({m: t / total for m, t in self_time.items()})
