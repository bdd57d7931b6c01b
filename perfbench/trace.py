"""In-memory span tracing installed around ``repro``'s public functions.

The program under test carries no timers, so the traced run wraps the
functions and methods that bound each layer at call time (see
:data:`LAYERS`) and restores them afterwards.  A span records its name,
start, end (``perf_counter_ns``) and the span open on the same thread
when it began; a layer's self time is its duration minus its children's.
Spans stay in memory until :meth:`Tracer.dump` writes them out.

Work that runs inside the job server's process pool cannot be seen from
the parent, so the batch function the pool runs is swapped for
:func:`timed_execute_batch`, which measures itself in the worker and
ships the elapsed time back with the records; the parent turns it into a
span when the block comes back (:meth:`Tracer.install`).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int  # index into Tracer.spans, -1 at the top of a thread


class WorkerPieces(list):
    """A pool batch's per-task records plus what the worker measured."""

    backend: str = ""
    shots: int = 0
    elapsed_ns: int = 0


#: The unwrapped ``repro.serve.server._execute_batch`` while tracing is
#: installed (forked pool workers inherit it).
_INNER_EXECUTE_BATCH: Optional[Callable] = None


def timed_execute_batch(compiled, backend_name, sizes, seeds):
    """Stand-in for the server's pool-side batch function: run the real
    one and return its records as :class:`WorkerPieces` stamped with the
    engine, shot count and elapsed time of the batch."""
    inner = _INNER_EXECUTE_BATCH
    if inner is None:  # a spawned worker imports the original afresh
        from repro.serve import server

        inner = server._execute_batch
    start = time.perf_counter_ns()
    pieces = WorkerPieces(inner(compiled, backend_name, sizes, seeds))
    pieces.elapsed_ns = time.perf_counter_ns() - start
    pieces.backend = backend_name
    pieces.shots = int(sum(sizes))
    return pieces


def _count_shots(engine: str):
    def hook(tracer: "Tracer", result) -> None:
        tracer.count(f"engine.{engine}.shots", result.n_shots)

    return hook


def _count_branches(tracer: "Tracer", result) -> None:
    tracer.count("engine.density.branches", int(result.branches))
    tracer.count("engine.density.integrations", 1)


#: The layer boundaries: (module, attribute, span name, result hook).  A
#: hook receives ``(tracer, result)`` and counts work where it happens.
LAYERS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.core.solver", "MBQCQAOASolver.solve", "core.solver.solve", None),
    ("repro.core.solver", "MBQCQAOASolver.sample", "core.solver.evaluate", None),
    ("repro.core.solver", "MBQCQAOASolver.exact_expectation", "core.solver.exact_point", None),
    ("repro.core.compiler", "compile_qaoa_pattern", "core.compiler.compile", None),
    ("repro.mbqc.compile", "compile_pattern", "mbqc.compile.compile_pattern", None),
    ("repro.mbqc.compile", "lower_noise", "mbqc.compile.lower_noise", None),
    ("repro.mbqc.backend", "select_backend", "mbqc.backend.select", None),
    ("repro.analysis.resources", "estimate_compiled", "analysis.resources.estimate", None),
    ("repro.mbqc.backend", "StatevectorBackend.sample_batch", "engine.statevector.sample",
     _count_shots("statevector")),
    ("repro.mbqc.mps_backend", "MPSBackend.sample_batch", "engine.mps.sample",
     _count_shots("mps")),
    ("repro.mbqc.density_backend", "DensityMatrixBackend.integrate",
     "engine.density.integrate", _count_branches),
    ("repro.mbqc.backend", "SampleRun.sample_bitstrings", "mbqc.backend.resample", None),
    ("repro.serve.server", "JobServer.submit", "serve.server.submit", None),
    ("repro.serve.cache", "PatternCache.get_or_compile_status", "serve.cache.lookup", None),
)


class Tracer:
    """Spans and counters for one traced phase of a benchmark run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: List[Tuple[object, str, object]] = []
        self.pid = os.getpid()
        self.suspended = False

    # -- recording -----------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                Span(name, time.perf_counter_ns(), -1, stack[-1] if stack else -1)
            )
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            self.spans[index].end = time.perf_counter_ns()

    def record(self, name: str, start: int, end: int) -> None:
        """Add a span measured elsewhere (no parent)."""
        with self._lock:
            self.spans.append(Span(name, start, end, -1))

    def count(self, name: str, n: float) -> None:
        with self._lock:
            self.counters[name] += n

    @contextmanager
    def suspend(self):
        """Record nothing inside the block (set-up work before t0)."""
        self.suspended = True
        try:
            yield
        finally:
            self.suspended = False

    # -- installation --------------------------------------------------------
    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrapper(self, original: Callable, name: str, hook: Optional[Callable]):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            # Forked pool workers inherit the wrappers (and possibly a
            # held lock); their work is timed at the batch boundary.
            if tracer.suspended or os.getpid() != tracer.pid:
                return original(*args, **kwargs)
            result = tracer.call(name, original, *args, **kwargs)
            if hook is not None:
                hook(tracer, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer in :data:`LAYERS` — for a module-level function,
        at every ``repro`` module that imported it by name — and the job
        server's pool boundary."""
        global _INNER_EXECUTE_BATCH
        import importlib

        from repro.serve import server

        for module_name, qualname, span_name, hook in LAYERS:
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            traced = self._wrapper(original, span_name, hook)
            if path:  # a method: patch the class
                self._patch(owner, attr, traced)
                continue
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro") and (
                    getattr(module, attr, None) is original
                ):
                    self._patch(module, attr, traced)

        _INNER_EXECUTE_BATCH = server._execute_batch
        self._patch(server, "_execute_batch", timed_execute_batch)
        finish = server.JobServer._finish_batch
        tracer = self

        def finish_batch(srv, batch, pieces, error=None):
            if isinstance(pieces, WorkerPieces) and not tracer.suspended:
                end = time.perf_counter_ns()
                tracer.record(
                    f"engine.{pieces.backend}.sample", end - pieces.elapsed_ns, end
                )
                tracer.count(f"engine.{pieces.backend}.shots", pieces.shots)
            return finish(srv, batch, pieces, error)

        self._patch(server.JobServer, "_finish_batch", finish_batch)

    def uninstall(self) -> None:
        global _INNER_EXECUTE_BATCH
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        _INNER_EXECUTE_BATCH = None

    # -- reduction -----------------------------------------------------------
    def layer_totals(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (calls, inclusive ms, self ms)``; self time is a span's
        duration minus its children's (children nest on one thread)."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0 and span.end >= 0:
                child_ns[span.parent] += span.end - span.start
        totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, span in enumerate(self.spans):
            if span.end < 0:
                continue
            row = totals[span.name]
            row[0] += 1
            row[1] += (span.end - span.start) / 1e6
            row[2] += (span.end - span.start - child_ns[i]) / 1e6
        return {k: (int(v[0]), v[1], v[2]) for k, v in totals.items()}

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "start_ns": span.start,
                            "end_ns": span.end,
                            "parent": span.parent,
                        }
                    )
                    + "\n"
                )
