"""In-memory spans around calls into the repro layers.

The benchmark records spans from its own files only: it wraps the five
engine primitives of :mod:`repro.core.engine` for the duration of a traced
fit and opens spans around its own calls to ``SafePipeline.fit`` and
``FeaturePlan.apply_*``. Nothing inside ``repro`` is changed.

Once given a SparkContext, each span runs under its own Spark job group, so
the jobs, tasks and failed tasks it caused can be read back from the status
tracker when the run ends.
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field

#: engine primitives wrapped in a traced fit; the count kwarg records the
#: size of the primitive's input (columns, combinations or specs)
ENGINE_PRIMITIVES = {
    "fit_gbdt": ("cols_in", 1),
    "gain_ratios": ("combos_in", 2),
    "iv": ("cols_in", 1),
    "corr": ("cols_in", 1),
    "add_generated": ("specs_in", 1),
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    trace_id: int  # id of the root span: shared by every span of one fit
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


class Tracer:
    """Collects spans. Setting ``sc`` to a SparkContext turns on job-group
    accounting for the spans opened from then on."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.sc = None

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def self_time(self, span: Span) -> float:
        """The span's duration minus the part its child spans cover."""
        kids = [(c.start, c.end) for c in self.children(span)]
        return span.duration - covered(span.start, span.end, kids)

    @contextmanager
    def span(self, name: str, **counts):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        s = Span(
            sid, name, parent.id if parent else None,
            parent.trace_id if parent else sid, time.perf_counter(), counts=counts,
        )
        self.spans.append(s)
        self._stack.append(s)
        self._set_group(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            self._set_group(parent)

    def _set_group(self, span: Span | None) -> None:
        if self.sc is None:
            return
        if span is None:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
        else:
            self.sc.setJobGroup(f"perfbench-{span.id}", span.name)

    @contextmanager
    def instrument_engines(self, *engine_classes):
        """Wrap the engine primitives of ``engine_classes`` in spans.

        ``fit_gbdt`` is named ``engine.fit_gbdt_mining`` for the first call
        under its parent span and ``engine.fit_gbdt_ranking`` for the
        second, and so on alternately (one pair per SAFE iteration).
        """
        saved = []
        for cls in engine_classes:
            for attr, (count_name, arg_pos) in ENGINE_PRIMITIVES.items():
                orig = cls.__dict__[attr]
                saved.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(orig, attr, count_name, arg_pos))
        try:
            yield
        finally:
            for cls, attr, orig in saved:
                setattr(cls, attr, orig)

    def _wrap(self, fn, attr: str, count_name: str, arg_pos: int):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = f"engine.{attr}"
            if attr == "fit_gbdt":
                parent = self._stack[-1] if self._stack else None
                n_prev = sum(
                    1 for s in self.spans
                    if parent and s.parent == parent.id and s.name.startswith(name)
                )
                name += "_ranking" if n_prev % 2 else "_mining"
            with self.span(name, **{count_name: len(args[arg_pos])}) as s:
                out = fn(*args, **kwargs)
                if attr == "fit_gbdt":
                    s.counts["trees"] = len(out.trees_)
                return out

        return wrapper

    def collect_spark_counts(self) -> None:
        """Attach ``spark_jobs``/``spark_tasks``/``spark_tasks_failed`` to
        every span: the Spark work submitted under its own job group
        (children's work stays with the children)."""
        if self.sc is None:
            return
        _drain_listener_bus(self.sc)
        tracker = self.sc.statusTracker()
        for s in self.spans:
            jobs = tracker.getJobIdsForGroup(f"perfbench-{s.id}")
            tasks = failed = 0
            for jid in jobs:
                info = tracker.getJobInfo(jid)
                for sid in info.stageIds if info else ():
                    st = tracker.getStageInfo(sid)
                    if st is not None:
                        tasks += st.numCompletedTasks
                        failed += st.numFailedTasks
            s.counts.update(spark_jobs=len(jobs), spark_tasks=tasks, spark_tasks_failed=failed)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def _drain_listener_bus(sc, timeout_ms: int = 30_000) -> None:
    """Wait until job/stage end events reach the status store."""
    sc._jsc.sc().listenerBus().waitUntilEmpty(timeout_ms)


def maybe_span(tracer: Tracer | None, name: str, **counts):
    return tracer.span(name, **counts) if tracer is not None else nullcontext()
