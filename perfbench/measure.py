"""Summaries of timing samples, failure counting and process memory.

Pure helpers with no Spark or repro import, so their tests run anywhere.
"""
from __future__ import annotations

import math
import statistics
import time
import traceback
from contextlib import contextmanager

#: a high percentile is reported only when this many samples lie beyond it
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-th percentile of ``n``."""
    return n - math.ceil(q / 100.0 * n)


def percentile(samples: list[float], q: float) -> float | None:
    """Nearest-rank ``q``-th percentile, or None when fewer than
    :data:`MIN_BEYOND` samples lie beyond it (the estimate would rest on
    a handful of outliers)."""
    n = len(samples)
    if n == 0 or samples_beyond(n, q) < MIN_BEYOND:
        return None
    return sorted(samples)[max(0, math.ceil(q / 100.0 * n) - 1)]


def median(samples: list[float]) -> float:
    return float(statistics.median(samples))


class Ops:
    """Counts attempted and failed operations (fits, applies, records, checks).

    An operation that raises is recorded as failed together with its
    traceback and the run carries on, so one failure never hides the
    metrics of the rest. ``correct`` holds only when nothing failed.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @contextmanager
    def op(self, name: str):
        self.attempted += 1
        try:
            yield
        except Exception:  # boundary: record the failure, keep measuring
            self.failed += 1
            self.errors.append(f"{name}: {traceback.format_exc(limit=3)}")

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check {name} failed {detail}".rstrip())
        return ok

    @property
    def correct(self) -> bool:
        return self.failed == 0

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def repeat_timed(fn, *, min_count: int, budget_s: float) -> list[float]:
    """Call ``fn`` at least ``min_count`` times and until ``budget_s`` of
    wall time is spent; return each call's duration in seconds."""
    durations: list[float] = []
    start = time.perf_counter()
    while len(durations) < min_count or time.perf_counter() - start < budget_s:
        t0 = time.perf_counter()
        fn()
        durations.append(time.perf_counter() - t0)
    return durations


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
