"""Spans around the benchmark's calls into bie2d's layers.

A span records one call at a named site (``<module>.<function>``): the op it
belongs to, wall time, the tracemalloc peak above the bytes held at entry,
the bytes still held at exit, and whether the call raised.  Spans live in
memory; the benchmark aggregates them when it ends.  With tracing off a span
records nothing.
"""

import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass

# the sites the benchmark wraps, by layer
SITES = (
    "geometry.build_mesh",
    "operators.operator_set",
    "solvers.neumann_interior",
    "solvers.neumann_exterior",
    "solvers.dirichlet_interior",
    "solvers.dirichlet_exterior",
    "potentials.HarmonicField.eval",
    "verify.run_verify",
    "cli.load_config",
    "cli.build_data",
    "cli.write_field_csv",
)

MB = 1024.0 * 1024.0


@dataclass
class Span:
    site: str
    op: int | None  # None for set-up calls
    seconds: float
    alloc_peak: int
    retained: int
    raised: bool


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = None
        self.spans = []

    @contextmanager
    def on(self):
        """Record spans, with tracemalloc running, inside the block."""
        tracemalloc.start()
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False
            tracemalloc.stop()

    @contextmanager
    def span(self, site):
        if not self.enabled:
            yield
            return
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        raised = True
        t0 = time.perf_counter()
        try:
            yield
            raised = False
        finally:
            seconds = time.perf_counter() - t0
            now, peak = tracemalloc.get_traced_memory()
            self.spans.append(Span(site, self.op, seconds, peak - held, now - held, raised))


def _median(values):
    return statistics.median(values) if values else 0.0


def site_metrics(spans, op_seconds):
    """(value, unit) of calls, p50_ms, share of op time, alloc_peak_mb,
    retained_mb and failed, by ``<site>.<stat>``."""
    out = {}
    for site in SITES:
        mine = [s for s in spans if s.site == site]
        in_ops = sum(s.seconds for s in mine if s.op is not None)
        stats = {
            "calls": (len(mine), "count"),
            "p50_ms": (1e3 * _median([s.seconds for s in mine]), "ms"),
            "share": (in_ops / op_seconds if op_seconds else 0.0, "ratio"),
            "alloc_peak_mb": (_median([s.alloc_peak for s in mine]) / MB, "MB"),
            "retained_mb": (_median([s.retained for s in mine]) / MB, "MB"),
            "failed": (sum(s.raised for s in mine), "count"),
        }
        out.update((f"{site}.{stat}", value_unit) for stat, value_unit in stats.items())
    return out
