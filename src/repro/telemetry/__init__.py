"""Zero-dependency observability for the DR-BW pipeline.

Three instruments, one session object:

* :class:`~repro.telemetry.spans.Tracer` — nested span tracing with
  wall/CPU time per pipeline stage (engine run, sample collection,
  attribution, resampling, feature extraction, classification,
  diagnosis);
* :class:`~repro.telemetry.metrics.MetricsRegistry` — counters, gauges,
  and fixed-bucket histograms (samples per memory level, per-channel
  remote latency, drop reasons, classifier leaf margins);
* :mod:`~repro.telemetry.timeline` — NUMAscope-style per-channel
  bandwidth/utilization timelines captured from the engine's interval
  solver.

Library code is instrumented *unconditionally* against the module-level
active session (:func:`get_telemetry`), which defaults to a disabled
singleton whose every operation is a no-op.  Enabling telemetry is the
caller's move::

    from repro import telemetry

    with telemetry.session() as tel:
        profile = profiler.profile(workload, 32, 4)
    tel.tracer.records        # stage spans
    tel.metrics.to_dict()     # pipeline metrics
    tel.timelines             # per-channel utilization series

Artifact export/load lives in :mod:`repro.telemetry.artifact`; the text
dashboard over an exported artifact in
:mod:`repro.telemetry.dashboard`.  The whole subsystem is stdlib + numpy
only, and its self-overhead is asserted (<3% on the Table VII benchmark)
by ``benchmarks/bench_table7_overhead.py``.
"""

from __future__ import annotations

import contextlib
import contextvars

from repro._lazy import lazy_exports
from repro.telemetry.metrics import NULL_METRICS, MetricsRegistry
from repro.telemetry.spans import Tracer

__getattr__, __dir__, _lazy_names = lazy_exports(__name__, {
    "repro.telemetry.metrics": ("LATENCY_BUCKETS", "MARGIN_BUCKETS"),
    "repro.telemetry.spans": ("NULL_SPAN", "SpanRecord"),
    "repro.telemetry.timeline": (
        "ResourceTimeline",
        "capture_run_timelines",
        "dump_timelines",
        "load_timelines",
    ),
})
__all__ = [
    "Telemetry", "get_telemetry", "session", "Tracer", "MetricsRegistry",
    *_lazy_names,
]


class Telemetry:
    """One observability session: tracer + metrics + captured timelines."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.tracer = Tracer(enabled=enabled)
        self.metrics = MetricsRegistry() if enabled else NULL_METRICS
        self.timelines: list[ResourceTimeline] = []

    def span(self, name: str, **attrs: object):
        """Shorthand for ``self.tracer.span(...)``."""
        return self.tracer.span(name, **attrs)


#: Disabled singleton the instrumentation sees when no session is active.
_DISABLED = Telemetry(enabled=False)

#: The active session is a context variable, not a module global: the
#: profiling service runs jobs on concurrent worker threads, each under
#: its own session, and a ``ContextVar`` keeps those activations from
#: clobbering one another (each thread starts from a fresh context).
_active: contextvars.ContextVar[Telemetry] = contextvars.ContextVar(
    "drbw_telemetry", default=_DISABLED
)


def get_telemetry() -> Telemetry:
    """The active session in this context, or the shared disabled one."""
    return _active.get()


@contextlib.contextmanager
def session(tel: Telemetry | None = None):
    """Activate a telemetry session for the duration of the block.

    Sessions do not nest: entering a new session while one is active
    simply shadows it for the block.  Activation is per execution
    context (thread / task), so concurrent service workers each see only
    their own session.
    """
    tel = tel if tel is not None else Telemetry(enabled=True)
    token = _active.set(tel)
    try:
        yield tel
    finally:
        _active.reset(token)
