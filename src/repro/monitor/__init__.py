"""Streaming observability: live contention detection during a run.

The batch pipeline answers "was there contention?" after a run ends;
this package answers "is there contention *now*?" while it executes.
:meth:`Profiler.profile_live <repro.core.profiler.Profiler.profile_live>`
streams each simulation interval's attributed samples into a
:class:`LiveMonitor`, which maintains sliding-window Table I features
per channel (:mod:`~repro.monitor.windows`), classifies every window
with the fitted decision tree under N-of-M hysteresis
(:mod:`~repro.monitor.detector`), evaluates declarative alert rules
(:mod:`~repro.monitor.alerts`), appends a JSONL event stream
(:mod:`~repro.monitor.events`), and exposes everything as Prometheus
text over stdlib HTTP (:mod:`~repro.monitor.exposition`,
:mod:`~repro.monitor.httpserver`).  ``drbw monitor`` wires it all to a
terminal dashboard (:mod:`~repro.monitor.dashboard`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.monitor.alerts": (
        "DEFAULT_ALERT_RULES",
        "AlertEngine",
        "AlertEvent",
        "AlertRule",
        "parse_alert_rules",
    ),
    "repro.monitor.dashboard": (
        "render_monitor_frame",
        "render_window_line",
        "value_sparkline",
    ),
    "repro.monitor.demo": ("make_monitor_demo_workload",),
    "repro.monitor.detector": (
        "HysteresisConfig",
        "OnlineDetector",
        "StatusTransition",
    ),
    "repro.monitor.events": (
        "EVENT_KINDS",
        "EventLog",
        "read_events",
        "validate_event",
    ),
    "repro.monitor.exposition": (
        "CONTENT_TYPE",
        "render_prometheus",
        "render_prometheus_multi",
    ),
    "repro.monitor.httpserver": ("MetricsServer",),
    "repro.monitor.monitor": (
        "ChannelView",
        "LiveMonitor",
        "MonitorConfig",
        "WindowSnapshot",
    ),
    "repro.monitor.windows": (
        "FeatureWindows",
        "IntervalStats",
        "interval_stats",
    ),
})
