"""Service-level objectives: load generation, quantiles, and SLO reports.

This package is the measurement half of the fleet-scale serving story:
before the service can promise anything to millions of users, someone
has to *state* the promise (a declarative :class:`~repro.slo.spec.SloSpec`
— availability, latency ceilings, sustained throughput) and *measure*
whether a live server keeps it.  Three modules:

* :mod:`~repro.slo.spec`    — the JSON SLO spec format and its loader;
* :mod:`~repro.slo.loadgen` — open-loop (target RPS) and closed-loop
  (fixed concurrency, plus concurrency sweeps with saturation-knee
  detection) load generation over
  :class:`~repro.service.client.ServiceClient`, recording exact
  client-side latencies alongside a fixed-bucket histogram;
* :mod:`~repro.slo.report`  — the ``drbw-slo-report`` artifact: measured
  rates, interpolated-vs-exact quantile cross-checks, knee, and a
  pass/fail verdict per SLO target (breach ⇒ nonzero CLI exit).

Driven by ``drbw loadgen``.  See ``docs/service.md``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.slo.loadgen": (
        "LATENCY_BUCKETS_S",
        "LoadgenResult",
        "concurrency_sweep",
        "detect_knee",
        "run_closed_loop",
        "run_open_loop",
    ),
    "repro.slo.report": (
        "SLO_REPORT_SCHEMA",
        "SLO_REPORT_SCHEMA_VERSION",
        "build_report",
        "render_report",
        "validate_slo_report",
    ),
    "repro.slo.spec": (
        "SLO_SPEC_SCHEMA",
        "SloSpec",
        "load_slo_spec",
        "parse_slo_spec",
    ),
})
