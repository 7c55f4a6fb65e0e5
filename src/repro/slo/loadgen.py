"""Open- and closed-loop load generation against a live profiling service.

Two generators over :class:`~repro.service.client.ServiceClient`:

* :func:`run_closed_loop` — ``concurrency`` workers in a tight
  request/response loop for ``duration_s``.  Offered load adapts to the
  service (a slow server is offered less), which is what you want for
  measuring the throughput ceiling and for concurrency sweeps.
* :func:`run_open_loop` — a fixed arrival schedule at ``target_rps``
  regardless of completions, latencies measured from the *scheduled*
  arrival instant (not dispatch), so queueing delay behind a saturated
  sender pool is charged to the service — the standard defense against
  coordinated omission.

Every request is a full submit → poll → result round trip with its own
trace context (the client mints one per submission), so a loadgen run
leaves a joinable access log behind on the server.  Latencies are kept
both ways: the exact per-request list (ground truth for quantiles) and a
fixed-bucket :class:`~repro.telemetry.metrics.Histogram` whose
interpolated quantiles the SLO report cross-checks against the exact
ones — the same cross-check CI applies to the server-side histograms.

:func:`concurrency_sweep` + :func:`detect_knee` find the saturation
knee: the first sweep step whose marginal throughput per added worker
collapses below half the low-concurrency slope (or goes negative).
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import ServiceError, ServiceSaturatedError, SloError
from repro.service.client import ServiceClient
from repro.telemetry.metrics import Histogram

__all__ = [
    "LATENCY_BUCKETS_S",
    "LoadgenResult",
    "run_closed_loop",
    "run_open_loop",
    "concurrency_sweep",
    "detect_knee",
]

#: Request-latency histogram buckets (seconds), 1 ms to 30 s.
LATENCY_BUCKETS_S: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Poll interval for loadgen waits — short, so measured latency is the
#: service's, not the poller's.
_POLL_S = 0.005


def _resolve_spec(job_spec, k: int) -> dict:
    """``job_spec`` is either one fixed dict (every request is the same
    job — exercises coalescing and the warm cache) or a factory over the
    request index (distinct jobs — every request is real work)."""
    return job_spec(k) if callable(job_spec) else job_spec


@dataclass
class LoadgenResult:
    """One load-generation run's raw outcome."""

    mode: str
    duration_s: float
    concurrency: int | None = None
    target_rps: float | None = None
    offered: int = 0
    ok: int = 0
    failed: int = 0
    rate_limited: int = 0
    #: Exact client-side latencies (seconds) of successful requests.
    latencies_s: list[float] = field(default_factory=list)
    histogram: Histogram = field(
        default_factory=lambda: Histogram(LATENCY_BUCKETS_S)
    )

    @property
    def availability(self) -> float:
        """Fraction of attempted requests that succeeded (429s count
        against it: a turned-away user is a failed user)."""
        return self.ok / self.offered if self.offered else 0.0

    @property
    def error_rate(self) -> float:
        return self.failed / self.offered if self.offered else 0.0

    @property
    def rate_limited_rate(self) -> float:
        return self.rate_limited / self.offered if self.offered else 0.0

    @property
    def achieved_rps(self) -> float:
        return self.ok / self.duration_s if self.duration_s > 0 else 0.0

    def exact_quantile(self, q: float) -> float:
        """The order statistic of rank ``ceil(q * n)`` (inverse CDF)."""
        if not 0.0 <= q <= 1.0:
            raise SloError(f"quantile must be in [0, 1], got {q}")
        if not self.latencies_s:
            return math.nan
        ordered = sorted(self.latencies_s)
        rank = max(1, math.ceil(q * len(ordered)))
        return ordered[rank - 1]

    def interpolated_quantile(self, q: float) -> float:
        """Histogram-interpolated quantile (what a server scrape yields)."""
        return self.histogram.quantile(q)

    def record(self, outcome: str, latency_s: float | None = None) -> None:
        """Account one finished request (``ok``/``failed``/``rate_limited``)."""
        self.offered += 1
        if outcome == "ok":
            self.ok += 1
            if latency_s is not None:
                self.latencies_s.append(latency_s)
                self.histogram.observe(latency_s)
        elif outcome == "rate_limited":
            self.rate_limited += 1
        else:
            self.failed += 1

    def to_dict(self) -> dict:
        """JSON-ready summary (exact latencies folded into quantiles)."""
        quantiles = {}
        for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            exact = self.exact_quantile(q)
            interp = self.interpolated_quantile(q)
            entry: dict[str, object] = {
                "exact_ms": None if math.isnan(exact) else round(exact * 1e3, 3),
                "interpolated_ms": (
                    None if math.isnan(interp) else round(interp * 1e3, 3)
                ),
            }
            if not math.isnan(exact) and not math.isnan(interp):
                width = self.histogram.bucket_width(exact)
                entry["within_one_bucket"] = bool(
                    abs(interp - exact) <= width + 1e-12
                )
                entry["bucket_width_ms"] = round(width * 1e3, 3)
            quantiles[label] = entry
        return {
            "mode": self.mode,
            "duration_s": round(self.duration_s, 3),
            "concurrency": self.concurrency,
            "target_rps": self.target_rps,
            "offered": self.offered,
            "ok": self.ok,
            "failed": self.failed,
            "rate_limited": self.rate_limited,
            "availability": round(self.availability, 6),
            "error_rate": round(self.error_rate, 6),
            "rate_limited_rate": round(self.rate_limited_rate, 6),
            "achieved_rps": round(self.achieved_rps, 3),
            "quantiles": quantiles,
        }


def _one_request(
    client: ServiceClient,
    job_spec: dict,
    timeout: float,
    result: LoadgenResult,
    lock: threading.Lock,
    t_arrival: float,
) -> None:
    """Issue one round trip and account it (latency from ``t_arrival``)."""
    try:
        client.run(job_spec, timeout=timeout, poll_s=_POLL_S)
    except ServiceSaturatedError:
        with lock:
            result.record("rate_limited")
        return
    except ServiceError:
        with lock:
            result.record("failed")
        return
    latency = time.perf_counter() - t_arrival
    with lock:
        result.record("ok", latency)


def run_closed_loop(
    url: str,
    job_spec: dict | Callable[[int], dict],
    *,
    concurrency: int,
    duration_s: float,
    timeout: float = 30.0,
    client_factory: Callable[[str], ServiceClient] = ServiceClient,
) -> LoadgenResult:
    """``concurrency`` workers issuing back-to-back requests for ``duration_s``."""
    if concurrency < 1:
        raise SloError(f"concurrency must be >= 1, got {concurrency}")
    if duration_s <= 0:
        raise SloError(f"duration_s must be > 0, got {duration_s}")
    result = LoadgenResult(
        mode="closed", duration_s=duration_s, concurrency=concurrency
    )
    lock = threading.Lock()
    counter = itertools.count()  # CPython-atomic request index
    t_start = time.perf_counter()
    deadline = t_start + duration_s

    def worker() -> None:
        client = client_factory(url)
        while True:
            t0 = time.perf_counter()
            if t0 >= deadline:
                return
            spec = _resolve_spec(job_spec, next(counter))
            _one_request(client, spec, timeout, result, lock, t0)

    threads = [
        threading.Thread(target=worker, name=f"drbw-loadgen-{i}", daemon=True)
        for i in range(concurrency)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    result.duration_s = time.perf_counter() - t_start
    return result


def run_open_loop(
    url: str,
    job_spec: dict | Callable[[int], dict],
    *,
    target_rps: float,
    duration_s: float,
    timeout: float = 30.0,
    max_inflight: int = 64,
    client_factory: Callable[[str], ServiceClient] = ServiceClient,
) -> LoadgenResult:
    """A fixed arrival schedule at ``target_rps`` for ``duration_s``.

    Arrivals are scheduled on the clock, not on completions; each
    request's latency is measured from its *scheduled* arrival instant,
    so time spent queued behind ``max_inflight`` busy senders counts
    against the service (no coordinated omission).  The run waits for
    in-flight requests to finish before returning, but achieved RPS is
    computed over the arrival window.
    """
    if target_rps <= 0:
        raise SloError(f"target_rps must be > 0, got {target_rps}")
    if duration_s <= 0:
        raise SloError(f"duration_s must be > 0, got {duration_s}")
    if max_inflight < 1:
        raise SloError(f"max_inflight must be >= 1, got {max_inflight}")
    result = LoadgenResult(
        mode="open", duration_s=duration_s, target_rps=target_rps
    )
    lock = threading.Lock()
    interval = 1.0 / target_rps
    n_arrivals = max(1, int(target_rps * duration_s))
    # One client per sender slot, lazily bound to the executor thread.
    local = threading.local()

    def send(k: int, t_sched: float) -> None:
        client = getattr(local, "client", None)
        if client is None:
            client = local.client = client_factory(url)
        spec = _resolve_spec(job_spec, k)
        _one_request(client, spec, timeout, result, lock, t_sched)

    t_start = time.perf_counter()
    with ThreadPoolExecutor(
        max_workers=max_inflight, thread_name_prefix="drbw-loadgen"
    ) as pool:
        for k in range(n_arrivals):
            t_sched = t_start + k * interval
            now = time.perf_counter()
            if t_sched > now:
                time.sleep(t_sched - now)
            pool.submit(send, k, t_sched)
        # Context exit waits for the queue to drain; each request is
        # bounded by ``timeout``, so the drain is bounded too.
    result.duration_s = max(duration_s, 1e-9)
    return result


def concurrency_sweep(
    url: str,
    job_spec: dict | Callable[[int], dict],
    *,
    concurrencies: Sequence[int],
    duration_s: float,
    timeout: float = 30.0,
    client_factory: Callable[[str], ServiceClient] = ServiceClient,
) -> list[LoadgenResult]:
    """One closed-loop run per concurrency level, in the given order."""
    if not concurrencies:
        raise SloError("concurrency sweep needs at least one level")
    return [
        run_closed_loop(
            url,
            job_spec,
            concurrency=c,
            duration_s=duration_s,
            timeout=timeout,
            client_factory=client_factory,
        )
        for c in concurrencies
    ]


def detect_knee(
    results: Sequence[LoadgenResult], *, slope_fraction: float = 0.5
) -> dict | None:
    """The saturation knee of a concurrency sweep, or ``None``.

    The knee is the first sweep step whose marginal throughput per added
    worker drops below ``slope_fraction`` of the base slope (throughput
    per worker at the lowest concurrency) — beyond it, added concurrency
    buys queueing, not throughput.  Returns the knee point and both
    slopes; ``None`` when the sweep never bends (the service was not
    driven to saturation) or has fewer than two levels.
    """
    points = [
        (r.concurrency, r.achieved_rps)
        for r in results
        if r.concurrency is not None
    ]
    points.sort()
    if len(points) < 2:
        return None
    c0, r0 = points[0]
    if c0 <= 0 or r0 <= 0:
        return None
    base_slope = r0 / c0
    prev_c, prev_r = c0, r0
    for c, r in points[1:]:
        if c == prev_c:  # repeated level (e.g. a re-run): no slope to take
            prev_r = max(prev_r, r)
            continue
        marginal = (r - prev_r) / (c - prev_c)
        if marginal < slope_fraction * base_slope:
            return {
                "concurrency": prev_c,
                "achieved_rps": round(prev_r, 3),
                "next_concurrency": c,
                "marginal_rps_per_worker": round(marginal, 3),
                "base_rps_per_worker": round(base_slope, 3),
            }
        prev_c, prev_r = c, r
    return None
