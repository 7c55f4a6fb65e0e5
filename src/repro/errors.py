"""Exception hierarchy for the DR-BW reproduction.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything coming from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class TopologyError(ReproError):
    """Invalid NUMA topology description or node/core lookup failure."""


class AllocationError(ReproError):
    """Heap or page allocation failed (bad size, exhausted memory, ...)."""


class InvalidAddressError(ReproError):
    """An address does not fall inside any mapped page or allocation."""


class BindingError(ReproError):
    """Thread-to-core binding request cannot be satisfied."""


class WorkloadError(ReproError):
    """Malformed workload description (unknown object, bad phase, ...)."""


class SimulationError(ReproError):
    """The execution engine reached an inconsistent state."""


class ModelError(ReproError):
    """Classifier misuse: predicting before fitting, bad feature matrix."""


class ConfigError(ReproError):
    """Invalid experiment configuration (thread/node combination, ...)."""


class FaultError(ConfigError):
    """Invalid fault-injection plan (rate out of range, bad spec string)."""


class InsufficientSamplesError(ModelError):
    """A channel's sample batch fell below the minimum-sample floor."""


class TelemetryError(ReproError):
    """A telemetry artifact is missing, malformed, or unreadable."""


class MonitorError(ReproError):
    """Invalid live-monitor configuration, alert rule, or event stream."""


class ParallelError(ReproError):
    """Invalid campaign shard spec, worker failure, or unserializable value."""


class WorkerLostError(ParallelError):
    """A worker process died mid-shard (crash, kill, broken pool).

    Transient by definition — the shard itself is deterministic, so the
    campaign runner retries it on a fresh pool rather than failing the
    whole campaign."""


class DeadlineExceededError(ReproError):
    """A bounded operation (shard, service job) ran past its deadline."""


class ShardQuarantinedError(ParallelError):
    """A shard kept failing after bounded retries and was quarantined."""


class CacheError(ParallelError):
    """The shard result cache is unusable (bad directory, broken entry)."""


class ServiceError(ReproError):
    """Invalid service job spec, unknown job, or misconfigured daemon."""


class ServiceSaturatedError(ServiceError):
    """The service job queue is full; retry after backoff (HTTP 429)."""

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class FleetError(ReproError):
    """Invalid fleet wire record, aggregator misuse, or fleet rule."""


class SloError(ReproError):
    """Invalid SLO spec, loadgen configuration, or SLO report document."""
