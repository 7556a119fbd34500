"""Crash recovery and graceful degradation for the campaign service.

Four pieces turn :class:`~repro.service.api.CampaignService` from a
happy-path demo into a service that survives its own failures:

* :mod:`~repro.service.resilience.journal` — the write-ahead,
  hash-chained JSONL job journal and the chaos :class:`CrashPlan`;
* :mod:`~repro.service.resilience.supervisor` — per-job deadlines,
  heartbeat monitoring, bounded :class:`RetryPolicy` retry and
  poison-job quarantine;
* :mod:`~repro.service.resilience.breaker` — per-workload
  closed/open/half-open circuit breakers with seeded probe jitter;
* :mod:`~repro.service.resilience.shedding` — admission-control load
  shedding at queue-depth / tenant-backlog high-water marks.

Everything here is deterministic on the service's virtual clock, which
is what makes crash recovery exact: replaying the journaled prefix
through the normal code paths regenerates the interrupted session
bit-for-bit (:func:`repro.determinism.service_digest` parity, proven
across 25 seeds by ``make chaos-service``).
"""

from repro.service.resilience.breaker import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BreakerConfig,
    CircuitBreaker,
)
from repro.service.resilience.journal import (
    GENESIS_DIGEST,
    RECORD_ADMIT,
    RECORD_COMPLETE,
    RECORD_DISPATCH,
    RECORD_FAIL,
    RECORD_OPEN,
    RECORD_QUARANTINE,
    RECORD_RECOVER,
    RECORD_REJECT,
    RECORD_SUBMIT,
    RECORD_TENANT,
    RECORD_TYPES,
    TERMINAL_RECORD_TYPES,
    CrashPlan,
    JobJournal,
    JournalReadResult,
    JournalRecord,
    read_journal,
)
from repro.service.resilience.shedding import SheddingPolicy
from repro.service.resilience.supervisor import (
    HeartbeatMonitor,
    RetryPolicy,
    SupervisorConfig,
    job_jitter_rng,
)

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "GENESIS_DIGEST",
    "RECORD_ADMIT",
    "RECORD_COMPLETE",
    "RECORD_DISPATCH",
    "RECORD_FAIL",
    "RECORD_OPEN",
    "RECORD_QUARANTINE",
    "RECORD_RECOVER",
    "RECORD_REJECT",
    "RECORD_SUBMIT",
    "RECORD_TENANT",
    "RECORD_TYPES",
    "TERMINAL_RECORD_TYPES",
    "BreakerConfig",
    "CircuitBreaker",
    "CrashPlan",
    "HeartbeatMonitor",
    "JobJournal",
    "JournalReadResult",
    "JournalRecord",
    "RetryPolicy",
    "SheddingPolicy",
    "SupervisorConfig",
    "job_jitter_rng",
    "read_journal",
]
