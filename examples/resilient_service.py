"""Crash-recoverable campaign service: kill it mid-session, resume it.

A long-lived testbed service dies in uninteresting ways — OOM kills,
host reboots, torn writes on the way down — and the queue it was
draining must not die with it.  This script runs the resilient service
stack end to end on one seeded session:

* every lifecycle transition is appended to a hash-chained write-ahead
  journal *before* the service acts on it;
* a supervised worker loop retries crashing/hanging jobs with seeded
  backoff, quarantines poison jobs, and trips per-workload circuit
  breakers while load shedding protects the queue;
* a seeded :class:`CrashPlan` then kills the process mid-journal-append
  (with a torn final write), and :meth:`CampaignService.recover`
  replays the journal prefix, resumes the session, and finishes it.

The punchline is the last assertion: the crashed-and-recovered session
fingerprints **bit-identically** to an uninterrupted golden run — the
crash is invisible in the ledger.

Run:  python examples/resilient_service.py   (about a second)
With REPRO_DETERMINISM=1 exported it additionally re-proves the
resilient session is run-deterministic across fresh interpreters.
"""

import tempfile
from pathlib import Path

from repro.determinism import (
    check_from_env,
    resilient_session_fingerprint,
    resilient_session_service,
    resilient_session_specs,
    resilient_session_tenants,
    service_digest,
    session_digest,
)
from repro.errors import SimulatedCrashError
from repro.faults.service import JournalTornWriteModel
from repro.service import (
    TERMINAL_STATES,
    CampaignService,
    CrashPlan,
    JobJournal,
    read_journal,
)

SEED = 2020
workdir = Path(tempfile.mkdtemp(prefix="resilient-service-"))

# --- golden run: the uninterrupted session ---------------------------------
golden_journal = workdir / "golden.jsonl"
service = resilient_session_service(SEED,
                                    journal=JobJournal(str(golden_journal)))
specs = resilient_session_specs(SEED)
golden = session_digest(service, specs)

records = read_journal(str(golden_journal)).records
stats = service.stats()
print(f"golden run: {stats.submitted} submitted, "
      f"{stats.completed} completed, {stats.failed} failed, "
      f"{stats.quarantined} quarantined, {stats.shed} shed "
      f"({len(records)} journal records)")
print(f"golden digest: {golden[:16]}...")

# --- crashed run: die mid-append, torn final write -------------------------
crash_journal = workdir / "crashed.jsonl"
boundary = len(records) // 2
plan = CrashPlan(after_records=boundary,
                 torn_write=JournalTornWriteModel(seed=SEED, torn_prob=1.0))
try:
    session_digest(resilient_session_service(
        SEED, journal=JobJournal(str(crash_journal), crash_plan=plan)), specs)
    raise SystemExit("crash plan never fired")
except SimulatedCrashError:
    print(f"\nkilled mid-session after journal record {boundary} "
          f"(final write torn)")

tail = read_journal(str(crash_journal))
print(f"on-disk journal: {len(tail.records)} verifiable records, "
      f"torn tail {'dropped' if tail.torn_tail else 'absent'}")

# --- recovery: replay the prefix, resubmit the lost tail, drain ------------
recovered = CampaignService.recover(str(crash_journal))
for config in resilient_session_tenants(SEED):
    if config.name not in recovered.stats().tenants:
        recovered.add_tenant(config)
resumed_from = len(recovered.jobs())
for spec in specs[resumed_from:]:
    recovered.submit(spec)
recovered.run_until_idle()

print(f"recovered with {resumed_from} of {len(specs)} jobs journaled; "
      f"resubmitted the rest and drained the queue")
for job in recovered.jobs():
    assert job.state in TERMINAL_STATES
    print(f"  job {job.job_id}: {job.spec.kind:12s} {job.state:12s} "
          f"attempts={job.attempts}"
          + (f"  ({job.detail})" if job.detail else ""))

# --- parity: the crash is invisible in the ledger --------------------------
digest = service_digest(recovered)
assert digest == golden, "recovery broke fingerprint parity"
print(f"\nrecovered digest: {digest[:16]}... == golden (bit-identical)")

# With REPRO_DETERMINISM=1 exported, re-prove the resilient session —
# supervised retries, breakers, shedding and all — fingerprints
# bit-identically across two fresh interpreters with different
# PYTHONHASHSEED values.
fingerprint = check_from_env(resilient_session_fingerprint,
                             [(SEED,), (SEED,)])
if fingerprint is not None:
    print(f"determinism double-run: fingerprints matched "
          f"({fingerprint[:16]})")
