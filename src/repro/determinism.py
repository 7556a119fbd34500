"""``REPRO_DETERMINISM=1``: double-run determinism diffing.

The static taint pass (REPRO011) and shard-safety rule (REPRO013) catch
nondeterminism the AST can see; this module catches the rest by
construction.  :func:`double_run` calls one module-level fingerprint
function in a **fresh interpreter per run**, each under its own
``PYTHONHASHSEED`` and its own argument tuple, and raises
:class:`~repro.analysis.sanitize.SanitizerError` unless every run
returns the same digest.  A hash-seed difference flushes out any
surviving dict/set iteration-order dependence; varying an argument that
must not matter (the fleet's shard count) flushes out per-process
accumulated state.  The callable and its whole argument tuple reach the
child pickled over stdin, so the child rebuilds exactly the input the
parent holds.

Three scenarios are reduced to fingerprint functions:

* the fleet campaign — :func:`fleet_run_fingerprint` over a sharded run,
  diffed over :func:`fleet_runs` (node count capped, shard count varied);
* the scripted multi-tenant service session —
  :func:`service_session_fingerprint`;
* the resilient session with supervision, breakers, shedding and chaos
  armed — :func:`resilient_session_fingerprint`, which is also the
  crash-recovery parity oracle.

:func:`check_from_env` runs a double run only under
``REPRO_DETERMINISM=1``; the examples call it so that exporting the
variable re-proves the contract on the example's own workload.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.analysis.sanitize import SanitizerError

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.ota.fleet.config import FleetCampaignConfig
    from repro.ota.fleet.engine import FleetReport

#: Opt-in flag for the double-run determinism check.
DETERMINISM_ENV_VAR = "REPRO_DETERMINISM"

#: Run *i* (counting from 1) gets ``PYTHONHASHSEED = 101 * i``.
HASH_SEED_STEP = 101

#: Shard count of each fleet run: a different partition of the node-id
#: space per run, so per-process state cannot hide.
FLEET_SHARDS = (1, 3)

#: Node-count cap for the fleet double run — enough nodes to exercise
#: every outcome path while keeping each run a sub-second affair.
DEFAULT_MAX_NODES = 2048

_CHILD = "from repro.determinism import _child_main; _child_main()"


def determinism_enabled(environ: Mapping[str, str] | None = None) -> bool:
    """Whether ``REPRO_DETERMINISM=1`` asks for double-run diffing."""
    env = os.environ if environ is None else environ
    return env.get(DETERMINISM_ENV_VAR, "") == "1"


def _child_main() -> None:
    """Child entry: unpickle ``(fingerprint_fn, args)``, print the digest."""
    fingerprint_fn, args = pickle.load(sys.stdin.buffer)
    print(fingerprint_fn(*args))


def double_run(fingerprint_fn: Callable[..., Any],
               runs: Sequence[tuple]) -> str:
    """Call ``fingerprint_fn(*args)`` in a fresh interpreter per run.

    Args:
        fingerprint_fn: a module-level callable (it is pickled by
            import path) returning the run's digest.
        runs: one argument tuple per run.

    Returns the common fingerprint.

    Raises:
        SanitizerError: when a run fails outright, or when the runs'
            fingerprints diverge.
    """
    import repro

    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    name = fingerprint_fn.__qualname__
    results: list[tuple[str, str]] = []
    for index, args in enumerate(runs, start=1):
        hashseed = str(HASH_SEED_STEP * index)
        label = (f"{name} run {index} of {len(runs)} "
                 f"(PYTHONHASHSEED={hashseed})")
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hashseed
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD],
            input=pickle.dumps((fingerprint_fn, args)),
            env=env, capture_output=True)
        if proc.returncode != 0:
            stderr = proc.stderr.decode(errors="replace").strip()
            raise SanitizerError(
                f"determinism {label} failed: {stderr[-500:]}")
        results.append((label, proc.stdout.decode().strip()))
    if len({fingerprint for _, fingerprint in results}) != 1:
        detail = "; ".join(f"{label} -> {fingerprint[:16]}"
                           for label, fingerprint in results)
        raise SanitizerError(
            f"{name} is not run-deterministic: {detail}; some value "
            f"depends on hash-seed iteration order or per-process state")
    return results[0][1]


def check_from_env(fingerprint_fn: Callable[..., Any],
                   runs: Sequence[tuple],
                   environ: Mapping[str, str] | None = None) -> str | None:
    """Run :func:`double_run` when ``REPRO_DETERMINISM=1``.

    Returns the fingerprint when the check ran, ``None`` otherwise.
    """
    if not determinism_enabled(environ):
        return None
    return double_run(fingerprint_fn, runs)


# -- fleet campaign ---------------------------------------------------------

def fleet_fingerprint(report: "FleetReport") -> str:
    """Deterministic digest of everything a campaign produced.

    Hashes every per-node result array (name, dtype, shape, raw bytes)
    in field order plus the rollup's sorted spill rows, so any
    divergence anywhere in the report changes the digest.
    """
    import numpy as np

    digest = hashlib.sha256()
    for field in dataclasses.fields(report):
        value = getattr(report, field.name)
        if not isinstance(value, np.ndarray):
            continue
        digest.update(field.name.encode())
        digest.update(value.dtype.str.encode())
        digest.update(str(value.shape).encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    rows = json.dumps(report.rollup.to_rows(), sort_keys=True)
    digest.update(rows.encode())
    return digest.hexdigest()


def fleet_run_fingerprint(config: "FleetCampaignConfig",
                          shards: int) -> str:
    """:func:`fleet_fingerprint` of the campaign run over ``shards``."""
    from repro.ota.fleet.shard import run_fleet_campaign_sharded

    return fleet_fingerprint(run_fleet_campaign_sharded(config,
                                                        shards=shards))


def fleet_runs(config: "FleetCampaignConfig",
               max_nodes: int = DEFAULT_MAX_NODES) -> tuple[tuple, ...]:
    """The fleet double run's argument tuples for :func:`double_run`.

    The campaign is capped at ``max_nodes`` nodes and each run uses a
    different shard count (:data:`FLEET_SHARDS`).
    """
    if config.num_nodes > max_nodes:
        config = dataclasses.replace(config, num_nodes=max_nodes)
    return tuple((config, shards) for shards in FLEET_SHARDS)


# -- campaign service -------------------------------------------------------

def service_digest(service) -> str:
    """Deterministic digest of everything a service session produced.

    Covers each job's lifecycle (state, attempts, cache verdict,
    detail) and result fingerprint, every ledger row with bit-exact
    float timestamps, and the full stats snapshot.  Any divergence
    anywhere in admission, scheduling, supervision, caching or event
    journaling changes the digest — which is exactly what makes it the
    crash-recovery parity oracle: a recovered session must reproduce
    the uninterrupted session's digest bit-for-bit.
    """
    digest = hashlib.sha256()
    for job in service.jobs():
        digest.update(
            f"{job.job_id}|{job.state}|{int(job.cache_hit)}|"
            f"{job.attempts}|{job.detail}".encode())
        if job.result is not None:
            digest.update(job.result.fingerprint().encode())
    for event in service.timeline:
        digest.update(
            f"{event.kind}|{event.label}|{event.t_start_s.hex()}|"
            f"{event.duration_s.hex()}".encode())
    stats = service.stats()
    digest.update(json.dumps(
        {"submitted": stats.submitted, "admitted": stats.admitted,
         "rejected": stats.rejected, "completed": stats.completed,
         "failed": stats.failed, "quarantined": stats.quarantined,
         "shed": stats.shed, "cache_hits": stats.cache_hits,
         "virtual_now_s": stats.virtual_now_s.hex(),
         "invocations": stats.invocations, "tenants": stats.tenants},
        sort_keys=True).encode())
    return digest.hexdigest()


def session_digest(service, specs) -> str:
    """Submit ``specs`` in order, drain the queue, digest the session."""
    for spec in specs:
        service.submit(spec)
    service.run_until_idle()
    return service_digest(service)


def service_session_fingerprint(seed: int) -> str:
    """Run a scripted multi-tenant service session and digest it all.

    The session exercises every decision path the scheduler has:
    priorities out of submission order, a second tenant with tight
    limits, a duplicate seeded spec (a cache hit), and enough
    submissions to trip the tight tenant's quota.
    """
    from repro.service import (
        PRIORITY_BATCH,
        PRIORITY_HIGH,
        CampaignService,
        JobSpec,
        TenantConfig,
    )

    service = CampaignService(
        seed=seed,
        tenants=(TenantConfig(name="lab", max_pending=2,
                              bucket_capacity=2.0, refill_per_s=1.0),))
    return session_digest(service, (
        JobSpec(kind="sweep-ble",
                config={"packets": 2, "stop_dbm": -86.0}, seed=seed),
        JobSpec(kind="sweep-lora",
                config={"symbols": 10, "stop_dbm": -116.0,
                        "step_db": 6.0},
                seed=seed, priority=PRIORITY_HIGH),
        JobSpec(kind="campaign", config={"nodes": 3}, seed=seed,
                tenant="lab"),
        JobSpec(kind="sweep-ble",
                config={"packets": 2, "stop_dbm": -86.0}, seed=seed),
        JobSpec(kind="adr", seed=seed, tenant="lab",
                priority=PRIORITY_BATCH),
        JobSpec(kind="info", seed=seed, priority=PRIORITY_BATCH),
        JobSpec(kind="power", seed=seed, tenant="lab"),
    ))


# -- resilient service ------------------------------------------------------

def resilient_session_tenants(seed: int):
    """The extra tenants the scripted resilient session registers.

    Exposed separately because a crash-recovery driver must re-add any
    tenant whose journal record the crash ate (tenant *configuration*
    is the operator's input, not derivable service state).
    """
    from repro.service import TenantConfig

    return (TenantConfig(name="lab", max_pending=4,
                         bucket_capacity=8.0, refill_per_s=8.0),)


def resilient_session_service(seed: int, journal=None):
    """A service with the full resilience stack armed, keyed by seed.

    Supervised retries with jittered backoff, a hair-trigger circuit
    breaker, queue-depth load shedding and seeded worker-crash /
    workload-hang chaos — every degradation path the scheduler has, so
    the session fingerprint covers all of them.
    """
    from repro.faults.service import (
        ServiceFaultPlan,
        WorkerCrashModel,
        WorkloadHangModel,
    )
    from repro.ota.mac import RetryPolicy
    from repro.service import (
        BreakerConfig,
        CampaignService,
        SheddingPolicy,
        SupervisorConfig,
    )

    return CampaignService(
        seed=seed,
        journal=journal,
        tenants=resilient_session_tenants(seed),
        supervisor=SupervisorConfig(
            policy=RetryPolicy(max_attempts=3, backoff="exponential",
                               base_delay_s=0.5, jitter_fraction=0.1,
                               seed=seed + 1)),
        breakers=BreakerConfig(seed=seed + 2, failure_threshold=2,
                               open_duration_s=30.0),
        shedding=SheddingPolicy(queue_high_water=6),
        faults=ServiceFaultPlan(
            seed=seed + 3,
            worker_crash=WorkerCrashModel(seed=seed + 3, crash_prob=0.25),
            workload_hang=WorkloadHangModel(seed=seed + 3,
                                            hang_prob=0.2)))


def resilient_session_specs(seed: int):
    """The scripted resilient session's submissions, keyed by seed.

    Exercises every terminal state: cheap completions across two
    tenants, an exact duplicate (a cache hit), a twice-submitted
    always-failing spec (two strikes trip the ``sweep-lora`` breaker,
    so a third identical submission is rejected at dispatch with the
    breaker open), and enough submissions to make shedding reachable.
    """
    from repro.service import PRIORITY_HIGH, JobSpec

    poison = JobSpec(kind="sweep-lora",
                     config={"spreading_factor": 99}, seed=seed)
    return (
        JobSpec(kind="info", seed=seed),
        JobSpec(kind="power", seed=seed, tenant="lab"),
        poison,
        JobSpec(kind="sweep-ble",
                config={"packets": 2, "stop_dbm": -86.0}, seed=seed,
                priority=PRIORITY_HIGH),
        poison,
        JobSpec(kind="info", seed=seed),
        poison,
        JobSpec(kind="power", seed=seed + 1, tenant="lab"),
        JobSpec(kind="info", seed=seed + 1, tenant="lab"),
    )


def resilient_session_fingerprint(seed: int) -> str:
    """Digest of the scripted resilient session (no journal attached).

    The chaos suite's parity oracle: the same session journaled,
    crashed at an arbitrary record boundary and recovered must
    reproduce this exact digest.
    """
    return session_digest(resilient_session_service(seed),
                          resilient_session_specs(seed))
