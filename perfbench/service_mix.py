"""service_mix: the path every CLI call takes, under a skewed job mix.

One ``CampaignService`` with a ``JobJournal`` in the run's work directory
serves three tenants.  The client submits a seeded burst of 1-16 jobs
and drains it with ``run_next()``, timestamping each job as it returns;
one unit is one job.  Specs come from a pool of 640 unique specs, 2.5x
the 256-entry ``ResultCache``, drawn with Zipf-like popularity, so cache
hits, misses and evictions all happen.  The kind at each popularity rank
is fixed; configs and job seeds are drawn.  Only the cheap adapters run
(``info``, ``power``, small ``sweep-ble``, small ``sweep-lora``, ``adr``
and small ``fleet``); ``campaign`` is excluded.
"""

from __future__ import annotations

import importlib
from pathlib import Path
from typing import Any

import numpy as np

from common import PassResult, clock, percentile_ms
from repro import service

# The adapters import their engines lazily; load them with the workload
# so the first job of each kind does not pay for the import.
for _module in ("repro.core.sweeps", "repro.core.timing", "repro.fpga",
                "repro.platforms", "repro.power",
                "repro.protocols.lorawan.adr", "repro.testbed",
                "repro.ota.fleet"):
    importlib.import_module(_module)

TENANTS = ("lab-a", "lab-b", "lab-c")
POOL = 640
ZIPF_EXPONENT = 0.9
MAX_BURST = 16
#: Kinds of consecutive popularity ranks, repeated down the pool: every
#: seed has the same kind at each rank, so the mix's cost does not hinge
#: on which kind happens to be popular.
RANK_KINDS = ("info", "power", "sweep-ble", "sweep-lora", "adr",
              "info", "power", "sweep-ble", "sweep-lora", "fleet")
FLEET_IMAGE_BYTES = 1800


def draw_config(kind: str, rng: np.random.Generator) -> dict:
    """A small seeded config for one of the cheap workload kinds."""
    if kind == "info":
        return {"spreading_factor": int(rng.integers(7, 13))}
    if kind == "power":
        return {"tx_power_dbm": float(rng.integers(0, 15))}
    if kind == "sweep-ble":
        return {"packets": int(rng.integers(1, 3)), "start_dbm": -80.0,
                "stop_dbm": -80.0 - 3.0 * int(rng.integers(0, 3))}
    if kind == "sweep-lora":
        return {"spreading_factor": int(rng.integers(7, 9)),
                "symbols": int(rng.integers(8, 25)), "start_dbm": -110.0,
                "stop_dbm": -110.0 - 3.0 * int(rng.integers(0, 2))}
    if kind == "adr":
        return {}
    return {"nodes": int(rng.integers(100, 401)),
            "image_bytes": FLEET_IMAGE_BYTES}


class Pass:
    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng([seed, 4])
        self.pool = []
        for rank in range(POOL):
            kind = RANK_KINDS[rank % len(RANK_KINDS)]
            config = draw_config(kind, rng)
            job_seed = int(rng.integers(0, 2 ** 31))
            self.pool.append([service.JobSpec(kind=kind, config=config,
                                              seed=job_seed, tenant=tenant)
                              for tenant in TENANTS])
        weights = 1.0 / np.arange(1, POOL + 1) ** ZIPF_EXPONENT
        self.popularity = weights / weights.sum()
        self.bursts = np.random.default_rng([seed, 5])
        self.journal = service.JobJournal(str(workdir / "service.journal"))
        self.service = service.CampaignService(
            tenants=tuple(service.TenantConfig(
                name=name, max_pending=4 * MAX_BURST,
                bucket_capacity=4.0 * MAX_BURST, refill_per_s=1e4)
                for name in TENANTS),
            seed=seed, journal=self.journal)
        self.units = 0
        self.latency: list[float] = []
        self.waits: list[float] = []
        self.hits: list[float] = []
        self.misses: list[float] = []
        self.jobs = []
        self.failures: list[str] = []
        self.busy = 0.0

    def close(self) -> None:
        self.journal.close()

    def step(self, tracer=None) -> int:
        size = int(self.bursts.integers(1, MAX_BURST + 1))
        tenant = int(self.bursts.integers(0, len(TENANTS)))
        ranks = self.bursts.choice(POOL, size=size, p=self.popularity)
        specs = [self.pool[int(rank)][tenant] for rank in ranks]
        # The service is fresh and every burst is drained, so its job ids
        # count up from 1 and run_next returns them in submission order.
        first = self.units + 1
        start = clock()
        for job_id, spec in enumerate(specs, first):
            if tracer is not None:
                tracer.op = job_id
            self.service.submit(spec)
        for job_id in range(first, first + size):
            if tracer is not None:
                tracer.op = job_id
            begin = clock()
            job = self.service.run_next()
            done = clock()
            if job is None or job.job_id != job_id:
                self.failures.append(
                    f"job {job_id}: run_next returned "
                    f"{None if job is None else job.job_id}")
                continue
            self.latency.append(done - start)
            self.waits.append(begin - start)
            (self.hits if job.cache_hit else self.misses).append(
                done - begin)
            self.jobs.append(job)
        self.busy += clock() - start
        self.units += size
        return size

    def result(self) -> PassResult:
        self.close()
        failures = list(self.failures)
        computed: dict[str, Any] = {}
        outputs = []
        for job in self.jobs:
            if job.state != service.JOB_COMPLETED or job.result is None:
                failures.append(f"job {job.job_id} ({job.spec.kind}) ended "
                                f"{job.state}: {job.detail}")
                continue
            address = job.result.address
            if job.result.payload != computed.setdefault(
                    address, job.result.payload):
                failures.append(f"job {job.job_id}: payload at "
                                f"{address[:12]} differs from its first "
                                f"computation")
            outputs.append((job.job_id, job.state, address, job.cache_hit))
        stats = self.service.cache.stats()
        return PassResult(
            attempted=self.units,
            failures=failures,
            metrics={
                "jobs_per_s": len(self.jobs) / self.busy,
                "job_latency_p50_ms": percentile_ms(self.latency, 50),
                "job_latency_p99_ms": percentile_ms(self.latency, 99),
            },
            layer={
                "service.cache.hit_ratio": stats.hit_rate,
                "service.cache.evictions": stats.evictions,
                "service.journal.append.bytes":
                    Path(self.journal.path).stat().st_size,
                "service.hit_latency_p50_ms": percentile_ms(self.hits, 50),
                "service.miss_latency_p50_ms":
                    percentile_ms(self.misses, 50),
                "service.queue_wait_p50_ms": percentile_ms(self.waits, 50),
            },
            outputs=outputs,
            busy_s=self.busy)
