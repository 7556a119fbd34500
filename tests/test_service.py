"""Tests for the multi-tenant campaign service.

Covers the canonical serialization and content addressing, the result
cache's zero-recompute dedupe (asserted through registry invocation
counters), tenancy quotas and token buckets, priority scheduling on
virtual time, the ``service.*`` event stream, and in-process run
determinism.
"""

import pytest

from repro.errors import ConfigurationError
from repro.service import (
    PRIORITY_BATCH,
    PRIORITY_HIGH,
    CampaignService,
    JobQueue,
    JobResult,
    JobSpec,
    ResultCache,
    TenantConfig,
    TokenBucket,
    UnknownWorkloadError,
    WorkloadRegistry,
    canonical_json,
    content_address,
)
from repro.service.api import JOB_COMPLETED, JOB_FAILED, JOB_REJECTED
from repro.sim import SERVICE_KINDS


class TestCanonicalSerialization:
    def test_mapping_keys_sorted(self):
        assert (canonical_json({"b": 1, "a": 2})
                == canonical_json({"a": 2, "b": 1}))

    def test_floats_render_bit_exact(self):
        # 0.1 + 0.2 != 0.3 in the last ulp; a decimal round-trip would
        # conflate them, float.hex() must not.
        assert canonical_json(0.1 + 0.2) != canonical_json(0.3)
        assert canonical_json(0.5) == f'"{(0.5).hex()}"'

    def test_int_and_bool_distinguished(self):
        assert canonical_json(True) != canonical_json(1)
        assert canonical_json(False) != canonical_json(0)

    def test_sequences_positional(self):
        assert canonical_json([1, 2]) != canonical_json([2, 1])
        assert canonical_json([1, 2]) == canonical_json((1, 2))

    def test_nested_structures(self):
        value = {"grid": [1.0, 2.0], "opts": {"deep": None}}
        assert canonical_json(value) == canonical_json(value)

    def test_non_string_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            canonical_json({1: "x"})

    def test_non_jsonable_values_rejected(self):
        with pytest.raises(ConfigurationError):
            canonical_json({"x": object()})


class TestContentAddress:
    def test_stable_across_calls(self):
        a = content_address("sweep-ble", {"packets": 4}, 7)
        b = content_address("sweep-ble", {"packets": 4}, 7)
        assert a == b
        assert len(a) == 64

    def test_identity_triple_fully_discriminates(self):
        base = content_address("sweep-ble", {"packets": 4}, 7)
        assert content_address("sweep-lora", {"packets": 4}, 7) != base
        assert content_address("sweep-ble", {"packets": 5}, 7) != base
        assert content_address("sweep-ble", {"packets": 4}, 8) != base

    def test_tenant_and_priority_are_not_identity(self):
        a = JobSpec(kind="adr", seed=3, tenant="default",
                    priority=PRIORITY_HIGH)
        b = JobSpec(kind="adr", seed=3, tenant="other-lab",
                    priority=PRIORITY_BATCH)
        # Both tenants' identical computations share one cache entry.
        assert (a.content_address == b.content_address
                == content_address("adr", (), 3))


class TestJobSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            JobSpec(kind="")
        with pytest.raises(ConfigurationError):
            JobSpec(kind="adr", seed=-1)
        with pytest.raises(ConfigurationError):
            JobSpec(kind="adr", tenant="")

    def test_config_mapping_round_trips(self):
        spec = JobSpec(kind="fleet",
                       config={"nodes": 10, "opts": {"b": 2, "a": 1},
                               "grid": [1.0, 2.0]})
        mapping = spec.config_mapping()
        assert mapping["nodes"] == 10
        assert mapping["opts"] == {"a": 1, "b": 2}
        assert mapping["grid"] == (1.0, 2.0)

    def test_config_is_frozen_canonical_form(self):
        spec = JobSpec(kind="fleet", config={"nodes": 10})
        assert spec.config == (("nodes", 10),)
        with pytest.raises(AttributeError):
            spec.kind = "other"


class TestJobResult:
    def test_fingerprint_covers_payload(self):
        a = JobResult(address="x", kind="k", seed=0, payload={"v": 1.0})
        b = JobResult(address="x", kind="k", seed=0, payload={"v": 2.0})
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == JobResult(
            address="x", kind="k", seed=0,
            payload={"v": 1.0}).fingerprint()

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            JobResult(address="x", kind="k", seed=0, payload=(),
                      virtual_cost_s=-1.0)


def _result(address: str) -> JobResult:
    return JobResult(address=address, kind="k", seed=0,
                     payload={"a": address})


class TestResultCache:
    def test_hit_miss_counters(self):
        cache = ResultCache(max_entries=4)
        assert cache.get("a") is None
        cache.put(_result("a"))
        assert cache.get("a").payload_mapping() == {"a": "a"}
        stats = cache.stats()
        assert stats.misses == 1
        assert stats.hits == 1
        assert stats.entries == 1

    def test_lru_eviction_order(self):
        cache = ResultCache(max_entries=2)
        cache.put(_result("a"))
        cache.put(_result("b"))
        assert cache.get("a") is not None  # refresh a: b becomes LRU
        cache.put(_result("c"))
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.stats().evictions == 1

    def test_first_write_wins(self):
        cache = ResultCache(max_entries=2)
        first = _result("a")
        cache.put(first)
        cache.put(JobResult(address="a", kind="k", seed=0,
                            payload={"a": "other"}))
        assert cache.get("a") is first


class TestTokenBucket:
    def test_burst_then_deny_then_refill(self):
        bucket = TokenBucket(capacity=2.0, refill_per_s=1.0, now_s=0.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)
        assert not bucket.try_take(0.5)
        assert bucket.try_take(1.5)  # one token refilled over 1.5 s

    def test_refill_caps_at_capacity(self):
        bucket = TokenBucket(capacity=2.0, refill_per_s=10.0, now_s=0.0)
        assert bucket.peek(100.0) == 2.0

    def test_time_moving_backwards_rejected(self):
        bucket = TokenBucket(capacity=2.0, refill_per_s=1.0, now_s=5.0)
        with pytest.raises(ConfigurationError):
            bucket.try_take(4.0)

    def test_tenant_config_validation(self):
        with pytest.raises(ConfigurationError):
            TenantConfig(name="")
        with pytest.raises(ConfigurationError):
            TenantConfig(name="t", max_pending=0)
        with pytest.raises(ConfigurationError):
            TenantConfig(name="t", bucket_capacity=0.5)
        with pytest.raises(ConfigurationError):
            TenantConfig(name="t", refill_per_s=0.0)


class TestJobQueue:
    def test_priority_then_fifo(self):
        from repro.service.api import Job

        queue = JobQueue()
        jobs = [Job(job_id=1, spec=JobSpec(kind="a", priority=10)),
                Job(job_id=2, spec=JobSpec(kind="b", priority=0)),
                Job(job_id=3, spec=JobSpec(kind="c", priority=10)),
                Job(job_id=4, spec=JobSpec(kind="d", priority=0))]
        for job in jobs:
            queue.push(job)
        assert [queue.pop().job_id for _ in range(4)] == [2, 4, 1, 3]

    def test_pop_empty_raises(self):
        with pytest.raises(ConfigurationError):
            JobQueue().pop()


class TestWorkloadRegistry:
    def test_register_and_invoke_counts(self):
        registry = WorkloadRegistry()
        registry.register("echo", lambda cfg, seed, emit: (dict(cfg), 1.0))
        assert "echo" in registry
        payload, cost = registry.invoke("echo", {"x": 1}, 0, lambda s: None)
        assert payload == {"x": 1}
        assert registry.invocations("echo") == 1
        assert registry.invocation_counts() == {"echo": 1}

    def test_duplicate_registration_needs_replace(self):
        registry = WorkloadRegistry()
        runner = lambda cfg, seed, emit: ((), 0.0)  # noqa: E731
        registry.register("echo", runner)
        with pytest.raises(ConfigurationError):
            registry.register("echo", runner)
        registry.register("echo", runner, replace=True)

    def test_unknown_kind(self):
        with pytest.raises(UnknownWorkloadError):
            WorkloadRegistry().invoke("nope", {}, 0, lambda s: None)


def _quick_spec(seed: int = 7, **overrides) -> JobSpec:
    defaults = {"kind": "sweep-ble",
                "config": {"packets": 2, "stop_dbm": -84.0},
                "seed": seed}
    defaults.update(overrides)
    return JobSpec(**defaults)


class TestCampaignService:
    def test_duplicate_spec_is_cache_hit_with_zero_recompute(self):
        service = CampaignService()
        first = service.submit_and_run(_quick_spec())
        invocations_after_first = service.registry.invocations("sweep-ble")
        second = service.submit_and_run(_quick_spec())
        assert first.state == second.state == JOB_COMPLETED
        assert not first.cache_hit
        assert second.cache_hit
        # The zero-recompute property: the engine ran exactly once.
        assert invocations_after_first == 1
        assert service.registry.invocations("sweep-ble") == 1
        assert second.result is first.result
        assert first.result.fingerprint() == second.result.fingerprint()

    def test_different_seed_misses_cache(self):
        service = CampaignService()
        service.submit_and_run(_quick_spec(seed=1))
        job = service.submit_and_run(_quick_spec(seed=2))
        assert not job.cache_hit
        assert service.registry.invocations("sweep-ble") == 2

    def test_unknown_kind_rejected_at_submit(self):
        with pytest.raises(UnknownWorkloadError):
            CampaignService().submit(JobSpec(kind="frobnicate"))

    def test_unknown_tenant_rejected_at_submit(self):
        with pytest.raises(ConfigurationError):
            CampaignService().submit(_quick_spec(tenant="nobody"))

    def test_pending_quota_rejection(self):
        service = CampaignService(
            tenants=(TenantConfig(name="lab", max_pending=1,
                                  bucket_capacity=16.0,
                                  refill_per_s=16.0),))
        first = service.submit(_quick_spec(seed=1, tenant="lab"))
        second = service.submit(_quick_spec(seed=2, tenant="lab"))
        assert first.state != JOB_REJECTED
        assert second.state == JOB_REJECTED
        assert "quota" in second.detail
        # Completion frees the slot.
        service.run_until_idle()
        third = service.submit(_quick_spec(seed=3, tenant="lab"))
        assert third.state != JOB_REJECTED

    def test_token_bucket_rejection_and_virtual_refill(self):
        service = CampaignService(
            tenants=(TenantConfig(name="lab", max_pending=64,
                                  bucket_capacity=1.0,
                                  refill_per_s=0.001),))
        first = service.submit(_quick_spec(seed=1, tenant="lab"))
        second = service.submit(_quick_spec(seed=2, tenant="lab"))
        assert first.state != JOB_REJECTED
        assert second.state == JOB_REJECTED
        assert "rate limit" in second.detail
        stats = service.stats()
        assert stats.tenants["lab"]["rejected"] == 1
        # Virtual time (not wall time) refills the bucket: the sweep's
        # execution span plus admission overheads credits >= 1 token.
        service.run_until_idle()
        service.timeline.advance_to(service.timeline.now_s + 1000.0)
        third = service.submit(_quick_spec(seed=3, tenant="lab"))
        assert third.state != JOB_REJECTED

    def test_priority_dispatch_order(self):
        service = CampaignService()
        normal = service.submit(_quick_spec(seed=1))
        batch = service.submit(_quick_spec(seed=2,
                                           priority=PRIORITY_BATCH))
        high = service.submit(_quick_spec(seed=3, priority=PRIORITY_HIGH))
        finished = service.run_until_idle()
        assert [job.job_id for job in finished] == [
            high.job_id, normal.job_id, batch.job_id]

    def test_failed_job_frees_quota_and_keeps_service_alive(self):
        service = CampaignService()
        job = service.submit_and_run(
            JobSpec(kind="power", config={"tx_power_dbm": 99.0}))
        assert job.state == JOB_FAILED
        assert "ConfigurationError" in job.detail
        assert job.result is None
        stats = service.stats()
        assert stats.failed == 1
        assert stats.queue_depth == 0
        # The tenant slot is freed and the service still serves work.
        ok = service.submit_and_run(_quick_spec())
        assert ok.state == JOB_COMPLETED

    def test_event_stream_lifecycle(self):
        service = CampaignService()
        job = service.submit_and_run(_quick_spec())
        kinds = [event.kind for event in service.job_events(job.job_id)]
        assert kinds[0] == "service.submit"
        assert kinds[1] == "service.admit"
        assert kinds[2] == "service.dispatch"
        assert kinds[-1] == "service.complete"
        assert "service.execute" in kinds
        assert "service.progress" in kinds
        assert set(kinds) <= SERVICE_KINDS

    def test_cache_hit_event_stream(self):
        service = CampaignService()
        service.submit_and_run(_quick_spec())
        job = service.submit_and_run(_quick_spec())
        kinds = [event.kind for event in service.job_events(job.job_id)]
        assert "service.cache" in kinds
        assert "service.execute" not in kinds

    def test_virtual_clock_only_moves_via_timeline(self):
        service = CampaignService()
        before = service.timeline.now_s
        job = service.submit_and_run(_quick_spec())
        assert service.timeline.now_s > before
        assert job.completed_at_s == service.timeline.now_s
        # The execution span charged equals the workload's virtual cost.
        assert (job.completed_at_s - job.started_at_s
                == job.result.virtual_cost_s)

    def test_same_seed_sessions_are_bit_identical(self):
        def session(seed):
            service = CampaignService(seed=seed)
            for job_seed in (1, 2, 1):
                service.submit(_quick_spec(seed=job_seed))
            service.run_until_idle()
            return [(event.kind, event.label, event.t_start_s,
                     event.duration_s) for event in service.timeline]

        assert session(11) == session(11)
        # A different service seed shifts the admission jitter draws.
        assert session(11) != session(12)

    def test_stats_shape(self):
        service = CampaignService()
        service.submit_and_run(_quick_spec())
        service.submit_and_run(_quick_spec())
        stats = service.stats()
        assert stats.submitted == stats.admitted == stats.completed == 2
        assert stats.cache_hits == 1
        assert stats.cache_hit_ratio == 0.5
        assert stats.cache.hits == 1
        assert stats.cache.entries == 1
        assert stats.invocations["sweep-ble"] == 1
        assert stats.tenants["default"]["completed"] == 2

    def test_duplicate_tenant_registration_rejected(self):
        service = CampaignService()
        with pytest.raises(ConfigurationError):
            service.add_tenant(TenantConfig(name="default"))


class TestServiceDeterminism:
    def test_scripted_session_fingerprint_is_stable_in_process(self):
        from repro.determinism import service_session_fingerprint

        assert (service_session_fingerprint(5)
                == service_session_fingerprint(5))
        assert (service_session_fingerprint(5)
                != service_session_fingerprint(6))
