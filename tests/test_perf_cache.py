"""Tests for the repro.perf plan cache."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.perf import cache
from repro.perf.cache import PlanCache
from repro.dsp.fft import Radix2Fft
from repro.dsp.nco import Nco, NcoConfig
from repro.phy.lora import (
    LoRaDemodulator,
    LoRaModulator,
    LoRaParams,
    SymbolDemodulator,
)


@pytest.fixture(autouse=True)
def clean_global_cache():
    """Isolate every test from plans built by other tests."""
    cache.clear()
    yield
    cache.clear()


class TestPlanCache:
    def test_miss_builds_then_hit_reuses(self):
        plans = PlanCache()
        built = []

        def builder():
            built.append(1)
            return np.arange(4)

        first = plans.get_or_build("k", builder)
        second = plans.get_or_build("k", builder)
        assert built == [1]
        assert first is second
        assert plans.hits == 1
        assert plans.misses == 1

    def test_distinct_keys_build_separately(self):
        plans = PlanCache()
        a = plans.get_or_build(("plan", 1), lambda: np.zeros(2))
        b = plans.get_or_build(("plan", 2), lambda: np.ones(2))
        assert not np.array_equal(a, b)
        assert plans.misses == 2

    def test_cached_arrays_are_frozen(self):
        plans = PlanCache()
        value = plans.get_or_build("k", lambda: np.arange(3))
        with pytest.raises(ValueError):
            value[0] = 99

    def test_freezing_recurses_into_tuples(self):
        plans = PlanCache()
        pair = plans.get_or_build("k", lambda: (np.zeros(2), np.ones(2)))
        for array in pair:
            with pytest.raises(ValueError):
                array[0] = 5.0

    def test_size_bound_evicts_least_recently_used(self):
        plans = PlanCache(max_entries=2)
        plans.get_or_build("a", lambda: 1)
        plans.get_or_build("b", lambda: 2)
        plans.get_or_build("a", lambda: 1)  # refresh a's recency
        plans.get_or_build("c", lambda: 3)  # evicts b
        assert "a" in plans
        assert "b" not in plans
        assert "c" in plans
        assert plans.stats().evictions == 1

    def test_clear_resets_entries_and_counters(self):
        plans = PlanCache()
        plans.get_or_build("k", lambda: 1)
        plans.get_or_build("k", lambda: 1)
        plans.clear()
        stats = plans.stats()
        assert len(plans) == 0
        assert (stats.hits, stats.misses, stats.evictions) == (0, 0, 0)

    def test_hit_rate(self):
        plans = PlanCache()
        assert plans.stats().hit_rate == 0.0
        plans.get_or_build("k", lambda: 1)
        plans.get_or_build("k", lambda: 1)
        assert plans.stats().hit_rate == pytest.approx(0.5)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            PlanCache(max_entries=0)

    def test_builder_may_recurse_into_cache(self):
        plans = PlanCache()

        def outer():
            inner = plans.get_or_build("inner", lambda: 2)
            return inner * 3

        assert plans.get_or_build("outer", outer) == 6
        assert "inner" in plans


class TestPlanCacheIntegration:
    def test_repeated_demodulator_construction_hits_cache(self):
        params = LoRaParams(7, 125e3)
        SymbolDemodulator(params)
        misses_after_first = cache.stats().misses
        SymbolDemodulator(params)
        stats = cache.stats()
        assert stats.hits > 0
        assert stats.misses == misses_after_first

    def test_modulator_and_demodulator_share_chirp_plan(self):
        params = LoRaParams(8, 125e3)
        LoRaModulator(params, quantized=False).symbol(0)
        hits_before = cache.stats().hits
        SymbolDemodulator(params)
        assert cache.stats().hits > hits_before

    def test_fft_plan_shared_across_instances(self):
        Radix2Fft(512)
        hits_before = cache.stats().hits
        Radix2Fft(512)
        assert cache.stats().hits == hits_before + 1

    def test_nco_tables_shared_across_instances(self):
        config = NcoConfig(phase_bits=24, table_address_bits=8,
                           amplitude_bits=10)
        first = Nco(config)
        second = Nco(config)
        assert first._cos_table is second._cos_table

    def test_fir_taps_shared_across_receivers(self):
        params = LoRaParams(7, 125e3, oversampling=2)
        first = LoRaDemodulator(params)
        second = LoRaDemodulator(params)
        assert first._fir_taps is second._fir_taps

    def test_end_to_end_sweep_reports_nonzero_hits(self):
        """Acceptance: multiple modems with identical params hit the cache."""
        params = LoRaParams(7, 125e3)
        modems = [(LoRaModulator(params), LoRaDemodulator(params))
                  for _ in range(3)]
        waveform = modems[0][0].modulate(b"sweep")
        for _, demodulator in modems:
            assert demodulator.receive(waveform).payload == b"sweep"
        assert cache.stats().hits > 0

