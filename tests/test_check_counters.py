"""The exact work-counter gate's comparison, on small hand-made runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "check_counters", ROOT / "benchmarks" / "check_counters.py")
check_counters = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_counters)

#: One workload's traced-run metrics as ``name: (value, unit)``.
FRESH = {"ota.minilzo.compress.calls": (40.0, "count"),
         "service.journal.append.bytes": (1655094.0, "bytes"),
         "phy.lora.buffered_samples.max": (18190.0, "samples"),
         "service.cache.hit_ratio": (0.6586826347305389, "ratio"),
         "service.cache.get.self_s": (0.058, "s"),
         "service.hit_latency_p50_ms": (0.35, "ms"),
         "trace.overhead_ratio": (0.003, "ratio")}
COMMITTED = {"w": {"ota.minilzo.compress.calls": 40.0,
                   "service.journal.append.bytes": 1655094.0,
                   "phy.lora.buffered_samples.max": 18190.0,
                   "service.cache.hit_ratio": 0.6586826347305389}}


def run(metrics, correct=True):
    """A traced run's last stdout line carrying ``metrics``."""
    return {"correct": correct, "attempted": 3, "failed": int(not correct),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def changed(**values):
    """``FRESH`` with some values replaced (``__`` spells ``.``)."""
    metrics = dict(FRESH)
    for key, value in values.items():
        name = key.replace("__", ".")
        metrics[name] = (value, FRESH[name][1])
    return metrics


def test_matching_run_passes_and_ignores_timings():
    assert check_counters.compare(COMMITTED, {"w": run(FRESH)}) == []
    slower = changed(service__cache__get__self_s=9.0,
                     service__hit_latency_p50_ms=90.0,
                     trace__overhead_ratio=0.9)
    assert check_counters.compare(COMMITTED, {"w": run(slower)}) == []


@pytest.mark.parametrize("metrics", [
    changed(ota__minilzo__compress__calls=160.0),
    changed(service__journal__append__bytes=1655090.0),
    changed(phy__lora__buffered_samples__max=18191.0),
    changed(service__cache__hit_ratio=0.6586826347305388),
], ids=["count", "bytes", "samples", "ratio"])
def test_changed_counter_fails(metrics):
    failures = check_counters.compare(COMMITTED, {"w": run(metrics)})
    assert len(failures) == 1
    assert "committed" in failures[0]


def test_counter_missing_from_the_run_fails():
    metrics = dict(FRESH)
    del metrics["ota.minilzo.compress.calls"]
    assert check_counters.compare(COMMITTED, {"w": run(metrics)}) == [
        "w: ota.minilzo.compress.calls missing from the run"]


def test_counter_not_in_the_committed_file_fails():
    metrics = dict(FRESH, **{"ota.flash.program.calls": (12.0, "count")})
    assert check_counters.compare(COMMITTED, {"w": run(metrics)}) == [
        "w: ota.flash.program.calls = 12.0 is not committed"]


def test_incorrect_run_fails_even_with_matching_counters():
    assert check_counters.compare(
        COMMITTED, {"w": run(FRESH, correct=False)}) == [
        "w: the run is not correct"]


def test_workload_missing_on_either_side_fails():
    assert check_counters.compare(COMMITTED, {}) == ["w: not run"]
    assert check_counters.compare({}, {"w": run(FRESH)}) == [
        "w: no committed counters"]


def test_committed_file_covers_every_workload_and_ratio():
    document = json.loads(check_counters.EXPECTED.read_text())
    assert set(document["workloads"]) == set(check_counters.WORKLOADS)
    for counters in document["workloads"].values():
        assert set(check_counters.RATIOS) <= set(counters)
        assert not any(name.endswith(("self_s", "_ms"))
                       for name in counters)
