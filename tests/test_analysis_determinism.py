"""REPRO_DETERMINISM=1 double-run diffing (repro.determinism)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.sanitize import SanitizerError
from repro.determinism import (
    DETERMINISM_ENV_VAR,
    check_from_env,
    double_run,
    fleet_fingerprint,
    fleet_run_fingerprint,
    fleet_runs,
    resilient_session_fingerprint,
    service_session_fingerprint,
)
from repro.ota.fleet import (
    FleetBurstLoss,
    FleetCampaignConfig,
    run_fleet_campaign,
)

CONFIG = FleetCampaignConfig(
    num_nodes=96, image_bytes=600, seed=7,
    loss=FleetBurstLoss(), verify_failure_prob=0.05)


def test_fingerprint_is_stable_across_runs():
    first = fleet_fingerprint(run_fleet_campaign(CONFIG))
    second = fleet_fingerprint(run_fleet_campaign(CONFIG))
    assert first == second


def test_fingerprint_is_sensitive_to_the_campaign():
    base = fleet_fingerprint(run_fleet_campaign(CONFIG))
    reseeded = dataclasses.replace(CONFIG, seed=8)
    assert fleet_fingerprint(run_fleet_campaign(reseeded)) != base


def test_double_run_rebuilds_every_config_field():
    # The children receive the whole config, so fields beyond the
    # node count, image size, seed and verify probability — and a
    # non-default burst-loss model — all reach the re-run campaign.
    config = FleetCampaignConfig(
        num_nodes=80, image_bytes=900, seed=11,
        spreading_factor=10, payload_bytes=48, shadowing_sigma_db=6.5,
        verify_failure_prob=0.02,
        loss=FleetBurstLoss(p_enter_bad=0.3, p_exit_bad=0.4,
                            loss_good=0.01, loss_bad=0.7))
    fingerprint = double_run(fleet_run_fingerprint, fleet_runs(config))
    assert fingerprint == fleet_fingerprint(run_fleet_campaign(config))


def test_double_run_check_passes_on_a_deterministic_campaign():
    fingerprint = double_run(fleet_run_fingerprint, fleet_runs(CONFIG))
    assert len(fingerprint) == 64
    # The subprocess runs agree with an in-process run of the same
    # campaign — the diffing really does hash the campaign results.
    assert fingerprint == fleet_fingerprint(run_fleet_campaign(CONFIG))


def test_double_run_matches_the_in_process_service_session():
    # The resilient session's counterpart is in test_chaos_service.py.
    assert (double_run(service_session_fingerprint, [(3,), (3,)])
            == service_session_fingerprint(3))


def test_double_run_check_caps_the_node_count():
    huge = dataclasses.replace(CONFIG, num_nodes=50_000)
    capped = dataclasses.replace(huge, num_nodes=64)
    fingerprint = double_run(fleet_run_fingerprint,
                             fleet_runs(huge, max_nodes=64))
    assert fingerprint == fleet_fingerprint(run_fleet_campaign(capped))


@pytest.mark.parametrize("fingerprint_fn, runs, match", [
    # hash() of a str is salted by PYTHONHASHSEED, which each run varies.
    pytest.param(hash, [("tinysdr",), ("tinysdr",)],
                 r"hash is not run-deterministic: hash run 1 of 2 "
                 r"\(PYTHONHASHSEED=101\) -> .*; hash run 2 of 2",
                 id="divergent"),
    pytest.param(fleet_run_fingerprint, [(CONFIG, 1), (CONFIG, 0)],
                 r"fleet_run_fingerprint run 2 of 2 "
                 r"\(PYTHONHASHSEED=202\) failed: (?s:.*)shards",
                 id="fleet-crash"),
    pytest.param(service_session_fingerprint, [(0,), (-1,)],
                 r"service_session_fingerprint run 2 of 2 "
                 r"\(PYTHONHASHSEED=202\) failed: (?s:.*)seed must be >= 0",
                 id="service-crash"),
    pytest.param(resilient_session_fingerprint, [(-1,), (0,)],
                 r"resilient_session_fingerprint run 1 of 2 "
                 r"\(PYTHONHASHSEED=101\) failed: (?s:.*)seed must be >= 0",
                 id="resilient-crash"),
])
def test_double_run_raises_on_divergence_or_a_failed_child(
        fingerprint_fn, runs, match):
    with pytest.raises(SanitizerError, match=match):
        double_run(fingerprint_fn, runs)


def test_check_from_env_is_gated_on_the_env_var():
    runs = fleet_runs(CONFIG)
    assert check_from_env(fleet_run_fingerprint, runs, environ={}) is None
    fingerprint = check_from_env(fleet_run_fingerprint, runs,
                                 environ={DETERMINISM_ENV_VAR: "1"})
    assert fingerprint == fleet_fingerprint(run_fleet_campaign(CONFIG))
