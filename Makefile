# Entry points for the tier-1 verification and the benchmark gates.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint semantic chaos chaos-service check golden-check service-smoke determinism-smoke perfbench-smoke stream-floor bench-paper

# Tier-1: the full unit/integration/property suite.
test:
	$(PYTHON) -m pytest -x -q

# Chaos suite: 25+ seeded randomized fault plans against the hardened
# OTA pipeline, asserting the robustness invariants hold under each.
chaos:
	$(PYTHON) -m pytest -q tests/test_chaos_ota.py

# Service-layer chaos: 25 seeded resilient sessions, each killed at a
# seed-derived journal record boundary (with torn final writes) and
# recovered; every seed must end all-terminal with the recovered
# session's digest bit-identical to the uninterrupted golden run's.
chaos-service:
	REPRO_DETERMINISM=1 $(PYTHON) -m pytest -q tests/test_chaos_service.py

# reprolint: the domain-aware static analyzer over src/ with the
# committed baseline (see [tool.reprolint] in pyproject.toml).
lint:
	$(PYTHON) -m repro.analysis src

# Just the whole-program semantic rules, cold (no incremental cache):
# determinism taint, parity-signature drift, shard safety.
semantic:
	$(PYTHON) -m repro.analysis src --select REPRO011,REPRO012,REPRO013 --no-cache

# Campaign-service smoke: run the end-to-end service example with the
# determinism double-run enabled (REPRO_DETERMINISM=1), re-proving the
# scheduler/cache/tenancy stack is bit-replayable across interpreters.
service-smoke:
	REPRO_DETERMINISM=1 $(PYTHON) examples/campaign_service.py

# Fleet and resilient-service smoke: run both examples with the
# determinism double-run enabled, re-proving the sharded fleet campaign
# and the supervised, crash-recoverable session are bit-replayable
# across interpreters.
determinism-smoke:
	REPRO_DETERMINISM=1 $(PYTHON) examples/fleet_campaign.py
	REPRO_DETERMINISM=1 $(PYTHON) examples/resilient_service.py

# Repo-benchmark smoke and exact work-counter gate: one traced run of
# each perfbench workload at seed 2020 (each untraced, traced and
# untraced again, outputs compared); every run must be correct and every
# count/bytes/samples metric, plus the deterministic ratios, must equal
# benchmarks/perf_counters.json.  No timing is compared.  To regenerate
# the file after an intended change, delete it and rerun this target,
# then explain every moved counter in CHANGES.md.
perfbench-smoke:
	$(PYTHON) benchmarks/check_counters.py

# Real-time receive floor: the phy_stream run perfbench-smoke just made
# must demodulate >= 4.0 Msps (untraced pass).  Wall time, so make check
# only; CI does not run it.
stream-floor: perfbench-smoke
	$(PYTHON) benchmarks/check_stream_floor.py

# Full gate: static analysis (all rules plus a cold semantic pass), the
# golden corpus, the service and fleet determinism smokes, the service
# chaos suite, the work-counter gate and, last, the real-time receive
# floor.
check: lint semantic golden-check service-smoke determinism-smoke chaos-service perfbench-smoke stream-floor

# PHY golden-vector drift gate: the committed conformance corpus
# (tests/fixtures/phy_golden/) must match what the current modulators
# and demodulators regenerate, bit for bit.  Rerun the generator
# without --check after an intentional DSP change.
golden-check:
	$(PYTHON) -m tests.gen_phy_golden --check

# The paper's tables/figures (pytest-benchmark suite).
bench-paper:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only
