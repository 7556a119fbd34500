# Entry points for the tier-1 verification and the hot-path perf gate.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint semantic chaos chaos-service check golden-check service-smoke determinism-smoke perfbench-smoke bench-hotpath bench-fleet bench-check bench-paper

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

# Repo-benchmark smoke: one traced ota_campaign run and one traced
# phy_stream run (each untraced, traced and untraced again, outputs
# compared).  run.py exits 0 even when a check failed, so the gate is
# each run's last stdout line's "correct" field.
perfbench-smoke:
	$(PYTHON) perfbench/run.py --workload ota_campaign --trace 1 \
		| tail -n 1 | tee /dev/stderr | grep -q '"correct": true'
	$(PYTHON) perfbench/run.py --workload phy_stream --trace 1 \
		| tail -n 1 | tee /dev/stderr | grep -q '"correct": true'

# Full gate: static analysis (all rules plus a cold semantic pass), the
# service and fleet determinism smokes, the service chaos suite and the
# perf-regression check, as CI would run them.
check: lint semantic golden-check service-smoke determinism-smoke chaos-service bench-check

# PHY golden-vector drift gate: the committed conformance corpus
# (tests/fixtures/phy_golden/) must match what the current modulators
# and demodulators regenerate, bit for bit.  Rerun the generator
# without --check after an intentional DSP change.
golden-check:
	$(PYTHON) -m tests.gen_phy_golden --check

# Regenerate BENCH_hotpath.json at the repo root.
bench-hotpath:
	$(PYTHON) benchmarks/bench_hotpath_throughput.py

# Campaign entries only (legacy, faulty and the 100k-node fleet
# engine); a filtered sweep never rewrites the committed baseline.
bench-fleet:
	$(PYTHON) benchmarks/bench_hotpath_throughput.py --only 'ota_campaign*'

# Fail (exit nonzero) on >30% fast-path throughput regression vs the
# committed BENCH_hotpath.json baseline, and on the absolute floors:
# the fleet engine (100x ota_campaign events/s), the service cache
# hit ratio, and the streaming LoRa receiver (>= 4.0 Msps sustained).
bench-check:
	$(PYTHON) benchmarks/check_regression.py

# The paper's tables/figures (pytest-benchmark suite).
bench-paper:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only
