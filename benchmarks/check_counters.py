"""Exact work-counter gate over the repository benchmark's traced runs.

Runs ``perfbench/run.py --workload W --seed 2020 --trace 1`` for each
workload and fails unless every run reports ``"correct": true`` and every
exact per-layer metric equals its value in ``benchmarks/perf_counters.json``.
Exact means a unit of ``count``, ``bytes`` or ``samples``, plus the
deterministic ratios in ``RATIOS``: they read the same on every run of a
seed, on any host, so any change is a change in the work the code does
(a second compression per node, a smaller result cache).  Timings
(``*.self_s``, latencies, ``trace.overhead_ratio``) are never compared;
the paired perfbench runs judge those.

``make perfbench-smoke`` runs this script.  After a change that moves a
counter on purpose, delete ``benchmarks/perf_counters.json`` and run the
script: it fails, and writes the file afresh from the runs if every run
was correct.  Commit the new file and explain each moved counter in
CHANGES.md.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
EXPECTED = ROOT / "benchmarks" / "perf_counters.json"
WORKLOADS = ("phy_stream", "ota_campaign", "service_mix")
SEED = 2020
EXACT_UNITS = ("count", "bytes", "samples")
RATIOS = ("phy.lora.decoded_ratio", "ota.mac.delivery_ratio",
          "perf.plan_cache.hit_ratio", "service.cache.hit_ratio")


def traced_result(workload: str) -> dict:
    """The JSON object on the last stdout line of one traced run."""
    done = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                           "--seed", str(SEED), "--trace", "1"],
                          capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload}: run.py exited {done.returncode}\n"
                         f"{done.stderr}")
    return json.loads(lines[-1])


def exact_metrics(result: dict) -> dict[str, float]:
    """The metrics of one run that must match the committed values."""
    return {name: metric["value"]
            for name, metric in result["metrics"].items()
            if metric["unit"] in EXACT_UNITS or name in RATIOS}


def compare(expected: dict[str, dict[str, float]],
            results: dict[str, dict]) -> list[str]:
    """Every way the runs differ from the committed counters."""
    failures = []
    for workload in sorted(expected.keys() | results.keys()):
        if workload not in results:
            failures.append(f"{workload}: not run")
            continue
        if results[workload].get("correct") is not True:
            failures.append(f"{workload}: the run is not correct")
        if workload not in expected:
            failures.append(f"{workload}: no committed counters")
            continue
        fresh = exact_metrics(results[workload])
        committed = expected[workload]
        for name in sorted(fresh.keys() | committed.keys()):
            if name not in fresh:
                failures.append(f"{workload}: {name} missing from the run")
            elif name not in committed:
                failures.append(f"{workload}: {name} = {fresh[name]!r} is "
                                f"not committed")
            elif fresh[name] != committed[name]:
                failures.append(f"{workload}: {name} = {fresh[name]!r}, "
                                f"committed {committed[name]!r}")
    return failures


def main() -> int:
    results = {workload: traced_result(workload) for workload in WORKLOADS}
    document = (json.loads(EXPECTED.read_text()) if EXPECTED.exists()
                else {"workloads": {}})
    failures = compare(document["workloads"], results)
    for workload, result in results.items():
        print(f"{workload}: correct {result['correct']}, "
              f"{len(exact_metrics(result))} exact metrics")
    for line in failures:
        print(f"FAIL {line}")
    if not EXPECTED.exists() and all(result["correct"] is True
                                     for result in results.values()):
        record = json.loads((RUN.parent / "runs" / f"{WORKLOADS[0]}-seed"
                             f"{SEED}-trace1.json").read_text())
        EXPECTED.write_text(json.dumps({
            "command": f"python3 perfbench/run.py --workload W "
                       f"--seed {SEED} --trace 1",
            "commit": record["manifest"]["git_commit"],
            "workloads": {workload: exact_metrics(result)
                          for workload, result in results.items()}},
            indent=1) + "\n")
        print(f"wrote {EXPECTED.relative_to(ROOT)}: commit it and explain "
              f"every moved counter in CHANGES.md")
    if failures:
        return 1
    print(f"every exact counter matches {EXPECTED.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
