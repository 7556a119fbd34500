"""The repository benchmark: three seeded closed-loop workloads.

Run one workload, as a benchmark driver does::

    python3 perfbench/run.py --workload phy_stream --seed 2020 \\
        --seconds 40 --trace 0

or all three, each in its own process, with a summary table::

    python3 perfbench/run.py [--seed 2020] [--seconds 40] [--trace 0]

``--trace 0`` sets the named workload up (timed, for ``setup_s``), then
runs all three workloads' clients interleaved for ``--seconds``: the
named one gets 40% of the busy time, the other two 30% each, and every
workload runs at least its minimum units.  Every run thus reports
every end-to-end metric in ``BENCHMARK.json``, each averaged over the
whole loop.  ``--trace 1`` runs a fixed amount of the named workload
alone three times, untraced, traced and untraced again, checks that all
three produce identical outputs, and prints the per-layer metrics from
the traced pass's spans.

Every output is checked; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Each run also
writes a manifest (seed, DSP backend, versions, commit, threads) and, in
a traced run, its spans, to ``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
RUNS = HERE / "runs"

WORKLOADS = ("phy_stream", "ota_campaign", "service_mix")
DEFAULT_SEED = 2020
HELD_OUT_SEED = 4242  # kept out of tuning; later claims are re-checked on it
SETUP_REPEATS = 3
#: Units every workload runs at least in a timed run: enough chunks and
#: jobs that each p99 has ten samples beyond it, and three campaigns.
MIN_UNITS = {"phy_stream": 3, "ota_campaign": 3, "service_mix": 1000}
#: Share of a timed run's busy time the named workload gets; the other
#: two split the rest.
FOCUS_SHARE = 0.4
#: Units of each pass of a traced run.
TRACE_UNITS = {"phy_stream": 2, "ota_campaign": 2, "service_mix": 1000}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMBA_NUM_THREADS")
MAX_THREADS = 2
clock = time.perf_counter


def pin_threads() -> None:
    """Cap BLAS/OpenMP pools at two threads, before numpy is imported."""
    cap = min(MAX_THREADS, os.cpu_count() or 1)
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cap:
            os.environ[var] = str(cap)


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git``; ``unknown`` elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    """Set the workload up, then time all three workloads interleaved."""
    begin = clock()
    module = importlib.import_module(name)
    import_s = clock() - begin
    from repro.perf import cache as plan_cache

    setups, focus = [], None
    for _ in range(SETUP_REPEATS):
        if focus is not None:
            focus.close()
        plan_cache.clear()
        begin = clock()
        focus = module.Pass(seed, workdir)
        setups.append(clock() - begin)
    passes = {other: focus if other == name else
              importlib.import_module(other).Pass(seed, workdir)
              for other in WORKLOADS}
    share = {other: FOCUS_SHARE if other == name else
             (1.0 - FOCUS_SHARE) / (len(WORKLOADS) - 1)
             for other in WORKLOADS}
    # Step whichever workload is furthest behind its share of busy time,
    # so each one's units spread over the whole loop: the machine's speed
    # drifts for seconds at a time, and every metric should average over
    # the same drift.
    start = clock()
    while True:
        short = [other for other in WORKLOADS
                 if passes[other].units < MIN_UNITS[other]]
        overtime = clock() - start >= seconds
        if overtime and not short:
            break
        behind = min(short if overtime else WORKLOADS,
                     key=lambda other: passes[other].busy / share[other])
        passes[behind].step()
    metrics = {"setup_s": import_s + statistics.median(setups),
               "peak_rss_mb": peak_rss_mb()}
    results = {other: workload.result()
               for other, workload in passes.items()}
    for result in results.values():
        metrics.update(result.metrics)
    attempted = sum(result.attempted for result in results.values())
    failures = [f"{other}: {line}" for other, result in results.items()
                for line in result.failures]
    metrics["ok_ratio"] = 1.0 - len(failures) / attempted
    return {"attempted": attempted, "failures": failures,
            "metrics": metrics,
            "detail": {"import_s": import_s, "setup_repeats_s": setups,
                       "units": {other: workload.units
                                 for other, workload in passes.items()},
                       "busy_s": {other: result.busy_s
                                  for other, result in results.items()},
                       "layer": results[name].layer}}


def run_units(module, seed: int, workdir: Path, units: int, tracer=None):
    """A fresh pass of ``units`` units: the same work for the same seed."""
    from repro.perf import cache as plan_cache

    plan_cache.clear()
    workload = module.Pass(seed, workdir)
    if tracer is not None:
        layers.install(tracer)
    try:
        while workload.units < units:
            workload.step(tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return workload.result()


def traced_run(name: str, seed: int, workdir: Path, names: list[str],
               spans_path: Path) -> dict:
    """A fixed amount of work untraced and traced; per-layer metrics."""
    from repro.perf import cache as plan_cache

    module = importlib.import_module(name)
    units = TRACE_UNITS[name]
    # Untraced before and after the traced pass: the first pass in a
    # process pays warm-up costs the others do not, and the machine's
    # speed drifts, so the overhead is taken against the mean of both.
    before = run_units(module, seed, workdir, units)
    tracer = Tracer()
    traced = run_units(module, seed, workdir, units, tracer)
    plan_stats = plan_cache.stats()
    after = run_units(module, seed, workdir, units)
    tracer.write(spans_path)

    untraced_s = (before.busy_s + after.busy_s) / 2.0
    failures = []
    for label, result in (("untraced", before), ("traced", traced),
                          ("untraced again", after)):
        failures += [f"{label}: {line}" for line in result.failures]
        if result.outputs != before.outputs:
            failures.append(f"{label} outputs differ from the first "
                            f"untraced outputs")
    measured = dict(before.layer)
    measured.update({
        "perf.plan_cache.hit_ratio": plan_stats.hit_rate,
        "perf.plan_cache.misses": plan_stats.misses,
        "trace.overhead_ratio": traced.busy_s / untraced_s - 1.0,
    })
    return {"attempted": before.attempted + traced.attempted
            + after.attempted + 2,
            "failures": failures,
            "metrics": layers.per_layer(names, tracer, measured),
            "detail": {"untraced_busy_s": [before.busy_s, after.busy_s],
                       "traced_busy_s": traced.busy_s,
                       "tracing_overhead_s": traced.busy_s - untraced_s,
                       "untraced_end_to_end": before.metrics,
                       "spans": len(tracer.spans),
                       "spans_file": str(spans_path.relative_to(ROOT))}}


def manifest(args: argparse.Namespace) -> dict:
    """What this run ran: seed, backend, versions, commit, threads."""
    import numpy
    from repro.phy.backend import resolve_backend_name

    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "dsp_backend": resolve_backend_name(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_commit": git_commit(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def run_one(args: argparse.Namespace, spec: dict) -> int:
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    RUNS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=RUNS) as tmp:
        if args.trace:
            run = traced_run(args.workload, args.seed, Path(tmp),
                             list(units), RUNS / f"{stem}.spans.jsonl")
        else:
            run = timed_run(args.workload, args.seed, args.seconds,
                            Path(tmp))
    record = {"manifest": manifest(args),
              "workload": layer_map["workloads"][args.workload], **run}
    (RUNS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, unit in units.items():
        print(f"{name:<40} {run['metrics'][name]:>14.6g} {unit}")
    failed = len(run["failures"])
    print(f"{'error_ratio':<40} {failed / run['attempted']:>14.6g} ratio "
          f"({failed} of {run['attempted']} ops failed)")
    for line in run["failures"][:20]:
        print(f"FAILED {line}")
    print(f"manifest: {(RUNS / f'{stem}.json').relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {name: {"value": run["metrics"][name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Each workload in its own process, then one table of every metric."""
    results = {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload} exited {done.returncode}:\n{done.stderr}",
                  file=sys.stderr)
            return 1
        results[workload] = json.loads(lines[-1])
        for line in lines[:-1]:
            if line.startswith("FAILED"):
                print(f"{workload}: {line}")
    kind = "per_layer" if args.trace else "end_to_end"
    print(f"{'metric':<40}" + "".join(f"{w:>16}" for w in WORKLOADS)
          + "  unit")
    for metric in spec[kind]:
        row = "".join(
            f"{results[w]['metrics'][metric['name']]['value']:>16.6g}"
            for w in WORKLOADS)
        print(f"{metric['name']:<40}{row}  {metric['unit']}")
    row = "".join(f"{r['failed'] / r['attempted']:>16.6g}"
                  for r in results.values())
    print(f"{'error_ratio':<40}{row}  ratio")
    RUNS.mkdir(exist_ok=True)
    summary = RUNS / f"summary-seed{args.seed}-trace{args.trace}.json"
    summary.write_text(json.dumps(results, indent=1) + "\n")
    print(f"summary: {summary.relative_to(ROOT)}")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all three)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; "
                             f"held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed loop (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run with per-layer metrics")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is "
              f"missing", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload is None:
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
