"""Performance subsystem: the keyed plan cache.

The sample/bit-level substrates the Fig. 6 pipelines run on (chirp
tables, FFT plans, NCO lookup tables, FIR tap sets) are expensive to
derive and identical across the many modem instances a testbed sweep
constructs.  :mod:`repro.perf.cache` memoizes those derived artifacts
behind a keyed plan cache.

Speed is measured by ``perfbench/run.py``; ``benchmarks/check_counters.py``
gates its exact work counters, this cache's hit ratio and misses too.
"""

from repro.perf.cache import (
    CacheStats,
    PlanCache,
    clear,
    get_or_build,
    plan_cache,
    stats,
)

__all__ = [
    "CacheStats",
    "PlanCache",
    "clear",
    "get_or_build",
    "plan_cache",
    "stats",
]

# Opt-in runtime sanitizer: REPRO_SANITIZE=1 wraps PlanCache.get_or_build
# so any writable array escaping the freezer raises immediately.
from repro.analysis.sanitize import install_from_env as _install_sanitizer

_install_sanitizer()
del _install_sanitizer
