"""Runtime sanitizers for the bit-exactness invariants.

The static rules catch mutation patterns the AST can see; this module
catches the rest at runtime.  With ``REPRO_SANITIZE=1`` in the
environment (checked when :mod:`repro.perf` is imported) every value
handed out by :meth:`repro.perf.cache.PlanCache.get_or_build` is
deep-verified: each numpy array reachable through tuples, lists and
dicts must already be frozen (``writeable=False``).  A writable array
means some build path bypassed the freezer — the exact corruption vector
the plan cache exists to prevent — and raises :class:`SanitizerError`
immediately rather than letting one consumer silently corrupt another's
plan.

Because cached arrays are frozen, caller mutation of a sanitized value
raises numpy's own ``ValueError: assignment destination is read-only``;
the sanitizer's job is to guarantee that property actually holds for
every return path.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Hashable, Iterator

import numpy as np

from repro.errors import ReproError

ENV_VAR = "REPRO_SANITIZE"


class SanitizerError(ReproError):
    """A runtime invariant check failed (``REPRO_SANITIZE=1`` or
    ``REPRO_DETERMINISM=1``)."""


def iter_arrays(value: Any) -> Iterator[np.ndarray]:
    """Yield every numpy array reachable through common containers."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list, set, frozenset)):
        for item in value:
            yield from iter_arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from iter_arrays(item)


def assert_frozen(value: Any, context: str = "cached plan") -> None:
    """Raise :class:`SanitizerError` if ``value`` holds a writable array."""
    for array in iter_arrays(value):
        if array.flags.writeable:
            raise SanitizerError(
                f"{context}: writable array (dtype={array.dtype}, "
                f"shape={array.shape}) escaped the plan-cache freezer; "
                f"shared plans must be setflags(write=False)")


_original_get_or_build: Callable[..., Any] | None = None


def install() -> None:
    """Wrap ``PlanCache.get_or_build`` with the frozen-plan check.

    Idempotent; importing :mod:`repro.perf` calls this automatically
    when ``REPRO_SANITIZE=1``.
    """
    global _original_get_or_build
    if _original_get_or_build is not None:
        return
    from repro.perf.cache import PlanCache

    original = PlanCache.get_or_build

    def sanitized_get_or_build(self: Any, key: Hashable,
                               builder: Callable[[], Any]) -> Any:
        value = original(self, key, builder)
        assert_frozen(value, context=f"plan cache key {key!r}")
        return value

    sanitized_get_or_build.__wrapped__ = original  # type: ignore[attr-defined]
    PlanCache.get_or_build = sanitized_get_or_build  # type: ignore[method-assign]
    _original_get_or_build = original


def uninstall() -> None:
    """Restore the unwrapped ``get_or_build`` (test isolation)."""
    global _original_get_or_build
    if _original_get_or_build is None:
        return
    from repro.perf.cache import PlanCache

    PlanCache.get_or_build = _original_get_or_build  # type: ignore[method-assign]
    _original_get_or_build = None


def installed() -> bool:
    """Whether the sanitizer wrapper is currently active."""
    return _original_get_or_build is not None


def install_from_env(environ: dict[str, str] | None = None) -> bool:
    """Install the sanitizer when ``REPRO_SANITIZE=1``; returns whether."""
    env = os.environ if environ is None else environ
    if env.get(ENV_VAR, "") == "1":
        install()
        return True
    return False
