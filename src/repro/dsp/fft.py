"""Radix-2 FFT plans, modelling the FPGA IP core.

The LoRa demodulator multiplies each received symbol by a conjugate chirp
and takes an FFT whose length equals ``2**SF`` (paper Fig. 6b, "an FFT
block implemented using a standard IP core from Lattice").  This module
builds the iterative radix-2 decimation-in-time plan (bit-reverse
permutation and per-stage twiddles) for one length, the way the core is
configured for a fixed size; the float butterflies themselves run in
:meth:`repro.phy.backend.NumpyBackend.fft_block`, which takes the plan
as ``fft_block(*Radix2Fft(n).plan, rows)``.

``numpy.fft`` remains available for spectral *measurement* in
:mod:`repro.dsp.measure`; the demodulation path uses this module.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.perf.cache import get_or_build


def is_power_of_two(n: int) -> bool:
    """True if ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def bit_reverse_indices(n: int) -> np.ndarray:
    """Bit-reversed index permutation for an ``n``-point radix-2 FFT."""
    if not is_power_of_two(n):
        raise ConfigurationError(f"FFT length must be a power of two, got {n}")
    bits = n.bit_length() - 1
    indices = np.arange(n, dtype=np.int64)
    reversed_ = np.zeros(n, dtype=np.int64)
    for _ in range(bits):
        reversed_ = (reversed_ << 1) | (indices & 1)
        indices >>= 1
    return reversed_


def _build_fft_plan(length: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Build the ``(permutation, stage_twiddles)`` plan for one length.

    The per-stage twiddle arrays are *sliced from the master table*
    (``exp(-2j*pi*k/length)``), never recomputed per stage, so their
    values are bit-identical to the historical per-call
    ``twiddles[::stride][:half]`` slices the butterfly loop used.
    """
    permutation = bit_reverse_indices(length)
    master = np.exp(-2j * np.pi * np.arange(max(length // 2, 1)) / length)
    stages = []
    half = 1
    while half < length:
        span = half * 2
        stride = length // span
        stages.append(master[::stride][:half].copy())
        half = span
    return permutation, tuple(stages)


class Radix2Fft:
    """The plan of an iterative radix-2 DIT FFT of one length.

    Instances hold the bit-reverse permutation and twiddle factors for one
    transform length, the way an FPGA core is configured for a fixed size;
    the demodulator keeps one per LoRa spreading factor and hands
    :attr:`plan` to the backend's ``fft_block`` kernel.

    Args:
        length: transform size (power of two).
    """

    def __init__(self, length: int) -> None:
        if not is_power_of_two(length):
            raise ConfigurationError(
                f"FFT length must be a power of two, got {length}")
        self.length = length
        # The bit-reverse permutation and per-stage twiddle tables are
        # the FFT "plan"; every instance of the same length shares one
        # frozen copy through the plan cache instead of recomputing it.
        self._permutation, self._stage_twiddles = get_or_build(
            ("fft_plan", length), lambda: _build_fft_plan(length))

    @property
    def plan(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """The frozen ``(permutation, stage_twiddles)`` plan pair."""
        return self._permutation, self._stage_twiddles
