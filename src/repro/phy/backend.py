"""The sample-level DSP kernels every PHY chain runs on.

One kernel set models the FPGA receive datapath (paper §4, Fig. 6b):
the radix-2 FFT butterflies, the FIR front-end (block-aligned and
streaming carry forms), the LoRa dechirp-fold, the BLE quadrature
discriminator and integrate-and-dump, and the O-QPSK matched filter.
The PHY code reaches them through the one shared instance
:func:`get_backend` returns, so a caller can wrap a kernel on
``type(get_backend())`` and see every call.

**Accumulation order is pinned.**  The FIR / integration kernels use
explicit *tap-major* accumulation (ascending tap index, one vectorized
slice-add per tap) instead of ``np.convolve``/``np.sum``: BLAS-backed
convolve sums each window in an architecture-dependent order that
scalar code cannot reproduce, whereas tap-major order is deterministic,
independent of how a stream is chunked, and exactly mirrored by the
``*_reference`` scalar twins the hypothesis parity suites check against
(``filter_block_reference``, ``GfskDemodulator.demodulate_reference``,
``OqpskDemodulator.soft_chips_reference``).  Sequential integration
matches ``np.sum`` for the window sizes the modems use (NumPy switches
to pairwise blocking only at 16+ elements).  The golden-vector corpus
(``tests/fixtures/phy_golden``) pins the outputs bit for bit.

FFT plans arrive as the ``(permutation, stage_twiddles)`` pair built by
:class:`repro.dsp.fft.Radix2Fft`: ``permutation`` is the bit-reverse
index array and ``stage_twiddles`` one frozen twiddle array per
butterfly stage.
"""

from __future__ import annotations

import numpy as np


def _fir_valid(taps: np.ndarray, extended: np.ndarray) -> np.ndarray:
    """Valid-mode FIR with tap-major accumulation order."""
    num_taps = taps.size
    n_out = extended.size - num_taps + 1
    acc = np.zeros(n_out, dtype=np.complex128)
    for k in range(num_taps):
        acc += taps[k] * extended[num_taps - 1 - k:num_taps - 1 - k + n_out]
    return acc


class NumpyBackend:
    """Vectorized NumPy kernels; see the module docstring for the order."""

    def fft_block(self, permutation: np.ndarray,
                  stage_twiddles: tuple[np.ndarray, ...],
                  blocks: np.ndarray) -> np.ndarray:
        """Radix-2 DIT forward FFT of each row of a ``(count, n)`` matrix."""
        data = blocks[:, permutation].astype(np.complex128)
        half = 1
        for twiddle in stage_twiddles:
            span = half * 2
            shaped = data.reshape(data.shape[0], -1, span)
            even = shaped[:, :, :half].copy()
            odd = shaped[:, :, half:] * twiddle
            shaped[:, :, :half] = even + odd
            shaped[:, :, half:] = even - odd
            half = span
        return data

    def fir_aligned(self, taps: np.ndarray,
                    samples: np.ndarray) -> np.ndarray:
        """Group-delay-aligned FIR over one block (same output length)."""
        if samples.size == 0:
            return np.zeros(0, dtype=np.complex128)
        delay = (taps.size - 1) // 2
        extended = np.concatenate([
            np.zeros(taps.size - 1, dtype=np.complex128),
            np.ascontiguousarray(samples, dtype=np.complex128),
            np.zeros(taps.size - 1 - delay, dtype=np.complex128)])
        return _fir_valid(taps, extended)[delay:delay + samples.size]

    def fir_carry(self, taps: np.ndarray, carry: np.ndarray,
                  chunk: np.ndarray) -> np.ndarray:
        """Streaming FIR step: ``len(chunk)`` new running-convolution outputs.

        ``carry`` holds the previous ``taps.size - 1`` input samples
        (zeros at stream start), so the output is exactly the next slice
        of the whole-stream convolution.
        """
        if chunk.size == 0:
            return np.zeros(0, dtype=np.complex128)
        extended = np.concatenate([
            np.ascontiguousarray(carry, dtype=np.complex128),
            np.ascontiguousarray(chunk, dtype=np.complex128)])
        return _fir_valid(taps, extended)

    def dechirp_magnitudes(self, windows: np.ndarray,
                           reference: np.ndarray,
                           permutation: np.ndarray,
                           stage_twiddles: tuple[np.ndarray, ...],
                           n_bins: int, oversampling: int) -> np.ndarray:
        """Dechirp + FFT + magnitude fold of a ``(count, sym)`` matrix.

        Multiplies each window by the conjugate-chirp ``reference``,
        transforms every row, takes magnitudes and folds the oversampled
        spectrum onto the ``n_bins`` symbol alphabet.
        """
        spectra = np.abs(self.fft_block(permutation, stage_twiddles,
                                        windows * reference))
        if oversampling == 1:
            return spectra
        folded = spectra[:, :n_bins].copy()
        folded += spectra[:, (oversampling - 1) * n_bins:
                          oversampling * n_bins]
        return folded

    def discriminate(self, samples: np.ndarray) -> np.ndarray:
        """Per-sample phase increments ``angle(x[1:] * conj(x[:-1]))``."""
        rotation = samples[1:] * np.conj(samples[:-1])
        return np.angle(rotation)

    def integrate_bits(self, freq: np.ndarray, start: int,
                       num_bits: int, sps: int) -> np.ndarray:
        """Integrate-and-dump symbol metrics over ``sps``-sample windows."""
        # The discriminator output is one sample shorter than its input,
        # so the final window may be truncated; integrate whole windows
        # as a matrix and finish any ragged tail scalar-wise (same
        # sequential order either way).
        segment = freq[start:start + num_bits * sps]
        full = min(segment.size // sps, num_bits)
        out = np.empty(num_bits, dtype=np.float64)
        if full:
            windows = segment[:full * sps].reshape(full, sps)
            acc = windows[:, 0].astype(np.float64)
            for j in range(1, sps):
                acc = acc + windows[:, j]
            out[:full] = acc
        for b in range(full, num_bits):
            window = segment[b * sps:(b + 1) * sps]
            metric = float(window[0]) if window.size else 0.0
            for j in range(1, window.size):
                metric = metric + window[j]
            out[b] = metric
        return out

    def matched_filter(self, samples: np.ndarray,
                       taps: np.ndarray) -> np.ndarray:
        """Full-mode real convolution (the half-sine matched filter)."""
        out = np.zeros(samples.size + taps.size - 1, dtype=np.float64)
        for k in range(taps.size):
            out[k:k + samples.size] += taps[k] * samples
        return out


_KERNELS = NumpyBackend()


def get_backend() -> NumpyBackend:
    """The shared kernel instance every PHY chain calls."""
    return _KERNELS


def resolve_backend_name() -> str:
    """Name of the kernel set, for run manifests."""
    return "numpy"
