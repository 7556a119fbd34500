"""Tests for the from-scratch radix-2 FFT against numpy's reference.

Each transform runs the way the LoRa receiver runs it: the backend's
``fft_block`` kernel on a :class:`Radix2Fft` plan.
"""

import numpy as np
import pytest

from repro.dsp.fft import (
    Radix2Fft,
    bit_reverse_indices,
    is_power_of_two,
)
from repro.errors import ConfigurationError
from repro.phy.backend import get_backend


def forward(x):
    """The receiver's FFT of one row ``x``."""
    x = np.asarray(x, dtype=np.complex128)
    return get_backend().fft_block(*Radix2Fft(x.size).plan, x[None])[0]


class TestPowerOfTwo:
    def test_accepts_powers(self):
        for n in (1, 2, 4, 256, 4096):
            assert is_power_of_two(n)

    def test_rejects_non_powers(self):
        for n in (0, 3, 6, 100, -4):
            assert not is_power_of_two(n)


class TestBitReversal:
    def test_length_8_permutation(self):
        expected = np.array([0, 4, 2, 6, 1, 5, 3, 7])
        assert np.array_equal(bit_reverse_indices(8), expected)

    def test_is_an_involution(self):
        perm = bit_reverse_indices(64)
        assert np.array_equal(perm[perm], np.arange(64))

    def test_rejects_non_power(self):
        with pytest.raises(ConfigurationError):
            bit_reverse_indices(12)


class TestForwardTransform:
    @pytest.mark.parametrize("length", [2, 4, 8, 64, 256, 1024, 4096])
    def test_matches_numpy(self, length, rng):
        x = rng.normal(size=length) + 1j * rng.normal(size=length)
        ours = forward(x)
        reference = np.fft.fft(x)
        assert np.max(np.abs(ours - reference)) < 1e-9 * length

    def test_impulse_gives_flat_spectrum(self):
        x = np.zeros(64, dtype=complex)
        x[0] = 1.0
        spectrum = forward(x)
        assert np.allclose(spectrum, 1.0)

    def test_tone_concentrates_in_one_bin(self):
        n = 256
        tone = np.exp(2j * np.pi * 37 * np.arange(n) / n)
        spectrum = np.abs(forward(tone))
        assert int(np.argmax(spectrum)) == 37
        assert spectrum[37] == pytest.approx(n)

    def test_rejects_wrong_length_input(self):
        # The plan fixes the length the kernel transforms; a length the
        # radix-2 core cannot be configured for is refused up front.
        for length in (0, -64, 48):
            with pytest.raises(ConfigurationError):
                Radix2Fft(length)

    def test_rejects_non_power_length(self):
        with pytest.raises(ConfigurationError):
            Radix2Fft(100)


class TestInverseTransform:
    def test_roundtrip(self, rng):
        x = rng.normal(size=512) + 1j * rng.normal(size=512)
        assert np.allclose(np.fft.ifft(forward(x)), x)

    def test_parseval(self, rng):
        x = rng.normal(size=256) + 1j * rng.normal(size=256)
        spectrum = forward(x)
        assert np.sum(np.abs(x) ** 2) == pytest.approx(
            np.sum(np.abs(spectrum) ** 2) / 256)
