"""LoRa demodulator (paper Fig. 6b).

The FPGA receive pipeline is: I/Q Deserializer -> 14-tap FIR low-pass ->
sample buffer -> Complex Multiplier (dechirp against a locally generated
base chirp) -> FFT -> Symbol Detector (peak search).  Chirp *type*
(up/down) is detected by dechirping with both an upchirp and a downchirp
and comparing the FFT peak magnitudes - exactly as described in the paper.

:class:`SymbolDemodulator` implements the dechirp-FFT-peak core;
:class:`PacketSynchronizer` locates packets (preamble run detection,
symbol-boundary alignment, SFD search, integer CFO estimation); and
:class:`LoRaDemodulator` combines them with the codec to recover payloads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.fft import Radix2Fft
from repro.dsp.filters import design_lowpass, filter_block
from repro.errors import CodingError, DemodulationError
from repro.perf.cache import get_or_build
from repro.phy.backend import get_backend
from repro.phy.lora.chirp import ideal_chirp
from repro.phy.lora.codec import (
    HEADER_CR_DENOMINATOR,
    DecodedPayload,
    LoRaCodec,
)
from repro.phy.lora.packet import (
    SyncResult,
    sync_word_from_symbols,
)
from repro.phy.lora.params import LoRaParams

FIR_TAPS = 14
"""The paper's demodulator uses a 14-tap FIR low-pass filter."""

MIN_PREAMBLE_RUN = 6
"""Consecutive equal preamble bins required to declare detection."""

HEADER_SYMBOLS = HEADER_CR_DENOMINATOR
"""Symbols in the explicit header block (one CR=4/8 interleaver block)."""


@dataclass(frozen=True)
class SymbolDecision:
    """One demodulated chirp symbol.

    Attributes:
        value: detected cyclic shift (FFT peak bin, folded to ``2**SF``).
        magnitude: peak magnitude (detection confidence).
        is_upchirp: result of the up/down chirp-type comparison.
    """

    value: int
    magnitude: float
    is_upchirp: bool


class SymbolDemodulator:
    """Dechirp + FFT + peak detection for one LoRa configuration.

    The dechirp-FFT-fold kernel runs in :mod:`repro.phy.backend`.
    """

    def __init__(self, params: LoRaParams) -> None:
        self.params = params
        # The conjugate dechirp reference and base upchirp are shared
        # through the plan cache: every modem built for the same params
        # (testbed sweeps build one per node per config) reuses one
        # frozen table instead of regenerating it.
        self._downchirp = get_or_build(
            ("lora_dechirp", params), lambda: np.conj(ideal_chirp(params, 0)))
        self._upchirp = get_or_build(
            ("lora_upchirp_ref", params), lambda: ideal_chirp(params, 0))
        self._fft = Radix2Fft(params.samples_per_symbol)

    @property
    def fft_length(self) -> int:
        """FFT size used per symbol (``2**SF * oversampling``)."""
        return self._fft.length

    def _mags(self, windows: np.ndarray,
              reference: np.ndarray) -> np.ndarray:
        """Dechirped, folded FFT magnitudes for a window matrix."""
        permutation, stage_twiddles = self._fft.plan
        return get_backend().dechirp_magnitudes(
            windows, reference, permutation, stage_twiddles,
            self.params.chips_per_symbol, self.params.oversampling)

    def demodulate(self, window: np.ndarray) -> SymbolDecision:
        """Demodulate one symbol-length window of samples.

        Raises:
            DemodulationError: if the window length is wrong.
        """
        window = np.asarray(window, dtype=np.complex128)
        if window.size != self.params.samples_per_symbol:
            raise DemodulationError(
                f"expected {self.params.samples_per_symbol} samples, "
                f"got {window.size}")
        up_mags = self._mags(window.reshape(1, -1), self._downchirp)[0]
        down_mags = self._mags(window.reshape(1, -1), self._upchirp)[0]
        up_bin = int(np.argmax(up_mags))
        down_bin = int(np.argmax(down_mags))
        if up_mags[up_bin] >= down_mags[down_bin]:
            return SymbolDecision(value=up_bin,
                                  magnitude=float(up_mags[up_bin]),
                                  is_upchirp=True)
        return SymbolDecision(value=down_bin,
                              magnitude=float(down_mags[down_bin]),
                              is_upchirp=False)

    def demodulate_upchirp(self, window: np.ndarray) -> tuple[int, float]:
        """Fast path assuming the window holds an upchirp symbol."""
        window = np.asarray(window, dtype=np.complex128)
        if window.size != self.params.samples_per_symbol:
            raise DemodulationError(
                f"expected {self.params.samples_per_symbol} samples, "
                f"got {window.size}")
        mags = self._mags(window.reshape(1, -1), self._downchirp)[0]
        bin_index = int(np.argmax(mags))
        return bin_index, float(mags[bin_index])

    def demodulate_downchirp(self, window: np.ndarray) -> tuple[int, float]:
        """Fast path assuming the window holds a downchirp symbol."""
        window = np.asarray(window, dtype=np.complex128)
        if window.size != self.params.samples_per_symbol:
            raise DemodulationError(
                f"expected {self.params.samples_per_symbol} samples, "
                f"got {window.size}")
        mags = self._mags(window.reshape(1, -1), self._upchirp)[0]
        bin_index = int(np.argmax(mags))
        return bin_index, float(mags[bin_index])

    def demodulate_upchirp_block(self, windows: np.ndarray
                                 ) -> tuple[np.ndarray, np.ndarray]:
        """Batched upchirp demodulation of a ``(count, sym)`` window matrix.

        Dechirps and FFTs every row at once; each row's decision is
        bit-exact with :meth:`demodulate_upchirp` on that window.

        Returns:
            ``(bins, magnitudes)`` arrays of length ``count``.

        Raises:
            DemodulationError: if the matrix width is not one symbol.
        """
        windows = np.asarray(windows, dtype=np.complex128)
        if windows.ndim != 2 or \
                windows.shape[1] != self.params.samples_per_symbol:
            raise DemodulationError(
                f"expected a (count, {self.params.samples_per_symbol}) "
                f"window matrix, got shape {windows.shape}")
        mags = self._mags(windows, self._downchirp)
        bins = np.argmax(mags, axis=1)
        return bins.astype(np.int64), mags[np.arange(mags.shape[0]), bins]

    def demodulate_block(self, windows: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched chirp-type demodulation of a ``(count, sym)`` matrix.

        Runs the up- and down-chirp comparisons for every row at once;
        row ``k`` reproduces :meth:`demodulate` on that window bit for
        bit.  This is the synchronizer's SFD-walk fast path.

        Returns:
            ``(values, magnitudes, is_upchirp)`` arrays of length
            ``count``.

        Raises:
            DemodulationError: if the matrix width is not one symbol.
        """
        windows = np.asarray(windows, dtype=np.complex128)
        if windows.ndim != 2 or \
                windows.shape[1] != self.params.samples_per_symbol:
            raise DemodulationError(
                f"expected a (count, {self.params.samples_per_symbol}) "
                f"window matrix, got shape {windows.shape}")
        up_mags = self._mags(windows, self._downchirp)
        down_mags = self._mags(windows, self._upchirp)
        rows = np.arange(windows.shape[0])
        up_bins = np.argmax(up_mags, axis=1)
        down_bins = np.argmax(down_mags, axis=1)
        up_peaks = up_mags[rows, up_bins]
        down_peaks = down_mags[rows, down_bins]
        is_up = up_peaks >= down_peaks
        values = np.where(is_up, up_bins, down_bins).astype(np.int64)
        magnitudes = np.where(is_up, up_peaks, down_peaks)
        return values, magnitudes, is_up

    def demodulate_stream(self, samples: np.ndarray,
                          num_symbols: int,
                          start: int = 0) -> np.ndarray:
        """Demodulate ``num_symbols`` aligned upchirp symbols from a stream.

        Batched fast path: the stream is viewed as a symbol matrix and
        dechirp + FFT run over all symbols at once.  Results are
        bit-exact with :meth:`demodulate_stream_reference`.

        Raises:
            DemodulationError: if the stream is too short.
        """
        sym = self.params.samples_per_symbol
        end = start + num_symbols * sym
        samples = np.asarray(samples, dtype=np.complex128)
        if num_symbols < 0 or end > samples.size:
            raise DemodulationError(
                f"stream of {samples.size} samples cannot hold {num_symbols} "
                f"symbols from offset {start}")
        if num_symbols == 0:
            return np.empty(0, dtype=np.int64)
        windows = samples[start:end].reshape(num_symbols, sym)
        values, _ = self.demodulate_upchirp_block(windows)
        return values

    def demodulate_stream_reference(self, samples: np.ndarray,
                                    num_symbols: int,
                                    start: int = 0) -> np.ndarray:
        """One-symbol-per-call reference for :meth:`demodulate_stream`."""
        sym = self.params.samples_per_symbol
        end = start + num_symbols * sym
        samples = np.asarray(samples, dtype=np.complex128)
        if num_symbols < 0 or end > samples.size:
            raise DemodulationError(
                f"stream of {samples.size} samples cannot hold {num_symbols} "
                f"symbols from offset {start}")
        values = np.empty(num_symbols, dtype=np.int64)
        for i in range(num_symbols):
            window = samples[start + i * sym:start + (i + 1) * sym]
            values[i], _ = self.demodulate_upchirp(window)
        return values


class PacketSynchronizer:
    """Locate LoRa packets in a raw sample stream.

    The search runs in three phases:

    1. **Preamble scan** - demodulate symbol-sized windows on a symbol-rate
       grid; a run of >= ``MIN_PREAMBLE_RUN`` windows whose upchirp bin is
       constant marks a preamble, and the bin value gives the sample
       misalignment (a window offset of ``e`` chips shifts the dechirped
       tone to bin ``e``).
    2. **SFD search** - from the aligned position, classify successive
       symbols as up/down chirps; the first downchirp starts the SFD and
       the two symbols preceding it carry the sync word.
    3. **CFO estimate** - the preamble (upchirp) bin measures ``timing +
       cfo`` while the SFD (downchirp) bin measures ``cfo - timing``;
       their combination isolates the integer-bin CFO.
    """

    def __init__(self, params: LoRaParams) -> None:
        self.params = params
        self.symbol_demod = SymbolDemodulator(params)

    def find_packet(self, samples: np.ndarray,
                    search_start: int = 0) -> SyncResult:
        """Find the first packet at or after ``search_start``.

        Raises:
            DemodulationError: if no preamble/SFD can be located.
        """
        samples = np.asarray(samples, dtype=np.complex128)
        sym = self.params.samples_per_symbol
        n = self.params.chips_per_symbol
        os = self.params.oversampling

        run_position, run_bin = self._find_preamble_run(samples, search_start)
        # A window starting e samples after the packet's symbol grid sees
        # the repeated-upchirp peak at bin (w - p)/os mod N, so stepping
        # back by bin*os chips lands on a packet symbol boundary.
        offset_samples = (run_bin % n) * os
        aligned = run_position - offset_samples
        while aligned < 0:
            aligned += sym

        sfd_index, sync_high, sync_low, up_bin, preamble_mag = \
            self._find_sfd(samples, aligned)
        sfd_start = aligned + sfd_index * sym
        down_bin, _ = self.symbol_demod.demodulate_downchirp(
            samples[sfd_start:sfd_start + sym])
        cfo_bins = self._estimate_cfo_bins(up_bin, down_bin)
        # The preamble bin measured timing + CFO together; take the CFO
        # share back out of the timing estimate.
        sfd_start += cfo_bins * os

        payload_start = sfd_start + int(round(2.25 * sym))
        sync_word = sync_word_from_symbols(
            self.params,
            (sync_high - cfo_bins) % n,
            (sync_low - cfo_bins) % n)
        preamble_start = sfd_start - (2 + MIN_PREAMBLE_RUN) * sym
        return SyncResult(payload_start=payload_start,
                          preamble_start=max(preamble_start, 0),
                          sync_word=sync_word,
                          cfo_bins=cfo_bins,
                          preamble_magnitude=preamble_mag)

    def _find_preamble_run(self, samples: np.ndarray,
                           search_start: int) -> tuple[int, int]:
        """Scan for a run of constant upchirp bins.

        Returns:
            ``(position, bin)`` where ``position`` is the *absolute
            sample index* of the first window in the run (windows sit
            on a symbol-rate grid anchored at ``search_start``, which
            need not itself be symbol-aligned).
        """
        sym = self.params.samples_per_symbol
        n = self.params.chips_per_symbol
        num_windows = (samples.size - search_start) // sym
        if num_windows < MIN_PREAMBLE_RUN:
            raise DemodulationError(
                "stream too short to contain a LoRa preamble")
        run_start = 0
        run_length = 0
        previous_bin = -1
        # Windows are demodulated in batched chunks (dechirp + FFT over
        # a whole matrix); the run bookkeeping below stays scalar so the
        # scan can stop at the first qualifying run.  Chunks start small
        # and grow geometrically: packets near the stream head (the
        # common case) are found after one small batch instead of
        # paying for a full 64-window transform up front.  Chunking
        # never changes the result - decisions are per-window and the
        # run state carries across chunk boundaries.
        chunk_windows = 8
        chunk_start = 0
        while chunk_start < num_windows:
            count = min(chunk_windows, num_windows - chunk_start)
            begin = search_start + chunk_start * sym
            windows = samples[begin:begin + count * sym].reshape(count, sym)
            bins, _ = self.symbol_demod.demodulate_upchirp_block(windows)
            for local, bin_index in enumerate(bins):
                w = chunk_start + local
                bin_index = int(bin_index)
                delta = (bin_index - previous_bin) % n
                if previous_bin >= 0 and (delta <= 1 or delta == n - 1):
                    run_length += 1
                else:
                    run_start = w
                    run_length = 1
                previous_bin = bin_index
                if run_length >= MIN_PREAMBLE_RUN:
                    return (search_start + run_start * sym, bin_index)
            chunk_start += count
            chunk_windows = min(chunk_windows * 2, 64)
        raise DemodulationError("no LoRa preamble found in stream")

    def _find_sfd(self, samples: np.ndarray,
                  aligned: int) -> tuple[int, int, int, int, float]:
        """Walk aligned symbols until the first downchirp (SFD).

        Symbols are classified in batched chunks (one dechirp + FFT
        matrix per chunk, both chirp types at once); the walk logic is
        unchanged, so decisions match the one-symbol-at-a-time walk bit
        for bit.
        """
        sym = self.params.samples_per_symbol
        max_symbols = (samples.size - aligned) // sym
        history: list[int] = []
        magnitudes: list[float] = []
        chunk_symbols = 8
        k = 0
        while k < max_symbols:
            count = min(chunk_symbols, max_symbols - k)
            begin = aligned + k * sym
            windows = samples[begin:begin + count * sym].reshape(count, sym)
            values, mags, is_up = self.symbol_demod.demodulate_block(windows)
            for local in range(count):
                if not is_up[local] and (k + local) >= 3:
                    if len(history) < 2:
                        raise DemodulationError(
                            "SFD found without preceding sync symbols")
                    sync_high = history[-2]
                    sync_low = history[-1]
                    up_bin = int(np.median(history[:-2])) \
                        if len(history) > 2 else history[0]
                    mean_mag = float(np.mean(magnitudes[:-2])) if len(
                        magnitudes) > 2 else float(np.mean(magnitudes))
                    return k + local, sync_high, sync_low, up_bin, mean_mag
                history.append(int(values[local]))
                magnitudes.append(float(mags[local]))
            k += count
        raise DemodulationError("no SFD (downchirp) found after preamble")

    def _estimate_cfo_bins(self, up_bin: int, down_bin: int) -> int:
        """Integer CFO from the up/down bin pair (both ~ cfo +- timing)."""
        return estimate_cfo_bins(self.params.chips_per_symbol,
                                 up_bin, down_bin)


@dataclass(frozen=True)
class ReceivedPacket:
    """One packet recovered by :meth:`LoRaDemodulator.receive_all`.

    Attributes:
        decoded: the codec output (payload bytes, CRC status, ...).
        payload_start: sample index of the first payload symbol.
        cfo_bins: integer carrier frequency offset estimate.
        symbols: the raw demodulated payload symbol values.
        sync_word: the packet's sync word.
    """

    decoded: DecodedPayload
    payload_start: int
    cfo_bins: int
    symbols: tuple[int, ...]
    sync_word: int


def estimate_cfo_bins(n: int, up_bin: int, down_bin: int) -> int:
    """Integer CFO from the up/down bin pair (both ~ cfo +- timing)."""

    def signed(b: int) -> int:
        return b - n if b > n // 2 else b

    return (signed(up_bin) + signed(down_bin)) // 2


class LoRaDemodulator:
    """Full receive chain: FIR front-end, synchronizer, symbol demod, codec.

    Args:
        params: LoRa PHY configuration.
        crc: expect a payload CRC (must match the transmitter).
        use_fir: run the paper's 14-tap low-pass in front of the
            demodulator.  Defaults to on only when oversampling > 1 - at
            critical sampling the signal already occupies the whole band
            and the filter would bite into the outer bins.
    """

    def __init__(self, params: LoRaParams, crc: bool = True,
                 use_fir: bool | None = None) -> None:
        self.params = params
        self.codec = LoRaCodec(params, crc=crc)
        self.synchronizer = PacketSynchronizer(params)
        self.symbol_demod = self.synchronizer.symbol_demod
        if use_fir is None:
            use_fir = params.oversampling > 1
        self._fir_taps = None
        if use_fir:
            cutoff_hz = params.bandwidth_hz / 2.0 * 1.1
            self._fir_taps = get_or_build(
                ("fir_lowpass", FIR_TAPS, cutoff_hz, params.sample_rate_hz),
                lambda: design_lowpass(
                    FIR_TAPS, cutoff_hz=cutoff_hz,
                    sample_rate_hz=params.sample_rate_hz))

    def frontend(self, samples: np.ndarray) -> np.ndarray:
        """Apply the receive FIR (identity when disabled)."""
        if self._fir_taps is None:
            return np.asarray(samples, dtype=np.complex128)
        return filter_block(self._fir_taps, samples)

    def _derotate(self, samples: np.ndarray, cfo_bins: int) -> np.ndarray:
        """Remove an integer-bin CFO."""
        if cfo_bins == 0:
            return samples
        offset_hz = cfo_bins * self.params.bandwidth_hz / \
            self.params.chips_per_symbol
        n = np.arange(samples.size)
        return samples * np.exp(
            -2j * np.pi * offset_hz / self.params.sample_rate_hz * n)

    def _aligned_symbol_values(self, stream: np.ndarray, start: int,
                               count: int, cfo_bins: int) -> np.ndarray:
        """Demodulate ``count`` aligned payload symbols at ``start``.

        Derotation uses *global* sample indices (``start + k``), so the
        result is bit-identical to derotating the whole stream and then
        slicing - ``exp``/complex multiply are elementwise, making the
        slice-then-derotate order safe.  Only the packet's own samples
        are touched, which keeps multi-packet scans linear in stream
        length instead of quadratic.
        """
        sym = self.params.samples_per_symbol
        window = stream[start:start + count * sym]
        if cfo_bins != 0:
            offset_hz = cfo_bins * self.params.bandwidth_hz / \
                self.params.chips_per_symbol
            idx = start + np.arange(window.size)
            window = window * np.exp(
                -2j * np.pi * offset_hz /
                self.params.sample_rate_hz * idx)
        return self.symbol_demod.demodulate_stream(window, count)

    def receive(self, samples: np.ndarray,
                payload_symbols: int | None = None) -> DecodedPayload:
        """Find and decode the first packet in a sample stream.

        Args:
            samples: raw complex baseband stream.
            payload_symbols: number of payload symbols to demodulate;
                derived from the explicit header when omitted (the codec
                decodes as many whole blocks as are present).

        Raises:
            DemodulationError: when no packet can be found.
        """
        filtered = self.frontend(samples)
        sync = self.synchronizer.find_packet(filtered)
        stream = self._derotate(filtered, sync.cfo_bins)
        sym = self.params.samples_per_symbol
        available = max(0, (stream.size - sync.payload_start) // sym)
        if payload_symbols is None:
            payload_symbols = available
        if payload_symbols > available:
            raise DemodulationError(
                f"stream holds only {available} payload symbols, "
                f"{payload_symbols} requested")
        values = self.symbol_demod.demodulate_stream(
            stream, payload_symbols, start=sync.payload_start)
        return self.codec.decode(values)

    def receive_all(self, samples: np.ndarray) -> list[ReceivedPacket]:
        """Find and decode every packet in a sample stream.

        The front-end FIR runs once over the whole stream; each packet
        is then located, its explicit header decoded to learn the exact
        payload symbol count, and only that packet's samples derotated
        and demodulated.  A truncated final packet (header promises more
        symbols than the stream holds) is never demodulated - partial
        windows cannot shift earlier symbol decisions.

        Requires explicit-header mode (the header carries the length).

        Raises:
            DemodulationError: in implicit-header mode.
        """
        if not self.params.explicit_header:
            raise DemodulationError(
                "receive_all requires explicit-header mode")
        filtered = self.frontend(samples)
        sym = self.params.samples_per_symbol
        packets: list[ReceivedPacket] = []
        search = 0
        while True:
            try:
                sync = self.synchronizer.find_packet(filtered, search)
            except DemodulationError:
                break
            start = sync.payload_start
            available = max(0, (filtered.size - start) // sym)
            if available < HEADER_SYMBOLS:
                break
            header_values = self._aligned_symbol_values(
                filtered, start, HEADER_SYMBOLS, sync.cfo_bins)
            header = self.codec.decode_header(header_values)
            if not header.header_ok:
                # Corrupt header: skip past it and keep scanning.
                search = start + HEADER_SYMBOLS * sym
                continue
            try:
                count = HEADER_SYMBOLS + self.codec.payload_section_symbols(
                    header.payload_length,
                    header.coding_rate_denominator,
                    header.crc_flag)
            except CodingError:
                # A corrupt header whose checksum happens to validate can
                # still announce an out-of-range coding rate; treat it
                # like any other bad header.
                search = start + HEADER_SYMBOLS * sym
                continue
            if count > available:
                # Truncated tail packet: never demodulate partial
                # symbols (they must not shift earlier decisions).
                break
            values = self._aligned_symbol_values(
                filtered, start, count, sync.cfo_bins)
            packets.append(ReceivedPacket(
                decoded=self.codec.decode(values),
                payload_start=start,
                cfo_bins=sync.cfo_bins,
                symbols=tuple(int(v) for v in values),
                sync_word=sync.sync_word))
            search = start + count * sym
        return packets

    def receive_aligned_symbols(self, samples: np.ndarray,
                                num_symbols: int) -> np.ndarray:
        """Demodulate an already-aligned upchirp symbol stream.

        This is how the paper measures chirp symbol error rate (Fig. 11):
        known random symbols, known alignment, count detection errors.
        """
        filtered = self.frontend(samples)
        return self.symbol_demod.demodulate_stream(filtered, num_symbols)
