"""Chunked streaming LoRa demodulation with explicit carry-over state.

The batch receiver (:meth:`LoRaDemodulator.receive_all`) needs the whole
capture in memory.  A testbed access point streams I/Q off the radio
continuously, so :class:`StreamingDemodulator` accepts the capture in
arbitrary chunks — down to one sample at a time — and produces the
*bit-identical* packet list while holding only a bounded sample window.

Chunk invariance rests on three properties, each pinned by the parity
suites:

1. The FIR front-end uses tap-major accumulation
   (:mod:`repro.phy.backend`), whose per-output add order is independent
   of how the input is chunked, so the streamed filter output equals
   ``filter_block`` on the whole capture bit for bit.
2. Every synchronizer decision (preamble run bookkeeping, SFD walk,
   CFO estimate) is made per symbol-window on a fixed sample grid; the
   carry-over state between chunks is a handful of scalars.
3. Payload derotation uses *global* sample indices, so derotating a
   packet's slice equals slicing the derotated capture (``exp`` and
   complex multiply are elementwise).

**Streaming-state discipline** (lint rule REPRO015): every buffer this
class keeps is trimmed to a bounded window each :meth:`push`; memory use
is independent of capture length.  A truncated final symbol is never
demodulated — partial windows wait in the buffer for more samples and
are discarded by :meth:`flush`, so they cannot shift earlier decisions.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.filters import StreamingFir, design_lowpass
from repro.errors import CodingError, ConfigurationError
from repro.perf.cache import get_or_build
from repro.phy.lora.codec import LoRaCodec
from repro.phy.lora.demodulator import (
    FIR_TAPS,
    HEADER_SYMBOLS,
    MIN_PREAMBLE_RUN,
    ReceivedPacket,
    SymbolDemodulator,
    estimate_cfo_bins,
)
from repro.phy.lora.packet import sync_word_from_symbols
from repro.phy.lora.params import LoRaParams

_SEARCH = "search"
_SFD = "sfd"
_PAYLOAD = "payload"


class _StreamingAlignedFir:
    """Streaming twin of the aligned block FIR.

    Across any chunking, the concatenated outputs equal
    ``filter_block(taps, stream)`` bit for bit: the inner
    :class:`StreamingFir` carries the delay line, the first ``delay``
    convolution outputs are skipped and :meth:`flush` pushes the same
    trailing zero padding the block path appends.
    """

    def __init__(self, taps: np.ndarray) -> None:
        self._fir = StreamingFir(taps)
        self._num_taps = self._fir.taps.size
        self._delay = (self._num_taps - 1) // 2
        self._to_skip = self._delay
        self._pushed = 0
        self._emitted = 0

    def _skip(self, out: np.ndarray) -> np.ndarray:
        """Drop whatever is left of the group-delay prefix."""
        if self._to_skip:
            taken = min(self._to_skip, out.size)
            out = out[taken:]
            self._to_skip -= taken
        return out

    def process(self, chunk: np.ndarray) -> np.ndarray:
        self._pushed += chunk.size
        out = self._skip(self._fir.process(chunk))
        self._emitted += out.size
        return out

    def flush(self) -> np.ndarray:
        """Emit the delayed tail by pushing the block path's zero pad."""
        missing = self._pushed - self._emitted
        if missing <= 0:
            return np.zeros(0, dtype=np.complex128)
        pad = np.zeros(self._num_taps - 1 - self._delay, dtype=np.complex128)
        out = self._skip(self._fir.process(pad))[:missing]
        self._emitted += out.size
        return out

    def reset(self) -> None:
        self._fir.reset()
        self._to_skip = self._delay
        self._pushed = 0
        self._emitted = 0


class StreamingDemodulator:
    """Incremental multi-packet LoRa receiver.

    Feed arbitrary sample chunks with :meth:`push`; each call returns
    the packets completed by that chunk.  :meth:`flush` ends the capture
    (emitting any packet the FIR tail completes and discarding partial
    state).  The packet list over any chunking is bit-identical to
    :meth:`LoRaDemodulator.receive_all` on the concatenated capture.

    Args:
        params: LoRa PHY configuration (explicit-header mode required —
            streaming reception learns packet lengths from the header).
        crc: expect a payload CRC (must match the transmitter).
        use_fir: run the paper's 14-tap low-pass front-end; same default
            rule as :class:`LoRaDemodulator`.
    """

    def __init__(self, params: LoRaParams, crc: bool = True,
                 use_fir: bool | None = None) -> None:
        if not params.explicit_header:
            raise ConfigurationError(
                "streaming demodulation requires explicit-header mode "
                "(packet lengths come from the PHY header)")
        self.params = params
        self.codec = LoRaCodec(params, crc=crc)
        self.symbol_demod = SymbolDemodulator(params)
        if use_fir is None:
            use_fir = params.oversampling > 1
        self._fir: _StreamingAlignedFir | None = None
        if use_fir:
            cutoff_hz = params.bandwidth_hz / 2.0 * 1.1
            taps = get_or_build(
                ("fir_lowpass", FIR_TAPS, cutoff_hz, params.sample_rate_hz),
                lambda: design_lowpass(
                    FIR_TAPS, cutoff_hz=cutoff_hz,
                    sample_rate_hz=params.sample_rate_hz))
            self._fir = _StreamingAlignedFir(taps)
        self._buffer = np.zeros(0, dtype=np.complex128)
        self._buffer_start = 0
        self._reset_search(0)
        self._finished = False

    # -- public API --------------------------------------------------------

    @property
    def buffered_samples(self) -> int:
        """Filtered samples currently held (bounded; see module doc)."""
        return self._buffer.size

    def push(self, chunk: np.ndarray) -> list[ReceivedPacket]:
        """Feed one chunk of raw samples; return packets it completed."""
        if self._finished:
            raise ConfigurationError(
                "demodulator was flushed; call reset() to start a new "
                "capture")
        chunk = np.asarray(chunk, dtype=np.complex128).reshape(-1)
        filtered = self._fir.process(chunk) if self._fir is not None \
            else chunk
        self._append(filtered)
        return self._drain()

    def flush(self) -> list[ReceivedPacket]:
        """End the capture: drain the FIR tail, discard partial packets."""
        if self._finished:
            return []
        if self._fir is not None:
            self._append(self._fir.flush())
        packets = self._drain()
        self._finished = True
        return packets

    def reset(self) -> None:
        """Forget all carried state and start a fresh capture."""
        if self._fir is not None:
            self._fir.reset()
        self._buffer = np.zeros(0, dtype=np.complex128)
        self._buffer_start = 0
        self._reset_search(0)
        self._finished = False

    # -- buffer management -------------------------------------------------

    def _append(self, filtered: np.ndarray) -> None:
        if filtered.size:
            self._buffer = np.concatenate([self._buffer, filtered])

    def _trim(self) -> None:
        """Drop samples no state can reference again (REPRO015)."""
        sym = self.params.samples_per_symbol
        if self._state == _SEARCH:
            # A run trigger reaches back MIN_PREAMBLE_RUN windows, and
            # alignment steps back under one more symbol.
            keep_from = self._scan_pos - (MIN_PREAMBLE_RUN + 2) * sym
        elif self._state == _SFD:
            keep_from = self._walk_pos - sym
        else:
            keep_from = self._next_symbol_pos
        # keep_from may point beyond the buffered data (an SFD detected
        # near the buffer end puts payload_start past it); never advance
        # buffer_start further than the samples actually dropped, or the
        # next append would land at the wrong stream position.
        cut = min(keep_from - self._buffer_start, self._buffer.size)
        if cut > 0:
            self._buffer = self._buffer[cut:].copy()
            self._buffer_start += cut

    def _buffer_end(self) -> int:
        return self._buffer_start + self._buffer.size

    def _windows(self, position: int, count: int) -> np.ndarray:
        """View ``count`` symbol windows starting at absolute ``position``."""
        sym = self.params.samples_per_symbol
        base = position - self._buffer_start
        return self._buffer[base:base + count * sym].reshape(count, sym)

    # -- state transitions -------------------------------------------------

    def _reset_search(self, search: int) -> None:
        self._state = _SEARCH
        self._search = search
        self._scan_pos = search
        self._run_start_pos = search
        self._run_length = 0
        self._previous_bin = -1
        # SFD walk carry-over.
        self._aligned = 0
        self._walk_pos = 0
        self._walk_index = 0
        self._sfd_history: list[int] = []
        self._sfd_mags: list[float] = []
        # Payload carry-over.
        self._payload_start = 0
        self._next_symbol_pos = 0
        self._cfo_bins = 0
        self._sync_word = 0
        self._symbols: list[int] = []
        self._symbols_needed: int | None = None

    def _drain(self) -> list[ReceivedPacket]:
        packets: list[ReceivedPacket] = []
        progress = True
        while progress:
            if self._state == _SEARCH:
                progress = self._scan_preamble()
            elif self._state == _SFD:
                progress = self._walk_sfd()
            else:
                progress = self._collect_payload(packets)
        self._trim()
        return packets

    def _scan_preamble(self) -> bool:
        """Advance the preamble run scan over all complete windows."""
        sym = self.params.samples_per_symbol
        n = self.params.chips_per_symbol
        count = (self._buffer_end() - self._scan_pos) // sym
        if count <= 0:
            return False
        bins, _ = self.symbol_demod.demodulate_upchirp_block(
            self._windows(self._scan_pos, count))
        for local, bin_index in enumerate(bins):
            position = self._scan_pos + local * sym
            bin_index = int(bin_index)
            delta = (bin_index - self._previous_bin) % n
            if self._previous_bin >= 0 and (delta <= 1 or delta == n - 1):
                self._run_length += 1
            else:
                self._run_start_pos = position
                self._run_length = 1
            self._previous_bin = bin_index
            if self._run_length >= MIN_PREAMBLE_RUN:
                offset = (bin_index % n) * self.params.oversampling
                aligned = self._run_start_pos - offset
                while aligned < 0:
                    aligned += sym
                self._enter_sfd(aligned)
                return True
        self._scan_pos += count * sym
        return True

    def _enter_sfd(self, aligned: int) -> None:
        self._state = _SFD
        self._aligned = aligned
        self._walk_pos = aligned
        self._walk_index = 0
        self._sfd_history = []
        self._sfd_mags = []

    def _walk_sfd(self) -> bool:
        """Classify aligned symbols until the first downchirp (SFD)."""
        sym = self.params.samples_per_symbol
        count = (self._buffer_end() - self._walk_pos) // sym
        if count <= 0:
            return False
        values, mags, is_up = self.symbol_demod.demodulate_block(
            self._windows(self._walk_pos, count))
        history = self._sfd_history
        magnitudes = self._sfd_mags
        for local in range(count):
            k = self._walk_index + local
            if not is_up[local] and k >= 3:
                sync_high = history[-2]
                sync_low = history[-1]
                up_bin = int(np.median(history[:-2])) \
                    if len(history) > 2 else history[0]
                # demodulate_block's value for a downchirp row equals
                # demodulate_downchirp on the same window, so the SFD
                # bin is already in hand.
                down_bin = int(values[local])
                self._enter_payload(self._aligned + k * sym,
                                    sync_high, sync_low, up_bin, down_bin)
                return True
            history.append(int(values[local]))
            magnitudes.append(float(mags[local]))
        self._walk_pos += count * sym
        self._walk_index += count
        return True

    def _enter_payload(self, sfd_start: int, sync_high: int, sync_low: int,
                       up_bin: int, down_bin: int) -> None:
        sym = self.params.samples_per_symbol
        n = self.params.chips_per_symbol
        cfo_bins = estimate_cfo_bins(n, up_bin, down_bin)
        sfd_start += cfo_bins * self.params.oversampling
        self._state = _PAYLOAD
        self._payload_start = sfd_start + int(round(2.25 * sym))
        self._next_symbol_pos = self._payload_start
        self._cfo_bins = cfo_bins
        self._sync_word = sync_word_from_symbols(
            self.params,
            (sync_high - cfo_bins) % n,
            (sync_low - cfo_bins) % n)
        self._symbols = []
        self._symbols_needed = None

    def _demodulate_payload_windows(self, count: int) -> np.ndarray:
        """Demodulate ``count`` payload symbols, derotating in place.

        Derotation indexes samples by their *absolute* stream position,
        so any chunking reproduces the batch receiver's whole-capture
        derotation bit for bit.
        """
        sym = self.params.samples_per_symbol
        base = self._next_symbol_pos - self._buffer_start
        window = self._buffer[base:base + count * sym]
        if self._cfo_bins != 0:
            offset_hz = self._cfo_bins * self.params.bandwidth_hz / \
                self.params.chips_per_symbol
            idx = self._next_symbol_pos + np.arange(window.size)
            window = window * np.exp(
                -2j * np.pi * offset_hz /
                self.params.sample_rate_hz * idx)
        return self.symbol_demod.demodulate_stream(window, count)

    def _collect_payload(self, packets: list[ReceivedPacket]) -> bool:
        """Accumulate payload symbols; decode header, then the packet."""
        sym = self.params.samples_per_symbol
        target = HEADER_SYMBOLS if self._symbols_needed is None \
            else self._symbols_needed
        available = (self._buffer_end() - self._next_symbol_pos) // sym
        count = min(available, target - len(self._symbols))
        progress = False
        if count > 0:
            values = self._demodulate_payload_windows(count)
            self._symbols.extend(int(v) for v in values)
            self._next_symbol_pos += count * sym
            progress = True

        if self._symbols_needed is None and \
                len(self._symbols) >= HEADER_SYMBOLS:
            header = self.codec.decode_header(
                np.asarray(self._symbols, dtype=np.int64))
            needed: int | None = None
            if header.header_ok:
                try:
                    needed = HEADER_SYMBOLS + \
                        self.codec.payload_section_symbols(
                            header.payload_length,
                            header.coding_rate_denominator,
                            header.crc_flag)
                except CodingError:
                    needed = None
            if needed is None:
                # Corrupt header: resume scanning just past it, exactly
                # like the batch receiver.
                self._reset_search(
                    self._payload_start + HEADER_SYMBOLS * sym)
                return True
            self._symbols_needed = needed
            progress = True

        if self._symbols_needed is not None and \
                len(self._symbols) >= self._symbols_needed:
            values = np.asarray(self._symbols, dtype=np.int64)
            packets.append(ReceivedPacket(
                decoded=self.codec.decode(values),
                payload_start=self._payload_start,
                cfo_bins=self._cfo_bins,
                symbols=tuple(self._symbols),
                sync_word=self._sync_word))
            self._reset_search(
                self._payload_start + self._symbols_needed * sym)
            return True
        return progress
