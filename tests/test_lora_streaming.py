"""Streaming demodulator: chunk invariance, tail windows, bounded memory.

The contract under test: for ANY chunking of a capture — including one
sample at a time — :class:`StreamingDemodulator` emits the bit-identical
packet list that :meth:`LoRaDemodulator.receive_all` produces on the
whole capture, while holding only a bounded sample window.
"""

import resource

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.filters import design_lowpass, filter_block
from repro.errors import ConfigurationError, DemodulationError
from repro.phy.lora import (
    LoRaDemodulator,
    LoRaModulator,
    LoRaParams,
    StreamingDemodulator,
)
from repro.phy.lora.demodulator import SymbolDemodulator
from repro.phy.lora.streaming import _StreamingAlignedFir


def make_capture(params, payloads, seed, head_gap=2000):
    """Payload packets separated by noise-only gaps, plus light noise."""
    mod = LoRaModulator(params)
    rng = np.random.default_rng(seed)
    chunks = [np.zeros(head_gap, dtype=np.complex128)]
    for payload in payloads:
        chunks.append(mod.modulate(payload))
        chunks.append(np.zeros(int(rng.integers(300, 3000)),
                               dtype=np.complex128))
    stream = np.concatenate(chunks)
    noise = (rng.normal(scale=0.01, size=stream.size)
             + 1j * rng.normal(scale=0.01, size=stream.size))
    return stream + noise


def stream_in_chunks(demod, capture, splits):
    """Push ``capture`` split at the given boundaries; collect packets."""
    packets = []
    previous = 0
    for split in sorted(splits):
        packets.extend(demod.push(capture[previous:split]))
        previous = split
    packets.extend(demod.push(capture[previous:]))
    packets.extend(demod.flush())
    return packets


PARAMS_CASES = [
    LoRaParams(spreading_factor=7, bandwidth_hz=125e3, oversampling=1),
    LoRaParams(spreading_factor=8, bandwidth_hz=125e3, oversampling=2),
]


class TestChunkInvariance:
    @pytest.mark.parametrize("params", PARAMS_CASES,
                             ids=["sf7_os1", "sf8_os2"])
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           num_splits=st.integers(0, 40))
    def test_any_split_matches_batch(self, params, seed, num_splits):
        rng = np.random.default_rng(seed)
        payloads = [bytes(rng.integers(0, 256, 13).astype(np.uint8)),
                    bytes(rng.integers(0, 256, 29).astype(np.uint8))]
        capture = make_capture(params, payloads, seed)
        batch = LoRaDemodulator(params).receive_all(capture)
        assert [p.decoded.payload for p in batch] == payloads

        splits = rng.integers(0, capture.size + 1, num_splits)
        streamed = stream_in_chunks(StreamingDemodulator(params),
                                    capture, splits)
        assert streamed == batch

    @pytest.mark.parametrize("params", PARAMS_CASES,
                             ids=["sf7_os1", "sf8_os2"])
    def test_one_sample_chunks_match_batch(self, params):
        # The adversarial extreme: every chunk boundary is exercised.
        # Restricted to the head of a capture for runtime; the sample
        # loop covers filter carry, scan carry and alignment at once.
        payload = b"tinysdr"
        capture = make_capture(params, [payload], seed=5, head_gap=700)
        batch = LoRaDemodulator(params).receive_all(capture)
        assert len(batch) == 1 and batch[0].decoded.payload == payload

        demod = StreamingDemodulator(params)
        packets = []
        one_by_one = 4000  # leading samples fed one at a time
        for index in range(min(one_by_one, capture.size)):
            packets.extend(demod.push(capture[index:index + 1]))
        packets.extend(demod.push(capture[one_by_one:]))
        packets.extend(demod.flush())
        assert packets == batch

    def test_packet_split_across_every_state(self):
        # Chunk boundaries landing inside preamble, SFD and payload.
        params = PARAMS_CASES[0]
        sym = params.samples_per_symbol
        payload = b"boundary"
        capture = make_capture(params, [payload], seed=9)
        batch = LoRaDemodulator(params).receive_all(capture)
        boundaries = [2000 + k * sym // 3 for k in range(40)]
        streamed = stream_in_chunks(StreamingDemodulator(params),
                                    capture, boundaries)
        assert streamed == batch


class TestTailWindows:
    """Truncated final symbols must never shift earlier decisions."""

    @pytest.mark.parametrize("params", PARAMS_CASES,
                             ids=["sf7_os1", "sf8_os2"])
    @pytest.mark.parametrize("cut_symbols", [0.25, 0.5, 0.99])
    def test_truncated_capture_keeps_earlier_packets(self, params,
                                                     cut_symbols):
        rng = np.random.default_rng(77)
        payloads = [bytes(rng.integers(0, 256, 21).astype(np.uint8)),
                    bytes(rng.integers(0, 256, 17).astype(np.uint8))]
        capture = make_capture(params, payloads, seed=77)
        whole = LoRaDemodulator(params).receive_all(capture)
        assert len(whole) == 2

        # Cut inside the second packet's payload: capture length is no
        # longer a multiple of the symbol period and the final symbol
        # is partial.
        sym = params.samples_per_symbol
        cut = whole[1].payload_start + 10 * sym + int(cut_symbols * sym)
        truncated = capture[:cut]
        batch = LoRaDemodulator(params).receive_all(truncated)
        assert batch == whole[:1]

        streamed = stream_in_chunks(StreamingDemodulator(params),
                                    truncated, [cut // 3, 2 * cut // 3])
        assert streamed == batch

    def test_demodulate_stream_rejects_overrun(self):
        params = PARAMS_CASES[0]
        demod = SymbolDemodulator(params)
        sym = params.samples_per_symbol
        samples = np.zeros(3 * sym + sym // 2, dtype=np.complex128)
        # More symbols than the stream holds - including the partial
        # window at the tail - must be rejected, not silently clipped.
        with pytest.raises(DemodulationError):
            demod.demodulate_stream(samples, 4)
        with pytest.raises(DemodulationError):
            demod.demodulate_stream_reference(samples, 4)
        with pytest.raises(DemodulationError):
            demod.demodulate_stream(samples, -1)
        with pytest.raises(DemodulationError):
            demod.demodulate_stream_reference(samples, -1)
        assert demod.demodulate_stream(samples, 3).size == 3

    def test_receive_handles_short_tail_after_sync(self):
        # A capture ending right after the SFD leaves zero whole payload
        # symbols; receive must report that, not raise ValueError.
        params = PARAMS_CASES[0]
        payload = b"tail"
        capture = make_capture(params, [payload], seed=31)
        demod = LoRaDemodulator(params)
        sync = demod.synchronizer.find_packet(demod.frontend(capture))
        cut = capture[:sync.payload_start + params.samples_per_symbol // 2]
        with pytest.raises(DemodulationError):
            demod.receive(cut, payload_symbols=8)
        assert demod.receive_all(cut) == []


class TestStreamingLifecycle:
    def test_requires_explicit_header(self):
        params = LoRaParams(spreading_factor=7, bandwidth_hz=125e3,
                            explicit_header=False)
        with pytest.raises(ConfigurationError):
            StreamingDemodulator(params)

    def test_push_after_flush_rejected(self):
        demod = StreamingDemodulator(PARAMS_CASES[0])
        demod.flush()
        with pytest.raises(ConfigurationError):
            demod.push(np.zeros(8, dtype=np.complex128))
        assert demod.flush() == []

    def test_reset_reuses_instance(self):
        params = PARAMS_CASES[0]
        payload = b"again"
        capture = make_capture(params, [payload], seed=13)
        demod = StreamingDemodulator(params)
        first = stream_in_chunks(demod, capture, [1000])
        demod.reset()
        second = stream_in_chunks(demod, capture, [777, 9000])
        assert first == second
        assert first[0].decoded.payload == payload

    def test_reset_clears_the_fir_delay_line(self):
        # Reset mid-capture: a stale delay line only nudges the first
        # taps-1 outputs, which decoded packets cannot show, so compare
        # the filter outputs themselves.
        taps = design_lowpass(14, 70e3, 250e3)
        rng = np.random.default_rng(17)
        first, second = (rng.normal(size=(2, 400))
                         + 1j * rng.normal(size=(2, 400)))
        fir = _StreamingAlignedFir(taps)
        fir.process(first)
        fir.reset()
        out = np.concatenate([fir.process(second[:101]),
                              fir.process(second[101:]), fir.flush()])
        assert np.array_equal(out, filter_block(taps, second))


class TestBoundedMemory:
    def test_long_capture_constant_rss(self):
        """A 60 s capture streams through a bounded buffer.

        Two assertions: the internal sample buffer never exceeds a small
        fixed window, and the process high-water RSS grows by far less
        than the capture size (~230 MB of complex128 at 125 kHz x 2),
        proving the capture is never materialized.
        """
        params = LoRaParams(spreading_factor=7, bandwidth_hz=125e3,
                            oversampling=2)
        sym = params.samples_per_symbol
        sample_rate = params.sample_rate_hz
        total_samples = int(60.0 * sample_rate)
        chunk_samples = 1 << 15

        mod = LoRaModulator(params)
        packet_wave = mod.modulate(b"periodic beacon payload")
        period = int(1.0 * sample_rate)  # one packet per second

        demod = StreamingDemodulator(params)
        rng = np.random.default_rng(60)
        rss_before_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        packets = []
        peak_buffer = 0
        position = 0
        while position < total_samples:
            count = min(chunk_samples, total_samples - position)
            chunk = (rng.normal(scale=0.005, size=count)
                     + 1j * rng.normal(scale=0.005, size=count))
            # Overlay any in-flight beacon transmission.
            offset = position % period
            if offset < packet_wave.size:
                take = min(packet_wave.size - offset, count)
                chunk[:take] += packet_wave[offset:offset + take]
            elif period - offset < count:
                take = min(count - (period - offset), packet_wave.size)
                chunk[period - offset:period - offset + take] += \
                    packet_wave[:take]
            packets.extend(demod.push(chunk))
            peak_buffer = max(peak_buffer, demod.buffered_samples)
            position += count
        packets.extend(demod.flush())

        rss_after_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert len(packets) >= 55
        assert all(p.decoded.payload == b"periodic beacon payload"
                   for p in packets)
        # Buffer window: chunk + trim margins, far below the capture.
        assert peak_buffer < chunk_samples + 16 * sym
        # High-water growth must stay a small fraction of the 230 MB
        # capture; 64 MB leaves headroom for allocator noise.
        assert rss_after_kb - rss_before_kb < 64 * 1024
