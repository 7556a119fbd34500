"""phy_stream: real-time LoRa receive from recorded I/Q word captures.

Set-up records one capture per configuration, SF7 and SF10 at 125 kHz,
both 2x oversampled so the front-end FIR runs and two FFT sizes (256 and
2048) are used.  Seeded payloads of 8-64 B sit between noise-only gaps
at per-packet SNRs far above sensitivity, so every packet must decode.
The capture is quantized into 32-bit I/Q words, as the radio delivers
them.  The client replays each capture in fixed-size word chunks:
``iqword.words_to_samples`` then ``StreamingDemodulator.push``, and
``flush`` at the end.  One unit is one replay of both captures.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from common import PassResult, clock, percentile_ms
from repro.channel.awgn import awgn
from repro.phy.lora import LoRaModulator, LoRaParams, StreamingDemodulator
from repro.radio import iqword

#: (spreading factor, packets in its capture).  SF10 chunks cost more
#: than SF7 ones; with about four in five chunks from SF10 the median
#: chunk sits well inside one population rather than between the two.
CAPTURES = ((7, 16), (10, 8))
BANDWIDTH_HZ = 125e3
OVERSAMPLING = 2
PAYLOAD_BYTES = (8, 64)
PACKET_SNR_DB = (12.0, 20.0)
NOISE_SNR_DB = 20.0  # unit-power reference over the noise floor
HEADROOM = 0.5  # keeps noise peaks inside the 13-bit word range
CHUNK_WORDS = 4096


class Capture:
    """One recorded capture, what it carries, and its receiver."""

    def __init__(self, params: LoRaParams, words: np.ndarray,
                 payloads: list[bytes]) -> None:
        self.params = params
        self.words = words
        self.payloads = payloads
        self.demodulator = StreamingDemodulator(params)


def record_capture(spreading_factor: int, packets: int,
                   rng: np.random.Generator) -> Capture:
    params = LoRaParams(spreading_factor, BANDWIDTH_HZ,
                        oversampling=OVERSAMPLING)
    modulator = LoRaModulator(params)
    sym = params.samples_per_symbol
    # Sizes, SNRs and gap lengths are spread evenly over their ranges and
    # shuffled, so every seed's capture has the same composition.
    sizes = rng.permutation(
        np.linspace(*PAYLOAD_BYTES, packets).round().astype(int))
    snrs = rng.permutation(np.linspace(*PACKET_SNR_DB, packets))
    gaps = rng.permutation(np.arange(packets) % 4 + 2) * sym + \
        rng.integers(0, sym, packets)
    pieces, payloads = [], []
    for size, snr, gap in zip(sizes, snrs, gaps):
        payload = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        pieces.append(np.zeros(gap, dtype=np.complex128))
        pieces.append(10.0 ** ((snr - NOISE_SNR_DB) / 20.0)
                      * modulator.modulate(payload))
        payloads.append(payload)
    pieces.append(np.zeros(4 * sym, dtype=np.complex128))
    samples = awgn(np.concatenate(pieces), NOISE_SNR_DB, rng,
                   signal_power=1.0) * HEADROOM
    return Capture(params, iqword.samples_to_words(samples), payloads)


class Pass:
    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng([seed, 0])
        self.captures = [record_capture(sf, packets, rng)
                         for sf, packets in CAPTURES]
        self.units = 0
        self.chunks = 0
        self.latencies: list[float] = []
        self.samples = 0
        self.received: list[tuple[Capture, list]] = []
        self.buffered_max = 0
        self.busy = 0.0

    def close(self) -> None:
        pass

    def step(self, tracer=None) -> int:
        start = clock()
        for capture in self.captures:
            demodulator = capture.demodulator
            demodulator.reset()
            words = capture.words
            packets = []
            for offset in range(0, words.size, CHUNK_WORDS):
                if tracer is not None:
                    tracer.op = self.chunks
                begin = clock()
                packets += demodulator.push(iqword.words_to_samples(
                    words[offset:offset + CHUNK_WORDS]))
                self.latencies.append(clock() - begin)
                self.buffered_max = max(self.buffered_max,
                                        demodulator.buffered_samples)
                self.chunks += 1
            packets += demodulator.flush()
            self.samples += words.size
            self.received.append((capture, packets))
        self.busy += clock() - start
        self.units += 1
        return 1

    def result(self) -> PassResult:
        failures: list[str] = []
        outputs = []
        sent = decoded = spurious = 0
        for replay, (capture, packets) in enumerate(self.received):
            label = f"SF{capture.params.spreading_factor} replay {replay}"
            sent += len(capture.payloads)
            for index, payload in enumerate(capture.payloads):
                if index >= len(packets):
                    failures.append(f"{label}: packet {index} not decoded")
                    continue
                got = packets[index].decoded
                if got.payload == payload and got.crc_ok is True:
                    decoded += 1
                else:
                    failures.append(f"{label}: packet {index} decoded "
                                    f"{got.payload.hex()[:16]}, crc_ok="
                                    f"{got.crc_ok}")
            for extra in packets[len(capture.payloads):]:
                spurious += 1
                failures.append(f"{label}: spurious packet at sample "
                                f"{extra.payload_start}")
            outputs.append([(p.decoded.payload, p.decoded.crc_ok,
                             p.payload_start) for p in packets])
        return PassResult(
            attempted=sent + spurious,
            failures=failures,
            metrics={
                "rx_msps": self.samples / self.busy / 1e6,
                "rx_chunk_p50_ms": percentile_ms(self.latencies, 50),
                "rx_chunk_p99_ms": percentile_ms(self.latencies, 99),
            },
            layer={
                "phy.lora.buffered_samples.max": self.buffered_max,
                "phy.lora.decoded_ratio": decoded / sent,
            },
            outputs=outputs,
            busy_s=self.busy)
