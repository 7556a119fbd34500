"""Golden-vector conformance suite: bit-exact receiver outputs.

Each committed vector under ``tests/fixtures/phy_golden/`` pins a
seeded IQ capture (by generation recipe + SHA-256) and the exact
receiver outputs, floats as ``float.hex()``.  The DSP kernels must
reproduce them **exactly** — equality here is ``==`` on
ints and hex strings, never ``allclose``.  Regenerate after an
intentional DSP change with ``python -m tests.gen_phy_golden``; CI
runs ``--check`` so the corpus cannot drift silently.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.phy.backend import get_backend
from repro.phy.ble import GfskConfig, GfskDemodulator
from repro.phy.lora import LoRaDemodulator, LoRaParams, StreamingDemodulator
from repro.phy.oqpsk import OqpskDemodulator, despread, spread, \
    symbols_to_bytes
from tests.gen_phy_golden import (
    GOLDEN_DIR,
    _sha256,
    build_gfsk_capture,
    build_lora_capture,
    build_oqpsk_capture,
)


def _load(kind):
    cases = [json.loads(path.read_text())
             for path in sorted(GOLDEN_DIR.glob("*.json"))]
    return [case for case in cases if case["kind"] == kind]


def _params(case):
    return LoRaParams(
        spreading_factor=case["spreading_factor"],
        bandwidth_hz=case["bandwidth_hz"],
        coding_rate_denominator=case["coding_rate_denominator"],
        oversampling=case["oversampling"])


LORA = _load("lora")
GFSK = _load("gfsk")
OQPSK = _load("oqpsk")


def test_corpus_is_complete():
    # A deleted vector must fail the suite, not silently skip a PHY.
    assert len(LORA) >= 4 and len(GFSK) >= 2 and len(OQPSK) >= 2


@pytest.mark.parametrize("case", LORA, ids=lambda c: c["name"])
class TestLoRaGolden:
    def test_batch_receiver_matches_vector(self, case):
        capture = build_lora_capture(case)
        assert _sha256(capture) == case["capture_sha256"], \
            "capture drifted; see python -m tests.gen_phy_golden --check"
        packets = LoRaDemodulator(_params(case)).receive_all(capture)
        assert len(packets) == 1
        packet = packets[0]
        expected = case["expected"]
        assert packet.decoded.payload.hex() == expected["payload"]
        assert packet.decoded.crc_ok == expected["crc_ok"]
        assert [int(s) for s in packet.symbols] == expected["symbols"]
        assert packet.payload_start == expected["payload_start"]
        assert packet.cfo_bins == expected["cfo_bins"]
        assert packet.sync_word == expected["sync_word"]

    def test_streaming_receiver_matches_vector(self, case):
        capture = build_lora_capture(case)
        demod = StreamingDemodulator(_params(case))
        packets = []
        chunk = 1024
        for start in range(0, capture.size, chunk):
            packets.extend(demod.push(capture[start:start + chunk]))
        packets.extend(demod.flush())
        assert len(packets) == 1
        expected = case["expected"]
        assert packets[0].decoded.payload.hex() == expected["payload"]
        assert [int(s) for s in packets[0].symbols] == expected["symbols"]
        assert packets[0].cfo_bins == expected["cfo_bins"]
        assert packets[0].sync_word == expected["sync_word"]


@pytest.mark.parametrize("case", GFSK, ids=lambda c: c["name"])
class TestGfskGolden:
    def test_bits_and_metrics_match_vector(self, case):
        _, capture = build_gfsk_capture(case)
        assert _sha256(capture) == case["capture_sha256"]
        config = GfskConfig(samples_per_symbol=case["samples_per_symbol"])
        demod = GfskDemodulator(config)
        bits = demod.demodulate(capture, case["num_bits"])
        expected = case["expected"]
        assert [int(b) for b in bits] == expected["bits"]
        freq = demod.instantaneous_frequency(capture)
        metrics = get_backend().integrate_bits(
            freq, 0, case["num_bits"], case["samples_per_symbol"])
        assert [float(m).hex() for m in metrics] == expected["metrics_hex"]
        reference = demod.demodulate_reference(capture, case["num_bits"])
        assert np.array_equal(bits, reference)


@pytest.mark.parametrize("case", OQPSK, ids=lambda c: c["name"])
class TestOqpskGolden:
    def test_soft_chips_match_vector(self, case):
        chips, capture = build_oqpsk_capture(case)
        assert _sha256(capture) == case["capture_sha256"]
        demod = OqpskDemodulator(case["samples_per_chip"])
        soft = demod.soft_chips(capture, chips.size)
        expected = case["expected"]
        assert [float(v).hex() for v in soft] == expected["soft_chips_hex"]
        hard = (soft > 0.0).astype(np.int64)
        assert [int(c) for c in hard] == expected["hard_chips"]
        recovered = symbols_to_bytes(despread(hard))
        assert recovered.hex() == expected["payload"]
        assert np.array_equal(hard, spread(recovered))
