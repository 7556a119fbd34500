"""Property-based tests (hypothesis) on core invariants.

These cover the algebraic contracts the rest of the system leans on:
codecs invert, XOR stages are involutive, CRCs detect single corruption,
quantization is idempotent, FFT energy is conserved.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.fft import Radix2Fft
from repro.dsp.fixedpoint import quantize
from repro.ota.minilzo import compress, decompress
from repro.phy.backend import get_backend
from repro.phy.ble.packet import (
    AdvPacket,
    bits_to_bytes_lsb_first,
    bytes_to_bits_lsb_first,
    crc24,
    parse_air_bytes,
    whiten_pdu_and_crc,
)
from repro.phy.lora.codec import LoRaCodec, crc16_ccitt
from repro.phy.lora.coding import (
    deinterleave_block,
    gray_decode,
    gray_encode,
    hamming_decode_nibble,
    hamming_encode_nibble,
    interleave_block,
    whiten,
)
from repro.phy.lora.params import LoRaParams
from repro.protocols.lorawan.aes import decrypt_block, encrypt_block
from repro.protocols.lorawan.frames import (
    DataFrame,
    MType,
    SessionKeys,
    deserialize,
    serialize,
)


class TestCompressionProperties:
    @given(st.binary(min_size=0, max_size=4096))
    @settings(max_examples=60, deadline=None)
    def test_lzo_roundtrip(self, data):
        assert decompress(compress(data), len(data)) == data

    @given(st.binary(min_size=1, max_size=512),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=30, deadline=None)
    def test_lzo_roundtrip_repetitive(self, unit, repeats):
        data = unit * repeats
        assert decompress(compress(data)) == data


class TestLoRaCodingProperties:
    @given(st.integers(min_value=0, max_value=2 ** 16 - 1))
    def test_gray_roundtrip(self, value):
        assert gray_decode(gray_encode(value)) == value

    @given(st.integers(min_value=0, max_value=2 ** 16 - 2))
    def test_gray_adjacency(self, value):
        xor = gray_encode(value) ^ gray_encode(value + 1)
        assert bin(xor).count("1") == 1

    @given(st.binary(min_size=0, max_size=256))
    def test_whitening_involutive(self, data):
        assert whiten(whiten(data)) == data

    @given(st.integers(min_value=0, max_value=15),
           st.integers(min_value=5, max_value=8))
    def test_hamming_roundtrip(self, nibble, cr):
        codeword = hamming_encode_nibble(nibble, cr)
        decoded, error = hamming_decode_nibble(codeword, cr)
        assert decoded == nibble and not error

    @given(st.integers(min_value=0, max_value=15),
           st.integers(min_value=7, max_value=8),
           st.data())
    def test_hamming_corrects_any_single_error(self, nibble, cr, data):
        codeword = hamming_encode_nibble(nibble, cr)
        bit = data.draw(st.integers(min_value=0, max_value=cr - 1))
        decoded, error = hamming_decode_nibble(codeword ^ (1 << bit), cr)
        assert decoded == nibble and error

    @given(st.integers(min_value=5, max_value=8), st.data())
    def test_interleaver_inverse(self, cr, data):
        ppm = data.draw(st.integers(min_value=cr - 1, max_value=12))
        codewords = data.draw(st.lists(
            st.integers(min_value=0, max_value=(1 << cr) - 1),
            min_size=ppm, max_size=ppm))
        symbols = interleave_block(codewords, ppm, cr)
        assert deinterleave_block(symbols, ppm, cr) == codewords

    @given(st.binary(min_size=0, max_size=120),
           st.sampled_from([7, 8, 9, 10]),
           st.sampled_from([5, 6, 7, 8]))
    @settings(max_examples=40, deadline=None)
    def test_codec_roundtrip(self, payload, sf, cr):
        codec = LoRaCodec(LoRaParams(sf, 125e3, coding_rate_denominator=cr))
        decoded = codec.decode(codec.encode(payload))
        assert decoded.payload == payload
        assert decoded.crc_ok is True

    @given(st.binary(min_size=1, max_size=64), st.integers(0, 7),
           st.integers(0, 63))
    def test_crc16_detects_single_bit_flips(self, data, bit, index):
        corrupted = bytearray(data)
        corrupted[index % len(data)] ^= 1 << bit
        if bytes(corrupted) != data:
            assert crc16_ccitt(bytes(corrupted)) != crc16_ccitt(data)


class TestBleProperties:
    @given(st.binary(min_size=0, max_size=64))
    def test_bit_packing_roundtrip(self, data):
        assert bits_to_bytes_lsb_first(bytes_to_bits_lsb_first(data)) == data

    @given(st.binary(min_size=0, max_size=64),
           st.integers(min_value=0, max_value=39))
    def test_whitening_involutive(self, data, channel):
        assert whiten_pdu_and_crc(
            whiten_pdu_and_crc(data, channel), channel) == data

    @given(st.binary(min_size=1, max_size=40), st.integers(0, 7),
           st.integers(0, 39))
    def test_crc24_detects_single_bit_flips(self, pdu, bit, index):
        corrupted = bytearray(pdu)
        corrupted[index % len(pdu)] ^= 1 << bit
        if bytes(corrupted) != pdu:
            assert crc24(bytes(corrupted)) != crc24(pdu)

    @given(st.binary(min_size=6, max_size=6),
           st.binary(min_size=0, max_size=31),
           st.sampled_from([37, 38, 39]))
    @settings(max_examples=40, deadline=None)
    def test_adv_packet_roundtrip(self, address, adv_data, channel):
        packet = AdvPacket(advertiser_address=address, adv_data=adv_data)
        parsed = parse_air_bytes(packet.air_bytes(channel), channel)
        assert parsed.crc_ok
        assert parsed.packet == packet


class TestCryptoProperties:
    @given(st.binary(min_size=16, max_size=16),
           st.binary(min_size=16, max_size=16))
    @settings(max_examples=40, deadline=None)
    def test_aes_roundtrip(self, key, block):
        assert decrypt_block(key, encrypt_block(key, block)) == block

    @given(st.binary(min_size=0, max_size=48),
           st.integers(min_value=0, max_value=0xFFFF),
           st.integers(min_value=1, max_value=0xFFFFFFFF))
    @settings(max_examples=30, deadline=None)
    def test_lorawan_frame_roundtrip(self, payload, fcnt, dev_addr):
        keys = SessionKeys(nwk_skey=bytes(range(16)),
                           app_skey=bytes(range(16, 32)))
        frame = DataFrame(mtype=MType.UNCONFIRMED_UP, dev_addr=dev_addr,
                          fcnt=fcnt, payload=payload, fport=1)
        assert deserialize(serialize(frame, keys), keys) == frame


class TestNumericProperties:
    @given(st.lists(st.floats(min_value=-2.0, max_value=2.0,
                              allow_nan=False),
                    min_size=1, max_size=64))
    def test_quantization_idempotent(self, values):
        array = np.asarray(values)
        once = quantize(array, 13)
        twice = quantize(once, 13)
        assert np.array_equal(once, twice)

    @given(st.integers(min_value=1, max_value=6), st.data())
    @settings(max_examples=20, deadline=None)
    def test_fft_parseval(self, log_n, data):
        n = 2 ** log_n
        reals = data.draw(st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=n, max_size=n))
        x = np.asarray(reals, dtype=complex)
        spectrum = get_backend().fft_block(*Radix2Fft(n).plan, x[None])[0]
        np.testing.assert_allclose(np.sum(np.abs(spectrum) ** 2) / n,
                                   np.sum(np.abs(x) ** 2),
                                   rtol=1e-9, atol=1e-9)
