"""Tests for OTA: miniLZO, blocks, flash, MAC and the end-to-end updater."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import (
    CompressionError,
    ConfigurationError,
    FlashError,
    OtaError,
    ProtocolError,
)
from repro.fpga import generate_bitstream, generate_mcu_program
from repro.mcu.msp432 import Msp432
from repro.ota import (
    BLOCK_BYTES,
    DataPacket,
    EndOfUpdate,
    FlashLayout,
    Mx25R6435F,
    OtaLink,
    OtaUpdater,
    ProgrammingRequest,
    compress,
    compression_summary,
    decompress,
    fragment_image,
    reassemble,
    reassemble_image,
    simulate_transfer,
    split_and_compress,
)
from repro.ota import minilzo
from repro.ota.ap import AccessPoint
from repro.ota.flash import SECTOR_BYTES
from repro.phy.lora import LoRaParams
from repro.testbed import NodePlacement, campus_deployment, run_campaign


class TestMiniLzo:
    @pytest.mark.parametrize("data", [
        b"", b"a", b"ab", b"abc", bytes(1000),
        b"abcabcabcabc" * 100, bytes(range(256)) * 4,
    ])
    def test_roundtrip(self, data):
        assert decompress(compress(data)) == data

    def test_roundtrip_random(self, rng):
        data = rng.integers(0, 256, 10_000, dtype=np.uint8).tobytes()
        assert decompress(compress(data)) == data

    def test_roundtrip_overlapping_matches(self):
        # Runs force overlapping copy semantics in the decompressor.
        data = b"\x00" * 5000 + b"ab" * 3000 + b"\xff" * 100
        assert decompress(compress(data)) == data

    def test_zeros_compress_massively(self):
        # One literal + one long match; the 255-cascade length encoding
        # costs ~1 byte per 255 zeros.
        assert len(compress(bytes(100_000))) < 600

    def test_random_data_overhead_bounded(self, rng):
        data = rng.integers(0, 256, 50_000, dtype=np.uint8).tobytes()
        assert len(compress(data)) < len(data) * 1.02

    def test_expected_size_check(self):
        compressed = compress(b"hello world")
        with pytest.raises(CompressionError):
            decompress(compressed, expected_size=5)

    def test_truncated_stream_rejected(self):
        compressed = compress(b"some reasonably long input text here")
        with pytest.raises(CompressionError):
            decompress(compressed[:-3], expected_size=36)

    def test_bad_distance_rejected(self):
        # A match token pointing before the output start.
        with pytest.raises(CompressionError):
            decompress(bytes([0x80, 0x05]))

    def test_paper_compression_ratios(self):
        lora = generate_bitstream(0.1125, seed=42)
        ble = generate_bitstream(0.03, seed=43)
        mcu = generate_mcu_program()
        assert len(compress(lora)) / 1024 == pytest.approx(99, rel=0.12)
        assert len(compress(ble)) / 1024 == pytest.approx(40, rel=0.12)
        assert len(compress(mcu)) / 1024 == pytest.approx(24, rel=0.2)


class TestBlocks:
    def test_split_sizes(self):
        data = bytes(100_000)
        blocks = split_and_compress(data)
        assert len(blocks) == 4  # 3 x 30 kB + remainder
        assert blocks[0].raw_size == BLOCK_BYTES
        assert blocks[-1].raw_size == 100_000 - 3 * BLOCK_BYTES

    def test_reassemble_roundtrip(self, rng):
        data = rng.integers(0, 256, 90_000, dtype=np.uint8).tobytes()
        assert reassemble(split_and_compress(data)) == data

    def test_reassemble_respects_sram_budget(self, rng):
        data = rng.integers(0, 256, 70_000, dtype=np.uint8).tobytes()
        mcu = Msp432()
        mcu.sram.allocate("runtime", 20 * 1024)
        assert reassemble(split_and_compress(data), sram=mcu.sram) == data
        # The working region was released each time.
        assert "ota_decompress" not in mcu.sram.regions

    def test_block_too_big_for_sram_fails(self, rng):
        data = rng.integers(0, 256, 80_000, dtype=np.uint8).tobytes()
        blocks = split_and_compress(data, block_bytes=60 * 1024)
        mcu = Msp432()
        mcu.sram.allocate("runtime", 20 * 1024)
        from repro.errors import MemoryError_
        with pytest.raises(MemoryError_):
            reassemble(blocks, sram=mcu.sram)

    def test_out_of_order_blocks_rejected(self):
        blocks = split_and_compress(bytes(70_000))
        with pytest.raises(CompressionError):
            reassemble([blocks[1], blocks[0], blocks[2]])

    def test_header_wire_format(self):
        blocks = split_and_compress(bytes(40_000))
        header = blocks[1].header()
        assert len(header) == 6
        assert int.from_bytes(header[0:2], "big") == 1
        assert int.from_bytes(header[2:4], "big") == 40_000 - BLOCK_BYTES

    def test_summary(self):
        summary = compression_summary(generate_bitstream(0.03, seed=9))
        assert summary["blocks"] == pytest.approx(20)  # 579k / 30k
        assert summary["ratio"] < 0.15

    def test_empty_image_rejected(self):
        with pytest.raises(ConfigurationError):
            split_and_compress(b"")


class TestFlash:
    def test_erased_state_is_ff(self):
        flash = Mx25R6435F()
        assert flash.read(0, 16) == b"\xff" * 16

    def test_write_read_roundtrip(self, rng):
        flash = Mx25R6435F()
        data = rng.integers(0, 256, 10_000, dtype=np.uint8).tobytes()
        flash.write(0x1000, data)
        assert flash.read(0x1000, len(data)) == data

    def test_program_requires_erase(self):
        flash = Mx25R6435F()
        flash.program(0, b"\x00")  # 0xFF -> 0x00 fine
        with pytest.raises(FlashError):
            flash.program(0, b"\xff")  # 0x00 -> 0xFF needs erase

    def test_program_can_clear_more_bits(self):
        flash = Mx25R6435F()
        flash.program(0, b"\xf0")
        flash.program(0, b"\x30")  # only clears bits: allowed
        assert flash.read(0, 1) == b"\x30"

    def test_sector_erase_restores_ff(self):
        flash = Mx25R6435F()
        flash.program(100, b"\x00" * 10)
        flash.erase_sector(0)
        assert flash.read(100, 10) == b"\xff" * 10

    def test_unaligned_erase_rejected(self):
        with pytest.raises(FlashError):
            Mx25R6435F().erase_sector(100)

    def test_out_of_range_rejected(self):
        flash = Mx25R6435F()
        with pytest.raises(FlashError):
            flash.read(flash.capacity_bytes - 4, 8)

    def test_stats_accumulate(self):
        flash = Mx25R6435F()
        flash.write(0, bytes(SECTOR_BYTES))
        stats = flash.stats()
        assert stats.sectors_erased == 1
        assert stats.bytes_programmed == SECTOR_BYTES
        assert stats.busy_time_s > 0
        assert stats.energy_j > 0

    def test_zero_length_erase_and_write_are_no_ops(self):
        flash = Mx25R6435F()
        flash.program(0, b"\x00" * 16)
        flash.erase_range(100, 0)
        flash.write(100, b"")
        assert flash.read(0, 16) == b"\x00" * 16
        stats = flash.stats()
        assert stats.sectors_erased == 0
        assert stats.page_programs == 1

    def test_zero_length_access_is_still_range_checked(self):
        flash = Mx25R6435F()
        with pytest.raises(FlashError):
            flash.erase_range(flash.capacity_bytes + SECTOR_BYTES, 0)
        with pytest.raises(FlashError):
            flash.write(-1, b"")

    @pytest.mark.parametrize("capacity", [0, -SECTOR_BYTES])
    def test_non_positive_capacity_rejected(self, capacity):
        with pytest.raises(ConfigurationError, match="positive multiple"):
            Mx25R6435F(capacity)

    @pytest.mark.parametrize("offset", [0, 1, 255, 4097, 65535])
    def test_illegal_program_names_first_address_and_is_atomic(
            self, rng, offset):
        flash = Mx25R6435F()
        base = 0x20000
        size = 65536
        staged = bytearray(rng.integers(0, 256, size, dtype=np.uint8)
                           .tobytes())
        staged[-1] = 0x00
        staged[offset] = 0x0F
        flash.program(base, bytes(staged))
        # Clearing more bits is legal everywhere but at ``offset`` (and
        # at the last byte, a later offender that must not be named).
        mask = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        data = bytearray(a & b for a, b in zip(staged, mask))
        data[-1] |= 0x80
        data[offset] = 0xF0
        before = flash.read(base, size)
        stats = flash.stats()
        with pytest.raises(FlashError) as info:
            flash.program(base, bytes(data))
        assert str(info.value) == (
            f"programming 0xf0 over 0x0f at {base + offset:#x} requires "
            "an erase first")
        assert flash.stats() == stats
        assert flash.read(base, size) == before

    def test_layout_slots(self):
        layout = FlashLayout()
        assert layout.slot_address(layout.boot_offset, 0) == \
            layout.boot_offset
        assert layout.slot_address(layout.boot_offset, 2) == \
            layout.boot_offset + 2 * layout.slot_bytes


class TestOtaMac:
    def test_fragmentation_roundtrip(self, rng):
        image = rng.integers(0, 256, 5000, dtype=np.uint8).tobytes()
        packets = fragment_image(image)
        assert all(len(p.payload) <= 60 for p in packets)
        assert reassemble_image(packets) == image

    def test_fragment_rejects_empty(self):
        with pytest.raises(ProtocolError):
            fragment_image(b"")

    def test_reassemble_detects_gap(self):
        packets = fragment_image(bytes(300))
        with pytest.raises(ProtocolError):
            reassemble_image([packets[0], packets[2]])

    def test_data_packet_crc_changes_with_payload(self):
        a = DataPacket(0, b"aaa")
        b = DataPacket(0, b"aab")
        assert a.crc != b.crc

    def test_data_packet_rejects_oversize(self):
        # 247 B is the LoRa PHY limit after the 8-byte fragment header.
        DataPacket(0, bytes(247))
        with pytest.raises(ProtocolError):
            DataPacket(0, bytes(248))

    def test_programming_request_validation(self):
        with pytest.raises(ProtocolError):
            ProgrammingRequest((), (), image_id=0)
        with pytest.raises(ProtocolError):
            ProgrammingRequest((1, 2), (0.0,), image_id=0)

    def test_good_link_no_retransmissions(self, rng):
        report = simulate_transfer(bytes(2000),
                                   OtaLink(downlink_rssi_dbm=-80.0,
                                           fading_sigma_db=0.0), rng)
        assert not report.failed
        assert report.retransmissions == 0
        assert report.packets_delivered == 34  # ceil(2000/60)

    def test_marginal_link_retransmits(self, rng):
        link = OtaLink(downlink_rssi_dbm=-119.5, fading_sigma_db=2.0)
        report = simulate_transfer(bytes(3000), link, rng)
        assert not report.failed
        assert report.retransmissions > 0

    def test_dead_link_fails(self, rng):
        link = OtaLink(downlink_rssi_dbm=-135.0, fading_sigma_db=0.0)
        report = simulate_transfer(bytes(500), link, rng)
        assert report.failed

    def test_duration_scales_with_image_size(self, rng):
        link = OtaLink(downlink_rssi_dbm=-80.0, fading_sigma_db=0.0)
        small = simulate_transfer(bytes(1000), link, rng)
        large = simulate_transfer(bytes(10_000), link, rng)
        assert large.duration_s > 5 * small.duration_s

    def test_airtime_uses_paper_config(self):
        link = OtaLink()
        # 68-byte data packet at SF8/BW500/CR6, 8-chirp preamble.
        assert link.airtime_s(68) == pytest.approx(
            LoRaParams(8, 500e3, 6).airtime_s(68, 8), rel=1e-9)


class TestUpdater:
    def test_fpga_update_end_to_end(self, rng):
        image = generate_bitstream(0.03, seed=50)
        updater = OtaUpdater()
        report = updater.update(image, OtaLink(downlink_rssi_dbm=-90.0),
                                rng)
        assert report.raw_bytes == len(image)
        assert report.reconfigure_time_s == pytest.approx(22e-3, rel=0.1)
        assert updater.configurator.configured
        # The installed image is byte-identical.
        installed = updater.flash.read(updater.layout.boot_offset,
                                       len(image))
        assert installed == image

    def test_mcu_update_skips_reconfigure(self, rng):
        image = generate_mcu_program(seed=51)
        report = OtaUpdater().update(image, OtaLink(downlink_rssi_dbm=-90.0),
                                     rng, is_fpga_image=False)
        assert report.reconfigure_time_s == 0.0

    def test_update_fails_on_dead_link(self, rng):
        image = generate_mcu_program(seed=52)
        with pytest.raises(OtaError):
            OtaUpdater().update(image,
                                OtaLink(downlink_rssi_dbm=-140.0,
                                        fading_sigma_db=0.0), rng)

    def test_lora_update_time_near_paper(self, rng):
        image = generate_bitstream(0.1125, seed=42)
        report = OtaUpdater().update(image, OtaLink(downlink_rssi_dbm=-100.0),
                                     rng)
        # Paper Fig. 14: LoRa FPGA average ~150 s.
        assert report.total_time_s == pytest.approx(150.0, rel=0.10)

    def test_decompress_under_450ms(self, rng):
        image = generate_bitstream(0.1125, seed=42)
        report = OtaUpdater().update(image, OtaLink(downlink_rssi_dbm=-90.0),
                                     rng)
        assert report.decompress_time_s <= 0.45

    def test_energy_within_2x_of_paper(self, rng):
        image = generate_bitstream(0.1125, seed=42)
        report = OtaUpdater().update(image, OtaLink(downlink_rssi_dbm=-100.0),
                                     rng)
        # Paper: 6144 mJ for a LoRa FPGA update.
        assert 3.0 < report.node_energy_j < 12.3

    def test_supplied_blocks_give_the_same_session(self):
        image = generate_mcu_program(seed=53)
        link = OtaLink(downlink_rssi_dbm=-100.0)
        here = OtaUpdater().update(image, link, np.random.default_rng(5),
                                   is_fpga_image=False)
        supplied = OtaUpdater().update(
            image, link, np.random.default_rng(5), is_fpga_image=False,
            blocks=split_and_compress(image))
        assert supplied.total_time_s.hex() == here.total_time_s.hex()
        assert supplied.node_energy_j.hex() == here.node_energy_j.hex()
        assert supplied.compressed_bytes == here.compressed_bytes

    def test_blocks_of_another_image_are_fatal(self, rng):
        image = generate_mcu_program(seed=54)
        other = split_and_compress(bytes(len(image)))
        with pytest.raises(OtaError, match="does not match"):
            OtaUpdater().update(image, OtaLink(downlink_rssi_dbm=-90.0),
                                rng, is_fpga_image=False, blocks=other)


class TestCompressOnce:
    """A campaign compresses its image once, for every node and retry."""

    IMAGE = generate_mcu_program(seed=55)[:2 * BLOCK_BYTES + 1000]

    @pytest.fixture
    def compress_calls(self, monkeypatch):
        calls = []
        original = minilzo.compress

        def counting(data):
            calls.append(len(data))
            return original(data)

        monkeypatch.setattr(minilzo, "compress", counting)
        return calls

    @staticmethod
    def deployment(*distances_m):
        return replace(
            campus_deployment(num_nodes=1, seed=3),
            nodes=tuple(NodePlacement(node_id=i, x_m=d, y_m=0.0)
                        for i, d in enumerate(distances_m)))

    def test_testbed_campaign(self, compress_calls):
        campaign = run_campaign(self.deployment(80.0, 120.0, 200.0),
                                self.IMAGE, "mcu",
                                np.random.default_rng(6),
                                is_fpga_image=False)
        assert all(node.succeeded for node in campaign.results)
        assert compress_calls == [BLOCK_BYTES, BLOCK_BYTES, 1000]

    def test_access_point_campaign_with_retries(self, compress_calls):
        # The far node fails every attempt, so the AP retries it.
        timeline = AccessPoint(self.deployment(80.0, 50_000.0),
                               self.IMAGE).run_campaign(
            np.random.default_rng(7), is_fpga_image=False)
        assert timeline.retries >= 1
        assert timeline.success_count == 1
        assert compress_calls == [BLOCK_BYTES, BLOCK_BYTES, 1000]
