"""MX25R6435F flash memory model (paper section 3.1.2).

The 8 MB SPI flash stores FPGA bitstreams and MCU programs - "far more
than the size required", so a node can keep multiple firmware images and
switch protocols without re-downloading.  The model enforces NOR-flash
semantics (erase-before-write at 4 kB sector granularity, bits only
program 1 -> 0) because the OTA updater's flash layout depends on them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, FlashError

CAPACITY_BYTES = 8 * 1024 * 1024
SECTOR_BYTES = 4096
PAGE_BYTES = 256

READ_BANDWIDTH_BPS = 8_000_000 * 8
"""SPI read throughput at the 80 MHz-class clock, bits per second."""

PAGE_PROGRAM_TIME_S = 0.9e-3
SECTOR_ERASE_TIME_S = 40e-3

ACTIVE_READ_POWER_W = 0.015
PROGRAM_POWER_W = 0.030


@dataclass(frozen=True)
class FlashStats:
    """Cumulative access statistics for timing/energy accounting.

    Timing charges whole page-program *operations*: the device takes
    ``PAGE_PROGRAM_TIME_S`` per page program regardless of how few bytes
    the operation writes, so a 1-byte program costs a full page time
    (the old ``bytes_programmed / PAGE_BYTES`` ratio undercounted it to
    nearly zero).
    """

    bytes_read: int
    bytes_programmed: int
    page_programs: int
    sectors_erased: int

    @property
    def busy_time_s(self) -> float:
        """Total time spent on flash operations."""
        read = self.bytes_read * 8 / READ_BANDWIDTH_BPS
        program = self.page_programs * PAGE_PROGRAM_TIME_S
        erase = self.sectors_erased * SECTOR_ERASE_TIME_S
        return read + program + erase

    @property
    def energy_j(self) -> float:
        """Energy of the logged operations."""
        read = self.bytes_read * 8 / READ_BANDWIDTH_BPS * ACTIVE_READ_POWER_W
        program = self.page_programs * PAGE_PROGRAM_TIME_S * PROGRAM_POWER_W
        erase = self.sectors_erased * SECTOR_ERASE_TIME_S * PROGRAM_POWER_W
        return read + program + erase


class Mx25R6435F:
    """NOR flash with erase-before-write semantics."""

    def __init__(self, capacity_bytes: int = CAPACITY_BYTES) -> None:
        if capacity_bytes <= 0 or capacity_bytes % SECTOR_BYTES:
            raise ConfigurationError(
                "capacity must be a positive multiple of the "
                f"{SECTOR_BYTES}-byte sector size, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._data = bytearray(b"\xff") * capacity_bytes
        self._bytes_read = 0
        self._bytes_programmed = 0
        self._page_programs = 0
        self._sectors_erased = 0

    def _check_range(self, address: int, length: int) -> None:
        if address < 0 or length < 0 or address + length > self.capacity_bytes:
            raise FlashError(
                f"access [{address}, {address + length}) outside the "
                f"{self.capacity_bytes}-byte array")

    def read(self, address: int, length: int) -> bytes:
        """Read ``length`` bytes starting at ``address``."""
        self._check_range(address, length)
        self._bytes_read += length
        return bytes(self._data[address:address + length])

    def erase_sector(self, address: int) -> None:
        """Erase the 4 kB sector containing ``address`` (all bytes to 0xFF).

        Raises:
            FlashError: for out-of-range or unaligned addresses.
        """
        if address % SECTOR_BYTES:
            raise FlashError(
                f"sector erase address {address:#x} is not "
                f"{SECTOR_BYTES}-byte aligned")
        self._check_range(address, SECTOR_BYTES)
        self._data[address:address + SECTOR_BYTES] = b"\xff" * SECTOR_BYTES
        self._sectors_erased += 1

    def erase_range(self, address: int, length: int) -> None:
        """Erase every sector overlapping ``[address, address + length)``."""
        self._check_range(address, length)
        if not length:  # overlaps no sector
            return
        first = (address // SECTOR_BYTES) * SECTOR_BYTES
        last = address + length
        for sector in range(first, last, SECTOR_BYTES):
            self.erase_sector(sector)

    def program(self, address: int, data: bytes) -> None:
        """Program bytes (NOR semantics: can only clear bits).

        Raises:
            FlashError: when writing to a location that is not erased
                (would need 0 -> 1 transitions).
        """
        length = len(data)
        self._check_range(address, length)
        # Check the whole range before touching the array, so an illegal
        # write leaves no partial program behind.  Big-endian: the top
        # set bit of ``illegal`` lies in the lowest offending address.
        current = int.from_bytes(self._data[address:address + length], "big")
        illegal = int.from_bytes(data, "big") & ~current
        if illegal:
            offset = length - 1 - (illegal.bit_length() - 1) // 8
            raise FlashError(
                f"programming {data[offset]:#04x} over "
                f"{self._data[address + offset]:#04x} at "
                f"{address + offset:#x} requires an erase first")
        self._data[address:address + length] = data  # == current & data
        self._bytes_programmed += length
        self._page_programs += self.page_span(address, length)

    def write(self, address: int, data: bytes) -> None:
        """Convenience: erase the covered range, then program."""
        self.erase_range(address, len(data))
        self.program(address, data)

    @staticmethod
    def page_span(address: int, length: int) -> int:
        """Number of page-program operations a write issues.

        The device programs at most one page per operation, so a write
        costs one operation per page it touches - a single byte is a
        whole page program.
        """
        if length <= 0:
            return 0
        first = address // PAGE_BYTES
        last = (address + length - 1) // PAGE_BYTES
        return last - first + 1

    def stats(self) -> FlashStats:
        """Snapshot of cumulative access statistics."""
        return FlashStats(bytes_read=self._bytes_read,
                          bytes_programmed=self._bytes_programmed,
                          page_programs=self._page_programs,
                          sectors_erased=self._sectors_erased)


@dataclass(frozen=True)
class FlashLayout:
    """TinySDR's firmware storage map inside the 8 MB array.

    Attributes:
        staging_offset: where compressed OTA blocks land as they arrive.
        boot_offset: where the decompressed FPGA bitstream lives (the
            address quad-SPI configuration reads from).
        mcu_offset: where the decompressed MCU program lives.
        slot_bytes: size reserved per firmware slot.
    """

    staging_offset: int = 0x000000
    boot_offset: int = 0x100000
    mcu_offset: int = 0x200000
    slot_bytes: int = 0x100000

    def slot_address(self, base: int, slot: int) -> int:
        """Address of a numbered firmware slot.

        Raises:
            ConfigurationError: for negative slots.
        """
        if slot < 0:
            raise ConfigurationError(f"slot must be >= 0, got {slot}")
        return base + slot * self.slot_bytes
