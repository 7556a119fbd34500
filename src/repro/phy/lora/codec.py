"""Payload <-> symbol codec: the full LoRa bit pipeline.

Encoding a payload into chirp symbol values proceeds as on SX127x-class
hardware:

* a CRC-16 is appended (when enabled) and the payload is whitened;
* the stream is split into nibbles and Hamming-encoded;
* codewords are grouped into diagonal interleaver blocks of ``PPM``
  codewords each, emitting ``CR_den`` symbols per block;
* symbol values are Gray-mapped so adjacent FFT bins differ in one bit.

The **header block** is always transmitted at the robust setting
(``PPM = SF - 2``, CR 4/8), carrying payload length, coding rate, and CRC
flag plus a checksum, so the receiver can decode the rest without prior
knowledge - exactly the explicit-header behaviour of real LoRa.  Explicit
headers require SF >= 7 (SF6 is implicit-header only, as on the SX1276).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CodingError
from repro.phy.lora.coding import (
    deinterleave_block,
    deinterleave_blocks,
    gray_decode_array,
    gray_encode_array,
    hamming_decode,
    hamming_decode_nibble,
    hamming_decode_table,
    hamming_encode_nibble,
    hamming_encode_table,
    interleave_block,
    interleave_blocks,
    whiten,
)
from repro.phy.lora.params import LoRaParams

HEADER_NIBBLES = 5
HEADER_CR_DENOMINATOR = 8
MAX_PAYLOAD_BYTES = 255


def crc16_ccitt(data: bytes, initial: int = 0x0000) -> int:
    """CRC-16/CCITT (polynomial 0x1021) over ``data``."""
    crc = initial
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


def _bytes_to_nibbles(data: bytes) -> list[int]:
    """Split bytes into nibbles, low nibble first."""
    nibbles = []
    for byte in data:
        nibbles.append(byte & 0xF)
        nibbles.append(byte >> 4)
    return nibbles


def _nibbles_to_bytes(nibbles: list[int]) -> bytes:
    """Join nibbles (low first) back into bytes, dropping a trailing odd one."""
    out = bytearray()
    for low, high in zip(nibbles[::2], nibbles[1::2]):
        out.append((low & 0xF) | ((high & 0xF) << 4))
    return bytes(out)


def _nibbles_to_bytes_array(nibbles: np.ndarray) -> bytes:
    """Vectorized :func:`_nibbles_to_bytes`."""
    pairs = nibbles.size // 2
    low = nibbles[0:2 * pairs:2] & 0xF
    high = nibbles[1:2 * pairs:2] & 0xF
    return (low | (high << 4)).astype(np.uint8).tobytes()


@dataclass(frozen=True)
class LoRaHeader:
    """Decoded explicit-header fields (the first 8 payload-section symbols).

    Attributes:
        payload_length: payload byte count announced by the transmitter.
        coding_rate_denominator: payload-section coding rate (config
            fallback when the header checksum failed).
        crc_flag: whether a payload CRC follows (config fallback when the
            header checksum failed).
        header_ok: header checksum status.
        fec_errors: Hamming errors detected inside the header block.
        leading_nibbles: payload nibbles absorbed into the header block
            (``SF - 7`` of them).
    """

    payload_length: int
    coding_rate_denominator: int
    crc_flag: bool
    header_ok: bool
    fec_errors: int
    leading_nibbles: tuple[int, ...]


@dataclass(frozen=True)
class DecodedPayload:
    """Result of decoding a symbol stream.

    Attributes:
        payload: recovered payload bytes.
        crc_ok: ``None`` when the packet carried no CRC, else pass/fail.
        header_ok: explicit-header checksum status (``True`` for implicit).
        fec_errors: count of Hamming codewords with detected errors.
    """

    payload: bytes
    crc_ok: bool | None
    header_ok: bool
    fec_errors: int


class LoRaCodec:
    """Bidirectional payload <-> symbol-value codec for one configuration."""

    def __init__(self, params: LoRaParams, crc: bool = True) -> None:
        if params.explicit_header and params.spreading_factor < 7:
            raise CodingError(
                "explicit headers require SF >= 7 (SF6 is implicit-header "
                "only, as on SX1276)")
        self.params = params
        self.crc = crc

    # -- encode ------------------------------------------------------------

    def encode(self, payload: bytes) -> np.ndarray:
        """Encode payload bytes into an array of chirp symbol values.

        Vectorized fast path (Hamming lookup tables, batched diagonal
        interleave, array Gray mapping); bit-exact with
        :meth:`encode_reference`.
        """
        if len(payload) > MAX_PAYLOAD_BYTES:
            raise CodingError(
                f"payload exceeds {MAX_PAYLOAD_BYTES} bytes: {len(payload)}")
        body = bytes(payload)
        if self.crc:
            crc = crc16_ccitt(body)
            body += bytes((crc >> 8, crc & 0xFF))
        body = whiten(body)
        raw = np.frombuffer(body, dtype=np.uint8).astype(np.int64)
        nibbles = np.empty(raw.size * 2, dtype=np.int64)
        nibbles[0::2] = raw & 0xF
        nibbles[1::2] = raw >> 4

        pieces: list[np.ndarray] = []
        if self.params.explicit_header:
            header_ppm = self.params.spreading_factor - 2
            absorb = header_ppm - HEADER_NIBBLES
            block = np.concatenate([
                np.asarray(self._header_nibbles(len(payload)),
                           dtype=np.int64),
                nibbles[:absorb]])
            nibbles = nibbles[absorb:]
            if block.size < header_ppm:
                block = np.concatenate([
                    block, np.zeros(header_ppm - block.size, dtype=np.int64)])
            pieces.append(self._encode_blocks(
                block.reshape(1, -1), header_ppm, HEADER_CR_DENOMINATOR))

        ppm = self.params.payload_bits_per_symbol
        cr = self.params.coding_rate_denominator
        if nibbles.size:
            count = -(-nibbles.size // ppm)
            padded = np.zeros(count * ppm, dtype=np.int64)
            padded[:nibbles.size] = nibbles
            pieces.append(self._encode_blocks(
                padded.reshape(count, ppm), ppm, cr))
        if not pieces:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(pieces)

    def encode_reference(self, payload: bytes) -> np.ndarray:
        """One-block-at-a-time scalar twin of :meth:`encode`."""
        if len(payload) > MAX_PAYLOAD_BYTES:
            raise CodingError(
                f"payload exceeds {MAX_PAYLOAD_BYTES} bytes: {len(payload)}")
        body = bytes(payload)
        if self.crc:
            crc = crc16_ccitt(body)
            body += bytes((crc >> 8, crc & 0xFF))
        body = whiten(body)
        nibbles = _bytes_to_nibbles(body)

        symbols: list[int] = []
        if self.params.explicit_header:
            header = self._header_nibbles(len(payload))
            header_ppm = self.params.spreading_factor - 2
            block = header + nibbles[:header_ppm - HEADER_NIBBLES]
            nibbles = nibbles[header_ppm - HEADER_NIBBLES:]
            block += [0] * (header_ppm - len(block))
            symbols.extend(self._encode_block(
                block, header_ppm, HEADER_CR_DENOMINATOR))

        ppm = self.params.payload_bits_per_symbol
        cr = self.params.coding_rate_denominator
        for start in range(0, len(nibbles), ppm):
            block = nibbles[start:start + ppm]
            block += [0] * (ppm - len(block))
            symbols.extend(self._encode_block(block, ppm, cr))
        return np.asarray(symbols, dtype=np.int64)

    def _header_nibbles(self, payload_length: int) -> list[int]:
        """Build the 5-nibble explicit header."""
        flags = ((self.params.coding_rate_denominator - 4) & 0x7) | (
            0x8 if self.crc else 0x0)
        checksum = (payload_length ^ (payload_length >> 4) ^ flags) & 0xFF
        return [payload_length & 0xF, payload_length >> 4, flags,
                checksum & 0xF, checksum >> 4]

    def _encode_block(self, nibbles: list[int], ppm: int,
                      cr_denominator: int) -> list[int]:
        """Hamming-encode, interleave and Gray-map one block."""
        codewords = [hamming_encode_nibble(n, cr_denominator) for n in nibbles]
        interleaved = interleave_block(codewords, ppm, cr_denominator)
        values = gray_decode_array(np.asarray(interleaved, dtype=np.int64))
        shift = self.params.spreading_factor - ppm
        return [int(v) << shift for v in values]

    def _encode_blocks(self, nibbles: np.ndarray, ppm: int,
                       cr_denominator: int) -> np.ndarray:
        """Vectorized :meth:`_encode_block` over a ``(count, ppm)`` matrix."""
        codewords = hamming_encode_table(cr_denominator)[nibbles]
        interleaved = interleave_blocks(codewords, ppm, cr_denominator)
        values = gray_decode_array(interleaved)
        shift = self.params.spreading_factor - ppm
        return (values << shift).reshape(-1)

    def _decode_blocks(self, symbols: np.ndarray, ppm: int,
                       cr_denominator: int) -> tuple[np.ndarray, int]:
        """Vectorized :meth:`_decode_block` over a ``(count, cr)`` matrix.

        Returns:
            ``(nibbles, errors)`` where ``nibbles`` is a ``(count, ppm)``
            matrix in block order.
        """
        shift = self.params.spreading_factor - ppm
        values = symbols >> shift
        interleaved = gray_encode_array(values)
        codewords = deinterleave_blocks(interleaved, ppm, cr_denominator)
        nibble_table, error_table = hamming_decode_table(cr_denominator)
        return nibble_table[codewords], int(error_table[codewords].sum())

    # -- decode ------------------------------------------------------------

    def decode(self, symbols: np.ndarray,
               payload_length: int | None = None) -> DecodedPayload:
        """Decode received chirp symbol values back into a payload.

        Args:
            symbols: detected chirp symbol values.
            payload_length: a priori payload length for implicit-header
                mode (as real hardware requires); ignored when an
                explicit header is decoded successfully, and inferred
                from the trailing CRC when omitted in implicit mode.

        Raises:
            CodingError: when the stream is too short to contain the
                expected header/payload structure.
        """
        arr = np.asarray(symbols, dtype=np.int64).reshape(-1)
        fec_errors = 0
        header_ok = True
        crc_flag = self.crc
        cr = self.params.coding_rate_denominator
        leading = np.empty(0, dtype=np.int64)

        if self.params.explicit_header:
            header = self.decode_header(arr)
            fec_errors += header.fec_errors
            header_ok = header.header_ok
            payload_length = header.payload_length
            leading = np.asarray(header.leading_nibbles, dtype=np.int64)
            if header_ok:
                cr = header.coding_rate_denominator
                crc_flag = header.crc_flag
            arr = arr[HEADER_CR_DENOMINATOR:]

        ppm = self.params.payload_bits_per_symbol
        count = arr.size // cr
        if count:
            block_nibbles, errs = self._decode_blocks(
                arr[:count * cr].reshape(count, cr), ppm, cr)
            fec_errors += errs
            all_nibbles = np.concatenate([leading,
                                          block_nibbles.reshape(-1)])
        else:
            all_nibbles = leading

        body = whiten(_nibbles_to_bytes_array(all_nibbles))
        if payload_length is None and not self.params.explicit_header:
            payload_length = self._implicit_length(body, crc_flag)
        total_length = (payload_length if payload_length is not None
                        else len(body) - (2 if crc_flag else 0))
        total_length = max(0, min(total_length, len(body)))

        crc_ok: bool | None = None
        payload = body[:total_length]
        if crc_flag:
            crc_bytes = body[total_length:total_length + 2]
            if len(crc_bytes) < 2:
                crc_ok = False
            else:
                received = (crc_bytes[0] << 8) | crc_bytes[1]
                crc_ok = crc16_ccitt(payload) == received
        return DecodedPayload(payload=payload, crc_ok=crc_ok,
                              header_ok=header_ok, fec_errors=fec_errors)

    def decode_reference(self, symbols: np.ndarray,
                         payload_length: int | None = None) -> DecodedPayload:
        """One-block-at-a-time scalar twin of :meth:`decode`."""
        symbols = list(np.asarray(symbols, dtype=np.int64))
        fec_errors = 0
        header_ok = True
        crc_flag = self.crc
        cr = self.params.coding_rate_denominator
        leading_nibbles: list[int] = []

        if self.params.explicit_header:
            header_ppm = self.params.spreading_factor - 2
            if len(symbols) < HEADER_CR_DENOMINATOR:
                raise CodingError(
                    "symbol stream too short for an explicit header")
            block = symbols[:HEADER_CR_DENOMINATOR]
            symbols = symbols[HEADER_CR_DENOMINATOR:]
            nibbles, errs = self._decode_block(
                block, header_ppm, HEADER_CR_DENOMINATOR)
            fec_errors += errs
            header = nibbles[:HEADER_NIBBLES]
            leading_nibbles = nibbles[HEADER_NIBBLES:]
            payload_length = header[0] | (header[1] << 4)
            flags = header[2]
            checksum = header[3] | (header[4] << 4)
            expected = (payload_length ^ (payload_length >> 4) ^ flags) & 0xFF
            header_cr = (flags & 0x7) + 4
            header_ok = checksum == expected and 5 <= header_cr <= 8
            if header_ok:
                cr = header_cr
                crc_flag = bool(flags & 0x8)

        ppm = self.params.payload_bits_per_symbol
        nibbles = leading_nibbles
        for start in range(0, len(symbols) - cr + 1, cr):
            block = symbols[start:start + cr]
            block_nibbles, errs = self._decode_block(block, ppm, cr)
            fec_errors += errs
            nibbles.extend(block_nibbles)

        body = whiten(_nibbles_to_bytes(nibbles))
        if payload_length is None and not self.params.explicit_header:
            payload_length = self._implicit_length(body, crc_flag)
        total_length = (payload_length if payload_length is not None
                        else len(body) - (2 if crc_flag else 0))
        total_length = max(0, min(total_length, len(body)))

        crc_ok: bool | None = None
        payload = body[:total_length]
        if crc_flag:
            crc_bytes = body[total_length:total_length + 2]
            if len(crc_bytes) < 2:
                crc_ok = False
            else:
                received = (crc_bytes[0] << 8) | crc_bytes[1]
                crc_ok = crc16_ccitt(payload) == received
        return DecodedPayload(payload=payload, crc_ok=crc_ok,
                              header_ok=header_ok, fec_errors=fec_errors)

    # -- header ------------------------------------------------------------

    def decode_header(self, symbols: np.ndarray) -> LoRaHeader:
        """Decode just the explicit-header block (first 8 symbols).

        This is what the streaming demodulator uses to learn the packet
        length before the rest of the payload has even arrived.

        Raises:
            CodingError: in implicit-header mode, or when fewer than 8
                symbols are supplied.
        """
        if not self.params.explicit_header:
            raise CodingError(
                "implicit-header configuration carries no header block")
        arr = np.asarray(symbols, dtype=np.int64).reshape(-1)
        if arr.size < HEADER_CR_DENOMINATOR:
            raise CodingError(
                "symbol stream too short for an explicit header")
        header_ppm = self.params.spreading_factor - 2
        nibbles, errs = self._decode_blocks(
            arr[:HEADER_CR_DENOMINATOR].reshape(1, -1),
            header_ppm, HEADER_CR_DENOMINATOR)
        nibbles = nibbles[0]
        payload_length = int(nibbles[0]) | (int(nibbles[1]) << 4)
        flags = int(nibbles[2])
        checksum = int(nibbles[3]) | (int(nibbles[4]) << 4)
        expected = (payload_length ^ (payload_length >> 4) ^ flags) & 0xFF
        cr = (flags & 0x7) + 4
        # A noise header can pass the 8-bit checksum yet name a coding
        # rate outside 4/5..4/8; treat it as corrupt like a bad checksum.
        header_ok = checksum == expected and 5 <= cr <= 8
        if header_ok:
            crc_flag = bool(flags & 0x8)
        else:
            cr = self.params.coding_rate_denominator
            crc_flag = self.crc
        return LoRaHeader(
            payload_length=payload_length,
            coding_rate_denominator=cr,
            crc_flag=crc_flag,
            header_ok=header_ok,
            fec_errors=errs,
            leading_nibbles=tuple(
                int(n) for n in nibbles[HEADER_NIBBLES:]))

    def payload_section_symbols(self, payload_length: int,
                                cr_denominator: int | None = None,
                                crc: bool | None = None) -> int:
        """Symbols that follow the header block for a given header.

        Args:
            payload_length: announced payload byte count.
            cr_denominator: payload coding rate (defaults to the
                configured rate; pass the header-decoded value).
            crc: whether a payload CRC follows (defaults to the
                configured flag; pass the header-decoded value).

        Raises:
            CodingError: for an out-of-range payload length or rate.
        """
        if payload_length < 0 or payload_length > MAX_PAYLOAD_BYTES:
            raise CodingError(f"invalid payload length {payload_length}")
        cr = (self.params.coding_rate_denominator if cr_denominator is None
              else cr_denominator)
        if not 5 <= cr <= 8:
            raise CodingError(
                f"coding rate denominator must be 5..8, got {cr}")
        crc_flag = self.crc if crc is None else crc
        total_nibbles = 2 * (payload_length + (2 if crc_flag else 0))
        if self.params.explicit_header:
            absorbed = (self.params.spreading_factor - 2) - HEADER_NIBBLES
            total_nibbles = max(0, total_nibbles - absorbed)
        ppm = self.params.payload_bits_per_symbol
        blocks = -(-total_nibbles // ppm) if total_nibbles else 0
        return blocks * cr

    @staticmethod
    def _implicit_length(body: bytes, crc_flag: bool) -> int:
        """Infer the payload boundary in implicit-header mode.

        Real hardware requires the receiver to know the length a priori;
        when the caller does not supply it we locate the longest prefix
        whose trailing CRC verifies (block padding sits after the CRC).
        """
        if not crc_flag:
            return len(body)
        for length in range(len(body) - 2, -1, -1):
            received = (body[length] << 8) | body[length + 1]
            if crc16_ccitt(body[:length]) == received:
                return length
        return max(len(body) - 2, 0)

    def _decode_block(self, symbol_block: list[int], ppm: int,
                      cr_denominator: int) -> tuple[list[int], int]:
        """Gray-demap, deinterleave and Hamming-decode one block."""
        shift = self.params.spreading_factor - ppm
        values = [(int(s) >> shift) for s in symbol_block]
        interleaved = [int(v) for v in
                       gray_encode_array(np.asarray(values, dtype=np.int64))]
        codewords = deinterleave_block(interleaved, ppm, cr_denominator)
        nibbles = []
        errors = 0
        for codeword in codewords:
            nibble, err = hamming_decode_nibble(codeword, cr_denominator)
            nibbles.append(nibble)
            errors += int(err)
        return nibbles, errors

    # -- sizing ------------------------------------------------------------

    def symbol_count(self, payload_bytes: int) -> int:
        """Number of payload-section symbols a payload will occupy."""
        if payload_bytes < 0 or payload_bytes > MAX_PAYLOAD_BYTES:
            raise CodingError(f"invalid payload length {payload_bytes}")
        total_nibbles = 2 * (payload_bytes + (2 if self.crc else 0))
        count = 0
        if self.params.explicit_header:
            header_ppm = self.params.spreading_factor - 2
            absorbed = header_ppm - HEADER_NIBBLES
            total_nibbles = max(0, total_nibbles - absorbed)
            count += HEADER_CR_DENOMINATOR
        ppm = self.params.payload_bits_per_symbol
        blocks = -(-total_nibbles // ppm) if total_nibbles else 0
        count += blocks * self.params.coding_rate_denominator
        return count
