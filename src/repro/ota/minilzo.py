"""miniLZO-class LZ77 codec, implemented from scratch.

TinySDR compresses firmware updates with miniLZO, "a lightweight subset
of the Lempel-Ziv-Oberhumer (LZO) algorithm" whose decompressor needs no
more working memory than the output buffer (paper section 3.4).  This
module implements a codec with the same contract and character:

* byte-oriented LZ77 with greedy hash matching, a 4 kB window and
  unbounded match lengths (run-length cascades), like LZO1X-1;
* a decompressor that allocates only the output buffer and a few
  scalars - the property that lets the MSP432 decompress 30 kB blocks
  in SRAM;
* compression ratios on sparse FPGA bitstreams in the range the paper
  reports (579 kB -> ~99 kB at 11 % utilization, ~40 kB at 3 %).

The container format (not wire-compatible with LZO, which is
patent-encumbered history anyway, but equivalent in capability):

* literal op: ``0x01..0x7F`` = copy that many literal bytes that follow;
  ``0x00`` is followed by a 255-cascade extension (length = 127 + ext).
* match op: ``0x80 | (L << 4) | D_hi`` then ``D_lo``: copy ``3 + L``
  bytes (L in 0..6) from ``distance = (D_hi << 8 | D_lo) + 1`` back;
  ``L = 7`` adds a 255-cascade extension (length = 10 + ext).
"""

from __future__ import annotations

from repro.errors import CompressionError

WINDOW_SIZE = 4096
MIN_MATCH = 3
MAX_SHORT_MATCH = 9
MAX_LITERAL_RUN = 127
_HASH_SHIFT = 5
_EXTEND_BYTES = 128


def _read_cascade(data: bytes, pos: int) -> tuple[int, int]:
    """Read a 255-cascade extension; returns (value, new_pos)."""
    value = 0
    while True:
        if pos >= len(data):
            raise CompressionError("truncated length extension")
        byte = data[pos]
        pos += 1
        value += byte
        if byte != 255:
            return value, pos


def _write_cascade(out: bytearray, value: int) -> None:
    """Append a 255-cascade extension for ``value``."""
    while value >= 255:
        out.append(255)
        value -= 255
    out.append(value)


def compress(data: bytes) -> bytes:
    """Compress ``data``.

    Worst case (incompressible input) the output is the input plus about
    1/127 framing overhead, mirroring miniLZO's "almost the same size as
    the original file" worst case the paper plans flash space for.
    """
    data = bytes(data)
    n = len(data)
    out = bytearray()
    # Hash of each 3-byte prefix -> most recent position.
    table: dict[int, int] = {}
    literal_start = 0
    pos = 0

    def flush_literals(end: int) -> None:
        run = end - literal_start
        if run > MAX_LITERAL_RUN:  # one extended-literal op for the rest
            out.append(0x00)
            _write_cascade(out, run - MAX_LITERAL_RUN)
        elif run:
            out.append(run)
        out.extend(data[literal_start:end])

    while pos + MIN_MATCH <= n:
        key = data[pos] | (data[pos + 1] << _HASH_SHIFT) \
            | (data[pos + 2] << (2 * _HASH_SHIFT))
        candidate = table.get(key)
        table[key] = pos
        if candidate is not None and 0 < pos - candidate <= WINDOW_SIZE \
                and data[candidate:candidate + MIN_MATCH] \
                == data[pos:pos + MIN_MATCH]:
            # Extend the match a slice at a time: the highest set bit of
            # the slices' big-endian XOR is the first mismatching byte.
            length = MIN_MATCH
            limit = n - pos
            while length < limit:
                step = min(_EXTEND_BYTES, limit - length)
                ahead = data[pos + length:pos + length + step]
                diff = int.from_bytes(ahead, "big") ^ int.from_bytes(
                    data[candidate + length:candidate + length + step], "big")
                if diff:
                    length += step - 1 - (diff.bit_length() - 1) // 8
                    break
                length += step
            flush_literals(pos)
            distance = pos - candidate - 1
            if length <= MAX_SHORT_MATCH:
                out.append(0x80 | ((length - MIN_MATCH) << 4)
                           | (distance >> 8))
                out.append(distance & 0xFF)
            else:
                out.append(0x80 | (7 << 4) | (distance >> 8))
                out.append(distance & 0xFF)
                _write_cascade(out, length - (MAX_SHORT_MATCH + 1))
            pos += length
            literal_start = pos
        else:
            pos += 1
    flush_literals(n)
    return bytes(out)


def decompress(data: bytes, expected_size: int | None = None) -> bytes:
    """Decompress a stream produced by :func:`compress`.

    Args:
        data: compressed stream.
        expected_size: optional output-size check (the OTA block headers
            carry it, so corruption is caught before flashing).

    Raises:
        CompressionError: for truncated or malformed streams, or an
            output-size mismatch.  With ``expected_size`` given, the
            check happens *per op*, so a corrupted length cascade
            claiming megabytes fails immediately instead of first
            allocating them (the MSP432 has 64 kB of SRAM total).
    """
    data = bytes(data)
    out = bytearray()
    pos = 0
    n = len(data)
    while pos < n:
        token = data[pos]
        pos += 1
        if token & 0x80:
            if pos >= n:
                raise CompressionError("truncated match distance")
            distance = (((token & 0x0F) << 8) | data[pos]) + 1
            pos += 1
            length = MIN_MATCH + ((token >> 4) & 0x7)
            if length > MAX_SHORT_MATCH:
                extra, pos = _read_cascade(data, pos)
                length += extra
            if expected_size is not None \
                    and len(out) + length > expected_size:
                raise CompressionError(
                    f"match of {length} bytes would grow the output past "
                    f"the expected {expected_size} bytes")
            start = len(out) - distance
            if start < 0:
                raise CompressionError(
                    f"match distance {distance} reaches before the output "
                    "start")
            if distance >= length:
                out += out[start:start + length]
            else:
                # An overlapping copy repeats the last ``distance`` bytes.
                out += (out[start:] * (length // distance + 1))[:length]
        else:
            if token == 0x00:
                extra, pos = _read_cascade(data, pos)
                run = MAX_LITERAL_RUN + extra
            else:
                run = token
            if expected_size is not None and len(out) + run > expected_size:
                raise CompressionError(
                    f"literal run of {run} bytes would grow the output "
                    f"past the expected {expected_size} bytes")
            if pos + run > n:
                raise CompressionError("truncated literal run")
            out += data[pos:pos + run]
            pos += run
    if expected_size is not None and len(out) != expected_size:
        raise CompressionError(
            f"decompressed {len(out)} bytes, expected {expected_size}")
    return bytes(out)

