"""Property tests: miniLZO parity and decompression under hostile input.

The codec extends matches and copies them a slice at a time.  The
byte-at-a-time loops it replaced are kept here as oracles: the fast
``compress`` must emit the oracle's exact stream, and the fast
``decompress`` must return the oracle's bytes or raise its exact error.

The hardened OTA path reads staged compressed blocks back from a flash
that may have dropped pages or stuck bits, then feeds them to
:func:`repro.ota.minilzo.decompress`.  The contract under ANY corruption
is: return the correct bytes or raise :class:`CompressionError` - never
hang, never crash with an untyped exception, never silently hand back
wrong data when the block header's ``raw_size`` is supplied, and never
allocate past the expected output size (the MSP432 has 64 kB of SRAM).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.errors import CompressionError, ReproError
from repro.ota.minilzo import (
    MAX_LITERAL_RUN,
    MAX_SHORT_MATCH,
    MIN_MATCH,
    WINDOW_SIZE,
    _read_cascade,
    _write_cascade,
    compress,
    decompress,
)

payloads = st.binary(min_size=1, max_size=2048)
compressible = st.builds(
    lambda chunk, reps: chunk * reps,
    st.binary(min_size=1, max_size=64),
    st.integers(min_value=1, max_value=64))
# Bitstream-like input: long zero runs and short periods between short
# random stretches, so matches are long, overlap their own source and
# often run into the end of the input.
runs = st.lists(
    st.one_of(
        st.integers(min_value=1, max_value=600).map(bytes),
        st.builds(lambda period, reps: period * reps,
                  st.binary(min_size=1, max_size=4),
                  st.integers(min_value=1, max_value=200)),
        st.binary(max_size=24)),
    min_size=1, max_size=12).map(b"".join).filter(bool)


def oracle_compress(data: bytes) -> bytes:
    """The byte-at-a-time compressor the fast one must match exactly."""
    data = bytes(data)
    n = len(data)
    out = bytearray()
    table: dict[int, int] = {}
    literal_start = 0
    pos = 0

    def flush_literals(end: int) -> None:
        start = literal_start
        while start < end:
            run = min(end - start, MAX_LITERAL_RUN)
            remaining = end - start
            if remaining > MAX_LITERAL_RUN:
                out.append(0x00)
                _write_cascade(out, remaining - MAX_LITERAL_RUN)
                out.extend(data[start:end])
                return
            out.append(run)
            out.extend(data[start:start + run])
            start += run

    while pos + MIN_MATCH <= n:
        key = data[pos] | (data[pos + 1] << 5) | (data[pos + 2] << 10)
        candidate = table.get(key)
        table[key] = pos
        if candidate is not None and 0 < pos - candidate <= WINDOW_SIZE \
                and data[candidate:candidate + MIN_MATCH] \
                == data[pos:pos + MIN_MATCH]:
            length = MIN_MATCH
            limit = n - pos
            while length < limit and data[candidate + length] \
                    == data[pos + length]:
                length += 1
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


def oracle_decompress(data: bytes, expected_size: int | None = None) -> bytes:
    """The byte-at-a-time decompressor, errors and all."""
    data = bytes(data)
    out = bytearray()
    pos = 0
    n = len(data)
    while pos < n:
        token = data[pos]
        pos += 1
        if token & 0x80:
            length_code = (token >> 4) & 0x7
            if pos >= n:
                raise CompressionError("truncated match distance")
            distance = (((token & 0x0F) << 8) | data[pos]) + 1
            pos += 1
            if length_code == 7:
                extra, pos = _read_cascade(data, pos)
                length = MAX_SHORT_MATCH + 1 + extra
            else:
                length = MIN_MATCH + length_code
            if expected_size is not None \
                    and len(out) + length > expected_size:
                raise CompressionError(
                    f"match of {length} bytes would grow the output past "
                    f"the expected {expected_size} bytes")
            if distance > len(out):
                raise CompressionError(
                    f"match distance {distance} reaches before the output "
                    "start")
            start = len(out) - distance
            for i in range(length):
                out.append(out[start + i])
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
            out.extend(data[pos:pos + run])
            pos += run
    if expected_size is not None and len(out) != expected_size:
        raise CompressionError(
            f"decompressed {len(out)} bytes, expected {expected_size}")
    return bytes(out)


def outcome(function, *args):
    """What a decompressor does with a stream: bytes, or its error text."""
    try:
        return function(*args)
    except CompressionError as error:
        return f"CompressionError: {error}"


def assert_decompress_parity(stream: bytes, expected_size: int | None):
    fast = outcome(decompress, stream, expected_size)
    assert fast == outcome(oracle_decompress, stream, expected_size)
    return fast


@given(data=runs | payloads | compressible)
def test_compress_matches_the_oracle_byte_for_byte(data):
    stream = compress(data)
    assert stream == oracle_compress(data)
    assert assert_decompress_parity(stream, len(data)) == data


@pytest.mark.parametrize("data", [
    b"ababa", b"abcabca",                # distance == length - 1
    b"abcabcx",                          # distance == length
    bytes(65), bytes(64 * 3 + 5), b"ab" * 500,  # runs over 64
    b"x" + bytes(4000),                  # one long overlapping match
    b"abc" * 7 + b"q" + b"abc" * 30,     # a match ending the input
    bytes(range(256)) * 17,              # distance 256
    b"\x01\x02" + bytes(WINDOW_SIZE) + b"\x01\x02\x00" * 40,  # window edge
])
def test_compress_matches_the_oracle_on_edge_cases(data):
    assert compress(data) == oracle_compress(data)
    assert decompress(compress(data), len(data)) == data


@given(data=payloads | compressible)
def test_roundtrip_with_size_check(data):
    assert decompress(compress(data), len(data)) == data


@given(data=st.binary(max_size=4096))
def test_arbitrary_bytes_never_raise_untyped(data):
    """Any byte soup decodes as the oracle's does or fails as typed."""
    assert_decompress_parity(data, None)
    # Anything else (IndexError, MemoryError, ...) fails the test.


@given(data=runs | payloads | compressible,
       position=st.integers(min_value=0, max_value=10_000),
       flip=st.integers(min_value=1, max_value=255))
def test_bit_corruption_is_caught_or_harmless(data, position, flip):
    """A corrupted stream must never silently yield wrong output.

    With the block's ``raw_size`` supplied (as the OTA headers always
    do), a corrupted stream either still decodes to the original bytes
    (the flip landed in a literal run - indistinguishable without a
    payload CRC, which the install path adds on top) or raises the
    typed error.  Wrong-size output must never escape.
    """
    stream = bytearray(compress(data))
    position %= len(stream)
    stream[position] ^= flip
    recovered = assert_decompress_parity(bytes(stream), len(data))
    if not isinstance(recovered, str):
        assert len(recovered) == len(data)


@given(data=runs | payloads | compressible,
       cut=st.integers(min_value=0, max_value=10_000))
def test_truncation_is_caught_or_harmless(data, cut):
    stream = compress(data)
    truncated = stream[:cut % (len(stream) + 1)]
    recovered = assert_decompress_parity(truncated, len(data))
    if not isinstance(recovered, str):
        assert recovered == data  # only the full stream can still match


@given(extension=st.binary(max_size=64))
def test_corrupt_cascade_cannot_balloon_output(extension):
    """A length cascade claiming megabytes fails before allocating them.

    ``0x00`` opens an extended literal run; adversarial 255-cascades
    after it claim runs far past any plausible block.  With an expected
    size given, the per-op budget check must fire (or the stream must
    fail as truncated) without materializing the claimed run.
    """
    stream = b"\x00" + b"\xff" * 200 + extension
    out = assert_decompress_parity(stream, 1024)
    if not isinstance(out, str):
        assert len(out) <= 1024


@settings(max_examples=25)
@given(data=st.binary(min_size=1, max_size=512))
def test_all_failures_are_repro_errors(data):
    """The OTA stack catches ReproError subclasses only."""
    try:
        decompress(data, expected_size=len(data))
    except ReproError:
        pass
