"""Bit stream primitives shared by the bit-oriented coders.

Bits are filled most-significant-first within each byte; unused trailing
bits of the final byte are zero.

Codewords are packed a 64-bit word at a time (``pack_codes``), as fast
integer codecs write bits. A ``cumsum`` of the lengths gives each code's
start bit; the code, left-aligned, is shifted to its offset in the word
where it starts, and the codes sharing a word are OR-ed together by one
``bitwise_or.reduceat``. The low bits of a code that crosses into the next
word go there in one scatter. The words are written big-endian and cut to
whole bytes, so no per-bit array is ever built.

Prefix codes decode chunk by chunk (``decode_chunks``). For every bit
position of a chunk of ``CHUNK_BITS`` positions, a coder computes with
numpy where a codeword starting at that position would end. A tight walk
over those next-start offsets, from the current stream position, picks the
true codeword starts, and one gather decodes them. Each chunk sees
``LOOKAHEAD_BITS`` past its last position, enough for the longest codeword
and a 64-bit field window, so per-position arrays are sized by the chunk,
not the payload: working memory stays a few MB at any payload size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import FormatError, TruncatedStreamError

CHUNK_BITS = 1 << 16
LOOKAHEAD_BITS = 128
_SEGMENT_BITS = CHUNK_BITS + LOOKAHEAD_BITS
# A segment carries 16 bytes past its last bit and the buffer 32 bytes past
# the payload, so every 64-bit window a decoder reads lies inside it.
_SEGMENT_BYTES = _SEGMENT_BITS // 8 + 16
_PAD_BYTES = 32


@dataclass(frozen=True)
class BitStream:
    """A byte buffer holding ``bit_length`` valid bits."""

    data: bytes
    bit_length: int

    def __post_init__(self):
        if self.bit_length < 0 or self.bit_length > 8 * len(self.data):
            raise ValueError("bit_length inconsistent with byte count")


def bit_length_u64(values: np.ndarray) -> np.ndarray:
    """Vectorized bit length of non-negative integers (0 -> 0).

    ``frexp`` gives the bit length of an integer that float64 holds
    exactly. Every 32-bit half does, so the high half is measured where it
    is nonzero (plus 32) and the value itself elsewhere.
    """
    v = values.astype(np.uint64, copy=False)
    high = v >> np.uint64(32)
    wide = high > 0
    return np.frexp(np.where(wide, high, v).astype(np.float64))[1] + np.where(wide, 32, 0)


def pack_codes(codes: np.ndarray, lengths: np.ndarray) -> BitStream:
    """Concatenate variable-length codewords into one bit stream.

    ``codes[i]`` holds the codeword value in its low ``lengths[i]`` bits;
    lengths must be in [1, 64].
    """
    codes = codes.astype(np.uint64, copy=False)
    lengths = lengths.astype(np.int64, copy=False)
    if codes.size == 0:
        return BitStream(b"", 0)
    if int(lengths.min()) < 1 or int(lengths.max()) > 64:
        raise ValueError("codeword lengths must be in [1, 64]")
    ends = np.cumsum(lengths)
    total = int(ends[-1])
    starts = ends - lengths
    word = starts >> 6
    offset = (starts & 63).astype(np.uint64)
    # Left-align each code (shift 0..63), then move it to its bit offset in
    # the word where it starts (shift 0..63): bits past the word fall off.
    aligned = codes << (np.uint64(64) - lengths.astype(np.uint64))
    high = aligned >> offset
    out = np.zeros((total + 63) >> 6, dtype=np.uint64)
    # Starts are sorted, so the codes sharing a word are contiguous.
    first = np.flatnonzero(np.concatenate(([True], word[1:] != word[:-1])))
    out[word[first]] = np.bitwise_or.reduceat(high, first)
    # The bits that fell off go to the top of the next word. Only a code
    # with offset >= 1 can cross (shift 1..63), and at most one code crosses
    # each boundary, so the scatter indices are unique.
    cross = np.flatnonzero(ends > (word + 1) << 6)
    out[word[cross] + 1] |= aligned[cross] << (np.uint64(64) - offset[cross])
    return BitStream(out.astype(">u8").tobytes()[: (total + 7) >> 3], total)


def byte_windows(buf: np.ndarray) -> np.ndarray:
    """Big-endian 64-bit words starting at each byte of ``buf`` but the last 7.

    A zero-copy view of the uint8 array ``buf`` with a stride of one byte.
    Gather from it with ``take``, which is several times faster than fancy
    indexing on such a view.
    """
    return np.ndarray((buf.size - 7,), dtype=">u8", buffer=buf, strides=(1,))


def read_fields(words: np.ndarray, start: np.ndarray, nbits: np.ndarray) -> np.ndarray:
    """Fields of ``nbits[i]`` <= 57 bits starting at bit ``start[i]``, as uint64.

    ``words`` comes from ``byte_windows`` over the same bytes.
    """
    offset = (start & 7).astype(np.uint64)
    n = nbits.astype(np.uint64)
    window = words.take(start >> 3)
    return (window >> (np.uint64(64) - offset - n)) & ((np.uint64(1) << n) - np.uint64(1))


# step(seg, limit, avail) -> (ends, finish). ``seg`` holds the chunk's bytes
# from a byte-aligned base bit; ``avail`` is the number of stream bits from
# there. ``ends[j]``, for j < limit, is where a codeword starting at bit j
# ends, which is also where the next one starts; a position holding no valid
# codeword must point at or past ``limit``. ``finish(starts)`` validates the
# codewords at those starts and returns their values.
Step = Callable[[np.ndarray, int, int], tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]]


def decode_chunks(stream: BitStream | bytes, count: int, step: Step) -> np.ndarray:
    """Decode ``count`` codewords of a code spending >= 1 bit per codeword."""
    if isinstance(stream, BitStream):
        data, nbits = stream.data, stream.bit_length
    else:
        data, nbits = stream, 8 * len(stream)
    # Checked before allocating: every codeword spends at least one bit.
    if count > nbits:
        raise TruncatedStreamError("truncated stream")
    out = np.empty(count, dtype=np.int64)
    buf = np.zeros(len(data) + _PAD_BYTES, dtype=np.uint8)
    buf[: len(data)] = np.frombuffer(data, dtype=np.uint8)
    done = pos = 0
    while done < count:
        if pos >= nbits:
            raise TruncatedStreamError("truncated stream")
        base = pos & ~7
        avail = nbits - base
        limit = min(avail, CHUNK_BITS)
        ends, finish = step(buf[base >> 3 : (base >> 3) + _SEGMENT_BYTES], limit, avail)
        hops = memoryview(ends)
        starts = []
        append = starts.append
        p = pos - base
        while p < limit:
            append(p)
            p = hops[p]
        del starts[count - done :]
        at = np.array(starts, dtype=np.int64)
        out[done : done + at.size] = finish(at)
        done += at.size
        pos = base + hops[starts[-1]]
    return out


def decode_prefix_codes(
    stream: BitStream | bytes,
    count: int,
    stop_bit: int,
    max_prefix: int,
    value: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Decode codewords of k prefix bits, a stop bit, then k suffix bits.

    The prefix bits are the complement of ``stop_bit``, so a codeword spends
    2k+1 bits. ``value(k, suffix)`` maps each codeword's prefix length and
    suffix (uint64) to its decoded value. A prefix longer than
    ``max_prefix`` raises ``FormatError``.
    """

    def step(seg: np.ndarray, limit: int, avail: int):
        width = min(avail, _SEGMENT_BITS)
        bits = np.unpackbits(seg, count=width)
        at = np.arange(width, dtype=np.int64)
        # Index of the next stop bit at or after each position (``width``
        # where none follows inside the segment).
        stop = np.minimum.accumulate(np.where(bits == stop_bit, at, width)[::-1])[::-1][:limit]
        ends = 2 * stop + 1 - at[:limit]
        words = byte_windows(seg)

        def finish(starts: np.ndarray) -> np.ndarray:
            if int(ends[starts].max()) > avail:
                raise TruncatedStreamError("truncated stream")
            q = stop[starts]
            k = q - starts
            if int(k.max()) > max_prefix:
                raise FormatError(f"codeword prefix longer than {max_prefix} bits")
            return value(k, read_fields(words, q + 1, k))

        return ends, finish

    return decode_chunks(stream, count, step)
