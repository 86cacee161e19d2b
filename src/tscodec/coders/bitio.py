"""Bit stream primitives shared by the bit-oriented coders.

Bits are filled most-significant-first within each byte; unused trailing
bits of the final byte are zero.

Codewords are packed block by block (``pack_codes``), as fast integer
codecs write bits: a coder's ``codeword`` function turns ``PACK_TOKENS``
tokens at a time into codes and lengths, so working memory is bounded by
one block, as decoding is bounded by one chunk. In a block, a ``cumsum``
of the lengths gives each code's start bit, counted on from the bits the
blocks before left in the open word; the code, left-aligned, is shifted
to its offset in the word where it starts, and the codes sharing a word
are OR-ed together by one ``bitwise_or.reduceat``. The low bits of a code
that crosses into the next word go there in one scatter. The block's
first word is OR-ed onto the open word, its whole words are written
big-endian, and its last partial word stays open for the next block, so
no per-bit array is ever built.

Prefix codes decode chunk by chunk (``decode_chunks``). For each chunk of
``CHUNK_BITS`` positions the driver makes the byte windows and the
``PEEK_BITS`` bits at every position (``peek_bits``), from which a coder
computes with numpy how many bits a codeword starting there would spend,
mostly by one table lookup. The true codeword starts are then found by
pointer jumping (Wyllie's list ranking): the next-start table is squared
``JUMP_ROUNDS`` times, Python walks only every 2^JUMP_ROUNDS-th start, and
2^JUMP_ROUNDS - 1 gathers of the table on those starts recover the ones
between. A codeword ends where the next starts, so the driver bounds the
stream once, at the chunk's last codeword, before the coder decodes the
codewords at the starts in one gather. Each chunk sees ``LOOKAHEAD_BITS``
past its last position, enough for the longest codeword and a 64-bit field
window, so per-position arrays are sized by the chunk, not the payload:
working memory stays a few MB at any payload size.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import FormatError, TruncatedStreamError

CHUNK_BITS = 1 << 16
# Tokens per packing block: the fastest of 2^12 .. 2^15 on long-entropy
# streams of 100k tokens.
PACK_TOKENS = 1 << 13
LOOKAHEAD_BITS = 128
PEEK_BITS = 12
JUMP_ROUNDS = 3
# The longest prefix of a 2k+1-bit codeword: pack_codes writes at most 64 bits.
MAX_PREFIX = 31
_SEGMENT_BITS = CHUNK_BITS + LOOKAHEAD_BITS
# A segment carries 16 bytes past its last bit and the buffer 32 bytes past
# the payload, so every 64-bit window a decoder reads lies inside it.
_SEGMENT_BYTES = _SEGMENT_BITS // 8 + 16
_PAD_BYTES = 32
# The PEEK_BITS bits at bit offset o of a byte are the top 32 bits of its
# 64-bit word >> (32 - PEEK_BITS - o).
_PEEK_SHIFTS = np.arange(32 - PEEK_BITS, 24 - PEEK_BITS, -1, dtype=np.uint32)
_PEEK_MASK = np.uint32((1 << PEEK_BITS) - 1)
# Leading zeros of each PEEK_BITS-bit value (PEEK_BITS for zero); read
# backwards, leading ones.
_ZERO_RUN = (PEEK_BITS - np.frexp(np.arange(1 << PEEK_BITS, dtype=np.float64))[1]).astype(np.int8)
# Bits read where a prefix runs past the peek: any allowed prefix, then its
# stop bit, fits in them.
_LONG_PREFIX_BITS = 57


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


def pack_codes(values, codeword: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]) -> BitStream:
    """Concatenate the codewords of ``values`` into one bit stream.

    ``codeword(block)`` maps a slice of at most ``PACK_TOKENS`` values to
    (codes, lengths): ``codes[i]`` holds the codeword value in its low
    ``lengths[i]`` bits, and lengths must be in [1, 64].
    """
    out = io.BytesIO()
    carry, used = np.uint64(0), 0  # the open word and its bits in use
    for at in range(0, len(values), PACK_TOKENS):
        codes, lengths = codeword(values[at : at + PACK_TOKENS])
        codes = codes.astype(np.uint64, copy=False)
        lengths = lengths.astype(np.int64, copy=False)
        if int(lengths.min()) < 1 or int(lengths.max()) > 64:
            raise ValueError("codeword lengths must be in [1, 64]")
        ends = np.cumsum(lengths)
        ends += used
        total = int(ends[-1])
        starts = ends - lengths
        word = starts >> 6
        offset = (starts & 63).astype(np.uint64)
        # Left-align each code (shift 0..63), then move it to its bit offset in
        # the word where it starts (shift 0..63): bits past the word fall off.
        aligned = codes << (np.uint64(64) - lengths.astype(np.uint64))
        high = aligned >> offset
        words = np.zeros((total >> 6) + 1, dtype=np.uint64)  # the last one stays open
        # Starts are sorted, so the codes sharing a word are contiguous.
        first = np.flatnonzero(np.concatenate(([True], word[1:] != word[:-1])))
        words[word[first]] = np.bitwise_or.reduceat(high, first)
        # The bits that fell off go to the top of the next word. Only a code
        # with offset >= 1 can cross (shift 1..63), and at most one code crosses
        # each boundary, so the scatter indices are unique.
        cross = np.flatnonzero(ends > (word + 1) << 6)
        words[word[cross] + 1] |= aligned[cross] << (np.uint64(64) - offset[cross])
        words[0] |= carry
        full, used = total >> 6, total & 63
        out.write(words[:full].astype(">u8"))
        carry = words[full]
    nbits = 8 * out.tell() + used
    out.write(int(carry).to_bytes(8, "big")[: (used + 7) >> 3])
    return BitStream(out.getvalue(), nbits)


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


def peek_bits(words: np.ndarray, limit: int) -> np.ndarray:
    """The ``PEEK_BITS`` bits starting at each of bit positions 0 .. limit-1.

    ``words`` comes from ``byte_windows``; the result is uint32.
    """
    # One row of 8 copies of each byte's top 32 bits, shifted in place.
    top = (words[: (limit + 7) >> 3] >> np.uint64(32)).astype(np.uint32)
    peek = np.repeat(top, 8).reshape(top.size, 8)
    peek >>= _PEEK_SHIFTS
    peek &= _PEEK_MASK
    return peek.ravel()[:limit]


# step(words, peek) -> (lengths, finish), on the driver's ``byte_windows``
# and ``peek_bits`` of a chunk from a byte-aligned base bit. ``lengths[j]``
# >= 1, for j < peek.size, is the number of bits a codeword starting at bit
# j spends, so the next one starts at j + lengths[j]. ``finish(starts)``
# validates the codewords at those starts, already bounded by the stream,
# including positions that hold no valid codeword, and returns their values.
Step = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]]


def _codeword_starts(lengths: np.ndarray, first: int, limit: int) -> np.ndarray:
    """Starts below ``limit`` of the codewords following each other from ``first``.

    ``hop[j]`` is the next start after j, clipped to ``limit``, which maps to
    itself. Squaring ``hop`` JUMP_ROUNDS times gives the start 2^JUMP_ROUNDS
    codewords on, so Python walks only every 2^JUMP_ROUNDS-th start; ``hop``
    gathers on those lanes give the starts between. Once a lane reaches
    ``limit`` it stays there, so the starts come out sorted.
    """
    hop = np.arange(limit + 1, dtype=np.int32)
    hop[:limit] += lengths
    np.minimum(hop, limit, out=hop)
    far = hop
    for _ in range(JUMP_ROUNDS):
        far = far.take(far)
    jumps = memoryview(far)
    lane = []
    append = lane.append
    p = first
    while p < limit:
        append(p)
        p = jumps[p]
    lanes = np.empty((1 << JUMP_ROUNDS, len(lane)), dtype=np.int32)
    lanes[0] = lane
    for r in range(1, 1 << JUMP_ROUNDS):
        hop.take(lanes[r - 1], out=lanes[r])
    starts = lanes.T.ravel()
    return starts[: np.searchsorted(starts, limit)].astype(np.intp)


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
        limit = min(nbits - base, CHUNK_BITS)
        words = byte_windows(buf[base >> 3 : (base >> 3) + _SEGMENT_BYTES])
        lengths, finish = step(words, peek_bits(words, limit))
        starts = _codeword_starts(lengths, pos - base, limit)[: count - done]
        last = int(starts[-1])
        pos = base + last + int(lengths[last])
        if pos > nbits:
            raise TruncatedStreamError("truncated stream")
        out[done : done + starts.size] = finish(starts)
        done += starts.size
    return out


def decode_prefix_codes(
    stream: BitStream | bytes,
    count: int,
    stop_bit: int,
    value: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Decode codewords of k prefix bits, a stop bit, then k suffix bits.

    The prefix bits are the complement of ``stop_bit``, so a codeword spends
    2k+1 bits. ``value(k, suffix)`` maps each codeword's prefix length and
    suffix (uint64) to its decoded value. A prefix longer than
    ``MAX_PREFIX``, a codeword no encoder can write, raises ``FormatError``.

    The prefix length at each position is one lookup of its ``PEEK_BITS``
    bits; only where all of them are prefix bits is a 57-bit field read.
    A prefix of 57 bits or more is recorded as 57.
    """
    run = _ZERO_RUN if stop_bit else _ZERO_RUN[::-1]
    flip = np.uint64(0 if stop_bit else (1 << _LONG_PREFIX_BITS) - 1)

    def step(words: np.ndarray, peek: np.ndarray):
        k = run.take(peek)
        longer = np.flatnonzero(k == PEEK_BITS)
        if longer.size:
            field = read_fields(words, longer, np.uint64(_LONG_PREFIX_BITS)) ^ flip
            k[longer] = _LONG_PREFIX_BITS - bit_length_u64(field)

        def finish(starts: np.ndarray) -> np.ndarray:
            ks = k[starts].astype(np.int64)
            if int(ks.max()) > MAX_PREFIX:
                raise FormatError(f"codeword prefix longer than {MAX_PREFIX} bits")
            return value(ks, read_fields(words, starts + ks + 1, ks))

        return 2 * k + 1, finish

    return decode_chunks(stream, count, step)
