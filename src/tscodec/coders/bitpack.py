"""Block bit packing for non-negative integers.

Each block of ``BLOCK_SIZE`` = 128 values is stored as one width byte w
(the bit length of the block maximum, 0..32) followed by 16*w bytes of
w-bit values packed MSB-first. A final short block packs only its true
count, in ceil(count*w/8) bytes; the caller supplies the total count on
decode. The block size is part of the format, as in SIMD-BP128, so a
container records none. Signed inputs go through zigzag before reaching
this coder.

Value j of a block starts at bit j*w, so the blocks of one width share a
bit layout, which both directions apply to all of them at once on 64-bit
words (as in SIMD-BP128, arXiv:1209.2137). The encoder packs words as
``bitio.pack_codes`` packs each of its blocks: the values, left-aligned
and shifted to their offsets, are OR-ed together by one ``reduceat``, and
the low bits of a value that crosses a word go there in one scatter. The
decoder reads value j as the big-endian 64-bit window at byte j*w >> 3 of
its block, shifted right by 64 - w - (j*w & 7) and masked; w <= 32 keeps
each field inside one window.
A loop over the width bytes finds every block before the output is
allocated, so a corrupt count cannot trigger a huge allocation; blocks of
one width then unpack ``_SLAB_BLOCKS`` at a time: besides the output and a
zero-padded copy of the payload, the temporaries stay a few MB.
"""

from __future__ import annotations

import functools

import numpy as np

from ..core import as_samples
from ..errors import FormatError, TruncatedStreamError
from .bitio import bit_length_u64, byte_windows

BLOCK_SIZE = 128
MAX_WIDTH = 32
_SLAB_BLOCKS = 512
# Bytes spanned by a full block of each width, width byte included.
_BLOCK_BYTES = tuple(1 + BLOCK_SIZE * w // 8 for w in range(MAX_WIDTH + 1))


@functools.lru_cache(maxsize=MAX_WIDTH + 1)
def _block_layout(w: int) -> tuple:
    """Read-only bit layout of a block of w-bit values, made once per width.

    To pack, per value, its offset in the word where it starts; the values
    that open a word (one opens every word up to the last); and the values
    that cross into the next word, that word and the shift of their low
    bits. To unpack, per value, its window's byte and right shift.
    """
    bit = np.arange(BLOCK_SIZE, dtype=np.int64) * w
    offset = (bit & 63).astype(np.uint64)
    cross = np.flatnonzero(offset > 64 - w)
    layout = (offset, np.flatnonzero(offset < w), cross, (bit[cross] >> 6) + 1, 64 - offset[cross])
    layout += (bit >> 3, (64 - w - (bit & 7)).astype(np.uint64))
    for a in layout:
        a.flags.writeable = False
    return layout


def encode(values) -> bytes:
    v = as_samples(values)
    if v.size == 0:
        return b""
    n = v.size
    nblocks = -(-n // BLOCK_SIZE)
    pad = nblocks * BLOCK_SIZE - n
    padded = np.concatenate([v, np.zeros(pad, dtype=v.dtype)]) if pad else v
    blocks = padded.reshape(nblocks, BLOCK_SIZE)
    # Unsigned block maxima carry both value rules: read as uint64, a
    # negative value is at least 2**63, so its block is too wide as well.
    widths = bit_length_u64(blocks.view(np.uint64).max(axis=1))
    widest = int(widths.max())
    if widest > MAX_WIDTH:
        if int(v.min()) < 0:
            raise ValueError("bit packing requires non-negative values")
        raise ValueError("value wider than 32 bits")
    sizes = np.take(_BLOCK_BYTES, widths)
    sizes[-1] = 1 + ((BLOCK_SIZE - pad) * widths[-1] + 7) // 8
    nw = 2 * widest
    words = np.zeros((nblocks, nw), dtype=np.uint64)
    for w in np.flatnonzero(np.bincount(widths)).tolist():
        if w:
            offset, first, cross, cross_word, cross_shift, _, _ = _block_layout(w)
            idx = np.flatnonzero(widths == w)
            aligned = blocks.take(idx, axis=0).view(np.uint64) << np.uint64(64 - w)
            words[idx, : first.size] = np.bitwise_or.reduceat(aligned >> offset, first, axis=1)
            words[idx[:, None], cross_word] |= aligned[:, cross] << cross_shift
    # Each block's width byte and words, cut to its byte count; a short last
    # block packs as a full one, whose zero padding falls past its cut.
    framed = np.empty((nblocks, 1 + 8 * nw), dtype=np.uint8)
    framed[:, 0] = widths
    framed[:, 1:] = words.astype(">u8").view(np.uint8)
    return framed[np.arange(1 + 8 * nw) < sizes[:, None]].tobytes()


def decode(data: bytes, count: int) -> np.ndarray:
    nblocks = -(-count // BLOCK_SIZE)
    last_take = count - (nblocks - 1) * BLOCK_SIZE
    widths, starts, pos = [], [], 0
    for _ in range(nblocks):
        if pos >= len(data):
            raise TruncatedStreamError("truncated stream")
        w = data[pos]
        if w > MAX_WIDTH:
            raise FormatError("corrupt block header")
        widths.append(w)
        starts.append(pos + 1)
        pos += _BLOCK_BYTES[w]
    if last_take < BLOCK_SIZE:
        pos += 1 + (last_take * w + 7) // 8 - _BLOCK_BYTES[w]
    if pos > len(data):
        raise TruncatedStreamError("truncated stream")
    # Window i holds bytes i..i+7 of the payload, padded with zeros so that a
    # short last block unpacks as a full one; values past ``count`` are dropped.
    buf = np.zeros(len(data) + 4 * BLOCK_SIZE + 7, dtype=np.uint8)
    buf[: len(data)] = np.frombuffer(data, dtype=np.uint8)
    windows = byte_windows(buf)
    widths = np.array(widths, dtype=np.int64)
    starts = np.array(starts)
    out = np.zeros(nblocks * BLOCK_SIZE, dtype=np.int64)
    blocks = out.reshape(nblocks, BLOCK_SIZE)
    for w in np.flatnonzero(np.bincount(widths)).tolist():
        if w:
            *_, byte, shift = _block_layout(w)
            idx = np.flatnonzero(widths == w)
            for s in range(0, idx.size, _SLAB_BLOCKS):
                slab = idx[s : s + _SLAB_BLOCKS]
                fields = windows.take(starts[slab, None] + byte) >> shift
                blocks[slab] = fields & np.uint64((1 << w) - 1)
    return out[:count]
