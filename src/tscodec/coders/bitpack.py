"""Block bit packing for non-negative integers.

Each block of ``block_size`` values is stored as one width byte w (the bit
length of the block maximum, 0..32) followed by ceil(count*w/8) bytes of
w-bit values packed MSB-first. A final short block packs only its true
count; the caller supplies the total count on decode. Signed inputs go
through zigzag before reaching this coder.

Value j of a block starts at bit j*w, so the blocks of one width share a
bit layout, which both directions apply to all of them at once on 64-bit
words (as in SIMD-BP128, arXiv:1209.2137). The encoder packs words as
``bitio.pack_codes`` does. The decoder reads value j as the big-endian
64-bit window at byte j*w >> 3 of its block, shifted right by
64 - w - (j*w & 7) and masked; w <= 32 keeps each field inside one window.
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

DEFAULT_BLOCK_SIZE = 128
MAX_WIDTH = 32
_SLAB_BLOCKS = 512


@functools.lru_cache(maxsize=MAX_WIDTH + 1)
def _word_layout(size: int, w: int) -> tuple:
    """Read-only word layout of ``size`` w-bit values, made once per width.

    Per value, its offset in the word where it starts; the values that open
    a word (one opens every word up to the last); and the values that cross
    into the next word, that word and the shift of their low bits.
    """
    bit = np.arange(size, dtype=np.int64) * w
    offset = (bit & 63).astype(np.uint64)
    cross = np.flatnonzero(offset > 64 - w)
    layout = (offset, np.flatnonzero(offset < w), cross, (bit[cross] >> 6) + 1, 64 - offset[cross])
    for a in layout:
        a.flags.writeable = False
    return layout


def encode(values, block_size: int = DEFAULT_BLOCK_SIZE) -> bytes:
    v = as_samples(values)
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    if v.size == 0:
        return b""
    if int(v.min()) < 0:
        raise ValueError("bit packing requires non-negative values")
    if int(v.max()) >> MAX_WIDTH:
        raise ValueError("value wider than 32 bits")
    n = v.size
    nblocks = (n + block_size - 1) // block_size
    pad = nblocks * block_size - n
    padded = np.concatenate([v, np.zeros(pad, dtype=v.dtype)]) if pad else v
    blocks = padded.reshape(nblocks, block_size)
    widths = bit_length_u64(blocks.max(axis=1))
    sizes = 1 + (block_size * widths + 7) // 8
    sizes[-1] = 1 + ((n - (nblocks - 1) * block_size) * widths[-1] + 7) // 8
    nw = (block_size * int(widths.max()) + 63) >> 6
    words = np.zeros((nblocks, nw), dtype=np.uint64)
    for w in np.unique(widths).tolist():
        if w:
            offset, first, cross, cross_word, cross_shift = _word_layout(block_size, w)
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


def decode(data: bytes, count: int, block_size: int = DEFAULT_BLOCK_SIZE) -> np.ndarray:
    nblocks = -(-count // block_size)
    last_take = count - (nblocks - 1) * block_size
    # Bytes spanned by a full block of each width, width byte included.
    step = [1 + (block_size * w + 7) // 8 for w in range(MAX_WIDTH + 1)]
    widths, starts, pos = [], [], 0
    for _ in range(nblocks):
        if pos >= len(data):
            raise TruncatedStreamError("truncated stream")
        w = data[pos]
        if w > MAX_WIDTH:
            raise FormatError("corrupt block header")
        widths.append(w)
        starts.append(pos + 1)
        pos += step[w]
    if last_take < block_size:
        pos += 1 + (last_take * w + 7) // 8 - step[w]
    if pos > len(data):
        raise TruncatedStreamError("truncated stream")
    # Window i holds bytes i..i+7 of the payload, padded with zeros so that a
    # short last block unpacks as a full one; values past ``count`` are dropped.
    buf = np.zeros(len(data) + 4 * block_size + 7, dtype=np.uint8)
    buf[: len(data)] = np.frombuffer(data, dtype=np.uint8)
    windows = byte_windows(buf)
    widths = np.array(widths)
    starts = np.array(starts)
    out = np.zeros(nblocks * block_size, dtype=np.int64)
    blocks = out.reshape(nblocks, block_size)
    for w in np.unique(widths).tolist():
        if w:
            bit = np.arange(block_size, dtype=np.int64) * w
            shift = (64 - w - (bit & 7)).astype(np.uint64)
            idx = np.flatnonzero(widths == w)
            for s in range(0, idx.size, _SLAB_BLOCKS):
                slab = idx[s : s + _SLAB_BLOCKS]
                fields = windows.take(starts[slab, None] + (bit >> 3)) >> shift
                blocks[slab] = fields & np.uint64((1 << w) - 1)
    return out[:count]
