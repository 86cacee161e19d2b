"""Block bit packing for non-negative integers.

Each block of ``BLOCK_SIZE`` = 128 values is stored as one width byte w
(the bit length of the block maximum, 0..32) followed by 16*w bytes of
w-bit values packed MSB-first. A final short block packs only its true
count, in ceil(count*w/8) bytes; the caller supplies the total count on
decode. The block size is part of the format, as in SIMD-BP128, so a
container records none. Signed inputs go through zigzag before reaching
this coder.

Value j of a block starts at bit j*w, so the blocks of one width share a
bit layout, which both directions apply on 64-bit words (as in SIMD-BP128,
arXiv:1209.2137). The encoder's layout lists each
value once, in the word where it starts, and a value that crosses into
the next word a second time, first in that word. Each entry shifts its
value left, then right, so that only its part in the word stays, at its
place: one ``take``, two shifts and one ``bitwise_or.reduceat`` give the
2w words of every block of width w. The words go straight into the
payload through ``bitio.byte_windows`` of the output buffer: a block's
words are disjoint 8-byte windows between its width byte and the next
block's, and the width bytes go in with one scatter. Full blocks are
read from views of the input, ``_SLAB_BLOCKS`` at a time; only a short
last block is copied, into a zero-padded row, and packs on its own as a
full one whose padding is cut off the end. Besides the input, the payload
(held twice, as it is built and as it is returned) and a few bytes per
block, the encoder holds one slab's temporaries, under 2 MB.

The decoder reads value j as the big-endian 64-bit window at byte j*w >> 3 of
its block, shifted right by 64 - w - (j*w & 7) and masked; w <= 32 keeps
each field inside one window. The windows come from the zero-padded copy
of the payload that the decoder makes anyway, reversed a word at a time
and read as little-endian words, so a gather yields native words and no
field is byte-swapped. A walk over the width bytes finds every block before the
output is allocated, so a corrupt count cannot trigger a huge allocation:
each width byte indexes ``_STEP``, the bytes its block spans. The walk
raises where it reads, in the order of a block-by-block check: a width
byte past the payload is an ``IndexError``, a truncated stream, and an
invalid width's step is None, whose ``TypeError`` is a corrupt header.
Blocks then unpack in order, ``_SLAB_BLOCKS`` at a time,
straight into the output: each block takes the row of its width from
tables of every value's window byte and shift and of each width's mask.
Besides the output and the payload copy, the temporaries stay a few MB.
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
# The same for every byte value; an invalid width has no step.
_STEP = _BLOCK_BYTES + (None,) * (255 - MAX_WIDTH)
# Zero bytes past the payload, so that a short last block unpacks as a full one.
_PAD = 4 * BLOCK_SIZE + 7


def _reversed_windows(data: bytes) -> np.ndarray:
    """The words of ``bitio.byte_windows`` over ``data`` and at least
    ``_PAD`` zero bytes, last first: word ``len(w) - 1 - i`` of the result
    ``w`` is the big-endian word at byte i.

    The padded copy is reversed a word at a time, the words in reverse
    order and each byte-swapped, and read as little-endian words, native
    on a little-endian host.
    """
    buf = np.zeros(-(-(len(data) + _PAD) // 8) * 8, dtype=np.uint8)
    buf[: len(data)] = np.frombuffer(data, dtype=np.uint8)
    rev = buf.view(">u8")[::-1].astype("<u8").view(np.uint8)
    return np.ndarray((rev.size - 7,), dtype="<u8", buffer=rev, strides=(1,))


@functools.cache
def _field_tables() -> tuple:
    """Row w, column j: the byte of value j's window past its block's width
    byte, and the right shift that ends the value at the window's low bit;
    then the mask of w bits. Width 0 reads the block's first window and
    keeps nothing."""
    widths = np.arange(MAX_WIDTH + 1)[:, None]
    bit = widths * np.arange(BLOCK_SIZE)
    mask = (np.uint64(1) << widths.astype(np.uint64)) - np.uint64(1)
    tables = (bit >> 3, (64 - widths - (bit & 7)).astype(np.uint64), mask)
    for a in tables:
        a.flags.writeable = False
    return tables


@functools.lru_cache(maxsize=MAX_WIDTH + 1)
def _block_layout(w: int) -> tuple:
    """Read-only bit layout of a block of w-bit values, made once per width.

    Per entry, the value it takes and its left and right shift, entries
    sorted by word; the first entry of each word; and each word's byte
    offset in the block. A crossing value's low bits go to the top of the
    next word.
    """
    bit = np.arange(BLOCK_SIZE, dtype=np.int64) * w
    word, offset = bit >> 6, bit & 63
    cross = np.flatnonzero(offset > 64 - w)
    target = np.concatenate([word[cross] + 1, word])
    order = np.argsort(target, kind="stable")
    take = np.concatenate([cross, np.arange(BLOCK_SIZE)])[order]
    left = np.concatenate([128 - w - offset[cross], np.full(BLOCK_SIZE, 64 - w)])[order].astype(np.uint64)
    right = np.concatenate([np.zeros(cross.size, dtype=np.int64), offset])[order].astype(np.uint64)
    first = np.searchsorted(target[order], np.arange(2 * w))
    layout = (take, left, right, first, np.arange(0, 16 * w, 8))
    for a in layout:
        a.flags.writeable = False
    return layout


def _pack(windows: np.ndarray, rows: np.ndarray, w: int, at: np.ndarray) -> None:
    """Write the words of ``rows``, blocks of width w as uint64, to the
    payload windows starting at the bytes ``at``."""
    take, left, right, first, word_at = _block_layout(w)
    x = rows.take(take, axis=1)
    x <<= left
    x >>= right
    windows[at[:, None] + word_at] = np.bitwise_or.reduceat(x, first, axis=1)


def encode(values) -> bytes:
    v = as_samples(values)
    if v.size == 0:
        return b""
    nfull, rest = divmod(v.size, BLOCK_SIZE)
    u = v.view(np.uint64)
    full = u[: nfull * BLOCK_SIZE].reshape(nfull, BLOCK_SIZE)
    maxima = full.max(axis=1)
    if rest:
        last = np.zeros((1, BLOCK_SIZE), dtype=np.uint64)
        last[0, :rest] = u[nfull * BLOCK_SIZE :]
        maxima = np.append(maxima, last.max())
    # Unsigned block maxima carry both value rules: read as uint64, a
    # negative value is at least 2**63, so its block is too wide as well.
    widths = bit_length_u64(maxima)
    widest = int(widths.max())
    if widest > MAX_WIDTH:
        if int(v.min()) < 0:
            raise ValueError("bit packing requires non-negative values")
        raise ValueError("value wider than 32 bits")
    # Every block is laid out full; a short last one is cut at the end.
    sizes = np.take(_BLOCK_BYTES, widths)
    at = np.cumsum(sizes) - sizes
    out = np.empty(int(at[-1] + sizes[-1]), dtype=np.uint8)
    out[at] = widths
    at += 1
    if widest:
        windows = byte_windows(out)
        full_widths = widths[:nfull]
        for s in range(0, nfull, _SLAB_BLOCKS):
            slab, slab_widths = full[s : s + _SLAB_BLOCKS], full_widths[s : s + _SLAB_BLOCKS]
            for w in np.flatnonzero(np.bincount(slab_widths)).tolist():
                if w:
                    sel = np.flatnonzero(slab_widths == w)
                    rows = slab if sel.size == len(slab) else slab.take(sel, axis=0)
                    _pack(windows, rows, w, at[s + sel])
        if rest and widths[-1]:
            _pack(windows, last, int(widths[-1]), at[-1:])
    cut = (BLOCK_SIZE - rest) * int(widths[-1]) // 8 if rest else 0
    return out[: out.size - cut].tobytes()


def decode(data: bytes, count: int) -> np.ndarray:
    nblocks = -(-count // BLOCK_SIZE)
    if nblocks <= 0:
        return np.zeros(0, dtype=np.int64)
    starts, pos = [], 0
    append = starts.append
    try:
        for _ in range(nblocks):
            append(pos)
            pos += _STEP[data[pos]]
    except IndexError:
        raise TruncatedStreamError("truncated stream") from None
    except TypeError:
        raise FormatError("corrupt block header") from None
    w = data[starts[-1]]
    last_take = count - (nblocks - 1) * BLOCK_SIZE
    if last_take < BLOCK_SIZE:
        pos += 1 + (last_take * w + 7) // 8 - _BLOCK_BYTES[w]
    if pos > len(data):
        raise TruncatedStreamError("truncated stream")
    windows = _reversed_windows(data)
    # The word at byte i of the padded payload is window ``windows.size - 1
    # - i``; a block's values start one byte past its width byte.
    first = windows.size - 2 - np.array(starts)
    widths = np.frombuffer(data, dtype=np.uint8).take(starts)
    out = np.empty(nblocks * BLOCK_SIZE, dtype=np.uint64)
    words = out.reshape(nblocks, BLOCK_SIZE)
    field_byte, field_shift, field_mask = _field_tables()
    for s in range(0, nblocks, _SLAB_BLOCKS):
        slab_widths = widths[s : s + _SLAB_BLOCKS]
        rows = words[s : s + _SLAB_BLOCKS]
        at = field_byte.take(slab_widths, axis=0)
        np.subtract(first[s : s + _SLAB_BLOCKS, None], at, out=at)
        windows.take(at, out=rows, mode="clip")  # every window lies in the copy
        rows >>= field_shift.take(slab_widths, axis=0)
        rows &= field_mask.take(slab_widths, axis=0)
    return out[:count].view(np.int64)
