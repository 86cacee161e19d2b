"""Block bit packing for non-negative integers.

Each block of ``block_size`` values is stored as one width byte w (the bit
length of the block maximum, 0..32) followed by ceil(count*w/8) bytes of
w-bit values packed MSB-first. A final short block packs only its true
count; the caller supplies the total count on decode. Signed inputs go
through zigzag before reaching this coder.

Decoding scans the width bytes in a short loop to find every block's
offset, then unpacks full blocks that share a width in vectorized steps of
up to ``_SLAB_BLOCKS`` blocks, mirroring the encoder; the slab bounds the
unpacking temporaries to a few MB. The scan reaches the end of the data
before the output is allocated, so a corrupt count cannot trigger a huge
allocation.
"""

from __future__ import annotations

import numpy as np

from ..core import as_samples
from ..errors import FormatError, TruncatedStreamError
from .bitio import bit_length_u64

DEFAULT_BLOCK_SIZE = 128
MAX_WIDTH = 32
_SLAB_BLOCKS = 512


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
    counts = np.full(nblocks, block_size, dtype=np.int64)
    counts[-1] = n - (nblocks - 1) * block_size
    payload_sizes = (counts * widths + 7) // 8
    offsets = np.zeros(nblocks + 1, dtype=np.int64)
    np.cumsum(1 + payload_sizes, out=offsets[1:])
    out = np.zeros(int(offsets[-1]), dtype=np.uint8)
    out[offsets[:-1]] = widths
    # Blocks sharing a width pack in one vectorized shot; packbits pads
    # each row to a byte boundary, matching the per-block payload layout.
    for w in np.unique(widths).tolist():
        if w == 0:
            continue
        idx = np.flatnonzero((widths == w) & (counts == block_size))
        if idx.size:
            bits = np.unpackbits(
                blocks[idx].astype(">u4").view(np.uint8).reshape(idx.size, -1), axis=1
            ).reshape(idx.size, block_size, 32)[:, :, 32 - w :]
            packed = np.packbits(bits.reshape(idx.size, -1), axis=1)
            pos = offsets[idx][:, None] + 1 + np.arange(packed.shape[1])[None, :]
            out[pos.ravel()] = packed.ravel()
    if int(widths[-1]) and counts[-1] != block_size:
        w = int(widths[-1])
        blk = v[(nblocks - 1) * block_size :]
        bits = np.unpackbits(blk.astype(">u4").view(np.uint8).reshape(-1, 4), axis=1)[:, 32 - w :]
        packed = np.packbits(bits)
        out[offsets[-2] + 1 : offsets[-1]] = packed
    return out.tobytes()


def _unpack(buf: np.ndarray, starts: np.ndarray, take: int, w: int) -> np.ndarray:
    """``take`` w-bit values packed MSB-first from each of ``starts``."""
    raw = buf[starts[:, None] + np.arange((take * w + 7) // 8)]
    bits = np.unpackbits(raw, axis=1, count=take * w).reshape(starts.size, take, w)
    wide = np.zeros((starts.size, take, 32), dtype=np.uint8)
    wide[:, :, 32 - w :] = bits
    return np.packbits(wide, axis=2).view(">u4").reshape(starts.size, take)


def decode(data: bytes, count: int, block_size: int = DEFAULT_BLOCK_SIZE) -> np.ndarray:
    nblocks = -(-count // block_size)
    last_take = count - (nblocks - 1) * block_size
    widths = []
    starts = []
    pos = 0
    for b in range(nblocks):
        if pos >= len(data):
            raise TruncatedStreamError("truncated stream")
        w = data[pos]
        if w > MAX_WIDTH:
            raise FormatError("corrupt block header")
        widths.append(w)
        starts.append(pos + 1)
        pos += 1 + ((block_size if b < nblocks - 1 else last_take) * w + 7) // 8
    if pos > len(data):
        raise TruncatedStreamError("truncated stream")
    out = np.zeros(count, dtype=np.int64)
    buf = np.frombuffer(data, dtype=np.uint8)
    widths = np.array(widths)
    starts = np.array(starts)
    full = count // block_size
    blocks = out[: full * block_size].reshape(full, block_size)
    for w in np.unique(widths[:full]).tolist():
        if w:
            idx = np.flatnonzero(widths[:full] == w)
            for s in range(0, idx.size, _SLAB_BLOCKS):
                slab = idx[s : s + _SLAB_BLOCKS]
                blocks[slab] = _unpack(buf, starts[slab], block_size, w)
    if full < nblocks and widths[-1]:
        out[full * block_size :] = _unpack(buf, starts[-1:], last_take, int(widths[-1]))[0]
    return out
