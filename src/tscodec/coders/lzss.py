"""LZSS sliding-window dictionary coder.

Byte-oriented and type-agnostic: window 4096 bytes, lookahead 18 bytes,
minimum match 3. Tokens are grouped 8 per flag byte, flag bits consumed
MSB-first, bit 1 = literal byte, bit 0 = match. A match is two bytes
holding a 12-bit distance-1 and a 4-bit length-3:

    byte0 = (distance-1) >> 4
    byte1 = ((distance-1) & 0xF) << 4 | (length-3)

A match never replaces a sequence shorter than itself, so worst-case
output is m*9/8 + 1 bytes for m incompressible input bytes.

The encoder is greedy: at each token it searches up to ``MAX_CHAIN``
earlier positions with the same first 3 bytes, nearest first, and takes
the longest match (the nearest on ties). Its Python loop runs only where a
match starts:

- Links come from one sort. Every position with 3 bytes left has its
  3-byte key, so the previous position with the same key is its
  predecessor in the keys sorted by (key, position).
- A position is a literal exactly when that predecessor lies outside the
  window: any same-key candidate inside it already matches 3 bytes. A
  reversed ``minimum.accumulate`` gives the next position that can start
  a match, so literal runs are skipped whole.
- numpy assembles the stream from the (start, length, distance) of each
  match: token order, 1 or 2 bytes per token, and a flag byte per 8 tokens.

The output is byte for byte that of a position-at-a-time encoder with a
hash-chain dict, which ``tests/oracles.py`` keeps for differential tests.

The decoder's Python loop runs once per flag group: the next group starts
17 - popcount(flag byte) bytes on. It finds ``BLOCK_GROUPS`` groups at a
time, and numpy decodes them: every token's stream offset, length,
distance and output start. Each output byte of the block points at the
byte its match copies, or at itself in a literal. A match reaches back at
most ``WINDOW`` bytes, so the block's pointers stay within it and the
``WINDOW`` bytes before it, which are already resolved. Pointer jumping
(Wyllie's list ranking) resolves every byte to a literal or window byte in
log2(longest copy chain) rounds, and one gather builds the block. Working
memory is thus bounded by the block, at most 16,384 tokens and 294,912
output bytes, plus the input and the output. It returns and raises exactly
what the token-at-a-time decoder in ``tests/oracles.py`` does.
"""

from __future__ import annotations

import numpy as np

from ..errors import FormatError, TruncatedStreamError

WINDOW = 4096
MIN_MATCH = 3
MAX_MATCH = 18
MAX_CHAIN = 64  # candidate positions examined per match search
BLOCK_GROUPS = 2048  # flag groups decoded at a time
# Bytes from a group's flag byte to the next group's: the flag byte, 1 per
# literal (flag bit 1) and 2 per match.
_GROUP_BYTES = bytes(17 - bin(flags).count("1") for flags in range(256))


def _links(buf: np.ndarray) -> tuple[list[int], list[int]]:
    """Previous same-key position, and the next position that starts a match.

    Position i has a key (its 3 bytes) when i + 3 <= n. ``prev[i]`` is the
    nearest earlier position with the same key, or -1. ``after[i]`` is the
    first j >= i whose ``prev[j]`` lies inside the window, or n.
    """
    n = buf.size
    prev = np.full(n + 1, -1, dtype=np.int64)
    if n >= MIN_MATCH:
        # Sorting (key, position) pairs packed in one int64 gives the order
        # of a stable sort of the keys, and sorts faster than argsort.
        b = buf.astype(np.int64)
        pairs = (b[:-2] | (b[1:-1] << 8) | (b[2:] << 16)) << 32 | np.arange(n - 2)
        pairs.sort()
        order = pairs & 0xFFFFFFFF
        same = (pairs[1:] >> 32) == (pairs[:-1] >> 32)
        prev[order[1:][same]] = order[:-1][same]
    pos = np.arange(n + 1)
    start = np.where((prev >= 0) & (pos - prev <= WINDOW), pos, n)
    after = np.minimum.accumulate(start[::-1])[::-1]
    return prev.tolist(), after.tolist()


def compress(data: bytes) -> bytes:
    n = len(data)
    buf = np.frombuffer(data, dtype=np.uint8)
    prev, after = _links(buf)
    found: list[int] = []  # start, length, distance of each match
    i = after[0]
    while i < n:
        limit = n - i if n - i < MAX_MATCH else MAX_MATCH
        here = int.from_bytes(data[i : i + limit], "big")
        best_len = 0
        best_dist = 0
        cand = prev[i]
        tries = MAX_CHAIN
        while cand >= 0 and i - cand <= WINDOW and tries > 0:
            if best_len == limit:
                break
            # Cheap reject: a longer match must extend past best_len.
            if data[cand + best_len] == data[i + best_len]:
                diff = here ^ int.from_bytes(data[cand : cand + limit], "big")
                ln = limit - ((diff.bit_length() + 7) >> 3)
                if ln > best_len:
                    best_len = ln
                    best_dist = i - cand
            cand = prev[cand]
            tries -= 1
        found += (i, best_len, best_dist)
        i = after[i + best_len]
    starts, lens, dists = np.array(found, dtype=np.int64).reshape(-1, 3).T
    # Token positions: each literal and each match start.
    mark = np.zeros(n + 1, dtype=np.int64)
    mark[starts + 1] = 1
    mark[starts + lens] = -1
    tok = np.flatnonzero(np.cumsum(mark[:n]) == 0)
    match = np.searchsorted(tok, starts)
    literal = np.ones(tok.size, dtype=bool)
    literal[match] = False
    # before[t]: token bytes ahead of token t. Token t follows them and
    # the flag bytes of groups 0 .. t // 8; group g's flag byte sits at
    # before[8g] + g.
    before = np.zeros(tok.size + 1, dtype=np.int64)
    np.cumsum(2 - literal, out=before[1:])
    flags = np.packbits(literal)
    at = before[:-1] + (np.arange(tok.size) >> 3) + 1
    out = np.empty(int(before[-1]) + flags.size, dtype=np.uint8)
    out[at[literal]] = buf[tok[literal]]
    d = dists - 1
    out[at[match]] = d >> 4
    out[at[match] + 1] = ((d & 0xF) << 4) | (lens - MIN_MATCH)
    out[before[:-1:8] + np.arange(flags.size)] = flags
    return out.tobytes()


def decompress(data: bytes, expected_size: int | None = None) -> bytes:
    """Decode tokens until the data ends, or until ``expected_size`` bytes.

    A match cut short, or an output other than ``expected_size`` bytes,
    raises ``TruncatedStreamError``; a match reaching before the start of
    the output raises ``FormatError``.
    """
    n = len(data)
    step = data.translate(_GROUP_BYTES)
    buf = np.zeros(n + 2, dtype=np.uint8)
    buf[:n] = np.frombuffer(data, dtype=np.uint8)
    blocks = []
    window = buf[:0]  # the last WINDOW output bytes, resolved
    total = 0
    p = 0  # the next group's flag byte
    while p < n:
        groups = []
        for _ in range(BLOCK_GROUPS):
            groups.append(p)
            p += step[p]
            if p >= n:
                break
        heads = np.array(groups, dtype=np.int64)
        lit = np.unpackbits(buf[heads]).reshape(-1, 8).astype(bool)
        # A token's stream offset: its group's start, the flag byte and the
        # tokens before it in the group.
        size = 2 - lit.astype(np.int64)
        off = np.cumsum(size, axis=1) - size + heads[:, None] + 1
        # Offsets rise token by token; tokens at or past the end do not exist.
        ntok = int(np.searchsorted(off.ravel(), n))
        lit, off = lit.ravel()[:ntok], off.ravel()[:ntok]
        b0 = buf[off].astype(np.int64)
        b1 = buf[off + 1].astype(np.int64)
        length = np.where(lit, 1, (b1 & 0xF) + MIN_MATCH)
        dist = np.where(lit, 0, ((b0 << 4) | (b1 >> 4)) + 1)
        start = np.cumsum(length) - length  # from the block's first output byte
        if expected_size is not None:
            # Decoding stops before the first token that starts at the size.
            ntok = int(np.searchsorted(start, expected_size - total))
        # Only the last token can be a match cut short.
        cut = ntok > 0 and not lit[ntok - 1] and off[ntok - 1] + 2 > n
        ntok -= cut
        lit, off, length, dist, start = lit[:ntok], off[:ntok], length[:ntok], dist[:ntok], start[:ntok]
        if ntok and int((dist - start).max()) > total:
            raise FormatError("invalid back-reference")
        if cut:
            raise TruncatedStreamError("truncated stream")
        if not ntok:
            break
        # A frame of the window, then the block. Window bytes point at
        # themselves; a take over the whole frame is faster than gathering
        # and scattering only the pending bytes.
        w = window.size
        ptr = np.arange(w + int(start[-1] + length[-1]))
        ptr[w:] -= np.repeat(dist, length)
        while True:
            hop = ptr.take(ptr)
            if np.array_equal(hop, ptr):
                break
            ptr = hop
        frame = np.empty(ptr.size, dtype=np.uint8)  # match bytes are never sources
        frame[:w] = window
        at = np.flatnonzero(lit)
        frame[w + start[at]] = buf[off[at]]
        frame = frame.take(ptr)
        blocks.append(frame[w:])
        window = frame[-WINDOW:]
        total += frame.size - w
    if expected_size is not None and total != expected_size:
        raise TruncatedStreamError("truncated stream")
    return b"".join(blocks)
