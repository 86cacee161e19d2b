"""Order-0 range coder (byte-oriented carry-less arithmetic coding).

The model is a static frequency table quantized to a total mass of 2^14,
written as a header so the decoder can rebuild the exact same cumulative
intervals. The header is a ``symtable`` table whose entry field is the
quantized frequency as u16.

Coding state is the classic 32-bit low/range pair. Renormalization runs
only once the range falls below 2^24 (``TOP``): it emits the top byte once
it is settled; when the range underflows the bottom threshold the range is
clipped to the next boundary instead of carrying, which costs a fraction
of a bit on rare occasions but keeps the stream strictly byte-oriented.

Decoding is inherently sequential. Per symbol it looks the scaled target
up in a 2^14-entry slot table (slot -> symbol index) and collects symbol
indices that are mapped to symbol values once at the end. The slot table
is built per call from the header: a Python list, or for fewer tokens
than slots a uint16 ``array`` filled from numpy in one copy.

The decoder never shifts payload bytes into its code. Each shift of the
byte-at-a-time loop drops the code's top byte and appends the next
payload byte, so after ``pos`` shifts the code is payload bytes ``pos ..
pos + 3`` read big-endian: the top 32 bits of the ``bitio.byte_windows``
word at ``pos``. So a shift only counts, and each token reads its code as
``win[pos]`` from a list of those codes. The list is made ``CODE_CHUNK``
payload bytes at a time and refilled when ``pos`` runs past its end, so
it stays near 0.7 MB at any payload size. The tokens and errors are
those of the byte-at-a-time loop: its codes are the same bytes, and it
runs out of bytes exactly when a code past the last one, at position
``len(payload) - 4``, is needed, by the next token or at the end of the
last token's shifts. A single-symbol model reads no payload byte past the
first four, so it decodes as one check of the first code and one
``np.full``.
"""

from __future__ import annotations

import math
from array import array
from itertools import repeat

import numpy as np

from ..core import as_samples, token_histogram
from ..errors import FormatError, TruncatedStreamError
from .. import symtable
from .bitio import PACK_TOKENS, byte_windows

TOTAL_BITS = 14
TOTAL = 1 << TOTAL_BITS
TOP = 1 << 24
BOT = 1 << 16
MASK = (1 << 32) - 1
# Payload bytes per window of decoded codes, about 0.7 MB of boxed ints:
# larger windows decoded the long-entropy streams no faster.
CODE_CHUNK = 1 << 14
ENTRY = symtable.entry("<u2")


def quantize_counts(counts: np.ndarray, n: int) -> np.ndarray:
    """Scale positive counts to integers >= 1 summing exactly to TOTAL."""
    m = counts.size
    if m > TOTAL:
        raise ValueError("alphabet too large for the quantized model")
    q = np.maximum(1, (counts * TOTAL) // n)
    diff = TOTAL - int(q.sum())
    # One rule moves the |diff| units by which the floored sum misses TOTAL.
    # Short, each count offers one unit, ranked by largest remainder; over,
    # each offers its q - 1 units above 1, ranked by largest q. Ties go by
    # symbol order, unit j of a count is in pass j, and units move by (pass, rank).
    short = diff > 0
    rank = np.lexsort((np.arange(m), -np.where(short, counts * TOTAL - q * n, q)))
    units = np.where(short, 1, q - 1)[rank]
    passes = np.arange(int(units.sum())) - np.repeat(np.cumsum(units) - units, units)
    moved = np.repeat(rank, units)[np.argsort(passes, kind="stable")[: abs(diff)]]
    return q + np.sign(diff) * np.bincount(moved, minlength=m)


def _model_from_counts(freqs: np.ndarray):
    cum = np.concatenate(([0], np.cumsum(freqs)))
    return freqs.tolist(), cum.tolist()


def encode(values) -> tuple[bytes, bytes]:
    """Returns (header, payload)."""
    x = as_samples(values)
    if x.size == 0:
        raise ValueError("undefined on empty input")
    symbols, counts, inverse = token_histogram(x)
    freqs_q = quantize_counts(counts, x.size)
    header = symtable.write(ENTRY, symbols, freqs_q)
    freq_list, cum = _model_from_counts(freqs_q)
    out = bytearray()
    low = 0
    rng = MASK
    # Boxed PACK_TOKENS indices at a time, so working memory is one block.
    for at in range(0, inverse.size, PACK_TOKENS):
        for idx in inverse[at : at + PACK_TOKENS].tolist():
            r = rng // TOTAL
            low += r * cum[idx]
            rng = r * freq_list[idx]
            # A range of at least TOP spans a change in bit 24 or above, so its
            # top byte is unsettled and it is at least BOT: nothing to emit.
            # Below TOP, emit a settled top byte, break on an unsettled one
            # while the range is at least BOT, and clip it to the next BOT
            # boundary otherwise.
            while rng < TOP:
                if (low ^ (low + rng)) >= TOP:
                    if rng >= BOT:
                        break
                    rng = -low & (BOT - 1)
                out.append(low >> 24)
                low = (low << 8) & MASK
                rng <<= 8
    # The clipped range keeps low + range <= 2^32, so low fits in 4 bytes
    # and low >> 24 is one byte.
    out += low.to_bytes(4, "big")
    return header, bytes(out)


def parse_header(header: bytes) -> tuple[np.ndarray, np.ndarray]:
    symbols, freqs = symtable.read(ENTRY, header, "frequency table")
    if int(freqs.sum()) != TOTAL or int(freqs.min()) < 1:
        raise FormatError("corrupt model")
    return symbols, freqs


def decode(header: bytes, payload: bytes, count: int) -> np.ndarray:
    """Decode ``count`` tokens, refusing counts the payload cannot hold.

    Each token scales the range by at most ``max_freq / TOTAL``, the range
    starts below 2^32 and leaves every renormalization at or above ``BOT``,
    and each shift by 8 bits reads one payload byte. So a valid stream has
    ``count * log2(TOTAL / max_freq) <= 16 + 8 * (len(payload) - 4)``; a
    count above that, with one bit of slack, is refused before decoding.
    A single-symbol model (``max_freq == TOTAL``) costs no bits and
    decodes as one ``np.full`` in constant Python steps, so its count is
    bounded neither by the payload nor in memory until the container
    records a sample count.

    Codes come from windows of ``CODE_CHUNK`` payload bytes: after ``pos``
    shifts the code is payload bytes ``pos .. pos + 3``, so a shift moves on
    one code instead of reading a byte. The tokens and errors are those of
    reading one byte per shift, since the stream is cut exactly when a
    shift needs a byte past the payload: when a token, or the end of the
    last token's shifts, lies past the code at ``len(payload) - 4``.
    """
    symbols, freqs = parse_header(header)
    nbytes = len(payload)
    if nbytes < 4:
        raise TruncatedStreamError("truncated stream")
    if count * math.log2(TOTAL / int(freqs.max())) > 17 + 8 * (nbytes - 4):
        raise FormatError(f"token count {count} exceeds what {nbytes} payload bytes can hold")
    if freqs.size == 1:
        # One symbol: every step has low = 0 and r = MASK >> TOTAL_BITS and
        # leaves rng = r * TOTAL >= TOP, so it reads no byte and computes
        # the same target code // r.
        if count > 0 and int.from_bytes(payload[:4], "big") // (MASK >> TOTAL_BITS) >= TOTAL:
            raise FormatError("corrupt stream")
        return np.full(count, symbols[0], dtype=symbols.dtype)
    freq_list, cum = _model_from_counts(freqs)
    # m <= TOTAL symbols, so a slot's symbol index fits in 16 bits. A list
    # boxes all TOTAL slots up front; a uint16 array boxes one per token
    # and indexes slower, so it pays only for fewer tokens than slots.
    slot = np.repeat(np.arange(freqs.size, dtype=np.uint16), freqs)
    slot = array("H", slot.tobytes()) if count < TOTAL else slot.tolist()
    data = np.frombuffer(payload, dtype=np.uint8)
    last = nbytes - 4  # the position of the last code

    def codes(start: int) -> list:
        # The codes at start .. start + CODE_CHUNK - 1, up to the last, from
        # the byte windows of a copy zero-padded to hold every window.
        stop = min(start + CODE_CHUNK, last + 1)
        seg = np.zeros(stop - start + 7, dtype=np.uint8)
        held = data[start : stop + 7]
        seg[: held.size] = held
        return (byte_windows(seg) >> np.uint64(32)).tolist()

    start = pos = 0  # the window's first position, and shifts past it
    win = codes(0)
    low = 0
    rng = MASK
    indices = []
    append = indices.append
    for _ in repeat(None, count):
        try:
            code = win[pos]
        except IndexError:
            # A token shifts a few times at most: its code is in the next window.
            start += len(win)
            pos -= len(win)
            if start + pos > last:
                raise TruncatedStreamError("truncated stream") from None
            win = codes(start)
            code = win[pos]
        r = rng >> TOTAL_BITS
        dv = (code - low) // r
        if dv < 0 or dv >= TOTAL:
            raise FormatError("corrupt stream")
        idx = slot[dv]
        append(idx)
        low += r * cum[idx]
        rng = r * freq_list[idx]
        # The same renormalization as in encode; a shift moves on one code.
        while rng < TOP:
            if (low ^ (low + rng)) >= TOP:
                if rng >= BOT:
                    break
                rng = -low & (BOT - 1)
            pos += 1
            low = (low << 8) & MASK
            rng <<= 8
    if start + pos > last:
        raise TruncatedStreamError("truncated stream")
    return symbols[np.array(indices, dtype=np.intp)]
