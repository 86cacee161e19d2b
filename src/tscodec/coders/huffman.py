"""Dynamic canonical Huffman coding.

Code lengths are derived from the symbol frequencies of the input, then
canonicalized so the header only needs (symbol, length) pairs. The header
is a ``symtable`` table whose entry field is the code length as u8. A
single-symbol alphabet gets a 1-bit code; the cost of one bit per sample
is real and is reported as such.

Headers grow linearly with cardinality (5 bytes per distinct symbol),
which is exactly the effect that makes dynamic codes unattractive on
high-cardinality data.

Encoding looks each token's codeword up ``bitio.PACK_TOKENS`` tokens at a
time, so beside its input and payload it holds one block and each token's
symbol index from ``token_histogram``.

Decoding is table-driven, as in zlib's inflate and zstd's Huff0, and runs
chunk by chunk through ``bitio.decode_chunks``. For every bit position of a
chunk, a primary table indexed by the ``bitio.PEEK_BITS`` bits at that
position gives the code length; positions that start a longer code are
resolved by a ``searchsorted`` over the left-justified canonical codes.
``decode_chunks`` finds the true codeword starts from those lengths and
bounds the stream, and only there is the symbol looked up. The tables are
built per call from the header; working memory is bounded by
``bitio.CHUNK_BITS``, not by the payload.
"""

from __future__ import annotations

import numpy as np

from ..core import as_samples, token_histogram
from ..errors import FormatError
from .. import symtable
from .bitio import PEEK_BITS, BitStream, decode_chunks, pack_codes, read_fields

MAX_CODE_LENGTH = 32
ENTRY = symtable.entry("u1")
# Code length recorded for a position where no codeword matches: that
# shows only after MAX_CODE_LENGTH + 1 bits.
_INVALID = MAX_CODE_LENGTH + 1
_WINDOW_BITS = np.uint64(MAX_CODE_LENGTH)
# Indexed by code length: the 32-bit windows a code of that length covers
# once left-justified, 2^(32 - length).
_SPAN = np.uint64(1) << np.arange(MAX_CODE_LENGTH, -1, -1, dtype=np.uint64)


def code_lengths_from_counts(counts: np.ndarray) -> np.ndarray:
    """Optimal prefix code lengths for positive frequencies.

    Repeatedly merges the two least frequent subtrees, in (count, node id)
    order: ties go to the older node, so the lengths are deterministic
    across platforms. Merged counts never decrease, so two queues replace a
    heap: the leaves sorted once, and the merged nodes in creation order.
    """
    m = counts.size
    if m == 0:
        raise ValueError("undefined on empty input")
    if m == 1:
        return np.array([1], dtype=np.int64)
    order = np.argsort(counts, kind="stable")
    leaves = order.tolist()
    leaf_counts = counts[order].tolist()
    merged: list[int] = []  # count of node m + k
    parent = [-1] * (2 * m - 1)
    li = qi = 0
    for node in range(m, 2 * m - 1):
        total = 0
        for _ in range(2):
            # On equal counts the leaf goes first: leaf ids are the lower.
            if qi == len(merged) or (li < m and leaf_counts[li] <= merged[qi]):
                parent[leaves[li]] = node
                total += leaf_counts[li]
                li += 1
            else:
                parent[m + qi] = node
                total += merged[qi]
                qi += 1
        merged.append(total)
    # A parent has a larger id than its children, so walking the ids down
    # from the root sets each node's depth from its parent's.
    depth = [0] * (2 * m - 1)
    for node in range(2 * m - 3, -1, -1):
        depth[node] = depth[parent[node]] + 1
    lengths = np.array(depth[:m], dtype=np.int64)
    if int(lengths.max()) > MAX_CODE_LENGTH:
        raise ValueError("code length limit exceeded")
    return lengths


def _canonical(symbols: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical order, by (length, symbol), with each code's span and first window.

    In that order code i covers the 32-bit windows [first[i], first[i] +
    span[i]); Kraft's inequality keeps them all inside 2^32.
    """
    order = np.lexsort((symbols, lengths))
    span = _SPAN[lengths[order]]
    first = np.zeros(order.size, dtype=np.uint64)
    np.cumsum(span[:-1], out=first[1:])
    return order, span, first


def canonical_codes(symbols: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Assign canonical codewords: sorted by (length, symbol), counting up."""
    order, span, first = _canonical(symbols, lengths)
    codes = np.empty(symbols.size, dtype=np.uint64)
    # Every earlier code is no longer, so its span is a multiple of this one's.
    codes[order] = first // span
    return codes


def encode(values) -> tuple[bytes, BitStream]:
    """Returns (header, payload). Payload spends in [H, H+1) bits/symbol."""
    symbols, counts, inverse = token_histogram(as_samples(values))
    lengths = code_lengths_from_counts(counts)
    codes = canonical_codes(symbols, lengths)
    header = symtable.write(ENTRY, symbols, lengths)
    payload = pack_codes(inverse, lambda idx: (codes.take(idx), lengths.take(idx)))
    return header, payload


def parse_header(header: bytes) -> tuple[np.ndarray, np.ndarray]:
    symbols, lengths = symtable.read(ENTRY, header, "code table")
    if int(lengths.min()) < 1 or int(lengths.max()) > MAX_CODE_LENGTH:
        raise FormatError("invalid code table")
    if int(_SPAN[lengths].sum()) > 1 << MAX_CODE_LENGTH:  # Kraft's inequality, exactly
        raise FormatError("invalid code table")
    return symbols, lengths


def decode(header: bytes, payload: BitStream | bytes, count: int) -> np.ndarray:
    symbols, lengths = parse_header(header)
    order, span, first = _canonical(symbols, lengths)
    syms = symbols[order]
    lens = lengths[order]
    short = np.flatnonzero(lens <= PEEK_BITS)
    reps = (span[short] >> np.uint64(MAX_CODE_LENGTH - PEEK_BITS)).astype(np.int64)
    filled = int(reps.sum())
    table_len = np.zeros(1 << PEEK_BITS, dtype=np.int8)
    table_idx = np.zeros(1 << PEEK_BITS, dtype=np.int64)
    table_len[:filled] = np.repeat(lens[short], reps)
    table_idx[:filled] = np.repeat(short, reps)

    def step(words: np.ndarray, primary: np.ndarray):
        ln = table_len.take(primary)
        longer = np.flatnonzero(ln == 0)
        if longer.size:
            w = read_fields(words, longer, _WINDOW_BITS)
            i = np.searchsorted(first, w, side="right") - 1
            ln[longer] = np.where(w - first[i] < span[i], lens[i], _INVALID)

        def finish(starts: np.ndarray) -> np.ndarray:
            ln_s = ln[starts]
            if int(ln_s.max()) == _INVALID:
                raise FormatError("invalid codeword")
            idx = table_idx.take(primary[starts])
            long = np.flatnonzero(ln_s > PEEK_BITS)
            if long.size:
                w = read_fields(words, starts[long], _WINDOW_BITS)
                idx[long] = np.searchsorted(first, w, side="right") - 1
            return syms[idx]

        return ln, finish

    return decode_chunks(payload, count, step)
