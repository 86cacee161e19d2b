"""Scalar reference coders and transforms, kept only as test oracles.

The decoders are the one-bit-or-one-codeword-at-a-time loops the vectorized
decoders in ``tscodec.coders`` replaced. They read the same formats and
raise ``TruncatedStreamError`` when a stream runs out, but they apply no
bound on prefix lengths or token counts. ``bitpack_encode`` writes one value
at a time, ``range_encode`` renormalizes through a loop that tests every
case on every step and counts the clipped ranges, ``quantize_counts``
scales a range-coder model down one unit per step, and
``code_lengths_from_counts`` merges through a heap and walks each Huffman
leaf up to the root. ``lzss_compress`` steps through the input
one byte at a time, keeping hash-chain heads in a dict, and
``lzss_decompress`` decodes one token at a time, copying an overlapping
match one byte at a time. The transform
oracles are the QuaRs fit that places bins one rank at a time, the
per-token QuaRs bin search, which the library now runs once per distinct
value, token-at-a-time rle0 loops and the branchy zigzag formulas.
``load_csv`` is the ``csv.reader`` plus one-``float()``-per-cell parser
that ``np.loadtxt`` replaced, and ``dequantize_column`` inverts
ingest quantization for the error-bound tests. ``synth_switching`` is the
segment-at-a-time generator of the ``switching`` case, with two bounded
draws and one level mask per segment. The differential tests
require the library to return exactly what these return on valid input
(the same bytes, for the encoders), and to raise the same ``FormatError``
(``ValueError`` for CSV) on invalid input.
"""

from __future__ import annotations

import csv
import heapq
import math
from bisect import bisect_right
from pathlib import Path

import numpy as np

from tscodec import symtable, synth
from tscodec.coders import huffman, lzss, rangecoder
from tscodec.coders.bitio import BitStream
from tscodec.core import TimeSeries, as_samples
from tscodec.errors import FormatError, TruncatedStreamError
from tscodec.ingest import QUANT_STEPS, ChannelQuantization, Dataset, ingest_column


class BitWriter:
    """Incremental MSB-first bit writer."""

    def __init__(self):
        self._out = bytearray()
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, nbits: int) -> None:
        if nbits == 0:
            return
        self._acc = (self._acc << nbits) | (value & ((1 << nbits) - 1))
        self._nbits += nbits
        while self._nbits >= 8:
            self._nbits -= 8
            self._out.append((self._acc >> self._nbits) & 0xFF)
        self._acc &= (1 << self._nbits) - 1

    def getvalue(self) -> BitStream:
        total = 8 * len(self._out) + self._nbits
        if self._nbits:
            tail = (self._acc << (8 - self._nbits)) & 0xFF
            return BitStream(bytes(self._out) + bytes([tail]), total)
        return BitStream(bytes(self._out), total)


class BitReader:
    """MSB-first bit reader over a byte buffer."""

    __slots__ = ("_data", "_nbits", "_pos")

    def __init__(self, data: bytes, bit_length: int | None = None):
        self._data = data
        self._nbits = 8 * len(data) if bit_length is None else bit_length
        self._pos = 0

    def read(self, nbits: int) -> int:
        end = self._pos + nbits
        if end > self._nbits:
            raise TruncatedStreamError("truncated stream")
        if nbits == 0:
            return 0
        first = self._pos >> 3
        last = (end + 7) >> 3
        chunk = int.from_bytes(self._data[first:last], "big")
        val = (chunk >> ((last << 3) - end)) & ((1 << nbits) - 1)
        self._pos = end
        return val

    def count_zeros(self) -> int:
        """Count and consume 0 bits up to (not including) the next 1 bit."""
        zeros = 0
        while True:
            take = min(56, self._nbits - self._pos)
            if take == 0:
                raise TruncatedStreamError("truncated stream")
            first = self._pos >> 3
            last = (self._pos + take + 7) >> 3
            chunk = int.from_bytes(self._data[first:last], "big")
            window = (chunk >> ((last << 3) - (self._pos + take))) & ((1 << take) - 1)
            if window == 0:
                zeros += take
                self._pos += take
                continue
            lead = take - window.bit_length()
            zeros += lead
            self._pos += lead
            return zeros

    def count_ones(self) -> int:
        """Count and consume 1 bits up to (not including) the next 0 bit."""
        ones = 0
        while True:
            take = min(56, self._nbits - self._pos)
            if take == 0:
                raise TruncatedStreamError("truncated stream")
            first = self._pos >> 3
            last = (self._pos + take + 7) >> 3
            chunk = int.from_bytes(self._data[first:last], "big")
            window = (chunk >> ((last << 3) - (self._pos + take))) & ((1 << take) - 1)
            inverted = window ^ ((1 << take) - 1)
            if inverted == 0:
                ones += take
                self._pos += take
                continue
            lead = take - inverted.bit_length()
            ones += lead
            self._pos += lead
            return ones


def _reader(stream: BitStream | bytes) -> BitReader:
    if isinstance(stream, BitStream):
        return BitReader(stream.data, stream.bit_length)
    return BitReader(stream)


def expgolomb_decode(stream: BitStream | bytes, count: int) -> np.ndarray:
    reader = _reader(stream)
    out = np.empty(count, dtype=np.int64)
    for i in range(count):
        zeros = reader.count_zeros()
        out[i] = reader.read(zeros + 1) - 1
    return out


def drh_decode(stream: BitStream | bytes, count: int) -> np.ndarray:
    reader = _reader(stream)
    out = np.empty(count, dtype=np.int64)
    for i in range(count):
        k = reader.count_ones()
        reader.read(1)  # category terminator
        if k == 0:
            out[i] = 0
            continue
        m = reader.read(k)
        out[i] = m if m >> (k - 1) else m - (1 << k) + 1
    return out


def huffman_decode(header: bytes, payload: BitStream | bytes, count: int) -> np.ndarray:
    symbols, lengths = huffman.parse_header(header)
    order = np.lexsort((symbols, lengths))
    sorted_syms = symbols[order].tolist()
    sorted_lens = lengths[order].tolist()
    # Canonical decode tables: per length, the first code value and the
    # index of its first symbol in canonical order.
    first_code = {}
    first_index = {}
    count_at = {}
    code = 0
    prev_len = sorted_lens[0]
    for i, ln in enumerate(sorted_lens):
        code <<= ln - prev_len
        if ln not in first_code:
            first_code[ln] = code
            first_index[ln] = i
            count_at[ln] = 0
        count_at[ln] += 1
        code += 1
        prev_len = ln
    if isinstance(payload, BitStream):
        data, nbits = payload.data, payload.bit_length
    else:
        data, nbits = payload, 8 * len(payload)
    out = np.empty(count, dtype=np.int64)
    pos = 0
    for i in range(count):
        code = 0
        ln = 0
        while True:
            if pos >= nbits:
                raise TruncatedStreamError("truncated stream")
            code = (code << 1) | ((data[pos >> 3] >> (7 - (pos & 7))) & 1)
            pos += 1
            ln += 1
            base = first_code.get(ln)
            if base is not None and base <= code < base + count_at[ln]:
                out[i] = sorted_syms[first_index[ln] + code - base]
                break
            if ln > huffman.MAX_CODE_LENGTH:
                raise FormatError("invalid code table")
    return out


def range_encode(values) -> tuple[bytes, bytes, int]:
    """``rangecoder.encode`` through the renormalization loop it replaced,
    which tests every case on every step. Also returns how many times the
    range was clipped: it fell below ``BOT`` with its top byte not settled."""
    x = as_samples(values)
    if x.size == 0:
        raise ValueError("undefined on empty input")
    symbols, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    freqs_q = rangecoder.quantize_counts(counts, x.size)
    header = symtable.write(rangecoder.ENTRY, symbols, freqs_q)
    freq_list = freqs_q.tolist()
    cum = np.concatenate(([0], np.cumsum(freqs_q))).tolist()
    out = bytearray()
    clips = 0
    low = 0
    rng = rangecoder.MASK
    for idx in inverse.tolist():
        r = rng // rangecoder.TOTAL
        low += r * cum[idx]
        rng = r * freq_list[idx]
        while True:
            if (low ^ (low + rng)) < rangecoder.TOP:
                pass
            elif rng < rangecoder.BOT:
                rng = -low & (rangecoder.BOT - 1)
                clips += 1
            else:
                break
            out.append((low >> 24) & 0xFF)
            low = (low << 8) & rangecoder.MASK
            rng <<= 8
    out += low.to_bytes(4, "big")
    return header, bytes(out), clips


def range_decode(header: bytes, payload: bytes, count: int) -> np.ndarray:
    symbols, freqs = rangecoder.parse_header(header)
    sym_list, freq_list = symbols.tolist(), freqs.tolist()
    cum = np.concatenate(([0], np.cumsum(freqs))).tolist()
    pos = 0
    nbytes = len(payload)

    def next_byte():
        nonlocal pos
        if pos >= nbytes:
            raise TruncatedStreamError("truncated stream")
        b = payload[pos]
        pos += 1
        return b

    code = 0
    for _ in range(4):
        code = (code << 8) | next_byte()
    low = 0
    rng = rangecoder.MASK
    out = np.empty(count, dtype=np.int64)
    for i in range(count):
        r = rng // rangecoder.TOTAL
        dv = (code - low) // r
        if dv < 0 or dv >= rangecoder.TOTAL:
            raise FormatError("corrupt stream")
        idx = bisect_right(cum, dv) - 1
        out[i] = sym_list[idx]
        low += r * cum[idx]
        rng = r * freq_list[idx]
        while True:
            if (low ^ (low + rng)) < rangecoder.TOP:
                pass
            elif rng < rangecoder.BOT:
                rng = -low & (rangecoder.BOT - 1)
            else:
                break
            code = ((code << 8) | next_byte()) & rangecoder.MASK
            low = (low << 8) & rangecoder.MASK
            rng <<= 8
    return out


def quantize_counts(counts: np.ndarray, n: int) -> np.ndarray:
    """``rangecoder.quantize_counts`` scaling down one unit at a time.

    Each pass re-sorts the counts by descending size and takes one unit
    from every count above 1 until the excess is gone.
    """
    q = np.maximum(1, (counts * rangecoder.TOTAL) // n)
    diff = rangecoder.TOTAL - int(q.sum())
    if diff > 0:
        rem = counts * rangecoder.TOTAL - q * n
        order = np.lexsort((np.arange(counts.size), -rem))
        q[order[:diff]] += 1
    while diff < 0:
        order = np.argsort(-q, kind="stable")
        for i in order.tolist():
            if diff == 0:
                break
            if q[i] >= 2:
                q[i] -= 1
                diff += 1
    return q


def code_lengths_from_counts(counts: np.ndarray) -> np.ndarray:
    """Huffman code lengths, each leaf walking its parent chain to the root."""
    m = counts.size
    if m == 1:
        return np.array([1], dtype=np.int64)
    heap = [(int(c), i, i) for i, c in enumerate(counts)]
    heapq.heapify(heap)
    parent = [-1] * (2 * m - 1)
    next_id = m
    while len(heap) > 1:
        c1, _, n1 = heapq.heappop(heap)
        c2, _, n2 = heapq.heappop(heap)
        parent[n1] = next_id
        parent[n2] = next_id
        heapq.heappush(heap, (c1 + c2, next_id, next_id))
        next_id += 1
    lengths = np.zeros(m, dtype=np.int64)
    for i in range(m):
        d = 0
        node = i
        while parent[node] != -1:
            node = parent[node]
            d += 1
        lengths[i] = d
    return lengths


def lzss_compress(data: bytes) -> bytes:
    """The position-at-a-time LZSS encoder: a hash-chain dict, one step per byte."""
    n = len(data)
    out = bytearray()
    group = bytearray(1)  # flags byte placeholder
    flags = 0
    ntok = 0
    head: dict[int, int] = {}
    prev = [-1] * n
    i = 0
    while i < n:
        best_len = 0
        best_dist = 0
        if i + lzss.MIN_MATCH <= n:
            limit = min(lzss.MAX_MATCH, n - i)
            h = data[i] | (data[i + 1] << 8) | (data[i + 2] << 16)
            cand = head.get(h, -1)
            tries = lzss.MAX_CHAIN
            while cand >= 0 and i - cand <= lzss.WINDOW and tries > 0:
                if best_len == limit:
                    break
                # Cheap reject: a longer match must extend past best_len.
                if data[cand + best_len] == data[i + best_len]:
                    ln = 0
                    while ln < limit and data[cand + ln] == data[i + ln]:
                        ln += 1
                    if ln > best_len:
                        best_len = ln
                        best_dist = i - cand
                cand = prev[cand]
                tries -= 1
        if best_len >= lzss.MIN_MATCH:
            d = best_dist - 1
            group.append(d >> 4)
            group.append(((d & 0xF) << 4) | (best_len - 3))
            end = i + best_len
            stop = min(end, n - 2)
            while i < stop:
                h = data[i] | (data[i + 1] << 8) | (data[i + 2] << 16)
                prev[i] = head.get(h, -1)
                head[h] = i
                i += 1
            i = end
        else:
            flags |= 0x80 >> ntok
            group.append(data[i])
            if i + lzss.MIN_MATCH <= n:
                h = data[i] | (data[i + 1] << 8) | (data[i + 2] << 16)
                prev[i] = head.get(h, -1)
                head[h] = i
            i += 1
        ntok += 1
        if ntok == 8:
            group[0] = flags
            out.extend(group)
            group = bytearray(1)
            flags = 0
            ntok = 0
    if ntok:
        group[0] = flags
        out.extend(group)
    return bytes(out)



def lzss_decompress(data: bytes, expected_size: int | None = None) -> bytes:
    """The token-at-a-time LZSS decoder."""
    out = bytearray()
    pos = 0
    n = len(data)
    while pos < n:
        if expected_size is not None and len(out) >= expected_size:
            break
        flags = data[pos]
        pos += 1
        for t in range(8):
            if pos >= n:
                break
            if expected_size is not None and len(out) >= expected_size:
                break
            if flags & (0x80 >> t):
                out.append(data[pos])
                pos += 1
            else:
                if pos + 2 > n:
                    raise TruncatedStreamError("truncated stream")
                b0 = data[pos]
                b1 = data[pos + 1]
                pos += 2
                dist = ((b0 << 4) | (b1 >> 4)) + 1
                length = (b1 & 0xF) + 3
                if dist > len(out):
                    raise FormatError("invalid back-reference")
                start = len(out) - dist
                if dist >= length:
                    out.extend(out[start : start + length])
                else:
                    for j in range(length):
                        out.append(out[start + j])
    if expected_size is not None and len(out) != expected_size:
        raise TruncatedStreamError("truncated stream")
    return bytes(out)


BITPACK_BLOCK = 128


def bitpack_encode(values) -> bytes:
    """Per block: the width byte, then each value written with ``BitWriter``."""
    v = as_samples(values).tolist()
    out = bytearray()
    for b in range(0, len(v), BITPACK_BLOCK):
        block = v[b : b + BITPACK_BLOCK]
        w = max(block).bit_length()
        out.append(w)
        writer = BitWriter()
        for x in block:
            writer.write(x, w)
        out += writer.getvalue().data
    return bytes(out)


def bitpack_decode(data: bytes, count: int) -> np.ndarray:
    out = np.empty(count, dtype=np.int64)
    pos = 0
    done = 0
    buf = np.frombuffer(data, dtype=np.uint8)
    while done < count:
        if pos >= len(data):
            raise TruncatedStreamError("truncated stream")
        w = data[pos]
        pos += 1
        take = min(BITPACK_BLOCK, count - done)
        if w > 32:
            raise FormatError("corrupt block header")
        if w == 0:
            out[done : done + take] = 0
            done += take
            continue
        nbytes = (take * w + 7) // 8
        if pos + nbytes > len(data):
            raise TruncatedStreamError("truncated stream")
        bits = np.unpackbits(buf[pos : pos + nbytes])[: take * w].reshape(take, w)
        weights = np.uint64(1) << np.arange(w - 1, -1, -1, dtype=np.uint64)
        out[done : done + take] = (bits.astype(np.uint64) * weights).sum(axis=1)
        pos += nbytes
        done += take
    return out


def quars_fit(values, bin_count: int):
    """The QuaRs fit with its bins placed one rank at a time.

    Returns the lower bounds, the target offsets and the exclusive upper
    bound that ``quars_encode`` fits; ``quars_apply`` then maps tokens.
    """
    x = as_samples(values)
    values, counts = np.unique(x, return_counts=True)
    if values.size <= bin_count:
        first = np.arange(values.size)
    else:
        cum_before = np.cumsum(counts) - counts
        first = np.unique((cum_before * bin_count) // x.size, return_index=True)[1]
    last = np.r_[first[1:] - 1, values.size - 1]
    los = values[first]
    widths = values[last] - los + 1
    density = np.add.reduceat(counts, first) / widths
    order = np.lexsort((los, -density))  # density desc, then lower bound asc
    offsets = np.zeros(order.size, dtype=np.int64)
    pos = 0
    neg = 0
    for rank, b in enumerate(order.tolist()):
        w = int(widths[b])
        if rank == 0:
            offsets[b] = 0
            pos = w
        elif rank % 2 == 1:
            offsets[b] = pos
            pos += w
        else:
            neg -= w
            offsets[b] = neg
    return los, offsets, int(values[-1]) + 1


def quars_apply(qmap, values) -> np.ndarray:
    """The fitted QuaRs map with one bin search per token."""
    x = as_samples(values)
    if x.size == 0:
        return x.copy()
    if int(x.min()) < qmap.lower_bounds[0] or int(x.max()) >= qmap.upper_exclusive:
        raise ValueError("value outside the fitted range")
    idx = np.searchsorted(qmap.lower_bounds, x, side="right") - 1
    return x - qmap.lower_bounds[idx] + qmap.target_offsets[idx]


def quars_invert(qmap, mapped) -> np.ndarray:
    """``quars_decode`` with one bin search per token."""
    m = as_samples(mapped)
    if m.size == 0:
        return m.copy()
    order = np.argsort(qmap.target_offsets, kind="stable")
    t_sorted = qmap.target_offsets[order]
    lo_sorted = qmap.lower_bounds[order]
    w_sorted = qmap.widths()[order]
    idx = np.searchsorted(t_sorted, m, side="right") - 1
    # Against the bin's end: m - t would wrap for tokens near 2**63.
    bad = (idx < 0) | (m >= t_sorted[np.clip(idx, 0, None)] + w_sorted[np.clip(idx, 0, None)])
    if np.any(bad):
        raise FormatError("value not in QuaRs map")
    return m - t_sorted[idx] + lo_sorted[idx]


def zigzag(values) -> np.ndarray:
    v = as_samples(values)
    return np.where(v >= 0, 2 * v, -2 * v - 1)


def unzigzag(values) -> np.ndarray:
    u = as_samples(values)
    return np.where(u & 1 == 0, u >> 1, -((u + 1) >> 1))


def rle0_encode(values) -> np.ndarray:
    """Token-at-a-time ``rle0_encode``."""
    out = []
    run = 0
    for v in as_samples(values).tolist():
        if v == 0:
            run += 1
            continue
        if run:
            out += [0, run]
            run = 0
        out.append(v)
    if run:
        out += [0, run]
    return np.array(out, dtype=np.int64)


def rle0_decode(tokens) -> np.ndarray:
    """The walk over zero positions that ``rle0_decode`` replaced."""
    t = as_samples(tokens)
    if t.size == 0:
        return t.copy()
    zero_pos = np.flatnonzero(t == 0)
    markers = []
    length_slot = -1
    for p in zero_pos.tolist():
        if p == length_slot:
            raise FormatError("malformed run token: run length of 0")
        markers.append(p)
        length_slot = p + 1
    markers = np.asarray(markers, dtype=np.int64)
    if markers.size and markers[-1] == t.size - 1:
        raise FormatError("malformed run token: trailing 0 without run length")
    lengths = t[markers + 1] if markers.size else np.empty(0, dtype=t.dtype)
    if np.any(lengths <= 0):
        raise FormatError("malformed run token: non-positive run length")
    counts = np.ones(t.size, dtype=np.int64)
    if markers.size:
        counts[markers] = lengths
        counts[markers + 1] = 0  # length slots emit nothing
    return np.repeat(t * (counts > 0), counts)


def dequantize_column(q, meta: ChannelQuantization) -> np.ndarray:
    """Approximate inverse of ``ingest.quantize_column``: at most one step off."""
    arr = np.asarray(q, dtype=np.float64)
    if meta.identity:
        return arr.copy()
    if meta.hi == meta.lo:
        return np.full(arr.shape, meta.lo)
    lo, hi, scale = meta.lo, meta.hi, 1.0
    if hi - lo == np.inf:
        # As in quantize_column: a span wider than the largest float fits once halved.
        lo, hi, scale = lo / 2, hi / 2, 2.0
    # Ratio first, as in quantize_column. Rounding can pass hi, and twice a
    # value past half the largest float overflows, so stop at hi.
    return scale * np.minimum(lo + (arr + 32768) / QUANT_STEPS * (hi - lo), hi)


def _parse_cell(text: str, row: int, col) -> float:
    cell = text.strip()
    if cell == "":
        return math.nan  # missing marker, resolved by policy
    try:
        return float(cell)
    except ValueError:
        raise ValueError(f"unparseable numeric cell at row {row}, column {col}: {cell!r}") from None


def load_csv(path, columns=None, missing: str = "drop") -> Dataset:
    """The row-list, cell-at-a-time CSV loader that ``np.loadtxt`` replaced.

    Two fixes keep it a reference rather than a crash: a column beyond a
    short header is labelled by its index, and a name whose header position
    lies beyond the first data row is out of range. The replaced loader
    raised ``IndexError`` for both.
    """
    if missing not in ("drop", "error"):
        raise ValueError('missing policy must be "drop" or "error"')
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r]
    if not rows:
        raise ValueError(f"{path}: empty file")

    def _numeric(cell: str) -> bool:
        try:
            float(cell)
            return True
        except ValueError:
            return cell.strip() == ""

    header = None
    if not all(_numeric(c) for c in rows[0]):
        header = [c.strip() for c in rows[0]]
        rows = rows[1:]
    if not rows:
        raise ValueError(f"{path}: no data rows")

    ncols = len(rows[0])
    if columns is None:
        selected = list(range(ncols))
    else:
        selected = []
        for c in columns:
            if isinstance(c, str):
                if header is None or c not in header:
                    raise ValueError(f"unknown column name {c!r}")
                c = header.index(c)
            if not 0 <= c < ncols:
                raise ValueError(f"column index {c} out of range")
            selected.append(c)

    data = np.empty((len(rows), len(selected)), dtype=np.float64)
    for i, row in enumerate(rows):
        if len(row) < ncols:
            raise ValueError(f"{path}: row {i} has {len(row)} cells, expected {ncols}")
        for j, c in enumerate(selected):
            label = header[c] if header and c < len(header) else c
            data[i, j] = _parse_cell(row[c], i, label)

    missing_mask = np.isnan(data)
    dropped = 0
    if missing_mask.any():
        if missing == "error":
            i, j = np.argwhere(missing_mask)[0]
            c = selected[j]
            label = header[c] if header and c < len(header) else c
            raise ValueError(f"{path}: missing value at row {int(i)}, column {label}")
        keep = ~missing_mask.any(axis=1)
        dropped = int((~keep).sum())
        data = data[keep]
        if data.shape[0] == 0:
            raise ValueError(f"{path}: all rows dropped by missing-value policy")

    channels, quant = [], []
    for j in range(data.shape[1]):
        q, meta = ingest_column(data[:, j])
        channels.append(TimeSeries(samples=q, channel_id=j))
        quant.append(meta)
    return Dataset(name=path.stem, channels=channels, quantization=quant, dropped_rows=dropped)


def synth_switching(spec: synth.SynthSpec) -> np.ndarray:
    """The ``switching`` samples, one segment at a time."""
    rng = synth._rng(spec, 0)
    out = np.empty(spec.n, dtype=np.int64)
    pos = 0
    current = int(synth.LEVELS[rng.integers(0, synth.LEVELS.size)])
    while pos < spec.n:
        dwell = int(rng.integers(synth.DWELL_MIN, synth.DWELL_MAX + 1))
        end = min(pos + dwell, spec.n)
        out[pos:end] = current
        pos = end
        others = synth.LEVELS[synth.LEVELS != current]
        current = int(others[rng.integers(0, others.size)])
    return out
