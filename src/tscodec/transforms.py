"""Invertible compression-aiding transforms.

Three stages can be chained ahead of any coder, in this fixed order:

* ``delta``  - consecutive differences, first sample kept verbatim
* ``rle0``   - run-length coding of zero runs only, emitting (0, length) pairs
* ``quars``  - quantile reshuffling: a bijective remap that sends frequent
  quantile bins to small magnitudes, producing a zero-centered unimodal
  value distribution

``zigzag``/``unzigzag`` map signed integers onto non-negative ones so that
small magnitudes stay small; coders whose natural alphabet is non-negative
apply it internally.

QuaRs fits its bins and evaluates its map once per distinct value, taken
from :func:`tscodec.core.token_histogram`, then gathers per token. Its
inverse needs no histogram: the map already lists every bin, so one table
over the targets, as wide as :func:`tscodec.core.fits_dense_table` allows,
gives each token its shift back with one gather. A forged map with targets
wider than that searches each token among the bins instead.
:func:`chain_apply` returns the tokens with the chain's side bytes, the
serialized map, and :func:`chain_invert` is the one parser of those bytes.
The map is a :mod:`tscodec.symtable` table of (lower bound, target
offset) bins followed by the range's upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import symtable
from .core import INT32_MAX, INT32_MIN, as_samples, fits_dense_table, token_histogram
from .errors import FormatError

TRANSFORM_ORDER = ("delta", "rle0", "quars")

DEFAULT_QUARS_BINS = 256


def delta_encode(series) -> np.ndarray:
    """(x1, x2, ..., xn) -> (x1, x2-x1, ..., xn-x(n-1))."""
    x = as_samples(series)
    if x.size == 0:
        raise ValueError("undefined on empty input")
    out = np.empty_like(x)
    out[0] = x[0]
    np.subtract(x[1:], x[:-1], out=out[1:])
    return out


def delta_decode(deltas) -> np.ndarray:
    """Prefix sums; exact inverse of :func:`delta_encode`."""
    d = as_samples(deltas)
    if d.size == 0:
        raise ValueError("undefined on empty input")
    out = np.cumsum(d)
    if int(out.min()) < INT32_MIN or int(out.max()) > INT32_MAX:
        raise FormatError("corrupt delta stream: accumulated value out of range")
    return out


def rle0_encode(series) -> np.ndarray:
    """Replace each maximal run of k zeros with the token pair (0, k).

    Nonzero values pass through unchanged. 0 is safe as the run marker
    because a zero datum always opens a run of length >= 1.
    """
    x = as_samples(series)
    nonzero = x != 0
    # Keep every nonzero and the first zero of each run; a run lasts up to
    # the next kept position (or the end, kept past the last sample), and
    # its length takes the slot after its zero.
    keep = np.empty(x.size + 1, dtype=bool)
    keep[0] = keep[-1] = True
    np.logical_or(nonzero[1:], nonzero[:-1], out=keep[1:-1])
    bounds = np.flatnonzero(keep)
    kept = bounds[:-1]
    samples = x.take(kept)
    marks = np.flatnonzero(samples == 0)
    slots = marks + np.arange(1, marks.size + 1)
    out = np.empty(kept.size + marks.size, dtype=np.int64)
    fill = np.ones(out.size, dtype=bool)
    fill[slots] = False
    out[fill] = samples
    out[slots] = bounds.take(marks + 1) - kept.take(marks)
    return out


def rle0_decode(tokens) -> np.ndarray:
    """Exact inverse of :func:`rle0_encode`."""
    t = as_samples(tokens)
    if t.size == 0:
        return t.copy()
    zero = t == 0
    # Every zero opens a (0, length) pair, so the slot after it holds the
    # length: a zero length slot is a run of length 0.
    markers = np.flatnonzero(zero[:-1])
    lengths = t[markers + 1]
    if np.any(lengths == 0):
        raise FormatError("malformed run token: run length of 0")
    if zero[-1]:
        raise FormatError("malformed run token: trailing 0 without run length")
    if np.any(lengths < 0):
        raise FormatError("malformed run token: non-positive run length")
    counts = np.ones(t.size, dtype=np.int64)
    counts[markers] = lengths
    counts[markers + 1] = 0  # length slots emit nothing
    return np.repeat(t, counts)


def zigzag(series) -> np.ndarray:
    """v >= 0 -> 2v; v < 0 -> -2v-1. Bijective, small |v| stays small."""
    v = as_samples(series)
    return (v << 1) ^ (v >> 63)


def unzigzag(series) -> np.ndarray:
    """Inverse of :func:`zigzag`."""
    u = as_samples(series)
    if u.size and int(u.min()) < 0:
        raise FormatError("zigzag stream contains negative values")
    # (u >> 1) ^ -(u & 1), built in one array: -(u & 1) is 0 or -1, which
    # the arithmetic shift keeps, so the xor may come first.
    out = u & 1
    np.negative(out, out=out)
    out ^= u
    out >>= 1
    return out


# One serialized QuaRs bin: (lower bound, target offset).
_MAP_ENTRY = symtable.entry("<i4")


@dataclass(frozen=True)
class QuarsMap:
    """Bijective value remap fitted by :func:`quars_encode`.

    Bins partition the observed value range into contiguous integer
    intervals. Bin i covers [lower_bounds[i], next lower bound), the last
    bin ends at ``upper_exclusive``. Each bin is shifted as a block to its
    target range, so order and spacing inside a bin are preserved. The
    map holds the bins and their bytes; :func:`quars_decode` applies its
    inverse.
    """

    lower_bounds: np.ndarray  # sorted ascending, int64
    target_offsets: np.ndarray  # aligned with lower_bounds
    upper_exclusive: int

    def widths(self) -> np.ndarray:
        return np.r_[self.lower_bounds[1:], self.upper_exclusive] - self.lower_bounds

    def to_bytes(self) -> bytes:
        """A ``symtable`` table of (lower bound, target offset) bins, then
        the exclusive upper bound of the observed range as i32, little-endian.
        The upper bound is written mod 2^32, so 2^31 (a series holding
        INT32_MAX) is stored as the bytes of INT32_MIN. ``symtable.write``
        caps the bin count."""
        offs = self.target_offsets
        lowest = min(int(self.lower_bounds[0]), int(offs.min()))
        if lowest < INT32_MIN or int(offs.max()) > INT32_MAX or self.upper_exclusive > 1 << 31:
            raise ValueError("QuaRs map outside the int32 range")
        table = symtable.write(_MAP_ENTRY, self.lower_bounds, offs)
        return table + (self.upper_exclusive & 0xFFFFFFFF).to_bytes(4, "little")

    @classmethod
    def from_bytes(cls, data: bytes) -> "QuarsMap":
        table, trailer = symtable.split(_MAP_ENTRY, data)
        if len(trailer) < 4:
            raise FormatError("truncated QuaRs map")
        if len(trailer) > 4:
            raise FormatError("trailing bytes after QuaRs map")
        lows, offs = symtable.read(_MAP_ENTRY, table, "QuaRs map")
        upper = int.from_bytes(trailer, "little", signed=True)
        if upper == INT32_MIN:
            upper = 1 << 31  # no bin lies below INT32_MIN, so this is 2^31
        if np.any(np.diff(lows) <= 0) or upper <= lows[-1]:
            raise FormatError("invalid QuaRs map")
        # A fitted map observed every lower bound and upper - 1 and maps the
        # observed values one to one, so its targets are distinct and none
        # falls inside the last bin's range. Full bin widths include
        # unobserved gaps, so other target ranges may overlap in a valid map.
        targets = np.sort(offs)
        last = offs[-1]
        inside_last = (targets > last) & (targets < last + upper - lows[-1])
        if np.any(targets[1:] == targets[:-1]) or np.any(inside_last):
            raise FormatError("overlapping QuaRs target ranges")
        return cls(lower_bounds=lows, target_offsets=offs, upper_exclusive=upper)


def quars_encode(series, bin_count: int = DEFAULT_QUARS_BINS) -> tuple[np.ndarray, QuarsMap]:
    """Fit and apply quantile reshuffling.

    Observed values are cut into at most ``bin_count`` quantile bins of
    near-equal sample mass (one bin per distinct value when cardinality
    allows). Bins are ranked by occurrence density, count per covered
    value, so the most frequent values land in the lowest ranks even when
    equal-mass binning makes raw counts indistinguishable; ties break by
    ascending lower bound. Rank 0 is placed at 0; odd ranks stack upward
    from its width and even ranks downward from 0, each in rank order.
    Cardinality is preserved because the map is a bijection on the
    observed values.
    """
    x = as_samples(series)
    if x.size == 0:
        raise ValueError("undefined on empty input")
    if bin_count < 1:
        raise ValueError("bin_count must be >= 1")
    values, counts, inverse = token_histogram(x)
    if values.size <= bin_count:
        first = np.arange(values.size)
    else:
        cum_before = np.cumsum(counts) - counts
        bin_idx = (cum_before * bin_count) // x.size
        # bin_idx never decreases, so a bin opens wherever it steps.
        opens = np.empty(bin_idx.size, dtype=bool)
        opens[0] = True
        np.not_equal(bin_idx[1:], bin_idx[:-1], out=opens[1:])
        first = np.flatnonzero(opens)
    last = np.r_[first[1:] - 1, values.size - 1]
    los = values[first]
    his = values[last]
    widths = his - los + 1
    bin_counts = np.add.reduceat(counts, first)
    density = bin_counts / widths
    order = np.lexsort((los, -density))  # density desc, then lower bound asc
    ranked = widths[order]
    up = ranked[1::2]
    offsets = np.zeros(order.size, dtype=np.int64)
    offsets[order[1::2]] = ranked[0] + np.cumsum(up) - up
    offsets[order[2::2]] = -np.cumsum(ranked[2::2])
    shift = np.repeat(offsets - los, last + 1 - first)  # per distinct value
    return (values + shift)[inverse], QuarsMap(los, offsets, int(values[-1]) + 1)


# Marks the table entries of targets no bin maps back: no shift is this low.
_HOLE = np.iinfo(np.int64).min


def quars_decode(mapped, qmap: QuarsMap) -> np.ndarray:
    """Exact inverse of :func:`quars_encode` via the stored bijection, and
    the map's only inverse: a token is mapped back by the bin with the
    largest target offset at or below it, and a token past that bin's
    width, or below every offset, raises FormatError.

    The targets from the smallest offset to the end of the bin with the
    largest one form a table of shifts, one ``np.repeat`` of each bin's ``lower -
    offset`` over the gap to the next offset. A gap wider than its bin
    leaves holes, which a fitted map never has (its bins tile the targets)
    but a forged one may. Each token then costs a subtract, a range check,
    one ``take`` and an add. A table wider than
    :func:`tscodec.core.fits_dense_table` allows is never built: such a
    map's tokens are searched among its bins instead.
    """
    m = as_samples(mapped)
    order = np.argsort(qmap.target_offsets, kind="stable")
    t_sorted = qmap.target_offsets[order]
    lo_sorted = qmap.lower_bounds[order]
    w_sorted = qmap.widths()[order]
    base = int(t_sorted[0])
    extent = int(t_sorted[-1] + w_sorted[-1]) - base
    if not fits_dense_table(extent - 1, m.size):
        return _quars_search(m, t_sorted, lo_sorted, w_sorted)
    gaps = np.diff(t_sorted, append=base + extent)
    kept = np.minimum(w_sorted, gaps)
    shifts = np.column_stack((lo_sorted - t_sorted, np.full(gaps.size, _HOLE))).ravel()
    table = np.repeat(shifts, np.column_stack((kept, gaps - kept)).ravel())
    out = m - base
    # Read unsigned, a token below the smallest offset is past the end too.
    if out.size and int(out.view(np.uint64).max()) >= extent:
        raise FormatError("value not in QuaRs map")
    table.take(out, out=out, mode="clip")  # in range: no bounds check
    if np.any(kept < gaps) and np.any(out == _HOLE):
        raise FormatError("value not in QuaRs map")
    out += m
    return out


def _quars_search(m: np.ndarray, t_sorted, lo_sorted, w_sorted) -> np.ndarray:
    """:func:`quars_decode` with each token searched among the bins sorted by
    target offset; ``m >= t + w`` tests a bin's end, where ``m - t`` may wrap."""
    idx = np.searchsorted(t_sorted, m, side="right") - 1
    if np.any(m < t_sorted[0]) or np.any(m >= (t_sorted + w_sorted).take(idx)):
        raise FormatError("value not in QuaRs map")
    return (lo_sorted - t_sorted).take(idx) + m


@dataclass(frozen=True)
class TransformChain:
    """Ordered transform stages plus the QuaRs bin budget.

    This is the one check of the chain grammar, for the API, the CLI and
    the container read path alike: the stages are an ordered subsequence
    of delta -> rle0 -> quars, each at most once. Zero-run coding
    presupposes the zero runs delta creates, and the reshuffle map is
    fitted on the final token stream.
    """

    stages: tuple[str, ...] = ()
    quars_bins: int = DEFAULT_QUARS_BINS

    def __post_init__(self):
        for s in self.stages:
            if s not in TRANSFORM_ORDER:
                raise ValueError(f"unknown transform {s!r}")
        if tuple(self.stages) != tuple(s for s in TRANSFORM_ORDER if s in self.stages):
            raise ValueError("invalid chain order: stages follow delta, rle0, quars; no duplicate")
        if self.quars_bins < 1:
            raise ValueError("quars_bins must be >= 1")

    @classmethod
    def parse(cls, text: str, quars_bins: int = DEFAULT_QUARS_BINS) -> "TransformChain":
        text = text.strip()
        if text in ("", "none"):
            return cls((), quars_bins)
        return cls(tuple(s.strip() for s in text.split(",")), quars_bins)

    def label(self) -> str:
        return ",".join(self.stages) if self.stages else "none"


def chain_apply(series, chain: TransformChain) -> tuple[np.ndarray, bytes]:
    """Apply the stages in order; returns the tokens and the side bytes
    (the serialized QuaRs map, or empty without quars)."""
    x = as_samples(series)
    side = b""
    for stage in chain.stages:
        if stage == "delta":
            x = delta_encode(x)
        elif stage == "rle0":
            x = rle0_encode(x)
        elif stage == "quars":
            x, qmap = quars_encode(x, chain.quars_bins)
            side = qmap.to_bytes()
    return x, side


def chain_invert(tokens, chain: TransformChain, side: bytes) -> np.ndarray:
    """Invert :func:`chain_apply` from its tokens and side bytes; side bytes
    other than exactly one valid QuaRs map on a quars chain, or nothing
    without quars, raise FormatError."""
    if side and "quars" not in chain.stages:
        raise FormatError("side bytes without quars")
    x = as_samples(tokens)
    for stage in reversed(chain.stages):
        if stage == "delta":
            x = delta_decode(x)
        elif stage == "rle0":
            x = rle0_decode(x)
        elif stage == "quars":
            x = quars_decode(x, QuarsMap.from_bytes(side))
    return x
