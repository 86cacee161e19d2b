"""Series types and the size/entropy metrics used throughout the toolkit.

A series is one channel of integer samples. Source data is expected to fit
signed 16 bits; transform outputs may grow beyond that but must stay within
signed 32 bits, which is the alphabet every coder accepts. Multichannel data
is a list of :class:`TimeSeries`, one per channel, processed independently.

:func:`token_histogram` is the one place that counts distinct values: the
QuaRs fit, the Huffman and range models, and the statistics here all take
their symbols, counts and per-token indices from it. :func:`fits_dense_table`
is the one bound on a table indexed by value, for the histogram and for
the QuaRs inverse alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INT16_MIN = -(1 << 15)
INT16_MAX = (1 << 15) - 1
INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1

#: Bits per sample of the uncompressed reference, used for the Shannon-limit
#: score. 16 matches the quantized integer width of the source data.
SAMPLE_BITS = 16

_RANK_BLOCK = 1 << 13
# A delta of 16-bit samples spans at most 2**17 - 2 values.
_DENSE_SPAN = 1 << 17


def as_samples(series) -> np.ndarray:
    """Return the sample array of a series-like object as 1-D int64."""
    if isinstance(series, TimeSeries):
        return series.samples
    arr = np.asarray(series, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("series must be one-dimensional")
    return arr


def fits_dense_table(span: int, n: int) -> bool:
    """Whether a table indexed by value, over values ``span`` = max - min
    apart, may serve ``n`` tokens: ``span <= max(n, 2**17)``.

    Such a table holds at most ``max(n, 2**17) + 1`` entries, so it costs
    no more than the tokens themselves or a 16-bit series' delta span.
    """
    return span <= max(n, _DENSE_SPAN)


def token_histogram(series) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct values, their counts, and each sample's index into them.

    The results equal ``np.unique(x, return_inverse=True, return_counts=True)``
    (in the order symbols, counts, inverse). When :func:`fits_dense_table`
    allows ``max - min``, one ``bincount`` over ``x - min`` and a rank
    gather replace the sort. Wider spans sort.
    """
    x = as_samples(series)
    if x.size:
        lo = int(x.min())
        if fits_dense_table(int(x.max()) - lo, x.size):
            inverse = x - lo
            hist = np.bincount(inverse)
            present = np.flatnonzero(hist > 0)
            counts = hist[present]
            rank = hist  # reused: absent values are never looked up
            rank[present] = np.arange(present.size)
            # Ranked in place a block at a time: beside the input and the
            # result, only one block is held.
            for at in range(0, x.size, _RANK_BLOCK):
                block = inverse[at : at + _RANK_BLOCK]
                rank.take(block, out=block)
            return present + lo, counts, inverse
    symbols, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return symbols, counts, inverse


def _checked(samples, channel_id: int) -> np.ndarray:
    """The samples as 1-D int64, once they fit 32 bits and the id is valid."""
    arr = as_samples(samples)
    if arr.size and (int(arr.min()) < INT32_MIN or int(arr.max()) > INT32_MAX):
        raise ValueError("samples exceed the signed 32-bit range")
    if channel_id < 0:
        raise ValueError("channel_id must be non-negative")
    return arr


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """One channel of integer samples in chronological order."""

    samples: np.ndarray
    channel_id: int = 0

    def __post_init__(self):
        arr = _checked(self.samples, self.channel_id).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @classmethod
    def _adopt(cls, samples: np.ndarray, channel_id: int) -> TimeSeries:
        """A series over ``samples``, an array its caller has just made and
        keeps no other reference to: checked as by the constructor, then
        marked read-only in place instead of copied."""
        arr = _checked(samples, channel_id)
        arr.setflags(write=False)
        series = object.__new__(cls)
        object.__setattr__(series, "samples", arr)
        object.__setattr__(series, "channel_id", channel_id)
        return series

    def __len__(self) -> int:
        return int(self.samples.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return self.channel_id == other.channel_id and np.array_equal(
            self.samples, other.samples
        )


@dataclass(frozen=True)
class SeriesStats:
    """Spread and entropy summary of one series."""

    cardinality: int
    aad: float
    entropy_bits: float
    shannon_cs: float


@dataclass(frozen=True)
class SizeReport:
    """Original vs compressed size with the derived ratio and score."""

    original_bytes: int
    compressed_bytes: int
    cr: float
    cs: float


def cardinality(series) -> int:
    """Number of distinct sample values; 0 for an empty series."""
    return int(token_histogram(as_samples(series))[0].size)


def aad(series) -> float:
    """Average absolute deviation from center 0: (1/n) * sum(|x_k|)."""
    x = as_samples(series)
    if x.size == 0:
        raise ValueError("undefined on empty input")
    return float(np.abs(x).mean())


def entropy_bits(series) -> float:
    """Empirical entropy of the value distribution in bits per sample."""
    return entropy_and_limit(series).entropy_bits


def entropy_and_limit(series) -> SeriesStats:
    """Cardinality, AAD, empirical entropy, and the Shannon-limit score.

    The score ``1 - H/SAMPLE_BITS`` is the best compression score any
    order-0 method can reach on this value distribution, relative to a
    fixed-width encoding of ``SAMPLE_BITS`` bits per sample.
    """
    x = as_samples(series)
    symbols, counts, _ = token_histogram(x)
    p = counts / x.size
    h = float(-np.sum(p * np.log2(p)))
    return SeriesStats(
        cardinality=int(symbols.size),
        aad=aad(x),
        entropy_bits=h,
        shannon_cs=1.0 - h / SAMPLE_BITS,
    )


def source_bytes(channels) -> int:
    """Uncompressed size of the channels at ``SAMPLE_BITS`` per sample."""
    return sum(len(ch) for ch in channels) * SAMPLE_BITS // 8


def size_metrics(original_bytes: int, compressed_bytes: int) -> SizeReport:
    """Compression ratio CR and score CS = 1 - 1/CR.

    CS may be negative when compression expanded the data; reporting layers
    may clamp it for display, the value itself is kept exact.
    """
    if original_bytes < 1 or compressed_bytes < 1:
        raise ValueError("sizes must be positive")
    cr = original_bytes / compressed_bytes
    return SizeReport(
        original_bytes=int(original_bytes),
        compressed_bytes=int(compressed_bytes),
        cr=cr,
        cs=1.0 - 1.0 / cr,
    )


def compression_speed_mb_s(original_bytes: int, seconds: float) -> float:
    """Throughput in megabytes (1e6 bytes) of source data per second."""
    if seconds <= 0:
        return math.inf
    return original_bytes / 1e6 / seconds
