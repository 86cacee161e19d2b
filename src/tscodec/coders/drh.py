"""Static magnitude-category code for signed integers.

Each value is coded as its category k (the bit length of |v|, with k = 0
for zero) followed by k magnitude/sign bits. The category uses a fixed
unary code, k ones then a zero, so the code needs no header and spends
fewer bits on smaller magnitudes:

    0  -> "0"
    +1 -> "10" + "1"
    -1 -> "10" + "0"

Magnitude bits follow the JPEG convention: the low k bits of v for
positive values, the low k bits of v-1 (two's complement) for negative
ones, so the top magnitude bit doubles as the sign.

Encoding computes codewords ``bitio.PACK_TOKENS`` tokens at a time, so
beside its input and payload it holds one block. Decoding runs the shared
chunked prefix kernel of ``bitio``: the category is ones ending at a 0,
and the k bits after it are the magnitude bits. Working memory is bounded
by ``bitio.CHUNK_BITS``, not by the payload. A category is at most
``bitio.MAX_PREFIX``, so magnitudes of 2^31 and more are not encoded, and
a higher category raises ``FormatError`` on decode.
"""

from __future__ import annotations

import numpy as np

from ..core import as_samples
from .bitio import BitStream, bit_length_u64, decode_prefix_codes, pack_codes


def _codewords(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    k = bit_length_u64(np.abs(v))
    m = np.where(v > 0, v, v + (np.int64(1) << k) - 1).astype(np.uint64)
    ones = (np.uint64(1) << k.astype(np.uint64)) - np.uint64(1)
    # Codeword bits: k ones, one zero, then k magnitude bits.
    return (ones << (k + 1).astype(np.uint64)) | m, 2 * k + 1


def encode(values) -> BitStream:
    return pack_codes(as_samples(values), _codewords)


def _value(k: np.ndarray, magnitude: np.ndarray) -> np.ndarray:
    m = magnitude.astype(np.int64)
    full = np.int64(1) << k
    # A clear top magnitude bit marks a negative value (k = 0 gives 0).
    return np.where(m < full >> 1, m - full + 1, m)


def decode(stream: BitStream | bytes, count: int) -> np.ndarray:
    return decode_prefix_codes(stream, count, 0, _value)
