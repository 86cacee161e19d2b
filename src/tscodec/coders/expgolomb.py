"""Exponential-Golomb universal code for non-negative integers.

A value n is written as L-1 zeros followed by the L-bit binary
representation of n+1, where L = floor(log2(n+1)) + 1. The codeword for n
therefore spends 2*floor(log2(n+1)) + 1 bits; signed inputs go through
zigzag before reaching this coder.

Encoding computes codewords ``bitio.PACK_TOKENS`` tokens at a time, so
beside its input and payload it holds one block. Decoding runs the shared
chunked prefix kernel of ``bitio``: the prefix is zeros ending at a 1, and
the codeword value is that 1 followed by the k suffix bits, minus one.
Working memory is bounded by ``bitio.CHUNK_BITS``, not by the payload. A
codeword has at most ``bitio.MAX_PREFIX`` zeros, so values of 2^32 - 1 and
more are not encoded, and a longer prefix raises ``FormatError`` on
decode.
"""

from __future__ import annotations

import numpy as np

from ..core import as_samples
from .bitio import BitStream, bit_length_u64, decode_prefix_codes, pack_codes


def code_lengths(values) -> np.ndarray:
    v = as_samples(values)
    if v.size and int(v.min()) < 0:
        raise ValueError("Exp-Golomb requires non-negative values")
    return 2 * (bit_length_u64(v + 1) - 1) + 1


def _codewords(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The codeword of n is just n+1 in a field of its code length: the
    # leading zeros of the field form the unary prefix.
    return (v + 1).astype(np.uint64), code_lengths(v)


def encode(values) -> BitStream:
    return pack_codes(as_samples(values), _codewords)


def _value(k: np.ndarray, suffix: np.ndarray) -> np.ndarray:
    return (suffix | (np.uint64(1) << k.astype(np.uint64))).astype(np.int64) - 1


def decode(stream: BitStream | bytes, count: int) -> np.ndarray:
    return decode_prefix_codes(stream, count, 1, _value)
