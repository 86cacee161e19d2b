"""Encode and decode micro-benchmarks, one per internal coder.

Each benchmark encodes or decodes the tokens of the synthetic ``noise``
series (n = 1e5, seed 0, chain delta,rle0,quars) through the coder registry,
once, and checks the round trip. A plain pytest run uses them as round-trip
tests; ``pytest tests/test_decode_bench.py --benchmark-only`` prints the
per-coder encode and decode times.
"""

import numpy as np
import pytest

from tscodec import SynthSpec, TransformChain
from tscodec.backends import serialize_series
from tscodec.coders import INTERNAL_CODER_NAMES, get_coder
from tscodec.synth import generate
from tscodec.transforms import chain_apply


@pytest.fixture(scope="module")
def tokens():
    series = generate(SynthSpec(case="noise", n=100_000, seed=0))
    tokens, _ = chain_apply(series.samples, TransformChain.parse("delta,rle0,quars"))
    return tokens


def coder_input(info, tokens):
    """(input, token count) of a coder: tokens, or their serialization."""
    if info.kind == "symbol":
        return tokens, tokens.size
    data, _ = serialize_series(tokens)
    return data, len(data)


def check_roundtrip(info, out, expected):
    if info.kind == "symbol":
        assert np.array_equal(out, expected)
    else:
        assert out == expected


@pytest.mark.parametrize("name", INTERNAL_CODER_NAMES)
def test_encode(benchmark, tokens, name):
    info = get_coder(name)
    data, count = coder_input(info, tokens)
    benchmark.group = "encode"
    header, payload = benchmark.pedantic(info.encode, args=(data,), rounds=1, iterations=1)
    check_roundtrip(info, info.decode(header, payload, count), data)


@pytest.mark.parametrize("name", INTERNAL_CODER_NAMES)
def test_decode(benchmark, tokens, name):
    info = get_coder(name)
    expected, count = coder_input(info, tokens)
    header, payload = info.encode(expected)
    benchmark.group = "decode"
    out = benchmark.pedantic(info.decode, args=(header, payload, count), rounds=1, iterations=1)
    check_roundtrip(info, out, expected)
