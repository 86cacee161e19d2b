"""Encode and decode micro-benchmarks, one per internal coder and per
transform layer.

Each coder benchmark encodes or decodes the tokens of the synthetic
``noise`` series (n = 1e5, seed 0, chain delta,rle0,quars) through the coder
registry, once, and checks the round trip. The decode benchmarks also run
on the ``sine`` series' tokens, whose codewords are short (about 4.7 bits
for expgolomb and drh), and LZSS decodes one short-matrix-sized input: the
serialized tokens of a 2,000-sample ``noise`` series. The transform benchmarks run
rle0 on that series' deltas and QuaRs on the rle0 tokens. The token
histogram and QuaRs also run on the delta,rle0 tokens of one 50,000-row
``noise`` column quantized to 16 bits as the wide-bitpack workload's are;
they span 131,070 values. The bitpack
kernel benchmarks pack the zigzagged deltas of one 50,000-sample series of
each synthetic case, quantized to 16 bits as the columns of the
wide-bitpack workload are; their block widths span 4-17 bits. The
container benchmark reads one ``delta,rle0,quars`` bitpack container of
32 such columns, cycling through the synthetic cases as the wide-bitpack
workload does, and checks every channel. The
generator benchmark builds the 100,000-sample ``switching`` series and
checks it against the segment-at-a-time oracle. The range model
benchmarks quantize the noise tokens' counts, whose floored sum is short
of the model total, and 9,999 singletons beside one count of 6,500, whose
floored sum is over it; each checks the one-unit-at-a-time oracle. A plain
pytest run uses them as round-trip tests; ``pytest
tests/test_decode_bench.py --benchmark-only`` prints the per-layer encode
and decode times.
"""

import numpy as np
import pytest

import oracles
from tscodec import SynthSpec, TimeSeries, TransformChain
from tscodec.backends import serialize_series
from tscodec.coders import INTERNAL_CODER_NAMES, bitpack, get_coder, rangecoder
from tscodec.container import build_container, read_container
from tscodec.core import token_histogram
from tscodec.ingest import ingest_column
from tscodec.synth import CASES, generate
from tscodec.transforms import (
    chain_apply,
    delta_encode,
    quars_decode,
    quars_encode,
    rle0_decode,
    rle0_encode,
    zigzag,
)


@pytest.fixture(scope="module")
def series():
    return generate(SynthSpec(case="noise", n=100_000, seed=0))


@pytest.fixture(scope="module")
def deltas(series):
    return delta_encode(series.samples)


@pytest.fixture(scope="module")
def runs(deltas):
    return rle0_encode(deltas)


def chain_tokens(case, n):
    series = generate(SynthSpec(case=case, n=n, seed=0))
    tokens, _ = chain_apply(series.samples, TransformChain.parse("delta,rle0,quars"))
    return tokens


@pytest.fixture(scope="module")
def tokens():
    return chain_tokens("noise", 100_000)


@pytest.fixture(scope="module")
def sine_tokens():
    return chain_tokens("sine", 100_000)


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


@pytest.mark.parametrize("name", INTERNAL_CODER_NAMES)
def test_decode_sine(benchmark, sine_tokens, name):
    info = get_coder(name)
    expected, count = coder_input(info, sine_tokens)
    header, payload = info.encode(expected)
    benchmark.group = "decode sine"
    out = benchmark.pedantic(info.decode, args=(header, payload, count), rounds=1, iterations=1)
    check_roundtrip(info, out, expected)


def test_lzss_decode_short(benchmark):
    info = get_coder("lzss")
    expected, count = coder_input(info, chain_tokens("noise", 2_000))
    header, payload = info.encode(expected)
    benchmark.group = "decode short"
    out = benchmark.pedantic(info.decode, args=(header, payload, count), rounds=1, iterations=1)
    check_roundtrip(info, out, expected)


def test_rle0_encode(benchmark, deltas):
    benchmark.group = "transform encode"
    out = benchmark.pedantic(rle0_encode, args=(deltas,), rounds=1, iterations=1)
    assert np.array_equal(rle0_decode(out), deltas)


def test_rle0_decode(benchmark, deltas, runs):
    benchmark.group = "transform decode"
    out = benchmark.pedantic(rle0_decode, args=(runs,), rounds=1, iterations=1)
    assert np.array_equal(out, deltas)


def test_quars_encode(benchmark, runs):
    benchmark.group = "transform encode"
    mapped, qmap = benchmark.pedantic(quars_encode, args=(runs,), rounds=1, iterations=1)
    assert np.array_equal(quars_decode(mapped, qmap), runs)


def test_quars_decode(benchmark, runs):
    mapped, qmap = quars_encode(runs)
    benchmark.group = "transform decode"
    out = benchmark.pedantic(quars_decode, args=(mapped, qmap), rounds=1, iterations=1)
    assert np.array_equal(out, runs)


@pytest.fixture(scope="module")
def noise_column_runs():
    """delta,rle0 tokens of one wide-bitpack-style ``noise`` column."""
    series = generate(SynthSpec(case="noise", n=50_000, seed=0))
    column, _ = ingest_column(series.samples / 100.0)
    return rle0_encode(delta_encode(column))


def test_token_histogram_wide_span(benchmark, noise_column_runs):
    benchmark.group = "token histogram"
    symbols, counts, inverse = benchmark.pedantic(
        token_histogram, args=(noise_column_runs,), rounds=1, iterations=1
    )
    want = np.unique(noise_column_runs, return_inverse=True, return_counts=True)
    for got, expected in zip((symbols, inverse, counts), want):
        assert np.array_equal(got, expected)


def test_quars_encode_wide_span(benchmark, noise_column_runs):
    benchmark.group = "transform encode"
    mapped, qmap = benchmark.pedantic(quars_encode, args=(noise_column_runs,), rounds=1, iterations=1)
    assert np.array_equal(quars_decode(mapped, qmap), noise_column_runs)


def test_quars_decode_wide_span(benchmark, noise_column_runs):
    mapped, qmap = quars_encode(noise_column_runs)
    benchmark.group = "transform decode"
    out = benchmark.pedantic(quars_decode, args=(mapped, qmap), rounds=1, iterations=1)
    assert np.array_equal(out, noise_column_runs)


@pytest.fixture(scope="module", params=CASES)
def column_deltas(request):
    """Zigzagged deltas of one wide-bitpack-style column of a synthetic case."""
    series = generate(SynthSpec(case=request.param, n=50_000, seed=0))
    column, _ = ingest_column(series.samples / 100.0)
    return zigzag(delta_encode(column))


def test_bitpack_kernel_encode(benchmark, column_deltas):
    benchmark.group = "bitpack kernel encode"
    data = benchmark.pedantic(bitpack.encode, args=(column_deltas,), rounds=1, iterations=1)
    assert np.array_equal(bitpack.decode(data, column_deltas.size), column_deltas)


def test_bitpack_kernel_decode(benchmark, column_deltas):
    data = bitpack.encode(column_deltas)
    benchmark.group = "bitpack kernel decode"
    out = benchmark.pedantic(bitpack.decode, args=(data, column_deltas.size), rounds=1, iterations=1)
    assert np.array_equal(out, column_deltas)


@pytest.fixture(scope="module")
def wide_columns():
    """32 wide-bitpack-style columns of 50,000 rows, one synthetic case after another."""
    columns = []
    for i in range(32):
        series = generate(SynthSpec(case=CASES[i % len(CASES)], n=50_000, seed=i))
        columns.append(TimeSeries(ingest_column(series.samples / 100.0)[0], i))
    return columns


def test_read_wide_bitpack_container(benchmark, wide_columns):
    blob = build_container(wide_columns, TransformChain.parse("delta,rle0,quars"), "bitpack")
    benchmark.group = "container decode"
    decoded = benchmark.pedantic(read_container, args=(blob,), rounds=1, iterations=1)
    assert len(decoded.channels) == len(wide_columns)
    for got, want in zip(decoded.channels, wide_columns):
        assert np.array_equal(got.samples, want.samples)


def test_switching_generate(benchmark):
    spec = SynthSpec(case="switching", n=100_000, seed=0)
    benchmark.group = "synth"
    series = benchmark.pedantic(generate, args=(spec,), rounds=1, iterations=1)
    assert np.array_equal(series.samples, oracles.synth_switching(spec))


@pytest.fixture(params=["short", "over"])
def model_counts(request, tokens):
    """Token counts whose floored range model is short of its total, or over it."""
    if request.param == "short":
        counts = token_histogram(tokens)[1]
    else:
        # 69 over, so the oracle needs 69 passes over the 10,000 counts.
        counts = np.concatenate([[6_500], np.ones(9_999, dtype=np.int64)])
    floored = np.maximum(1, counts * rangecoder.TOTAL // int(counts.sum()))
    assert (int(floored.sum()) < rangecoder.TOTAL) == (request.param == "short")
    return counts


def test_quantize_counts(benchmark, model_counts):
    n = int(model_counts.sum())
    benchmark.group = "range model"
    q = benchmark.pedantic(rangecoder.quantize_counts, args=(model_counts, n), rounds=1, iterations=1)
    assert q.tolist() == oracles.quantize_counts(model_counts, n).tolist()
