import bz2
import lzma
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tscodec.backends import (
    BACKEND_IDS,
    BackendDescriptor,
    availability_report,
    backend_compress,
    backend_decompress,
    deserialize_series,
    is_available,
    serialize_series,
)
from tscodec.errors import BackendUnavailableError, FormatError, TscodecError, UnknownBackendError
from tscodec.synth import SynthSpec, generate
from tscodec.transforms import TransformChain, chain_apply, chain_invert

AVAILABLE = [b for b in BACKEND_IDS if is_available(b)]
MISSING = [b for b in BACKEND_IDS if not is_available(b)]


class TestSerialize:
    def test_16bit_little_endian(self):
        data, width = serialize_series([1, -1])
        assert width == 2
        assert data == b"\x01\x00\xff\xff"

    def test_empty(self):
        data, width = serialize_series([])
        assert data == b"" and width == 2

    def test_wide_values_pick_32bit(self):
        data, width = serialize_series([70000])
        assert width == 4
        assert deserialize_series(data, width, 1).tolist() == [70000]

    def test_out_of_range_errors(self):
        for value in (-(2**31) - 1, 2**31):
            with pytest.raises(ValueError, match="out of range for 32-bit serialization"):
                serialize_series([0, value])

    @pytest.mark.parametrize(
        ("data", "width", "count", "message"),
        [
            (b"\x00" * 3, 3, 1, "width must be 2 or 4"),
            (b"\x00" * 4, 2, 3, "byte length does not match count and width"),
        ],
    )
    def test_deserialize_rejects_a_bad_width_or_length(self, data, width, count, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            deserialize_series(data, width, count)

    @settings(max_examples=50)
    @given(st.lists(st.integers(-(2**31), 2**31 - 1), max_size=200))
    def test_roundtrip_both_widths(self, values):
        data, w = serialize_series(values)
        assert w == (2 if all(-32768 <= v <= 32767 for v in values) else 4)
        assert deserialize_series(data, w, len(values)).tolist() == values


class TestRegistry:
    def test_unknown_backend_rejected(self):
        with pytest.raises(UnknownBackendError, match="unregistered backend"):
            BackendDescriptor("paq8")
        with pytest.raises(UnknownBackendError, match="unregistered backend"):
            is_available("paq8")

    def test_report_covers_every_backend(self):
        report = availability_report()
        assert set(report) == set(BACKEND_IDS)

    def test_default_levels(self):
        assert BackendDescriptor("deflate").effective_level == 9
        assert BackendDescriptor("zstd").effective_level == 19
        assert BackendDescriptor("brotli").effective_level == 10
        assert BackendDescriptor("bzip2").effective_level == 9
        assert BackendDescriptor("lzma").effective_level == 6
        assert BackendDescriptor("pcodec").effective_level == 12
        assert BackendDescriptor("deflate", level=1).effective_level == 1

    @pytest.mark.parametrize("backend", MISSING)
    def test_missing_backend_raises_distinct_error(self, backend):
        with pytest.raises(BackendUnavailableError):
            backend_compress(b"x" * 16, BackendDescriptor(backend))


class TestRoundTrips:
    @pytest.mark.parametrize("backend", AVAILABLE)
    def test_identity_on_random_megabyte(self, backend):
        rng = np.random.default_rng(0)
        payload = rng.integers(0, 256, 1 << 20).astype(np.uint8).tobytes()
        desc = BackendDescriptor(backend)
        assert backend_decompress(backend_compress(payload, desc), desc, len(payload)) == payload

    @pytest.mark.parametrize("backend", AVAILABLE)
    def test_identity_on_structured_data(self, backend):
        series = generate(SynthSpec(case="sine", n=20000, seed=0))
        data, _ = serialize_series(series)
        desc = BackendDescriptor(backend)
        assert backend_decompress(backend_compress(data, desc), desc, len(data)) == data

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            backend_compress(b"", BackendDescriptor("deflate"))

    def test_deflate_output_is_stock_zlib(self):
        import zlib

        out = backend_compress(b"hello hello hello", BackendDescriptor("deflate"))
        assert zlib.decompress(out) == b"hello hello hello"


# Stock one-shot compressors of the stdlib backends; lzma preset 0 keeps the
# decoder's dictionary at 256 KiB, far below the bomb's output.
STDLIB_COMPRESS = {
    "deflate": lambda data: zlib.compress(data, 9),
    "bzip2": lambda data: bz2.compress(data, 9),
    "lzma": lambda data: lzma.compress(data, preset=0),
}
SAMPLE = bytes(range(256)) * 8


class TestBoundedDecode:
    @pytest.mark.parametrize("backend", STDLIB_COMPRESS)
    def test_bomb_stops_one_byte_past_the_expected_size(self, backend):
        bomb = STDLIB_COMPRESS[backend](bytes(8 << 20))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="unexpected size"):
                backend_decompress(bomb, BackendDescriptor(backend), 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("backend", STDLIB_COMPRESS)
    def test_bytes_after_the_stream_are_rejected(self, backend):
        payload = STDLIB_COMPRESS[backend](SAMPLE)
        for tail in (b"junk", payload):
            with pytest.raises(FormatError, match="trailing bytes"):
                backend_decompress(payload + tail, BackendDescriptor(backend), len(SAMPLE))

    @pytest.mark.parametrize("backend", STDLIB_COMPRESS)
    def test_every_flipped_byte_raises_format_error(self, backend):
        payload = STDLIB_COMPRESS[backend](SAMPLE)
        for i in range(len(payload)):
            corrupt = bytearray(payload)
            corrupt[i] ^= 0xFF
            with pytest.raises(FormatError):
                backend_decompress(bytes(corrupt), BackendDescriptor(backend), len(SAMPLE))

    @pytest.mark.parametrize("backend", STDLIB_COMPRESS)
    def test_cut_stream_is_truncated(self, backend):
        payload = STDLIB_COMPRESS[backend](SAMPLE)
        with pytest.raises(FormatError, match="truncated"):
            backend_decompress(payload[:-1], BackendDescriptor(backend), len(SAMPLE))

    def test_compress_failure_stays_a_backend_error(self):
        with pytest.raises(TscodecError, match="backend 'deflate' failed") as info:
            backend_compress(SAMPLE, BackendDescriptor("deflate", level=99))
        assert not isinstance(info.value, FormatError)


class TestLevels:
    def test_deflate_high_level_beats_low_on_delta_sine(self):
        series = generate(SynthSpec(case="sine", n=20000, seed=0))
        tokens, _ = chain_apply(series, TransformChain(("delta",)))
        data, _ = serialize_series(tokens)
        hi = backend_compress(data, BackendDescriptor("deflate", level=9))
        lo = backend_compress(data, BackendDescriptor("deflate", level=1))
        assert len(hi) < len(lo)

    @pytest.mark.skipif("zstd" not in AVAILABLE, reason="zstd backend not installed")
    def test_zstd_level_19_beats_level_1_on_delta_sine(self):
        series = generate(SynthSpec(case="sine", n=20000, seed=0))
        tokens, _ = chain_apply(series, TransformChain(("delta",)))
        data, _ = serialize_series(tokens)
        hi = backend_compress(data, BackendDescriptor("zstd", level=19))
        lo = backend_compress(data, BackendDescriptor("zstd", level=1))
        assert len(hi) < len(lo)


class TestComposability:
    @pytest.mark.parametrize("backend", AVAILABLE)
    @pytest.mark.parametrize("label", ["delta", "delta,rle0,quars"])
    def test_chain_serialize_backend_pipeline(self, backend, label):
        series = generate(SynthSpec(case="switching", n=8000, seed=2))
        chain = TransformChain.parse(label)
        tokens, qmap = chain_apply(series, chain)
        data, width = serialize_series(tokens)
        desc = BackendDescriptor(backend)
        blob = backend_compress(data, desc)
        restored = deserialize_series(backend_decompress(blob, desc, len(data)), width, tokens.size)
        assert np.array_equal(chain_invert(restored, chain, qmap), series.samples)
