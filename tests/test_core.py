import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tscodec.core import (
    INT32_MAX,
    INT32_MIN,
    TimeSeries,
    aad,
    cardinality,
    compression_speed_mb_s,
    entropy_and_limit,
    entropy_bits,
    size_metrics,
    source_bytes,
    token_histogram,
)

series_values = st.lists(st.integers(min_value=-32768, max_value=32767), min_size=1, max_size=200)


class TestTimeSeries:
    def test_length_and_equality(self):
        a = TimeSeries(samples=np.array([1, 2, 3]))
        b = TimeSeries(samples=[1, 2, 3])
        assert len(a) == 3
        assert a == b
        assert a.__eq__(1) is NotImplemented and a != 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            TimeSeries(samples=[1 << 31])

    def test_rejects_negative_channel(self):
        with pytest.raises(ValueError):
            TimeSeries(samples=[1], channel_id=-1)

    def test_samples_are_immutable(self):
        ts = TimeSeries(samples=[1, 2])
        with pytest.raises(ValueError):
            ts.samples[0] = 9

    def test_rejects_more_than_one_dimension(self):
        with pytest.raises(ValueError, match="series must be one-dimensional"):
            TimeSeries(samples=[[1, 2], [3, 4]])

    def test_samples_are_an_int64_copy(self):
        source = np.array([1, 2], dtype=np.int64)
        ts = TimeSeries(samples=source)
        source[0] = 9
        assert ts.samples.tolist() == [1, 2]
        assert TimeSeries(samples=np.array([3], dtype=np.int16)).samples.dtype == np.int64

    def test_adopt_keeps_the_array_read_only_and_checks_it(self):
        arr = np.array([5, -7], dtype=np.int64)
        ts = TimeSeries._adopt(arr, 3)
        assert ts.samples is arr and not arr.flags.writeable
        assert ts == TimeSeries(samples=[5, -7], channel_id=3)
        with pytest.raises(ValueError, match="signed 32-bit range"):
            TimeSeries._adopt(np.array([1 << 31]), 0)
        with pytest.raises(ValueError, match="channel_id must be non-negative"):
            TimeSeries._adopt(np.array([1]), -1)


class TestCardinality:
    def test_basic(self):
        assert cardinality([1, 1, 2, 3]) == 3

    def test_constant(self):
        assert cardinality([7] * 123) == 1

    def test_empty(self):
        assert cardinality([]) == 0


class TestAad:
    def test_mixed_signs(self):
        assert aad([1, -2, 3]) == 2.0

    def test_all_zero(self):
        assert aad([0] * 10) == 0.0

    def test_alternating(self):
        assert aad([-5, 5, -5, 5]) == 5.0

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty"):
            aad([])


class TestSizeMetrics:
    @pytest.mark.parametrize(
        "orig,comp,cr,cs",
        [(1000, 500, 2.0, 0.5), (1000, 1000, 1.0, 0.0), (1000, 80, 12.5, 0.92)],
    )
    def test_examples(self, orig, comp, cr, cs):
        r = size_metrics(orig, comp)
        assert r.cr == pytest.approx(cr)
        assert r.cs == pytest.approx(cs)

    def test_expansion_gives_negative_cs(self):
        assert size_metrics(100, 200).cs == pytest.approx(-1.0)

    def test_zero_size_errors(self):
        with pytest.raises(ValueError):
            size_metrics(0, 10)
        with pytest.raises(ValueError):
            size_metrics(10, 0)

    def test_speed_over_no_time_is_infinite(self):
        assert compression_speed_mb_s(3_000_000, 1.5) == 2.0
        assert compression_speed_mb_s(3_000_000, 0.0) == math.inf

    def test_source_bytes_counts_16_bit_samples_over_all_channels(self):
        channels = [TimeSeries(samples=[1, 2, 3]), TimeSeries(samples=[4], channel_id=1)]
        assert source_bytes(channels) == 8

    @given(st.integers(1, 10**9), st.integers(1, 10**9))
    def test_cs_cr_identity(self, orig, comp):
        r = size_metrics(orig, comp)
        assert r.cs == pytest.approx(1.0 - 1.0 / r.cr, abs=1e-12)


class TestEntropy:
    def test_constant_series(self):
        s = entropy_and_limit([42] * 100)
        assert s.entropy_bits == 0.0
        assert s.shannon_cs == 1.0
        assert s.cardinality == 1

    def test_uniform_full_16bit_alphabet(self):
        s = entropy_and_limit(np.arange(-32768, 32768))
        assert s.entropy_bits == pytest.approx(16.0)
        assert s.shannon_cs == pytest.approx(0.0, abs=1e-12)

    def test_two_equiprobable_values(self):
        s = entropy_and_limit([3, 9] * 500)
        assert s.entropy_bits == pytest.approx(1.0)
        assert s.shannon_cs == pytest.approx(0.9375)

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="^undefined on empty input$"):
            entropy_and_limit([])

    @given(series_values)
    def test_entropy_bounded_by_log_cardinality(self, values):
        h = entropy_bits(values)
        assert -1e-9 <= h <= math.log2(max(cardinality(values), 1)) + 1e-9

    def test_equality_on_uniform(self):
        values = np.repeat(np.arange(32), 7)
        assert entropy_bits(values) == pytest.approx(5.0)

    @given(series_values.filter(len))
    def test_stats_equal_the_single_measures(self, values):
        s = entropy_and_limit(values)
        assert s.cardinality == cardinality(values)
        assert s.entropy_bits == entropy_bits(values)
        assert s.aad == aad(values)

    @given(series_values)
    def test_self_concatenation_invariance(self, values):
        twice = values + values
        assert cardinality(twice) == cardinality(values)
        assert aad(twice) == pytest.approx(aad(values))
        assert entropy_bits(twice) == pytest.approx(entropy_bits(values))


class TestTokenHistogram:
    """``token_histogram`` against ``np.unique`` on both of its branches."""

    @pytest.mark.parametrize(
        "values,branch",
        [
            ([0, 1 << 17, 5], "bincount"),  # span at the threshold max(n, 2^17)
            ([0, (1 << 17) + 1, 5], "unique"),  # one above it
            (np.r_[np.arange(140_000), 140_001], "bincount"),  # span == n > 2^17
            (np.r_[np.arange(140_000), 140_002], "unique"),  # span == n + 1
            ([7], "bincount"),
            ([-3] * 9, "bincount"),
            ([-40, -7, -40, -1, -7], "bincount"),
            ([INT32_MAX, INT32_MAX], "bincount"),
            ([INT32_MIN, INT32_MIN + 3, INT32_MIN], "bincount"),
            ([INT32_MIN, 0, INT32_MAX, 0], "unique"),
            ([], "unique"),
        ],
    )
    def test_matches_unique(self, values, branch, monkeypatch):
        x = np.asarray(values, dtype=np.int64)
        want_symbols, want_inverse, want_counts = np.unique(
            x, return_inverse=True, return_counts=True
        )
        sorts = []
        real_unique = np.unique

        def counting_unique(*args, **kwargs):
            sorts.append(args)
            return real_unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counting_unique)
        symbols, counts, inverse = token_histogram(x)
        monkeypatch.undo()
        assert ("unique" if sorts else "bincount") == branch
        for got, want in ((symbols, want_symbols), (counts, want_counts), (inverse, want_inverse)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @given(
        st.lists(st.integers(-300, 300), min_size=1, max_size=200)
        | st.lists(st.integers(INT32_MIN, INT32_MAX), min_size=1, max_size=50)
    )
    def test_matches_unique_on_random_tokens(self, values):
        want = np.unique(values, return_inverse=True, return_counts=True)
        symbols, counts, inverse = token_histogram(values)
        assert np.array_equal(symbols, want[0])
        assert np.array_equal(inverse, want[1])
        assert np.array_equal(counts, want[2])

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 64) | st.integers((1 << 17) - 4, (1 << 17) + 64),
        beyond=st.integers(-3, 3),
        lo=st.integers(INT32_MIN, INT32_MAX - (1 << 18)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_unique_near_the_span_bound(self, n, beyond, lo, seed):
        # Spans a few values either side of the bound max(n, 2^17), with n
        # on both sides of 2^17: spans past the bound sort, the rest count.
        span = max(n, 1 << 17) + beyond
        rng = np.random.default_rng(seed)
        x = lo + rng.integers(0, span + 1, n)
        x[rng.choice(n, 2, replace=False)] = lo, lo + span
        want_symbols, want_inverse, want_counts = np.unique(
            x, return_inverse=True, return_counts=True
        )
        symbols, counts, inverse = token_histogram(x)
        for got, want in ((symbols, want_symbols), (counts, want_counts), (inverse, want_inverse)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_rank_gather_holds_no_block_buffer(self):
        """Beside the input, ``inverse`` (8 bytes per token), the bincount
        table and the per-symbol arrays, the dense branch holds under 16 KB
        at 2^17 and 2^20 tokens: the ranks are gathered in place, with no
        buffer of the output."""
        symbols = 100
        for n in (1 << 17, 1 << 20):
            x = np.random.default_rng(n).permutation(np.arange(n) % symbols)
            tracemalloc.start()
            try:
                token_histogram(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # The table has one 8-byte count per value; four arrays of 8-byte
            # entries have one per symbol.
            assert peak - 8 * n - 8 * symbols - 4 * 8 * symbols < 16_000, n
