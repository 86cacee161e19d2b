"""Transform stage tests.

The QuaRs expectations are frozen from a brute-force oracle (see
``quars_oracle``) that re-derives the frequency ranking and alternating
placement independently of the library implementation. The differential
tests compare rle0 and the QuaRs map with the per-token implementations in
``oracles.py``.
"""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from tscodec import transforms
from tscodec.container import build_container
from tscodec.core import INT32_MAX, INT32_MIN, TimeSeries, aad, cardinality, fits_dense_table
from tscodec.errors import FormatError
from tscodec.ingest import ingest_column
from tscodec.synth import CASES, SynthSpec, generate, suite
from tscodec.transforms import (
    QuarsMap,
    TransformChain,
    chain_apply,
    chain_invert,
    delta_decode,
    delta_encode,
    quars_decode,
    quars_encode,
    rle0_decode,
    rle0_encode,
    unzigzag,
    zigzag,
)

int16_series = st.lists(st.integers(-32768, 32767), min_size=1, max_size=300)
# Few distinct values (the bincount branch of token_histogram) or spans
# wider than any list here (the sorting branch).
token_series = st.lists(st.integers(-4, 4), min_size=1, max_size=300) | st.lists(
    st.integers(INT32_MIN, INT32_MAX), min_size=1, max_size=40
)


def outcome(fn, *args):
    """What a call returns as a list, or the type and message it raises."""
    try:
        return fn(*args).tolist()
    except (ValueError, FormatError) as exc:
        return type(exc), str(exc)


def quars_oracle(values):
    """Independent per-value frequency ranking with alternating placement.

    Only valid when every distinct value gets its own bin. Ranks sort by
    (count desc, value asc); rank 0 maps to 0, odd ranks stack upward from
    +1, even ranks stack downward from -1.
    """
    from collections import Counter

    counts = Counter(values)
    ranked = sorted(counts, key=lambda v: (-counts[v], v))
    mapping = {}
    pos, neg = 1, -1
    for rank, v in enumerate(ranked):
        if rank == 0:
            mapping[v] = 0
        elif rank % 2 == 1:
            mapping[v] = pos
            pos += 1
        else:
            mapping[v] = neg
            neg -= 1
    return [mapping[v] for v in values]


class TestDelta:
    def test_example(self):
        assert delta_encode([5, 7, 7, 4]).tolist() == [5, 2, 0, -3]

    def test_constant(self):
        assert delta_encode([9, 9, 9]).tolist() == [9, 0, 0]

    def test_single_sample(self):
        assert delta_encode([9]).tolist() == [9]

    def test_decode_example(self):
        assert delta_decode([5, 2, 0, -3]).tolist() == [5, 7, 7, 4]

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            delta_encode([])
        with pytest.raises(ValueError):
            delta_decode([])

    def test_corrupt_stream_overflow(self):
        with pytest.raises(FormatError, match="corrupt delta stream"):
            delta_decode([2**31 - 1, 2**31 - 1])

    def test_thousand_random_roundtrips(self):
        rng = np.random.default_rng(20240817)
        for _ in range(1000):
            n = int(rng.integers(1, 400))
            x = rng.integers(-32768, 32768, n)
            assert np.array_equal(delta_decode(delta_encode(x)), x)


class TestRle0:
    def test_example(self):
        assert rle0_encode([5, 0, 0, 0, 7]).tolist() == [5, 0, 3, 7]

    def test_single_zero(self):
        assert rle0_encode([0]).tolist() == [0, 1]

    def test_no_zeros_identity(self):
        assert rle0_encode([1, 2, 3]).tolist() == [1, 2, 3]

    def test_decode_examples(self):
        assert rle0_decode([5, 0, 3, 7]).tolist() == [5, 0, 0, 0, 7]
        assert rle0_decode([0, 1]).tolist() == [0]

    def test_trailing_marker_errors(self):
        with pytest.raises(FormatError, match="malformed run token"):
            rle0_decode([5, 0])

    def test_nonpositive_length_errors(self):
        with pytest.raises(FormatError, match="malformed run token"):
            rle0_decode([0, -2])
        with pytest.raises(FormatError, match="malformed run token"):
            rle0_decode([0, 0, 5])

    @given(int16_series)
    def test_roundtrip(self, values):
        assert rle0_decode(rle0_encode(values)).tolist() == values

    def test_never_expands_beyond_one_token_per_run(self):
        rng = np.random.default_rng(7)
        x = rng.integers(-2, 3, 500)
        enc = rle0_encode(x)
        runs = np.sum((x == 0) & np.r_[True, x[:-1] != 0])
        assert enc.size <= x.size + runs

    def test_shrinks_runs_of_three(self):
        x = np.array([1, 0, 0, 0, 2, 0, 0, 0, 0, 3])
        assert rle0_encode(x).size < x.size

    def test_switching_after_delta_halves_length(self):
        # Long constant dwells turn into zero runs; coding them as pairs
        # cuts the stream to less than half its length.
        series = generate(SynthSpec(case="switching", n=10000, seed=0))
        deltas = delta_encode(series.samples)
        tokens = rle0_encode(deltas)
        assert rle0_decode(tokens).tolist() == deltas.tolist()
        assert tokens.size < deltas.size / 2

    @given(st.lists(st.integers(-2, 2), max_size=300) | token_series)
    def test_encode_matches_oracle(self, values):
        assert rle0_encode(values).tolist() == oracles.rle0_encode(values).tolist()

    @pytest.mark.parametrize("case", CASES)
    def test_encode_matches_oracle_on_a_workload_column(self, case):
        # The deltas of one 50,000-row wide-bitpack column, quantized to 16
        # bits from the series scaled as the workload's CSV holds it.
        series = generate(SynthSpec(case=case, n=50_000, seed=0))
        deltas = delta_encode(ingest_column(series.samples / 100.0)[0])
        tokens = rle0_encode(deltas)
        assert np.array_equal(tokens, oracles.rle0_encode(deltas))
        assert np.array_equal(rle0_decode(tokens), deltas)

    @pytest.mark.parametrize(
        "values",
        [
            np.zeros(50_000, dtype=np.int64),
            np.arange(1, 50_001),
            np.r_[np.zeros(7, dtype=np.int64), np.arange(-25_000, 25_000), np.zeros(3, dtype=np.int64)],
        ],
        ids=["all-zeros", "no-zeros", "run-at-each-end"],
    )
    def test_encode_matches_oracle_on_long_inputs(self, values):
        tokens = rle0_encode(values)
        assert np.array_equal(tokens, oracles.rle0_encode(values))
        assert np.array_equal(rle0_decode(tokens), values)

    @given(st.lists(st.integers(-3, 4), max_size=60))
    def test_decode_matches_oracle(self, tokens):
        assert outcome(rle0_decode, tokens) == outcome(oracles.rle0_decode, tokens)

    @pytest.mark.parametrize(
        "tokens",
        [
            [0, 0, 5],  # run length 0
            [4, 0, 2, 0, 0],  # run length 0 before a trailing 0
            [0, 0],
            [5, 0],  # trailing 0
            [0, 1, 0],
            [0, -2],  # non-positive run length
            [3, 0, 2, 1, 0, -1, 7],
            [0, 3, 4, 0, 0, 1],
        ],
    )
    def test_malformed_streams_match_oracle(self, tokens):
        got = outcome(rle0_decode, tokens)
        assert got == outcome(oracles.rle0_decode, tokens)
        assert got[0] is FormatError


class TestZigzag:
    @pytest.mark.parametrize("v,z", [(0, 0), (-1, 1), (1, 2), (-2, 3)])
    def test_small_values(self, v, z):
        assert zigzag([v]).tolist() == [z]

    @given(st.lists(st.integers(-(2**30), 2**30), max_size=50))
    def test_identity(self, values):
        assert unzigzag(zigzag(values)).tolist() == values

    def test_orders_by_magnitude(self):
        z = zigzag(np.arange(-100, 101))
        assert int(z.max()) <= 201

    def test_bit_identities_match_branchy_formulas_at_int32_extremes(self):
        v = np.array([INT32_MIN, INT32_MIN + 1, -2, -1, 0, 1, 2, INT32_MAX - 1, INT32_MAX])
        z = zigzag(v)
        assert z.tolist() == oracles.zigzag(v).tolist()
        assert z.tolist() == [2**32 - 1, 2**32 - 3, 3, 1, 0, 2, 4, 2**32 - 4, 2**32 - 2]
        assert unzigzag(z).tolist() == oracles.unzigzag(z).tolist() == v.tolist()
        u = np.array([0, 1, 2, 3, 2**32 - 2, 2**32 - 1, 2**33 - 1, 2**33])
        assert unzigzag(u).tolist() == oracles.unzigzag(u).tolist()

    @given(st.lists(st.integers(INT32_MIN, INT32_MAX), max_size=200))
    def test_bit_identities_match_branchy_formulas(self, values):
        z = zigzag(values)
        assert z.tolist() == oracles.zigzag(values).tolist()
        assert unzigzag(z).tolist() == oracles.unzigzag(z).tolist() == values

    @given(st.lists(st.integers(0, 2**33), max_size=200))
    def test_unzigzag_matches_branchy_formula(self, tokens):
        assert unzigzag(tokens).tolist() == oracles.unzigzag(tokens).tolist()

    def test_negative_token_rejected(self):
        with pytest.raises(FormatError, match="negative"):
            unzigzag([3, -1])


class TestQuars:
    def test_spec_example_against_oracle(self):
        data = [700, 700, 0, 0, 0, 700, -500]
        expected = quars_oracle(data)
        assert expected == [1, 1, 0, 0, 0, 1, -1]
        mapped, qmap = quars_encode(data)
        assert mapped.tolist() == expected
        assert quars_decode(mapped, qmap).tolist() == data

    def test_identity_on_already_reshuffled_input(self):
        # Frequencies strictly decrease along the 0, +1, -1, +2, -2 order,
        # so the fitted map is the identity.
        data = [0] * 5 + [1] * 4 + [-1] * 3 + [2] * 2 + [-2]
        mapped, _ = quars_encode(data)
        assert mapped.tolist() == data

    @given(int16_series)
    def test_cardinality_preserved(self, values):
        mapped, _ = quars_encode(values)
        assert cardinality(mapped) == cardinality(values)

    @settings(max_examples=60)
    @given(int16_series, st.sampled_from([4, 64, 256]))
    def test_roundtrip(self, values, bins):
        mapped, qmap = quars_encode(values, bins)
        assert quars_decode(mapped, qmap).tolist() == values
        # Every fitted map passes the read-side checks.
        assert quars_decode(mapped, QuarsMap.from_bytes(qmap.to_bytes())).tolist() == values

    def test_thousand_random_roundtrips(self):
        rng = np.random.default_rng(11)
        for i in range(1000):
            n = int(rng.integers(1, 300))
            x = rng.integers(-5000, 5000, n)
            bins = [4, 64, 256][i % 3]
            mapped, qmap = quars_encode(x, bins)
            assert np.array_equal(quars_decode(mapped, qmap), x)

    @given(
        st.lists(st.integers(-500, 500), min_size=1, max_size=60),
        st.integers(-500, 500),
    )
    def test_aad_never_grows_with_dominant_mode(self, rest, mode):
        # Per-value bins and a value holding at least half the samples.
        values = rest + [mode] * len(rest)
        mapped, _ = quars_encode(values, bin_count=2000)
        assert aad(mapped) <= aad(values) + 1e-9

    def test_decode_value_outside_map_errors(self):
        mapped, qmap = quars_encode([1, 1, 5])
        with pytest.raises(FormatError, match="not in QuaRs map"):
            quars_decode([99], qmap)

    def test_quantile_binning_caps_bin_count(self):
        rng = np.random.default_rng(3)
        x = rng.integers(-4000, 4000, 5000)
        mapped, qmap = quars_encode(x, bin_count=64)
        assert qmap.lower_bounds.size <= 64
        assert np.array_equal(quars_decode(mapped, qmap), x)
        assert cardinality(mapped) == cardinality(x)

    def test_map_serialization_roundtrip(self):
        rng = np.random.default_rng(5)
        x = rng.integers(-1000, 1000, 700)
        mapped, qmap = quars_encode(x, bin_count=16)
        restored = QuarsMap.from_bytes(qmap.to_bytes())
        assert np.array_equal(quars_decode(mapped, restored), x)

    def test_fitted_map_with_overlapping_full_widths_is_accepted(self):
        # Bin [0, 5) observed only 0 and 1, so bin [5, 10) is placed at
        # target 2: the full widths overlap, the observed values do not.
        x = [0] * 4 + [1] * 4 + [5, 6, 7, 8, 9]
        mapped, qmap = quars_encode(x, bin_count=2)
        assert qmap.target_offsets.tolist() == [0, 2]
        restored = QuarsMap.from_bytes(qmap.to_bytes())
        assert quars_decode(mapped, restored).tolist() == x

    @pytest.mark.parametrize(
        "bins",
        [
            [(0, 0), (5, 0)],  # two bins on one target
            [(0, 3), (5, 0)],  # a target inside the last bin's range [0, 5)
            [(0, 0), (5, -3)],  # the last bin's range [-3, 2) covers target 0
        ],
    )
    def test_overlapping_target_ranges_rejected(self, bins):
        raw = len(bins).to_bytes(2, "little")
        raw += b"".join(struct.pack("<ii", lo, off) for lo, off in bins)
        raw += struct.pack("<i", 10)
        with pytest.raises(FormatError, match="overlapping"):
            QuarsMap.from_bytes(raw)

    @pytest.mark.parametrize("raw", [b"", b"\x01", b"\x00\x00"])
    def test_map_shorter_than_its_count_rejected(self, raw):
        with pytest.raises(FormatError, match="truncated QuaRs map"):
            QuarsMap.from_bytes(raw)

    def test_map_without_bins_rejected(self):
        with pytest.raises(FormatError, match="invalid QuaRs map"):
            QuarsMap.from_bytes(b"\x00\x00" + bytes(4))

    @pytest.mark.parametrize(
        "values, bins",
        [
            ([3, 3, 3], 256),
            ([-40_000, -7, -7, 2, 2, 2, 500], 256),
            ([0, INT32_MAX, INT32_MAX], 256),
            (np.random.default_rng(3).integers(-32768, 32768, 900), 16),
        ],
    )
    def test_map_bytes_keep_the_packed_layout(self, values, bins):
        # u16 bin count, (i32 lower bound, i32 target) per bin, then the
        # upper bound mod 2^32, as the format has always written them.
        qmap = quars_encode(values, bins)[1]
        expected = struct.pack("<H", qmap.lower_bounds.size)
        for lo, target in zip(qmap.lower_bounds.tolist(), qmap.target_offsets.tolist()):
            expected += struct.pack("<ii", lo, target)
        expected += struct.pack("<I", qmap.upper_exclusive % 2**32)
        assert qmap.to_bytes() == expected

    def test_too_many_bins_for_the_container(self):
        # Every int16 value in its own bin: one bin more than a u16 count holds.
        chain = TransformChain(("quars",), quars_bins=65536)
        channel = TimeSeries(np.arange(-32768, 32768))
        with pytest.raises(ValueError, match="^alphabet too large for the symbol table$"):
            build_container([channel], chain, "bitpack")

    def test_count_longer_than_the_map_rejected(self):
        raw = bytearray(quars_encode([1, 2, 2, 9], bin_count=2)[1].to_bytes())
        raw[0] += 1  # one bin more than the bytes hold
        with pytest.raises(FormatError, match="truncated QuaRs map"):
            QuarsMap.from_bytes(bytes(raw))

    def test_bytes_past_the_map_rejected(self):
        raw = quars_encode([1, 2, 2, 9], bin_count=2)[1].to_bytes()
        with pytest.raises(FormatError, match="trailing bytes after QuaRs map"):
            QuarsMap.from_bytes(raw + b"\x00")

    def test_map_serialization_is_little_endian(self):
        _, qmap = quars_encode([3, 3, 3])
        raw = qmap.to_bytes()
        assert raw[:2] == b"\x01\x00"  # one bin
        assert raw[2:6] == (3).to_bytes(4, "little", signed=True)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            quars_encode([])

    def test_bin_count_below_one_rejected(self):
        with pytest.raises(ValueError, match="^bin_count must be >= 1$"):
            quars_encode([1, 2, 3], bin_count=0)
        with pytest.raises(ValueError, match="^quars_bins must be >= 1$"):
            TransformChain(("quars",), quars_bins=0)

    def test_empty_decodes_to_empty(self):
        _, qmap = quars_encode([3, 9, 9])
        out = quars_decode([], qmap)
        assert out.dtype == np.int64 and out.shape == (0,)

    @settings(max_examples=60)
    @given(token_series, st.sampled_from([1, 4, 64, 256]))
    def test_encode_decode_match_oracle(self, values, bins):
        mapped, qmap = quars_encode(values, bins)
        assert mapped.tolist() == oracles.quars_apply(qmap, values).tolist()
        assert quars_decode(mapped, qmap).tolist() == oracles.quars_invert(qmap, mapped).tolist()

    # Distinct-value counts on both sides of each bin count, full int32
    # spans, and equal counts per distinct value, which tie every density.
    @settings(max_examples=150)
    @given(
        token_series
        | st.lists(st.integers(-2000, 2000), min_size=1, max_size=600)
        | st.builds(
            lambda distinct, reps: distinct * reps,
            st.lists(st.integers(-300, 300), min_size=1, max_size=300, unique=True),
            st.integers(1, 3),
        ),
        st.sampled_from([1, 2, 3, 256]),
    )
    def test_fit_matches_rank_loop_oracle(self, values, bins):
        mapped, qmap = quars_encode(values, bins)
        lows, offsets, upper = oracles.quars_fit(values, bins)
        assert qmap.lower_bounds.tolist() == lows.tolist()
        assert qmap.target_offsets.tolist() == offsets.tolist()
        assert qmap.upper_exclusive == upper
        assert mapped.tolist() == oracles.quars_apply(qmap, values).tolist()

    @settings(max_examples=60)
    @given(int16_series, st.lists(st.integers(-400, 400), min_size=1, max_size=60))
    def test_any_tokens_match_oracle(self, values, tokens):
        # Tokens the map does not produce raise the oracle's FormatError.
        _, qmap = quars_encode(values, 16)
        assert outcome(quars_decode, tokens, qmap) == outcome(oracles.quars_invert, qmap, tokens)

    @settings(max_examples=40)
    @given(int16_series)
    def test_bin_edges_match_oracle(self, values):
        # One token per call, so an edge the library wrongly accepts cannot
        # hide behind another token that both reject.
        _, qmap = quars_encode(values, 16)
        starts, widths = qmap.target_offsets, qmap.widths()
        for token in np.r_[starts - 1, starts, starts + widths - 1, starts + widths].tolist():
            assert outcome(quars_decode, [token], qmap) == outcome(oracles.quars_invert, qmap, [token])

    @settings(max_examples=80)
    @given(int16_series, st.integers(0, 10**6), st.integers(0, 255))
    def test_corrupt_maps_match_oracle(self, values, where, byte):
        mapped, qmap = quars_encode(values, 16)
        raw = bytearray(qmap.to_bytes())
        raw[2 + where % (len(raw) - 2)] = byte  # keep the bin count
        try:
            corrupt = QuarsMap.from_bytes(bytes(raw))
        except FormatError:
            assume(False)
        probe = np.r_[mapped, np.arange(-20, 21)]
        assert outcome(quars_decode, probe, corrupt) == outcome(oracles.quars_invert, corrupt, probe)

    def test_upper_bound_of_int32_max_serializes(self):
        mapped, qmap = quars_encode([0, INT32_MAX, INT32_MAX])
        assert qmap.upper_exclusive == 2**31
        raw = qmap.to_bytes()
        assert raw[-4:] == struct.pack("<i", INT32_MIN)
        restored = QuarsMap.from_bytes(raw)
        assert restored.upper_exclusive == 2**31
        assert quars_decode(mapped, restored).tolist() == [0, INT32_MAX, INT32_MAX]

    @pytest.mark.parametrize("upper", [-5, 0, 7, INT32_MAX])
    def test_upper_bound_bytes_unchanged_below_2_31(self, upper):
        qmap = QuarsMap(np.array([-9]), np.array([0]), upper)
        raw = qmap.to_bytes()
        assert raw[-4:] == struct.pack("<i", upper)
        assert QuarsMap.from_bytes(raw).upper_exclusive == upper

    def test_upper_bound_above_2_31_rejected(self):
        with pytest.raises(ValueError, match="int32"):
            QuarsMap(np.array([0]), np.array([0]), 2**31 + 1).to_bytes()


def _wire_map(lows, offsets, upper) -> QuarsMap:
    """A QuaRs map as a container would carry it: through its bytes."""
    return QuarsMap.from_bytes(QuarsMap(np.array(lows), np.array(offsets), upper).to_bytes())


# Forged maps a valid container may carry: targets with holes between the
# bins, and full bin widths that overlap the next bin's targets.
FORGED_MAPS = {
    "holes": _wire_map([0, 10, 20], [0, 50, 100], 25),
    "overlap": _wire_map([0, 100], [0, 5], 101),
    "overlap-below": _wire_map([-40, -3, 60], [-7, -37, 0], 64),
}


class TestQuarsInversePaths:
    """``quars_decode`` maps back through a dense table when the targets
    span little enough, and through a search over the bins otherwise; both
    return what ``oracles.quars_invert`` returns or raise its error."""

    @pytest.fixture(params=["dense", "search"])
    def path(self, request, monkeypatch):
        dense = request.param == "dense"
        monkeypatch.setattr(transforms, "fits_dense_table", lambda span, n: dense)
        return request.param

    @staticmethod
    def check(tokens, qmap):
        # All tokens at once, then one per call, so that an error cannot hide
        # a token the library wrongly accepts.
        assert outcome(quars_decode, tokens, qmap) == outcome(oracles.quars_invert, qmap, tokens)
        for token in tokens:
            assert outcome(quars_decode, [token], qmap) == outcome(oracles.quars_invert, qmap, [token])

    @pytest.mark.parametrize("name", FORGED_MAPS)
    def test_forged_maps_match_oracle(self, path, name):
        qmap = FORGED_MAPS[name]
        top = int((qmap.target_offsets + qmap.widths()).max())
        tokens = list(range(int(qmap.target_offsets.min()) - 3, top + 3))
        self.check(tokens, qmap)
        valid = [t for t in tokens if outcome(oracles.quars_invert, qmap, [t])[0] is not FormatError]
        assert outcome(quars_decode, valid, qmap) == outcome(oracles.quars_invert, qmap, valid)

    def test_fitted_map_with_gaps_matches_oracle(self, path):
        # Unobserved gaps widen the bins, so full widths overlap.
        values = [1, 5, 5, 9, 9, 9, 40, -30]
        mapped, qmap = quars_encode(values, 3)
        assert quars_decode(mapped, qmap).tolist() == values
        self.check(list(range(-60, 60)), qmap)

    @pytest.mark.parametrize("token", [-(2**63), -(2**40), -1, 106, 2**40, 2**63 - 1])
    def test_tokens_outside_the_targets_raise(self, path, token):
        qmap = FORGED_MAPS["holes"]
        with pytest.raises(FormatError, match="^value not in QuaRs map$"):
            quars_decode([0, token, 1], qmap)
        assert outcome(oracles.quars_invert, qmap, [token])[0] is FormatError

    def test_empty_input(self, path):
        for qmap in FORGED_MAPS.values():
            out = quars_decode([], qmap)
            assert out.dtype == np.int64 and out.shape == (0,)

    @pytest.mark.parametrize("over", [0, 1])
    @pytest.mark.parametrize("n", [3, 2**17 + 5])
    def test_table_bound_picks_the_path(self, monkeypatch, n, over):
        # Two one-value bins whose targets span just under or just over the bound.
        span = max(n, 2**17) + over
        qmap = _wire_map([0, 1], [0, span], 2)
        histograms = []
        histogram = transforms.token_histogram
        monkeypatch.setattr(transforms, "token_histogram", lambda x: histograms.append(1) or histogram(x))
        tokens = np.resize([0, span, 0, span], n)
        assert quars_decode(tokens, qmap).tolist() == oracles.quars_invert(qmap, tokens).tolist()
        assert bool(histograms) == (not fits_dense_table(span, n)) == bool(over)
        for token in (-1, 1, span - 1, span + 1):
            probe = np.resize([0, token], n)
            assert outcome(quars_decode, probe, qmap) == outcome(oracles.quars_invert, qmap, probe)

    @pytest.mark.parametrize("n", [2**10, 2**20])
    @pytest.mark.parametrize("kind", ["fitted", "holes", "bound", "wide"])
    def test_memory_is_bounded_by_tokens_or_table(self, monkeypatch, n, kind):
        # Beside its input and output, a decode holds the table (8 bytes per
        # target) or, on the search path, the histogram.
        histograms = []
        histogram = transforms.token_histogram
        monkeypatch.setattr(transforms, "token_histogram", lambda x: histograms.append(1) or histogram(x))
        rng = np.random.default_rng(n)
        if kind == "holes":
            qmap = _wire_map(np.arange(0, 2560, 10), np.arange(0, 51200, 200), 2560)
            mapped = rng.integers(0, 256, n) * 200 + rng.integers(0, 10, n)
        elif kind == "bound":
            qmap = _wire_map([0, 1], [0, max(n, 2**17)], 2)
            mapped = np.resize([0, max(n, 2**17)], n)
        else:
            scale = 2**15 if kind == "fitted" else 2**30
            mapped, qmap = quars_encode(rng.integers(-scale, scale, n) * (rng.random(n) < 0.5))
        histograms.clear()
        tracemalloc.start()
        try:
            out = quars_decode(mapped, qmap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bool(histograms) == (kind == "wide")
        per_token = 64 if histograms else 9
        assert peak - out.nbytes < per_token * max(n, 2**17) + 2**16


class TestChain:
    def test_empty_chain_is_identity(self):
        tokens, side = chain_apply([4, 5, 6], TransformChain(()))
        assert tokens.tolist() == [4, 5, 6]
        assert side == b""

    def test_side_bytes_are_the_quars_map(self):
        chain = TransformChain(("delta", "quars"))
        tokens, side = chain_apply([4, 5, 6, 6], chain)
        assert side == quars_encode(delta_encode([4, 5, 6, 6]))[1].to_bytes()
        assert chain_invert(tokens, chain, side).tolist() == [4, 5, 6, 6]

    def test_side_bytes_without_quars_rejected(self):
        chain = TransformChain(("delta",))
        tokens, _ = chain_apply([4, 5, 6], chain)
        with pytest.raises(FormatError, match="side bytes without quars"):
            chain_invert(tokens, chain, b"\x00")

    def test_quars_chain_without_its_map_rejected(self):
        chain = TransformChain(("delta", "quars"))
        tokens, _ = chain_apply([4, 5, 6], chain)
        with pytest.raises(FormatError, match="truncated QuaRs map"):
            chain_invert(tokens, chain, b"")

    def test_delta_rle0_example(self):
        tokens, _ = chain_apply([5, 7, 7, 4], TransformChain(("delta", "rle0")))
        assert tokens.tolist() == [5, 2, 0, 1, -3]

    def test_full_chain_roundtrip_on_synthetic_suite(self):
        chain = TransformChain(("delta", "rle0", "quars"))
        for name, series in suite(n=4000, seed=3).items():
            tokens, qmap = chain_apply(series, chain)
            back = chain_invert(tokens, chain, qmap)
            assert np.array_equal(back, series.samples), name

    @settings(max_examples=40)
    @given(
        int16_series,
        st.sampled_from([(), ("delta",), ("rle0",), ("quars",), ("delta", "rle0"),
                         ("delta", "quars"), ("rle0", "quars"), ("delta", "rle0", "quars")]),
    )
    def test_every_chain_inverts(self, values, stages):
        chain = TransformChain(stages)
        tokens, qmap = chain_apply(values, chain)
        assert chain_invert(tokens, chain, qmap).tolist() == values

    def test_duplicate_stage_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TransformChain(("delta", "delta"))

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError, match="unknown transform"):
            TransformChain(("wavelet",))

    def test_parse_labels(self):
        assert TransformChain.parse("none").stages == ()
        assert TransformChain.parse("delta,rle0").stages == ("delta", "rle0")
        assert TransformChain.parse("delta,rle0").label() == "delta,rle0"
