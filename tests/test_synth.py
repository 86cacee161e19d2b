import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from tscodec import synth
from tscodec.core import aad, cardinality, entropy_bits
from tscodec.synth import CASES, LEVELS, SynthSpec, generate, suite
from tscodec.transforms import delta_encode


class TestDeterminism:
    @pytest.mark.parametrize("case", CASES)
    def test_same_spec_same_samples(self, case):
        spec = SynthSpec(case=case, n=5000, seed=123)
        assert np.array_equal(generate(spec).samples, generate(spec).samples)

    def test_seed_changes_noise(self):
        a = generate(SynthSpec(case="noise", n=5000, seed=1))
        b = generate(SynthSpec(case="noise", n=5000, seed=2))
        assert not np.array_equal(a.samples, b.samples)

    def test_noise_stream_independent_of_sine_noise(self):
        noise = generate(SynthSpec(case="noise", n=5000, seed=5))
        mix = generate(SynthSpec(case="sine_noise", n=5000, seed=5))
        assert not np.array_equal(mix.samples, noise.samples)

    def test_frozen_prefix(self):
        # Guards the PCG64/SeedSequence wiring against accidental change:
        # these values pin the documented stream derivation.
        samples = generate(SynthSpec(case="noise", n=8, seed=0)).samples
        assert samples.tolist() == [-3, 88, 93, -17, -75, 32, -10, 28]

    def test_frozen_switching_prefix(self):
        samples = generate(SynthSpec(case="switching", n=24, seed=0)).samples
        assert samples.tolist() == [-700] * 6 + [300] * 6 + [-700] * 8 + [800] * 4


PCG64_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341
MASK64 = (1 << 64) - 1


def _pcg64_state(words: list[int]) -> dict:
    """A PCG64 state whose next five 32-bit outputs are ``words``.

    The first is the buffered half of a 64-bit output. The next four are
    the low and high halves of two 64-bit outputs; numpy's PCG64 steps its
    128-bit LCG (state * multiplier + inc), then outputs the XSL-RR
    rotation of the new state, which is inverted here.
    """

    def state_for(value: int, hi: int) -> int:
        # output = rotr64(hi ^ lo, hi >> 58)
        rot = hi >> 58
        x = ((value << rot) | (value >> (64 - rot))) & MASK64
        return (hi << 64) | (hi ^ x)

    s1 = state_for(words[1] | words[2] << 32, 0x3123456789ABCDEF)
    for hi in (0x1EDCBA9876543210, 0x1EDCBA9876543211):
        s2 = state_for(words[3] | words[4] << 32, hi)
        inc = (s2 - s1 * PCG64_MULTIPLIER) % (1 << 128)
        if inc & 1:
            break
    s0 = (s1 - inc) * pow(PCG64_MULTIPLIER, -1, 1 << 128) % (1 << 128)
    return {"bit_generator": "PCG64", "state": {"state": s0, "inc": inc}, "has_uint32": 1, "uinteger": words[0]}


class TestSwitchingDraws:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5000))
    def test_matches_the_segment_loop(self, seed, n):
        spec = SynthSpec(case="switching", n=n, seed=seed)
        assert np.array_equal(generate(spec).samples, oracles.synth_switching(spec))

    @pytest.mark.parametrize("seed", [0, 29])
    def test_long_series_matches_the_segment_loop(self, seed):
        spec = SynthSpec(case="switching", n=100_000, seed=seed)
        assert np.array_equal(generate(spec).samples, oracles.synth_switching(spec))

    def test_zero_outputs_are_redrawn_as_the_segment_loop_does(self, monkeypatch):
        top = 2**32 - 1
        state = _pcg64_state([0, top, 0, top, 0])

        def crafted(spec, component):
            bitgen = np.random.PCG64()
            bitgen.state = state
            return np.random.Generator(bitgen)

        assert crafted(None, 0).integers(0, 1 << 32, size=5, dtype=np.uint32).tolist() == [0, top, 0, top, 0]
        monkeypatch.setattr(synth, "_rng", crafted)
        spec = SynthSpec(case="switching", n=200)
        expected = oracles.synth_switching(spec)
        # One output skipped for each span-5 zero, none for the span-4 zero:
        # level 4 for a dwell of 9 samples, then level 0.
        assert expected[:10].tolist() == [LEVELS[4]] * 9 + [LEVELS[0]]
        assert np.array_equal(generate(spec).samples, expected)


class TestCaseStatistics:
    def test_sine_matches_closed_forms(self):
        series = generate(SynthSpec(case="sine", n=10000, seed=0))
        # AAD of a sine of amplitude A is 2A/pi.
        assert aad(series) == pytest.approx(2 * 1000 / np.pi, rel=0.05)
        assert cardinality(series) > 500

    def test_sine_delta_shrinks_alphabet(self):
        series = generate(SynthSpec(case="sine", n=10000, seed=0))
        d = delta_encode(series.samples)
        assert cardinality(d) <= 20
        assert aad(d) <= 6.0
        assert cardinality(d) < cardinality(series.samples)

    def test_noise_bounds(self):
        series = generate(SynthSpec(case="noise", n=10000, seed=0))
        assert cardinality(series) <= 197
        assert aad(series) == pytest.approx((98 + 1) / 2, rel=0.05)

    def test_noise_delta_grows_both(self):
        series = generate(SynthSpec(case="noise", n=10000, seed=0))
        d = delta_encode(series.samples)
        assert cardinality(d) > cardinality(series.samples)
        assert aad(d) > aad(series.samples)

    def test_sine_noise_delta_matches_noise_delta(self):
        n = generate(SynthSpec(case="noise", n=10000, seed=0))
        sn = generate(SynthSpec(case="sine_noise", n=10000, seed=0))
        h_n = entropy_bits(delta_encode(n.samples))
        h_sn = entropy_bits(delta_encode(sn.samples))
        assert abs(h_n - h_sn) <= 0.1

    def test_switching_cardinality_is_level_count(self):
        series = generate(SynthSpec(case="switching", n=10000, seed=0))
        assert cardinality(series) == 5
        assert set(np.unique(series.samples).tolist()) == {-700, -200, 0, 300, 800}

    def test_switching_high_aad_despite_low_cardinality(self):
        series = generate(SynthSpec(case="switching", n=10000, seed=0))
        assert aad(series) > 300


class TestValidation:
    def test_unknown_case(self):
        with pytest.raises(ValueError, match="unknown case"):
            SynthSpec(case="sawtooth")

    def test_bad_length(self):
        with pytest.raises(ValueError):
            SynthSpec(case="sine", n=0)

    @pytest.mark.parametrize("case", CASES)
    def test_negative_seed(self, case):
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            SynthSpec(case=case, n=10, seed=-1)

    def test_suite_covers_all_cases(self):
        s = suite(n=100, seed=0)
        assert set(s) == set(CASES)
        assert all(len(v) == 100 for v in s.values())
