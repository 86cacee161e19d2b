"""Deterministic generators for the four synthetic test signals.

The cases isolate one signal characteristic each:

* ``sine``       - slowly varying relative to the sampling rate
* ``noise``      - i.i.d. uniform integers, maximum entropy for its alphabet
* ``sine_noise`` - elementwise sum of the two, noise as the bottleneck
* ``switching``  - piecewise constant over few levels at short intervals:
  low cardinality but high average magnitude

Randomness comes from PCG64 seeded through ``SeedSequence(seed,
spawn_key=(case, component))``, so a (case, seed) pair yields the same
samples on every platform, and the noise inside ``sine_noise`` is an
independent stream from the plain ``noise`` case.

``switching`` samples are those of a loop over segments: draw the opening
level index from 5, then per segment draw a dwell of ``DWELL_MIN`` plus
one of 5, fill it, and draw the next level's index among the 4 other
levels in ``LEVELS`` order. All draws come from one ``integers`` call
with an array of spans, which draws each element as the loop's scalar
calls do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TimeSeries

CASES = ("sine", "noise", "sine_noise", "switching")

_CASE_INDEX = {name: i for i, name in enumerate(CASES)}

AMPLITUDE = 1000
# A period of 997 samples (not a divisor of the default length) lets the
# phase drift across cycles, which keeps the raw cardinality in the high
# hundreds while the delta alphabet stays tiny.
PERIOD = 997.0
NOISE_HALF_RANGE = 98
LEVELS = np.array([-700, -200, 0, 300, 800], dtype=np.int64)
# The switching dwell is a narrow uniform window so the run-length alphabet
# after delta + rle0 stays small, which is where quantile reshuffling pays.
DWELL_MIN = 5
DWELL_MAX = 9


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one synthetic series; same spec + seed, same samples."""

    case: str
    n: int = 10000
    seed: int = 0

    def __post_init__(self):
        if self.case not in CASES:
            raise ValueError(f"unknown case {self.case!r}; expected one of {', '.join(CASES)}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _rng(spec: SynthSpec, component: int) -> np.random.Generator:
    seq = np.random.SeedSequence(
        entropy=spec.seed, spawn_key=(_CASE_INDEX[spec.case], component)
    )
    return np.random.Generator(np.random.PCG64(seq))


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int64)


def _sine(spec: SynthSpec) -> np.ndarray:
    k = np.arange(spec.n)
    return _round_half_away(AMPLITUDE * np.sin(2.0 * np.pi * k / PERIOD))


def _noise(spec: SynthSpec, component: int) -> np.ndarray:
    a = NOISE_HALF_RANGE
    return _rng(spec, component).integers(-a, a + 1, size=spec.n, dtype=np.int64)


def _switching(spec: SynthSpec) -> np.ndarray:
    # Slot 0 is the opening level index, odd slots are dwell offsets and
    # the other even slots next-level indices. The default int64 dtype
    # keeps numpy's 32-bit bounded draw; narrower dtypes draw differently.
    spans = np.full(1 + 2 * -(-spec.n // DWELL_MIN), LEVELS.size - 1)
    spans[0] = LEVELS.size
    spans[1::2] = DWELL_MAX - DWELL_MIN + 1
    draws = _rng(spec, 0).integers(0, spans)
    dwells = DWELL_MIN + draws[1::2]
    ends = np.cumsum(dwells)
    segments = int(np.searchsorted(ends, spec.n)) + 1
    dwells = dwells[:segments]
    dwells[-1] -= ends[segments - 1] - spec.n
    index = [level := int(draws[0])]
    for pick in draws[2 : 2 * segments : 2].tolist():
        index.append(level := pick + (level <= pick))
    return np.repeat(LEVELS[index], dwells)


def generate(spec: SynthSpec) -> TimeSeries:
    """Generate one channel for the given spec, reproducibly."""
    if spec.case == "sine":
        samples = _sine(spec)
    elif spec.case == "noise":
        samples = _noise(spec, 0)
    elif spec.case == "sine_noise":
        samples = _sine(spec) + _noise(spec, 1)
    else:
        samples = _switching(spec)
    return TimeSeries(samples=samples, channel_id=0)


def suite(n: int = 10000, seed: int = 0) -> dict[str, TimeSeries]:
    """All four cases with default parameters."""
    return {case: generate(SynthSpec(case=case, n=n, seed=seed)) for case in CASES}
