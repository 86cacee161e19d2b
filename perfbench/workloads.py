"""The benchmark's workloads: seeded inputs and the containers to code.

Each workload is a fixed list of containers. One container is encoded by
one ``build_container`` call and decoded by one ``read_container`` call.
Input sizes are part of a workload's definition.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LONG_N = 100_000
LONG_CHAIN = "delta,rle0,quars"
LONG_CODERS = ("expgolomb", "drh", "huffman", "range")

WIDE_COLUMNS = 32
WIDE_ROWS = 50_000
WIDE_CHAINS = ("delta,rle0", "delta,rle0,quars")

SHORT_N = 2_000
SHORT_SUBSEEDS = 4
SHORT_CODERS = ("expgolomb", "bitpack", "huffman", "drh", "range", "lzss", "deflate", "bzip2", "lzma")


@dataclass(frozen=True)
class Container:
    label: str  # unique within a workload: names the digest and any failure
    channels: tuple
    chain: object  # tscodec.TransformChain
    coder: str

    @property
    def source_bytes(self) -> int:
        return 2 * sum(len(ch) for ch in self.channels)


@dataclass
class Inputs:
    containers: list[Container]
    timings: dict[str, float] = field(default_factory=dict)  # layer -> seconds spent in setup


def sub_seed(seed: int, index: int) -> int:
    """Independent generator seed for the ``index``-th series of a run seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _generate(tscodec, timings: dict, case: str, n: int, seed: int):
    t0 = time.perf_counter()
    series = tscodec.synth.generate(tscodec.SynthSpec(case=case, n=n, seed=seed))
    timings["synth.generate"] = timings.get("synth.generate", 0.0) + time.perf_counter() - t0
    return series


def long_entropy(tscodec, seed: int, workdir: Path) -> Inputs:
    timings: dict[str, float] = {}
    series = {case: _generate(tscodec, timings, case, LONG_N, seed) for case in tscodec.synth.CASES}
    chain = tscodec.TransformChain.parse(LONG_CHAIN)
    containers = [
        Container(f"{case}/{LONG_CHAIN}/{coder}", (ts,), chain, coder)
        for coder in LONG_CODERS
        for case, ts in series.items()
    ]
    return Inputs(containers, timings)


def wide_bitpack(tscodec, seed: int, workdir: Path, rows: int = WIDE_ROWS) -> Inputs:
    timings: dict[str, float] = {}
    cases = tscodec.synth.CASES
    columns = [
        _generate(tscodec, timings, cases[i % len(cases)], rows, sub_seed(seed, i)).samples / 100.0
        for i in range(WIDE_COLUMNS)
    ]
    path = workdir / f"wide-bitpack-{seed}.csv"
    header = ",".join(f"c{i}" for i in range(WIDE_COLUMNS))
    np.savetxt(path, np.column_stack(columns), fmt="%.2f", delimiter=",", header=header, comments="")
    try:
        t0 = time.perf_counter()
        dataset = tscodec.ingest.load_csv(path)
        timings["ingest.load_csv"] = time.perf_counter() - t0
    finally:
        path.unlink()
    channels = tuple(dataset.channels)
    containers = [
        Container(f"wide/{label}/bitpack", channels, tscodec.TransformChain.parse(label), "bitpack")
        for label in WIDE_CHAINS
    ]
    return Inputs(containers, timings)


def short_matrix(tscodec, seed: int, workdir: Path) -> Inputs:
    timings: dict[str, float] = {}
    series = {
        f"{case}.{j}": _generate(tscodec, timings, case, SHORT_N, sub_seed(seed, j))
        for case in tscodec.synth.CASES
        for j in range(SHORT_SUBSEEDS)
    }
    containers = [
        Container(f"{key}/{label}/{coder}", (ts,), tscodec.TransformChain.parse(label), coder)
        for label in tscodec.harness.ABLATION_CHAINS
        for coder in SHORT_CODERS
        for key, ts in series.items()
    ]
    return Inputs(containers, timings)


BUILDERS = {"long-entropy": long_entropy, "wide-bitpack": wide_bitpack, "short-matrix": short_matrix}
