"""Benchmark and ablation harness.

Runs (dataset x transform chain x coder/backend) matrices, verifies every
round trip, and aggregates records into csv / markdown / json reports.
Only :func:`run_job` builds a :class:`BenchRecord`, and only after the
decompressed output matched the input exactly; a cell whose backend is not
installed becomes an :class:`Unavailable` entry, shown as "n/a" instead of
silently vanishing.

Everything runs in one process, one cell after another. Encode timing
(``speed_mb_s``) is one whole ``build_container``: transforms,
serialization, coding and framing. Decode timing (``decode_mb_s``) is one
whole ``read_container``. Each is the best of ``repetitions`` runs;
ingestion is excluded. Compressed size counts every byte needed to decode
(coder headers, side maps, and container framing); ``payload_bytes``,
taken from the decoder, isolates the coder payload so header effects stay
visible.
"""

from __future__ import annotations

import csv
import io
import json
import time
from collections.abc import Sequence
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .version import __version__ as _version
from .backends import availability_report
from .container import build_container, read_container
from .core import TimeSeries, as_samples, compression_speed_mb_s, entropy_and_limit, size_metrics, source_bytes
from .errors import BackendUnavailableError, TscodecError
from .transforms import TransformChain, chain_apply

#: Chain axis used by the ablation tables, applied cumulatively.
ABLATION_CHAINS = ("none", "delta", "delta,rle0", "delta,rle0,quars")

DEFAULT_REPETITIONS = 3


@dataclass(frozen=True)
class BenchRecord:
    dataset: str
    chain: str
    coder: str
    level: int | None
    original_bytes: int
    compressed_bytes: int
    payload_bytes: int
    header_bytes: int
    cr: float
    cs: float
    compress_seconds: float
    decompress_seconds: float
    speed_mb_s: float
    decode_mb_s: float


@dataclass(frozen=True)
class Unavailable:
    """A matrix cell whose backend is not installed: reported as n/a."""

    dataset: str
    chain: str
    coder: str
    level: int | None
    note: str


@dataclass(frozen=True)
class AblationRow:
    dataset: str
    chain: str
    cardinality: int
    aad: float
    entropy_bits: float
    shannon_cs: float


@dataclass
class MatrixResult:
    records: list[BenchRecord]
    ablations: list[AblationRow]
    unavailable: list[Unavailable]
    failures: list[tuple[str, str]]
    metadata: dict


def _check_repetitions(repetitions: int) -> None:
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")


def _as_channels(data) -> list[TimeSeries]:
    if isinstance(data, TimeSeries):
        return [data]
    if hasattr(data, "channels"):
        return list(data.channels)
    return [TimeSeries(samples=as_samples(data))]


def run_job(
    data,
    chain: TransformChain,
    coder_name: str,
    level: int | None = None,
    repetitions: int = DEFAULT_REPETITIONS,
    dataset_name: str = "",
) -> BenchRecord:
    """Compress, decompress, verify, and measure one cell.

    A round-trip mismatch raises; it never produces a record. Only samples
    are compared: the container stores no channel id, so a channel comes
    back numbered by its position.
    ``repetitions`` below 1 raises ValueError.
    """
    _check_repetitions(repetitions)
    channels = _as_channels(data)
    original_bytes = source_bytes(channels)

    # One untimed pass first, so the first timed repetition is not cold.
    read_container(build_container(channels, chain, coder_name, level))
    best_enc = float("inf")
    best_dec = float("inf")
    for _ in range(repetitions):
        t0 = time.perf_counter()
        container = build_container(channels, chain, coder_name, level)
        t1 = time.perf_counter()
        decoded = read_container(container)
        t2 = time.perf_counter()
        best_enc = min(best_enc, t1 - t0)
        best_dec = min(best_dec, t2 - t1)
        if len(decoded.channels) != len(channels) or not all(
            np.array_equal(got.samples, want.samples) for got, want in zip(decoded.channels, channels)
        ):
            raise TscodecError(
                f"round-trip mismatch: {dataset_name} chain={chain.label()} coder={coder_name}"
            )
    return BenchRecord(
        dataset=dataset_name,
        chain=chain.label(),
        coder=coder_name,
        level=level,
        **asdict(size_metrics(original_bytes, len(container))),
        payload_bytes=decoded.payload_bytes,
        header_bytes=len(container) - decoded.payload_bytes,
        compress_seconds=best_enc,
        decompress_seconds=best_dec,
        speed_mb_s=compression_speed_mb_s(original_bytes, best_enc),
        decode_mb_s=compression_speed_mb_s(original_bytes, best_dec),
    )


def ablation_rows(
    datasets: dict[str, TimeSeries],
    chains: Sequence[TransformChain] = tuple(map(TransformChain.parse, ABLATION_CHAINS)),
) -> list[AblationRow]:
    """Cardinality / AAD / entropy / limit of each dataset's tokens per chain."""
    return [_ablation_row(name, series, chain) for name, series in datasets.items() for chain in chains]


def _ablation_row(name: str, series: TimeSeries, chain: TransformChain) -> AblationRow:
    stats = entropy_and_limit(chain_apply(series, chain)[0])
    return AblationRow(dataset=name, chain=chain.label(), **asdict(stats))


def run_matrix(
    datasets: dict[str, TimeSeries],
    chains: list[TransformChain],
    coders: list[str],
    levels: dict[str, list[int]] | None = None,
    repetitions: int = DEFAULT_REPETITIONS,
    seed: int | None = None,
) -> MatrixResult:
    """Full cross product; partial failures are collected, not fatal.

    ``levels`` optionally maps a coder/backend name to a list of levels to
    sweep; other coders run once with their default. Cells run one after
    another in this process, in axis order (dataset, chain, coder, level),
    each timed by :func:`run_job`. A (dataset, chain) pair whose transforms
    fail has no ablation row; its error joins the failures. An empty axis
    or ``repetitions`` below 1 raises ValueError before any cell runs.
    """
    if not datasets or not chains or not coders:
        raise ValueError("empty axis")
    _check_repetitions(repetitions)
    records: list[BenchRecord] = []
    ablations: list[AblationRow] = []
    unavailable: list[Unavailable] = []
    failures: list[tuple[str, str]] = []
    for name, series in datasets.items():
        for chain in chains:
            try:
                ablations.append(_ablation_row(name, series, chain))
            except (TscodecError, ValueError) as exc:
                failures.append((f"{name}/{chain.label()}/ablation", str(exc)))
            for coder_name in coders:
                for level in (levels or {}).get(coder_name, [None]):
                    try:
                        records.append(
                            run_job(series, chain, coder_name, level, repetitions, dataset_name=name)
                        )
                    except BackendUnavailableError as exc:
                        unavailable.append(Unavailable(name, chain.label(), coder_name, level, str(exc)))
                    except (TscodecError, ValueError) as exc:
                        failures.append((f"{name}/{chain.label()}/{coder_name}", str(exc)))
    metadata = {
        "tool_version": _version,
        "seed": seed,
        "repetitions": repetitions,
        "timer_resolution_s": time.get_clock_info("perf_counter").resolution,
        "backends": availability_report(),
    }
    return MatrixResult(records, ablations, unavailable, failures, metadata)


def _csv_table(cls, rows) -> str:
    """CSV text: the field names of dataclass ``cls``, then one line per row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(f.name for f in fields(cls))
    writer.writerows(astuple(r) for r in rows)
    return buf.getvalue()


def _md_row(cells) -> str:
    return "| " + " | ".join(map(str, cells)) + " |"


def emit_report(
    records: list[BenchRecord],
    fmt: str,
    unavailable: Sequence[Unavailable] = (),
    ablations: list[AblationRow] | None = None,
    metadata: dict | None = None,
) -> bytes:
    """Render a report as ``csv``, ``markdown`` or ``json``.

    The csv columns and the json ``records`` are the fields of
    :class:`BenchRecord`; ``metadata`` is written as given. Unavailable
    cells are n/a rows in markdown and ``na_cells`` in json; csv holds
    verified records only. The json is strict (no NaN or Infinity).
    Negative scores are preserved in csv and json; only the markdown view
    clamps them to 0 for display.
    """
    if not records and not unavailable:
        raise ValueError("no records to report")
    metadata = metadata or {}

    if fmt == "csv":
        comments = "".join(f"# {k}: {json.dumps(v, sort_keys=True)}\n" for k, v in metadata.items())
        return (comments + _csv_table(BenchRecord, records)).encode()

    if fmt == "markdown":
        meta_bits = ", ".join(f"{k}={v}" for k, v in sorted(metadata.items()) if k != "backends")
        lines = [f"Report ({meta_bits})", ""]
        lines.append("| dataset | chain | coder | level | cs | speed MB/s | decode MB/s |")
        lines.append("|---|---|---|---|---|---|---|")
        # Expansion (negative cs) is shown as 0.
        rows = [(r, f"{max(0.0, r.cs):.3f}", f"{r.speed_mb_s:.1f}", f"{r.decode_mb_s:.1f}") for r in records]
        rows += [(u, "n/a", "n/a", "n/a") for u in unavailable]
        for cell, *scores in rows:
            level = "" if cell.level is None else cell.level
            lines.append(_md_row([cell.dataset, cell.chain, cell.coder, level, *scores]))
        lines.append("")
        return ("\n".join(lines)).encode()

    if fmt == "json":
        doc = {
            "metadata": metadata,
            "records": [asdict(r) for r in records],
            "na_cells": [asdict(u) for u in unavailable],
        }
        if ablations is not None:
            doc["ablation"] = [asdict(a) for a in ablations]
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False).encode()

    raise ValueError(f"unknown report format {fmt!r}")


def ablation_markdown(rows: list[AblationRow]) -> str:
    """Ablation rows as a markdown table, one dataset row per chain column."""
    by_key = {(r.dataset, r.chain): r for r in rows}
    chains = list(dict.fromkeys(r.chain for r in rows))
    lines = [_md_row(["case", *chains]), "|---" * (len(chains) + 1) + "|"]
    for ds in dict.fromkeys(r.dataset for r in rows):
        cells = [by_key.get((ds, ch)) for ch in chains]
        lines.append(_md_row([ds, *("" if r is None else f"{r.cardinality} / {r.aad:.1f}" for r in cells)]))
    return "\n".join(lines) + "\n"
