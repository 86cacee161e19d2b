"""Benchmark and ablation harness.

Runs (dataset x transform chain x coder/backend) matrices, verifies every
round trip, and aggregates records into csv / markdown / json reports. A
record only enters a report if its decompressed output matched the input
exactly; unavailable backends produce "n/a" cells instead of silently
vanishing.

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
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from .version import __version__ as _version
from .backends import availability_report
from .coders.registry import INTERNAL_CODER_NAMES
from .container import build_container, read_container
from .core import TimeSeries, as_samples, compression_speed_mb_s, entropy_and_limit, size_metrics, source_bytes
from .errors import BackendUnavailableError, TscodecError
from .synth import suite
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
    roundtrip_ok: bool
    status: str = "ok"  # "ok" or "n/a"
    note: str = ""


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
    failures: list[tuple[str, str]] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)


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

    A round-trip mismatch raises; it never produces a record.
    """
    channels = _as_channels(data)
    original_bytes = source_bytes(channels)

    # One untimed pass first, so the first timed repetition is not cold.
    read_container(build_container(channels, chain, coder_name, level))
    best_enc = float("inf")
    best_dec = float("inf")
    for _ in range(max(1, repetitions)):
        t0 = time.perf_counter()
        container = build_container(channels, chain, coder_name, level)
        t1 = time.perf_counter()
        decoded = read_container(container)
        t2 = time.perf_counter()
        best_enc = min(best_enc, t1 - t0)
        best_dec = min(best_dec, t2 - t1)
        try:
            same = all(
                np.array_equal(got.samples, want.samples)
                for got, want in zip(decoded.channels, channels, strict=True)
            )
        except ValueError:  # channel count differs
            same = False
        if not same:
            raise TscodecError(
                f"round-trip mismatch: {dataset_name} chain={chain.label()} coder={coder_name}"
            )
    report = size_metrics(original_bytes, len(container))
    return BenchRecord(
        dataset=dataset_name,
        chain=chain.label(),
        coder=coder_name,
        level=level,
        original_bytes=original_bytes,
        compressed_bytes=len(container),
        payload_bytes=decoded.payload_bytes,
        header_bytes=len(container) - decoded.payload_bytes,
        cr=report.cr,
        cs=report.cs,
        compress_seconds=best_enc,
        decompress_seconds=best_dec,
        speed_mb_s=compression_speed_mb_s(original_bytes, best_enc),
        decode_mb_s=compression_speed_mb_s(original_bytes, best_dec),
        roundtrip_ok=True,
    )


def _na_record(dataset_name, chain, coder_name, level, note) -> BenchRecord:
    return BenchRecord(
        dataset=dataset_name,
        chain=chain.label(),
        coder=coder_name,
        level=level,
        original_bytes=0,
        compressed_bytes=0,
        payload_bytes=0,
        header_bytes=0,
        cr=float("nan"),
        cs=float("nan"),
        compress_seconds=float("nan"),
        decompress_seconds=float("nan"),
        speed_mb_s=float("nan"),
        decode_mb_s=float("nan"),
        roundtrip_ok=False,
        status="n/a",
        note=note,
    )


def ablation_rows(
    datasets: dict[str, TimeSeries],
    chains: Sequence[TransformChain] = tuple(map(TransformChain.parse, ABLATION_CHAINS)),
) -> list[AblationRow]:
    """Cardinality / AAD / entropy / limit of each dataset's tokens per chain."""
    rows = []
    for name, series in datasets.items():
        for chain in chains:
            tokens, _ = chain_apply(series, chain)
            stats = entropy_and_limit(tokens)
            rows.append(
                AblationRow(
                    dataset=name,
                    chain=chain.label(),
                    cardinality=stats.cardinality,
                    aad=stats.aad,
                    entropy_bits=stats.entropy_bits,
                    shannon_cs=stats.shannon_cs,
                )
            )
    return rows


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
    each timed by :func:`run_job`.
    """
    if not datasets or not chains or not coders:
        raise ValueError("empty axis")
    records: list[BenchRecord] = []
    failures: list[tuple[str, str]] = []
    for name, series in datasets.items():
        for chain in chains:
            for coder_name in coders:
                for level in (levels or {}).get(coder_name, [None]):
                    try:
                        records.append(
                            run_job(series, chain, coder_name, level, repetitions, dataset_name=name)
                        )
                    except BackendUnavailableError as exc:
                        records.append(_na_record(name, chain, coder_name, level, str(exc)))
                    except (TscodecError, ValueError) as exc:
                        failures.append((f"{name}/{chain.label()}/{coder_name}", str(exc)))
    ablations = ablation_rows(datasets, chains)
    metadata = {
        "tool_version": _version,
        "seed": seed,
        "repetitions": repetitions,
        "timer_resolution_s": time.get_clock_info("perf_counter").resolution,
        "backends": availability_report(),
    }
    return MatrixResult(records=records, ablations=ablations, failures=failures, metadata=metadata)


def synthetic_matrix(
    n: int = 10000,
    seed: int = 0,
    coders: tuple[str, ...] = INTERNAL_CODER_NAMES,
    repetitions: int = DEFAULT_REPETITIONS,
    levels: dict[str, list[int]] | None = None,
) -> MatrixResult:
    """The standard suite: 4 synthetic cases x 4 chains x the given coders."""
    chains = [TransformChain.parse(label) for label in ABLATION_CHAINS]
    return run_matrix(
        suite(n=n, seed=seed),
        chains,
        list(coders),
        levels=levels,
        repetitions=repetitions,
        seed=seed,
    )


def _csv_table(cls, rows) -> str:
    """CSV text: the field names of dataclass ``cls``, then one line per row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(f.name for f in fields(cls))
    writer.writerows(astuple(r) for r in rows)
    return buf.getvalue()


def _reportable(records: list[BenchRecord]) -> list[BenchRecord]:
    for r in records:
        if r.status == "ok" and not r.roundtrip_ok:
            raise TscodecError("record without verified round trip")
    return [r for r in records if r.status == "ok"]


def emit_report(
    records: list[BenchRecord],
    fmt: str,
    ablations: list[AblationRow] | None = None,
    metadata: dict | None = None,
) -> bytes:
    """Render records as csv, markdown-table, or json-plotdata.

    Negative scores are preserved in csv and json; only the markdown view
    clamps them to 0 for display.
    """
    if not records:
        raise ValueError("no records to report")
    metadata = dict(metadata or {})
    metadata.setdefault("tool_version", _version)
    metadata.setdefault("backends", availability_report())
    ok_records = _reportable(records)
    na_records = [r for r in records if r.status != "ok"]

    if fmt == "csv":
        comments = "".join(f"# {k}: {json.dumps(v, sort_keys=True)}\n" for k, v in metadata.items())
        return (comments + _csv_table(BenchRecord, ok_records)).encode()

    if fmt == "markdown-table":
        lines = []
        meta_bits = ", ".join(f"{k}={v}" for k, v in sorted(metadata.items()) if k != "backends")
        lines.append(f"Report ({meta_bits})")
        lines.append("")
        lines.append("| dataset | chain | coder | level | cs | speed MB/s | decode MB/s |")
        lines.append("|---|---|---|---|---|---|---|")
        for r in ok_records:
            cs = max(0.0, r.cs)  # expansion shown as 0
            level = "" if r.level is None else str(r.level)
            lines.append(
                f"| {r.dataset} | {r.chain} | {r.coder} | {level} "
                f"| {cs:.3f} | {r.speed_mb_s:.1f} | {r.decode_mb_s:.1f} |"
            )
        for r in na_records:
            level = "" if r.level is None else str(r.level)
            lines.append(f"| {r.dataset} | {r.chain} | {r.coder} | {level} | n/a | n/a | n/a |")
        lines.append("")
        return ("\n".join(lines)).encode()

    if fmt == "json-plotdata":
        score_speed = [
            {
                "dataset": r.dataset,
                "method": r.coder if r.level is None else f"{r.coder}-{r.level}",
                "chain": r.chain,
                "cs": r.cs,
                "speed_mb_s": r.speed_mb_s,
                "decode_mb_s": r.decode_mb_s,
            }
            for r in ok_records
        ]
        lines_by_case: dict = {}
        for r in ok_records:
            lines_by_case.setdefault(r.dataset, {}).setdefault(r.coder, []).append(
                {"chain": r.chain, "cs": r.cs}
            )
        doc = {
            "metadata": metadata,
            "records": [asdict(r) for r in ok_records],
            "na_cells": [asdict(r) for r in na_records],
            "plots": {
                "score_speed": score_speed,
                "score_vs_chain": lines_by_case,
            },
        }
        if ablations is not None:
            doc["ablation"] = [asdict(a) for a in ablations]
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=True).encode()

    raise ValueError(f"unknown report format {fmt!r}")


def parse_report_json(data: bytes) -> dict:
    """Inverse of the json-plotdata writer, with shape validation."""
    doc = json.loads(data)
    for key in ("metadata", "records", "plots"):
        if key not in doc:
            raise ValueError(f"not a report document: missing {key!r}")
    for key in ("score_speed", "score_vs_chain"):
        if key not in doc["plots"]:
            raise ValueError(f"not a report document: missing plot {key!r}")
    return doc


def ablation_markdown(rows: list[AblationRow]) -> str:
    """Ablation rows as a markdown table, one dataset row per chain column."""
    datasets = []
    for row in rows:
        if row.dataset not in datasets:
            datasets.append(row.dataset)
    by_key = {(r.dataset, r.chain): r for r in rows}
    chains = []
    for row in rows:
        if row.chain not in chains:
            chains.append(row.chain)
    lines = ["| case | " + " | ".join(chains) + " |"]
    lines.append("|---" * (len(chains) + 1) + "|")
    for ds in datasets:
        cells = []
        for ch in chains:
            r = by_key.get((ds, ch))
            cells.append("" if r is None else f"{r.cardinality} / {r.aad:.1f}")
        lines.append(f"| {ds} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"
