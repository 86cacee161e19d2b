"""Command-line front end.

Subcommands: compress, decompress, synth, stats, ablate, bench.
Exit codes: 0 success, 1 usage error, 2 data/codec error, 3 backend
unavailable. The TSCODEC_DATA_DIR environment variable points bench at a
directory of CSV datasets.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .backends import availability_report, takes_level
from .coders.registry import CODERS, INTERNAL_CODER_NAMES
from .container import build_container, read_container
from .core import entropy_and_limit, size_metrics, source_bytes
from .errors import BackendUnavailableError, TscodecError
from .harness import (
    ABLATION_CHAINS,
    DEFAULT_REPETITIONS,
    AblationRow,
    _csv_table,
    ablation_markdown,
    ablation_rows,
    emit_report,
    run_matrix,
)
from .ingest import load_csv, write_csv
from .synth import CASES, SynthSpec, generate
from .transforms import DEFAULT_QUARS_BINS, TransformChain, chain_apply

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BACKEND = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_chain(args) -> TransformChain:
    try:
        return TransformChain.parse(args.transforms, args.quars_bins)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_compress(args) -> int:
    if args.level is not None and not takes_level(args.coder):
        raise UsageError(f"--level: coder {args.coder!r} takes no level")
    dataset = load_csv(
        args.input,
        columns=[int(c) if c.isdigit() else c for c in args.columns.split(",")]
        if args.columns
        else None,
        missing=args.missing,
    )
    chain = _parse_chain(args)
    blob = build_container(dataset.channels, chain, args.coder, level=args.level)
    Path(args.output).write_bytes(blob)
    report = size_metrics(source_bytes(dataset.channels), len(blob))
    print(
        f"{args.input} -> {args.output}: {report.original_bytes} -> "
        f"{report.compressed_bytes} bytes, cr {report.cr:.3f}, cs {report.cs:.4f}"
    )
    if dataset.dropped_rows:
        print(f"dropped {dataset.dropped_rows} rows with missing values")
    return EXIT_OK


def _cmd_decompress(args) -> int:
    blob = Path(args.input).read_bytes()
    decoded = read_container(blob)
    write_csv(args.output, decoded.channels, header=not args.no_header)
    print(
        f"{args.input} -> {args.output}: {len(decoded.channels)} channel(s), "
        f"chain {decoded.chain.label()}, coder {decoded.coder_name}"
    )
    return EXIT_OK


def _synth_series(case: str, args):
    """The synthetic series of ``case`` at ``--n`` and ``--seed``."""
    try:
        spec = SynthSpec(case=case, n=args.n, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return generate(spec)


def _cmd_synth(args) -> int:
    series = _synth_series(args.case, args)
    write_csv(args.output, [series], header=not args.no_header)
    print(f"wrote {args.case} n={args.n} seed={args.seed} to {args.output}")
    return EXIT_OK


def _cmd_stats(args) -> int:
    dataset = load_csv(args.input, missing=args.missing)
    chain = _parse_chain(args)
    for ch, meta in zip(dataset.channels, dataset.quantization):
        tokens, _ = chain_apply(ch, chain)
        stats = entropy_and_limit(tokens)
        quant = "identity" if meta.identity else f"[{meta.lo:g}, {meta.hi:g}]"
        print(
            f"channel {ch.channel_id}: n={len(tokens)} cardinality={stats.cardinality} "
            f"aad={stats.aad:.2f} entropy={stats.entropy_bits:.3f} bits "
            f"shannon_cs={stats.shannon_cs:.4f} quantization={quant}"
        )
    return EXIT_OK


def _add_dataset(datasets: dict, key: str, series) -> None:
    if key in datasets:
        raise UsageError(f"dataset {key!r} is selected twice")
    datasets[key] = series


def _load_datasets(args) -> dict:
    datasets = {}
    if args.cases:
        names = list(CASES) if args.cases == "all" else args.cases.split(",")
        for case in names:
            _add_dataset(datasets, case, _synth_series(case, args))
    data_dir = os.environ.get("TSCODEC_DATA_DIR")
    for path in args.inputs or []:
        candidate = os.path.join(data_dir, path) if data_dir else path
        if not os.path.exists(path) and os.path.exists(candidate):
            path = candidate
        ds = load_csv(path)
        for ch in ds.channels:
            key = f"{ds.name}[{ch.channel_id}]" if len(ds.channels) > 1 else ds.name
            _add_dataset(datasets, key, ch)
    if not datasets:
        raise UsageError("no datasets selected; use --cases and/or input files")
    return datasets


_CHAIN_ALIAS = dict(zip(("none", "d", "d+r", "d+r+q"), ABLATION_CHAINS))


def _parse_chains(text: str) -> list[TransformChain]:
    """";"-separated chain labels; a comma list of aliases (none,d,d+r,...)
    is also accepted since aliases never contain commas."""
    if text == "all":
        labels = list(ABLATION_CHAINS)
    else:
        labels = []
        for piece in text.split(";"):
            parts = [p.strip() for p in piece.split(",")]
            if len(parts) > 1 and all(p in _CHAIN_ALIAS for p in parts):
                labels.extend(_CHAIN_ALIAS[p] for p in parts)
            else:
                labels.append(_CHAIN_ALIAS.get(piece.strip(), piece.strip()))
    try:
        return [TransformChain.parse(label) for label in labels]
    except ValueError as exc:
        raise UsageError(f"--chains: {exc}") from None


def _cmd_ablate(args) -> int:
    datasets = _load_datasets(args)
    rows = ablation_rows(datasets, _parse_chains(args.chains))
    if args.format == "markdown":
        text = ablation_markdown(rows)
    elif args.format == "csv":
        text = _csv_table(AblationRow, rows)
    else:
        text = json.dumps([asdict(r) for r in rows], indent=2) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_bench(args) -> int:
    datasets = _load_datasets(args)
    chains = _parse_chains(args.chains)
    if args.coders == "all-internal":
        coders = list(INTERNAL_CODER_NAMES)
    elif args.coders == "all":
        coders = list(CODERS)
    else:
        coders = args.coders.split(",")
        for c in coders:
            if c not in CODERS:
                raise UsageError(f"unknown coder {c!r}; expected one of {', '.join(CODERS)}")
    levels = None
    if args.levels:
        levels = {}
        for part in args.levels.split(";"):
            name, _, values = (p.strip() for p in part.partition("="))
            if name not in coders:
                raise UsageError(f"--levels: {name!r} is not a selected coder")
            if name in levels:
                raise UsageError(f"--levels: coder {name!r} is given twice")
            if not takes_level(name):
                raise UsageError(f"--levels: coder {name!r} takes no level")
            try:
                levels[name] = [int(v) for v in values.split(",")]
            except ValueError:
                raise UsageError(f"--levels: {part!r} is not name=<int>[,<int>...]") from None
    try:
        result = run_matrix(
            datasets,
            chains,
            coders,
            levels=levels,
            repetitions=args.repetitions,
            seed=args.seed,
        )
    except ValueError as exc:  # repetitions < 1, rejected before any cell runs
        raise UsageError(str(exc)) from None
    # Every cell yields a record, an unavailable entry or a failure.
    if result.records or result.unavailable:
        payload = emit_report(
            result.records,
            args.format,
            result.unavailable,
            ablations=result.ablations,
            metadata=result.metadata,
        )
        if args.output:
            Path(args.output).write_bytes(payload)
            print(f"wrote {len(result.records)} records to {args.output}")
        else:
            sys.stdout.write(payload.decode())
    for cell, message in result.failures:
        print(f"FAILED {cell}: {message}", file=sys.stderr)
    return EXIT_OK if not result.failures else EXIT_DATA


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tscodec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a CSV file into a container")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--transforms", default="none", help="comma list from delta,rle0,quars")
    p.add_argument("--coder", default="huffman", choices=sorted(CODERS))
    p.add_argument("--level", type=int, default=None, help="backend level override")
    p.add_argument("--quars-bins", type=int, default=DEFAULT_QUARS_BINS)
    p.add_argument("--columns", default=None, help="comma list of column indexes or names")
    p.add_argument("--missing", default="drop", choices=["drop", "error"])
    p.set_defaults(fn=_cmd_compress)

    p = sub.add_parser("decompress", help="decode a container back to CSV")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--no-header", action="store_true")
    p.set_defaults(fn=_cmd_decompress)

    p = sub.add_parser("synth", help="generate a synthetic test signal")
    p.add_argument("--case", required=True, choices=CASES)
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--no-header", action="store_true")
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("stats", help="cardinality/AAD/entropy of CSV channels")
    p.add_argument("input")
    p.add_argument("--transforms", default="none")
    p.add_argument("--quars-bins", type=int, default=DEFAULT_QUARS_BINS)
    p.add_argument("--missing", default="drop", choices=["drop", "error"])
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("ablate", help="transform ablation table")
    p.add_argument("--cases", default="all", help='"all" or comma list of synthetic cases')
    p.add_argument("--chains", default="all", help='"all" or comma list like none,d,d+r,d+r+q')
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("inputs", nargs="*", help="additional CSV files")
    p.add_argument("--format", default="markdown", choices=["markdown", "csv", "json"])
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_ablate)

    p = sub.add_parser("bench", help="run a chain x coder benchmark matrix")
    p.add_argument("--cases", default=None, help='"all" or comma list of synthetic cases')
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "inputs",
        nargs="*",
        help=f"CSV files (looked up in TSCODEC_DATA_DIR={os.environ.get('TSCODEC_DATA_DIR', '')!r} too)",
    )
    p.add_argument("--chains", default="all", help='"all" or ";"-separated chain labels')
    p.add_argument("--coders", default="all-internal", help='"all-internal", "all", or comma list')
    p.add_argument("--levels", default=None, help='e.g. "zstd=1,19;brotli=2,10"')
    p.add_argument("--repetitions", type=int, default=DEFAULT_REPETITIONS)
    p.add_argument("--format", default="csv", choices=["csv", "markdown", "json"])
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BackendUnavailableError as exc:
        print(f"backend unavailable: {exc}", file=sys.stderr)
        print(f"backend availability: {availability_report()}", file=sys.stderr)
        return EXIT_BACKEND
    except (TscodecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
