"""CSV loading and float-to-16-bit re-quantization.

Real-world datasets usually arrive as floating point even when the source
was an ADC with a fixed value count. Each column is rescaled to the full
signed 16-bit span and floored:

    q = floor((x - lo) * 65535 / (hi - lo)) - 32768

so the quantization error is bounded by one step, (hi - lo) / 65535.
Columns that are already integral and within the 16-bit range pass through
unchanged and are marked as identity-quantized.

Expected CSV shape: comma separated, UTF-8 (a leading byte-order mark is
skipped), decimal point '.', optional single header row, one sample per
row per channel column.

``load_csv`` reads a file a line at a time: the first non-empty line
decides the header, the first data row the column count, and
``np.loadtxt`` parses the data rows straight from the open file. When
numpy rejects a row, for an empty cell or a real error, the file is
streamed a second time from its start: the rows before the rejected one
pass unchanged, empty cells from it on become nan, and a cell that still
fails is named by its row and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .core import INT16_MAX, INT16_MIN, TimeSeries

QUANT_STEPS = 65535
WRITE_ROWS = 4096  # CSV rows per formatting operation


@dataclass(frozen=True)
class ChannelQuantization:
    """Per-channel scaling metadata; enough to invert up to one step."""

    lo: float
    hi: float
    identity: bool = False


@dataclass
class Dataset:
    """Named multichannel series with quantization info."""

    name: str
    channels: list[TimeSeries]
    quantization: list[ChannelQuantization] = field(default_factory=list)
    dropped_rows: int = 0


def quantize_column(values) -> tuple[np.ndarray, ChannelQuantization]:
    """Quantize one float column to signed 16-bit integers."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("undefined on empty input")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        shown = ", ".join(str(i) for i in bad[:20].tolist())
        more = "" if bad.size <= 20 else f" (+{bad.size - 20} more)"
        raise ValueError(f"non-finite values at rows: {shown}{more}")
    meta = ChannelQuantization(lo=float(x.min()), hi=float(x.max()))
    lo, hi = meta.lo, meta.hi
    if hi == lo:
        return np.zeros(x.size, dtype=np.int64), meta
    if hi - lo == np.inf:
        # A span wider than the largest float fits once halved. Halving is
        # exact but for subnormals, whose rounding is far below one step.
        x, lo, hi = x / 2, lo / 2, hi / 2
    # Ratio first: (x - lo) / (hi - lo) stays in [0, 1] even when the
    # span is subnormal, where 65535 / (hi - lo) would overflow.
    q = np.floor((x - lo) / (hi - lo) * QUANT_STEPS).astype(np.int64) - 32768
    np.clip(q, INT16_MIN, INT16_MAX, out=q)
    return q, meta


def ingest_column(values) -> tuple[np.ndarray, ChannelQuantization]:
    """Quantize unless the column is already integral and in range."""
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        raise ValueError("undefined on empty input")
    # NaN fails the integral test and +-inf the range test, so non-finite
    # columns fall through to quantize_column, which names their rows.
    if np.all(x == np.floor(x)):
        lo, hi = float(x.min()), float(x.max())
        if INT16_MIN <= lo and hi <= INT16_MAX:
            return x.astype(np.int64), ChannelQuantization(lo=lo, hi=hi, identity=True)
    return quantize_column(x)


#: How the header and the data rows are tokenized.
_CSV = {"delimiter": ",", "quotechar": '"', "comments": None}

#: An empty or blank cell, bare or quoted: a missing value.
_EMPTY_CELL = re.compile(r'(^|,)(?:"[^\S\n]*")?[^\S\n]*(?=,|$)', re.MULTILINE)


def _fill_blanks(line: str) -> str:
    """``line``, a non-empty row, with its empty and blank cells made nan.
    Only a row with ``,,``, a comma at either end, a quote, a space or a
    non-printable character (every whitespace but the space is one) can
    hold such a cell, so the others skip the regex."""
    if ",," in line or line[0] == "," or line[-1] == "," or '"' in line or " " in line or not line.isprintable():
        return _EMPTY_CELL.sub(r"\1nan", line)
    return line


def _cells(line: str) -> list[str]:
    # One row: without max_rows numpy sizes its first chunk for 50,000 rows.
    return np.loadtxt([line], dtype=str, ndmin=1, max_rows=1, **_CSV).tolist()


def _label(header: list[str] | None, c: int):
    """Column ``c`` as errors name it: its header name, else its index."""
    return header[c] if header and c < len(header) else c


def load_csv(path, columns: list[int | str] | None = None, missing: str = "drop") -> Dataset:
    """Load selected numeric columns of a CSV file as one dataset.

    ``columns`` selects by zero-based index or by header name; None takes
    every column. ``missing`` is either "drop" (remove the whole row,
    count reported on the dataset) or "error". The grammar is numpy's
    ``loadtxt``: the header is detected from the first row; empty, blank
    and ``nan`` cells are missing; cells may be quoted; ``#`` is no comment.
    """
    if missing not in ("drop", "error"):
        raise ValueError('missing policy must be "drop" or "error"')
    path = Path(path)
    with path.open(encoding="utf-8-sig") as fh:
        rows = _rows(path, fh)
        row = next(rows, None)
        if row is None:
            raise ValueError(f"{path}: empty file")

        header: list[str] | None = None
        first = _cells(row)
        try:
            [float(c) for c in first if c.strip()]
        except ValueError:  # a cell that is neither numeric nor blank: a name
            header = [c.strip() for c in first]
            row = next(rows, None)
        if row is None:
            raise ValueError(f"{path}: no data rows")

        ncols = len(first if header is None else _cells(row))
        if columns is None:
            selected = list(range(ncols))
        else:
            selected = []
            for c in columns:
                if isinstance(c, str):
                    if header is None or c not in header:
                        raise ValueError(f"unknown column name {c!r}")
                    c = header.index(c)
                if not 0 <= c < ncols:
                    raise ValueError(f"column index {c} out of range")
                selected.append(c)

        # The last column is always read, unparsed unless selected, so that a
        # short row fails the parse.
        last = {} if ncols - 1 in selected else {ncols - 1: lambda _: 0.0}
        parse = partial(np.loadtxt, ndmin=2, usecols=selected + list(last), converters=last, **_CSV)
        try:
            data = parse(chain([row], rows))
        except ValueError as exc:  # an empty cell; a real error fails again below
            # The rows before the one numpy names parsed, so only the rest get
            # their empty cells replaced by nan.
            first = (_failed_row(exc) or (0, None))[0]
            fh.seek(0)
            rows = islice(_rows(path, fh), header is not None, None)
            try:
                data = parse(chain(islice(rows, first), map(_fill_blanks, rows)))
            except ValueError as exc:
                raise _bad_cell(exc, path, fh, header, ncols) from None
    data = data[:, : len(selected)]

    missing_mask = np.isnan(data)
    dropped = 0
    if missing_mask.any():
        if missing == "error":
            i, j = np.argwhere(missing_mask)[0]
            label = _label(header, selected[j])
            raise ValueError(f"{path}: missing value at row {int(i)}, column {label}")
        keep = ~missing_mask.any(axis=1)
        dropped = int((~keep).sum())
        data = data[keep]
        if data.shape[0] == 0:
            raise ValueError(f"{path}: all rows dropped by missing-value policy")

    channels = []
    quant = []
    for j in range(data.shape[1]):
        q, meta = ingest_column(data[:, j])
        channels.append(TimeSeries(samples=q, channel_id=j))
        quant.append(meta)
    return Dataset(name=path.stem, channels=channels, quantization=quant, dropped_rows=dropped)


def _rows(path: Path, fh):
    """The lines of ``path``, open as ``fh``, read one at a time without
    their "\\n", empty ones left out."""
    try:
        for line in fh:
            if line := line.removesuffix("\n"):
                yield line
    except UnicodeDecodeError:
        # Raised again by decoding the whole file, it names its byte by the
        # offset in the file, a byte-order mark included, not in the chunk
        # being decoded.
        path.read_text(encoding="utf-8")
        raise


def _failed_row(exc: ValueError) -> tuple[int, int | None] | None:
    """The row, and for a bad cell the column, that ``np.loadtxt`` rejected,
    both from 0. numpy counts a short row from 1 ("at row 2 with 1
    columns"), a bad cell's row from 0 and its column from 1 ("at row 1,
    column 2.")."""
    m = re.search(r"at row (\d+)(?:, column (\d+)\.| with \d+ columns)$", str(exc))
    if m is None:
        return None
    return (int(m[1]), int(m[2]) - 1) if m[2] else (int(m[1]) - 1, None)


def _bad_cell(exc: ValueError, path: Path, fh, header, ncols: int) -> ValueError:
    """Name the row and cell that ``np.loadtxt`` rejected in the data rows
    of ``path``, open as ``fh``, read again from its start up to that row."""
    where = _failed_row(exc)
    if where is None:
        return ValueError(f"{path}: {exc}")
    i, c = where
    fh.seek(0)
    cells = _cells(next(islice(_rows(path, fh), i + (header is not None), None)))
    if len(cells) < ncols:
        return ValueError(f"{path}: row {i} has {len(cells)} cells, expected {ncols}")
    return ValueError(f"unparseable numeric cell at row {i}, column {_label(header, c)}: {cells[c].strip()!r}")


def write_csv(path, channels: list[TimeSeries], header: bool = True) -> None:
    """Write channels column-wise; inverse of loading an integer CSV.

    The bytes are those of ``np.savetxt(..., fmt="%d", delimiter=",")``,
    formatted ``WRITE_ROWS`` rows per ``%`` operation.
    """
    table = np.column_stack([ch.samples for ch in channels])  # rejects none and unequal lengths
    row = ",".join(["%d"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(",".join(f"ch{ch.channel_id}" for ch in channels) + "\n")
        for i in range(0, len(table), WRITE_ROWS):
            block = table[i : i + WRITE_ROWS]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))
