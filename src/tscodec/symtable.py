"""Count-prefixed symbol tables: the headers of the dynamic symbol coders
(Huffman, range) and the bins of the QuaRs side map.

Layout: symbol count as u16, then one packed little-endian entry per
symbol, (value as i32, field as a fixed-width integer), sorted by symbol
value. ``write`` owns the count's 65,535-entry cap for all three tables:
it refuses a larger table before any byte is written. Each user names its
entry as a packed structured dtype, so the table is written with one
``tobytes`` and read with one ``frombuffer``. A blob is this table
followed by the user's payload or trailer; ``split`` separates the two,
and ``read`` rejects a table that is cut short or empty, since no encoder
writes one for an empty input.
"""

from __future__ import annotations

import numpy as np

from .core import INT32_MAX, INT32_MIN
from .errors import FormatError


def entry(field: str) -> np.dtype:
    """Packed entry dtype: symbol ``<i4`` followed by ``field``."""
    return np.dtype([("symbol", "<i4"), ("field", field)])


def write(dtype: np.dtype, symbols: np.ndarray, fields: np.ndarray) -> bytes:
    if symbols.size > 0xFFFF:
        raise ValueError("alphabet too large for the symbol table")
    if int(symbols[0]) < INT32_MIN or int(symbols[-1]) > INT32_MAX:
        raise ValueError("symbol outside the int32 alphabet")
    table = np.empty(symbols.size, dtype=dtype)
    table["symbol"] = symbols
    table["field"] = fields
    return symbols.size.to_bytes(2, "little") + table.tobytes()


def split(dtype: np.dtype, blob: bytes) -> tuple[bytes, bytes]:
    """(table, payload) of a coded blob whose table has ``dtype`` entries.

    A blob too short for its table yields a short table, which ``read``
    rejects.
    """
    n = 2 + dtype.itemsize * int.from_bytes(blob[:2], "little")
    return blob[:n], blob[n:]


def read(dtype: np.dtype, header: bytes, what: str) -> tuple[np.ndarray, np.ndarray]:
    """(symbols, fields) as int64, from a table of at least one entry."""
    m = int.from_bytes(header[:2], "little")
    # A header under 2 bytes counts at most 255 entries, so it fails here too.
    if len(header) < 2 + dtype.itemsize * m:
        raise FormatError(f"truncated {what}")
    if m == 0:
        raise FormatError(f"invalid {what}")
    table = np.frombuffer(header, dtype=dtype, count=m, offset=2)
    return table["symbol"].astype(np.int64), table["field"].astype(np.int64)
