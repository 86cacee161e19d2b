"""The coder table: names, container id bytes and codecs.

Symbol coders consume integer token streams; Exp-Golomb and bit packing
have non-negative alphabets, so their adapters zigzag signed tokens on the
way in and undo it on the way out. Byte coders (LZSS and the external
backends) consume the fixed-width serialization of the token stream.

Each encoder returns an (header, payload) pair of byte strings that the
container stores concatenated; the entry's ``split`` rule separates them
again on read. Only Huffman and range write a header, a ``symtable``
table, so their rule is ``symtable.split`` with the coder's entry type.
Internal coders have ids 1-6; the backends of ``backends.BACKENDS``
follow from id 16 on, in that table's order.
Backend entries carry no codec functions (``encode is None``): the
container calls ``backend_compress``/``backend_decompress`` for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from ..backends import BACKEND_IDS
from ..transforms import unzigzag, zigzag
from .. import symtable
from . import bitpack, drh, expgolomb, huffman, lzss, rangecoder


def _no_header(blob: bytes) -> tuple[bytes, bytes]:
    return b"", blob


@dataclass(frozen=True)
class CoderInfo:
    name: str
    id_byte: int
    kind: str  # "symbol", "bytes", or "backend"
    encode: Callable | None = None
    decode: Callable | None = None
    split: Callable[[bytes], tuple[bytes, bytes]] = _no_header


def _expgolomb_encode(tokens: np.ndarray):
    return b"", expgolomb.encode(zigzag(tokens)).data


def _expgolomb_decode(header: bytes, payload: bytes, count: int):
    return unzigzag(expgolomb.decode(payload, count))


def _bitpack_encode(tokens: np.ndarray):
    return b"", bitpack.encode(zigzag(tokens))


def _bitpack_decode(header: bytes, payload: bytes, count: int):
    return unzigzag(bitpack.decode(payload, count))


def _huffman_encode(tokens: np.ndarray):
    header, payload = huffman.encode(tokens)
    return header, payload.data


def _drh_encode(tokens: np.ndarray):
    return b"", drh.encode(tokens).data


def _drh_decode(header: bytes, payload: bytes, count: int):
    return drh.decode(payload, count)


def _lzss_encode(data: bytes):
    return b"", lzss.compress(data)


def _lzss_decode(header: bytes, payload: bytes, nbytes: int):
    return lzss.decompress(payload, nbytes)


CODERS: dict[str, CoderInfo] = {
    "expgolomb": CoderInfo("expgolomb", 1, "symbol", _expgolomb_encode, _expgolomb_decode),
    "bitpack": CoderInfo("bitpack", 2, "symbol", _bitpack_encode, _bitpack_decode),
    "huffman": CoderInfo(
        "huffman", 3, "symbol", _huffman_encode, huffman.decode,
        partial(symtable.split, huffman.ENTRY),
    ),
    "drh": CoderInfo("drh", 4, "symbol", _drh_encode, _drh_decode),
    "range": CoderInfo(
        "range", 5, "symbol", rangecoder.encode, rangecoder.decode,
        partial(symtable.split, rangecoder.ENTRY),
    ),
    "lzss": CoderInfo("lzss", 6, "bytes", _lzss_encode, _lzss_decode),
}

INTERNAL_CODER_NAMES = tuple(CODERS)

for _i, _backend in enumerate(BACKEND_IDS):
    CODERS[_backend] = CoderInfo(_backend, 16 + _i, "backend")

CODER_BY_ID = {info.id_byte: info for info in CODERS.values()}


def get_coder(name: str) -> CoderInfo:
    try:
        return CODERS[name]
    except KeyError:
        raise ValueError(f"unknown coder {name!r}") from None
