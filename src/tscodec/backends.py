"""Adapters over external general-purpose and time-series compressors.

``BACKENDS`` is the one table of backends: per name, the compress and
decompress adapters, the module to import (passed to the adapter) and the
default level. Each name has one writer: ``blosc`` is the blosc2 package
that the ``backends`` extra installs, so a blosc payload is a blosc2
chunk whatever else is installed. The table's order fixes each
backend's container id byte (see ``coders.registry``), so new backends go
at the end.

Every backend is optional: its module is imported lazily and
:class:`BackendUnavailableError` is raised when it is missing, so callers
can mark the cell "n/a" instead of silently skipping it. Payloads use each
format's standard framing, so outputs remain checkable with stock tooling.
All calls create a fresh (de)compressor, so concurrent use on distinct
buffers is safe; the stdlib decoders stop one byte past the expected size,
and backends with multithreaded modes are pinned to one worker thread to
keep speed comparisons fair.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import INT16_MAX, INT16_MIN, INT32_MAX, INT32_MIN, as_samples
from .errors import BackendUnavailableError, FormatError, TscodecError, UnknownBackendError


@dataclass(frozen=True)
class BackendDescriptor:
    """One backend selection: id, optional level, serialized sample width."""

    backend_id: str
    level: int | None = None
    width: int = 2  # bytes per serialized sample, 2 or 4

    def __post_init__(self):
        if self.backend_id not in BACKENDS:
            raise UnknownBackendError(f"unregistered backend {self.backend_id!r}")

    @property
    def effective_level(self) -> int | None:
        if self.level is not None:
            return self.level
        return BACKENDS[self.backend_id].default_level

    @property
    def dtype(self) -> str:
        """Little-endian numpy dtype of one serialized sample."""
        return f"<i{self.width}"


def _require(module_name: str):
    try:
        return importlib.import_module(module_name)
    except ImportError as exc:  # pragma: no cover - environment dependent
        raise BackendUnavailableError(f"{module_name} is not installed") from exc


def _compress_leveled(mod, data, desc):
    return mod.compress(data, desc.effective_level)


def _compress_plain(mod, data, desc):
    return mod.compress(data)


def _decompress_plain(mod, data, desc, size):
    return mod.decompress(data)


def _decompress_capped(decompressor, rejected, data, desc, size):
    """Decode one whole stream of at most ``size`` bytes, or raise FormatError."""
    try:
        # A forged token count may exceed what the C API takes as a length.
        out = decompressor.decompress(data, min(size + 1, sys.maxsize))
    except rejected as exc:
        raise FormatError(f"corrupt {desc.backend_id} payload: {exc}") from None
    if len(out) > size:
        raise FormatError("payload decoded to unexpected size")
    if not decompressor.eof:
        raise FormatError(f"truncated {desc.backend_id} payload")
    if decompressor.unused_data:
        raise FormatError(f"trailing bytes after {desc.backend_id} payload")
    return out


def _decompress_zlib(zlib, data, desc, size):
    return _decompress_capped(zlib.decompressobj(), zlib.error, data, desc, size)


def _decompress_bz2(bz2, data, desc, size):
    return _decompress_capped(bz2.BZ2Decompressor(), OSError, data, desc, size)


def _decompress_lzma(lzma, data, desc, size):
    return _decompress_capped(lzma.LZMADecompressor(), lzma.LZMAError, data, desc, size)


def _compress_lzma(lzma, data, desc):
    return lzma.compress(data, preset=desc.effective_level)


def _compress_zstd(zstd, data, desc):
    return zstd.ZstdCompressor(level=desc.effective_level).compress(data)


def _decompress_zstd(zstd, data, desc, size):
    return zstd.ZstdDecompressor().decompress(data)


def _compress_brotli(brotli, data, desc):
    return brotli.compress(data, quality=desc.effective_level)


def _compress_blosc(blosc2, data, desc):
    # BloscLZ dictionary coder with byte-shuffle on; typesize tells the
    # shuffle the serialized sample width.
    return blosc2.compress2(
        data,
        codec=blosc2.Codec.BLOSCLZ,
        clevel=desc.effective_level,
        filters=[blosc2.Filter.SHUFFLE],
        typesize=desc.width,
        nthreads=1,
    )


def _decompress_blosc(blosc2, data, desc, size):
    return blosc2.decompress2(data)


def _compress_sprintz(sprintz, data, desc):
    return sprintz.compress(np.frombuffer(data, dtype=desc.dtype))


def _decompress_sprintz(sprintz, data, desc, size):
    return np.asarray(sprintz.decompress(data), dtype=desc.dtype).tobytes()


def _compress_pcodec(pcodec, data, desc):
    arr = np.frombuffer(data, dtype=desc.dtype)
    return bytes(
        pcodec.standalone.simple_compress(
            arr, pcodec.ChunkConfig(compression_level=desc.effective_level)
        )
    )


def _decompress_pcodec(pcodec, data, desc, size):
    return pcodec.standalone.simple_decompress(data).astype(desc.dtype).tobytes()


class Backend(NamedTuple):
    compress: Callable  # (module, data, descriptor) -> bytes
    decompress: Callable  # (module, data, descriptor, expected size) -> bytes
    module: str  # imported on first use and passed to the adapters
    default_level: int | None


BACKENDS: dict[str, Backend] = {
    "deflate": Backend(_compress_leveled, _decompress_zlib, "zlib", 9),
    "zstd": Backend(_compress_zstd, _decompress_zstd, "zstandard", 19),
    "brotli": Backend(_compress_brotli, _decompress_plain, "brotli", 10),
    "bzip2": Backend(_compress_leveled, _decompress_bz2, "bz2", 9),
    "lzma": Backend(_compress_lzma, _decompress_lzma, "lzma", 6),
    "lz4": Backend(_compress_plain, _decompress_plain, "lz4.frame", None),
    "snappy": Backend(_compress_plain, _decompress_plain, "snappy", None),
    "blosc": Backend(_compress_blosc, _decompress_blosc, "blosc2", 9),
    "sprintz": Backend(_compress_sprintz, _decompress_sprintz, "sprintz", None),
    "pcodec": Backend(_compress_pcodec, _decompress_pcodec, "pcodec", 12),
}

BACKEND_IDS = tuple(BACKENDS)


def takes_level(name: str) -> bool:
    """Only the backends with a default level take a level."""
    return getattr(BACKENDS.get(name), "default_level", None) is not None


def is_available(backend_id: str) -> bool:
    if backend_id not in BACKENDS:
        raise UnknownBackendError(f"unregistered backend {backend_id!r}")
    try:
        _require(BACKENDS[backend_id].module)
        return True
    except BackendUnavailableError:
        return False


def availability_report() -> dict[str, bool]:
    """Availability of every registered backend, never silently skipped."""
    return {b: is_available(b) for b in BACKEND_IDS}


def _run(adapter: Callable, data: bytes, descriptor: BackendDescriptor, *size: int) -> bytes:
    mod = _require(BACKENDS[descriptor.backend_id].module)
    try:
        return adapter(mod, data, descriptor, *size)
    except (ValueError, FormatError):
        raise
    except Exception as exc:
        raise TscodecError(f"backend {descriptor.backend_id!r} failed: {exc}") from exc


def backend_compress(data: bytes, descriptor: BackendDescriptor) -> bytes:
    if len(data) == 0:
        raise ValueError("undefined on empty input")
    return _run(BACKENDS[descriptor.backend_id].compress, data, descriptor)


def backend_decompress(data: bytes, descriptor: BackendDescriptor, size: int) -> bytes:
    """Decode a payload expected to hold ``size`` bytes. A stdlib payload
    that decodes past it, ends early, has trailing bytes or is corrupt
    raises FormatError."""
    return _run(BACKENDS[descriptor.backend_id].decompress, data, descriptor, size)


def serialize_series(series) -> tuple[bytes, int]:
    """Fixed-width little-endian sample bytes and their width.

    The width is the narrowest of 2 and 4 bytes that holds every sample:
    2 covers raw 16-bit data, 4 the transform outputs beyond 16 bits.
    """
    x = as_samples(series)
    lo, hi = (int(x.min()), int(x.max())) if x.size else (0, 0)
    if INT16_MIN <= lo and hi <= INT16_MAX:
        width = 2
    elif INT32_MIN <= lo and hi <= INT32_MAX:
        width = 4
    else:
        raise ValueError("sample out of range for 32-bit serialization")
    return x.astype(f"<i{width}").tobytes(), width


def deserialize_series(data: bytes, width: int, count: int) -> np.ndarray:
    if width not in (2, 4):
        raise ValueError("width must be 2 or 4")
    if len(data) != width * count:
        raise ValueError("byte length does not match count and width")
    return np.frombuffer(data, dtype=f"<i{width}").astype(np.int64)
