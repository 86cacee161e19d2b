"""Adapters over external general-purpose and time-series compressors.

``BACKENDS`` is the one table of backends: per name, the compress and
decompress adapters, the modules to import (the first importable one is
passed to the adapter) and the default level. Its order fixes each
backend's container id byte (see ``coders.registry``), so new backends go
at the end.

Every backend is optional: its module is imported lazily and
:class:`BackendUnavailableError` is raised when it is missing, so callers
can mark the cell "n/a" instead of silently skipping it. Payloads use each
format's standard framing, so outputs remain checkable with stock tooling.
All one-shot calls create a fresh (de)compressor, so concurrent use on
distinct buffers is safe; backends with multithreaded modes are pinned to
one worker thread to keep speed comparisons fair.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import INT16_MAX, INT16_MIN, INT32_MAX, INT32_MIN, as_samples
from .errors import BackendUnavailableError, TscodecError, UnknownBackendError


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


def _require(module_names):
    last = None
    for name in module_names:
        try:
            return importlib.import_module(name)
        except ImportError as exc:  # pragma: no cover - environment dependent
            last = exc
    raise BackendUnavailableError(
        f"none of {module_names} is installed"
    ) from last


def _compress_leveled(mod, data, desc):
    return mod.compress(data, desc.effective_level)


def _compress_plain(mod, data, desc):
    return mod.compress(data)


def _decompress_plain(mod, data, desc):
    return mod.decompress(data)


def _compress_lzma(lzma, data, desc):
    return lzma.compress(data, preset=desc.effective_level)


def _compress_zstd(zstd, data, desc):
    return zstd.ZstdCompressor(level=desc.effective_level).compress(data)


def _decompress_zstd(zstd, data, desc):
    return zstd.ZstdDecompressor().decompress(data)


def _compress_brotli(brotli, data, desc):
    return brotli.compress(data, quality=desc.effective_level)


def _compress_blosc(blosc, data, desc):
    # BloscLZ dictionary coder with byte-shuffle on; typesize tells the
    # shuffle the serialized sample width.
    if blosc.__name__ == "blosc2":
        return blosc.compress2(
            data,
            codec=blosc.Codec.BLOSCLZ,
            clevel=desc.effective_level,
            filters=[blosc.Filter.SHUFFLE],
            typesize=desc.width,
            nthreads=1,
        )
    blosc.set_nthreads(1)
    return blosc.compress(
        data,
        typesize=desc.width,
        clevel=desc.effective_level,
        shuffle=blosc.SHUFFLE,
        cname="blosclz",
    )


def _decompress_blosc(blosc, data, desc):
    if blosc.__name__ == "blosc2":
        return blosc.decompress2(data)
    return blosc.decompress(data)


def _compress_sprintz(sprintz, data, desc):
    return sprintz.compress(np.frombuffer(data, dtype=desc.dtype))


def _decompress_sprintz(sprintz, data, desc):
    return np.asarray(sprintz.decompress(data), dtype=desc.dtype).tobytes()


def _compress_pcodec(pcodec, data, desc):
    arr = np.frombuffer(data, dtype=desc.dtype)
    return bytes(
        pcodec.standalone.simple_compress(
            arr, pcodec.ChunkConfig(compression_level=desc.effective_level)
        )
    )


def _decompress_pcodec(pcodec, data, desc):
    return pcodec.standalone.simple_decompress(data).astype(desc.dtype).tobytes()


class Backend(NamedTuple):
    compress: Callable  # (module, data, descriptor) -> bytes
    decompress: Callable  # (module, data, descriptor) -> bytes
    modules: tuple[str, ...]  # import candidates, first importable wins
    default_level: int | None


BACKENDS: dict[str, Backend] = {
    "deflate": Backend(_compress_leveled, _decompress_plain, ("zlib",), 9),
    "zstd": Backend(_compress_zstd, _decompress_zstd, ("zstandard",), 19),
    "brotli": Backend(_compress_brotli, _decompress_plain, ("brotli",), 10),
    "bzip2": Backend(_compress_leveled, _decompress_plain, ("bz2",), 9),
    "lzma": Backend(_compress_lzma, _decompress_plain, ("lzma",), 6),
    "lz4": Backend(_compress_plain, _decompress_plain, ("lz4.frame",), None),
    "snappy": Backend(_compress_plain, _decompress_plain, ("snappy",), None),
    "blosc": Backend(_compress_blosc, _decompress_blosc, ("blosc2", "blosc"), 9),
    "sprintz": Backend(_compress_sprintz, _decompress_sprintz, ("sprintz",), None),
    "pcodec": Backend(_compress_pcodec, _decompress_pcodec, ("pcodec",), 12),
}

BACKEND_IDS = tuple(BACKENDS)


def is_available(backend_id: str) -> bool:
    if backend_id not in BACKENDS:
        raise UnknownBackendError(f"unregistered backend {backend_id!r}")
    try:
        _require(BACKENDS[backend_id].modules)
        return True
    except BackendUnavailableError:
        return False


def availability_report() -> dict[str, bool]:
    """Availability of every registered backend, never silently skipped."""
    return {b: is_available(b) for b in BACKEND_IDS}


def _run(adapter: Callable, data: bytes, descriptor: BackendDescriptor) -> bytes:
    mod = _require(BACKENDS[descriptor.backend_id].modules)
    try:
        return adapter(mod, data, descriptor)
    except ValueError:
        raise
    except Exception as exc:
        raise TscodecError(f"backend {descriptor.backend_id!r} failed: {exc}") from exc


def backend_compress(data: bytes, descriptor: BackendDescriptor) -> bytes:
    if len(data) == 0:
        raise ValueError("undefined on empty input")
    return _run(BACKENDS[descriptor.backend_id].compress, data, descriptor)


def backend_decompress(data: bytes, descriptor: BackendDescriptor) -> bytes:
    return _run(BACKENDS[descriptor.backend_id].decompress, data, descriptor)


def serialize_series(series, width: int | None = None) -> tuple[bytes, int]:
    """Fixed-width little-endian sample bytes.

    Width 2 covers raw 16-bit data; transform outputs exceeding 16 bits
    use width 4. When ``width`` is None the narrowest sufficient width is
    chosen. Returns (bytes, width).
    """
    x = as_samples(series)
    if width is None:
        if x.size and (int(x.min()) < INT16_MIN or int(x.max()) > INT16_MAX):
            width = 4
        else:
            width = 2
    if width == 2:
        lo, hi = INT16_MIN, INT16_MAX
        dtype = "<i2"
    elif width == 4:
        lo, hi = INT32_MIN, INT32_MAX
        dtype = "<i4"
    else:
        raise ValueError("width must be 2 or 4")
    if x.size and (int(x.min()) < lo or int(x.max()) > hi):
        raise ValueError(f"sample out of range for {8 * width}-bit serialization")
    return x.astype(dtype).tobytes(), width


def deserialize_series(data: bytes, width: int, count: int) -> np.ndarray:
    if width == 2:
        dtype = "<i2"
    elif width == 4:
        dtype = "<i4"
    else:
        raise ValueError("width must be 2 or 4")
    if len(data) != width * count:
        raise ValueError("byte length does not match count and width")
    return np.frombuffer(data, dtype=dtype).astype(np.int64)
