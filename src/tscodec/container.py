"""Self-describing compressed container.

Layout (all multi-byte integers little-endian):

    magic            4 bytes  "TSC1"
    version          u8       currently 1
    transform count  u8
    transform ids    u8 each  1 = delta, 2 = rle0, 3 = quars
    coder id         u8       registry id byte
    channel count    u16
    per channel:
        token count    u64    symbols (or serialized items) in the payload
        width          u8     0 for symbol coders, else bytes per item
        side length    u32
        side bytes             the transform chain's side output, unparsed
        payload length u64
        payload bytes          coder header followed by coder payload

Token count is the length of the post-transform stream the coder decoded;
inverting the transform chain recovers the original sample count, so a
container decodes with no external information. Unknown versions, ids, or
magic are rejected outright, never partially parsed, and so is a width
other than 0 for a symbol coder and other than 2 or 4 otherwise. The side
bytes are framed here and parsed only by ``chain_invert``.

Transform ids number the stages of ``TRANSFORM_ORDER`` from 1. The chain
grammar is ``TransformChain``'s own, so a container whose transform ids are
out of order or repeated is rejected on read, not decoded. A level is
accepted only by the backends that have a default level.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .backends import BACKENDS, BackendDescriptor, backend_compress, backend_decompress, deserialize_series, serialize_series
from .coders.registry import CODER_BY_ID, CoderInfo, get_coder
from .core import TimeSeries, as_samples
from .errors import FormatError
from .transforms import TRANSFORM_ORDER, TransformChain, chain_apply, chain_invert

MAGIC = b"TSC1"
VERSION = 1

TRANSFORM_NAME = dict(enumerate(TRANSFORM_ORDER, 1))
TRANSFORM_ID = {v: k for k, v in TRANSFORM_NAME.items()}


def _takes_level(coder_name: str) -> bool:
    """Only the backends with a default level take a level."""
    return getattr(BACKENDS.get(coder_name), "default_level", None) is not None


def encode_channel(
    series,
    chain: TransformChain,
    coder: CoderInfo,
    level: int | None = None,
) -> bytes:
    """Transform and code one channel into its channel-table entry."""
    x = as_samples(series)
    if x.size == 0:
        raise ValueError("undefined on empty input")
    tokens, side = chain_apply(x, chain)
    if coder.kind == "symbol":
        header, payload = coder.encode(tokens)
        width = 0
    else:
        data, width = serialize_series(tokens)
        if coder.kind == "bytes":
            header, payload = coder.encode(data)
        else:
            desc = BackendDescriptor(coder.name, level, width)
            header, payload = b"", backend_compress(data, desc)
    return b"".join((
        struct.pack("<QBI", tokens.size, width, len(side)),
        side,
        struct.pack("<Q", len(header) + len(payload)),
        header,
        payload,
    ))


def decode_channel(
    block_tokens: int,
    width: int,
    side: bytes,
    header: bytes,
    payload: bytes,
    chain: TransformChain,
    coder: CoderInfo,
) -> np.ndarray:
    if width not in ((0,) if coder.kind == "symbol" else (2, 4)):
        raise FormatError(f"unsupported container: width {width}")
    if coder.kind == "symbol":
        tokens = coder.decode(header, payload, block_tokens)
    else:
        nbytes = block_tokens * width
        if coder.kind == "bytes":
            data = coder.decode(header, payload, nbytes)
        else:
            data = backend_decompress(payload, BackendDescriptor(coder.name, width=width), nbytes)
        if len(data) != nbytes:
            raise FormatError("payload decoded to unexpected size")
        tokens = deserialize_series(data, width, block_tokens)
    return chain_invert(tokens, chain, side)


def build_container(
    channels: list,
    chain: TransformChain,
    coder_name: str,
    level: int | None = None,
) -> bytes:
    """Compress channels into one container blob."""
    coder = get_coder(coder_name)
    if level is not None and not _takes_level(coder_name):
        raise ValueError(f"coder {coder_name!r} takes no level")
    if not channels:
        raise ValueError("no channels to compress")
    out = bytearray()
    out += MAGIC
    out.append(VERSION)
    out.append(len(chain.stages))
    for s in chain.stages:
        out.append(TRANSFORM_ID[s])
    out.append(coder.id_byte)
    out += struct.pack("<H", len(channels))
    for ch in channels:
        out += encode_channel(ch, chain, coder, level)
    return bytes(out)


@dataclass(frozen=True)
class DecodedContainer:
    chain: TransformChain
    coder_name: str
    channels: list
    payload_bytes: int  # coder payloads only: no coder headers, side maps or framing


def read_container(blob: bytes) -> DecodedContainer:
    """Decode a container back to its channels.

    Raises :class:`FormatError` on bad magic, unknown version or ids, a
    truncated header or a chain out of order, and surfaces coder errors
    (truncated payloads and the like) unchanged.
    """
    if len(blob) < 9 or blob[:4] != MAGIC:
        raise FormatError("unsupported container: bad magic")
    if blob[4] != VERSION:
        raise FormatError(f"unsupported container: version {blob[4]}")
    pos = 6 + blob[5]
    if pos + 3 > len(blob):
        raise FormatError("unsupported container: truncated header")
    try:
        chain = TransformChain(tuple(TRANSFORM_NAME[tid] for tid in blob[6:pos]))
    except KeyError as exc:
        raise FormatError(f"unsupported container: transform id {exc.args[0]}") from None
    except ValueError as exc:
        raise FormatError(f"unsupported container: {exc}") from None
    coder_id = blob[pos]
    if coder_id not in CODER_BY_ID:
        raise FormatError(f"unsupported container: coder id {coder_id}")
    coder = CODER_BY_ID[coder_id]
    (nch,) = struct.unpack_from("<H", blob, pos + 1)
    pos += 3
    channels = []
    payload_bytes = 0
    for ch in range(nch):
        if pos + 13 > len(blob):
            raise FormatError("unsupported container: truncated channel table")
        token_count, width, side_len = struct.unpack_from("<QBI", blob, pos)
        pos += 13
        side = bytes(blob[pos : pos + side_len])
        if len(side) != side_len:
            raise FormatError("unsupported container: truncated side header")
        pos += side_len
        if pos + 8 > len(blob):
            raise FormatError("unsupported container: truncated channel table")
        (plen,) = struct.unpack_from("<Q", blob, pos)
        pos += 8
        coded = bytes(blob[pos : pos + plen])
        if len(coded) != plen:
            raise FormatError("truncated stream")
        pos += plen
        header, payload = coder.split(coded)
        payload_bytes += len(payload)
        samples = decode_channel(token_count, width, side, header, payload, chain, coder)
        channels.append(TimeSeries(samples=samples, channel_id=ch))
    if pos != len(blob):
        raise FormatError("unsupported container: trailing bytes")
    return DecodedContainer(
        chain=chain, coder_name=coder.name, channels=channels, payload_bytes=payload_bytes
    )
