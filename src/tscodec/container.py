"""Self-describing compressed container.

The layout is declared once, by the ``struct.Struct`` constants below:
``build_container`` and ``encode_channel`` write through them, and one
bounded walker reads the channel table through them, yielding each
channel's fields with its coder header and payload apart. A read error names
its byte offset and, past the header, the channel; a framing error also
names the field (channel table, side header or payload).

Token count is the length of the post-transform stream the coder decoded;
inverting the transform chain recovers the original sample count, so a
container decodes with no external information. Unknown versions, ids, or
magic are rejected outright, never partially parsed, and so are the
shapes no encoder writes: no channels, a channel of zero tokens, a width
other than 0 for a symbol coder and other than 2 or 4 otherwise. The side
bytes are framed here and parsed only by ``chain_invert``.

Transform ids number the stages of ``TRANSFORM_ORDER`` from 1. The chain
grammar is ``TransformChain``'s own, so a container whose transform ids are
out of order or repeated is rejected on read, not decoded. A level is
accepted only where ``backends.takes_level`` allows it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .backends import BackendDescriptor, backend_compress, backend_decompress, deserialize_series, serialize_series, takes_level
from .coders.registry import CODER_BY_ID, CoderInfo, get_coder
from .core import TimeSeries, as_samples
from .errors import FormatError
from .transforms import TRANSFORM_ORDER, TransformChain, chain_apply, chain_invert

MAGIC = b"TSC1"
VERSION = 1

# Little-endian. One id byte per transform stage lies between the two header parts.
_HEAD = struct.Struct("<4sBB")  # magic, version, transform count
_HEAD_TAIL = struct.Struct("<BH")  # coder id (the registry's id byte), channel count
_ENTRY = struct.Struct("<QBI")  # per channel: token count, width (0 for symbol coders), side length
_PAYLOAD_LEN = struct.Struct("<Q")  # after the side bytes: length of the coder header and payload that follow
_CUT_TABLE = "unsupported container: truncated channel table"  # a cut in either fixed part of an entry

TRANSFORM_NAME = dict(enumerate(TRANSFORM_ORDER, 1))


def encode_channel(
    series,
    chain: TransformChain,
    coder: CoderInfo,
    level: int | None = None,
) -> tuple[bytes, ...]:
    """Transform and code one channel into the five parts of its
    channel-table entry, in order; ``build_container`` joins them once."""
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
    return (
        _ENTRY.pack(tokens.size, width, len(side)),
        side,
        _PAYLOAD_LEN.pack(len(header) + len(payload)),
        header,
        payload,
    )


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
    if level is not None and not takes_level(coder_name):
        raise ValueError(f"coder {coder_name!r} takes no level")
    if not channels:
        raise ValueError("no channels to compress")
    if len(channels) > 0xFFFF:
        raise ValueError(f"{len(channels)} channels: a container holds at most 65535")
    parts = [
        _HEAD.pack(MAGIC, VERSION, len(chain.stages)),
        bytes(TRANSFORM_ORDER.index(s) + 1 for s in chain.stages),
        _HEAD_TAIL.pack(coder.id_byte, len(channels)),
    ]
    for ch in channels:
        parts += encode_channel(ch, chain, coder, level)
    return b"".join(parts)


@dataclass(frozen=True)
class DecodedContainer:
    chain: TransformChain
    coder_name: str
    channels: list
    payload_bytes: int  # coder payloads only: no coder headers, side maps or framing


def _take(blob: bytes, pos: int, size: int, cause: str, ch: int, field: str) -> tuple[bytes, int]:
    """Channel ``ch``'s ``field``: the ``size`` bytes at ``pos``, bounded
    before they are sliced, and the offset after them. A cut raises
    ``cause``, followed by the channel, the field and ``pos``."""
    end = pos + size
    if end > len(blob):
        raise FormatError(f"{cause}: channel {ch} {field} at byte {pos}")
    return blob[pos:end], end


def _channel_table(blob: bytes, pos: int, nch: int, split):
    """Yield each channel's entry offset, token count, width, side bytes,
    coder header and payload, separated by the coder's rule ``split``."""
    for ch in range(nch):
        fields, end = _take(blob, pos, _ENTRY.size, _CUT_TABLE, ch, "channel table")
        token_count, width, side_len = _ENTRY.unpack(fields)
        if token_count == 0:
            raise FormatError(f"unsupported container: no tokens: channel {ch} channel table at byte {pos}")
        side, end = _take(blob, end, side_len, "unsupported container: truncated side header", ch, "side header")
        fields, end = _take(blob, end, _PAYLOAD_LEN.size, _CUT_TABLE, ch, "channel table")
        coded, end = _take(blob, end, *_PAYLOAD_LEN.unpack(fields), "truncated stream", ch, "payload")
        # A bytearray blob slices to bytearrays; the coders get bytes.
        yield pos, token_count, width, bytes(side), *split(bytes(coded))
        pos = end
    if pos != len(blob):
        raise FormatError(f"unsupported container: trailing bytes at byte {pos}")


def read_container(blob: bytes) -> DecodedContainer:
    """Decode a container back to its channels, numbered 0 to n-1 in
    their order: a container stores no channel id.

    Raises :class:`FormatError` on bad magic, unknown version or ids, a
    truncated header or entry, no channels or tokens, or a chain out of
    order. Each error names its byte offset and, past the header, its
    channel and the container's coder; coder and transform errors
    (truncated payloads and the like) keep their class.
    """
    if not MAGIC.startswith(blob[: len(MAGIC)]):
        raise FormatError("unsupported container: bad magic at byte 0")
    if len(blob) > len(MAGIC) and blob[len(MAGIC)] != VERSION:
        raise FormatError(f"unsupported container: version {blob[len(MAGIC)]} at byte {len(MAGIC)}")
    pos = _HEAD.size + (blob[_HEAD.size - 1] if len(blob) >= _HEAD.size else 0)  # the coder id's offset
    if pos + _HEAD_TAIL.size > len(blob):
        # The first field cut short starts at the cut, unless the cut falls
        # inside the magic or the channel count.
        at = 0 if len(blob) < len(MAGIC) else min(len(blob), pos + 1)
        raise FormatError(f"unsupported container: truncated header at byte {at}")
    # Grown one stage at a time, so an error names the first id that breaks the grammar.
    chain = TransformChain()
    for at in range(_HEAD.size, pos):
        try:
            chain = TransformChain((*chain.stages, TRANSFORM_NAME[blob[at]]))
        except KeyError:
            raise FormatError(f"unsupported container: transform id {blob[at]} at byte {at}") from None
        except ValueError as exc:
            raise FormatError(f"unsupported container: {exc} at byte {at}") from None
    coder_id, nch = _HEAD_TAIL.unpack_from(blob, pos)
    if coder_id not in CODER_BY_ID:
        raise FormatError(f"unsupported container: coder id {coder_id} at byte {pos}")
    coder = CODER_BY_ID[coder_id]
    if nch == 0:
        raise FormatError(f"unsupported container: no channels at byte {pos + 1}")
    channels = []
    payload_bytes = 0
    table = _channel_table(blob, pos + _HEAD_TAIL.size, nch, coder.split)
    for ch, (entry, token_count, width, side, header, payload) in enumerate(table):
        try:
            samples = decode_channel(token_count, width, side, header, payload, chain, coder)
        except FormatError as exc:
            raise type(exc)(f"{exc}: channel {ch} entry at byte {entry} ({coder.name})") from exc
        payload_bytes += len(payload)
        channels.append(TimeSeries._adopt(samples, ch))
    return DecodedContainer(
        chain=chain, coder_name=coder.name, channels=channels, payload_bytes=payload_bytes
    )
