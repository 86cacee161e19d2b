"""Container framing: the coder id table, header splits, backend widths and
rejection of malformed containers."""

import itertools
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tscodec import container
from tscodec.backends import is_available
from tscodec.coders.bitio import PACK_TOKENS
from tscodec.coders.registry import CODER_BY_ID, CODERS, INTERNAL_CODER_NAMES
from tscodec.container import build_container, decode_channel, read_container
from tscodec.core import TimeSeries
from tscodec.errors import FormatError, TruncatedStreamError
from tscodec.synth import SynthSpec, generate
from tscodec.transforms import TRANSFORM_ORDER, TransformChain

AVAILABLE_CODERS = [
    name for name, info in CODERS.items() if info.kind != "backend" or is_available(name)
]


def test_coder_ids_are_pinned():
    # Id bytes are part of the format; backend ids follow BACKENDS' order.
    assert {name: info.id_byte for name, info in CODERS.items()} == {
        "expgolomb": 1,
        "bitpack": 2,
        "huffman": 3,
        "drh": 4,
        "range": 5,
        "lzss": 6,
        "deflate": 16,
        "zstd": 17,
        "brotli": 18,
        "bzip2": 19,
        "lzma": 20,
        "lz4": 21,
        "snappy": 22,
        "blosc": 23,
        "sprintz": 24,
        "pcodec": 25,
    }
    assert CODER_BY_ID == {info.id_byte: info for info in CODERS.values()}


@pytest.mark.parametrize("name", ["huffman", "range"])
@pytest.mark.parametrize("blob", [b"", b"\x05"])
def test_blob_shorter_than_the_table_count_is_rejected(name, blob):
    with pytest.raises(FormatError, match="^truncated (code|frequency) table$"):
        decode_channel(3, 0, b"", *CODERS[name].split(blob), TransformChain(()), CODERS[name])


@pytest.mark.parametrize("stages, width", [((), 2), (("delta",), 4)])
def test_backend_descriptor_carries_the_serialized_width(monkeypatch, stages, width):
    seen = []

    def spy(real):
        def call(data, desc, *size):
            seen.append(desc.width)
            return real(data, desc, *size)

        return call

    monkeypatch.setattr(container, "backend_compress", spy(container.backend_compress))
    monkeypatch.setattr(container, "backend_decompress", spy(container.backend_decompress))
    # Deltas of full-scale 16-bit swings need 17 bits, so they serialize at width 4.
    series = TimeSeries(samples=[-32768, 32767, -32768, 32767])
    blob = build_container([series], TransformChain(stages), "deflate")
    assert read_container(blob).channels == [series]
    assert seen == [width, width]


def test_backend_width_byte_outside_2_and_4_is_rejected():
    series = TimeSeries(samples=np.arange(50))
    blob = bytearray(build_container([series], TransformChain(()), "deflate"))
    # Empty chain: channel table at offset 9, token count u64 then width u8.
    struct.pack_into("<QB", blob, 9, 100, 1)
    with pytest.raises(FormatError, match="width"):
        read_container(bytes(blob))


def _delta_channel(coder: str) -> tuple[TimeSeries, bytearray]:
    """A one-channel container with chain delta; its channel table is at 10."""
    series = generate(SynthSpec(case="sine", n=300, seed=4))
    return series, bytearray(build_container([series], TransformChain(("delta",)), coder))


@pytest.mark.parametrize("coder", ["drh", "huffman", "deflate"])
def test_side_bytes_without_quars_are_rejected(coder):
    series, blob = _delta_channel(coder)
    assert read_container(bytes(blob)).channels == [series]
    # Token count u64 and width u8, then the side length u32 and side bytes.
    struct.pack_into("<I", blob, 19, 8)
    blob[23:23] = b"\x00" * 8
    with pytest.raises(FormatError, match="side bytes without quars"):
        read_container(bytes(blob))


@pytest.mark.parametrize("coder", ["expgolomb", "bitpack", "huffman", "drh", "range"])
def test_width_byte_on_a_symbol_coder_is_rejected(coder):
    series, blob = _delta_channel(coder)
    assert read_container(bytes(blob)).channels == [series]
    blob[18] = 9
    with pytest.raises(FormatError, match="width 9"):
        read_container(bytes(blob))


def test_backend_payload_of_the_wrong_size_is_rejected():
    series, blob = _delta_channel("deflate")
    assert read_container(bytes(blob)).channels == [series]
    struct.pack_into("<Q", blob, 10, len(series) + 1)  # one token more than deflated
    with pytest.raises(FormatError, match="payload decoded to unexpected size"):
        read_container(bytes(blob))


def test_token_count_past_the_c_length_range_is_rejected():
    _, blob = _delta_channel("deflate")
    struct.pack_into("<Q", blob, 10, 2**63 - 1)  # times the width, beyond ssize_t
    with pytest.raises(FormatError, match="payload decoded to unexpected size"):
        read_container(bytes(blob))


def test_deflate_bomb_is_rejected_without_its_output():
    # 10 tokens of width 2 declared; the payload inflates to 8 MiB.
    bomb = zlib.compress(bytes(8 << 20), 9)
    blob = b"TSC1\x01\x00" + bytes([CODERS["deflate"].id_byte])
    blob += struct.pack("<HQBIQ", 1, 10, 2, 0, len(bomb)) + bomb
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="payload decoded to unexpected size"):
            read_container(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("coder", ["expgolomb", "huffman", "range", "bitpack"])
def test_quars_channel_holding_int32_max_roundtrips(coder):
    # The side map's upper bound is 2^31, stored as the bytes of INT32_MIN.
    series = TimeSeries(samples=[0, 2**31 - 1])
    blob = build_container([series], TransformChain(("quars",)), coder)
    assert read_container(blob).channels == [series]


@pytest.mark.parametrize("stages", [(), ("rle0",)])
def test_forged_65_bit_expgolomb_codeword_is_rejected(stages):
    # 32 zeros, a 1 and 32 ones: one bit past the 64-bit codewords that
    # pack_codes writes. It decodes to the zigzag token 2^33 - 2, whose
    # sample 2^32 - 1 is outside int32 and would otherwise reach TimeSeries.
    payload = bytes(4) + b"\xff" * 4 + b"\x80"
    blob = b"TSC1\x01" + bytes([len(stages)] + [TRANSFORM_ORDER.index(s) + 1 for s in stages])
    blob += bytes([CODERS["expgolomb"].id_byte]) + struct.pack("<HQBIQ", 1, 1, 0, 0, len(payload))
    with pytest.raises(FormatError, match="channel 0 entry at byte"):
        read_container(blob + payload)


def _delta_rle0_container() -> tuple[TimeSeries, bytearray]:
    series = generate(SynthSpec(case="sine", n=300, seed=1))
    return series, bytearray(build_container([series], TransformChain(("delta", "rle0")), "drh"))


def test_chain_out_of_order_is_rejected_on_read():
    series, blob = _delta_rle0_container()
    assert np.array_equal(read_container(bytes(blob)).channels[0].samples, series.samples)
    blob[6], blob[7] = blob[7], blob[6]  # rle0, delta
    with pytest.raises(FormatError, match="chain order"):
        read_container(bytes(blob))


def test_repeated_transform_id_is_rejected_on_read():
    _, blob = _delta_rle0_container()
    blob[7] = blob[6]  # delta, delta
    with pytest.raises(FormatError, match="chain order"):
        read_container(bytes(blob))


@pytest.mark.parametrize("tid", [0, 4, 255])
@pytest.mark.parametrize("at", [6, 7, 8])
def test_unknown_transform_id_names_its_own_byte(at, tid):
    blob = bytearray(build_container([_SINE], TransformChain(TRANSFORM_ORDER), "drh"))
    blob[at] = tid
    with pytest.raises(FormatError, match=f"^unsupported container: transform id {tid} at byte {at}$"):
        read_container(bytes(blob))


# delta, rle0, quars are ids 1, 2, 3 at bytes 6, 7, 8: the error names the
# first id after which the stages stop following that order once each.
@pytest.mark.parametrize(
    ("tids", "at"), [((1, 2, 2), 8), ((1, 1, 3), 7), ((3, 2, 3), 7)], ids=["122", "113", "323"]
)
def test_chain_order_error_names_the_first_id_out_of_order(tids, at):
    blob = bytearray(build_container([_SINE], TransformChain(TRANSFORM_ORDER), "huffman"))
    blob[6:9] = bytes(tids)
    order = "invalid chain order: stages follow delta, rle0, quars; no duplicate"
    with pytest.raises(FormatError, match=f"^unsupported container: {order} at byte {at}$"):
        read_container(bytes(blob))


# What each coder makes of the int32 extremes, without and after delta
# (whose step from INT32_MIN to INT32_MAX needs 33 bits); None builds.
INT32_EXTREMES_FAILURES = {
    "expgolomb": ("codeword lengths must be in [1, 64]", "codeword lengths must be in [1, 64]"),
    "bitpack": (None, "value wider than 32 bits"),
    "huffman": (None, "symbol outside the int32 alphabet"),
    "drh": ("codeword lengths must be in [1, 64]", "codeword lengths must be in [1, 64]"),
    "range": (None, "symbol outside the int32 alphabet"),
    "lzss": (None, "sample out of range for 32-bit serialization"),
    "deflate": (None, "sample out of range for 32-bit serialization"),
}


@pytest.mark.parametrize("coder", INT32_EXTREMES_FAILURES)
@pytest.mark.parametrize("stage", [0, 1], ids=["none", "delta"])
def test_int32_extremes_encode_or_fail_with_the_coders_message(coder, stage):
    channels = [TimeSeries(samples=[-(2**31), 2**31 - 1, 0])]
    chain = TransformChain(("delta",)[:stage])
    message = INT32_EXTREMES_FAILURES[coder][stage]
    if message is None:
        assert read_container(build_container(channels, chain, coder)).channels == channels
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_container(channels, chain, coder)


@pytest.mark.parametrize("coder", ["expgolomb", "drh"])
def test_an_int32_min_blocks_after_the_start_still_fails_the_whole_stream(coder):
    # The blocks before it pack cleanly; its 65-bit codeword fails the last.
    samples = np.zeros(3 * PACK_TOKENS + 1, dtype=np.int64)
    samples[-1] = -(2**31)
    blob = None
    with pytest.raises(ValueError, match=r"^codeword lengths must be in \[1, 64\]$"):
        blob = build_container([TimeSeries(samples=samples)], TransformChain(()), coder)
    assert blob is None


def test_unknown_coder_name_is_rejected():
    with pytest.raises(ValueError, match="^unknown coder 'paq8'$"):
        build_container([_SINE], TransformChain(()), "paq8")


def test_trailing_bytes_are_named_at_their_offset():
    blob = build_container([TimeSeries(samples=[1, 2, 3])], TransformChain(("delta",)), "huffman")
    assert len(blob) == 39
    with pytest.raises(FormatError, match="^unsupported container: trailing bytes at byte 39$"):
        read_container(blob + b"\x00\x00")


def test_no_channels_or_an_empty_channel_is_refused_on_write():
    with pytest.raises(ValueError, match="^no channels to compress$"):
        build_container([], TransformChain(()), "drh")
    for channels in ([TimeSeries(samples=[])], [_SINE, TimeSeries(samples=[], channel_id=1)]):
        with pytest.raises(ValueError, match="^undefined on empty input$"):
            build_container(channels, TransformChain(("delta",)), "drh")


def test_more_channels_than_the_count_field_holds_are_refused_before_encoding(monkeypatch):
    monkeypatch.setattr(container, "encode_channel", None)  # any call would fail with a TypeError
    with pytest.raises(ValueError, match="^65536 channels: a container holds at most 65535$"):
        build_container([TimeSeries([1])] * 65536, TransformChain(()), "drh")


def test_channel_ids_are_not_stored():
    blob = build_container([TimeSeries([1, 2, 3], channel_id=5)], TransformChain(("delta",)), "drh")
    assert read_container(blob).channels == [TimeSeries([1, 2, 3], channel_id=0)]


def test_a_cut_fixed_header_names_the_first_missing_field():
    # magic (4 bytes), version, transform count, 3 transform ids, coder id,
    # channel count (2 bytes): 12 bytes.
    blob = build_container([_SINE], TransformChain(("delta", "rle0", "quars")), "huffman")
    missing = [0, 0, 0, 0, 4, 5, 6, 7, 8, 9, 10, 10]
    for cut, at in enumerate(missing):
        with pytest.raises(FormatError, match=f"^unsupported container: truncated header at byte {at}$"):
            read_container(blob[:cut])
    for cut in range(1, len(missing)):  # a wrong magic stays bad magic, however short
        with pytest.raises(FormatError, match="^unsupported container: bad magic at byte 0$"):
            read_container(bytes([blob[0] ^ 0xFF]) + blob[1:cut])


@pytest.mark.parametrize("coder", AVAILABLE_CODERS)
def test_every_truncation_raises_format_error(coder):
    channels, blob = _two_channels(coder)
    assert read_container(blob).channels == channels
    for cut in range(len(blob)):
        with pytest.raises(FormatError):
            read_container(blob[:cut])


# The chain grammar: every ordered subsequence of delta, rle0, quars, and
# nothing else. Transform ids are part of the format.
ORDERED_SUBSEQUENCES = {c for k in range(4) for c in itertools.combinations(TRANSFORM_ORDER, k)}
STAGE_ID = {"delta": 1, "rle0": 2, "quars": 3}
_SINE = generate(SynthSpec(case="sine", n=200, seed=2))
_NO_CHAIN = build_container([_SINE], TransformChain(()), "drh")


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(TRANSFORM_ORDER), max_size=5).map(tuple))
def test_chain_grammar_is_the_ordered_subsequences(stages):
    ids = bytes(STAGE_ID[s] for s in stages)
    if stages in ORDERED_SUBSEQUENCES:
        blob = build_container([_SINE], TransformChain(stages), "drh")
        assert blob[5 : 6 + len(ids)] == bytes([len(ids)]) + ids
        decoded = read_container(blob)
        assert decoded.chain.stages == stages
        assert np.array_equal(decoded.channels[0].samples, _SINE.samples)
    else:
        with pytest.raises(ValueError, match="invalid chain order"):
            TransformChain(stages)
        # The same ids spliced into a valid container's header.
        blob = _NO_CHAIN[:5] + bytes([len(ids)]) + ids + _NO_CHAIN[6:]
        with pytest.raises(FormatError, match="chain order"):
            read_container(blob)


NO_LEVEL_CODERS = ["expgolomb", "bitpack", "huffman", "drh", "range", "lzss", "lz4", "snappy", "sprintz"]


@pytest.mark.parametrize("coder", NO_LEVEL_CODERS)
def test_level_for_a_coder_without_levels_is_rejected(coder):
    # Checked before any coding, so an uninstalled backend fails the same way.
    with pytest.raises(ValueError, match="takes no level"):
        build_container([_SINE], TransformChain(()), coder, level=5)


def test_level_reaches_a_leveled_backend():
    fast = build_container([_SINE], TransformChain(()), "deflate", level=1)
    best = build_container([_SINE], TransformChain(()), "deflate", level=9)
    assert fast != best
    assert read_container(fast).channels == read_container(best).channels == [_SINE]


def _two_channels(coder: str) -> tuple[list, bytes]:
    channels = [
        generate(SynthSpec(case="switching", n=120, seed=3)),
        TimeSeries(samples=generate(SynthSpec(case="noise", n=40, seed=3)).samples, channel_id=1),
    ]
    return channels, build_container(channels, TransformChain(("delta", "rle0", "quars")), coder)


def _entries(blob) -> list[tuple[int, int, int]]:
    """Each channel's entry offset, side length and payload length, read by hand:
    token count u64, width u8, side length u32, side, payload length u64, payload."""
    pos = 6 + blob[5] + 3
    out = []
    for _ in range(struct.unpack_from("<H", blob, pos - 2)[0]):
        side_len = struct.unpack_from("<I", blob, pos + 9)[0]
        plen = struct.unpack_from("<Q", blob, pos + 13 + side_len)[0]
        out.append((pos, side_len, plen))
        pos += 13 + side_len + 8 + plen
    assert pos == len(blob)
    return out


@pytest.mark.parametrize("coder", ["bitpack", "huffman", "deflate"])
def test_cut_in_channel_1_names_the_channel_field_and_offset(coder):
    _, blob = _two_channels(coder)
    entry, side_len, _ = _entries(blob)[1]
    side = entry + 13
    plen_at = side + side_len
    assert side_len > 0
    for cut in range(entry, len(blob)):
        if cut < side:
            field, at = "channel table", entry
        elif cut < plen_at:
            field, at = "side header", side
        elif cut < plen_at + 8:
            field, at = "channel table", plen_at
        else:
            field, at = "payload", plen_at + 8
        with pytest.raises(FormatError, match=f": channel 1 {field} at byte {at}$"):
            read_container(blob[:cut])


@pytest.mark.parametrize("field", ["side header", "payload"])
def test_forged_length_fails_before_copying(field):
    # Channel 1 holds about 250 KB, which a read that slices before its
    # bounds check would copy when channel 0's length runs past the end.
    big = TimeSeries(samples=np.arange(200_000) % 1000, channel_id=1)
    blob = bytearray(build_container([_SINE, big], TransformChain(()), "bitpack"))
    entry, side_len, _ = _entries(blob)[0]
    if field == "side header":
        struct.pack_into("<I", blob, entry + 9, 2**32 - 1)
        at = entry + 13
    else:
        struct.pack_into("<Q", blob, entry + 13 + side_len, 2**64 - 1)
        at = entry + 13 + side_len + 8
    blob = bytes(blob)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=f"channel 0 {field} at byte {at}$"):
            read_container(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10


@pytest.mark.parametrize("coder", [*INTERNAL_CODER_NAMES, "deflate"])
@pytest.mark.parametrize("stages", sorted(ORDERED_SUBSEQUENCES))
def test_no_channels_and_a_channel_of_no_tokens_are_rejected(stages, coder):
    # build_container refuses both; a forged count must not decode to an
    # empty channel, an empty list or an error of another class.
    blob = bytearray(build_container([_SINE], TransformChain(stages), coder))
    assert read_container(bytes(blob)).channels == [_SINE]
    [(entry, _, _)] = _entries(blob)
    no_tokens = blob.copy()
    struct.pack_into("<Q", no_tokens, entry, 0)
    with pytest.raises(FormatError, match=f"no tokens: channel 0 channel table at byte {entry}$"):
        read_container(bytes(no_tokens))
    no_channels = blob[:entry]
    struct.pack_into("<H", no_channels, entry - 2, 0)
    with pytest.raises(FormatError, match=f"no channels at byte {entry - 2}$"):
        read_container(bytes(no_channels))


def test_decoded_channels_own_the_decoders_arrays(monkeypatch):
    """read_container keeps each decoded array, read-only, without a copy;
    the range check still applies."""
    blob = build_container([TimeSeries(samples=[1, 2, 3])], TransformChain(("delta",)), "bitpack")
    decoded = np.array([4, 5, 6])
    monkeypatch.setattr(container, "decode_channel", lambda *args: decoded)
    assert read_container(blob).channels[0].samples is decoded
    assert not decoded.flags.writeable
    monkeypatch.setattr(container, "decode_channel", lambda *args: np.array([1 << 31]))
    with pytest.raises(ValueError, match="signed 32-bit range"):
        read_container(blob)


def test_truncated_huffman_payload_keeps_its_class_and_names_the_channel():
    _, blob = _two_channels("huffman")
    entry, side_len, plen = _entries(blob)[1]
    # Channel 1 is last: drop its payload's last 4 bytes and declare the shorter length.
    cut = bytearray(blob[:-4])
    struct.pack_into("<Q", cut, entry + 13 + side_len, plen - 4)
    with pytest.raises(TruncatedStreamError, match=rf"^truncated stream: channel 1 entry at byte {entry} \(huffman\)$"):
        read_container(bytes(cut))
