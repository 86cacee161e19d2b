"""Differential tests of the vectorized decoders against the scalar oracles.

On valid streams every decoder must return exactly what its oracle in
``oracles.py`` returns. On truncated, bit-flipped or spliced streams it may
instead raise a ``FormatError`` subclass, but never any other exception,
and never return something the oracle would not.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from tscodec.coders import bitio, bitpack, drh, expgolomb, huffman, lzss, rangecoder
from tscodec.errors import FormatError, TruncatedStreamError


def _eg_encode(values):
    return b"", expgolomb.encode(values).data


def _drh_encode(values):
    return b"", drh.encode(values).data


def _huffman_encode(values):
    header, payload = huffman.encode(values)
    return header, payload.data


def _lzss_encode(values):
    return b"", lzss.compress(bytes(values))


def _lzss_decode(decompress, sized):
    """An LZSS decoder over token lists; ``sized`` passes the count as the size."""

    def decode(header, payload, count):
        out = decompress(payload, count) if sized else decompress(payload)
        return np.frombuffer(out, dtype=np.uint8).astype(np.int64)

    return decode


CODERS = {
    # name: (encode -> (header, payload), new decode, oracle decode, value range)
    "expgolomb": (
        _eg_encode,
        lambda h, p, n: expgolomb.decode(p, n),
        lambda h, p, n: oracles.expgolomb_decode(p, n),
        (0, 2**32 - 2),
    ),
    "drh": (
        _drh_encode,
        lambda h, p, n: drh.decode(p, n),
        lambda h, p, n: oracles.drh_decode(p, n),
        (-(2**31) + 1, 2**31 - 1),
    ),
    "huffman": (_huffman_encode, huffman.decode, oracles.huffman_decode, (-(2**31), 2**31 - 1)),
    "range": (rangecoder.encode, rangecoder.decode, oracles.range_decode, (-(2**31), 2**31 - 1)),
    "bitpack": (
        lambda v: (b"", bitpack.encode(v)),
        lambda h, p, n: bitpack.decode(p, n),
        lambda h, p, n: oracles.bitpack_decode(p, n),
        (0, 2**32 - 1),
    ),
    "lzss": (_lzss_encode, _lzss_decode(lzss.decompress, True), _lzss_decode(oracles.lzss_decompress, True), (0, 255)),
    "lzss-unsized": (
        _lzss_encode,
        _lzss_decode(lzss.decompress, False),
        _lzss_decode(oracles.lzss_decompress, False),
        (0, 255),
    ),
}


@st.composite
def token_streams(draw, lo, hi):
    """Token lists mixing small values, repeats and the full range."""
    n = draw(st.integers(1, 400))
    scale = draw(st.sampled_from([1, 4, 16, 31]))
    wide_share = draw(st.sampled_from([0.0, 0.05, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    small = rng.integers(max(lo, -(2**scale)), min(hi, 2**scale) + 1, n)
    wide = rng.integers(lo, hi + 1, n)
    return np.where(rng.random(n) < wide_share, wide, small).tolist()


def _same_or_format_error(new, oracle, header, payload, count):
    try:
        got = new(header, payload, count)
    except FormatError:
        return
    want = oracle(header, payload, count)
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("name", list(CODERS))
class TestAgainstOracle:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_valid_streams_match(self, name, data):
        encode, new, oracle, (lo, hi) = CODERS[name]
        values = data.draw(token_streams(lo, hi))
        header, payload = encode(values)
        got = new(header, payload, len(values))
        assert got.tolist() == oracle(header, payload, len(values)).tolist() == values

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_damaged_streams_match_or_raise_format_error(self, name, data):
        encode, new, oracle, (lo, hi) = CODERS[name]
        values = data.draw(token_streams(lo, hi))
        header, payload = encode(values)
        damage_header = bool(header) and data.draw(st.booleans())
        blob = bytearray(header if damage_header else payload)
        kind = data.draw(st.sampled_from(["truncate", "flip", "splice"]))
        if kind == "truncate":
            del blob[data.draw(st.integers(0, max(0, len(blob) - 1))) :]
        elif kind == "flip" and blob:
            bit = data.draw(st.integers(0, 8 * len(blob) - 1))
            blob[bit >> 3] ^= 0x80 >> (bit & 7)
        else:
            at = data.draw(st.integers(0, len(blob)))
            blob[at:at] = data.draw(st.binary(min_size=1, max_size=16))
        if damage_header:
            header = bytes(blob)
        else:
            payload = bytes(blob)
        count = len(values) + data.draw(st.sampled_from([0, 0, 1, -1]))
        _same_or_format_error(new, oracle, header, payload, max(count, 0))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", ["expgolomb", "drh", "huffman"])
def test_streams_spanning_many_chunks(name, seed):
    """Codewords straddle chunk boundaries at every offset the data gives."""
    encode, new, oracle, (lo, hi) = CODERS[name]
    rng = np.random.default_rng(seed)
    n = 40_000
    bits = rng.integers(0, 31, n)
    values = np.clip(rng.integers(0, 1 << 30, n) >> (30 - bits), lo, hi)
    if lo < 0:
        values = np.where(rng.random(n) < 0.5, -values, values)
    header, payload = encode(values)
    assert 8 * len(payload) > 4 * bitio.CHUNK_BITS
    got = new(header, payload, n)
    assert np.array_equal(got, oracle(header, payload, n))
    assert np.array_equal(got, values)



def test_range_encoder_matches_the_loop_that_tests_every_case():
    """Same bytes as the oracle's encoder, on inputs that clip the range."""
    clips = 0
    for seed in range(40):
        values = np.random.default_rng(seed).integers(0, 300, 5000)
        header, payload, n_clips = oracles.range_encode(values)
        assert rangecoder.encode(values) == (header, payload)
        assert np.array_equal(rangecoder.decode(header, payload, values.size), values)
        clips += n_clips
    # A clip is rare; 50 shows that the branch was exercised.
    assert clips >= 50


def _code_lengths(name, header, values):
    """Bits each value's codeword spends."""
    if name == "expgolomb":
        return expgolomb.code_lengths(values)
    if name == "drh":
        return 2 * bitio.bit_length_u64(np.abs(values)) + 1
    symbols, lengths = huffman.parse_header(header)
    return lengths[np.searchsorted(symbols, values)]


def _chunk_ends(lengths, nbits):
    """Codewords decoded by the end of each chunk, as ``decode_chunks`` splits them."""
    ends = np.cumsum(lengths)
    starts = ends - lengths
    out = []
    pos = done = 0
    while done < lengths.size:
        base = pos & ~7
        done = int(np.searchsorted(starts, base + min(nbits - base, bitio.CHUNK_BITS)))
        out.append(done)
        pos = int(ends[done - 1])
    return out


@pytest.mark.parametrize("name", ["expgolomb", "drh", "huffman"])
def test_every_count_cut_near_chunk_ends(name):
    """A count ending at each lane residue around every chunk end, and at the end."""
    encode, new, oracle, (lo, hi) = CODERS[name]
    rng = np.random.default_rng(7)
    n = 20_000
    values = np.clip(rng.integers(0, 1 << 20, n) >> rng.integers(0, 21, n), lo, hi)
    if lo < 0:
        values = np.where(rng.random(n) < 0.5, -values, values)
    header, payload = encode(values)
    chunk_ends = _chunk_ends(_code_lengths(name, header, values), 8 * len(payload))
    assert len(chunk_ends) >= 3 and chunk_ends[-1] == n
    full = new(header, payload, n)
    assert np.array_equal(full, values)
    lane = 1 << bitio.JUMP_ROUNDS
    for end in chunk_ends:
        for k in range(end - lane - 1, min(end + lane + 1, n) + 1):
            assert np.array_equal(new(header, payload, k), values[:k]), k


def _codeword(name, k, suffix):
    """Bits and value of the codeword with a k-bit prefix and a k-bit ``suffix``."""
    tail = format(suffix, f"0{k}b") if k else ""
    if name == "expgolomb":
        return "0" * k + "1" + tail, (1 << k | suffix) - 1
    value = suffix if k == 0 or suffix >> (k - 1) else suffix - (1 << k) + 1
    return "1" * k + "0" + tail, value


@pytest.mark.parametrize("offset", range(8))
@pytest.mark.parametrize(
    "name, prefixes, limit",
    [("expgolomb", (11, 12, 13, 31), bitio.MAX_PREFIX), ("drh", (11, 12, 13, 31), bitio.MAX_PREFIX)],
)
def test_long_prefixes_at_every_bit_offset(name, prefixes, limit, offset):
    """Prefixes around and past the peeked bits, starting at bit ``offset``.

    ``offset`` one-bit codewords come first, so the long codeword starts at
    that bit of its byte; short and long codewords follow it.
    """
    _, new, oracle, _ = CODERS[name]
    for k in prefixes:
        words = [_codeword(name, 0, 0)] * offset + [
            _codeword(name, k, 0x5555_5555 % (1 << k)),
            _codeword(name, 2, 3),
            _codeword(name, k, (1 << k) - 1),
            _codeword(name, bitio.PEEK_BITS, 1),
            _codeword(name, 0, 0),
        ]
        payload = _bits("".join(bits for bits, _ in words))
        values = [v for _, v in words]
        assert new(b"", payload, len(values)).tolist() == values
        assert oracle(b"", payload, len(values)).tolist() == values
    # One prefix bit past the limit: the prefix bits, the stop bit, then as
    # many suffix bits, all present.
    zero, _ = _codeword(name, 0, 0)
    long, _ = _codeword(name, limit + 1, (1 << limit + 1) - 1)
    with pytest.raises(FormatError, match=f"prefix longer than {limit}"):
        new(b"", _bits(zero * offset + long), offset + 1)


@pytest.mark.parametrize("name", ["expgolomb", "drh", "huffman"])
def test_codeword_one_bit_past_the_end_is_truncated(name):
    """The last codeword ends exactly at the stream's end; one bit fewer cuts
    it, and so does asking for one codeword more. That holds in the first
    chunk and in a later one, and a cut ranks before an invalid codeword or
    a prefix over the cap in the same last codeword."""
    for values in ([5, 0, 300, 2, 70_000, 1], [5, 0, 300, 2, 70_000, 1] * 12_000):
        if name == "huffman":
            header, stream = huffman.encode(values)
            decode = lambda s, n: huffman.decode(header, s, n)  # noqa: E731
        else:
            coder = expgolomb if name == "expgolomb" else drh
            stream, decode = coder.encode(values), coder.decode
        assert decode(stream, len(values)).tolist() == values
        cut = bitio.BitStream(stream.data, stream.bit_length - 1)
        with pytest.raises(TruncatedStreamError):
            decode(cut, len(values))
        with pytest.raises(TruncatedStreamError, match="^truncated stream$"):
            decode(stream, len(values) + 1)
    # The long stream's last codeword, at most 64 bits, starts past the first chunk.
    assert stream.bit_length - 64 > bitio.CHUNK_BITS
    if name == "huffman":
        # ``decode`` now reads a table of one symbol, coded "0": a 1 and the
        # 32 bits after it match no codeword.
        header = huffman.encode([7])[0]
        text, error = "000" + "1" + "0" * 32, "^invalid codeword$"
    else:
        text = _codeword(name, 0, 0)[0] * 3 + _codeword(name, bitio.MAX_PREFIX + 1, 0)[0]
        error = f"^codeword prefix longer than {bitio.MAX_PREFIX} bits$"
    with pytest.raises(FormatError, match=error):
        decode(bitio.BitStream(_bits(text), len(text)), 4)
    with pytest.raises(TruncatedStreamError, match="^truncated stream$"):
        decode(bitio.BitStream(_bits(text), len(text) - 1), 4)

def _lzss_stream(tokens) -> bytes:
    """LZSS bytes of ``tokens``: each a literal byte, or a (distance, length) match."""
    out = bytearray()
    for g in range(0, len(tokens), 8):
        group = tokens[g : g + 8]
        out.append(sum(0x80 >> t for t, token in enumerate(group) if isinstance(token, int)))
        for token in group:
            if isinstance(token, int):
                out.append(token)
            else:
                d, extra = token[0] - 1, token[1] - lzss.MIN_MATCH
                out += bytes([d >> 4, (d & 0xF) << 4 | extra])
    return bytes(out)


@pytest.mark.parametrize("distance", range(1, 18))
def test_lzss_self_overlapping_matches(distance):
    """Matches longer than their distance copy bytes they write themselves."""
    tokens = list(range(100, 100 + distance)) + [(distance, lzss.MAX_MATCH), (distance, 3), (distance, 17)]
    data = _lzss_stream(tokens)
    size = distance + lzss.MAX_MATCH + 3 + 17
    want = bytes(100 + i % distance for i in range(size))
    assert lzss.decompress(data) == oracles.lzss_decompress(data) == want
    assert lzss.decompress(data, size) == want


def test_lzss_match_reaching_exactly_to_the_start():
    data = _lzss_stream([1, 2, 3, (3, 5)])
    assert lzss.decompress(data, 8) == oracles.lzss_decompress(data, 8) == bytes([1, 2, 3, 1, 2, 3, 1, 2])
    for tokens in ([1, 2, 3, (4, 3)], [(1, 3)], [7, (1, 3), (5, 3)]):
        data = _lzss_stream(tokens)
        for size in (None, 100):
            assert _outcome(lambda *a: lzss.decompress(*a), data, size) == (FormatError, "invalid back-reference")
            assert _outcome(lambda *a: oracles.lzss_decompress(*a), data, size) == (
                FormatError,
                "invalid back-reference",
            )


def test_lzss_outcomes_equal_the_oracle():
    """Damaged streams decode to the same bytes, or fail with the same error."""
    rng = np.random.default_rng(3)
    for trial in range(400):
        n = int(rng.integers(0, 300))
        data = rng.integers(0, int(rng.integers(1, 256)), n, dtype=np.uint8).tobytes()
        blob = bytearray(lzss.compress(data))
        kind = trial % 4
        if kind == 1 and blob:
            del blob[int(rng.integers(0, len(blob))) :]
        elif kind == 2 and blob:
            bit = int(rng.integers(0, 8 * len(blob)))
            blob[bit >> 3] ^= 0x80 >> (bit & 7)
        elif kind == 3:
            at = int(rng.integers(0, len(blob) + 1))
            blob[at:at] = rng.integers(0, 256, int(rng.integers(1, 17)), dtype=np.uint8).tobytes()
        for size in {None, 0, n, max(n - 1, 0), n + 1}:
            args = (bytes(blob), size)
            want = _outcome(lambda *a: np.frombuffer(oracles.lzss_decompress(*a), dtype=np.uint8), *args)
            assert _outcome(lambda *a: np.frombuffer(lzss.decompress(*a), dtype=np.uint8), *args) == want

def test_lzss_streams_of_one_to_three_bytes_equal_the_oracle():
    """Every stream of 1 byte, and of 2-3 bytes over a few flag and body
    bytes, decodes as the oracle does, at no size and at sizes around the
    bytes it can hold."""
    flags = (0x00, 0x40, 0x7F, 0x80, 0xC0, 0xFF)
    body = (0x00, 0x01, 0x10, 0xFF)
    streams = [bytes([b]) for b in range(256)]
    streams += [bytes([f, *rest]) for f in flags for k in (1, 2) for rest in itertools.product(body, repeat=k)]
    for data in streams:
        for size in (None, 0, 1, 2, 3, 4):
            want = _outcome(lambda *a: np.frombuffer(oracles.lzss_decompress(*a), dtype=np.uint8), data, size)
            assert _outcome(lambda *a: np.frombuffer(lzss.decompress(*a), dtype=np.uint8), data, size) == want


@pytest.mark.parametrize("head", [[], [1, 2, 3], list(range(8)), list(range(7)) + [(1, 3)] * 9])
def test_lzss_match_opened_by_the_last_byte_is_truncated(head):
    """A stream whose last byte is a match's first raises the oracle's
    TruncatedStreamError at no size and at any size past the bytes before
    it, and returns those bytes at their own size."""
    data = _lzss_stream(head + [(1, 3)])[:-1]
    before = oracles.lzss_decompress(_lzss_stream(head))
    want = (TruncatedStreamError, "truncated stream")
    for size in (None, len(before) + 1, len(before) + 3, len(before) + 100):
        assert _outcome(lambda *a: np.frombuffer(oracles.lzss_decompress(*a), dtype=np.uint8), data, size) == want
        assert _outcome(lambda *a: np.frombuffer(lzss.decompress(*a), dtype=np.uint8), data, size) == want
    assert lzss.decompress(data, len(before)) == oracles.lzss_decompress(data, len(before)) == before


def test_lzss_long_zero_run():
    data = bytes(100_000)
    packed = lzss.compress(data)
    assert lzss.decompress(packed) == oracles.lzss_decompress(packed) == data
    assert lzss.decompress(packed, len(data)) == data


@pytest.mark.parametrize("block_groups", [1, 3])
def test_lzss_blocks_resolve_across_their_edges(monkeypatch, block_groups):
    """Blocks of a few groups: matches copy from earlier blocks, up to a full
    window back, and damaged streams stop or fail where the oracle does."""
    monkeypatch.setattr(lzss, "BLOCK_GROUPS", block_groups)
    rng = np.random.default_rng(block_groups)
    for trial in range(8):
        head = rng.integers(0, 256, lzss.WINDOW - int(rng.integers(0, 40)), dtype=np.uint8).tobytes()
        walk = np.cumsum(rng.integers(-2, 3, int(rng.integers(0, 1000)))).astype(np.int16).tobytes()
        data = head + head + bytes(int(rng.integers(0, 400))) + walk
        n = len(data)
        blob = bytearray(lzss.compress(data))
        kind = trial % 4
        if kind == 1:
            del blob[int(rng.integers(len(blob) // 2, len(blob))) :]
        elif kind == 2:
            bit = int(rng.integers(8 * len(blob) // 2, 8 * len(blob)))
            blob[bit >> 3] ^= 0x80 >> (bit & 7)
        elif kind == 3:
            at = int(rng.integers(len(blob) // 2, len(blob) + 1))
            blob[at:at] = rng.integers(0, 256, int(rng.integers(1, 17)), dtype=np.uint8).tobytes()
        for size in {None, 0, n // 2, n - 1, n, n + 1}:
            args = (bytes(blob), size)
            want = _outcome(lambda *a: np.frombuffer(oracles.lzss_decompress(*a), dtype=np.uint8), *args)
            assert _outcome(lambda *a: np.frombuffer(lzss.decompress(*a), dtype=np.uint8), *args) == want


def test_lzss_decode_memory_is_bounded_by_the_block():
    """A 1 MB output needs the input, the output and one block, not arrays
    of 8-byte indices per output byte (42.6 MB before blocks) or the offset
    of every flag group (5.9 MB)."""
    data = np.cumsum(np.random.default_rng(0).integers(-3, 4, 500_000)).astype(np.int16).tobytes()
    packed = lzss.compress(data)
    tracemalloc.start()
    try:
        out = lzss.decompress(packed, len(data))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == data
    assert peak <= 5_250_000


def test_range_decode_memory_is_bounded_by_the_window():
    """Beside the index of each token, in a list and in an array, and the
    output (24 bytes per token), range decode holds one window of codes, so
    the rest of its peak stays under 2 MB at 2^17 and 2^20 tokens. Codes for
    the whole payload would take about 40 bytes per payload byte (37 MB at
    2^20)."""
    for n in (1 << 17, 1 << 20):
        tokens = np.random.default_rng(n).geometric(0.02, n).astype(np.int64)
        header, payload = rangecoder.encode(tokens)
        tracemalloc.start()
        try:
            out = rangecoder.decode(header, payload, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(out, tokens)
        assert peak - 24 * n < 2_000_000, n


def test_range_outcomes_at_window_edges(monkeypatch):
    """A stream several windows long, cut at or flipped in each byte within
    8 of every window edge and of its end, decodes at counts n - 1, n and
    n + 1 to the oracle's values or fails with the oracle's error. The one
    exception is a count the payload cannot hold, which is refused before
    decoding. Small windows keep the oracle's share of the test short."""
    monkeypatch.setattr(rangecoder, "CODE_CHUNK", 64)
    values = np.random.default_rng(31).geometric(0.01, 400)
    header, payload = rangecoder.encode(values)
    n, size = values.size, len(payload)
    assert size > 5 * rangecoder.CODE_CHUNK
    max_freq = int(rangecoder.parse_header(header)[1].max())
    edges = [*range(rangecoder.CODE_CHUNK, size, rangecoder.CODE_CHUNK), size]
    for at in sorted({p for edge in edges for p in range(edge - 8, edge + 9) if p <= size}):
        blobs = [payload[:at]]
        if at < size:
            blobs.append(payload[:at] + bytes([payload[at] ^ 0xFF]) + payload[at + 1 :])
        for blob in blobs:
            for count in (n - 1, n, n + 1):
                got = _outcome(rangecoder.decode, header, blob, count)
                if got == (FormatError, f"token count {count} exceeds what {len(blob)} payload bytes can hold"):
                    assert count * np.log2(rangecoder.TOTAL / max_freq) > 17 + 8 * (len(blob) - 4)
                else:
                    assert got == _outcome(oracles.range_decode, header, blob, count), (at, len(blob), count)


def test_range_payloads_of_four_to_seven_bytes_equal_the_oracle():
    """Payloads of 4-7 bytes hold 1-4 codes. Whole streams of short inputs,
    the first 4-7 bytes of a longer one, and each with its last byte
    flipped decode at every count up to one past the input's to the
    oracle's values or fail with its error, but for a count the payload
    cannot hold, refused before decoding."""
    rng = np.random.default_rng(4)
    inputs = [[0, 1], [5, -5, 5], [1, 2, 3, 4, 5, 6], [0] * 30 + [1], rng.geometric(0.2, 40).tolist()]
    for values in inputs:
        header, payload = rangecoder.encode(values)
        max_freq = int(rangecoder.parse_header(header)[1].max())
        for size in range(4, min(len(payload), 7) + 1):
            cut = payload[:size]
            for blob in (cut, cut[:-1] + bytes([cut[-1] ^ 0xFF])):
                for count in range(len(values) + 2):
                    got = _outcome(rangecoder.decode, header, blob, count)
                    if got == (FormatError, f"token count {count} exceeds what {size} payload bytes can hold"):
                        assert count * np.log2(rangecoder.TOTAL / max_freq) > 17 + 8 * (size - 4)
                    else:
                        assert got == _outcome(oracles.range_decode, header, blob, count), (values, size, count)


def test_bitpack_width_groups_spanning_many_slabs():
    """Width groups larger than one slab, plus a short last block
    alone in its slab; then inputs ending one value before, at and one value
    after the second slab's end, whose first slab holds only width-0 blocks
    and whose second mixes widths 1 and 32."""
    rng = np.random.default_rng(0)
    slab = bitpack._SLAB_BLOCKS * bitpack.BLOCK_SIZE
    n = 3 * slab + 77
    # Per-block widths of (almost surely) 0, 3 or 17.
    widths = rng.choice([0, 3, 17], n // bitpack.BLOCK_SIZE + 1, p=[0.1, 0.2, 0.7])
    assert (widths == 17).sum() > 2 * bitpack._SLAB_BLOCKS
    shifts = 17 - np.repeat(widths, bitpack.BLOCK_SIZE)[:n]
    inputs = [rng.integers(0, 1 << 17, n) >> shifts]
    mixed = rng.choice([1, 32], bitpack._SLAB_BLOCKS)
    widths = np.concatenate([np.zeros(bitpack._SLAB_BLOCKS, dtype=np.int64), mixed, [32]])
    for n in (2 * slab - 1, 2 * slab, 2 * slab + 1):
        shifts = 32 - np.repeat(widths, bitpack.BLOCK_SIZE)[:n]
        inputs.append(rng.integers(0, 1 << 32, n) >> shifts)
    for values in inputs:
        data = bitpack.encode(values)
        assert data == oracles.bitpack_encode(values)
        got = bitpack.decode(data, values.size)
        assert np.array_equal(got, oracles.bitpack_decode(data, values.size))
        assert np.array_equal(got, values)


def test_bitpack_matches_scalar_oracles_at_every_width():
    """Two blocks of each width 0-32, then a last block of every length 1-16;
    then those blocks repeated to one value before, at and one value after
    the end of one slab.

    The first block of each width holds only 2^w - 1, the second holds it
    once among random values below it.
    """
    rng = np.random.default_rng(128)
    widths = np.tile(np.arange(bitpack.MAX_WIDTH + 1), 2)
    top = (np.int64(1) << widths) - 1
    body = rng.integers(0, top[:, None] + 1, (widths.size, bitpack.BLOCK_SIZE))
    body[: bitpack.MAX_WIDTH + 1] = top[: bitpack.MAX_WIDTH + 1, None]
    body[np.arange(widths.size), rng.integers(0, bitpack.BLOCK_SIZE, widths.size)] = top
    inputs = []
    for last in range(1, 17):
        for w in (0, (3 * last) % (bitpack.MAX_WIDTH + 1), bitpack.MAX_WIDTH):
            tail = rng.integers(0, 1 << w, last)
            tail[-1] = (1 << w) - 1
            inputs.append(np.concatenate([body.ravel(), tail]))
    slab = bitpack._SLAB_BLOCKS * bitpack.BLOCK_SIZE
    repeated = np.resize(body.ravel(), slab + 1)
    inputs += [repeated[: slab - 1], repeated[:slab], repeated]
    for values in inputs:
        data = bitpack.encode(values)
        assert data == oracles.bitpack_encode(values)
        got = bitpack.decode(data, values.size)
        assert np.array_equal(got, oracles.bitpack_decode(data, values.size))
        assert np.array_equal(got, values)


def _outcome(decode, *args):
    """The decoded list, or the type and message of the error raised."""
    try:
        return decode(*args).tolist()
    except FormatError as e:
        return type(e), str(e)


def _bitpack_stream(short_last=True):
    """Full blocks of widths 3, 0 and 17, then a last one of width 3, short
    (three values) or full."""
    full = bitpack.BLOCK_SIZE
    last = [7, 1, 6] if short_last else np.arange(full) % 8
    values = np.concatenate([np.arange(full) % 8, np.zeros(full, dtype=np.int64), np.full(full, 2**16), last])
    return bitpack.encode(values), values.size


@pytest.mark.parametrize("width", [bitpack.MAX_WIDTH + 1, 255])
@pytest.mark.parametrize("block", range(4))
def test_bitpack_bad_width_byte_raises_as_oracle(width, block):
    # Block 3 is the last, short or full. Cut anywhere after the bad width
    # and read with a count around the true one, the stream still raises
    # the bad width first, as the oracle does.
    for short_last in (True, False):
        data, n = _bitpack_stream(short_last)
        header = 0
        for _ in range(block):
            header += 1 + bitpack.BLOCK_SIZE * data[header] // 8
        damaged = data[:header] + bytes([width]) + data[header + 1 :]
        for cut in range(header + 1, len(damaged) + 1):
            for count in (n - 1, n, n + 1):
                got = _outcome(bitpack.decode, damaged[:cut], count)
                assert got == _outcome(oracles.bitpack_decode, damaged[:cut], count)
                assert got == (FormatError, "corrupt block header")


@pytest.mark.parametrize("short_last", [True, False])
def test_bitpack_cut_at_every_byte_raises_as_oracle(short_last):
    data, n = _bitpack_stream(short_last)
    for cut in range(len(data)):
        got = _outcome(bitpack.decode, data[:cut], n)
        assert got == _outcome(oracles.bitpack_decode, data[:cut], n)
        assert got == (TruncatedStreamError, "truncated stream")


@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("width", [0, 1, bitpack.MAX_WIDTH])
def test_bitpack_full_last_block_cut_by_one_byte_raises_as_oracle(blocks, width):
    # A count that is a multiple of the block size: the last block is full.
    n = blocks * bitpack.BLOCK_SIZE
    values = np.zeros(n, dtype=np.int64)
    values[-1] = (1 << width) - 1
    data = bitpack.encode(values)
    assert bitpack.decode(data, n).tolist() == values.tolist()
    got = _outcome(bitpack.decode, data[:-1], n)
    assert got == _outcome(oracles.bitpack_decode, data[:-1], n) == (TruncatedStreamError, "truncated stream")


@pytest.mark.parametrize("payload", [b"", b"\x00", b"\x21", b"\x03\x01"])
@pytest.mark.parametrize("count", [0, 1, 2])
def test_bitpack_tiny_counts_match_oracle(payload, count):
    # count == 0 reads nothing, so any payload, even an empty one, decodes
    # to no values.
    got = _outcome(bitpack.decode, payload, count)
    assert got == _outcome(oracles.bitpack_decode, payload, count)
    if count == 0:
        assert got == []


def _bits(text: str) -> bytes:
    """Bytes holding the bit string ``text``, zero-padded to a byte boundary."""
    text += "0" * (-len(text) % 8)
    return int(text, 2).to_bytes(len(text) // 8, "big")


class TestBoundedDecode:
    @pytest.mark.parametrize(
        "decode",
        [
            expgolomb.decode,
            drh.decode,
            lambda payload, n: huffman.decode(huffman.encode([1, 2])[0], payload, n),
        ],
    )
    def test_count_beyond_payload_bits_raises_before_allocating(self, decode):
        with pytest.raises(TruncatedStreamError):
            decode(b"\x80", 10**12)

    def test_bitpack_scan_ends_before_allocating(self):
        # One width-0 block header, then the data ends.
        with pytest.raises(TruncatedStreamError):
            bitpack.decode(b"\x00", 10**12)

    def test_expgolomb_prefix_limit(self):
        longest = _bits("0" * 31 + "1" * 32)  # 31 zeros, then a 1 and 31 suffix bits
        assert expgolomb.decode(longest, 1).tolist() == [2**32 - 2]
        for zeros in (32, 33, 47, 79):
            with pytest.raises(FormatError, match="prefix longer than 31"):
                expgolomb.decode(_bits("0" * zeros + "1" * (zeros + 1)), 1)
        # 47 zeros used to decode silently to 2**48 - 2.
        with pytest.raises(FormatError, match="prefix longer than 31"):
            expgolomb.decode(b"\x00" * 5 + b"\x01" + b"\xff" * 12, 1)

    def test_encoders_share_the_64_bit_codeword_limit(self):
        # 2^32 - 1 needs a 32-zero prefix, -2^31 a category of 32: each
        # codeword would be 65 bits.
        with pytest.raises(ValueError) as eg:
            expgolomb.encode([2**32 - 1])
        with pytest.raises(ValueError) as dr:
            drh.encode([-(2**31)])
        assert str(eg.value) == str(dr.value) == "codeword lengths must be in [1, 64]"
        assert drh.encode([]) == bitio.BitStream(b"", 0)

    def test_drh_category_limit(self):
        longest = b"\xff" * 3 + b"\xfe" + b"\xff" * 4  # category 31, then 31 ones
        assert drh.decode(longest, 1).tolist() == [2**31 - 1]
        with pytest.raises(FormatError, match="prefix longer than 31"):
            drh.decode(b"\xff" * 9 + b"\x00" + b"\xff" * 12, 1)

    def test_huffman_invalid_codeword(self):
        header, _ = huffman.encode([7, 7, 7])  # one symbol, code "0"
        assert huffman.decode(header, b"\x00", 8).tolist() == [7] * 8
        with pytest.raises(FormatError, match="invalid codeword"):
            huffman.decode(header, b"\xff" * 8, 1)
        with pytest.raises(TruncatedStreamError):
            huffman.decode(header, b"\xff", 1)
