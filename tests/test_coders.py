"""Coder tests.

Expected values come from independent oracles computed in this file:
empirical entropy via a plain Counter/log2 loop, Exp-Golomb lengths via
the closed-form floor(log2) law, LZSS sizes via token-format arithmetic.
Differential tests compare against the scalar coders in ``oracles``.
"""

import itertools
import math
import struct
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tscodec import symtable
from tscodec.coders import bitpack, drh, expgolomb, huffman, lzss, rangecoder
from tscodec.coders.bitio import PACK_TOKENS, BitStream, bit_length_u64, pack_codes
from tscodec.errors import FormatError, TruncatedStreamError

import oracles
from oracles import BitReader, BitWriter


def entropy_oracle(values) -> float:
    """Empirical entropy in bits/sample, independent of any numpy paths."""
    counts = Counter(values)
    n = len(values)
    return -sum(c / n * math.log2(c / n) for c in counts.values())


def bits_of(stream: BitStream) -> str:
    return "".join(format(b, "08b") for b in stream.data)[: stream.bit_length]


def packed(codes, lengths) -> BitStream:
    """``pack_codes`` over tokens 0..n-1, token i having codeword (codes[i], lengths[i])."""
    codes, lengths = np.asarray(codes, dtype=np.uint64), np.asarray(lengths, dtype=np.int64)
    return pack_codes(np.arange(codes.size), lambda idx: (codes[idx], lengths[idx]))


class TestBitIO:
    @given(st.lists(st.tuples(st.integers(0, 2**20), st.integers(1, 24)), max_size=100))
    def test_writer_reader_roundtrip(self, items):
        w = BitWriter()
        for value, width in items:
            w.write(value & ((1 << width) - 1), width)
        stream = w.getvalue()
        r = BitReader(stream.data, stream.bit_length)
        for value, width in items:
            assert r.read(width) == value & ((1 << width) - 1)

    @staticmethod
    def written(codes, lengths) -> BitStream:
        w = BitWriter()
        for c, l in zip(codes, lengths):
            w.write(c, l)
        return w.getvalue()

    def test_pack_codes_matches_writer(self):
        rng = np.random.default_rng(0)
        lengths = rng.integers(1, 33, 500)
        codes = np.array([int(rng.integers(0, 1 << int(l))) for l in lengths], dtype=np.uint64)
        assert self.written(codes.tolist(), lengths.tolist()) == packed(codes, lengths)

    @given(st.lists(st.integers(1, 64).flatmap(
        lambda n: st.tuples(st.integers(0, (1 << n) - 1), st.just(n))), max_size=200))
    def test_pack_codes_matches_writer_all_lengths(self, items):
        codes = [c for c, _ in items]
        lengths = [n for _, n in items]
        assert packed(codes, lengths) == self.written(codes, lengths)

    @pytest.mark.parametrize("offset", range(64))
    def test_pack_codes_64_bit_code_at_every_offset(self, offset):
        # A lead code puts the full-width codes at bit ``offset`` of a word;
        # every one of them then crosses a 64-bit word boundary unless the
        # offset is 0.
        codes = [(1 << offset) - 1 if offset else 0, 2**64 - 1, 0x8000_0000_0000_0001, 0x0123_4567_89AB_CDEF]
        lengths = [max(offset, 1), 64, 64, 64]
        if not offset:
            codes, lengths = codes[1:], lengths[1:]
        assert packed(codes, lengths) == self.written(codes, lengths)

    def test_pack_codes_crossing_word_boundaries(self):
        # Odd lengths walk the codes across every bit offset of the words.
        lengths = [63, 5, 61, 7, 64, 1, 33, 31, 62, 3] * 7
        codes = [((1 << n) - 1) >> (i % 3) for i, n in enumerate(lengths)]
        assert packed(codes, lengths) == self.written(codes, lengths)

    def test_pack_codes_single_and_empty(self):
        assert packed([5], [3]) == BitStream(b"\xa0", 3)
        assert packed([1], [64]) == BitStream(bytes(7) + b"\x01", 64)
        assert packed([], []) == BitStream(b"", 0)

    @staticmethod
    def random_codewords(rng, count: int) -> tuple[list[int], list[int]]:
        lengths = rng.integers(1, 65, count)
        codes = rng.integers(0, 2**64, count, dtype=np.uint64) >> (64 - lengths).astype(np.uint64)
        return codes.tolist(), lengths.tolist()

    @pytest.mark.parametrize("count", [PACK_TOKENS - 1, PACK_TOKENS, PACK_TOKENS + 1, 2 * PACK_TOKENS + 1])
    def test_pack_codes_at_block_boundaries(self, count):
        codes, lengths = self.random_codewords(np.random.default_rng(count), count)
        assert packed(codes, lengths) == self.written(codes, lengths)

    @pytest.mark.parametrize("offset", range(64))
    def test_pack_codes_64_bit_codes_across_the_block_boundary_at_every_offset(self, offset):
        # One-bit codes and one filler put the last code of the first block
        # and the first codes of the second at bit ``offset`` of a word.
        lead = PACK_TOKENS - 2
        filler = (offset - lead) % 64 or 64
        codes = [i & 1 for i in range(lead)] + [(1 << filler) - 1]
        codes += [2**64 - 1, 0x8000_0000_0000_0001, 0x0123_4567_89AB_CDEF]
        lengths = [1] * lead + [filler, 64, 64, 64]
        assert (sum(lengths[: PACK_TOKENS - 1]) % 64, len(codes)) == (offset, PACK_TOKENS + 2)
        assert packed(codes, lengths) == self.written(codes, lengths)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(PACK_TOKENS + 1, 3 * PACK_TOKENS), st.integers(0, 2**32 - 1))
    def test_pack_codes_matches_writer_across_blocks(self, count, seed):
        codes, lengths = self.random_codewords(np.random.default_rng(seed), count)
        assert packed(codes, lengths) == self.written(codes, lengths)

    @pytest.mark.parametrize("bad", [0, 65])
    def test_pack_codes_rejects_lengths_outside_1_64(self, bad):
        with pytest.raises(ValueError, match=r"\[1, 64\]"):
            packed([1, 1], [3, bad])

    def test_bit_length_matches_python(self):
        v = [0, 1, 2, 3, 255, 256, 65535, 2**31, 2**40 - 1, 2**64 - 1]
        v += [2**k + d for k in range(1, 64) for d in (-1, 0, 1)]
        assert bit_length_u64(np.array(v, dtype=np.uint64)).tolist() == [x.bit_length() for x in v]

    def test_read_past_end_raises(self):
        r = BitReader(b"\xff", 3)
        r.read(3)
        with pytest.raises(TruncatedStreamError):
            r.read(1)

    def test_unused_trailing_bits_are_zero(self):
        w = BitWriter()
        w.write(0b101, 3)
        stream = w.getvalue()
        assert stream.data == b"\xa0"

    @pytest.mark.parametrize("bit_length", [-1, 17])
    def test_bit_length_must_fit_the_bytes(self, bit_length):
        with pytest.raises(ValueError, match="^bit_length inconsistent with byte count$"):
            BitStream(b"\x00\x00", bit_length)


class TestExpGolomb:
    @pytest.mark.parametrize("value,bits", [(0, "1"), (4, "00101"), (7, "0001000")])
    def test_codewords(self, value, bits):
        assert bits_of(expgolomb.encode([value])) == bits

    def test_length_law_matches_float_oracle(self):
        values = np.arange(0, 20000)
        got = expgolomb.code_lengths(values)
        want = [2 * int(math.floor(math.log2(v + 1))) + 1 for v in values.tolist()]
        assert got.tolist() == want

    def test_stream_length_is_sum_of_code_lengths(self):
        rng = np.random.default_rng(1)
        v = rng.integers(0, 10**6, 5000)
        stream = expgolomb.encode(v)
        assert stream.bit_length == int(expgolomb.code_lengths(v).sum())

    @given(st.lists(st.integers(0, 2**30), min_size=1, max_size=300))
    def test_roundtrip(self, values):
        stream = expgolomb.encode(values)
        assert expgolomb.decode(stream, len(values)).tolist() == values

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            expgolomb.encode([-1])

    def test_truncated_stream_errors(self):
        stream = expgolomb.encode([1000])
        clipped = BitStream(stream.data[:1], 8)
        with pytest.raises(TruncatedStreamError, match="truncated"):
            expgolomb.decode(clipped, 1)


class TestBitpack:
    def test_block_format_example(self):
        # width byte 2, then bits 11 01 10 packed MSB-first: 0b11011000
        assert bitpack.encode([3, 1, 2]) == bytes([2, 0b11011000])

    def test_all_zero_block(self):
        assert bitpack.encode([0] * 128) == bytes([0])

    def test_width_16_block(self):
        data = bitpack.encode([65535])
        assert data[0] == 16

    def test_corrupt_width_errors(self):
        with pytest.raises(FormatError, match="corrupt block header"):
            bitpack.decode(bytes([33, 0, 0, 0, 0]), 1)

    def test_truncated_errors(self):
        with pytest.raises(TruncatedStreamError):
            bitpack.decode(bytes([16, 0]), 1)

    @settings(max_examples=60)
    @given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=400))
    def test_roundtrip(self, values):
        data = bitpack.encode(values)
        assert bitpack.decode(data, len(values)).tolist() == values

    def test_short_final_block(self):
        v = list(range(130))
        assert bitpack.decode(bitpack.encode(v), 130).tolist() == v

    def test_empty_input_packs_to_nothing(self):
        assert bitpack.encode([]) == b""
        assert bitpack.decode(b"", 0).tolist() == []

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError, match="^bit packing requires non-negative values$"):
            bitpack.encode([3, -1])

    # A value in the second of three full blocks, and in a short last block.
    @pytest.mark.parametrize("at, n", [(bitpack.BLOCK_SIZE + 5, 3 * bitpack.BLOCK_SIZE), (2 * bitpack.BLOCK_SIZE + 2, 2 * bitpack.BLOCK_SIZE + 7)])
    def test_width_rule_past_the_first_block(self, at, n):
        values = np.arange(n) % 100
        values[at] = 2**32 - 1
        assert bitpack.decode(bitpack.encode(values), n).tolist() == values.tolist()
        values[at] = 2**32
        with pytest.raises(ValueError, match="^value wider than 32 bits$"):
            bitpack.encode(values)
        # Behind a larger positive value, -1 leaves its block's width at 21 bits.
        values[at - 1], values[at] = 2**20, -1
        with pytest.raises(ValueError, match="^bit packing requires non-negative values$"):
            bitpack.encode(values)
        # A too-wide value in an earlier block does not hide the -1.
        values[at - bitpack.BLOCK_SIZE] = 2**32
        with pytest.raises(ValueError, match="^bit packing requires non-negative values$"):
            bitpack.encode(values)


# Alphabets for the symbol-table header checks: one symbol, two, a wide
# one, and the int32 extremes.
HEADER_ALPHABETS = [
    [7] * 9,
    [5, -5] * 40,
    list(range(-300, 300)) * 2 + [0] * 500,
    [-(2**31), 2**31 - 1, 0, 0, 1],
]


def struct_table(entry: str, symbols, fields) -> bytes:
    """The symbol-table header as a per-symbol ``struct`` loop writes it."""
    header = struct.pack("<H", len(symbols))
    for s, f in zip(symbols, fields):
        header += struct.pack(entry, s, f)
    return header


class TestSymbolTableHeaders:
    @pytest.mark.parametrize("x", HEADER_ALPHABETS)
    def test_huffman_header_matches_struct_layout(self, x):
        symbols, counts = np.unique(x, return_counts=True)
        lengths = huffman.code_lengths_from_counts(counts)
        header, _ = huffman.encode(x)
        assert header == struct_table("<iB", symbols.tolist(), lengths.tolist())
        parsed = huffman.parse_header(header)
        assert parsed[0].tolist() == symbols.tolist() and parsed[1].tolist() == lengths.tolist()

    @pytest.mark.parametrize("x", HEADER_ALPHABETS)
    def test_range_header_matches_struct_layout(self, x):
        symbols, counts = np.unique(x, return_counts=True)
        freqs = rangecoder.quantize_counts(counts, len(x))
        header, _ = rangecoder.encode(x)
        assert header == struct_table("<iH", symbols.tolist(), freqs.tolist())
        parsed = rangecoder.parse_header(header)
        assert parsed[0].tolist() == symbols.tolist() and parsed[1].tolist() == freqs.tolist()

    @pytest.mark.parametrize("encode", [huffman.encode, rangecoder.encode])
    def test_symbol_outside_int32_rejected(self, encode):
        with pytest.raises(ValueError, match="int32"):
            encode([0, 2**31])

    def test_more_than_65535_symbols_rejected(self):
        symbols = np.arange(0x10000)
        with pytest.raises(ValueError, match="alphabet too large for the symbol table"):
            symtable.write(huffman.ENTRY, symbols, np.ones_like(symbols))

    def test_canonical_codes_match_counting_loop(self):
        rng = np.random.default_rng(4)
        symbols = np.sort(rng.choice(np.arange(-5000, 5000), 300, replace=False))
        lengths = huffman.code_lengths_from_counts(rng.integers(1, 10_000, 300))
        expected = {}
        code = 0
        prev = None
        for ln, sym in sorted(zip(lengths.tolist(), symbols.tolist())):
            if prev is not None:
                code = (code + 1) << (ln - prev)
            expected[sym] = code
            prev = ln
        codes = huffman.canonical_codes(symbols, lengths)
        assert codes.tolist() == [expected[s] for s in symbols.tolist()]


# Counts that grow like Fibonacci numbers give one leaf per tree level:
# ascending, shuffled, scaled, and 1, 1, 2, 4, ... where every merged node
# ties with the next leaf.
_FIB = [1, 1]
while len(_FIB) < 24:
    _FIB.append(_FIB[-1] + _FIB[-2])
FIBONACCI_LIKE = [
    _FIB,
    np.random.default_rng(8).permutation(_FIB).tolist(),
    [1] + [2**k for k in range(21)],
    [c + c // 3 for c in _FIB],
]


class TestHuffman:
    def test_two_equiprobable_symbols_cost_one_bit(self):
        x = [5, -5] * 400
        header, payload = huffman.encode(x)
        assert payload.bit_length == len(x)
        assert huffman.decode(header, payload, len(x)).tolist() == x

    def test_constant_series_costs_one_bit_per_sample(self):
        x = [7] * 999
        header, payload = huffman.encode(x)
        assert payload.bit_length == 999
        assert len(header) == 7  # u16 count, then one (i32, u8) entry
        assert huffman.decode(header, payload, 999).tolist() == x

    def test_payload_within_entropy_plus_one(self):
        rng = np.random.default_rng(42)
        x = rng.integers(0, 256, 100000)
        header, payload = huffman.encode(x)
        h = entropy_oracle(x.tolist())
        per_symbol = payload.bit_length / x.size
        assert h <= per_symbol < h + 1

    def test_header_grows_linearly_with_cardinality(self):
        sizes = {}
        for card in (16, 256, 4096):
            x = np.tile(np.arange(card), 4)
            header, _ = huffman.encode(x)
            sizes[card] = len(header)
            assert len(header) >= 5 * card
        assert sizes[256] - sizes[16] >= 5 * (256 - 16)
        assert sizes[4096] - sizes[256] >= 5 * (4096 - 256)

    @pytest.mark.parametrize(
        "counts",
        [
            [5],
            [1, 1],
            [1] * 3,
            [1] * 64,
            [7] * 1000,
            [1, 1, 2, 2, 4, 4, 8, 8, 16, 16],
            [3, 3, 3, 6, 6, 12, 12, 12, 24],
            # Fibonacci counts build the deepest tree, 29 levels.
            [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597, 2584,
             4181, 6765, 10946, 17711, 28657, 46368, 75025, 121393, 196418, 317811,
             514229, 832040][::-1],
            [2**k for k in range(25)],
            [10**6] + [1] * 500,
            [9, 3],
            [4] * 100,
            # A leaf and a merged node tie at count 2; the leaf goes first.
            [1, 1, 2, 2],
            *FIBONACCI_LIKE,
        ],
    )
    def test_code_lengths_match_leaf_walk(self, counts):
        c = np.array(counts, dtype=np.int64)
        assert huffman.code_lengths_from_counts(c).tolist() == oracles.code_lengths_from_counts(c).tolist()

    @pytest.mark.parametrize("counts", FIBONACCI_LIKE)
    def test_fibonacci_like_counts_build_deep_trees(self, counts):
        assert int(huffman.code_lengths_from_counts(np.array(counts)).max()) >= 20

    # Tie-heavy or spread counts; a total below Fibonacci(34) keeps every
    # tree within MAX_CODE_LENGTH.
    @settings(max_examples=60)
    @given(
        st.lists(st.integers(1, 6), min_size=1, max_size=300)
        | st.lists(st.integers(1, 2**16), min_size=1, max_size=60)
    )
    def test_code_lengths_match_leaf_walk_on_drawn_counts(self, counts):
        c = np.array(counts, dtype=np.int64)
        assert huffman.code_lengths_from_counts(c).tolist() == oracles.code_lengths_from_counts(c).tolist()

    def test_kraft_violation_rejected(self):
        # Two symbols both claiming 1-bit codes plus a third is fine, but
        # three 1-bit codes violate Kraft.
        import struct

        header = struct.pack("<H", 3)
        for s in (1, 2, 3):
            header += struct.pack("<iB", s, 1)
        with pytest.raises(FormatError, match="invalid code table"):
            huffman.decode(header, b"\x00", 1)

    @pytest.mark.parametrize(
        ("lengths", "valid"),
        [
            ([1, 1], True),
            ([1, 1, 32], False),
            # One code of each length 1..31 and two of 32 fill 2^32 exactly.
            ([*range(1, 32), 32, 32], True),
            ([*range(1, 32), 32, 32, 32], False),
        ],
    )
    def test_kraft_boundary(self, lengths, valid):
        symbols, lens = np.arange(len(lengths)), np.array(lengths)
        header = symtable.write(huffman.ENTRY, symbols, lens)
        if not valid:
            with pytest.raises(FormatError, match="^invalid code table$"):
                huffman.parse_header(header)
            return
        assert huffman.parse_header(header)[1].tolist() == lengths
        payload = packed(huffman.canonical_codes(symbols, lens), lens)
        assert huffman.decode(header, payload, symbols.size).tolist() == symbols.tolist()

    def test_code_length_limit(self):
        # 34 Fibonacci counts build a 33-level tree, one past MAX_CODE_LENGTH.
        fib = [1, 1]
        while len(fib) < 34:
            fib.append(fib[-1] + fib[-2])
        with pytest.raises(ValueError, match="^code length limit exceeded$"):
            huffman.code_lengths_from_counts(np.array(fib))

    def test_empty_symbol_table_rejected(self):
        import struct

        with pytest.raises(FormatError, match="invalid code table"):
            huffman.decode(struct.pack("<H", 0), b"", 0)

    def test_empty_input_errors(self):
        with pytest.raises(ValueError, match="^undefined on empty input$"):
            huffman.encode([])

    @settings(max_examples=60)
    @given(st.lists(st.integers(-(2**31), 2**31 - 1), min_size=1, max_size=400))
    def test_roundtrip(self, values):
        header, payload = huffman.encode(values)
        assert huffman.decode(header, payload, len(values)).tolist() == values

    def test_truncated_payload_errors(self):
        header, payload = huffman.encode(list(range(100)))
        with pytest.raises(TruncatedStreamError):
            huffman.decode(header, BitStream(payload.data[:2], 16), 100)


class TestDrh:
    @pytest.mark.parametrize("value,bits", [(0, "0"), (1, "101"), (-1, "100")])
    def test_codewords(self, value, bits):
        assert bits_of(drh.encode([value])) == bits

    def test_code_is_static_and_monotone_in_magnitude(self):
        lengths = [drh.encode([v]).bit_length for v in (0, 1, -2, 5, 100, -30000)]
        assert lengths == sorted(lengths)

    @given(st.lists(st.integers(-(2**31) + 1, 2**31 - 1), min_size=1, max_size=400))
    def test_roundtrip(self, values):
        stream = drh.encode(values)
        assert drh.decode(stream, len(values)).tolist() == values

    def test_truncated_errors(self):
        stream = drh.encode([100000])
        with pytest.raises(TruncatedStreamError):
            drh.decode(BitStream(stream.data[:1], 8), 1)


class TestRangeCoder:
    def test_empty_input_errors(self):
        with pytest.raises(ValueError, match="^undefined on empty input$"):
            rangecoder.encode([])

    def test_constant_series_collapses(self):
        x = [3] * 10000
        header, payload = rangecoder.encode(x)
        assert len(payload) <= 8
        assert rangecoder.decode(header, payload, len(x)).tolist() == x

    def test_two_equiprobable_symbols_near_entropy(self):
        rng = np.random.default_rng(9)
        x = rng.permutation(np.array([0] * 4000 + [1] * 4000))
        header, payload = rangecoder.encode(x)
        # H = 1 bit exactly, so the ideal payload is n/8 bytes.
        assert abs(len(payload) - 1000) <= 10
        assert np.array_equal(rangecoder.decode(header, payload, x.size), x)

    def test_skewed_distribution_within_one_percent(self):
        rng = np.random.default_rng(10)
        x = rng.permutation(np.array([0] * 99000 + [1] * 1000))
        header, payload = rangecoder.encode(x)
        h = entropy_oracle(x.tolist())
        ideal = x.size * h / 8
        assert len(payload) <= ideal * 1.01 + 8
        assert np.array_equal(rangecoder.decode(header, payload, x.size), x)

    def test_corrupt_model_rejected(self):
        import struct

        header = struct.pack("<H", 2) + struct.pack("<iH", 0, 100) + struct.pack("<iH", 1, 100)
        with pytest.raises(FormatError, match="corrupt model"):
            rangecoder.decode(header, b"\x00" * 8, 4)

    def test_truncated_payload_errors(self):
        header, payload = rangecoder.encode(list(range(200)) * 5)
        with pytest.raises(TruncatedStreamError):
            rangecoder.decode(header, payload[:3], 1000)

    def test_alphabet_cap(self):
        with pytest.raises(ValueError, match="alphabet too large"):
            rangecoder.encode(np.arange(rangecoder.TOTAL + 1))

    @settings(max_examples=50)
    @given(st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=400))
    def test_roundtrip(self, values):
        header, payload = rangecoder.encode(values)
        assert rangecoder.decode(header, payload, len(values)).tolist() == values

    def test_quantized_counts_sum_exactly(self):
        rng = np.random.default_rng(2)
        for m in (1, 2, 7, 100, 5000):
            counts = rng.integers(1, 1000, m)
            q = rangecoder.quantize_counts(counts, int(counts.sum()))
            assert int(q.sum()) == rangecoder.TOTAL
            assert int(q.min()) >= 1

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(rangecoder.TOTAL, 10**7), min_size=1, max_size=12),
        st.integers(0, 600),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    @example([rangecoder.TOTAL] * 4, 0, 1, 0)  # floors to exactly TOTAL
    @example([rangecoder.TOTAL, rangecoder.TOTAL + 1, 3 * rangecoder.TOTAL], 0, 1, 0)  # 2 short
    @example([rangecoder.TOTAL] * 3, 600, 3, 0)  # over
    def test_scaling_down_matches_the_one_unit_loop(self, large, small, small_max, seed):
        # Small counts floored up to 1 push the sum past TOTAL, so the
        # model has to give the excess back from the larger counts. Without
        # them the floored sum is short of TOTAL or meets it, and the
        # remainders hand out the units that are missing.
        rng = np.random.default_rng(seed)
        counts = rng.permutation(np.concatenate([large, rng.integers(1, small_max + 1, small)]))
        n = int(counts.sum())
        q = rangecoder.quantize_counts(counts, n)
        assert q.tolist() == oracles.quantize_counts(counts, n).tolist()

    def test_one_dominant_symbol_among_many_singletons(self):
        # The 9,999 singletons keep 1 each and the excess comes out of the
        # one large count; the one-unit loop needs 8,360 passes for this.
        x = np.concatenate([np.zeros(90_001, dtype=np.int64), np.arange(1, 10_000)])
        start = time.perf_counter()
        header, payload = rangecoder.encode(x)
        assert time.perf_counter() - start < 1.0
        _, freqs = rangecoder.parse_header(header)
        assert freqs.tolist() == [rangecoder.TOTAL - 9_999] + [1] * 9_999
        assert np.array_equal(rangecoder.decode(header, payload, x.size), x)

    def test_code_value_past_the_model_is_corrupt(self):
        # The first 4 bytes put the code at 2^32 - 1, whose scaled target
        # is TOTAL, one past the last slot of any model.
        header, _ = rangecoder.encode([0, 1, 1, 2])
        for decode in (rangecoder.decode, oracles.range_decode):
            with pytest.raises(FormatError, match="corrupt stream"):
                decode(header, b"\xff" * 8, 4)

    def test_empty_frequency_table_rejected(self):
        with pytest.raises(FormatError, match="invalid frequency table"):
            rangecoder.decode(struct.pack("<H", 0), b"\x00" * 4, 0)

    def test_most_skewed_model_decodes_at_its_exact_count(self):
        x = np.zeros(200_000, dtype=np.int64)
        x[-1] = 1
        header, payload = rangecoder.encode(x)
        assert rangecoder.parse_header(header)[1].tolist() == [rangecoder.TOTAL - 1, 1]
        assert np.array_equal(rangecoder.decode(header, payload, x.size), x)

    def test_forged_count_is_refused_before_decoding(self):
        header, payload = rangecoder.encode(np.random.default_rng(0).integers(-98, 99, 2000))
        start = time.perf_counter()
        with pytest.raises(FormatError, match="exceeds what"):
            rangecoder.decode(header, payload, 2**40)
        assert time.perf_counter() - start < 0.05

    def test_count_bound_is_payload_bits_over_the_cheapest_token(self):
        # A 16,000/384 model: each token costs at least log2(TOTAL / 16,000)
        # bits, and 5 payload bytes give 16 + 8 bits plus one bit of slack.
        header = symtable.write(rangecoder.ENTRY, np.array([0, 1]), np.array([16_000, 384]))
        limit = math.floor(25 / math.log2(rangecoder.TOTAL / 16_000))
        with pytest.raises(TruncatedStreamError):
            rangecoder.decode(header, bytes(5), limit)
        with pytest.raises(FormatError, match="exceeds what 5 payload bytes"):
            rangecoder.decode(header, bytes(5), limit + 1)

    def test_single_symbol_model_costs_no_payload_bits(self):
        header, payload = rangecoder.encode([7] * 100_000)
        assert len(payload) == 4
        assert rangecoder.decode(header, payload, 100_000).tolist() == [7] * 100_000

    # The last code whose target code // (MASK >> 14) is below TOTAL, the
    # first one past it, and the two ends.
    @pytest.mark.parametrize("count", [0, 1, 5000])
    @pytest.mark.parametrize("code", [0, 0xFFFFBFFF, 0xFFFFC000, 0xFFFFFFFF])
    def test_single_symbol_model_matches_the_oracle(self, code, count):
        header, _ = rangecoder.encode([7, 7, 7])
        payload = code.to_bytes(4, "big")
        outcomes = []
        for decode in (rangecoder.decode, oracles.range_decode):
            try:
                got = decode(header, payload, count)
                outcomes.append((got.dtype, got.tolist()))
            except FormatError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    def test_single_symbol_count_decodes_in_constant_steps(self):
        header, payload = rangecoder.encode([7, 7, 7])
        start = time.perf_counter()
        got = rangecoder.decode(header, payload, 1_000_000)
        assert time.perf_counter() - start < 0.05
        assert got.size == 1_000_000 and np.all(got == 7)


class TestLzss:
    def test_zero_run_size_from_token_arithmetic(self):
        # One literal, then self-overlapping matches of the maximal 18
        # bytes: 1 + ceil(999/18) = 57 tokens, ceil(57/8) = 8 flag bytes,
        # 1 literal byte, 56 two-byte matches: 121 bytes total.
        out = lzss.compress(bytes(1000))
        assert len(out) == 8 + 1 + 2 * 56 == 121
        assert lzss.decompress(out) == bytes(1000)

    def test_incompressible_worst_case_bound(self):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 256, 16384).astype(np.uint8).tobytes()
        out = lzss.compress(data)
        assert len(out) <= len(data) * 9 / 8 + 2
        assert lzss.decompress(out) == data

    def test_empty_input(self):
        assert lzss.compress(b"") == b""
        assert lzss.decompress(b"") == b""

    @settings(max_examples=60)
    @given(st.binary(max_size=2000))
    def test_roundtrip(self, data):
        assert lzss.decompress(lzss.compress(data)) == data

    def test_roundtrip_on_serialized_synthetic_suite(self):
        from tscodec.backends import serialize_series
        from tscodec.synth import suite

        for name, series in suite(n=4000, seed=1).items():
            data, _ = serialize_series(series)
            out = lzss.compress(data)
            assert lzss.decompress(out) == data, name

    def test_invalid_back_reference_errors(self):
        # Flag byte declares a match as the first token; nothing has been
        # produced yet, so any distance is invalid.
        bad = bytes([0x00, 0x00, 0x00])
        with pytest.raises(FormatError, match="invalid back-reference"):
            lzss.decompress(bad)

    def test_truncated_match_errors(self):
        bad = bytes([0x00, 0x01])
        with pytest.raises(TruncatedStreamError):
            lzss.decompress(bad)

    def test_expected_size_mismatch_errors(self):
        out = lzss.compress(b"abcdef")
        with pytest.raises(TruncatedStreamError):
            lzss.decompress(out, expected_size=10)

    # Differential checks: the same bytes as the position-at-a-time encoder.

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_matches_oracle_on_low_alphabet_inputs(self, n, alphabet, seed):
        data = np.random.default_rng(seed).integers(0, alphabet, n).astype(np.uint8).tobytes()
        assert lzss.compress(data) == oracles.lzss_compress(data)

    @pytest.mark.parametrize("distance", [lzss.WINDOW, lzss.WINDOW + 1])
    def test_matches_oracle_at_the_window_edge(self, distance):
        block = np.random.default_rng(distance).integers(0, 256, distance).astype(np.uint8).tobytes()
        data = block + block[:40]
        out = lzss.compress(data)
        assert out == oracles.lzss_compress(data)
        # The repeat is reachable at distance WINDOW only; one step further
        # every byte is a literal.
        literals_only = len(data) + -(-len(data) // 8)
        assert (len(out) < literals_only) == (distance == lzss.WINDOW)

    @pytest.mark.parametrize("decoys", [lzss.MAX_CHAIN - 1, lzss.MAX_CHAIN, 2 * lzss.MAX_CHAIN])
    def test_matches_oracle_at_the_chain_limit(self, decoys):
        # Nearer candidates with the same first 3 bytes stand between the
        # last copy and the long match: it is the last candidate searched
        # with MAX_CHAIN - 1 of them, and out of reach with more. The zero
        # bytes occur nowhere else, so no match runs into the last copy.
        rng = np.random.default_rng(decoys)
        between = b"".join(b"abc" + bytes([int(b)]) for b in rng.integers(100, 256, decoys))
        data = b"abcdefghijklmnop" + between + bytes(3) + b"abcdefghijklmnop"
        out = lzss.compress(data)
        assert out == oracles.lzss_compress(data)
        assert lzss.decompress(out) == data

    def test_matches_oracle_on_short_and_tail_inputs(self):
        tiny = [bytes(t) for k in range(5) for t in itertools.product(range(3), repeat=k)]
        tails = [b"abcdeabcde", b"abcdabc", b"abcdab", b"abcab", b"aaaaa", b"xyzxyzxy"]
        for data in tiny + tails:
            assert lzss.compress(data) == oracles.lzss_compress(data), data

    def test_matches_oracle_on_100k_zeros(self):
        data = bytes(100_000)
        assert lzss.compress(data) == oracles.lzss_compress(data)


class TestOrderZeroFloor:
    """No coder beats the Shannon floor on i.i.d. data."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_payload_at_least_entropy(self, seed):
        rng = np.random.default_rng(seed)
        weights = rng.dirichlet(np.ones(16))
        symbols = rng.choice(np.arange(-8, 8), size=4000, p=weights)
        n = symbols.size
        floor_bits = math.floor(n * entropy_oracle(symbols.tolist())) - 64

        from tscodec.backends import serialize_series
        from tscodec.transforms import zigzag

        payload_bits = {
            "expgolomb": expgolomb.encode(zigzag(symbols)).bit_length,
            "bitpack": 8 * len(bitpack.encode(zigzag(symbols))),
            "huffman": huffman.encode(symbols)[1].bit_length,
            "drh": drh.encode(symbols).bit_length,
            "range": 8 * len(rangecoder.encode(symbols)[1]),
            "lzss": 8 * len(lzss.compress(serialize_series(symbols)[0])),
        }
        for name, bits in payload_bits.items():
            assert bits >= floor_bits, (name, bits, floor_bits)


@pytest.mark.parametrize(
    ("encode", "index_bytes"),
    [(expgolomb.encode, 0), (drh.encode, 0), (lambda v: huffman.encode(v)[1], 8)],
    ids=["expgolomb", "drh", "huffman"],
)
def test_encode_memory_is_bounded_by_one_block(encode, index_bytes):
    """Beside its input, its payload and Huffman's index of each token's
    symbol (``index_bytes`` per token), a prefix encoder holds one block of
    codewords at a time, so the rest of its peak does not grow from 2^17 to
    2^20 tokens. Packing whole arrays held 10-13 and 78-103 MB there."""
    for n in (1 << 17, 1 << 20):
        tokens = np.random.default_rng(n).geometric(0.02, n).astype(np.int64)
        tracemalloc.start()
        try:
            payload = encode(tokens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - len(payload.data) - index_bytes * n < 2_000_000, n


def test_range_encode_memory_is_bounded_by_one_block():
    """Beside its input, each token's symbol index (8 bytes) and the payload,
    held twice as it is built and returned, range encode boxes one index at
    a time, through a memoryview, so the rest of its peak does not grow from
    2^17 to 2^20 tokens. Boxing every index at once left 7.7 MB beyond that
    at 2^20."""
    for n in (1 << 17, 1 << 20):
        tokens = np.random.default_rng(n).geometric(0.02, n).astype(np.int64)
        tracemalloc.start()
        try:
            header, payload = rangecoder.encode(tokens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 2 * len(payload) - 8 * n < 2_000_000, n


def test_bitpack_encode_memory_is_bounded_by_one_slab():
    """Beside its input and its payload, bitpack encode holds one slab of
    blocks at a time, writing their words straight into the payload, so the
    rest of its peak stays under 2 MB at 2^17 and 2^20 tokens. Packing every
    block at once held 13 MB beyond the payload at 2^20."""
    for n in (1 << 17, 1 << 20):
        tokens = np.random.default_rng(n).geometric(0.02, n).astype(np.int64)
        tracemalloc.start()
        try:
            payload = bitpack.encode(tokens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - len(payload) < 2_000_000, n
