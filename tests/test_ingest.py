import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from tscodec.core import TimeSeries
from oracles import dequantize_column
from tscodec.ingest import WRITE_ROWS, ChannelQuantization, ingest_column, load_csv, quantize_column, write_csv

finite_floats = st.floats(allow_nan=False, allow_infinity=False)


class TestQuantizeColumn:
    def test_min_maps_to_floor(self):
        q, _ = quantize_column([0.0, 1.0, 2.0])
        assert q[0] == -32768

    def test_max_maps_to_top(self):
        q, _ = quantize_column([0.0, 1.0, 2.0])
        assert q[-1] == 32767

    def test_constant_column_all_zero(self):
        q, meta = quantize_column([3.5] * 7)
        assert q.tolist() == [0] * 7
        assert meta.lo == meta.hi == 3.5

    def test_nan_errors_with_row_indices(self):
        with pytest.raises(ValueError, match="rows: 1, 3"):
            quantize_column([1.0, float("nan"), 2.0, float("inf")])

    @pytest.mark.filterwarnings("error")
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=300))
    @example([-1.7976931348623157e308, 5e-324, 1.7976931348623157e308])
    def test_monotone(self, values):
        q, _ = quantize_column(values)
        order = np.argsort(np.asarray(values), kind="stable")
        assert np.all(np.diff(q[order]) >= 0)

    @given(st.lists(finite_floats, min_size=1, max_size=300))
    def test_error_bound_one_step(self, values):
        x = np.asarray(values)
        q, meta = quantize_column(x)
        back = dequantize_column(q, meta)
        # Halved as the quantizer does, so a span past the largest float is finite.
        step = (meta.hi / 2 - meta.lo / 2) / 65535 * 2
        # One quantization step, plus float slack on huge magnitudes.
        tol = step + 1e-6 * max(1.0, abs(meta.hi), abs(meta.lo))
        assert np.all(np.abs(back - x) <= tol)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "values, expected",
        [
            ([-1e308, 0.0, 1e308], [-32768, -1, 32767]),
            ([-1e308, -5e307, 0.0, 5e307, 1e308], [-32768, -16385, -1, 16383, 32767]),
        ],
    )
    def test_span_wider_than_the_largest_float(self, values, expected):
        q, meta = quantize_column(values)
        assert q.tolist() == expected
        assert (meta.lo, meta.hi) == (min(values), max(values))

    def test_range_always_16bit(self):
        q, _ = quantize_column(np.linspace(-1e9, 1e9, 999))
        assert q.min() >= -32768 and q.max() <= 32767


class TestIngestColumn:
    def test_integral_passthrough_marked_identity(self):
        q, meta = ingest_column([1.0, -5.0, 32767.0])
        assert meta.identity
        assert q.tolist() == [1, -5, 32767]

    def test_identity_quantization_idempotent(self):
        q1, meta = ingest_column([4.0, 7.0, -2.0])
        q2, _ = ingest_column(dequantize_column(q1, meta))
        assert q1.tolist() == q2.tolist()

    def test_out_of_range_integers_rescaled(self):
        q, meta = ingest_column([0.0, 100000.0])
        assert not meta.identity
        assert q.tolist() == [-32768, 32767]

    def test_fractional_column_quantized(self):
        q, meta = ingest_column([0.25, 0.75])
        assert not meta.identity

    @pytest.mark.parametrize(
        "values, q, identity",
        [
            ([-32768.0, 32767.0], [-32768, 32767], True),
            ([-32769.0, 0.0], [-32768, 32767], False),
            ([1.5, 2.0, 1.5], [-32768, 32767, -32768], False),
        ],
    )
    def test_identity_needs_integral_values_in_the_16bit_range(self, values, q, identity):
        got, meta = ingest_column(values)
        assert got.tolist() == q
        assert meta == ChannelQuantization(lo=min(values), hi=max(values), identity=identity)

    @pytest.mark.parametrize(
        "values, rows", [([1.0, np.inf], "1"), ([np.nan, 2.0], "0"), ([-np.inf], "0")]
    )
    def test_non_finite_values_name_their_rows(self, values, rows):
        with pytest.raises(ValueError, match=f"^non-finite values at rows: {rows}$"):
            ingest_column(values)

    @pytest.mark.parametrize("ingest", [ingest_column, quantize_column])
    def test_empty_column_errors(self, ingest):
        with pytest.raises(ValueError, match="^undefined on empty input$"):
            ingest([])


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_two_columns_three_rows(self, tmp_path):
        path = _write(tmp_path, "1,10\n2,20\n3,30\n")
        ds = load_csv(path)
        assert len(ds.channels) == 2
        assert all(len(ch) == 3 for ch in ds.channels)
        assert ds.channels[0].samples.tolist() == [1, 2, 3]
        assert ds.name == "data"

    def test_header_detected_and_selectable(self, tmp_path):
        path = _write(tmp_path, "temp,load\n1,10\n2,20\n")
        ds = load_csv(path, columns=["load"])
        assert len(ds.channels) == 1
        assert ds.channels[0].samples.tolist() == [10, 20]

    def test_select_by_index(self, tmp_path):
        path = _write(tmp_path, "1,10\n2,20\n")
        ds = load_csv(path, columns=[1])
        assert ds.channels[0].samples.tolist() == [10, 20]

    @pytest.mark.parametrize("column", [2, -1])
    def test_column_index_out_of_range(self, tmp_path, column):
        with pytest.raises(ValueError, match=f"^column index {column} out of range$"):
            load_csv(_write(tmp_path, "1,10\n2,20\n"), columns=[column])

    def test_unknown_column_name(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(ValueError, match="unknown column name"):
            load_csv(path, columns=["c"])

    def test_missing_cell_error_policy_names_cell(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,2\n3,\n")
        with pytest.raises(ValueError, match="row 1, column b"):
            load_csv(path, missing="error")

    def test_unknown_missing_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match='^missing policy must be "drop" or "error"$'):
            load_csv(_write(tmp_path, "1,2\n"), missing="skip")

    def test_missing_cell_drop_policy_counts(self, tmp_path):
        path = _write(tmp_path, "1,2\n3,\n5,6\n")
        ds = load_csv(path, missing="drop")
        assert ds.dropped_rows == 1
        assert ds.channels[0].samples.tolist() == [1, 5]

    @pytest.mark.parametrize("row", [0, 3, 6])
    def test_empty_cell_in_first_middle_and_last_row(self, tmp_path, row):
        """The rows before an empty cell parse once; the rest are re-read."""
        rows = [[str(10 * i + j) for j in range(3)] for i in range(7)]
        rows[row][1] = " "
        path = _write(tmp_path, "a,b,c\n" + "\n".join(",".join(r) for r in rows) + "\n")
        ds = load_csv(path)
        want = oracles.load_csv(path)
        assert [ch.samples.tolist() for ch in ds.channels] == [ch.samples.tolist() for ch in want.channels]
        assert ds.dropped_rows == want.dropped_rows == 1
        assert ds.channels[0].samples.tolist() == [10 * i for i in range(7) if i != row]
        with pytest.raises(ValueError, match=f"missing value at row {row}, column b"):
            load_csv(path, missing="error")
        # A bad cell after the empty one is named by its row in the file.
        rows[-1][2] = "x"
        path = _write(tmp_path, "\n".join(",".join(r) for r in rows) + "\n")
        with pytest.raises(ValueError, match="row 6, column 2: 'x'"):
            load_csv(path)

    @pytest.mark.parametrize("row", [0, 6])
    @pytest.mark.parametrize("col", [0, 1, 2])
    def test_bare_empty_cell_in_first_and_last_row(self, tmp_path, row, col):
        """A leading, doubled or trailing comma: each empty cell drops its row."""
        rows = [[str(10 * i + j) for j in range(3)] for i in range(7)]
        rows[row][col] = ""
        path = _write(tmp_path, "\n".join(",".join(r) for r in rows) + "\n")
        ds = load_csv(path)
        assert ds == oracles.load_csv(path)
        assert ds.dropped_rows == 1
        assert ds.channels[2].samples.tolist() == [10 * i + 2 for i in range(7) if i != row]

    def test_blank_cells_of_every_kind_are_missing(self, tmp_path):
        """A space, a tab, an NBSP, a quoted blank, a doubled, a leading and
        a trailing comma each make a missing cell, after a clean first row
        and between clean rows, one of them quoted."""
        rows = ["0,1,2", "3, ,5", "6,7,8", "9,\t,11", '12,"13",14', "15,\xa0,17", '18,"",20', "21,,23", ",25,26", "27,28,"]
        path = _write(tmp_path, "a,b,c\n" + "\n".join(rows + ["29,30,31"]) + "\n")
        ds = load_csv(path)
        assert ds == oracles.load_csv(path)
        assert ds.dropped_rows == 7
        assert [ch.samples.tolist() for ch in ds.channels] == [[0, 6, 12, 29], [1, 7, 13, 30], [2, 8, 14, 31]]
        with pytest.raises(ValueError, match="missing value at row 1, column b"):
            load_csv(path, missing="error")

    def test_unparseable_cell_location(self, tmp_path):
        path = _write(tmp_path, "1,2\n3,fish\n")
        with pytest.raises(ValueError, match="row 1, column 1"):
            load_csv(path)

    def test_parse_error_naming_no_row_is_prefixed_with_the_path(self, tmp_path, monkeypatch):
        """A ``loadtxt`` error that names no row is re-raised with the path
        and numpy's message, after the blank-filling retry fails as well."""
        path = _write(tmp_path, "a,b\n1,2\n3,4\n")
        real_loadtxt = np.loadtxt

        def loadtxt(*args, **kwargs):
            if "usecols" in kwargs:
                raise ValueError("no row here")
            return real_loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        with pytest.raises(ValueError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: no row here"

    def test_float_columns_quantized(self, tmp_path):
        # floor(0.5 * 65535) - 32768 = -1 for the midpoint
        path = _write(tmp_path, "0.5\n1.5\n2.5\n")
        ds = load_csv(path)
        assert ds.channels[0].samples.tolist() == [-32768, -1, 32767]
        assert not ds.quantization[0].identity

    def test_quantization_metadata_survives(self, tmp_path):
        path = _write(tmp_path, "0.0\n10.5\n")
        ds = load_csv(path)
        meta = ds.quantization[0]
        assert (meta.lo, meta.hi) == (0.0, 10.5)

    @given(
        st.lists(st.integers(-32768, 32767), min_size=1, max_size=40),
        st.integers(1, 4),
        st.booleans(),
    )
    def test_write_read_integer_roundtrip(self, tmp_path_factory, values, k, header):
        channels = [TimeSeries(samples=np.roll(values, j), channel_id=j) for j in range(k)]
        path = tmp_path_factory.mktemp("rt") / "out.csv"
        write_csv(path, channels, header=header)
        ds = load_csv(path)
        assert [ch.samples.tolist() for ch in ds.channels] == [ch.samples.tolist() for ch in channels]
        assert all(m.identity for m in ds.quantization)

    @pytest.mark.parametrize("rows", [0, 2 * WRITE_ROWS + 5])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("header", [True, False])
    def test_written_bytes_equal_savetxt(self, tmp_path, rows, k, header):
        rng = np.random.default_rng(k)
        channels = [TimeSeries(samples=rng.integers(-(2**31), 2**31, rows), channel_id=j + 7) for j in range(k)]
        write_csv(tmp_path / "got.csv", channels, header=header)
        names = ",".join(f"ch{j + 7}" for j in range(k)) if header else ""
        table = np.column_stack([ch.samples for ch in channels])
        np.savetxt(tmp_path / "want.csv", table, fmt="%d", delimiter=",", header=names, comments="")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_empty_file_errors(self, tmp_path):
        path = _write(tmp_path, "")
        with pytest.raises(ValueError, match="empty file"):
            load_csv(path)

    def test_header_only_file_errors(self, tmp_path):
        path = _write(tmp_path, "a,b\n\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(path)

    @pytest.mark.parametrize("text", ["d,a,b\n2024-01-01,1,2\n2024-01-02,3,4\n", "a,b,d\n1,2,x y\n3,4,#z\n"])
    def test_unselected_text_column_is_not_parsed(self, tmp_path, text):
        ds = load_csv(_write(tmp_path, text), columns=["a", "b"])
        assert [ch.samples.tolist() for ch in ds.channels] == [[1, 3], [2, 4]]

    @pytest.mark.parametrize("cell", ["#4", "1_0", "4 5", "0x10"])
    def test_rejected_cell_named_by_row_and_column(self, tmp_path, cell):
        path = _write(tmp_path, f"a,b\n1,2\n3,{cell}\n")
        with pytest.raises(ValueError, match=f"row 1, column b: '{cell}'"):
            load_csv(path)

    @pytest.mark.parametrize("columns", [None, [0], [2, 0]])
    def test_short_row_errors_whatever_the_selection(self, tmp_path, columns):
        path = _write(tmp_path, "1,2,3\n4,5,6\n7,8\n")
        with pytest.raises(ValueError, match="row 2 has 2 cells, expected 3"):
            load_csv(path, columns=columns)

    @pytest.mark.parametrize(("row", "missing", "message"), [
        ("3,x", "drop", "row 1, column 1: 'x'"),
        ("3,", "error", "missing value at row 1, column 1"),
    ])
    def test_column_beyond_a_short_header_named_by_index(self, tmp_path, row, missing, message):
        path = _write(tmp_path, f"a\n1,2\n{row}\n")
        with pytest.raises(ValueError, match=message):
            load_csv(path, missing=missing)

    def test_longer_rows_load(self, tmp_path):
        ds = load_csv(_write(tmp_path, "1,2\n3,4,5\n6,7,x,y\n"))
        assert [ch.samples.tolist() for ch in ds.channels] == [[1, 3, 6], [2, 4, 7]]

    def test_quoted_header_and_cells(self, tmp_path):
        path = _write(tmp_path, '"temp","load, kW"\r\n"1",2\r\n\r\n3,"4"\r\n')
        ds = load_csv(path, columns=["load, kW", "temp"])
        assert [ch.samples.tolist() for ch in ds.channels] == [[2, 4], [1, 3]]

    def test_file_is_parsed_without_its_whole_text(self, tmp_path, monkeypatch):
        """Neither a clean file nor one numpy rejects is read whole."""
        clean = _write(tmp_path, "\r\na,b\r\n1,2\r\n\r\n3,4\r\n")
        gap = _write(tmp_path, "a,b\n1,\n3,4\n", "gap.csv")

        def read_text(self, *args, **kwargs):
            raise AssertionError(f"{self} read whole")

        monkeypatch.setattr(Path, "read_text", read_text)
        assert [ch.samples.tolist() for ch in load_csv(clean).channels] == [[1, 3], [2, 4]]
        ds = load_csv(gap)
        assert [ch.samples.tolist() for ch in ds.channels] == [[3], [4]] and ds.dropped_rows == 1

    @pytest.mark.parametrize("at", [100, 9000, 10_050])
    def test_undecodable_byte_is_named_by_its_offset_in_the_file(self, tmp_path, at):
        """In the header within and past the first 8 KiB read, and in a data row."""
        data = bytearray(b"a" * 10_000 + b"\n" + b"1\n" * 100)
        data[at] = 0xFF
        path = tmp_path / "data.csv"
        path.write_bytes(bytes(data))
        with pytest.raises(UnicodeDecodeError, match=f"byte 0xff in position {at}:"):
            load_csv(path)

    @pytest.mark.parametrize(
        "text, columns, dropped",
        [
            ("1.5,2\n3,4\n5,6\n", None, 0),
            ("c0,c1\n1.5,2\n3,4\n5,6\n", ["c0"], 0),
            ("c0,c1\n1.5,2\n3,\n5,6\n", ["c1", "c0"], 1),  # read a second time
            ("1.5,2\n3,x\n5,6\n", None, None),  # its bad cell read a third time
        ],
        ids=["no-header", "header", "header-gap", "bad-cell"],
    )
    def test_byte_order_mark_is_skipped(self, tmp_path, text, columns, dropped):
        """A file with a UTF-8 byte-order mark loads as the same file without one."""
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        try:
            want = load_csv(plain, columns)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                load_csv(marked, columns)
            assert str(got.value) == str(exc)
            return
        got = load_csv(marked, columns)
        assert [ch.samples.tolist() for ch in got.channels] == [ch.samples.tolist() for ch in want.channels]
        assert got.quantization == want.quantization
        assert got.dropped_rows == want.dropped_rows == dropped

    def test_undecodable_byte_past_a_byte_order_mark_counts_the_mark(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbf" + b"1,2\n3,4\n5,6\xff\n")  # 3 + 11 bytes before it
        with pytest.raises(UnicodeDecodeError, match="byte 0xff in position 14:"):
            load_csv(path)

    @pytest.mark.parametrize("gap", [None, 0, -1], ids=["clean", "gap-first-row", "gap-last-row"])
    def test_peak_memory_is_bounded_by_its_data(self, tmp_path, gap):
        """50k x 32 floats, clean or with one empty cell: the parses hold a
        line at a time, not the text and its line list (3.25x the float64
        data before on a clean file, 3.59x and 3.26x with the empty cell)."""
        values = np.cumsum(np.random.default_rng(0).normal(size=(50_000, 32)), axis=0)
        path = tmp_path / "wide.csv"
        header = ",".join(f"c{i}" for i in range(values.shape[1]))
        if gap is not None:
            values[gap, 5] = np.nan
        np.savetxt(path, values, fmt="%.2f", delimiter=",", header=header, comments="")
        path.write_text(path.read_text().replace("nan", ""))  # the gap as an empty cell
        tracemalloc.start()
        try:
            ds = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dropped = gap is not None
        assert ds.dropped_rows == dropped
        assert len(ds.channels) == 32 and len(ds.channels[0]) == 50_000 - dropped
        assert peak <= 2.6 * values.nbytes

    def test_a_wide_leading_row_is_tokenized_alone(self, tmp_path):
        """A header and one data row of 1,000 columns: tokenizing a line
        holds that line, not a chunk sized for 50,000 rows (near 400 MB)."""
        path = _write(tmp_path, ",".join(f"c{i}" for i in range(1000)) + "\n" + ",".join(map(str, range(1000))) + "\n")
        tracemalloc.start()
        try:
            ds = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [ch.samples.tolist() for ch in ds.channels] == [[i] for i in range(1000)]
        assert peak < 5 * 2**20


_VALUES = st.one_of(st.integers(-40000, 40000).map(str), st.floats(-1e6, 1e6, allow_nan=False).map(repr))
_CELLS = st.one_of(
    _VALUES,
    _VALUES.map(lambda v: f'"{v}"'),
    _VALUES.map(lambda v: f" {v}\t"),
    st.sampled_from(["", " ", "\t ", "nan", "NaN", '""', '" "']),
)
_BAD_CELLS = st.sampled_from(["x", "#1", "1x", "--1", ' "1"'])


@st.composite
def _csv_files(draw):
    """CSV text, the column selection and the missing policy to load it with."""
    ncols = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(_CELLS, min_size=ncols, max_size=ncols), min_size=1, max_size=8))
    if draw(st.booleans()):  # one ragged row
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + [draw(_CELLS)]
    if draw(st.integers(0, 3)) == 0:  # one unparseable cell
        row = draw(st.sampled_from(rows))
        if row:
            row[draw(st.integers(0, len(row) - 1))] = draw(_BAD_CELLS)
    names = ["a", "b", "c", "d"][:ncols]
    header = draw(st.booleans())
    if header:
        rows.insert(0, [f'"{n}"' if draw(st.booleans()) else n for n in names])
    lines = [",".join(r) for r in rows]
    for _ in range(draw(st.integers(0, 2))):  # blank lines
        lines.insert(draw(st.integers(0, len(lines))), "")
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + (eol if draw(st.booleans()) else "")
    if draw(st.booleans()):  # a UTF-8 byte-order mark
        text = "\ufeff" + text
    keys = st.integers(0, ncols - 1) | (st.sampled_from(names) if header else st.nothing())
    columns = draw(st.none() | st.lists(keys, min_size=1, max_size=5))
    return text, columns, draw(st.sampled_from(["drop", "error"]))


class TestLoadCsvAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(_csv_files())
    @example(case=("a,b\r\n1,2\r\n3,4\r\n", None, "drop"))  # a clean file: streamed
    @example(case=("\n\na,b\n1,2\n\n\n3,4\n", ["b", 0], "error"))
    @example(case=("a,b\n1,2\n \t\n3,4\n", None, "drop"))
    @example(case=("a,b\r\n\r\n", None, "drop"))
    @example(case=("a,b\n1,\n3,4\n", None, "drop"))
    @example(case=("a,b\n1,\n3,4\n", None, "error"))
    @example(case=("\ufeff1.5,2\n3,4\n5,6\n", None, "drop"))
    @example(case=("\ufeffa,b\n1,2\n3,4\n", ["a"], "drop"))
    def test_same_dataset_or_same_error(self, tmp_path_factory, case):
        text, columns, missing = case
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_bytes(text.encode())
        try:
            want = oracles.load_csv(path, columns=columns, missing=missing)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                load_csv(path, columns=columns, missing=missing)
            assert str(got.value) == str(exc)
            return
        got = load_csv(path, columns=columns, missing=missing)
        assert [ch.samples.tolist() for ch in got.channels] == [ch.samples.tolist() for ch in want.channels]
        assert got.quantization == want.quantization
        assert got.dropped_rows == want.dropped_rows
        assert got.name == want.name
