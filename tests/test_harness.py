import csv
import dataclasses
import json

import numpy as np
import pytest

from tscodec.backends import BackendDescriptor, backend_compress, serialize_series
from tscodec.coders.registry import CODERS, INTERNAL_CODER_NAMES
from tscodec.container import build_container, read_container
from tscodec.core import TimeSeries, entropy_and_limit
from tscodec.errors import TscodecError
from tscodec.harness import (
    ABLATION_CHAINS,
    Unavailable,
    ablation_markdown,
    ablation_rows,
    emit_report,
    run_job,
    run_matrix,
)
from tscodec.ingest import Dataset
from tscodec.synth import SynthSpec, generate, suite
from tscodec.transforms import TransformChain, chain_apply

CHAINS = [TransformChain.parse(label) for label in ABLATION_CHAINS]


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def _missing_backend():
    from tscodec.backends import is_available

    missing = [b for b in ("sprintz", "zstd", "brotli") if not is_available(b)]
    if not missing:
        pytest.skip("all probed backends installed")
    return missing[0]


@pytest.fixture(scope="module")
def small_suite():
    return suite(n=3000, seed=0)


class TestRunJob:
    def test_a_channel_id_is_not_compared(self):
        # The container stores no channel id: channel 5 comes back as 0.
        rec = run_job(TimeSeries([1, 2, 3], channel_id=5), TransformChain(()), "drh", repetitions=1)
        assert rec.original_bytes == 6

    def test_constant_series_delta_rle0_expgolomb(self):
        series = TimeSeries(samples=np.full(1000, 500))
        rec = run_job(series, TransformChain(("delta", "rle0")), "expgolomb", dataset_name="const")
        # Token stream collapses to (500, 0, 999): a few bytes of payload.
        assert rec.cs > 0.9
        assert rec.payload_bytes <= 8

    def test_noise_huffman_tracks_shannon_limit(self, small_suite):
        series = small_suite["noise"]
        rec = run_job(series, TransformChain(()), "huffman", dataset_name="noise")
        stats = entropy_and_limit(series)
        header_share = rec.header_bytes / rec.original_bytes
        assert abs(rec.cs - (stats.shannon_cs - header_share)) <= 0.05

    def test_sizes_add_up(self, small_suite):
        rec = run_job(small_suite["sine"], TransformChain(("delta",)), "range", dataset_name="sine")
        assert rec.compressed_bytes == rec.payload_bytes + rec.header_bytes
        assert rec.original_bytes == 2 * len(small_suite["sine"])

    def test_plain_array_is_one_channel(self, small_suite):
        series = small_suite["sine"]
        rec = run_job(series.samples, TransformChain(("delta",)), "huffman", repetitions=1)
        assert rec == dataclasses.replace(
            run_job(series, TransformChain(("delta",)), "huffman", repetitions=1),
            compress_seconds=rec.compress_seconds,
            decompress_seconds=rec.decompress_seconds,
            speed_mb_s=rec.speed_mb_s,
            decode_mb_s=rec.decode_mb_s,
        )

    def test_decoder_fault_is_fatal(self, small_suite, monkeypatch):
        # A coder whose decode corrupts one token must never yield a record.
        from tscodec.coders import registry

        real = CODERS["drh"]
        broken = registry.CoderInfo(
            name="drh",
            id_byte=real.id_byte,
            kind="symbol",
            encode=real.encode,
            decode=lambda h, p, n: real.decode(h, p, n) + 1,
        )
        monkeypatch.setitem(registry.CODERS, "drh", broken)
        monkeypatch.setitem(registry.CODER_BY_ID, real.id_byte, broken)
        with pytest.raises(TscodecError, match="round-trip mismatch"):
            run_job(small_suite["sine"], TransformChain(()), "drh", dataset_name="sine")

    def test_missing_channel_is_a_mismatch(self, small_suite, monkeypatch):
        # A decoded container one channel short, or one channel long, must
        # not pass the check.
        from tscodec import harness

        real = harness.read_container
        dataset = Dataset(name="two", channels=[small_suite["sine"], small_suite["noise"]])
        for edit in (lambda chs: chs[:-1], lambda chs: [*chs, chs[0]]):

            def edited(blob, edit=edit):
                decoded = real(blob)
                return dataclasses.replace(decoded, channels=edit(decoded.channels))

            monkeypatch.setattr(harness, "read_container", edited)
            with pytest.raises(TscodecError, match="round-trip mismatch"):
                run_job(dataset, TransformChain(("delta",)), "drh", repetitions=1, dataset_name="two")

    @pytest.mark.parametrize("coder", [*INTERNAL_CODER_NAMES, "deflate"])
    def test_payload_bytes_come_from_the_coder_payloads(self, small_suite, coder):
        channels = [small_suite["sine"], small_suite["noise"]]
        chain = TransformChain(("delta", "rle0"))
        info = CODERS[coder]
        expected = 0
        for ch in channels:
            tokens, _ = chain_apply(ch, chain)
            if info.kind == "symbol":
                expected += len(info.encode(tokens)[1])
            elif info.kind == "bytes":
                expected += len(info.encode(serialize_series(tokens)[0])[1])
            else:
                data, width = serialize_series(tokens)
                expected += len(backend_compress(data, BackendDescriptor(coder, None, width)))
        blob = build_container(channels, chain, coder)
        assert read_container(blob).payload_bytes == expected
        rec = run_job(Dataset(name="two", channels=channels), chain, coder, repetitions=1)
        assert rec.payload_bytes == expected
        assert rec.header_bytes == len(blob) - expected

    def test_unavailable_backend_bubbles_up(self, small_suite):
        from tscodec.backends import is_available
        from tscodec.errors import BackendUnavailableError

        missing = [b for b in ("sprintz", "zstd", "brotli", "snappy") if not is_available(b)]
        if not missing:
            pytest.skip("all probed backends installed")
        with pytest.raises(BackendUnavailableError):
            run_job(small_suite["sine"], TransformChain(()), missing[0])

    def test_one_untimed_pass_before_the_timed_repetitions(self, small_suite, monkeypatch):
        from tscodec import harness

        calls = []
        for name in ("build_container", "read_container"):
            real = getattr(harness, name)
            monkeypatch.setattr(harness, name, lambda *a, _f=real, _n=name: calls.append(_n) or _f(*a))
        run_job(small_suite["sine"], TransformChain(("delta",)), "huffman", repetitions=3)
        assert calls == ["build_container", "read_container"] * 4

    def test_timing_fields_populated(self, small_suite):
        rec = run_job(small_suite["sine"], TransformChain(("delta",)), "bitpack", repetitions=2)
        assert rec.compress_seconds > 0
        assert rec.decompress_seconds > 0
        assert rec.speed_mb_s > 0

    def test_decode_speed_matches_decompress_seconds(self, small_suite):
        rec = run_job(small_suite["sine"], TransformChain(("delta", "rle0")), "huffman", repetitions=2)
        assert rec.decode_mb_s > 0
        assert rec.decode_mb_s == pytest.approx(rec.original_bytes / 1e6 / rec.decompress_seconds)
        lines = [l for l in emit_report([rec], "csv").decode().splitlines() if not l.startswith("#")]
        row = next(csv.DictReader(lines))
        assert float(row["decode_mb_s"]) == pytest.approx(rec.decode_mb_s)
        assert "| decode MB/s |" in emit_report([rec], "markdown").decode()
        doc = json.loads(emit_report([rec], "json"))
        assert doc["records"][0]["decode_mb_s"] == pytest.approx(rec.decode_mb_s)

    def test_fewer_than_one_repetition_is_rejected(self, small_suite):
        with pytest.raises(ValueError, match="repetitions must be >= 1"):
            run_job(small_suite["sine"], TransformChain(()), "drh", repetitions=0)
        with pytest.raises(ValueError, match="repetitions must be >= 1"):
            run_matrix(small_suite, [TransformChain(())], ["drh"], repetitions=0)


class TestRunMatrix:
    def test_empty_axis_errors(self, small_suite):
        with pytest.raises(ValueError, match="empty axis"):
            run_matrix({}, [TransformChain(())], ["drh"])
        with pytest.raises(ValueError, match="empty axis"):
            run_matrix(small_suite, [], ["drh"])
        with pytest.raises(ValueError, match="empty axis"):
            run_matrix(small_suite, [TransformChain(())], [])

    def test_full_synthetic_matrix_shape(self):
        result = run_matrix(suite(1500, 0), CHAINS, list(INTERNAL_CODER_NAMES), repetitions=1)
        assert len(result.records) == 4 * 4 * 6
        assert not result.unavailable
        assert not result.failures
        # 4 cases x 4 cumulative chains
        assert len(result.ablations) == 16

    def test_matrix_deterministic_scores(self):
        a = run_matrix(suite(1200, 5), CHAINS, list(INTERNAL_CODER_NAMES), repetitions=1)
        b = run_matrix(suite(1200, 5), CHAINS, list(INTERNAL_CODER_NAMES), repetitions=1)
        key = lambda r: (r.dataset, r.chain, r.coder)
        assert [key(r) for r in a.records] == [key(r) for r in b.records]
        assert [r.cs for r in a.records] == [r.cs for r in b.records]

    def test_unavailable_backend_becomes_na_cell(self, small_suite):
        missing = _missing_backend()
        result = run_matrix(
            {"sine": small_suite["sine"]}, [TransformChain(())], ["drh", missing]
        )
        assert [r.coder for r in result.records] == ["drh"]
        [cell] = result.unavailable
        assert (cell.dataset, cell.chain, cell.coder, cell.level) == ("sine", "none", missing, None)
        assert missing in cell.note
        assert not result.failures

    def test_level_sweep(self, small_suite):
        result = run_matrix(
            {"sine": small_suite["sine"]},
            [TransformChain(("delta",))],
            ["deflate"],
            levels={"deflate": [1, 9]},
            repetitions=1,
        )
        assert [r.level for r in result.records] == [1, 9]
        assert result.records[1].cs > result.records[0].cs

    def test_value_error_in_one_cell_is_collected(self):
        # 70,000 uniform int16 samples hold more distinct values than the
        # range coder's 2^14-slot model; huffman handles them.
        samples = np.random.default_rng(0).integers(-32768, 32768, 70000)
        result = run_matrix(
            {"noise": TimeSeries(samples=samples)},
            [TransformChain(())],
            ["range", "huffman"],
            repetitions=1,
        )
        assert [r.coder for r in result.records] == ["huffman"]
        assert len(result.failures) == 1
        cell, message = result.failures[0]
        assert cell == "noise/none/range"
        assert "alphabet too large" in message

    def test_dataset_without_ablation_statistics_keeps_the_others(self):
        # QuaRs cannot map the deltas of the int32 extremes, so every "w"
        # cell fails, its ablation row included; "ok" still reports.
        chain = TransformChain(("delta", "quars"))
        result = run_matrix(
            {"w": TimeSeries([-(2**31), 2**31 - 1, 0]), "ok": TimeSeries(range(50))},
            [chain],
            ["huffman", "bitpack"],
            repetitions=1,
        )
        assert [(r.dataset, r.coder) for r in result.records] == [("ok", "huffman"), ("ok", "bitpack")]
        assert result.ablations == ablation_rows({"ok": TimeSeries(range(50))}, [chain])
        assert [cell for cell, _ in result.failures] == [
            "w/delta,quars/ablation", "w/delta,quars/huffman", "w/delta,quars/bitpack",
        ]
        assert "QuaRs map outside the int32 range" in result.failures[0][1]


class TestShannonDominance:
    def test_payload_cs_never_beats_post_transform_limit(self, small_suite):
        # Order-0 coders cannot compress the token stream below its
        # entropy; 1/16 of slack covers the +1-bit prefix-code bound.
        for case, series in small_suite.items():
            for label in ABLATION_CHAINS:
                chain = TransformChain.parse(label)
                tokens, _ = chain_apply(series, chain)
                limit = entropy_and_limit(tokens)
                token_limit_bytes = len(tokens) * limit.entropy_bits / 8
                for coder in ("expgolomb", "bitpack", "huffman", "drh", "range"):
                    rec = run_job(series, chain, coder, repetitions=1, dataset_name=case)
                    payload_cs = 1 - rec.payload_bytes / rec.original_bytes
                    shannon_cs_tokens = 1 - token_limit_bytes / rec.original_bytes
                    assert payload_cs <= shannon_cs_tokens + 1 / 16 + 1e-9, (case, label, coder)


class TestAblation:
    def test_rows_follow_fixed_chain_order(self, small_suite):
        rows = ablation_rows({"sine": small_suite["sine"]})
        assert [r.chain for r in rows] == ["none", "delta", "delta,rle0", "delta,rle0,quars"]

    def test_directional_pattern(self):
        rows = ablation_rows({"sine": generate(SynthSpec(case="sine", n=10000, seed=0))})
        by_chain = {r.chain: r for r in rows}
        assert by_chain["none"].cardinality > 500
        assert by_chain["delta"].cardinality <= 20
        assert by_chain["delta,rle0,quars"].cardinality == by_chain["delta,rle0"].cardinality

    def test_rows_use_each_chains_quars_bins(self, small_suite):
        chains = [TransformChain(("delta", "rle0", "quars"), quars_bins=b) for b in (1, 256)]
        coarse, fine = ablation_rows({"sine": small_suite["sine"]}, chains)
        assert coarse.cardinality == fine.cardinality
        assert coarse.aad != fine.aad

    def test_matrix_ablates_its_own_chains(self, small_suite):
        chain = TransformChain(("delta",))
        result = run_matrix(small_suite, [chain], ["bitpack"], repetitions=1)
        assert result.ablations == ablation_rows(small_suite, [chain])
        assert {r.chain for r in result.ablations} == {"delta"}

    def test_markdown_table_shape(self, small_suite):
        rows = ablation_rows(small_suite)
        text = ablation_markdown(rows)
        lines = text.strip().splitlines()
        assert lines[0].startswith("| case |")
        assert len(lines) == 2 + len(small_suite)


class TestReports:
    @pytest.fixture()
    def records(self, small_suite):
        result = run_matrix(
            {"sine": small_suite["sine"]},
            [TransformChain(()), TransformChain(("delta",))],
            ["huffman", "drh"],
            repetitions=1,
        )
        return result

    def test_csv_row_count_and_quoting(self, records):
        text = emit_report(records.records, "csv", metadata=records.metadata).decode()
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(lines) == 1 + len(records.records)
        assert lines[0].startswith("dataset,chain,coder")
        meta_lines = [l for l in text.splitlines() if l.startswith("#")]
        assert any("tool_version" in l for l in meta_lines)
        assert any("repetitions" in l for l in meta_lines)

    def test_csv_preserves_negative_cs(self, small_suite):
        rng = np.random.default_rng(0)
        noisy = TimeSeries(samples=rng.integers(-32768, 32768, 400))
        rec = run_job(noisy, TransformChain(()), "huffman", dataset_name="hostile")
        assert rec.cs < 0
        text = emit_report([rec], "csv").decode()
        row = [l for l in text.splitlines() if not l.startswith("#")][1]
        assert float(row.split(",")[9]) == pytest.approx(rec.cs)

    def test_markdown_clamps_negative_cs(self, small_suite):
        rng = np.random.default_rng(0)
        noisy = TimeSeries(samples=rng.integers(-32768, 32768, 400))
        rec = run_job(noisy, TransformChain(()), "huffman", dataset_name="hostile")
        text = emit_report([rec], "markdown").decode()
        assert "| 0.000 |" in text

    def test_json_roundtrip(self, records):
        payload = emit_report(
            records.records, "json", ablations=records.ablations, metadata=records.metadata
        )
        doc = json.loads(payload, parse_constant=_reject_constant)
        assert set(doc) == {"metadata", "records", "na_cells", "ablation"}
        assert doc["records"] == [dataclasses.asdict(r) for r in records.records]
        assert doc["ablation"] == [dataclasses.asdict(a) for a in records.ablations]
        assert doc["na_cells"] == []
        assert doc["metadata"] == json.loads(json.dumps(records.metadata))
        assert doc["metadata"]["repetitions"] == 1

    def test_unknown_format_errors(self, records):
        with pytest.raises(ValueError, match="unknown report format"):
            emit_report(records.records, "xml")

    def test_empty_records_error(self):
        with pytest.raises(ValueError, match="no records"):
            emit_report([], "csv")

    def test_na_cells_never_enter_tables(self, records):
        na = Unavailable("sine", "none", "zstd", None, "missing")
        text = emit_report(records.records, "csv", [na]).decode()
        assert "zstd" not in [l.split(",")[2] for l in text.splitlines() if not l.startswith("#")][1:]
        doc = json.loads(emit_report(records.records, "json", [na]), parse_constant=_reject_constant)
        assert doc["na_cells"] == [dataclasses.asdict(na)]
        assert len(doc["records"]) == len(records.records)
        text = emit_report(records.records, "markdown", [na]).decode()
        assert "| sine | none | zstd |  | n/a | n/a | n/a |" in text.splitlines()

    def test_unavailable_cells_alone_make_a_report(self):
        na = Unavailable("sine", "none", "zstd", 3, "missing")
        assert "| sine | none | zstd | 3 | n/a | n/a | n/a |" in emit_report([], "markdown", [na]).decode()
        assert json.loads(emit_report([], "json", [na]))["records"] == []

    def test_report_without_metadata_writes_none(self, records):
        text = emit_report(records.records, "csv").decode()
        assert not [l for l in text.splitlines() if l.startswith("#")]
        assert json.loads(emit_report(records.records, "json"))["metadata"] == {}
