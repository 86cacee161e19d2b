import csv
import json
from dataclasses import asdict

import numpy as np
import pytest

from tscodec.cli import EXIT_BACKEND, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from tscodec.container import MAGIC, build_container, read_container
from tscodec.core import TimeSeries
from tscodec.errors import FormatError
from tscodec.harness import ablation_rows
from tscodec.synth import SynthSpec, generate
from tscodec.transforms import TransformChain


def run(argv):
    return main(argv)


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def _missing_backend():
    from tscodec.backends import is_available

    missing = [b for b in ("sprintz", "zstd", "brotli") if not is_available(b)]
    if not missing:
        pytest.skip("all probed backends installed")
    return missing[0]


class TestCompressDecompress:
    def test_roundtrip_to_quantized_integers(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        out = tmp_path / "out.tsc"
        back = tmp_path / "back.csv"
        src.write_text("\n".join(str(v) for v in [5, 7, 7, 4, 4, 4, 9]) + "\n")
        assert run(["compress", str(src), "-o", str(out),
                    "--transforms", "delta,rle0", "--coder", "expgolomb"]) == EXIT_OK
        assert "cs" in capsys.readouterr().out
        assert run(["decompress", str(out), "-o", str(back)]) == EXIT_OK
        values = [int(l) for l in back.read_text().splitlines()[1:]]
        assert values == [5, 7, 7, 4, 4, 4, 9]

    def test_roundtrip_multichannel_float(self, tmp_path):
        src = tmp_path / "in.csv"
        out = tmp_path / "out.tsc"
        back = tmp_path / "back.csv"
        rng = np.random.default_rng(0)
        rows = ["a,b"] + [f"{rng.normal():.6f},{rng.normal():.6f}" for _ in range(500)]
        src.write_text("\n".join(rows) + "\n")
        assert run(["compress", str(src), "-o", str(out), "--transforms",
                    "delta,rle0,quars", "--coder", "huffman"]) == EXIT_OK
        assert run(["decompress", str(out), "-o", str(back)]) == EXIT_OK
        # Decompression recovers the quantized integers exactly; a second
        # compress of that CSV is then a fixed point.
        out2 = tmp_path / "out2.tsc"
        back2 = tmp_path / "back2.csv"
        assert run(["compress", str(back), "-o", str(out2), "--transforms",
                    "delta,rle0,quars", "--coder", "huffman"]) == EXIT_OK
        assert run(["decompress", str(out2), "-o", str(back2)]) == EXIT_OK
        assert back.read_text() == back2.read_text()

    def test_dropped_rows_are_reported(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("a,b\n1,2\n3,\n5,6\n,8\n9,10\n")
        assert run(["compress", str(src), "-o", str(tmp_path / "out.tsc")]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1] == "dropped 2 rows with missing values"

    def test_invalid_chain_order_is_usage_error(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("1\n2\n")
        code = run(["compress", str(src), "-o", str(tmp_path / "x.tsc"),
                    "--transforms", "quars,delta"])
        assert code == EXIT_USAGE
        assert "invalid chain order" in capsys.readouterr().err

    def test_level_for_a_coder_without_levels_is_an_error(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        out = tmp_path / "x.tsc"
        src.write_text("1\n2\n")
        code = run(["compress", str(src), "-o", str(out), "--coder", "huffman", "--level", "5"])
        assert code == EXIT_USAGE
        assert "takes no level" in capsys.readouterr().err
        assert not out.exists()

    def test_backend_coder_writes_standard_framing(self, tmp_path):
        import zlib

        src = tmp_path / "in.csv"
        out = tmp_path / "out.tsc"
        src.write_text("\n".join(str(v % 100) for v in range(400)) + "\n")
        assert run(["compress", str(src), "-o", str(out),
                    "--coder", "deflate", "--level", "9"]) == EXIT_OK
        blob = out.read_bytes()
        decoded = read_container(blob)
        assert decoded.coder_name == "deflate"
        series = decoded.channels[0].samples
        assert series.tolist() == [v % 100 for v in range(400)]
        # Payload sits after the fixed header for a single-channel empty
        # chain (4+1+1+1+2 + 8+1+4 + 8 = 30 bytes) and is stock zlib.
        assert zlib.decompress(blob[30:]) == series.astype("<i2").tobytes()

    def test_more_columns_than_a_container_holds_is_a_data_error(self, tmp_path, capsys):
        src = tmp_path / "wide.csv"
        src.write_text(",".join(f"c{i}" for i in range(65536)) + "\n" + ",".join(["1"] * 65536) + "\n")
        out = tmp_path / "out.tsc"
        assert run(["compress", str(src), "-o", str(out), "--coder", "drh"]) == EXIT_DATA
        assert capsys.readouterr().err == "error: 65536 channels: a container holds at most 65535\n"
        assert not out.exists()

    def test_unavailable_backend_exit_code(self, tmp_path, capsys):
        from tscodec.backends import is_available

        missing = [b for b in ("sprintz", "zstd", "brotli") if not is_available(b)]
        if not missing:
            pytest.skip("all probed backends installed")
        src = tmp_path / "in.csv"
        src.write_text("1\n2\n3\n")
        code = run(["compress", str(src), "-o", str(tmp_path / "x.tsc"),
                    "--coder", missing[0]])
        assert code == EXIT_BACKEND
        assert "backend unavailable" in capsys.readouterr().err


class TestContainerRejection:
    def test_tampered_magic(self, tmp_path, capsys):
        out = tmp_path / "c.tsc"
        series = generate(SynthSpec(case="sine", n=200, seed=0))
        blob = bytearray(build_container([series], TransformChain(()), "drh"))
        blob[0] ^= 0xFF
        out.write_bytes(bytes(blob))
        code = run(["decompress", str(out), "-o", str(tmp_path / "y.csv")])
        assert code == EXIT_DATA
        assert "bad magic" in capsys.readouterr().err

    def test_future_version_rejected(self):
        series = generate(SynthSpec(case="sine", n=100, seed=0))
        blob = bytearray(build_container([series], TransformChain(()), "drh"))
        blob[4] = 9
        with pytest.raises(FormatError, match="version"):
            read_container(bytes(blob))

    def test_truncated_payload_surfaces_coder_error(self, tmp_path, capsys):
        out = tmp_path / "c.tsc"
        series = generate(SynthSpec(case="sine", n=500, seed=0))
        blob = build_container([series], TransformChain(()), "huffman")
        out.write_bytes(blob[: len(blob) - 40])
        code = run(["decompress", str(out), "-o", str(tmp_path / "y.csv")])
        assert code == EXIT_DATA
        assert "truncated" in capsys.readouterr().err.lower()

    def test_unknown_coder_id_rejected(self):
        series = generate(SynthSpec(case="sine", n=100, seed=0))
        blob = bytearray(build_container([series], TransformChain(()), "drh"))
        blob[6] = 250  # coder id byte for an empty chain
        with pytest.raises(FormatError, match="coder id"):
            read_container(bytes(blob))

    def test_container_roundtrip_all_internal_coders(self):
        # Container-level identity across chains x coders on a small suite.
        from tscodec.synth import suite

        for case, series in suite(n=800, seed=4).items():
            for label in ("none", "delta", "delta,rle0", "delta,rle0,quars"):
                chain = TransformChain.parse(label)
                for coder in ("expgolomb", "bitpack", "huffman", "drh", "range", "lzss"):
                    blob = build_container([series], chain, coder)
                    decoded = read_container(blob)
                    assert np.array_equal(decoded.channels[0].samples, series.samples)

    def test_multichannel_container(self):
        a = TimeSeries(samples=[1, 2, 3], channel_id=0)
        b = TimeSeries(samples=[-9, 0, 9], channel_id=1)
        blob = build_container([a, b], TransformChain(("delta",)), "drh")
        decoded = read_container(blob)
        assert decoded.channels[0].samples.tolist() == [1, 2, 3]
        assert decoded.channels[1].samples.tolist() == [-9, 0, 9]
        assert blob[:4] == MAGIC


class TestSynthCommand:
    def test_deterministic_output(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(["synth", "--case", "switching", "--seed", "7", "-o", str(a)]) == EXIT_OK
        assert run(["synth", "--case", "switching", "--seed", "7", "-o", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_case_is_usage_error(self, tmp_path, capsys):
        code = run(["synth", "--case", "triangle", "-o", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE
        assert "triangle" in capsys.readouterr().err

    @pytest.mark.parametrize("option, message", [(["--n", "0"], "n must be >= 1"),
                                                 (["--seed", "-1"], "seed must be >= 0")])
    @pytest.mark.parametrize("command", [["synth", "--case", "sine"], ["ablate", "--cases", "sine"],
                                         ["bench", "--cases", "sine"]])
    def test_bad_length_or_seed_is_usage_error(self, command, option, message, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run([*command, *option, "-o", str(out)])
        assert code == EXIT_USAGE
        assert f"usage error: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestStatsCommand:
    def test_reports_post_transform_stats(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("\n".join(["10"] * 50) + "\n")
        assert run(["stats", str(src), "--transforms", "delta"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "cardinality=2" in out  # (10, 0, 0, ...)
        assert "shannon_cs=" in out


class TestAblateCommand:
    def test_markdown_table_shape(self, capsys):
        assert run(["ablate", "--cases", "all", "--n", "2000", "--format", "markdown"]) == EXIT_OK
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "| case | none | delta | delta,rle0 | delta,rle0,quars |"
        assert len(lines) == 2 + 4

    def test_unknown_case_enumerates_choices(self, capsys):
        code = run(["ablate", "--cases", "sine,wave"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "sine_noise" in err and "switching" in err


    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_machine_formats_are_the_record_fields(self, fmt, capsys):
        assert run(["ablate", "--cases", "sine", "--n", "2000", "--format", fmt]) == EXIT_OK
        text = capsys.readouterr().out
        want = [asdict(r) for r in ablation_rows({"sine": generate(SynthSpec("sine", 2000, 0))})]
        if fmt == "json":
            assert json.loads(text) == want
        else:
            # The chain labels hold commas; each row still has 6 fields.
            rows = list(csv.reader(text.splitlines()))
            assert rows[0] == list(want[0])
            assert [len(r) for r in rows] == [6] * (1 + len(want))
            assert [r[1] for r in rows[1:]] == [w["chain"] for w in want]

    def test_comma_list_of_chain_aliases(self, capsys):
        assert run(["ablate", "--cases", "sine", "--n", "500", "--chains", "none,d,d+r",
                    "--format", "json"]) == EXIT_OK
        chains = [TransformChain.parse(c) for c in ("none", "delta", "delta,rle0")]
        want = [asdict(r) for r in ablation_rows({"sine": generate(SynthSpec("sine", 500, 0))}, chains)]
        assert json.loads(capsys.readouterr().out) == want

    def test_output_file_holds_the_printed_table(self, tmp_path, capsys):
        argv = ["ablate", "--cases", "sine,switching", "--n", "500", "--format", "csv"]
        assert run(argv) == EXIT_OK
        printed = capsys.readouterr().out
        out = tmp_path / "table.csv"
        assert run([*argv, "-o", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert out.read_text() == printed

    @pytest.mark.parametrize("command", ["ablate", "bench"])
    @pytest.mark.parametrize("chains", ["quars,delta", "delta,delta", "rle0,delta"])
    def test_invalid_chain_is_usage_error(self, command, chains, capsys):
        code = run([command, "--cases", "sine", "--n", "300", "--chains", chains])
        assert code == EXIT_USAGE
        assert "--chains" in capsys.readouterr().err


class TestBenchCommand:
    def test_synthetic_json_has_96_records(self, tmp_path):
        out = tmp_path / "report.json"
        code = run([
            "bench", "--cases", "all", "--n", "1200", "--coders", "all-internal",
            "--repetitions", "1", "--format", "json", "-o", str(out),
        ])
        assert code == EXIT_OK
        doc = json.loads(out.read_bytes())
        assert len(doc["records"]) == 96
        assert doc["metadata"]["seed"] == 0
        assert "backends" in doc["metadata"]

    def test_csv_format(self, tmp_path, capsys):
        code = run([
            "bench", "--cases", "sine", "--n", "800", "--coders", "drh,huffman",
            "--chains", "none;d", "--repetitions", "1", "--format", "csv",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert len(rows) == 1 + 4

    def test_unknown_coder_is_usage_error(self, capsys):
        code = run(["bench", "--cases", "sine", "--coders", "gzip2"])
        assert code == EXIT_USAGE
        assert "unknown coder" in capsys.readouterr().err

    @pytest.mark.parametrize("levels", ["deflate", "deflate=x", "zzz=1"])
    def test_malformed_or_unselected_levels_are_usage_errors(self, levels, capsys):
        code = run([
            "bench", "--cases", "sine", "--n", "300", "--coders", "deflate",
            "--repetitions", "1", "--levels", levels,
        ])
        assert code == EXIT_USAGE
        assert "--levels" in capsys.readouterr().err

    @pytest.mark.parametrize("coder", ["huffman", "lz4"])
    def test_levels_for_a_coder_without_levels_are_a_usage_error(self, coder, capsys):
        code = run([
            "bench", "--cases", "sine", "--n", "300", "--coders", coder,
            "--repetitions", "1", "--levels", f"{coder}=1,9",
        ])
        assert code == EXIT_USAGE
        assert "--levels" in capsys.readouterr().err

    def test_level_sweep_of_a_leveled_backend_yields_a_record_per_level(self, capsys):
        code = run([
            "bench", "--cases", "sine", "--n", "300", "--coders", "deflate", "--chains", "none",
            "--repetitions", "1", "--levels", "deflate=1,9",
        ])
        assert code == EXIT_OK
        rows = [l for l in capsys.readouterr().out.splitlines() if l and not l.startswith("#")]
        levels = [r["level"] for r in csv.DictReader(rows)]
        assert levels == ["1", "9"]

    def test_every_cell_failing_prints_the_failures(self, tmp_path, capsys):
        # 70,000 uniform int16 samples exceed the range coder's 2^14-symbol model.
        src = tmp_path / "u16.csv"
        samples = np.random.default_rng(0).integers(-32768, 32768, 70000)
        src.write_text("\n".join(map(str, samples.tolist())) + "\n")
        code = run(["bench", str(src), "--coders", "range", "--chains", "none",
                    "--repetitions", "1"])
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.err.startswith("FAILED u16/none/range: alphabet too large")
        assert "no records" not in captured.err

    def test_inputs_are_also_looked_up_in_the_data_dir(self, tmp_path, monkeypatch, capsys):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        (data_dir / "s.csv").write_text("1\n2\n3\n5\n8\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("TSCODEC_DATA_DIR", str(data_dir))
        code = run(["bench", "s.csv", "--chains", "delta", "--coders", "huffman",
                    "--repetitions", "1", "--format", "json"])
        assert code == EXIT_OK
        records = json.loads(capsys.readouterr().out)["records"]
        assert [(r["dataset"], r["chain"], r["coder"]) for r in records] == [("s", "delta", "huffman")]

    def test_no_datasets_is_usage_error(self, capsys):
        code = run(["bench", "--coders", "drh"])
        assert code == EXIT_USAGE

    def test_files_with_the_same_name_are_a_usage_error(self, tmp_path, capsys):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "x.csv").write_text("1\n2\n3\n")
        code = run(["bench", str(tmp_path / "a" / "x.csv"), str(tmp_path / "b" / "x.csv"),
                    "--coders", "drh", "--chains", "none", "--repetitions", "1"])
        assert code == EXIT_USAGE
        assert "'x' is selected twice" in capsys.readouterr().err

    def test_a_file_named_like_a_case_is_a_usage_error(self, tmp_path, capsys):
        src = tmp_path / "sine.csv"
        src.write_text("1\n2\n3\n")
        code = run(["bench", "--cases", "sine", str(src), "--n", "300",
                    "--coders", "drh", "--chains", "none", "--repetitions", "1"])
        assert code == EXIT_USAGE
        assert "'sine' is selected twice" in capsys.readouterr().err

    def test_levels_naming_a_coder_twice_are_a_usage_error(self, capsys):
        code = run([
            "bench", "--cases", "sine", "--n", "300", "--coders", "deflate", "--chains", "none",
            "--repetitions", "1", "--levels", "deflate=1;deflate=9",
        ])
        assert code == EXIT_USAGE
        assert "--levels: coder 'deflate' is given twice" in capsys.readouterr().err

    def test_zero_repetitions_is_a_usage_error(self, capsys):
        code = run(["bench", "--cases", "sine", "--n", "300", "--coders", "drh",
                    "--chains", "none", "--repetitions", "0"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert "repetitions must be >= 1" in captured.err
        assert captured.out == ""

    def test_json_with_an_unavailable_backend_is_strict_json(self, capsys):
        missing = _missing_backend()
        code = run(["bench", "--cases", "sine", "--n", "300", "--coders", f"huffman,{missing}",
                    "--chains", "none", "--repetitions", "1", "--format", "json"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert [r["coder"] for r in doc["records"]] == ["huffman"]
        assert [c["coder"] for c in doc["na_cells"]] == [missing]

    def test_all_coders_makes_na_cells_of_the_uninstalled_backends(self, capsys):
        from tscodec.backends import is_available
        from tscodec.coders.registry import CODERS

        code = run(["bench", "--cases", "sine", "--n", "300", "--coders", "all",
                    "--chains", "none", "--repetitions", "1", "--format", "json"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        installed = [c for c, info in CODERS.items() if info.kind != "backend" or is_available(c)]
        assert [r["coder"] for r in doc["records"]] == installed
        assert [c["coder"] for c in doc["na_cells"]] == [c for c in CODERS if c not in installed]

    def test_only_unavailable_backends_print_the_na_rows(self, capsys):
        missing = _missing_backend()
        code = run(["bench", "--cases", "sine", "--n", "300", "--coders", missing,
                    "--chains", "none", "--repetitions", "1", "--format", "markdown"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert f"| sine | none | {missing} |  | n/a | n/a | n/a |" in out.splitlines()
