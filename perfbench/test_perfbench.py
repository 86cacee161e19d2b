"""Tests of the benchmark's own code (not of tscodec)."""

import dataclasses
import io
import json
from pathlib import Path

import numpy as np
import pytest

import tscodec
from perfbench import bench, speed, tracing, workloads
from perfbench.tracing import Span

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _containers(coders, chains=("delta,rle0,quars",), n=300):
    series = tscodec.generate(tscodec.SynthSpec(case="sine_noise", n=n, seed=1))
    return [
        workloads.Container(f"s/{chain}/{coder}", (series,), tscodec.TransformChain.parse(chain), coder)
        for chain in chains
        for coder in coders
    ]


def test_self_times_subtract_the_union_of_children():
    spans = [
        Span(0, None, 1, "op", 0.0, 10.0),
        Span(1, 0, 1, "a", 1.0, 4.0),
        Span(2, 1, 1, "b", 2.0, 3.0),  # grandchild: counts against a, not op
        Span(3, 0, 1, "c", 5.0, 7.0),
        Span(4, 0, 1, "c", 6.0, 8.0),  # overlaps its sibling
        Span(5, None, 2, "op", 20.0, 21.0),
    ]
    got = tracing.self_times(spans)
    assert got == pytest.approx({"op": 10.0 - 3.0 - 3.0 + 1.0, "a": 2.0, "b": 1.0, "c": 4.0})
    assert sum(got.values()) == pytest.approx(11.0 + 1.0)  # root time, plus the overlap counted twice


def test_coverage_drops_when_op_time_goes_untraced():
    def selfs(*children):
        spans = [Span(0, None, 1, "container.read", 0.0, 10.0)]
        spans += [Span(i, 0, 1, name, lo, hi) for i, (name, lo, hi) in enumerate(children, 1)]
        return [tracing.self_times(spans)]

    assert bench.coverage(selfs(("coders.drh.decode", 0.0, 10.0)), 10.0) == pytest.approx(1.0)
    # 4 s between the two layers are left to the container's own span.
    gap = selfs(("coders.drh.decode", 0.0, 3.0), ("transforms.delta.decode", 7.0, 10.0))
    assert bench.coverage(gap, 10.0) == pytest.approx(0.6)


def test_covered_clips_to_the_parent():
    assert tracing.covered([(-1.0, 1.0), (0.5, 2.0), (3.0, 9.0)], 0.0, 4.0) == pytest.approx(3.0)
    assert tracing.covered([], 0.0, 4.0) == 0.0


def test_failing_coder_is_counted_and_the_pass_goes_on(monkeypatch):
    registry = tscodec.coders.registry

    def boom(tokens):
        raise ZeroDivisionError("injected")

    def wrong(header, payload, count):
        return np.zeros(count, dtype=np.int64)

    monkeypatch.setitem(registry.CODERS, "bitpack", dataclasses.replace(registry.CODERS["bitpack"], encode=boom))
    huffman = dataclasses.replace(registry.CODERS["huffman"], decode=wrong)
    monkeypatch.setitem(registry.CODERS, "huffman", huffman)
    monkeypatch.setitem(registry.CODER_BY_ID, huffman.id_byte, huffman)

    log = io.StringIO()
    runner = bench.Runner(tscodec, "unit", log=log)
    p = runner.run_pass(_containers(("bitpack", "huffman", "drh", "deflate")))

    assert runner.attempted == 7  # bitpack never reaches decode
    assert runner.failed == 2
    assert p.decoded_bytes == 3 * 600
    lines = log.getvalue().splitlines()
    assert any("coder=bitpack" in line and "encode" in line and "ZeroDivisionError" in line for line in lines)
    assert any("coder=huffman" in line and "channel=0 check: samples differ" in line for line in lines)


def test_mismatch_names_channel_count_and_ids():
    a = tscodec.TimeSeries(np.arange(5), channel_id=0)
    b = tscodec.TimeSeries(np.arange(5), channel_id=1)
    assert bench.mismatch([a, b], [a, b]) is None
    assert bench.mismatch([a, b], [a])[0] == "all"
    assert bench.mismatch([a], [b]) == (0, "channel id 1")


@pytest.mark.parametrize("name", list(workloads.BUILDERS))
def test_a_seed_generates_byte_identical_inputs(name, tmp_path):
    build = workloads.BUILDERS[name]
    kwargs = {"rows": 200} if name == "wide-bitpack" else {}

    def snapshot(seed):
        inputs = build(tscodec, seed, tmp_path, **kwargs)
        return [(c.label, c.coder, c.chain.label(), [ch.samples.tobytes() for ch in c.channels])
                for c in inputs.containers]

    first = snapshot(5)
    assert first == snapshot(5)
    assert first != snapshot(6)
    assert list(tmp_path.iterdir()) == []  # the CSV is removed after ingest


def test_compare_digests_counts_changed_missing_and_extra():
    golden = {"a": "1", "b": "2", "c": "3"}
    assert bench.compare_digests(dict(golden), golden) == 0
    assert bench.compare_digests({"a": "1", "b": "x", "c": "3"}, golden) == 1
    assert bench.compare_digests({"a": "1", "d": "4"}, golden) == 3


def test_tracer_records_layers_and_removes_its_wrappers():
    containers = _containers(("bitpack", "lzss", "deflate"), chains=("delta,rle0,quars", "none"))
    runner = bench.Runner(tscodec, "unit", log=io.StringIO())
    untraced = [runner.run_pass(containers)]
    traced, tracer = runner.measure_traced(containers, seconds=0.0)
    assert tracing.installed_wrappers(tscodec) == []
    assert runner.failed == 0

    names = {s.name for s in tracer.spans}
    assert {"container.build", "container.read", "transforms.quars.encode", "transforms.quars.map_from_bytes",
            "coders.bitpack.decode", "coders.lzss.encode", "backends.serialize",
            "backends.deflate.compress"} <= names
    layers = bench.per_layer(tracer, traced, untraced, [{"synth.generate": 1.0}], 0)
    assert list(layers) == list(bench.PER_LAYER)
    assert layers["container.ops"] == 12
    assert layers["coders.bitpack.tokens"] > 0
    assert layers["coders.lzss.payload_bytes"] > 0
    assert layers["synth.generate_s"] == 1.0
    # 6 containers, one channel each: magic..channel count (9 + stages) plus 21 per channel.
    assert layers["container.framing_bytes"] == 3 * (12 + 21) + 3 * (9 + 21)
    assert 0.0 < layers["trace.coverage"] < 1.0


def test_untraced_pass_refuses_to_run_with_wrappers_installed():
    tracer = tracing.Tracer()
    tracer.install(tscodec)
    try:
        assert "coders.huffman.encode" in tracing.installed_wrappers(tscodec)
        with pytest.raises(RuntimeError, match="wrappers left installed"):
            bench.Runner(tscodec, "unit").run_pass(_containers(("huffman",)))
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers(tscodec) == []


def test_tracer_spans_nest_under_their_op():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert tracer.op("op", outer, 1) == 4
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent == by_name["op"].id
    assert by_name["op"].parent is None
    assert {s.op for s in tracer.spans} == {1}


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


def test_golden_digests_cover_every_container(tmp_path):
    golden = bench.load_golden()
    assert set(golden) == set(workloads.BUILDERS)
    labels = [c.label for c in workloads.short_matrix(tscodec, bench.GOLDEN_SEED, tmp_path).containers]
    assert sorted(labels) == sorted(golden["short-matrix"])


def test_every_layer_metric_has_a_prediction():
    from fnmatch import fnmatch

    predictions = json.loads((Path(__file__).with_name("predictions.json")).read_text())
    for entry in predictions:
        assert set(entry["workloads"]) <= set(workloads.BUILDERS)
    for name in bench.PER_LAYER:
        assert any(fnmatch(name, pattern) for entry in predictions for pattern in entry["metrics"]), name


def test_probe_scales_by_the_kernel_times_around_each_operation(monkeypatch):
    samples = iter([0.002, 0.004, 0.001, 0.001])
    monkeypatch.setattr(speed.Probe, "sample", lambda self, budget: next(samples))
    monkeypatch.setattr(speed, "NOMINAL_S", 0.001)
    probe = speed.Probe()
    assert probe.scale(3.0) == pytest.approx(1.0)  # machine ran 3x slower than nominal
    assert probe.scale(2.0) == pytest.approx(2.0 / 2.5)
    probe.restart()
    assert probe.factors == pytest.approx([3.0, 2.5])
