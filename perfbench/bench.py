"""Run one workload: timed set-up, measured passes, checks and metrics.

An untraced run gives the end-to-end metrics. A traced run (``--trace 1``)
first measures untraced passes, then installs the layer wrappers of
``tracing`` and measures traced passes; it reports the per-layer metrics
and the tracing overhead. The program is driven only through
``build_container`` and ``read_container``; every decoded container is
compared with its input outside the timed region. Throughputs and set-up
time are scaled to a nominal machine speed by ``speed.Probe``; the figures
as measured are printed next to them.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import speed, tracing
from .workloads import BUILDERS, Container

SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 2.0  # cheap set-ups repeat until this long, for a steadier median
OUT_DIR = ".perfbench_out"
GOLDEN = Path(__file__).with_name("golden_seed0.json")
GOLDEN_SEED = 0

CODERS = ("expgolomb", "bitpack", "huffman", "drh", "range", "lzss")
BACKENDS = ("deflate", "bzip2", "lzma")

ROOT_SPANS = ("container.build", "container.read")  # the span of each operation

END_TO_END = {
    "encode_mb_s": "MB/s",
    "decode_mb_s": "MB/s",
    "cr": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _layer_units() -> dict[str, str]:
    units = {"synth.generate_s": "s", "ingest.load_csv_s": "s"}
    for stage in ("delta", "rle0", "quars"):
        units[f"transforms.{stage}.encode_s"] = "s"
        units[f"transforms.{stage}.decode_s"] = "s"
    units["transforms.quars.map_to_bytes_s"] = "s"
    units["transforms.quars.map_from_bytes_s"] = "s"
    units["transforms.tokens_out"] = "count"
    units["transforms.side_bytes"] = "bytes"
    for coder in CODERS:
        units[f"coders.{coder}.encode_s"] = "s"
        units[f"coders.{coder}.decode_s"] = "s"
        units[f"coders.{coder}.tokens"] = "count"
        units[f"coders.{coder}.header_bytes"] = "bytes"
        units[f"coders.{coder}.payload_bytes"] = "bytes"
    units["backends.serialize_s"] = "s"
    units["backends.deserialize_s"] = "s"
    for backend in BACKENDS:
        units[f"backends.{backend}.compress_s"] = "s"
        units[f"backends.{backend}.decompress_s"] = "s"
        units[f"backends.{backend}.payload_bytes"] = "bytes"
    units.update({
        "container.build_self_s": "s",
        "container.read_self_s": "s",
        "container.framing_bytes": "bytes",
        "container.ops": "count",
        "container.digests_changed": "count",
        "trace.coverage": "ratio",
        "trace.overhead": "ratio",
    })
    return units


PER_LAYER = _layer_units()


# -- set-up ------------------------------------------------------------------


def import_tscodec(root: Path):
    """Import tscodec afresh from ``root/src``, so that import time is measured."""
    for name in [m for m in sys.modules if m == "tscodec" or m.startswith("tscodec.")]:
        del sys.modules[name]
    tscodec = importlib.import_module("tscodec")
    src = (root / "src").resolve()
    if src not in Path(tscodec.__file__).resolve().parents:
        raise RuntimeError(f"tscodec imported from {tscodec.__file__}, not from {src}")
    return tscodec


def setup(root: Path, workload: str, seed: int, workdir: Path):
    """Import and build the inputs repeatedly; keep the last set.

    Returns the module, the inputs, the set-up times as measured and scaled
    to nominal machine speed, and each set-up's per-layer timings.
    """
    probe = speed.Probe()
    raw, scaled, timings = [], [], []
    start = time.perf_counter()
    while len(raw) < SETUP_MIN_REPEATS or time.perf_counter() - start < SETUP_MIN_S:
        t0 = time.perf_counter()
        tscodec = import_tscodec(root)
        inputs = BUILDERS[workload](tscodec, seed, workdir)
        raw.append(time.perf_counter() - t0)
        scaled.append(probe.scale(raw[-1]))
        timings.append(inputs.timings)
    return tscodec, inputs, raw, scaled, timings


# -- operations and passes ---------------------------------------------------


@dataclass
class Pass:
    encode_s: float = 0.0  # as measured
    decode_s: float = 0.0
    encode_ref_s: float = 0.0  # scaled to the probe's nominal machine speed
    decode_ref_s: float = 0.0
    encoded_bytes: int = 0  # source bytes of containers that encoded
    decoded_bytes: int = 0  # source bytes of containers that decoded
    container_bytes: int = 0

    @property
    def wall_s(self) -> float:
        return self.encode_s + self.decode_s

    @property
    def ref_s(self) -> float:
        return self.encode_ref_s + self.decode_ref_s


class Runner:
    """Encodes, decodes and checks containers, counting every failure."""

    def __init__(self, tscodec, workload: str, log=sys.stderr):
        self.tscodec = tscodec
        self.workload = workload
        self.log = log
        self.tracer: tracing.Tracer | None = None
        self.probe = speed.Probe()
        self.attempted = 0
        self.failed = 0

    def _fail(self, c: Container, step: str, channel, reason: str) -> None:
        self.failed += 1
        print(
            f"FAIL workload={self.workload} container={c.label} chain={c.chain.label()} "
            f"coder={c.coder} channel={channel} {step}: {reason}",
            file=self.log,
        )

    def _timed(self, name: str, fn, *args):
        self.attempted += 1
        t0 = time.perf_counter()
        if self.tracer is None:
            result = fn(*args)
        else:
            self.tracer.counts["container.ops"] += 1
            result = self.tracer.op(name, fn, *args)
        return result, time.perf_counter() - t0

    def encode(self, c: Container):
        """Return (container bytes, seconds), or (None, 0.0) on failure."""
        try:
            return self._timed("container.build", self.tscodec.container.build_container,
                               list(c.channels), c.chain, c.coder)
        except Exception as exc:
            self._fail(c, "encode", "all", repr(exc))
            return None, 0.0

    def decode(self, c: Container, blob: bytes) -> float | None:
        """Decode and compare; return seconds, or None if it raised."""
        try:
            out, seconds = self._timed("container.read", self.tscodec.container.read_container, blob)
        except Exception as exc:
            self._fail(c, "decode", "all", repr(exc))
            return None
        problem = mismatch(c.channels, out.channels)
        if problem:
            self._fail(c, "check", *problem)
        return seconds

    def run_pass(self, containers: list[Container]) -> Pass:
        if self.tracer is None:
            leftover = tracing.installed_wrappers(self.tscodec)
            if leftover:
                raise RuntimeError(f"trace wrappers left installed: {leftover}")
        gc.collect()
        self.probe.restart()
        p = Pass()
        for c in containers:
            blob, seconds = self.encode(c)
            if blob is None:
                continue
            p.encode_s += seconds
            p.encode_ref_s += self.probe.scale(seconds)
            p.encoded_bytes += c.source_bytes
            p.container_bytes += len(blob)
            if self.tracer is not None:
                self.tracer.counts["container.bytes"] += len(blob)
            seconds = self.decode(c, blob)
            if seconds is not None:
                p.decode_s += seconds
                p.decode_ref_s += self.probe.scale(seconds)
                p.decoded_bytes += c.source_bytes
        if self.tracer is not None:
            self.tracer.end_pass()
        return p

    def measure(self, containers: list[Container], seconds: float) -> list[Pass]:
        """Whole passes until ``seconds`` have elapsed (at least one)."""
        passes = []
        t0 = time.perf_counter()
        while not passes or time.perf_counter() - t0 < seconds:
            passes.append(self.run_pass(containers))
        return passes

    def measure_traced(self, containers: list[Container], seconds: float) -> tuple[list[Pass], tracing.Tracer]:
        tracer = tracing.Tracer()
        tracer.install(self.tscodec)
        self.tracer = tracer
        try:
            passes = self.measure(containers, seconds)
        finally:
            self.tracer = None
            tracer.uninstall()
        leftover = tracing.installed_wrappers(self.tscodec)
        if leftover:
            raise RuntimeError(f"trace wrappers not removed: {leftover}")
        return passes, tracer

    def digests(self, containers: list[Container]) -> dict[str, str]:
        out = {}
        for c in containers:
            blob, _ = self.encode(c)
            if blob is not None:
                out[c.label] = hashlib.sha256(blob).hexdigest()
        return out


def mismatch(expected, decoded) -> tuple | None:
    """(channel, reason) of the first difference, or None when identical."""
    if len(decoded) != len(expected):
        return "all", f"{len(decoded)} channels decoded, {len(expected)} encoded"
    for want, got in zip(expected, decoded):
        if got.channel_id != want.channel_id:
            return want.channel_id, f"channel id {got.channel_id}"
        if not np.array_equal(got.samples, want.samples):
            return want.channel_id, "samples differ"
    return None


def compare_digests(current: dict[str, str], golden: dict[str, str]) -> int:
    """Number of containers whose digest differs from, or is missing in, the golden set."""
    return sum(current.get(label) != golden.get(label) for label in current.keys() | golden.keys())


# -- metrics -----------------------------------------------------------------


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _rate(nbytes: int, seconds: float) -> float:
    return nbytes / 1e6 / seconds if seconds > 0 else 0.0


def end_to_end(passes: list[Pass], setup_totals: list[float]) -> dict[str, tuple]:
    """name -> (value, q1, q3, samples)."""
    enc = [_rate(p.encoded_bytes, p.encode_ref_s) for p in passes]
    dec = [_rate(p.decoded_bytes, p.decode_ref_s) for p in passes]
    last = passes[-1]
    out = {}
    for name, values in (("encode_mb_s", enc), ("decode_mb_s", dec), ("setup_s", setup_totals)):
        q1, med, q3 = _quartiles(values)
        out[name] = (med, q1, q3, len(values))
    cr = last.encoded_bytes / last.container_bytes if last.container_bytes else 0.0
    out["cr"] = (cr, cr, cr, len(passes))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    out["peak_rss_mb"] = (rss, rss, rss, 1)
    return out


def coverage(selfs: list[dict[str, float]], op_wall_s: float) -> float:
    """Share of op wall time that the named layers account for.

    The root spans' own self time is left out: it holds whatever no layer
    wrapper caught, so untraced work lowers the value.
    """
    named = sum(t for pass_selfs in selfs for name, t in pass_selfs.items() if name not in ROOT_SPANS)
    return named / op_wall_s


def per_layer(
    tracer: tracing.Tracer,
    traced: list[Pass],
    untraced: list[Pass],
    setup_timings: list[dict],
    digests_changed: int,
) -> dict[str, float]:
    rows = []
    for selfs, counts in tracer.passes:
        row = {f"{name}_s": seconds for name, seconds in selfs.items()}
        row["container.build_self_s"] = row.pop("container.build_s", 0.0)
        row["container.read_self_s"] = row.pop("container.read_s", 0.0)
        row.update(counts)
        coded = counts.get("transforms.side_bytes", 0) + sum(
            v for k, v in counts.items()
            if k.endswith(("header_bytes", "payload_bytes"))
        )
        row["container.framing_bytes"] = counts.get("container.bytes", 0) - coded
        rows.append(row)
    out = {}
    for name in PER_LAYER:
        if name.startswith(("synth.", "ingest.")):
            out[name] = statistics.median(t.get(name[:-2], 0.0) for t in setup_timings)
        else:
            out[name] = statistics.median(row.get(name, 0) for row in rows)
    out["container.digests_changed"] = digests_changed
    out["trace.coverage"] = coverage([selfs for selfs, _ in tracer.passes], sum(p.wall_s for p in traced))
    out["trace.overhead"] = statistics.median(p.ref_s for p in traced) / statistics.median(
        p.ref_s for p in untraced
    )
    return out


# -- provenance ----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "n/a (not a git checkout)"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() if done.returncode == 0 else "n/a"


def provenance(root: Path, tscodec, threads: dict[str, str]) -> dict:
    return {
        "git_commit": _git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "tscodec": tscodec.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "backends": {k: "ok" if v else "n/a" for k, v in tscodec.availability_report().items()},
        "threads": threads,
    }


# -- running -----------------------------------------------------------------


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int


def load_golden() -> dict[str, dict[str, str]]:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool,
                 outdir: Path, threads: dict[str, str]) -> Result:
    tscodec, inputs, setup_raw, setup_totals, setup_timings = setup(root, workload, seed, outdir)
    meta = provenance(root, tscodec, threads) | {"workload": workload, "seed": seed, "trace": trace}
    print("meta " + json.dumps(meta, sort_keys=True))
    runner = Runner(tscodec, workload)
    containers = inputs.containers
    runner.run_pass(containers)  # warm-up: checked and counted, not timed

    untraced = runner.measure(containers, seconds / 2 if trace else seconds)
    e2e = end_to_end(untraced, setup_totals)
    for name, (value, q1, q3, n) in e2e.items():
        print(f"[{workload}] {name} = {value:.6g} {END_TO_END[name]} (q1 {q1:.6g}, q3 {q3:.6g}, n {n})")
    raw_enc = statistics.median(_rate(p.encoded_bytes, p.encode_s) for p in untraced)
    raw_dec = statistics.median(_rate(p.decoded_bytes, p.decode_s) for p in untraced)
    q1, slowdown, q3 = _quartiles(runner.probe.factors)
    print(f"[{workload}] MB/s and setup_s are at nominal machine speed; as measured: encode {raw_enc:.6g} MB/s, "
          f"decode {raw_dec:.6g} MB/s, setup {statistics.median(setup_raw):.6g} s; "
          f"machine slowdown vs nominal {slowdown:.3g} (q1 {q1:.3g}, q3 {q3:.3g})")
    metrics = {name: (e2e[name][0], unit) for name, unit in END_TO_END.items()}

    if trace:
        traced, tracer = runner.measure_traced(containers, seconds / 2)
        if seed != GOLDEN_SEED:
            containers = BUILDERS[workload](tscodec, GOLDEN_SEED, outdir).containers
        changed = compare_digests(runner.digests(containers), load_golden().get(workload, {}))
        layers = per_layer(tracer, traced, untraced, setup_timings, changed)
        print(f"[{workload}] per-layer values: medians of {len(traced)} traced passes "
              f"(synth and ingest: of {len(setup_timings)} set-ups)")
        for name, value in layers.items():
            print(f"[{workload}] {name} = {value:.6g} {PER_LAYER[name]}")
        tracer.write(outdir / f"trace-{workload}-seed{seed}.jsonl", meta)
        metrics = {name: (value, PER_LAYER[name]) for name, value in layers.items()}
    error_rate = runner.failed / runner.attempted
    print(f"[{workload}] error_rate = {error_rate:.6g} ({runner.failed} of {runner.attempted} ops failed)")
    return Result(metrics, runner.attempted, runner.failed)


def write_golden(root: Path, outdir: Path) -> None:
    tscodec = import_tscodec(root)
    golden = {}
    for workload, build in BUILDERS.items():
        runner = Runner(tscodec, workload)
        golden[workload] = runner.digests(build(tscodec, GOLDEN_SEED, outdir).containers)
        if runner.failed:
            raise RuntimeError(f"{workload}: {runner.failed} containers failed to encode")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _result_line(metrics: dict, attempted: int, failed: int) -> str:
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics})


def run_all(root: Path, seed: int, seconds: float, trace: int) -> int:
    """Run every workload in a child process of its own, one after another.

    A workload's peak RSS is then its own, not the largest so far. Each
    child measures an equal share of ``seconds``; its output is passed
    through, and the result lines are merged with the metrics keyed
    ``<workload>/<metric>``.
    """
    metrics, attempted, failed = {}, 0, 0
    for name in BUILDERS:
        cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", name, "--seed", str(seed),
               "--seconds", repr(seconds / len(BUILDERS)), "--trace", str(trace)]
        with subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True) as child:
            lines = child.stdout.read().splitlines()
        for line in lines[:-1]:
            print(line)
        if child.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with code {child.returncode}", file=sys.stderr)
            return child.returncode or 1
        result = json.loads(lines[-1])
        metrics.update({f"{name}/{metric}": value for metric, value in result["metrics"].items()})
        attempted += result["attempted"]
        failed += result["failed"]
    print(_result_line(metrics, attempted, failed))
    return 0


def main(argv: list[str], root: Path, threads: dict[str, str]) -> int:
    run_seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*BUILDERS, "all"), default="all",
                        help="one workload, or all of them, each in a child process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="measured time of the whole run, shared among the workloads")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="record the seed-0 container digests and exit")
    args = parser.parse_args(argv)

    outdir = root / OUT_DIR
    outdir.mkdir(exist_ok=True)
    if args.write_golden:
        write_golden(root, outdir)
        return 0
    if args.workload == "all":
        return run_all(root, args.seed, args.seconds, args.trace)
    r = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace), outdir, threads)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in r.metrics.items()}
    print(_result_line(metrics, r.attempted, r.failed))
    return 0
