"""Lossless integer time-series compression toolkit.

Two-stage pipelines: invertible compression-aiding transforms (delta,
zero-run RLE, quantile reshuffling) feeding pluggable entropy coders
(Exp-Golomb, bit packing, canonical Huffman, a static magnitude code, an
order-0 range coder, LZSS) or external backends behind a uniform adapter.
A benchmark harness runs chain x coder matrices with verified round trips
and emits ablation and score/speed reports.
"""

from .version import __version__
from .core import (
    SeriesStats,
    SizeReport,
    TimeSeries,
    aad,
    cardinality,
    compression_speed_mb_s,
    entropy_and_limit,
    entropy_bits,
    size_metrics,
)
from .transforms import (
    QuarsMap,
    TransformChain,
    chain_apply,
    chain_invert,
    delta_decode,
    delta_encode,
    quars_decode,
    quars_encode,
    rle0_decode,
    rle0_encode,
    unzigzag,
    zigzag,
)
from .backends import (
    BackendDescriptor,
    availability_report,
    backend_compress,
    backend_decompress,
    deserialize_series,
    serialize_series,
)
from .container import build_container, read_container
from .ingest import Dataset, load_csv, quantize_column
from .synth import SynthSpec, generate, suite
from .harness import (
    AblationRow,
    BenchRecord,
    Unavailable,
    ablation_rows,
    emit_report,
    run_job,
    run_matrix,
)

__all__ = [
    "__version__",
    "AblationRow",
    "BackendDescriptor",
    "BenchRecord",
    "Dataset",
    "QuarsMap",
    "SeriesStats",
    "SizeReport",
    "SynthSpec",
    "TimeSeries",
    "TransformChain",
    "Unavailable",
    "aad",
    "ablation_rows",
    "availability_report",
    "backend_compress",
    "backend_decompress",
    "build_container",
    "cardinality",
    "chain_apply",
    "chain_invert",
    "compression_speed_mb_s",
    "delta_decode",
    "delta_encode",
    "deserialize_series",
    "emit_report",
    "entropy_and_limit",
    "entropy_bits",
    "generate",
    "load_csv",
    "quantize_column",
    "quars_decode",
    "quars_encode",
    "read_container",
    "rle0_decode",
    "rle0_encode",
    "run_job",
    "run_matrix",
    "serialize_series",
    "size_metrics",
    "suite",
    "unzigzag",
    "zigzag",
]
