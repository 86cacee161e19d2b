"""Same bytes: the seed-0 benchmark containers match their golden digests
and decode back to their inputs.

The containers are the workloads of ``perfbench/workloads.py``, built with
``build_container`` as the benchmark builds them;
``perfbench/golden_seed0.json`` holds their sha256 digests. Both perfbench
files are only read here.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import tscodec
from tscodec.container import build_container, read_container

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.workloads import BUILDERS  # noqa: E402

GOLDEN = json.loads((ROOT / "perfbench" / "golden_seed0.json").read_text())


@pytest.mark.parametrize("workload", ["long-entropy", "short-matrix", "wide-bitpack"])
def test_seed0_containers_match_golden_digests(workload, tmp_path):
    containers = BUILDERS[workload](tscodec, 0, tmp_path).containers
    blobs = {c.label: build_container(list(c.channels), c.chain, c.coder) for c in containers}
    digests = {label: hashlib.sha256(blob).hexdigest() for label, blob in blobs.items()}
    changed = sorted(label for label in digests.keys() | GOLDEN[workload].keys()
                     if digests.get(label) != GOLDEN[workload].get(label))
    assert not changed, f"{len(changed)} containers changed, e.g. {changed[:3]}"
    for c in containers:
        decoded = read_container(blobs[c.label])
        assert decoded.chain == c.chain and decoded.coder_name == c.coder, c.label
        assert len(decoded.channels) == len(c.channels), c.label
        for got, want in zip(decoded.channels, c.channels):
            assert np.array_equal(got.samples, want.samples), c.label
