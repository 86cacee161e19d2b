"""Same bytes: the seed-0 benchmark containers match their golden digests.

The containers are the long-entropy and short-matrix workloads of
``perfbench/workloads.py``, built with ``build_container`` as the benchmark
builds them; ``perfbench/golden_seed0.json`` holds their sha256 digests.
Both perfbench files are only read here.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

import tscodec
from tscodec.container import build_container

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.workloads import BUILDERS  # noqa: E402

GOLDEN = json.loads((ROOT / "perfbench" / "golden_seed0.json").read_text())


@pytest.mark.parametrize("workload", ["long-entropy", "short-matrix"])
def test_seed0_containers_match_golden_digests(workload, tmp_path):
    containers = BUILDERS[workload](tscodec, 0, tmp_path).containers
    digests = {
        c.label: hashlib.sha256(build_container(list(c.channels), c.chain, c.coder)).hexdigest()
        for c in containers
    }
    changed = sorted(label for label in digests.keys() | GOLDEN[workload].keys()
                     if digests.get(label) != GOLDEN[workload].get(label))
    assert not changed, f"{len(changed)} containers changed, e.g. {changed[:3]}"
