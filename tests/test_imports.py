"""Each module imports cleanly as the first tscodec module a process loads.

``transforms`` reads the QuaRs map through ``symtable``, and the coder
registry imports ``transforms``; ``container`` and ``cli`` both take
``takes_level`` from ``backends``. A module that imports in a full test run
can still fail alone when such an import closes a cycle.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tscodec

SRC = str(Path(tscodec.__file__).resolve().parent.parent)


@pytest.mark.parametrize(
    "module",
    [
        "tscodec.symtable",
        "tscodec.transforms",
        "tscodec.coders.registry",
        "tscodec.backends",
        "tscodec.container",
        "tscodec.cli",
    ],
)
def test_module_imports_first(module):
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
