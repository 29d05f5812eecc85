"""Golden sha256 digests of outputs that must stay byte-identical.

``golden_digests.json`` holds each digest with the numpy version and BLAS
build that made it.  They hold at 1 BLAS thread, which conftest sets.  A
change that alters output bits on purpose writes the new digests into the
file and says why.
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")


def blas_build() -> str:
    """Name and version of the BLAS numpy was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 prints, returns nothing
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def assert_golden(name: str, digest: str) -> None:
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    want = golden["digests"][name]
    assert digest == want, (
        f"{name}: sha256 {digest}, golden {want}. The golden digests were "
        f"made with numpy {golden['numpy']}, BLAS {golden['blas']}, 1 BLAS "
        f"thread; this run has numpy {np.__version__}, BLAS {blas_build()}, "
        f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}. "
        "If those match, the program changed an output bit.")
