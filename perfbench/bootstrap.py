"""Process set-up shared by the benchmark's entry points.

Call ``prepare()`` before anything imports numpy: it pins the numpy/BLAS
thread pools to one thread and puts the checkout's ``src/`` first on
``sys.path``, so the benchmark always measures the source tree it ships
with and never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class SourceMissing(RuntimeError):
    """The checkout holds no memgift sources to benchmark."""


def prepare() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "memgift" / "__init__.py").is_file():
        raise SourceMissing(f"no memgift package under {SRC}")
    sys.path.insert(0, str(SRC))


def check_imported(module) -> None:
    """Refuse to benchmark a memgift that was not loaded from ``src/``."""
    origin = Path(module.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SourceMissing(f"memgift was imported from {origin}, not from {SRC}")
