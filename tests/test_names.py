"""The names code outside the package depends on: the package's public
names, and every attribute the benchmark's timing shims patch."""

import importlib.util
from pathlib import Path

import memgift

SHIMS = Path(__file__).parent.parent / "perfbench" / "shims.py"


def test_public_names_resolve():
    missing = [name for name in memgift.__all__ if not hasattr(memgift, name)]
    assert missing == []


def test_benchmark_boundaries_are_defined_where_they_are_patched():
    # the shims replace owner.__dict__[attr]; a merge that drops one of these
    # names breaks the traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_shims", SHIMS)
    shims = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shims)
    missing = [
        (boundary, getattr(owner, "__name__", owner), attr)
        for boundary, targets in shims.BOUNDARIES.items()
        for owner, attr in targets
        if attr not in owner.__dict__
    ]
    assert shims.BOUNDARIES and missing == []
