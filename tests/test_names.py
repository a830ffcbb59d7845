"""The names code outside the package depends on: the package's public
names, every attribute the benchmark's timing shims patch, and the modules
the reference cipher may import."""

import ast
import importlib.util
from pathlib import Path

import memgift

ROOT = Path(__file__).parent.parent
SHIMS = ROOT / "perfbench" / "shims.py"
GIFT = ROOT / "src" / "memgift" / "gift.py"


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


def test_reference_cipher_imports_only_the_errors_module():
    # the reference cipher is the oracle of every crossbar read, so it must
    # not reach the crossbar code, at module level or inside a function
    nodes = list(ast.walk(ast.parse(GIFT.read_text())))
    imported = ["." * n.level + (n.module or "") for n in nodes if isinstance(n, ast.ImportFrom)]
    imported += [alias.name for n in nodes if isinstance(n, ast.Import) for alias in n.names]
    assert [name for name in imported if name.startswith((".", "memgift"))] == [".errors"]
