"""Machine-speed calibration for host times.

The benchmark runs on shared machines whose cores slow down by up to ~1.7x
for seconds at a time when neighbours load them.  Raw host times then vary
more between runs than any regression bound allows.  So the runner
interleaves a fixed calibration probe with the ops and multiplies each op
time by REFERENCE_S over the mean of the probes before and after it: the
result is host time at a reference machine speed, at which the probe
takes REFERENCE_S (about its time on an unloaded 2-vCPU Intel Xeon VM).  The probe runs no memgift code,
so a change to the library moves the rescaled times exactly as it moves
the raw ones.  Raw times are kept in the run record.
"""

from __future__ import annotations

import json
from time import perf_counter

REFERENCE_S = 4.0e-4

# The runner probes before an op once this much loop time has passed since
# the last probe, so every op longer than this sits between two probes.
INTERVAL_S = 0.05


def _work(np, values, table, rows) -> int:
    """Fixed work in the three kinds the library's ops are made of:
    interpreter arithmetic, small numpy calls with fancy indexing, and
    building and serialising small dicts."""
    acc = 0
    for i in range(1500):
        acc += i * i
    for _ in range(20):
        picked = table[np.arange(32), rows]
        acc += int(np.where(1.0 / (1.0 / picked + 1.0) > 0.5, 1, 0).sum())
        acc += int((values * 1.5 + 2.0).sum()) & 1
    for i in range(20):
        record = {"slice": i, "nodes": {"a": i * 0.5, "b": i / 3.0}, "bits": [i, i + 1]}
        acc += len(json.dumps(record)) + len(sorted(range(40), reverse=True))
    return acc


def probe() -> float:
    """Seconds for the fixed probe work; the faster of two tries, so an
    interrupt during one try does not count."""
    import numpy as np

    values = np.arange(64, dtype=np.float64)
    table = np.linspace(0.1, 2.0, 32 * 16).reshape(32, 16)
    rows = np.arange(32) % 16
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        _work(np, values, table, rows)
        best = min(best, perf_counter() - start)
    return best


def factor(before: float, after: float) -> float:
    """Rescaling for the ops between two probes."""
    return 2.0 * REFERENCE_S / (before + after)


def rescaled_setup(seconds: float) -> float:
    """Set-up time at the reference speed, from probes right after it."""
    return seconds * REFERENCE_S / probe()
