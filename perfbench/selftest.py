"""Self-test of the benchmark and its checker.

    python3 perfbench/selftest.py

For each workload: a tiny untraced run must pass every check (including
the golden digests of the default seed); a tiny run on another seed, which
has no digests, whose outputs are deliberately corrupted must report
fail_ratio > 0; a default-seed run against altered digests must fail every
op; and a tiny traced run must report every per-layer metric of
BENCHMARK.json with the predicted zero call counts.  Exits 1 on the first
failed expectation.
"""

from __future__ import annotations

import sys

import bootstrap

TINY_OPS = {"stream": 8, "rekey": 8, "sweep": 2, "trace": 2}
SECONDS = 120.0  # the op count, not the clock, ends these runs


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        sys.exit(1)


def main() -> None:
    bootstrap.prepare()
    import run
    import workloads

    per_layer = set(run.declared_metrics(1))
    end_to_end = set(run.declared_metrics(0))
    for name, ops in TINY_OPS.items():
        seed = workloads.DEFAULT_SEED
        clean = run.measure(name, seed, SECONDS, 0, max_ops=ops, probe_setup=False)
        expect(clean["attempted"] == ops and clean["failed"] == 0,
               f"{name}: {ops} clean ops pass their checks and digests")
        expect(set(clean["metrics"]) == end_to_end, f"{name}: reports every end-to-end metric")

        bad = run.measure(name, seed + 1, SECONDS, 0, max_ops=ops, corrupt=True,
                          probe_setup=False)
        ratio = bad["extra"]["fail_ratio"]["value"]
        expect(ratio > 0, f"{name}: corrupted outputs give fail_ratio {ratio:.3g}")

        load_golden = run.load_golden
        run.load_golden = lambda w: [d[::-1] for d in load_golden(w)]
        try:
            tampered = run.measure(name, seed, SECONDS, 0, max_ops=ops, probe_setup=False)
        finally:
            run.load_golden = load_golden
        expect(tampered["failed"] == ops, f"{name}: altered digests fail every op")

        traced = run.measure(name, seed + 1, SECONDS, 1, max_ops=ops)
        m = traced["metrics"]
        expect(traced["failed"] == 0 and set(m) == per_layer,
               f"{name}: traced run passes and reports every per-layer metric")
        if name in ("stream", "rekey"):
            expect(m["crossbar.draw_read_factors.calls"] == 0, f"{name}: no draw_read_factors calls")
        if name != "trace":
            expect(m["crossbar.read_round.calls"] == 0, f"{name}: no read_round calls")
        else:
            expect(m["crossbar.read_round.calls"] > 0, f"{name}: read_round is traced")


if __name__ == "__main__":
    main()
