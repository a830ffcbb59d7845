"""Regenerate golden.json: digests of the first ops of every workload.

    python3 perfbench/golden.py

Digests cover the simulated outputs for the default seed: ciphertexts,
sweep counts, round and analog trace records, and energy reports.  A
speed-up must leave them unchanged, so rerun this only for a deliberate,
documented change of those outputs.
"""

from __future__ import annotations

import json

import bootstrap


def main() -> None:
    bootstrap.prepare()
    import workloads

    bootstrap.check_imported(workloads.memgift)
    digests = {}
    for name in workloads.WORKLOADS:
        w = workloads.make(name, workloads.DEFAULT_SEED)
        w.setup()
        digests[name] = []
        for i in range(workloads.GOLDEN_OPS):
            inp = w.next_input(i)
            out = w.reduce(i, inp, w.op(i, inp))
            if not all(w.check(i, [out])):
                raise SystemExit(f"{name} op {i} fails its own checks; not writing digests")
            digests[name].append(workloads.digest(out))
        print(f"{name}: {len(digests[name])} digests")
    golden = {"seed": workloads.DEFAULT_SEED, "ops": workloads.GOLDEN_OPS, "digests": digests}
    with open(bootstrap.BENCH_DIR / "golden.json", "w") as fp:
        json.dump(golden, fp, indent=1)
        fp.write("\n")


if __name__ == "__main__":
    main()
