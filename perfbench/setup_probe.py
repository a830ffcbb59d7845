"""Print one workload's set-up time in a fresh process.

    python3 perfbench/setup_probe.py --workload stream --seed 0

Set-up runs from before ``import memgift`` to where the first timed op
would start: imports, warm-up, and for ``stream``/``trace`` building and
programming the session.  run.py starts several of these and reports the
median of the times rescaled to the reference speed (speed.py) as
``setup_s``.  Prints ``[raw seconds, rescaled seconds]``.
"""

from __future__ import annotations

import argparse
import json
import time

import bootstrap
import speed


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args()
    bootstrap.prepare()
    start = time.perf_counter()
    import workloads

    bootstrap.check_imported(workloads.memgift)
    workloads.make(args.workload, args.seed).setup()
    raw = time.perf_counter() - start
    print(json.dumps([raw, speed.rescaled_setup(raw)]))


if __name__ == "__main__":
    main()
