"""memgift benchmark runner.

    python3 perfbench/run.py --workload stream --seed 0 --seconds 20 --trace 0

Runs one workload as a closed loop with a single caller in this process:
the next op starts when the previous one returns.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it first times the ops
untraced for half the run, then installs the timing shims for the other
half and reports the per-layer metrics.  Every op's output is checked
(see workloads.py), and for the default seed compared with the committed
digests in golden.json.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Metric names and units come from the
checkout's BENCHMARK.json.  Exit code 2 means the checkout holds nothing
to benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array

import bootstrap
import speed

SETUP_PROBES = 8
TAIL_BEYOND = 10
TAIL_CHUNK = 100
CHECK_CHUNK = 256


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("stream", "rekey", "sweep", "trace"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail(times) -> tuple[float, float, int]:
    """Op time at the highest percentile with TAIL_BEYOND samples beyond it.

    It is taken per chunk of TAIL_CHUNK consecutive ops (p90) and the
    median over the run's chunks is reported: over a whole run it would sit
    at p99.9 on the fastest workload, where single stalls of a shared
    machine moved it by up to 40% between runs.  Returns the time, the
    percentile and the samples per chunk.
    """
    chunks = max(1, len(times) // TAIL_CHUNK)
    size = len(times) // chunks
    values = []
    for c in range(chunks):
        part = sorted(times[c * size:] if c == chunks - 1 else times[c * size:(c + 1) * size])
        # Fewer than TAIL_BEYOND + 1 samples: the largest stands in.
        values.append(part[-1 - TAIL_BEYOND] if len(part) > TAIL_BEYOND else part[-1])
    beyond = TAIL_BEYOND if size > TAIL_BEYOND else 0
    return statistics.median(values), 100.0 * (size - beyond) / size, size


class Judge:
    """Checks outputs a chunk at a time and keeps only the verdict counts.

    For the default seed each of the first ops must also match its digest
    in golden.json.
    """

    def __init__(self, w, golden: list):
        import workloads

        self.w = w
        self.golden = golden if w.seed == workloads.DEFAULT_SEED else []
        self.digest = workloads.digest
        self.attempted = self.failed = 0
        self.last_ok = True
        self.pending = []
        self.raised = 0

    def report_raise(self) -> None:
        """Count an op that raised; print only the first traceback."""
        if not self.raised:
            traceback.print_exc(file=sys.stderr)
        self.raised += 1

    def add(self, out) -> None:
        self.pending.append(out)
        if len(self.pending) >= CHECK_CHUNK:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        first = self.attempted
        oks = self.w.check(first, self.pending)
        for i, out in enumerate(self.pending, first):
            if i < len(self.golden) and (out is None or self.digest(out) != self.golden[i]):
                oks[i - first] = False
        self.attempted += len(oks)
        self.failed += oks.count(False)
        self.last_ok = oks[-1]
        self.pending = []

    def finish(self) -> dict:
        self.flush()
        ok, sim = self.w.finish()
        if not ok and self.last_ok and self.attempted:
            self.failed += 1  # run-level checks cover the last op
        return sim


def run_loop(w, judge: Judge, seconds: float, tracer=None, max_ops=None,
             corrupt=False) -> tuple[array, array]:
    """Closed loop for ``seconds`` (or ``max_ops``).

    Returns each op's raw host seconds and its factor to the reference
    speed (see speed.py); the probes run between ops, outside their times.
    """
    times, factors = array("d"), array("d")
    i = judge.attempted + len(judge.pending)
    segment, before = 0, speed.probe()
    last_probe = time.perf_counter()
    deadline = last_probe + seconds
    while time.perf_counter() < deadline and (max_ops is None or len(times) < max_ops):
        if time.perf_counter() - last_probe >= speed.INTERVAL_S:
            after = speed.probe()
            factors.extend([speed.factor(before, after)] * (len(times) - segment))
            segment, before = len(times), after
            last_probe = time.perf_counter()
        inp = w.next_input(i)
        if tracer is not None:
            tracer.begin_op(i)
        start = time.perf_counter()
        try:
            raw = w.op(i, inp)
        except Exception:
            raw = None
            judge.report_raise()
        times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.end_op()
        out = None
        if raw is not None:
            try:
                out = w.reduce(i, inp, raw)
                if corrupt:
                    w.corrupt(out)
            except Exception:
                judge.report_raise()
        judge.add(out)
        i += 1
    factors.extend([speed.factor(before, speed.probe())] * (len(times) - segment))
    return times, factors


def rescaled(times: array, factors: array) -> list[float]:
    return [t * f for t, f in zip(times, factors)]


def load_golden(name: str) -> list:
    with open(bootstrap.BENCH_DIR / "golden.json") as fp:
        return json.load(fp)["digests"][name]


def setup_probe_times(workload: str, seed: int) -> list[list[float]]:
    """[raw, rescaled] set-up seconds of fresh processes, each importing
    memgift anew."""
    probe = bootstrap.BENCH_DIR / "setup_probe.py"
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(probe), "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return times


def run_record(args, w, ops: int) -> dict:
    import numpy

    sources = sorted((bootstrap.SRC / "memgift").glob("*.py"))
    tree = hashlib.sha256(b"".join(p.name.encode() + p.read_bytes() for p in sources))
    return {
        "commit": git_commit(),
        "source_sha256": tree.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads_env": {v: os.environ.get(v) for v in bootstrap.THREAD_VARS},
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "op_definition": w.op_definition,
        "ops": ops,
        "loop": "closed, one caller, one thread",
    }


def git_commit() -> str:
    head = bootstrap.ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = bootstrap.ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (bootstrap.ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def declared_metrics(trace: int) -> dict:
    with open(bootstrap.ROOT / "BENCHMARK.json") as fp:
        spec = json.load(fp)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(workload: str, seed: int, seconds: float, trace: int, max_ops=None,
            corrupt=False, probe_setup=True, spans_path=None) -> dict:
    """One benchmark run: the result fields, the ``extra`` outputs reported
    beside the metrics, and the workload object."""
    t0 = time.perf_counter()
    import workloads  # set-up time starts before memgift and numpy load

    bootstrap.check_imported(workloads.memgift)
    w = workloads.make(workload, seed)
    w.setup()
    setup_raw = time.perf_counter() - t0
    setup = (setup_raw, speed.rescaled_setup(setup_raw))

    judge = Judge(w, load_golden(workload))
    times, factors = run_loop(w, judge, seconds / 2 if trace else seconds, max_ops=max_ops,
                              corrupt=corrupt)
    metrics = {}
    if trace:
        import shims

        tracer = shims.Tracer(w.sessions())
        tracer.install()
        try:
            traced, traced_factors = run_loop(w, judge, seconds / 2, tracer=tracer,
                                              max_ops=max_ops, corrupt=corrupt)
        finally:
            tracer.uninstall()
        metrics.update(tracer.metrics(len(traced), sum(traced)))
        metrics["trace_overhead"] = (statistics.median(rescaled(traced, traced_factors))
                                     / statistics.median(rescaled(times, factors)))
        if spans_path is not None:
            tracer.write_spans(spans_path)
        times += traced
        factors += traced_factors

    sim = judge.finish()
    if not trace:
        setups = [setup] + (setup_probe_times(workload, seed) if probe_setup else [])
        op_times = rescaled(times, factors)
        tail_s, tail_pct, tail_samples = tail(op_times)
        metrics.update({
            "ops_per_s": len(op_times) / sum(op_times),
            "op_p50_ms": statistics.median(op_times) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "setup_s": statistics.median(rescaled_s for _, rescaled_s in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
        sim["op_tail_ms"] = {"percentile": tail_pct, "samples": tail_samples,
                             "chunks": max(1, len(op_times) // TAIL_CHUNK)}
        sim["setup_s"] = {"samples": [rescaled_s for _, rescaled_s in setups]}
        raw_tail = tail(times)[0]
        sim["raw_host_time"] = {
            "ops_per_s": len(times) / sum(times),
            "op_p50_ms": statistics.median(times) * 1e3,
            "op_tail_ms": raw_tail * 1e3,
            "setup_s": statistics.median(raw_s for raw_s, _ in setups),
            "speed_factor_p50": statistics.median(factors),
            "reference_probe_s": speed.REFERENCE_S,
        }
    failed, attempted = judge.failed, judge.attempted
    sim["fail_ratio"] = {"value": failed / attempted if attempted else 0.0, "unit": "ratio"}
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "extra": sim,
        "workload": w,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bootstrap.prepare()
        units = declared_metrics(args.trace)
    except (bootstrap.SourceMissing, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    bootstrap.OUT_DIR.mkdir(exist_ok=True)
    spans = bootstrap.OUT_DIR / f"spans-{args.workload}.jsonl" if args.trace else None
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace, spans_path=spans)
    except (bootstrap.SourceMissing, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    metrics = result["metrics"]
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 3
    record = run_record(args, result["workload"], result["attempted"])
    record["extra"] = result["extra"]
    with open(bootstrap.OUT_DIR / f"record-{args.workload}-trace{args.trace}.json", "w") as fp:
        json.dump(record, fp, indent=1)

    print(f"# {args.workload}: seed {args.seed}, {result['attempted']} ops, "
          f"{result['failed']} failed, trace {args.trace}")
    for name, unit in units.items():
        print(f"{args.workload} {name} {metrics[name]:.6g} {unit}")
    for name, info in result["extra"].items():
        print(f"{args.workload} {name} {json.dumps(info)}")
    print(f"# record {json.dumps({k: v for k, v in record.items() if k != 'extra'})}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
