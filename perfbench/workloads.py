"""The benchmark's four workloads.

Each workload draws every input from the workload seed and hands the
library only the generated keys and plaintexts.  ``op`` is the only code
the timer covers.  ``reduce`` shrinks an op's raw result to a small,
JSON-able output outside the timer, ``check`` judges outputs a chunk at a
time (so the harness's memory does not grow with the op count), and
``finish`` gives the checks and simulated outputs that cover the whole run.

Library calls go through module attributes (``pipeline.run_sweep``,
``gift.encrypt_block``, ...) so that the traced run's shims, which replace
those attributes, see every call.
"""

from __future__ import annotations

import hashlib
import io
import json

import numpy as np

import memgift
from memgift import energy, gift, masking, pipeline

DEFAULT_SEED = 0

# golden.json holds the digests of this many ops per workload (default seed).
GOLDEN_OPS = 16

# Published per-block totals of the paper's GIFT-128 implementation.
PUBLISHED_PJ = {"dxor": 241.52, "sxor": 1030.4}
ENERGY_RTOL = 1e-9

SIGMA_GRID = (0.0, 0.02, 0.04, 0.06, 0.08, 0.1, 0.12)

# Stream outputs are checked by a batched application of the reference
# cipher's own tables; this many are also checked by gift.encrypt_block,
# which keeps the batched check honest.
DIRECT_CHECKS = 64

# Floats are compared at this many significant digits, so a reordered but
# equivalent sum does not count as a changed trace.
FLOAT_DIGITS = 10

# Today's trace schema.  Keys outside it are ignored by the digests, so a
# documented schema addition does not break them; a change to these does.
ROUND_TRACE_KEYS = frozenset(
    {"record", "variant", "scheme", "feedback", "seed", "sigma_d2d", "sigma_c2c", "mask",
     "round", "inputs", "outputs", "post_state"}
)
ANALOG_TRACE_KEYS = frozenset(
    {"slice", "round", "column", "kind", "stored_bits", "r_eq", "nodes", "bit"}
)
ENERGY_KEYS = frozenset(
    {"variant", "scheme", "rounds", "latency_us", "total_energy_pj", "average_power_uw",
     "breakdown", "write_events", "write_phase_pj"}
)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _draw(rng: np.random.Generator, bits: int) -> int:
    return int.from_bytes(rng.bytes(bits // 8), "big")


def _canonical(value):
    if isinstance(value, float):
        return float(f"{value:.{FLOAT_DIGITS}g}")
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def _hash(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def digest(value) -> str:
    """Short stable hash of a JSON-able value (floats at FLOAT_DIGITS)."""
    return _hash(_canonical(value))


def _round_float(text: str) -> float:
    return float(f"{float(text):.{FLOAT_DIGITS}g}")


def _trace_digest(lines: list[str], keys: frozenset) -> str:
    records = json.loads("[" + ",".join(lines) + "]", parse_float=_round_float)
    return _hash([{k: v for k, v in r.items() if k in keys} for r in records])


def _energy_ok(report: dict, scheme: str) -> bool:
    published = PUBLISHED_PJ[scheme]
    return abs(report["total_energy_pj"] - published) <= ENERGY_RTOL * published


def reference_batch(pts: list[int], key: int, variant) -> list[int]:
    """gift.encrypt_block for many plaintexts under one key at once.

    Applies the reference module's own S-box, bit permutation and key
    schedule, so it shares no code with the crossbar path.
    """
    if not pts:
        return []
    n, nbytes = variant.block_bits, variant.block_bits // 8

    def to_bits(values):
        raw = b"".join(v.to_bytes(nbytes, "little") for v in values)
        rows = np.frombuffer(raw, dtype=np.uint8).reshape(len(values), nbytes)
        return np.unpackbits(rows, axis=1, bitorder="little")

    sbox_bits = to_bits(list(gift.GIFT_SBOX))[:, :4]
    perm = np.array(gift.perm_table(variant))
    weights = np.array([1, 2, 4, 8], dtype=np.uint8)
    masks = to_bits(gift.round_addition_masks(key, variant))
    bits = to_bits(pts)
    for mask in masks:
        substituted = sbox_bits[bits.reshape(len(pts), -1, 4) @ weights].reshape(len(pts), n)
        bits = np.empty_like(substituted)
        bits[:, perm] = substituted
        bits ^= mask
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


class Workload:
    """Base class: a seeded input stream, one op, a reducer and a checker."""

    name = ""
    rng_stream = 0
    op_definition = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = _rng(seed, self.rng_stream)
        self.warm_rng = _rng(seed, self.rng_stream + 100)

    def setup(self) -> None:
        """Build long-lived state and warm the library's caches."""

    def sessions(self) -> list:
        """Sessions that outlive one op (their counters are read as deltas)."""
        return []

    def next_input(self, i: int):
        raise NotImplementedError

    def op(self, i: int, inp):
        raise NotImplementedError

    def reduce(self, i: int, inp, raw) -> dict:
        raise NotImplementedError

    def check(self, first: int, outputs: list) -> list[bool]:
        """Verdicts for ops ``first, first + 1, ...``; a None output failed."""
        raise NotImplementedError

    def finish(self) -> tuple[bool, dict]:
        """Whether the run-level checks hold, and the simulated outputs."""
        return True, {}

    def corrupt(self, out: dict) -> None:
        """Flip one output bit; used only by the checker's self-test."""
        out["ct"] ^= 1


class Stream(Workload):
    name = "stream"
    rng_stream = 1
    op_definition = (
        "EncryptionSession.encrypt of one fresh GIFT-128 plaintext on one dxor "
        "session with ideal devices, built and programmed once in set-up"
    )
    scheme = "dxor"

    def setup(self):
        self.key = _draw(self.rng, 128)
        self.session = pipeline.EncryptionSession(self.key, gift.GIFT128, self.scheme)
        for _ in range(4):
            self.session.encrypt(_draw(self.warm_rng, 128))
        gift.encrypt_block(0, self.key, gift.GIFT128)

    def sessions(self):
        return [self.session]

    def next_input(self, i):
        return _draw(self.rng, 128)

    def op(self, i, pt):
        return self.session.encrypt(pt)

    def reduce(self, i, pt, raw):
        return {"pt": pt, "ct": raw[0]}

    def check(self, first, outputs):
        done = [o for o in outputs if o is not None]
        expected = dict(zip((o["pt"] for o in done),
                            reference_batch([o["pt"] for o in done], self.key, gift.GIFT128)))
        oks = []
        for i, out in enumerate(outputs, first):
            ok = out is not None and out["ct"] == expected[out["pt"]]
            if ok and i < DIRECT_CHECKS:
                ok = out["ct"] == gift.encrypt_block(out["pt"], self.key, gift.GIFT128)
            oks.append(ok)
        return oks

    def finish(self):
        report = energy.account(self.session.session_log()).to_dict()
        return _energy_ok(report, self.scheme), _energy_metrics(report, self.scheme)


class Rekey(Workload):
    name = "rekey"
    rng_stream = 2
    op_definition = (
        "build an EncryptionSession from a fresh random key, encrypt one block and "
        "compute gift.encrypt_block for it; schemes alternate sxor/dxor, every "
        "fourth op is GIFT-64"
    )

    def setup(self):
        for i in range(4):
            self.op(i, self._draw_input(i, self.warm_rng))

    @staticmethod
    def _draw_input(i, rng):
        variant = gift.GIFT64 if i % 4 == 3 else gift.GIFT128
        scheme = "sxor" if i % 2 == 0 else "dxor"
        return _draw(rng, 128), _draw(rng, variant.block_bits), variant, scheme

    def next_input(self, i):
        return self._draw_input(i, self.rng)

    def op(self, i, inp):
        key, pt, variant, scheme = inp
        session = pipeline.EncryptionSession(key, variant, scheme)
        ct, _ = session.encrypt(pt)
        return ct, gift.encrypt_block(pt, key, variant)

    def reduce(self, i, inp, raw):
        key, pt, variant, scheme = inp
        return {"variant": variant.block_bits, "scheme": scheme, "ct": raw[0], "expected": raw[1]}

    def check(self, first, outputs):
        return [o is not None and o["ct"] == o["expected"] for o in outputs]


class Sweep(Workload):
    name = "sweep"
    rng_stream = 3
    blocks = 1
    sim_ops = 16
    op_definition = (
        f"one whole-grid run_sweep over the GIFT-128 sigma grid {list(SIGMA_GRID)} with "
        f"{blocks} block(s) per point and a fresh sweep seed; schemes alternate dxor/sxor"
    )

    def __init__(self, seed):
        super().__init__(seed)
        self.sim_counts = {"ops": 0, "bit_errors": 0, "sensed_bits": 0}

    def setup(self):
        warm_seed = int(self.warm_rng.integers(2**31))
        pipeline.run_sweep(gift.GIFT128, "dxor", SIGMA_GRID[:2], 1, seed=warm_seed)

    def next_input(self, i):
        return int(self.rng.integers(2**31)), ("dxor", "sxor")[i % 2]

    def op(self, i, inp):
        sweep_seed, scheme = inp
        return pipeline.run_sweep(gift.GIFT128, scheme, SIGMA_GRID, self.blocks, seed=sweep_seed)

    def reduce(self, i, inp, raw):
        sweep_seed, scheme = inp
        return {
            "seed": sweep_seed,
            "scheme": scheme,
            "points": [[p.sigma, p.trials, p.sensed_bits, p.bit_errors, p.block_errors] for p in raw],
        }

    def _op_ok(self, out) -> bool:
        if out is None or [p[0] for p in out["points"]] != list(SIGMA_GRID):
            return False
        per_block = gift.GIFT128.rounds * 4 * gift.GIFT128.nibbles
        for sigma, trials, sensed, bit_errors, block_errors in out["points"]:
            if trials != self.blocks or sensed != trials * per_block:
                return False
            if sigma == 0.0 and (bit_errors or block_errors):
                return False
            # One block per point: a trial with no bit error has no block error.
            if block_errors > min(trials, bit_errors):
                return False
        return True

    def check(self, first, outputs):
        # sim_ber covers a fixed number of leading ops, so that it repeats
        # exactly for a seed however many ops a run completes.
        for out in outputs[: max(0, self.sim_ops - first)]:
            if out is not None:
                self.sim_counts["ops"] += 1
                self.sim_counts["bit_errors"] += sum(p[3] for p in out["points"])
                self.sim_counts["sensed_bits"] += sum(p[2] for p in out["points"])
        return [self._op_ok(o) for o in outputs]

    def finish(self):
        c = self.sim_counts
        ber = c["bit_errors"] / c["sensed_bits"] if c["sensed_bits"] else 0.0
        return True, {"sim_ber": {"value": ber, "unit": "errors/bit", **c}}

    def corrupt(self, out):
        out["points"][0][3] += 1  # a bit error at sigma 0


class Trace(Workload):
    name = "trace"
    rng_stream = 4
    remask_every = 4
    scheme = "dxor"
    op_definition = (
        "encrypt_masked(trace=True) of one fresh GIFT-128 plaintext on one dxor session, "
        "export_round_trace and export_analog_trace into memory, energy.account of the "
        "session log; every fourth op first calls apply_mask with a seeded mask"
    )

    def setup(self):
        self.last_energy = None
        self.key = _draw(self.rng, 128)
        self.session = pipeline.EncryptionSession(self.key, gift.GIFT128, self.scheme)
        self._traced_block(_draw(self.warm_rng, 128))
        gift.encrypt_block(0, self.key, gift.GIFT128)

    def sessions(self):
        return [self.session]

    def next_input(self, i):
        mask = int(self.rng.integers(16)) if i % self.remask_every == 0 else None
        return _draw(self.rng, 128), mask

    def _traced_block(self, pt):
        mask = self.session.mask
        ct, traces = masking.encrypt_masked(self.session, pt, mask, trace=True)
        rounds, analog = io.StringIO(), io.StringIO()
        pipeline.export_round_trace(self.session, traces, rounds)
        pipeline.export_analog_trace(traces, analog)
        report = energy.account(self.session.session_log())
        return ct, mask, rounds.getvalue(), analog.getvalue(), report

    def op(self, i, inp):
        pt, new_mask = inp
        if new_mask is not None:
            masking.apply_mask(self.session, new_mask)
        return self._traced_block(pt)

    def reduce(self, i, inp, raw):
        ct, mask, rounds, analog, report = raw
        round_lines, analog_lines = rounds.splitlines(), analog.splitlines()
        report = report.to_dict()
        out = {
            "pt": inp[0],
            "mask": mask,
            "ct": ct,
            "round_records": len(round_lines),
            "analog_records": len(analog_lines),
            "last_post_state": int(json.loads(round_lines[-1])["post_state"], 16),
            "energy": _canonical({k: v for k, v in report.items() if k in ENERGY_KEYS}),
        }
        # Trace digests are only compared for the golden ops; hashing every
        # op's 5k analog records would halve the ops a run completes.
        if i < GOLDEN_OPS:
            out["round_trace"] = _trace_digest(round_lines, ROUND_TRACE_KEYS)
            out["analog_trace"] = _trace_digest(analog_lines, ANALOG_TRACE_KEYS)
        return out

    def check(self, first, outputs):
        variant = gift.GIFT128
        oks = []
        for out in outputs:
            if out is None:
                oks.append(False)
                continue
            word = sum(out["mask"] << (4 * j) for j in range(variant.nibbles))
            oks.append(
                out["ct"] == gift.encrypt_block(out["pt"], self.key, variant)
                and out["round_records"] == 1 + variant.rounds
                and out["analog_records"] == variant.rounds * variant.nibbles * 4
                and out["last_post_state"] ^ word == out["ct"]
                and _energy_ok(out["energy"], self.scheme)
            )
            self.last_energy = out["energy"]
        return oks

    def finish(self):
        if self.last_energy is None:
            return True, {}
        return True, _energy_metrics(self.last_energy, self.scheme)


def _energy_metrics(report: dict, scheme: str) -> dict:
    published = PUBLISHED_PJ[scheme]
    value = report["total_energy_pj"]
    return {
        "sim_energy_pj_per_block": {"value": value, "unit": "pJ", "published": published,
                                    "rel_error": (value - published) / published},
    }


WORKLOADS = {cls.name: cls for cls in (Stream, Rekey, Sweep, Trace)}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
