"""Encryption-session orchestration.

A session programs all slices once, then runs one crossbar read per round:
each slice's register nibble drives its 4-to-16 decoder while a shared
6-bit counter selects the key/constant row, the sensed nibble lands in the
output register, and the inter-round wiring routes bit (j, b) to position
P(4j+b) of the next state (`permuted` mode).  The literal slice-local
feedback reading is retained as a diagnostic (`local` mode); it severs
inter-nibble diffusion and intentionally fails the reference oracle.

The session holds its programmed cells once, as the stacked
`ProgrammedState`, and reads them with one kernel, `_read_rounds`, over
lanes of blocks: fast, noisy, stepped and traced encryption and the
sweep's sigma points all run through it.  A traced block then captures
the nodes of all its rounds' reads in one `crossbar.read_round` pass.

An ideal read (no cycle-to-cycle noise) depends only on the round, the
slice and its input nibble while the cells stay as programmed, so a
session looks its ideal reads, traced or not, up in a read table of shape
(rounds, 16, S, 4).  On nominal devices (no d2d variation) every cell is
LRS or HRS, so the table is gathered from `crossbar.nominal_reads`, one
sense of each operand pairing, and is built at the first such block of
every programming.  With d2d variation every cell differs: the kernel
reads every S-box row of every round once, which pays only once the cells
have served enough blocks.  An S-box rewrite drops the table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import groupby
from typing import Optional

import numpy as np

from .crossbar import (
    PARTNER_ABSENT,
    CrossbarError,
    DeviceParams,
    ReadCapture,
    column_resistances,
    draw_read_factors,
    nominal_reads,
    program_slice,
    read_round,
    resolve,
    scheme_for,
)
from .errors import MemgiftError
from .gift import (
    GIFT_SBOX,
    CipherState,
    CipherVariant,
    SBoxTable,
    encrypt_block,
    perm_table,
    variant_for,
)
from .layout import (
    LayoutBundle,
    bits_to_state,
    compile_layout,
    sbox_bit_matrix,
    state_to_bits,
)


class PipelineError(MemgiftError, RuntimeError):
    """Session misuse: stepping past the last round, size mismatch, ..."""


_NIBBLE_WEIGHTS = np.array([1, 2, 4, 8], dtype=np.uint8)

# With d2d variation, a read table costs 1.1-1.4 kernel blocks to build and
# makes a block about 3x cheaper (GIFT-128 dxor on a 2-vCPU VM: build
# 1.3-1.7 ms, kernel 1.2, lookup 0.38 ms per block), so it pays from about
# the second block it serves.  Such a session builds one once the current
# programming, or the one before it, has served 3 ideal blocks: the margin
# keeps a programming that serves only 2 from paying for a table it cannot
# earn back.  A nominal session's table is gathered, not read, and pays on
# the first block it serves.
_TABLE_AFTER_BLOCKS = 3
# Lanes per kernel call while building: the temporaries stay near 64 KB,
# where the element-wise work runs fastest.
_TABLE_BUILD_LANES = 8192

# Event kinds of a scheme's (XOR amp, read-out amp) senses.
SENSE_EVENT = {"sxor": ("sxor_sense", "ro_s_sense"), "dxor": ("dxor_sense", "ro_d_sense")}


@dataclass
class EventLog:
    """Event counts for energy accounting."""

    variant_name: str
    scheme: str
    rounds: int = 0
    counts: dict = field(default_factory=dict)

    def add(self, kind: str, n: int = 1) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + n

    def get(self, kind: str) -> int:
        return self.counts.get(kind, 0)

    def merged_with(self, other: "EventLog") -> "EventLog":
        out = EventLog(self.variant_name, self.scheme, self.rounds + other.rounds)
        for src in (self, other):
            for kind, n in src.counts.items():
                out.add(kind, n)
        return out


@dataclass
class RoundTrace:
    round_index: int
    input_nibbles: tuple
    output_nibbles: tuple
    analog: ReadCapture  # the block's capture, shared by its rounds; this round is row round_index
    post_state: int
    block: int  # the session's block index, counted from 0
    active_mask: int  # S-box mask programmed when the round was read


class EncryptionSession:
    """One programmed crossbar instance; reusable for many blocks."""

    def __init__(
        self,
        key: int,
        variant: CipherVariant = None,
        scheme="dxor",
        params: Optional[DeviceParams] = None,
        feedback: str = "permuted",
        sbox: SBoxTable = GIFT_SBOX,
    ):
        self.variant = variant_for(variant if variant is not None else 128)
        self.scheme = scheme_for(scheme)
        self.params = params if params is not None else DeviceParams()
        self.scheme.validate(self.params.vdd)
        if feedback not in ("permuted", "local"):
            raise PipelineError(f"unknown feedback mode: {feedback!r}")
        self.feedback = feedback
        self.bundle: LayoutBundle = compile_layout(key, self.variant, sbox)
        self.mask = 0

        self.write_log = EventLog(self.variant.name, self.scheme.name)
        self.state = program_slice(
            self.bundle.slices, self.bundle.sbox_matrix, self.params, self._d2d_rngs()
        )
        self.write_log.add("cell_write", self.state.cell_count)
        self._n_xor = int(self.state.xor_mask.sum())
        self._n_readout = 4 * self.variant.nibbles - self._n_xor

        if self.feedback == "permuted":
            targets = np.array(perm_table(self.variant))
        else:
            targets = np.arange(self.variant.block_bits)
        # the wiring inverted: next-state bit i is sensed bit _sources[i]
        self._sources = np.argsort(targets)

        self.register_bits = np.zeros(self.variant.block_bits, dtype=np.uint8)
        self.round_counter = 0
        self.reads_executed = 0
        self.blocks_encrypted = 0
        self.current_log = EventLog(self.variant.name, self.scheme.name)
        self._read_table = None
        # ideal blocks read from this programming and from the last
        self._ideal_blocks = self._last_ideal_blocks = 0

    # -- programming ------------------------------------------------------

    @cached_property
    def _slice_rngs(self) -> list:
        """One noise stream per slice, created on first use: an ideal
        session never draws from them."""
        seeds = np.random.SeedSequence(self.params.seed).spawn(self.variant.nibbles)
        return [np.random.default_rng(s) for s in seeds]

    def _d2d_rngs(self):
        return self._slice_rngs if self.params.sigma_d2d > 0 else None

    def reprogram_sbox(self, sbox: SBoxTable) -> None:
        """Rewrite only the 16x4 S-box region of every slice (run-time
        reconfiguration); key/constant cells are untouched.  The session's
        mask reads 0 until `masking.apply_mask` names the mask it wrote."""
        # the key region is written too, only for its d2d normals: they are
        # discarded (no key-cell writes) but keep every slice's noise stream
        # where a whole-slice write would leave it.
        written = program_slice(
            self.bundle.slices, sbox_bit_matrix(sbox), self.params, self._d2d_rngs()
        )
        self.write_log.add("cell_write", written.sb_bits.size)
        self.state = replace(self.state, sb_bits=written.sb_bits, sb_res=written.sb_res)
        self.mask = 0
        # the table describes the cells it was read from
        self._read_table = None
        self._last_ideal_blocks, self._ideal_blocks = self._ideal_blocks, 0

    # -- reads --------------------------------------------------------------

    def _sense(self, rows, rnd, factors=None) -> np.ndarray:
        """Bits sensed on every column when slice j's S-box row rows[..., j]
        and round rnd are selected: shape rows.shape + (4,); an ideal read
        of k rounds at once, rnd shape (k, 1), gives (k,) + rows.shape + (4,)."""
        state, vdd = self.state, self.params.vdd
        r_eq = column_resistances(state, rows, rnd, factors)
        xor_bits = resolve(self.scheme.xor_amp, r_eq, vdd)
        ro_bits = resolve(self.scheme.readout_amp, r_eq, vdd)
        return np.where(state.xor_mask, xor_bits, ro_bits)

    def _build_read_table(self) -> np.ndarray:
        """Every ideal read of the programmed state, shape (rounds, 16, S, 4):
        entry [rnd, row, j] is what slice j senses on S-box row `row` in
        round rnd."""
        if self.params.sigma_d2d > 0:
            return self._kernel_read_table()
        # Nominal cells: every read is one of the grid's cell pairings.  A
        # column's partner code is its partner's bit on XOR columns, sensed
        # by the XOR amp, and PARTNER_ABSENT on read-out columns (whose
        # partner bits are 0), sensed by the read-out amp.
        state = self.state
        code = state.partner_bits.transpose(1, 0, 2) | PARTNER_ABSENT * ~state.xor_mask
        # each column's read per round for S-box bit 0 and for bit 1, (rounds, S, 4)
        lo, hi = nominal_reads(self.params, self.scheme).take(code, axis=1)
        sb_bits = np.ascontiguousarray(state.sb_bits.transpose(1, 0, 2)).view(bool)
        table = lo[:, None] ^ (sb_bits & (lo ^ hi)[:, None])
        table.setflags(write=False)
        return table

    def _kernel_read_table(self) -> np.ndarray:
        """The read table by kernel reads of a few rounds at a time, the 16
        rows as lanes."""
        rounds, nibbles = self.variant.rounds, self.variant.nibbles
        rows = np.broadcast_to(np.arange(16)[:, None], (16, nibbles))
        step = max(1, _TABLE_BUILD_LANES // (16 * nibbles * 4))
        table = np.empty((rounds, 16, nibbles, 4), dtype=bool)
        for first in range(0, rounds, step):
            rnds = np.arange(first, min(first + step, rounds))[:, None]
            table[first : first + len(rnds)] = self._sense(rows, rnds)
        table.setflags(write=False)
        return table

    def _log_reads(self, reads: int) -> None:
        log = self.current_log
        log.rounds += reads
        log.add("decoder_cycle", self.variant.nibbles * reads)
        log.add("selector_cycle", reads)
        log.add("register_cycle", reads)
        xor_kind, ro_kind = SENSE_EVENT[self.scheme.name]
        log.add(xor_kind, self._n_xor * reads)
        log.add(ro_kind, self._n_readout * reads)

    def _read_factors(self, reads: int, sigmas):
        """Cycle-to-cycle factors for the next `reads` reads of one lane per
        sigma, shape (len(sigmas), S, reads, 2, 4), or None when every sigma
        is zero.  All lanes scale the same normals (common random numbers)."""
        if not any(s > 0 for s in sigmas):
            return None
        factors = np.empty((len(sigmas), self.variant.nibbles, reads, 2, 4))
        for j, rng in enumerate(self._slice_rngs):
            factors[:, j] = draw_read_factors(sigmas, rng, reads)
        return factors

    def _read_rounds(
        self, bits: np.ndarray, rounds: range, factors=None, count_errors=False, rows_read=None
    ):
        """The read kernel: run `rounds` on every lane of `bits`, shape (B, n).

        factors, when given, has shape (B, S, len(rounds), 2, 4): entry
        [..., 0, :] scales a read's S-box cells, [..., 1, :] its partner
        cells.  Returns the bits after the last round and, per lane, the
        number of sensed bits that disagree with the ideal digital value
        (zeros unless count_errors).  An ideal read looks its bits up in the
        read table when the session has built one.  With a `rows_read`
        list, each round's selected S-box rows, shape (B, S), are appended
        to it for a trace to capture.
        """
        lanes = bits.shape[0]
        state = self.state
        idx = state.slice_index
        table = self._read_table if factors is None else None
        errors = np.zeros(lanes, dtype=np.int64)
        for i, rnd in enumerate(rounds):
            rows = bits.reshape(lanes, len(idx), 4) @ _NIBBLE_WEIGHTS
            if table is not None:
                out = table[rnd, rows, idx]
            else:
                out = self._sense(rows, rnd, None if factors is None else factors[:, :, i])
            if count_errors:
                expected = state.sb_bits[idx, rows] ^ state.partner_bits[:, rnd]
                errors += (out != expected).sum(axis=(1, 2))
            # a bool array is its 0/1 bytes, so the view skips a cast
            bits = out.reshape(lanes, -1).view(np.uint8).take(self._sources, axis=1)
            if rows_read is not None:
                rows_read.append(rows)
        return bits, errors

    def step_round(self, state: int) -> int:
        """Run one read cycle on the given state and latch the result."""
        if self.round_counter >= self.variant.rounds:
            raise PipelineError("stepping past the final round")
        rnd = self.round_counter
        bits = self._state_bits(state, "state")[None]
        factors = self._read_factors(1, (self.params.sigma_c2c,))
        bits, _ = self._read_rounds(bits, range(rnd, rnd + 1), factors)
        self._log_reads(1)
        self.register_bits = bits[0]
        self.round_counter = rnd + 1
        self.reads_executed += 1
        return bits_to_state(bits[0])

    def _state_bits(self, value: int, what: str) -> np.ndarray:
        if not 0 <= value < (1 << self.variant.block_bits):
            raise PipelineError(f"{what} does not fit in {self.variant.block_bits} bits")
        return state_to_bits(value, self.variant.block_bits)

    def _begin_block(self, pt: int) -> np.ndarray:
        self.register_bits = self._state_bits(pt, "plaintext")
        self.round_counter = 0
        self.current_log = EventLog(self.variant.name, self.scheme.name)
        return self.register_bits

    def _encrypt_lanes(self, pt: int, sigmas, count_errors: bool, traces=None):
        """Encrypt one block once per cycle-to-cycle sigma, all lanes in one
        pass of the read kernel; every lane counts as one read per round.
        Returns the lanes' ciphertexts and bit-error counts.  With a
        `traces` list (one lane), one RoundTrace per round is appended."""
        bits = np.tile(self._begin_block(pt), (len(sigmas), 1))
        rounds = self.variant.rounds
        factors = self._read_factors(rounds, sigmas)
        rows_read = None if traces is None else []
        if factors is None:
            served = max(self._ideal_blocks, self._last_ideal_blocks)
            pays = self.params.sigma_d2d == 0 or served >= _TABLE_AFTER_BLOCKS
            if self._read_table is None and pays:
                self._read_table = self._build_read_table()
            self._ideal_blocks += 1
        bits, errors = self._read_rounds(bits, range(rounds), factors, count_errors, rows_read)
        if traces is not None:
            # one capture repeats the block's reads: the same rows, the same factors
            rows, rnds = np.concatenate(rows_read), np.arange(rounds)
            f = None if factors is None else factors[0].swapaxes(0, 1)
            analog = read_round(self.state, rows, rnds, self.scheme, self.params.vdd, f)
            outputs = (analog.bits @ _NIBBLE_WEIGHTS).tolist()
            posts = analog.bits.reshape(rounds, -1).view(np.uint8).take(self._sources, axis=1)
            for rnd, inputs in enumerate(rows.tolist()):
                post, block = bits_to_state(posts[rnd]), self.blocks_encrypted
                traces.append(RoundTrace(
                    rnd, tuple(inputs), tuple(outputs[rnd]), analog, post, block, self.mask
                ))
        reads = len(sigmas) * rounds
        self._log_reads(reads)
        self.round_counter = rounds
        self.reads_executed += reads
        self.blocks_encrypted += len(sigmas)
        self.register_bits = bits[-1]
        return [bits_to_state(b) for b in bits], errors

    def encrypt(self, pt: int, trace: bool = False):
        """Run all rounds from the plaintext; returns (ciphertext, traces),
        with one RoundTrace per round when trace is set."""
        traces = []
        sigmas = (self.params.sigma_c2c,)
        cts, _ = self._encrypt_lanes(pt, sigmas, False, traces if trace else None)
        return cts[0], traces

    def encrypt_with_error_count(self, pt: int):
        """Like encrypt, but also counts sensed bits that disagree with the
        ideal digital value for the same inputs (per-read comparison)."""
        cts, errors = self._encrypt_lanes(pt, (self.params.sigma_c2c,), True)
        return cts[0], int(errors[0])

    # -- observability ------------------------------------------------------

    @property
    def output_register(self) -> CipherState:
        return CipherState(bits_to_state(self.register_bits), self.variant.block_bits)

    def sensed_bits_per_block(self) -> int:
        return self.variant.rounds * 4 * self.variant.nibbles

    def cell_fingerprint(self) -> int:
        return self.state.fingerprint()

    def session_log(self) -> EventLog:
        """Programming events plus the last encrypted block's events."""
        return self.write_log.merged_with(self.current_log)


# ---------------------------------------------------------------------------
# Trace export


# Both exporters write, one block at a time, the bytes one json.dumps per
# record would write.


def _blocks(traces):
    """The traces in runs that share one block's capture, in their order."""
    return (list(run) for _, run in groupby(traces, key=lambda t: t.analog))


def _json_texts(values: np.ndarray, ndigits=None) -> np.ndarray:
    """The JSON text of every entry of `values`, as an object array of its
    shape.  Each distinct value goes once through json's own encoder, so
    inf, nan and -0.0 are spelled as json.dumps spells them; with ndigits,
    after round(v, ndigits)."""
    # floats are told apart by their bits, so -0.0 and 0.0 stay distinct
    keys = values.view(np.uint64) if values.dtype == np.float64 else values
    distinct, inverse = np.unique(keys, return_inverse=True)
    distinct = distinct.view(values.dtype).tolist()
    if ndigits is not None:
        distinct = [round(v, ndigits) for v in distinct]
    texts = np.array(json.dumps(distinct)[1:-1].split(", "), dtype=object)
    # the inverse's shape differs across numpy versions
    return texts[inverse.ravel()].reshape(values.shape)


# A value's place in a record's shape, and how json.dumps spells it.
_SLOT = "\0"
_SLOT_TEXT = json.dumps(_SLOT)


def _record_parts(record: dict) -> list:
    """The line json.dumps(record) writes, split around its _SLOT values:
    the text before each value, then the text after the last one."""
    parts = json.dumps(record).split(_SLOT_TEXT)
    parts[-1] += "\n"
    return parts


def export_round_trace(session: EncryptionSession, traces, fp) -> None:
    """JSON lines: a session header record, then one record per round.
    The header states the session's mask when the trace is written; each
    round record names its block and the mask it was read under."""
    fp.write(round_trace_header(session, session.mask))
    for block in _blocks(traces):
        fp.write(round_trace_records(session, block))


def round_trace_header(session: EncryptionSession, mask: int) -> str:
    """The header line of a round trace of `session` that states `mask`."""
    header = {
        "record": "session",
        "variant": session.variant.name,
        "scheme": session.scheme.name,
        "feedback": session.feedback,
        "seed": session.params.seed,
        "sigma_d2d": session.params.sigma_d2d,
        "sigma_c2c": session.params.sigma_c2c,
        "mask": f"{mask:x}",
    }
    return json.dumps(header) + "\n"


def round_trace_records(session: EncryptionSession, traces) -> str:
    """The round records of `traces`, one line each, in their order."""
    digits = session.variant.block_bits // 4
    template = (
        f'{{"record": "round", "block": %d, "round": %d, "active_mask": "%x", '
        f'"inputs": "%0{digits}x", "outputs": "%0{digits}x", "post_state": "%0{digits}x"}}\n'
    )
    # each read's inputs and outputs, two nibbles a byte, least significant first
    nibbles = np.array([(t.input_nibbles, t.output_nibbles) for t in traces], dtype=np.uint8)
    packed = (nibbles[..., 0::2] | nibbles[..., 1::2] << 4).tolist()
    values = []
    for t, fields in zip(traces, packed):
        inputs, outputs = (int.from_bytes(bytes(f), "little") for f in fields)
        values += (t.block, t.round_index, t.active_mask, inputs, outputs, t.post_state)
    return (template * len(traces)) % tuple(values)


def _distinct_rows(keys: np.ndarray):
    """Group the equal rows of `keys`, shape (n, F) uint64: the index of
    one row per group, and each row's group.  The rows are sorted by a
    hash and only neighbours are compared, so unequal rows never share a
    group; equal rows that a hash collision separates form two groups,
    which costs one more format and nothing else."""
    # odd multipliers: a row's hash is the wrapped sum of its weighted words
    weights = (2 * np.arange(keys.shape[1], dtype=np.uint64) + 1) * np.uint64(0x9E3779B97F4A7C15)
    order = np.argsort(keys @ weights)
    ordered = np.take(keys, order, axis=0)
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


def export_analog_trace(traces, fp) -> None:
    """JSON lines: one record per column per read (its amp kind, selected
    cells' bits, r_eq, node volts and bit), from each block's capture."""
    for block in _blocks(traces):
        analog = block[0].analog
        reads = np.array([t.round_index for t in block])
        mask = analog.xor_mask
        # A record's tail, everything after its column, repeats across a
        # block on nominal devices: each distinct tail is formatted once.
        tails = np.empty((len(reads),) + mask.shape, dtype=object)
        for kind, sensed in (("xor", mask), ("readout", ~mask)):
            names = analog.nodes[kind]
            stored = 2 if kind == "xor" else 1
            parts = _record_parts({
                "slice": _SLOT, "round": _SLOT, "column": _SLOT, "kind": kind,
                "stored_bits": [_SLOT] * stored, "r_eq": _SLOT,
                "nodes": dict.fromkeys(names, _SLOT), "bit": _SLOT,
            })
            # the text around slice, round and column is the same for both kinds
            head, tail_parts = parts[:3], parts[3:]
            # the tail's values in record order: stored bits, r_eq, nodes, bit
            fields = (analog.sb_bits, analog.partner_bits)[:stored]
            fields += (analog.r_eq, *names.values(), analog.bits)
            # the flat index of each sensed column of each read, in record order
            at = (reads[:, None] * mask.size + np.flatnonzero(sensed)).ravel()
            columns = [f.take(at) for f in fields]
            # keyed on the value bits, so -0.0 and 0.0 stay apart
            keys = np.stack(columns, axis=-1).astype(np.float64, copy=False).view(np.uint64)
            first, inverse = _distinct_rows(keys)
            distinct = [c[first] for c in columns]
            cells = _json_texts(np.stack(distinct[:stored] + [distinct[-1].view(np.uint8)], -1))
            values = np.concatenate([
                cells[:, :stored], _json_texts(distinct[stored])[:, None],
                _json_texts(np.stack(distinct[stored + 1 : -1], axis=-1), 6), cells[:, stored:],
            ], axis=-1)
            texts = np.empty((len(first), 2 * len(tail_parts) - 1), dtype=object)
            texts[:, ::2] = np.array(tail_parts, dtype=object)
            texts[:, 1::2] = values
            # json.dumps escapes every line break, so each tail is one line
            distinct_tails = "".join(texts.ravel().tolist()).splitlines(keepends=True)
            tails[:, sensed] = np.array(distinct_tails, dtype=object)[inverse].reshape(len(reads), -1)
        # a line is its slice's prefix, its round, its column and its tail
        lines = np.empty(tails.shape + (4,), dtype=object)
        lines[..., 0] = head[0] + _json_texts(np.arange(mask.shape[0]))[:, None] + head[1]
        lines[..., 1] = (_json_texts(reads) + head[2])[:, None, None]
        lines[..., 2] = _json_texts(np.arange(mask.shape[1]))
        lines[..., 3] = tails
        fp.write("".join(lines.ravel().tolist()))


# ---------------------------------------------------------------------------
# Monte-Carlo robustness sweep


@dataclass(frozen=True)
class SweepPoint:
    sigma: float
    trials: int
    sensed_bits: int
    bit_errors: int
    block_errors: int

    @property
    def bit_error_rate(self) -> float:
        return self.bit_errors / self.sensed_bits if self.sensed_bits else 0.0


def _trial_seed(seed: int, trial: int) -> int:
    return seed * 1_000_003 + trial


def run_sweep(
    variant,
    scheme,
    sigmas,
    blocks: int,
    seed: int = 0,
    base_params: Optional[DeviceParams] = None,
    feedback: str = "permuted",
) -> list[SweepPoint]:
    """Cycle-to-cycle variation sweep with common random numbers.

    Every sigma point replays the same trial keys, plaintexts and noise
    draws (scaled by sigma), so the empirical error counts are directly
    comparable across the grid.  Each trial programs one session, which
    serves every sigma point: the points are the lanes of one batched pass
    over the rounds, and the reference ciphertext is computed once.
    """
    sigmas = tuple(float(s) for s in sigmas)
    if blocks < 0:
        raise PipelineError(f"blocks must be non-negative, got {blocks}")
    base = base_params if base_params is not None else DeviceParams()
    # a lane is the base device at its sigma_c2c: DeviceParams checks each
    # sigma, with the base's sigma_d2d, and the seed (alone, with no lane)
    try:
        for sigma in sigmas or (base.sigma_c2c,):
            replace(base, sigma_c2c=sigma, seed=seed)
    except CrossbarError as exc:
        raise PipelineError(str(exc)) from None
    if not sigmas:
        return []
    variant = variant_for(variant)
    bit_errors = np.zeros(len(sigmas), dtype=np.int64)
    block_errors = np.zeros(len(sigmas), dtype=np.int64)
    sensed = 0
    for t in range(blocks):
        material = np.random.default_rng(np.random.SeedSequence((seed, t)))
        key = int.from_bytes(material.bytes(16), "big")
        pt = int.from_bytes(material.bytes(variant.block_bits // 8), "big")
        # programming reads only sigma_d2d; the lanes carry sigma_c2c
        params = replace(base, sigma_c2c=0.0, seed=_trial_seed(seed, t))
        session = EncryptionSession(key, variant, scheme, params, feedback)
        cts, errors = session._encrypt_lanes(pt, sigmas, count_errors=True)
        bit_errors += errors
        expected = encrypt_block(pt, key, variant)
        block_errors += [ct != expected for ct in cts]
        sensed += session.sensed_bits_per_block()
    return [
        SweepPoint(sigma, blocks, sensed, int(bits), int(block))
        for sigma, bits, block in zip(sigmas, bit_errors, block_errors)
    ]


def format_sweep_table(points) -> str:
    lines = ["# sigma_c2c trials sensed_bits bit_errors ber block_errors"]
    for p in points:
        lines.append(
            f"{p.sigma:.6g} {p.trials} {p.sensed_bits} {p.bit_errors} "
            f"{p.bit_error_rate:.3e} {p.block_errors}"
        )
    return "\n".join(lines) + "\n"
