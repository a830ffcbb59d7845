"""Encryption-session orchestration.

A session programs all slices once, then runs one crossbar read per round:
each slice's register nibble drives its 4-to-16 decoder while a shared
6-bit counter selects the key/constant row, the sensed nibble lands in the
output register, and the inter-round wiring routes bit (j, b) to position
P(4j+b) of the next state (`permuted` mode).  The literal slice-local
feedback reading is retained as a diagnostic (`local` mode); it severs
inter-nibble diffusion and intentionally fails the reference oracle.

The session holds its programmed cells once, as the `ProgrammedState`
(S-box cells slice-major, partner cells round-major, as the reads select
them), and reads a block with one kernel, `_encrypt_lanes`, over lanes of
the block: fast, noisy and traced encryption and the sweep's sigma points
all run through it.  Every analog decision is `crossbar`'s: the session
walks rows, caches what crossbar computes and counts events.  A traced
block then captures the nodes of all its rounds' reads in one
`crossbar.read_round` pass over the flat rows and factors the kernel
read.  It keeps its rounds once, as one read-only `BlockTrace`: the
capture, the nibbles its walk held, (rounds + 1, S), of which round r
reads row r and leaves row r + 1, the sensed nibbles, the block index and
the mask.  Each `RoundTrace` is a view of one round of it, which reads its
fields as Python ints.  The round export formats each run of one record's
views at once: every hex field in one lookup over the nibble columns,
every line in one fill of a template.  The analog export writes each
record as a prefix (read, slice, column), cached per capture shape, and a
tail.  One function, `_tails`, formats a capture's tails column by
column, of the reads an export views: a capture gathered from the nominal
grid gathers by pairing the tails of its grid, itself a capture, formatted
once per grid.  The session's `params` views the devices its state
holds.

An ideal block walks words, whatever the cells hold.  A column reading
its logic senses s ^ p, its S-box bit XOR its partner's, and the wiring P
permutes bits, so a round is the cipher round on the cells' key words, x
to P(S(x)) ^ P(p), each slice reading its own S-box: a sum of one entry
per state byte of the round's byte tables, the routed word a byte's two
slices read, and the round's routed partner word.  A byte reads its own
table where `crossbar.read_table` fails that logic (d2d cells, a nominal
grid that misreads).  A noisy block of nominal cells walks words too:
every S-box cell holds r_lrs or r_hrs, and a lane's factor lies between 1
and its factor at the largest sigma, so a read of a cell holding s can
leave its ideal bit only where one of those factors leaves its pairing's
`crossbar.safe_factor_box`.  The block draws its normals once
(`draw_read_normals`), decides only the reads at risk, and each lane
walks x to (T(x) & flip) ^ lo, T the logic tables' sum and (lo, flip) the
ideal planes with that lane's deviations XORed in; a lane without one is
the shared walk.  A noisy block of d2d cells walks rows, `at = 16*j + x`
for slice j holding nibble x, over lanes x slices (B*S): a round senses
them (each column's `crossbar.column_conductances` decided on its
`crossbar.column_points`), routes the sensed bits, packs every 4 into a
nibble and adds 16*j back.  Its factors come from one `draw_read_factors`
call, its partner branches for every round and lane at once, its decision
points cached per sigma.  A traced or counted walk ends alike over its
rows (a word walk's words, unpacked): its bit errors in one comparison
(a nominal noisy walk counts them per round), its capture in one
`read_round`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from itertools import groupby, repeat
from operator import attrgetter, getitem, itemgetter
from typing import NamedTuple, Optional

import numpy as np

from .crossbar import (
    SENSE_EVENT,
    CrossbarError,
    DeviceParams,
    ReadCapture,
    check_scheme,
    column_conductances,
    column_points,
    decide,
    draw_read_factors,
    draw_read_normals,
    grid_entry,
    misread_pairings,
    nominal_grid,
    partner_conductances,
    path_conductance,
    program_slice,
    read_round,
    read_table,
    safe_factor_box,
    scheme_for,
    variation_factor,
)
from .errors import MemgiftError, check_int
from .gift import (
    GIFT_SBOX,
    CipherVariant,
    SBoxTable,
    encrypt_block,
    perm_table,
    variant_for,
)
from .layout import (
    bits_to_state,
    compile_layout,
    sbox_bit_matrix,
    state_to_bits,
)


class PipelineError(MemgiftError, RuntimeError):
    """Session misuse: a plaintext that is not an integer of the block's width, ..."""


_NIBBLE_WEIGHTS = np.array([1, 2, 4, 8], dtype=np.uint8)
# set bits of every nibble value
_POPCOUNT = np.array([bin(v).count("1") for v in range(16)], dtype=np.int64)


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


@dataclass(frozen=True, eq=False)
class BlockTrace:
    """The rounds of one traced block, kept once: its capture, the walk its
    reads made and, per round, what the round records report.  Its own
    arrays are read-only; each `RoundTrace` views one of its rounds."""

    analog: ReadCapture  # every round's read, round r in row r
    states: np.ndarray  # (rounds + 1, S) uint8, the nibbles walked: round r reads row r
    outputs: np.ndarray  # (rounds, S) uint8, the nibble each slice sensed
    block: int  # the session's block index, counted from 0
    active_mask: int  # S-box mask programmed when the block was read

    def __post_init__(self):
        for a in (self.states, self.outputs):
            a.setflags(write=False)


class RoundTrace(NamedTuple):
    """Round `round_index` of a traced block: a view of its `BlockTrace`,
    whose fields it reads as Python ints and tuples of them.  Two views are
    equal when they view the same round of the same record."""

    record: BlockTrace
    round_index: int

    @property
    def output_nibbles(self) -> tuple:
        return tuple(self.record.outputs[self.round_index].tolist())

    @property
    def analog(self) -> ReadCapture:
        """The block's capture, shared by its rounds; this round is row round_index."""
        return self.record.analog

    @property
    def post_state(self) -> int:
        nibbles = self.record.states[self.round_index + 1]
        return int.from_bytes((nibbles[::2] | nibbles[1::2] << 4).tobytes(), "little")

    @property
    def block(self) -> int:
        return self.record.block

    @property
    def active_mask(self) -> int:
        return self.record.active_mask

    def __repr__(self):
        return f"RoundTrace(block={self.block}, round_index={self.round_index})"


_DEFAULT_PARAMS = DeviceParams()


def _session_args(variant, scheme, params, feedback: str, name: str) -> tuple:
    """The checked (variant, scheme, devices) of a session's arguments, for
    `EncryptionSession` and `run_sweep` alike: params None is the default
    devices, and `name` is what an error calls params."""
    variant, scheme = variant_for(variant), scheme_for(scheme)
    if scheme.name not in SENSE_EVENT:
        known = ", ".join(SENSE_EVENT)
        raise PipelineError(f"scheme {scheme.name!r} has no sense events (known: {known})")
    if params is None:
        params = _DEFAULT_PARAMS
    elif not isinstance(params, DeviceParams):
        raise PipelineError(f"{name} must be a DeviceParams, got {params!r}")
    check_scheme(scheme, params.vdd)
    if feedback not in ("permuted", "local"):
        raise PipelineError(f"unknown feedback mode: {feedback!r}")
    return variant, scheme, params


@lru_cache(maxsize=None)
def _wiring(variant: CipherVariant, feedback: str) -> tuple[np.ndarray, np.ndarray]:
    """A session's wiring, read-only and shared by every session: next-state
    bit i is sensed bit sources[i] (the feedback targets inverted), and
    slice j's first flat S-box row is row_base[j] = 16*j."""
    n = variant.block_bits
    targets = np.array(perm_table(variant)) if feedback == "permuted" else np.arange(n)
    wiring = np.argsort(targets), 16 * np.arange(variant.nibbles)
    for a in wiring:
        a.setflags(write=False)
    return wiring


@lru_cache(maxsize=None)
def _byte_routes(variant: CipherVariant, feedback: str) -> tuple:
    """The wiring as byte tables: entry [i][v] is the word that byte i of a
    sensed word holding v routes to, so a word routes to the sum of its
    bytes' entries.  Each bit of the byte, low first, doubles its table."""
    targets = np.argsort(_wiring(variant, feedback)[0]).tolist()
    routes = []
    for i in range(0, variant.block_bits, 8):
        table = [0]
        for target in targets[i : i + 8]:
            table += [t | 1 << target for t in table]
        routes.append(tuple(table))
    return tuple(routes)


def _byte_tables(routes: tuple, byte, nibbles: np.ndarray) -> list:
    """The byte tables of state bytes `byte` whose two slices, low nibble
    first, read nibbles[k] on their 16 rows: entry [k][v] is the int
    routes[byte[k]][nibbles[k, 0, v & 15] | nibbles[k, 1, v >> 4] << 4]."""
    # each table's 256 indices as bytes, which itemgetter unpacks faster than ints
    reads = (nibbles[:, 0, None, :] | nibbles[:, 1, :, None] << 4).astype(np.uint8).tobytes()
    return [itemgetter(*reads[256 * k : 256 * k + 256])(routes[i]) for k, i in enumerate(byte)]


@lru_cache(maxsize=64)
def _logic_tables(cells: bytes, variant: CipherVariant, feedback: str) -> tuple:
    """The logic of an ideal read, partner bits out, one byte table per state
    byte, each slice reading its own S-box: built once per `sb_bits` bytes."""
    s = np.frombuffer(cells, dtype=np.uint8).reshape(-1, 2, 16, 4) @ _NIBBLE_WEIGHTS
    return tuple(_byte_tables(_byte_routes(variant, feedback), range(len(s)), s))


def _read_tables(state, scheme, logic: tuple, routes: tuple) -> list:
    """Each round's byte tables of what `read_table` reads on `state`, the
    round's partner bits out: a byte whose slices read their logic in every
    row keeps its `logic` table, a round whose bytes all do is `logic`."""
    # a row's 4 columns, 0/1 bytes b, as one uint32 u: u * 0x01020408 >> 24 is b0 + 2b1 + 4b2 + 8b3
    rows = read_table(state, scheme).view("<u4")[..., 0] ^ state.partner_bits.view("<u4")
    logic_rows = state.sb_bits.view("<u4")[..., 0]
    # the (round, byte) pairs with a failing row, of a byte's 2 slices' 16 rows
    failing = np.flatnonzero((rows != logic_rows).reshape(-1, 32).any(axis=1))
    rnds, byte = (a.tolist() for a in np.divmod(failing, len(logic)))
    nibbles = rows.reshape(-1, 2, 16)[failing] * 0x01020408 >> 24
    walk = [logic] * state.rounds
    for rnd, i, read in zip(rnds, byte, _byte_tables(routes, byte, nibbles)):
        walk[rnd] = walk[rnd][:i] + (read,) + walk[rnd][i + 1 :]
    return walk


def _routed_words(bits: np.ndarray, sources: np.ndarray) -> list:
    """Rows of sensed 0/1 bits, len(sources) each, routed as the wiring
    routes a read's (next-state bit i is sensed bit sources[i]), as ints,
    in row order."""
    n = len(sources)
    rows = bits.reshape(-1, n).take(sources, axis=1)
    words = np.packbits(rows, axis=1, bitorder="little").view("<u8")
    if n == 128:  # a word is a low and a high 64-bit word
        return [low | high << 64 for low, high in words.tolist()]
    return words.ravel().tolist()


def _walk_keys(state, variant: CipherVariant, feedback: str) -> list:
    """Each round's key word on `state`: the round's partner bits routed as
    the wiring routes the sensed bits."""
    return _routed_words(state.partner_bits, _wiring(variant, feedback)[0])


def _plane_walk(logic: tuple, x: int, rounds, width: int) -> tuple[list, list]:
    """The words x walks to through `rounds` of nominal reads, each given
    by its (lo, flip, key) words: x to (T(x) & flip) ^ lo, where T(x), the
    sum of the `logic` tables' entries of x's bytes, is the routed cell
    bits it reads; and per round the sensed bits that differ from T(x) ^ key."""
    words, errors = [x], []
    for lo, flip, key in rounds:
        t = sum(map(getitem, logic, x.to_bytes(width, "little")))
        words.append(x := (t & flip) ^ lo)
        errors.append((x ^ t ^ key).bit_count())
    return words, errors


def _slice_streams(seed: int, slices: int) -> list:
    """One noise stream per slice, spawned from seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(slices)]


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
        self.variant, self.scheme, params = _session_args(
            variant if variant is not None else 128, scheme, params, feedback, "params"
        )
        self.feedback = feedback
        self.bundle = bundle = compile_layout(key, self.variant, sbox)
        self.mask = 0

        self.write_log = EventLog(self.variant.name, self.scheme.name)
        rngs = None
        if params.sigma_d2d > 0:
            # d2d cells draw their normals from the streams later reads draw from
            rngs = self._slice_rngs = _slice_streams(params.seed, self.variant.nibbles)
        self.state = program_slice(bundle.key_bits, bundle.columns, bundle.sbox_matrix, params, rngs)
        self.write_log.add("cell_write", self.state.cell_count)
        self._n_xor = bundle.key_bits.shape[1]
        self._n_readout = 4 * self.variant.nibbles - self._n_xor

        self._sources, self._row_base = _wiring(self.variant, feedback)

        self.reads_executed = 0
        self.blocks_encrypted = 0
        self.current_log = EventLog(self.variant.name, self.scheme.name)
        self._walk = None
        self._column_points = {}

    @property
    def params(self) -> DeviceParams:
        """The devices the cells were written with, `state.params`:
        read-only, so that other devices take a new session."""
        return self.state.params

    # -- programming ------------------------------------------------------

    @cached_property
    def _slice_rngs(self) -> list:
        """One noise stream per slice, created on first use: an ideal
        session never draws from them."""
        return _slice_streams(self.params.seed, self.variant.nibbles)

    def reprogram_sbox(self, sbox: SBoxTable) -> None:
        """Rewrite only the 16x4 S-box region of every slice (run-time
        reconfiguration); key/constant cells are untouched.  The session's
        mask reads 0 until `masking.apply_mask` names the mask it wrote.  An
        S-box that `SBoxTable` rejects raises GiftError before any write."""
        # the key region is written too, only for its d2d normals: they are
        # discarded (no key-cell writes) but keep every slice's noise stream
        # where a whole-slice write would leave it.
        bundle, rngs = self.bundle, None if self.state.nominal else self._slice_rngs
        written = program_slice(
            bundle.key_bits, bundle.columns, sbox_bit_matrix(sbox), self.params, rngs
        )
        self.write_log.add("cell_write", written.sb_bits.size)
        self.state = replace(self.state, sb_bits=written.sb_bits, sb_res=written.sb_res)
        self.mask = 0
        # what ideal reads walk describes the cells it was built from
        self._walk = None

    # -- reads --------------------------------------------------------------

    @cached_property
    def _planes(self) -> tuple:
        """What a read of the session's nominal cells senses at factor 1,
        the grid's bit of its pairing: every read's pairing of an S-box cell
        holding 0 (HRS) and 1 (LRS), and their bits, each (2, rounds * S * 4)
        over the (rounds, S, 4) reads; and per round its routed (lo, flip,
        key) words: what a cell holding 0 reads, whether one holding 1
        reads otherwise, and the partner bits.  Reprogramming moves none."""
        state = self.state
        pairings = grid_entry(np.arange(2)[:, None], state.partner_codes.reshape(-1))
        planes = nominal_grid(state.params, self.scheme).bits.take(pairings)
        words = np.concatenate([planes, state.partner_bits.reshape(1, -1)])
        words[1] ^= words[0]
        words = _routed_words(words, self._sources)
        return pairings, planes, [words[i : i + state.rounds] for i in range(0, len(words), state.rounds)]

    def _nominal_walks(self, pt: int, sigmas, points, trace: bool) -> tuple:
        """Each lane's words of a noisy block of nominal cells, its bit
        errors and, with `trace` (one lane), its factors.  A lane's factor
        lies between 1 and its factor at the largest sigma, so a read of a
        cell holding s is at risk only where one of those leaves its
        pairing's `safe_factor_box`.  Only reads at risk are decided, for
        every lane; every other read is its plane's.  A lane that no
        decision moves off its planes is the shared walk; one that a
        decision moves first in round r walks on from the shared word of
        round r."""
        state, rounds, width = self.state, self.variant.rounds, self.variant.block_bits // 8
        params, (pairings, planes, (los, flips, keys)) = state.params, self._planes
        # each read's S-box and partner normals, (2, reads) over the (rounds, S, 4) reads
        z = draw_read_normals(self._slice_rngs, rounds).transpose(1, 0, 2, 3).reshape(2, -1)
        low, high = (b.take(pairings) for b in safe_factor_box(params, self.scheme, max(sigmas)))
        f = variation_factor(max(sigmas), z)[:, None]
        out = ((f < low) | (f > high)).reshape(2, 2, rounds, -1)
        # a read-out column has no partner, whose factor moves nothing
        at = np.flatnonzero(out[0] | out[1] & state.xor_mask.reshape(-1))
        logic = _logic_tables(state.sb_bits.tobytes(), self.variant, self.feedback)
        shared, errs = _plane_walk(logic, pt, zip(los, flips, keys), width)
        walks, errors = [shared] * len(sigmas), [sum(errs)] * len(sigmas)
        if at.size:
            reads, cells = z.shape[1], z.shape[1] // rounds
            s, read = np.divmod(at, reads)
            f = variation_factor(np.reshape(sigmas, (-1, 1, 1)), z.take(read, axis=1))
            wire = params.wire_r_per_cell
            g = path_conductance(np.take([params.r_hrs, params.r_lrs], s), wire, f[:, 0])
            g += path_conductance(state.partner_res.reshape(-1).take(read), wire, f[:, 1])
            # where each lane's reads at risk leave their planes
            moved = decide(g, points.reshape(-1, cells).take(read % cells, axis=1))
            moved ^= planes.reshape(-1).take(at).astype(bool)
            lanes = np.flatnonzero(moved.any(axis=1))
            lane_planes = np.zeros((len(lanes), 2 * reads), dtype=bool)
            lane_planes[:, at] = moved[lanes]
            lane_planes = (lane_planes ^ planes.reshape(-1)).reshape(-1, 2, reads)
            lane_planes[:, 1] ^= lane_planes[:, 0]
            # each lane's lo, then its flip words, round by round
            words = _routed_words(lane_planes, self._sources)
            firsts = np.where(moved[lanes], read // cells, rounds).min(axis=1).tolist()
            for k, (lane, r) in enumerate(zip(lanes.tolist(), firsts)):
                lo, flip = (words[i + r : i + rounds] for i in (2 * k * rounds, (2 * k + 1) * rounds))
                own, own_errs = _plane_walk(logic, shared[r], zip(lo, flip, keys[r:]), width)
                walks[lane], errors[lane] = shared[:r] + own, sum(errs[:r]) + sum(own_errs)
        if trace:  # the lane's factors, (rounds, 2, S, 4) as `read_round` takes them
            f = variation_factor(sigmas[0], z).reshape(2, rounds, -1, 4).transpose(1, 0, 2, 3)
        return walks, errors, f if trace else None

    def _ideal_reads(self):
        """What ideal reads of this programming walk, built at the first:
        each round's tables, the cells' `_logic_tables` or, if a read may
        fail its logic, `_read_tables`, and its `_walk_keys` key word."""
        if self._walk is None:
            state, wiring = self.state, (self.variant, self.feedback)
            logic = _logic_tables(state.sb_bits.tobytes(), *wiring)
            tables = repeat(logic)
            # cells that vary, or a grid that misreads
            if not state.nominal or misread_pairings(state.params, self.scheme).size:
                tables = _read_tables(state, self.scheme, logic, _byte_routes(*wiring))
            self._walk = tuple(zip(tables, _walk_keys(state, *wiring)))
        return self._walk

    def _encrypt_lanes(self, pt: int, sigmas, count_errors: bool, traces=None):
        """The session's one block read: encrypt plaintext pt once per
        cycle-to-cycle sigma, each sigma a lane that counts as one read per
        round.  Returns the lanes' ciphertexts and, per lane, the number of
        sensed bits that disagree with the ideal digital value (zeros unless
        count_errors).  With a `traces` list (one lane), the block's rounds
        are kept as one BlockTrace and a RoundTrace view of each round is
        appended.

        When every sigma is zero the lanes read alike and one walks words,
        on any state, as the module docstring says.  Else, on nominal cells,
        every lane walks words (`_nominal_walks`); on d2d cells all lanes
        sense the cells under factors drawn in one `draw_read_factors` call,
        shape (rounds, 2, B, S, 4): [rnd, 0] scales round rnd's S-box cells
        and [rnd, 1] its partner cells, in every lane alike (common random
        numbers), as the nominal walk's normals are.
        """
        n, rounds, lanes = self.variant.block_bits, self.variant.rounds, len(sigmas)
        pt = check_int(pt, "plaintext", PipelineError, n)
        state, base, sources = self.state, self._row_base, self._sources
        noisy = any(s > 0 for s in sigmas)
        walked = lanes if noisy else 1
        # a noisy walk of nominal cells counts its errors as it walks
        rows_counted = count_errors and not (noisy and state.nominal)
        keep = rows_counted or traces is not None
        errors, f, width = np.zeros(walked, dtype=np.int64), None, n // 8
        if noisy:
            points = self._column_points.get(sigma := max(sigmas))
            if points is None:
                points = self._column_points[sigma] = column_points(state, self.scheme, sigma)
        if noisy and not state.nominal:
            if walked > 1:
                base = np.tile(base, walked)
                sources = (sources + n * np.arange(walked)[:, None]).ravel()
            # the wiring's sources of each next-state nibble's 4 bits, writable
            # for the rounds' takes: `take` copies a read-only index at every call
            sources = sources.reshape(-1, 4).copy()
            # every walked lane's slices' flat S-box rows, 16*j + nibble, over B*S
            at = np.tile(state_to_bits(pt, n).reshape(-1, 4) @ _NIBBLE_WEIGHTS, walked) + base
            factors = draw_read_factors(sigmas, self._slice_rngs, rounds)
            # computed once: the partner branch of every round's reads
            partner_g = partner_conductances(state, np.arange(rounds)[:, None], factors[:, 1])
            history = [at]
            for rnd in range(rounds):
                g = column_conductances(state, at.reshape(walked, -1), partner_g[rnd], factors[rnd, 0])
                # a bool array is its 0/1 bytes, so the view skips a cast
                bits = decide(g, points).view(np.uint8).take(sources)
                at = np.add(bits @ _NIBBLE_WEIGHTS, base)
                if keep:
                    history.append(at)
            cts = [bits_to_state(b) for b in bits.reshape(walked, -1)]
            ats, f = np.stack(history) if keep else None, factors[:, :, 0]
        else:
            if noisy:
                walks, counted, f = self._nominal_walks(pt, sigmas, points, traces is not None)
                errors += counted if count_errors else 0
            else:
                x, words = pt, [pt]
                for tables, key in self._ideal_reads():  # the wiring commutes with the key's ^
                    words.append(x := sum(map(getitem, tables, x.to_bytes(width, "little"))) ^ key)
                walks = [words]
            cts, ats, sources = [words[-1] for words in walks], None, sources.reshape(-1, 4)
            if keep:
                # the first walk's words, nibbles low first, as the rows they select
                raw = np.frombuffer(b"".join(w.to_bytes(width, "little") for w in walks[0]), np.uint8)
                ats = np.stack([raw & 15, raw >> 4], axis=-1).reshape(rounds + 1, -1) + base
        if keep:
            read, nibbles = ats[:-1], (ats & 15).astype(np.uint8)
        if rows_counted:
            # each read's digital value, routed as its sensed bits were
            cells = state.sb_bits.reshape(-1, 4).take(read, axis=0)
            expected = cells.reshape(rounds, walked, -1, 4) ^ state.partner_bits[:, None]
            routed = expected.reshape(rounds, -1).take(sources, axis=1)
            wrong = _POPCOUNT.take((routed @ _NIBBLE_WEIGHTS) ^ nibbles[1:])
            errors += wrong.reshape(rounds, walked, -1).sum(axis=(0, 2))
        if traces is not None:
            # one capture repeats the block's reads: the same rows, the same factors
            analog = read_round(state, read, np.arange(rounds), self.scheme, f)
            outputs = analog.bits @ _NIBBLE_WEIGHTS
            record = BlockTrace(analog, nibbles, outputs, self.blocks_encrypted, self.mask)
            traces += map(RoundTrace, repeat(record), range(rounds))
        reads = lanes * rounds
        xor_kind, ro_kind = SENSE_EVENT[self.scheme.name]
        self.current_log = EventLog(self.variant.name, self.scheme.name, reads, {
            "decoder_cycle": self.variant.nibbles * reads,
            "selector_cycle": reads,
            "register_cycle": reads,
            xor_kind: self._n_xor * reads,
            ro_kind: self._n_readout * reads,
        })
        self.reads_executed += reads
        self.blocks_encrypted += lanes
        return cts * (lanes // walked), errors.repeat(lanes // walked)

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

    def cell_fingerprint(self) -> int:
        return self.state.fingerprint()

    def session_log(self) -> EventLog:
        """Programming events plus the last encrypted block's events."""
        return self.write_log.merged_with(self.current_log)


# ---------------------------------------------------------------------------
# Trace export


# Both exporters write, one run of a block's traces at a time, the bytes one
# json.dumps per record would write.


def _blocks(traces):
    """The traces in runs that view one block's record, in their order:
    each run's record and the rounds it views."""
    for record, run in groupby(traces, key=attrgetter("record")):
        yield record, np.array([t.round_index for t in run], dtype=np.intp)


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
    fp.write(round_trace_header(session, session.mask) + round_trace_records(traces))


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


def round_trace_records(traces) -> str:
    """The round records of `traces`, one line each, in their order."""
    return "".join(_round_lines(record, rounds) for record, rounds in _blocks(traces))


# the code point of each hex digit, so that a row of nibbles is a str
_HEX_DIGITS = np.array([ord(c) for c in "0123456789abcdef"], dtype=np.uint32)


def _round_lines(record: BlockTrace, rounds: np.ndarray) -> str:
    """The round records of `rounds` of one block's record, in that order:
    every hex field in one lookup, every line in one fill of a template."""
    # each field's nibbles, most significant first: inputs, outputs, post state
    states, digits = record.states, record.states.shape[1]
    nibbles = np.concatenate(
        [states[rounds, ::-1], record.outputs[rounds, ::-1], states[rounds + 1, ::-1]], axis=1
    )
    values = np.empty((len(rounds), 4), dtype=object)
    values[:, 0] = rounds
    values[:, 1:] = _HEX_DIGITS.take(nibbles).view(f"U{digits}")
    template = (
        f'{{"record": "round", "block": {record.block:d}, "round": %d, '
        f'"active_mask": "{record.active_mask:x}", '
        f'"inputs": "%s", "outputs": "%s", "post_state": "%s"}}\n'
    )
    return (template * len(rounds)) % tuple(values.ravel().tolist())


def _format_tails(capture: ReadCapture, kind: str, at) -> list:
    """The tails, everything after the column, of `kind` records of the
    flat entries `at` of a capture, one line each, in the order of `at`:
    stored bits, r_eq, nodes, bit."""
    stored = (capture.sb_bits, capture.partner_bits)[: 2 if kind == "xor" else 1]
    tail_parts = _record_parts({
        "slice": _SLOT, "round": _SLOT, "column": _SLOT, "kind": kind,
        "stored_bits": [_SLOT] * len(stored), "r_eq": _SLOT,
        "nodes": dict.fromkeys(capture.nodes[kind], _SLOT), "bit": _SLOT,
    })[3:]
    # the stored bits and the sensed bit, as 0/1 bytes, in one conversion
    cells = [f.take(at) for f in stored] + [capture.bits.take(at).view(np.uint8)]
    cells = _json_texts(np.stack(cells, axis=-1))
    nodes = np.stack([v.take(at) for v in capture.nodes[kind].values()], axis=-1)
    values = np.concatenate([
        cells[:, :-1], _json_texts(capture.r_eq.take(at))[:, None],
        _json_texts(nodes, 6), cells[:, -1:],
    ], axis=-1)
    texts = np.empty((len(values), 2 * len(tail_parts) - 1), dtype=object)
    texts[:, ::2] = np.array(tail_parts, dtype=object)
    texts[:, 1::2] = values
    # json.dumps escapes every line break, so each tail is one line
    return "".join(texts.ravel().tolist()).splitlines(keepends=True)


def _tails(capture: ReadCapture, reads=slice(None)) -> np.ndarray:
    """The record tail of every entry of a capture's reads `reads`, all of
    its entries by default, a read-only object array of their shape: XOR
    records on XOR-sensed columns, read-out records elsewhere.  Only the
    selected entries are formatted."""
    at = np.arange(capture.bits.size).reshape(capture.bits.shape)[reads]
    xor = np.broadcast_to(capture.xor_mask, capture.bits.shape)[reads]
    tails = np.empty(at.shape, dtype=object)
    for kind, sensed in (("xor", xor), ("readout", ~xor)):
        tails[sensed] = np.array(_format_tails(capture, kind, at[sensed]), dtype=object)
    tails.setflags(write=False)
    return tails


# the tails of a nominal grid's pairings, formatted once per grid
_grid_tails = lru_cache(maxsize=64)(_tails)


@lru_cache(maxsize=8)
def _prefixes(reads: int, slices: int) -> np.ndarray:
    """Every record's text up to its tail, for captures of `reads` reads on
    `slices` slices: entry [i, j, col] is column col of slice j in read i."""
    head = _record_parts({"slice": _SLOT, "round": _SLOT, "column": _SLOT})
    prefixes = (
        (head[0] + _json_texts(np.arange(slices)) + head[1])[None, :, None]
        + (_json_texts(np.arange(reads)) + head[2])[:, None, None]
        + _json_texts(np.arange(4))
    )
    prefixes.setflags(write=False)
    return prefixes


def export_analog_trace(traces, fp) -> None:
    """JSON lines: one record per column per read (its amp kind, selected
    cells' bits, r_eq, node volts and bit), from each block's capture.  A
    line is its read's, slice's and column's prefix and its tail; a
    capture gathered from the nominal grid gathers its tails too, a sensed
    one formats the tails of the reads the run views."""
    for record, reads in _blocks(traces):
        analog = record.analog
        lines = np.empty((len(reads),) + analog.xor_mask.shape + (2,), dtype=object)
        lines[..., 0] = _prefixes(*analog.bits.shape[:2])[reads]
        if analog.pairing is not None:
            lines[..., 1] = _grid_tails(analog.grid)[analog.pairing[reads]]
        else:
            lines[..., 1] = _tails(analog, reads)
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
    seed: Optional[int] = None,
    base_params: Optional[DeviceParams] = None,
    feedback: str = "permuted",
) -> list[SweepPoint]:
    """Cycle-to-cycle variation sweep with common random numbers.

    Every sigma point replays the same trial keys, plaintexts and noise
    draws (scaled by sigma), so the empirical error counts are directly
    comparable across the grid.  Each trial programs one session, which
    serves every sigma point: the points are the lanes of one batched pass
    over the rounds, and the reference ciphertext is computed once.  The
    sweep's seed is `seed`, or the base device's seed when it is None.
    Every argument is checked before the first trial, as a session checks it.
    """
    variant, scheme, base = _session_args(variant, scheme, base_params, feedback, "base_params")
    blocks = check_int(blocks, "blocks", PipelineError)
    # DeviceParams checks the seed, and each sigma as a lane: the base
    # device at that sigma_c2c, with the base's sigma_d2d
    try:
        seed = replace(base, seed=base.seed if seed is None else seed).seed
        sigmas = tuple(float(replace(base, sigma_c2c=s).sigma_c2c) for s in sigmas)
    except CrossbarError as exc:
        raise PipelineError(str(exc)) from None
    except TypeError:  # only iterating sigmas raises it: DeviceParams raises CrossbarError
        raise PipelineError(f"sigmas must be an iterable of numbers, got {sigmas!r}") from None
    if not sigmas:
        return []
    bit_errors = np.zeros(len(sigmas), dtype=np.int64)
    block_errors = np.zeros(len(sigmas), dtype=np.int64)
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
    sensed = blocks * variant.rounds * variant.block_bits
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
