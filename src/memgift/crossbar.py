"""Analog-behavioral model of the 1T1R slices.

A slice holds a 16x4 S-box LUT region (word lines 0..15) and a key/constant
region (word lines 16..16+rounds-1) on shared bit lines.  A round read
selects one row in each region; the selected cells sit in parallel on each
bit line and the resulting equivalent resistance is resolved by a sense
amplifier into a digital bit.

`program_slice` writes every slice of a layout in one pass, into the
stacked `ProgrammedState` a session holds once.  One vectorised read serves
every mode: `column_resistances` gives every column's bit-line resistance
and `resolve` senses it with the amp's one statement of its maths.  The
fast path stops at the bits; `read_round` is the same read with node
capture, over all of a block's rounds in one pass, as columnar arrays.

On nominal cells every read is one of six pairings: an S-box cell holding
0 or 1 against a partner holding 0 or 1 (sensed by the XOR amp) or no
partner (sensed by the read-out amp).  That grid is the one statement of
a nominal read: `nominal_reads` gives its bits, from which a session
gathers its read table, and `sense_margin_report` its captured nodes.

Electrical model
----------------
Each sense branch is a resistive divider followed by a regenerative output
stage.  The divider node is v = vdd*m/(m + r_eq) (or the mirrored
orientation for branches that must fire on high resistance), and the
reported decision node is the regenerated output

    v_out = clamp(vref + gain*(v - vref), 0, vdd)

which leaves every decision boundary where the raw divider crosses its
reference but restores the output swing the way a real sense amplifier
does.  A passive divider alone cannot separate the both-LRS band (r_lrs/2)
from the mixed band (~r_lrs) by the required output margins: those bands
differ by less than 2x while a mid-supply divider needs 2.25x.  Gain,
branch resistances, and the nominal LRS/HRS values are therefore
calibration constants, not measured device data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .errors import MemgiftError, read_text
from .layout import SliceKeyMatrix


class CrossbarError(MemgiftError, ValueError):
    """Bad geometry, selection or sense input."""


class ConfigError(MemgiftError, ValueError):
    """Malformed or unknown key in a parameter file, or a parameter out of
    range."""


# Clamp for the Gaussian variation draws, in units of sigma.
VARIATION_CLAMP_SIGMA = 4.0
# Hard floor on any resistance multiplier, so devices stay resistive.
MIN_RESISTANCE_FACTOR = 0.01


@dataclass(frozen=True)
class DeviceParams:
    """Device and array parameters.

    r_lrs/r_hrs are calibration constants chosen so that both sensing
    schemes resolve all operand combinations with the required margins;
    they are not vendor corner values.  wire_r_per_cell is a lumped series
    resistance per selected path and also stands in for the access
    transistor's on-resistance.
    """

    r_lrs: float = 2.8e3
    r_hrs: float = 1.0e6
    wire_r_per_cell: float = 0.0
    sigma_d2d: float = 0.0
    sigma_c2c: float = 0.0
    vdd: float = 0.9
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "seed" and not math.isfinite(value):
                raise CrossbarError(f"{f.name} must be finite, got {value}")
        if self.seed < 0:
            raise CrossbarError(f"seed must be non-negative, got {self.seed}")
        if not self.r_hrs > self.r_lrs > 0:
            raise CrossbarError("need r_hrs > r_lrs > 0")
        if self.sigma_d2d < 0 or self.sigma_c2c < 0:
            raise CrossbarError("variation sigmas must be non-negative")
        if self.vdd <= 0:
            raise CrossbarError("vdd must be positive")
        if self.wire_r_per_cell < 0:
            raise CrossbarError("wire resistance must be non-negative")
        # The largest bit-line resistance a read can meet, an HRS cell at the
        # top of both variation clamps read out alone, must be finite, and so
        # must its round trip through the conductance the read sums.
        d2d, c2c = (1 + VARIATION_CLAMP_SIGMA * s for s in (self.sigma_d2d, self.sigma_c2c))
        r_max = self.r_hrs * d2d * c2c + self.wire_r_per_cell
        if not (math.isfinite(r_max) and math.isfinite(1 / (1 / r_max))):
            raise CrossbarError(
                "the largest read resistance, r_hrs*(1 + 4*sigma_d2d)*(1 + 4*sigma_c2c) + "
                f"wire_r_per_cell, is not finite at sigma_d2d={self.sigma_d2d}, "
                f"sigma_c2c={self.sigma_c2c}"
            )


def variation_factor(sigma: float, z):
    """Multiplicative resistance variation: 1 + sigma*z with z clamped."""
    z = np.clip(z, -VARIATION_CLAMP_SIGMA, VARIATION_CLAMP_SIGMA)
    return np.maximum(1.0 + sigma * z, MIN_RESISTANCE_FACTOR)


@dataclass(frozen=True, eq=False)
class ProgrammedState:
    """Programmed state of every slice, stacked along the slice axis S.

    Each column has one S-box cell per S-box row and, on key columns, one
    partner (key/constant) cell per round; read-out columns have no
    partner, which the stack encodes as an infinite resistance.  The
    branch conductances of ideal reads are computed once, here.  Written
    by `program_slice`; its arrays are read-only, so a read can never move
    a cell between resistive states.
    """

    sb_bits: np.ndarray  # (S, 16, 4) uint8
    sb_res: np.ndarray  # (S, 16, 4) float
    partner_bits: np.ndarray  # (S, rounds, 4) uint8, 0 on read-out columns
    partner_res: np.ndarray  # (S, rounds, 4) float, inf on read-out columns
    xor_mask: np.ndarray  # (S, 4) bool, True on XOR-sensed columns
    wire_r: float
    sb_g: np.ndarray = field(init=False, repr=False)
    partner_g: np.ndarray = field(init=False, repr=False)  # (rounds, S, 4)
    slice_index: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for a in (self.sb_bits, self.sb_res, self.partner_bits, self.partner_res, self.xor_mask):
            a.setflags(write=False)
        object.__setattr__(self, "sb_g", 1.0 / (self.sb_res + self.wire_r))
        # round-major, so that a read of several rounds gathers them at once
        partner_g = 1.0 / (self.partner_res.transpose(1, 0, 2) + self.wire_r)
        object.__setattr__(self, "partner_g", np.ascontiguousarray(partner_g))
        object.__setattr__(self, "slice_index", np.arange(len(self.sb_bits)))

    @property
    def rounds(self) -> int:
        return self.partner_bits.shape[1]

    @property
    def cell_count(self) -> int:
        """Cells written: every S-box cell and every key-column partner."""
        return self.sb_bits.size + self.rounds * int(self.xor_mask.sum())

    def fingerprint(self) -> int:
        arrays = (self.sb_bits, self.sb_res, self.partner_bits, self.partner_res)
        return hash(tuple(a.tobytes() for a in arrays))


def program_slice(
    key_matrices: Sequence[SliceKeyMatrix],
    sbox_matrix: np.ndarray,
    params: DeviceParams,
    rngs: Optional[Sequence[np.random.Generator]] = None,
) -> ProgrammedState:
    """Write every slice in one pass: slice j gets the S-box region and
    the key region of key_matrices[j].

    Every cell's state matches its layout bit and its resistance is drawn
    once (device-to-device variation): slice j draws its S-box normals,
    then its key normals, from rngs[j], which only sigma_d2d > 0 needs.
    """
    sb_bits = np.asarray(sbox_matrix, dtype=np.uint8)
    if sb_bits.shape != (16, 4):
        raise CrossbarError(f"S-box region must be 16x4, got {sb_bits.shape}")
    widths = [len(km.columns) for km in key_matrices]
    key_bits = [np.asarray(km.bits, dtype=np.uint8) for km in key_matrices]
    rounds = key_bits[0].shape[0]
    if any(b.shape != (rounds, w) for b, w in zip(key_bits, widths)):
        raise CrossbarError("key region shape does not match its column list")
    S = len(key_bits)
    sb_bits = np.repeat(sb_bits[None], S, axis=0)
    key_bits = np.concatenate(key_bits, axis=1)  # (rounds, key columns)
    sb_res = np.where(sb_bits != 0, params.r_lrs, params.r_hrs)
    key_res = np.where(key_bits != 0, params.r_lrs, params.r_hrs)
    if params.sigma_d2d > 0:
        if rngs is None:
            raise CrossbarError("sigma_d2d > 0 requires an RNG per slice")
        z_sb, z_key = [], []
        for rng, width in zip(rngs, widths, strict=True):
            z_sb.append(rng.standard_normal((16, 4)))
            z_key.append(rng.standard_normal((rounds, width)))
        sb_res = sb_res * variation_factor(params.sigma_d2d, np.stack(z_sb))
        key_res = key_res * variation_factor(params.sigma_d2d, np.concatenate(z_key, axis=1))

    # every slice's key columns, scattered in one assignment per array
    owner = np.repeat(np.arange(S), widths)
    cols = [c for km in key_matrices for c in km.columns]
    partner_bits = np.zeros((S, rounds, 4), dtype=np.uint8)
    partner_res = np.full((S, rounds, 4), np.inf)
    xor_mask = np.zeros((S, 4), dtype=bool)
    partner_bits[owner, :, cols] = key_bits.T
    partner_res[owner, :, cols] = key_res.T
    xor_mask[owner, cols] = True
    return ProgrammedState(
        sb_bits, sb_res, partner_bits, partner_res, xor_mask, params.wire_r_per_cell
    )


# ---------------------------------------------------------------------------
# Sense amplifiers


def _divider_low(r_eq, m: float, vdd: float):
    # node rises toward vdd as r_eq shrinks (more LRS in parallel)
    return vdd * m / (m + r_eq)


def _divider_high(r_eq, m: float, vdd: float):
    # node rises toward vdd as r_eq grows
    return vdd * r_eq / (m + r_eq)


def _regenerate(v, vref: float, gain: float, vdd: float):
    return np.clip(vref + gain * (v - vref), 0.0, vdd)


@dataclass(frozen=True)
class SenseResult:
    bit: object  # bool array, as resolve() returns the bits
    nodes: dict  # node name -> volts (divider taps and decision nodes)
    decisions: tuple  # (node name, decided bit) per comparator


# Each amp states its maths once: `comparators` gives every branch's
# (decision node, raw divider voltage, reference) and `gate` combines the
# comparator outputs into the sensed bit.  Both work on arrays of r_eq.


@dataclass(frozen=True)
class ScoutingXorAmp:
    """Scouting-logic voltage sense amp computing XOR of two cells.

    Two reference branches (m1, m2) threshold the shared bit line; a CMOS
    XOR gate combines the two comparator outputs.  Both-LRS trips both
    comparators, one-LRS only the slack one, both-HRS neither.
    """

    m1: float = 2.0e3
    m2: float = 250.0e3
    vth: float = 0.45
    gain: float = 4.0

    def comparators(self, r_eq, vdd: float):
        return (
            ("v1", _divider_low(r_eq, self.m1, vdd), self.vth),
            ("v2", _divider_low(r_eq, self.m2, vdd), self.vth),
        )

    @staticmethod
    def gate(c1, c2):
        return c1 ^ c2


@dataclass(frozen=True)
class ScoutingReadoutAmp:
    """Plain read-out: the scouting VSA shrunk to the single branch m1,
    with the XOR gate replaced by an OR gate (so one comparator decides)."""

    m1: float = 550.0e3
    vth: float = 0.45
    gain: float = 4.0

    def comparators(self, r_eq, vdd: float):
        return (("v1", _divider_low(r_eq, self.m1, vdd), self.vth),)

    @staticmethod
    def gate(c1):
        return c1


@dataclass(frozen=True)
class DualXorAmp:
    """Dual-sense-amp XOR: Y = NOR(X1_AND, X2_NOR).

    The AND amp fires only when both cells are LRS, the NOR amp only when
    both are HRS.  Branch resistances are calibration constants; the
    reference voltages are the published operating values.
    """

    vref_and: float = 0.45
    vref_nor: float = 0.43
    r_and: float = 2.0e3
    r_nor: float = 40.0e3
    gain: float = 4.0

    def comparators(self, r_eq, vdd: float):
        return (
            ("x1", _divider_low(r_eq, self.r_and, vdd), self.vref_and),
            ("x2", _divider_high(r_eq, self.r_nor, vdd), self.vref_nor),
        )

    @staticmethod
    def gate(x1, x2):
        return ~(x1 | x2)


@dataclass(frozen=True)
class DualReadoutAmp:
    """Single read-out amp of the dual-SA scheme."""

    vref: float = 0.43
    r_ro: float = 48.0e3
    gain: float = 4.0

    def comparators(self, r_eq, vdd: float):
        return (("v1", _divider_low(r_eq, self.r_ro, vdd), self.vref),)

    @staticmethod
    def gate(c1):
        return c1


def resolve(amp, r_eq, vdd: float, capture: bool = False):
    """Sense bit-line resistances r_eq (an array of any shape) with `amp`.

    Every comparator decides on its raw divider voltage.  Returns the bits
    as a bool array; with capture, a SenseResult whose nodes hold the
    divider taps and the regenerated decision nodes.
    """
    comparators = amp.comparators(r_eq, vdd)
    decisions = [v > ref for _, v, ref in comparators]
    bit = amp.gate(*decisions)
    if not capture:
        return bit
    nodes = {f"{name}_divider": v for name, v, _ in comparators}
    for name, v, ref in comparators:
        nodes[name] = _regenerate(v, ref, amp.gain, vdd)
    return SenseResult(bit, nodes, tuple((c[0], d) for c, d in zip(comparators, decisions)))


@dataclass(frozen=True)
class SenseAmpScheme:
    """Per-session pairing of the XOR amp and the read-out amp."""

    name: str
    xor_amp: object
    readout_amp: object

    def validate(self, vdd: float) -> None:
        for amp in (self.xor_amp, self.readout_amp):
            for f in fields(amp):
                value = getattr(amp, f.name)
                if f.name in ("vth", "vref", "vref_and", "vref_nor"):
                    if not 0 < value < vdd:
                        raise CrossbarError(
                            f"{self.name}: reference {f.name}={value} outside (0, {vdd})"
                        )
                elif not (math.isfinite(value) and value > 0):
                    raise CrossbarError(f"{self.name}: {f.name} must be finite and positive")


SXOR_SCHEME = SenseAmpScheme("sxor", ScoutingXorAmp(), ScoutingReadoutAmp())
DXOR_SCHEME = SenseAmpScheme("dxor", DualXorAmp(), DualReadoutAmp())
SCHEMES = {"sxor": SXOR_SCHEME, "dxor": DXOR_SCHEME}


def scheme_for(spec) -> SenseAmpScheme:
    if isinstance(spec, SenseAmpScheme):
        return spec
    try:
        return SCHEMES[spec]
    except KeyError:
        raise CrossbarError(f"unknown sense-amp scheme: {spec!r}") from None


# ---------------------------------------------------------------------------
# One round read on every slice


def draw_read_factors(
    sigmas: Sequence[float], rng: Optional[np.random.Generator], reads: int = 1
) -> np.ndarray:
    """Cycle-to-cycle factors for the next `reads` reads of one slice, one
    set per sigma: shape (len(sigmas), reads, 2, 4).  Row 0 of a read
    scales the four S-box cells, row 1 the four partner cells (unused
    entries are drawn anyway so the stream position never depends on slice
    geometry).  The normals are drawn once, in read order, and scaled by
    every sigma, so all sigmas share one noise stream; drawing `reads`
    reads at once leaves the generator where `reads` single draws would.
    """
    if rng is None:
        raise CrossbarError("sigma_c2c > 0 requires an RNG")
    z = rng.standard_normal((reads, 2, 4))
    return variation_factor(np.asarray(sigmas, dtype=float).reshape(-1, 1, 1, 1), z)


def column_resistances(state: ProgrammedState, rows, rnd, factors=None) -> np.ndarray:
    """Bit-line equivalent resistance of every column when slice j's S-box
    row rows[..., j] and the key row of round rnd are selected: shape
    rows.shape + (4,).  rnd may be an array of rounds: shape (R,) with rows
    (R, S) reads round rnd[i] on rows[i]; shape (k, 1) reads every round on
    every row, giving (k,) + rows.shape + (4,).  factors, shape
    (..., 2, 4), scale the selected S-box ([..., 0, :]) and partner
    ([..., 1, :]) cells; without them the ideal conductances are used."""
    idx = state.slice_index
    if factors is None:
        g = state.sb_g[idx, rows] + state.partner_g[rnd]
    else:
        wire = state.wire_r
        partner_res = state.partner_res.transpose(1, 0, 2)[rnd]
        g = 1.0 / (state.sb_res[idx, rows] * factors[..., 0, :] + wire) + 1.0 / (
            partner_res * factors[..., 1, :] + wire
        )
    return 1.0 / g


# Partner codes of the nominal read grid: a partner cell's bit, or no partner.
PARTNER_ABSENT = 2


def _sense_nominal_grid(scheme: SenseAmpScheme, params: DeviceParams, capture=False):
    """The nominal read grid, sensed as wired: the bit line of an S-box cell
    holding bit s (axis 0) against a partner holding bit p, or no partner
    (p = PARTNER_ABSENT), on nominal cells.  Returns the XOR amp's sense of
    the pairings with a partner, indexed [s, p], and the read-out amp's of
    those without, indexed [s].  The resistances, conductances and r_eq are
    computed as `program_slice` and `column_resistances` compute them, so on
    devices without d2d variation each pairing is bit-exact with the
    kernel's read of any cell pair in that state."""
    sb_res = np.array([params.r_hrs, params.r_lrs])
    partner_res = np.array([params.r_hrs, params.r_lrs, np.inf])
    g = 1.0 / (sb_res[:, None] + params.wire_r_per_cell) + 1.0 / (
        partner_res + params.wire_r_per_cell
    )
    r_eq = 1.0 / g
    return (
        resolve(scheme.xor_amp, r_eq[:, :PARTNER_ABSENT], params.vdd, capture),
        resolve(scheme.readout_amp, r_eq[:, PARTNER_ABSENT], params.vdd, capture),
    )


def nominal_reads(params: DeviceParams, scheme) -> np.ndarray:
    """Every ideal read of nominal cells, sensed once: bool (2, 3), entry
    [s, p] being the bit a column senses with an S-box cell holding bit s
    against a partner holding bit p (XOR-sensed), or no partner (p =
    PARTNER_ABSENT, read out)."""
    return np.column_stack(_sense_nominal_grid(scheme_for(scheme), params))


@dataclass(frozen=True, eq=False)
class ReadCapture:
    """Every node of R reads on every slice, as columns: each array has
    shape (R, S, 4), entry [i, j, col] being column col of slice j in read
    i.  Both amps sense every column; xor_mask says whose bit counts."""

    bits: np.ndarray  # bool, the sensed bits
    r_eq: np.ndarray  # bit-line equivalent resistance
    nodes: dict  # "xor" / "readout" -> node name -> volts
    sb_bits: np.ndarray  # uint8, the selected S-box cell
    partner_bits: np.ndarray  # uint8, the selected partner cell, 0 on read-out columns
    xor_mask: np.ndarray  # (S, 4) bool, True on XOR-sensed columns


def read_round(
    state: ProgrammedState, rows, rnds, scheme, vdd: float, factors=None
) -> ReadCapture:
    """Traced reads, captured in one pass: read i selects round rnds[i] and
    S-box row rows[i, j] on slice j.  rows has shape (R, S), rnds (R,) and
    factors, the reads' cycle-to-cycle factors, (R, S, 2, 4).  Key columns
    are XOR-sensed (S-box cell against key/constant cell); the remaining
    columns are read out alone."""
    scheme = scheme_for(scheme)
    rows, rnds = np.asarray(rows), np.asarray(rnds)
    if rnds.ndim != 1 or not ((rnds >= 0) & (rnds < state.rounds)).all():
        raise CrossbarError(f"need a list of rounds in 0..{state.rounds - 1}")
    in_range = ((rows >= 0) & (rows < 16)).all()
    if rows.shape != rnds.shape + state.slice_index.shape or not in_range:
        raise CrossbarError("need one S-box row in 0..15 per slice and read")
    if factors is not None and np.shape(factors) != rows.shape + (2, 4):
        raise CrossbarError(f"need factors of shape {rows.shape + (2, 4)}")
    r_eq = column_resistances(state, rows, rnds, factors)
    xor = resolve(scheme.xor_amp, r_eq, vdd, capture=True)
    readout = resolve(scheme.readout_amp, r_eq, vdd, capture=True)
    bits = np.where(state.xor_mask, xor.bit, readout.bit)
    nodes = {"xor": xor.nodes, "readout": readout.nodes}
    stored = state.sb_bits[state.slice_index, rows], state.partner_bits[:, rnds].swapaxes(0, 1)
    return ReadCapture(bits, r_eq, nodes, *stored, state.xor_mask)


# ---------------------------------------------------------------------------
# Margin audit


@dataclass(frozen=True)
class MarginRecord:
    amp: str
    operands: tuple[int, ...]
    node: str
    volts: float
    decision: int


def sense_margin_report(scheme, params: DeviceParams) -> list[MarginRecord]:
    """Exhaustive operand sweep of both amps at nominal resistances,
    reporting every comparator's decision node: the nominal read grid that
    `nominal_reads` senses, with its nodes captured."""
    scheme = scheme_for(scheme)
    scheme.validate(params.vdd)
    xor, readout = _sense_nominal_grid(scheme, params, capture=True)
    records = []
    for kind, result, pairings in (
        ("xor", xor, [(1, 1), (1, 0), (0, 1), (0, 0)]),
        ("readout", readout, [(1,), (0,)]),
    ):
        for bits in pairings:
            for node, decided in result.decisions:
                volts = float(result.nodes[node][bits])
                records.append(
                    MarginRecord(f"{scheme.name}.{kind}", bits, node, volts, int(decided[bits]))
                )
    return records


def check_margins(scheme, params: DeviceParams) -> float:
    """Smallest |node - 0.5*vdd band edge| slack; raises if any decision
    node violates the 0.6/0.4*vdd rule."""
    hi, lo = 0.6 * params.vdd, 0.4 * params.vdd
    worst = math.inf
    for rec in sense_margin_report(scheme, params):
        if rec.decision:
            slack = rec.volts - hi
        else:
            slack = lo - rec.volts
        if slack < 0:
            raise CrossbarError(
                f"margin violation: {rec.amp} {rec.node} at {rec.volts:.3f} V "
                f"for operands {rec.operands} (decision {rec.decision})"
            )
        worst = min(worst, slack)
    return worst


# ---------------------------------------------------------------------------
# Parameter files, device and energy alike: `name = value` lines, # comments,
# each name once.  A plain name is one of the file's fields, a dotted
# `section.key` a key of one of its sections.  A device file's fields are the
# DeviceParams fields and its sections the amps, e.g. `sxor.m1 = 2000`.

_AMP_SECTIONS = {
    "sxor": ScoutingXorAmp,
    "ro_s": ScoutingReadoutAmp,
    "dxor": DualXorAmp,
    "ro_d": DualReadoutAmp,
}


def parse_number(name: str, value: str, caster=float):
    """One parameter-file value; a malformed one is a ConfigError."""
    try:
        return caster(value)
    except ValueError:
        raise ConfigError(f"parameter {name!r}: invalid value {value!r}") from None


def read_parameter_file(path, kind: str, casters: dict, sections: dict) -> tuple[dict, dict]:
    """The fields and, per section, the keys (floats) a parameter file of
    `kind` sets.  casters maps each field to the type of its value, and
    sections each section to (its keys, the noun naming one in an error).
    The first error in line order raises a ConfigError."""
    values, section_values, seen = {}, {name: {} for name in sections}, set()
    for lineno, raw in enumerate(read_text(path, ConfigError).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, equals, value = (part.strip() for part in line.partition("="))
        if not (equals and name and value):
            raise ConfigError(f"{path}:{lineno}: expected `name = value`")
        if name in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate key {name!r}")
        seen.add(name)
        section, dot, key = name.partition(".")
        if dot:
            if section not in sections:
                raise ConfigError(f"unknown parameter section {section!r}")
            keys, noun = sections[section]
            if key not in keys:
                raise ConfigError(f"unknown {noun} {key!r}")
            section_values[section][key] = parse_number(name, value)
        elif name in casters:
            values[name] = parse_number(name, value, casters[name])
        else:
            raise ConfigError(f"unknown {kind} parameter {name!r}")
    return values, section_values


def load_device_config(path) -> tuple[DeviceParams, dict[str, SenseAmpScheme]]:
    """Build DeviceParams and both sense-amp schemes from a config file."""
    casters = {f.name: int if f.name == "seed" else float for f in fields(DeviceParams)}
    sections = {
        name: ({f.name for f in fields(amp)}, f"{name} parameter")
        for name, amp in _AMP_SECTIONS.items()
    }
    values, amps = read_parameter_file(path, "device", casters, sections)
    try:
        params = DeviceParams(**values)
        schemes = {
            "sxor": SenseAmpScheme(
                "sxor", ScoutingXorAmp(**amps["sxor"]), ScoutingReadoutAmp(**amps["ro_s"])
            ),
            "dxor": SenseAmpScheme(
                "dxor", DualXorAmp(**amps["dxor"]), DualReadoutAmp(**amps["ro_d"])
            ),
        }
        for scheme in schemes.values():
            scheme.validate(params.vdd)
    except CrossbarError as exc:
        raise ConfigError(str(exc)) from None
    return params, schemes
