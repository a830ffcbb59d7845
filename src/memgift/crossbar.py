"""Analog-behavioral model of one 1T1R slice.

A slice holds a 16x4 S-box LUT region (word lines 0..15) and a key/constant
region (word lines 16..16+rounds-1) on shared bit lines.  A round read
selects one row in each region; the selected cells sit in parallel on each
bit line and the resulting equivalent resistance is resolved by a sense
amplifier into a digital bit.

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
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .layout import SliceKeyMatrix


class CrossbarError(ValueError):
    """Bad geometry, selection or sense input."""


class ConfigError(ValueError):
    """Malformed or unknown key in a parameter file."""


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
        if not self.r_hrs > self.r_lrs > 0:
            raise CrossbarError("need r_hrs > r_lrs > 0")
        if self.sigma_d2d < 0 or self.sigma_c2c < 0:
            raise CrossbarError("variation sigmas must be non-negative")
        if self.vdd <= 0:
            raise CrossbarError("vdd must be positive")
        if self.wire_r_per_cell < 0:
            raise CrossbarError("wire resistance must be non-negative")


def variation_factor(sigma: float, z):
    """Multiplicative resistance variation: 1 + sigma*z with z clamped."""
    z = np.clip(z, -VARIATION_CLAMP_SIGMA, VARIATION_CLAMP_SIGMA)
    return np.maximum(1.0 + sigma * z, MIN_RESISTANCE_FACTOR)


@dataclass(frozen=True)
class MemristorCell:
    logic_state: str  # "LRS" stores '1', "HRS" stores '0'
    programmed_resistance: float

    @property
    def bit(self) -> int:
        return 1 if self.logic_state == "LRS" else 0


def nominal_resistance(bit: int, params: DeviceParams) -> float:
    return params.r_lrs if bit else params.r_hrs


@dataclass
class SliceArray:
    """Programmed resistive state of one slice.

    All arrays are read-only once programmed: a round read can never move
    a cell between resistive states.
    """

    slice_index: int
    sb_bits: np.ndarray  # (16, 4) uint8
    sb_res: np.ndarray  # (16, 4) float
    key_bits: np.ndarray  # (rounds, len(key_columns)) uint8
    key_res: np.ndarray  # same shape, float
    key_columns: tuple[int, ...]

    @property
    def rounds(self) -> int:
        return self.key_bits.shape[0]

    @property
    def has_rc_column(self) -> bool:
        return 3 in self.key_columns

    @property
    def cell_count(self) -> int:
        return self.sb_bits.size + self.key_bits.size

    def cell(self, region: str, row: int, col: int) -> MemristorCell:
        if region == "sb":
            bit, res = int(self.sb_bits[row, col]), float(self.sb_res[row, col])
        elif region == "key":
            k = self.key_columns.index(col)
            bit, res = int(self.key_bits[row, k]), float(self.key_res[row, k])
        else:
            raise CrossbarError(f"unknown region {region!r}")
        return MemristorCell("LRS" if bit else "HRS", res)

    def state_fingerprint(self) -> int:
        return hash((self.sb_bits.tobytes(), self.key_bits.tobytes()))


def program_slice(
    key_matrix: SliceKeyMatrix,
    sbox_matrix: np.ndarray,
    params: DeviceParams,
    rng: Optional[np.random.Generator] = None,
) -> SliceArray:
    """Write one slice: every cell's state matches its layout bit and its
    resistance is drawn once (device-to-device variation)."""
    sb_bits = np.asarray(sbox_matrix, dtype=np.uint8)
    key_bits = np.asarray(key_matrix.bits, dtype=np.uint8)
    if sb_bits.shape != (16, 4):
        raise CrossbarError(f"S-box region must be 16x4, got {sb_bits.shape}")
    if key_bits.ndim != 2 or key_bits.shape[1] != len(key_matrix.columns):
        raise CrossbarError("key region shape does not match its column list")

    def resistances(bits: np.ndarray) -> np.ndarray:
        res = np.where(bits != 0, params.r_lrs, params.r_hrs).astype(float)
        if params.sigma_d2d > 0:
            if rng is None:
                raise CrossbarError("sigma_d2d > 0 requires an RNG")
            res = res * variation_factor(params.sigma_d2d, rng.standard_normal(bits.shape))
        return res

    sb_res = resistances(sb_bits)
    key_res = resistances(key_bits)
    for arr in (sb_bits, sb_res, key_bits, key_res):
        arr.setflags(write=False)
    return SliceArray(
        slice_index=key_matrix.slice_index,
        sb_bits=sb_bits,
        sb_res=sb_res,
        key_bits=key_bits,
        key_res=key_res,
        key_columns=key_matrix.columns,
    )


# ---------------------------------------------------------------------------
# Address decoders and the shared RC/RK round selector


@dataclass(frozen=True)
class DecoderModel:
    """NAND/NOR-tree address decoder abstracted to its one-hot function."""

    width_in: int
    width_out: int

    def decode(self, value: int) -> tuple[int, ...]:
        if not 0 <= value < (1 << self.width_in):
            raise CrossbarError(
                f"decoder input {value} outside {self.width_in}-bit range"
            )
        if value >= self.width_out:
            raise CrossbarError(
                f"decoder input {value} has no word line (only {self.width_out})"
            )
        return tuple(1 if i == value else 0 for i in range(self.width_out))


SB_DECODER = DecoderModel(4, 16)


def round_selector(rounds: int) -> DecoderModel:
    """6-bit counter driving a 6-to-`rounds` decoder."""
    return DecoderModel(6, rounds)


def select_rows(
    slice_array: SliceArray, sb_input: int, rnd: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Assert exactly one S-box word line and one key-region word line."""
    sb_onehot = SB_DECODER.decode(sb_input)
    key_onehot = round_selector(slice_array.rounds).decode(rnd)
    return sb_onehot, key_onehot


# ---------------------------------------------------------------------------
# Bit line


def bitline_equivalent_resistance(
    cell_resistances: Sequence[float], wire_r: float = 0.0
) -> float:
    """Parallel combination of the selected cells, each with its series
    path resistance."""
    if not cell_resistances:
        raise CrossbarError("no selected cells on a sensed column")
    conductance = 0.0
    for r in cell_resistances:
        branch = r + wire_r
        if branch <= 0:
            raise CrossbarError("non-positive branch resistance")
        if not math.isinf(branch):
            conductance += 1.0 / branch
    if conductance == 0.0:
        return math.inf
    return 1.0 / conductance


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
    bit: int
    nodes: dict  # node name -> volts (divider taps and decision nodes)
    decisions: tuple  # (node name, decided bit) per comparator


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

    def sense(self, r_eq: float, vdd: float) -> SenseResult:
        if r_eq <= 0:
            raise CrossbarError("non-positive equivalent resistance")
        v1_div = _divider_low(r_eq, self.m1, vdd)
        v2_div = _divider_low(r_eq, self.m2, vdd)
        v1 = float(_regenerate(v1_div, self.vth, self.gain, vdd))
        v2 = float(_regenerate(v2_div, self.vth, self.gain, vdd))
        c1, c2 = int(v1 > self.vth), int(v2 > self.vth)
        return SenseResult(
            bit=c1 ^ c2,
            nodes={"v1_divider": v1_div, "v2_divider": v2_div, "v1": v1, "v2": v2},
            decisions=(("v1", c1), ("v2", c2)),
        )

    def decide(self, r_eq: np.ndarray, vdd: float) -> np.ndarray:
        c1 = _divider_low(r_eq, self.m1, vdd) > self.vth
        c2 = _divider_low(r_eq, self.m2, vdd) > self.vth
        return (c1 ^ c2).astype(np.uint8)


@dataclass(frozen=True)
class ScoutingReadoutAmp:
    """Plain read-out: the scouting VSA shrunk to the single branch m1,
    with the XOR gate replaced by an OR gate (so one comparator decides)."""

    m1: float = 550.0e3
    vth: float = 0.45
    gain: float = 4.0

    def sense(self, r_eq: float, vdd: float) -> SenseResult:
        if r_eq <= 0:
            raise CrossbarError("non-positive equivalent resistance")
        v_div = _divider_low(r_eq, self.m1, vdd)
        v = float(_regenerate(v_div, self.vth, self.gain, vdd))
        c = int(v > self.vth)
        return SenseResult(bit=c, nodes={"v1_divider": v_div, "v1": v}, decisions=(("v1", c),))

    def decide(self, r_eq: np.ndarray, vdd: float) -> np.ndarray:
        return (_divider_low(r_eq, self.m1, vdd) > self.vth).astype(np.uint8)


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

    def sense(self, r_eq: float, vdd: float) -> SenseResult:
        if r_eq <= 0:
            raise CrossbarError("non-positive equivalent resistance")
        x1_div = _divider_low(r_eq, self.r_and, vdd)
        x2_div = _divider_high(r_eq, self.r_nor, vdd)
        x1v = float(_regenerate(x1_div, self.vref_and, self.gain, vdd))
        x2v = float(_regenerate(x2_div, self.vref_nor, self.gain, vdd))
        x1, x2 = int(x1v > self.vref_and), int(x2v > self.vref_nor)
        return SenseResult(
            bit=int(not (x1 or x2)),
            nodes={"x1_divider": x1_div, "x2_divider": x2_div, "x1": x1v, "x2": x2v},
            decisions=(("x1", x1), ("x2", x2)),
        )

    def decide(self, r_eq: np.ndarray, vdd: float) -> np.ndarray:
        x1 = _divider_low(r_eq, self.r_and, vdd) > self.vref_and
        x2 = _divider_high(r_eq, self.r_nor, vdd) > self.vref_nor
        return (~(x1 | x2)).astype(np.uint8)


@dataclass(frozen=True)
class DualReadoutAmp:
    """Single read-out amp of the dual-SA scheme."""

    vref: float = 0.43
    r_ro: float = 48.0e3
    gain: float = 4.0

    def sense(self, r_eq: float, vdd: float) -> SenseResult:
        if r_eq <= 0:
            raise CrossbarError("non-positive equivalent resistance")
        v_div = _divider_low(r_eq, self.r_ro, vdd)
        v = float(_regenerate(v_div, self.vref, self.gain, vdd))
        c = int(v > self.vref)
        return SenseResult(bit=c, nodes={"v1_divider": v_div, "v1": v}, decisions=(("v1", c),))

    def decide(self, r_eq: np.ndarray, vdd: float) -> np.ndarray:
        return (_divider_low(r_eq, self.r_ro, vdd) > self.vref).astype(np.uint8)


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
                elif value <= 0:
                    raise CrossbarError(f"{self.name}: {f.name} must be positive")


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


def sense(r_eq: float, sa, vdd: float = 0.9) -> SenseResult:
    """Resolve one bit-line resistance with the given amp model."""
    return sa.sense(r_eq, vdd)


# ---------------------------------------------------------------------------
# One round read on one slice


@dataclass(frozen=True)
class ColumnRead:
    slice_index: int
    round_index: int
    column: int
    kind: str  # "xor" | "readout"
    stored_bits: tuple[int, ...]
    r_eq: float
    nodes: dict
    bit: int

    def to_json_dict(self) -> dict:
        return {
            "slice": self.slice_index,
            "round": self.round_index,
            "column": self.column,
            "kind": self.kind,
            "stored_bits": list(self.stored_bits),
            "r_eq": self.r_eq,
            "nodes": {k: round(v, 6) for k, v in self.nodes.items()},
            "bit": self.bit,
        }


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


def read_round(
    slice_array: SliceArray,
    sb_input: int,
    rnd: int,
    scheme,
    params: DeviceParams,
    rng: Optional[np.random.Generator] = None,
) -> tuple[int, list[ColumnRead]]:
    """Resolve all four columns of one slice for one round.

    Key columns are XOR-sensed (S-box cell against key/constant cell); the
    remaining columns are read out alone.  Returns the output nibble and
    one ColumnRead per column.
    """
    scheme = scheme_for(scheme)
    if not 0 <= rnd < slice_array.rounds:
        raise CrossbarError(f"round {rnd} out of range")
    sb_onehot, key_onehot = select_rows(slice_array, sb_input, rnd)
    sb_row = sb_onehot.index(1)
    key_row = key_onehot.index(1)
    factors = None
    if params.sigma_c2c > 0:
        factors = draw_read_factors((params.sigma_c2c,), rng)[0, 0]

    out = 0
    reads = []
    for col in range(4):
        sb_r = float(slice_array.sb_res[sb_row, col])
        sb_bit = int(slice_array.sb_bits[sb_row, col])
        if factors is not None:
            sb_r *= factors[0, col]
        cells = [sb_r]
        stored = [sb_bit]
        if col in slice_array.key_columns:
            k = slice_array.key_columns.index(col)
            key_r = float(slice_array.key_res[key_row, k])
            if factors is not None:
                key_r *= factors[1, col]
            cells.append(key_r)
            stored.append(int(slice_array.key_bits[key_row, k]))
            amp, kind = scheme.xor_amp, "xor"
        else:
            amp, kind = scheme.readout_amp, "readout"
        r_eq = bitline_equivalent_resistance(cells, params.wire_r_per_cell)
        result = amp.sense(r_eq, params.vdd)
        out |= result.bit << col
        reads.append(
            ColumnRead(
                slice_index=slice_array.slice_index,
                round_index=rnd,
                column=col,
                kind=kind,
                stored_bits=tuple(stored),
                r_eq=r_eq,
                nodes=result.nodes,
                bit=result.bit,
            )
        )
    return out, reads


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
    reporting every comparator's decision node."""
    scheme = scheme_for(scheme)
    scheme.validate(params.vdd)
    records = []

    def audit(amp, name, combos):
        for bits in combos:
            cells = [nominal_resistance(b, params) for b in bits]
            r_eq = bitline_equivalent_resistance(cells, params.wire_r_per_cell)
            result = amp.sense(r_eq, params.vdd)
            for node, decision in result.decisions:
                records.append(
                    MarginRecord(name, bits, node, result.nodes[node], decision)
                )

    audit(scheme.xor_amp, f"{scheme.name}.xor", [(1, 1), (1, 0), (0, 1), (0, 0)])
    audit(scheme.readout_amp, f"{scheme.name}.readout", [(1,), (0,)])
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
# Parameter files: `name = value` lines, # comments.  Device keys are the
# DeviceParams field names; sense-amp keys are prefixed with the amp they
# configure, e.g. `sxor.m1 = 2000` or `ro_d.vref = 0.43`.

_AMP_SECTIONS = {
    "sxor": ("xor_amp", ScoutingXorAmp),
    "ro_s": ("readout_amp", ScoutingReadoutAmp),
    "dxor": ("xor_amp", DualXorAmp),
    "ro_d": ("readout_amp", DualReadoutAmp),
}


def parse_kv_file(path) -> dict[str, str]:
    entries = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `name = value`")
        name, _, value = line.partition("=")
        name, value = name.strip(), value.strip()
        if not name or not value:
            raise ConfigError(f"{path}:{lineno}: expected `name = value`")
        if name in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key {name!r}")
        entries[name] = value
    return entries


def load_device_config(path) -> tuple[DeviceParams, dict[str, SenseAmpScheme]]:
    """Build DeviceParams and both sense-amp schemes from a config file."""
    entries = parse_kv_file(path)
    device_fields = {f.name: f for f in fields(DeviceParams)}
    device_kwargs = {}
    amp_overrides: dict[str, dict[str, float]] = {k: {} for k in _AMP_SECTIONS}

    for name, value in entries.items():
        try:
            if "." in name:
                section, _, key = name.partition(".")
                if section not in _AMP_SECTIONS:
                    raise ConfigError(f"unknown parameter section {section!r}")
                _, amp_cls = _AMP_SECTIONS[section]
                if key not in {f.name for f in fields(amp_cls)}:
                    raise ConfigError(f"unknown {section} parameter {key!r}")
                amp_overrides[section][key] = float(value)
            elif name in device_fields:
                caster = int if name == "seed" else float
                device_kwargs[name] = caster(value)
            else:
                raise ConfigError(f"unknown device parameter {name!r}")
        except ValueError:
            raise ConfigError(f"parameter {name!r}: invalid value {value!r}") from None

    try:
        params = DeviceParams(**device_kwargs)
    except CrossbarError as exc:
        raise ConfigError(str(exc)) from None
    schemes = {
        "sxor": SenseAmpScheme(
            "sxor",
            ScoutingXorAmp(**amp_overrides["sxor"]),
            ScoutingReadoutAmp(**amp_overrides["ro_s"]),
        ),
        "dxor": SenseAmpScheme(
            "dxor",
            DualXorAmp(**amp_overrides["dxor"]),
            DualReadoutAmp(**amp_overrides["ro_d"]),
        ),
    }
    for scheme in schemes.values():
        try:
            scheme.validate(params.vdd)
        except CrossbarError as exc:
            raise ConfigError(str(exc)) from None
    return params, schemes
