"""Analog-behavioral model of the 1T1R slices.

A slice holds a 16x4 S-box LUT region (word lines 0..15) and a key/constant
region (word lines 16..16+rounds-1) on shared bit lines.  A round read
selects one row in each region; the selected cells sit in parallel on each
bit line and the resulting equivalent resistance is resolved by a sense
amplifier into a digital bit.

`program_slice` writes every slice of a layout in one pass, into the
`ProgrammedState` a session holds once: the S-box cells stacked along the
slice axis (a nominal region shared by every state), the partner cells
round-major, as a read of some rounds selects them.  Every read gets a cell path's conductance from one expression,
`path_conductance`, 1/(r*f + wire), so reads of the same cells agree bit
for bit.  One vectorised read serves every mode: `column_conductances`
gives every column's bit-line conductance.  Each amp states its
comparators as data, its `branches`, and each divider orientation's tap
and closed-form threshold conductance are written once, side by side
(`divider_tap`, `divider_threshold`); `resolve` senses a resistance with
the taps.  An uncaptured read (the noisy kernel, a d2d read table) decides
on the conductance directly: the conductances at which an amp's bit
changes are found once per amp, vdd and conductance domain, in a window of
floats around each branch's threshold (`decision_points`), and a read's
bit is the parity of those below its conductance (`decide`), bit for bit
what `resolve` gives.  A captured read reports its nodes, so it evaluates
them from r_eq = 1/g: one function, `sense_capture`, senses every captured
column with both amps into a `ReadCapture`, of `read_round`'s reads (all
of a block's rounds in one pass, as columnar arrays) and of the nominal
grid's pairings alike.

A read selects S-box rows as flat rows: slice j's row x is row 16*j + x
of the stacked cells seen as (S*16, 4), so any selection, of one lane or
many, is one `take`.  The partner branch does not depend on the selected
rows: `partner_conductances` gives it for any set of rounds, so a caller
reading many rounds computes it once.  Every read takes its devices from
the state, which holds the `DeviceParams` its cells were written with.

On nominal cells every read is one of six pairings: an S-box cell holding
0 or 1 against a partner holding 0 or 1 (sensed by the XOR amp) or no
partner (sensed by the read-out amp).  That grid is the one statement of
a nominal read: the `ReadCapture` of the six pairings, captured once per
device values and scheme (`nominal_grid`, read-only).  `sense_margin_report`
gives its nodes and decides each comparator on its divider tap, and
`read_round` gathers every ideal capture of nominal cells from it, with
each column's pairing, so that an export formats each pairing's record
once.  `check_margins` holds the grid to both: every node clear of the
band (the margins) and every bit its pairing's logic value, s ^ p
(`check_logic`, of the pairings `misread_pairings` finds).

An ideal read (no cycle-to-cycle noise) depends only on the round, the
slice and its S-box row while the cells stay as programmed, so
`read_table` gives every ideal read of a state as one table.  It decides
every entry as the noisy read decides, nominal cells and d2d cells alike:
its branches' `path_conductance` summed and compared against its column's
decision points (`column_points`), one column kind at a time: a read-out
column, which has no partner, reads the same in every round.  On nominal
cells that is bit for bit what the nominal grid gives.  A session reads
it only on d2d cells or a grid that misreads a pairing.

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
from dataclasses import dataclass, fields, replace
from functools import cached_property, lru_cache
from numbers import Real
from types import MappingProxyType
from typing import ClassVar, Optional, Sequence

import numpy as np

from .errors import MemgiftError, check_int, read_text


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
        object.__setattr__(self, "seed", check_int(self.seed, "seed", CrossbarError))
        for f in fields(self):
            v = getattr(self, f.name)
            # float, a Real, first: every session checks these, and an ABC check costs ~0.5 us
            if f.name != "seed" and not (isinstance(v, (float, Real)) and math.isfinite(v)):
                raise CrossbarError(f"{f.name} must be a finite number, got {v!r}")
        if not self.r_hrs > self.r_lrs > 0:
            raise CrossbarError("need r_hrs > r_lrs > 0")
        if self.sigma_d2d < 0 or self.sigma_c2c < 0:
            raise CrossbarError("variation sigmas must be non-negative")
        if self.vdd <= 0:
            raise CrossbarError("vdd must be positive")
        if self.wire_r_per_cell < 0:
            raise CrossbarError("wire resistance must be non-negative")
        r_min, r_max = self._cell_path_range()
        # The largest bit-line resistance a read can meet, the largest path
        # read out alone, must be finite, and so must its round trip through
        # the conductance the read sums.
        if not (math.isfinite(r_max) and math.isfinite(1 / (1 / r_max))):
            raise CrossbarError(
                "the largest read resistance, r_hrs*(1 + 4*sigma_d2d)*(1 + 4*sigma_c2c) + "
                f"wire_r_per_cell, is not finite at sigma_d2d={self.sigma_d2d}, "
                f"sigma_c2c={self.sigma_c2c}"
            )
        # The smallest path must have a finite conductance, and so must two
        # such paths in parallel.
        if not (r_min > 0 and math.isfinite(2 / r_min)):
            raise CrossbarError(
                "the smallest read resistance, r_lrs*max(1 - 4*sigma_d2d, 0.01)*"
                "max(1 - 4*sigma_c2c, 0.01) + wire_r_per_cell, has no finite conductance"
                f" at r_lrs={self.r_lrs}, wire_r_per_cell={self.wire_r_per_cell}"
            )

    def _cell_path_range(self) -> tuple[float, float]:
        """The smallest and the largest resistance of one selected cell's
        path: an LRS cell at the bottom of both variation clamps, an HRS
        cell at their top, each plus the wire, computed as the reads compute
        them (`variation_factor`, then r*d2d*c2c + wire)."""
        sigmas = (self.sigma_d2d, self.sigma_c2c)
        d2d, c2c = (max(1 - VARIATION_CLAMP_SIGMA * s, MIN_RESISTANCE_FACTOR) for s in sigmas)
        r_min = self.r_lrs * d2d * c2c + self.wire_r_per_cell
        d2d, c2c = (1 + VARIATION_CLAMP_SIGMA * s for s in sigmas)
        return r_min, self.r_hrs * d2d * c2c + self.wire_r_per_cell

    def conductance_range(self) -> tuple[float, float]:
        """The bit-line conductances a read can meet, (1/r_max, 2/r_min):
        the largest cell path read out alone, and two of the smallest in
        parallel.  Every read's conductance lies in it, because each step
        of the reads' arithmetic is monotone and rounds as it does here."""
        r_min, r_max = self._cell_path_range()
        return 1 / r_max, 2 / r_min


def variation_factor(sigma, z):
    """Multiplicative resistance variation: 1 + sigma*z with z clamped, of
    the shape sigma and z broadcast to (a scalar for scalars).  The product,
    the sum and the floor are written in place, into one output array."""
    # clipped into a C-ordered array whatever z's strides, so the broadcast runs on rows
    z = np.clip(z, -VARIATION_CLAMP_SIGMA, VARIATION_CLAMP_SIGMA, out=np.empty(np.shape(z)))
    f = np.multiply(sigma, z, out=np.empty(np.broadcast_shapes(np.shape(sigma), np.shape(z))))
    f += 1.0
    return np.maximum(f, MIN_RESISTANCE_FACTOR, out=f)[()]


# Partner codes of the nominal read grid: a partner cell's bit, or no partner.
PARTNER_ABSENT = 2


@dataclass(frozen=True, eq=False)
class ProgrammedState:
    """Programmed state of every slice, as `program_slice` writes it: the
    S-box cells stacked along the slice axis S, the partner cells round
    major, as a read of some rounds selects them.

    Each column has one S-box cell per S-box row and, on key columns, one
    partner (key/constant) cell per round; read-out columns have no
    partner, which the state encodes as an infinite resistance.  Its
    arrays are read-only, so a read can never move a cell between
    resistive states.  params are the devices the cells were written with.
    """

    sb_bits: np.ndarray  # (S, 16, 4) uint8
    sb_res: np.ndarray  # (S, 16, 4) float
    partner_bits: np.ndarray  # (rounds, S, 4) uint8, 0 on read-out columns
    partner_res: np.ndarray  # (rounds, S, 4) float, inf on read-out columns
    xor_mask: np.ndarray  # (S, 4) bool, True on XOR-sensed columns
    params: DeviceParams

    def __post_init__(self):
        for a in (self.sb_bits, self.sb_res, self.partner_bits, self.partner_res, self.xor_mask):
            a.setflags(write=False)

    @property
    def nominal(self) -> bool:
        """Every cell holds its state's nominal resistance: the cells were
        written without d2d variation."""
        return self.params.sigma_d2d == 0

    @property
    def rounds(self) -> int:
        return self.partner_bits.shape[0]

    @cached_property
    def partner_codes(self) -> np.ndarray:
        """Every column's partner code per round, read-only (rounds, S, 4)
        ints, as the nominal grid pairs cells: its partner's bit on a key
        column, PARTNER_ABSENT on a read-out column (partner bits 0)."""
        codes = self.partner_bits | PARTNER_ABSENT * ~self.xor_mask
        codes.setflags(write=False)
        return codes

    @property
    def cell_count(self) -> int:
        """Cells written: every S-box cell and every key-column partner."""
        return self.sb_bits.size + self.rounds * int(np.count_nonzero(self.xor_mask))

    def fingerprint(self) -> int:
        """A digest of the cells' bits and resistances, the same in every
        process (`hash` of bytes is salted per process)."""
        import hashlib  # here: `import memgift` would load it for this alone

        digest = hashlib.blake2b(digest_size=8)
        for a in (self.sb_bits, self.sb_res, self.partner_bits, self.partner_res):
            digest.update(a.tobytes())
        return int.from_bytes(digest.digest(), "little")


@lru_cache(maxsize=16)
def _key_cells(columns: tuple) -> np.ndarray:
    """The flat cell 4*j + b of each key column b of slice j, read-only."""
    cells = np.array([4 * j + b for j, cols in enumerate(columns) for b in cols], dtype=np.intp)
    cells.setflags(write=False)
    return cells


@lru_cache(maxsize=64)
def _sbox_region(cells: bytes, slices: int, r_lrs: float, r_hrs: float) -> tuple:
    """The nominal S-box region of `slices` slices holding the (16, 4) bits
    `cells`, its bits and resistances, read-only: shared by every state."""
    sb_bits = np.repeat(np.frombuffer(cells, dtype=np.uint8).reshape(1, 16, 4), slices, axis=0)
    sb_res = np.where(sb_bits != 0, r_lrs, r_hrs)
    for a in (sb_bits, sb_res):
        a.setflags(write=False)
    return sb_bits, sb_res


def program_slice(
    key_bits: np.ndarray,
    columns: Sequence[tuple[int, ...]],
    sbox_matrix: np.ndarray,
    params: DeviceParams,
    rngs: Optional[Sequence[np.random.Generator]] = None,
) -> ProgrammedState:
    """Write every slice in one pass: slice j gets the S-box region and a
    key region on its in-nibble columns columns[j], holding the next
    len(columns[j]) columns of key_bits, shape (rounds, key columns), as a
    `LayoutBundle` holds them.

    Every cell's state matches its layout bit and its resistance is drawn
    once (device-to-device variation): slice j draws its S-box normals,
    then its key normals, from rngs[j], which only sigma_d2d > 0 needs.
    """
    sb_bits = np.asarray(sbox_matrix, dtype=np.uint8)
    if sb_bits.shape != (16, 4):
        raise CrossbarError(f"S-box region must be 16x4, got {sb_bits.shape}")
    key_bits = np.asarray(key_bits, dtype=np.uint8)
    cells, S = _key_cells(tuple(map(tuple, columns))), len(columns)
    if key_bits.ndim != 2 or key_bits.shape[1] != len(cells):
        raise CrossbarError("key region shape does not match its column list")
    rounds = key_bits.shape[0]
    sb_bits, sb_res = _sbox_region(sb_bits.tobytes(), S, params.r_lrs, params.r_hrs)
    key_res = np.where(key_bits != 0, params.r_lrs, params.r_hrs)
    if params.sigma_d2d > 0:
        if rngs is None:
            raise CrossbarError("sigma_d2d > 0 requires an RNG per slice")
        z_sb, z_key = [], []
        for rng, cols in zip(rngs, columns, strict=True):
            z_sb.append(rng.standard_normal((16, 4)))
            z_key.append(rng.standard_normal((rounds, len(cols))))
        sb_res = sb_res * variation_factor(params.sigma_d2d, np.stack(z_sb))
        key_res = key_res * variation_factor(params.sigma_d2d, np.concatenate(z_key, axis=1))

    # every slice's key columns, scattered in one assignment per array
    partner_bits = np.zeros((rounds, S, 4), dtype=np.uint8)
    partner_res = np.full((rounds, S, 4), np.inf)
    xor_mask = np.zeros((S, 4), dtype=bool)
    partner_bits.reshape(rounds, -1)[:, cells] = key_bits
    partner_res.reshape(rounds, -1)[:, cells] = key_res
    xor_mask.reshape(-1)[cells] = True
    return ProgrammedState(sb_bits, sb_res, partner_bits, partner_res, xor_mask, params)


# ---------------------------------------------------------------------------
# Sense amplifiers


# Every comparator is a resistive divider: a branch of resistance m against
# the bit line, r_eq = 1/g, whose tap decides against a fixed reference ref.
# An amp states its comparators as data, `branches`: each one's node name,
# divider orientation, and the fields holding m and ref.  Each orientation's
# tap and the conductance where the exact tap crosses ref, side by side:
#
#     low:  vdd*m/(m + r_eq), above ref where g > ref/(m*(vdd - ref))
#     high: vdd*r_eq/(m + r_eq), above ref where g < (vdd - ref)/(m*ref)
#
# A low tap rises toward vdd as r_eq shrinks (more LRS in parallel), a high
# one as r_eq grows.  `gate` combines the comparator outputs into the bit.


def divider_tap(orientation: str, r_eq, m: float, vdd: float):
    """The tap of a divider of that orientation at bit-line resistances
    r_eq (a float or an array), as the table above states it."""
    return vdd * (m if orientation == "low" else r_eq) / (m + r_eq)


def divider_threshold(orientation: str, m: float, ref: float, vdd: float) -> float:
    """The conductance at which the exact tap crosses ref, as the table
    above states it, in three roundings.  A denominator that underflows to
    0 puts the threshold at inf, beyond every conductance a read meets."""
    num, den = (ref, vdd - ref) if orientation == "low" else (vdd - ref, ref)
    den = m * den
    return num / den if den else math.inf


def _branches(amp) -> list:
    """amp's comparators with their values: (node name, orientation, branch
    resistance, reference) each."""
    return [(node, side, getattr(amp, m), getattr(amp, ref)) for node, side, m, ref in amp.branches]


def _taps(amp, r_eq, vdd: float) -> list:
    """Every comparator's (node name, divider tap, reference) at r_eq."""
    return [(node, divider_tap(side, r_eq, m, vdd), ref) for node, side, m, ref in _branches(amp)]


@dataclass(frozen=True)
class ScoutingXorAmp:
    """Scouting-logic voltage sense amp computing XOR of two cells.

    Two reference branches (m1, m2) threshold the shared bit line; a CMOS
    XOR gate combines the two comparator outputs.  Both-LRS trips both
    comparators, one-LRS only the slack one, both-HRS neither.
    """

    branches: ClassVar = (("v1", "low", "m1", "vth"), ("v2", "low", "m2", "vth"))
    m1: float = 2.0e3
    m2: float = 250.0e3
    vth: float = 0.45
    gain: float = 4.0

    @staticmethod
    def gate(c1, c2):
        return c1 ^ c2


@dataclass(frozen=True)
class ScoutingReadoutAmp:
    """Plain read-out: the scouting VSA shrunk to the single branch m1,
    with the XOR gate replaced by an OR gate (so one comparator decides)."""

    branches: ClassVar = (("v1", "low", "m1", "vth"),)
    m1: float = 550.0e3
    vth: float = 0.45
    gain: float = 4.0

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

    branches: ClassVar = (("x1", "low", "r_and", "vref_and"), ("x2", "high", "r_nor", "vref_nor"))
    vref_and: float = 0.45
    vref_nor: float = 0.43
    r_and: float = 2.0e3
    r_nor: float = 40.0e3
    gain: float = 4.0

    @staticmethod
    def gate(x1, x2):
        return ~(x1 | x2)


@dataclass(frozen=True)
class DualReadoutAmp:
    """Single read-out amp of the dual-SA scheme."""

    branches: ClassVar = (("v1", "low", "r_ro", "vref"),)
    vref: float = 0.43
    r_ro: float = 48.0e3
    gain: float = 4.0

    @staticmethod
    def gate(c1):
        return c1


def resolve(amp, r_eq, vdd: float):
    """Sense bit-line resistances r_eq (an array of any shape) with `amp`:
    every comparator decides on its raw divider voltage.  Returns the bits
    as a bool array."""
    return amp.gate(*(v > ref for _, v, ref in _taps(amp, r_eq, vdd)))


# ---------------------------------------------------------------------------
# Decision points: the sense of an uncaptured read
#
# As a function of a column's conductance g, the bit resolve(amp, 1/g, vdd)
# is a step function: each comparator's exact divider voltage is monotone in
# g, and rounding can move its computed decision only within a few floats of
# its closed-form threshold.  So the conductances where the bit changes are
# found once per amp, around its branches' thresholds, and a read compares g
# against them.

_U = 2.0**-53  # unit roundoff of float64
# bound on the relative error of a computed divider voltage (see _band_floats)
_DIVIDER_ERROR = 5 * _U
# a reference whose band holds more floats than this is rejected by validate
MAX_BAND_FLOATS = 2**20


def _band_floats(ref: float, vdd: float) -> float:
    """At most how many floats g can hold a computed decision `v > ref`
    that differs from the exact one; inf when ref is too close to vdd.

    v takes four roundings from g: 1/g, then one product, one sum and one
    quotient (`divider_tap`).  While the values are normal floats each
    rounding is a factor within 1 +- u (u = 2^-53), and the error of 1/g
    reaches v at most once, so |computed v - exact v| <=
    4u/(1 - u)^2 * v < eps * v with eps = 5u.  The decision can thus differ
    only where the exact v lies in [ref/(1 + eps), ref/(1 - eps)].  With
    x = m*g, v/vdd is x/(1 + x) or 1/(1 + x), both monotone in g, and that
    v interval maps onto a g interval [g_a, g_b] with
    g_b/g_a - 1 = 2*eps*vdd/((1 - eps)*vdd - ref) exactly.  An interval of
    relative width w holds at most w/u + 1 floats (an ulp of g exceeds u*g),
    so the band holds about 10*vdd/(vdd - ref) floats: 21 for the default
    references at vdd/2."""
    slack = (1 - _DIVIDER_ERROR) * vdd - ref
    if not slack > 0:
        return math.inf
    return 2 * (_DIVIDER_ERROR / _U) * vdd / slack + 1


@lru_cache(maxsize=64)
def decision_points(amp, vdd: float, domain: tuple[float, float]) -> np.ndarray:
    """The sorted conductances at which the bit `resolve(amp, 1/g, vdd)`
    changes as g steps through the floats of domain = (lo, hi): a point p
    says that the bit at the float after p differs from the bit at p, and a
    leading -inf that the bit at lo is set.  So the bit at any g of the
    domain is the parity of the points below g (`decide`).  Derived once
    per amp, vdd and domain, from the amp's own branches; read-only.

    Outside a band of floats around the exact step g*, each comparator
    decides as exact arithmetic does (`_band_floats` bounds the band's
    floats).  The computed threshold t (`divider_threshold`) takes three
    roundings, so while the values are normal floats |t/g* - 1| <
    3u/(1 - 2u) < 4u, and at most 4 floats lie from t to g*.  So a window of
    ceil(band) + 4 floats either side of t, clipped to the domain, holds
    every float of the band that lies in the domain, and every float of each
    window is evaluated.  Between the windows no comparator changes, so the
    bit changes exactly where it changes between neighbours of the
    evaluated floats."""
    lo, hi = np.array(domain, dtype=np.float64).view(np.int64).tolist()
    evaluated = [np.array([lo, hi])]
    for _, side, m, ref in _branches(amp):
        t = np.float64(divider_threshold(side, m, ref, vdd)).view(np.int64).item()
        reach = math.ceil(_band_floats(ref, vdd)) + 4
        evaluated.append(np.arange(max(t - reach, lo), min(t + reach, hi) + 1))
    # sorted, each float once: a first np.unique(order) would import numpy.ma (~18 ms)
    order = np.sort(np.concatenate(evaluated))
    g = order[np.append(True, order[1:] != order[:-1])].view(np.float64)
    bits = resolve(amp, 1.0 / g, vdd)
    points = g[:-1][bits[:-1] != bits[1:]]
    if bits[0]:
        points = np.concatenate([[-np.inf], points])
    points.setflags(write=False)
    return points


def decide(g, points) -> np.ndarray:
    """The bits of conductances g, as bools: the parity of the decision
    points below each g.  points has shape (K, ...), broadcast with g, and
    holds for each g its amp's `decision_points`, padded with +inf."""
    bits = np.zeros(np.shape(g), dtype=bool)
    for p in points:
        bits ^= g > p
    return bits


@dataclass(frozen=True)
class SenseAmpScheme:
    """Per-session pairing of the XOR amp and the read-out amp."""

    name: str
    xor_amp: object
    readout_amp: object

    def validate(self, vdd: float) -> None:
        for amp in (self.xor_amp, self.readout_amp):
            references = {ref for *_, ref in amp.branches}
            for f in fields(amp):
                value = getattr(amp, f.name)
                if f.name in references:
                    if not (isinstance(value, (float, Real)) and 0 < value < vdd):
                        raise CrossbarError(
                            f"{self.name}: reference {f.name}={value!r} outside (0, {vdd})"
                        )
                    if not _band_floats(value, vdd) <= MAX_BAND_FLOATS:
                        raise CrossbarError(
                            f"{self.name}: reference {f.name}={value} is too close to "
                            f"vdd={vdd}: its decision band exceeds 2^20 floats"
                        )
                elif not (isinstance(value, (float, Real)) and math.isfinite(value) and value > 0):
                    raise CrossbarError(
                        f"{self.name}: {f.name} must be finite and positive, got {value!r}"
                    )


# Every scheme's amps, the one statement of them: the parameter-file section
# and amp class of its XOR amp, then of its read-out amp.  A section's sense
# events are `<section>_sense`.
SCHEME_AMPS = {
    "sxor": (("sxor", ScoutingXorAmp), ("ro_s", ScoutingReadoutAmp)),
    "dxor": (("dxor", DualXorAmp), ("ro_d", DualReadoutAmp)),
}
SCHEMES = {
    name: SenseAmpScheme(name, *(amp() for _, amp in amps)) for name, amps in SCHEME_AMPS.items()
}
SXOR_SCHEME, DXOR_SCHEME = SCHEMES["sxor"], SCHEMES["dxor"]
# Event kinds of a scheme's (XOR amp, read-out amp) senses.
SENSE_EVENT = {
    name: tuple(f"{section}_sense" for section, _ in amps) for name, amps in SCHEME_AMPS.items()
}


@lru_cache(maxsize=64)
def _validated(scheme: SenseAmpScheme, vdd: float) -> SenseAmpScheme:
    scheme.validate(vdd)
    return scheme


def check_scheme(scheme: SenseAmpScheme, vdd: float) -> None:
    """Raise unless scheme passes `validate` at vdd, checked once per
    (scheme, vdd): the one check of every session and nominal grid."""
    try:
        # an equal scheme may hold fields of other types (Decimal(1) == 1) that validate refuses
        if _validated(scheme, vdd) is not scheme:
            scheme.validate(vdd)
    except TypeError:  # the cache cannot hash an amp field, which validate refuses
        scheme.validate(vdd)
        raise


def scheme_for(spec) -> SenseAmpScheme:
    if isinstance(spec, SenseAmpScheme):
        return spec
    try:
        return SCHEMES[spec]
    except (KeyError, TypeError):  # TypeError: an unhashable spec
        raise CrossbarError(f"unknown sense-amp scheme: {spec!r}") from None


# ---------------------------------------------------------------------------
# One round read on every slice


def draw_read_normals(rngs: Optional[Sequence[np.random.Generator]], reads: int = 1) -> np.ndarray:
    """The standard normals of the next `reads` reads of every slice, shape
    (reads, 2, S, 4): row 0 of a read is slice j's four S-box cells', row
    1 its four partner cells' (unused entries are drawn anyway so the
    stream position never depends on slice geometry).  Slice j's normals
    come from rngs[j], in read order; drawing `reads` reads at once leaves
    each generator where `reads` single draws would.  A read of nominal
    cells scales them itself, only where a factor may move its bit."""
    if rngs is None:
        raise CrossbarError("sigma_c2c > 0 requires an RNG per slice")
    # every slice's normals drawn into one buffer, then seen read-major
    z = np.empty((len(rngs), reads, 2, 4))
    for rng, normals in zip(rngs, z):
        rng.standard_normal(out=normals)
    return z.transpose(1, 2, 0, 3)


def draw_read_factors(
    sigmas: Sequence[float], rngs: Optional[Sequence[np.random.Generator]], reads: int = 1
) -> np.ndarray:
    """Cycle-to-cycle factors for the next `reads` reads of every slice, one
    set per sigma, in the read kernel's layout: shape (reads, 2,
    len(sigmas), S, 4), the `draw_read_normals` of the reads scaled by
    every sigma, so all sigmas share one noise stream.  The row loop of
    cells with d2d variation reads them."""
    z = draw_read_normals(rngs, reads)
    return variation_factor(np.asarray(sigmas, dtype=float).reshape(-1, 1, 1), z[:, :, None])


def path_conductance(r, wire: float, f=None) -> np.ndarray:
    """Conductance of selected cell paths, 1/(r*f + wire): cells of
    resistance r scaled by cycle-to-cycle factors f (an ideal read leaves
    f out), each in series with the wire, in the shape r and f broadcast
    to.  An infinite r, no partner, conducts 0.0.  Every read computes its
    conductances here, so reads of the same cells agree bit for bit.  The
    product, the sum and the inverse are written in place, into one output
    array."""
    g = np.array(r, dtype=np.float64) if f is None else np.multiply(r, f)
    g += wire
    return np.divide(1.0, g, out=g)


def partner_conductances(state: ProgrammedState, rnd, factors=None) -> np.ndarray:
    """Conductance of every column's partner branch in round rnd, an int or
    an int array: shape rnd.shape + (S, 4), zero on read-out columns.
    factors, broadcast against that shape, scale the partner cells (see
    `path_conductance`).  It does not depend on the selected S-box rows, so
    a noisy block computes it for all of its rounds and lanes at once."""
    return path_conductance(state.partner_res[rnd], state.params.wire_r_per_cell, factors)


def column_conductances(state: ProgrammedState, at, partner_g, factors=None) -> np.ndarray:
    """Bit-line conductance of every column that reads the flat S-box rows
    `at` against partner branches of conductance partner_g, which
    broadcasts to the result's shape, at.shape + (4,).  Flat row 16*j + row
    is slice j's S-box row `row`, so a read of any selection is one `take`
    on the (S*16, 4) rows.  factors, shape at.shape + (4,), scale the
    selected S-box cells (see `path_conductance`).  The branches are
    summed."""
    sb_res = state.sb_res.reshape(-1, 4).take(at, axis=0)
    g = path_conductance(sb_res, state.params.wire_r_per_cell, factors)
    g += partner_g
    return g


def grid_entry(s, p):
    """The nominal grid's entry of S-box bit s against partner code p (a
    partner's bit or PARTNER_ABSENT), of ints or int arrays alike."""
    return (PARTNER_ABSENT + 1) * s + p


@dataclass(frozen=True, eq=False)
class ReadCapture:
    """Every node of a set of reads, as columns: of R reads of every slice,
    entry [i, j, col] of each (R, S, 4) array is column col of slice j in
    read i; of the nominal grid, one entry per pairing.  Both amps sense
    every column; xor_mask, broadcast against the arrays, says whose bit
    counts.  A capture of nominal cells read without noise is gathered from
    the grid: pairing holds each column's entry, `grid_entry(s, p)`, and
    grid the grid.  Other captures are sensed, with pairing and grid None."""

    bits: np.ndarray  # bool, the sensed bits
    r_eq: np.ndarray  # bit-line equivalent resistance
    nodes: dict  # "xor" / "readout" -> node name -> volts
    sb_bits: np.ndarray  # uint8, the selected S-box cell
    partner_bits: np.ndarray  # uint8, the selected partner cell, 0 on read-out columns
    xor_mask: np.ndarray  # bool, True on XOR-sensed columns; (S, 4) for reads of every slice
    pairing: Optional[np.ndarray] = None  # intp, each column's entry of grid
    grid: Optional[ReadCapture] = None


def sense_capture(scheme, vdd: float, r_eq, sb_bits, partner_bits, xor_mask) -> ReadCapture:
    """The capture of bit lines of resistance r_eq that select the cells
    sb_bits and partner_bits: both amps sense every column, each
    comparator deciding on its raw divider tap, and the nodes hold every
    tap and regenerated decision node.  A column's bit is its XOR amp's
    where xor_mask is set, its read-out amp's elsewhere."""
    nodes, bits = {}, []
    for kind, amp in (("xor", scheme.xor_amp), ("readout", scheme.readout_amp)):
        taps = _taps(amp, r_eq, vdd)
        bits.append(amp.gate(*(v > ref for _, v, ref in taps)))
        named = nodes[kind] = {f"{name}_divider": v for name, v, _ in taps}
        for name, v, ref in taps:  # the regenerated output
            named[name] = np.clip(ref + amp.gain * (v - ref), 0.0, vdd)
    return ReadCapture(np.where(xor_mask, *bits), r_eq, nodes, sb_bits, partner_bits, xor_mask)


@lru_cache(maxsize=64)
def _captured_grid(scheme: SenseAmpScheme, r_lrs, r_hrs, wire, vdd) -> ReadCapture:
    # The resistances are those `program_slice` writes and the conductances
    # those of `path_conductance`, summed and inverted as `read_round` does,
    # so each pairing is bit-exact with a read of any cell pair in its state.
    sb_g = path_conductance([[r_hrs], [r_lrs]], wire)
    r_eq = (1.0 / (sb_g + path_conductance([r_hrs, r_lrs, np.inf], wire))).ravel()
    s, p = np.divmod(np.arange(r_eq.size), PARTNER_ABSENT + 1)
    has_partner = p != PARTNER_ABSENT
    partner_bits = np.where(has_partner, p, 0).astype(np.uint8)
    grid = sense_capture(scheme, vdd, r_eq, s.astype(np.uint8), partner_bits, has_partner)
    nodes = [v for named in grid.nodes.values() for v in named.values()]
    for a in (grid.bits, r_eq, grid.sb_bits, partner_bits, has_partner, *nodes):
        a.setflags(write=False)
    frozen = {kind: MappingProxyType(named) for kind, named in grid.nodes.items()}
    return replace(grid, nodes=MappingProxyType(frozen))


def _device_params(params) -> DeviceParams:
    """params, which must be a DeviceParams: anything else is a CrossbarError."""
    if not isinstance(params, DeviceParams):
        raise CrossbarError(f"params must be a DeviceParams, got {params!r}")
    return params


def nominal_grid(params: DeviceParams, scheme) -> ReadCapture:
    """The capture of every nominal read of `params`' cells under `scheme`:
    entry `grid_entry(s, p)`, or [s, p] of `bits.reshape(2, 3)`, pairs an
    S-box cell holding bit s with a partner holding bit p (XOR-sensed) or
    none (p = PARTNER_ABSENT, read out).  Captured once per (r_lrs, r_hrs,
    wire, vdd, scheme) and shared, read-only."""
    params, scheme = _device_params(params), scheme_for(scheme)
    check_scheme(scheme, params.vdd)  # no amp field reaches a divider unchecked
    return _captured_grid(scheme, params.r_lrs, params.r_hrs, params.wire_r_per_cell, params.vdd)


# A safe factor box's half width is a rung of this ladder: k/BOX_RUNGS, k < BOX_RUNGS.
BOX_RUNGS = 64


def safe_factor_box(params: DeviceParams, scheme, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Each nominal pairing's widest box of cycle-to-cycle factors [1 - d,
    1 + d], d = k/BOX_RUNGS, in which a read of its cells under `scheme`,
    both of its factors anywhere in the box, reads as at factor 1: no
    decision point of its amp (those `column_points` uses at `sigma`) lies
    between its conductances at the corners, both factors 1 + d and both
    1 - d.  Exact, because each step of a read's arithmetic is monotone in
    each factor and rounds as here (`conductance_range`).  Returns (low,
    high), every pairing's 1 - d and 1 + d in `nominal_grid` order,
    read-only; found once per (r_lrs, r_hrs, wire, vdd, scheme, sigma)."""
    params, scheme = _device_params(params), scheme_for(scheme)
    check_scheme(scheme, params.vdd)
    p = params
    return _safe_box(scheme, p.r_lrs, p.r_hrs, p.wire_r_per_cell, p.vdd, float(sigma))


@lru_cache(maxsize=64)
def _safe_box(scheme: SenseAmpScheme, r_lrs, r_hrs, wire, vdd, sigma) -> tuple:
    domain = DeviceParams(r_lrs, r_hrs, wire, sigma_c2c=sigma, vdd=vdd).conductance_range()
    d = np.arange(BOX_RUNGS) / BOX_RUNGS
    # the corners of every rung, lowest conductance first, as (2, rungs, 1, 1)
    f = np.stack([1 + d, 1 - d])[..., None, None]
    # every pairing's conductance, (2, rungs, 6) in grid order, summed as reads sum it; a
    # corner beyond the reads' range may overflow, which rounds as monotonically
    with np.errstate(over="ignore", divide="ignore"):
        g = path_conductance([[r_hrs], [r_lrs]], wire, f) + path_conductance([r_hrs, r_lrs, np.inf], wire, f)
    g = g.reshape(2, BOX_RUNGS, -1)
    # the points below each corner: a point between the corners changes their count
    below = np.empty(g.shape, dtype=np.intp)
    read_out = np.arange(g.shape[-1]) % (PARTNER_ABSENT + 1) == PARTNER_ABSENT
    for amp, entries in ((scheme.xor_amp, ~read_out), (scheme.readout_amp, read_out)):
        below[..., entries] = np.searchsorted(decision_points(amp, vdd, domain), g[..., entries])
    d = (np.logical_and.accumulate(below[0] == below[1]).sum(axis=0) - 1) / BOX_RUNGS
    box = 1 - d, 1 + d
    for a in box:
        a.setflags(write=False)
    return box


def read_round(state: ProgrammedState, at, rnds, scheme, factors=None) -> ReadCapture:
    """Traced reads, captured in one pass: read i selects round rnds[i] and,
    on slice j, the flat S-box row at[i, j] = 16*j + x of its row x, as
    `column_conductances` selects rows.  at has shape (R, S), rnds (R,) and
    factors, the reads' cycle-to-cycle factors in `draw_read_factors`'
    layout, (R, 2, S, 4).  Key columns are XOR-sensed (S-box cell against
    key/constant cell); the remaining columns are read out alone.  The
    devices are the state's own.  On a nominal state read without factors
    every column is one of the nominal grid's pairings, gathered from it."""
    scheme = scheme_for(scheme)
    at, rnds = np.asarray(at), np.asarray(rnds)
    # integers only: a bool or a float would index as something else, or not at all
    integral = rnds.dtype.kind in "iu" and rnds.ndim == 1
    if not (integral and ((rnds >= 0) & (rnds < state.rounds)).all()):
        raise CrossbarError(f"need a list of rounds in 0..{state.rounds - 1}")
    slices = len(state.sb_bits)
    if at.shape != rnds.shape + (slices,) or not (
        at.dtype.kind in "iu" and (at // 16 == np.arange(slices)).all()
    ):
        raise CrossbarError("need one flat S-box row 16*j + x, x in 0..15, per slice j and read")
    if factors is not None and np.shape(factors) != (len(rnds), 2, slices, 4):
        raise CrossbarError(f"need factors of shape {(len(rnds), 2, slices, 4)}")
    sb_bits = state.sb_bits.reshape(-1, 4).take(at, axis=0)
    partner_bits = state.partner_bits[rnds]
    if factors is None and state.nominal:
        grid = nominal_grid(state.params, scheme)
        pairing = grid_entry(sb_bits.astype(np.intp), state.partner_codes[rnds])
        nodes = {
            kind: {name: v.take(pairing) for name, v in named.items()}
            for kind, named in grid.nodes.items()
        }
        return ReadCapture(
            grid.bits.take(pairing), grid.r_eq.take(pairing), nodes, sb_bits, partner_bits,
            state.xor_mask, pairing, grid,
        )
    sb_f, partner_f = (None, None) if factors is None else (factors[:, 0], factors[:, 1])
    # the bit-line equivalent resistance, which the amps' comparators sense
    r_eq = 1.0 / column_conductances(state, at, partner_conductances(state, rnds, partner_f), sb_f)
    return sense_capture(scheme, state.params.vdd, r_eq, sb_bits, partner_bits, state.xor_mask)


def column_points(state: ProgrammedState, scheme, sigma_c2c: float) -> np.ndarray:
    """Every column's decision points, its amp's `decision_points` over the
    conductances that reads of `state` with cycle-to-cycle sigma up to
    sigma_c2c can meet, padded with +inf: shape (K, S, 4)."""
    scheme = scheme_for(scheme)
    params = replace(state.params, sigma_c2c=sigma_c2c)
    domain = params.conductance_range()
    amps = (scheme.xor_amp, scheme.readout_amp)
    xor, readout = (decision_points(amp, params.vdd, domain) for amp in amps)
    k = max(len(xor), len(readout))
    xor, readout = (np.concatenate([p, np.full(k - len(p), np.inf)]) for p in (xor, readout))
    return np.where(state.xor_mask, xor[:, None, None], readout[:, None, None])


def read_table(state: ProgrammedState, scheme) -> np.ndarray:
    """Every ideal read of `state` under `scheme` (decided as the module
    docstring says), read-only 0/1 bytes, slice-major, shape (rounds, S, 16,
    4): entry [rnd, j, row] is what slice j senses on S-box row `row` in
    round rnd.  A session reads it only where a read may fail its logic: on
    d2d cells, or a nominal grid that misreads a pairing."""
    wire = state.params.wire_r_per_cell
    table = np.empty((state.rounds, len(state.sb_bits), 16, 4), dtype=np.uint8)
    # each column's 16 rows last, so a column kind selects whole columns
    by_column, sb_res = table.transpose(0, 1, 3, 2), state.sb_res.transpose(0, 2, 1)
    points = column_points(state, scheme, state.params.sigma_c2c)
    for columns, rnds in ((~state.xor_mask, slice(0, 1)), (state.xor_mask, slice(None))):
        partner_g = path_conductance(state.partner_res[rnds, columns, None], wire)
        g = path_conductance(sb_res[columns], wire) + partner_g  # (rounds or 1, n, 16)
        by_column[:, columns] = decide(g, points[:, columns, None])
    table.setflags(write=False)
    return table


# ---------------------------------------------------------------------------
# Margin audit


@dataclass(frozen=True)
class MarginRecord:
    amp: str
    operands: tuple[int, ...]
    node: str
    volts: float
    decision: int


def _operands(grid: ReadCapture, k: int) -> tuple[int, ...]:
    """The stored bits grid entry k pairs: (s, p) when XOR-sensed, (s,) read out."""
    return (int(grid.sb_bits[k]), int(grid.partner_bits[k]))[: 1 + int(grid.xor_mask[k])]


def sense_margin_report(scheme, params: DeviceParams) -> list[MarginRecord]:
    """Exhaustive operand sweep of both amps at nominal resistances,
    reporting every comparator's decision node: the nominal read grid's
    pairings, each sensed by the amp wired to it, operands 1 before 0.  A
    comparator's decision is its divider tap in the grid against its
    reference, as the grid's sense decided it."""
    scheme = scheme_for(scheme)
    grid = nominal_grid(params, scheme)
    records = []
    for kind, amp in (("xor", scheme.xor_amp), ("readout", scheme.readout_amp)):
        nodes = grid.nodes[kind]
        references = [(node, ref) for node, *_, ref in _branches(amp)]
        for k in np.flatnonzero(grid.xor_mask == (kind == "xor"))[::-1].tolist():
            bits = _operands(grid, k)
            for node, ref in references:
                decision = int(nodes[f"{node}_divider"][k] > ref)
                volts = float(nodes[node][k])
                records.append(MarginRecord(f"{scheme.name}.{kind}", bits, node, volts, decision))
    return records


def misread_pairings(params: DeviceParams, scheme) -> np.ndarray:
    """The `nominal_grid` entries of `params`' cells under `scheme` that
    read other than their logic value, the digital value of their stored
    bits: s ^ p on the XOR pairings, s on read-out (partner bit 0).  Found
    once per grid, read-only."""
    return _misreads(nominal_grid(params, scheme))


@lru_cache(maxsize=64)
def _misreads(grid: ReadCapture) -> np.ndarray:
    at = np.flatnonzero(grid.bits != (grid.sb_bits ^ grid.partner_bits))
    at.setflags(write=False)
    return at


def check_logic(scheme, params: DeviceParams) -> None:
    """Raise if any nominal operand pairing of `params`' cells reads other
    than its logic value under `scheme` (`misread_pairings`)."""
    scheme = scheme_for(scheme)
    grid = nominal_grid(params, scheme)
    for k in misread_pairings(params, scheme)[:1].tolist():
        kind = "xor" if grid.xor_mask[k] else "readout"
        bit = int(grid.bits[k])
        raise CrossbarError(
            f"logic violation: {scheme.name}.{kind} reads {bit} "
            f"for operands {_operands(grid, k)}, not {1 - bit}"
        )


def check_margins(scheme, params: DeviceParams) -> float:
    """Smallest |node - 0.5*vdd band edge| slack; raises if any decision
    node violates the 0.6/0.4*vdd rule, or if any operand pairing reads
    other than its logic value (`check_logic`)."""
    scheme = scheme_for(scheme)
    records = sense_margin_report(scheme, params)
    hi, lo = 0.6 * params.vdd, 0.4 * params.vdd
    worst = math.inf
    for rec in records:
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
    check_logic(scheme, params)
    return worst


# ---------------------------------------------------------------------------
# Parameter files, device and energy alike: `name = value` lines, # comments,
# each name once.  A plain name is one of the file's fields, a dotted
# `section.key` a key of one of its sections.  A device file's fields are the
# DeviceParams fields and its sections the amps, e.g. `sxor.m1 = 2000`.

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
        section: ({f.name for f in fields(amp)}, f"{section} parameter")
        for amps in SCHEME_AMPS.values()
        for section, amp in amps
    }
    values, keys = read_parameter_file(path, "device", casters, sections)
    try:
        params = DeviceParams(**values)
        schemes = {
            name: SenseAmpScheme(name, *(amp(**keys[section]) for section, amp in amps))
            for name, amps in SCHEME_AMPS.items()
        }
        for scheme in schemes.values():
            scheme.validate(params.vdd)
    except CrossbarError as exc:
        raise ConfigError(str(exc)) from None
    return params, schemes
