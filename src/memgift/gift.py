"""Bit-exact reference implementation of GIFT-64 and GIFT-128 encryption.

Conventions used throughout the package:

* An n-bit cipher state is a Python int.  Bit 0 is the least significant
  bit of the hexadecimal representation; nibble j covers bits 4j..4j+3.
* Hex strings are written most-significant digit first.
* Keys are always 128 bits, viewed as eight 16-bit words k7..k0 with k0
  in the least significant position.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import MemgiftError, read_text


class GiftError(MemgiftError, ValueError):
    """Malformed state, key, table or KAT input."""


_HEX = re.compile("[0-9a-fA-F]+")


def parse_hex(text: str, what: str) -> int:
    """The value of `text`, which must be ASCII hex digits and nothing else:
    int(text, 16) alone also takes a sign, `_` between digits and non-ASCII
    digits."""
    if not _HEX.fullmatch(text):
        raise GiftError(f"{what}: invalid hex {text!r}")
    return int(text, 16)


@dataclass(frozen=True)
class CipherVariant:
    """Static parameters of one GIFT family member."""

    name: str
    block_bits: int
    rounds: int
    # In-nibble bit positions XORed with round-key bits: the (V, U) targets.
    key_xor_bits: tuple[int, int]

    @property
    def nibbles(self) -> int:
        return self.block_bits // 4

    @property
    def rc_positions(self) -> tuple[int, ...]:
        """State bit positions receiving round-constant bits (c0..c5, then
        the fixed '1' at the block MSB)."""
        return (3, 7, 11, 15, 19, 23, self.block_bits - 1)


GIFT64 = CipherVariant("GIFT-64", 64, 28, (0, 1))
GIFT128 = CipherVariant("GIFT-128", 128, 40, (1, 2))

VARIANTS = {64: GIFT64, 128: GIFT128, "GIFT-64": GIFT64, "GIFT-128": GIFT128}


def variant_for(spec) -> CipherVariant:
    if isinstance(spec, CipherVariant):
        return spec
    try:
        return VARIANTS[spec]
    except KeyError:
        raise GiftError(f"unknown cipher variant: {spec!r}") from None


class SBoxTable:
    """4-bit substitution table; must be a permutation of 0..15."""

    __slots__ = ("entries", "_inverse")

    def __init__(self, entries: Iterable[int]):
        entries = tuple(int(e) for e in entries)
        if sorted(entries) != list(range(16)):
            raise GiftError("S-box must be a permutation of 0..15")
        object.__setattr__(self, "entries", entries)
        inv = [0] * 16
        for x, y in enumerate(entries):
            inv[y] = x
        object.__setattr__(self, "_inverse", tuple(inv))

    def __setattr__(self, name, value):  # immutable by construction
        raise AttributeError("SBoxTable is immutable")

    def __getitem__(self, value: int) -> int:
        return self.entries[value]

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, SBoxTable) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return "SBoxTable(({}))".format(", ".join(f"0x{e:x}" for e in self.entries))

    def inverse(self) -> "SBoxTable":
        return SBoxTable(self._inverse)


GIFT_SBOX = SBoxTable(
    (0x1, 0xA, 0x4, 0xC, 0x6, 0xF, 0x3, 0x9, 0x2, 0xD, 0xB, 0x7, 0x5, 0x0, 0x8, 0xE)
)


@dataclass(frozen=True)
class CipherState:
    """An n-bit block as an indexed bit vector (bit 0 = LSB)."""

    bits: int
    width: int

    def __post_init__(self):
        if self.width not in (64, 128):
            raise GiftError(f"unsupported state width: {self.width}")
        if not 0 <= self.bits < (1 << self.width):
            raise GiftError("state value out of range for its width")

    @classmethod
    def from_hex(cls, text: str, width: int) -> "CipherState":
        text = text.strip()
        if len(text) != width // 4:
            raise GiftError(
                f"expected {width // 4} hex digits for a {width}-bit state, got {len(text)}"
            )
        return cls(parse_hex(text, f"{width}-bit state"), width)

    def to_hex(self) -> str:
        return f"{self.bits:0{self.width // 4}x}"

    def bit(self, i: int) -> int:
        return (self.bits >> i) & 1

    def nibble(self, j: int) -> int:
        return (self.bits >> (4 * j)) & 0xF

    def nibbles(self) -> tuple[int, ...]:
        return tuple(self.nibble(j) for j in range(self.width // 4))


def _check_state(state: int, variant: CipherVariant) -> None:
    if not 0 <= state < (1 << variant.block_bits):
        raise GiftError(f"state does not fit in {variant.block_bits} bits")


def _check_key(key: int) -> None:
    if not 0 <= key < (1 << 128):
        raise GiftError("key must be a 128-bit value")


# ---------------------------------------------------------------------------
# Round primitives


def sub_cells(state: int, variant: CipherVariant, sbox: SBoxTable = GIFT_SBOX) -> int:
    """Replace every nibble j by sbox[nibble j]."""
    _check_state(state, variant)
    out = 0
    for j in range(variant.nibbles):
        out |= sbox[(state >> (4 * j)) & 0xF] << (4 * j)
    return out


def perm_position(i: int, variant: CipherVariant) -> int:
    """Target position P(i) of state bit i under the GIFT bit permutation.

    P preserves the bit plane: P(i) == i (mod 4) for all i.
    """
    stride = variant.block_bits // 4
    group = (3 * ((i % 16) // 4) + (i % 4)) % 4
    return 4 * (i // 16) + stride * group + (i % 4)


@lru_cache(maxsize=None)
def _perm_tables(block_bits: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    variant = VARIANTS[block_bits]
    fwd = tuple(perm_position(i, variant) for i in range(block_bits))
    inv = [0] * block_bits
    for i, p in enumerate(fwd):
        inv[p] = i
    return fwd, tuple(inv)


def perm_table(variant: CipherVariant) -> tuple[int, ...]:
    return _perm_tables(variant.block_bits)[0]


def inverse_perm_table(variant: CipherVariant) -> tuple[int, ...]:
    return _perm_tables(variant.block_bits)[1]


def perm_bits(state: int, variant: CipherVariant) -> int:
    """Move state bit i to position P(i)."""
    _check_state(state, variant)
    table = perm_table(variant)
    out = 0
    for i in range(variant.block_bits):
        out |= ((state >> i) & 1) << table[i]
    return out


# ---------------------------------------------------------------------------
# Key schedule and round constants


@dataclass(frozen=True)
class RoundKey:
    """Extracted round-key bits and their target state-bit positions.

    Bit k of ``bits`` is XORed into state position ``positions[k]``.
    """

    bits: int
    positions: tuple[int, ...]

    def state_mask(self) -> int:
        mask = 0
        for k, pos in enumerate(self.positions):
            mask |= ((self.bits >> k) & 1) << pos
        return mask


def _word(key_state: int, i: int) -> int:
    return (key_state >> (16 * i)) & 0xFFFF


def extract_round_key(key_state: int, variant: CipherVariant) -> RoundKey:
    """Select the U/V key words for one round.

    GIFT-64 takes U=k1 into nibble bit 1 and V=k0 into bit 0;
    GIFT-128 takes U=k5||k4 into bit 2 and V=k1||k0 into bit 1.
    """
    _check_key(key_state)
    lo, hi = variant.key_xor_bits
    if variant.block_bits == 64:
        u, v = _word(key_state, 1), _word(key_state, 0)
        half = 16
    else:
        u = (_word(key_state, 5) << 16) | _word(key_state, 4)
        v = (_word(key_state, 1) << 16) | _word(key_state, 0)
        half = 32
    positions = tuple(4 * i + lo for i in range(half)) + tuple(
        4 * i + hi for i in range(half)
    )
    return RoundKey((u << half) | v, positions)


def _rotr16(x: int, n: int) -> int:
    return ((x >> n) | (x << (16 - n))) & 0xFFFF


def update_key_state(key_state: int) -> int:
    """One key-state update: a 32-bit right rotation of the whole state,
    then 2-bit and 12-bit right rotations of the two new top words."""
    _check_key(key_state)
    k0 = key_state & 0xFFFF
    k1 = (key_state >> 16) & 0xFFFF
    rest = key_state >> 32
    return (_rotr16(k1, 2) << 112) | (_rotr16(k0, 12) << 96) | rest


@dataclass(frozen=True)
class RoundConstantState:
    """6-bit round-constant register c5..c0."""

    value: int

    def __post_init__(self):
        if not 0 <= self.value < 64:
            raise GiftError("round constant register is 6 bits wide")

    @classmethod
    def initial(cls) -> "RoundConstantState":
        # Register starts at zero and is clocked once before the first
        # round, so round 0 sees 0x01.
        return cls(0x01)

    def state_mask(self, variant: CipherVariant) -> int:
        mask = 1 << (variant.block_bits - 1)
        for b in range(6):
            mask |= ((self.value >> b) & 1) << (3 + 4 * b)
        return mask


def update_round_constant(rc: RoundConstantState) -> RoundConstantState:
    """Clock the register: left shift, new LSB = c5 XOR c4 XOR 1."""
    c = rc.value
    return RoundConstantState(((c << 1) & 0x3E) | ((((c >> 5) ^ (c >> 4)) & 1) ^ 1))


def add_round_key_and_constant(
    state: int, rk: RoundKey, rc: RoundConstantState, variant: CipherVariant
) -> int:
    """XOR the round key and round constant at their target positions only."""
    _check_state(state, variant)
    return state ^ rk.state_mask() ^ rc.state_mask(variant)


# Bit i of a byte lands at bit 4i: one nibble plane of eight nibbles.
_SPREAD = tuple(sum(((b >> i) & 1) << (4 * i) for i in range(8)) for b in range(256))


@lru_cache(maxsize=None)
def _round_constant_masks(block_bits: int) -> tuple[int, ...]:
    variant = VARIANTS[block_bits]
    masks, rc = [], RoundConstantState.initial()
    for _ in range(variant.rounds):
        masks.append(rc.state_mask(variant))
        rc = update_round_constant(rc)
    return tuple(masks)


def round_addition_masks(key: int, variant: CipherVariant) -> list[int]:
    """Per-round key+constant XOR vectors for a whole encryption: round r
    is extract_round_key(ks_r).state_mask() | rc_r.state_mask(variant).

    Table form: each 16-bit word of U and V is spread onto its nibble
    plane through `_SPREAD`, the key state is updated as a word list, and
    the round-constant masks are cached per variant.
    """
    _check_key(key)
    lo, hi = variant.key_xor_bits
    # (key word, shift): GIFT-64 puts V=k0 on plane lo and U=k1 on plane hi;
    # GIFT-128 puts V=k1||k0 on lo and U=k5||k4 on hi, high words 16 nibbles up
    if variant.block_bits == 64:
        placement = ((0, lo), (1, hi))
    else:
        placement = ((0, lo), (1, 64 + lo), (4, hi), (5, 64 + hi))
    words = [(key >> (16 * i)) & 0xFFFF for i in range(8)]
    masks = []
    for mask in _round_constant_masks(variant.block_bits):
        for w, shift in placement:
            word = words[w]
            mask |= (_SPREAD[word & 0xFF] | _SPREAD[word >> 8] << 32) << shift
        masks.append(mask)
        # update_key_state on the word list
        words = words[2:] + [_rotr16(words[0], 12), _rotr16(words[1], 2)]
    return masks


# ---------------------------------------------------------------------------
# Block encryption


def _nibble_spreads(table: Sequence[int], values: Iterable[int]) -> tuple:
    """A bit permutation folded per nibble: (4j, W_j) pairs with W_j[x] the
    bits of values[x] moved to positions table[4j .. 4j+3]."""
    values = tuple(values)
    out = []
    for j in range(len(table) // 4):
        targets = table[4 * j : 4 * j + 4]
        w = tuple(sum(((y >> b) & 1) << targets[b] for b in range(4)) for y in values)
        out.append((4 * j, w))
    return tuple(out)


@lru_cache(maxsize=16)
def _round_tables(sbox: SBoxTable, block_bits: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """SubCells and PermBits folded per nibble: (4j, T_j) pairs with
    T_j[x] = P(S(x) << 4j), so a round is XOR_j T_j[nibble j]."""
    return _nibble_spreads(_perm_tables(block_bits)[0], sbox)


def encrypt_block(
    pt: int, key: int, variant: CipherVariant, sbox: SBoxTable = GIFT_SBOX
) -> int:
    """Apply rounds x (SubCells -> PermBits -> AddRoundKey+Constant), each
    round one lookup per nibble in the folded tables."""
    _check_state(pt, variant)
    tables = _round_tables(sbox, variant.block_bits)
    state = pt
    for mask in round_addition_masks(key, variant):
        for shift, t in tables:
            mask ^= t[(state >> shift) & 0xF]
        state = mask
    return state


@lru_cache(maxsize=16)
def _inverse_round_tables(
    sbox: SBoxTable, block_bits: int
) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], tuple[int, ...]]:
    """PermBits inverted per nibble, (4j, U_j) pairs with U_j[x] =
    P^-1(x << 4j), and the inverse S-box entries."""
    return _nibble_spreads(_perm_tables(block_bits)[1], range(16)), sbox.inverse().entries


def decrypt_block(
    ct: int, key: int, variant: CipherVariant, sbox: SBoxTable = GIFT_SBOX
) -> int:
    """Inverse of encrypt_block (software test oracle): per round, undo the
    key+constant XOR, then PermBits by one lookup per nibble, then SubCells
    nibble by nibble."""
    _check_state(ct, variant)
    spread, inv = _inverse_round_tables(sbox, variant.block_bits)
    state = ct
    for mask in reversed(round_addition_masks(key, variant)):
        state ^= mask
        permuted = 0
        for shift, u in spread:
            permuted ^= u[(state >> shift) & 0xF]
        state = 0
        for shift, _ in spread:
            state |= inv[(permuted >> shift) & 0xF] << shift
    return state


# ---------------------------------------------------------------------------
# KAT file handling: lines of `key=<32 hex> pt=<hex> ct=<hex>`,
# most-significant digit first.


@dataclass(frozen=True)
class KatVector:
    key: int
    pt: int
    ct: int
    variant: CipherVariant


def parse_kat_lines(lines: Iterable[str]) -> list[KatVector]:
    vectors = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = {}
        for token in line.split():
            if "=" not in token:
                raise GiftError(f"KAT line {lineno}: malformed token {token!r}")
            name, _, value = token.partition("=")
            if name not in ("key", "pt", "ct"):
                raise GiftError(f"KAT line {lineno}: unknown field {name!r}")
            if name in fields:
                raise GiftError(f"KAT line {lineno}: repeated field {name!r}")
            fields[name] = value
        missing = {"key", "pt", "ct"} - fields.keys()
        if missing:
            raise GiftError(f"KAT line {lineno}: missing {sorted(missing)}")
        if len(fields["key"]) != 32:
            raise GiftError(f"KAT line {lineno}: key must be 32 hex digits")
        if len(fields["pt"]) != len(fields["ct"]) or len(fields["pt"]) not in (16, 32):
            raise GiftError(f"KAT line {lineno}: pt/ct must both be 16 or 32 digits")
        variant = GIFT64 if len(fields["pt"]) == 16 else GIFT128
        key, pt, ct = (
            parse_hex(fields[name], f"KAT line {lineno}: {name}") for name in ("key", "pt", "ct")
        )
        vectors.append(KatVector(key, pt, ct, variant))
    return vectors


def load_kat_file(path) -> list[KatVector]:
    return parse_kat_lines(read_text(path, GiftError).splitlines())
