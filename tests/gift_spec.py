"""GIFT stated one bit at a time: the oracle the table-driven cipher in
`memgift.gift` is checked against.

Every round step is written as the specification states it (Banik et al.,
"GIFT: A Small Present", CHES 2017): SubCells nibble by nibble, PermBits
bit by bit, the key schedule on 16-bit words and the round constant as a
6-bit register.  Nothing here shares code with the package's round tables
or its round-constant masks; the one table taken from the package,
`perm_table`, is pinned to the published permutation in `test_gift.py`.
Integer arguments go through the package's `check_int`, as every integer
argument of the package does.
"""

from __future__ import annotations

from dataclasses import dataclass

from memgift.errors import check_int
from memgift.gift import GIFT_SBOX, GiftError, SBoxTable, perm_table

# ---------------------------------------------------------------------------
# Round primitives


def sub_cells(state: int, variant, sbox=GIFT_SBOX) -> int:
    """Replace every nibble j by sbox[nibble j]."""
    state = check_int(state, "state", GiftError, variant.block_bits)
    sbox = SBoxTable(sbox)
    out = 0
    for j in range(variant.nibbles):
        out |= sbox[(state >> (4 * j)) & 0xF] << (4 * j)
    return out


def perm_bits(state: int, variant) -> int:
    """Move state bit i to position P(i)."""
    state = check_int(state, "state", GiftError, variant.block_bits)
    table = perm_table(variant)
    out = 0
    for i in range(variant.block_bits):
        out |= ((state >> i) & 1) << table[i]
    return out


def inverse_perm_table(variant) -> tuple[int, ...]:
    inv = [0] * variant.block_bits
    for i, p in enumerate(perm_table(variant)):
        inv[p] = i
    return tuple(inv)


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


def extract_round_key(key_state: int, variant) -> RoundKey:
    """Select the U/V key words for one round.

    GIFT-64 takes U=k1 into nibble bit 1 and V=k0 into bit 0;
    GIFT-128 takes U=k5||k4 into bit 2 and V=k1||k0 into bit 1.
    """
    key_state = check_int(key_state, "key state", GiftError, 128)
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
    key_state = check_int(key_state, "key state", GiftError, 128)
    k0 = key_state & 0xFFFF
    k1 = (key_state >> 16) & 0xFFFF
    rest = key_state >> 32
    return (_rotr16(k1, 2) << 112) | (_rotr16(k0, 12) << 96) | rest


@dataclass(frozen=True)
class RoundConstantState:
    """6-bit round-constant register c5..c0."""

    value: int

    def __post_init__(self):
        object.__setattr__(self, "value", check_int(self.value, "round constant", GiftError, 6))

    @classmethod
    def initial(cls) -> "RoundConstantState":
        # Register starts at zero and is clocked once before the first
        # round, so round 0 sees 0x01.
        return cls(0x01)

    def state_mask(self, variant) -> int:
        mask = 1 << (variant.block_bits - 1)
        for b in range(6):
            mask |= ((self.value >> b) & 1) << (3 + 4 * b)
        return mask


def update_round_constant(rc: RoundConstantState) -> RoundConstantState:
    """Clock the register: left shift, new LSB = c5 XOR c4 XOR 1."""
    c = rc.value
    return RoundConstantState(((c << 1) & 0x3E) | ((((c >> 5) ^ (c >> 4)) & 1) ^ 1))


def add_round_key_and_constant(
    state: int, rk: RoundKey, rc: RoundConstantState, variant
) -> int:
    """XOR the round key and round constant at their target positions only."""
    state = check_int(state, "state", GiftError, variant.block_bits)
    return state ^ rk.state_mask() ^ rc.state_mask(variant)


# ---------------------------------------------------------------------------
# Whole encryptions, round by round


def key_state_sequence(key: int, variant) -> list[int]:
    """The key state each round starts from."""
    ks = key
    states = []
    for _ in range(variant.rounds):
        states.append(ks)
        ks = update_key_state(ks)
    return states


def slow_round_masks(key: int, variant) -> list[int]:
    """Every round's key+constant XOR vector."""
    masks = []
    ks, rc = key, RoundConstantState.initial()
    for _ in range(variant.rounds):
        masks.append(extract_round_key(ks, variant).state_mask() | rc.state_mask(variant))
        ks, rc = update_key_state(ks), update_round_constant(rc)
    return masks


def slow_encrypt(pt: int, key: int, variant, sbox=GIFT_SBOX) -> int:
    state = pt
    for mask in slow_round_masks(key, variant):
        state = perm_bits(sub_cells(state, variant, sbox), variant) ^ mask
    return state


def slow_decrypt(ct: int, key: int, variant, sbox=GIFT_SBOX) -> int:
    """The per-bit inverse: undo the mask, move bit i to P^-1(i), then S^-1."""
    table = inverse_perm_table(variant)
    state = ct
    for mask in reversed(slow_round_masks(key, variant)):
        state ^= mask
        state = sum(((state >> i) & 1) << table[i] for i in range(variant.block_bits))
        state = sub_cells(state, variant, SBoxTable(sbox).inverse())
    return state
