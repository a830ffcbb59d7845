"""Bit-exact reference implementation of GIFT-64 and GIFT-128 encryption.

Conventions used throughout the package:

* An n-bit cipher state is a Python int.  Bit 0 is the least significant
  bit of the hexadecimal representation; nibble j covers bits 4j..4j+3.
* Hex strings are written most-significant digit first.
* Keys are always 128 bits, viewed as eight 16-bit words k7..k0 with k0
  in the least significant position.

The block functions take a round one state byte at a time, in 256-entry
tables built on first use.  Their oracle is a per-bit statement of every
round step, kept with the tests (`tests/gift_spec.py`) so that the package
holds only the cipher that runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from operator import getitem
from typing import Iterable, Sequence

import numpy as np

from .errors import MemgiftError, check_int, read_text


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
    except (KeyError, TypeError):  # TypeError: an unhashable spec
        raise GiftError(f"unknown cipher variant: {spec!r}") from None


class SBoxTable(tuple):
    """4-bit substitution table; must be a permutation of 0..15.  Every
    function that takes an S-box takes it through this constructor: a
    table passes as it is, 16 integers are checked into one, and anything
    else raises GiftError.  It is the tuple of its 16 entries, so copies
    and pickles are rebuilt through this constructor."""

    __slots__ = ()

    def __new__(cls, entries: Iterable[int]):
        if isinstance(entries, SBoxTable):
            return entries
        try:
            entries = tuple(check_int(e, "S-box entry", GiftError, 4) for e in entries)
        except TypeError:
            raise GiftError(f"S-box must be 16 integers, not {type(entries).__name__}") from None
        if sorted(entries) != list(range(16)):
            raise GiftError("S-box must be a permutation of 0..15")
        return super().__new__(cls, entries)

    def __repr__(self) -> str:
        return "SBoxTable(({}))".format(", ".join(f"0x{e:x}" for e in self))

    def inverse(self) -> "SBoxTable":
        inv = [0] * 16
        for x, y in enumerate(self):
            inv[y] = x
        return SBoxTable(inv)


GIFT_SBOX = SBoxTable(
    (0x1, 0xA, 0x4, 0xC, 0x6, 0xF, 0x3, 0x9, 0x2, 0xD, 0xB, 0x7, 0x5, 0x0, 0x8, 0xE)
)


# ---------------------------------------------------------------------------
# Bit permutation, key schedule and round constants


@lru_cache(maxsize=None)
def _perm_tables(block_bits: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The GIFT bit permutation as a table, bit i moving to P(i), and its
    inverse.  P preserves the bit plane: P(i) == i (mod 4) for all i."""
    stride = block_bits // 4
    fwd = tuple(
        4 * (i // 16) + stride * ((3 * ((i % 16) // 4) + (i % 4)) % 4) + (i % 4)
        for i in range(block_bits)
    )
    inv = [0] * block_bits
    for i, p in enumerate(fwd):
        inv[p] = i
    return fwd, tuple(inv)


def perm_table(variant: CipherVariant) -> tuple[int, ...]:
    return _perm_tables(variant_for(variant).block_bits)[0]


@lru_cache(maxsize=None)
def _key_tables(block_bits: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The key schedule as tables: entry [i][v] holds every round's mask
    bits that key nibble 31 - i sets when it holds v, round r at bits r*n
    and up; and every round's constants as one such int.  Word m of the
    key-state sequence (round r's k0..k7 are words 2r..2r+7) is key word
    m % 8 rotated right t = m // 8 times, by 12 bits for even m, by 2 for
    odd m: bit i of the key word lands at bit (i + 4t) % 16 or (i - 2t) % 16."""
    variant = VARIANTS[block_bits]
    n, rounds, (lo, hi) = block_bits, variant.rounds, variant.key_xor_bits
    # the words round r XORs, (m - 2r, plane, first nibble): V = k0, U = k1
    words = [(0, lo, 0), (1, hi, 0)]
    if n == 128:  # V = k1||k0, U = k5||k4
        words = [(0, lo, 0), (1, lo, 16), (4, hi, 0), (5, hi, 16)]
    d, plane, first = np.array(words).T[:, :, None, None]
    r, i = np.arange(rounds)[:, None], np.arange(16)
    m = 2 * r + d  # bit i of word m is key bit 16*(m % 8) + i, at most once a round
    at = r * n + 4 * (first + np.where(m % 2, i - 2 * (m // 8), i + 4 * (m // 8)) % 16) + plane
    lands = np.zeros((128, rounds * n // 8), dtype=np.uint8)
    lands[16 * (m % 8) + i, at >> 3] = 1 << (at & 7)
    basis = [int.from_bytes(row.tobytes(), "little") for row in lands]
    tables = [[0] for _ in range(32)]
    for table, nibble in zip(tables, range(31, -1, -1)):
        for bit in basis[4 * nibble : 4 * nibble + 4]:  # each bit doubles the table
            table += [t | bit for t in table]
    constants, c, positions = 0, 0x01, variant.rc_positions
    for rnd in range(rounds):  # c5..c0 from 0x01, clocked: shifted left, new LSB c5 ^ c4 ^ 1
        held = c | 1 << 6  # c0..c5, then a fixed 1, at `rc_positions`
        constants |= sum((held >> b & 1) << p for b, p in enumerate(positions)) << rnd * n
        c = ((c << 1) & 0x3E) | ((((c >> 5) ^ (c >> 4)) & 1) ^ 1)
    return tuple(map(tuple, tables)), constants


_DIGITS = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))  # a hex digit's value


def round_addition_masks(key: int, variant: CipherVariant) -> list[int]:
    """Per-round key+constant XOR vectors for a whole encryption: round r
    is its round key, the U and V words of key state r on nibble planes hi
    and lo (`variant.key_xor_bits`), OR its round-constant mask: one sum
    of the key nibbles' `_key_tables` entries and the constants, split."""
    key = check_int(key, "key", GiftError, 128)
    variant = variant_for(variant)
    tables, constants = _key_tables(variant.block_bits)
    # a key's hex digits are its nibbles; no two entries set one bit, so their sum is their OR
    masks = sum(map(getitem, tables, f"{key:032x}".encode().translate(_DIGITS)), constants)
    size = variant.rounds * variant.block_bits // 8
    words = np.frombuffer(masks.to_bytes(size, "little"), dtype="<u8").tolist()
    if variant.block_bits == 64:
        return words
    return [low | high << 64 for low, high in zip(words[0::2], words[1::2])]


# ---------------------------------------------------------------------------
# Block encryption


def _byte_spreads(table: Sequence[int], values: Iterable[int]) -> tuple:
    """A bit permutation folded per byte: W_i[x] is the bits of values[x & 15]
    moved to positions table[8i .. 8i+3], OR those of values[x >> 4] moved
    to table[8i+4 .. 8i+7]."""
    values = tuple(values)
    nibbles = [
        [sum(((y >> b) & 1) << table[4 * j + b] for b in range(4)) for y in values]
        for j in range(len(table) // 4)
    ]
    pairs = zip(nibbles[0::2], nibbles[1::2])
    return tuple(tuple(high | low for high in hi for low in lo) for lo, hi in pairs)


@lru_cache(maxsize=16)
def _round_tables(sbox: SBoxTable, block_bits: int) -> tuple[tuple[int, ...], ...]:
    """SubCells and PermBits folded per byte: T_i[x] = P(S(x) << 8i), with S
    applied to each nibble of the byte x, so a round is XOR_i T_i[byte i]."""
    return _byte_spreads(_perm_tables(block_bits)[0], sbox)


def encrypt_block(
    pt: int, key: int, variant: CipherVariant, sbox: SBoxTable = GIFT_SBOX
) -> int:
    """Apply rounds x (SubCells -> PermBits -> AddRoundKey+Constant), each
    round one lookup per byte of the state in the folded tables."""
    variant = variant_for(variant)
    pt = check_int(pt, "plaintext", GiftError, variant.block_bits)
    tables = _round_tables(SBoxTable(sbox), variant.block_bits)
    nbytes, state = variant.block_bits // 8, pt
    for mask in round_addition_masks(key, variant):
        for t, byte in zip(tables, state.to_bytes(nbytes, "little")):
            mask ^= t[byte]
        state = mask
    return state


@lru_cache(maxsize=16)
def _inverse_round_tables(
    sbox: SBoxTable, block_bits: int
) -> tuple[tuple[tuple[int, ...], ...], bytes]:
    """PermBits inverted per byte, U_i[x] = P^-1(x << 8i), and the inverse
    S-box applied to both nibbles of every byte, as a `bytes.translate`
    table."""
    inv = sbox.inverse()
    return (
        _byte_spreads(_perm_tables(block_bits)[1], range(16)),
        bytes(inv[x & 15] | inv[x >> 4] << 4 for x in range(256)),
    )


def decrypt_block(
    ct: int, key: int, variant: CipherVariant, sbox: SBoxTable = GIFT_SBOX
) -> int:
    """Inverse of encrypt_block (software test oracle): per round, undo the
    key+constant XOR, then PermBits by one lookup per byte, then SubCells
    by one translate of the state's bytes."""
    variant = variant_for(variant)
    ct = check_int(ct, "ciphertext", GiftError, variant.block_bits)
    spread, inv = _inverse_round_tables(SBoxTable(sbox), variant.block_bits)
    nbytes, state = variant.block_bits // 8, ct
    for mask in reversed(round_addition_masks(key, variant)):
        permuted = 0
        for u, byte in zip(spread, (state ^ mask).to_bytes(nbytes, "little")):
            permuted ^= u[byte]
        state = int.from_bytes(permuted.to_bytes(nbytes, "little").translate(inv), "little")
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
