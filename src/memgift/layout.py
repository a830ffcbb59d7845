"""Offline layout compiler.

Turns a 128-bit key into the per-slice crossbar contents: the S-box LUT
plus round-key/round-constant bits for every round, pre-placed at their
pre-permutation coordinates so that the runtime datapath never touches
the key schedule.  Slice j, in-nibble bit b, round r holds the bit that
the reference cipher XORs at global position P(4j+b) in round r; the
inter-round feedback wiring then realises P.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from pathlib import Path

import numpy as np

from .errors import MemgiftError
from .gift import (
    GIFT_SBOX,
    CipherVariant,
    SBoxTable,
    perm_table,
    round_addition_masks,
    variant_for,
)


class LayoutError(MemgiftError, ValueError):
    """Malformed layout bundle or layout file."""


class LayoutVersionError(LayoutError):
    """Layout file header carries an unsupported magic/version."""


class LayoutChecksumError(LayoutError):
    """Layout file checksum does not match its contents."""


class LayoutTruncatedError(LayoutError):
    """Layout file ends before all expected records."""


LAYOUT_MAGIC = "MEMGIFT-LAYOUT"
LAYOUT_VERSION = "v1"


@dataclass
class SliceKeyMatrix:
    """Key/constant region of one slice.

    columns holds the in-nibble bit positions, e.g. (1, 2) or (1, 2, 3);
    bits is a (rounds, len(columns)) uint8 array, row r = word line 16+r.
    """

    slice_index: int
    columns: tuple[int, ...]
    bits: np.ndarray

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SliceKeyMatrix)
            and self.slice_index == other.slice_index
            and self.columns == other.columns
            and np.array_equal(self.bits, other.bits)
        )


@dataclass
class LayoutBundle:
    """Everything needed to program the slices for one key; the feedback
    wiring is the variant's `perm_table`.

    The key bits are held once, as `program_slice` writes them: key_bits[r]
    is round r's word line across every slice's key columns, slice by slice,
    and columns[j] names slice j's in-nibble columns (`slice_columns`), so
    slice j owns the next len(columns[j]) columns of key_bits.
    """

    variant: CipherVariant
    sbox_matrix: np.ndarray  # (16, 4) uint8; row k = S(k), column b = bit b
    key_bits: np.ndarray  # (rounds, key columns) uint8
    columns: tuple[tuple[int, ...], ...]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LayoutBundle)
            and self.variant == other.variant
            and self.columns == other.columns
            and np.array_equal(self.sbox_matrix, other.sbox_matrix)
            and np.array_equal(self.key_bits, other.key_bits)
        )

    @property
    def slices(self) -> list[SliceKeyMatrix]:
        """Each slice's key region, its bits a view of key_bits."""
        ends = accumulate(map(len, self.columns))
        return [
            SliceKeyMatrix(j, cols, self.key_bits[:, end - len(cols) : end])
            for j, (cols, end) in enumerate(zip(self.columns, ends))
        ]

    @property
    def sbox(self) -> SBoxTable:
        weights = np.array([1, 2, 4, 8], dtype=np.uint8)
        return SBoxTable((self.sbox_matrix * weights).sum(axis=1).tolist())

    def cell_count(self) -> int:
        return 16 * 4 * len(self.columns) + self.key_bits.size


def sbox_bit_matrix(sbox: SBoxTable) -> np.ndarray:
    """The (16, 4) bits of an S-box, row k = S(k), column b = bit b; cached
    per S-box, so read-only.  The S-box goes through `SBoxTable`, so a bad
    one raises GiftError."""
    return _bit_matrix(SBoxTable(sbox))


@lru_cache(maxsize=64)
def _bit_matrix(sbox: SBoxTable) -> np.ndarray:
    rows = [[(sbox[k] >> b) & 1 for b in range(4)] for k in range(16)]
    matrix = np.array(rows, dtype=np.uint8)
    matrix.setflags(write=False)
    return matrix


@lru_cache(maxsize=None)
def _rc_slice_set(block_bits: int) -> frozenset[int]:
    variant = variant_for(block_bits)
    table = perm_table(variant)
    targets = set(variant.rc_positions)
    return frozenset(
        j for j in range(variant.nibbles) if table[4 * j + 3] in targets
    )


def rc_slice_set(variant: CipherVariant) -> frozenset[int]:
    """Slices whose bit-3 output feeds a round-constant position."""
    return _rc_slice_set(variant_for(variant).block_bits)


def slice_columns(variant: CipherVariant, slice_index: int) -> tuple[int, ...]:
    variant = variant_for(variant)
    cols = variant.key_xor_bits
    if slice_index in rc_slice_set(variant):
        cols = cols + (3,)
    return cols


@lru_cache(maxsize=None)
def _key_geometry(block_bits: int):
    """Every slice's key columns, and the mask bit that each key column of
    each slice holds (slices in order)."""
    variant = variant_for(block_bits)
    table = perm_table(variant)
    columns = tuple(slice_columns(variant, j) for j in range(variant.nibbles))
    targets = np.array([table[4 * j + b] for j, cols in enumerate(columns) for b in cols])
    return columns, targets


def compile_layout(
    key: int, variant: CipherVariant, sbox: SBoxTable = GIFT_SBOX
) -> LayoutBundle:
    """Pre-compute the per-slice RK/RC bits for all rounds of one key."""
    variant = variant_for(variant)
    masks = round_addition_masks(key, variant)
    nbytes = variant.block_bits // 8
    raw = b"".join(m.to_bytes(nbytes, "little") for m in masks)
    # (rounds, n) bit-plane of the masks
    plane = np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), nbytes), axis=1, bitorder="little"
    )
    columns, targets = _key_geometry(variant.block_bits)
    # every slice's key columns in one gather, strides (1, rounds): program_slice
    # writes fresh keys of this layout faster than of a C-ordered `take`
    return LayoutBundle(variant, sbox_bit_matrix(sbox), plane[:, targets], columns)


def state_to_bits(value: int, n: int) -> np.ndarray:
    """The low n bits of value as a uint8 array, bit i at index i."""
    raw = (value & ((1 << n) - 1)).to_bytes((n + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=n, bitorder="little")


def bits_to_state(bits: np.ndarray) -> int:
    """Inverse of state_to_bits for a 0/1 array."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


# ---------------------------------------------------------------------------
# Layout file format.
#
#   MEMGIFT-LAYOUT v1 <variant>
#   slice <j> sb <16 hex digits>
#   slice <j> rk <rounds hex digits>
#   ...
#   crc32 <8 hex digits>            CRC-32 of every preceding line
#
# Word lines are ordered WL0 -> WL55 left to right; within a digit, the
# region's column 0 is the least significant bit.


def _digit_line(bits: np.ndarray) -> str:
    """One hex digit per row of a (rows, columns) 0/1 array, column 0 the LSB."""
    return "".join(f"{v:x}" for v in (bits @ (1 << np.arange(bits.shape[1]))).tolist())


def export_layout(bundle: LayoutBundle, path) -> None:
    lines = [f"{LAYOUT_MAGIC} {LAYOUT_VERSION} {bundle.variant.name}"]
    sb = _digit_line(bundle.sbox_matrix)
    for km in bundle.slices:
        lines.append(f"slice {km.slice_index} sb {sb}")
        lines.append(f"slice {km.slice_index} rk {_digit_line(km.bits)}")
    body = "\n".join(lines) + "\n"
    crc = zlib.crc32(body.encode("ascii")) & 0xFFFFFFFF
    Path(path).write_text(body + f"crc32 {crc:08x}\n")


def _parse_hex_digits(text: str, expected: int, what: str) -> list[int]:
    if len(text) != expected:
        raise LayoutError(f"{what}: expected {expected} hex digits, got {len(text)}")
    try:
        return [int(c, 16) for c in text]
    except ValueError:
        raise LayoutError(f"{what}: invalid hex") from None


def import_layout(path) -> LayoutBundle:
    try:
        text = Path(path).read_bytes().decode("ascii")
    except FileNotFoundError:
        raise LayoutError(f"{path}: file not found") from None
    except UnicodeDecodeError as exc:
        raise LayoutError(f"non-ASCII byte at offset {exc.start}") from None
    # only "\n" ends a line: str.splitlines would also break on \v, \f, \r, ...
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines:
        raise LayoutTruncatedError("empty layout file")
    header = lines[0].split()
    if len(header) != 3 or header[0] != LAYOUT_MAGIC:
        raise LayoutVersionError(f"not a layout file: {lines[0]!r}")
    if header[1] != LAYOUT_VERSION:
        raise LayoutVersionError(f"unsupported layout version: {header[1]!r}")
    try:
        variant = variant_for(header[2])
    except Exception:
        raise LayoutVersionError(f"unknown variant in header: {header[2]!r}") from None

    if not lines[-1].startswith("crc32 "):
        raise LayoutTruncatedError("missing checksum line")
    body = "\n".join(lines[:-1]) + "\n"
    actual = zlib.crc32(body.encode("ascii")) & 0xFFFFFFFF
    # the whole line, as export_layout writes it: the checksum covers every other byte
    if lines[-1] != f"crc32 {actual:08x}" or not text.endswith("\n"):
        raise LayoutChecksumError(
            f"checksum line {lines[-1]!r} does not state the computed crc32 {actual:08x}"
        )

    records = lines[1:-1]
    expected_records = 2 * variant.nibbles
    if len(records) != expected_records:
        raise LayoutTruncatedError(
            f"expected {expected_records} slice records, found {len(records)}"
        )

    sb_rows: dict[int, list[int]] = {}
    rk_rows: dict[int, list[int]] = {}
    for ln in records:
        parts = ln.split()
        if len(parts) != 4 or parts[0] != "slice" or parts[2] not in ("sb", "rk"):
            raise LayoutError(f"malformed record: {ln!r}")
        if not parts[1].isdecimal() or not 0 <= int(parts[1]) < variant.nibbles:
            raise LayoutError(f"slice index not in 0..{variant.nibbles - 1}: {parts[1]!r}")
        j = int(parts[1])
        if parts[2] == "sb":
            sb_rows[j] = _parse_hex_digits(parts[3], 16, f"slice {j} sb")
        else:
            rk_rows[j] = _parse_hex_digits(parts[3], variant.rounds, f"slice {j} rk")
    if set(sb_rows) != set(range(variant.nibbles)) or set(rk_rows) != set(
        range(variant.nibbles)
    ):
        raise LayoutTruncatedError("missing slice records")

    first_sb = sb_rows[0]
    if any(sb_rows[j] != first_sb for j in sb_rows):
        raise LayoutError("slices carry different S-box contents")
    if sorted(first_sb) != list(range(16)):
        raise LayoutError("S-box rows are not a permutation of 0..15")

    columns = _key_geometry(variant.block_bits)[0]
    for j, cols in enumerate(columns):
        for r, v in enumerate(rk_rows[j]):
            if v >> len(cols):
                raise LayoutError(f"slice {j} round {r}: digit {v:x} exceeds {len(cols)} columns")
    # slice j's digits, bit k of each in its column k, slices in order
    bits = [np.array(rk_rows[j])[:, None] >> np.arange(len(c)) & 1 for j, c in enumerate(columns)]
    key_bits = np.concatenate(bits, axis=1).astype(np.uint8)
    return LayoutBundle(variant, sbox_bit_matrix(first_sb), key_bits, columns)
