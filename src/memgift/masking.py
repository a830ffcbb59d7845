"""Run-time S-box remasking.

The crossbar's S-box LUT is reconfigurable, so intermediate values can be
decorrelated from the secret state by programming a masked table

    S'(x) = S(x ^ m) ^ m

with a single 4-bit mask m applied uniformly to every slice.  The mask
survives the round structure because (a) the key/constant XOR is linear,
so it commutes with the mask, and (b) the feedback wiring keeps every bit
in its in-nibble plane, so a slice-uniform mask maps to itself.  Masking
the plaintext nibbles on the way in and unmasking the result therefore
reproduces the unmasked ciphertext exactly.
"""

from __future__ import annotations

from .errors import check_int
from .gift import GiftError, SBoxTable
from .pipeline import EncryptionSession, PipelineError


class MaskMismatchError(PipelineError):
    """Supplied mask does not match the mask programmed into the slices."""


def remask_sbox(sbox: SBoxTable, mask: int) -> SBoxTable:
    """Masked table S'(x) = S(x ^ m) ^ m; bijective for every mask."""
    sbox, mask = SBoxTable(sbox), check_int(mask, "mask", GiftError, 4)
    return SBoxTable(tuple(sbox[x ^ mask] ^ mask for x in range(16)))


def replicate_mask(mask: int, nibbles: int) -> int:
    mask = check_int(mask, "mask", GiftError, 4)
    word = 0
    for j in range(nibbles):
        word |= mask << (4 * j)
    return word


def apply_mask(session: EncryptionSession, mask: int) -> None:
    """Reprogram every slice's S-box region with the session's base S-box
    (the table it was compiled with) masked by `mask` (16x4 cell writes per
    slice, logged for energy reporting); a mask that is not an integer in
    0..15 raises GiftError before any write."""
    mask = check_int(mask, "mask", GiftError, 4)
    session.reprogram_sbox(remask_sbox(session.bundle.sbox, mask))
    session.mask = mask  # reprogram_sbox cleared it


def encrypt_masked(session: EncryptionSession, pt: int, mask: int, trace: bool = False):
    """Encrypt under the masked S-box; the result equals plain encryption.

    Input nibbles are pre-XORed with the mask and output nibbles XORed
    with it again after the final round; the plaintext and the mask are
    checked first.
    """
    pt = check_int(pt, "plaintext", PipelineError, session.variant.block_bits)
    mask = check_int(mask, "mask", GiftError, 4)
    if session.mask != mask:
        raise MaskMismatchError(
            f"session is programmed for mask {session.mask:#x}, got {mask:#x}"
        )
    word = replicate_mask(mask, session.variant.nibbles)
    ct, traces = session.encrypt(pt ^ word, trace=trace)
    return ct ^ word, traces
