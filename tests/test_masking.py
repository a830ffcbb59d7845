import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memgift.errors import MemgiftError
from memgift.gift import GIFT64, GIFT128, GIFT_SBOX, SBoxTable, encrypt_block
from memgift.masking import (
    MaskMismatchError,
    apply_mask,
    encrypt_masked,
    remask_sbox,
    replicate_mask,
)
from memgift.pipeline import EncryptionSession

RNG = random.Random(40)


# ---------------------------------------------------------------------------
# Table remasking


def test_zero_mask_is_identity():
    assert remask_sbox(GIFT_SBOX, 0) == GIFT_SBOX


def test_remask_twice_restores():
    for m in range(16):
        masked = remask_sbox(GIFT_SBOX, m)
        assert remask_sbox(masked, m) == GIFT_SBOX


def test_remask_exhaustive_identity():
    # S'(x ^ m) ^ m == S(x) for all x and all 16 masks
    for m in range(16):
        masked = remask_sbox(GIFT_SBOX, m)
        assert sorted(masked) == list(range(16))  # stays bijective
        for x in range(16):
            assert masked[x ^ m] ^ m == GIFT_SBOX[x]


def test_remask_rejects_wide_mask():
    with pytest.raises(ValueError):
        remask_sbox(GIFT_SBOX, 16)


# ---------------------------------------------------------------------------
# Masked sessions


def test_masked_encryption_equals_plain(variant):
    for scheme in ("sxor", "dxor"):
        for _ in range(5):
            key = RNG.getrandbits(128)
            pt = RNG.getrandbits(variant.block_bits)
            m = RNG.randrange(16)
            session = EncryptionSession(key, variant, scheme)
            apply_mask(session, m)
            ct, _ = encrypt_masked(session, pt, m)
            assert ct == encrypt_block(pt, key, variant)


def test_all_sixteen_masks_fixed_key_pt():
    key = RNG.getrandbits(128)
    pt = RNG.getrandbits(128)
    want = encrypt_block(pt, key, GIFT128)
    for m in range(16):
        session = EncryptionSession(key, GIFT128, "dxor")
        apply_mask(session, m)
        ct, _ = encrypt_masked(session, pt, m)
        assert ct == want


def test_zero_mask_session_matches_plain_encrypt():
    key = RNG.getrandbits(128)
    pt = RNG.getrandbits(128)
    session = EncryptionSession(key, GIFT128, "dxor")
    apply_mask(session, 0)
    ct, _ = encrypt_masked(session, pt, 0)
    assert ct == encrypt_block(pt, key, GIFT128)


def test_masked_intermediate_states_differ():
    key = RNG.getrandbits(128)
    pt = RNG.getrandbits(128)
    plain = EncryptionSession(key, GIFT128, "dxor")
    _, plain_traces = plain.encrypt(pt, trace=True)
    m = 0xB
    masked = EncryptionSession(key, GIFT128, "dxor")
    apply_mask(masked, m)
    word = replicate_mask(m, 32)
    _, masked_traces = masked.encrypt(pt ^ word, trace=True)
    differing = sum(
        1
        for a, b in zip(plain_traces, masked_traces)
        if a.post_state != b.post_state
    )
    assert differing == len(plain_traces)  # every register snapshot decorrelated
    # and the mask relation holds round by round
    for a, b in zip(plain_traces, masked_traces):
        assert b.post_state == a.post_state ^ word


def test_remask_write_accounting():
    session = EncryptionSession(0, GIFT128, "dxor")
    before = session.write_log.get("cell_write")
    apply_mask(session, 0x7)
    assert session.write_log.get("cell_write") == before + 16 * 4 * 32
    # encrypting afterwards still adds no writes
    session.encrypt(0)
    assert session.current_log.get("cell_write") == 0


@pytest.mark.parametrize("mask", [16, -1])
def test_apply_mask_rejects_wide_mask_before_any_write(mask):
    session = EncryptionSession(0, GIFT128, "dxor")
    writes = session.write_log.get("cell_write")
    with pytest.raises(MemgiftError, match="4-bit"):
        apply_mask(session, mask)
    assert session.write_log.get("cell_write") == writes and session.mask == 0


def test_mask_mismatch_rejected():
    session = EncryptionSession(0, GIFT128, "dxor")
    apply_mask(session, 0x3)
    with pytest.raises(MaskMismatchError):
        encrypt_masked(session, 0, 0x4)


def test_mask_survives_gift64_plane():
    # same construction holds for the 64-bit variant
    key = RNG.getrandbits(128)
    pt = RNG.getrandbits(64)
    session = EncryptionSession(key, GIFT64, "sxor")
    apply_mask(session, 0xF)
    ct, _ = encrypt_masked(session, pt, 0xF)
    assert ct == encrypt_block(pt, key, GIFT64)


@settings(max_examples=40, deadline=None)
@given(
    sbox=st.permutations(range(16)),
    mask=st.integers(0, 15),
    key=st.integers(0, 2**128 - 1),
    pt=st.integers(0, 2**64 - 1),
)
def test_masking_is_transparent_for_any_sbox(sbox, mask, key, pt):
    # the mask must be applied to the session's own S-box, not GIFT's
    session = EncryptionSession(key, GIFT64, "dxor", sbox=SBoxTable(sbox))
    plain, _ = session.encrypt(pt)
    apply_mask(session, mask)
    masked, _ = encrypt_masked(session, pt, mask)
    assert masked == plain
