import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memgift.gift import (
    GIFT64,
    GIFT128,
    GIFT_SBOX,
    CipherState,
    GiftError,
    RoundConstantState,
    SBoxTable,
    add_round_key_and_constant,
    decrypt_block,
    encrypt_block,
    extract_round_key,
    inverse_perm_table,
    parse_kat_lines,
    perm_bits,
    perm_table,
    round_addition_masks,
    sub_cells,
    update_key_state,
    update_round_constant,
)

# Permutation tables as published in the cipher specification, transcribed
# from an independent third-party implementation.
PERM64_REF = (
    0, 17, 34, 51, 48, 1, 18, 35, 32, 49, 2, 19, 16, 33, 50, 3,
    4, 21, 38, 55, 52, 5, 22, 39, 36, 53, 6, 23, 20, 37, 54, 7,
    8, 25, 42, 59, 56, 9, 26, 43, 40, 57, 10, 27, 24, 41, 58, 11,
    12, 29, 46, 63, 60, 13, 30, 47, 44, 61, 14, 31, 28, 45, 62, 15,
)
PERM128_REF = (
    0, 33, 66, 99, 96, 1, 34, 67, 64, 97, 2, 35, 32, 65, 98, 3,
    4, 37, 70, 103, 100, 5, 38, 71, 68, 101, 6, 39, 36, 69, 102, 7,
    8, 41, 74, 107, 104, 9, 42, 75, 72, 105, 10, 43, 40, 73, 106, 11,
    12, 45, 78, 111, 108, 13, 46, 79, 76, 109, 14, 47, 44, 77, 110, 15,
    16, 49, 82, 115, 112, 17, 50, 83, 80, 113, 18, 51, 48, 81, 114, 19,
    20, 53, 86, 119, 116, 21, 54, 87, 84, 117, 22, 55, 52, 85, 118, 23,
    24, 57, 90, 123, 120, 25, 58, 91, 88, 121, 26, 59, 56, 89, 122, 27,
    28, 61, 94, 127, 124, 29, 62, 95, 92, 125, 30, 63, 60, 93, 126, 31,
)

# First 40 round-constant values, same independent source.
RC_REF = (
    0x01, 0x03, 0x07, 0x0F, 0x1F, 0x3E, 0x3D, 0x3B, 0x37, 0x2F,
    0x1E, 0x3C, 0x39, 0x33, 0x27, 0x0E, 0x1D, 0x3A, 0x35, 0x2B,
    0x16, 0x2C, 0x18, 0x30, 0x21, 0x02, 0x05, 0x0B, 0x17, 0x2E,
    0x1C, 0x38, 0x31, 0x23, 0x06, 0x0D, 0x1B, 0x36, 0x2D, 0x1A,
)


def random_state(rng, variant):
    return rng.getrandbits(variant.block_bits)


# ---------------------------------------------------------------------------
# Known-answer tests (the master oracle for everything else)


def test_kat_gift128(kat128):
    assert len(kat128) == 3
    for vec in kat128:
        assert vec.variant is GIFT128
        assert encrypt_block(vec.pt, vec.key, GIFT128) == vec.ct


def test_kat_gift64(kat64):
    assert len(kat64) == 3
    for vec in kat64:
        assert vec.variant is GIFT64
        assert encrypt_block(vec.pt, vec.key, GIFT64) == vec.ct


def test_kat_decrypt(kat64, kat128):
    for vec in kat64 + kat128:
        assert decrypt_block(vec.ct, vec.key, vec.variant) == vec.pt


# ---------------------------------------------------------------------------
# SubCells


def test_sbox_is_bijective():
    assert sorted(GIFT_SBOX.entries) == list(range(16))
    inv = GIFT_SBOX.inverse()
    for x in range(16):
        assert inv[GIFT_SBOX[x]] == x


def test_sbox_rejects_non_permutation():
    with pytest.raises(GiftError):
        SBoxTable([0] * 16)


def test_sub_cells_round_trip(variant):
    rng = random.Random(1)
    inv = GIFT_SBOX.inverse()
    for _ in range(100):
        state = random_state(rng, variant)
        assert sub_cells(sub_cells(state, variant), variant, inv) == state


def test_sub_cells_uniform_state(variant):
    fives = int("5" * variant.nibbles, 16)
    expected = int(f"{GIFT_SBOX[5]:x}" * variant.nibbles, 16)
    assert sub_cells(fives, variant) == expected


# ---------------------------------------------------------------------------
# PermBits


def test_perm_table_matches_reference():
    assert perm_table(GIFT64) == PERM64_REF
    assert perm_table(GIFT128) == PERM128_REF


def test_perm_preserves_bit_plane(variant):
    for i, p in enumerate(perm_table(variant)):
        assert p % 4 == i % 4


def test_perm_is_permutation(variant):
    table = perm_table(variant)
    assert sorted(table) == list(range(variant.block_bits))
    rng = random.Random(2)
    for _ in range(20):
        state = random_state(rng, variant)
        once = perm_bits(state, variant)
        # applying the inverse mapping undoes it
        undone = 0
        for i in range(variant.block_bits):
            undone |= ((once >> table[i]) & 1) << i
        assert undone == state


# ---------------------------------------------------------------------------
# Key schedule


def test_zero_key_round_keys():
    rk = extract_round_key(0, GIFT128)
    assert rk.bits == 0 and rk.state_mask() == 0


def test_key_state_fixed_points():
    assert update_key_state(0) == 0
    ones = (1 << 128) - 1
    assert update_key_state(ones) == ones


def naive_update_key_state(ks):
    # Independent formulation: word list shuffle + in-word rotations.
    words = [(ks >> (16 * i)) & 0xFFFF for i in range(8)]
    rot = lambda x, n: ((x >> n) | (x << (16 - n))) & 0xFFFF
    new = words[2:8] + [rot(words[0], 12), rot(words[1], 2)]
    out = 0
    for i, w in enumerate(new):
        out |= w << (16 * i)
    return out


def test_key_schedule_against_naive(kat128):
    ks = kat128[2].key
    for _ in range(40):
        assert update_key_state(ks) == naive_update_key_state(ks)
        ks = update_key_state(ks)


def test_single_key_bit_flip_changes_one_rk_bit(variant):
    rng = random.Random(3)
    key = rng.getrandbits(128)
    base = [extract_round_key(ks, variant).bits for ks in key_state_sequence(key, variant)]
    for bit in range(128):
        flipped = key ^ (1 << bit)
        seq = [extract_round_key(ks, variant).bits for ks in key_state_sequence(flipped, variant)]
        diffs = [bin(a ^ b).count("1") for a, b in zip(base, seq)]
        assert all(d in (0, 1) for d in diffs)
        assert sum(diffs) >= 1  # every key bit is selected at least once


def key_state_sequence(key, variant):
    ks = key
    states = []
    for _ in range(variant.rounds):
        states.append(ks)
        ks = update_key_state(ks)
    return states


# ---------------------------------------------------------------------------
# Round constants


def test_round_constant_sequence():
    rc = RoundConstantState.initial()
    seen = []
    for _ in range(40):
        seen.append(rc.value)
        rc = update_round_constant(rc)
    assert tuple(seen) == RC_REF


def test_round_constants_no_immediate_repeat():
    rc = RoundConstantState.initial()
    prev = None
    for _ in range(40):
        assert rc.value != prev
        prev = rc.value
        rc = update_round_constant(rc)


# ---------------------------------------------------------------------------
# AddRoundKey


def test_add_round_key_zero_is_identity(variant):
    rng = random.Random(4)
    rk = extract_round_key(0, variant)
    rc = RoundConstantState(0)
    state = random_state(rng, variant)
    # zero RK and zero RC register: only the fixed MSB '1' remains
    out = add_round_key_and_constant(state, rk, rc, variant)
    assert out == state ^ (1 << (variant.block_bits - 1))


def test_add_round_key_involution(variant):
    rng = random.Random(5)
    rk = extract_round_key(rng.getrandbits(128), variant)
    rc = RoundConstantState.initial()
    for _ in range(20):
        state = random_state(rng, variant)
        once = add_round_key_and_constant(state, rk, rc, variant)
        assert add_round_key_and_constant(once, rk, rc, variant) == state


def test_add_round_key_touches_exact_positions(variant):
    # all-ones key material and constant: exactly 2*(n/4) + 7 positions flip
    rk = extract_round_key((1 << 128) - 1, variant)
    rc = RoundConstantState(0x3F)
    touched = rk.state_mask() | rc.state_mask(variant)
    assert bin(touched).count("1") == 2 * variant.nibbles + 7
    lo, hi = variant.key_xor_bits
    for i in range(variant.block_bits):
        if (touched >> i) & 1:
            assert i % 4 in (lo, hi) or i in variant.rc_positions
    rng = random.Random(6)
    for _ in range(100):
        state = random_state(rng, variant)
        out = add_round_key_and_constant(state, rk, rc, variant)
        assert (out ^ state) & ~touched == 0


# ---------------------------------------------------------------------------
# Block level


def test_encrypt_decrypt_round_trip(variant):
    rng = random.Random(7)
    for _ in range(500):
        key = rng.getrandbits(128)
        pt = random_state(rng, variant)
        assert decrypt_block(encrypt_block(pt, key, variant), key, variant) == pt


def test_wrong_key_fails_decrypt(kat128):
    rng = random.Random(8)
    for vec in kat128:
        for _ in range(5):
            wrong = rng.getrandbits(128)
            if wrong != vec.key:
                assert decrypt_block(vec.ct, wrong, GIFT128) != vec.pt


def test_avalanche(variant):
    rng = random.Random(9)
    n = variant.block_bits
    total = 0
    trials = 1000
    key = rng.getrandbits(128)
    for _ in range(trials):
        pt = random_state(rng, variant)
        bit = rng.randrange(n)
        a = encrypt_block(pt, key, variant)
        b = encrypt_block(pt ^ (1 << bit), key, variant)
        total += bin(a ^ b).count("1")
    mean = total / trials
    assert 0.45 * n <= mean <= 0.55 * n


def test_size_mismatch_rejected():
    with pytest.raises(GiftError):
        encrypt_block(1 << 64, 0, GIFT64)
    with pytest.raises(GiftError):
        encrypt_block(0, 1 << 128, GIFT128)
    with pytest.raises(GiftError):
        decrypt_block(1 << 128, 0, GIFT128)


def test_round_addition_masks_line_up(kat64, kat128):
    # full encryption assembled from the masks equals encrypt_block
    for vec in kat64 + kat128:
        state = vec.pt
        for mask in round_addition_masks(vec.key, vec.variant):
            state = perm_bits(sub_cells(state, vec.variant), vec.variant) ^ mask
        assert state == vec.ct


# ---------------------------------------------------------------------------
# Slow oracle: the table-driven schedule and cipher against the per-bit
# round primitives


def slow_round_masks(key, variant):
    masks = []
    ks, rc = key, RoundConstantState.initial()
    for _ in range(variant.rounds):
        masks.append(extract_round_key(ks, variant).state_mask() | rc.state_mask(variant))
        ks, rc = update_key_state(ks), update_round_constant(rc)
    return masks


def slow_encrypt(pt, key, variant, sbox):
    state = pt
    for mask in slow_round_masks(key, variant):
        state = perm_bits(sub_cells(state, variant, sbox), variant) ^ mask
    return state


def slow_decrypt(ct, key, variant, sbox):
    """The per-bit inverse: undo the mask, move bit i to P^-1(i), then S^-1."""
    table = inverse_perm_table(variant)
    state = ct
    for mask in reversed(slow_round_masks(key, variant)):
        state ^= mask
        state = sum(((state >> i) & 1) << table[i] for i in range(variant.block_bits))
        state = sub_cells(state, variant, sbox.inverse())
    return state


variants = st.sampled_from([GIFT64, GIFT128])
keys = st.integers(0, (1 << 128) - 1)
sboxes = st.permutations(range(16)).map(SBoxTable)


@settings(max_examples=60)
@given(variants, keys)
def test_round_addition_masks_match_per_bit_build(variant, key):
    assert round_addition_masks(key, variant) == slow_round_masks(key, variant)


@settings(max_examples=40)
@given(variants, keys, st.data(), st.one_of(st.just(GIFT_SBOX), sboxes))
def test_encrypt_block_matches_per_bit_rounds(variant, key, data, sbox):
    pt = data.draw(st.integers(0, (1 << variant.block_bits) - 1), label="pt")
    assert encrypt_block(pt, key, variant, sbox) == slow_encrypt(pt, key, variant, sbox)


@settings(max_examples=40)
@given(variants, keys, st.data(), st.one_of(st.just(GIFT_SBOX), sboxes))
def test_encrypt_decrypt_round_trip_property(variant, key, data, sbox):
    pt = data.draw(st.integers(0, (1 << variant.block_bits) - 1), label="pt")
    assert decrypt_block(encrypt_block(pt, key, variant, sbox), key, variant, sbox) == pt


@settings(max_examples=40)
@given(variants, keys, st.data(), st.one_of(st.just(GIFT_SBOX), sboxes))
def test_decrypt_block_matches_per_bit_inverse(variant, key, data, sbox):
    ct = data.draw(st.integers(0, (1 << variant.block_bits) - 1), label="ct")
    assert decrypt_block(ct, key, variant, sbox) == slow_decrypt(ct, key, variant, sbox)


# ---------------------------------------------------------------------------
# State / hex plumbing


def test_cipher_state_hex_round_trip():
    s = CipherState.from_hex("e39c141fa57dba43f08a85b6a91f86c1", 128)
    assert s.to_hex() == "e39c141fa57dba43f08a85b6a91f86c1"
    assert s.nibble(0) == 0x1  # least significant hex digit
    assert s.bit(127) == 1


def test_cipher_state_validation():
    with pytest.raises(GiftError):
        CipherState.from_hex("00", 64)
    with pytest.raises(GiftError):
        CipherState.from_hex("zz" * 8, 64)
    with pytest.raises(GiftError):
        CipherState(1 << 64, 64)


def test_hex_parsers_take_ascii_hex_digits_only(bad_hex):
    with pytest.raises(GiftError, match="invalid hex"):
        CipherState.from_hex(bad_hex(16), 64)
    fields = {"key": "0" * 32, "pt": "0" * 16, "ct": "0" * 16}
    for name in fields:
        line = " ".join(f"{f}={bad_hex(len(v)) if f == name else v}" for f, v in fields.items())
        with pytest.raises(GiftError, match=f"{name}: invalid hex"):
            parse_kat_lines([line])


def test_kat_parser_errors():
    with pytest.raises(GiftError):
        parse_kat_lines(["key=00 pt=00 ct=00"])
    with pytest.raises(GiftError):
        parse_kat_lines(["key=" + "0" * 32 + " pt=" + "0" * 16])
    with pytest.raises(GiftError):
        parse_kat_lines(["key=" + "0" * 32 + " pt=" + "0" * 16 + " ct=" + "0" * 32])
    # each of key, pt and ct once, and nothing else
    line = "key=" + "0" * 32 + " pt=0001020304050607 ct=0001020304050607"
    for extra in (" ct=ffffffffffffffff", " foo=zz", " key=" + "0" * 32, " PT=0001020304050607"):
        with pytest.raises(GiftError, match="KAT line 1: (repeated|unknown) field"):
            parse_kat_lines([line + extra])
