import random
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memgift.gift import (
    GIFT64,
    GIFT128,
    RoundConstantState,
    SBoxTable,
    encrypt_block,
    extract_round_key,
    perm_position,
    perm_table,
    update_key_state,
    update_round_constant,
)
from memgift.layout import (
    LayoutChecksumError,
    LayoutError,
    LayoutTruncatedError,
    LayoutVersionError,
    bits_to_state,
    compile_layout,
    evaluate_digital,
    export_layout,
    import_layout,
    rc_slice_set,
    slice_columns,
    state_to_bits,
)

# Expected RC slice sets, derived by brute force over j (see test below).
RC_SLICES_64 = frozenset({2, 3, 6, 7, 11, 12, 15})
RC_SLICES_128 = frozenset({3, 7, 11, 15, 19, 23, 28})


def brute_force_layout(key, variant):
    """Naive construction: walk the reference schedule round by round and
    index the full XOR vector at P(4j+b) for every (j, b, r)."""
    table = perm_table(variant)
    ks = key
    rc = RoundConstantState.initial()
    rows = {j: [] for j in range(variant.nibbles)}
    for _ in range(variant.rounds):
        mask = extract_round_key(ks, variant).state_mask() | rc.state_mask(variant)
        for j in range(variant.nibbles):
            cols = slice_columns(variant, j)
            rows[j].append([(mask >> table[4 * j + b]) & 1 for b in cols])
        ks = update_key_state(ks)
        rc = update_round_constant(rc)
    return {j: np.array(rows[j], dtype=np.uint8) for j in rows}


# ---------------------------------------------------------------------------
# RC slice set


def test_rc_slice_set_size(variant):
    assert len(rc_slice_set(variant)) == 7


def test_rc_slice_set_by_brute_force(variant):
    targets = set(variant.rc_positions)
    expected = {
        j
        for j in range(variant.nibbles)
        if perm_position(4 * j + 3, variant) in targets
    }
    assert rc_slice_set(variant) == expected
    frozen = RC_SLICES_64 if variant is GIFT64 else RC_SLICES_128
    assert rc_slice_set(variant) == frozen


def test_rc_slice_plane(variant):
    for j in rc_slice_set(variant):
        assert perm_position(4 * j + 3, variant) % 4 == 3


# ---------------------------------------------------------------------------
# Compiler vs brute force


def test_compile_matches_brute_force(variant):
    rng = random.Random(10)
    for _ in range(5):
        key = rng.getrandbits(128)
        bundle = compile_layout(key, variant)
        oracle = brute_force_layout(key, variant)
        for km in bundle.slices:
            assert km.columns == slice_columns(variant, km.slice_index)
            assert np.array_equal(km.bits, oracle[km.slice_index])


def test_zero_key_layout(variant):
    zero = compile_layout(0, variant)
    other = compile_layout(random.Random(11).getrandbits(128), variant)
    for km0, km1 in zip(zero.slices, other.slices):
        # key columns all zero for the zero key
        assert not km0.bits[:, :2].any()
        if len(km0.columns) == 3:
            # RC column is key-independent
            assert np.array_equal(km0.bits[:, 2], km1.bits[:, 2])


def test_single_key_bit_flip_rounds(variant):
    rng = random.Random(12)
    key = rng.getrandbits(128)
    base = compile_layout(key, variant)
    for bit in rng.sample(range(128), 8):
        flipped = compile_layout(key ^ (1 << bit), variant)
        layout_diff_rounds = set()
        for km0, km1 in zip(base.slices, flipped.slices):
            for r in np.nonzero((km0.bits != km1.bits).any(axis=1))[0]:
                layout_diff_rounds.add(int(r))
        # rounds where the extracted round key differs
        ks0, ks1 = key, key ^ (1 << bit)
        rk_diff_rounds = set()
        for r in range(variant.rounds):
            if extract_round_key(ks0, variant).bits != extract_round_key(ks1, variant).bits:
                rk_diff_rounds.add(r)
            ks0, ks1 = update_key_state(ks0), update_key_state(ks1)
        assert layout_diff_rounds == rk_diff_rounds


# ---------------------------------------------------------------------------
# Digital evaluator (layout master property)


def evaluate_digital_batch(bundle, pts, feedback="permuted"):
    """evaluate_digital over a batch of plaintexts, vectorised: pts and the
    result are (n_blocks, n_bits) uint8 bit arrays, bit index = state bit
    position."""
    variant = bundle.variant
    n = variant.block_bits
    weights = np.array([1, 2, 4, 8], dtype=np.uint8)
    # per-round key bits expanded to one (rounds, n) bit plane
    key_plane = np.zeros((variant.rounds, n), dtype=np.uint8)
    for km in bundle.slices:
        for k, b in enumerate(km.columns):
            key_plane[:, 4 * km.slice_index + b] = km.bits[:, k]
    targets = np.array(perm_table(bundle.variant)) if feedback == "permuted" else np.arange(n)
    state = np.array(pts, dtype=np.uint8)  # private copy; rounds run in place
    out = np.empty_like(state)
    for r in range(variant.rounds):
        rows = state.reshape(-1, variant.nibbles, 4) @ weights
        sb = bundle.sbox_matrix[rows].reshape(-1, n)
        sb ^= key_plane[r]
        out[:, targets] = sb
        state, out = out, state
    return state


def test_digital_evaluator_matches_reference_kats(kat64, kat128):
    for vec in kat64 + kat128:
        bundle = compile_layout(vec.key, vec.variant)
        assert evaluate_digital(bundle, vec.pt) == vec.ct


def test_digital_evaluator_matches_reference_random(variant):
    rng = random.Random(13)
    n = variant.block_bits
    for _ in range(10):
        key = rng.getrandbits(128)
        bundle = compile_layout(key, variant)
        pts = [rng.getrandbits(n) for _ in range(100)]
        batch = np.stack([state_to_bits(pt, n) for pt in pts])
        cts = evaluate_digital_batch(bundle, batch)
        for pt, ct_bits in zip(pts, cts):
            assert bits_to_state(ct_bits) == encrypt_block(pt, key, variant)


def test_digital_batch_agrees_with_scalar(variant):
    rng = random.Random(14)
    key = rng.getrandbits(128)
    bundle = compile_layout(key, variant)
    pts = [rng.getrandbits(variant.block_bits) for _ in range(8)]
    batch = np.stack([state_to_bits(pt, variant.block_bits) for pt in pts])
    for mode in ("permuted", "local"):
        cts = evaluate_digital_batch(bundle, batch, feedback=mode)
        for pt, ct_bits in zip(pts, cts):
            assert bits_to_state(ct_bits) == evaluate_digital(bundle, pt, feedback=mode)


def test_local_feedback_differs_from_reference(kat128):
    vec = kat128[0]
    bundle = compile_layout(vec.key, vec.variant)
    assert evaluate_digital(bundle, vec.pt, feedback="local") != vec.ct


# ---------------------------------------------------------------------------
# Layout files


def test_export_import_round_trip(tmp_path, variant):
    rng = random.Random(15)
    for i in range(3):
        bundle = compile_layout(rng.getrandbits(128), variant)
        path = tmp_path / f"layout{variant.block_bits}_{i}.mgl"
        export_layout(bundle, path)
        assert import_layout(path) == bundle


@settings(max_examples=30)
@given(
    st.sampled_from([GIFT64, GIFT128]),
    st.integers(0, (1 << 128) - 1),
    st.permutations(range(16)).map(SBoxTable),
)
def test_export_import_round_trip_property(tmp_path_factory, variant, key, sbox):
    bundle = compile_layout(key, variant, sbox)
    path = tmp_path_factory.mktemp("layout") / "layout.mgl"
    export_layout(bundle, path)
    assert import_layout(path) == bundle


# Bytes str.splitlines treats as line ends, and the space split() drops.
LINE_BREAKS = b"\n\x0b\x0c\r\x1c\x1d\x1e "


def test_every_single_byte_corruption_is_layout_error(tmp_path):
    path = tmp_path / "layout.mgl"
    export_layout(compile_layout(42, GIFT64), path)
    raw = path.read_bytes()
    for i, byte in enumerate(raw):
        # one low and one high bit flipped, and every line-break byte
        for value in {byte ^ 0x01, byte ^ 0x80, *LINE_BREAKS} - {byte}:
            path.write_bytes(raw[:i] + bytes([value]) + raw[i + 1 :])
            with pytest.raises(LayoutError):
                import_layout(path)


def test_zero_key_file_equals_fresh_compile(tmp_path, variant):
    path = tmp_path / "zero.mgl"
    export_layout(compile_layout(0, variant), path)
    assert import_layout(path) == compile_layout(0, variant)


def test_corrupted_checksum_rejected(tmp_path):
    path = tmp_path / "layout.mgl"
    export_layout(compile_layout(42, GIFT128), path)
    text = path.read_text()
    lines = text.splitlines()
    # flip one hex digit in a payload line
    broken = lines[:]
    broken[2] = broken[2][:-1] + ("0" if broken[2][-1] != "0" else "1")
    path.write_text("\n".join(broken) + "\n")
    with pytest.raises(LayoutChecksumError):
        import_layout(path)


def test_missing_layout_file_is_layout_error(tmp_path):
    path = tmp_path / "missing.mgl"
    with pytest.raises(LayoutError) as info:
        import_layout(path)
    assert str(info.value) == f"{path}: file not found"


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "layout.mgl"
    export_layout(compile_layout(42, GIFT128), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    with pytest.raises((LayoutTruncatedError, LayoutChecksumError)):
        import_layout(path)


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "layout.mgl"
    export_layout(compile_layout(42, GIFT128), path)
    lines = path.read_text().splitlines()
    lines[0] = "MEMGIFT-LAYOUT v9 GIFT-128"
    body = "\n".join(lines[:-1]) + "\n"
    import zlib

    crc = zlib.crc32(body.encode()) & 0xFFFFFFFF
    path.write_text(body + f"crc32 {crc:08x}\n")
    with pytest.raises(LayoutVersionError):
        import_layout(path)


def test_foreign_file_rejected(tmp_path):
    path = tmp_path / "other.txt"
    path.write_text("not a layout\n")
    with pytest.raises(LayoutError):
        import_layout(path)


def rewrite_checksummed(path, edit):
    """Apply edit to the record lines of a layout file and re-checksum it,
    so only the record parser can reject the result."""
    lines = path.read_text().splitlines()[:-1]
    body = "\n".join(edit(lines)) + "\n"
    crc = zlib.crc32(body.encode()) & 0xFFFFFFFF
    path.write_text(body + f"crc32 {crc:08x}\n")


@pytest.mark.parametrize("index", ["x", "1.5", "-0", "+1", "99"])
def test_bad_slice_index_is_layout_error(tmp_path, index):
    path = tmp_path / "layout.mgl"
    export_layout(compile_layout(42, GIFT64), path)

    def edit(lines):
        lines[1] = lines[1].replace("slice 0 sb", f"slice {index} sb")
        return lines

    rewrite_checksummed(path, edit)
    with pytest.raises(LayoutError, match="slice index"):
        import_layout(path)


def test_non_permutation_sbox_is_layout_error(tmp_path):
    path = tmp_path / "layout.mgl"
    export_layout(compile_layout(42, GIFT64), path)
    # every slice carries the same table, with one entry duplicated
    bad_sb = "1a4c6f392db7508e".replace("e", "1")
    rewrite_checksummed(path, lambda lines: [
        " ".join(ln.split()[:3] + [bad_sb]) if " sb " in ln else ln for ln in lines
    ])
    with pytest.raises(LayoutError, match="permutation"):
        import_layout(path)
