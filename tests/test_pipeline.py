import io
import json
import random
import sys
import warnings
from dataclasses import replace
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from memgift import pipeline
from memgift.crossbar import (
    SCHEMES,
    VARIATION_CLAMP_SIGMA,
    CrossbarError,
    DeviceParams,
    ReadCapture,
    load_device_config,
    variation_factor,
)
from memgift.gift import (
    GIFT64,
    GIFT128,
    RoundConstantState,
    add_round_key_and_constant,
    encrypt_block,
    extract_round_key,
    perm_bits,
    sub_cells,
)
from memgift.masking import MaskMismatchError, apply_mask, encrypt_masked
from memgift.pipeline import (
    EncryptionSession,
    PipelineError,
    RoundTrace,
    export_analog_trace,
    export_round_trace,
    format_sweep_table,
    run_sweep,
)

RNG = random.Random(30)
DATA_DIR = Path(__file__).parent / "data"


def expected_write_count(variant):
    rc, plain = 7, variant.nibbles - 7
    return plain * (64 + 2 * variant.rounds) + rc * (64 + 3 * variant.rounds)


# ---------------------------------------------------------------------------
# Initialization


def test_write_event_count(variant):
    session = EncryptionSession(0, variant, "dxor")
    assert session.write_log.get("cell_write") == expected_write_count(variant)
    assert expected_write_count(GIFT128) == (16 * 4 + 40 * 2) * 32 + 40 * 7


def test_reinit_same_seed_same_resistances():
    params = DeviceParams(sigma_d2d=0.04, seed=77)
    key = RNG.getrandbits(128)
    a = EncryptionSession(key, GIFT128, "sxor", params)
    b = EncryptionSession(key, GIFT128, "sxor", params)
    assert np.array_equal(a.state.sb_res, b.state.sb_res)
    assert np.array_equal(a.state.partner_res, b.state.partner_res)
    assert a.cell_fingerprint() == b.cell_fingerprint()
    assert not np.array_equal(a.state.sb_res, EncryptionSession(key, GIFT128, "sxor").state.sb_res)


def test_d2d_programming_draws_each_slice_in_order(variant):
    # Slice j's stream (spawned from the seed) gives its S-box normals
    # (16, 4), then its key normals (rounds, columns); an S-box rewrite
    # draws both again and keeps only the S-box ones.
    params = DeviceParams(sigma_d2d=0.05, seed=41)
    session = EncryptionSession(random.Random(41).getrandbits(128), variant, "dxor", params)
    session.reprogram_sbox(session.bundle.sbox.inverse())
    seeds = np.random.SeedSequence(params.seed).spawn(variant.nibbles)
    nominal = lambda bits: np.where(bits != 0, params.r_lrs, params.r_hrs)
    for j, km in enumerate(session.bundle.slices):
        rng = np.random.default_rng(seeds[j])
        sb_first = nominal(session.bundle.sbox_matrix) * variation_factor(
            0.05, rng.standard_normal((16, 4))
        )
        key = nominal(km.bits) * variation_factor(0.05, rng.standard_normal(km.bits.shape))
        sb_second = nominal(session.state.sb_bits[j]) * variation_factor(
            0.05, rng.standard_normal((16, 4))
        )
        rng.standard_normal(km.bits.shape)  # discarded with the rewrite
        assert np.array_equal(session.state.partner_res[j][:, list(km.columns)], key)
        assert np.array_equal(session.state.sb_res[j], sb_second)
        assert not np.array_equal(sb_first, sb_second)
        # the read noise continues exactly there
        assert np.array_equal(session._slice_rngs[j].standard_normal(4), rng.standard_normal(4))


def test_ideal_session_creates_no_noise_streams():
    session = EncryptionSession(random.Random(42).getrandbits(128), GIFT128, "dxor")
    session.encrypt(0)
    session.reprogram_sbox(session.bundle.sbox)
    assert "_slice_rngs" not in vars(session)


def test_no_reads_before_first_encrypt():
    session = EncryptionSession(1, GIFT128, "dxor")
    assert session.reads_executed == 0
    assert session.current_log.rounds == 0


def test_bad_modes_rejected():
    with pytest.raises(PipelineError):
        EncryptionSession(0, GIFT128, "dxor", feedback="ring")
    with pytest.raises(Exception):
        EncryptionSession(0, GIFT128, "qxor")


# ---------------------------------------------------------------------------
# Single round


def test_round_zero_matches_reference(variant):
    key = RNG.getrandbits(128)
    pt = RNG.getrandbits(variant.block_bits)
    session = EncryptionSession(key, variant, "sxor")
    got = session.step_round(pt)
    rk = extract_round_key(key, variant)
    rc = RoundConstantState.initial()
    want = add_round_key_and_constant(
        perm_bits(sub_cells(pt, variant), variant), rk, rc, variant
    )
    assert got == want
    assert session.round_counter == 1
    assert session.output_register.bits == got


def test_step_past_final_round_rejected():
    session = EncryptionSession(0, GIFT64, "dxor")
    state = 0
    for _ in range(GIFT64.rounds):
        state = session.step_round(state)
    with pytest.raises(PipelineError):
        session.step_round(state)


def test_step_round_rejects_state_outside_block():
    # a wide state used to read its low bits, a negative one all ones
    session = EncryptionSession(0, GIFT64, "dxor")
    for state in ((1 << 70) | 5, -1, 1 << 64):
        with pytest.raises(PipelineError, match="does not fit in 64 bits"):
            session.step_round(state)
    assert session.round_counter == 0 and session.reads_executed == 0
    session.step_round((1 << 64) - 1)
    assert session.round_counter == 1


def test_local_mode_is_slice_local():
    key = RNG.getrandbits(128)
    session = EncryptionSession(key, GIFT128, "dxor", feedback="local")
    # nibble j output depends only on nibble j input
    for j in (0, 5, 31):
        base = RNG.getrandbits(128)
        out_base = session._read_rounds(
            np.array([[(base >> i) & 1 for i in range(128)]], dtype=np.uint8), range(1)
        )[0][0]
        for nib in range(16):
            tweaked = (base & ~(0xF << (4 * j))) | (nib << (4 * j))
            out = session._read_rounds(
                np.array([[(tweaked >> i) & 1 for i in range(128)]], dtype=np.uint8), range(1)
            )[0][0]
            changed = {
                k // 4 for k in range(128) if out[k] != out_base[k]
            }
            assert changed <= {j}


# ---------------------------------------------------------------------------
# Whole blocks


@pytest.mark.parametrize("scheme", ["sxor", "dxor"])
def test_pipeline_matches_reference(variant, scheme, kat64, kat128):
    vectors = kat64 if variant is GIFT64 else kat128
    for vec in vectors:
        session = EncryptionSession(vec.key, variant, scheme)
        ct, _ = session.encrypt(vec.pt)
        assert ct == vec.ct
    for _ in range(20):
        key = RNG.getrandbits(128)
        pt = RNG.getrandbits(variant.block_bits)
        session = EncryptionSession(key, variant, scheme)
        ct, _ = session.encrypt(pt)
        assert ct == encrypt_block(pt, key, variant)


def test_local_mode_fails_reference(kat128):
    vec = kat128[1]
    session = EncryptionSession(vec.key, GIFT128, "dxor", feedback="local")
    ct, _ = session.encrypt(vec.pt)
    assert ct != vec.ct


def test_local_mode_confines_plaintext_flip_to_one_slice():
    key = RNG.getrandbits(128)
    pt = RNG.getrandbits(128)
    bit = RNG.randrange(128)
    a = EncryptionSession(key, GIFT128, "dxor", feedback="local")
    b = EncryptionSession(key, GIFT128, "dxor", feedback="local")
    _, traces_a = a.encrypt(pt, trace=True)
    _, traces_b = b.encrypt(pt ^ (1 << bit), trace=True)
    touched = set()
    for ta, tb in zip(traces_a, traces_b):
        for j, (oa, ob) in enumerate(zip(ta.output_nibbles, tb.output_nibbles)):
            if oa != ob:
                touched.add(j)
    assert touched == {bit // 4}


def test_permuted_mode_diffuses_plaintext_flip():
    key = RNG.getrandbits(128)
    pt = RNG.getrandbits(128)
    a, _ = EncryptionSession(key, GIFT128, "dxor").encrypt(pt)
    b, _ = EncryptionSession(key, GIFT128, "dxor").encrypt(pt ^ 1)
    assert bin(a ^ b).count("1") > 32


def test_trace_bookkeeping():
    key = RNG.getrandbits(128)
    pt = RNG.getrandbits(128)
    session = EncryptionSession(key, GIFT128, "sxor")
    ct, traces = session.encrypt(pt, trace=True)
    assert len(traces) == 40
    # post-wiring state of round r is the pre-read state of round r+1
    for prev, nxt in zip(traces, traces[1:]):
        reconstructed = 0
        for j, nib in enumerate(nxt.input_nibbles):
            reconstructed |= nib << (4 * j)
        assert prev.post_state == reconstructed
    assert traces[-1].post_state == ct
    assert session.output_register.bits == ct
    # one capture serves the block: each round is its row, 4 x 32 columns
    assert all(t.analog is traces[0].analog for t in traces)
    assert all(t.analog.r_eq[t.round_index].size == 4 * 32 for t in traces)
    assert traces[0].analog.r_eq.shape == (40, 32, 4)


@pytest.mark.parametrize(
    "params",
    [DeviceParams(), DeviceParams(sigma_c2c=0.3, sigma_d2d=0.03, wire_r_per_cell=150.0, seed=8)],
    ids=["ideal", "noisy"],
)
def test_traced_block_captures_the_bits_the_kernel_read(monkeypatch, params):
    session = EncryptionSession(RNG.getrandbits(128), GIFT128, "dxor", params)
    for pt in range(4):  # the cells have served enough blocks for a read table
        session.encrypt(pt)
    kernel_bits, kernel_r_eq, captures = [], [], []
    sense, resistances, capture = session._sense, pipeline.column_resistances, pipeline.read_round

    def recorded(record, fn):
        def call(*args):
            record.append(fn(*args))
            return record[-1]

        return call

    session._sense = recorded(kernel_bits, sense)
    monkeypatch.setattr(pipeline, "column_resistances", recorded(kernel_r_eq, resistances))
    monkeypatch.setattr(pipeline, "read_round", recorded(captures, capture))
    ct, traces = session.encrypt(RNG.getrandbits(128), trace=True)
    # an ideal block walks the read table, a noisy one runs the kernel
    # round by round; then one capture of all 40 rounds
    noisy = params.sigma_c2c > 0
    assert len(captures) == 1 and len(kernel_bits) == len(kernel_r_eq) == (40 if noisy else 0)
    analog = captures[0]
    assert all(t.analog is analog for t in traces)
    if noisy:
        assert np.array_equal(analog.bits, np.concatenate(kernel_bits))
        assert np.array_equal(analog.r_eq, np.concatenate(kernel_r_eq))
    else:
        # the table's bits, which are the kernel's, of the rows the walk read
        rows = np.array([t.input_nibbles for t in traces])
        table = session._read_table[np.arange(40)[:, None], rows, session.state.slice_index]
        assert np.array_equal(analog.bits, table)
    # round r's captured bits, through the wiring, are the rows round r + 1 read
    routed = analog.bits.reshape(40, -1).view(np.uint8)[:, session._sources]
    nibbles = routed.reshape(40, -1, 4) @ np.array([1, 2, 4, 8])
    for captured, nxt in zip(nibbles[:-1].tolist(), traces[1:]):
        assert tuple(captured) == nxt.input_nibbles
    assert traces[-1].post_state == ct
    # with noise the sensed bits leave the digital value, and the capture follows
    flipped = analog.bits != (analog.sb_bits ^ analog.partner_bits).astype(bool)
    assert flipped.any() == (params.sigma_c2c > 0)


def test_traced_and_fast_paths_agree_under_noise():
    params = DeviceParams(sigma_c2c=0.06, sigma_d2d=0.03, seed=123)
    key = RNG.getrandbits(128)
    pt = RNG.getrandbits(128)
    fast, _ = EncryptionSession(key, GIFT128, "dxor", params).encrypt(pt)
    traced, _ = EncryptionSession(key, GIFT128, "dxor", params).encrypt(pt, trace=True)
    assert fast == traced


@pytest.mark.parametrize("scheme", ["sxor", "dxor"])
def test_noise_stream_agrees_across_read_paths(variant, scheme):
    # Every read draws 8 normals per slice, in round order, on every path,
    # so twin sessions agree whichever path reads them.
    params = DeviceParams(sigma_c2c=0.1, sigma_d2d=0.03, seed=41)
    key = RNG.getrandbits(128)
    pts = [RNG.getrandbits(variant.block_bits) for _ in range(5)]
    fast = EncryptionSession(key, variant, scheme, params)
    traced = EncryptionSession(key, variant, scheme, params)
    cts = [fast.encrypt(pt)[0] for pt in pts]
    assert cts != [encrypt_block(pt, key, variant) for pt in pts]  # noise flips bits
    assert [traced.encrypt(pt, trace=True)[0] for pt in pts] == cts
    stepped = EncryptionSession(key, variant, scheme, params)
    state = pts[0]
    for _ in range(variant.rounds):
        state = stepped.step_round(state)
    assert state == cts[0]


def test_hardware_reuse_invariants():
    key = RNG.getrandbits(128)
    session = EncryptionSession(key, GIFT128, "dxor")
    writes_before = session.write_log.get("cell_write")
    fp_before = session.cell_fingerprint()
    for _ in range(3):
        pt = RNG.getrandbits(128)
        session.encrypt(pt)
        # single-read-per-round: one read cycle per round, no new writes
        assert session.current_log.rounds == 40
        assert session.current_log.get("cell_write") == 0
        assert session.write_log.get("cell_write") == writes_before
        assert session.cell_fingerprint() == fp_before
    assert session.reads_executed == 3 * 40


def test_event_counts_per_block():
    session = EncryptionSession(0, GIFT128, "dxor")
    session.encrypt(0)
    log = session.current_log
    assert log.get("decoder_cycle") == 40 * 32
    assert log.get("selector_cycle") == 40
    assert log.get("register_cycle") == 40
    assert log.get("dxor_sense") == 40 * 71  # 25 slices x 2 + 7 slices x 3
    assert log.get("ro_d_sense") == 40 * 57  # 25 slices x 2 + 7 slices x 1
    sxor = EncryptionSession(0, GIFT128, "sxor")
    sxor.encrypt(0)
    assert sxor.current_log.get("sxor_sense") == 40 * 71
    assert sxor.current_log.get("ro_s_sense") == 40 * 57


def test_gift64_event_counts():
    session = EncryptionSession(0, GIFT64, "dxor")
    session.encrypt(0)
    log = session.current_log
    # 9 plain slices x 2 XOR cols + 7 RC slices x 3 = 39; read-outs = 64-39
    assert log.get("dxor_sense") == 28 * 39
    assert log.get("ro_d_sense") == 28 * 25


# ---------------------------------------------------------------------------
# Read table: a session looks its ideal reads up instead of
# running the kernel, from the first block on nominal devices and once the
# cells have served three such blocks with d2d variation


def kernel_session(*args):
    """A session whose ideal reads always run the read kernel."""
    session = EncryptionSession(*args)
    session._build_read_table = lambda: None
    return session


@settings(max_examples=25)
@given(
    variant=st.sampled_from([GIFT64, GIFT128]),
    scheme=st.sampled_from(["sxor", "dxor"]),
    feedback=st.sampled_from(["permuted", "local"]),
    key=st.integers(0, (1 << 128) - 1),
    sigma_d2d=st.sampled_from([0.0, 0.05, 0.1]),
    wire=st.sampled_from([0.0, 150.0, 20e3]),
    mask=st.integers(1, 15),
    data=st.data(),
)
def test_read_table_walk_matches_kernel(variant, scheme, feedback, key, sigma_d2d, wire, mask, data):
    params = DeviceParams(sigma_d2d=sigma_d2d, wire_r_per_cell=wire, seed=key % 1000)
    walk = EncryptionSession(key, variant, scheme, params, feedback)
    kernel = kernel_session(key, variant, scheme, params, feedback)
    pts = data.draw(st.lists(st.integers(0, (1 << variant.block_bits) - 1), min_size=5, max_size=5))
    cts = [walk.encrypt_with_error_count(pt) for pt in pts]
    table = walk._read_table
    assert table is not None
    assert cts == [kernel.encrypt_with_error_count(pt) for pt in pts]
    # a remask rewrites the S-box cells: the walk must use a rebuilt table
    apply_mask(walk, mask)
    apply_mask(kernel, mask)
    masked = [encrypt_masked(walk, pt, mask)[0] for pt in pts]
    assert walk._read_table is not None and walk._read_table is not table
    assert masked == [encrypt_masked(kernel, pt, mask)[0] for pt in pts]


def test_read_table_is_built_once_the_cells_have_served_three_blocks(monkeypatch):
    # the rule of sessions with d2d variation, whose cells all differ
    key = RNG.getrandbits(128)
    d2d = DeviceParams(sigma_d2d=0.03, seed=12)
    session = EncryptionSession(key, GIFT64, "dxor", d2d)
    for pt in range(3):
        session.encrypt(pt)
        assert session._read_table is None
    session.encrypt(3)
    assert session._read_table.shape == (28, 16, 16, 4)
    # the last programming served 4 blocks: the next builds on its first
    apply_mask(session, 3)
    assert session._read_table is None
    encrypt_masked(session, 4, 3)
    assert session._read_table is not None
    # ... and that one served only 1, so the next waits for 3 again
    session.reprogram_sbox(session.bundle.sbox.inverse())
    for pt in range(3):
        session.encrypt(pt)
        assert session._read_table is None
    session.encrypt(3)
    assert session._read_table is not None
    # traced blocks count as untraced ones do; noisy reads never build one
    traced = EncryptionSession(key, GIFT64, "dxor", d2d)
    noisy = EncryptionSession(key, GIFT64, "dxor", replace(d2d, sigma_c2c=0.05))
    for pt in range(3):
        traced.encrypt(pt, trace=pt != 1)
        assert traced._read_table is None
    traced.encrypt(3, trace=True)
    assert traced._read_table is not None
    for pt in range(5):
        noisy.encrypt(pt)
    assert noisy._read_table is None

    def no_table(self):
        raise AssertionError("a read table was built for too few blocks")

    monkeypatch.setattr(EncryptionSession, "_build_read_table", no_table)
    # one- and two-block sessions: the sweep's trials, even with every lane ideal
    run_sweep(GIFT64, "dxor", [0.0, 0.0], blocks=2, base_params=d2d)
    two = EncryptionSession(key, GIFT128, "sxor", d2d)
    two.encrypt(6)
    two.encrypt(7)
    # a session remasked every 2 blocks
    remasked = EncryptionSession(key, GIFT128, "sxor", d2d)
    for i in range(12):
        if i and i % 2 == 0:
            apply_mask(remasked, i % 16)
        encrypt_masked(remasked, i, remasked.mask)
    # ... traced or not
    traced = EncryptionSession(key, GIFT128, "sxor", d2d)
    for i in range(6):
        if i and i % 2 == 0:
            apply_mask(traced, i % 16)
        encrypt_masked(traced, i, traced.mask, trace=True)


def test_nominal_read_table_is_built_at_the_first_block_of_each_programming(monkeypatch):
    def no_kernel_table(self):
        raise AssertionError("a nominal session read its table through the kernel")

    monkeypatch.setattr(EncryptionSession, "_kernel_read_table", no_kernel_table)
    key = RNG.getrandbits(128)
    session = EncryptionSession(key, GIFT64, "dxor")
    assert session._read_table is None
    session.encrypt(0)
    assert session._read_table.shape == (28, 16, 16, 4)
    table = session._read_table
    session.encrypt(1)
    assert session._read_table is table
    apply_mask(session, 3)
    assert session._read_table is None
    encrypt_masked(session, 4, 3)
    assert session._read_table is not None and session._read_table is not table
    # so does a one-block sweep trial with every lane ideal
    sweep = run_sweep(GIFT64, "dxor", [0.0, 0.0], blocks=2)
    assert [p.bit_errors for p in sweep] == [0, 0]
    # so does a traced block; noisy reads never build one
    traced = EncryptionSession(key, GIFT64, "dxor")
    noisy = EncryptionSession(key, GIFT64, "dxor", DeviceParams(sigma_c2c=0.05))
    traced.encrypt(0, trace=True)
    assert traced._read_table is not None
    for pt in range(5):
        noisy.encrypt(pt)
    assert noisy._read_table is None
    apply_mask(traced, 5)
    assert traced._read_table is None
    encrypt_masked(traced, 5, 5, trace=True)
    assert traced._read_table is not None


MISCALIBRATED = "dxor.vref_and = 0.3\nsxor.vth = 0.25\n"  # XOR amps that misread


@settings(max_examples=40, deadline=None)
@given(
    variant=st.sampled_from([GIFT64, GIFT128]),
    scheme=st.sampled_from(["sxor", "dxor"]),
    feedback=st.sampled_from(["permuted", "local"]),
    key=st.integers(0, (1 << 128) - 1),
    wire=st.sampled_from([0.0, 150.0, 20e3]),
    mask=st.integers(0, 15),
    miscalibrated=st.booleans(),
)
def test_nominal_read_table_equals_kernel_build(
    tmp_path_factory, variant, scheme, feedback, key, wire, mask, miscalibrated
):
    # the table gathered from one sense per cell pairing is the one the
    # kernel reads, amp for amp, analog outcomes (20 kOhm wire) included
    params, schemes = DeviceParams(), SCHEMES
    if miscalibrated:
        path = tmp_path_factory.mktemp("params") / "amps.cfg"
        path.write_text(MISCALIBRATED)
        params, schemes = load_device_config(path)
    params = replace(params, wire_r_per_cell=wire)
    session = EncryptionSession(key, variant, schemes[scheme], params, feedback)
    apply_mask(session, mask)
    table = session._build_read_table()
    kernel = session._kernel_read_table()
    assert table.dtype == kernel.dtype and not table.flags.writeable
    assert np.array_equal(table, kernel)


@pytest.mark.parametrize("scheme", ["sxor", "dxor"])
def test_read_table_keeps_counters_and_logs(scheme):
    key = RNG.getrandbits(128)
    pts = [RNG.getrandbits(128) for _ in range(5)]
    walk = EncryptionSession(key, GIFT128, scheme)
    kernel = kernel_session(key, GIFT128, scheme)
    for pt in pts:
        assert walk.encrypt(pt)[0] == kernel.encrypt(pt)[0]
        assert walk.current_log == kernel.current_log
    assert walk._read_table is not None and kernel._read_table is None
    assert walk.session_log() == kernel.session_log()
    assert walk.current_log.rounds == kernel.current_log.rounds == 40
    assert walk.reads_executed == kernel.reads_executed == 5 * 40
    assert walk.blocks_encrypted == kernel.blocks_encrypted == 5
    assert walk.output_register == kernel.output_register
    # a stepped read walks the table too
    walk.round_counter = kernel.round_counter = 0
    assert walk.step_round(pts[0]) == kernel.step_round(pts[0])
    assert walk.reads_executed == kernel.reads_executed


# ---------------------------------------------------------------------------
# Trace export


def slow_round_trace(session, traces, fp):
    """The oracle of export_round_trace: one json.dumps per record."""
    digits = session.variant.block_bits // 4
    header = {
        "record": "session",
        "variant": session.variant.name,
        "scheme": session.scheme.name,
        "feedback": session.feedback,
        "seed": session.params.seed,
        "sigma_d2d": session.params.sigma_d2d,
        "sigma_c2c": session.params.sigma_c2c,
        "mask": f"{session.mask:x}",
    }
    fp.write(json.dumps(header) + "\n")
    for t in traces:
        fp.write(
            json.dumps(
                {
                    "record": "round",
                    "block": t.block,
                    "round": t.round_index,
                    "active_mask": f"{t.active_mask:x}",
                    "inputs": "".join(f"{v:x}" for v in reversed(t.input_nibbles)),
                    "outputs": "".join(f"{v:x}" for v in reversed(t.output_nibbles)),
                    "post_state": f"{t.post_state:0{digits}x}",
                }
            )
            + "\n"
        )


def slow_analog_trace(traces, fp):
    """The oracle of export_analog_trace: one json.dumps per record."""
    for analog, block in groupby(traces, key=lambda t: t.analog):
        r_eq, sb, partner = (a.tolist() for a in (analog.r_eq, analog.sb_bits, analog.partner_bits))
        bits, xor_mask = analog.bits.view(np.uint8).tolist(), analog.xor_mask.tolist()
        volts = {k: {n: v.tolist() for n, v in nodes.items()} for k, nodes in analog.nodes.items()}
        for i in (t.round_index for t in block):
            for j, col in np.ndindex(analog.xor_mask.shape):
                kind = "xor" if xor_mask[j][col] else "readout"
                stored = [sb[i][j][col]] + ([partner[i][j][col]] if kind == "xor" else [])
                nodes = {name: round(v[i][j][col], 6) for name, v in volts[kind].items()}
                record = {"slice": j, "round": i, "column": col, "kind": kind,
                          "stored_bits": stored, "r_eq": r_eq[i][j][col], "nodes": nodes,
                          "bit": bits[i][j][col]}
                fp.write(json.dumps(record) + "\n")


def written(export, *args) -> str:
    fp = io.StringIO()
    export(*args, fp)
    return fp.getvalue()


def assert_same_lines(got: str, want: str) -> None:
    # line by line: pytest's diff of two whole traces takes minutes
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        assert g == w, f"line {i}"
    assert len(got_lines) == len(want_lines)


@settings(max_examples=12)
@given(
    variant=st.sampled_from([GIFT64, GIFT128]),
    scheme=st.sampled_from(["sxor", "dxor"]),
    feedback=st.sampled_from(["permuted", "local"]),
    sigma_c2c=st.sampled_from([0.0, 0.05, 0.1]),
    sigma_d2d=st.sampled_from([0.0, 0.03, 0.05]),
    wire=st.sampled_from([0.0, 150.0, 20e3]),
    masks=st.lists(st.integers(0, 15), min_size=0, max_size=2),
    key=st.integers(0, (1 << 128) - 1),
    data=st.data(),
)
def test_trace_exports_match_per_record_oracle(
    variant, scheme, feedback, sigma_c2c, sigma_d2d, wire, masks, key, data
):
    params = DeviceParams(sigma_c2c=sigma_c2c, sigma_d2d=sigma_d2d, wire_r_per_cell=wire, seed=3)
    session = EncryptionSession(key, variant, scheme, params, feedback)
    pt = st.integers(0, (1 << variant.block_bits) - 1)
    traces = session.encrypt(data.draw(pt), trace=True)[1]
    for mask in masks:  # 1-3 blocks, remasked between them
        apply_mask(session, mask)
        traces += encrypt_masked(session, data.draw(pt), mask, trace=True)[1]
    # a block's traces reversed, or any run of them
    block = traces[-variant.rounds :]
    first = data.draw(st.integers(0, variant.rounds - 1))
    last = data.draw(st.integers(first + 1, variant.rounds))
    for subset in (traces, block[::-1], block[first:last]):
        assert_same_lines(
            written(export_round_trace, session, subset), written(slow_round_trace, session, subset)
        )
        assert_same_lines(written(export_analog_trace, subset), written(slow_analog_trace, subset))


def test_analog_export_spells_special_floats_as_json_does():
    # two reads of two slices; column 0 of each slice is XOR-sensed
    shape = (2, 2, 4)
    r_eq = np.array([np.inf, np.nan, -0.0, 5e-05, 1e16, -np.inf, 0.0, 1 / 3,
                     2.8e3, 0.45, 0.0, -0.0, 5e-05, np.nan, 1e16, 1e6]).reshape(shape)
    xor_mask = np.zeros((2, 4), dtype=bool)
    xor_mask[:, 0] = True
    nodes = {
        "xor": {"x1_divider": r_eq[::-1], "x2": -r_eq, 'odd "%s" name': r_eq * 1e-7},
        "readout": {"v1_divider": r_eq[:, ::-1], "v1": np.full(shape, -1e-8)},
    }
    bits = np.zeros(shape, dtype=bool)
    bits[1] = True
    ones = np.ones(shape, dtype=np.uint8)
    capture = ReadCapture(bits, r_eq, nodes, ones, ones * xor_mask, xor_mask)
    traces = [RoundTrace(i, (0, 0), (0, 0), capture, 0, 0, 0) for i in (1, 0, 1)]
    text = written(export_analog_trace, traces)
    assert text == written(slow_analog_trace, traces)
    for spelling in ("Infinity", "-Infinity", "NaN", '"r_eq": -0.0', "5e-05", "1e+16", "-0.0,"):
        assert spelling in text
    assert '"odd \\"%s\\" name": ' in text


def test_analog_export_keeps_records_apart_that_share_a_tail():
    # The exporter formats each distinct record tail (everything after the
    # column) once.  On nominal devices an XOR column holding (S-box 1,
    # key 0) senses the same r_eq, nodes and bit as one holding (0, 1), so
    # only the stored bits tell their tails apart; and many records share
    # a whole tail, told apart only by slice, round and column.
    session = EncryptionSession(0x2468ACE, GIFT128, "dxor")
    traces = session.encrypt(0x13579BDF, trace=True)[1]
    analog = traces[0].analog
    xor = np.broadcast_to(analog.xor_mask, analog.bits.shape)
    one_zero = xor & (analog.sb_bits == 1) & (analog.partner_bits == 0)
    zero_one = xor & (analog.sb_bits == 0) & (analog.partner_bits == 1)
    a, b = np.argwhere(one_zero)[0], np.argwhere(zero_one)[0]
    assert analog.r_eq[tuple(a)] == analog.r_eq[tuple(b)]
    assert analog.bits[tuple(a)] == analog.bits[tuple(b)]
    for volts in analog.nodes["xor"].values():
        assert volts[tuple(a)] == volts[tuple(b)]
    text = written(export_analog_trace, traces)
    assert_same_lines(text, written(slow_analog_trace, traces))
    records = [json.loads(line) for line in text.splitlines()]
    where = [(r["slice"], r["round"], r["column"]) for r in records]
    assert where == [(j, i, c) for i in range(40) for j in range(32) for c in range(4)]
    for i, j, c in (a, b):
        record = records[(i * 32 + j) * 4 + c]
        stored = [int(analog.sb_bits[i, j, c]), int(analog.partner_bits[i, j, c])]
        assert record["kind"] == "xor" and record["stored_bits"] == stored
    # 5120 records, 6 tails: 4 pairings on XOR columns, 2 cells on read-out ones
    tails = {line.partition('"column": ')[2].partition(", ")[2] for line in text.splitlines()}
    assert len(tails) == 6


def test_trace_export_deterministic():
    params = DeviceParams(sigma_c2c=0.05, seed=9)
    key, pt = 0x1234, 0x5678
    blobs = []
    for _ in range(2):
        session = EncryptionSession(key, GIFT128, "sxor", params)
        ct, traces = session.encrypt(pt, trace=True)
        round_fp, analog_fp = io.StringIO(), io.StringIO()
        export_round_trace(session, traces, round_fp)
        export_analog_trace(traces, analog_fp)
        blobs.append((round_fp.getvalue(), analog_fp.getvalue()))
    assert blobs[0] == blobs[1]
    header = blobs[0][0].splitlines()[0]
    assert '"record": "session"' in header and '"scheme": "sxor"' in header
    assert len(blobs[0][1].splitlines()) == 40 * 32 * 4


def test_round_records_name_their_block_and_mask():
    session = EncryptionSession(0x77, GIFT64, "dxor")
    traces = session.encrypt(1, trace=True)[1]
    apply_mask(session, 5)
    traces += encrypt_masked(session, 2, 5, trace=True)[1]
    # a direct S-box rewrite is read under no mask
    session.reprogram_sbox(session.bundle.sbox.inverse())
    assert session.mask == 0
    traces += session.encrypt(3, trace=True)[1]
    fp = io.StringIO()
    export_round_trace(session, traces, fp)
    records = [json.loads(line) for line in fp.getvalue().splitlines()[1:]]
    assert [(r["block"], r["active_mask"]) for r in records[::28]] == [(0, "0"), (1, "5"), (2, "0")]
    assert [r["round"] for r in records] == list(range(28)) * 3
    with pytest.raises(MaskMismatchError):
        encrypt_masked(session, 4, 5)


# ---------------------------------------------------------------------------
# Monte-Carlo sweep


def test_sweep_rejects_negative_seed():
    # numpy's seeding raised its own ValueError for it
    with pytest.raises(PipelineError, match="seed must be non-negative"):
        run_sweep(GIFT64, "dxor", [0.05], blocks=1, seed=-1)


def test_sweep_zero_sigma_is_error_free():
    pts = run_sweep(GIFT128, "dxor", [0.0], blocks=2, seed=3)
    assert pts[0].bit_errors == 0 and pts[0].block_errors == 0


@pytest.mark.parametrize(
    "sigmas, blocks",
    [([0.05, float("nan")], 1), ([0.05, float("inf")], 1), ([0.05, -0.1], 1), ([0.05], -3)],
)
def test_sweep_rejects_bad_inputs_before_any_work(monkeypatch, sigmas, blocks):
    def no_session(*args, **kwargs):
        raise AssertionError("a session was built before the inputs were checked")

    monkeypatch.setattr("memgift.pipeline.EncryptionSession", no_session)
    with pytest.raises(PipelineError):
        run_sweep(GIFT128, "dxor", sigmas, blocks=blocks)


def test_sweep_bounds_each_sigma_with_the_base_d2d(monkeypatch):
    # 1e308 overflowed a read into NaN nodes and a BER of 0.526; 1e154 passes
    # alone, but not on top of the base's sigma_d2d of 1e154
    def no_session(*args, **kwargs):
        raise AssertionError("a session was built before the sigmas were checked")

    monkeypatch.setattr("memgift.pipeline.EncryptionSession", no_session)
    with pytest.raises(PipelineError, match="largest read resistance"):
        run_sweep(GIFT128, "dxor", [0.0, 1e308], blocks=1)
    base = DeviceParams(sigma_d2d=1e154)
    with pytest.raises(PipelineError, match="largest read resistance"):
        run_sweep(GIFT128, "dxor", [0.0, 1e154], blocks=1, base_params=base)


@st.composite
def params_near_the_sigma_bound(draw):
    """DeviceParams fields whose largest read resistance lies at or near the
    top of the float range: r_hrs, wire and sigma_d2d are drawn, and
    sigma_c2c is a drawn fraction of the largest they leave (all of it, at 1)."""
    top = sys.float_info.max
    # r_hrs = top is finite, but its conductance, 1/top, inverts to inf
    exponents = st.floats(3.5, 308.25).map(lambda e: 10.0**e)
    r_hrs = draw(st.one_of(st.just(top), st.floats(3.5e3, top), exponents))
    sigma_d2d = ((top / r_hrs) ** draw(st.floats(0.0, 1.0)) - 1) / VARIATION_CLAMP_SIGMA
    wire = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e3), st.floats(0.0, top)))
    headroom = (top - wire) / (r_hrs * (1 + VARIATION_CLAMP_SIGMA * sigma_d2d))
    largest_c2c = max(headroom - 1, 0.0) / VARIATION_CLAMP_SIGMA
    sigma_c2c = largest_c2c * draw(st.one_of(st.just(1.0), st.floats(0.5, 1.0)))
    return dict(r_hrs=r_hrs, wire_r_per_cell=wire, sigma_d2d=sigma_d2d, sigma_c2c=sigma_c2c)


@settings(max_examples=60)
@given(
    values=params_near_the_sigma_bound(),
    scheme=st.sampled_from(["sxor", "dxor"]),
    key=st.integers(0, 2**128 - 1),
    pt=st.integers(0, 2**64 - 1),
)
def test_reads_near_the_sigma_bound_stay_finite(values, scheme, key, pt):
    # DeviceParams rejects the parameters, or every read of them stays finite
    try:
        params = DeviceParams(**values, seed=3)
    except CrossbarError:
        event("rejected by the bound")
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run_sweep(GIFT64, scheme, [params.sigma_c2c], blocks=1, base_params=params)
        _, traces = EncryptionSession(key, GIFT64, scheme, params).encrypt(pt, trace=True)
    capture = traces[0].analog
    assert not np.isnan(capture.r_eq).any()
    for nodes in capture.nodes.values():
        for volts in nodes.values():
            assert not np.isnan(volts).any()


def test_sweep_monotone_and_deterministic():
    sigmas = [0.0, 0.05, 0.09, 0.12]
    a = run_sweep(GIFT128, "sxor", sigmas, blocks=3, seed=5)
    b = run_sweep(GIFT128, "sxor", sigmas, blocks=3, seed=5)
    assert a == b
    bers = [p.bit_error_rate for p in a]
    assert bers == sorted(bers)
    table = format_sweep_table(a)
    assert table.startswith("# sigma_c2c")
    assert len(table.splitlines()) == 1 + len(sigmas)


SWEEP_GRID = (0.0, 0.02, 0.04, 0.06, 0.08, 0.1, 0.12)
GOLDEN_SWEEPS = {
    "sweep_dxor_default_seed7": dict(
        variant=GIFT128, scheme="dxor", sigmas=SWEEP_GRID, blocks=20, seed=7
    ),
    "sweep_sxor_default_seed7": dict(
        variant=GIFT128, scheme="sxor", sigmas=SWEEP_GRID, blocks=20, seed=7
    ),
    "sweep_gift128_sxor_3blocks": dict(
        variant=GIFT128, scheme="sxor", sigmas=(0.0, 0.05, 0.1, 0.2), blocks=3, seed=1
    ),
    "sweep_gift64_dxor_2blocks": dict(
        variant=GIFT64, scheme="dxor", sigmas=SWEEP_GRID, blocks=2, seed=12345
    ),
    "sweep_d2d_sigma03": dict(
        variant=GIFT128, scheme="dxor", sigmas=SWEEP_GRID + (0.3,), blocks=2, seed=0,
        base_params=DeviceParams(sigma_d2d=0.05),
    ),
    "sweep_local_feedback": dict(
        variant=GIFT64, scheme="sxor", sigmas=(0.0, 0.06, 0.12), blocks=2, seed=3,
        feedback="local",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SWEEPS))
def test_sweep_matches_golden_table(name):
    # The tables in tests/data were written by the per-sigma sweep that
    # predates the batched kernel; a seeded sweep must reproduce them byte
    # for byte.
    case = dict(GOLDEN_SWEEPS[name])
    points = run_sweep(case.pop("variant"), case.pop("scheme"), case.pop("sigmas"),
                       case.pop("blocks"), **case)
    assert format_sweep_table(points) == (DATA_DIR / f"{name}.txt").read_text()
