import io
import json
import math
import os
import random
import subprocess
import sys
import warnings
from dataclasses import replace
from decimal import Decimal
from functools import lru_cache, partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from memgift import crossbar, pipeline
from memgift.crossbar import (
    PARTNER_ABSENT,
    SCHEMES,
    VARIATION_CLAMP_SIGMA,
    CrossbarError,
    DeviceParams,
    DualReadoutAmp,
    DualXorAmp,
    ReadCapture,
    SenseAmpScheme,
    column_conductances,
    load_device_config,
    misread_pairings,
    partner_conductances,
    program_slice,
    read_table,
    resolve,
    sense_capture,
    variation_factor,
)
from memgift.errors import MemgiftError
from memgift.gift import GIFT64, GIFT128, GIFT_SBOX, SBoxTable, encrypt_block, round_addition_masks
from memgift.layout import sbox_bit_matrix
from memgift.masking import MaskMismatchError, apply_mask, encrypt_masked, replicate_mask
from memgift.pipeline import (
    BlockTrace,
    EncryptionSession,
    EventLog,
    PipelineError,
    RoundTrace,
    export_analog_trace,
    export_round_trace,
    format_sweep_table,
    run_sweep,
)

from gift_spec import (
    RoundConstantState,
    add_round_key_and_constant,
    extract_round_key,
    perm_bits,
    sub_cells,
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


def test_cell_fingerprint_is_the_same_in_every_process():
    # it was Python's hash of the cells' bytes, which each process salts
    src = str(Path(pipeline.__file__).parent.parent)
    code = (
        "from memgift.pipeline import EncryptionSession\n"
        "print(EncryptionSession(5).cell_fingerprint())"
    )
    printed = {
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("1", "2")
    }
    assert printed == {"4694539586869018870\n"}


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
        assert np.array_equal(session.state.partner_res[:, j, list(km.columns)], key)
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


@pytest.mark.parametrize("params", ["x", {"vdd": 0.9}], ids=["str", "dict"])
def test_device_parameters_must_be_device_params(params):
    # each raised a bare AttributeError from inside the session or the sweep
    with pytest.raises(PipelineError, match=r"^params must be a DeviceParams, got "):
        EncryptionSession(0, params=params)
    with pytest.raises(PipelineError, match=r"^base_params must be a DeviceParams, got "):
        run_sweep(GIFT64, "dxor", [0.0], 1, base_params=params)
    # None still means the default devices
    assert EncryptionSession(0, params=None).params == DeviceParams()
    sweep = run_sweep(GIFT64, "dxor", [0.0], 1, base_params=None)
    assert sweep == run_sweep(GIFT64, "dxor", [0.0], 1)


def test_scheme_without_sense_events_rejected_before_programming(monkeypatch):
    # energy accounting counts each read under its scheme's sense events, so
    # a scheme they do not name fails before any layout or cell is written
    monkeypatch.setattr(pipeline, "compile_layout", lambda *args: pytest.fail("layout compiled"))
    scheme = SenseAmpScheme("dxor2", DualXorAmp(), DualReadoutAmp())
    with pytest.raises(PipelineError, match="'dxor2'"):
        EncryptionSession(1, GIFT128, scheme)


# One bad argument each, the others as a default session takes them.
BAD_SESSION_ARGUMENTS = {
    "variant": {"variant": "GIFT-256"},
    "scheme": {"scheme": "nope"},
    "scheme-without-sense-events": {
        "scheme": SenseAmpScheme("dxor2", DualXorAmp(), DualReadoutAmp())
    },
    "scheme-reference-above-vdd": {
        "scheme": SenseAmpScheme("dxor", DualXorAmp(vref_and=1.5), DualReadoutAmp())
    },
    "scheme-reference-at-vdd": {
        "scheme": SenseAmpScheme("dxor", DualXorAmp(vref_and=0.9), DualReadoutAmp())
    },
    "scheme-infinite-branch": {
        "scheme": SenseAmpScheme("dxor", DualXorAmp(r_and=math.inf), DualReadoutAmp())
    },
    "scheme-unhashable-branch": {
        "scheme": SenseAmpScheme("dxor", DualXorAmp(r_and=[1]), DualReadoutAmp())
    },
    # equal to the default dxor scheme, and of the same hash, but not a Real
    "scheme-decimal-branch": {
        "scheme": SenseAmpScheme("dxor", DualXorAmp(r_and=Decimal(2000)), DualReadoutAmp())
    },
    "params": {"params": {"vdd": 0.9}},
    "params-below-the-references": {"params": DeviceParams(vdd=0.4)},
    "feedback": {"feedback": "sideways"},
}


@pytest.mark.parametrize("bad", sorted(BAD_SESSION_ARGUMENTS))
@pytest.mark.parametrize("sigmas, blocks", [([0.1], 0), ([], 3)], ids=["no-trial", "no-sigma"])
def test_sweep_checks_session_arguments_before_any_trial(bad, sigmas, blocks):
    # a sweep of no trial or no sigma point returned [] whatever its variant,
    # scheme or feedback; each now raises what a session raises for it.  A
    # session checks its scheme once per (scheme, vdd) and never caches a
    # refused one, so the second session and sweep raise as the first did.
    EncryptionSession(0)  # the default dxor scheme, checked and cached at vdd 0.9, not 0.4
    args = {"variant": 128, "scheme": "dxor", "params": None, "feedback": "permuted"}
    args.update(BAD_SESSION_ARGUMENTS[bad])
    # the sweep's devices are its base_params
    sweep_args = {"base_params" if k == "params" else k: v for k, v in args.items()}
    raised = set()
    for _ in range(2):
        with pytest.raises(MemgiftError) as by_session:
            EncryptionSession(0, **args)
        expected = ("base_" if bad == "params" else "") + str(by_session.value)
        with pytest.raises(MemgiftError) as by_sweep:
            run_sweep(sigmas=sigmas, blocks=blocks, **sweep_args)
        assert type(by_sweep.value) is type(by_session.value)
        assert str(by_sweep.value) == expected
        raised.add((type(by_session.value), expected))
    assert len(raised) == 1


def test_cached_misread_pairings_are_read_only():
    misreading, _ = load_device_config(DATA_DIR / "cli_misreading_device.cfg")
    for params in (DeviceParams(), misreading):
        pairings = misread_pairings(params, "dxor")
        assert misread_pairings(params, "dxor") is pairings
        assert pairings.size == (params is misreading)
        with pytest.raises(ValueError, match="read-only"):
            pairings[...] = 0


@pytest.mark.parametrize("sigmas", [None, 0.1], ids=["None", "float"])
def test_sweep_sigmas_must_be_iterable(sigmas):
    # each raised a bare TypeError
    with pytest.raises(PipelineError, match=r"^sigmas must be an iterable of numbers, got "):
        run_sweep(GIFT64, "dxor", sigmas, 1)


# ---------------------------------------------------------------------------
# Single round


def test_round_zero_matches_reference(variant):
    key = RNG.getrandbits(128)
    pt = RNG.getrandbits(variant.block_bits)
    session = EncryptionSession(key, variant, "sxor")
    got = session.encrypt(pt, trace=True)[1][0].post_state
    rk = extract_round_key(key, variant)
    rc = RoundConstantState.initial()
    want = add_round_key_and_constant(
        perm_bits(sub_cells(pt, variant), variant), rk, rc, variant
    )
    assert got == want


def test_plaintext_is_an_integer_of_the_block():
    # a numpy integer is an integer, as encrypt_block takes it; a wide or
    # negative plaintext, a float or a string is refused before any read
    key = RNG.getrandbits(128)
    session = EncryptionSession(key, GIFT64, "dxor")
    for pt in (np.int64(3), np.uint64((1 << 64) - 1), np.uint8(200)):
        assert session.encrypt(pt)[0] == encrypt_block(int(pt), key, GIFT64)
    reads = session.reads_executed
    # a wide plaintext used to read its low bits, a negative one all ones
    for pt in ((1 << 70) | 5, -1, 1 << 64, np.int64(-1)):
        with pytest.raises(PipelineError, match="does not fit in 64 bits"):
            session.encrypt(pt)
    for pt in (1.5, 3.0, "5", None):
        with pytest.raises(PipelineError, match="must be an integer"):
            session.encrypt(pt)
    assert session.reads_executed == reads


def test_local_mode_is_slice_local():
    key = RNG.getrandbits(128)
    session = EncryptionSession(key, GIFT128, "dxor", feedback="local")
    # nibble j output depends only on nibble j input
    for j in (0, 5, 31):
        base = RNG.getrandbits(128)
        out_base = session.encrypt(base, trace=True)[1][0].output_nibbles
        for nib in range(16):
            tweaked = (base & ~(0xF << (4 * j))) | (nib << (4 * j))
            out = session.encrypt(tweaked, trace=True)[1][0].output_nibbles
            changed = {k for k, (a, b) in enumerate(zip(out, out_base)) if a != b}
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
        for j, nib in enumerate(nxt.record.states[nxt.round_index].tolist()):
            reconstructed |= nib << (4 * j)
        assert prev.post_state == reconstructed
    assert traces[-1].post_state == ct
    # one capture serves the block: each round is its row, 4 x 32 columns
    assert all(t.analog is traces[0].analog for t in traces)
    assert all(t.analog.r_eq[t.round_index].size == 4 * 32 for t in traces)
    assert traces[0].analog.r_eq.shape == (40, 32, 4)


def recorded(record, fn):
    """fn, appending each of its results to record."""

    def call(*args):
        record.append(fn(*args))
        return record[-1]

    return call


@pytest.mark.parametrize(
    "params",
    [DeviceParams(), DeviceParams(sigma_c2c=0.3, sigma_d2d=0.03, wire_r_per_cell=150.0, seed=8)],
    ids=["ideal", "noisy"],
)
def test_traced_block_captures_the_bits_the_kernel_read(monkeypatch, params):
    session = EncryptionSession(RNG.getrandbits(128), GIFT128, "dxor", params)
    kernel_bits, kernel_g, captures = [], [], []
    decide, conductances, capture = pipeline.decide, pipeline.column_conductances, pipeline.read_round

    monkeypatch.setattr(pipeline, "decide", recorded(kernel_bits, decide))
    monkeypatch.setattr(pipeline, "column_conductances", recorded(kernel_g, conductances))
    monkeypatch.setattr(pipeline, "read_round", recorded(captures, capture))
    ct, traces = session.encrypt(RNG.getrandbits(128), trace=True)
    # an ideal block walks words, a noisy one runs the kernel round by
    # round; then one capture of all 40 rounds
    noisy = params.sigma_c2c > 0
    assert len(captures) == 1 and len(kernel_bits) == len(kernel_g) == (40 if noisy else 0)
    analog = captures[0]
    assert all(t.analog is analog for t in traces)
    if noisy:
        assert np.array_equal(analog.bits, np.concatenate(kernel_bits))
        # the kernel decides on conductances, the capture reports their inverse
        assert np.array_equal(1.0 / np.concatenate(kernel_g), analog.r_eq)
        assert analog.pairing is None and analog.grid is None
    else:
        # the read table's bits, which the word walk reads as planes, of the rows it read
        rows = traces[0].record.states[:-1]
        table = read_table(session.state, session.scheme)
        table = table[np.arange(40)[:, None], np.arange(32), rows]
        assert np.array_equal(analog.bits, table)
        # gathered from the nominal grid: each column's pairing names its cells
        assert analog.pairing.shape == (40, 32, 4)
        assert np.array_equal(analog.pairing // 3, analog.sb_bits)
        code = np.where(analog.xor_mask, analog.partner_bits, PARTNER_ABSENT)
        assert np.array_equal(analog.pairing % 3, code)
        assert np.array_equal(analog.bits, analog.grid.bits[analog.pairing])
    # round r's captured bits, through the wiring, are the rows round r + 1 read
    routed = analog.bits.reshape(40, -1).view(np.uint8)[:, session._sources]
    nibbles = routed.reshape(40, -1, 4) @ np.array([1, 2, 4, 8])
    for captured, nxt in zip(nibbles[:-1].tolist(), traces[1:]):
        assert captured == nxt.record.states[nxt.round_index].tolist()
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
# Ideal reads: every block walks words through the grid's planes, plus
# fixes where the read table reads otherwise (d2d cells, slices holding
# different S-boxes), built at the first ideal read of each programming;
# the read table is the oracle of the walk


def oracle_factors(session, reads, sigmas):
    """The per-slice factor draw the kernel's layout replaced: slice j's
    (reads, 2, 4) normals from its own stream, scaled by every sigma, as
    (lanes, S, reads, 2, 4); None when every sigma is zero."""
    if not any(s > 0 for s in sigmas):
        return None
    sigma = np.asarray(sigmas, dtype=float).reshape(-1, 1, 1, 1)
    normals = [rng.standard_normal((reads, 2, 4)) for rng in session._slice_rngs]
    return np.stack([variation_factor(sigma, z) for z in normals], axis=1)


def oracle_read_rounds(
    session, bits, rounds, factors=None, count_errors=False, rows_read=None, table=None
):
    """The per-round read the flat-row kernel replaced: rows fancy-indexed
    by (slice, row) every round, column resistances summed per round, and
    the bit errors counted inside the loop.  factors as oracle_factors.
    Without factors it walks `table`, a `read_table` of the session's
    state, if given, and else senses the cells' ideal conductances, as the
    kernel's ideal branch did."""
    state, vdd = session.state, session.params.vdd
    lanes, idx = bits.shape[0], np.arange(len(state.sb_bits))
    table = table if factors is None else None
    errors = np.zeros(lanes, dtype=np.int64)
    for i, rnd in enumerate(rounds):
        rows = bits.reshape(lanes, len(idx), 4) @ np.array([1, 2, 4, 8])
        if table is not None:
            out = table[rnd, idx, rows].astype(bool)
        else:
            wire = state.params.wire_r_per_cell
            if factors is None:
                g = 1.0 / (state.sb_res[idx, rows] + wire) + 1.0 / (state.partner_res[rnd] + wire)
            else:
                f = factors[:, :, i]
                g = 1.0 / (state.sb_res[idx, rows] * f[..., 0, :] + wire) + 1.0 / (
                    state.partner_res[rnd] * f[..., 1, :] + wire
                )
            r_eq = 1.0 / g
            xor_bits = resolve(session.scheme.xor_amp, r_eq, vdd)
            ro_bits = resolve(session.scheme.readout_amp, r_eq, vdd)
            out = np.where(state.xor_mask, xor_bits, ro_bits)
        if count_errors:
            expected = state.sb_bits[idx, rows] ^ state.partner_bits[rnd]
            errors += (out != expected).sum(axis=(1, 2))
        bits = out.reshape(lanes, -1).view(np.uint8).take(session._sources, axis=1)
        if rows_read is not None:
            rows_read.append(rows)
    return bits, errors


def oracle_encrypt(session, state, count_errors=False):
    """`state` read through every round by oracle_read_rounds on a session
    that never reads, so that it senses the cells: the reference of a table
    walk.  Returns the ciphertext and its bit-error count."""
    assert session._walk is None
    bits = pipeline.state_to_bits(state, session.variant.block_bits)[None]
    rounds = range(session.variant.rounds)
    out, errors = oracle_read_rounds(session, bits, rounds, count_errors=count_errors)
    return pipeline.bits_to_state(out[0]), int(errors[0])


def oracle_table_build(session):
    """The read table as the kernel's ideal branch built it: the 16 S-box
    rows of a few rounds at a time read as lanes, both amps on every
    column, each column's bit from the amp wired to it."""
    state, vdd, wire = session.state, session.params.vdd, session.params.wire_r_per_cell
    rounds, nibbles = state.rounds, len(state.sb_bits)
    sb_g = 1.0 / (state.sb_res.transpose(1, 0, 2) + wire)  # (16, S, 4)
    step = max(1, 8192 // (16 * nibbles * 4))
    table = np.empty((rounds, nibbles, 16, 4), dtype=np.uint8)
    for first in range(0, rounds, step):
        rnds = np.arange(first, min(first + step, rounds))[:, None]
        r_eq = 1.0 / (sb_g + 1.0 / (state.partner_res[rnds] + wire))  # (k, 16, S, 4)
        xor_bits = resolve(session.scheme.xor_amp, r_eq, vdd)
        ro_bits = resolve(session.scheme.readout_amp, r_eq, vdd)
        reads = np.where(state.xor_mask, xor_bits, ro_bits)
        table[first : first + len(rnds)] = reads.transpose(0, 2, 1, 3)
    return table


@settings(max_examples=25)
@given(
    variant=st.sampled_from([GIFT64, GIFT128]),
    scheme=st.sampled_from(["sxor", "dxor"]),
    feedback=st.sampled_from(["permuted", "local"]),
    key=st.integers(0, (1 << 128) - 1),
    sigma_d2d=st.sampled_from([0.0, 0.05, 0.1, 0.2]),
    wire=st.sampled_from([0.0, 150.0, 20e3]),
    mask=st.integers(1, 15),
    data=st.data(),
)
def test_read_table_walk_matches_kernel(variant, scheme, feedback, key, sigma_d2d, wire, mask, data):
    params = DeviceParams(sigma_d2d=sigma_d2d, wire_r_per_cell=wire, seed=key % 1000)
    walk = EncryptionSession(key, variant, scheme, params, feedback)
    cells = EncryptionSession(key, variant, scheme, params, feedback)  # read by the oracle
    pts = data.draw(st.lists(st.integers(0, (1 << variant.block_bits) - 1), min_size=5, max_size=5))
    cts = [walk.encrypt_with_error_count(pt) for pt in pts]
    built = walk._walk
    assert built is not None
    assert cts == [oracle_encrypt(cells, pt, count_errors=True) for pt in pts]
    # a remask rewrites the S-box cells: the walk must be rebuilt
    apply_mask(walk, mask)
    apply_mask(cells, mask)
    masked = [encrypt_masked(walk, pt, mask)[0] for pt in pts]
    assert walk._walk is not None and walk._walk is not built
    word = replicate_mask(mask, variant.nibbles)
    assert masked == [oracle_encrypt(cells, pt ^ word)[0] ^ word for pt in pts]


@pytest.mark.parametrize("sigma_d2d", [0.0, 0.03], ids=["nominal", "d2d"])
def test_read_table_is_built_at_the_first_ideal_read_of_each_programming(monkeypatch, sigma_d2d):
    # each programming builds its walk once: the key words from the partner
    # bits and, on cells with d2d variation, the byte tables from one read
    # table; nominal cells that read their logic build no read table, and
    # every round of theirs walks the cells' logic tables
    walks, tables = [], []
    monkeypatch.setattr(pipeline, "_walk_keys", recorded(walks, pipeline._walk_keys))
    monkeypatch.setattr(pipeline, "read_table", recorded(tables, pipeline.read_table))

    def built(programmings):
        assert len(walks) == programmings
        assert len(tables) == (programmings if sigma_d2d else 0)

    params = DeviceParams(sigma_d2d=sigma_d2d, seed=12)
    key = RNG.getrandbits(128)
    session = EncryptionSession(key, GIFT64, "dxor", params)
    assert session._walk is None
    session.encrypt(0)
    walk = session._walk
    # per round one byte table per state byte and a routed key word
    assert [key for _, key in walk] == walks[0] and len(walk) == GIFT64.rounds
    for round_tables, key in walk:
        assert len(round_tables) == 8 and all(len(t) == 256 for t in round_tables)
        assert type(key) is int
    if not sigma_d2d:
        assert all(round_tables is walk[0][0] for round_tables, _ in walk)
    built(1)
    session.encrypt(1)
    assert session._walk is walk
    built(1)
    apply_mask(session, 3)
    assert session._walk is None
    encrypt_masked(session, 4, 3)
    assert session._walk is not None and session._walk is not walk
    built(2)
    # so does a one-block sweep trial with every lane ideal
    sweep = run_sweep(GIFT64, "dxor", [0.0, 0.0], blocks=2, base_params=params)
    assert [p.bit_errors for p in sweep] == [0, 0]
    built(4)
    # so does a traced block; noisy reads never build one
    traced = EncryptionSession(key, GIFT64, "dxor", params)
    noisy = EncryptionSession(key, GIFT64, "dxor", replace(params, sigma_c2c=0.05))
    traced.encrypt(0, trace=True)
    assert traced._walk is not None
    built(5)
    for pt in range(5):
        noisy.encrypt(pt)
    assert noisy._walk is None
    built(5)
    apply_mask(traced, 5)
    assert traced._walk is None
    encrypt_masked(traced, 5, 5, trace=True)
    assert traced._walk is not None
    built(6)


def test_a_second_session_derives_nothing_from_its_configuration(monkeypatch):
    # what a session derives from its (scheme, vdd), nominal grid or S-box
    # cells is computed once: a second nominal session on the same
    # configuration checks no scheme, compares no grid to its logic and
    # builds no logic table
    params, key = DeviceParams(vdd=0.85), RNG.getrandbits(128)
    EncryptionSession(key, GIFT128, "sxor", params).encrypt(0)
    validated, validate = [], SenseAmpScheme.validate
    monkeypatch.setattr(SenseAmpScheme, "validate", recorded(validated, validate))

    def misses():
        return [f.cache_info().misses for f in (crossbar._misreads, pipeline._logic_tables)]

    before = misses()
    fresh = RNG.getrandbits(128)
    session = EncryptionSession(fresh, GIFT128, "sxor", params)
    assert session.encrypt(5)[0] == encrypt_block(5, fresh, GIFT128)
    assert validated == [] and misses() == before
    logic = session._ideal_reads()[0][0]
    assert all(tables is logic for tables, _ in session._ideal_reads())
    # the logic tables are keyed by the cells: a state of the same shape
    # whose slice 1 holds another S-box walks its own in state byte 0
    other = EncryptionSession(key, GIFT128, "sxor", params, sbox=GIFT_SBOX.inverse()).state
    state = session.state
    sb_bits, sb_res = state.sb_bits.copy(), state.sb_res.copy()
    sb_bits[1], sb_res[1] = other.sb_bits[1], other.sb_res[1]
    session.state, session._walk = replace(state, sb_bits=sb_bits, sb_res=sb_res), None
    walk = session._ideal_reads()
    assert all(tables is walk[0][0] for tables, _ in walk)
    assert [a == b for a, b in zip(walk[0][0], logic)] == [False] + [True] * 15
    assert misses()[1] == before[1] + 1


# the MISCALIBRATED amps, as the device file that sweeps them holds them
MISCALIBRATED_SCHEMES = tuple(load_device_config(DATA_DIR / "sweep_amps_miscalibrated.cfg")[1].values())


@settings(max_examples=60, deadline=None)
@given(
    variant=st.sampled_from([GIFT64, GIFT128]),
    scheme=st.sampled_from(["sxor", "dxor", *MISCALIBRATED_SCHEMES]),
    feedback=st.sampled_from(["permuted", "local"]),
    lanes=st.integers(1, 8),
    sigma_d2d=st.sampled_from([0.0, 0.05]),
    wire=st.sampled_from([0.0, 150.0, 800.0, 1200.0]),
    with_table=st.booleans(),
    record_rows=st.booleans(),
    count_errors=st.booleans(),
    key=st.integers(0, (1 << 128) - 1),
    data=st.data(),
)
def test_read_kernel_matches_per_round_oracle(
    variant, scheme, feedback, lanes, sigma_d2d, wire, with_table, record_rows, count_errors,
    key, data,
):
    # every lane's ciphertext and error count, a one-lane block's traced
    # rows, and where each slice's noise stream is left, as the per-round
    # read gives them
    params = DeviceParams(sigma_d2d=sigma_d2d, wire_r_per_cell=wire, seed=key % 997)
    sigma = st.sampled_from([0.0, 0.05, 0.1, 0.3])
    sigmas = data.draw(st.lists(sigma, min_size=lanes, max_size=lanes))
    if lanes > 1:  # a zero lane among noisy ones
        sigmas[data.draw(st.integers(0, lanes - 1))] = 0.0
    pt = data.draw(st.integers(0, (1 << variant.block_bits) - 1))
    bits = np.tile(pipeline.state_to_bits(pt, variant.block_bits), (lanes, 1))
    rounds = range(variant.rounds)
    kernel, oracle = (EncryptionSession(key, variant, scheme, params, feedback) for _ in range(2))
    # the walk the kernel reads ideally preset, or built at its first ideal read
    if with_table:
        kernel._ideal_reads()
    table = read_table(oracle.state, oracle.scheme) if with_table else None
    # a trace records one lane's rows
    traces, want_rows = ([] if record_rows and lanes == 1 else None for _ in range(2))
    cts, errors = kernel._encrypt_lanes(pt, sigmas, count_errors, traces)
    want = oracle_read_rounds(
        oracle, bits, rounds, oracle_factors(oracle, len(rounds), sigmas), count_errors, want_rows,
        table,
    )
    assert cts == [pipeline.bits_to_state(b) for b in want[0]]
    assert errors.tolist() == want[1].tolist()
    if traces is not None:
        assert traces[0].record.states[:-1].tolist() == [rows[0].tolist() for rows in want_rows]
        assert traces[-1].post_state == cts[0]
    if any(sigmas) or sigma_d2d:
        for a, b in zip(kernel._slice_rngs, oracle._slice_rngs):
            assert a.standard_normal() == b.standard_normal()
    else:
        assert "_slice_rngs" not in vars(kernel)



def test_session_devices_are_the_devices_its_cells_were_written_with():
    # A session kept a writable copy of its devices beside its state's: once
    # it was assigned, an S-box rewrite wrote 1024 distinct d2d resistances
    # into a state still called nominal, and a traced block gathered its
    # capture from the nominal grid instead of sensing those cells.
    session = EncryptionSession(0, GIFT64, "dxor")
    with pytest.raises(AttributeError):
        session.params = DeviceParams(sigma_d2d=0.05, seed=1)
    apply_mask(session, 3)
    assert session.params is session.state.params and session.state.nominal
    assert np.unique(session.state.sb_res).tolist() == [2.8e3, 1e6]
    traces = encrypt_masked(session, 5, 3, trace=True)[1]
    # gathered from the nominal grid, and the capture sensed from the cells
    rows = traces[0].record.states[:-1]
    assert traces[0].analog.pairing is not None
    assert_same_capture(traces[0].analog, sensed_capture(session, rows))


MISCALIBRATED = "dxor.vref_and = 0.3\nsxor.vth = 0.25\n"  # XOR amps that misread


def sensed_capture(session, rows) -> ReadCapture:
    """The capture of a block that read S-box rows `rows`, shape (rounds,
    S), sensed: every column's r_eq from its cells' conductances, both amps
    resolving it, as `read_round` senses a noisy or d2d capture."""
    state, rnds = session.state, np.arange(len(rows))
    at = rows + 16 * np.arange(len(state.sb_bits))
    r_eq = 1.0 / column_conductances(state, at, partner_conductances(state, rnds))
    return sense_capture(
        session.scheme, session.params.vdd, r_eq,
        state.sb_bits.reshape(-1, 4).take(at, axis=0), state.partner_bits[rnds], state.xor_mask,
    )


def bitwise(a: np.ndarray) -> np.ndarray:
    """a's bytes as unsigned ints of its width, so -0.0 and 0.0 differ."""
    return a.view(f"u{a.itemsize}")


def assert_same_capture(got: ReadCapture, want: ReadCapture) -> None:
    for name in ("bits", "r_eq", "sb_bits", "partner_bits", "xor_mask"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(bitwise(a), bitwise(b)), name
    assert list(got.nodes) == list(want.nodes)
    for kind, nodes in want.nodes.items():
        assert list(got.nodes[kind]) == list(nodes)
        for name, v in nodes.items():
            assert got.nodes[kind][name].dtype == v.dtype
            assert np.array_equal(bitwise(got.nodes[kind][name]), bitwise(v)), (kind, name)


@settings(max_examples=30, deadline=None)
@given(
    variant=st.sampled_from([GIFT64, GIFT128]),
    scheme=st.sampled_from(["sxor", "dxor"]),
    feedback=st.sampled_from(["permuted", "local"]),
    wire=st.sampled_from([0.0, 150.0, 700.0]),
    miscalibrated=st.booleans(),
    masks=st.lists(st.integers(0, 15), min_size=1, max_size=2),
    key=st.integers(0, (1 << 128) - 1),
    pt=st.integers(0, (1 << 64) - 1),
)
def test_nominal_capture_is_the_sensed_capture_bit_for_bit(
    tmp_path_factory, variant, scheme, feedback, wire, miscalibrated, masks, key, pt
):
    params, schemes = DeviceParams(), SCHEMES
    if miscalibrated:
        path = tmp_path_factory.mktemp("params") / "amps.cfg"
        path.write_text(MISCALIBRATED)
        params, schemes = load_device_config(path)
    params = replace(params, wire_r_per_cell=wire)
    session = EncryptionSession(key, variant, schemes[scheme], params, feedback)
    traces, sensed = [], []
    for i, mask in enumerate([0, *masks]):  # 2-3 blocks, remasked between them
        if i:
            apply_mask(session, mask)
        block = encrypt_masked(session, pt ^ i, mask, trace=True)[1]
        analog = block[0].analog
        # the gathered capture equals the one sensed from the cells read
        rows = block[0].record.states[:-1]
        assert_same_capture(analog, sensed_capture(session, rows))
        assert analog.pairing.shape == analog.bits.shape
        traces += block
        # one record per block, as the block shares it, with its capture unpaired
        unpaired = replace(block[0].record, analog=replace(analog, pairing=None))
        sensed += [RoundTrace(unpaired, t.round_index) for t in block]
    # the gathered records are the ones formatted from the captured values
    assert written(export_analog_trace, traces) == written(export_analog_trace, sensed)


@pytest.mark.parametrize(
    "params", [DeviceParams(sigma_c2c=0.05, seed=4), DeviceParams(sigma_d2d=0.03, seed=4)],
    ids=["c2c", "d2d"],
)
def test_noisy_and_d2d_captures_are_sensed(params):
    # d2d cells read without noise walk words, yet their capture is sensed
    session = EncryptionSession(RNG.getrandbits(128), GIFT64, "sxor", params)
    analog = session.encrypt(RNG.getrandbits(64), trace=True)[1][0].analog
    assert analog.pairing is None and analog.grid is None


def assert_table_equals_kernel_build(
    tmp_path_factory, variant, scheme, feedback, key, wire, sigma_d2d, mask, miscalibrated
):
    params, schemes = DeviceParams(), SCHEMES
    if miscalibrated:
        path = tmp_path_factory.mktemp("params") / "amps.cfg"
        path.write_text(MISCALIBRATED)
        params, schemes = load_device_config(path)
    params = replace(params, wire_r_per_cell=wire, sigma_d2d=sigma_d2d, seed=key % 1000)
    session = EncryptionSession(key, variant, schemes[scheme], params, feedback)
    apply_mask(session, mask)
    table = read_table(session.state, session.scheme)
    assert table.dtype == np.uint8 and not table.flags.writeable
    assert np.array_equal(table, oracle_table_build(session))


TABLE_BUILDS = dict(
    variant=st.sampled_from([GIFT64, GIFT128]),
    scheme=st.sampled_from(["sxor", "dxor"]),
    feedback=st.sampled_from(["permuted", "local"]),
    key=st.integers(0, (1 << 128) - 1),
    wire=st.sampled_from([0.0, 150.0, 20e3]),
    mask=st.integers(0, 15),
    miscalibrated=st.booleans(),
)


@settings(max_examples=40, deadline=None)
@given(**TABLE_BUILDS)
def test_nominal_read_table_equals_kernel_build(tmp_path_factory, **case):
    # the table decided on the columns' decision points is the one the
    # kernel reads, amp for amp, analog outcomes (20 kOhm wire) included
    assert_table_equals_kernel_build(tmp_path_factory, sigma_d2d=0.0, **case)


@settings(max_examples=40, deadline=None)
@given(sigma_d2d=st.sampled_from([0.05, 0.1]), **TABLE_BUILDS)
def test_d2d_read_table_equals_kernel_build(tmp_path_factory, **case):
    # the table sensed one column kind at a time, read-out columns once for
    # every round, is the one the kernel reads, entry for entry
    assert_table_equals_kernel_build(tmp_path_factory, **case)


@pytest.mark.parametrize("scheme", ["sxor", "dxor"])
def test_read_table_keeps_counters_and_logs(scheme):
    key = RNG.getrandbits(128)
    pts = [RNG.getrandbits(128) for _ in range(5)]
    walk = EncryptionSession(key, GIFT128, scheme)
    cells = EncryptionSession(key, GIFT128, scheme)  # read by the oracle
    # one block's events: 40 reads of 32 slices, 71 XOR and 57 read-out senses each
    xor_kind, ro_kind = pipeline.SENSE_EVENT[scheme]
    block_log = EventLog(GIFT128.name, scheme, 40, {
        "decoder_cycle": 40 * 32, "selector_cycle": 40, "register_cycle": 40,
        xor_kind: 40 * 71, ro_kind: 40 * 57,
    })
    for pt in pts:
        ct = walk.encrypt(pt)[0]
        assert ct == oracle_encrypt(cells, pt)[0]
        assert walk.current_log == block_log
    assert walk._walk is not None
    assert walk.session_log() == cells.write_log.merged_with(block_log)
    assert walk.reads_executed == 5 * 40
    assert walk.blocks_encrypted == 5


def table_walk(session, pt):
    """A block read from pt through `read_table` of the session's cells,
    round by round: its ciphertext, its bit errors, the nibbles it walked,
    (rounds + 1, S), and the bits each round read, (rounds, S, 4)."""
    variant, table = session.variant, read_table(session.state, session.scheme)
    bits, rows = pipeline.state_to_bits(pt, variant.block_bits)[None], []
    out, errors = oracle_read_rounds(
        session, bits, range(variant.rounds), count_errors=True, rows_read=rows, table=table
    )
    ct = pipeline.bits_to_state(out[0])
    last = pipeline.state_to_bits(ct, variant.block_bits).reshape(-1, 4) @ np.array([1, 2, 4, 8])
    states = np.array([r[0] for r in rows] + [last])
    read = table[np.arange(variant.rounds)[:, None], np.arange(variant.nibbles), states[:-1]]
    return ct, int(errors[0]), states, read


@settings(max_examples=30, deadline=None)
@given(
    variant=st.sampled_from([GIFT64, GIFT128]),
    scheme=st.sampled_from(["sxor", "dxor"]),
    feedback=st.sampled_from(["permuted", "local"]),
    wire=st.sampled_from([0.0, 150.0, 1200.0, 5000.0, 20e3]),
    miscalibrated=st.booleans(),
    sigma_d2d=st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.3]),
    sbox=st.permutations(range(16)).map(SBoxTable),
    key=st.integers(0, (1 << 128) - 1),
    pt=st.integers(0, (1 << 128) - 1),
)
def test_word_walk_equals_a_read_table_walk(
    tmp_path_factory, variant, scheme, feedback, wire, miscalibrated, sigma_d2d, sbox, key, pt
):
    # from 1200 Ohm of wire, and with miscalibrated amps, some nominal reads
    # are not the logic value, and d2d cells read otherwise than the grid in
    # a few rows at 0.1 and in thousands from 0.2: the walk must misread
    # them as the table does
    params, schemes = DeviceParams(), SCHEMES
    if miscalibrated:
        path = tmp_path_factory.mktemp("params") / "amps.cfg"
        path.write_text(MISCALIBRATED)
        params, schemes = load_device_config(path)
    params = replace(params, wire_r_per_cell=wire, sigma_d2d=sigma_d2d, seed=key % 1000)
    session = EncryptionSession(key, variant, schemes[scheme], params, feedback, sbox)
    pt &= (1 << variant.block_bits) - 1
    for mask in (None, *range(16)):  # as programmed, then remasked with every mask
        if mask is not None:
            apply_mask(session, mask)
        ct, errors, states, read = table_walk(session, pt)
        event(f"bit errors: {'some' if errors else 'none'}")
        assert session.encrypt(pt)[0] == ct
        assert session.encrypt_with_error_count(pt) == (ct, errors)
        traced, traces = session.encrypt(pt, trace=True)
        assert traced == ct
        assert np.array_equal(traces[0].record.states, states)
        assert np.array_equal(traces[0].analog.bits, read.astype(bool))


def with_slice_sboxes(session, sboxes: dict) -> None:
    """Rewrite the session's cells so that slice j holds S-box sboxes[j],
    as a programming of that S-box writes it, d2d draws alike."""
    state, bundle, params = session.state, session.bundle, session.params
    sb_bits, sb_res = state.sb_bits.copy(), state.sb_res.copy()
    for j, sbox in sboxes.items():
        rngs = pipeline._slice_streams(params.seed, len(sb_bits)) if params.sigma_d2d else None
        other = program_slice(bundle.key_bits, bundle.columns, sbox_bit_matrix(sbox), params, rngs)
        sb_bits[j], sb_res[j] = other.sb_bits[j], other.sb_res[j]
    session.state, session._walk = replace(state, sb_bits=sb_bits, sb_res=sb_res), None


@lru_cache(maxsize=None)
def oracle_routes(variant, feedback: str) -> np.ndarray:
    """Entry [i, w]: the word that byte i of a sensed word holding w routes
    to through a session's wiring, bit by bit."""
    n, sources = variant.block_bits, EncryptionSession(0, variant, feedback=feedback)._sources
    return np.array([
        [pipeline.bits_to_state(pipeline.state_to_bits(w << 8 * i, n)[sources]) for w in range(256)]
        for i in range(n // 8)
    ], dtype=object)


@settings(max_examples=40, deadline=None)
@given(
    variant=st.sampled_from([GIFT64, GIFT128]),
    scheme=st.sampled_from(["sxor", "dxor"]),
    feedback=st.sampled_from(["permuted", "local"]),
    wire=st.sampled_from([0.0, 150.0, 1200.0, 20e3]),
    miscalibrated=st.booleans(),
    sigma_d2d=st.sampled_from([0.0, 0.05, 0.1, 0.2]),
    key=st.integers(0, (1 << 128) - 1),
    own_sboxes=st.booleans(),
    data=st.data(),
)
def test_walk_tables_are_the_reads_of_each_state_byte(
    tmp_path_factory, variant, scheme, feedback, wire, miscalibrated, sigma_d2d, key, own_sboxes,
    data,
):
    # the walk reads state byte i through its round's byte table: entry
    # [r][i][v] is the routed word of what read_table reads on the byte's
    # two slices, the low one on row v & 15 and the high one on row v >> 4,
    # partner bits taken out.  A (round, byte) has its own table exactly
    # where a slice of it fails a read, a read_table row that is not s ^ p,
    # and shares the cells' logic table elsewhere; each round's key word is
    # the round's partner bits routed, which under permuted feedback is the
    # cipher's round addition.  From 1200 Ohm of wire, and with
    # miscalibrated amps, the nominal grid misreads a pairing, so nominal
    # cells fail in many rows too.  Each slice may hold its own S-box.
    params, schemes = DeviceParams(), SCHEMES
    if miscalibrated:
        path = tmp_path_factory.mktemp("params") / "amps.cfg"
        path.write_text(MISCALIBRATED)
        params, schemes = load_device_config(path)
    params = replace(params, wire_r_per_cell=wire, sigma_d2d=sigma_d2d, seed=key % 1000)
    session = EncryptionSession(key, variant, schemes[scheme], params, feedback)
    if own_sboxes:
        sbox = st.permutations(range(16)).map(SBoxTable)
        sboxes = data.draw(st.lists(sbox, min_size=variant.nibbles, max_size=variant.nibbles))
        with_slice_sboxes(session, dict(enumerate(sboxes)))
    state, sources = session.state, session._sources
    table = read_table(state, session.scheme)
    walk = session._ideal_reads()
    logic = pipeline._logic_tables(state.sb_bits.tobytes(), variant, feedback)
    # every row's nibble read, partner bits out, (rounds, S, 16), and what byte i holding v reads
    nibbles = (table ^ state.partner_bits[:, :, None]) @ np.array([1, 2, 4, 8])
    v = np.arange(256)
    reads = nibbles[:, 0::2][:, :, v & 15] | nibbles[:, 1::2][:, :, v >> 4] << 4
    got = np.array([round_tables for round_tables, _ in walk], dtype=object)
    want = oracle_routes(variant, feedback)[np.arange(variant.nibbles // 2)[:, None], reads]
    assert got.shape == want.shape and (got == want).all()
    failing = (table != state.sb_bits ^ state.partner_bits[:, :, None]).any(axis=(2, 3))
    failing = failing.reshape(variant.rounds, -1, 2).any(axis=2)  # per (round, byte)
    event(f"failing bytes: {'some' if failing.any() else 'none'}")
    for rnd, (round_tables, _) in enumerate(walk):
        assert (round_tables is logic) == (not failing[rnd].any())
        for i, byte_table in enumerate(round_tables):
            assert (byte_table is logic[i]) == (not failing[rnd, i])
            assert (byte_table == logic[i]) == (not failing[rnd, i])
    keys = [key_word for _, key_word in walk]
    routed = state.partner_bits.reshape(variant.rounds, -1)[:, sources]
    assert keys == [pipeline.bits_to_state(bits) for bits in routed]
    if feedback == "permuted":
        assert keys == round_addition_masks(key, variant)


@pytest.mark.parametrize("feedback", ["permuted", "local"])
def test_sessions_share_the_read_only_wiring(variant, feedback):
    # the wiring is cached per (variant, feedback), so no session may write it
    first, second = (EncryptionSession(key, variant, "dxor", feedback=feedback) for key in (1, 2))
    for name in ("_sources", "_row_base"):
        wiring = getattr(first, name)
        assert wiring is getattr(second, name) and not wiring.flags.writeable


@pytest.mark.parametrize("sigma_d2d", [0.0, 0.03], ids=["nominal", "d2d"])
def test_ideal_lanes_read_alike_and_count_every_lane(variant, sigma_d2d):
    params = DeviceParams(sigma_d2d=sigma_d2d, seed=9)
    points = run_sweep(variant, "dxor", [0.0, 0.0, 0.0], blocks=3, base_params=params)
    assert points[0] == points[1] == points[2]
    assert (points[0].bit_errors, points[0].block_errors) == (0, 0)
    assert points[0].sensed_bits == 3 * variant.rounds * 4 * variant.nibbles
    key, pt = RNG.getrandbits(128), RNG.getrandbits(variant.block_bits)
    session = EncryptionSession(key, variant, "dxor", params)
    cts, errors = session._encrypt_lanes(pt, [0.0, 0.0, 0.0], count_errors=True)
    assert cts == [encrypt_block(pt, key, variant)] * 3 and errors.tolist() == [0, 0, 0]
    reads = 3 * variant.rounds
    assert session.reads_executed == reads and session.blocks_encrypted == 3
    assert session.current_log.rounds == reads
    assert session.current_log.get("decoder_cycle") == variant.nibbles * reads


@pytest.mark.parametrize("sigma_d2d", [0.0, 0.1], ids=["nominal", "d2d"])
def test_slices_holding_different_sboxes_read_as_a_read_table_walk(monkeypatch, variant, sigma_d2d):
    # the walk reads each slice's own S-box: where slice 3 holds another
    # one, the state encrypts, counts errors and traces as a walk of its
    # read table, and nominal cells build no read table for it
    tables = []
    monkeypatch.setattr(pipeline, "read_table", recorded(tables, pipeline.read_table))
    params, key = DeviceParams(sigma_d2d=sigma_d2d, seed=6), RNG.getrandbits(128)
    session = EncryptionSession(key, variant, "dxor", params)
    with_slice_sboxes(session, {3: GIFT_SBOX.inverse()})
    for pt in [RNG.getrandbits(variant.block_bits) for _ in range(4)]:
        ct, errors, states, read = table_walk(session, pt)
        assert session.encrypt(pt)[0] == ct != encrypt_block(pt, key, variant)
        assert session.encrypt_with_error_count(pt) == (ct, errors)
        traced, traces = session.encrypt(pt, trace=True)
        assert traced == ct
        assert np.array_equal(traces[0].record.states, states)
        assert np.array_equal(traces[0].analog.bits, read.astype(bool))
    assert len(tables) == (1 if sigma_d2d else 0)


@pytest.mark.parametrize("feedback", ["permuted", "local"])
def test_per_slice_masked_sboxes_read_without_a_read_table(monkeypatch, variant, feedback):
    # slice j holding S(x ^ a_j) ^ b_j, with a the output mask b routed
    # through the wiring, reads its own cells: nominal cells build no read
    # table, a block encrypts, counts errors and traces as a walk of the
    # read table does, and a block masked by a stays masked by a, so under
    # permuted feedback it unmasks to the cipher's ciphertext
    tables = []
    monkeypatch.setattr(pipeline, "read_table", recorded(tables, pipeline.read_table))
    key, n = RNG.getrandbits(128), variant.block_bits
    session = EncryptionSession(key, variant, "dxor", feedback=feedback)
    b = RNG.getrandbits(n)
    a = pipeline.bits_to_state(pipeline.state_to_bits(b, n)[session._sources])
    sboxes = {
        j: SBoxTable([GIFT_SBOX[x ^ a >> 4 * j & 15] ^ b >> 4 * j & 15 for x in range(16)])
        for j in range(variant.nibbles)
    }
    with_slice_sboxes(session, sboxes)
    for pt in [RNG.getrandbits(n) for _ in range(4)]:
        ct, errors, states, read = table_walk(session, pt ^ a)
        assert session.encrypt(pt ^ a)[0] == ct
        assert session.encrypt_with_error_count(pt ^ a) == (ct, errors) == (ct, 0)
        traced, traces = session.encrypt(pt ^ a, trace=True)
        assert traced == ct
        assert np.array_equal(traces[0].record.states, states)
        assert np.array_equal(traces[0].analog.bits, read.astype(bool))
        if feedback == "permuted":
            assert ct ^ a == encrypt_block(pt, key, variant)
    assert tables == []


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
                    "inputs": "".join(f"{v:x}" for v in t.record.states[t.round_index, ::-1]),
                    "outputs": "".join(f"{v:x}" for v in reversed(t.output_nibbles)),
                    "post_state": f"{t.post_state:0{digits}x}",
                }
            )
            + "\n"
        )


def slow_analog_trace(traces, fp, cache=None):
    """The oracle of export_analog_trace: one json.dumps per record.  cache
    holds each capture's arrays, listed once, and each of its rounds'
    records, formatted once.  It is keyed by the capture itself, which it
    keeps alive, so share one dict only among the exports of one example."""
    cache = {} if cache is None else cache
    for t in traces:
        analog, i = t.analog, t.round_index
        if analog not in cache:
            arrays = (analog.r_eq, analog.sb_bits, analog.partner_bits, analog.bits.view(np.uint8),
                      analog.xor_mask)
            volts = {k: {n: v.tolist() for n, v in nodes.items()} for k, nodes in analog.nodes.items()}
            cache[analog] = [a.tolist() for a in arrays] + [volts], {}
        (r_eq, sb, partner, bits, xor_mask, volts), rounds = cache[analog]
        if i not in rounds:
            records = []
            for j, col in np.ndindex(analog.xor_mask.shape):
                kind = "xor" if xor_mask[j][col] else "readout"
                stored = [sb[i][j][col]] + ([partner[i][j][col]] if kind == "xor" else [])
                nodes = {name: round(v[i][j][col], 6) for name, v in volts[kind].items()}
                record = {"slice": j, "round": i, "column": col, "kind": kind,
                          "stored_bits": stored, "r_eq": r_eq[i][j][col], "nodes": nodes,
                          "bit": bits[i][j][col]}
                records.append(json.dumps(record) + "\n")
            rounds[i] = "".join(records)
        fp.write(rounds[i])


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
    # the first block and one more, interleaved round by round
    other = session.encrypt(data.draw(pt), trace=True)[1]
    interleaved = [t for pair in zip(traces[: variant.rounds], other) for t in pair]
    slow_analog = partial(slow_analog_trace, cache={})  # this example's captures
    for subset in (traces, block[::-1], block[first:last], traces[::-1], interleaved, []):
        assert_same_lines(
            written(export_round_trace, session, subset), written(slow_round_trace, session, subset)
        )
        assert_same_lines(written(export_analog_trace, subset), written(slow_analog, subset))
    # no traces: the header alone, and no analog records
    assert len(written(export_round_trace, session, []).splitlines()) == 1
    assert written(export_analog_trace, []) == ""


@pytest.mark.parametrize("variant", [GIFT64, GIFT128], ids=["gift64", "gift128"])
@pytest.mark.parametrize(
    "params",
    [DeviceParams(), DeviceParams(sigma_c2c=0.05, seed=6), DeviceParams(sigma_d2d=0.05, seed=6)],
    ids=["nominal", "c2c", "d2d"],
)
def test_round_trace_view_is_plain_data(variant, params):
    session = EncryptionSession(RNG.getrandbits(128), variant, "dxor", params)
    apply_mask(session, 3)
    traces = encrypt_masked(session, RNG.getrandbits(variant.block_bits), 3, trace=True)[1]
    record = traces[0].record
    assert all(t.record is record for t in traces)
    assert [t.round_index for t in traces] == list(range(variant.rounds))
    assert record.states.shape == (variant.rounds + 1, variant.nibbles)
    for a in (record.states, record.outputs):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1

    def fields(t):
        inputs = tuple(t.record.states[t.round_index].tolist())
        return t.round_index, inputs, t.output_nibbles, t.post_state, t.block, t.active_mask

    before = [fields(t) for t in traces]
    for index, inputs, outputs, post, block, mask in before:
        for nibbles in (inputs, outputs):
            assert type(nibbles) is tuple and len(nibbles) == variant.nibbles
            assert all(type(v) is int and 0 <= v < 16 for v in nibbles)
        assert all(type(v) is int for v in (index, post, block, mask))
        assert (block, mask) == (0, 3)
    json.dumps(before)
    # each round's post state is the next round's inputs
    for (_, _, _, post, _, _), (_, inputs, _, _, _, _) in zip(before, before[1:]):
        assert post == sum(v << (4 * j) for j, v in enumerate(inputs))
    # a view compares and reads the same, export after export
    exports = [written(export_round_trace, session, traces) for _ in range(2)]
    assert exports[0] == exports[1]
    assert [fields(t) for t in traces] == before
    assert traces[5] == RoundTrace(record, 5) and hash(traces[5]) == hash(RoundTrace(record, 5))
    assert traces[5] != traces[6] and traces[5] != RoundTrace(replace(record), 5)


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
    states, outputs = np.zeros((3, 2), dtype=np.uint8), np.zeros((2, 2), dtype=np.uint8)
    record = BlockTrace(capture, states, outputs, 0, 0)
    traces = [RoundTrace(record, i) for i in (1, 0, 1)]
    text = written(export_analog_trace, traces)
    assert text == written(slow_analog_trace, traces)
    for spelling in ("Infinity", "-Infinity", "NaN", '"r_eq": -0.0', "5e-05", "1e+16", "-0.0,"):
        assert spelling in text
    assert '"odd \\"%s\\" name": ' in text


def test_analog_export_formats_only_the_rounds_it_writes(monkeypatch):
    # a capture sensed under c2c noise, exported one round at a time: each
    # export formats that round's S*4 record tails, not the capture's
    session = EncryptionSession(0x2468ACE, GIFT128, "dxor", DeviceParams(sigma_c2c=0.05, seed=4))
    traces = session.encrypt(0x13579BDF, trace=True)[1]
    assert traces[0].analog.pairing is None
    formatted, format_tails = [], pipeline._format_tails

    def counted(capture, kind, at):
        formatted.append(len(at))
        return format_tails(capture, kind, at)

    monkeypatch.setattr(pipeline, "_format_tails", counted)
    for one_round in (traces[7:8], traces[39:]):
        formatted.clear()
        text = written(export_analog_trace, one_round)
        assert sum(formatted) == 32 * 4 == len(text.splitlines())
        assert text == written(slow_analog_trace, one_round)


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


def test_sweep_seed_defaults_to_the_base_device_seed():
    # the seed is stated once: on the base device, or as seed=, alike
    sigmas, base = [0.0, 0.1], DeviceParams(sigma_d2d=0.02, seed=9)
    points = run_sweep(GIFT64, "dxor", sigmas, blocks=2, base_params=base)
    assert points == run_sweep(GIFT64, "dxor", sigmas, blocks=2, seed=9, base_params=base)
    assert points == run_sweep(GIFT64, "dxor", sigmas, blocks=2, seed=9,
                               base_params=replace(base, seed=0))
    assert points != run_sweep(GIFT64, "dxor", sigmas, blocks=2, seed=0, base_params=base)
    # without a base device, the default device's seed, 0
    assert run_sweep(GIFT64, "dxor", sigmas, 1) == run_sweep(GIFT64, "dxor", sigmas, 1, seed=0)


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


def device_file_sweep(device: str, scheme: str, sigmas=SWEEP_GRID, blocks=20) -> dict:
    """`memgift sweep --seed 7 --scheme SCHEME --device-params FILE` on the
    device file tests/data/DEVICE.cfg, with its --sigmas and --blocks."""
    params, schemes = load_device_config(DATA_DIR / f"{device}.cfg")
    return dict(
        variant=GIFT128, scheme=schemes[scheme], sigmas=sigmas, blocks=blocks, seed=7,
        base_params=params,
    )


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
    # the noisy kernel on a wired d2d array, pinned before the flat-row kernel
    "sweep_d2d_wire_sxor": dict(
        variant=GIFT128, scheme="sxor", sigmas=(0.0, 0.1, 0.2), blocks=3, seed=11,
        base_params=DeviceParams(sigma_d2d=0.03, wire_r_per_cell=150.0),
    ),
    # non-default amps, pinned before reads decided on decision points:
    # MISCALIBRATED, and the dual NOR reference at 0.95*vdd
    "sweep_amps_miscalibrated_dxor": device_file_sweep("sweep_amps_miscalibrated", "dxor"),
    "sweep_amps_miscalibrated_sxor": device_file_sweep("sweep_amps_miscalibrated", "sxor"),
    "sweep_amps_vref_nor_dxor": device_file_sweep("sweep_amps_vref_nor", "dxor"),
    # ideal reads of nominal grids that misread the logic, every lane ideal
    # (`--sigmas 0 --blocks 5`): pinned while the word walk read the grid
    **{
        f"sweep_ideal_{name}_{scheme}": device_file_sweep(device, scheme, (0.0,), 5)
        for name, device in (
            ("misreading", "cli_misreading_device"),
            ("amps_miscalibrated", "sweep_amps_miscalibrated"),
        )
        for scheme in ("dxor", "sxor")
    },
    # nominal cells behind 800 and 1200 ohm of wire, whose noisy reads are
    # decided wherever a factor leaves `safe_factor_box`: a narrow box, and
    # an empty one, where every noisy read is decided
    **{
        f"sweep_wire{wire}_{scheme}": device_file_sweep(f"sweep_wire{wire}", scheme)
        for wire in (800, 1200)
        for scheme in ("dxor", "sxor")
    },
}


def test_miscalibrated_device_file_holds_the_miscalibrated_amps(tmp_path):
    path = tmp_path / "amps.cfg"
    path.write_text(MISCALIBRATED)
    assert load_device_config(path) == load_device_config(DATA_DIR / "sweep_amps_miscalibrated.cfg")


@pytest.mark.parametrize("name", sorted(GOLDEN_SWEEPS))
def test_sweep_matches_golden_table(name):
    # The tables in tests/data were written by the per-sigma sweep that
    # predates the batched kernel; a seeded sweep must reproduce them byte
    # for byte.
    case = dict(GOLDEN_SWEEPS[name])
    points = run_sweep(case.pop("variant"), case.pop("scheme"), case.pop("sigmas"),
                       case.pop("blocks"), **case)
    assert format_sweep_table(points) == (DATA_DIR / f"{name}.txt").read_text()
