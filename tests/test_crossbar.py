import itertools
import math
import random
import re
import warnings
from dataclasses import fields, replace
from decimal import Decimal
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from memgift import crossbar
from memgift.crossbar import (
    MAX_BAND_FLOATS,
    ConfigError,
    CrossbarError,
    DeviceParams,
    DualReadoutAmp,
    DualXorAmp,
    DXOR_SCHEME,
    SCHEMES,
    SXOR_SCHEME,
    MarginRecord,
    ScoutingReadoutAmp,
    ScoutingXorAmp,
    SenseAmpScheme,
    check_logic,
    check_margins,
    decide,
    decision_points,
    draw_read_factors,
    PARTNER_ABSENT,
    load_device_config,
    nominal_grid,
    path_conductance,
    program_slice,
    read_round,
    resolve,
    sense_capture,
    sense_margin_report,
    variation_factor,
)
from memgift.energy import load_energy_config
from memgift.gift import GIFT64, GIFT128, GIFT_SBOX, SBoxTable
from memgift.layout import compile_layout, sbox_bit_matrix
from memgift.pipeline import EncryptionSession


# ---------------------------------------------------------------------------
# Scalar oracles: one bit line and one sense at a time, written apart from
# the vectorised read they check.


def nominal_resistance(bit: int, params: DeviceParams) -> float:
    return params.r_lrs if bit else params.r_hrs


def bitline_equivalent_resistance(cell_resistances, wire_r: float = 0.0) -> float:
    """Parallel combination of the selected cells, each with its series
    path resistance."""
    if not cell_resistances:
        raise CrossbarError("no selected cells on a sensed column")
    conductance = 0.0
    for r in cell_resistances:
        branch = r + wire_r
        if branch <= 0:
            raise CrossbarError("non-positive branch resistance")
        if not math.isinf(branch):
            conductance += 1.0 / branch
    if conductance == 0.0:
        return math.inf
    return 1.0 / conductance


class Sensed(NamedTuple):
    bit: int
    nodes: dict  # node name -> volts: divider taps and regenerated decision nodes
    decisions: tuple  # (node name, decided bit) per comparator


def oracle_comparators(sa, r_eq: float, vdd: float) -> list:
    """Each comparator of amp sa at bit-line resistance r_eq, its divider
    stated here per amp class, in the amp's operation order: (node name,
    raw divider voltage, reference)."""
    if isinstance(sa, ScoutingXorAmp):
        return [("v1", vdd * sa.m1 / (sa.m1 + r_eq), sa.vth),
                ("v2", vdd * sa.m2 / (sa.m2 + r_eq), sa.vth)]
    if isinstance(sa, ScoutingReadoutAmp):
        return [("v1", vdd * sa.m1 / (sa.m1 + r_eq), sa.vth)]
    if isinstance(sa, DualXorAmp):
        # the AND branch rises as r_eq falls, the NOR branch as it grows
        return [("x1", vdd * sa.r_and / (sa.r_and + r_eq), sa.vref_and),
                ("x2", vdd * r_eq / (sa.r_nor + r_eq), sa.vref_nor)]
    assert isinstance(sa, DualReadoutAmp)
    return [("v1", vdd * sa.r_ro / (sa.r_ro + r_eq), sa.vref)]


def sense(r_eq: float, sa, vdd: float = 0.9) -> Sensed:
    """Resolve one bit-line resistance with the given amp model, one
    comparator at a time, with plain int bits and float volts: each
    comparator decides on its raw divider voltage, and its decision node is
    the regenerated output clamp(vref + gain*(v - vref), 0, vdd)."""
    if r_eq <= 0:
        raise CrossbarError("non-positive equivalent resistance")
    comparators = oracle_comparators(sa, np.float64(r_eq), vdd)
    decided = [v > ref for _, v, ref in comparators]
    nodes = {f"{name}_divider": float(v) for name, v, _ in comparators}
    for name, v, ref in comparators:
        nodes[name] = float(np.clip(ref + sa.gain * (v - ref), 0.0, vdd))
    decisions = tuple((name, int(d)) for (name, _, _), d in zip(comparators, decided))
    return Sensed(int(sa.gate(*decided)), nodes, decisions)


def scalar_margin_report(scheme, params: DeviceParams) -> list[MarginRecord]:
    """The margin audit one operand combination at a time."""
    records = []

    def audit(amp, name, combos):
        for bits in combos:
            cells = [nominal_resistance(b, params) for b in bits]
            r_eq = bitline_equivalent_resistance(cells, params.wire_r_per_cell)
            result = sense(r_eq, amp, params.vdd)
            for node, decision in result.decisions:
                records.append(MarginRecord(name, bits, node, result.nodes[node], decision))

    audit(scheme.xor_amp, f"{scheme.name}.xor", [(1, 1), (1, 0), (0, 1), (0, 0)])
    audit(scheme.readout_amp, f"{scheme.name}.readout", [(1,), (0,)])
    return records


def make_slice(params=None, key_bits=None, columns=(1, 2), index=0, rng=None):
    """One GIFT S-box slice programmed alone: a one-slice stacked state."""
    params = params or DeviceParams()
    if key_bits is None:
        key_bits = np.zeros((40, len(columns)), dtype=np.uint8)
    rngs = None if rng is None else [rng]
    return program_slice(key_bits, [columns], sbox_bit_matrix(GIFT_SBOX), params, rngs)


def key_res(state, columns=(1, 2)):
    """Key-region resistances of a one-slice state, (rounds, len(columns))."""
    return state.partner_res[:, 0, list(columns)]


def read_one(state, nib, rnd, scheme, factors=None):
    """One read_round read on a one-slice stacked state, whose flat row nib
    is its S-box row nib, factors shape (1, 2, 1, 4): returns the output
    nibble and the read's capture."""
    analog = read_round(state, [[nib]], [rnd], scheme, factors)
    return int(analog.bits[0, 0] @ [1, 2, 4, 8]), analog


# ---------------------------------------------------------------------------
# Programming


def test_all_zero_layout_programs_hrs():
    arr = program_slice(
        np.zeros((40, 2), dtype=np.uint8), [(1, 2)], np.zeros((16, 4), dtype=np.uint8),
        DeviceParams(),
    )
    assert (arr.sb_res == DeviceParams().r_hrs).all()
    assert (key_res(arr) == DeviceParams().r_hrs).all()
    assert arr.cell_count == 16 * 4 + 40 * 2


def test_ideal_programming_is_exact():
    params = DeviceParams(sigma_d2d=0.0)
    arr = make_slice(params)
    lrs = arr.sb_res[arr.sb_bits == 1]
    hrs = arr.sb_res[arr.sb_bits == 0]
    assert (lrs == params.r_lrs).all() and (hrs == params.r_hrs).all()


def test_programming_is_seed_deterministic():
    params = DeviceParams(sigma_d2d=0.05)
    a = make_slice(params, rng=np.random.default_rng(7))
    b = make_slice(params, rng=np.random.default_rng(7))
    assert np.array_equal(a.sb_res, b.sb_res)
    assert np.array_equal(key_res(a), key_res(b))
    assert not np.array_equal(a.sb_res, make_slice(params, rng=np.random.default_rng(8)).sb_res)
    with pytest.raises(CrossbarError):
        make_slice(params)  # d2d variation needs an RNG per slice


def test_d2d_draws_are_clamped():
    params = DeviceParams(sigma_d2d=0.05)
    arr = make_slice(params, rng=np.random.default_rng(9))
    lrs = arr.sb_res[arr.sb_bits == 1]
    assert (lrs >= params.r_lrs * (1 - 4 * 0.05)).all()
    assert (lrs <= params.r_lrs * (1 + 4 * 0.05)).all()


def test_programmed_arrays_are_read_only():
    arr = make_slice()
    with pytest.raises(ValueError):
        arr.sb_res[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        arr.partner_bits[0, 0, 1] = 1


def test_partner_codes_are_computed_once_per_state_and_read_only():
    session = EncryptionSession(random.Random(31).getrandbits(128), GIFT128, "dxor")
    state = session.state
    codes = state.partner_codes
    assert state.partner_codes is codes and not codes.flags.writeable
    with pytest.raises(ValueError):
        codes[0, 0, 0] = 0
    want = state.partner_bits | PARTNER_ABSENT * ~state.xor_mask
    assert np.array_equal(codes, want) and codes.shape == (GIFT128.rounds, GIFT128.nibbles, 4)
    # a state with new S-box cells, as a reprogramming writes it, has its own codes, alike
    session.reprogram_sbox(GIFT_SBOX.inverse())
    assert session.state is not state
    assert session.state.partner_codes is not codes
    assert np.array_equal(session.state.partner_codes, want)


def test_nominal_sbox_region_is_shared_read_only():
    # nominal programmings of one S-box on the same devices share one S-box
    # region; d2d cells draw their own resistances over the shared bits
    key = random.Random(33).getrandbits(128)
    one, other = (EncryptionSession(k, GIFT128, "dxor").state for k in (key, key ^ 1))
    assert one.sb_bits is other.sb_bits and one.sb_res is other.sb_res
    assert not (one.sb_bits.flags.writeable or one.sb_res.flags.writeable)
    assert np.array_equal(one.sb_bits, np.repeat(sbox_bit_matrix(GIFT_SBOX)[None], 32, axis=0))
    lrs = EncryptionSession(key, GIFT128, "dxor", DeviceParams(r_lrs=3e3)).state
    assert lrs.sb_res is not one.sb_res and lrs.sb_res.min() == 3e3
    d2d = EncryptionSession(key, GIFT128, "dxor", DeviceParams(sigma_d2d=0.05)).state
    assert d2d.sb_bits is one.sb_bits and d2d.sb_res is not one.sb_res
    assert np.array_equal(one.sb_res, np.where(one.sb_bits != 0, 2.8e3, 1.0e6))


def test_dimension_mismatch_rejected():
    with pytest.raises(CrossbarError):
        program_slice(
            np.zeros((40, 3), dtype=np.uint8), [(1, 2)], sbox_bit_matrix(GIFT_SBOX), DeviceParams()
        )
    with pytest.raises(CrossbarError):
        program_slice(
            np.zeros((40, 2), dtype=np.uint8), [(1, 2)], np.zeros((8, 4), dtype=np.uint8),
            DeviceParams(),
        )


def program_slices_oracle(key_matrices, sbox_matrix, params, rngs=None):
    """Every slice programmed from its own SliceKeyMatrix, as program_slice
    took them before a layout held its key bits as one array: the regions
    concatenated slice by slice, each slice's normals drawn from its own
    stream, S-box region first."""
    sb_bits = np.asarray(sbox_matrix, dtype=np.uint8)
    widths = [len(km.columns) for km in key_matrices]
    key_bits = [np.asarray(km.bits, dtype=np.uint8) for km in key_matrices]
    rounds, S = key_bits[0].shape[0], len(key_bits)
    sb_bits = np.repeat(sb_bits[None], S, axis=0)
    key_bits = np.concatenate(key_bits, axis=1)
    sb_res = np.where(sb_bits != 0, params.r_lrs, params.r_hrs)
    key_res = np.where(key_bits != 0, params.r_lrs, params.r_hrs)
    if params.sigma_d2d > 0:
        z_sb, z_key = [], []
        for rng, width in zip(rngs, widths, strict=True):
            z_sb.append(rng.standard_normal((16, 4)))
            z_key.append(rng.standard_normal((rounds, width)))
        sb_res = sb_res * variation_factor(params.sigma_d2d, np.stack(z_sb))
        key_res = key_res * variation_factor(params.sigma_d2d, np.concatenate(z_key, axis=1))
    owner = np.repeat(np.arange(S), widths)
    cols = [c for km in key_matrices for c in km.columns]
    partner_bits = np.zeros((rounds, S, 4), dtype=np.uint8)
    partner_res = np.full((rounds, S, 4), np.inf)
    xor_mask = np.zeros((S, 4), dtype=bool)
    partner_bits[:, owner, cols] = key_bits
    partner_res[:, owner, cols] = key_res
    xor_mask[owner, cols] = True
    return crossbar.ProgrammedState(sb_bits, sb_res, partner_bits, partner_res, xor_mask, params)


def as_raw(a):
    """An array's exact contents: floats as their uint64 bit patterns."""
    a = np.ascontiguousarray(a)
    return a.view(np.uint64) if a.dtype == np.float64 else a


def assert_same_cells(state, expected):
    for name in ("sb_bits", "sb_res", "partner_bits", "partner_res", "xor_mask"):
        got, want = getattr(state, name), getattr(expected, name)
        assert got.dtype == want.dtype and np.array_equal(as_raw(got), as_raw(want)), name
    assert state.params == expected.params


@settings(max_examples=40, deadline=None)
@given(
    variant=st.sampled_from([GIFT64, GIFT128]),
    scheme=st.sampled_from(["sxor", "dxor"]),
    key=st.integers(0, (1 << 128) - 1),
    sigma_d2d=st.sampled_from([0.0, 0.05]),
    wire=st.sampled_from([0.0, 150.0]),
    seed=st.integers(0, 2**32 - 1),
    sbox=st.permutations(range(16)).map(SBoxTable),
)
def test_programming_matches_per_slice_oracle(variant, scheme, key, sigma_d2d, wire, seed, sbox):
    params = DeviceParams(sigma_d2d=sigma_d2d, wire_r_per_cell=wire, seed=seed)
    session = EncryptionSession(key, variant, scheme, params)
    bundle = session.bundle
    seeds = np.random.SeedSequence(seed).spawn(variant.nibbles)
    rngs = [np.random.default_rng(s) for s in seeds]
    d2d = rngs if sigma_d2d > 0 else None
    expected = program_slices_oracle(bundle.slices, bundle.sbox_matrix, params, d2d)
    assert_same_cells(session.state, expected)
    # an S-box rewrite draws a whole slice's normals and keeps the S-box ones
    session.reprogram_sbox(sbox)
    written = program_slices_oracle(bundle.slices, sbox_bit_matrix(sbox), params, d2d)
    assert_same_cells(session.state, replace(expected, sb_bits=written.sb_bits, sb_res=written.sb_res))
    # every slice's stream is left where the per-slice writes leave it
    for mine, oracle in zip(session._slice_rngs, rngs, strict=True):
        assert as_raw(mine.standard_normal(1)) == as_raw(oracle.standard_normal(1))


# ---------------------------------------------------------------------------
# Row selection: a read asserts exactly one S-box word line and one key
# word line per slice


# the devices of selection_slice
SELECTION_PARAMS = DeviceParams(sigma_d2d=0.05)


def selection_slice():
    """A slice with d2d variation and random key rows, so every cell's
    resistance differs and a column's r_eq names the cells it selected."""
    rng = np.random.default_rng(11)
    key_bits = rng.integers(0, 2, (40, 3))
    return make_slice(SELECTION_PARAMS, key_bits, (1, 2, 3), rng=rng)


def assert_selects(state, nib, rnd, analog, i=0):
    """Every column of read i of a capture read exactly S-box row nib and
    key row rnd."""
    for col in range(4):
        cells = [state.sb_res[0, nib, col]]
        stored = (state.sb_bits[0, nib, col],)
        captured = (analog.sb_bits[i, 0, col],)
        if analog.xor_mask[0, col]:
            cells.append(state.partner_res[rnd, 0, col])
            stored += (state.partner_bits[rnd, 0, col],)
            captured += (analog.partner_bits[i, 0, col],)
        else:
            assert analog.partner_bits[i, 0, col] == 0
        assert captured == stored
        r_eq = analog.r_eq[i, 0, col]
        assert r_eq == pytest.approx(bitline_equivalent_resistance(cells), rel=1e-12)


def test_decoder_one_hot_exhaustive():
    state = selection_slice()
    seen = set()
    for nib in range(16):
        _, analog = read_one(state, nib, 0, "dxor")
        assert_selects(state, nib, 0, analog)
        seen.add(tuple(analog.r_eq.ravel().tolist()))
    assert len(seen) == 16
    for nib in (16, -1):
        with pytest.raises(CrossbarError):
            read_round(state, [[nib]], [0], "dxor")


def test_round_selector_range():
    state = selection_slice()
    seen = set()
    for rnd in range(40):
        _, analog = read_one(state, 5, rnd, "sxor")
        assert_selects(state, 5, rnd, analog)
        seen.add(tuple(analog.r_eq.ravel().tolist()))
    assert len(seen) == 40
    for rnd in (40, 64, -1):
        with pytest.raises(CrossbarError):
            read_round(state, [[5]], [rnd], "sxor")


def test_select_rows_exhaustive():
    # every row x round pair as the reads of one capture
    state = selection_slice()
    nibs, rnds = np.divmod(np.arange(16 * 40), 40)
    analog = read_round(state, nibs[:, None], rnds, "dxor")
    outs = analog.bits[:, 0] @ [1, 2, 4, 8]
    for i, (nib, rnd) in enumerate(zip(nibs, rnds)):
        assert_selects(state, nib, rnd, analog, i)
        assert outs[i] == GIFT_SBOX[nib] ^ int(state.partner_bits[rnd, 0] @ [1, 2, 4, 8])
    with pytest.raises(CrossbarError):
        read_round(state, [[0]], [40], "dxor")


# ---------------------------------------------------------------------------
# Bit line


def test_two_lrs_parallel():
    assert bitline_equivalent_resistance([2e3, 2e3]) == pytest.approx(1e3)


def test_dominated_parallel():
    r = bitline_equivalent_resistance([2e3, 1e9])
    assert r == pytest.approx(2e3, rel=1e-5)


def test_parallel_table_matches_formula():
    params = DeviceParams()
    for a in (0, 1):
        for b in (0, 1):
            ra, rb = nominal_resistance(a, params), nominal_resistance(b, params)
            expected = ra * rb / (ra + rb)
            assert bitline_equivalent_resistance([ra, rb]) == pytest.approx(expected)


def test_wire_resistance_adds_per_branch():
    assert bitline_equivalent_resistance([2e3, 2e3], wire_r=100.0) == pytest.approx(1050.0)


def test_empty_column_rejected():
    with pytest.raises(CrossbarError):
        bitline_equivalent_resistance([])


@given(
    cells=st.lists(
        st.tuples(st.floats(1.0, 1e12) | st.just(math.inf), st.floats(0.01, 5.0)),
        min_size=1, max_size=8,
    ),
    ideal=st.booleans(),
    wire=st.sampled_from([0.0, 150.0, 20e3]),
)
def test_path_conductance_is_the_scalar_expression(cells, ideal, wire):
    # bit for bit, element by element, also where r and f broadcast
    r, f = (np.array(c) for c in zip(*cells))
    want = [1 / (x + wire) if ideal else 1 / (x * y + wire) for x, y in cells]
    got = path_conductance(r, wire, None if ideal else f)
    assert got.tobytes() == np.array(want).tobytes()
    if not ideal:
        grid = path_conductance(r[:, None], wire, f[None, :])
        assert grid.tolist() == [[1 / (x * y + wire) for _, y in cells] for x, _ in cells]
    # an absent partner, of infinite resistance, conducts nothing
    assert path_conductance(np.array([math.inf]), wire).tolist() == [0.0]


# ---------------------------------------------------------------------------
# Sense amplifiers


@pytest.mark.parametrize("scheme", [SXOR_SCHEME, DXOR_SCHEME], ids=["sxor", "dxor"])
def test_xor_truth_table(scheme):
    params = DeviceParams()
    expected = {(1, 1): 0, (1, 0): 1, (0, 1): 1, (0, 0): 0}
    for bits, want in expected.items():
        r_eq = bitline_equivalent_resistance(
            [nominal_resistance(b, params) for b in bits]
        )
        assert sense(r_eq, scheme.xor_amp, params.vdd).bit == want


@pytest.mark.parametrize("scheme", [SXOR_SCHEME, DXOR_SCHEME], ids=["sxor", "dxor"])
def test_readout_returns_stored_bit(scheme):
    params = DeviceParams()
    for bit in (0, 1):
        r_eq = bitline_equivalent_resistance([nominal_resistance(bit, params)])
        assert sense(r_eq, scheme.readout_amp, params.vdd).bit == bit


def test_dxor_is_nor_of_and_and_nor():
    # Boolean identity: XOR = NOR(AND, NOR) on the comparator outputs
    params = DeviceParams()
    for bits in [(1, 1), (1, 0), (0, 1), (0, 0)]:
        r_eq = bitline_equivalent_resistance(
            [nominal_resistance(b, params) for b in bits]
        )
        res = sense(r_eq, DXOR_SCHEME.xor_amp, params.vdd)
        decisions = dict(res.decisions)
        assert decisions["x1"] == (1 if bits == (1, 1) else 0)
        assert decisions["x2"] == (1 if bits == (0, 0) else 0)
        assert res.bit == int(not (decisions["x1"] or decisions["x2"]))
        assert res.bit == bits[0] ^ bits[1]


@pytest.mark.parametrize("scheme", ["sxor", "dxor"])
def test_decision_node_margins(scheme):
    params = DeviceParams()
    for rec in sense_margin_report(scheme, params):
        if rec.decision:
            assert rec.volts >= 0.6 * params.vdd, rec
        else:
            assert rec.volts <= 0.4 * params.vdd, rec
    assert check_margins(scheme, params) > 0


@pytest.mark.parametrize("scheme", [SXOR_SCHEME, DXOR_SCHEME], ids=["sxor", "dxor"])
def test_sensed_voltage_monotone_single_crossing(scheme):
    params = DeviceParams()
    sweep = np.geomspace(100.0, 5e6, 400)
    for amp in (scheme.xor_amp, scheme.readout_amp):
        names = [n for n, _ in sense(1e3, amp, params.vdd).decisions]
        volts = {n: [] for n in names}
        decisions = {n: [] for n in names}
        for r in sweep:
            res = sense(float(r), amp, params.vdd)
            for n, d in res.decisions:
                volts[n].append(res.nodes[n])
                decisions[n].append(d)
        for n in names:
            diffs = np.diff(volts[n])
            assert (diffs <= 1e-12).all() or (diffs >= -1e-12).all()
            # decision flips at most once across the sweep
            flips = np.count_nonzero(np.diff(decisions[n]))
            assert flips <= 1


@pytest.mark.parametrize("scheme", [SXOR_SCHEME, DXOR_SCHEME], ids=["sxor", "dxor"])
def test_resolve_matches_scalar_sense(scheme):
    # one statement of each amp's maths serves arrays and scalars alike: the
    # bits, and a capture's nodes, with its bit from the amp its mask names
    params = DeviceParams()
    sweep = np.geomspace(100.0, 5e6, 64)
    cells, xor_mask = np.zeros(sweep.shape, dtype=np.uint8), np.arange(sweep.size) % 2 == 0
    captured = sense_capture(scheme, params.vdd, sweep, cells, cells, xor_mask)
    amps = (("xor", scheme.xor_amp, xor_mask), ("readout", scheme.readout_amp, ~xor_mask))
    for kind, amp, wired in amps:
        bits = resolve(amp, sweep, params.vdd)
        assert np.array_equal(captured.bits[wired], bits[wired])
        for i, r in enumerate(sweep):
            res = sense(float(r), amp, params.vdd)
            assert res.bit == bits[i]
            assert res.nodes == {name: v[i] for name, v in captured.nodes[kind].items()}


@pytest.mark.parametrize("scheme", [SXOR_SCHEME, DXOR_SCHEME], ids=["sxor", "dxor"])
@pytest.mark.parametrize("wire", [0.0, 150.0, 20e3])
def test_nominal_reads_sense_every_cell_pairing(scheme, wire):
    # one sense per (S-box cell, partner or none), by the amp wired to it,
    # as the scalar oracle senses it
    params = DeviceParams(wire_r_per_cell=wire)
    grid = nominal_grid(params, scheme).bits.reshape(2, 3)
    assert grid.dtype == bool
    for s in (0, 1):
        for p in (0, 1, PARTNER_ABSENT):
            cells = [nominal_resistance(s, params)]
            amp = scheme.readout_amp
            if p != PARTNER_ABSENT:
                cells.append(nominal_resistance(p, params))
                amp = scheme.xor_amp
            r_eq = bitline_equivalent_resistance(cells, wire)
            assert grid[s, p] == sense(r_eq, amp, params.vdd).bit
    # within margins, the XOR amp senses s ^ p and the read-out amp s
    digital = [[s, s ^ 1, s] for s in (0, 1)]
    assert (grid.tolist() == digital) == (wire < 20e3)


def margin_cases(tmp_path):
    """Every nominal read grid of the margin audit's cases: each scheme,
    with default amps and with amps from a parameter file, at two supplies,
    three wire resistances and two LRS and HRS values each."""
    cfg = tmp_path / "amps.cfg"
    cfg.write_text("sxor.vth = 0.25\ndxor.vref_and = 0.3\n")
    for schemes in (SCHEMES, load_device_config(cfg)[1]):
        for scheme in schemes.values():
            for vdd, wire, r_lrs, r_hrs in itertools.product(
                (0.9, 1.2), (0.0, 150.0, 20e3), (2.8e3, 3e3), (1e6, 2e6)
            ):
                yield scheme, DeviceParams(r_lrs=r_lrs, r_hrs=r_hrs, wire_r_per_cell=wire, vdd=vdd)


def test_margin_report_equals_scalar_oracle(tmp_path):
    cases = 0
    for scheme, params in margin_cases(tmp_path):
        records = sense_margin_report(scheme, params)
        expected = scalar_margin_report(scheme, params)
        assert records == expected, (scheme, params)
        # volts bit for bit: == would let -0.0 pass for 0.0
        assert [r.volts.hex() for r in records] == [r.volts.hex() for r in expected]
        hi, lo = 0.6 * params.vdd, 0.4 * params.vdd
        slacks = [r.volts - hi if r.decision else lo - r.volts for r in expected]
        if min(slacks) < 0:
            with pytest.raises(CrossbarError, match="margin violation"):
                check_margins(scheme, params)
        elif scalar_misreads(scheme, params):
            with pytest.raises(CrossbarError, match="logic violation"):
                check_margins(scheme, params)
        else:
            assert check_margins(scheme, params) == min(slacks)
        # the logic half alone, which the CLI checks before encrypting
        if scalar_misreads(scheme, params):
            with pytest.raises(CrossbarError, match="logic violation"):
                check_logic(scheme, params)
        else:
            check_logic(scheme, params)
        cases += 1
    assert cases == 96


def scalar_misreads(scheme, params: DeviceParams) -> list:
    """The operand pairings whose scalar sense is not their logic value,
    the XOR of their bits."""
    pairings = [(scheme.xor_amp, bits) for bits in [(1, 1), (1, 0), (0, 1), (0, 0)]]
    pairings += [(scheme.readout_amp, bits) for bits in [(1,), (0,)]]
    misreads = []
    for amp, bits in pairings:
        cells = [nominal_resistance(b, params) for b in bits]
        r_eq = bitline_equivalent_resistance(cells, params.wire_r_per_cell)
        if sense(r_eq, amp, params.vdd).bit != sum(bits) % 2:
            misreads.append(bits)
    return misreads


@pytest.mark.parametrize("scheme", ["sxor", "dxor"])
def test_margin_audit_rejects_wrong_logic(scheme):
    # From 1625 Ohm of wire up the nodes clear the band again, but XOR(1, 1)
    # reads 1: the audit used to pass these devices with a slack of 0.001-0.36 V
    for wire in (1625.0, 5000.0, 20e3):
        params = DeviceParams(wire_r_per_cell=wire)
        assert nominal_grid(params, scheme).bits.reshape(2, 3)[1, 1]
        with pytest.raises(CrossbarError, match=r"logic violation: \w+\.xor .* \(1, 1\)"):
            check_margins(scheme, params)
    # the devices that read the logic keep their slack
    for wire, slack in ((0.0, 0.20755285500249687), (150.0, 0.18194244604316534),
                        (800.0, 0.004736842105262928)):
        assert check_margins(scheme, DeviceParams(wire_r_per_cell=wire)) == pytest.approx(slack)


@pytest.mark.parametrize(
    "audit",
    [
        lambda params: nominal_grid(params, "dxor"),
        lambda params: sense_margin_report("dxor", params),
        lambda params: check_logic("dxor", params),
        lambda params: check_margins("dxor", params),
    ],
    ids=["nominal_grid", "sense_margin_report", "check_logic", "check_margins"],
)
@pytest.mark.parametrize("params", [None, 3, {"vdd": 0.9}], ids=["None", "int", "dict"])
def test_nominal_audits_take_only_device_params(audit, params):
    # each raised a bare AttributeError ('vdd' or 'r_lrs')
    with pytest.raises(CrossbarError, match=r"^params must be a DeviceParams, got "):
        audit(params)


@pytest.mark.parametrize(
    "audit",
    [
        sense_margin_report, check_margins, check_logic,
        lambda scheme, params: nominal_grid(params, scheme),
    ],
    ids=["sense_margin_report", "check_margins", "check_logic", "nominal_grid"],
)
def test_margin_audit_checks_the_amps_before_sensing(audit):
    # an amp field the scheme's check refuses is never used in a divider;
    # check_logic and nominal_grid raised a bare TypeError from a str, and
    # from a list, which the grid's cache cannot hash
    for r_and in ("2e3", [1]):
        scheme = SenseAmpScheme("dxor", DualXorAmp(r_and=r_and), DualReadoutAmp())
        with pytest.raises(CrossbarError, match=r"^dxor: r_and must be finite and positive"):
            audit(scheme, DeviceParams())


@pytest.mark.parametrize(
    "audit",
    [check_logic, lambda scheme, params: nominal_grid(params, scheme)],
    ids=["check_logic", "nominal_grid"],
)
def test_a_cached_grid_does_not_pass_an_equal_scheme_unchecked(audit):
    # Decimal(2000) == 2000.0, of the same hash, so the refused scheme is
    # equal to the default one: once the default grid was cached, the grid's
    # cache returned it unchecked, where the first call raised
    scheme = SenseAmpScheme("dxor", DualXorAmp(r_and=Decimal(2000)), DualReadoutAmp())
    assert scheme == DXOR_SCHEME
    nominal_grid(DeviceParams(), DXOR_SCHEME)
    check_logic(DXOR_SCHEME, DeviceParams())
    for _ in range(2):
        with pytest.raises(CrossbarError, match=r"^dxor: r_and must be finite and positive"):
            audit(scheme, DeviceParams())


def test_margin_audit_decides_what_the_read_table_gathers(tmp_path):
    # the amp's gate over the audit's recorded decisions of a pairing is the
    # nominal grid's bit a session's read table gathers for it
    for scheme, params in margin_cases(tmp_path):
        grid = nominal_grid(params, scheme).bits.reshape(2, 3)
        decisions = {}
        for rec in sense_margin_report(scheme, params):
            decisions.setdefault((rec.amp, rec.operands), []).append(np.bool_(rec.decision))
        assert len(decisions) == 6
        for (name, bits), decided in decisions.items():
            amp = scheme.xor_amp if name.endswith(".xor") else scheme.readout_amp
            s, p = bits if len(bits) == 2 else (bits[0], PARTNER_ABSENT)
            assert amp.gate(*decided) == grid[s, p], (name, bits, params)


def test_nominal_grid_is_captured_once_and_read_only():
    # one grid per (r_lrs, r_hrs, wire, vdd, scheme): seeds and sigmas,
    # which a nominal read never meets, share it
    params = DeviceParams(wire_r_per_cell=150.0)
    grid = nominal_grid(params, "dxor")
    assert nominal_grid(replace(params, seed=9, sigma_c2c=0.1), DXOR_SCHEME) is grid
    assert nominal_grid(replace(params, vdd=1.2), "dxor") is not grid
    assert nominal_grid(params, "sxor") is not grid
    assert grid.pairing is None and grid.grid is None
    arrays = [grid.bits, grid.r_eq, grid.sb_bits, grid.partner_bits, grid.xor_mask]
    arrays += [grid.bits.reshape(2, 3)[0]]
    arrays += [v for nodes in grid.nodes.values() for v in nodes.values()]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = a[1]
    with pytest.raises(TypeError):
        grid.nodes["xor"]["x1"] = grid.r_eq


@pytest.mark.parametrize("scheme", [SXOR_SCHEME, DXOR_SCHEME], ids=["sxor", "dxor"])
def test_nominal_grid_captures_each_pairing_as_the_scalar_oracle(scheme):
    # entry 3*s + p: both amps sense the pairing's bit line, the wired one's
    # bit counts, and the margin report decides it as the scalar oracle does
    params = DeviceParams(wire_r_per_cell=150.0)
    grid = nominal_grid(params, scheme)
    decisions = {}
    for rec in sense_margin_report(scheme, params):
        decisions.setdefault((rec.amp, rec.operands), []).append((rec.node, rec.decision))
    for s, p in itertools.product((0, 1), (0, 1, PARTNER_ABSENT)):
        k = 3 * s + p
        cells = [nominal_resistance(s, params)]
        if p != PARTNER_ABSENT:
            cells.append(nominal_resistance(p, params))
        r_eq = bitline_equivalent_resistance(cells, params.wire_r_per_cell)
        assert grid.r_eq[k] == r_eq
        assert (grid.sb_bits[k], grid.partner_bits[k]) == (s, p % PARTNER_ABSENT)
        assert grid.xor_mask[k] == (p != PARTNER_ABSENT)
        for kind, amp in (("xor", scheme.xor_amp), ("readout", scheme.readout_amp)):
            result = sense(r_eq, amp, params.vdd)
            assert {n: v[k] for n, v in grid.nodes[kind].items()} == result.nodes
            if (kind == "xor") == (p != PARTNER_ABSENT):
                assert grid.bits[k] == result.bit
                operands = (s, p) if kind == "xor" else (s,)
                assert decisions.pop((f"{scheme.name}.{kind}", operands)) == list(result.decisions)
    assert decisions == {}


def test_nominal_reads_do_not_sense_again(monkeypatch):
    # the grid is sensed once; the read table, the capture and the audit
    # of a fresh session all take it from there
    params = DeviceParams(wire_r_per_cell=75.0)
    want = sense_margin_report("sxor", params)

    def sensed_again(*args, **kwargs):
        raise AssertionError("the nominal grid was sensed again")

    monkeypatch.setattr(crossbar, "resolve", sensed_again)
    monkeypatch.setattr(crossbar, "sense_capture", sensed_again)
    session = EncryptionSession(0x77, GIFT64, "sxor", params)
    ct, traces = session.encrypt(0x1234, trace=True)
    assert traces[0].analog.pairing is not None
    assert sense_margin_report("sxor", params) == want
    check_margins("sxor", params)


def test_read_round_senses_varied_cells():
    # d2d cells are sensed from the cells, whose devices the state holds;
    # as nominal cells they would read r_eq 5e5, 5e5, 2800, 2800 on slice 0
    params = DeviceParams(sigma_d2d=0.05, seed=2)
    session = EncryptionSession(0, GIFT64, "dxor", params)
    at = np.arange(GIFT64.nibbles)[None] * 16 + 3
    capture = read_round(session.state, at, [0], "dxor")
    assert capture.pairing is None and capture.grid is None
    cells = 1 / (1 / session.state.sb_res[0, 3] + 1 / session.state.partner_res[0, 0])
    assert np.array_equal(capture.r_eq[0, 0], cells)
    assert np.allclose(cells, [514887.4, 469744.3, 2788.054, 2752.503])
    # a rewrite of the S-box cells varies them as well, and keeps the devices
    session.reprogram_sbox(GIFT_SBOX)
    assert session.state.params is params and not session.state.nominal
    capture = read_round(session.state, at, [0], "dxor")
    assert capture.pairing is None
    cells = 1 / (1 / session.state.sb_res[0, 3] + 1 / session.state.partner_res[0, 0])
    assert np.array_equal(capture.r_eq[0, 0], cells)


def assert_same_arrays(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(f"u{got.itemsize}"), want.view(f"u{want.itemsize}"))


# device values over many decades; DeviceParams rejects those no read can take
decades = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


@settings(max_examples=60, deadline=None)
@given(
    variant=st.sampled_from([GIFT64, GIFT128]),
    scheme=st.sampled_from(["sxor", "dxor"]),
    r_lrs=st.one_of(st.just(2.8e3), decades),
    hrs_ratio=st.one_of(st.just(1e6 / 2.8e3), st.floats(0.0, 12.0).map(lambda e: 10.0**e)),
    wire=st.one_of(st.sampled_from([0.0, 150.0]), decades),
    vdd=st.one_of(st.just(0.9), st.floats(-6.0, 6.0).map(lambda e: 10.0**e)),
    key=st.integers(0, (1 << 128) - 1),
    data=st.data(),
)
def test_gathered_capture_is_the_capture_sensed_at_unit_factors(
    variant, scheme, r_lrs, hrs_ratio, wire, vdd, key, data
):
    # A nominal state's ideal capture, gathered from the grid of its own
    # devices, is the capture sensed from its cells with unit factors.  The
    # grid is captured only for amps their scheme's check admits at vdd.
    try:
        params = DeviceParams(r_lrs=r_lrs, r_hrs=r_lrs * hrs_ratio, wire_r_per_cell=wire, vdd=vdd)
    except CrossbarError:
        assume(False)
    bundle = compile_layout(key, variant)
    state = program_slice(bundle.key_bits, bundle.columns, bundle.sbox_matrix, params)
    reads, slices = 8, variant.nibbles
    rows = data.draw(st.lists(st.integers(0, 15), min_size=reads * slices, max_size=reads * slices))
    at = np.reshape(rows, (reads, slices)) + 16 * np.arange(slices)
    rnds = np.array(data.draw(st.lists(st.integers(0, variant.rounds - 1), min_size=reads,
                                       max_size=reads)))
    try:
        SCHEMES[scheme].validate(vdd)
    except CrossbarError as exc:
        with pytest.raises(CrossbarError, match=re.escape(str(exc))):
            read_round(state, at, rnds, scheme)
        return
    gathered = read_round(state, at, rnds, scheme)
    sensed = read_round(state, at, rnds, scheme, np.ones((reads, 2, slices, 4)))
    assert gathered.grid is nominal_grid(params, scheme) and sensed.grid is None
    for name in ("bits", "r_eq", "sb_bits", "partner_bits"):
        assert_same_arrays(getattr(gathered, name), getattr(sensed, name))
    assert list(gathered.nodes) == list(sensed.nodes)
    for kind, nodes in sensed.nodes.items():
        assert list(gathered.nodes[kind]) == list(nodes)
        for name, v in nodes.items():
            assert_same_arrays(gathered.nodes[kind][name], v)


def test_sense_rejects_bad_resistance():
    with pytest.raises(CrossbarError):
        sense(0.0, SXOR_SCHEME.xor_amp)
    with pytest.raises(CrossbarError):
        sense(-5.0, DXOR_SCHEME.readout_amp)


def test_variation_factor_clamps():
    assert variation_factor(0.1, 10.0) == pytest.approx(1.4)
    assert variation_factor(0.1, -10.0) == pytest.approx(0.6)
    assert variation_factor(0.5, -10.0) == pytest.approx(0.01)  # floor
    # a scalar in is a scalar out; arrays broadcast against the sigmas
    assert np.ndim(variation_factor(0.1, 10.0)) == 0
    assert variation_factor(np.array([[0.1], [0.2]]), np.zeros(3)).shape == (2, 3)


def oracle_draw_read_factors(sigmas, rngs, reads):
    """The factor draw as it was first written: every slice's normals
    stacked, then clamped, scaled and floored as one expression."""
    z = np.stack([rng.standard_normal((reads, 2, 4)) for rng in rngs], axis=2)[:, :, None]
    z = np.clip(z, -4.0, 4.0)
    return np.maximum(1.0 + np.asarray(sigmas, dtype=float).reshape(-1, 1, 1) * z, 0.01)


@settings(max_examples=60, deadline=None)
@given(
    sigmas=st.lists(st.sampled_from([0.0, 0.02, 0.1, 0.3, 1.0]) | st.floats(0, 2), min_size=1,
                    max_size=8),
    reads=st.integers(1, 45),
    slices=st.integers(1, 33),
    seed=st.integers(0, 2**32),
)
def test_draw_read_factors_matches_stacked_oracle(sigmas, reads, slices, seed):
    # bit for bit, and every generator is left where the oracle leaves it
    streams = [np.random.SeedSequence(seed).spawn(slices) for _ in range(2)]
    got_rngs, want_rngs = ([np.random.default_rng(s) for s in seq] for seq in streams)
    got = draw_read_factors(sigmas, got_rngs, reads)
    want = oracle_draw_read_factors(sigmas, want_rngs, reads)
    assert got.shape == want.shape == (reads, 2, len(sigmas), slices, 4)
    assert got.tobytes() == want.tobytes()
    assert [r.standard_normal() for r in got_rngs] == [r.standard_normal() for r in want_rngs]


# ---------------------------------------------------------------------------
# Decision points: the sense of an uncaptured read


AMP_CLASSES = (ScoutingXorAmp, ScoutingReadoutAmp, DualXorAmp, DualReadoutAmp)
REFERENCES = ("vth", "vref", "vref_and", "vref_nor")


def float_steps(g, steps):
    """The floats `steps` (an int array) ulps from the positive float g."""
    return (np.float64(g).view(np.int64) + np.asarray(steps)).view(np.float64)


@st.composite
def amps_in_domains(draw):
    """An amp of any class with fields that validate admits, a vdd, and the
    conductance domain of a device whose cells its branches can sense."""
    vdd = draw(st.floats(0.05, 20.0))
    r_lrs = 10 ** draw(st.floats(2.0, 4.0))
    decades = draw(st.floats(0.5, 6.0))  # from r_lrs to r_hrs
    params = DeviceParams(
        r_lrs=r_lrs, r_hrs=r_lrs * 10**decades, vdd=vdd,
        wire_r_per_cell=draw(st.sampled_from([0.0, 150.0])),
        sigma_d2d=draw(st.sampled_from([0.0, 0.05])), sigma_c2c=draw(st.floats(0.0, 0.3)),
    )
    cls = draw(st.sampled_from(AMP_CLASSES))
    values = {}
    for f in fields(cls):
        if f.name in REFERENCES:
            # across (0, vdd), and near vdd, where the decision band is widest
            near_vdd = st.floats(-5.5, -2.0).map(lambda e: 1 - 10**e)
            values[f.name] = vdd * draw(st.floats(0.01, 0.99) | near_vdd)
        else:
            # branch resistances and gain, around the cells' resistances
            values[f.name] = r_lrs * 10 ** draw(st.floats(-1.0, decades))
    amp = cls(**values)
    try:
        SenseAmpScheme("any", amp, amp).validate(vdd)
    except CrossbarError:
        assume(False)
    return amp, vdd, params.conductance_range()


@settings(max_examples=150, deadline=None)
@given(case=amps_in_domains(), data=st.data())
def test_decision_points_decide_as_resolve(case, data):
    amp, vdd, (lo, hi) = case
    points = decision_points(amp, vdd, (lo, hi))
    finite = points[np.isfinite(points)]
    assert not points.flags.writeable
    assert np.all(np.diff(points) > 0) and np.all((finite >= lo) & (finite < hi))
    assert np.all(points[~np.isfinite(points)] == -np.inf)
    # at every point and 1..64 ulps either side, the domain's ends, random g
    g = [float_steps(p, np.arange(-64, 65)) for p in finite]
    g.append(float_steps(lo, np.arange(65)))
    g.append(float_steps(hi, -np.arange(65)))
    g.append(np.exp(data.draw(st.lists(st.floats(np.log(lo), np.log(hi)), min_size=200,
                                       max_size=200))))
    g = np.clip(np.concatenate(g), lo, hi)
    assert np.array_equal(decide(g, points), resolve(amp, 1.0 / g, vdd))


# Dual XOR amps whose NOR branch, vdd*r/(m + r), is not monotone at the last
# ulp: its decision flips back and forth near the switch, so one threshold
# per comparator misreads there.  (vdd, amp, changes of the bit there and
# the ulps they span.)
NON_MONOTONE_NOR = [
    (0.7818778273645421, DualXorAmp(
        vref_and=0.17272760496539477, vref_nor=0.5021991393515467,
        r_and=26011.44622411205, r_nor=778059.1574150177,
    ), 3, 3),
    (1.4901185849563507, DualXorAmp(
        vref_and=1.3078700973092674, vref_nor=1.4874484798753431,
        r_and=72593.881583947, r_nor=100575.1190271038,
    ), 239, 480),
]


@pytest.mark.parametrize("vdd, amp, changes, span", NON_MONOTONE_NOR, ids=["3-changes", "239-changes"])
def test_decision_points_follow_a_non_monotone_comparator(vdd, amp, changes, span):
    SenseAmpScheme("dxor", amp, DualReadoutAmp()).validate(vdd)
    # an HRS of 1 GOhm puts the NOR switch inside the domain
    domain = DeviceParams(vdd=vdd, r_hrs=1e9).conductance_range()
    points = decision_points(amp, vdd, domain)
    # the NOR switch is the lower cluster, the AND switch one clean step
    nor = points[np.isfinite(points)][:-1]
    assert len(nor) == changes
    first, last = nor[[0, -1]].view(np.int64)
    assert last - first == span
    g = float_steps(nor[0], np.arange(-3000, 3000))
    want = resolve(amp, 1.0 / g, vdd)
    assert np.array_equal(decide(g, points), want)
    # one threshold per comparator, at its first change, misreads
    one_step = np.concatenate([points[:2], points[-1:]])
    assert not np.array_equal(decide(g, one_step), want)


@pytest.mark.parametrize("scheme", ["sxor", "dxor"])
def test_default_amps_decide_on_clean_steps(scheme):
    # the XOR amp's bit rises then falls, the read-out amp's rises once;
    # derived once per amp, vdd and domain
    params = DeviceParams(sigma_c2c=0.12)
    domain = params.conductance_range()
    xor, readout = SCHEMES[scheme].xor_amp, SCHEMES[scheme].readout_amp
    assert len(decision_points(xor, params.vdd, domain)) == 2
    assert len(decision_points(readout, params.vdd, domain)) == 1
    hits = decision_points.cache_info().hits
    assert decision_points(xor, params.vdd, domain) is decision_points(xor, params.vdd, domain)
    assert decision_points.cache_info().hits == hits + 2


def test_reference_with_too_wide_a_decision_band_rejected(tmp_path):
    # within (0, vdd), but so close to vdd that rounding decides over more
    # than 2^20 floats of g
    vdd = 0.9
    for gap, ok in ((1e-4, True), (1e-7, False)):
        scheme = SenseAmpScheme("dxor", DualXorAmp(vref_nor=vdd * (1 - gap)), DualReadoutAmp())
        if ok:
            scheme.validate(vdd)
        else:
            with pytest.raises(CrossbarError, match="2\\^20 floats"):
                scheme.validate(vdd)
    assert MAX_BAND_FLOATS == 2**20
    cfg = tmp_path / "params.cfg"
    cfg.write_text(f"ro_s.vth = {vdd * (1 - 1e-7)}\n")
    with pytest.raises(ConfigError, match="decision band"):
        load_device_config(cfg)


def branch_thresholds(amp, vdd):
    """Each branch's reference and closed-form threshold conductance."""
    return [
        (getattr(amp, ref), crossbar.divider_threshold(side, getattr(amp, m), getattr(amp, ref), vdd))
        for _, side, m, ref in amp.branches
    ]


@settings(max_examples=150, deadline=None)
@given(case=amps_in_domains())
def test_decision_points_lie_in_a_band_around_a_closed_form_threshold(case):
    amp, vdd, domain = case
    points = decision_points(amp, vdd, domain)
    thresholds = branch_thresholds(amp, vdd)
    for p in points[np.isfinite(points)].view(np.int64).tolist():
        assert any(
            abs(p - np.float64(t).view(np.int64)) <= crossbar._band_floats(ref, vdd)
            for ref, t in thresholds
        ), (p, thresholds)


@pytest.mark.parametrize("amp", [
    ScoutingXorAmp(m1=5e-324, m2=1e308),
    ScoutingReadoutAmp(m1=5e-324),
    DualXorAmp(r_and=5e-324, r_nor=1e308),
    DualXorAmp(r_and=1e308, r_nor=5e-324),
    DualReadoutAmp(r_ro=1e308),
], ids=["sxor", "ro_s", "dxor", "dxor-swapped", "ro_d"])
def test_extreme_branch_resistances_derive_their_points(amp):
    # thresholds that underflow to 0 or overflow past the largest float lie
    # outside every domain: no error, no warning, and the bit is resolve's
    vdd, domain = 0.9, DeviceParams(sigma_c2c=0.12).conductance_range()
    SenseAmpScheme("any", amp, amp).validate(vdd)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        thresholds = branch_thresholds(amp, vdd)
        points = decision_points(amp, vdd, domain)
        lo, hi = domain
        g = np.concatenate([float_steps(lo, np.arange(65)), float_steps(hi, -np.arange(65)),
                            np.geomspace(lo, hi, 1000)])
        assert np.array_equal(decide(g, points), resolve(amp, 1.0 / g, vdd))
    assert all(not lo <= t <= hi for _, t in thresholds)
    assert len(points) <= 1


# ---------------------------------------------------------------------------
# Round reads


@pytest.mark.parametrize("scheme", ["sxor", "dxor"])
def test_zero_key_rows_read_back_sbox(scheme):
    arr = make_slice()
    for nib in range(16):
        out, analog = read_one(arr, nib, 0, scheme)
        assert out == GIFT_SBOX[nib]
        assert analog.r_eq.shape == analog.bits.shape == (1, 1, 4)
        assert set(analog.xor_mask[0].tolist()) == {True, False}


@pytest.mark.parametrize("scheme", ["sxor", "dxor"])
def test_all_ones_key_row_flips_rc_slice_columns(scheme):
    key_bits = np.ones((40, 3), dtype=np.uint8)
    arr = make_slice(key_bits=key_bits, columns=(1, 2, 3))
    for nib in range(16):
        out, _ = read_one(arr, nib, 5, scheme)
        assert out == GIFT_SBOX[nib] ^ 0b1110  # bits 1, 2 and 3 flipped


@pytest.mark.parametrize("scheme", ["sxor", "dxor"])
def test_full_sweep_matches_digital_oracle(scheme):
    rng = random.Random(21)
    key = rng.getrandbits(128)
    bundle = compile_layout(key, GIFT128)
    params = DeviceParams()
    for j in (0, 3, 28):  # plain slice and both RC slice kinds
        km = bundle.slices[j]
        arr = program_slice(km.bits, [km.columns], bundle.sbox_matrix, params)
        for nib in range(16):
            for rnd in range(40):
                out, _ = read_one(arr, nib, rnd, scheme)
                expected = GIFT_SBOX[nib]
                for k, b in enumerate(km.columns):
                    expected ^= int(km.bits[rnd, k]) << b
                assert out == expected


def test_reads_do_not_disturb_cells():
    state = make_slice()
    before = (state.sb_bits.copy(), state.partner_bits.copy(), state.sb_res.copy())
    fp = state.fingerprint()
    for nib in range(16):
        read_round(state, [[nib]], [nib % 40], "sxor")
    assert state.fingerprint() == fp
    assert np.array_equal(state.sb_bits, before[0])
    assert np.array_equal(state.partner_bits, before[1])
    assert np.array_equal(state.sb_res, before[2])
    with pytest.raises(ValueError):
        state.sb_res[0, 0, 0] = 1.0


def test_read_round_rejects_bad_selection():
    state = make_slice()
    for rows, rnds in (
        ([[3]], [40]), ([[3]], [-1]), ([[16]], [0]), ([[-1]], [0]), ([[1, 2]], [0]),
        ([3], [0]), ([[3], [4]], [0]), ([[3]], 0), ([[3]], [[0]]),
        ([[3.5]], [0]), ([[3]], [0.5]), ([[3]], [True]),
    ):
        with pytest.raises(CrossbarError):
            read_round(state, rows, rnds, "dxor")
    # (R, S, 2, 4), the layout before factors took draw_read_factors' (R, 2, S, 4)
    for shape in ((1, 2, 4), (1, 1, 2, 4), (2, 2, 1, 4)):
        with pytest.raises(CrossbarError):
            read_round(state, [[3]], [0], "dxor", np.ones(shape))
    # flat rows: slice j reads rows 16*j .. 16*j + 15, and only those
    session = EncryptionSession(0, GIFT64, "dxor")
    at = np.arange(GIFT64.nibbles)[None] * 16 + 5
    read_round(session.state, at, [0], "dxor")
    for j, row in ((0, 16), (1, 5), (1, 32), (15, 239)):
        bad = at.copy()
        bad[0, j] = row
        with pytest.raises(CrossbarError, match="flat S-box row"):
            read_round(session.state, bad, [0], "dxor")


def test_noisy_read_requires_rng_and_is_deterministic():
    params = DeviceParams(sigma_c2c=0.05)
    arr = make_slice()
    with pytest.raises(CrossbarError):
        draw_read_factors((params.sigma_c2c,), None)

    def noisy_read(seed):
        factors = draw_read_factors((params.sigma_c2c,), [np.random.default_rng(seed)])[:, :, 0]
        return read_one(arr, 3, 0, "sxor", factors)

    a, b = noisy_read(5), noisy_read(5)
    assert a[1].r_eq.tolist() == b[1].r_eq.tolist()
    assert a[1].r_eq.tolist() != read_one(arr, 3, 0, "sxor")[1].r_eq.tolist()


# ---------------------------------------------------------------------------
# Parameter files


def test_device_config_round_trip(tmp_path):
    cfg = tmp_path / "params.cfg"
    cfg.write_text(
        """
# device corner
r_lrs = 3000
r_hrs = 2e6
sigma_c2c = 0.02
seed = 99
sxor.m1 = 2500
ro_d.vref = 0.40
"""
    )
    params, schemes = load_device_config(cfg)
    assert params.r_lrs == 3000 and params.r_hrs == 2e6
    assert params.sigma_c2c == 0.02 and params.seed == 99
    assert schemes["sxor"].xor_amp.m1 == 2500
    assert schemes["dxor"].readout_amp.vref == 0.40
    # untouched values keep their defaults
    assert schemes["sxor"].xor_amp.m2 == 250e3


def test_device_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("r_lrs = 3000\nbogus = 1\n")
    with pytest.raises(ConfigError, match="unknown device parameter 'bogus'"):
        load_device_config(cfg)
    cfg.write_text("sxor.bogus = 1\n")
    with pytest.raises(ConfigError, match="unknown sxor parameter 'bogus'"):
        load_device_config(cfg)
    cfg.write_text("warp.m1 = 1\n")
    with pytest.raises(ConfigError, match="unknown parameter section 'warp'"):
        load_device_config(cfg)


def test_device_config_rejects_bad_value(tmp_path):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("r_lrs = fast\n")
    with pytest.raises(ConfigError, match="invalid value 'fast'"):
        load_device_config(cfg)
    cfg.write_text("sxor.vth = 5.0\n")  # above vdd
    with pytest.raises(ConfigError):
        load_device_config(cfg)


def test_invalid_device_params():
    with pytest.raises(CrossbarError):
        DeviceParams(r_lrs=10.0, r_hrs=5.0)
    with pytest.raises(CrossbarError):
        DeviceParams(sigma_c2c=-0.1)
    with pytest.raises(CrossbarError, match="seed must be non-negative"):
        DeviceParams(seed=-1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "name", ["r_lrs", "r_hrs", "wire_r_per_cell", "sigma_d2d", "sigma_c2c", "vdd"]
)
def test_non_finite_device_params_rejected(tmp_path, name, value):
    # nan > 0 is false, so a NaN sigma would otherwise run as ideal
    with pytest.raises(CrossbarError, match="finite"):
        DeviceParams(**{name: value})
    cfg = tmp_path / "params.cfg"
    cfg.write_text(f"{name} = {value}\n")
    with pytest.raises(ConfigError, match="finite"):
        load_device_config(cfg)


@pytest.mark.parametrize("name", ["sxor.m2", "ro_s.gain", "dxor.r_nor", "ro_d.r_ro"])
def test_non_finite_amp_params_rejected(tmp_path, name):
    # `value <= 0` is false for NaN, so a NaN branch resistance ran silently
    cfg = tmp_path / "params.cfg"
    for value in ("nan", "inf"):
        cfg.write_text(f"{name} = {value}\n")
        with pytest.raises(ConfigError, match="must be finite and positive"):
            load_device_config(cfg)


@pytest.mark.parametrize(
    "values",
    [{"sigma_c2c": 1e308}, {"sigma_d2d": 1e308}, {"sigma_d2d": 1e154, "sigma_c2c": 1e154}],
)
def test_variation_sigmas_bounded_together(tmp_path, values):
    # A read of an HRS cell at the top of both clamps overflowed into NaN
    # nodes; 1e154 passes a bound on each sigma alone, not on their product.
    with pytest.raises(CrossbarError, match="largest read resistance"):
        DeviceParams(**values)
    cfg = tmp_path / "params.cfg"
    cfg.write_text("".join(f"{name} = {value}\n" for name, value in values.items()))
    with pytest.raises(ConfigError, match="largest read resistance"):
        load_device_config(cfg)


@pytest.mark.parametrize(
    "values",
    [
        {"r_lrs": 1e-320},  # a subnormal: 1/r overflows
        {"r_lrs": 1e-308},  # 1/r is finite, two such cells in parallel are not
        {"r_lrs": 1e-306, "sigma_c2c": 0.25},  # at the 0.01 floor of the clamp
        {"r_lrs": 1e-306, "sigma_d2d": 0.3, "sigma_c2c": 0.3},
        {"r_lrs": 1e-320, "wire_r_per_cell": 1e-320},
    ],
)
def test_smallest_read_resistance_has_a_finite_conductance(tmp_path, values):
    # r_lrs = 1e-320 passed `r_lrs > 0`, and every read then overflowed into
    # a wrong ciphertext with three RuntimeWarnings
    with pytest.raises(CrossbarError, match="smallest read resistance"):
        DeviceParams(**values)
    cfg = tmp_path / "params.cfg"
    cfg.write_text("".join(f"{name} = {value}\n" for name, value in values.items()))
    with pytest.raises(ConfigError, match="smallest read resistance"):
        load_device_config(cfg)


@settings(max_examples=40)
@given(
    exponent=st.floats(-324.0, -290.0),
    sigma_d2d=st.sampled_from([0.0, 0.1, 0.3]),
    sigma_c2c=st.sampled_from([0.0, 0.1, 0.3]),
    wire=st.sampled_from([0.0, 1e-320, 1e-300]),
    scheme=st.sampled_from(["sxor", "dxor"]),
)
def test_reads_near_the_resistance_floor_stay_finite(exponent, sigma_d2d, sigma_c2c, wire, scheme):
    # DeviceParams rejects the parameters, or every read of them is finite
    try:
        params = DeviceParams(
            r_lrs=10.0**exponent, sigma_d2d=sigma_d2d, sigma_c2c=sigma_c2c,
            wire_r_per_cell=wire, seed=5,
        )
    except CrossbarError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        bundle = compile_layout(0x5A, GIFT64)
        state = program_slice(
            bundle.key_bits, bundle.columns, sbox_bit_matrix(GIFT_SBOX), params,
            [np.random.default_rng(j) for j in range(GIFT64.nibbles)],
        )
        at = np.arange(16)[:, None] + 16 * np.arange(GIFT64.nibbles)
        factors = variation_factor(params.sigma_c2c, np.full((16, 2, GIFT64.nibbles, 4), -9.0))
        for f in (None, factors):
            capture = read_round(state, at, np.arange(16), scheme, f)
            assert np.isfinite(capture.r_eq).all() and (capture.r_eq > 0).all()


AMP_KEYS = ["sxor.m2", "ro_s.vth", "dxor.r_nor", "ro_d.gain"]
DEVICE_KEYS = [f.name for f in fields(DeviceParams)] + AMP_KEYS
ENERGY_KEYS = ["dxor_sense", "cell_write", "clock_hz", "static.decoders", "area.crossbar"]
param_lines = st.builds(
    "{} = {}".format,
    st.one_of(st.sampled_from(DEVICE_KEYS + ENERGY_KEYS), st.text(max_size=10)),
    st.one_of(st.integers().map(str), st.floats().map(repr), st.text(max_size=10)),
)
param_files = st.one_of(
    st.binary(max_size=200),
    st.text(max_size=200).map(str.encode),
    st.lists(param_lines, max_size=6).map(lambda lines: "\n".join(lines).encode()),
)


@settings(max_examples=300)
@given(param_files)
def test_parameter_files_raise_only_config_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzzed.cfg"
    path.write_bytes(data)
    for load in (load_device_config, load_energy_config):
        try:
            load(path)
        except ConfigError:
            pass


@settings(max_examples=40, deadline=None)
@given(
    wire=st.sampled_from([0.0, 150.0, 800.0, 1200.0, 5000.0]),
    r_lrs=st.floats(1e3, 1e4),
    scheme=st.sampled_from(["sxor", "dxor"]),
    sigma=st.sampled_from([0.02, 0.05, 0.12, 0.3]),
    data=st.data(),
)
def test_safe_factor_box_is_the_widest_rung_that_reads_as_factor_one(wire, r_lrs, scheme, sigma, data):
    # every factor pair inside a pairing's box reads it as factor 1 does,
    # and the next rung's corners read it otherwise, unless d is the top rung
    params = DeviceParams(r_lrs=r_lrs, wire_r_per_cell=wire)
    state = crossbar.program_slice(np.zeros((1, 1)), [(0,), ()], np.zeros((16, 4)), params)
    points = crossbar.column_points(state, scheme, sigma)
    low, high = crossbar.safe_factor_box(params, scheme, sigma)
    r = np.array([params.r_hrs, params.r_lrs])

    def bits(entry, f_sb, f_p):
        s, p = divmod(entry, 3)
        partner = np.inf if p == 2 else r[p]
        f_sb, f_p = (np.asarray(f, dtype=float).reshape(-1) for f in (f_sb, f_p))
        g = path_conductance(r[s], wire, f_sb) + path_conductance(partner, wire, f_p)
        return decide(g, points[:, 0 if p != 2 else 1, 0, None])

    for entry in range(6):
        d = high[entry] - 1
        assert low[entry] == 1 - d and d * crossbar.BOX_RUNGS == int(d * crossbar.BOX_RUNGS)
        ideal = bits(entry, 1.0, 1.0)
        inside = st.floats(low[entry], high[entry])
        pairs = data.draw(st.lists(st.tuples(inside, inside), min_size=1, max_size=8))
        assert (bits(entry, *np.array(pairs).T) == ideal).all()
        if d < (crossbar.BOX_RUNGS - 1) / crossbar.BOX_RUNGS:
            rung = d + 1 / crossbar.BOX_RUNGS
            corners = np.array([1 - rung, 1 + rung])
            assert (bits(entry, corners, corners) != ideal).any()
