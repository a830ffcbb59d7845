import itertools
import math
import random
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memgift.crossbar import (
    ConfigError,
    CrossbarError,
    DeviceParams,
    DXOR_SCHEME,
    SCHEMES,
    SXOR_SCHEME,
    MarginRecord,
    SenseResult,
    check_margins,
    draw_read_factors,
    PARTNER_ABSENT,
    load_device_config,
    nominal_reads,
    program_slice,
    read_round,
    resolve,
    sense_margin_report,
    variation_factor,
)
from memgift.energy import load_energy_config
from memgift.gift import GIFT128, GIFT_SBOX
from memgift.layout import SliceKeyMatrix, compile_layout, sbox_bit_matrix


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


def sense(r_eq: float, sa, vdd: float = 0.9) -> SenseResult:
    """Resolve one bit-line resistance with the given amp model: the scalar
    case of `resolve`, with plain int bits and float volts."""
    if r_eq <= 0:
        raise CrossbarError("non-positive equivalent resistance")
    res = resolve(sa, np.float64(r_eq), vdd, capture=True)
    return SenseResult(
        int(res.bit),
        {name: float(v) for name, v in res.nodes.items()},
        tuple((name, int(d)) for name, d in res.decisions),
    )


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
    km = SliceKeyMatrix(index, columns, np.asarray(key_bits, dtype=np.uint8))
    rngs = None if rng is None else [rng]
    return program_slice([km], sbox_bit_matrix(GIFT_SBOX), params, rngs)


def key_res(state, columns=(1, 2)):
    """Key-region resistances of a one-slice state, (rounds, len(columns))."""
    return state.partner_res[0][:, list(columns)]


def read_one(state, nib, rnd, scheme, params, factors=None):
    """One read_round read on a one-slice stacked state, factors shape
    (1, 2, 4): returns the output nibble and the read's capture."""
    factors = None if factors is None else factors[None]
    analog = read_round(state, [[nib]], [rnd], scheme, params.vdd, factors)
    return int(analog.bits[0, 0] @ [1, 2, 4, 8]), analog


# ---------------------------------------------------------------------------
# Programming


def test_all_zero_layout_programs_hrs():
    km = SliceKeyMatrix(0, (1, 2), np.zeros((40, 2), dtype=np.uint8))
    arr = program_slice([km], np.zeros((16, 4), dtype=np.uint8), DeviceParams())
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


def test_dimension_mismatch_rejected():
    km = SliceKeyMatrix(0, (1, 2), np.zeros((40, 3), dtype=np.uint8))
    with pytest.raises(CrossbarError):
        program_slice([km], sbox_bit_matrix(GIFT_SBOX), DeviceParams())
    km = SliceKeyMatrix(0, (1, 2), np.zeros((40, 2), dtype=np.uint8))
    with pytest.raises(CrossbarError):
        program_slice([km], np.zeros((8, 4), dtype=np.uint8), DeviceParams())


# ---------------------------------------------------------------------------
# Row selection: a read asserts exactly one S-box word line and one key
# word line per slice


def selection_slice():
    """A slice with d2d variation and random key rows, so every cell's
    resistance differs and a column's r_eq names the cells it selected."""
    rng = np.random.default_rng(11)
    key_bits = rng.integers(0, 2, (40, 3))
    return make_slice(DeviceParams(sigma_d2d=0.05), key_bits, (1, 2, 3), rng=rng)


def assert_selects(state, nib, rnd, analog, i=0):
    """Every column of read i of a capture read exactly S-box row nib and
    key row rnd."""
    for col in range(4):
        cells = [state.sb_res[0, nib, col]]
        stored = (state.sb_bits[0, nib, col],)
        captured = (analog.sb_bits[i, 0, col],)
        if analog.xor_mask[0, col]:
            cells.append(state.partner_res[0, rnd, col])
            stored += (state.partner_bits[0, rnd, col],)
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
        _, analog = read_one(state, nib, 0, "dxor", DeviceParams())
        assert_selects(state, nib, 0, analog)
        seen.add(tuple(analog.r_eq.ravel().tolist()))
    assert len(seen) == 16
    for nib in (16, -1):
        with pytest.raises(CrossbarError):
            read_round(state, [[nib]], [0], "dxor", 0.9)


def test_round_selector_range():
    state = selection_slice()
    seen = set()
    for rnd in range(40):
        _, analog = read_one(state, 5, rnd, "sxor", DeviceParams())
        assert_selects(state, 5, rnd, analog)
        seen.add(tuple(analog.r_eq.ravel().tolist()))
    assert len(seen) == 40
    for rnd in (40, 64, -1):
        with pytest.raises(CrossbarError):
            read_round(state, [[5]], [rnd], "sxor", 0.9)


def test_select_rows_exhaustive():
    # every row x round pair as the reads of one capture
    state = selection_slice()
    nibs, rnds = np.divmod(np.arange(16 * 40), 40)
    analog = read_round(state, nibs[:, None], rnds, "dxor", 0.9)
    outs = analog.bits[:, 0] @ [1, 2, 4, 8]
    for i, (nib, rnd) in enumerate(zip(nibs, rnds)):
        assert_selects(state, nib, rnd, analog, i)
        assert outs[i] == GIFT_SBOX[nib] ^ int(state.partner_bits[0, rnd] @ [1, 2, 4, 8])
    with pytest.raises(CrossbarError):
        read_round(state, [[0]], [40], "dxor", 0.9)


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
    # one statement of each amp's maths serves arrays and scalars alike
    params = DeviceParams()
    sweep = np.geomspace(100.0, 5e6, 64)
    for amp in (scheme.xor_amp, scheme.readout_amp):
        bits = resolve(amp, sweep, params.vdd)
        captured = resolve(amp, sweep, params.vdd, capture=True)
        assert np.array_equal(captured.bit, bits)
        for i, r in enumerate(sweep):
            res = sense(float(r), amp, params.vdd)
            assert res.bit == bits[i]
            assert res.nodes == {name: v[i] for name, v in captured.nodes.items()}


@pytest.mark.parametrize("scheme", [SXOR_SCHEME, DXOR_SCHEME], ids=["sxor", "dxor"])
@pytest.mark.parametrize("wire", [0.0, 150.0, 20e3])
def test_nominal_reads_sense_every_cell_pairing(scheme, wire):
    # one sense per (S-box cell, partner or none), by the amp wired to it,
    # as the scalar oracle senses it
    params = DeviceParams(wire_r_per_cell=wire)
    grid = nominal_reads(params, scheme)
    assert grid.shape == (2, 3) and grid.dtype == bool
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
        else:
            assert check_margins(scheme, params) == min(slacks)
        cases += 1
    assert cases == 96


def test_margin_audit_decides_what_the_read_table_gathers(tmp_path):
    # the amp's gate over the audit's recorded decisions of a pairing is the
    # nominal_reads entry a session's read table gathers for it
    for scheme, params in margin_cases(tmp_path):
        grid = nominal_reads(params, scheme)
        decisions = {}
        for rec in sense_margin_report(scheme, params):
            decisions.setdefault((rec.amp, rec.operands), []).append(np.bool_(rec.decision))
        assert len(decisions) == 6
        for (name, bits), decided in decisions.items():
            amp = scheme.xor_amp if name.endswith(".xor") else scheme.readout_amp
            s, p = bits if len(bits) == 2 else (bits[0], PARTNER_ABSENT)
            assert amp.gate(*decided) == grid[s, p], (name, bits, params)


def test_sense_rejects_bad_resistance():
    with pytest.raises(CrossbarError):
        sense(0.0, SXOR_SCHEME.xor_amp)
    with pytest.raises(CrossbarError):
        sense(-5.0, DXOR_SCHEME.readout_amp)


def test_variation_factor_clamps():
    assert variation_factor(0.1, 10.0) == pytest.approx(1.4)
    assert variation_factor(0.1, -10.0) == pytest.approx(0.6)
    assert variation_factor(0.5, -10.0) == pytest.approx(0.01)  # floor


# ---------------------------------------------------------------------------
# Round reads


@pytest.mark.parametrize("scheme", ["sxor", "dxor"])
def test_zero_key_rows_read_back_sbox(scheme):
    arr = make_slice()
    for nib in range(16):
        out, analog = read_one(arr, nib, 0, scheme, DeviceParams())
        assert out == GIFT_SBOX[nib]
        assert analog.r_eq.shape == analog.bits.shape == (1, 1, 4)
        assert set(analog.xor_mask[0].tolist()) == {True, False}


@pytest.mark.parametrize("scheme", ["sxor", "dxor"])
def test_all_ones_key_row_flips_rc_slice_columns(scheme):
    key_bits = np.ones((40, 3), dtype=np.uint8)
    arr = make_slice(key_bits=key_bits, columns=(1, 2, 3))
    for nib in range(16):
        out, _ = read_one(arr, nib, 5, scheme, DeviceParams())
        assert out == GIFT_SBOX[nib] ^ 0b1110  # bits 1, 2 and 3 flipped


@pytest.mark.parametrize("scheme", ["sxor", "dxor"])
def test_full_sweep_matches_digital_oracle(scheme):
    rng = random.Random(21)
    key = rng.getrandbits(128)
    bundle = compile_layout(key, GIFT128)
    params = DeviceParams()
    for j in (0, 3, 28):  # plain slice and both RC slice kinds
        km = bundle.slices[j]
        arr = program_slice([km], bundle.sbox_matrix, params)
        for nib in range(16):
            for rnd in range(40):
                out, _ = read_one(arr, nib, rnd, scheme, params)
                expected = GIFT_SBOX[nib]
                for k, b in enumerate(km.columns):
                    expected ^= int(km.bits[rnd, k]) << b
                assert out == expected


def test_reads_do_not_disturb_cells():
    state = make_slice()
    before = (state.sb_bits.copy(), state.partner_bits.copy(), state.sb_res.copy())
    fp = state.fingerprint()
    for nib in range(16):
        read_round(state, [[nib]], [nib % 40], "sxor", 0.9)
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
    ):
        with pytest.raises(CrossbarError):
            read_round(state, rows, rnds, "dxor", 0.9)
    with pytest.raises(CrossbarError):
        read_round(state, [[3]], [0], "dxor", 0.9, np.ones((1, 2, 4)))


def test_noisy_read_requires_rng_and_is_deterministic():
    params = DeviceParams(sigma_c2c=0.05)
    arr = make_slice()
    with pytest.raises(CrossbarError):
        draw_read_factors((params.sigma_c2c,), None)

    def noisy_read(seed):
        factors = draw_read_factors((params.sigma_c2c,), np.random.default_rng(seed))[0]
        return read_one(arr, 3, 0, "sxor", params, factors)

    a, b = noisy_read(5), noisy_read(5)
    assert a[1].r_eq.tolist() == b[1].r_eq.tolist()
    assert a[1].r_eq.tolist() != read_one(arr, 3, 0, "sxor", params)[1].r_eq.tolist()


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
