"""One integer rule at every public site that takes a block, key, mask,
S-box entry, seed or count: a Python int, a numpy integer or a bool is
taken as its int value; anything else, a negative value or one too wide
raises the site's typed error before any cell write or noise draw.  Every
site that takes a whole S-box takes it through `SBoxTable`, so one rule
holds there too: 16 integers that permute 0..15, in any sequence, act as
the table; anything else raises GiftError before any cell write."""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memgift.crossbar import (
    ConfigError,
    CrossbarError,
    DeviceParams,
    ScoutingReadoutAmp,
    ScoutingXorAmp,
    SenseAmpScheme,
    scheme_for,
)
from memgift.energy import EnergyParams, area_report
from memgift.layout import compile_layout, rc_slice_set, sbox_bit_matrix, slice_columns
from memgift.gift import (
    GIFT64,
    GIFT128,
    GIFT_SBOX,
    GiftError,
    SBoxTable,
    decrypt_block,
    encrypt_block,
    perm_table,
    round_addition_masks,
    variant_for,
)
from gift_spec import (
    RoundConstantState,
    add_round_key_and_constant,
    extract_round_key,
    perm_bits,
    sub_cells,
    update_key_state,
)
from memgift.masking import apply_mask, encrypt_masked, remask_sbox, replicate_mask
from memgift.pipeline import EncryptionSession, PipelineError, round_trace_header, run_sweep

KEY = 0x0F1E2D3C4B5A69788796A5B4C3D2E1F0
MASK = 9


def noisy_session():
    # its reads draw noise, which creates the slice streams
    return EncryptionSession(KEY, GIFT64, "dxor", DeviceParams(sigma_c2c=0.05, seed=3))


def masked_session():
    session = noisy_session()
    apply_mask(session, MASK)
    return session


def seeded_header_and_ct(seed):
    session = EncryptionSession(KEY, GIFT64, "dxor", DeviceParams(sigma_c2c=0.05, seed=seed))
    return round_trace_header(session, 0), session.encrypt(3)[0]


def scouting(**xor_amp):
    return SenseAmpScheme("sxor", ScoutingXorAmp(**xor_amp), ScoutingReadoutAmp())


@dataclass(frozen=True)
class Site:
    name: str
    call: Callable  # (value, session or None) -> a comparable result
    error: type
    bits: Optional[int]  # None: any non-negative integer
    valid: st.SearchStrategy  # in-range values the call accepts
    session: Optional[Callable] = None  # builds the session the call acts on


def fits(n):
    # numpy integers hold at most 64 bits
    return st.integers(0, (1 << min(n, 64)) - 1)


SITES = [
    Site("encrypt_block.pt", lambda v, _: encrypt_block(v, KEY, GIFT64), GiftError, 64, fits(64)),
    Site("encrypt_block.key", lambda v, _: encrypt_block(5, v, GIFT64), GiftError, 128, fits(128)),
    Site("decrypt_block.ct", lambda v, _: decrypt_block(v, KEY, GIFT64), GiftError, 64, fits(64)),
    Site("decrypt_block.key", lambda v, _: decrypt_block(5, v, GIFT64), GiftError, 128, fits(128)),
    # The per-bit oracle in gift_spec.py holds the same rule as the package.
    Site("sub_cells", lambda v, _: sub_cells(v, GIFT64), GiftError, 64, fits(64)),
    Site("perm_bits", lambda v, _: perm_bits(v, GIFT64), GiftError, 64, fits(64)),
    Site(
        "add_round_key_and_constant",
        lambda v, _: add_round_key_and_constant(
            v, extract_round_key(KEY, GIFT64), RoundConstantState.initial(), GIFT64
        ),
        GiftError, 64, fits(64),
    ),
    Site(
        "extract_round_key",
        lambda v, _: extract_round_key(v, GIFT128).state_mask(), GiftError, 128, fits(128),
    ),
    Site("update_key_state", lambda v, _: update_key_state(v), GiftError, 128, fits(128)),
    Site(
        "round_addition_masks",
        lambda v, _: round_addition_masks(v, GIFT64), GiftError, 128, fits(128),
    ),
    Site(
        "SBoxTable.entry",
        lambda v, _: tuple(SBoxTable([v, *GIFT_SBOX[1:]])), GiftError, 4,
        st.just(GIFT_SBOX[0]),
    ),
    Site(
        "RoundConstantState",
        lambda v, _: RoundConstantState(v).state_mask(GIFT64), GiftError, 6, fits(6),
    ),
    Site("remask_sbox", lambda v, _: remask_sbox(GIFT_SBOX, v), GiftError, 4, fits(4)),
    Site("replicate_mask", lambda v, _: replicate_mask(v, 16), GiftError, 4, fits(4)),
    Site(
        "apply_mask",
        lambda v, s: (apply_mask(s, v), s.mask, type(s.mask), s.cell_fingerprint()),
        GiftError, 4, fits(4), noisy_session,
    ),
    Site(
        "encrypt_masked.pt",
        lambda v, s: encrypt_masked(s, v, MASK)[0], PipelineError, 64, fits(64), masked_session,
    ),
    Site(
        "encrypt_masked.mask",
        lambda v, s: encrypt_masked(s, 3, v)[0], GiftError, 4, st.just(MASK), masked_session,
    ),
    Site(
        "EncryptionSession.encrypt",
        lambda v, s: s.encrypt(v)[0], PipelineError, 64, fits(64), noisy_session,
    ),
    Site(
        "EncryptionSession.key",
        lambda v, _: EncryptionSession(v, GIFT64).encrypt(3)[0], GiftError, 128, fits(128),
    ),
    Site(
        "run_sweep.blocks",
        lambda v, _: run_sweep(GIFT64, "dxor", [0.05], blocks=v), PipelineError, None,
        st.integers(0, 2),
    ),
    Site(
        "run_sweep.seed",
        lambda v, _: run_sweep(GIFT64, "dxor", [0.05], blocks=1, seed=v), PipelineError, None,
        st.integers(0, 1 << 40),
    ),
    Site(
        "DeviceParams.seed", lambda v, _: seeded_header_and_ct(v), CrossbarError, None,
        st.integers(0, 1 << 40),
    ),
]

NUMPY_INTEGERS = (np.int8, np.uint8, np.int16, np.int32, np.int64, np.uint64)


def snapshot(session):
    """What a rejected call must leave as it was: the session's cell writes,
    reads, mask, and whether its noise streams exist."""
    if session is None:
        return None
    return (
        dict(session.write_log.counts), session.reads_executed, session.mask,
        "_slice_rngs" in vars(session),
    )


def fresh(site):
    return site.session() if site.session else None


def assert_rejected(site, value, match):
    session = fresh(site)
    before = snapshot(session)
    with pytest.raises(site.error, match=match):
        site.call(value, session)
    assert snapshot(session) == before


@pytest.mark.parametrize("site", SITES, ids=lambda s: s.name)
@settings(max_examples=10)
@given(data=st.data())
def test_numpy_integers_and_bools_give_the_python_int_result(site, data):
    value = data.draw(site.valid)
    kinds = [t for t in NUMPY_INTEGERS if np.iinfo(t).min <= value <= np.iinfo(t).max]
    if value in (0, 1):
        kinds.append(bool)
    same = data.draw(st.sampled_from(kinds))(value)
    assert site.call(same, fresh(site)) == site.call(value, fresh(site))


# each value under the id pytest gave it, so every case keeps its name
NON_INTEGERS = {
    "1.5": 1.5, "3.0": 3.0, "2.0": np.float64(2.0), "value3": np.float32(1.0), "5": "5",
    "None": None, "1j": 1j,
}
# run_sweep's seed=None names the base device's seed (test_pipeline.py)
NONE_IS_A_SEED = {"run_sweep.seed"}


@pytest.mark.parametrize(
    "site, value",
    [
        pytest.param(site, value, id=f"{name}-{site.name}")
        for site in SITES
        for name, value in NON_INTEGERS.items()
        if not (value is None and site.name in NONE_IS_A_SEED)
    ],
)
def test_non_integers_raise_the_site_error(site, value):
    assert_rejected(site, value, "must be an integer")


@pytest.mark.parametrize("site", SITES, ids=lambda s: s.name)
def test_out_of_range_integers_raise_the_site_error(site):
    if site.bits is None:
        values, match = (-1, np.int64(-3), -(1 << 70)), "must be non-negative"
    else:
        wide = 1 << site.bits
        values = (-1, np.int64(-1), wide, wide | 5, 1 << (site.bits + 70))
        match = f"does not fit in {site.bits} bits"
    for value in values:
        assert_rejected(site, value, match)


# ---------------------------------------------------------------------------
# Real-number parameters


@pytest.mark.parametrize("value", ["5", None, [1.0]])
@pytest.mark.parametrize(
    "build, error, name",
    [
        (lambda v: DeviceParams(r_lrs=v), CrossbarError, "r_lrs"),
        (lambda v: DeviceParams(sigma_c2c=v), CrossbarError, "sigma_c2c"),
        (lambda v: EnergyParams(cell_write=v), ConfigError, "cell_write"),
        (lambda v: EnergyParams(clock_hz=v), ConfigError, "clock_hz"),
        (
            lambda v: EnergyParams(static_power={**EnergyParams().static_power, "register": v}),
            ConfigError, "register",
        ),
        (
            lambda v: scouting(m1=v).validate(0.9),
            CrossbarError, "m1",
        ),
        (
            lambda v: EncryptionSession(KEY, GIFT64, scouting(vth=v)),
            CrossbarError, "vth",
        ),
        (lambda v: run_sweep(GIFT64, "dxor", [0.05, v], 1), PipelineError, "sigma_c2c"),
    ],
    ids=["DeviceParams", "DeviceParams.sigma", "EnergyParams", "clock_hz", "static_power",
         "amp.validate", "amp.session", "run_sweep.sigmas"],
)
def test_non_number_parameters_raise_the_typed_error_naming_the_field(build, error, name, value):
    with pytest.raises(error, match=name):
        build(value)


def test_numbers_of_any_real_type_are_taken():
    assert DeviceParams(r_lrs=np.float32(2800.0), sigma_c2c=0).r_lrs == 2800
    assert run_sweep(GIFT64, "dxor", [np.float64(0.05), 0], 1, seed=2) == run_sweep(
        GIFT64, "dxor", [0.05, 0.0], 1, seed=2
    )


# Every site that takes a cipher variant takes it through `variant_for`: a
# CipherVariant passes as it is, 64, 128, "GIFT-64" and "GIFT-128" act as
# theirs, and anything else raises GiftError.
VARIANT_SITES = {
    "encrypt_block": lambda v: encrypt_block(5, KEY, v),
    "decrypt_block": lambda v: decrypt_block(5, KEY, v),
    "round_addition_masks": lambda v: round_addition_masks(KEY, v),
    "perm_table": perm_table,
    "rc_slice_set": rc_slice_set,
    "slice_columns": lambda v: [slice_columns(v, j) for j in range(16)],
    "compile_layout": lambda v: compile_layout(KEY, v),
    "run_sweep": lambda v: run_sweep(v, "dxor", [0.05], blocks=1, seed=2),
    "area_report": area_report,
}
# sites where None names the default variant, GIFT-128, as for EncryptionSession
NONE_IS_GIFT128 = {"area_report"}


@pytest.mark.parametrize("site", sorted(VARIANT_SITES))
@pytest.mark.parametrize("spec", [64, 128, "GIFT-64", "GIFT-128"])
def test_a_variant_spec_acts_as_its_variant(site, spec):
    call = VARIANT_SITES[site]
    assert call(spec) == call(variant_for(spec))


@pytest.mark.parametrize("site", sorted(VARIANT_SITES))
@pytest.mark.parametrize(
    "spec", [None, [64], 256, "GIFT-256", object()],
    ids=["None", "list", "256", "GIFT-256", "object"],
)
def test_bad_variant_specs_raise_gift_error(site, spec):
    if spec is None and site in NONE_IS_GIFT128:
        assert VARIANT_SITES[site](None) == VARIANT_SITES[site](GIFT128)
        return
    with pytest.raises(GiftError, match="unknown cipher variant"):
        VARIANT_SITES[site](spec)


# Unhashable specs: looked up in a dict, they must raise the typed error,
# not the dict's "unhashable type".
def test_unhashable_variant_raises_gift_error():
    with pytest.raises(GiftError, match="unknown cipher variant"):
        variant_for([64])


def test_unhashable_scheme_raises_crossbar_error():
    with pytest.raises(CrossbarError, match="unknown sense-amp scheme"):
        scheme_for(["dxor"])


def test_session_with_unhashable_variant_raises_gift_error():
    with pytest.raises(GiftError, match="unknown cipher variant"):
        EncryptionSession(0, [128])


def test_session_with_unhashable_scheme_raises_crossbar_error():
    with pytest.raises(CrossbarError, match="unknown sense-amp scheme"):
        EncryptionSession(0, 128, {"a": 1})


# ---------------------------------------------------------------------------
# S-box arguments


def ideal_session():
    return EncryptionSession(KEY, GIFT64, "dxor")


# Each takes an S-box and returns a comparable result; the session sites
# act on a fresh ideal_session.
SBOX_SITES = {
    "encrypt_block": (lambda sbox, _: encrypt_block(5, KEY, GIFT64, sbox), None),
    "decrypt_block": (lambda sbox, _: decrypt_block(5, KEY, GIFT64, sbox), None),
    "sub_cells": (lambda sbox, _: sub_cells(0x0123456789ABCDEF, GIFT64, sbox), None),
    "compile_layout": (lambda sbox, _: compile_layout(KEY, GIFT64, sbox), None),
    "sbox_bit_matrix": (lambda sbox, _: sbox_bit_matrix(sbox).tolist(), None),
    "EncryptionSession": (
        lambda sbox, _: EncryptionSession(KEY, GIFT64, "dxor", sbox=sbox).encrypt(5)[0], None,
    ),
    "reprogram_sbox": (
        lambda sbox, s: (s.reprogram_sbox(sbox), s.cell_fingerprint(), s.encrypt(5)[0]),
        ideal_session,
    ),
    "remask_sbox": (lambda sbox, _: remask_sbox(sbox, MASK), None),
}
OTHER_SBOX = SBoxTable([(5 * x + 3) % 16 for x in range(16)])


@pytest.mark.parametrize("site", sorted(SBOX_SITES))
@pytest.mark.parametrize(
    "sbox",
    [(0,) * 16, [1] * 16, (99,) * 16, tuple(GIFT_SBOX) + (3,), tuple(GIFT_SBOX)[:15], 5, None,
     "0123456789abcdef", [GIFT_SBOX[0] + 0.5, *GIFT_SBOX[1:]]],
    ids=["constant", "constant-list", "wide", "17-entries", "15-entries", "int", "None", "str",
         "float-entry"],
)
def test_bad_sboxes_raise_gift_error_before_any_write(site, sbox):
    call, build = SBOX_SITES[site]
    session = build() if build else None
    before = snapshot(session), session and session.cell_fingerprint()
    with pytest.raises(GiftError, match="S-box"):
        call(sbox, session)
    assert (snapshot(session), session and session.cell_fingerprint()) == before


@pytest.mark.parametrize("site", sorted(SBOX_SITES))
@pytest.mark.parametrize("as_sequence", [list, tuple, np.array], ids=["list", "tuple", "array"])
def test_a_sequence_sbox_acts_as_its_table(site, as_sequence):
    call, build = SBOX_SITES[site]
    for table in (GIFT_SBOX, OTHER_SBOX):
        got = call(as_sequence(table), build() if build else None)
        assert got == call(table, build() if build else None)


def test_a_table_passes_through_sbox_table_as_it_is():
    assert SBoxTable(GIFT_SBOX) is GIFT_SBOX
    assert SBoxTable(list(GIFT_SBOX)) == GIFT_SBOX
