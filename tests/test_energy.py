import math
from dataclasses import fields

import pytest

from memgift.crossbar import SCHEME_AMPS, SCHEMES, SENSE_EVENT, ConfigError, load_device_config
from memgift.energy import (
    CMOS_GIFT_REFERENCE,
    EVENT_COMPONENT,
    AreaReport,
    EnergyParams,
    MissingEventsError,
    account,
    area_report,
    load_energy_config,
)
from memgift.gift import GIFT128
from memgift.pipeline import EncryptionSession, EventLog


def block_log(scheme):
    session = EncryptionSession(0, GIFT128, scheme)
    session.encrypt(0)
    return session


def test_dxor_defaults_reproduce_published_totals():
    session = block_log("dxor")
    report = account(session.session_log())
    assert report.total_energy_pj == pytest.approx(241.52, rel=5e-3)
    assert report.average_power_uw == pytest.approx(60.38, rel=5e-3)
    assert report.latency_us == pytest.approx(4.0)


def test_sxor_defaults_reproduce_published_totals():
    session = block_log("sxor")
    report = account(session.session_log())
    assert report.total_energy_pj == pytest.approx(1030.4, rel=5e-3)
    assert report.average_power_uw == pytest.approx(257.6, rel=5e-3)
    assert report.latency_us == pytest.approx(4.0)


def test_energy_power_latency_identity():
    for scheme in ("sxor", "dxor"):
        report = account(block_log(scheme).session_log())
        assert report.total_energy_pj == pytest.approx(
            report.average_power_uw * report.latency_us, rel=1e-12
        )


def test_breakdown_sums_to_total():
    report = account(block_log("dxor").session_log())
    total = sum(b["total_pj"] for b in report.breakdown.values())
    assert total == pytest.approx(report.total_energy_pj, rel=1e-12)
    for b in report.breakdown.values():
        assert b["total_pj"] == pytest.approx(b["dynamic_pj"] + b["static_pj"])


def test_sxor_sense_amps_dominate():
    report = account(block_log("sxor").session_log())
    sa = report.breakdown["sense_amps"]["total_pj"]
    assert sa / report.total_energy_pj > 0.5
    assert all(
        sa >= report.breakdown[c]["total_pj"] for c in report.breakdown
    )


def test_write_phase_reported_separately():
    session = block_log("dxor")
    report = account(session.session_log())
    assert report.write_events == 4888
    assert report.write_phase_pj == pytest.approx(4888 * 4.0)  # 4 pJ per write
    # block figures unchanged by the write phase
    no_writes = account(session.current_log)
    assert no_writes.total_energy_pj == pytest.approx(report.total_energy_pj)
    assert no_writes.write_phase_pj == 0.0


def test_doubling_clock_halves_latency_and_static_only():
    log = block_log("dxor").session_log()
    base = account(log)
    fast = account(log, EnergyParams(clock_hz=20e6))
    assert fast.latency_us == pytest.approx(base.latency_us / 2)
    for comp in base.breakdown:
        assert fast.breakdown[comp]["dynamic_pj"] == pytest.approx(
            base.breakdown[comp]["dynamic_pj"]
        )
        assert fast.breakdown[comp]["static_pj"] == pytest.approx(
            base.breakdown[comp]["static_pj"] / 2
        )


def test_missing_categories_rejected():
    log = EventLog("GIFT-128", "dxor", rounds=40)
    log.add("decoder_cycle", 40 * 32)
    with pytest.raises(MissingEventsError):
        account(log)
    with pytest.raises(MissingEventsError):
        account(EventLog("GIFT-128", "dxor", rounds=0))


def test_account_bills_only_the_sense_events_of_a_known_scheme():
    # each was billed without error: the log of an unknown scheme at the
    # 241.52 pJ of the dxor senses it holds, and the dxor log holding sxor
    # senses at 951.52 pJ, those senses counted in
    session = EncryptionSession(0, GIFT128, "dxor")
    session.encrypt(0)
    log = session.current_log
    unknown = EventLog(log.variant_name, "nope", log.rounds, dict(log.counts))
    with pytest.raises(MissingEventsError, match="'nope'"):
        account(unknown)
    foreign = EventLog(log.variant_name, "dxor", log.rounds, dict(log.counts, sxor_sense=2840))
    with pytest.raises(MissingEventsError, match=r"^a dxor log .*\['sxor_sense'\]"):
        account(foreign)
    account(log)  # the session's own log is billed


@pytest.mark.parametrize("log", [None, {"rounds": 40}], ids=["None", "dict"])
def test_account_takes_only_an_event_log(log):
    # each raised a bare AttributeError
    with pytest.raises(MissingEventsError, match=r"^log must be an EventLog, got "):
        account(log)


@pytest.mark.parametrize(
    "report",
    [
        lambda params: account(block_log("dxor").session_log(), params),
        lambda params: area_report(GIFT128, params),
    ],
    ids=["account", "area_report"],
)
@pytest.mark.parametrize("params", [3, {"clock_hz": 10e6}], ids=["int", "dict"])
def test_energy_reports_take_only_energy_params(report, params):
    # each raised a bare AttributeError; None still means the defaults
    with pytest.raises(ConfigError, match=r"^params must be an EnergyParams, got "):
        report(params)
    assert report(None) == report(EnergyParams())


def test_report_serialization():
    report = account(block_log("dxor").session_log())
    d = report.to_dict()
    assert d["cmos_reference"] == CMOS_GIFT_REFERENCE
    table = report.format_table()
    assert "241.52" in table and "60.38" in table
    assert "write phase" in table and "CMOS-GIFT" in table


# ---------------------------------------------------------------------------
# Area


def test_area_defaults():
    report = area_report(GIFT128)
    assert isinstance(report, AreaReport)
    assert report.total_mm2 == pytest.approx(0.0034)
    assert sum(report.breakdown.values()) == pytest.approx(report.total_mm2)


def test_area_equal_for_both_schemes():
    # the area table is scheme-independent by construction
    assert area_report(GIFT128).total_mm2 == area_report(GIFT128).total_mm2 == 0.0034


def test_zeroing_component_removes_exactly_its_share():
    params = EnergyParams()
    area = dict(params.area_mm2)
    share = area["register"]
    area["register"] = 0.0
    reduced = area_report(GIFT128, EnergyParams(area_mm2=area))
    assert reduced.total_mm2 == pytest.approx(0.0034 - share)


# ---------------------------------------------------------------------------
# Config file


def test_energy_config_overrides(tmp_path):
    cfg = tmp_path / "energy.cfg"
    cfg.write_text(
        """
clock_hz = 20e6
dxor_sense = 44e-15
static.crossbar = 1e-6
area.register = 0.0008
"""
    )
    params = load_energy_config(cfg)
    assert params.clock_hz == 20e6
    assert params.dxor_sense == 44e-15
    assert params.static_power["crossbar"] == 1e-6
    assert params.area_mm2["register"] == 0.0008
    # untouched entries keep their defaults
    assert params.static_power["decoders"] == 1.5e-6


def test_energy_config_rejects_unknown(tmp_path):
    cfg = tmp_path / "energy.cfg"
    cfg.write_text("warp_core = 9\n")
    with pytest.raises(ConfigError, match="unknown energy parameter 'warp_core'"):
        load_energy_config(cfg)
    cfg.write_text("static.flux = 1\n")
    with pytest.raises(ConfigError, match="unknown component 'flux'"):
        load_energy_config(cfg)
    cfg.write_text("area.register = big\n")
    with pytest.raises(ConfigError, match="invalid value 'big'"):
        load_energy_config(cfg)


def test_energy_params_validation(tmp_path):
    with pytest.raises(ValueError):
        EnergyParams(dxor_sense=-1.0)
    with pytest.raises(ValueError):
        EnergyParams(static_power={"decoders": 1e-6})
    cfg = tmp_path / "energy.cfg"
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            EnergyParams(dxor_sense=value)
        with pytest.raises(ValueError, match="finite"):
            EnergyParams(clock_hz=value)
        with pytest.raises(ValueError, match="finite"):
            EnergyParams(area_mm2={**EnergyParams().area_mm2, "register": value})
        for line in (f"dxor_sense = {value}", f"static.crossbar = {value}"):
            cfg.write_text(line + "\n")
            with pytest.raises(ConfigError, match="finite"):
                load_energy_config(cfg)


def test_the_scheme_table_is_the_one_statement_of_the_schemes(tmp_path):
    # every scheme's amp sections, in table order, and their sense events
    sections = [section for amps in SCHEME_AMPS.values() for section, _ in amps]
    events = [f"{section}_sense" for section in sections]
    assert list(SCHEMES) == list(SENSE_EVENT) == list(SCHEME_AMPS)
    assert [kind for kinds in SENSE_EVENT.values() for kind in kinds] == events
    # account sums the sense amps in this order, which the energy goldens fix
    assert [kind for kind, comp in EVENT_COMPONENT.items() if comp == "sense_amps"] == events
    assert [f.name for f in fields(EnergyParams) if f.name.endswith("_sense")] == events
    cfg = tmp_path / "amps.cfg"
    for name, amps in SCHEME_AMPS.items():
        scheme = SCHEMES[name]
        assert (type(scheme.xor_amp), type(scheme.readout_amp)) == tuple(amp for _, amp in amps)
        for (section, _), attr in zip(amps, ("xor_amp", "readout_amp")):
            # a device file's section sets its own scheme's amp and no other
            cfg.write_text(f"{section}.gain = 5\n")
            _, schemes = load_device_config(cfg)
            assert list(schemes) == list(SCHEMES)
            gains = {(s.name, a): getattr(s, a).gain for s in schemes.values()
                     for a in ("xor_amp", "readout_amp")}
            assert gains == {key: 5 if key == (name, attr) else 4 for key in gains}
    cfg.write_text("ro_x.gain = 5\n")
    with pytest.raises(ConfigError, match="unknown parameter section 'ro_x'"):
        load_device_config(cfg)
