"""Event-based energy, power, latency and area accounting.

The per-event energies and the per-component static/area splits are
calibration data: they are back-derived so that a default GIFT-128 session
reproduces the published implementation totals (241.52 pJ / 60.38 uW for
the dual-SA scheme, 1030.4 pJ / 257.6 uW for the scouting-logic scheme,
4 us at 10 MHz, 0.0034 mm^2), with the scouting-logic sense amps carrying
the dominant share.  They are not per-component measurements.

Session-initialization (write-phase) energy is reported separately and is
not part of the per-block figures, which cover the 40 encryption rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .crossbar import ConfigError, read_parameter_file
from .errors import MemgiftError
from .pipeline import SENSE_EVENT, EventLog


class MissingEventsError(MemgiftError, ValueError):
    """The event log lacks categories required for a complete report."""


COMPONENTS = ("decoders", "sense_amps", "crossbar", "register", "selector")

EVENT_COMPONENT = {
    "sxor_sense": "sense_amps",
    "ro_s_sense": "sense_amps",
    "dxor_sense": "sense_amps",
    "ro_d_sense": "sense_amps",
    "decoder_cycle": "decoders",
    "selector_cycle": "selector",
    "register_cycle": "register",
}

# Published totals for the prior CMOS-only implementation (90 nm library),
# shipped as a static reference row for report output only.
CMOS_GIFT_REFERENCE = {
    "name": "CMOS-GIFT (90 nm)",
    "energy_pj": 478.1,
    "average_power_uw": 116.6,
    "latency_us": 4.0,
}


def _default_static_power():
    # watts per component; 7.08 uW total
    return {
        "decoders": 1.5e-6,
        "sense_amps": 2.0e-6,
        "crossbar": 2.08e-6,
        "register": 1.0e-6,
        "selector": 0.5e-6,
    }


def _default_area():
    # mm^2 per component; 0.0034 total, identical for both schemes
    return {
        "decoders": 0.0012,
        "sense_amps": 0.0010,
        "crossbar": 0.0006,
        "register": 0.0004,
        "selector": 0.0002,
    }


@dataclass(frozen=True)
class EnergyParams:
    """Per-event energies (joules), static power (watts) and area (mm^2)."""

    sxor_sense: float = 250e-15
    ro_s_sense: float = 78e-15
    dxor_sense: float = 22e-15
    ro_d_sense: float = 16e-15
    decoder_cycle: float = 58e-15
    selector_cycle: float = 300e-15
    register_cycle: float = 700e-15
    cell_write: float = 4e-12
    clock_hz: float = 10e6
    static_power: dict = field(default_factory=_default_static_power)
    area_mm2: dict = field(default_factory=_default_area)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, dict):
                if set(value) != set(COMPONENTS):
                    raise ConfigError(f"{f.name} must cover exactly {COMPONENTS}")
                entries = [(f"{f.name}[{k!r}]", v) for k, v in value.items()]
            else:
                entries = [(f.name, value)]
            for name, v in entries:
                if not math.isfinite(v):
                    raise ConfigError(f"{name} must be finite, got {v}")
                if v < 0:
                    raise ConfigError(f"{name} must be non-negative")
        if self.clock_hz <= 0:
            raise ConfigError("clock_hz must be positive")


@dataclass(frozen=True)
class EnergyReport:
    variant_name: str
    scheme: str
    rounds: int
    latency_us: float
    total_energy_pj: float
    average_power_uw: float
    breakdown: dict  # component -> {"dynamic_pj", "static_pj", "total_pj"}
    write_events: int
    write_phase_pj: float

    def to_dict(self) -> dict:
        return {
            "variant": self.variant_name,
            "scheme": self.scheme,
            "rounds": self.rounds,
            "latency_us": self.latency_us,
            "total_energy_pj": self.total_energy_pj,
            "average_power_uw": self.average_power_uw,
            "breakdown": self.breakdown,
            "write_events": self.write_events,
            "write_phase_pj": self.write_phase_pj,
            "cmos_reference": CMOS_GIFT_REFERENCE,
        }

    def format_table(self) -> str:
        lines = [
            f"Energy report: {self.variant_name}, scheme {self.scheme}",
            f"  rounds             {self.rounds}",
            f"  latency            {self.latency_us:.4g} us",
            f"  total energy       {self.total_energy_pj:.4f} pJ",
            f"  average power      {self.average_power_uw:.4f} uW",
            "  per-component breakdown (dynamic + static = total, pJ):",
        ]
        for comp in COMPONENTS:
            b = self.breakdown[comp]
            lines.append(
                f"    {comp:<11} {b['dynamic_pj']:10.3f} + {b['static_pj']:8.3f} "
                f"= {b['total_pj']:10.3f}"
            )
        lines.append(
            f"  write phase        {self.write_phase_pj:.2f} pJ "
            f"({self.write_events} cell writes, reported separately)"
        )
        ref = CMOS_GIFT_REFERENCE
        lines.append(
            f"  reference: {ref['name']}: {ref['energy_pj']} pJ, "
            f"{ref['average_power_uw']} uW, {ref['latency_us']} us"
        )
        return "\n".join(lines) + "\n"


def account(log: EventLog, params: EnergyParams = None) -> EnergyReport:
    """Aggregate one encrypted block's event log into an energy report.

    Writes found in the log (session programming, remasking) are billed to
    the write phase; everything else makes up the per-block figures.
    """
    params = params if params is not None else EnergyParams()
    if log.rounds <= 0:
        raise MissingEventsError("log covers no read cycles")
    required = {"decoder_cycle", "selector_cycle", "register_cycle"}
    required.update(SENSE_EVENT.get(log.scheme, ()))
    missing = sorted(k for k in required if log.get(k) == 0)
    if missing:
        raise MissingEventsError(f"event log is missing categories: {missing}")

    latency_s = log.rounds / params.clock_hz
    dynamic = {comp: 0.0 for comp in COMPONENTS}
    for kind, comp in EVENT_COMPONENT.items():
        dynamic[comp] += log.get(kind) * getattr(params, kind)
    static = {comp: params.static_power[comp] * latency_s for comp in COMPONENTS}

    breakdown = {}
    total_j = 0.0
    for comp in COMPONENTS:
        total = dynamic[comp] + static[comp]
        total_j += total
        breakdown[comp] = {
            "dynamic_pj": dynamic[comp] * 1e12,
            "static_pj": static[comp] * 1e12,
            "total_pj": total * 1e12,
        }

    latency_us = latency_s * 1e6
    total_pj = total_j * 1e12
    write_events = log.get("cell_write")
    return EnergyReport(
        variant_name=log.variant_name,
        scheme=log.scheme,
        rounds=log.rounds,
        latency_us=latency_us,
        total_energy_pj=total_pj,
        average_power_uw=total_pj / latency_us,  # pJ/us == uW, identity exact
        breakdown=breakdown,
        write_events=write_events,
        write_phase_pj=write_events * params.cell_write * 1e12,
    )


@dataclass(frozen=True)
class AreaReport:
    total_mm2: float
    breakdown: dict

    def to_dict(self) -> dict:
        return {"total_mm2": self.total_mm2, "breakdown": self.breakdown}


def area_report(variant=None, params: EnergyParams = None) -> AreaReport:
    """Sum the per-component areas.  The defaults are calibrated to the
    full GIFT-128 design and identical for both sensing schemes."""
    params = params if params is not None else EnergyParams()
    return AreaReport(
        total_mm2=sum(params.area_mm2.values()),
        breakdown=dict(params.area_mm2),
    )


# ---------------------------------------------------------------------------
# Parameter file, read as `crossbar.read_parameter_file` reads a device file:
# the event-energy fields as named above (joules) and `clock_hz`, plus the
# sections `static.<component>` (watts) and `area.<component>` (mm^2).


def load_energy_config(path) -> EnergyParams:
    casters = {
        f.name: float for f in fields(EnergyParams) if f.name not in ("static_power", "area_mm2")
    }
    sections = {"static": (COMPONENTS, "component"), "area": (COMPONENTS, "component")}
    values, tables = read_parameter_file(path, "energy", casters, sections)
    return EnergyParams(
        static_power={**_default_static_power(), **tables["static"]},
        area_mm2={**_default_area(), **tables["area"]},
        **values,
    )
