"""memgift: simulator and layout compiler for a 1T1R RRAM crossbar
implementation of the GIFT block cipher.

The package splits into:

* :mod:`memgift.gift` -- bit-exact software reference cipher (the oracle).
* :mod:`memgift.layout` -- offline compiler folding key schedule, round
  constants and the bit permutation into per-slice crossbar contents.
* :mod:`memgift.crossbar` -- analog-behavioral slice model: resistive
  programmed cells, bit lines and both sense-amplifier schemes.
* :mod:`memgift.pipeline` -- encryption sessions: program once, then one
  crossbar read per round, with traces and event logs.
* :mod:`memgift.energy` -- event-based energy/power/latency/area reports.
* :mod:`memgift.masking` -- run-time S-box remasking.
* :mod:`memgift.cli` -- the `memgift` command-line frontend.
"""

from .crossbar import (
    DXOR_SCHEME,
    SCHEMES,
    SXOR_SCHEME,
    DeviceParams,
    SenseAmpScheme,
    sense_margin_report,
)
from .energy import EnergyParams, EnergyReport, account, area_report
from .errors import MemgiftError
from .gift import (
    GIFT64,
    GIFT128,
    GIFT_SBOX,
    CipherVariant,
    SBoxTable,
    decrypt_block,
    encrypt_block,
)
from .layout import (
    LayoutBundle,
    compile_layout,
    export_layout,
    import_layout,
    rc_slice_set,
)
from .masking import apply_mask, encrypt_masked, remask_sbox
from .pipeline import EncryptionSession, run_sweep

__version__ = "0.1.0"

__all__ = [
    "MemgiftError",
    "GIFT64",
    "GIFT128",
    "GIFT_SBOX",
    "CipherVariant",
    "SBoxTable",
    "encrypt_block",
    "decrypt_block",
    "LayoutBundle",
    "compile_layout",
    "export_layout",
    "import_layout",
    "rc_slice_set",
    "DeviceParams",
    "SenseAmpScheme",
    "SCHEMES",
    "SXOR_SCHEME",
    "DXOR_SCHEME",
    "sense_margin_report",
    "EncryptionSession",
    "run_sweep",
    "EnergyParams",
    "EnergyReport",
    "account",
    "area_report",
    "apply_mask",
    "encrypt_masked",
    "remask_sbox",
]
