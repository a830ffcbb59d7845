"""Golden outputs of seeded traced runs and of the energy report.

The files in tests/data pin the round trace (committed whole), the
SHA-256 of the analog trace (too large to commit) and `energy-report
--json` for both schemes, so a refactor of the read path cannot shift
them unnoticed.  Both trace files of one remasked, noisy `memgift
encrypt` run are pinned the same way, so the CLI's own writing of them
is covered too, and so are the ciphertexts of `memgift encrypt` on cells
with device-to-device variation only, at three remask intervals and, for
both variants, on cells whose reads depart from the nominal grid's in
thousands of rows (sigma_d2d = 0.3), as programmed and remasked every
block, which rebuilds the walk of such cells at each block.  The same
blocks' ciphertexts on nominal cells read with cycle-to-cycle noise are
pinned too, and so is a traced CLI run on them: at sigma_c2c = 0.05 no
read can leave its ideal value, at 0.12 behind 800 ohm of wire many do.
Traces
on ideal devices (nominal cells, no read noise) are pinned the same way,
in process and through the CLI, because every nominal read is one of a
few cell pairings that a faster path may gather rather than sense.
Traces on cells with device-to-device variation only are pinned too, in
process and through the CLI: their reads are sensed, yet a read-out
column reads the same in every round, so their record tails repeat.
`memgift compile-layout` files of KEY for both variants are pinned too, so
a change to how a layout bundle holds its bits cannot move the file.
Regenerate, only for a deliberate change, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from memgift.cli import main
from memgift.crossbar import DeviceParams
from memgift.gift import GIFT64, GIFT128
from memgift.layout import compile_layout, export_layout, import_layout
from memgift.masking import apply_mask, encrypt_masked
from memgift.pipeline import EncryptionSession, export_analog_trace, export_round_trace

DATA_DIR = Path(__file__).parent / "data"

KEY = 0x0F1E2D3C4B5A69788796A5B4C3D2E1F0
MASK = 9

# One block, then apply_mask(MASK), then one masked block.
TRACE_RUNS = {
    "trace_gift64_sxor": dict(
        variant=GIFT64, scheme="sxor", feedback="permuted",
        params=DeviceParams(sigma_c2c=0.08, sigma_d2d=0.03, seed=5),
        pts=(0x0123456789ABCDEF, 0xFEDCBA9876543210),
    ),
    "trace_gift128_dxor_wire_local": dict(
        variant=GIFT128, scheme="dxor", feedback="local",
        params=DeviceParams(sigma_c2c=0.08, sigma_d2d=0.03, wire_r_per_cell=150.0, seed=5),
        pts=(0x00112233445566778899AABBCCDDEEFF, 0xFFEEDDCCBBAA99887766554433221100),
    ),
}
# The same runs on ideal devices, with and without wire resistance.
for _wire in (0.0, 150.0):
    _suffix = "_wire" if _wire else ""
    TRACE_RUNS[f"nominal_gift64_sxor{_suffix}"] = dict(
        TRACE_RUNS["trace_gift64_sxor"], params=DeviceParams(wire_r_per_cell=_wire)
    )
    TRACE_RUNS[f"nominal_gift128_dxor{_suffix}"] = dict(
        TRACE_RUNS["trace_gift128_dxor_wire_local"],
        feedback="permuted", params=DeviceParams(wire_r_per_cell=_wire),
    )
# The GIFT-64 run on cells with d2d variation only: sensed, without read noise.
TRACE_RUNS["d2d_gift64_sxor"] = dict(
    TRACE_RUNS["trace_gift64_sxor"], params=DeviceParams(sigma_d2d=0.05, seed=5)
)


# `memgift encrypt` over 7 GIFT-128 blocks, remasked every 2 blocks, with
# c2c and d2d variation and wire resistance, both traces written.  It reads
# its device file and blocks from tests/data, which hold these bytes, so
# that CI can run it as a console script.
CLI_RUN = "cli_gift128_remask"
CLI_DEVICE = "sigma_c2c = 0.05\nsigma_d2d = 0.02\nwire_r_per_cell = 100\n"
CLI_PTS = [(0x0123456789ABCDEF0F1E2D3C4B5A6978 * (i + 1)) % (1 << 128) for i in range(7)]
CLI_DEVICE_FILE, CLI_BLOCKS = DATA_DIR / f"{CLI_RUN}.cfg", DATA_DIR / "cli_gift128_blocks.txt"

# The same blocks on ideal devices, remasked every 2.
NOMINAL_CLI_RUN = "cli_gift128_nominal"

# The same blocks on the d2d golden run's devices (sigma_d2d 0.1 only).
D2D_CLI_RUN = "cli_gift128_d2d"


# `memgift encrypt` over 64 GIFT-128 blocks on cells with d2d variation
# only, remasked every 0, 1 and 3 blocks: every read walks a read table
# sensed on varied cells.  At sigma_d2d = 0.1 most ciphertexts carry device
# faults, so these pin the analog outcome, not GIFT.
D2D_BLOCKS, D2D_DEVICE = DATA_DIR / "cli_d2d_blocks.txt", DATA_DIR / "cli_d2d_device.cfg"
D2D_INTERVALS = (0, 1, 3)

# `memgift encrypt` of the same blocks, and for GIFT-64 of their first 16
# digits, on cells with sigma_d2d = 0.3: a GIFT-128 array's ideal reads
# depart from the nominal grid's in thousands of (round, slice, row)
# triples, against some 60 at 0.1, so these pin a walk whose rounds read
# their own byte tables; remasked every block, they pin its rebuild too.
DENSE_DEVICE, DENSE_DEVICE_TEXT = DATA_DIR / "cli_d2d_dense_device.cfg", "sigma_d2d = 0.3\n"
DENSE_BLOCKS = {128: D2D_BLOCKS, 64: DATA_DIR / "cli_d2d_blocks64.txt"}

# `memgift encrypt` of the same blocks on nominal cells read with
# cycle-to-cycle noise: at sigma_c2c = 0.05 every read stays clear of its
# amp's decision points; at 0.12 behind 800 ohm of wire many reads are
# decided and every block misreads.  The traced CLI run is repeated on the
# first devices.
C2C_DEVICES = {
    "c2c": "sigma_c2c = 0.05\n",
    "c2c_thin": "sigma_c2c = 0.12\nwire_r_per_cell = 800\n",
}
C2C_CLI_RUN = "cli_gift128_c2c"


def c2c_device(name: str) -> Path:
    return DATA_DIR / f"cli_{name}_device.cfg"


def printed(argv) -> str:
    """What `memgift` prints for argv, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def cli_d2d_run(every: int) -> str:
    """What `memgift encrypt` prints for the d2d golden run remasked every
    `every` blocks."""
    return printed([
        "encrypt", "--key", f"{KEY:032x}", "--pt-file", str(D2D_BLOCKS),
        "--device-params", str(D2D_DEVICE), "--seed", "4", "--remask-every", str(every),
    ])


def cli_dense_run(bits: int, every=None, device=DENSE_DEVICE) -> str:
    """What `memgift encrypt` prints for the dense d2d golden run of
    GIFT-`bits`, remasked every `every` blocks if given, or for the same
    blocks on the devices of `device`."""
    remask = [] if every is None else ["--remask-every", str(every)]
    return printed([
        "encrypt", "--variant", str(bits), "--key", f"{KEY:032x}",
        "--pt-file", str(DENSE_BLOCKS[bits]), "--device-params", str(device), "--seed", "4",
        *remask,
    ])


def blocks64_text() -> str:
    """The GIFT-64 blocks of the dense run: each d2d block's first 16 digits."""
    return "".join(line[:16] + "\n" for line in D2D_BLOCKS.read_text().splitlines())


def traced_run(case) -> tuple[str, str]:
    """Round trace and analog trace text of one golden run."""
    session = EncryptionSession(
        KEY, case["variant"], case["scheme"], case["params"], case["feedback"]
    )
    first, second = case["pts"]
    _, traces = session.encrypt(first, trace=True)
    apply_mask(session, MASK)
    _, masked = encrypt_masked(session, second, MASK, trace=True)
    traces = traces + masked
    round_fp, analog_fp = io.StringIO(), io.StringIO()
    export_round_trace(session, traces, round_fp)
    export_analog_trace(traces, analog_fp)
    return round_fp.getvalue(), analog_fp.getvalue()


def cli_blocks_text() -> str:
    """The bytes of the golden CLI runs' block file."""
    return "".join(f"{pt:032x}\n" for pt in CLI_PTS)


def cli_traced_run(tmp: Path, device_file=CLI_DEVICE_FILE) -> tuple[str, str]:
    """Round trace and analog trace files of a golden CLI run over the CLI
    blocks, on the devices of `device_file` (ideal ones when None)."""
    round_path, analog_path = tmp / "trace.jsonl", tmp / "analog.jsonl"
    device = [] if device_file is None else ["--device-params", str(device_file)]
    argv = [
        "encrypt", "--key", f"{KEY:032x}", "--pt-file", str(CLI_BLOCKS), "--remask-every", "2",
        "--seed", "5", *device, "--trace", str(round_path), "--analog-trace", str(analog_path),
    ]
    assert main(argv) == 0
    return round_path.read_text(), analog_path.read_text()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest() + "\n"


def energy_json(scheme: str, out: Path) -> str:
    assert main(["energy-report", "--scheme", scheme, "--json", str(out)]) == 0
    return out.read_text()


@pytest.mark.parametrize("name", sorted(TRACE_RUNS))
def test_traces_match_golden(name):
    round_text, analog_text = traced_run(TRACE_RUNS[name])
    assert round_text == (DATA_DIR / f"{name}.jsonl").read_text()
    assert sha256(analog_text) == (DATA_DIR / f"{name}.analog.sha256").read_text()


def test_cli_traces_match_golden(tmp_path, capsys):
    assert CLI_DEVICE_FILE.read_text() == CLI_DEVICE
    assert CLI_BLOCKS.read_text() == cli_blocks_text()
    round_text, analog_text = cli_traced_run(tmp_path)
    capsys.readouterr()
    assert round_text == (DATA_DIR / f"{CLI_RUN}.jsonl").read_text()
    assert sha256(analog_text) == (DATA_DIR / f"{CLI_RUN}.analog.sha256").read_text()


def test_cli_nominal_traces_match_golden(tmp_path, capsys):
    assert CLI_BLOCKS.read_text() == cli_blocks_text()
    round_text, analog_text = cli_traced_run(tmp_path, None)
    capsys.readouterr()
    assert round_text == (DATA_DIR / f"{NOMINAL_CLI_RUN}.jsonl").read_text()
    assert sha256(analog_text) == (DATA_DIR / f"{NOMINAL_CLI_RUN}.analog.sha256").read_text()


def test_cli_d2d_traces_match_golden(tmp_path, capsys):
    assert CLI_BLOCKS.read_text() == cli_blocks_text()
    round_text, analog_text = cli_traced_run(tmp_path, D2D_DEVICE)
    capsys.readouterr()
    assert round_text == (DATA_DIR / f"{D2D_CLI_RUN}.jsonl").read_text()
    assert sha256(analog_text) == (DATA_DIR / f"{D2D_CLI_RUN}.analog.sha256").read_text()


def test_cli_c2c_traces_match_golden(tmp_path, capsys):
    assert CLI_BLOCKS.read_text() == cli_blocks_text()
    round_text, analog_text = cli_traced_run(tmp_path, c2c_device("c2c"))
    capsys.readouterr()
    assert round_text == (DATA_DIR / f"{C2C_CLI_RUN}.jsonl").read_text()
    assert sha256(analog_text) == (DATA_DIR / f"{C2C_CLI_RUN}.analog.sha256").read_text()


@pytest.mark.parametrize("every", D2D_INTERVALS)
def test_cli_d2d_ciphertexts_match_golden(every):
    assert cli_d2d_run(every) == (DATA_DIR / f"cli_d2d_every{every}.txt").read_text()


@pytest.mark.parametrize("bits", sorted(DENSE_BLOCKS))
def test_cli_dense_d2d_ciphertexts_match_golden(bits):
    assert DENSE_DEVICE.read_text() == DENSE_DEVICE_TEXT
    assert DENSE_BLOCKS[64].read_text() == blocks64_text()
    assert cli_dense_run(bits) == (DATA_DIR / f"cli_d2d_dense_gift{bits}.txt").read_text()


@pytest.mark.parametrize("bits", sorted(DENSE_BLOCKS))
def test_cli_dense_d2d_remasked_ciphertexts_match_golden(bits):
    golden = DATA_DIR / f"cli_d2d_dense_every1_gift{bits}.txt"
    assert cli_dense_run(bits, every=1) == golden.read_text()


@pytest.mark.parametrize("bits", sorted(DENSE_BLOCKS))
@pytest.mark.parametrize("name", sorted(C2C_DEVICES))
def test_cli_c2c_ciphertexts_match_golden(name, bits):
    assert c2c_device(name).read_text() == C2C_DEVICES[name]
    got = cli_dense_run(bits, device=c2c_device(name))
    assert got == (DATA_DIR / f"cli_{name}_gift{bits}.txt").read_text()


@pytest.mark.parametrize("scheme", ["sxor", "dxor"])
def test_energy_report_matches_golden(tmp_path, scheme, capsys):
    got = energy_json(scheme, tmp_path / "energy.json")
    capsys.readouterr()
    assert got == (DATA_DIR / f"energy_{scheme}.json").read_text()


@pytest.mark.parametrize("variant", [GIFT64, GIFT128], ids=lambda v: v.name)
def test_layout_file_matches_golden(tmp_path, variant):
    golden = DATA_DIR / f"layout_gift{variant.block_bits}.txt"
    bundle = compile_layout(KEY, variant)
    export_layout(bundle, tmp_path / "layout.txt")
    assert (tmp_path / "layout.txt").read_bytes() == golden.read_bytes()
    assert import_layout(golden) == bundle


if __name__ == "__main__":
    import tempfile

    for name, case in TRACE_RUNS.items():
        round_text, analog_text = traced_run(case)
        (DATA_DIR / f"{name}.jsonl").write_text(round_text)
        (DATA_DIR / f"{name}.analog.sha256").write_text(sha256(analog_text))
    for every in D2D_INTERVALS:
        (DATA_DIR / f"cli_d2d_every{every}.txt").write_text(cli_d2d_run(every))
    DENSE_DEVICE.write_text(DENSE_DEVICE_TEXT)
    DENSE_BLOCKS[64].write_text(blocks64_text())
    for bits in DENSE_BLOCKS:
        (DATA_DIR / f"cli_d2d_dense_gift{bits}.txt").write_text(cli_dense_run(bits))
        (DATA_DIR / f"cli_d2d_dense_every1_gift{bits}.txt").write_text(cli_dense_run(bits, 1))
    for name, text in C2C_DEVICES.items():
        c2c_device(name).write_text(text)
        for bits in DENSE_BLOCKS:
            golden = DATA_DIR / f"cli_{name}_gift{bits}.txt"
            golden.write_text(cli_dense_run(bits, device=c2c_device(name)))
    CLI_DEVICE_FILE.write_text(CLI_DEVICE)
    CLI_BLOCKS.write_text(cli_blocks_text())
    with tempfile.TemporaryDirectory() as tmp:
        for run, device in ((CLI_RUN, CLI_DEVICE_FILE), (NOMINAL_CLI_RUN, None),
                            (D2D_CLI_RUN, D2D_DEVICE), (C2C_CLI_RUN, c2c_device("c2c"))):
            round_text, analog_text = cli_traced_run(Path(tmp), device)
            (DATA_DIR / f"{run}.jsonl").write_text(round_text)
            (DATA_DIR / f"{run}.analog.sha256").write_text(sha256(analog_text))
        for scheme in ("sxor", "dxor"):
            text = energy_json(scheme, Path(tmp) / "energy.json")
            (DATA_DIR / f"energy_{scheme}.json").write_text(text)
    for variant in (GIFT64, GIFT128):
        export_layout(compile_layout(KEY, variant), DATA_DIR / f"layout_gift{variant.block_bits}.txt")
