import io
import json
import os
import random
import subprocess
import sys
import threading
import weakref
from functools import partial
from pathlib import Path

import pytest

from memgift import pipeline
from memgift.cli import main
from memgift.crossbar import CrossbarError, DeviceParams, check_margins
from memgift.gift import GIFT64, GIFT128, encrypt_block
from memgift.layout import compile_layout, import_layout
from memgift.masking import apply_mask, encrypt_masked
from memgift.pipeline import EncryptionSession, export_analog_trace, export_round_trace

KAT_KEY = "d0f5c59a7700d3e799028fa9f90ad837"
KAT_PT = "e39c141fa57dba43f08a85b6a91f86c1"
KAT_CT = "13ede67cbdcc3dbf400a62d6977265ea"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# encrypt / decrypt


def test_encrypt_kat_vector(capsys):
    code, out, err = run(
        capsys, "encrypt", "--key", KAT_KEY, "--pt", KAT_PT, "--ideal"
    )
    assert code == 0
    assert out.strip() == KAT_CT
    assert err == ""


def test_encrypt_local_mode_warns_and_differs(capsys):
    code, out, err = run(
        capsys, "encrypt", "--key", KAT_KEY, "--pt", KAT_PT, "--mode", "local"
    )
    assert code == 0
    assert out.strip() != KAT_CT
    assert "warning" in err.lower()


def test_encrypt_sxor_matches_reference(capsys):
    code, out, _ = run(
        capsys, "encrypt", "--scheme", "sxor", "--key", KAT_KEY, "--pt", KAT_PT
    )
    assert code == 0 and out.strip() == KAT_CT


def test_encrypt_masked_matches_reference(capsys):
    code, out, _ = run(
        capsys, "encrypt", "--key", KAT_KEY, "--pt", KAT_PT, "--mask", "b"
    )
    assert code == 0 and out.strip() == KAT_CT


def test_encrypt_malformed_hex_exits_2(capsys):
    code, _, err = run(capsys, "encrypt", "--key", "zz", "--pt", KAT_PT)
    assert code == 2 and "input error" in err


def test_hex_arguments_take_ascii_hex_digits_only(capsys, tmp_path, bad_hex):
    pt_file = tmp_path / "blocks.txt"
    pt_file.write_text(bad_hex(32) + "\n", encoding="utf-8")
    for argv in (
        ["encrypt", "--key", bad_hex(32), "--pt", KAT_PT],
        ["encrypt", "--key", KAT_KEY, "--pt", bad_hex(32)],
        ["encrypt", "--key", KAT_KEY, "--pt-file", str(pt_file)],
        ["encrypt", "--key", KAT_KEY, "--pt", KAT_PT, "--mask", bad_hex(1)],
        ["decrypt", "--key", KAT_KEY, "--ct", bad_hex(32)],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "input error" in err, argv


def test_encrypt_bad_device_config_exits_3(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    # the unbounded sigmas encrypted, exit 0, through overflow and NaN warnings
    for contents in (
        "r_lrs = -5\n",
        "sigma_c2c = 1e308\n",
        "sigma_d2d = 1e308\n",
        "sigma_d2d = 1e154\nsigma_c2c = 1e154\n",
        "r_lrs = 1e-320\n",  # encrypted to a wrong ciphertext through overflow warnings
    ):
        cfg.write_text(contents)
        code, out, err = run(
            capsys, "encrypt", "--key", KAT_KEY, "--pt", KAT_PT,
            "--device-params", str(cfg),
        )
        assert code == 3 and out == "" and "configuration error" in err
    code, _, _ = run(
        capsys, "encrypt", "--key", KAT_KEY, "--pt", KAT_PT,
        "--device-params", str(tmp_path / "missing.cfg"),
    )
    assert code == 3


def test_devices_whose_amps_misread_their_logic_are_refused(capsys, tmp_path):
    # From 1200 Ohm of wire up the (1, 1) XOR pairing reads 1: encrypt
    # printed a wrong ciphertext and exited 0, kat --pipeline failed every
    # vector.  Both are refused before any block, naming amp and operands.
    data = Path(__file__).parent / "data"
    device = str(data / "cli_misreading_device.cfg")
    kat = ["kat", "--file", str(data / "gift128.kat")]
    for scheme in ("dxor", "sxor"):
        for argv in (["encrypt", "--key", KAT_KEY, "--pt", KAT_PT], [*kat, "--pipeline"]):
            code, out, err = run(capsys, *argv, "--scheme", scheme, "--device-params", device)
            assert (code, out) == (3, ""), argv
            assert err == (
                f"configuration error: logic violation: {scheme}.xor reads 1 for operands (1, 1), "
                "not 0\n"
            )
    # commands that encrypt no block through the crossbar stay unguarded
    code, out, _ = run(capsys, *kat, "--device-params", device)
    assert code == 0 and "3/3 passed" in out
    assert run(capsys, "energy-report", "--device-params", device)[0] == 0
    # the guard checks the logic, not the margins: at 1000 Ohm the margins
    # fail, yet every pairing reads its logic and the ciphertext is GIFT's
    cfg = tmp_path / "wire.cfg"
    cfg.write_text("wire_r_per_cell = 1000\n")
    with pytest.raises(CrossbarError, match="margin violation"):
        check_margins("dxor", DeviceParams(wire_r_per_cell=1000))
    key = 0x000102030405060708090A0B0C0D0E0F
    code, out, _ = run(
        capsys, "encrypt", "--key", f"{key:032x}", "--pt", "0" * 32, "--device-params", str(cfg)
    )
    assert code == 0 and out == f"{encrypt_block(0, key, GIFT128):032x}\n"
    assert out == "bdaffff4a3e7ae64bbb309e2c6edffd3\n"


def test_encrypt_pt_file_and_remask(capsys, tmp_path):
    pts = tmp_path / "blocks.txt"
    blocks = ["00" * 16, "11" * 16, "22" * 16, "33" * 16]
    pts.write_text("\n".join(blocks) + "\n")
    code, out, _ = run(
        capsys, "encrypt", "--key", KAT_KEY, "--pt-file", str(pts),
        "--mask", "5", "--remask-every", "2",
    )
    assert code == 0
    key = int(KAT_KEY, 16)
    lines = out.strip().splitlines()
    assert len(lines) == 4
    for line, pt in zip(lines, blocks):
        assert int(line, 16) == encrypt_block(int(pt, 16), key, GIFT128)


@pytest.mark.parametrize("seed", [None, "3"])
def test_remask_source_is_secrets_unless_seeded(capsys, tmp_path, monkeypatch, seed):
    # without --seed the masks are unpredictable; with it the run repeats
    drawn = []

    def randbelow(n):
        drawn.append(n)
        return 7

    monkeypatch.setattr("secrets.randbelow", randbelow)
    pts = tmp_path / "blocks.txt"
    blocks = ["%032x" % (0x0123456789ABCDEF * i) for i in range(5)]
    pts.write_text("\n".join(blocks) + "\n")
    argv = ["encrypt", "--key", KAT_KEY, "--pt-file", str(pts), "--remask-every", "2"]
    trace = tmp_path / "trace.jsonl"
    argv += ["--trace", str(trace)] + (["--seed", seed] if seed else [])
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert drawn == ([16, 16] if seed is None else [])
    header = json.loads(trace.read_text().splitlines()[0])
    assert (header["mask"] == "7") == (seed is None)
    key = int(KAT_KEY, 16)
    for line, pt in zip(out.split(), blocks, strict=True):
        assert int(line, 16) == encrypt_block(int(pt, 16), key, GIFT128)


def test_cli_import_leaves_out_what_few_commands_use():
    # secrets (with hmac and hashlib) serves only an unseeded remask schedule,
    # hashlib a cell fingerprint and numpy.ma nothing: importing them cost
    # every command its start-up time
    src = str(Path(pipeline.__file__).parent.parent)
    code = (
        "import sys\n"
        "import memgift.cli\n"
        "print(sorted({'secrets', 'hashlib', 'numpy.ma'} & set(sys.modules)))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert loaded == "[]\n"


@pytest.mark.parametrize(
    "argv, code, prefix",
    [
        (["encrypt", "--key", KAT_KEY, "--pt", KAT_PT, "--device-params"], 3, "configuration"),
        (["energy-report", "--params"], 3, "configuration"),
        (["encrypt", "--key", KAT_KEY, "--pt-file"], 2, "input"),
        (["kat", "--file"], 2, "input"),
    ],
    ids=["device-params", "energy-params", "pt-file", "kat-file"],
)
def test_unreadable_input_file_is_typed_error(capsys, tmp_path, argv, code, prefix):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"# caf\xe9\n")
    got, out, err = run(capsys, *argv, str(path))
    assert got == code and out == ""
    assert f"{prefix} error: {path}: not UTF-8 text (byte offset 5)" in err
    got, out, err = run(capsys, *argv, str(tmp_path / "missing.txt"))
    assert got == code and out == "" and f"{prefix} error: " in err and "file not found" in err


def test_encrypt_negative_seed_exits_2(capsys, tmp_path):
    cfg = tmp_path / "c2c.cfg"
    cfg.write_text("sigma_c2c = 0.05\n")
    code, out, err = run(
        capsys, "encrypt", "--key", KAT_KEY, "--pt", KAT_PT, "--device-params", str(cfg),
        "--seed", "-5",
    )
    assert code == 2 and "input error: seed must be non-negative" in err and out == ""
    # from a parameter file it is a configuration error
    cfg.write_text("sigma_c2c = 0.05\nseed = -5\n")
    code, out, err = run(
        capsys, "encrypt", "--key", KAT_KEY, "--pt", KAT_PT, "--device-params", str(cfg)
    )
    assert code == 3 and "configuration error: seed must be non-negative" in err and out == ""


def test_encrypt_negative_remask_every_exits_2(capsys):
    code, out, err = run(
        capsys, "encrypt", "--key", KAT_KEY, "--pt", KAT_PT, "--remask-every", "-1"
    )
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "--remask-every" in err


def test_unknown_arguments_exit_2(capsys):
    assert run(capsys, "encrypt", "--nope")[0] == 2
    assert run(capsys, "frobnicate")[0] == 2


@pytest.mark.parametrize("bad", ["--trace", "--analog-trace"])
def test_encrypt_bad_trace_path_fails_before_any_block(capsys, tmp_path, bad):
    paths = {"--trace": tmp_path / "t.jsonl", "--analog-trace": tmp_path / "a.jsonl"}
    paths[bad] = tmp_path / "missing" / "out.jsonl"
    argv = ["encrypt", "--key", KAT_KEY, "--pt", KAT_PT]
    for flag, path in paths.items():
        argv += [flag, str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and "i/o error" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_encrypt_rejects_one_file_for_both_traces(capsys, tmp_path):
    path = tmp_path / "trace.jsonl"
    code, out, err = run(
        capsys, "encrypt", "--key", KAT_KEY, "--pt", KAT_PT, "--trace", str(path),
        "--analog-trace", f"{tmp_path}/./trace.jsonl",
    )
    assert code == 2 and out == "" and "same file" in err
    assert list(tmp_path.iterdir()) == []


PT_FILE = ("--pt-file", KAT_PT + "\n")
DEVICE_FILE = ("--device-params", "seed = 3\n")
ENCRYPT = ("encrypt", "--key", KAT_KEY)


@pytest.mark.parametrize(
    "argv, given, output, spelling",
    [
        (ENCRYPT, PT_FILE, "--trace", "{}"),
        (ENCRYPT, PT_FILE, "--analog-trace", "{}"),
        (ENCRYPT + ("--pt", KAT_PT), DEVICE_FILE, "--trace", "./{}"),
        (ENCRYPT + ("--pt", KAT_PT), DEVICE_FILE, "--analog-trace", "{}"),
        (("sweep", "--sigmas", "0", "--blocks", "1"), DEVICE_FILE, "--out", "{}"),
        (("energy-report",), ("--params", "clock_hz = 10e6\n"), "--json", "{}"),
        (("energy-report",), DEVICE_FILE, "--json", "./{}"),
    ],
    ids=[
        "pt-file/trace",
        "pt-file/analog-trace",
        "device-params/trace",
        "device-params/analog-trace",
        "sweep-device-params/out",
        "params/json",
        "energy-device-params/json",
    ],
)
def test_no_output_overwrites_an_input(
    capsys, tmp_path, monkeypatch, argv, given, output, spelling
):
    # each of these ran, exited 0 and replaced the input with its output
    monkeypatch.chdir(tmp_path)
    option, contents = given
    Path("input.txt").write_text(contents)
    code, out, err = run(capsys, *argv, option, "input.txt", output, spelling.format("input.txt"))
    assert code == 2 and out == "" and "same file" in err
    assert Path("input.txt").read_text() == contents
    assert os.listdir(tmp_path) == ["input.txt"]


def test_decrypt_reference(capsys):
    code, out, _ = run(capsys, "decrypt", "--key", KAT_KEY, "--ct", KAT_CT)
    assert code == 0 and out.strip() == KAT_PT


def test_encrypt_trace_writes_blocks_as_it_goes(capsys, tmp_path, monkeypatch):
    # A traced block's capture is released once its records are written:
    # when block k is read, nothing holds block k - 2's capture any more.
    captures, read_round = [], pipeline.read_round

    def recorded(*args):
        assert all(ref() is None for ref in captures[:-1])
        capture = read_round(*args)
        captures.append(weakref.ref(capture))
        return capture

    monkeypatch.setattr(pipeline, "read_round", recorded)
    key, seed, every = int(KAT_KEY, 16), 4, 3
    pts = [(0x0123456789ABCDEF * i) % (1 << 64) for i in range(8)]
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("".join(f"{pt:016x}\n" for pt in pts))
    t, a = tmp_path / "t.jsonl", tmp_path / "a.jsonl"
    code, out, _ = run(
        capsys, "encrypt", "--variant", "64", "--key", KAT_KEY, "--pt-file", str(blocks),
        "--seed", str(seed), "--remask-every", str(every), "--trace", str(t),
        "--analog-trace", str(a),
    )
    assert code == 0 and len(captures) == len(pts)
    monkeypatch.undo()
    # the files hold what one export of every block's traces writes
    session = EncryptionSession(key, GIFT64, "dxor", DeviceParams(seed=seed))
    next_mask = partial(random.Random(seed).randrange, 16)
    cts, traces = [], []
    for i, pt in enumerate(pts):
        if i and i % every == 0:
            apply_mask(session, next_mask())
        ct, block = encrypt_masked(session, pt, session.mask, trace=True)
        cts.append(f"{ct:016x}")
        traces += block
    assert out.split() == cts
    rounds, analog = io.StringIO(), io.StringIO()
    export_round_trace(session, traces, rounds)
    export_analog_trace(traces, analog)
    assert t.read_text() == rounds.getvalue()
    assert a.read_text() == analog.getvalue()


def twin_round_trace(seed, mask, every, pts) -> str:
    """The round trace a library session writes for `encrypt --variant 64
    --seed SEED --mask MASK --remask-every EVERY` over pts."""
    session = EncryptionSession(int(KAT_KEY, 16), GIFT64, "dxor", DeviceParams(seed=seed))
    apply_mask(session, mask)
    next_mask = partial(random.Random(seed).randrange, 16)
    traces = []
    for i, pt in enumerate(pts):
        if i and i % every == 0:
            apply_mask(session, next_mask())
        traces += encrypt_masked(session, pt, session.mask, trace=True)[1]
    fp = io.StringIO()
    export_round_trace(session, traces, fp)
    return fp.getvalue()


@pytest.mark.parametrize("target", ["file", "pipe"])
def test_round_trace_header_names_the_final_mask(capsys, tmp_path, target):
    # The header is first written under the mask programmed before block 0
    # (3), and at exit under the last one (f): over the first on a file,
    # ahead of the held records on a pipe, which cannot seek.
    seed, mask, every = 6, 3, 2
    pts = [(0x0123456789ABCDEF * (i + 1)) % (1 << 64) for i in range(5)]
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("".join(f"{pt:016x}\n" for pt in pts))
    path = tmp_path / "trace.jsonl"
    if target == "pipe":
        if not hasattr(os, "mkfifo"):
            pytest.skip("no named pipes on this platform")
        os.mkfifo(path)
        got = []
        reader = threading.Thread(target=lambda: got.append(path.read_text()), daemon=True)
        reader.start()
    code, _, _ = run(
        capsys, "encrypt", "--variant", "64", "--key", KAT_KEY, "--pt-file", str(blocks),
        "--seed", str(seed), "--mask", f"{mask:x}", "--remask-every", str(every),
        "--trace", str(path),
    )
    assert code == 0
    if target == "pipe":
        reader.join(timeout=60)
        assert not reader.is_alive()
        text = got[0]
    else:
        text = path.read_text()
    assert text == twin_round_trace(seed, mask, every, pts)
    assert json.loads(text.splitlines()[0])["mask"] == "f"


def test_round_trace_streams_to_a_pipe(capsys, tmp_path, monkeypatch):
    # each block's round records reach the pipe before the next block is read
    if not hasattr(os, "mkfifo"):
        pytest.skip("no named pipes on this platform")
    path = tmp_path / "trace.jsonl"
    os.mkfifo(path)
    lines, arrived = [], threading.Condition()

    def reader():
        with open(path) as fp:
            for line in fp:
                with arrived:
                    lines.append(line)
                    arrived.notify_all()

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    on_time, read_round = [], pipeline.read_round

    def recorded(*args):
        # block k is being read: the header and k blocks of records are due
        due = 1 + len(on_time) * GIFT64.rounds
        with arrived:
            timeout = 10 if all(on_time) else 0
            on_time.append(arrived.wait_for(lambda: len(lines) >= due, timeout))
        return read_round(*args)

    monkeypatch.setattr(pipeline, "read_round", recorded)
    # 4 blocks remasked every 2: block 4 would be a remask point, but it is
    # never read, so no mask is drawn for it
    seed, mask, every = 2, 3, 2
    pts = [0x0123456789ABCDEF * i for i in range(4)]
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("".join(f"{pt:016x}\n" for pt in pts))
    code, _, _ = run(
        capsys, "encrypt", "--variant", "64", "--key", KAT_KEY, "--pt-file", str(blocks),
        "--seed", str(seed), "--mask", f"{mask:x}", "--remask-every", str(every),
        "--trace", str(path),
    )
    monkeypatch.undo()
    thread.join(timeout=60)
    assert code == 0 and not thread.is_alive()
    assert on_time == [True] * len(pts)
    assert "".join(lines) == twin_round_trace(seed, mask, every, pts)


def test_trace_files_deterministic(capsys, tmp_path):
    t1, a1 = tmp_path / "t1.jsonl", tmp_path / "a1.jsonl"
    t2, a2 = tmp_path / "t2.jsonl", tmp_path / "a2.jsonl"
    base = [
        "encrypt", "--key", KAT_KEY, "--pt", KAT_PT, "--seed", "17",
        "--device-params",
    ]
    cfg = tmp_path / "noise.cfg"
    cfg.write_text("sigma_c2c = 0.05\n")
    for t, a in ((t1, a1), (t2, a2)):
        code, _, _ = run(
            capsys, *base, str(cfg), "--trace", str(t), "--analog-trace", str(a)
        )
        assert code == 0
    assert t1.read_bytes() == t2.read_bytes()
    assert a1.read_bytes() == a2.read_bytes()
    first = json.loads(t1.read_text().splitlines()[0])
    assert first["record"] == "session" and first["seed"] == 17


# ---------------------------------------------------------------------------
# compile-layout


def test_compile_layout_round_trip(capsys, tmp_path):
    out_file = tmp_path / "kat.layout"
    code, out, _ = run(
        capsys, "compile-layout", "--key", KAT_KEY, "--out", str(out_file)
    )
    assert code == 0 and "32 slices" in out
    assert import_layout(out_file) == compile_layout(int(KAT_KEY, 16), GIFT128)


# ---------------------------------------------------------------------------
# kat


def test_kat_command_passes(capsys, tmp_path):
    f = tmp_path / "v.kat"
    f.write_text(f"key={KAT_KEY} pt={KAT_PT} ct={KAT_CT}\n")
    code, out, _ = run(capsys, "kat", "--file", str(f))
    assert code == 0 and "1/1 passed" in out


def test_kat_command_official_files(capsys):
    from pathlib import Path

    data = Path(__file__).parent / "data"
    for name in ("gift64.kat", "gift128.kat"):
        code, out, _ = run(capsys, "kat", "--file", str(data / name))
        assert code == 0 and "3/3 passed" in out


def test_kat_command_pipeline_mode(capsys, tmp_path):
    f = tmp_path / "v.kat"
    f.write_text(f"key={KAT_KEY} pt={KAT_PT} ct={KAT_CT}\n")
    code, out, _ = run(capsys, "kat", "--file", str(f), "--pipeline", "--scheme", "sxor")
    assert code == 0 and "reference+pipeline" in out


def test_kat_command_fails_on_bad_vector(capsys, tmp_path):
    f = tmp_path / "v.kat"
    f.write_text(f"key={KAT_KEY} pt={KAT_PT} ct={'0' * 32}\n")
    code, out, _ = run(capsys, "kat", "--file", str(f))
    assert code == 1 and "0/1 passed" in out


def test_kat_command_rejects_a_repeated_field(capsys, tmp_path):
    # the last ct, the right one, was checked and the line passed
    f = tmp_path / "v.kat"
    f.write_text(f"key={KAT_KEY} pt={KAT_PT} ct={'0' * 32} ct={KAT_CT}\n")
    code, out, err = run(capsys, "kat", "--file", str(f))
    assert code == 2 and out == "" and "repeated field 'ct'" in err


def test_kat_command_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "kat", "--file", str(tmp_path / "none.kat"))
    assert code == 2 and "input error" in err


# ---------------------------------------------------------------------------
# energy-report


def test_energy_report_dxor_defaults(capsys, tmp_path):
    out_json = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "energy-report", "--scheme", "dxor", "--json", str(out_json)
    )
    assert code == 0
    assert "241.52" in out and "60.38" in out and "0.0034" in out
    payload = json.loads(out_json.read_text())
    assert payload["scheme"] == "dxor"
    assert abs(payload["total_energy_pj"] - 241.52) < 0.01
    assert payload["area"]["total_mm2"] == pytest.approx(0.0034)


def test_energy_report_sxor(capsys):
    code, out, _ = run(capsys, "energy-report", "--scheme", "sxor")
    assert code == 0 and "1030.4" in out and "257.6" in out


def test_energy_report_bad_config(capsys, tmp_path):
    cfg = tmp_path / "e.cfg"
    cfg.write_text("nonsense = 1\n")
    code, _, err = run(capsys, "energy-report", "--params", str(cfg))
    assert code == 3 and "configuration error" in err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_zero_sigma(capsys, tmp_path):
    out_file = tmp_path / "sweep.txt"
    code, _, _ = run(
        capsys, "sweep", "--sigmas", "0", "--blocks", "2", "--out", str(out_file)
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("# sigma_c2c")
    sigma0 = lines[1].split()
    assert sigma0[3] == "0" and sigma0[5] == "0"  # zero bit and block errors


def test_sweep_stdout_and_bad_sigmas(capsys):
    code, out, _ = run(capsys, "sweep", "--sigmas", "0,0.1", "--blocks", "1")
    assert code == 0 and len(out.strip().splitlines()) == 3
    code, _, err = run(capsys, "sweep", "--sigmas", "zero")
    assert code == 2 and "input error" in err
    code, out, err = run(capsys, "sweep", "--sigmas", "-0.1", "--blocks", "1")
    assert code == 2 and "input error" in err and out == ""
    code, out, err = run(capsys, "sweep", "--sigmas", "0,nan", "--blocks", "1")
    assert code == 2 and "input error" in err and out == ""
    code, out, err = run(capsys, "sweep", "--blocks", "-3")
    assert code == 2 and "input error" in err and out == ""


def test_sweep_rejects_unbounded_sigmas_exits_2(capsys, tmp_path):
    # 1e308 reported a BER of 0.526; 1e154 is out of bounds on a d2d of 1e154
    code, out, err = run(capsys, "sweep", "--sigmas", "0,1e308", "--blocks", "1")
    assert code == 2 and out == "" and "largest read resistance" in err
    cfg = tmp_path / "params.cfg"
    cfg.write_text("sigma_d2d = 1e154\n")
    code, out, err = run(
        capsys, "sweep", "--sigmas", "0,1e154", "--blocks", "1", "--device-params", str(cfg)
    )
    assert code == 2 and out == "" and "largest read resistance" in err


def test_sweep_negative_seed_exits_2(capsys):
    code, out, err = run(capsys, "sweep", "--seed", "-1", "--blocks", "1")
    assert code == 2 and "input error: seed must be non-negative" in err and out == ""
