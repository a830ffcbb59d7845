"""Command-line frontend.

Subcommands: encrypt, decrypt (reference software only), compile-layout,
kat, energy-report, sweep.  Exit codes: 0 success, 1 verification failure,
2 input error, 3 configuration error (also devices whose amps misread an
operand pairing's logic, refused before encrypt or kat --pipeline reads).

Hex I/O is most-significant digit first; bit 0 of a state is the least
significant bit of its hex value and nibble j covers bits 4j..4j+3.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from contextlib import ExitStack
from dataclasses import replace
from functools import partial
from pathlib import Path

from .crossbar import (
    SCHEMES,
    ConfigError,
    CrossbarError,
    DeviceParams,
    check_logic,
    load_device_config,
)
from .energy import EnergyParams, account, area_report, load_energy_config
from .errors import MemgiftError, read_text
from .gift import (
    GiftError,
    decrypt_block,
    encrypt_block,
    load_kat_file,
    parse_hex,
    variant_for,
)
from .layout import compile_layout, export_layout
from .masking import apply_mask, encrypt_masked
from .pipeline import (
    EncryptionSession,
    PipelineError,
    export_analog_trace,
    format_sweep_table,
    round_trace_header,
    round_trace_records,
    run_sweep,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_CONFIG = 3

LOCAL_MODE_BANNER = (
    "warning: `local` feedback keeps every nibble inside its own slice; "
    "output will NOT match GIFT (diagnostic mode)"
)


def _parse_hex(text: str, digits: int, what: str) -> int:
    text = text.strip().lower().removeprefix("0x")
    if len(text) != digits:
        raise GiftError(f"{what}: expected {digits} hex digits, got {len(text)}")
    return parse_hex(text, what)


def _load_setup(args):
    """Device parameters + sense-amp schemes from file/flags."""
    if args.device_params:
        params, schemes = load_device_config(args.device_params)
    else:
        params, schemes = DeviceParams(), dict(SCHEMES)
    if args.seed is not None:
        params = replace(params, seed=args.seed)
    if getattr(args, "ideal", False):
        params = replace(params, sigma_d2d=0.0, sigma_c2c=0.0)
    return params, schemes


def _check_logic(scheme, params) -> None:
    """Before the first block: refuse devices whose nominal read of some
    operand pairing is not its logic value (`crossbar.check_logic`)."""
    try:
        check_logic(scheme, params)
    except CrossbarError as exc:
        raise ConfigError(str(exc)) from None


# The file options of every command, by their argparse dest.
INPUT_FILES = ("pt_file", "device_params", "params")
OUTPUT_FILES = ("trace", "analog_trace", "out", "json")


def _check_outputs(args) -> None:
    """Before any work: each output path must name a file that is no input
    and no other output, so that no command overwrites what it reads."""
    seen = {}  # resolved path -> the first option naming it
    for dest in INPUT_FILES + OUTPUT_FILES:
        if path := getattr(args, dest, None):
            option, resolved = "--" + dest.replace("_", "-"), Path(path).resolve()
            if dest in OUTPUT_FILES and resolved in seen:
                raise PipelineError(f"{seen[resolved]} and {option} name the same file: {path}")
            seen.setdefault(resolved, option)


def _read_blocks(args, variant) -> list[int]:
    digits = variant.block_bits // 4
    if args.pt is not None:
        return [_parse_hex(args.pt, digits, "plaintext")]
    path = args.pt_file
    blocks = []
    for line in read_text(path, GiftError).splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            blocks.append(_parse_hex(line, digits, f"{path}: plaintext"))
    if not blocks:
        raise GiftError(f"{path}: no plaintext blocks")
    return blocks


def cmd_encrypt(args) -> int:
    if args.remask_every < 0:
        raise PipelineError(f"--remask-every must be non-negative, got {args.remask_every}")
    variant = variant_for(args.variant)
    key = _parse_hex(args.key, 32, "key")
    params, schemes = _load_setup(args)
    _check_logic(schemes[args.scheme], params)
    blocks = _read_blocks(args, variant)
    if args.mode == "local":
        print(LOCAL_MODE_BANNER, file=sys.stderr)

    session = EncryptionSession(key, variant, schemes[args.scheme], params, args.mode)
    if args.mask is not None:
        apply_mask(session, _parse_hex(args.mask, 1, "mask"))

    # The mask schedule is drawn before the first block, so that the round
    # trace's header can name the final mask and every block stream after
    # it.  Remasks are unpredictable unless --seed asks for a repeatable run.
    if args.seed is None:
        import secrets  # here: it loads hmac and hashlib, which only this schedule needs

        next_mask = partial(secrets.randbelow, 16)
    else:
        next_mask = partial(random.Random(args.seed).randrange, 16)
    every = args.remask_every
    remasks = {i: next_mask() for i in (range(every, len(blocks), every) if every else ())}
    want_trace = bool(args.trace or args.analog_trace)
    digits = variant.block_bits // 4
    with ExitStack() as stack:
        trace_fp, analog_fp = _create_outputs(stack, args.trace, args.analog_trace)
        if trace_fp:
            final_mask = next(reversed(remasks.values()), session.mask)
            trace_fp.write(round_trace_header(session, final_mask))
        for i, pt in enumerate(blocks):
            if trace_fp:
                # a reader at the other end of a pipe gets the header and
                # each block's records before the next block is read
                trace_fp.flush()
            if i in remasks:
                apply_mask(session, remasks[i])
            # mask 0 is the plain read: replicate_mask(0, n) == 0
            ct, traces = encrypt_masked(session, pt, session.mask, trace=want_trace)
            if trace_fp:
                trace_fp.write(round_trace_records(traces))
            if analog_fp:
                export_analog_trace(traces, analog_fp)
            print(f"{ct:0{digits}x}")
    return EXIT_OK


def _create_outputs(stack: ExitStack, *paths):
    """Open each given path for writing (None where none is given) before
    any block is encrypted, so a bad path costs nothing; if one cannot be
    opened, the files already created are removed."""
    files = []
    try:
        for path in paths:
            files.append(stack.enter_context(open(path, "w")) if path else None)
    except OSError:
        for fp in filter(None, files):
            fp.close()
            os.remove(fp.name)
        raise
    return files


def cmd_decrypt(args) -> int:
    variant = variant_for(args.variant)
    key = _parse_hex(args.key, 32, "key")
    ct = _parse_hex(args.ct, variant.block_bits // 4, "ciphertext")
    pt = decrypt_block(ct, key, variant)
    print(f"{pt:0{variant.block_bits // 4}x}")
    return EXIT_OK


def cmd_compile_layout(args) -> int:
    variant = variant_for(args.variant)
    key = _parse_hex(args.key, 32, "key")
    bundle = compile_layout(key, variant)
    export_layout(bundle, args.out)
    print(
        f"wrote {variant.name} layout ({len(bundle.slices)} slices, "
        f"{bundle.cell_count()} cells) to {args.out}"
    )
    return EXIT_OK


def cmd_kat(args) -> int:
    vectors = load_kat_file(args.file)
    params, schemes = _load_setup(args)
    if args.pipeline:
        _check_logic(schemes[args.scheme], params)
    passed = failed = 0
    for i, vec in enumerate(vectors):
        ok = encrypt_block(vec.pt, vec.key, vec.variant) == vec.ct
        if ok and args.pipeline:
            session = EncryptionSession(vec.key, vec.variant, schemes[args.scheme], params)
            ok = session.encrypt(vec.pt)[0] == vec.ct
        if ok:
            passed += 1
        else:
            failed += 1
            print(f"FAIL vector {i}: key={vec.key:032x} pt={vec.pt:x}")
    mode = "reference+pipeline" if args.pipeline else "reference"
    print(f"kat ({mode}): {passed}/{len(vectors)} passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFICATION


def cmd_energy_report(args) -> int:
    energy_params = load_energy_config(args.params) if args.params else EnergyParams()
    device_params, schemes = _load_setup(args)
    session = EncryptionSession(0, args.variant, schemes[args.scheme], device_params)
    session.encrypt(0)
    report = account(session.session_log(), energy_params)
    area = area_report(args.variant, energy_params)
    print(report.format_table(), end="")
    print(f"  total area         {area.total_mm2:.4f} mm^2")
    if args.json:
        payload = report.to_dict()
        payload["area"] = area.to_dict()
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def cmd_sweep(args) -> int:
    params, schemes = _load_setup(args)
    try:
        sigmas = [float(s) for s in args.sigmas.split(",") if s.strip()]
    except ValueError:
        raise GiftError(f"invalid sigma list: {args.sigmas!r}") from None
    if not sigmas:
        raise GiftError("empty sigma list")
    points = run_sweep(
        args.variant, schemes[args.scheme], sigmas, blocks=args.blocks, base_params=params
    )
    table = format_sweep_table(points)
    if args.out:
        Path(args.out).write_text(table)
        print(f"wrote {len(points)} sweep points to {args.out}")
    else:
        print(table, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memgift",
        description=(
            "Simulate the 1T1R crossbar implementation of the GIFT cipher. "
            "Hex arguments are most-significant digit first."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--variant", type=int, choices=(64, 128), default=128)
        p.add_argument("--scheme", choices=tuple(SCHEMES), default="dxor")
        p.add_argument("--device-params", metavar="FILE")
        p.add_argument("--seed", type=int, default=None)

    enc = sub.add_parser("encrypt", help="encrypt through the crossbar pipeline")
    common(enc)
    enc.add_argument("--key", required=True, help="128-bit key, 32 hex digits")
    src = enc.add_mutually_exclusive_group(required=True)
    src.add_argument("--pt", help="one plaintext block in hex")
    src.add_argument("--pt-file", help="file with one hex block per line")
    enc.add_argument("--mode", choices=("permuted", "local"), default="permuted")
    enc.add_argument("--ideal", action="store_true", help="force zero device variation")
    enc.add_argument("--mask", help="4-bit S-box mask (hex digit)")
    enc.add_argument(
        "--remask-every", type=int, default=0, metavar="N",
        help="refresh the mask every N blocks (0 = never)",
    )
    enc.add_argument("--trace", metavar="FILE", help="round trace (JSON lines)")
    enc.add_argument("--analog-trace", metavar="FILE", help="per-column trace (JSON lines)")
    enc.set_defaults(func=cmd_encrypt)

    dec = sub.add_parser("decrypt", help="reference software decryption")
    dec.add_argument("--variant", type=int, choices=(64, 128), default=128)
    dec.add_argument("--key", required=True)
    dec.add_argument("--ct", required=True)
    dec.set_defaults(func=cmd_decrypt)

    comp = sub.add_parser("compile-layout", help="write the per-slice layout file")
    comp.add_argument("--variant", type=int, choices=(64, 128), default=128)
    comp.add_argument("--key", required=True)
    comp.add_argument("--out", required=True)
    comp.set_defaults(func=cmd_compile_layout)

    kat = sub.add_parser("kat", help="run a known-answer-test file")
    common(kat)
    kat.add_argument("--file", required=True)
    kat.add_argument(
        "--pipeline", action="store_true",
        help="also verify each vector through the crossbar pipeline",
    )
    kat.set_defaults(func=cmd_kat)

    rep = sub.add_parser("energy-report", help="per-block energy/power/area report")
    common(rep)
    rep.add_argument("--params", metavar="FILE", help="energy parameter overrides")
    rep.add_argument("--json", metavar="FILE", help="also write the report as JSON")
    rep.set_defaults(func=cmd_energy_report)

    sw = sub.add_parser("sweep", help="Monte-Carlo read-variation sweep")
    common(sw)
    sw.add_argument(
        "--sigmas", default="0,0.02,0.04,0.06,0.08,0.1,0.12",
        help="comma-separated sigma_c2c grid",
    )
    sw.add_argument("--blocks", type=int, default=20, help="blocks per sigma point")
    sw.add_argument("--out", metavar="FILE", help="write columnar data here")
    sw.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        _check_outputs(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemgiftError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
