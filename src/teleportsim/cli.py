"""Command line interface.

Three subcommands: ``teleport`` runs one scenario and writes its branch
table, ``sweep`` scans the tap strength, ``verify`` runs the built-in
identity checks.  Exit codes: 0 success, 1 invalid configuration or
arguments, 2 violated invariant or failed verification, 3 input/output
failure.  A ``verify`` check that raises exits 2 too: argparse has
checked its arguments, so the error is a package defect.
"""
from __future__ import annotations

import argparse
import sys
from typing import IO, NoReturn

from .config import ConfigError, load_config
from .runner import InvariantViolation, run_sweep, run_teleport
from .verify import run_verification

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2
EXIT_IO = 3


class _ArgumentParser(argparse.ArgumentParser):
    """Argument errors exit 1; argparse's own 2 is the invariant code here."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    """Verification seed: decimal digits only, as numpy seeds from non-negative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _output_path(text: str) -> str:
    """CSV destination: the empty string names no file, so it fails before any work."""
    if not text:
        raise argparse.ArgumentTypeError("expected a non-empty path string")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="teleportsim",
        description="Finite-dimensional teleportation simulator with channel effects",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    teleport = sub.add_parser("teleport", help="run one scenario and write its branch table")
    _add_run_arguments(teleport)

    sweep = sub.add_parser("sweep", help="scan tap strength against fidelity and leakage")
    _add_run_arguments(sweep)

    verify = sub.add_parser("verify", help="run the built-in identity checks")
    verify.add_argument(
        "depth", nargs="?", choices=("quick", "full"), default="quick",
        help="workload size (default quick)",
    )
    verify.add_argument("--seed", type=_seed, default=0, help="seed for random scenarios")
    verify.add_argument(
        "--corrupt", choices=("bell", "measurement"), default=None,
        help="deliberately inject a defective family (testing hook)",
    )
    return parser


def _add_run_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="YAML/JSON run specification")
    sub.add_argument("--output", type=_output_path, help="CSV destination (default stdout)")
    sub.add_argument(
        "--strict", action="store_true",
        help="reject unnormalized inputs instead of normalizing",
    )


class _OutputFile:
    """CSV destination opened on its first write.

    Both runners write only once their checks have passed, so a run that
    fails leaves an existing file as it was.
    """

    def __init__(self, path: str) -> None:
        self._path = path
        self._handle: IO[str] | None = None

    def write(self, text: str) -> int:
        if self._handle is None:
            self._handle = open(self._path, "w", encoding="utf-8", newline="")
        return self._handle.write(text)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            try:
                report = run_verification(depth=args.depth, seed=args.seed, corrupt=args.corrupt)
            except ValueError as exc:
                # argparse has checked every argument, so only a package defect gets here
                print(f"verification failed: {exc}", file=sys.stderr)
                return EXIT_INVARIANT
            for line in report.lines():
                print(line)
            return EXIT_OK if report.passed else EXIT_INVARIANT

        spec = load_config(args.config, strict=args.strict)
        output_path = args.output if args.output is not None else spec.output_path
        stream = sys.stdout if output_path is None else _OutputFile(output_path)
        try:
            if args.command == "teleport":
                summary = run_teleport(spec, stream)
            else:
                summary = run_sweep(spec, stream)
        finally:
            if stream is not sys.stdout:
                stream.close()
        for line in summary:
            print(line, file=sys.stderr)
        return EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
