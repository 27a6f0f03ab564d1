"""Sweep the tap strength and tabulate fidelity against leakage.

Reproduces the tradeoff curve programmatically, without a config file:
the flags describe a sweep config, which `parse_config` validates and
`run_sweep` runs, both routes cross-checked, as ``teleportsim sweep``
does.  For each strength theta the script reports the average output
fidelity of the chosen input and the guessing advantage an eavesdropper
gains over the pair basis:0, basis:1.

    python scripts/strength_sweep.py --n 2 --points 21
    python scripts/strength_sweep.py --n 3 --basis fourier --output curve.csv
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from teleportsim.config import ConfigError, parse_config
from teleportsim.runner import InvariantViolation, run_sweep

INPUTS = {"plus-uniform": "plus-uniform", "basis0": "basis:0", "random": "random:{seed}"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=2, help="qudit dimension")
    parser.add_argument("--points", type=int, default=21, help="strength grid size")
    parser.add_argument("--input", choices=tuple(INPUTS), default="plus-uniform")
    parser.add_argument(
        "--basis", choices=("computational", "fourier"), default="computational",
        help="tap basis for the strength family",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for --input random, as config random:SEED"
    )
    parser.add_argument("--output", default=None, help="optional CSV destination")
    args = parser.parse_args()

    document = {
        "n": args.n,
        "input": INPUTS[args.input].format(seed=args.seed),
        "eavesdrop": {"basis": args.basis, "theta_sweep": [0.0, 1.0, args.points]},
    }
    table = io.StringIO()
    try:
        summary = run_sweep(parse_config(json.dumps(document)), table)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    rows = [[float(x) for x in row] for row in csv.reader(table.getvalue().splitlines()[1:])]

    print(f"n={args.n}, input={args.input}, tap basis={args.basis}")
    print(f"{'theta':>8} {'fidelity':>14} {'advantage':>14}")
    for theta, fidelity, advantage in rows:
        print(f"{theta:8.3f} {fidelity:14.9f} {advantage:14.9f}")
    for line in summary:
        print(line, file=sys.stderr)

    if args.output is not None:
        with open(args.output, "w", encoding="utf-8", newline="") as stream:
            stream.write(table.getvalue())
        print(f"wrote {len(rows)} rows to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
