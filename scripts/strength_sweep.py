"""Sweep the tap strength and tabulate fidelity against leakage.

Reproduces the tradeoff curve programmatically, without a config file:
for each strength theta the script reports the average output fidelity
of the chosen input and the guessing advantage an eavesdropper gains
over a pair of basis states.

    python scripts/strength_sweep.py --n 2 --points 21
    python scripts/strength_sweep.py --n 3 --basis fourier --output curve.csv
"""
from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from teleportsim import (
    basis_state,
    child_rng,
    distinguishability,
    fast_run,
    make_scenario,
    mirror_stack,
    random_state,
    strength_family,
    transfer_rows,
    uniform_state,
)
from teleportsim.eavesdrop import tap_report
from teleportsim.engine import fidelity_bras, reduce_stream


def tap_basis(name: str, dim: int) -> np.ndarray | None:
    if name == "computational":
        return None
    grid = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(grid, grid) / dim) / np.sqrt(dim)


def pick_input(name: str, dim: int, seed: int) -> np.ndarray:
    if name == "plus-uniform":
        return uniform_state(dim)
    if name == "basis0":
        return basis_state(dim, 0)
    return random_state(dim, child_rng(seed, 99))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=2, help="qudit dimension")
    parser.add_argument("--points", type=int, default=21, help="strength grid size")
    parser.add_argument(
        "--input", choices=("plus-uniform", "basis0", "random"), default="plus-uniform"
    )
    parser.add_argument(
        "--basis", choices=("computational", "fourier"), default="computational",
        help="tap basis for the strength family",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for --input random")
    parser.add_argument("--output", default=None, help="optional CSV destination")
    args = parser.parse_args()

    psi = pick_input(args.input, args.n, args.seed)
    basis = tap_basis(args.basis, args.n)
    # the kernel rows and fidelity bras read no tap, so every strength shares them
    untapped = make_scenario(args.n, psi)
    psi_rows = transfer_rows(untapped, np.asarray(untapped.input_state)[None])
    bras = fidelity_bras(np.asarray(untapped.input_state), untapped.bell.unitaries)
    pair = np.array([basis_state(args.n, 0), basis_state(args.n, 1)])
    pair_rows = transfer_rows(untapped, pair)

    rows = []
    for theta in np.linspace(0.0, 1.0, args.points):
        config = make_scenario(
            args.n, psi, effect_r=strength_family(args.n, float(theta), basis)
        )
        # each strength mirrors its tap once, for both kernel passes
        mirrors = mirror_stack(config)
        blocks = fast_run(config, psi_rows, mirrors)
        fidelity = tap_report(config, *reduce_stream(blocks, bras)).total_fidelity
        advantage = distinguishability(config, pair_rows, mirrors)
        rows.append((float(theta), fidelity, advantage))

    print(f"n={args.n}, input={args.input}, tap basis={args.basis}")
    print(f"{'theta':>8} {'fidelity':>14} {'advantage':>14}")
    for theta, fidelity, advantage in rows:
        print(f"{theta:8.3f} {fidelity:14.9f} {advantage:14.9f}")

    if args.output is not None:
        with open(args.output, "w", encoding="utf-8", newline="") as stream:
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(("theta", "total_fidelity", "distinguishability"))
            writer.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
