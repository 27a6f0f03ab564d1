"""Tabulate the fidelity cost of a fixed-strength tap as dimension grows.

For each dimension the script taps the resource at the same strength and
reports the uniform-input fidelity, the spread of fidelities over random
inputs, and how far the eavesdropper's outcome distribution strays from
flat.  Two regularities stand out in the table: the uniform input is the
worst case at every dimension, and the flatness column sits at numerical
zero because the tap outcome distribution carries no trace of the input.

    python scripts/leakage_by_dimension.py --theta 0.5 --max-n 8
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from teleportsim import (
    analyze_eavesdropping,
    child_rng,
    make_scenario,
    random_state,
    strength_family,
    uniform_state,
)


def survey(dim: int, theta: float, trials: int, rng: np.random.Generator):
    family = strength_family(dim, theta)
    uniform = analyze_eavesdropping(
        make_scenario(dim, uniform_state(dim), effect_r=family)
    )
    flatness = float(np.max(np.abs(uniform.probabilities.sum(axis=1) - 1.0 / dim)))
    fidelities = []
    for _ in range(trials):
        report = analyze_eavesdropping(
            make_scenario(dim, random_state(dim, rng), effect_r=family)
        )
        fidelities.append(report.total_fidelity)
        p_l = report.probabilities.sum(axis=1)
        flatness = max(flatness, float(np.max(np.abs(p_l - 1.0 / dim))))
    return uniform.total_fidelity, min(fidelities), max(fidelities), flatness


def main(argv: list[str] | None = None) -> int:
    # the program name argparse prints, also when main is called in process
    parser = argparse.ArgumentParser(
        prog=os.path.basename(__file__), description=__doc__.splitlines()[0]
    )
    parser.add_argument("--theta", type=float, default=0.5, help="tap strength")
    parser.add_argument("--max-n", type=int, default=8, help="largest dimension")
    parser.add_argument("--trials", type=int, default=25, help="random inputs per dimension")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if not 0.0 <= args.theta <= 1.0:
        parser.error("--theta must lie in [0, 1]")
    if args.max_n < 2:
        parser.error("--max-n must be at least 2")
    if args.max_n > 32:
        parser.error("--max-n exceeds the supported maximum of 32")
    if args.trials < 1:
        parser.error("--trials must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    rng = child_rng(args.seed, 7)
    print(f"tap strength theta={args.theta:g}, {args.trials} random inputs per dimension")
    print(f"{'n':>4} {'uniform F':>12} {'random min':>12} {'random max':>12} {'marginal flatness':>18}")
    for dim in range(2, args.max_n + 1):
        uniform_f, low, high, flatness = survey(dim, args.theta, args.trials, rng)
        print(f"{dim:4d} {uniform_f:12.9f} {low:12.9f} {high:12.9f} {flatness:18.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
