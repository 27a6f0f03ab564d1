"""Check that the test suite catches each seeded defect.

Each entry of `MUTATIONS` names a file of the tree, a text that must
occur in it exactly once, the text that replaces it, and the tests that
must fail once it is replaced.  The script copies the tree into a
temporary directory and never edits the checkout.  It first runs every
named test on the untouched copy, which must pass; then, one mutation at
a time, it writes the mutated file into the copy, runs ``pytest -x`` on
that mutation's tests and restores the file.  A mutation is

- ``killed`` when a named test fails,
- ``SURVIVED`` when every named test passes,
- ``STALE`` when its old text no longer occurs exactly once, so it is
  never applied and never counted as killed,
- ``ERROR`` when pytest ends with any other status (no test collected,
  a usage error).

The exit status is 0 only when every mutation run is killed.  Names
given on the command line run those mutations alone.

    python scripts/mutation_check.py
    python scripts/mutation_check.py len-read-as-size
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# build and run leftovers: none of them is part of the tree under test
_IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", ".work")


@dataclass(frozen=True)
class Mutation:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTATIONS = (
    Mutation(
        "mirror-without-transpose",
        "src/teleportsim/engine.py",
        "mirrors = stack.transpose(0, 2, 1).copy()",
        "mirrors = stack.copy()",
        ("tests/test_engine.py::test_mirrors_are_the_branch_loop_bit_for_bit",
         "tests/test_engine.py::test_fast_run_reproduces_oracle"),
    ),
    Mutation(
        "mirror-small-defect",
        "src/teleportsim/engine.py",
        "        mirrors.setflags(write=False)\n        return mirrors\n",
        "        mirrors[:, 0, -1] += 1e-11\n        mirrors.setflags(write=False)\n        return mirrors\n",
        ("tests/test_engine.py::test_mirrors_are_the_branch_loop_bit_for_bit",),
    ),
    Mutation(
        "oracle-arrays-in-both-tap-reports",
        "src/teleportsim/engine.py",
        "transfer_tap = tap_report(config, transfer_norms, transfer_overlaps)",
        "transfer_tap = tap_report(config, probabilities, overlaps_sq)",
        ("tests/test_runner.py::test_tap_cell_check_catches_branch_deviations_that_add_up",
         "tests/test_runner.py::test_total_fidelity_check_catches_branch_deviations_that_add_up"),
    ),
    Mutation(
        "parsed-matrix-conjugated",
        "src/teleportsim/config.py",
        "    return as_complex_matrix(rows)\n",
        "    return as_complex_matrix(rows).conj()\n",
        ("tests/test_tap_receiver.py::test_written_u0_and_kraus_receiver_act_on_column_vectors_as_written",
         "tests/test_tap_receiver.py::test_written_bell_unitaries_act_on_column_vectors_as_written"),
    ),
    Mutation(
        "parsed-unitary-transposed",
        "src/teleportsim/config.py",
        '        raise ConfigError(f"{path}: {defect}")\n    return matrix\n',
        '        raise ConfigError(f"{path}: {defect}")\n    return matrix.T\n',
        ("tests/test_tap_receiver.py::test_written_u0_and_kraus_receiver_act_on_column_vectors_as_written",),
    ),
    Mutation(
        "parsed-bell-transposed",
        "src/teleportsim/config.py",
        "outcomes.append((i, unitary, weight))",
        "outcomes.append((i, unitary.T, weight))",
        ("tests/test_tap_receiver.py::test_written_bell_unitaries_act_on_column_vectors_as_written",),
    ),
    Mutation(
        "probability-sum-left-out-of-the-record",
        "src/teleportsim/engine.py",
        '                "probability-sum": np.array(abs(probability_sum - expected_sum)),\n',
        "",
        ("tests/test_runner.py::test_route_pass_records_five_named_deviations_in_judging_order",),
    ),
    Mutation(
        "amplitude-and-probability-swapped",
        "src/teleportsim/engine.py",
        '                "amplitude": amplitude,\n                "probability": np.abs(probabilities - transfer_norms),\n',
        '                "probability": np.abs(probabilities - transfer_norms),\n                "amplitude": amplitude,\n',
        ("tests/test_runner.py::test_route_pass_records_five_named_deviations_in_judging_order",),
    ),
    Mutation(
        "len-read-as-size",
        "src/teleportsim/runner.py",
        "        if len(failing):",
        "        if failing.size:",
        ("tests/test_runner.py::test_tap_total_fidelity_mismatch_writes_nothing",),
    ),
    Mutation(
        "u0-drawn-after-reference-effect",
        "src/teleportsim/verify.py",
        "        u0=random_unitary(dim, rng),\n        effect_r=_random_effect(dim, rng, styles[0]),\n",
        "        effect_r=_random_effect(dim, rng, styles[0]),\n        u0=random_unitary(dim, rng),\n",
        ("tests/test_verify.py::test_random_scenario_draws_in_its_order",),
    ),
    Mutation(
        "tap-operators-without-correction",
        "src/teleportsim/eavesdrop.py",
        "yield l, config.bell.unitaries @ columns.transpose(0, 2, 1)",
        "yield l, columns.transpose(0, 2, 1)",
        ("tests/test_eavesdrop.py::test_operator_columns_are_the_brute_force_branches",),
    ),
    Mutation(
        "oracle-bra-chunk-zero-everywhere",
        "src/teleportsim/engine.py",
        "slice(start, start + _BRA_CHUNK)",
        "slice(0, _BRA_CHUNK)",
        ("tests/test_engine.py::test_oracle_matches_the_materialized_full_state",),
    ),
    Mutation(
        "receiver-untransposed-in-oracle",
        "src/teleportsim/engine.py",
        "receiver = config.effect_b.operators.transpose(0, 2, 1)",
        "receiver = config.effect_b.operators",
        ("tests/test_engine.py::test_oracle_matches_brute_force_with_effects",),
    ),
    Mutation(
        "reference-marginal-without-receiver-closure",
        "src/teleportsim/engine.py",
        "return resource_mat @ closure(config.effect_b.operators).T @ dagger(resource_mat)",
        "return resource_mat @ dagger(resource_mat)",
        ("tests/test_engine.py::test_expected_probability_sum_is_the_brute_force_sum",),
    ),
    Mutation(
        "route-pass-holds-the-last-pair",
        "src/teleportsim/engine.py",
        "            del pair  # neither route",
        "            pass  # neither route",
        ("tests/test_engine.py::test_route_pass_holds_a_few_blocks_of_each_stream",),
    ),
    Mutation(
        "first-tap-carried-to-every-sweep-point",
        "src/teleportsim/runner.py",
        "strength_family(base.dim, theta, basis) for theta in grid",
        "strength_family(base.dim, grid[0], basis) for theta in grid",
        ("tests/test_runner.py::test_sweep_points_are_the_points_built_from_scratch",),
    ),
)


def _pytest(tree: str, tests: tuple[str, ...]) -> int:
    """Run ``pytest -x`` on ``tests`` in ``tree``, importing the package from that tree alone."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def check(mutations: tuple[Mutation, ...]) -> int:
    """Run ``mutations`` on a copy of the tree, one line each; 0 when every one is killed."""
    start = time.perf_counter()
    verdicts = []
    with tempfile.TemporaryDirectory(prefix="mutation-check-") as scratch:
        tree = os.path.join(scratch, "tree")
        shutil.copytree(ROOT, tree, ignore=_IGNORED)
        live = []
        for mutation in mutations:
            with open(os.path.join(tree, mutation.path), encoding="utf-8") as handle:
                count = handle.read().count(mutation.old)
            if count == 1:
                live.append(mutation)
            else:
                verdicts.append("STALE")
                print(f"STALE     {mutation.name}: old text occurs {count} times in {mutation.path}")
        baseline = sorted({test for mutation in live for test in mutation.tests})
        if baseline and _pytest(tree, tuple(baseline)) != 0:
            print("baseline: the named tests fail on the unmutated tree, so no mutation is judged")
            return 1
        for mutation in live:
            path = os.path.join(tree, mutation.path)
            with open(path, encoding="utf-8") as handle:
                original = handle.read()
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(original.replace(mutation.old, mutation.new))
            began = time.perf_counter()
            try:
                status = _pytest(tree, mutation.tests)
            finally:
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(original)
            verdict = {0: "SURVIVED", 1: "killed"}.get(status, "ERROR")
            verdicts.append(verdict)
            detail = "" if verdict != "ERROR" else f", pytest exit {status}"
            print(f"{verdict:<9} {mutation.name} ({time.perf_counter() - began:.1f} s{detail})")
    killed = verdicts.count("killed")
    print(f"{killed}/{len(verdicts)} mutations killed in {time.perf_counter() - start:.1f} s")
    return 0 if killed == len(verdicts) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME", help="run only these mutations")
    args = parser.parse_args(argv)
    known = {mutation.name: mutation for mutation in MUTATIONS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutation {unknown[0]!r}; known: {', '.join(known)}")
    return check(tuple(known[name] for name in args.names) if args.names else MUTATIONS)


if __name__ == "__main__":
    raise SystemExit(main())
