from __future__ import annotations

import lzma
import re
from pathlib import Path

import numpy as np
import pytest

from teleportsim import engine, verify
from teleportsim.verify import CHECKS, check_oracle_fast_equivalence, run_verification

CHECK_NAMES = {
    "bell-completeness",
    "measurement-completeness",
    "ideal-teleportation",
    "oracle-fast-equivalence",
    "decomposition-identity",
    "sequential-decomposition",
    "marginal-laws",
    "fidelity-curve",
    "probability-completeness",
    "tap-oracle-agreement",
}


def test_quick_run_passes_every_check():
    report = run_verification("quick", seed=0)
    assert report.passed
    assert {r.name for r in report.results} == CHECK_NAMES
    for result in report.results:
        assert result.max_deviation <= result.tolerance


def test_report_lines_have_one_entry_per_check():
    report = run_verification("quick", seed=3)
    lines = report.lines()
    assert len(lines) == len(CHECKS) + 1
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert all("max deviation" in line and "tolerance" in line for line in lines[:-1])
    assert lines[-1] == f"all checks passed ({len(CHECKS)}/{len(CHECKS)})"


def test_corrupt_bell_family_is_caught():
    report = run_verification("quick", seed=0, corrupt="bell")
    assert not report.passed
    failing = {r.name for r in report.results if not r.passed}
    assert "bell-completeness" in failing


def test_corrupt_measurement_family_is_caught():
    report = run_verification("quick", seed=0, corrupt="measurement")
    assert not report.passed
    failing = {r.name for r in report.results if not r.passed}
    assert "measurement-completeness" in failing


def test_failure_lines_mention_the_broken_check():
    report = run_verification("quick", seed=0, corrupt="bell")
    lines = report.lines()
    assert any(line.startswith("FAIL bell-completeness") for line in lines)
    assert lines[-1].startswith("CHECKS FAILED")


def test_corrupt_bell_leaves_the_shared_family_intact():
    # the corrupted family is cut from the shared Weyl family, which later
    # runs must still find complete
    first = run_verification("quick", seed=0, corrupt="bell").lines()
    assert first[0] == "FAIL bell-completeness: max deviation 5.000e-01 (tolerance 1.0e-09)"
    assert run_verification("quick", seed=0).passed
    assert run_verification("quick", seed=0, corrupt="bell").lines() == first


def test_seed_changes_probes_but_not_verdict():
    for seed in (0, 1, 2):
        assert run_verification("quick", seed=seed).passed


def test_unknown_depth_is_rejected():
    with pytest.raises(ValueError, match="depth"):
        run_verification("exhaustive")


def test_unknown_corrupt_target_is_rejected():
    with pytest.raises(ValueError, match="corrupt"):
        run_verification("quick", corrupt="resource")



def patch_stream(monkeypatch, fault) -> None:
    """Patch the transfer route of the shared route pass so ``fault(block)`` edits every streamed block."""
    route = engine.fast_run

    def patched(config, rows):
        for block in route(config, rows):
            yield fault(block.copy())

    monkeypatch.setattr(engine, "fast_run", patched)


def test_transfer_route_dropping_a_record_fails(monkeypatch):
    # the last Bell outcome goes missing from every block
    patch_stream(monkeypatch, lambda block: block[:-1])
    result = check_oracle_fast_equivalence("quick", 0, None)
    assert not result.passed
    line = verify.VerificationReport((result,)).lines()[0]
    assert line.startswith("FAIL oracle-fast-equivalence: max deviation inf (tolerance 1.0e-09) [")


def test_transfer_route_dropping_a_block_names_the_block(monkeypatch):
    route = engine.fast_run
    monkeypatch.setattr(engine, "fast_run", lambda *args: list(route(*args))[:-1])
    result = check_oracle_fast_equivalence("quick", 0, None)
    line = verify.VerificationReport((result,)).lines()[0]
    assert re.fullmatch(
        r"FAIL oracle-fast-equivalence: max deviation inf \(tolerance 1\.0e-09\) "
        r"\[block \d+: oracle \(\d+, \d+\) vs transfer None\]",
        line,
    ), line


def test_oracle_fast_equivalence_catches_branch_deviations_that_add_up(monkeypatch):
    # every transfer output is scaled by 1 + 1.5e-9: no branch moves by 1e-9
    # in amplitude (2-norm) or probability, but the total fidelity moves by
    # 3e-9 times its value, past 1e-9 on every scenario whose fidelity
    # exceeds 1/3
    patch_stream(monkeypatch, lambda block: block * (1 + 1.5e-9))
    passes = []
    shared = verify.route_pass

    def recorded(*args):
        passes.append(shared(*args))
        return passes[-1]

    monkeypatch.setattr(verify, "route_pass", recorded)
    result = check_oracle_fast_equivalence("quick", 0, None)
    branch = ("amplitude", "probability")
    assert max(np.max(measured.deviations[name]) for measured in passes for name in branch) < 1e-9
    assert not result.passed
    assert result.max_deviation == max(measured.deviations["total-fidelity"] for measured in passes) > 1e-9


def test_transfer_route_with_shuffled_labels_fails(monkeypatch):
    # the stream's rows follow the labels' order; rotating them pairs each
    # label with its neighbour's output
    patch_stream(monkeypatch, lambda block: np.roll(block, -1, axis=0))
    assert not check_oracle_fast_equivalence("quick", 0, None).passed


def test_transfer_route_with_a_nan_amplitude_fails(monkeypatch):
    def poisoned(block):
        block[0, 0] = float("nan")
        return block

    patch_stream(monkeypatch, poisoned)
    result = check_oracle_fast_equivalence("quick", 0, None)
    assert not result.passed
    line = verify.VerificationReport((result,)).lines()[0]
    assert line == "FAIL oracle-fast-equivalence: max deviation nan (tolerance 1.0e-09)"


def test_every_check_is_a_plain_function_of_this_module():
    # the tracer wraps each entry by module and name, and a call must run the whole check
    results = [check("quick", 0, None) for check in CHECKS]
    assert all(isinstance(result, verify.CheckResult) for result in results)
    assert [check.__name__ for check in CHECKS] == ["check_" + r.name.replace("-", "_") for r in results]
    assert {check.__module__ for check in CHECKS} == {"teleportsim.verify"}


def test_one_wrapper_judges_what_a_check_yields():
    def judged(*deviations, error=None):
        @verify._check("probe", 1e-9)
        def check_probe(depth, seed, corrupt):
            yield from deviations
            if error is not None:
                raise error

        return check_probe("quick", 0, None)

    assert judged() == verify.CheckResult("probe", 0.0, 1e-9)
    assert judged(1e-12, np.float64(3e-9), 2e-10) == verify.CheckResult("probe", 3e-9, 1e-9)
    # a NaN anywhere is the worst deviation, as max(0.0, nan) would not report it
    assert np.isnan(judged(1.0, float("nan"), 0.5).max_deviation)
    # a ValueError fails the check with its message; the yielded deviations are dropped
    assert judged(1e-12, error=ValueError("block 1 lost")) == verify.CheckResult(
        "probe", float("inf"), 1e-9, "block 1 lost"
    )
    # any other exception is a bug in the check itself and propagates
    with pytest.raises(TypeError, match="not a deviation"):
        judged(error=TypeError("not a deviation"))


@pytest.mark.parametrize("depth", ["quick", "full"])
def test_verification_builds_no_oracle_table(monkeypatch, depth):
    # every check reads the oracle through its stream
    def no_table(*args, **kwargs):
        raise AssertionError("verify collected the oracle into a table")

    monkeypatch.setattr(engine, "_table", no_table)
    assert run_verification(depth, 0).passed


# the benchmark's recorded output of `verify full` for seeds 0-3, one report after another
VERIFY_REFERENCE = (
    Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "verify-full" / "00.txt.xz"
)
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def same_up_to_roundoff(line: str, reference: str, tolerance: float = 1e-10) -> bool:
    """The same text between numbers, and every number within ``tolerance`` of the reference's."""
    parts, ref_parts = NUMBER.split(line), NUMBER.split(reference)
    return len(parts) == len(ref_parts) and all(
        part == ref_part if i % 2 == 0 else abs(float(part) - float(ref_part)) <= tolerance
        for i, (part, ref_part) in enumerate(zip(parts, ref_parts))
    )


def test_full_verification_matches_the_recorded_reference():
    # held to the benchmark's rule, not to bytes: the last digits a check
    # prints may move with roundoff
    reference = lzma.decompress(VERIFY_REFERENCE.read_bytes()).decode("utf-8").splitlines()
    lines = [line for seed in range(4) for line in run_verification("full", seed).lines()]
    assert len(lines) == len(reference)
    for line, ref_line in zip(lines, reference):
        assert same_up_to_roundoff(line, ref_line), (line, ref_line)


# `verify quick --seed 0` under each corrupt mode; the FAIL values pin the
# draws a corrupted run makes, while the PASS values may move with roundoff
CORRUPT_QUICK_LINES = {
    "bell": (
        "FAIL bell-completeness: max deviation 5.000e-01 (tolerance 1.0e-09)",
        "PASS measurement-completeness: max deviation 6.661e-16 (tolerance 1.0e-09)",
        "FAIL ideal-teleportation: max deviation 2.500e-01 (tolerance 1.0e-10)",
        "PASS oracle-fast-equivalence: max deviation 2.220e-16 (tolerance 1.0e-09)",
        "FAIL decomposition-identity: max deviation 2.219e-01 (tolerance 1.0e-10)",
        "PASS sequential-decomposition: max deviation 8.882e-16 (tolerance 1.0e-09)",
        "PASS marginal-laws: max deviation 7.216e-16 (tolerance 1.0e-10)",
        "PASS fidelity-curve: max deviation 4.441e-16 (tolerance 1.0e-09)",
        "FAIL probability-completeness: max deviation 2.500e-01 (tolerance 1.0e-10)",
        "PASS tap-oracle-agreement: max deviation 8.363e-17 (tolerance 1.0e-09)",
        "CHECKS FAILED (4/10)",
    ),
    "measurement": (
        "PASS bell-completeness: max deviation 3.048e-16 (tolerance 1.0e-09)",
        "FAIL measurement-completeness: max deviation 1.608e-02 (tolerance 1.0e-09)",
        "PASS ideal-teleportation: max deviation 6.661e-16 (tolerance 1.0e-10)",
        "PASS oracle-fast-equivalence: max deviation 2.220e-16 (tolerance 1.0e-09)",
        "PASS decomposition-identity: max deviation 1.111e-16 (tolerance 1.0e-10)",
        "FAIL sequential-decomposition: max deviation 5.745e-03 (tolerance 1.0e-09)",
        "FAIL marginal-laws: max deviation 3.900e-03 (tolerance 1.0e-10)",
        "FAIL fidelity-curve: max deviation 4.090e-01 (tolerance 1.0e-09)",
        "PASS probability-completeness: max deviation 1.332e-15 (tolerance 1.0e-10)",
        "PASS tap-oracle-agreement: max deviation 4.366e-17 (tolerance 1.0e-09)",
        "CHECKS FAILED (4/10)",
    ),
}

TRIPPED_BY = {
    "bell": {"bell-completeness", "ideal-teleportation", "decomposition-identity", "probability-completeness"},
    "measurement": {"measurement-completeness", "sequential-decomposition", "marginal-laws", "fidelity-curve"},
}


@pytest.mark.parametrize("corrupt", sorted(CORRUPT_QUICK_LINES))
def test_corrupt_quick_run_matches_its_frozen_lines(corrupt):
    lines = run_verification("quick", seed=0, corrupt=corrupt).lines()
    reference = CORRUPT_QUICK_LINES[corrupt]
    assert len(lines) == len(reference)
    for line, ref_line in zip(lines, reference):
        assert same_up_to_roundoff(line, ref_line), (line, ref_line)


@pytest.mark.parametrize("depth", ["quick", "full"])
@pytest.mark.parametrize("corrupt", sorted(TRIPPED_BY))
def test_each_corrupt_mode_fails_exactly_its_checks(depth, corrupt):
    report = run_verification(depth, seed=0, corrupt=corrupt)
    # oracle-fast-equivalence and tap-oracle-agreement pass under either
    # mode: each compares two routes that read the same family
    assert {r.name for r in report.results if not r.passed} == TRIPPED_BY[corrupt]
    # the verdict counts the checks that failed
    assert report.lines()[-1] == f"CHECKS FAILED ({len(TRIPPED_BY[corrupt])}/{len(CHECKS)})"


# the first entry of the input, of u0 and of the reference and receiver
# effect stacks that `_random_scenario` draws at n = 3 from a fresh
# child_rng(0, 3), for each style pair its two checks pass it: every
# value those draws reach in a check is a ~1e-16 PASS deviation, so only
# the drawn arrays show the draw order; compared within 1e-12, since the
# unitaries pass through LAPACK's QR, whose last bits may vary by build
INPUT_ENTRY = -0.15774602260880244 + 0.35412882099110776j
U0_ENTRY = -0.570570311565797 - 0.30169376951651083j
UNITARY_ENTRY = 0.05574694496173915 + 0.8173408799997481j
TAP_ENTRY = 0.7874600071127325
DAMPING_ENTRY = 0.8899653574256929
DRAWN_ENTRIES = {
    # oracle-fast-equivalence: (trial % 3, (trial + 1) % 3)
    (0, 1): (UNITARY_ENTRY, 0.4410042407431227),
    (1, 2): (TAP_ENTRY, 0.5756616417381886),
    (2, 0): (DAMPING_ENTRY, 0.13816378880584002 + 0.04480118009162018j),
    # probability-completeness: ((trial + 1) % 3, trial % 3)
    (1, 0): (TAP_ENTRY, 0.13816378880584002 + 0.04480118009162018j),
    (2, 1): (DAMPING_ENTRY, 0.5051363611801166),
    (0, 2): (UNITARY_ENTRY, 0.7235753339302949),
}


@pytest.mark.parametrize("styles", sorted(DRAWN_ENTRIES), ids="styles-{0[0]}-{0[1]}".format)
def test_random_scenario_draws_in_its_order(styles):
    config = verify._random_scenario(3, verify.child_rng(0, 3), styles)
    drawn = (config.input_state[0], config.u0[0, 0],
             config.effect_r.operators[0, 0, 0], config.effect_b.operators[0, 0, 0])
    expected = (INPUT_ENTRY, U0_ENTRY, *DRAWN_ENTRIES[styles])
    for value, literal in zip(drawn, expected, strict=True):
        assert abs(value - literal) <= 1e-12, (value, literal)
