from __future__ import annotations

import csv
import io
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from teleportsim import cli, eavesdrop, engine, runner, verify
from teleportsim.config import load_config, parse_config
from teleportsim.runner import InvariantViolation

TAP_CONFIG = """\
n: 2
input: plus-uniform
eavesdrop:
  theta: 0.5
"""

SWEEP_CONFIG = """\
n: 2
input: plus-uniform
eavesdrop:
  theta_sweep: [0, 1, 5]
"""

EXPECTED_TAP_CSV = """\
record,l,m,branch,probability,fidelity
outcome,0,0-0,,0.125,0.933012701892
outcome,0,0-1,,0.125,0.933012701892
outcome,0,1-0,,0.125,0.933012701892
outcome,0,1-1,,0.125,0.933012701892
outcome,1,0-0,,0.125,0.933012701892
outcome,1,0-1,,0.125,0.933012701892
outcome,1,1-0,,0.125,0.933012701892
outcome,1,1-1,,0.125,0.933012701892
p_l,0,,,0.5,
p_l,1,,,0.5,
p_m,,0-0,,0.25,
p_m,,0-1,,0.25,
p_m,,1-0,,0.25,
p_m,,1-1,,0.25,
total,,,,1,0.933012701892
"""

EXPECTED_SWEEP_CSV = """\
theta,total_fidelity,distinguishability
0,1,0
0.25,0.984122918276,0.125
0.5,0.933012701892,0.25
0.75,0.830718913883,0.375
1,0.5,0.5
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_teleport_writes_expected_table(tmp_path, capsys):
    config = write(tmp_path, "run.yaml", TAP_CONFIG)
    out = tmp_path / "table.csv"
    code = cli.main(["teleport", "--config", config, "--output", str(out)])
    assert code == 0
    assert out.read_text(encoding="utf-8") == EXPECTED_TAP_CSV
    err = capsys.readouterr().err
    assert "average output fidelity: 0.933012701892" in err


def test_teleport_reports_route_deviations_on_stderr_only(tmp_path, capsys):
    config = write(tmp_path, "run.yaml", TAP_CONFIG)
    assert cli.main(["teleport", "--config", config]) == 0
    captured = capsys.readouterr()
    assert captured.out == EXPECTED_TAP_CSV
    assert "routes:" not in captured.out
    assert_routes_line(captured.err.splitlines()[-1])


ROUTES = r"routes: amplitude dev (\S+), probability dev (\S+), fidelity dev (\S+) \(tolerance 1\.0e-10\)"


def assert_routes_line(line: str) -> None:
    match = re.fullmatch(ROUTES, line)
    assert match is not None, line
    assert all(0.0 <= float(dev) <= 1e-10 for dev in match.groups())


def test_sweep_reports_route_deviations_on_stderr_only(tmp_path, capsys):
    config = write(tmp_path, "sweep.yaml", SWEEP_CONFIG)
    assert cli.main(["sweep", "--config", config]) == 0
    captured = capsys.readouterr()
    assert captured.out == EXPECTED_SWEEP_CSV
    assert_routes_line(captured.err.splitlines()[-1])


def weighted_weyl(weight: str) -> str:
    """The qubit Weyl family as an explicit ``bell`` list, every weight ``weight``."""
    unitaries = ("[[1, 0], [0, 1]]", "[[1, 0], [0, -1]]", "[[0, 1], [1, 0]]", "[[0, -1], [1, 0]]")
    return "bell:\n" + "".join(f"  - {{unitary: {u}, weight: {weight}}}\n" for u in unitaries)


# closure defects below FAMILY_TOL, which admission lets through: a Kraus
# receiver whose closure is off by 8e-10 on level 1, and a Weyl family
# whose every weight is off by 8e-10; the probability sum is off 1 by
# the defect, by 4e-10 and 8e-10, beyond the run tolerance of 1e-10
ADMITTED_DEFECTS = {
    "kraus": (
        "effect_b:\n  kraus:\n    - [[1, 0], [0, 0.6]]\n    - [[0, 0.8000000005], [0, 0]]\n",
        "1.0000000004",
    ),
    "weights": (weighted_weyl("1.0000000008"), "1.0000000008"),
}

TAPS = {"teleport": "theta: 0.5", "sweep": "theta_sweep: [0, 1, 3]"}


@pytest.mark.parametrize("defect", sorted(ADMITTED_DEFECTS))
@pytest.mark.parametrize("command", sorted(TAPS))
def test_admitted_closure_defect_is_no_invariant_violation(defect, command, tmp_path, capsys):
    text, total = ADMITTED_DEFECTS[defect]
    config = write(tmp_path, "run.yaml", f"n: 2\ninput: plus-uniform\neavesdrop:\n  {TAPS[command]}\n{text}")
    assert cli.main([command, "--config", config]) == 0
    err = capsys.readouterr().err
    if command == "teleport":
        assert f"probability sum {total}, expected {total}\n" in err
    else:
        assert f"probability sum {total} -> {total}, expected {total} -> {total}\n" in err


# one field of each kind of family the parser admits, off by 2e-9: beyond
# FAMILY_TOL, and beyond the tighter unitarity tolerance of a single matrix
OFF = "[[1, 0], [0, 1.000000002]]"
BEYOND_ADMISSION = {
    "bell": weighted_weyl("1.000000002"),
    "effect_b.kraus": "effect_b:\n  kraus:\n    - [[1, 0], [0, 0.6]]\n    - [[0, 0.800000002], [0, 0]]\n",
    "effect_b.unitary": f"effect_b:\n  unitary: {OFF}\n",
    "eavesdrop.basis": "",
    "u0": f"u0: {OFF}\n",
}


@pytest.mark.parametrize("field", sorted(BEYOND_ADMISSION))
@pytest.mark.parametrize("command", sorted(TAPS))
def test_family_beyond_admission_exits_one(field, command, tmp_path, capsys):
    basis = f"\n  basis: {OFF}" if field == "eavesdrop.basis" else ""
    config = write(
        tmp_path,
        "run.yaml",
        f"n: 2\ninput: plus-uniform\neavesdrop:\n  {TAPS[command]}{basis}\n{BEYOND_ADMISSION[field]}",
    )
    assert cli.main([command, "--config", config]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field}: ")


def test_teleport_stdout_default(tmp_path, capsys):
    config = write(tmp_path, "run.yaml", TAP_CONFIG)
    assert cli.main(["teleport", "--config", config]) == 0
    captured = capsys.readouterr()
    assert captured.out == EXPECTED_TAP_CSV


def test_teleport_output_is_byte_identical_across_runs(tmp_path):
    config = write(tmp_path, "run.yaml", TAP_CONFIG)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert cli.main(["teleport", "--config", config, "--output", str(first)]) == 0
    assert cli.main(["teleport", "--config", config, "--output", str(second)]) == 0
    blob = first.read_bytes()
    assert blob == second.read_bytes()
    assert b"\r\n" not in blob and b"\n" in blob


def test_sweep_endpoints_and_grid(tmp_path, capsys):
    config = write(tmp_path, "sweep.yaml", SWEEP_CONFIG)
    assert cli.main(["sweep", "--config", config]) == 0
    assert capsys.readouterr().out == EXPECTED_SWEEP_CSV


def test_output_path_from_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = write(tmp_path, "run.yaml", TAP_CONFIG + "output: from_config.csv\n")
    assert cli.main(["teleport", "--config", config]) == 0
    assert (tmp_path / "from_config.csv").read_text(encoding="utf-8") == EXPECTED_TAP_CSV


def test_invalid_config_exits_one(tmp_path, capsys):
    config = write(tmp_path, "bad.yaml", "n: 2\ninput: nonsense\n")
    assert cli.main(["teleport", "--config", config]) == 1
    assert "unknown state name" in capsys.readouterr().err


def test_strict_flag_rejects_unnormalized(tmp_path):
    config = write(tmp_path, "loose.yaml", "n: 2\ninput: [1, 1]\n")
    assert cli.main(["teleport", "--config", config, "--strict"]) == 1
    assert cli.main(["teleport", "--config", config]) == 0


def test_sweep_requires_sweep_section(tmp_path, capsys):
    config = write(tmp_path, "run.yaml", TAP_CONFIG)
    assert cli.main(["sweep", "--config", config]) == 1
    assert "theta_sweep" in capsys.readouterr().err


def test_teleport_requires_single_theta(tmp_path, capsys):
    config = write(tmp_path, "sweep.yaml", SWEEP_CONFIG)
    assert cli.main(["teleport", "--config", config]) == 1


def test_missing_config_exits_three(tmp_path, capsys):
    assert cli.main(["teleport", "--config", str(tmp_path / "absent.yaml")]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_unwritable_output_exits_three(tmp_path):
    config = write(tmp_path, "run.yaml", TAP_CONFIG)
    target = str(tmp_path / "no" / "such" / "dir" / "out.csv")
    assert cli.main(["teleport", "--config", config, "--output", target]) == 3


@pytest.mark.parametrize(
    "config_text,needle",
    [
        (TAP_CONFIG.replace("n: 2\n", "n: 2\nn: 3\n"), "error: n: repeated key (line 2, column 1)"),
        (TAP_CONFIG + "  theta: 0.9\n", "error: eavesdrop.theta: repeated key (line 5, column 3)"),
        (
            '{"n": 2, "input": "plus-uniform", "n": 3}',
            "error: n: repeated key (line 1, column 35)",
        ),
        (
            "n: 2\ninput: plus-uniform\neavesdrop: {<<: {theta: 0.1, theta: 0.2}}\n",
            "error: eavesdrop.<<.theta: repeated key (line 3, column 30)",
        ),
        # a key that is not a scalar is named by its mapping's path
        (
            "? [1, 2]\n: 3\nn: 2\ninput: plus-uniform\n",
            "error: document: mapping key must be a scalar, got a sequence (line 1, column 3)",
        ),
        (
            "n: 2\ninput: plus-uniform\neavesdrop: {? [1]: 2, theta: 0.5}\n",
            "error: eavesdrop: mapping key must be a scalar, got a sequence (line 3, column 15)",
        ),
        (
            "n: 2\ninput: plus-uniform\neavesdrop:\n  <<: {{a: 1}: 2}\n  theta: 0.5\n",
            "error: eavesdrop.<<: mapping key must be a scalar, got a mapping (line 4, column 8)",
        ),
    ],
    ids=["top-level", "nested", "json", "merge-source", "non-scalar-top-level", "non-scalar-nested",
         "non-scalar-merge-source"],
)
def test_repeated_config_key_exits_one(config_text, needle, tmp_path, capsys):
    config = write(tmp_path, "run.yaml", config_text)
    assert cli.main(["teleport", "--config", config]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [needle]


KEPT = b"kept,bytes\n"


def test_failed_run_leaves_output_as_it_was(tmp_path, capsys):
    target = tmp_path / "keep.csv"
    target.write_bytes(KEPT)
    sweep = write(tmp_path, "sweep.yaml", SWEEP_CONFIG)
    assert cli.main(["teleport", "--config", sweep, "--output", str(target)]) == 1
    tap = write(tmp_path, "run.yaml", TAP_CONFIG)
    assert cli.main(["sweep", "--config", tap, "--output", str(target)]) == 1
    assert target.read_bytes() == KEPT


def test_violated_invariant_leaves_output_as_it_was(tmp_path, capsys, monkeypatch):
    def explode(scenario, effects=None):
        raise InvariantViolation("routes disagree")

    monkeypatch.setattr(runner, "route_passes", explode)
    target = tmp_path / "keep.csv"
    target.write_bytes(KEPT)
    for command, text in (("teleport", TAP_CONFIG), ("sweep", SWEEP_CONFIG)):
        config = write(tmp_path, "run.yaml", text)
        assert cli.main([command, "--config", config, "--output", str(target)]) == 2
    assert "invariant violation" in capsys.readouterr().err
    assert target.read_bytes() == KEPT


def test_invariant_violation_exits_two(tmp_path, capsys, monkeypatch):
    def explode(spec, stream):
        raise InvariantViolation("routes disagree")

    monkeypatch.setattr(cli, "run_teleport", explode)
    config = write(tmp_path, "run.yaml", TAP_CONFIG)
    assert cli.main(["teleport", "--config", config]) == 2
    assert "invariant violation" in capsys.readouterr().err


def test_parted_route_streams_exit_two(tmp_path, capsys, monkeypatch):
    # the comparator's mismatch is a ValueError, which alone would exit 1
    route = engine.fast_run
    monkeypatch.setattr(engine, "fast_run", lambda *args: list(route(*args))[:-1])
    config = write(tmp_path, "run.yaml", TAP_CONFIG)
    assert cli.main(["teleport", "--config", config]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invariant violation: block 1: oracle (4, 2) vs transfer None\n"


def lose_last_block(monkeypatch, *modules):
    """Make ``transfer_kernel`` yield one block short where each of ``modules`` calls it."""
    kernel = engine.transfer_kernel
    for module in modules:
        monkeypatch.setattr(module, "transfer_kernel", lambda rows, operators: list(kernel(rows, operators))[:-1])


LOST_BLOCK = "[block 1: oracle (4, 2) vs transfer None]"
LOST_ROW = "[tap report: 1 probability and 1 overlap rows for 2 branch pairs]"


def verify_quick_lines(capsys):
    """``verify quick`` that exits 2 and says nothing on stderr: its check lines by name, and its verdict."""
    assert cli.main(["verify", "quick"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    *lines, verdict = captured.out.splitlines()
    checks = {re.match(r"(?:PASS|FAIL) ([a-z-]+): ", line).group(1): line for line in lines}
    assert list(checks) == [
        "bell-completeness", "measurement-completeness", "ideal-teleportation",
        "oracle-fast-equivalence", "decomposition-identity", "sequential-decomposition",
        "marginal-laws", "fidelity-curve", "probability-completeness", "tap-oracle-agreement",
    ]
    return checks, verdict


def test_a_kernel_that_loses_a_block_exits_two_everywhere(tmp_path, capsys, monkeypatch):
    # a transfer kernel one block short is a package defect, never a
    # configuration error: the run refuses before writing, the pass and
    # verify's route checks name the missing block, every other check
    # still reports, and verify exits 2
    lose_last_block(monkeypatch, engine)
    config = write(tmp_path, "run.yaml", TAP_CONFIG)
    target = tmp_path / "out.csv"
    assert cli.main(["teleport", "--config", config, "--output", str(target)]) == 2
    assert not target.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invariant violation: block 1: oracle (4, 2) vs transfer None\n"

    scenario = runner.build_scenario(load_config(config))
    with pytest.raises(engine.RouteMismatch, match=r"^block 1: oracle \(4, 2\) vs transfer None$"):
        next(runner.route_passes(scenario))
    result = verify.check_oracle_fast_equivalence("quick", 0, None)
    assert re.fullmatch(
        r"FAIL oracle-fast-equivalence: max deviation inf \(tolerance 1\.0e-09\) "
        r"\[block \d+: oracle \(\d+, \d+\) vs transfer None\]",
        verify.VerificationReport((result,)).lines()[0],
    )

    checks, verdict = verify_quick_lines(capsys)
    for name in ("oracle-fast-equivalence", "tap-oracle-agreement"):
        assert checks[name] == f"FAIL {name}: max deviation inf (tolerance 1.0e-09) {LOST_BLOCK}"
    assert verdict == "CHECKS FAILED (4/10)"


def test_a_kernel_lost_in_eavesdrop_too_fails_the_receiver_state_checks(capsys, monkeypatch):
    # patched where eavesdrop calls it as well, the short kernel reaches
    # tap_operators, sequential_decomposition_check and distinguishability:
    # the receiver-state sums lose a branch, and the sweep's pass refuses
    lose_last_block(monkeypatch, engine, eavesdrop)
    checks, verdict = verify_quick_lines(capsys)
    assert checks["decomposition-identity"] == (
        "FAIL decomposition-identity: max deviation 5.000e-01 (tolerance 1.0e-10)"
    )
    assert checks["sequential-decomposition"].startswith("FAIL sequential-decomposition: ")
    for name in ("oracle-fast-equivalence", "tap-oracle-agreement"):
        assert checks[name].endswith(LOST_BLOCK)
    for name in ("marginal-laws", "fidelity-curve"):
        assert checks[name].endswith(LOST_ROW)
    assert verdict == "CHECKS FAILED (6/10)"

    assert cli.main(["sweep", "--config", str(CONFIGS / "sample_sweep.yaml")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invariant violation: theta=0: block 1: oracle (4, 2) vs transfer None\n"


def test_verify_quick_passes(capsys):
    assert cli.main(["verify", "quick"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("kind", ["bell", "measurement"])
def test_verify_corrupt_hook_flips_exit(kind, capsys):
    assert cli.main(["verify", "quick", "--corrupt", kind]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_verify_default_depth_is_quick(capsys):
    assert cli.main(["verify"]) == 0
    assert "all checks passed" in capsys.readouterr().out


def exit_code(argv):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    return info.value.code


@pytest.mark.parametrize(
    "extra",
    [["--bogus"], ["--workers", "4"], ["--seed", "5"], ["--tolerance", "1e-9"]],
    ids=["unknown", "workers", "seed", "tolerance"],
)
@pytest.mark.parametrize("command", ["teleport", "sweep"])
def test_unknown_run_flag_exits_one(command, extra, tmp_path, capsys):
    config = write(tmp_path, "sweep.yaml", SWEEP_CONFIG)
    assert exit_code([command, "--config", config, *extra]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_missing_config_flag_exits_one(capsys):
    assert exit_code(["teleport"]) == 1
    assert "--config" in capsys.readouterr().err


def test_verify_workers_flag_exits_one(capsys):
    assert exit_code(["verify", "--workers", "2"]) == 1


@pytest.mark.parametrize("value", ["-1", "x"])
def test_verify_seed_must_be_a_non_negative_integer(value, capsys):
    assert exit_code(["verify", "quick", "--seed", value]) == 1
    assert "argument --seed: expected a non-negative integer" in capsys.readouterr().err


def test_empty_output_path_in_config_exits_one(tmp_path, capsys):
    config = write(tmp_path, "run.yaml", TAP_CONFIG + 'output: ""\n')
    assert cli.main(["teleport", "--config", config]) == 1
    assert "output: expected a non-empty path string" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["teleport", "sweep"])
def test_empty_output_flag_exits_one_before_any_work(command, tmp_path, capsys):
    config = write(tmp_path, "run.yaml", TAP_CONFIG if command == "teleport" else SWEEP_CONFIG)
    assert exit_code([command, "--config", config, "--output", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error" in line]
    assert errors == [f"teleportsim {command}: error: argument --output: expected a non-empty path string"]


def test_seed_field_in_config_exits_one(tmp_path, capsys):
    config = write(tmp_path, "run.yaml", TAP_CONFIG + "seed: 0\n")
    assert cli.main(["teleport", "--config", config]) == 1
    assert "seed: unknown field" in capsys.readouterr().err


# amplitudes whose squared norm leaves the normal floats, the plain list
# they normalize to, and the norm^2 the note shows
EXTREME_STATES = [
    ("[1.0e-160, 0]", "[1, 0]", "1e-320"),
    ("[1.0e-200, 0]", "[1, 0]", "1e-400"),
    ("[1.0e+200, 1.0e+200]", "[1, 1]", "2e+400"),
]


def without_notes(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True) if not line.startswith("note: "))


@pytest.mark.parametrize("amplitudes, plain, norm_sq", EXTREME_STATES)
@pytest.mark.parametrize("field", ["input", "distinguish[1]"])
def test_state_whose_norm_leaves_the_floats_is_normalized(field, amplitudes, plain, norm_sq, tmp_path, capsys):
    def config(state):
        states = (state, "basis:1") if field == "input" else ("plus-uniform", state)
        return write(
            tmp_path, "run.yaml",
            f"n: 2\ninput: {states[0]}\neavesdrop:\n  theta_sweep: [0, 1, 5]\n"
            f"distinguish:\n  - basis:0\n  - {states[1]}\n",
        )

    assert cli.main(["sweep", "--config", config(plain)]) == 0
    expected = capsys.readouterr()
    assert cli.main(["sweep", "--config", config(amplitudes)]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected.out
    assert captured.err.startswith(f"note: normalizing {field} (norm^2 was {norm_sq})\n")
    assert without_notes(captured.err) == without_notes(expected.err)
    assert cli.main(["sweep", "--config", config(amplitudes), "--strict"]) == 1
    assert capsys.readouterr().err == f"error: {field}: state norm^2 is {norm_sq}, not 1 (strict mode rejects this)\n"


def test_all_zero_amplitudes_are_still_rejected(tmp_path, capsys):
    config = write(tmp_path, "run.yaml", "n: 2\ninput: [0, [0, 0]]\n")
    assert cli.main(["teleport", "--config", config]) == 1
    assert capsys.readouterr().err == "error: input: amplitudes are all zero\n"


def test_a_rejected_config_prints_no_normalization_note(tmp_path, capsys):
    # the input alone would normalize with a note; the spec fails later, so only its error prints
    config = write(tmp_path, "run.yaml", "n: 2\ninput: [3, 4]\neavesdrop:\n  theta: 2\n")
    assert cli.main(["teleport", "--config", config]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: eavesdrop.theta: must lie in [0, 1], got 2\n"


# subnormal amplitudes: the largest part's reciprocal overflows, so the
# list is scaled by a power of two; the norm^2 the note shows is that of
# the float each literal reads as
SUBNORMAL_STATES = [
    ("[1.0e-310, 0]", "1e-620"),
    ("[1.0e-320, 0]", "9.99978e-641"),
    ("[4.9e-324, 0]", "2.44101e-647"),
]


def assert_same_table(text: str, expected: str) -> None:
    """The same CSV up to roundoff: each field equal, or both numbers within 1e-15."""
    rows, expected_rows = (list(csv.reader(io.StringIO(t))) for t in (text, expected))
    assert len(rows) == len(expected_rows)
    for row, expected_row in zip(rows, expected_rows):
        for field, expected_field in zip(row, expected_row, strict=True):
            assert field == expected_field or abs(float(field) - float(expected_field)) <= 1e-15


@pytest.mark.parametrize("amplitudes, norm_sq", SUBNORMAL_STATES)
@pytest.mark.parametrize("field", ["input", "distinguish[1]"])
@pytest.mark.parametrize("command", ["teleport", "sweep"])
def test_subnormal_amplitudes_normalize(command, field, amplitudes, norm_sq, tmp_path, capsys):
    tap = "theta: 0.5" if command == "teleport" else "theta_sweep: [0, 1, 5]"

    def config(state):
        states = (state, "basis:1") if field == "input" else ("plus-uniform", state)
        return write(
            tmp_path, "run.yaml",
            f"n: 2\ninput: {states[0]}\neavesdrop:\n  {tap}\ndistinguish:\n  - basis:0\n  - {states[1]}\n",
        )

    assert cli.main([command, "--config", config("[1, 0]")]) == 0
    expected = capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflowing reciprocal warns before it writes NaN
        assert cli.main([command, "--config", config(amplitudes)]) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith(f"note: normalizing {field} (norm^2 was {norm_sq})\n")
    # the scaled list normalizes to [1, 0] within roundoff
    assert_same_table(captured.out, expected.out)
    assert cli.main([command, "--config", config(amplitudes), "--strict"]) == 1
    assert capsys.readouterr().err == f"error: {field}: state norm^2 is {norm_sq}, not 1 (strict mode rejects this)\n"


def test_a_state_paired_with_itself_leaks_nothing(tmp_path, capsys):
    # [1.0e-320, 0] normalizes to exactly basis:0, so every row's leakage is 0
    config = write(
        tmp_path, "run.yaml",
        "n: 2\ninput: plus-uniform\neavesdrop:\n  theta_sweep: [0, 1, 3]\n"
        "distinguish: [basis:0, [1.0e-320, 0]]\n",
    )
    assert cli.main(["sweep", "--config", config]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert [row[2] for row in rows[1:]] == ["0", "0", "0"]


# norm^2 off 1 by 1.0e-10 and 1.6e-10: within the note's tolerance, but
# outside the scenario's own check had the list stayed as written
NEAR_UNIT_STATES = ["[1, 1e-05]", "[0.6, 0.8000000001]"]


@pytest.mark.parametrize("amplitudes", NEAR_UNIT_STATES)
def test_near_unit_amplitudes_normalize_silently_and_run(amplitudes, tmp_path, capsys):
    text = f"n: 2\ninput: {amplitudes}\neavesdrop:\n  theta: 0.5\n"
    state = parse_config(text, strict=True).scenario.input_state
    assert abs(float(np.vdot(state, state).real) - 1.0) <= 1e-15
    assert capsys.readouterr().err == ""
    assert cli.main(["teleport", "--config", write(tmp_path, "run.yaml", text), "--strict"]) == 0
    assert capsys.readouterr().err.startswith("teleport: n=2, input explicit,")


def test_a_tap_at_zero_strength_leaks_nothing_from_a_near_unit_state(tmp_path, capsys):
    # left as written, the first state's norm^2 of 1 + 1.6e-10 read as a
    # leakage of 4.0e-11 at theta = 0, where the tap carries no information
    config = write(
        tmp_path, "run.yaml",
        "n: 2\ninput: plus-uniform\neavesdrop:\n  basis: computational\n  theta_sweep: [0, 1, 3]\n"
        "distinguish: [[0.6, 0.8000000001], basis:1]\n",
    )
    assert cli.main(["sweep", "--config", config]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[1][0] == "0" and float(rows[1][2]) <= 1e-15


def test_a_tap_report_names_a_lost_block(capsys, monkeypatch):
    # with no comparison to fail first, the tap report's row count catches
    # a kernel one block short, and verify's tap checks print its message
    lose_last_block(monkeypatch, engine)
    scenario = runner.build_scenario(parse_config(TAP_CONFIG))
    with pytest.raises(engine.RouteMismatch,
                       match=r"^tap report: 1 probability and 1 overlap rows for 2 branch pairs$"):
        eavesdrop.analyze_eavesdropping(scenario)
    checks, verdict = verify_quick_lines(capsys)
    assert checks["marginal-laws"] == f"FAIL marginal-laws: max deviation inf (tolerance 1.0e-10) {LOST_ROW}"
    assert checks["fidelity-curve"] == f"FAIL fidelity-curve: max deviation inf (tolerance 1.0e-09) {LOST_ROW}"
    assert verdict == "CHECKS FAILED (4/10)"


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = {"sample_noisy_receiver": "teleport", "sample_sweep": "sweep", "sample_teleport": "teleport"}


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_config_runs(name, capsys):
    assert {path.stem for path in CONFIGS.glob("*.yaml")} == set(SHIPPED)
    assert cli.main([SHIPPED[name], "--config", str(CONFIGS / f"{name}.yaml")]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(("record,", "theta,"))
    assert not re.search(r"\b(nan|inf)\b", captured.out + captured.err, re.IGNORECASE)


def test_non_finite_distinguishability_exits_two_before_writing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(runner, "distinguishability", lambda *args: float("nan"))
    target = tmp_path / "keep.csv"
    target.write_bytes(KEPT)
    config = write(tmp_path, "run.yaml", SWEEP_CONFIG)
    assert cli.main(["sweep", "--config", config, "--output", str(target)]) == 2
    assert capsys.readouterr().err == "invariant violation: theta=0: distinguishability is not finite\n"
    assert target.read_bytes() == KEPT


def test_non_finite_fidelity_of_a_live_branch_exits_two_before_writing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(runner, "conditional_fidelities", lambda overlaps, norms: np.full(norms.shape, np.nan))
    target = tmp_path / "keep.csv"
    target.write_bytes(KEPT)
    config = write(tmp_path, "run.yaml", TAP_CONFIG)
    assert cli.main(["teleport", "--config", config, "--output", str(target)]) == 2
    assert capsys.readouterr().err == "invariant violation: fidelity is not finite\n"
    assert target.read_bytes() == KEPT


def test_null_branch_keeps_its_empty_fidelity(tmp_path, capsys):
    # a full-strength tap in the input's own basis never fires its other branch
    config = write(tmp_path, "run.yaml", "n: 2\ninput: basis:0\neavesdrop:\n  theta: 1\n")
    assert cli.main(["teleport", "--config", config]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert "outcome,1,0-0,,0," in rows
    assert "nan" not in "".join(rows)
