from __future__ import annotations

import re

import pytest

from teleportsim import cli, runner
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
    assert cli.main(["teleport", "--config", config, "--tolerance", "1e-9"]) == 0
    captured = capsys.readouterr()
    assert captured.out == EXPECTED_TAP_CSV
    assert "routes:" not in captured.out
    assert_routes_line(captured.err.splitlines()[-1], "1\\.0e-09")


ROUTES = r"routes: amplitude dev (\S+), probability dev (\S+), fidelity dev (\S+) \(tolerance {}\)"


def assert_routes_line(line: str, tolerance: str) -> None:
    match = re.fullmatch(ROUTES.format(tolerance), line)
    assert match is not None, line
    assert all(0.0 <= float(dev) <= 1e-10 for dev in match.groups())


def test_sweep_reports_route_deviations_on_stderr_only(tmp_path, capsys):
    config = write(tmp_path, "sweep.yaml", SWEEP_CONFIG)
    assert cli.main(["sweep", "--config", config]) == 0
    captured = capsys.readouterr()
    assert captured.out == EXPECTED_SWEEP_CSV
    assert_routes_line(captured.err.splitlines()[-1], "1\\.0e-10")


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


def test_invariant_violation_exits_two(tmp_path, capsys, monkeypatch):
    def explode(spec, stream, tolerance):
        raise InvariantViolation("routes disagree")

    monkeypatch.setattr(cli, "run_teleport", explode)
    config = write(tmp_path, "run.yaml", TAP_CONFIG)
    assert cli.main(["teleport", "--config", config]) == 2
    assert "invariant violation" in capsys.readouterr().err


def test_parted_route_streams_exit_two(tmp_path, capsys, monkeypatch):
    # the comparator's mismatch is a ValueError, which alone would exit 1
    route = runner.fast_run
    monkeypatch.setattr(runner, "fast_run", lambda scenario: list(route(scenario))[:-1])
    config = write(tmp_path, "run.yaml", TAP_CONFIG)
    assert cli.main(["teleport", "--config", config]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invariant violation: record count mismatch: oracle 8 vs transfer 4" in captured.err


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


def test_tolerance_flag_is_accepted(tmp_path):
    config = write(tmp_path, "run.yaml", TAP_CONFIG)
    assert cli.main(["teleport", "--config", config, "--tolerance", "1e-8",
                     "--output", str(tmp_path / "o.csv")]) == 0


def exit_code(argv):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    return info.value.code


@pytest.mark.parametrize(
    "extra", [["--bogus"], ["--workers", "4"], ["--seed", "5"]], ids=["unknown", "workers", "seed"]
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


@pytest.mark.parametrize("value", ["abc", "nan", "-1", "inf"])
def test_tolerance_must_be_finite_and_non_negative(value, tmp_path, capsys):
    config = write(tmp_path, "run.yaml", TAP_CONFIG)
    assert exit_code(["teleport", "--config", config, "--tolerance", value]) == 1
    assert "--tolerance" in capsys.readouterr().err


def test_seed_field_in_config_exits_one(tmp_path, capsys):
    config = write(tmp_path, "run.yaml", TAP_CONFIG + "seed: 0\n")
    assert cli.main(["teleport", "--config", config]) == 1
    assert "seed: unknown field" in capsys.readouterr().err
