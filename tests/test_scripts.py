"""Smoke runs of the experiment scripts, the public API's only callers outside the package."""
from __future__ import annotations

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_leakage_by_dimension_runs():
    result = run_script("leakage_by_dimension.py", "--max-n", "3", "--trials", "2")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "tap strength theta=0.5, 2 random inputs per dimension"
    assert lines[1].split() == [
        "n", "uniform", "F", "random", "min", "random", "max", "marginal", "flatness"
    ]
    assert [line.split()[0] for line in lines[2:]] == ["2", "3"]


@pytest.mark.parametrize("flags, message", [
    (("--theta", "1.5"), "--theta must lie in [0, 1]"),
    (("--max-n", "1"), "--max-n must be at least 2"),
    (("--max-n", "40"), "--max-n exceeds the supported maximum of 32"),
    (("--trials", "0"), "--trials must be at least 1"),
    (("--trials", "-3"), "--trials must be at least 1"),
    (("--seed", "-1"), "--seed must be non-negative"),
])
def test_leakage_by_dimension_bad_flag_exits_two(flags, message):
    result = run_script("leakage_by_dimension.py", *flags)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines()[-1] == f"leakage_by_dimension.py: error: {message}"


def test_strength_sweep_runs():
    result = run_script("strength_sweep.py", "--n", "2", "--points", "3")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "n=2, input=plus-uniform, tap basis=computational"
    assert lines[1].split() == ["theta", "fidelity", "advantage"]
    assert len(lines) == 5
    # the uniform qubit at full strength keeps fidelity 1/2 and leaks 1/2
    assert [float(x) for x in lines[-1].split()] == [1.0, 0.5, 0.5]


# the table the script printed when it reduced the transfer route itself
EXPECTED_SWEEP_TABLE = """\
n=2, input=plus-uniform, tap basis=computational
   theta       fidelity      advantage
   0.000    1.000000000    0.000000000
   0.250    0.984122918    0.125000000
   0.500    0.933012702    0.250000000
   0.750    0.830718914    0.375000000
   1.000    0.500000000    0.500000000
"""


def test_strength_sweep_is_the_cli_sweep(tmp_path):
    target = tmp_path / "curve.csv"
    result = run_script("strength_sweep.py", "--n", "2", "--points", "5", "--output", str(target))
    assert result.returncode == 0, result.stderr
    assert result.stdout == EXPECTED_SWEEP_TABLE + f"wrote 5 rows to {target}\n"
    # run_sweep's summary, both routes checked
    assert result.stderr.splitlines()[-1].startswith("routes: amplitude dev ")
    assert target.read_text(encoding="utf-8") == (
        "theta,total_fidelity,distinguishability\n"
        "0,1,0\n0.25,0.984122918276,0.125\n0.5,0.933012701892,0.25\n0.75,0.830718913883,0.375\n1,0.5,0.5\n"
    )


@pytest.mark.parametrize("flags, message", [
    (("--n", "40"), "error: n: dimension 40 exceeds the supported maximum of 32"),
    (("--points", "1"), "error: eavesdrop.theta_sweep: need at least 2 steps, got 1"),
    (("--input", "random", "--seed", "-1"), "error: input: seed must be non-negative, got -1"),
])
def test_strength_sweep_bad_flag_exits_one_with_the_config_message(flags, message):
    result = run_script("strength_sweep.py", *flags)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == message + "\n"


def test_code_lines_counts_statements_only(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        '"""Module docstring,\nover two lines."""\n'
        "# a comment\n"
        "\n"
        "x = 1\n"
        "\n"
        "\n"
        "def f():\n"
        '    """Function docstring."""\n'
        "    return x\n",
        encoding="utf-8",
    )
    result = run_script("code_lines.py", str(source))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [f"     3 {source}", "     3 total"]
