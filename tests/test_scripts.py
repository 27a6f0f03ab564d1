"""Smoke runs of the experiment scripts, the public API's only callers outside the package."""
from __future__ import annotations

import os
import subprocess
import sys

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


def test_strength_sweep_runs():
    result = run_script("strength_sweep.py", "--n", "2", "--points", "3")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "n=2, input=plus-uniform, tap basis=computational"
    assert lines[1].split() == ["theta", "fidelity", "advantage"]
    assert len(lines) == 5
    # the uniform qubit at full strength keeps fidelity 1/2 and leaks 1/2
    assert [float(x) for x in lines[-1].split()] == [1.0, 0.5, 0.5]
