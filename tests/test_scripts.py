"""The scripts: the experiment script, the public API's only caller outside the package, and the tools.

Each script's ``main(argv)`` runs in process; one subprocess smoke per
experiment script covers its ``__main__`` path.  The mutation check runs
one mutation here; the whole list runs outside the tier-1 suite.
"""
from __future__ import annotations

import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "scripts", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    # registered first, as an import would: a dataclass looks its module up there
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


leakage_by_dimension = load_script("leakage_by_dimension")
code_lines = load_script("code_lines")
mutation_check = load_script("mutation_check")


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_leakage_by_dimension_runs(capsys):
    assert leakage_by_dimension.main(["--max-n", "3", "--trials", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
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
def test_leakage_by_dimension_bad_flag_exits_two(capsys, flags, message):
    # parser.error raises SystemExit(2) after printing the usage and the message
    with pytest.raises(SystemExit) as exit_info:
        leakage_by_dimension.main(list(flags))
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"leakage_by_dimension.py: error: {message}"


def test_leakage_by_dimension_main_path_exits_with_mains_status():
    result = run_script("leakage_by_dimension.py", "--max-n", "2", "--trials", "1")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "tap strength theta=0.5, 1 random inputs per dimension"
    assert [line.split()[0] for line in lines[2:]] == ["2"]


def test_code_lines_counts_statements_only(tmp_path, capsys):
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
    assert code_lines.main([str(source)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [f"     3 {source}", "     3 total"]


@pytest.mark.parametrize("content, reason", [
    (None, "No such file or directory"),
    (b"x = (\n", "EOF in multi-line statement (line 2)"),
    (b"x = = 1\n", "invalid syntax (line 1)"),
    (b"\xff\n", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
], ids=["missing", "untokenizable", "unparsable", "undecodable"])
def test_code_lines_bad_file_exits_one_with_one_error_line(tmp_path, capsys, content, reason):
    source = tmp_path / "sample.py"
    if content is not None:
        source.write_bytes(content)
    assert code_lines.main([str(source)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {source}: {reason}\n"


def test_code_lines_main_path_exits_with_mains_status():
    result = run_script("code_lines.py")
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "usage: code_lines.py PATH...\n"


def test_mutation_check_kills_one_mutation_and_leaves_the_checkout_alone(capsys):
    mutation = next(m for m in mutation_check.MUTATIONS if m.name == "len-read-as-size")
    path = os.path.join(ROOT, mutation.path)
    with open(path, encoding="utf-8") as handle:
        before = handle.read()
    assert mutation_check.main([mutation.name]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("killed    len-read-as-size (")
    assert lines[1].startswith("1/1 mutations killed in ")
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == before


def test_mutation_check_reports_a_stale_mutation_as_stale(monkeypatch, capsys):
    # the old text is gone, so the mutation is never applied and never passes
    stale = mutation_check.Mutation("gone", "src/teleportsim/engine.py", "no such text", "", ("tests",))
    monkeypatch.setattr(mutation_check, "MUTATIONS", (stale,))
    assert mutation_check.main([]) == 1
    stale_line, summary = capsys.readouterr().out.splitlines()
    assert stale_line == "STALE     gone: old text occurs 0 times in src/teleportsim/engine.py"
    assert summary.startswith("0/1 mutations killed in ")
