from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from teleportsim import cli, config
from teleportsim.config import ConfigError, load_config, parse_config
from teleportsim.effects import Effect

MINIMAL = """
n: 2
input: plus-uniform
"""

FULL = """
n: 3
input: "basis:1"
u0:
  - [[0, 0], [1, 0], [0, 0]]
  - [[1, 0], [0, 0], [0, 0]]
  - [[0, 0], [0, 0], [1, 0]]
eavesdrop:
  basis: fourier
  theta: 0.4
effect_b:
  unitary:
    - [[1, 0], [0, 0], [0, 0]]
    - [[0, 0], [1, 0], [0, 0]]
    - [[0, 0], [0, 0], [-1, 0]]
distinguish: ["basis:0", "basis:2"]
output: out.csv
"""


def test_minimal_config():
    spec = parse_config(MINIMAL)
    assert spec.scenario.dim == 2
    assert spec.input_label == "plus-uniform"
    assert_allclose(spec.scenario.input_state, np.full(2, 1 / np.sqrt(2)), atol=1e-15)
    assert_allclose(spec.scenario.u0, np.eye(2), atol=1e-15)
    assert spec.eavesdrop is None
    assert spec.scenario.effect_b.labels == (None,)
    assert len(spec.scenario.bell.labels) == 4
    assert spec.distinguish[0][0] == "basis:0"
    assert spec.output_path is None


def test_full_config():
    spec = parse_config(FULL)
    assert spec.scenario.dim == 3
    assert_allclose(spec.scenario.input_state, [0, 1, 0], atol=1e-15)
    swap = np.zeros((3, 3))
    swap[0, 1] = swap[1, 0] = swap[2, 2] = 1
    assert_allclose(spec.scenario.u0, swap, atol=1e-15)
    assert spec.eavesdrop is not None
    assert spec.eavesdrop.theta == pytest.approx(0.4)
    assert spec.eavesdrop.sweep is None
    fourier = np.exp(2j * np.pi * np.outer(np.arange(3), np.arange(3)) / 3) / np.sqrt(3)
    assert_allclose(spec.eavesdrop.basis, fourier, atol=1e-12)
    assert isinstance(spec.scenario.effect_b, Effect) and len(spec.scenario.effect_b.labels) == 1
    assert spec.distinguish[1][0] == "basis:2"
    assert spec.output_path == "out.csv"


def test_json_document_is_accepted():
    spec = parse_config('{"n": 2, "input": "basis:0"}')
    assert_allclose(spec.scenario.input_state, [1, 0], atol=1e-15)


def test_sweep_config():
    spec = parse_config(
        "n: 2\ninput: plus-uniform\neavesdrop:\n  theta_sweep: [0, 1, 11]\n"
    )
    assert spec.eavesdrop.sweep == (0.0, 1.0, 11)
    assert spec.eavesdrop.theta is None


def test_random_input_is_seed_stable():
    spec_a = parse_config("n: 4\ninput: 'random:17'\n")
    spec_b = parse_config("n: 4\ninput: 'random:17'\n")
    assert_allclose(spec_a.scenario.input_state, spec_b.scenario.input_state, atol=0)
    assert np.vdot(spec_a.scenario.input_state, spec_a.scenario.input_state).real == pytest.approx(1.0)


def test_explicit_amplitudes_with_complex_entries():
    spec = parse_config("n: 2\ninput:\n  - [0.6, 0]\n  - [0, 0.8]\n")
    assert_allclose(spec.scenario.input_state, [0.6, 0.8j], atol=1e-15)


def test_unnormalized_input_normalized_with_note(capsys):
    spec = parse_config("n: 2\ninput: [1, 1]\n")
    assert_allclose(spec.scenario.input_state, np.full(2, 1 / np.sqrt(2)), atol=1e-12)
    assert "normalizing" in capsys.readouterr().err


@pytest.mark.parametrize(
    "amplitudes, exact",
    [("[0.98828125, 0]", [1, 0]), ("[1.0e-320, 0]", [1, 0]), ("[3, 4]", [0.6, 0.8])],
)
def test_normalized_amplitudes_are_correctly_rounded(amplitudes, exact, capsys):
    # every norm^2 and its root are exact here, so one correctly rounded
    # division per part gives 1, 0.6 and 0.8
    spec = parse_config(f"n: 2\ninput: {amplitudes}\n")
    assert spec.scenario.input_state.tolist() == exact
    assert "normalizing" in capsys.readouterr().err


def test_strict_mode_rejects_unnormalized_input():
    with pytest.raises(ConfigError, match="strict"):
        parse_config("n: 2\ninput: [1, 1]\n", strict=True)


def test_explicit_bell_family():
    text = """
n: 2
input: plus-uniform
bell:
  - {unitary: [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], weight: 0.5}
  - {unitary: [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], weight: 0.5}
  - {unitary: [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}
  - {unitary: [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}
  - {unitary: [[[0, 0], [-1, 0]], [[1, 0], [0, 0]]]}
"""
    spec = parse_config(text)
    assert len(spec.scenario.bell.labels) == 5
    assert spec.scenario.bell.weights[0] == pytest.approx(0.5)


def test_kraus_effect_b():
    text = """
n: 2
input: plus-uniform
effect_b:
  kraus:
    - [[[1, 0], [0, 0]], [[0, 0], [0.8, 0]]]
    - [[[0, 0], [0.6, 0]], [[0, 0], [0, 0]]]
"""
    spec = parse_config(text)
    assert isinstance(spec.scenario.effect_b, Effect)
    assert spec.scenario.effect_b.labels == (0, 1)


def test_exponent_theta_without_mantissa_dot():
    spec = parse_config("n: 2\ninput: plus-uniform\neavesdrop: {theta: 1e-09}\n")
    assert spec.eavesdrop.theta == 1e-09


def test_exponent_matrix_entry_without_mantissa_dot():
    spec = parse_config("n: 2\ninput: plus-uniform\nu0: [[1e0, 0], [0, -1E+0]]\n")
    assert_allclose(spec.scenario.u0, np.diag([1.0, -1.0]), atol=0)


def test_exponent_amplitude_without_mantissa_dot():
    spec = parse_config("n: 2\ninput: [1, 1e-05]\n")
    assert spec.input_label == "explicit"
    assert_allclose(spec.scenario.input_state, [1, 1e-05], rtol=1e-9)


@pytest.mark.parametrize(
    "text,needle",
    [
        ("input: plus-uniform\n", "n: field is required"),
        ("n: 1\ninput: plus-uniform\n", "n: must be at least 2"),
        ("n: 64\ninput: plus-uniform\n", "n: dimension 64 exceeds the supported maximum of 32"),
        ("n: 2\n", "input: field is required"),
        ("n: 2\ninput: plus-uniform\nbogus: 1\n", "bogus: unknown field"),
        ("n: 2\ninput: 'basis:7'\n", "out of range"),
        ("n: 2\ninput: 'basis:x'\n", "malformed basis index"),
        ("n: 2\ninput: nonsense\n", "unknown state name"),
        ("n: 2\ninput: [1, 0, 0]\n", "expected 2 amplitudes"),
        ("n: 2\ninput: [[1, 0, 9], [0, 0]]\n", "input[0]"),
        ("n: 2\ninput: plus-uniform\nu0: [[1, 0, 0], [0, 1]]\n", "u0[0]: expected 2 entries"),
        (
            "n: 2\ninput: plus-uniform\nu0: [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]\n",
            "u0: matrix is not unitary",
        ),
        (
            "n: 2\ninput: plus-uniform\nu0: Identity\n",
            "u0: expected 'identity' or a 2 x 2 unitary matrix, got 'Identity'",
        ),
        (
            "n: 3\ninput: plus-uniform\neavesdrop: {basis: Fourier, theta: 0.5}\n",
            "eavesdrop.basis: expected 'computational', 'fourier' or a 3 x 3 unitary matrix, "
            "got 'Fourier'",
        ),
        ("n: 2\ninput: plus-uniform\neavesdrop: {theta: 2}\n", "eavesdrop.theta"),
        (
            "n: 2\ninput: plus-uniform\neavesdrop: {theta: '1e-09'}\n",
            "eavesdrop.theta: expected a number, got '1e-09'",
        ),
        (
            "n: 2\ninput: plus-uniform\neavesdrop: {theta: 0.5, theta_sweep: [0, 1, 3]}\n",
            "exactly one of",
        ),
        ("n: 2\ninput: plus-uniform\neavesdrop: {}\n", "exactly one of"),
        (
            "n: 2\ninput: plus-uniform\neavesdrop: {theta_sweep: [0, 1, 1]}\n",
            "eavesdrop.theta_sweep: need at least 2 steps, got 1",
        ),
        pytest.param(
            "n: 2\ninput: plus-uniform\neavesdrop: {theta_sweep: [0, 1, 1002]}\n",
            "eavesdrop.theta_sweep: at most 1001 steps, got 1002",
            id="theta-sweep-cap-plus-one",
        ),
        pytest.param(
            f"n: 2\ninput: plus-uniform\neavesdrop: {{theta_sweep: [0, 1, 1{'0' * 400}]}}\n",
            "eavesdrop.theta_sweep: at most 1001 steps, got 1000",
            id="theta-sweep-400-digit-count",
        ),
        (
            "n: 2\ninput: plus-uniform\neavesdrop: {theta: 0.5, basis: [[1, 0], [1, 0]]}\n",
            "eavesdrop.basis",
        ),
        ("n: 2\ninput: plus-uniform\neffect_b: {}\n", "exactly one of"),
        (
            "n: 2\ninput: plus-uniform\neffect_b: {kraus: [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "
            "[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}\n",
            "effect_b.kraus",
        ),
        ("n: 2\ninput: plus-uniform\ndistinguish: ['basis:0']\n", "exactly two"),
        ("n: 2\ninput: plus-uniform\nbell: [{unitary: [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}]\n", "bell"),
        ("n: 2\ninput: 'random:-1'\n", "input: seed must be non-negative, got -1"),
        (
            "n: 2\ninput: plus-uniform\ndistinguish: ['basis:0', 'random:-3']\n",
            "distinguish[1]: seed must be non-negative",
        ),
        ("n: 2\ninput: plus-uniform\nu0: [[.inf, 0], [0, 1]]\n", "u0[0][0]: expected a finite number"),
        (
            "n: 2\ninput: plus-uniform\neffect_b: {kraus: [[[1, 0], [0, [.nan, 0]]]]}\n",
            "effect_b.kraus[0][1][1]: expected a finite number",
        ),
        ("n: 2\ninput: [1, .nan]\n", "input[1]: expected a finite number"),
        ("n: 2\ninput: [1, [0, -.inf]]\n", "input[1]: expected a finite number"),
        (
            "n: 2\ninput: plus-uniform\nbell: [{unitary: [[1, 0], [0, 1]], weight: .nan}]\n",
            "bell[0].weight: expected a positive number, got nan",
        ),
        ("[1, 2]", "expected a mapping"),
        ("n: 2\ninput: plus-uniform\noutput: 3\n", "output: expected a path"),
    ],
)
def test_rejected_configs_name_the_field(text, needle):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert needle in str(excinfo.value)


HUGE = "1" + "0" * 400


@pytest.mark.parametrize(
    "text,needle",
    [
        (f"n: 2\ninput: [1, {HUGE}]\n", "input[1]: expected a finite number"),
        (
            f"n: 2\ninput: plus-uniform\neavesdrop: {{theta: {HUGE}}}\n",
            "eavesdrop.theta: must lie in [0, 1]",
        ),
        (
            f"n: 2\ninput: plus-uniform\neavesdrop: {{theta_sweep: [0, {HUGE}, 3]}}\n",
            "eavesdrop.theta_sweep: start and stop must lie in [0, 1]",
        ),
        (
            f"n: 2\ninput: plus-uniform\nbell: [{{unitary: [[1, 0], [0, 1]], weight: {HUGE}}}]\n",
            "bell[0].weight: expected a positive number",
        ),
    ],
    ids=["amplitude", "theta", "theta-sweep-stop", "bell-weight"],
)
def test_integer_too_large_for_a_float_names_the_field(text, needle):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert str(excinfo.value).startswith(needle)


def test_shipped_sample_configs_parse():
    root = Path(__file__).resolve().parent.parent / "configs"
    teleport = load_config(str(root / "sample_teleport.yaml"))
    assert teleport.scenario.dim == 2 and teleport.eavesdrop.theta == pytest.approx(0.5)
    sweep = load_config(str(root / "sample_sweep.yaml"))
    assert sweep.eavesdrop.sweep == (0.0, 1.0, 11)
    noisy = load_config(str(root / "sample_noisy_receiver.yaml"))
    assert isinstance(noisy.scenario.effect_b, Effect) and len(noisy.scenario.effect_b.labels) == 2


# more digits than Python reads into an int (sys.get_int_max_str_digits())
UNREADABLE = "1" + "0" * 5000


@pytest.mark.parametrize(
    "text,needle",
    [
        (
            f"n: 2\ninput: plus-uniform\neavesdrop:\n  theta_sweep: [0, 1, {UNREADABLE}]\n",
            "eavesdrop.theta_sweep[2]: integer of 5001 characters is too long to read (line 4, column 23)",
        ),
        (
            f"n: 2\ninput: plus-uniform\neavesdrop:\n  theta: 0.5\n  seed: {UNREADABLE}\n",
            "eavesdrop.seed: integer of 5001 characters is too long to read (line 5, column 9)",
        ),
        (
            f"n: 2\ninput: [1, [0, {UNREADABLE}]]\n",
            "input[1][1]: integer of 5001 characters",
        ),
        (f"{UNREADABLE}\n", "document: integer of 5001 characters"),
        (
            f"n: 2\ninput: plus-uniform\neavesdrop:\n  <<: {{theta: {UNREADABLE}}}\n",
            "eavesdrop.<<.theta: integer of 5001 characters is too long to read (line 4, column 15)",
        ),
        # the first fault in document order wins over a later repeated key
        (
            f"n: {UNREADABLE}\ninput: plus-uniform\ninput: basis:1\n",
            "n: integer of 5001 characters is too long to read (line 1, column 4)",
        ),
        (
            f"n: {UNREADABLE}\ninput: plus-uniform\neavesdrop: {{theta: 0.1, theta: 0.2}}\n",
            "n: integer of 5001 characters is too long to read (line 1, column 4)",
        ),
    ],
    ids=[
        "theta-sweep-steps", "eavesdrop-seed", "amplitude-part", "document", "merge-source",
        "before-repeated-key", "before-nested-repeated-key",
    ],
)
def test_unreadable_integer_names_the_field(text, needle):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert str(excinfo.value).startswith(needle)


@pytest.mark.parametrize("command", ["teleport", "sweep"])
@pytest.mark.parametrize("field", ["theta_sweep: [0, 1, {}]", "theta: 0.5\n  seed: {}"])
def test_unreadable_integer_exits_one_with_one_error_line(command, field, tmp_path, capsys):
    path = tmp_path / "run.yaml"
    path.write_text(
        "n: 2\ninput: plus-uniform\neavesdrop:\n  " + field.format(UNREADABLE) + "\n",
        encoding="utf-8",
    )
    assert cli.main([command, "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: eavesdrop.")
    assert "too long to read" in lines[0] and "Traceback" not in captured.err


def test_moderate_nesting_reads_as_written():
    # 300 levels stay within the recursion limit: the field is read, and
    # refused for what it holds
    with pytest.raises(ConfigError, match=r"^n: expected an integer, got \[\[\["):
        parse_config("n: " + "[" * 300 + "]" * 300 + "\ninput: plus-uniform\n")


# a level a line, besides the one-line form: the composer runs out of
# recursion on a nesting of a few hundred levels however it is written, and
# a one-line nesting deeper than MAX_FLOW_DEPTH is refused by the scanner
@pytest.mark.parametrize("opening", [
    pytest.param("[" * 600, id="600-one-line"),
    *(pytest.param("[\n" * depth, id=f"{depth}-a-level-a-line") for depth in (600, 1000, 20_000)),
])
def test_deep_nesting_exits_one_with_one_error_line(opening, tmp_path, capsys):
    path = tmp_path / "run.yaml"
    depth = opening.count("[")
    path.write_text("n: " + opening + "]" * depth + "\ninput: plus-uniform\n", encoding="utf-8")
    assert cli.main(["teleport", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: document: nested too deeply to read\n"


def test_a_deep_one_line_nesting_is_refused_at_the_flow_bound(monkeypatch):
    # PyYAML's scanner rescans every pending "[" of a line for each token:
    # past the bound it reads no further, where it would read on for about
    # a thousand levels before the composer ran out of recursion
    tokens = 0
    fetch = config._ConfigLoader.fetch_more_tokens

    def counted(loader):
        nonlocal tokens
        tokens += 1
        fetch(loader)

    monkeypatch.setattr(config._ConfigLoader, "fetch_more_tokens", counted)
    with pytest.raises(ConfigError, match=r"^document: nested too deeply to read$"):
        parse_config("n: " + "[" * 20_000 + "]" * 20_000 + "\ninput: plus-uniform\n")
    # one token a level up to the bound, and the few before the nesting
    assert config.MAX_FLOW_DEPTH < tokens <= config.MAX_FLOW_DEPTH + 4


def test_a_json_config_with_an_explicit_bell_family_reads_within_the_flow_bound():
    # six flow levels: the document, the family, an outcome, its matrix, a row and a pair
    weyl = [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
            [[[0, 0], [1, 0]], [[1, 0], [0, 0]]], [[[0, 0], [-1, 0]], [[1, 0], [0, 0]]]]
    text = json.dumps({"n": 2, "input": "plus-uniform", "bell": [{"unitary": u} for u in weyl]})
    assert parse_config(text).scenario.bell.labels == (0, 1, 2, 3)


@pytest.mark.parametrize(
    "text,needle",
    [
        ("n: 2\nn: 3\ninput: plus-uniform\n", "n: repeated key (line 2, column 1)"),
        ('{"n": 2, "n": 3, "input": "plus-uniform"}', "n: repeated key (line 1, column 10)"),
        (
            "n: 2\ninput: plus-uniform\neavesdrop: {theta: 0.1, theta: 0.9}\n",
            "eavesdrop.theta: repeated key (line 3, column 25)",
        ),
        (
            "n: 2\ninput: plus-uniform\nbell:\n  - unitary: [[1, 0], [0, 1]]\n"
            "    weight: 1\n    weight: 2\n",
            "bell[0].weight: repeated key (line 6, column 5)",
        ),
        ("n: 2\n'n': 3\ninput: plus-uniform\n", "n: repeated key (line 2, column 1)"),
        (
            "n: 2\ninput: plus-uniform\neavesdrop:\n"
            "  <<: [{basis: computational}, {<<: {theta: 0.1, theta: 0.2}}]\n",
            "eavesdrop.<<[1].<<.theta: repeated key (line 4, column 50)",
        ),
        # a list that holds itself is walked once
        (
            "n: 2\ninput: &x [1, *x]\neavesdrop: {theta: 0.1, theta: 0.2}\n",
            "eavesdrop.theta: repeated key (line 3, column 25)",
        ),
    ],
    ids=["top-level", "json", "nested", "in-sequence", "quoted", "merge-source-list", "after-recursive-alias"],
)
def test_repeated_key_names_the_field(text, needle):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert str(excinfo.value) == needle


def test_merged_keys_may_be_overridden():
    spec = parse_config(
        "n: 2\ninput: plus-uniform\n"
        "eavesdrop:\n  <<: {basis: computational, theta: 0.1}\n  theta: 0.9\n"
    )
    assert spec.eavesdrop.theta == 0.9
    # *half reaches the &half mapping a second time; it is checked once,
    # so its overriding weight does not count as repeated
    spec = parse_config(
        "n: 2\ninput: plus-uniform\nbell:\n"
        "  - <<: &half {<<: {unitary: [[1, 0], [0, 1]], weight: 3}, weight: 0.5}\n"
        "  - *half\n"
        "  - unitary: [[0, 1], [1, 0]]\n"
        "  - unitary: [[1, 0], [0, -1]]\n"
        "  - unitary: [[0, -1], [1, 0]]\n"
    )
    assert spec.scenario.bell.weights.tolist() == [0.5, 0.5, 1.0, 1.0, 1.0]
