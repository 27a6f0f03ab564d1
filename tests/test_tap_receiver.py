"""A reference-line tap together with a receiver effect.

The tap sees only ``(l, m)``, so the branch-operator route sums each cell
over the receiver branches before it is compared with the oracle.  The
expected numbers are frozen literals from the brute-force route in
`tests/oracles.py`; `test_literals_follow_brute_force` shows where they
come from.  `test_random_tap_and_receiver_run_cleanly` draws whole valid
config documents, tap and receiver optional, and runs each in process;
`test_one_changed_field_exits_one_with_one_error_line` changes one field
of such a document and requires the one error line that names it.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleportsim import cli
from teleportsim.config import parse_config
from teleportsim.eavesdrop import analyze_eavesdropping, eavesdrop_operator
from teleportsim.linalg import FAMILY_TOL, hermiticity_deviation
from teleportsim.runner import build_scenario
from teleportsim.sampling import random_state, random_unitary

from oracles import brute_strength_branch, brute_teleport, brute_weyl

HADAMARD_U0 = (
    "[[0.7071067811865476, 0.7071067811865476], [0.7071067811865476, -0.7071067811865476]]"
)
RECEIVERS = {
    "unitary": "effect_b:\n  unitary: [[0.6, [0, -0.8]], [[0, -0.8], 0.6]]\n",
    "kraus": "effect_b:\n  kraus:\n    - [[1, 0], [0, 0.8]]\n    - [[0, 0.6], [0, 0]]\n",
}
RECEIVER_MATRICES = {
    "unitary": [np.array([[0.6, -0.8j], [-0.8j, 0.6]])],
    "kraus": [
        np.array([[1, 0], [0, 0.8]], dtype=complex),
        np.array([[0, 0.6], [0, 0]], dtype=complex),
    ],
}
INPUT = np.array([0.6, 0.8j])
TELEPORT_BASE = f"n: 2\ninput: [0.6, [0, 0.8]]\nu0: {HADAMARD_U0}\neavesdrop:\n  theta: 0.5\n"
SWEEP_BASE = "n: 2\ninput: [0.6, [0, 0.8]]\neavesdrop:\n  theta_sweep: [0, 0.8, 3]\n"

# (l, m, branch) -> (probability, fidelity), in CSV row order
TELEPORT_ROWS = {
    "unitary": {
        (0, (0, 0), None): (0.125, 0.37875644347017856),
        (0, (0, 1), None): (0.125, 0.37875644347017856),
        (0, (1, 0), None): (0.125, 0.37875644347017856),
        (0, (1, 1), None): (0.125, 0.37875644347017856),
        (1, (0, 0), None): (0.125, 0.37875644347017856),
        (1, (0, 1), None): (0.125, 0.37875644347017856),
        (1, (1, 0), None): (0.125, 0.37875644347017856),
        (1, (1, 1), None): (0.125, 0.37875644347017856),
    },
    "kraus": {
        (0, (0, 0), 0): (0.09704403995615808, 0.9146173293792227),
        (0, (0, 1), 0): (0.09704403995615808, 0.9146173293792227),
        (0, (1, 0), 0): (0.10795596004384199, 0.9310659704188082),
        (0, (1, 1), 0): (0.10795596004384199, 0.9310659704188082),
        (0, (0, 0), 1): (0.02795596004384198, 0.36),
        (0, (0, 1), 1): (0.02795596004384198, 0.36),
        (0, (1, 0), 1): (0.01704403995615804, 0.64),
        (0, (1, 1), 1): (0.01704403995615804, 0.64),
        (1, (0, 0), 0): (0.09704403995615808, 0.9146173293792227),
        (1, (0, 1), 0): (0.09704403995615808, 0.9146173293792227),
        (1, (1, 0), 0): (0.10795596004384199, 0.9310659704188082),
        (1, (1, 1), 0): (0.10795596004384199, 0.9310659704188082),
        (1, (0, 0), 1): (0.02795596004384198, 0.36),
        (1, (0, 1), 1): (0.02795596004384198, 0.36),
        (1, (1, 0), 1): (0.01704403995615804, 0.64),
        (1, (1, 1), 1): (0.01704403995615804, 0.64),
    },
}
TELEPORT_TOTAL_FIDELITY = {"unitary": 0.3787564434701788, "kraus": 0.84097845018124}
# theta, total fidelity, guessing advantage for basis:0 against basis:1
SWEEP_ROWS = {
    "unitary": [(0.0, 0.36, 0.0), (0.4, 0.37077155070680345, 0.2), (0.8, 0.4116096, 0.4)],
    "kraus": [(0.0, 0.893728, 0.0), (0.4, 0.8629521408377039, 0.2), (0.8, 0.746272, 0.4)],
}
# the CSV carries 12 significant digits
CSV_TOL = 1e-11


def run_cli(command: str, text: str) -> tuple[int, list[list[str]]]:
    with tempfile.TemporaryDirectory() as workdir:
        config = os.path.join(workdir, "run.yaml")
        output = os.path.join(workdir, "out.csv")
        with open(config, "w", encoding="utf-8") as handle:
            handle.write(text)
        code = cli.main([command, "--config", config, "--output", output])
        if code != 0:
            return code, []
        with open(output, encoding="utf-8") as handle:
            return code, list(csv.reader(handle))


def parse_label(text: str):
    if text == "":
        return None
    if "-" in text:
        return tuple(int(part) for part in text.split("-"))
    return int(text)


def brute_cells(theta, state, u0, receiver):
    """Brute-force amplitude for every ``(l, m, branch)`` of a qubit run."""
    out = {}
    for l in range(2):
        e_r = brute_strength_branch(2, theta, l)
        for b, f_b in enumerate(receiver):
            branch = None if len(receiver) == 1 else b
            for a in range(2):
                for c in range(2):
                    amp = brute_teleport(2, state, u0, e_r, f_b, brute_weyl(2, a, c))
                    out[(l, (a, c), branch)] = amp
    return out


@pytest.mark.parametrize("receiver", sorted(RECEIVERS))
def test_teleport_with_tap_and_receiver_effect(receiver):
    code, rows = run_cli("teleport", TELEPORT_BASE + RECEIVERS[receiver])
    assert code == 0
    outcome_rows = {
        (parse_label(r[1]), parse_label(r[2]), parse_label(r[3])): (float(r[4]), float(r[5]))
        for r in rows
        if r[0] == "outcome"
    }
    assert list(outcome_rows) == list(TELEPORT_ROWS[receiver])
    for key, (probability, fidelity) in TELEPORT_ROWS[receiver].items():
        assert outcome_rows[key][0] == pytest.approx(probability, abs=CSV_TOL)
        assert outcome_rows[key][1] == pytest.approx(fidelity, abs=CSV_TOL)
    total = rows[-1]
    assert total[0] == "total"
    assert float(total[4]) == pytest.approx(1.0, abs=CSV_TOL)
    assert float(total[5]) == pytest.approx(TELEPORT_TOTAL_FIDELITY[receiver], abs=CSV_TOL)


@pytest.mark.parametrize("receiver", sorted(RECEIVERS))
def test_sweep_with_tap_and_receiver_effect(receiver):
    code, rows = run_cli("sweep", SWEEP_BASE + RECEIVERS[receiver])
    assert code == 0
    assert rows[0] == ["theta", "total_fidelity", "distinguishability"]
    got = [tuple(float(cell) for cell in row) for row in rows[1:]]
    assert len(got) == len(SWEEP_ROWS[receiver])
    for have, want in zip(got, SWEEP_ROWS[receiver]):
        assert have == pytest.approx(want, abs=CSV_TOL)


def test_tap_report_sums_receiver_branches():
    scenario = build_scenario(parse_config(TELEPORT_BASE + RECEIVERS["kraus"]))
    report = analyze_eavesdropping(scenario)
    rows = TELEPORT_ROWS["kraus"]
    cells = [(row, column, l, m) for row, l in enumerate(report.tap_labels)
             for column, m in enumerate(report.labels)]
    for row, column, l, m in cells:
        branches = [rows[(l, m, b)] for b in (0, 1)]
        probability = sum(p for p, _ in branches)
        assert report.probabilities[row, column] == pytest.approx(probability, abs=1e-12)
        assert report.fidelities[row, column] == pytest.approx(
            sum(p * f for p, f in branches) / probability, abs=1e-12
        )
    assert report.total_fidelity == pytest.approx(TELEPORT_TOTAL_FIDELITY["kraus"], abs=1e-12)
    # Hermiticity is a property of P(l, m) alone; the receiver does not enter
    for _, _, l, m in cells:
        assert hermiticity_deviation(eavesdrop_operator(scenario, l, m)) < 1e-12


@pytest.mark.parametrize("receiver", sorted(RECEIVERS))
def test_literals_follow_brute_force(receiver):
    matrices = RECEIVER_MATRICES[receiver]
    s = 0.7071067811865476
    hadamard = np.array([[s, s], [s, -s]], dtype=complex)
    cells = brute_cells(0.5, INPUT, hadamard, matrices)
    total = 0.0
    for key, (probability, fidelity) in TELEPORT_ROWS[receiver].items():
        amp = cells[key]
        overlap = abs(np.vdot(INPUT, amp)) ** 2
        assert float(np.vdot(amp, amp).real) == pytest.approx(probability, abs=1e-14)
        assert overlap / probability == pytest.approx(fidelity, abs=1e-14)
        total += overlap
    assert total == pytest.approx(TELEPORT_TOTAL_FIDELITY[receiver], abs=1e-14)
    identity = np.eye(2, dtype=complex)
    for theta, fidelity, advantage in SWEEP_ROWS[receiver]:
        cells = brute_cells(theta, INPUT, identity, matrices)
        assert sum(abs(np.vdot(INPUT, a)) ** 2 for a in cells.values()) == pytest.approx(
            fidelity, abs=1e-14
        )
        tables = []
        for state in (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)):
            table: dict = {}
            for (l, m, _), amp in brute_cells(theta, state, identity, matrices).items():
                table[(l, m)] = table.get((l, m), 0.0) + float(np.vdot(amp, amp).real)
            tables.append(table)
        gap = sum(abs(tables[0][key] - tables[1][key]) for key in tables[0])
        assert 0.25 * gap == pytest.approx(advantage, abs=1e-14)


class Raw(str):
    """YAML text written as it stands, such as an integer too long for ``str()``."""


class Pairs(tuple):
    """A mapping as ``(key, value)`` pairs, so a key may repeat."""


def yaml_flow(value: object) -> str:
    """YAML flow text of a field value built from mappings, lists, strings and numbers."""
    if isinstance(value, Raw):
        return str(value)
    if isinstance(value, (dict, Pairs)):
        items = value.items() if isinstance(value, dict) else value
        return "{" + ", ".join(f"{key}: {yaml_flow(item)}" for key, item in items) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(yaml_flow, value)) + "]"
    if isinstance(value, str):
        return f"'{value}'"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        return str(value)
    if math.isnan(value):
        return ".nan"
    if math.isinf(value):
        return ".inf" if value > 0 else "-.inf"
    # shortest round-trip form, e.g. "1e-09": configs read YAML 1.2 floats
    return repr(value)


def complex_entries(vec: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in vec]


def complex_rows(mat: np.ndarray) -> list:
    return [complex_entries(row) for row in np.asarray(mat, dtype=complex)]


@st.composite
def state_values(draw, n, rng):
    """Any input form; an amplitude list is scaled by 10^e, e in [-320, 300]."""
    form = draw(st.sampled_from(["plus-uniform", "basis", "random", "list"]))
    if form == "plus-uniform":
        return form
    if form == "basis":
        return f"basis:{draw(st.integers(0, n - 1))}"
    if form == "random":
        return f"random:{draw(st.integers(0, 10**6))}"
    # below 1e-308 the parts are subnormal and keep only a few digits
    amplitudes = random_state(n, rng) * 10.0 ** draw(st.integers(-320, 300))
    if draw(st.booleans()):  # bare real numbers
        return [float(a.real) for a in amplitudes]
    return complex_entries(amplitudes)


# a closure defect admission lets through, with room for the roundoff of the family it scales
closure_defects = st.floats(min_value=-0.99 * FAMILY_TOL, max_value=0.99 * FAMILY_TOL)


@st.composite
def document_fields(draw):
    """``(command, fields, merged, closure)``: the top-level fields of a valid ``teleport`` or ``sweep`` document.

    n is 2 to 6, or 32 in one document in forty.  An explicit Bell
    family ``V W(a, b) V^+`` is drawn at n <= 4 only, as its parse cost
    grows with n^4; a Kraus receiver is a random isometry cut into one to
    three blocks.  Either may be scaled off closure by a factor within
    `FAMILY_TOL` of 1, which admission lets through: every Bell weight is
    then ``1 + d`` and every Kraus block is scaled by ``sqrt(1 + d)``.
    ``closure`` is the product of the two factors, the probability sum a
    run must report.  ``merged`` names the fields that one draw in two
    moves into a ``<<`` merge.
    """
    command = draw(st.sampled_from(["teleport", "sweep"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # the seeded generator, not a draw, picks n = 32: Hypothesis would
    # draw a rare choice in bursts, and an n = 32 matrix takes 0.15 s to parse
    n = 32 if rng.random() < 0.025 else draw(st.integers(2, 6))
    fields = {"n": n, "input": draw(state_values(n, rng))}
    u0 = draw(st.sampled_from([None, "identity", "matrix"]))
    if u0 is not None:
        fields["u0"] = u0 if u0 == "identity" else complex_rows(random_unitary(n, rng))
    bell = draw(st.sampled_from([None, "weyl", "explicit"] if n <= 4 else [None, "weyl"]))
    closure = 1.0
    if bell == "explicit":
        v = random_unitary(n, rng)
        weight = draw(st.sampled_from([{}, {"weight": 1}, {"weight": 1 + draw(closure_defects)}]))
        closure *= weight.get("weight", 1)
        fields["bell"] = [
            {"unitary": complex_rows(v @ brute_weyl(n, a, b) @ v.conj().T), **weight}
            for a in range(n) for b in range(n)
        ]
    elif bell is not None:
        fields["bell"] = bell
    tap = {}
    basis = draw(st.sampled_from([None, "computational", "fourier", "matrix"]))
    if basis is not None:
        tap["basis"] = basis if basis != "matrix" else complex_rows(random_unitary(n, rng))
    strengths = st.floats(min_value=0.0, max_value=1.0)
    if command == "sweep":
        # start and stop are drawn apart, so half the grids descend
        tap["theta_sweep"] = [draw(strengths), draw(strengths), draw(st.integers(2, 4))]
    if command == "sweep" or draw(st.booleans()):
        if command == "teleport":
            tap["theta"] = draw(strengths)
        fields["eavesdrop"] = tap
    receiver = draw(st.sampled_from([None, "unitary", "kraus"]))
    if receiver == "unitary":
        fields["effect_b"] = {"unitary": complex_rows(random_unitary(n, rng))}
    elif receiver == "kraus":
        count = draw(st.integers(1, 3))
        defect = draw(st.sampled_from([0.0, draw(closure_defects)]))
        closure *= 1 + defect
        isometry = random_unitary(count * n, rng)[:, :n] * math.sqrt(1 + defect)
        fields["effect_b"] = {"kraus": [complex_rows(isometry[i * n:(i + 1) * n]) for i in range(count)]}
    if draw(st.booleans()):
        fields["distinguish"] = [draw(state_values(n, rng)), draw(state_values(n, rng))]
    merged = []
    if draw(st.booleans()):
        merged = draw(st.lists(st.sampled_from(sorted(fields)), min_size=1, unique=True))
    return command, fields, merged, closure


def render(fields: dict | Pairs, merged: list[str]) -> str:
    """The document text: the ``merged`` fields in one root ``<<`` merge, the others below it."""
    items = list(fields.items() if isinstance(fields, dict) else fields)
    inside = Pairs((key, value) for key, value in items if key in merged)
    text = f"<<: {yaml_flow(inside)}\n" if inside else ""
    return text + "".join(f"{key}: {yaml_flow(value)}\n" for key, value in items if key not in merged)


@st.composite
def documents(draw):
    """``(command, text, closure)``: a valid YAML document for ``teleport`` or ``sweep``."""
    command, fields, merged, closure = draw(document_fields())
    return command, render(fields, merged), closure


def nodes(value: object, path: tuple = ()):
    """Every ``(path, node)`` of a field value, ``path`` the keys and indices down to ``node``."""
    yield path, value
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from nodes(child, path + (key,))


def replaced(value: object, path: tuple, new: object) -> object:
    """A copy of ``value`` with the node at ``path`` replaced by ``new``."""
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = replaced(value[path[0]], path[1:], new)
    return copy


def is_number(node: object) -> bool:
    return isinstance(node, (int, float)) and not isinstance(node, bool)


# each change, the nodes it applies to and the new node it draws for one
CHANGES = {
    "wrong type": (lambda node: True, lambda node: st.sampled_from(
        [new for new in (True, "oops", {"bad": 1}) if type(new) is not type(node)])),
    "non-finite": (is_number, lambda node: st.sampled_from([math.nan, math.inf, -math.inf])),
    "400 digits": (is_number, lambda node: st.just(10**399)),
    "over 4300 digits": (is_number, lambda node: st.integers(4301, 5000).map(lambda digits: Raw("9" * digits))),
    "wrong shape": (lambda node: isinstance(node, list) and len(node) > 0,
                    lambda node: st.sampled_from([node[:-1], node + node[-1:]])),
    "empty list": (lambda node: True, lambda node: st.just([])),
}


@st.composite
def one_field_changes(draw):
    """``(command, text, field)``: a valid document with one change below its top-level ``field``.

    The change replaces one node of one field's value (`CHANGES`), or it
    changes one mapping, the root included: ``"repeated key"`` writes one
    of its keys twice, ``"non-scalar key"`` adds a list or mapping key,
    which is named by the mapping's path, ``document`` at the root.
    ``"deep nesting"`` replaces one node by a list nested past the
    recursion limit, which fails the whole ``document``.
    """
    command, fields, merged, _ = draw(document_fields())
    targets = {kind: [(path, node) for path, node in nodes(fields) if path and applies(node)]
               for kind, (applies, _) in CHANGES.items()}
    targets["repeated key"] = targets["non-scalar key"] = [
        (path, node) for path, node in nodes(fields) if isinstance(node, dict) and node
    ]
    targets["deep nesting"] = [(path, node) for path, node in nodes(fields) if path]
    kind = draw(st.sampled_from(sorted(kind for kind in targets if targets[kind])))
    path, node = draw(st.sampled_from(targets[kind]))
    if kind in CHANGES:
        return command, render(replaced(fields, path, draw(CHANGES[kind][1](node))), merged), path[0]
    if kind == "deep nesting":
        # Hypothesis lifts the recursion limit about 2000 frames past the
        # test's own depth while it runs, so 600 levels would read as
        # written; a level a line keeps PyYAML's scanner linear in the depth
        depth = draw(st.sampled_from([5_000, 20_000]))
        return command, render(replaced(fields, path, Raw("[\n" * depth + "]" * depth)), merged), "document"
    items = list(node.items())
    if kind == "repeated key":
        key = draw(st.sampled_from(sorted(node)))
        items.append((key, node[key]))
    else:
        key = "document"
        items.insert(draw(st.integers(0, len(items))), (Raw(draw(st.sampled_from(["[1]", "{a: 1}"]))), 1))
    if not path:
        return command, render(Pairs(items), merged), key
    return command, render(replaced(fields, path, Pairs(items)), merged), path[0]


def run_in_process(command: str, text: str) -> tuple[int, str, str]:
    """`cli.main` on ``text`` as a config file: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as workdir:
        config = os.path.join(workdir, "run.yaml")
        with open(config, "w", encoding="utf-8") as handle:
            handle.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", config])
    return code, out.getvalue(), err.getvalue()


@given(documents())
@settings(max_examples=50, deadline=None)
def test_random_tap_and_receiver_run_cleanly(document):
    command, text, closure = document
    code, out, err = run_in_process(command, text)
    assert code == 0, err
    assert not re.search("nan|inf", out, re.IGNORECASE)
    if command == "teleport":
        rows = list(csv.reader(io.StringIO(out)))
        total = rows[-1]
        assert total[0] == "total"
        # every drawn family closes to roundoff times its drawn factor, so
        # the sums are that factor as well
        assert sum(float(r[4]) for r in rows if r[0] == "outcome") == pytest.approx(closure, abs=1e-9)
        assert float(total[4]) == pytest.approx(closure, abs=CSV_TOL)
        expected = re.search(r"probability sum \S+, expected (\S+)$", err, re.MULTILINE)
        assert float(total[4]) == pytest.approx(float(expected.group(1)), abs=1e-10)
    else:
        sums = re.search(r"^probability sum (\S+) -> (\S+), expected (\S+) -> (\S+)$", err, re.MULTILINE)
        first, last, first_expected, last_expected = map(float, sums.groups())
        assert first == pytest.approx(first_expected, abs=1e-10)
        assert last == pytest.approx(last_expected, abs=1e-10)
        assert (first, last) == pytest.approx((closure, closure), abs=1e-10)


@given(one_field_changes())
@settings(max_examples=50, deadline=None)
def test_one_changed_field_exits_one_with_one_error_line(change):
    command, text, field = change
    code, out, err = run_in_process(command, text)
    assert (code, out) == (1, ""), err
    assert "Traceback" not in err
    # a field in the root << merge names its faults below the merge
    assert re.fullmatch(rf"error: (<<\.)?{re.escape(field)}[.\[:][^\n]*\n", err), err


def brute_table(psi, u0, taps, bell, receivers) -> dict:
    """Every row a ``teleport`` CSV holds, by `brute_teleport` loops.

    Keys are ``(record, l, m, branch)`` as the CSV labels a row, values
    ``(probability, fidelity)``, fidelity None where the row has none.
    ``taps`` are the tap's branch operators, ``bell`` the ``(label,
    unitary)`` outcomes at unit weight and ``receivers`` the receiver's
    Kraus operators, one unlabeled branch when alone.
    """
    n = len(psi)
    rows, p_l, p_m, fidelity = {}, {}, {}, 0.0
    for l, e_r in enumerate(taps):
        for b, f_b in enumerate(receivers):
            branch = None if len(receivers) == 1 else b
            for m, u_m in bell:
                amp = brute_teleport(n, psi, u0, e_r, f_b, u_m)
                probability = float(np.vdot(amp, amp).real)
                overlap = abs(np.vdot(psi, amp)) ** 2
                rows[("outcome", l, m, branch)] = (probability, overlap / probability)
                p_l[l] = p_l.get(l, 0.0) + probability
                p_m[m] = p_m.get(m, 0.0) + probability
                fidelity += overlap
    rows.update({("p_l", l, None, None): (p, None) for l, p in p_l.items()})
    rows.update({("p_m", None, m, None): (p, None) for m, p in p_m.items()})
    rows[("total", None, None, None)] = (sum(p_l.values()), fidelity)
    return rows


def csv_table(rows: list[list[str]]) -> dict:
    """The body of a ``teleport`` CSV keyed as `brute_table` keys it."""
    assert rows[0] == ["record", "l", "m", "branch", "probability", "fidelity"]
    return {
        (r[0], parse_label(r[1]), parse_label(r[2]), parse_label(r[3])): (float(r[4]), float(r[5]) if r[5] else None)
        for r in rows[1:]
    }


def assert_rows_match(got: dict, expected: dict) -> None:
    assert list(got) == list(expected)
    for key, (probability, fidelity) in expected.items():
        assert got[key][0] == pytest.approx(probability, abs=CSV_TOL), key
        if fidelity is None:
            assert got[key][1] is None, key
        else:
            assert got[key][1] == pytest.approx(fidelity, abs=CSV_TOL), key


def fourier(n: int) -> np.ndarray:
    basis = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            basis[j, k] = np.exp(2j * np.pi * j * k / n) / np.sqrt(n)
    return basis


def test_written_u0_and_kraus_receiver_act_on_column_vectors_as_written():
    # u0 is real and not symmetric, and each Kraus operator is complex and
    # not symmetric: a transposed u0 or a conjugated operator moves rows
    u0 = np.array([[0.6, 0.8], [-0.8, 0.6]], dtype=complex)
    kraus = [np.array([[0.48, -0.64j], [-0.64j, 0.48]]), np.array([[0, 0.6j], [0.6, 0]])]
    text = (
        f"n: 2\ninput: [0.6, [0, 0.8]]\nu0: {yaml_flow(complex_rows(u0))}\n"
        "eavesdrop:\n  basis: fourier\n  theta: 0.5\n"
        f"effect_b:\n  kraus: {yaml_flow([complex_rows(k) for k in kraus])}\n"
    )
    code, rows = run_cli("teleport", text)
    assert code == 0
    taps = [brute_strength_branch(2, 0.5, l, fourier(2)) for l in range(2)]
    bell = [((a, b), brute_weyl(2, a, b)) for a in range(2) for b in range(2)]
    assert_rows_match(csv_table(rows), brute_table(INPUT, u0, taps, bell, kraus))


def test_written_bell_unitaries_act_on_column_vectors_as_written():
    # an explicit V W(a, b) V^+ family: each unitary is complex and not
    # symmetric, so a transposed or conjugated family moves rows
    rng = np.random.default_rng(20)
    v = random_unitary(3, rng)
    unitaries = [v @ brute_weyl(3, a, b) @ v.conj().T for a in range(3) for b in range(3)]
    psi = random_state(3, rng)
    text = (
        f"n: 3\ninput: {yaml_flow(complex_entries(psi))}\n"
        "eavesdrop:\n  basis: fourier\n  theta: 0.5\n"
        "bell:\n" + "".join(f"  - unitary: {yaml_flow(complex_rows(u))}\n" for u in unitaries)
    )
    code, rows = run_cli("teleport", text)
    assert code == 0
    taps = [brute_strength_branch(3, 0.5, l, fourier(3)) for l in range(3)]
    expected = brute_table(psi, np.eye(3, dtype=complex), taps, list(enumerate(unitaries)),
                           [np.eye(3, dtype=complex)])
    assert_rows_match(csv_table(rows), expected)
