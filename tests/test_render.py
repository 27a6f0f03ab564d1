"""The teleport CSV renders every number and label as one call per value would.

`format_numbers` renders each distinct float64 bit pattern once and
`format_labels` renders every label in one csv.writer pass; both must give
exactly the text of `format_number` and of a csv.writer per label.  A run
writes one block of rows at a time and holds no more than its string
arrays and one block's text.
"""
from __future__ import annotations

import csv
import io
import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import brute_teleport, format_label
from teleportsim import runner
from teleportsim.config import parse_config
from teleportsim.engine import make_scenario
from teleportsim.linalg import frozen_complex_array
from teleportsim.runner import format_labels, format_number, format_numbers, run_teleport


def _bits(*patterns: int) -> np.ndarray:
    return np.array(patterns, dtype=np.uint64).view(float)


SPECIAL_NUMBERS = [
    math.nan, -math.nan, 0.0, -0.0, math.inf, -math.inf,
    5e-324, -5e-324, 2.225073858507201e-308,  # subnormals
    1e300, -1e300, 1e-300, -1e-300,
    1.0, -3.0, 1e15, 123456789012345.0, 0.1, 1 / 3,
]

NUMBERS = st.one_of(st.floats(width=64), st.sampled_from(SPECIAL_NUMBERS))
SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, max_side=6)


@st.composite
def number_arrays(draw) -> np.ndarray:
    shape = draw(SHAPES)
    kind = draw(st.sampled_from(["any", "equal", "distinct"]))
    if kind == "equal":
        return np.full(shape, draw(NUMBERS))
    if kind == "distinct":
        return draw(hnp.arrays(np.float64, shape, elements=st.floats(allow_nan=False), unique=True))
    return draw(hnp.arrays(np.float64, shape, elements=NUMBERS))


@settings(max_examples=100, deadline=None)
@given(number_arrays())
@example(np.array(SPECIAL_NUMBERS))
# NaN payloads, signed NaNs and both zeros render as a call per value does
@example(_bits(0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001, 0, 1 << 63, 1))
@example(np.full((4, 5), 0.25))
@example(np.arange(60.0).reshape(3, 4, 5) / 7)
@example(np.full((2, 3), math.nan))
def test_numbers_render_as_one_call_per_value(values):
    texts = format_numbers(values)
    assert texts.shape == values.shape and texts.dtype == object
    for value, text in zip(values.reshape(-1).tolist(), texts.reshape(-1).tolist()):
        assert text == ("" if math.isnan(value) else format_number(value))
        assert format_number(value) == format(value, ".12g")


LABEL_TEXTS = ["", ",", '"', "\r", "\n", "\r\n", "%", "%s", "%%", " a", "a ", " ", "a,b", 'q"x']
LABEL_PARTS = st.one_of(
    st.none(),
    st.integers(),
    st.sampled_from(LABEL_TEXTS),
    st.text(alphabet=st.sampled_from(list(',"\r\n% s-a')), max_size=6),
    st.text(max_size=6),
)
LABELS = st.one_of(LABEL_PARTS, st.lists(LABEL_PARTS, max_size=3).map(tuple))


@settings(max_examples=100, deadline=None)
@given(st.lists(LABELS, max_size=12))
@example([None, "", (), ("",), (None, 1), ",", '"', "\r", "\n", "%", "%s", "%%", " lead", "trail "])
@example([])
def test_labels_render_as_a_writer_per_label(labels):
    assert format_labels(labels) == [format_label(label) for label in labels]


def test_labels_fail_when_the_writer_splits_a_row(monkeypatch):
    # the labels are cut apart at the writer's write calls; a row handed
    # over in two pieces must fail, not shift every later label
    class _SplitWriter:
        def __init__(self, stream, **_):
            self.stream = stream

        def writerows(self, rows):
            for text, _ in rows:
                self.stream.write(text)
                self.stream.write(",\n")

    monkeypatch.setattr(runner.csv, "writer", _SplitWriter)
    with pytest.raises(RuntimeError, match="2 rows in 4 pieces"):
        format_labels(["a", "b"])


# a θ = 1 computational tap on a basis input: of the 27 outcome rows at
# n = 3, 18 never fire
NULL_SPEC = parse_config("n: 3\ninput: basis:1\neavesdrop:\n  basis: computational\n  theta: 1\n")


def test_null_branches_leave_the_fidelity_empty_and_match_the_oracle():
    stream = io.StringIO()
    run_teleport(NULL_SPEC, stream)
    rows = [row for row in csv.reader(io.StringIO(stream.getvalue())) if row[0] == "outcome"]
    config = runner.build_scenario(NULL_SPEC)
    psi = np.asarray(config.input_state)
    bell = config.bell
    taps = config.effect_r
    expected = []
    for l, e_r in zip(taps.labels, taps.operators):
        for label, unitary, weight in zip(bell.labels, bell.unitaries, bell.weights):
            amp = brute_teleport(3, psi, np.asarray(config.u0), e_r, np.eye(3), unitary, weight)
            probability = float(np.vdot(amp, amp).real)
            fidelity = abs(np.vdot(psi, amp)) ** 2 / probability if probability >= 1e-14 else None
            expected.append([format_label(l), format_label(label), probability, fidelity])
    assert len(rows) == len(expected) == 27
    assert sum(fidelity is None for *_, fidelity in expected) == 18
    for row, (l, m, probability, fidelity) in zip(rows, expected):
        assert row[1:4] == [l, m, ""]
        assert row[4] == format_number(probability)
        assert row[5] == ("" if fidelity is None else format_number(fidelity))


class _Sink:
    """A text stream that keeps no text, only its size, its largest write
    and the most memory traced while a write is handed over."""

    def __init__(self) -> None:
        self.size = self.largest = self.held = 0

    def write(self, text: str) -> None:
        self.size += len(text)
        self.largest = max(self.largest, len(text))
        self.held = max(self.held, tracemalloc.get_traced_memory()[0])


def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / abs(np.diag(r)))


def _teleport_n32(kind: str):
    # the Weyl family is covariant: a few thousand distinct values
    spec = parse_config(
        "n: 32\ninput: random:3\nu0: identity\nbell: weyl\n"
        "eavesdrop:\n  basis: fourier\n  theta: 0.5\n"
    )
    if kind == "weyl":
        return spec
    # a dense u0 and tap basis make nearly every value distinct; they go
    # into the parsed spec as arrays, the values a config listing them
    # parses to, without sending 4096 numbers through the YAML loader
    rng = np.random.default_rng(11)
    u0, basis = _random_unitary(rng, 32), _random_unitary(rng, 32)
    return replace(
        spec,
        scenario=make_scenario(32, spec.scenario.input_state, u0=u0),
        eavesdrop=replace(spec.eavesdrop, basis=frozen_complex_array(basis)),
    )


@pytest.mark.parametrize("kind", ["weyl", "all-distinct"])
def test_teleport_writer_holds_its_string_arrays_and_one_block(monkeypatch, kind):
    # the routes run before tracing starts, so only the writer is measured:
    # it holds the (K, M) texts of the probabilities and of the fidelities
    # and the text of one block, about 52 kB; the 1.66 MB body at once
    # would trip this
    spec = _teleport_n32(kind)
    scenario = runner.build_scenario(spec)
    fixed = runner.fixed_half(scenario)
    measured = runner.route_pass(scenario, fixed)
    monkeypatch.setattr(runner, "build_scenario", lambda spec: scenario)
    monkeypatch.setattr(runner, "fixed_half", lambda scenario: fixed)
    monkeypatch.setattr(runner, "route_pass", lambda scenario, fixed: measured)
    # one text object per distinct bit pattern, though many render alike
    fidelities = runner.conditional_fidelities(measured.overlaps, measured.probabilities)
    cells = [format_numbers(measured.probabilities), format_numbers(fidelities)]
    texts = {id(text): text for array in cells for text in array.reshape(-1).tolist()}
    strings = sum(array.nbytes for array in cells) + sum(map(sys.getsizeof, texts.values()))
    del fidelities, cells, texts
    sink = _Sink()
    tracemalloc.start()
    try:
        run_teleport(spec, sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    blocks = len(measured.keys)
    assert blocks == 32 and sink.size > 1_600_000
    assert sink.largest <= 1.2 * sink.size / blocks
    assert sink.held <= strings + 6 * sink.largest
    # np.unique's sort and inverse and the distinct values as Python floats
    # take a few (K, M) arrays more while the numbers are rendered
    assert peak <= strings + 10 * measured.probabilities.nbytes
