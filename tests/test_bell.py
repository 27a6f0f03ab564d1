from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from teleportsim.bell import (
    BellFamily,
    bell_outcome_state,
    clock_unitary,
    completeness_deviation,
    find_outcome,
    make_bell_family,
    mirror_operator,
    outcome_state_stack,
    shift_unitary,
    weyl_unitary,
)
from teleportsim.linalg import dagger
from teleportsim.sampling import random_unitary
from teleportsim.verify import run_verification

from oracles import (
    brute_completeness_deviation,
    brute_partial_trace,
    brute_resource_state,
    brute_trace_orthogonality,
)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def test_resource_state_identity_rotation():
    assert_allclose(brute_resource_state(np.eye(2)), [1, 0, 0, 1] / np.sqrt(2), atol=1e-15)


def test_resource_reduced_states_maximally_mixed():
    for dim in (2, 3, 4):
        u0 = random_unitary(dim, np.random.default_rng(dim))
        state = brute_resource_state(u0)
        rho = np.outer(state, state.conj())
        for keep in (0, 1):
            assert_allclose(brute_partial_trace(rho, (dim, dim), keep), np.eye(dim) / dim, atol=1e-12)


def test_mirror_of_receiver_z_under_hadamard_is_x():
    pauli_z = np.diag([1.0, -1.0]).astype(complex)
    pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
    assert_allclose(mirror_operator(pauli_z, HADAMARD), pauli_x, atol=1e-12)


@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=500),
)
@settings(max_examples=60)
def test_mirror_correlation_annihilates_resource(dim, seed):
    # (O on B) and (mirror(O) on R) act identically on the shared state
    rng = np.random.default_rng(seed)
    u0 = random_unitary(dim, rng)
    gauss = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    op = (gauss + gauss.conj().T) / 2.0
    state = brute_resource_state(u0)
    on_b = np.kron(np.eye(dim), op) @ state
    on_r = np.kron(mirror_operator(op, u0), np.eye(dim)) @ state
    assert np.max(np.abs(on_b - on_r)) < 1e-9


def test_shift_and_clock_action():
    shift = shift_unitary(3)
    clock = clock_unitary(3)
    e0 = np.array([1, 0, 0], dtype=complex)
    assert_allclose(shift @ e0, [0, 1, 0], atol=1e-15)
    assert_allclose(clock @ shift @ e0, [0, np.exp(2j * np.pi / 3), 0], atol=1e-15)


@pytest.mark.parametrize("dim", range(2, 33))
def test_shift_and_clock_are_the_weyl_pair_bit_for_bit(dim):
    # the loop and the diagonal the two unitaries used to be built with
    shift = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        shift[(k + 1) % dim, k] = 1.0
    clock = np.diag(np.exp(2j * np.pi * np.arange(dim) / dim))
    assert np.array_equal(shift_unitary(dim), shift)
    assert np.array_equal(clock_unitary(dim), clock)
    assert np.array_equal(shift_unitary(dim), weyl_unitary(dim, 1, 0))
    assert np.array_equal(clock_unitary(dim), weyl_unitary(dim, 0, 1))


def test_mirror_operator_requires_square():
    with pytest.raises(ValueError, match="incompatible"):
        mirror_operator(np.ones((2, 3)), np.eye(2))
    with pytest.raises(ValueError, match="incompatible"):
        mirror_operator(np.eye(3), np.eye(2))


def test_weyl_qubit_table():
    assert_allclose(weyl_unitary(2, 0, 0), np.eye(2), atol=1e-15)
    assert_allclose(weyl_unitary(2, 1, 0), [[0, 1], [1, 0]], atol=1e-15)
    assert_allclose(weyl_unitary(2, 0, 1), [[1, 0], [0, -1]], atol=1e-15)
    assert_allclose(weyl_unitary(2, 1, 1), [[0, -1], [1, 0]], atol=1e-15)


def test_weyl_rejects_bad_labels():
    with pytest.raises(ValueError, match="out of range"):
        weyl_unitary(3, 3, 0)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_weyl_family_trace_orthogonal_and_complete(dim):
    family = make_bell_family(dim)
    assert len(family.labels) == dim * dim
    assert brute_trace_orthogonality(dim, list(family.unitaries)) < 1e-12
    assert completeness_deviation(family) < 1e-12
    for weight in family.weights:
        assert weight == 1.0


def test_outcome_state_norm_equals_weight():
    family = make_bell_family(3)
    u0 = random_unitary(3, np.random.default_rng(5))
    for label, weight in zip(family.labels, family.weights):
        vec = bell_outcome_state(family, label, u0)
        assert np.vdot(vec, vec).real == pytest.approx(weight, abs=1e-12)


def test_outcome_states_resolve_identity():
    family = make_bell_family(3)
    u0 = random_unitary(3, np.random.default_rng(6))
    total = np.zeros((9, 9), dtype=complex)
    for label in family.labels:
        vec = bell_outcome_state(family, label, u0)
        total += np.outer(vec, vec.conj())
    assert_allclose(total, np.eye(9), atol=1e-12)


def test_outcome_state_stack_matches_each_outcome_state():
    # the weighted family verify admits: every qutrit Weyl outcome twice at half weight
    doubled = [
        ((a, b, copy), weyl_unitary(3, a, b), 0.5)
        for a in range(3)
        for b in range(3)
        for copy in (0, 1)
    ]
    family = make_bell_family(3, doubled)
    u0 = random_unitary(3, np.random.default_rng(8))
    stack = outcome_state_stack(family, u0)
    assert stack.shape == (18, 9)
    for row, label in zip(stack, family.labels):
        assert np.array_equal(row, bell_outcome_state(family, label, u0))


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 16, 32])
def test_weyl_stack_is_bit_identical_to_weyl_unitary(dim):
    stack = make_bell_family(dim).unitaries
    expected = [weyl_unitary(dim, a, b) for a in range(dim) for b in range(dim)]
    assert np.array_equal(stack, np.array(expected))


def test_weighted_duplicate_family_admitted():
    # each outcome appearing twice at half weight is still complete
    outcomes = [
        ((a, b, copy), weyl_unitary(2, a, b), 0.5)
        for a in range(2)
        for b in range(2)
        for copy in (0, 1)
    ]
    family = make_bell_family(2, outcomes)
    assert len(family.labels) == 8
    assert completeness_deviation(family) < 1e-12


def test_tilted_weighted_family_admitted():
    # a complete non-orthogonal family: two rotated copies of the base grid
    rot = random_unitary(2, np.random.default_rng(9))
    outcomes = []
    for a in range(2):
        for b in range(2):
            outcomes.append((("base", a, b), weyl_unitary(2, a, b), 0.5))
            outcomes.append((("tilt", a, b), rot @ weyl_unitary(2, a, b), 0.5))
    family = make_bell_family(2, outcomes)
    assert completeness_deviation(family) < 1e-12
    assert brute_trace_orthogonality(2, list(family.unitaries)) > 0.1


def test_incomplete_family_rejected():
    dropped = [
        ((a, b), weyl_unitary(2, a, b), 1.0) for a in range(2) for b in range(2)
    ][:-1]
    with pytest.raises(ValueError, match="not complete"):
        make_bell_family(2, dropped)


def test_direct_construction_skips_admission():
    broken = _drop_last(make_bell_family(2), 1)
    assert completeness_deviation(broken) > 0.1


def test_explicit_family_validation_errors():
    with pytest.raises(ValueError, match="not unitary"):
        make_bell_family(2, [(0, np.array([[1, 0], [0, 2]]), 1.0)])
    with pytest.raises(ValueError, match="weight"):
        make_bell_family(2, [(0, np.eye(2), -1.0)])
    with pytest.raises(ValueError, match="weight must be positive, got nan"):
        make_bell_family(2, [(0, np.eye(2), float("nan"))])
    with pytest.raises(ValueError, match="duplicate"):
        make_bell_family(2, [(0, np.eye(2), 1.0), (0, weyl_unitary(2, 1, 0), 1.0)])
    with pytest.raises(ValueError, match="no outcome labeled"):
        find_outcome(make_bell_family(2), (9, 9))


def _drop_last(family: BellFamily, count: int) -> BellFamily:
    # a directly built family skips admission
    return BellFamily(
        dim=family.dim,
        labels=family.labels[:-count],
        unitaries=family.unitaries[:-count],
        weights=family.weights[:-count],
    )


def test_weyl_family_stacks_are_read_only():
    family = make_bell_family(3)
    stack = family.unitaries
    assert stack.shape == (9, 3, 3)
    assert not stack.flags.writeable
    assert family.weights.shape == (9,) and not family.weights.flags.writeable
    assert family.labels == tuple((a, b) for a in range(3) for b in range(3))
    for index, label in enumerate(family.labels):
        assert_allclose(stack[index], weyl_unitary(3, *label), atol=0)
        assert family.positions[label] == index
        assert find_outcome(family, label) == index
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 2.0
    with pytest.raises(ValueError):
        family.weights[0] = 2.0


def test_weyl_family_is_admitted_once_per_dimension():
    family = make_bell_family(4)
    assert make_bell_family(4) is family
    assert make_bell_family(5) is not family
    assert not family.unitaries.flags.writeable
    assert not family.weights.flags.writeable
    outcomes = [((a, b), weyl_unitary(2, a, b), 1.0) for a in range(2) for b in range(2)]
    explicit = make_bell_family(2, outcomes)
    assert make_bell_family(2, outcomes) is not explicit
    assert explicit is not make_bell_family(2)


def test_direct_construction_keeps_its_stacks():
    intact = make_bell_family(2)
    broken = _drop_last(intact, 1)
    assert broken.unitaries.shape == (3, 2, 2)
    assert not broken.unitaries.flags.writeable
    assert not broken.weights.flags.writeable
    for index, label in enumerate(broken.labels):
        assert_allclose(broken.unitaries[index], intact.unitaries[index], atol=0)
        assert broken.weights[index] == intact.weights[index]
        assert broken.positions[label] == index
        assert find_outcome(broken, label) == index
    with pytest.raises(ValueError, match=r"no outcome labeled \(1, 1\) in family of size 3"):
        find_outcome(broken, (1, 1))
    assert not run_verification("quick", corrupt="bell").passed


def test_unhashable_label_part_is_admitted_and_found():
    # admission keys a label the way the lookup does: by repr when unhashable
    outcomes = [((a, [b]), weyl_unitary(2, a, b), 1.0) for a in range(2) for b in range(2)]
    family = make_bell_family(2, outcomes)
    assert find_outcome(family, (1, [0])) == 2
    assert family.labels[2] == (1, [0])
    with pytest.raises(ValueError, match=r"duplicate outcome label \(0, \[1\]\)"):
        make_bell_family(2, outcomes + [((0, [1]), np.eye(2), 1.0)])


def test_find_outcome_miss_keeps_its_message():
    family = make_bell_family(2)
    with pytest.raises(ValueError) as info:
        find_outcome(family, (9, 9))
    assert str(info.value) == "no outcome labeled (9, 9) in family of size 4"
    with pytest.raises(ValueError, match="no outcome labeled 'x'"):
        find_outcome(family, "x")
    with pytest.raises(ValueError, match=r"no outcome labeled \[0, 0\]"):
        find_outcome(family, [0, 0])


def test_family_deviations_match_loop_references():
    rot = random_unitary(2, np.random.default_rng(4))
    tilted = make_bell_family(2, [
        ((copy, a, b), (rot if copy else np.eye(2)) @ weyl_unitary(2, a, b), 0.5)
        for a in range(2) for b in range(2) for copy in (0, 1)
    ])
    broken = _drop_last(make_bell_family(3), 2)
    for family in (tilted, broken, make_bell_family(3)):
        pairs = list(zip(family.unitaries, family.weights))
        assert completeness_deviation(family) == pytest.approx(
            brute_completeness_deviation(family.dim, pairs), abs=1e-14
        )


def _random_weights(family: BellFamily, seed: int) -> BellFamily:
    # random weights spread the deviation over every entry the outcomes touch
    weights = np.random.default_rng(seed).uniform(0.5, 1.5, len(family.labels))
    return replace(family, weights=weights)


def _conjugated_weyl(dim: int) -> BellFamily:
    # V U V^+ is dense (V V^+ keeps a few exact zeros off its diagonal), so
    # every outcome touches every band: one support group
    v = random_unitary(dim, np.random.default_rng(dim))
    weyl = make_bell_family(dim)
    return replace(weyl, unitaries=v @ weyl.unitaries @ dagger(v))


def _poisoned_weyl(dim: int) -> BellFamily:
    weyl = make_bell_family(dim)
    poisoned = np.array(weyl.unitaries)
    poisoned[-1, -1, -1] = np.nan
    return replace(weyl, unitaries=poisoned)


def _coupled_across_bands() -> BellFamily:
    # two more outcomes on columns 0 and 132 whose opposite weights cancel
    # on the diagonal: the only deviation, 1/12, lies between two columns
    # in different bands
    weyl = make_bell_family(12)
    pair = np.zeros((2, 144), dtype=complex)
    pair[:, 0] = 1.0
    pair[:, 132] = [1.0, -1.0]
    return BellFamily(
        12,
        weyl.labels + ("+", "-"),
        np.concatenate([weyl.unitaries, pair.reshape(2, 12, 12)]),
        np.concatenate([weyl.weights, [0.5, -0.5]]),
    )


GRAM_CASES = {
    # n = 12 has 144 columns: two bands of the Gram's upper triangle
    "weyl": lambda: make_bell_family(12),
    "weyl-random-weights": lambda: _random_weights(make_bell_family(12), 12),
    "dense": lambda: _conjugated_weyl(12),
    "dense-random-weights": lambda: _random_weights(_conjugated_weyl(12), 13),
    "weyl-outcome-dropped": lambda: _drop_last(make_bell_family(12), 1),
    "coupled-across-bands": _coupled_across_bands,
    # I and Z resolve the identity on columns |00> and |11> exactly and touch
    # neither |01> nor |10>, whose zero diagonal deviates by exactly 1
    "columns-untouched": lambda: BellFamily(
        2, ("I", "Z"), np.array([np.eye(2), clock_unitary(2)]), np.ones(2)
    ),
    "nan-entry": lambda: _poisoned_weyl(12),
}


@pytest.mark.parametrize("case", GRAM_CASES.values(), ids=GRAM_CASES.keys())
def test_banded_gram_matches_the_whole_gram(case):
    family = case()
    side = family.dim * family.dim
    states = family.unitaries.reshape(-1, side)
    gram = states.T @ (states.conj() * (family.weights / family.dim)[:, None])
    whole = np.max(np.abs(gram - np.eye(side)))
    deviation = completeness_deviation(family)
    if np.isnan(whole):
        assert np.isnan(deviation)
    elif whole < 1e-13:  # a complete family deviates by roundoff alone
        assert deviation < 1e-13
    else:
        assert deviation == pytest.approx(whole, rel=1e-12)


@pytest.mark.parametrize("column", [127, 143])
def test_banded_gram_reaches_the_last_column_of_a_band(column):
    # one column of a dense family grown by 1e-6 makes the largest deviation
    # on its diagonal entry, whether the column ends the first band or the
    # Gram; a unitary on the right keeps the family complete and leaves it no
    # exact zero, so its columns are in order and each band is one view
    family = _conjugated_weyl(12)
    q = random_unitary(12, np.random.default_rng(5))
    states = (family.unitaries @ q).reshape(-1, 144)
    assert np.all(states != 0)
    states[:, column] *= 1 + 1e-6
    grown = replace(family, unitaries=states.reshape(family.unitaries.shape))
    gram = states.T @ (states.conj() * (grown.weights / grown.dim)[:, None])
    whole = np.max(np.abs(gram - np.eye(144)))
    assert whole > 1e-6
    assert completeness_deviation(grown) == pytest.approx(whole, rel=1e-12)


def test_untouched_columns_deviate_by_exactly_one():
    assert completeness_deviation(GRAM_CASES["columns-untouched"]()) == 1.0


def test_admission_holds_no_whole_gram():
    # at n = 32 the outcome stack is 16 MB; the whole Gram would be another
    # 16 MB and a weighted copy of the stack 16 MB more
    family = make_bell_family(32)
    tracemalloc.start()
    try:
        completeness_deviation(family)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # only the Gram entries some outcome touches are built: 8 blocks of
    # 128 x 128, where the dense bands alone would take about 6 MB
    assert peak <= 0.25 * family.unitaries.nbytes

