from __future__ import annotations

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
    make_entangled_resource,
    mirror_operator,
    outcome_state_stack,
    shift_unitary,
    trace_orthogonality_deviation,
    weyl_unitary,
)
from teleportsim.sampling import random_unitary
from teleportsim.verify import run_verification

from oracles import brute_completeness_deviation, brute_partial_trace, brute_trace_orthogonality

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def test_resource_state_identity_rotation():
    res = make_entangled_resource(2)
    assert_allclose(res.state, [1, 0, 0, 1] / np.sqrt(2), atol=1e-15)


def test_resource_reduced_states_maximally_mixed():
    for dim in (2, 3, 4):
        u0 = random_unitary(dim, np.random.default_rng(dim))
        res = make_entangled_resource(dim, u0)
        rho = np.outer(res.state, res.state.conj())
        for keep in (0, 1):
            assert_allclose(brute_partial_trace(rho, (dim, dim), keep), np.eye(dim) / dim, atol=1e-12)


def test_resource_rejects_nonunitary():
    with pytest.raises(ValueError, match="unitary"):
        make_entangled_resource(2, np.array([[1, 0], [0, 2]], dtype=complex))
    with pytest.raises(ValueError, match="at least 2"):
        make_entangled_resource(1)


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
    res = make_entangled_resource(dim, u0)
    on_b = np.kron(np.eye(dim), op) @ res.state
    on_r = np.kron(mirror_operator(op, u0), np.eye(dim)) @ res.state
    assert np.max(np.abs(on_b - on_r)) < 1e-9


def test_shift_and_clock_action():
    shift = shift_unitary(3)
    clock = clock_unitary(3)
    e0 = np.array([1, 0, 0], dtype=complex)
    assert_allclose(shift @ e0, [0, 1, 0], atol=1e-15)
    assert_allclose(clock @ shift @ e0, [0, np.exp(2j * np.pi / 3), 0], atol=1e-15)


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
    assert len(family.outcomes) == dim * dim
    assert trace_orthogonality_deviation(family) < 1e-12
    assert completeness_deviation(family) < 1e-12
    for outcome in family.outcomes:
        assert outcome.weight == 1.0


def test_outcome_state_norm_equals_weight():
    family = make_bell_family(3)
    u0 = random_unitary(3, np.random.default_rng(5))
    for outcome in family.outcomes:
        vec = bell_outcome_state(family, outcome.label, u0)
        assert np.vdot(vec, vec).real == pytest.approx(outcome.weight, abs=1e-12)


def test_outcome_states_resolve_identity():
    family = make_bell_family(3)
    u0 = random_unitary(3, np.random.default_rng(6))
    total = np.zeros((9, 9), dtype=complex)
    for outcome in family.outcomes:
        vec = bell_outcome_state(family, outcome.label, u0)
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
    for row, outcome in zip(stack, family.outcomes):
        assert np.array_equal(row, bell_outcome_state(family, outcome.label, u0))


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
    assert len(family.outcomes) == 8
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
    assert trace_orthogonality_deviation(family) > 0.1


def test_incomplete_family_rejected():
    dropped = [
        ((a, b), weyl_unitary(2, a, b), 1.0) for a in range(2) for b in range(2)
    ][:-1]
    with pytest.raises(ValueError, match="not complete"):
        make_bell_family(2, dropped)


def test_direct_construction_skips_admission():
    intact = make_bell_family(2)
    broken = BellFamily(dim=2, outcomes=intact.outcomes[:-1])
    assert completeness_deviation(broken) > 0.1


def test_explicit_family_validation_errors():
    with pytest.raises(ValueError, match="not unitary"):
        make_bell_family(2, [(0, np.array([[1, 0], [0, 2]]), 1.0)])
    with pytest.raises(ValueError, match="weight"):
        make_bell_family(2, [(0, np.eye(2), -1.0)])
    with pytest.raises(ValueError, match="duplicate"):
        make_bell_family(2, [(0, np.eye(2), 1.0), (0, weyl_unitary(2, 1, 0), 1.0)])
    with pytest.raises(ValueError, match="no outcome labeled"):
        find_outcome(make_bell_family(2), (9, 9))


def test_weyl_outcomes_are_read_only_views_of_the_stack():
    family = make_bell_family(3)
    stack = family.unitaries
    assert stack.shape == (9, 3, 3)
    assert not stack.flags.writeable
    assert family.weights.shape == (9,) and not family.weights.flags.writeable
    for index, outcome in enumerate(family.outcomes):
        assert np.shares_memory(outcome.unitary, stack)
        assert not outcome.unitary.flags.writeable
        assert_allclose(stack[index], weyl_unitary(3, *outcome.label), atol=0)
        assert family.positions[outcome.label] == index
    with pytest.raises(ValueError):
        family.outcomes[0].unitary[0, 0] = 2.0


def test_direct_construction_stacks_its_outcomes():
    intact = make_bell_family(2)
    broken = BellFamily(dim=2, outcomes=intact.outcomes[:-1])
    assert broken.unitaries.shape == (3, 2, 2)
    assert not broken.unitaries.flags.writeable
    for index, outcome in enumerate(broken.outcomes):
        assert_allclose(broken.unitaries[index], outcome.unitary, atol=0)
        assert broken.weights[index] == outcome.weight
        assert find_outcome(broken, outcome.label) is outcome
    with pytest.raises(ValueError, match=r"no outcome labeled \(1, 1\) in family of size 3"):
        find_outcome(broken, (1, 1))
    assert not run_verification("quick", corrupt="bell").passed


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
    broken = BellFamily(dim=3, outcomes=make_bell_family(3).outcomes[:-2])
    for family in (tilted, broken, make_bell_family(3)):
        pairs = [(np.asarray(o.unitary), o.weight) for o in family.outcomes]
        assert completeness_deviation(family) == pytest.approx(
            brute_completeness_deviation(family.dim, pairs), abs=1e-14
        )
        assert trace_orthogonality_deviation(family) == pytest.approx(
            brute_trace_orthogonality(family.dim, [u for u, _ in pairs]), abs=1e-14
        )
