from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from teleportsim.effects import (
    EffectOperator,
    MeasurementFamily,
    family_completeness_deviation,
    kraus_mixture,
    make_measurement_family,
    strength_family,
    unitary_effect,
)
from teleportsim.linalg import hermiticity_deviation
from teleportsim.sampling import random_unitary

from oracles import brute_strength_branch


def test_strength_family_qubit_midpoint():
    family = strength_family(2, 0.5)
    assert_allclose(
        family.branches[0].matrix, np.diag([np.sqrt(0.75), np.sqrt(0.25)]), atol=1e-12
    )
    assert_allclose(
        family.branches[1].matrix, np.diag([np.sqrt(0.25), np.sqrt(0.75)]), atol=1e-12
    )


def test_strength_family_endpoints():
    trivial = strength_family(3, 0.0)
    for branch in trivial.branches:
        assert_allclose(branch.matrix, np.eye(3) / np.sqrt(3), atol=1e-12)
    projective = strength_family(3, 1.0)
    for l, branch in enumerate(projective.branches):
        expected = np.zeros((3, 3))
        expected[l, l] = 1.0
        assert_allclose(branch.matrix, expected, atol=1e-12)


@given(
    st.integers(min_value=2, max_value=5),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=500),
)
@settings(max_examples=60)
def test_strength_family_matches_general_sqrt(dim, theta, seed):
    basis = random_unitary(dim, np.random.default_rng(seed))
    family = strength_family(dim, theta, basis)
    for l, branch in enumerate(family.branches):
        # tolerance is set by the sqrtm oracle, which loses half its
        # digits when theta = 1 makes the squared branch singular
        assert_allclose(
            branch.matrix, brute_strength_branch(dim, theta, l, basis), atol=1e-7
        )


@given(
    st.integers(min_value=2, max_value=6),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=500),
)
@settings(max_examples=60)
def test_strength_family_complete_for_any_basis(dim, theta, seed):
    basis = random_unitary(dim, np.random.default_rng(seed))
    family = strength_family(dim, theta, basis)
    assert family_completeness_deviation(family) < 1e-12
    for branch in family.branches:
        assert hermiticity_deviation(branch.matrix) < 1e-12
        assert np.linalg.eigvalsh(branch.matrix).min() > -1e-12


def test_strength_family_branches_commute():
    basis = random_unitary(4, np.random.default_rng(11))
    family = strength_family(4, 0.6, basis)
    mats = [np.asarray(b.matrix) for b in family.branches]
    for a in mats:
        for b in mats:
            assert np.max(np.abs(a @ b - b @ a)) < 1e-12


def test_strength_family_rejects_bad_arguments():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        strength_family(2, 1.5)
    with pytest.raises(ValueError, match="unitary"):
        strength_family(2, 0.5, np.array([[1, 1], [0, 1]], dtype=complex))


def test_explicit_family_with_unequal_traces():
    e0 = np.diag([1.0, np.sqrt(0.5)]).astype(complex)
    e1 = np.diag([0.0, np.sqrt(0.5)]).astype(complex)
    family = make_measurement_family([e0, e1])
    assert family_completeness_deviation(family) < 1e-12
    assert [b.label for b in family.branches] == [0, 1]


def test_explicit_family_rejects_incomplete():
    with pytest.raises(ValueError, match="sum to identity"):
        make_measurement_family([np.diag([1.0, 0.5])])
    with pytest.raises(ValueError, match="Hermitian"):
        make_measurement_family([np.array([[0, 1], [0, 0]], dtype=complex), np.eye(2)])
    with pytest.raises(ValueError, match="positive semidefinite"):
        make_measurement_family([np.diag([1.0, -1.0]), np.diag([0.0, 0.0])])


def test_validate_family_flags_scaled_branch():
    intact = strength_family(2, 0.6)
    branches = list(intact.branches)
    branches[0] = EffectOperator(matrix=np.asarray(branches[0].matrix) * 1.01, label=0)
    family = MeasurementFamily(dim=2, branches=tuple(branches))
    assert family_completeness_deviation(family) > 1e-3
    with pytest.raises(ValueError, match="sum to identity"):
        make_measurement_family([b.matrix for b in family.branches])


def test_family_completeness_is_the_closure_of_any_branches():
    # an amplitude-damping pair built directly: sum K^+ K = 1, sum K^2 != 1
    gamma = 0.3
    k0 = np.diag([1.0, np.sqrt(1 - gamma)]).astype(complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    family = MeasurementFamily(dim=2, branches=(EffectOperator(k0, 0), EffectOperator(k1, 1)))
    assert family_completeness_deviation(family) < 1e-15


def test_explicit_family_rejects_duplicate_labels():
    e0 = np.diag([1.0, np.sqrt(0.5)]).astype(complex)
    e1 = np.diag([0.0, np.sqrt(0.5)]).astype(complex)
    with pytest.raises(ValueError, match="duplicate branch label 0"):
        make_measurement_family([e0, e1], labels=[0, 0])


def test_unitary_effect_validation():
    effect = unitary_effect(np.diag([1.0, -1.0]).astype(complex), label="flip")
    assert effect.label == "flip"
    with pytest.raises(ValueError, match="not unitary"):
        unitary_effect(np.diag([1.0, 0.5]))


def test_kraus_mixture_closure():
    gamma = 0.3
    k0 = np.diag([1.0, np.sqrt(1 - gamma)]).astype(complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    branches = kraus_mixture([k0, k1])
    assert [b.label for b in branches] == [0, 1]
    with pytest.raises(ValueError, match="resolve the identity"):
        kraus_mixture([k0])
    with pytest.raises(ValueError, match="must not be empty"):
        kraus_mixture([])


def _fourier(dim: int) -> np.ndarray:
    grid = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(grid, grid) / dim) / np.sqrt(dim)


@pytest.mark.parametrize("theta", [0.0, 0.37, 1.0])
@pytest.mark.parametrize("basis_name", ["computational", "fourier", "random"])
@pytest.mark.parametrize("dim", [2, 3, 16])
def test_strength_family_is_the_outer_product_loop_bit_for_bit(dim, basis_name, theta):
    basis = {
        "computational": np.eye(dim, dtype=complex),
        "fourier": _fourier(dim),
        "random": random_unitary(dim, np.random.default_rng(dim)),
    }[basis_name]
    family = strength_family(dim, theta, basis)
    low = np.sqrt((1.0 - theta) / dim)
    high = np.sqrt((1.0 - theta) / dim + theta)
    eye = np.eye(dim, dtype=complex)
    assert [branch.label for branch in family.branches] == list(range(dim))
    for l, branch in enumerate(family.branches):
        proj = np.outer(basis[:, l], basis[:, l].conj())
        assert np.array_equal(branch.matrix, low * (eye - proj) + high * proj)
        assert not branch.matrix.flags.writeable
