from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from teleportsim.effects import (
    Effect,
    family_completeness_deviation,
    kraus_mixture,
    strength_family,
    unitary_effect,
)
from teleportsim.engine import make_scenario
from teleportsim.linalg import basis_state
from teleportsim.sampling import random_unitary

from oracles import brute_strength_branch, hermiticity_deviation


def test_strength_family_qubit_midpoint():
    family = strength_family(2, 0.5)
    assert_allclose(
        family.operators[0], np.diag([np.sqrt(0.75), np.sqrt(0.25)]), atol=1e-12
    )
    assert_allclose(
        family.operators[1], np.diag([np.sqrt(0.25), np.sqrt(0.75)]), atol=1e-12
    )


def test_strength_family_endpoints():
    trivial = strength_family(3, 0.0)
    for branch in trivial.operators:
        assert_allclose(branch, np.eye(3) / np.sqrt(3), atol=1e-12)
    projective = strength_family(3, 1.0)
    for l, branch in zip(projective.labels, projective.operators):
        expected = np.zeros((3, 3))
        expected[l, l] = 1.0
        assert_allclose(branch, expected, atol=1e-12)


@given(
    st.integers(min_value=2, max_value=5),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=500),
)
@settings(max_examples=60)
def test_strength_family_matches_general_sqrt(dim, theta, seed):
    basis = random_unitary(dim, np.random.default_rng(seed))
    family = strength_family(dim, theta, basis)
    for l, branch in zip(family.labels, family.operators):
        # tolerance is set by the sqrtm oracle, which loses half its
        # digits when theta = 1 makes the squared branch singular
        assert_allclose(
            branch, brute_strength_branch(dim, theta, l, basis), atol=1e-7
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
    for branch in family.operators:
        assert hermiticity_deviation(branch) < 1e-12
        assert np.linalg.eigvalsh(branch).min() > -1e-12


def test_strength_family_branches_commute():
    basis = random_unitary(4, np.random.default_rng(11))
    family = strength_family(4, 0.6, basis)
    for a in family.operators:
        for b in family.operators:
            assert np.max(np.abs(a @ b - b @ a)) < 1e-12


def test_strength_family_rejects_bad_arguments():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        strength_family(2, 1.5)
    with pytest.raises(ValueError, match="unitary"):
        strength_family(2, 0.5, np.array([[1, 1], [0, 1]], dtype=complex))


def test_explicit_family_with_unequal_traces():
    e0 = np.diag([1.0, np.sqrt(0.5)]).astype(complex)
    e1 = np.diag([0.0, np.sqrt(0.5)]).astype(complex)
    family = kraus_mixture([e0, e1])
    assert family_completeness_deviation(family) < 1e-12
    assert family.labels == (0, 1)


def test_explicit_branch_list_is_admitted_on_its_closure_alone():
    with pytest.raises(ValueError, match="resolve the identity"):
        kraus_mixture([np.diag([1.0, 0.5])])
    with pytest.raises(ValueError, match="resolve the identity"):
        kraus_mixture([np.array([[0, 1], [0, 0]], dtype=complex), np.eye(2)])
    # a closed list need not be Hermitian or positive: a unitary branch is a Kraus operator
    assert kraus_mixture([np.diag([1.0, -1.0]), np.diag([0.0, 0.0])]).labels == (0, 1)


def test_validate_family_flags_scaled_branch():
    intact = strength_family(2, 0.6)
    operators = np.array(intact.operators)
    operators[0] *= 1.01
    family = Effect(intact.labels, operators)
    assert family_completeness_deviation(family) > 1e-3
    with pytest.raises(ValueError, match="resolve the identity"):
        kraus_mixture(family.operators)


def test_family_completeness_is_the_closure_of_any_branches():
    # an amplitude-damping pair built directly: sum K^+ K = 1, sum K^2 != 1
    gamma = 0.3
    k0 = np.diag([1.0, np.sqrt(1 - gamma)]).astype(complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    family = Effect((0, 1), np.array([k0, k1]))
    assert family_completeness_deviation(family) < 1e-15


def test_unitary_effect_validation():
    effect = unitary_effect(np.diag([1.0, -1.0]).astype(complex))
    assert effect.labels == (None,)
    with pytest.raises(ValueError, match="not unitary"):
        unitary_effect(np.diag([1.0, 0.5]))


def test_kraus_mixture_closure():
    gamma = 0.3
    k0 = np.diag([1.0, np.sqrt(1 - gamma)]).astype(complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    assert kraus_mixture([k0, k1]).labels == (0, 1)
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
    assert family.labels == tuple(range(dim))
    assert not family.operators.flags.writeable
    for l, branch in zip(family.labels, family.operators):
        proj = np.outer(basis[:, l], basis[:, l].conj())
        assert np.array_equal(branch, low * (eye - proj) + high * proj)


def _damping3() -> list[np.ndarray]:
    k0 = np.diag([1.0, np.sqrt(0.7), np.sqrt(0.4)]).astype(complex)
    k1 = np.zeros((3, 3), dtype=complex)
    k1[0, 1], k1[1, 2] = np.sqrt(0.3), np.sqrt(0.6)
    return [k0, k1]


@pytest.mark.parametrize(
    "build, labels",
    [
        (lambda: unitary_effect(np.diag([1.0, -1.0, 1j])), (None,)),
        (lambda: kraus_mixture(_damping3()), (0, 1)),
        (lambda: kraus_mixture([np.diag([1.0, 0, 0]), np.diag([0, 1.0, 1.0])]), (0, 1)),
        (lambda: strength_family(3, 0.4), (0, 1, 2)),
        (lambda: None, (None,)),
    ],
    ids=["unitary", "kraus", "explicit-family", "strength-family", "absent"],
)
def test_every_effect_is_one_read_only_branch_stack(build, labels):
    # a scenario holds each line as the effect's own branch stack, and an
    # absent line as one identity branch labeled None, whether it is made
    # by make_scenario or by replace
    effect = build()
    config = make_scenario(3, basis_state(3, 0), effect_r=effect, effect_b=effect)
    damped = make_scenario(3, basis_state(3, 0), effect_b=kraus_mixture(_damping3()))
    for branches in (config.effect_r, config.effect_b, replace(damped, effect_b=effect).effect_b):
        assert branches.labels == labels
        assert branches.operators.shape == (len(labels), 3, 3)
        assert branches.operators.dtype == complex
        assert not branches.operators.flags.writeable
        if effect is None:
            assert np.array_equal(branches.operators[0], np.eye(3))
        else:
            assert branches is effect
    if effect is None:
        return
    small = make_scenario(2, basis_state(2, 0))
    for side in ("effect_r", "effect_b"):
        for scenario in (lambda: make_scenario(2, basis_state(2, 0), **{side: effect}),
                         lambda: replace(small, **{side: effect})):
            with pytest.raises(ValueError, match=r"^effect shape \(3, 3\) does not match dimension 2$"):
                scenario()
