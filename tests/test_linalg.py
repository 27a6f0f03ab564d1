from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from teleportsim.linalg import (
    apply_each_inverse,
    as_pure_state,
    closure,
    dagger,
    norms_squared,
    uniform_state,
)
from teleportsim.sampling import random_state, random_unitary


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=1000))
def test_dagger_involution(dim, seed):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    assert_allclose(dagger(dagger(mat)), mat)


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_apply_each_inverse_of_one_vector_and_of_a_stack(dim):
    rng = np.random.default_rng(dim)
    ops = np.array([random_unitary(dim, rng) for _ in range(4)])
    vecs = np.array([random_state(dim, rng) for _ in range(3)])
    one = apply_each_inverse(ops, vecs[0])
    assert one.shape == (4, dim)
    stack = apply_each_inverse(ops, vecs)
    assert stack.shape == (4, 3, dim)
    for m, op in enumerate(ops):
        assert_allclose(one[m], dagger(op) @ vecs[0], atol=1e-14)
        for k, vec in enumerate(vecs):
            assert_allclose(stack[m, k], dagger(op) @ vec, atol=1e-14)


@pytest.mark.parametrize("count", [1, 2, 5])
def test_closure_is_the_ordered_sum_of_branch_products(count):
    rng = np.random.default_rng(count)
    ops = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(count)]
    expected = dagger(ops[0]) @ ops[0]
    for op in ops[1:]:
        expected = expected + dagger(op) @ op
    assert np.array_equal(closure(ops), expected)
    assert np.array_equal(closure(iter(ops)), expected)


def test_norms_squared_makes_no_block_sized_temporary():
    # the float view is reduced in place: a conjugate copy or a complex
    # product would each take the block's size again
    rng = np.random.default_rng(7)
    block = rng.standard_normal((1024, 32)) + 1j * rng.standard_normal((1024, 32))
    tracemalloc.start()
    try:
        norms = norms_squared(block)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert norms.shape == (1024,) and norms.dtype == np.float64
    assert peak < block.nbytes / 16


def _row_sums(rows: np.ndarray) -> list[float]:
    """Each row's sum of squared real and imaginary parts, one dot product a row."""
    pairs = [np.ascontiguousarray(row).view(float) if np.iscomplexobj(row) else row for row in rows]
    return [float(np.dot(part, part)) for part in pairs]


def test_norms_squared_of_strided_and_real_rows():
    rng = np.random.default_rng(8)
    block = rng.standard_normal((64, 32)) + 1j * rng.standard_normal((64, 32))
    for rows in (block, block[:, ::2], block.T, block.real, block.imag[:, 1::3]):
        assert norms_squared(rows).tolist() == _row_sums(rows)
    assert_allclose(norms_squared(block[:, ::2]), np.sum(np.abs(block[:, ::2]) ** 2, axis=1), rtol=1e-14)


def test_pure_state_validation():
    as_pure_state(uniform_state(5))
    with pytest.raises(ValueError, match="norm"):
        as_pure_state(np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        as_pure_state(np.array([np.inf, 0.0]))


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=1000))
def test_random_unitary_is_unitary(dim, seed):
    u = random_unitary(dim, np.random.default_rng(seed))
    assert_allclose(u @ u.conj().T, np.eye(dim), atol=1e-12)


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=1000))
def test_random_state_is_normalized(dim, seed):
    state = random_state(dim, np.random.default_rng(seed))
    assert np.vdot(state, state).real == pytest.approx(1.0)
