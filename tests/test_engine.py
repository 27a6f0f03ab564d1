from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from teleportsim.bell import make_bell_family, weyl_unitary
from teleportsim.effects import (
    kraus_mixture,
    make_measurement_family,
    strength_family,
    unitary_effect,
)
from teleportsim.engine import (
    fast_run,
    ideal_decomposition_check,
    make_scenario,
    run_oracle,
    transfer_kernel,
    transfer_operator,
)
from teleportsim.linalg import basis_state, dagger, norms_squared, uniform_state
from teleportsim.sampling import random_state, random_unitary

from oracles import brute_teleport


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_ideal_teleportation_returns_input(dim):
    rng = np.random.default_rng(dim * 17)
    for _ in range(5):
        config = make_scenario(
            dim, random_state(dim, rng), u0=random_unitary(dim, rng)
        )
        records = run_oracle(config)
        assert len(records) == dim * dim
        total = 0.0
        for record in records:
            assert record.probability == pytest.approx(1.0 / dim**2, abs=1e-12)
            fid = abs(np.vdot(config.input_state, record.output)) ** 2
            assert fid == pytest.approx(1.0, abs=1e-12)
            total += record.probability
        assert total == pytest.approx(1.0, abs=1e-12)


def test_correction_flag_exposes_conditional_state():
    rng = np.random.default_rng(23)
    psi = random_state(3, rng)
    config = make_scenario(3, psi, apply_correction=False)
    for record in run_oracle(config):
        a, b = record.m
        expected = dagger(weyl_unitary(3, a, b)) @ psi / 3.0
        assert_allclose(record.raw_output, expected, atol=1e-12)


def test_oracle_matches_brute_force_with_effects():
    rng = np.random.default_rng(31)
    for dim in (2, 3):
        psi = random_state(dim, rng)
        u0 = random_unitary(dim, rng)
        e_r = random_unitary(dim, rng)
        f_b = random_unitary(dim, rng)
        config = make_scenario(
            dim, psi, u0=u0,
            effect_r=unitary_effect(e_r), effect_b=unitary_effect(f_b),
        )
        records = run_oracle(config)
        for record in records:
            a, b = record.m
            expected = brute_teleport(dim, psi, u0, e_r, f_b, weyl_unitary(dim, a, b))
            assert_allclose(record.raw_output, expected, atol=1e-12)


@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=500),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_fast_run_reproduces_oracle(dim, seed, correct):
    rng = np.random.default_rng(seed)
    style = seed % 3
    if style == 0:
        effect_r = unitary_effect(random_unitary(dim, rng))
    elif style == 1:
        effect_r = strength_family(dim, float(rng.uniform(0, 1)), random_unitary(dim, rng))
    else:
        gamma = rng.uniform(0.1, 0.9, dim)
        effect_r = kraus_mixture([
            np.diag(np.sqrt(1 - gamma)).astype(complex),
            np.diag(np.sqrt(gamma)).astype(complex),
        ])
    config = make_scenario(
        dim,
        random_state(dim, rng),
        u0=random_unitary(dim, rng),
        effect_r=effect_r,
        effect_b=unitary_effect(random_unitary(dim, rng)),
        apply_correction=correct,
    )
    slow = run_oracle(config)
    quick = fast_run(config)
    assert len(slow) == len(quick)
    for a, b in zip(slow, quick):
        assert (a.m, a.l, a.branch) == (b.m, b.l, b.branch)
        assert a.probability == pytest.approx(b.probability, abs=1e-12)
        assert np.max(np.abs(a.raw_output - b.raw_output)) < 1e-12


def test_transfer_operator_projective_tap_form():
    # a projective tap branch turns the transfer operator into the
    # conjugated projector U(m) |l><l| U(m)^-1 over dim
    config = make_scenario(2, uniform_state(2), effect_r=strength_family(2, 1.0))
    for a in range(2):
        for b in range(2):
            u_m = weyl_unitary(2, a, b)
            for l in range(2):
                proj = np.zeros((2, 2), dtype=complex)
                proj[l, l] = 1.0
                expected = 0.5 * u_m @ proj @ dagger(u_m)
                got = transfer_operator(config, (a, b), l=l)
                assert_allclose(got, expected, atol=1e-12)


def test_receiver_unitary_appears_in_output():
    pauli_z = np.diag([1.0, -1.0]).astype(complex)
    psi = random_state(2, np.random.default_rng(3))
    config = make_scenario(2, psi, effect_b=unitary_effect(pauli_z))
    records = run_oracle(config)
    by_m = {r.m: r for r in records}
    expected = pauli_z @ psi / 2.0
    assert_allclose(by_m[(0, 0)].raw_output, expected, atol=1e-12)
    for record in records:
        assert record.probability == pytest.approx(0.25, abs=1e-12)


def test_receiver_effect_applies_after_mirrored_reference_effect():
    # the two effects do not commute here, so only one operator order can
    # match the oracle: receiver factor on the left
    rng = np.random.default_rng(41)
    psi = random_state(2, rng)
    e_r = np.array([[0.9, 0.1], [0.1, 0.7]], dtype=complex)
    comp = np.eye(2) - e_r @ e_r
    w, v = np.linalg.eigh(comp)
    e_other = (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T
    family = make_measurement_family([e_r, e_other])
    rotation = np.array([[0.6, -0.8], [0.8, 0.6]], dtype=complex)
    config = make_scenario(
        2, psi, effect_r=family, effect_b=unitary_effect(rotation)
    )
    records = [r for r in run_oracle(config) if r.l == 0 and r.m == (1, 0)]
    u_m = weyl_unitary(2, 1, 0)
    right_order = 0.5 * u_m @ rotation @ e_r.T @ dagger(u_m) @ psi
    wrong_order = 0.5 * u_m @ e_r.T @ rotation @ dagger(u_m) @ psi
    assert_allclose(records[0].raw_output, right_order, atol=1e-12)
    assert np.max(np.abs(records[0].raw_output - wrong_order)) > 1e-3


def test_projective_tap_on_eigenstate_keeps_fidelity_one():
    config = make_scenario(3, basis_state(3, 0), effect_r=strength_family(3, 1.0))
    records = run_oracle(config)
    assert len(records) == 3 * 9
    null_records = [r for r in records if r.output is None]
    live_records = [r for r in records if r.output is not None]
    # per Bell outcome only one tap branch can fire
    assert len(live_records) == 9
    assert len(null_records) == 18
    for record in live_records:
        fid = abs(np.vdot(config.input_state, record.output)) ** 2
        assert fid == pytest.approx(1.0, abs=1e-12)
    for record in null_records:
        assert record.probability < 1e-14
        assert record.raw_output.shape == (3,)


def test_probabilities_sum_to_one_with_mixed_effects():
    rng = np.random.default_rng(53)
    gamma = 0.4
    kraus = kraus_mixture([
        np.diag([1.0, np.sqrt(1 - gamma)]).astype(complex),
        np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex),
    ])
    config = make_scenario(
        2,
        random_state(2, rng),
        u0=random_unitary(2, rng),
        effect_r=strength_family(2, 0.7),
        effect_b=kraus,
    )
    records = run_oracle(config)
    assert len(records) == 2 * 2 * 4
    assert sum(r.probability for r in records) == pytest.approx(1.0, abs=1e-12)
    labels = {(r.l, r.branch) for r in records}
    assert labels == {(l, k) for l in range(2) for k in range(2)}


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_ideal_decomposition_is_maximally_mixed(dim):
    rng = np.random.default_rng(dim)
    config = make_scenario(dim, random_state(dim, rng))
    assert ideal_decomposition_check(config) < 1e-12


def test_ideal_decomposition_for_weighted_family():
    outcomes = [
        ((a, b, c), weyl_unitary(2, a, b), 0.5)
        for a in range(2) for b in range(2) for c in (0, 1)
    ]
    family = make_bell_family(2, outcomes)
    config = make_scenario(2, random_state(2, np.random.default_rng(8)), bell=family)
    assert ideal_decomposition_check(config) < 1e-12
    records = run_oracle(config)
    assert len(records) == 8
    for record in records:
        assert record.probability == pytest.approx(0.5 / 4, abs=1e-12)


def test_make_scenario_validation():
    with pytest.raises(ValueError, match="norm"):
        make_scenario(2, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="does not match"):
        make_scenario(3, uniform_state(2))
    with pytest.raises(ValueError, match="unitary"):
        make_scenario(2, uniform_state(2), u0=np.diag([1.0, 2.0]))
    with pytest.raises(ValueError, match="dimension"):
        make_scenario(2, uniform_state(2), effect_r=strength_family(3, 0.5))


def _explicit_families():
    # int labels: every Weyl outcome twice at half weight
    doubled = [
        (index, weyl_unitary(2, a, b), 0.5)
        for index, (a, b, _) in enumerate(
            (a, b, copy) for a in range(2) for b in range(2) for copy in (0, 1)
        )
    ]
    # str and tuple labels: the base grid plus a rotated copy, half weight each
    rot = random_unitary(2, np.random.default_rng(9))
    tilted_str, tilted_tuple = [], []
    for a in range(2):
        for b in range(2):
            tilted_str += [(f"base-{a}{b}", weyl_unitary(2, a, b), 0.5),
                           (f"tilt-{a}{b}", rot @ weyl_unitary(2, a, b), 0.5)]
            tilted_tuple += [(("base", a, b), weyl_unitary(2, a, b), 0.5),
                             (("tilt", a, b), rot @ weyl_unitary(2, a, b), 0.5)]
    # unequal weights: every qutrit Weyl outcome at 1/4 and again at 3/4
    qutrit = [
        ((a, b, copy), weyl_unitary(3, a, b), 0.75 if copy else 0.25)
        for a in range(3) for b in range(3) for copy in (0, 1)
    ]
    return [(2, doubled), (2, tilted_str), (2, tilted_tuple), (3, qutrit)]


@pytest.mark.parametrize("correct", [True, False])
@pytest.mark.parametrize("case", range(4))
def test_explicit_families_match_brute_force_on_both_routes(case, correct):
    dim, outcomes = _explicit_families()[case]
    family = make_bell_family(dim, outcomes)
    rng = np.random.default_rng(100 + case)
    psi = random_state(dim, rng)
    u0 = random_unitary(dim, rng)
    e_r = random_unitary(dim, rng)
    f_b = random_unitary(dim, rng)
    config = make_scenario(
        dim, psi, bell=family, u0=u0,
        effect_r=unitary_effect(e_r), effect_b=unitary_effect(f_b),
        apply_correction=correct,
    )
    by_label = {label: (unitary, weight) for label, unitary, weight in outcomes}
    for route in (run_oracle, fast_run):
        records = route(config)
        assert [r.m for r in records] == [label for label, _, _ in outcomes]
        for record in records:
            u_m, weight = by_label[record.m]
            expected = brute_teleport(dim, psi, u0, e_r, f_b, u_m, weight, correct)
            assert_allclose(record.raw_output, expected, atol=1e-12)
            assert record.probability == pytest.approx(np.vdot(expected, expected).real, abs=1e-12)



def _fourier_tap(n: int, effect_b=None, correct: bool = True):
    """A Fourier-basis tap at theta = 0.5, as in the n = 32 benchmark workload."""
    k = np.arange(n)
    fourier = np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)
    return make_scenario(
        n,
        random_state(n, np.random.default_rng(n)),
        effect_r=strength_family(n, 0.5, fourier),
        effect_b=effect_b,
        apply_correction=correct,
    )


def _damping(n: int):
    """Amplitude damping of level 1 into level 0; the other levels are left alone."""
    k0 = np.eye(n, dtype=complex)
    k0[1, 1] = 0.8
    k1 = np.zeros((n, n), dtype=complex)
    k1[0, 1] = 0.6
    return kraus_mixture([k0, k1])


@pytest.mark.parametrize("correct", [True, False])
@pytest.mark.parametrize("n,receiver", [(16, True), (32, False)])
def test_whole_table_correction_equals_per_block_products(n, receiver, correct):
    # the table corrects with one product per outcome over every block; the
    # reference applies U(m) block by block, one matrix-vector product each.
    # At the benchmark's dimensions both give the same bits.
    config = _fourier_tap(n, _damping(n) if receiver else None, correct)
    unitaries = config.bell.unitaries
    expected = []
    for _, _, amps in transfer_kernel(config, np.asarray(config.input_state)[None]):
        block = amps[:, 0]
        expected.append((unitaries @ block[..., None])[..., 0] if correct else block)
    table = fast_run(config)
    assert len(expected) == (2 * n if receiver else n)
    assert np.array_equal(table.amplitudes, np.array(expected))
    assert np.array_equal(table.probabilities, np.array([norms_squared(b) for b in expected]))


@pytest.mark.parametrize("route,bound", [(run_oracle, 2.2), (fast_run, 1.2)])
def test_route_allocation_peak_stays_near_its_table(route, bound):
    # the table is 16 MB at n = 32: an out-of-place bras expression or a
    # whole-table norms_squared adds a table-sized temporary and trips this
    config = _fourier_tap(32)
    tracemalloc.start()
    try:
        table = route(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound * table.amplitudes.nbytes
