from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from teleportsim import engine
from teleportsim.bell import make_bell_family, weyl_unitary
from teleportsim.eavesdrop import (
    analyze_eavesdropping,
    eavesdrop_operator,
    sequential_decomposition_check,
    tap_operators,
)
from teleportsim.effects import (
    Effect,
    kraus_mixture,
    strength_family,
    unitary_effect,
)
from teleportsim.engine import NULL_BRANCH_EPS, make_scenario, transfer_kernel, transfer_rows
from teleportsim.linalg import basis_state, dagger, norms_squared, uniform_state
from teleportsim.sampling import random_state, random_unitary

from oracles import (
    advantage,
    brute_mirrored_basis,
    brute_projective_cell,
    brute_tap_cells,
    brute_teleport,
    brute_weyl,
    closed_form_uniform_fidelity,
    hermiticity_deviation,
    oracle_records,
)


def tapped(dim, state, theta, basis=None, u0=None, bell=None):
    return make_scenario(
        dim, state, bell=bell, u0=u0, effect_r=strength_family(dim, theta, basis)
    )


def cells(config):
    """The report's ``(probability, fidelity)`` per cell, keyed by ``(l, m)``."""
    report = analyze_eavesdropping(config)
    return {
        (l, m): (report.probabilities[row, column], report.fidelities[row, column])
        for row, l in enumerate(report.tap_labels)
        for column, m in enumerate(report.labels)
    }


def test_operator_is_conjugated_projector_at_full_strength():
    config = tapped(2, uniform_state(2), 1.0)
    for a in range(2):
        for b in range(2):
            u_m = weyl_unitary(2, a, b)
            for l in range(2):
                proj = np.zeros((2, 2), dtype=complex)
                proj[l, l] = 1.0
                assert_allclose(
                    eavesdrop_operator(config, l, (a, b)),
                    0.5 * u_m @ proj @ dagger(u_m),
                    atol=1e-12,
                )


def test_operator_uses_mirrored_branch_for_rotated_reference():
    rng = np.random.default_rng(19)
    u0 = random_unitary(3, rng)
    config = tapped(3, random_state(3, rng), 0.8, u0=u0)
    branch = config.effect_r.operators[1]
    u_m = weyl_unitary(3, 2, 1)
    expected = (dagger(u0) @ branch @ u0).T
    expected = u_m @ expected @ dagger(u_m) / 3.0
    assert_allclose(eavesdrop_operator(config, 1, (2, 1)), expected, atol=1e-12)


def test_operator_columns_are_the_brute_force_branches():
    # an explicit family that splits one unitary into weights 1/4 and 3/4;
    # the receiver sits on the scenario and must not enter P(l, m)
    rng = np.random.default_rng(37)
    dim = 3
    outcomes = [("low", np.eye(dim), 0.25), ("high", np.eye(dim), 0.75)]
    outcomes += [((a, b), weyl_unitary(dim, a, b), 1.0) for a in range(dim) for b in range(dim) if a or b]
    bell = make_bell_family(dim, outcomes)
    u0 = random_unitary(dim, rng)
    damping = [np.diag([1.0, 0.8, 1.0]), np.array([[0, 0.6, 0], [0, 0, 0], [0, 0, 0]])]
    family = strength_family(dim, 0.7, random_unitary(dim, rng))
    config = make_scenario(
        dim, random_state(dim, rng), bell=bell, u0=u0,
        effect_r=family, effect_b=kraus_mixture(damping),
    )
    for l, branch in zip(family.labels, family.operators):
        for label, unitary, weight in zip(bell.labels, bell.unitaries, bell.weights):
            expected = np.column_stack([
                brute_teleport(dim, basis_state(dim, k), u0, branch,
                               np.eye(dim), unitary, weight)
                for k in range(dim)
            ])
            got = eavesdrop_operator(config, l, label)
            assert_allclose(got, expected, rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match=r"^no reference branch labeled 3$"):
        eavesdrop_operator(config, 3, "low")
    with pytest.raises(ValueError, match=r"^no outcome labeled 'mid' in family of size 10$"):
        eavesdrop_operator(config, 0, "mid")


def test_one_operator_builds_one_outcome(monkeypatch):
    # one cell needs one outcome's rows: every outcome would cost M = 64 times as much
    lengths = []
    apply = engine.apply_each_inverse

    def recorded(ops, vecs):
        lengths.append(len(ops))
        return apply(ops, vecs)

    monkeypatch.setattr(engine, "apply_each_inverse", recorded)
    config = tapped(8, uniform_state(8), 0.5)
    eavesdrop_operator(config, 5, (3, 7))
    assert lengths and set(lengths) == {1}


def test_trivial_tap_probabilities_are_flat():
    # at zero strength every (l, m) cell carries weight / (dim^2 * dim)
    table = cells(tapped(2, uniform_state(2), 0.0))
    for l in range(2):
        for a in range(2):
            for b in range(2):
                assert table[(l, (a, b))][0] == pytest.approx(1 / 8, abs=1e-12)


def test_full_strength_probabilities_follow_the_shift():
    table = cells(tapped(2, basis_state(2, 0), 1.0))
    assert table[(0, (0, 0))][0] == pytest.approx(0.25, abs=1e-12)
    assert table[(1, (0, 0))][0] == pytest.approx(0.0, abs=1e-12)


@given(
    st.integers(min_value=2, max_value=4),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=300),
)
@settings(max_examples=30, deadline=None)
def test_joint_probabilities_match_oracle_records(dim, theta, seed):
    rng = np.random.default_rng(seed)
    config = tapped(
        dim, random_state(dim, rng), theta,
        basis=random_unitary(dim, rng), u0=random_unitary(dim, rng),
    )
    table = cells(config)
    for record in oracle_records(config):
        assert table[(record.l, record.m)][0] == pytest.approx(
            record.probability, abs=1e-10
        )


def test_conditional_output_matches_oracle_branch():
    rng = np.random.default_rng(29)
    config = tapped(3, random_state(3, rng), 0.6, u0=random_unitary(3, rng))
    records = {(r.l, r.m): r for r in oracle_records(config)}
    for (l, m), record in records.items():
        amp = eavesdrop_operator(config, l, m) @ config.input_state
        out = amp / np.linalg.norm(amp)
        assert_allclose(out, record.output, atol=1e-10)


def test_dead_branch_has_no_conditional_output():
    config = tapped(2, basis_state(2, 0), 1.0)
    amp = eavesdrop_operator(config, 1, (0, 0)) @ config.input_state
    assert np.linalg.norm(amp) == pytest.approx(0.0, abs=1e-12)
    probability, fidelity = cells(config)[(1, (0, 0))]
    assert probability < 1e-14
    assert np.isnan(fidelity)


def test_live_branch_fidelity_at_full_strength():
    # the uniform input collapses to a basis state on every live branch
    table = cells(tapped(2, uniform_state(2), 1.0))
    for l in range(2):
        for a in range(2):
            for b in range(2):
                assert table[(l, (a, b))][1] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize(
    "theta", [0.0, 0.25, 0.5, 0.75, 1.0]
)
def test_total_fidelity_closed_form(theta):
    config = tapped(2, uniform_state(2), theta)
    assert analyze_eavesdropping(config).total_fidelity == pytest.approx(
        closed_form_uniform_fidelity(theta), abs=1e-12
    )


@given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=2, max_value=5))
@settings(max_examples=40, deadline=None)
def test_basis_eigenstate_keeps_unit_fidelity(theta, dim):
    config = tapped(dim, basis_state(dim, dim - 1), theta)
    assert analyze_eavesdropping(config).total_fidelity == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("dim", [2, 3])
def test_total_fidelity_decreases_with_strength(dim):
    values = [
        analyze_eavesdropping(tapped(dim, uniform_state(dim), theta)).total_fidelity
        for theta in np.linspace(0, 1, 11)
    ]
    assert values[0] == pytest.approx(1.0, abs=1e-10)
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier + 1e-12


def test_marginals_for_strength_family():
    report = analyze_eavesdropping(tapped(2, random_state(2, np.random.default_rng(3)), 0.8))
    assert report.tap_labels == (0, 1)
    p_l = report.probabilities.sum(axis=1)
    assert p_l[0] == pytest.approx(0.5, abs=1e-12)
    assert p_l[1] == pytest.approx(0.5, abs=1e-12)
    for value in report.probabilities.sum(axis=0):
        assert value == pytest.approx(0.25, abs=1e-12)


def test_tap_marginal_tracks_branch_traces_not_input():
    e0 = np.diag([1.0, np.sqrt(0.5)]).astype(complex)
    e1 = np.diag([0.0, np.sqrt(0.5)]).astype(complex)
    family = kraus_mixture([e0, e1])
    rng = np.random.default_rng(7)
    for _ in range(5):
        config = make_scenario(2, random_state(2, rng), effect_r=family)
        p_l = analyze_eavesdropping(config).probabilities.sum(axis=1)
        assert p_l[0] == pytest.approx(0.75, abs=1e-12)
        assert p_l[1] == pytest.approx(0.25, abs=1e-12)


def test_bell_marginal_respects_outcome_weights():
    outcomes = [
        ((a, b, c), weyl_unitary(2, a, b), 0.5)
        for a in range(2) for b in range(2) for c in (0, 1)
    ]
    family = make_bell_family(2, outcomes)
    config = tapped(2, uniform_state(2), 0.4, bell=family)
    for value in analyze_eavesdropping(config).probabilities.sum(axis=0):
        assert value == pytest.approx(0.5 / 4, abs=1e-12)


def test_sequential_decompositions_stay_maximally_mixed():
    rng = np.random.default_rng(43)
    for dim in (2, 3):
        for theta in (0.0, 0.5, 1.0):
            config = tapped(
                dim, random_state(dim, rng), theta,
                basis=random_unitary(dim, rng), u0=random_unitary(dim, rng),
            )
            report = sequential_decomposition_check(config)
            assert report.branch_deviation < 1e-12
            assert report.grouped_deviation < 1e-12


def damping_pair(dim, rng):
    """A closed, non-unital two-Kraus damping channel in a random basis."""
    basis = random_unitary(dim, rng)
    gamma = rng.uniform(0.1, 0.9) * (np.arange(dim) + 1) / dim
    k0 = basis @ np.diag(np.sqrt(1.0 - gamma)) @ dagger(basis)
    # the shift after the rates keeps k1^+ k1 diagonal and moves each level on: not unital
    k1 = basis @ np.roll(np.eye(dim), 1, axis=0) @ np.diag(np.sqrt(gamma)) @ dagger(basis)
    return [k0, k1]


@pytest.mark.parametrize("dim", [2, 3, 5])
@pytest.mark.parametrize("effect", ["kraus", "unitary", "none"])
def test_receiver_state_stays_maximally_mixed_for_any_closed_reference_effect(effect, dim):
    rng = np.random.default_rng(dim)
    effect_r = {
        "kraus": lambda: kraus_mixture(damping_pair(dim, rng)),
        "unitary": lambda: unitary_effect(random_unitary(dim, rng)),
        "none": lambda: None,
    }[effect]()
    config = make_scenario(
        dim, random_state(dim, rng), u0=random_unitary(dim, rng), effect_r=effect_r,
        effect_b=kraus_mixture(damping_pair(dim, rng)),
    )
    report = sequential_decomposition_check(config)
    assert report.branch_deviation < 1e-14
    assert report.grouped_deviation < 1e-14


def test_sequential_decomposition_flags_unclosed_kraus_list():
    rng = np.random.default_rng(5)
    scaled = Effect((0, 1), np.array(damping_pair(3, rng)) * 1.01)
    config = make_scenario(3, random_state(3, rng), u0=random_unitary(3, rng), effect_r=scaled)
    report = sequential_decomposition_check(config)
    assert report.branch_deviation > 1e-3
    assert report.grouped_deviation > 1e-3


def test_sequential_decomposition_flags_broken_family():
    intact = strength_family(2, 0.6)
    operators = np.array(intact.operators)
    operators[0] *= 1.05
    broken = Effect(intact.labels, operators)
    config = make_scenario(2, uniform_state(2), effect_r=broken)
    report = sequential_decomposition_check(config)
    assert report.branch_deviation > 1e-3
    assert report.grouped_deviation > 1e-3


def test_full_strength_cells_are_squared_overlaps_with_the_mirrored_basis():
    # theta = 1 is the projective tap: cell (l, m) is w_m/n^2 |<e_l|U(m)^-1 psi>|^2
    # with e_l = conj(u0^+ b_l), the vector of the mirrored projector
    rng = np.random.default_rng(47)
    u0, basis = random_unitary(3, rng), random_unitary(3, rng)
    config = tapped(3, random_state(3, rng), 1.0, basis=basis, u0=u0)
    report = analyze_eavesdropping(config)
    vectors = brute_mirrored_basis(u0, basis)
    for row, e_l in enumerate(vectors):
        for column, (a, b) in enumerate(report.labels):
            expected = brute_projective_cell(config.input_state, e_l, brute_weyl(3, a, b))
            assert report.probabilities[row, column] == pytest.approx(expected, abs=1e-15)


def label_observables(config):
    """``n/sqrt(w_m) sum_l l P(l, m)`` from `tap_operators`, one matrix per outcome ``m``."""
    scale = config.dim / np.sqrt(config.bell.weights)[:, None, None]
    return scale * sum(l * ops for l, ops in tap_operators(config))


def test_full_strength_tap_measures_the_conjugated_label_observable():
    # per Bell outcome m the projective tap measures U(m) L U(m)^-1, with
    # L = sum_l l |e_l><e_l| on the mirrored basis vectors
    rng = np.random.default_rng(53)
    u0, basis = random_unitary(3, rng), random_unitary(3, rng)
    config = tapped(3, random_state(3, rng), 1.0, basis=basis, u0=u0)
    label = sum(l * np.outer(e_l, e_l.conj()) for l, e_l in enumerate(brute_mirrored_basis(u0, basis)))
    for (a, b), observable in zip(config.bell.labels, label_observables(config), strict=True):
        u_m = brute_weyl(3, a, b)
        assert_allclose(observable, u_m @ label @ dagger(u_m), rtol=0, atol=1e-14)
    # identity reference rotation: the measured observable at the identity
    # outcome is the label operator in the tap basis
    plain = tapped(3, uniform_state(3), 1.0)
    observables = dict(zip(plain.bell.labels, label_observables(plain)))
    assert_allclose(observables[(0, 0)], np.diag([0.0, 1.0, 2.0]), atol=1e-12)
    u_m = weyl_unitary(3, 1, 2)
    assert_allclose(observables[(1, 2)], u_m @ np.diag([0.0, 1.0, 2.0]) @ dagger(u_m), atol=1e-12)


def test_distinguishability_basis_pair_scales_with_strength():
    for theta in (0.0, 0.6, 1.0):
        config = tapped(2, basis_state(2, 0), theta)
        zero, one = basis_state(2, 0), basis_state(2, 1)
        forward = advantage(config, zero, one)
        assert forward == pytest.approx(theta / 2, abs=1e-12)
        assert advantage(config, one, zero) == forward
        assert advantage(config, zero, zero) == 0.0


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_receiver_branches_sum_to_the_tap_cells(dim):
    # summed over receiver branches, the kernel's cells are the tap's: a
    # closed two-Kraus receiver must leave them where the kernel of the tap
    # alone, which `distinguishability` reads, puts them; and every
    # quantity of the tap alone is the receiver-free scenario's, value for
    # value
    rng = np.random.default_rng(70 + dim)
    isometry = random_unitary(2 * dim, rng)[:, :dim]
    config = make_scenario(
        dim,
        random_state(dim, rng),
        u0=random_unitary(dim, rng),
        effect_r=strength_family(dim, 0.6, random_unitary(dim, rng)),
        effect_b=kraus_mixture([isometry[:dim], isometry[dim:]]),
    )
    states = np.array([random_state(dim, rng), random_state(dim, rng)])
    rows = transfer_rows(config, states)
    mirrors = config.mirrors
    labels = config.effect_r.labels
    alone = {l: norms_squared(amps) for l, amps in zip(labels, transfer_kernel(rows, mirrors))}
    summed = {l: np.zeros_like(cells) for l, cells in alone.items()}
    receiver = config.effect_b.operators
    channels = np.array([f_b @ mirrored for mirrored in mirrors for f_b in receiver])
    count = 0
    for l, amps in zip([l for l in labels for _ in receiver], transfer_kernel(rows, channels)):
        summed[l] += norms_squared(amps)
        count += 1
    assert count == 2 * dim
    for l, cells in alone.items():
        assert np.max(np.abs(summed[l] - cells)) <= 1e-15
    pair = np.concatenate(list(summed.values()))
    summed_advantage = 0.25 * float(np.sum(np.abs(pair[:, 0] - pair[:, 1])))
    assert summed_advantage == pytest.approx(advantage(config, *states), abs=1e-15)
    tap = replace(config, effect_b=None)
    for (l, ops), (tap_l, tap_ops) in zip(tap_operators(config), tap_operators(tap), strict=True):
        assert l == tap_l and np.array_equal(ops, tap_ops)
    assert sequential_decomposition_check(config) == sequential_decomposition_check(tap)


def test_distinguishability_blind_to_conjugate_basis():
    config = tapped(2, uniform_state(2), 1.0)
    plus = uniform_state(2)
    minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
    assert advantage(config, plus, minus) == pytest.approx(0.0, abs=1e-12)


def test_analysis_report_is_self_consistent():
    rng = np.random.default_rng(59)
    config = tapped(3, random_state(3, rng), 0.35, u0=random_unitary(3, rng))
    report = analyze_eavesdropping(config)
    assert report.probabilities.shape == (3, 9)
    psi = config.input_state
    total = 0.0
    for (l, m), (cell_probability, _) in cells(config).items():
        op = eavesdrop_operator(config, l, m)
        probability = float(np.vdot(psi, op @ (op @ psi)).real)
        assert cell_probability == pytest.approx(probability, abs=1e-12)
        assert hermiticity_deviation(op) < 1e-12
        total += abs(np.vdot(psi, op @ psi)) ** 2
    assert sum(report.probabilities.sum(axis=1)) == pytest.approx(1.0, abs=1e-12)
    assert sum(report.probabilities.sum(axis=0)) == pytest.approx(1.0, abs=1e-12)
    assert report.total_fidelity == pytest.approx(total, abs=1e-12)


def test_report_total_fidelity_is_the_oracle_tables():
    # the report contracts the transfer route's uncorrected blocks with the
    # bras U(m)^-1 psi; the oracle's records are corrected row by row
    rng = np.random.default_rng(83)
    config = make_scenario(
        3,
        random_state(3, rng),
        u0=random_unitary(3, rng),
        effect_r=strength_family(3, 0.4, random_unitary(3, rng)),
    )
    psi = np.asarray(config.input_state)
    live = [r for r in oracle_records(config) if r.output is not None]
    expected = sum(abs(np.vdot(psi, r.raw_output)) ** 2 for r in live)
    assert analyze_eavesdropping(config).total_fidelity == pytest.approx(expected, abs=1e-12)


def test_analysis_marks_dead_branches_with_no_fidelity():
    config = tapped(2, basis_state(2, 0), 1.0)
    report = analyze_eavesdropping(config)
    dead = report.probabilities < 1e-14
    assert dead.any() and np.isnan(report.fidelities[dead]).all()
    assert (~dead).any()
    assert_allclose(report.fidelities[~dead], 1.0, rtol=0, atol=1e-12)


def test_report_divides_its_cell_fidelities_on_read():
    # the report keeps the summed squared overlaps; a read divides them
    report = analyze_eavesdropping(tapped(3, random_state(3, np.random.default_rng(5)), 0.6))
    for array in (report.probabilities, report.overlaps, report.fidelities):
        assert not array.flags.writeable
    expected = engine.conditional_fidelities(report.overlaps, report.probabilities)
    assert np.array_equal(report.fidelities, expected)
    assert report.total_fidelity == pytest.approx(float(report.overlaps.sum()), abs=1e-15)


def test_report_arrays_have_nan_on_null_cells():
    # a projective tap on a tap-basis state: branch l fires only on the Bell
    # outcomes that shift |0> to |l>, and the damping receiver is summed out
    damping = [
        np.array([[1, 0], [0, 0.8]], dtype=complex),
        np.array([[0, 0.6], [0, 0]], dtype=complex),
    ]
    psi = basis_state(2, 0)
    config = make_scenario(
        2, psi, effect_r=strength_family(2, 1.0), effect_b=kraus_mixture(damping)
    )
    report = analyze_eavesdropping(config)
    assert report.probabilities.shape == report.fidelities.shape == (2, 4)
    assert report.tap_labels == (0, 1)
    assert report.labels == config.bell.labels
    null = report.probabilities < NULL_BRANCH_EPS
    assert null.tolist() == [[False, False, True, True], [True, True, False, False]]
    assert np.array_equal(np.isnan(report.fidelities), null)
    # cell by cell from the branch operators and the receiver's Kraus pair
    for (l, m), (cell_probability, cell_fidelity) in cells(config).items():
        u_m = weyl_unitary(2, *m)
        tapped_psi = eavesdrop_operator(config, l, m) @ psi
        outputs = [u_m @ f_b @ dagger(u_m) @ tapped_psi for f_b in damping]
        probability = sum(float(np.vdot(out, out).real) for out in outputs)
        assert cell_probability == pytest.approx(probability, abs=1e-14)
        if not np.isnan(cell_fidelity):
            overlap = sum(abs(np.vdot(psi, out)) ** 2 for out in outputs)
            assert cell_fidelity == pytest.approx(overlap / probability, abs=1e-12)


def test_any_reference_effect_is_a_tap():
    # a two-Kraus damping channel on the reference, neither Hermitian nor
    # unital: the report reads each Kraus label as one tap outcome
    rng = np.random.default_rng(31)
    damping = damping_pair(3, rng)
    config = make_scenario(3, random_state(3, rng), u0=random_unitary(3, rng), effect_r=kraus_mixture(damping))
    report = analyze_eavesdropping(config)
    assert report.tap_labels == (0, 1)
    measured = next(engine.route_passes(config))
    assert_allclose(report.probabilities, measured.tap.probabilities, rtol=0, atol=1e-12)
    expected = brute_tap_cells(config.input_state, config.u0, damping, list(report.labels))
    assert_allclose(report.probabilities, expected, rtol=0, atol=1e-12)
