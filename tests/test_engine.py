from __future__ import annotations

import io
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from teleportsim import engine
from teleportsim.bell import BellFamily, make_bell_family, weyl_unitary
from teleportsim.config import parse_config
from teleportsim.eavesdrop import sequential_decomposition_check
from teleportsim.effects import (
    Effect,
    kraus_mixture,
    strength_family,
    unitary_effect,
)
from teleportsim.engine import (
    RouteMismatch,
    ScenarioConfig,
    conditional_fidelities,
    expected_probability_sum,
    make_scenario,
    oracle_bra,
    reduce_stream,
    reference_marginal,
    run_oracle,
)
from teleportsim.linalg import apply_each_inverse, basis_state, dagger, norms_squared, uniform_state
from teleportsim.runner import run_teleport
from teleportsim.sampling import random_state, random_unitary

from oracles import (
    block_records,
    brute_teleport,
    materialized_oracle,
    mirror_loop,
    oracle_records,
    oracle_stream,
    stream_records,
    transfer_stream,
)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_ideal_teleportation_returns_input(dim):
    rng = np.random.default_rng(dim * 17)
    for _ in range(5):
        config = make_scenario(
            dim, random_state(dim, rng), u0=random_unitary(dim, rng)
        )
        records = oracle_records(config)
        assert len(records) == dim * dim
        total = 0.0
        for record in records:
            assert record.probability == pytest.approx(1.0 / dim**2, abs=1e-12)
            fid = abs(np.vdot(config.input_state, record.output)) ** 2
            assert fid == pytest.approx(1.0, abs=1e-12)
            total += record.probability
        assert total == pytest.approx(1.0, abs=1e-12)


def test_correction_flag_exposes_conditional_state():
    # the oracle stream holds the conditional states before the correction
    rng = np.random.default_rng(23)
    psi = random_state(3, rng)
    config = make_scenario(3, psi)
    records = block_records(config, oracle_stream(config))
    assert len(records) == 9
    for record in records:
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
        records = oracle_records(config)
        for record in records:
            a, b = record.m
            expected = brute_teleport(dim, psi, u0, e_r, f_b, weyl_unitary(dim, a, b))
            assert_allclose(record.raw_output, expected, atol=1e-12)


@pytest.mark.parametrize("correct", [True, False])
@pytest.mark.parametrize("n", [8, 16])
def test_oracle_matches_the_materialized_full_state(n, correct):
    # the oracle contracts the sender index before the effects; the
    # reference builds every n**3 block and projects it
    rng = np.random.default_rng(40 + n)
    u0 = random_unitary(n, rng)
    isometry = random_unitary(2 * n, rng)[:, :n]
    kraus = [isometry[:n], isometry[n:]]
    receiver = random_unitary(n, rng)
    config = make_scenario(
        n,
        random_state(n, rng),
        u0=u0,
        effect_r=kraus_mixture(kraus),
        effect_b=unitary_effect(receiver),
    )
    bell = config.bell
    expected = materialized_oracle(
        np.asarray(config.input_state), u0, bell.unitaries, bell.weights, kraus, [receiver], correct
    )
    records = block_records(config, oracle_stream(config), correct)
    got = np.array([record.raw_output for record in records]).reshape(expected.shape)
    assert_allclose(got, expected, rtol=0, atol=1e-13)


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
    )
    if correct:
        slow, quick = oracle_records(config), stream_records(config)
    else:
        slow, quick = (block_records(config, route(config)) for route in (oracle_stream, transfer_stream))
    assert len(slow) == len(quick)
    for a, b in zip(slow, quick):
        assert (a.m, a.l, a.branch) == (b.m, b.l, b.branch)
        assert a.probability == pytest.approx(b.probability, abs=1e-12)
        assert np.max(np.abs(a.raw_output - b.raw_output)) < 1e-12


def test_fidelities_match_brute_force_overlaps():
    rng = np.random.default_rng(61)
    psi = random_state(3, rng)
    u0 = random_unitary(3, rng)
    e_r = random_unitary(3, rng)
    f_b = random_unitary(3, rng)
    config = make_scenario(
        3, psi, u0=u0, effect_r=unitary_effect(e_r), effect_b=unitary_effect(f_b)
    )
    kets = apply_each_inverse(config.bell.unitaries, psi)
    probabilities, overlaps_sq = reduce_stream(oracle_stream(config), kets)
    expected = []
    for unitary in config.bell.unitaries:
        amp = brute_teleport(3, psi, u0, e_r, f_b, unitary)
        expected.append(abs(np.vdot(psi, amp)) ** 2 / np.vdot(amp, amp).real)
    assert_allclose(conditional_fidelities(overlaps_sq, probabilities), [expected], rtol=0, atol=1e-12)


def test_receiver_unitary_appears_in_output():
    pauli_z = np.diag([1.0, -1.0]).astype(complex)
    psi = random_state(2, np.random.default_rng(3))
    config = make_scenario(2, psi, effect_b=unitary_effect(pauli_z))
    records = oracle_records(config)
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
    family = kraus_mixture([e_r, e_other])
    rotation = np.array([[0.6, -0.8], [0.8, 0.6]], dtype=complex)
    config = make_scenario(
        2, psi, effect_r=family, effect_b=unitary_effect(rotation)
    )
    records = [r for r in oracle_records(config) if r.l == 0 and r.m == (1, 0)]
    u_m = weyl_unitary(2, 1, 0)
    right_order = 0.5 * u_m @ rotation @ e_r.T @ dagger(u_m) @ psi
    wrong_order = 0.5 * u_m @ e_r.T @ rotation @ dagger(u_m) @ psi
    assert_allclose(records[0].raw_output, right_order, atol=1e-12)
    assert np.max(np.abs(records[0].raw_output - wrong_order)) > 1e-3


def test_projective_tap_on_eigenstate_keeps_fidelity_one():
    config = make_scenario(3, basis_state(3, 0), effect_r=strength_family(3, 1.0))
    records = oracle_records(config)
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
    records = oracle_records(config)
    assert len(records) == 2 * 2 * 4
    assert sum(r.probability for r in records) == pytest.approx(1.0, abs=1e-12)
    labels = {(r.l, r.branch) for r in records}
    assert labels == {(l, k) for l in range(2) for k in range(2)}


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_ideal_decomposition_is_maximally_mixed(dim):
    rng = np.random.default_rng(dim)
    config = make_scenario(dim, random_state(dim, rng))
    report = sequential_decomposition_check(config)
    assert max(report.branch_deviation, report.grouped_deviation) < 1e-12


def test_ideal_decomposition_for_weighted_family():
    outcomes = [
        ((a, b, c), weyl_unitary(2, a, b), 0.5)
        for a in range(2) for b in range(2) for c in (0, 1)
    ]
    family = make_bell_family(2, outcomes)
    config = make_scenario(2, random_state(2, np.random.default_rng(8)), bell=family)
    report = sequential_decomposition_check(config)
    assert max(report.branch_deviation, report.grouped_deviation) < 1e-12
    records = oracle_records(config)
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
    )
    by_label = {label: (unitary, weight) for label, unitary, weight in outcomes}
    if correct:
        routes = (oracle_records(config), stream_records(config))
    else:
        routes = (block_records(config, route(config)) for route in (oracle_stream, transfer_stream))
    for records in routes:
        assert [r.m for r in records] == [label for label, _, _ in outcomes]
        for record in records:
            u_m, weight = by_label[record.m]
            expected = brute_teleport(dim, psi, u0, e_r, f_b, u_m, weight, correct)
            assert_allclose(record.raw_output, expected, atol=1e-12)
            assert record.probability == pytest.approx(np.vdot(expected, expected).real, abs=1e-12)



def _fourier_tap(n: int, effect_b=None):
    """A Fourier-basis tap at theta = 0.5, as in the n = 32 benchmark workload."""
    k = np.arange(n)
    fourier = np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)
    return make_scenario(
        n,
        random_state(n, np.random.default_rng(n)),
        effect_r=strength_family(n, 0.5, fourier),
        effect_b=effect_b,
    )


def _damping(n: int):
    """Amplitude damping of level 1 into level 0; the other levels are left alone."""
    k0 = np.eye(n, dtype=complex)
    k0[1, 1] = 0.8
    k1 = np.zeros((n, n), dtype=complex)
    k1[0, 1] = 0.6
    return kraus_mixture([k0, k1])


@pytest.mark.parametrize("n,receiver", [(16, True), (32, False)])
def test_whole_table_correction_equals_per_block_products(n, receiver):
    # the table holds every block of the oracle stream after U(m), bit for bit
    config = _fourier_tap(n, _damping(n) if receiver else None)
    unitaries = config.bell.unitaries
    table = run_oracle(config)
    blocks = list(oracle_stream(config))
    assert len(blocks) == (2 * n if receiver else n)
    expected = [(unitaries @ block[..., None])[..., 0] for block in blocks]
    assert np.array_equal(table.amplitudes, np.array(expected))


@pytest.mark.parametrize("n,receiver", [(16, True), (32, False)])
def test_table_probabilities_are_the_oracle_block_norms(n, receiver):
    # the table's probabilities are the squared norms of the uncorrected
    # oracle blocks, bit for bit
    config = _fourier_tap(n, _damping(n) if receiver else None)
    table = run_oracle(config)
    blocks = list(oracle_stream(config))
    assert len(blocks) == (2 * n if receiver else n)
    assert np.array_equal(table.probabilities, np.array([norms_squared(b) for b in blocks]))


def test_oracle_allocation_peak_stays_near_its_table():
    # the table is 16 MB at n = 32: beside it run_oracle holds one chunk of
    # bras (1 MB), the (M, n) bra on R and a block; the whole (M, n**2) bra
    # stack or a whole-table norms_squared would add 16 MB and trip this
    config = _fourier_tap(32)
    tracemalloc.start()
    try:
        table = run_oracle(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * table.amplitudes.nbytes


def _block_bytes(n: int) -> int:
    """Bytes of one (M, n) complex block of a Weyl family, M = n**2."""
    return n * n * n * 16


def test_oracle_stream_holds_a_chunk_of_bras_and_its_relative_bra():
    # beyond one chunk of bras the oracle stream holds the (M, n) bra on R
    # and the block it yields (and the one its consumer still holds); the
    # (M, n**2) bra stack alone would take 16 MB
    config = _fourier_tap(32)
    block_bytes = _block_bytes(32)
    chunk_bytes = engine._BRA_CHUNK * 32 * 32 * 16
    tracemalloc.start()
    try:
        count = sum(1 for _ in oracle_stream(config))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 32
    assert peak <= chunk_bytes + 2 * block_bytes


def test_oracle_stream_is_the_same_bits_in_any_chunking(monkeypatch):
    # the chunk size only bounds memory: every chunk is the same batched
    # product on a slice of the family
    config = _fourier_tap(16, _damping(16))
    chunked = list(oracle_stream(config))
    assert len(config.bell.labels) > engine._BRA_CHUNK
    monkeypatch.setattr(engine, "_BRA_CHUNK", len(config.bell.labels))
    whole = list(oracle_stream(config))
    assert len(chunked) == len(whole)
    assert all(np.array_equal(a, b) for a, b in zip(chunked, whole))


def test_route_pass_holds_a_few_blocks_of_each_stream():
    # both routes are streams compared block by block: beside the scenario's
    # (L, n, n) mirror stack and its (K, M) reductions the pass holds a few
    # (M, n) blocks, never a 16 MB table, and the transfer route builds its
    # channels one reference branch at a time; the first pass builds the
    # arrays no tap changes, so the second is measured alone
    config = _fourier_tap(32)
    passes = engine.route_passes(config, [config.effect_r, config.effect_r])
    next(passes)
    block_bytes = _block_bytes(32)
    mirror_bytes = 32 * 32 * 32 * 16
    row_bytes = 32 * 1024 * 8  # one (K, M) float array
    tracemalloc.start()
    try:
        measured = next(passes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    amplitude = measured.deviations["amplitude"]
    assert np.max(amplitude) < 1e-12
    assert all(array.shape == (32, 1024) for array in (measured.probabilities, measured.overlaps, amplitude))
    assert peak <= mirror_bytes + 4 * block_bytes + 8 * row_bytes


def test_teleport_run_keeps_blocks_and_reductions_only():
    # a run at n = 32 holds the (M, n) blocks and bras of both routes and
    # its (K, M) and (L, M) reductions, about 7 MB with the CSV text; the
    # oracle table alone would be 16 MB
    spec = parse_config(
        "n: 32\ninput: random:3\nu0: identity\nbell: weyl\n"
        "eavesdrop:\n  basis: fourier\n  theta: 0.5\n"
    )
    block_bytes = _block_bytes(32)
    row_bytes = 32 * 1024 * 8  # one (K, M) float array
    stream = io.StringIO()
    tracemalloc.start()
    try:
        run_teleport(spec, stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stream.getvalue().count("\noutcome,") == 32 * 1024
    assert peak <= 10 * block_bytes + 12 * row_bytes  # 8 MB, half the table


def _parted(config, case: str):
    """The transfer stream of ``config``, parted from the oracle's as ``case`` says."""
    blocks = list(transfer_stream(config))
    block, twin = blocks[1], blocks[2]
    return {
        "empty": [],
        "short": blocks[:-1],
        "long": blocks + blocks[-1:],
        "reshaped": blocks[:1] + [block[:-1]] + blocks[2:],
        "narrowed": blocks[:1] + [block[:, :-1]] + blocks[2:],
        # one record moves to the next block: the record count alone would not tell
        "moved": blocks[:1] + [block[:-1], np.vstack([twin, twin[:1]])] + blocks[3:],
    }[case]


@pytest.mark.parametrize(
    "case,match",
    [
        ("empty", r"^block 0: oracle \(9, 3\) vs transfer None$"),
        ("short", r"^block 5: oracle \(9, 3\) vs transfer None$"),
        ("long", r"^block 6: oracle None vs transfer \(9, 3\)$"),
        ("reshaped", r"^block 1: oracle \(9, 3\) vs transfer \(8, 3\)$"),
        ("narrowed", r"^block 1: oracle \(9, 3\) vs transfer \(9, 2\)$"),
        ("moved", r"^block 1: oracle \(9, 3\) vs transfer \(8, 3\)$"),
    ],
)
def test_route_pass_names_streams_that_part(monkeypatch, case, match):
    config = _fourier_tap(3, _damping(3))
    assert next(engine.route_passes(config)).deviations["amplitude"].shape == (6, 9)
    parted = _parted(config, case)
    monkeypatch.setattr(engine, "fast_run", lambda scenario, rows: iter(parted))
    with pytest.raises(RouteMismatch, match=match):
        next(engine.route_passes(config))


def _unclosed(rng: np.random.Generator, dim: int, scales: tuple[float, ...]) -> Effect:
    """Branches ``scale * V`` of random unitaries V: their closure is ``sum scale^2``, not 1."""
    return Effect(tuple(range(len(scales))), np.array([scale * random_unitary(dim, rng) for scale in scales]))


@pytest.mark.parametrize("dim", [2, 3])
def test_expected_probability_sum_is_the_brute_force_sum(dim):
    # effects on both lines that do not close and a family with random
    # weights, built without admission: the sum lies far from 1, and leaving
    # out any one of the three closures shows
    rng = np.random.default_rng(90 + dim)
    labels = tuple(np.ndindex(dim, dim))
    unitaries = np.array([weyl_unitary(dim, a, b) for a, b in labels])
    bell = BellFamily(dim, labels, unitaries, rng.uniform(0.5, 1.5, size=len(labels)))
    config = make_scenario(
        dim,
        random_state(dim, rng),
        bell=bell,
        u0=random_unitary(dim, rng),
        effect_r=_unclosed(rng, dim, (0.9, 0.6)),
        effect_b=_unclosed(rng, dim, (0.5, 0.7, 0.4)),
    )
    psi, u0 = np.asarray(config.input_state), np.asarray(config.u0)
    brute = sum(
        abs(np.vdot(amp, amp))
        for e_r in config.effect_r.operators
        for f_b in config.effect_b.operators
        for u_m, w in zip(bell.unitaries, bell.weights)
        for amp in [brute_teleport(dim, psi, u0, e_r, f_b, u_m, w)]
    )
    bra = oracle_bra(config)
    expected = expected_probability_sum(config, np.conj(bra).T @ bra, reference_marginal(config))
    assert abs(brute - 1.0) > 0.1
    assert expected == pytest.approx(brute, abs=1e-13)


def _reference_effect(kind: str, dim: int, rng: np.random.Generator):
    if kind == "strength":
        return strength_family(dim, 0.37, random_unitary(dim, rng))
    if kind == "kraus":
        basis = random_unitary(dim, rng)
        gamma = rng.uniform(0.1, 0.9, dim)
        k0 = basis @ np.diag(np.sqrt(1.0 - gamma)) @ basis.conj().T
        k1 = basis @ np.diag(np.sqrt(gamma)) @ basis.conj().T
        return kraus_mixture([k0, k1])
    return unitary_effect(random_unitary(dim, rng))


@pytest.mark.parametrize("kind", ["strength", "kraus", "unitary"])
@pytest.mark.parametrize("dim", [2, 3, 5, 16, 32])
def test_mirrors_are_the_branch_loop_bit_for_bit(dim, kind):
    rng = np.random.default_rng(900 + dim)
    config = make_scenario(
        dim, random_state(dim, rng), u0=random_unitary(dim, rng), effect_r=_reference_effect(kind, dim, rng)
    )
    stack = config.mirrors
    loop = mirror_loop(config)
    assert stack.shape == (len(loop), dim, dim) and not stack.flags.writeable
    assert all(np.array_equal(mirrored, reference) for mirrored, reference in zip(stack, loop))
    assert config.mirrors is stack


def test_the_oracle_never_builds_the_mirror_stack():
    # the oracle's independence, checked instead of assumed: draining its
    # stream for a tapped scenario with a Kraus receiver leaves the
    # scenario's cached mirror stack unbuilt
    config = _fourier_tap(3, _damping(3))
    blocks = list(engine.oracle_blocks(config, oracle_bra(config)))
    assert len(blocks) == 6
    assert "mirrors" not in vars(config)
    list(transfer_stream(config))
    assert "mirrors" in vars(config)


def test_a_replaced_tap_builds_its_own_mirror_stack():
    # replace makes a new scenario, so it never inherits the stack of the old tap
    config = _fourier_tap(3, _damping(3))
    stale = config.mirrors
    other = strength_family(3, 0.9)
    tapped = replace(config, effect_r=other)
    assert "mirrors" not in vars(tapped)
    assert tapped.mirrors is not stale
    assert all(np.array_equal(mirrored, reference) for mirrored, reference in zip(tapped.mirrors, mirror_loop(tapped)))
    assert not np.allclose(tapped.mirrors, stale)


def _counted(monkeypatch, name: str) -> list:
    """Patch ``engine.<name>`` to record each call's arguments in the returned list."""
    calls = []
    function = getattr(engine, name)

    def counted(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(engine, name, counted)
    return calls


def test_route_passes_build_what_no_tap_changes_once(monkeypatch):
    # one generator over three effects: one oracle bra and one set of kets
    # U(m)^-1 psi for all three passes
    config = _fourier_tap(3, _damping(3))
    bras, inverses = _counted(monkeypatch, "oracle_bra"), _counted(monkeypatch, "apply_each_inverse")
    effects = [strength_family(3, theta) for theta in (0.1, 0.5, 0.9)]
    passes = list(engine.route_passes(config, effects))
    assert len(passes) == 3
    assert len(bras) == len(inverses) == 1
    assert bras[0][0] is config


def test_each_route_pass_measures_the_base_with_its_own_effect():
    # every pass shares the base's input, family, u0 and receiver, the very
    # same objects, and carries the effect it was handed
    config = _fourier_tap(3, _damping(3))
    effects = [strength_family(3, theta) for theta in (0.2, 0.7)]
    passes = list(engine.route_passes(config, iter(effects)))
    for measured, effect in zip(passes, effects, strict=True):
        scenario = measured.scenario
        assert scenario is not config
        for part in ("input_state", "bell", "u0", "effect_b"):
            assert getattr(scenario, part) is getattr(config, part)
        assert scenario.effect_r is effect
        assert measured.keys == engine.branch_keys(scenario)
        alone = next(engine.route_passes(scenario))
        assert measured.tap.total_fidelity == alone.tap.total_fidelity
        assert np.array_equal(measured.probabilities, alone.probabilities)


def test_route_passes_without_effects_yield_one_pass_over_the_scenario():
    config = _fourier_tap(3, _damping(3))
    passes = list(engine.route_passes(config))
    assert len(passes) == 1
    assert passes[0].scenario is config
    assert passes[0].keys == engine.branch_keys(config)


def test_nan_in_a_directly_built_family_is_still_refused():
    # construction bypasses admission, so the scenario's own finiteness
    # check refuses it, on either line and however the scenario is built
    intact = strength_family(3, 0.5)
    broken = np.array(intact.operators)
    broken[1, 0, 2] = np.nan
    family = Effect(intact.labels, broken)
    clean = make_scenario(3, uniform_state(3))
    for line in ("effect_r", "effect_b"):
        for build in (
            lambda: make_scenario(3, uniform_state(3), **{line: family}),
            lambda: replace(clean, **{line: family}),
            lambda: ScenarioConfig(3, uniform_state(3), make_bell_family(3), np.eye(3), **{line: family}),
        ):
            with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                build()


# one bad part each, as make_scenario's keyword, and the message every construction gives
BAD_PARTS = {
    "non-unitary u0": ("u0", np.ones((3, 3)), "u0 must be unitary"),
    "u0 of another shape": ("u0", np.eye(2), r"u0 shape \(2, 2\) does not match dimension 3"),
    "non-finite u0": ("u0", np.full((3, 3), np.inf), "matrix entries must be finite"),
    "unnormalized input": ("input_state", 2 * uniform_state(3), r"state norm\^2 deviates from 1 by 3\.000e\+00"),
    "input of another length": ("input_state", uniform_state(2), "input state dimension 2 does not match 3"),
    "Bell family of another dimension": ("bell", make_bell_family(2), "Bell family dimension 2 does not match 3"),
}


@pytest.mark.parametrize("part", sorted(BAD_PARTS))
def test_every_construction_runs_the_same_checks(part):
    field, value, message = BAD_PARTS[part]
    clean = make_scenario(3, uniform_state(3), u0=random_unitary(3, np.random.default_rng(4)))
    parts = {"input_state": clean.input_state, "bell": clean.bell, "u0": clean.u0, field: value}
    for build in (
        lambda: make_scenario(3, **parts),
        lambda: replace(clean, **{field: value}),
        lambda: ScenarioConfig(3, **parts),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()


def test_a_dimension_below_two_is_refused_however_the_scenario_is_built():
    clean = make_scenario(2, uniform_state(2))
    for build in (
        lambda: make_scenario(1, uniform_state(1)),
        lambda: make_scenario(1, uniform_state(1), bell=clean.bell),
        lambda: replace(clean, dim=1),
    ):
        with pytest.raises(ValueError, match="^dimension must be at least 2, got 1$"):
            build()


def test_a_scenario_never_aliases_a_writeable_array():
    rng = np.random.default_rng(5)
    state, u0 = random_state(3, rng), random_unitary(3, rng)
    scenario = ScenarioConfig(3, state, make_bell_family(3), u0)
    # a read-only view of a writeable array changes with it, so it is copied too
    view = u0[:]
    view.setflags(write=False)
    viewed = replace(scenario, u0=view)
    for held in (scenario.input_state, scenario.u0, viewed.u0):
        assert not held.flags.writeable
    state[0], u0[0, 0] = 7.0, 7.0
    assert scenario.input_state[0] != 7.0 and scenario.u0[0, 0] != 7.0 and viewed.u0[0, 0] != 7.0
