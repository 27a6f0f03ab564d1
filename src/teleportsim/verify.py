"""Self-contained verification suite behind the ``verify`` CLI command.

Every check recomputes an identity two independent ways and reports the
worst deviation against a fixed tolerance.  Checks draw their random
scenarios from per-check seeded generators, so each check's result is
independent of the others.  The ``corrupt`` argument deliberately injects a
defective family; it exists so tests can prove the suite actually bites.

Every check that reads the oracle reads its stream, `oracle_blocks`, reduced
block by block by `reduce_stream` to ``(K, M)`` squared norms and overlaps
with the input's kets ``U(m)^-1 psi``; no check collects the oracle into a
table.  ``ideal-teleportation``, ``probability-completeness`` and
``tap-oracle-agreement`` read the oracle alone, ``oracle-fast-equivalence``
zips it with `fast_run` in `compare_routes`.  ``decomposition-identity``
(no reference effect) and ``sequential-decomposition`` (strength taps)
both read `sequential_decomposition_check` and report the larger of its
two deviations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bell import BellFamily, completeness_deviation, make_bell_family, weyl_unitary
from .eavesdrop import (
    analyze_eavesdropping,
    expected_marginal_l,
    sequential_decomposition_check,
    tap_operators,
)
from .effects import (
    MeasurementFamily,
    family_completeness_deviation,
    kraus_mixture,
    strength_family,
    unitary_effect,
)
from .engine import (
    RouteMismatch,
    ScenarioConfig,
    compare_routes,
    conditional_fidelities,
    fast_run,
    make_scenario,
    mirror_stack,
    oracle_blocks,
    oracle_bra,
    reduce_stream,
    transfer_rows,
)
# run_oracle stays importable here: perfbench/tracing.py patches it by
# name, though every check reads the oracle through its stream
from .engine import run_oracle  # noqa: F401
from .linalg import apply_each_inverse, basis_state, uniform_state
from .sampling import child_rng, random_state, random_unitary


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check."""

    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    """All check results for one run, in registry order."""

    depth: str
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        out = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            line = f"{status} {r.name}: max deviation {r.max_deviation:.3e} (tolerance {r.tolerance:.1e})"
            if r.detail:
                line += f" [{r.detail}]"
            out.append(line)
        verdict = "all checks passed" if self.passed else "CHECKS FAILED"
        out.append(f"{verdict} ({sum(r.passed for r in self.results)}/{len(self.results)})")
        return out


def _result(name: str, deviation: float, tolerance: float, detail: str = "") -> CheckResult:
    return CheckResult(
        name=name,
        passed=deviation <= tolerance,
        max_deviation=deviation,
        tolerance=tolerance,
        detail=detail,
    )


def _worst(*deviations: float) -> float:
    """Largest deviation, NaN if any is NaN (``max(0.0, nan)`` would return 0.0)."""
    return float(np.max(deviations))


def _dims(depth: str) -> tuple[int, ...]:
    return (2, 3) if depth == "quick" else (2, 3, 4, 5)


def _oracle(config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """The oracle's ``(K, M)`` probabilities and fidelities with the input, from its stream."""
    psi = np.asarray(config.input_state)
    blocks = oracle_blocks(config, oracle_bra(config))
    probabilities, overlaps_sq = reduce_stream(blocks, apply_each_inverse(config.bell.unitaries, psi))
    return probabilities, conditional_fidelities(overlaps_sq, probabilities)


def _corrupted_bell(dim: int) -> BellFamily:
    # drop the last outcome without re-running the admission check
    intact = make_bell_family(dim)
    return BellFamily(dim, intact.labels[:-1], intact.unitaries[:-1], intact.weights[:-1])


def _corrupted_measurement(dim: int) -> MeasurementFamily:
    # scale one branch of an admitted family without re-running admission
    intact = strength_family(dim, 0.6)
    operators = np.array(intact.operators)
    operators[0] *= 1.01
    operators.setflags(write=False)
    return MeasurementFamily(intact.labels, operators)


def check_bell_completeness(depth: str, seed: int, corrupt: str | None) -> CheckResult:
    """Outcome families resolve the identity on A x R."""
    worst = 0.0
    for dim in _dims(depth):
        family = _corrupted_bell(dim) if corrupt == "bell" else make_bell_family(dim)
        worst = _worst(worst, completeness_deviation(family))
    # weighted family: every Weyl outcome twice at half weight
    doubled = [
        ((a, b, copy), weyl_unitary(3, a, b), 0.5)
        for a in range(3)
        for b in range(3)
        for copy in (0, 1)
    ]
    worst = _worst(worst, completeness_deviation(make_bell_family(3, doubled)))
    return _result("bell-completeness", worst, 1e-9)


def check_measurement_completeness(depth: str, seed: int, corrupt: str | None) -> CheckResult:
    """Tap branch squares resolve the identity for every strength."""
    worst = 0.0
    rng = child_rng(seed, 1)
    for dim in _dims(depth):
        for theta in (0.0, 0.3, 0.7, 1.0):
            if corrupt == "measurement":
                family = _corrupted_measurement(dim)
            else:
                family = strength_family(dim, theta, random_unitary(dim, rng))
            worst = _worst(worst, family_completeness_deviation(family))
    return _result("measurement-completeness", worst, 1e-9)


def check_ideal_teleportation(depth: str, seed: int, corrupt: str | None) -> CheckResult:
    """Undisturbed protocol returns the input exactly, each outcome at w/dim^2."""
    rng = child_rng(seed, 2)
    count = 6 if depth == "quick" else 20
    worst = 0.0
    for dim in _dims(depth):
        bell = _corrupted_bell(dim) if corrupt == "bell" else make_bell_family(dim)
        for _ in range(count):
            config = make_scenario(
                dim, random_state(dim, rng), bell=bell, u0=random_unitary(dim, rng)
            )
            probabilities, fidelities = _oracle(config)
            probability_dev = np.max(np.abs(probabilities - 1.0 / dim**2))
            fidelity_dev = np.max(np.abs(fidelities - 1.0))
            total_dev = abs(probabilities.sum() - 1.0)
            worst = _worst(worst, probability_dev, fidelity_dev, total_dev)
    return _result("ideal-teleportation", worst, 1e-10)


def _random_effect(dim: int, rng: np.random.Generator, style: int):
    if style == 0:
        return unitary_effect(random_unitary(dim, rng))
    if style == 1:
        return strength_family(dim, float(rng.uniform(0.0, 1.0)), random_unitary(dim, rng))
    # graded damping pair in a random basis: per-level rate gamma_k,
    # closure holds because (1 - gamma_k) + gamma_k = 1 levelwise
    basis = random_unitary(dim, rng)
    gamma = rng.uniform(0.1, 0.9) * (np.arange(dim) + 1) / dim
    phases = np.exp(2j * np.pi * np.arange(dim) / dim)
    k0 = basis @ np.diag(np.sqrt(1.0 - gamma)) @ basis.conj().T
    k1 = basis @ np.diag(np.sqrt(gamma) * phases) @ basis.conj().T
    return kraus_mixture([k0, k1])


def check_oracle_fast_equivalence(depth: str, seed: int, corrupt: str | None) -> CheckResult:
    """Transfer operators reproduce the full-state oracle branch for branch."""
    rng = child_rng(seed, 3)
    count = 4 if depth == "quick" else 12
    worst = 0.0
    for dim in _dims(depth):
        for trial in range(count):
            config = make_scenario(
                dim,
                random_state(dim, rng),
                u0=random_unitary(dim, rng),
                effect_r=_random_effect(dim, rng, trial % 3),
                effect_b=_random_effect(dim, rng, (trial + 1) % 3),
            )
            psi = np.asarray(config.input_state)
            oracle = oracle_blocks(config, oracle_bra(config))
            transfer = fast_run(config, transfer_rows(config, psi[None]), mirror_stack(config))
            try:
                _, norms, _, amplitude = compare_routes(
                    oracle, transfer, apply_each_inverse(config.bell.unitaries, psi)
                )
            except RouteMismatch as exc:
                return _result("oracle-fast-equivalence", float("inf"), 1e-9, str(exc))
            worst = _worst(worst, np.max(np.abs(norms[0] - norms[1])), np.max(amplitude))
    return _result("oracle-fast-equivalence", worst, 1e-9)


def check_decomposition_identity(depth: str, seed: int, corrupt: str | None) -> CheckResult:
    """Unconditional pre-correction receiver state is maximally mixed, with no tap."""
    rng = child_rng(seed, 4)
    worst = 0.0
    for dim in _dims(depth):
        bell = _corrupted_bell(dim) if corrupt == "bell" else make_bell_family(dim)
        for _ in range(5):
            config = make_scenario(dim, random_state(dim, rng), bell=bell)
            report = sequential_decomposition_check(config)
            worst = _worst(worst, report.branch_deviation, report.grouped_deviation)
    return _result("decomposition-identity", worst, 1e-10)


def check_sequential_decomposition(depth: str, seed: int, corrupt: str | None) -> CheckResult:
    """Tapped receiver state stays maximally mixed, branch and grouped form."""
    rng = child_rng(seed, 5)
    worst = 0.0
    for dim in _dims(depth):
        for theta in (0.0, 0.4, 1.0):
            if corrupt == "measurement":
                family = _corrupted_measurement(dim)
            else:
                family = strength_family(dim, theta, random_unitary(dim, rng))
            config = make_scenario(
                dim,
                random_state(dim, rng),
                u0=random_unitary(dim, rng),
                effect_r=family,
            )
            report = sequential_decomposition_check(config)
            worst = _worst(worst, report.branch_deviation, report.grouped_deviation)
    return _result("sequential-decomposition", worst, 1e-9)


def check_marginal_laws(depth: str, seed: int, corrupt: str | None) -> CheckResult:
    """p(l) = tr(E^2)/dim and p(m) = w/dim^2, independent of the input."""
    rng = child_rng(seed, 6)
    count = 5 if depth == "quick" else 12
    worst = 0.0
    for dim in _dims(depth):
        if corrupt == "measurement":
            family = _corrupted_measurement(dim)
        else:
            family = strength_family(dim, 0.55, random_unitary(dim, rng))
        u0 = random_unitary(dim, rng)
        for _ in range(count):
            config = make_scenario(dim, random_state(dim, rng), u0=u0, effect_r=family)
            report = analyze_eavesdropping(config)
            expected = expected_marginal_l(config)
            p_l = report.probabilities.sum(axis=1)
            p_m = report.probabilities.sum(axis=0)
            worst = _worst(
                worst,
                np.max(np.abs(p_l - [expected[label] for label in report.tap_labels])),
                np.max(np.abs(p_m - config.bell.weights / dim**2)),
            )
    return _result("marginal-laws", worst, 1e-10)


def check_fidelity_curve(depth: str, seed: int, corrupt: str | None) -> CheckResult:
    """Tap strength trades fidelity exactly as the closed form predicts.

    For a two-dimensional uniform input tapped in the computational basis
    the average fidelity is (1 + sqrt(1 - theta^2)) / 2; a tap-basis
    eigenstate keeps fidelity 1 at every strength.
    """
    worst = 0.0
    thetas = np.linspace(0.0, 1.0, 6 if depth == "quick" else 11)
    for theta in thetas:
        if corrupt == "measurement":
            family = _corrupted_measurement(2)
        else:
            family = strength_family(2, float(theta))
        plus = make_scenario(2, uniform_state(2), effect_r=family)
        report = analyze_eavesdropping(plus)
        closed = (1.0 + np.sqrt(max(0.0, 1.0 - float(theta) ** 2))) / 2.0
        worst = _worst(worst, abs(report.total_fidelity - closed))
        pinned = make_scenario(2, basis_state(2, 0), effect_r=family)
        worst = _worst(worst, abs(analyze_eavesdropping(pinned).total_fidelity - 1.0))
    return _result("fidelity-curve", worst, 1e-9)


def check_probability_completeness(depth: str, seed: int, corrupt: str | None) -> CheckResult:
    """Record probabilities sum to one for every scenario style."""
    rng = child_rng(seed, 7)
    worst = 0.0
    for dim in _dims(depth):
        bell = _corrupted_bell(dim) if corrupt == "bell" else make_bell_family(dim)
        for trial in range(3):
            config = make_scenario(
                dim,
                random_state(dim, rng),
                bell=bell,
                u0=random_unitary(dim, rng),
                effect_r=_random_effect(dim, rng, (trial + 1) % 3),
                effect_b=_random_effect(dim, rng, trial % 3),
            )
            total = float(_oracle(config)[0].sum())
            worst = _worst(worst, abs(total - 1.0))
    return _result("probability-completeness", worst, 1e-10)


def check_tap_oracle_agreement(depth: str, seed: int, corrupt: str | None) -> CheckResult:
    """Branch-operator probabilities match the oracle stream's exactly; every P(l, m) is Hermitian."""
    rng = child_rng(seed, 8)
    worst = 0.0
    for dim in _dims(depth):
        if corrupt == "measurement":
            family = _corrupted_measurement(dim)
        else:
            family = strength_family(dim, float(rng.uniform(0.0, 1.0)), random_unitary(dim, rng))
        bell = _corrupted_bell(dim) if corrupt == "bell" else make_bell_family(dim)
        config = make_scenario(
            dim, random_state(dim, rng), bell=bell, u0=random_unitary(dim, rng), effect_r=family
        )
        # both arrays run tap branch major
        tap = analyze_eavesdropping(config).probabilities
        worst = _worst(worst, np.max(np.abs(tap - _oracle(config)[0])))
        for _, ops in tap_operators(config):
            worst = _worst(worst, np.max(np.abs(ops - ops.conj().transpose(0, 2, 1))))
    return _result("tap-oracle-agreement", worst, 1e-9)


CHECKS = (
    check_bell_completeness,
    check_measurement_completeness,
    check_ideal_teleportation,
    check_oracle_fast_equivalence,
    check_decomposition_identity,
    check_sequential_decomposition,
    check_marginal_laws,
    check_fidelity_curve,
    check_probability_completeness,
    check_tap_oracle_agreement,
)


def run_verification(
    depth: str = "quick",
    seed: int = 0,
    corrupt: str | None = None,
) -> VerificationReport:
    """Run every check at the requested depth and collect the results."""
    if depth not in ("quick", "full"):
        raise ValueError(f"depth must be 'quick' or 'full', got {depth!r}")
    if corrupt not in (None, "bell", "measurement"):
        raise ValueError(f"corrupt must be None, 'bell' or 'measurement', got {corrupt!r}")
    results = [check(depth, seed, corrupt) for check in CHECKS]
    return VerificationReport(depth=depth, results=tuple(results))
