"""Self-contained verification suite behind the ``verify`` CLI command.

Every check recomputes an identity two independent ways and yields its
deviations; one decorator, `_check`, judges them all the same way: the
worst deviation against the check's fixed tolerance.  A check that
raises a ``ValueError``, a route that lost a block among them, fails
with an infinite deviation and the error as its detail, and the other
checks still run.  Checks draw their random scenarios from per-check
seeded generators, so each check's result is independent of the others.
The ``corrupt`` argument deliberately injects a defective family; it
exists so tests can prove the suite actually bites.

Every check builds its families and random scenarios through three
helpers, the only code past `run_verification`'s argument check that
reads ``corrupt``.  `_bell` returns the Weyl family, one outcome short
under ``corrupt="bell"``.  `_tap` returns a strength tap, drawing its
strength and basis from the check's generator where asked; under
``corrupt="measurement"`` it returns one fixed family with a branch
scaled by 1.01 and draws nothing, so every later draw is the one an
intact run makes.  `_random_scenario` draws an input, ``u0`` and a
reference and receiver effect, in that order.

``corrupt="bell"`` trips bell-completeness, ideal-teleportation,
decomposition-identity and probability-completeness; ``"measurement"``
trips measurement-completeness, sequential-decomposition, marginal-laws
and fidelity-curve.  Neither trips the two route checks:
``oracle-fast-equivalence`` reads neither family, and
``tap-oracle-agreement`` compares two routes that read the same family
(a defective one too), whose ``P(l, m)`` stay Hermitian.

Every check that reads the oracle alone reads its stream, `oracle_blocks`,
reduced block by block by `reduce_stream` to ``(K, M)`` squared norms and
overlaps with the input's kets ``U(m)^-1 psi``; no check collects the
oracle into a table.  ``ideal-teleportation`` and
``probability-completeness`` read the oracle alone and hold it to exact
targets.  ``oracle-fast-equivalence`` and ``tap-oracle-agreement`` read
the one pass over both routes that the run drivers read, the one that
`teleportsim.engine.route_passes` yields over each check's scenario.
The pass returns every deviation between the routes, by name, in one
record, `RoutePass.deviations`, instead of raising: the first yields
the worst of each name (``amplitude`` and ``probability`` per branch,
``cell`` per tap cell, ``total-fidelity`` and ``probability-sum``, the
oracle's total against its closed form), the second the worst ``cell``
beside the Hermiticity of every ``P(l, m)``.  Verify judges
the deviations against its own tolerances and imports neither the run
drivers nor their config parser.
``decomposition-identity`` (no reference effect) and
``sequential-decomposition`` (strength taps) both read
`sequential_decomposition_check` and report the larger of its two
deviations.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .bell import BellFamily, completeness_deviation, make_bell_family, weyl_unitary
from .eavesdrop import (
    analyze_eavesdropping,
    expected_marginal_l,
    sequential_decomposition_check,
    tap_operators,
)
from .effects import (
    Effect,
    family_completeness_deviation,
    kraus_mixture,
    strength_family,
    unitary_effect,
)
from .engine import (
    ScenarioConfig,
    conditional_fidelities,
    make_scenario,
    oracle_blocks,
    oracle_bra,
    reduce_stream,
    route_passes,
)
# run_oracle and fast_run stay importable here: perfbench/tracing.py
# patches them by name, though every check reads the oracle through its
# stream and the transfer route through `route_passes`
from .engine import fast_run, run_oracle  # noqa: F401
from .linalg import apply_each_inverse, basis_state, uniform_state
from .sampling import child_rng, random_state, random_unitary


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check."""

    name: str
    max_deviation: float
    tolerance: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        # False for a NaN deviation
        return self.max_deviation <= self.tolerance


@dataclass(frozen=True)
class VerificationReport:
    """All check results for one run, in registry order."""

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
        failed = sum(not r.passed for r in self.results)
        total = len(self.results)
        out.append(f"CHECKS FAILED ({failed}/{total})" if failed else f"all checks passed ({total}/{total})")
        return out


def _check(name: str, tolerance: float):
    """Judge a check that yields its deviations: the worst of them against ``tolerance``.

    The judged check is a plain function of ``(depth, seed, corrupt)`` that
    runs the whole generator, so a tracer that wraps it times the check.
    Only a ``ValueError`` fails the check; any other exception is a defect
    of the check itself and propagates.
    """

    def judge(check: Callable[[str, int, str | None], Iterator[float]]) -> Callable[..., CheckResult]:
        @functools.wraps(check)
        def judged(depth: str, seed: int, corrupt: str | None) -> CheckResult:
            try:
                deviations = list(check(depth, seed, corrupt))
            except ValueError as exc:
                return CheckResult(name, float("inf"), tolerance, str(exc))
            # np.max keeps a NaN, where max(0.0, nan) would return 0.0
            return CheckResult(name, float(np.max([0.0, *deviations])), tolerance)

        return judged

    return judge


def _dims(depth: str) -> tuple[int, ...]:
    return (2, 3) if depth == "quick" else (2, 3, 4, 5)


def _oracle(config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """The oracle's ``(K, M)`` probabilities and fidelities with the input, from its stream."""
    psi = np.asarray(config.input_state)
    blocks = oracle_blocks(config, oracle_bra(config))
    probabilities, overlaps_sq = reduce_stream(blocks, apply_each_inverse(config.bell.unitaries, psi))
    return probabilities, conditional_fidelities(overlaps_sq, probabilities)


def _bell(dim: int, corrupt: str | None) -> BellFamily:
    """The Weyl family, one outcome short under ``corrupt="bell"``."""
    family = make_bell_family(dim)
    if corrupt != "bell":
        return family
    # drop the last outcome without re-running the admission check
    return BellFamily(dim, family.labels[:-1], family.unitaries[:-1], family.weights[:-1])


def _tap(dim: int, corrupt: str | None, theta: float | None = None,
         rng: np.random.Generator | None = None) -> Effect:
    """A strength tap: ``theta`` drawn from ``rng`` if None, the basis drawn if ``rng`` is given.

    Under ``corrupt="measurement"`` it is a fixed family with one branch
    scaled past closure, and nothing is drawn from ``rng``.
    """
    if corrupt == "measurement":
        # scale one branch of an admitted family without re-running admission
        intact = strength_family(dim, 0.6)
        operators = np.array(intact.operators)
        operators[0] *= 1.01
        operators.setflags(write=False)
        return Effect(intact.labels, operators)
    if theta is None:
        theta = float(rng.uniform(0.0, 1.0))
    return strength_family(dim, theta, None if rng is None else random_unitary(dim, rng))


@_check("bell-completeness", 1e-9)
def check_bell_completeness(depth: str, seed: int, corrupt: str | None) -> Iterator[float]:
    """Outcome families resolve the identity on A x R."""
    for dim in _dims(depth):
        yield completeness_deviation(_bell(dim, corrupt))
    # weighted family: every Weyl outcome twice at half weight
    doubled = [
        ((a, b, copy), weyl_unitary(3, a, b), 0.5)
        for a in range(3)
        for b in range(3)
        for copy in (0, 1)
    ]
    yield completeness_deviation(make_bell_family(3, doubled))


@_check("measurement-completeness", 1e-9)
def check_measurement_completeness(depth: str, seed: int, corrupt: str | None) -> Iterator[float]:
    """Tap branch squares resolve the identity for every strength."""
    rng = child_rng(seed, 1)
    for dim in _dims(depth):
        for theta in (0.0, 0.3, 0.7, 1.0):
            yield family_completeness_deviation(_tap(dim, corrupt, theta, rng))


@_check("ideal-teleportation", 1e-10)
def check_ideal_teleportation(depth: str, seed: int, corrupt: str | None) -> Iterator[float]:
    """Undisturbed protocol returns the input exactly, each outcome at w/dim^2."""
    rng = child_rng(seed, 2)
    count = 6 if depth == "quick" else 20
    for dim in _dims(depth):
        bell = _bell(dim, corrupt)
        for _ in range(count):
            config = make_scenario(
                dim, random_state(dim, rng), bell=bell, u0=random_unitary(dim, rng)
            )
            probabilities, fidelities = _oracle(config)
            yield np.max(np.abs(probabilities - 1.0 / dim**2))
            yield np.max(np.abs(fidelities - 1.0))
            yield abs(probabilities.sum() - 1.0)


def _random_effect(dim: int, rng: np.random.Generator, style: int):
    if style == 0:
        return unitary_effect(random_unitary(dim, rng))
    if style == 1:
        return _tap(dim, None, rng=rng)
    # graded damping pair in a random basis: per-level rate gamma_k,
    # closure holds because (1 - gamma_k) + gamma_k = 1 levelwise
    basis = random_unitary(dim, rng)
    gamma = rng.uniform(0.1, 0.9) * (np.arange(dim) + 1) / dim
    phases = np.exp(2j * np.pi * np.arange(dim) / dim)
    k0 = basis @ np.diag(np.sqrt(1.0 - gamma)) @ basis.conj().T
    k1 = basis @ np.diag(np.sqrt(gamma) * phases) @ basis.conj().T
    return kraus_mixture([k0, k1])


def _random_scenario(dim: int, rng: np.random.Generator, styles: tuple[int, int],
                     bell: BellFamily | None = None) -> ScenarioConfig:
    """Random input, u0, reference and receiver effects of ``styles``, drawn in that order."""
    return make_scenario(
        dim,
        random_state(dim, rng),
        bell=bell,
        u0=random_unitary(dim, rng),
        effect_r=_random_effect(dim, rng, styles[0]),
        effect_b=_random_effect(dim, rng, styles[1]),
    )


@_check("oracle-fast-equivalence", 1e-9)
def check_oracle_fast_equivalence(depth: str, seed: int, corrupt: str | None) -> Iterator[float]:
    """Transfer operators reproduce the full-state oracle branch for branch."""
    rng = child_rng(seed, 3)
    count = 4 if depth == "quick" else 12
    for dim in _dims(depth):
        for trial in range(count):
            config = _random_scenario(dim, rng, (trial % 3, (trial + 1) % 3))
            measured = next(route_passes(config))
            yield from map(np.max, measured.deviations.values())


@_check("decomposition-identity", 1e-10)
def check_decomposition_identity(depth: str, seed: int, corrupt: str | None) -> Iterator[float]:
    """Unconditional pre-correction receiver state is maximally mixed, with no tap."""
    rng = child_rng(seed, 4)
    for dim in _dims(depth):
        bell = _bell(dim, corrupt)
        for _ in range(5):
            config = make_scenario(dim, random_state(dim, rng), bell=bell)
            report = sequential_decomposition_check(config)
            yield from (report.branch_deviation, report.grouped_deviation)


@_check("sequential-decomposition", 1e-9)
def check_sequential_decomposition(depth: str, seed: int, corrupt: str | None) -> Iterator[float]:
    """Tapped receiver state stays maximally mixed, branch and grouped form."""
    rng = child_rng(seed, 5)
    for dim in _dims(depth):
        for theta in (0.0, 0.4, 1.0):
            family = _tap(dim, corrupt, theta, rng)
            config = make_scenario(dim, random_state(dim, rng), u0=random_unitary(dim, rng), effect_r=family)
            report = sequential_decomposition_check(config)
            yield from (report.branch_deviation, report.grouped_deviation)


@_check("marginal-laws", 1e-10)
def check_marginal_laws(depth: str, seed: int, corrupt: str | None) -> Iterator[float]:
    """p(l) = tr(E^2)/dim and p(m) = w/dim^2, independent of the input."""
    rng = child_rng(seed, 6)
    count = 5 if depth == "quick" else 12
    for dim in _dims(depth):
        family = _tap(dim, corrupt, 0.55, rng)
        expected = expected_marginal_l(family)
        u0 = random_unitary(dim, rng)
        for _ in range(count):
            config = make_scenario(dim, random_state(dim, rng), u0=u0, effect_r=family)
            report = analyze_eavesdropping(config)
            p_l = report.probabilities.sum(axis=1)
            p_m = report.probabilities.sum(axis=0)
            yield np.max(np.abs(p_l - [expected[label] for label in report.tap_labels]))
            yield np.max(np.abs(p_m - config.bell.weights / dim**2))


@_check("fidelity-curve", 1e-9)
def check_fidelity_curve(depth: str, seed: int, corrupt: str | None) -> Iterator[float]:
    """Tap strength trades fidelity exactly as the closed form predicts.

    For a two-dimensional uniform input tapped in the computational basis
    the average fidelity is (1 + sqrt(1 - theta^2)) / 2; a tap-basis
    eigenstate keeps fidelity 1 at every strength.
    """
    thetas = np.linspace(0.0, 1.0, 6 if depth == "quick" else 11)
    for theta in thetas:
        family = _tap(2, corrupt, float(theta))
        plus = make_scenario(2, uniform_state(2), effect_r=family)
        report = analyze_eavesdropping(plus)
        closed = (1.0 + np.sqrt(max(0.0, 1.0 - float(theta) ** 2))) / 2.0
        yield abs(report.total_fidelity - closed)
        pinned = make_scenario(2, basis_state(2, 0), effect_r=family)
        yield abs(analyze_eavesdropping(pinned).total_fidelity - 1.0)


@_check("probability-completeness", 1e-10)
def check_probability_completeness(depth: str, seed: int, corrupt: str | None) -> Iterator[float]:
    """Record probabilities sum to one for every scenario style."""
    rng = child_rng(seed, 7)
    for dim in _dims(depth):
        bell = _bell(dim, corrupt)
        for trial in range(3):
            config = _random_scenario(dim, rng, ((trial + 1) % 3, trial % 3), bell)
            yield abs(float(_oracle(config)[0].sum()) - 1.0)


@_check("tap-oracle-agreement", 1e-9)
def check_tap_oracle_agreement(depth: str, seed: int, corrupt: str | None) -> Iterator[float]:
    """Branch-operator probabilities match the oracle stream's exactly; every P(l, m) is Hermitian."""
    rng = child_rng(seed, 8)
    for dim in _dims(depth):
        family = _tap(dim, corrupt, rng=rng)
        config = make_scenario(dim, random_state(dim, rng), bell=_bell(dim, corrupt),
                               u0=random_unitary(dim, rng), effect_r=family)
        measured = next(route_passes(config))
        yield np.max(measured.deviations["cell"])
        for _, ops in tap_operators(config):
            yield np.max(np.abs(ops - ops.conj().transpose(0, 2, 1)))


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
    return VerificationReport(tuple(results))
