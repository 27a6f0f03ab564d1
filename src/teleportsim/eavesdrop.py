"""Reference-line tap analysis: branch operators, probabilities, leakage.

A tap on the reference is any effect inserted between resource
preparation and the Bell measurement, a measurement family or any other
`teleportsim.effects.Effect`, each branch label one tap outcome.  Every
question about it reduces to the branch operators ``P(l, m)``, which act
on the input alone: they are the transfer operators of the tap, so every
quantity here is a reduction of `teleportsim.engine.transfer_kernel`
over the family's outcome stack.
A quantity of the tap alone hands the kernel the scenario's mirror stack,
`teleportsim.engine.ScenarioConfig.mirrors`, itself as its operator
stack, one operator per tap branch, so no receiver branch enters it.
The scenario builds the stack once, on its first read, and every
quantity here reads it from there; `distinguishability` takes it as a
value, so a sweep point's route pass and distinguishability share one.
`tap_operators` alone builds the ``P(l, m)`` as matrices, the kernel on
the basis, for verify's Hermiticity check and, on the family cut to one
outcome, for `eavesdrop_operator`.  `analyze_eavesdropping` is
`teleportsim.engine.tap_report` over `teleportsim.engine.fast_run`: the
reduction of either route's ``(K, M)`` branch arrays into the tap's
``(L, M)`` cells that each pass of `teleportsim.engine.route_passes`,
the one pass the run drivers and verify read, applies to both routes it
compares.  The
module also holds the one receiver-state check,
`sequential_decomposition_check`: no closed effect on the reference, tap
or not, moves the receiver's unconditional state off ``1/n``.  The
probabilities predicted here must agree with the oracle's
(`teleportsim.engine.oracle_blocks`); the run drivers and the
verification suite enforce that, and verify checks that every
``P(l, m)`` is Hermitian.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .bell import BellFamily, Label, find_outcome
from .effects import Effect
from .engine import (
    EavesdropReport,
    ScenarioConfig,
    fast_run,
    reduce_stream,
    tap_report,
    transfer_kernel,
    transfer_rows,
)
from .linalg import apply_each_inverse, dagger, norms_squared


@dataclass(frozen=True)
class DecompositionReport:
    """Deviations of the two receiver-state decompositions from ``1/dim``."""

    branch_deviation: float
    grouped_deviation: float


def tap_operators(config: ScenarioConfig) -> Iterator[tuple[int | str | None, np.ndarray]]:
    """Yield ``(l, ops)`` for each tap branch, with ``ops[m]`` the ``(n, n)`` ``P(l, m)``.

    The tap's kernel on the basis gives the columns of ``U(m)^-1 P(l, m)``
    for every outcome at once; ``U(m)`` is applied to the whole stack.
    """
    rows = transfer_rows(config, np.eye(config.dim))
    for l, columns in zip(config.effect_r.labels, transfer_kernel(rows, config.mirrors), strict=True):
        yield l, config.bell.unitaries @ columns.transpose(0, 2, 1)


def eavesdrop_operator(config: ScenarioConfig, l: int | str, m: Label) -> np.ndarray:
    """Branch operator ``P(l, m)``: `tap_operators` of the family cut to outcome ``m``."""
    bell = config.bell
    i = find_outcome(bell, m)
    cut = slice(i, i + 1)
    one = BellFamily(bell.dim, bell.labels[cut], bell.unitaries[cut], bell.weights[cut])
    for label, ops in tap_operators(replace(config, bell=one)):
        if label == l:
            return ops[0]
    raise ValueError(f"no reference branch labeled {l!r}")


def expected_marginal_l(effect: Effect) -> dict[int | str, float]:
    """Closed-form reference marginal ``tr(K(l)^+ K(l)) / dim``, for any input.

    For a tap's Hermitian branches ``E(l)`` this is ``tr(E(l)^2) / dim``.
    """
    return {
        label: float(np.trace(dagger(op) @ op).real) / effect.dim
        for label, op in zip(effect.labels, effect.operators)
    }


def analyze_eavesdropping(config: ScenarioConfig) -> EavesdropReport:
    """Build the full per-branch report for one tapped scenario: `tap_report` over `fast_run`."""
    psi = np.asarray(config.input_state)
    blocks = fast_run(config, transfer_rows(config, psi[None]))
    return tap_report(config, *reduce_stream(blocks, apply_each_inverse(config.bell.unitaries, psi)))


def sequential_decomposition_check(config: ScenarioConfig) -> DecompositionReport:
    """Deviation of both unconditional receiver-state decompositions from ``1/dim``.

    The branch form sums ``U(m)^-1 P |psi><psi| P^+ U(m)`` over every
    ``(l, m)``, read off `teleportsim.engine.transfer_kernel`; the grouped
    form first averages the Bell outcomes away and sandwiches ``1/dim``
    between the mirrored reference branches, ``sum_l M_l (1/dim) M_l^+``.
    Both must return the maximally mixed state whatever acts on the
    reference line, a tap, a Kraus mixture, a unitary or nothing, as long
    as it is closed and the Bell family complete; otherwise the reference
    would signal.  The receiver effect is not part of either form.
    """
    target = np.eye(config.dim) / config.dim
    mirrors = config.mirrors
    rows = transfer_rows(config, np.asarray(config.input_state)[None])
    branch_sum = sum(amps[:, 0].T @ amps[:, 0].conj() for amps in transfer_kernel(rows, mirrors))
    grouped_sum = sum(mirrored @ target @ dagger(mirrored) for mirrored in mirrors)
    return DecompositionReport(
        branch_deviation=float(np.max(np.abs(branch_sum - target))),
        grouped_deviation=float(np.max(np.abs(grouped_sum - target))),
    )


def distinguishability(rows: np.ndarray, mirrors: np.ndarray) -> float:
    """Leakage between two candidate inputs, as guessing advantage.

    ``rows`` is `teleportsim.engine.transfer_rows` of the ``(2, n)`` pair
    of inputs; it reads no effect, so a sweep builds it once for every
    tap strength; ``mirrors`` is the tapped scenario's mirror stack,
    `teleportsim.engine.ScenarioConfig.mirrors`.  The advantage over a
    fair coin when identifying which of two equiprobable inputs produced
    one joint ``(l, m)`` sample: half the total-variation distance
    between the probability tables of ``|P(l, m) psi|^2``.  A receiver
    effect closes over its branches and leaves these cell probabilities
    unchanged.
    """
    # row (l, m) holds the cell probability of each input, tap label major
    cells = np.concatenate([norms_squared(amps) for amps in transfer_kernel(rows, mirrors)])
    return 0.25 * float(np.sum(np.abs(cells[:, 0] - cells[:, 1])))
