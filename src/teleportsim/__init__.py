"""Finite-dimensional teleportation simulator.

Dense-matrix simulation of entanglement-assisted state transfer between
a sender, a reference and a receiver, with channel effects on either
line.  Supports qudit dimensions up to 32, tunable-strength taps on the
reference, and exact cross-validation between a full-state oracle and
per-outcome transfer operators.
"""
from .bell import (
    BellFamily,
    bell_outcome_state,
    clock_unitary,
    completeness_deviation,
    make_bell_family,
    mirror_operator,
    shift_unitary,
    weyl_unitary,
)
from .eavesdrop import (
    analyze_eavesdropping,
    distinguishability,
    eavesdrop_operator,
    sequential_decomposition_check,
)
from .effects import (
    Effect,
    MeasurementFamily,
    kraus_mixture,
    make_measurement_family,
    strength_family,
    unitary_effect,
)
from .engine import (
    BranchTable,
    EavesdropReport,
    ScenarioConfig,
    TeleportRecord,
    fast_run,
    make_scenario,
    mirror_stack,
    oracle_blocks,
    oracle_bra,
    run_oracle,
    transfer_rows,
)
from .linalg import (
    basis_state,
    dagger,
    uniform_state,
)
from .sampling import child_rng, random_state, random_unitary
from .verify import run_verification

__version__ = "0.1.0"

__all__ = [
    "BellFamily",
    "BranchTable",
    "EavesdropReport",
    "Effect",
    "MeasurementFamily",
    "ScenarioConfig",
    "TeleportRecord",
    "analyze_eavesdropping",
    "basis_state",
    "bell_outcome_state",
    "child_rng",
    "clock_unitary",
    "completeness_deviation",
    "dagger",
    "distinguishability",
    "eavesdrop_operator",
    "fast_run",
    "kraus_mixture",
    "make_bell_family",
    "make_measurement_family",
    "make_scenario",
    "mirror_operator",
    "mirror_stack",
    "oracle_blocks",
    "oracle_bra",
    "random_state",
    "random_unitary",
    "run_oracle",
    "run_verification",
    "sequential_decomposition_check",
    "shift_unitary",
    "strength_family",
    "transfer_rows",
    "uniform_state",
    "unitary_effect",
    "weyl_unitary",
]
