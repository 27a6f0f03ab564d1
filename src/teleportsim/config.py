"""Run specification parsing for the command line tools.

Configs are YAML documents (plain JSON is valid YAML and works too).
Complex entries are written as ``[re, im]`` pairs; bare numbers are taken
as real.  Every amplitude list comes out a unit state: it is divided by
its norm, with a note on stderr (or, under ``strict``, an error) when
its norm^2 is off 1 by more than `NORM_WARN_TOL`; the notes are printed
once the whole spec has parsed, so a rejected spec prints only its
error.  Parsing is fail-fast.  The document is first checked as
written, before any ``<<`` merge: a mapping key must be a scalar, no
key may repeat within one mapping and every integer must be short
enough for Python to read, and a fault inside a merge source is named
by its ``<<`` path; a document nested past the interpreter's recursion
limit, or with a flow collection nested past `MAX_FLOW_DEPTH`, fails as
a whole.  Then
every family, basis and state is built and validated here, and the
parser ends by assembling the run's tap-free scenario with
`teleportsim.engine.make_scenario`, whose `ScenarioConfig` checks every
part once more, so a spec that parses cleanly cannot blow up later in
the run.  Errors carry the offending field path.
"""
from __future__ import annotations

import cmath
import math
import re
import sys
from dataclasses import dataclass

import numpy as np
import yaml

from .bell import BellFamily, make_bell_family
from .effects import Effect, kraus_mixture, unitary_effect
from .engine import ScenarioConfig, make_scenario
from .linalg import as_complex_matrix, basis_state, frozen_complex_array, is_unitary, uniform_state
from .sampling import random_state

NORM_WARN_TOL = 1e-9

# largest theta_sweep step count: a grid of 0.001 over the whole [0, 1]
MAX_SWEEP_STEPS = 1001

# deepest flow nesting ("[" or "{") the scanner reads: PyYAML's pure-Python
# scanner rescans every pending "[" of a line for each token, so a deeper
# one-line nesting would cost time quadratic in its depth before the
# composer ran out of recursion
MAX_FLOW_DEPTH = 512


class ConfigError(ValueError):
    """Invalid run specification; the message names the field."""


class _ConfigLoader(yaml.SafeLoader):
    """Safe loader that also reads YAML 1.2 floats such as ``1e-09``.

    The YAML 1.1 resolver wants a mantissa dot and a signed exponent, so it
    would leave ``1e-09`` or ``1.5e5`` a string.  Quoted scalars stay strings.
    Before anything is constructed, the document as written is checked in
    one walk: the first non-scalar mapping key, key repeated within one
    mapping or integer too long for Python to read, in document order,
    fails with its field path.  The walk runs before any ``<<`` merge, so
    a fault inside a merge source is named by its ``<<`` path.  The
    scanner refuses a flow collection nested past `MAX_FLOW_DEPTH` as it
    reads it.
    """

    def fetch_flow_collection_start(self, TokenClass: type) -> None:
        if self.flow_level >= MAX_FLOW_DEPTH:
            raise ConfigError("document: nested too deeply to read")
        super().fetch_flow_collection_start(TokenClass)

    def construct_document(self, node: yaml.Node) -> object:
        self._check(node, "", set())
        return super().construct_document(node)

    def _check(self, node: yaml.Node, path: str, visited: set[yaml.Node]) -> None:
        # a node an alias reaches again keeps the path it was first reached by
        if node in visited:
            return
        visited.add(node)
        if isinstance(node, yaml.SequenceNode):
            for i, item in enumerate(node.value):
                self._check(item, f"{path}[{i}]", visited)
        elif isinstance(node, yaml.MappingNode):
            seen = set()
            for key, value in node.value:
                if not isinstance(key, yaml.ScalarNode):
                    raise ConfigError(
                        f"{path or 'document'}: mapping key must be a scalar, got a {key.id} {_position(key)}"
                    )
                field = f"{path}.{key.value}" if path else key.value
                # << may repeat: each merge brings its keys in
                if key.tag != "tag:yaml.org,2002:merge":
                    if (key.tag, key.value) in seen:
                        raise ConfigError(f"{field}: repeated key {_position(key)}")
                    seen.add((key.tag, key.value))
                self._check(key, path, visited)
                self._check(value, field, visited)
        elif node.tag == "tag:yaml.org,2002:int":
            # Python refuses to read an integer of more than
            # sys.get_int_max_str_digits() digits
            try:
                self.construct_yaml_int(node)
            except ValueError:
                raise ConfigError(
                    f"{path or 'document'}: integer of {len(node.value)} characters "
                    f"is too long to read {_position(node)}"
                ) from None


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
    list("-+0123456789."),
)


def _position(node: yaml.Node) -> str:
    mark = node.start_mark
    return f"(line {mark.line + 1}, column {mark.column + 1})"


@dataclass(frozen=True, eq=False)
class EavesdropSpec:
    """Tap settings: measurement basis plus one strength or a sweep grid."""

    basis: np.ndarray
    theta: float | None
    sweep: tuple[float, float, int] | None


@dataclass(frozen=True, eq=False)
class RunSpec:
    """Everything one CLI invocation needs, fully validated.

    ``scenario`` is the run's scenario without a tap: the input, Bell
    family, ``u0`` and receiver effect, assembled by `make_scenario`.
    ``eavesdrop`` holds the tap settings the run drivers add to it.
    """

    scenario: ScenarioConfig
    input_label: str
    eavesdrop: EavesdropSpec | None
    distinguish: tuple[tuple[str, np.ndarray], tuple[str, np.ndarray]]
    output_path: str | None


def parse_config(text: str, strict: bool = False) -> RunSpec:
    """Parse and validate a YAML/JSON run specification.

    The YAML composer recurses once per level of nesting, so a document
    nested past the interpreter's recursion limit fails as one
    `ConfigError` that names the nesting, whichever step ran out; the
    scanner refuses a flow collection nested past `MAX_FLOW_DEPTH` with
    the same error before the composer recurses that deep.
    """
    try:
        return _parse_config(text, strict)
    except RecursionError:
        raise ConfigError("document: nested too deeply to read") from None


def _parse_config(text: str, strict: bool) -> RunSpec:
    try:
        raw = yaml.load(text, Loader=_ConfigLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"document: not valid YAML/JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"document: expected a mapping, got {type(raw).__name__}")
    known = {"n", "u0", "bell", "input", "eavesdrop", "effect_b", "distinguish", "output"}
    for key in raw:
        if key not in known:
            raise ConfigError(f"{key}: unknown field (expected one of {sorted(known)})")

    n = _require_int(raw, "n", minimum=2)
    if n > 32:
        raise ConfigError(f"n: dimension {n} exceeds the supported maximum of 32")

    identity = {"identity": np.eye(n, dtype=complex)}
    u0 = _parse_unitary(raw.get("u0", "identity"), "u0", n, identity, "matrix is not unitary")

    bell = _parse_bell(raw.get("bell", "weyl"), n)

    if "input" not in raw:
        raise ConfigError("input: field is required")
    notes: list[str] = []
    input_label, input_state = _parse_state(raw["input"], "input", n, strict, notes)

    eavesdrop = _parse_eavesdrop(raw.get("eavesdrop"), n)
    effect_b = _parse_effect_b(raw.get("effect_b"), n)
    distinguish = _parse_distinguish(raw.get("distinguish"), n, strict, notes)

    output_path = raw.get("output")
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError(f"output: expected a path string, got {type(output_path).__name__}")
    if output_path == "":
        raise ConfigError("output: expected a non-empty path string")

    spec = RunSpec(
        scenario=make_scenario(n, input_state, bell=bell, u0=u0, effect_b=effect_b),
        input_label=input_label,
        eavesdrop=eavesdrop,
        distinguish=distinguish,
        output_path=output_path,
    )
    for note in notes:
        print(note, file=sys.stderr)
    return spec


def load_config(path: str, strict: bool = False) -> RunSpec:
    """Read and parse a config file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read(), strict=strict)


def _require_int(raw: dict, key: str, minimum: int) -> int:
    if key not in raw:
        raise ConfigError(f"{key}: field is required")
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{key}: must be at least {minimum}, got {value}")
    return value


def _number(value: object, path: str) -> float:
    """A YAML number as a float; an integer too large for one reads as infinite.

    Range and finiteness are left to the caller, which names the field in
    its own terms and rejects infinity with every out-of-range value.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _parse_complex(value: object, path: str) -> complex:
    parts = value if isinstance(value, list) and len(value) == 2 else [value, 0.0]
    try:
        number = complex(*(_number(part, path) for part in parts))
    except ConfigError:
        raise ConfigError(f"{path}: expected a number or [re, im] pair, got {value!r}") from None
    if not cmath.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return number


def _parse_matrix(value: object, path: str, n: int) -> np.ndarray:
    if not isinstance(value, list) or len(value) != n:
        raise ConfigError(f"{path}: expected {n} rows")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != n:
            raise ConfigError(f"{path}[{i}]: expected {n} entries")
        rows.append([_parse_complex(entry, f"{path}[{i}][{j}]") for j, entry in enumerate(row)])
    return as_complex_matrix(rows)


def _parse_state(value: object, path: str, n: int, strict: bool, notes: list[str]) -> tuple[str, np.ndarray]:
    if isinstance(value, str):
        if value == "plus-uniform":
            return value, uniform_state(n)
        if value.startswith("basis:"):
            try:
                index = int(value.split(":", 1)[1])
            except ValueError:
                raise ConfigError(f"{path}: malformed basis index in {value!r}") from None
            if not 0 <= index < n:
                raise ConfigError(f"{path}: basis index {index} out of range for n={n}")
            return value, basis_state(n, index)
        if value.startswith("random:"):
            try:
                state_seed = int(value.split(":", 1)[1])
            except ValueError:
                raise ConfigError(f"{path}: malformed seed in {value!r}") from None
            if state_seed < 0:
                raise ConfigError(f"{path}: seed must be non-negative, got {state_seed}")
            return value, random_state(n, np.random.default_rng(state_seed))
        raise ConfigError(
            f"{path}: unknown state name {value!r} "
            "(expected 'plus-uniform', 'basis:K', 'random:SEED' or an amplitude list)"
        )
    if isinstance(value, list):
        if len(value) != n:
            raise ConfigError(f"{path}: expected {n} amplitudes, got {len(value)}")
        amps = np.array(
            [_parse_complex(entry, f"{path}[{i}]") for i, entry in enumerate(value)]
        )
        scale = float(np.max(np.abs(amps.view(float))))  # the largest real or imaginary part
        if scale == 0.0:
            raise ConfigError(f"{path}: amplitudes are all zero")
        norm_sq = float(np.vdot(amps, amps).real)
        far = abs(norm_sq - 1.0) > NORM_WARN_TOL
        shown = f"{norm_sq:.6g}"
        if not sys.float_info.min <= norm_sq < math.inf:
            from decimal import Context, Decimal  # here: 0.3 MB no other run needs to load
            # scaled exactly by 2**-exponent, the largest part lies in [1/2, 1) and
            # norm^2 in [1/4, 2n), even for a subnormal scale, whose reciprocal
            # overflows; Decimal shows the unscaled norm^2
            exponent = math.frexp(scale)[1]
            amps = np.ldexp(amps.view(float), -exponent).view(complex)
            norm_sq = float(np.vdot(amps, amps).real)
            shown = f"{Context(prec=6).normalize(Decimal(2) ** (2 * exponent) * Decimal(norm_sq)):g}"
        if far:
            if strict:
                raise ConfigError(f"{path}: state norm^2 is {shown}, not 1 (strict mode rejects this)")
            notes.append(f"note: normalizing {path} (norm^2 was {shown})")
        # every list is divided, within the tolerance silently; the division
        # is exact where the root rounds to 1.0.  Dividing the float view
        # rounds each part once; a complex division by a real does not
        return "explicit", (amps.view(float) / np.sqrt(norm_sq)).view(complex)
    raise ConfigError(f"{path}: expected a state name or amplitude list, got {value!r}")


def _parse_bell(value: object, n: int) -> BellFamily:
    if value == "weyl":
        return make_bell_family(n)
    if not isinstance(value, list):
        raise ConfigError("bell: expected 'weyl' or a list of outcomes")
    outcomes = []
    for i, item in enumerate(value):
        if not isinstance(item, dict) or "unitary" not in item:
            raise ConfigError(f"bell[{i}]: expected a mapping with 'unitary' (and optional 'weight')")
        extra = set(item) - {"unitary", "weight"}
        if extra:
            raise ConfigError(f"bell[{i}]: unknown fields {sorted(extra)}")
        unitary = _parse_matrix(item["unitary"], f"bell[{i}].unitary", n)
        raw_weight = item.get("weight", 1.0)
        weight = _number(raw_weight, f"bell[{i}].weight")
        if not 0 < weight < math.inf:
            raise ConfigError(f"bell[{i}].weight: expected a positive number, got {raw_weight!r}")
        outcomes.append((i, unitary, weight))
    try:
        return make_bell_family(n, outcomes)
    except ValueError as exc:
        raise ConfigError(f"bell: {exc}") from exc


def _parse_unitary(value: object, path: str, n: int, named: dict[str, np.ndarray], defect: str) -> np.ndarray:
    """An ``n x n`` unitary: one of the ``named`` matrices by its name, or written out."""
    if isinstance(value, str) and value in named:
        return named[value]
    if not isinstance(value, list):
        names = ", ".join(map(repr, named))
        raise ConfigError(f"{path}: expected {names} or a {n} x {n} unitary matrix, got {value!r}")
    matrix = _parse_matrix(value, path, n)
    if not is_unitary(matrix):
        raise ConfigError(f"{path}: {defect}")
    return matrix


def _parse_eavesdrop(value: object, n: int) -> EavesdropSpec | None:
    if value is None:
        return None
    if not isinstance(value, dict):
        raise ConfigError("eavesdrop: expected a mapping")
    extra = set(value) - {"basis", "theta", "theta_sweep"}
    if extra:
        raise ConfigError(f"eavesdrop: unknown fields {sorted(extra)}")
    jk = np.outer(np.arange(n), np.arange(n))
    named = {"computational": np.eye(n, dtype=complex), "fourier": np.exp(2j * np.pi * jk / n) / np.sqrt(n)}
    # an empty basis field is the computational basis
    raw_basis = "computational" if value.get("basis") is None else value["basis"]
    basis = _parse_unitary(raw_basis, "eavesdrop.basis", n, named, "columns do not form a unitary matrix")
    has_theta = "theta" in value
    has_sweep = "theta_sweep" in value
    if has_theta == has_sweep:
        raise ConfigError("eavesdrop: exactly one of 'theta' or 'theta_sweep' is required")
    if has_theta:
        theta = _number(value["theta"], "eavesdrop.theta")
        if not 0.0 <= theta <= 1.0:
            raise ConfigError(f"eavesdrop.theta: must lie in [0, 1], got {value['theta']}")
        return EavesdropSpec(basis=frozen_complex_array(basis), theta=theta, sweep=None)
    sweep = value["theta_sweep"]
    if (
        not isinstance(sweep, list)
        or len(sweep) != 3
        or isinstance(sweep[2], bool)
        or not isinstance(sweep[2], int)
    ):
        raise ConfigError("eavesdrop.theta_sweep: expected [start, stop, steps]")
    start, stop = (_number(x, "eavesdrop.theta_sweep") for x in sweep[:2])
    steps = sweep[2]
    if not (0.0 <= start <= 1.0 and 0.0 <= stop <= 1.0):
        raise ConfigError("eavesdrop.theta_sweep: start and stop must lie in [0, 1]")
    if steps < 2:
        raise ConfigError(f"eavesdrop.theta_sweep: need at least 2 steps, got {steps}")
    if steps > MAX_SWEEP_STEPS:
        raise ConfigError(
            f"eavesdrop.theta_sweep: at most {MAX_SWEEP_STEPS} steps, got {steps}"
        )
    return EavesdropSpec(basis=frozen_complex_array(basis), theta=None, sweep=(start, stop, steps))


def _parse_effect_b(value: object, n: int) -> Effect | None:
    if value is None:
        return None
    if not isinstance(value, dict):
        raise ConfigError("effect_b: expected a mapping with 'unitary' or 'kraus'")
    extra = set(value) - {"unitary", "kraus"}
    if extra:
        raise ConfigError(f"effect_b: unknown fields {sorted(extra)}")
    if ("unitary" in value) == ("kraus" in value):
        raise ConfigError("effect_b: exactly one of 'unitary' or 'kraus' is required")
    if "unitary" in value:
        matrix = _parse_matrix(value["unitary"], "effect_b.unitary", n)
        try:
            return unitary_effect(matrix)
        except ValueError as exc:
            raise ConfigError(f"effect_b.unitary: {exc}") from exc
    kraus_raw = value["kraus"]
    if not isinstance(kraus_raw, list) or not kraus_raw:
        raise ConfigError("effect_b.kraus: expected a non-empty list of matrices")
    mats = [
        _parse_matrix(item, f"effect_b.kraus[{i}]", n) for i, item in enumerate(kraus_raw)
    ]
    try:
        return kraus_mixture(mats)
    except ValueError as exc:
        raise ConfigError(f"effect_b.kraus: {exc}") from exc


def _parse_distinguish(
    value: object, n: int, strict: bool, notes: list[str]
) -> tuple[tuple[str, np.ndarray], tuple[str, np.ndarray]]:
    if value is None:
        value = ["basis:0", "basis:1"]
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError("distinguish: expected a list of exactly two input states")
    parsed = []
    for i, item in enumerate(value):
        label, state = _parse_state(item, f"distinguish[{i}]", n, strict, notes)
        parsed.append((label, frozen_complex_array(state)))
    return (parsed[0], parsed[1])
