"""The benchmark's run workloads still write their recorded tables.

The configs are the benchmark harness's templates, copied here as
literals; the recorded CSVs under ``perfbench/reference/`` are only read.
Each run is held to the harness's rule: the same lines, the same text
between numbers, and every number within 1e-10 of the recorded one.
"""
from __future__ import annotations

import io
import lzma
from pathlib import Path

import pytest

from teleportsim.config import parse_config
from teleportsim.runner import run_sweep, run_teleport

from test_verify import same_up_to_roundoff

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"

TELEPORT_N32_TAP = (
    "n: 32\ninput: random:{k}\nu0: identity\nbell: weyl\n"
    "eavesdrop:\n  basis: fourier\n  theta: 0.5\n"
)
SWEEP_N16 = (
    "n: 16\ninput: random:{k}\nu0: identity\nbell: weyl\n"
    "eavesdrop:\n  basis: computational\n  theta_sweep: [0, 1, 11]\n"
    "distinguish:\n  - basis:0\n  - basis:1\n"
)


@pytest.mark.parametrize(
    "workload, template, run, k",
    [("sweep-n16", SWEEP_N16, run_sweep, k) for k in range(4)]
    + [("teleport-n32-tap", TELEPORT_N32_TAP, run_teleport, 1)],
    ids=[f"sweep-n16-{k}" for k in range(4)] + ["teleport-n32-tap-1"],
)
def test_run_matches_the_recorded_reference(workload, template, run, k):
    stream = io.StringIO()
    run(parse_config(template.format(k=k)), stream)
    lines = stream.getvalue().splitlines()
    reference = lzma.decompress((REFERENCE / workload / f"{k:02d}.csv.xz").read_bytes())
    reference = reference.decode("utf-8").splitlines()
    assert len(lines) == len(reference)
    for line, ref_line in zip(lines, reference):
        assert line == ref_line or same_up_to_roundoff(line, ref_line), (line, ref_line)
