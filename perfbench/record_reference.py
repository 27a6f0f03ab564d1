"""Record the reference outputs the benchmark compares every sample with.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs one untraced sample per pool input K = 0 .. POOL-1 and stores its
output, xz-compressed, as ``reference/<workload>/<K>.<csv|txt>.xz``.  The
references were recorded on the commit that introduced the benchmark;
re-record them only for a deliberate, reviewed change of the outputs.
"""
from __future__ import annotations

import lzma
import os
import sys

from run import POOL, WORKDIR, WORKLOADS, child_env, reference_path, run_child, sample_argument


def main(names: list[str]) -> int:
    os.makedirs(WORKDIR, exist_ok=True)
    env = child_env()
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        os.makedirs(os.path.dirname(reference_path(name, 0)), exist_ok=True)
        for k in range(POOL):
            output = os.path.join(WORKDIR, "reference-output")
            code, _, err, wall = run_child([workload.kind, sample_argument(name, k), output], env)
            if code != 0:
                print(f"{name} K={k}: exit {code}: {err.strip()}", file=sys.stderr)
                return 1
            with open(output, "rb") as handle:
                data = handle.read()
            with lzma.open(reference_path(name, k), "wb", preset=9) as handle:
                handle.write(data)
            print(f"{name} K={k}: {len(data)} bytes in {wall:.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
