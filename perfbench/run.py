"""teleportsim benchmark: end-to-end run metrics and traced per-layer spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see ``WORKLOADS``):

- ``teleport-n32-tap``: ``teleport`` at n = 32, Weyl family, identity u0,
  input ``random:K``, Fourier-basis tap at theta = 0.5.
- ``sweep-n16``: ``sweep`` at n = 16, input ``random:K``, computational
  tap, ``theta_sweep: [0, 1, 11]``, distinguishing basis:0 from basis:1.
- ``verify-full``: ``run_verification("full", seed)`` for seeds 4K .. 4K+3.

K is ``seed % POOL``: the seed picks one of ``POOL`` inputs whose outputs
were recorded on the seed commit under ``reference/`` (see
``record_reference.py``).  Every sample is a fresh interpreter running
``child.py``, one at a time, and its output is compared with the reference
token by token: text exactly, numbers within ``RUN_TOL``.  A sample fails
on a non-zero exit, a violated invariant, a failing verify report or an
output mismatch.

With ``--trace 0`` samples run untraced for ``--seconds`` (the last one
may run over; at least ``Workload.min_samples``) and the result holds the
medians of the end-to-end metrics.  With ``--trace 1`` the first half of
the time runs untraced samples, the rest traced ones, and the result holds
the per-layer metrics plus the tracing overhead (traced minus untraced
median wall time).  The lines before the last one report the environment, the
known-defect probe, every metric with its sample count and every span.
CPU pinning and frequency control are not used.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import lzma
import os
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "teleportsim")
WORKDIR = os.path.join(HERE, ".work")
REFERENCE = os.path.join(HERE, "reference")

POOL = 16
VERIFY_SEEDS_PER_SAMPLE = 4
RUN_TOL = 1e-10
# no sample starts once START_LIMIT_S of the invocation has passed, and a
# sample still running at DEADLINE_S is killed and counted as failed, so
# the invocation ends within its 180 s limit even on a slow machine
START_LIMIT_S = 110.0
DEADLINE_S = 165.0


@dataclass(frozen=True)
class Workload:
    kind: str  # teleport | sweep | verify
    template: str  # config text with a {k} placeholder; unused for verify
    # untraced samples a run takes even past --seconds: one n = 32 teleport
    # sample takes about 17 s, and a steady median needs three
    min_samples: int = 2

    def items(self, text: str) -> int:
        """Work done: a record on teleport, a theta point on sweep, a check on verify."""
        lines = text.splitlines()
        if self.kind == "teleport":
            return sum(line.startswith("outcome,") for line in lines)
        if self.kind == "sweep":
            return len(lines) - 1
        return sum(line.startswith(("PASS ", "FAIL ")) for line in lines)


WORKLOADS = {
    "teleport-n32-tap": Workload(
        "teleport",
        "n: 32\ninput: random:{k}\nu0: identity\nbell: weyl\n"
        "eavesdrop:\n  basis: fourier\n  theta: 0.5\n",
        min_samples=3,
    ),
    "sweep-n16": Workload(
        "sweep",
        "n: 16\ninput: random:{k}\nu0: identity\nbell: weyl\n"
        "eavesdrop:\n  basis: computational\n  theta_sweep: [0, 1, 11]\n"
        "distinguish:\n  - basis:0\n  - basis:1\n",
    ),
    "verify-full": Workload("verify", ""),
}

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("run_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# spans reached on every workload report calls and self time; the others
# report calls only, since their self time is 0 wherever they are not reached
TIMED_SPANS = (
    "bell.make_bell_family",
    "bell.bell_outcome_state",
    "effects.strength_family",
    "engine.make_scenario",
    "engine.run_oracle",
    "eavesdrop.analyze_eavesdropping",
    "io.write",
)
COUNTED_SPANS = (
    "config.load_config",
    "runner.run_teleport",
    "runner.run_sweep",
    "runner.build_scenario",
    "engine.fast_run",
    "eavesdrop.distinguishability",
    "verify.run_verification",
    "verify.check_bell_completeness",
    "verify.check_measurement_completeness",
    "verify.check_ideal_teleportation",
    "verify.check_oracle_fast_equivalence",
    "verify.check_decomposition_identity",
    "verify.check_sequential_decomposition",
    "verify.check_marginal_laws",
    "verify.check_fidelity_curve",
    "verify.check_probability_completeness",
    "verify.check_tap_oracle_agreement",
)
COUNTERS = ("engine.records", "engine.null_records", "eavesdrop.operators_built", "io.write.bytes")

NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def sample_argument(name: str, k: int) -> str:
    """The child's input for pool entry ``k``: a config written to WORKDIR, or the verify seeds."""
    workload = WORKLOADS[name]
    if workload.kind == "verify":
        return ",".join(str(VERIFY_SEEDS_PER_SAMPLE * k + i) for i in range(VERIFY_SEEDS_PER_SAMPLE))
    path = os.path.join(WORKDIR, f"{name}.yaml")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(workload.template.format(k=k))
    return path


def reference_path(name: str, k: int) -> str:
    suffix = ".txt" if WORKLOADS[name].kind == "verify" else ".csv"
    return os.path.join(REFERENCE, name, f"{k:02d}{suffix}.xz")


def outputs_match(output: str, reference: str) -> bool:
    """Same text between numbers, and every number within ``RUN_TOL``."""
    got, want = output.splitlines(), reference.splitlines()
    if len(got) != len(want):
        return False
    for line, ref_line in zip(got, want):
        if line == ref_line:
            continue
        parts, ref_parts = NUMBER.split(line), NUMBER.split(ref_line)
        if len(parts) != len(ref_parts):
            return False
        for i, (part, ref_part) in enumerate(zip(parts, ref_parts)):
            if i % 2 == 0:
                if part != ref_part:
                    return False
            elif abs(float(part) - float(ref_part)) > RUN_TOL:
                return False
    return True


def child_env() -> dict[str, str]:
    """Child environment: the checkout's package, BLAS threads capped at nproc."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        requested = env.get(key, "")
        threads = int(requested) if requested.isdigit() and int(requested) > 0 else nproc
        env[key] = str(min(threads, nproc))
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], env: dict[str, str], timeout_s: float = DEADLINE_S
              ) -> tuple[int, str, str, float]:
    """Run ``child.py`` with ``args``; returns exit code, stdout, stderr, wall seconds."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    try:
        out, err = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += f"\nsample killed after {timeout_s:.0f} s"
    return proc.returncode, out, err, time.perf_counter() - start


@dataclass
class Sample:
    traced: bool
    ok: bool
    wall_s: float
    identical: bool = False
    setup_s: float = 0.0
    run_s: float = 0.0
    items: int = 0
    peak_rss_mb: float = 0.0
    trace: dict | None = None


def take_sample(workload: Workload, config_arg: str, reference: str, traced: bool,
                index: int, env: dict[str, str], timeout_s: float) -> Sample:
    output = os.path.join(WORKDIR, f"output-{index}")
    spans = os.path.join(WORKDIR, f"spans-{index}.json")
    for stale in (output, spans):
        with contextlib.suppress(FileNotFoundError):
            os.remove(stale)
    args = [workload.kind, config_arg, output] + ([spans] if traced else [])
    code, out, err, wall = run_child(args, env, timeout_s)
    try:
        timing = json.loads(out.strip().splitlines()[-1])
        with open(output, "rb") as handle:
            data = handle.read()
    except (IndexError, ValueError, OSError):
        timing, data = None, b""
    text = data.decode("utf-8", errors="replace")
    matches = outputs_match(text, reference)
    ok = code == 0 and timing is not None and matches
    if not ok:
        reason = "output differs from the reference" if code == 0 and not matches else err.strip()[-400:]
        print(f"sample {index} failed: exit {code}; {reason}", file=sys.stderr)
    sample = Sample(traced=traced, ok=ok, wall_s=wall, identical=data == reference.encode("utf-8"))
    if timing is not None:
        sample.setup_s = timing["setup_s"]
        sample.run_s = timing["run_s"]
        sample.peak_rss_mb = timing["peak_rss_mb"]
        sample.items = workload.items(text)
    if traced and ok:
        from tracing import self_times

        with open(spans, encoding="utf-8") as handle:
            raw = json.load(handle)
        sample.trace = {"spans": self_times(raw), "counters": raw["counters"]}
    return sample


def summarize(values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    text = f"median {statistics.median(ordered):.6g}"
    for pct in (99, 95, 90, 75):
        if len(ordered) * (100 - pct) / 100 >= 10:
            rank = min(len(ordered) - 1, int(len(ordered) * pct / 100))
            return f"{text}, p{pct} {ordered[rank]:.6g}, n={len(ordered)}"
    return f"{text}, max {ordered[-1]:.6g}, n={len(ordered)} (too few for a percentile)"


def environment(probe: dict, env: dict[str, str]) -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unavailable (not a git checkout)"
    digest = hashlib.sha256()
    lines = 0
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as handle:
                data = handle.read()
            digest.update(name.encode() + b"\0" + data)
            lines += data.count(b"\n")
    caches = {}
    for level in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            caches[level] = subprocess.run(
                ["getconf", level], capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            caches[level] = "unknown"
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": probe["python"],
        "numpy": probe["numpy"],
        "blas": probe["blas"],
        "blas_threads_in_effect": probe["blas_threads"],
        "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches_bytes": caches,
        "cpu_pinning": "not used",
        "frequency_control": "not used",
        "samples": "one child process at a time",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no teleportsim package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    name, workload = args.workload, WORKLOADS[args.workload]
    k = args.seed % POOL
    with lzma.open(reference_path(name, k), "rt", encoding="utf-8", newline="") as handle:
        reference = handle.read()
    os.makedirs(WORKDIR, exist_ok=True)
    env = child_env()

    # the probe also imports the package once, so every timed sample finds
    # its bytecode already compiled, as an installed package would
    code, out, err, _ = run_child(["probe", WORKDIR], env)
    if code != 0:
        print(f"error: probe failed with exit {code}: {err.strip()[-400:]}", file=sys.stderr)
        return 1
    probe = json.loads(out.strip().splitlines()[-1])
    print("env: " + json.dumps(environment(probe, env), sort_keys=True))
    print("probe (known false alarm, exit 2 until it is fixed): "
          + json.dumps(probe["probe_exit_codes"], sort_keys=True))

    config_arg = sample_argument(name, k)

    samples: list[Sample] = []
    begin = time.perf_counter()

    def fill(until_s: float, traced: bool) -> None:
        count = 0
        while count < (1 if args.trace else workload.min_samples) or (
            time.perf_counter() - begin < until_s
        ):
            elapsed = time.perf_counter() - started
            if elapsed > START_LIMIT_S:
                break
            samples.append(take_sample(workload, config_arg, reference, traced, len(samples),
                                       env, DEADLINE_S - elapsed))
            count += 1

    if args.trace:
        fill(args.seconds / 2, traced=False)
        fill(args.seconds, traced=True)
    else:
        fill(args.seconds, traced=False)

    failed = sum(not s.ok for s in samples)
    timed = [s for s in samples if s.ok and not s.traced]
    traced = [s for s in samples if s.ok and s.traced]
    print("checks: " + json.dumps({
        "input_k": k,
        "attempted": len(samples),
        "failed": failed,
        "fail_ratio": failed / len(samples),
        "output_bytes_identical": sum(s.identical for s in samples),
    }))
    if not timed or (args.trace and not traced):
        print("error: no successful sample to report", file=sys.stderr)
        return 1

    end_to_end = {
        "wall_s": [s.wall_s for s in timed],
        "setup_s": [s.setup_s for s in timed],
        "run_s": [s.run_s for s in timed],
        "items_per_s": [s.items / s.run_s for s in timed],
        "peak_rss_mb": [s.peak_rss_mb for s in timed],
    }
    for metric, unit in END_TO_END:
        print(f"{metric} [{unit}]: {summarize(end_to_end[metric])}")
    if args.trace:
        metrics = layer_metrics(traced, statistics.median(end_to_end["wall_s"]))
    else:
        metrics = {
            metric: {"value": statistics.median(end_to_end[metric]), "unit": unit}
            for metric, unit in END_TO_END
        }
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_metrics(traced: list[Sample], untraced_wall_s: float) -> dict:
    """Per-layer medians over traced samples; prints every span's and layer's self time."""

    def median_of(get) -> float:
        return statistics.median(get(s.trace) for s in traced)

    def calls(name: str) -> float:
        return median_of(lambda t: t["spans"].get(name, (0, 0.0))[0])

    def self_s(name: str) -> float:
        return median_of(lambda t: t["spans"].get(name, (0, 0.0))[1])

    def layer_self_s(layer: str) -> float:
        return median_of(lambda t: sum(v[1] for n, v in t["spans"].items() if n.startswith(layer + ".")))

    names = sorted({n for s in traced for n in s.trace["spans"]}, key=self_s, reverse=True)
    print("spans, median over traced samples: name calls self_s")
    for name in names:
        print(f"  {name} {calls(name):g} {self_s(name):.6f}")
    layers = sorted({n.split(".")[0] for n in names})
    print("layer self time: " + ", ".join(f"{layer} {layer_self_s(layer):.6f} s" for layer in layers))

    metrics = {}
    for name in TIMED_SPANS + COUNTED_SPANS:
        metrics[f"{name}.calls"] = {"value": calls(name), "unit": "count"}
        if name in TIMED_SPANS:
            metrics[f"{name}.self_s"] = {"value": self_s(name), "unit": "s"}
    for counter in COUNTERS:
        metrics[counter] = {
            "value": median_of(lambda t: t["counters"].get(counter, 0)),
            "unit": "bytes" if counter == "io.write.bytes" else "count",
        }
    built = metrics["eavesdrop.operators_built"]["value"]
    cells = median_of(lambda t: t["counters"].get("eavesdrop.cells", 0))
    metrics["eavesdrop.operator_use"] = {"value": cells / built if built else 0.0, "unit": "ratio"}
    traced_wall_s = statistics.median(s.wall_s for s in traced)
    metrics["trace.wall_s"] = {"value": traced_wall_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall_s - untraced_wall_s, "unit": "s"}
    print(f"tracing overhead: traced wall {traced_wall_s:.6g} s - untraced median "
          f"{untraced_wall_s:.6g} s = {traced_wall_s - untraced_wall_s:.6g} s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
