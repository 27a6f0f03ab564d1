"""One sample of a benchmark workload, run by ``run.py`` in a fresh interpreter.

    python3 child.py teleport|sweep CONFIG OUTPUT [SPANS]
    python3 child.py verify SEED[,SEED...] OUTPUT [SPANS]
    python3 child.py probe WORKDIR

The sample calls the public functions ``teleportsim.cli.main`` calls, in
the same order: ``config.load_config`` and then ``runner.run_teleport`` or
``runner.run_sweep``; or ``verify.run_verification`` at full depth once per
seed.  Output goes to OUTPUT.  With SPANS the run is traced and its spans
are written there.  The last stdout line is a JSON object with
``setup_s`` (import plus config load), ``run_s`` (loaded spec to output
written) and ``peak_rss_mb``.  Exit codes follow the CLI: 2 for a violated
invariant or a failed verification.

``probe`` records the environment and the exit codes of the known false
alarm (a reference tap together with a receiver effect) at n = 2.
"""
import json
import os
import resource
import sys
import time

PROBE_CONFIGS = {
    "tap+unitary-receiver": (
        "n: 2\ninput: plus-uniform\neavesdrop:\n  theta: 0.5\n"
        "effect_b:\n  unitary: [[1, 0], [0, [0, 1]]]\n"
    ),
    "tap+kraus-receiver": (
        "n: 2\ninput: plus-uniform\neavesdrop:\n  theta: 0.5\n"
        "effect_b:\n  kraus:\n    - [[1, 0], [0, 0.8]]\n    - [[0, 0.6], [0, 0]]\n"
    ),
}


def sample(kind: str, source: str, output: str, spans_path: str | None) -> int:
    start = time.perf_counter()
    from teleportsim import config, runner, verify

    recorder = None
    if spans_path is not None:
        from tracing import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
    if kind != "verify":
        spec = config.load_config(source)
    loaded = time.perf_counter()
    status = 0
    with open(output, "w", encoding="utf-8", newline="") as handle:
        stream = recorder.stream(handle) if recorder is not None else handle
        try:
            if kind == "teleport":
                runner.run_teleport(spec, stream)
            elif kind == "sweep":
                runner.run_sweep(spec, stream)
            else:
                for seed in source.split(","):
                    report = verify.run_verification("full", seed=int(seed))
                    for line in report.lines():
                        stream.write(line + "\n")
                    if not report.passed:
                        status = 2
        except runner.InvariantViolation as exc:
            print(f"invariant violation: {exc}", file=sys.stderr)
            status = 2
    done = time.perf_counter()
    if recorder is not None:
        recorder.dump(spans_path)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"setup_s": loaded - start, "run_s": done - loaded,
                      "peak_rss_mb": peak_rss_mb}))
    return status


def probe(workdir: str) -> int:
    import ctypes
    import glob

    import numpy

    from teleportsim import cli

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    if libs:
        get_threads = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_", None)
        if get_threads is not None:
            get_threads.restype, get_threads.argtypes = ctypes.c_int, []
            threads = get_threads()
    exit_codes = {}
    for name, text in PROBE_CONFIGS.items():
        path = os.path.join(workdir, f"probe-{name}.yaml")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        out = os.path.join(workdir, f"probe-{name}.csv")
        exit_codes[name] = cli.main(["teleport", "--config", path, "--output", out])
    print(json.dumps({
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "probe_exit_codes": exit_codes,
    }))
    return 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[0] == "probe":
        sys.exit(probe(args[1]))
    sys.exit(sample(args[0], args[1], args[2], args[3] if len(args) > 3 else None))
