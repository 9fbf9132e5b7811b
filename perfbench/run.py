"""Benchmark of the cardlab package: one workload per call.

    python3 perfbench/run.py --workload {label,train,serve} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. The package is imported from `src/` of the
same checkout. Set-up is repeated SETUP_REPEATS times and its median is
reported. The timed part runs its operations in ROUNDS rounds spread over
`--seconds` of wall time and keeps each operation's fastest round; times
are CPU seconds of the process (see `spans.clock`). Then the outputs are
checked.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` the rounds run for half the time
untraced, then the same operations run again with a span around every call
into a package module, and the last line carries the per-layer metrics,
among them the tracing overhead. Each run also writes a record (machine,
metrics with sample counts, output digests, failures) to
`perfbench/results/`. See `perfbench/README.md`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
DIGESTS = HERE / "digests.json"

SETUP_REPEATS = 3
ROUNDS = 10  # each op runs once per round; its fastest round counts
MIN_OPS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("label", "train", "serve"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def steady_allocator():
    """Keep memory that numpy frees in glibc's heap instead of handing it
    back to the kernel. With glibc's default policy every 200k-row
    temporary of `label` was mapped fresh and faulted in page by page: a
    100-query pass took 30k to 107k page faults, its count drifting within
    one process, and its time in system mode doubled the pass time at the
    worst. Returns the settings, or None where mallopt is not available."""
    import ctypes
    import ctypes.util

    mallopt = getattr(ctypes.CDLL(ctypes.util.find_library("c")), "mallopt", None)
    if mallopt is None:
        return None
    settings = {"M_MMAP_THRESHOLD": (-3, 32 << 20), "M_TRIM_THRESHOLD": (-1, 1 << 30)}
    if not all(mallopt(param, value) for param, value in settings.values()):
        return None
    return {name: value for name, (_, value) in settings.items()}


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def machine_record(seed, malloc):
    import hashlib

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cardlab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "platform": platform.platform(),
        "malloc": malloc,
        "seed": seed,
    }


def run_op(op, p, r, check):
    """Time of op p in round r; inf when it raises, which counts as failed."""
    try:
        elapsed, items = op(p, r, check)
    except Exception as exc:  # a failing operation is counted, not fatal
        check(False, f"op {p} round {r} raised {exc!r}")
        return math.inf
    check.attempted += items
    return elapsed


def timed_rounds(op, budget, check, ops=None):
    """Round 0 runs op(0), op(1), ... until a ROUNDS-th of `budget` seconds
    of wall time has passed (or exactly `ops` ops); ROUNDS - 1 further
    rounds rerun the same ops. Returns each op's fastest time."""
    first = []
    start = time.perf_counter()

    def more():
        if ops is not None:
            return len(first) < ops
        spent = time.perf_counter() - start
        return spent < budget / ROUNDS or len(first) < MIN_OPS

    while more() and first.count(math.inf) < MIN_OPS:
        first.append(run_op(op, len(first), 0, check))
    rounds = [first] + [
        [run_op(op, p, r, check) for p in range(len(first))] for r in range(1, ROUNDS)
    ]
    return [min(times) for times in zip(*rounds)]


def run(args):
    import workloads
    from spans import NoTracer, Tracer, clock, median

    cls = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else NoTracer()
    check = workloads.Checks()
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            w = cls(args.seed, Path(tmp))
            t0 = clock()
            w.setup(tracer)
            setup_s.append(clock() - t0)

        budget = args.seconds / 2 if args.trace else args.seconds
        op_s = timed_rounds(w.op, budget, check)
        # Before the output checks, whose brute-force joins would set it.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        overhead = None
        if args.trace:
            traced = lambda p, r, check: w.traced_op(p, r, tracer, check)  # noqa: E731
            traced_s = timed_rounds(traced, budget, check, ops=len(op_s))
            ratios = [t / u for t, u in zip(traced_s, op_s) if max(t, u) < math.inf]
            overhead = median(ratios) - 1.0 if ratios else 0.0
        digests = {}
        e2e, detail = w.finish(check, digests)

    recorded = {}
    if DIGESTS.exists():
        table = json.loads(DIGESTS.read_text(encoding="utf-8"))
        recorded = table.get(args.workload, {}).get(str(args.seed), {})
    for name, value in recorded.items():
        check(digests.get(name) == value, f"{name} digest differs from the recorded one")

    failed = len(check.failures)
    detail["failed_frac"] = (failed / check.attempted, "ratio", check.attempted)
    if args.trace:
        metrics = {
            **workloads.common_layers(tracer),
            **cls.layers(w, tracer),
            "trace.overhead_frac": overhead,
        }
        metrics.update({name: v for name, (v, _, _) in detail.items()})
    else:
        metrics = {
            "setup_s": median(setup_s),
            "peak_rss_mb": peak_rss_mb,
            **e2e,
        }
        detail["setup_s"] = (median(setup_s), "s", len(setup_s))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {
        m["name"]: m["unit"]
        for m in declared["per_layer" if args.trace else "end_to_end"]
    }
    result = {
        "correct": failed == 0,
        "attempted": check.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }
    return result, detail, digests, recorded, check.failures, tracer, len(op_s)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cardlab" / "__init__.py").is_file():
        print(f"error: no cardlab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    # One BLAS thread: with two, a busy neighbour on a 2-CPU machine made
    # OpenBLAS's spinning threads stall each other and a training epoch
    # took up to 15x longer. It must be set before numpy is first imported.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    malloc = steady_allocator()
    sys.path.insert(0, str(ROOT / "src"))
    record = machine_record(args.seed, malloc)
    result, detail, digests, recorded, failures, tracer, ops = run(args)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    doc = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": ops,
        "machine": record,
        "result": result,
        "detail": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in detail.items()},
        "digests": digests,
        "digests_recorded": bool(recorded),
        "failures": failures,
    }
    if args.trace:
        doc["self_s"] = tracer.self_times()
        tracer.dump(RESULTS / f"{stem}.spans.jsonl")
    (RESULTS / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} ops={ops}")
    print("# machine " + json.dumps(record, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']:14.6g} {m['unit']}")
    for name, (value, unit, n) in sorted(detail.items()):
        print(f"  {name:32s} {value:14.6g} {unit:6s} n={n}")
    for line in failures[:20]:
        print(f"FAILED: {line}")
    print(
        "# digests "
        + ("checked against the recorded ones" if recorded else "not recorded for this seed")
        + " "
        + json.dumps(digests, sort_keys=True)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
