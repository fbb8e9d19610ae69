"""Benchmark of the shallowshell package.

    python3 perfbench/run.py --workload study33|fields257 --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Repeats the workload's operation in this one
process for at most S seconds (always at least once), checks every
operation's outputs, and prints one JSON object as the last line of standard
output: with --trace 0 the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run.  See perfbench/README.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
IMPORT_PROBES = 5
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.process_time(); "
    "import shallowshell; print(time.process_time() - t)"
)


def import_seconds() -> float:
    """CPU time of one `import shallowshell` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def run(workload_cls, seed: int, seconds: float, trace: bool) -> dict:
    import tracing

    workdir = OUT / f"run-{os.getpid()}"
    tracer = tracing.Tracer() if trace else None
    try:
        workload = workload_cls(seed, workdir)
        imports, setups, cpus, walls, rounds, overheads = [], [], [], [], [], []
        attempted = failed = 0
        correct = True
        start = perf_counter()
        while True:
            round_start = perf_counter()
            round_walls = {}
            for traced in ((False, True) if trace else (False,)):
                attempted += 1
                if traced:
                    tracer.install()
                try:
                    t0, c0 = perf_counter(), process_time()
                    state = workload.setup()
                    c1 = process_time()
                    result = workload.work(state)
                    t2, c2 = perf_counter(), process_time()
                except Exception:  # a program fault fails this operation only
                    failed += 1
                    traceback.print_exc()
                    continue
                finally:
                    if traced:
                        tracer.uninstall()
                try:
                    fails = workload.check(result)
                except Exception as exc:  # unreadable output fails the check
                    fails = [f"check raised {exc!r}"]
                del state, result  # the next set-up must not share the peak with this one
                if fails:
                    failed += 1
                    correct = False
                    print(f"{workload.name}: " + "; ".join(fails), file=sys.stderr)
                round_walls[traced] = t2 - t0
                if not traced:
                    setups.append(c1 - c0)
                    cpus.append(c2 - c0)
                    walls.append(t2 - t0)
            if len(round_walls) == 2:  # adjacent operations share the machine's state
                overheads.append(round_walls[True] - round_walls[False])
            # spread the import timings over the run, like the operations
            elapsed = perf_counter() - start
            if len(imports) * seconds < IMPORT_PROBES * elapsed:
                imports.append(import_seconds())
            # start another round only if it ends within the run's seconds
            rounds.append(perf_counter() - round_start)
            if perf_counter() - start + statistics.median(rounds) > seconds:
                break
        while len(imports) < IMPORT_PROBES:
            imports.append(import_seconds())
        if not cpus:
            raise RuntimeError(f"every {workload.name} operation failed")
        if trace:
            overhead = statistics.median(overheads) if overheads else 0.0
            metrics = tracing.per_layer(tracer, overhead, statistics.median(walls))
            tracer.write_jsonl(OUT / f"trace-{workload.name}.jsonl")
        else:
            metrics = {
                "cpu_s": (statistics.median(cpus), "s"),
                "setup_s": (statistics.median(imports) + statistics.median(setups), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One BLAS/OpenMP thread, set before numpy loads (and inherited by the
    # import probes): the solver's dot products are on short vectors, and the
    # thread count changes its iteration count.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "shallowshell" / "__init__.py").is_file():
        print(f"perfbench: no shallowshell package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
