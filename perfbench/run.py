"""nullctrl benchmark: one closed-loop client per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {dyadic,oneshot,certify} \
        --seed N --seconds S --trace {0,1}

One client in one process issues each op after the previous one has
returned.  The batch of ops is generated from the seed and repeated
whole while the time measured so far plus one more batch fits in
``--seconds`` (at least one batch).  Every op's output is checked
outside the timed region.  BLAS is pinned to one thread.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh processes of the time from process start until the first op is
ready), ``solved_per_s`` (ops that finished and passed their check per
second of op wall time over all untraced batches, failed ops' time
included) and ``solved_frac`` (the same ops over ops attempted).  On a
shared host the machine's speed can drift for tens of seconds; the plain
ratio averages over such drifts, where a median of batches would jump
between them.  ``--trace 1`` alternates untraced and traced batches and
reports the per-layer metrics of one traced batch (median over traced
batches), plus the tracing overhead.  The last line of standard output
is one JSON object; the lines before it state the environment, every
metric with its unit and sample count, and every failed op.
"""

from __future__ import annotations

import os

# before numpy is imported, here and in the set-up processes started below
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROCESSES = 5
WORKLOADS = ("dyadic", "oneshot", "certify")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a few ops per workload, for the self-test")
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, print their digest and exit")
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be nonnegative and --seconds positive")
    return args


def import_nullctrl():
    """Import nullctrl from this checkout's ``src``, and nowhere else."""
    if not (SRC / "nullctrl" / "__init__.py").is_file():
        sys.exit(f"perfbench: no nullctrl sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nullctrl
    if Path(nullctrl.__file__).resolve().parent != SRC / "nullctrl":
        sys.exit(f"perfbench: imported nullctrl from {nullctrl.__file__}, not {SRC}")


def blas_threads() -> dict:
    """Threads each loaded OpenBLAS library will use, as it reports them."""
    import ctypes
    libs = set()
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()
                    and ".so" in line}
    except OSError:
        pass
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def time_setups(args, expected_digest: str) -> tuple[list[float], bool]:
    """Start fresh processes that build the inputs; time each until ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--size", args.size, "--setup-only"]
    times, same = [], True
    for _ in range(SETUP_PROCESSES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up process exited with {proc.returncode}")
        same &= line.strip() == expected_digest
    return times, same


def run_batch(ops, tracer, failures, state):
    """Run every op once; returns (op wall times, solved count)."""
    from nullctrl.errors import NullCtrlError
    times, solved = [], 0
    for op in ops:
        if tracer is not None:
            tracer.op = state["next_op"]
        state["next_op"] += 1
        t0 = time.perf_counter()
        try:
            out, err = op.run(), None
        except NullCtrlError as exc:
            out, err = None, exc
        except Exception as exc:  # an untyped crash is a wrong result, not a failure
            out, err = None, exc
            state["correct"] = False
            traceback.print_exc()
        finally:
            times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.op = None
        if err is None:
            problem = op.check(out)
            if problem is None:
                solved += 1
                continue
            state["correct"] = False
            key = (op.name, "CheckFailed", problem)
        else:
            msg = (str(err).strip().splitlines() or [""])[0]
            key = (op.name, type(err).__name__, msg)
        failures[key] = failures.get(key, 0) + 1
    return times, solved


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    args = parse_args(argv)
    import_nullctrl()
    import numpy as np
    import scipy
    import workloads
    from spans import COUNT_METRICS, Tracer, layer_metrics, totals

    ops = workloads.build_ops(args.workload, args.seed, args.size)
    digest = workloads.digest(ops)
    if args.setup_only:
        print(digest, flush=True)
        return 0

    setup_times, same_inputs = time_setups(args, digest)
    print(f"env: python {sys.version.split()[0]}, numpy {np.__version__}, "
          f"scipy {scipy.__version__}, nproc {os.cpu_count()}, "
          f"BLAS threads {blas_threads()}, seed {args.seed}, size {args.size}")
    print(f"workload {args.workload}: closed loop, 1 client, {len(ops)} ops per "
          f"batch, inputs {digest}")

    failures: dict = {}
    state = {"next_op": 0, "correct": same_inputs}
    runs = {False: [], True: []}     # traced? -> [(op times, solved)]
    layers = []                       # per traced batch: {metric: (value, unit)}
    spent = 0.0
    while True:
        traced = bool(args.trace) and len(runs[False]) > len(runs[True])
        if traced:
            tracer = Tracer()
            with tracer.installed():
                result = run_batch(ops, tracer, failures, state)
            layers.append(layer_metrics(totals(tracer.spans)))
        else:
            result = run_batch(ops, None, failures, state)
        runs[traced].append(result)
        spent += sum(result[0])
        done = len(runs[False]) + len(runs[True])
        enough = runs[False] and (runs[True] or not args.trace)
        if enough and spent * (done + 1) / done > args.seconds:
            break

    def summary(batches):
        """All op times, solved count, and solved per second of op wall time."""
        times = [t for ts, _ in batches for t in ts]
        solved = sum(s for _, s in batches)
        return times, solved, solved / sum(times)

    times, solved, solved_per_s = summary(runs[False])
    attempted = len(times)
    print(f"measured: {len(runs[False])} untraced batch(es), {sum(times):.3f} s of ops; "
          f"batch times: {', '.join(f'{sum(ts):.3f}' for ts, _ in runs[False])}")
    print(f"setup_s = {statistics.median(setup_times):.4f} s "
          f"(median of {len(setup_times)} fresh processes: "
          f"{', '.join(f'{t:.3f}' for t in setup_times)}; same inputs: {same_inputs})")
    print(f"solved_per_s = {solved_per_s:.4f} 1/s ({solved} solved in "
          f"{len(runs[False])} batch(es) of {len(ops)} ops)")
    print(f"solved_frac = {solved / attempted:.4f} ratio ({solved} of {attempted} attempted)")
    print(f"failed_frac = {1 - solved / attempted:.4f} ratio "
          f"({attempted - solved} of {attempted} attempted)")
    if args.workload == "certify":
        for q in (50, 90):
            print(f"op_p{q}_s = {quantile(times, q):.6f} s (n={attempted} ops)")
    for (name, kind, msg), count in sorted(failures.items()):
        print(f"failed op x{count}: {name}: {kind}: {msg}")

    if args.trace:
        t_times, t_solved, t_sps = summary(runs[True])
        slower = (sum(t_times) / len(t_times)) / (sum(times) / len(times)) - 1
        print(f"tracing overhead: solved_per_s traced {t_sps:.4f} vs untraced "
              f"{solved_per_s:.4f} 1/s ({slower:+.2%} time per op)")
        repeat = all(m[k] == layers[0][k] for m in layers for k in COUNT_METRICS)
        print(f"per-layer counts identical over {len(layers)} traced batch(es): {repeat}")
        metrics = {name: {"value": statistics.median(m[name][0] for m in layers),
                          "unit": unit} for name, (_, unit) in layers[0].items()}
        for name, m in metrics.items():
            print(f"{name} = {m['value']!r} {m['unit']} "
                  f"(per batch, median of {len(layers)} traced batch(es))")
        attempted, solved = attempted + len(t_times), solved + t_solved
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "solved_per_s": {"value": solved_per_s, "unit": "1/s"},
            "solved_frac": {"value": solved / attempted, "unit": "ratio"},
        }
    print(json.dumps({"correct": bool(state["correct"]), "attempted": attempted,
                      "failed": attempted - solved, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
