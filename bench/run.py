"""perturbsense benchmark: one workload per process, one caller, closed loop.

    python3 bench/run.py --workload static-dense --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment, sample counts, gate findings and every failed op
with its inputs.  ``--trace 0`` reports the end-to-end metrics, ``--trace
1`` the per-layer metrics of a separate run that alternates untraced and
traced ops.  ``--smoke`` runs every workload at its smallest size, in both
modes, and checks the output against ``BENCHMARK.json``.
"""

import os
import sys
import time

SCRIPT_START = time.perf_counter()

# BLAS is pinned before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 5  # this process plus four fresh ones; setup_s is their median
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
SMOKE_SECONDS = 0.2
# The host's speed drifts by up to 1.4x over tens of seconds, for all code
# alike. A fixed kernel, timed between ops and after each set-up, tracks
# it: op and set-up times are scaled to a host on which the kernel takes
# REFERENCE_KERNEL_MS.
REFERENCE_KERNEL_MS = 5.0
KERNEL_PERIOD_S = 0.2
# Each op time is scaled by the median of the KERNEL_WINDOW kernel times
# before the op and the KERNEL_WINDOW after it.
KERNEL_WINDOW = 2


def import_program():
    """Import perturbsense from this checkout's ``src/`` and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import perturbsense

    if Path(perturbsense.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perturbsense imported from {perturbsense.__file__}, not {SRC}")
    import workloads

    return workloads


def set_up(workload_name: str, seed: int, smoke: bool):
    """Import the program, build the workload and its input stream, and warm up."""
    workloads = import_program()
    import numpy as np

    rng = np.random.default_rng(seed)
    workload = workloads.WORKLOADS[workload_name](smoke, rng)
    warm_input = workload.make_input(rng)
    return workload, rng, warm_input, run_op(workload, warm_input)


def run_op(workload, inp):
    """Run one op (timed) and its gate (untimed); returns seconds, gate share, error."""
    start = time.perf_counter()
    try:
        out = workload.run(inp)
    except Exception:  # a raising op is a failed op, never a crashed run
        return time.perf_counter() - start, None, traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start
    try:
        worst, problems = workload.check(inp, out)
    except Exception:
        return elapsed, None, "gate raised: " + traceback.format_exc(limit=3)
    return elapsed, worst, "; ".join(problems[:5]) or None


def host_kernel():
    """A fixed mix of interpreter loops, small-array numpy calls and LAPACK.

    Returns a function that runs it once and gives its wall time in ms.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    m = rng.normal(size=(96, 96))
    m = m + m.T
    v = rng.normal(size=3) + 0j

    def timed() -> float:
        start = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i
        for _ in range(150):
            total += float(np.max(np.abs(np.vdot(v, v) * v)))
        for _ in range(3):
            np.linalg.eigh(m)
        return 1e3 * (time.perf_counter() - start)

    timed()
    return timed


def timed_setup(args) -> tuple[dict, tuple]:
    """Set up this process; returns the set-up sample (seconds, kernel ms) and the setup."""
    setup = set_up(args.workload, args.seed, args.smoke)
    seconds = time.perf_counter() - SCRIPT_START
    kernel = host_kernel()
    sample = {"setup_s": seconds, "kernel_ms": statistics.median(kernel() for _ in range(3))}
    return sample, (kernel, *setup)


def fresh_setups(args, count: int) -> list[dict]:
    """Set-up samples of ``count`` fresh processes, run one after another."""
    samples = []
    for _ in range(count):
        argv = [sys.executable, __file__, "--setup-probe", "--workload", args.workload,
                "--seed", str(args.seed)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it, and its value.

    With too few samples for any such percentile the maximum is reported
    as the 100th percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def measure(args, tracer=None) -> tuple[dict, dict]:
    """Run one workload for ``args.seconds``; returns the result and its detail record."""
    sample, (kernel, workload, rng, warm_input, warm) = timed_setup(args)
    setups = [sample]
    if tracer is None and not args.smoke:
        setups += fresh_setups(args, SETUP_SAMPLES - 1)

    plain, traced, failures, worst = [], [], [], 0.0
    kernel_ms, last_kernel = [], -KERNEL_PERIOD_S
    kernels_before = []  # per untraced op: how many kernel times precede it
    if tracer is not None:
        kernel = None  # the traced run compares traced and untraced ops directly
    attempted = 0

    def record(inp, result):
        nonlocal attempted, worst
        attempted += 1
        _, share, error = result
        if share is not None:
            worst = max(worst, share)
        if error is not None:
            failures.append({"op": attempted, "inputs": workload.describe(inp), "error": error})

    record(warm_input, warm)  # the warm-up op is gated and counted, never timed
    deadline = time.perf_counter() + args.seconds
    while True:
        inp = workload.make_input(rng)
        if kernel is not None and time.perf_counter() - last_kernel >= KERNEL_PERIOD_S:
            kernel_ms.append(kernel())
            last_kernel = time.perf_counter()
        use_trace = tracer is not None and len(plain) > len(traced)
        if use_trace:
            tracer.begin_op()
            tracer.install()
        try:
            result = run_op(workload, inp)
        finally:
            if use_trace:
                tracer.uninstall()
        (traced if use_trace else plain).append(1e3 * result[0])
        if kernel is not None:
            kernels_before.append(len(kernel_ms))
        record(inp, result)
        if time.perf_counter() >= deadline and (tracer is None or traced):
            break

    scaled = []
    if kernel is not None:
        kernel_ms += [kernel() for _ in range(KERNEL_WINDOW)]  # for the last ops
        for op_ms, i in zip(plain, kernels_before):
            near = kernel_ms[max(0, i - KERNEL_WINDOW):i + KERNEL_WINDOW]
            scaled.append(op_ms * REFERENCE_KERNEL_MS / statistics.median(near))

    if tracer is None:
        percentile, tail_ms = tail(scaled)
        metrics = {
            "op_p50_ms": (statistics.median(scaled), "ms"),
            "op_tail_ms": (tail_ms, "ms"),
            "ops_per_s": (len(scaled) / (sum(scaled) / 1e3), "1/s"),
            "setup_s": (statistics.median(
                s["setup_s"] * REFERENCE_KERNEL_MS / s["kernel_ms"] for s in setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_ratio": ((attempted - len(failures)) / attempted, "ratio"),
        }
    else:
        percentile, tail_ms = tail(traced)
        units = {"calls": "count", "self_ms": "ms", "assembly_ms": "ms",
                 "eigensolves_per_check": "count"}
        metrics = {
            name: (value, units.get(name.rsplit(".", 1)[1], "ratio"))
            for name, value in tracer.layer_metrics(traced, plain).items()
        }
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv")

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": int(tracer is not None),
        "input_size": workload.size(),
        "environment": environment(),
        "loop": "closed, one caller",
        "samples": len(traced if tracer is not None else plain),
        "tail_percentile": percentile,
        "setup_samples": setups,
        "unscaled": {
            "op_p50_ms": statistics.median(plain),
            "op_tail_ms": tail(plain)[1],
            "ops_per_s": len(plain) / (sum(plain) / 1e3),
        },
        "kernel_ms": {
            "reference": REFERENCE_KERNEL_MS,
            "samples": len(kernel_ms),
            "median": statistics.median(kernel_ms) if kernel_ms else None,
            "min": min(kernel_ms, default=None),
            "max": max(kernel_ms, default=None),
        },
        "gate_worst_share_of_tolerance": worst,
        "fail_ratio": len(failures) / attempted,
        "failures": failures,
        **workload.findings(),
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def smoke(args) -> int:
    """Every workload at its smallest size, both modes; checks gates and the schema."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    import_program()
    import tracing
    import workloads

    status = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            ns = argparse.Namespace(workload=w["name"], seed=args.seed, seconds=SMOKE_SECONDS,
                                    smoke=True, trace=trace)
            result, detail = measure(ns, tracing.Tracer() if trace else None)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            ok = result["correct"] and got == expected[trace]
            status |= not ok
            print(json.dumps({"workload": w["name"], "trace": trace, "ok": ok,
                              "attempted": result["attempted"], "failures": detail["failures"],
                              "schema_mismatch": sorted(set(got.items()) ^ set(expected[trace].items()))}))
    if workloads.WORKLOADS.keys() != {w["name"] for w in spec["workloads"]}:
        print(f"workloads differ from BENCHMARK.json: {sorted(workloads.WORKLOADS)}")
        status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest sizes, every workload")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.smoke:
        return smoke(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        print(json.dumps(timed_setup(args)[0]))
        return 0
    tracer = None
    if args.trace:
        import_program()
        import tracing

        tracer = tracing.Tracer()
    result, detail = measure(args, tracer)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
