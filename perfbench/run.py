"""Benchmark for walshode: closed-loop ops, end-to-end metrics, layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py                       # every workload, seed 0
    python3 perfbench/run.py --workload solve-classical --seed 3 \
        --seconds 20 --trace 0

One process runs one workload as a closed loop with one caller: each op
starts after the previous one has ended and its output has been checked.
A fixed reference kernel (``reference.py``) runs before each op and each
set-up, and once after the last, outside the timed regions; each op and
set-up time is scaled by how fast the host ran the kernel around it.  The
unadjusted figures and the kernels' times are printed on the ``host`` line.
With ``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run (see ``layers.py``) and the tracing overhead, and the
spans are written to ``.perfbench_out/``.  Without ``--workload`` every
workload runs in its own child process, one after the other, so that
each has its own peak RSS.

The program is imported from ``src/`` of the checkout, never from an
installed copy; without it the benchmark exits with code 2.
"""

import os

# Steadiness: one BLAS/OpenMP thread, set before numpy is first imported.
# With the default two threads the n=10 operator build ran twice as slowly
# and its time varied from run to run.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import reference
from layers import LAYER_METRICS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MODULES = ("cli", "expr", "solver", "calculus", "transform", "hybrid", "quantum")
#: Set-ups per run; setup_s is their median.
SETUPS = 5
#: Consecutive parts of a run; ops_per_s is the median of their throughputs.
THROUGHPUT_PARTS = 5
#: Reference kernel timed around each set-up.  Set-up is numpy work on every
#: workload (the operator build, the sampled warm-up op, the large input and
#: warm-up transform); RESULTS.md gives how closely this kernel follows it.
SETUP_KERNEL = "sampling"

END_TO_END = (
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_ratio", "ratio"),
)


class SourceMissing(RuntimeError):
    pass


def unload_program() -> None:
    """Forget every imported walshode module, so the next import starts cold."""
    for name in [m for m in sys.modules if m == "walshode" or m.startswith("walshode.")]:
        del sys.modules[name]


def load_program() -> SimpleNamespace:
    """Import walshode afresh from the checkout, dropping any earlier import."""
    unload_program()
    if not (SRC / "walshode" / "__init__.py").is_file():
        raise SourceMissing(f"no walshode sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("walshode")
    if Path(package.__file__).resolve().parent != SRC / "walshode":
        raise SourceMissing(f"walshode imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"walshode.{m}") for m in MODULES})


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def set_up(cls, seed, workdir, tracer):
    """Import, make inputs, run the warm-up op; returns the case and timings."""
    started = time.perf_counter()
    prog = load_program()
    case = cls(prog, seed, workdir)
    if tracer is not None:
        tracer.reset()
        tracer.install(prog, case.rhs_owner)
    error = None
    try:
        case.prepare()
        result = case.op()
    except Exception:
        error = traceback.format_exc()
    finally:
        elapsed = time.perf_counter() - started
        if tracer is not None:
            tracer.uninstall()
    build = tracer.cold_operator_build() if tracer is not None else 0.0
    case.expect()
    return case, elapsed, build, error or checked(case, result)


def checked(case, result) -> str | None:
    """The op's check result; a check that raises counts as a failed op."""
    try:
        return case.check(result)
    except Exception:
        return "check raised: " + traceback.format_exc()


def measure(case, seconds, runs, tracer=None, kernel=None):
    """Closed loop over ``runs`` in turn until ``seconds`` have passed.

    Returns the op times of each entry of ``runs``, the times of the
    reference ``kernel`` (when given: one before each op and one after the
    last) and the failure count.  Each op is prepared, preceded by a
    garbage collection and the kernel, and checked, all outside its timed
    region.
    """
    times = [[] for _ in runs]
    refs = []
    failed, done = 0, 0
    deadline = time.perf_counter() + seconds
    while done < len(runs) or time.perf_counter() < deadline:
        run = runs[done % len(runs)]
        case.prepare()
        gc.collect()
        if kernel is not None:
            refs.append(reference.seconds(kernel))
        mismatches = len(tracer.mismatches) if tracer is not None else 0
        started = time.perf_counter_ns()
        try:
            result = run()
        except Exception:
            result = None
            error = traceback.format_exc()
        else:
            error = None
        times[done % len(runs)].append((time.perf_counter_ns() - started) / 1e9)
        done += 1
        if error is None:
            error = checked(case, result)
        if error is None and tracer is not None and len(tracer.mismatches) > mismatches:
            error = "; ".join(tracer.mismatches[mismatches:])
        if error is not None:
            failed += 1
            print(f"op {done} failed: {error}", file=sys.stderr)
        del result
    if kernel is not None:
        refs.append(reference.seconds(kernel))
    return times, refs, failed


def tail_rank(n: int) -> int | None:
    """1-based rank of the highest percentile (at most p90) with >= 10 ops beyond it.

    None when no rank above the median has ten ops beyond it (20 ops or
    fewer); op_p90_s is then the median.
    """
    rank = min(math.ceil(0.9 * n), n - 10)
    return rank if rank > n / 2 else None


def throughput(times, parts: int = THROUGHPUT_PARTS) -> float:
    """Ops per second of op time: the median over consecutive parts of the run.

    The machine's speed drifts over seconds; a median over parts keeps a
    short fast or slow spell from moving the figure, as the mean would.
    """
    size = max(1, len(times) // parts)
    chunks = [times[i:i + size] for i in range(0, len(times) - size + 1, size)]
    return statistics.median(len(chunk) / sum(chunk) for chunk in chunks)


def end_to_end(times, failed, setup_times) -> dict:
    ordered = sorted(times)
    rank = tail_rank(len(times))
    return {
        "op_p50_s": statistics.median(times),
        "op_p90_s": ordered[rank - 1] if rank else statistics.median(times),
        "ops_per_s": throughput(times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (len(times) - failed) / len(times),
    }


def adjusted(times, refs, kernel):
    """Scale each time by how fast the host ran ``kernel`` around it.

    ``refs[i]`` and ``refs[i + 1]`` are the kernel runs just before and just
    after ``times[i]``; their mean is the host's speed for that time.  The
    result is the time on a host that runs the kernel in its nominal time.
    """
    nominal = reference.NOMINAL_S[kernel]
    return [t * nominal * 2 / (a + b) for t, a, b in zip(times, refs, refs[1:])]


def run_workload(args) -> int:
    cls = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{cls.name}-", dir=OUT))
    host = None
    try:
        # One untimed run of each kernel first: the first run pays one-time
        # costs (numpy's generator set-up, cold caches) that would skew it.
        for kernel in {SETUP_KERNEL, cls.kernel}:
            reference.seconds(kernel)
        setup_raw, setup_refs, builds, errors = [], [], [], []
        for _ in range(SETUPS):
            # Free the previous set-up first, its inputs and its program's
            # operator cache, so that they do not count in peak_rss_mib.
            case = None
            unload_program()
            gc.collect()
            setup_refs.append(reference.seconds(SETUP_KERNEL))
            case, elapsed, build, error = set_up(cls, args.seed, workdir, tracer)
            setup_raw.append(elapsed)
            builds.append(build)
            if error is not None:
                errors.append(f"warm-up op: {error}")
        setup_refs.append(reference.seconds(SETUP_KERNEL))
        setup_times = adjusted(setup_raw, setup_refs, SETUP_KERNEL)
        errors += case.setup_errors()

        if not args.trace:
            (times,), refs, failed = measure(
                case, args.seconds, (case.op,), kernel=cls.kernel)
            values = end_to_end(adjusted(times, refs, cls.kernel), failed, setup_times)
            raw = end_to_end(times, failed, setup_raw)
            units = dict(END_TO_END)
            attempted = len(times)
            detail = (f"op_p90_s is rank {tail_rank(len(times)) or 'median'} of {len(times)} ops; "
                      f"setup_s runs: {[round(s, 4) for s in setup_times]}; "
                      "times host-adjusted, see the host line")
            (OUT / f"ops-{cls.name}-seed{args.seed}.json").write_text(json.dumps({
                "op_s": times, "op_kernel": cls.kernel, "op_kernel_s": refs,
                "setup_s": setup_raw, "setup_kernel": SETUP_KERNEL,
                "setup_kernel_s": setup_refs}))
            host = {
                "op_kernel": cls.kernel, "op_kernel_s": statistics.median(refs),
                "setup_kernel": SETUP_KERNEL, "setup_kernel_s": statistics.median(setup_refs),
                "unadjusted": {k: raw[k] for k in ("op_p50_s", "op_p90_s", "ops_per_s",
                                                    "setup_s")},
            }
        else:
            # Traced and untraced ops alternate, so that both see the same
            # machine; the difference of their medians is the overhead.
            def traced_op():
                tracer.install(case.prog, case.rhs_owner)
                try:
                    return tracer.run_op(case.op)
                finally:
                    tracer.uninstall()

            tracer.reset()
            (plain, traced), _, failed = measure(
                case, args.seconds, (case.op, traced_op), tracer)
            values = tracer.layer_metrics(len(traced), statistics.median(builds))
            values["trace.op_mean_s"] = statistics.fmean(traced)
            values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
            units = dict(LAYER_METRICS)
            attempted = len(plain) + len(traced)
            detail = (f"{len(plain)} untraced and {len(traced)} traced ops; "
                      f"absent layers: {sorted(tracer.absent) or 'none'}")
            trace_file = OUT / f"trace-{cls.name}-seed{args.seed}.json"
            trace_file.write_text(json.dumps({
                "workload": cls.name, "seed": args.seed, "environment": environment(),
                "untraced_op_s": plain, "traced_op_s": traced, "metrics": values,
                **tracer.dump(),
            }))
            detail += f"; spans in {trace_file.relative_to(ROOT)}"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in errors:
        print(f"set-up check failed: {message}", file=sys.stderr)
    print(f"workload {cls.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"environment {json.dumps(environment(), sort_keys=True)}")
    for name, unit in units.items():
        print(f"  {name:<28} {values[name]:.6g} {unit}")
    print(f"  ({detail})")
    if host is not None:
        print(f"host {json.dumps(host)}")
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own child process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
