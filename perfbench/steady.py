"""Steadiness check: run workloads on several seeds and compare spreads to bounds.

    python3 perfbench/steady.py                      # 10 seeds, every workload
    python3 perfbench/steady.py --workloads solve-classical --seeds 5

Each run is a separate process started with BENCHMARK.json's command and
``run_seconds``, one at a time.  For every end-to-end metric it prints
the median and quartiles (``statistics.quantiles(values, n=4)``), the
spread (Q3 - Q1) / median, and the metric's bound; a spread at or above a
third of the bound is flagged, except for ``setup_s``, whose spread is
not bounded (only its median is compared between commits).  It also
prints the reference kernels' times and the figures before host
adjustment.  The raw values go to
``.perfbench_out/steady-<label>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed, trace=0):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} reported incorrect output:\n{proc.stderr}")
    host = next((json.loads(line[5:]) for line in lines if line.startswith("host ")), None)
    return result, host, wall


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--label", default="latest")
    args = parser.parse_args()

    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        walls, hosts = [], []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, host, wall = run_once(spec, workload, seed)
            walls.append(wall)
            hosts.append(host)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {args.seeds} runs, {min(walls):.1f}-{max(walls):.1f} s each")
        rows = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            q1, median, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / median
            flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- not steady"
            print(f"  {name:<14} median {median:<12.6g} Q1 {q1:<12.6g} Q3 {q3:<12.6g}"
                  f" spread {spread:7.2%}  bound {bound:.0%}{flag}")
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bound, "values": values[name]}
        # The host's speed state and the figures before adjustment, so
        # that two sets can be compared on the state they ran in.
        unadjusted = {name: [h["unadjusted"][name] for h in hosts]
                      for name in hosts[0]["unadjusted"]}
        kernels = {f"{h}_s": [host[f"{h}_s"] for host in hosts]
                   for h in ("op_kernel", "setup_kernel")}
        for name, series in {**kernels, **unadjusted}.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            print(f"  host {name:<15} median {median:<12.6g} Q1 {q1:<12.6g} Q3 {q3:<12.6g}"
                  f" spread {(q3 - q1) / median:7.2%}  (unadjusted, not gated)")
        report["workloads"][workload] = {"runs": args.seeds, "wall_s": walls, "metrics": rows,
                                         "host": hosts}

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.label}.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
