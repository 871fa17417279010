"""The benchmark's workloads: inputs, the op, and the check of its output.

Each workload is one closed loop with one caller: the next op starts when
the previous one has returned and been checked.  Every op of a workload
is identical (same inputs, same seeds), so the spread of op times is the
machine's, not the inputs'.  The workload seed makes the inputs; the
program sees only those inputs.

Why each workload exists, and which layer dominates it:

* ``solve-classical`` -- Beer's system written in the expression
  language and solved through ``walshode.cli.main``, classical backend,
  n=10 (N=1024), up to 40 sweeps, tol 1e-12; it converges in 18 sweeps.
  The per-sample ``expr.evaluate`` loop inside ``picard_solve`` does most
  of the work (2 variables x 1024 samples x 18 sweeps = 36,864 calls);
  the dense operator apply and ``fwht`` at N=1024 follow.  The cold n=10
  operator build lands in ``setup_s``.  Sampling is bypassed.  The
  problem is fixed and the seed does not change it, so every seed runs
  the same 18 sweeps.
* ``solve-hybrid-sampled`` -- the builtin Riccati problem at n=8 through
  the hybrid-sampled backend, 4 sweeps, 10^6 shots per transform, the
  solver seed taken from the workload seed.  ``quantum.measure_sampled``
  takes nearly all of the op; the right-hand side, the operator and
  ``cli`` are negligible or bypassed.  It mirrors ``solve-classical``.
* ``transform-large`` -- ``fwht(v, count)`` on a seeded standard-normal
  vector of length 2^22 (32 MiB).  Only the butterfly runs; it is
  memory-heavy and its temporaries show in ``peak_rss_mib``.  The solves
  use the same ``transform`` layer as many calls at N <= 1024, where
  per-call overhead dominates, so a change that helps one use and costs
  the other shows up.  This is not a bandwidth measurement: 32 MiB sits
  inside the shared 300 MiB L3 of the reference machine.  An array of four
  times that L3 (1.2 GiB) would make ``fwht`` hold about 4 GiB at once
  (input, copy, two half-size temporaries) on a machine with 8 GB of RAM
  shared with other work.

Predicted no-move pairs (the other side of each optimisation):

* sampling changes (``quantum.measure_sampled``) leave ``solve-classical``
  and ``transform-large`` flat: neither samples;
* right-hand-side and calculus changes (``expr``, the solver loop, the
  operational matrices) leave ``transform-large`` flat, and
  ``solve-hybrid-sampled`` within its bounds: together they are under 1%
  of that op;
* butterfly changes (``transform.fwht``) leave the solves flat: at
  N <= 1024 the transforms are under a tenth of ``solve-classical``, and
  the hybrid solve does not call ``fwht``.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np


def midpoints(N: int) -> np.ndarray:
    """Cell midpoints of [0, 1], computed here independently of the program."""
    return (2.0 * np.arange(N) + 1.0) / (2.0 * N)


class Workload:
    """One workload: inputs made in __init__, then op(), check() per op.

    ``expect`` computes the reference outputs after set-up is timed;
    ``prepare`` runs before each op, outside its timed region;
    ``rhs_owner`` is the object whose ``rhs`` list the tracer wraps;
    ``kernel`` names the reference kernel (``reference.py``) whose time,
    interleaved with the ops, scales the op times to a host of fixed speed.
    """

    name = ""
    rhs_owner = None
    kernel = ""

    def setup_errors(self) -> list[str]:
        return []

    def prepare(self) -> None:
        pass


class SolveClassical(Workload):
    name = "solve-classical"
    # Interpreter-bound: its speed follows the host's state (up to 1.9x over
    # minutes), and so does the pure-Python tree walk, within a few
    # percent.  See RESULTS.md.
    kernel = "tree-walk"
    N = 1 << 10
    RHS = ("x2", "-(3*x1*x2 + x1^3)")
    INIT = ("0", "1")
    # The seed code's largest error against the analytic solution is
    # 3.6e-7 (midpoint discretisation at N=1024).  1e-5 leaves a margin of
    # ~30x for changes that reorder floating-point sums, while a wrong
    # operator entry or a dropped sweep errs by 1e-3 or more.
    TOL = 1e-5

    def __init__(self, prog, seed: int, workdir: Path):
        self.prog = prog
        self.out_dir = workdir / self.name
        self.argv = [
            "solve", "--rhs", self.RHS[0], "--rhs", self.RHS[1],
            "--init", *self.INIT, "--n", str(self.N.bit_length() - 1),
            "--nmax", "40", "--tol", "1e-12", "--output-dir", str(self.out_dir),
        ]

    def expect(self) -> None:
        t = midpoints(self.N)
        denom = t * t + 2.0
        self.t = t
        self.reference = (2.0 * t / denom, (4.0 - 2.0 * t * t) / denom**2)

    def prepare(self) -> None:
        """Remove the previous op's files so a failed op cannot pass on them."""
        for path in self.out_dir.glob("x*.csv"):
            path.unlink()

    def op(self):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.prog.cli.main(self.argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, result) -> str | None:
        code, out, err = result
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        report = json.loads(out)
        if report.get("converged") is not True:
            return f"not converged: {report.get('final_residual')}"
        for i, ref in enumerate(self.reference, start=1):
            data = np.loadtxt(self.out_dir / f"x{i}.csv", delimiter=",",
                              skiprows=1, ndmin=2)
            if data.shape != (self.N, 2):
                return f"x{i}.csv has shape {data.shape}, expected ({self.N}, 2)"
            if np.max(np.abs(data[:, 0] - self.t)) > 1e-12:
                return f"x{i}.csv has the wrong sample times"
            error = float(np.max(np.abs(data[:, 1] - ref)))
            if not error <= self.TOL:
                return f"x{i} error {error:.3g} exceeds {self.TOL:g}"
        return None


class SolveHybridSampled(Workload):
    name = "solve-hybrid-sampled"
    # Numpy sampling: the op moved 1.3x with the host's state while its
    # ratio to the sampling kernel moved 6%.  See RESULTS.md.
    kernel = "sampling"
    N = 1 << 8
    SWEEPS = 4
    SHOTS = 10**6
    # Sampling noise dominates: the seed code errs by 0.02-0.05 against the
    # analytic Riccati solution at 10^6 shots (4 exact sweeps alone err by
    # 0.0037).  0.15 is three times the worst seen; a lost sign or a wrong
    # offset in the hybrid transform errs by order 1.
    TOL = 0.15

    def __init__(self, prog, seed: int, workdir: Path):
        self.prog = prog
        self.problem = prog.solver.builtin_problem("riccati", n=self.N.bit_length() - 1)
        self.config = prog.solver.SolverConfig(
            n_max=self.SWEEPS, tol=0.0, backend="hybrid-sampled",
            shots=self.SHOTS, seed=seed,
        )
        self.rhs_owner = self.problem

    def expect(self) -> None:
        root3 = math.sqrt(3.0)
        self.reference = 0.5 * (root3 * np.tan(root3 * midpoints(self.N) / 2.0) - 1.0)

    def setup_errors(self) -> list[str]:
        ops = self.prog.hybrid.classical_side_opcount(self.N).total
        if ops != 7 * self.N:
            return [f"classical_side_opcount({self.N}) = {ops}, expected 7N = {7 * self.N}"]
        return []

    def op(self):
        return self.prog.solver.picard_solve(self.problem, self.config)

    def check(self, result) -> str | None:
        solution, trace = result
        x = solution[0].values
        if not np.all(np.isfinite(x)):
            return "non-finite output"
        if trace.iterations_run != self.SWEEPS:
            return f"{trace.iterations_run} sweeps, expected {self.SWEEPS}"
        error = float(np.max(np.abs(x - self.reference)))
        if not error <= self.TOL:
            return f"error {error:.3g} exceeds {self.TOL:g}"
        return None


class TransformLarge(Workload):
    name = "transform-large"
    # Bound by the shared L3 and memory: the op moved 1.34x with the host's
    # state while its ratio to the butterfly kernel moved 4%.  See RESULTS.md.
    kernel = "butterfly"
    n = 22
    N = 1 << n
    SPOTS = 3
    # Parseval: the transform is orthonormal; float64 rounding over log2(N)
    # stages moves the energy by ~1e-14 relative, so 1e-9 leaves margin and
    # still catches any coefficient wrong by a visible amount.
    PARSEVAL_RTOL = 1e-9
    # Spot coefficients against explicit +-1 sums of 2^22 unit-variance
    # terms: both sides round at ~1e-12 after the 1/sqrt(N) scaling.
    SPOT_ATOL = 1e-9
    CHUNK = min(1 << 18, N)

    def __init__(self, prog, seed: int, workdir: Path):
        self.prog = prog
        rng = np.random.default_rng(seed)
        self.v = rng.standard_normal(self.N)
        self.spots = rng.integers(0, self.N, size=self.SPOTS)

    def expect(self) -> None:
        self.energy = float(np.dot(self.v, self.v))
        base = np.arange(self.CHUNK, dtype=np.uint32)
        self.spot_values = []
        for k in self.spots:
            total = 0.0
            for start in range(0, self.N, self.CHUNK):
                j = base + np.uint32(start)
                odd = np.bitwise_count(j & np.uint32(k)) & 1
                chunk = self.v[start:start + self.CHUNK]
                total += float(chunk[odd == 0].sum() - chunk[odd == 1].sum())
            self.spot_values.append(total / math.sqrt(self.N))

    def op(self):
        count = self.prog.transform.OpCount()
        out = self.prog.transform.fwht(self.v, count)
        return out, count

    def check(self, result) -> str | None:
        out, count = result
        if count.additions != self.n * self.N:
            return f"{count.additions} additions, expected {self.n}*2^{self.n}"
        if out.shape != (self.N,):
            return f"output shape {out.shape}"
        energy = float(np.dot(out, out))
        if not abs(energy - self.energy) <= self.PARSEVAL_RTOL * self.energy:
            return f"Parseval: {energy!r} vs {self.energy!r}"
        for k, expected in zip(self.spots, self.spot_values):
            if not abs(out[k] - expected) <= self.SPOT_ATOL:
                return f"coefficient {k}: {out[k]!r} vs explicit sum {expected!r}"
        return None


WORKLOADS = {w.name: w for w in (SolveClassical, SolveHybridSampled, TransformLarge)}
