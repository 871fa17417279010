"""Command-line front end: transforms, matrix dumps, ODE solves, benchmarks.

Vector files hold one decimal value per line; blank lines and lines
starting with '#' are ignored.  `transform` and `solve` print a JSON run
report to stdout; `table` and `bench` print CSV to stdout unless -o names
a file.  Every command is deterministic given its flags (the sampled
backend refuses to run without an explicit --seed).

Exit codes: 0 success, 2 usage error, 3 numeric/divergence error,
4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .calculus import differentiation_matrix, integration_matrix
from .errors import (
    DivergenceError,
    ExprError,
    ExprEvalError,
    ResourceLimitError,
    require_bytes,
)
from .expr import evaluate, evaluate_grid, parse
from .hybrid import HybridConfig, classical_side_opcount, hybrid_wht
from .solver import (
    IVProblem,
    SolverConfig,
    analytic_reference,
    builtin_problem,
    picard_solve,
)
from .transform import OpCount, fwht, iwht, wht_naive
from .walsh import _require_qubits, character_table

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class UsageError(ValueError):
    """Bad flags or malformed input content."""


@dataclass
class RunReport:
    command: list[str]
    backend: str | None = None
    n: int | None = None
    iterations: int | None = None
    elapsed_s: float = 0.0
    op_counts: dict | None = None
    outputs: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "backend": self.backend,
            "n": self.n,
            "iterations": self.iterations,
            "elapsed_s": self.elapsed_s,
            "op_counts": self.op_counts,
            "outputs": self.outputs,
        }
        doc.update(self.extra)
        return json.dumps(doc, indent=2, sort_keys=True)


def read_vector(path: str) -> np.ndarray:
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise UsageError(f"{path}:{lineno}: not a number: {text!r}")
            if not np.isfinite(values[-1]):
                raise UsageError(f"{path}:{lineno}: not a finite number: {text!r}")
    if not values:
        raise UsageError(f"{path}: no values found")
    return np.array(values)


def _write_text(path: str | None, text: str) -> None:
    """Write text to the file at path, or to stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_vector(path: str, values: np.ndarray) -> None:
    text = "".join(map("{!r}\n".format, np.asarray(values, dtype=float).tolist()))
    _write_text(path, text)


def _write_csv(path: str | None, header: list[str], columns: list[np.ndarray]) -> None:
    """Write equal-length columns: float cells in ``repr`` form, others as ``str``."""
    row = ",".join("{!r}" if c.dtype.kind == "f" else "{}" for c in columns) + "\n"
    text = "".join(map(row.format, *(c.tolist() for c in columns)))
    _write_text(path, ",".join(header) + "\n" + text)


def _hybrid_config(args) -> HybridConfig:
    """The hybrid settings of the flags; a flag the backend would ignore is an error."""
    sampled = args.backend == "hybrid-sampled"
    hybrid = sampled or args.backend == "hybrid-exact"
    for flag, applies in (("shots", sampled), ("seed", sampled), ("epsilon", hybrid)):
        if getattr(args, flag) is not None and not applies:
            raise UsageError(f"--{flag} does not apply to backend {args.backend}")
    if not sampled:
        return HybridConfig(epsilon=args.epsilon, mode="exact")
    for flag in ("shots", "seed"):
        if getattr(args, flag) is None:
            raise UsageError(f"backend hybrid-sampled requires --{flag}")
    return HybridConfig(
        epsilon=args.epsilon, mode="sampled", shots=args.shots, seed=args.seed
    )


def cmd_transform(args) -> int:
    hybrid = _hybrid_config(args)
    v = read_vector(args.input)
    count = OpCount()
    started = time.perf_counter()
    if args.backend == "naive":
        out = wht_naive(v, count)
    elif args.backend == "fast":
        out = iwht(v, count) if args.inverse else fwht(v, count)
    else:
        out, _ = hybrid_wht(v, hybrid, count)
    elapsed = time.perf_counter() - started
    write_vector(args.output, out)
    report = RunReport(
        command=args._echo,
        backend=args.backend,
        n=v.size.bit_length() - 1,
        elapsed_s=elapsed,
        op_counts=count.as_dict(),
        outputs=[args.output],
        extra={"inverse": bool(args.inverse), "length": int(v.size)},
    )
    print(report.to_json())
    return EXIT_OK


def cmd_table(args) -> int:
    N = _require_qubits(args.n)
    if args.kind == "character":
        matrix = character_table(args.n).astype(float)
    elif args.kind == "integration":
        matrix = integration_matrix(N).entries
    else:
        matrix = differentiation_matrix(N).entries
    # One join per row: _write_csv's per-column format string is slower at N columns.
    _write_text(args.output, "".join(",".join(map(repr, row)) + "\n"
                                     for row in matrix.tolist()))
    return EXIT_OK


def _problem_from_args(args) -> tuple[IVProblem, str | None]:
    domain = (args.domain[0], args.domain[1])
    if args.problem:
        if args.init is not None:
            raise UsageError(f"--init applies to --rhs systems only; "
                             f"{args.problem} has its own initial values")
        return replace(builtin_problem(args.problem, n=args.n), domain=domain), args.problem
    if not args.rhs:
        raise UsageError("provide either --problem or at least one --rhs")
    if args.init is None or len(args.init) != len(args.rhs):
        raise UsageError("--init must supply one value per --rhs expression")
    m = len(args.rhs)
    rhs = [_rhs_callable(parse(src, m)) for src in args.rhs]
    problem = IVProblem(m=m, rhs=rhs, initial=list(args.init), domain=domain,
                        n=args.n, vectorized=True)
    return problem, None


def _rhs_callable(node):
    """One rhs for both forms: the whole grid, or one point (scalar t)."""

    def rhs(x, t):
        if np.ndim(t) == 0:
            return evaluate(node, x, t)
        return evaluate_grid(node, x, t)

    return rhs


def cmd_solve(args) -> int:
    hybrid = _hybrid_config(args)
    problem, known_name = _problem_from_args(args)
    config = SolverConfig(
        n_max=args.nmax,
        tol=args.tol,
        backend=args.backend,
        epsilon=hybrid.epsilon,
        shots=hybrid.shots,
        seed=hybrid.seed,
    )
    started = time.perf_counter()
    solution, trace = picard_solve(problem, config)
    elapsed = time.perf_counter() - started

    os.makedirs(args.output_dir, exist_ok=True)
    t = solution[0].midpoints
    # Analytic references anchor their initial condition at t=0.
    has_reference = known_name is not None and problem.domain[0] == 0.0
    reference = analytic_reference(known_name, t) if has_reference else None
    outputs = []
    for i, sf in enumerate(solution, start=1):
        path = os.path.join(args.output_dir, f"x{i}.csv")
        header, columns = ["t", f"x{i}"], [t, sf.values]
        if reference is not None:
            header += ["analytic", "error"]
            columns += [reference[i - 1], sf.values - reference[i - 1]]
        _write_csv(path, header, columns)
        outputs.append(path)

    if args.trace:
        path = os.path.join(args.output_dir, "trace.csv")
        sweeps, m, N = len(trace.snapshots), len(solution), t.size
        names = np.repeat([f"x{i}" for i in range(1, m + 1)], N)
        _write_csv(path, ["iteration", "variable", "sample", "t", "value"], [
            np.repeat(np.arange(1, sweeps + 1), m * N),
            np.tile(names, sweeps),
            np.tile(np.arange(N), sweeps * m),
            np.tile(t, sweeps * m),
            np.concatenate([x for snapshot in trace.snapshots for x in snapshot]),
        ])
        outputs.append(path)

    report = RunReport(
        command=args._echo,
        backend=args.backend,
        n=problem.n,
        iterations=trace.iterations_run,
        elapsed_s=elapsed,
        outputs=outputs,
        extra={
            "converged": trace.converged,
            "final_residual": trace.final_residual,
            "problem": known_name or "custom",
        },
    )
    print(report.to_json())
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.repeats < 1:
        raise UsageError(f"--repeats must be >= 1, got {args.repeats}")
    for N in args.sizes:
        if N < 2 or N & (N - 1):
            raise UsageError(f"sizes must be powers of two >= 2, got {N}")
        require_bytes(16 * N, f"bench input and transform output at N={N}")
    rows = []
    for N in args.sizes:
        rng = np.random.default_rng(0)
        v = rng.standard_normal(N)
        for backend in args.backends:
            best = None
            count = OpCount()
            for _ in range(args.repeats):
                count = OpCount()
                started = time.perf_counter()
                if backend == "fast":
                    fwht(v, count)
                elif backend == "naive":
                    wht_naive(v, count)
                else:
                    count = classical_side_opcount(N)
                elapsed = time.perf_counter() - started
                best = elapsed if best is None else min(best, elapsed)
            rows.append(
                (N, backend, count.additions, count.multiplications,
                 count.square_roots, best)
            )
    header = ["N", "backend", "additions", "multiplications", "square_roots",
              "wall_time_s"]
    _write_csv(args.output, header, [np.array(column) for column in zip(*rows)])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walshode",
        description="Walsh-Hadamard transforms, operational matrices and a "
        "Picard ODE solver.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("transform", help="transform a vector file")
    p.add_argument("input", help="vector file, one value per line")
    p.add_argument("-o", "--output", required=True, help="output vector file")
    p.add_argument(
        "--backend",
        choices=["naive", "fast", "hybrid-exact", "hybrid-sampled"],
        default="fast",
    )
    p.add_argument("--inverse", action="store_true",
                   help="apply the inverse transform (same map: involution)")
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("table", help="dump a matrix as CSV")
    p.add_argument("--kind", choices=["character", "integration", "differentiation"],
                   required=True)
    p.add_argument("--n", type=int, required=True, help="qubit count (size 2^n)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("solve", help="solve an initial-value problem")
    spec = p.add_mutually_exclusive_group()
    spec.add_argument("--problem", choices=["riccati", "beer_system"], default=None)
    spec.add_argument("--rhs", action="append", default=None,
                      help="right-hand side over t, x1..xm; repeat per variable. "
                      "Grammar: + - * / ^ (right-assoc), unary -, sin cos tan exp "
                      "log sqrt abs, parentheses; no implicit multiplication")
    p.add_argument("--init", type=float, nargs="+", default=None,
                   help="initial values, one per --rhs")
    p.add_argument("--n", type=int, default=2, help="resolution exponent (N=2^n)")
    p.add_argument("--nmax", type=int, default=10, help="maximum Picard sweeps")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument(
        "--backend",
        choices=["classical", "hybrid-exact", "hybrid-sampled"],
        default="classical",
    )
    p.add_argument("--domain", type=float, nargs=2, default=[0.0, 1.0],
                   metavar=("LO", "HI"))
    p.add_argument("--trace", action="store_true",
                   help="also write every iteration to trace.csv")
    p.add_argument("--output-dir", default=".")
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="operation-count and timing table")
    p.add_argument("--sizes", type=int, nargs="+", required=True)
    p.add_argument("--backends", nargs="+", default=["fast", "hybrid"],
                   choices=["fast", "naive", "hybrid"])
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args._echo = list(argv) if argv is not None else sys.argv[1:]
    try:
        return args.func(args)
    except (UsageError, ExprError, ResourceLimitError, ValueError) as exc:
        print(f"walshode: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DivergenceError, ExprEvalError, FloatingPointError) as exc:
        print(f"walshode: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"walshode: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
