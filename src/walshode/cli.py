"""Command-line front end: transforms, matrix dumps, ODE solves, benchmarks.

Vector files hold one decimal value per line; blank lines and lines starting with '#' are
ignored.  `transform` and `solve` print a JSON run report to stdout; `table` and `bench`
print CSV to stdout unless -o names a file.  Every command is deterministic given its
flags: the sampled backend needs --seed, as ``hybrid.backend_config`` does for the
library.  Each `solve --rhs` expression is parsed once and evaluated by ``expr.evaluate``
over the whole grid, once per sweep.

Exit codes, by exception family: 0 success, 2 usage (ValueError, ResourceLimitError),
3 numeric/divergence (ArithmeticError, DivergenceError), 4 I/O (OSError).  A failed command
prints one ``walshode: ...`` line to stderr and no report (``FAILURES`` in
tests/test_cli.py checks every failing command), and leaves every path as it was, except
that an ``os.replace`` failing in ``_write_files``' final loop leaves the files it replaced.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import re
import stat
import sys
import time
from collections.abc import Iterable, Iterator
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .calculus import differentiation_matrix, integration_matrix
from .errors import DivergenceError, ResourceLimitError, _overflow_rule, require_bytes
from .expr import evaluate, parse
from .hybrid import backend_config, hybrid_wht
from .solver import (
    _BACKENDS,
    _BUILTINS,
    IVProblem,
    SolverConfig,
    analytic_reference,
    builtin_problem,
    picard_solve,
)
from .transform import OpCount, _require_naive_bytes, fwht, wht_naive
from .walsh import _require_int, _require_length, _require_qubits, character_table

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _print_report(**doc) -> None:
    """Print the JSON run report; each command passes its full key set."""
    print(json.dumps(doc, indent=2, sort_keys=True))


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
                raise ValueError(f"{path}:{lineno}: not a number: {text!r}")
            if not math.isfinite(values[-1]):
                raise ValueError(f"{path}:{lineno}: not a finite number: {text!r}")
    if not values:
        raise ValueError(f"{path}: no values found")
    return np.array(values)


#: A negative number as float() reads it, exponent, inf and nan included, for argparse's
#: private _negative_number_matcher (3.10-3.13), which takes "-1e-3" or "-inf" for an option.
_NEGATIVE_NUMBER = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.I)

#: Rows per chunk of a vector or CSV file: a 1024-sample solve is one chunk,
#: and a longer file never holds all of its text at once.
_CHUNK_ROWS = 4096


def _write_files(files: Iterable[tuple[str | None, Iterable[str]]]) -> None:
    """Write each (path, chunks) pair, None for stdout; a failure leaves every path as it was:
    a new path is made with "x" and removed, an existing regular file is written to a temporary
    that replaces it once the last file is whole, a device, fifo or symlink is written in place."""
    written, staged = [], {}  # files opened with "x" and not yet committed; temporary: target
    try:  # "x": a file that appears meanwhile is refused, never written or removed
        for path, chunks in files:
            if path is None:
                sys.stdout.writelines(chunks)
                continue
            mode = os.lstat(path).st_mode if os.path.lexists(path) else None
            in_place = mode is not None and not stat.S_ISREG(mode)
            target = path if mode is None or in_place else f"{path}.{os.getpid()}.tmp"
            with open(target, "w" if in_place else "x", encoding="utf-8") as fh:
                written += [] if in_place else [target]
                fh.writelines(chunks)
            if target != path:
                os.chmod(target, stat.S_IMODE(mode))
                staged[target] = path
        for target, path in staged.items():
            os.replace(target, path)
            written.remove(target)
    except BaseException:  # an interrupt too: no partial file or temporary is left
        for target in written:
            os.remove(target)
        raise


def _rows(columns: list[np.ndarray | list[str]]) -> Iterator[str]:
    """Chunks of _CHUNK_ROWS rows; float arrays by repr, other arrays by str, str lists as is."""
    for lo in range(0, len(columns[0]), _CHUNK_ROWS):
        cells = [c[lo: lo + _CHUNK_ROWS] if isinstance(c, list) else
                 map(repr if c.dtype.kind == "f" else str, c[lo: lo + _CHUNK_ROWS].tolist())
                 for c in columns]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def write_vector(path: str, values: np.ndarray) -> None:
    _write_files([(path, _rows([np.asarray(values, dtype=float)]))])


def _csv(header: list[str], blocks: Iterable[list]) -> Iterator[str]:
    """The header, then each block of equal-length columns, one block at a time."""
    chunks = itertools.chain.from_iterable(map(_rows, blocks))
    return itertools.chain([",".join(header) + "\n"], chunks)


def cmd_transform(args) -> int:
    hybrid = backend_config(args.backend, args.epsilon, args.shots, args.seed)
    v = read_vector(args.input)
    count = OpCount()
    started = time.perf_counter()
    if args.backend == "naive":
        out = wht_naive(v, count)
    elif args.backend == "fast":  # the inverse too: the map is an involution
        with _overflow_rule("the fast transform"):  # fwht follows the caller's error state
            out = fwht(v, count)
    else:
        out, _ = hybrid_wht(v, hybrid, count)
    elapsed = time.perf_counter() - started
    write_vector(args.output, out)
    _print_report(
        command=args._echo,
        backend=args.backend,
        n=v.size.bit_length() - 1,
        iterations=None,
        elapsed_s=elapsed,
        op_counts={**asdict(count), "total": count.total},
        outputs=[args.output],
        inverse=bool(args.inverse),
        length=int(v.size),
    )
    return EXIT_OK


def cmd_table(args) -> int:
    N = _require_qubits(args.n)
    if args.kind == "character":
        matrix = character_table(args.n)
    elif args.kind == "integration":
        matrix = integration_matrix(N).entries
    else:
        matrix = differentiation_matrix(N).entries
    # Row by row, each made float: a per-column format is slower, matrix.tolist() boxes N^2 cells.
    _write_files([(args.output, (",".join(map(repr, row.astype(float).tolist())) + "\n"
                                 for row in matrix))])
    return EXIT_OK


def _problem_from_args(args) -> tuple[IVProblem, str | None]:
    domain = (args.domain[0], args.domain[1])
    if args.problem:
        if args.init is not None:
            raise ValueError(f"--init applies to --rhs systems only; "
                             f"{args.problem} has its own initial values")
        return replace(builtin_problem(args.problem, n=args.n), domain=domain), args.problem
    if not args.rhs:
        raise ValueError("provide either --problem or at least one --rhs")
    rhs = [functools.partial(evaluate, parse(src, len(args.rhs))) for src in args.rhs]
    problem = IVProblem(rhs=rhs, initial=list(args.init or ()), domain=domain, n=args.n)
    return problem, None


def cmd_solve(args) -> int:
    config = SolverConfig(n_max=args.nmax, tol=args.tol, backend=args.backend,
                          epsilon=args.epsilon, shots=args.shots, seed=args.seed)
    problem, known_name = _problem_from_args(args)
    started = time.perf_counter()
    solution, trace = picard_solve(problem, config)
    elapsed = time.perf_counter() - started

    created, head = [], args.output_dir  # the directories this solve makes, deepest first
    while head and not os.path.lexists(head):
        created, head = created + [head], os.path.dirname(head)
    t = solution[0].midpoints
    t_text = list(map(repr, t.tolist()))  # formatted once for all files
    # Analytic references anchor their initial condition at t=0.
    has_reference = known_name is not None and problem.domain[0] == 0.0
    reference = analytic_reference(known_name, t) if has_reference else None
    outputs = [os.path.join(args.output_dir, f"x{i}.csv") for i in range(1, len(solution) + 1)]
    outputs += [os.path.join(args.output_dir, "trace.csv")] * args.trace

    def files():  # each file's columns are made once the writer reaches it
        for i, (path, sf) in enumerate(zip(outputs, solution), start=1):
            header, columns = ["t", f"x{i}"], [t_text, sf.values]
            if reference is not None:
                header += ["analytic", "error"]
                columns += [reference[i - 1], sf.values - reference[i - 1]]
            yield path, _csv(header, [columns])
        if args.trace:
            # One block per sweep and variable, so no column spans the whole trace.
            samples = list(map(str, range(t.size)))
            yield outputs[-1], _csv(["iteration", "variable", "sample", "t", "value"], (
                [[str(k)] * t.size, [f"x{i}"] * t.size, samples, t_text, x]
                for k, snapshot in enumerate(trace.snapshots, start=1)
                for i, x in enumerate(snapshot, start=1)))

    try:
        os.makedirs(args.output_dir, exist_ok=True)
        _write_files(files())
    except BaseException:  # a failed solve also leaves no directory it made
        for directory in created:
            with contextlib.suppress(OSError):  # rmdir takes only an empty directory
                os.rmdir(directory)
        raise

    _print_report(
        command=args._echo,
        backend=args.backend,
        n=problem.n,
        iterations=trace.iterations_run,
        elapsed_s=elapsed,
        op_counts=None,
        outputs=outputs,
        converged=trace.converged,
        final_residual=trace.final_residual,
        problem=known_name or "custom",
    )
    return EXIT_OK


def cmd_bench(args) -> int:
    _require_int(args.repeats, "--repeats", 1)
    for N in args.sizes:
        N, n = _require_length(N)
        require_bytes(16 * N, f"bench input and transform output at N={N}")
        if "naive" in args.backends:
            _require_naive_bytes(n)
    transforms = {"fast": fwht, "naive": wht_naive,
                  "hybrid": lambda v, count: hybrid_wht(v, None, count)}
    rows = []
    for N in args.sizes:
        rng = np.random.default_rng(0)
        v = rng.standard_normal(N)
        for backend in args.backends:
            best = math.inf
            for _ in range(args.repeats):
                count = OpCount()
                started = time.perf_counter()
                transforms[backend](v, count)
                best = min(best, time.perf_counter() - started)
            rows.append((N, backend, count.additions, count.multiplications,
                         count.square_roots, best))
    header = ["N", "backend", "additions", "multiplications", "square_roots", "wall_time_s"]
    _write_files([(args.output, _csv(header, [[np.array(column) for column in zip(*rows)]]))])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walshode",
        description="Walsh-Hadamard transforms, operational matrices and a "
        "Picard ODE solver.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    # The hybrid settings; hybrid.backend_config decides which backend takes which.
    hybrid = argparse.ArgumentParser(add_help=False)
    hybrid.add_argument("--shots", type=int, default=None)
    hybrid.add_argument("--seed", type=int, default=None)
    hybrid.add_argument("--epsilon", type=float, default=None)

    p = sub.add_parser("transform", parents=[hybrid], help="transform a vector file")
    p.add_argument("input", help="vector file, one value per line")
    p.add_argument("-o", "--output", required=True, help="output vector file")
    p.add_argument(
        "--backend",
        choices=["naive", "fast", "hybrid-exact", "hybrid-sampled"],
        default="fast",
    )
    p.add_argument("--inverse", action="store_true",
                   help="apply the inverse transform (same map: involution)")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("table", help="dump a matrix as CSV")
    p.add_argument("--kind", choices=["character", "integration", "differentiation"],
                   required=True)
    p.add_argument("--n", type=int, required=True, help="qubit count (size 2^n)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("solve", parents=[hybrid], help="solve an initial-value problem")
    spec = p.add_mutually_exclusive_group()
    spec.add_argument("--problem", choices=list(_BUILTINS), default=None)
    spec.add_argument("--rhs", action="append", default=None,
                      help="right-hand side over t, x1..xm; repeat per variable. "
                      "Grammar: + - * / ^ (right-assoc), unary -, sin cos tan exp "
                      "log sqrt abs, parentheses; no implicit multiplication")
    p.add_argument("--init", type=float, nargs="+", default=None,
                   help="initial values, one per --rhs")
    p.add_argument("--n", type=int, default=2, help="resolution exponent (N=2^n)")
    p.add_argument("--nmax", type=int, default=10, help="maximum Picard sweeps")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--backend", choices=_BACKENDS, default="classical")
    p.add_argument("--domain", type=float, nargs=2, default=[0.0, 1.0],
                   metavar=("LO", "HI"))
    p.add_argument("--trace", action="store_true",
                   help="also write every iteration to trace.csv")
    p.add_argument("--output-dir", default=".")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="operation-count and timing table")
    p.add_argument("--sizes", type=int, nargs="+", required=True)
    p.add_argument("--backends", nargs="+", default=["fast", "hybrid"],
                   choices=["fast", "naive", "hybrid"])
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_bench)

    for p in (parser, hybrid, *sub.choices.values()):
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


#: main's parser, built on first use; parse_args leaves it unchanged, so threads share it.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    args._echo = list(argv) if argv is not None else sys.argv[1:]
    try:
        return args.func(args)
    except (ValueError, ResourceLimitError) as exc:
        print(f"walshode: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, DivergenceError) as exc:
        print(f"walshode: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"walshode: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
