"""Command-line behavior: file formats, reports, exit codes, determinism."""

import errno
import importlib
import itertools
import json
import math
import os
import re
import shlex
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import walshode
from walshode import (
    OperationalMatrix,
    SolverConfig,
    analytic_reference,
    character_table,
    cli,
    differentiation_matrix,
    fwht,
    integration_matrix,
    walsh,
)
from walshode.cli import main, read_vector, write_vector
from walshode.hybrid import _SETTINGS, HybridConfig, backend_config
from walshode.quantum import measure_sampled, prepare_state


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_input(path, values):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# input vector\n\n")
        for v in values:
            fh.write(f"{v!r}\n")


# ---------------------------------------------------------------------------
# vector files


def test_vector_file_roundtrip(tmp_path):
    path = tmp_path / "v.txt"
    values = np.array([1 / 3, -2.5, 1e-17, 7.0])
    write_vector(str(path), values)
    assert np.array_equal(read_vector(str(path)), values)


def test_vector_file_comments_and_blanks(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("# comment\n\n0.5\n# another\n-0.25\n")
    assert np.array_equal(read_vector(str(path)), [0.5, -0.25])


# ---------------------------------------------------------------------------
# transform command


def test_transform_fast_ramp(tmp_path, capsys):
    src = tmp_path / "in.txt"
    dst = tmp_path / "out.txt"
    write_input(src, [1 / 8, 3 / 8, 5 / 8, 7 / 8])
    code, out, _ = run(capsys, "transform", str(src), "-o", str(dst))
    assert code == 0
    assert np.allclose(read_vector(str(dst)), [1.0, -0.25, -0.5, 0.0], atol=1e-15)
    report = json.loads(out)
    assert report["backend"] == "fast"
    assert report["op_counts"]["additions"] == 8
    assert report["outputs"] == [str(dst)]


def test_transform_hybrid_exact_matches_fast(tmp_path, capsys):
    src = tmp_path / "in.txt"
    fast_out = tmp_path / "fast.txt"
    hybrid_out = tmp_path / "hybrid.txt"
    write_input(src, [1 / 8, 3 / 8, 5 / 8, 7 / 8])
    assert run(capsys, "transform", str(src), "-o", str(fast_out))[0] == 0
    assert (
        run(capsys, "transform", str(src), "-o", str(hybrid_out),
            "--backend", "hybrid-exact")[0]
        == 0
    )
    a = read_vector(str(fast_out))
    b = read_vector(str(hybrid_out))
    assert np.max(np.abs(a - b)) < 1e-12


def test_transform_inverse_roundtrip_byte_identical(tmp_path, capsys):
    src = tmp_path / "in.txt"
    fwd = tmp_path / "fwd.txt"
    back = tmp_path / "back.txt"
    back2 = tmp_path / "back2.txt"
    write_input(src, [0.3, -1.25, 0.75, 2.0])
    run(capsys, "transform", str(src), "-o", str(fwd))
    run(capsys, "transform", str(fwd), "-o", str(back), "--inverse")
    assert np.max(np.abs(read_vector(str(back)) - [0.3, -1.25, 0.75, 2.0])) < 1e-12
    # Determinism: re-running reproduces byte-identical output.
    run(capsys, "transform", str(fwd), "-o", str(back2), "--inverse")
    assert back.read_bytes() == back2.read_bytes()


# ---------------------------------------------------------------------------
# table command


def test_table_character_n1(capsys):
    code, out, _ = run(capsys, "table", "--kind", "character", "--n", "1")
    assert code == 0
    assert out.splitlines() == ["1.0,1.0", "1.0,-1.0"]


def test_table_integration_n2(capsys):
    code, out, _ = run(capsys, "table", "--kind", "integration", "--n", "2")
    assert code == 0
    rows = [[float(x) for x in line.split(",")] for line in out.splitlines()]
    assert rows == [
        [0.5, 0.125, 0.25, 0.0],
        [-0.125, 0.0, 0.0, 0.0],
        [-0.25, 0.0, 0.0, 0.125],
        [0.0, 0.0, -0.125, 0.0],
    ]


def test_table_differentiation_n2(capsys):
    code, out, _ = run(capsys, "table", "--kind", "differentiation", "--n", "2")
    rows = [[float(x) for x in line.split(",")] for line in out.splitlines()]
    assert code == 0
    assert rows == [
        [0.0, -8.0, 0.0, 0.0],
        [8.0, 32.0, 0.0, 16.0],
        [0.0, 0.0, 0.0, -8.0],
        [0.0, -16.0, 8.0, 0.0],
    ]


@pytest.mark.parametrize("kind", ["character", "integration", "differentiation"])
@pytest.mark.parametrize("n", [1, 3, 6])
def test_table_byte_identical_to_per_cell_writer(tmp_path, capsys, kind, n):
    N = 1 << n
    matrix = {
        "character": lambda: character_table(n).astype(float),
        "integration": lambda: integration_matrix(N).entries,
        "differentiation": lambda: differentiation_matrix(N).entries,
    }[kind]()
    expected = "\n".join(",".join(repr(float(x)) for x in row) for row in matrix) + "\n"
    code, out, _ = run(capsys, "table", "--kind", kind, "--n", str(n))
    assert code == 0
    assert out == expected
    dst = tmp_path / "table.csv"
    code, out, _ = run(capsys, "table", "--kind", kind, "--n", str(n), "-o", str(dst))
    assert code == 0 and out == ""
    assert dst.read_bytes() == expected.encode("utf-8")


def test_table_converts_one_row_at_a_time(tmp_path, capsys):
    # The dense array is built inside the traced run; matrix.tolist() over
    # all N^2 cells peaked near 44 MiB here.
    dense_bytes = 8 * 1024 * 1024
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "table", "--kind", "integration", "--n", "10",
                           "-o", str(tmp_path / "table.csv"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and out == ""
    assert peak < 3 * dense_bytes


def test_character_table_dump_peaks_below_the_int64_build(tmp_path, capsys, monkeypatch):
    # At n=10 the int32 pairwise ANDs and their uint8 popcounts take 5 MiB,
    # and numpy's buffers for the broadcast AND 64 KiB: the table build's
    # charge.  The CSV text is written row by row, so it adds
    # at most one row (about 5 KiB of text) to the int8 table.  The int64
    # build alone took 16 MiB, and the text joined whole about 10 MiB.
    charged = []
    real = walsh.require_bytes

    def record(nbytes, what):
        charged.append(nbytes)
        real(nbytes, what)

    monkeypatch.setattr(walsh, "require_bytes", record)
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "table", "--kind", "character", "--n", "10",
                           "-o", str(tmp_path / "table.csv"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and out == ""
    assert charged == [1024 * (5 * 1024 + 4) + 8 * 8192]
    assert peak <= charged[0] + (64 << 10)


# ---------------------------------------------------------------------------
# solve command


def test_solve_riccati_matches_published_iterate(tmp_path, capsys):
    code, out, _ = run(capsys, "solve", "--problem", "riccati", "--n", "2",
                       "--nmax", "10", "--tol", "0",
                       "--output-dir", str(tmp_path))
    assert code == 0
    report = json.loads(out)
    assert report["iterations"] == 10
    lines = (tmp_path / "x1.csv").read_text().splitlines()
    assert lines[0] == "t,x1,analytic,error"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert np.max(np.abs(np.array(values) - [-0.40512, -0.20567, 0.02743, 0.33735])) < 5e-5


def test_solve_beer_system_sweep_8(tmp_path, capsys):
    code, _, _ = run(capsys, "solve", "--problem", "beer_system", "--n", "2",
                     "--nmax", "8", "--tol", "0", "--output-dir", str(tmp_path))
    assert code == 0
    for i, expected in (
        (1, [0.11960814, 0.33997528, 0.51224524, 0.62590886]),
        (2, [0.95686836, 0.80607053, 0.57178512, 0.33552362]),
    ):
        lines = (tmp_path / f"x{i}.csv").read_text().splitlines()
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert np.max(np.abs(np.array(values) - expected)) < 1e-7


def test_solve_expression_path_matches_builtin(tmp_path, capsys):
    by_name = tmp_path / "by_name"
    by_expr = tmp_path / "by_expr"
    run(capsys, "solve", "--problem", "riccati", "--n", "2", "--nmax", "10",
        "--tol", "0", "--output-dir", str(by_name))
    code, _, _ = run(capsys, "solve", "--rhs", "x1^2+x1+1", "--init", "-0.5",
                     "--n", "2", "--nmax", "10", "--tol", "0",
                     "--output-dir", str(by_expr))
    assert code == 0
    name_rows = (by_name / "x1.csv").read_text().splitlines()[1:]
    expr_rows = (by_expr / "x1.csv").read_text().splitlines()[1:]
    for a, b in zip(name_rows, expr_rows):
        # Expression output has no analytic columns; compare t and value.
        assert a.split(",")[:2] == b.split(",")[:2]


def test_solve_hybrid_exact_backend_matches_classical(tmp_path, capsys):
    classical = tmp_path / "classical"
    hybrid = tmp_path / "hybrid"
    run(capsys, "solve", "--problem", "beer_system", "--n", "2", "--nmax", "8",
        "--tol", "0", "--output-dir", str(classical))
    code, _, _ = run(capsys, "solve", "--problem", "beer_system", "--n", "2",
                     "--nmax", "8", "--tol", "0", "--backend", "hybrid-exact",
                     "--output-dir", str(hybrid))
    assert code == 0
    for name in ("x1.csv", "x2.csv"):
        a = [float(line.split(",")[1])
             for line in (classical / name).read_text().splitlines()[1:]]
        b = [float(line.split(",")[1])
             for line in (hybrid / name).read_text().splitlines()[1:]]
        assert np.max(np.abs(np.array(a) - b)) < 1e-10


def test_solve_trace_output(tmp_path, capsys):
    code, _, _ = run(capsys, "solve", "--problem", "riccati", "--n", "2",
                     "--nmax", "3", "--tol", "0", "--trace",
                     "--output-dir", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "iteration,variable,sample,t,value"
    assert len(lines) == 1 + 3 * 1 * 4  # sweeps * variables * samples


def test_solve_trace_is_written_one_sweep_at_a_time(tmp_path, capsys):
    # Beer at n=10 takes 18 sweeps.  Writing trace.csv may hold the index
    # columns and text of one sweep of one variable, no more than an x*.csv
    # chunk; columns spanning the whole trace take ~39 bytes a row, 18 sweeps.
    m, N = 2, 1024
    argv = ["solve", "--problem", "beer_system", "--n", "10", "--nmax", "40",
            "--output-dir", str(tmp_path / "out")]
    run(capsys, *argv)  # first-run costs (operator memo, imports) fall outside
    peaks = []
    for trace in ([], ["--trace"]):
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, *argv, *trace)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    assert len((tmp_path / "out" / "trace.csv").read_text().splitlines()) == 1 + 18 * m * N
    assert peaks[1] - peaks[0] <= 64 * m * N


def test_solve_large_grid_uses_no_dense_operator(tmp_path, capsys, monkeypatch):
    def forbidden(self):
        raise AssertionError("dense operator built on the solve path")

    monkeypatch.setattr(OperationalMatrix, "entries", property(forbidden))
    code, out, _ = run(capsys, "solve", "--problem", "riccati", "--n", "16",
                       "--nmax", "3", "--output-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["iterations"] == 3


def test_solve_cap_charges_kept_sweeps_not_nmax(tmp_path, capsys):
    # 2000 sweeps at n=16 would pass the cap; the 18 it runs do not.
    code, out, err = run(capsys, "solve", "--problem", "beer_system", "--n", "16",
                         "--nmax", "2000", "--output-dir", str(tmp_path))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["converged"] and report["iterations"] == 18


def test_solve_shifted_domain_drops_analytic_columns(tmp_path, capsys):
    # The builtin references anchor x(0); a domain not starting at 0 cannot
    # be compared against them.
    code, _, _ = run(capsys, "solve", "--problem", "riccati", "--n", "2",
                     "--nmax", "2", "--tol", "0", "--domain", "0.25", "0.75",
                     "--output-dir", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "x1.csv").read_text().splitlines()
    assert lines[0] == "t,x1"


@pytest.mark.parametrize("flag, spelled, plain", [
    ("--init", ["-1e-3"], ["-0.001"]),
    ("--init", ["-1E+2"], ["-100.0"]),
    ("--init", ["-2.5e-1"], ["-0.25"]),
    ("--domain", ["-1e-3", "1"], ["-0.001", "1"]),
    ("--domain", ["-1E+2", "1"], ["-100.0", "1"]),
    ("--domain", ["-2.5e-1", "1"], ["-0.25", "1"]),
])
def test_negative_values_with_an_exponent_are_values(tmp_path, capsys, flag, spelled, plain):
    def solve(values, out):
        init = [] if flag == "--init" else ["--init", "0.5"]
        code, report, err = run(capsys, "solve", "--rhs", "t", *init, flag, *values,
                                "--output-dir", str(tmp_path / out))
        assert (code, err) == (0, "")
        return (tmp_path / out / "x1.csv").read_bytes()

    assert solve(spelled, "spelled") == solve(plain, "plain")


# ---------------------------------------------------------------------------
# output files: the column-wise writers against the per-cell writer


def _per_cell_csv(header, rows):
    """The per-cell writer: ``repr`` of each float cell, ``str`` of any other."""
    lines = [",".join(header)] + [
        ",".join(f"{cell!r}" if isinstance(cell, float) else str(cell) for cell in row)
        for row in rows
    ]
    return "".join(line + "\n" for line in lines).encode("utf-8")


def _spy_on_solve(monkeypatch):
    """Keep what the CLI's solve returned, so the oracle writes the same data."""
    seen = {}
    real = cli.picard_solve

    def spy(problem, config):
        seen["solution"], seen["trace"] = real(problem, config)
        return seen["solution"], seen["trace"]

    monkeypatch.setattr(cli, "picard_solve", spy)
    return seen


@pytest.mark.parametrize("spec, reference", [
    (["--problem", "beer_system"], "beer_system"),
    (["--rhs", "x2", "--rhs", "sin(t)-x1", "--init", "0.5", "-0.25"], None),
    # Midpoints of [0.1, 0.7] have long reprs; one formatted t column serves
    # three files and trace.csv.
    (["--rhs", "x2", "--rhs", "x3 - x1", "--rhs", "cos(t) * x1", "--init", "1", "0", "0.5",
      "--domain", "0.1", "0.7"], None),
    # 8192 rows: two _CHUNK_ROWS chunks per file and per trace block, so the
    # list columns are sliced across a chunk boundary.
    (["--problem", "beer_system", "--n", "13"], "beer_system"),
])
def test_solve_files_byte_identical_to_per_cell_writer(
        tmp_path, capsys, monkeypatch, spec, reference):
    seen = _spy_on_solve(monkeypatch)
    # n=5 unless the spec's own --n, parsed later, replaces it.
    code, _, _ = run(capsys, "solve", "--n", "5", *spec, "--nmax", "6", "--tol", "0",
                     "--trace", "--output-dir", str(tmp_path))
    assert code == 0
    solution, trace = seen["solution"], seen["trace"]
    t = solution[0].midpoints
    exact = analytic_reference(reference, t) if reference else None
    for i, sf in enumerate(solution, start=1):
        if exact is None:
            header = ["t", f"x{i}"]
            rows = [(float(t[s]), float(sf.values[s])) for s in range(t.size)]
        else:
            header = ["t", f"x{i}", "analytic", "error"]
            rows = [(float(t[s]), float(sf.values[s]), float(exact[i - 1][s]),
                     float(sf.values[s] - exact[i - 1][s])) for s in range(t.size)]
        assert (tmp_path / f"x{i}.csv").read_bytes() == _per_cell_csv(header, rows)
    rows = [(sweep, f"x{i}", s, float(t[s]), float(x[s]))
            for sweep, snapshot in enumerate(trace.snapshots, start=1)
            for i, x in enumerate(snapshot, start=1)
            for s in range(x.size)]
    assert len(rows) == 6 * len(solution) * (8192 if "--n" in spec else 32)
    assert (tmp_path / "trace.csv").read_bytes() == _per_cell_csv(
        ["iteration", "variable", "sample", "t", "value"], rows)


def test_transform_file_byte_identical_to_per_value_writer(tmp_path, capsys):
    values = np.random.default_rng(8).standard_normal(256) * 10.0 ** np.arange(-128, 128)
    src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
    write_input(src, values.tolist())
    code, _, _ = run(capsys, "transform", str(src), "-o", str(dst))
    assert code == 0
    expected = "".join(f"{float(value)!r}\n" for value in fwht(values))
    assert dst.read_bytes() == expected.encode("utf-8")


# ---------------------------------------------------------------------------
# bench command


def test_bench_counts(tmp_path, capsys):
    out_file = tmp_path / "bench.csv"
    code, _, _ = run(capsys, "bench", "--sizes", "2", "16", "1024", "2048",
                     "--backends", "fast", "hybrid", "--repeats", "2",
                     "-o", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "N,backend,additions,multiplications,square_roots,wall_time_s"
    table = {}
    for line in lines[1:]:
        cells = line.split(",")
        table[(int(cells[0]), cells[1])] = [int(cells[2]), int(cells[3]), int(cells[4])]
    assert table[(2, "fast")][0] == 2
    assert table[(16, "fast")][0] == 16 * 4
    assert table[(1024, "fast")][0] == 10240
    hybrid_1024 = sum(table[(1024, "hybrid")])
    hybrid_2048 = sum(table[(2048, "hybrid")])
    assert hybrid_2048 == 2 * hybrid_1024


SETTINGS = {"epsilon": 0.5, "shots": 1000, "seed": 3}
#: Each combination of the good values, then each bound of one setting given with the
#: good values of the others the backend takes.
GIVEN = [pytest.param(names, {}, id="+".join(names) or "none")
         for r in range(4) for names in itertools.combinations(SETTINGS, r)]
GIVEN += [pytest.param(None, {name: value}, id=f"{name}={value}")
          for name, value in [("epsilon", math.inf), ("epsilon", -math.inf), ("epsilon", math.nan),
                              ("seed", -1), ("shots", 0), ("shots", 2**63), ("shots", 2**63 - 1)]]


@pytest.mark.parametrize("given, bound", GIVEN)
@pytest.mark.parametrize("command, backend", [
    ("solve", "classical"),
    ("solve", "hybrid-exact"),
    ("solve", "hybrid-sampled"),
    ("transform", "naive"),
    ("transform", "fast"),
    ("transform", "hybrid-exact"),
    ("transform", "hybrid-sampled"),
])
def test_cli_and_library_agree_on_settings(tmp_path, capsys, command, backend, given, bound):
    names = _SETTINGS.get(backend, ()) if given is None else given
    settings = {**{name: SETTINGS[name] for name in names}, **bound}
    try:
        if command == "solve":
            SolverConfig(n_max=1, backend=backend, **settings)
        else:
            backend_config(backend, **settings)
        expected = None
    except ValueError as exc:
        expected = str(exc)

    flags = [str(x) for name, value in settings.items() for x in (f"--{name}", value)]
    code, out, err = run(capsys, *_command_argv(tmp_path, command), "--backend", backend, *flags)
    if expected is None:
        assert (code, err) == (0, "")
    else:
        assert (code, out, err) == (2, "", f"walshode: error: {expected}\n")
        assert not (tmp_path / "out").exists()


def test_every_entry_point_refuses_an_unseeded_sampled_run():
    # There is no default seed: unseeded runs used to share the noise of seed 12345.
    # The CLI's refusal is the unseeded-sampled rows of FAILURES.
    message = "seed must be an integer >= 0, got None"
    for refuse in (lambda: HybridConfig(shots=100),
                   lambda: backend_config("hybrid-sampled", shots=100),
                   lambda: SolverConfig(n_max=1, backend="hybrid-sampled", shots=100),
                   lambda: measure_sampled(prepare_state([0.6, 0.8]), 100, None)):
        with pytest.raises(ValueError) as info:
            refuse()
        assert str(info.value) == message
    with pytest.raises(TypeError, match="seed"):
        measure_sampled(prepare_state([0.6, 0.8]), 100)
    # An exact run draws nothing, so it needs no seed; a seed it is given is still checked.
    assert HybridConfig().seed is backend_config("hybrid-exact").seed is None
    with pytest.raises(ValueError, match="^seed must be an integer >= 0, got -1$"):
        HybridConfig(seed=-1)


def _command_argv(tmp_path, command):
    """A one-sweep Riccati solve or a length-4 transform, writing to tmp_path/out."""
    if command == "solve":
        return ["solve", "--problem", "riccati", "--nmax", "1",
                "--output-dir", str(tmp_path / "out")]
    write_input(tmp_path / "in.txt", [0.5, 0.25, -1.0, 2.0])
    return ["transform", str(tmp_path / "in.txt"), "-o", str(tmp_path / "out")]


def test_one_parser_per_process():
    # main parses with one parser; build_parser still makes a fresh one.
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


# ---------------------------------------------------------------------------
# failures: the exit code, one stderr line, no report and no file


def _failure(id, code, argv, line, files=None, forbid=None):
    """A FAILURES row; "{tmp}" in argv, files and line stands for the test's tmp_path."""
    return pytest.param(argv, code, line, files or {}, forbid, id=id)


#: The prefixes of a transform of {tmp}/in.txt and of a solve, each writing {tmp}/out.
TRANSFORM = "transform {tmp}/in.txt -o {tmp}/out "
SOLVE = "solve --output-dir {tmp}/out "
#: Expressions nested k levels deep, five ways.
NESTS = {
    "parentheses": lambda k: "(" * k + "x1" + ")" * k,
    "calls": lambda k: "abs(" * k + "x1" + ")" * k,
    "unary-minus": lambda k: "-" * k + "x1",
    "flat-sum": lambda k: "+".join(["x1"] * (k + 1)),
    "power-chain": lambda k: "^".join(["x1"] * (k + 1)),
}
QUBITS = "qubit count must be an integer in [1, 62], got "
NORM = "the shifted vector's squared norm "
DOMAIN = "domain must be finite with t_lo < t_hi and a finite width, got "

#: Every failing command: argv as a shell line, exit code, the one stderr line main prints,
#: the files the command is given (text, or None for a directory in the way), and a numpy
#: allocator it may not call.  An argparse usage error (no "walshode: " prefix) prints its
#: usage first; its last line holds the row's text, as argparse 3.10-3.13 words it.
FAILURES = [
    *(_failure(f"transform-{name}", 2, TRANSFORM, f"walshode: error: {{tmp}}/in.txt:{line}",
               {"in.txt": text}) for name, text, line in [
        ("not-a-number", "0.5\nbanana\n", "2: not a number: 'banana'"),
        ("nan", "0.5\nnan\n", "2: not a finite number: 'nan'"),
        ("inf", "0.5\ninf\n", "2: not a finite number: 'inf'"),
        ("-inf", "0.5\n-inf\n", "2: not a finite number: '-inf'"),
    ]),
    _failure("transform-length-3", 2, TRANSFORM,
             "walshode: error: vector length must be a power of two >= 2, got 3",
             {"in.txt": "1\n2\n3\n"}),
    _failure("transform-comments-only", 2, TRANSFORM,
             "walshode: error: {tmp}/in.txt: no values found", {"in.txt": "# input vector\n\n"}),
    _failure("transform-unseeded-sampled", 2, TRANSFORM + "--backend hybrid-sampled --shots 100",
             "walshode: error: seed must be an integer >= 0, got None",
             {"in.txt": "0.5\n0.25\n-1\n2\n"}),
    _failure("transform-no-output", 2, "transform",
             "the following arguments are required: input, -o/--output"),
    *(_failure(f"transform-hybrid-norm-overflow-{name}", 3, TRANSFORM + "--backend hybrid-exact",
               f"walshode: numeric failure: {NORM}overflows float64 (shift 1.001e+160)",
               {"in.txt": text})
      for name, text in [("first", "1e160\n1\n0\n0\n"), ("rest", "1\n1e160\n0\n0\n")]),
    # By the overflow rule: fwht follows the caller's error state, which the command sets.
    *(_failure(f"transform-{backend}{inverse.replace(' --', '-')}-overflow", 3,
               TRANSFORM + f"--backend {backend}{inverse}",
               f"walshode: numeric failure: {what} overflows float64",
               {"in.txt": "1e308\n1e308\n"})
      for backend, what in (("fast", "the fast transform"), ("naive", "wht_naive"))
      for inverse in ("", " --inverse")),
    _failure("transform-hybrid-absolute-sum-overflow", 3, TRANSFORM + "--backend hybrid-exact",
             f"walshode: numeric failure: {NORM}overflows float64 (shift inf)",
             {"in.txt": "1e308\n1e308\n"}),
    _failure("transform-hybrid-norm-underflow", 3,
             TRANSFORM + "--backend hybrid-exact --epsilon 1e-200",
             f"walshode: numeric failure: {NORM}underflows float64 (shift 1e-200)",
             {"in.txt": "0\n0\n"}),
    _failure("transform-missing-input", 4, "transform {tmp}/nope.txt -o {tmp}/out",
             "walshode: i/o error: [Errno 2] No such file or directory: '{tmp}/nope.txt'"),
    *(_failure(f"{name}-n={n}", 2, f"{command} --n {n}", "walshode: error: " + QUBITS + n)
      for name, command in [("table-character", "table --kind character"),
                            ("table-integration", "table --kind integration"),
                            ("table-differentiation", "table --kind differentiation"),
                            ("solve", SOLVE + "--problem riccati")]
      for n in ("-1", "0", "63", "1000000000")),
    # n=16 is a valid qubit count; the dense table would take 32 GiB.
    *(_failure(f"table-{kind}-over-the-cap", 2, f"table --kind {kind} --n 16",
               f"walshode: error: {what} needs {nbytes} bytes, over the cap of {1 << 30}",
               forbid=forbid) for kind, what, nbytes, forbid in [
        ("integration", "dense integration matrix at n=16", 34359742464, "numpy.zeros"),
        ("differentiation", "dense differentiation matrix at n=16", 34359742464, "numpy.zeros"),
        ("character", "character table for n=16", 21475164160, "numpy.arange"),
    ]),
    _failure("table-unwritable-output", 4, "table --kind character --n 1 -o {tmp}/no/t.csv",
             "walshode: i/o error: [Errno 2] No such file or directory: '{tmp}/no/t.csv'"),
    _failure("solve-parse-error", 2, SOLVE + "--rhs 'x1 +' --init 0",
             "walshode: error: expected a value, got 'end of input' (at offset 4)"),
    # A literal past float64's range is refused as --init 1e400 is, not solved as inf.
    _failure("solve-rhs-not-finite", 2, SOLVE + "--rhs 1e400 --init 1",
             "walshode: error: not a finite number: '1e400' (at offset 0)"),
    *(_failure(f"solve-nested-{name}", 2, SOLVE + f"--rhs={NESTS[name](3000)} --init 1 --nmax 1",
               f"walshode: error: expression nested deeper than 100 levels (at offset {offset})")
      for name, offset in [("parentheses", 100), ("calls", 400), ("unary-minus", 100),
                           ("flat-sum", 302), ("power-chain", 302)]),
    _failure("solve-over-the-cap", 2, SOLVE + "--problem riccati --n 40",
             "walshode: error: picard_solve at n=40, m=1, sweep 1 needs 35184372088832 bytes, "
             f"over the cap of {1 << 30}", forbid="numpy.arange"),
    _failure("solve-init-for-two", 2, SOLVE + "--rhs x1 --rhs x2 --init 0",
             "walshode: error: need one initial value per right-hand side (m=2), got 1"),
    _failure("solve-no-init", 2, SOLVE + "--rhs x1",
             "walshode: error: need one initial value per right-hand side (m=1), got 0"),
    _failure("solve-no-problem", 2, SOLVE,
             "walshode: error: provide either --problem or at least one --rhs"),
    _failure("solve-init-with-builtin", 2, SOLVE + "--problem riccati --init 5",
             "walshode: error: --init applies to --rhs systems only; riccati has its own "
             "initial values"),
    *(_failure(f"solve-{name}", 2, SOLVE + flags, f"walshode: error: {message}")
      for name, flags, message in [
        ("init-inf", "--rhs x1 --init inf", "initial values must be finite, got inf"),
        ("init-nan", "--rhs x1 --init nan", "initial values must be finite, got nan"),
        ("rhs-domain-inf", "--rhs x1 --init 1 --domain 0 inf", DOMAIN + "(0.0, inf)"),
        ("domain-inf", "--problem riccati --domain 0 inf", DOMAIN + "(0.0, inf)"),
        ("domain-nan", "--problem riccati --domain nan 1",
         "domain end must be a real number, got nan"),
        ("domain-reversed", "--problem riccati --domain 1 0", DOMAIN + "(1.0, 0.0)"),
        ("tol-nan", "--problem riccati --tol nan", "tol must be >= 0 and finite, got nan"),
        # argparse takes "-1e308" for an option; the digits spell the same float.
        ("domain-too-wide", f"--problem riccati --domain {-10**308} 1e308",
         DOMAIN + "(-1e+308, 1e+308)"),
        ("tol-inf", "--problem riccati --tol inf", "tol must be >= 0 and finite, got inf"),
        # argparse took "-inf" for an option; now it reaches the library's finite checks.
        ("init--inf", "--rhs x1 --init -inf", "initial values must be finite, got -inf"),
        ("init--Infinity", "--rhs x1 --init -Infinity", "initial values must be finite, got -inf"),
        ("init--NaN", "--rhs x1 --init -NaN", "initial values must be finite, got nan"),
        ("tol--inf", "--problem riccati --tol -inf", "tol must be >= 0 and finite, got -inf"),
        ("tol--nan", "--problem riccati --tol -nan", "tol must be >= 0 and finite, got nan"),
        ("epsilon--INF", "--problem riccati --backend hybrid-exact --epsilon -INF",
         "epsilon must be > 0 and finite, got -inf"),
        ("domain--inf", "--problem riccati --domain -inf 1", DOMAIN + "(-inf, 1.0)"),
        ("unseeded-sampled", "--problem riccati --nmax 1 --backend hybrid-sampled --shots 100",
         "seed must be an integer >= 0, got None"),
    ]),
    _failure("solve-option-after-init", 2, SOLVE + "--rhs x1 --init -x",
             "argument --init: expected at least one argument"),
    _failure("solve-problem-and-rhs", 2, SOLVE + "--problem riccati --rhs x1",
             "argument --rhs: not allowed with argument --problem"),
    _failure("solve-divergence", 3, SOLVE + "--rhs x1^2 --init 2 --nmax 100 --tol 0",
             "walshode: numeric failure: iterate magnitude exceeded 1e+12"),
    *(_failure(f"solve-domain-error-{name}", 3, SOLVE + f"--rhs '{rhs}' --init 0{flags}",
               f"walshode: numeric failure: right-hand side failed at t=0.125: {message}")
      for name, rhs, flags, message in [
        ("5-sweeps", "1/x1", " --nmax 5", "1.0 / 0.0 is undefined"),
        ("1/x1", "1/x1", "", "1.0 / 0.0 is undefined"),
        ("log(x1)", "log(x1)", "", "log(0.0) is undefined"),
        ("sqrt(x1-1)", "sqrt(x1-1)", "", "sqrt(-1.0) is undefined"),
    ]),
    # An overflow in the expression is inf, which the solver refuses by name.
    _failure("solve-rhs-overflow", 3, SOLVE + "--rhs 'exp(1000*x1)' --init 1",
             "walshode: numeric failure: right-hand side produced a non-finite value"),
    # exp(709.7) is finite, but its integral overflows, on every backend by the overflow rule.
    *(_failure(f"solve-{backend}-integral-overflow", 3,
               SOLVE + f"--rhs 'exp(709.7)' --init 0 --n 4 --nmax 3 --tol 0 --backend {backend}",
               f"walshode: numeric failure: the integral of x1 failed: {message}")
      for backend, message in [
        ("classical", "integrate_sampled overflows float64"),
        ("hybrid-exact", f"{NORM}overflows float64 (shift inf)"),
    ]),
    # The midpoints of [0, 1e308] are finite; only the iterate runs away.
    _failure("solve-wide-domain", 3, SOLVE + "--problem riccati --domain 0 1e308",
             "walshode: numeric failure: iterate magnitude exceeded 1e+12"),
    _failure("solve-hybrid-norm-underflow", 3,
             SOLVE + "--rhs 0 --init 0 --backend hybrid-exact --epsilon 1e-200",
             f"walshode: numeric failure: the integral of x1 failed: {NORM}underflows float64 "
             "(shift 1e-200)"),
    # A file in the way of a later output: the ones already written go too.
    *(_failure(f"solve-{name}-in-the-way", 4, SOLVE + "--problem beer_system --n 3" + flags,
               f"walshode: i/o error: [Errno 21] Is a directory: '{{tmp}}/out/{name}'",
               {f"out/{name}": None})
      for name, flags in [("x2.csv", ""), ("trace.csv", " --trace")]),
    _failure("bench-size-12", 2, "bench --sizes 16 12",
             "walshode: error: vector length must be a power of two >= 2, got 12",
             forbid="numpy.random.default_rng"),
    # 2^27 points: the input and the transform output take 2 GiB.  At 2^14
    # points the naive transform's tables take 9N^2 = 2.25 GiB.
    _failure("bench-over-the-cap", 2, f"bench --sizes 16 {1 << 27}",
             "walshode: error: bench input and transform output at N=134217728 needs "
             f"2147483648 bytes, over the cap of {1 << 30}", forbid="numpy.random.default_rng"),
    _failure("bench-naive-over-the-cap", 2, f"bench --sizes 4 {1 << 14} --backends naive",
             f"walshode: error: naive transform at n=14 needs 2415919104 bytes, over the cap of "
             f"{1 << 30}", forbid="numpy.random.default_rng"),
    _failure("bench-zero-repeats", 2, "bench --sizes 16 --repeats 0",
             "walshode: error: --repeats must be an integer >= 1, got 0"),
    _failure("bench-unwritable-output", 4, "bench --sizes 2 --repeats 1 -o {tmp}/no/b.csv",
             "walshode: i/o error: [Errno 2] No such file or directory: '{tmp}/no/b.csv'"),
]
#: Each (command, exit code) a failing command can reach has a row.
assert {(p.values[0].split()[0], p.values[1]) for p in FAILURES} == {
    *(("transform", code) for code in (2, 3, 4)), ("table", 2), ("table", 4),
    *(("solve", code) for code in (2, 3, 4)), ("bench", 2), ("bench", 4)}


def _tree(root):
    """Every path under root: a file's bytes, or None for a directory."""
    return {path: None if path.is_dir() else path.read_bytes() for path in root.rglob("*")}


@pytest.mark.parametrize("argv, code, line, files, forbid", FAILURES)
def test_a_failed_command_prints_one_line_and_writes_nothing(
        tmp_path, capsys, monkeypatch, argv, code, line, files, forbid):
    for name, text in files.items():
        if text is None:
            (tmp_path / name).mkdir(parents=True)
        else:
            (tmp_path / name).write_text(text)
    given = _tree(tmp_path)
    if forbid:
        def forbidden(*args, **kwargs):
            raise AssertionError(f"{forbid} called")

        monkeypatch.setattr(forbid, forbidden)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in shlex.split(argv)]
    line = line.replace("{tmp}", str(tmp_path))
    try:
        got, usage = main(argv), False
    except SystemExit as exc:  # argparse's own usage errors
        got, usage = exc.code, True
    out, err = capsys.readouterr()
    assert (got, out) == (code, "")
    assert usage == (not line.startswith("walshode: "))
    if usage:
        assert line in err.splitlines()[-1]
    else:
        assert err == line + "\n"
    assert _tree(tmp_path) == given


def _disk_full_after_one_chunk(monkeypatch, whole_files=0):
    """After ``whole_files`` files, the next file cli writes takes one chunk and fails as a
    full disk does."""
    real_open = open
    opened = itertools.count()

    class Full:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def writelines(self, chunks):
            self.fh.write(next(iter(chunks)))
            self.fh.flush()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def full_open(path, mode="r", **kwargs):
        fh = real_open(path, mode, **kwargs)
        return fh if mode == "r" or next(opened) < whole_files else Full(fh)

    monkeypatch.setattr(cli, "open", full_open, raising=False)


DISK_FULL = f"walshode: i/o error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("existed", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("argv", ["transform {tmp}/in.txt -o {tmp}/out.txt",
                                  "table --kind character --n 2 -o {tmp}/out.txt",
                                  "bench --sizes 2 4 --repeats 1 -o {tmp}/out.txt"],
                         ids=["transform", "table", "bench"])
def test_a_failed_write_removes_the_file_it_created_and_no_other(
        tmp_path, capsys, monkeypatch, argv, existed):
    (tmp_path / "in.txt").write_text("1\n2\n")
    if existed:  # a path that was there before is never removed
        (tmp_path / "out.txt").write_text("earlier\n")
    _disk_full_after_one_chunk(monkeypatch)
    assert main(argv.replace("{tmp}", str(tmp_path)).split()) == 4
    assert capsys.readouterr() == ("", DISK_FULL)
    # No temporary is left, and an existing file keeps its old bytes.
    assert _tree(tmp_path) == {tmp_path / "in.txt": b"1\n2\n",
                               **({tmp_path / "out.txt": b"earlier\n"} if existed else {})}


@pytest.mark.parametrize("whole_files", [0, 2], ids=["x1.csv", "trace.csv"])
def test_a_failed_solve_removes_the_directories_it_made(
        tmp_path, capsys, monkeypatch, whole_files):
    (tmp_path / "earlier").mkdir()
    _disk_full_after_one_chunk(monkeypatch, whole_files)
    argv = f"solve --problem beer_system --n 3 --trace --output-dir {tmp_path}/earlier/new/out"
    assert main(argv.split()) == 4
    assert capsys.readouterr() == ("", DISK_FULL)
    assert _tree(tmp_path) == {tmp_path / "earlier": None}


SOLVE_BEER = "solve --problem beer_system --n 3 --trace --output-dir "


@pytest.mark.parametrize("whole_files", [0, 1, 2], ids=["x1.csv", "x2.csv", "trace.csv"])
def test_a_failed_solve_leaves_the_files_it_would_replace(
        tmp_path, capsys, monkeypatch, whole_files):
    # As with -o: every file keeps its old bytes, also those written whole before the failure.
    for name in ("x1.csv", "x2.csv", "trace.csv"):
        (tmp_path / name).write_text("earlier\n")
    given = _tree(tmp_path)
    _disk_full_after_one_chunk(monkeypatch, whole_files)
    assert main((SOLVE_BEER + str(tmp_path)).split()) == 4
    assert capsys.readouterr() == ("", DISK_FULL)
    assert _tree(tmp_path) == given  # and no temporary is left


def test_a_replace_failing_in_the_commit_loop_leaves_the_files_replaced_before_it(
        tmp_path, capsys, monkeypatch):
    for name in ("x1.csv", "x2.csv", "trace.csv"):
        (tmp_path / name).write_text("earlier\n")
    real_replace, calls = os.replace, itertools.count()

    def replace(source, target):
        if next(calls):  # x1.csv is replaced, x2.csv is not
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        real_replace(source, target)

    monkeypatch.setattr(os, "replace", replace)
    assert main((SOLVE_BEER + str(tmp_path)).split()) == 4
    assert capsys.readouterr() == ("", f"walshode: i/o error: [Errno {errno.EIO}] "
                                       f"{os.strerror(errno.EIO)}\n")
    tree = _tree(tmp_path)
    assert sorted(path.name for path in tree) == ["trace.csv", "x1.csv", "x2.csv"]
    assert tree[tmp_path / "x1.csv"].startswith(b"t,x1,analytic,error\n")
    assert tree[tmp_path / "x2.csv"] == tree[tmp_path / "trace.csv"] == b"earlier\n"


def test_a_solve_over_its_earlier_files_writes_what_it_writes_into_an_empty_directory(
        tmp_path, capsys):
    (tmp_path / "over").mkdir()
    for name in ("x1.csv", "x2.csv", "trace.csv"):
        (tmp_path / "over" / name).write_text("earlier\n")
    (tmp_path / "over" / "x2.csv").chmod(0o640)
    for directory in ("empty", "over"):
        assert main((SOLVE_BEER + str(tmp_path / directory)).split()) == 0
    assert capsys.readouterr().err == ""
    written = {directory: {path.name: text for path, text in _tree(tmp_path / directory).items()}
               for directory in ("empty", "over")}
    assert sorted(written["over"]) == ["trace.csv", "x1.csv", "x2.csv"]  # no temporary
    assert written["over"] == written["empty"]
    assert (tmp_path / "over" / "x2.csv").stat().st_mode & 0o777 == 0o640


@pytest.mark.parametrize("nest", NESTS.values(), ids=NESTS)
def test_solve_expression_nested_100_levels_solves(tmp_path, capsys, nest):
    # 3000 levels would pass Python's recursion limit, so parse refuses them (FAILURES).
    code, _, err = run(capsys, "solve", f"--rhs={nest(100)}", "--init", "1", "--nmax", "1",
                       "--output-dir", str(tmp_path / "out"))
    assert (code, err) == (0, "")
    assert (tmp_path / "out" / "x1.csv").exists()


# ---------------------------------------------------------------------------
# documented examples


def readme_examples():
    """Each ``walshode ...`` command of README's command-line block, as argv.

    Every line of the block but blanks and ``#`` comments must be such a command.
    """
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [line.strip() for line in block.replace("\\\n", " ").splitlines()]
    commands = [line for line in lines if line and not line.startswith("#")]
    strays = [line for line in commands if not line.startswith("walshode ")]
    assert not strays, f"README command lines that are not walshode commands: {strays}"
    return [shlex.split(line)[1:] for line in commands]


def test_readme_examples_run(tmp_path, capsys, monkeypatch):
    examples = readme_examples()
    assert {argv[0] for argv in examples} == {"transform", "table", "solve", "bench"}
    monkeypatch.chdir(tmp_path)
    write_input(tmp_path / "input.txt", [0.5, -1.25, 2.0, 0.75, 1.0, 0.0, -0.5, 3.0])
    for argv in examples:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


def test_readme_library_quick_start_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    source = block.split("```", 1)[0]
    assert "picard_solve" in source
    monkeypatch.chdir(tmp_path)
    exec(compile(source, "README.md", "exec"), {})


def readme_module_names():
    """{module: the backticked names before the first full stop of its README paragraph}."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    items = re.findall(r"^- \[`walshode\.(\w+)`\]\([^)]*\): (.*?)(?=^- |^$)", readme, re.M | re.S)
    return {module: [name for name in re.findall(r"`([^`]+)`", re.split(r"\.\s", text)[0])
                     if name.isidentifier()]
            for module, text in items}


#: The modules whose README paragraph opens with their public names; the cli paragraph,
#: last, names a command instead.
README_MODULES = ["walsh", "transform", "quantum", "hybrid", "calculus", "solver", "expr",
                  "errors"]


def test_readme_module_paragraphs_name_the_public_surface():
    lists = readme_module_names()
    assert list(lists) == [*README_MODULES, "cli"]
    named = {name for module in README_MODULES for name in lists[module]}
    assert set(walshode.__all__) - named == set()


@pytest.mark.parametrize("module", README_MODULES)
def test_every_name_a_readme_paragraph_lists_is_in_its_module(module):
    names = readme_module_names()[module]
    assert names
    assert [name for name in names
            if not hasattr(importlib.import_module(f"walshode.{module}"), name)] == []
