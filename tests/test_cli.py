"""Command-line behavior: file formats, reports, exit codes, determinism."""

import itertools
import json
import math
import shlex
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

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


def test_malformed_vector_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "v.txt"
    path.write_text("0.5\nbanana\n")
    code, _, err = run(capsys, "transform", str(path), "-o", str(tmp_path / "o.txt"))
    assert code == 2
    assert "banana" in err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_vector_file_is_usage_error(tmp_path, capsys, bad):
    path = tmp_path / "v.txt"
    path.write_text(f"0.5\n{bad}\n")
    dst = tmp_path / "o.txt"
    code, _, err = run(capsys, "transform", str(path), "-o", str(dst))
    assert code == 2
    assert f"{path}:2" in err
    assert "finite" in err
    assert not dst.exists()


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


def test_transform_non_power_of_two_is_usage_error(tmp_path, capsys):
    src = tmp_path / "in.txt"
    write_input(src, [1.0, 2.0, 3.0])
    code, _, _ = run(capsys, "transform", str(src), "-o", str(tmp_path / "o.txt"))
    assert code == 2


def test_transform_of_comments_only_is_usage_error(tmp_path, capsys):
    src = tmp_path / "in.txt"
    write_input(src, [])
    code, out, err = run(capsys, "transform", str(src), "-o", str(tmp_path / "o.txt"))
    assert (code, out) == (2, "")
    assert err == f"walshode: error: {src}: no values found\n"


def test_transform_hybrid_norm_overflow_is_numeric_failure(tmp_path, capsys):
    # With 1e160 in a[1:], a numpy overflow warning on squaring it would escape
    # main as an exception under the suite's filterwarnings = error.
    src = tmp_path / "in.txt"
    for v in ([1e160, 1.0, 0.0, 0.0], [1.0, 1e160, 0.0, 0.0]):
        write_input(src, v)
        code, out, err = run(capsys, "transform", str(src), "-o", str(tmp_path / "o.txt"),
                             "--backend", "hybrid-exact")
        assert code == 3 and out == ""
        assert err == ("walshode: numeric failure: the shifted vector's squared norm overflows "
                       "float64 (shift 1.001e+160)\n")
        assert not (tmp_path / "o.txt").exists()


@pytest.mark.parametrize("backend", ["fast", "naive"])
@pytest.mark.parametrize("inverse", [[], ["--inverse"]])
def test_transform_overflow_is_numeric_failure(tmp_path, capsys, backend, inverse):
    # The sum 2e308 overflows: no numpy warning, no file of inf, exit 3.
    src = tmp_path / "in.txt"
    write_input(src, [1e308, 1e308])
    code, out, err = run(capsys, "transform", str(src), "-o", str(tmp_path / "o.txt"),
                         "--backend", backend, *inverse)
    assert (code, out) == (3, "")
    assert err == f"walshode: numeric failure: the {backend} transform overflows float64\n"
    assert not (tmp_path / "o.txt").exists()


def test_transform_hybrid_absolute_sum_overflow_is_numeric_failure(tmp_path, capsys):
    src = tmp_path / "in.txt"
    write_input(src, [1e308, 1e308])
    code, out, err = run(capsys, "transform", str(src), "-o", str(tmp_path / "o.txt"),
                         "--backend", "hybrid-exact")
    assert (code, out) == (3, "")
    assert err == ("walshode: numeric failure: the shifted vector's squared norm overflows "
                   "float64 (shift inf)\n")


def test_hybrid_squared_norm_underflow_is_refused_by_name(tmp_path, capsys):
    # epsilon^2 underflows to 0 on a zero input, a norm nothing can be divided
    # by: refused by name, one stderr line, no file, no numpy warning.
    src, dst, out_dir = tmp_path / "in.txt", tmp_path / "o.txt", tmp_path / "solve"
    write_input(src, [0.0, 0.0])
    message = "the shifted vector's squared norm underflows float64 (shift 1e-200)"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "transform", str(src), "-o", str(dst),
                             "--backend", "hybrid-exact", "--epsilon", "1e-200")
        assert (code, out, err) == (3, "", f"walshode: numeric failure: {message}\n")
        code, out, err = run(capsys, "solve", "--rhs", "0", "--init", "0",
                             "--backend", "hybrid-exact", "--epsilon", "1e-200",
                             "--output-dir", str(out_dir))
        assert (code, out) == (3, "")
        assert err == f"walshode: numeric failure: the integral of x1 failed: {message}\n"
    assert not dst.exists() and not out_dir.exists()


def test_transform_missing_file_is_io_error(tmp_path, capsys):
    code, _, _ = run(capsys, "transform", str(tmp_path / "nope.txt"),
                     "-o", str(tmp_path / "o.txt"))
    assert code == 4


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


@pytest.mark.parametrize("n", ["-1", "0", "63", "1000000000"])
@pytest.mark.parametrize("argv", [
    ("table", "--kind", "character"),
    ("table", "--kind", "integration"),
    ("table", "--kind", "differentiation"),
    ("solve", "--problem", "riccati"),
])
def test_qubit_count_outside_int64_range_is_usage_error(tmp_path, capsys, argv, n):
    code, out, err = run(capsys, *argv, "--n", n, *(
        ["--output-dir", str(tmp_path)] if argv[0] == "solve" else []))
    assert code == 2
    assert out == ""
    assert f"qubit count must be an integer in [1, 62], got {n}" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("kind, allocator", [
    ("integration", "zeros"),
    ("differentiation", "zeros"),
    ("character", "arange"),
])
def test_table_dense_matrices_refused_before_allocation(capsys, monkeypatch,
                                                       kind, allocator):
    # n=16 is a valid qubit count; the dense table would take 32 GiB.
    def forbidden(*args, **kwargs):
        raise AssertionError("dense allocation attempted")

    monkeypatch.setattr(np, allocator, forbidden)
    code, out, err = run(capsys, "table", "--kind", kind, "--n", "16")
    assert code == 2
    assert out == ""
    assert "over the cap" in err


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


def test_solve_expression_parse_error_is_usage(tmp_path, capsys):
    code, _, err = run(capsys, "solve", "--rhs", "x1 +", "--init", "0",
                       "--output-dir", str(tmp_path))
    assert code == 2


def test_solve_divergence_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "solve", "--rhs", "x1^2", "--init", "2",
                       "--nmax", "100", "--tol", "0",
                       "--output-dir", str(tmp_path))
    assert code == 3
    assert "numeric" in err


def test_solve_expression_domain_error_is_numeric(tmp_path, capsys):
    code, _, _ = run(capsys, "solve", "--rhs", "1/x1", "--init", "0",
                     "--nmax", "5", "--output-dir", str(tmp_path))
    assert code == 3


@pytest.mark.parametrize("rhs, message", [
    ("1/x1", "right-hand side failed at t=0.125: 1.0 / 0.0 is undefined"),
    ("log(x1)", "right-hand side failed at t=0.125: log(0.0) is undefined"),
    ("sqrt(x1-1)", "right-hand side failed at t=0.125: sqrt(-1.0) is undefined"),
])
def test_solve_expression_domain_error_names_first_point(tmp_path, capsys, rhs, message):
    code, _, err = run(capsys, "solve", "--rhs", rhs, "--init", "0",
                       "--output-dir", str(tmp_path))
    assert code == 3
    assert err == f"walshode: numeric failure: {message}\n"


def test_solve_expression_overflow_is_a_non_finite_value(tmp_path, capsys):
    # An overflow in the expression is inf, which the solver refuses by name.
    code, out, err = run(capsys, "solve", "--rhs", "exp(1000*x1)", "--init", "1",
                         "--output-dir", str(tmp_path / "out"))
    assert (code, out) == (3, "")
    assert err == "walshode: numeric failure: right-hand side produced a non-finite value\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("levels, code", [(100, 0), (3000, 2)])
@pytest.mark.parametrize("nest", [
    lambda k: "(" * k + "x1" + ")" * k,
    lambda k: "abs(" * k + "x1" + ")" * k,
    lambda k: "-" * k + "x1",
    lambda k: "+".join(["x1"] * (k + 1)),
    lambda k: "^".join(["x1"] * (k + 1)),
], ids=["parentheses", "calls", "unary-minus", "flat-sum", "power-chain"])
def test_solve_expression_nesting_is_bounded(tmp_path, capsys, nest, levels, code):
    # 100 levels solve; 3000 would pass Python's recursion limit, so parse refuses them.
    got, out, err = run(capsys, "solve", f"--rhs={nest(levels)}", "--init", "1",
                        "--nmax", "1", "--output-dir", str(tmp_path / "out"))
    assert got == code
    if code:
        assert out == ""
        assert err.startswith("walshode: error: expression nested deeper than 100 levels")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()
    else:
        assert err == ""
        assert (tmp_path / "out" / "x1.csv").exists()


def test_solve_large_grid_uses_no_dense_operator(tmp_path, capsys, monkeypatch):
    def forbidden(self):
        raise AssertionError("dense operator built on the solve path")

    monkeypatch.setattr(OperationalMatrix, "entries", property(forbidden))
    code, out, _ = run(capsys, "solve", "--problem", "riccati", "--n", "16",
                       "--nmax", "3", "--output-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["iterations"] == 3


def test_solve_oversized_grid_refused_before_allocation(tmp_path, capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("grid allocation attempted")

    monkeypatch.setattr(np, "arange", forbidden)
    code, out, err = run(capsys, "solve", "--problem", "riccati", "--n", "40",
                         "--output-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    assert "over the cap" in err


def test_solve_cap_charges_kept_sweeps_not_nmax(tmp_path, capsys):
    # 2000 sweeps at n=16 would pass the cap; the 18 it runs do not.
    code, out, err = run(capsys, "solve", "--problem", "beer_system", "--n", "16",
                         "--nmax", "2000", "--output-dir", str(tmp_path))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["converged"] and report["iterations"] == 18


@pytest.mark.parametrize("backend", ["classical", "hybrid-exact"])
def test_solve_overflowing_integral_is_numeric_failure(tmp_path, capsys, backend):
    # exp(709.7) is finite, but its integral overflows: one line, no report, no file.
    code, out, err = run(capsys, "solve", "--rhs", "exp(709.7)", "--init", "0", "--n", "4",
                         "--nmax", "3", "--tol", "0", "--backend", backend,
                         "--output-dir", str(tmp_path))
    assert (code, out) == (3, "")
    assert err.startswith("walshode: numeric failure: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_solve_shifted_domain_drops_analytic_columns(tmp_path, capsys):
    # The builtin references anchor x(0); a domain not starting at 0 cannot
    # be compared against them.
    code, _, _ = run(capsys, "solve", "--problem", "riccati", "--n", "2",
                     "--nmax", "2", "--tol", "0", "--domain", "0.25", "0.75",
                     "--output-dir", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "x1.csv").read_text().splitlines()
    assert lines[0] == "t,x1"


def test_solve_rejects_mismatched_init(tmp_path, capsys):
    # IVProblem's one rule counts the values; a missing --init gives none.
    for init, counts in ((["--rhs", "x2", "--init", "0"], "(m=2), got 1"), ([], "(m=1), got 0")):
        code, out, err = run(capsys, "solve", "--rhs", "x1", *init, "--output-dir", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == f"walshode: error: need one initial value per right-hand side {counts}\n"


def test_solve_needs_a_problem_or_an_rhs(tmp_path, capsys):
    code, out, err = run(capsys, "solve", "--output-dir", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == "walshode: error: provide either --problem or at least one --rhs\n"


def test_solve_rejects_init_for_builtin_problem(tmp_path, capsys):
    code, out, err = run(capsys, "solve", "--problem", "riccati", "--init", "5",
                         "--output-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    assert "--init" in err
    assert not (tmp_path / "x1.csv").exists()


@pytest.mark.parametrize("flags, message", [
    (("--rhs", "x1", "--init", "inf"), "initial values must be finite"),
    (("--rhs", "x1", "--init", "nan"), "initial values must be finite"),
    (("--rhs", "x1", "--init", "1", "--domain", "0", "inf"), "domain must be finite"),
    (("--problem", "riccati", "--domain", "0", "inf"), "domain must be finite"),
    (("--problem", "riccati", "--domain", "nan", "1"), "domain end must be a real number"),
    (("--problem", "riccati", "--domain", "1", "0"), "t_lo < t_hi"),
    (("--problem", "riccati", "--tol", "nan"), "tol must be >= 0"),
    # argparse takes "-1e308" for an option; the digits spell the same float.
    (("--problem", "riccati", "--domain", str(-10**308), "1e308"), "a finite width"),
])
def test_solve_rejects_non_finite_values_and_bad_domain(tmp_path, capsys, flags, message):
    code, out, err = run(capsys, "solve", *flags, "--output-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    assert message in err


def test_solve_rejects_infinite_tol(tmp_path, capsys):
    code, out, err = run(capsys, "solve", "--problem", "riccati", "--tol", "inf",
                         "--output-dir", str(tmp_path / "out"))
    assert (code, out) == (2, "")
    assert err == "walshode: error: tol must be >= 0 and finite, got inf\n"
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("flags, message", [
    (["--rhs", "x1", "--init", "-inf"], "initial values must be finite, got -inf"),
    (["--rhs", "x1", "--init", "-Infinity"], "initial values must be finite, got -inf"),
    (["--rhs", "x1", "--init", "-NaN"], "initial values must be finite, got nan"),
    (["--rhs", "x1", "--init", "inf"], "initial values must be finite, got inf"),
    (["--problem", "riccati", "--tol", "-inf"], "tol must be >= 0 and finite, got -inf"),
    (["--problem", "riccati", "--tol", "-nan"], "tol must be >= 0 and finite, got nan"),
    (["--problem", "riccati", "--backend", "hybrid-exact", "--epsilon", "-INF"],
     "epsilon must be > 0 and finite, got -inf"),
    (["--problem", "riccati", "--domain", "-inf", "1"],
     "domain must be finite with t_lo < t_hi and a finite width, got (-inf, 1.0)"),
])
def test_negative_non_finite_values_are_values(tmp_path, capsys, flags, message):
    # argparse took "-inf" for an option; now it reaches the library's finite checks.
    code, out, err = run(capsys, "solve", *flags, "--output-dir", str(tmp_path / "out"))
    assert (code, out, err) == (2, "", f"walshode: error: {message}\n")
    assert not (tmp_path / "out").exists()


def test_an_option_after_init_is_still_an_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--rhs", "x1", "--init", "-x", "--output-dir", str(tmp_path)])
    assert info.value.code == 2
    assert "argument --init: expected at least one argument" in capsys.readouterr().err


def test_solve_on_a_wide_domain_warns_nothing(tmp_path, capsys):
    # The midpoints of [0, 1e308] are finite; only the iterate runs away.
    code, out, err = run(capsys, "solve", "--problem", "riccati", "--domain", "0", "1e308",
                         "--output-dir", str(tmp_path))
    assert code == 3 and out == ""
    assert err == "walshode: numeric failure: iterate magnitude exceeded 1e+12\n"


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


def test_bench_rejects_bad_size(monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("bench input allocated")

    monkeypatch.setattr(np.random, "default_rng", forbidden)
    code, out, err = run(capsys, "bench", "--sizes", "16", "12")
    assert code == 2 and out == ""
    assert "power of two" in err


def test_bench_oversized_size_refused_before_any_size_runs(capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("bench input allocated")

    monkeypatch.setattr(np.random, "default_rng", forbidden)
    # 2^27 points: the input and the transform output take 2 GiB.  At 2^14
    # points the naive transform's tables take 9N^2 = 2.25 GiB.
    for argv in (["--sizes", "16", str(1 << 27)],
                 ["--sizes", "4", str(1 << 14), "--backends", "naive"]):
        code, out, err = run(capsys, "bench", *argv)
        assert code == 2
        assert out == ""
        assert "over the cap" in err


def test_bench_rejects_zero_repeats(capsys):
    code, out, err = run(capsys, "bench", "--sizes", "16", "--repeats", "0")
    assert (code, out) == (2, "")
    assert err == "walshode: error: --repeats must be an integer >= 1, got 0\n"


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


def test_every_entry_point_refuses_an_unseeded_sampled_run(tmp_path, capsys):
    # There is no default seed: unseeded runs used to share the noise of seed 12345.
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
    for command in ("solve", "transform"):
        code, out, err = run(capsys, *_command_argv(tmp_path, command),
                             "--backend", "hybrid-sampled", "--shots", "100")
        assert (code, out, err) == (2, "", f"walshode: error: {message}\n")
        assert not (tmp_path / "out").exists()
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


def test_solve_problem_and_rhs_are_exclusive(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--problem", "riccati", "--rhs", "x1",
              "--output-dir", str(tmp_path)])
    assert info.value.code == 2


def test_one_parser_per_process():
    # main parses with one parser; build_parser still makes a fresh one.
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


def test_usage_error_exit_code_from_argparse(capsys):
    with pytest.raises(SystemExit) as info:
        main(["transform"])  # missing required output
    assert info.value.code == 2


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
