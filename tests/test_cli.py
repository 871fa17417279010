"""Command-line behavior: file formats, reports, exit codes, determinism."""

import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from walshode import (
    OperationalMatrix,
    analytic_reference,
    character_table,
    cli,
    differentiation_matrix,
    fwht,
    integration_matrix,
)
from walshode.cli import main, read_vector, write_vector


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


def test_transform_sampled_requires_shots_and_seed(tmp_path, capsys):
    src = tmp_path / "in.txt"
    write_input(src, [0.5, 0.5, 0.5, 0.5])
    dst = str(tmp_path / "o.txt")
    code, _, err = run(capsys, "transform", str(src), "-o", dst,
                       "--backend", "hybrid-sampled", "--shots", "1000")
    assert code == 2
    assert "seed" in err
    code, _, err = run(capsys, "transform", str(src), "-o", dst,
                       "--backend", "hybrid-sampled", "--seed", "3")
    assert code == 2
    assert "shots" in err
    code, _, _ = run(capsys, "transform", str(src), "-o", dst,
                     "--backend", "hybrid-sampled", "--shots", "1000",
                     "--seed", "3")
    assert code == 0


def test_transform_non_power_of_two_is_usage_error(tmp_path, capsys):
    src = tmp_path / "in.txt"
    write_input(src, [1.0, 2.0, 3.0])
    code, _, _ = run(capsys, "transform", str(src), "-o", str(tmp_path / "o.txt"))
    assert code == 2


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
    assert f"qubit count must be in [1, 62], got {n}" in err
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
    code, _, _ = run(capsys, "solve", "--rhs", "x1", "--rhs", "x2",
                     "--init", "0", "--output-dir", str(tmp_path))
    assert code == 2


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
    (("--problem", "riccati", "--domain", "nan", "1"), "domain must be finite"),
    (("--problem", "riccati", "--domain", "1", "0"), "t_lo < t_hi"),
    (("--problem", "riccati", "--tol", "nan"), "tol must be >= 0"),
])
def test_solve_rejects_non_finite_values_and_bad_domain(tmp_path, capsys, flags, message):
    code, out, err = run(capsys, "solve", *flags, "--output-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    assert message in err


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
])
def test_solve_files_byte_identical_to_per_cell_writer(
        tmp_path, capsys, monkeypatch, spec, reference):
    seen = _spy_on_solve(monkeypatch)
    code, _, _ = run(capsys, "solve", *spec, "--n", "5", "--nmax", "6", "--tol", "0",
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
    assert len(rows) == 6 * len(solution) * 32
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


def test_bench_rejects_bad_size(capsys):
    code, _, _ = run(capsys, "bench", "--sizes", "12")
    assert code == 2


def test_bench_oversized_size_refused_before_any_size_runs(capsys, monkeypatch):
    # 2^27 points: the input and the transform output take 2 GiB.
    def forbidden(*args, **kwargs):
        raise AssertionError("bench input allocated")

    monkeypatch.setattr(np.random, "default_rng", forbidden)
    code, out, err = run(capsys, "bench", "--sizes", "16", str(1 << 27))
    assert code == 2
    assert out == ""
    assert "over the cap" in err


def test_bench_rejects_zero_repeats(capsys):
    code, _, _ = run(capsys, "bench", "--sizes", "16", "--repeats", "0")
    assert code == 2


def test_solve_sampled_requires_shots_and_seed(tmp_path, capsys):
    base = ("solve", "--problem", "riccati", "--nmax", "1",
            "--output-dir", str(tmp_path), "--backend", "hybrid-sampled")
    code, _, err = run(capsys, *base, "--shots", "1000")
    assert code == 2
    assert "requires --seed" in err
    code, _, err = run(capsys, *base, "--seed", "3")
    assert code == 2
    assert "requires --shots" in err
    code, _, _ = run(capsys, *base, "--shots", "1000", "--seed", "3")
    assert code == 0


@pytest.mark.parametrize("backend, flag", [
    ("hybrid-exact", "--shots"),
    ("hybrid-exact", "--seed"),
    ("classical", "--shots"),
    ("classical", "--seed"),
    ("classical", "--epsilon"),
])
def test_solve_rejects_flags_the_backend_ignores(tmp_path, capsys, backend, flag):
    code, out, err = run(capsys, "solve", "--problem", "riccati", "--backend", backend,
                         flag, "0.5" if flag == "--epsilon" else "5",
                         "--output-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    assert f"{flag} does not apply to backend {backend}" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("backend, flag", [
    ("hybrid-exact", "--shots"),
    ("hybrid-exact", "--seed"),
    ("fast", "--shots"),
    ("naive", "--seed"),
    ("fast", "--epsilon"),
    ("naive", "--epsilon"),
])
def test_transform_rejects_flags_the_backend_ignores(tmp_path, capsys, backend, flag):
    src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
    write_input(src, [0.5, 0.25, -1.0, 2.0])
    code, out, err = run(capsys, "transform", str(src), "-o", str(dst),
                         "--backend", backend, flag, "0.5" if flag == "--epsilon" else "7")
    assert code == 2
    assert out == ""
    assert f"{flag} does not apply to backend {backend}" in err
    assert not dst.exists()


def test_epsilon_applies_to_both_hybrid_backends(tmp_path, capsys):
    src = tmp_path / "in.txt"
    write_input(src, [0.5, 0.25, -1.0, 2.0])
    code, _, _ = run(capsys, "transform", str(src), "-o", str(tmp_path / "o.txt"),
                     "--backend", "hybrid-exact", "--epsilon", "0.5")
    assert code == 0
    code, _, _ = run(capsys, "solve", "--problem", "riccati", "--nmax", "1",
                     "--backend", "hybrid-sampled", "--shots", "1000", "--seed", "3",
                     "--epsilon", "0.5", "--output-dir", str(tmp_path))
    assert code == 0


def test_solve_problem_and_rhs_are_exclusive(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--problem", "riccati", "--rhs", "x1",
              "--output-dir", str(tmp_path)])
    assert info.value.code == 2


def test_usage_error_exit_code_from_argparse(capsys):
    with pytest.raises(SystemExit) as info:
        main(["transform"])  # missing required output
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# documented examples


def readme_examples():
    """Each ``walshode ...`` command of README's command-line block, as argv."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    commands = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in commands if line.startswith("walshode ")]


def test_readme_examples_run(tmp_path, capsys, monkeypatch):
    examples = readme_examples()
    assert {argv[0] for argv in examples} == {"transform", "table", "solve", "bench"}
    monkeypatch.chdir(tmp_path)
    write_input(tmp_path / "input.txt", [0.5, -1.25, 2.0, 0.75, 1.0, 0.0, -0.5, 3.0])
    for argv in examples:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)
