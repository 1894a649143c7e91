"""Problem generators (with a quadrature oracle), file formats, campaigns, CLI."""

import io
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from cscskit import bench_cli
from cscskit.bench_cli import (
    CSV_HEADER, BenchRow, ProblemSpec, VectorFormatError, gen_coeffs,
    read_csv, read_vector, run_bench, write_csv, write_markdown, write_vector,
)
from cscskit.cli import main
from cscskit.cscs_solvers import RHO_DENSE_GUARD
from cscskit.real_schur import real_spectrum
from cscskit.structured_matrices import cscs_split, dense_of


# ---------------------------------------------------------------- oracle

def fourier_coeff_quadrature(f, k, panels=4096, degree=16):
    """Composite Gauss-Legendre t_k = (1/2pi) int_{-pi}^{pi} f(x) e^{-ikx} dx.

    4096 panels x 16 nodes = 2^16 evaluation points; the panel rule is
    exact to degree 31, so smooth integrands are resolved far below
    1e-10 for the small |k| checked here.
    """
    nodes, weights = np.polynomial.legendre.leggauss(degree)
    edges = np.linspace(-np.pi, np.pi, panels + 1)
    mids = (edges[:-1] + edges[1:]) / 2
    half = (edges[1] - edges[0]) / 2
    x = (mids[:, None] + half * nodes[None, :]).ravel()
    w = np.tile(weights * half, panels)
    return (f(x) * np.exp(-1j * k * x)) @ w / (2 * np.pi)


def f_ex2(x):
    return 5 + x ** 2 + 2 * np.cos(3 * x) + 1j * (x + np.sin(x))


def f_ex3(x):
    return 10 + 8 * np.cos(x) + 2j * np.sin(5 * x)


# ------------------------------------------------------------- gen_coeffs

def test_ex1_coefficients():
    T = gen_coeffs(ProblemSpec("ex1", 5, 0.9))
    assert T.t(0) == 1.0
    assert T.t(1) == pytest.approx(2.0 ** -0.9, abs=1e-15)
    assert T.t(1) == pytest.approx(0.535887, abs=1e-6)
    for k in range(1, 5):
        assert T.t(k) == T.t(-k)


def test_ex1_requires_positive_p():
    with pytest.raises(ValueError):
        gen_coeffs(ProblemSpec("ex1", 4, None))
    with pytest.raises(ValueError):
        gen_coeffs(ProblemSpec("ex1", 4, -1.0))


def test_ex3_is_exactly_sparse():
    T = gen_coeffs(ProblemSpec("ex3", 8))
    expect = {0: 10.0, 1: 4.0, -1: 4.0, 5: 1.0, -5: -1.0}
    for k in range(-7, 8):
        assert T.t(k) == expect.get(k, 0.0), k


def test_ex2_constant_term():
    T = gen_coeffs(ProblemSpec("ex2", 4))
    assert T.t(0) == pytest.approx(5 + np.pi ** 2 / 3, abs=1e-14)
    assert T.t(0) == pytest.approx(8.289868, abs=1e-6)


def test_ex2_x_squared_closed_form():
    T = gen_coeffs(ProblemSpec("ex2", 9))
    for k in range(2, 9):
        if k == 3:
            continue  # the cos(3x) harmonic also lands here
        sym = (T.t(k) + T.t(-k)) / 2
        assert sym == pytest.approx(2 * (-1) ** k / k ** 2, abs=1e-14), k


@pytest.mark.parametrize("example,f", [("ex2", f_ex2), ("ex3", f_ex3)])
def test_coefficients_match_quadrature(example, f):
    T = gen_coeffs(ProblemSpec(example, 9))
    for k in range(-8, 9):
        ref = fourier_coeff_quadrature(f, k)
        assert abs(ref.imag) < 1e-10
        assert T.t(k) == pytest.approx(ref.real, abs=1e-10), k


def test_unknown_example_rejected():
    with pytest.raises(ValueError):
        gen_coeffs(ProblemSpec("ex9", 4))


def test_ex1_matrix_is_symmetric_pd():
    D = dense_of(gen_coeffs(ProblemSpec("ex1", 32, 1.1)))
    assert np.array_equal(D, D.T)
    assert np.linalg.eigvalsh(D).min() > 0


# ---------------------------------------------------------------- vector io

def test_vector_round_trip(tmp_path):
    path = tmp_path / "v.txt"
    v = np.array([1.5, -2.25])
    write_vector(path, v)
    assert np.array_equal(read_vector(path), v)


def test_vector_round_trip_is_lossless(tmp_path, rng):
    path = tmp_path / "v.txt"
    v = rng.standard_normal(64) * 10.0 ** rng.integers(-8, 9, 64)
    write_vector(path, v)
    assert np.array_equal(read_vector(path), v)


def test_vector_file_shape(tmp_path):
    path = tmp_path / "ones.txt"
    write_vector(path, np.ones(4))
    assert path.read_text() == "4\n1\n1\n1\n1\n"


def test_vector_missing_entries_names_last_line(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("3\n1.0\n2.0\n")
    with pytest.raises(VectorFormatError) as err:
        read_vector(path)
    assert err.value.line == 3
    assert "line 3" in str(err.value)


def test_vector_bad_scalar_names_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n1.0\nbogus\n")
    with pytest.raises(VectorFormatError) as err:
        read_vector(path)
    assert err.value.line == 3


def test_vector_bad_header(tmp_path):
    path = tmp_path / "hdr.txt"
    path.write_text("zebra\n1.0\n")
    with pytest.raises(VectorFormatError) as err:
        read_vector(path)
    assert err.value.line == 1


# ---------------------------------------------------------------- campaigns

def test_empty_theta_list_yields_no_rows():
    rows = run_bench([(ProblemSpec("ex3", 16), [], ["dct_dst"])])
    assert rows == []


def test_single_cell_runs():
    rows = run_bench([(ProblemSpec("ex3", 64), [3.5], ["dct_dst"])],
                     rho_up_to=64)
    assert len(rows) == 1
    row = rows[0]
    assert row.error is None
    assert row.iterations is not None and row.iterations >= 1
    assert row.rel_residual <= 1e-7
    assert 0 < row.rho < 1
    assert row.elapsed_ms > 0


def test_failed_cell_is_marked_and_campaign_continues():
    rows = run_bench([
        (ProblemSpec("ex3", 8), [0.0], ["dct_dst"]),   # theta must be positive
        (ProblemSpec("ex3", 8), [3.5], ["dct_dst"]),
    ])
    assert rows[0].error is not None and rows[0].iterations is None
    assert rows[1].error is None


def test_rho_up_to_above_the_dense_guard_fails_before_any_cell():
    # raises before the n = 4100 solve runs, not after it as a failed cell
    entries = [(ProblemSpec("ex3", RHO_DENSE_GUARD + 4), [3.5], ["dct_dst"])]
    with pytest.raises(ValueError, match="guard"):
        run_bench(entries, rho_up_to=RHO_DENSE_GUARD + 1)
    assert run_bench([(ProblemSpec("ex3", 8), [], ["dct_dst"])],
                     rho_up_to=RHO_DENSE_GUARD) == []


def test_campaign_determinism():
    entries = [(ProblemSpec("ex3", 32), [3.2, 3.5], ["dct_dst", "fft"])]
    a = run_bench(entries)
    b = run_bench(entries)
    keys = [(r.example, r.n, r.theta, r.backend, r.iterations, r.rel_residual)
            for r in a]
    assert keys == [(r.example, r.n, r.theta, r.backend, r.iterations,
                     r.rel_residual) for r in b]
    assert [r.backend for r in a] == ["dct_dst", "fft", "dct_dst", "fft"]


def test_csv_header_and_round_trip(tmp_path):
    rows = run_bench([(ProblemSpec("ex3", 32), [3.5], ["dct_dst", "fft"])],
                     rho_up_to=32)
    path = tmp_path / "report.csv"
    write_csv(rows, path)
    text = path.read_text().splitlines()
    assert text[0] == CSV_HEADER
    back = read_csv(path)
    assert len(back) == len(rows)
    for orig, parsed in zip(rows, back):
        assert parsed.example == orig.example
        assert parsed.n == orig.n
        assert parsed.p == orig.p
        assert parsed.theta == orig.theta
        assert parsed.iterations == orig.iterations
        assert parsed.rel_residual == orig.rel_residual
        assert parsed.rho == orig.rho
        assert parsed.elapsed_ms == orig.elapsed_ms


def test_markdown_formatter_marks_errors():
    row = BenchRow("ex1", 8, None, 1.0, "dct_dst", None, None, None, 0.1,
                   error="ValueError: ex1 requires a positive exponent p")
    buf = io.StringIO()
    write_markdown([row], buf)
    text = buf.getvalue()
    assert text.startswith("| example | n | p | theta |")
    assert "error: ValueError" in text


# ---------------------------------------------------------------------- CLI

def run_cli(args):
    buf_out, buf_err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = buf_out, buf_err
    try:
        code = main(args)
    finally:
        sys.stdout, sys.stderr = old
    return code, buf_out.getvalue(), buf_err.getvalue()


def test_cli_solve_writes_solution(tmp_path):
    bands = tmp_path / "bands.txt"
    write_vector(bands, np.array([0.0, 2.0, 0.0]))
    out = tmp_path / "x.txt"
    code, stdout, _ = run_cli(["solve", "--bands-file", str(bands),
                               "--theta", "1.0", "--out", str(out)])
    assert code == 0
    assert "converged=True" in stdout
    assert np.allclose(read_vector(out), [0.5, 0.5])


def test_cli_solve_nonconvergent_exits_3(tmp_path):
    bands = tmp_path / "bands.txt"
    write_vector(bands, np.array([0.0, 0.0, -1.0, 0.0, 0.0]))
    code, stdout, stderr = run_cli(["solve", "--bands-file", str(bands),
                                    "--theta", "1.0", "--maxit", "3"])
    assert code == 3
    assert "converged=False" in stdout
    assert "not positive definite" in stderr


def test_cli_solve_diverged_exits_3(tmp_path):
    # indefinite bands at a small shift: the residual passes 1/eps at sweep 18
    n = 64
    t = np.zeros(2 * n - 1)
    t[n - 1], t[n - 2], t[n] = -1.0, 3.0, 3.0
    bands = tmp_path / "bands.txt"
    write_vector(bands, t)
    code, stdout, stderr = run_cli(["solve", "--bands-file", str(bands),
                                    "--theta", "0.05"])
    assert code == 3
    assert "converged=False iterations=18 " in stdout
    assert "exceeds 1/eps after sweep 18" in stderr


def test_cli_solve_non_finite_bands_exits_2(tmp_path):
    bands = tmp_path / "bands.txt"
    bands.write_text("3\n0\nnan\n0\n")
    code, _, stderr = run_cli(["solve", "--bands-file", str(bands),
                               "--theta", "1.0"])
    assert code == 2
    assert "finite" in stderr


def test_cli_radius():
    code, stdout, _ = run_cli(["radius", "--example", "ex3", "--n", "64",
                               "--theta", "3.5"])
    assert code == 0
    value = float(stdout.strip())
    assert 0 < value < 1


def test_cli_radius_singular_exits_3(tmp_path):
    bands = tmp_path / "bands.txt"
    write_vector(bands, np.array([0.0, 0.0, -2.0, 0.0, 0.0]))
    code, _, stderr = run_cli(["radius", "--bands-file", str(bands),
                               "--theta", "1.0"])
    assert code == 3
    assert "singular" in stderr


def test_cli_radius_negative_theta_exits_2():
    code, stdout, stderr = run_cli(["radius", "--example", "ex1", "--n", "8",
                                    "--p", "0.9", "--theta", "-1"])
    assert code == 2
    assert stdout == "" and "theta must be positive" in stderr


def test_cli_spectrum():
    # each row is (alpha_k, beta) of real_spectrum, beta = 0 where the
    # eigenvalue is real; circulant betas start at k = 1, skew at k = 0
    for n in (1, 2, 3, 8, 9):
        cpart, spart = cscs_split(gen_coeffs(ProblemSpec("ex3", n)))
        want = []
        for part, col, first in (("circulant", cpart.col, 1), ("skew", spart.col, 0)):
            spec = real_spectrum(part, col)
            betas = dict(enumerate(spec.betas, start=first))
            want += [(part, k, alpha, betas.get(k, 0.0))
                     for k, alpha in enumerate(spec.alphas)]
        for part in (None, "skew"):
            argv = ["spectrum", "--example", "ex3", "--n", str(n)]
            code, stdout, _ = run_cli(argv + (["--part", part] if part else []))
            assert code == 0
            lines = stdout.strip().splitlines()
            assert lines[0] == "part,k,alpha,beta"
            rows = [(p, int(k), float(a), float(b))
                    for p, k, a, b in (line.split(",") for line in lines[1:])]
            assert rows == [w for w in want if part in (None, w[0])], (n, part)


def test_cli_bench_csv(tmp_path):
    out = tmp_path / "rows.csv"
    code, _, _ = run_cli(["bench", "--example", "ex3", "--n", "32",
                          "--theta", "3.5", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 1 and rows[0].iterations >= 1


def test_cli_bench_config_file(tmp_path):
    cfg = tmp_path / "cells.json"
    cfg.write_text('[{"example": "ex3", "n": 16, "thetas": [3.5],'
                   ' "backends": ["dct_dst", "fft"]}]')
    out = tmp_path / "rows.csv"
    code, _, _ = run_cli(["bench", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert len(read_csv(out)) == 2


@pytest.mark.parametrize("config, named", [
    ("5", "got 5"),
    ("null", "got None"),
    ('[{"example": "ex3", "n": 16.9, "thetas": [3.5]}]', "got 16.9"),
    ('[{"example": "ex3", "n": "16", "thetas": [3.5]}]', "got '16'"),
    ("[7]", "bad config cell 7"),
    # rejected as the matching flags are, not run as failed cells (exit 3)
    ('[{"example": "ex9", "n": 16, "thetas": [3.5]}]', "unknown example 'ex9'"),
    ('[{"example": "ex3", "n": 16, "thetas": [3.5], "backends": "fft"}]',
     "backends must be a list, got 'fft'"),
    ('[{"example": "ex3", "n": 16, "thetas": [3.5], "backends": ["fast"]}]',
     "unknown backend 'fast'"),
    # "35" ran theta = 3 and theta = 5, true ran theta = 1, and "0.9" failed the cell
    ('[{"example": "ex3", "n": 16, "thetas": "35"}]',
     "thetas must be a list of numbers, got '35'"),
    ('[{"example": "ex3", "n": 16, "thetas": [true]}]',
     "thetas must be a list of numbers, got [True]"),
    ('[{"example": "ex1", "n": 16, "p": "0.9", "thetas": [1.5]}]',
     "p must be a number, got '0.9'"),
    # p = inf built the identity matrix
    ('[{"example": "ex1", "n": 16, "p": Infinity, "thetas": [1.5]}]',
     "p must be positive and finite, got inf"),
    ('[{"example": "ex3", "n": 16, "thetas": [true, 3.5]}]',
     "thetas must be a list of numbers, got [True, 3.5]"),
], ids=["int", "null", "fractional-n", "string-n", "cell-not-an-object",
        "unknown-example", "backends-not-a-list", "unknown-backend",
        "thetas-not-a-list", "theta-not-a-number", "string-p", "infinite-p",
        "theta-list-with-a-bool"])
def test_cli_bench_bad_config_exits_2(tmp_path, config, named):
    cfg = tmp_path / "cells.json"
    cfg.write_text(config)
    code, stdout, stderr = run_cli(["bench", "--config", str(cfg)])
    assert code == 2
    assert stdout == "" and named in stderr


def test_cli_bench_rho_up_to_above_the_guard_exits_2():
    code, stdout, stderr = run_cli(["bench", "--example", "ex3", "--n", "8",
                                    "--theta", "3.5", "--rho-up-to",
                                    str(RHO_DENSE_GUARD + 1)])
    assert code == 2
    assert stdout == "" and "guard" in stderr


@pytest.mark.parametrize("argv, named", [
    (["--example", "ex1", "--n", "0", "--p", "1", "--theta", "1"], "size must be >= 1"),
    (["--example", "ex1", "--n", "8", "--theta", "1"], "positive exponent p"),
    (["--example", "ex1", "--n", "8", "--p", "inf", "--theta", "1"],
     "p must be positive and finite"),
    (["--example", "ex3", "--n", "8", "--theta", "-1"], "theta must be positive"),
    (["--example", "ex3", "--n", "8", "--theta", "nan"], "theta must be positive"),
    # the good first cell does not run either
    (["--example", "ex3", "--n", "8", "--n", "0", "--theta", "3.5"], "size must be >= 1"),
    (["--example", "ex3", "--n", "8", "--theta", "3.5", "--theta", "inf",
      "--backend", "fft"], "theta must be positive"),
], ids=["n-zero", "ex1-without-p", "infinite-p", "negative-theta", "nan-theta",
        "second-n-zero", "second-theta-inf"])
def test_cli_bench_bad_value_exits_2_before_any_cell(monkeypatch, argv, named):
    # these ran every cell as a failed one and exited 3
    ran = []
    monkeypatch.setattr(bench_cli, "cscs_solve", lambda *args: ran.append(args))
    code, stdout, stderr = run_cli(["bench"] + argv)
    assert (code, stdout, ran) == (2, "", [])
    assert named in stderr


@pytest.mark.parametrize("bad_cell, named", [
    ('{"example": "ex3", "n": 0, "thetas": [3.5]}', "size must be >= 1"),
    ('{"example": "ex1", "n": 8, "thetas": [1.5]}', "positive exponent p"),
    ('{"example": "ex3", "n": 8, "thetas": [0]}', "theta must be positive"),
], ids=["n-zero", "ex1-without-p", "zero-theta"])
def test_cli_bench_config_with_a_bad_cell_runs_no_cell(tmp_path, monkeypatch,
                                                      bad_cell, named):
    # one good cell and one bad one ran both and exited 0 with a failed row
    ran = []
    monkeypatch.setattr(bench_cli, "cscs_solve", lambda *args: ran.append(args))
    cfg = tmp_path / "cells.json"
    cfg.write_text(f'[{{"example": "ex3", "n": 8, "thetas": [3.5]}}, {bad_cell}]')
    code, stdout, stderr = run_cli(["bench", "--config", str(cfg)])
    assert (code, stdout, ran) == (2, "", [])
    assert "bad config cell" in stderr and named in stderr


@pytest.mark.parametrize("argv", [
    ["spectrum", "--example", "ex3", "--n", "9"],
    ["spectrum", "--example", "ex3", "--n", "8", "--part", "skew"],
    ["theta-scan", "--example", "ex3", "--n", "16", "--grid", "1.0:5.0:9"],
    ["bench", "--example", "ex3", "--n", "16", "--theta", "3.5"],
    ["bench", "--example", "ex3", "--n", "16", "--theta", "3.5",
     "--backend", "fft", "--format", "markdown"],
], ids=["spectrum", "spectrum-skew", "theta-scan", "bench-csv", "bench-markdown"])
def test_cli_out_file_holds_what_stdout_shows(tmp_path, monkeypatch, argv):
    # a stopped clock, so that both bench runs report the same elapsed_ms
    monkeypatch.setattr(bench_cli, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    code, shown, _ = run_cli(argv)
    assert code == 0 and len(shown.splitlines()) > 1
    out = tmp_path / "report.txt"
    code, stdout, _ = run_cli(argv + ["--out", str(out)])
    assert code == 0 and stdout == ""
    assert out.read_text() == shown


def test_cli_theta_scan():
    code, stdout, _ = run_cli(["theta-scan", "--example", "ex3", "--n", "16",
                               "--grid", "1.0:5.0:9"])
    assert code == 0
    assert stdout.startswith("theta,bound")
    assert "# best theta = " in stdout


def test_cli_theta_scan_non_finite_grid_exits_2():
    code, stdout, stderr = run_cli(["theta-scan", "--example", "ex3", "--n", "16",
                                    "--grid", "1:inf:5"])
    assert code == 2
    assert stdout == "" and "finite" in stderr


def test_cli_missing_problem_is_config_error():
    code, _, stderr = run_cli(["radius", "--theta", "1.0"])
    assert code == 2
    assert "error" in stderr


def test_cli_bad_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["solve", "--no-such-flag"])
    assert err.value.code == 2


def test_cli_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "cscskit", "radius", "--example", "ex3",
         "--n", "32", "--theta", "3.5"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert 0 < float(result.stdout.strip()) < 1
