"""Problem generators (with a quadrature oracle), file formats, campaigns, CLI."""

import io
import subprocess
import sys

import numpy as np
import pytest

from cscskit.bench_cli import (
    CSV_HEADER, BenchRow, ProblemSpec, VectorFormatError, gen_coeffs,
    read_csv, read_vector, run_bench, write_csv, write_markdown, write_vector,
)
from cscskit.cli import main
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
        (ProblemSpec("ex1", 8, None), [1.0], ["dct_dst"]),   # missing p
        (ProblemSpec("ex3", 8), [3.5], ["dct_dst"]),
    ])
    assert rows[0].error is not None and rows[0].iterations is None
    assert rows[1].error is None


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


def test_cli_theta_scan():
    code, stdout, _ = run_cli(["theta-scan", "--example", "ex3", "--n", "16",
                               "--grid", "1.0:5.0:9"])
    assert code == 0
    assert stdout.startswith("theta,bound")
    assert "# best theta = " in stdout


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
