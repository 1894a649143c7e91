"""CSCS solver, DFT baseline, spectral-radius and shift-scan diagnostics."""

import sys
import threading

import numpy as np
import pytest

from cscskit import cscs_solvers
from cscskit.bench_cli import ProblemSpec, gen_coeffs
from cscskit.cscs_solvers import (
    RHO_DENSE_GUARD, SolverConfig, cscs_solve, dft, iteration_matrix_rho,
    theta_scan,
)
from cscskit.real_schur import SingularShiftError
from cscskit.structured_matrices import naive_matvec, toeplitz_from_bands

from conftest import random_bands


def dft_oracle(x, inverse=False):
    """Definitional O(n^2) Fourier sum."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[0]
    k = np.arange(n)
    sign = 1 if inverse else -1
    M = np.exp(sign * 2j * np.pi * np.outer(k, k) / n)
    return (M @ x) / (n if inverse else 1)


# ----------------------------------------------------------------------- dft

def test_dft_delta():
    assert np.allclose(dft(np.array([1.0, 0, 0, 0])), np.ones(4), atol=1e-14)


def test_dft_ones():
    assert np.allclose(dft(np.ones(4)), [4, 0, 0, 0], atol=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 100, 257, 1000])
def test_dft_matches_definitional_sum(n, rng):
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    want = dft_oracle(x)
    got = dft(x)
    assert np.abs(got - want).max() < 1e-10 * max(1.0, np.abs(want).max())
    assert np.abs(dft(got, inverse=True) - x).max() < 1e-10


def test_dft_inverse_matches_definitional(rng):
    x = rng.standard_normal(90) + 1j * rng.standard_normal(90)
    assert np.allclose(dft(x, inverse=True), dft_oracle(x, inverse=True),
                       atol=1e-12)


# --------------------------------------------------------------- cscs_solve

def test_scaled_identity_one_iteration():
    # T = 2I with theta = 1: C = S = I, (theta I - S) x vanishes and the
    # first sweep lands on the exact solution b / 2
    T = toeplitz_from_bands([0.0, 0.0, 2.0, 0.0, 0.0])
    b = np.ones(3)
    report = cscs_solve(T, b, SolverConfig(theta=1.0))
    assert report.converged and report.iterations == 1
    assert np.allclose(report.solution, 0.5, atol=1e-14)


@pytest.mark.parametrize("backend", ["dct_dst", "fft"])
def test_converged_solution_verifies_against_naive(backend, rng):
    n = 33
    T = toeplitz_from_bands(random_bands(rng, n, diag_boost=1.0))
    b = rng.standard_normal(n)
    cfg = SolverConfig(theta=float(T.t(0)) / 2, backend=backend)
    report = cscs_solve(T, b, cfg)
    assert report.converged
    rel = np.linalg.norm(b - naive_matvec(T, report.solution)) / np.linalg.norm(b)
    assert rel <= cfg.tol
    assert report.solution.flags.c_contiguous and report.solution.flags.owndata


def test_fft_backend_setup_runs_no_dft(monkeypatch):
    # the eigenvalues come from the operator's cores: a one-sweep solve
    # from x0 = 0 runs the sweep's six DFTs and the residual's four only
    calls = []
    real_dft = cscs_solvers.dft
    monkeypatch.setattr(cscs_solvers, "dft",
                        lambda x, inverse=False: calls.append(len(x)) or real_dft(x, inverse))
    T = gen_coeffs(ProblemSpec("ex3", 16))
    cscs_solve(T, np.ones(16), SolverConfig(theta=3.585, max_iters=1, backend="fft"))
    assert calls == [16] * 10


def test_exact_solution_is_a_fixed_point(rng):
    n = 24
    T = toeplitz_from_bands(random_bands(rng, n, diag_boost=1.0))
    x_star = rng.standard_normal(n)
    b = naive_matvec(T, x_star)
    cfg = SolverConfig(theta=2.0, max_iters=1, x0=x_star)
    report = cscs_solve(T, b, cfg)
    assert np.abs(report.solution - x_star).max() < 1e-10 * max(
        1, np.abs(x_star).max())


@pytest.mark.parametrize("n", [7, 16, 33, 128])
def test_backend_iterate_sequences_agree(n, rng):
    T = toeplitz_from_bands(random_bands(rng, n, diag_boost=1.0))
    b = rng.standard_normal(n)
    reports = [
        cscs_solve(T, b, SolverConfig(theta=1.7, backend=be, record_iterates=True,
                                      max_iters=60))
        for be in ("dct_dst", "fft")]
    assert reports[0].iterations == reports[1].iterations
    for xa, xb in zip(reports[0].iterates, reports[1].iterates):
        assert np.abs(xa - xb).max() < 1e-8


def test_report_residuals_and_budget(rng):
    n = 40
    T = toeplitz_from_bands(random_bands(rng, n, diag_boost=2.0))
    report = cscs_solve(T, np.ones(n), SolverConfig(theta=2.0))
    assert report.residuals.shape == (report.iterations,)
    assert report.converged == (report.residuals[-1] <= 1e-7)
    # six cosine and six sine transforms per sweep, sizes about n/2
    assert set(report.transform_counts) == {(6, 6)}
    assert all(abs(s - n / 2) <= 2 for s in report.transform_sizes)


def test_transform_counts_are_per_solve_under_threads():
    # concurrent solves must each count only their own sweeps' transforms
    T = gen_coeffs(ProblemSpec("ex1", 1024, 0.9))
    reports = [None] * 3

    def solve(i):
        reports[i] = cscs_solve(T, np.ones(T.n), SolverConfig(theta=1.985))

    threads = [threading.Thread(target=solve, args=(i,)) for i in range(len(reports))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for report in reports:
        assert report.converged
        assert set(report.transform_counts) == {(6, 6)}


def test_non_positive_definite_warns_but_runs():
    # T = -I: both split parts are -I/2, firmly indefinite
    T = toeplitz_from_bands([0.0, 0.0, -1.0, 0.0, 0.0])
    report = cscs_solve(T, np.ones(3), SolverConfig(theta=1.0, max_iters=5))
    assert len(report.warnings) == 2
    assert not report.converged
    assert report.iterations == 5


def test_singular_shift_raises():
    # C = S = -I and theta = 1 makes theta I + C exactly singular
    T = toeplitz_from_bands([0.0, 0.0, -2.0, 0.0, 0.0])
    with pytest.raises(SingularShiftError):
        cscs_solve(T, np.ones(3), SolverConfig(theta=1.0))


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(theta=0.0)
    with pytest.raises(ValueError):
        SolverConfig(theta=1.0, tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(theta=1.0, backend="qr")


@pytest.mark.parametrize("backend", ["dct_dst", "fft"])
def test_zero_rhs_short_circuits(backend):
    T = toeplitz_from_bands([0.0, 0.0, 2.0, 0.0, 0.0])
    report = cscs_solve(T, np.zeros(3), SolverConfig(theta=1.0, backend=backend))
    assert report.converged and report.iterations == 0
    assert np.array_equal(report.solution, np.zeros(3))
    if backend == "dct_dst":
        assert report.transform_counts == []
    else:
        assert report.transform_counts is None


@pytest.mark.parametrize("backend", ["dct_dst", "fft"])
def test_near_singular_shift_raises(backend):
    # C = S = -(1 - 1e-14) I with theta = 1: theta I + C is singular up to
    # rounding, and iterating on it diverges instead of converging
    T = toeplitz_from_bands([0.0, 0.0, -2.0 * (1.0 - 1e-14), 0.0, 0.0])
    with pytest.raises(SingularShiftError):
        cscs_solve(T, np.ones(3), SolverConfig(theta=1.0, backend=backend))


def test_non_finite_rhs_and_initial_guess_rejected():
    T = toeplitz_from_bands([0.0, 0.0, 2.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="right-hand side must be finite"):
        cscs_solve(T, np.array([1.0, np.inf, 1.0]), SolverConfig(theta=1.0))
    cfg = SolverConfig(theta=1.0, x0=np.array([0.0, np.nan, 0.0]))
    with pytest.raises(ValueError, match="initial guess must be finite"):
        cscs_solve(T, np.ones(3), cfg)


# ------------------------------------------------------ iteration_matrix_rho

def test_rho_zero_for_scaled_identity():
    T = toeplitz_from_bands([0.0, 0.0, 2.0, 0.0, 0.0])
    assert iteration_matrix_rho(T, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_rho_guard():
    n = RHO_DENSE_GUARD + 1
    bands = np.zeros(2 * n - 1)
    bands[n - 1] = 1.0
    with pytest.raises(ValueError):
        iteration_matrix_rho(toeplitz_from_bands(bands), 1.0)


def test_rho_singular_shift():
    T = toeplitz_from_bands([0.0, 0.0, -2.0, 0.0, 0.0])
    with pytest.raises(SingularShiftError):
        iteration_matrix_rho(T, 1.0)


def test_rho_bounds_late_residual_ratios():
    # contraction diagnostic: late residual ratios settle under rho + 0.05
    T = gen_coeffs(ProblemSpec("ex1", 64, 0.9))
    theta = 0.8
    rho = iteration_matrix_rho(T, theta)
    assert 0.2 < rho < 0.9
    report = cscs_solve(T, np.ones(64),
                        SolverConfig(theta=theta, tol=1e-300, max_iters=25))
    res = report.residuals
    ratios = res[-10:] / res[-11:-1]
    assert np.all(ratios < rho + 0.05)


# ----------------------------------------------------------------- theta_scan

def test_theta_scan_scaled_identity():
    T = toeplitz_from_bands([0.0, 0.0, 2.0, 0.0, 0.0])
    best, bounds = theta_scan(T, np.array([0.5, 1.0, 2.0]))
    assert best == 1.0
    assert bounds[1] == pytest.approx(0.0, abs=1e-14)


def test_theta_scan_two_point_spectra():
    # both split parts have eigenvalues {1, 4}; the factor bound
    # max(|t-1|/(t+1), |t-4|/(t+4)) is minimized at t = 2 with value 1/3
    s1 = 3.0 / (2.0 * np.sqrt(2.0))
    T = toeplitz_from_bands([-s1, 1.5, s1, 5.0, s1, 1.5, -s1])
    grid = np.linspace(0.5, 4.0, 36)
    best, bounds = theta_scan(T, grid)
    assert best == pytest.approx(2.0, abs=1e-12)
    assert bounds.min() == pytest.approx(1.0 / 9.0, abs=1e-12)


def test_theta_scan_returns_grid_member(rng):
    T = toeplitz_from_bands(random_bands(rng, 12, diag_boost=1.0))
    grid = np.array([0.7, 1.1, 2.3, 3.9])
    best, bounds = theta_scan(T, grid)
    assert best in grid
    assert bounds.shape == grid.shape


def test_theta_scan_tie_breaks_to_smaller_theta():
    # for T = 2I the bound |t-1|/(t+1) ties at t = 0.5 and t = 2
    T = toeplitz_from_bands([0.0, 0.0, 2.0, 0.0, 0.0])
    best, bounds = theta_scan(T, np.array([2.0, 0.5]))
    assert bounds[0] == pytest.approx(bounds[1], rel=1e-15)
    assert best == 0.5


def test_theta_scan_empty_grid():
    T = toeplitz_from_bands([0.0, 0.0, 2.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        theta_scan(T, np.array([]))
