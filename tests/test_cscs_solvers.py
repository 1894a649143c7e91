"""CSCS solver, DFT baseline, spectral-radius and shift-scan diagnostics."""

import dataclasses
import math
import sys
import threading
import warnings

import numpy as np
import pytest

from cscskit import _dft, cscs_solvers, real_schur, trig_transforms
from cscskit.bench_cli import ProblemSpec, gen_coeffs
from cscskit.cscs_solvers import (
    RHO_DENSE_GUARD, SolverConfig, cscs_solve, dft, iteration_matrix_rho,
    theta_scan,
)
from cscskit.fast_matvec import (
    CirculantOperator, ToeplitzOperator, circulant_matvec, skew_circulant_matvec,
    toeplitz_matvec,
)
from cscskit.real_schur import (
    SingularShiftError, XPattern, _shifted_inverse, from_core, to_core,
    xpattern_shifted_solve,
)
from cscskit.structured_matrices import (
    cscs_split, dense_of, naive_matvec, toeplitz_from_bands,
)
from cscskit.trig_transforms import Flavor, counting

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


# powers of two and their odd and even neighbours, up to 8195; each
# other length runs its own chirp table and convolution length
LENGTHS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 17, 18, 32, 33, 35, 128, 129, 130, 255,
           256, 257, 259, 2048, 2049, 2050, 4095, 4096, 4097, 4098, 4099, 8192, 8193, 8195]


@pytest.mark.parametrize("n", LENGTHS)
def test_dft_matches_numpy_fft(n, rng):
    # np.fft is an oracle independent of the engine
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    want = np.fft.fft(x)
    got = _dft.dft_vector(x)
    assert got.shape == (n,)
    assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("bad", [np.ones((4, 4)), np.ones((1, 4)), np.float64(1.0), []],
                         ids=["4x4", "1x4", "0-d", "empty"])
def test_dft_rejects_input_that_is_not_a_vector(bad):
    for transform in (dft, lambda x: dft(x, inverse=True), _dft.dft_vector,
                      _dft.idft_vector):
        with pytest.raises(ValueError, match="expected a non-empty vector"):
            transform(bad)


@pytest.mark.parametrize("log2n", range(18))
def test_fft_pow2_matches_numpy_fft(log2n, rng):
    # leaf-only sizes (n <= 32) and both parities of the stage count
    n = 1 << log2n
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    kept = z.copy()
    for x in (z, z.real):  # complex, and real through a strided view
        want = np.fft.fft(x)
        assert np.abs(_dft._fft_pow2(x) - want).max() <= 1e-14 * np.abs(want).max()
    # the leaf reads a complex128 vector in place and writes new arrays
    got = _dft.dft_vector(z)
    assert np.array_equal(z, kept) and not np.shares_memory(got, z)


def test_chirp_convolution_is_the_smallest_power_of_two(monkeypatch, rng):
    # the lags k - j run over -(n-1)..(n-1) and the chirp is even in the
    # lag, so a cyclic convolution of 2n - 2 points is exact
    lengths = []
    fft_pow2 = _dft._fft_pow2

    def recording(x):
        lengths.append(len(x))
        return fft_pow2(x)

    monkeypatch.setattr(_dft, "_fft_pow2", recording)
    for n in (2, 3, 5, 9, 17, 129, 2049, 4097):
        lengths.clear()
        _dft.dft_vector(rng.standard_normal(n))
        assert lengths and set(lengths) == {2 ** math.ceil(math.log2(2 * n - 2))}, n
    lengths.clear()
    dft(rng.standard_normal(4097))
    assert lengths and set(lengths) == {8192}


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
    # from x0 = 0 runs the sweep's six DFTs and the stopping test's two
    # only (its S x is the sweep's last product)
    calls = []
    real_dft = cscs_solvers.dft
    monkeypatch.setattr(cscs_solvers, "dft",
                        lambda x, inverse=False: calls.append(len(x)) or real_dft(x, inverse))
    T = gen_coeffs(ProblemSpec("ex3", 16))
    cscs_solve(T, np.ones(16), SolverConfig(theta=3.585, max_iters=1, backend="fft"))
    assert calls == [16] * 8


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


def _indefinite_bands(n):
    bands = np.zeros(2 * n - 1)
    bands[n - 1] = -1.0
    bands[n - 2] = bands[n] = 3.0
    return bands


@pytest.mark.parametrize("backend", ["dct_dst", "fft"])
def test_diverging_solve_stops_at_first_non_finite_residual(backend):
    # indefinite bands at a small shift and a b near the largest double:
    # the iterates grow about tenfold a sweep and overflow at sweep 8, long
    # before the relative residual could exceed 1/eps
    n = 64
    T = toeplitz_from_bands(_indefinite_bands(n))
    with pytest.warns(RuntimeWarning):
        report = cscs_solve(T, np.full(n, 1e300), SolverConfig(theta=0.05, backend=backend))
    assert report.stop_reason == "non_finite" and not report.converged
    assert report.iterations == len(report.residuals) == 8
    assert np.isfinite(report.residuals[:-1]).all()
    assert not np.isfinite(report.residuals[-1])
    assert len(report.warnings) == 3 and "stopped" in report.warnings[-1]


def _random_indefinite_bands():
    rng = np.random.default_rng(1)
    bands = 0.3 * rng.standard_normal(127)
    bands[63] = 1.0
    return bands


@pytest.mark.parametrize("backend", ["dct_dst", "fft"])
@pytest.mark.parametrize("bands, theta, sweeps", [
    (_indefinite_bands(64), 0.05, 18),
    (_random_indefinite_bands(), 3.0, 67),
])
def test_diverging_solve_stops_once_the_residual_exceeds_one_over_eps(
        bands, theta, sweeps, backend):
    # past ||b - T x|| > ||b|| / eps the rounding in b - T x is as large as
    # b, so the residual certifies nothing; these ran to 2.5e154 (151
    # sweeps, overflowing) and 3.8e129 (all 500 sweeps, "max_iters")
    T = toeplitz_from_bands(bands)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = cscs_solve(T, np.ones(T.n), SolverConfig(theta=theta, backend=backend))
    assert report.stop_reason == "diverged" and not report.converged
    assert report.iterations == len(report.residuals) == sweeps
    assert report.residuals[-1] > 1 / np.finfo(np.float64).eps
    assert (report.residuals[:-1] <= 1 / np.finfo(np.float64).eps).all()
    assert np.isfinite(report.solution).all()
    assert "exceeds 1/eps" in report.warnings[-1]


@pytest.mark.parametrize("backend", ["dct_dst", "fft"])
def test_a_right_hand_side_whose_norm_squared_overflows_converges(backend):
    # ||b||^2 overflows from about 1e154 an entry; the residual norms
    # overflowed to inf, and the solve stopped as "non_finite" after sweep 1
    T = gen_coeffs(ProblemSpec("ex1", 64, 0.9))
    cfg = SolverConfig(theta=1.5, backend=backend)
    want = cscs_solve(T, np.ones(64), cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = cscs_solve(T, np.full(64, 1e160), cfg)
    assert report.converged and report.iterations == want.iterations == 21
    assert np.allclose(report.residuals, want.residuals, rtol=1e-12, atol=1e-15)
    assert np.allclose(report.solution / 1e160, want.solution, rtol=1e-13, atol=0.0)


def test_stop_reason_names_why_the_solve_stopped():
    T = gen_coeffs(ProblemSpec("ex1", 64, 0.9))
    done = cscs_solve(T, np.ones(64), SolverConfig(theta=1.5))
    assert done.converged and done.stop_reason == "converged"
    cut = cscs_solve(T, np.ones(64), SolverConfig(theta=1.5, max_iters=2))
    assert not cut.converged and cut.stop_reason == "max_iters"
    assert cut.iterations == 2 and np.isfinite(cut.residuals).all()


def _shifted_operator(X, theta):
    # (theta I + X)^-1: diag (theta + alpha) / det, anti -beta / det
    d = theta + X.diag
    det = d * d + X.anti * X.anti
    return CirculantOperator(XPattern(X.n, X.pairing, d / det, -X.anti / det))


def _pattern_product(X):
    # the complex product read off an X-pattern: lambda = diag + i anti
    # holds the eigenvalues in DFT order, and the skew side runs the
    # circulant product on the D-modulated vector
    lam = X.diag + 1j * X.anti
    if X.pairing == "circulant":
        return lambda v: dft(lam * dft(v, inverse=True)).real
    dbar = np.exp(-1j * np.pi * np.arange(X.n) / X.n)
    return lambda v: (np.conj(dbar) * dft(lam * dft(dbar * v), inverse=True)).real


@pytest.mark.parametrize("n", [64, 65, 66])
def test_one_sweep_is_the_public_x_pattern_sweep(n):
    # the solve's shifted cores, built once per solve, are the public
    # operators of the inverse X-patterns, bit for bit; the X-pattern
    # route through to_core and from_core agrees to rounding.  S x0 is the
    # pair's, as the solve takes it
    T = gen_coeffs(ProblemSpec("ex1", n, 0.9))
    rng = np.random.default_rng(n)
    b, x = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
    theta = 1.985
    report = cscs_solve(T, b, SolverConfig(theta=theta, max_iters=1, x0=x))
    op = ToeplitzOperator.from_bands(T)
    omega, sigma = op.circulant_part.pattern, op.skew_part.pattern
    sx = trig_transforms._products(op.circulant_part.spectrum, op.skew_part.spectrum, x)[1]
    u = theta * x - sx + b
    v = 2 * theta * circulant_matvec(_shifted_operator(omega, theta), u) - u + b
    want = skew_circulant_matvec(_shifted_operator(sigma, theta), v)
    assert report.iterations == 1
    assert np.array_equal(report.solution, want)
    w = from_core("circulant", xpattern_shifted_solve(omega, theta, to_core("circulant", u)))
    v = 2 * theta * w - u + b
    routed = from_core("skew", xpattern_shifted_solve(sigma, theta, to_core("skew", v)))
    assert np.linalg.norm(report.solution - routed) <= 1e-14 * np.linalg.norm(routed)


@pytest.mark.parametrize("backend", ["dct_dst", "fft"])
@pytest.mark.parametrize("start", ["zero", "random"])
def test_a_sweep_and_its_stopping_test_run_four_core_products(monkeypatch, backend, start):
    # a sweep's last product is S x_new, which its stopping test and the
    # next sweep both read: 4 core products a sweep, plus C x0 and S x0
    # for the first residual from a nonzero x0; dct_dst runs S x_new and
    # the test's C x_new as one pair, and C x0 and S x0 as one more
    calls = []
    if backend == "dct_dst":
        core, pair = cscs_solvers._product, cscs_solvers._products
        monkeypatch.setattr(cscs_solvers, "_product",
                            lambda side, h, v: calls.append("core") or core(side, h, v))
        monkeypatch.setattr(cscs_solvers, "_products",
                            lambda cs, ss, v: calls.append("pair") or pair(cs, ss, v))
    else:
        real = cscs_solvers.dft
        monkeypatch.setattr(cscs_solvers, "dft",
                            lambda v, inverse=False: calls.append(inverse) or real(v, inverse))
    n = 32
    T = gen_coeffs(ProblemSpec("ex1", n, 0.9))
    x0 = None if start == "zero" else np.random.default_rng(n).uniform(-1, 1, n)
    for k in (1, 2, 5):
        calls.clear()
        report = cscs_solve(T, np.ones(n), SolverConfig(theta=1.985, tol=1e-300, max_iters=k,
                                                        x0=x0, backend=backend))
        assert report.iterations == k
        if backend == "dct_dst":
            assert calls.count("pair") == k + (0 if x0 is None else 1)
            assert calls.count("core") == 2 * k
        else:
            assert len(calls) == 2 * (4 * k + (0 if x0 is None else 2))


@pytest.mark.parametrize("backend", ["dct_dst", "fft"])
@pytest.mark.parametrize("n", [*range(1, 10), 64, 65, 256, 257])
def test_sweeps_are_bitwise_the_loop_that_recomputes_s_x(n, backend):
    # reusing the stopping test's S x_new in the next sweep changes no bit:
    # this loop recomputes S x at the top of each sweep and (C x, S x) for
    # each residual and from a nonzero x0; dct_dst runs it with the public
    # inverse operators and the pair of trig_transforms._products, and fft with
    # the products of the X-patterns and their inverses, so both also pin
    # the solve's half-spectrum cores to the pattern route
    rng = np.random.default_rng(3000 + n)
    T = toeplitz_from_bands(random_bands(rng, n, diag_boost=1.0))
    b = rng.standard_normal(n)
    theta = float(T.t(0)) / 2
    op = ToeplitzOperator.from_bands(T)
    if backend == "dct_dst":
        omega, sigma = op.circulant_part.pattern, op.skew_part.pattern
        cinv_op, sinv_op = _shifted_operator(omega, theta), _shifted_operator(sigma, theta)
        c_inv = lambda v: circulant_matvec(cinv_op, v)
        s_inv = lambda v: skew_circulant_matvec(sinv_op, v)
        spectra = (op.circulant_part.spectrum, op.skew_part.spectrum)
        pair = lambda v: trig_transforms._products(*spectra, v)
    else:
        omega, sigma = op.circulant_part.pattern, op.skew_part.pattern
        c, s, c_inv, s_inv = map(_pattern_product, (omega, sigma, _shifted_inverse(omega, theta),
                                                    _shifted_inverse(sigma, theta)))
        pair = lambda v: (c(v), s(v))
    for x0 in (None, rng.standard_normal(n)):
        report = cscs_solve(T, b, SolverConfig(theta=theta, tol=1e-12, max_iters=12, x0=x0,
                                               backend=backend, record_iterates=True))
        x = np.zeros(n) if x0 is None else x0.copy()
        r0 = np.linalg.norm(b - np.add(*pair(x))) if x.any() else np.linalg.norm(b)
        iterates, residuals = [x.copy()], []
        for k in range(12):
            u = theta * x - pair(x)[1] + b
            v = 2 * theta * c_inv(u) - u + b
            x = s_inv(v)
            iterates.append(x.copy())
            cx, sx = pair(x)
            residuals.append(np.linalg.norm(b - (cx + sx)) / r0)
            if residuals[-1] <= 1e-12:
                break
        assert np.array_equal(report.solution, x)
        assert np.array_equal(report.residuals, residuals)
        assert len(report.iterates) == len(iterates)
        assert all(map(np.array_equal, report.iterates, iterates))


@pytest.mark.parametrize("start", ["zero", "random"])
@pytest.mark.parametrize("backend", ["dct_dst", "fft"])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 65, 256, 257, 4097])
def test_dfts_per_sweep(monkeypatch, n, backend, start):
    # dct_dst: three core products and the stopping test's C x, two real
    # DFTs each; at odd n S x_new and C x_new share one complex DFT each
    # way, so six a sweep, and the build takes one (two at even n).  fft:
    # two complex DFTs a product, eight a sweep, and none to build.  A
    # nonzero x0 adds the pair (C x0, S x0): two DFTs at odd n and four at
    # even n on dct_dst, four on fft
    calls = []
    module = trig_transforms if backend == "dct_dst" else cscs_solvers
    name = "dft_vector" if backend == "dct_dst" else "dft"
    real = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    T = gen_coeffs(ProblemSpec("ex1", n, 0.9))
    x0 = None if start == "zero" else np.random.default_rng(n).uniform(-1, 1, n)
    pair = 0 if x0 is None else 2 if backend == "dct_dst" and n % 2 else 4
    for k in (1, 2, 5):
        calls.clear()
        report = cscs_solve(T, np.ones(n), SolverConfig(theta=1.985, tol=1e-300, max_iters=k,
                                                        x0=x0, backend=backend))
        assert report.iterations == k
        if backend == "fft":
            assert len(calls) == 8 * k + pair
        elif n % 2:
            assert len(calls) == 6 * k + 1 + pair
        else:
            assert len(calls) == 8 * k + 2 + pair


def _separate_products_solve(T, b, theta, x0):
    # the solve to tol = 1e-12 as four separate public core products a
    # sweep, its three counted as the solve counts them: (iterations,
    # solution, per-sweep counts, sizes, initial residual)
    op = ToeplitzOperator.from_bands(T)
    omega, sigma = op.circulant_part.pattern, op.skew_part.pattern
    c_inv, s_inv = _shifted_operator(omega, theta), _shifted_operator(sigma, theta)
    x = np.zeros(T.n) if x0 is None else x0.copy()
    cx, sx = circulant_matvec(op.circulant_part, x), skew_circulant_matvec(op.skew_part, x)
    r0 = np.linalg.norm(b - (cx + sx)) if x.any() else np.linalg.norm(b)
    counts, sizes = [], set()
    for sweep in range(1, 501):
        with counting() as used:
            u = theta * x - sx + b
            v = 2 * theta * circulant_matvec(c_inv, u) - u + b
            x = skew_circulant_matvec(s_inv, v)
            sx = skew_circulant_matvec(op.skew_part, x)
        dct = sum(k for (flavor, _), k in used.items() if flavor is Flavor.COSINE)
        counts.append((dct, used.total() - dct))
        sizes.update(size for _, size in used)
        cx = circulant_matvec(op.circulant_part, x)
        if np.linalg.norm(b - (cx + sx)) / r0 <= 1e-12:
            break
    return sweep, x, counts, sizes, r0


@pytest.mark.parametrize("start", ["zero", "random"])
@pytest.mark.parametrize("n", [3, 5, 9, 65, 257, 4097])
def test_odd_n_sweeps_share_dfts_with_their_stopping_test(n, start):
    # at odd n the pair (C x_new, S x_new) rounds unlike two separate
    # products; the solve still counts (6, 6) of the same sizes a sweep,
    # runs as many sweeps and lands on the same solution to rounding, and
    # its last residual reads toeplitz_matvec, which runs the same pair
    rng = np.random.default_rng(5000 + n)
    T = toeplitz_from_bands(random_bands(rng, n, diag_boost=1.0))
    b = rng.standard_normal(n)
    x0 = None if start == "zero" else rng.standard_normal(n)
    theta = float(T.t(0)) / 2
    report = cscs_solve(T, b, SolverConfig(theta=theta, tol=1e-12, x0=x0))
    sweeps, x, counts, sizes, r0 = _separate_products_solve(T, b, theta, x0)
    assert report.converged
    assert report.transform_counts == counts == [(6, 6)] * sweeps
    assert report.transform_sizes == sizes
    assert report.iterations == sweeps
    assert np.linalg.norm(report.solution - x) <= 1e-13 * np.linalg.norm(x)
    # the solve's r0 reads the pair from a nonzero x0, as toeplitz_matvec does
    op = ToeplitzOperator.from_bands(T)
    if x0 is not None:
        r0 = np.linalg.norm(b - toeplitz_matvec(op, x0))
    tx = toeplitz_matvec(op, report.solution)
    assert report.residuals[-1] == np.linalg.norm(b - tx) / r0


@pytest.mark.parametrize("backend", ["dct_dst", "fft"])
@pytest.mark.parametrize("n", [*range(1, 10), 64, 65])
def test_one_sweep_is_the_two_dense_half_steps(n, backend):
    # one sweep from a random x0 is the paper's pair of half-steps,
    # solved densely: (theta I + C) x_half = (theta I - S) x + b, then
    # (theta I + S) x_new = (theta I - C) x_half + b
    rng = np.random.default_rng(1000 + n)
    T = toeplitz_from_bands(random_bands(rng, n, diag_boost=1.0))
    b, x = rng.standard_normal(n), rng.standard_normal(n)
    theta = float(T.t(0)) / 2
    C, S = (dense_of(part) for part in cscs_split(T))
    shift = theta * np.eye(n)
    half = np.linalg.solve(shift + C, (shift - S) @ x + b)
    want = np.linalg.solve(shift + S, (shift - C) @ half + b)
    report = cscs_solve(T, b, SolverConfig(theta=theta, max_iters=1, x0=x,
                                           backend=backend))
    assert report.iterations == 1
    assert np.linalg.norm(report.solution - want) <= 1e-12 * np.linalg.norm(want)


def test_singular_shift_raises():
    # C = S = -I and theta = 1 makes theta I + C exactly singular
    T = toeplitz_from_bands([0.0, 0.0, -2.0, 0.0, 0.0])
    with pytest.raises(SingularShiftError) as err:
        cscs_solve(T, np.ones(3), SolverConfig(theta=1.0))
    assert err.value.index == 0
    assert str(err.value) == ("shift theta=1.0 is singular at index 0 "
                              "(eigenvalue real part -1.0, imaginary part 0.0)")
    # the index is a position in the operator's spectrum: at n = 6 the
    # skew spectrum is lambda[0::2], and theta = sqrt(3)/2 cancels its
    # entry 1, lambda[2] (pattern position 2)
    T = toeplitz_from_bands([0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    lam = ToeplitzOperator.from_bands(T).skew_part.spectrum[1]
    for backend in ("dct_dst", "fft"):
        with pytest.raises(SingularShiftError) as err:
            cscs_solve(T, np.ones(6), SolverConfig(theta=-lam.real, backend=backend))
        assert err.value.index == 1
        assert str(err.value).endswith(
            f"(eigenvalue real part {lam.real}, imaginary part {lam.imag})")


@pytest.mark.parametrize("name, value", [
    ("backend", "bogus"), ("theta", -1.985), ("tol", np.nan), ("max_iters", 0),
])
def test_config_is_frozen(name, value):
    # an assignment would bypass __post_init__'s checks: "bogus" ran the
    # fft backend, a negative theta ran to non_finite, tol = nan ran every
    # sweep and max_iters = 0 none
    cfg = SolverConfig(theta=1.985)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, name, value)


@pytest.mark.parametrize("backend", ["dct_dst", "fft"])
@pytest.mark.parametrize("start", ["zero", "random"])
def test_no_solve_builds_an_x_pattern(monkeypatch, backend, start):
    # the four cores are the operators' half spectra and their shifted
    # inverses, computed entrywise: no X-pattern is expanded or inverted
    built = []
    init = real_schur.XPattern.__post_init__
    monkeypatch.setattr(real_schur.XPattern, "__post_init__",
                        lambda X: built.append(X.n) or init(X))
    n = 33
    T = gen_coeffs(ProblemSpec("ex1", n, 0.9))
    x0 = None if start == "zero" else np.random.default_rng(n).uniform(-1, 1, n)
    report = cscs_solve(T, np.ones(n), SolverConfig(theta=1.985, x0=x0, backend=backend))
    assert report.converged
    assert built == []
    # the counter sees a pattern when one is built
    ToeplitzOperator.from_bands(T).skew_part.pattern
    assert built == [n]


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(theta=0.0)
    with pytest.raises(ValueError):
        SolverConfig(theta=1.0, tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(theta=1.0, backend="qr")


def test_config_rejects_an_infinite_theta():
    # caught here, not blamed on a pattern index by the singular-shift check
    with pytest.raises(ValueError, match="theta must be positive and finite"):
        SolverConfig(theta=np.inf)
    # a bool is not taken as the shift 1.0
    with pytest.raises(ValueError, match="theta must be a number, got True"):
        SolverConfig(theta=True)


def test_config_rejects_a_non_integer_max_iters():
    # caught here, not as a TypeError from range() inside the solve
    with pytest.raises(ValueError, match="max_iters must be an integer"):
        SolverConfig(theta=1.0, max_iters=2.5)
    # True used to run exactly one sweep and stop with "max_iters"
    with pytest.raises(ValueError, match="max_iters must be a number, got True"):
        SolverConfig(theta=1.0, max_iters=True)


def test_config_rejects_an_infinite_tol():
    # tol = inf would report convergence after one sweep
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        SolverConfig(theta=1.0, tol=np.inf)
    with pytest.raises(ValueError, match="tol must be a number, got True"):
        SolverConfig(theta=1.0, tol=True)


@pytest.mark.parametrize("backend", ["dct_dst", "fft"])
def test_zero_rhs_short_circuits(backend):
    T = toeplitz_from_bands([0.0, 0.0, 2.0, 0.0, 0.0])
    report = cscs_solve(T, np.zeros(3), SolverConfig(theta=1.0, backend=backend))
    assert report.converged and report.iterations == 0
    assert report.stop_reason == "converged"
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
    # SolverConfig checks x0 when built
    with pytest.raises(ValueError, match="initial guess must be finite"):
        cscs_solve(T, np.ones(3), SolverConfig(theta=1.0, x0=np.array([0.0, np.nan, 0.0])))


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


@pytest.mark.parametrize("theta", [-1.0, 0.0, np.nan, np.inf, True])
def test_rho_rejects_a_shift_that_is_not_positive_and_finite(theta):
    # theta = -1 used to return a radius (160.5 for ex1 at n = 8), and True
    # ran as the shift 1.0
    T = gen_coeffs(ProblemSpec("ex1", 8, 0.9))
    named = "a number, got True" if theta is True else "positive and finite"
    with pytest.raises(ValueError, match=f"theta must be {named}"):
        iteration_matrix_rho(T, theta)


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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 64, 65])
def test_theta_scan_bounds_equal_a_full_pattern_evaluation(n, rng):
    # the scan evaluates each conjugate pair once; the max runs over the
    # same values as over the whole pattern, so the bounds are bitwise equal
    T = toeplitz_from_bands(random_bands(rng, n, diag_boost=1.0))
    grid = np.linspace(0.25, 8.0, 36)
    op = ToeplitzOperator.from_bands(T)

    def full(pattern, theta):
        num = (theta - pattern.diag) ** 2 + pattern.anti ** 2
        den = (theta + pattern.diag) ** 2 + pattern.anti ** 2
        return np.max(np.sqrt(num / den))

    want = [full(op.circulant_part.pattern, th) * full(op.skew_part.pattern, th)
            for th in grid]
    assert np.array_equal(theta_scan(T, grid)[1], want)


def test_theta_scan_rejects_a_non_finite_grid_entry():
    # an infinite shift would come back as a NaN bound
    T = toeplitz_from_bands([0.0, 0.0, 2.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="theta grid must be finite"):
        theta_scan(T, [1.0, np.inf, 2.0])
    # True ran as the shift 1.0
    with pytest.raises(ValueError, match=r"theta grid must be a list of numbers, got \[True\]"):
        theta_scan(T, [True])


def test_theta_scan_bound_is_inf_at_a_singular_grid_point():
    # C = S = -2 I, so theta = 2 makes both shifted parts singular: each
    # factor is sqrt(num / 0) with num = 4 theta^2 > 0, an Inf and no warning
    T = toeplitz_from_bands([-4.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        best, bounds = theta_scan(T, [1.0, 2.0, 3.0])
    assert best == 1.0
    assert np.array_equal(bounds, [9.0, np.inf, 25.0])


def test_theta_scan_bound_is_one_at_huge_shifts():
    # (theta - lambda)^2 overflowed from about 1e154 up: NaN bounds, with
    # overflow warnings; past 2^500 the bound rounds to exactly 1
    T = gen_coeffs(ProblemSpec("ex3", 256))
    best, bounds = theta_scan(T, np.linspace(1.0, 1e300, 3))
    assert best == 1.0
    assert bounds[0] == theta_scan(T, [1.0])[1][0] < 1.0
    assert np.array_equal(bounds[1:], [1.0, 1.0])


# ------------------------------------------------- free of a power-of-two scale

# T, theta and the shift grid times s = 2^e: ex3 256 raised a false
# SingularShiftError at 2^-996 and overflowed at 2^530 and 2^996, and ex1
# 257 ran 500 sweeps to max_iters at 2^-530 (RuntimeWarnings fail a test)
_SCALED_CELLS = [("ex3", 256, None, 3.585), ("ex1", 257, 0.9, 1.5),
                 ("ex2", 256, None, 3.595), ("ex1", 4000, 0.9, 1.985)]


@pytest.mark.parametrize("e", [530, -530, 996, -996])
@pytest.mark.parametrize("backend", ["dct_dst", "fft"])
@pytest.mark.parametrize("example, n, p, theta", _SCALED_CELLS)
def test_a_solve_is_free_of_a_power_of_two_scale(example, n, p, theta, backend, e):
    # the scaled solve takes the unscaled sweeps to x / s, bitwise at 2^+-530,
    # where every intermediate stays in the normal range
    T = gen_coeffs(ProblemSpec(example, n, p))
    s = 2.0 ** e
    base = cscs_solve(T, np.ones(n), SolverConfig(theta=theta, backend=backend))
    report = cscs_solve(toeplitz_from_bands(T.coeffs * s), np.ones(n),
                        SolverConfig(theta=theta * s, backend=backend))
    assert report.converged and report.iterations == base.iterations
    x = report.solution * s
    assert np.linalg.norm(x - base.solution) <= 1e-13 * np.linalg.norm(base.solution)
    if abs(e) == 530:
        assert np.array_equal(x, base.solution)


@pytest.mark.parametrize("e", [530, -530, 996, -996])
@pytest.mark.parametrize("example, n, p, theta", _SCALED_CELLS)
def test_theta_scan_is_free_of_a_power_of_two_scale(example, n, p, theta, e):
    T = gen_coeffs(ProblemSpec(example, n, p))
    s = 2.0 ** e
    grid = np.linspace(0.5, 6.0, 23)
    best, bounds = theta_scan(T, grid)
    scaled_best, scaled_bounds = theta_scan(toeplitz_from_bands(T.coeffs * s), grid * s)
    assert np.array_equal(scaled_bounds, bounds)
    assert scaled_best / s == best


@pytest.mark.parametrize("e", [530, -530])
@pytest.mark.parametrize("example, n, p, theta", _SCALED_CELLS)
def test_shifted_solve_is_free_of_a_power_of_two_scale(example, n, p, theta, e):
    op = ToeplitzOperator.from_bands(gen_coeffs(ProblemSpec(example, n, p)))
    z = np.random.default_rng(n).uniform(-1, 1, n)
    s = 2.0 ** e
    for X in (op.circulant_part.pattern, op.skew_part.pattern):
        scaled = XPattern(n, X.pairing, X.diag * s, X.anti * s)
        assert np.array_equal(xpattern_shifted_solve(scaled, theta * s, z) * s,
                              xpattern_shifted_solve(X, theta, z))
