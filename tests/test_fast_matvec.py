"""Fast structured products against the O(n^2) dense oracle."""

import numpy as np
import pytest

from cscskit import trig_transforms
from cscskit.cscs_solvers import SolverConfig, cscs_solve
from cscskit.fast_matvec import (
    CirculantOperator, ToeplitzOperator, _core_product, circulant_matvec,
    skew_circulant_matvec, toeplitz_matvec,
)
from cscskit.real_schur import (
    XPattern, _shifted_inverse, apply_block_transform, from_core, real_spectrum, to_core,
)
from cscskit.trig_transforms import _eigenvalues, _from_spectrum, _spectrum, counting
from cscskit.structured_matrices import (
    CirculantCol, SkewCirculantCol, cscs_split, naive_matvec, toeplitz_from_bands,
)

from conftest import random_bands


def rel_err(got, want):
    scale = max(1.0, float(np.abs(want).max()))
    return float(np.abs(got - want).max()) / scale


def test_identity_circulant(rng):
    n = 8
    col = np.zeros(n)
    col[0] = 1.0
    op = CirculantOperator.from_circulant(CirculantCol(n, col))
    x = rng.standard_normal(n)
    assert np.abs(circulant_matvec(op, x) - x).max() < 1e-13


def test_circulant_row_sums():
    op = CirculantOperator.from_circulant(np.array([2.0, 1.0, 0.0, 1.0]))
    assert np.allclose(circulant_matvec(op, np.ones(4)), [4, 4, 4, 4], atol=1e-12)


def test_scalar_skew_circulant(rng):
    n = 7
    col = np.zeros(n)
    col[0] = -2.5
    op = CirculantOperator.from_skew_circulant(col)
    x = rng.standard_normal(n)
    assert np.abs(skew_circulant_matvec(op, x) + 2.5 * x).max() < 1e-12


def test_skew_2x2():
    op = CirculantOperator.from_skew_circulant(np.array([0.0, 1.0]))
    got = skew_circulant_matvec(op, np.array([1.0, 2.0]))
    assert np.allclose(got, [-2.0, 1.0], atol=1e-14)


def test_toeplitz_scaled_identity(rng):
    T = toeplitz_from_bands([0.0, 0.0, 2.0, 0.0, 0.0])
    op = ToeplitzOperator.from_bands(T)
    x = rng.standard_normal(3)
    assert np.abs(toeplitz_matvec(op, x) - 2 * x).max() < 1e-13


def test_toeplitz_2x2_example():
    T = toeplitz_from_bands([1.0, 2.0, 1.0])
    op = ToeplitzOperator.from_bands(T)
    assert np.allclose(toeplitz_matvec(op, np.array([1.0, 0.0])), [2.0, 1.0],
                       atol=1e-14)


@pytest.mark.parametrize("n", list(range(2, 33)) + [255, 1000])
def test_circulant_oracle_equivalence(n, rng):
    col = rng.standard_normal(n)
    x = rng.standard_normal(n)
    op = CirculantOperator.from_circulant(col)
    assert rel_err(circulant_matvec(op, x),
                   naive_matvec(CirculantCol(n, col), x)) < 1e-11


@pytest.mark.parametrize("n", list(range(2, 33)) + [256, 1000])
def test_skew_oracle_equivalence(n, rng):
    col = rng.standard_normal(n)
    x = rng.standard_normal(n)
    op = CirculantOperator.from_skew_circulant(col)
    assert rel_err(skew_circulant_matvec(op, x),
                   naive_matvec(SkewCirculantCol(n, col), x)) < 1e-11


@pytest.mark.parametrize("n", [2, 6, 9, 100, 255])
def test_toeplitz_oracle_equivalence(n, rng):
    T = toeplitz_from_bands(random_bands(rng, n))
    x = rng.standard_normal(n)
    op = ToeplitzOperator.from_bands(T)
    assert rel_err(toeplitz_matvec(op, x), naive_matvec(T, x)) < 1e-10


def test_linearity(rng):
    n = 48
    op = CirculantOperator.from_circulant(rng.standard_normal(n))
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    a, b = 2.25, -1.5
    lhs = circulant_matvec(op, a * x + b * y)
    rhs = a * circulant_matvec(op, x) + b * circulant_matvec(op, y)
    assert rel_err(lhs, rhs) < 1e-11


def test_products_are_deterministic(rng):
    n = 50
    T = toeplitz_from_bands(random_bands(rng, n))
    op = ToeplitzOperator.from_bands(T)
    x = rng.standard_normal(n)
    first = toeplitz_matvec(op, x)
    second = toeplitz_matvec(op, x)
    assert np.array_equal(first, second)


def test_kind_and_dimension_guards(rng):
    op = CirculantOperator.from_circulant(np.ones(4))
    with pytest.raises(ValueError):
        skew_circulant_matvec(op, np.ones(4))
    with pytest.raises(ValueError):
        circulant_matvec(op, np.ones(5))


@pytest.mark.parametrize("n", [*range(1, 41), 4000, 4097, 65536, 65537])
def test_cores_hold_the_spectrum_in_dft_order(n, rng):
    # the fft backend reads its eigenvalues straight off the cores;
    # np.fft is an oracle independent of the library's DFT engine
    c, s = rng.standard_normal(n), rng.standard_normal(n)
    cases = ((CirculantOperator.from_circulant(c), np.conj(np.fft.fft(c))),
             (CirculantOperator.from_skew_circulant(s),
              np.fft.fft(s * np.exp(-1j * np.pi * np.arange(n) / n))))
    for op, want in cases:
        assert rel_err(op.pattern.diag + 1j * op.pattern.anti, want) < 1e-12, op.kind


def test_operator_cores_are_read_only():
    # every product, solve and scan on the operator reads these arrays
    op = ToeplitzOperator.from_bands(toeplitz_from_bands([0.2, 0.5, 3.0, 0.5, 0.2]))
    x = np.ones(3)
    before = toeplitz_matvec(op, x)
    for part in (op.circulant_part, op.skew_part):
        for values in (part.pattern.diag, part.pattern.anti):
            with pytest.raises(ValueError):
                values[0] += 1.0
    assert np.array_equal(toeplitz_matvec(op, x), before)


def test_operator_keeps_its_own_copy_of_the_caller_arrays():
    # an operator built from the caller's own arrays must not follow
    # later writes to them
    diag, anti = np.array([3.0, 1.0, 1.0]), np.zeros(3)
    op = CirculantOperator(XPattern(3, "circulant", diag, anti))
    x = np.ones(3)
    before = circulant_matvec(op, x)
    assert np.allclose(before, [3.0, 3.0, 3.0], atol=1e-14)
    diag[0] += 1.0
    anti[1] += 1.0
    assert np.array_equal(circulant_matvec(op, x), before)
    for values in (op.pattern.diag, op.pattern.anti):
        with pytest.raises(ValueError):
            values[0] += 1.0


def _skew_product_oracle(col, x):
    # S x = conj(w) ifft(fft(w col) fft(w x)), w = exp(-i pi j / n): the
    # cyclic convolution of the twisted vectors is w times the negacyclic one
    w = np.exp(-1j * np.pi * np.arange(col.shape[0]) / col.shape[0])
    return (np.conj(w) * np.fft.ifft(np.fft.fft(w * col) * np.fft.fft(w * x))).real


@pytest.mark.parametrize("n", [4000, 4002, 4096, 4097, 65536, 65537, 65538])
def test_core_product_matches_numpy_fft_at_scale(n, rng):
    # nonsymmetric columns give complex spectra, so a conjugated or
    # reversed half spectrum cannot pass; numpy.fft is a test-only oracle
    c, s, x = (rng.standard_normal(n) for _ in range(3))
    cases = (
        (circulant_matvec(CirculantOperator.from_circulant(c), x),
         np.fft.ifft(np.fft.fft(c) * np.fft.fft(x)).real),
        (skew_circulant_matvec(CirculantOperator.from_skew_circulant(s), x),
         _skew_product_oracle(s, x)),
    )
    for got, want in cases:
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("n", [8, 256, 4096, 4097])
def test_a_strided_column_gives_the_product_of_its_copy(n, rng):
    # a column of a C-ordered 8-column array has a 64-byte stride; the
    # skew fold read it through np.negative(..., out=strided), which
    # numpy 2.4.6 misreads, and products were wrong by 46-150%
    x = rng.standard_normal((n, 8))[:, 3]
    op = ToeplitzOperator.from_bands(toeplitz_from_bands(random_bands(rng, n)))
    calls = [lambda v: toeplitz_matvec(op, v),
             lambda v: circulant_matvec(op.circulant_part, v),
             lambda v: skew_circulant_matvec(op.skew_part, v)]
    for side in ("circulant", "skew"):
        calls += [lambda v, side=side: to_core(side, v),
                  lambda v, side=side: from_core(side, v),
                  lambda v, side=side: apply_block_transform(side, v),
                  lambda v, side=side: apply_block_transform(side, v, transposed=True)]
    for call in calls:
        assert call(x).tobytes() == call(x.copy()).tobytes()


@pytest.mark.parametrize("n", [*range(1, 18), 256, 257, 4000, 4097])
def test_pattern_round_trips_to_the_expanded_spectrum(n, rng):
    # the operator keeps only its half spectrum; the pattern it expands
    # is the real_spectrum core bit for bit
    col = rng.standard_normal(n)
    for kind, build in (("circulant", CirculantOperator.from_circulant),
                        ("skew", CirculantOperator.from_skew_circulant)):
        want = real_spectrum(kind, col).expand()
        got = build(col).pattern
        assert got.pairing == kind and got.n == n
        for name in ("diag", "anti"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (kind, name)
        # an operator built from the pattern holds the same half spectrum
        assert np.array_equal(CirculantOperator(want).spectrum, build(col).spectrum)


@pytest.mark.parametrize("n", [*range(1, 18), 64, 65, 257, 4097])
def test_each_core_holds_half_the_spectrum(n, rng):
    # n // 2 + 1 complex values at most: the abstract's "half storage";
    # the spectrum owns its memory, so no longer array stays alive behind it
    T = toeplitz_from_bands(random_bands(rng, n, diag_boost=1.0))
    op = ToeplitzOperator.from_bands(T)
    theta = float(T.t(0))
    parts = (op.circulant_part, op.skew_part,
             *(CirculantOperator(_shifted_inverse(p.pattern, theta))
               for p in (op.circulant_part, op.skew_part)))
    for part in parts:
        assert part.spectrum.dtype == np.complex128
        assert part.spectrum.nbytes <= (n // 2 + 1) * 16
        assert part.spectrum.base is None
        assert not part.spectrum.flags.writeable



@pytest.mark.parametrize("n", [*range(1, 18), 64, 65, 257, 4097])
def test_each_solve_core_holds_half_the_spectrum(n, rng):
    # the four cores cscs_solve builds: the from_bands parts and their
    # shifted inverses, computed on the half spectra
    T = toeplitz_from_bands(random_bands(rng, n, diag_boost=1.0))
    op = ToeplitzOperator.from_bands(T)
    theta = float(T.t(0))
    for part in (op.circulant_part, op.skew_part):
        for core in (part, part._shifted_inverse(theta)):
            assert core.spectrum.dtype == np.complex128
            assert core.spectrum.nbytes <= (n // 2 + 1) * 16
            assert core.spectrum.base is None
            assert not core.spectrum.flags.writeable


def _embedded_matvec(T, x):
    # T x through a 2n circulant embedding with numpy.fft, a test-only oracle
    n = T.n
    col = np.concatenate((T.coeffs[n - 1:], [0.0], T.coeffs[:n - 1]))
    return np.fft.irfft(np.fft.rfft(col) * np.fft.rfft(x, 2 * n), 2 * n)[:n]


ODD = [*range(1, 18, 2), 257, 4097]
EVEN = [*range(2, 17, 2), 256, 4000, 4096, 65536]


@pytest.mark.parametrize("n", [1, 2, 32768, 65536])
def test_products_multiply_spectrum_times_h_at_every_n(n, rng):
    # from 2^15 on numpy ran the unnamed spectrum * _spectrum(x) in place
    # as h * spectrum, which rounds differently, and its in-place multiply
    # of one-entry arrays (n = 1, 2) rounds like neither; the products
    # round as the multiply with a named half spectrum does at every n
    op = ToeplitzOperator.from_bands(toeplitz_from_bands(random_bands(rng, n)))
    for x in rng.standard_normal((8 if n < 3 else 1, n)):
        want = {}
        for part in (op.circulant_part, op.skew_part):
            h = _spectrum(part.kind, x)
            want[part.kind] = _from_spectrum(part.kind, part.spectrum * h, n)
        got = {"circulant": circulant_matvec(op.circulant_part, x),
               "skew": skew_circulant_matvec(op.skew_part, x)}
        for kind in ("circulant", "skew"):
            assert got[kind].tobytes() == want[kind].tobytes(), kind
        if n % 2 == 0:  # odd n pairs the sides in one DFT
            assert (toeplitz_matvec(op, x).tobytes()
                    == (want["circulant"] + want["skew"]).tobytes())


@pytest.mark.parametrize("n", [*range(1, 18), 64, 65, 257])
def test_real_eigenvalues_are_exactly_real(n, rng):
    # conj and a shifted inverse's -im/det left -0.0 as the imaginary part
    # of a self-conjugate eigenvalue; lambda and the pattern read +0.0
    T = toeplitz_from_bands(random_bands(rng, n, diag_boost=1.0))
    op = ToeplitzOperator.from_bands(T)
    theta = float(T.t(0))
    for part in (op.circulant_part, op.skew_part):
        for core in (part, part._shifted_inverse(theta)):
            X = core.pattern
            fixed = X.partner == np.arange(n)
            assert fixed.any() == (core.kind == "circulant" or n % 2 == 1)
            lam = _eigenvalues(core.kind, n, core.spectrum)
            for imag in (X.anti[fixed], lam.imag[fixed]):
                assert (imag == 0.0).all() and not np.signbit(imag).any(), core.kind


@pytest.mark.parametrize("n", ODD)
def test_odd_toeplitz_product_matches_the_oracle(n, rng):
    # at odd n one complex DFT carries the real DFTs of both sides
    T = toeplitz_from_bands(random_bands(rng, n))
    x = rng.standard_normal(n)
    want = naive_matvec(T, x) if n < 4096 else _embedded_matvec(T, x)
    got = toeplitz_matvec(ToeplitzOperator.from_bands(T), x)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("n", ODD)
def test_odd_from_bands_spectra_match_the_separate_builds(n, rng):
    # one DFT builds both spectra; each matches its own column's to rounding
    T = toeplitz_from_bands(random_bands(rng, n))
    c, s = cscs_split(T)
    op = ToeplitzOperator.from_bands(T)
    for got, want in ((op.circulant_part, CirculantOperator.from_circulant(c)),
                      (op.skew_part, CirculantOperator.from_skew_circulant(s))):
        scale = np.abs(want.spectrum).max()
        assert np.abs(got.spectrum - want.spectrum).max() <= 1e-14 * scale, got.kind
        # lambda[0] (circulant) and lambda[m] (skew) are real, exactly
        assert got.spectrum.imag[0] == 0.0
        assert got.spectrum.dtype == np.complex128
        assert got.spectrum.shape == (n // 2 + 1,)
        assert got.spectrum.base is None
        assert not got.spectrum.flags.writeable


@pytest.mark.parametrize("n", EVEN)
def test_even_toeplitz_product_and_build_are_the_separate_ones(n, rng):
    # even n runs each side's own real DFT, as the separate calls do
    T = toeplitz_from_bands(random_bands(rng, n))
    c, s = cscs_split(T)
    op = ToeplitzOperator.from_bands(T)
    parts = (CirculantOperator.from_circulant(c), CirculantOperator.from_skew_circulant(s))
    for got, want in zip((op.circulant_part, op.skew_part), parts):
        assert got.spectrum.tobytes() == want.spectrum.tobytes(), got.kind
    x = rng.standard_normal(n)
    want = circulant_matvec(parts[0], x) + skew_circulant_matvec(parts[1], x)
    assert toeplitz_matvec(op, x).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 7, 8, 256, 257, 4096, 4097])
def test_dfts_per_toeplitz_product_and_build(n, monkeypatch, rng):
    # a product runs two real DFTs forward and two back, a build two
    # forward: at odd n one complex DFT carries each pair
    calls = []
    dft_vector = trig_transforms.dft_vector

    def recording(x):
        calls.append(len(x))
        return dft_vector(x)

    monkeypatch.setattr(trig_transforms, "dft_vector", recording)
    T = toeplitz_from_bands(random_bands(rng, n))
    op = ToeplitzOperator.from_bands(T)
    assert len(calls) == (1 if n % 2 else 2)
    calls.clear()
    toeplitz_matvec(op, rng.standard_normal(n))
    assert len(calls) == (2 if n % 2 else 4)


@pytest.mark.parametrize("n", [*range(1, 18), 256, 257])
def test_toeplitz_product_counts_both_core_products(n, rng):
    # the pairing shares DFTs, not basis changes: still two per side
    op = ToeplitzOperator.from_bands(toeplitz_from_bands(random_bands(rng, n)))
    x = rng.standard_normal(n)
    with counting() as want:
        circulant_matvec(op.circulant_part, x)
        skew_circulant_matvec(op.skew_part, x)
    with counting() as got:
        toeplitz_matvec(op, x)
    assert got == want

@pytest.mark.parametrize("n", range(1, 18))
def test_sweep_counts_follow_the_block_rule(n, rng):
    # each core product counts the two basis changes it computes: one DCT
    # of n - sine points and one DST of sine points (when sine > 0) each,
    # sine being (n-1)//2 on the circulant side and n//2 on the skew side
    T = toeplitz_from_bands(random_bands(rng, n, diag_boost=1.0))
    report = cscs_solve(T, np.ones(n), SolverConfig(theta=float(T.t(0)), max_iters=3,
                                                    tol=1e-300))
    sines = {"circulant": (n - 1) // 2, "skew": n // 2}
    # a sweep applies S, (theta I + C)^-1 and (theta I + S)^-1
    sides = ("skew", "circulant", "skew")
    dst = sum(2 for side in sides if sines[side])
    assert report.transform_counts == [(6, dst)] * report.iterations
    sizes = {n - sine for sine in sines.values()} | {s for s in sines.values() if s}
    assert report.transform_sizes == sizes
    # the same counts as the X-pattern route through to_core and from_core
    op = ToeplitzOperator.from_bands(T)
    x = rng.standard_normal(n)
    for side, part in (("circulant", op.circulant_part), ("skew", op.skew_part)):
        with counting() as want:
            from_core(side, to_core(side, x))
        with counting() as got:
            _core_product(part, x, side)
        assert got == want


def test_product_tables_stay_bounded():
    # a process that meets many sizes keeps product tables for a bounded number
    caches = (trig_transforms._rdft_table, trig_transforms._twist)
    bounds = [cache.cache_info().maxsize for cache in caches]
    assert None not in bounds
    for n in range(100, 100 + 2 * 3 * max(bounds), 2):
        op = ToeplitzOperator.from_bands(toeplitz_from_bands(np.ones(2 * n - 1)))
        toeplitz_matvec(op, np.ones(n))
    for cache in caches:
        info = cache.cache_info()
        assert info.currsize <= info.maxsize, cache


def test_operators_reject_what_is_not_an_operator():
    # CirculantOperator("x") built, and only its first product failed,
    # with an AttributeError
    op = ToeplitzOperator.from_bands(toeplitz_from_bands([0.5, 3.0, 0.5]))
    with pytest.raises(ValueError, match="CirculantOperator pattern must be an XPattern"):
        CirculantOperator("x")
    for matvec in (circulant_matvec, skew_circulant_matvec):
        with pytest.raises(ValueError, match="operator must be a CirculantOperator"):
            matvec("x", np.ones(2))
    with pytest.raises(ValueError, match="toeplitz_matvec operator must be a ToeplitzOperator"):
        toeplitz_matvec(op.circulant_part, np.ones(2))
    with pytest.raises(ValueError, match="circulant_part must be a circulant"):
        ToeplitzOperator(op.skew_part, op.skew_part)
    with pytest.raises(ValueError, match="parts differ in size"):
        ToeplitzOperator(op.circulant_part,
                         CirculantOperator.from_skew_circulant(np.ones(3)))
