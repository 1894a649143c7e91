"""Butterfly, block factors, spectra and X-pattern cores.

Oracles: the dense orthogonal bases from ``dense_u_oracle`` (complex
eigenvector construction), dense congruences, and numpy's dense complex
eigensolver for eigenvalue multisets.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cscskit import _dft, real_schur
from cscskit.real_schur import (
    SingularShiftError, XPattern, apply_block_transform, apply_q,
    dense_u_oracle, from_core, real_spectrum, to_core, xpattern_apply,
    xpattern_shifted_solve,
)
from cscskit.structured_matrices import CirculantCol, SkewCirculantCol, dense_of
from cscskit.trig_transforms import DCT_I, dtt_matrix

SQ2 = np.sqrt(2.0)


def dense_q(n):
    return np.column_stack([apply_q(e) for e in np.eye(n)])


def x_dense(X):
    return X.dense()


# ---------------------------------------------------------------- butterfly

def test_q_example_n4():
    y = apply_q(np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.allclose(y, [1.0, 6 / SQ2, 3.0, 2 / SQ2], atol=1e-15)


def test_q_degenerate_n1():
    assert np.array_equal(apply_q(np.array([5.0])), [5.0])


def test_q_round_trip(rng):
    for n in range(1, 40):
        x = rng.standard_normal(n)
        assert np.abs(apply_q(apply_q(x), transposed=True) - x).max() < 1e-15 * max(
            1, np.abs(x).max())


def test_q_empty_rejected():
    with pytest.raises(ValueError):
        apply_q(np.array([]))


def test_q_is_orthogonal(rng):
    for n in (2, 3, 6, 7):
        Q = dense_q(n)
        assert np.abs(Q @ Q.T - np.eye(n)).max() < 1e-15


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 64), st.integers(0, 2 ** 31 - 1))
def test_property_q_preserves_norm(n, seed):
    x = np.random.default_rng(seed).standard_normal(n)
    assert abs(np.linalg.norm(apply_q(x)) - np.linalg.norm(x)) < 1e-12 * max(
        1, np.linalg.norm(x))


# ------------------------------------------------------------- block factor

@pytest.mark.parametrize("n", range(2, 18))
@pytest.mark.parametrize("side", ("circulant", "skew"))
def test_block_factor_equals_q_times_u(side, n):
    # Q @ U (circulant) and Q.T @ Utilde (skew) are block-diagonal
    # cosine/sine transforms; check column by column against the oracle
    U = dense_u_oracle(side, n)
    QU = np.column_stack([apply_q(col, transposed=(side == "skew"))
                          for col in U.T])
    B = np.column_stack([apply_block_transform(side, e) for e in np.eye(n)])
    assert np.abs(B - QU).max() < 1e-12
    # the basis change U (from_core) and its inverse U.T (to_core)
    eye = np.eye(n)
    assert np.abs(np.column_stack([from_core(side, e) for e in eye]) - U).max() < 1e-12
    assert np.abs(np.column_stack([to_core(side, col) for col in U.T]) - eye).max() < 1e-12


def _core_layout(side, n):
    """(cosine size, alpha weights, first paired index, sine size) of the core."""
    sine = (n - 1) // 2 if side == "circulant" else n // 2
    k = np.arange(n - sine)
    fixed = (2 * k) % n == 0 if side == "circulant" else 2 * k == n - 1
    weight = np.where(fixed, np.sqrt(n), np.sqrt(n / 2))
    return n - sine, weight, int(side == "circulant"), sine


def _fft_to_core(side, x):
    # the core holds conj(fft(x)) (circulant) or fft(x * exp(-i pi j/n))
    # (skew) in DFT order: alphas on the diagonal, betas on the anti-diagonal
    n = x.shape[0]
    hs, weight, first, sine = _core_layout(side, n)
    lam = (np.conj(np.fft.fft(x)) if side == "circulant"
           else np.fft.fft(x * np.exp(-1j * np.pi * np.arange(n) / n)))
    betas = lam.imag[first:first + sine]
    return np.concatenate((lam.real[:hs] / weight, -betas[::-1] / np.sqrt(n / 2)))


def _fft_from_core(side, y):
    n = y.shape[0]
    hs, weight, first, sine = _core_layout(side, n)
    head = weight * y[:hs] + 0j
    head.imag[first:first + sine] = -np.sqrt(n / 2) * y[hs:][::-1]
    j = np.arange(hs)
    lam = np.empty(n, dtype=np.complex128)
    lam[j] = head
    if side == "circulant":
        lam[(n - j) % n] = np.conj(head)
        return np.fft.ifft(np.conj(lam)).real
    lam[n - 1 - j] = np.conj(head)
    return (np.fft.ifft(lam) * np.exp(1j * np.pi * np.arange(n) / n)).real


@pytest.mark.parametrize("n", [4000, 4002, 4096, 4097, 65536, 65537, 65538])
@pytest.mark.parametrize("side", ("circulant", "skew"))
def test_basis_change_matches_numpy_fft_at_scale(side, n, rng):
    # dtt_matrix is O(n^2); at the benchmark's sizes np.fft is the oracle
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    for got, want in ((to_core(side, x), _fft_to_core(side, x)),
                      (from_core(side, y), _fft_from_core(side, y)),
                      (from_core(side, to_core(side, x)), x)):
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


def test_block_transform_round_trip(rng):
    for side in ("circulant", "skew"):
        for n in (1, 2, 3, 8, 9, 32, 33):
            x = rng.standard_normal(n)
            y = apply_block_transform(side, x)
            back = apply_block_transform(side, y, transposed=True)
            assert np.abs(back - x).max() < 1e-12 * max(1, np.abs(x).max())


def test_block_transform_n2_circulant_is_dct1():
    # m = 1: a 2x2 DCT-I block and an empty sine block
    y = apply_block_transform("circulant", np.array([1.0, 0.0]))
    assert np.allclose(y, dtt_matrix(DCT_I, 2)[:, 0], atol=1e-15)


# ------------------------------------------------------------- dense oracle

@pytest.mark.parametrize("n", range(3, 17))
@pytest.mark.parametrize("kind", ("circulant", "skew"))
def test_dense_u_is_orthogonal(kind, n):
    U = dense_u_oracle(kind, n)
    assert np.abs(U.T @ U - np.eye(n)).max() < 1e-12


@pytest.mark.parametrize("n", range(4, 17))
def test_congruence_hits_the_x_pattern(n, rng):
    for kind, maker in (("circulant", CirculantCol), ("skew", SkewCirculantCol)):
        M = dense_of(maker(n, rng.standard_normal(n)))
        U = dense_u_oracle(kind, n)
        core = U.T @ M @ U
        j = np.arange(n)
        partner = (n - j) % n if kind == "circulant" else n - 1 - j
        mask = np.zeros((n, n), dtype=bool)
        mask[j, j] = True
        mask[j, partner] = True
        assert np.abs(core[~mask]).max() < 1e-12


# ------------------------------------------------------------ real_spectrum

def test_spectrum_circulant_2101():
    # symmetric circulant: real eigenvalues 4, 2 (twice), 0
    pair = real_spectrum("circulant", np.array([2.0, 1.0, 0.0, 1.0]))
    assert np.allclose(pair.alphas, [4.0, 2.0, 0.0], atol=1e-13)
    assert pair.betas.shape == (1,)
    assert np.allclose(pair.betas, 0.0, atol=1e-13)


def test_spectrum_scalar_matrix():
    for kind in ("circulant", "skew"):
        col = np.zeros(6)
        col[0] = 3.5
        pair = real_spectrum(kind, col)
        assert np.allclose(pair.alphas, 3.5, atol=1e-13)
        assert np.allclose(pair.betas, 0.0, atol=1e-13)


def _sorted_eigs(values):
    values = np.asarray(values, dtype=np.complex128)
    order = np.lexsort((values.imag.round(9), values.real.round(9)))
    return values[order]


@pytest.mark.parametrize("n", [2, 3, 8, 9, 16, 31, 32])
def test_eigenvalue_multiset_matches_dense(n, rng):
    for kind, maker in (("circulant", CirculantCol), ("skew", SkewCirculantCol)):
        col = rng.standard_normal(n)
        ours = _sorted_eigs(real_spectrum(kind, col).eigenvalues())
        dense = _sorted_eigs(np.linalg.eigvals(dense_of(maker(n, col))))
        assert np.abs(ours - dense).max() < 1e-10 * max(1, np.abs(dense).max())


def test_eigenvalues_build_no_x_pattern(monkeypatch, rng):
    # eigenvalues() expanded a whole XPattern to read diag + 1j * anti;
    # it reads the half spectrum's conjugate symmetry, and expand() is
    # the pattern of the same lambda
    built = []
    init = real_schur.XPattern.__post_init__
    monkeypatch.setattr(real_schur.XPattern, "__post_init__",
                        lambda X: built.append(X.n) or init(X))
    for n in [*range(1, 10), 64, 65]:
        for kind in ("circulant", "skew"):
            pair = real_spectrum(kind, rng.standard_normal(n))
            lam = pair.eigenvalues()
            assert built == [], (kind, n)
            X = pair.expand()
            assert built == [n]
            built.clear()
            assert lam.real.tobytes() == X.diag.tobytes()
            assert lam.imag.tobytes() == X.anti.tobytes()
    pair = real_spectrum("skew", rng.standard_normal(4))
    with pytest.raises(ValueError, match="unknown side"):
        real_schur.SpectralPair(pair.alphas, pair.betas, "toeplitz").eigenvalues()


@pytest.mark.parametrize("alphas, betas, kind, match", [
    # n = 6 holds 4 circulant alphas and 2 betas, 3 skew alphas and 3 betas
    (np.arange(5.0), np.ones(1), "circulant", "alphas must have shape"),
    (np.arange(2.0), np.ones(4), "skew", "alphas must have shape"),
    (np.array([1.0, np.nan, 2.0, 3.0]), np.ones(2), "circulant", "finite"),
    (np.ones(3), np.array([1.0, np.inf, 0.0]), "skew", "finite"),
    (np.ones(4), np.ones(2, dtype=complex), "circulant", "list of numbers"),
    (np.ones(0), np.ones(0), "skew", "size n must be >= 1"),
])
def test_malformed_spectral_pair_raises(alphas, betas, kind, match):
    # eigenvalues() and expand() check what an XPattern checked for them
    pair = real_schur.SpectralPair(alphas, betas, kind)
    for read in (pair.eigenvalues, pair.expand):
        with pytest.raises(ValueError, match=match):
            read()


@pytest.mark.parametrize("n", range(2, 34))
def test_reconstruction_both_kinds(n, rng):
    for kind, maker in (("circulant", CirculantCol), ("skew", SkewCirculantCol)):
        col = rng.standard_normal(n)
        M = dense_of(maker(n, col))
        U = dense_u_oracle(kind, n)
        X = real_spectrum(kind, col).expand()
        assert np.abs(U.T @ M @ U - x_dense(X)).max() < 1e-10


def test_spectrum_lengths_follow_parity():
    even_c = real_spectrum("circulant", np.ones(8))
    assert even_c.alphas.shape == (5,) and even_c.betas.shape == (3,)
    odd_c = real_spectrum("circulant", np.ones(9))
    assert odd_c.alphas.shape == (5,) and odd_c.betas.shape == (4,)
    even_s = real_spectrum("skew", np.ones(8))
    assert even_s.alphas.shape == (4,) and even_s.betas.shape == (4,)
    odd_s = real_spectrum("skew", np.ones(9))
    assert odd_s.alphas.shape == (5,) and odd_s.betas.shape == (4,)


def test_real_spectrum_rejects_a_non_finite_column():
    # a NaN would spread into every alpha and beta, an Inf into RuntimeWarnings
    for kind in ("circulant", "skew"):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="first column must be finite"):
                real_spectrum(kind, np.array([1.0, bad, 0.0]))


def test_per_size_caches_stay_bounded():
    # a process that meets many sizes keeps tables for a bounded number
    caches = (_dft._bluestein_tables,)
    bounds = [cache.cache_info().maxsize for cache in caches]
    assert None not in bounds
    for n in range(100, 100 + 3 * max(bounds)):
        for kind in ("circulant", "skew"):
            real_spectrum(kind, np.ones(n)).expand()
    for cache in caches:
        info = cache.cache_info()
        assert info.currsize <= info.maxsize, cache


# ---------------------------------------------------------------- X-pattern

def _pair_pattern(alpha, beta):
    return XPattern(2, "skew", np.array([alpha, alpha]),
                    np.array([beta, -beta]))


def test_xpattern_apply_zero_pattern():
    X = XPattern(3, "circulant", np.zeros(3), np.zeros(3))
    y = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(xpattern_apply(X, y), np.zeros(3))


def test_xpattern_apply_single_pair():
    X = _pair_pattern(2.0, 3.0)
    # X = [[2, 3], [-3, 2]] and theta I + X = [[3, 3], [-3, 3]]
    y = np.array([1.0, 0.0])
    assert np.array_equal(xpattern_apply(X, y), [2.0, -3.0])
    assert np.array_equal(1.0 * y + xpattern_apply(X, y), [3.0, -3.0])


@pytest.mark.parametrize("pairing", ["circulant", "skew"])
def test_xpattern_partner_is_the_pairing_reflection(pairing):
    for n in range(1, 41):
        j = np.arange(n)
        expected = (n - j) % n if pairing == "circulant" else n - 1 - j
        zeros = np.zeros(n)
        assert np.array_equal(XPattern(n, pairing, zeros, zeros).partner, expected)


def test_xpattern_apply_matches_dense(rng):
    for n, pairing in itertools.product(range(1, 41), ("circulant", "skew")):
        j = np.arange(n)
        partner = n - 1 - j if pairing == "skew" else (n - j) % n
        diag = rng.standard_normal(n)
        anti = rng.standard_normal(n)
        diag = (diag + diag[partner]) / 2
        anti = (anti - anti[partner]) / 2
        X = XPattern(n, pairing, diag, anti)
        y = rng.standard_normal(n)
        ref = x_dense(X) @ y
        got = xpattern_apply(X, y)
        assert np.abs(got - ref).max() < 1e-13 * max(1, np.abs(ref).max())


def test_shifted_solve_scalar():
    X = XPattern(1, "circulant", np.array([3.0]), np.zeros(1))
    assert np.array_equal(xpattern_shifted_solve(X, 1.0, np.array([6.0])), [1.5])


def test_shifted_solve_pair():
    X = _pair_pattern(2.0, 3.0)
    y = xpattern_shifted_solve(X, 1.0, np.array([1.0, 0.0]))
    assert np.allclose(y, [1 / 6, 1 / 6], atol=1e-15)


def test_shifted_solve_round_trip(rng):
    for n in (1, 3, 8, 21):
        pairing = "circulant"
        j = np.arange(n)
        partner = (n - j) % n
        diag = rng.standard_normal(n)
        anti = rng.standard_normal(n)
        diag = (diag + diag[partner]) / 2
        anti = (anti - anti[partner]) / 2
        X = XPattern(n, pairing, diag, anti)
        y = rng.standard_normal(n)
        z = 5.0 * y + xpattern_apply(X, y)
        back = xpattern_shifted_solve(X, 5.0, z)
        assert np.abs(back - y).max() < 1e-12 * max(1, np.abs(y).max())


@pytest.mark.parametrize("kind", ["circulant", "skew"])
def test_shifted_inverse_is_an_x_pattern(kind, rng):
    # each 2x2 block [[d, b], [-b, d]] inverts to [[d, -b], [b, d]] / det,
    # so (theta I + X)^-1 keeps the cross shape of X
    for n in range(1, 34):
        X = real_spectrum(kind, rng.standard_normal(n)).expand()
        theta = rng.uniform(0.1, 2.0) * (1.0 + np.abs(X.diag + 1j * X.anti).max())
        inverse = real_schur._shifted_inverse(X, theta)
        assert (inverse.n, inverse.pairing) == (n, kind)
        shifted = theta * np.eye(n) + X.dense()
        err = np.abs(inverse.dense() @ shifted - np.eye(n)).max()
        assert err <= 1e-12, (n, err)
        partner = inverse.partner
        fixed = partner == np.arange(n)
        assert np.all(inverse.anti[fixed] == 0.0)
        assert np.array_equal(inverse.anti, -inverse.anti[partner])
        assert np.array_equal(inverse.diag, inverse.diag[partner])


def test_shifted_solve_singular_names_index():
    X = XPattern(3, "circulant", np.array([1.0, 2.0, 2.0]), np.zeros(3))
    with pytest.raises(SingularShiftError) as err:
        xpattern_shifted_solve(X, -1.0, np.ones(3))
    assert err.value.index == 0


@pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf, True])
def test_shifted_solve_rejects_a_non_finite_shift(theta):
    # not NaNs out, and not a singular shift blamed on pattern index 0;
    # True ran as the shift 1.0
    X = XPattern(3, "circulant", np.array([1.0, 2.0, 2.0]), np.zeros(3))
    named = "a number, got True" if theta is True else "finite"
    with pytest.raises(ValueError, match=f"theta must be {named}"):
        xpattern_shifted_solve(X, theta, np.ones(3))


@pytest.mark.parametrize("diag, anti", [
    ([1.0, 2.0, 3.0], np.zeros(4)),
    (np.zeros(4), np.zeros(5)),
    (np.zeros((2, 2)), np.zeros(4)),
])
def test_xpattern_rejects_a_wrong_length(diag, anti):
    # not a numpy broadcast error inside the first product
    with pytest.raises(ValueError, match=r"must have shape \(4,\)"):
        XPattern(4, "circulant", diag, anti)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["diag", "anti"])
def test_xpattern_rejects_non_finite_values(name, bad):
    # the singular check compares NaN as false, so a solve returned NaN
    values = {"diag": np.array([1.0, 2.0, 2.0]), "anti": np.zeros(3)}
    values[name][1:] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        XPattern(3, "circulant", values["diag"], values["anti"])


@pytest.mark.parametrize("pairing, diag, anti", [
    # the 2x2 block [[1, 1], [1, 1]]: a solve returned [0.4, -0.2] for [2/3, -1/3]
    ("skew", [1.0, 1.0], [1.0, 1.0]),
    ("skew", [1.0, 2.0], [1.0, -1.0]),
    ("circulant", [1.0, 2.0, 3.0], [0.0, 1.0, -1.0]),
    # anti must vanish at the fixed points 0 and n/2
    ("circulant", [1.0, 2.0, 2.0], [1.0, 0.0, 0.0]),
    ("circulant", [1.0, 2.0, 3.0, 2.0], [0.0, 0.0, 1.0, 0.0]),
    ("skew", [1.0, 2.0, 1.0], [0.0, 1.0, 0.0]),
], ids=["skew-symmetric-anti", "skew-diag", "circulant-diag",
        "circulant-anti-at-0", "circulant-anti-at-half", "skew-anti-at-middle"])
def test_xpattern_rejects_a_pattern_without_the_pairing_symmetry(pairing, diag, anti):
    with pytest.raises(ValueError, match="symmetric and anti antisymmetric"):
        XPattern(len(diag), pairing, np.array(diag), np.array(anti))


def test_xpattern_rejects_an_unknown_pairing():
    with pytest.raises(ValueError, match="unknown pairing 'bogus'"):
        XPattern(3, "bogus", np.ones(3), np.zeros(3))
