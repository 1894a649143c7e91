"""The input contract of every export of ``cscskit``, as one table.

Every name in ``cscskit.__all__`` has a row.  A row either lists the
checked arguments of the export (numbers, vectors and operators), each
with the kind of value it takes and a call that puts a bad value there,
or says why the export takes no such argument.  Every bad value must
raise ``ValueError``; never a ``TypeError``/``IndexError``, a
``RuntimeWarning`` or a silent result.  The one exception is declared
per argument: a linear product passes NaN through quietly, and Inf
through as IEEE arithmetic does (numpy's own floating-point warnings,
set by ``np.errstate``, apply to it).
"""

import os
import tempfile
import warnings

import numpy as np
import pytest

import cscskit
from cscskit import (
    DCT_I, DCT_V, CirculantCol, CirculantOperator, DttKind, DttPlan, Family, Flavor,
    ProblemSpec, SkewCirculantCol, SolverConfig, SpectralPair, ToeplitzBands,
    ToeplitzOperator, XPattern,
    apply_block_transform, apply_q, circulant_matvec, cscs_solve, cscs_split, dense_of,
    dense_u_oracle, dft, dtt_apply, dtt_matrix, from_core, gen_coeffs,
    iteration_matrix_rho, naive_matvec, read_vector, real_spectrum, run_bench,
    skew_circulant_matvec, theta_scan, to_core, toeplitz_from_bands, toeplitz_matvec,
    write_vector, xpattern_apply, xpattern_shifted_solve,
)

from conftest import pattern

N = 4
NAN, INF = np.nan, np.inf

# the bad values of each kind of argument, by label
_SIZE = {"nan": NAN, "+inf": INF, "-inf": -INF, "bool": True, "ndim": np.array([N]),
         "empty": np.array([], dtype=int), "zero": 0, "negative": -1,
         "float": 4.0, "fraction": 4.5, "non-number": "4"}
_NUMBER = {"nan": NAN, "+inf": INF, "-inf": -INF, "bool": True, "ndim": np.array([1.0]),
           "empty": np.array([]), "non-number": "1"}
_POSITIVE = {**_NUMBER, "zero": 0.0, "negative": -1.0}
# what a bool flag must not take: no object is read by its truthiness
_FLAG = {"string": "no", "array": np.array([1, 0]), "int": 1, "float": 1.0, "none": None}


def _vectors(n=N, owned=False, any_length=False, complex_ok=False):
    """Bad values for a vector argument of length n.

    Every vector rejects a bool array, and a complex one, with a zero or
    a nonzero imaginary part, unless complex is its declared dtype
    (``complex_ok``): numpy would convert them to float64 without a word,
    or with only a ComplexWarning, keeping the real part.  A vector that
    is kept or solved with (``owned``) also rejects a list of bools, even
    mixed with numbers.
    """
    def holding(value):
        v = np.ones(n)
        v[-1] = value
        return v

    bad = {"nan": holding(NAN), "+inf": holding(INF), "-inf": holding(-INF),
           "bool": True, "ndim": np.ones((n, 1)), "empty": np.ones(0),
           "non-number": ["x"] * n, "bool-array": np.ones(n, dtype=bool)}
    if not complex_ok:
        bad.update(complex=np.ones(n, dtype=complex), **{"complex-imag": np.ones(n) * (1 + 1j)})
    if not any_length:
        bad["length"] = np.ones(n + 1)
    if owned:
        bad.update(bools=[True] * n, **{"mixed-bool": [True] + [1.0] * (n - 1)})
    return bad


# what a linear product passes through instead of raising
_PASSES = ("nan", "+inf", "-inf")

_T = toeplitz_from_bands([0.1, 0.2, 0.3, 4.0, 0.3, 0.2, 0.1])
_OP = ToeplitzOperator.from_bands(_T)
_X = pattern(_OP.circulant_part)
_ONES = np.ones(N)
# what an operator, or any other library-object argument, must not take;
# a product also refuses an XPattern
_NOT_AN_OPERATOR = {"non-number": "x", "bool": True, "none": None, "vector": _ONES}
# what an X-pattern argument X must not take
_NOT_PATTERN = {**_NOT_AN_OPERATOR, "operator": _OP.circulant_part,
                "pair": real_spectrum("circulant", _ONES)}
# what a Toeplitz-matrix argument T must not take
_NOT_BANDS = {**_NOT_AN_OPERATOR, "circulant": CirculantCol(N, _ONES), "operator": _OP}


def _solve(b=_ONES, **cfg):
    return cscs_solve(_T, b, SolverConfig(theta=1.0, **cfg)).solution


def _written(v):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "v.txt")
        write_vector(path, v)
        return read_vector(path)


def _bench(rho_up_to):
    return run_bench([(ProblemSpec("ex3", 8), [3.5], ["dct_dst"])], rho_up_to=rho_up_to)


# name -> [(argument, bad values, call, passes NaN/Inf through)], or the
# reason the export takes no numeric argument
ROWS = {
    # bench_cli
    "BenchRow": "an output record, built by run_bench and read_csv",
    "ProblemSpec": [
        ("n", _SIZE, lambda v: ProblemSpec("ex3", v), False),
        ("p of ex1", _POSITIVE, lambda v: ProblemSpec("ex1", N, v), False),
        ("p of ex3", _NUMBER, lambda v: ProblemSpec("ex3", N, v), False),
    ],
    "VectorFormatError": "an exception type",
    "gen_coeffs": [
        ("spec", {**_NOT_AN_OPERATOR, "example": "ex3", "fields": ("ex3", N)}, gen_coeffs,
         False)],
    "read_csv": "takes a path",
    "read_vector": "takes a path",
    "run_bench": [("rho_up_to", _SIZE, _bench, False)],
    "write_csv": "takes rows and a path or handle",
    "write_markdown": "takes rows and a path or handle",
    "write_vector": [("v", _vectors(any_length=True), _written, True)],
    # cscs_solvers
    "SolveReport": "an output record, built by cscs_solve",
    "SolverConfig": [
        ("theta", _POSITIVE, lambda v: SolverConfig(theta=v), False),
        ("tol", _POSITIVE, lambda v: SolverConfig(theta=1.0, tol=v), False),
        ("max_iters", _SIZE, lambda v: SolverConfig(theta=1.0, max_iters=v), False),
        # the length of x0 is known only to the solve; the rest is checked when built
        ("x0", _vectors(owned=True), lambda v: _solve(x0=v), False),
        ("x0 when built", _vectors(owned=True, any_length=True),
         lambda v: SolverConfig(theta=1.0, x0=v), False),
        ("record_iterates", _FLAG, lambda v: SolverConfig(theta=1.0, record_iterates=v),
         False),
    ],
    "cscs_solve": [
        ("T", _NOT_BANDS, lambda v: cscs_solve(v, _ONES, SolverConfig(theta=1.0)), False),
        ("b", _vectors(owned=True), _solve, False),
        ("cfg", {**_NOT_AN_OPERATOR, "theta": 1.0, "fields": {"theta": 1.0}},
         lambda v: cscs_solve(_T, _ONES, v), False),
    ],
    "dft": [
        ("x", _vectors(any_length=True, complex_ok=True), dft, True),
        ("x, inverse", _vectors(any_length=True, complex_ok=True),
         lambda v: dft(v, inverse=True), True),
        ("inverse", _FLAG, lambda v: dft(_ONES, inverse=v), False),
    ],
    "iteration_matrix_rho": [
        ("T", _NOT_BANDS, lambda v: iteration_matrix_rho(v, 1.0), False),
        ("theta", _POSITIVE, lambda v: iteration_matrix_rho(_T, v), False)],
    "theta_scan": [
        ("T", _NOT_BANDS, lambda v: theta_scan(v, [1.0]), False),
        ("grid", {**_vectors(owned=True, any_length=True), "zero": [1.0, 0.0],
                  "negative": [-1.0]},
         lambda v: theta_scan(_T, v), False)],
    # fast_matvec
    "CirculantOperator": [
        ("from_circulant col", {**_vectors(owned=True, any_length=True),
                                "skew": SkewCirculantCol(N, _ONES)},
         CirculantOperator.from_circulant, False),
        ("from_skew_circulant col", {**_vectors(owned=True, any_length=True),
                                     "circulant": CirculantCol(N, _ONES)},
         CirculantOperator.from_skew_circulant, False)],
    "ToeplitzOperator": [
        ("from_bands T", _NOT_BANDS, ToeplitzOperator.from_bands, False),
        ("circulant_part", {**_NOT_AN_OPERATOR, "skew": _OP.skew_part},
         lambda v: ToeplitzOperator(v, _OP.skew_part), False),
        ("skew_part", {**_NOT_AN_OPERATOR, "circulant": _OP.circulant_part,
                       "size": CirculantOperator.from_skew_circulant(np.ones(N + 1))},
         lambda v: ToeplitzOperator(_OP.circulant_part, v), False),
    ],
    "circulant_matvec": [
        ("op", {**_NOT_AN_OPERATOR, "pattern": _X, "skew": _OP.skew_part},
         lambda v: circulant_matvec(v, _ONES), False),
        ("x", _vectors(), lambda v: circulant_matvec(_OP.circulant_part, v), True)],
    "skew_circulant_matvec": [
        ("op", {**_NOT_AN_OPERATOR, "pattern": _X, "circulant": _OP.circulant_part},
         lambda v: skew_circulant_matvec(v, _ONES), False),
        ("x", _vectors(), lambda v: skew_circulant_matvec(_OP.skew_part, v), True)],
    "toeplitz_matvec": [
        ("op", {**_NOT_AN_OPERATOR, "part": _OP.circulant_part},
         lambda v: toeplitz_matvec(v, _ONES), False),
        ("x", _vectors(), lambda v: toeplitz_matvec(_OP, v), True)],
    # real_schur
    "SingularShiftError": "an exception type",
    # n = 6 holds 4 circulant alphas and 2 betas, 3 skew alphas and 3 betas
    "SpectralPair": [
        ("alphas", _vectors(owned=True), lambda v: SpectralPair(v, np.ones(2), "circulant"),
         False),
        ("betas", _vectors(3, owned=True), lambda v: SpectralPair(np.ones(3), v, "skew"),
         False),
        ("kind", {"toeplitz": "toeplitz", "bool": True, "none": None},
         lambda v: SpectralPair(np.ones(4), np.ones(2), v), False)],
    "XPattern": [
        ("n", _SIZE, lambda v: XPattern(v, "circulant", np.ones(N), np.zeros(N)), False),
        ("diag", _vectors(owned=True), lambda v: XPattern(N, "circulant", v, np.zeros(N)),
         False),
        ("anti", _vectors(owned=True), lambda v: XPattern(N, "circulant", np.ones(N), v),
         False),
    ],
    "apply_block_transform": [
        ("x", _vectors(any_length=True), lambda v: apply_block_transform("skew", v), True),
        ("transposed", _FLAG, lambda v: apply_block_transform("skew", _ONES, v), False)],
    "apply_q": [("x", _vectors(any_length=True), apply_q, True),
                ("transposed", _FLAG, lambda v: apply_q(_ONES, v), False)],
    "dense_u_oracle": [("n", _SIZE, lambda v: dense_u_oracle("circulant", v), False)],
    "from_core": [("y", _vectors(any_length=True), lambda v: from_core("circulant", v), True)],
    "real_spectrum": [
        ("col", _vectors(owned=True, any_length=True), lambda v: real_spectrum("skew", v),
         False)],
    "to_core": [("x", _vectors(any_length=True), lambda v: to_core("skew", v), True)],
    "xpattern_apply": [
        ("X", _NOT_PATTERN, lambda v: xpattern_apply(v, _ONES), False),
        ("y", _vectors(), lambda v: xpattern_apply(_X, v), True)],
    "xpattern_shifted_solve": [
        ("X", _NOT_PATTERN, lambda v: xpattern_shifted_solve(v, 1.0, _ONES), False),
        ("theta", _NUMBER, lambda v: xpattern_shifted_solve(_X, v, _ONES), False),
        ("z", _vectors(), lambda v: xpattern_shifted_solve(_X, 1.0, v), True),
    ],
    # structured_matrices
    "CirculantCol": [
        ("n", _SIZE, lambda v: CirculantCol(v, _ONES), False),
        ("col", _vectors(owned=True), lambda v: CirculantCol(N, v), False),
    ],
    "SkewCirculantCol": [
        ("n", _SIZE, lambda v: SkewCirculantCol(v, _ONES), False),
        ("col", _vectors(owned=True), lambda v: SkewCirculantCol(N, v), False),
    ],
    "ToeplitzBands": [
        ("n", _SIZE, lambda v: ToeplitzBands(v, np.ones(2 * N - 1)), False),
        ("coeffs", _vectors(2 * N - 1, owned=True), lambda v: ToeplitzBands(N, v), False),
    ],
    "cscs_split": [("T", _NOT_BANDS, cscs_split, False)],
    "dense_of": [("M", {**_NOT_AN_OPERATOR, "operator": _OP}, dense_of, False)],
    "naive_matvec": [
        ("M", {**_NOT_AN_OPERATOR, "operator": _OP}, lambda v: naive_matvec(v, _ONES), False),
        ("x", _vectors(), lambda v: naive_matvec(_T, v), True)],
    # an even length is no 2n - 1
    "toeplitz_from_bands": [
        ("coeffs", {**_vectors(2 * N - 1, owned=True, any_length=True),
                    "length": np.ones(2 * N)}, toeplitz_from_bands, False)],
    # trig_transforms
    **{kind: "a transform kind constant" for kind in (
        "DCT_I", "DCT_II", "DCT_V", "DCT_VI", "DST_I", "DST_II", "DST_V", "DST_VI")},
    "DttKind": [
        ("family", {**_NOT_AN_OPERATOR, "string": "I", "flavor": Flavor.COSINE},
         lambda v: DttKind(v, Flavor.COSINE), False),
        ("flavor", {**_NOT_AN_OPERATOR, "string": "cosine", "family": Family.I},
         lambda v: DttKind(Family.I, v), False)],
    "Family": "an enum",
    "Flavor": "an enum",
    "counting": "takes no argument",
    "DttPlan": [
        ("kind", {**_NOT_AN_OPERATOR, "family": cscskit.Family.I}, lambda v: DttPlan(v, N),
         False),
        ("size", _SIZE, lambda v: DttPlan(DCT_I, v), False)],
    "dtt_apply": [
        ("plan", {**_NOT_AN_OPERATOR, "kind": DCT_V}, lambda v: dtt_apply(v, _ONES), False),
        ("x", _vectors(), lambda v: dtt_apply(DttPlan(DCT_V, N), v), True),
        ("transposed", _FLAG, lambda v: dtt_apply(DttPlan(DCT_V, N), _ONES, v), False)],
    "dtt_matrix": [
        ("kind", {**_NOT_AN_OPERATOR, "string": "DCT-I", "plan": DttPlan(DCT_I, N)},
         lambda v: dtt_matrix(v, N), False),
        ("size", _SIZE, lambda v: dtt_matrix(DCT_I, v), False)],
}

CASES = [pytest.param(name, arg, label, bad, call, passes, id=f"{name}-{arg}-{label}")
         for name, row in ROWS.items() if not isinstance(row, str)
         for arg, values, call, passes in row
         for label, bad in values.items()]


def test_every_export_has_a_row():
    assert sorted(ROWS) == sorted(cscskit.__all__)


@pytest.mark.parametrize("name, arg, label, bad, call, passes", CASES)
def test_bad_input_raises_value_error_or_passes_through(name, arg, label, bad, call,
                                                        passes):
    with warnings.catch_warnings():
        # a RuntimeWarning is not an answer, nor is any other warning
        warnings.simplefilter("error")
        if not (passes and label in _PASSES):
            with pytest.raises(ValueError):
                call(bad)
            return
        if label == "nan":
            out = call(bad)  # quietly
        else:
            # an Inf may meet 0 * Inf, which numpy reports as its errstate says
            with np.errstate(all="ignore"):
                out = call(bad)
    assert not np.isfinite(out).all()


@pytest.mark.parametrize("build, field", [
    (lambda v: ToeplitzBands(2, v), "coeffs"),
    (lambda v: CirculantCol(3, v), "col"),
    (lambda v: SkewCirculantCol(3, v), "col"),
    (toeplitz_from_bands, "coeffs"),
    (lambda v: SpectralPair(v, [0.0], "circulant"), "alphas"),
    (lambda v: SpectralPair([0.0] * 3, v, "skew"), "betas"),
], ids=["ToeplitzBands", "CirculantCol", "SkewCirculantCol", "toeplitz_from_bands",
        "SpectralPair-alphas", "SpectralPair-betas"])
def test_value_objects_own_a_read_only_copy(build, field):
    # ToeplitzBands(2, c) kept c itself: c[1] = 99 then made T.t(0) read 99
    for given in ([1.0, 2.0, 3.0], np.array([1.0, 2.0, 3.0])):
        held = getattr(build(given), field)
        before = held.copy()
        given[1] = 99.0
        assert held.dtype == np.float64 and np.array_equal(held, before)
        with pytest.raises(ValueError):
            held[0] = 5.0


@pytest.mark.parametrize("build", [
    lambda: SolverConfig(theta=1.0, x0=[1.0, 2.0]),
    lambda: cscs_solve(_T, _ONES, SolverConfig(theta=1.0)),
    lambda: XPattern(N, "circulant", _ONES, np.zeros(N)),
    lambda: real_spectrum("skew", _ONES),
    lambda: toeplitz_from_bands([1.0, 2.0, 3.0]),
    lambda: CirculantCol(N, _ONES),
    lambda: SkewCirculantCol(N, _ONES),
], ids=["SolverConfig", "SolveReport", "XPattern", "SpectralPair", "ToeplitzBands",
        "CirculantCol", "SkewCirculantCol"])
def test_objects_holding_arrays_compare_by_identity_and_hash(build):
    # comparing two equal SolverConfigs with an x0 raised numpy's
    # ambiguous-truth ValueError, and hashing a ToeplitzBands a TypeError
    a, b = build(), build()
    assert a == a and a != b
    assert len({a, b}) == 2 and hash(a) == hash(a)


def test_solver_config_owns_a_read_only_x0():
    # SolverConfig kept the caller's x0: writing into it after the build
    # moved where every later solve started
    given = np.array([1.0, 2.0, 3.0, 4.0])
    cfg = SolverConfig(theta=1.0, max_iters=1, x0=given, record_iterates=True)
    before = _solve(x0=given.copy(), max_iters=1)
    given[1] = 99.0
    assert cfg.x0.dtype == np.float64 and np.array_equal(cfg.x0, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        cfg.x0[0] = 5.0
    report = cscs_solve(_T, _ONES, cfg)
    assert np.array_equal(report.iterates[0], [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(report.solution, before)
    # the solution and the iterates are the solve's own, not the held x0
    assert report.iterates[0].flags.writeable and report.solution.flags.writeable


def test_a_list_of_bands_builds_a_working_operator():
    # the list was kept as is, and from_bands, cscs_solve and dense_of
    # then raised numpy's TypeError
    T = ToeplitzBands(2, [1.0, 4.0, 1.0])
    assert np.array_equal(cscskit.dense_of(T), [[4.0, 1.0], [1.0, 4.0]])
    assert np.allclose(toeplitz_matvec(ToeplitzOperator.from_bands(T), [1.0, 1.0]), 5.0)
    assert cscs_solve(T, np.ones(2), SolverConfig(theta=4.0)).converged
