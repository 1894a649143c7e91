"""Per-layer split of a workload: traced spans, boundary counts and layer probes.

Spans are recorded from the benchmark's own files: each boundary's
function is wrapped in every cscskit module whose namespace holds it
(that is where its callers look it up) and restored afterwards.  A span
keeps its name, start, end and the span that was open when it began; a
layer's self time is its span time minus the time of its child spans.
A boundary that no longer exists is reported as absent (0 calls, 0 s)
instead of failing the run.
"""

import importlib
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

import cscskit
from workloads import BACKENDS

# (boundary, modules it is wrapped in; None means every cscskit module
# that holds the function)
BOUNDARIES = (
    ("bench_cli.gen_coeffs", None),
    ("structured_matrices.cscs_split", None),
    ("real_schur.real_spectrum", None),
    ("fast_matvec.ToeplitzOperator.from_bands", None),
    ("real_schur.apply_q", None),
    ("real_schur.apply_block_transform", None),
    ("real_schur.xpattern_apply", None),
    ("real_schur.xpattern_shifted_solve", None),
    ("trig_transforms.dtt_apply", None),
    # only the DFTs behind the DTT kernels; the fft backend's DFTs are
    # counted at cscs_solvers.dft
    ("_dft.dft_vector", ("trig_transforms",)),
    ("cscs_solvers.dft", None),
    ("cscs_solvers.cscs_solve", None),
    ("cscs_solvers.theta_scan", None),
    ("fast_matvec.toeplitz_matvec", None),
)
# counted (input points summed) but not spanned: the power-of-two FFT
# kernel that every DFT of the engine ends in
KERNEL = ("_dft._fft_pow2", ("_dft",))
DFT_BOUNDARIES = ("_dft.dft_vector", "cscs_solvers.dft")
# boundaries whose input sizes are summed, for the embed and pad ratios
POINTS = {
    "trig_transforms.dtt_apply": lambda args: args[0].size,
    "_dft.dft_vector": lambda args: len(args[0]),
    "cscs_solvers.dft": lambda args: len(args[0]),
    "_dft._fft_pow2": lambda args: len(args[0]),
}

PROBES = (
    "_dft.us",
    *(f"trig_transforms.{kind}.us" for kind in (
        "DCT-I", "DST-I", "DCT-II", "DST-II", "DCT-V", "DST-V", "DCT-VI", "DST-VI")),
    "real_schur.apply_q.us",
    "real_schur.apply_block_transform.circulant.us",
    "real_schur.apply_block_transform.skew.us",
    "real_schur.xpattern_shifted_solve.us",
    "fast_matvec.toeplitz_matvec.us",
    "structured_matrices.cscs_split.us",
)


def _resolve(name):
    """(owner, attribute) that defines a boundary, or None when it is gone."""
    module, *path = name.split(".")
    try:
        owner = importlib.import_module(f"cscskit.{module}")
    except ImportError:
        return None
    for part in path[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if path[-1] not in vars(owner):
        return None
    return owner, path[-1]


class Tracer:
    """Spans and input-point counts recorded while its boundaries are wrapped."""

    def __init__(self, boundaries=BOUNDARIES, kernel=KERNEL):
        self.boundaries = boundaries
        self.kernel = kernel
        self.spans = []             # (span id, parent id or -1, name, start, end)
        self.points = Counter()     # boundary -> summed input length
        self.present = set()
        self._stack = []
        self._next_id = 0

    def _spanned(self, name, fn):
        points = POINTS.get(name)

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            if points is not None:
                self.points[name] += points(args)
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, name, start, end))
        return traced

    def _counted(self, name, fn):
        points = POINTS[name]

        def counted(*args, **kwargs):
            self.points[name] += points(args)
            return fn(*args, **kwargs)
        return counted

    def _sites(self, name, callers):
        """Patches (owner, attribute, original, replacement) for one boundary."""
        found = _resolve(name)
        if found is None:
            return []
        owner, attr = found
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            return [(owner, attr, raw, classmethod(self._spanned(name, raw.__func__)))]
        wrap = self._counted if (name, callers) == self.kernel else self._spanned
        wrapped = wrap(name, raw)
        sites = []
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "cscskit" or modname.startswith("cscskit.")):
                continue
            if callers is not None and modname.split(".")[-1] not in callers:
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    sites.append((module, key, raw, wrapped))
        return sites

    @contextmanager
    def installed(self):
        patches = []
        try:
            targets = self.boundaries + ((self.kernel,) if self.kernel else ())
            for name, callers in targets:
                sites = self._sites(name, callers)
                if sites:
                    self.present.add(name)
                for owner, key, original, replacement in sites:
                    setattr(owner, key, replacement)
                    patches.append((owner, key, original))
            yield self
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)

    def span_totals(self) -> dict:
        """boundary -> [calls, self seconds]."""
        child = Counter()
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {name: [0, 0.0] for name, _ in self.boundaries}
        for sid, _, name, start, end in self.spans:
            totals[name][0] += 1
            totals[name][1] += (end - start) - child[sid]
        return totals


def dfts_per_sweep(state) -> dict:
    """DFTs of one sweep (iteration plus stopping test) for each backend.

    Counted on the workload's first cell as the difference between a
    solve capped at two sweeps and one capped at one, so setup DFTs
    cancel; None when a DFT boundary no longer exists or the solve
    raises (the timed passes count that solve as failed).
    """
    cell, T = state.inputs.cells[0], state.cell_problems[0]
    boundaries = tuple(b for b in BOUNDARIES if b[0] in DFT_BOUNDARIES)
    out = {}
    for backend in BACKENDS:
        counts = []
        for sweeps in (1, 2):
            tracer = Tracer(boundaries, kernel=None)
            cfg = cscskit.SolverConfig(theta=cell.theta, tol=1e-300,
                                       max_iters=sweeps, backend=backend)
            try:
                with tracer.installed():
                    cscskit.cscs_solve(T, cell.b, cfg)
            except Exception:
                break
            counts.append(len(tracer.spans))
        complete = len(counts) == 2 and tracer.present == set(DFT_BOUNDARIES)
        out[backend] = counts[1] - counts[0] if complete else None
    return out


def plan_cache_info():
    """(hits, misses) of the block-factor plan cache, or None when it is gone."""
    try:
        info = importlib.import_module("cscskit.real_schur")._block_plans.cache_info()
    except AttributeError:
        return None
    return info.hits, info.misses


def _median_us(fn, budget_s=0.3, min_calls=5, max_calls=51):
    fn()
    times = []
    start = time.perf_counter()
    while len(times) < max_calls and (len(times) < min_calls
                                      or time.perf_counter() - start < budget_s):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def block_kind_sizes(n) -> dict:
    """Transform kind -> size in the circulant and skew block factors at n."""
    m = n // 2
    if n % 2 == 0:
        return {"DCT-I": m + 1, "DST-I": m - 1, "DCT-II": m, "DST-II": m}
    return {"DCT-V": m + 1, "DST-V": m, "DCT-VI": m + 1, "DST-VI": m}


def probe_layers(state, seed, absent) -> dict:
    """Median microseconds per call of each layer's public function alone.

    Sizes come from the workload: its largest n for the DFT, butterfly,
    block transforms, shifted solve, product and splitting.  The eight
    transform kinds are timed at their block-factor sizes for the
    workload's largest even and largest odd n, and at n + 1 for the
    parity the workload lacks, so every kind is measured on every
    workload.  A probe whose function no longer exists reads 0 and is
    appended to ``absent``.
    """
    sizes = sorted({T.n for T in state.cell_problems + state.op_problems})
    n = sizes[-1]
    i = next(k for k, c in enumerate(state.inputs.cells) if c.b.size == n)
    cell, T = state.inputs.cells[i], state.cell_problems[i]
    op = next(o for o in state.operators if o.n == n)
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    probes = {
        "_dft.us": lambda: cscskit.dft(x),
        "real_schur.apply_q.us": lambda: cscskit.apply_q(x),
        "real_schur.apply_block_transform.circulant.us":
            lambda: cscskit.apply_block_transform("circulant", x),
        "real_schur.apply_block_transform.skew.us":
            lambda: cscskit.apply_block_transform("skew", x),
        "fast_matvec.toeplitz_matvec.us": lambda: cscskit.toeplitz_matvec(op, x),
        "structured_matrices.cscs_split.us": lambda: cscskit.cscs_split(T),
    }

    def shifted_solve():
        core = cscskit.real_spectrum("circulant", cscskit.cscs_split(T)[0].col).expand()
        return lambda: cscskit.xpattern_shifted_solve(core, cell.theta, x)

    def transform(kind, size):
        plan = cscskit.DttPlan(getattr(cscskit, kind.replace("-", "_")), size)
        return lambda: cscskit.dtt_apply(plan, x[:size])

    makers = {"real_schur.xpattern_shifted_solve.us": shifted_solve}
    for parity in (0, 1):
        ns = [s for s in sizes if s % 2 == parity] or [n + 1]
        for kind, size in block_kind_sizes(ns[-1]).items():
            makers[f"trig_transforms.{kind}.us"] = (
                lambda kind=kind, size=size: transform(kind, size))
    out = {}
    for name in PROBES:
        try:
            fn = probes[name] if name in probes else makers[name]()
            out[name] = _median_us(fn)
        except AttributeError:
            absent.append(name)
            out[name] = 0.0
    return out
