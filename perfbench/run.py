"""cscskit benchmark: time to solution, operator products and a traced layer split.

Run from the root of a cscskit checkout:

    python3 perfbench/run.py --workload paper_cells --seed 1 --seconds 30 --trace 0

Workloads and metrics are declared in BENCHMARK.json.  One process and
one thread drive the library in a closed loop: one caller, each call
starting when the previous one returns.  Set-up time alone is measured in
fresh processes, started one at a time.  ``--trace 0`` prints the
end-to-end metrics.  ``--trace 1`` prints the per-layer metrics: it
splits the time between untraced and traced passes, traces the cold
construction, and times each layer's public function alone (probes).
Every output is checked; an operation that raises or fails a check
counts in ``failed`` (the fail ratio is failed / attempted).  The last
line of standard output is the JSON result; a run record with versions,
core count, BLAS threads, allocator setting, seed and commit goes to
perfbench/runs/.  Untraced runs keep freed memory in the process (see
alloc.py); traced runs use the default allocator.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

# the benchmark runs one thread: pin BLAS pools before numpy loads
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "cscskit" / "__init__.py").is_file():
    sys.exit(f"perfbench: no cscskit sources under {SRC}; run from a cscskit checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import cscskit  # noqa: E402
from alloc import retain_freed_memory  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from inputs import WORKLOADS, make_inputs  # noqa: E402

if Path(cscskit.__file__).resolve().parent != (SRC / "cscskit").resolve():
    sys.exit(f"perfbench: imported cscskit from {cscskit.__file__}, not from {SRC}")

SETUP_RUNS = 7


def declared_metrics() -> dict:
    """Metric name -> unit for each trace mode, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}


def measure_setup(workload, seed, tiny) -> list:
    cmd = [sys.executable, str(HERE / "setup_child.py"),
           "--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    samples = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _quantile(samples, q) -> float:
    # 0.0 only when every such operation failed, which marks the run incorrect
    return float(np.percentile(samples, q)) if samples else 0.0


def sweep_ms(passes, backend) -> float:
    """Median over passes of solve time per sweep."""
    return statistics.median(1e3 * p.solve_s[backend] / max(p.sweeps[backend], 1)
                             for p in passes)


def end_to_end(passes, setup_samples) -> dict:
    out = {"setup_s": statistics.median(setup_samples)}
    for backend in workloads.BACKENDS:
        out[f"campaign_s.{backend}"] = statistics.median(p.solve_s[backend] for p in passes)
        out[f"sweep_ms.{backend}"] = sweep_ms(passes, backend)
    matvec = [t for p in passes for t in p.matvec_s]
    out["matvec_ms.p50"] = 1e3 * _quantile(matvec, 50)
    out["matvec_ms.p90"] = 1e3 * _quantile(matvec, 90)
    out["build_ms.p50"] = 1e3 * _quantile([t for p in passes for t in p.build_s], 50)
    out["theta_scan_ms.p50"] = 1e3 * _quantile([t for p in passes for t in p.scan_s], 50)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def _ratio(num, den, name, absent, present=True) -> float:
    """num / den; 0 and marked absent when a source is gone or den is 0."""
    if not (present and den):
        absent.append(name)
        return 0.0
    return num / den


def per_layer(state, passes, traced, setup_tracer, pass_tracer, cache, dfts, seed):
    """Per-layer metrics of a traced run, plus the names reported as absent.

    Calls and self time are those of the traced cold construction plus
    one traced pass (the traced passes' totals divided by their number).
    """
    absent = []
    out = {}
    setup_totals = setup_tracer.span_totals()
    present = setup_tracer.present | pass_tracer.present
    for name, (calls, self_s) in pass_tracer.span_totals().items():
        if name not in present:
            absent.append(name)
        out[f"{name}.calls"] = setup_totals[name][0] + calls / len(traced)
        out[f"{name}.self_s"] = setup_totals[name][1] + self_s / len(traced)
    hits, misses = cache if cache else (0, 0)
    out["real_schur.plan_cache.hit_ratio"] = _ratio(
        hits, hits + misses, "real_schur.plan_cache.hit_ratio", absent)
    counts = [c for p in traced for _, backend, r in p.reports
              if backend == "dct_dst" and r is not None and r.transform_counts
              for c in r.transform_counts]
    out["trig_transforms.dct_per_sweep"] = _ratio(
        sum(c[0] for c in counts), len(counts), "trig_transforms.dct_per_sweep", absent)
    out["trig_transforms.dst_per_sweep"] = _ratio(
        sum(c[1] for c in counts), len(counts), "trig_transforms.dst_per_sweep", absent)
    pts = pass_tracer.points
    out["trig_transforms.embed_ratio"] = _ratio(
        pts["_dft.dft_vector"], pts["trig_transforms.dtt_apply"],
        "trig_transforms.embed_ratio", absent, "_dft.dft_vector" in present)
    out["_dft.pad_ratio"] = _ratio(
        pts["_dft._fft_pow2"], pts["_dft.dft_vector"] + pts["cscs_solvers.dft"],
        "_dft.pad_ratio", absent,
        {"_dft._fft_pow2", "_dft.dft_vector", "cscs_solvers.dft"} <= present)
    for backend in workloads.BACKENDS:
        name = f"_dft.calls_per_sweep.{backend}"
        if dfts[backend] is None:
            absent.append(name)
        out[name] = dfts[backend] or 0
    # allocation churn: fresh pages touched by one untraced pass
    out["process.minor_faults"] = statistics.median(p.minor_faults for p in passes)
    out["cscs_solvers.iterations"] = sum(sum(p.sweeps.values()) for p in traced) / len(traced)
    out["trace.overhead"] = (statistics.median(p.total_s for p in traced)
                             / statistics.median(p.total_s for p in passes))
    out.update(layers.probe_layers(state, seed, absent))
    return out, absent


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def run(workload, seed, seconds, trace, tiny=False):
    """One benchmark run; returns (result line dict, run record dict)."""
    inputs = make_inputs(workload, seed, tiny)
    tally = workloads.Tally()
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "tiny": tiny, "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
    }
    if trace:
        setup_tracer, pass_tracer = layers.Tracer(), layers.Tracer()
        before = layers.plan_cache_info()
        with setup_tracer.installed():
            state = workloads.construct(inputs)
        after = layers.plan_cache_info()
        cache = (after[0] - before[0], after[1] - before[1]) if before else None
        workloads.prepare(state)
        # half of the time untraced (the baseline of trace.overhead), half traced
        passes = workloads.measure(state, seconds / 2, tally)
        with pass_tracer.installed():
            traced = workloads.measure(state, seconds / 2, tally)
    else:
        setup_samples = measure_setup(workload, seed, tiny)
        state = workloads.construct(inputs)
        workloads.prepare(state)
        passes = workloads.measure(state, seconds, tally)
    dfts = layers.dfts_per_sweep(state)
    if trace:
        metrics, absent = per_layer(state, passes, traced, setup_tracer, pass_tracer,
                                    cache, dfts, seed)
        record["absent"] = absent
        record["traced_passes"] = len(traced)
        record["_spans"] = setup_tracer.spans + pass_tracer.spans
    else:
        metrics = end_to_end(passes, setup_samples)
        record["setup_s_samples"] = setup_samples
    record["passes"] = len(passes)
    record["samples"] = {
        "campaign": len(passes),
        "matvec": sum(len(p.matvec_s) for p in passes),
        "build": sum(len(p.build_s) for p in passes),
        "theta_scan": sum(len(p.scan_s) for p in passes),
    }
    record["iterations"] = {f"{label} {backend}": (r.iterations if r else None)
                            for label, backend, r in passes[0].reports}
    record["paper_claim"] = {
        "sweep_ratio_dct_dst_over_fft": sweep_ms(passes, "dct_dst") / sweep_ms(passes, "fft"),
        "dfts_per_sweep": dfts,
    }
    record["failures"] = tally.messages
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    return result, record


def write_record(record, result):
    """Run record per workload, seed and mode; the latest traced run's spans."""
    runs = HERE / "runs"
    runs.mkdir(exist_ok=True)
    spans = record.pop("_spans", None)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    (runs / f"{stem}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1) + "\n")
    if spans is not None:
        # one file per workload, overwritten, so repeated runs do not pile up
        with open(runs / f"{record['workload']}.spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (paper targets are not checked)")
    args = parser.parse_args(argv)
    units = declared_metrics()[args.trace]
    allocator = "default" if args.trace else retain_freed_memory()
    result, record = run(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    record["allocator"] = allocator
    metrics = result["metrics"]
    if set(metrics) != set(units):
        missing, extra = sorted(set(units) - set(metrics)), sorted(set(metrics) - set(units))
        sys.exit(f"perfbench: metrics differ from BENCHMARK.json: "
                 f"missing {missing}, undeclared {extra}")
    result["metrics"] = {name: {"value": float(metrics[name]), "unit": units[name]}
                         for name in units}
    write_record(record, result)
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    claim = record["paper_claim"]
    print(f"paper claim (not gated): sweep time dct_dst/fft = "
          f"{claim['sweep_ratio_dct_dst_over_fft']:.3f} with "
          f"{claim['dfts_per_sweep']['dct_dst']} vs {claim['dfts_per_sweep']['fft']} "
          f"DFTs per sweep (paper: below 1; roadmap target <= 0.6)")
    print("record: " + json.dumps({k: v for k, v in record.items()
                                   if k not in ("failures", "iterations")}))
    print(f"iterations: {json.dumps(record['iterations'])}")
    for message in record["failures"]:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
