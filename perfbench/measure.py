"""One workload in one fresh process: set-up, timed passes, the correctness
gate, and with tracing the per-layer metrics.

run.py starts this file as a child process; it prints one JSON object as
the last line of its standard output.  BLAS threads are pinned by the
parent through the environment before numpy is imported here.
"""

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from dmaplab import spectral  # noqa: E402

import tracer as tr  # noqa: E402
from workloads import FULL, SLOTS, TOY, WORKLOADS, run_pass  # noqa: E402

MIB = float(1 << 20)
WRITERS = ("io.save_cloud", "io.save_eigen", "io.save_tangents",
           "io.emit_csv", "io.save_matrix_coo", "io.save_bounds_table",
           "io.save_table")
ORACLE = ("geometry.s2_harmonics", "geometry.s2_harmonic_gradients",
          "geometry.s2_oracle_embedding", "geometry.s2_oracle_tangent",
          "geometry.true_tangent_sphere", "geometry.s2_heat_kernel",
          "geometry.s2_tail_sum", "geometry.s2_embedding_norm_sq")
# per-layer time metric -> the functions whose outermost calls it totals
TIMED = {
    "graph.affinity_s": ("graph.build_affinity",),
    "graph.ball_counts_s": ("graph.ball_counts",),
    "graph.laplacian_s": ("graph.laplacian",),
    "spectral.eigensolve_s": ("spectral.eigensolve_smallest",),
    "spectral.eigen_errors_s": ("spectral.eigen_errors",),
    "tangent.estimate_s": ("tangent.estimate_tangents",),
    "tangent.angle_s": ("tangent.subspace_angle",),
    "io.write_s": WRITERS,
    "io.read_s": ("io.load_cloud", "io.read_kv"),
    "geometry.sample_s": ("geometry.sample_sphere", "geometry.sample_torus"),
    "geometry.oracle_s": ORACLE,
    "geometry.reach_s": ("geometry.local_reach_numeric",),
    "embedding.embed_s": ("embedding.embed_points",),
    "embedding.error_s": ("embedding.embedding_error",),
}


class Counters:
    """Counts taken at layer boundaries during one traced pass."""

    def __init__(self):
        self.dense_calls = 0
        self.iterative_calls = 0
        self.matrix_bytes = 0
        self.bytes_written = 0
        self.iterations = []
        self.neighbors = []

    def observers(self):
        def eigensolve(args, kwargs, spec):
            if args[0].n <= spectral._DENSE_LIMIT:
                self.dense_calls += 1
            else:
                self.iterative_calls += 1

        def system(args, kwargs, sys_):
            self.matrix_bytes = max(self.matrix_bytes,
                                    sys_.W.nbytes + sys_.L.nbytes)

        def fit(args, kwargs, est):
            self.iterations.append(est.iterations)
            self.neighbors.append(est.neighbor_count)

        def write(args, kwargs, result):
            path = next(a for a in args if isinstance(a, (str, os.PathLike)))
            self.bytes_written += os.path.getsize(path)

        out = {"spectral.eigensolve_smallest": eigensolve,
               "graph.system_from_cloud": system,
               "tangent.fit_local_polynomial": fit}
        out.update((name, write) for name in WRITERS)
        return out


def _mean(xs):
    return float(np.mean(xs)) if xs else 0.0


def peak_alloc_metrics(spans):
    """Largest tracemalloc peak above its start of any span per layer."""
    return {layer + ".peak_alloc_mb":
            max([s.peak_bytes for s in spans if s.layer == layer],
                default=0) / MIB
            for layer in tr.LAYERS}


def layer_metrics(spans, counters, outcomes):
    """Per-layer time and count metrics from one traced pass."""
    m = {name: tr.outermost_seconds(spans, set(fns))
         for name, fns in TIMED.items()}
    m["bounds.eval_s"] = tr.outermost_seconds(
        spans, {s.name for s in spans if s.layer == "bounds"})
    own = tr.self_times(spans)
    for layer in tr.LAYERS:
        m[layer + ".self_s"] = sum(own[s.id] for s in spans
                                   if s.layer == layer)
    fits = [s for s in spans if s.name == "tangent.fit_local_polynomial"]
    fit_s = [s.seconds for s in fits]
    m.update({
        "graph.matrix_bytes": counters.matrix_bytes,
        "spectral.dense_calls": counters.dense_calls,
        "spectral.iterative_calls": counters.iterative_calls,
        "spectral.residual_max": max(
            (r for o in outcomes for r in o.residuals), default=0.0),
        "tangent.fits": len(fits),
        "tangent.fit_errors": sum(s.error for s in fits),
        "tangent.fit_s_p50": float(np.percentile(fit_s, 50)) if fit_s else 0.0,
        "tangent.fit_s_p99": float(np.percentile(fit_s, 99)) if fit_s else 0.0,
        "tangent.iterations_mean": _mean(counters.iterations),
        "tangent.neighbors_mean": _mean(counters.neighbors),
        "io.bytes_written": counters.bytes_written,
        "io.write_mb_per_s": (counters.bytes_written / MIB / m["io.write_s"]
                              if m["io.write_s"] > 0 else 0.0),
        "trace.spans": len(spans),
    })
    return m


def pass_wall(outcomes):
    return sum(o.seconds for o in outcomes)


def _read(path):
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            return fh.read()
    except OSError:
        return ""


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None."""
    import ctypes
    for line in _read("/proc/self/maps").splitlines():
        path = line.split()[-1]
        if "openblas" in os.path.basename(path) and path.endswith(".so"):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    return int(getattr(lib, sym)())
    return None


def _commit():
    """The checkout's git commit, or "unknown" outside a repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_record(workload, sizes, seed, slot):
    """Machine, library and workload facts for the run."""
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    indices = os.listdir(base) if os.path.isdir(base) else ()
    for index in sorted(i for i in indices if i.startswith("index")):
        level = _read(os.path.join(base, index, "level")).strip()
        kind = _read(os.path.join(base, index, "type")).strip()
        if kind != "Instruction":
            caches["L" + level] = _read(os.path.join(base, index,
                                                     "size")).strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    l3 = caches.get("L3", "")
    l3_bytes = int(l3[:-1]) * 1024 if l3.endswith("K") else None
    working = workload.working_set_bytes(sizes)
    return {
        "workload": workload.name, "seed": seed, "reference_slot": slot,
        "nproc": os.cpu_count(), "cpu": cpu, "caches": caches,
        "dense_array_mb": working / MIB,
        "dense_array_over_l3": working / l3_bytes if l3_bytes else None,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "commit": _commit(),
    }


def load_reference(workload, slot):
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "reference.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)[workload.name][str(slot)]


def measure(workload, sizes, seed, seconds, trace, reference, work):
    """Timed passes of the workload; returns the result dict run.py reads.

    Untraced: passes until ``seconds`` have elapsed (at least one), and
    the end-to-end metrics.  Traced: one pass with spans for the times and
    counts, then one with spans and tracemalloc for the allocation peaks,
    which tracemalloc's own cost would distort the times of.
    """
    slot = seed % SLOTS
    t = tr.Tracer(capture=workload.captures)
    t.install(None if trace else workload.captures)
    passes = []
    try:
        if not trace:
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < seconds:
                passes.append(run_pass(workload, sizes, slot, work, t,
                                       reference, "pass%d" % len(passes)))
            walls = [pass_wall(p) for p in passes]
            metrics = {
                "wall_s": statistics.median(walls),
                "ops_per_s": statistics.median(
                    sum(o.count - o.failed for o in p) / w
                    for p, w in zip(passes, walls)),
            }
        else:
            counters = Counters()
            t.observers = counters.observers()
            t.spans_on = True
            passes.append(run_pass(workload, sizes, slot, work, t,
                                   reference, "traced"))
            traced = list(t.spans)
            wall = pass_wall(passes[0])
            metrics = layer_metrics(traced, counters, passes[0])
            metrics["trace.wall_s"] = wall
            metrics["trace.overhead_frac"] = t.overhead_s / (wall
                                                             - t.overhead_s)
            t.observers = {}
            tracemalloc.start()
            t.memory = True
            try:
                passes.append(run_pass(workload, sizes, slot, work, t,
                                       reference, "memory"))
            finally:
                tracemalloc.stop()
                t.memory = t.spans_on = False
            metrics.update(peak_alloc_metrics(t.spans[len(traced):]))
    finally:
        t.uninstall()
    outcomes = [o for p in passes for o in p]
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024.0)
    return {
        "metrics": metrics,
        "attempted": sum(o.count for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "messages": ["%s: %s" % (o.label, msg)
                     for o in outcomes for msg in o.messages][:20],
        "ops": [(o.label, o.count, o.seconds) for o in outcomes],
        "spans": t.spans,
        "record": run_record(workload, sizes, seed, slot),
    }


def write_spans(path, record, spans):
    """All spans of the run as JSON lines, after one record line."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"record": record}) + "\n")
        for s in spans:
            fh.write(json.dumps(dataclasses.asdict(s)) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() when the parent started us")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work)
    try:
        # warm-up: the workload's operations at toy size, results unchecked
        warm = tr.Tracer(capture=workload.captures)
        warm.install(workload.captures)
        try:
            run_pass(workload, TOY, 0, work, warm, None, "warm-up")
        finally:
            warm.uninstall()
        setup_s = time.monotonic() - args.spawned
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        reference = load_reference(workload, args.seed % SLOTS)
        result = measure(workload, FULL, args.seed, args.seconds, args.trace,
                         reference, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))     # only once it is empty
    spans = result.pop("spans")
    if spans:
        name = "spans-%s-seed%d.jsonl" % (workload.name, args.seed)
        write_spans(os.path.join(ROOT, ".perfbench_out", name),
                    result["record"], spans)
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
