"""The benchmark's workloads: fixed lists of operations run through dmaplab's
public API, each followed by a correctness gate.

An operation fails when it raises, when its status or exit code is not ok,
when the residual contract |(-L)v - mu v| <= 1e-8 max(1, mu), recomputed
here, does not hold, or when a quality number differs from the value
recorded at the seed commit (reference.json) by more than its tolerance.
The tolerances follow from the code's own contracts; README.md derives them.
"""

import contextlib
import hashlib
import io
import os
import time
from dataclasses import dataclass, field

import numpy as np

from dmaplab import cli, embedding, geometry, spectral
from dmaplab import experiments as X
from dmaplab import io as dio

# --seed s selects reference slot s % SLOTS; reference.json covers them all
SLOTS = 10

RESIDUAL_RTOL = 1e-8     # eigensolve_smallest's own residual contract
# two solves that each meet the residual contract agree on mu within
# 2e-8 max(1, mu); mu stays below 2 on every workload
EIGENVALUE_TOL = 4e-8
# eigenvector-derived numbers: that eigenvalue bound over the smallest gap
# next to a compared eigenvector block (0.06: indices 8 and 9), times the
# l2(1/p-hat) scaling sqrt(n / 4 pi) <= 18 of the compared eigenvectors
VECTOR_TOL = 1.2e-5
ANGLE_TOL = 1e-10        # tangent fits on exact oracle embeddings
FORMULA_RTOL = 1e-12     # closed-form rules such as the bandwidth h
VERIFY_RTOL = 1e-9       # verify-s2 values, incl. the finite-difference sweep


@dataclass(frozen=True)
class Sizes:
    pipeline_n: int = 4000        # above spectral._DENSE_LIMIT
    pipeline_runs: int = 3
    study_ntilde: int = 1000
    study_seeds: int = 2
    cli_n: int = 2000             # at spectral._DENSE_LIMIT: dense path
    cli_tangent_n: int = 500
    cli_verify_t0: float = 0.25   # 0.25 runs verify-s2's curvature sweep


FULL = Sizes()
TOY = Sizes(pipeline_n=300, pipeline_runs=2, study_ntilde=100,
            study_seeds=1, cli_n=300, cli_tangent_n=100, cli_verify_t0=0.3)


@dataclass
class Outcome:
    """One timed call that stands for ``count`` operations.

    ``messages`` lists every failure found; ``bad`` holds the indices of
    failed operations within the call, and ``whole`` marks a failure that
    fails them all.
    """
    label: str
    seconds: float
    count: int
    messages: list = field(default_factory=list)
    bad: set = field(default_factory=set)
    whole: bool = False
    observed: dict = field(default_factory=dict)
    residuals: list = field(default_factory=list)

    @property
    def failed(self):
        return self.count if self.whole else len(self.bad)


def compare(observed, reference, tolerances):
    """Failures of observed quantities against the reference, as
    (element index or None, message) pairs.  List-valued quantities are
    compared element by element, and their index names the operation."""
    out = []
    for key, (kind, tol) in tolerances.items():
        if key not in observed:
            continue
        got, want = observed[key], reference.get(key)
        if want is None:
            out.append((None, "%s: no reference value" % key))
            continue
        listed = isinstance(want, list)
        gots = got if listed else [got]
        wants = want if listed else [want]
        if len(gots) != len(wants):
            out.append((None, "%s: %d values, reference has %d"
                        % (key, len(gots), len(wants))))
            continue
        for i, (g, w) in enumerate(zip(gots, wants)):
            if kind == "exact":
                ok = g == w
            elif kind == "rel":
                ok = abs(g - w) <= tol * max(1.0, abs(w))
            else:
                ok = abs(g - w) <= tol
            if not ok:
                rule = kind if tol is None else "%s tol %g" % (kind, tol)
                out.append((i if listed else None,
                            "%s%s: %r, reference %r (%s)"
                            % (key, "[%d]" % i if listed else "", g, w,
                               rule)))
    return out


def fail(outcome, message):
    outcome.whole = True
    outcome.messages.append(message)


def gate(workload, outcome, value, tracer, state, reference):
    """Run the workload's checks, the residual contract on every captured
    eigensolve, and, given a reference, the quality comparison."""
    try:
        workload.check(outcome, value, tracer, state)
    except Exception as err:    # a check that cannot run fails the call
        fail(outcome, "check raised %s: %s" % (type(err).__name__, err))
        return
    solves = tracer.captured.get("spectral.eigensolve_smallest", ())
    for args, _, spec in solves:
        r = residual_norms(args[0], spec)
        outcome.residuals.extend(r.tolist())
        bad = r > RESIDUAL_RTOL * np.maximum(1.0, spec.mu)
        if np.any(bad):
            fail(outcome, "residual contract violated at %s: %s"
                 % (np.where(bad)[0].tolist(), r[bad].tolist()))
    if reference is None:
        return
    want = reference.get(outcome.label)
    if want is None:
        fail(outcome, "no reference for %s" % outcome.label)
        return
    for index, message in compare(outcome.observed, want,
                                  workload.tolerances):
        if index is None or outcome.count == 1:
            fail(outcome, message)
        else:
            outcome.bad.add(index)
            outcome.messages.append(message)


def residual_norms(system, spec):
    """Column norms of (-L)V - V diag(mu), recomputed outside the solver."""
    V = spec.vec_raw
    return np.linalg.norm(-(system.L @ V) - V * spec.mu[None, :], axis=0)


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_pass(workload, sizes, slot, work, tracer, reference, tag):
    """Run the workload's operations once, in order, timing each call and
    gating its result outside the timed region."""
    state = {"work": work}
    outcomes = []
    for label, count, call in workload.calls(sizes, slot, work):
        tracer.clear_captures()
        tracer.run = "%s/%s" % (tag, label)
        value, error = None, None
        with tracer.span("bench." + label):
            start = time.perf_counter()
            try:
                value = call()
            except Exception as err:    # a raising operation has failed
                error = "%s: %s" % (type(err).__name__, err)
            seconds = time.perf_counter() - start
        outcome = Outcome(label, seconds, count)
        with tracer.paused():
            if error is not None:
                fail(outcome, error)
            else:
                gate(workload, outcome, value, tracer, state, reference)
        outcomes.append(outcome)
    tracer.clear_captures()
    return outcomes


class Workload:
    """A fixed operation list; BENCHMARK.json says why each was chosen."""
    name = ""
    captures = ()
    tolerances = {}

    def working_set_bytes(self, sizes):
        """Bytes of the largest dense array the workload builds."""
        raise NotImplementedError

    def calls(self, sizes, slot, work):
        """(label, operation count, zero-argument callable) triples."""
        raise NotImplementedError

    def check(self, outcome, value, tracer, state):
        """Fill ``outcome.observed`` and record contract failures: per
        operation in ``outcome.bad``, for the whole call through
        ``fail``."""
        raise NotImplementedError


class Pipeline(Workload):
    name = "pipeline-n4000"
    captures = ("spectral.eigensolve_smallest",)
    tolerances = {
        "status": ("exact", None),
        "h": ("rel", FORMULA_RTOL),
        "t": ("rel", FORMULA_RTOL),
        "eigenvalue_errors": ("abs", EIGENVALUE_TOL),
        "first_cluster_mean": ("abs", EIGENVALUE_TOL),
        "eigenvector_sup_errors": ("abs", VECTOR_TOL),
        "embedding_error": ("abs", VECTOR_TOL),
        "tangent_angle_median": ("abs", VECTOR_TOL),
        "tangent_angle_max": ("abs", VECTOR_TOL),
        "pattern_matched": ("exact", None),
    }

    def working_set_bytes(self, sizes):
        return 8 * sizes.pipeline_n ** 2

    def calls(self, sizes, slot, work):
        cfg = X.ExperimentConfig()
        seeds = [sizes.pipeline_runs * slot + i + 1
                 for i in range(sizes.pipeline_runs)]
        return [("seed%d" % s, 1,
                 lambda s=s: X.run_pipeline(cfg, sizes.pipeline_n, s))
                for s in seeds]

    def check(self, outcome, rec, tracer, state):
        if rec.status != "ok":
            fail(outcome, "status %r" % rec.status)
        outcome.observed = {
            "status": rec.status, "h": rec.h, "t": rec.t,
            "eigenvalue_errors": list(rec.eigenvalue_errors),
            "first_cluster_mean": rec.first_cluster_mean,
            "eigenvector_sup_errors": list(rec.eigenvector_sup_errors),
            "embedding_error": rec.embedding_error,
            "tangent_angle_median": rec.tangent_angle_median,
            "tangent_angle_max": rec.tangent_angle_max,
            "pattern_matched": bool(rec.pattern_matched),
        }


class TangentStudy(Workload):
    name = "tangent-study"
    captures = ("tangent.estimate_tangents", "tangent.subspace_angle")
    tolerances = {"angles": ("abs", ANGLE_TOL)}

    def working_set_bytes(self, sizes):
        return 8 * sizes.study_ntilde * X.ExperimentConfig().m

    def calls(self, sizes, slot, work):
        seeds = tuple(sizes.study_seeds * slot + i + 1
                      for i in range(sizes.study_seeds))
        cfg = X.ExperimentConfig(ntilde_grid=(sizes.study_ntilde,),
                                 seeds=seeds)
        return [("study", sizes.study_ntilde * len(seeds),
                 lambda: X.tangent_study(cfg))]

    def check(self, outcome, result, tracer, state):
        # the study fits every base point seed by seed, then measures each
        # fit's angle to the oracle tangent in the same order
        angles = [r for _, _, r in tracer.captured["tangent.subspace_angle"]]
        batches = [r for _, _, r in
                   tracer.captured["tangent.estimate_tangents"]]
        outcome.observed = {"angles": angles}
        per_seed = outcome.count // max(1, len(batches))
        for k, batch in enumerate(batches):
            for i, err in batch.errors.items():
                outcome.bad.add(k * per_seed + i)
                outcome.messages.append("fit %d: %s"
                                        % (k * per_seed + i, err))
        outcome.bad.update(range(len(angles), outcome.count))


class CliArtifacts(Workload):
    name = "cli-artifacts"
    captures = ("spectral.eigensolve_smallest", "geometry.sample_sphere",
                "embedding.embed_points", "tangent.subspace_angle",
                "experiments.verify_s2")
    tolerances = {
        "exit_code": ("exact", None),
        "cloud_sha256": ("exact", None),
        "affinity_sha256": ("exact", None),
        "mu": ("abs", EIGENVALUE_TOL),
        "eigenvalue_errors": ("abs", EIGENVALUE_TOL),
        "eigenvector_sup_errors": ("abs", VECTOR_TOL),
        "pattern_matched": ("exact", None),
        "embedding_error": ("abs", VECTOR_TOL),
        "tangent_fits": ("exact", None),
        "angle_median": ("abs", ANGLE_TOL),
        "angle_max": ("abs", ANGLE_TOL),
        "angle_mean": ("abs", ANGLE_TOL),
        "verify_values": ("rel", VERIFY_RTOL),
        "verify_passed": ("exact", None),
    }

    def working_set_bytes(self, sizes):
        return 8 * sizes.cli_n ** 2

    def calls(self, sizes, slot, work):
        common = ["--seed", str(slot + 1), "--out", work]
        n = str(sizes.cli_n)
        commands = [
            ("sample", ["sample", "--n", n]),
            ("laplacian", ["laplacian", "--n", n]),
            ("eigen", ["eigen", "--n", n]),
            ("embed", ["embed", "--n", n]),
            ("tangent", ["tangent", "--n", str(sizes.cli_tangent_n)]),
            ("verify-s2", ["verify-s2", "--t0", repr(sizes.cli_verify_t0)]),
        ]
        out = [(label, 1, lambda argv=argv + common: run_cli(argv))
               for label, argv in commands]
        out.append(("load", 1, lambda: (
            dio.load_cloud(os.path.join(work, "cloud.csv")),
            dio.load_cloud(os.path.join(work, "embedding.csv")))))
        return out

    def check(self, outcome, value, tracer, state):
        label, obs, cap = outcome.label, {}, tracer.captured
        work = state["work"]
        outcome.observed = obs
        if label == "load":
            cloud, emb = value
            if not np.array_equal(cloud.points, state["cloud"]):
                fail(outcome, "cloud.csv does not round-trip")
            if not np.array_equal(emb.points, state["embedding"]):
                fail(outcome, "embedding.csv does not round-trip")
            return
        obs["exit_code"] = value
        if value != 0:
            fail(outcome, "exit code %r" % value)
        sampled = cap["geometry.sample_sphere"]
        points = sampled[-1][2].points if sampled else None
        if label == "sample":
            state["cloud"] = points
            obs["cloud_sha256"] = sha256(os.path.join(work, "cloud.csv"))
        elif label == "laplacian":
            obs["affinity_sha256"] = sha256(os.path.join(work,
                                                         "affinity.csv"))
        elif label == "eigen":
            spec = cap["spectral.eigensolve_smallest"][-1][2]
            lam, cols = X.sphere_truth(points, spec.m)
            report = spectral.eigen_errors(spec, lam, cols)
            obs.update(mu=spec.mu.tolist(),
                       eigenvalue_errors=report.value_errors,
                       eigenvector_sup_errors=report.vector_sup_errors,
                       pattern_matched=bool(report.pattern_matched))
        elif label == "embed":
            emb = cap["embedding.embed_points"][-1][2]
            state["embedding"] = emb.points
            m = emb.params.m
            lam, _ = X.sphere_truth(points, m)
            target = geometry.s2_oracle_embedding(points,
                                                  emb.params.t)[:, :m]
            obs["embedding_error"] = embedding.embedding_error(
                emb.points, target, X.truth_clusters(lam))
        elif label == "tangent":
            angles = np.array([r for _, _, r in
                               cap["tangent.subspace_angle"]])
            obs.update(tangent_fits=len(angles),
                       angle_median=float(np.median(angles)),
                       angle_max=float(angles.max()),
                       angle_mean=float(angles.mean()))
        elif label == "verify-s2":
            report = cap["experiments.verify_s2"][-1][2]
            obs["verify_values"] = [float(c.value) for c in report.checks
                                    if c.passed is not None]
            obs["verify_passed"] = [c.passed for c in report.checks]


def run_cli(argv):
    """cli.main with its summary lines kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


WORKLOADS = {w.name: w for w in (Pipeline(), TangentStudy(), CliArtifacts())}
