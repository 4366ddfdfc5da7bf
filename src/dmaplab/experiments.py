"""End-to-end pipeline runs, convergence and tangent studies, and the
closed-form sphere verification battery."""

import time
from dataclasses import dataclass, field, fields, replace

import numpy as np
from scipy.linalg import block_diag

from .bounds import (BoundConstants, eps_cap, heat_lower_diag,
                     rate_exponents, star_check)
from .embedding import (EmbeddedCloud, EmbeddingParams, embed_points,
                        embedding_error, select_diffusion_time,
                        select_eps_prime)
from .geometry import (_L8, _check_domain, _sphere_chart, _sphere_manifold,
                       local_reach_numeric, s2_embedding_norm_sq,
                       s2_harmonics, s2_heat_kernel, s2_oracle_embedding,
                       s2_oracle_tangent, s2_tail_sum, sample_sphere)
from .graph import system_from_cloud
from .io import RunRecord, read_kv
from .spectral import (_EXACT_REPEAT_TOL, cluster_eigenvalues, eigen_errors,
                       eigensolve_smallest, subspace_align)
from .tangent import (TangentConfig, estimate_tangents, subsample_size,
                      subspace_angle, tangent_bandwidth)

REACH_S2 = 0.646924          # curvature-sweep radius of the degree<=2 map
TAIL_CUTOFF = 50             # truncation index for spectral tail sums


@dataclass
class ExperimentConfig:
    manifold: str = "sphere"
    d: int = 2
    k: int = 3
    t0: float = 0.25
    m: int = 8
    eps: float = 0.05
    gap_tol: float = 0.25
    n_grid: tuple = (500, 1000, 2000, 4000)
    seeds: tuple = (1, 2, 3, 4, 5)
    ntilde_grid: tuple = (250, 500, 1000, 2000)
    min_subsample: int = 10
    tangent_bandwidth_const: float = 1.0
    tangent_t_cap: float = None
    tangent_max_iter: int = 20
    study_max_iter: int = 100
    tangent_tol: float = 1e-8
    output_dir: str = "."
    constants: BoundConstants = field(default_factory=BoundConstants)

    def __post_init__(self):
        if self.manifold not in {name for name, _ in _ORACLES}:
            raise ValueError("manifold must be " + " or ".join(
                sorted({repr(name) for name, _ in _ORACLES})))
        if not (self.n_grid and self.seeds and self.ntilde_grid):
            raise ValueError("n_grid, seeds and ntilde_grid must be nonempty")
        # 3 is the floor of both bandwidth rules, graph and tangent
        for name, vals, low in (("n_grid", self.n_grid, 3),
                                ("ntilde_grid", self.ntilde_grid, 3),
                                ("seeds", self.seeds, 0),
                                ("min_subsample", (self.min_subsample,), 3)):
            if not all(isinstance(v, (int, np.integer)) and v >= low
                       for v in vals):
                raise ValueError("%s: need whole numbers >= %d, got %s"
                                 % (name, low, getattr(self, name)))
        _check_domain(d=self.d, k=self.k, t0=self.t0, m=self.m,
                      gap_tol=self.gap_tol)
        cap = eps_cap(self.d)
        if not 0 < self.eps <= cap + 1e-12:
            raise ValueError("eps must lie in (0, %.6f] for d=%d"
                             % (cap, self.d))
        self.tangent_config()
        self.tangent_config(max_iter=self.study_max_iter)

    def manifold_constants(self):
        """The (manifold, d) entry's ManifoldDescriptor, else the S^d's."""
        oracle = _ORACLES.get((self.manifold, self.d))
        return oracle.constants if oracle else _sphere_manifold(self.d)

    def tangent_config(self, max_iter=None):
        desc = self.manifold_constants()
        return TangentConfig(
            k=self.k, bandwidth_const=self.tangent_bandwidth_const,
            t_cap=self.tangent_t_cap,
            max_iter=self.tangent_max_iter if max_iter is None else max_iter,
            tol=self.tangent_tol, f_min=desc.f_min, f_max=desc.f_max)

    def embedding_params(self):
        """The embedding's time t = min(t0, 4, iota^2/4), m and d."""
        return EmbeddingParams(t=select_diffusion_time(
            self.t0, self.manifold_constants().iota), m=self.m, d=self.d)


def _parse_value(kind, raw, path, lineno):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "opt_float":
            return None if raw in ("", "none", "auto", "unknown") \
                else float(raw)
        if kind == "int_list":
            return tuple(int(tok) for tok in raw.split(",") if tok.strip())
        return raw
    except ValueError:
        raise ValueError("%s line %d: cannot parse %r as %s"
                         % (path, lineno, raw, kind))


def load_config(path):
    """Build an ExperimentConfig from a key=value file whose keys are the
    field names of ExperimentConfig and BoundConstants; unknown keys are
    rejected with their line number, a repeated key with both."""
    const_names = {f.name for f in fields(BoundConstants)}
    kinds = dict.fromkeys(const_names, "opt_float")
    for f in fields(ExperimentConfig):
        if f.type is tuple:
            kinds[f.name] = "int_list"
        elif f.type is float and f.default is None:
            kinds[f.name] = "opt_float"
        elif f.type in (int, float, str):
            kinds[f.name] = f.type.__name__
    kwargs = {}
    consts = {}
    seen = {}
    for lineno, key, raw in read_kv(path):
        if key not in kinds:
            raise ValueError("%s line %d: unknown config key %r"
                             % (path, lineno, key))
        if key in seen:
            raise ValueError("%s line %d: config key %r already set on "
                             "line %d" % (path, lineno, key, seen[key]))
        seen[key] = lineno
        val = _parse_value(kinds[key], raw, path, lineno)
        if key in const_names:
            consts[key] = val
        else:
            kwargs[key] = val
    if consts:
        kwargs["constants"] = replace(BoundConstants(), **consts)
    return ExperimentConfig(**kwargs)


def sphere_truth(points, m=8):
    """Exact Laplacian eigenvalues (with multiplicity) and eigenfunction
    columns for S^2 up to index m <= 8."""
    _check_domain(m=m)
    if m > 8:
        raise ValueError("sphere truth is tabulated for m <= 8")
    lam = np.concatenate([[0.0], _L8])[:m + 1]
    n = points.shape[0]
    cols = np.empty((n, m + 1))
    cols[:, 0] = 1.0 / np.sqrt(4.0 * np.pi)
    if m >= 1:
        cols[:, 1:] = s2_harmonics(points)[:, :m]
    return lam, cols


def truth_clusters(lam):
    """Coordinate clusters of the embedding (constant mode dropped) from
    the exact eigenvalue pattern."""
    return cluster_eigenvalues(lam[1:], _EXACT_REPEAT_TOL)


@dataclass(frozen=True)
class _Oracle:                 # what one scored manifold is scored against
    name: str                  # as refusals print it
    constants: object          # its ManifoldDescriptor
    whole: dict                # m filling whole eigenspaces -> top degree
    tangent_m: range           # m whose tangents alone are compared
    sample: object             # (n, seed) -> PointCloud
    truth: object              # (points, m) -> eigenvalues, columns
    coords: object             # (points, t, m) -> first m coordinates
    tangents: object           # (points, t, m) -> their (N, m, d) frames


# (manifold, d) -> oracle; callables reach public functions via module globals
_ORACLES = {("sphere", 2): _Oracle(
    "S^2", _sphere_manifold(2), {3: 1, 8: 2}, range(2, 9),
    lambda n, seed: sample_sphere(n, 2, seed),
    lambda points, m: sphere_truth(points, m),
    lambda p, t, m: s2_oracle_embedding(p, t)[:, :m],
    lambda p, t, m: s2_oracle_tangent(p, t).basis if m == 8
    else np.linalg.qr(s2_oracle_tangent(p, t).basis[..., :m, :])[0])}


def _oracle(cfg, aligned=True):
    """The entry scoring cfg, or a refusal giving its manifold's scope."""
    oracle = _ORACLES.get((cfg.manifold, cfg.d))
    if cfg.m not in getattr(oracle, "whole" if aligned else "tangent_m", ()):
        raise ValueError("%s, got d = %s, m = %s" % ("; ".join(
            "the %s oracle scores d = %d at m = %s (tangents alone at %d <= "
            "m <= %d)" % (o.name, d, " or ".join(map(str, o.whole)),
                          o.tangent_m[0], o.tangent_m[-1])
            for (name, d), o in _ORACLES.items() if name == cfg.manifold),
            cfg.d, cfg.m))
    return oracle


def _dense_sample(cfg, n, seed, oracle=None):
    """A sample from the oracle, else from S^d, refused before sampling if
    n is too large for the n x n matrices of the dense graph pipeline."""
    if n > 2 * 10 ** 4:
        raise ValueError("dense pipeline is capped at n = 20000")
    return oracle.sample(n, seed) if oracle else sample_sphere(n, cfg.d, seed)


def _oracle_tangents(cfg, n, seed, tcfg):
    """Tangent fits at every point of an oracle-embedded sample and each
    fit's angle to the oracle tangent: (batch, angles by index, h_tilde)."""
    oracle = _oracle(cfg, aligned=False)
    params = cfg.embedding_params()
    cloud = oracle.sample(n, seed)
    emb = EmbeddedCloud(oracle.coords(cloud.points, params.t, cfg.m), params)
    h_tilde = tangent_bandwidth(n, cfg.d, tcfg)
    batch = estimate_tangents(emb, range(n), tcfg, h_tilde)
    truth = oracle.tangents(cloud.points, params.t, cfg.m)
    angles = {i: subspace_angle(fit.basis, truth[i])
              for i, fit in batch.fits.items()}
    return batch, angles, h_tilde


def run_pipeline(cfg, n, seed):
    """One full pass: sample -> graph Laplacian -> eigenpairs -> spectral
    embedding, each scored against the config's oracle, then tangent fits on
    a subsample, scored the same way.  A (d, m) outside the oracle's scope
    is refused before sampling.

    Failures are reported through the record's status field as
    'stage: message'; later fields keep their NaN defaults.
    """
    oracle = _oracle(cfg)
    rec = RunRecord(n=n, seed=seed, m=cfg.m)
    start = time.perf_counter()
    stage = "sample"
    try:
        cloud = _dense_sample(cfg, n, seed, oracle)

        stage = "laplacian"
        system = system_from_cloud(cloud)
        rec.h = system.h

        stage = "eigen"
        spec = eigensolve_smallest(system, cfg.m, gap_tol=cfg.gap_tol)
        if len(spec.clusters) > 1:
            rec.first_cluster_mean = float(np.mean(spec.mu[spec.clusters[1]]))

        stage = "eigen-errors"
        lam, cols = oracle.truth(cloud.points, cfg.m)
        report = eigen_errors(spec, lam, cols)
        rec.eigenvalue_errors = report.value_errors
        rec.eigenvector_sup_errors = report.vector_sup_errors
        rec.pattern_matched = report.pattern_matched

        stage = "embed"
        params = cfg.embedding_params()
        t = rec.t = params.t
        est = embed_points(spec, params)

        stage = "embed-errors"
        clusters = truth_clusters(lam)
        target = oracle.coords(cloud.points, t, cfg.m)
        rec.embedding_error = embedding_error(est.points, target, clusters)
        # truth clusters are contiguous and ascending: one block map
        R = block_diag(*(subspace_align(est.points[:, g], target[:, g])[0]
                         for g in clusters))

        stage = "tangent"
        size = subsample_size(n, cfg.d, cfg.k, cfg.min_subsample).size
        if size > n:
            raise ValueError("n=%d is below the tangent subsample size %d"
                             % (n, size))
        rng = np.random.default_rng((seed, n, 17))
        pick = np.sort(rng.choice(n, size=size, replace=False))
        batch = estimate_tangents(EmbeddedCloud(est.points[pick], params),
                                  range(size), cfg.tangent_config())
        if batch.errors:
            k0 = min(batch.errors)
            raise ValueError("%d of %d fits failed; first: %s"
                             % (len(batch.errors), size, batch.errors[k0]))

        stage = "tangent-errors"
        truth = R @ oracle.tangents(cloud.points[pick], t, cfg.m)
        angles = [subspace_angle(batch.fits[j].basis, truth[j])
                  for j in range(size)]
        rec.tangent_angle_median = float(np.median(angles))
        rec.tangent_angle_max = float(np.max(angles))
    except (ValueError, RuntimeError) as err:
        rec.status = "%s: %s" % (stage, err)
    rec.wall_time = time.perf_counter() - start
    return rec


@dataclass
class StudyResult:
    rows: list                 # dicts with per-n medians
    slopes: dict               # metric -> fitted log-log slope
    exponents: object          # RateExponents for (d, k)
    records: list              # every underlying RunRecord


# each scored study column, the RunRecord value whose median over the good
# seeds fills it, and the theoretical exponent printed next to its slope
_STUDY_METRICS = (
    ("eigenvalue_error", lambda r: r.eigenvalue_errors[1], "eigenvalue_rate"),
    ("eigenvector_sup_error", lambda r: r.eigenvector_sup_errors[1],
     "eigenvector_rate"),
    ("embedding_error", lambda r: r.embedding_error, "embedding_rate"),
    ("tangent_angle", lambda r: r.tangent_angle_max, "tangent_rate"))


def convergence_study(cfg):
    """Median errors over seeds for each n, plus least-squares slopes of
    log(error) against log(log n / n) next to the theoretical exponents."""
    if len(cfg.n_grid) < 3:
        raise ValueError("need at least 3 grid sizes to fit a slope")
    _oracle(cfg)
    records, rows = [], []
    for n in cfg.n_grid:
        per_seed = [run_pipeline(cfg, n, s) for s in cfg.seeds]
        records.extend(per_seed)
        good = [r for r in per_seed if r.status == "ok"]
        if not good:
            raise RuntimeError("all seeds failed at n=%d: %s"
                               % (n, per_seed[0].status))
        row = {"n": n, "runs": len(good)}
        for key, value, _ in _STUDY_METRICS:
            row[key] = float(np.median([value(r) for r in good]))
        row["first_cluster_mean"] = float(np.median(
            [r.first_cluster_mean for r in good]))
        rows.append(row)
    x = np.log([np.log(r["n"]) / r["n"] for r in rows])
    slopes = {key: float(np.polyfit(x, np.log([r[key] for r in rows]), 1)[0])
              for key, _, _ in _STUDY_METRICS}
    return StudyResult(rows=rows, slopes=slopes,
                       exponents=rate_exponents(cfg.d, cfg.k),
                       records=records)


def format_convergence(result):
    lines = ["n      runs  eig_err     vec_sup     embed_err   tan_angle"
             "   first_cluster"]
    for r in result.rows:
        cells = "".join("%-11.4e " % r[key] for key, _, _ in _STUDY_METRICS)
        lines.append("%-6d %-5d %s%-.6f" % (r["n"], r["runs"], cells,
                                            r["first_cluster_mean"]))
    lines.append("slopes of log(err) vs log(log n / n):")
    for key, _, rate in _STUDY_METRICS:
        lines.append("  %-22s fitted %+.4f   theoretical %+.6f"
                     % (key, result.slopes[key],
                        getattr(result.exponents, rate)))
    return "\n".join(lines)


@dataclass
class CheckResult:
    check: str
    value: float
    target: str
    passed: bool               # None marks a skipped check


@dataclass
class VerifyReport:
    t0: float
    m: int
    eps: float
    checks: list

    @property
    def ok(self):
        return all(c.passed is not False for c in self.checks)


def verify_s2(cfg):
    """Closed-form battery for the truncated S^2 spectral map at the
    config's t0, m, eps and bound constants, and the S^2 entry's d, kappa.

    Checks: (a) near-isometric directional norm, (b) spectral tail below
    the truncation budget, (c) the flat-case budget identity 1/(32 pi t0),
    (d) curvature-sweep radius of the image surface, (e) the radius
    inequality protecting the first-order chart, (f) the truncated kernel
    against the flat on-diagonal value.  (d) and (e) depend on a
    sweep constant pinned at t0 = 0.25 and are skipped elsewhere.  A
    (d, m) outside the oracle's scope, or an oracle other than S^2, is
    refused before any check runs.
    """
    oracle = _oracle(cfg)
    if oracle is not _ORACLES["sphere", 2]:
        raise ValueError("verify_s2 checks the S^2 oracle only, got the %s "
                         "oracle" % oracle.name)
    l_embed = oracle.whole[cfg.m]
    t0, eps, s2 = cfg.t0, cfg.eps, oracle.constants
    checks = []

    norm = float(np.sqrt(s2_embedding_norm_sq(t0, l_embed)))
    checks.append(CheckResult(
        "isometry-defect", norm, "in (0.95, 1.05)",
        bool(0.95 < norm < 1.05)))

    eps_prime = select_eps_prime(t0, s2.d, s2.kappa)
    tail = s2_tail_sum(t0, l_embed + 1, TAIL_CUTOFF)
    checks.append(CheckResult(
        "spectral-tail", tail, "<= eps' = %.9g" % eps_prime,
        bool(tail <= eps_prime)))

    ident = 1.0 / (32.0 * np.pi * t0)
    checks.append(CheckResult(
        "budget-identity", eps_prime, "== 1/(32 pi t0) = %.9g" % ident,
        bool(abs(eps_prime - ident) <= 1e-12 * ident)))

    if t0 == 0.25:
        # the image of the heat-time-t0 map is this family member at 2 t0
        reach = local_reach_numeric(
            lambda u: s2_oracle_embedding(_sphere_chart(u), 2.0 * t0),
            grid=200)
        checks.append(CheckResult(
            "sweep-radius", reach, "%.6f within 1%%" % REACH_S2,
            bool(abs(reach - REACH_S2) <= 0.01 * REACH_S2)))
        star = star_check(REACH_S2, t0, eps, s2.d, s2.kappa, cfg.constants)
        checks.append(CheckResult(
            "radius-inequality", star.lhs, ">= %.9g" % star.rhs,
            bool(star.holds)))
    else:
        checks.append(CheckResult("sweep-radius", np.nan,
                                  "skipped (t0 != 0.25)", None))
        checks.append(CheckResult("radius-inequality", np.nan,
                                  "skipped (t0 != 0.25)", None))

    diag = s2_heat_kernel(t0, 1.0, l_embed)
    flat = heat_lower_diag(t0, s2.d, s2.kappa)
    checks.append(CheckResult(
        "kernel-diagonal", abs(diag - flat),
        "|trunc - %.9g| <= eps'" % flat,
        bool(abs(diag - flat) <= eps_prime)))
    return VerifyReport(t0=t0, m=cfg.m, eps=eps, checks=checks)


def format_verify(report):
    lines = ["sphere verification at t0=%g, m=%d, eps=%g"
             % (report.t0, report.m, report.eps)]
    for c in report.checks:
        tag = "skip" if c.passed is None else ("pass" if c.passed
                                               else "FAIL")
        lines.append("  [%s] %-17s value %-14.9g target %s"
                     % (tag, c.check, c.value, c.target))
    lines.append("overall: %s" % ("pass" if report.ok else "FAIL"))
    return "\n".join(lines)


@dataclass
class TangentStudyResult:
    rows: list                 # per-ntilde dicts
    tangent_rate: float
    theoretical_size: float    # exact subsample size at the largest n


def tangent_study(cfg):
    """Tangent-fit accuracy against subsample size on oracle-embedded
    spheres: medians over seeds of the per-run median and max largest
    principal angle."""
    tcfg = cfg.tangent_config(max_iter=cfg.study_max_iter)
    rows = []
    for nt in cfg.ntilde_grid:
        med, mx = [], []
        for seed in cfg.seeds:
            batch, angles, h_tilde = _oracle_tangents(
                cfg, nt, 1_000_003 * seed + nt, tcfg)
            if batch.errors:
                k0 = min(batch.errors)
                raise RuntimeError("fit failed at ntilde=%d seed=%d: %s"
                                   % (nt, seed, batch.errors[k0]))
            vals = list(angles.values())
            med.append(np.median(vals))
            mx.append(np.max(vals))
        rows.append({"ntilde": nt,
                     "h_tilde": h_tilde,
                     "median_angle": float(np.median(med)),
                     "max_angle": float(np.median(mx))})
    ex = rate_exponents(cfg.d, cfg.k)
    theo = subsample_size(max(cfg.n_grid), cfg.d, cfg.k,
                          cfg.min_subsample).theoretical
    return TangentStudyResult(rows=rows, tangent_rate=ex.tangent_rate,
                              theoretical_size=theo)


def format_tangent_study(result):
    lines = ["ntilde  h_tilde    median_angle  max_angle(median over seeds)"]
    for r in result.rows:
        lines.append("%-7d %-10.6f %-13.6f %-.6f"
                     % (r["ntilde"], r["h_tilde"], r["median_angle"],
                        r["max_angle"]))
    inv = 1.0 / result.tangent_rate
    note = " (= 1/%d)" % round(inv) if abs(inv - round(inv)) < 1e-9 else ""
    lines.append("theoretical rate exponent: %.9g%s"
                 % (result.tangent_rate, note))
    lines.append("theoretical subsample size at the largest grid n: %.6f"
                 % result.theoretical_size)
    return "\n".join(lines)
