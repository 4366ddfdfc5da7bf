"""Acceptance battery: eleven binding checks with pinned tolerances.

Each test prints exactly one PASS/FAIL line.  The checks cover the
closed-form sphere constants, the Laplacian contracts, Monte-Carlo
convergence trends, the tangent estimator oracles, the bound evaluators,
and the command-line verification battery.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

import dmaplab.spectral as sp
from dmaplab.bounds import (BoundConstants, croke_constant, eps_cap,
                            li_yau_upper, r1_value, s1_min, star_check)
from dmaplab.embedding import (EmbeddedCloud, EmbeddingParams,
                               select_eps_prime)
from dmaplab.experiments import (ExperimentConfig, convergence_study,
                                 format_tangent_study, tangent_study)
from dmaplab.geometry import (PointCloud, local_reach_numeric,
                              s2_embedding_norm_sq, s2_heat_kernel,
                              s2_oracle_embedding, s2_oracle_tangent,
                              s2_tail_sum, sample_sphere)
from dmaplab.graph import system_from_cloud
from dmaplab.spectral import eigensolve_smallest
from dmaplab.tangent import (TangentConfig, estimate_tangents,
                             fit_local_polynomial, subspace_angle,
                             tangent_bandwidth)


def _verdict(num, desc, ok, detail):
    line = "%s: criterion %2d — %s (%s)" % ("PASS" if ok else "FAIL",
                                            num, desc, detail)
    print(line)
    assert ok, line


def test_criterion_01_embedding_norm():
    n2 = s2_embedding_norm_sq(0.25)
    root = float(np.sqrt(n2))
    ok = abs(n2 - 0.925222) <= 1e-6 and 0.95 < root < 1.05 \
        and abs(root - 0.961885) <= 1e-5
    _verdict(1, "S^2 embedding norm at t=1/4",
             ok, "norm^2=%.9f sqrt=%.9f" % (n2, root))


def test_criterion_02_truncation_tail():
    tail = s2_tail_sum(0.25, 3, 50)
    budget = 1.0 / (8.0 * np.pi)
    # the stated series, summed independently with the standard library
    exact = math.fsum((2 * l + 1) * math.exp(-l * (l + 1) * 0.25)
                      for l in range(3, 51)) / (4.0 * math.pi)
    ok = abs(tail - 0.033073) <= 1e-6 \
        and abs(tail - exact) <= 1e-12 \
        and tail <= budget
    _verdict(2, "spectral tail against pinned 0.033073 +/- 1e-6",
             ok, "tail=%.9f exact=%.17g budget=%.9f |delta|=%.2e"
             % (tail, exact, budget, abs(tail - 0.033073)))


def test_criterion_03_star_inequality():
    res = star_check(0.646924, 0.25, 0.05, 2, 0.0, BoundConstants())
    ok = abs(res.lhs - 3.34809) <= 1e-3 and \
        abs(res.rhs - 2.88982) <= 1e-3 and res.holds
    _verdict(3, "radius inequality on S^2",
             ok, "lhs=%.6f rhs=%.6f holds=%s"
             % (res.lhs, res.rhs, res.holds))


def test_criterion_04_local_reach_sweep():
    def chart(u):
        u = np.atleast_2d(u)
        th, ph = u[:, 0], u[:, 1]
        pts = np.stack([np.sin(th) * np.cos(ph),
                        np.sin(th) * np.sin(ph), np.cos(th)], axis=1)
        return s2_oracle_embedding(pts, 0.5)   # family member at 2 t0

    reach = local_reach_numeric(chart, grid=200)
    ok = abs(reach - 0.646924) <= 0.01 * 0.646924
    _verdict(4, "curvature-sweep radius on a 200x400 grid",
             ok, "reach=%.6f target 0.646924 +/- 1%%" % reach)


def test_criterion_05_heat_kernel_sandwich():
    diag = s2_heat_kernel(0.25, 1.0, 2)
    lower = 1.0 / np.pi
    eps_prime = select_eps_prime(0.25, 2, 0.0)
    ok = abs(diag - 0.313157) <= 1e-5 \
        and abs(lower - 0.318310) <= 1e-6 \
        and abs(lower - 0.3183098861837907) <= 1e-9 \
        and abs(diag - lower) <= eps_prime
    _verdict(5, "truncated diagonal vs flat lower bound",
             ok, "diag=%.6f lower=%.6f gap=%.6f <= %.6f"
             % (diag, lower, abs(diag - lower), eps_prime))


def test_criterion_06_laplacian_contracts():
    checks = []
    for n in (200, 1000):
        system = system_from_cloud(sample_sphere(n, 2, n))
        null = float(np.max(np.abs(system.L @ np.ones(n))))
        spec = eigensolve_smallest(system, 3)
        v0 = spec.vec_raw[:, 0]
        const = float(np.max(np.abs(v0 - np.mean(v0)))
                      / abs(np.mean(v0)))
        checks.append(null <= 1e-12 and spec.mu[0] <= 1e-8
                      and const <= 1e-6)
    system = system_from_cloud(sample_sphere(500, 2, 500))
    limit = sp._DENSE_LIMIT
    try:
        sp._DENSE_LIMIT = 10 ** 6
        dense = eigensolve_smallest(system, 6)
        sp._DENSE_LIMIT = 10
        it = eigensolve_smallest(system, 6)
    finally:
        sp._DENSE_LIMIT = limit
    gap = float(np.max(np.abs(dense.mu - it.mu)))
    checks.append(gap <= 1e-8)
    _verdict(6, "graph Laplacian contracts",
             all(checks), "null/mu0/const at n=200,1000 ok=%s; "
             "dense-vs-iterative gap=%.2e" % (checks[:2], gap))


def test_criterion_07_spectral_convergence_trend():
    cfg = ExperimentConfig()          # {500,1000,2000,4000} x 5 seeds
    result = convergence_study(cfg)
    eig = [r["eigenvalue_error"] for r in result.rows]
    sup = [r["eigenvector_sup_error"] for r in result.rows]
    eig_down = sum(a > b for a, b in zip(eig, eig[1:]))
    sup_down = sum(a > b for a, b in zip(sup, sup[1:]))
    final_mean = result.rows[-1]["first_cluster_mean"]
    rel = abs(final_mean - 2.0) / 2.0
    ok = eig_down >= 3 and sup_down >= 3 and rel <= 0.35
    _verdict(7, "spectral error trend over n",
             ok, "eig med %s down %d/3; sup med %s down %d/3; "
             "final cluster mean %.4f rel err %.1f%%"
             % (["%.3f" % v for v in eig], eig_down,
                ["%.4f" % v for v in sup], sup_down, final_mean,
                100 * rel))


def test_criterion_08_tangent_oracles():
    rng = np.random.default_rng(0)
    # (a) exact plane
    U = np.linalg.qr(rng.normal(size=(5, 2)))[0]
    coords = rng.uniform(-1, 1, size=(150, 2))
    plane = PointCloud(points=coords @ U.T, d=2, ambient_dim=5, seed=0)
    fit = fit_local_polynomial(plane, 0, 0.8, TangentConfig(k=3))
    a_plane = subspace_angle(fit.basis, U)
    # (b) unit circle: angle and half-curvature coefficient
    s = np.linspace(0, 2 * np.pi, 200, endpoint=False)
    circle = PointCloud(points=np.stack([np.cos(s), np.sin(s)], axis=1),
                        d=1, ambient_dim=2, seed=0)
    cfit = fit_local_polynomial(circle, 0, 0.3, TangentConfig(k=3))
    a_circle = subspace_angle(cfit.basis, np.array([[0.0], [1.0]]))
    coeff = float(np.linalg.norm(cfit.tensors[2][0]))
    # (c) embedded sphere at n=2000, fits at a spread of base points
    n = 2000
    cloud = sample_sphere(n, 2, 1)
    params = EmbeddingParams(t=0.25, m=8, d=2)
    emb = EmbeddedCloud(s2_oracle_embedding(cloud.points, 0.25), params)
    cfg = TangentConfig(k=3, max_iter=100)
    batch = estimate_tangents(emb, range(0, n, 4), cfg,
                              tangent_bandwidth(n, 2, cfg))
    angles = [subspace_angle(f.basis,
                             s2_oracle_tangent(cloud.points[i], 0.25).basis)
              for i, f in batch.fits.items()]
    med = float(np.median(angles))
    # (d) the metric equals sin(theta) on rotated lines
    sine_dev = max(abs(subspace_angle(
        np.array([[1.0], [0.0]]),
        np.array([[np.cos(th)], [np.sin(th)]])) - abs(np.sin(th)))
        for th in (0.05, 0.3, 0.9, 1.4))
    ok = a_plane < 1e-10 and a_circle < 0.01 \
        and abs(coeff - 0.5) <= 0.05 and not batch.errors \
        and med < 0.15 and sine_dev <= 1e-12
    _verdict(8, "tangent estimator oracles",
             ok, "plane=%.1e circle=%.4f coeff=%.4f sphere med=%.4f "
             "sine dev=%.1e" % (a_plane, a_circle, coeff, med, sine_dev))


def test_criterion_09_tangent_convergence_trend():
    cfg = ExperimentConfig()          # ntilde {250,500,1000,2000} x 5
    result = tangent_study(cfg)
    report = format_tangent_study(result)
    print(report)
    med = [r["max_angle"] for r in result.rows]
    down = sum(a > b for a, b in zip(med, med[1:]))
    ok = down >= 3 and "1/48" in report and \
        result.tangent_rate == pytest.approx(1.0 / 48.0, rel=1e-12)
    _verdict(9, "tangent accuracy trend over subsample size",
             ok, "median max-angles %s down %d/3"
             % (["%.4f" % v for v in med], down))


def test_criterion_10_bound_evaluators():
    liy = li_yau_upper(8, 2, 4.0 * np.pi, 0.0)
    cro = croke_constant(2)
    r1 = r1_value(0.25, 2, 0.0)
    s1 = s1_min(0.25, 2, 0.0, BoundConstants())
    cap = eps_cap(2)
    ok = liy == 27.0 and abs(cro - 1.0 / np.pi) <= 1e-12 \
        and r1 == 0.5 and abs(s1 - 1.61902) <= 1e-4 \
        and abs(cap - 1.0 / 6.0) <= 1e-12
    _verdict(10, "bound evaluators at pinned values",
             ok, "li_yau=%g croke=%.12f r1=%g s1=%.6f cap=%.12f"
             % (liy, cro, r1, s1, cap))


def test_criterion_11_verify_cli(tmp_path, src_env):
    proc = subprocess.run(
        [sys.executable, "-m", "dmaplab", "verify-s2", "--out",
         str(tmp_path)],
        capture_output=True, text=True, env=src_env, timeout=180)
    ok = proc.returncode == 0 and "overall: pass" in proc.stdout
    _verdict(11, "verify-s2 command end to end",
             ok, "exit=%d" % proc.returncode)
