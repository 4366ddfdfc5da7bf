from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence

import dmaplab.experiments as X
import dmaplab.spectral as sp
from dmaplab.embedding import embed_points, embedding_error
from dmaplab.experiments import (ExperimentConfig, RunRecord,
                                 _embedding_params, _oracle_tangent,
                                 _oracle_tangents, convergence_study,
                                 format_verify, load_config, run_pipeline,
                                 sphere_truth, truth_clusters, verify_s2)
from dmaplab.geometry import (s2_oracle_embedding, s2_oracle_tangent,
                              sample_sphere)
from dmaplab.graph import system_from_cloud
from dmaplab.io import RUN_FIELDS, record_row
from dmaplab.spectral import eigen_errors, eigensolve_smallest


def test_config_defaults_valid():
    cfg = ExperimentConfig()
    assert cfg.manifold == "sphere"
    assert cfg.n_grid == (500, 1000, 2000, 4000)
    assert cfg.seeds == (1, 2, 3, 4, 5)
    assert cfg.tangent_config().k == 3
    assert cfg.tangent_config(max_iter=50).max_iter == 50


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(manifold="plane")
    with pytest.raises(ValueError):
        ExperimentConfig(n_grid=())
    with pytest.raises(ValueError, match="ntilde_grid must be nonempty"):
        ExperimentConfig(ntilde_grid=())
    with pytest.raises(ValueError):
        ExperimentConfig(manifold="torus", torus_R=1.0, torus_r=1.0)


def test_load_config_full(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# experiment\n"
        "manifold = torus\n"
        "d = 2\nk = 4\nt0 = 0.5\nm = 3\neps = 0.04\n"
        "gap_tol = 0.3\nkappa = 0.1\niota = 2.0\n"
        "n_grid = 100,200,400\nseeds = 7,8\nntilde_grid = 50,100\n"
        "torus_R = 3.0\ntorus_r = 1.0\nmin_subsample = 12\n"
        "tangent_bandwidth_const = 2.0\ntangent_t_cap = auto\n"
        "tangent_max_iter = 30\nstudy_max_iter = 60\n"
        "tangent_tol = 1e-6\noutput_dir = /tmp/somewhere\n"
        "C1 = 0.5\nC2 = 1.25\nC_alpha2 = 3.0\nC_d_diam = 4.5\n"
        "C1_eigen = 0.75\n")
    cfg = load_config(path)
    assert cfg.manifold == "torus"
    assert cfg.k == 4 and cfg.m == 3
    assert cfg.n_grid == (100, 200, 400)
    assert cfg.seeds == (7, 8)
    assert cfg.ntilde_grid == (50, 100)
    assert cfg.tangent_t_cap is None
    assert cfg.tangent_tol == 1e-6
    assert cfg.constants.C1 == 0.5
    assert cfg.constants.C2 == 1.25
    assert cfg.constants.C_alpha2 == 3.0
    assert cfg.constants.C_d_diam == 4.5
    assert cfg.constants.C1_eigen == 0.75


def test_load_config_keeps_unset_constants(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("C2 = 1.25\nC_d_diam = unknown\n")
    cfg = load_config(path)
    assert cfg.constants.C2 == 1.25
    assert cfg.constants.C_d_diam is None
    assert cfg.constants.C1 == pytest.approx(0.408912)   # untouched


@pytest.mark.parametrize("line, tag", [
    ("t0 = fast", "float"), ("m = 2.5", "int"), ("seeds = 1,x", "int_list"),
    ("tangent_t_cap = wide", "opt_float"), ("C1_eigen = big", "opt_float"),
])
def test_load_config_parse_error_names_type(tmp_path, line, tag):
    path = tmp_path / "exp.cfg"
    path.write_text("# header\n" + line + "\n")
    with pytest.raises(ValueError, match="line 2: cannot parse .* as %s$"
                       % tag):
        load_config(path)


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("manifold = sphere\nwibble = 3\n")
    with pytest.raises(ValueError, match="line 2.*wibble"):
        load_config(path)


def test_load_config_reports_parse_error(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("t0 = fast\n")
    with pytest.raises(ValueError, match="line 1"):
        load_config(path)


def test_sphere_truth_pole_values():
    pts = np.array([[0.0, 0.0, 1.0]])
    lam, cols = sphere_truth(pts, 8)
    assert lam.tolist() == [0.0, 2, 2, 2, 6, 6, 6, 6, 6]
    assert cols[0, 0] == pytest.approx(1.0 / np.sqrt(4 * np.pi), rel=1e-14)
    # at the pole only Y_{1,0} and Y_{2,0} survive
    assert cols[0, 2] == pytest.approx(np.sqrt(3.0 / (4 * np.pi)),
                                       rel=1e-14)
    assert cols[0, 6] == pytest.approx(0.5 * np.sqrt(5.0 / np.pi),
                                       rel=1e-14)
    live = {2, 6}
    for j in (1, 3, 4, 5, 7, 8):
        assert abs(cols[0, j]) <= 1e-15 or j in live


def test_truth_clusters():
    lam, _ = sphere_truth(np.array([[0.0, 0.0, 1.0]]), 8)
    assert truth_clusters(lam) == [[0, 1, 2], [3, 4, 5, 6, 7]]
    lam3, _ = sphere_truth(np.array([[0.0, 0.0, 1.0]]), 3)
    assert truth_clusters(lam3) == [[0, 1, 2]]


def test_run_pipeline_record_shape():
    rec = run_pipeline(ExperimentConfig(), 400, 1)
    assert rec.status == "ok"
    assert rec.t == 0.25
    assert rec.h > 0
    assert len(rec.eigenvalue_errors) == 3
    assert len(rec.eigenvector_sup_errors) == 3
    assert all(e >= 0 for e in rec.eigenvalue_errors)
    assert rec.embedding_error >= 0
    assert rec.first_cluster_mean > 0
    assert len(record_row(rec).split(",")) == len(RUN_FIELDS)


def test_run_pipeline_deterministic():
    cfg = ExperimentConfig()
    a = record_row(run_pipeline(cfg, 350, 4)).rsplit(",", 1)[0]
    b = record_row(run_pipeline(cfg, 350, 4)).rsplit(",", 1)[0]
    assert a == b


def test_run_pipeline_dense_cap():
    rec = run_pipeline(ExperimentConfig(), 30001, 1)
    assert rec.status.startswith("sample:")
    assert np.isnan(rec.embedding_error)


def test_run_pipeline_reports_lanczos_failure(force_iterative, monkeypatch):
    def fail(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.zeros(0),
                                  np.zeros((300, 0)))
    monkeypatch.setattr(sp, "eigsh", fail)
    rec = run_pipeline(ExperimentConfig(), 300, 1)
    assert rec.n > sp._DENSE_LIMIT
    assert rec.status.startswith("eigen: Lanczos did not converge")
    assert np.isnan(rec.embedding_error)


def test_run_pipeline_torus_skips_oracle():
    cfg = ExperimentConfig(manifold="torus", torus_R=2.0, torus_r=0.7)
    rec = run_pipeline(cfg, 300, 2)
    assert rec.status == "ok"
    assert rec.eigenvalue_errors == []
    assert np.isnan(rec.embedding_error)
    assert np.isnan(rec.tangent_angle_median)


def test_torus_config_needs_d_2():
    with pytest.raises(ValueError, match="torus is a surface"):
        ExperimentConfig(manifold="torus", d=3)


def test_oracle_tangent_comparison_below_eight_coordinates():
    """With m < 8 the fits live in R^m and are compared with the tangent
    of the m-coordinate map; at m = 8 the truth is the analytic basis.
    run_pipeline scores only m = 3 and 8, whose coordinates fill whole
    harmonic eigenspaces: at any other m the solver's basis of a cut
    eigenspace cannot be aligned to the truth, so the run is left
    unscored."""
    p = sample_sphere(1, 2, 4).points[0]
    assert np.array_equal(_oracle_tangent(p, 0.25, 8),
                          s2_oracle_tangent(p, 0.25).basis)
    cfg = ExperimentConfig(m=3)
    batch, angles, _ = _oracle_tangents(cfg, 300, 1, cfg.tangent_config())
    assert not batch.errors
    assert np.median(list(angles.values())) < 0.01
    rec = run_pipeline(ExperimentConfig(m=3), 400, 1)
    assert rec.status == "ok"
    assert 0.0 <= rec.tangent_angle_median <= rec.tangent_angle_max <= 1
    for m in (2, 4, 5, 6, 7):
        rec = run_pipeline(ExperimentConfig(m=m), 400, 1)
        assert rec.status == "ok"
        assert rec.eigenvalue_errors == rec.eigenvector_sup_errors == []
        assert np.isnan([rec.embedding_error, rec.tangent_angle_median,
                         rec.tangent_angle_max]).all()
        assert rec.pattern_matched is False


def test_tangent_truth_mapped_by_each_cluster_rotation(monkeypatch):
    """The block-diagonal map of the tangent-errors stage equals the
    per-cluster loop: block g of each oracle tangent is mapped by the
    rotation that aligned cluster g of the embedding."""
    align, tangent, angle = (X.subspace_align, X._oracle_tangent,
                             X.subspace_angle)
    rotations, truths, mapped = [], [], []

    def spy_align(E, T):
        Q, err = align(E, T)
        rotations.append(Q)
        return Q, err

    def spy_tangent(*args):
        truths.append(tangent(*args))
        return truths[-1]

    def spy_angle(U, V):
        mapped.append(V)
        return angle(U, V)

    monkeypatch.setattr(X, "subspace_align", spy_align)
    monkeypatch.setattr(X, "_oracle_tangent", spy_tangent)
    monkeypatch.setattr(X, "subspace_angle", spy_angle)
    assert run_pipeline(ExperimentConfig(), 400, 1).status == "ok"
    assert len(rotations) == 2 and len(mapped) == len(truths) == 10
    for T, M in zip(truths, mapped):
        ref = np.empty_like(T)
        for g, Q in zip((slice(0, 3), slice(3, 8)), rotations):
            ref[g] = Q @ T[g]
        assert np.allclose(M, ref, rtol=0, atol=1e-14)


def test_convergence_study_needs_three_sizes():
    with pytest.raises(ValueError):
        convergence_study(ExperimentConfig(n_grid=(100, 200)))


@pytest.mark.parametrize("kw", [dict(manifold="torus"), dict(d=3),
                                dict(m=5)])
def test_convergence_study_refuses_unscored_config(monkeypatch, kw):
    """Refused before the first run, not after the whole grid."""
    def no_run(*args):
        raise AssertionError("run_pipeline called")
    monkeypatch.setattr(X, "run_pipeline", no_run)
    cfg = ExperimentConfig(n_grid=(200, 300, 400), seeds=(1,), **kw)
    with pytest.raises(ValueError, match="scores the d = 2 sphere"):
        convergence_study(cfg)


def test_verify_s2_recomputes_budget():
    rep = verify_s2(t0=0.5, m=8, eps=0.05)
    # the truncation budget follows t0: eps' = 1/(32 pi t0) = 1/(16 pi)
    assert "0.019894" in rep.checks[1].target
    assert rep.checks[3].passed is None       # sweep pinned at t0 = 1/4
    assert rep.checks[4].passed is None


def test_verify_s2_far_time_fails_isometry():
    rep = verify_s2(t0=4.0, m=8, eps=0.05)
    assert rep.checks[0].passed is False
    assert not rep.ok
    assert "FAIL" in format_verify(rep)


def test_verify_s2_degree_one_truncation_too_coarse():
    # keeping only the l=1 block at t = 1/4 breaks both the isometry and
    # the tail budget; the battery must report this honestly
    rep = verify_s2(t0=0.25, m=3, eps=0.05)
    names = {c.name: c for c in rep.checks}
    assert names["isometry-defect"].passed is False
    assert names["spectral-tail"].passed is False
    assert not rep.ok


def test_verify_s2_rejects_other_m():
    with pytest.raises(ValueError):
        verify_s2(m=5)


def _sphere_scores(cloud):
    """mu, eigenvalue errors, pattern flag, ball counts and embedding error
    of one m = 8 sphere run, scored as run_pipeline scores it."""
    system = system_from_cloud(cloud)
    spec = eigensolve_smallest(system, 8)
    lam, cols = sphere_truth(cloud.points, 8)
    report = eigen_errors(spec, lam, cols)
    params = _embedding_params(ExperimentConfig())
    est = embed_points(spec, params, provenance=(cloud.n, system.h, 0))
    target = s2_oracle_embedding(cloud.points, params.t)
    return (spec.mu, report.value_errors, report.pattern_matched,
            system.ball_counts,
            embedding_error(est.points, target, truth_clusters(lam)))


@settings(max_examples=6)
@given(n=st.integers(60, 300), seed=st.integers(0, 2 ** 32 - 1))
def test_sphere_scores_invariant_under_orthogonal_map(n, seed):
    """An orthogonal map of the sample leaves mu, the eigenvalue errors,
    the cluster pattern, the ball counts and the embedding error unchanged.

    The eigenvector sup errors are left out: they are an entrywise sup in
    the harmonics' fixed basis, which the map mixes within each degree, so
    they move (by up to 0.049 in such runs) although the fit is as good."""
    cloud = sample_sphere(n, 2, seed)
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    mu, val, matched, counts, emb = _sphere_scores(cloud)
    mu2, val2, matched2, counts2, emb2 = _sphere_scores(
        replace(cloud, points=cloud.points @ Q.T))
    assert np.allclose(mu2, mu, rtol=0, atol=1e-10)
    assert np.allclose(val2, val, rtol=0, atol=1e-10)
    assert matched2 == matched
    assert np.array_equal(counts2, counts)
    assert abs(emb2 - emb) <= 1e-10
