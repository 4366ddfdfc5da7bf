from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence

import dmaplab.experiments as X
import dmaplab.spectral as sp
from dmaplab.bounds import BoundConstants
from dmaplab.cli import main
from dmaplab.embedding import (EmbeddingParams, embed_points,
                               embedding_error, select_eps_prime)
from dmaplab.experiments import (ExperimentConfig, RunRecord,
                                 _oracle_tangents,
                                 convergence_study, format_verify,
                                 load_config, run_pipeline, sphere_truth,
                                 truth_clusters, verify_s2)
from dmaplab.geometry import (_sphere_manifold, embedding_scale,
                              s2_oracle_embedding, s2_oracle_tangent,
                              sample_sphere)
from dmaplab.graph import system_from_cloud
from dmaplab.io import RUN_FIELDS, record_row
from dmaplab.spectral import eigen_errors, eigensolve_smallest
from dmaplab.tangent import TangentConfig, estimate_tangents

# the S^2 entry's tangent frames of the first m oracle coordinates
_s2_tangents = X._ORACLES["sphere", 2].tangents


def test_config_defaults_valid():
    cfg = ExperimentConfig()
    assert cfg.manifold == "sphere"
    assert cfg.n_grid == (500, 1000, 2000, 4000)
    assert cfg.seeds == (1, 2, 3, 4, 5)
    assert cfg.tangent_config().k == 3
    assert cfg.tangent_config(max_iter=50).max_iter == 50
    # the estimator's own settings are TangentConfig's defaults
    assert cfg.tangent_config() == TangentConfig()


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(manifold="plane")
    with pytest.raises(ValueError):
        ExperimentConfig(n_grid=())
    with pytest.raises(ValueError, match="ntilde_grid must be nonempty"):
        ExperimentConfig(ntilde_grid=())
    with pytest.raises(ValueError, match="^manifold must be 'sphere'$"):
        ExperimentConfig(manifold="torus")
    # the manifold's constants are its oracle entry's, and the estimator's
    # settings TangentConfig's, not the config's
    for name in ("kappa", "iota", "min_subsample", "tangent_bandwidth_const",
                 "tangent_t_cap", "tangent_tol"):
        with pytest.raises(TypeError, match="unexpected keyword"):
            ExperimentConfig(**{name: 0.5})
    for gap_tol in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="gap_tol must be positive"):
            ExperimentConfig(gap_tol=gap_tol)
    with pytest.raises(ValueError, match="d must be >= 1"):
        ExperimentConfig(d=0)
    for kw in (dict(k=1), dict(t0=-1.0), dict(t0=np.nan), dict(m=-1)):
        with pytest.raises(ValueError):
            ExperimentConfig(**kw)
    for name in ("tangent_max_iter", "study_max_iter"):
        with pytest.raises(ValueError, match="^max_iter must be >= 1, got 0$"):
            ExperimentConfig(**{name: 0})
    for kw in (dict(n_grid=(200, 300, 0)), dict(n_grid=(200, 2)),
               dict(n_grid=(200.0, 300)), dict(ntilde_grid=(100, 2)),
               dict(seeds=(1, -1)), dict(seeds=(1.5,))):
        with pytest.raises(ValueError, match="need whole numbers >= "):
            ExperimentConfig(**kw)
    ExperimentConfig(n_grid=(3, np.int64(4)), ntilde_grid=(3,), seeds=(0,))


def test_load_config_full(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# experiment\n"
        "manifold = sphere\n"
        "d = 2\nk = 4\nt0 = 0.5\nm = 3\neps = 0.04\n"
        "gap_tol = 0.3\n"
        "n_grid = 100,200,400\nseeds = 7,8\nntilde_grid = 50,100\n"
        "tangent_max_iter = 30\nstudy_max_iter = 60\n"
        "output_dir = /tmp/somewhere\n"
        "C1 = 0.5\nC2 = 1.25\n")
    cfg = load_config(path)
    assert cfg.manifold == "sphere"
    assert cfg.k == 4 and cfg.m == 3
    assert cfg.n_grid == (100, 200, 400)
    assert cfg.seeds == (7, 8)
    assert cfg.ntilde_grid == (50, 100)
    assert cfg.tangent_max_iter == 30 and cfg.study_max_iter == 60
    assert cfg.constants.C1 == 0.5
    assert cfg.constants.C2 == 1.25


def test_load_config_keeps_unset_constants(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("C2 = unknown\n")
    cfg = load_config(path)
    assert cfg.constants.C2 is None
    assert cfg.constants.C1 == pytest.approx(0.408912)   # untouched


@pytest.mark.parametrize("line, tag", [
    ("t0 = fast", "float"), ("m = 2.5", "int"), ("seeds = 1,x", "int_list"),
    ("C2 = auto", "opt_float"), ("C2 = big", "opt_float"),
])
def test_load_config_parse_error_names_type(tmp_path, line, tag):
    path = tmp_path / "exp.cfg"
    path.write_text("# header\n" + line + "\n")
    with pytest.raises(ValueError, match="line 2: cannot parse .* as %s$"
                       % tag):
        load_config(path)


# the keys a config file sets: a key joins or leaves this set only by a
# deliberate change to the config
_CONFIG_KEYS = {
    "manifold", "d", "k", "t0", "m", "eps", "gap_tol", "n_grid", "seeds",
    "ntilde_grid", "tangent_max_iter", "study_max_iter", "output_dir", "C1",
    "C2"}


def test_config_keys_are_pinned(tmp_path):
    """Of the field names load_config reads keys from, it takes exactly the
    pinned ones, each line read back as the field's default."""
    default = ExperimentConfig()
    accepted = set()
    for owner, obj in ((ExperimentConfig, default),
                       (BoundConstants, default.constants)):
        for f in fields(owner):
            value = getattr(obj, f.name)
            text = ("none" if value is None else ",".join(map(str, value))
                    if isinstance(value, tuple) else value)
            path = tmp_path / "one.cfg"
            path.write_text("%s = %s\n" % (f.name, text))
            try:
                assert load_config(path) == default
            except ValueError as err:
                assert "unknown config key %r" % f.name in str(err)
            else:
                accepted.add(f.name)
    assert accepted == _CONFIG_KEYS


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


# the record's NaN-default cells in the order run_pipeline fills them
_NAN_CELLS = ("h", "first_cluster_mean", "t", "embedding_error",
              "tangent_angle_median", "tangent_angle_max")


@pytest.mark.parametrize("stage, callee, filled", [
    ("laplacian", "system_from_cloud", 0),
    ("eigen-errors", "eigen_errors", 2),
    ("embed-errors", "embedding_error", 3),
    ("tangent-errors", "subspace_angle", 4)])
def test_run_pipeline_status_names_failing_stage(monkeypatch, stage, callee,
                                                 filled):
    """A ValueError in a stage becomes status '<stage>: message'; the cells
    filled before it keep their values, the later ones their NaN
    defaults."""
    def boom(*args, **kwargs):
        raise ValueError("boom")
    monkeypatch.setattr(X, callee, boom)
    rec = run_pipeline(ExperimentConfig(), 300, 1)
    assert rec.status == "%s: boom" % stage
    cells = [getattr(rec, name) for name in _NAN_CELLS]
    assert not np.isnan(cells[:filled]).any()
    assert np.isnan(cells[filled:]).all()


def _count_tangent_fits(monkeypatch):
    """A list that gains one entry per estimate_tangents call made by
    run_pipeline."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return estimate_tangents(*args, **kwargs)
    monkeypatch.setattr(X, "estimate_tangents", counted)
    return calls


# the shared refusal of a (d, m) outside the S^2 oracle's scope
_OUT_OF_SCOPE = (r"^the S\^2 oracle scores d = 2 at m = 3 or 8 \(tangents "
                 r"alone at 2 <= m <= 8\), got d = %s, m = %s$")


@pytest.mark.parametrize("d, m", [(3, 8), (2, 1), (2, 2), (2, 5), (2, 9)])
def test_run_pipeline_refuses_what_the_oracle_cannot_score(monkeypatch, d,
                                                           m):
    """Every record run_pipeline writes is scored: a (d, m) the oracle
    cannot align is refused before anything is sampled."""
    def no_sample(*args):
        raise AssertionError("sampled")
    monkeypatch.setattr(X, "sample_sphere", no_sample)
    with pytest.raises(ValueError, match=_OUT_OF_SCOPE % (d, m)):
        run_pipeline(ExperimentConfig(d=d, m=m), 300, 1)


@pytest.mark.parametrize("m", [3, 8])
def test_scored_run_fits_tangents_once(monkeypatch, m):
    calls = _count_tangent_fits(monkeypatch)
    rec = run_pipeline(ExperimentConfig(m=m), 300, 1)
    assert rec.status == "ok"
    assert len(calls) == 1
    assert 0.0 <= rec.tangent_angle_median <= rec.tangent_angle_max <= 1


def test_run_below_tangent_subsample_size_fails_at_tangent():
    rec = run_pipeline(ExperimentConfig(), 9, 1)
    assert rec.status == "tangent: n=9 is below the tangent subsample size 10"
    assert np.isnan(rec.tangent_angle_median)


def test_nan_t0_fails_at_embed():
    """The embed stage's diffusion-time rule refuses a NaN t0 when the
    config is built, before any run samples or solves."""
    with pytest.raises(ValueError,
                       match="^t0 must be positive and finite, got nan$"):
        ExperimentConfig(t0=np.nan)


def test_oracle_tangent_comparison_below_eight_coordinates():
    """With m < 8 the fits live in R^m and are compared with the tangent
    of the m-coordinate map; at m = 8 the truth is the analytic basis.
    run_pipeline scores only m = 3 and 8, whose coordinates fill whole
    harmonic eigenspaces: at any other m the solver's basis of a cut
    eigenspace cannot be aligned to the truth, so the run is refused;
    the tangents alone are compared at every 2 <= m <= 8."""
    p = sample_sphere(1, 2, 4).points[0]
    assert np.array_equal(_s2_tangents(p, 0.25, 8),
                          s2_oracle_tangent(p, 0.25).basis)
    cfg = ExperimentConfig(m=3)
    batch, angles, _ = _oracle_tangents(cfg, 300, 1, cfg.tangent_config())
    assert not batch.errors
    assert np.median(list(angles.values())) < 0.01
    rec = run_pipeline(ExperimentConfig(m=3), 400, 1)
    assert rec.status == "ok"
    assert 0.0 <= rec.tangent_angle_median <= rec.tangent_angle_max <= 1
    for m in (2, 4, 5, 6, 7):
        cfg = ExperimentConfig(m=m)
        batch, angles, _ = _oracle_tangents(cfg, 300, 1,
                                            cfg.tangent_config())
        assert not batch.errors and len(angles) == 300
        with pytest.raises(ValueError, match=_OUT_OF_SCOPE % (2, m)):
            run_pipeline(cfg, 400, 1)


@pytest.mark.parametrize("d, m", [(3, 8), (2, 1), (2, 9)])
def test_oracle_tangents_refuse_what_the_oracle_cannot_score(d, m):
    cfg = ExperimentConfig(d=d, m=m)
    with pytest.raises(ValueError, match=_OUT_OF_SCOPE % (d, m)):
        _oracle_tangents(cfg, 300, 1, cfg.tangent_config())


def test_oracle_tangent_stacked_at_every_m():
    """The S^2 entry's tangents on an (N, 3) array equal its one-point
    calls, for the full map and for the first m coordinates."""
    pts = sample_sphere(40, 2, 8).points
    for m in (3, 5, 8):
        stacked = _s2_tangents(pts, 0.25, m)
        assert stacked.shape == (40, m, 2)
        for p, basis in zip(pts, stacked):
            assert np.max(np.abs(basis - _s2_tangents(p, 0.25, m))) \
                <= 1e-14


def test_tangent_truth_mapped_by_each_cluster_rotation(monkeypatch):
    """The block-diagonal map of the tangent-errors stage equals the
    per-cluster loop: block g of each oracle tangent is mapped by the
    rotation that aligned cluster g of the embedding.  One oracle call
    builds the tangents of every fitted point."""
    align, tangent, angle = (X.subspace_align, X.s2_oracle_tangent,
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
    monkeypatch.setattr(X, "s2_oracle_tangent", spy_tangent)
    monkeypatch.setattr(X, "subspace_angle", spy_angle)
    assert run_pipeline(ExperimentConfig(), 400, 1).status == "ok"
    assert len(rotations) == 2 and len(truths) == 1
    assert len(mapped) == len(truths[0].basis) == 10
    for T, M in zip(truths[0].basis, mapped):
        ref = np.empty_like(T)
        for g, Q in zip((slice(0, 3), slice(3, 8)), rotations):
            ref[g] = Q @ T[g]
        assert np.allclose(M, ref, rtol=0, atol=1e-14)


def test_scoring_paths_call_public_functions_through_module_globals(
        monkeypatch):
    """The oracle table and the S^d sampler call public functions through
    this module's globals, so a function rebound there (a spy here, a
    benchmark tracer's wrapper) sees every call: a table field holding the
    function object itself would bypass it."""
    calls = []

    def spy(name):
        fn = getattr(X, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("sample_sphere", "sphere_truth", "s2_oracle_embedding",
                 "s2_oracle_tangent"):
        monkeypatch.setattr(X, name, spy(name))
    cfg = ExperimentConfig()
    assert run_pipeline(cfg, 400, 1).status == "ok"
    assert calls == ["sample_sphere", "sphere_truth", "s2_oracle_embedding",
                     "s2_oracle_tangent"]
    del calls[:]
    _oracle_tangents(cfg, 100, 1, cfg.tangent_config())
    assert calls == ["sample_sphere", "s2_oracle_embedding",
                     "s2_oracle_tangent"]
    del calls[:]
    X._dense_sample(replace(cfg, d=3), 50, 1)       # the CLI's S^d sampler
    assert calls == ["sample_sphere"]


def _circle_truth(points, m):
    """Eigenvalues 0, 1, 1 of the unit circle and its orthonormal
    eigenfunctions 1/sqrt(2 pi), x/sqrt(pi), y/sqrt(pi)."""
    cols = np.column_stack([np.full(len(points), 1.0 / np.sqrt(2 * np.pi)),
                            points / np.sqrt(np.pi)])
    return np.array([0.0, 1.0, 1.0])[:m + 1], cols[:, :m + 1]


@pytest.fixture
def circle(monkeypatch):
    """A unit-circle entry on the oracle table, and nothing else patched:
    its samples are counted in the list this returns."""
    sampled = []

    def sample(n, seed):
        sampled.append(n)
        return sample_sphere(n, 1, seed)

    monkeypatch.setitem(X._ORACLES, ("circle", 1), X._Oracle(
        "S^1", _sphere_manifold(1), {2: 1}, range(2, 3), sample, _circle_truth,
        lambda p, t, m: embedding_scale(t, 1) * np.exp(-t / 2) * p
        / np.sqrt(np.pi),
        lambda p, t, m: np.stack([-p[:, 1], p[:, 0]], axis=1)[:, :, None]))
    return sampled


def test_one_table_entry_scores_another_manifold(circle):
    """A new scored manifold is one table entry: the config, the scored
    pipeline and the tangent comparison read it, and refuse outside it
    before sampling."""
    cfg = ExperimentConfig(manifold="circle", d=1, m=2)
    errors = []
    for n in (500, 1000, 2000):
        rec = run_pipeline(cfg, n, 1)
        assert rec.status == "ok" and rec.pattern_matched
        errors.append(rec.embedding_error)
    assert errors[0] > errors[1] > errors[2]
    tcfg = cfg.tangent_config()
    assert tcfg.f_min == tcfg.f_max == 1.0 / (2.0 * np.pi)
    batch, angles, _ = _oracle_tangents(cfg, 300, 1, tcfg)
    assert not batch.errors and len(angles) == 300
    assert np.median(list(angles.values())) < 0.01
    del circle[:]
    refusal = (r"^the S\^1 oracle scores d = 1 at m = 2 \(tangents alone at "
               r"2 <= m <= 2\), got d = 1, m = 3$")
    wide = replace(cfg, m=3)
    with pytest.raises(ValueError, match=refusal):
        run_pipeline(wide, 500, 1)
    with pytest.raises(ValueError, match=refusal):
        _oracle_tangents(wide, 300, 1, wide.tangent_config())
    assert circle == []


def test_verify_s2_refuses_every_oracle_but_s2(circle, tmp_path, capsys):
    """verify_s2 runs the S^2 closed forms, so it refuses another entry
    before any check, and verify-s2 exits 2 writing nothing."""
    with pytest.raises(ValueError, match=r"^verify_s2 checks the S\^2 "
                       r"oracle only, got the S\^1 oracle$"):
        verify_s2(ExperimentConfig(manifold="circle", d=1, m=2))
    cfg, out = tmp_path / "circle.cfg", tmp_path / "out"
    cfg.write_text("manifold = circle\nd = 1\nm = 2\n")
    assert main(["verify-s2", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "S^1 oracle" in captured.err
    assert not out.exists()


def _patch_s2(monkeypatch, **constants):
    """Give the S^2 entry these ManifoldDescriptor values."""
    entry = X._ORACLES["sphere", 2]
    monkeypatch.setitem(X._ORACLES, ("sphere", 2), replace(
        entry, constants=replace(entry.constants, **constants)))


def test_one_embedding_time_reaches_every_reader(tmp_path, capsys,
                                                 monkeypatch):
    """embedding_params() is the one t = min(t0, 4, iota^2/4), with iota
    from the oracle entry: the pipeline records it, the oracle tangents
    embed at it and embed prints it."""
    _patch_s2(monkeypatch, iota=0.5, tau_min=0.1)
    cfg = ExperimentConfig()
    assert cfg.embedding_params() == EmbeddingParams(t=0.0625, m=8, d=2)
    assert run_pipeline(cfg, 300, 1).t == 0.0625
    clouds = []

    def spy(cloud, *args):
        clouds.append(cloud)
        return estimate_tangents(cloud, *args)

    monkeypatch.setattr(X, "estimate_tangents", spy)
    _oracle_tangents(cfg, 100, 1, cfg.tangent_config())
    assert [c.params for c in clouds] == [cfg.embedding_params()]
    assert main(["embed", "--n", "300", "--out", str(tmp_path)]) == 0
    assert " at t=0.0625 (" in capsys.readouterr().out


def test_curvature_bound_comes_from_the_oracle_entry(tmp_path, capsys,
                                                     monkeypatch):
    """verify_s2's eps' and embed's printed eps' read the entry's kappa."""
    flat = select_eps_prime(0.25, 2, 0.0)
    curved = select_eps_prime(0.25, 2, 0.5)
    assert curved != flat
    for kappa, eps_prime in ((0.0, flat), (0.5, curved)):
        _patch_s2(monkeypatch, kappa=kappa)
        cfg = ExperimentConfig(constants=BoundConstants(C2=1.0))
        check = {c.check: c for c in verify_s2(cfg).checks}
        assert check["budget-identity"].value == eps_prime
        assert check["spectral-tail"].target == "<= eps' = %.9g" % eps_prime
        assert main(["embed", "--n", "150", "--out", str(tmp_path)]) == 0
        assert "(eps'=%.6g)" % eps_prime in capsys.readouterr().out


@pytest.mark.parametrize("key", sorted(X._ORACLES))
def test_oracle_entry_constants_agree_with_its_config(key):
    """Each entry's descriptor is of its own dimension, and of a uniform
    sampler, and the config's tangent fits read its density."""
    oracle = X._ORACLES[key]
    const = oracle.constants
    assert const.d == key[1]
    assert const.vol_lo == const.vol_hi
    assert const.f_min == const.f_max == 1.0 / const.vol_lo
    cfg = ExperimentConfig(manifold=key[0], d=key[1], m=min(oracle.whole))
    assert cfg.manifold_constants() is const
    assert cfg.tangent_config() == TangentConfig(f_min=const.f_min,
                                                 f_max=const.f_max)
    assert cfg.embedding_params().t == min(cfg.t0, 4.0, const.iota ** 2 / 4)


def test_default_config_gives_the_default_tangent_config():
    assert ExperimentConfig().tangent_config() == TangentConfig()
    # outside the table the config reads the sampled S^d's constants
    assert ExperimentConfig(d=3).manifold_constants() == _sphere_manifold(3)


def test_convergence_study_rows_are_medians_of_records():
    cfg = ExperimentConfig(n_grid=(150, 200, 250), seeds=(1, 2, 3))
    result = convergence_study(cfg)
    assert [r["n"] for r in result.rows] == [150, 200, 250]
    for row in result.rows:
        good = [r for r in result.records
                if r.n == row["n"] and r.status == "ok"]
        assert row == {
            "n": row["n"],
            "runs": len(good),
            "eigenvalue_error": np.median(
                [r.eigenvalue_errors[1] for r in good]),
            "eigenvector_sup_error": np.median(
                [r.eigenvector_sup_errors[1] for r in good]),
            "embedding_error": np.median([r.embedding_error for r in good]),
            "tangent_angle": np.median([r.tangent_angle_max for r in good]),
            "first_cluster_mean": np.median(
                [r.first_cluster_mean for r in good]),
        }


def test_convergence_study_needs_three_sizes():
    with pytest.raises(ValueError):
        convergence_study(ExperimentConfig(n_grid=(100, 200)))


@pytest.mark.parametrize("kw", [dict(d=3), dict(m=5), dict(m=9)])
def test_convergence_study_refuses_unscored_config(monkeypatch, kw):
    """Refused before the first run, not after the whole grid."""
    def no_run(*args):
        raise AssertionError("run_pipeline called")
    monkeypatch.setattr(X, "run_pipeline", no_run)
    cfg = ExperimentConfig(n_grid=(200, 300, 400), seeds=(1,), **kw)
    with pytest.raises(ValueError, match=_OUT_OF_SCOPE % (cfg.d, cfg.m)):
        convergence_study(cfg)


def test_verify_s2_recomputes_budget():
    rep = verify_s2(ExperimentConfig(t0=0.5, m=8, eps=0.05))
    # the truncation budget follows t0: eps' = 1/(32 pi t0) = 1/(16 pi)
    assert "0.019894" in rep.checks[1].target
    assert rep.checks[3].passed is None       # sweep pinned at t0 = 1/4
    assert rep.checks[4].passed is None


def test_verify_s2_sweep_radius_pinned_bit_for_bit():
    """The t0 = 1/4 curvature sweep radius, pinned to the last bit; the
    check itself and criterion 4 allow 1%."""
    values = {c.check: c.value
              for c in verify_s2(ExperimentConfig(t0=0.25)).checks}
    assert values["sweep-radius"] == 0.64692445880068639


def test_verify_s2_far_time_fails_isometry():
    rep = verify_s2(ExperimentConfig(t0=4.0, m=8, eps=0.05))
    assert rep.checks[0].passed is False
    assert not rep.ok
    assert "FAIL" in format_verify(rep)


def test_verify_s2_degree_one_truncation_too_coarse():
    # keeping only the l=1 block at t = 1/4 breaks both the isometry and
    # the tail budget; the battery must report this honestly
    rep = verify_s2(ExperimentConfig(t0=0.25, m=3, eps=0.05))
    names = {c.check: c for c in rep.checks}
    assert names["isometry-defect"].passed is False
    assert names["spectral-tail"].passed is False
    assert not rep.ok


def test_verify_s2_rejects_other_m():
    """The config's d and m meet the oracle rule every scoring command
    applies."""
    for d, m in ((2, 5), (3, 8)):
        with pytest.raises(ValueError, match=_OUT_OF_SCOPE % (d, m)):
            verify_s2(ExperimentConfig(d=d, m=m))


@pytest.mark.parametrize("t0", [0.0, -1.0, np.nan, np.inf])
def test_verify_s2_rejects_bad_time(t0):
    with pytest.raises(ValueError, match="t0 must be positive and finite"):
        verify_s2(ExperimentConfig(t0=t0))


@pytest.mark.parametrize("eps", [-1.0, 0.0, 0.2, np.nan])
def test_verify_s2_rejects_eps_as_embedding_does(eps):
    """An eps outside (0, eps_cap(2)] is refused by the config verify_s2
    takes, with the message every command reading a config gives."""
    with pytest.raises(ValueError,
                       match=r"^eps must lie in \(0, 0\.166667\] for d=2$"):
        verify_s2(ExperimentConfig(eps=eps))


def _sphere_scores(cloud):
    """mu, eigenvalue errors, pattern flag, ball counts and embedding error
    of one m = 8 sphere run, scored as run_pipeline scores it."""
    system = system_from_cloud(cloud)
    spec = eigensolve_smallest(system, 8)
    lam, cols = sphere_truth(cloud.points, 8)
    report = eigen_errors(spec, lam, cols)
    params = EmbeddingParams(t=0.25, m=8, d=2)
    est = embed_points(spec, params)
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
