import hashlib

import numpy as np
import pytest

from dmaplab.geometry import (_ALPHA, PointCloud, s2_oracle_embedding,
                              s2_oracle_tangent, sample_sphere)
from dmaplab.tangent import (TangentConfig, _features, _fit_plan,
                             _poly_opnorm, estimate_tangents,
                             fit_local_polynomial, monomial_exponents,
                             subsample_size, subspace_angle,
                             tangent_bandwidth)


def test_subsample_size_values():
    res = subsample_size(10 ** 6, 2, 3)
    assert res.theoretical == pytest.approx(1.333521432163324, rel=1e-14)
    assert res.size == 10                      # clamped to the floor
    assert subsample_size(10 ** 6, 2, 3, min_size=25).size == 25
    # a gigantic n finally pushes the raw value above the clamp
    big = subsample_size(10 ** 60, 2, 3)
    assert big.size == int(big.theoretical)
    with pytest.raises(ValueError):
        subsample_size(1, 2, 3)


def test_tangent_bandwidth_value():
    cfg = TangentConfig()
    assert tangent_bandwidth(1000, 2, cfg) == pytest.approx(
        0.294775007852158, rel=1e-14)
    # decreasing in the effective sample size
    assert tangent_bandwidth(4000, 2, cfg) < tangent_bandwidth(1000, 2, cfg)
    with pytest.raises(ValueError):
        tangent_bandwidth(2, 2, cfg)


def test_tangent_config_validation():
    with pytest.raises(ValueError):
        TangentConfig(k=1)
    with pytest.raises(ValueError):
        TangentConfig(max_iter=0)
    with pytest.raises(ValueError):
        TangentConfig(f_min=0.0)


def test_monomial_exponents():
    e2 = monomial_exponents(2, [2])
    assert [x for _, x in e2] == [(2, 0), (1, 1), (0, 2)]
    assert len(monomial_exponents(3, [2])) == 6
    assert len(monomial_exponents(2, [2, 3])) == 3 + 4
    assert all(sum(x) == l for l, x in monomial_exponents(2, [2, 3]))


def test_exact_plane_recovered():
    rng = np.random.default_rng(0)
    U = np.linalg.qr(rng.normal(size=(5, 2)))[0]
    coords = rng.uniform(-1, 1, size=(120, 2))
    cloud = PointCloud(points=coords @ U.T, d=2, ambient_dim=5, seed=0)
    fit = fit_local_polynomial(cloud, 0, 0.8, TangentConfig(k=3))
    assert subspace_angle(fit.basis, U) < 1e-10


def test_circle_curvature_coefficient():
    s = np.linspace(0, 2 * np.pi, 200, endpoint=False)
    pts = np.stack([np.cos(s), np.sin(s)], axis=1)
    cloud = PointCloud(points=pts, d=1, ambient_dim=2, seed=0)
    fit = fit_local_polynomial(cloud, 0, 0.3, TangentConfig(k=3))
    true_tan = np.array([[0.0], [1.0]])
    assert subspace_angle(fit.basis, true_tan) < 0.01
    # the degree-2 row is the half-curvature vector
    coeff = np.linalg.norm(fit.tensors[2][0])
    assert abs(coeff - 0.5) <= 0.05


def test_sphere_embedding_median_angle():
    n = 800
    cloud = sample_sphere(n, 2, 3)
    emb = s2_oracle_embedding(cloud.points, 0.25)
    carrier = PointCloud(points=emb, d=2, ambient_dim=8, seed=3)
    cfg = TangentConfig(k=3, max_iter=100)
    batch = estimate_tangents(carrier, range(0, n, 8), cfg,
                              tangent_bandwidth(n, 2, cfg))
    assert not batch.errors
    angles = [subspace_angle(fit.basis,
                             s2_oracle_tangent(cloud.points[i], 0.25).basis)
              for i, fit in batch.fits.items()]
    assert np.median(angles) < 0.2
    assert all(0.0 <= a <= 1.0 for a in angles)


def test_fit_reports_thin_neighborhoods():
    pts = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0], [0.0, 5.0, 0.0],
                    [9.0, 9.0, 0.0]])
    cloud = PointCloud(points=pts, d=2, ambient_dim=3, seed=0)
    with pytest.raises(ValueError, match="need at least 3 neighbors"):
        fit_local_polynomial(cloud, 0, 0.5, TangentConfig(k=3))


def test_estimate_tangents_collects_failures():
    pts = np.vstack([np.zeros(3),
                     np.random.default_rng(1).normal(size=(30, 3)) * 0.05
                     + np.array([2.0, 0.0, 0.0])])
    cloud = PointCloud(points=pts, d=2, ambient_dim=3, seed=0)
    batch = estimate_tangents(cloud, [0, 1], TangentConfig(k=3),
                              h_tilde=0.4)
    assert 0 in batch.errors                   # isolated base point
    assert 1 in batch.fits
    assert "neighbors" in batch.errors[0]


def test_subspace_angle_rotated_lines():
    for theta in (0.0, 0.1, 0.5, 1.0, np.pi / 2):
        U = np.array([[1.0], [0.0]])
        V = np.array([[np.cos(theta)], [np.sin(theta)]])
        assert subspace_angle(U, V) == pytest.approx(abs(np.sin(theta)),
                                                     abs=1e-12)


def test_subspace_angle_validation():
    U = np.array([[1.0], [0.0]])
    with pytest.raises(ValueError):
        subspace_angle(U, np.array([[2.0], [0.0]]))    # not orthonormal
    with pytest.raises(ValueError):
        subspace_angle(U, np.eye(3)[:, :1])            # shape mismatch


def test_subspace_angle_range_random():
    rng = np.random.default_rng(4)
    for _ in range(25):
        U = np.linalg.qr(rng.normal(size=(6, 2)))[0]
        V = np.linalg.qr(rng.normal(size=(6, 2)))[0]
        a = subspace_angle(U, V)
        assert 0.0 <= a <= 1.0
        assert a == pytest.approx(subspace_angle(V, U), abs=1e-10)


def test_fit_plan_is_cached_and_read_only():
    plan = _fit_plan(2, 3)
    assert _fit_plan(2, 3) is plan
    assert plan.expos == tuple(monomial_exponents(2, [2]))
    for d, k in ((2, 3), (3, 4)):
        plan = _fit_plan(d, k)
        arrays = [plan.E, plan.dirs] + [M for _, _, M in plan.blocks]
        assert not any(a.flags.writeable for a in arrays)


def test_features_and_grid_opnorm_match_old_expressions():
    """The cached plan gives the same bits as the per-call expressions it
    replaced, written out here: column-by-column features, and at d = 2
    the 720-direction grid rebuilt from the angles on each call."""
    rng = np.random.default_rng(7)
    for d, k in ((1, 4), (2, 3), (2, 5), (3, 4)):
        plan = _fit_plan(d, k)
        xi = rng.standard_normal((40, d))
        old = np.stack([np.prod(xi ** np.asarray(e, dtype=float), axis=1)
                        for _, e in plan.expos], axis=1)
        assert np.array_equal(_features(xi, plan.E), old)
    plan = _fit_plan(2, 5)
    grid = np.stack([np.cos(_ALPHA), np.sin(_ALPHA)], axis=1)
    for _, rows, M in plan.blocks:
        b = rng.standard_normal((rows.stop - rows.start, 8))
        M_old = np.stack([np.prod(grid ** np.asarray(e, dtype=float), axis=1)
                          for _, e in plan.expos[rows]], axis=1)
        V = M_old @ b
        old = float(np.sqrt(np.max(np.sum(V * V, axis=1))))
        assert _poly_opnorm(b, plan.E[rows], plan.dirs, M) == old


@pytest.mark.parametrize("d, l", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_poly_opnorm_reaches_dense_reference(d, l):
    """Above d = 2 the operator norm is at least the max over 10^5 seeded
    unit directions, on 50 random degree-l blocks with 5 columns."""
    plan = _fit_plan(d, l + 1)
    _, rows, M = plan.blocks[-1]
    E = plan.E[rows]
    rng = np.random.default_rng(10 * d + l)
    u = rng.standard_normal((100_000, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    dense = np.prod(u[:, None, :] ** E, axis=2)
    for _ in range(50):
        b = rng.standard_normal((E.shape[0], 5))
        V = dense @ b
        ref = np.sqrt(np.max(np.sum(V * V, axis=1)))
        assert _poly_opnorm(b, E, plan.dirs, M) >= (1 - 1e-9) * ref


def test_sphere_fits_pinned_bit_for_bit():
    """sha256 over every fit's basis, tensors and iteration count on an
    oracle-embedded S^2 sample.  The digest was recorded before the fit
    plan cached the exponent arrays and the direction grid, so it held
    there by construction; it pins every bit of the d = 2 fits."""
    n = 400
    cloud = sample_sphere(n, 2, 3)
    carrier = PointCloud(points=s2_oracle_embedding(cloud.points, 0.25),
                         d=2, ambient_dim=8, seed=3)
    batch = estimate_tangents(carrier, range(n),
                              TangentConfig(k=3, max_iter=100))
    assert not batch.errors
    h = hashlib.sha256()
    for i in sorted(batch.fits):
        fit = batch.fits[i]
        h.update(fit.basis.tobytes())
        for l in sorted(fit.tensors):
            h.update(fit.tensors[l].tobytes())
        h.update(np.int64(fit.iterations).tobytes())
    assert h.hexdigest() == ("335625c7113f14d26272d6bb0c1e4778"
                             "8c12f7a03f9e744ea0507681bc821466")
