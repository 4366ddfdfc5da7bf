import math

import numpy as np
import pytest
from scipy.special import eval_legendre

import dmaplab.geometry as G
from dmaplab.experiments import sphere_truth
from dmaplab.geometry import (_L8, embedding_scale, legendre_p,
                              local_reach_numeric, pushforward_density,
                              real_sph_harmonic, s2_embedding_norm_sq,
                              s2_harmonic_gradients, s2_harmonics,
                              s2_heat_kernel, s2_oracle_embedding,
                              s2_oracle_tangent, s2_tail_sum, sample_sphere,
                              sample_torus, second_fundamental_form,
                              sphere_area, true_tangent_sphere)


def test_sample_sphere_unit_norm():
    cloud = sample_sphere(500, 2, 7)
    assert cloud.points.shape == (500, 3)
    radii = np.linalg.norm(cloud.points, axis=1)
    assert np.max(np.abs(radii - 1.0)) <= 1e-12


def test_sample_sphere_other_dims():
    assert sample_sphere(50, 1, 0).points.shape == (50, 2)
    assert sample_sphere(50, 3, 0).points.shape == (50, 4)


def test_sample_sphere_deterministic():
    a = sample_sphere(64, 2, 11).points
    b = sample_sphere(64, 2, 11).points
    c = sample_sphere(64, 2, 12).points
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_sphere_rejects_bad_args():
    with pytest.raises(ValueError):
        sample_sphere(0, 2, 1)
    with pytest.raises(ValueError):
        sample_sphere(10, 0, 1)


def test_point_cloud_ambient_dim_is_the_point_width():
    cloud = G.PointCloud(points=np.zeros((4, 5)), d=2, seed=0)
    assert cloud.ambient_dim == 5
    with pytest.raises(ValueError, match="need d <= ambient_dim"):
        G.PointCloud(points=np.zeros((4, 2)), d=3, seed=0)


def test_sample_torus_on_surface():
    R, r = 2.0, 0.5
    pts = sample_torus(400, R, r, 3).points
    rho = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2)
    resid = (rho - R) ** 2 + pts[:, 2] ** 2 - r ** 2
    assert np.max(np.abs(resid)) <= 1e-12


def test_sample_torus_outer_half_heavier():
    # area element R + r cos(v) favours the outer half of the tube
    pts = sample_torus(4000, 2.0, 1.0, 5).points
    rho = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2)
    assert np.sum(rho > 2.0) > np.sum(rho < 2.0)


def test_sample_torus_validation():
    with pytest.raises(ValueError):
        sample_torus(10, 1.0, 1.0, 0)


def test_sphere_area_small_dims():
    assert sphere_area(1) == pytest.approx(2.0 * np.pi, rel=1e-15)
    assert sphere_area(2) == pytest.approx(4.0 * np.pi, rel=1e-15)
    assert sphere_area(3) == pytest.approx(2.0 * np.pi ** 2, rel=1e-15)


def test_true_tangent_sphere_frame():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.normal(size=4)
        p /= np.linalg.norm(p)
        U = true_tangent_sphere(p).basis
        assert U.shape == (4, 3)
        assert np.allclose(U.T @ U, np.eye(3), atol=1e-12)
        assert np.max(np.abs(U.T @ p)) <= 1e-12


def test_legendre_small_degrees_exact():
    x = np.linspace(-1, 1, 9)
    assert np.allclose(legendre_p(0, x), np.ones_like(x))
    assert np.allclose(legendre_p(1, x), x)
    assert np.allclose(legendre_p(2, x), 0.5 * (3 * x * x - 1))


def test_legendre_matches_scipy():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, size=40)
    for l in range(11):
        assert np.allclose(legendre_p(l, x), eval_legendre(l, x),
                           atol=1e-13)


def test_legendre_endpoint():
    for l in range(11):
        assert legendre_p(l, 1.0) == pytest.approx(1.0, abs=1e-13)


def test_real_harmonic_cartesian_forms():
    rng = np.random.default_rng(2)
    c1 = np.sqrt(3.0 / (4.0 * np.pi))
    for _ in range(10):
        theta = rng.uniform(0, np.pi)
        phi = rng.uniform(0, 2 * np.pi)
        x = np.sin(theta) * np.cos(phi)
        y = np.sin(theta) * np.sin(phi)
        z = np.cos(theta)
        assert real_sph_harmonic(1, 1, theta, phi) == pytest.approx(
            c1 * x, abs=1e-14)
        assert real_sph_harmonic(1, -1, theta, phi) == pytest.approx(
            c1 * y, abs=1e-14)
        assert real_sph_harmonic(1, 0, theta, phi) == pytest.approx(
            c1 * z, abs=1e-14)
        assert real_sph_harmonic(2, 2, theta, phi) == pytest.approx(
            0.25 * np.sqrt(15.0 / np.pi) * (x * x - y * y), abs=1e-13)


def test_harmonics_match_scalar_evaluator():
    rng = np.random.default_rng(3)
    p = rng.normal(size=3)
    p /= np.linalg.norm(p)
    theta = np.arccos(p[2])
    phi = np.arctan2(p[1], p[0])
    row = s2_harmonics(p)
    order = [(1, -1), (1, 0), (1, 1), (2, -2), (2, -1), (2, 0), (2, 1),
             (2, 2)]
    for j, (l, m) in enumerate(order):
        assert row[j] == pytest.approx(real_sph_harmonic(l, m, theta, phi),
                                       abs=1e-13)


def test_harmonics_addition_theorem():
    # sum_m Y_lm(x) Y_lm(y) = (2l+1)/(4pi) P_l(x.y), exactly
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 3))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    Y = rng.normal(size=(30, 3))
    Y /= np.linalg.norm(Y, axis=1, keepdims=True)
    hx, hy = s2_harmonics(X), s2_harmonics(Y)
    dots = np.sum(X * Y, axis=1)
    l1 = np.sum(hx[:, :3] * hy[:, :3], axis=1)
    l2 = np.sum(hx[:, 3:] * hy[:, 3:], axis=1)
    assert np.allclose(l1, 3.0 / (4 * np.pi) * legendre_p(1, dots),
                       atol=1e-13)
    assert np.allclose(l2, 5.0 / (4 * np.pi) * legendre_p(2, dots),
                       atol=1e-13)


def test_harmonics_monte_carlo_normalization():
    pts = sample_sphere(200000, 2, 6).points
    H = s2_harmonics(pts)
    means = 4.0 * np.pi * np.mean(H * H, axis=0)
    assert np.max(np.abs(means - 1.0)) < 0.05


def test_heat_kernel_frozen_values():
    # truncated diagonal sums at t = 1/4
    assert s2_heat_kernel(0.25, 1.0, 2) == pytest.approx(
        0.31315667034230066, abs=1e-15)
    assert s2_heat_kernel(0.25, 1.0, 8) == pytest.approx(
        0.3462295159613479, abs=1e-15)
    assert s2_heat_kernel(0.25, 1.0, 20) == pytest.approx(
        0.3462295162190718, abs=1e-15)


def test_heat_kernel_diagonal_dominates_flat_floor():
    # the full diagonal exceeds the flat lower value 1/pi at t = 1/4
    assert s2_heat_kernel(0.25, 1.0, 20) >= 1.0 / np.pi


def test_heat_kernel_depends_on_dot_only():
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    x = rng.normal(size=3)
    x /= np.linalg.norm(x)
    y = rng.normal(size=3)
    y /= np.linalg.norm(y)
    a = s2_heat_kernel(0.3, float(x @ y), 12)
    b = s2_heat_kernel(0.3, float((q @ x) @ (q @ y)), 12)
    assert a == pytest.approx(b, rel=1e-12)


def test_tail_sum_frozen_and_additive():
    tail = s2_tail_sum(0.25, 3, 50)
    assert tail == pytest.approx(0.03307284587677101, abs=1e-15)
    assert tail == pytest.approx(s2_tail_sum(0.25, 3, 10) +
                                 s2_tail_sum(0.25, 11, 50), rel=1e-14)
    # the 1/(8 pi) truncation budget covers it
    assert tail <= 1.0 / (8.0 * np.pi)


def test_embedding_scale_value():
    assert embedding_scale(0.25, 2) == pytest.approx(
        np.sqrt(np.pi / 2.0), rel=1e-14)


def test_embedding_norm_near_isometry():
    n2 = s2_embedding_norm_sq(0.25)
    assert n2 == pytest.approx(0.9252221745161431, abs=1e-12)
    assert np.sqrt(n2) == pytest.approx(0.9618846991797629, abs=1e-12)
    # far past the useful window the derivative norm collapses
    assert s2_embedding_norm_sq(4.0) == pytest.approx(
        4.321350709219824e-05, rel=1e-12)
    # degree-1 part alone, from the same sum evaluated by hand
    part = 4.0 * 0.25 ** 2 * 2.0 * 3.0 * np.exp(-4.0 * 0.25)
    assert s2_embedding_norm_sq(0.25, l_max=1) == pytest.approx(
        part, rel=1e-14)


def test_oracle_embedding_block_radii():
    pts = sample_sphere(100, 2, 9).points
    emb = s2_oracle_embedding(pts, 0.25)
    assert emb.shape == (100, 8)
    first = np.linalg.norm(emb[:, :3], axis=1)
    # scale * e^{-t} * sqrt(3/4pi), identical at every point
    assert np.allclose(first, 0.4769161324512283, atol=1e-12)
    full = np.linalg.norm(emb, axis=1)
    # the diagonal kernel minus its constant (l=0) term, rescaled
    trunc = s2_heat_kernel(0.25, 1.0, 2) - 1.0 / (4.0 * np.pi)
    assert np.allclose(full, np.sqrt(np.pi / 2.0 * trunc), atol=1e-12)


def test_oracle_embedding_rejects_off_sphere():
    with pytest.raises(ValueError):
        s2_oracle_embedding(np.array([1.0, 1.0, 0.0]), 0.25)
    with pytest.raises(ValueError, match="unit sphere"):
        sphere_truth(2 * sample_sphere(20, 2, 1).points, 8)


def test_oracle_tangent_orthonormal_and_tangent():
    rng = np.random.default_rng(10)
    for _ in range(5):
        p = rng.normal(size=3)
        p /= np.linalg.norm(p)
        basis = s2_oracle_tangent(p, 0.25).basis
        assert basis.shape == (8, 2)
        assert np.allclose(basis.T @ basis, np.eye(2), atol=1e-12)
        # secants land in the span up to the O(step) curvature deflection
        U = true_tangent_sphere(p).basis
        for step in (1e-5, -1e-5):
            q = p + step * U[:, 0]
            q /= np.linalg.norm(q)
            dv = s2_oracle_embedding(q, 0.25) - s2_oracle_embedding(p, 0.25)
            resid = dv - basis @ (basis.T @ dv)
            assert np.linalg.norm(resid) <= 5e-5 * np.linalg.norm(dv)


def _oracle_tangent_one_point(p, t):
    """The analytic oracle basis at one point as it was built before the
    stacked form: the frame from e_x, or e_y within 1e-6 of the x axis."""
    a = np.array([1.0, 0.0, 0.0])
    if abs(p @ a) > 1.0 - 1e-6:
        a = np.array([0.0, 1.0, 0.0])
    t1 = a - (a @ p) * p
    t1 /= np.linalg.norm(t1)
    J = s2_harmonic_gradients(p) @ np.stack([t1, np.cross(p, t1)], axis=1)
    J *= (embedding_scale(t, 2) * np.exp(-_L8 * t / 2.0))[:, None]
    Q, R = np.linalg.qr(J)
    return Q * np.sign(np.diag(R))[None, :]


def test_oracle_tangent_stacked_matches_one_point_form():
    """One call on an (N, 3) array gives every row's one-point basis,
    choosing the frame per row, also at and near the x axis."""
    near = 1.0 - 1e-7
    pts = np.vstack([sample_sphere(200, 2, 6).points,
                     [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
                      [near, np.sqrt(1.0 - near ** 2), 0.0]]])
    oracle = s2_oracle_tangent(pts, 0.3)
    assert oracle.basis.shape == (203, 8, 2)
    assert np.array_equal(oracle.base, s2_oracle_embedding(pts, 0.3))
    for p, basis in zip(pts, oracle.basis):
        ref = _oracle_tangent_one_point(p, 0.3)
        assert np.max(np.abs(basis - ref)) <= 1e-14
        assert np.max(np.abs(s2_oracle_tangent(p, 0.3).basis - ref)) <= 1e-14
    with pytest.raises(ValueError, match="one base point"):
        s2_oracle_tangent(pts, 0.3, method="fd")
    with pytest.raises(ValueError, match="unit sphere"):
        s2_oracle_tangent(np.vstack([pts, [[1.0, 1.0, 0.0]]]), 0.3)


def test_oracle_tangent_fd_agrees():
    rng = np.random.default_rng(11)
    p = rng.normal(size=3)
    p /= np.linalg.norm(p)
    a = s2_oracle_tangent(p, 0.25, method="analytic").basis
    b = s2_oracle_tangent(p, 0.25, method="fd").basis
    # compare spans, not signed frames
    gap = np.linalg.norm(a - b @ (b.T @ a), 2)
    assert gap <= 1e-6


def test_second_fundamental_form_unit_sphere():
    def chart(u):
        u = np.atleast_2d(u)
        th, ph = u[:, 0], u[:, 1]
        return np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                         np.cos(th)], axis=1)

    val = second_fundamental_form(chart, np.array([1.1, 0.7]))
    assert val == pytest.approx(1.0, abs=1e-6)


def test_local_reach_unit_sphere():
    def chart(u):
        u = np.atleast_2d(u)
        th, ph = u[:, 0], u[:, 1]
        return np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                         np.cos(th)], axis=1)

    assert local_reach_numeric(chart, grid=32) == pytest.approx(1.0,
                                                               abs=1e-6)


def test_local_reach_rejects_coarse_grid():
    with pytest.raises(ValueError):
        local_reach_numeric(lambda u: u, grid=8)


def test_local_reach_rejects_wrong_chart_shape():
    with pytest.raises(ValueError, match="chart must map"):
        local_reach_numeric(lambda u: u[:, 0], grid=32)
    with pytest.raises(ValueError, match="chart must map"):
        local_reach_numeric(lambda u: u[1:], grid=32)


def test_local_reach_propagates_chart_errors():
    # a chart that only takes one point at a time fails on the batch
    def scalar_chart(u):
        th, ph = u[0], u[1]
        return [math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph),
                math.cos(th)]

    with pytest.raises(TypeError):
        local_reach_numeric(scalar_chart, grid=32)


def _loop_norms(S11, S12, S22):
    # the per-direction sweep that _shape_operator_norms ran before its
    # Gram form, verbatim
    N = S11.shape[0]
    best = np.zeros(N)
    for a in G._ALPHA:
        ca, sa = np.cos(a), np.sin(a)
        v = ca * ca * S11 + 2 * ca * sa * S12 + sa * sa * S22
        best = np.maximum(best, np.einsum("ij,ij->i", v, v))
    return np.sqrt(best)


def _oracle_chart(t, m=8):
    return lambda u: s2_oracle_embedding(G._sphere_chart(u), t)[:, :m]


def _sweep_points(grid):
    th = (np.arange(grid) + 0.5) * np.pi / grid
    ph = (np.arange(2 * grid) + 0.5) * np.pi / grid
    T, P = np.meshgrid(th, ph, indexing="ij")
    return np.stack([T.ravel(), P.ravel()], axis=1)


_SWEEP_CHARTS = {"unit-sphere": G._sphere_chart}
_SWEEP_CHARTS.update({"oracle-t%g" % t: _oracle_chart(t)
                      for t in (0.2, 0.5, 1.0, 2.0)})
_SWEEP_CHARTS.update({"oracle-m3-t%g" % t: _oracle_chart(t, 3)
                      for t in (0.2, 0.5, 1.0, 2.0)})


@pytest.mark.parametrize("name", sorted(_SWEEP_CHARTS))
def test_gram_form_matches_direction_loop(name):
    chart = _SWEEP_CHARTS[name]
    U = _sweep_points(40)
    ref = _loop_norms(*G._shape_operators(chart, U, 1e-4))
    got = G._shape_operator_norms(chart, U, 1e-4)
    assert np.max(np.abs(got - ref) / ref) <= 1e-14
    # one point at a time, as second_fundamental_form asks
    one = second_fundamental_form(chart, U[777])
    assert abs(one - ref[777]) <= 1e-14 * ref[777]


def test_chunked_sweep_equals_one_batch(monkeypatch):
    chart = _oracle_chart(0.5)
    grid = 50                       # 5000 points: one full chunk and a part
    assert (grid * 2 * grid) % G._SWEEP_CHUNK
    chunked = local_reach_numeric(chart, grid=grid)
    monkeypatch.setattr(G, "_SWEEP_CHUNK", grid * 2 * grid)
    assert chunked == local_reach_numeric(chart, grid=grid)
    whole = G._shape_operator_norms(chart, _sweep_points(grid), 1e-4)
    assert chunked == 1.0 / np.max(whole)


def test_pushforward_density():
    J = np.zeros((3, 2))
    J[0, 0] = 2.0
    J[1, 1] = 2.0
    assert pushforward_density(J, 1.0) == pytest.approx(0.25, rel=1e-14)
    Q = np.linalg.qr(np.random.default_rng(12).normal(size=(3, 2)))[0]
    assert pushforward_density(Q, 0.7) == pytest.approx(0.7, rel=1e-12)
    with pytest.raises(ValueError):
        pushforward_density(J, 0.0)
