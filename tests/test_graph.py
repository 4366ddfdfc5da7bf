from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmaplab.geometry import PointCloud, sample_sphere
import dmaplab.graph as gr
from dmaplab.graph import (KernelConfig, LaplacianSystem, ball_counts,
                           bandwidth, build_affinity, gaussian_kernel,
                           laplacian, system_from_cloud)
from dmaplab.spectral import eigensolve_smallest


def test_bandwidth_frozen_values():
    assert bandwidth(1000, 2) == pytest.approx(0.7890622799485141,
                                               abs=1e-15)
    assert bandwidth(10000, 2) == pytest.approx(0.716872134125873,
                                                abs=1e-15)


def test_bandwidth_decreasing_in_n():
    hs = [bandwidth(n, 2) for n in (100, 1000, 10000, 100000)]
    assert all(a > b for a, b in zip(hs, hs[1:]))


def test_bandwidth_needs_three_points():
    with pytest.raises(ValueError):
        bandwidth(2, 2)


def test_kernel_config_validation():
    KernelConfig(h=0.5, n=10, d=2)
    with pytest.raises(ValueError):
        KernelConfig(h=0.0, n=10, d=2)
    with pytest.raises(ValueError):
        KernelConfig(h=0.5, n=1, d=2)


def test_gaussian_kernel_values():
    x = np.array([0.0, 0.0])
    y = np.array([1.0, 0.0])
    assert gaussian_kernel(x, x, 0.3) == 1.0
    assert gaussian_kernel(x, y, 0.5) == pytest.approx(np.exp(-1.0),
                                                       rel=1e-14)
    assert gaussian_kernel(x, y, 0.5) == gaussian_kernel(y, x, 0.5)
    with pytest.raises(ValueError):
        gaussian_kernel(x, np.zeros(3), 0.5)


def test_build_affinity_density_normalization():
    cloud = sample_sphere(40, 2, 1)
    h = 0.8
    W, q = build_affinity(cloud, h)
    assert W.shape == (40, 40)
    assert np.allclose(W, W.T, atol=1e-15)
    assert np.all(W > 0)
    # recompute one entry by hand
    K01 = gaussian_kernel(cloud.points[0], cloud.points[1], h)
    assert W[0, 1] == pytest.approx(K01 / (q[0] * q[1]), rel=1e-12)
    # self terms are kept, so q exceeds the off-diagonal mass alone
    assert np.all(q > 0)


def test_laplacian_annihilates_constants():
    cloud = sample_sphere(150, 2, 2)
    system = system_from_cloud(cloud)
    ones = np.ones(cloud.n)
    assert np.max(np.abs(system.L @ ones)) <= 1e-12


def test_laplacian_three_equidistant_points():
    # any three pairwise-equidistant points give the all-ones affinity up
    # to scale; -L then has eigenvalues {0, 1/h^2, 1/h^2}
    h = 0.7
    system = laplacian(np.ones((3, 3)), h)
    vals = np.sort(np.linalg.eigvalsh(-(system.L + system.L.T) / 2.0))
    assert vals[0] == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(vals[1:], 1.0 / h ** 2, rtol=1e-12)


def test_laplacian_rejects_bad_affinity():
    with pytest.raises(ValueError):
        laplacian(np.arange(9.0).reshape(3, 3), 0.5)   # asymmetric
    bad = np.ones((3, 3))
    bad[1, 1] = 0.0
    with pytest.raises(ValueError):
        laplacian(bad, 0.5)                            # dead diagonal
    with pytest.raises(ValueError):
        laplacian(np.ones((3, 3)), 0.0)                # zero bandwidth
    for value in (np.nan, np.inf):
        bad = np.ones((3, 3))
        bad[0, 1] = bad[1, 0] = value
        with pytest.raises(ValueError, match="W must be finite"):
            laplacian(bad, 0.5)                        # non-finite entry


def test_ball_counts_strict_inequality():
    h = 0.5
    pts = np.array([[0.0, 0.0], [h, 0.0], [0.0, 0.2]])
    cloud = PointCloud(points=pts, d=1, ambient_dim=2, seed=0)
    counts = ball_counts(cloud, h)
    # the pair at distance exactly h must not see each other
    assert counts.tolist() == [2, 1, 2]


def test_ball_counts_scale_with_density():
    cloud = sample_sphere(600, 2, 3)
    counts = ball_counts(cloud, 0.4)
    assert counts.min() >= 1
    # roughly n * (cap area / total area); just check the right ballpark
    frac = 0.25 * 0.4 ** 2          # (h/2)^2, cap fraction for small h
    assert counts.mean() > 600 * frac * 0.5


def test_system_from_cloud_wiring():
    cloud = sample_sphere(80, 2, 4)
    system = system_from_cloud(cloud)
    assert system.h == pytest.approx(bandwidth(80, 2), rel=1e-15)
    assert system.n == 80
    assert system.d == 2
    assert system.ball_counts is not None
    assert np.all(system.degree > 0)
    # explicit bandwidth is honoured
    other = system_from_cloud(cloud, h=0.9)
    assert other.h == 0.9


def test_system_deterministic():
    a = system_from_cloud(sample_sphere(60, 2, 9))
    b = system_from_cloud(sample_sphere(60, 2, 9))
    assert np.array_equal(a.L, b.L)
    assert np.array_equal(a.ball_counts, b.ball_counts)


# every n but 64 ends in a partial block of the 16-row passes over W, and
# every n above 128 in a partial 128-wide asymmetry tile
PARTIAL_N = [15, 17, 33, 63, 64, 65, 129, 300, 2001]


@pytest.mark.parametrize("n", PARTIAL_N)
def test_in_place_build_matches_old_expressions(n):
    """W, q, the degrees and the derived L equal, bit for bit, the
    temporaries-based expressions the graph layer used before it built W in
    place, row block by row block; every n but 64 ends in a partial block.
    Those expressions are the reference, so this cannot fail on the code
    that used them; it pins that the rewrite kept every bit."""
    cloud = sample_sphere(n, 2, 7)
    h = bandwidth(n, 2)
    x = cloud.points
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    K = np.exp(-d2 / (4.0 * h * h))
    q_old = K.sum(axis=1)
    W_old = K / np.outer(q_old, q_old)
    deg_old = W_old.sum(axis=1)
    L_old = (W_old / deg_old[:, None] - np.eye(n)) / (h * h)
    W, q = build_affinity(cloud, h)
    assert np.array_equal(W, W_old) and np.array_equal(q, q_old)
    system = system_from_cloud(cloud)
    assert np.array_equal(system.W, W_old)
    assert np.array_equal(system.degree, deg_old)
    assert np.array_equal(system.L, L_old)


@pytest.mark.parametrize("n", PARTIAL_N)
def test_row_stats_match_whole_array_reductions(n):
    W, _ = build_affinity(sample_sphere(n, 2, 7), bandwidth(n, 2))
    deg, hi, lo = gr._row_stats(W)
    assert np.array_equal(deg, W.sum(axis=1))
    assert hi == W.max() and lo == W.min()
    assert np.array_equal(laplacian(W, 0.8).degree, W.sum(axis=1))


def test_laplacian_checks_finiteness_first():
    # each W below would fail the symmetry, diagonal and degree checks too
    for value in (np.nan, np.inf, -np.inf):
        W, _ = build_affinity(sample_sphere(33, 2, 3), 0.8)
        W[20, 3] = value
        W[4, 4] = 0.0
        W[9] = -1.0
        with pytest.raises(ValueError, match="W must be finite"):
            laplacian(W, 0.8)


def test_laplacian_checks_allocate_no_square_array(peak_bytes):
    n = 1500
    W, _ = build_affinity(sample_sphere(n, 2, 2), bandwidth(n, 2))
    assert peak_bytes(lambda: laplacian(W, 0.8)) < 0.05 * 8 * n * n


def test_system_stores_w_as_its_only_square_array():
    assert "L" not in {f.name for f in fields(LaplacianSystem)}
    system = system_from_cloud(sample_sphere(50, 2, 1))
    square = [f.name for f in fields(system)
              if np.ndim(getattr(system, f.name)) == 2]
    assert square == ["W"]


def test_system_from_cloud_holds_two_square_arrays_at_most(peak_bytes):
    n = 1500
    cloud = sample_sphere(n, 2, 2)
    assert peak_bytes(lambda: system_from_cloud(cloud)) < 2.5 * 8 * n * n


def test_system_from_cloud_holds_one_square_array_and_a_block(peak_bytes):
    # W plus row-block temporaries; the build kept two n x n arrays before
    n = 1500
    cloud = sample_sphere(n, 2, 2)
    assert peak_bytes(lambda: system_from_cloud(cloud)) < 1.25 * 8 * n * n


@pytest.mark.parametrize("n, i, j", [(130, 129, 128), (130, 5, 100),
                                     (300, 299, 290), (300, 5, 200),
                                     (300, 290, 5)],
                         ids=["last-partial-tile", "diagonal-tile",
                              "last-partial-tile-300", "off-diagonal-tile",
                              "off-diagonal-partial-tile"])
def test_laplacian_rejects_one_asymmetric_pair(n, i, j):
    # 128-wide tiles: n = 130 tiles as 128 + 2, n = 300 as 128 + 128 + 44.
    # (129, 128) and (299, 290) sit in the last, partial diagonal tile,
    # (5, 100) in the first diagonal tile, (5, 200) in the off-diagonal tile
    # of rows 0-127 and columns 128-255, (290, 5) in the partial one of rows
    # 256-299 and columns 0-127
    assert gr._TILE == 128
    W, _ = build_affinity(sample_sphere(n, 2, 3), 0.8)
    laplacian(W, 0.8)
    W[i, j] += 1e-9
    with pytest.raises(ValueError, match="W must be symmetric"):
        laplacian(W, 0.8)


def _rotation(seed):
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))[0]


@settings(derandomize=True, max_examples=20, deadline=None)
@given(n=st.integers(20, 200), seed=st.integers(0, 2 ** 16),
       rot_seed=st.integers(0, 2 ** 16))
def test_sphere_system_invariances(n, seed, rot_seed):
    """A rotated cloud gives the same W and mu; the derived L annihilates
    constants and -L has a symmetric PSD form.  These hold for any correct
    graph layer, so this cannot fail at a correct parent; it guards the
    in-place build and the derived L against regressions."""
    cloud = sample_sphere(n, 2, seed)
    turned = PointCloud(points=cloud.points @ _rotation(rot_seed).T, d=2,
                        ambient_dim=3, seed=seed)
    a, b = system_from_cloud(cloud), system_from_cloud(turned)
    assert np.max(np.abs(a.W - b.W)) <= 1e-10 * np.max(a.W)
    mu_a = eigensolve_smallest(a, 8).mu
    mu_b = eigensolve_smallest(b, 8).mu
    assert np.max(np.abs(mu_a - mu_b)) <= 1e-10
    L = a.L
    assert np.max(np.abs(L @ np.ones(n))) <= 1e-12
    r = np.sqrt(a.degree)
    S = -(r[:, None] * L / r[None, :])
    assert np.max(np.abs(S - S.T)) <= 1e-12
    assert np.linalg.eigvalsh(0.5 * (S + S.T))[0] >= -1e-10
