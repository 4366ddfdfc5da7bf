import numpy as np
import pytest

import dmaplab.spectral as sp
from dmaplab.geometry import sample_sphere, sphere_area
from dmaplab.graph import system_from_cloud
from dmaplab.spectral import (cluster_eigenvalues, eigen_errors,
                              eigensolve_smallest, l2_invdensity_norm,
                              sign_align, subspace_align)


def _sphere_system(n, seed):
    return system_from_cloud(sample_sphere(n, 2, seed))


def test_eigensolve_basic_contract():
    system = _sphere_system(300, 1)
    spec = eigensolve_smallest(system, 8)
    assert spec.m == 8
    assert 0.0 <= spec.mu[0] <= 1e-12
    assert np.all(np.diff(spec.mu) >= 0)
    # residuals of the generalized problem against -L directly
    for j in range(9):
        v = spec.vec_raw[:, j]
        r = np.linalg.norm(-system.L @ v - spec.mu[j] * v)
        assert r <= 1e-8 * max(1.0, spec.mu[j])


def test_eigensolve_constant_mode():
    system = _sphere_system(250, 2)
    spec = eigensolve_smallest(system, 3)
    v0 = spec.vec_raw[:, 0]
    mean = np.mean(v0)
    assert np.max(np.abs(v0 - mean)) <= 1e-6 * abs(mean)


def test_eigensolve_sign_convention():
    spec = eigensolve_smallest(_sphere_system(200, 3), 5)
    for j in range(6):
        v = spec.vec_raw[:, j]
        nz = np.flatnonzero(np.abs(v) > 1e-12 * np.max(np.abs(v)))
        assert v[nz[0]] > 0


def test_eigensolve_dense_vs_iterative():
    system = _sphere_system(300, 4)
    dense = eigensolve_smallest(system, 6)
    limit = sp._DENSE_LIMIT
    sp._DENSE_LIMIT = 10          # force the shift-invert path
    try:
        it = eigensolve_smallest(system, 6)
    finally:
        sp._DENSE_LIMIT = limit
    assert np.max(np.abs(dense.mu - it.mu)) <= 1e-8


def test_eigensolve_iterative_repeats_bit_for_bit():
    system = _sphere_system(500, 1)
    limit = sp._DENSE_LIMIT
    sp._DENSE_LIMIT = 10          # force the shift-invert path
    try:
        a = eigensolve_smallest(system, 8)
        b = eigensolve_smallest(system, 8)
    finally:
        sp._DENSE_LIMIT = limit
    assert np.array_equal(a.mu, b.mu)
    assert np.array_equal(a.vec_raw, b.vec_raw)


def test_eigensolve_normalized_vectors_attached():
    system = _sphere_system(220, 5)
    spec = eigensolve_smallest(system, 4)
    assert spec.vec_norm is not None
    assert spec.vec_norm.shape == spec.vec_raw.shape
    # columns renormalized in the inverse-density norm
    for j in range(5):
        nrm = l2_invdensity_norm(spec.vec_norm[:, j], system.ball_counts,
                                 system.h, 2)
        assert nrm == pytest.approx(1.0, rel=1e-10)


def test_cluster_eigenvalues_grouping():
    mu = np.array([0.0, 1.0, 1.01, 5.0])
    assert cluster_eigenvalues(mu, 0.25) == [[0], [1, 2], [3]]
    # huge tolerance merges everything
    assert cluster_eigenvalues(mu, 100.0) == [[0, 1, 2, 3]]
    assert cluster_eigenvalues(np.array([0.0]), 0.25) == [[0]]
    assert cluster_eigenvalues(np.array([]), 0.25) == []
    # the exact-repeat grouping that eigen_errors and truth_clusters use
    lam = np.array([0.0, 2, 2, 2, 6, 6, 6, 6, 6])
    assert cluster_eigenvalues(lam, sp._EXACT_REPEAT_TOL) == \
        [[0], [1, 2, 3], [4, 5, 6, 7, 8]]
    assert cluster_eigenvalues(np.array([2.0, 2.0 + 1e-6]),
                               sp._EXACT_REPEAT_TOL) == [[0], [1]]


def test_l2_invdensity_norm_closed_form():
    # n=4 unit entries, all counts 2, h=1/2, d=2:
    # sqrt(2 pi h^2 / 2 * sum 1/2) = sqrt(pi/2)
    val = l2_invdensity_norm(np.ones(4), np.full(4, 2), 0.5, 2)
    assert val == pytest.approx(np.sqrt(np.pi / 2.0), rel=1e-14)
    # prefactor really is the d-ball volume over counts
    v = np.array([1.0, 2.0])
    counts = np.array([1, 4])
    expect = np.sqrt(sphere_area(1) * 0.3 ** 2 / 2 * (1.0 + 4.0 / 4.0))
    assert l2_invdensity_norm(v, counts, 0.3, 2) == pytest.approx(
        expect, rel=1e-14)


def test_sign_align():
    rng = np.random.default_rng(0)
    t = rng.normal(size=50)
    s, err = sign_align(-t, t)
    assert s == -1
    assert err <= 1e-15
    s, err = sign_align(t + 1e-3, t)
    assert s == 1
    assert err == pytest.approx(1e-3, rel=1e-6)


def test_subspace_align_recovers_rotation():
    rng = np.random.default_rng(1)
    T, _ = np.linalg.qr(rng.normal(size=(40, 3)))
    ang = 0.7
    Q = np.array([[np.cos(ang), -np.sin(ang), 0],
                  [np.sin(ang), np.cos(ang), 0],
                  [0, 0, 1.0]])
    E = T @ Q.T
    Qhat, err = subspace_align(E, T)
    assert np.allclose(Qhat, Q, atol=1e-12)
    assert err <= 1e-12


def test_subspace_align_rank_collapse():
    E = np.eye(6)[:, :2]
    T = np.eye(6)[:, 2:4]          # orthogonal complement: no alignment
    with pytest.raises(ValueError):
        subspace_align(E, T)


def test_eigen_errors_small_sphere():
    cloud = sample_sphere(400, 2, 6)
    system = system_from_cloud(cloud)
    spec = eigensolve_smallest(system, 8)
    from dmaplab.experiments import sphere_truth
    lam, cols = sphere_truth(cloud.points, 8)
    report = eigen_errors(spec, lam, cols)
    assert len(report.value_errors) == 3           # {0}, {2 x3}, {6 x5}
    assert report.value_errors[0] <= 1e-12
    assert all(e >= 0 for e in report.value_errors)
    assert all(e >= 0 for e in report.vector_sup_errors)
    # constant mode and degree-1 block both track their eigenfunctions
    assert report.vector_sup_errors[0] < 0.01
    assert report.vector_sup_errors[1] < 0.2


def test_eigen_errors_requires_normalized():
    spec = sp.SpectralSet(mu=np.zeros(1), vec_raw=np.ones((4, 1)),
                          vec_norm=None, clusters=[[0]])
    with pytest.raises(ValueError):
        eigen_errors(spec, np.zeros(1), np.ones((4, 1)))
