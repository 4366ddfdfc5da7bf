from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence

import dmaplab.graph as gr
import dmaplab.spectral as sp
from dmaplab.geometry import sample_sphere, sphere_area
from dmaplab.graph import laplacian, system_from_cloud
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


def _cluster_projectors(spec):
    """Orthogonal projector onto the span of each cluster's eigenvectors."""
    out = []
    for c in spec.clusters:
        Q, _ = np.linalg.qr(spec.vec_raw[:, c])
        out.append(Q @ Q.T)
    return out


@pytest.mark.parametrize("n", [150, 300, 1000])
def test_eigensolve_dense_vs_iterative(force_dense, monkeypatch, n):
    """The dense and the Lanczos solve of one system agree in mu, in the
    clusters and in each cluster's projector, at sizes above the default
    limit, where Lanczos runs and eigh is the reference."""
    system = _sphere_system(n, 4)
    dense = eigensolve_smallest(system, 6)
    monkeypatch.setattr(sp, "_DENSE_LIMIT", 10)
    it = eigensolve_smallest(system, 6)
    assert np.max(np.abs(dense.mu - it.mu)) <= 1e-8
    assert it.clusters == dense.clusters
    for Pd, Pi in zip(_cluster_projectors(dense), _cluster_projectors(it)):
        assert np.max(np.abs(Pd - Pi)) <= 1e-8


def _spy(fn, calls):
    def wrapped(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)
    return wrapped


def test_default_limit_switches_branch(monkeypatch):
    """At the default limit, n = _DENSE_LIMIT runs eigh and one point more
    runs eigsh."""
    calls = []
    monkeypatch.setattr(sp, "sla", type("sla", (), {
        "eigh": _spy(sla.eigh, calls)}))
    monkeypatch.setattr(sp, "eigsh", _spy(sp.eigsh, calls))
    eigensolve_smallest(_sphere_system(sp._DENSE_LIMIT, 1), 8)
    assert calls == ["eigh"]
    eigensolve_smallest(_sphere_system(sp._DENSE_LIMIT + 1, 1), 8)
    assert calls == ["eigh", "eigsh"]


def test_full_spectrum_takes_dense_branch(force_iterative):
    """Lanczos cannot return all n pairs, so m + 1 = n goes to eigh above
    the limit too, and every pair meets the residual contract."""
    system = _sphere_system(300, 1)
    spec = eigensolve_smallest(system, 299)
    assert spec.mu.shape == (300,) and spec.vec_raw.shape == (300, 300)
    r = np.linalg.norm(gr._residuals(system, spec.vec_raw, spec.mu), axis=0)
    assert np.all(r <= 1e-8 * np.maximum(1.0, spec.mu))


@pytest.mark.parametrize("n", [300, 2000])
def test_dense_branch_matches_old_expression(force_dense, monkeypatch, n):
    """The in-place A of the dense branch, and eigh's lambda and U on it,
    equal bit for bit those of the temporaries-based expression
    dm[:, None] * W * dm[None, :]."""
    system = _sphere_system(n, 5)
    calls = []

    def eigh(a, **kwargs):
        calls.append((a.copy(), sla.eigh(a, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(sp, "sla", type("sla", (), {"eigh": eigh}))
    eigensolve_smallest(system, 8)
    dm = 1.0 / np.sqrt(system.degree)
    A_old = dm[:, None] * system.W * dm[None, :]
    lam_old, U_old = sla.eigh(A_old.T, lower=False,
                              subset_by_index=[n - 9, n - 1])
    (a, (lam, U)), = calls
    assert a.T.tobytes() == A_old.tobytes()
    assert np.array_equal(lam, lam_old) and np.array_equal(U, U_old)


@pytest.mark.parametrize("order", ["C", "F"])
def test_eigensolve_dense_allocates_one_square_array(force_dense, peak_bytes,
                                                    order):
    # A alone: built C-ordered in place and handed to eigh without a copy,
    # whatever W's layout
    n = 1500
    system = _sphere_system(n, 2)
    system.W = np.asarray(system.W, order=order)
    assert peak_bytes(lambda: eigensolve_smallest(system, 8)) < 1.25 * 8 * n * n


def test_eigensolve_iterative_repeats_bit_for_bit(force_iterative):
    system = _sphere_system(500, 1)
    a = eigensolve_smallest(system, 8)
    b = eigensolve_smallest(system, 8)
    assert np.array_equal(a.mu, b.mu)
    assert np.array_equal(a.vec_raw, b.vec_raw)


def test_eigensolve_iterative_allocates_no_square_array(force_iterative,
                                                        peak_bytes):
    n = 1500
    system = _sphere_system(n, 2)
    assert peak_bytes(lambda: eigensolve_smallest(system, 8)) < 8 * n * n


def test_eigensolve_iterative_f_ordered_allocates_no_square_array(
        force_iterative, peak_bytes):
    n = 1500
    system = _sphere_system(n, 2)
    system.W = np.asfortranarray(system.W)
    assert peak_bytes(lambda: eigensolve_smallest(system, 8)) < 8 * n * n


def _strided(W):
    """W as the [:n, :n] view of a larger symmetric array."""
    n = W.shape[0]
    big = np.ones((n + 3, n + 3))
    big[:n, :n] = W
    return big[:n, :n]


def _record_dsymv(monkeypatch):
    """Patch the Lanczos product to record its array operand and triangle
    flag; returns the list of (operand, lower) pairs."""
    operands = []

    def dsymv(alpha, a, x, lower=0):
        operands.append((a, lower))
        return sla.blas.dsymv(alpha, a, x, lower=lower)

    monkeypatch.setattr(sp, "dsymv", dsymv)
    return operands


@pytest.mark.parametrize("layout", [np.asfortranarray, _strided],
                         ids=["F-ordered", "strided"])
def test_eigensolve_iterative_any_layout(force_iterative, monkeypatch,
                                         layout):
    """Every layout of W solves to the same mu, and the products go through
    one Fortran-ordered array, copied once at most."""
    system = _sphere_system(500, 4)
    ref = eigensolve_smallest(system, 8)
    other = laplacian(layout(system.W), system.h,
                      ball_counts=system.ball_counts, d=system.d)
    operands = _record_dsymv(monkeypatch)
    spec = eigensolve_smallest(other, 8)
    assert np.max(np.abs(spec.mu - ref.mu)) <= 1e-12
    assert all(a is operands[0][0] for a, _ in operands)
    assert operands[0][0].flags.f_contiguous


@pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray,
                                    _strided],
                         ids=["C-ordered", "F-ordered", "strided"])
def test_eigensolve_iterative_reads_one_triangle(force_iterative,
                                                 monkeypatch, layout):
    """An asymmetry within laplacian's tolerance, in the triangle the Lanczos
    products do not read, still meets the residual contract, which is
    checked against the full W.  The products read W's lower triangle, as
    the dense eigh does, in every layout."""
    system = _sphere_system(500, 5)
    W = system.W.copy()
    W[3, 400] += 1e-13 * W.max()
    assert W[3, 400] != W[400, 3]
    bent = laplacian(layout(W), system.h)
    operands = _record_dsymv(monkeypatch)
    spec = eigensolve_smallest(bent, 8)
    r = np.linalg.norm(gr._residuals(bent, spec.vec_raw, spec.mu), axis=0)
    assert np.all(r <= 1e-8 * np.maximum(1.0, spec.mu))
    # the products take entry (3, 400) from W[400, 3], not the moved W[3, 400]
    a, lower = operands[0]
    assert sla.blas.dsymv(1.0, a, np.eye(500)[400],
                          lower=lower)[3] == W[400, 3]


def test_eigensolve_dense_reads_one_triangle(force_dense):
    """The dense eigh reads the triangle the Lanczos products read: with
    W[3, 400] moved, it takes entry (3, 400) from W[400, 3], so the solve
    equals bit for bit the one on W with W[400, 3] put back at (3, 400)
    (degrees kept).  The residual contract, checked against the full W,
    still holds."""
    system = _sphere_system(500, 5)
    W = system.W.copy()
    W[3, 400] += 1e-13 * W.max()
    assert W[3, 400] != W[400, 3]
    bent = laplacian(W, system.h)
    spec = eigensolve_smallest(bent, 8)
    r = np.linalg.norm(gr._residuals(bent, spec.vec_raw, spec.mu), axis=0)
    assert np.all(r <= 1e-8 * np.maximum(1.0, spec.mu))
    lower = W.copy()
    lower[3, 400] = W[400, 3]
    ref = eigensolve_smallest(replace(bent, W=lower), 8)
    assert np.array_equal(spec.mu, ref.mu)
    assert np.array_equal(spec.vec_raw, ref.vec_raw)


def test_eigensolve_refuses_negative_m(request):
    """m < 0 meets the solver's own error on both branches, not scipy's."""
    system = _sphere_system(300, 1)
    request.getfixturevalue("force_dense")
    with pytest.raises(ValueError, match="^m must be >= 0, got -1$"):
        eigensolve_smallest(system, -1)
    request.getfixturevalue("force_iterative")
    with pytest.raises(ValueError, match="^m must be >= 0, got -1$"):
        eigensolve_smallest(system, -1)


def test_residuals_from_w_match_derived_l(force_iterative):
    system = _sphere_system(600, 3)
    spec = eigensolve_smallest(system, 8)
    V, mu = spec.vec_raw, spec.mu
    via_L = -(system.L @ V) - V * mu
    assert np.max(np.abs(gr._residuals(system, V, mu) - via_L)) <= 1e-12


def test_eigensolve_reports_lanczos_failure(force_iterative, monkeypatch):
    def fail(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.zeros(2),
                                  np.zeros((300, 2)))
    monkeypatch.setattr(sp, "eigsh", fail)
    with pytest.raises(RuntimeError,
                       match="^Lanczos did not converge: 2 of 9 pairs found"):
        eigensolve_smallest(_sphere_system(300, 1), 8)


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
    for gap_tol in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="gap_tol must be positive"):
            cluster_eigenvalues(mu, gap_tol)


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


@settings(max_examples=6)
@given(n=st.integers(60, 300), seed=st.integers(0, 2 ** 32 - 1))
def test_point_permutation_permutes_cluster_projector_diagonals(n, seed):
    """Relabelling the points leaves mu and the clusters unchanged and
    permutes the diagonal of each cluster's eigenvector projector."""
    cloud = sample_sphere(n, 2, seed)
    perm = np.random.default_rng(seed).permutation(n)
    a = eigensolve_smallest(system_from_cloud(cloud), 8)
    b = eigensolve_smallest(system_from_cloud(
        replace(cloud, points=cloud.points[perm])), 8)
    assert np.allclose(b.mu, a.mu, rtol=0, atol=1e-10)
    assert b.clusters == a.clusters
    for g in a.clusters:
        diag_a = np.sum(a.vec_raw[:, g] ** 2, axis=1)
        diag_b = np.sum(b.vec_raw[:, g] ** 2, axis=1)
        assert np.allclose(diag_b, diag_a[perm], rtol=0, atol=1e-10)
