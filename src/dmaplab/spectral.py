"""Eigendecomposition of the normalized graph Laplacian, density-corrected
eigenvector normalization, and cluster-aware error metrics against known
spectra."""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg.blas import dsymv
from scipy.sparse.linalg import LinearOperator, eigsh, ArpackNoConvergence

from .geometry import _check_domain, sphere_area
from .graph import _residuals

_DENSE_LIMIT = 100
_EXACT_REPEAT_TOL = 1e-9    # gap that still counts as a repeated exact value


@dataclass
class SpectralSet:
    """Ascending eigenvalues mu_0..mu_m of -L with l2-unit eigenvectors
    vec_raw, density-normalized eigenvectors vec_norm (columns), and the
    partition of indices into eigenvalue clusters."""

    mu: np.ndarray
    vec_raw: np.ndarray
    vec_norm: np.ndarray
    clusters: list

    @property
    def m(self):
        return len(self.mu) - 1


@dataclass
class EigenErrorReport:
    value_errors: list
    vector_sup_errors: list
    pattern_matched: bool


def l2_invdensity_norm(vec, ball_counts, h, d):
    """Norm sqrt( (omega(d-1) h^d / d) * sum_i vec_i^2 / N_i ) where N_i are
    h-ball occupation counts; the prefactor is the volume of a radius-h
    ball in R^d, making 1/N_i a local inverse-density weight."""
    _check_domain(h=h, d=d)
    vec = np.asarray(vec, dtype=float)
    counts = np.asarray(ball_counts, dtype=float)
    if np.any(counts < 1):
        raise ValueError("ball counts must be >= 1")
    return float(np.sqrt(sphere_area(d - 1) * h**d / d
                         * np.sum(vec * vec / counts)))


def cluster_eigenvalues(mu, gap_tol):
    """Group ascending eigenvalues into contiguous clusters, splitting where
    the gap to the next value is >= gap_tol * max(1, next value)."""
    _check_domain(gap_tol=gap_tol)
    mu = np.asarray(mu, dtype=float)
    clusters = []
    for i in range(len(mu)):
        if i and mu[i] - mu[i - 1] < gap_tol * max(1.0, abs(mu[i])):
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def eigensolve_smallest(system, m, gap_tol=0.25):
    """Smallest m+1 eigenpairs of -L from the largest m+1 eigenvalues lambda
    of its symmetric conjugate A = D^-1/2 W D^-1/2, mu = (1-lambda)/h^2.

    Up to n = _DENSE_LIMIT (100), and for the full spectrum (m + 1 = n),
    which Lanczos cannot return, a dense eigh solves A; otherwise Lanczos
    solves it from products with W alone (BLAS dsymv).  Both branches read
    W's lower triangle in every layout, so an asymmetry within laplacian's
    tolerance is seen by the residual check alone, which uses the full W.
    Eigenvectors are mapped back by u -> D^-1/2 u, l2-normalized, sign-fixed
    (first significant entry positive), checked against the residual
    contract |(-L)v - mu v| <= 1e-8 max(1, mu), and normalized in l2(1/p-hat)
    when the system carries ball counts and an intrinsic dimension.
    """
    _check_domain(m=m, gap_tol=gap_tol)
    n = system.n
    if m + 1 > n:
        raise ValueError("asked for %d pairs from an n=%d system" % (m + 1, n))
    h = system.h
    dm = 1.0 / np.sqrt(system.degree)

    if n <= _DENSE_LIMIT or m + 1 == n:
        A = np.multiply(dm[:, None], system.W, order="C")
        A *= dm[None, :]
        # A is C-ordered whatever W's layout, so A.T is Fortran-ordered:
        # eigh works in it without a copy; its upper triangle is A's lower one
        lam, U = sla.eigh(A.T, lower=False, subset_by_index=[n - m - 1, n - 1],
                          overwrite_a=True)
    else:
        # dsymv reads the upper triangle of W^T (a C-ordered W) or the lower
        # triangle of W itself or of its one Fortran copy: W's lower either way
        lower = int(not system.W.flags.c_contiguous)
        F = np.asfortranarray(system.W if lower else system.W.T)
        A = LinearOperator((n, n), dtype=float, matvec=lambda v:
                           dm * dsymv(1.0, F, dm * v, lower=lower))
        try:
            # a fixed start vector makes repeated solves bit-identical
            lam, U = eigsh(A, k=m + 1, which="LA", tol=1e-10,
                           v0=np.random.default_rng(0).standard_normal(n))
        except ArpackNoConvergence as err:
            raise RuntimeError(
                "Lanczos did not converge: %d of %d pairs found"
                % (len(err.eigenvalues), m + 1)) from err
    mu = (1.0 - lam) / (h * h)
    order = np.argsort(mu)
    mu, U = mu[order], U[:, order]

    if mu[0] < -1e-9:
        raise RuntimeError("negative leading eigenvalue %.3e" % mu[0])
    mu = np.maximum(mu, 0.0)

    V = dm[:, None] * U
    V /= np.linalg.norm(V, axis=0, keepdims=True)
    # deterministic signs: first entry above noise level made positive
    absV = np.abs(V)
    first = np.argmax(absV > 1e-12 * absV.max(axis=0), axis=0)
    V *= np.where(V[first, np.arange(V.shape[1])] < 0, -1.0, 1.0)

    rnorm = np.linalg.norm(_residuals(system, V, mu), axis=0)
    bad = rnorm > 1e-8 * np.maximum(1.0, mu)
    if np.any(bad):
        raise RuntimeError("residual contract violated at indices %s, norms %s"
                           % (np.where(bad)[0].tolist(), rnorm[bad]))

    vec_norm = None
    if system.ball_counts is not None and system.d is not None:
        vec_norm = V / [l2_invdensity_norm(v, system.ball_counts, h, system.d)
                        for v in V.T]

    return SpectralSet(mu=mu, vec_raw=V, vec_norm=vec_norm,
                       clusters=cluster_eigenvalues(mu, gap_tol))


def sign_align(est, truth):
    """Sign a in {+1,-1} minimizing the sup norm of a*est - truth, with the
    achieved minimum."""
    est = np.asarray(est, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if est.shape != truth.shape:
        raise ValueError("length mismatch")
    plus = np.max(np.abs(est - truth))
    minus = np.max(np.abs(est + truth))
    return (1, float(plus)) if plus <= minus else (-1, float(minus))


def _procrustes(E, T):
    """Orthogonal Q minimizing the Frobenius misfit of E Q - T, with the
    singular values of the cross-product E^T T."""
    U, s, Vt = np.linalg.svd(E.T @ T)
    return U @ Vt, s


def subspace_align(est_block, truth_block):
    """Orthogonal Procrustes alignment of an estimated eigenvector block to
    a reference block: Q minimizing the Frobenius misfit of est Q - truth,
    plus the post-alignment entrywise sup error."""
    E = np.asarray(est_block, dtype=float)
    T = np.asarray(truth_block, dtype=float)
    if E.shape != T.shape:
        raise ValueError("shape mismatch")
    Q, s = _procrustes(E, T)
    if s[-1] <= 1e-12 * max(1.0, s[0]):
        raise ValueError("rank collapse in cross-product; blocks nearly "
                         "orthogonal, alignment undetermined")
    return Q, float(np.max(np.abs(E @ Q - T)))


def eigen_errors(spec, truth_values, truth_fns):
    """Cluster-wise comparison of a SpectralSet against a known spectrum.

    truth_values: exact eigenvalues (with repetitions) for indices 0..m.
    truth_fns: n x (m+1) matrix of the matching L2-normalized eigenfunctions
    evaluated at the sample points.

    Detected clusters are compared to the multiplicity pattern of
    truth_values; on mismatch the truth pattern is imposed by index order
    and the report is flagged (degraded pairing, not fatal).  Each cluster
    contributes a mean eigenvalue error and a post-alignment sup error
    (sign for simple eigenvalues, Procrustes for multiple ones).
    """
    truth_values = np.asarray(truth_values, dtype=float)
    mcount = len(truth_values)
    if spec.vec_norm is None:
        raise ValueError("spectral set lacks vec_norm; solve with ball "
                         "counts and intrinsic dimension attached")
    truth_groups = cluster_eigenvalues(truth_values, _EXACT_REPEAT_TOL)
    matched = [len(c) for c in spec.clusters[:len(truth_groups)]] == \
              [len(g) for g in truth_groups] and \
              sum(len(c) for c in spec.clusters) == mcount
    value_errors, sup_errors = [], []
    for idx in truth_groups:
        value_errors.append(float(np.mean(np.abs(spec.mu[idx]
                                                 - truth_values[idx]))))
        E = spec.vec_norm[:, idx]
        T = truth_fns[:, idx]
        if len(idx) == 1:
            _, err = sign_align(E[:, 0], T[:, 0])
        else:
            _, err = subspace_align(E, T)
        sup_errors.append(err)
    return EigenErrorReport(value_errors=value_errors,
                            vector_sup_errors=sup_errors,
                            pattern_matched=bool(matched))
