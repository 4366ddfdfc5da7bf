"""Tangent-space estimation on point clouds by constrained local
polynomial fits: a PCA-seeded alternating minimization over (projector,
correction tensors) with operator-norm caps, plus the subspace angle
metric and the sample-size / bandwidth rules for the estimator."""

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from math import floor

import numpy as np

from .geometry import _ALPHA


@dataclass
class TangentConfig:
    k: int = 3
    bandwidth_const: float = 1.0
    t_cap: float = None          # None: use 1/h_tilde at fit time
    max_iter: int = 20
    tol: float = 1e-8
    f_min: float = 1.0 / (4.0 * np.pi)
    f_max: float = 1.0 / (4.0 * np.pi)

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("polynomial order k must be >= 2")
        if self.max_iter < 1 or self.tol <= 0:
            raise ValueError("need max_iter >= 1 and tol > 0")
        if not 0 < self.f_min <= self.f_max:
            raise ValueError("need 0 < f_min <= f_max")


@dataclass
class TangentEstimate:
    base_index: int
    projector: np.ndarray
    basis: np.ndarray
    tensors: dict            # degree l -> (n_monomials, m) coefficient rows
    neighbor_count: int
    iterations: int


SubsampleSize = namedtuple("SubsampleSize", "size theoretical")


def subsample_size(n, d, k, min_size=10):
    """Estimator subsample size n^(d/((8d+16)k)), floored and clamped below
    by min_size; the exact theoretical value is returned alongside."""
    if n < 2:
        raise ValueError("need n >= 2")
    theo = float(n) ** (d / ((8.0 * d + 16.0) * k))
    return SubsampleSize(size=max(int(floor(theo)), min_size),
                         theoretical=theo)


def tangent_bandwidth(n_eff, d, cfg):
    """Fit radius (C f_max^2 log(n)/(f_min^3 (n-1)))^(1/d) with C the
    configured bandwidth constant."""
    if n_eff < 3:
        raise ValueError("need n_eff >= 3")
    C = cfg.bandwidth_const
    val = C * cfg.f_max ** 2 * np.log(n_eff) / (cfg.f_min ** 3 * (n_eff - 1))
    return float(val ** (1.0 / d))


def monomial_exponents(d, degrees):
    """Multi-indices over d variables for each degree in degrees, as a list
    of (degree, exponent-tuple)."""
    return [(l, tuple(c.count(j) for j in range(d)))
            for l in degrees
            for c in combinations_with_replacement(range(d), l)]


def _frozen(a):
    a.flags.writeable = False
    return a


_UGRID = _frozen(np.stack([np.cos(_ALPHA), np.sin(_ALPHA)], axis=1))

_FitPlan = namedtuple("FitPlan", "expos E dirs blocks")


@lru_cache(maxsize=None)
def _fit_plan(d, k):
    """Constants shared by every fit at input dimension d and order k.

    expos lists the (degree, exponent) pairs of degrees 2..k-1 (none at
    k = 2) and E holds them as a float array; blocks gives, per degree l,
    its row slice of E and the monomials of the fixed unit directions dirs
    (the single direction 1 at d = 1, the 720-angle grid at d = 2, 2000
    seeded normals otherwise).  Arrays are read-only.
    """
    expos = tuple(monomial_exponents(d, range(2, k)))
    E = _frozen(np.array([e for _, e in expos], dtype=float).reshape(-1, d))
    u = np.random.default_rng(0).standard_normal((2000, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    dirs = {1: _frozen(np.ones((1, 1))), 2: _UGRID}.get(d, _frozen(u))
    blocks, start = [], 0
    for l in range(2, k):
        rows = slice(start, start + sum(ll == l for ll, _ in expos))
        blocks.append((l, rows, _frozen(_features(dirs, E[rows]))))
        start = rows.stop
    return _FitPlan(expos, E, dirs, tuple(blocks))


def _features(xi, E):
    return np.prod(xi[:, None, :] ** E, axis=2)


def _poly_opnorm(b_rows, E, dirs, M):
    """sup over unit u of |sum_a b_a u^a| for one homogeneous degree block
    with exponent rows E, given the monomials M of the unit directions dirs.

    The value is first the max over dirs: exact at d = 1, where the block
    is homogeneous and +-1 are the only unit directions, and the max over
    the 720-direction grid at d = 2.  Above d = 2, symmetric power
    iteration climbs from the best 3 of the 2000 directions until u moves
    by less than 1e-10 (at most 50 rounds), and the largest value seen is
    returned.
    """
    V = M @ b_rows
    sq = np.sum(V * V, axis=1)
    best = float(np.sqrt(np.max(sq)))
    d = E.shape[1]
    if d <= 2:
        return best
    # gradient of <w, p(u)> in u: d/du_j u^a = a_j u^(a - e_j)
    Ed = np.maximum(E - np.eye(d)[:, None, :], 0.0)
    for u in dirs[np.argsort(sq)[-3:]]:
        for _ in range(50):
            w = np.prod(u ** E, axis=1) @ b_rows
            nw = np.linalg.norm(w)
            best = max(best, float(nw))
            if nw == 0:
                break
            g = (E.T * np.prod(u ** Ed, axis=2)) @ (b_rows @ (w / nw))
            ng = np.linalg.norm(g)
            if ng == 0:
                break
            g /= ng
            moved = np.linalg.norm(g - u)
            u = g
            if moved < 1e-10:
                break
        best = max(best, float(np.linalg.norm(np.prod(u ** E, axis=1)
                                              @ b_rows)))
    return best


def _top_d_basis(M, d):
    w, vecs = np.linalg.eigh(M)
    gap = w[-d] - w[-d - 1] if len(w) > d else w[-d]
    if gap < 1e-12:
        raise ValueError("degenerate covariance: top-%d eigengap %.3e "
                         "below 1e-12" % (d, gap))
    return vecs[:, -d:][:, ::-1]


def fit_local_polynomial(cloud, base_index, h_tilde, cfg):
    """Tangent estimate at one base point of a PointCloud or EmbeddedCloud
    (any cloud with points, n and the intrinsic dimension d).

    Neighbors are the points at distance strictly between 0 and h_tilde
    from the base.  Starting from the local PCA plane, alternate between
    (a) least-squares fits of the normal residuals against monomials of
    the tangent coordinates for degrees 2..k-1, with every degree block
    radially rescaled onto the operator-norm cap when it exceeds it, and
    (b) re-extraction of the plane from the corrected points.  Iteration
    stops when the projector moves less than cfg.tol in operator norm,
    when the objective would increase (the step is rejected), or at
    cfg.max_iter.  At k = 2 there are no monomials, the correction is
    zero, and the fit is local PCA, done after one iteration.
    """
    d = cloud.d
    base = cloud.points[base_index]
    diff = cloud.points - base
    dist = np.linalg.norm(diff, axis=1)
    sel = (dist > 0) & (dist < h_tilde)
    Z = diff[sel]
    if Z.shape[0] < d + 1:
        raise ValueError("need at least %d neighbors strictly inside "
                         "radius %g of point %d, found %d"
                         % (d + 1, h_tilde, base_index, Z.shape[0]))
    t_cap = cfg.t_cap if cfg.t_cap is not None else 1.0 / h_tilde
    plan = _fit_plan(d, cfg.k)

    B = _top_d_basis(Z.T @ Z, d)
    prev_obj = np.inf
    iters = 0
    for it in range(cfg.max_iter):
        iters = it + 1
        xi = Z @ B
        rho = Z - xi @ B.T
        Phi = _features(xi, plan.E)
        b_new, *_ = np.linalg.lstsq(Phi, rho, rcond=None)
        for _, rows, M in plan.blocks:
            nrm = _poly_opnorm(b_new[rows], plan.E[rows], plan.dirs, M)
            if nrm > t_cap:
                b_new[rows] *= t_cap / nrm
        pred = Phi @ b_new
        obj = float(np.mean(np.sum((rho - pred) ** 2, axis=1)))
        if obj > prev_obj + 1e-12:
            iters -= 1
            break
        prev_obj = obj
        b = b_new
        Y = Z - pred
        B_new = _top_d_basis(Y.T @ Y, d)
        delta = np.linalg.svd(B_new @ B_new.T - B @ B.T,
                              compute_uv=False)[0]
        B = B_new
        if delta < cfg.tol:
            break

    # the first step is always accepted, so b is set
    return TangentEstimate(base_index=int(base_index),
                           projector=B @ B.T,
                           basis=B,
                           tensors={l: b[rows] for l, rows, _ in plan.blocks},
                           neighbor_count=int(Z.shape[0]),
                           iterations=iters)


TangentBatch = namedtuple("TangentBatch", "fits errors")


def estimate_tangents(cloud, base_indices, cfg, h_tilde=None):
    """Independent tangent fits at several base points.

    h_tilde defaults to the tangent_bandwidth rule at the cloud size.
    Failing fits do not abort the batch; they are collected by index in
    the errors dict.
    """
    if h_tilde is None:
        h_tilde = tangent_bandwidth(cloud.n, cloud.d, cfg)
    fits, errors = {}, {}
    for idx in base_indices:
        try:
            fits[idx] = fit_local_polynomial(cloud, idx, h_tilde, cfg)
        except ValueError as err:
            errors[idx] = str(err)
    return TangentBatch(fits=fits, errors=errors)


def subspace_angle(U, V):
    """sin of the largest principal angle between two d-dimensional
    subspaces given by orthonormal column bases.

    Computed as the largest singular value of U - V (V^T U), which equals
    sqrt(1 - sigma_min(U^T V)^2) but stays accurate for nearly identical
    subspaces.
    """
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    if U.shape != V.shape:
        raise ValueError("subspace bases must share a shape")
    for M in (U, V):
        if np.max(np.abs(M.T @ M - np.eye(M.shape[1]))) > 1e-8:
            raise ValueError("basis columns must be orthonormal")
    resid = U - V @ (V.T @ U)
    s = np.linalg.norm(resid, 2)
    return float(min(max(s, 0.0), 1.0))
