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

    expos lists the (degree, exponent) pairs of degrees 2..k-1 and E holds
    them as a float array; blocks gives, per degree l, its row slice of E
    and the monomials of the fixed unit directions dirs (the 720-angle grid
    at d = 2, 2000 seeded normals otherwise).  Arrays are read-only.
    """
    expos = tuple(monomial_exponents(d, range(2, k)))
    E = _frozen(np.array([e for _, e in expos], dtype=float).reshape(-1, d))
    u = np.random.default_rng(0).standard_normal((2000, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    dirs = _UGRID if d == 2 else _frozen(u)
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

    Exact for d=1; the max over the 720-direction grid for d=2.  For higher
    input dimension, symmetric power iteration (50 rounds) climbs from the
    best 3 of the 2000 directions, and the largest value seen is returned.
    """
    d = E.shape[1]
    if d == 1:
        return float(np.linalg.norm(b_rows.sum(axis=0)))
    V = M @ b_rows
    sq = np.sum(V * V, axis=1)
    best = float(np.sqrt(np.max(sq)))
    if d == 2:
        return best
    # higher-order power method on the symmetric form <w, A(u,...,u)>
    for u in dirs[np.argsort(sq)[-3:]]:
        for _ in range(50):
            mono = np.prod(u ** E, axis=1)
            w = mono @ b_rows
            nw = np.linalg.norm(w)
            best = max(best, float(nw))
            if nw == 0:
                break
            w /= nw
            # gradient of <w, p(u)> in u
            g = np.zeros(d)
            coef = b_rows @ w
            for j in range(d):
                ej = E[:, j]
                mask = ej > 0
                if not np.any(mask):
                    continue
                Ed = E[mask].copy()
                Ed[:, j] -= 1.0
                g[j] = np.sum(coef[mask] * ej[mask]
                              * np.prod(u ** Ed, axis=1))
            ng = np.linalg.norm(g)
            if ng == 0:
                break
            u = g / ng
        mono = np.prod(u ** E, axis=1)
        best = max(best, float(np.linalg.norm(mono @ b_rows)))
    return best


def _cloud_points(cloud):
    return np.asarray(getattr(cloud, "points", cloud), dtype=float)


def _cloud_dim(cloud):
    d = getattr(cloud, "d", None)
    if d is None:
        params = getattr(cloud, "params", None)
        d = getattr(params, "d", None)
    if d is None:
        raise ValueError("cloud does not carry an intrinsic dimension")
    return d


def _top_d_basis(M, d):
    w, vecs = np.linalg.eigh(M)
    gap = w[-d] - w[-d - 1] if len(w) > d else w[-d]
    if gap < 1e-12:
        raise ValueError("degenerate covariance: top-%d eigengap %.3e "
                         "below 1e-12" % (d, gap))
    return vecs[:, -d:][:, ::-1]


def fit_local_polynomial(cloud, base_index, h_tilde, cfg):
    """Tangent estimate at one base point.

    Neighbors are the points at distance strictly between 0 and h_tilde
    from the base.  Starting from the local PCA plane, alternate between
    (a) least-squares fits of the normal residuals against monomials of
    the tangent coordinates for degrees 2..k-1, with every degree block
    radially rescaled onto the operator-norm cap when it exceeds it, and
    (b) re-extraction of the plane from the corrected points.  Iteration
    stops when the projector moves less than cfg.tol in operator norm,
    when the objective would increase (the step is rejected), or at
    cfg.max_iter.
    """
    pts = _cloud_points(cloud)
    d = _cloud_dim(cloud)
    m = pts.shape[1]
    base = pts[base_index]
    diff = pts - base
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
    b = None
    iters = 0
    for it in range(cfg.max_iter):
        iters = it + 1
        xi = Z @ B
        rho = Z - xi @ B.T
        if plan.expos:
            Phi = _features(xi, plan.E)
            b_new, *_ = np.linalg.lstsq(Phi, rho, rcond=None)
            for _, rows, M in plan.blocks:
                nrm = _poly_opnorm(b_new[rows], plan.E[rows], plan.dirs, M)
                if nrm > t_cap:
                    b_new[rows] *= t_cap / nrm
            pred = Phi @ b_new
        else:
            b_new = None
            pred = 0.0
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

    tensors = {}
    if b is not None:
        for l, rows, _ in plan.blocks:
            tensors[l] = b[rows]
    return TangentEstimate(base_index=int(base_index),
                           projector=B @ B.T,
                           basis=B,
                           tensors=tensors,
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
        h_tilde = tangent_bandwidth(_cloud_points(cloud).shape[0],
                                    _cloud_dim(cloud), cfg)
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
