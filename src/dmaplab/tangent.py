"""Tangent-space estimation on point clouds by constrained local
polynomial fits: a PCA-seeded alternating minimization over (projector,
correction tensors) with operator-norm caps, plus the subspace angle
metric and the sample-size / bandwidth rules for the estimator.  The caps
take geometry's _opnorms, the lab's one sup over unit directions."""

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations_with_replacement
from math import floor

import numpy as np
from scipy.spatial import cKDTree

from .geometry import _UGRID, _check_domain, _features, _frozen, _opnorms
from .graph import _spread


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
        _check_domain(k=self.k, bandwidth_const=self.bandwidth_const,
                      t_cap=self.t_cap, max_iter=self.max_iter, tol=self.tol,
                      f_min=self.f_min, f_max=self.f_max)
        if self.f_min > self.f_max:
            raise ValueError("need f_min <= f_max")


@dataclass
class TangentEstimate:
    base_index: int
    basis: np.ndarray
    tensors: dict            # degree l -> (n_monomials, m) coefficient rows
    neighbor_count: int
    iterations: int

    @property
    def projector(self):
        return self.basis @ self.basis.T


SubsampleSize = namedtuple("SubsampleSize", "size theoretical")


def subsample_size(n, d, k, min_size=10):
    """Estimator subsample size n^(d/((8d+16)k)), floored and clamped below
    by min_size; the exact theoretical value is returned alongside."""
    _check_domain(n=n, d=d, k=k, min_size=min_size)
    if n < 2:
        raise ValueError("need n >= 2")
    theo = float(n) ** (d / ((8.0 * d + 16.0) * k))
    return SubsampleSize(size=max(int(floor(theo)), min_size),
                         theoretical=theo)


def tangent_bandwidth(n_eff, d, cfg):
    """Fit radius (C f_max^2 log(n)/(f_min^3 (n-1)))^(1/d) with C the
    configured bandwidth constant."""
    _check_domain(n_eff=n_eff, d=d)
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


_FitPlan = namedtuple("FitPlan", "expos E dirs blocks")


@lru_cache(maxsize=None)
def _fit_plan(d, k):
    """Constants shared by every fit at input dimension d and order k.

    expos lists the (degree, exponent) pairs of degrees 2..k-1 (none at
    k = 2) and E holds them as a float array; blocks gives, per degree l,
    its row slice of E and the monomials of the fixed unit directions dirs
    of _opnorms (the single direction 1 at d = 1, the 720-angle grid at
    d = 2, 2000 seeded normals otherwise).  Arrays are read-only.
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


def _top_d_basis(M, d):
    """Top-d eigenvectors, largest first, of each matrix in a stack of
    symmetric (D, D) matrices, and each one's top-d eigengap."""
    w, vecs = np.linalg.eigh(M)
    gap = w[:, -d] - w[:, -d - 1] if w.shape[1] > d else w[:, -d]
    return vecs[:, :, -d:][:, :, ::-1], gap


def _lstsq(Phi, rho, rows):
    """Stacked least squares min |Phi b - rho| by SVD, with numpy lstsq's
    cutoff: singular values s <= eps * max(rows, p) * s_max count as zero,
    rows being each system's true row count (zero rows that pad a system
    change none of its singular values)."""
    if Phi.shape[2] == 0:
        return np.zeros((Phi.shape[0], 0, rho.shape[2]))
    U, s, Vt = np.linalg.svd(Phi, full_matrices=False)
    cut = np.finfo(float).eps * np.maximum(rows, Phi.shape[2]) * s[:, 0]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > cut[:, None])
    return Vt.transpose(0, 2, 1) @ (inv[:, :, None]
                                    * (U.transpose(0, 2, 1) @ rho))


def _cap(b, plan, t_cap):
    """Scale each degree block of the stacked coefficients b whose operator
    norm (_opnorms) exceeds t_cap radially back onto it, in place."""
    for l, rows, M in plan.blocks:
        blk = b[:, rows]
        nrm = _opnorms(blk, l, plan.E[rows], plan.dirs, M)
        over = nrm > t_cap
        blk[over] *= (t_cap / nrm[over])[:, None, None]


# base points fitted together in one stack; it bounds the padded arrays of
# one stack, and each worker of _spread fits a contiguous run of whole
# stacks.  Against one worker on 64-member stacks, the benchmark's
# tangent-study workload on two vCPUs took 13% less wall_s on 64-member
# stacks (+1.4% peak RSS), as short stacked calls hand the GIL back and
# forth, 24% less on 96 (+3.6%) and 26-32% less on 128 (+6.2%).
_CHUNK = 128


def _neighbors(tree, points, centers, h_tilde):
    """For each center index, the ascending indices of the points at
    distance strictly between 0 and h_tilde from it.  The tree proposes the
    points within a relative 1e-9 above h_tilde, far more than the few ulps
    by which its distances and np.linalg.norm can differ, and the norm
    decides."""
    cands = tree.query_ball_point(points[centers], h_tilde * (1 + 1e-9),
                                  return_sorted=True)
    sizes = [len(c) for c in cands]
    idx = np.fromiter(chain.from_iterable(cands), dtype=np.intp,
                      count=sum(sizes))
    owner = np.repeat(np.arange(len(sizes)), sizes)
    diff = points[idx]
    diff -= points[np.asarray(centers)[owner]]
    dist = np.linalg.norm(diff, axis=1)
    keep = (dist > 0) & (dist < h_tilde)
    kept = np.bincount(owner[keep], minlength=len(sizes))
    return np.split(idx[keep], np.cumsum(kept)[:-1])


def _step(Z, live, B, counts, plan, t_cap):
    """One alternating step of the live members of a stack with padded
    offsets Z and bases B: their objectives, capped tensors, and the
    Gram matrices Y^T Y of their corrected points Y.  Its temporaries,
    each the size of Z, are written in place and die on return."""
    rows = counts[live]
    Zl = Z if live.size == len(Z) else Z[live, :rows.max()]
    Bl = B[live]
    xi = Zl @ Bl
    rho = xi @ Bl.transpose(0, 2, 1)
    np.subtract(Zl, rho, out=rho)
    Phi = _features(xi, plan.E)
    b_new = _lstsq(Phi, rho, rows)
    _cap(b_new, plan, t_cap)
    pred = Phi @ b_new
    np.square(np.subtract(rho, pred, out=rho), out=rho)
    Y = np.subtract(Zl, pred, out=pred)
    return np.sum(rho, axis=(1, 2)) / rows, b_new, Y.transpose(0, 2, 1) @ Y


def _fit_chunk(points, d, centers, nbrs, h_tilde, cfg):
    """Fit the base points centers, with neighbour indices nbrs, together;
    returns base index -> TangentEstimate, or the error message.

    Zero rows pad each neighbourhood to the largest; they add nothing to
    Z^T Z, to the features or to the residual, so only the objective's
    mean needs each true count.  Every iteration works on the members
    still active, which leave as the per-point fit would stop."""
    out, members = {}, []
    for c, nb in zip(centers, nbrs):
        if len(nb) < d + 1:
            out[c] = ("need at least %d neighbors strictly inside radius %g "
                      "of point %d, found %d" % (d + 1, h_tilde, c, len(nb)))
        else:
            members.append((c, nb))
    if not members:
        return out
    a = len(members)
    counts = np.array([len(nb) for _, nb in members])
    Z = np.zeros((a, counts.max(), points.shape[1]))
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    Z[np.repeat(np.arange(a), counts), np.arange(counts.sum()) - starts] = (
        points[np.concatenate([nb for _, nb in members])]
        - np.repeat(points[[c for c, _ in members]], counts, axis=0))
    t_cap = cfg.t_cap if cfg.t_cap is not None else 1.0 / h_tilde
    plan = _fit_plan(d, cfg.k)
    active = np.ones(a, dtype=bool)

    def degenerate(live, gap):
        # drops the members whose top-d eigengap is below 1e-12
        bad = gap < 1e-12
        for j, g in zip(live[bad], gap[bad]):
            out[members[j][0]] = ("degenerate covariance: top-%d eigengap "
                                  "%.3e below 1e-12" % (d, g))
        active[live[bad]] = False
        return ~bad

    B, gap = _top_d_basis(Z.transpose(0, 2, 1) @ Z, d)
    degenerate(np.arange(a), gap)
    b = np.zeros((a, plan.E.shape[0], Z.shape[2]))
    prev_obj = np.full(a, np.inf)
    iters = np.zeros(a, dtype=int)
    for it in range(cfg.max_iter):
        live = np.flatnonzero(active)
        if not live.size:
            break
        obj, b_new, G = _step(Z, live, B, counts, plan, t_cap)
        # a rejected step ends the fit with the previous plane and tensors
        ok = ~(obj > prev_obj[live] + 1e-12)
        if not ok.all():
            active[live[~ok]] = False
            live, obj, b_new, G = live[ok], obj[ok], b_new[ok], G[ok]
        iters[live] = it + 1
        prev_obj[live] = obj
        b[live] = b_new
        B_new, gap = _top_d_basis(G, d)
        ok = degenerate(live, gap)
        Bl = B[live]
        delta = np.linalg.svd(B_new @ B_new.transpose(0, 2, 1)
                              - Bl @ Bl.transpose(0, 2, 1),
                              compute_uv=False)[:, 0]
        B[live[ok]] = B_new[ok]
        active[live[ok & (delta < cfg.tol)]] = False

    for j, (c, _) in enumerate(members):
        if c not in out:
            out[c] = TangentEstimate(
                base_index=int(c), basis=B[j],
                tensors={l: b[j, rows] for l, rows, _ in plan.blocks},
                neighbor_count=int(counts[j]), iterations=int(iters[j]))
    return out


def fit_local_polynomial(cloud, base_index, h_tilde, cfg):
    """Tangent estimate at one base point of a PointCloud or EmbeddedCloud:
    estimate_tangents over that point alone, raising its error as a
    ValueError."""
    batch = estimate_tangents(cloud, [base_index], cfg, h_tilde)
    if batch.errors:
        raise ValueError(batch.errors[base_index])
    return batch.fits[base_index]


TangentBatch = namedtuple("TangentBatch", "fits errors")


def estimate_tangents(cloud, base_indices, cfg, h_tilde=None):
    """Independent tangent estimates at several base points of a PointCloud
    or EmbeddedCloud (any cloud with points, n and the intrinsic dimension
    d), as a TangentBatch of fits and errors by base index, both in the
    order of base_indices.

    Neighbors are the points at distance strictly between 0 and h_tilde
    from the base; h_tilde defaults to the tangent_bandwidth rule at the
    cloud size.  Starting from the local PCA plane, alternate between
    (a) least-squares fits of the normal residuals against monomials of
    the tangent coordinates for degrees 2..k-1, with every degree block
    radially rescaled onto the operator-norm cap when it exceeds it, and
    (b) re-extraction of the plane from the corrected points.  Iteration
    stops when the projector moves less than cfg.tol in operator norm,
    when the objective would increase (the step is rejected), or at
    cfg.max_iter.  At k = 2 there are no monomials, the correction is
    zero, and the fit is local PCA, done after one iteration.  A base point
    with fewer than d + 1 neighbors or a degenerate covariance lands in
    errors and does not abort the batch.

    One k-d tree over the cloud finds every neighbourhood, and the base
    points are fitted in stacks of _CHUNK = 128 with stacked linear
    algebra, each worker of graph._spread fitting a contiguous run of whole
    stacks; each fit is the same, up to rounding, whichever points share
    its stack, and the same bit for bit at any worker count.
    """
    _check_domain(h_tilde=h_tilde)
    if h_tilde is None:
        h_tilde = tangent_bandwidth(cloud.n, cloud.d, cfg)
    base_indices = list(base_indices)
    points, d = cloud.points, cloud.d
    tree = cKDTree(points)
    _fit_plan(d, cfg.k)                 # cached here, read by the workers

    def fit(stacks):
        done = {}
        for stack in stacks:
            done.update(_fit_chunk(points, d, stack,
                                   _neighbors(tree, points, stack, h_tilde),
                                   h_tilde, cfg))
        return done

    done = {}
    for part in _spread(fit, [base_indices[s:s + _CHUNK] for s in
                              range(0, len(base_indices), _CHUNK)]):
        done.update(part)
    fits = {i: done[i] for i in base_indices
            if isinstance(done[i], TangentEstimate)}
    errors = {i: done[i] for i in base_indices if isinstance(done[i], str)}
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
        G = M.T @ M
        G.flat[::G.shape[0] + 1] -= 1.0
        if np.max(np.abs(G)) > 1e-8:
            raise ValueError("basis columns must be orthonormal")
    resid = U - V @ (V.T @ U)
    # the spectral norm, as norm(resid, 2) takes it: singular values sort
    # in descending order
    s = np.linalg.svd(resid, compute_uv=False)[0]
    return float(min(max(s, 0.0), 1.0))
