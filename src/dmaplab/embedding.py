"""Diffusion-map coordinates: time and truncation-slack selection, the
scaled spectral embedding, and alignment-aware error against reference
embeddings.  The coordinates depend on the time t and the truncation
index m alone; the slacks eps and eps' enter only the bounds."""

from dataclasses import dataclass

import numpy as np

from .bounds import heat_lower_diag
from .geometry import _check_domain, embedding_scale
from .spectral import _procrustes


@dataclass
class EmbeddingParams:
    t: float
    m: int
    d: int

    def __post_init__(self):
        _check_domain(d=self.d, t=self.t, m=self.m)
        if self.m < self.d:
            raise ValueError("embedding dimension m must be >= d")


@dataclass
class EmbeddedCloud:
    points: np.ndarray
    params: EmbeddingParams

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if not np.all(np.isfinite(self.points)):
            raise ValueError("non-finite embedded coordinates")

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def d(self):
        return self.params.d


def select_diffusion_time(t0, iota):
    """t = min(t0, 4, iota^2/4)."""
    _check_domain(t0=t0, iota=iota)
    return float(min(t0, 4.0, iota * iota / 4.0))


def select_eps_prime(t, d, kappa):
    """Kernel-truncation slack eps' = heat_lower_diag(t, d, kappa) / 8, an
    eighth of the on-diagonal heat kernel lower bound
    (4 pi t)^(-d/2) exp(-beta^2 t/4 - 2 sqrt(3d) beta sqrt(t)/3),
    beta = sqrt(kappa) (d-1)."""
    return heat_lower_diag(t, d, kappa) / 8.0


def embed_points(spec, params):
    """Spectral coordinates scale(t, d) * e^(-mu_i t / 2) * v_i(x_j) for
    i = 1..m, dropping the constant index-0 pair."""
    if spec.vec_norm is None:
        raise ValueError("embedding needs density-normalized eigenvectors; "
                         "solve with ball counts attached")
    if params.m > spec.m:
        raise ValueError("m=%d exceeds available %d eigenpairs"
                         % (params.m, spec.m))
    t = params.t
    damp = embedding_scale(t, params.d) * np.exp(-spec.mu[1:params.m + 1] * t / 2.0)
    pts = spec.vec_norm[:, 1:params.m + 1] * damp[None, :]
    return EmbeddedCloud(points=pts, params=params)


def embedding_error(est, oracle, clusters):
    """Sup over points of the Euclidean distance between two embeddings
    after per-cluster orthogonal alignment.

    clusters lists groups of coordinate indices sharing an eigenvalue; each
    block of estimated coordinates is rotated onto the reference block by
    Procrustes (a sign flip when the block is a single coordinate).
    """
    E = np.asarray(est, dtype=float)
    T = np.asarray(oracle, dtype=float)
    if E.shape != T.shape:
        raise ValueError("embeddings differ in shape")
    m = E.shape[1]
    cols = sorted(c for g in clusters for c in g)
    if cols != list(range(m)):
        raise ValueError("cluster structure must cover every coordinate "
                         "exactly once")
    A = np.empty_like(E)
    for g in clusters:
        g = list(g)
        A[:, g] = E[:, g] @ _procrustes(E[:, g], T[:, g])[0]
    return float(np.max(np.linalg.norm(A - T, axis=1)))
