"""Diffusion-map coordinates: time and truncation-slack selection, the
scaled spectral embedding, and alignment-aware error against reference
embeddings."""

from dataclasses import dataclass

import numpy as np

from .bounds import eps_cap
from .geometry import embedding_scale
from .spectral import _procrustes


@dataclass
class EmbeddingParams:
    t: float
    m: int
    eps: float
    eps_prime: float
    d: int
    kappa: float
    iota: float

    def __post_init__(self):
        if self.t <= 0:
            raise ValueError("diffusion time must be positive")
        if self.m < self.d:
            raise ValueError("embedding dimension m must be >= d")
        if self.eps is not None:
            cap = eps_cap(self.d)
            if not 0 < self.eps <= cap + 1e-12:
                raise ValueError("eps must lie in (0, %.6f] for d=%d"
                                 % (cap, self.d))
        if self.eps_prime is not None and self.eps_prime <= 0:
            raise ValueError("eps_prime must be positive")


@dataclass
class EmbeddedCloud:
    points: np.ndarray
    params: EmbeddingParams
    provenance: tuple = None   # (n, h, seed)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if not np.all(np.isfinite(self.points)):
            raise ValueError("non-finite embedded coordinates")

    @property
    def n(self):
        return self.points.shape[0]


def select_diffusion_time(t0, iota):
    """t = min(t0, 4, iota^2/4)."""
    if t0 <= 0 or iota <= 0:
        raise ValueError("t0 and iota must be positive")
    return float(min(t0, 4.0, iota * iota / 4.0))


def select_eps_prime(t, d, kappa):
    """Kernel-truncation slack
    eps' = (4 pi t)^(-d/2)/8 * exp(-beta^2 t/4 - 2 sqrt(3 d t) beta / 3)
    with beta = sqrt(kappa) (d-1)."""
    if t <= 0:
        raise ValueError("time must be positive")
    beta = np.sqrt(kappa) * (d - 1)
    return float((4 * np.pi * t) ** (-d / 2.0) / 8.0
                 * np.exp(-beta**2 * t / 4.0
                          - 2.0 * np.sqrt(3.0 * d * t) * beta / 3.0))


def embed_points(spec, params, provenance=None):
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
    return EmbeddedCloud(points=pts, params=params, provenance=provenance)


def embedding_error(est, oracle, clusters):
    """Sup over points of the Euclidean distance between two embeddings
    after per-cluster orthogonal alignment.

    clusters lists groups of coordinate indices sharing an eigenvalue; each
    block of estimated coordinates is rotated onto the reference block by
    Procrustes (a sign flip when the block is a single coordinate).
    """
    E = np.asarray(getattr(est, "points", est), dtype=float)
    T = np.asarray(getattr(oracle, "points", oracle), dtype=float)
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
