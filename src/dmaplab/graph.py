"""Kernel affinity matrices, degrees, the normalized graph Laplacian, and
neighborhood ball counts for point clouds."""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

# rows of every row-block pass over W.  A 16-row block (512 KB at n = 4000)
# stays in L2 through all steps of the kernel pass, and its temporaries stay
# small (256-row blocks raised the peak RSS by 6 MiB, as malloc kept their
# 8 MB temporaries on the heap); the division pass took 13 ms in 16-row
# blocks against 16 ms in 64-row ones.  Tile side of the asymmetry check:
# 128 was the fastest of 64, 128, 256 and 512 at n = 4000.  With 64 for
# both the sweeps and the tiles, a run_pipeline call at n = 4000 took 4-9%
# longer (one BLAS thread).
_ROWS = 16
_TILE = 128


@dataclass
class KernelConfig:
    h: float
    n: int
    d: int

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("bandwidth must be positive")
        if self.n < 2:
            raise ValueError("need at least two points")


@dataclass
class LaplacianSystem:
    """Density-normalized affinity W (the only n x n array kept), degrees,
    and L = (D^-1 W - I)/h^2, derived from W and the degrees on each access.

    ball_counts and d, when known, serve the l2(1/p-hat) eigenvector
    normalization; system_from_cloud always fills them.
    """

    W: np.ndarray
    degree: np.ndarray
    h: float
    ball_counts: np.ndarray = None
    d: int = None

    @property
    def n(self):
        return self.W.shape[0]

    @property
    def L(self):
        L = self.W / self.degree[:, None]
        L[np.diag_indices_from(L)] -= 1.0
        return np.divide(L, self.h * self.h, out=L)


def _blocks(n, size):
    """Slices of size consecutive indices covering range(n)."""
    return [slice(i, min(i + size, n)) for i in range(0, n, size)]


def _asymmetry(W):
    """max |W - W^T|, taken over the tile pairs that cover the upper
    triangle, without an n x n temporary."""
    tiles = _blocks(W.shape[0], _TILE)
    return max(np.max(np.abs(W[I, J] - W[J, I].T))
               for k, I in enumerate(tiles) for J in tiles[k:])


def _row_stats(W):
    """W.sum(axis=1), W.max() and W.min() of a finite W, bit for bit, from
    one pass over row blocks."""
    deg = np.empty(W.shape[0])
    hi, lo = -np.inf, np.inf
    for b in _blocks(W.shape[0], _ROWS):
        rows = W[b]
        deg[b] = rows.sum(axis=1)
        hi = max(hi, rows.max())
        lo = min(lo, rows.min())
    return deg, hi, lo


def bandwidth(n, d):
    """Kernel bandwidth rule h = (log n / n)^(1/(4d+13))."""
    if n < 3:
        raise ValueError("bandwidth rule needs n >= 3")
    return float((np.log(n) / n) ** (1.0 / (4 * d + 13)))


def gaussian_kernel(x, y, h):
    """exp(-|x-y|^2 / (4 h^2))."""
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("dimension mismatch between points")
    diff = x - y
    return float(np.exp(-(diff @ diff) / (4.0 * h * h)))


def build_affinity(cloud, h):
    """Density-normalized affinity of a cloud.

    Returns (W, q) with q_i = sum_j k_h(x_i, x_j) (self term included) and
    W_ij = k_h(x_i, x_j) / (q_i q_j), built in place over row blocks (peak:
    W and one block of rows).  The kernel and q take one pass over W, the
    division by q_i q_j a second.
    """
    x = cloud.points
    if x.shape[0] < 2:
        raise ValueError("need at least two points")
    sq = np.sum(x * x, axis=1)
    W = x @ x.T
    q = np.empty(W.shape[0])
    for b in _blocks(W.shape[0], _ROWS):
        K = W[b]
        # (-2 g) + s is s - 2 g bit for bit: scaling by -2 is exact
        K *= -2.0
        K += sq[b, None] + sq[None, :]
        np.maximum(K, 0.0, out=K)
        K /= -4.0 * h * h
        np.exp(K, out=K)
        q[b] = K.sum(axis=1)
    for b in _blocks(W.shape[0], _ROWS):
        W[b] /= np.outer(q[b], q)
    return W, q


def laplacian(W, h, ball_counts=None, d=None):
    """Checked system of W and its degrees; the normalized graph Laplacian
    L = (D^-1 W - I) / h^2 is derived from them on access.

    W must be finite and symmetric with positive diagonal; rows of L sum to
    zero and -L is PSD (it is conjugate to a symmetric PSD form).
    """
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError("W must be square")
    deg, hi, lo = _row_stats(W)
    if not np.isfinite(deg).all():
        raise ValueError("W must be finite")
    if _asymmetry(W) > 1e-12 * max(1.0, hi, -lo):
        raise ValueError("W must be symmetric")
    if np.any(np.diag(W) <= 0):
        raise ValueError("W needs a positive diagonal")
    if np.any(deg <= 0):
        raise ValueError("zero-degree row in W")
    if ball_counts is not None:
        ball_counts = np.asarray(ball_counts)
        if np.any(ball_counts < 1):
            raise ValueError("ball counts must be >= 1")
    return LaplacianSystem(W=W, degree=deg, h=h,
                           ball_counts=ball_counts, d=d)


def ball_counts(cloud, h):
    """Number of sample points strictly within distance h of each point,
    the center itself included."""
    x = cloud.points
    tree = cKDTree(x)
    # query_ball_point includes the boundary; shrink to make the ball open
    r = np.nextafter(h, 0.0)
    counts = tree.query_ball_point(x, r, return_length=True)
    return np.asarray(counts, dtype=int)


def system_from_cloud(cloud, h=None):
    """Full Laplacian assembly for a cloud: bandwidth rule (unless h is
    given), affinity, degrees, and ball counts."""
    if h is None:
        h = bandwidth(cloud.n, cloud.d)
    W, _ = build_affinity(cloud, h)
    counts = ball_counts(cloud, h)
    return laplacian(W, h, ball_counts=counts, d=cloud.d)
