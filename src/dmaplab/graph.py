"""Kernel affinity matrices, degrees, the normalized graph Laplacian, and
neighborhood ball counts for point clouds."""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsyrk
from scipy.spatial import cKDTree

from .geometry import _check_domain

# rows of every row-block pass over W.  A 16-row block (512 KB at n = 4000)
# stays in L2 through all steps of the kernel pass, and its temporaries stay
# small (256-row blocks raised the peak RSS by 6 MiB, as malloc kept their
# 8 MB temporaries on the heap); the division pass took 13 ms in 16-row
# blocks against 16 ms in 64-row ones.  Each worker of _spread takes a
# contiguous run of whole blocks, so a block is computed the same way at any
# worker count.  Tile side of the Gram mirror and the asymmetry check: 128
# was the fastest of 64, 128, 256 and 512 at n = 4000 for the check; the
# whole Gram build took 81-84 ms in 128-wide tiles, 81-85 ms in 256-wide
# and 104-116 ms in 64-wide ones (one worker).  With 64 for both the sweeps
# and the tiles, a run_pipeline call at n = 4000 took 4-9% longer (one BLAS
# thread, one worker).
_ROWS = 16
_TILE = 128
_BELOW = np.tri(_TILE, k=-1, dtype=bool)     # strict lower triangle of a tile


def _cpus():
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity mask on this platform
        return os.cpu_count() or 1


def _spread(fn, items):
    """[fn(share) for share in shares]: items cut into contiguous, nonempty
    shares, one per CPU this process may run on (at most len(items)), each
    run on a thread of its own that is joined before _spread returns or
    raises.  fn must not call a public dmaplab function: the span tracer of
    perfbench keeps one span stack, for the calling thread."""
    k = min(_cpus(), len(items))
    shares = [items[len(items) * i // k:len(items) * (i + 1) // k]
              for i in range(k)]
    with ThreadPoolExecutor(max_workers=max(k, 1),
                            thread_name_prefix="dmaplab") as pool:
        return list(pool.map(fn, shares))


@dataclass
class KernelConfig:
    h: float
    n: int
    d: int

    def __post_init__(self):
        _check_domain(h=self.h, n=self.n, d=self.d)
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


def _residuals(system, V, mu):
    """-L V - V diag(mu) from products with W: -L V = (V - (W V)/deg)/h^2.
    Each worker takes W V over a run of whole _ROWS blocks, so every share
    but the last starts on a multiple of 16 rows and BLAS groups the rows as
    in the whole product (split at arbitrary rows, W 1 moved in its last
    bits at n = 130 and 300)."""
    W = system.W
    WV = np.empty((system.n, V.shape[1]))

    def rows(blocks):
        r = slice(blocks[0].start, blocks[-1].stop)
        np.matmul(W[r], V, out=WV[r])

    _spread(rows, _blocks(system.n, _ROWS))
    return (V - WV / system.degree[:, None]) / system.h**2 - V * mu


def _blocks(n, size):
    """Slices of size consecutive indices covering range(n)."""
    return [slice(i, min(i + size, n)) for i in range(0, n, size)]


def _upper_tiles(n):
    """Tile pairs (I, J), I <= J, that cover the upper triangle of an n x n
    array, in row-major order."""
    tiles = _blocks(n, _TILE)
    return [(I, J) for k, I in enumerate(tiles) for J in tiles[k:]]


def _gram(x):
    """x @ x.T, bit for bit, for a C-ordered x: the BLAS syrk call numpy
    makes for it (on x.T, which is Fortran-ordered), which fills the upper
    triangle, then the lower one mirrored tile by tile.  numpy mirrors it
    element by element along whole columns: 66 ms of its 111 ms at
    n = 4000, one BLAS thread."""
    G = dsyrk(1.0, x.T, trans=1, lower=1).T

    def mirror(pairs):
        for I, J in pairs:
            if I == J:
                T = G[I, I]
                k = T.shape[0]
                np.copyto(T, T.T, where=_BELOW[:k, :k])
            else:
                # transposing a contiguous copy of the tile reads 128 KB, not
                # 128 rows of G: 38 ms against 55 ms at n = 4000, one worker
                G[J, I] = G[I, J].copy().T

    _spread(mirror, _upper_tiles(G.shape[0]))
    return G


def _asymmetry(W):
    """max |W - W^T|, taken over the tile pairs that cover the upper
    triangle, without an n x n temporary."""
    def share_max(pairs):
        return max(np.max(np.abs(W[I, J] - W[J, I].T)) for I, J in pairs)

    return max(_spread(share_max, _upper_tiles(W.shape[0])))


def _row_stats(W):
    """W.sum(axis=1), W.max() and W.min() of a finite W, bit for bit, from
    one pass over row blocks."""
    deg = np.empty(W.shape[0])

    def stats(blocks):
        hi, lo = -np.inf, np.inf
        for b in blocks:
            rows = W[b]
            deg[b] = rows.sum(axis=1)
            hi = max(hi, rows.max())
            lo = min(lo, rows.min())
        return hi, lo

    his, los = zip(*_spread(stats, _blocks(W.shape[0], _ROWS)))
    return deg, max(his), min(los)


def bandwidth(n, d):
    """Kernel bandwidth rule h = (log n / n)^(1/(4d+13))."""
    _check_domain(n=n, d=d)
    if n < 3:
        raise ValueError("bandwidth rule needs n >= 3")
    return float((np.log(n) / n) ** (1.0 / (4 * d + 13)))


def gaussian_kernel(x, y, h):
    """exp(-|x-y|^2 / (4 h^2))."""
    _check_domain(h=h)
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
    W and one block of rows per worker).  The Gram matrix x x^T takes one
    pass over W, the kernel and q a second, the division by q_i q_j a third.
    """
    _check_domain(h=h)
    x = cloud.points
    if x.shape[0] < 2:
        raise ValueError("need at least two points")
    sq = np.sum(x * x, axis=1)
    W = _gram(x)
    q = np.empty(W.shape[0])

    def kernel(blocks):
        for b in blocks:
            K = W[b]
            # (-2 g) + s is s - 2 g bit for bit: scaling by -2 is exact
            K *= -2.0
            K += sq[b, None] + sq[None, :]
            np.maximum(K, 0.0, out=K)
            K /= -4.0 * h * h
            np.exp(K, out=K)
            q[b] = K.sum(axis=1)

    def divide(blocks):
        for b in blocks:
            W[b] /= np.outer(q[b], q)

    blocks = _blocks(W.shape[0], _ROWS)
    _spread(kernel, blocks)
    _spread(divide, blocks)
    return W, q


def laplacian(W, h, ball_counts=None, d=None):
    """Checked system of W and its degrees; the normalized graph Laplacian
    L = (D^-1 W - I) / h^2 is derived from them on access.

    W must be finite and symmetric with positive diagonal; rows of L sum to
    zero and -L is PSD (it is conjugate to a symmetric PSD form).
    """
    _check_domain(h=h, d=d)
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
    _check_domain(h=h)
    x = cloud.points
    tree = cKDTree(x)
    # query_ball_point includes the boundary; shrink to make the ball open
    r = np.nextafter(h, 0.0)
    # as many query threads as _spread has shares
    counts = tree.query_ball_point(x, r, return_length=True,
                                   workers=_cpus())
    return np.asarray(counts, dtype=int)


def system_from_cloud(cloud, h=None):
    """Full Laplacian assembly for a cloud: bandwidth rule (unless h is
    given), affinity, degrees, and ball counts."""
    if h is None:
        h = bandwidth(cloud.n, cloud.d)
    W, _ = build_affinity(cloud, h)
    counts = ball_counts(cloud, h)
    return laplacian(W, h, ball_counts=counts, d=cloud.d)
