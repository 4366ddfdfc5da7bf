"""Synthetic manifold samplers and closed-form references on the unit sphere.

Provides uniform samplers for S^d and the standard torus, real spherical
harmonics up to degree 2, the truncated S^2 heat kernel, the scaled
heat-kernel coordinate embedding of S^2 into R^8 together with its tangent
frames, and a finite-difference second-fundamental-form sweep used to
measure the local reach of embedded surfaces.  _opnorms is the lab's one
sup over unit directions of a polynomial form: the sweep takes it of II,
the tangent estimator's cap of each correction tensor.  _check_domain is
the package's one rule, by name, for the values a scalar argument takes.
"""

from dataclasses import dataclass
from math import gamma

import numpy as np

__all__ = [
    "PointCloud",
    "ManifoldDescriptor",
    "TangentBasis",
    "sphere_area",
    "sample_sphere",
    "sample_torus",
    "true_tangent_sphere",
    "legendre_p",
    "real_sph_harmonic",
    "s2_harmonics",
    "s2_harmonic_gradients",
    "s2_heat_kernel",
    "s2_tail_sum",
    "embedding_scale",
    "s2_embedding_norm_sq",
    "s2_oracle_embedding",
    "s2_oracle_tangent",
    "second_fundamental_form",
    "local_reach_numeric",
    "pushforward_density",
]

# each scalar argument's domain, by its name, for every layer: whole numbers
# with their least value, open intervals, finite and >= 0; any other name is
# positive and finite.  None passes: the caller says when it needs the value.
_WHOLE = {"d": 1, "m": 0, "k": 2, "k_idx": 0, "n": 1, "l": 0, "l_max": 0,
          "l_start": 0, "l_stop": 0, "max_iter": 1, "grid": 32,
          "min_size": 1}
_OPEN = {"alpha1": (1, 2), "alpha2": (0, 1)}
_NONNEG = ("kappa", "kappa_neg", "dist", "s", "lam", "sigma", "tau_l")


def _check_domain(**args):
    """Refuse any argument outside the domain its name rules."""
    for name, v in args.items():
        if v is None:
            continue
        x = float(v)        # a whole number from the CLI may be a huge int
        if name in _WHOLE:
            rule, ok = ">= %d" % _WHOLE[name], x >= _WHOLE[name]
            if ok:
                rule, ok = "a whole number", x.is_integer()
        elif name in _OPEN:
            lo, hi = _OPEN[name]
            rule, ok = "in (%d, %d)" % (lo, hi), lo < x < hi
        elif name in _NONNEG:
            rule, ok = "finite and >= 0", 0 <= x < np.inf
        else:
            rule, ok = "positive and finite", 0 < x < np.inf
        if not ok:
            raise ValueError("%s must be %s, got %s" % (name, rule, v))


# eigenvalue of the sphere Laplacian for harmonic degree l
def _lam(l):
    return l * (l + 1.0)


@dataclass
class PointCloud:
    """n points in R^ambient_dim sampled from a d-dimensional manifold."""

    points: np.ndarray
    d: int
    ambient_dim: int
    seed: int

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if self.points.shape[1] != self.ambient_dim:
            raise ValueError("point width %d != ambient_dim %d"
                             % (self.points.shape[1], self.ambient_dim))
        _check_domain(d=self.d)
        if self.d > self.ambient_dim:
            raise ValueError("need d <= ambient_dim")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("non-finite coordinates in cloud")

    @property
    def n(self):
        return self.points.shape[0]


@dataclass
class ManifoldDescriptor:
    """Geometric constants of a manifold class: dimension, curvature bound
    kappa (Ricci >= -kappa(d-1)), reach and volume bounds, smoothness order,
    injectivity radius, diameter, and density bounds."""

    d: int
    kappa: float
    tau_min: float
    vol_lo: float
    vol_hi: float
    k: int
    iota: float
    diam: float
    f_min: float
    f_max: float

    def __post_init__(self):
        _check_domain(d=self.d, kappa=self.kappa, tau_min=self.tau_min,
                      vol_lo=self.vol_lo, vol_hi=self.vol_hi, k=self.k,
                      iota=self.iota, diam=self.diam, f_min=self.f_min,
                      f_max=self.f_max)
        if self.vol_lo > self.vol_hi:
            raise ValueError("need vol_lo <= vol_hi")
        if self.iota < np.pi * self.tau_min - 1e-12:
            raise ValueError("iota must be >= pi * tau_min")
        if self.f_min > self.f_max:
            raise ValueError("need f_min <= f_max")


@dataclass
class TangentBasis:
    """Orthonormal basis of a tangent space, stored as columns; a stack of
    them over leading axes (one per base point) when basis is 3-d."""

    base: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        self.base = np.asarray(self.base, dtype=float)
        self.basis = np.asarray(self.basis, dtype=float)
        gram = np.swapaxes(self.basis, -1, -2) @ self.basis
        if np.max(np.abs(gram - np.eye(self.basis.shape[-1]))) > 1e-12:
            raise ValueError("basis columns are not orthonormal")

    @property
    def projector(self):
        return self.basis @ np.swapaxes(self.basis, -1, -2)


def sphere_area(k):
    """Surface area of the unit k-sphere S^k in R^(k+1).

    sphere_area(1) = 2 pi, sphere_area(2) = 4 pi.  With this convention
    sphere_area(d-1) * h^d / d is the volume of a radius-h ball in R^d.
    """
    return 2.0 * np.pi ** ((k + 1) / 2.0) / gamma((k + 1) / 2.0)


def sample_sphere(n, d, seed):
    """Draw n i.i.d. uniform points on the unit sphere S^d in R^(d+1)."""
    _check_domain(n=n, d=d)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d + 1))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return PointCloud(points=x, d=d, ambient_dim=d + 1, seed=seed)


def sample_torus(n, R, r, seed):
    """Draw n area-uniform points on the torus of radii (R, r) in R^3.

    Rejection sampling in the minor angle compensates the area element
    R + r*cos(v); the reach of this surface is min(r, R - r).
    """
    _check_domain(n=n, R=R, r=r)
    if not r < R:
        raise ValueError("sample_torus needs r < R")
    rng = np.random.default_rng(seed)
    out = np.empty((n, 3))
    got = 0
    while got < n:
        m = max(2 * (n - got), 16)
        u = rng.uniform(0.0, 2 * np.pi, m)
        v = rng.uniform(0.0, 2 * np.pi, m)
        keep = rng.uniform(0.0, 1.0, m) < (R + r * np.cos(v)) / (R + r)
        u, v = u[keep], v[keep]
        take = min(len(u), n - got)
        cu, su = np.cos(u[:take]), np.sin(u[:take])
        cv, sv = np.cos(v[:take]), np.sin(v[:take])
        out[got:got + take, 0] = (R + r * cv) * cu
        out[got:got + take, 1] = (R + r * cv) * su
        out[got:got + take, 2] = r * sv
        got += take
    return PointCloud(points=out, d=2, ambient_dim=3, seed=seed)


def true_tangent_sphere(p):
    """Analytic tangent basis of S^d at p: an orthonormal completion of p
    restricted to the orthogonal complement of p."""
    p = np.asarray(p, dtype=float)
    if abs(np.linalg.norm(p) - 1.0) > 1e-12:
        raise ValueError("true_tangent_sphere needs a unit vector")
    D = p.shape[0]
    # Householder reflection mapping e_1 -> p gives an exactly orthogonal frame
    sign = 1.0 if p[0] >= 0 else -1.0
    w = p.copy()
    w[0] += sign
    H = np.eye(D) - 2.0 * np.outer(w, w) / (w @ w)
    basis = -sign * H[:, 1:]
    return TangentBasis(base=p, basis=basis)


def legendre_p(l, x):
    """Legendre polynomial P_l(x) on [-1, 1] by the three-term recurrence."""
    _check_domain(l=l)
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + 1e-14):
        raise ValueError("legendre_p defined on [-1, 1]")
    p_prev = np.ones_like(x)
    if l == 0:
        return p_prev if p_prev.ndim else float(p_prev)
    p = x.copy()
    for j in range(1, l):
        p, p_prev = ((2 * j + 1) * x * p - j * p_prev) / (j + 1), p
    return p if p.ndim else float(p)


# associated Legendre values P_l^m(cos theta) with Condon-Shortley phase,
# l <= 2 only (the oracle does not go higher)
def _assoc_legendre(l, m, ct, st):
    if (l, m) == (0, 0):
        return np.ones_like(ct)
    if (l, m) == (1, 0):
        return ct
    if (l, m) == (1, 1):
        return -st
    if (l, m) == (2, 0):
        return 0.5 * (3.0 * ct * ct - 1.0)
    if (l, m) == (2, 1):
        return -3.0 * ct * st
    if (l, m) == (2, 2):
        return 3.0 * st * st
    raise ValueError("unsupported (l, m)")


def real_sph_harmonic(l, m, theta, phi):
    """Real L^2(S^2)-normalized spherical harmonic Y_lm(theta, phi), l <= 2.

    Built from associated Legendre functions carrying the Condon-Shortley
    phase; the real combination includes the compensating (-1)^m, so e.g.
    Y_{1,1} = sqrt(3/4pi) sin(theta) cos(phi).
    """
    if l not in (0, 1, 2):
        raise ValueError("oracle harmonics support l in {0, 1, 2} only")
    if abs(m) > l:
        raise ValueError("order |m| must be <= l")
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    ct, st = np.cos(theta), np.sin(theta)
    am = abs(m)
    norm = np.sqrt((2 * l + 1) / (4 * np.pi)
                   * gamma(l - am + 1.0) / gamma(l + am + 1.0))
    plm = _assoc_legendre(l, am, ct, st)
    if m == 0:
        val = norm * plm
    elif m > 0:
        val = (-1.0) ** m * np.sqrt(2.0) * norm * plm * np.cos(m * phi)
    else:
        val = (-1.0) ** am * np.sqrt(2.0) * norm * plm * np.sin(am * phi)
    return val if val.ndim else float(val)


_SQ3 = np.sqrt(3.0 / (4.0 * np.pi))
_C2 = 0.5 * np.sqrt(15.0 / np.pi)
_C20 = 0.25 * np.sqrt(5.0 / np.pi)
_C22 = 0.25 * np.sqrt(15.0 / np.pi)


def s2_harmonics(points):
    """All eight degree-1 and degree-2 real harmonics at unit vectors.

    points: (..., 3) array on S^2.  Returns (..., 8) in the fixed order
    (l=1: m=-1,0,1; l=2: m=-2,...,2), i.e. Cartesian polynomials
    y, z, x, xy, yz, 3z^2-1, xz, x^2-y^2 with their L^2 constants.
    """
    p = np.asarray(points, dtype=float)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    return np.stack(
        [
            _SQ3 * y,
            _SQ3 * z,
            _SQ3 * x,
            _C2 * x * y,
            _C2 * y * z,
            _C20 * (3.0 * z * z - 1.0),
            _C2 * x * z,
            _C22 * (x * x - y * y),
        ],
        axis=-1,
    )


def s2_harmonic_gradients(points):
    """Ambient gradients of the homogeneous extensions of the 8 harmonics.

    Returns (..., 8, 3).  Restricted to tangent directions these give the
    surface gradients, hence the Jacobian of any harmonic-coordinate map.
    The degree-2 entries use the harmonic (trace-free) extensions, e.g.
    3z^2 - 1 extends to 2z^2 - x^2 - y^2.
    """
    p = np.asarray(points, dtype=float)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    zero = np.zeros_like(x)
    rows = [
        [zero, _SQ3 + zero, zero],
        [zero, zero, _SQ3 + zero],
        [_SQ3 + zero, zero, zero],
        [_C2 * y, _C2 * x, zero],
        [zero, _C2 * z, _C2 * y],
        [-2.0 * _C20 * x, -2.0 * _C20 * y, 4.0 * _C20 * z],
        [_C2 * z, zero, _C2 * x],
        [2.0 * _C22 * x, -2.0 * _C22 * y, zero],
    ]
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


def s2_heat_kernel(t, cosd, l_max):
    """Truncated S^2 heat kernel via the addition theorem:
    sum_{l<=l_max} (2l+1)/(4pi) e^{-l(l+1)t} P_l(cos d)."""
    _check_domain(t=t, l_max=l_max)
    cosd = np.asarray(cosd, dtype=float)
    if np.any(np.abs(cosd) > 1.0 + 1e-14):
        raise ValueError("cosd outside [-1, 1]")
    total = np.zeros_like(cosd)
    for l in range(l_max + 1):
        total = total + (2 * l + 1) * np.exp(-_lam(l) * t) * legendre_p(l, cosd)
    total = total / (4.0 * np.pi)
    return total if total.ndim else float(total)


def s2_tail_sum(t, l_start, l_stop):
    """sum_{l=l_start}^{l_stop} (2l+1) e^{-l(l+1)t} / (4pi) — the sup-norm
    allowance of dropping harmonics of degree >= l_start."""
    _check_domain(t=t, l_start=l_start, l_stop=l_stop)
    ls = np.arange(l_start, l_stop + 1, dtype=float)
    return float(np.sum((2 * ls + 1) * np.exp(-ls * (ls + 1) * t)) / (4 * np.pi))


def embedding_scale(t, d=2):
    """Coordinate prefactor t^((d+2)/4) * sqrt(2) * (4 pi)^(d/4)."""
    _check_domain(t=t, d=d)
    return t ** ((d + 2) / 4.0) * np.sqrt(2.0) * (4.0 * np.pi) ** (d / 4.0)


def s2_embedding_norm_sq(t, l_max=2):
    """Squared directional-derivative norm of the degree<=l_max coordinate
    map of S^2 at heat time t:
    4 t^2 sum_{l<=l_max} l(l+1)(2l+1) e^{-2l(l+1)t}.

    Constant over base points and unit directions; near 1 exactly when the
    map is a near-isometry.
    """
    _check_domain(t=t, l_max=l_max)
    s = sum(_lam(l) * (2 * l + 1) * np.exp(-2.0 * _lam(l) * t)
            for l in range(1, l_max + 1))
    return float(4.0 * t * t * s) if s else 0.0   # not inf * 0 at huge t


_L8 = np.array([_lam(1)] * 3 + [_lam(2)] * 5)


def s2_oracle_embedding(p, t, d=2):
    """Scaled harmonic-coordinate embedding of S^2 into R^8.

    Coordinate i is embedding_scale(t, d) * e^{-lambda_i t / 2} * Y_i(p) in
    the fixed harmonic order of s2_harmonics.  Accepts a single point or an
    array of points.
    """
    return s2_harmonics(_on_sphere(p)) * _damp(t, d)


def _on_sphere(p):
    p = np.asarray(p, dtype=float)
    if np.max(np.abs(np.linalg.norm(np.atleast_2d(p), axis=-1) - 1.0)) > 1e-12:
        raise ValueError("points must lie on the unit sphere")
    return p


def _damp(t, d):
    return embedding_scale(t, d) * np.exp(-_L8 * t / 2.0)


def _sphere_chart(u):
    # spherical (theta, phi) coordinates -> unit vectors, over the last axis
    u = np.asarray(u, dtype=float)
    theta, phi = u[..., 0], u[..., 1]
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)],
                    axis=-1)


def _sphere_frame(p):
    # orthonormal tangent pair at each row of p (..., 3), the first from
    # e_x, or from e_y where p lies within 1e-6 of the x axis
    near = (np.abs(p[..., 0]) > 1.0 - 1e-6)[..., None]
    a = np.where(near, np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    t1 = a - np.sum(a * p, axis=-1, keepdims=True) * p
    t1 /= np.linalg.norm(t1, axis=-1, keepdims=True)
    t2 = np.cross(p, t1)
    return t1, t2


def s2_oracle_tangent(p, t, method="analytic"):
    """Orthonormal tangent basis of the embedded sphere at p, in R^8.

    method="analytic" pushes an orthonormal frame of S^2 through the exact
    harmonic gradients, and accepts an (N, 3) array of points too: base is
    then (N, 8) and basis (N, 8, 2).  method="fd" differentiates the
    embedding of one point along a spherical chart by central differences
    (step 1e-5).  Charts degenerate within 1e-6 of a pole are rotated
    before differencing.
    """
    p = _on_sphere(p)
    damp = _damp(t, 2)
    base = s2_harmonics(p) * damp
    if method == "analytic":
        t1, t2 = _sphere_frame(p)
        G = s2_harmonic_gradients(p)              # (..., 8, 3)
        J = G @ np.stack([t1, t2], axis=-1)       # (..., 8, 2)
        J *= damp[:, None]
    elif method == "fd":
        if p.ndim != 1:
            raise ValueError("method='fd' takes one base point")
        # rotate the chart so p sits on its equator, away from both poles
        t1, t2 = _sphere_frame(p)
        Q = np.stack([p, t1, t2], axis=1)
        h = 1e-5

        def chart(u):
            return s2_oracle_embedding(Q @ _sphere_chart(u), t)

        u0 = np.array([np.pi / 2.0, 0.0])
        cols = []
        for a in range(2):
            e = np.zeros(2)
            e[a] = h
            cols.append((chart(u0 + e) - chart(u0 - e)) / (2 * h))
        J = np.stack(cols, axis=1)
    else:
        raise ValueError("method must be 'analytic' or 'fd'")
    Qb, R = np.linalg.qr(J)
    Qb = Qb * np.sign(np.diagonal(R, axis1=-2, axis2=-1))[..., None, :]
    return TangentBasis(base=base, basis=Qb)


def _eval_chart(embed, U):
    """Evaluate a vectorized chart map on an (N, 2) batch of points."""
    out = np.asarray(embed(U), dtype=float)
    if out.ndim != 2 or out.shape[0] != U.shape[0]:
        raise ValueError("chart must map an (N, 2) batch to an (N, m) "
                         "array, got shape %s" % (out.shape,))
    return out


def _frozen(a):
    a.flags.writeable = False
    return a


def _features(xi, E):
    """Monomials xi^a of the exponent rows a of E, whatever E's outer
    shape: x^0..x^top by repeated products, each monomial's factors
    gathered from the (..., top+1, d) powers by one fancy index and
    multiplied left to right."""
    # exact products, no np.power: its array-exponent kernel is not
    # correctly rounded, and gave a monomial other bits in a one-row E
    pw = np.empty((int(E.max(initial=0)) + 1,) + xi.shape)
    pw[0] = 1.0
    for p in range(1, len(pw)):
        np.multiply(pw[p - 1], xi, out=pw[p])
    pw = pw.transpose(*range(1, xi.ndim), 0, xi.ndim)
    return np.prod(pw[..., E.astype(np.intp), np.arange(xi.shape[-1])],
                   axis=-1)


# directions over a half circle at which 2-d operator norms are maximized
_ALPHA = np.linspace(0.0, np.pi, 720, endpoint=False)
_UGRID = _frozen(np.stack([np.cos(_ALPHA), np.sin(_ALPHA)], axis=1))
# shifted power rounds that refine the direction max above d = 2
_ROUNDS, _SHIFT = 50, 0.5


def _opnorms(blk, l, E, dirs, M):
    """sup over unit u of |p(u)|, p(u) = sum_a b_a u^a, for each member b
    of a stack blk of degree-l blocks with exponent rows E, given the
    monomials M of the unit directions dirs.  Each member takes its max
    over dirs as the Gram form diag(M b b^T M^T): exact at d = 1, the
    720-direction grid max at d = 2.  Above d = 2 all members then climb
    together from their best three directions by _ROUNDS shifted power
    steps u <- J(u)^T p(u) / l + _SHIFT |p(u)|^2 u, normalized, J being the
    Jacobian of p (SS-HOPM, Kolda & Mayo 2011), and the largest value met
    is returned.  The shift lets the climb settle, so the value is a
    stable function of the block."""
    MM = (M[:, :, None] * M[:, None, :]).reshape(len(M), -1)
    G = blk @ blk.transpose(0, 2, 1)
    sq = G.reshape(len(G), -1) @ MM.T
    best = np.max(sq, axis=1)
    d = E.shape[1]
    if d > 2:
        u = dirs[np.argpartition(sq, -3, axis=1)[:, -3:]]
        # d/du_j u^a = a_j u^(a - e_j), as (member, start, j, monomial)
        Ed = np.maximum(E - np.eye(d)[:, None, :], 0.0)
        for _ in range(_ROUNDS):
            p = _features(u, E) @ blk
            val = np.sum(p * p, axis=2, keepdims=True)
            best = np.maximum(best, np.max(val, axis=(1, 2)))
            dm = E.T * _features(u, Ed)
            g = dm @ (p @ blk.transpose(0, 2, 1))[..., None]
            v = g[..., 0] / l + _SHIFT * val * u
            # v = 0 only where p = 0 (u.v = (1 + _SHIFT)|p|^2): keep u
            np.divide(v, np.linalg.norm(v, axis=2, keepdims=True), out=u,
                      where=val > 0)
    return np.sqrt(np.maximum(best, 0.0))


# exponents (2,0), (1,1), (0,2) of the second fundamental form's block
# (S11, 2 S12, S22), and their monomials over the direction grid
_E2 = _frozen(np.array([[2.0, 0.0], [1.0, 1.0], [0.0, 2.0]]))
_M2 = _frozen(_features(_UGRID, _E2))
# chart points per evaluation of the curvature sweep
_SWEEP_CHUNK = 4096


def _shape_operators(embed, U, step):
    """Second fundamental form at each chart point, as the (S11, S12, S22)
    entries of its symmetric 2 x 2 block of normal vectors, each (N, m).

    First derivatives use step/10, second derivatives use step, both by
    central differences.  The block of normal-projected second derivatives
    is symmetrized by the inverse metric square root.
    """
    h1 = step / 10.0
    h2 = step
    N = U.shape[0]
    offs = [
        (0.0, 0.0),
        (h1, 0.0), (-h1, 0.0), (0.0, h1), (0.0, -h1),
        (h2, 0.0), (-h2, 0.0), (0.0, h2), (0.0, -h2),
        (h2, h2), (h2, -h2), (-h2, h2), (-h2, -h2),
    ]
    batch = np.concatenate([U + np.array(o) for o in offs], axis=0)
    F = _eval_chart(embed, batch)
    m = F.shape[1]
    f = F.reshape(len(offs), N, m)
    J1 = (f[1] - f[2]) / (2 * h1)
    J2 = (f[3] - f[4]) / (2 * h1)
    H11 = (f[5] + f[6] - 2 * f[0]) / h2**2
    H22 = (f[7] + f[8] - 2 * f[0]) / h2**2
    H12 = (f[9] - f[10] - f[11] + f[12]) / (4 * h2**2)

    g11 = np.einsum("ij,ij->i", J1, J1)
    g12 = np.einsum("ij,ij->i", J1, J2)
    g22 = np.einsum("ij,ij->i", J2, J2)
    det = g11 * g22 - g12 * g12
    if np.any(det <= 0) or np.any(g11 <= 0):
        raise ValueError("rank-deficient chart Jacobian on the grid")
    # closed-form inverse square root of the 2x2 metric
    s = np.sqrt(det)
    tt = np.sqrt(g11 + g22 + 2 * s)
    r11 = (g11 + s) / tt
    r12 = g12 / tt
    r22 = (g22 + s) / tt
    dr = r11 * r22 - r12 * r12
    ia, ib, ic = r22 / dr, -r12 / dr, r11 / dr     # metric^(-1/2)

    # orthonormal tangent frame, then project second derivatives normally
    q1 = J1 / np.sqrt(g11)[:, None]
    q2 = J2 - np.einsum("ij,ij->i", q1, J2)[:, None] * q1
    q2 /= np.linalg.norm(q2, axis=1, keepdims=True)

    def normal(Y):
        Y = Y - np.einsum("ij,ij->i", q1, Y)[:, None] * q1
        return Y - np.einsum("ij,ij->i", q2, Y)[:, None] * q2

    H11, H12, H22 = normal(H11), normal(H12), normal(H22)
    ia_, ib_, ic_ = ia[:, None], ib[:, None], ic[:, None]
    S11 = ia_ * ia_ * H11 + 2 * ia_ * ib_ * H12 + ib_ * ib_ * H22
    S12 = ia_ * ib_ * H11 + (ia_ * ic_ + ib_ * ib_) * H12 + ib_ * ic_ * H22
    S22 = ib_ * ib_ * H11 + 2 * ib_ * ic_ * H12 + ic_ * ic_ * H22
    return S11, S12, S22


def _shape_operator_norms(embed, U, step):
    """Operator norm of the second fundamental form at each chart point,
    maximized over the 720-point grid of unit tangent directions: _opnorms
    of II(u, u) = u1^2 S11 + u1 u2 (2 S12) + u2^2 S22."""
    S11, S12, S22 = _shape_operators(embed, U, step)
    blk = np.stack([S11, 2 * S12, S22], axis=1)
    return _opnorms(blk, 2, _E2, _UGRID, _M2)


def second_fundamental_form(embed, u, step=1e-4):
    """Operator norm of the second fundamental form of a chart at one point.

    embed maps R^2 chart coordinates to R^m; derivatives are taken by
    central differences (step/10 for first order, step for second).
    """
    _check_domain(step=step)
    u = np.asarray(u, dtype=float).reshape(1, 2)
    return float(_shape_operator_norms(embed, u, step)[0])


def local_reach_numeric(embed, grid, step=1e-4,
                        domain=((0.0, np.pi), (0.0, 2.0 * np.pi))):
    """Smallest curvature radius min 1/||II|| of a chart over a sweep grid.

    Samples grid x 2*grid cell midpoints of the chart domain (default the
    spherical (theta, phi) rectangle) and returns the minimum of the
    reciprocal shape-operator norms.
    """
    _check_domain(grid=grid, step=step)
    (a0, a1), (b0, b1) = domain
    th = a0 + (np.arange(grid) + 0.5) * (a1 - a0) / grid
    ph = b0 + (np.arange(2 * grid) + 0.5) * (b1 - b0) / (2 * grid)
    T, P = np.meshgrid(th, ph, indexing="ij")
    U = np.stack([T.ravel(), P.ravel()], axis=1)
    top = max(np.max(_shape_operator_norms(embed, U[i:i + _SWEEP_CHUNK],
                                           step))
              for i in range(0, len(U), _SWEEP_CHUNK))
    return float(1.0 / top)


def pushforward_density(J, f):
    """Density of a pushforward along a map with Jacobian J (columns in
    orthonormal tangent coordinates): f / sqrt(det(J^T J))."""
    _check_domain(f=f)
    J = np.asarray(J, dtype=float)
    det = np.linalg.det(J.T @ J)
    if det <= 1e-300:
        raise ValueError("singular Jacobian: J^T J not invertible")
    return f / np.sqrt(det)
