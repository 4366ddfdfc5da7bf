"""Closed-form geometric bound evaluators: eigenvalue growth bounds, heat
kernel sandwich bounds, geodesic-ball volume and diameter bounds, the
reach threshold machinery, and the convergence-rate exponent table.

Unnamed analytic constants are explicit inputs.  Evaluators refuse to run
when a required constant is missing instead of guessing, refuse input
outside the domain their bound holds on (one rule per argument name, in
geometry's table), and refuse a NaN result; the only built-in default is
the unit-sphere heat-kernel constant C1 = 0.408912.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma

from .geometry import _WHOLE, _check_domain, sphere_area  # cli reads _WHOLE

C1_S2 = 0.408912


@dataclass
class BoundConstants:
    """Analytic constants appearing in the bounds; None means unknown."""

    C1: float = C1_S2
    C2: float = None

    def __post_init__(self):
        _check_domain(C1=self.C1, C2=self.C2)


def _need(name, v):
    if v is None:
        raise ValueError("constant %s is unknown; supply it explicitly"
                         % name)
    return v


def _number(v):
    """v as a float, refused when NaN: finite input can still meet
    inf - inf inside a bound."""
    v = float(v)
    if np.isnan(v):
        raise ValueError("the bound is undefined (nan) at these arguments")
    return v


@dataclass
class RateExponents:
    eigenvalue_rate: float
    eigenvector_rate: float
    embedding_rate: float
    tangent_rate: float
    b_star: float
    bandwidth_exp: float

    def __post_init__(self):
        rates = (self.eigenvalue_rate, self.eigenvector_rate,
                 self.embedding_rate, self.tangent_rate, self.bandwidth_exp)
        if not all(0 < r < 1 for r in rates):
            raise ValueError("rate exponents must lie in (0, 1)")
        if not self.tangent_rate < self.eigenvector_rate:
            raise ValueError("tangent rate should be the slowest rate")


def rate_exponents(d, k):
    """Convergence-rate exponents in (log n / n)^rho for intrinsic
    dimension d and estimator order k, plus the subsample exponent
    b_star = (8d+16)k/d and the bandwidth exponent 1/(4d+13)."""
    _check_domain(d=d, k=k)
    return RateExponents(
        eigenvalue_rate=3.0 / (8 * d + 26),
        eigenvector_rate=1.0 / (8 * d + 16),
        embedding_rate=1.0 / (8 * d + 16),
        tangent_rate=(k - 1.0) / ((8 * d + 16) * k),
        b_star=(8 * d + 16) * k / float(d),
        bandwidth_exp=1.0 / (4 * d + 13),
    )


def _beta(kappa, d):
    return np.sqrt(kappa) * (d - 1)


def li_yau_upper(m, d, V, kappa_neg, diam=None):
    """Upper bound on the m-th Laplacian eigenvalue.

    kappa_neg is the magnitude of the (negative) Ricci lower bound; 0 gives
    the nonnegative-curvature bound (d+4) d^(1-2/d) ((m+1) omega(d-1)/V)^(2/d),
    otherwise the parity-split sinh bounds, which need the diameter.
    """
    m, d, V, kappa_neg, diam = _check_domain(m=m, d=d, V=V,
                                             kappa_neg=kappa_neg, diam=diam)
    om = sphere_area(d - 1)
    if kappa_neg == 0:
        return _number((d + 4) * d ** (1.0 - 2.0 / d)
                       * ((m + 1) * om / V) ** (2.0 / d))
    if diam is None:
        raise ValueError("negative-curvature branch needs diam")
    x = np.sqrt(kappa_neg) * diam
    sinh_fac = (np.sinh(x) / x) ** ((2.0 * d - 2.0) / d)
    tail = sinh_fac * ((m + 1) * om / (d * V)) ** (2.0 / d)
    if d % 2 == 0:
        b = d // 2 - 1
        return _number((2 * b + 1) ** 2 / 4.0 * kappa_neg
                       + 4.0 * (1 + 2.0 ** b) ** 2 * np.pi ** 2 * tail)
    b = (d - 3) // 2
    return _number((2 * b + 2) ** 2 / 4.0 * kappa_neg
                   + 4.0 * (1 + np.pi ** 2) * (1 + 2.0 ** (2 * b)) ** 2
                   * tail)


def eigen_lower_power(k_idx, d, kappa, diam, C1_eigen):
    """Lower bound C1^(1 + diam sqrt(kappa)) * diam^-2 * k^(2/d) on the
    k-th eigenvalue."""
    k_idx, d, kappa, diam, C1_eigen = _check_domain(
        k_idx=k_idx, d=d, kappa=kappa, diam=diam, C1_eigen=C1_eigen)
    return _number(_need("C1_eigen", C1_eigen)
                   ** (1.0 + diam * np.sqrt(kappa))
                   * diam ** (-2.0) * k_idx ** (2.0 / d))


def croke_constant(d):
    """Geodesic-ball volume constant C'(d) = 2^d Gamma(d/2)^(d-1) /
    (d^d Gamma((d-1)/2)^d); vol(B_r) >= C'(d) r^d for r <= iota/2."""
    _check_domain(d=d)
    return _number(2.0 ** d * _gamma(d / 2.0) ** (d - 1)
                   / (d ** d * _gamma((d - 1) / 2.0) ** d))


def heat_upper(t, dist, d, kappa, consts):
    """Heat kernel upper bound C1 t^(-d/2) exp(C2 kappa t - 2 dist^2/(9t))."""
    t, dist, d, kappa = _check_domain(t=t, dist=dist, d=d, kappa=kappa)
    C1 = _need("C1", consts.C1)
    expo = -2.0 * dist * dist / (9.0 * t)
    if kappa > 0:
        expo += _need("C2", consts.C2) * kappa * t
    return _number(C1 / t ** (d / 2.0) * np.exp(expo))


def heat_upper_liyau(t, dist, d, kappa, vol_p, vol_q, alpha1, alpha2,
                     C_alpha2, c_d=None):
    """Ball-volume heat kernel upper bound
    C(a2)^a1 (vol_p vol_q)^(-1/2) exp(C(d) a2/(a1-1) kappa t
    - dist^2/((4+a2) t)); a1 = 3/2, a2 = 1/2 reproduce the 2 dist^2/(9t)
    exponent shape.  The curvature term needs the dimensional constant c_d.
    """
    t, dist, d, kappa, vol_p, vol_q, alpha1, alpha2, C_alpha2, c_d = \
        _check_domain(t=t, dist=dist, d=d, kappa=kappa, vol_p=vol_p,
                      vol_q=vol_q, alpha1=alpha1, alpha2=alpha2,
                      C_alpha2=C_alpha2, c_d=c_d)
    C = _need("C_alpha2", C_alpha2)
    expo = -dist * dist / ((4.0 + alpha2) * t)
    if kappa > 0:
        expo += _need("c_d", c_d) * alpha2 / (alpha1 - 1.0) * kappa * t
    return _number(C ** alpha1 / np.sqrt(vol_p * vol_q) * np.exp(expo))


def heat_lower_diag(t, d, kappa):
    """On-diagonal heat kernel lower bound
    (4 pi t)^(-d/2) exp(-beta^2 t/4 - 2 sqrt(3d) beta sqrt(t)/3)."""
    t, d, kappa = _check_domain(t=t, d=d, kappa=kappa)
    b = _beta(kappa, d)
    return _number((4 * np.pi * t) ** (-d / 2.0)
                   * np.exp(-b * b * t / 4.0
                            - 2.0 * np.sqrt(3.0 * d) * b * np.sqrt(t) / 3.0))


def heat_lower_offdiag(t, dist, d, kappa, sigma):
    """Off-diagonal heat kernel lower bound with free parameter sigma:
    (4 pi t)^(-d/2) exp(-(1/(4t) + sigma/(3 sqrt(2t))) dist^2
    - beta^2 t/4 - (beta^2/(4 sigma) + 2 d sigma/3) sqrt(2t)).

    At sigma^2 = 3 beta^2/(8d) and dist = 0 this collapses to
    heat_lower_diag.
    """
    t, dist, d, kappa, sigma = _check_domain(t=t, dist=dist, d=d,
                                             kappa=kappa, sigma=sigma)
    b = _beta(kappa, d)
    if sigma == 0:
        if b > 0:
            raise ValueError("sigma = 0 divides by zero when curvature "
                             "term beta is positive")
        curv = 0.0
        dcoef = 1.0 / (4.0 * t)
    else:
        curv = (b * b / (4.0 * sigma) + 2.0 * d * sigma / 3.0) * np.sqrt(2 * t)
        dcoef = 1.0 / (4.0 * t) + sigma / (3.0 * np.sqrt(2.0 * t))
    return _number((4 * np.pi * t) ** (-d / 2.0)
                   * np.exp(-dcoef * dist * dist - b * b * t / 4.0 - curv))


def _bracket(t0, d, kappa, consts):
    b = _beta(kappa, d)
    arg = 2.0 * (4.0 * np.pi) ** (d / 2.0) * _need("C1", consts.C1)
    if arg <= 1e-300:
        raise ValueError("log argument <= 0: C1 too small")
    val = np.log(arg) + b * b * t0 / 4.0 \
        + 2.0 * np.sqrt(3.0 * d * t0) * b / 3.0
    if kappa > 0:
        val += _need("C2", consts.C2) * kappa * t0
    return val


def s1_min(t0, d, kappa, consts):
    """Geodesic distance threshold: square root of
    (9 t0/2) (C2 kappa t0 + beta^2 t0/4 + 2 sqrt(3 d t0) beta/3
    + log(2 (4 pi)^(d/2) C1))."""
    t0, d, kappa = _check_domain(t0=t0, d=d, kappa=kappa)
    val = _bracket(t0, d, kappa, consts)
    if val <= 0:
        raise ValueError("threshold undefined: bracket nonpositive "
                         "(C1 too small)")
    return _number(np.sqrt(4.5 * t0 * val))


def r1_value(t0, d, kappa):
    """r1 = sqrt(t0) exp(-beta^2 t0/8 - sqrt(3 d t0) beta/3); the global
    reach is bounded below by r1/2."""
    t0, d, kappa = _check_domain(t0=t0, d=d, kappa=kappa)
    b = _beta(kappa, d)
    return _number(np.sqrt(t0) * np.exp(-b * b * t0 / 8.0
                                        - np.sqrt(3.0 * d * t0) * b / 3.0))


StarResult = namedtuple("StarResult", "lhs rhs holds")


def star_check(tau_l, t0, eps, d, kappa, consts):
    """Reach condition 8 tau_l^2 >= (9 (1+eps)^2 t0 / 2) * bracket, with
    the same bracket as s1_min.  Returns both sides and the verdict."""
    tau_l, t0, eps, d, kappa = _check_domain(tau_l=tau_l, t0=t0, eps=eps,
                                             d=d, kappa=kappa)
    lhs = _number(8.0 * tau_l * tau_l)
    rhs = _number(4.5 * (1.0 + eps) ** 2 * t0 * _bracket(t0, d, kappa, consts))
    return StarResult(lhs=lhs, rhs=rhs, holds=lhs >= rhs)


def diameter_upper(d, tau, f_min, C_d):
    """Diameter bound C_d / (tau^(d-1) f_min)."""
    d, tau, f_min, C_d = _check_domain(d=d, tau=tau, f_min=f_min, C_d=C_d)
    return _number(_need("C_d", C_d) / (tau ** (d - 1.0) * f_min))


GeodesicBounds = namedtuple("GeodesicBounds", "lo hi short_arc")


def geodesic_euclid_bounds(s, r0):
    """Euclidean-chord bounds for geodesic distance s at curvature radius
    r0: s - s^3/(24 r0^2) <= |p - q| <= s.  short_arc reports s <= 2 sqrt(2)
    r0, the regime in which the lower bound is at least 2s/3."""
    s, r0 = _check_domain(s=s, r0=r0)
    lo = s - s ** 3 / (24.0 * r0 * r0)
    return GeodesicBounds(lo=_number(lo), hi=_number(s),
                          short_arc=bool(s <= 2.0 * np.sqrt(2.0) * r0))


def eps_cap(d):
    """Largest admissible isometry slack
    min{(4^(1/d) - 1)/3, (1 - 4^(-1/d))/3}; keeps the pushforward metric
    determinant inside (1/4, 4)."""
    _check_domain(d=d)
    return _number(min((4.0 ** (1.0 / d) - 1.0) / 3.0,
                       (1.0 - 4.0 ** (-1.0 / d)) / 3.0))


def weyl_estimate(lam, d, V):
    """Asymptotic eigenvalue count nu_d V lambda^(d/2) / (2 pi)^d with nu_d
    the unit-ball volume.  Asymptotic only: no finite-lambda guarantee."""
    lam, d, V = _check_domain(lam=lam, d=d, V=V)
    nu = np.pi ** (d / 2.0) / _gamma(d / 2.0 + 1.0)
    return _number(nu * V * lam ** (d / 2.0) / (2.0 * np.pi) ** d)
