import warnings

import numpy as np
import pytest

from dmaplab.bounds import (BoundConstants, croke_constant, diameter_upper,
                            eigen_lower_power, eps_cap,
                            geodesic_euclid_bounds, heat_lower_diag,
                            heat_lower_offdiag, heat_upper,
                            heat_upper_liyau, li_yau_upper, r1_value,
                            rate_exponents, s1_min, star_check,
                            weyl_estimate)
from dmaplab.embedding import select_eps_prime
from dmaplab.geometry import s2_heat_kernel, sphere_area

S2 = BoundConstants()                      # C1 defaults to the S^2 value


def test_rate_exponents_d2_k3():
    ex = rate_exponents(2, 3)
    assert ex.eigenvalue_rate == pytest.approx(3.0 / 42.0, rel=1e-15)
    assert ex.eigenvector_rate == pytest.approx(1.0 / 32.0, rel=1e-15)
    assert ex.embedding_rate == pytest.approx(1.0 / 32.0, rel=1e-15)
    assert ex.tangent_rate == pytest.approx(1.0 / 48.0, rel=1e-15)
    assert ex.b_star == pytest.approx(48.0, rel=1e-15)
    assert ex.bandwidth_exp == pytest.approx(1.0 / 21.0, rel=1e-15)


def test_rate_exponents_validation():
    with pytest.raises(ValueError):
        rate_exponents(0, 3)
    with pytest.raises(ValueError):
        rate_exponents(2, 1)


def test_bound_constants_validation():
    assert S2.C1 == pytest.approx(0.408912)
    with pytest.raises(ValueError):
        BoundConstants(C1=-1.0)
    with pytest.raises(ValueError, match="constant C2 must be positive"):
        BoundConstants(C2=0.0)


def test_li_yau_flat_sphere_value():
    # (d+4) d^(1-2/d) ((m+1) omega(d-1)/V)^(2/d) at m=8, d=2, V=4pi
    assert li_yau_upper(8, 2, 4.0 * np.pi, 0.0) == 27.0
    # monotone in the index
    vals = [li_yau_upper(m, 2, 4.0 * np.pi, 0.0) for m in range(5)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_li_yau_negative_even_branch():
    m, d, V, kn, diam = 3, 2, 7.0, 0.1, 2.0
    b = d // 2 - 1
    x = np.sqrt(kn) * diam
    expect = ((2 * b + 1) ** 2 / 4.0 * kn
              + 4.0 * (1 + 2.0 ** b) ** 2 * np.pi ** 2
              * (np.sinh(x) / x) ** ((2.0 * d - 2.0) / d)
              * ((m + 1) * sphere_area(d - 1) / (d * V)) ** (2.0 / d))
    assert li_yau_upper(m, d, V, kn, diam) == pytest.approx(expect,
                                                            rel=1e-14)


def test_li_yau_negative_odd_branch():
    m, d, V, kn, diam = 2, 3, 5.0, 0.2, 1.5
    b = (d - 3) // 2
    x = np.sqrt(kn) * diam
    expect = ((2 * b + 2) ** 2 / 4.0 * kn
              + 4.0 * (1 + np.pi ** 2) * (1 + 2.0 ** (2 * b)) ** 2
              * (np.sinh(x) / x) ** ((2.0 * d - 2.0) / d)
              * ((m + 1) * sphere_area(d - 1) / (d * V)) ** (2.0 / d))
    assert li_yau_upper(m, d, V, kn, diam) == pytest.approx(expect,
                                                            rel=1e-14)


def test_li_yau_needs_diam_when_curved():
    with pytest.raises(ValueError):
        li_yau_upper(3, 2, 7.0, 0.1)
    with pytest.raises(ValueError):
        li_yau_upper(3, 2, -1.0, 0.0)


def test_eigen_lower_power_value():
    assert eigen_lower_power(6, 2, 0.0, np.pi, 1.0) == pytest.approx(
        0.6079271018540267, abs=1e-15)
    # equals k^(2/d)/diam^2 when C1_eigen = 1 and kappa = 0
    assert eigen_lower_power(6, 2, 0.0, np.pi, 1.0) == pytest.approx(
        6.0 / np.pi ** 2, rel=1e-14)
    with pytest.raises(ValueError):
        eigen_lower_power(6, 2, 0.0, np.pi, None)


def test_croke_constant_values():
    assert croke_constant(2) == pytest.approx(1.0 / np.pi, abs=1e-12)
    assert croke_constant(3) == pytest.approx(2.0 * np.pi / 27.0, abs=1e-12)
    assert croke_constant(3) == pytest.approx(0.2327105669325773, abs=1e-15)


def test_heat_upper_s2_diagonal():
    # C1 / t^{d/2} at t = 1/4, d = 2, kappa = 0
    assert heat_upper(0.25, 0.0, 2, 0.0, S2) == pytest.approx(
        1.635648, abs=1e-9)
    # off-diagonal decay factor e^{-2 dist^2/(9t)}
    ratio = heat_upper(0.25, 1.0, 2, 0.0, S2) / heat_upper(0.25, 0.0, 2,
                                                           0.0, S2)
    assert ratio == pytest.approx(np.exp(-2.0 / (9.0 * 0.25)), rel=1e-13)
    # positive curvature requires the C2 constant
    with pytest.raises(ValueError, match="C2"):
        heat_upper(0.25, 0.0, 2, 1.0, S2)


def test_heat_lower_diag_flat():
    assert heat_lower_diag(0.25, 2, 0.0) == pytest.approx(
        1.0 / np.pi, abs=1e-9)
    assert heat_lower_diag(0.25, 2, 0.0) == pytest.approx(
        0.3183098861837907, abs=1e-15)


def test_heat_sandwich_on_s2():
    # lower bound <= true truncated diagonal <= upper bound at t = 1/4
    diag = s2_heat_kernel(0.25, 1.0, 20)
    assert heat_lower_diag(0.25, 2, 0.0) <= diag
    assert diag <= heat_upper(0.25, 0.0, 2, 0.0, S2)


def test_heat_lower_offdiag_collapse():
    # at sigma^2 = 3 beta^2 / (8d) and dist = 0 the off-diagonal bound
    # meets the diagonal one exactly
    d, kappa, t = 3, 0.4, 0.6
    beta = np.sqrt(kappa) * (d - 1)
    sigma = np.sqrt(3.0 * beta ** 2 / (8.0 * d))
    off = heat_lower_offdiag(t, 0.0, d, kappa, sigma)
    assert off == pytest.approx(heat_lower_diag(t, d, kappa), rel=1e-14)
    # and that sigma is the maximizer
    for s in (0.5 * sigma, 2.0 * sigma):
        assert heat_lower_offdiag(t, 0.0, d, kappa, s) < off


def test_heat_lower_offdiag_sigma_zero():
    # flat case: sigma = 0 recovers the Euclidean kernel
    val = heat_lower_offdiag(0.25, 1.0, 2, 0.0, 0.0)
    assert val == pytest.approx(1.0 / np.pi * np.exp(-1.0), rel=1e-14)
    with pytest.raises(ValueError):
        heat_lower_offdiag(0.25, 1.0, 2, 0.5, 0.0)


def test_heat_upper_liyau():
    C = 2.0
    val = heat_upper_liyau(0.5, 1.0, 2, 0.0, 3.0, 4.0, 1.5, 0.5, C)
    expect = C ** 1.5 / np.sqrt(12.0) * np.exp(-1.0 / (4.5 * 0.5))
    assert val == pytest.approx(expect, rel=1e-14)
    with pytest.raises(ValueError):
        heat_upper_liyau(0.5, 1.0, 2, 0.0, 3.0, 4.0, 2.5, 0.5, C)
    with pytest.raises(ValueError):
        heat_upper_liyau(0.5, 1.0, 2, 0.0, 3.0, 4.0, 1.5, 1.5, C)
    with pytest.raises(ValueError, match="c_d"):
        heat_upper_liyau(0.5, 1.0, 2, 1.0, 3.0, 4.0, 1.5, 0.5, C)


def test_s1_min_sphere():
    val = s1_min(0.25, 2, 0.0, S2)
    assert val == pytest.approx(1.61899834398623, abs=1e-12)
    assert val == pytest.approx(1.61902, abs=1e-4)
    # closed form sqrt(4.5 t0 log(2 (4 pi) C1)) in the flat case
    expect = np.sqrt(4.5 * 0.25 * np.log(2.0 * 4.0 * np.pi * S2.C1))
    assert val == pytest.approx(expect, rel=1e-14)


def test_r1_value():
    assert r1_value(0.25, 2, 0.0) == 0.5
    # sqrt(t0) scaling in the flat case
    assert r1_value(1.0, 2, 0.0) == pytest.approx(1.0, rel=1e-14)


def test_star_check_sphere():
    res = star_check(0.646924, 0.25, 0.05, 2, 0.0, S2)
    assert res.lhs == pytest.approx(3.3480852942080004, abs=1e-12)
    assert res.rhs == pytest.approx(2.8898240907077457, abs=1e-12)
    assert res.lhs == pytest.approx(3.34809, abs=1e-3)
    assert res.rhs == pytest.approx(2.88982, abs=1e-3)
    assert res.holds
    # a much smaller sweep radius flips the verdict
    assert not star_check(0.3, 0.25, 0.05, 2, 0.0, S2).holds


def test_diameter_upper():
    assert diameter_upper(3, 0.5, 0.1, 2.0) == pytest.approx(
        2.0 / (0.25 * 0.1), rel=1e-14)
    with pytest.raises(ValueError):
        diameter_upper(3, 0.5, 0.1, None)


def test_geodesic_euclid_bounds():
    res = geodesic_euclid_bounds(1.0, 1.0)
    assert res.lo == pytest.approx(1.0 - 1.0 / 24.0, rel=1e-15)
    assert res.hi == 1.0
    assert res.short_arc
    far = geodesic_euclid_bounds(10.0, 1.0)
    assert not far.short_arc
    # in the short-arc regime the chord keeps at least 2/3 of the arc
    s = 2.0 * np.sqrt(2.0)
    assert geodesic_euclid_bounds(s, 1.0).lo >= 2.0 * s / 3.0 - 1e-12


def test_eps_cap():
    assert eps_cap(1) == 0.25
    assert eps_cap(2) == pytest.approx(1.0 / 6.0, abs=1e-12)
    # at the cap, a matrix with A^T A eigenvalues at 1 +/- 3 eps has
    # determinant within [1/4, 4]
    e = eps_cap(2)
    lo, hi = (1 - 3 * e) ** 2, (1 + 3 * e) ** 2
    assert lo >= 0.25 - 1e-12 and hi <= 4.0 + 1e-12


def test_weyl_estimate():
    assert weyl_estimate(110.0, 2, 4.0 * np.pi) == pytest.approx(
        110.0, rel=1e-12)
    # exact eigenvalue count of S^2 below 110 is 100: l(l+1) < 110 for
    # l <= 9, multiplicities (2l+1) summing to 100
    count = sum(2 * l + 1 for l in range(10))
    assert count == 100
    est = weyl_estimate(110.0, 2, 4.0 * np.pi)
    assert abs(est - count) / count <= 0.15


CURVED = BoundConstants(C2=1.0)

# every evaluator that takes d, kappa, a time or a volume, with arguments
# inside its domain; each case below moves one of them outside it
_IN_DOMAIN = {
    rate_exponents: dict(d=2, k=3),
    li_yau_upper: dict(m=3, d=2, V=7.0, kappa_neg=0.1, diam=2.0),
    eigen_lower_power: dict(k_idx=6, d=2, kappa=0.5, diam=np.pi,
                            C1_eigen=0.5),
    croke_constant: dict(d=2),
    heat_upper: dict(t=0.25, dist=0.5, d=2, kappa=0.5, consts=CURVED),
    heat_upper_liyau: dict(t=0.25, dist=0.5, d=2, kappa=0.5, vol_p=1.0,
                           vol_q=2.0, alpha1=1.5, alpha2=0.5, C_alpha2=1.0,
                           c_d=1.0),
    heat_lower_diag: dict(t=0.25, d=2, kappa=0.5),
    heat_lower_offdiag: dict(t=0.25, dist=0.5, d=2, kappa=0.5, sigma=0.5),
    s1_min: dict(t0=0.25, d=2, kappa=0.5, consts=CURVED),
    r1_value: dict(t0=0.25, d=2, kappa=0.5),
    star_check: dict(tau_l=0.6, t0=0.25, eps=0.05, d=2, kappa=0.5,
                     consts=CURVED),
    diameter_upper: dict(d=2, tau=0.5, f_min=0.1, C_d=1.0),
    eps_cap: dict(d=2),
    weyl_estimate: dict(lam=110.0, d=2, V=4.0 * np.pi),
    geodesic_euclid_bounds: dict(s=1.0, r0=1.0),
}
_OUTSIDE = {"d": (0, np.nan), "kappa": (-1.0, np.nan, np.inf),
            "kappa_neg": (-1.0, np.nan, np.inf),
            "t": (0.0, np.nan, np.inf), "t0": (0.0, np.nan, np.inf),
            "V": (0.0, -1.0, np.nan), "s": (-1.0, np.nan, np.inf),
            "r0": (0.0, -1.0, np.nan, np.inf),
            **dict.fromkeys(("m", "diam", "k_idx", "C1_eigen", "dist",
                             "vol_p", "vol_q", "C_alpha2", "c_d", "sigma",
                             "tau_l", "eps", "tau", "f_min", "C_d", "lam"),
                            (np.nan,))}
_DOMAIN_CASES = [(fn, key, bad) for fn, kw in _IN_DOMAIN.items()
                 for key, bads in _OUTSIDE.items() if key in kw
                 for bad in bads]


@pytest.mark.parametrize(
    "fn, key, bad", _DOMAIN_CASES,
    ids=["%s-%s=%s" % (fn.__name__, k, v) for fn, k, v in _DOMAIN_CASES])
def test_evaluators_refuse_input_outside_their_domain(fn, key, bad):
    """Each evaluator refuses a dimension below 1, a curvature that is
    negative or not finite, a time that is not positive and finite, a
    volume that is not positive, and an arc length or curvature radius
    that is negative, zero where it divides, or not finite, and a NaN in
    any argument, with a ValueError and no RuntimeWarning."""
    kw = _IN_DOMAIN[fn]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fn(**kw)
        with pytest.raises(ValueError):
            fn(**dict(kw, **{key: bad}))


def test_select_eps_prime_is_an_eighth_of_heat_lower_diag():
    """eps' = heat_lower_diag / 8 bit for bit; at kappa = 0 both give the
    flat value (4 pi t)^(-d/2) / 8."""
    for t in np.geomspace(1e-3, 4.0, 25):
        for d in range(1, 8):
            flat = (4 * np.pi * t) ** (-d / 2.0) / 8.0
            assert select_eps_prime(t, d, 0.0) == flat
            for kappa in (0.0, 0.1, 0.5, 2.0):
                assert (select_eps_prime(t, d, kappa)
                        == heat_lower_diag(t, d, kappa) / 8.0)
