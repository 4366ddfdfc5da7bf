import ast
import inspect
import pathlib
import re
import warnings
from dataclasses import astuple, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dmaplab
from dmaplab import bounds, geometry
from dmaplab.bounds import (BoundConstants, croke_constant, diameter_upper,
                            eigen_lower_power, eps_cap,
                            geodesic_euclid_bounds, heat_lower_diag,
                            heat_lower_offdiag, heat_upper,
                            heat_upper_liyau, li_yau_upper, r1_value,
                            rate_exponents, s1_min, star_check,
                            weyl_estimate)
from dmaplab.embedding import (EmbeddingParams, select_diffusion_time,
                               select_eps_prime)
from dmaplab.experiments import ExperimentConfig, run_pipeline, sphere_truth
from dmaplab.geometry import (ManifoldDescriptor, PointCloud, _sphere_chart,
                              embedding_scale, legendre_p,
                              local_reach_numeric, pushforward_density,
                              s2_embedding_norm_sq, s2_heat_kernel,
                              s2_oracle_embedding, s2_oracle_tangent,
                              s2_tail_sum, sample_sphere, sample_torus,
                              second_fundamental_form, sphere_area)
from dmaplab.graph import (KernelConfig, ball_counts, bandwidth,
                           build_affinity, gaussian_kernel, laplacian,
                           system_from_cloud)
from dmaplab.spectral import (cluster_eigenvalues, eigensolve_smallest,
                              l2_invdensity_norm)
from dmaplab.tangent import (TangentConfig, estimate_tangents,
                             subsample_size, tangent_bandwidth)

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
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="constant C1 must be positive "
                                             "and finite"):
            BoundConstants(C1=bad)


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


def test_diameter_upper_with_a_huge_whole_d_overflows_at_once():
    # an int tau to an int power was an exact integer power: no return
    with pytest.raises(OverflowError):
        diameter_upper(10**6, int(1e308), 1.0, 1.0)


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

# every public evaluator, with all of its arguments inside their domains;
# each case below moves one of them outside, by the rule its name has
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
# values outside the domain of every name geometry's table rules
_OUTSIDE = {"d": (0, np.nan, 2.5), "m": (-1, np.nan, 2.5),
            "k": (1, np.nan, 2.5), "k_idx": (-1, np.nan, 2.5),
            "n": (0, np.nan, 2.5), "l": (-1, np.nan, 2.5),
            "l_max": (-1, np.nan, 2.5), "l_start": (-1, np.nan, 2.5),
            "l_stop": (-1, np.nan, 2.5), "max_iter": (0, np.nan, 2.5),
            "grid": (31, np.nan, 40.5), "min_size": (0, np.nan, 2.5),
            "alpha1": (1.0, 2.0, np.nan), "alpha2": (0.0, 1.0, np.nan),
            **dict.fromkeys(("kappa", "kappa_neg", "dist", "s", "lam",
                             "sigma", "tau_l"), (-1.0, np.nan, np.inf)),
            **dict.fromkeys(("t", "t0", "V", "diam", "vol_p", "vol_q",
                             "tau", "f_min", "eps", "r0", "C1_eigen",
                             "C_alpha2", "c_d", "C_d", "h", "tol",
                             "gap_tol", "iota", "bandwidth_const", "t_cap",
                             "f_max", "f", "R", "r", "tau_min", "vol_lo",
                             "vol_hi", "n_eff", "h_tilde"),
                            (0.0, -1.0, np.nan, np.inf)),
            "step": (0.0, -1e-4, np.nan, np.inf)}
_DOMAIN_CASES = [(fn, key, bad) for fn, kw in _IN_DOMAIN.items()
                 for key, bads in _OUTSIDE.items() if key in kw
                 for bad in bads]


@pytest.mark.parametrize(
    "fn, key, bad", _DOMAIN_CASES,
    ids=["%s-%s=%s" % (fn.__name__, k, v) for fn, k, v in _DOMAIN_CASES])
def test_evaluators_refuse_input_outside_their_domain(fn, key, bad):
    """Each evaluator refuses a whole-number argument below its least
    value or not whole, an alpha outside its open interval, a curvature,
    distance, arc length or level that is negative or not finite, and any
    other argument that is not positive and finite, with a ValueError and
    no RuntimeWarning."""
    kw = _IN_DOMAIN[fn]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fn(**kw)
        with pytest.raises(ValueError):
            fn(**dict(kw, **{key: bad}))


def test_every_evaluator_argument_has_values_outside_its_domain():
    public = {fn for name, fn in vars(bounds).items()
              if inspect.isfunction(fn) and fn.__module__ == bounds.__name__
              and not name.startswith("_")}
    assert public == set(_IN_DOMAIN)
    for fn, kw in _IN_DOMAIN.items():
        assert set(kw) == set(inspect.signature(fn).parameters)
        assert set(kw) - {"consts"} <= set(_OUTSIDE)


# calls that gave nan, or a negative lower bound, before every argument had
# a domain of its own; the last gives nan from finite input (-inf + inf)
_ONCE_ACCEPTED = [
    (li_yau_upper, (3, 2, 7.0, 0.1), dict(diam=np.inf)),
    (eigen_lower_power, (6, 2, 0.5, np.pi), dict(C1_eigen=-0.5)),
    (eigen_lower_power, (-6, 2, 0.5, np.pi, 0.5), {}),
    (heat_upper_liyau, (0.25, np.inf, 2, 0.5, 1.0, 2.0, 1.5, 0.5, 1.0),
     dict(c_d=np.inf)),
    (diameter_upper, (2, 0.5), dict(f_min=np.inf, C_d=np.inf)),
    (heat_lower_offdiag, (0.25, 0, 2, 0), dict(sigma=np.inf)),
    (li_yau_upper, (2.5, 2, 7.0, 0.0), {}),
    (croke_constant, (2.5,), {}),
    (heat_upper_liyau, (1.0, 1e200, 2, 1e308, 1, 1, 1.5, 0.5, 1),
     dict(c_d=1e308)),
]


@pytest.mark.parametrize("fn, args, kw", _ONCE_ACCEPTED)
def test_calls_that_gave_nan_or_a_negative_bound_are_refused(fn, args, kw):
    with pytest.raises(ValueError):
        fn(*args, **kw)


_CLOUD = sample_sphere(40, 2, 1)
_POLE = np.array([0.0, 0.0, 1.0])


def _chart(u):
    # the image of the S^2 map at t0 = 0.25, as verify-s2 sweeps it
    return s2_oracle_embedding(_sphere_chart(u), 0.5)


# every public callable and config outside bounds that rules scalar
# arguments by geometry's table, with all of its arguments in their domains
_LAYER_IN_DOMAIN = {
    PointCloud: dict(points=np.eye(3), d=2, ambient_dim=3, seed=0),
    ManifoldDescriptor: dict(d=2, kappa=0.0, tau_min=1.0, vol_lo=12.0,
                             vol_hi=13.0, k=3, iota=np.pi, diam=np.pi,
                             f_min=0.05, f_max=0.1),
    sample_sphere: dict(n=5, d=2, seed=1),
    sample_torus: dict(n=5, R=2.0, r=1.0, seed=1),
    legendre_p: dict(l=2, x=0.5),
    s2_heat_kernel: dict(t=0.25, cosd=0.5, l_max=3),
    embedding_scale: dict(t=0.25, d=2),
    s2_oracle_embedding: dict(p=_POLE, t=0.25),
    s2_oracle_tangent: dict(p=_POLE, t=0.25),
    s2_embedding_norm_sq: dict(t=0.25, l_max=2),
    s2_tail_sum: dict(t=0.25, l_start=3, l_stop=50),
    second_fundamental_form: dict(embed=_chart, u=(1.0, 1.0), step=1e-4),
    local_reach_numeric: dict(embed=_chart, grid=32, step=1e-4),
    pushforward_density: dict(J=np.eye(2), f=0.5),
    KernelConfig: dict(h=0.5, n=10, d=2),
    bandwidth: dict(n=100, d=2),
    gaussian_kernel: dict(x=_POLE, y=-_POLE, h=0.5),
    build_affinity: dict(cloud=_CLOUD, h=0.5),
    laplacian: dict(W=np.ones((3, 3)), h=0.5, d=2),
    ball_counts: dict(cloud=_CLOUD, h=0.5),
    l2_invdensity_norm: dict(vec=np.ones(3), ball_counts=np.ones(3), h=0.5,
                             d=2),
    cluster_eigenvalues: dict(mu=np.arange(3.0), gap_tol=0.25),
    eigensolve_smallest: dict(system=system_from_cloud(_CLOUD), m=3,
                              gap_tol=0.25),
    EmbeddingParams: dict(t=0.25, m=3, d=2),
    select_diffusion_time: dict(t0=0.25, iota=np.pi),
    TangentConfig: dict(k=3, bandwidth_const=1.0, t_cap=2.0, max_iter=20,
                        tol=1e-8, f_min=0.05, f_max=0.1),
    subsample_size: dict(n=100, d=2, k=3, min_size=10),
    tangent_bandwidth: dict(n_eff=100, d=2, cfg=TangentConfig()),
    estimate_tangents: dict(cloud=_CLOUD, base_indices=[0],
                            cfg=TangentConfig(), h_tilde=1.0),
    ExperimentConfig: dict(d=2, k=3, t0=0.25, m=8, gap_tol=0.25, kappa=0.0,
                           iota=np.pi, torus_R=2.0, torus_r=1.0,
                           tangent_bandwidth_const=1.0, tangent_t_cap=2.0,
                           tangent_max_iter=20, study_max_iter=100,
                           tangent_tol=1e-8),
    sphere_truth: dict(points=_CLOUD.points, m=8),
}
# config fields that reach the table under another name
_RULED_AS = {"torus_R": "R", "torus_r": "r",
             "tangent_bandwidth_const": "bandwidth_const",
             "tangent_t_cap": "t_cap", "tangent_max_iter": "max_iter",
             "study_max_iter": "max_iter", "tangent_tol": "tol"}
_LAYER_CASES = [(fn, key, bad) for fn, kw in _LAYER_IN_DOMAIN.items()
                for key in kw if _RULED_AS.get(key, key) in _OUTSIDE
                for bad in _OUTSIDE[_RULED_AS.get(key, key)]]


@pytest.mark.parametrize(
    "fn, key, bad", _LAYER_CASES,
    ids=["%s-%s=%s" % (fn.__name__, k, v) for fn, k, v in _LAYER_CASES])
def test_layers_refuse_input_outside_the_domain_of_its_name(fn, key, bad):
    """Every layer refuses a scalar argument outside the domain its name
    has in geometry's table, with the table's message."""
    kw = _LAYER_IN_DOMAIN[fn]
    fn(**kw)
    name = _RULED_AS.get(key, key)
    with pytest.raises(ValueError, match="^%s must be [^,]+, got %s$"
                       % (name, re.escape(str(bad)))):
        fn(**dict(kw, **{key: bad}))


# calls that returned a number, ran a config no command should run, or
# failed with another error before the table ruled every layer
_ONCE_RAN = [
    (lambda: ExperimentConfig(t0=np.inf), "t0 must be positive and finite"),
    (lambda: run_pipeline(ExperimentConfig(m=2.5), 300, 1),
     "m must be a whole number"),
    (lambda: local_reach_numeric(_chart, grid=40.5),
     "grid must be a whole number"),
    (lambda: local_reach_numeric(_chart, grid=32, step=np.nan),
     "step must be positive and finite"),
    (lambda: s2_tail_sum(0.25, -3, 50), "l_start must be >= 0"),
    (lambda: s2_oracle_embedding(_POLE, -1.0),
     "t must be positive and finite"),
    (lambda: bandwidth(100, -4), "d must be >= 1"),
    (lambda: TangentConfig(k=2.5), "k must be a whole number"),
    (lambda: tangent_bandwidth(100, 0, TangentConfig()), "d must be >= 1"),
]


@pytest.mark.parametrize("call, message", _ONCE_RAN,
                         ids=[m for _, m in _ONCE_RAN])
def test_calls_that_ran_outside_the_table_are_refused(call, message):
    with pytest.raises(ValueError, match="^%s, got " % message):
        call()


def test_every_ruled_name_has_values_outside_its_domain():
    """Every keyword that the package passes to _check_domain, and every
    name the table lists, has an _OUTSIDE entry; the table is defined in
    geometry alone."""
    src = pathlib.Path(dmaplab.__file__).parent
    ruled, callers, defined = set(), set(), []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and \
                    getattr(node.func, "id", None) == "_check_domain":
                ruled.update(kw.arg for kw in node.keywords)
                callers.add(path.stem)
            if isinstance(node, ast.FunctionDef) and \
                    node.name == "_check_domain":
                defined.append(path.name)
    assert defined == ["geometry.py"]
    assert callers == {"geometry", "graph", "spectral", "embedding",
                       "tangent", "experiments", "bounds"}
    assert ruled | set(geometry._WHOLE) | set(geometry._OPEN) \
        | set(geometry._NONNEG) <= set(_OUTSIDE)
    assert bounds._WHOLE is geometry._WHOLE


# typed as the command line types them: whole-number names may be ints,
# huge ones too; the rest are floats
_REALS = st.floats() | st.sampled_from([1e-300, 1e308])
_WHOLES = st.integers(-3, 10 ** 6) | st.just(int(1e308)) | _REALS


@st.composite
def _calls(draw):
    fn = draw(st.sampled_from(sorted(_IN_DOMAIN, key=lambda f: f.__name__)))
    kw = {}
    for name, p in inspect.signature(fn).parameters.items():
        values = (st.sampled_from([S2, CURVED]) if name == "consts"
                  else _WHOLES if name in ("d", "m", "k", "k_idx")
                  else _REALS)
        if p.default is None:
            values = values | st.none()
        kw[name] = draw(values)
    return fn, kw


@settings(derandomize=True, max_examples=600, deadline=None)
@given(call=_calls())
def test_evaluators_raise_or_return_a_number(call):
    """Called directly with any numbers, an evaluator raises ValueError or
    ArithmeticError, or returns no NaN, and no negative lower bound from
    eigen_lower_power."""
    fn, kw = call
    try:
        with np.errstate(all="raise", under="ignore"):
            res = fn(**kw)
    except (ValueError, ArithmeticError):
        return
    values = astuple(res) if is_dataclass(res) else np.atleast_1d(res)
    assert not np.isnan(np.array(values, dtype=float)).any()
    if fn is eigen_lower_power:
        assert res >= 0


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
