import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import dmaplab.geometry as geo
import dmaplab.graph as gr
from dmaplab.embedding import EmbeddedCloud, EmbeddingParams
from dmaplab.experiments import ExperimentConfig, tangent_study
from dmaplab.geometry import (_ALPHA, PointCloud, s2_oracle_embedding,
                              s2_oracle_tangent, sample_sphere)
from dmaplab.tangent import (_CHUNK, TangentConfig, _cap, _features,
                             _fit_plan, _neighbors, _opnorms, _sin_angles,
                             estimate_tangents, fit_local_polynomial,
                             monomial_exponents, subsample_size,
                             subspace_angle, tangent_bandwidth)


def test_subsample_size_values():
    res = subsample_size(10 ** 6, 2, 3)
    assert res.theoretical == pytest.approx(1.333521432163324, rel=1e-14)
    assert res.size == 10                      # clamped to the floor
    assert subsample_size(10 ** 6, 2, 3, min_size=25).size == 25
    # a gigantic n finally pushes the raw value above the clamp
    big = subsample_size(10 ** 60, 2, 3)
    assert big.size == int(big.theoretical)
    with pytest.raises(ValueError):
        subsample_size(1, 2, 3)


def test_tangent_bandwidth_value():
    cfg = TangentConfig()
    assert tangent_bandwidth(1000, 2, cfg) == pytest.approx(
        0.294775007852158, rel=1e-14)
    # decreasing in the effective sample size
    assert tangent_bandwidth(4000, 2, cfg) < tangent_bandwidth(1000, 2, cfg)
    with pytest.raises(ValueError):
        tangent_bandwidth(2, 2, cfg)


def test_tangent_config_validation():
    with pytest.raises(ValueError):
        TangentConfig(k=1)
    with pytest.raises(ValueError):
        TangentConfig(max_iter=0)
    with pytest.raises(ValueError):
        TangentConfig(f_min=0.0)
    for kw in (dict(t_cap=-1.0), dict(t_cap=0.0), dict(t_cap=np.nan),
               dict(t_cap=np.inf), dict(bandwidth_const=-1.0),
               dict(bandwidth_const=0.0), dict(bandwidth_const=np.nan),
               dict(bandwidth_const=np.inf)):
        (name, bad), = kw.items()
        with pytest.raises(ValueError, match="^%s must be positive and "
                                             "finite, got %s$" % (name, bad)):
            TangentConfig(**kw)
    TangentConfig(t_cap=2.0, bandwidth_const=0.5)


def test_monomial_exponents():
    e2 = monomial_exponents(2, [2])
    assert [x for _, x in e2] == [(2, 0), (1, 1), (0, 2)]
    assert len(monomial_exponents(3, [2])) == 6
    assert len(monomial_exponents(2, [2, 3])) == 3 + 4
    assert all(sum(x) == l for l, x in monomial_exponents(2, [2, 3]))


def test_exact_plane_recovered():
    rng = np.random.default_rng(0)
    U = np.linalg.qr(rng.normal(size=(5, 2)))[0]
    coords = rng.uniform(-1, 1, size=(120, 2))
    cloud = PointCloud(points=coords @ U.T, d=2, ambient_dim=5, seed=0)
    fit = fit_local_polynomial(cloud, 0, 0.8, TangentConfig(k=3))
    assert subspace_angle(fit.basis, U) < 1e-10


def test_circle_curvature_coefficient():
    s = np.linspace(0, 2 * np.pi, 200, endpoint=False)
    pts = np.stack([np.cos(s), np.sin(s)], axis=1)
    cloud = PointCloud(points=pts, d=1, ambient_dim=2, seed=0)
    fit = fit_local_polynomial(cloud, 0, 0.3, TangentConfig(k=3))
    true_tan = np.array([[0.0], [1.0]])
    assert subspace_angle(fit.basis, true_tan) < 0.01
    # the degree-2 row is the half-curvature vector
    coeff = np.linalg.norm(fit.tensors[2][0])
    assert abs(coeff - 0.5) <= 0.05


def test_sphere_embedding_median_angle():
    n = 800
    cloud = sample_sphere(n, 2, 3)
    emb = s2_oracle_embedding(cloud.points, 0.25)
    carrier = PointCloud(points=emb, d=2, ambient_dim=8, seed=3)
    cfg = TangentConfig(k=3, max_iter=100)
    batch = estimate_tangents(carrier, range(0, n, 8), cfg,
                              tangent_bandwidth(n, 2, cfg))
    assert not batch.errors
    angles = [subspace_angle(fit.basis,
                             s2_oracle_tangent(cloud.points[i], 0.25).basis)
              for i, fit in batch.fits.items()]
    assert np.median(angles) < 0.2
    assert all(0.0 <= a <= 1.0 for a in angles)


def test_fit_reports_thin_neighborhoods():
    pts = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0], [0.0, 5.0, 0.0],
                    [9.0, 9.0, 0.0]])
    cloud = PointCloud(points=pts, d=2, ambient_dim=3, seed=0)
    with pytest.raises(ValueError, match="need at least 3 neighbors"):
        fit_local_polynomial(cloud, 0, 0.5, TangentConfig(k=3))


def test_estimate_tangents_collects_failures():
    pts = np.vstack([np.zeros(3),
                     np.random.default_rng(1).normal(size=(30, 3)) * 0.05
                     + np.array([2.0, 0.0, 0.0])])
    cloud = PointCloud(points=pts, d=2, ambient_dim=3, seed=0)
    batch = estimate_tangents(cloud, [0, 1], TangentConfig(k=3),
                              h_tilde=0.4)
    assert 0 in batch.errors                   # isolated base point
    assert 1 in batch.fits
    assert "neighbors" in batch.errors[0]


def test_subspace_angle_rotated_lines():
    for theta in (0.0, 0.1, 0.5, 1.0, np.pi / 2):
        U = np.array([[1.0], [0.0]])
        V = np.array([[np.cos(theta)], [np.sin(theta)]])
        assert subspace_angle(U, V) == pytest.approx(abs(np.sin(theta)),
                                                     abs=1e-12)


def test_subspace_angle_validation():
    U = np.array([[1.0], [0.0]])
    with pytest.raises(ValueError):
        subspace_angle(U, np.array([[2.0], [0.0]]))    # not orthonormal
    with pytest.raises(ValueError):
        subspace_angle(U, np.eye(3)[:, :1])            # shape mismatch


def test_subspace_angle_range_random():
    rng = np.random.default_rng(4)
    for _ in range(25):
        U = np.linalg.qr(rng.normal(size=(6, 2)))[0]
        V = np.linalg.qr(rng.normal(size=(6, 2)))[0]
        a = subspace_angle(U, V)
        assert 0.0 <= a <= 1.0
        assert a == pytest.approx(subspace_angle(V, U), abs=1e-10)


def test_fit_plan_is_read_only():
    plan = _fit_plan(2, 3)
    assert plan.expos == tuple(monomial_exponents(2, [2]))
    for d, k in ((2, 3), (3, 4)):
        plan = _fit_plan(d, k)
        arrays = [plan.E, plan.dirs] + [M for _, _, M in plan.blocks]
        assert not any(a.flags.writeable for a in arrays)


def test_one_fit_plan_per_estimate_tangents_call(monkeypatch):
    """One call builds its plan once and hands it to every stack and
    worker."""
    calls = []

    def spy(d, k):
        calls.append((d, k))
        return _fit_plan(d, k)

    monkeypatch.setattr("dmaplab.tangent._fit_plan", spy)
    n = 3 * _CHUNK
    batch = estimate_tangents(sample_sphere(n, 2, 3), range(n),
                              TangentConfig())
    assert len(batch.fits) + len(batch.errors) == n
    assert calls == [(2, 3)]


def _grid_max(b_rows, M):
    """The max of |sum_a b_a u^a| over the directions with monomials M,
    taken directly."""
    V = M @ b_rows
    return float(np.sqrt(np.max(np.sum(V * V, axis=1))))


def _ref_opnorm(b_rows, l, E, dirs, M):
    """One block's operator norm for the reference loop: the direct grid
    max at d <= 2, the production _opnorms on a one-member stack above."""
    if E.shape[1] <= 2:
        return _grid_max(b_rows, M)
    return float(_opnorms(b_rows[None], l, E, dirs, M)[0])


def _scalar_features(xi, E):
    """The monomials xi^a of the exponent rows a of E by a plain-Python
    loop over floats: each power by repeated products, then the factors
    multiplied left to right over the coordinates."""
    xi, E = np.asarray(xi), np.asarray(E)
    out = np.empty(xi.shape[:-1] + E.shape[:-1])
    for i in np.ndindex(xi.shape[:-1]):
        for r in np.ndindex(E.shape[:-1]):
            mono = 1.0
            for x, a in zip(xi[i].tolist(), E[r].tolist()):
                power = 1.0
                for _ in range(int(a)):
                    power *= x
                mono *= power
            out[i + r] = mono
    return out


def test_features_and_grid_opnorm_match_old_expressions():
    """_features gives the bits of the scalar product loop for every plan
    at d = 1..3 and k = 2..5, on one point and on stacks, and for the
    derivative exponents of _opnorms' shifted rounds; the d = 2 plan holds
    the loop's monomials of the 720-direction grid rebuilt from the
    angles, whose direct max the Gram form of _opnorms gives to
    rounding."""
    rng = np.random.default_rng(7)
    for d in (1, 2, 3):
        for k in (2, 3, 4, 5):
            E = _fit_plan(d, k).E
            for shape in ((d,), (40, d), (3, 5, d)):
                xi = rng.standard_normal(shape)
                assert np.array_equal(_features(xi, E),
                                      _scalar_features(xi, E))
            Ed = np.maximum(E - np.eye(d)[:, None, :], 0.0)
            u = rng.standard_normal((4, 3, d))
            assert np.array_equal(_features(u, Ed), _scalar_features(u, Ed))
    plan = _fit_plan(2, 5)
    grid = np.stack([np.cos(_ALPHA), np.sin(_ALPHA)], axis=1)
    for l, rows, M in plan.blocks:
        b = rng.standard_normal((rows.stop - rows.start, 8))
        M_old = _scalar_features(grid, plan.E[rows])
        assert np.array_equal(M, M_old)
        assert _opnorms(b[None], l, plan.E[rows], plan.dirs, M)[0] == \
            pytest.approx(_grid_max(b, M_old), rel=1e-13, abs=0)


@settings(max_examples=100)
@given(d=st.integers(1, 3), k=st.integers(3, 6),
       shape=st.sampled_from([(), (1,), (7,), (3, 4)]),
       scale=st.sampled_from([1e-3, 1.0, 1e3]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_features_rows_together_equal_rows_alone(d, k, shape, scale, seed):
    """The monomials of all exponent rows at once carry the bits of each
    row taken alone, so a monomial does not depend on which others share
    its call."""
    E = _fit_plan(d, k).E
    xi = scale * np.random.default_rng(seed).standard_normal(shape + (d,))
    together = _features(xi, E)
    for r in range(len(E)):
        assert np.array_equal(together[..., r],
                              _features(xi, E[r:r + 1])[..., 0])


@pytest.mark.parametrize("d, l", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_poly_opnorm_reaches_dense_reference(d, l):
    """Above d = 2 the operator norm is at least the max over 10^5 seeded
    unit directions, on 50 random degree-l blocks with 5 columns."""
    plan = _fit_plan(d, l + 1)
    _, rows, M = plan.blocks[-1]
    E = plan.E[rows]
    rng = np.random.default_rng(10 * d + l)
    u = rng.standard_normal((100_000, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    dense = np.prod(u[:, None, :] ** E, axis=2)
    b = rng.standard_normal((50, E.shape[0], 5))
    ref = np.array([_grid_max(x, dense) for x in b])
    assert np.all(_opnorms(b, l, E, plan.dirs, M) >= (1 - 1e-9) * ref)


@pytest.mark.parametrize("d, l", [(2, 2), (2, 4), (3, 2), (3, 3)])
def test_opnorms_by_row_chunks_give_the_bits_of_one_product(monkeypatch, d,
                                                             l):
    """The Gram form taken over chunks of _OPNORM_ROWS members gives each
    member the bits, and above d = 2 the start directions, that one
    product over the whole stack gives."""
    plan = _fit_plan(d, l + 1)
    _, rows, M = plan.blocks[-1]
    E = plan.E[rows]
    b = np.random.default_rng(d + l).standard_normal((600, E.shape[0], 5))
    chunked = _opnorms(b, l, E, plan.dirs, M)
    monkeypatch.setattr(geo, "_OPNORM_ROWS", len(b))
    assert np.array_equal(chunked, _opnorms(b, l, E, plan.dirs, M))


def _loop_climb(b_rows, l, E, dirs, M):
    """The shifted power rounds of _opnorms for one block and one start at
    a time, with the gradient built coordinate by coordinate."""
    d = E.shape[1]
    V = M @ b_rows
    sq = np.sum(V * V, axis=1)
    best = float(np.sqrt(np.max(sq)))
    for u in dirs[np.argsort(sq)[-3:]]:
        for _ in range(50):
            p = np.prod(u ** E, axis=1) @ b_rows
            best = max(best, float(np.linalg.norm(p)))
            coef = b_rows @ p
            g = np.zeros(d)
            for j in range(d):
                mask = E[:, j] > 0
                Ed = E[mask].copy()
                Ed[:, j] -= 1.0
                g[j] = np.sum(coef[mask] * E[mask, j]
                              * np.prod(u ** Ed, axis=1))
            v = g / l + 0.5 * float(p @ p) * u
            u = v / np.linalg.norm(v)
    return best


@pytest.mark.parametrize("d, l", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_poly_opnorm_climb_matches_gradient_loop(d, l):
    """The stacked rounds of _opnorms, with their broadcast gradient, reach
    the value of the per-block, per-start loop to 1e-12 relative."""
    plan = _fit_plan(d, l + 1)
    _, rows, M = plan.blocks[-1]
    E = plan.E[rows]
    rng = np.random.default_rng(20 * d + l)
    b = rng.standard_normal((10, E.shape[0], 5))
    got = _opnorms(b, l, E, plan.dirs, M)
    for x, val in zip(b, got):
        assert val == pytest.approx(_loop_climb(x, l, E, plan.dirs, M),
                                    rel=1e-12, abs=0)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_opnorm_of_zero_block_is_zero(d):
    """An all-zero block has norm 0, and _cap leaves it as it is, with no
    RuntimeWarning (the suite turns those into errors)."""
    plan = _fit_plan(d, 4)
    for l, rows, M in plan.blocks:
        b = np.zeros((3, rows.stop - rows.start, 5))
        assert np.array_equal(_opnorms(b, l, plan.E[rows], plan.dirs, M),
                              np.zeros(3))
    b = np.zeros((3, plan.E.shape[0], 5))
    _cap(b, plan, 0.5)
    assert not b.any()


@pytest.mark.parametrize("d", [3, 4])
def test_opnorm_is_stable_above_d2(d):
    """Above d = 2 the norm is a stable function of the block: a relative
    1e-13 perturbation of every coefficient moves it by at most 1e-12
    relative, on 200 random one-column blocks of each degree.  Without
    the shift, about 1 in 100 degree-3 blocks moves by 1e-4 or more."""
    plan = _fit_plan(d, 4)
    rng = np.random.default_rng(40 + d)
    for l, rows, M in plan.blocks:
        E = plan.E[rows]
        b = rng.standard_normal((200, E.shape[0], 1))
        moved = b * (1 + 1e-13 * rng.uniform(-1, 1, size=b.shape))
        ref = _opnorms(b, l, E, plan.dirs, M)
        assert np.all(np.abs(_opnorms(moved, l, E, plan.dirs, M) - ref)
                      <= 1e-12 * ref)


def _reference_top_d_basis(M, d):
    w, vecs = np.linalg.eigh(M)
    gap = w[-d] - w[-d - 1] if len(w) > d else w[-d]
    if gap < 1e-12:
        raise ValueError("degenerate covariance: top-%d eigengap %.3e "
                         "below 1e-12" % (d, gap))
    return vecs[:, -d:][:, ::-1]


def _reference_fit(cloud, base_index, h_tilde, cfg):
    """The per-point fit loop that the chunked engine replaced: numpy
    lstsq and _ref_opnorm on one base point at a time, past the screen
    that _cap also applies.  Returns (basis, tensors, neighbor count,
    iterations)."""
    d = cloud.d
    base = cloud.points[base_index]
    diff = cloud.points - base
    dist = np.linalg.norm(diff, axis=1)
    sel = (dist > 0) & (dist < h_tilde)
    Z = diff[sel]
    if Z.shape[0] < d + 1:
        raise ValueError("need at least %d neighbors strictly inside "
                         "radius %g of point %d, found %d"
                         % (d + 1, h_tilde, base_index, Z.shape[0]))
    t_cap = cfg.t_cap if cfg.t_cap is not None else 1.0 / h_tilde
    plan = _fit_plan(d, cfg.k)

    B = _reference_top_d_basis(Z.T @ Z, d)
    prev_obj = np.inf
    iters = 0
    for it in range(cfg.max_iter):
        iters = it + 1
        xi = Z @ B
        rho = Z - xi @ B.T
        Phi = _features(xi, plan.E)
        b_new, *_ = np.linalg.lstsq(Phi, rho, rcond=None)
        for l, rows, M in plan.blocks:
            # the operator norm is at most the Frobenius norm: _cap's screen
            if np.linalg.norm(b_new[rows]) <= t_cap * (1 - 1e-9):
                continue
            nrm = _ref_opnorm(b_new[rows], l, plan.E[rows], plan.dirs, M)
            if nrm > t_cap:
                b_new[rows] *= t_cap / nrm
        pred = Phi @ b_new
        obj = float(np.mean(np.sum((rho - pred) ** 2, axis=1)))
        if obj > prev_obj + 1e-12:
            iters -= 1
            break
        prev_obj = obj
        b = b_new
        Y = Z - pred
        B_new = _reference_top_d_basis(Y.T @ Y, d)
        delta = np.linalg.svd(B_new @ B_new.T - B @ B.T,
                              compute_uv=False)[0]
        B = B_new
        if delta < cfg.tol:
            break
    return (B, {l: b[rows] for l, rows, _ in plan.blocks}, Z.shape[0],
            iters)


def _sphere_case():
    """(carrier, base indices, config) of the 400-point sphere pin."""
    cloud = sample_sphere(400, 2, 3)
    carrier = PointCloud(points=s2_oracle_embedding(cloud.points, 0.25),
                         d=2, ambient_dim=8, seed=3)
    return carrier, range(400), TangentConfig(k=3, max_iter=100)


def _assert_matches_reference(batch, cloud, h, cfg, proj_tol, tensor_tol):
    for i, fit in batch.fits.items():
        B, tensors, count, iters = _reference_fit(cloud, i, h, cfg)
        assert (fit.neighbor_count, fit.iterations) == (count, iters)
        assert np.max(np.abs(fit.projector - B @ B.T)) <= proj_tol
        for l, T in tensors.items():
            assert np.max(np.abs(fit.tensors[l] - T)) <= tensor_tol


def test_sphere_fits_pinned_bit_for_bit(fits_digest):
    """sha256 over every fit's basis, tensors and iteration count on an
    oracle-embedded S^2 sample, which pins run-to-run determinism of the
    d = 2 fits.  The digest was recorded from the chunked engine with
    exact-product monomials: its stacked least squares and Gram-form cap
    move the last bits of k >= 3 fits away from the per-point loop's,
    which test_engine_matches_reference_fit bounds on this cloud."""
    batch = estimate_tangents(*_sphere_case())
    assert not batch.errors
    assert fits_digest(batch) == ("c262e049927de73fb398c32c3df8e834"
                                  "ba21a1882a38be57824f8633f85123e4")


_PINS = {
    (1, 2): "73c75e89381c19411523a611346d9f014d061c4d77a3cd3dd44bab18677192b6",
    (1, 3): "2b6720226eaab3e482a91f2d242d137fc44cd51ba9bbba2d802ace49e97edddb",
    (1, 4): "5eb2d69a66e928e7a74986dd07da92c78630831e1b76401c1f6bd4b57146077a",
    (2, 2): "29ae9a38a6a7bd586834742d2ef203db4dda718a7d63900ef556625b5c5d784f",
    (2, 3): "c654c38b8fac271e7780e6a0357159d0b3f5b4a30e6e860336ca662cd1e32562",
    (2, 4): "06130d6e866489d33b1aabeac725605b93b11903d8170372686a6d0e1f34bd0c",
    (3, 3): "c4e7bdd06d4a21c90ca2d0181f06bc020292441841b4ea21b7b81c9e77a7ac9c",
    (3, 4): "87674e7e1b8498b7cd74d921c2e7ea8d7054e35a89fe1be2d156b4b2062a964b",
}


def _pin_cloud(d, n=300):
    if d == 1:
        s = np.random.default_rng(5).uniform(0.0, 2 * np.pi, n)
        return PointCloud(points=np.stack([np.cos(s), np.sin(s)], axis=1),
                          d=1, ambient_dim=2, seed=5)
    if d == 3:
        return sample_sphere(n, 3, 5)
    params = EmbeddingParams(t=0.25, m=8, d=2)
    return EmbeddedCloud(s2_oracle_embedding(sample_sphere(n, 2, 5).points,
                                             0.25), params)


@pytest.mark.parametrize("d, k", sorted(_PINS))
def test_fits_pinned_bit_for_bit_at_every_order(fits_digest, d, k):
    """sha256 of the fits at every point of a unit circle (d = 1), of an
    oracle-embedded S^2 sample (d = 2) and of an S^3 sample (d = 3) at the
    default bandwidth rule.  The k = 2 digests were recorded while d = 1
    and k = 2 still had their own branches, and zero padding rows leave
    Z^T Z bit for bit, so the chunked engine keeps them.  The k >= 3
    digests were recorded from the chunked engine (see
    test_sphere_fits_pinned_bit_for_bit), the d = 3 ones with the shifted
    power rounds of _opnorms, without which both digests change.  The
    (1, 3) digest was recorded with 128-member stacks: their padding moved
    one tensor entry of one of its 300 fits by 2.8e-17, and no basis or
    iteration count.  On this
    circle the operator-norm cap does not bind (see
    test_poly_opnorm_d1_is_row_norm for where it does)."""
    cloud = _pin_cloud(d)
    batch = estimate_tangents(cloud, range(cloud.n), TangentConfig(k=k))
    assert not batch.errors
    assert fits_digest(batch) == _PINS[d, k]


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("d, k", [(1, 3), (2, 3), (3, 4)])
def test_fits_are_the_same_bits_for_any_worker_count(fits_digest, request,
                                                    monkeypatch, d, k, cpus):
    """The 300 points of a pin cloud make three stacks: two or three
    workers, switching threads every 10 us, fit them with the bits that
    one worker gives.  On the d = 1 and d = 3 clouds other stacks give
    other bits."""
    cloud, cfg = _pin_cloud(d), TangentConfig(k=k)
    assert -(-cloud.n // _CHUNK) == 3
    monkeypatch.setattr(gr, "_cpus", lambda: cpus)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        spread = fits_digest(estimate_tangents(cloud, range(cloud.n), cfg))
    finally:
        sys.setswitchinterval(interval)
    request.getfixturevalue("one_worker")
    one = fits_digest(estimate_tangents(cloud, range(cloud.n), cfg))
    assert one == spread == _PINS[d, k]


@pytest.mark.parametrize("d", [1, 2])
def test_k2_fit_is_local_pca(d):
    """At k = 2 there is no correction: the basis is the top-d
    eigenvectors of Z^T Z for the neighbour offsets Z, after one
    iteration, with no tensors."""
    cloud = _pin_cloud(d)
    h = 0.5
    for i in (0, 7, 123):
        Z = cloud.points - cloud.points[i]
        dist = np.linalg.norm(Z, axis=1)
        Z = Z[(dist > 0) & (dist < h)]
        vecs = np.linalg.eigh(Z.T @ Z)[1]
        fit = fit_local_polynomial(cloud, i, h, TangentConfig(k=2))
        assert np.array_equal(fit.basis, vecs[:, -d:][:, ::-1])
        assert fit.iterations == 1
        assert fit.tensors == {}


def test_poly_opnorm_d1_is_row_norm():
    """At d = 1 a degree block is one row b and the operator norm is |b|.
    The Gram form over the single direction 1 sums the squares in the
    order of its matrix product, as the d = 2 grid does, while norm(b)
    uses a BLAS dot.  The two differ only in summation order, by at most
    2 ulp on these rows, which moves the last bits of a d = 1 fit only
    where the cap binds."""
    rng = np.random.default_rng(11)
    for k in (3, 4, 5):
        plan = _fit_plan(1, k)
        assert plan.dirs.tolist() == [[1.0]]
        for l, rows, M in plan.blocks:
            for m in (1, 2, 3, 8, 20):
                b = rng.standard_normal((1, m)) * rng.uniform(0.01, 100.0)
                ref = float(np.linalg.norm(b.sum(axis=0)))
                got = _opnorms(b[None], l, plan.E[rows], plan.dirs, M)[0]
                assert abs(got - ref) <= 2 * np.spacing(ref)


@settings(max_examples=200)
@given(m=st.integers(1, 8), k=st.integers(1, 3),
       spread=st.sampled_from([0.0, 1e-12, 1e-6, 1e-2, 1.0, 1e3]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_subspace_angle_symmetric_in_unit_interval(m, k, spread, seed):
    k = min(k, m)
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((m, k)))[0]
    V = np.linalg.qr(U + spread * rng.standard_normal((m, k)))[0]
    a, b = subspace_angle(U, V), subspace_angle(V, U)
    assert 0.0 <= a <= 1.0
    assert abs(a - b) <= 1e-12


@pytest.mark.parametrize("case", ["sphere", (1, 3), (1, 4), (2, 3), (2, 4)])
def test_engine_matches_reference_fit(case):
    """On the clouds of the five k >= 3 digest pins, the chunked engine
    finds the same neighbours and takes the same iterations as the
    per-point loop, with projectors within 1e-12 and tensors within
    1e-10: stacked SVD least squares and the Gram-form cap differ from
    numpy lstsq and the direct grid max only by rounding."""
    if case == "sphere":
        cloud, idx, cfg = _sphere_case()
    else:
        cloud = _pin_cloud(case[0])
        idx, cfg = range(cloud.n), TangentConfig(k=case[1])
    h = tangent_bandwidth(cloud.n, cloud.d, cfg)
    batch = estimate_tangents(cloud, idx, cfg)
    assert not batch.errors and len(batch.fits) == cloud.n
    _assert_matches_reference(batch, cloud, h, cfg, 1e-12, 1e-10)


@settings(max_examples=60)
@given(n=st.integers(1, 40), dim=st.integers(1, 3),
       dup=st.integers(0, 10), seed=st.integers(0, 2 ** 32 - 1),
       h=st.sampled_from([0.1, 0.25, 0.3, 1.0 / 3.0, 0.7]))
def test_neighbors_are_the_open_ball_in_index_order(n, dim, dup, seed, h):
    """On lattices of spacing h (many points at distance exactly h, as
    rounded) with duplicated points, the tree's selection equals the
    brute-force open ball 0 < |x - base| < h, in index order."""
    rng = np.random.default_rng(seed)
    pts = rng.integers(-3, 4, size=(n, dim)) * h
    pts = np.vstack([pts, pts[rng.integers(0, n, size=dup)]])
    centers = list(range(len(pts)))
    got = _neighbors(cKDTree(pts), pts, centers, h)
    for c, idx in zip(centers, got):
        dist = np.linalg.norm(pts - pts[c], axis=1)
        assert np.array_equal(idx, np.flatnonzero((dist > 0) & (dist < h)))


def _mixed_cloud():
    """A curved patch, one isolated point and a segment whose points see
    only collinear neighbours, shuffled so one chunk holds all three."""
    rng = np.random.default_rng(3)
    uv = rng.uniform(-0.5, 0.5, size=(_CHUNK + 6, 2))
    patch = np.column_stack([uv, 0.3 * uv[:, 0] ** 2 - 0.2 * uv[:, 1] ** 2])
    lone = np.array([[5.0, 5.0, 5.0]])
    segment = np.column_stack([10.0 + 0.05 * np.arange(5), np.zeros(5),
                               np.zeros(5)])
    pts = np.vstack([patch, lone, segment])[rng.permutation(_CHUNK + 12)]
    return PointCloud(points=pts, d=2, ambient_dim=3, seed=3)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_chunk_fits_are_independent_and_errors_isolated(k):
    """A thin and a degenerate neighbourhood inside a chunk land in errors
    with the per-point messages and leave every other fit as it is when
    fitted alone; the base points span two chunks."""
    cloud, cfg, h = _mixed_cloud(), TangentConfig(k=k), 0.4
    idx = list(range(cloud.n))[::-1]
    batch = estimate_tangents(cloud, idx, cfg, h)
    assert len(idx) > _CHUNK
    assert list(batch.fits) + list(batch.errors) != idx   # errors interleave
    assert [i for i in idx if i in batch.fits] == list(batch.fits)
    assert [i for i in idx if i in batch.errors] == list(batch.errors)
    assert len(batch.errors) == 6
    kinds = set()
    for i, msg in batch.errors.items():
        with pytest.raises(ValueError) as ref:
            _reference_fit(cloud, i, h, cfg)
        assert msg == str(ref.value)
        kinds.add(msg.split(":")[0].split(" ")[0])
    assert kinds == {"need", "degenerate"}
    for i, fit in batch.fits.items():
        alone = estimate_tangents(cloud, [i], cfg, h).fits[i]
        assert fit.iterations == alone.iterations
        assert fit.neighbor_count == alone.neighbor_count
        assert np.max(np.abs(fit.projector - alone.projector)) <= 1e-12
        for l in fit.tensors:
            assert np.max(np.abs(fit.tensors[l] - alone.tensors[l])) <= 1e-12


@pytest.mark.parametrize("k", [3, 4])
def test_engine_matches_reference_fit_on_s3(k):
    """At d = 3 (every 5th point of a 500-point S^3 sample) the engine
    takes the reference loop's iterations, with projectors within 1e-12
    and tensors within 1e-10.  The reference caps each block with the
    production _opnorms on a one-member stack, so the two differ only by
    the least-squares rounding (about 1e-13), which the shifted rounds'
    stable value does not amplify."""
    cloud, cfg = sample_sphere(500, 3, 1), TangentConfig(k=k)
    h = tangent_bandwidth(cloud.n, 3, cfg)
    batch = estimate_tangents(cloud, range(0, 500, 5), cfg)
    assert not batch.errors and len(batch.fits) == 100
    _assert_matches_reference(batch, cloud, h, cfg, 1e-12, 1e-10)


@pytest.mark.parametrize("d, k", [(1, 4), (2, 3), (2, 5), (3, 4)])
def test_cap_scales_each_block_onto_the_cap(d, k):
    """_cap rescales exactly the blocks whose norm exceeds the cap, by
    cap / value; at d <= 2 its Gram form gives the direct grid max to
    rounding."""
    plan = _fit_plan(d, k)
    rng = np.random.default_rng(30 + 10 * d + k)
    b = (rng.standard_normal((40, plan.E.shape[0], 5))
         * rng.uniform(0.05, 1.5, size=(40, 1, 1)))
    capped = b.copy()
    _cap(capped, plan, 2.0)
    for l, rows, M in plan.blocks:
        nrm = np.array([_ref_opnorm(x, l, plan.E[rows], plan.dirs, M)
                        for x in b[:, rows]])
        scale = np.where(nrm > 2.0, 2.0 / nrm, 1.0)[:, None, None]
        assert np.allclose(capped[:, rows], b[:, rows] * scale,
                           rtol=1e-13, atol=0)
        assert 0 < np.sum(nrm > 2.0) < len(b)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("side", [0, 1])
def test_subspace_angle_refuses_nonfinite_bases(bad, side):
    """A NaN or inf entry in either basis is refused by the orthonormality
    check, not left to the SVD."""
    bases = [np.array([[1.0], [0.0]]), np.array([[1.0], [0.0]])]
    bases[side] = np.array([[bad], [0.0]])
    with pytest.raises(ValueError, match="orthonormal"):
        subspace_angle(*bases)


@settings(max_examples=300)
@given(D=st.integers(1, 13), d=st.integers(1, 13), a=st.integers(1, 4),
       offset=st.one_of(st.none(), st.floats(1e-9, 1e-3)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sin_angles_equal_the_projector_distance(D, d, a, offset, seed):
    """_sin_angles gives the operator-norm distance of the two projectors,
    which the stop test took before, for random and nearly equal planes,
    and is symmetric in its arguments."""
    d = min(d, D)
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((a, D, d)))[0]
    V = np.linalg.qr(rng.standard_normal((a, D, d)) if offset is None
                     else U + offset * rng.standard_normal((a, D, d)))[0]
    old = np.linalg.svd(U @ U.transpose(0, 2, 1) - V @ V.transpose(0, 2, 1),
                        compute_uv=False)[:, 0]
    got = _sin_angles(U, V)
    assert got.shape == (a,)
    assert np.all(np.abs(got - old) <= 1e-14)
    assert np.all(np.abs(got - _sin_angles(V, U)) <= 1e-14)


def test_sin_angles_of_one_pair_is_the_subspace_angle():
    """On a one-member stack, _sin_angles gives the bits of the unstacked
    U - V (V^T U) spectral norm, which subspace_angle returns."""
    rng = np.random.default_rng(38)
    for _ in range(2000):
        U = np.linalg.qr(rng.standard_normal((8, 2)))[0]
        V = np.linalg.qr(rng.standard_normal((8, 2)))[0]
        s = _sin_angles(U[None], V[None])[0]
        assert s == np.linalg.svd(U - V @ (V.T @ U), compute_uv=False)[0]
        assert s == subspace_angle(U, V)


def _unscreened_cap(b, plan, t_cap):
    """_cap without the Frobenius screen: _opnorms on every block."""
    for l, rows, M in plan.blocks:
        blk = b[:, rows]
        nrm = _opnorms(blk, l, plan.E[rows], plan.dirs, M)
        over = nrm > t_cap
        blk[over] *= (t_cap / nrm[over])[:, None, None]


@pytest.mark.parametrize("d, k", [(1, 3), (2, 3), (3, 4)])
@pytest.mark.parametrize("binding",
                         ["none", "screened", "edge", "some", "every"])
def test_screened_cap_gives_the_bits_of_the_unscreened_cap(d, k, binding):
    """The screened _cap leaves the same bits as _opnorms on every block
    when no member, some members or every member binds, and when the
    screen passes a block in which no member binds; "edge" puts two
    members' blocks at a Frobenius norm of t_cap (1 +- 1e-12), which at
    d = 1 is their operator norm."""
    plan = _fit_plan(d, k)
    rng = np.random.default_rng(7 * d + k)
    b = (rng.standard_normal((40, plan.E.shape[0], 5))
         * rng.uniform(0.05, 1.5, size=(40, 1, 1)))
    nrm = np.concatenate([_opnorms(b[:, rows], l, plan.E[rows], plan.dirs, M)
                          for l, rows, M in plan.blocks])
    fro = np.concatenate([np.linalg.norm(b[:, rows], axis=(1, 2))
                          for _, rows, _ in plan.blocks])
    t_cap = {"none": 2 * fro.max(), "edge": 2 * fro.max(),
             "screened": 0.5 * (nrm.max() + fro.max()),
             "some": np.median(nrm), "every": 0.5 * nrm.min()}[binding]
    if binding == "edge":
        for _, rows, _ in plan.blocks:
            for j, f in enumerate((1 + 1e-12, 1 - 1e-12)):
                b[j, rows] *= t_cap * f / np.linalg.norm(b[j, rows])
    want, got = b.copy(), b.copy()
    _unscreened_cap(want, plan, t_cap)
    _cap(got, plan, t_cap)
    assert want.tobytes() == got.tobytes()
    bound = np.concatenate([np.any(want[:, rows] != b[:, rows], axis=(1, 2))
                            for _, rows, _ in plan.blocks]).sum()
    if binding == "some":
        assert 0 < bound < len(nrm)
    else:
        assert bound == {"none": 0, "screened": 0, "every": len(nrm),
                         "edge": len(plan.blocks) if d == 1 else 0}[binding]


def test_default_tangent_study_takes_no_opnorm(monkeypatch):
    """No member of the default study comes near the cap, so the screen
    spares every _opnorms call."""
    calls = []

    def spy(*args):
        calls.append(args[1])
        return _opnorms(*args)

    monkeypatch.setattr("dmaplab.tangent._opnorms", spy)
    tangent_study(ExperimentConfig(ntilde_grid=(1000,), seeds=(1, 2)))
    assert calls == []
