import numpy as np
import pytest

from dmaplab.embedding import (EmbeddedCloud, EmbeddingParams, embed_points,
                               embedding_error, select_diffusion_time,
                               select_eps_prime)
from dmaplab.geometry import embedding_scale, s2_oracle_embedding
from dmaplab.spectral import SpectralSet


def _params(**kw):
    base = dict(t=0.25, m=8, eps=0.05, eps_prime=None, d=2, kappa=0.0,
                iota=np.pi)
    base.update(kw)
    return EmbeddingParams(**base)


def test_select_diffusion_time():
    assert select_diffusion_time(0.25, np.pi) == 0.25
    assert select_diffusion_time(10.0, np.pi) == pytest.approx(
        np.pi ** 2 / 4.0, rel=1e-15)
    assert select_diffusion_time(10.0, 100.0) == 4.0
    with pytest.raises(ValueError):
        select_diffusion_time(0.0, 1.0)


def test_select_eps_prime_flat_values():
    assert select_eps_prime(0.25, 2, 0.0) == pytest.approx(
        1.0 / (8.0 * np.pi), rel=1e-14)
    assert select_eps_prime(0.5, 2, 0.0) == pytest.approx(
        1.0 / (16.0 * np.pi), rel=1e-14)


def test_select_eps_prime_curved():
    # recompute the displayed formula by hand for kappa > 0
    t, d, kappa = 0.3, 3, 0.5
    beta = np.sqrt(kappa) * (d - 1)
    expect = (4 * np.pi * t) ** (-1.5) / 8.0 * np.exp(
        -beta ** 2 * t / 4.0 - 2.0 * np.sqrt(3.0 * d * t) * beta / 3.0)
    assert select_eps_prime(t, d, kappa) == pytest.approx(expect, rel=1e-14)
    # curvature only shrinks the slack
    assert select_eps_prime(t, d, kappa) < select_eps_prime(t, d, 0.0)


def test_embedding_params_validation():
    _params()
    with pytest.raises(ValueError):
        _params(t=0.0)
    with pytest.raises(ValueError):
        _params(m=1)                       # below intrinsic dimension
    with pytest.raises(ValueError):
        _params(eps=0.2)                   # above the 1/6 cap at d=2
    with pytest.raises(ValueError):
        _params(eps_prime=-1.0)


def test_embedded_cloud_rejects_nonfinite():
    with pytest.raises(ValueError):
        EmbeddedCloud(points=np.array([[np.inf, 0.0]]), params=_params(m=2))


def test_embed_points_formula():
    rng = np.random.default_rng(0)
    n, m = 30, 3
    mu = np.array([0.0, 2.1, 2.2, 2.3])
    V = rng.normal(size=(n, 4))
    spec = SpectralSet(mu=mu, vec_raw=V.copy(), vec_norm=V.copy(),
                       clusters=[[0], [1, 2, 3]])
    params = _params(m=m)
    emb = embed_points(spec, params, provenance=(n, 0.5, 1))
    t = params.t
    for i in range(1, m + 1):
        col = embedding_scale(t, 2) * np.exp(-mu[i] * t / 2.0) * V[:, i]
        assert np.allclose(emb.points[:, i - 1], col, atol=1e-15)
    assert emb.provenance == (n, 0.5, 1)
    assert emb.n == n


def test_embed_points_needs_normalization():
    spec = SpectralSet(mu=np.zeros(4), vec_raw=np.ones((5, 4)),
                       vec_norm=None, clusters=[[0, 1, 2, 3]])
    with pytest.raises(ValueError):
        embed_points(spec, _params(m=3))


def test_embed_points_m_bound():
    V = np.ones((5, 3))
    spec = SpectralSet(mu=np.zeros(3), vec_raw=V, vec_norm=V,
                       clusters=[[0, 1, 2]])
    with pytest.raises(ValueError):
        embed_points(spec, _params(m=8))


def test_embedding_error_rotation_invariance():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(80, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    T = s2_oracle_embedding(pts, 0.25)
    clusters = [[0, 1, 2], [3, 4, 5, 6, 7]]
    E = T.copy()
    for g in clusters:
        Q, _ = np.linalg.qr(rng.normal(size=(len(g), len(g))))
        E[:, g] = T[:, g] @ Q.T
    assert embedding_error(E, T, clusters) <= 1e-12
    # a genuine perturbation is reported at its size
    E2 = T.copy()
    E2[0, 0] += 0.01
    err = embedding_error(E2, T, [[j] for j in range(8)])
    assert 0.004 < err <= 0.011


def test_embedding_error_cluster_cover():
    T = np.zeros((4, 3))
    with pytest.raises(ValueError):
        embedding_error(T, T, [[0, 1]])            # misses coordinate 2
    with pytest.raises(ValueError):
        embedding_error(T, np.zeros((5, 3)), [[0, 1, 2]])


def test_embedding_error_orthogonal_blocks_do_not_raise():
    # subspace_align refuses these blocks; embedding_error still answers
    E = np.eye(6)[:, :2]
    T = np.eye(6)[:, 2:4]
    err = embedding_error(E, T, [[0, 1]])
    assert np.isfinite(err)
    # E Q and T live on disjoint rows, each of unit length
    assert err == pytest.approx(1.0, rel=1e-12)
