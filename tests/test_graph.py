import importlib
import inspect
import os
import pkgutil
import signal
import sys
import threading
import time
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dmaplab
from dmaplab import cli
from dmaplab.experiments import ExperimentConfig, run_pipeline
from dmaplab.geometry import PointCloud, sample_sphere
import dmaplab.graph as gr
from dmaplab.graph import (KernelConfig, LaplacianSystem, ball_counts,
                           bandwidth, build_affinity, gaussian_kernel,
                           laplacian, system_from_cloud)
from dmaplab.spectral import eigensolve_smallest


def test_bandwidth_frozen_values():
    assert bandwidth(1000, 2) == pytest.approx(0.7890622799485141,
                                               abs=1e-15)
    assert bandwidth(10000, 2) == pytest.approx(0.716872134125873,
                                                abs=1e-15)


def test_bandwidth_decreasing_in_n():
    hs = [bandwidth(n, 2) for n in (100, 1000, 10000, 100000)]
    assert all(a > b for a, b in zip(hs, hs[1:]))


def test_bandwidth_needs_three_points():
    with pytest.raises(ValueError):
        bandwidth(2, 2)


def test_kernel_config_validation():
    KernelConfig(h=0.5, n=10, d=2)
    with pytest.raises(ValueError):
        KernelConfig(h=0.0, n=10, d=2)
    with pytest.raises(ValueError):
        KernelConfig(h=0.5, n=1, d=2)


@pytest.mark.parametrize("h", [-1.0, 0.0, -np.inf, np.nan, np.inf])
def test_graph_layer_refuses_a_bandwidth_not_finite_and_positive(h):
    cloud = sample_sphere(50, 2, 1)
    x = cloud.points
    calls = [lambda: KernelConfig(h=h, n=10, d=2),
             lambda: gaussian_kernel(x[0], x[1], h),
             lambda: build_affinity(cloud, h),
             lambda: ball_counts(cloud, h),
             lambda: laplacian(np.ones((3, 3)), h)]
    for call in calls:
        with pytest.raises(ValueError, match="^h must be positive and "
                                             "finite, got %s$" % h):
            call()


def test_gaussian_kernel_values():
    x = np.array([0.0, 0.0])
    y = np.array([1.0, 0.0])
    assert gaussian_kernel(x, x, 0.3) == 1.0
    assert gaussian_kernel(x, y, 0.5) == pytest.approx(np.exp(-1.0),
                                                       rel=1e-14)
    assert gaussian_kernel(x, y, 0.5) == gaussian_kernel(y, x, 0.5)
    with pytest.raises(ValueError):
        gaussian_kernel(x, np.zeros(3), 0.5)


def test_build_affinity_density_normalization():
    cloud = sample_sphere(40, 2, 1)
    h = 0.8
    W, q = build_affinity(cloud, h)
    assert W.shape == (40, 40)
    assert np.allclose(W, W.T, atol=1e-15)
    assert np.all(W > 0)
    # recompute one entry by hand
    K01 = gaussian_kernel(cloud.points[0], cloud.points[1], h)
    assert W[0, 1] == pytest.approx(K01 / (q[0] * q[1]), rel=1e-12)
    # self terms are kept, so q exceeds the off-diagonal mass alone
    assert np.all(q > 0)


def test_laplacian_annihilates_constants():
    cloud = sample_sphere(150, 2, 2)
    system = system_from_cloud(cloud)
    ones = np.ones(cloud.n)
    assert np.max(np.abs(system.L @ ones)) <= 1e-12


def test_laplacian_three_equidistant_points():
    # any three pairwise-equidistant points give the all-ones affinity up
    # to scale; -L then has eigenvalues {0, 1/h^2, 1/h^2}
    h = 0.7
    system = laplacian(np.ones((3, 3)), h)
    vals = np.sort(np.linalg.eigvalsh(-(system.L + system.L.T) / 2.0))
    assert vals[0] == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(vals[1:], 1.0 / h ** 2, rtol=1e-12)


def test_laplacian_rejects_bad_affinity():
    with pytest.raises(ValueError):
        laplacian(np.arange(9.0).reshape(3, 3), 0.5)   # asymmetric
    bad = np.ones((3, 3))
    bad[1, 1] = 0.0
    with pytest.raises(ValueError):
        laplacian(bad, 0.5)                            # dead diagonal
    with pytest.raises(ValueError):
        laplacian(np.ones((3, 3)), 0.0)                # zero bandwidth
    for value in (np.nan, np.inf):
        bad = np.ones((3, 3))
        bad[0, 1] = bad[1, 0] = value
        with pytest.raises(ValueError, match="W must be finite"):
            laplacian(bad, 0.5)                        # non-finite entry


def test_ball_counts_strict_inequality():
    h = 0.5
    pts = np.array([[0.0, 0.0], [h, 0.0], [0.0, 0.2]])
    cloud = PointCloud(points=pts, d=1, ambient_dim=2, seed=0)
    counts = ball_counts(cloud, h)
    # the pair at distance exactly h must not see each other
    assert counts.tolist() == [2, 1, 2]


def test_ball_counts_scale_with_density():
    cloud = sample_sphere(600, 2, 3)
    counts = ball_counts(cloud, 0.4)
    assert counts.min() >= 1
    # roughly n * (cap area / total area); just check the right ballpark
    frac = 0.25 * 0.4 ** 2          # (h/2)^2, cap fraction for small h
    assert counts.mean() > 600 * frac * 0.5


def test_system_from_cloud_wiring():
    cloud = sample_sphere(80, 2, 4)
    system = system_from_cloud(cloud)
    assert system.h == pytest.approx(bandwidth(80, 2), rel=1e-15)
    assert system.n == 80
    assert system.d == 2
    assert system.ball_counts is not None
    assert np.all(system.degree > 0)
    # explicit bandwidth is honoured
    other = system_from_cloud(cloud, h=0.9)
    assert other.h == 0.9


def test_system_deterministic():
    a = system_from_cloud(sample_sphere(60, 2, 9))
    b = system_from_cloud(sample_sphere(60, 2, 9))
    assert np.array_equal(a.L, b.L)
    assert np.array_equal(a.ball_counts, b.ball_counts)


# every n but 64 ends in a partial block of the 16-row passes over W, and
# every n above 128 in a partial 128-wide asymmetry tile
PARTIAL_N = [15, 17, 33, 63, 64, 65, 129, 300, 2001]


@pytest.mark.parametrize("n", PARTIAL_N)
def test_in_place_build_matches_old_expressions(n):
    """W, q, the degrees and the derived L equal, bit for bit, the
    temporaries-based expressions the graph layer used before it built W in
    place, row block by row block; every n but 64 ends in a partial block.
    Those expressions are the reference, so this cannot fail on the code
    that used them; it pins that the rewrite kept every bit."""
    cloud = sample_sphere(n, 2, 7)
    h = bandwidth(n, 2)
    x = cloud.points
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    K = np.exp(-d2 / (4.0 * h * h))
    q_old = K.sum(axis=1)
    W_old = K / np.outer(q_old, q_old)
    deg_old = W_old.sum(axis=1)
    L_old = (W_old / deg_old[:, None] - np.eye(n)) / (h * h)
    W, q = build_affinity(cloud, h)
    assert np.array_equal(W, W_old) and np.array_equal(q, q_old)
    system = system_from_cloud(cloud)
    assert np.array_equal(system.W, W_old)
    assert np.array_equal(system.degree, deg_old)
    assert np.array_equal(system.L, L_old)


@pytest.mark.parametrize("n", PARTIAL_N)
def test_row_stats_match_whole_array_reductions(n):
    W, _ = build_affinity(sample_sphere(n, 2, 7), bandwidth(n, 2))
    deg, hi, lo = gr._row_stats(W)
    assert np.array_equal(deg, W.sum(axis=1))
    assert hi == W.max() and lo == W.min()
    assert np.array_equal(laplacian(W, 0.8).degree, W.sum(axis=1))


def test_laplacian_checks_finiteness_first():
    # each W below would fail the symmetry, diagonal and degree checks too
    for value in (np.nan, np.inf, -np.inf):
        W, _ = build_affinity(sample_sphere(33, 2, 3), 0.8)
        W[20, 3] = value
        W[4, 4] = 0.0
        W[9] = -1.0
        with pytest.raises(ValueError, match="W must be finite"):
            laplacian(W, 0.8)


def test_laplacian_checks_allocate_no_square_array(peak_bytes):
    n = 1500
    W, _ = build_affinity(sample_sphere(n, 2, 2), bandwidth(n, 2))
    assert peak_bytes(lambda: laplacian(W, 0.8)) < 0.05 * 8 * n * n


def test_system_stores_w_as_its_only_square_array():
    assert "L" not in {f.name for f in fields(LaplacianSystem)}
    system = system_from_cloud(sample_sphere(50, 2, 1))
    square = [f.name for f in fields(system)
              if np.ndim(getattr(system, f.name)) == 2]
    assert square == ["W"]


def test_system_from_cloud_holds_two_square_arrays_at_most(peak_bytes):
    n = 1500
    cloud = sample_sphere(n, 2, 2)
    assert peak_bytes(lambda: system_from_cloud(cloud)) < 2.5 * 8 * n * n


def test_system_from_cloud_holds_one_square_array_and_a_block(peak_bytes):
    # W plus row-block temporaries; the build kept two n x n arrays before
    n = 1500
    cloud = sample_sphere(n, 2, 2)
    assert peak_bytes(lambda: system_from_cloud(cloud)) < 1.25 * 8 * n * n


@pytest.mark.parametrize("n, i, j", [(130, 129, 128), (130, 5, 100),
                                     (300, 299, 290), (300, 5, 200),
                                     (300, 290, 5)],
                         ids=["last-partial-tile", "diagonal-tile",
                              "last-partial-tile-300", "off-diagonal-tile",
                              "off-diagonal-partial-tile"])
def test_laplacian_rejects_one_asymmetric_pair(n, i, j):
    # 128-wide tiles: n = 130 tiles as 128 + 2, n = 300 as 128 + 128 + 44.
    # (129, 128) and (299, 290) sit in the last, partial diagonal tile,
    # (5, 100) in the first diagonal tile, (5, 200) in the off-diagonal tile
    # of rows 0-127 and columns 128-255, (290, 5) in the partial one of rows
    # 256-299 and columns 0-127
    assert gr._TILE == 128
    W, _ = build_affinity(sample_sphere(n, 2, 3), 0.8)
    laplacian(W, 0.8)
    W[i, j] += 1e-9
    with pytest.raises(ValueError, match="W must be symmetric"):
        laplacian(W, 0.8)


def _rotation(seed):
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))[0]


@settings(derandomize=True, max_examples=20, deadline=None)
@given(n=st.integers(20, 200), seed=st.integers(0, 2 ** 16),
       rot_seed=st.integers(0, 2 ** 16))
def test_sphere_system_invariances(n, seed, rot_seed):
    """A rotated cloud gives the same W and mu; the derived L annihilates
    constants and -L has a symmetric PSD form.  These hold for any correct
    graph layer, so this cannot fail at a correct parent; it guards the
    in-place build and the derived L against regressions."""
    cloud = sample_sphere(n, 2, seed)
    turned = PointCloud(points=cloud.points @ _rotation(rot_seed).T, d=2,
                        ambient_dim=3, seed=seed)
    a, b = system_from_cloud(cloud), system_from_cloud(turned)
    assert np.max(np.abs(a.W - b.W)) <= 1e-10 * np.max(a.W)
    mu_a = eigensolve_smallest(a, 8).mu
    mu_b = eigensolve_smallest(b, 8).mu
    assert np.max(np.abs(mu_a - mu_b)) <= 1e-10
    L = a.L
    assert np.max(np.abs(L @ np.ones(n))) <= 1e-12
    r = np.sqrt(a.degree)
    S = -(r[:, None] * L / r[None, :])
    assert np.max(np.abs(S - S.T)) <= 1e-12
    assert np.linalg.eigvalsh(0.5 * (S + S.T))[0] >= -1e-10


def test_spread_cuts_contiguous_nonempty_shares_in_order(monkeypatch):
    monkeypatch.setattr(gr, "_cpus", lambda: 3)
    assert gr._spread(list, list(range(10))) == [[0, 1, 2], [3, 4, 5],
                                                 [6, 7, 8, 9]]
    assert gr._spread(list, range(2)) == [[0], [1]]
    assert gr._spread(len, []) == []


def _worker_sensitive_results(n):
    cloud = sample_sphere(n, 2, 5)
    system = system_from_cloud(cloud)
    W, q = build_affinity(cloud, system.h)
    spec = eigensolve_smallest(system, 8)
    rng = np.random.default_rng(n)
    bent = W * (1.0 + 1e-9 * rng.standard_normal(W.shape))
    return [system.W, q, system.degree, system.ball_counts, spec.mu,
            spec.vec_raw, *gr._row_stats(bent), gr._asymmetry(bent)]


# with two or more workers, each n ends the 16-row passes in a partial
# block inside the last share (130 = 8*16 + 2, 300 = 18*16 + 12,
# 1001 = 62*16 + 9) and the 128-wide tiles in a partial tile
@pytest.mark.parametrize("n", [130, 300, 1001])
def test_one_worker_and_the_default_give_the_same_bits(n, request):
    default = _worker_sensitive_results(n)
    request.getfixturevalue("one_worker")
    assert gr._cpus() == 1
    for a, b in zip(default, _worker_sensitive_results(n), strict=True):
        assert np.array_equal(a, b)


def test_more_shares_than_cpus_under_fast_thread_switching(monkeypatch):
    # workers write disjoint slices of W, q and the degrees; five shares on
    # a pool of at most os.cpu_count() threads, switching every 10 us, must
    # still give the one-worker bits
    monkeypatch.setattr(gr, "_cpus", lambda: 1)
    reference = _worker_sensitive_results(300)
    monkeypatch.setattr(gr, "_cpus", lambda: 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        results = _worker_sensitive_results(300)
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(reference, results, strict=True):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [130, 300])
def test_faults_in_the_last_share_are_caught_and_the_pool_survives(n):
    # the last row block and the last diagonal tile fall in the last share
    # at any worker count
    W, _ = build_affinity(sample_sphere(n, 2, 3), 0.8)
    bad = W.copy()
    bad[n - 1, n - 2] = bad[n - 2, n - 1] = np.nan
    with pytest.raises(ValueError, match="W must be finite"):
        laplacian(bad, 0.8)
    bad = W.copy()
    bad[n - 1, n - 2] += 1e-9
    with pytest.raises(ValueError, match="W must be symmetric"):
        laplacian(bad, 0.8)
    with pytest.raises(ZeroDivisionError):
        gr._spread(lambda share: 1 / 0, range(4))
    assert np.array_equal(laplacian(W, 0.8).degree, W.sum(axis=1))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_spreads_on_a_pool_of_its_own():
    # one busy share per CPU: the parent's pool starts every thread it may,
    # and they all sit idle at the fork
    gr._spread(lambda share: time.sleep(0.05), list(range(10)))
    pid = os.fork()
    if pid == 0:
        os._exit(0 if sum(gr._spread(len, list(range(10)))) == 10 else 1)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.01)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child waited on the parent's pool threads")
    assert os.waitstatus_to_exitcode(status) == 0


def _dmaplab_threads():
    return [t.name for t in threading.enumerate()
            if t.name.startswith("dmaplab")]


def test_no_thread_outlives_the_call(tmp_path):
    run_pipeline(ExperimentConfig(), 300, 1)
    assert _dmaplab_threads() == []
    assert cli.main(["laplacian", "--n", "300", "--out", str(tmp_path)]) == 0
    assert _dmaplab_threads() == []
    with pytest.raises(ZeroDivisionError):
        gr._spread(lambda share: 1 / 0, range(4))
    assert _dmaplab_threads() == []


def test_every_public_call_runs_on_the_main_thread(monkeypatch, tmp_path):
    """Wrap every public function of the dmaplab modules on each binding
    that holds it, as the benchmark's span tracer does; its one span stack
    needs every public call on the caller's thread, never in a pool task."""
    modules = [importlib.import_module("dmaplab." + info.name)
               for info in pkgutil.iter_modules(dmaplab.__path__)
               if info.name != "__main__"]
    holders = [dmaplab] + modules
    calls, off_main = [], []

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            if threading.current_thread() is not threading.main_thread():
                off_main.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for mod in modules:
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            wrapped = wrap("%s.%s" % (mod.__name__, attr), fn)
            for holder in holders:
                for key, val in list(vars(holder).items()):
                    if val is fn:
                        monkeypatch.setattr(holder, key, wrapped)
    run_pipeline(ExperimentConfig(), 300, 1)
    assert cli.main(["laplacian", "--n", "300", "--out", str(tmp_path)]) == 0
    assert {"dmaplab.graph.build_affinity", "dmaplab.graph.ball_counts",
            "dmaplab.graph.laplacian",
            "dmaplab.spectral.eigensolve_smallest",
            "dmaplab.io.save_matrix_coo"} <= set(calls)
    assert off_main == []
