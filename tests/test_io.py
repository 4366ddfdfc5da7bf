import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dmaplab.geometry import PointCloud, sample_sphere
from dmaplab.io import (BOUNDS_TAG, CLOUD_TAG, EIGEN_TAG, RUN_FIELDS,
                        TABLE_TAG, emit_csv, load_cloud, read_kv, record_row,
                        save_bounds_table, save_cloud, save_eigen,
                        save_matrix_coo, save_table, save_tangents)
from dmaplab.spectral import SpectralSet


def test_cloud_round_trip(tmp_path):
    cloud = sample_sphere(37, 2, 5)
    path = tmp_path / "cloud.csv"
    save_cloud(cloud, path)
    back = load_cloud(path)
    assert back.n == 37 and back.d == 2 and back.ambient_dim == 3
    assert back.seed == 5
    assert np.array_equal(back.points, cloud.points)   # 17 digits: exact


def test_load_cloud_rejects_unknown_version(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# dmaplab cloud 99\n")
    with pytest.raises(ValueError, match="line 1"):
        load_cloud(path)


def test_load_cloud_reports_bad_row(tmp_path):
    path = tmp_path / "bad.csv"
    for rows, line in (("2,1,2,0\n0.0,0.0\n0.0,oops\n", "line 5"),
                       ("3,2,x,1\n", "line 3: malformed metadata row")):
        path.write_text(CLOUD_TAG + "\ndim_ambient,d,n,seed\n" + rows)
        with pytest.raises(ValueError, match=line):
            load_cloud(path)


def test_load_cloud_row_count_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(CLOUD_TAG + "\ndim_ambient,d,n,seed\n2,1,3,0\n"
                    "0.0,0.0\n")
    with pytest.raises(ValueError):
        load_cloud(path)


def test_emit_csv_empty_is_header_only(tmp_path):
    path = tmp_path / "runs.csv"
    emit_csv([], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1] == ",".join(RUN_FIELDS)


def test_record_row_layout():
    from dmaplab.experiments import RunRecord
    rec = RunRecord(n=10, seed=3, h=0.5, t=0.25, m=8,
                    eigenvalue_errors=[0.0, 0.1],
                    eigenvector_sup_errors=[0.2],
                    embedding_error=0.3, tangent_angle_median=0.4,
                    tangent_angle_max=0.5, first_cluster_mean=1.9,
                    pattern_matched=True, status="ok", wall_time=7.0)
    row = record_row(rec)
    cells = row.split(",")
    assert len(cells) == len(RUN_FIELDS)
    assert cells[0] == "10"
    assert cells[5] == "0;0.10000000000000001"
    assert cells[-2] == "ok"
    assert cells[-1] == "7"                    # wall time stays last
    # identical records collide on everything except wall time
    rec2 = RunRecord(**{**rec.__dict__, "wall_time": 9.0})
    assert record_row(rec2).rsplit(",", 1)[0] == row.rsplit(",", 1)[0]


def test_save_tangents_nan_for_missing(tmp_path):
    from dmaplab.tangent import TangentConfig, fit_local_polynomial
    rng = np.random.default_rng(0)
    U = np.linalg.qr(rng.normal(size=(3, 2)))[0]
    pts = rng.uniform(-1, 1, size=(50, 2)) @ U.T
    cloud = PointCloud(points=pts, d=2, ambient_dim=3, seed=0)
    fit = fit_local_polynomial(cloud, 0, 0.9, TangentConfig(k=3))
    path = tmp_path / "tan.csv"
    save_tangents([fit], path, angles={})
    lines = path.read_text().splitlines()
    assert lines[1].startswith("base_index,")
    assert lines[2].split(",")[1] == "nan"


def test_save_matrix_coo(tmp_path):
    M = np.array([[1.0, 0.0], [1e-15, 2.0]])
    path = tmp_path / "m.csv"
    save_matrix_coo(M, path, drop_tol=1e-12)
    lines = path.read_text().splitlines()
    # diagonal always kept, tiny off-diagonal dropped
    assert len(lines) == 2 + 2
    assert lines[2] == "0,0,1"
    # a zero diagonal entry, dropped entries and both non-square shapes,
    # line for line against the per-entry rule
    M = np.array([[0.0, 0.5, 1e-13, -2.0],
                  [1e-13, 0.0, 3.0, 0.0],
                  [0.25, -1e-13, 1.0 / 3.0, 7.0]])
    for A in (M, M.T):
        for drop_tol in (0.0, 1e-12):
            save_matrix_coo(A, path, drop_tol=drop_tol)
            expect = ["%d,%d,%s" % (i, j, "%.17g" % v)
                      for i, row in enumerate(A.tolist())
                      for j, v in enumerate(row)
                      if abs(v) > drop_tol or i == j]
            assert path.read_text().splitlines()[2:] == expect


def test_save_bounds_table(tmp_path):
    path = tmp_path / "b.csv"
    save_bounds_table([("thing", {"d": 2, "t": 0.25}, 1.5)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == BOUNDS_TAG
    assert lines[1] == "name,inputs,value"
    assert lines[2] == "thing,d=2;t=0.25,1.5"


def test_save_table_cell_types(tmp_path):
    path = tmp_path / "t.csv"
    save_table(path, ("a", "b", "c", "d"),
               [(1, 0.5, "x", True), (2, 1.0 / 3.0, "y", False)])
    lines = path.read_text().splitlines()
    assert lines[0] == TABLE_TAG
    assert lines[1] == "a,b,c,d"
    assert lines[2] == "1,0.5,x,1"
    assert lines[3].startswith("2,0.33333333333333331,y,0")


def test_read_kv(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("# comment\n\nalpha = 3\nbeta=x y\n")
    assert read_kv(path) == [(3, "alpha", "3"), (4, "beta", "x y")]
    bad = tmp_path / "bad"
    bad.write_text("fine = 1\nnot a pair\n")
    with pytest.raises(ValueError, match="line 2"):
        read_kv(bad)


# Property tests that guard `_table`, the row writer every table but the COO
# dump and runs.csv goes through.  They held as well when each writer
# formatted its own lines, so they cannot fail before it; they keep it
# bit-exact.
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_ROUND_TRIP = settings(max_examples=60, suppress_health_check=[
    HealthCheck.function_scoped_fixture])


@_ROUND_TRIP
@given(pts=arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 4)),
                  elements=_FINITE),
       seed=st.integers(0, 2 ** 63 - 1))
def test_cloud_round_trip_bit_exact(tmp_path, pts, seed):
    cloud = PointCloud(points=pts, d=1, ambient_dim=pts.shape[1], seed=seed)
    save_cloud(cloud, tmp_path / "cloud.csv")
    back = load_cloud(tmp_path / "cloud.csv")
    assert (back.d, back.ambient_dim, back.seed) == (1, pts.shape[1], seed)
    assert back.points.tobytes() == pts.tobytes()


@_ROUND_TRIP
@given(V=arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 4)),
                elements=_FINITE),
       data=st.data())
def test_save_eigen_bit_exact(tmp_path, V, data):
    k = V.shape[1]
    mu = data.draw(arrays(np.float64, k, elements=_FINITE))
    spec = SpectralSet(mu=mu, vec_raw=V, vec_norm=None,
                       clusters=[[0], list(range(1, k))] if k > 1 else [[0]])
    save_eigen(spec, tmp_path / "eigen.csv")
    lines = (tmp_path / "eigen.csv").read_text().splitlines()
    assert lines[0] == EIGEN_TAG
    rows = np.array([[float(c) for c in line.split(",")]
                     for line in lines[2:]])
    assert rows[:, 0].tolist() == list(range(k))
    assert rows[:, 2].tolist() == [0] + [1] * (k - 1)
    assert rows[:, 1].tobytes() == mu.tobytes()
    assert rows[:, 3:].T.copy().tobytes() == V.tobytes()
