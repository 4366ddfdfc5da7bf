import os
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dmaplab import io as dio
from dmaplab.geometry import PointCloud, sample_sphere
from dmaplab.graph import bandwidth, build_affinity
from dmaplab.io import (BOUNDS_TAG, CLOUD_TAG, COO_TAG, EIGEN_TAG, RUN_FIELDS,
                        TABLE_TAG, emit_csv, load_cloud, read_kv, record_row,
                        save_bounds_table, save_cloud, save_eigen,
                        save_matrix_coo, save_table, save_tangents)
from dmaplab.spectral import SpectralSet


def test_cloud_round_trip(tmp_path):
    cloud = sample_sphere(37, 2, 5)
    path = tmp_path / "cloud.csv"
    save_cloud(cloud, path)
    assert path.read_text().splitlines()[:3] == [
        "# dmaplab cloud 1", "dim_ambient,d,n,seed", "3,2,37,5"]
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
    assert lines[1] == ("n,seed,h,t,m,eigenvalue_errors,"
                        "eigenvector_sup_errors,embedding_error,"
                        "tangent_angle_median,tangent_angle_max,"
                        "first_cluster_mean,pattern_matched,status,wall_time")


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


@pytest.mark.parametrize("status", [
    "embed-errors: rank collapse in cross-product; blocks nearly "
    "orthogonal, alignment undetermined",
    "eigen: residual contract violated at indices [0, 3], norms "
    "[0.1 0.2]"])
def test_status_with_commas_stays_one_cell(tmp_path, status):
    """A string cell writes each ',' as ';', so every runs.csv row has as
    many cells as the header."""
    from dmaplab.experiments import RunRecord
    path = tmp_path / "runs.csv"
    emit_csv([RunRecord(n=10, seed=1, status=status)], path)
    cells = path.read_text().splitlines()[2].split(",")
    assert len(cells) == len(RUN_FIELDS)
    assert cells[-2] == status.replace(",", ";")


def test_writers_make_the_artifact_directory(tmp_path):
    path = tmp_path / "a" / "b" / "t.csv"
    save_table(path, ("a",), [(1,)])
    assert path.read_text().splitlines()[2] == "1"


def test_rewrite_replaces_a_regular_file_and_writes_through_others(
        tmp_path):
    """An artifact rewritten at its path is a new file with the new bytes;
    a symlink and os.devnull are written through, never removed."""
    path = tmp_path / "t.csv"
    save_table(path, ("a",), [(1,), (2,)])
    old = path.stat().st_ino
    keep = tmp_path / "old.csv"
    os.link(path, keep)
    save_table(path, ("a",), [(3,)])
    assert path.read_text().splitlines()[2:] == ["3"]
    assert keep.read_text().splitlines()[2:] == ["1", "2"]
    assert path.stat().st_ino != old
    link = tmp_path / "link.csv"
    link.symlink_to(path)
    save_table(link, ("a",), [(4,)])
    assert link.is_symlink() and path.read_text().splitlines()[2:] == ["4"]
    save_table(os.devnull, ("a",), [(5,)])
    assert not os.path.isfile(os.devnull) and os.path.exists(os.devnull)


def test_save_tangents_nan_for_missing(tmp_path):
    from dmaplab.tangent import TangentConfig, fit_local_polynomial
    rng = np.random.default_rng(0)
    U = np.linalg.qr(rng.normal(size=(3, 2)))[0]
    pts = rng.uniform(-1, 1, size=(50, 2)) @ U.T
    cloud = PointCloud(points=pts, d=2, seed=0)
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


def _reference_coo(M, path, drop_tol=0.0):
    """The per-row template writer that the vectorized dump replaced: each
    row joins its kept columns' line templates and fills them with one %
    call.  It opens and writes its own file, so no change to the writers
    under test can move its bytes."""
    M = np.asarray(M)
    cols = np.arange(M.shape[1])
    line = ["%%d,%d,%s\n" % (j, "%.17g") for j in cols]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("%s\nrow,col,value\n" % COO_TAG)
        for i, row in enumerate(M):
            keep = np.flatnonzero((np.abs(row) > drop_tol) | (cols == i))
            args = [i] * (2 * len(keep))
            args[1::2] = row[keep].tolist()
            fh.write("".join([line[j] for j in keep]) % tuple(args))


def _g17_text(x):
    """The values `_g17_lines` writes for x, one string per value."""
    out = dio._g17_lines(np.asarray(x, dtype=np.float64))
    assert out.shape == (len(x), 32)
    return out[out != 0].tobytes().decode("ascii").split("\n")[:-1]


def _percent_g17(x):
    return ["%.17g" % v for v in np.asarray(x, dtype=np.float64).tolist()]


@settings(max_examples=200)
@given(x=arrays(np.float64, st.integers(1, 40),
                elements=st.floats(allow_subnormal=True)))
def test_g17_lines_matches_percent_g17(x):
    assert _g17_text(x) == _percent_g17(x)


def test_g17_lines_matches_percent_g17_on_named_values():
    """Every power of ten from 1e-300 to 1e300 with both neighbours (which
    catch a log10 exponent that is off by one), exact 17-digit ties, the
    fixed-notation range [1e-4, 1e17), subnormals, +-0, +-inf and nan, each
    also negated."""
    tens = np.array([float("1e%d" % e) for e in range(-300, 301)])
    rng = np.random.default_rng(0)
    x = np.concatenate([
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
        np.arange(43, 419, 2) / 2.0 ** 22,     # v * 10^21 = odd / 2
        10.0 ** rng.uniform(-4.0, 17.0, 2000),
        [9.9999999999999996e-281, 5e-324, 2.2250738585072009e-308,
         np.finfo(np.float64).tiny, np.finfo(np.float64).max,
         0.0, np.inf, np.nan]])
    x = np.concatenate([x, -x])
    assert _g17_text(x) == _percent_g17(x)


@pytest.mark.parametrize("shift", [-1.0, 1.0])
def test_g17_lines_survives_a_log10_off_by_one(monkeypatch, shift):
    """With every decimal exponent from log10 one too small or one too
    large, the digit checks send each value to the %.17g fallback."""
    log10 = np.log10
    monkeypatch.setattr(dio.np, "log10", lambda v: log10(v) + shift)
    x = np.random.default_rng(1).uniform(-3.0, 3.0, 3000)
    x = np.sign(x) * 10.0 ** (100 * x)
    assert _g17_text(x) == _percent_g17(x)


def test_g17_lines_matches_percent_g17_on_random_bit_patterns():
    x = np.random.default_rng(20240).integers(
        0, 2 ** 64, size=10 ** 6, dtype=np.uint64).view(np.float64)
    assert _g17_text(x) == _percent_g17(x)


@pytest.mark.parametrize("drop_tol", [0.0, 1e-12])
@pytest.mark.parametrize("n", [65, 129, 300])
def test_save_matrix_coo_matches_reference_bytes(tmp_path, n, drop_tol):
    """An affinity W, byte for byte as the per-row template writer wrote
    it; n = 65 and 129 end in a partial row block, and at n = 65 some
    entries lie in %g's fixed-notation range."""
    W, _ = build_affinity(sample_sphere(n, 2, n), bandwidth(n, 2))
    save_matrix_coo(W, tmp_path / "new.csv", drop_tol=drop_tol)
    _reference_coo(W, tmp_path / "old.csv", drop_tol=drop_tol)
    assert ((tmp_path / "new.csv").read_bytes()
            == (tmp_path / "old.csv").read_bytes())


def test_save_matrix_coo_special_values(tmp_path):
    """Zeros, the smallest subnormal, nan and +-inf, on and off the
    diagonal, are written as %.17g writes them, with no RuntimeWarning."""
    M = np.array([[0.0, -0.0, 5e-324, np.nan],
                  [np.inf, -0.0, -np.inf, 1.0],
                  [-5e-324, np.nan, np.nan, 0.0],
                  [-np.inf, 0.0, 1e-300, np.inf]])
    for A in (M.T, M):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            save_matrix_coo(A, tmp_path / "new.csv")
        _reference_coo(A, tmp_path / "old.csv")
        lines = (tmp_path / "new.csv").read_text().splitlines()
        assert lines == (tmp_path / "old.csv").read_text().splitlines()
        assert {"0,0,0", "1,1,-0", "2,2,nan", "3,3,inf"} <= set(lines)
    assert lines[2:6] == ["0,0,0", "0,2,4.9406564584124654e-324", "1,0,inf",
                          "1,1,-0"]


@pytest.mark.parametrize("special", [0.0, 5e-324, np.nan, -np.inf, 0.5])
def test_save_matrix_coo_fallback_values_at_block_edges(tmp_path, special):
    """A value that only `_F` itself writes, as the first and the last line
    of a row block, between row blocks whose every value the arithmetic
    decides: M is block-diagonal in `_COO_ROWS`-square blocks, and the
    middle block's first and last diagonal entries hold the value."""
    R = dio._COO_ROWS
    rng = np.random.default_rng(7)
    M = np.zeros((3 * R, 3 * R))
    for b in range(3):
        M[b * R:(b + 1) * R, b * R:(b + 1) * R] = rng.uniform(1e-7, 1e-6,
                                                              (R, R))
    M[R, R] = M[2 * R - 1, 2 * R - 1] = special
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        save_matrix_coo(M, tmp_path / "m.csv")
    lines = (tmp_path / "m.csv").read_text().splitlines()[2:]
    expect = ["%d,%d,%s" % (i, j, "%.17g" % v)
              for i, row in enumerate(M.tolist())
              for j, v in enumerate(row) if v != 0.0 or i == j]
    assert lines == expect
    value = "%.17g" % special
    assert lines[R * R] == "%d,%d,%s" % (R, R, value)
    assert lines[2 * R * R - 1] == "%d,%d,%s" % (2 * R - 1, 2 * R - 1, value)


def test_save_matrix_coo_streams_row_blocks(peak_bytes):
    """The dump holds one block of lines at a time, never the whole text
    (about 34 bytes a line, over 4 * 8 n^2 here)."""
    n = 1500
    W, _ = build_affinity(sample_sphere(n, 2, 1), bandwidth(n, 2))
    peak = peak_bytes(lambda: save_matrix_coo(W, os.devnull, drop_tol=1e-12))
    assert peak <= 0.25 * 8 * n * n


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
    cloud = PointCloud(points=pts, d=1, seed=seed)
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
