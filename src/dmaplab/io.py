"""CSV persistence for clouds, eigenpairs, tangent fits, run records, and
matrix dumps, plus the flat key=value config reader.

Every file starts with a version comment; readers reject versions they do
not know.  Floats are written with 17 significant digits so that write ->
read round-trips are bit exact.
"""

from itertools import chain

import numpy as np

from .geometry import PointCloud

CLOUD_TAG = "# dmaplab cloud 1"
EIGEN_TAG = "# dmaplab eigen 1"
TANGENT_TAG = "# dmaplab tangent 1"
RUNS_TAG = "# dmaplab runs 1"
BOUNDS_TAG = "# dmaplab bounds 1"
COO_TAG = "# dmaplab coo 1"
TABLE_TAG = "# dmaplab table 1"

_F = "%.17g"

RUN_FIELDS = ("n", "seed", "h", "t", "m", "eigenvalue_errors",
              "eigenvector_sup_errors", "embedding_error",
              "tangent_angle_median", "tangent_angle_max",
              "first_cluster_mean", "pattern_matched", "status", "wall_time")


def _fmt(x):
    return _F % float(x)


def _fmt_list(xs):
    return ";".join(_F % float(x) for x in xs)


def _write(path, tag, header, lines):
    """The one artifact layout: version tag, comma-joined header names, then
    the newline-terminated data lines."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%s\n%s\n" % (tag, ",".join(header)))
        fh.writelines(lines)


def save_cloud(cloud, path):
    meta = "%d,%d,%d,%d\n" % (cloud.ambient_dim, cloud.d, cloud.n, cloud.seed)
    _write(path, CLOUD_TAG, ("dim_ambient", "d", "n", "seed"),
           chain([meta], (",".join(_F % v for v in row) + "\n"
                          for row in cloud.points)))


def load_cloud(path):
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CLOUD_TAG:
        raise ValueError("%s line 1: expected version tag %r"
                         % (path, CLOUD_TAG))
    if len(lines) < 3 or lines[1] != "dim_ambient,d,n,seed":
        raise ValueError("%s line 2: expected cloud metadata header" % path)
    try:
        amb, d, n, seed = (int(v) for v in lines[2].split(","))
    except Exception:
        raise ValueError("%s line 3: malformed metadata row %r"
                         % (path, lines[2]))
    rows = []
    for i, line in enumerate(lines[3:], start=4):
        if not line:
            continue
        try:
            row = [float(v) for v in line.split(",")]
        except Exception:
            raise ValueError("%s line %d: malformed coordinate row" % (path, i))
        if len(row) != amb:
            raise ValueError("%s line %d: expected %d coordinates, got %d"
                             % (path, i, amb, len(row)))
        rows.append(row)
    if len(rows) != n:
        raise ValueError("%s: metadata promises n=%d points, file has %d"
                         % (path, n, len(rows)))
    return PointCloud(points=np.asarray(rows), d=d, ambient_dim=amb,
                      seed=seed)


def save_eigen(spec, path):
    """Eigenpair table: one row per index with the eigenvalue, its cluster
    id, and the (density-normalized when available) eigenvector entries."""
    V = spec.vec_norm if spec.vec_norm is not None else spec.vec_raw
    cluster_of = {}
    for cid, grp in enumerate(spec.clusters):
        for i in grp:
            cluster_of[i] = cid
    header = ["index", "mu", "cluster_id"]
    header += ["v%d" % (j + 1) for j in range(V.shape[0])]
    _write(path, EIGEN_TAG, header,
           ("%d,%s,%d," % (i, _fmt(spec.mu[i]), cluster_of[i])
            + ",".join(_F % v for v in V[:, i]) + "\n"
            for i in range(len(spec.mu))))


def save_tangents(estimates, path, angles=None):
    """Tangent fit table; angles maps base_index -> angle to a reference
    basis (written as nan when absent)."""
    angles = angles or {}
    _write(path, TANGENT_TAG, ("base_index", "angle_to_truth",
                               "neighbor_count", "iterations", "basis"),
           ("%d,%s,%d,%d,%s\n"
            % (est.base_index, _fmt(angles.get(est.base_index, np.nan)),
               est.neighbor_count, est.iterations,
               _fmt_list(est.basis.ravel()))
            for est in estimates))


def emit_csv(records, path):
    """Write run records; an empty list produces a header-only file."""
    _write(path, RUNS_TAG, RUN_FIELDS,
           (record_row(r) + "\n" for r in records))


def record_row(r):
    """Stable CSV encoding of one run record (wall_time is the last field
    so the deterministic prefix is directly comparable)."""
    return ",".join([
        "%d" % r.n, "%d" % r.seed, _fmt(r.h), _fmt(r.t), "%d" % r.m,
        _fmt_list(r.eigenvalue_errors), _fmt_list(r.eigenvector_sup_errors),
        _fmt(r.embedding_error), _fmt(r.tangent_angle_median),
        _fmt(r.tangent_angle_max), _fmt(r.first_cluster_mean),
        "%d" % int(r.pattern_matched), r.status, _fmt(r.wall_time),
    ])


def save_matrix_coo(M, path, drop_tol=0.0):
    """Coordinate-format text dump row,col,value of a dense matrix."""
    M = np.asarray(M)
    _write(path, COO_TAG, ("row", "col", "value"),
           ("%d,%d,%s\n" % (i, j, _fmt(v))
            for i, row in enumerate(M) for j, v in enumerate(row.tolist())
            if abs(v) > drop_tol or i == j))


def save_bounds_table(rows, path):
    """Bound-evaluator table: (name, inputs-dict, value) triples."""
    _write(path, BOUNDS_TAG, ("name", "inputs", "value"),
           ("%s,%s,%s\n"
            % (name, ";".join("%s=%s" % kv for kv in inputs.items()),
               _fmt(value))
            for name, inputs, value in rows))


def save_table(path, header, rows):
    """Generic versioned table: header names plus rows of cells.  Floats
    get the 17-digit format, ints stay integral, strings pass through."""
    def cell(v):
        if isinstance(v, str):
            return v
        if isinstance(v, (bool, np.bool_)):
            return "%d" % int(v)
        if isinstance(v, (int, np.integer)):
            return "%d" % v
        return _fmt(v)
    _write(path, TABLE_TAG, header,
           (",".join(cell(v) for v in row) + "\n" for row in rows))


def read_kv(path):
    """Flat key=value config lines -> list of (lineno, key, raw value).
    Blank lines and # comments are skipped; anything else without '=' is a
    syntax error reported with its line number."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for i, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError("%s line %d: expected key=value, got %r"
                                 % (path, i, line))
            key, _, val = line.partition("=")
            out.append((i, key.strip(), val.strip()))
    return out
