"""CSV persistence for clouds, eigenpairs, tangent fits, run records and
their RunRecord type, and matrix dumps, plus the key=value config reader.

Every file starts with a version comment; readers reject versions they do
not know.  Floats are written with 17 significant digits so that write ->
read round-trips are bit exact.
"""

from dataclasses import dataclass, field, fields

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

CLOUD_META = ("dim_ambient", "d", "n", "seed")


@dataclass
class RunRecord:
    """One pipeline run: the runs.csv columns in order, wall_time last."""
    n: int
    seed: int
    h: float = np.nan
    t: float = np.nan
    m: int = 0
    eigenvalue_errors: list = field(default_factory=list)
    eigenvector_sup_errors: list = field(default_factory=list)
    embedding_error: float = np.nan
    tangent_angle_median: float = np.nan
    tangent_angle_max: float = np.nan
    first_cluster_mean: float = np.nan
    pattern_matched: bool = False
    status: str = "ok"
    wall_time: float = 0.0


RUN_FIELDS = tuple(f.name for f in fields(RunRecord))


def _cell(v):
    """One CSV cell: strings pass through, bools and ints stay integral,
    lists and tuples join their cells with ';', anything else is a
    17-digit float."""
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "%d" % int(v)
    if isinstance(v, (int, np.integer)):
        return "%d" % v
    if isinstance(v, (list, tuple)):
        return ";".join(_cell(x) for x in v)
    return _F % float(v)


def _write(path, tag, header, lines):
    """The one artifact layout: version tag, comma-joined header names, then
    the newline-terminated data lines."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%s\n%s\n" % (tag, ",".join(header)))
        fh.writelines(lines)


def _table(path, tag, header, rows):
    """`_write` with each row's cells written by `_cell`."""
    _write(path, tag, header,
           (",".join(map(_cell, row)) + "\n" for row in rows))


def save_cloud(cloud, path):
    meta = (cloud.ambient_dim, cloud.d, cloud.n, cloud.seed)
    _table(path, CLOUD_TAG, CLOUD_META, [meta] + cloud.points.tolist())


def load_cloud(path):
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CLOUD_TAG:
        raise ValueError("%s line 1: expected version tag %r"
                         % (path, CLOUD_TAG))
    if len(lines) < 3 or lines[1] != ",".join(CLOUD_META):
        raise ValueError("%s line 2: expected cloud metadata header" % path)
    try:
        amb, d, n, seed = (int(v) for v in lines[2].split(","))
    except ValueError:
        raise ValueError("%s line 3: malformed metadata row %r"
                         % (path, lines[2]))
    rows = []
    for i, line in enumerate(lines[3:], start=4):
        if not line:
            continue
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError:
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
    _table(path, EIGEN_TAG, header,
           ([i, spec.mu[i], cluster_of[i]] + V[:, i].tolist()
            for i in range(len(spec.mu))))


def save_tangents(estimates, path, angles=None):
    """Tangent fit table; angles maps base_index -> angle to a reference
    basis (written as nan when absent)."""
    angles = angles or {}
    _table(path, TANGENT_TAG, ("base_index", "angle_to_truth",
                               "neighbor_count", "iterations", "basis"),
           ((est.base_index, angles.get(est.base_index, np.nan),
             est.neighbor_count, est.iterations, est.basis.ravel().tolist())
            for est in estimates))


def emit_csv(records, path):
    """Write run records; an empty list produces a header-only file."""
    _write(path, RUNS_TAG, RUN_FIELDS,
           (record_row(r) + "\n" for r in records))


def record_row(r):
    """Stable CSV encoding of one run record."""
    return ",".join(_cell(getattr(r, f)) for f in RUN_FIELDS)


def save_matrix_coo(M, path, drop_tol=0.0):
    """Coordinate-format text dump row,col,value of a dense matrix: every
    entry with |value| > drop_tol, and the diagonal always.  Each column's
    line template is built once; a row joins the templates of its kept
    columns and fills them with one % call."""
    M = np.asarray(M)
    cols = np.arange(M.shape[1])
    line = ["%%d,%d,%s\n" % (j, _F) for j in cols]

    def rows():
        for i, row in enumerate(M):
            keep = np.flatnonzero((np.abs(row) > drop_tol) | (cols == i))
            args = [i] * (2 * len(keep))
            args[1::2] = row[keep].tolist()
            yield "".join([line[j] for j in keep]) % tuple(args)

    _write(path, COO_TAG, ("row", "col", "value"), rows())


def save_bounds_table(rows, path):
    """Bound-evaluator table: (name, inputs-dict, value) triples."""
    _table(path, BOUNDS_TAG, ("name", "inputs", "value"),
           ((name, ["%s=%s" % kv for kv in inputs.items()], value)
            for name, inputs, value in rows))


def save_table(path, header, rows):
    """Generic versioned table: header names plus rows of cells, each
    written by `_cell`."""
    _table(path, TABLE_TAG, header, rows)


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
