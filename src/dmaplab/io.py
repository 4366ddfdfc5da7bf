"""CSV persistence for clouds, eigenpairs, tangent fits, run records and
their RunRecord type, and matrix dumps, plus the key=value config reader.

Every file starts with a version comment; readers reject versions they do
not know.  Floats are written with 17 significant digits (`_F`, "%.17g") so
that write -> read round-trips are bit exact.  The COO matrix dump, the
largest artifact, makes the same bytes without a Python call per value: its
digits come from exact vectorized arithmetic (a double-double power of ten
and Dekker's product), and a value that arithmetic cannot decide (zero,
subnormal, non-finite, in %g's fixed-notation range, or near a rounding
tie) is written by `_F` itself.
"""

import os
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
    """One CSV cell: strings with each ',' written as ';', bools and ints
    integral, lists and tuples their cells joined with ';', anything else a
    17-digit float."""
    if isinstance(v, str):
        return v.replace(",", ";")
    if isinstance(v, (bool, np.bool_)):
        return "%d" % int(v)
    if isinstance(v, (int, np.integer)):
        return "%d" % v
    if isinstance(v, (list, tuple)):
        return ";".join(_cell(x) for x in v)
    return _F % float(v)


def _write(path, tag, header, lines):
    """The one artifact layout: version tag, comma-joined header names, then
    the newline-terminated data lines.  The file's directory is made here,
    so a command refused before its first artifact leaves nothing behind."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
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


# rows of the matrix per block of the COO dump: a block's temporaries (about
# 300 bytes a value) stay in cache, and 2-4 rows timed fastest at n = 2000
_COO_ROWS = 4


def _pow10_table():
    """10^k for k = 16 - E over every decimal exponent E of a normal double,
    as an exact power-of-two prescale 2^c and a double-double hi + lo of
    10^k / 2^c (|lo| <= ulp(hi) / 2).  c is floor(log2 10^k), capped at 1000
    so that 2^c is a double; x 2^c is then exact and normal for every normal
    x whose exponent is within one of E."""
    ks = range(-292, 325)
    scale, hi, lo = [], [], []
    for k in ks:
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        c = num.bit_length() - den.bit_length()
        if num << max(-c, 0) < den << max(c, 0):
            c -= 1
        c = min(c, 1000)
        num, den = num << max(-c, 0), den << max(c, 0)
        h = num / den
        hn, hd = h.as_integer_ratio()
        scale.append(2.0 ** c)
        hi.append(h)
        lo.append((num * hd - hn * den) / (den * hd))
    return ks[0], np.array(scale), np.array(hi), np.array(lo)


def _ascii(strings, width, dtype):
    """NUL-padded ASCII of each string, one `dtype` word per `width` bytes."""
    return np.array(strings, "S%d" % width).view(dtype)


_K0, _P10_SCALE, _P10_HI, _P10_LO = _pow10_table()
# the leading digit with its point, then without (no digit after the point
# survives), then both again negative: index digit + 10 stripped + 20 sign
_LEAD = _ascii([s + "%d" % d + p for s in ("", "-") for p in (".", "")
                for d in range(10)], 4, np.uint32)
# 4-digit groups, in full and with trailing zeros stripped (index + 10^4)
_QUAD = _ascii(["%04d" % q for q in range(10 ** 4)]
               + [("%04d" % q).rstrip("0") for q in range(10 ** 4)],
               4, np.uint32)
# "e-308\n" .. "e+308\n", index E + 308
_EXP = _ascii(["e%+03d\n" % e for e in range(-308, 309)], 8, np.uint64)
_TINY = np.finfo(np.float64).tiny
_SPLIT = 2.0 ** 27 + 1.0     # Veltkamp splitter for 53-bit doubles


def _two_prod(a, b):
    """Dekker's exact product: a * b == p + e with p = fl(a * b)."""
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLIT * b
    bh = c - (c - b)
    bl = b - bh
    p = a * b
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _g17_lines(x):
    """`_F % v + "\\n"` of each float64 v in x, as an (m, 32) uint8 array
    NUL-padded in each row.

    A normal v with decimal exponent E outside %g's fixed range [-4, 17) is
    written from the 17 correctly rounded significant digits
    D = round(|v| 10^(16 - E)) in [10^16, 10^17).  The product is known to
    within 2^-45 of a unit: 10^(16 - E) is a double-double, and the product
    with its high part is Dekker's exact one.  D > 2^53, so the product's
    rounded high part is an integer and the low part decides the rounding.
    Every other value is written by `_F` itself: zeros, subnormal and
    non-finite values, the fixed range, a D within 2^-30 of a half (exact
    ties among them), and an E from log10 that is off by one.  E is checked
    on the unrounded product, so a D that rounds up to 10^16 falls back."""
    x = np.asarray(x, dtype=np.float64)
    xs = np.abs(x)
    fast = (xs >= _TINY) & (xs < np.inf)
    xs[~fast] = 1.0        # log10 and the tables see normal values only
    E = np.floor(np.log10(xs)).astype(np.int64)
    fast &= (E < -4) | (E >= 17)
    k = 16 - E - _K0
    xs *= _P10_SCALE[k]
    P, T = _two_prod(xs, _P10_HI[k])
    T += xs * _P10_LO[k]
    Tf = np.floor(T)
    T -= Tf
    D = P.astype(np.int64) + Tf.astype(np.int64)
    fast &= (D >= 10 ** 16) & (np.abs(T - 0.5) > 2.0 ** -30)
    D += T > 0.5
    fast &= D < 10 ** 17
    D[~fast] = 10 ** 16    # keeps every table index in range
    lead, D = np.divmod(D, 10 ** 16)
    a, b = np.divmod(D, 10 ** 8)
    q1, q2 = np.divmod(a, 10 ** 4)
    q3, q4 = np.divmod(b, 10 ** 4)
    # a group is stripped when every group after it is zero
    z4 = q4 == 0
    z3 = z4 & (q3 == 0)
    z2 = z3 & (q2 == 0)
    out = np.zeros((len(x), 4), np.uint64)
    w = out.view(np.uint32)
    w[:, 0] = _LEAD[lead + 10 * (z2 & (q1 == 0)) + 20 * (x < 0)]
    w[:, 1] = _QUAD[q1 + 10 ** 4 * z2]
    w[:, 2] = _QUAD[q2 + 10 ** 4 * z3]
    w[:, 3] = _QUAD[q3 + 10 ** 4 * z4]
    w[:, 4] = _QUAD[q4 + 10 ** 4]
    out[:, 3] = _EXP[E + 308]
    out = out.view(np.uint8)
    slow = np.flatnonzero(~fast)
    out[slow] = _ascii([_F % v + "\n" for v in x[slow].tolist()],
                       32, np.uint8).reshape(-1, 32)
    return out


def save_matrix_coo(M, path, drop_tol=0.0):
    """Coordinate-format text dump row,col,value of a dense matrix: every
    entry with |value| > drop_tol, and the diagonal always.  Values are
    written as `_F` writes them, byte for byte.

    The dump is streamed in blocks of `_COO_ROWS` rows.  A block's lines are
    laid out in one NUL-padded byte matrix: the precomputed "i," and "j,"
    prefixes, then each value's digits from `_g17_lines`, which makes them
    with vectorized exact arithmetic and falls back to `_F` for the few
    values it cannot decide.  Dropping the NULs leaves the block's text."""
    M = np.asarray(M)
    rows, cols = M.shape
    # each "i," prefix takes w 8-byte words, so every field stays aligned
    w = -(-len("%d," % max(rows - 1, cols - 1, 0)) // 8)
    prefix = _ascii(["%d," % i for i in range(max(rows, cols))],
                    8 * w, np.uint64).reshape(-1, w)

    def blocks():
        for r0 in range(0, rows, _COO_ROWS):
            B = M[r0:r0 + _COO_ROWS]
            keep = np.abs(B) > drop_tol
            diag = np.arange(min(len(B), cols - r0))
            keep[diag, r0 + diag] = True
            i, j = np.nonzero(keep)
            lines = np.empty((len(i), 2 * w + 4), np.uint64)
            lines[:, :w] = prefix[r0 + i]
            lines[:, w:2 * w] = prefix[j]
            lines[:, 2 * w:] = _g17_lines(B[i, j]).view(np.uint64)
            text = lines.view(np.uint8)
            yield text[text != 0].tobytes().decode("ascii")

    _write(path, COO_TAG, ("row", "col", "value"), blocks())


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
