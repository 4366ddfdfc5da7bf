"""CSV persistence for clouds, eigenpairs, tangent fits, run records and
their RunRecord type, and matrix dumps, plus the key=value config reader.

Every file starts with a version comment; readers reject versions they do not
know.  Files are written as ASCII bytes, floats with 17 significant digits
(`_F`, "%.17g") so that write -> read round-trips are bit exact.  The COO
matrix dump makes the same bytes without a Python call per value: exact
vectorized arithmetic (a double-double power of ten and Dekker's product)
gives its digits, `_F` writes each value that arithmetic cannot decide (zero,
subnormal, non-finite, in %g's fixed-notation range, or near a rounding tie),
and `bytes.translate` deletes the NUL padding of each block's fields.
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
    the data lines, newline-terminated ASCII bytes.  The directory is made
    here, so a command refused before its first artifact leaves nothing."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    # replaced, not truncated: ext4 writes a file cut to 0 to disk on close
    if os.path.isfile(path) and not os.path.islink(path):
        os.unlink(path)
    with open(path, "wb") as fh:
        fh.write(("%s\n%s\n" % (tag, ",".join(header))).encode("ascii"))
        fh.writelines(lines)


def _table(path, tag, header, rows):
    """`_write` with each row's cells written by `_cell`."""
    _write(path, tag, header,
           ((",".join(map(_cell, row)) + "\n").encode("ascii")
            for row in rows))


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
    return PointCloud(points=np.asarray(rows), d=d, seed=seed)


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
           ((record_row(r) + "\n").encode("ascii") for r in records))


def record_row(r):
    """Stable CSV encoding of one run record."""
    return ",".join(_cell(getattr(r, f)) for f in RUN_FIELDS)


# rows per block of the COO dump, whose temporaries stay in cache: at n = 2000
# the dump took 0.42 s of CPU at 2 rows, 0.46 s at 1, 0.50 s at 3, 0.59 s at 4
_COO_ROWS = 2


def _pow10_table():
    """10^k for k = 16 - E over every decimal exponent E of a normal double,
    as rows: an exact power-of-two prescale 2^c, a double-double hi + lo of
    10^k / 2^c (|lo| <= ulp(hi) / 2) and hi's Veltkamp halves.  c is
    floor(log2 10^k), capped at 1000 so that 2^c is a double; x 2^c is then
    exact and normal for every normal x whose exponent is within one of E."""
    ks = range(-292, 325)
    rows = []
    for k in ks:
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        c = num.bit_length() - den.bit_length()
        if num << max(-c, 0) < den << max(c, 0):
            c -= 1
        c = min(c, 1000)
        num, den = num << max(-c, 0), den << max(c, 0)
        h = num / den
        hn, hd = h.as_integer_ratio()
        hh = _SPLIT * h - (_SPLIT * h - h)
        rows.append((2.0 ** c, h, (num * hd - hn * den) / (den * hd),
                     hh, h - hh))
    return ks[0], np.array(rows).T.copy()


def _ascii(strings, width, dtype):
    """NUL-padded ASCII of each string, one `dtype` word per `width` bytes."""
    return np.array(strings, "S%d" % width).view(dtype)


_SPLIT = 2.0 ** 27 + 1.0     # Veltkamp splitter for 53-bit doubles
_K0, _P10 = _pow10_table()
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


def _two_prod(a, b, bh, bl):
    """Dekker's exact product: a * b == p + e with p = fl(a * b), where
    bh + bl is b's Veltkamp split."""
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    p = a * b
    e = ah * bh - p
    e += ah * bl
    e += al * bh
    e += al * bl
    return p, e


def _g17_lines(x, out=None):
    """`_F % v + "\\n"` of each float64 v in x, as an (m, 32) uint8 array
    NUL-padded in each row, whose first word is NUL; with out, an (m, 8)
    uint32 array or view, into out, leaving each row's first word as it is.

    A normal v with decimal exponent E outside %g's fixed range [-4, 17) is
    written from the 17 correctly rounded significant digits
    D = round(|v| 10^(16 - E)) in [10^16, 10^17).  The product is known to
    within 2^-45 of a unit: 10^(16 - E) is a double-double, and the product
    with its high part is Dekker's exact one.  D > 2^53, so the product's
    rounded high part is an integer and the low part decides the rounding.
    Every other value is written by `_F` itself: zeros, subnormal and
    non-finite values, the fixed range, a D within 2^-30 of a half (exact
    ties among them), and an E from log10 that is off by one.  E is checked
    by 10^16 < D < 10^17: a product that rounds up to 10^16 falls back."""
    x = np.asarray(x, dtype=np.float64)
    xs = np.abs(x)
    fast = (xs >= _TINY) & (xs < np.inf)
    xs[~fast] = 1.0        # log10 and the tables see normal values only
    E = np.floor(np.log10(xs)).astype(np.int64)
    fast &= (E < -4) | (E >= 17)
    scale, hi, lo, hh, hl = _P10.take((16 - _K0) - E, axis=1)
    xs *= scale
    P, T = _two_prod(xs, hi, hh, hl)
    T += xs * lo
    R = np.rint(T)
    T -= R
    D = P.astype(np.int64) + R.astype(np.int64)
    fast &= (np.abs(T) < 0.5 - 2.0 ** -30) & (D > 10 ** 16) & (D < 10 ** 17)
    slow = np.flatnonzero(~fast)
    D[slow] = 10 ** 16     # keeps every table index in range
    # the lead digit and four 4-digit groups by int64 floor division, two
    # numbers at a time: (lead q1 q2, q3 q4), then (lead q1, q3) and (q2, q4)
    G = np.stack([D // 10 ** 8, D])
    G[1] -= G[0] * 10 ** 8
    H = G // 10 ** 4
    G -= H * 10 ** 4
    lead = H[0] // 10 ** 4
    H[0] -= lead * 10 ** 4
    q1, q2, q3, q4 = H[0], G[0], H[1], G[1]
    lead[x < 0] += 20
    # a group is stripped when every group after it is zero, which needs
    # the last group to be zero: seldom, so the rest is skipped otherwise
    z = q4 == 0
    if z.any():
        for q in (q3, q2, q1):
            z, q[:] = z & (q == 0), q + 10 ** 4 * z
        lead += 10 * z
    if out is None:
        out = np.zeros((len(x), 8), np.uint32)
    out[:, 1] = _LEAD[lead]
    out[:, 2] = _QUAD[q1]
    out[:, 3] = _QUAD[q2]
    out[:, 4] = _QUAD[q3]
    out[:, 5] = _QUAD[q4 + 10 ** 4]
    out[:, 6:].view(np.uint64)[:, 0] = _EXP[E + 308]
    out = out.view(np.uint8)
    if len(slow):
        out[slow, 4:] = _ascii([_F % v + "\n" for v in x[slow].tolist()],
                               28, np.uint8).reshape(-1, 28)
    return out


def save_matrix_coo(M, path, drop_tol=0.0):
    """Coordinate-format text dump row,col,value of a dense matrix: every
    entry with |value| > drop_tol, and the diagonal always.  Values are
    written as `_F` writes them, byte for byte.

    The dump is streamed in blocks of `_COO_ROWS` rows.  A block's lines are
    laid out in one NUL-padded matrix of 4-byte words: the precomputed "i,"
    and "j," prefixes, then each value's digits from `_g17_lines`, which
    makes them with vectorized exact arithmetic and falls back to `_F` for
    the few values it cannot decide.  Deleting the NULs from the matrix's
    bytes leaves the block's text, which is written as it is."""
    M = np.asarray(M)
    rows, cols = M.shape
    # each "i," prefix takes w 8-byte words
    w = -(-len("%d," % max(rows - 1, cols - 1, 0)) // 8)
    prefix = _ascii(["%d," % i for i in range(max(rows, cols))],
                    8 * w, np.uint64).reshape(-1, w)

    def blocks():
        for r0 in range(0, rows, _COO_ROWS):
            B = M[r0:r0 + _COO_ROWS]
            keep = np.abs(B) > drop_tol
            diag = np.arange(min(len(B), cols - r0))
            keep[diag, r0 + diag] = True
            f = np.flatnonzero(keep)
            i = f // cols
            lines = np.empty((len(f), 4 * w + 7), np.uint32)
            ij = lines[:, :4 * w].view(np.uint64)
            ij[:, :w] = prefix.take(r0 + i, axis=0)
            ij[:, w:] = prefix.take(f - i * cols, axis=0)
            # a value's first word, left as it is, is the "j," prefix's last
            _g17_lines(B.take(f), lines[:, 4 * w - 1:])
            yield lines.tobytes().translate(None, b"\0")

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
