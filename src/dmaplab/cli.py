"""Command line front end.

Subcommands: sample, laplacian, eigen, embed, tangent, bounds, pipeline,
rates, verify-s2, tangent-study.  Every command prints a human-readable
summary and writes versioned CSV artifacts into --out; the exit code is 0
exactly when all checks requested by the command pass.  main applies the
flags every command takes and ends it with one "wrote" line naming each
artifact written; a refused command (exit 2) prints none.
"""

import argparse
import inspect
import os
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from . import bounds as B
from . import experiments as X
from . import io as dio
from .embedding import embed_points, select_eps_prime
from .geometry import PointCloud, sample_sphere
from .graph import _residuals, system_from_cloud
from .spectral import eigensolve_smallest


def _whole(least):
    """argparse type for the whole numbers >= least, 0 or 1."""
    def parse(text):
        if not text.isdigit() or int(text) < least:
            raise argparse.ArgumentTypeError("%s is not a %s integer" % (
                text, "positive" if least else "non-negative"))
        return int(text)
    return parse


def _common(sub, name, fn, summary):
    """Subcommand parser with the flags every command takes."""
    p = sub.add_parser(name, help=summary)
    p.set_defaults(fn=fn)
    p.add_argument("--config", metavar="PATH",
                   help="key=value experiment config file")
    p.add_argument("--out", metavar="DIR",
                   help="directory for CSV artifacts (default: config "
                        "output_dir)")
    p.add_argument("--seed", type=_whole(0), default=1)
    p.add_argument("--n", type=_whole(1), default=500)
    return p


def _setting(args, cfg, name):
    """The command-line flag when given, else the config field."""
    value = getattr(args, name)
    return getattr(cfg, name) if value is None else value


def _dense_system(args, cfg):
    """Graph system of a fresh sample of at most 20000 points."""
    return system_from_cloud(X._dense_sample(cfg, args.n, args.seed))


def cmd_sample(args, cfg, artifact):
    cloud = sample_sphere(args.n, cfg.d, args.seed)
    dio.save_cloud(cloud, artifact("cloud.csv"))
    radii = np.linalg.norm(cloud.points, axis=1)
    print("sampled %d %s points in R^%d (seed %d)"
          % (cloud.n, cfg.manifold, cloud.ambient_dim, args.seed))
    print("point radii in [%.6f, %.6f]" % (radii.min(), radii.max()))
    return 0


def cmd_laplacian(args, cfg, artifact):
    n, system = args.n, _dense_system(args, cfg)
    dio.save_matrix_coo(system.W, artifact("affinity.csv"), drop_tol=1e-12)
    # |L 1| from products with W, without building L
    null = float(np.max(np.abs(_residuals(system, np.ones((n, 1)), 0.0))))
    print("n=%d  bandwidth h=%.9g" % (n, system.h))
    print("degrees in [%.6g, %.6g]"
          % (system.degree.min(), system.degree.max()))
    print("max |L 1| = %.3e (constants must be annihilated)" % null)
    return 0 if null <= 1e-9 else 1


def cmd_eigen(args, cfg, artifact):
    spec = eigensolve_smallest(_dense_system(args, cfg), cfg.m,
                               gap_tol=cfg.gap_tol)
    dio.save_eigen(spec, artifact("eigen.csv"))
    print("smallest %d eigenvalues of -L at n=%d:" % (cfg.m + 1, args.n))
    print("  " + "  ".join("%.6f" % v for v in spec.mu))
    print("clusters: %s" % (spec.clusters,))
    return 0 if spec.mu[0] <= 1e-8 else 1


def cmd_embed(args, cfg, artifact):
    spec = eigensolve_smallest(_dense_system(args, cfg), cfg.m,
                               gap_tol=cfg.gap_tol)
    emb = embed_points(spec, cfg.embedding_params())
    t = emb.params.t
    carrier = PointCloud(points=emb.points, d=cfg.d, ambient_dim=cfg.m,
                         seed=args.seed)
    dio.save_cloud(carrier, artifact("embedding.csv"))
    norms = np.linalg.norm(emb.points, axis=1)
    print("embedded %d points into R^%d at t=%.6g (eps'=%.6g)"
          % (args.n, cfg.m, t, select_eps_prime(
              t, cfg.d, cfg.manifold_constants().kappa)))
    print("coordinate-vector norms in [%.6f, %.6f]"
          % (norms.min(), norms.max()))
    return 0


def cmd_tangent(args, cfg, artifact):
    """Tangent fits on a clean oracle-embedded sphere sample."""
    tcfg = cfg.tangent_config()
    batch, angles, h_tilde = X._oracle_tangents(cfg, args.n, args.seed, tcfg)
    fits = list(batch.fits.values())
    dio.save_tangents(fits, artifact("tangents.csv"), angles)
    vals = np.array(list(angles.values()))
    print("tangent fits at %d of %d points (h_tilde=%.6f, k=%d)"
          % (len(fits), args.n, h_tilde, tcfg.k))
    if batch.errors:
        k0 = min(batch.errors)
        print("failed fits: %d, first at index %d: %s"
              % (len(batch.errors), k0, batch.errors[k0]))
    if vals.size:
        print("angle to analytic tangent: median %.6f  max %.6f"
              % (np.median(vals), vals.max()))
    return 0 if not batch.errors else 1


def _exposed(fn):
    """fn's command-line entry, read from its signature: its arguments in
    order, each int when bounds rules the name a whole number and float
    otherwise, and required unless it has a default; and whether it takes
    the constants table as consts."""
    params = inspect.signature(fn).parameters
    sig = tuple((p.name, int if p.name in B._WHOLE else float,
                 p.default is p.empty)
                for p in params.values() if p.name != "consts")
    return fn, sig, "consts" in params


# bound evaluators exposed on the command line: name -> (callable,
# ordered (arg, type, required) triples, whether it takes the constants)
_BOUND_EVALS = {fn.__name__: _exposed(fn) for fn in (
    B.croke_constant, B.eps_cap, B.r1_value, B.s1_min, B.star_check,
    B.heat_upper, B.heat_lower_diag, B.heat_lower_offdiag, B.li_yau_upper,
    B.weyl_estimate, B.geodesic_euclid_bounds)}

# evaluators returning a record: the fields written as name.field rows
_RESULT_FIELDS = {
    "star_check": ("lhs", "rhs", "holds"),
    "geodesic_euclid_bounds": ("lo", "hi"),
}


def _bound_arg(name, key, text, typ):
    try:
        v = float(text)
    except ValueError:
        raise ValueError("%s: argument %s=%s is not a number"
                         % (name, key, text)) from None
    if typ is int and not v.is_integer():
        raise ValueError("%s: argument %s=%s is not a whole number"
                         % (name, key, text))
    return typ(v)


def _eval_bound(expr, consts):
    name, _, argstr = expr.partition(":")
    raw = {}
    for tok in filter(None, argstr.split(",")):
        if "=" not in tok:
            raise ValueError("bad bound argument %r (want key=value)" % tok)
        k, _, v = tok.partition("=")
        raw[k.strip()] = v.strip()
    if name not in _BOUND_EVALS:
        raise ValueError("unknown bound evaluator %r" % name)
    fn, sig, wants_consts = _BOUND_EVALS[name]
    missing = [k for k, _, required in sig if required and k not in raw]
    if missing:
        raise ValueError("%s: missing argument(s) %s"
                         % (name, ", ".join(missing)))
    extra = set(raw) - {k for k, _, _ in sig}
    if extra:
        raise ValueError("%s: unknown argument(s) %s"
                         % (name, ", ".join(sorted(extra))))
    inputs = {k: _bound_arg(name, k, raw[k], typ)
              for k, typ, _ in sig if k in raw}
    try:
        with np.errstate(all="raise", under="ignore"):
            res = fn(**inputs, **({"consts": consts} if wants_consts else {}))
    except (ValueError, ArithmeticError) as err:
        # the evaluator refuses input outside its domain itself
        raise ValueError("%s: %s" % (expr, err)) from None
    if name not in _RESULT_FIELDS:
        return [(name, inputs, res)]
    return [("%s.%s" % (name, f), inputs, float(getattr(res, f)))
            for f in _RESULT_FIELDS[name]]


_DEFAULT_BOUND_EXPRS = (
    "croke_constant:d=2",
    "croke_constant:d=3",
    "eps_cap:d=1",
    "eps_cap:d=2",
    "r1_value:t0=0.25,d=2,kappa=0",
    "s1_min:t0=0.25,d=2,kappa=0",
    "star_check:tau_l=%.6f,t0=0.25,eps=0.05,d=2,kappa=0" % X.REACH_S2,
    "heat_lower_diag:t=0.25,d=2,kappa=0",
    "heat_upper:t=0.25,dist=0,d=2,kappa=0",
    "li_yau_upper:m=8,d=2,V=%.17g,kappa_neg=0" % (4.0 * np.pi),
    "weyl_estimate:lam=110,d=2,V=%.17g" % (4.0 * np.pi),
    "geodesic_euclid_bounds:s=1,r0=1",
)


def cmd_bounds(args, cfg, artifact):
    exprs = args.expr or list(_DEFAULT_BOUND_EXPRS)
    rows = []
    for expr in exprs:
        rows.extend(_eval_bound(expr, cfg.constants))
    dio.save_bounds_table(rows, artifact("bounds.csv"))
    width = max(len(r[0]) for r in rows)
    for name, inputs, value in rows:
        ins = " ".join("%s=%g" % (k, v) for k, v in inputs.items())
        print("%-*s  %-40s  %.9g" % (width, name, ins, value))
    return 0


def cmd_pipeline(args, cfg, artifact):
    if args.n:
        rec = X.run_pipeline(cfg, args.n, args.seed)
        dio.emit_csv([rec], artifact("runs.csv"))
        print(",".join(dio.RUN_FIELDS))
        print(dio.record_row(rec))
        return 0 if rec.status == "ok" else 1
    result = X.convergence_study(cfg)
    dio.emit_csv(result.records, artifact("runs.csv"))
    dio.save_table(artifact("study.csv"), list(result.rows[0]),
                   [list(r.values()) for r in result.rows])
    print(X.format_convergence(result))
    return 0 if all(r.status == "ok" for r in result.records) else 1


def cmd_rates(args, cfg, artifact):
    d, k = _setting(args, cfg, "d"), _setting(args, cfg, "k")
    ex = B.rate_exponents(d, k)
    rows = list(asdict(ex).items())
    dio.save_table(artifact("rates.csv"), ("name", "value"), rows)
    print("rate exponents for d=%d, k=%d (errors scale as "
          "(log n / n)^rate):" % (d, k))
    for name, value in rows:
        print("  %-17s %.9g" % (name, value))
    return 0


def cmd_verify_s2(args, cfg, artifact):
    report = X.verify_s2(replace(cfg, **{k: _setting(args, cfg, k)
                                         for k in ("t0", "m", "eps")}))
    dio.save_table(artifact("verify.csv"),
                   [f.name for f in fields(X.CheckResult)],
                   [(c.check, c.value, c.target,
                     "skip" if c.passed is None else int(c.passed))
                    for c in report.checks])
    print(X.format_verify(report))
    return 0 if report.ok else 1


def cmd_tangent_study(args, cfg, artifact):
    result = X.tangent_study(cfg)
    dio.save_table(artifact("tangent_study.csv"), list(result.rows[0]),
                   [list(r.values()) for r in result.rows])
    print(X.format_tangent_study(result))
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="dmaplab",
        description="Graph-Laplacian spectral embeddings of sampled "
                    "manifolds with geometric bound calculators and a "
                    "closed-form sphere test bed.")
    sub = ap.add_subparsers(dest="command", required=True)

    _common(sub, "sample", cmd_sample, "sample a manifold point cloud")
    _common(sub, "laplacian", cmd_laplacian,
            "build the graph Laplacian of a fresh sample")
    _common(sub, "eigen", cmd_eigen, "smallest eigenpairs of -L")
    _common(sub, "embed", cmd_embed, "spectral embedding coordinates")
    _common(sub, "tangent", cmd_tangent,
            "tangent-plane fits on an oracle-embedded sphere sample")
    p = _common(sub, "bounds", cmd_bounds, "evaluate geometric bounds")
    p.add_argument("expr", nargs="*",
                   help="evaluator spec name:key=value,...  (default: a "
                        "sphere showcase table)")
    p = _common(sub, "pipeline", cmd_pipeline,
                "full run at --n, or the convergence study over the "
                "configured grid without --n")
    p.set_defaults(n=None)
    p = _common(sub, "rates", cmd_rates, "theoretical convergence exponents")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p = _common(sub, "verify-s2", cmd_verify_s2,
                "closed-form sphere verification battery")
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--eps", type=float, default=None)
    _common(sub, "tangent-study", cmd_tangent_study,
            "tangent accuracy against subsample size")
    return ap


def main(argv=None):
    """Run one command on its config, recording each artifact it names."""
    args = build_parser().parse_args(argv)
    written = []

    def artifact(name):
        written.append(os.path.join(out, name))
        return written[-1]

    try:
        cfg = X.load_config(args.config) if args.config \
            else X.ExperimentConfig()
        out = args.out or cfg.output_dir
        code = args.fn(args, cfg, artifact)
    except (ValueError, ArithmeticError, RuntimeError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    print("wrote %s" % " and ".join(written))
    return code


if __name__ == "__main__":
    sys.exit(main())
