import hashlib
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import dmaplab.bounds as B
from dmaplab.cli import _BOUND_EVALS, main
from dmaplab.embedding import (EmbeddingParams, embed_points,
                               select_diffusion_time)
from dmaplab.bounds import BoundConstants
from dmaplab.experiments import ExperimentConfig
from dmaplab.graph import system_from_cloud
from dmaplab.io import TABLE_TAG, load_cloud
from dmaplab.spectral import eigensolve_smallest


def test_rates_writes_table(tmp_path, capsys):
    assert main(["rates", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "tangent_rate" in out
    lines = (tmp_path / "rates.csv").read_text().splitlines()
    assert lines[0] == TABLE_TAG
    assert any(line.startswith("b_star,48") for line in lines)


def test_sample_round_trip(tmp_path):
    assert main(["sample", "--n", "25", "--seed", "9",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "cloud.csv").read_text().splitlines()
    assert lines[1] == "dim_ambient,d,n,seed"
    cloud = load_cloud(tmp_path / "cloud.csv")
    assert cloud.n == 25
    assert np.allclose(np.linalg.norm(cloud.points, axis=1), 1.0,
                       atol=1e-12)


def test_laplacian_and_eigen(tmp_path, capsys):
    assert main(["laplacian", "--n", "80", "--seed", "1",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "affinity.csv").exists()
    assert main(["eigen", "--n", "120", "--seed", "1",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "eigenvalues" in out
    assert (tmp_path / "eigen.csv").exists()


@pytest.mark.parametrize("n, digest", [
    (300, "2f3cfae58fc1b8b569616d4f23ad16ca8db9a37cc20dab29601c5f836dc4c4fe"),
    (301, "8e6ace82f52ac87b0de5d6b022c3fbb391d0de693ba7b4ee8e370e0788b67f3b")])
def test_laplacian_affinity_bytes_are_pinned(tmp_path, n, digest):
    """sha256 of affinity.csv, pinned apart from every writer in the tree;
    n = 301 ends on a partial row block at any even block size."""
    assert main(["laplacian", "--n", str(n), "--seed", "1",
                 "--out", str(tmp_path)]) == 0
    data = (tmp_path / "affinity.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_embed_writes_coordinates(tmp_path):
    assert main(["embed", "--n", "100", "--seed", "2",
                 "--out", str(tmp_path)]) == 0
    emb = load_cloud(tmp_path / "embedding.csv")
    assert emb.points.shape == (100, 8)


def test_bounds_expressions(tmp_path, capsys):
    assert main(["bounds", "--out", str(tmp_path),
                 "croke_constant:d=2",
                 "star_check:tau_l=0.646924,t0=0.25,eps=0.05,d=2,kappa=0"
                 ]) == 0
    out = capsys.readouterr().out
    assert "0.318309886" in out
    assert "star_check.holds" in out
    text = (tmp_path / "bounds.csv").read_text()
    assert "croke_constant,d=2,0.31830988618379" in text
    assert ("star_check.lhs,tau_l=0.646924;t0=0.25;eps=0.05;d=2;kappa=0.0,"
            "3.3480852942080004\n") in text


def test_bounds_rejects_unknown_evaluator(tmp_path, capsys):
    assert main(["bounds", "--out", str(tmp_path), "nonsense:d=2"]) == 2
    assert "unknown bound evaluator" in capsys.readouterr().err


def test_bounds_rejects_missing_argument(tmp_path, capsys):
    assert main(["bounds", "--out", str(tmp_path), "croke_constant:"]) == 2
    assert "missing argument" in capsys.readouterr().err


def test_bounds_takes_an_optional_argument(tmp_path, capsys):
    """A defaulted argument is an optional key: li_yau_upper's
    negative-curvature branch needs its diam, and reads it from the
    command line."""
    expr = "li_yau_upper:m=3,d=2,V=7,kappa_neg=0.1"
    assert main(["bounds", "--out", str(tmp_path / "no"), expr]) == 2
    assert capsys.readouterr().err == ("error: %s: negative-curvature branch "
                                       "needs diam\n" % expr)
    assert main(["bounds", "--out", str(tmp_path), expr + ",diam=2"]) == 0
    value = B.li_yau_upper(3, 2, 7.0, 0.1, diam=2.0)
    assert "li_yau_upper,m=3;d=2;V=7.0;kappa_neg=0.1;diam=2.0,%r\n" % value \
        in (tmp_path / "bounds.csv").read_text()


_BAD_EXPRS = [
    ("star_check:tau_l=1", "star_check: missing argument(s) t0, eps, d, kappa"),
    ("geodesic_euclid_bounds:s=1,r0=1,bogus=3",
     "geodesic_euclid_bounds: unknown argument(s) bogus"),
    ("croke_constant:d=2.7", "croke_constant: argument d=2.7 is not a whole"),
    ("croke_constant:d=2000", "croke_constant:d=2000: "),
    ("croke_constant:d=inf", "croke_constant: argument d=inf is not a whole"),
    ("croke_constant:d=abc", "croke_constant: argument d=abc is not a number"),
    ("star_check:tau_l=1,t0=1,eps=0,d=2.5,kappa=0",
     "star_check: argument d=2.5 is not a whole"),
    ("li_yau_upper:m=-3,d=3,V=1,kappa_neg=0",
     "li_yau_upper:m=-3,d=3,V=1,kappa_neg=0: m must be >= 0, got -3"),
    ("r1_value:t0=0.25,d=-3,kappa=1",
     "r1_value:t0=0.25,d=-3,kappa=1: d must be >= 1, got -3"),
    ("weyl_estimate:lam=1,d=-2,V=1",
     "weyl_estimate:lam=1,d=-2,V=1: d must be >= 1, got -2"),
    ("weyl_estimate:lam=110,d=2,V=-1",
     "weyl_estimate:lam=110,d=2,V=-1: V must be positive and finite, "
     "got -1.0"),
    ("heat_lower_diag:t=0.25,d=0,kappa=0",
     "heat_lower_diag:t=0.25,d=0,kappa=0: d must be >= 1, got 0"),
    ("r1_value:t0=0.25,d=2,kappa=-1",
     "r1_value:t0=0.25,d=2,kappa=-1: kappa must be finite and >= 0, got -1.0"),
    ("s1_min:t0=0.25,d=2,kappa=-1",
     "s1_min:t0=0.25,d=2,kappa=-1: kappa must be finite and >= 0, got -1.0"),
    ("heat_upper:t=0.25,dist=0,d=2,kappa=-1",
     "heat_upper:t=0.25,dist=0,d=2,kappa=-1: kappa must be finite and >= 0, "
     "got -1.0"),
    ("r1_value:t0=nan,d=2,kappa=0",
     "r1_value:t0=nan,d=2,kappa=0: t0 must be positive and finite, got nan"),
    ("r1_value:t0=inf,d=2,kappa=0",
     "r1_value:t0=inf,d=2,kappa=0: t0 must be positive and finite, got inf"),
    ("s1_min:t0=nan,d=2,kappa=0",
     "s1_min:t0=nan,d=2,kappa=0: t0 must be positive and finite, got nan"),
    ("heat_lower_diag:t=nan,d=2,kappa=0",
     "heat_lower_diag:t=nan,d=2,kappa=0: t must be positive and finite, "
     "got nan"),
    ("heat_upper:t=nan,dist=0,d=2,kappa=0",
     "heat_upper:t=nan,dist=0,d=2,kappa=0: t must be positive and finite, "
     "got nan"),
    ("star_check:tau_l=0.6,t0=nan,eps=0.05,d=2,kappa=0",
     "star_check:tau_l=0.6,t0=nan,eps=0.05,d=2,kappa=0: t0 must be positive "
     "and finite, got nan"),
    ("heat_lower_diag:t=1,d=3,kappa=1e308",
     "heat_lower_diag:t=1,d=3,kappa=1e308: overflow encountered"),
    ("heat_lower_diag:t=1,d=1e308,kappa=0",
     "heat_lower_diag:t=1,d=1e308,kappa=0: invalid value encountered"),
    ("geodesic_euclid_bounds:s=nan,r0=1",
     "geodesic_euclid_bounds:s=nan,r0=1: s must be finite and >= 0, got nan"),
    ("geodesic_euclid_bounds:s=1,r0=inf",
     "geodesic_euclid_bounds:s=1,r0=inf: r0 must be positive and finite, "
     "got inf"),
]


@pytest.mark.parametrize("expr, message", _BAD_EXPRS,
                         ids=[expr for expr, _ in _BAD_EXPRS])
def test_bounds_rejects_bad_expression(tmp_path, capsys, expr, message):
    assert main(["bounds", "--out", str(tmp_path), expr]) == 2
    assert capsys.readouterr().err.startswith("error: " + message)
    assert list(tmp_path.iterdir()) == []


# each evaluator's command-line arguments, typed and marked required, and
# whether it takes the constants
_EXPOSED = {
    "croke_constant": ((("d", int, True),), False),
    "eps_cap": ((("d", int, True),), False),
    "r1_value": ((("t0", float, True), ("d", int, True),
                  ("kappa", float, True)), False),
    "s1_min": ((("t0", float, True), ("d", int, True),
                ("kappa", float, True)), True),
    "star_check": ((("tau_l", float, True), ("t0", float, True),
                    ("eps", float, True), ("d", int, True),
                    ("kappa", float, True)), True),
    "heat_upper": ((("t", float, True), ("dist", float, True),
                    ("d", int, True), ("kappa", float, True)), True),
    "heat_lower_diag": ((("t", float, True), ("d", int, True),
                         ("kappa", float, True)), False),
    "heat_lower_offdiag": ((("t", float, True), ("dist", float, True),
                            ("d", int, True), ("kappa", float, True),
                            ("sigma", float, True)), False),
    "li_yau_upper": ((("m", int, True), ("d", int, True), ("V", float, True),
                      ("kappa_neg", float, True), ("diam", float, False)),
                     False),
    "weyl_estimate": ((("lam", float, True), ("d", int, True),
                       ("V", float, True)), False),
    "geodesic_euclid_bounds": ((("s", float, True), ("r0", float, True)),
                               False),
}


def test_bound_evaluators_expose_their_arguments():
    assert {name: (sig, consts) for name, (_, sig, consts)
            in _BOUND_EVALS.items()} == _EXPOSED


_ARG_NAMES = sorted({k for _, sig, _ in _BOUND_EVALS.values()
                     for k, _, _ in sig})
_VALUES = st.one_of(
    st.integers(-4, 4).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1e308", "-1e308", "1e400", "inf", "-inf", "nan",
                     "2000"]),
    st.text(alphabet="abcxyz+-.eE_ 0123456789", max_size=6))


@st.composite
def _bound_exprs(draw):
    name = draw(st.sampled_from(sorted(_BOUND_EVALS) + ["nonsense"]))
    own = [k for k, _, _ in _BOUND_EVALS.get(name, (None, (), False))[1]]
    keys = draw(st.permutations(own)
                | st.lists(st.sampled_from(own + _ARG_NAMES + ["bogus"]),
                           unique=True, max_size=len(own) + 1))
    return "%s:%s" % (name, ",".join("%s=%s" % (k, draw(_VALUES))
                                     for k in keys))


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(expr=_bound_exprs())
# the two faults the drawn examples found in some selections of tests only:
# an infinite time, and an overflow inside _beta
@example(expr="r1_value:t0=inf,d=2,kappa=0")
@example(expr="r1_value:t0=1,d=1e308,kappa=1e308")
def test_bounds_exit_0_or_2_never_raise(tmp_path, expr):
    assert len(_BOUND_EVALS) == 11
    assert main(["bounds", "--out", str(tmp_path), expr]) in (0, 2)


# keys whose values are parsed or validated; output_dir takes any text
_CFG_KEYS = sorted({f.name for f in fields(ExperimentConfig)}
                   - {"output_dir", "constants"}
                   | {f.name for f in fields(BoundConstants)})
_LINE_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                                   blacklist_characters="\r\n"),
                     max_size=12)


def _unknown_key(key):
    return key.strip() not in _CFG_KEYS + ["output_dir"]


_MALFORMED_LINES = st.one_of(
    _LINE_TEXT.filter(lambda s: "=" not in s and s.strip()
                      and not s.strip().startswith("#")),
    st.tuples(_LINE_TEXT.filter(lambda s: "=" not in s)
              .filter(_unknown_key), _LINE_TEXT)
    .map("=".join),
    st.tuples(st.sampled_from(_CFG_KEYS),
              st.sampled_from(["1.5.2", "--1", "1e", "0x10", "\u00bd"])
              | _LINE_TEXT.map(lambda s: "x" + s))
    .map(" = ".join))


@settings(max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(bad=_MALFORMED_LINES,
       good=st.lists(st.sampled_from(["d = 2", "k = 3", "# note", "",
                                      "seeds = 1,2"]), max_size=3,
                     unique=True),
       at=st.integers(0, 3))
def test_malformed_config_line_exits_2(tmp_path, capsys, bad, good, at):
    cfg = tmp_path / "bad.cfg"
    lines = good[:at] + [bad] + good[at:]
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["rates", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


_RUNS_HEADER = ("n,seed,h,t,m,eigenvalue_errors,eigenvector_sup_errors,"
                "embedding_error,tangent_angle_median,tangent_angle_max,"
                "first_cluster_mean,pattern_matched,status,wall_time")


def test_pipeline_single_run(tmp_path, capsys):
    assert main(["pipeline", "--n", "300", "--seed", "1",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "runs.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1] == _RUNS_HEADER
    assert capsys.readouterr().out.splitlines()[0] == _RUNS_HEADER
    assert ",ok," in lines[2]


def test_tangent_command(tmp_path, capsys):
    assert main(["tangent", "--n", "250", "--seed", "1",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "median" in out
    assert (tmp_path / "tangents.csv").exists()


def test_tangent_command_without_a_fit_exits_1(tmp_path, capsys):
    # at n = 3 every point has 2 neighbours, one short of a plane fit
    assert main(["tangent", "--n", "3", "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "tangent fits at 0 of 3 points" in out
    assert "failed fits: 3, first at index 0" in out
    lines = (tmp_path / "tangents.csv").read_text().splitlines()
    assert lines[1:] == ["base_index,angle_to_truth,neighbor_count,"
                         "iterations,basis"]


def test_tangent_command_with_three_coordinates(tmp_path, capsys):
    cfg = tmp_path / "m3.cfg"
    cfg.write_text("m = 3\n")
    assert main(["tangent", "--config", str(cfg), "--n", "250",
                 "--out", str(tmp_path)]) == 0
    assert "median" in capsys.readouterr().out


_COMMANDS = ("sample", "laplacian", "eigen", "embed", "tangent", "bounds",
             "pipeline", "rates", "verify-s2", "tangent-study")


@pytest.mark.parametrize("command", _COMMANDS)
@pytest.mark.parametrize("text, message", [
    ("manifold = torus\n", "manifold must be 'sphere'"),
    ("torus_R = 2.0\n", "line 1: unknown config key 'torus_R'"),
    ("torus_r = 1.0\n", "line 1: unknown config key 'torus_r'")])
def test_torus_config_exits_2(tmp_path, capsys, command, text, message):
    cfg = tmp_path / "torus.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("setting", ["d = 3", "m = 9"])
@pytest.mark.parametrize("command, artifact", [
    ("sample", "cloud.csv"), ("laplacian", "affinity.csv"),
    ("eigen", "eigen.csv"), ("embed", "embedding.csv")])
def test_unscored_commands_run_outside_the_oracle(tmp_path, setting,
                                                  command, artifact):
    """The oracle's scope binds only the commands that score: the others
    run at any d and m."""
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(setting + "\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--n", "60",
                 "--out", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == [artifact]


def test_config_errors_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("who_knows = 1\n")
    assert main(["sample", "--config", str(cfg), "--n", "10"]) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("m = 3\nm = 8\n", "line 2: config key 'm' already set on line 1"),
    ("C1 = 1\n# again\nC1 = 2\n",
     "line 3: config key 'C1' already set on line 1")])
def test_repeated_config_key_exits_2(tmp_path, capsys, text, message):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["C_alpha2", "C_d_diam", "C1_eigen"])
def test_unread_bound_constants_are_unknown_config_keys(tmp_path,
                                                         capsys, key):
    # their evaluators take these constants as plain arguments
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(key + " = 1.0\n")
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 2
    assert "line 1: unknown config key %r" % key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["embed", "--n", "60"],
                                     ["pipeline", "--n", "300"],
                                     ["verify-s2"]])
@pytest.mark.parametrize("setting", ["kappa = 0.1", "kappa = -1",
                                     "kappa = nan", "iota = 4", "iota = 0",
                                     "iota = inf"])
def test_manifold_constants_are_not_config_keys(tmp_path, capsys,
                                                no_sampling, command,
                                                setting):
    """kappa and iota are the oracle entry's, so every command that reads
    them refuses a config line setting either, whatever its value, as an
    unknown key before anything is sampled or written."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(setting + "\n")
    out = tmp_path / "out"
    assert main(command + ["--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s line 1: unknown config key %r\n" \
        % (cfg, setting.split()[0])
    assert not out.exists()


@pytest.mark.parametrize("command", ["sample", "laplacian"])
@pytest.mark.parametrize("n", ["0", "-3"])
def test_nonpositive_n_exits_2(tmp_path, capsys, command, n):
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", n, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "argument --n: %s is not a positive integer" % n \
        in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_verify_s2_reads_config(tmp_path, capsys):
    cfg = tmp_path / "half.cfg"
    cfg.write_text("t0 = 0.5\n")
    tables = {}
    for label, extra in (("default", []), ("config", ["--config", str(cfg)]),
                         ("flag", ["--t0", "0.5"])):
        out = tmp_path / label
        assert main(["verify-s2", "--out", str(out)] + extra) in (0, 1)
        tables[label] = (out / "verify.csv").read_text()
    assert tables["config"] == tables["flag"] != tables["default"]
    # the radius inequality reads the config's C1, as bounds does
    c1 = tmp_path / "c1.cfg"
    c1.write_text("C1 = 0.05\n")
    for command in ("verify-s2", "bounds"):
        assert main([command, "--config", str(c1),
                     "--out", str(tmp_path / "c1")]) in (0, 1)
    capsys.readouterr()
    rhs = [row.split(",")[2] for row in
           (tmp_path / "c1" / "bounds.csv").read_text().splitlines()
           if row.startswith("star_check.rhs,")]
    assert len(rhs) == 1 and float(rhs[0]) == pytest.approx(0.283335938)
    target = [row.split(",")[2] for row in
              (tmp_path / "c1" / "verify.csv").read_text().splitlines()
              if row.startswith("radius-inequality,")]
    assert target == [">= %.9g" % float(rhs[0])]


@pytest.mark.parametrize("flag", [["--eps", "-1"], ["--t0", "nan"],
                                  ["--t0", "inf"], ["--t0", "0"]])
def test_verify_s2_refuses_bad_input(tmp_path, capsys, flag):
    assert main(["verify-s2", "--out", str(tmp_path)] + flag) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not (tmp_path / "verify.csv").exists()


@pytest.fixture
def no_sampling(monkeypatch):
    """Make any sample the pipeline draws fail the test."""
    def refuse(*args):
        raise AssertionError("sampled before the config was refused")
    monkeypatch.setattr("dmaplab.experiments.sample_sphere", refuse)


@pytest.mark.parametrize("command", [["pipeline", "--n", "300"],
                                     ["sample", "--n", "50"]])
def test_negative_seed_exits_2(tmp_path, capsys, no_sampling, command):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(command + ["--seed", "-1", "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --seed: -1 is not a non-negative integer" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("setting", ["tangent_t_cap = -1",
                                     "tangent_t_cap = nan",
                                     "tangent_bandwidth_const = -1",
                                     "gap_tol = -1", "gap_tol = nan",
                                     "gap_tol = inf", "eps = -1",
                                     "eps = nan", "eps = 0.2",
                                     "tangent_tol = nan",
                                     "tangent_tol = inf",
                                     "study_max_iter = 0", "t0 = -1",
                                     "t0 = nan", "m = -1",
                                     "min_subsample = 0",
                                     "min_subsample = 2",
                                     "min_subsample = -5"])
def test_pipeline_refuses_bad_config_values(tmp_path, capsys, no_sampling,
                                            setting):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(setting + "\n")
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(cfg), "--n", "300",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command", [["embed"], ["pipeline", "--n", "300"],
                                     ["verify-s2"]])
def test_infinite_time_in_config_exits_2(tmp_path, capsys, no_sampling,
                                         command):
    """t0 = inf in a config is refused by every command with the table's
    message, before anything is sampled or written."""
    cfg = tmp_path / "inf.cfg"
    cfg.write_text("t0 = inf\n")
    out = tmp_path / "out"
    assert main(command + ["--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: t0 must be positive and finite, got inf\n"
    assert not out.exists()


@pytest.mark.parametrize("setting", ["n_grid = 200,300,0",
                                     "n_grid = 200,300,2",
                                     "ntilde_grid = 100,2",
                                     "seeds = 1,-1"])
def test_pipeline_refuses_bad_grid_before_any_run(tmp_path, capsys,
                                                  no_sampling, setting):
    """A grid size below 3, the floor of both bandwidth rules, or a
    negative seed exits 2 before the first run and writes nothing."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(setting + "\n")
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and setting.split()[0] in err
    assert not out.exists()


def test_verify_s2_at_huge_t0_reports_finite_values(tmp_path, capsys):
    # t0^2 overflows while the sum under it underflows to 0
    assert main(["verify-s2", "--t0", "1e300", "--out", str(tmp_path)]) == 1
    rows = (tmp_path / "verify.csv").read_text().splitlines()
    assert rows[2] == "isometry-defect,0,in (0.95; 1.05),0"
    assert "[FAIL] isometry-defect" in capsys.readouterr().out


def test_config_grid_reaches_study(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("n_grid = 150,250,400\nseeds = 1,2\n")
    assert main(["pipeline", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "theoretical" in out
    study = (tmp_path / "study.csv").read_text().splitlines()
    assert study[1] == ("n,runs,eigenvalue_error,eigenvector_sup_error,"
                        "embedding_error,tangent_angle,first_cluster_mean")
    assert len(study) == 2 + 3
    runs = (tmp_path / "runs.csv").read_text().splitlines()
    assert runs[1] == _RUNS_HEADER
    assert len(runs) == 2 + 6                 # 3 sizes x 2 seeds


def test_tangent_study_table(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("ntilde_grid = 60,80\nseeds = 1\n")
    assert main(["tangent-study", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "tangent_study.csv").read_text().splitlines()
    assert lines[:2] == [TABLE_TAG, "ntilde,h_tilde,median_angle,max_angle"]
    assert [line.split(",")[0] for line in lines[2:]] == ["60", "80"]


_SCORING = {"pipeline-n": ["pipeline", "--n", "600"],
            "pipeline": ["pipeline"],
            "tangent": ["tangent", "--n", "200"],
            "tangent-study": ["tangent-study"],
            "verify-s2": ["verify-s2"]}
_ALIGNED = ("pipeline-n", "pipeline", "verify-s2")
_REFUSALS = [(name, d, m) for name in _SCORING
             for d, m in ((3, 8), (2, 9)) + (((2, 5),) if name in _ALIGNED
                                             else ())]


@pytest.mark.parametrize("name, d, m", _REFUSALS,
                         ids=["%s-d%d-m%d" % case for case in _REFUSALS])
def test_scoring_commands_refuse_what_the_oracle_cannot_score(
        tmp_path, capsys, no_sampling, name, d, m):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("n_grid = 200,300,400\nseeds = 1\nntilde_grid = 60,80\n"
                   "d = %d\nm = %d\n" % (d, m))
    out = tmp_path / "out"
    assert main(_SCORING[name] + ["--config", str(cfg),
                                  "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the S^2 oracle scores d = 2 at m = 3 or 8 "
                            "(tangents alone at 2 <= m <= 8), got d = %d, "
                            "m = %d\n" % (d, m))
    assert not out.exists()


@pytest.mark.parametrize("name", ["tangent", "tangent-study"])
def test_tangent_commands_score_a_cut_eigenspace(tmp_path, name):
    """The tangents alone are compared at m = 5, which pipeline refuses."""
    cfg = tmp_path / "m5.cfg"
    cfg.write_text("ntilde_grid = 60,80\nseeds = 1\nm = 5\n")
    assert main(_SCORING[name] + ["--config", str(cfg),
                                  "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command", ["laplacian", "eigen", "embed"])
def test_dense_commands_refuse_oversized_n(tmp_path, capsys, command):
    # refused before sampling, so nothing n x n is ever allocated
    assert main([command, "--n", "20001", "--out", str(tmp_path)]) == 2
    assert "dense pipeline is capped at n = 20000" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_eigen_and_embed_match_library_chain(tmp_path):
    out = ["--n", "150", "--seed", "2", "--out", str(tmp_path)]
    for command in ("sample", "eigen", "embed"):
        assert main([command] + out) == 0
    cfg = ExperimentConfig()
    cloud = load_cloud(tmp_path / "cloud.csv")
    spec = eigensolve_smallest(system_from_cloud(cloud), cfg.m,
                               gap_tol=cfg.gap_tol)
    rows = (tmp_path / "eigen.csv").read_text().splitlines()[2:]
    table = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert np.array_equal(table[:, 1], spec.mu)
    assert np.array_equal(table[:, 3:].T, spec.vec_norm)
    t = select_diffusion_time(cfg.t0, cfg.manifold_constants().iota)
    params = EmbeddingParams(t=t, m=cfg.m, d=cfg.d)
    emb = load_cloud(tmp_path / "embedding.csv")
    assert np.array_equal(emb.points, embed_points(spec, params).points)


# each command once at toy sizes, with the artifacts it writes in order
_ANNOUNCED = [
    (["sample", "--n", "60"], ["cloud.csv"]),
    (["laplacian", "--n", "60"], ["affinity.csv"]),
    (["eigen", "--n", "100"], ["eigen.csv"]),
    (["embed", "--n", "100"], ["embedding.csv"]),
    (["tangent", "--n", "100"], ["tangents.csv"]),
    (["bounds"], ["bounds.csv"]),
    (["pipeline"], ["runs.csv", "study.csv"]),
    (["rates"], ["rates.csv"]),
    (["verify-s2", "--t0", "0.3"], ["verify.csv"]),
    (["tangent-study"], ["tangent_study.csv"]),
]


def test_every_command_announces_exactly_what_it_wrote(tmp_path, capsys):
    """A command's last stdout line names each file it left in --out, in
    the order written; a refused command names none and leaves no --out."""
    assert sorted(argv[0] for argv, _ in _ANNOUNCED) == sorted(_COMMANDS)
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("n_grid = 150,250,400\nseeds = 1\nntilde_grid = 60,80\n")
    for argv, names in _ANNOUNCED:
        out = tmp_path / argv[0]
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(names)
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == "wrote " + " and ".join(str(out / n) for n in names)
    out = tmp_path / "refused"
    assert main(["laplacian", "--n", "30000", "--out", str(out)]) == 2
    assert "wrote" not in capsys.readouterr().out
    assert not out.exists()
