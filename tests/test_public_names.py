import importlib
import inspect
import pkgutil

import dmaplab

# the public names of dmaplab: a name leaves or joins this set only by a
# deliberate change to the package's interface
_PUBLIC = {
    "BoundConstants", "EmbeddedCloud", "EmbeddingParams",
    "ExperimentConfig", "KernelConfig", "LaplacianSystem",
    "ManifoldDescriptor", "PointCloud", "RateExponents", "RunRecord",
    "SpectralSet", "TangentBasis", "TangentConfig", "TangentEstimate",
    "ball_counts", "bandwidth", "build_affinity", "cluster_eigenvalues",
    "convergence_study", "croke_constant", "diameter_upper", "eigen_errors",
    "eigen_lower_power", "eigensolve_smallest", "embed_points",
    "embedding_error", "emit_csv", "eps_cap", "estimate_tangents",
    "fit_local_polynomial", "format_convergence", "format_tangent_study",
    "format_verify", "gaussian_kernel", "geodesic_euclid_bounds",
    "heat_lower_diag", "heat_lower_offdiag", "heat_upper",
    "heat_upper_liyau", "l2_invdensity_norm", "laplacian", "legendre_p",
    "li_yau_upper", "load_cloud", "load_config", "local_reach_numeric",
    "pushforward_density", "r1_value", "rate_exponents",
    "real_sph_harmonic", "run_pipeline", "s1_min", "s2_heat_kernel",
    "s2_oracle_embedding", "s2_oracle_tangent", "sample_sphere",
    "sample_torus", "save_cloud", "second_fundamental_form",
    "select_diffusion_time", "select_eps_prime", "sign_align",
    "sphere_area", "sphere_truth", "star_check", "subsample_size",
    "subspace_align", "subspace_angle", "system_from_cloud",
    "tangent_bandwidth", "tangent_study", "true_tangent_sphere",
    "truth_clusters", "verify_s2", "weyl_estimate",
}


def test_public_names_are_pinned_unique_and_resolve():
    assert len(dmaplab.__all__) == len(set(dmaplab.__all__))
    assert set(dmaplab.__all__) == _PUBLIC
    for name in dmaplab.__all__:
        assert getattr(dmaplab, name) is not None


def test_only_the_package_declares_an_interface():
    """dmaplab/__init__.py is the one list of public names."""
    names = [m.name for m in pkgutil.iter_modules(dmaplab.__path__)
             if m.name != "__main__"]          # importing it runs the CLI
    assert "geometry" in names
    for name in names:
        assert not hasattr(importlib.import_module("dmaplab." + name),
                           "__all__"), name


# every parameter and dataclass field of a public name that has a default,
# with the repr of that default: a value joins or leaves the settable ones
# only by a deliberate change, as a name does in _PUBLIC
_SETTABLE = {
    "BoundConstants.C1": "0.408912",
    "BoundConstants.C2": "None",
    "ExperimentConfig.manifold": "'sphere'",
    "ExperimentConfig.d": "2",
    "ExperimentConfig.k": "3",
    "ExperimentConfig.t0": "0.25",
    "ExperimentConfig.m": "8",
    "ExperimentConfig.eps": "0.05",
    "ExperimentConfig.gap_tol": "0.25",
    "ExperimentConfig.n_grid": "(500, 1000, 2000, 4000)",
    "ExperimentConfig.seeds": "(1, 2, 3, 4, 5)",
    "ExperimentConfig.ntilde_grid": "(250, 500, 1000, 2000)",
    "ExperimentConfig.tangent_max_iter": "20",
    "ExperimentConfig.study_max_iter": "100",
    "ExperimentConfig.output_dir": "'.'",
    "ExperimentConfig.constants": "<factory>",
    "LaplacianSystem.ball_counts": "None",
    "LaplacianSystem.d": "None",
    "RunRecord.h": "nan",
    "RunRecord.t": "nan",
    "RunRecord.m": "0",
    "RunRecord.eigenvalue_errors": "<factory>",
    "RunRecord.eigenvector_sup_errors": "<factory>",
    "RunRecord.embedding_error": "nan",
    "RunRecord.tangent_angle_median": "nan",
    "RunRecord.tangent_angle_max": "nan",
    "RunRecord.first_cluster_mean": "nan",
    "RunRecord.pattern_matched": "False",
    "RunRecord.status": "'ok'",
    "RunRecord.wall_time": "0.0",
    "TangentConfig.k": "3",
    "TangentConfig.max_iter": "20",
    "TangentConfig.f_min": "0.07957747154594767",
    "TangentConfig.f_max": "0.07957747154594767",
    "eigensolve_smallest.gap_tol": "0.25",
    "estimate_tangents.h_tilde": "None",
    "heat_upper_liyau.c_d": "None",
    "laplacian.ball_counts": "None",
    "laplacian.d": "None",
    "li_yau_upper.diam": "None",
    "local_reach_numeric.domain":
        "((0.0, 3.141592653589793), (0.0, 6.283185307179586))",
    "s2_oracle_tangent.method": "'analytic'",
    "sphere_truth.m": "8",
    "system_from_cloud.h": "None",
}


def test_public_settable_values_are_pinned():
    settable = {}
    for name in dmaplab.__all__:
        for p in inspect.signature(getattr(dmaplab, name)).parameters.values():
            if p.default is not p.empty:
                settable["%s.%s" % (name, p.name)] = repr(p.default)
    assert settable == _SETTABLE
