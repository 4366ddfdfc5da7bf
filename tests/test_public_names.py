import importlib
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
