"""Numerical laboratory for spectral embeddings of sampled manifolds.

Builds graph-Laplacian embeddings of point clouds, fits local polynomial
tangent spaces, evaluates curvature/heat-kernel/eigenvalue bounds, and
verifies everything against the closed-form unit sphere, where the
eigenfunctions, the embedding, and the tangent planes are all known
exactly.
"""

from .bounds import (BoundConstants, RateExponents, croke_constant,
                     diameter_upper, eigen_lower_power, eps_cap,
                     geodesic_euclid_bounds, heat_lower_diag,
                     heat_lower_offdiag, heat_upper, heat_upper_liyau,
                     li_yau_upper, r1_value, rate_exponents, s1_min,
                     star_check, weyl_estimate)
from .embedding import (EmbeddedCloud, EmbeddingParams, embed_points,
                        embedding_error, select_diffusion_time,
                        select_eps_prime)
from .experiments import (ExperimentConfig, convergence_study,
                          format_convergence, format_tangent_study,
                          format_verify, load_config, run_pipeline,
                          sphere_truth, tangent_study, truth_clusters,
                          verify_s2)
from .geometry import (ManifoldDescriptor, PointCloud, TangentBasis,
                       legendre_p, local_reach_numeric, pushforward_density,
                       real_sph_harmonic, s2_heat_kernel,
                       s2_oracle_embedding, s2_oracle_tangent, sample_sphere,
                       sample_torus, second_fundamental_form, sphere_area,
                       true_tangent_sphere)
from .graph import (KernelConfig, LaplacianSystem, ball_counts, bandwidth,
                    build_affinity, gaussian_kernel, laplacian,
                    system_from_cloud)
from .io import RunRecord, emit_csv, load_cloud, save_cloud
from .spectral import (SpectralSet, cluster_eigenvalues, eigen_errors,
                       eigensolve_smallest, l2_invdensity_norm, sign_align,
                       subspace_align)
from .tangent import (TangentConfig, TangentEstimate, estimate_tangents,
                      fit_local_polynomial, subsample_size, subspace_angle,
                      tangent_bandwidth)

__version__ = "0.1.0"

__all__ = [
    "BoundConstants", "RateExponents", "croke_constant", "diameter_upper",
    "eigen_lower_power", "eps_cap", "geodesic_euclid_bounds",
    "heat_lower_diag", "heat_lower_offdiag", "heat_upper",
    "heat_upper_liyau", "li_yau_upper", "r1_value", "rate_exponents",
    "s1_min", "star_check", "weyl_estimate",
    "EmbeddedCloud", "EmbeddingParams", "embed_points", "embedding_error",
    "select_diffusion_time", "select_eps_prime",
    "ExperimentConfig", "RunRecord", "convergence_study",
    "format_convergence", "format_tangent_study", "format_verify",
    "load_config", "run_pipeline", "sphere_truth", "tangent_study",
    "truth_clusters", "verify_s2",
    "ManifoldDescriptor", "PointCloud", "TangentBasis", "legendre_p",
    "local_reach_numeric", "pushforward_density", "real_sph_harmonic",
    "s2_heat_kernel", "s2_oracle_embedding", "s2_oracle_tangent",
    "sample_sphere", "sample_torus", "second_fundamental_form",
    "sphere_area", "true_tangent_sphere",
    "KernelConfig", "LaplacianSystem", "ball_counts", "bandwidth",
    "build_affinity", "gaussian_kernel", "laplacian", "system_from_cloud",
    "emit_csv", "load_cloud", "save_cloud",
    "SpectralSet", "cluster_eigenvalues", "eigen_errors",
    "eigensolve_smallest", "l2_invdensity_norm", "sign_align",
    "subspace_align",
    "TangentConfig", "TangentEstimate", "estimate_tangents",
    "fit_local_polynomial", "subsample_size", "subspace_angle",
    "tangent_bandwidth",
]
