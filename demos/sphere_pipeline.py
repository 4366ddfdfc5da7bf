"""End-to-end run on the unit sphere: sample, build the graph Laplacian,
solve the spectral problem, embed, and compare against the closed-form
spherical-harmonic answer.

Usage: python3 demos/sphere_pipeline.py [n] [seed]
"""

import sys

import numpy as np

from dmaplab import (EmbeddingParams, eigen_errors, eigensolve_smallest,
                     embed_points, embedding_error, s2_oracle_embedding,
                     sample_sphere, sphere_truth, system_from_cloud,
                     truth_clusters)

n = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
t, m = 0.25, 8

cloud = sample_sphere(n, 2, seed)
system = system_from_cloud(cloud)
print("n=%d  bandwidth h=%.6f" % (n, system.h))

spec = eigensolve_smallest(system, m)
print("eigenvalues:", np.array2string(spec.mu, precision=4))
print("detected clusters:", spec.clusters)

lam, truth_cols = sphere_truth(cloud.points, m)
report = eigen_errors(spec, lam, truth_cols)
for g, (ev, sv) in enumerate(zip(report.value_errors,
                                 report.vector_sup_errors)):
    print("group %d: mean |mu - lambda| = %.4f, sup vector error = %.4f"
          % (g, ev, sv))
print("multiplicity pattern matched:", report.pattern_matched)

params = EmbeddingParams(t=t, m=m, d=2)
emb = embed_points(spec, params)
target = s2_oracle_embedding(cloud.points, t)[:, :m]
err = embedding_error(emb.points, target, truth_clusters(lam))
print("embedding sup error after per-block alignment: %.4f" % err)

norms = np.linalg.norm(emb.points, axis=1)
print("embedded radii: min %.4f  median %.4f  max %.4f  (oracle %.6f)"
      % (norms.min(), np.median(norms), norms.max(),
         np.linalg.norm(target[0])))
