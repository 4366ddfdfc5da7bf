"""Local polynomial tangent fits on three test geometries.

A flat plane is recovered to machine precision, the unit circle exposes
the curvature coefficient 1/2 in the degree-2 tensor, and the embedded
sphere shows the realistic error level at n=2000.
"""

import numpy as np

from dmaplab import (EmbeddedCloud, EmbeddingParams, PointCloud,
                     TangentConfig, estimate_tangents,
                     fit_local_polynomial, s2_oracle_embedding,
                     s2_oracle_tangent, sample_sphere, subspace_angle,
                     tangent_bandwidth)

rng = np.random.default_rng(7)
cfg = TangentConfig(k=3)

# flat plane in R^5
U = np.linalg.qr(rng.normal(size=(5, 2)))[0]
coords = rng.uniform(-1, 1, size=(200, 2))
plane = PointCloud(points=coords @ U.T, d=2, seed=7)
fit = fit_local_polynomial(plane, 0, 0.8, cfg)
print("plane:  angle to truth = %.2e" % subspace_angle(fit.basis, U))

# unit circle
s = np.linspace(0, 2 * np.pi, 200, endpoint=False)
circle = PointCloud(points=np.stack([np.cos(s), np.sin(s)], axis=1),
                    d=1, seed=7)
cfit = fit_local_polynomial(circle, 0, 0.3, cfg)
print("circle: angle to truth = %.2e, curvature coefficient = %.4f "
      "(exact 0.5)" % (subspace_angle(cfit.basis,
                                      np.array([[0.0], [1.0]])),
                       np.linalg.norm(cfit.tensors[2][0])))

# sphere via the spectral embedding family
n, t = 2000, 0.25
cloud = sample_sphere(n, 2, 7)
params = EmbeddingParams(t=t, m=8, d=2)
emb = EmbeddedCloud(s2_oracle_embedding(cloud.points, t), params)
cfg = TangentConfig(k=3, max_iter=100)
batch = estimate_tangents(emb, range(0, n, 4), cfg,
                          tangent_bandwidth(n, 2, cfg))
angles = [subspace_angle(f.basis,
                         s2_oracle_tangent(cloud.points[i], t).basis)
          for i, f in batch.fits.items()]
print("sphere: %d fits, angle median %.4f / max %.4f, %d failures"
      % (len(angles), np.median(angles), np.max(angles),
         len(batch.errors)))
