"""Run the sphere verification battery at the default operating point and
at two off-nominal diffusion times, printing the full check reports.

The default settings pass every check.  At t0=0.5 the differential norm
0.9415 already sits just outside the (0.95, 1.05) isometry window, and
by t0=4 the embedding has collapsed to norm 0.0066; both reports flag
the failure.
"""

from dmaplab import ExperimentConfig, format_verify, verify_s2

for t0 in (0.25, 0.5, 4.0):
    print("=" * 60)
    print("diffusion time t0 = %g" % t0)
    print(format_verify(verify_s2(ExperimentConfig(t0=t0))))
    print()
