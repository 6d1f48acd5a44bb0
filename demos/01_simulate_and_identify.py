"""Simulate a controlled diffusion ensemble and identify its operator.

A scalar Ornstein-Uhlenbeck process is run from its stationary law, the
ensemble moments are reduced, and the drift operator is recovered four
ways.  All four land near the true value -theta (the closed-loop variant
reports +theta, the magnitude seen under the doubling feedback).
"""

import numpy as np

from ipflab import diffusion, identification

THETA = 1.0
N_PATHS = 20000

# dx = -theta x dt + dW, held as its matrices: stepped at weak order 2 on
# the default grid of horizon/100
model = diffusion.linear_model(
    -THETA, 1.0,
    0.0, 1.0 / (2 * THETA),   # stationary variance sigma^2/(2 theta)
    (0.0, 2.0),
)

stats = diffusion.simulate_ensemble(model, N_PATHS, seed=42)
stats = diffusion.covariance_derivative(stats)
print(f"r(2) = {stats.r[-1, 0, 0]:.4f}  (stationary value 0.5)")

b = np.array([[0.5]])   # local drift matrix sigma^2 / 2
for op in (
    identification.identify_reduced_feedback(stats, 2.0, b=b),
    identification.identify_closed_loop(stats, 2.0, b=b),
):
    lam = op.A[0, 0]
    print(f"{op.method:>18}: A = {lam:+.4f}")

# the derivative-based routes need a visible rdot; feed them the analytic
# relaxation moments r(t) = (1 - e^{-2 theta t}) / (2 theta)
grid = np.linspace(0.0, 1.0, 4001)
r = (1.0 - np.exp(-2.0 * THETA * grid)) / (2.0 * THETA)
rstats = diffusion.covariance_derivative(
    diffusion.stats_from_covariance(grid, r))
for op in (
    identification.identify_covariance_ratio(rstats, 1.0),
    identification.identify_dispersion_window(rstats, 1.0, window=1.0),
):
    print(f"{op.method:>18}: A = {op.A[0, 0]:+.4f}  "
          "(= b(1)/r(1) on the relaxing branch)")
