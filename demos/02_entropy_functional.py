"""Two routes to the entropy functional of a linearly driven diffusion.

dx = x dt + dW from x(0) = 1 over [0, 1]: the Monte Carlo estimate of the
drift quadratic form and the covariance closed form agree on 2.1459 nats.
"""

import numpy as np

from ipflab import diffusion, entropy

# A = 1, sigma = 1, from x(0) = 1: stepped at weak order 2 from the
# matrices, on the default grid of horizon/100
model = diffusion.linear_model(1.0, 1.0, 1.0, 0.0, (0.0, 1.0))

mc = entropy.entropy_mc(model, 50000, seed=7)

# the second moment obeys rdot = 2 r + 1 from r(0) = 1
grid = np.linspace(0.0, 1.0, 10001)
r = 1.5 * np.exp(2.0 * grid) - 0.5
cf = entropy.entropy_covariance_form(1.0, diffusion.stats_from_covariance(grid, r), 1.0)

print(f"Monte Carlo : {mc.value:.4f} +/- {mc.std_error:.4f} nats")
print(f"closed form : {cf.value:.4f} nats")
print(f"gap         : {abs(mc.value - cf.value):.4f} "
      f"({abs(mc.value - cf.value) / (3 * mc.std_error):.2f} of 3 standard errors)")
