"""Tour of the scenario-program formulations on the enclosing-circle problem.

A designer picks a nominal circle (center, radius), but manufacturing
scatter perturbs what is actually built: the true circle's center shifts
and its radius changes by amounts that are only known to lie in a box.
We want the cheapest nominal circle whose every realizable perturbation
still encloses (most of) a cloud of sampled points.

This script trains the same datasets through several formulations and
shows the performance/robustness trade as outliers are allowed.
"""

import numpy as np

from scendo import circle, nlp
from scendo.core import AlphaConfig
from scendo.programs import (
    requirement_values,
    solve_feasibility_seed,
    solve_moment_risk_averse,
    solve_risk_agnostic_local,
    solve_risk_averse_local,
)

spec = circle.make_spec()
data = circle.generate_dataset(n_a=30, n_e=20, seed=42)
opts = nlp.NlpOptions(seed=0, n_starts=6)
grid_a, grid_e = data.n_a - 1, data.n_e - 1

print(f"training data: {data.n_a} aleatory points, {data.n_e} epistemic draws")
print()

# 1. fully robust, risk-averse: every training pair must be enclosed
robust = solve_risk_averse_local(spec, data, AlphaConfig.uniform(1, rho=1e6), opts)
print(f"robust risk-averse        J = {robust.objective:8.2f}   "
      f"outliers: {robust.aleatory_outliers.size}")

# 2. drop the two worst epistemic draws of each pseudo-distribution
cfg_e = AlphaConfig(np.array([0.0]), np.array([2 / grid_e]), rho=1e6)
relaxed_e = solve_risk_averse_local(spec, data, cfg_e, opts)
print(f"2 epistemic outliers      J = {relaxed_e.objective:8.2f}   "
      f"(each scenario discards its own worst draws)")

# 3. risk-agnostic: additionally ignore two aleatory scenarios outright
cfg_ae = AlphaConfig(np.array([2 / grid_a]), np.array([2 / grid_e]))
agnostic = solve_risk_agnostic_local(spec, data, cfg_ae, opts)
print(f"+2 aleatory outliers      J = {agnostic.objective:8.2f}   "
      f"ignored scenarios: {agnostic.aleatory_outliers}")

# a finite penalty trades robustness by violation *magnitude* instead:
# scenarios whose slack is cheaper than the area it saves drop out
averse_ae = solve_risk_averse_local(spec, data, AlphaConfig(
    np.array([0.0]), np.array([2 / grid_e]), rho=0.5), opts)
print(f"risk-averse (rho = 0.5)   J = {averse_ae.objective:8.2f}   "
      f"outliers: {averse_ae.aleatory_outliers.size} (count set by the penalty, not upfront)")
print()

# 4. how low could the failure fraction go? the feasibility seed tells us
seed = solve_feasibility_seed(spec, data, AlphaConfig.uniform(1), opts=opts)
print(f"feasibility seed ({seed.solver_status}): the instance is solvable down to "
      f"alpha_a = {seed.alpha_a_lower[0]:.3f}")

# 5. minimize the mean enclosure tightness instead of the area
moment = solve_moment_risk_averse(
    spec, data, AlphaConfig.uniform(1, rho=1e6), h=circle.circle_response, opts=opts)
print(f"moment design: mean tightness level = {moment.lambda_star:.2f} at "
      f"radius {moment.theta_star[2]:.2f}")
print()

worst = float(requirement_values(spec, data, robust.theta_star).max())
print(f"sanity: worst training requirement of the robust design = {worst:.2e} (<= 0)")
