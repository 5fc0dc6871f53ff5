"""scendo: scenario-based design under mixed aleatory/epistemic uncertainty.

The library solves chance-constrained design problems where some uncertain
parameters are random draws from a (possibly unknown) distribution and
others are fixed-but-unknown members of a bounded set.  It provides

* seven scenario-program formulations trading performance against
  robustness by eliminating an optimally chosen subset of scenarios,
* robust Monte Carlo analysis of a fixed design (failure-probability
  ranges with exact binomial confidence intervals),
* distribution-free risk bounds from support scenarios and set complexity,
* a sequential design loop alternating cheap training with high-fidelity
  testing, and
* the data-enclosing-circle benchmark problem used throughout the tests
  and demos.
"""

from scendo.core import (
    AlphaConfig,
    EpistemicSet,
    InputError,
    ProblemBundle,
    ProblemSpec,
    ScenarioData,
    SolveResult,
    make_problem,
    r_max,
    register_problem,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaConfig",
    "EpistemicSet",
    "InputError",
    "ProblemBundle",
    "ProblemSpec",
    "ScenarioData",
    "SolveResult",
    "make_problem",
    "r_max",
    "register_problem",
    "__version__",
]
