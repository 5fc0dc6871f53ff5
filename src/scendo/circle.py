"""Data-enclosing-circle design problem.

The designer picks a nominal circle, center c in R^2 and radius mu >= 0,
but the circle actually realized is a perturbed version of it: with
u = (cos e2, sin e2) the implemented center and radius are

    c~(theta, e) = c + mu * e1 * u
    mu~(theta, e) = mu * (1 + mu * e1 * e3 * c.u)

for an epistemic parameter e in E = [0, 1/5] x [0, 2*pi] x [0, 1/5].  The
single requirement asks a sampled point a to lie inside every realizable
circle, r(theta, a, e) = ||c~ - a||^2 - mu~^2 <= 0, and the objective is
the nominal area pi * mu^2.  A tightness response mu~^2 + ||a - c~|| is
provided for the moment-based programs.

Aleatory points are drawn from a documented two-component Gaussian mixture
(an artifact choice: the original data behind published figures of merit
for this problem is not available, so objective values obtained here match
external references in regime only, never exactly).
"""

from __future__ import annotations

import numpy as np

from scendo.core import (
    EpistemicSet,
    ProblemBundle,
    ProblemSpec,
    ScenarioData,
    register_problem,
)

Array = np.ndarray

E_LOWER = np.array([0.0, 0.0, 0.0])
E_UPPER = np.array([0.2, 2.0 * np.pi, 0.2])

DEFAULT_DESIGN_BOUNDS = np.array([[-12.0, 12.0], [-12.0, 12.0], [0.0, 12.0]])

MIX_WEIGHT = 0.8  # weight of the centered component
MIX_MEAN_0 = np.array([0.0, 0.0])
MIX_MEAN_1 = np.array([2.5, 1.5])
MIX_VAR_0 = 1.0
MIX_VAR_1 = 0.3


def _realized(theta, e):
    """Realized center (x, y) and radius mu~ of design theta under e.

    One array per coordinate: no trailing axis of length 2 is ever
    materialized over a grid, and each entry is the same expression of its
    own (theta, e) point whatever the broadcast layout.
    """
    theta = np.asarray(theta, dtype=float)
    e = np.asarray(e, dtype=float)
    c0, c1, mu = theta[..., 0], theta[..., 1], theta[..., 2]
    u0, u1 = np.cos(e[..., 1]), np.sin(e[..., 1])
    shift = mu * e[..., 0]
    x = c0 + shift * u0
    y = c1 + shift * u1
    mu_t = mu * (1.0 + shift * e[..., 2] * (c0 * u0 + c1 * u1))
    return x, y, mu_t


def _squared_distance(theta, a, e):
    """||c~ - a||^2, accumulated in place in the first grid-sized difference,
    and mu~.

    The differences already have the whole broadcast shape (mu~ and the
    center share theta's and e's leading shape), so the kernels hold two
    grid arrays, and every operation is the one of the plain expression,
    in the same order and with the same bits.  A 0-d layout gives numpy
    scalars, which the augmented operators rebind instead.
    """
    a = np.asarray(a, dtype=float)
    x, y, mu_t = _realized(theta, e)
    dx = x - a[..., 0]
    dy = y - a[..., 1]
    dx *= dx
    dy *= dy
    dx += dy
    return dx, mu_t


def circle_requirement(theta, a, e):
    """||c~ - a||^2 - mu~^2; <= 0 when a is inside the realized circle."""
    d2, mu_t = _squared_distance(theta, a, e)
    d2 -= mu_t * mu_t
    return d2


def circle_response(theta, a, e):
    """Tightness measure mu~^2 + ||a - c~||_2 (smaller = tighter enclosure)."""
    d2, mu_t = _squared_distance(theta, a, e)
    d = np.sqrt(d2, out=d2) if isinstance(d2, np.ndarray) else np.sqrt(d2)
    d += mu_t * mu_t  # IEEE addition commutes: the bits of mu~^2 + d
    return d


def circle_objective(theta):
    """Nominal area pi * mu^2."""
    theta = np.asarray(theta, dtype=float)
    return np.pi * theta[..., 2] ** 2


def aleatory_density(a) -> Array:
    """Joint density of the shipped Gaussian mixture."""
    a = np.asarray(a, dtype=float)

    def _phi(x, mean, var):
        d2 = np.sum((x - mean) ** 2, axis=-1)
        return np.exp(-0.5 * d2 / var) / (2.0 * np.pi * var)

    return MIX_WEIGHT * _phi(a, MIX_MEAN_0, MIX_VAR_0) + (1.0 - MIX_WEIGHT) * _phi(
        a, MIX_MEAN_1, MIX_VAR_1
    )


def sample_aleatory(n: int, rng: np.random.Generator) -> Array:
    labels = rng.uniform(size=n) < MIX_WEIGHT
    z = rng.standard_normal((n, 2))
    out = np.where(
        labels[:, None],
        MIX_MEAN_0 + np.sqrt(MIX_VAR_0) * z,
        MIX_MEAN_1 + np.sqrt(MIX_VAR_1) * z,
    )
    return out


def sample_epistemic(n: int, rng: np.random.Generator) -> Array:
    return rng.uniform(E_LOWER, E_UPPER, size=(n, 3))


def generate_dataset(
    n_a: int, n_e: int, seed: int, n_a_test: int = 0, n_e_test: int = 0
) -> ScenarioData:
    """Deterministic synthetic datasets: mixture aleatory points, uniform
    epistemic points; testing sets (if requested) continue the same stream."""
    rng = np.random.default_rng(seed)
    aleatory = sample_aleatory(n_a, rng)
    epistemic = sample_epistemic(n_e, rng)
    testing_a = sample_aleatory(n_a_test, rng) if n_a_test else None
    testing_e = sample_epistemic(n_e_test, rng) if n_e_test else None
    return ScenarioData(aleatory, epistemic, testing_a, testing_e)


def epistemic_box() -> EpistemicSet:
    return EpistemicSet.from_box(E_LOWER, E_UPPER)


def make_spec(design_bounds=None) -> ProblemSpec:
    return ProblemSpec(
        objective=circle_objective,
        requirements=[circle_requirement],
        design_bounds=DEFAULT_DESIGN_BOUNDS if design_bounds is None else design_bounds,
        m_a=2,
        m_e=3,
    )


@register_problem("circle")
def _circle_factory(design_bounds=None) -> ProblemBundle:
    return ProblemBundle(
        spec=make_spec(design_bounds),
        epistemic_set=epistemic_box(),
        response=circle_response,
        density=aleatory_density,
        generate=generate_dataset,
    )
