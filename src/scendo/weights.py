"""Epistemic scenario weights for the global-outlier programs.

For requirement k at design theta, the rule is:

1. empirical failure probability of each pseudo-distribution,
   p_i = 1 - F_{r_k(theta, a_i, epistemic set)}(0); keep the aleatory
   indices I_a whose p_i does not exceed the (1 - alpha_a) quantile of
   {p_i} (the lowest-failure-probability fraction of the scenarios);
2. worst-case value over the kept indices, v_j = max_{i in I_a}
   r_k(theta, a_i, e_j); threshold s = quantile({v_j}, 1 - alpha_e);
   weight w_j = exp(-gamma * max(0, v_j - s)).

A weight is exactly one when v_j <= s and decays to zero exponentially
fast beyond the threshold, so roughly ceil(n_e * alpha_e) scenarios can be
down-weighted.  Quantiles use the piecewise-linear interpolant from
``scendo.ecdf`` so the rule is consistent with the programs' constraints.
All functions are pure and safe to call in parallel across requirements.
"""

from __future__ import annotations

import numpy as np

from scendo.core import InputError
from scendo.ecdf import cdf_of, quantile_of

Array = np.ndarray

#: smoothing width of the sign surrogate used while solving
SIGN_EPS = 1e-8
#: slack counted as active when reporting
SIGN_REPORT_TOL = 1e-6


def smooth_sign_fraction(xi: Array) -> Array:
    """Differentiable surrogate of mean(sign(xi_i)) for xi >= 0.

    Each term xi/(xi + SIGN_EPS) rises from 0 to ~1 over a width of
    SIGN_EPS, so the
    fraction tracks the count of active slacks while staying smooth for
    gradient-based solvers.  Supports batched xi on the last axis.
    """
    xi = np.maximum(np.asarray(xi, dtype=float), 0.0)
    return np.mean(xi / (xi + SIGN_EPS), axis=-1)


def sign_fraction(xi: Array) -> float:
    """Exact fraction of slacks above SIGN_REPORT_TOL, used when reporting."""
    xi = np.asarray(xi, dtype=float)
    return float(np.count_nonzero(xi > SIGN_REPORT_TOL) / xi.size)


def failure_fractions(values: Array) -> Array:
    """Step 1's design-only part: p_i = 1 - F(0) over the last axis.

    ``values`` has shape (..., n_a, n_e); returns (..., n_a).  Programs
    that evaluate the rule at many fractions for one design compute this
    once and pass it to ``weights_from_fractions``.
    """
    return 1.0 - cdf_of(values, 0.0)


def weights_from_fractions(values: Array, p: Array, alpha_a_k, alpha_e_k, gamma: float):
    """The fraction-dependent rest of the rule, given ``p = failure_fractions(values)``.

    Applies the (1 - alpha_a_k) threshold to ``p``, keeps the aleatory
    inliers and returns ``(weights, v, s)`` as ``weights_from_values`` does,
    with the same input checks.  ``alpha_a_k`` may be an array matching the
    leading shape: the risk-averse global program feeds the slack-sign
    fraction of each batch row through this slot.
    """
    alpha_a_k = np.asarray(alpha_a_k, dtype=float)
    if np.any(alpha_a_k < 0) or np.any(alpha_a_k >= 1):
        raise InputError("alpha_a_k must lie in [0, 1)")
    if not (0.0 <= float(np.min(alpha_e_k)) and float(np.max(alpha_e_k)) < 1):
        raise InputError("alpha_e_k must lie in [0, 1)")
    if gamma < 1:
        raise InputError("gamma must be >= 1")

    thr_p = quantile_of(p, 1.0 - alpha_a_k)  # (...,)
    keep = p <= thr_p[..., None]
    if not np.all(np.any(keep, axis=-1)):
        raise RuntimeError("internal error: empty aleatory inlier set")
    v = np.max(np.where(keep[..., :, None], values, -np.inf), axis=-2)  # (..., n_e)
    s = quantile_of(v, 1.0 - alpha_e_k)
    w = np.exp(-gamma * np.maximum(0.0, v - s[..., None]))
    return w, v, s


def weights_from_values(values: Array, alpha_a_k, alpha_e_k, gamma: float):
    """Weight rule applied to a precomputed requirement-value matrix.

    ``values`` has shape (..., n_a, n_e); ``alpha_a_k`` may be an array
    matching the leading shape.  Returns ``(weights, v, s)`` with shapes
    (..., n_e), (..., n_e) and (...,).
    """
    values = np.asarray(values, dtype=float)
    return weights_from_fractions(values, failure_fractions(values), alpha_a_k, alpha_e_k, gamma)

