"""Scenario-program builders: translate a problem + datasets + outlier
fractions into box-constrained NLPs and solve them.

Seven formulations are provided.  The risk-averse pair penalizes the
magnitude of requirement violations through per-aleatory-scenario slacks;
the risk-agnostic pair removes a prescribed fraction of scenarios by
quantile count only; the feasibility seed searches for the smallest
fractions making a risk-agnostic program feasible; and the two
moment-based variants minimize an empirical mean of a response function.
"Global" formulations discard one shared set of epistemic scenarios,
"local" ones discard the worst scenarios of each pseudo-distribution
separately.

All quantiles use the piecewise-linear interpolant from ``scendo.ecdf``,
so constraints are piecewise-linear in the sampled requirement values.
Builders are pure functions of their inputs, and every solve is
deterministic given the solver options' seed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from scendo import nlp
from scendo.core import (
    AlphaConfig,
    InputError,
    ProblemSpec,
    ScenarioData,
    SolveResult,
)
from scendo.ecdf import quantile_of
from scendo.weights import (
    failure_fractions,
    sign_fraction,
    smooth_sign_fraction,
    weights_from_fractions,
    weights_from_values,
)

Array = np.ndarray

logger = logging.getLogger(__name__)

#: largest fraction below one; the weight rule's aleatory slot is [0, 1)
_BELOW_ONE = np.nextafter(1.0, 0.0)


class FormulationTag(str, Enum):
    RISK_AVERSE_GLOBAL = "risk_averse_global"
    RISK_AVERSE_LOCAL = "risk_averse_local"
    RISK_AGNOSTIC_GLOBAL = "risk_agnostic_global"
    RISK_AGNOSTIC_LOCAL = "risk_agnostic_local"
    FEASIBILITY_SEED = "feasibility_seed"
    MOMENT_RISK_AVERSE = "moment_risk_averse"
    MOMENT_RISK_AGNOSTIC = "moment_risk_agnostic"


MOMENT_TAGS = (FormulationTag.MOMENT_RISK_AVERSE, FormulationTag.MOMENT_RISK_AGNOSTIC)


@dataclass(frozen=True)
class MomentSpec:
    """Response function and the empirical moment minimized over it."""

    response: Callable[[Array, Array, Array], Array]
    kind: str = "mean"

    def __post_init__(self):
        if self.kind != "mean":
            raise InputError(f"unsupported moment kind {self.kind!r}")


@dataclass(frozen=True)
class Formulation:
    tag: FormulationTag
    moment: Optional[MomentSpec] = None

    def __post_init__(self):
        is_moment = self.tag in MOMENT_TAGS
        if is_moment and self.moment is None:
            raise InputError(f"{self.tag.value} requires a MomentSpec")
        if not is_moment and self.moment is not None:
            raise InputError(f"{self.tag.value} does not take a MomentSpec")


def requirement_values(
    spec: ProblemSpec, data: ScenarioData, theta: Array, k: Optional[int] = None
) -> Array:
    """Requirement values on the training grid.

    theta may carry leading batch axes: returns (..., n_a, n_e) for a
    single requirement k, else (..., n_r, n_a, n_e).
    """
    theta = np.asarray(theta, dtype=float)
    th = theta[..., None, None, :]
    a = data.aleatory[:, None, :]
    e = data.epistemic[None, :, :]
    target = theta.shape[:-1] + (data.n_a, data.n_e)
    if k is not None:
        return np.broadcast_to(np.asarray(spec.requirements[k](th, a, e), float), target)
    vals = [
        np.broadcast_to(np.asarray(rk(th, a, e), float), target)
        for rk in spec.requirements
    ]
    return np.stack(vals, axis=-3)


def _objective_values(spec: ProblemSpec, theta: Array) -> Array:
    return np.broadcast_to(np.asarray(spec.objective(theta), float), theta.shape[:-1])


def _req_quantiles(values: Array, levels: Array) -> Array:
    """Per-requirement quantile over the epistemic axis.

    values: (..., n_r, n_a, n_e); levels: (n_r,) -> (..., n_r, n_a).
    """
    return quantile_of(values, levels[:, None])


def _per_design(theta: Array, design_terms: Callable[[Array], tuple]) -> tuple:
    """Evaluate ``design_terms`` once per distinct design row, scattered back.

    ``theta`` is (..., m); ``design_terms`` maps a (U, m) stack of distinct
    designs to a tuple of arrays with leading axis U.  Returns the tuple
    with that axis replaced by theta's leading shape.  Rows match on their
    exact bytes, so under the batch contract (see ``scendo.nlp``) every
    result row equals evaluating its design alone.  Programs with
    auxiliary variables need this: all auxiliary probes of a
    finite-difference batch repeat the design of its centre row.
    """
    theta = np.asarray(theta, dtype=float)
    lead, m = theta.shape[:-1], theta.shape[-1]
    flat = np.ascontiguousarray(theta.reshape(-1, m))
    keys = flat.view(np.dtype((np.void, flat.itemsize * m))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    inverse = inverse.ravel()
    return tuple(
        t[inverse].reshape(lead + t.shape[1:]) for t in design_terms(flat[first])
    )


def _theta_starts(spec: ProblemSpec, opts: nlp.NlpOptions) -> Array:
    rng = np.random.default_rng(opts.seed)
    return nlp.latin_hypercube(spec.design_bounds, opts.n_starts, rng)


def _assemble(
    spec: ProblemSpec,
    data: ScenarioData,
    cfg: AlphaConfig,
    res: nlp.NlpResult,
    *,
    xi: Optional[Array] = None,
    lam: Optional[float] = None,
    global_epistemic: Optional[Array] = None,
    objective: Optional[float] = None,
    alpha_a_lower: Optional[Array] = None,
) -> SolveResult:
    theta = res.x[: spec.m_theta]
    status = "infeasible" if res.status == "failed" else res.status
    o_a, o_e = outlier_sets(spec, data, cfg, theta)
    return SolveResult(
        theta_star=theta,
        objective=float(_objective_values(spec, theta)) if objective is None else objective,
        solver_status=status,
        restarts_used=res.diagnostics.get("n_starts", 1),
        xi_star=xi,
        lambda_star=lam,
        aleatory_outliers=o_a,
        epistemic_outliers=global_epistemic if global_epistemic is not None else o_e,
        diagnostics=dict(res.diagnostics),
        alpha_a_lower=alpha_a_lower,
    )


def outlier_sets(spec: ProblemSpec, data: ScenarioData, cfg: AlphaConfig, theta):
    """Aleatory outliers and per-scenario epistemic outliers at a design.

    A scenario is an aleatory outlier when at least one requirement's
    (1 - alpha_e) quantile over the epistemic set is positive; the
    epistemic outliers of scenario i are the draws exceeding that
    quantile for some requirement.
    """
    cfg = cfg.for_spec(spec)
    values = requirement_values(spec, data, np.asarray(theta, float))
    q = _req_quantiles(values, 1.0 - cfg.alpha_e)  # (n_r, n_a)
    o_a = np.flatnonzero(np.max(q, axis=0) > 0.0)
    o_e = [
        np.flatnonzero(np.any(values[:, i, :] > q[:, i, None], axis=0))
        for i in range(data.n_a)
    ]
    return o_a, o_e


def _global_epistemic_outliers(spec, data, cfg, theta, alpha_a_slots) -> Array:
    """Epistemic draws whose weight falls below one for some requirement."""
    values = requirement_values(spec, data, np.asarray(theta, float))
    out: set[int] = set()
    for k in range(spec.n_r):
        _, v, s = weights_from_values(
            values[k], min(alpha_a_slots[k], 1.0 - 1e-9), cfg.alpha_e[k], cfg.gamma
        )
        out.update(np.flatnonzero(v > s).tolist())
    return np.array(sorted(out), dtype=int)


def _local_design_terms(spec: ProblemSpec, data: ScenarioData, levels: Array):
    """Design-only term of the local programs for ``_per_design``: the
    per-requirement epistemic quantiles, (U, n_r, n_a)."""

    def design_terms(theta):
        return (_req_quantiles(requirement_values(spec, data, theta), levels),)

    return design_terms


def _global_design_terms(spec: ProblemSpec, data: ScenarioData):
    """Design-only terms of the global programs for ``_per_design``: the
    requirement grid and its failure fractions, (U, n_r, n_a, n_e) and
    (U, n_r, n_a)."""

    def design_terms(theta):
        values = requirement_values(spec, data, theta)
        return values, failure_fractions(values)

    return design_terms


# ---------------------------------------------------------------------------
# risk-averse formulations (slack-penalized, magnitude-aware)
# ---------------------------------------------------------------------------


def solve_risk_averse_local(
    spec: ProblemSpec, data: ScenarioData, cfg: AlphaConfig, opts: Optional[nlp.NlpOptions] = None
) -> SolveResult:
    """Decision (theta, xi >= 0); each pseudo-distribution's (1 - alpha_e)
    quantile must stay below its scenario's slack, and slack is charged at
    rho per unit.  Each pseudo-distribution discards its own worst
    epistemic draws."""
    cfg = cfg.for_spec(spec)
    opts = opts or nlp.NlpOptions()
    m, n_a, n_r = spec.m_theta, data.n_a, spec.n_r

    def obj_any(x):
        x = np.asarray(x, float)
        return _objective_values(spec, x[..., :m]) + cfg.rho * np.sum(x[..., m:], axis=-1)

    design_terms = _local_design_terms(spec, data, 1.0 - cfg.alpha_e)

    def cons_any(x):
        x = np.asarray(x, float)
        (q,) = _per_design(x[..., :m], design_terms)
        g = q - x[..., None, m:]
        return g.reshape(x.shape[:-1] + (n_r * n_a,))

    starts = np.hstack([_theta_starts(spec, opts), np.zeros((opts.n_starts, n_a))])
    problem = nlp.NlpProblem(
        dim=m + n_a,
        bounds=np.vstack([spec.design_bounds, np.tile([0.0, np.inf], (n_a, 1))]),
        x0_list=list(starts),
        objective_batch=obj_any,
        constraints_batch=cons_any,
    )
    res = nlp.minimize(problem, opts)
    return _assemble(spec, data, cfg, res, xi=res.x[m:])


def solve_risk_averse_global(
    spec: ProblemSpec, data: ScenarioData, cfg: AlphaConfig, opts: Optional[nlp.NlpOptions] = None
) -> SolveResult:
    """Like the local variant but one shared set of epistemic draws is
    down-weighted for all pseudo-distributions; the weight rule's aleatory
    slot receives the (smoothed) fraction of active slacks."""
    cfg = cfg.for_spec(spec)
    opts = opts or nlp.NlpOptions()
    m, n_a, n_e, n_r = spec.m_theta, data.n_a, data.n_e, spec.n_r

    def obj_any(x):
        x = np.asarray(x, float)
        return _objective_values(spec, x[..., :m]) + cfg.rho * np.sum(x[..., m:], axis=-1)

    design_terms = _global_design_terms(spec, data)

    def cons_any(x):
        x = np.asarray(x, float)
        xi = x[..., m:]
        values, p = _per_design(x[..., :m], design_terms)
        # huge slacks round the smoothed fraction up to exactly one
        frac = np.minimum(smooth_sign_fraction(xi), _BELOW_ONE)
        gs = []
        for k in range(n_r):
            w, _, _ = weights_from_fractions(
                values[..., k, :, :], p[..., k, :], frac, cfg.alpha_e[k], cfg.gamma
            )
            gs.append(w[..., None, :] * values[..., k, :, :] - xi[..., :, None])
        g = np.stack(gs, axis=-3)
        return g.reshape(x.shape[:-1] + (n_r * n_a * n_e,))

    starts = np.hstack([_theta_starts(spec, opts), np.zeros((opts.n_starts, n_a))])
    problem = nlp.NlpProblem(
        dim=m + n_a,
        bounds=np.vstack([spec.design_bounds, np.tile([0.0, np.inf], (n_a, 1))]),
        x0_list=list(starts),
        objective_batch=obj_any,
        constraints_batch=cons_any,
    )
    res = nlp.minimize(problem, opts)
    xi = res.x[m:]
    glob = _global_epistemic_outliers(
        spec, data, cfg, res.x[:m], np.full(n_r, sign_fraction(xi))
    )
    return _assemble(spec, data, cfg, res, xi=xi, global_epistemic=glob)


# ---------------------------------------------------------------------------
# risk-agnostic formulations (quantile-count relaxation, magnitude-blind)
# ---------------------------------------------------------------------------


def _attach_alpha_suggestion(spec, data, cfg, opts, result: SolveResult, variant: str) -> SolveResult:
    if result.solver_status != "infeasible":
        return result
    try:
        seed = solve_feasibility_seed(spec, data, cfg, variant=variant, opts=opts)
        result.diagnostics["suggested_alpha_a"] = seed.alpha_a_lower
    except Exception as exc:  # the suggestion is best-effort; the cause is kept
        cause = f"{type(exc).__name__}: {exc}"
        logger.warning("alpha_a suggestion failed: %s", cause, exc_info=True)
        result.diagnostics["alpha_suggestion_error"] = cause
    return result


def solve_risk_agnostic_global(
    spec: ProblemSpec, data: ScenarioData, cfg: AlphaConfig, opts: Optional[nlp.NlpOptions] = None
) -> SolveResult:
    """Decision is theta only: the (1 - alpha_a) quantile of the
    weighted worst-case requirement values over the epistemic inliers must
    be nonpositive.  The number of decision variables does not grow with
    the dataset.  On infeasibility the result carries a suggested alpha_a
    from the feasibility seed."""
    cfg = cfg.for_spec(spec)
    opts = opts or nlp.NlpOptions()
    if np.any(cfg.alpha_a >= 1):
        raise InputError("alpha_a entries must lie in [0, 1)")
    n_r = spec.n_r

    def cons_any(x):
        theta = np.asarray(x, float)
        values = requirement_values(spec, data, theta)
        gs = []
        for k in range(n_r):
            w, _, _ = weights_from_values(
                values[..., k, :, :], cfg.alpha_a[k], cfg.alpha_e[k], cfg.gamma
            )
            z = np.max(w[..., None, :] * values[..., k, :, :], axis=-1)
            gs.append(quantile_of(z, 1.0 - cfg.alpha_a[k]))
        return np.stack(gs, axis=-1)

    def obj_any(x):
        return _objective_values(spec, np.asarray(x, float))

    problem = nlp.NlpProblem(
        dim=spec.m_theta,
        bounds=spec.design_bounds,
        x0_list=list(_theta_starts(spec, opts)),
        objective_batch=obj_any,
        constraints_batch=cons_any,
    )
    res = nlp.minimize(problem, opts)
    glob = _global_epistemic_outliers(spec, data, cfg, res.x, cfg.alpha_a)
    result = _assemble(spec, data, cfg, res, global_epistemic=glob)
    return _attach_alpha_suggestion(spec, data, cfg, opts, result, "global")


def solve_risk_agnostic_local(
    spec: ProblemSpec, data: ScenarioData, cfg: AlphaConfig, opts: Optional[nlp.NlpOptions] = None
) -> SolveResult:
    """Nested-quantile constraint: per scenario take the (1 - alpha_e)
    quantile over the epistemic draws, then require the (1 - alpha_a)
    quantile of those values to be nonpositive."""
    cfg = cfg.for_spec(spec)
    opts = opts or nlp.NlpOptions()
    if np.any(cfg.alpha_a >= 1):
        raise InputError("alpha_a entries must lie in [0, 1)")
    levels_e = 1.0 - cfg.alpha_e
    levels_a = 1.0 - cfg.alpha_a

    def cons_any(x):
        theta = np.asarray(x, float)
        q = _req_quantiles(requirement_values(spec, data, theta), levels_e)
        return quantile_of(q, levels_a)

    def obj_any(x):
        return _objective_values(spec, np.asarray(x, float))

    problem = nlp.NlpProblem(
        dim=spec.m_theta,
        bounds=spec.design_bounds,
        x0_list=list(_theta_starts(spec, opts)),
        objective_batch=obj_any,
        constraints_batch=cons_any,
    )
    res = nlp.minimize(problem, opts)
    result = _assemble(spec, data, cfg, res)
    return _attach_alpha_suggestion(spec, data, cfg, opts, result, "local")


def solve_feasibility_seed(
    spec: ProblemSpec,
    data: ScenarioData,
    cfg: AlphaConfig,
    omega: Optional[Array] = None,
    variant: str = "local",
    opts: Optional[nlp.NlpOptions] = None,
) -> SolveResult:
    """Minimize omega . alpha_a with alpha_a a decision vector in [0,1]^n_r.

    The result's ``theta_star`` is the design minimizing the weighted sum
    of individual failure fractions, its ``alpha_a_lower`` a lower bound to
    the fractions that make the corresponding risk-agnostic program
    feasible, and its ``objective`` omega . alpha_a_lower.
    """
    cfg = cfg.for_spec(spec)
    opts = opts or nlp.NlpOptions()
    if variant not in ("local", "global"):
        raise InputError(f"variant must be 'local' or 'global', got {variant!r}")
    n_r, m = spec.n_r, spec.m_theta
    omega = np.ones(n_r) if omega is None else np.asarray(omega, dtype=float)
    if omega.shape != (n_r,) or np.any(omega <= 0):
        raise InputError("omega must be a positive vector of length n_r")

    def obj_any(x):
        x = np.asarray(x, float)
        return np.sum(omega * x[..., m:], axis=-1)

    if variant == "local":
        design_terms = _local_design_terms(spec, data, 1.0 - cfg.alpha_e)
    else:
        design_terms = _global_design_terms(spec, data)

    def cons_any(x):
        x = np.asarray(x, float)
        alpha = np.clip(x[..., m:], 0.0, 1.0)  # finite-difference probes overshoot
        if variant == "local":
            (q,) = _per_design(x[..., :m], design_terms)
            return quantile_of(q, 1.0 - alpha)
        values, p = _per_design(x[..., :m], design_terms)
        gs = []
        for k in range(n_r):
            a_k = np.minimum(alpha[..., k], 1.0 - 1e-9)
            w, _, _ = weights_from_fractions(
                values[..., k, :, :], p[..., k, :], a_k, cfg.alpha_e[k], cfg.gamma
            )
            z = np.max(w[..., None, :] * values[..., k, :, :], axis=-1)
            gs.append(quantile_of(z, 1.0 - a_k))
        return np.stack(gs, axis=-1)

    starts = np.hstack([_theta_starts(spec, opts), np.full((opts.n_starts, n_r), 0.9)])
    problem = nlp.NlpProblem(
        dim=m + n_r,
        bounds=np.vstack([spec.design_bounds, np.tile([0.0, 1.0], (n_r, 1))]),
        x0_list=list(starts),
        objective_batch=obj_any,
        constraints_batch=cons_any,
    )
    res = nlp.minimize(problem, opts)
    alpha = res.x[m:]
    return _assemble(spec, data, cfg, res, objective=float(omega @ alpha), alpha_a_lower=alpha)


# ---------------------------------------------------------------------------
# moment-based formulations
# ---------------------------------------------------------------------------


def _response_quantiles(spec, data, h, theta, alpha_e_resp):
    vals = h(theta[..., None, None, :], data.aleatory[:, None, :], data.epistemic[None, :, :])
    vals = np.broadcast_to(np.asarray(vals, float), theta.shape[:-1] + (data.n_a, data.n_e))
    return quantile_of(vals, 1.0 - alpha_e_resp)


def solve_moment_risk_averse(
    spec: ProblemSpec,
    data: ScenarioData,
    cfg: AlphaConfig,
    h: Callable,
    opts: Optional[nlp.NlpOptions] = None,
    alpha_e_response: Optional[float] = None,
) -> SolveResult:
    """Minimize lambda + rho * sum(xi) where lambda bounds the weighted
    mean of the per-scenario response quantiles, with weights exp(-kappa *
    xi) so aleatory outliers drop out of the mean consistently with the
    requirement constraints."""
    cfg = cfg.for_spec(spec)
    opts = opts or nlp.NlpOptions()
    aer = float(cfg.alpha_e[0]) if alpha_e_response is None else float(alpha_e_response)
    m, n_a, n_r = spec.m_theta, data.n_a, spec.n_r
    levels = 1.0 - cfg.alpha_e

    def obj_any(x):
        x = np.asarray(x, float)
        return x[..., m] + cfg.rho * np.sum(x[..., m + 1 :], axis=-1)

    def design_terms(theta):
        return (
            _req_quantiles(requirement_values(spec, data, theta), levels),
            _response_quantiles(spec, data, h, theta, aer),
        )

    def cons_any(x):
        x = np.asarray(x, float)
        lam, xi = x[..., m], x[..., m + 1 :]
        q, hq = _per_design(x[..., :m], design_terms)
        g_req = (q - xi[..., None, :]).reshape(x.shape[:-1] + (n_r * n_a,))
        w = np.exp(-cfg.kappa * xi)
        mean = np.sum(hq * w, axis=-1) / np.maximum(np.sum(w, axis=-1), 1e-300)
        return np.concatenate([g_req, (mean - lam)[..., None]], axis=-1)

    theta0 = _theta_starts(spec, opts)
    lam0 = np.mean(_response_quantiles(spec, data, h, theta0, aer), axis=-1)
    starts = np.hstack([theta0, lam0[:, None], np.zeros((opts.n_starts, n_a))])
    problem = nlp.NlpProblem(
        dim=m + 1 + n_a,
        bounds=np.vstack(
            [spec.design_bounds, [[-np.inf, np.inf]], np.tile([0.0, np.inf], (n_a, 1))]
        ),
        x0_list=list(starts),
        objective_batch=obj_any,
        constraints_batch=cons_any,
    )
    res = nlp.minimize(problem, opts)
    return _assemble(
        spec, data, cfg, res,
        xi=res.x[m + 1 :], lam=float(res.x[m]), objective=float(res.x[m]),
    )


def solve_moment_risk_agnostic(
    spec: ProblemSpec,
    data: ScenarioData,
    cfg: AlphaConfig,
    h: Callable,
    opts: Optional[nlp.NlpOptions] = None,
    alpha_e_response: Optional[float] = None,
) -> SolveResult:
    """Minimize lambda subject to one stacked quantile constraint: after
    sorting the response quantiles ascending, scenario t must both keep
    the running mean of the t smallest responses below lambda and satisfy
    its own requirement quantiles; the (1 - alpha_a) quantile of those
    stacked worst values must be nonpositive.  Uses the single fraction
    cfg.alpha_a[0]."""
    cfg = cfg.for_spec(spec)
    opts = opts or nlp.NlpOptions()
    alpha_a = float(cfg.alpha_a[0])
    if alpha_a >= 1:
        raise InputError("alpha_a must lie in [0, 1)")
    aer = float(cfg.alpha_e[0]) if alpha_e_response is None else float(alpha_e_response)
    m, n_a = spec.m_theta, data.n_a
    levels = 1.0 - cfg.alpha_e
    counts = np.arange(1, n_a + 1, dtype=float)

    def obj_any(x):
        return np.asarray(x, float)[..., m]

    def design_terms(theta):
        q = _req_quantiles(requirement_values(spec, data, theta), levels)
        q_worst = np.max(q, axis=-2)  # (U, n_a)
        hq = _response_quantiles(spec, data, h, theta, aer)
        order = np.argsort(hq, axis=-1, kind="stable")
        h_sorted = np.take_along_axis(hq, order, axis=-1)
        running_mean = np.cumsum(h_sorted, axis=-1) / counts
        return running_mean, np.take_along_axis(q_worst, order, axis=-1)

    def cons_any(x):
        x = np.asarray(x, float)
        running_mean, q_worst_sorted = _per_design(x[..., :m], design_terms)
        ell = running_mean - x[..., m, None]
        stacked = np.maximum(ell, q_worst_sorted)
        return quantile_of(stacked, 1.0 - alpha_a)[..., None]

    theta0 = _theta_starts(spec, opts)
    lam0 = np.mean(_response_quantiles(spec, data, h, theta0, aer), axis=-1)
    starts = np.hstack([theta0, lam0[:, None]])
    problem = nlp.NlpProblem(
        dim=m + 1,
        bounds=np.vstack([spec.design_bounds, [[-np.inf, np.inf]]]),
        x0_list=list(starts),
        objective_batch=obj_any,
        constraints_batch=cons_any,
    )
    res = nlp.minimize(problem, opts)
    return _assemble(
        spec, data, cfg, res, lam=float(res.x[m]), objective=float(res.x[m])
    )


_SOLVERS = {
    FormulationTag.RISK_AVERSE_GLOBAL: solve_risk_averse_global,
    FormulationTag.RISK_AVERSE_LOCAL: solve_risk_averse_local,
    FormulationTag.RISK_AGNOSTIC_GLOBAL: solve_risk_agnostic_global,
    FormulationTag.RISK_AGNOSTIC_LOCAL: solve_risk_agnostic_local,
    FormulationTag.FEASIBILITY_SEED: solve_feasibility_seed,
}


def solve(
    formulation: Formulation,
    spec: ProblemSpec,
    data: ScenarioData,
    cfg: AlphaConfig,
    opts: Optional[nlp.NlpOptions] = None,
) -> SolveResult:
    """Dispatch on the formulation tag."""
    tag = formulation.tag
    if tag == FormulationTag.MOMENT_RISK_AVERSE:
        return solve_moment_risk_averse(spec, data, cfg, formulation.moment.response, opts)
    if tag == FormulationTag.MOMENT_RISK_AGNOSTIC:
        return solve_moment_risk_agnostic(spec, data, cfg, formulation.moment.response, opts)
    return _SOLVERS[tag](spec, data, cfg, opts=opts)
