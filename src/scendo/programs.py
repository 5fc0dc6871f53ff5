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


def requirement_values(spec: ProblemSpec, data: ScenarioData, theta: Array) -> Array:
    """Requirement values on the training grid.

    theta may carry leading batch axes: returns (..., n_r, n_a, n_e).
    """
    theta = np.asarray(theta, dtype=float)
    th = theta[..., None, None, :]
    a = data.aleatory[:, None, :]
    e = data.epistemic[None, :, :]
    target = theta.shape[:-1] + (data.n_a, data.n_e)
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


#: auxiliary-variable block of the programs whose decision is theta only
_NO_AUX = np.empty((0, 2))


def _minimize(
    spec: ProblemSpec,
    opts: Optional[nlp.NlpOptions],
    objective_batch: Callable[[Array], Array],
    constraints_batch: Callable[[Array], Array],
    aux_bounds: Array = _NO_AUX,
    aux_starts: Optional[Callable[[Array], Array]] = None,
) -> nlp.NlpResult:
    """The one NLP of every program: x = (theta, aux) over the design box
    stacked on ``aux_bounds``.

    The design starts are ``opts.n_starts`` Latin-hypercube draws seeded by
    ``opts.seed``; ``aux_starts`` maps their (n_starts, m_theta) stack to
    the (n_starts, n_aux) auxiliary starts.  ``nlp.minimize`` is looked up
    at call time, so rebinding that module attribute reaches every program.
    """
    opts = opts or nlp.NlpOptions()
    rng = np.random.default_rng(opts.seed)
    theta0 = nlp.latin_hypercube(spec.design_bounds, opts.n_starts, rng)
    aux0 = np.empty((opts.n_starts, 0)) if aux_starts is None else aux_starts(theta0)
    bounds = np.vstack([spec.design_bounds, aux_bounds])
    problem = nlp.NlpProblem(
        dim=bounds.shape[0],
        bounds=bounds,
        x0_list=list(np.hstack([theta0, aux0])),
        objective_batch=objective_batch,
        constraints_batch=constraints_batch,
    )
    return nlp.minimize(problem, opts)


def _require_below_one(alpha_a: Array) -> None:
    if np.any(alpha_a >= 1):
        raise InputError("alpha_a entries must lie in [0, 1)")


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


def _minimize_with_slacks(
    spec: ProblemSpec, opts: Optional[nlp.NlpOptions], rho: float, n_a: int, constraints_batch
) -> nlp.NlpResult:
    """``_minimize`` over x = (theta, xi) with n_a slacks xi >= 0, starting
    at zero, and the objective J(theta) + rho * sum(xi)."""
    m = spec.m_theta

    def objective(x):
        x = np.asarray(x, float)
        return _objective_values(spec, x[..., :m]) + rho * np.sum(x[..., m:], axis=-1)

    return _minimize(
        spec, opts, objective, constraints_batch,
        np.tile([0.0, np.inf], (n_a, 1)), lambda theta0: np.zeros((len(theta0), n_a)),
    )


def solve_risk_averse_local(
    spec: ProblemSpec, data: ScenarioData, cfg: AlphaConfig, opts: Optional[nlp.NlpOptions] = None
) -> SolveResult:
    """Decision (theta, xi >= 0); each pseudo-distribution's (1 - alpha_e)
    quantile must stay below its scenario's slack, and slack is charged at
    rho per unit.  Each pseudo-distribution discards its own worst
    epistemic draws."""
    cfg = cfg.for_spec(spec)
    m, n_a, n_r = spec.m_theta, data.n_a, spec.n_r
    design_terms = _local_design_terms(spec, data, 1.0 - cfg.alpha_e)

    def cons_any(x):
        x = np.asarray(x, float)
        (q,) = _per_design(x[..., :m], design_terms)
        g = q - x[..., None, m:]
        return g.reshape(x.shape[:-1] + (n_r * n_a,))

    res = _minimize_with_slacks(spec, opts, cfg.rho, n_a, cons_any)
    return _assemble(spec, data, cfg, res, xi=res.x[m:])


def solve_risk_averse_global(
    spec: ProblemSpec, data: ScenarioData, cfg: AlphaConfig, opts: Optional[nlp.NlpOptions] = None
) -> SolveResult:
    """Like the local variant but one shared set of epistemic draws is
    down-weighted for all pseudo-distributions; the weight rule's aleatory
    slot receives the (smoothed) fraction of active slacks."""
    cfg = cfg.for_spec(spec)
    m, n_a, n_e, n_r = spec.m_theta, data.n_a, data.n_e, spec.n_r
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

    res = _minimize_with_slacks(spec, opts, cfg.rho, n_a, cons_any)
    xi = res.x[m:]
    glob = _global_epistemic_outliers(
        spec, data, cfg, res.x[:m], np.full(n_r, sign_fraction(xi))
    )
    return _assemble(spec, data, cfg, res, xi=xi, global_epistemic=glob)


# ---------------------------------------------------------------------------
# risk-agnostic formulations (quantile-count relaxation, magnitude-blind)
# ---------------------------------------------------------------------------


def _weighted_worst_quantiles(values: Array, p: Array, alpha_a: Array, cfg: AlphaConfig) -> Array:
    """Constraint of the global risk-agnostic programs, (..., n_r).

    For each requirement k: the epistemic weights at the fraction
    ``alpha_a[..., k]``, each scenario's weighted worst case over the
    epistemic draws, and the (1 - alpha_a[..., k]) quantile of those over
    the aleatory scenarios.  ``values`` is the (..., n_r, n_a, n_e) grid
    and ``p = failure_fractions(values)``.
    """
    gs = []
    for k in range(values.shape[-3]):
        a_k = alpha_a[..., k]
        w, _, _ = weights_from_fractions(
            values[..., k, :, :], p[..., k, :], a_k, cfg.alpha_e[k], cfg.gamma
        )
        z = np.max(w[..., None, :] * values[..., k, :, :], axis=-1)
        gs.append(quantile_of(z, 1.0 - a_k))
    return np.stack(gs, axis=-1)


def _design_objective(spec: ProblemSpec):
    return lambda x: _objective_values(spec, np.asarray(x, float))


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
    _require_below_one(cfg.alpha_a)
    design_terms = _global_design_terms(spec, data)

    def cons_any(x):
        values, p = design_terms(np.asarray(x, float))
        return _weighted_worst_quantiles(values, p, cfg.alpha_a, cfg)

    res = _minimize(spec, opts, _design_objective(spec), cons_any)
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
    _require_below_one(cfg.alpha_a)
    design_terms = _local_design_terms(spec, data, 1.0 - cfg.alpha_e)
    levels_a = 1.0 - cfg.alpha_a

    def cons_any(x):
        (q,) = design_terms(np.asarray(x, float))
        return quantile_of(q, levels_a)

    res = _minimize(spec, opts, _design_objective(spec), cons_any)
    result = _assemble(spec, data, cfg, res)
    return _attach_alpha_suggestion(spec, data, cfg, opts, result, "local")


def solve_feasibility_seed(
    spec: ProblemSpec,
    data: ScenarioData,
    cfg: AlphaConfig,
    variant: str = "local",
    opts: Optional[nlp.NlpOptions] = None,
) -> SolveResult:
    """Minimize sum(alpha_a) with alpha_a a decision vector in [0,1]^n_r,
    subject to the constraints of the ``variant`` risk-agnostic program.

    The result's ``theta_star`` is the design minimizing the sum of
    individual failure fractions, its ``alpha_a_lower`` a lower bound to
    the fractions that make the corresponding risk-agnostic program
    feasible, and its ``objective`` sum(alpha_a_lower).
    """
    cfg = cfg.for_spec(spec)
    if variant not in ("local", "global"):
        raise InputError(f"variant must be 'local' or 'global', got {variant!r}")
    n_r, m = spec.n_r, spec.m_theta

    def obj_any(x):
        return np.sum(np.asarray(x, float)[..., m:], axis=-1)

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
        return _weighted_worst_quantiles(values, p, np.minimum(alpha, 1.0 - 1e-9), cfg)

    res = _minimize(
        spec, opts, obj_any, cons_any,
        np.tile([0.0, 1.0], (n_r, 1)), lambda theta0: np.full((len(theta0), n_r), 0.9),
    )
    alpha = res.x[m:]
    return _assemble(spec, data, cfg, res, objective=float(np.sum(alpha)), alpha_a_lower=alpha)


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
) -> SolveResult:
    """Minimize lambda + rho * sum(xi) where lambda bounds the weighted
    mean of the per-scenario response quantiles, with weights exp(-kappa *
    xi) so aleatory outliers drop out of the mean consistently with the
    requirement constraints.  The response quantiles are taken at the
    level 1 - cfg.alpha_e[0]."""
    cfg = cfg.for_spec(spec)
    aer = float(cfg.alpha_e[0])
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

    def aux_starts(theta0):
        lam0 = np.mean(_response_quantiles(spec, data, h, theta0, aer), axis=-1)
        return np.hstack([lam0[:, None], np.zeros((len(theta0), n_a))])

    res = _minimize(
        spec, opts, obj_any, cons_any,
        np.vstack([[[-np.inf, np.inf]], np.tile([0.0, np.inf], (n_a, 1))]), aux_starts,
    )
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
) -> SolveResult:
    """Minimize lambda subject to one stacked quantile constraint: after
    sorting the response quantiles ascending, scenario t must both keep
    the running mean of the t smallest responses below lambda and satisfy
    its own requirement quantiles; the (1 - alpha_a) quantile of those
    stacked worst values must be nonpositive.  Uses the single fraction
    cfg.alpha_a[0] and the response level 1 - cfg.alpha_e[0]."""
    cfg = cfg.for_spec(spec)
    _require_below_one(cfg.alpha_a[:1])
    alpha_a = float(cfg.alpha_a[0])
    aer = float(cfg.alpha_e[0])
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

    def aux_starts(theta0):
        return np.mean(_response_quantiles(spec, data, h, theta0, aer), axis=-1)[:, None]

    res = _minimize(spec, opts, obj_any, cons_any, np.array([[-np.inf, np.inf]]), aux_starts)
    return _assemble(
        spec, data, cfg, res, lam=float(res.x[m]), objective=float(res.x[m])
    )


#: every formulation's program; the moment programs also take a response
_SOLVERS = {
    FormulationTag.RISK_AVERSE_GLOBAL: solve_risk_averse_global,
    FormulationTag.RISK_AVERSE_LOCAL: solve_risk_averse_local,
    FormulationTag.RISK_AGNOSTIC_GLOBAL: solve_risk_agnostic_global,
    FormulationTag.RISK_AGNOSTIC_LOCAL: solve_risk_agnostic_local,
    FormulationTag.FEASIBILITY_SEED: solve_feasibility_seed,
    FormulationTag.MOMENT_RISK_AVERSE: solve_moment_risk_averse,
    FormulationTag.MOMENT_RISK_AGNOSTIC: solve_moment_risk_agnostic,
}


def solve(
    tag: FormulationTag,
    spec: ProblemSpec,
    data: ScenarioData,
    cfg: AlphaConfig,
    opts: Optional[nlp.NlpOptions] = None,
    response: Optional[Callable] = None,
) -> SolveResult:
    """Solve the program of formulation ``tag``.

    ``response`` is the response function h(theta, a, e) whose empirical
    mean the moment formulations minimize; the other formulations ignore it.
    """
    if tag in MOMENT_TAGS:
        if response is None:
            raise InputError(f"{FormulationTag(tag).value} needs a response function")
        return _SOLVERS[tag](spec, data, cfg, h=response, opts=opts)
    return _SOLVERS[tag](spec, data, cfg, opts=opts)
