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
separately.  The global ones (risk-averse, risk-agnostic and the global
seed) weight the epistemic draws by the rule of ``scendo.weights``, all
through one batched kernel, ``_global_weighted_grids``; the local ones
and the moment programs evaluate their design-only terms once per
distinct design (``_per_design``).  ``_minimize`` is the one place that
knows the NLP's vector x = (theta, aux): it hands each program's objective
and constraints the design columns and the auxiliary ones (slacks, the
seed's fractions, the moment bound) as two arrays, and returns them apart.
``_on_grid`` is the one layout of a function of (theta, a, e) on the
training grid, for the requirements and the moment response alike.  Every
program ends in ``_assemble``, which evaluates the requirement grid at the
design once for the reported outliers.  Every infeasible result carries a
``diagnostics["suggested_alpha_a"]``: the seed its own alpha_a_lower, the
other programs that of a seed solved after them (the global seed for the
global risk-agnostic program, the local one for the rest).

All quantiles use the piecewise-linear interpolant from ``scendo.ecdf``,
so constraints are piecewise-linear in the sampled requirement values.
The local risk-agnostic program with every fraction 0, the classical
scenario program, takes both quantiles at level 1: its constraint is
each grid's maximum, taken without a sort wherever ``_guarded_tops``
proves it equals the sorted quantiles bit for bit.
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
    _shaped,
)
from scendo.ecdf import TIE_EPS, quantile_of
from scendo.weights import (
    failure_fractions,
    inlier_threshold,
    sign_fraction,
    smooth_sign_fraction,
    sorted_fractions,
    weights_from_inliers,
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


def _on_grid(fn: Callable, data: ScenarioData, theta: Array) -> Array:
    """``fn(theta, a, e)`` on the training grid: theta (..., m) gives
    (..., n_a, n_e)."""
    vals = fn(theta[..., None, None, :], data.aleatory[:, None, :], data.epistemic[None, :, :])
    return _shaped(vals, theta.shape[:-1] + (data.n_a, data.n_e))


def requirement_values(spec: ProblemSpec, data: ScenarioData, theta: Array) -> Array:
    """Requirement values on the training grid.

    theta may carry leading batch axes: returns (..., n_r, n_a, n_e).  One
    requirement's grid is not copied: the result is a view of it.
    """
    theta = np.asarray(theta, dtype=float)
    grids = [_on_grid(rk, data, theta) for rk in spec.requirements]
    return grids[0][..., None, :, :] if len(grids) == 1 else np.stack(grids, axis=-3)


def _objective_values(spec: ProblemSpec, theta: Array) -> Array:
    return _shaped(spec.objective(theta), theta.shape[:-1])


def _req_quantiles(values: Array, levels: Array) -> Array:
    """Per-requirement quantile over the epistemic axis.

    values: (..., n_r, n_a, n_e); levels: (n_r,) -> (..., n_r, n_a).
    """
    return quantile_of(values, levels[:, None])


def _distinct_rows(rows: Array) -> tuple:
    """``(first, inverse)`` of the distinct rows of a 2-D array, matched on
    their exact bytes: ``rows[first][inverse]`` equals ``rows``."""
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[-1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse.ravel()


def _per_design(theta: Array, design_terms: Callable[[Array], tuple]) -> tuple:
    """Evaluate ``design_terms`` once per distinct design row, scattered back.

    ``theta`` is a (B, m) stack; ``design_terms`` maps a (U, m) stack of
    distinct designs to a tuple of arrays with leading axis U.  Returns the
    tuple with that axis of length B.  Rows match on their exact bytes, so
    under the batch contract (see ``scendo.nlp``) every result row equals
    evaluating its design alone.  Programs with auxiliary variables need
    this: all auxiliary probes of a finite-difference batch repeat the
    design of its centre row.
    """
    first, inverse = _distinct_rows(theta)
    return tuple(t[inverse] for t in design_terms(theta[first]))


#: auxiliary-variable block of the programs whose decision is theta only
_NO_AUX = np.empty((0, 2))


def _minimize(
    spec: ProblemSpec,
    opts: Optional[nlp.NlpOptions],
    objective: Callable[[Array, Array], Array],
    constraints: Callable[[Array, Array], Array],
    aux_bounds: Array = _NO_AUX,
    aux_starts: Optional[Callable[[Array], Array]] = None,
) -> tuple:
    """The one NLP of every program: x = (theta, aux) over the design box
    stacked on ``aux_bounds``; returns ``(theta, aux, result)`` at its best
    point.

    ``objective(theta, aux)`` and ``constraints(theta, aux)`` are the
    program's batch callables over a batch's (B, m_theta) design columns
    and (B, n_aux) auxiliary ones.  The design starts are
    ``nlp.latin_hypercube`` of the design box; ``aux_starts`` maps their
    (n_starts, m_theta) stack to the (n_starts, n_aux) auxiliary starts.
    ``nlp.minimize`` is looked up at call time, so rebinding that module
    attribute reaches every program.
    """
    opts, m = opts or nlp.NlpOptions(), spec.m_theta

    def objective_batch(x):
        return objective(x[:, :m], x[:, m:])

    def constraints_batch(x):
        return constraints(x[:, :m], x[:, m:])

    theta0 = nlp.latin_hypercube(spec.design_bounds, opts)
    aux0 = np.empty((len(theta0), 0)) if aux_starts is None else aux_starts(theta0)
    bounds = np.vstack([spec.design_bounds, aux_bounds])
    problem = nlp.NlpProblem(
        bounds=bounds,
        starts=np.hstack([theta0, aux0]),
        objective_batch=objective_batch,
        constraints_batch=constraints_batch,
    )
    res = nlp.minimize(problem, opts)
    return res.x[:m], res.x[m:], res


def _for_problem(spec: ProblemSpec, data: ScenarioData, cfg: AlphaConfig) -> AlphaConfig:
    """``cfg`` broadcast to the spec's requirements, once ``data`` has the
    spec's widths (``ScenarioData.check_widths``); every program starts here."""
    data.check_widths(spec)
    return cfg.for_spec(spec)


def _require_below_one(alpha_a: Array) -> None:
    if np.any(alpha_a >= 1):
        raise InputError("alpha_a entries must lie in [0, 1)")


def _assemble(
    spec: ProblemSpec,
    data: ScenarioData,
    cfg: AlphaConfig,
    opts: Optional[nlp.NlpOptions],
    theta: Array,
    res: nlp.NlpResult,
    *,
    suggest: Optional[str] = "local",
    weight_alpha_a=None,
    **fields,
) -> SolveResult:
    """The one tail of every program: the result of ``res`` at the design
    ``theta``, with its outliers and, when infeasible, a suggested alpha_a.

    The requirement grid at the design is evaluated once.  The outliers
    are those of ``_local_outliers``, except that a global program's
    epistemic outliers are the draws weighted below one for some
    requirement, by the rule at aleatory fraction ``weight_alpha_a``.  The
    suggestion is the alpha_a_lower of the ``suggest`` variant's seed,
    solved after the program, or the result's own for the seed itself
    (``suggest=None``); a numerical failure of that seed is recorded as
    ``alpha_suggestion_error`` and any other exception propagates.
    ``fields`` are further ``SolveResult`` fields; the objective defaults
    to J at the design.
    """
    values = requirement_values(spec, data, theta)
    o_a, o_e = _local_outliers(values, cfg.alpha_e)
    if weight_alpha_a is not None:
        frac = np.minimum(weight_alpha_a, 1.0 - 1e-9)
        _, v, s = weights_from_values(values, frac, cfg.alpha_e, cfg.gamma)
        o_e = np.flatnonzero(np.any(v > s[:, None], axis=0))
    if "objective" not in fields:
        fields["objective"] = float(_objective_values(spec, theta))
    status = "infeasible" if res.status == "failed" else res.status
    diagnostics = dict(res.diagnostics)
    if status == "infeasible" and suggest is None:
        diagnostics["suggested_alpha_a"] = fields["alpha_a_lower"]
    elif status == "infeasible":
        try:
            seed = solve_feasibility_seed(spec, data, cfg, variant=suggest, opts=opts)
            diagnostics["suggested_alpha_a"] = seed.alpha_a_lower
        except (ArithmeticError, RuntimeError) as exc:
            cause = f"{type(exc).__name__}: {exc}"
            logger.warning("alpha_a suggestion failed: %s", cause, exc_info=True)
            diagnostics["alpha_suggestion_error"] = cause
    return SolveResult(
        theta_star=theta, solver_status=status, aleatory_outliers=o_a,
        epistemic_outliers=o_e, diagnostics=diagnostics, **fields,
    )


def _local_outliers(values: Array, alpha_e: Array) -> tuple:
    """Aleatory outliers and per-scenario epistemic outliers of a
    requirement grid at one design, (n_r, n_a, n_e).

    A scenario is an aleatory outlier when at least one requirement's
    (1 - alpha_e) quantile over the epistemic set is positive; the
    epistemic outliers of scenario i are the draws exceeding that
    quantile for some requirement.
    """
    q = _req_quantiles(values, 1.0 - alpha_e)  # (n_r, n_a)
    o_a = np.flatnonzero(np.max(q, axis=0) > 0.0)
    o_e = [
        np.flatnonzero(np.any(values[:, i, :] > q[:, i, None], axis=0))
        for i in range(values.shape[1])
    ]
    return o_a, o_e


def _local_design_terms(spec: ProblemSpec, data: ScenarioData, levels: Array):
    """Design-only term of the local programs for ``_per_design``: the
    per-requirement epistemic quantiles, (U, n_r, n_a)."""

    def design_terms(theta):
        return (_req_quantiles(requirement_values(spec, data, theta), levels),)

    return design_terms


def _global_weighted_grids(spec: ProblemSpec, data: ScenarioData, cfg: AlphaConfig):
    """The weight rule of the global programs, batched: ``grids(theta, frac)``.

    ``theta`` is a (B, m) stack of designs and ``frac`` the rule's aleatory
    fractions, broadcastable to (B, n_r) and in [0, 1).  Returns the
    weighted grids w_j r_ij at the distinct (design, kept counts) rows,
    (D, n_r, n_a, n_e), and each batch row's index into them, (B,).

    The weights depend only on the design and on the kept aleatory set.
    Kept sets of one design are nested as the threshold rises (tied p enter
    together), so the kept count names the set: the grid and its failure
    fractions are computed once per distinct design, and the rule's step 2
    once per distinct (design, kept counts) row.  Rows match on their exact
    bytes, so each row's grid equals the rule of ``weights_from_values`` at
    its own design and fractions, bit for bit.
    """

    def grids(theta, frac):
        first, design = _distinct_rows(theta)
        values = requirement_values(spec, data, theta[first])  # (U, n_r, n_a, n_e)
        p = failure_fractions(values)  # (U, n_r, n_a)
        thr = inlier_threshold(sorted_fractions(p)[design], frac)  # (B, n_r)
        kept = np.count_nonzero(p[design] <= thr[..., None], axis=-1)  # (B, n_r)
        rep, row = _distinct_rows(np.column_stack([design, kept]))
        d = design[rep]
        w, _, _ = weights_from_inliers(values[d], p[d] <= thr[rep, :, None], cfg.alpha_e, cfg.gamma)
        return w[..., None, :] * values[d], row

    return grids


def _weighted_worst_quantiles(grids, theta: Array, alpha_a: Array) -> Array:
    """Constraint of the global risk-agnostic programs, (B, n_r): the
    (1 - alpha_a) quantile over the scenarios of their weighted worst cases
    over the epistemic draws, weighted by ``grids`` at fraction ``alpha_a``."""
    weighted, row = grids(theta, alpha_a)
    return quantile_of(np.max(weighted, axis=-1)[row], 1.0 - alpha_a)


# ---------------------------------------------------------------------------
# risk-averse formulations (slack-penalized, magnitude-aware)
# ---------------------------------------------------------------------------


def _minimize_with_slacks(
    spec: ProblemSpec, opts: Optional[nlp.NlpOptions], rho: float, n_a: int, constraints
) -> tuple:
    """``_minimize`` over (theta, xi) with n_a slacks xi >= 0, starting at
    zero, and the objective J(theta) + rho * sum(xi)."""

    def objective(theta, xi):
        return _objective_values(spec, theta) + rho * np.sum(xi, axis=-1)

    return _minimize(
        spec, opts, objective, constraints,
        np.tile([0.0, np.inf], (n_a, 1)), lambda theta0: np.zeros((len(theta0), n_a)),
    )


def solve_risk_averse_local(
    spec: ProblemSpec, data: ScenarioData, cfg: AlphaConfig, opts: Optional[nlp.NlpOptions] = None
) -> SolveResult:
    """Decision (theta, xi >= 0); each pseudo-distribution's (1 - alpha_e)
    quantile must stay below its scenario's slack, and slack is charged at
    rho per unit.  Each pseudo-distribution discards its own worst
    epistemic draws."""
    cfg = _for_problem(spec, data, cfg)
    design_terms = _local_design_terms(spec, data, 1.0 - cfg.alpha_e)

    def constraints(theta, xi):
        (q,) = _per_design(theta, design_terms)
        return (q - xi[:, None, :]).reshape(len(xi), -1)

    theta, xi, res = _minimize_with_slacks(spec, opts, cfg.rho, data.n_a, constraints)
    return _assemble(spec, data, cfg, opts, theta, res, xi_star=xi)


def solve_risk_averse_global(
    spec: ProblemSpec, data: ScenarioData, cfg: AlphaConfig, opts: Optional[nlp.NlpOptions] = None
) -> SolveResult:
    """Like the local variant but one shared set of epistemic draws is
    down-weighted for all pseudo-distributions; the weight rule's aleatory
    slot receives the (smoothed) fraction of active slacks."""
    cfg = _for_problem(spec, data, cfg)
    grids = _global_weighted_grids(spec, data, cfg)

    def constraints(theta, xi):
        # huge slacks round the smoothed fraction up to exactly one
        frac = np.minimum(smooth_sign_fraction(xi), _BELOW_ONE)
        weighted, row = grids(theta, frac[:, None])
        g = np.take(weighted, row, axis=0, out=np.empty((len(xi),) + weighted.shape[1:]), mode="clip")
        g -= xi[:, None, :, None]
        return g.reshape(len(xi), -1)

    theta, xi, res = _minimize_with_slacks(spec, opts, cfg.rho, data.n_a, constraints)
    return _assemble(spec, data, cfg, opts, theta, res, weight_alpha_a=sign_fraction(xi), xi_star=xi)


# ---------------------------------------------------------------------------
# risk-agnostic formulations (quantile-count relaxation, magnitude-blind)
# ---------------------------------------------------------------------------


def _design_objective(spec: ProblemSpec):
    return lambda theta, aux: _objective_values(spec, theta)


def solve_risk_agnostic_global(
    spec: ProblemSpec, data: ScenarioData, cfg: AlphaConfig, opts: Optional[nlp.NlpOptions] = None
) -> SolveResult:
    """Decision is theta only: the (1 - alpha_a) quantile of the
    weighted worst-case requirement values over the epistemic inliers must
    be nonpositive.  The number of decision variables does not grow with
    the dataset.  On infeasibility the result carries a suggested alpha_a
    from the feasibility seed."""
    cfg = _for_problem(spec, data, cfg)
    _require_below_one(cfg.alpha_a)
    grids = _global_weighted_grids(spec, data, cfg)

    def constraints(theta, aux):
        return _weighted_worst_quantiles(grids, theta, cfg.alpha_a)

    theta, _, res = _minimize(spec, opts, _design_objective(spec), constraints)
    return _assemble(spec, data, cfg, opts, theta, res, suggest="global", weight_alpha_a=cfg.alpha_a)


#: the window below a grid's maximum M that ``_guarded_tops`` requires
#: empty, in units of max(n_a, n_e) * TIE_EPS * max(1, 2|M|)
_TOP_WINDOW = 8.0


def _guarded_tops(values: Array) -> tuple:
    """``quantile_of(quantile_of(values, 1.0), 1.0)`` of (..., n_a, n_e)
    grids without sorting them: ``(top, admitted)``, each grid's maximum M
    and whether the guard below proves that M is that quantile, bit for bit.

    At level 1 ``sorted_quantile`` returns a row's last strictified value
    (``frac >= 1`` reads the upper knot itself; a one-sample row adds 0.0).
    So the nested quantile is M when ``strictify_sorted`` leaves M, the
    top of its scenario's row, as it is, and leaves every other scenario's
    top below M, so that M also tops the row of scenario tops and is kept.
    The guard admits a grid when M is finite and nonzero, no value is
    -inf or NaN, and no value but M lies above M - W, with
    W = ``_TOP_WINDOW`` * n * TIE_EPS * max(1, 2|M|) and n = max(n_a, n_e).
    Each is one reduction of the flattened grids.  A finite M lies above
    M - W itself and a grid whose top is not finite has no value above it,
    so the count of values above M - W over the whole batch equals the
    number of finite tops exactly when each of those grids has M alone;
    the per-grid count runs only when it does not.

    Why the guard proves it.  ``strictify_sorted`` only raises values.
    Its tie shift raises the j-th copy of a run of equal values z
    (j < n) by j * TIE_EPS * max(1, |z|); its walk then raises a value
    that is not above its final predecessor to that predecessor plus
    TIE_EPS * max(1, |value|).  Such a value lies between the row value z
    of the predecessor's bound and that bound, so while
    n * TIE_EPS <= 1/8 (rows of up to 1e8 values) each raise adds less
    than 2 TIE_EPS max(1, |z|): every value of a row ends at most at
    z + 2n TIE_EPS max(1, |z|) for a row value z at or before it.
    Through both levels, every scenario top but M's, and M's
    predecessor in either row, ends at most at
    z + 5n TIE_EPS max(1, |z|) for a grid value z <= M - W.  That is
    below M: by the margin W >= 8n TIE_EPS where |z| <= 1; where z > 1,
    |z| <= |M| and W >= 16n TIE_EPS |M|; where z < -1 the bound is
    z (1 - 5n TIE_EPS) < 0, below M when M > 0 and, when M < 0, since
    |z| >= |M| + W.  Only values near M can reach it, which is why W
    scales with |M| and not with the grid's largest |v|.  M has no copy,
    so its run rank is 0 and its shift adds 0, and a nonzero M keeps its
    bits under the +0.0 the shift adds to every entry of a batch holding
    a tie (a -0.0 would turn +0.0 or not depending on the other rows).
    Shifts of an infinite value are NaN or infinite, so the bound needs
    finite values.  The rounding of the shifts and of M - W is far below
    the margins left.
    """
    n_a, n_e = values.shape[-2:]
    flat = values.reshape(values.shape[:-2] + (n_a * n_e,))
    unit = _TOP_WINDOW * max(n_a, n_e) * TIE_EPS
    top = flat.max(axis=-1)
    threshold = np.abs(top)
    threshold *= 2.0 * unit
    np.maximum(threshold, unit, out=threshold)
    with np.errstate(invalid="ignore"):  # inf - inf, at a top that is not finite
        np.subtract(top, threshold, out=threshold)
    above = flat > threshold[..., None]
    admitted = np.isfinite(top)
    if np.count_nonzero(above) != np.count_nonzero(admitted):
        admitted &= above.sum(axis=-1) == 1
    admitted &= top != 0.0
    if not flat.min() > -np.inf:  # min propagates NaN
        admitted &= flat.min(axis=-1) > -np.inf
    return top, admitted


def _zero_discard_tops(values: Array, nested: Callable[[Array], Array]) -> tuple:
    """The zero-discard constraint of a batch's (B, n_r, n_a, n_e) grids,
    ``nested(values)`` bit for bit: ``(g, n_sorted, whole)``, g (B, n_r),
    the number of designs sorted and whether the whole batch was.

    A design whose every requirement ``_guarded_tops`` admits takes the
    grid maxima; the others run ``nested`` as one sub-batch.  That gives
    their rows of the whole batch: ``strictify_sorted`` couples the rows
    of a batch only through the +0.0 it adds to all of them when one
    holds a tie, which changes no bits of a value but -0.0, and the shifts
    and walk make no -0.0 of nonzero values.  So when a rejected design's
    grid holds a zero of either sign the whole batch runs ``nested``.
    """
    top, admitted = _guarded_tops(values)
    if admitted.all():
        return top, 0, False
    rejected = np.flatnonzero(~admitted.all(axis=-1))
    sub = values[rejected]
    if (sub == 0.0).any():
        return nested(values), len(values), True
    top[rejected] = nested(sub)
    return top, rejected.size, False


def solve_risk_agnostic_local(
    spec: ProblemSpec, data: ScenarioData, cfg: AlphaConfig, opts: Optional[nlp.NlpOptions] = None
) -> SolveResult:
    """Nested-quantile constraint: per scenario take the (1 - alpha_e)
    quantile over the epistemic draws, then require the (1 - alpha_a)
    quantile of those values to be nonpositive.

    With every fraction 0 this is the classical scenario program, and
    both quantiles are at level 1: the constraint is each requirement
    grid's largest value, taken by one reduction wherever
    ``_guarded_tops`` proves it equals the nested quantiles bit for bit
    (``_zero_discard_tops``); other designs are sorted.
    ``SCENDO_LOG=debug`` logs how many designs were sorted."""
    cfg = _for_problem(spec, data, cfg)
    _require_below_one(cfg.alpha_a)
    levels_e, levels_a = 1.0 - cfg.alpha_e, 1.0 - cfg.alpha_a
    zero_discard = not (cfg.alpha_a.any() or cfg.alpha_e.any())
    tally = np.zeros(4, dtype=np.intp)  # designs sorted, designs, batches sorted whole, batches

    def nested(values):
        return quantile_of(_req_quantiles(values, levels_e), levels_a)

    def constraints(theta, aux):
        values = requirement_values(spec, data, theta)
        if zero_discard:
            g, n_sorted, whole = _zero_discard_tops(values, nested)
        else:
            g, n_sorted, whole = nested(values), len(theta), True
        tally[:] += (n_sorted, len(theta), whole, 1)
        return g

    theta, _, res = _minimize(spec, opts, _design_objective(spec), constraints)
    logger.debug(
        "risk_agnostic_local: %d of %d designs sorted, %d of %d constraint batches sorted whole",
        *tally,
    )
    return _assemble(spec, data, cfg, opts, theta, res)


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
    cfg = _for_problem(spec, data, cfg)
    if variant not in ("local", "global"):
        raise InputError(f"variant must be 'local' or 'global', got {variant!r}")
    design_terms = _local_design_terms(spec, data, 1.0 - cfg.alpha_e)
    grids = _global_weighted_grids(spec, data, cfg)

    def objective(theta, alpha):
        return np.sum(alpha, axis=-1)

    def constraints(theta, alpha):
        alpha = np.clip(alpha, 0.0, 1.0)  # finite-difference probes overshoot
        if variant == "local":
            (q,) = _per_design(theta, design_terms)
            return quantile_of(q, 1.0 - alpha)
        return _weighted_worst_quantiles(grids, theta, np.minimum(alpha, 1.0 - 1e-9))

    theta, alpha, res = _minimize(
        spec, opts, objective, constraints,
        np.tile([0.0, 1.0], (spec.n_r, 1)), lambda theta0: np.full((len(theta0), spec.n_r), 0.9),
    )
    return _assemble(
        spec, data, cfg, opts, theta, res, suggest=None,
        objective=float(np.sum(alpha)), alpha_a_lower=alpha,
    )


# ---------------------------------------------------------------------------
# moment-based formulations
# ---------------------------------------------------------------------------


def _response_quantiles(data, h, theta, alpha_e_resp):
    return quantile_of(_on_grid(h, data, theta), 1.0 - alpha_e_resp)


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
    cfg = _for_problem(spec, data, cfg)
    aer = float(cfg.alpha_e[0])
    levels = 1.0 - cfg.alpha_e

    def objective(theta, aux):  # aux = (lambda, xi)
        return aux[:, 0] + cfg.rho * np.sum(aux[:, 1:], axis=-1)

    def design_terms(theta):
        return (
            _req_quantiles(requirement_values(spec, data, theta), levels),
            _response_quantiles(data, h, theta, aer),
        )

    def constraints(theta, aux):
        lam, xi = aux[:, 0], aux[:, 1:]
        q, hq = _per_design(theta, design_terms)
        g_req = (q - xi[:, None, :]).reshape(len(xi), -1)
        w = np.exp(-cfg.kappa * xi)
        mean = np.sum(hq * w, axis=-1) / np.maximum(np.sum(w, axis=-1), 1e-300)
        return np.concatenate([g_req, (mean - lam)[:, None]], axis=-1)

    def aux_starts(theta0):
        lam0 = np.mean(_response_quantiles(data, h, theta0, aer), axis=-1)
        return np.hstack([lam0[:, None], np.zeros((len(theta0), data.n_a))])

    theta, aux, res = _minimize(
        spec, opts, objective, constraints,
        np.vstack([[[-np.inf, np.inf]], np.tile([0.0, np.inf], (data.n_a, 1))]), aux_starts,
    )
    lam = float(aux[0])
    return _assemble(spec, data, cfg, opts, theta, res, xi_star=aux[1:], lambda_star=lam, objective=lam)


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
    cfg = _for_problem(spec, data, cfg)
    _require_below_one(cfg.alpha_a[:1])
    alpha_a = float(cfg.alpha_a[0])
    aer = float(cfg.alpha_e[0])
    levels = 1.0 - cfg.alpha_e
    counts = np.arange(1, data.n_a + 1, dtype=float)

    def objective(theta, lam):
        return lam[:, 0]

    def design_terms(theta):
        q = _req_quantiles(requirement_values(spec, data, theta), levels)
        q_worst = np.max(q, axis=-2)  # (U, n_a)
        hq = _response_quantiles(data, h, theta, aer)
        order = np.argsort(hq, axis=-1, kind="stable")
        h_sorted = np.take_along_axis(hq, order, axis=-1)
        running_mean = np.cumsum(h_sorted, axis=-1) / counts
        return running_mean, np.take_along_axis(q_worst, order, axis=-1)

    def constraints(theta, lam):
        running_mean, q_worst_sorted = _per_design(theta, design_terms)
        stacked = np.maximum(running_mean - lam, q_worst_sorted)
        return quantile_of(stacked, 1.0 - alpha_a)[:, None]

    def aux_starts(theta0):
        return np.mean(_response_quantiles(data, h, theta0, aer), axis=-1)[:, None]

    theta, aux, res = _minimize(spec, opts, objective, constraints, [[-np.inf, np.inf]], aux_starts)
    lam = float(aux[0])
    return _assemble(spec, data, cfg, opts, theta, res, lambda_star=lam, objective=lam)


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
