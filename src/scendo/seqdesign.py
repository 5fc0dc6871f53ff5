"""Sequential design: cheap training sets, high-fidelity testing.

Each iteration evaluates the current design with a robust Monte Carlo
analysis on the large testing sets, stops once the robustness metric meets
its threshold and the objective meets its bound, and otherwise re-trains
on a small, freshly selected subset of the testing data.  When the metric
is violated the training size grows and the outlier fractions reset to
zero; when only the objective is too high the aleatory fraction grows by
1/n_a so the next design may ignore one more scenario.

Aleatory training scenarios are chosen by a budgeted selection: exactly
b_k currently-failing scenarios per requirement, read from the analysis
report's ``scenario_fails`` table (they pull the success domain where it
helps the most), with the remaining slots filled from the feasible points.
A pick's gain is its likelihood times its failure indicator plus
``lambda_div`` times the log-determinant of the selected covariance, which
no rotation of the testing cloud changes.  The indicator is 0 for a
feasible point, so with ``lambda_div > 0`` the fill is ranked by the
log-determinant alone and the likelihood only breaks exact ties; with
``lambda_div = 0`` every fill gain is 0 and the likelihood decides through
that tie-break.  Each greedy pick scores every candidate's log-determinant
by a rank-one update of the selection's covariance (matrix determinant
lemma, as in fast greedy MAP inference for determinantal point processes),
a tile of the pool at a time, and 1-swaps then search among the points
of a member's violation pattern.  Epistemic training scenarios are the
testing draws with the largest worst-case requirement over the selected
aleatory points.

Training sets assembled this way are not IID draws, so the scenario risk
bound does not apply to the designs this loop produces; reports flag that.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from scendo import nlp
from scendo.core import (
    AlphaConfig, InputError, ProblemSpec, ScenarioData, _TILE_FLOATS, _fractions, _integers,
    r_max,
)
from scendo.montecarlo import RmcConfig, analyze
from scendo.programs import (
    solve_feasibility_seed,
    solve_risk_agnostic_global,
    solve_risk_agnostic_local,
)

Array = np.ndarray
logger = logging.getLogger(__name__)

_METRICS = ("a_hi", "b_hi", "c", "d_hi")


@dataclass
class SdConfig:
    """Loop controls; see the module docstring for the roles."""

    rmc: RmcConfig
    metric: str = "a_hi"  # which robustness number phi_k to check
    threshold: float = 1e-3
    j_bound: float = np.inf
    max_iter: int = 15
    n_a_init: int = 50
    n_e_init: int = 50
    n_a_cap: int = 100
    n_e_cap: int = 200
    growth: float = 1.3
    alpha_e: float = 0.0
    lambda_div: float = 0.0
    density: Optional[Callable] = None  # None: constant likelihood
    budgets: Optional[Array] = None  # None: scale testing violation counts
    program: str = "risk_agnostic_local"
    seed: int = 0  # solver seed, used only when run_sd gets no opts

    def __post_init__(self):
        for name, least in (("max_iter", 1), ("n_a_init", 2), ("n_a_cap", 2), ("n_e_init", 1),
                            ("n_e_cap", 1), ("seed", 0)):
            _integers(name, getattr(self, name), least=least)
        # each check is written so that NaN fails it
        if not self.lambda_div >= 0:
            raise InputError("lambda_div must be nonnegative")
        if not self.threshold >= 0:
            raise InputError("threshold must be nonnegative")
        if np.isnan(self.j_bound):
            raise InputError("j_bound must not be NaN")
        _fractions("alpha_e", self.alpha_e)
        if self.metric not in _METRICS:
            raise InputError(f"metric must be one of {_METRICS}")
        if not 1 < self.growth < np.inf:
            raise InputError("growth must be finite and exceed 1")
        if self.budgets is not None:
            _checked_budgets(self.budgets)
        if self.program not in ("risk_agnostic_local", "risk_agnostic_global", "feasibility_seed"):
            raise InputError(f"unknown program {self.program!r}")


@dataclass
class SdRecord:
    iteration: int
    n_a: int
    n_e: int
    alpha_a: Array
    objective: float
    metric: Array  # per-requirement phi_k
    violated: Array  # indices of requirements violating the threshold
    theta: Array


@dataclass
class SdTrace:
    records: List[SdRecord] = field(default_factory=list)
    met_spec: bool = False
    failed: bool = False  # a training solve stayed infeasible

    def __len__(self) -> int:
        return len(self.records)

    def rows(self):
        """CSV rows (iteration, n_a, alpha_a, J, metric, n_violated, n_e)."""
        for r in self.records:
            yield (
                r.iteration, r.n_a,
                ";".join(f"{a:.10g}" for a in r.alpha_a),
                r.objective, float(np.max(r.metric)), int(r.violated.size),
                r.n_e,
            )


# ---------------------------------------------------------------------------
# training-set selection
# ---------------------------------------------------------------------------


def _checked_budgets(budgets) -> Array:
    """``budgets`` as integers; an entry that is negative, non-integral or
    not finite is an InputError."""
    budgets = np.asarray(budgets, dtype=float)
    if not np.all(np.isfinite(budgets) & (budgets >= 0) & (budgets == np.floor(budgets))):
        raise InputError(f"budgets must be nonnegative integers, got {budgets}")
    return budgets.astype(int)


def default_budgets(c: Array, n_a_target: int) -> Array:
    """Scale the testing violation counts down to the training size; c is
    the (n_a_test, n_r) violation table ``RmcReport.scenario_fails``."""
    counts = np.count_nonzero(c, axis=0)
    return np.ceil(n_a_target / c.shape[0] * counts).astype(int)


_COV_JITTER = 1e-9


def _best(cand: Array, gains: Array, like: Array) -> tuple:
    """The candidate with the largest gain, then the largest likelihood
    among those tied, then the lowest index (``cand`` is ascending), and
    its gain."""
    top = gains.max()
    tied = np.flatnonzero(gains == top)
    return int(cand[tied[np.argmax(like[cand[tied]])]]), top


class _Selection:
    """Mutable selection with O(1) updates of its running sums and
    rank-one candidate scoring: within one pick the selection's jittered
    covariance A is fixed, and adding candidate x gives A + d d^T / n with
    d = x - mean and n the size with x, so by the matrix determinant lemma
    its log-determinant is logdet(A) + log1p(d^T A^-1 d / n).  One small
    factorisation per pick, kept until the selection changes, scores every
    candidate, a tile of the pool at a time (``best``)."""

    def __init__(self, points: Array, like: Array, gamma: Array, lam: float):
        self.like, self.gamma, self.lam = like, gamma, lam
        self.cols = np.ascontiguousarray(points.T)
        m, n_pool = self.cols.shape
        #: pool points per tile: the (m, tile) offsets and products of a
        #: tile's scores hold _TILE_FLOATS together
        self.tile = max(1, _TILE_FLOATS // (2 * m))
        self.mask = np.zeros(n_pool, dtype=bool)
        self.s1 = np.zeros(m)
        self.s2 = np.zeros((m, m))
        self.count = 0
        self.like_sum = 0.0
        self._factors = None

    def add(self, i: int) -> None:
        x = self.cols[:, i]
        self.s1 += x
        self.s2 += np.outer(x, x)
        self.count += 1
        self.like_sum += self.gamma[i] * self.like[i]
        self.mask[i] = True
        self._factors = None

    def remove(self, i: int) -> None:
        x = self.cols[:, i]
        self.s1 -= x
        self.s2 -= np.outer(x, x)
        self.count -= 1
        self.like_sum -= self.gamma[i] * self.like[i]
        self.mask[i] = False
        self._factors = None

    def _cov(self, dof: int) -> Array:
        """Scatter of the selection over ``dof``, plus the jitter."""
        scatter = self.s2 - np.outer(self.s1, self.s1) / self.count
        return scatter / dof + _COV_JITTER * np.eye(self.s1.size)

    def _factor(self) -> tuple:
        """(logdet(A), A^-1, mean) of the current selection; A^-1 is None
        when A is not positive definite."""
        if self._factors is None:
            a = self._cov(self.count)
            sign, logdet = np.linalg.slogdet(a)
            self._factors = (logdet, np.linalg.inv(a) if sign > 0 else None, self.s1 / self.count)
        return self._factors

    def _logdets_with(self, cand: Array) -> Array:
        n = self.count + 1
        if n < 2:
            return np.zeros(cand.size)
        logdet, inv, mean = self._factor()
        if inv is None:
            return np.full(cand.size, -np.inf)
        # inv @ d is one BLAS call, a gemv for one column, whose bits differ
        # from a gemm's: a lone candidate is scored as two columns, so a
        # tile that holds one scores it as a tile of many does
        cols = np.repeat(cand, 2) if cand.size == 1 else cand
        # one row per coordinate: np.take of columns is a fast gather
        d = np.take(self.cols, cols, axis=1)
        d -= mean[:, None]
        q = inv @ d
        q *= d
        out = q.sum(axis=0)[: cand.size]
        out /= n
        with np.errstate(invalid="ignore"):
            np.log1p(out, out=out)
        out += logdet
        out[~np.isfinite(out)] = -np.inf
        return out

    def gains(self, cand: Array) -> Array:
        g = self.gamma[cand] * self.like[cand]
        if self.lam > 0:
            logdets = self._logdets_with(cand)
            logdets *= self.lam
            g += logdets  # IEEE addition commutes: the bits of g + lam * logdets
        return g

    def best(self, pool: Array) -> int:
        """``_best`` among the points ``pool`` marks, or -1 when it marks
        none.  The pool is scored a tile of points at a time, so no
        temporary grows with it: the tiles' bests compare by (gain,
        likelihood), and a tie keeps the earlier one, whose index is lower."""
        best, top = -1, None
        for start in range(0, pool.size, self.tile):
            cand = np.flatnonzero(pool[start : start + self.tile])
            if cand.size == 0:
                continue
            cand += start
            i, gain = _best(cand, self.gains(cand), self.like)
            if top is None or (gain, self.like[i]) > top:
                best, top = i, (gain, self.like[i])
        return best

    def pick_best(self, pool: Array) -> int:
        best = self.best(pool)
        self.add(best)
        return best

    def value(self) -> float:
        val = self.like_sum
        if self.lam > 0 and self.count >= 2:
            sign, logdet = np.linalg.slogdet(self._cov(self.count - 1))
            val += self.lam * (float(logdet) if sign > 0 else -np.inf)
        return val


def _greedy_build(c, budgets, points, like, gamma, lam, n_target) -> _Selection:
    """Violating scenarios until each budget is met or the selection holds
    n_target points (preferring candidates that do not overshoot an
    already-met budget), then a feasible fill.
    Candidates are passed as masks over the pool, which ``best`` scores a
    tile at a time."""
    n_r = c.shape[1]
    sel = _Selection(points, like, gamma, lam)
    counts = np.zeros(n_r, dtype=int)
    for k in range(n_r):
        while counts[k] < budgets[k] and sel.count < n_target:
            pool = c[:, k] & ~sel.mask
            met = counts >= budgets
            if met.any():
                no_overshoot = pool & ~np.any(c[:, met], axis=1)
                if no_overshoot.any():
                    pool = no_overshoot
            if not pool.any():
                break
            i = sel.pick_best(pool)
            counts += c[i].astype(int)
    if np.any(counts != budgets):
        logger.info("selection budgets relaxed: wanted %s, got %s", budgets, counts)
    feasible = gamma == 0.0
    while sel.count < n_target:
        pool = feasible & ~sel.mask
        if not pool.any():
            raise InputError("cannot fill the selection without breaking budgets")
        sel.pick_best(pool)
    return sel


def select_training_aleatory(
    c: Array,
    points: Array,
    n_a_target: int,
    budgets: Optional[Array] = None,
    lambda_div: float = 0.0,
    density: Optional[Callable] = None,
) -> Array:
    """Indices into the testing aleatory set ``points``, of size n_a_target:
    the budgeted failure scenarios plus a fill of feasible points, ranked
    by log-det diversity when ``lambda_div > 0`` (the likelihood breaks
    exact ties) and by the likelihood alone when ``lambda_div = 0``.

    ``c[i, k]`` is True iff testing scenario i fails requirement k for some
    testing epistemic draw (``RmcReport.scenario_fails``).  Greedy builds
    (the combined objective, plus pure-likelihood and diversity-led
    fallbacks; the best-scoring one wins) are refined by 1-swaps within
    groups of equal violation patterns so the budget equalities stay
    intact.  ``density(points)`` must return one finite, nonnegative
    likelihood per point.
    """
    from time import perf_counter

    start = perf_counter()
    c = np.asarray(c, dtype=bool)
    points = np.asarray(points, dtype=float)
    n_pool = points.shape[0]
    if c.ndim != 2 or c.shape[0] != n_pool:
        raise InputError("the violation table needs one row per testing aleatory point")
    if not 1 <= n_a_target <= n_pool:
        raise InputError("n_a_target must lie in [1, n_a_test]")
    gamma = np.max(c, axis=1).astype(float)
    like = np.ones(n_pool) if density is None else np.asarray(density(points), float)
    if like.shape != (n_pool,) or not np.all(np.isfinite(like) & (like >= 0)):
        raise InputError(
            "the density must return one finite, nonnegative value per testing aleatory point"
        )

    budgets = default_budgets(c, n_a_target) if budgets is None else _checked_budgets(budgets)
    if budgets.shape != (c.shape[1],):
        raise InputError("budgets must have one entry per requirement")
    avail = np.count_nonzero(c, axis=0)
    budgets = np.minimum(np.minimum(budgets, avail), n_a_target)

    # centred, so the running scatter s2 - s1 s1^T / n does not cancel on a
    # cloud far from the origin; column-major, so every _Selection's
    # coordinate rows are a view of it
    centered = np.subtract(points, points.mean(axis=0), order="F")

    # the builds' masks only: a build's own likelihoods go with it
    builds = [_greedy_build(c, budgets, centered, like, gamma, lambda_div, n_a_target).mask]
    if lambda_div > 0:
        builds.append(_greedy_build(c, budgets, centered, like, gamma, 0.0, n_a_target).mask)
        builds.append(
            _greedy_build(c, budgets, centered, np.ones(n_pool), gamma, lambda_div, n_a_target).mask
        )
    # every build re-scored by the combined objective
    scored = []
    for build in builds:
        scored.append(_Selection(centered, like, gamma, lambda_div))
        for i in np.flatnonzero(build):
            scored[-1].add(int(i))
    values = [s.value() for s in scored]
    winner = int(np.argmax(values))
    sel = scored[winner]
    passes, swaps = _swap_refine(sel, c)
    logger.debug(
        "aleatory selection of %d: build values %s, winner %d, %d swap passes, "
        "%d swaps accepted, %.3f s",
        n_a_target, [float(v) for v in values], winner, passes, swaps, perf_counter() - start,
    )
    return np.sort(np.flatnonzero(sel.mask))


_SWAP_PASSES = 50


def _swap_refine(sel: _Selection, c: Array) -> tuple[int, int]:
    """1-swaps within equal violation-pattern groups until no improvement,
    over at most _SWAP_PASSES passes; returns (passes, swaps accepted)."""
    swaps = 0
    for passes in range(1, _SWAP_PASSES + 1):
        improved = False
        for i in np.flatnonzero(sel.mask):
            pool = np.all(c == c[i], axis=1) & ~sel.mask
            if not pool.any():
                continue
            base = sel.value()
            sel.remove(int(i))
            j = sel.pick_best(pool)
            if sel.value() > base + 1e-12:
                improved = True
                swaps += 1
            else:
                sel.remove(j)
                sel.add(int(i))
        if not improved:
            break
    return passes, swaps


def select_training_epistemic(
    spec: ProblemSpec, theta_prev, selected_aleatory: Array,
    testing_epistemic: Array, n_e_target: int,
) -> Array:
    """Indices of the testing epistemic draws ranked by the worst-case
    requirement over the selected aleatory points; the top draw is always
    included."""
    testing_epistemic = np.asarray(testing_epistemic, dtype=float)
    n_pool = testing_epistemic.shape[0]
    if not 1 <= n_e_target <= n_pool:
        raise InputError("n_e_target must lie in [1, n_e_test]")
    vals = r_max(
        spec,
        np.asarray(theta_prev, float),
        np.asarray(selected_aleatory, float)[:, None, :],
        testing_epistemic[None, :, :],
    )
    scores = np.max(np.broadcast_to(vals, (len(selected_aleatory), n_pool)), axis=0)
    return np.sort(np.argsort(-scores, kind="stable")[:n_e_target])


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------


#: an infeasible training solve is retried at the fraction its feasibility
#: seed suggests, then at up to this many steps of one training scenario
_RETRY_STEPS = 5
#: the largest aleatory fraction the loop trains at: the programs reject
#: alpha_a >= 1 (no scenario left), and this keeps about a tenth of them
_ALPHA_A_MAX = 0.9


def _solve_program(spec, train, cfg, alpha_a, opts):
    def alphas(alpha_a):
        return AlphaConfig(np.minimum(alpha_a, _ALPHA_A_MAX), np.full(spec.n_r, cfg.alpha_e))

    if cfg.program == "feasibility_seed":
        seed = solve_feasibility_seed(spec, train, alphas(alpha_a), opts=opts)
        return seed.theta_star, np.maximum(alpha_a, seed.alpha_a_lower), seed.solver_status
    solver = (
        solve_risk_agnostic_local
        if cfg.program == "risk_agnostic_local"
        else solve_risk_agnostic_global
    )
    result = solver(spec, train, alphas(alpha_a), opts)
    suggestion = result.diagnostics.get("suggested_alpha_a")
    if result.solver_status == "infeasible" and suggestion is not None:
        # the seed's bound comes from its own NLP, not the program's, so the
        # program can stay infeasible there: step up 1 / n_a, at most to _ALPHA_A_MAX
        bumped = np.maximum(alpha_a, np.asarray(suggestion, float) + 1e-6)
        for _ in range(_RETRY_STEPS + 1):
            logger.info("infeasible at alpha_a=%s; retrying at %s", alpha_a, bumped)
            result = solver(spec, train, alphas(bumped), opts)
            alpha_a = bumped
            if result.solver_status != "infeasible" or np.all(alpha_a >= _ALPHA_A_MAX):
                break
            bumped = np.minimum(alpha_a + 1.0 / train.n_a, _ALPHA_A_MAX)
    return result.theta_star, alpha_a, result.solver_status


def run_sd(
    spec: ProblemSpec,
    data: ScenarioData,
    baseline_theta,
    cfg: SdConfig,
    opts: Optional[nlp.NlpOptions] = None,
):
    """Run the loop from a baseline design; returns (theta, SdTrace).

    The trace has one record per evaluated design.  ``met_spec`` reports
    whether the loop stopped because the metric and objective bound were
    both satisfied (rather than by exhausting max_iter), and ``failed``
    that a training solve stayed infeasible.  An exception of a training
    solve propagates; no trace is returned then.
    """
    data.require_testing()
    opts = opts or nlp.NlpOptions(seed=cfg.seed)
    theta = np.asarray(baseline_theta, dtype=float)
    # the training sets never outgrow the testing sets, from the first one on
    n_a, n_e = min(cfg.n_a_init, data.n_a_test), min(cfg.n_e_init, data.n_e_test)
    alpha_a = np.zeros(spec.n_r)
    trace = SdTrace()

    for it in range(1, cfg.max_iter + 1):
        report = analyze(spec, theta, data, cfg.rmc)
        phi = {
            "a_hi": report.range_a[:, 1],
            "b_hi": report.range_b[:, 1],
            "c": report.point_c,
            "d_hi": report.range_d[:, 1],
        }[cfg.metric]
        violated = np.flatnonzero(phi > cfg.threshold)
        objective = float(np.asarray(spec.objective(theta), float))
        trace.records.append(
            SdRecord(
                iteration=it, n_a=n_a, n_e=n_e, alpha_a=alpha_a.copy(),
                objective=objective, metric=np.asarray(phi, float).copy(),
                violated=violated, theta=theta.copy(),
            )
        )
        if violated.size == 0 and objective <= cfg.j_bound:
            trace.met_spec = True
            return theta, trace
        if it == cfg.max_iter:
            return theta, trace

        if violated.size > 0:
            n_a = min(math.ceil(cfg.growth * n_a), cfg.n_a_cap, data.n_a_test)
            n_e = min(math.ceil(cfg.growth * n_e), cfg.n_e_cap, data.n_e_test)
            alpha_a = np.zeros(spec.n_r)
        else:
            alpha_a = np.minimum(alpha_a + 1.0 / n_a, _ALPHA_A_MAX)

        sel_a = select_training_aleatory(
            report.scenario_fails, data.testing_aleatory, n_a,
            cfg.budgets, cfg.lambda_div, cfg.density,
        )
        sel_e = select_training_epistemic(
            spec, theta, data.testing_aleatory[sel_a], data.testing_epistemic, n_e
        )
        train = ScenarioData(
            data.testing_aleatory[sel_a],
            data.testing_epistemic[sel_e],
            data.testing_aleatory,
            data.testing_epistemic,
        )
        theta, alpha_a, status = _solve_program(spec, train, cfg, alpha_a, opts)
        if status == "infeasible":
            logger.warning("iteration %d stayed infeasible; stopping", it)
            trace.failed = True
            return theta, trace
