"""Distribution-free risk bounds for scenario-based designs.

For a design trained on n_a aleatory scenarios, the probability that a
fresh aleatory point fails somewhere in the epistemic set (the set-risk)
is bounded by epsilon_bar(s) with confidence 1 - beta, where s is the
set-complexity: the number of training scenarios that are support
scenarios (their removal changes the design) or that already fail
somewhere in the epistemic set.  The bound holds for any sampling
distribution but requires IID training data, so it does not apply to
sequentially assembled training sets, and moment-based programs are fully
supported (every scenario is a support scenario), forcing the bound to 1.

epsilon_bar(k) is one minus the smaller root of a polynomial whose
coefficients are binomial numbers up to C(4*n_a, k); all terms are
evaluated in log space and combined with streaming log-sum-exp so the
computation stays exact-in-regime up to n_a in the thousands.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammaln, logsumexp

from scendo import nlp
from scendo.core import EpistemicSet, InputError, ProblemSpec, ScenarioData, r_max

Array = np.ndarray
logger = logging.getLogger(__name__)

#: design-space tolerance above which a leave-one-out design counts as changed
TOL_SUPPORT = 1e-4
#: requirement level that counts as a violation inside the containment search
ACTIVE_EPS = 1e-8


@dataclass(frozen=True)
class RiskBoundReport:
    n_support: int
    n_violation: int
    set_complexity: int
    epsilon_bar: float
    beta: float
    containment_test: str
    valid: bool = True  # False when training data was not IID

    def to_dict(self) -> dict:
        return {
            "n_s": self.n_support,
            "n_v": self.n_violation,
            "s_E": self.set_complexity,
            "epsilon_bar": self.epsilon_bar,
            "beta": self.beta,
            "containment_test": self.containment_test,
            "validity": "valid" if self.valid else "not-valid-non-iid",
        }


# ---------------------------------------------------------------------------
# the risk bound epsilon_bar(k)
# ---------------------------------------------------------------------------


def _log_comb(n, k) -> Array:
    n = np.asarray(n, dtype=float)
    return gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)


def _make_residual(n_a: int, k: int, beta: float) -> Callable:
    lead_coef = float(_log_comb(n_a, k))
    lead_pow = float(n_a - k)
    i_mid = np.arange(k, n_a)
    mid_coef = _log_comb(i_mid, k)
    mid_pow = (i_mid - k).astype(float)
    i_tail = np.arange(n_a + 1, 4 * n_a + 1)
    tail_coef = _log_comb(i_tail, k)
    tail_pow = (i_tail - k).astype(float)
    c_mid = np.log(beta / (2.0 * n_a))
    c_tail = np.log(beta / (6.0 * n_a))

    def log_gap(t):
        """Log residual at t; broadcasts over an array of t."""
        lt = np.log(t)
        lead = lead_coef + lead_pow * lt
        col = np.asarray(lt)[..., None]  # one row of series terms per t
        mid = c_mid + logsumexp(mid_coef + mid_pow * col, axis=-1)
        tail = c_tail + logsumexp(tail_coef + tail_pow * col, axis=-1)
        return lead - np.logaddexp(mid, tail)

    return log_gap


def epsilon_bar(n_a: int, k: int, beta: float) -> float:
    """Risk bound 1 - t(k), t(k) the smaller nonnegative root of the
    slack polynomial; equals 1 when k = n_a.  The two term sums and the
    leading term are compared in log space, the root is bracketed on a
    mixed geometric/linear grid and polished by Brent's method.
    """
    if not (isinstance(n_a, (int, np.integer)) and isinstance(k, (int, np.integer))):
        raise InputError("n_a and k must be integers")
    if n_a < 1 or k < 0 or k > n_a:
        raise InputError(f"need 0 <= k <= n_a, got k={k}, n_a={n_a}")
    if not 0.0 < beta < 1.0:
        raise InputError("beta must lie in (0, 1)")
    if k == n_a:
        return 1.0
    log_gap = _make_residual(int(n_a), int(k), float(beta))
    grid = np.unique(
        np.concatenate(
            [
                np.geomspace(1e-16, 1e-2, 60),
                np.linspace(1e-2, 1.0 - 1e-12, 220),
                1.0 - np.geomspace(1e-12, 0.5, 60),
            ]
        )
    )
    # the grid in blocks of about 2**16 series terms: few calls, bounded memory
    step = max(1, 2**16 // (4 * n_a))
    vals = np.concatenate([log_gap(grid[i : i + step]) for i in range(0, grid.size, step)])
    crossings = np.flatnonzero((vals[:-1] < 0) & (vals[1:] >= 0))
    if crossings.size == 0:
        raise ArithmeticError(
            f"failed to bracket the risk-bound root for n_a={n_a}, k={k}, beta={beta}"
        )
    i = crossings[0]  # the smaller root: residual is negative below it
    root = brentq(log_gap, grid[i], grid[i + 1], xtol=1e-15, rtol=8.9e-16, maxiter=200)
    return float(1.0 - root)


# ---------------------------------------------------------------------------
# support scenarios
# ---------------------------------------------------------------------------


def support_scenarios(solver: Callable, data: ScenarioData) -> Array:
    """Leave-one-out support set of a deterministic scenario solver.

    ``solver(data)`` must return the optimal design (a SolveResult or a
    plain design vector).  Scenario i is a support scenario when removing
    it moves the design by more than TOL_SUPPORT in the max norm; the
    tolerance must exceed the solver's own noise floor.

    The base solve runs under a recording tape and each leave-one-out
    solve under a replaying one (see ``scendo.replay``): an NLP
    of the reduced program whose callables return the base solve's values
    bit for bit on every batch the base solve evaluated is not re-run, and
    its result is the base one, exactly what re-running it gives.  The
    solver is still called n_a + 1 times.  Programs whose decision vector
    or starts change with n_a (risk-averse, moment) always re-solve.  The
    base solve's batches and outputs stay in memory until this returns,
    about nfev * (dim + 1 + n_con) floats and never more than the tape's
    fixed budget (``replay._TAPE_BYTES``, 4 MiB); a base solve that needs
    more is not kept, and every leave-one-out solve re-solves.

    Needs n_a >= 3, so that every leave-one-out set keeps two scenarios;
    fewer raise InputError before any solve.  A leave-one-out solve's
    InputError is raised again as an InputError naming the scenario; any
    other exception becomes a RuntimeError naming the scenario and the cause.
    Results with a ``solver_status`` other than "converged" are named in
    one warning; they still count by their design.
    """
    if data.n_a < 3:
        raise InputError(
            f"scenario theory needs at least 3 aleatory scenarios to leave one out, got {data.n_a}"
        )
    # imported here: every scendo command imports this module, and
    # compiling the replay code at import raised the peak RSS of runs
    # that never leave a scenario out (the sequential benchmark workload
    # by about 0.5 MB, with bytecode caching off)
    from scendo import replay

    def design_of(out) -> Array:
        return np.asarray(getattr(out, "theta_star", out), dtype=float)

    with replay.recording_tape() as tape:
        base = design_of(solver(data))
    support, resolved, unconverged = [], [], []
    for i in range(data.n_a):
        try:
            with replay.replaying_tape(tape) as replayed:
                out = solver(data.drop_aleatory(i))
            theta_i = design_of(out)
        except InputError as exc:
            raise InputError(f"leave-one-out solve for scenario {i}: {exc}") from exc
        except Exception as exc:
            raise RuntimeError(
                f"leave-one-out solve failed for scenario {i}: {type(exc).__name__}: {exc}"
            ) from exc
        if not replayed.replayed:
            resolved.append(i)
        status = getattr(out, "solver_status", "converged")
        if status != "converged":
            unconverged.append(f"{i} ({status})")
        if np.max(np.abs(theta_i - base)) > TOL_SUPPORT:
            support.append(i)
    if unconverged:
        logger.warning(
            "leave-one-out solves not converged, counted by their design: scenario %s",
            ", ".join(unconverged),
        )
    logger.debug(
        "leave-one-out: %d of %d solves replayed; re-solved scenarios %s",
        data.n_a - len(resolved), data.n_a, resolved,
    )
    return np.array(support, dtype=int)


# ---------------------------------------------------------------------------
# set containment tests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContainmentResult:
    violated: bool  # True: the point fails for some epistemic value
    method: str  # "sampling" | "optimization"
    radius: float = np.nan  # distance from the center to the nearest violating point
    e_star: Optional[Array] = None
    failure_bound: Optional[float] = None  # zero-failure bound when not violated


def set_containment_sampling(
    spec: ProblemSpec,
    theta,
    a,
    eset: EpistemicSet,
    n_probe: int = 2000,
    sigma: float = 0.95,
    rng: Optional[np.random.Generator] = None,
) -> ContainmentResult:
    """Probe the epistemic set uniformly; any positive worst-case
    requirement proves violation, otherwise the point is probably
    contained with the zero-failure bound 1 - (1-sigma)^(1/n_probe) on the
    residual failure probability."""
    if n_probe < 1:
        raise InputError("n_probe must be >= 1")
    rng = rng if rng is not None else np.random.default_rng(0)
    probes = eset.sample(n_probe, rng)
    vals = r_max(spec, np.asarray(theta, float), np.asarray(a, float), probes)
    hit = np.flatnonzero(vals > 0.0)
    if hit.size:
        j = int(hit[0])
        return ContainmentResult(
            violated=True, method="sampling",
            radius=float(eset.norm(probes[j])), e_star=probes[j],
        )
    bound = 1.0 - (1.0 - sigma) ** (1.0 / n_probe)
    return ContainmentResult(violated=False, method="sampling", failure_bound=bound)


def set_containment_opt(
    spec: ProblemSpec,
    theta,
    a,
    eset: EpistemicSet,
) -> ContainmentResult:
    """Find the violating epistemic point nearest to the set's center.

    Minimizes the set norm subject to the worst-case requirement being
    (slightly) positive, searching a box 1.5x the set; the point is in the
    failure domain iff the minimal radius is below the set radius.  If no
    violating point exists the auxiliary program is infeasible and the
    radius is reported as +inf.  A center that already violates shortcuts
    to radius 0; numerical failures fall back to the sampling test.  The
    search uses 8 starts of at most 150 L-BFGS-B iterations per stage.
    """
    theta = np.asarray(theta, dtype=float)
    a = np.asarray(a, dtype=float)
    if float(r_max(spec, theta, a, eset.center)) >= 0.0:
        return ContainmentResult(
            violated=True, method="optimization", radius=0.0, e_star=eset.center.copy()
        )
    opts = nlp.NlpOptions(n_starts=8, max_inner=150)
    m = eset.m_e
    margin = 1.5
    half = margin * eset.radius * eset.scale
    e_bounds = np.column_stack([eset.center - half, eset.center + half])

    try:
        if eset.kind == "box":
            problem = _box_containment_problem(spec, theta, a, eset, e_bounds, margin, opts)
            res = nlp.minimize(problem, opts)
            e_star, s_star = res.x[:m], float(res.x[m])
            radius = s_star * eset.radius
        else:
            problem = _ellipsoid_containment_problem(spec, theta, a, eset, e_bounds, opts)
            res = nlp.minimize(problem, opts)
            e_star = res.x
            radius = float(eset.norm(e_star))
        if res.status == "failed":
            return ContainmentResult(violated=False, method="optimization", radius=np.inf)
        return ContainmentResult(
            violated=bool(radius < eset.radius), method="optimization",
            radius=radius, e_star=e_star,
        )
    except ArithmeticError:
        logger.warning("containment optimization failed; falling back to sampling test")
        fallback = set_containment_sampling(spec, theta, a, eset)
        return ContainmentResult(
            violated=fallback.violated, method="sampling",
            radius=fallback.radius, e_star=fallback.e_star,
            failure_bound=fallback.failure_bound,
        )


def _box_containment_problem(spec, theta, a, eset, e_bounds, margin, opts):
    m = eset.m_e
    center, scale = eset.center, eset.scale

    def cons_any(x):
        x = np.asarray(x, float)
        e, s = x[..., :m], x[..., m]
        g0 = ACTIVE_EPS - r_max(spec, theta, a, e)
        spread = (e - center) / scale  # per-axis normalized offsets
        lim = s[..., None] * eset.radius
        return np.concatenate(
            [g0[..., None], spread - lim, -spread - lim], axis=-1
        )

    def obj_any(x):
        return np.asarray(x, float)[..., m]

    rng = np.random.default_rng(opts.seed)
    e0 = nlp.latin_hypercube(e_bounds, opts.n_starts, rng)
    s0 = np.maximum(eset.norm(e0) / max(eset.radius, 1e-300), 1e-3)
    starts = np.hstack([e0, s0[:, None]])
    bounds = np.vstack([e_bounds, [[0.0, margin]]])
    return nlp.NlpProblem(
        dim=m + 1,
        bounds=bounds,
        x0_list=list(starts),
        objective_batch=obj_any,
        constraints_batch=cons_any,
    )


def _ellipsoid_containment_problem(spec, theta, a, eset, e_bounds, opts):
    m = eset.m_e
    center, scale = eset.center, eset.scale

    def obj_any(x):
        z = (np.asarray(x, float) - center) / scale
        return np.sum(z * z, axis=-1)

    def cons_any(x):
        g0 = ACTIVE_EPS - r_max(spec, theta, a, np.asarray(x, float))
        return g0[..., None]

    rng = np.random.default_rng(opts.seed)
    starts = nlp.latin_hypercube(e_bounds, opts.n_starts, rng)
    return nlp.NlpProblem(
        dim=m,
        bounds=e_bounds,
        x0_list=list(starts),
        objective_batch=obj_any,
        constraints_batch=cons_any,
    )


# ---------------------------------------------------------------------------
# set complexity and the full report
# ---------------------------------------------------------------------------


def _containment_tester(spec, theta, eset, containment, n_probe, seed):
    if containment == "auto":
        containment = "optimization" if eset.m_e <= 10 else "sampling"
    if containment == "sampling":
        rng = np.random.default_rng(seed)

        def test(a):
            return set_containment_sampling(spec, theta, a, eset, n_probe, rng=rng)

    elif containment == "optimization":

        def test(a):
            return set_containment_opt(spec, theta, a, eset)

    else:
        raise InputError(f"unknown containment test {containment!r}")
    return containment, test


def set_complexity(
    spec: ProblemSpec,
    solver: Callable,
    data: ScenarioData,
    theta_star,
    eset: EpistemicSet,
    containment: str = "auto",
    moment: bool = False,
    n_probe: int = 2000,
    seed: int = 0,
):
    """Count support scenarios and set violations of a solved program.

    Returns (n_support, n_violation, s, containment_test_name).  The
    complexity s is the size of the union of the two index sets, so
    max(n_s, n_v) <= s <= n_s + n_v.  Moment-based programs are fully
    supported by construction: every scenario counts as support and
    s = n_a without re-solving.  The sampling containment test draws
    ``n_probe`` points per scenario from one generator seeded by ``seed``;
    only whether a scenario fails counts, so no confidence level enters.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    name, test = _containment_tester(spec, theta_star, eset, containment, n_probe, seed)
    violations = np.array(
        [i for i in range(data.n_a) if test(data.aleatory[i]).violated], dtype=int
    )
    if moment:
        support = np.arange(data.n_a)
    else:
        support = support_scenarios(solver, data)
    s = int(np.union1d(support, violations).size)
    return int(support.size), int(violations.size), s, name


def risk_bound(
    spec: ProblemSpec,
    solver: Callable,
    data: ScenarioData,
    theta_star,
    eset: EpistemicSet,
    beta: float,
    containment: str = "auto",
    moment: bool = False,
    iid: bool = True,
    n_probe: int = 2000,
    seed: int = 0,
) -> RiskBoundReport:
    """Full report: complexity counts plus the epsilon_bar bound.  Set
    ``iid=False`` for designs trained on sequentially assembled data; the
    bound is still reported but flagged not valid."""
    n_s, n_v, s, name = set_complexity(
        spec, solver, data, theta_star, eset, containment, moment, n_probe, seed,
    )
    eps = epsilon_bar(data.n_a, s, beta)
    return RiskBoundReport(
        n_support=n_s, n_violation=n_v, set_complexity=s,
        epsilon_bar=eps, beta=beta, containment_test=name, valid=iid,
    )
