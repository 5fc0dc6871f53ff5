"""Distribution-free risk bounds for scenario-based designs.

For a design trained on n_a aleatory scenarios, the probability that a
fresh aleatory point fails somewhere in the epistemic set (the set-risk)
is bounded by epsilon_bar(s) with confidence 1 - beta, where s is the
set-complexity: the number of training scenarios that are support
scenarios (their removal changes the design) or that already fail
somewhere in the epistemic set.  ``risk_bound`` is the one entry point:
it checks its inputs, runs a containment test per training scenario and
the leave-one-out support search, and evaluates epsilon_bar of their
union; its signature holds the defaults (beta 1e-4, containment "auto",
n_probe 2000, seed 0).  The bound holds for any sampling distribution
but requires IID training data, so it does not apply to sequentially
assembled training sets, and moment-based programs are fully supported
(every scenario is a support scenario), forcing the bound to 1.

epsilon_bar(k) is one minus the smaller root of a polynomial whose
coefficients are binomial numbers up to C(4*n_a, k); all terms are
evaluated in log space and each series is summed by a log-sum-exp
shifted by its largest term, so no term overflows for n_a in the
thousands.  The root is bracketed on a grid and polished by scipy's
compiled Brent routine.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from scendo import nlp
from scendo.core import (
    EpistemicSet, InputError, ProblemSpec, ScenarioData, _TILE_FLOATS, _scipy_extension, r_max,
)

Array = np.ndarray
logger = logging.getLogger(__name__)

#: design-space tolerance above which a leave-one-out design counts as changed
TOL_SUPPORT = 1e-4
#: confidence of the sampling test's zero-failure bound on a contained point
SIGMA_CONTAINMENT = 0.95


@dataclass(frozen=True)
class RiskBoundReport:
    n_support: int
    n_violation: int
    set_complexity: int
    epsilon_bar: float
    beta: float
    containment_test: str
    valid: bool = True  # False when training data was not IID
    #: max-norm distance between the design the support set was measured
    #: against (the solver's re-solve of the full data) and the design under
    #: analysis; None for moment programs, which skip the re-solve
    design_distance: Optional[float] = None

    @property
    def validity(self) -> str:
        """"not-valid-non-iid" for non-IID training data, else
        "not-reproduced" when the re-solve lies more than TOL_SUPPORT from
        the design under analysis, else "valid"."""
        if not self.valid:
            return "not-valid-non-iid"
        if self.design_distance is not None and self.design_distance > TOL_SUPPORT:
            return "not-reproduced"
        return "valid"

    def to_dict(self) -> dict:
        return {
            "n_s": self.n_support,
            "n_v": self.n_violation,
            "s_E": self.set_complexity,
            "epsilon_bar": self.epsilon_bar,
            "beta": self.beta,
            "containment_test": self.containment_test,
            "design_distance": self.design_distance,
            "validity": self.validity,
        }


# ---------------------------------------------------------------------------
# the risk bound epsilon_bar(k)
# ---------------------------------------------------------------------------


#: ``scipy.special.gammaln``, the same ufunc object, from its extension module
gammaln = _scipy_extension("special._special_ufuncs").gammaln
#: scipy's compiled root finders, whose Brent routine ``_brentq`` calls
_zeros = _scipy_extension("optimize._zeros")


def _logsumexp(a: Array) -> Array:
    """log(sum(exp(a))) over the last axis of rows of finite values, each
    row's sum taken shifted by its maximum so that no term overflows."""
    a_max = np.max(a, axis=-1, keepdims=True)
    return a_max[..., 0] + np.log(np.sum(np.exp(a - a_max), axis=-1))


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
        mid = c_mid + _logsumexp(mid_coef + mid_pow * col)
        tail = c_tail + _logsumexp(tail_coef + tail_pow * col)
        return lead - np.logaddexp(mid, tail)

    return log_gap


def _check_beta(beta: float) -> None:
    if not 0.0 < beta < 1.0:
        raise InputError("beta must lie in (0, 1)")


def _brentq(f: Callable, xa: float, xb: float, xtol: float, rtol: float, maxiter: int) -> float:
    """A root of f between xa and xb, whose values differ in sign, by
    Brent's method (R. P. Brent, 1973, ch. 4): scipy's C ``brentq``, called
    as ``scipy.optimize.brentq`` calls it, so the root has its bits.
    ArithmeticError on a NaN value (scipy: ValueError); scipy's ValueError
    on a bracket without a sign change and RuntimeError after ``maxiter``
    iterations."""

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ArithmeticError(f"Brent's method: the function value at x={x!r} is NaN")
        return fx

    return _zeros._brentq(value, xa, xb, xtol, rtol, maxiter, (), False, True)


def epsilon_bar(n_a: int, k: int, beta: float) -> float:
    """Risk bound 1 - t(k), t(k) the smaller nonnegative root of the
    slack polynomial; equals 1 when k = n_a.  The two term sums and the
    leading term are compared in log space, the root is bracketed on a
    mixed geometric/linear grid and polished by Brent's method, scipy's
    compiled ``brentq`` loaded without the scipy.optimize package
    (``_brentq``).  n_a and k must be integers, and a bool is not one.
    """
    if any(isinstance(v, bool) or not isinstance(v, (int, np.integer)) for v in (n_a, k)):
        raise InputError(f"n_a and k must be integers, got n_a={n_a!r}, k={k!r}")
    if n_a < 1:
        raise InputError(f"need n_a >= 1, got n_a={n_a}")
    if k < 0 or k > n_a:
        raise InputError(f"need 0 <= k <= n_a, got k={k}, n_a={n_a}")
    _check_beta(beta)
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
    # the grid in blocks of at most _TILE_FLOATS series terms (one t takes
    # about 4 * n_a), so each block's term arrays stay on the heap; the
    # rows of a block are reduced one by one, the bits of one whole-grid
    # call.  The blocks stop at the first crossing, the smaller root: the
    # residual is negative below it
    step = max(1, _TILE_FLOATS // (4 * n_a))
    i, prev = None, np.empty(0)
    for start in range(0, grid.size, step):
        vals = np.concatenate((prev, log_gap(grid[start : start + step])))
        crossings = np.flatnonzero((vals[:-1] < 0) & (vals[1:] >= 0))
        if crossings.size:
            i = start - prev.size + crossings[0]
            break
        prev = vals[-1:]
    if i is None:
        raise ArithmeticError(
            f"failed to bracket the risk-bound root for n_a={n_a}, k={k}, beta={beta}"
        )
    root = _brentq(log_gap, grid[i], grid[i + 1], xtol=1e-15, rtol=8.9e-16, maxiter=200)
    return float(1.0 - root)


# ---------------------------------------------------------------------------
# support scenarios
# ---------------------------------------------------------------------------


def _design_of(out) -> Array:
    """The design of a solver output: a SolveResult or a design vector."""
    return np.asarray(getattr(out, "theta_star", out), dtype=float)


def _check_leave_one_out(data: ScenarioData) -> None:
    if data.n_a < 3:
        raise InputError(
            f"scenario theory needs at least 3 aleatory scenarios to leave one out, got {data.n_a}"
        )


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
    base solve's batches and outputs, kept for each callable on its own,
    stay in memory until this returns, about nfev * (2*dim + 1 + n_con)
    floats and never more than the tape's fixed budget
    (``replay._TAPE_BYTES``, 4 MiB); a base solve that needs more is not
    kept, and every leave-one-out solve re-solves.

    Needs n_a >= 3, so that every leave-one-out set keeps two scenarios;
    fewer raise InputError before any solve.  A leave-one-out solve's
    InputError is raised again as an InputError naming the scenario, and a
    numerical failure (ArithmeticError, RuntimeError) as a RuntimeError
    naming the scenario and the cause; any other exception, such as a
    TypeError from a broken requirement, propagates unchanged.
    Results with a ``solver_status`` other than "converged" are named in
    one warning; they still count by their design.
    """
    _check_leave_one_out(data)
    # imported here: every scendo command imports this module, and
    # compiling the replay code at import raised the peak RSS of runs
    # that never leave a scenario out (the sequential benchmark workload
    # by about 0.5 MB, with bytecode caching off)
    from scendo import replay

    with replay.recording_tape() as tape:
        base = _design_of(solver(data))
    support, resolved, unconverged, screened = [], [], [], []
    for i in range(data.n_a):
        try:
            with replay.replaying_tape(tape) as replayed:
                out = solver(data.drop_aleatory(i))
            theta_i = _design_of(out)
        except InputError as exc:
            raise InputError(f"leave-one-out solve for scenario {i}: {exc}") from exc
        except (ArithmeticError, RuntimeError) as exc:
            raise RuntimeError(
                f"leave-one-out solve failed for scenario {i}: {type(exc).__name__}: {exc}"
            ) from exc
        if not replayed.replayed:
            resolved.append(i)
        screened.append(replayed.screened)
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
        "leave-one-out: %d of %d solves replayed; re-solved scenarios %s; "
        "rows screened per solve %s",
        data.n_a - len(resolved), data.n_a, resolved, screened,
    )
    return np.array(support, dtype=int)


# ---------------------------------------------------------------------------
# set containment tests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContainmentResult:
    violated: bool  # True: the point fails for some epistemic value
    method: str  # "sampling" | "optimization"
    #: the largest worst-case requirement value the test evaluated: how near
    #: to failing a contained point is, or how far a violated one fails
    margin: float
    #: set norm of e_star, a violating point the test found; inf when the
    #: optimization test finds the point contained, nan when sampling does
    radius: float = np.nan
    e_star: Optional[Array] = None  # a violating point in the set
    failure_bound: Optional[float] = None  # zero-failure bound when not violated


def set_containment_sampling(
    spec: ProblemSpec,
    theta,
    a,
    eset: EpistemicSet,
    n_probe: int,
    rng: np.random.Generator,
) -> ContainmentResult:
    """Probe the epistemic set uniformly; any positive worst-case
    requirement proves violation, otherwise the point is probably
    contained with the zero-failure bound 1 - (1-sigma)^(1/n_probe) on the
    residual failure probability, sigma = SIGMA_CONTAINMENT.  A NaN
    requirement value at any probe is an ArithmeticError: it is neither a
    violation nor a pass."""
    if n_probe < 1:
        raise InputError("n_probe must be >= 1")
    probes = eset.sample(n_probe, rng)
    vals = r_max(spec, np.asarray(theta, float), np.asarray(a, float), probes)
    n_nan = int(np.count_nonzero(np.isnan(vals)))
    if n_nan:
        raise ArithmeticError(
            f"the worst-case requirement is NaN at {n_nan} of {n_probe} probes of the epistemic set"
        )
    margin = float(vals.max())
    hit = np.flatnonzero(vals > 0.0)
    if hit.size:
        j = int(hit[0])
        return ContainmentResult(
            violated=True, method="sampling", margin=margin,
            radius=float(eset.norm(probes[j])), e_star=probes[j],
        )
    bound = 1.0 - (1.0 - SIGMA_CONTAINMENT) ** (1.0 / n_probe)
    return ContainmentResult(
        violated=False, method="sampling", margin=margin, failure_bound=bound
    )


def set_containment_opt(
    spec: ProblemSpec,
    theta,
    a,
    eset: EpistemicSet,
) -> ContainmentResult:
    """Whether the point fails somewhere in the set, by maximizing the
    worst-case requirement over it.

    A center that already violates shortcuts to radius 0.  Otherwise
    ``-r_max`` is minimized over the set, an unconstrained program in unit
    coordinates z in [-1, 1]^m_e (see ``_set_point``) with 8 starts of at
    most 150 L-BFGS-B iterations per stage.  A maximum <= 0 means the
    point is contained: radius +inf and no e_star.  A positive maximum is
    a violation: e_star is the maximizer mapped into the set, pulled back
    toward the center by a few ulps where rounding put it just outside,
    and radius its set norm.  ``margin`` is the maximum found (the
    center's value for the shortcut).  A numerical failure of the program,
    such as a non-finite requirement value, propagates.
    """
    theta = np.asarray(theta, dtype=float)
    a = np.asarray(a, dtype=float)
    at_center = float(r_max(spec, theta, a, eset.center))
    if at_center >= 0.0:
        return ContainmentResult(
            violated=True, method="optimization", margin=at_center,
            radius=0.0, e_star=eset.center.copy(),
        )
    opts = nlp.NlpOptions(n_starts=8, max_inner=150)
    res = nlp.minimize(_max_requirement_problem(spec, theta, a, eset, opts), opts)
    worst = -res.f
    if worst <= 0.0:
        return ContainmentResult(
            violated=False, method="optimization", margin=worst, radius=np.inf
        )
    e_star = _set_point(eset, res.x)
    while not eset.contains(e_star):
        e_star = np.nextafter(e_star, eset.center)
    return ContainmentResult(
        violated=True, method="optimization", margin=worst,
        radius=float(eset.norm(e_star)), e_star=e_star,
    )


def _set_point(eset: EpistemicSet, z) -> Array:
    """The point of the set at unit coordinates z in [-1, 1]^m_e: center +
    radius * scale * z, with z first mapped radially onto the unit ball
    (z / max(1, ||z||)) for an ellipsoid."""
    z = np.asarray(z, float)
    if eset.kind == "ellipsoid":
        z = z / np.maximum(1.0, np.sqrt(np.sum(z * z, axis=-1, keepdims=True)))
    return eset.center + eset.radius * eset.scale * z


def _max_requirement_problem(spec, theta, a, eset, opts):
    """-r_max over the set in unit coordinates z in [-1, 1]^m_e."""

    def obj_any(z):
        return -r_max(spec, theta, a, _set_point(eset, z))

    def cons_any(z):
        return np.empty(np.shape(z)[:-1] + (0,))

    unit = np.tile([-1.0, 1.0], (eset.m_e, 1))
    return nlp.NlpProblem(
        bounds=unit,
        starts=nlp.latin_hypercube(unit, opts),
        objective_batch=obj_any,
        constraints_batch=cons_any,
    )


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------


def risk_bound(
    spec: ProblemSpec,
    solver: Callable,
    data: ScenarioData,
    theta_star,
    eset: EpistemicSet,
    beta: float = 1e-4,
    containment: str = "auto",
    moment: bool = False,
    iid: bool = True,
    n_probe: int = 2000,
    seed: int = 0,
) -> RiskBoundReport:
    """Set violations, support scenarios and the epsilon_bar bound of a
    solved program.  In this order: ``beta`` outside (0, 1), an unknown
    ``containment`` name, an ``n_probe`` that is not an integer >= 1 or a
    ``seed`` that is not one >= 0 (under either containment test), data
    whose widths are not the spec's (``ScenarioData.check_widths``) or,
    unless ``moment``, fewer than 3 training scenarios is an InputError
    before any work; one containment test per training scenario of
    ``theta_star``; the leave-one-out support set of ``solver`` (see
    ``support_scenarios``); epsilon_bar of the set-complexity s, the size
    of the union of the two index sets, so max(n_s, n_v) <= s <= n_s + n_v.

    ``containment="auto"`` picks "optimization" (``set_containment_opt``)
    up to 10 epistemic dimensions and "sampling" above; the sampling test
    draws ``n_probe`` points per scenario from one generator seeded by
    ``seed``.  Only whether a scenario fails counts, so no confidence level
    enters.  Moment-based programs (``moment=True``) are fully supported by
    construction: every scenario counts as support and s = n_a without
    re-solving.  Set ``iid=False`` for designs trained on sequentially
    assembled data; the bound is still reported but flagged not valid.

    The support set is measured against the solver's re-solve of the full
    data, and the bound holds for that design.  The report carries its
    max-norm distance from ``theta_star``; above TOL_SUPPORT the bound does
    not certify ``theta_star``, the validity reads "not-reproduced" and a
    warning names the distance.
    """
    _check_beta(beta)
    if containment == "auto":
        containment = "optimization" if eset.m_e <= 10 else "sampling"
    if containment not in ("optimization", "sampling"):
        raise InputError(f"unknown containment test {containment!r}")
    for name, value, least in (("n_probe", n_probe, 1), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise InputError(f"{name} must be an integer of at least {least}, got {value!r}")
    data.check_widths(spec)
    if not moment:
        _check_leave_one_out(data)
    theta_star = np.asarray(theta_star, dtype=float)
    rng = np.random.default_rng(seed)
    results = [
        set_containment_sampling(spec, theta_star, a, eset, n_probe, rng=rng)
        if containment == "sampling"
        else set_containment_opt(spec, theta_star, a, eset)
        for a in data.aleatory
    ]
    violations = [i for i, r in enumerate(results) if r.violated]
    logger.debug(
        "containment by %s, scenario: violated, margin; %s", containment,
        "; ".join(f"{i}: {r.violated}, {r.margin:.6g}" for i, r in enumerate(results)),
    )

    resolved = []

    def recording(d: ScenarioData):
        out = solver(d)
        if d is data:  # the re-solve; each leave-one-out set is a new object
            resolved.append(_design_of(out))
        return out

    support = np.arange(data.n_a) if moment else support_scenarios(recording, data)
    s = int(np.union1d(support, violations).size)
    distance = float(np.max(np.abs(resolved[0] - theta_star))) if resolved else None
    if distance is not None and distance > TOL_SUPPORT:
        logger.warning(
            "the re-solved design lies %.3g (max norm) from the design under analysis, "
            "above %g: the risk bound does not certify that design",
            distance, TOL_SUPPORT,
        )
    eps = epsilon_bar(data.n_a, s, beta)
    return RiskBoundReport(
        n_support=int(support.size), n_violation=len(violations), set_complexity=s,
        epsilon_bar=eps, beta=beta, containment_test=containment, valid=iid,
        design_distance=distance,
    )
