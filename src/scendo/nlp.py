"""Nonlinear programming backend: penalty continuation with quasi-Newton
inner solves, finite-difference gradients, and Latin-hypercube multi-start.

The scenario programs have piecewise-smooth constraints with derivative
kinks where sample orderings change, and their feasible sets are often
non-convex.  An exterior quadratic penalty tolerates the kinks, and the
multi-start absorbs local minima:

    minimize_x  f(x) + mu * sum_i max(0, g_i(x))^2   over the box,

for an increasing sequence of penalty weights mu, each stage solved with
L-BFGS-B (projected quasi-Newton) warm-started from the previous one.
The schedule is fixed: mu starts at PENALTY_INIT = 10 and grows tenfold
(PENALTY_GROWTH) per stage up to PENALTY_MAX = 1e9, over at most
MAX_OUTER = 12 stages; a start converges once its violation is at most
TOL_CON = 1e-6 and its last stage moved x by at most TOL_X = 1e-8.
Gradients come from central finite differences with per-coordinate steps
FD_STEP * max(1, |x_i|), FD_STEP = 1e-6.  Only the number of starts, the
L-BFGS-B iterations per stage and the seed are options (``NlpOptions``).
Everything is deterministic given the seed; the starts run one after
another and are reduced in a fixed order.

Problems are stated only through batch callables, which map a (B, dim)
stack of points to B rows of results.  Batch contract: row i of the result
depends only on row i of the input, and is bit-identical to evaluating
that row alone as a one-row batch.  Each L-BFGS-B evaluation relies on
it: the merit at x and its 2*dim finite-difference probes are one
(2*dim + 1)-row batch, with x as row 0.  So do the per-stage constraint
violation and the final objective of a start, each a one-row batch, and
the scenario programs, which compute their design-only terms once per
distinct design row of a batch.  The leave-one-out replay of
``risk_bounds.support_scenarios`` relies on it further: it evaluates a
new problem on the recorded batches of an earlier solve stacked into a
few large ones, and counts a byte-identical output as the same path.

Solve replay.  Inside a ``scendo.replay`` tape, ``minimize`` hands each
call to the tape, which may return a recorded result in place of
solving; outside one it solves.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from scendo.core import InputError

Array = np.ndarray


#: the penalty schedule, the finite-difference step and the stopping tolerances
PENALTY_INIT = 10.0
PENALTY_GROWTH = 10.0
PENALTY_MAX = 1e9
MAX_OUTER = 12
FD_STEP = 1e-6
TOL_X = 1e-8
TOL_CON = 1e-6


@dataclass
class NlpOptions:
    max_inner: int = 300  # L-BFGS-B iterations per penalty stage
    n_starts: int = 8
    seed: int = 0

    def __post_init__(self):
        for name in ("n_starts", "max_inner"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be at least 1")


@dataclass
class NlpProblem:
    """Box-constrained program: minimize f(x) s.t. g(x) <= 0 componentwise.

    ``objective_batch`` maps a (B, dim) stack of points to the (B,)
    objective values and ``constraints_batch`` to the (B, n_con) constraint
    residuals; n_con may be 0.  Both must keep the batch contract: row i
    of the result depends only on row i of the input and is bit-identical
    to evaluating that row alone.
    """

    dim: int
    objective_batch: Callable[[Array], Array]
    constraints_batch: Callable[[Array], Array]
    bounds: Array  # (dim, 2), +-inf allowed
    x0_list: Sequence[Array] = ()


@dataclass
class NlpResult:
    x: Array
    f: float
    status: str  # converged | max-iter | failed
    diagnostics: dict = field(default_factory=dict)


def latin_hypercube(bounds: Array, n: int, rng: np.random.Generator) -> Array:
    """n stratified points in the box; infinite sides are clipped to ±1e3."""
    bounds = np.asarray(bounds, dtype=float)
    lo = np.where(np.isfinite(bounds[:, 0]), bounds[:, 0], -1e3)
    hi = np.where(np.isfinite(bounds[:, 1]), bounds[:, 1], 1e3)
    dim = bounds.shape[0]
    u = (rng.permuted(np.tile(np.arange(n), (dim, 1)), axis=1).T + rng.uniform(size=(n, dim))) / n
    return lo + u * (hi - lo)


def _make_batch_penalty(problem: NlpProblem):
    """(B, dim) -> (B,) merit values f + mu * sum max(0, g)^2."""
    f_b = problem.objective_batch
    g_b = problem.constraints_batch

    def penalty_batch(X: Array, mu: float) -> Array:
        fvals = f_b(X)
        gvals = g_b(X)
        if gvals.size:
            fvals = fvals + mu * np.sum(np.maximum(0.0, gvals) ** 2, axis=-1)
        return np.asarray(fvals, dtype=float)

    return penalty_batch


def _violation(problem: NlpProblem, x: Array) -> float:
    """Largest constraint residual at x, zero when every one holds."""
    g = problem.constraints_batch(x[None])[0]
    return float(np.max(np.maximum(0.0, g), initial=0.0))


def _batch_fd_gradient(penalty_batch, x: Array, mu: float, step: float):
    """Merit at x and its central-difference gradient, from one batch.

    Row 0 of the batch is x, rows 1..dim the forward probes and rows
    dim+1..2*dim the backward ones.  Returns ``(f, grad)``.
    """
    dim = x.size
    h = step * np.maximum(1.0, np.abs(x))
    X = np.tile(x, (2 * dim + 1, 1))
    X[1 + np.arange(dim), np.arange(dim)] += h
    X[1 + dim + np.arange(dim), np.arange(dim)] -= h
    vals = penalty_batch(X, mu)
    probes = vals[1:]
    if not np.all(np.isfinite(probes)):
        bad = int(np.flatnonzero(~np.isfinite(probes))[0] % dim)
        raise ArithmeticError(f"non-finite merit value at finite-difference probe of coordinate {bad}")
    return float(vals[0]), (probes[:dim] - probes[dim:]) / (2.0 * h)


def _solve_one_start(problem: NlpProblem, opts: NlpOptions, x0: Array):
    penalty_batch = _make_batch_penalty(problem)
    lo, hi = problem.bounds[:, 0], problem.bounds[:, 1]
    x = np.clip(x0, lo, hi)
    scipy_bounds = list(zip(lo, hi))

    mu = PENALTY_INIT
    viol_history = []
    nfev = 0
    converged = False
    for _ in range(MAX_OUTER):
        def fun(xx, _mu=mu):
            return _batch_fd_gradient(penalty_batch, xx, _mu, FD_STEP)

        res = _scipy_minimize(
            fun,
            x,
            jac=True,
            method="L-BFGS-B",
            bounds=scipy_bounds,
            options={"maxiter": opts.max_inner, "ftol": 1e-15, "gtol": 1e-10},
        )
        nfev += int(res.nfev) * (1 + 2 * problem.dim)
        step_size = float(np.max(np.abs(res.x - x))) if res.x.size else 0.0
        x = res.x
        viol = _violation(problem, x)
        viol_history.append(viol)
        if viol <= TOL_CON and step_size <= TOL_X:
            converged = True
            break
        if viol > TOL_CON and step_size <= TOL_X:
            # stagnant while infeasible: typically parked on a zero-gradient
            # boundary saddle; kick deterministically toward the box interior
            finite = np.isfinite(lo) & np.isfinite(hi)
            mid = x.copy()
            mid[finite] = (lo[finite] + hi[finite]) / 2.0
            x = x + 0.05 * (mid - x)
        if mu >= PENALTY_MAX:
            break
        mu = min(mu * PENALTY_GROWTH, PENALTY_MAX)

    return {
        "x": x,
        "f": float(problem.objective_batch(x[None])[0]),
        "viol": viol_history[-1],
        "converged": converged,
        "viol_history": viol_history,
        "nfev": nfev,
    }


#: the active ``scendo.replay`` tape; None outside its contexts
_TAPE: ContextVar = ContextVar("scendo_nlp_tape", default=None)


def minimize(problem: NlpProblem, opts: Optional[NlpOptions] = None) -> NlpResult:
    """Best point over all starts; deterministic given (problem, options, seed).

    Status "converged" requires the final constraint violation <= TOL_CON
    and outer-step stagnation <= TOL_X; a feasible point without
    stagnation reports "max-iter"; if no start reaches feasibility the
    least-infeasible point is returned with status "failed".  Inside a
    replaying tape the result may be a recorded one (see
    ``scendo.replay``); it is bit-identical to solving.
    """
    opts = opts or NlpOptions()
    tape = _TAPE.get()
    if tape is None:
        return _solve(problem, opts)
    return tape.minimize(problem, opts)


def _solve(problem: NlpProblem, opts: NlpOptions) -> NlpResult:
    rng = np.random.default_rng(opts.seed)
    starts = [np.asarray(x, dtype=float) for x in problem.x0_list]
    for x in starts:
        if np.any(x < problem.bounds[:, 0] - 1e-12) or np.any(x > problem.bounds[:, 1] + 1e-12):
            raise InputError("start point outside bounds")
    if len(starts) < opts.n_starts:
        starts.extend(latin_hypercube(problem.bounds, opts.n_starts - len(starts), rng))

    runs = [_solve_one_start(problem, opts, s) for s in starts]

    best, best_key, best_idx = None, (2, np.inf), -1
    for i, run in enumerate(runs):  # first start wins ties
        feasible = run["viol"] <= TOL_CON
        key = (0, run["f"]) if feasible else (1, run["viol"])
        if key < best_key:
            best, best_key, best_idx = run, key, i

    feasible = best["viol"] <= TOL_CON
    if feasible and best["converged"]:
        status = "converged"
    elif feasible:
        status = "max-iter"
    else:
        status = "failed"
    diagnostics = {
        "n_starts": len(starts),
        "best_start": best_idx,
        "nfev": int(sum(r["nfev"] for r in runs)),
        "violation": best["viol"],
        "viol_history": best["viol_history"],
    }
    return NlpResult(x=best["x"], f=best["f"], status=status, diagnostics=diagnostics)
