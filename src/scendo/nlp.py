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
A problem carries its starts; ``latin_hypercube`` is the one recipe that
draws them, from the number of starts and the seed.  Everything is
deterministic given the starts.

The starts run in lockstep rounds.  Each start is a generator over its
penalty stages (``_start``), and each stage a generator that steps
L-BFGS-B through scipy's reverse-communication routine ``_lbfgsb.setulb``
(``_lbfgsb_stage``), with the settings, evaluation rule and stopping tests
of ``scipy.optimize.minimize(method="L-BFGS-B")``, so it takes the same
steps.  A start yields the point and penalty weight mu whose merit and
gradient it needs next and is sent them.  In a round, every waiting start
adds its point and finite-difference probes to one merit batch, each row
with its own start's mu; a start whose generator returns drops out.  The
starts are reduced in a fixed order, the first start winning ties.

Problems are stated only through batch callables, which map a (B, dim)
stack of points to B rows of results.  Batch contract: row i of the result
depends only on row i of the input, and is bit-identical to evaluating
that row alone as a one-row batch.  Each round relies on it: a start's
merit at x and its 2*dim finite-difference probes are 2*dim + 1
consecutive rows, x first, of a batch shared with the other starts, so
every start takes the steps it would take alone.  So do the per-stage
constraint violation and the final objective of a start, each a one-row
batch, and the scenario programs, which compute their design-only terms
once per distinct design row of a batch.  The leave-one-out replay of
``risk_bounds.support_scenarios`` relies on it further: it evaluates a
new problem on the recorded batches of an earlier solve stacked into a
few large ones, and counts a byte-identical output as the same path.

scipy's L-BFGS-B extension is loaded from its file alone, not through
``scipy.optimize``, whose import would pull in over two hundred scipy
modules that scendo never calls: ``core._scipy_extension("optimize._lbfgsb")``
registers it as ``scipy.optimize._lbfgsb``, the entry a later
``import scipy.optimize`` picks up.  This relies on scipy's private file
layout, as the arguments of ``setulb`` already rely on scipy >= 1.15.

Solve replay.  Inside a ``scendo.replay`` tape, ``minimize`` hands each
call to the tape, which may return a recorded result in place of
solving; outside one it solves.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from scendo.core import InputError, _TILE_FLOATS, _integers, _scipy_extension

Array = np.ndarray


_lbfgsb = _scipy_extension("optimize._lbfgsb")


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
    n_starts: int = 8  # points latin_hypercube draws
    seed: int = 0

    def __post_init__(self):
        for name, least in (("n_starts", 1), ("max_inner", 1), ("seed", 0)):
            _integers(name, getattr(self, name), least=least)


@dataclass
class NlpProblem:
    """Box-constrained program: minimize f(x) s.t. g(x) <= 0 componentwise.

    ``objective_batch`` maps a (B, dim) stack of points to the (B,)
    objective values and ``constraints_batch`` to the (B, n_con) constraint
    residuals; n_con may be 0.  An output of any other shape is an
    InputError naming the callable.  Both must keep the batch contract:
    row i of the result depends only on row i of the input and is
    bit-identical to evaluating that row alone.  ``starts`` is the (n, dim)
    stack of points the multi-start runs from, one solve per row; it must
    be non-empty and lie inside ``bounds``.
    """

    objective_batch: Callable[[Array], Array]
    constraints_batch: Callable[[Array], Array]
    bounds: Array  # (dim, 2), +-inf allowed
    starts: Array  # (n, dim)

    @property
    def dim(self) -> int:
        """The number of variables: one per row of ``bounds``."""
        return self.bounds.shape[0]


@dataclass
class NlpResult:
    x: Array
    f: float
    status: str  # converged | max-iter | failed
    diagnostics: dict = field(default_factory=dict)


def latin_hypercube(bounds: Array, opts: NlpOptions) -> Array:
    """``opts.n_starts`` stratified points in the box, drawn from a generator
    seeded by ``opts.seed``; infinite sides are clipped to ±1e3."""
    rng = np.random.default_rng(opts.seed)
    n = opts.n_starts
    bounds = np.asarray(bounds, dtype=float)
    lo = np.where(np.isfinite(bounds[:, 0]), bounds[:, 0], -1e3)
    hi = np.where(np.isfinite(bounds[:, 1]), bounds[:, 1], 1e3)
    dim = bounds.shape[0]
    u = (rng.permuted(np.tile(np.arange(n), (dim, 1)), axis=1).T + rng.uniform(size=(n, dim))) / n
    return lo + u * (hi - lo)


def _batch_output(out, name: str, rows: int) -> Array:
    """The output of the problem's callable ``name`` on a batch of ``rows``
    points, checked to be (rows,) for the objective, (rows, n_con) for
    the constraints."""
    out, ndim = np.asarray(out), 1 if name == "objective_batch" else 2
    if out.ndim != ndim or len(out) != rows:
        want = f"({rows},)" if ndim == 1 else f"({rows}, n_con)"
        raise InputError(f"{name} returned shape {out.shape} for a batch of {rows} rows, not {want}")
    return out


def _make_batch_penalty(problem: NlpProblem):
    """(B, dim) -> (B,) merit values f + mu * sum max(0, g)^2, with mu
    one weight per row or one for all.

    The squared violations are summed over blocks of rows of at most
    ``core._TILE_FLOATS`` residuals, so the residuals are the batch's one
    large array.  A second one would be mapped afresh on every batch, or
    freed next to the first at the top of the heap and trimmed away with
    it; either way its pages fault again each time.  A row's sum does not
    depend on its block.
    """
    f_b = problem.objective_batch
    g_b = problem.constraints_batch

    def squared_violations(g: Array) -> Array:
        viol = np.maximum(0.0, g)
        return np.sum(np.multiply(viol, viol, out=viol), axis=-1)

    def penalty_batch(X: Array, mu) -> Array:
        fvals = _batch_output(f_b(X), "objective_batch", len(X))
        gvals = _batch_output(g_b(X), "constraints_batch", len(X))
        if gvals.size:
            step = max(1, _TILE_FLOATS // gvals.shape[-1])
            if len(gvals) <= step:  # one block, the usual case
                sq = squared_violations(gvals)
            else:
                sq = np.empty(len(gvals))
                for i in range(0, len(gvals), step):
                    sq[i : i + step] = squared_violations(gvals[i : i + step])
            fvals = fvals + mu * sq
        return np.asarray(fvals, dtype=float)

    return penalty_batch


def _violation(problem: NlpProblem, x: Array) -> float:
    """Largest constraint residual at x, zero when every one holds."""
    g = _batch_output(problem.constraints_batch(x[None]), "constraints_batch", 1)[0]
    return float(np.max(np.maximum(0.0, g), initial=0.0))


def _batch_fd_gradient(penalty_batch, X: Array, mu, step: float, starts):
    """Merits at the k points of ``X`` and their central-difference
    gradients, from one batch.

    Point j takes rows j*(2*dim + 1) onwards: the point, its dim forward
    probes, then its dim backward ones.  ``mu`` is the penalty weight of
    each point, or one for all.  Returns ``(f, grad)`` of shapes (k,) and
    (k, dim).  ``starts`` names the points in the error a non-finite probe
    raises.
    """
    k, dim = X.shape
    rows = 2 * dim + 1
    h = step * np.maximum(1.0, np.abs(X))
    batch = np.repeat(X, rows, axis=0)
    # point j's rows, flattened: probe i's coordinate i sits at dim + i (dim + 1)
    # forward and (dim + i)(dim + 1) backward, so each is a basic-slice diagonal
    flat = batch.reshape(k, rows * dim)
    flat[:, dim :: dim + 1][:, :dim] += h
    flat[:, dim * (dim + 1) :: dim + 1] -= h
    mu_rows = np.repeat(mu, rows) if np.ndim(mu) else mu
    vals = penalty_batch(batch, mu_rows).reshape(k, rows)
    probes = vals[:, 1:]
    if not np.isfinite(probes).all():
        j, col = np.argwhere(~np.isfinite(probes))[0]
        raise ArithmeticError(
            f"non-finite merit value at finite-difference probe of coordinate {col % dim} of start {starts[j]}"
        )
    return vals[:, 0], (probes[:, :dim] - probes[:, dim:]) / (2.0 * h)


#: L-BFGS-B as ``scipy.optimize.minimize(method="L-BFGS-B")`` runs it with
#: options ftol 1e-15 and gtol 1e-10: ten corrections, at most twenty
#: line-search steps an iteration and 15000 evaluations a stage
_LBFGSB_M = 10
_LBFGSB_MAXLS = 20
_LBFGSB_FACTR = 1e-15 / np.finfo(float).eps
_LBFGSB_PGTOL = 1e-10
_LBFGSB_MAXFUN = 15000
#: setulb's task codes: wants f and g at x, took a new iterate, stop
_FG, _NEW_X, _STOP = 3, 1, 5
#: setulb's task names, and the messages of the tasks a stage ends on, as
#: scipy's L-BFGS-B words them; another task's message is its number
_TASK_NAMES = ("START", "NEW_X", "RESTART", "FG", "CONVERGENCE", "STOP", "WARNING", "ERROR", "ABNORMAL")
_TASK_MESSAGES = {
    0: "",
    401: "NORM OF PROJECTED GRADIENT <= PGTOL",
    402: "RELATIVE REDUCTION OF F <= FACTR*EPSMCH",
    502: "TOTAL NO. OF F,G EVALUATIONS EXCEEDS LIMIT",
    504: "TOTAL NO. OF ITERATIONS REACHED LIMIT",
}
#: setulb's bound type by (lower finite, upper finite)
_NBD = np.array([[0, 3], [1, 2]], dtype=np.int32)


def _lbfgsb_stage(x0: Array, bounds: Array, maxiter: int, mu: float):
    """One L-BFGS-B stage at penalty weight ``mu``, stepped through setulb's
    reverse communication.

    It takes the steps of ``scipy.optimize.minimize(fun, x0, jac=True,
    method="L-BFGS-B", bounds=bounds, options={"maxiter": maxiter,
    "ftol": 1e-15, "gtol": 1e-10})`` and as many evaluations.  It yields
    ``(x, mu)`` for each merit and gradient it needs and is sent their
    ``(f, g)``: first at the clipped x0, later whenever setulb asks at an x
    other than the last one yielded.  It returns ``(x, f, nfev, exit)``:
    where it stopped, the last merit sent, the number of evaluations and
    ``{"stop": reason, "nit": iterations}``.  The reason is scipy's
    ``OptimizeResult.message`` for the same stop: setulb's final task, or
    this stage's own stop at ``maxiter`` iterations or after more than
    ``_LBFGSB_MAXFUN`` evaluations.
    """
    lo, hi = bounds[:, 0], bounds[:, 1]
    n, m = len(bounds), _LBFGSB_M
    nbd = _NBD[(~np.isinf(lo)).astype(int), (~np.isinf(hi)).astype(int)]
    x = np.clip(x0, lo, hi)
    lo, hi = np.where(np.isinf(lo), 0.0, lo), np.where(np.isinf(hi), 0.0, hi)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task, ln_task = np.zeros(2, dtype=np.int32), np.zeros(2, dtype=np.int32)
    lsave, isave, dsave = np.zeros(4, dtype=np.int32), np.zeros(44, dtype=np.int32), np.zeros(29)
    at, nfev, nit = x.copy(), 0, 0
    while True:
        f, g = yield at, mu
        nfev += 1
        while True:
            _lbfgsb.setulb(
                m, x, lo, hi, nbd, f, g.astype(np.float64), _LBFGSB_FACTR, _LBFGSB_PGTOL,
                wa, iwa, task, lsave, isave, dsave, _LBFGSB_MAXLS, ln_task,
            )
            if task[0] == _FG:
                if not (x == at).all():  # np.array_equal: -0.0 == 0.0
                    at = x.copy()
                    break
            elif task[0] == _NEW_X:
                nit += 1
                if nit >= maxiter:
                    task[:] = _STOP, 504
                elif nfev > _LBFGSB_MAXFUN:
                    task[:] = _STOP, 502
            else:
                stop = f"{_TASK_NAMES[task[0]]}: {_TASK_MESSAGES.get(int(task[1]), int(task[1]))}"
                return x, f, nfev, {"stop": stop, "nit": nit}


def _start(problem: NlpProblem, x0: Array, max_inner: int):
    """One start's penalty continuation: L-BFGS-B stages at growing mu,
    each warm-started where the last one stopped.  It yields what its
    current stage yields and passes on what it is sent; it returns
    ``(x, outcome, viol_history)``, the outcome being its entry of
    ``diagnostics["starts"]``."""
    x, mu, nfev, viol_history, exits = x0, PENALTY_INIT, 0, [], []
    while True:
        x_new, _, stage_nfev, stage_exit = yield from _lbfgsb_stage(x, problem.bounds, max_inner, mu)
        exits.append(stage_exit)
        nfev += stage_nfev * (1 + 2 * problem.dim)
        step_size = float(np.max(np.abs(x_new - x))) if x.size else 0.0
        x = x_new
        viol = _violation(problem, x)
        viol_history.append(viol)
        converged = viol <= TOL_CON and step_size <= TOL_X
        if converged or mu >= PENALTY_MAX or len(viol_history) >= MAX_OUTER:
            break  # x is where the last stage stopped and viol was measured
        if viol > TOL_CON and step_size <= TOL_X:
            # stagnant while infeasible: typically parked on a zero-gradient
            # boundary saddle; kick deterministically toward the box interior
            lo, hi = problem.bounds[:, 0], problem.bounds[:, 1]
            finite = np.isfinite(lo) & np.isfinite(hi)
            mid = x.copy()
            mid[finite] = (lo[finite] + hi[finite]) / 2.0
            x = x + 0.05 * (mid - x)
        mu = min(mu * PENALTY_GROWTH, PENALTY_MAX)
    outcome = {
        "f": float(_batch_output(problem.objective_batch(x[None]), "objective_batch", 1)[0]),
        "violation": viol_history[-1],
        "nfev": nfev,
        "stages": len(viol_history),
        "stage_exits": exits,
        "mu": mu,
        "converged": converged,
    }
    return x, outcome, viol_history


#: the active ``scendo.replay`` tape; None outside its contexts
_TAPE: ContextVar = ContextVar("scendo_nlp_tape", default=None)


def minimize(problem: NlpProblem, opts: Optional[NlpOptions] = None) -> NlpResult:
    """Best point over the problem's starts; deterministic given problem and options.

    The starts are solved in lockstep, one merit batch per round, and the
    result equals the best of the one-start solves, the first start
    winning ties.  ``diagnostics["starts"]`` holds one entry per start:
    its final objective ``f`` and ``violation``, ``nfev``, the number of
    penalty ``stages``, how each stage ended (``stage_exits``: L-BFGS-B's
    ``stop`` reason and its iterations ``nit``, see ``_lbfgsb_stage``), the
    last stage's ``mu`` and ``converged``.

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
    starts = np.asarray(problem.starts, dtype=float)
    lo, hi = problem.bounds[:, 0], problem.bounds[:, 1]
    if starts.ndim != 2 or len(starts) == 0 or starts.shape[1] != problem.dim:
        raise InputError(f"starts must be a non-empty (n, {problem.dim}) stack, got {starts.shape}")
    if np.any(starts < lo - 1e-12) or np.any(starts > hi + 1e-12):
        raise InputError("start point outside bounds")

    runs = [_start(problem, np.clip(s, lo, hi), opts.max_inner) for s in starts]
    wants = {i: next(run) for i, run in enumerate(runs)}  # start -> (point, mu)
    done = {}
    penalty_batch = _make_batch_penalty(problem)
    while wants:  # one round: every start that waits, in one merit batch
        active = list(wants)
        X = np.array([wants[i][0] for i in active])
        mu = np.array([wants[i][1] for i in active])
        f, grad = _batch_fd_gradient(penalty_batch, X, mu, FD_STEP, active)
        for i, fi, gi in zip(active, f.tolist(), grad):
            try:
                wants[i] = runs[i].send((fi, gi))
            except StopIteration as stop:
                del wants[i]
                done[i] = stop.value
    xs, outcomes, histories = zip(*(done[i] for i in range(len(starts))))

    def rank(i):  # feasible starts by objective, then the rest by violation
        out = outcomes[i]
        return (0, out["f"]) if out["violation"] <= TOL_CON else (1, out["violation"])

    best_idx = min(range(len(starts)), key=rank)  # first start wins ties
    best = outcomes[best_idx]
    feasible = best["violation"] <= TOL_CON
    if feasible and best["converged"]:
        status = "converged"
    elif feasible:
        status = "max-iter"
    else:
        status = "failed"
    diagnostics = {
        "n_starts": len(starts),
        "best_start": best_idx,
        "nfev": int(sum(out["nfev"] for out in outcomes)),
        "violation": best["violation"],
        "viol_history": histories[best_idx],
        "starts": list(outcomes),
    }
    return NlpResult(x=xs[best_idx], f=best["f"], status=status, diagnostics=diagnostics)
