import re
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize as scipy_minimize

from oracles import welzl_circle
from scendo import core, nlp
from scendo.core import InputError


def _no_constraints(X):
    return np.zeros((len(X), 0))


def test_unconstrained_quadratic():
    bounds, opts = np.array([[-1.0, 1.0]]), nlp.NlpOptions(seed=0)
    p = nlp.NlpProblem(objective_batch=lambda X: X[:, 0] ** 2,
                       constraints_batch=_no_constraints, bounds=bounds,
                       starts=nlp.latin_hypercube(bounds, opts))
    res = nlp.minimize(p, opts)
    assert res.status == "converged"
    assert abs(res.f) < 1e-5


def test_active_linear_constraint():
    bounds, opts = np.array([[0.0, 5.0]]), nlp.NlpOptions(seed=0)
    p = nlp.NlpProblem(
        objective_batch=lambda X: X[:, 0],
        constraints_batch=lambda X: 1.0 - X[:, :1],
        bounds=bounds,
        starts=nlp.latin_hypercube(bounds, opts),
    )
    res = nlp.minimize(p, opts)
    assert res.status == "converged"
    assert res.f == pytest.approx(1.0, abs=1e-5)


def test_minimal_enclosing_circle_matches_welzl():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]])

    def cons(X):
        X = np.asarray(X, float)
        d2 = np.sum((X[..., None, :2] - pts) ** 2, axis=-1)
        return d2 - X[..., None, 2] ** 2

    bounds, opts = np.array([[-5.0, 5.0], [-5.0, 5.0], [0.0, 5.0]]), nlp.NlpOptions(seed=3)
    p = nlp.NlpProblem(
        bounds=bounds,
        objective_batch=lambda X: np.pi * np.asarray(X)[..., 2] ** 2,
        constraints_batch=cons,
        starts=nlp.latin_hypercube(bounds, opts),
    )
    res = nlp.minimize(p, opts)
    center, radius = welzl_circle(pts)
    assert np.allclose(center, [1.0, 0.0], atol=1e-4)
    assert radius == pytest.approx(1.0, abs=1e-9)
    assert res.f == pytest.approx(np.pi * radius**2, abs=1e-5)
    assert np.allclose(res.x[:2], center, atol=1e-4)


def test_determinism_bit_identical():
    rng_pts = np.random.default_rng(9).normal(size=(8, 2))

    def cons(X):
        X = np.asarray(X, float)
        d2 = np.sum((X[..., None, :2] - rng_pts) ** 2, axis=-1)
        return d2 - X[..., None, 2] ** 2

    bounds, opts = np.array([[-5.0, 5.0], [-5.0, 5.0], [0.0, 8.0]]), nlp.NlpOptions(seed=1)
    p = nlp.NlpProblem(
        bounds=bounds,
        constraints_batch=cons,
        objective_batch=lambda X: np.asarray(X)[..., 2] ** 2,
        starts=nlp.latin_hypercube(bounds, opts),
    )
    r1 = nlp.minimize(p, opts)
    r2 = nlp.minimize(p, opts)
    assert np.array_equal(r1.x, r2.x)
    assert r1.f == r2.f


def test_penalty_infeasibility_is_monotone():
    # recorded per-stage violations should not increase on this instance
    bounds, opts = np.array([[0.0, 10.0], [0.0, 10.0]]), nlp.NlpOptions(seed=2)
    p = nlp.NlpProblem(
        objective_batch=lambda X: X[:, 0] + X[:, 1],
        constraints_batch=lambda X: np.stack([4.0 - X[:, 0] * X[:, 1], 1.0 - X[:, 0]], axis=-1),
        bounds=bounds,
        starts=nlp.latin_hypercube(bounds, opts),
    )
    res = nlp.minimize(p, opts)
    hist = res.diagnostics["viol_history"]
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
    assert res.diagnostics["violation"] <= 1e-8


def test_failed_status_when_infeasible():
    # contradictory constraints: x <= -1 and x >= 1 on [-5, 5]
    bounds, opts = np.array([[-5.0, 5.0]]), nlp.NlpOptions(seed=0)
    p = nlp.NlpProblem(
        objective_batch=lambda X: X[:, 0] ** 2,
        constraints_batch=lambda X: np.stack([X[:, 0] + 1.0, 1.0 - X[:, 0]], axis=-1),
        bounds=bounds,
        starts=nlp.latin_hypercube(bounds, opts),
    )
    res = nlp.minimize(p, opts)
    assert res.status == "failed"
    assert res.diagnostics["violation"] > 0.1


def test_a_start_stuck_infeasible_returns_where_its_last_stage_stopped():
    # a zero objective and a violated constraint, flat on each side of
    # x0 = 0.17: every stage stalls at a zero gradient and is kicked 5%
    # toward the box centre, except the last, so the result is the point
    # whose violation the last stage measured
    p = nlp.NlpProblem(
        objective_batch=lambda X: np.zeros(len(X)),
        constraints_batch=lambda X: np.where(X[:, :1] < 0.17, 2.0, 1.0),
        bounds=np.array([[0.0, 1.0], [0.0, 1.0]]),
        starts=np.zeros((1, 2)),
    )
    res = nlp.minimize(p, nlp.NlpOptions(n_starts=1))
    assert res.status == "failed"
    assert res.diagnostics["starts"][0]["stages"] == 9  # mu 1e1 .. 1e9
    x = np.zeros(2)
    for _ in range(8):
        x = x + 0.05 * (0.5 - x)
    assert np.array_equal(res.x, x)  # 0.5 (1 - 0.95^8) = 0.1683
    assert res.diagnostics["violation"] == res.diagnostics["viol_history"][-1] == 2.0
    assert nlp._violation(p, res.x) == 2.0


@pytest.mark.parametrize(
    "starts",
    [np.empty((0, 1)), np.full((1, 2), 0.5), np.array([[2.0]])],
    ids=["empty", "wrong-width", "outside-bounds"],
)
def test_start_point_outside_bounds_rejected(starts):
    p = nlp.NlpProblem(
        objective_batch=lambda X: X[:, 0] ** 2,
        constraints_batch=_no_constraints,
        bounds=np.array([[0.0, 1.0]]),
        starts=starts,
    )
    with pytest.raises(InputError):
        nlp.minimize(p)


def _linear_constraint(X):
    return 0.5 - X[:, :1]


@pytest.mark.parametrize("objective,constraints,name,shape", [
    (lambda X: np.zeros(1), _linear_constraint, "objective_batch", r"\(1,\)"),
    (lambda X: X[:, 0], lambda X: np.zeros((1, 1)), "constraints_batch", r"\(1, 1\)"),
    (lambda X: X[:, 0], lambda X: 0.5 - X[:, 0], "constraints_batch", r"\(3,\)"),
    (lambda X: np.asarray(0.0), _linear_constraint, "objective_batch", r"\(\)"),
    (lambda X: np.zeros(1), _no_constraints, "objective_batch", r"\(1,\)"),
], ids=["short-objective", "one-row-constraints", "flat-constraints", "0-d-objective",
        "short-objective-unconstrained"])
def test_output_of_the_wrong_shape_is_rejected(objective, constraints, name, shape):
    # one value for the whole batch, a constraint row per batch, one
    # residual per row as a flat array, or a 0-d value: none is one
    # value or one row of residuals per row of the 3-row probe batch
    p = nlp.NlpProblem(objective_batch=objective, constraints_batch=constraints,
                       bounds=np.array([[0.0, 1.0]]), starts=np.array([[0.2]]))
    with pytest.raises(InputError, match=f"{name} returned shape {shape} for a batch of 3 rows"):
        nlp.minimize(p)


@pytest.mark.parametrize("field", ["n_starts", "max_inner", "seed"])
def test_options_take_only_integers(field):
    for bad in (2.5, 3.0, True, "3", None):
        with pytest.raises(InputError, match=f"{field} must be an integer"):
            nlp.NlpOptions(**{field: bad})
    assert getattr(nlp.NlpOptions(**{field: np.int64(3)}), field) == 3


def _fd_gradient(f_batch, x):
    """Central-difference gradient of an unconstrained batch objective."""
    bounds = np.tile([-np.inf, np.inf], (x.size, 1))
    problem = nlp.NlpProblem(objective_batch=f_batch,
                             constraints_batch=_no_constraints, bounds=bounds, starts=x[None])
    return nlp._batch_fd_gradient(nlp._make_batch_penalty(problem), x[None], 1.0, 1e-6, [0])[1][0]


def test_fd_gradient_values():
    assert _fd_gradient(lambda X: X[:, 0] ** 2, np.array([3.0]))[0] == pytest.approx(6.0, abs=1e-6)
    g = _fd_gradient(lambda X: np.full(X.shape[0], 7.0), np.array([1.0, -2.0]))
    assert np.array_equal(g, np.zeros(2))
    assert _fd_gradient(lambda X: np.sin(X[:, 0]), np.array([0.0]))[0] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_fd_gradient_reports_bad_coordinate():
    def f(X):
        return np.sqrt(X[:, 1])  # NaN when probing x[1] below zero

    with pytest.raises(ArithmeticError, match="coordinate 1"):
        _fd_gradient(f, np.array([1.0, 0.0]))


@pytest.mark.parametrize(
    "X, mu",
    [
        (np.array([[0.7]]), 10.0),  # dim 1, one weight for the point
        (np.array([[-0.0]]), np.array([1e3])),
        # several starts, each with its own weight; -0.0 in probed and
        # unprobed coordinates, and coordinates on either side of |x| = 1
        (
            np.array([[1.5, -0.0, -3e3], [0.0, 2.0, 1e-9], [-0.0, -0.0, 5.0], [0.25, -1.0, 1.0]]),
            np.array([10.0, 1e2, 1e5, 1e9]),
        ),
    ],
)
def test_fd_batch_rows_are_the_textbook_probes(X, mu):
    # each point's rows are x, then x + h_i e_i and then x - h_i e_i for each
    # coordinate i, h_i = FD_STEP * max(1, |x_i|): a copy of x with its i-th
    # coordinate moved, every other coordinate's bits kept (-0.0 included);
    # each row carries its point's weight
    batches = []

    def penalty(B, mu_rows):
        batches.append((B.copy(), np.broadcast_to(mu_rows, len(B)).copy()))
        return np.sum(B, axis=1)

    k, dim = X.shape
    nlp._batch_fd_gradient(penalty, X, mu, nlp.FD_STEP, list(range(k)))
    (B, mu_rows), = batches
    want = []
    for x in X:
        h = nlp.FD_STEP * np.maximum(1.0, np.abs(x))
        want.append(x.copy())
        for sign in (1.0, -1.0):
            for i in range(dim):
                probe = x.copy()
                probe[i] = x[i] + h[i] if sign > 0 else x[i] - h[i]
                want.append(probe)
    assert B.tobytes() == np.array(want).tobytes()
    assert mu_rows.tobytes() == np.repeat(np.broadcast_to(mu, (k,)), 2 * dim + 1).tobytes()


def _scripted_setulb(moves):
    """A setulb stand-in that asks for the merit at ``moves[j](x)`` on its
    j-th call, each move a function of a copy of x, and converges once no
    move is left."""
    moves = list(moves)

    def setulb(m, x, lo, hi, nbd, f, g, factr, pgtol, wa, iwa, task, *rest):
        if moves:
            x[:] = moves.pop(0)(x.copy())
            task[:] = nlp._FG, 0
        else:
            task[:] = 4, 401

    return setulb


def test_stage_yields_no_point_that_equals_the_last_up_to_the_sign_of_zero(monkeypatch):
    # setulb asks for the merit at x with a zero's sign flipped, then at x
    # moved by the least step: only the move is a new point (np.array_equal)
    def flip(x):
        x[1] = -x[1]
        return x

    def nudge(x):
        x[0] = np.nextafter(x[0], 1.0)
        return x

    monkeypatch.setattr(nlp, "_lbfgsb", SimpleNamespace(setulb=_scripted_setulb([flip, nudge])))
    bounds = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    stage = nlp._lbfgsb_stage(np.array([0.5, 0.0]), bounds, 10, 1.0)
    points = [next(stage)[0].copy()]
    with pytest.raises(StopIteration) as stop:
        while True:
            points.append(stage.send((0.0, np.zeros(2)))[0].copy())
    x, _, nfev, _ = stop.value.value
    assert [p.tobytes() for p in points] == [
        np.array([0.5, 0.0]).tobytes(), np.array([np.nextafter(0.5, 1.0), -0.0]).tobytes()
    ]
    assert nfev == 2 and x.tobytes() == points[-1].tobytes()


def test_penalty_over_row_blocks_equals_the_whole_batch_formula():
    # 7000 residuals a row: the squared violations run over blocks of two
    # rows, and a last block of one
    rng = np.random.default_rng(5)
    G = rng.normal(size=(7, 7000))
    problem = nlp.NlpProblem(
        objective_batch=lambda X: X[:, 0] ** 2, constraints_batch=lambda X: G[: len(X)] * X[:, :1],
        bounds=np.tile([-5.0, 5.0], (2, 1)), starts=np.zeros((1, 2)),
    )
    X = rng.uniform(-2.0, 2.0, size=(7, 2))
    expected = X[:, 0] ** 2 + 1e3 * np.sum(np.maximum(0.0, G * X[:, :1]) ** 2, axis=-1)
    assert nlp._make_batch_penalty(problem)(X, 1e3).tobytes() == expected.tobytes()


def test_latin_hypercube_stratified():
    pts = nlp.latin_hypercube(np.array([[0.0, 1.0], [10.0, 20.0]]), nlp.NlpOptions(n_starts=8, seed=0))
    assert pts.shape == (8, 2)
    assert np.all(pts[:, 0] >= 0) and np.all(pts[:, 0] <= 1)
    # one point per stratum along each axis
    strata = np.floor((pts[:, 0]) * 8).astype(int)
    assert sorted(strata.tolist()) == list(range(8))



def test_per_start_outcomes_add_up_to_the_result():
    bounds, opts = np.array([[0.0, 10.0], [0.0, 10.0]]), nlp.NlpOptions(n_starts=5, seed=2)
    p = nlp.NlpProblem(
        objective_batch=lambda X: X[:, 0] + X[:, 1],
        constraints_batch=lambda X: np.stack([4.0 - X[:, 0] * X[:, 1], 1.0 - X[:, 0]], axis=-1),
        bounds=bounds,
        starts=nlp.latin_hypercube(bounds, opts),
    )
    res = nlp.minimize(p, opts)
    starts = res.diagnostics["starts"]
    assert len(starts) == res.diagnostics["n_starts"] == 5
    assert sum(s["nfev"] for s in starts) == res.diagnostics["nfev"]
    best = starts[res.diagnostics["best_start"]]
    assert best["f"] == res.f
    assert best["violation"] == res.diagnostics["violation"]
    assert best["stages"] == len(res.diagnostics["viol_history"])
    assert best["converged"] == (res.status == "converged")
    for s in starts:
        assert 1 <= s["stages"] <= nlp.MAX_OUTER
        assert s["mu"] == nlp.PENALTY_INIT * nlp.PENALTY_GROWTH ** (s["stages"] - 1)
        assert s["nfev"] % (2 * p.dim + 1) == 0


def test_each_stage_exit_is_recorded_with_its_start():
    # Rosenbrock's function cut off at max_inner = 3 iterations a stage:
    # every stage of the start stops there, none converges
    rosenbrock = nlp.NlpProblem(
        objective_batch=lambda X: (1.0 - X[:, 0]) ** 2 + 100.0 * (X[:, 1] - X[:, 0] ** 2) ** 2,
        constraints_batch=_no_constraints,
        bounds=np.array([[-2.0, 2.0], [-2.0, 2.0]]),
        starts=np.array([[-1.5, 1.8]]),
    )
    start = nlp.minimize(rosenbrock, nlp.NlpOptions(n_starts=1, max_inner=3)).diagnostics["starts"][0]
    cut_off = {"stop": "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT", "nit": 3}
    assert start["stage_exits"] == [cut_off] * start["stages"]
    assert start["stages"] > 1 and not start["converged"]


def test_a_stage_whose_line_search_gives_up_at_once_is_recorded():
    # the start sits on a jump of the objective that the central difference
    # reads as a slope: the first stage's line search fails before its first
    # iterate and x does not move, so the start stops after that one stage
    problem = _STAGES["line-search-gives-up"][0]
    start = nlp.minimize(problem, nlp.NlpOptions(n_starts=1)).diagnostics["starts"][0]
    assert start["stage_exits"] == [{"stop": "ABNORMAL: ", "nit": 0}]
    assert start["stages"] == 1


# ---------------------------------------------------------------------------
# the L-BFGS-B stage against scipy.optimize.minimize: it drives scipy's
# private setulb, so these pin its steps to the public solver's
# ---------------------------------------------------------------------------


def _merit(problem, mu):
    """(f, grad) at one point, from the solver's finite-difference batch."""
    penalty_batch = nlp._make_batch_penalty(problem)

    def fun(x):
        f, g = nlp._batch_fd_gradient(penalty_batch, x[None], mu, nlp.FD_STEP, [0])
        return float(f[0]), g[0]

    return fun


def _ring(bounds):
    """min (x0 - 2)^2 + (x1 + 1)^2 + x0*x1 on the box, with x0^2 + x1^2 <= 1."""
    return nlp.NlpProblem(
        objective_batch=lambda X: (X[:, 0] - 2.0) ** 2 + (X[:, 1] + 1.0) ** 2 + X[:, 0] * X[:, 1],
        constraints_batch=lambda X: (X[:, 0] ** 2 + X[:, 1] ** 2 - 1.0)[:, None],
        bounds=np.asarray(bounds, dtype=float),
        starts=np.zeros((1, 2)),
    )


_STAGES = {
    # slack-like variables with no upper bound, and one free variable
    "infinite-upper-bounds": (
        nlp.NlpProblem(
            objective_batch=lambda X: np.sum((X - [0.5, -1.0, 3.0]) ** 2, axis=-1) + X[:, 0] * X[:, 2],
            constraints_batch=lambda X: (1.0 - X[:, 1:2] - X[:, 2:3]),
            bounds=np.array([[0.0, np.inf], [-2.0, np.inf], [-np.inf, np.inf]]),
            starts=np.zeros((1, 3)),
        ),
        np.array([4.0, 5.0, -6.0]), 1e3, 300,
    ),
    "cut-off-by-max-inner": (
        nlp.NlpProblem(
            objective_batch=lambda X: (1.0 - X[:, 0]) ** 2 + 100.0 * (X[:, 1] - X[:, 0] ** 2) ** 2,
            constraints_batch=_no_constraints,
            bounds=np.array([[-2.0, 2.0], [-2.0, 2.0]]),
            starts=np.zeros((1, 2)),
        ),
        np.array([-1.5, 1.8]), 10.0, 4,
    ),
    # the gradient points out of the box at its corner: no step is taken
    "does-not-move-x": (
        nlp.NlpProblem(
            objective_batch=lambda X: X[:, 0] + 2.0 * X[:, 1],
            constraints_batch=_no_constraints,
            bounds=np.array([[0.0, 1.0], [0.0, 1.0]]),
            starts=np.zeros((1, 2)),
        ),
        np.zeros(2), 10.0, 300,
    ),
    "one-variable": (
        nlp.NlpProblem(
            objective_batch=lambda X: (X[:, 0] - 0.3) ** 2 + np.sin(3.0 * X[:, 0]),
            constraints_batch=lambda X: X[:, :1] - 1.0,
            bounds=np.array([[-2.0, 2.0]]),
            starts=np.zeros((1, 1)),
        ),
        np.array([1.7]), 1e4, 300,
    ),
    "penalised-ring": (_ring([[-3.0, 3.0], [-3.0, 3.0]]), np.array([2.5, -2.5]), 1e5, 300),
    # the merit's minimum sits on a jump, which the central difference
    # reads as a steep downhill slope: the line search gives up at nit 0
    "line-search-gives-up": (
        nlp.NlpProblem(
            objective_batch=lambda X: (X[:, 0] - 0.3) ** 2 + 1e-3 * (X[:, 0] < 0.3),
            constraints_batch=_no_constraints,
            bounds=np.array([[0.0, 1.0]]),
            starts=np.full((1, 1), 0.3),
        ),
        np.array([0.3]), 10.0, 300,
    ),
    # scipy's minimize evaluates once at the lower bounds and never calls setulb
    "fixed-box": (_ring([[0.5, 0.5], [-0.25, -0.25]]), np.array([0.5, -0.25]), 10.0, 300),
}


def _run_stage(fun, x0, bounds, maxiter, mu):
    """``(x, f, nfev, exit)`` of the stage, sent ``fun`` at each point it yields."""
    stage = nlp._lbfgsb_stage(x0, bounds, maxiter, mu)
    x, mu_x = next(stage)
    while True:
        assert mu_x == mu
        try:
            x, mu_x = stage.send(fun(x.copy()))
        except StopIteration as stop:
            return stop.value


def _scipy_stage(fun, x0, bounds, maxiter, **options):
    return scipy_minimize(
        fun, x0, jac=True, method="L-BFGS-B", bounds=[tuple(b) for b in bounds],
        options={"maxiter": maxiter, "ftol": 1e-15, "gtol": 1e-10, **options},
    )


@pytest.mark.parametrize("name", sorted(_STAGES))
def test_lbfgsb_stage_takes_scipys_steps(name):
    problem, x0, mu, maxiter = _STAGES[name]
    fun = _merit(problem, mu)
    want = _scipy_stage(fun, x0, problem.bounds, maxiter)
    x, f, nfev, stage_exit = _run_stage(fun, x0, problem.bounds, maxiter, mu)
    assert x.tobytes() == want.x.tobytes()
    assert float(f).hex() == float(want.fun).hex()
    assert nfev == want.nfev
    if name != "fixed-box":  # scipy stops before L-BFGS-B, with a message of its own
        assert stage_exit == {"stop": want.message, "nit": want.nit}
    if name == "cut-off-by-max-inner":
        assert want.nit == maxiter and want.status == 1
        assert stage_exit["stop"] == "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"
    if name == "does-not-move-x":
        assert np.array_equal(want.x, x0) and want.nfev == 1
    if name == "line-search-gives-up":
        assert stage_exit == {"stop": "ABNORMAL: ", "nit": 0} and np.array_equal(x, x0)


@pytest.mark.parametrize("maxfun", [3, 5, 8])
def test_lbfgsb_stage_stops_at_scipys_evaluation_cap(maxfun, monkeypatch):
    problem, x0, mu, _ = _STAGES["cut-off-by-max-inner"]
    fun = _merit(problem, mu)
    want = _scipy_stage(fun, x0, problem.bounds, 300, maxfun=maxfun)
    monkeypatch.setattr(nlp, "_LBFGSB_MAXFUN", maxfun)
    x, f, nfev, stage_exit = _run_stage(fun, x0, problem.bounds, 300, mu)
    assert x.tobytes() == want.x.tobytes()
    assert float(f).hex() == float(want.fun).hex()
    assert nfev == want.nfev == maxfun + 1
    assert want.status == 1 and want.nit < 300
    assert stage_exit == {"stop": "STOP: TOTAL NO. OF F,G EVALUATIONS EXCEEDS LIMIT", "nit": want.nit}


# ---------------------------------------------------------------------------
# scendo loads scipy's L-BFGS-B extension from its file (core._scipy_extension;
# tests/test_core.py runs it next to scipy.optimize in a fresh interpreter)
# ---------------------------------------------------------------------------


def test_missing_lbfgsb_extension_names_its_path(tmp_path, monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.optimize._lbfgsb")
    monkeypatch.setattr(core, "scipy", SimpleNamespace(__file__=str(tmp_path / "__init__.py")))
    with pytest.raises(ImportError, match=re.escape(f"no file {tmp_path}/optimize/_lbfgsb{{")):
        core._scipy_extension("optimize._lbfgsb")


# ---------------------------------------------------------------------------
# lockstep multi-start: k starts in one solve are the k one-start solves
# ---------------------------------------------------------------------------


def _random_problem(seed: int, dim: int, n_con: int):
    rng = np.random.default_rng(seed)
    lo = -rng.uniform(0.5, 2.0, dim)
    hi = np.where(rng.uniform(size=dim) < 0.3, np.inf, lo + rng.uniform(1.0, 4.0, dim))
    centre = rng.uniform(-1.0, 1.0, dim)
    scale = rng.uniform(0.2, 3.0, dim)
    wave = rng.uniform(0.0, 0.5, dim)
    W = rng.normal(size=(n_con, dim))
    r = rng.uniform(-0.5, 1.0, n_con)

    def objective(X):
        return np.sum(scale * (X - centre) ** 2 + wave * np.sin(3.0 * X), axis=-1)

    def constraints(X):  # no matmul: BLAS may round a row by the batch's size
        return np.sum(X[:, None, :] * W, axis=-1) - r

    pool = lo + rng.uniform(size=(3, dim)) * np.where(np.isfinite(hi), hi - lo, 3.0)
    return objective, constraints, np.stack([lo, hi], axis=1), pool


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 3),
    n_con=st.integers(0, 2),
    picks=st.lists(st.integers(0, 2), min_size=1, max_size=4),
    max_inner=st.integers(3, 60),
)
def test_lockstep_starts_equal_the_one_start_solves(seed, dim, n_con, picks, max_inner):
    objective, constraints, bounds, pool = _random_problem(seed, dim, n_con)
    starts = pool[picks]  # repeated picks tie: the first one must win
    opts = nlp.NlpOptions(max_inner=max_inner)
    problem = nlp.NlpProblem(objective_batch=objective, constraints_batch=constraints,
                             bounds=bounds, starts=starts)
    res = nlp.minimize(problem, opts)
    singles = [nlp.minimize(replace(problem, starts=s[None]), opts) for s in starts]

    def key(r):
        v = r.diagnostics["violation"]
        return (0, r.f) if v <= nlp.TOL_CON else (1, v)

    best = min(range(len(singles)), key=lambda i: key(singles[i]))  # the first of equals
    want = singles[best]
    assert res.diagnostics["best_start"] == best
    assert res.x.tobytes() == want.x.tobytes()
    assert float(res.f).hex() == float(want.f).hex()
    assert res.status == want.status
    assert res.diagnostics["viol_history"] == want.diagnostics["viol_history"]
    assert res.diagnostics["nfev"] == sum(r.diagnostics["nfev"] for r in singles)
    assert res.diagnostics["starts"] == [r.diagnostics["starts"][0] for r in singles]


def test_non_finite_probe_names_its_start_in_the_first_round():
    calls = []

    def objective(X):
        calls.append(len(X))
        return np.where(X[:, 0] > 0.85, np.nan, X[:, 0] ** 2)

    p = nlp.NlpProblem(
        objective_batch=objective,
        constraints_batch=_no_constraints,
        bounds=np.array([[0.0, 1.0]]),
        starts=np.array([[0.2], [0.5], [0.9]]),
    )
    with pytest.raises(ArithmeticError, match="coordinate 0 of start 2"):
        nlp.minimize(p)
    # the three starts shared the one batch; none ran a stage first
    assert calls == [9]
