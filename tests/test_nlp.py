import numpy as np
import pytest

from oracles import welzl_circle
from scendo import nlp
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


def _fd_gradient(f_batch, x):
    """Central-difference gradient of an unconstrained batch objective."""
    bounds = np.tile([-np.inf, np.inf], (x.size, 1))
    problem = nlp.NlpProblem(objective_batch=f_batch,
                             constraints_batch=_no_constraints, bounds=bounds, starts=x[None])
    return nlp._batch_fd_gradient(nlp._make_batch_penalty(problem), x, 1.0, 1e-6)[1]


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

