import numpy as np
import pytest

from oracles import welzl_circle
from scendo import nlp
from scendo.core import InputError


def _no_constraints(X):
    return np.zeros((len(X), 0))


def test_unconstrained_quadratic():
    p = nlp.NlpProblem(dim=1, objective_batch=lambda X: X[:, 0] ** 2,
                       constraints_batch=_no_constraints, bounds=np.array([[-1.0, 1.0]]))
    res = nlp.minimize(p, nlp.NlpOptions(seed=0))
    assert res.status == "converged"
    assert abs(res.f) < 1e-5


def test_active_linear_constraint():
    p = nlp.NlpProblem(
        dim=1,
        objective_batch=lambda X: X[:, 0],
        constraints_batch=lambda X: 1.0 - X[:, :1],
        bounds=np.array([[0.0, 5.0]]),
    )
    res = nlp.minimize(p, nlp.NlpOptions(seed=0))
    assert res.status == "converged"
    assert res.f == pytest.approx(1.0, abs=1e-5)


def test_minimal_enclosing_circle_matches_welzl():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]])

    def cons(X):
        X = np.asarray(X, float)
        d2 = np.sum((X[..., None, :2] - pts) ** 2, axis=-1)
        return d2 - X[..., None, 2] ** 2

    p = nlp.NlpProblem(
        dim=3,
        bounds=np.array([[-5.0, 5.0], [-5.0, 5.0], [0.0, 5.0]]),
        objective_batch=lambda X: np.pi * np.asarray(X)[..., 2] ** 2,
        constraints_batch=cons,
    )
    res = nlp.minimize(p, nlp.NlpOptions(seed=3))
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

    p = nlp.NlpProblem(
        dim=3,
        bounds=np.array([[-5.0, 5.0], [-5.0, 5.0], [0.0, 8.0]]),
        constraints_batch=cons,
        objective_batch=lambda X: np.asarray(X)[..., 2] ** 2,
    )
    r1 = nlp.minimize(p, nlp.NlpOptions(seed=1))
    r2 = nlp.minimize(p, nlp.NlpOptions(seed=1))
    assert np.array_equal(r1.x, r2.x)
    assert r1.f == r2.f


def test_penalty_infeasibility_is_monotone():
    # recorded per-stage violations should not increase on this instance
    p = nlp.NlpProblem(
        dim=2,
        objective_batch=lambda X: X[:, 0] + X[:, 1],
        constraints_batch=lambda X: np.stack([4.0 - X[:, 0] * X[:, 1], 1.0 - X[:, 0]], axis=-1),
        bounds=np.array([[0.0, 10.0], [0.0, 10.0]]),
    )
    res = nlp.minimize(p, nlp.NlpOptions(seed=2))
    hist = res.diagnostics["viol_history"]
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
    assert res.diagnostics["violation"] <= 1e-8


def test_failed_status_when_infeasible():
    # contradictory constraints: x <= -1 and x >= 1 on [-5, 5]
    p = nlp.NlpProblem(
        dim=1,
        objective_batch=lambda X: X[:, 0] ** 2,
        constraints_batch=lambda X: np.stack([X[:, 0] + 1.0, 1.0 - X[:, 0]], axis=-1),
        bounds=np.array([[-5.0, 5.0]]),
    )
    res = nlp.minimize(p, nlp.NlpOptions(seed=0))
    assert res.status == "failed"
    assert res.diagnostics["violation"] > 0.1


def test_start_point_outside_bounds_rejected():
    p = nlp.NlpProblem(
        dim=1,
        objective_batch=lambda X: X[:, 0] ** 2,
        constraints_batch=_no_constraints,
        bounds=np.array([[0.0, 1.0]]),
        x0_list=[np.array([2.0])],
    )
    with pytest.raises(InputError):
        nlp.minimize(p)


def _fd_gradient(f_batch, x):
    """Central-difference gradient of an unconstrained batch objective."""
    bounds = np.tile([-np.inf, np.inf], (x.size, 1))
    problem = nlp.NlpProblem(dim=x.size, objective_batch=f_batch,
                             constraints_batch=_no_constraints, bounds=bounds)
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


def test_latin_hypercube_stratified():
    rng = np.random.default_rng(0)
    pts = nlp.latin_hypercube(np.array([[0.0, 1.0], [10.0, 20.0]]), 8, rng)
    assert pts.shape == (8, 2)
    assert np.all(pts[:, 0] >= 0) and np.all(pts[:, 0] <= 1)
    # one point per stratum along each axis
    strata = np.floor((pts[:, 0]) * 8).astype(int)
    assert sorted(strata.tolist()) == list(range(8))

