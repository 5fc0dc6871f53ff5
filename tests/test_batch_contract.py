"""The batch contract of scendo.nlp: row i of a batch result depends only
on row i of the input and equals evaluating that row alone, bit for bit.

The scenario programs with auxiliary variables evaluate their design-only
terms once per distinct design row, the finite-difference batch carries
the merit at its centre as row 0, and each start's constraint violation
and final objective are one-row batches; all rest on this contract.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scendo import circle, nlp, programs, risk_bounds
from scendo.core import AlphaConfig, EpistemicSet

DATA = circle.generate_dataset(6, 5, seed=3)
SPEC = circle.make_spec()
CFG = AlphaConfig(np.array([1 / 5]), np.array([1 / 4]))
OPTS = nlp.NlpOptions(seed=0, n_starts=2)
#: the containment problems search the epistemic set around this design and point
THETA, POINT = np.array([0.0, 0.0, 5.0]), DATA.aleatory[0]
BOX = circle.epistemic_box()
ELLIPSOID = EpistemicSet(center=BOX.center, radius=1.0, kind="ellipsoid", scale=BOX.scale)
#: leading block of the decision vector: the design theta, or the epistemic
#: point of a containment problem (three coordinates each on the circle)
LEAD = 3


class _Captured(Exception):
    pass


def _capture(solve, *args, **kwargs) -> nlp.NlpProblem:
    """The NlpProblem a program hands to nlp.minimize, without solving it."""
    captured = []

    def fake_minimize(problem, opts=None):
        captured.append(problem)
        raise _Captured

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nlp, "minimize", fake_minimize)
        with pytest.raises(_Captured):
            solve(*args, **kwargs)
    return captured[0]


#: every builder of an NlpProblem, keyed by program
PROGRAMS = {
    "risk_averse_local": lambda: _capture(programs.solve_risk_averse_local, SPEC, DATA, CFG, OPTS),
    "risk_averse_global": lambda: _capture(programs.solve_risk_averse_global, SPEC, DATA, CFG, OPTS),
    "feasibility_seed_local": lambda: _capture(
        programs.solve_feasibility_seed, SPEC, DATA, CFG, variant="local", opts=OPTS
    ),
    "feasibility_seed_global": lambda: _capture(
        programs.solve_feasibility_seed, SPEC, DATA, CFG, variant="global", opts=OPTS
    ),
    "moment_risk_averse": lambda: _capture(
        programs.solve_moment_risk_averse, SPEC, DATA, CFG, circle.circle_response, OPTS
    ),
    "moment_risk_agnostic": lambda: _capture(
        programs.solve_moment_risk_agnostic, SPEC, DATA, CFG, circle.circle_response, OPTS
    ),
    "risk_agnostic_local": lambda: _capture(programs.solve_risk_agnostic_local, SPEC, DATA, CFG, OPTS),
    "risk_agnostic_global": lambda: _capture(programs.solve_risk_agnostic_global, SPEC, DATA, CFG, OPTS),
    "box_containment": lambda: _capture(risk_bounds.set_containment_opt, SPEC, THETA, POINT, BOX),
    "ellipsoid_containment": lambda: _capture(
        risk_bounds.set_containment_opt, SPEC, THETA, POINT, ELLIPSOID
    ),
}


@functools.lru_cache(maxsize=None)
def _problem(name: str) -> nlp.NlpProblem:
    return PROGRAMS[name]()


def _finite_bounds(bounds):
    """Box to draw from: infinite sides replaced, slacks up to 1e12 so the
    smoothed sign fraction can round to exactly one."""
    lo = np.where(np.isfinite(bounds[:, 0]), bounds[:, 0], -100.0)
    hi = np.where(np.isfinite(bounds[:, 1]), bounds[:, 1], 1e12)
    return lo, hi


@st.composite
def _batches(draw, name: str):
    """A batch whose rows share few designs and vary their auxiliaries."""
    problem = _problem(name)
    lo, hi = _finite_bounds(problem.bounds)
    m = LEAD

    def coordinate(i):
        return st.floats(float(lo[i]), float(hi[i]), allow_nan=False, allow_infinity=False)

    # like a finite-difference batch: designs differ from a base in one coordinate
    base = draw(st.tuples(*(coordinate(i) for i in range(m))))
    moves = draw(st.lists(st.tuples(st.integers(0, m - 1), st.floats(-1.0, 1.0)), max_size=3))
    designs = [list(base)]
    for i, step in moves:
        designs.append(list(base))
        designs[-1][i] += step
    rows = draw(st.lists(
        st.tuples(
            st.integers(0, len(designs) - 1),
            st.tuples(*(coordinate(i) for i in range(m, problem.dim))),
        ),
        min_size=1, max_size=6,
    ))
    return np.array([designs[d] + list(aux) for d, aux in rows], dtype=float)


def _bits(a) -> bytes:
    return np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes()


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_batch_rows_equal_single_rows(name):
    problem = _problem(name)

    @settings(max_examples=25, deadline=None)
    @given(_batches(name))
    def check(X):
        g_batch = problem.constraints_batch(X)
        f_batch = problem.objective_batch(X)
        for i in range(X.shape[0]):
            assert _bits(g_batch[i]) == _bits(problem.constraints_batch(X[i : i + 1])[0])
            assert _bits(f_batch[i]) == _bits(problem.objective_batch(X[i : i + 1])[0])

    check()


def test_risk_averse_global_accepts_huge_slacks():
    # slacks this large round every xi/(xi + eps) term, and so the smoothed
    # sign fraction fed to the weight rule, to exactly one
    problem = _problem("risk_averse_global")
    x = np.concatenate([[0.0, 0.0, 5.0], np.full(DATA.n_a, 2.7e10)])
    g = problem.constraints_batch(x[None])[0]
    assert np.all(np.isfinite(g))
    assert _bits(problem.constraints_batch(np.stack([x, x]))[1]) == _bits(g)


def _single_row_merit(problem, x, mu):
    """The merit of one point from one-row batches of the callables."""
    g = problem.constraints_batch(x[None])[0]
    return problem.objective_batch(x[None])[0] + mu * float(np.sum(np.maximum(0.0, g) ** 2))


@pytest.mark.parametrize("name", ["risk_averse_global", "moment_risk_averse"])
def test_fd_batch_centre_row_is_the_merit(name):
    problem = _problem(name)
    penalty_batch = nlp._make_batch_penalty(problem)

    @settings(max_examples=15, deadline=None)
    @given(_batches(name), st.sampled_from([10.0, 1e4, 1e9]))
    def check(X, mu):
        x = X[0]
        f, grad = nlp._batch_fd_gradient(penalty_batch, x, mu, 1e-6)
        assert _bits(f) == _bits(penalty_batch(x[None], mu)[0])
        assert _bits(f) == _bits(_single_row_merit(problem, x, mu))
        assert grad.shape == (problem.dim,)

    check()


def test_fd_batch_probes_match_separate_evaluation():
    problem = _problem("risk_averse_local")
    penalty_batch = nlp._make_batch_penalty(problem)
    x = np.concatenate([[1.0, -2.0, 6.0], np.linspace(0.0, 3.0, DATA.n_a)])
    f, grad = nlp._batch_fd_gradient(penalty_batch, x, 100.0, 1e-6)
    h = 1e-6 * np.maximum(1.0, np.abs(x))
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h[i]
        fp = penalty_batch((x + e)[None], 100.0)[0]
        fm = penalty_batch((x - e)[None], 100.0)[0]
        assert grad[i] == (fp - fm) / (2.0 * h[i])
    assert f == penalty_batch(x[None], 100.0)[0]
