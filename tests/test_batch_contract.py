"""The batch contract of scendo.nlp: row i of a batch result depends only
on row i of the input and equals evaluating that row alone, bit for bit.

The scenario programs with auxiliary variables evaluate their design-only
terms once per distinct design row, the finite-difference batch carries
the merit at its centre as row 0, and each start's constraint violation
and final objective are one-row batches; all rest on this contract.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scendo import circle, nlp, programs, risk_bounds, weights
from scendo.core import AlphaConfig, EpistemicSet
from scendo.ecdf import quantile_of

DATA = circle.generate_dataset(6, 5, seed=3)
SPEC = circle.make_spec()
CFG = AlphaConfig(np.array([1 / 5]), np.array([1 / 4]))
OPTS = nlp.NlpOptions(seed=0, n_starts=2)
#: the containment problems search the epistemic set around this design and point
THETA, POINT = np.array([0.0, 0.0, 5.0]), DATA.aleatory[0]
BOX = circle.epistemic_box()
ELLIPSOID = EpistemicSet(center=BOX.center, radius=1.0, kind="ellipsoid", scale=BOX.scale)
#: leading block of the decision vector: the design theta, or the unit
#: coordinates of a containment problem (three coordinates each on the circle)
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
    # every fraction 0: the grid maxima behind a guard, the sorted path elsewhere
    "risk_agnostic_local_zero_discard": lambda: _capture(
        programs.solve_risk_agnostic_local, SPEC, DATA, AlphaConfig.uniform(1), OPTS
    ),
    "risk_agnostic_global": lambda: _capture(programs.solve_risk_agnostic_global, SPEC, DATA, CFG, OPTS),
    # the containment maximisation
    "box_containment_max": lambda: _capture(risk_bounds.set_containment_opt, SPEC, THETA, POINT, BOX),
    "ellipsoid_containment_max": lambda: _capture(
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


def _tie_and_zero_designs(name: str):
    """Leading blocks that make ties and signed zeros.  A design of radius 0
    gives each scenario one requirement value for every epistemic draw (a
    tie in every row of its grid); one of radius 0 or -0.0 centred on a
    training scenario also gives that scenario's row exact zeros.  The
    containment programs, whose leading block is unit coordinates, get
    corners and signed zeros there instead."""
    if name.endswith("_containment_max"):
        return st.lists(st.sampled_from([-1.0, -0.0, 0.0, 1.0]), min_size=LEAD, max_size=LEAD)
    centre = st.one_of(
        st.sampled_from(DATA.aleatory.tolist()),
        st.tuples(st.floats(-12.0, 12.0), st.floats(-12.0, 12.0)).map(list),
    )
    return st.tuples(centre, st.sampled_from([0.0, -0.0])).map(lambda d: d[0] + [d[1]])


@st.composite
def _batches(draw, name: str):
    """A batch whose rows share few designs and vary their auxiliaries,
    with up to three more rows whose leading block is one of
    ``_tie_and_zero_designs``, each placed anywhere in the batch."""
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
    X = np.array([designs[d] + list(aux) for d, aux in rows], dtype=float)
    for design in draw(st.lists(_tie_and_zero_designs(name), max_size=3)):
        row = X[draw(st.integers(0, len(X) - 1))].copy()
        row[:LEAD] = design
        X = np.insert(X, draw(st.integers(0, len(X))), row, axis=0)
    return X


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


def _eased_requirement(theta, a, e):
    """The circle requirement less 0.4: other failure fractions, other ties."""
    return circle.circle_requirement(theta, a, e) - 0.4


def _n_r_spec(n_r):
    return dataclasses.replace(SPEC, requirements=[circle.circle_requirement, _eased_requirement][:n_r])


#: one design whose circle failure fractions on this data tie at 0 (three
#: scenarios) and at 1 (five), and one without
_TIED_DESIGNS = np.array([[0.0, 0.0, 0.75], [0.3, -0.2, 1.1]])
_TIED_DATA = circle.generate_dataset(10, 8, seed=3)


@pytest.mark.parametrize("n_r", [1, 2])
def test_risk_averse_global_rows_equal_the_weight_rule_row_by_row(n_r):
    # The tied designs, each under slacks whose smoothed fraction sweeps
    # [0, 1): the kept count takes every value it can, so rows of one
    # design share their weights only when they share the kept set of
    # every requirement.
    spec = _n_r_spec(n_r)
    cfg = CFG.for_spec(spec)
    data, designs = _TIED_DATA, _TIED_DESIGNS
    problem = _capture(programs.solve_risk_averse_global, spec, data, cfg, OPTS)
    fracs = np.concatenate([np.linspace(0.0, 0.99, 45), [0.5, 0.0]])
    xi = weights.SIGN_EPS * fracs / (1.0 - fracs)
    rows = [np.concatenate([th, np.full(data.n_a, s)]) for s in xi for th in designs]
    rows.append(np.concatenate([designs[0], np.full(data.n_a, 1e300)]))  # fraction rounds to 1
    X = np.array(rows)
    g = problem.constraints_batch(X)
    kept_counts = set()
    for i, x in enumerate(X):
        theta, slack = x[:LEAD], x[LEAD:]
        values = programs.requirement_values(spec, data, theta)
        p = weights.failure_fractions(values)
        frac = np.minimum(weights.smooth_sign_fraction(slack), np.nextafter(1.0, 0.0))
        expected = []
        for k in range(n_r):
            w, _, _ = weights.weights_from_values(values[k], frac, cfg.alpha_e[k], cfg.gamma)
            expected.append(w[None, :] * values[k] - slack[:, None])
        expected = np.stack(expected).ravel()
        assert _bits(g[i]) == _bits(expected)
        assert _bits(problem.constraints_batch(x[None])[0]) == _bits(expected)
        if i % 2 == 0:
            kept_counts.add(int(np.count_nonzero(p[0] <= quantile_of(p[0], 1.0 - frac))))
    p = weights.failure_fractions(programs.requirement_values(SPEC, data, designs[0])[0])
    assert np.count_nonzero(p == 0.0) == 3 and np.count_nonzero(p == 1.0) == 5
    assert kept_counts == {int(np.count_nonzero(p <= c)) for c in np.unique(p)}


def _agnostic_rule(spec, cfg, theta, alpha_a):
    """The global risk-agnostic constraint of one design, one requirement
    at a time: the (1 - a_k) quantile of each scenario's weighted worst case."""
    values = programs.requirement_values(spec, _TIED_DATA, theta)
    g = []
    for k in range(spec.n_r):
        w, _, _ = weights.weights_from_values(values[k], alpha_a[k], cfg.alpha_e[k], cfg.gamma)
        g.append(quantile_of(np.max(w * values[k], axis=-1), 1.0 - alpha_a[k]))
    return np.array(g)


@pytest.mark.parametrize("n_r", [1, 2])
@pytest.mark.parametrize("alpha_a", [0.0, 0.3, 0.75])
def test_risk_agnostic_global_rows_equal_the_weight_rule_row_by_row(n_r, alpha_a):
    spec = _n_r_spec(n_r)
    cfg = AlphaConfig(np.array([alpha_a, 0.5][:n_r]), CFG.alpha_e).for_spec(spec)
    problem = _capture(programs.solve_risk_agnostic_global, spec, _TIED_DATA, cfg, OPTS)
    # repeated designs and one a finite-difference step away
    X = np.vstack([_TIED_DESIGNS[[0, 1, 0, 0, 1]], _TIED_DESIGNS[:1] + [0.0, 0.0, 1e-6]])
    g = problem.constraints_batch(X)
    for i, x in enumerate(X):
        expected = _agnostic_rule(spec, cfg, x, cfg.alpha_a)
        assert _bits(g[i]) == _bits(expected)
        assert _bits(problem.constraints_batch(x[None])[0]) == _bits(expected)


@pytest.mark.parametrize("n_r", [1, 2])
def test_global_seed_rows_equal_the_weight_rule_row_by_row(n_r):
    # Per-row fractions sweep [0, 1] (so the kept count takes every value
    # the ties allow), land on the knots of the sorted failure fractions
    # (a threshold equal to a tied p keeps the whole tie) and overshoot
    # [0, 1] as finite-difference probes do; the program clips them to
    # [0, 1 - 1e-9] before the rule.
    spec = _n_r_spec(n_r)
    cfg = CFG.for_spec(spec)
    problem = _capture(
        programs.solve_feasibility_seed, spec, _TIED_DATA, cfg, variant="global", opts=OPTS
    )
    knots = 1.0 - np.arange(_TIED_DATA.n_a) / (_TIED_DATA.n_a - 1)
    fracs = np.concatenate([np.linspace(0.0, 1.0, 41), knots, [-0.3, 1.4, 0.0, 1.0]])
    alphas = np.column_stack([fracs, fracs[::-1]])[:, :n_r]
    X = np.array([np.concatenate([th, a]) for a in alphas for th in _TIED_DESIGNS])
    g = problem.constraints_batch(X)
    kept_counts = set()
    for i, x in enumerate(X):
        a = np.minimum(np.clip(x[LEAD:], 0.0, 1.0), 1.0 - 1e-9)
        expected = _agnostic_rule(spec, cfg, x[:LEAD], a)
        assert _bits(g[i]) == _bits(expected)
        assert _bits(problem.constraints_batch(x[None])[0]) == _bits(expected)
        if i % 2 == 0:
            p = weights.failure_fractions(programs.requirement_values(spec, _TIED_DATA, x[:LEAD]))[0]
            kept_counts.add(int(np.count_nonzero(p <= quantile_of(p, 1.0 - a[0]))))
    assert kept_counts == {int(np.count_nonzero(p <= c)) for c in np.unique(p)}


#: designs on each path of the zero-discard constraint: two whose grids
#: have one largest value (the maxima), one of radius 0, whose requirement
#: is the same for every epistemic draw (a tie at every scenario's top:
#: sorted), and one of radius 0 centred on a training scenario, whose grid
#: holds an exact 0.0 there (sorted with the other rejected designs)
_FAST = [[0.0, 0.0, 5.0], [0.3, -0.2, 4.0]]
_TIED = [[1.0, 2.0, 0.0]]
_ZERO = [DATA.aleatory[0].tolist() + [0.0]]


@pytest.mark.parametrize("designs, path", [
    (_FAST, "maxima"),
    (_TIED + _FAST, "sub-batch"),
    (_FAST + _ZERO + _TIED, "zero"),
])
def test_zero_discard_rows_equal_the_sorted_path_on_every_path(designs, path, monkeypatch):
    problem = _problem("risk_agnostic_local_zero_discard")
    X = np.array(designs + designs[:1])  # and a repeated design
    values = programs.requirement_values(SPEC, DATA, X)
    sorted_rows = []

    def spy(values, alpha):
        if values.ndim == 4:  # the epistemic quantiles of a (designs, n_r, n_a, n_e) batch
            sorted_rows.append(len(values))
        return quantile_of(values, alpha)

    monkeypatch.setattr(programs, "quantile_of", spy)
    g = problem.constraints_batch(X)
    n_rejected = sum(x in _TIED + _ZERO for x in X.tolist())
    assert sorted_rows == ([] if path == "maxima" else [n_rejected])
    assert (values == 0.0).any() == (path == "zero")
    assert _bits(g) == _bits(quantile_of(quantile_of(values, 1.0), 1.0))
    for i in range(len(X)):
        assert _bits(g[i]) == _bits(problem.constraints_batch(X[i : i + 1])[0])


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
        f, grad = nlp._batch_fd_gradient(penalty_batch, x[None], mu, 1e-6, [0])
        f, grad = f[0], grad[0]
        assert _bits(f) == _bits(penalty_batch(x[None], mu)[0])
        assert _bits(f) == _bits(_single_row_merit(problem, x, mu))
        assert grad.shape == (problem.dim,)

    check()


def test_fd_batch_probes_match_separate_evaluation():
    problem = _problem("risk_averse_local")
    penalty_batch = nlp._make_batch_penalty(problem)
    x = np.concatenate([[1.0, -2.0, 6.0], np.linspace(0.0, 3.0, DATA.n_a)])
    f, grad = nlp._batch_fd_gradient(penalty_batch, x[None], 100.0, 1e-6, [0])
    f, grad = f[0], grad[0]
    h = 1e-6 * np.maximum(1.0, np.abs(x))
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h[i]
        fp = penalty_batch((x + e)[None], 100.0)[0]
        fm = penalty_batch((x - e)[None], 100.0)[0]
        assert grad[i] == (fp - fm) / (2.0 * h[i])
    assert f == penalty_batch(x[None], 100.0)[0]


@pytest.mark.parametrize(
    "name, dim, n_con",
    [("box_containment_max", 3, 0), ("ellipsoid_containment_max", 3, 0)],
)
def test_containment_captures_are_the_intended_programs(name, dim, n_con):
    # the maximisation is unconstrained, in the set's unit coordinates
    problem = _problem(name)
    assert problem.dim == dim
    assert problem.constraints_batch(problem.starts).shape == (len(problem.starts), n_con)
