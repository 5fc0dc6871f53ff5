import logging
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from scendo import circle, core, nlp, risk_bounds
from scendo.core import AlphaConfig, EpistemicSet, InputError, ProblemSpec, ScenarioData, r_max
from scendo.programs import solve_risk_agnostic_local, solve_risk_averse_local
from scendo.risk_bounds import (
    RiskBoundReport,
    epsilon_bar,
    risk_bound,
    set_containment_opt,
    set_containment_sampling,
    support_scenarios,
    _make_residual,
)

FAST = nlp.NlpOptions(seed=0, n_starts=4, max_inner=120)


# ---------------------------------------------------------------------------
# epsilon_bar
# ---------------------------------------------------------------------------


def test_epsilon_bar_reference_point():
    assert epsilon_bar(50, 2, 1e-4) == pytest.approx(0.303, abs=1e-3)


def test_epsilon_bar_full_complexity_is_one():
    assert epsilon_bar(50, 50, 1e-4) == 1.0
    assert epsilon_bar(7, 7, 0.5) == 1.0


def _finite_rows(rng):
    """1-D and 2-D rows of finite values: scales from 1 to 1e4, ties at the
    maximum and single columns."""
    return [
        rng.normal(size=9),
        *(rng.normal(size=(7, 40)) * scale for scale in (1.0, 300.0, 1e4)),
        rng.normal(size=(5, 1)),
        np.array([-1.5]),
        np.array([[3.0, 1.0, 3.0, 3.0], [800.0, 799.0, 1.0, -1e308], [-2.0, -2.0, -2.0, -2.0]]),
    ]


def test_logsumexp_of_finite_rows_matches_scipy():
    # the max-shifted sum against scipy.special.logsumexp(a, axis=-1),
    # within a few ulps of the result; shapes agree
    from scipy.special import logsumexp

    for a in _finite_rows(np.random.default_rng(11)):
        got, want = risk_bounds._logsumexp(a), logsumexp(a, axis=-1)
        assert np.shape(got) == np.shape(want)
        tol = 4 * np.finfo(float).eps * np.maximum(1.0, np.abs(want))
        assert np.all(np.abs(got - want) <= tol)


@pytest.mark.parametrize("n_a, k, beta, bits", [
    (12, 2, 1e-4, "0x1.97854ba2e1259p-1"),
    (5000, 4, 1e-4, "0x1.22dcf29535200p-8"),
    (50, 2, 1e-4, "0x1.3693cc7627902p-2"),
    (100, 2, 1e-4, "0x1.50a70c4ad2cfcp-3"),
    (30, 3, 1e-3, "0x1.cc2c8887a165ap-2"),
])
def test_epsilon_bar_keeps_its_bits(n_a, k, beta, bits):
    # the bounds the certify benchmark, the CLI's CI step and the
    # acceptance tests evaluate, bit for bit as recorded with scipy's
    # logsumexp in the residual
    assert epsilon_bar(n_a, k, beta).hex() == bits


def test_epsilon_bar_validation():
    with pytest.raises(InputError):
        epsilon_bar(50, 51, 1e-4)
    with pytest.raises(InputError):
        epsilon_bar(50, -1, 1e-4)
    with pytest.raises(InputError):
        epsilon_bar(50, 2, 0.0)
    with pytest.raises(InputError):
        epsilon_bar(50, 2.5, 1e-4)


@pytest.mark.parametrize("n_a, k, message", [
    (0, 0, "need n_a >= 1, got n_a=0"),
    (-2, 0, "need n_a >= 1, got n_a=-2"),
    (50, 51, "need 0 <= k <= n_a, got k=51, n_a=50"),
    (50, -1, "need 0 <= k <= n_a, got k=-1, n_a=50"),
])
def test_epsilon_bar_names_the_check_that_failed(n_a, k, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        epsilon_bar(n_a, k, 1e-4)


@pytest.mark.parametrize("n_a, k", [(True, 0), (3, False), (np.int64(3), True)])
def test_epsilon_bar_rejects_bools(n_a, k):
    # a bool is an int to isinstance: without the check True would read as n_a = 1
    with pytest.raises(InputError, match="n_a and k must be integers"):
        epsilon_bar(n_a, k, 0.5)


# scendo's call of scipy's C Brent routine against scipy.optimize.brentq: the
# same points evaluated in the same order, and the same root, bit for bit, so
# xtol, rtol and maxiter reach the C call in scipy's positional order
BRENT_TOL = dict(xtol=1e-15, rtol=8.9e-16, maxiter=200)


def _brent_trail(brentq, f, xa, xb, **tol):
    trail = []

    def recorded(x):
        trail.append(float(x))
        return f(x)

    root = brentq(recorded, xa, xb, **tol)
    return np.array(trail + [root]).view(np.int64)


@pytest.mark.parametrize("n_a", [2, 3, 12, 50, 400, 5000])
@pytest.mark.parametrize("beta", [1e-8, 1e-4, 1e-2, 0.05])
def test_brentq_takes_scipys_steps_on_epsilon_bars_residual(n_a, beta, monkeypatch):
    # the brackets and tolerances are the ones epsilon_bar hands to _brentq
    from scipy.optimize import brentq

    ours, calls, ks = risk_bounds._brentq, [], {0, n_a // 10, n_a // 2, n_a - 1}

    def compare(f, xa, xb, **tol):
        assert tol == BRENT_TOL
        want = _brent_trail(brentq, f, xa, xb, **tol)
        assert np.array_equal(_brent_trail(ours, f, xa, xb, **tol), want)
        calls.append(want.size)
        return ours(f, xa, xb, **tol)

    monkeypatch.setattr(risk_bounds, "_brentq", compare)
    for k in ks:
        epsilon_bar(n_a, k, beta)
    assert len(calls) == len(ks)


def test_brentq_raises_when_it_does_not_converge():
    from scipy.optimize import brentq

    f = lambda x: x**3 - 2.0  # noqa: E731
    tol = {**BRENT_TOL, "maxiter": 3}
    with pytest.raises(RuntimeError, match="converge"):
        brentq(f, 0.0, 2.0, **tol)
    with pytest.raises(RuntimeError, match="Failed to converge after 3 iterations"):
        risk_bounds._brentq(f, 0.0, 2.0, **tol)


def test_brentq_raises_on_a_nan_value():
    # the first secant step from the bracket [0, 2] lands at 1.2, inside the NaN band
    f = lambda x: math.nan if abs(x - 1.0) < 0.3 else x - 1.2  # noqa: E731
    with pytest.raises(ArithmeticError, match="NaN"):
        risk_bounds._brentq(f, 0.0, 2.0, **BRENT_TOL)


def test_epsilon_bar_monotone_in_complexity():
    vals = [epsilon_bar(30, k, 1e-3) for k in range(0, 31, 3)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_epsilon_bar_decreases_with_more_scenarios():
    # fixed complexity fraction k/n = 0.1
    vals = [epsilon_bar(n, n // 10, 1e-4) for n in (50, 100, 200, 400)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_epsilon_bar_residual_small_at_root():
    for n_a, k in ((50, 2), (50, 18), (100, 2), (500, 30)):
        t_root = 1.0 - epsilon_bar(n_a, k, 1e-4)
        gap = _make_residual(n_a, k, 1e-4)(t_root)
        assert abs(gap) < 1e-10


def test_residual_of_an_array_equals_its_scalar_calls():
    # epsilon_bar brackets the root on blocks of the grid; brentq calls it per point
    t = np.concatenate([np.geomspace(1e-16, 1e-2, 30), np.linspace(1e-2, 1.0 - 1e-12, 40)])
    for n_a, k, beta in ((2, 0, 0.5), (50, 2, 1e-4), (500, 30, 1e-2), (5000, 4, 1e-4)):
        log_gap = _make_residual(n_a, k, beta)
        scalar = np.array([log_gap(x) for x in t])
        assert np.array_equal(log_gap(t).view(np.int64), scalar.view(np.int64))


#: epsilon_bar's bracketing grid, restated
_EPS_GRID = np.unique(np.concatenate([
    np.geomspace(1e-16, 1e-2, 60),
    np.linspace(1e-2, 1.0 - 1e-12, 220),
    1.0 - np.geomspace(1e-12, 0.5, 60),
]))


@pytest.mark.parametrize("n_a", [7, 50, 5000])
def test_epsilon_bar_grid_blocks_equal_one_whole_grid_call(n_a, monkeypatch):
    # epsilon_bar brackets the root on its grid in blocks of at most
    # _TILE_FLOATS series terms (one point takes about 4 * n_a of them), up
    # to the block of the first crossing. The blocks' residuals are those of
    # one call on the whole grid, bit for bit, and so is the root
    blocks = []

    def recording(*args):
        log_gap = _make_residual(*args)

        def call(t):
            out = log_gap(t)
            if np.ndim(t):  # a block of the grid; Brent's method passes floats
                blocks.append((np.array(t), np.array(out)))
            return out

        return call

    monkeypatch.setattr(risk_bounds, "_make_residual", recording)
    step = max(1, core._TILE_FLOATS // (4 * n_a))
    for k in sorted({0, 1, n_a // 3, n_a - 1}):
        blocks.clear()
        eps = epsilon_bar(n_a, k, 1e-4)
        whole = _make_residual(n_a, k, 1e-4)(_EPS_GRID)
        i = np.flatnonzero((whole[:-1] < 0) & (whole[1:] >= 0))[0]
        # the blocks cover the grid up to the first crossing's block
        assert [t.size for t, _ in blocks[:-1]] == [step] * (len(blocks) - 1)
        seen = np.concatenate([t for t, _ in blocks])
        assert seen.tobytes() == _EPS_GRID[: seen.size].tobytes()
        assert i + 1 < seen.size <= i + 1 + step
        assert np.concatenate([v for _, v in blocks]).tobytes() == whole[: seen.size].tobytes()
        root = risk_bounds._brentq(
            _make_residual(n_a, k, 1e-4), _EPS_GRID[i], _EPS_GRID[i + 1], **BRENT_TOL
        )
        assert eps == 1.0 - root


def test_epsilon_bar_matches_high_precision_oracle():
    # exact-coefficient evaluation with mpmath for a small instance
    mpmath = pytest.importorskip("mpmath")
    from math import comb

    n_a, k, beta = 12, 3, 1e-3
    mpmath.mp.dps = 60

    def poly(t):
        t = mpmath.mpf(t)
        lead = comb(n_a, k) * t ** (n_a - k)
        mid = sum(comb(i, k) * t ** (i - k) for i in range(k, n_a))
        tail = sum(comb(i, k) * t ** (i - k) for i in range(n_a + 1, 4 * n_a + 1))
        return lead - beta / (2 * n_a) * mid - beta / (6 * n_a) * tail

    root = mpmath.findroot(poly, 0.3)
    assert epsilon_bar(n_a, k, beta) == pytest.approx(float(1 - root), abs=1e-10)


# ---------------------------------------------------------------------------
# support scenarios and containment
# ---------------------------------------------------------------------------


def test_support_empty_when_optimum_interior():
    spec = ProblemSpec(
        objective=lambda th: th[..., 0] ** 2,
        requirements=[lambda th, a, e: a[..., 0] - th[..., 0] - 50.0 + 0.0 * e[..., 0]],
        design_bounds=[[-1.0, 1.0]],
        m_a=1,
        m_e=1,
    )
    data = ScenarioData(np.arange(5.0)[:, None], np.zeros((2, 1)))

    def solver(d):
        return solve_risk_agnostic_local(spec, d, AlphaConfig.uniform(1), FAST)

    assert support_scenarios(solver, data).size == 0


def test_support_of_enclosing_circle_at_most_three(circle_spec):
    rng = np.random.default_rng(5)
    data = ScenarioData(circle.sample_aleatory(10, rng), np.zeros((1, 3)))

    def solver(d):
        return solve_risk_agnostic_local(circle_spec, d, AlphaConfig.uniform(1), FAST)

    sup = support_scenarios(solver, data)
    assert 1 <= sup.size <= 3  # at most m_theta for this convex-like program


# ---------------------------------------------------------------------------
# leave-one-out replay
# ---------------------------------------------------------------------------

#: the spec of the stand-in solver below: theta* = max(a)
_MAX_SPEC = ProblemSpec(
    objective=lambda th: th[..., 0],
    requirements=[lambda th, a, e: a[..., 0] - th[..., 0] + 0.0 * e[..., 0]],
    design_bounds=[[0.0, 1.0]],
    m_a=1,
    m_e=1,
)


def _replay_counts(caplog) -> tuple:
    """(replayed, n_a, re-solved indices) from support_scenarios' debug line."""
    pattern = r"(\d+) of (\d+) solves replayed; re-solved scenarios \[([\d, ]*)\]"
    found = [
        re.search(pattern, r.getMessage())
        for r in caplog.records
        if r.name == "scendo.risk_bounds" and r.levelno == logging.DEBUG
    ]
    found = [m for m in found if m]
    assert len(found) == 1
    replayed, n_a, resolved = found[0].groups()
    return int(replayed), int(n_a), [int(i) for i in resolved.split(",") if i.strip()]


def _assert_same_solve(taped, cold):
    assert taped.theta_star.tobytes() == cold.theta_star.tobytes()
    assert np.float64(taped.objective).tobytes() == np.float64(cold.objective).tobytes()
    assert taped.solver_status == cold.solver_status
    for key in ("nfev", "best_start", "n_starts"):
        assert taped.diagnostics[key] == cold.diagnostics[key]
    assert np.array(taped.diagnostics["viol_history"]).tobytes() == (
        np.array(cold.diagnostics["viol_history"]).tobytes()
    )
    suggested = [r.diagnostics.get("suggested_alpha_a") for r in (taped, cold)]
    assert (suggested[0] is None) == (suggested[1] is None)
    if suggested[0] is not None:
        assert suggested[0].tobytes() == suggested[1].tobytes()


def _taped_and_cold(solve, data, caplog):
    taped = []

    def solver(d):
        taped.append(solve(d))
        return taped[-1]

    with caplog.at_level(logging.DEBUG, logger="scendo.risk_bounds"):
        support = support_scenarios(solver, data)
    cold = [solve(data)] + [solve(data.drop_aleatory(i)) for i in range(data.n_a)]
    assert len(taped) == len(cold) == data.n_a + 1
    for t, c in zip(taped, cold):
        _assert_same_solve(t, c)
    return support, cold, _replay_counts(caplog)


def test_replayed_leave_one_out_solves_equal_cold_solves(circle_spec, caplog):
    # acceptance criterion c09's data and solver
    rng = np.random.default_rng(7)
    data = ScenarioData(circle.sample_aleatory(10, rng), circle.sample_epistemic(8, rng))
    cfg = AlphaConfig.uniform(1)

    def solve(d):
        return solve_risk_agnostic_local(circle_spec, d, cfg, FAST)

    support, cold, (replayed, n_a, resolved) = _taped_and_cold(solve, data, caplog)
    assert n_a == data.n_a and replayed + len(resolved) == n_a
    assert replayed >= 1 and resolved
    # the debug line also gives the rows each leave-one-out solve's replay
    # screens evaluated: every replayed solve screened its whole recording
    (line,) = [r.getMessage() for r in caplog.records if "rows screened per solve" in r.getMessage()]
    screened = [int(v) for v in re.search(r"rows screened per solve \[([\d, ]*)\]", line)[1].split(",")]
    assert len(screened) == n_a
    assert len({screened[i] for i in set(range(n_a)) - set(resolved)}) == 1 and max(screened) > 0
    assert set(support) <= set(resolved)  # a moved design was re-solved
    for i in set(range(n_a)) - set(resolved):
        assert cold[i + 1].theta_star.tobytes() == cold[0].theta_star.tobytes()


def test_replay_of_an_infeasible_base_solve_with_its_feasibility_seed(caplog):
    # scenario 0 lies beyond the design box: every program is infeasible
    # until it is left out, and each infeasible solve runs the seed NLP too
    data = ScenarioData(np.array([[1.5], [0.6], [0.2], [0.9], [0.4]]), np.zeros((2, 1)))
    cfg = AlphaConfig.uniform(1)
    opts = nlp.NlpOptions(seed=0, n_starts=2, max_inner=60)

    def solve(d):
        return solve_risk_agnostic_local(_MAX_SPEC, d, cfg, opts)

    support, cold, (replayed, n_a, resolved) = _taped_and_cold(solve, data, caplog)
    assert cold[0].solver_status == "infeasible"
    assert "suggested_alpha_a" in cold[0].diagnostics
    assert 0 in resolved and 0 in support
    assert len(resolved) + replayed == n_a


def test_risk_averse_support_set_equals_a_cold_loop_with_no_replay(circle_spec, caplog):
    # its slack per scenario changes the NLP's dimension with n_a
    rng = np.random.default_rng(4)
    data = ScenarioData(circle.sample_aleatory(5, rng), circle.sample_epistemic(3, rng))
    cfg = AlphaConfig.uniform(1, rho=1e6)
    opts = nlp.NlpOptions(seed=0, n_starts=2, max_inner=60)

    def solve(d):
        return solve_risk_averse_local(circle_spec, d, cfg, opts)

    support, cold, (replayed, n_a, resolved) = _taped_and_cold(solve, data, caplog)
    base = cold[0].theta_star
    moved = [i for i in range(n_a) if np.max(np.abs(cold[i + 1].theta_star - base)) > 1e-4]
    assert support.tolist() == moved
    assert replayed == 0 and resolved == list(range(n_a))


def test_replay_sets_on_the_certify_data_are_pinned(circle_spec, caplog):
    # the certify benchmark's training data in generated order and its solver
    data = circle.generate_dataset(12, 10, seed=7)
    opts = nlp.NlpOptions(seed=0, n_starts=4, max_inner=150)

    def solver(d):
        return solve_risk_agnostic_local(circle_spec, d, AlphaConfig.uniform(1), opts)

    with caplog.at_level(logging.DEBUG, logger="scendo.risk_bounds"):
        support = support_scenarios(solver, data)
    assert _replay_counts(caplog) == (8, 12, [1, 3, 4, 11])
    assert support.tolist() == [1, 3]


def _counted_solver(calls: list):
    """Risk-agnostic solver of the theta* = max(a) program that counts the
    constraint rows it evaluates."""
    def requirement(th, a, e):
        calls.append(int(np.prod(np.shape(th)[:-1])))
        return a[..., 0] - th[..., 0] + 0.0 * e[..., 0]

    spec = ProblemSpec(
        objective=_MAX_SPEC.objective, requirements=[requirement],
        design_bounds=[[0.0, 1.0]], m_a=1, m_e=1,
    )
    opts = nlp.NlpOptions(seed=0, n_starts=2, max_inner=60)
    return lambda d: solve_risk_agnostic_local(spec, d, AlphaConfig.uniform(1), opts)


def test_no_tape_is_active_after_support_scenarios_returns_or_raises():
    data = ScenarioData(np.array([[0.3], [0.8], [0.5], [0.1]]), np.zeros((2, 1)))
    calls = []
    solver = _counted_solver(calls)
    solver(data)
    cold_calls = list(calls)

    def check_cold():
        assert nlp._TAPE.get() is None
        calls.clear()
        solver(data)
        assert calls == cold_calls

    assert support_scenarios(solver, data).tolist() == [1]
    check_cold()

    def failing(d):
        if d.n_a < data.n_a and not np.any(d.aleatory == data.aleatory[2]):
            raise ArithmeticError("no design on scenario 2's data")
        return solver(d)

    cause = "scenario 2: ArithmeticError: no design on scenario 2's data"
    with pytest.raises(RuntimeError, match=cause):
        support_scenarios(failing, data)
    check_cold()


def test_leave_one_out_type_error_propagates_unchanged():
    data = ScenarioData(np.array([[0.3], [0.8], [0.5], [0.1]]), np.zeros((2, 1)))
    solver = _counted_solver([])
    cause = TypeError("requirement takes 3 arguments")

    def broken(d):
        if d.n_a < data.n_a:
            raise cause
        return solver(d)

    with pytest.raises(TypeError) as info:
        support_scenarios(broken, data)
    assert info.value is cause
    assert nlp._TAPE.get() is None


def test_too_few_scenarios_to_leave_one_out_raise_input_error_before_solving():
    data = ScenarioData(np.array([[0.3], [0.8]]), np.zeros((1, 1)))
    calls = []
    with pytest.raises(InputError, match="needs at least 3 aleatory scenarios .* got 2"):
        support_scenarios(lambda d: calls.append(d) or np.array([d.aleatory.max()]), data)
    assert calls == []


def test_leave_one_out_input_error_stays_an_input_error_naming_the_scenario():
    data = ScenarioData(np.array([[0.3], [0.8], [0.5]]), np.zeros((1, 1)))

    def solver(d):
        if d.n_a < data.n_a and not np.any(d.aleatory == data.aleatory[1]):
            raise InputError("no design on these scenarios")
        return np.array([d.aleatory.max()])

    with pytest.raises(InputError, match="^leave-one-out solve for scenario 1: no design on these"):
        support_scenarios(solver, data)


def _status_solver(data, statuses):
    """theta* = max(a) with a solver_status per left-out index."""

    def solver(d):
        missing = [i for i in range(data.n_a) if not np.any(d.aleatory == data.aleatory[i])]
        status = statuses.get(missing[0], "converged") if missing else "converged"
        return SimpleNamespace(theta_star=np.array([d.aleatory.max()]), solver_status=status)

    return solver


def test_unconverged_leave_one_out_solves_are_named_in_a_warning(caplog):
    data = ScenarioData(np.array([[1.0], [3.0], [2.0], [2.9]]), np.zeros((1, 1)))
    solver = _status_solver(data, {0: "max-iter", 2: "infeasible"})
    with caplog.at_level(logging.WARNING, logger="scendo.risk_bounds"):
        assert support_scenarios(solver, data).tolist() == [1]
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "0 (max-iter)" in warnings[0] and "2 (infeasible)" in warnings[0]
    assert "1 (" not in warnings[0] and "3 (" not in warnings[0]

    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="scendo.risk_bounds"):
        support_scenarios(_status_solver(data, {}), data)
    assert not [r for r in caplog.records if r.levelno == logging.WARNING]


def test_debug_line_counts_replays_and_names_resolved_scenarios(caplog):
    # a solver without NLPs replays nothing: every scenario is re-solved
    data = ScenarioData(np.array([[1.0], [3.0], [2.0]]), np.zeros((1, 1)))
    with caplog.at_level(logging.DEBUG, logger="scendo.risk_bounds"):
        support_scenarios(_status_solver(data, {}), data)
    assert _replay_counts(caplog) == (0, 3, [0, 1, 2])


def test_containment_sampling_verdicts(circle_spec):
    eset = circle.epistemic_box()
    theta = np.array([0.5, 0.3, 2.5])
    inside = set_containment_sampling(
        circle_spec, theta, np.array([0.5, 0.3]), eset, 2000,
        rng=np.random.default_rng(0),
    )
    assert not inside.violated
    assert inside.failure_bound == pytest.approx(1 - 0.05 ** (1 / 2000), abs=1e-12)
    outside = set_containment_sampling(
        circle_spec, theta, np.array([4.0, 3.0]), eset, 50,
        rng=np.random.default_rng(0),
    )
    assert outside.violated


def test_containment_opt_requirement_independent_of_e():
    spec = ProblemSpec(
        objective=lambda th: th[..., 0],
        requirements=[lambda th, a, e: a[..., 0] - th[..., 0] + 0.0 * e[..., 0]],
        design_bounds=[[0.0, 1.0]],
        m_a=1,
        m_e=1,
    )
    eset = EpistemicSet.from_box(np.array([0.0]), np.array([0.5]))
    res = set_containment_opt(spec, np.array([1.0]), np.array([0.5]), eset)
    assert not res.violated
    assert res.radius == np.inf


def test_containment_opt_center_violation_shortcut(circle_spec):
    eset = circle.epistemic_box()
    res = set_containment_opt(circle_spec, np.array([0.0, 0.0, 1.0]), np.array([5.0, 5.0]), eset)
    assert res.violated
    assert res.radius == 0.0


def test_containment_opt_contained_point_has_no_nearest_point(circle_spec):
    # scenario 3 of the certify benchmark at row order 0: contained, though
    # a nearest-point search alone reported a finite radius 1.2511 for it
    theta = np.array([float.fromhex(h) for h in (
        "0x1.038f36b88dcd8p-1", "0x1.f1e1a1b45dee1p-2", "0x1.9bd700dee5f6ap+1")])
    a = np.array([float.fromhex("-0x1.d77bf28b367b0p+0"), float.fromhex("-0x1.e177757c5cfd8p-3")])
    res = set_containment_opt(circle_spec, theta, a, circle.epistemic_box())
    assert not res.violated
    assert res.radius == np.inf
    assert res.e_star is None
    assert -1.0 < res.margin < 0.0


def test_containment_margins(circle_spec):
    eset = circle.epistemic_box()
    theta, a = np.array([0.5, 0.3, 2.5]), np.array([0.5, 0.3])
    # sampling: the largest probed value
    samp = set_containment_sampling(circle_spec, theta, a, eset, 300, rng=np.random.default_rng(4))
    probes = eset.sample(300, np.random.default_rng(4))
    assert samp.margin == float(circle_spec.requirements[0](theta, a, probes).max())
    # the center shortcut: the center's value
    bad = np.array([0.0, 0.0, 1.0])
    far = np.array([5.0, 5.0])
    hit = set_containment_opt(circle_spec, bad, far, eset)
    assert hit.margin == float(circle_spec.requirements[0](bad, far, eset.center))
    # the maximisation: at least the center's value and the probes' largest
    opt = set_containment_opt(circle_spec, theta, a, eset)
    assert not opt.violated and opt.margin <= 0.0
    assert opt.margin >= float(circle_spec.requirements[0](theta, a, eset.center))
    assert opt.margin >= samp.margin - 1e-9


def _assert_violating_point(spec, theta, a, eset, o):
    """A violated optimization result reports a failing point of the set and its norm."""
    assert eset.contains(o.e_star)
    assert o.radius <= eset.radius
    assert o.radius == eset.norm(o.e_star)
    assert float(r_max(spec, theta, a, o.e_star)) > 0.0


def test_containment_cross_oracle_sample(circle_spec):
    rng = np.random.default_rng(11)
    eset = circle.epistemic_box()
    agree = 0
    for _ in range(20):
        theta = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(1, 4)])
        a = circle.sample_aleatory(1, rng)[0]
        s = set_containment_sampling(circle_spec, theta, a, eset, 2000, rng=rng)
        o = set_containment_opt(circle_spec, theta, a, eset)
        agree += int(s.violated == o.violated)
        if o.violated:
            _assert_violating_point(circle_spec, theta, a, eset, o)
    assert agree >= 19


def test_containment_ellipsoid_cross_oracle_sample(circle_spec):
    rng = np.random.default_rng(23)
    box = circle.epistemic_box()
    eset = EpistemicSet(center=box.center, radius=1.0, kind="ellipsoid", scale=box.scale)
    agree, violated = 0, 0
    for _ in range(20):
        theta = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(1, 4)])
        a = circle.sample_aleatory(1, rng)[0]
        s = set_containment_sampling(circle_spec, theta, a, eset, 2000, rng=rng)
        o = set_containment_opt(circle_spec, theta, a, eset)
        agree += int(s.violated == o.violated)
        violated += int(o.violated)
        if o.violated:
            _assert_violating_point(circle_spec, theta, a, eset, o)
        else:
            assert o.radius == np.inf and o.e_star is None and o.margin <= 0.0
    assert agree >= 19
    # both verdicts occur among the cases
    assert 0 < violated < 20


def test_containment_opt_reports_the_maximiser_pulled_into_the_set(circle_spec):
    # case 41 of c08's draws on the ellipsoid: the maximiser's radial image
    # rounds to set norm 1 + 2**-52, one ulp outside the set
    theta = np.array([float.fromhex(h) for h in (
        "-0x1.2dc4922e0195dp-1", "-0x1.15e470c36bda9p+0", "0x1.e14756defad7dp+1")])
    a = np.array([float.fromhex("0x1.435dff1017ee9p+1"), float.fromhex("-0x1.41e2d2945ab39p-2")])
    box = circle.epistemic_box()
    eset = EpistemicSet(center=box.center, radius=1.0, kind="ellipsoid", scale=box.scale)
    o = set_containment_opt(circle_spec, theta, a, eset)
    assert o.violated
    _assert_violating_point(circle_spec, theta, a, eset, o)
    assert float(r_max(circle_spec, theta, a, o.e_star)) == pytest.approx(o.margin, rel=1e-12)


def test_nan_requirement_values_are_not_read_as_contained():
    # NaN on 95% of the box and -1 elsewhere: no probe is positive, but the
    # NaN probes prove nothing either
    spec = ProblemSpec(
        objective=lambda th: th[..., 0],
        requirements=[lambda th, a, e: np.where(e[..., 0] < 0.95, np.nan, -1.0) + 0.0 * th[..., 0]],
        design_bounds=[[0.0, 1.0]],
        m_a=1,
        m_e=1,
    )
    eset = EpistemicSet.from_box(np.array([0.0]), np.array([1.0]))
    theta, a = np.array([0.5]), np.array([0.0])
    with pytest.raises(ArithmeticError, match=r"NaN at \d+ of 300 probes"):
        set_containment_sampling(spec, theta, a, eset, 300, rng=np.random.default_rng(0))
    with pytest.raises(ArithmeticError, match="non-finite merit value"):
        set_containment_opt(spec, theta, a, eset)


def test_containment_opt_failure_propagates_without_a_sampling_verdict():
    # +inf on e0 > 0.6: the maximization meets a non-finite merit and
    # raises, where a sampling test would report a violation
    spec = ProblemSpec(
        objective=lambda th: th[..., 0],
        requirements=[lambda th, a, e: np.where(e[..., 0] > 0.6, np.inf, -1.0) + 0.0 * th[..., 0]],
        design_bounds=[[0.0, 1.0]],
        m_a=1,
        m_e=1,
    )
    eset = EpistemicSet.from_box(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ArithmeticError, match="non-finite merit value"):
        set_containment_opt(spec, np.array([0.5]), np.array([0.0]), eset)


# ---------------------------------------------------------------------------
# set complexity and reports
# ---------------------------------------------------------------------------


def test_set_complexity_matches_enumeration():
    spec = ProblemSpec(
        objective=lambda th: th[..., 0],
        requirements=[lambda th, a, e: a[..., 0] + e[..., 0] - th[..., 0]],
        design_bounds=[[0.0, 20.0]],
        m_a=1,
        m_e=1,
    )
    a_vals = np.array([1.0, 3.0, 2.0, 2.9])
    data = ScenarioData(a_vals[:, None], np.array([[0.0], [0.5]]))
    eset = EpistemicSet.from_box(np.array([0.0]), np.array([0.5]))

    def solver(d):
        # deterministic stand-in optimum: theta* = max(a) + max training e
        return np.array([float(d.aleatory.max() + d.epistemic.max())])

    theta_star = solver(data)
    rep = risk_bound(
        spec, solver, data, theta_star, eset, containment="sampling", n_probe=500, seed=1
    )
    # enumeration: dropping i changes theta iff i is the unique argmax;
    # scenario i violates iff a_i + 0.5 > theta*
    exp_support = {int(np.argmax(a_vals))}
    exp_viol = {i for i, a in enumerate(a_vals) if a + 0.5 > theta_star[0]}
    assert rep.n_support == len(exp_support)
    assert rep.n_violation == len(exp_viol)
    assert rep.set_complexity == len(exp_support | exp_viol)
    assert rep.containment_test == "sampling"


def test_set_complexity_bounds_and_union(circle_spec):
    rng = np.random.default_rng(7)
    data = ScenarioData(circle.sample_aleatory(8, rng), circle.sample_epistemic(6, rng))
    cfg = AlphaConfig.uniform(1)

    def solver(d):
        return solve_risk_agnostic_local(circle_spec, d, cfg, FAST)

    theta = solver(data).theta_star
    rep = risk_bound(
        circle_spec, solver, data, theta, circle.epistemic_box(), containment="sampling",
        n_probe=400, seed=3,
    )
    n_s, n_v, s = rep.n_support, rep.n_violation, rep.set_complexity
    assert max(n_s, n_v) <= s <= n_s + n_v
    assert s <= data.n_a


@pytest.mark.parametrize(
    "bad",
    [{"beta": 0.0}, {"containment": "bogus"}, {"n_probe": 0}, {"n_probe": -5},
     {"n_probe": 2.0}, {"n_probe": True}, {"containment": "sampling", "n_probe": 0},
     {"seed": -1}, {"seed": 1.5}, {"seed": False}],
    ids=["beta", "containment", "probe0", "probe-5", "probe-float", "probe-bool",
         "probe0-sampling", "seed-1", "seed-float", "seed-bool"],
)
def test_risk_bound_checks_its_inputs_before_any_work(bad):
    # n_probe is checked under the optimization test too ("auto" picks it
    # here), which never draws probes
    def never(*args):
        pytest.fail("risk_bound did work before checking its inputs")

    spec = ProblemSpec(objective=never, requirements=[never], design_bounds=[[0.0, 1.0]],
                       m_a=1, m_e=1)
    data = ScenarioData(np.zeros((4, 1)), np.zeros((2, 1)))
    eset = EpistemicSet.from_box(np.array([0.0]), np.array([1.0]))
    with pytest.raises(InputError):
        risk_bound(spec, never, data, np.array([0.5]), eset, **bad)


def test_risk_bound_rejects_data_of_other_widths_before_any_work():
    def never(*args):
        pytest.fail("risk_bound did work before checking the data widths")

    spec = ProblemSpec(objective=never, requirements=[never], design_bounds=[[0.0, 1.0]],
                       m_a=1, m_e=1)
    data = ScenarioData(np.zeros((4, 2)), np.zeros((2, 1)))
    eset = EpistemicSet.from_box(np.array([0.0]), np.array([1.0]))
    with pytest.raises(InputError, match="aleatory has 2 columns, the problem needs 1"):
        risk_bound(spec, never, data, np.array([0.5]), eset)


def test_risk_bound_rejects_too_few_scenarios_before_any_work(monkeypatch):
    def never(*args, **kwargs):
        pytest.fail("risk_bound did work before checking the scenario count")

    monkeypatch.setattr(risk_bounds, "set_containment_opt", never)
    monkeypatch.setattr(risk_bounds, "set_containment_sampling", never)
    spec = ProblemSpec(objective=never, requirements=[never], design_bounds=[[0.0, 1.0]],
                       m_a=1, m_e=1)
    data = ScenarioData(np.zeros((2, 1)), np.zeros((2, 1)))
    eset = EpistemicSet.from_box(np.array([0.0]), np.array([1.0]))
    for containment in ("optimization", "sampling"):
        with pytest.raises(InputError, match="at least 3 aleatory scenarios"):
            risk_bound(spec, never, data, np.array([0.5]), eset, containment=containment)


def test_risk_bound_debug_line_lists_flags_and_margins(caplog):
    spec = ProblemSpec(
        objective=lambda th: th[..., 0],
        requirements=[lambda th, a, e: a[..., 0] + e[..., 0] - th[..., 0]],
        design_bounds=[[0.0, 20.0]],
        m_a=1,
        m_e=1,
    )
    data = ScenarioData(np.array([[1.0], [3.0], [2.0]]), np.zeros((1, 1)))
    eset = EpistemicSet.from_box(np.array([0.0]), np.array([0.5]))
    with caplog.at_level(logging.DEBUG, logger="scendo.risk_bounds"):
        rep = risk_bound(spec, lambda d: np.array([2.2]), data, np.array([2.2]), eset,
                         containment="optimization")
    line = next(r.getMessage() for r in caplog.records if r.getMessage().startswith("containment"))
    # r = a + e - 2.2 on e in [0, 0.5]: scenario 0 peaks at e = 0.5, and the
    # others already fail at the center e = 0.25, whose value is their margin
    pairs = re.findall(r"(\d+): (True|False), (-?[\d.e+-]+)", line)
    assert [(int(i), v == "True") for i, v, _ in pairs] == [(0, False), (1, True), (2, True)]
    assert [float(m) for _, _, m in pairs] == pytest.approx([-0.7, 1.05, 0.05], abs=1e-6)
    assert rep.n_violation == 2


def test_moment_programs_fully_supported(circle_spec):
    rng = np.random.default_rng(8)
    data = ScenarioData(circle.sample_aleatory(6, rng), circle.sample_epistemic(4, rng))
    report = risk_bound(
        circle_spec, solver=None, data=data, theta_star=np.array([0.4, 0.2, 9.0]),
        eset=circle.epistemic_box(), beta=1e-4, containment="sampling",
        moment=True, n_probe=200,
    )
    assert report.n_support == data.n_a
    assert report.set_complexity == data.n_a
    assert report.epsilon_bar == 1.0
    # no re-solve, so no distance to report
    assert report.design_distance is None
    assert report.to_dict()["design_distance"] is None


def test_risk_bound_names_the_design_it_certifies(circle_spec, caplog):
    rng = np.random.default_rng(7)
    data = ScenarioData(circle.sample_aleatory(6, rng), circle.sample_epistemic(4, rng))
    cfg = AlphaConfig.uniform(1)

    def solver(d):
        return solve_risk_agnostic_local(circle_spec, d, cfg, FAST)

    theta = solver(data).theta_star
    kwargs = dict(eset=circle.epistemic_box(), beta=1e-4, containment="sampling", n_probe=200)
    same = risk_bound(circle_spec, solver, data, theta, **kwargs)
    assert same.design_distance == 0.0
    assert same.to_dict()["validity"] == "valid"

    moved = theta + np.array([0.0, 0.01, 0.0])
    with caplog.at_level(logging.WARNING, logger="scendo.risk_bounds"):
        report = risk_bound(circle_spec, solver, data, moved, **kwargs)
    assert report.design_distance == pytest.approx(0.01, rel=1e-9)
    assert report.to_dict()["validity"] == "not-reproduced"
    assert report.to_dict()["design_distance"] == report.design_distance
    assert any("lies 0.01 (max norm)" in r.getMessage() for r in caplog.records)
    # the leave-one-out designs are measured against the same re-solve
    assert report.n_support == same.n_support


def test_risk_bound_report_serialization():
    rep = RiskBoundReport(2, 3, 4, 0.5, 1e-4, "sampling", valid=False)
    d = rep.to_dict()
    assert d["validity"] == "not-valid-non-iid"
    assert d["s_E"] == 4
    far = RiskBoundReport(2, 3, 4, 0.5, 1e-4, "sampling", design_distance=2e-4)
    assert far.to_dict()["validity"] == "not-reproduced"
    near = RiskBoundReport(2, 3, 4, 0.5, 1e-4, "sampling", design_distance=1e-4)
    assert near.to_dict()["validity"] == "valid"
