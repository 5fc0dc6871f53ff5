import logging
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import quantile_reference, welzl_circle
from scendo import circle, nlp, programs
from scendo.core import AlphaConfig, InputError, ProblemSpec, ScenarioData, SolveResult
from scendo.ecdf import TIE_EPS, quantile_of
from scendo.programs import (
    MOMENT_TAGS,
    FormulationTag,
    _local_outliers,
    requirement_values,
    solve,
    solve_feasibility_seed,
    solve_moment_risk_agnostic,
    solve_moment_risk_averse,
    solve_risk_agnostic_global,
    solve_risk_agnostic_local,
    solve_risk_averse_global,
    solve_risk_averse_local,
)

OPTS = nlp.NlpOptions(seed=0, n_starts=4, max_inner=150)


def _linear_toy():
    """J = t1 + t2, requirement a1 - t1 - t2*e1 <= 0 on [0,3]^2."""
    spec = ProblemSpec(
        objective=lambda th: th[..., 0] + th[..., 1],
        requirements=[lambda th, a, e: a[..., 0] - th[..., 0] - th[..., 1] * e[..., 0]],
        design_bounds=[[0.0, 3.0], [0.0, 3.0]],
        m_a=1,
        m_e=1,
    )
    data = ScenarioData(np.array([[1.0], [2.0]]), np.array([[0.5], [1.0]]))
    return spec, data


def _table_spec(table: np.ndarray) -> ProblemSpec:
    def req(th, a, e, T=table):
        return T[a[..., 0].astype(int), e[..., 0].astype(int)] + 0.0 * th[..., 0]

    return ProblemSpec(
        objective=lambda th: th[..., 0],
        requirements=[req],
        design_bounds=[[0.0, 1.0]],
        m_a=1,
        m_e=1,
    )


def test_risk_averse_local_high_rho_zero_slack(circle_spec, small_data):
    cfg = AlphaConfig.uniform(1, rho=1e6)
    res = solve_risk_averse_local(circle_spec, small_data, cfg, OPTS)
    assert res.solver_status == "converged"
    assert np.all(res.xi_star <= 1e-6)
    # every inlier constraint holds at the solution
    vals = requirement_values(circle_spec, small_data, res.theta_star)
    assert float(vals.max()) <= 1e-5
    assert res.aleatory_outliers.size == 0


def test_risk_averse_local_single_epistemic_scenario(circle_spec, nominal_only_data):
    # n_e = 1: the quantile constraint degenerates to the raw requirement
    cfg = AlphaConfig.uniform(1, rho=1e6)
    res = solve_risk_averse_local(circle_spec, nominal_only_data, cfg, OPTS)
    vals = requirement_values(circle_spec, nominal_only_data, res.theta_star)
    assert vals.shape == (1, 30, 1)
    assert float(vals.max()) <= 1e-5


def test_deterministic_reduction_matches_welzl(circle_spec, nominal_only_data):
    cfg = AlphaConfig.uniform(1, rho=1e6)
    res = solve_risk_averse_local(circle_spec, nominal_only_data, cfg, OPTS)
    _, radius = welzl_circle(nominal_only_data.aleatory)
    oracle_area = np.pi * radius**2
    assert abs(res.objective - oracle_area) / oracle_area < 1e-3


def test_remark1_equivalence_at_zero_epistemic_fraction(circle_spec, small_data):
    cfg = AlphaConfig.uniform(1, alpha_e=0.0, rho=1e6)
    loc = solve_risk_averse_local(circle_spec, small_data, cfg, OPTS)
    glob = solve_risk_averse_global(circle_spec, small_data, cfg, OPTS)
    assert abs(loc.objective - glob.objective) <= 1e-4


def test_risk_agnostic_local_matches_grid_oracle():
    spec, data = _linear_toy()
    cfg = AlphaConfig.uniform(1)
    res = solve_risk_agnostic_local(spec, data, cfg, OPTS)
    # exhaustive 2-D grid search oracle
    grid = np.linspace(0.0, 3.0, 301)
    t1, t2 = np.meshgrid(grid, grid, indexing="ij")
    feas = np.ones_like(t1, dtype=bool)
    for a in data.aleatory[:, 0]:
        worst = a - t1 - t2 * data.epistemic[:, 0].min()
        feas &= worst <= 0
    best = np.min((t1 + t2)[feas])
    assert best == pytest.approx(2.0, abs=1e-9)
    assert res.objective == pytest.approx(best, abs=2e-3)
    assert res.xi_star is None and res.lambda_star is None


def test_risk_agnostic_global_zero_fractions_is_robust(circle_spec, small_data):
    cfg = AlphaConfig.uniform(1)
    res = solve_risk_agnostic_global(circle_spec, small_data, cfg, OPTS)
    assert res.solver_status == "converged"
    vals = requirement_values(circle_spec, small_data, res.theta_star)
    assert float(vals.max()) <= 1e-5  # all training pairs satisfied


def test_risk_agnostic_relaxation_lowers_objective(circle_spec, small_data):
    n_a = small_data.n_a
    objectives = []
    for frac in (0.0, 1.0 / (n_a - 1), 2.0 / (n_a - 1)):
        cfg = AlphaConfig(np.array([frac]), np.array([0.0]))
        res = solve_risk_agnostic_local(circle_spec, small_data, cfg, OPTS)
        objectives.append(res.objective)
    assert objectives[1] <= objectives[0] + 1e-3
    assert objectives[2] <= objectives[1] + 1e-3


def test_outlier_counts_respect_fractions(circle_spec, small_data):
    n_a, n_e = small_data.n_a, small_data.n_e
    alpha_a, alpha_e = 2.0 / (n_a - 1), 2.0 / (n_e - 1)
    cfg = AlphaConfig(np.array([alpha_a]), np.array([alpha_e]))
    res = solve_risk_agnostic_local(circle_spec, small_data, cfg, OPTS)
    values = requirement_values(circle_spec, small_data, res.theta_star)
    o_a, o_e = _local_outliers(values, cfg.alpha_e)
    assert np.array_equal(o_a, res.aleatory_outliers)
    cap = int(np.floor(n_e * alpha_e))
    inliers = np.setdiff1d(np.arange(n_a), o_a)
    for i in inliers:
        assert o_e[i].size <= cap


def test_feasibility_seed_trivially_feasible_instance(circle_spec, small_data):
    cfg = AlphaConfig.uniform(1)
    res = solve_feasibility_seed(circle_spec, small_data, cfg, opts=OPTS)
    alpha = res.alpha_a_lower
    assert res.solver_status == "converged"
    assert alpha.shape == (1,)
    assert alpha[0] <= 1e-3  # the instance is feasible at alpha_a = 0
    assert res.objective == float(alpha[0])  # sum(alpha_a_lower)
    vals = requirement_values(circle_spec, small_data, res.theta_star)
    assert float(vals.max()) <= 1e-4


def test_feasibility_seed_contradictory_scenario():
    # one scenario unreachable by any theta: the smallest feasible fraction
    # sits just below the 1/(n_a - 1) quantile grid step
    spec = ProblemSpec(
        objective=lambda th: th[..., 0],
        requirements=[lambda th, a, e: a[..., 0] - th[..., 0] + 0.0 * e[..., 0]],
        design_bounds=[[0.0, 1.0]],
        m_a=1,
        m_e=1,
    )
    a_vals = np.array([0.5, 1000.0, 0.2, 0.1, 0.4])
    data = ScenarioData(a_vals[:, None], np.array([[0.0], [0.0]]))
    cfg = AlphaConfig.uniform(1)
    alpha = solve_feasibility_seed(spec, data, cfg, opts=OPTS).alpha_a_lower

    # enumeration oracle: scan theta and the fraction on fine grids
    alpha_grid = np.linspace(0.0, 1.0, 4001)
    best = np.inf
    for theta in np.linspace(0.0, 1.0, 101):
        n_vals = a_vals - theta
        feasible = [al for al in alpha_grid if quantile_reference(n_vals, 1 - al) <= 0]
        if feasible:
            best = min(best, feasible[0])
    assert 0.2 <= best <= 0.25 + 1e-9  # the grid-granularity region
    assert alpha[0] == pytest.approx(best, abs=5e-3)


def _unreachable_program():
    """1-D spec and data whose second scenario no design satisfies, so the
    risk-agnostic program at alpha_a = 0 is infeasible."""
    spec = ProblemSpec(
        objective=lambda th: th[..., 0],
        requirements=[lambda th, a, e: a[..., 0] - th[..., 0] + 0.0 * e[..., 0]],
        design_bounds=[[0.0, 1.0]],
        m_a=1,
        m_e=1,
    )
    return spec, ScenarioData(np.array([[0.5], [1000.0], [0.2], [0.1], [0.4]]), np.zeros((2, 1)))


def test_failed_alpha_suggestion_is_recorded(monkeypatch, caplog):
    spec, data = _unreachable_program()

    def broken_seed(*args, **kwargs):
        raise RuntimeError("seed solver exploded")

    monkeypatch.setattr(programs, "solve_feasibility_seed", broken_seed)
    with caplog.at_level(logging.WARNING, logger="scendo.programs"):
        res = solve_risk_agnostic_local(spec, data, AlphaConfig.uniform(1), OPTS)
    assert res.solver_status == "infeasible"
    assert res.diagnostics["alpha_suggestion_error"] == "RuntimeError: seed solver exploded"
    assert "suggested_alpha_a" not in res.diagnostics
    assert "RuntimeError: seed solver exploded" in caplog.text


def test_alpha_suggestion_lets_a_seed_type_error_through(monkeypatch):
    # a TypeError is a bug, not a numerical failure: it is not recorded
    spec, data = _unreachable_program()

    def broken_seed(*args, **kwargs):
        raise TypeError("seed got a bad argument")

    monkeypatch.setattr(programs, "solve_feasibility_seed", broken_seed)
    with pytest.raises(TypeError, match="^seed got a bad argument$"):
        solve_risk_agnostic_local(spec, data, AlphaConfig.uniform(1), OPTS)


def test_infeasible_moment_program_carries_the_suggestion():
    spec, data = _unreachable_program()

    def response(th, a, e):
        return th[..., 0] + a[..., 0] + 0.0 * e[..., 0]

    res = solve_moment_risk_agnostic(spec, data, AlphaConfig.uniform(1), response, OPTS)
    assert res.solver_status == "infeasible"
    assert res.diagnostics["suggested_alpha_a"][0] > 0.15


def test_risk_averse_global_survives_saturated_slacks(circle_spec):
    # a line search on this instance drives every slack to ~2.7e10, where the
    # smoothed sign fraction rounds to exactly 1.0; it must not reach the
    # weight rule's [0, 1) slot unclamped
    data = circle.generate_dataset(30, 20, seed=3)
    cfg = AlphaConfig(np.array([2 / 29]), np.array([2 / 19]))
    res = solve_risk_averse_global(circle_spec, data, cfg, nlp.NlpOptions(seed=0, n_starts=4))
    assert res.solver_status == "converged"
    assert np.all(np.isfinite(res.theta_star))


def test_moment_constant_response(circle_spec, small_data):
    res = solve_moment_risk_averse(
        circle_spec, small_data, AlphaConfig.uniform(1, rho=1e6),
        h=lambda th, a, e: 5.0 + 0.0 * th[..., 0] + 0.0 * a[..., 0] + 0.0 * e[..., 0],
        opts=OPTS,
    )
    assert res.lambda_star == pytest.approx(5.0, abs=1e-4)
    assert res.objective == res.lambda_star


def test_moment_zero_slack_mean_is_unweighted(circle_spec, small_data):
    cfg = AlphaConfig.uniform(1, rho=1e6)
    res = solve_moment_risk_averse(
        circle_spec, small_data, cfg, h=circle.circle_response, opts=OPTS
    )
    assert np.all(res.xi_star <= 1e-6)
    vals = circle.circle_response(
        res.theta_star, small_data.aleatory[:, None, :], small_data.epistemic[None, :, :]
    )
    unweighted = float(np.mean(quantile_of(vals, 1.0)))
    assert res.lambda_star == pytest.approx(unweighted, abs=1e-4)


def test_moment_agnostic_zero_fraction_matches_averse(circle_spec):
    data = circle.generate_dataset(10, 8, seed=13)
    cfg = AlphaConfig.uniform(1, rho=1e6)
    averse = solve_moment_risk_averse(circle_spec, data, cfg, circle.circle_response, OPTS)
    agnostic = solve_moment_risk_agnostic(circle_spec, data, cfg, circle.circle_response, OPTS)
    assert agnostic.lambda_star == pytest.approx(averse.lambda_star, rel=5e-3)


def test_moment_agnostic_tiny_dataset():
    # n_a = 2 keeps the stacked sequence tiny but well defined
    data = ScenarioData(np.array([[0.0, 0.0], [2.0, 1.0]]), np.zeros((2, 3)))
    spec = circle.make_spec()
    res = solve_moment_risk_agnostic(
        spec, data, AlphaConfig.uniform(1), circle.circle_response, OPTS
    )
    assert res.solver_status in ("converged", "max-iter")
    # the enclosing radius of two points is half their distance
    assert res.theta_star[2] == pytest.approx(np.sqrt(5) / 2, abs=1e-2)


def test_outlier_sets_all_negative_empty(circle_spec, small_data):
    cfg = AlphaConfig.uniform(1)
    huge = np.array([0.5, 0.3, 11.9])  # encloses everything
    o_a, o_e = _local_outliers(requirement_values(circle_spec, small_data, huge), cfg.alpha_e)
    assert o_a.size == 0
    assert all(v.size == 0 for v in o_e)


def test_outlier_sets_hand_table():
    table = np.array([[-1.0, 0.5, 2.0], [-3.0, -2.0, -1.0], [1.0, 2.0, 3.0]])
    spec = _table_spec(table)
    data = ScenarioData(
        np.arange(3, dtype=float)[:, None], np.arange(3, dtype=float)[:, None]
    )
    cfg = AlphaConfig(np.array([0.0]), np.array([0.5]))
    result = SolveResult(
        theta_star=np.array([0.0]), objective=0.0, solver_status="converged"
    )
    values = requirement_values(spec, data, result.theta_star)
    o_a, o_e = _local_outliers(values, cfg.alpha_e)
    # independent enumeration with the reference quantile
    exp_a, exp_e = [], []
    for i in range(3):
        q = quantile_reference(table[i], 0.5)
        exp_e.append(np.flatnonzero(table[i] > q))
        if q > 0:
            exp_a.append(i)
    assert np.array_equal(o_a, exp_a)
    for i in range(3):
        assert np.array_equal(o_e[i], exp_e[i])


def test_feasible_set_containment_under_relaxation(circle_spec, small_data):
    # any design feasible at alpha_e = 0 stays feasible at alpha_e > 0
    rng = np.random.default_rng(8)
    thetas = np.column_stack(
        [rng.uniform(-2, 2, 40), rng.uniform(-2, 2, 40), rng.uniform(0, 8, 40)]
    )
    vals = requirement_values(circle_spec, small_data, thetas)  # (40, 1, n_a, n_e)
    tight = quantile_of(quantile_of(vals, 1.0), 1.0)[:, 0]
    relaxed = quantile_of(quantile_of(vals, 1.0 - 0.2), 1.0 - 0.1)[:, 0]
    feasible_tight = tight <= 0
    assert feasible_tight.any()
    assert np.all(relaxed[feasible_tight] <= 0)


def test_pseudo_distribution_helper(circle_spec, small_data):
    # the pseudo-distribution of scenario 3: its values over the epistemic set
    values = requirement_values(circle_spec, small_data, np.array([0.0, 0.0, 2.0]))[..., 0, :, :][3]
    assert values.shape == (small_data.n_e,)
    direct = circle.circle_requirement(
        np.array([0.0, 0.0, 2.0]), small_data.aleatory[3], small_data.epistemic
    )
    assert np.allclose(values, direct)


def _never(*args):
    pytest.fail("the program did work before checking its inputs")


#: a problem whose every callable fails the test when called
_NEVER_SPEC = ProblemSpec(objective=_never, requirements=[_never], design_bounds=[[0.0, 1.0]],
                          m_a=1, m_e=1)


@pytest.mark.parametrize("tag", list(FormulationTag), ids=lambda t: t.value)
@pytest.mark.parametrize(
    "widths,message",
    [((2, 1), "aleatory has 2 columns"), ((1, 3), "epistemic has 3 columns")],
    ids=["aleatory", "epistemic"],
)
def test_every_program_rejects_data_of_other_widths_before_any_solve(tag, widths, message):
    data = ScenarioData(
        np.zeros((4, widths[0])), np.zeros((3, widths[1])),
        testing_aleatory=np.zeros((5, widths[0])), testing_epistemic=np.zeros((2, widths[1])),
    )
    with pytest.raises(InputError, match=f"{message}, the problem needs 1; testing_"):
        solve(tag, _NEVER_SPEC, data, AlphaConfig.uniform(1), OPTS, response=_never)


@pytest.mark.parametrize(
    "tag",
    [FormulationTag.RISK_AGNOSTIC_LOCAL, FormulationTag.RISK_AGNOSTIC_GLOBAL,
     FormulationTag.MOMENT_RISK_AGNOSTIC],
    ids=lambda t: t.value,
)
def test_risk_agnostic_programs_reject_alpha_a_of_one_before_any_solve(tag):
    # discarding every scenario leaves no quantile to constrain
    data = ScenarioData(np.zeros((4, 1)), np.zeros((3, 1)))
    with pytest.raises(InputError, match=r"alpha_a entries must lie in \[0, 1\)"):
        solve(tag, _NEVER_SPEC, data, AlphaConfig.uniform(1, alpha_a=1.0), OPTS, response=_never)


@pytest.mark.parametrize(
    "tag", [FormulationTag.RISK_AVERSE_GLOBAL, FormulationTag.RISK_AGNOSTIC_GLOBAL],
    ids=lambda t: t.value,
)
def test_global_programs_reject_alpha_e_of_one(tag):
    # the weight rule's epistemic quantile needs a draw below the fraction
    spec, data = _linear_toy()
    with pytest.raises(InputError, match=r"alpha_e_k must lie in \[0, 1\)"):
        solve(tag, spec, data, AlphaConfig.uniform(1, alpha_e=1.0), OPTS)


def test_formulation_validation():
    spec, data = _linear_toy()
    for tag in MOMENT_TAGS:
        with pytest.raises(InputError):
            solve(tag, spec, data, AlphaConfig.uniform(1), OPTS)


def test_solve_dispatcher(circle_spec, small_data):
    cfg = AlphaConfig.uniform(1, rho=1e6)
    res = solve(FormulationTag.RISK_AVERSE_LOCAL, circle_spec, small_data, cfg, OPTS)
    assert isinstance(res, SolveResult)
    seed = solve(FormulationTag.FEASIBILITY_SEED, circle_spec, small_data, cfg, OPTS)
    assert isinstance(seed, SolveResult)
    assert seed.alpha_a_lower.shape == (1,)

    # every tag dispatches to its program, bit for bit
    spec, data = _linear_toy()
    cfg = AlphaConfig.uniform(1, alpha_a=0.5, rho=10.0)

    def h(th, a, e):
        return th[..., 0] + a[..., 0] * e[..., 0]

    direct = {
        FormulationTag.RISK_AVERSE_GLOBAL: lambda: solve_risk_averse_global(spec, data, cfg, OPTS),
        FormulationTag.RISK_AVERSE_LOCAL: lambda: solve_risk_averse_local(spec, data, cfg, OPTS),
        FormulationTag.RISK_AGNOSTIC_GLOBAL: lambda: solve_risk_agnostic_global(spec, data, cfg, OPTS),
        FormulationTag.RISK_AGNOSTIC_LOCAL: lambda: solve_risk_agnostic_local(spec, data, cfg, OPTS),
        FormulationTag.FEASIBILITY_SEED: lambda: solve_feasibility_seed(spec, data, cfg, opts=OPTS),
        FormulationTag.MOMENT_RISK_AVERSE: lambda: solve_moment_risk_averse(spec, data, cfg, h, OPTS),
        FormulationTag.MOMENT_RISK_AGNOSTIC: lambda: solve_moment_risk_agnostic(spec, data, cfg, h, OPTS),
    }
    assert set(direct) == set(FormulationTag)
    for tag, run in direct.items():
        got, want = solve(tag, spec, data, cfg, OPTS, response=h), run()
        assert got.theta_star.tobytes() == want.theta_star.tobytes(), tag
        assert float(got.objective).hex() == float(want.objective).hex(), tag
        assert got.solver_status == want.solver_status, tag
        assert got.diagnostics["nfev"] == want.diagnostics["nfev"], tag


# ---------------------------------------------------------------------------
# the zero-discard program's constraint: grid maxima behind a guard
# ---------------------------------------------------------------------------


def _nested_tops(values):
    """The zero-discard constraint by sorting: both quantiles at level 1."""
    return quantile_of(quantile_of(values, 1.0), 1.0)


#: special values a grid cell may take: signed zeros and non-finite values
_SPECIALS = [-0.0, 0.0, np.inf, -np.inf, np.nan]


@st.composite
def _top_grids(draw):
    """A batch of (B, n_r, n_a, n_e) grids built around a top M per grid.

    Cells come from a pool: values below M at fractions of the guard's
    window W (near-ties just inside and just outside it among them),
    other values in [-1e4, 1e4], and sometimes a signed zero, +-inf or
    NaN.  M sits
    in one cell, sometimes in two (a tie at the top); some grids are one
    pool value but for M, some hold distinct values below M (no tie, so
    a -0.0 M keeps its sign when sorted alone), and some rows are
    constant (ties at every row's top, and rows of -inf whose tie shift
    is NaN).
    """
    b, n_r = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    n_a, n_e = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    n = max(n_a, n_e)
    fraction = st.one_of(
        st.sampled_from([0.5, 1.0 - 1e-6, 1.0 + 1e-6, 1.2, 1.5]), st.floats(0.01, 3.0)
    )
    grids = []
    for _ in range(b * n_r):
        top = draw(st.one_of(
            st.sampled_from([-0.0, 0.0, 0.25, -0.25, 1.0, -3.0, 7.5]), st.floats(-1e4, 1e4)
        ))
        window = programs._TOP_WINDOW * n * TIE_EPS * max(1.0, 2.0 * abs(top))
        pool = [top - window * f for f in draw(st.lists(fraction, min_size=1, max_size=3))]
        pool += draw(st.lists(st.floats(-1e4, 1e4), max_size=2))
        pool += draw(st.lists(st.sampled_from(_SPECIALS), max_size=2))
        kind = draw(st.sampled_from(["constant", "pool", "distinct"]))
        if kind == "constant":
            cells = [draw(st.sampled_from(pool))] * (n_a * n_e)
        elif kind == "pool":
            cells = draw(st.lists(st.sampled_from(pool), min_size=n_a * n_e, max_size=n_a * n_e))
        else:
            below = st.floats(-1e4, 1e4).map(lambda v: -abs(v) + min(top, 0.0) - 1.0)
            cells = draw(st.lists(below, min_size=n_a * n_e, max_size=n_a * n_e, unique=True))
        grid = np.array(cells).reshape(n_a, n_e)
        for row in draw(st.lists(st.integers(0, n_a - 1), max_size=2)):
            grid[row] = draw(st.sampled_from(pool))
        for _ in range(draw(st.integers(1, 2))):
            grid[draw(st.integers(0, n_a - 1)), draw(st.integers(0, n_e - 1))] = top
        grids.append(grid)
    return np.array(grids).reshape(b, n_r, n_a, n_e)


def _run_below_top(top, fraction, n):
    """An n x n grid of one value ``fraction`` windows W below ``top``,
    but for ``top`` in its last cell."""
    window = programs._TOP_WINDOW * n * TIE_EPS * max(1.0, 2.0 * abs(top))
    grid = np.full((1, 1, n, n), top - fraction * window)
    grid[..., -1, -1] = top
    return grid


@settings(deadline=None)
@given(_top_grids())
# a -0.0 top with a tie elsewhere in the batch: the sorted path writes +0.0
@example(values=np.array([[[[-1.0, -1.0], [-2.0, -0.0]]]]))
# a row of -inf: its tie shift is NaN, which tops the row of scenario tops
@example(values=np.array([[[[-np.inf, -np.inf], [-2.0, 3.0]]]]))
# a -0.0 top in a design of distinct values, sorted alone, and a tie in
# the batch's other design: the whole batch is sorted, writing +0.0
@example(values=np.array([[[[-1.0, -1.0], [-2.0, 3.0]]], [[[-1.0, -2.0], [-3.0, -0.0]]]]))
# ties just outside W: their shifts through both levels stay below M, and
# would reach it from just outside a window an eighth as wide
@example(values=_run_below_top(0.25, 1.2, 7))
def test_guarded_tops_are_the_nested_quantiles_bit_for_bit(values):
    with np.errstate(all="ignore"):  # the sorted path's shifts of infinities are NaN
        want = _nested_tops(values)
        top, admitted = programs._guarded_tops(values)
        got, n_sorted, whole = programs._zero_discard_tops(values, _nested_tops)
    assert top[admitted].tobytes() == want[admitted].tobytes()
    assert got.tobytes() == want.tobytes()
    rejected = int(np.count_nonzero(~admitted.all(axis=-1)))
    assert n_sorted == (len(values) if whole else rejected)
    assert whole == (rejected > 0 and bool((values[~admitted.all(axis=-1)] == 0.0).any()))


_DEBUG_LINE = re.compile(
    r"risk_agnostic_local: (\d+) of (\d+) designs sorted, "
    r"(\d+) of (\d+) constraint batches sorted whole"
)


@pytest.mark.parametrize("alpha_a", [0.0, 0.1])
def test_risk_agnostic_local_debug_line_counts_the_sorted_designs(
    alpha_a, circle_spec, monkeypatch, caplog
):
    data = circle.generate_dataset(12, 10, seed=7)
    calls = {"designs": 0, "batches": 0, "sorted": 0}

    def grid(spec, data, theta):
        if np.ndim(theta) == 2:  # a constraint batch, not the result's own grid
            calls["designs"] += len(theta)
            calls["batches"] += 1
        return requirement_values(spec, data, theta)

    def quantiles(values, alpha):
        if values.ndim == 4:
            calls["sorted"] += len(values)
        return quantile_of(values, alpha)

    monkeypatch.setattr(programs, "requirement_values", grid)
    monkeypatch.setattr(programs, "quantile_of", quantiles)
    with caplog.at_level(logging.DEBUG, logger="scendo.programs"):
        solve_risk_agnostic_local(circle_spec, data, AlphaConfig.uniform(1, alpha_a=alpha_a), OPTS)
    (line,) = [m for m in map(_DEBUG_LINE.search, caplog.messages) if m]
    n_sorted, n_designs, whole, batches = map(int, line.groups())
    assert (n_sorted, n_designs, batches) == (calls["sorted"], calls["designs"], calls["batches"])
    if alpha_a:  # a fraction above 0: every batch is sorted whole
        assert (n_sorted, whole) == (n_designs, batches)
    else:
        assert n_sorted < n_designs and whole < batches


def test_zero_discard_solve_is_the_sorted_solve_bit_for_bit(circle_spec, small_data, monkeypatch):
    cfg = AlphaConfig.uniform(1)
    res = solve_risk_agnostic_local(circle_spec, small_data, cfg, OPTS)

    def reject_all(values):
        top, admitted = guarded(values)
        return top, np.zeros_like(admitted)

    guarded = programs._guarded_tops
    monkeypatch.setattr(programs, "_guarded_tops", reject_all)
    sorted_res = solve_risk_agnostic_local(circle_spec, small_data, cfg, OPTS)
    assert res.theta_star.tobytes() == sorted_res.theta_star.tobytes()
    assert float(res.objective).hex() == float(sorted_res.objective).hex()
    assert res.diagnostics["nfev"] == sorted_res.diagnostics["nfev"]
    assert res.solver_status == sorted_res.solver_status == "converged"
