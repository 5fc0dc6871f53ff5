import logging

import numpy as np
import pytest

from oracles import quantile_reference, welzl_circle
from scendo import circle, nlp, programs
from scendo.core import AlphaConfig, InputError, ProblemSpec, ScenarioData, SolveResult
from scendo.ecdf import quantile_of
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


@pytest.mark.parametrize("tag", list(FormulationTag), ids=lambda t: t.value)
@pytest.mark.parametrize(
    "widths,message",
    [((2, 1), "aleatory has 2 columns"), ((1, 3), "epistemic has 3 columns")],
    ids=["aleatory", "epistemic"],
)
def test_every_program_rejects_data_of_other_widths_before_any_solve(tag, widths, message):
    def never(*args):
        pytest.fail("the program did work before checking the data widths")

    spec = ProblemSpec(objective=never, requirements=[never], design_bounds=[[0.0, 1.0]],
                       m_a=1, m_e=1)
    data = ScenarioData(
        np.zeros((4, widths[0])), np.zeros((3, widths[1])),
        testing_aleatory=np.zeros((5, widths[0])), testing_epistemic=np.zeros((2, widths[1])),
    )
    with pytest.raises(InputError, match=f"{message}, the problem needs 1; testing_"):
        solve(tag, spec, data, AlphaConfig.uniform(1), OPTS, response=never)


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
