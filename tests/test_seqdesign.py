import dataclasses
import logging
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    StackedSelection,
    best_budgeted_selection,
    selection_value,
    stacked_selection,
    stacked_swap_refine,
    whole_pool_best,
    whole_pool_gains,
)
from scendo import circle, core, nlp, seqdesign
from scendo.core import InputError, ScenarioData
from scendo.montecarlo import RmcConfig, analyze
from scendo.seqdesign import (
    SdConfig,
    _Selection,
    _swap_refine,
    default_budgets,
    run_sd,
    select_training_aleatory,
    select_training_epistemic,
)

ZERO_RMC = RmcConfig(alpha_a=np.zeros(1), alpha_e=np.zeros(1), sigma=0.95)


def _selection_instance(n_pool=12, seed=0):
    """Testing cloud around a tight design: a clean violating/feasible split."""
    rng = np.random.default_rng(seed)
    pts = circle.sample_aleatory(n_pool, rng)
    epi = circle.sample_epistemic(20, rng)
    data = ScenarioData(pts[:2], epi[:2], testing_aleatory=pts, testing_epistemic=epi)
    theta = np.array([0.0, 0.0, 1.2])
    return data, theta


def _violations(spec, theta, data):
    """The violation table the sequential loop selects from."""
    return analyze(spec, theta, data, ZERO_RMC).scenario_fails


def test_selection_matches_exhaustive_oracle_likelihood_only(circle_spec):
    data, theta = _selection_instance()
    n_target, budget = 6, 2
    c = _violations(circle_spec, theta, data)
    sel = select_training_aleatory(
        c, data.testing_aleatory, n_target, budgets=np.array([budget]),
        lambda_div=0.0, density=circle.aleatory_density,
    )
    assert sel.size == n_target
    # oracle over all subsets with exactly `budget` violating members
    like = circle.aleatory_density(data.testing_aleatory)
    _, best_val, value = best_budgeted_selection(
        data.testing_aleatory, c[:, 0], like, n_target, budget
    )
    assert int(np.sum(c[sel, 0])) == budget
    assert value(sel) == pytest.approx(best_val, rel=1e-12)


def test_selection_no_violations_degenerate_budget(circle_spec):
    data, _ = _selection_instance()
    huge = np.array([0.0, 0.0, 11.0])  # nothing violates
    sel = select_training_aleatory(
        _violations(circle_spec, huge, data), data.testing_aleatory, 5, budgets=np.array([0]),
        lambda_div=0.5, density=circle.aleatory_density,
    )
    assert sel.size == 5
    assert np.all(sel < data.n_a_test)


def test_selection_value_dominates_pure_strategies(circle_spec):
    data, theta = _selection_instance(n_pool=14, seed=3)
    lam = 0.8
    c = _violations(circle_spec, theta, data)
    like = circle.aleatory_density(data.testing_aleatory)
    pts = data.testing_aleatory
    centered = pts - pts.mean(axis=0)
    _, vecs = np.linalg.eigh(np.cov(centered, rowvar=False))
    pc = centered @ vecs
    gamma = np.max(c, axis=1).astype(float)
    budget = np.array([min(2, int(c[:, 0].sum()))])

    combined = select_training_aleatory(c, pts, 7, budget, lam, circle.aleatory_density)
    pure_like = select_training_aleatory(c, pts, 7, budget, 0.0, circle.aleatory_density)
    pure_div = select_training_aleatory(c, pts, 7, budget, lam, None)
    val = lambda s: selection_value(pc, like, gamma, s, lam)
    assert val(combined) >= val(pure_like) - 1e-9
    assert val(combined) >= val(pure_div) - 1e-9


def test_selection_validates_target(circle_spec):
    data, theta = _selection_instance()
    c = _violations(circle_spec, theta, data)
    with pytest.raises(InputError):
        select_training_aleatory(c, data.testing_aleatory, 0)
    with pytest.raises(InputError):
        select_training_aleatory(c, data.testing_aleatory, 999)


@pytest.mark.parametrize("budget", [2.7, -1, np.nan, np.inf])
def test_selection_rejects_negative_and_non_integral_budgets(circle_spec, budget):
    data, theta = _selection_instance(n_pool=40)
    c = _violations(circle_spec, theta, data)
    with pytest.raises(InputError, match="budgets must be nonnegative integers"):
        select_training_aleatory(c, data.testing_aleatory, 10, budgets=np.array([budget]))
    # an integral float is an integer budget
    assert np.array_equal(
        select_training_aleatory(c, data.testing_aleatory, 10, budgets=np.array([2.0])),
        select_training_aleatory(c, data.testing_aleatory, 10, budgets=np.array([2])),
    )


def test_default_budgets_scale_with_training_size(circle_spec):
    data, theta = _selection_instance(n_pool=40)
    c = _violations(circle_spec, theta, data)
    b_small = default_budgets(c, 4)
    b_large = default_budgets(c, 20)
    assert b_small.shape == (1,)
    assert b_small[0] <= b_large[0]


def _four_patterns(n=60):
    """Two requirements, four violation patterns (00, 01, 10, 11) round robin,
    on a Gaussian cloud with random likelihoods."""
    rng = np.random.default_rng(11)
    patterns = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=bool)
    return patterns, patterns[np.arange(n) % 4], rng.normal(size=(n, 2)), rng.uniform(0.1, 1.0, n)


def test_swap_refine_keeps_each_pattern_count():
    patterns, c, pts, like = _four_patterns()
    sel = _Selection(pts, like, np.max(c, axis=1).astype(float), 0.5)
    start = np.array([0, 1, 5, 2, 6, 10, 3, 7, 11, 15])  # 1, 2, 3, 4 of each pattern
    for i in start:
        sel.add(int(i))
    before = sel.value()
    _swap_refine(sel, c)
    chosen = np.flatnonzero(sel.mask)
    assert sel.value() > before and not np.array_equal(chosen, np.sort(start))
    counts = [int(np.all(c[chosen] == pat, axis=1).sum()) for pat in patterns]
    assert counts == [1, 2, 3, 4]


def test_swap_refine_matches_stacked_oracle_on_four_patterns():
    _, c, pts, like = _four_patterns()
    gamma = np.max(c, axis=1).astype(float)
    sel = _Selection(pts, like, gamma, 0.5)
    ref = StackedSelection(pts, like, gamma, 0.5)
    for i in (0, 1, 5, 2, 6, 10, 3, 7, 11, 15):
        sel.add(i)
        ref.add(i)
    _swap_refine(sel, c)
    stacked_swap_refine(ref, c)
    assert np.array_equal(sel.mask, ref.mask)


def _duplicated_cloud():
    """30 circle draws, each three times in a shuffled order; a draw fails
    iff its first coordinate is large, so copies share their pattern."""
    rng = np.random.default_rng(4)
    pts = np.repeat(circle.sample_aleatory(30, rng), 3, axis=0)[rng.permutation(90)]
    return (pts[:, :1] > np.quantile(pts[:, 0], 0.7)), pts


def _one_dim_cloud():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(80, 1))
    return np.abs(pts) > 1.2, pts


def _two_requirement_cloud():
    _, c, pts, _ = _four_patterns(80)
    return c, pts


@pytest.mark.parametrize("instance", [_duplicated_cloud, _one_dim_cloud, _two_requirement_cloud],
                         ids=["duplicated", "one-dim", "four-patterns"])
@pytest.mark.parametrize("density", [
    None,
    lambda p: np.exp(-np.sum(p * p, axis=1)),
    lambda p: np.random.default_rng(9).uniform(0.1, 1.0, len(p)),
], ids=["constant", "smooth", "per-row"])
@pytest.mark.parametrize("lam", [0.0, 1.5])
def test_selection_matches_stacked_oracle_on_ties(instance, density, lam):
    # exact ties in the gains: copies of a point, and at lam = 0 a constant
    # likelihood.  A per-row likelihood gives copies different likelihoods,
    # so among tied copies in the feasible fill the likelihood decides.
    c, pts = instance()
    for n_target in (7, 16):
        got = select_training_aleatory(c, pts, n_target, None, lam, density)
        assert np.array_equal(got, stacked_selection(c, pts, n_target, None, lam, density))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10), st.integers(0, 2**32 - 1))
def test_rank_one_logdets_equal_stacked_slogdet(m, extra, seed):
    # a selection of m + 1 or more points has a full-rank covariance; below
    # that it is singular up to the 1e-9 jitter, and the rounding of both
    # formulas, relative to the jitter, reaches about 1e-5
    rng = np.random.default_rng(seed)
    n = m + 1 + extra
    pts = rng.normal(size=(n + 25, m)) * rng.uniform(0.1, 10.0, m)
    sel = _Selection(pts, np.ones(n + 25), np.zeros(n + 25), 1.0)
    ref = StackedSelection(pts, np.ones(n + 25), np.zeros(n + 25), 1.0)
    for i in rng.permutation(n + 25)[:n]:
        sel.add(int(i))
        ref.add(int(i))
    cand = np.flatnonzero(~sel.mask)
    np.testing.assert_allclose(sel._logdets_with(cand), ref.logdets_with(cand), rtol=0, atol=1e-9)


def _tiled_cloud(i: int) -> tuple:
    """Selection instance ``i``: a pool of more than one tile of points in
    one to three coordinates, one or two requirements violated at a rare,
    a moderate or a common rate, a constant, tied or smooth likelihood,
    default or explicit budgets, and lambda_div 0 or 2."""
    rng = np.random.default_rng(100 + i)
    m = 1 + i % 3
    tile = core._TILE_FLOATS // m
    pts = rng.normal(size=(tile + int(rng.integers(1, tile // 2)), m)) * rng.uniform(0.5, 3.0, m)
    n_r = 1 + (i // 3) % 2
    rate = (0.0005, 0.02, 0.3)[(i // 6) % 3]
    c = rng.uniform(size=(len(pts), n_r)) < rate
    density = (
        None,
        lambda p: np.round(np.exp(-0.5 * np.sum(p * p, axis=1)), 1),  # ties
        lambda p: np.exp(-0.5 * np.sum(p * p, axis=1)),
    )[i % 3]
    budgets = rng.integers(0, 4, n_r) if i % 2 else None
    lam = 2.0 if (i // 2) % 2 else 0.0
    return c, pts, int(rng.integers(4, 9)), budgets, lam, density


@pytest.mark.parametrize("block", range(5))
def test_tiled_selection_matches_the_whole_pool_oracle(block, monkeypatch):
    # ten random clouds per case, fifty in all: the picks scored a tile at a
    # time equal the picks scored over the whole pool in one BLAS product
    for i in range(10 * block, 10 * block + 10):
        args = _tiled_cloud(i)
        got = select_training_aleatory(*args)
        with monkeypatch.context() as patched:
            patched.setattr(_Selection, "best", whole_pool_best)
            want = select_training_aleatory(*args)
        assert np.array_equal(got, want), i


def test_tile_scores_equal_the_whole_pool_scores_bit_for_bit():
    # a one-column inv(A) @ d is a BLAS gemv, whose bits can differ from the
    # gemm of a wider product; a lone candidate is scored as two columns,
    # so in a tile of a wider pool as in the whole pool's gemm. Sixty
    # tiles keep one point each, after a first tile of candidates; about
    # one lone score in eleven would differ from the gemm's as a gemv
    rng = np.random.default_rng(3)
    tile = core._TILE_FLOATS // 4  # the selection's tile in two coordinates
    pts = rng.normal(size=(61 * tile, 2))
    sel = _Selection(np.asfortranarray(pts), rng.uniform(size=len(pts)), np.zeros(len(pts)), 2.0)
    assert sel.tile == tile
    for i in range(10, 16):
        sel.add(i)
    pool = ~sel.mask
    pool[tile:] = False
    pool[tile::tile] = True
    cand = np.flatnonzero(pool)
    tiles = [cand[(cand >= t) & (cand < t + tile)] for t in range(0, len(pts), tile)]
    assert [t.size for t in tiles] == [tile - 6] + [1] * 60
    scores = np.concatenate([sel.gains(t) for t in tiles])
    assert scores.tobytes() == whole_pool_gains(sel, cand).tobytes()
    assert sel.best(pool) == whole_pool_best(sel, pool)


#: bytes of one tile of floats
_TILE_BYTES = core._TILE_FLOATS * 8


@pytest.mark.parametrize("lam", [0.0, 2.0])
def test_selection_peak_memory_on_a_20000_point_pool(lam):
    # the sequential workload's pool: the per-call arrays (likelihoods,
    # indicators, centred coordinates) take about 5 tiles, and the
    # scores of a tile of candidates about 2 more
    rng = np.random.default_rng(2)
    pts = circle.sample_aleatory(20000, rng)
    c = pts[:, :1] > 1.0

    def call():
        return select_training_aleatory(c, pts, 30, None, lam, circle.aleatory_density)

    call()
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * _TILE_BYTES


@pytest.mark.parametrize("like", [
    lambda p: np.full(len(p), np.nan),
    lambda p: np.full(len(p), np.inf),
    lambda p: -np.ones(len(p)),
    lambda p: np.ones(len(p) - 1),
    lambda p: np.ones((len(p), 1)),
], ids=["nan", "inf", "negative", "short", "column"])
def test_selection_rejects_bad_likelihoods(circle_spec, like):
    data, theta = _selection_instance()
    c = _violations(circle_spec, theta, data)
    with pytest.raises(InputError, match="density"):
        select_training_aleatory(c, data.testing_aleatory, 4, None, 1.0, like)


def test_selection_logs_its_builds_and_swaps(circle_spec, caplog):
    data, theta = _selection_instance(n_pool=14, seed=3)
    c = _violations(circle_spec, theta, data)
    with caplog.at_level(logging.DEBUG, logger="scendo.seqdesign"):
        select_training_aleatory(c, data.testing_aleatory, 7, None, 0.8, circle.aleatory_density)
    lines = [r.getMessage() for r in caplog.records if r.name == "scendo.seqdesign"]
    assert len(lines) == 1
    assert re.fullmatch(
        r"aleatory selection of 7: build values \[\S+, \S+, \S+\], winner [012], "
        r"\d+ swap passes, \d+ swaps accepted, \d+\.\d{3} s",
        lines[0],
    ), lines[0]


def test_epistemic_selection_identity_and_top1(circle_spec):
    data, theta = _selection_instance()
    all_idx = select_training_epistemic(
        circle_spec, theta, data.testing_aleatory, data.testing_epistemic, 20
    )
    assert np.array_equal(all_idx, np.arange(20))

    vals = circle.circle_requirement(
        theta, data.testing_aleatory[:, None, :], data.testing_epistemic[None, :, :]
    )
    scores = vals.max(axis=0)
    top3 = select_training_epistemic(
        circle_spec, theta, data.testing_aleatory, data.testing_epistemic, 3
    )
    assert int(np.argmax(scores)) in top3
    assert set(top3) == set(np.argsort(-scores, kind="stable")[:3])


def test_epistemic_selection_ranks_monotone_coordinate():
    # requirement increasing in e1: the largest e1 draws are selected
    from scendo.core import ProblemSpec

    spec = ProblemSpec(
        objective=lambda th: th[..., 0],
        requirements=[lambda th, a, e: a[..., 0] + e[..., 0] - th[..., 0]],
        design_bounds=[[0.0, 4.0]],
        m_a=1,
        m_e=1,
    )
    e_pool = np.linspace(0, 1, 11)[:, None]
    sel = select_training_epistemic(spec, np.array([1.0]), np.array([[0.5]]), e_pool, 4)
    assert np.array_equal(sel, [7, 8, 9, 10])


def test_run_sd_immediate_stop(circle_spec):
    data = circle.generate_dataset(4, 4, seed=1, n_a_test=600, n_e_test=30)
    cfg = SdConfig(rmc=ZERO_RMC, threshold=0.02, max_iter=5, n_a_init=8, n_e_init=6)
    baseline = np.array([0.5, 0.3, 9.0])  # already meets the loose spec
    theta, trace = run_sd(circle_spec, data, baseline, cfg,
                          nlp.NlpOptions(seed=0, n_starts=3, max_inner=100))
    assert trace.met_spec
    assert len(trace) == 1
    assert np.array_equal(theta, baseline)


def test_run_sd_trace_bounded_by_max_iter(circle_spec):
    data = circle.generate_dataset(4, 4, seed=2, n_a_test=400, n_e_test=20)
    cfg = SdConfig(
        rmc=ZERO_RMC, threshold=0.0, max_iter=2,  # unattainable: exact zero
        n_a_init=8, n_e_init=6, n_a_cap=12, n_e_cap=10,
    )
    _, trace = run_sd(circle_spec, data, np.array([0.0, 0.0, 2.0]), cfg,
                      nlp.NlpOptions(seed=0, n_starts=3, max_inner=80))
    assert len(trace) == 2
    assert not trace.met_spec
    # training sizes never exceed caps, alphas reset on violation
    for rec in trace.records:
        assert rec.n_a <= 12 and rec.n_e <= 10


def test_run_sd_failed_feasibility_seed_stops_as_failed(circle_spec, monkeypatch):
    real_minimize = nlp.minimize

    def failing_minimize(problem, opts=None):
        res = real_minimize(problem, opts)
        return nlp.NlpResult(res.x, res.f, "failed", res.diagnostics)

    monkeypatch.setattr(nlp, "minimize", failing_minimize)
    data = circle.generate_dataset(4, 4, seed=2, n_a_test=400, n_e_test=20)
    cfg = SdConfig(
        rmc=ZERO_RMC, threshold=0.0, max_iter=3, n_a_init=8, n_e_init=6,
        program="feasibility_seed",
    )
    _, trace = run_sd(circle_spec, data, np.array([0.0, 0.0, 2.0]), cfg,
                      nlp.NlpOptions(seed=0, n_starts=2, max_inner=40))
    assert trace.failed and not trace.met_spec
    assert len(trace) == 1


@pytest.mark.parametrize("budgets", [None, np.array([3])], ids=["default", "fixed"])
def test_run_sd_evaluates_each_testing_grid_once(circle_spec, budgets):
    data = circle.generate_dataset(4, 4, seed=2, n_a_test=400, n_e_test=20)
    # analyze's (draws, n_a') layout, all 20 draws in one block; the training
    # grids and the epistemic ranking's subset stay below n_a' in any layout
    full = (data.n_e_test, data.n_a_test)
    grids = []

    def counted(theta, a, e):
        vals = circle.circle_requirement(theta, a, e)
        if data.n_a_test in np.shape(vals):
            grids.append(np.shape(vals))
        return vals

    spec = dataclasses.replace(circle_spec, requirements=[counted])
    cfg = SdConfig(
        rmc=ZERO_RMC, threshold=0.0, max_iter=3,  # unattainable: three designs
        n_a_init=8, n_e_init=6, n_a_cap=12, n_e_cap=10, budgets=budgets,
    )
    _, trace = run_sd(spec, data, np.array([0.0, 0.0, 2.0]), cfg,
                      nlp.NlpOptions(seed=0, n_starts=2, max_inner=60))
    assert len(trace) == 3 and not trace.failed
    assert grids == [full] * len(trace)


def test_run_sd_grows_training_and_improves(circle_spec):
    data = circle.generate_dataset(4, 4, seed=5, n_a_test=1500, n_e_test=40)
    cfg = SdConfig(
        rmc=ZERO_RMC, threshold=5e-3, max_iter=8,
        n_a_init=10, n_e_init=8, n_a_cap=60, n_e_cap=30, seed=0,
        lambda_div=1.0, density=circle.aleatory_density,
    )
    baseline = np.array([0.3, 0.2, 2.2])  # too tight for the spec
    theta, trace = run_sd(circle_spec, data, baseline, cfg,
                          nlp.NlpOptions(seed=0, n_starts=3, max_inner=100))
    assert not trace.failed
    assert trace.met_spec
    metrics = [float(np.max(r.metric)) for r in trace.records]
    assert metrics[-1] <= cfg.threshold
    assert metrics[-1] <= metrics[0]
    # the growth schedule kicked in while the metric was violated
    assert trace.records[1].n_a == 13


def test_run_sd_starts_within_the_testing_sets(circle_spec):
    # the default initial sizes (50, 50) exceed these 30 x 20 testing sets;
    # j_bound -1 is never met, so the loop selects a second training set
    data = circle.generate_dataset(4, 4, seed=1, n_a_test=30, n_e_test=20)
    cfg = SdConfig(rmc=ZERO_RMC, threshold=1.0, j_bound=-1.0, max_iter=2)
    _, trace = run_sd(circle_spec, data, np.array([0.5, 0.3, 9.0]), cfg,
                      nlp.NlpOptions(seed=0, n_starts=2, max_inner=60))
    assert len(trace) == 2 and not trace.failed
    assert [(r.n_a, r.n_e) for r in trace.records] == [(30, 20), (30, 20)]
    assert trace.records[1].alpha_a[0] == pytest.approx(1 / 30)


@pytest.mark.parametrize("program", ["risk_agnostic_local", "risk_agnostic_global"])
def test_run_sd_retries_an_infeasible_training_solve_at_the_suggestion(
    circle_spec, program, monkeypatch
):
    # no design with radius mu <= 1.6 meets every training scenario: each
    # training solve is infeasible at alpha_a = 0 and is solved again at the
    # fraction its feasibility seed suggests, raised by 1e-6
    spec = dataclasses.replace(
        circle_spec, design_bounds=np.array([[-12.0, 12.0], [-12.0, 12.0], [0.0, 1.6]])
    )
    name = f"solve_{program}"
    solver, calls = getattr(seqdesign, name), []

    def recording(spec, train, alphas, opts):
        res = solver(spec, train, alphas, opts)
        suggestion = res.diagnostics.get("suggested_alpha_a")
        calls.append((alphas.alpha_a[0], res.solver_status, suggestion))
        return res

    monkeypatch.setattr(seqdesign, name, recording)
    data = circle.generate_dataset(4, 4, seed=3, n_a_test=300, n_e_test=20)
    cfg = SdConfig(
        rmc=ZERO_RMC, threshold=0.0, max_iter=3, n_a_init=8, n_e_init=6, program=program,
    )
    _, trace = run_sd(spec, data, np.array([0.0, 0.0, 1.0]), cfg,
                      nlp.NlpOptions(seed=0, n_starts=2, max_inner=60))
    assert len(trace) == 3 and not trace.failed and not trace.met_spec
    assert trace.records[0].alpha_a[0] == 0.0
    assert len(calls) == 4  # two training solves, each retried once
    for first, retry, record in zip(calls[::2], calls[1::2], trace.records[1:]):
        alpha_a, status, suggestion = first
        assert alpha_a == 0.0 and status == "infeasible"
        assert retry[0] == record.alpha_a[0] == suggestion[0] + 1e-6
        assert retry[1] != "infeasible"


def test_run_sd_steps_alpha_a_when_the_suggested_retry_stays_infeasible(
    circle_spec, monkeypatch, caplog
):
    # the global seed's bound comes from its own multi-start NLP: at the
    # second training set the program stays infeasible at the suggested
    # 0.4183 and converges one training scenario (1/15) higher
    spec = dataclasses.replace(
        circle_spec, design_bounds=np.array([[-12.0, 12.0], [-12.0, 12.0], [0.0, 1.6]])
    )
    solver, calls = seqdesign.solve_risk_agnostic_global, []

    def recording(spec, train, alphas, opts):
        res = solver(spec, train, alphas, opts)
        calls.append((train.n_a, alphas.alpha_a[0], res.solver_status))
        return res

    monkeypatch.setattr(seqdesign, "solve_risk_agnostic_global", recording)
    data = circle.generate_dataset(4, 4, seed=3, n_a_test=300, n_e_test=20)
    cfg = SdConfig(
        rmc=ZERO_RMC, threshold=0.0, max_iter=3, n_a_init=8, n_e_init=6,
        program="risk_agnostic_global",
    )
    with caplog.at_level(logging.INFO, logger="scendo.seqdesign"):
        _, trace = run_sd(spec, data, np.array([0.0, 0.0, 1.6]), cfg,
                          nlp.NlpOptions(seed=0, n_starts=2, max_inner=60))
    assert len(trace) == 3 and not trace.failed
    n_a, suggested, status = calls[-2]
    assert n_a == 15 and status == "infeasible"
    assert suggested == pytest.approx(0.41830229)
    assert calls[-1] == (15, suggested + 1 / 15, "converged")
    assert trace.records[2].alpha_a[0] == suggested + 1 / 15
    retries = [r for r in caplog.records if "retrying at" in r.getMessage()]
    assert len(retries) == 3  # one per retried solve


@pytest.mark.parametrize(
    "suggestion, steps",
    [(0.1, [k / 8 for k in range(1, seqdesign._RETRY_STEPS + 1)]),  # the retry bound
     (0.8, [0.9 - 0.800001])],  # alpha_a reaches 0.9
)
def test_solve_program_stops_stepping_at_its_bounds(circle_spec, monkeypatch, suggestion, steps):
    # a program that stays infeasible is retried at the suggestion, then
    # one training scenario (1/8) higher at a time
    train = circle.generate_dataset(8, 4, seed=0)
    alphas = []

    def infeasible(spec, train, cfg, opts):
        alphas.append(cfg.alpha_a[0])
        return SimpleNamespace(
            solver_status="infeasible", theta_star=np.zeros(3),
            diagnostics={"suggested_alpha_a": np.array([suggestion])},
        )

    monkeypatch.setattr(seqdesign, "solve_risk_agnostic_local", infeasible)
    cfg = SdConfig(rmc=ZERO_RMC, program="risk_agnostic_local")
    _, alpha_a, status = seqdesign._solve_program(circle_spec, train, cfg, np.zeros(1), None)
    assert status == "infeasible"
    first = suggestion + 1e-6
    assert alphas == pytest.approx([0.0, first] + [first + s for s in steps], rel=0, abs=1e-12)
    assert alpha_a[0] == alphas[-1]


@pytest.mark.parametrize(
    "field, value",
    [("growth", np.nan), ("lambda_div", np.nan), ("threshold", np.nan),
     ("alpha_e", np.nan), ("alpha_e", 1.5),
     # training sets need two aleatory scenarios and one epistemic draw
     ("n_a_init", 0), ("n_a_init", 1), ("n_a_cap", 1), ("n_e_init", 0), ("n_e_cap", -3),
     # a NaN bound is never met; the counts and the seed take only integers
     ("j_bound", np.nan), ("max_iter", 2.5), ("max_iter", 3.0), ("n_a_init", 2.5),
     ("n_e_init", True), ("n_a_cap", "60"), ("n_e_cap", 30.0), ("seed", 0.5), ("seed", None),
     # an infinite growth overflows the first grown size; a bad budget would
     # first fail at a selection, after an analysis
     ("growth", np.inf), ("budgets", np.array([-1.5, 2.7])), ("budgets", np.array([np.inf]))],
    ids=["growth", "lambda_div", "threshold", "alpha_e-nan", "alpha_e-above-one",
         "n_a_init-0", "n_a_init-1", "n_a_cap-1", "n_e_init-0", "n_e_cap-negative",
         "j_bound-nan", "max_iter-float", "max_iter-integral-float", "n_a_init-float",
         "n_e_init-bool", "n_a_cap-str", "n_e_cap-float", "seed-float", "seed-none",
         "growth-inf", "budgets-negative-non-integral", "budgets-inf"],
)
def test_sd_config_rejects_nan_and_out_of_range(field, value):
    with pytest.raises(InputError, match=field):
        SdConfig(rmc=ZERO_RMC, **{field: value})


def test_sd_config_validation():
    with pytest.raises(InputError):
        SdConfig(rmc=ZERO_RMC, max_iter=0)
    with pytest.raises(InputError):
        SdConfig(rmc=ZERO_RMC, metric="nope")
    with pytest.raises(InputError):
        SdConfig(rmc=ZERO_RMC, lambda_div=-1.0)
