import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import beta

import scendo
from oracles import analyze_full_grid
from scendo import circle, montecarlo
from scendo.core import InputError, ProblemSpec, ScenarioData
from scendo.ecdf import cdf_of
from scendo.montecarlo import RmcConfig, analyze, clopper_pearson

ZERO_CFG = RmcConfig(alpha_a=np.zeros(1), alpha_e=np.zeros(1), sigma=0.95)


def _table_problem(table: np.ndarray):
    """Requirement values read straight from a (n_a', n_e') table."""

    def req(th, a, e, T=table):
        return T[a[..., 0].astype(int), e[..., 0].astype(int)] + 0.0 * th[..., 0]

    spec = ProblemSpec(
        objective=lambda th: th[..., 0],
        requirements=[req],
        design_bounds=[[0.0, 1.0]],
        m_a=1,
        m_e=1,
    )
    n_a, n_e = table.shape
    idx_a = np.arange(n_a, dtype=float)[:, None]
    idx_e = np.arange(n_e, dtype=float)[:, None]
    data = ScenarioData(idx_a, idx_e, testing_aleatory=idx_a, testing_epistemic=idx_e)
    return spec, data


def test_hand_built_probability_range():
    # columns with exact interpolated failure probabilities (0, 0.1, 0.5)
    col0 = -np.arange(1.0, 11.0)
    col1 = np.array([-9, -8, -7, -6, -5, -4, -3, -2, -1, 9.0])
    col2 = np.array([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5.0])
    table = np.column_stack([np.sort(col0), col1, col2])
    spec, data = _table_problem(table)
    report = analyze(spec, np.zeros(1), data, ZERO_CFG)
    assert np.allclose(report.p_by_epistemic[0], [0.0, 0.1, 0.5])
    assert report.range_a[0, 0] == 0.0
    assert report.range_a[0, 1] == pytest.approx(0.5)


def test_fully_successful_design_ranges_collapse():
    # 500 samples push the zero-failure upper CI (~0.006) below p_max
    table = -np.ones((500, 5))
    spec, data = _table_problem(table)
    report = analyze(spec, np.zeros(1), data, ZERO_CFG)
    assert np.array_equal(report.range_a[0], [0.0, 0.0])
    assert report.point_c[0] == 0.0
    assert report.range_d[0, 0] == 0.0
    # the binomial upper end stays positive: finite-sample uncertainty
    assert 0 < report.range_b[0, 1] < 0.01


def test_nesting_range_a_in_range_b(circle_spec):
    rng = np.random.default_rng(0)
    data = circle.generate_dataset(5, 5, seed=3, n_a_test=400, n_e_test=60)
    for _ in range(10):
        theta = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.5, 6)])
        rep = analyze(circle_spec, theta, data, ZERO_CFG)
        assert rep.range_b[0, 0] <= rep.range_a[0, 0] + 1e-12
        assert rep.range_a[0, 1] <= rep.range_b[0, 1] + 1e-12


def test_zero_failure_clopper_pearson_closed_form():
    lo, hi = clopper_pearson(0, 100, 0.95)
    assert lo[0] == 0.0
    assert hi[0] == pytest.approx(1 - 0.05 ** (1 / 100), abs=1e-12)
    lo, hi = clopper_pearson(100, 100, 0.95)
    assert hi[0] == 1.0
    assert lo[0] == pytest.approx(0.05 ** (1 / 100), abs=1e-12)


def test_clopper_pearson_brackets_point_estimate():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(5, 400))
        m = int(rng.integers(0, n + 1))
        lo, hi = clopper_pearson(m, n, 0.95)
        assert lo[0] <= m / n <= hi[0]
        assert 0.0 <= lo[0] <= hi[0] <= 1.0


@pytest.mark.parametrize("n", [5, 20, 1000, 20000])
@pytest.mark.parametrize("sigma", [0.9, 0.95, 0.99])
def test_clopper_pearson_equals_the_beta_ppf_formulas_bit_for_bit(n, sigma):
    # the interval as written with scipy.stats.beta.ppf, at every count
    m = np.arange(n + 1, dtype=float)
    a = 1.0 - sigma
    m_lo, m_hi = np.clip(m, 1.0, n), np.clip(m, 0.0, n - 1.0)
    lo = beta.ppf(a / 2.0, m_lo, n - m_lo + 1.0)
    hi = beta.ppf(1.0 - a / 2.0, m_hi + 1.0, n - m_hi)
    lo = np.where(m <= 0, 0.0, np.where(m >= n, a ** (1.0 / n), lo))
    hi = np.where(m >= n, 1.0, np.where(m <= 0, 1.0 - a ** (1.0 / n), hi))
    got_lo, got_hi = clopper_pearson(m, n, sigma)
    assert got_lo.tobytes() == lo.tobytes()
    assert got_hi.tobytes() == hi.tobytes()


@pytest.mark.parametrize("package", ["scipy.stats", "scipy.optimize", "scipy.special"])
def test_importing_scendo_leaves_scipy_package_out(package):
    # each of these packages costs about a quarter of a second and 15-25 MB
    # at start-up; scendo calls betaincinv, gammaln, setulb and brentq, each
    # from its compiled module loaded from its own file, and its own logsumexp
    src = str(Path(scendo.__file__).resolve().parents[1])
    code = f"import sys, scendo, scendo.cli; print({package!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert out.stdout.strip() == "False"


def test_missing_ibeta_inv_capsule_names_it(monkeypatch):
    # no fallback: a scipy whose _ufuncs_cxx lacks the C function fails loudly
    monkeypatch.setattr(montecarlo, "_scipy_extension", lambda name: SimpleNamespace(__pyx_capi__={}))
    with pytest.raises(ImportError, match="exports no _export_ibeta_inv_double"):
        montecarlo._ibeta_inv_double()


def test_betaincinv_is_scipys_ufunc_bit_for_bit():
    # the C function over broadcast inputs, against the ufunc that calls it,
    # at random parameters and at the edges (0, 1, NaN, a tiny or huge shape)
    from scipy.special import betaincinv

    rng = np.random.default_rng(5)
    a = np.concatenate([rng.uniform(0.1, 3000.0, 200), [1e-300, 1e300, np.nan, 1.0, 2.0]])
    b = rng.uniform(0.1, 3000.0, (3, 1))
    y = np.concatenate([rng.uniform(0.0, 1.0, a.size - 5), [0.0, 1.0, 0.5, np.nan, 0.3]])
    got = montecarlo._betaincinv(a, b, y)
    assert got.shape == (3, a.size)
    assert got.tobytes() == betaincinv(a, b, y).tobytes()


def test_exceedance_cdf_hand_value():
    # evaluating the exceedance estimate 1 - F(p_max) on known values
    q = np.array([0.001, 0.02, 0.5])
    f = float(cdf_of(q, 0.01))
    assert f == pytest.approx(0.5 * (0.009 / 0.019), abs=1e-12)
    assert 1 - f == pytest.approx(1 - 0.23684210526315788, abs=1e-9)


def test_interval_width_shrinks_with_more_epistemic_draws(circle_spec):
    theta = np.array([0.4, 0.3, 3.0])
    widths = []
    for n_e_test in (50, 200, 1000):
        data = circle.generate_dataset(5, 5, seed=9, n_a_test=800, n_e_test=n_e_test)
        rep = analyze(circle_spec, theta, data, ZERO_CFG)
        widths.append(rep.range_d[0, 1] - rep.range_d[0, 0])
    assert widths[0] > widths[1] > widths[2]


def test_single_epistemic_point_consistency(circle_spec):
    # epistemic set collapsed to one draw: the probability range collapses
    rng = np.random.default_rng(2)
    data = ScenarioData(
        np.zeros((2, 2)), np.zeros((1, 3)),
        testing_aleatory=circle.sample_aleatory(500, rng),
        testing_epistemic=np.zeros((1, 3)),
    )
    rep = analyze(circle_spec, np.array([0.3, 0.2, 2.0]), data, ZERO_CFG)
    assert rep.p_by_epistemic.shape == (1, 1)
    assert rep.range_a[0, 0] == rep.range_a[0, 1]


def test_worst_case_flag_collapses_requirements():
    spec = ProblemSpec(
        objective=lambda th: th[..., 0],
        requirements=[
            lambda th, a, e: a[..., 0] - 1.0 + 0.0 * th[..., 0] + 0.0 * e[..., 0],
            lambda th, a, e: -a[..., 0] - 1.0 + 0.0 * th[..., 0] + 0.0 * e[..., 0],
        ],
        design_bounds=[[0.0, 1.0]],
        m_a=1,
        m_e=1,
    )
    rng = np.random.default_rng(3)
    data = ScenarioData(
        np.zeros((2, 1)), np.zeros((1, 1)),
        testing_aleatory=rng.normal(size=(300, 1)),
        testing_epistemic=np.zeros((2, 1)),
    )
    cfg = RmcConfig(np.zeros(2), np.zeros(2), p_max=np.full(2, 0.01), worst_case=True)
    rep = analyze(spec, np.zeros(1), data, cfg)
    assert rep.range_a.shape == (1, 2)
    frac_outside = np.mean(np.abs(data.testing_aleatory[:, 0]) > 1.0)
    assert rep.range_a[0, 1] == pytest.approx(frac_outside, abs=0.02)


@pytest.mark.parametrize("field", ["alpha_a", "alpha_e", "p_max"])
def test_config_rejects_nan_fractions(field):
    with pytest.raises(InputError, match=rf"{field} entries must lie in \[0, 1\]"):
        RmcConfig(**{field: [0.0, np.nan]})


def test_requires_testing_sets(circle_spec, small_data):
    with pytest.raises(InputError):
        analyze(circle_spec, np.zeros(3), small_data, ZERO_CFG)


def test_analysis_fractions_trim_draws():
    # alpha_e > 0 drops the worst epistemic draws from the upper ends
    rng = np.random.default_rng(4)
    table = rng.normal(size=(40, 10))
    table[:, -1] += 10.0  # one epistemic draw fails everything
    spec, data = _table_problem(table)
    tight = analyze(spec, np.zeros(1), data, ZERO_CFG)
    relaxed_cfg = RmcConfig(np.zeros(1), np.array([1.0 / 9.0]), sigma=0.95)
    relaxed = analyze(spec, np.zeros(1), data, relaxed_cfg)
    assert relaxed.range_a[0, 1] <= tight.range_a[0, 1]
    assert tight.range_a[0, 1] == pytest.approx(1.0)


def _two_requirement_problem():
    """The circle requirement plus a tighter copy on stretched aleatory points."""
    base = circle.make_spec()

    def stretched(th, a, e):
        return circle.circle_requirement(th, 1.2 * a, e)

    spec = ProblemSpec(
        objective=base.objective,
        requirements=[circle.circle_requirement, stretched],
        design_bounds=base.design_bounds,
        m_a=base.m_a,
        m_e=base.m_e,
    )
    return spec, circle.generate_dataset(3, 3, seed=4, n_a_test=120, n_e_test=9)


@pytest.mark.parametrize("worst_case", [False, True])
def test_scenario_fails_matches_brute_force(worst_case):
    spec, data = _two_requirement_problem()
    theta = np.array([0.3, 0.2, 2.5])
    cfg = RmcConfig(np.zeros(2), np.zeros(2), worst_case=worst_case)
    rep = analyze(spec, theta, data, cfg)
    expected = np.array([
        [
            any(float(rk(theta, a, e)) > 0.0 for e in data.testing_epistemic)
            for rk in spec.requirements
        ]
        for a in data.testing_aleatory
    ])
    assert rep.scenario_fails.dtype == bool
    assert rep.scenario_fails.shape == (data.n_a_test, 2)  # both columns, also worst-case
    assert np.array_equal(rep.scenario_fails, expected)
    assert 0 < expected[:, 0].sum() < expected[:, 1].sum() < data.n_a_test
    assert rep.range_a.shape == ((1, 2) if worst_case else (2, 2))


@pytest.mark.parametrize("worst_case", [False, True])
def test_analyze_rejects_wrong_shapes(circle_spec, tested_data, worst_case):
    cfg = RmcConfig(worst_case=worst_case)
    for theta in (np.zeros(2), np.zeros(4), np.zeros((2, 3))):
        with pytest.raises(InputError, match="theta"):
            analyze(circle_spec, theta, tested_data, cfg)
    wide = ScenarioData(  # three aleatory columns; the circle problem has two
        np.zeros((2, 3)), np.zeros((1, 3)),
        testing_aleatory=np.zeros((20, 3)), testing_epistemic=np.zeros((2, 3)),
    )
    with pytest.raises(InputError, match="testing_aleatory"):
        analyze(circle_spec, np.array([0.3, 0.2, 2.0]), wide, cfg)


@pytest.mark.parametrize("worst_case", [False, True])
def test_analyze_raises_on_nan_requirement_values(circle_spec, tested_data, worst_case):
    cfg = RmcConfig(worst_case=worst_case)
    n = tested_data.n_a_test * tested_data.n_e_test
    with pytest.raises(ArithmeticError, match=f"NaN at {n} of {n} testing grid points"):
        analyze(circle_spec, np.array([np.nan, 0.0, 1.0]), tested_data, cfg)
    # NaN on the draws whose first coordinate is below 0.1 only, in a second
    # requirement: the count covers every requirement
    spec = dataclasses.replace(circle_spec, requirements=[
        circle.circle_requirement,
        lambda th, a, e: np.where(e[..., 0] < 0.1, np.nan, -1.0) + 0.0 * a[..., 0],
    ])
    n_nan = tested_data.n_a_test * int(np.count_nonzero(tested_data.testing_epistemic[:, 0] < 0.1))
    assert 0 < n_nan < n
    with pytest.raises(ArithmeticError, match=f"NaN at {n_nan} of {2 * n} testing grid points"):
        analyze(spec, np.array([0.0, 0.0, 2.0]), tested_data, RmcConfig(worst_case=worst_case))


def _rounded_stretched(th, a, e):
    """The circle requirement on stretched points, rounded so rows tie."""
    return np.round(circle.circle_requirement(th, 1.2 * a, e), 1)


# (n_a', n_e', epistemic draws per requirement call): a 4 MiB block holds
# 2**19 grid values, so 2**19 + 1 aleatory points give one-draw blocks and
# 2**18 give two-draw blocks with a one-draw remainder
_BLOCKINGS = {
    "one_draw_blocks": (2**19 + 1, 3, [1, 1, 1]),
    "remainder_block": (2**18, 5, [2, 2, 1]),
    "single_block": (120, 9, [9]),
}


@pytest.mark.parametrize("worst_case", [False, True])
@pytest.mark.parametrize("blocking", sorted(_BLOCKINGS))
def test_streamed_analyze_matches_full_grid_oracle(circle_spec, blocking, worst_case):
    n_a_test, n_e_test, expected_draws = _BLOCKINGS[blocking]
    draws_per_call = []

    def counted(th, a, e):
        draws_per_call.append(e.shape[0])
        return circle.circle_requirement(th, a, e)

    spec = dataclasses.replace(circle_spec, requirements=[counted, _rounded_stretched])
    data = circle.generate_dataset(3, 3, seed=4, n_a_test=n_a_test, n_e_test=n_e_test)
    theta = np.array([0.3, 0.2, 2.5])
    cfg = RmcConfig(
        alpha_a=np.array([0.05, 0.0]),
        alpha_e=np.array([0.0, 0.25]),
        p_max=np.array([0.01, 0.2]),
        worst_case=worst_case,
    )
    got = analyze(spec, theta, data, cfg)
    assert draws_per_call == expected_draws
    want = analyze_full_grid(spec, theta, data, cfg)
    for field in dataclasses.fields(want):
        g, w = getattr(got, field.name), getattr(want, field.name)
        if isinstance(w, np.ndarray):
            assert g.shape == w.shape and g.dtype == w.dtype, field.name
            assert g.tobytes() == w.tobytes(), field.name
        else:
            assert g == w, field.name
    # the rounded requirement ties within a row, so the tie shift ran
    row = np.sort(_rounded_stretched(theta, data.testing_aleatory, data.testing_epistemic[0]))
    assert np.any(row[1:] == row[:-1])


def test_kept_aleatory_count_is_exact_on_a_k_over_n_fraction():
    # alpha_a = 6/7 of 7 testing points keeps one; 7 * (1 - 6/7) is
    # 1.0000000000000004 in floating point, whose ceiling would keep two
    table = np.tile(np.array([[-1.0], [1.0], [2.0], [3.0], [4.0], [5.0], [6.0]]), (1, 3))
    spec, data = _table_problem(table)
    rep = analyze(spec, np.zeros(1), data, RmcConfig(np.array([6 / 7]), np.zeros(1)))
    # the one kept value, -1, succeeds; two kept values would fail half the time
    assert np.array_equal(rep.p_by_epistemic, np.zeros((1, 3)))
    _, hi = clopper_pearson(1, 1, 0.95)
    assert rep.range_b[0, 0] == float(np.clip(1.0 - hi[0], 0.0, 1.0))


def test_kept_epistemic_count_is_exact_on_a_k_over_n_fraction():
    # alpha_e = 4/5 of 5 draws keeps one; 5 * (1 - 4/5) is
    # 0.9999999999999998 in floating point, whose floor would keep none
    spec, data = _table_problem(-np.ones((10, 5)))
    rep = analyze(spec, np.zeros(1), data, RmcConfig(np.zeros(1), np.array([4 / 5])))
    # every draw's upper failure probability 1 - 0.05**(1/10) exceeds p_max
    lo, hi = clopper_pearson(1, 1, 0.95)
    assert rep.range_d.tolist() == [[float(lo[0]), float(hi[0])]]


#: analyze's working set is bounded in its own 4 MiB blocks of grid values
_BLOCK_BYTES = montecarlo._BLOCK_FLOATS * 8


@pytest.mark.parametrize("worst_case", [False, True])
@pytest.mark.parametrize("n_r", [1, 3])
def test_analyze_peak_memory_stays_within_two_blocks(circle_spec, n_r, worst_case):
    # the sequential workload's testing grid: 20000 x 400 floats are 64 MB,
    # 15.3 blocks. One requirement's block values and their sorted copy are
    # two blocks; under worst_case the running maximum is a third while the
    # next requirement is evaluated
    data = circle.generate_dataset(3, 3, seed=2, n_a_test=20000, n_e_test=400)
    spec = dataclasses.replace(circle_spec, requirements=[circle.circle_requirement] * n_r)
    theta = np.array([0.3, 0.2, 2.5])
    cfg = RmcConfig(np.zeros(1), np.zeros(1), worst_case=worst_case)
    analyze(spec, theta, data, cfg)  # warm
    tracemalloc.start()
    try:
        analyze(spec, theta, data, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (3.5 if worst_case and n_r > 1 else 2.5) * _BLOCK_BYTES
