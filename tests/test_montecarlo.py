import dataclasses
import logging
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import beta

import scendo
from oracles import analyze_full_grid
from scendo import circle, core, montecarlo
from scendo.core import InputError, ProblemSpec, ScenarioData
from scendo.ecdf import TIE_EPS, cdf_of, strictify_sorted
from scendo.montecarlo import RmcConfig, RmcReport, analyze, clopper_pearson

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


#: values per tile of a requirement call
_TILE = core._TILE_FLOATS

# (n_a', n_e', (epistemic draws, aleatory points) per requirement call): a
# tile holds 2**14 grid values, so 2 * 2**14 + 5 aleatory points give
# one-draw blocks of three column tiles each, 2**12 give four-draw blocks
# with a two-draw remainder, and 120 x 9 values are one block and one tile
_BLOCKINGS = {
    "one_draw_blocks": (2 * _TILE + 5, 3, [(1, _TILE), (1, _TILE), (1, 5)] * 3),
    "remainder_block": (_TILE // 4, 10, [(4, _TILE // 4)] * 2 + [(2, _TILE // 4)]),
    "single_block": (120, 9, [(9, 120)]),
}


@pytest.mark.parametrize("worst_case", [False, True])
@pytest.mark.parametrize("blocking", sorted(_BLOCKINGS))
def test_streamed_analyze_matches_full_grid_oracle(circle_spec, blocking, worst_case):
    n_a_test, n_e_test, expected_calls = _BLOCKINGS[blocking]
    call_shapes = []

    def counted(th, a, e):
        call_shapes.append((e.shape[0], a.shape[1]))
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
    assert call_shapes == expected_calls
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


@st.composite
def _unsorted_blocks(draw):
    """(values, n_keep): a block of 1-3 unsorted rows of 2-400 values and a
    kept count.  Each row is a normal sample, scaled (at 0.2 its values
    lie below 1, where the tie shift is the same TIE_EPS for all, and are
    far apart) and shifted so that some rows are all negative or all
    nonnegative.  Clusters of exact and near ties are put around its lo
    (the negative value nearest zero) and hi (the smallest nonnegative
    one): copies of them, or values one or two steps away.  A step is 1,
    30, about 128 (the narrow window's edge) or about 4n (the wide
    window's) tie shifts of the anchor, TIE_EPS * max(1, |anchor|), or of
    the row's largest value, which the windows are measured in.  Some rows
    also hold a zero of either sign or an infinity."""
    n = draw(st.integers(2, 400))
    n_keep = draw(st.one_of(st.just(n), st.just(1), st.integers(1, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        scale = draw(st.sampled_from([1e-6, 0.2, 1.0, 1e4]))
        row = (rng.standard_normal(n) + draw(st.sampled_from([-4.0, -0.3, 0.0, 0.3, 4.0]))) * scale
        lo = row[row < 0].max(initial=-scale)
        hi = row[row >= 0].min(initial=scale)
        others = np.flatnonzero((row != lo) & (row != hi))  # the clusters leave lo and hi
        for _ in range(draw(st.integers(0, 4))):
            anchor = draw(st.sampled_from([lo, hi]))
            unit = TIE_EPS * max(1.0, abs(anchor) if draw(st.booleans()) else np.abs(row).max())
            step = draw(st.sampled_from([1.0, 30.0, 127.0, 129.0, 4.0 * n - 1, 4.0 * n + 1]))
            step *= draw(st.sampled_from([-1.0, 1.0])) * unit
            at = rng.choice(others, min(others.size, draw(st.integers(1, 300))), replace=False)
            k = draw(st.sampled_from([0, 1, 2, None]))  # one offset, or a mix of the three
            row[at] = anchor + step * (rng.integers(0, 3, at.size) if k is None else k)
        for special in draw(st.lists(st.sampled_from([0.0, -0.0, np.inf, -np.inf]), max_size=2)):
            row[rng.integers(n)] = special
        rows.append(row)
    return np.array(rows), n_keep


def _sorted_path(values, n_keep):
    p, m = np.empty(len(values)), np.empty(len(values), dtype=np.intp)
    montecarlo._reduce(np.sort(values, axis=-1), n_keep, p, m)
    return p, m


@settings(deadline=None)
@given(_unsorted_blocks())
def test_order_free_reduction_is_the_sorted_paths_bit_for_bit(case):
    values, n_keep = case
    with np.errstate(all="ignore"):  # the sorted path's shifts of infinities are NaN
        for r, row in enumerate(values):  # each row the guard admits, whole
            got = montecarlo._order_free(row)
            if got is not None:
                p, m = _sorted_path(values[r : r + 1], values.shape[1])
                assert np.array([got[0]]).tobytes() == p.tobytes() and got[1] == m[0]
        # the block, trimmed or not, with rows of any length admitted
        want_p, want_m = _sorted_path(values, n_keep)
        p, m = np.empty(len(values)), np.empty(len(values), dtype=np.intp)
        with mock.patch.object(montecarlo, "_ORDER_FREE_MIN", 2):
            montecarlo._reduce_unsorted(values.copy(), n_keep, p, m)
    assert p.tobytes() == want_p.tobytes() and m.tolist() == want_m.tolist()


@pytest.mark.parametrize("signs, copies, steps, admitted", [
    ("mixed", 40, 30, False),  # inside the narrow window: the last copy ends above lo
    ("mixed", 200, 129, False),  # past the narrow window, too many to stay below lo
    ("mixed", 60, 129, True),  # past the narrow window and fewer than 64: they stay below
    ("negative", 40, 1, False),  # they raise lo, 20 shifts below zero, above zero
    ("negative", 60, 129, True),
])
def test_order_free_guard_on_a_run_of_copies_below_lo(signs, copies, steps, admitted):
    # values below 1 take the same tie shift TIE_EPS, in which the guard's
    # windows are measured; the row's first `copies` values are set
    # `steps` shifts below lo
    if signs == "mixed":
        row = np.linspace(-0.9, 0.9, 1000) + 0.001
    else:
        row = np.linspace(-0.9, -0.1, 1000)
        row[-1] = -20 * TIE_EPS
    lo = row[row < 0].max()
    row[:copies] = lo - steps * TIE_EPS
    p, m = _sorted_path(row[None], row.size)
    got = montecarlo._order_free(row)
    assert (got is not None) == admitted
    if admitted:
        assert np.array([got[0]]).tobytes() == p.tobytes() and got[1] == m[0]
    else:  # the run moved lo: the count and knots of the unsorted row would be wrong
        strict = strictify_sorted(np.sort(row))
        assert strict[strict < 0].max() != lo


@pytest.mark.parametrize("worst_case", [False, True])
@pytest.mark.parametrize("requirement", ["circle", "rounded_stretched"])
def test_report_is_the_same_with_every_row_on_the_sorted_path(circle_spec, caplog, requirement,
                                                             worst_case):
    # 3000 x 20 grid points: blocks of five draw rows, long enough for the
    # order-free path; the rounded requirement ties within its rows
    spec = dataclasses.replace(circle_spec, requirements={
        "circle": [circle.circle_requirement] * 2,
        "rounded_stretched": [_rounded_stretched, circle.circle_requirement],
    }[requirement])
    data = circle.generate_dataset(3, 3, seed=4, n_a_test=3000, n_e_test=20)
    theta = np.array([0.3, 0.2, 2.5])
    cfg = RmcConfig(np.zeros(1), np.array([0.1]), worst_case=worst_case)
    reports, logs = [], []
    for order_free in (montecarlo._order_free, lambda row: None):
        caplog.clear()
        with mock.patch.object(montecarlo, "_order_free", order_free):
            with caplog.at_level(logging.DEBUG, logger="scendo.montecarlo"):
                reports.append(analyze(spec, theta, data, cfg))
        logs.append(caplog.records[-1].getMessage().rsplit(", ", 1)[1])
    n_rows = 20 if worst_case else 40
    assert logs[1] == f"{n_rows} of {n_rows} draw rows sorted"
    if requirement == "circle":  # untied rows: the guard admits every one
        assert logs[0] == f"0 of {n_rows} draw rows sorted"
    for field in dataclasses.fields(RmcReport):
        got, want = getattr(reports[0], field.name), getattr(reports[1], field.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field.name
        else:
            assert got == want, field.name


@pytest.mark.parametrize("n_a_test, n_e_test, blocks", [
    (2 * _TILE + 5, 3, "3 blocks of up to 1 draws, 3 tiles per block, 18 requirement calls"),
    (_TILE // 4, 10, "3 blocks of up to 4 draws, 1 tiles per block, 6 requirement calls"),
])
def test_analyze_logs_its_blocks_tiles_and_requirement_calls(circle_spec, caplog, n_a_test,
                                                             n_e_test, blocks):
    spec = dataclasses.replace(circle_spec, requirements=[circle.circle_requirement] * 2)
    data = circle.generate_dataset(3, 3, seed=4, n_a_test=n_a_test, n_e_test=n_e_test)
    with caplog.at_level(logging.DEBUG, logger="scendo.montecarlo"):
        analyze(spec, np.array([0.3, 0.2, 2.5]), data, ZERO_CFG)
    lines = [r.getMessage() for r in caplog.records if r.name == "scendo.montecarlo"]
    # the circle's values hold no ties, so no draw row of either requirement is sorted
    sorted_rows = f"0 of {2 * n_e_test} draw rows sorted"
    assert lines == [f"analyze: {n_a_test} x {n_e_test} testing grid points, {blocks}, {sorted_rows}"]


@pytest.mark.parametrize("alpha_a,alpha_e,trim", [
    (1.0, 0.0, "aleatory"), (0.0, 1.0, "epistemic"), (0.0, 0.99, "epistemic"),
], ids=["aleatory", "epistemic", "epistemic-0.99-of-40"])
def test_trim_that_keeps_nothing_is_rejected_before_the_grid(circle_spec, alpha_a, alpha_e, trim):
    calls = []

    def counted(th, a, e):
        calls.append(1)
        return circle.circle_requirement(th, a, e)

    spec = dataclasses.replace(circle_spec, requirements=[counted])
    data = circle.generate_dataset(3, 3, seed=4, n_a_test=300, n_e_test=40)
    cfg = RmcConfig(np.array([alpha_a]), np.array([alpha_e]))
    with pytest.raises(InputError, match=f"trimmed {trim} sequence is empty"):
        analyze(spec, np.array([0.3, 0.2, 2.0]), data, cfg)
    assert calls == []


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


#: analyze's working set is bounded in tiles of grid values (128 KiB)
_TILE_BYTES = _TILE * 8


def _warm_peak(call) -> int:
    """tracemalloc's peak over a second call of ``call``, the first warming it."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("worst_case", [False, True])
@pytest.mark.parametrize("n_r", [1, 3])
def test_analyze_peak_memory_stays_within_two_blocks(circle_spec, n_r, worst_case):
    # the sequential workload's testing grid: 20000 x 400 floats are 64 MB,
    # 488 tiles. A block is one draw, and the buffer holds its 20000 values
    # (1.2 tiles) for every requirement and for worst_case's running
    # maximum; the circle kernels hold two tile-sized arrays while they run,
    # and the failure table is n_r bools a point
    data = circle.generate_dataset(3, 3, seed=2, n_a_test=20000, n_e_test=400)
    spec = dataclasses.replace(circle_spec, requirements=[circle.circle_requirement] * n_r)
    theta = np.array([0.3, 0.2, 2.5])
    cfg = RmcConfig(np.zeros(1), np.zeros(1), worst_case=worst_case)
    assert _warm_peak(lambda: analyze(spec, theta, data, cfg)) < 4.5 * _TILE_BYTES


@pytest.mark.parametrize("alpha_a", [0.0, 0.05])
def test_analyze_peak_memory_on_tied_values(circle_spec, alpha_a):
    # values rounded to 0.1 tie within every row, so the tie shift of
    # ecdf.strictify_sorted builds its run ranks and shifts, one row-sized
    # temporary at a time: about 2 tiles of a 20000-value row on top of the
    # untied working set
    data = circle.generate_dataset(3, 3, seed=2, n_a_test=20000, n_e_test=400)
    spec = dataclasses.replace(circle_spec, requirements=[
        lambda th, a, e: np.round(circle.circle_requirement(th, a, e), 1)
    ])
    theta = np.array([0.3, 0.2, 2.5])
    cfg = RmcConfig(np.array([alpha_a]), np.zeros(1))
    assert _warm_peak(lambda: analyze(spec, theta, data, cfg)) < 6 * _TILE_BYTES
