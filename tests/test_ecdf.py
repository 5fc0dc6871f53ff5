import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import interpolant_cdf, interpolant_quantile, quantile_reference, strictify_rows
from scendo.core import InputError
from scendo.ecdf import EmpiricalCdf, cdf_of, quantile_of, sorted_cdf, sorted_quantile


def test_build_sorts():
    assert np.array_equal(EmpiricalCdf.build([3, 1, 2]).values, [1.0, 2.0, 3.0])


def test_build_breaks_ties_deterministically():
    f = EmpiricalCdf.build([1, 1, 2])
    assert f.values[0] == 1.0
    assert f.values[1] == pytest.approx(1.0 + 1e-9, rel=1e-6)
    assert f.values[2] == 2.0
    assert np.all(np.diff(f.values) > 0)


def test_build_two_points():
    assert np.array_equal(EmpiricalCdf.build([5, -5]).values, [-5.0, 5.0])


def test_build_rejects_bad_input():
    with pytest.raises(InputError):
        EmpiricalCdf.build([1.0])
    with pytest.raises(InputError):
        EmpiricalCdf.build([1.0, np.nan])


def test_cdf_hand_values():
    f = EmpiricalCdf.build([1, 2, 4])
    assert f.cdf(0) == 0.0
    assert f.cdf(3.0) == pytest.approx(0.75, abs=1e-15)
    assert f.cdf(10) == 1.0
    assert f.cdf(4.0) == 1.0  # upper knot


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cdf_far_outside_close_knots_raises_no_warning():
    # (z - lo) / (hi - lo) overflows unless z is clipped into the segment first
    rows = np.array([[0.0, 1e-300, 2e-300]])
    assert sorted_cdf(rows, 1e10)[0] == 1.0
    assert sorted_cdf(rows, -1e10)[0] == 0.0


def test_quantile_hand_values():
    f = EmpiricalCdf.build([1, 2, 4])
    assert f.quantile(0.0) == 1.0
    assert f.quantile(0.75) == pytest.approx(3.0, abs=1e-15)
    assert f.quantile(1.0) == 4.0


def test_quantile_grid_levels_exact():
    # a level on the grid i/(n-1) returns the sample itself, no round-off
    vals = np.array([-3.0, 0.1, 0.7, 5.0, 9.0])
    f = EmpiricalCdf.build(vals)
    for i in range(5):
        assert f.quantile(i / 4) == vals[i]


def test_quantile_rejects_bad_level():
    f = EmpiricalCdf.build([1, 2, 4])
    with pytest.raises(InputError):
        f.quantile(1.5)
    with pytest.raises(InputError):
        f.quantile(-0.1)


def test_round_trip_identity():
    rng = np.random.default_rng(1)
    for _ in range(300):
        n = int(rng.integers(2, 51))
        f = EmpiricalCdf.build(rng.normal(size=n) * rng.uniform(0.1, 20))
        alpha = rng.uniform(1e-6, 1 - 1e-6, size=17)
        back = f.cdf(f.quantile(alpha))
        assert np.max(np.abs(back - alpha)) < 1e-12


#: strictly increasing rows: a start plus positive gaps, so every segment
#: is wide enough for the round trip to hold to a fixed tolerance
_increasing_rows = st.builds(
    lambda start, gaps: start + np.cumsum([0.0] + gaps),
    st.floats(-100.0, 100.0),
    st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=40),
)


@settings(max_examples=200, deadline=None)
@given(_increasing_rows, st.lists(st.floats(0.0, 1.0), min_size=1, max_size=9))
def test_quantile_cdf_round_trip_property(row, levels):
    alpha = np.array(levels)
    assert np.max(np.abs(cdf_of(row, quantile_of(row, alpha)) - alpha)) < 1e-9
    z = quantile_of(row, alpha)
    assert np.max(np.abs(quantile_of(row, cdf_of(row, z)) - z)) < 1e-9


def test_monotonicity():
    rng = np.random.default_rng(2)
    f = EmpiricalCdf.build(rng.normal(size=25))
    z = np.linspace(-4, 4, 200)
    assert np.all(np.diff(f.cdf(z)) >= 0)
    a = np.linspace(0, 1, 200)
    assert np.all(np.diff(f.quantile(a)) >= 0)


def test_index_rule_matches_argmin_reference():
    # floor-based segment index == the literal argmin rule, n <= 12, fine grid
    rng = np.random.default_rng(3)
    for n in range(2, 13):
        vals = np.sort(rng.normal(size=n))
        f = EmpiricalCdf.build(vals)
        for alpha in np.linspace(0.0, 1.0, 241):
            assert f.quantile(alpha) == pytest.approx(
                quantile_reference(vals, alpha), abs=1e-12
            )


def test_quantile_is_differentiable_in_parameters():
    # samples z_i(t) = base_i + t * slope_i: away from reorderings the
    # quantile is linear, so central differences match the exact slope
    base = np.array([0.0, 1.0, 3.0, 6.0])
    slope = np.array([0.5, -0.2, 0.8, 0.1])
    alpha = 0.55

    def q(t):
        return EmpiricalCdf.build(base + t * slope).quantile(alpha)

    h = 1e-6
    fd = (q(h) - q(-h)) / (2 * h)
    i = int(np.floor(alpha * 3))  # ordering is stable near t = 0
    frac = alpha * 3 - i
    exact = (1 - frac) * slope[i] + frac * slope[i + 1]
    assert fd == pytest.approx(exact, abs=1e-6)


def test_batched_rows_match_single_rows():
    rng = np.random.default_rng(4)
    mat = rng.normal(size=(6, 9))
    levels = rng.uniform(size=6)
    got = quantile_of(mat, levels)
    for i in range(6):
        assert got[i] == quantile_of(mat[i], levels[i])
    z = 0.3
    got_cdf = cdf_of(mat, z)
    for i in range(6):
        assert got_cdf[i] == cdf_of(mat[i], z)


def test_single_sample_degenerate_row():
    assert sorted_quantile(np.array([[2.5]]), 0.7)[0] == 2.5
    assert float(quantile_of(np.array([4.0]), 0.0)) == 4.0


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf, -1e-12, 1.0 + 1e-12, [0.5, np.nan]])
def test_bad_level_value_raises_input_error(alpha):
    for values in (np.arange(4.0), np.arange(8.0).reshape(2, 4), np.ones((2, 1))):
        with pytest.raises(InputError):
            sorted_quantile(values, alpha)
        with pytest.raises(InputError):
            quantile_of(values, alpha)


@pytest.mark.parametrize(
    "lead,shape",
    [((2,), (3,)), ((3, 4), (4, 1)), ((3, 4), (2, 3, 4)), ((3, 4), (3,)), ((2, 1), (2, 2))],
)
def test_level_not_broadcasting_to_the_rows_raises_input_error(lead, shape):
    for n in (1, 5):
        values = np.sort(np.random.default_rng(5).normal(size=lead + (n,)), axis=-1)
        with pytest.raises(InputError, match="broadcast"):
            sorted_quantile(values, np.full(shape, 0.5))
        with pytest.raises(InputError, match="broadcast"):
            quantile_of(values, np.full(shape, 0.5))


def _levels(n: int):
    """Levels on and off the grid, including 1 - j/(n-1), which misses the
    grid point by an ulp for several n and so needs the snap."""
    grid = st.integers(0, max(n - 1, 1)).map(lambda i: i / max(n - 1, 1))
    return st.one_of(
        st.sampled_from([0.0, 1.0]), grid, grid.map(lambda a: 1.0 - a), st.floats(0.0, 1.0)
    )


@st.composite
def _ecdf_cases(draw):
    """(values, levels, points) with 0-3 leading dims, rows of 1-12
    samples drawn partly from a small pool (ties), and levels and points
    that are scalar, per row, or per leading row ((n_r, 1))."""
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=3)))
    n = draw(st.integers(1, 12))
    pool = draw(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=3))
    entry = st.one_of(st.sampled_from(pool), st.floats(-1e3, 1e3))
    size = int(np.prod(lead, dtype=int)) * n
    values = np.array(draw(st.lists(entry, min_size=size, max_size=size))).reshape(lead + (n,))
    if lead:
        shape = draw(st.sampled_from([(), lead, lead[:-1] + (1,)]))
    else:  # a single row takes levels of any shape
        shape = draw(st.sampled_from([(), (1,), (4,)]))
    count = int(np.prod(shape, dtype=int))
    levels = np.array(draw(st.lists(_levels(n), min_size=count, max_size=count))).reshape(shape)
    point = st.one_of(st.sampled_from(values.ravel().tolist()), entry)
    points = np.array(draw(st.lists(point, min_size=count, max_size=count))).reshape(shape)
    return values, levels, points


def _row_by_row(rows, lead, args, interpolant):
    shape = np.broadcast_shapes(lead, args.shape)
    args = np.broadcast_to(args, shape)
    out = np.empty(shape)
    for idx in np.ndindex(*shape):
        row = rows[int(np.ravel_multi_index(idx, lead)) if lead else 0]
        out[idx] = interpolant(row, float(args[idx]))
    return out


def _same_bits(got, expected):
    got = np.asarray(got)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=300, deadline=None)
@given(_ecdf_cases())
def test_kernel_matches_row_by_row_interpolant_bit_for_bit(case):
    values, levels, points = case
    lead, n = values.shape[:-1], values.shape[-1]
    rows = strictify_rows([sorted(r) for r in values.reshape(-1, n).tolist()])
    sorted_rows = np.array(rows).reshape(values.shape)
    want_q = _row_by_row(rows, lead, levels, interpolant_quantile)
    want_c = _row_by_row(rows, lead, points, interpolant_cdf)
    _same_bits(sorted_quantile(sorted_rows, levels), want_q)
    _same_bits(quantile_of(values, levels), want_q)
    _same_bits(sorted_cdf(sorted_rows, points), want_c)
    _same_bits(cdf_of(values, points), want_c)
