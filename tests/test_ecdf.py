import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import SNAP, interpolant_cdf, interpolant_quantile, quantile_reference, strictify_rows
from scendo import ecdf, montecarlo, programs
from scendo.core import InputError
from scendo.ecdf import TIE_EPS, cdf_of, quantile_of, sorted_cdf, sorted_quantile, strictify_sorted
from scendo.weights import sorted_fractions


def _build(samples) -> np.ndarray:
    """The sorted, tie-broken knots that ``quantile_of`` and ``cdf_of`` use."""
    return strictify_sorted(np.sort(np.asarray(samples, dtype=float), kind="stable"))


def test_build_sorts():
    assert np.array_equal(_build([3, 1, 2]), [1.0, 2.0, 3.0])


def test_build_breaks_ties_deterministically():
    values = _build([1, 1, 2])
    assert values[0] == 1.0
    assert values[1] == pytest.approx(1.0 + 1e-9, rel=1e-6)
    assert values[2] == 2.0
    assert np.all(np.diff(values) > 0)


def test_build_two_points():
    assert np.array_equal(_build([5, -5]), [-5.0, 5.0])


def test_cdf_hand_values():
    samples = [1, 2, 4]
    assert cdf_of(samples, 0) == 0.0
    assert cdf_of(samples, 3.0) == pytest.approx(0.75, abs=1e-15)
    assert cdf_of(samples, 10) == 1.0
    assert cdf_of(samples, 4.0) == 1.0  # upper knot


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cdf_far_outside_close_knots_raises_no_warning():
    # (z - lo) / (hi - lo) overflows unless z is clipped into the segment first
    rows = np.array([[0.0, 1e-300, 2e-300]])
    assert sorted_cdf(rows, 1e10)[0] == 1.0
    assert sorted_cdf(rows, -1e10)[0] == 0.0


def test_quantile_hand_values():
    samples = [1, 2, 4]
    assert quantile_of(samples, 0.0) == 1.0
    assert quantile_of(samples, 0.75) == pytest.approx(3.0, abs=1e-15)
    assert quantile_of(samples, 1.0) == 4.0


def test_quantile_grid_levels_exact():
    # a level on the grid i/(n-1) returns the sample itself, no round-off
    vals = np.array([-3.0, 0.1, 0.7, 5.0, 9.0])
    for i in range(5):
        assert quantile_of(vals, i / 4) == vals[i]


def test_quantile_rejects_bad_level():
    samples = [1, 2, 4]
    with pytest.raises(InputError):
        quantile_of(samples, 1.5)
    with pytest.raises(InputError):
        quantile_of(samples, -0.1)


def test_round_trip_identity():
    rng = np.random.default_rng(1)
    for _ in range(300):
        n = int(rng.integers(2, 51))
        samples = rng.normal(size=n) * rng.uniform(0.1, 20)
        alpha = rng.uniform(1e-6, 1 - 1e-6, size=17)
        back = cdf_of(samples, quantile_of(samples, alpha))
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
    samples = rng.normal(size=25)
    z = np.linspace(-4, 4, 200)
    assert np.all(np.diff(cdf_of(samples, z)) >= 0)
    a = np.linspace(0, 1, 200)
    assert np.all(np.diff(quantile_of(samples, a)) >= 0)


def test_index_rule_matches_argmin_reference():
    # floor-based segment index == the literal argmin rule, n <= 12, fine grid
    rng = np.random.default_rng(3)
    for n in range(2, 13):
        vals = np.sort(rng.normal(size=n))
        for alpha in np.linspace(0.0, 1.0, 241):
            assert quantile_of(vals, alpha) == pytest.approx(
                quantile_reference(vals, alpha), abs=1e-12
            )


def test_quantile_is_differentiable_in_parameters():
    # samples z_i(t) = base_i + t * slope_i: away from reorderings the
    # quantile is linear, so central differences match the exact slope
    base = np.array([0.0, 1.0, 3.0, 6.0])
    slope = np.array([0.5, -0.2, 0.8, 0.1])
    alpha = 0.55

    def q(t):
        return quantile_of(base + t * slope, alpha)

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


@pytest.mark.parametrize("lead", [(), (3,), (2, 1)])
@pytest.mark.parametrize("arg", [0.0, 1.0, 0.5, [0.2, 0.7]])
def test_rows_of_no_samples_raise_input_error(lead, arg):
    # not a ZeroDivisionError from the knots' row offsets
    values = np.empty(lead + (0,))
    for fn in (sorted_quantile, sorted_cdf, quantile_of, cdf_of):
        with pytest.raises(InputError, match="rows must hold at least one sample"):
            fn(values, arg if not lead or np.ndim(arg) == 0 else arg[0])


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


@pytest.mark.parametrize("z", [np.nan, [0.5, np.nan, 0.1]])
def test_nan_point_raises_input_error(z):
    # +-inf are valid points, with CDF 0 and 1; a NaN has no CDF value
    for values in (np.arange(3.0), np.arange(9.0).reshape(3, 3), np.ones((3, 1))):
        assert np.array_equal(sorted_cdf(values, -np.inf), np.zeros(values.shape[:-1]))
        assert np.array_equal(cdf_of(values, np.inf), np.ones(values.shape[:-1]))
        with pytest.raises(InputError, match="NaN"):
            sorted_cdf(values, z)
        with pytest.raises(InputError, match="NaN"):
            cdf_of(values, z)


@pytest.mark.parametrize(
    "lead,shape",
    [((3,), (4,)), ((3, 5), (5, 1)), ((3, 5), (2, 3, 5)), ((3, 5), (3,)), ((2, 1), (2, 2))],
)
def test_point_not_broadcasting_to_the_rows_raises_input_error(lead, shape):
    for n in (1, 5):
        values = np.sort(np.random.default_rng(6).normal(size=lead + (n,)), axis=-1)
        with pytest.raises(InputError, match="broadcast"):
            sorted_cdf(values, np.zeros(shape))
        with pytest.raises(InputError, match="broadcast"):
            cdf_of(values, np.zeros(shape))


def test_strictify_sorted_shifts_only_the_tied_rows():
    # 64 rows of 2048: row 3 ties -0.0 with +0.0, row 40 holds near-
    # duplicates closer than the tie shift (the walk), row 41 holds -0.0
    # with no tie.  The bits are the documented rule's: row 3's zeros
    # become +0.0 and row 41 keeps its -0.0, as do the other untied rows
    # their bits.  The run ranks and shifts take memory for the two tied
    # rows only, not the batch
    rng = np.random.default_rng(7)
    batch = rng.normal(size=(64, 2048))
    batch[3, :4] = [-0.0, 0.0, -0.0, 0.0]
    batch[40, :3] = [1.0, 1.0, 1.0 + 2.0**-50]
    batch[41, 0] = -0.0
    batch = np.sort(batch, axis=1)
    want = np.array(strictify_rows(batch.tolist()))
    got = strictify_sorted(batch)
    _same_bits(got, want)
    assert np.signbit(got[41]).sum() == np.signbit(batch[41]).sum()
    assert not np.signbit(got[3][got[3] == 0.0]).any()
    untied = np.setdiff1d(np.arange(64), [3, 40])
    _same_bits(got[untied], batch[untied])
    tracemalloc.start()
    try:
        strictify_sorted(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * batch.nbytes


def test_a_rows_quantile_does_not_depend_on_the_other_rows():
    # the first row holds -0.0 and no tie; the second row's tie once made
    # the shift add +0.0 to every row of the batch, turning it into +0.0
    batch = np.array([[-1.0, -2.0, -0.0], [1.0, 1.0, 2.0]])
    for level in (1.0, np.array([1.0, 1.0])):
        got = quantile_of(batch, level)
        _same_bits(got[:1], quantile_of(batch[:1], np.ones(1)))
        assert got[0] == 0.0 and np.signbit(got[0])
    _same_bits(cdf_of(batch, -0.0)[:1], cdf_of(batch[:1], -0.0))


@pytest.mark.parametrize(
    "layout",
    [
        np.asfortranarray,
        lambda b: np.ascontiguousarray(b.transpose(1, 0, 2)).transpose(1, 0, 2),
    ],
    ids=["fortran", "transposed"],
)
def test_strictify_sorted_shifts_rows_of_any_layout(layout):
    # a sorted (2, 3, 6) batch with a tie, laid out so that a copy of it made
    # in the input's own order (np.sort and ufuncs keep it) is not C-ordered;
    # every layout gives the C-ordered batch's bits, strictly increasing
    batch = np.sort(np.random.default_rng(8).normal(size=(2, 3, 6)), axis=-1)
    batch[:, :, 1] = batch[:, :, 0]
    batch = layout(batch)
    assert not batch.flags.c_contiguous
    want = strictify_sorted(np.ascontiguousarray(batch))
    assert (np.diff(want, axis=-1) > 0).all()
    _same_bits(strictify_sorted(batch), want)
    for level in (0.0, 0.1, 1.0):
        _same_bits(quantile_of(batch, level), sorted_quantile(want, level))


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


@st.composite
def _signed_zero_batches(draw):
    """(batch, levels, points): 1-4 rows of 1-64 samples that mix -0.0,
    +0.0, repeated values and distinct values, so the default sort and the
    stable one leave equal zeros in different orders."""
    n_rows, n = draw(st.integers(1, 4)), draw(st.integers(1, 64))
    pool = [-0.0, 0.0] + draw(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=3))
    entry = st.one_of(st.sampled_from(pool), st.floats(-1e3, 1e3))
    batch = np.array(draw(st.lists(entry, min_size=n_rows * n, max_size=n_rows * n)))
    levels = np.array(draw(st.lists(_levels(n), min_size=n_rows, max_size=n_rows)))
    points = np.array([-0.0, 0.0, draw(st.sampled_from(pool)), draw(entry)])
    return batch.reshape(n_rows, n), levels, points


@settings(max_examples=300, deadline=None)
@given(_signed_zero_batches())
def test_default_sort_gives_the_stable_sorts_bits(case):
    # the helpers sort with numpy's default kind; strictify_sorted erases
    # the order it leaves equal zeros in, so every result carries the bits
    # of the same steps run on a stable sort
    batch, levels, points = case
    knots = _build(batch)
    _same_bits(sorted_fractions(batch), knots)
    _same_bits(quantile_of(batch, levels), sorted_quantile(knots, levels))
    for z in points:
        _same_bits(cdf_of(batch, z), sorted_cdf(knots, z))


@st.composite
def _one_level_cases(draw):
    """(rows, level, shape): sorted, tie-broken rows of 2-12 samples with
    0-3 leading dims, drawn partly from a pool holding -0.0 and +0.0
    (ties), one level (-0.0, 0, 1, on the grid i/(n-1), within about _SNAP
    of it, or anywhere in [0, 1]) and a level shape of (), (1,) or (1, 1)
    that broadcasts to the rows."""
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=3)))
    n = draw(st.integers(2, 12))
    pool = [-0.0, 0.0] + draw(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=3))
    entry = st.one_of(st.sampled_from(pool), st.floats(-1e3, 1e3))
    size = int(np.prod(lead, dtype=int)) * n
    values = np.array(draw(st.lists(entry, min_size=size, max_size=size))).reshape(lead + (n,))
    near_grid = st.builds(
        lambda i, d: min(max(i / (n - 1) + d, 0.0), 1.0),
        st.integers(0, n - 1),
        st.floats(-2 * SNAP, 2 * SNAP),
    )
    level = draw(st.one_of(st.sampled_from([-0.0, 0.0, 1.0]), _levels(n), near_grid))
    shape = draw(st.sampled_from([s for s in [(), (1,), (1, 1)] if not lead or len(s) <= len(lead)]))
    return strictify_sorted(np.sort(values, axis=-1)), level, shape


@settings(deadline=None)
@given(_one_level_cases())
# an untied row ending in -0.0: at level 1 the upper knot itself, not
# lo + (hi - lo) * 1.0, which gives +0.0
@example(case=(np.array([[-1.0, -0.0]]), 1.0, ()))
# an untied row starting with -0.0 at level -0.0: t = -0.0 keeps its sign
# through the snap, as np.rint keeps it, so the lower knot stays -0.0
@example(case=(np.array([[-0.0, 1.0]]), -0.0, ()))
def test_one_level_path_matches_the_array_path_bit_for_bit(case):
    # a second copy of the rows makes the reference's level array two
    # entries long, so the reference takes the array path; its first copy
    # has the one-level result's shape (the level's own for 1-D rows)
    rows, level, shape = case
    lead = rows.shape[:-1]
    twice = np.stack([rows, rows])
    want = sorted_quantile(twice, np.full((2,) + lead, level))[:1]
    want = want.reshape(np.broadcast_shapes(lead, shape))
    exact = level in (0.0, 1.0) and not np.signbit(level)  # int(-0.0) is level +0.0
    for alpha in (level, np.full(shape, level)) + ((int(level),) if exact else ()):
        got = sorted_quantile(rows, alpha)
        assert type(got) is np.ndarray
        _same_bits(got, want if np.ndim(alpha) else want.reshape(lead))


# ---------------------------------------------------------------------------
# the sort-free paths: each guard admits only what the sorted path gives
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
    NaN.  M sits in one cell, sometimes in two (a tie at the top); some
    grids are one pool value but for M, some hold distinct values below
    M (no tie, so a -0.0 M keeps its sign when sorted), and some rows are
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
        window = ecdf._TOP_WINDOW * n * TIE_EPS * max(1.0, 2.0 * abs(top))
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
    window = ecdf._TOP_WINDOW * n * TIE_EPS * max(1.0, 2.0 * abs(top))
    grid = np.full((1, 1, n, n), top - fraction * window)
    grid[..., -1, -1] = top
    return grid


@settings(deadline=None)
@given(_top_grids())
# a -0.0 top in an untied row, beside a tied row: it stays -0.0 when sorted
@example(values=np.array([[[[-1.0, -1.0], [-2.0, -0.0]]]]))
# a -0.0 top in a tied row, and alone in a one-sample grid: the sorted path
# writes +0.0, so the guard rejects a zero top
@example(values=np.array([[[[-1.0, -1.0, -0.0]]]]))
@example(values=np.array([[[[-0.0]]]]))
# a row of -inf: its tie shift is NaN, which tops the row of scenario tops
@example(values=np.array([[[[-np.inf, -np.inf], [-2.0, 3.0]]]]))
# a -0.0 top in a design of distinct values, rejected and sorted without
# the batch's other design, which holds a tie: it keeps its -0.0
@example(values=np.array([[[[-1.0, -1.0], [-2.0, 3.0]]], [[[-1.0, -2.0], [-3.0, -0.0]]]]))
# ties just outside W: their shifts through both levels stay below M, and
# would reach it from just outside a window an eighth as wide
@example(values=_run_below_top(0.25, 1.2, 7))
def test_guarded_tops_are_the_nested_quantiles_bit_for_bit(values):
    with np.errstate(all="ignore"):  # the sorted path's shifts of infinities are NaN
        want = _nested_tops(values)
        top, admitted = ecdf._guarded_tops(values)
        got, n_sorted = programs._zero_discard_tops(values, _nested_tops)
    assert top[admitted].tobytes() == want[admitted].tobytes()
    assert got.tobytes() == want.tobytes()
    # the zero-discard constraint sorts the designs the guard rejects, and no other
    assert n_sorted == int(np.count_nonzero(~admitted.all(axis=-1)))


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


@settings(deadline=None)
@given(_unsorted_blocks())
def test_order_free_reduction_is_the_sorted_paths_bit_for_bit(case):
    values, n_keep = case
    with np.errstate(all="ignore"):  # the sorted path's shifts of infinities are NaN
        for row in values:  # each row the guard admits, whole
            got = ecdf._order_free(row)
            if got is not None:
                assert float(got[0]).hex() == float(cdf_of(row, 0.0)).hex()
                assert got[1] == np.count_nonzero(row <= 0.0)
        # analyze's reduction of the block, trimmed or not, with rows of any
        # length admitted
        want_p, want_m = np.empty(len(values)), np.empty(len(values), dtype=np.intp)
        montecarlo._reduce(np.sort(values, axis=-1), n_keep, want_p, want_m)
        p, m = np.empty(len(values)), np.empty(len(values), dtype=np.intp)
        with mock.patch.object(montecarlo, "_ORDER_FREE_MIN", 2):
            montecarlo._reduce_unsorted(values.copy(), n_keep, p, m)
    assert p.tobytes() == want_p.tobytes() and m.tolist() == want_m.tolist()


