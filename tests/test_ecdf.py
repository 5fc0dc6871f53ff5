import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import SNAP, interpolant_cdf, interpolant_quantile, quantile_reference, strictify_rows
from scendo.core import InputError
from scendo.ecdf import cdf_of, quantile_of, sorted_cdf, sorted_quantile, strictify_sorted
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
    # with no tie.  The bits are the documented rule's, and the run ranks
    # and shifts take memory for the two tied rows only, not the batch
    rng = np.random.default_rng(7)
    batch = rng.normal(size=(64, 2048))
    batch[3, :4] = [-0.0, 0.0, -0.0, 0.0]
    batch[40, :3] = [1.0, 1.0, 1.0 + 2.0**-50]
    batch[41, 0] = -0.0
    batch = np.sort(batch, axis=1)
    want = np.array(strictify_rows(batch.tolist()))
    _same_bits(strictify_sorted(batch), want)
    tracemalloc.start()
    try:
        strictify_sorted(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * batch.nbytes


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
