"""Piecewise-linear empirical CDF and its inverse.

For a strictly increasing sample z_1 < ... < z_n the CDF is approximated by
the continuous interpolant through the knots (z_i, (i-1)/(n-1)):

    F(z) = 0                                        for z <= z_1
    F(z) = (i - 1 + (z - z_i)/(z_{i+1} - z_i))/(n-1) for z_i < z <= z_{i+1}
    F(z) = 1                                        for z >  z_n

and the quantile function is its exact inverse, linear on each segment with
F^{-1}(0) = z_1 and F^{-1}(1) = z_n.  Both are differentiable in any
parameter the samples depend smoothly on, except where the sample ordering
changes.  Duplicated samples are separated deterministically (see
``strictify_sorted``) so the interpolant is always well defined.

The helpers operate on the last axis of arbitrary-shaped arrays; they
are the single quantile/CDF primitive used by every scenario program, the
weight rule, and the Monte Carlo analysis.

Cost model.  The solvers call these helpers tens of thousands of times on
batches of a few short rows, so the fixed cost per call dominates.  Nearly
every call passes ``sorted_quantile`` one level: a Python number or a
size-1 array.  For such a level in [0, 1] on rows of two or more samples
the kernel does the index arithmetic (position t = alpha*(n-1), grid snap,
segment index and fraction) once, on Python floats with the same IEEE
operations as the array path, and reads both knots as basic slices
``values[..., i]`` and ``values[..., i + 1]``: no index array, no gather.
Every other level (one per leading row, or one that is out of range, NaN
or does not broadcast) and single-sample rows take the array path.  It
validates the level with one reduction, does the index arithmetic at the
level's own shape, never broadcast over every row, and reads both knots
of each row through one flat index into the C-ordered rows: row offset
plus segment index, and that plus one.  Rows that are not C-contiguous
are copied once by that flattening, so callers with long rows hand them
over C-ordered.  Both paths give the same type, shape and bits.

``quantile_of`` and ``cdf_of`` sort with numpy's default float sort,
which dispatches to SIMD kernels where the CPU has them, and not with the
stable kind, several times slower on the same rows.  The two kinds order
equal values differently, and on finite rows (``scendo.core`` admits no
NaN) only equal zeros of opposite sign differ in their bits.  A row that
holds both -0.0 and +0.0 holds a tie, so ``strictify_sorted`` shifts that
row and writes each of its zeros as +0.0 or its tie offset, whichever
order the sort left them in; an untied row holds zeros of one sign and
keeps them: the results carry the same bits under either kind.

Sort-free paths.  The zero-discard scenario program reads each grid's
nested quantile at level 1 (``_guarded_tops``), and ``analyze`` a row's
CDF at 0 (``_order_free``), with a few reductions of the unsorted values,
behind a guard whose proof rests on the shift lemma of
``strictify_sorted``.  Their callers (``programs._zero_discard_tops``,
``montecarlo._reduce_unsorted``) sort what a guard rejects.
"""

from __future__ import annotations

import math

import numpy as np

from scendo.core import InputError

Array = np.ndarray

#: relative size of the perturbation used to break ties
TIE_EPS = 1e-9

#: t = alpha*(n-1) snaps to the nearest integer when within _SNAP*(n-1) of it
_SNAP = 4 * np.finfo(float).eps


def _increasing(values: Array) -> Array:
    return values[..., 1:] > values[..., :-1]


def strictify_sorted(values: Array) -> Array:
    """Make each row of a sorted array strictly increasing.

    The j-th member of a run of duplicates (j = 0, 1, ...) is shifted by
    j * TIE_EPS * max(1, |z|); rows without ties are returned unchanged,
    whatever the other rows of the batch hold, so a row's result depends
    on that row alone.  In a tied row every entry takes the shift, the
    j = 0 ones included, so -0.0 + 0.0 leaves no negative zero: the result
    does not depend on the order the sort gave equal zeros, which lets the
    callers sort with the (unstable) default kind.  The run ranks j and
    the shifts are built for the tied rows alone.  A shifted value that
    is still not above its final predecessor (a near-duplicate closer than
    the shift) is then raised to that predecessor plus
    TIE_EPS * max(1, |value|).

    Shift lemma.  Values only rise, and one keeps its bits when it is the
    first of its run, ends above its predecessor and is not a -0.0 in a
    tied row.  In a sorted row v_0 <= ... <= v_{n-1} with
    2n TIE_EPS <= 1, the i-th value ends at most at
    v_k + 2d TIE_EPS max(1, |v_k|) for some k <= i, d < n the number of
    positions from the first copy of v_k to i; so at most at
    z + 2n TIE_EPS max(1, |z|) for a row value z at or before it.  (By
    induction on i: the shift stays within it at k = i, where j = d; a
    raise adds TIE_EPS max(1, |w|) to the predecessor's bound, of some k,
    for a w between v_k and that bound, so at most
    2 TIE_EPS max(1, |v_k|): one more position of d.)  The sort-free
    guards below rest on this bound; the rounding of the shifts is far
    below their margins.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    if n <= 1:
        return values
    rises = _increasing(values)
    if rises.all():
        return values
    # C order whatever the input's layout, so that rows is a view of out
    out = np.array(values, order="C")
    rows = out.reshape(-1, n)
    rises = rises.reshape(-1, n - 1)
    tied = np.flatnonzero(~rises.all(axis=1))
    # j in floats, exact for any row length; one row-sized temporary at a time
    idx = np.arange(float(n))
    j = np.where(np.concatenate([np.ones((tied.size, 1), dtype=bool), rises[tied]], axis=1), idx, 0.0)
    np.maximum.accumulate(j, axis=1, out=j)  # each member's run start
    np.subtract(idx, j, out=j)
    del idx
    j *= TIE_EPS
    scale = rows[tied]
    j *= np.maximum(np.abs(scale, out=scale), 1.0, out=scale)
    del scale
    rows[tied] += j
    if not _increasing(out).all():
        # near-duplicates closer than the tie shift: walk the offending rows
        # alone, each a view of out
        for r in np.flatnonzero(~_increasing(rows).all(axis=1)):
            row = rows[r]
            for i in range(1, n):
                if row[i] <= row[i - 1]:
                    row[i] = row[i - 1] + TIE_EPS * max(1.0, abs(row[i]))
    return out


def _knots(values: Array, lo_idx) -> tuple:
    """``values[..., lo_idx]`` and ``values[..., lo_idx + 1]`` row by row.

    ``lo_idx`` broadcasts against the leading shape.  Both knots come from
    one flat index into the C-order rows: each row's offset plus ``lo_idx``.
    """
    n = values.shape[-1]
    flat = values.reshape(-1)
    pos = np.arange(0, flat.size, n).reshape(values.shape[:-1]) + lo_idx
    return flat[pos], flat[pos + 1]


def _check_broadcast(name: str, arg: Array, values: Array) -> None:
    lead = values.shape[:-1]
    if lead and (
        arg.ndim > len(lead)
        or any(a != 1 and a != b for a, b in zip(arg.shape[::-1], lead[::-1]))
    ):
        raise InputError(f"{name} of shape {arg.shape} does not broadcast to the rows {lead}")


def _check_samples(n: int) -> None:
    if n == 0:
        raise InputError("rows must hold at least one sample")


def _snap(t: float, n: int) -> float:
    """t, snapped to the nearest integer when within ``_SNAP * n`` of it:
    the array path's IEEE steps on a Python float (``round`` rounds half
    to even as ``np.rint`` does, and ``copysign`` keeps the sign
    ``np.rint`` keeps for -0.0)."""
    snapped = math.copysign(round(t), t)
    return snapped if abs(t - snapped) <= _SNAP * n else t


def _one_level(values: Array, alpha: float) -> Array:
    """``sorted_quantile`` of rows of n >= 2 samples at one level in [0, 1].

    The array path's index arithmetic on Python floats (``_snap``, and
    ``int`` truncates), and both knots read as basic slices, so the result
    carries the array path's bits.
    """
    n = values.shape[-1]
    t = _snap(alpha * (n - 1), n - 1)
    i = min(int(t), n - 2)
    frac = t - i
    hi = values[..., i + 1]
    if frac >= 1.0:
        return hi.copy()
    lo = values[..., i]
    return lo + (hi - lo) * frac


def sorted_quantile(values: Array, alpha) -> Array:
    """Quantile of pre-sorted, strictly increasing rows at level alpha.

    ``alpha`` may be a scalar or an array broadcastable to the leading
    shape of ``values`` (or any shape when ``values`` is one-dimensional).
    Levels that land exactly on the grid i/(n-1) return the corresponding
    sample with no interpolation round-off.  A single-sample row returns
    that sample for every level.  A level outside [0, 1], or of a shape
    that does not broadcast to the leading shape, raises InputError, and
    so do rows of no samples.
    """
    values = np.asarray(values, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    n = values.shape[-1]
    lead = values.shape[:-1]
    if alpha.size == 1 and n > 1 and (alpha.ndim <= len(lead) or not lead):
        level = alpha.item()
        if 0.0 <= level <= 1.0:
            q = _one_level(values, level)
            # 1-D rows give a numpy scalar; the array path an array of alpha's shape
            return q if lead else np.full(alpha.shape, q)
    _check_samples(n)
    if not ((alpha >= 0) & (alpha <= 1)).all():  # also rejects NaN and +-inf
        raise InputError("quantile level must lie in [0, 1]")
    _check_broadcast("level", alpha, values)
    if n == 1:
        return values[..., 0] + 0.0 * alpha
    t = alpha * (n - 1)
    snapped = np.rint(t)
    t = np.where(np.abs(t - snapped) <= _SNAP * (n - 1), snapped, t)
    lo_idx = np.minimum(t.astype(np.intp), n - 2)  # t >= 0, so truncation is floor
    frac = t - lo_idx
    lo, hi = _knots(values, lo_idx)
    # segment ends return the samples themselves, free of interpolation round-off
    return np.where(frac >= 1.0, hi, lo + (hi - lo) * frac)


def sorted_cdf(values: Array, z) -> Array:
    """CDF of pre-sorted, strictly increasing rows evaluated at z.

    ``z`` may be a scalar or an array broadcastable to the leading shape
    of ``values`` (or any shape when ``values`` is one-dimensional); +-inf
    give 0 and 1.  A single-sample row yields the step 1{z >= sample}.  A
    NaN point, or one of a shape that does not broadcast to the leading
    shape, raises InputError, and so do rows of no samples.
    """
    values = np.asarray(values, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.isnan(z).any():
        raise InputError("CDF point must not be NaN")
    _check_broadcast("point", z, values)
    n = values.shape[-1]
    _check_samples(n)
    if n == 1:
        return (z >= values[..., 0]).astype(float)
    m = (values < z[..., None]).sum(axis=-1)
    lo_idx = np.minimum(np.maximum(m - 1, 0), n - 2)
    lo, hi = _knots(values, lo_idx)
    # an in-range z already lies in [lo, hi]; clipping keeps an out-of-range
    # one, masked below, from overflowing the division
    inner = (lo_idx + (np.clip(z, lo, hi) - lo) / (hi - lo)) / (n - 1)
    return np.where(z <= values[..., 0], 0.0, np.where(z > values[..., -1], 1.0, inner))


def quantile_of(values: Array, alpha) -> Array:
    """Quantile over the last axis of raw (unsorted, maybe tied) values."""
    return sorted_quantile(strictify_sorted(np.sort(values, axis=-1)), alpha)


def cdf_of(values: Array, z) -> Array:
    """CDF over the last axis of raw (unsorted, maybe tied) values."""
    return sorted_cdf(strictify_sorted(np.sort(values, axis=-1)), z)


#: the window below a grid's maximum M that ``_guarded_tops`` requires
#: empty, in units of max(n_a, n_e) * TIE_EPS * max(1, 2|M|)
_TOP_WINDOW = 8.0


def _guarded_tops(values: Array) -> tuple:
    """``quantile_of(quantile_of(values, 1.0), 1.0)`` of (..., n_a, n_e)
    grids without sorting them: ``(top, admitted)``, each grid's maximum M
    and whether the guard below proves that M is that quantile, bit for bit.

    At level 1 ``sorted_quantile`` returns a row's last strictified value
    (``frac >= 1`` reads the upper knot itself; a one-sample row adds 0.0).
    So the nested quantile is M when ``strictify_sorted`` leaves M, the
    top of its scenario's row, as it is, and leaves every other scenario's
    top below M, so that M also tops the row of scenario tops and is kept.
    The guard admits a grid when M is finite and nonzero, no value is
    -inf or NaN, and no value but M lies above M - W, with
    W = ``_TOP_WINDOW`` * n * TIE_EPS * max(1, 2|M|) and n = max(n_a, n_e).
    Each is one reduction of the flattened grids.  A finite M lies above
    M - W itself and a grid whose top is not finite has no value above it,
    so the count of values above M - W over the whole batch equals the
    number of finite tops exactly when each of those grids has M alone;
    the per-grid count runs only when it does not.

    Why the guard proves it.  By the shift lemma of ``strictify_sorted``
    at both levels, with n TIE_EPS <= 1/8 (rows of up to 1e8 values),
    every scenario top but M's, and M's predecessor in either row, ends at
    most at z + 5n TIE_EPS max(1, |z|) for a grid value z <= M - W, which
    is below M: by the margin W >= 8n TIE_EPS where |z| <= 1; where z > 1,
    |z| <= |M| and W >= 16n TIE_EPS |M|; where z < -1 the bound is
    z (1 - 5n TIE_EPS) < 0, below M when M > 0 and, when M < 0, since
    |z| >= |M| + W.  Only values near M can reach it, which is why W
    scales with |M| and not with the grid's largest |v|.  M has no copy,
    so it is first of its run and ends above its predecessor in both
    rows, and being nonzero it keeps its bits (a -0.0 M would turn +0.0
    or not depending on the ties of its row).  The lemma needs finite
    values, as shifts of an infinite value are NaN or infinite.  The
    rounding of M - W is far below the margins left.
    """
    n_a, n_e = values.shape[-2:]
    flat = values.reshape(values.shape[:-2] + (n_a * n_e,))
    unit = _TOP_WINDOW * max(n_a, n_e) * TIE_EPS
    top = flat.max(axis=-1)
    threshold = np.abs(top)
    threshold *= 2.0 * unit
    np.maximum(threshold, unit, out=threshold)
    with np.errstate(invalid="ignore"):  # inf - inf, at a top that is not finite
        np.subtract(top, threshold, out=threshold)
    above = flat > threshold[..., None]
    admitted = np.isfinite(top)
    if np.count_nonzero(above) != np.count_nonzero(admitted):
        admitted &= above.sum(axis=-1) == 1
    admitted &= top != 0.0
    if not flat.min() > -np.inf:  # min propagates NaN
        admitted &= flat.min(axis=-1) > -np.inf
    return top, admitted


#: the order-free guard's windows below lo, in units of TIE_EPS * S: the
#: narrow one holds no value but lo, the wide one (per value of the row)
#: fewer than _CLUSTER values
_NEAR, _FAR, _CLUSTER = 128.0, 4.0, 64
_NEG_ZERO_BITS = np.iinfo(np.int64).min


def _order_free(row: Array):
    """``sorted_cdf(strictify_sorted(np.sort(row)), 0.0)`` of one unsorted
    row of n >= 2 values, and its count of negative values, without
    sorting it: ``(F(0), n_neg)``, or None where the guard below does not
    admit the row.

    ``sorted_cdf`` at 0 reads only the count n_neg of negative values of
    the strictified row and its two knots around 0: lo, the negative value
    nearest zero, and hi, the smallest nonnegative one.  Each is one
    reduction of the unsorted row: a count, and the least of its int64
    bits (negative values have negative int64 bits, fewest the nearest
    zero) and of its uint64 bits (nonnegative values have the smallest).
    So if ``strictify_sorted`` keeps n_neg, lo and hi, F(0) is
    ``sorted_cdf``'s own expression on them, the same IEEE operations in
    the same order: (n_neg - 1 + (0 - lo) / (hi - lo)) / (n - 1), or 0 at
    n_neg = 0 and 1 at n_neg = n.  Rows holding a zero of either sign (a
    tied row's shift writes it as +0.0) or a non-finite value (whose
    shifts and knots are NaN or infinite) are not admitted, so n_neg is
    also the row's count of values at or below 0.

    Why the guard proves it.  By the shift lemma of ``strictify_sorted``,
    the i-th sorted value ends at most at max over k <= i of
    v_k + 2d TIE_EPS S, S = max(1, max |v|).  Let lo be the i+1-th.  The
    narrow window [lo - 128 TIE_EPS S, lo) holds no value, so lo is first
    of its run, and it keeps its bits if its predecessor, the i-th, ends
    below it.  In the bound for the i-th, a v_k below the wide window
    [lo - 4n TIE_EPS S, lo] gains less than 2n TIE_EPS S: its term stays
    below lo.  The wide window holds fewer than 64 values, so for
    those of them below lo, the first copy of v_k and every value up to
    the i-th lie in it below lo, and d <= 61: their terms gain at most
    122 TIE_EPS S, and they lie below the narrow window, so below lo too.
    Then hi, whose predecessor is lo < 0 < hi, keeps its bits, and the
    values after it only rise: n_neg, lo and hi all stand.  A row of
    negatives alone needs only its last value, lo, to stay negative,
    which lo below -4n TIE_EPS S ensures without the windows; a row of
    positives alone stays positive.  The rounding of the shifts and of
    the window bounds is below 1e-5 of the margins left.
    """
    n = row.size
    top, bottom = float(row.max()), float(row.min())
    lo_bits, hi_bits = row.view(np.int64).min(), row.view(np.uint64).min()
    # top - bottom is not finite if either is, or if it overflows
    if lo_bits == _NEG_ZERO_BITS or hi_bits == 0 or not math.isfinite(top - bottom):
        return None
    n_neg = int(np.count_nonzero(row < 0.0))
    if n_neg == 0:
        return 0.0, 0
    lo = float(lo_bits.view(np.float64))
    tie = TIE_EPS * max(1.0, top, -bottom)
    wide = _FAR * n * tie
    if n_neg == n and lo + wide < 0.0:
        return 1.0, n
    if (
        np.count_nonzero(row < lo - _NEAR * tie) != n_neg - 1
        or n_neg - np.count_nonzero(row < lo - wide) >= _CLUSTER
    ):
        return None
    if n_neg == n:
        return 1.0, n
    hi = float(hi_bits.view(np.float64))
    return (n_neg - 1 + (0.0 - lo) / (hi - lo)) / (n - 1), n_neg
