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
    the shifts are built for the tied rows alone.
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
