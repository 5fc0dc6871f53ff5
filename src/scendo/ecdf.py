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
batches of a few short rows, so the fixed cost per call dominates.  The
kernel therefore validates a level with one reduction, does the index
arithmetic (position t = alpha*(n-1), grid snap, segment index and
fraction) at the level's own shape, a scalar or one entry per leading row,
never broadcast over every row, and reads both knots of each row through
one flat index into the C-ordered rows: row offset plus segment index, and
that plus one.  Rows that are not C-contiguous are copied once by that
flattening, so callers with long rows hand them over C-ordered.

``quantile_of`` and ``cdf_of`` sort with numpy's default float sort,
which dispatches to SIMD kernels where the CPU has them, and not with the
stable kind, several times slower on the same rows.  The two kinds order
equal values differently, and on finite rows (``scendo.core`` admits no
NaN) only equal zeros of opposite sign differ in their bits.  A row that
holds both -0.0 and +0.0 holds a tie, so ``strictify_sorted`` shifts the
batch and writes every zero as +0.0 or its tie offset, whichever order
the sort left them in: the results carry the same bits under either kind.
"""

from __future__ import annotations

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
    j * TIE_EPS * max(1, |z|); rows without ties are returned unchanged.
    When any row of the batch holds a tie, every entry takes the shift,
    the j = 0 ones included, so -0.0 + 0.0 leaves no negative zero: the
    result does not depend on the order the sort gave equal zeros, which
    lets the callers sort with the (unstable) default kind.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    if n <= 1:
        return values
    rises = _increasing(values)
    if rises.all():
        return values
    idx = np.arange(n)
    new_run = np.concatenate([np.ones(values.shape[:-1] + (1,), dtype=bool), rises], axis=-1)
    run_start = np.maximum.accumulate(np.where(new_run, idx, 0), axis=-1)
    j = idx - run_start
    out = values + j * TIE_EPS * np.maximum(1.0, np.abs(values))
    if not _increasing(out).all():
        # near-duplicates closer than the tie shift: walk the offending rows
        out = out.copy()
        flat = out.reshape(-1, n)
        for row in flat:
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


def _check_level_shape(level: Array, values: Array) -> None:
    lead = values.shape[:-1]
    if lead and (
        level.ndim > len(lead)
        or any(a != 1 and a != b for a, b in zip(level.shape[::-1], lead[::-1]))
    ):
        raise InputError(f"level of shape {level.shape} does not broadcast to the rows {lead}")


def sorted_quantile(values: Array, alpha) -> Array:
    """Quantile of pre-sorted, strictly increasing rows at level alpha.

    ``alpha`` may be a scalar or an array broadcastable to the leading
    shape of ``values`` (or any shape when ``values`` is one-dimensional).
    Levels that land exactly on the grid i/(n-1) return the corresponding
    sample with no interpolation round-off.  A single-sample row returns
    that sample for every level.  A level outside [0, 1], or of a shape
    that does not broadcast to the leading shape, raises InputError.
    """
    values = np.asarray(values, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if not ((alpha >= 0) & (alpha <= 1)).all():  # also rejects NaN and +-inf
        raise InputError("quantile level must lie in [0, 1]")
    _check_level_shape(alpha, values)
    n = values.shape[-1]
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

    ``z`` may be a scalar or broadcastable against the leading shape.  A
    single-sample row yields the step 1{z >= sample}.
    """
    values = np.asarray(values, dtype=float)
    z = np.asarray(z, dtype=float)
    n = values.shape[-1]
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
