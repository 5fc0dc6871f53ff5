"""Robust Monte Carlo analysis of a fixed design.

For each testing epistemic draw e the failure probability of the design is
estimated from the testing aleatory set, giving a range of failure
probabilities over the epistemic set.  Exact (Clopper-Pearson) binomial
confidence intervals then widen the range for aleatory sampling error, and
a second pass over the epistemic draws quantifies how likely the design is
to violate a probability budget p_max, with its own confidence interval
for the epistemic sampling error.  As in the scenario programs, fractions
alpha_a / alpha_e of the worst draws can be excluded from the analysis.

The (aleatory x epistemic) requirement evaluation grid is the hot loop,
and it is evaluated only here: the report also carries the table of
failing testing scenarios that the sequential design selects from.  The
grid is streamed in blocks of epistemic draws, and each requirement is
evaluated on a block in tiles of at most ``core._TILE_FLOATS`` values:
a tile is a block of whole rows while n_a' fits in one, else a block is
one draw and its row is split into column tiles.  Each tile's values are
OR-ed into the failure table and written into one block buffer,
allocated once per call, which is reduced to the block's failure
probabilities and success counts one requirement at a time.  The
reduction of a draw's row reads only its count of negative values and
the two values either side of zero, so long untrimmed rows are reduced
unsorted (``_order_free``, with a guard proving that the ECDF's tie
shift keeps those); the others are sorted in place, trimmed and reduced
(``_reduce``), and both give the same bits.  So no full grid is ever
held, and every temporary of the loop, the requirement's own included,
is at most a tile (a row, where a row outgrows a tile), which the heap
serves again on every pass (see ``core._TILE_FLOATS``).  Under
worst_case the buffer holds the running maximum over the requirements
instead, tile by tile.  A fraction excludes n * alpha values snapped to an integer by ecdf's
grid snap (``ecdf._snap``).  The result is bit-identical to evaluating
the whole grid at once because every entry of a requirement depends
only on its own (theta, a, e) point (the grid contract of
``scendo.core``) and every per-draw reduction reads only its own row.
"""

from __future__ import annotations

import ctypes
import logging
import math
from dataclasses import dataclass

import numpy as np

from scendo.core import (
    InputError, ProblemSpec, ScenarioData, _TILE_FLOATS, _fractions, _scipy_extension, _shaped,
)
from scendo.ecdf import TIE_EPS, _snap, quantile_of, sorted_cdf, strictify_sorted

Array = np.ndarray
logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RmcConfig:
    """Analysis-time outlier fractions, confidence level, and budgets.

    These are deliberately separate from the fractions used to train the
    design: an analysis commonly uses different (often zero) values.  A
    scalar or one-entry vector applies to every requirement.
    """

    alpha_a: Array = 0.0
    alpha_e: Array = 0.0
    sigma: float = 0.95
    p_max: Array = 0.01
    worst_case: bool = False  # analyze max_k r_k instead of each r_k

    def __post_init__(self):
        for name in ("alpha_a", "alpha_e", "p_max"):
            object.__setattr__(self, name, _fractions(name, getattr(self, name)))
        if not 0 < self.sigma < 1:
            raise InputError("sigma must lie in (0, 1)")

    def for_requirements(self, n_r: int) -> "RmcConfig":
        """Broadcast scalar fractions and budgets up to ``n_r`` requirements."""
        return RmcConfig(
            _fractions("alpha_a", self.alpha_a, n_r), _fractions("alpha_e", self.alpha_e, n_r),
            self.sigma, _fractions("p_max", self.p_max, n_r), self.worst_case,
        )


@dataclass(frozen=True)
class RmcReport:
    """Per-requirement failure-probability ranges.

    range_a: sampled range over the epistemic draws;
    range_b: range widened by aleatory-sampling confidence intervals;
    point_c / range_d: estimated probability of exceeding p_max over the
    epistemic draws, with its confidence interval.
    p_by_epistemic holds the raw per-draw failure probabilities.
    scenario_fails[i, k] is True iff testing aleatory scenario i fails
    requirement k for some testing epistemic draw; it keeps one column per
    requirement also when worst_case reduces the ranges to one row.
    """

    range_a: Array  # (n_r, 2)
    range_b: Array  # (n_r, 2)
    point_c: Array  # (n_r,)
    range_d: Array  # (n_r, 2)
    p_by_epistemic: Array  # (n_r, n_e')
    scenario_fails: Array  # (n_a', n_r) bool
    sigma: float
    worst_case: bool = False

    def rows(self):
        """One (a_lo, a_hi, b_lo, b_hi, c, d_lo, d_hi) tuple per requirement."""
        for k in range(self.range_a.shape[0]):
            yield (
                self.range_a[k, 0], self.range_a[k, 1],
                self.range_b[k, 0], self.range_b[k, 1],
                self.point_c[k],
                self.range_d[k, 0], self.range_d[k, 1],
            )


def _ibeta_inv_double():
    """scipy's C function ``double ibeta_inv_double(double, double, double)``,
    which the double loop of the ``scipy.special.betaincinv`` ufunc calls
    element by element.  ``scipy.special._ufuncs_cxx`` exports it as the
    ``void *`` variable ``_export_ibeta_inv_double``: its ``__pyx_capi__``
    capsule holds the variable's address.  ImportError if there is no such
    capsule."""
    name = "_export_ibeta_inv_double"
    capsule = getattr(_scipy_extension("special._ufuncs_cxx"), "__pyx_capi__", {}).get(name)
    if capsule is None:
        raise ImportError(f"scipy.special._ufuncs_cxx exports no {name}")
    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api)
    )
    function = ctypes.c_void_p.from_address(get_pointer(capsule, get_name(capsule))).value
    double = ctypes.c_double
    return ctypes.CFUNCTYPE(double, double, double, double)(function)


_ibeta_inv = _ibeta_inv_double()


def _betaincinv(a, b, y) -> Array:
    """``scipy.special.betaincinv(a, b, y)`` of float arrays, bit for bit:
    the ufunc's C function applied to each element of the broadcast
    inputs."""
    a, b, y = np.broadcast_arrays(a, b, y)
    values = map(_ibeta_inv, a.ravel().tolist(), b.ravel().tolist(), y.ravel().tolist())
    return np.fromiter(values, float, a.size).reshape(a.shape)


def clopper_pearson(successes, trials: int, sigma: float):
    """Exact two-sided binomial interval at confidence sigma.

    The bounds are Beta quantiles: the lower one Beta(m, n - m + 1) at
    (1 - sigma)/2, the upper one Beta(m + 1, n - m) at (1 + sigma)/2, each
    computed as ``scipy.special.betaincinv(a, b, q)``, the function
    ``scipy.stats.beta.ppf(q, a, b)`` evaluates, with the same bits and
    without importing scipy.stats or scipy.special (``_betaincinv``).  At
    the boundary counts (0 or all) the empty tail folds into the other
    side, giving the one-sided zero-failure bound 1 - (1-sigma)^(1/n).
    Vectorized over ``successes``.
    """
    m = np.atleast_1d(np.asarray(successes, dtype=float))
    n = float(trials)
    if n < 1:
        raise InputError("binomial interval needs at least one trial")
    a = 1.0 - sigma
    m_lo = np.clip(m, 1.0, n)  # safe params; overridden below
    m_hi = np.clip(m, 0.0, n - 1.0)
    lo = _betaincinv(m_lo, n - m_lo + 1.0, a / 2.0)
    hi = _betaincinv(m_hi + 1.0, n - m_hi, 1.0 - a / 2.0)
    lo = np.where(m <= 0, 0.0, np.where(m >= n, a ** (1.0 / n), lo))
    hi = np.where(m >= n, 1.0, np.where(m <= 0, 1.0 - a ** (1.0 / n), hi))
    return lo, hi


def _seq_quantile(vals: Array, level: float) -> float:
    """Quantile of a probability sequence, clipped back to the sequence's
    true range so the tie-break perturbation cannot leak outside it."""
    q = float(quantile_of(vals, level))
    return float(np.clip(q, float(vals.min()), float(vals.max())))


def _per_requirement(p: Array, m: Array, n_keep: int, n_q: int, alpha_e_k, p_max_k, sigma):
    """Ranges of one requirement from its per-draw failure probabilities
    ``p`` and success counts ``m`` among ``n_keep`` kept aleatory values,
    ``n_q`` of the draws kept."""
    a_lo = float(p.min())  # the level-0 quantile: the first knot, p >= +0.0
    a_hi = _seq_quantile(p, 1.0 - alpha_e_k)

    ci_lo, ci_hi = clopper_pearson(m, n_keep, sigma)
    b_lo = float(np.clip(1.0 - np.max(ci_hi), 0.0, 1.0))
    upper_fail = 1.0 - ci_lo  # the sequence of upper failure probabilities
    b_hi = _seq_quantile(upper_fail, 1.0 - alpha_e_k)

    q_kept = strictify_sorted(np.sort(upper_fail)[:n_q])
    c = float(np.clip(1.0 - sorted_cdf(q_kept, p_max_k), 0.0, 1.0))
    exceed = int(np.count_nonzero(q_kept > p_max_k))
    d_lo, d_hi = clopper_pearson(exceed, n_q, sigma)

    return (
        np.array([a_lo, a_hi]),
        np.array([b_lo, b_hi]),
        c,
        np.array([float(d_lo[0]), float(d_hi[0])]),
    )


def _failures(values: Array) -> tuple:
    """Which columns of a tile's (draws, columns) values fail for some draw,
    and the tile's NaN count (the max keeps a NaN, so it counts only then)."""
    worst = values[0] if values.shape[0] == 1 else np.max(values, axis=0)
    return worst > 0.0, int(np.count_nonzero(np.isnan(values))) if np.isnan(worst).any() else 0


def _reduce(rows: Array, n_keep: int, p: Array, m: Array) -> None:
    """Write one requirement's per-draw failure probabilities ``p`` and
    success counts ``m`` from its block's sorted (draws, n_a') ``rows``,
    of which the first ``n_keep`` of each row are kept: the sorted path."""
    trimmed = np.ascontiguousarray(rows[:, :n_keep])
    p[:] = np.clip(1.0 - sorted_cdf(strictify_sorted(trimmed), 0.0), 0.0, 1.0)
    m[:] = np.count_nonzero(trimmed <= 0.0, axis=1)


#: the order-free guard's windows below lo, in units of TIE_EPS * S: the
#: narrow one holds no value but lo, the wide one (per value of the row)
#: fewer than _CLUSTER values
_NEAR, _FAR, _CLUSTER = 128.0, 4.0, 64

#: blocks of shorter rows take the sorted path whole: there a sort costs
#: less than ``_order_free``'s fixed cost per row (the two break even at
#: about 2000 values a row on the circle's 400000-point testing grids)
_ORDER_FREE_MIN = 2048

_NEG_ZERO_BITS = np.iinfo(np.int64).min


def _order_free(row: Array):
    """``_reduce`` of one unsorted, untrimmed row of n >= 2 values without
    sorting it: ``(p, m)``, its failure probability and success count, or
    None where the guard below does not admit the row.

    ``sorted_cdf`` at 0 reads only the count n_neg of negative values of
    the strictified row and its two knots around 0: lo, the negative value
    nearest zero, and hi, the smallest nonnegative one.  Each is one
    reduction of the unsorted row: a count, and the least of its int64
    bits (negative values have negative int64 bits, fewest the nearest
    zero) and of its uint64 bits (nonnegative values have the smallest).
    So if ``strictify_sorted`` keeps n_neg, lo and hi, F(0) is
    ``sorted_cdf``'s own expression on them, the same IEEE operations in
    the same order: (n_neg - 1 + (0 - lo) / (hi - lo)) / (n - 1), or 0 at
    n_neg = 0 and 1 at n_neg = n; and m is n_neg, as no value is zero.

    Why the guard proves it.  ``strictify_sorted`` only raises values.
    Its tie shift raises the j-th copy of a run of equal values by
    j * TIE_EPS * max(1, |v|); its walk then raises a value only when it
    is not above its final predecessor, to that plus
    TIE_EPS * max(1, |value|).  With S = max(1, max |v|) and
    n * TIE_EPS <= 1 (rows of up to 1e9 values), no raised value exceeds
    2S in magnitude, so the i-th sorted value ends at most at
    max over k <= i of v_k + (j_k + i - k) * 2 * TIE_EPS * S.  Let lo be
    the i+1-th.  The narrow window [lo - 128 TIE_EPS S, lo) holds no
    value, so lo is first of its run and the shift leaves it, and it keeps
    its bits if its predecessor, the i-th, ends below it.  In the bound
    for the i-th, a v_k below the wide window [lo - 4n TIE_EPS S, lo]
    gains less than 2n TIE_EPS S, so its term stays below lo.  The wide
    window holds fewer than 64 values, so for those of them below lo,
    j_k + i - k <= 61: their terms gain at most 122 TIE_EPS S, and they
    lie below the narrow window, so below lo too.  Then hi, whose
    predecessor is lo < 0 < hi, keeps its bits, and the values after it
    only rise: n_neg, lo and hi all stand.  A row of negatives alone needs
    only its last value, lo, to stay negative, which lo below
    -4n TIE_EPS S ensures without the windows; a row of positives alone
    stays positive.  The rounding of the shifts and of the window bounds
    is below 1e-5 of the margins left.

    Rows holding a zero of either sign (the shift writes zeros as +0.0)
    or a non-finite value (whose shifts and knots are NaN or infinite) are
    not admitted either.  A row the sorted path reduces alone gets the
    bits it gets in its block: the shift of one tied row of a batch writes
    every row's -0.0 as +0.0, a sign that neither F(0) nor m reads.
    """
    n = row.size
    top, bottom = float(row.max()), float(row.min())
    lo_bits, hi_bits = row.view(np.int64).min(), row.view(np.uint64).min()
    # top - bottom is not finite if either is, or if it overflows
    if lo_bits == _NEG_ZERO_BITS or hi_bits == 0 or not math.isfinite(top - bottom):
        return None
    n_neg = int(np.count_nonzero(row < 0.0))
    if n_neg == 0:
        return 1.0, 0
    lo = float(lo_bits.view(np.float64))
    tie = TIE_EPS * max(1.0, top, -bottom)
    wide = _FAR * n * tie
    if n_neg == n and lo + wide < 0.0:
        return 0.0, n
    if (
        np.count_nonzero(row < lo - _NEAR * tie) != n_neg - 1
        or n_neg - np.count_nonzero(row < lo - wide) >= _CLUSTER
    ):
        return None
    if n_neg == n:
        return 0.0, n
    hi = float(hi_bits.view(np.float64))
    cdf = (n_neg - 1 + (0.0 - lo) / (hi - lo)) / (n - 1)
    return min(max(1.0 - cdf, 0.0), 1.0), n_neg


def _reduce_unsorted(values: Array, n_keep: int, p: Array, m: Array) -> int:
    """``_reduce`` of a block's unsorted (draws, n_a') ``values``, bit for
    bit; returns the number of rows it sorted.  The rows ``_order_free``
    admits are not sorted; the others are sorted in place and reduced one
    by one.  A trimmed block, or one of rows shorter than
    ``_ORDER_FREE_MIN``, is sorted and reduced whole."""
    rows, n = values.shape
    if n_keep < n or n < _ORDER_FREE_MIN:
        values.sort(axis=-1)
        _reduce(values, n_keep, p, m)
        return rows
    n_sorted = 0
    for r in range(rows):
        reduced = _order_free(values[r])
        if reduced is None:
            values[r].sort()
            _reduce(values[r : r + 1], n, p[r : r + 1], m[r : r + 1])
            n_sorted += 1
        else:
            p[r], m[r] = reduced
    return n_sorted


def _block(spec: ProblemSpec, theta, a, e, n_keep, worst_case: bool, values, fails, p, m) -> tuple:
    """Evaluate the requirements on one block ``e`` of epistemic draws and
    write the block's columns ``p`` and ``m``; returns its NaN count and
    the number of draw rows it sorted.

    ``values`` is the block's (draws, n_a') part of the call's buffer.  One
    requirement at a time, tile by tile of at most ``_TILE_FLOATS`` values:
    each tile is OR-ed into ``fails`` and written into ``values``, which is
    then reduced (``_reduce_unsorted``).  Under worst_case each tile of a
    later requirement is folded into ``values`` by ``np.maximum``, which
    takes the bits of ``np.maximum.reduce`` over the requirements in the
    same order, and the running maximum is reduced once.
    """
    cols = min(a.shape[1], _TILE_FLOATS)
    n_nan = n_sorted = 0
    for k, rk in enumerate(spec.requirements):
        for c in range(0, a.shape[1], cols):
            tile = slice(c, c + cols)
            out = values[:, tile]
            v = _shaped(rk(theta, a[:, tile], e), out.shape)
            failed, nans = _failures(v)
            fails[tile, k] |= failed
            n_nan += nans
            if worst_case and k:
                np.maximum(out, v, out=out)
            else:
                out[...] = v
            del v  # before the next tile is evaluated
        if not worst_case:
            n_sorted += _reduce_unsorted(values, n_keep[k], p[k], m[k])
    if worst_case:
        n_sorted += _reduce_unsorted(values, n_keep[0], p[0], m[0])
    return n_nan, n_sorted


def analyze(spec: ProblemSpec, theta, data: ScenarioData, cfg: RmcConfig) -> RmcReport:
    """Full robust Monte Carlo report.  Each requirement is evaluated once
    on the (n_a', n_e') testing grid, block by block of epistemic draws and
    tile by tile, and the three range computations and the violation table
    share it.  Testing sets whose widths are not the spec's are an
    InputError; a NaN requirement value is an ArithmeticError naming the
    NaN count, since it would count neither as a failure nor as a success.
    ``SCENDO_LOG=debug`` logs the blocks, tiles and requirement calls."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (spec.m_theta,):
        raise InputError(f"theta must have shape ({spec.m_theta},), got {theta.shape}")
    data.require_testing()
    data.check_widths(spec)
    a = data.testing_aleatory[None, :, :]
    e = data.testing_epistemic[:, None, :]
    n_a, n_e, n_r = data.n_a_test, data.n_e_test, len(spec.requirements)
    if cfg.worst_case:  # a single synthetic requirement, driven by the k=1 entries
        cfg = RmcConfig(cfg.alpha_a[:1], cfg.alpha_e[:1], cfg.sigma, cfg.p_max[:1], True)
    cfg = cfg.for_requirements(1 if cfg.worst_case else n_r)
    # a fraction alpha excludes n * alpha values, snapped as ecdf snaps its
    # grid: n * (1 - alpha) would round the wrong way on fractions like
    # k/n (7 * (1 - 6/7) is 1.0000000000000004, 5 * (1 - 4/5) is
    # 0.9999999999999998), while 7 * 6/7 and 5 * 4/5 snap to 6 and 4.  The
    # kept aleatory values are n minus its floor, the kept epistemic draws
    # n minus its ceiling; both are checked before the grid is evaluated
    n_keep = [n_a - math.floor(_snap(n_a * float(alpha), n_a)) for alpha in cfg.alpha_a]
    n_q = [n_e - math.ceil(_snap(n_e * float(alpha), n_e)) for alpha in cfg.alpha_e]
    if min(n_keep) < 1:
        raise InputError("trimmed aleatory sequence is empty")
    if min(n_q) < 1:
        raise InputError("trimmed epistemic sequence is empty")
    fails = np.zeros((n_a, n_r), dtype=bool)
    p = np.empty((len(n_keep), n_e))  # failure probability per epistemic draw
    m = np.empty((len(n_keep), n_e), dtype=np.intp)  # successes per epistemic draw
    step = min(max(1, _TILE_FLOATS // n_a), n_e)  # draws per block
    buf = np.empty((step, n_a))  # one block of values, reduced in place
    n_nan = n_sorted = 0
    for j in range(0, n_e, step):
        block = slice(j, min(j + step, n_e))
        values = buf[: block.stop - j]
        nans, rows = _block(
            spec, theta, a, e[block], n_keep, cfg.worst_case, values, fails, p[:, block], m[:, block]
        )
        n_nan, n_sorted = n_nan + nans, n_sorted + rows
    n_blocks, n_tiles = -(-n_e // step), -(-n_a // _TILE_FLOATS)
    logger.debug(
        "analyze: %d x %d testing grid points, %d blocks of up to %d draws, "
        "%d tiles per block, %d requirement calls, %d of %d draw rows sorted",
        n_a, n_e, n_blocks, step, n_tiles, n_blocks * n_tiles * n_r, n_sorted, p.size,
    )
    if n_nan:
        raise ArithmeticError(
            f"requirement values are NaN at {n_nan} of {n_r * n_a * n_e} testing grid points"
        )
    range_a, range_b, point_c, range_d = zip(*(
        _per_requirement(p[k], m[k], n_keep[k], n_q[k], cfg.alpha_e[k], cfg.p_max[k], cfg.sigma)
        for k in range(len(n_keep))
    ))
    return RmcReport(
        range_a=np.stack(range_a),
        range_b=np.stack(range_b),
        point_c=np.array(point_c),
        range_d=np.stack(range_d),
        p_by_epistemic=p,
        scenario_fails=fails,
        sigma=cfg.sigma,
        worst_case=cfg.worst_case,
    )
