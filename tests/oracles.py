"""Independent reference implementations used only by the tests.

These deliberately avoid the library's own code paths: the enclosing
circle is computed geometrically (Welzl), quantile indices by the literal
argmin rule, the ECDF interpolant row by row in Python floats, and small
selection problems by exhaustive enumeration.  The training selection is
restated with one stacked slogdet per pick and a lexsort tie-break, and
its objective with np.cov, so the library's rank-one scoring can be
checked pick for pick.  The circle kernels are
restated in their stacked-coordinate form, and the robust Monte Carlo
analysis on the whole testing grid at once, so the library's per-coordinate
kernel and streamed analysis can be checked against them bit for bit.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np


def _circumcircle(p1, p2, p3):
    ax, ay = p1
    bx, by = p2
    cx, cy = p3
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) < 1e-14:
        return None
    ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay) + (cx**2 + cy**2) * (ay - by)) / d
    uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx) + (cx**2 + cy**2) * (bx - ax)) / d
    center = np.array([ux, uy])
    return center, float(np.linalg.norm(p1 - center))


def _circle_from(boundary):
    if len(boundary) == 0:
        return np.zeros(2), 0.0
    if len(boundary) == 1:
        return np.asarray(boundary[0], float), 0.0
    if len(boundary) == 2:
        c = (np.asarray(boundary[0]) + np.asarray(boundary[1])) / 2.0
        return c, float(np.linalg.norm(boundary[0] - c))
    cc = _circumcircle(*boundary)
    if cc is None:  # collinear: fall back to the widest pair
        best = None
        for p, q in combinations(boundary, 2):
            c = (np.asarray(p) + np.asarray(q)) / 2.0
            r = float(np.linalg.norm(p - c))
            if best is None or r > best[1]:
                best = (c, r)
        return best
    return cc


def welzl_circle(points, seed: int = 0):
    """Smallest enclosing circle (center, radius) by Welzl's algorithm."""
    pts = [np.asarray(p, float) for p in points]
    rng = np.random.default_rng(seed)
    rng.shuffle(pts)

    def mec(idx: int, boundary: list):
        if idx == len(pts) or len(boundary) == 3:
            return _circle_from(boundary)
        c, r = mec(idx + 1, boundary)
        p = pts[idx]
        if np.linalg.norm(p - c) <= r + 1e-12:
            return c, r
        return mec(idx + 1, boundary + [p])

    import sys

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 10 * len(pts) + 100))
    try:
        return mec(0, [])
    finally:
        sys.setrecursionlimit(old)


def quantile_index_argmin(n: int, alpha: float) -> int:
    """Literal segment-selection rule for the inverse CDF: the largest
    1-based index j with j - 1 <= alpha*(n-1), via explicit argmin."""
    candidates = [(n - 1) * alpha - j + 1 for j in range(1, n + 1) if j - 1 <= alpha * (n - 1)]
    js = [j for j in range(1, n + 1) if j - 1 <= alpha * (n - 1)]
    return js[int(np.argmin(candidates))]


def quantile_reference(values, alpha: float) -> float:
    """Inverse CDF evaluated with the literal index rule."""
    z = np.sort(np.asarray(values, float))
    n = z.size
    if alpha == 0:
        return float(z[0])
    if alpha >= 1:
        return float(z[-1])
    i = min(quantile_index_argmin(n, alpha), n - 1)
    return float(z[i - 1] + (z[i] - z[i - 1]) * ((n - 1) * alpha - i + 1))


#: the ECDF's documented tie shift and level snap, restated as constants
TIE_EPS = 1e-9
SNAP = 4 * 2.0**-52


def strictify_rows(rows: list) -> list:
    """Sorted rows (lists of floats) made strictly increasing by the
    documented tie rule.  When any row has a tie, every row gets its shift
    (zero outside runs of duplicates), as an array operation would."""
    if all(r[i] > r[i - 1] for r in rows for i in range(1, len(r))):
        return [list(r) for r in rows]
    out = []
    for r in rows:
        row, start = [], 0
        for i, z in enumerate(r):
            if i == 0 or z > r[i - 1]:
                start = i
            row.append(z + (i - start) * TIE_EPS * max(1.0, abs(z)))
        out.append(row)
    if not all(r[i] > r[i - 1] for r in out for i in range(1, len(r))):
        for row in out:
            for i in range(1, len(row)):
                if row[i] <= row[i - 1]:
                    row[i] = row[i - 1] + TIE_EPS * max(1.0, abs(row[i]))
    return out


def interpolant_quantile(row: list, alpha: float) -> float:
    """Inverse of the piecewise-linear CDF of one strictly increasing row:
    t = alpha*(n-1), snapped to the nearest integer within SNAP*(n-1),
    then lo + (hi - lo)*frac on segment floor(t), or hi when frac >= 1."""
    n = len(row)
    if n == 1:
        return row[0] + 0.0 * alpha
    t = alpha * (n - 1)
    snapped = float(round(t))
    if abs(t - snapped) <= SNAP * (n - 1):
        t = snapped
    i = min(math.floor(t), n - 2)
    frac = t - i
    lo, hi = row[i], row[i + 1]
    return hi if frac >= 1.0 else lo + (hi - lo) * frac


def interpolant_cdf(row: list, z: float) -> float:
    """The piecewise-linear CDF of one strictly increasing row at z."""
    n = len(row)
    if n == 1:
        return 1.0 if z >= row[0] else 0.0
    if z <= row[0]:
        return 0.0
    if z > row[-1]:
        return 1.0
    i = sum(1 for v in row if v < z) - 1
    return (i + (z - row[i]) / (row[i + 1] - row[i])) / (n - 1)


def best_budgeted_selection(points, violating, likelihood, n_target: int, budget: int,
                            lambda_div: float = 0.0):
    """Exhaustive optimum of the training-selection objective for one
    requirement: exactly ``budget`` violating scenarios among n_target."""
    n = len(points)
    pts = np.asarray(points, float)
    centered = pts - pts.mean(axis=0)
    _, vecs = np.linalg.eigh(np.cov(centered, rowvar=False))
    pc = centered @ vecs
    gamma = np.asarray(violating, float)
    like = np.asarray(likelihood, float)

    def value(sel):
        sel = np.asarray(sel)
        val = float(np.sum(gamma[sel] * like[sel]))
        if lambda_div > 0 and sel.size >= 2:
            cov = np.atleast_2d(np.cov(pc[sel], rowvar=False)) + 1e-9 * np.eye(pts.shape[1])
            sign, logdet = np.linalg.slogdet(cov)
            val += lambda_div * (logdet if sign > 0 else -np.inf)
        return val

    best_val, best_sel = -np.inf, None
    for sel in combinations(range(n), n_target):
        sel = np.asarray(sel)
        if int(np.sum(gamma[sel])) != budget:
            continue
        v = value(sel)
        if v > best_val:
            best_val, best_sel = v, sel
    return best_sel, best_val, value


#: covariance jitter of the training selection, restated
COV_JITTER = 1e-9


def logdet_cov(points) -> float:
    """Log-determinant of the jittered sample covariance of ``points``
    (np.cov), 0 for fewer than two points, -inf when not positive."""
    points = np.asarray(points, float)
    if points.shape[0] < 2:
        return 0.0
    cov = np.atleast_2d(np.cov(points, rowvar=False))
    sign, logdet = np.linalg.slogdet(cov + COV_JITTER * np.eye(cov.shape[0]))
    return float(logdet) if sign > 0 else -np.inf


def selection_value(pc, like, gamma, sel, lam: float) -> float:
    """The training-selection objective of the index set ``sel``: summed
    violation-weighted likelihood plus lam times logdet_cov."""
    sel = np.asarray(sel)
    val = float(np.sum(gamma[sel] * like[sel]))
    if lam > 0:
        val += lam * logdet_cov(pc[sel])
    return val


class StackedSelection:
    """The training selection scored the direct way: every candidate's
    covariance with it added is formed and passed to one stacked slogdet,
    and the best candidate is found by a full lexsort on (gain descending,
    likelihood descending, index ascending)."""

    def __init__(self, pc, like, gamma, lam: float):
        self.pc, self.like, self.gamma, self.lam = pc, like, gamma, lam
        m = pc.shape[1]
        self.mask = np.zeros(pc.shape[0], dtype=bool)
        self.s1 = np.zeros(m)
        self.s2 = np.zeros((m, m))
        self.count = 0
        self.like_sum = 0.0

    def add(self, i: int) -> None:
        x = self.pc[i]
        self.s1 += x
        self.s2 += np.outer(x, x)
        self.count += 1
        self.like_sum += self.gamma[i] * self.like[i]
        self.mask[i] = True

    def remove(self, i: int) -> None:
        x = self.pc[i]
        self.s1 -= x
        self.s2 -= np.outer(x, x)
        self.count -= 1
        self.like_sum -= self.gamma[i] * self.like[i]
        self.mask[i] = False

    def logdets_with(self, cand):
        n = self.count + 1
        if n < 2:
            return np.zeros(cand.size)
        x = self.pc[cand]
        s1 = self.s1 + x
        s2 = self.s2 + x[:, :, None] * x[:, None, :]
        mean = s1 / n
        cov = (s2 - n * mean[:, :, None] * mean[:, None, :]) / (n - 1)
        sign, logdet = np.linalg.slogdet(cov + COV_JITTER * np.eye(cov.shape[1]))
        return np.where(sign > 0, logdet, -np.inf)

    def gains(self, cand):
        g = self.gamma[cand] * self.like[cand]
        if self.lam > 0:
            g = g + self.lam * self.logdets_with(cand)
        return g

    def best(self, cand) -> int:
        order = np.lexsort((cand, -self.like[cand], -self.gains(cand)))
        return int(cand[order[0]])

    def value(self) -> float:
        val = self.like_sum
        if self.lam > 0:
            val += self.lam * logdet_cov(self.pc[self.mask])
        return val


def stacked_swap_refine(sel: StackedSelection, c, passes: int = 50) -> None:
    """1-swaps within equal violation patterns, each member's candidates
    found by comparing every pattern, until a pass improves nothing."""
    _, patterns = np.unique(c, axis=0, return_inverse=True)
    patterns = patterns.ravel()
    for _ in range(passes):
        improved = False
        for i in np.flatnonzero(sel.mask):
            cand = np.flatnonzero((~sel.mask) & (patterns == patterns[i]))
            if cand.size == 0:
                continue
            base = sel.value()
            sel.remove(int(i))
            j = sel.best(cand)
            sel.add(j)
            if sel.value() > base + 1e-12:
                improved = True
            else:
                sel.remove(j)
                sel.add(int(i))
        if not improved:
            break


def stacked_selection(c, points, n_target: int, budgets=None, lam: float = 0.0, density=None):
    """Budgeted aleatory training selection restated with StackedSelection:
    the greedy builds, their comparison by selection_value, the swaps."""
    c = np.asarray(c, dtype=bool)
    points = np.asarray(points, float)
    n_pool = points.shape[0]
    gamma = np.max(c, axis=1).astype(float)
    like = np.ones(n_pool) if density is None else np.asarray(density(points), float)
    if budgets is None:
        budgets = np.ceil(n_target / n_pool * np.count_nonzero(c, axis=0)).astype(int)
    budgets = np.minimum(np.minimum(budgets, np.count_nonzero(c, axis=0)), n_target)
    centered = points - points.mean(axis=0)
    _, vecs = np.linalg.eigh(np.atleast_2d(np.cov(centered, rowvar=False)))
    pc = centered @ vecs

    def build(like_b, lam_b):
        sel = StackedSelection(pc, like_b, gamma, lam_b)
        counts = np.zeros(c.shape[1], dtype=int)
        for k in range(c.shape[1]):
            while counts[k] < budgets[k]:
                cand = np.flatnonzero(c[:, k] & ~sel.mask)
                met = counts >= budgets
                keep = cand[~np.any(c[cand][:, met], axis=1)] if met.any() else cand
                pool = keep if keep.size else cand
                if pool.size == 0:
                    break
                i = sel.best(pool)
                sel.add(i)
                counts += c[i].astype(int)
        while sel.count < n_target:
            sel.add(sel.best(np.flatnonzero((gamma == 0.0) & ~sel.mask)))
        return np.flatnonzero(sel.mask)

    builds = [build(like, lam)]
    if lam > 0:
        builds += [build(like, 0.0), build(np.ones(n_pool), lam)]
    values = [selection_value(pc, like, gamma, b, lam) for b in builds]
    sel = StackedSelection(pc, like, gamma, lam)
    for i in builds[int(np.argmax(values))]:
        sel.add(int(i))
    stacked_swap_refine(sel, c)
    return np.flatnonzero(sel.mask)


def circle_realized_stacked(theta, e):
    """Realized circle with the center as one trailing axis of length 2:
    c~ = c + mu*e1*u and mu~ = mu*(1 + mu*e1*e3*c.u), u = (cos e2, sin e2)."""
    theta = np.asarray(theta, dtype=float)
    e = np.asarray(e, dtype=float)
    c = theta[..., :2]
    mu = theta[..., 2]
    u = np.stack([np.cos(e[..., 1]), np.sin(e[..., 1])], axis=-1)
    c_t = c + (mu * e[..., 0])[..., None] * u
    mu_t = mu * (1.0 + mu * e[..., 0] * e[..., 2] * np.sum(c * u, axis=-1))
    return c_t, mu_t


def circle_requirement_stacked(theta, a, e):
    """||c~ - a||^2 - mu~^2 over the stacked center."""
    c_t, mu_t = circle_realized_stacked(theta, e)
    return np.sum((c_t - np.asarray(a, dtype=float)) ** 2, axis=-1) - mu_t**2


def circle_response_stacked(theta, a, e):
    """mu~^2 + ||a - c~|| over the stacked center."""
    c_t, mu_t = circle_realized_stacked(theta, e)
    return mu_t**2 + np.sqrt(np.sum((np.asarray(a, dtype=float) - c_t) ** 2, axis=-1))


def analyze_full_grid(spec, theta, data, cfg):
    """Robust Monte Carlo report computed on the whole (n_a', n_e') testing
    grid at once: each requirement evaluated in one call, columns sorted
    and trimmed, then the per-draw probabilities, counts and ranges.  It
    shares the ECDF kernels and the binomial interval with the library, so
    only the blocking of the grid differs."""
    from scendo.ecdf import quantile_of, sorted_cdf, strictify_sorted
    from scendo.montecarlo import RmcConfig, RmcReport, clopper_pearson

    def excluded(n, alpha):  # n * alpha, or the integer it lies within SNAP * n of
        t = n * float(alpha)
        return round(t) if math.isclose(t, round(t), rel_tol=0.0, abs_tol=SNAP * n) else t

    def seq_quantile(vals, level):
        q = float(quantile_of(vals, level))
        return float(np.clip(q, float(vals.min()), float(vals.max())))

    a = data.testing_aleatory[:, None, :]
    e = data.testing_epistemic[None, :, :]
    shape = (data.n_a_test, data.n_e_test)
    grids = [np.broadcast_to(np.asarray(rk(theta, a, e), float), shape) for rk in spec.requirements]
    fails = np.column_stack([np.max(g, axis=1) > 0.0 for g in grids])
    if cfg.worst_case:
        grids = [np.maximum.reduce(grids)]
        cfg = RmcConfig(cfg.alpha_a[:1], cfg.alpha_e[:1], cfg.sigma, cfg.p_max[:1], True)
    cfg = cfg.for_requirements(len(grids))
    out = {"range_a": [], "range_b": [], "point_c": [], "range_d": [], "p": []}
    for k, grid in enumerate(grids):
        n_keep = data.n_a_test - math.floor(excluded(data.n_a_test, cfg.alpha_a[k]))
        rows = grid.T.copy()
        rows.sort(axis=-1)
        trimmed = np.ascontiguousarray(rows[:, :n_keep])
        p = np.clip(1.0 - sorted_cdf(strictify_sorted(trimmed), 0.0), 0.0, 1.0)
        m = np.count_nonzero(trimmed <= 0.0, axis=1)
        ci_lo, ci_hi = clopper_pearson(m, n_keep, cfg.sigma)
        upper_fail = 1.0 - ci_lo
        level = 1.0 - cfg.alpha_e[k]
        n_q = data.n_e_test - math.ceil(excluded(data.n_e_test, cfg.alpha_e[k]))
        q_kept = strictify_sorted(np.sort(upper_fail, kind="stable")[:n_q])
        d_lo, d_hi = clopper_pearson(int(np.count_nonzero(q_kept > cfg.p_max[k])), n_q, cfg.sigma)
        out["range_a"].append([seq_quantile(p, 0.0), seq_quantile(p, level)])
        out["range_b"].append(
            [float(np.clip(1.0 - np.max(ci_hi), 0.0, 1.0)), seq_quantile(upper_fail, level)]
        )
        out["point_c"].append(float(np.clip(1.0 - sorted_cdf(q_kept, cfg.p_max[k]), 0.0, 1.0)))
        out["range_d"].append([float(d_lo[0]), float(d_hi[0])])
        out["p"].append(p)
    return RmcReport(
        range_a=np.array(out["range_a"]),
        range_b=np.array(out["range_b"]),
        point_c=np.array(out["point_c"]),
        range_d=np.array(out["range_d"]),
        p_by_epistemic=np.stack(out["p"]),
        scenario_fails=fails,
        sigma=cfg.sigma,
        worst_case=cfg.worst_case,
    )
