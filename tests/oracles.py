"""Independent reference implementations used only by the tests.

These deliberately avoid the library's own code paths: the enclosing
circle is computed geometrically (Welzl), quantile indices by the literal
argmin rule, the ECDF interpolant row by row in Python floats, and small
selection problems by exhaustive enumeration.
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
