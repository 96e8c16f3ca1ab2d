"""Finite surrogates of compact model classes in l_2, and l_p norms of vectors.

Everything downstream (nets, extensions, width experiments) works on finite
point clouds under the l_2 norm, the setting of the Kirszbraun extension,
the random projection and the SVD baseline; a cloud's dimension is its row
length.  Only norm takes an exponent, for the l_q balls, the operator-norm
brackets and k-term errors.  A surrogate stands in for a compact class;
its ``resolution`` is the radius within which it covers that class: the
ideal class for a generated cloud (0 when the cloud is the class itself),
the walked cloud for a greedy cover from widthlab.nets.

Distances come from two reference expressions, both sqrt(sum((a - b)**2))
and apart only in the order of the sum.  Pair distances
(pairwise_distances, the farthest-point rows of widthlab.nets) sum the
squares in coordinate order, as pdist and cdist do, so they equal theirs
bit for bit.  nearest_distances and the Kirszbraun scans of
widthlab.extend take np.linalg.norm's sum.

Where few distances matter, they are screened in Gram form and only those
few are evaluated exactly.  Given squared row norms, a squared distance
comes as ||a||^2 - 2 a.b + ||b||^2 from one matrix product.  In floating
point that form errs by at most
gamma_{k+2} (||a|| + ||b||)^2 <= 2 gamma_{k+2} (||a||^2 + ||b||^2) for rows
of length k, whatever the summation order of the product, with
gamma_k = k u / (1 - k u) and u = 2^-53.  Either reference expression in
turn lies within a factor 1 +- gamma_{k+4} of the true squared distance,
since that bound too holds for any summation order, so one screen serves
both.  The screen widens both by the relative margin 8 (k + 8) u of
_screen_margin, which also covers the rounding of its own arithmetic, and
by 2^-900 absolute for underflow.  It thus bounds every reference
distance d_i to a query from below, lo_i <= d_i^2, and the distance of the
row of least lo from above, d^2 <= hi.  A row with lo_i > hi is strictly
farther than that row, so the nearest reference distance is the least
over the rows with lo_i <= hi, bit for bit.  The same bounds on the pairs
of two clouds with one row per sample bound every pair ratio
||f_i - f_j|| / ||x_i - x_j|| from both sides, so pair_ratio_extremes
evaluates exactly only the pairs that can reach the least or the largest
ratio.  A pair whose two gaps both pass the float range reads inf / inf,
which no screen or expression can resolve, so pair_ratio_extremes refuses
it.  Those extremes are the Lipschitz constants of a finite map and of
its inverse: the check of widthlab.extend's sampled maps, the budgets of
widthlab.csrecovery and the rescaled draws of widthlab.stablewidth's
random projection.  widthlab.extend runs the same screen inside its
Kirszbraun scans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelClassSurrogate",
    "AlphaSequence",
    "norm",
    "pairwise_distances",
    "pair_ratio_extremes",
    "nearest_distances",
    "generate_Kq",
    "generate_diag_class",
    "generate_sparse_class",
]


def norm(x: np.ndarray, p: float) -> np.ndarray:
    """l_p norm of a vector, or row-wise norms of a 2-d array, p in [1, inf]."""
    if not p >= 1.0:
        raise ValueError(f"p must satisfy 1 <= p <= inf, got {p}")
    x = np.asarray(x, dtype=float)
    if math.isinf(p):
        return np.max(np.abs(x), axis=-1)
    if p == 1.0:
        return np.sum(np.abs(x), axis=-1)
    if p == 2.0:
        return np.sqrt(np.sum(x * x, axis=-1))
    return np.sum(np.abs(x) ** p, axis=-1) ** (1.0 / p)


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Dense matrix of l_2 distances between rows of ``points``.

    Entry (i, j) sums the squared differences of rows i and j in
    coordinate order (module docstring), so the matrix is
    squareform(pdist(points)) bit for bit.  Rows go through in blocks of
    about _BLOCK_ELEMENTS differences.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be a 2-d array, one point per row")
    m, dim = points.shape
    coords = np.ascontiguousarray(points.T)
    out = np.empty((m, m))
    block_rows = max(1, _BLOCK_ELEMENTS // max(m * dim, 1))
    for start in range(0, m, block_rows):
        block = coords[:, start:start + block_rows, None]
        out[start:start + block_rows] = _distances(block, coords[:, None, :])
    return out


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The pair expression on coordinate-major arrays: axis 0 is the coordinate.

    sqrt(sum_k (a[k] - b[k])**2) with the squares summed in coordinate
    order, k = 0, 1, ..., as pdist and cdist sum them; a and b
    broadcast.  numpy sums axis 0 in that order for results of two or more
    entries; the callers' one-entry results are a point against itself, 0.
    """
    diff = a - b
    # squares past the float range are inf, as in pdist and cdist
    with np.errstate(over="ignore"):
        diff *= diff
        total = np.add.reduce(diff, axis=0)
    return np.sqrt(total, out=total)


# unit roundoff of float64, and the screen's absolute allowance on squared
# distances for underflow in any of their sums
_UNIT_ROUNDOFF = 2.0**-53
_UNDERFLOW = 2.0**-900

# entries of one block's Gram matrix, and of one batch of difference rows
_BLOCK_ELEMENTS = 1 << 16


def _screen_margin(k: int) -> float:
    """Relative screen margin for rows of length k: 8 (k + 8) u.

    That is over twice the 4 (k + 3) u which the Gram-form error, the
    reference expression's rounding and the screen's own few roundings
    need together.
    """
    return 8.0 * (k + 8) * _UNIT_ROUNDOFF


def nearest_distances(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """l_2 distance from each query row to its nearest row of ``points``.

    Entry i is np.min(np.linalg.norm(queries[i] - points, axis=-1)), bit
    for bit.  Queries go through in blocks of _BLOCK_ELEMENTS / len(points)
    rows.  One matrix product per block screens every query-point pair in
    Gram form (module docstring), and the reference expression runs only on
    the pairs the screen keeps, _BLOCK_ELEMENTS / dim pairs at a time, so
    no temporary grows as queries x points x dim.  When a block's squared
    norms are large enough for the Gram form to overflow, or not finite,
    every pair of the block goes to the reference expression.
    """
    queries = np.asarray(queries, dtype=float)
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or len(points) == 0:
        raise ValueError("points must be a 2-d array of at least one row")
    if queries.ndim != 2 or queries.shape[1] != points.shape[1]:
        raise ValueError(
            f"queries of shape {queries.shape} do not match rows of length "
            f"{points.shape[1]}"
        )
    m, dim = points.shape
    sq_q = np.einsum("ij,ij->i", queries, queries)
    sq_p = np.einsum("ij,ij->i", points, points)
    out = np.full(len(queries), math.inf)
    block_rows = max(1, _BLOCK_ELEMENTS // m)
    batch = max(1, _BLOCK_ELEMENTS // max(dim, 1))
    for start in range(0, len(queries), block_rows):
        block = queries[start:start + block_rows]
        lo, hi = _gram_bounds(block, sq_q[start:start + block_rows], points, sq_p)
        # every lo_i past the hi of the row of least lo is strictly farther
        least = np.argmin(lo, axis=1)
        rows, cols = (lo <= hi[np.arange(len(block)), least][:, None]).nonzero()
        del lo, hi  # before the next block's bounds exist
        best = out[start:start + block_rows]
        for s in range(0, len(rows), batch):
            r, c = rows[s:s + batch], cols[s:s + batch]
            # off the screen, squares past the float range are inf
            with np.errstate(over="ignore"):
                dist = np.linalg.norm(block[r] - points[c], axis=-1)
            np.minimum.at(best, r, dist)
    return out


def _gram_bounds(a, sq_a, b, sq_b):
    """Gram-form bounds (lo, hi) on the pairs of rows (a_i, b_j).

    lo <= d^2 <= hi for the reference distance d of each pair (module
    docstring), as (len(a), len(b)) arrays; sq_a and sq_b hold the squared
    row norms.  Where 4 (||a||^2 + ||b||^2) may overflow, or is not
    finite, the bounds are -inf and inf.
    """
    shape = (len(a), len(b))
    # 4 (||a||^2 + ||b||^2) finite keeps every Gram-form quantity finite
    with np.errstate(over="ignore"):
        finite = np.isfinite(4.0 * (sq_a.max(initial=0.0) + sq_b.max(initial=0.0)))
    if not finite:
        return np.full(shape, -math.inf), np.full(shape, math.inf)
    margin = _screen_margin(a.shape[1])
    cross = a @ b.T
    cross *= 2.0
    hi = sq_b + sq_a[:, None]
    hi *= 1.0 + margin
    hi -= cross
    hi += _UNDERFLOW
    # lo takes cross's place, so a block holds two arrays of its size
    lo = np.subtract((1.0 - margin) * sq_b, cross, out=cross)
    lo += ((1.0 - margin) * sq_a - _UNDERFLOW)[:, None]
    return lo, hi


def pair_ratio_extremes(xs: np.ndarray, fs: np.ndarray):
    """Least and largest ratio ||f_i - f_j|| / ||x_i - x_j|| over pairs i < j.

    xs and fs hold one sample a row, at least two.  Returns (least,
    largest, (i, j)), (i, j) the first pair of the largest in row-major
    order, each the dense pairwise_distances ratios' bit for bit:
    pairwise_distances runs only on the rows of the pairs whose Gram-form
    ratio bounds (module docstring) can reach an extreme.  Rows go through
    in blocks of about _BLOCK_ELEMENTS / rows rows, so no temporary grows
    as rows^2.  ValueError names the first pair in row-major order of
    rows of xs at distance 0, or else of a ratio that cannot be measured:
    with finite rows, a pair whose two gaps both pass the float range,
    inf / inf.  Every such pair is evaluated, since a gap may overflow
    only in a block whose Gram-form bounds are infinite, and such a block
    keeps all its pairs.
    """
    xs, fs = np.asarray(xs, dtype=float), np.asarray(fs, dtype=float)
    m = len(xs)
    if xs.ndim != 2 or fs.ndim != 2 or len(fs) != m or m < 2:
        raise ValueError("xs and fs must be 2-d with the same rows, at least two")
    sq_x = np.einsum("ij,ij->i", xs, xs)
    sq_f = np.einsum("ij,ij->i", fs, fs)
    block_rows = max(1, _BLOCK_ELEMENTS // m)
    # bounds on the extremes of the ratios: top <= largest and
    # least <= bottom
    top, bottom = -math.inf, math.inf
    kept_i, kept_j = [], []
    for start in range(0, m - 1, block_rows):
        block = slice(start, start + block_rows)
        lo_x, hi_x = _gram_bounds(xs[block], sq_x[block], xs[start:], sq_x[start:])
        lo_f, hi_f = _gram_bounds(fs[block], sq_f[block], fs[start:], sq_f[start:])
        # rounding is monotone, so lo <= ratio <= hi for every exact ratio;
        # a pair that may be at gap 0 has hi = inf and stays open.  Bounds
        # on and below the diagonal belong to the same pairs, or to none,
        # so they may tighten top and bottom too
        with np.errstate(divide="ignore", invalid="ignore"):
            lo = np.sqrt(np.maximum(lo_f, 0.0, out=lo_f), out=lo_f)
            lo /= np.sqrt(hi_x, out=hi_x)
            hi = np.sqrt(hi_f, out=hi_f)
            hi /= np.sqrt(np.maximum(lo_x, 0.0, out=lo_x), out=lo_x)
        top, bottom = max(top, float(lo.max())), min(bottom, float(hi.min()))
        rows, cols = ((hi >= top) | (lo <= bottom)).nonzero()
        upper = cols > rows
        kept_i.append(rows[upper] + start)
        kept_j.append(cols[upper] + start)
    i, j = np.concatenate(kept_i), np.concatenate(kept_j)
    used, inverse = np.unique(np.concatenate([i, j]), return_inverse=True)
    a, b = inverse[:len(i)], inverse[len(i):]
    gaps = pairwise_distances(xs[used])[a, b]
    if not gaps.all():
        k = int(np.argmin(gaps))
        raise ValueError(f"domain rows {i[k]},{j[k]} are at distance 0; "
                         "they must be pairwise distinct")
    with np.errstate(invalid="ignore"):
        ratios = pairwise_distances(fs[used])[a, b] / gaps
    unmeasured = np.flatnonzero(np.isnan(ratios))
    if unmeasured.size:
        k = unmeasured[0]
        raise ValueError(f"samples {i[k]},{j[k]} have gaps past the float range "
                         "on both sides; their ratio cannot be measured")
    k = int(ratios.argmax())
    return float(ratios.min()), float(ratios[k]), (int(i[k]), int(j[k]))


@dataclass(frozen=True)
class ModelClassSurrogate:
    """Finite point cloud in l_2 standing in for a compact class K.

    resolution: the radius within which the cloud covers the class it
    stands for, guaranteed or estimated; that class is the ideal one for a
    generated class and the walked cloud for a greedy cover.  0 when the
    cloud is the class itself.
    """

    points: np.ndarray
    resolution: float = 0.0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-d array, one point per row")
        if pts.shape[1] < 1:
            raise ValueError("points must be rows of positive width")
        if pts.shape[0] < 1:
            raise ValueError("surrogate needs at least one point")
        if np.unique(pts, axis=0).shape[0] != pts.shape[0]:
            raise ValueError("surrogate points must be pairwise distinct")
        if self.resolution < 0:
            raise ValueError("resolution must be nonnegative")
        object.__setattr__(self, "points", pts)

    @property
    def count(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class AlphaSequence:
    """Slowly decaying sequence alpha_j = (1 + log2 j)^(-r/2), j >= 1.

    Strictly decreasing, tends to 0, and the ratio alpha_{2n}/alpha_n tends
    to 1; these are the properties the diagonal counterexample needs.
    """

    r: float

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError(f"r must be positive, got {self.r}")

    def alpha(self, j) -> np.ndarray | float:
        j_arr = np.asarray(j)
        if np.any(j_arr < 1):
            raise ValueError("alpha_j is defined for j >= 1")
        out = (1.0 + np.log2(j_arr)) ** (-self.r / 2.0)
        return float(out) if np.isscalar(j) else out


def generate_Kq(N: int, q: float, count: int, seed: int) -> ModelClassSurrogate:
    """Sample ``count`` points uniformly from the unit l_q ball in R^N.

    Direction is drawn from the cone measure of the l_q sphere (coordinates
    sign * Gamma(1/q)^(1/q)), radius from the U^(1/N) law, which together
    give the uniform distribution on the ball.  q = inf uses uniform
    coordinates in [-1, 1], which is that ball's uniform law directly.
    The class is measured in l_2^N.

    The resolution is 0.0, which reads "the cloud is the class": every
    bound on a kq class describes the sampled cloud, not the ball B_q^N.
    The cloud does not cover the ball; in the default cloud (2,000 draws
    from B_1^32) the vertices +-e_i lie 0.72-0.88 from their nearest point.
    """
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    if count < 1:
        raise ValueError("count must be positive")
    if not (q >= 1.0):
        raise ValueError(f"q must satisfy 1 <= q <= inf, got {q}")
    rng = np.random.default_rng(seed)

    def draw(k: int) -> np.ndarray:
        if math.isinf(q):
            return rng.uniform(-1.0, 1.0, size=(k, N))
        mag = rng.standard_gamma(1.0 / q, size=(k, N)) ** (1.0 / q)
        direction = mag * rng.choice([-1.0, 1.0], size=(k, N))
        direction /= norm(direction, q)[:, None]
        radius = rng.uniform(size=k) ** (1.0 / N)
        return direction * radius[:, None]

    # continuous draws repeat a row with probability 0; the surrogate
    # refuses a repeated row
    pts = draw(count)
    return ModelClassSurrogate(points=pts, resolution=0.0)


def generate_diag_class(alpha: AlphaSequence, m: int) -> ModelClassSurrogate:
    """Truncated diagonal class {alpha_j e_j : j <= m} plus the origin in l_2^m.

    Every dropped tail point alpha_j e_j (j > m) lies within alpha_{m+1} of
    the origin, so the truncation resolution is alpha_{m+1}.
    """
    if m < 1:
        raise ValueError("m must be positive")
    pts = np.zeros((m + 1, m))
    idx = np.arange(1, m + 1)
    pts[:m, :][idx - 1, idx - 1] = alpha.alpha(idx)
    return ModelClassSurrogate(points=pts, resolution=float(alpha.alpha(m + 1)))


def generate_sparse_class(
    N: int, k: int, count: int, seed: int
) -> ModelClassSurrogate:
    """Sample k-sparse points from the unit l_2 ball in R^N.

    Supports are uniform among the k-subsets; on each support the entries
    are uniform in the k-dimensional unit ball (sphere direction times a
    U^(1/k) radius).  resolution is the largest distance from 4 * count
    fresh draws of the same law to their nearest cloud point, found by
    nearest_distances: a lower estimate of the covering radius.
    """
    if not (1 <= k <= N):
        raise ValueError(f"need 1 <= k <= N, got k={k}, N={N}")
    if count < 1:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)

    def draw(n_draw: int) -> np.ndarray:
        pts = np.zeros((n_draw, N))
        for i in range(n_draw):
            support = rng.choice(N, size=k, replace=False)
            g = rng.standard_normal(k)
            g /= np.linalg.norm(g)
            pts[i, support] = g * rng.uniform() ** (1.0 / k)
        return pts

    # continuous draws repeat a row with probability 0; the surrogate
    # refuses a repeated row
    pts = draw(count)
    # estimated covering density of the cloud in Sigma_k cap B: max distance
    # from fresh probe draws to their nearest cloud point (a lower estimate
    # of the true covering radius; callers fold in realized distances too)
    res = float(np.max(nearest_distances(draw(4 * count), pts), initial=-math.inf))
    return ModelClassSurrogate(points=pts, resolution=res)
