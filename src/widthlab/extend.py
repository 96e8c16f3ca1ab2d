"""Lipschitz maps known on finitely many samples, and their Kirszbraun extension.

Kirszbraun evaluation extends an l_2 -> l_2 map as a convex feasibility
problem: find y with ||y - f_i|| <= gamma * ||x - x_i|| + EVAL_TOL for all
i, solved by projecting onto the most violated ball.  The intersection is
nonempty whenever the samples are a gamma-Lipschitz pair set, so the
iteration converges; the cap signals numerical failure rather than being
silently swallowed.  SampledLipschitzMap checks that condition when built:
its largest sample pair ratio (widthlab.spaces.pair_ratio_extremes) may
exceed gamma by the relative slack 1e-9 at most.  EVAL_TOL is the engine's
constant, not a parameter: every map in the package evaluates as
eval_batch(X), so no two evaluations can run at different tolerances.

Where two balls meet in a thin lens, projecting onto them in turn crawls
(von Neumann's alternating projections; Bauschke and Borwein, Set-Valued
Analysis 1993).  So when the most violated ball is the one projected onto
two steps earlier, and the step in between projected onto another ball,
y steps in closed form to the nearest point of the circle where the two
spheres meet, which lies in both balls.  Where there is no such circle or
no unique nearest point (concentric centres; disjoint, nested or tangent
spheres; y on the line through the centres) it takes the plain
projection.  The stop rule is unchanged, so only the values of such
queries move.  In the default stable-width run (seed 0) the most steps
one query takes fall from 15,447 to 9, and all 31,164 queries together
take 11,459 steps in place of 44,691.

Every iterate is an affine combination of stored values: the start is a
stored value, and a projection and a two-ball step combine y with
centres.  So the loop never leaves the affine hull of the sample values,
where a Kirszbraun value can always be taken, since projecting onto that
hull moves no point farther from any centre.  When the m sample values
span a proper affine subspace of the value space (m - 1 < df, the row
length of the values), the loop runs in that hull's coordinates: one
SVD of the centred values (fs[1:] - fs[0]).T gives an orthonormal basis
B of m - 1 columns, the loop, its screen, the two-ball step and the stop
rule run unchanged on (fs - fs[0]) B, and values map back as
fs[0] + C B^T.  That is exact in exact arithmetic, and each scan
multiplies m - 1 columns in place of df: a stable-width encoder's 2^n
values span 2^n - 1 of its 26n code coordinates, 3 of 52 at n=2.  A
query that never moves from a sample's value, such as a query at that
sample, returns the sample's row of fs bit for bit, and a query at the
point of an earlier query returns that query's row, so equal queries get
equal rows after the map back.  Maps whose values span their space
(m - 1 >= df) run in the value coordinates.

Every map here is a batch map on the rows of a 2-d array; one point is a
one-row batch.  Kirszbraun batches extend lazily: each solved query joins
the constraint set, which is the constructive form of extending one point
at a time (the enlarged sample set stays gamma-Lipschitz, so the next
intersection is again nonempty).  Without this, independently chosen
feasible values jump between warm-start basins and the realized map is not
Lipschitz at all.

Each Kirszbraun scan is a screen followed by exact evaluation of the few
rows that can bind.  The store keeps the squared norms of its points and
values, so a squared distance comes in Gram form ||a||^2 - 2 a.b + ||b||^2
from one matrix-vector product, widened by the margin and underflow
allowance whose float bound the widthlab.spaces docstring proves.  Once
per query the screen bounds every reference distance d_i to the query from
below, lo_i <= d_i^2, and the distance of the row of least lo from above;
hence the few candidates for the nearest point and a lower bound on each
squared radius, gamma^2 lo_i + s_i^2 <= (gamma d_i + s_i)^2 for a row of
slack s_i, which takes no square root.  At each projection step it
yields the set S of rows whose violation may reach 0, and only the rows
of S are evaluated with the reference expressions.  Every row outside S
has a violation below 0 < EVAL_TOL, so it can neither be the argmax of a
violation that needs a projection nor decide a stop: values, iteration
counts and ExtensionFeasibilityError are bit-identical to scanning every
row.

Audits measure l_2 constants on a (count, 2, dim) array of sampled pairs
with one batch call, and are lower bounds on the true constant: honest
measurement beats silent failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spaces import _UNDERFLOW, _screen_margin, norm, pair_ratio_extremes

__all__ = [
    "EVAL_TOL",
    "SampledLipschitzMap",
    "LipschitzAudit",
    "ExtensionFeasibilityError",
    "kirszbraun_eval_batch",
    "lipschitz_audit",
    "sample_pairs",
]

# per-query feasibility target of every Kirszbraun evaluation: orders
# tighter than any audited budget, and it keeps thin-intersection queries
# from hitting the iteration cap at a near-miss residual
EVAL_TOL = 1e-7

# projections one Kirszbraun query may take before it counts as a failure
_ITERATION_CAP = 100_000

class ExtensionFeasibilityError(RuntimeError):
    """Ball-intersection iteration hit its cap before reaching tolerance."""

    def __init__(self, max_residual: float, iterations: int):
        super().__init__(
            f"feasibility residual {max_residual:.3e} after {iterations} iterations"
        )
        self.max_residual = max_residual
        self.iterations = iterations

    def __reduce__(self):
        return type(self), (self.max_residual, self.iterations)


@dataclass(frozen=True)
class SampledLipschitzMap:
    """Map known on samples (x_i, f_i) with a Lipschitz budget gamma.

    Both sides carry the l_2 norm, the setting of the Kirszbraun extension,
    and their dimensions are the row lengths of xs and fs.  Construction
    checks that the samples are a gamma-Lipschitz pair set:
    ||f_i - f_j|| <= gamma * ||x_i - x_j|| for all pairs, up to a relative
    slack 1e-9 absorbing float rounding, so it raises ValueError when the
    largest pair ratio exceeds gamma (1 + 1e-9), naming the pair of that
    ratio.  The ratios come from one call to spaces.pair_ratio_extremes, so
    the verdict and the error are those of the full distance matrices, and
    its ValueError for two domain samples at distance 0, or for a pair
    whose two gaps both pass the float range (inf / inf), passes through.
    """

    xs: np.ndarray
    fs: np.ndarray
    gamma: float

    def __post_init__(self):
        xs = np.atleast_2d(np.asarray(self.xs, dtype=float))
        fs = np.atleast_2d(np.asarray(self.fs, dtype=float))
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "fs", fs)
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if xs.shape[0] != fs.shape[0]:
            raise ValueError("domain and target sample counts differ")
        if xs.shape[0] < 1:
            raise ValueError("need at least one sample")
        if xs.shape[1] < 1 or fs.shape[1] < 1:
            raise ValueError("samples must be rows of positive width")
        bad = np.flatnonzero(~np.isfinite(np.hstack([xs, fs])).all(axis=1))
        if bad.size:
            raise ValueError(f"sample {bad[0]} is not finite")
        if xs.shape[0] > 1:
            _, largest, pair = pair_ratio_extremes(xs, fs)
            if largest > self.gamma * (1.0 + 1e-9):
                raise ValueError(
                    f"samples {pair[0]},{pair[1]} violate the gamma-Lipschitz "
                    f"condition: pair ratio {largest} > gamma {self.gamma}"
                )

    @property
    def count(self) -> int:
        return self.xs.shape[0]

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        """Kirszbraun extension at the rows of X."""
        return kirszbraun_eval_batch(self, X)


@dataclass(frozen=True)
class LipschitzAudit:
    """Ratios ||F(x)-F(x')|| / ||x-x'|| over sampled pairs, and their maximum."""

    measured: float
    ratios: np.ndarray


def _two_ball_step(y, a, r_a, b, r_b):
    """The point nearest y where the spheres (a, r_a) and (b, r_b) meet.

    Those spheres meet in a circle of the hyperplane orthogonal to
    u = (b - a) / d, d = ||b - a||, around a + t u at radius rho, where
    t = (d^2 + r_a^2 - r_b^2) / 2d and rho^2 = r_a^2 - t^2; the point of
    the circle nearest y lies along w, the part of y - a orthogonal to u.
    None when the spheres meet in no circle or its nearest point is not unique:
    concentric centres (d = 0), spheres that are disjoint, nested or
    tangent (rho^2 <= 0), and y on the line through the centres (w = 0).
    """
    u = b - a
    d = math.sqrt(u @ u)
    if d == 0.0:
        return None
    u /= d
    t = (d * d + r_a * r_a - r_b * r_b) / (2.0 * d)
    rho_sq = r_a * r_a - t * t
    if not rho_sq > 0.0:
        return None
    w = y - a
    w -= (w @ u) * u
    norm_w = math.sqrt(w @ w)
    if norm_w == 0.0:
        return None
    return a + t * u + (math.sqrt(rho_sq) / norm_w) * w


def _hull_coordinates(fs):
    """Coordinates of the m rows of fs in their affine hull, or None.

    When m - 1 < df, the row length, the rows span a proper affine subspace
    of R^df.  Returns (origin, basis, coords): origin = fs[0], basis the
    df x (m - 1) left singular vectors of the centred values
    (fs[1:] - origin).T, an orthonormal basis of their span, and coords =
    (fs - origin) @ basis, so that fs = origin + coords @ basis.T in exact
    arithmetic.  None when m - 1 >= df.
    """
    m, df = fs.shape
    if m - 1 >= df:
        return None
    origin = fs[0]
    # an SVD, not a QR: the width experiments already run LAPACK's SVD for
    # their linear baseline, and a first QR would load another
    # factorization's code into the process, about 68 KB resident
    basis = np.linalg.svd((fs[1:] - origin).T, full_matrices=False)[0]
    return origin, basis, (fs - origin) @ basis


def kirszbraun_eval_batch(map_: SampledLipschitzMap, X: np.ndarray) -> np.ndarray:
    """Lazy sequential extension at many query points.

    Queries are processed in order; each y starts at the value of its
    nearest constraint point and is repeatedly projected onto its currently
    most violated ball until every residual drops to EVAL_TOL, then joins the
    constraint set.  Any two values returned by one call therefore obey the
    gamma budget against each other, not just against the original samples.
    A step whose most violated row j was also the row of the step before
    last, with another row i in between, is the two-ball step of the module
    docstring: y moves to the nearest point where the spheres of i and j
    meet, i at the radius of its own step, or is projected onto j as usual
    when they have no such point.  That step, not the slack, is what keeps
    a thin lens between two balls from slowing the loop to a crawl.
    Accumulated balls carry their accepted residual plus 100 EVAL_TOL as
    slack: the EVAL_TOL-level error of one solve is absorbed rather than
    compounded into a later infeasible system.
    The sample constraints themselves are always enforced without slack.
    A query equal to a sample returns that sample's value (the sample's
    ball has radius 0).  A query equal to an earlier stored query gets that
    query's answer bit for bit, with no scan, so the realized map is a
    function.  When the m sample values span a proper affine subspace
    (m - 1 < df), the loop runs in that hull's coordinates and maps its
    values back (module docstring); a query that never moves from a
    sample's value, whether it started at the sample or at a stored query
    that kept that value, returns the sample's row of map_.fs bit for bit:
    each stored row records the sample whose value it holds.  A query
    still infeasible after _ITERATION_CAP projections raises
    ExtensionFeasibilityError; a query that is not finite, or whose squared
    norm overflows, and a query row whose length is not the samples' raise
    ValueError.
    Each scan evaluates exactly only the rows the Gram-form screen of the
    module docstring keeps.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != map_.xs.shape[1]:
        raise ValueError(f"query rows of length {X.shape[1]} do not match "
                         f"sample rows of length {map_.xs.shape[1]}")
    sq_x = np.einsum("ij,ij->i", X, X)
    bad = np.flatnonzero(~np.isfinite(sq_x))
    if bad.size:
        raise ValueError(f"query row {bad[0]} is not finite or too large to square")
    Q = X.shape[0]
    m = map_.count
    gamma = map_.gamma
    # the loop runs on the values' coordinates in their affine hull, when
    # that is a proper subspace: no iterate can leave it
    hull = _hull_coordinates(map_.fs)
    fs = map_.fs if hull is None else hull[2]
    cx = np.concatenate([map_.xs, np.empty((Q, X.shape[1]))], axis=0)
    cf = np.concatenate([fs, np.empty((Q, fs.shape[1]))], axis=0)
    margin_x = _screen_margin(X.shape[1])
    margin_f = _screen_margin(fs.shape[1])
    up_f, down_f = 0.5 + 0.5 * margin_f, 0.5 - 0.5 * margin_f
    # squared row norms of the store, widened by the screen's margins; the
    # rows queries fill start at 0, so the widening never sees garbage
    sq_cx = np.concatenate([np.einsum("ij,ij->i", map_.xs, map_.xs), np.zeros(Q)])
    lo_cx = (1.0 - margin_x) * sq_cx
    hi_cf = np.concatenate([np.einsum("ij,ij->i", fs, fs), np.zeros(Q)])
    # less down_f slack^2 on a query's row, the slack's share of the lower
    # bound on its squared radius
    hi_cf = up_f * hi_cf + _UNDERFLOW
    slack = np.zeros(m + Q)
    # the sample whose value each stored row holds untouched, or -1, and
    # the query that each stored query row answered
    source = list(range(m))
    answered = []
    Y = np.empty((Q, fs.shape[1]))
    # (query, sample) for each query that kept a sample's value untouched,
    # and (query, earlier query) for each query at an earlier stored query
    kept = []
    repeats = []
    n_c = m
    # the loops call np.add.reduce and the argmin/argmax methods directly:
    # np.sum, np.argmin and np.argmax run the same reductions behind a
    # Python-level wrapper, and a default run makes about 10^5 such calls
    for q in range(Q):
        x = X[q]
        # lo_i <= d_i^2 for the reference distance d_i to each point, and
        # d^2 <= hi at the row of least lo, so the nearest point is among
        # the rows with lo_i <= hi
        cross = cx[:n_c] @ (2.0 * x)
        lo = lo_cx[:n_c] - cross
        lo += (1.0 - margin_x) * sq_x[q] - _UNDERFLOW
        least = int(lo.argmin())
        hi = (1.0 + margin_x) * (sq_cx[least] + sq_x[q]) - cross[least] + _UNDERFLOW
        near = (lo <= hi).nonzero()[0]
        d_near = np.sqrt(np.add.reduce((cx[near] - x) ** 2, axis=1))
        k = int(d_near.argmin())
        nearest = int(near[k])
        if d_near[k] == 0.0 and nearest >= m:
            repeats.append((q, answered[nearest - m]))
            continue
        # gamma^2 lo_i + slack_i^2 <= (gamma d_i + slack_i)^2 bounds every
        # squared radius from below; row i is kept while
        # cf_i . y <= bound_i + up_f ||y||^2, which its violation needs in
        # order to reach 0
        bound = np.maximum(lo, 0.0, out=lo)
        bound *= -down_f * gamma * gamma
        bound += hi_cf[:n_c]
        y = cf[nearest].copy()
        # the rows of the last two steps, and the radius of the last one
        last = before = -1
        r_last = 0.0
        for _ in range(_ITERATION_CAP):
            rows = (cf[:n_c] @ y <= bound + up_f * (y @ y)).nonzero()[0]
            if rows.size == 0:
                worst = -math.inf  # y lies strictly inside every ball
                break
            dist = np.sqrt(np.add.reduce((y - cf[rows]) ** 2, axis=1))
            radii = gamma * np.sqrt(np.add.reduce((cx[rows] - x) ** 2, axis=1)) + slack[rows]
            viol = dist - radii
            i = int(viol.argmax())
            worst = float(viol[i])
            if worst <= EVAL_TOL:
                break
            j = int(rows[i])
            r_j = float(radii[i])
            # y ping-pongs between two balls: step onto their common circle
            p = None
            if j == before != last:
                p = _two_ball_step(y, cf[last], r_last, cf[j], r_j)
            if p is None:
                # pull y onto the violated sphere; dist[i] > radii[i] >= 0
                p = cf[j] + (y - cf[j]) * (r_j / dist[i])
            y = p
            before, last, r_last = last, j, r_j
        else:
            raise ExtensionFeasibilityError(worst, _ITERATION_CAP)
        Y[q] = y
        held = source[nearest] if last < 0 else -1
        if held >= 0:
            kept.append((q, held))
        if d_near[k] > 0.0:
            cx[n_c] = x
            cf[n_c] = y
            source.append(held)
            answered.append(q)
            sq_cx[n_c] = sq_x[q]
            lo_cx[n_c] = (1.0 - margin_x) * sq_x[q]
            slack[n_c] = max(worst, 0.0) + 100.0 * EVAL_TOL
            hi_cf[n_c] = up_f * (y @ y) + _UNDERFLOW - down_f * slack[n_c] * slack[n_c]
            n_c += 1
    if hull is not None:
        origin, basis, _ = hull
        Y = Y @ basis.T + origin
        # a sample's value kept untouched is its row of fs, bit for bit;
        # row by row, as the kernel runs no fancy-index assignment
        # elsewhere and its first one pages in about 68 KB of numpy's code
        for q, row in kept:
            Y[q] = map_.fs[row]
    for q, earlier in repeats:
        Y[q] = Y[earlier]
    return Y


def lipschitz_audit(fn, pairs: np.ndarray) -> LipschitzAudit:
    """Measure ||fn(x)-fn(x')|| / ||x-x'|| on each pair of a (count, 2, dim) array.

    fn maps the rows of a 2-d array to their images.  The maximum ratio is
    a sampled lower bound on the true constant.  Pairs at zero domain
    distance are rejected.  All distinct endpoints go to fn in one call, so
    lazily extending maps see them as a single consistent constraint set.
    """
    pairs = np.asarray(pairs, dtype=float)
    if len(pairs) == 0:
        raise ValueError("need at least one pair")
    dx = norm(pairs[:, 0] - pairs[:, 1], 2.0)
    if np.any(dx == 0.0):
        raise ValueError("audit pairs must be at positive distance")
    # distinct endpoints in the lexicographic row order of np.unique(axis=0),
    # which is the order a lazy extension meets them.  A stable sort on the
    # first column gives that order unless two distinct rows share a first
    # coordinate, or one is NaN; only then does a lexsort over every column
    # run, one stable pass per column
    points = pairs.reshape(-1, pairs.shape[2])
    order = np.argsort(points[:, 0], kind="stable")
    rows = points[order]
    new = np.ones(len(rows), dtype=bool)
    np.any(rows[1:] != rows[:-1], axis=1, out=new[1:])
    first = rows[:, 0]
    if np.isnan(first[-1]) or np.any(new[1:] & (first[1:] == first[:-1])):
        order = np.lexsort(points.T[::-1])
        rows = points[order]
        np.any(rows[1:] != rows[:-1], axis=1, out=new[1:])
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    vals = np.asarray(fn(rows[new]), dtype=float)
    ends = inverse.reshape(-1, 2)
    df = norm(vals[ends[:, 0]] - vals[ends[:, 1]], 2.0)
    ratios = df / dx
    return LipschitzAudit(measured=float(np.max(ratios)), ratios=ratios)


def sample_pairs(points: np.ndarray, count: int, seed: int) -> np.ndarray:
    """(count, 2, dim) array of random distinct-index pairs from a cloud.

    Pair k is the k-th draw of rng.choice(n, 2, replace=False) that does
    not collapse to zero distance, taken from the stream of
    default_rng(seed).  For two of n items that call draws from [0, n-1),
    then from [0, n), which a repeat of the first draw turns into n - 1
    (Floyd's algorithm), and then from [0, 2), where 0 swaps the two; one
    integers call with the bounds tiled draws every pair in stream order.
    Collapsed pairs are redrawn from the continuing stream.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if n < 2:
        raise ValueError("need at least two points to form pairs")
    rng = np.random.default_rng(seed)
    pairs = np.empty((count, 2, points.shape[1]))
    filled = 0
    while filled < count:
        need = count - filled
        draws = rng.integers(0, np.tile([n - 1, n, 2], need)).reshape(need, 3)
        draws[draws[:, 1] == draws[:, 0], 1] = n - 1
        swap = draws[:, 2] == 0
        draws[swap, :2] = draws[swap, 1::-1]
        block = pairs[filled:]
        # the indices are in range; clip mode lets take write the block in place
        np.take(points, draws[:, :2].ravel(), axis=0,
                out=block.reshape(-1, points.shape[1]), mode="clip")
        distinct = np.any(block[:, 0] != block[:, 1], axis=1)
        kept = int(distinct.sum())
        if kept < need:
            block[:kept] = block[distinct]
        filled += kept
    return pairs
