"""Lipschitz maps known on finitely many samples, and their Kirszbraun extension.

Kirszbraun evaluation extends an l_2 -> l_2 map as a convex feasibility
problem: find y with ||y - f_i|| <= gamma * ||x - x_i|| + tol for all i,
solved by projecting onto the most violated ball.  The intersection is
nonempty whenever the samples are a gamma-Lipschitz pair set, so the
iteration converges; the cap signals numerical failure rather than being
silently swallowed.

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
radius.  At each projection step it
yields the set S of rows whose violation may reach 0, and only the rows
of S are evaluated with the reference expressions.  Every row outside S
has a violation below 0 < tol, so it can neither be the argmax of a
violation that needs a projection nor decide a stop: values, iteration
counts and ExtensionFeasibilityError are bit-identical to scanning every
row.

Audits measure constants on a (count, 2, dim) array of sampled pairs with
one batch call, and are lower bounds on the true constant: honest
measurement beats silent failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spaces import (
    _UNDERFLOW,
    FiniteNormedSpace,
    _screen_margin,
    norm,
    pairwise_distances,
)

__all__ = [
    "SampledLipschitzMap",
    "LipschitzAudit",
    "ExtensionFeasibilityError",
    "kirszbraun_eval_batch",
    "lipschitz_audit",
    "sample_pairs",
]

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

    Both spaces must be l_2, the setting of the Kirszbraun extension.
    Construction checks that the samples are a gamma-Lipschitz pair set:
    ||f_i - f_j|| <= gamma * ||x_i - x_j|| for all pairs, up to a tiny
    relative slack absorbing float rounding.
    """

    domain_space: FiniteNormedSpace
    target_space: FiniteNormedSpace
    xs: np.ndarray
    fs: np.ndarray
    gamma: float

    def __post_init__(self):
        xs = np.atleast_2d(np.asarray(self.xs, dtype=float))
        fs = np.atleast_2d(np.asarray(self.fs, dtype=float))
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "fs", fs)
        if self.domain_space.p != 2.0 or self.target_space.p != 2.0:
            raise ValueError("a sampled Lipschitz map needs l_2 domain and target")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if xs.shape[0] != fs.shape[0]:
            raise ValueError("domain and target sample counts differ")
        if xs.shape[0] < 1:
            raise ValueError("need at least one sample")
        if xs.shape[1] != self.domain_space.dim:
            raise ValueError("domain sample length != domain dim")
        if fs.shape[1] != self.target_space.dim:
            raise ValueError("target sample length != target dim")
        bad = np.flatnonzero(~np.isfinite(np.hstack([xs, fs])).all(axis=1))
        if bad.size:
            raise ValueError(f"sample {bad[0]} is not finite")
        dx = pairwise_distances(xs, 2.0)
        if np.any((dx + np.eye(len(xs))) == 0.0):
            raise ValueError("domain samples must be pairwise distinct")
        df = pairwise_distances(fs, 2.0)
        slack = 1e-9 * (1.0 + dx.max())
        bad = df > self.gamma * dx + slack
        if np.any(bad):
            i, j = np.argwhere(bad)[0]
            raise ValueError(
                f"samples {i},{j} violate the gamma-Lipschitz condition: "
                f"target gap {df[i, j]:.6g} > {self.gamma} * {dx[i, j]:.6g}"
            )

    @property
    def count(self) -> int:
        return self.xs.shape[0]

    def eval_batch(self, X: np.ndarray, tol: float) -> np.ndarray:
        """Kirszbraun extension at the rows of X."""
        return kirszbraun_eval_batch(self, X, tol=tol)


@dataclass(frozen=True)
class LipschitzAudit:
    """Ratios ||F(x)-F(x')|| / ||x-x'|| over sampled pairs, and their maximum."""

    measured: float
    ratios: np.ndarray


def kirszbraun_eval_batch(
    map_: SampledLipschitzMap,
    X: np.ndarray,
    tol: float,
) -> np.ndarray:
    """Lazy sequential extension at many query points.

    Queries are processed in order; each y starts at the value of its
    nearest constraint point and is repeatedly projected onto its currently
    most violated ball until every residual drops to tol, then joins the
    constraint set.  Any two values returned by one call therefore obey the
    gamma budget against each other, not just against the original samples.
    Accumulated balls carry their accepted residual plus 100 tol as slack:
    the tol-level error of one solve is absorbed rather than compounded
    into a later infeasible system, and the slack keeps the feasible lens
    from becoming tangent, where alternating projections slow to a crawl.
    The sample constraints themselves are always enforced without slack.
    Queries equal to a constraint point return that point's value (its ball
    has radius 0).  A query still infeasible after _ITERATION_CAP
    projections raises ExtensionFeasibilityError; a query that is not
    finite, or whose squared norm overflows, and a tol that is not
    positive raise ValueError.  Each scan evaluates exactly only the rows
    the Gram-form screen of the module docstring keeps.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    sq_x = np.einsum("ij,ij->i", X, X)
    bad = np.flatnonzero(~np.isfinite(sq_x))
    if bad.size:
        raise ValueError(f"query row {bad[0]} is not finite or too large to square")
    Q = X.shape[0]
    m = map_.count
    gamma = map_.gamma
    cx = np.concatenate([map_.xs, np.empty((Q, X.shape[1]))], axis=0)
    cf = np.concatenate([map_.fs, np.empty((Q, map_.target_space.dim))], axis=0)
    margin_x = _screen_margin(X.shape[1])
    margin_f = _screen_margin(map_.target_space.dim)
    up_f, down_f = 0.5 + 0.5 * margin_f, 0.5 - 0.5 * margin_f
    # squared row norms of the store, widened by the screen's margins; the
    # rows queries fill start at 0, so the widening never sees garbage
    sq_cx = np.concatenate([np.einsum("ij,ij->i", map_.xs, map_.xs), np.zeros(Q)])
    lo_cx = (1.0 - margin_x) * sq_cx
    hi_cf = np.concatenate([np.einsum("ij,ij->i", map_.fs, map_.fs), np.zeros(Q)])
    hi_cf = up_f * hi_cf + _UNDERFLOW
    slack = np.zeros(m + Q)
    Y = np.empty((Q, map_.target_space.dim))
    n_c = m
    for q in range(Q):
        x = X[q]
        # lo_i <= d_i^2 for the reference distance d_i to each point, and
        # d^2 <= hi at the row of least lo, so the nearest point is among
        # the rows with lo_i <= hi
        cross = cx[:n_c] @ (2.0 * x)
        lo = lo_cx[:n_c] - cross
        lo += (1.0 - margin_x) * sq_x[q] - _UNDERFLOW
        least = int(np.argmin(lo))
        hi = (1.0 + margin_x) * (sq_cx[least] + sq_x[q]) - cross[least] + _UNDERFLOW
        near = (lo <= hi).nonzero()[0]
        d_near = np.sqrt(np.sum((cx[near] - x) ** 2, axis=1))
        k = int(np.argmin(d_near))
        nearest = int(near[k])
        # a lower bound on every radius; row i is kept while
        # cf_i . y <= bound_i + up_f ||y||^2, which its violation needs in
        # order to reach 0
        radii_lo = np.sqrt(np.maximum(lo, 0.0, out=lo), out=lo)
        radii_lo *= gamma
        radii_lo += slack[:n_c]
        bound = radii_lo * radii_lo
        bound *= -down_f
        bound += hi_cf[:n_c]
        y = cf[nearest].copy()
        for _ in range(_ITERATION_CAP):
            rows = (cf[:n_c] @ y <= bound + up_f * (y @ y)).nonzero()[0]
            if rows.size == 0:
                worst = -math.inf  # y lies strictly inside every ball
                break
            dist = np.sqrt(np.sum((y - cf[rows]) ** 2, axis=1))
            radii = gamma * np.sqrt(np.sum((cx[rows] - x) ** 2, axis=1)) + slack[rows]
            viol = dist - radii
            i = int(np.argmax(viol))
            worst = float(viol[i])
            if worst <= tol:
                break
            # pull y onto the violated sphere; dist[i] > radii[i] >= 0
            j = rows[i]
            y = cf[j] + (y - cf[j]) * (radii[i] / dist[i])
        else:
            raise ExtensionFeasibilityError(worst, _ITERATION_CAP)
        Y[q] = y
        if d_near[k] > 0.0:
            cx[n_c] = x
            cf[n_c] = y
            sq_cx[n_c] = sq_x[q]
            lo_cx[n_c] = (1.0 - margin_x) * sq_x[q]
            hi_cf[n_c] = up_f * (y @ y) + _UNDERFLOW
            slack[n_c] = max(worst, 0.0) + 100.0 * tol
            n_c += 1
    return Y


def lipschitz_audit(
    fn,
    pairs: np.ndarray,
    domain_space: FiniteNormedSpace,
    target_space: FiniteNormedSpace,
) -> LipschitzAudit:
    """Measure ||fn(x)-fn(x')|| / ||x-x'|| on each pair of a (count, 2, dim) array.

    fn maps the rows of a 2-d array to their images.  The maximum ratio is
    a sampled lower bound on the true constant.  Pairs at zero domain
    distance are rejected.  All distinct endpoints go to fn in one call, so
    lazily extending maps see them as a single consistent constraint set.
    """
    pairs = np.asarray(pairs, dtype=float)
    if len(pairs) == 0:
        raise ValueError("need at least one pair")
    dx = norm(pairs[:, 0] - pairs[:, 1], domain_space)
    if np.any(dx == 0.0):
        raise ValueError("audit pairs must be at positive distance")
    # distinct endpoints in the lexicographic row order of np.unique(axis=0),
    # which is the order a lazy extension meets them; a lexsort over the
    # columns finds them faster than np.unique's structured-dtype sort
    rows = pairs.reshape(-1, pairs.shape[2])
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    new = np.ones(len(rows), dtype=bool)
    np.any(rows[1:] != rows[:-1], axis=1, out=new[1:])
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    vals = np.asarray(fn(rows[new]), dtype=float)
    ends = inverse.reshape(-1, 2)
    df = norm(vals[ends[:, 0]] - vals[ends[:, 1]], target_space)
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
