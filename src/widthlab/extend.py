"""Lipschitz maps known on finitely many samples, and their extensions.

Two extension routes:

  mcshane      coordinatewise min over cones f_i[j] + gamma * d(x, x_i);
               exact on samples, preserves gamma into an l_inf target.
  kirszbraun   l_2 -> l_2 evaluation as a convex feasibility problem: find
               y with ||y - f_i|| <= gamma * ||x - x_i|| + tol for all i,
               solved by projecting onto the most violated ball.  The
               intersection is nonempty whenever the samples are a
               gamma-Lipschitz pair set, so the iteration converges; the
               cap signals numerical failure rather than being silently
               swallowed.

Every map here is a batch map on the rows of a 2-d array; one point is a
one-row batch.  Kirszbraun batches extend lazily: each solved query joins
the constraint set, which is the constructive form of extending one point
at a time (the enlarged sample set stays gamma-Lipschitz, so the next
intersection is again nonempty).  Without this, independently chosen
feasible values jump between warm-start basins and the realized map is not
Lipschitz at all.

Audits measure constants on a (count, 2, dim) array of sampled pairs with
one batch call, and are lower bounds on the true constant: honest
measurement beats silent failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spaces import FiniteNormedSpace, norm, pairwise_distances

__all__ = [
    "SampledLipschitzMap",
    "LipschitzAudit",
    "ExtensionFeasibilityError",
    "mcshane_eval",
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


@dataclass(frozen=True)
class SampledLipschitzMap:
    """Map known on samples (x_i, f_i) with a Lipschitz budget gamma.

    Construction checks that the samples are a gamma-Lipschitz pair set:
    ||f_i - f_j||_target <= gamma * ||x_i - x_j||_domain for all pairs, up
    to a tiny relative slack absorbing float rounding.
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
        dx = pairwise_distances(xs, self.domain_space.p)
        if np.any((dx + np.eye(len(xs))) == 0.0):
            raise ValueError("domain samples must be pairwise distinct")
        df = pairwise_distances(fs, self.target_space.p)
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

    def eval_batch(self, X: np.ndarray, tol: float = 1e-8) -> np.ndarray:
        """Kirszbraun extension at the rows of X."""
        return kirszbraun_eval_batch(self, X, tol=tol)


@dataclass(frozen=True)
class LipschitzAudit:
    """Ratios ||F(x)-F(x')|| / ||x-x'|| over sampled pairs, and their maximum."""

    measured: float
    ratios: np.ndarray


def mcshane_eval(map_: SampledLipschitzMap, X: np.ndarray) -> np.ndarray:
    """Coordinatewise upper extension min_i(f_i[j] + gamma d(x, x_i)) at rows of X.

    Interpolates the samples exactly and keeps the constant gamma when the
    target carries the l_inf norm (or is one-dimensional).
    """
    if not (math.isinf(map_.target_space.p) or map_.target_space.dim == 1):
        raise ValueError("mcshane extension needs an l_inf or scalar target")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d = norm(X[:, None, :] - map_.xs[None, :, :], map_.domain_space)  # (Q, m)
    cones = map_.fs[None, :, :] + map_.gamma * d[:, :, None]  # (Q, m, t)
    return np.min(cones, axis=1)


def kirszbraun_eval_batch(
    map_: SampledLipschitzMap,
    X: np.ndarray,
    tol: float = 1e-8,
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
    projections raises ExtensionFeasibilityError.
    """
    if map_.domain_space.p != 2.0 or map_.target_space.p != 2.0:
        raise ValueError("kirszbraun evaluation needs l_2 domain and target")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Q = X.shape[0]
    m = map_.count
    cx = np.concatenate([map_.xs, np.empty((Q, X.shape[1]))], axis=0)
    cf = np.concatenate([map_.fs, np.empty((Q, map_.target_space.dim))], axis=0)
    slack = np.zeros(m + Q)
    Y = np.empty((Q, map_.target_space.dim))
    n_c = m
    for q in range(Q):
        x = X[q]
        d = np.sqrt(np.sum((cx[:n_c] - x) ** 2, axis=1))
        nearest = int(np.argmin(d))
        radii = map_.gamma * d + slack[:n_c]
        y = cf[nearest].copy()
        worst = 0.0
        for _ in range(_ITERATION_CAP):
            dist = np.sqrt(np.sum((y - cf[:n_c]) ** 2, axis=1))
            viol = dist - radii
            j = int(np.argmax(viol))
            worst = float(viol[j])
            if worst <= tol:
                break
            # pull y onto the violated sphere; dist[j] > radii[j] >= 0
            y = cf[j] + (y - cf[j]) * (radii[j] / dist[j])
        else:
            raise ExtensionFeasibilityError(worst, _ITERATION_CAP)
        Y[q] = y
        if d[nearest] > 0.0:
            cx[n_c] = x
            cf[n_c] = y
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
    uniq, inverse = np.unique(
        pairs.reshape(-1, pairs.shape[2]), axis=0, return_inverse=True
    )
    vals = np.asarray(fn(uniq), dtype=float)
    ends = inverse.reshape(-1, 2)
    df = norm(vals[ends[:, 0]] - vals[ends[:, 1]], target_space)
    ratios = df / dx
    return LipschitzAudit(measured=float(np.max(ratios)), ratios=ratios)


def sample_pairs(
    points: np.ndarray, count: int, seed: int, jitter: float = 0.0
) -> np.ndarray:
    """(count, 2, dim) array of random distinct-index pairs from a cloud.

    Gaussian jitter, when given, displaces both endpoints, widening the
    audit beyond the cloud itself; pairs that collapse to zero distance are
    redrawn.
    """
    points = np.asarray(points, dtype=float)
    if points.shape[0] < 2:
        raise ValueError("need at least two points to form pairs")
    rng = np.random.default_rng(seed)
    pairs = np.empty((count, 2, points.shape[1]))
    filled = 0
    while filled < count:
        i, j = rng.choice(points.shape[0], size=2, replace=False)
        x, y = points[i], points[j]
        if jitter > 0.0:
            x = x + jitter * rng.standard_normal(points.shape[1])
            y = y + jitter * rng.standard_normal(points.shape[1])
        if not np.array_equal(x, y):
            pairs[filled] = x, y
            filled += 1
    return pairs
