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

Kirszbraun batches extend lazily: each solved query joins the constraint
set, which is the constructive form of extending one point at a time (the
enlarged sample set stays gamma-Lipschitz, so the next intersection is
again nonempty).  Without this, independently chosen feasible values jump
between warm-start basins and the realized map is not Lipschitz at all.

Audits measure constants on sampled pairs and are lower bounds on the true
constant: honest measurement beats silent failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spaces import FiniteNormedSpace, ModelClassSurrogate, norm, pairwise_distances

__all__ = [
    "SampledLipschitzMap",
    "LipschitzAudit",
    "ExtensionFeasibilityError",
    "mcshane_eval",
    "kirszbraun_eval",
    "kirszbraun_eval_batch",
    "metric_projection_compose",
    "lipschitz_audit",
    "sample_pairs",
]

_STRATEGIES = ("mcshane", "kirszbraun")


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
    strategy: str = "kirszbraun"

    def __post_init__(self):
        xs = np.atleast_2d(np.asarray(self.xs, dtype=float))
        fs = np.atleast_2d(np.asarray(self.fs, dtype=float))
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "fs", fs)
        if self.strategy not in _STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
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

    def __call__(self, x: np.ndarray, tol: float = 1e-8) -> np.ndarray:
        if self.strategy == "mcshane":
            return mcshane_eval(self, x)
        return kirszbraun_eval(self, x, tol=tol)

    def eval_batch(self, X: np.ndarray, tol: float = 1e-8) -> np.ndarray:
        if self.strategy == "mcshane":
            return _mcshane_eval_batch(self, X)
        return kirszbraun_eval_batch(self, X, tol=tol)


@dataclass(frozen=True)
class LipschitzAudit:
    """Largest ratio ||F(x)-F(x')|| / ||x-x'|| seen over sampled pairs."""

    measured: float
    pair_count: int
    argmax_pair: tuple[np.ndarray, np.ndarray]


def _domain_dists(map_: SampledLipschitzMap, X: np.ndarray) -> np.ndarray:
    diff = X[:, None, :] - map_.xs[None, :, :]
    p = map_.domain_space.p
    if math.isinf(p):
        return np.max(np.abs(diff), axis=2)
    if p == 1.0:
        return np.sum(np.abs(diff), axis=2)
    if p == 2.0:
        return np.sqrt(np.sum(diff * diff, axis=2))
    return np.sum(np.abs(diff) ** p, axis=2) ** (1.0 / p)


def _mcshane_eval_batch(map_: SampledLipschitzMap, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d = _domain_dists(map_, X)  # (Q, m)
    cones = map_.fs[None, :, :] + map_.gamma * d[:, :, None]  # (Q, m, t)
    return np.min(cones, axis=1)


def mcshane_eval(map_: SampledLipschitzMap, x: np.ndarray) -> np.ndarray:
    """Coordinatewise upper extension min_i(f_i[j] + gamma d(x, x_i)).

    Interpolates the samples exactly and keeps the constant gamma when the
    target carries the l_inf norm (or is one-dimensional).
    """
    if not (math.isinf(map_.target_space.p) or map_.target_space.dim == 1):
        raise ValueError("mcshane extension needs an l_inf or scalar target")
    return _mcshane_eval_batch(map_, np.asarray(x, dtype=float)[None, :])[0]


def kirszbraun_eval_batch(
    map_: SampledLipschitzMap,
    X: np.ndarray,
    tol: float = 1e-8,
    iteration_cap: int = 100000,
    accumulate: bool = True,
) -> np.ndarray:
    """Lazy sequential extension at many query points.

    Queries are processed in order; each y starts at the value of its
    nearest constraint point and is repeatedly projected onto its currently
    most violated ball until every residual drops to tol, then joins the
    constraint set (when accumulate is set).  Any two values returned by
    one call therefore obey the gamma budget against each other, not just
    against the original samples.  Accumulated balls carry their accepted
    residual plus 100 tol as slack: the tol-level error of one solve is
    absorbed rather than compounded into a later infeasible system, and
    the slack keeps the feasible lens from becoming tangent, where
    alternating projections slow to a crawl.  The sample constraints
    themselves are always enforced without slack.  Queries equal to a
    constraint point return that point's value (its ball has radius 0).
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
        for _ in range(iteration_cap):
            dist = np.sqrt(np.sum((y - cf[:n_c]) ** 2, axis=1))
            viol = dist - radii
            j = int(np.argmax(viol))
            worst = float(viol[j])
            if worst <= tol:
                break
            # pull y onto the violated sphere; dist[j] > radii[j] >= 0
            y = cf[j] + (y - cf[j]) * (radii[j] / dist[j])
        else:
            raise ExtensionFeasibilityError(worst, iteration_cap)
        Y[q] = y
        if accumulate and d[nearest] > 0.0:
            cx[n_c] = x
            cf[n_c] = y
            slack[n_c] = max(worst, 0.0) + 100.0 * tol
            n_c += 1
    return Y


def kirszbraun_eval(
    map_: SampledLipschitzMap,
    x: np.ndarray,
    tol: float = 1e-8,
    iteration_cap: int = 100000,
) -> np.ndarray:
    """Single-query form of kirszbraun_eval_batch."""
    return kirszbraun_eval_batch(
        map_, np.asarray(x, dtype=float)[None, :], tol=tol, iteration_cap=iteration_cap
    )[0]


def metric_projection_compose(
    a: SampledLipschitzMap,
    K_convex: ModelClassSurrogate,
    x: np.ndarray,
    tol: float = 1e-8,
) -> np.ndarray:
    """Evaluate a at the nearest-point projection of x onto the class.

    The projection is approximated by the nearest surrogate point (exact on
    the surrogate itself); ties go to the lowest index.  On a convex class
    the projection is 1-Lipschitz, so the composition keeps a's constant.
    """
    if not K_convex.convex:
        raise ValueError("metric projection requires a class tagged convex")
    x = np.asarray(x, dtype=float)
    d = norm(K_convex.points - x[None, :], K_convex.space)
    proj = K_convex.points[int(np.argmin(d))]
    return a(proj, tol=tol)


def lipschitz_audit(
    fn,
    pairs: list[tuple[np.ndarray, np.ndarray]],
    domain_space: FiniteNormedSpace,
    target_space: FiniteNormedSpace,
) -> LipschitzAudit:
    """Measure max ||fn(x)-fn(x')|| / ||x-x'|| over the given pairs.

    A sampled lower bound on the true constant.  Pairs at zero domain
    distance are rejected.  All distinct endpoints are evaluated as one
    batch, so lazily extending strategies see them as a single consistent
    constraint set.
    """
    if not pairs:
        raise ValueError("need at least one pair")
    xs = np.asarray([p[0] for p in pairs], dtype=float)
    ys = np.asarray([p[1] for p in pairs], dtype=float)
    dx = norm(xs - ys, domain_space)
    if np.any(dx == 0.0):
        raise ValueError("audit pairs must be at positive distance")
    stacked = np.concatenate([xs, ys], axis=0)
    uniq, inverse = np.unique(stacked, axis=0, return_inverse=True)
    vals = _apply_batch(fn, uniq)
    FX = vals[inverse[: len(pairs)]]
    FY = vals[inverse[len(pairs) :]]
    df = norm(FX - FY, target_space)
    ratios = df / dx
    i = int(np.argmax(ratios))
    best = float(ratios[i])
    best_pair = (xs[i], ys[i])
    return LipschitzAudit(measured=best, pair_count=len(pairs), argmax_pair=best_pair)


def _apply_batch(fn, X: np.ndarray) -> np.ndarray:
    """Apply fn to rows of X, using a batch method when fn offers one."""
    if hasattr(fn, "eval_batch"):
        return np.atleast_2d(fn.eval_batch(X))
    out = [np.atleast_1d(np.asarray(fn(x), dtype=float)) for x in X]
    return np.asarray(out)


def sample_pairs(
    points: np.ndarray, count: int, seed: int, jitter: float = 0.0
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Random distinct-index pairs from a cloud, optionally Gaussian-jittered.

    Jitter displaces both endpoints, widening the audit beyond the cloud
    itself; pairs that collapse to zero distance are redrawn.
    """
    points = np.asarray(points, dtype=float)
    if points.shape[0] < 2:
        raise ValueError("need at least two points to form pairs")
    rng = np.random.default_rng(seed)
    pairs: list[tuple[np.ndarray, np.ndarray]] = []
    while len(pairs) < count:
        i, j = rng.choice(points.shape[0], size=2, replace=False)
        x, y = points[i].copy(), points[j].copy()
        if jitter > 0.0:
            x += jitter * rng.standard_normal(points.shape[1])
            y += jitter * rng.standard_normal(points.shape[1])
        if not np.array_equal(x, y):
            pairs.append((x, y))
    return pairs
