"""Sparse recovery as a stable encoder/decoder pair, plus matrix certificates.

A sensing matrix with restricted-isometry constant delta at order 2k makes
x -> Phi x an invertible encoder on k-sparse vectors: (1 + delta) Lipschitz
forward, 1 / (1 - delta) backward.  Extending both directions off a finite
sparse net gives a coder pair whose error on arbitrary inputs is controlled
by the best k-term approximation error plus the net's resolution.  The pair's
budgets are the net's own extreme pair ratios, which the true delta_2k bounds
and which the Kirszbraun extensions keep exactly.  A sampled delta_2k can
only understate the true one, so the pair does not use it; rip_check
computes it separately.

The certificate used throughout is the norm form of restricted isometry,
(1 - delta)||x|| <= ||Phi x|| <= (1 + delta)||x||, not the squared form.
At order 1 it reduces to column-norm deviations, which in turn bracket the
l_p -> l_2 operator norm:

    upper:  ||Phi||_{p->2} <= (1 + delta) N^(1 - 1/p)
    lower:  (1 - delta) n^(-1/2) N^(1 - 1/p) <= ||Phi||_{p->2}

The lower factor follows from evaluating Phi on the sign pattern of its
largest row, normalized in l_p.  The inverted variant of that factor,
1 / (1 - delta), is also reported for comparison but never asserted, since
the row argument above yields the (1 - delta) form.

The l_1 decoder, min ||x||_1 subject to Phi x = y, follows the lasso
homotopy down to an exact support S.  It returns x only with the dual
vector that certifies it, w = Phi_S (Phi_S^T Phi_S)^(-1) s for the signs
s of the path on S: the certificate behind instance-optimal l_1 decoding
(Cohen, Dahmen and DeVore, JAMS 2009).  It runs on numpy alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import spaces
from .spaces import (
    ModelClassSurrogate,
    _screened_pairs,
    nearest_distances,
    norm,
)
from .stablewidth import EncoderDecoderPair

__all__ = [
    "SensingMatrix",
    "RipCertificate",
    "NormBracket",
    "OperatorBoundReport",
    "RecoveryTrial",
    "InstanceOptimalityReport",
    "L1ConvergenceError",
    "gaussian_matrix",
    "rip_check",
    "op_norm_bracket",
    "operator_norm_bound_check",
    "l1_decode",
    "sigma_k",
    "build_nonlinear_pair",
    "instance_optimality_trials",
]


class L1ConvergenceError(RuntimeError):
    """l1_decode ended without a certified solution.

    gap is how far the iterate misses the certificate (_l1_defect), after
    iterations homotopy steps.  iterate is the minimum-l_1 candidate on the
    path's last support when its certificate failed, and otherwise the
    lasso minimiser at the last breakpoint reached, which does not meet the
    measurements.
    """

    def __init__(self, gap: float, iterations: int, iterate: np.ndarray):
        super().__init__(
            f"certificate missed by {gap:.3e} after {iterations} homotopy steps")
        self.gap = gap
        self.iterations = iterations
        self.iterate = iterate

    def __reduce__(self):
        return type(self), (self.gap, self.iterations, self.iterate)


@dataclass(frozen=True)
class SensingMatrix:
    """Measurement matrix, n rows (measurements) by N columns (signal dim)."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2:
            raise ValueError("matrix must be 2-d")
        object.__setattr__(self, "matrix", mat)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def N(self) -> int:
        return self.matrix.shape[1]


def gaussian_matrix(n: int, N: int, seed: int) -> SensingMatrix:
    """iid Gaussian entries of variance 1/n, the standard normalized ensemble."""
    if n < 1 or N < 1:
        raise ValueError("n and N must be positive")
    rng = np.random.default_rng(seed)
    return SensingMatrix(rng.standard_normal((n, N)) / math.sqrt(n))


@dataclass(frozen=True)
class RipCertificate:
    """Restricted-isometry constant at a given sparsity order.

    exhaustive certificates enumerate every support; sampled ones lower
    bound the true constant by the worst support seen.
    """

    order: int
    delta: float
    exhaustive: bool
    supports_checked: int

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")


def rip_check(
    Phi: SensingMatrix, k: int, samples: int = 1000, seed: int = 0
) -> RipCertificate:
    """Certify delta_k by singular values of column submatrices.

    Every support is enumerated when their count does not exceed the
    sampling budget, and more than 10^6 are refused; otherwise `samples`
    random supports are drawn.  k = 1 is always exact (column norms).
    Supports go through in blocks of about spaces._BLOCK_ELEMENTS matrix
    entries, one stacked SVD a block, which computes each submatrix's
    singular values as its own SVD would.
    """
    if not (1 <= k <= Phi.N):
        raise ValueError(f"need 1 <= k <= N, got k={k}")
    if k == 1:
        col = np.linalg.norm(Phi.matrix, axis=0)
        delta = float(np.max(np.abs(col - 1.0)))
        return RipCertificate(order=1, delta=delta, exhaustive=True,
                              supports_checked=Phi.N)
    total = math.comb(Phi.N, k)
    exhaustive = total <= samples
    if exhaustive:
        if total > 10**6:
            raise ValueError(f"refusing exhaustive pass over {total} supports")
        supports = itertools.combinations(range(Phi.N), k)
    else:
        rng = np.random.default_rng(seed)
        supports = (rng.choice(Phi.N, size=k, replace=False)
                    for _ in range(samples))
    block = max(1, spaces._BLOCK_ELEMENTS // (Phi.n * k))
    cols = Phi.matrix.T
    delta = 0.0
    while chunk := list(itertools.islice(supports, block)):
        # (supports, k, n) -> (supports, n, k): the column submatrices
        svals = np.linalg.svd(cols[np.array(chunk)].transpose(0, 2, 1),
                              compute_uv=False)
        delta = max(delta, float(np.max(np.maximum(
            np.maximum(1.0 - svals[:, -1], svals[:, 0] - 1.0), 0.0))))
    return RipCertificate(order=k, delta=delta, exhaustive=exhaustive,
                          supports_checked=total if exhaustive else samples)


@dataclass(frozen=True)
class NormBracket:
    """Two-sided numerical estimate of ||Phi||_{p -> 2}."""

    p: float
    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper + 1e-12):
            raise ValueError("bracket out of order")


# fixed-point steps _boyd_ascent takes at most from one start point
_BOYD_ITERATIONS = 60


def _boyd_ascent(mat: np.ndarray, p: float, starts: np.ndarray) -> np.ndarray:
    """Monotone fixed-point ascent for ||Phi x||_2 / ||x||_p: a value a start.

    Every row of starts is a start point, and all of them advance together
    until each stops on its own rule: no relative gain above 1e-12, or a
    zero image or iterate.  A start that stops drops out of the stack.  The
    stacked products are one gemv a start and the l_2 norms one ddot, as
    for a single start; the l_p roots are taken one start at a time on
    scalars, whose pow rounds unlike numpy's array power, so every value is
    that of the same ascent run from its start alone.
    """
    dual_exp = 1.0 / (p - 1.0)
    inv_p = 1.0 / p

    def lp_norms(X):
        sums = (np.abs(X) ** p).sum(axis=1).tolist()
        return np.array([s ** inv_p for s in sums])

    def images(X):
        # the (s, n, 1) images and their l_2 norms
        Y = np.matmul(mat, X[:, :, None])
        return Y, np.sqrt(np.matmul(Y.transpose(0, 2, 1), Y)[:, 0, 0])

    X = starts / lp_norms(starts)[:, None]
    Y, ny = images(X)
    best = ny.copy()
    keep = ny != 0.0
    Y, ny, live = Y[keep], ny[keep], np.flatnonzero(keep)
    for _ in range(_BOYD_ITERATIONS):
        if not live.size:
            break
        Z = np.matmul(mat.T, Y / ny[:, None, None])[:, :, 0]
        X = np.sign(Z) * np.abs(Z) ** dual_exp
        nx = lp_norms(X)
        if not nx.all():
            keep = nx != 0.0
            X, nx, live = X[keep], nx[keep], live[keep]
        X /= nx[:, None]
        Y, ny = images(X)
        last = best[live]
        stop = ny <= last * (1.0 + 1e-12)
        best[live] = np.where(stop, np.maximum(last, ny), ny)
        if stop.any() or not ny.all():
            keep = ~stop & (ny != 0.0)
            Y, ny, live = Y[keep], ny[keep], live[keep]
    return best


def op_norm_bracket(Phi: SensingMatrix, p: float, seed: int = 0) -> NormBracket:
    """Bracket ||Phi||_{p -> 2} for 1 <= p <= 2.

    p = 1 is exact (max column norm), p = 2 is the largest singular value
    from an SVD, bracketed by a relative 1e-8 (far above the SVD's backward
    error).  In between, the upper bound interpolates the endpoint norms
    (||.||_{1->2}^(2/p - 1) * ||.||_{2->2}^(2 - 2/p)) and the lower bound is
    the best objective value over column, singular-vector, random, and
    ascent-refined candidates.
    """
    if not (1.0 <= p <= 2.0):
        raise ValueError(f"p must lie in [1, 2], got {p}")
    mat = Phi.matrix
    col_norms = np.linalg.norm(mat, axis=0)
    norm_1 = float(np.max(col_norms))
    if p == 1.0:
        return NormBracket(p=1.0, lower=norm_1, upper=norm_1)
    _, svals, vt = np.linalg.svd(mat, full_matrices=False)
    norm_2 = float(svals[0])
    if p == 2.0:
        return NormBracket(p=2.0, lower=norm_2 * (1.0 - 1e-8),
                           upper=norm_2 * (1.0 + 1e-8))
    theta = 2.0 / p - 1.0
    upper = norm_1**theta * norm_2 ** (1.0 - theta)
    rng = np.random.default_rng(seed)
    column = np.zeros(Phi.N)
    column[int(np.argmax(col_norms))] = 1.0
    starts = np.vstack([column, vt[0], rng.standard_normal((6, Phi.N))])
    lower = max(_boyd_ascent(mat, p, starts).tolist())
    # float noise can push the ascent a hair past the interpolation bound
    return NormBracket(p=p, lower=min(lower, upper), upper=upper)


@dataclass(frozen=True)
class OperatorBoundReport:
    """Column-norm certificate bounds against a measured norm bracket.

    upper_holds and lower_holds are the asserted inequalities; the
    inverted-factor variant is carried as data only.
    """

    p: float
    delta: float
    bracket: NormBracket
    upper_bound: float
    derived_lower: float
    inverted_lower: float

    @property
    def upper_holds(self) -> bool:
        return self.bracket.lower <= self.upper_bound * (1.0 + 1e-9)

    @property
    def lower_holds(self) -> bool:
        return self.derived_lower <= self.bracket.upper * (1.0 + 1e-9)

    @property
    def inverted_variant_holds(self) -> bool:
        return self.inverted_lower <= self.bracket.upper * (1.0 + 1e-9)


def operator_norm_bound_check(
    Phi: SensingMatrix, p: float, seed: int = 0
) -> OperatorBoundReport:
    """Check the delta_1 operator-norm bracket at one p."""
    delta = rip_check(Phi, 1).delta
    if delta >= 1.0:
        raise ValueError("column norms deviate past 1; certificate undefined")
    bracket = op_norm_bracket(Phi, p, seed=seed)
    scale = Phi.N ** (1.0 - 1.0 / p)
    return OperatorBoundReport(
        p=p,
        delta=delta,
        bracket=bracket,
        upper_bound=(1.0 + delta) * scale,
        derived_lower=(1.0 - delta) * scale / math.sqrt(Phi.n),
        inverted_lower=scale / (math.sqrt(Phi.n) * (1.0 - delta)),
    )


# l1_decode: homotopy steps at most, and the certificate's relative tolerance
_L1_ITERATION_CAP = 20000
_L1_CERTIFICATE_TOL = 1e-9


def _l1_defect(mat: np.ndarray, y: np.ndarray, x: np.ndarray,
               w: np.ndarray) -> float:
    """How far (x, w) misses the l_1 certificate, relatively; <= 0 is exact.

    The largest of ||Phi^T w||_inf - 1, ||Phi x - y|| / ||y|| and
    (||x||_1 - <y, w>) / ||x||_1, a zero denominator read as 1.  A dual
    feasible w bounds every l_1 norm on {Phi x = y} below by <y, w>.
    """
    l1 = float(np.abs(x).sum())
    return max(
        float(np.abs(mat.T @ w).max(initial=0.0)) - 1.0,
        float(np.linalg.norm(mat @ x - y)) / (float(np.linalg.norm(y)) or 1.0),
        (l1 - float(y @ w)) / (l1 or 1.0),
    )


def _l1_homotopy(Phi: SensingMatrix,
                 y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """l1_decode's solve: its x and the dual vector w that certifies x."""
    y = np.asarray(y, dtype=float)
    mat = Phi.matrix
    if y.shape != (Phi.n,):
        raise ValueError(f"measurement length {y.shape} != ({Phi.n},)")
    if not np.all(np.isfinite(y)):
        raise ValueError("measurements must be finite")
    corr = y @ mat
    floor = _L1_CERTIFICATE_TOL * float(np.abs(corr).max())
    support, signs = [], []
    x, w = np.zeros(Phi.N), np.zeros(Phi.n)
    # the event of the last breakpoint, which rounding must not repeat: a
    # joined coefficient is zero only where it joined, and a dropped column
    # meets the boundary of its old sign only where it left
    lam, joined, left = math.inf, False, -1
    for step in range(_L1_ITERATION_CAP):
        sub = mat[:, support]
        try:
            if len(support) > Phi.n:
                raise np.linalg.LinAlgError("more active columns than rows")
            u, v = np.linalg.solve(sub.T @ sub,
                                   np.array([corr[support], signs]).T).T
        except np.linalg.LinAlgError:
            raise L1ConvergenceError(_l1_defect(mat, y, x, w), step, x) from None
        w = sub @ v
        # along the step the correlations Phi^T (y - Phi x) are p + lam a;
        # row 0 of joins reaches +lam there, row 1 reaches -lam
        p, a = np.stack([y - sub @ u, w]) @ mat
        with np.errstate(divide="ignore", invalid="ignore"):
            joins = np.stack([p / (1.0 - a), -p / (1.0 + a)])
            drops = u / v
        joins[:, support] = -math.inf
        if joined:
            drops[-1] = -math.inf
        elif left >= 0:
            joins.flat[left] = -math.inf
        joins[~((joins > floor) & (joins < lam))] = -math.inf
        drops[~((drops > floor) & (drops < lam))] = -math.inf
        lam = max(joins.max(), drops.max(initial=-math.inf))
        if lam == -math.inf:
            break
        x = np.zeros(Phi.N)
        x[support] = u - lam * v
        join = int(np.argmax(joins))
        joined = joins.flat[join] == lam
        if joined:
            support.append(join % Phi.N)
            signs.append(1.0 if join < Phi.N else -1.0)
        else:
            drop = int(np.argmax(drops))
            col, sign = support.pop(drop), signs.pop(drop)
            left = col if sign > 0 else Phi.N + col
            x[col] = 0.0
    else:
        raise L1ConvergenceError(_l1_defect(mat, y, x, w), _L1_ITERATION_CAP, x)
    # lam = 0: x_S = u and w once more, from a QR factor of Phi_S, whose
    # rounding grows with the condition number of Phi_S, not its square
    q, r = np.linalg.qr(mat[:, support])
    try:
        z = np.linalg.solve(r.T, np.array(signs))
        u = np.linalg.solve(r, q.T @ y)
    except np.linalg.LinAlgError:
        raise L1ConvergenceError(_l1_defect(mat, y, x, w), step + 1, x) from None
    x = np.zeros(Phi.N)
    x[support] = u
    w = q @ z
    defect = _l1_defect(mat, y, x, w)
    if not defect <= _L1_CERTIFICATE_TOL:
        raise L1ConvergenceError(defect, step + 1, x)
    return x, w


def l1_decode(Phi: SensingMatrix, y: np.ndarray) -> np.ndarray:
    """Minimum-l_1 solution of Phi x = y by the lasso homotopy, certified.

    Follows the minimisers of ||Phi x - y||^2 / 2 + lam ||x||_1 as lam falls
    from ||Phi^T y||_inf to 0 (Donoho and Tsaig 2008).  On an active support
    S with signs s the path is x_S = u - lam v: u = G^(-1) Phi_S^T y, and
    the direction v = G^(-1) s, one solve with the Gram matrix
    G = Phi_S^T Phi_S.  A step ends where an inactive column's correlation
    reaches lam, and the column joins S, or where an active coefficient
    crosses zero, and it leaves.  Breakpoints below _L1_CERTIFICATE_TOL
    ||Phi^T y||_inf count as lam = 0, the end of the path, where
    Phi_S x_S = y on an exact support S.

    x is returned only with its dual certificate w = Phi_S G^(-1) s, within
    eps = _L1_CERTIFICATE_TOL: ||Phi^T w||_inf <= 1 + eps,
    ||Phi x - y|| <= eps ||y|| and ||x||_1 - <y, w> <= eps ||x||_1, so no
    solution of Phi x = y has an l_1 norm below <y, w> / (1 + eps).  A y that is
    not finite raises ValueError.  A missed certificate, a singular G, or
    _L1_ITERATION_CAP steps raise L1ConvergenceError with the iterate the
    path had reached.
    """
    return _l1_homotopy(Phi, y)[0]


def sigma_k(x: np.ndarray, k: int, p: float = 2.0) -> float:
    """Best k-term approximation error of x in l_p.

    Keeps the k largest entries by magnitude, lowest index first on ties,
    and returns the l_p norm of the remainder.
    """
    x = np.asarray(x, dtype=float)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k >= len(x):
        return 0.0
    order = np.argsort(-np.abs(x), kind="stable")
    tail = x[order[k:]]
    return float(norm(tail, p))


def build_nonlinear_pair(
    Phi: SensingMatrix, sparse_net: ModelClassSurrogate
) -> EncoderDecoderPair:
    """Coder pair (x -> Phi x, ball-intersection inverse) over a sparse net.

    gamma_a is the largest net-pair ratio ||Phi(x_i - x_j)|| / ||x_i - x_j||
    and gamma_M one over the smallest, so the pair's constants describe the
    map that is extended.  The ratios are those of pairwise_distances,
    taken only on the pairs whose Gram-form ratio bounds (widthlab.spaces)
    reach an extreme, so both budgets are the full matrices' bit for bit.
    """
    xs = sparse_net.points
    if len(xs) < 2:
        raise ValueError("the net needs two points to fix the budgets")
    images = xs @ Phi.matrix.T
    # a pair stays open while its ratio bounds reach the largest lower or
    # the least upper bound so far; rounding is monotone, so the bounds
    # hold for the exact ratios too, and a pair that may be at gap 0 has an
    # infinite upper bound, which keeps it open for the distinct check
    best, least = -math.inf, math.inf

    def extreme_pairs(x_bounds, f_bounds):
        nonlocal best, least
        (lo_x, hi_x), (lo_f, hi_f) = x_bounds, f_bounds
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio_lo = np.sqrt(np.maximum(lo_f, 0.0)) / np.sqrt(hi_x)
            ratio_hi = np.sqrt(hi_f) / np.sqrt(np.maximum(lo_x, 0.0))
        best = max(best, ratio_lo.max(initial=-math.inf))
        least = min(least, ratio_hi.min(initial=math.inf))
        return (ratio_hi >= best) | (ratio_lo <= least)

    _, _, (gaps, dists) = _screened_pairs((xs, images), extreme_pairs)
    if not np.all(gaps > 0.0):
        raise ValueError("net points must be pairwise distinct")
    ratios = dists / gaps
    if not ratios.min() > 0.0:
        raise ValueError("Phi maps two net points to one image; pair undefined")
    return EncoderDecoderPair.over_net(
        sparse_net, images, float(ratios.max()), 1.0 / float(ratios.min())
    )


@dataclass(frozen=True)
class RecoveryTrial:
    sigma: float
    net_distance: float
    error: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.error <= self.bound


@dataclass(frozen=True)
class InstanceOptimalityReport:
    """Roundtrip errors on dense inputs against the k-term bound.

    net_resolution is the additive slack actually used: the larger of the
    net's estimated resolution and the realized trial distances, since the
    exact covering radius of a sampled net is unknowable.
    """

    C: float
    k: int
    net_resolution: float
    trials: tuple[RecoveryTrial, ...]

    @property
    def all_passed(self) -> bool:
        return all(t.passed for t in self.trials)


# feasibility target of the roundtrip's Kirszbraun queries in
# instance_optimality_trials
_ROUNDTRIP_TOL = 1e-8


def instance_optimality_trials(
    pair: EncoderDecoderPair,
    k: int,
    trials: int,
    seed: int,
) -> InstanceOptimalityReport:
    """Check ||x - M(a(x))|| <= (C+1) sigma_k(x) + (1+C) res on random dense x.

    C = gamma_a * gamma_M.  Inputs are uniform in the unit ball, so their
    best k-term parts stay inside the region the net samples.  Each trial's
    net_distance is that part's distance to its nearest net point.
    """
    rng = np.random.default_rng(seed)
    N = pair.decoder.fs.shape[1]
    C = pair.gamma_a * pair.gamma_M
    X = rng.standard_normal((trials, N))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    X *= rng.uniform(size=(trials, 1)) ** (1.0 / N)
    recon = pair.roundtrip_batch(X, tol=_ROUNDTRIP_TOL)
    errors = np.linalg.norm(X - recon, axis=1)
    heads = np.zeros((trials, N))
    sigmas = []
    for i in range(trials):
        x = X[i]
        order = np.argsort(-np.abs(x), kind="stable")
        heads[i, order[:k]] = x[order[:k]]
        sigmas.append(float(sigma_k(x, k)))
    dists = nearest_distances(heads, pair.net.points)
    res = max(float(pair.net.resolution), float(np.max(dists, initial=0.0)))
    out = tuple(
        RecoveryTrial(
            sigma=s,
            net_distance=float(d),
            error=float(e),
            bound=(C + 1.0) * s + (1.0 + C) * res,
        )
        for (s, d, e) in zip(sigmas, dists, errors)
    )
    return InstanceOptimalityReport(C=C, k=k, net_resolution=res, trials=out)
