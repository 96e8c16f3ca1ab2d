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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .nets import Net
from .spaces import FiniteNormedSpace, ModelClassSurrogate, nearest_distances, norm
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
    """The splitting iteration hit its cap before the iterates settled."""

    def __init__(self, gap: float, iterations: int, iterate: np.ndarray):
        super().__init__(f"iterate gap {gap:.3e} after {iterations} iterations")
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


def _support_delta(mat: np.ndarray, support) -> float:
    sub = mat[:, list(support)]
    svals = np.linalg.svd(sub, compute_uv=False)
    return max(1.0 - float(svals[-1]), float(svals[0]) - 1.0, 0.0)


def rip_check(
    Phi: SensingMatrix, k: int, samples: int = 1000, seed: int = 0
) -> RipCertificate:
    """Certify delta_k by singular values of column submatrices.

    Every support is enumerated when their count does not exceed the
    sampling budget, and more than 10^6 are refused; otherwise `samples`
    random supports are drawn.  k = 1 is always exact (column norms).
    """
    if not (1 <= k <= Phi.N):
        raise ValueError(f"need 1 <= k <= N, got k={k}")
    if k == 1:
        col = np.linalg.norm(Phi.matrix, axis=0)
        delta = float(np.max(np.abs(col - 1.0)))
        return RipCertificate(order=1, delta=delta, exhaustive=True,
                              supports_checked=Phi.N)
    total = math.comb(Phi.N, k)
    if total <= samples:
        if total > 10**6:
            raise ValueError(f"refusing exhaustive pass over {total} supports")
        delta = max(
            _support_delta(Phi.matrix, s)
            for s in itertools.combinations(range(Phi.N), k)
        )
        return RipCertificate(order=k, delta=delta, exhaustive=True,
                              supports_checked=total)
    rng = np.random.default_rng(seed)
    delta = 0.0
    for _ in range(samples):
        support = rng.choice(Phi.N, size=k, replace=False)
        delta = max(delta, _support_delta(Phi.matrix, support))
    return RipCertificate(order=k, delta=delta, exhaustive=False,
                          supports_checked=samples)


@dataclass(frozen=True)
class NormBracket:
    """Two-sided numerical estimate of ||Phi||_{p -> 2}."""

    p: float
    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper + 1e-12):
            raise ValueError("bracket out of order")


def _boyd_ascent(mat: np.ndarray, p: float, x0: np.ndarray,
                 iterations: int = 60) -> float:
    """Monotone fixed-point ascent for ||Phi x||_2 / ||x||_p from a start point."""
    pspace = FiniteNormedSpace(mat.shape[1], p)
    dual_exp = 1.0 / (p - 1.0)
    x = x0 / norm(x0, pspace)
    best = float(np.linalg.norm(mat @ x))
    for _ in range(iterations):
        y = mat @ x
        ny = np.linalg.norm(y)
        if ny == 0.0:
            break
        z = mat.T @ (y / ny)
        x = np.sign(z) * np.abs(z) ** dual_exp
        nx = norm(x, pspace)
        if nx == 0.0:
            break
        x /= nx
        val = float(np.linalg.norm(mat @ x))
        if val <= best * (1.0 + 1e-12):
            best = max(best, val)
            break
        best = val
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
    candidates = [column, vt[0]]
    candidates.extend(rng.standard_normal((6, Phi.N)))
    lower = max(_boyd_ascent(mat, p, c) for c in candidates)
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


# l1_decode: shrinkage threshold, relative stopping tolerance, iteration cap
_L1_PENALTY = 1.0
_L1_TOL = 1e-8
_L1_ITERATION_CAP = 20000


def l1_decode(Phi: SensingMatrix, y: np.ndarray) -> np.ndarray:
    """Minimum-l_1 solution of Phi x = y by operator splitting.

    Alternates l_1 shrinkage with exact projection onto the affine
    constraint set (Douglas-Rachford form); the returned iterate is the
    projected one, so it satisfies the measurements exactly.  Stops when
    shrinkage and projection agree to _L1_TOL, relative to the iterate.
    Phi Phi^T is factored once per solve, and each projection makes one
    call of LAPACK's potrs on that factor, bound once per solve: the call
    cho_solve makes, without its per-call input checks, so the iterates
    are cho_solve's bit for bit.  y is checked once instead: a y that is
    not finite raises ValueError.  A solve still apart after
    _L1_ITERATION_CAP iterations raises L1ConvergenceError with its last
    projected iterate.
    """
    y = np.asarray(y, dtype=float)
    mat = Phi.matrix
    if y.shape != (Phi.n,):
        raise ValueError(f"measurement length {y.shape} != ({Phi.n},)")
    if not np.all(np.isfinite(y)):
        raise ValueError("measurements must be finite")
    from scipy.linalg import cho_factor, get_lapack_funcs

    factor, lower = cho_factor(mat @ mat.T)
    (potrs,) = get_lapack_funcs(("potrs",), (factor,))

    def project(v: np.ndarray) -> np.ndarray:
        coef, info = potrs(factor, mat @ v - y, lower=lower, overwrite_b=True)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of potrs")
        return v - mat.T @ coef

    def shrink(v: np.ndarray) -> np.ndarray:
        return np.sign(v) * np.maximum(np.abs(v) - _L1_PENALTY, 0.0)

    z = project(np.zeros(Phi.N))
    w = z
    for _ in range(_L1_ITERATION_CAP):
        x = shrink(z)
        w = project(2.0 * x - z)
        z = z + w - x
        # the 2-norm as np.linalg.norm takes it for a 1-d real vector
        d = w - x
        gap = math.sqrt(d.dot(d))
        if gap <= _L1_TOL * max(1.0, math.sqrt(w.dot(w))):
            return w
    raise L1ConvergenceError(gap, _L1_ITERATION_CAP, w)


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
    return float(norm(tail, FiniteNormedSpace(len(tail), p)))


def build_nonlinear_pair(
    Phi: SensingMatrix, sparse_net: ModelClassSurrogate
) -> EncoderDecoderPair:
    """Coder pair (x -> Phi x, ball-intersection inverse) over a sparse net.

    gamma_a is the largest net-pair ratio ||Phi(x_i - x_j)|| / ||x_i - x_j||
    and gamma_M one over the smallest, so the pair's constants describe the
    map that is extended.
    """
    from scipy.spatial.distance import pdist

    xs = sparse_net.points
    if len(xs) < 2:
        raise ValueError("the net needs two points to fix the budgets")
    images = xs @ Phi.matrix.T
    gaps = pdist(xs)
    if not np.all(gaps > 0.0):
        raise ValueError("net points must be pairwise distinct")
    ratios = pdist(images) / gaps
    if not ratios.min() > 0.0:
        raise ValueError("Phi maps two net points to one image; pair undefined")
    return EncoderDecoderPair.over_net(
        Net(centers=xs, radius=sparse_net.resolution), images,
        float(ratios.max()), 1.0 / float(ratios.min()),
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
    N = pair.decoder.target_space.dim
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
    dists = nearest_distances(heads, pair.net.centers)
    res = max(float(pair.net.radius), float(np.max(dists, initial=0.0)))
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
