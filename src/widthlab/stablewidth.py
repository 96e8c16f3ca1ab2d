"""Stable encoder/decoder pairs on Hilbert clouds and covering-rate checks.

The pipeline behind build_stable_pair: cover the class by a 2^n-point inner
net, embed the net into R^(26n) by a verified random projection that keeps
all net pair distances within [1/2, 1] of their true values, then extend
net -> image with constant 1 (encoder) and image -> net with constant 2
(decoder) by ball-intersection evaluation.  The roundtrip reproduces the
net, so the class error is at most 3 times the net radius: one net radius
to reach the net, 2 more through the decoder's constant.

The covering machinery converts a nonincreasing width sequence delta_m into
cover-count bounds: a class whose m-parameter width is below eps/8 splits a
radius-eps covering task into A = 1 + 16 gamma^2 tasks at radius eps/2, so
N(eps) <= A ** sum_k phi(2^k eps / 8), and an eventual rate bound
eps_n <= C (n+1)^(-r) * sup_m (m+1)^r delta_m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .extend import SampledLipschitzMap, lipschitz_audit, sample_pairs
from .nets import EntropyBracket, Net, greedy_cover
from .spaces import FiniteNormedSpace, ModelClassSurrogate, norm

__all__ = [
    "DIM_PER_LEVEL",
    "EVAL_TOL",
    "EncoderDecoderPair",
    "WidthReport",
    "CarlInputs",
    "CarlCoverBound",
    "CarlRateReport",
    "ProbeRecord",
    "JLDistortionError",
    "PhiUndefinedError",
    "jl_dim",
    "jl_project",
    "build_stable_pair",
    "evaluate_width",
    "hilbert_linear_baseline",
    "stability_probe",
    "phi_of_eps",
    "carl_cover_bound",
    "carl_rate_check",
    "carl_inputs_from_width_series",
]


class JLDistortionError(RuntimeError):
    """All resampled projections failed the pairwise distortion check."""

    def __init__(self, tries: int, worst_ratio: float):
        super().__init__(
            f"no projection passed after {tries} draws; worst lower ratio "
            f"{worst_ratio:.4f} < 0.5"
        )
        self.tries = tries
        self.worst_ratio = worst_ratio

    def __reduce__(self):
        return type(self), (self.tries, self.worst_ratio)


class PhiUndefinedError(ValueError):
    """eps lies below the last measured width, so phi(eps) is not finite."""


def jl_dim(eps: float) -> int:
    """Smallest dimension with the (eps, eps) distortion guarantee for 2^n points.

    ceil(4 ln 2 / (eps^2/2 - eps^3/3)) per the classical random-projection
    bound; eps = 3/5 gives 26, the per-net-level parameter budget used here.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    return math.ceil(4.0 * math.log(2.0) / (eps**2 / 2.0 - eps**3 / 3.0))


# parameters per net level: a level-n pair encodes into R^(DIM_PER_LEVEL * n)
DIM_PER_LEVEL = jl_dim(3.0 / 5.0)


# evaluation tolerance of evaluate_width and stability_probe: per-query
# feasibility target for the lazy extensions; orders tighter than any
# audited budget, and it keeps thin-intersection queries from hitting the
# iteration cap at a near-miss residual
EVAL_TOL = 1e-7


# independent Gaussian draws jl_project tries before it gives up
_JL_RETRY_CAP = 32


def jl_project(points: np.ndarray, target_dim: int, seed: int) -> np.ndarray:
    """Gaussian projection verified on all pairs of the given points.

    The raw Gaussian map is rescaled so the worst pairwise expansion is
    exactly 1 (upper bound tight), then the contraction side is checked:
    every pair must keep at least half its distance.  Draws are retried on
    independent seed streams, lowest stream index winning, so the outcome
    does not depend on evaluation order.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if target_dim < 1:
        raise ValueError("target_dim must be positive")
    count, dim = points.shape
    iu = np.triu_indices(count, k=1)
    diffs = points[iu[0]] - points[iu[1]]
    true_d = np.linalg.norm(diffs, axis=1)
    worst = -math.inf
    for attempt in range(_JL_RETRY_CAP):
        rng = np.random.default_rng([seed, attempt])
        T = rng.standard_normal((target_dim, dim)) / math.sqrt(target_dim)
        if len(true_d) == 0:
            return T
        proj_d = np.linalg.norm(diffs @ T.T, axis=1)
        ratios = proj_d / true_d
        T_scaled = T / np.max(ratios)
        low = float(np.min(ratios) / np.max(ratios))
        worst = max(worst, low)
        if low >= 0.5:
            return T_scaled
    raise JLDistortionError(_JL_RETRY_CAP, worst)


@dataclass(frozen=True)
class EncoderDecoderPair:
    """Encoder a: K -> R^param_dim and decoder M back, built over a net.

    The encoder extends net -> images with budget gamma_a, the decoder
    images -> net with budget gamma_M; recovery is exact on the net by
    sample interpolation.  The budgets are those of the two sampled maps.
    """

    encoder: SampledLipschitzMap
    decoder: SampledLipschitzMap
    net: Net

    @classmethod
    def over_net(cls, net: Net, images: np.ndarray, gamma_a: float,
                 gamma_M: float) -> EncoderDecoderPair:
        """The pair interpolating net.centers <-> images, both spaces l_2.

        The ambient dimension is the net's row length, the parameter
        dimension the images'.
        """
        ambient = FiniteNormedSpace(net.centers.shape[1], 2.0)
        param_space = FiniteNormedSpace(images.shape[1], 2.0)
        return cls(
            encoder=SampledLipschitzMap(ambient, param_space, net.centers,
                                        images, gamma_a),
            decoder=SampledLipschitzMap(param_space, ambient, images,
                                        net.centers, gamma_M),
            net=net,
        )

    @property
    def gamma_a(self) -> float:
        return self.encoder.gamma

    @property
    def gamma_M(self) -> float:
        return self.decoder.gamma

    @property
    def param_dim(self) -> int:
        return self.encoder.target_space.dim

    def roundtrip_batch(self, X: np.ndarray, tol: float) -> np.ndarray:
        return self.decoder.eval_batch(self.encoder.eval_batch(X, tol=tol), tol=tol)


@dataclass(frozen=True)
class WidthReport:
    """Measured roundtrip error and audited constants for one pair.

    net_radius is the covering radius of the pair's own net, so the
    roundtrip error is at most three_eps_upper = 3 * net_radius.
    """

    n: int
    sup_error: float
    net_radius: float
    lip_a: float
    lip_M: float
    seed: int

    @property
    def three_eps_upper(self) -> float:
        return 3.0 * self.net_radius


def build_stable_pair(K: ModelClassSurrogate, n: int, seed: int) -> EncoderDecoderPair:
    """Net + verified projection + two ball-intersection extensions.

    Requires an l_2 ambient norm and at least 2^n cloud points.  The
    parameter space is R^(DIM_PER_LEVEL * n) with its l_2 norm.
    """
    if K.space.p != 2.0:
        raise ValueError("stable pair construction needs an l_2 ambient space")
    if n < 1:
        raise ValueError("n must be positive")
    if 2**n > K.count:
        raise ValueError(f"need at least 2^{n} cloud points, have {K.count}")
    net = greedy_cover(K, 2**n)
    T = jl_project(net.centers, DIM_PER_LEVEL * n, seed)
    return EncoderDecoderPair.over_net(net, net.centers @ T.T, 1.0, 2.0)


def evaluate_width(
    pair: EncoderDecoderPair,
    K: ModelClassSurrogate,
    pair_samples: int = 10000,
    seed: int = 0,
) -> WidthReport:
    """Roundtrip sup error over the cloud plus audited encoder/decoder constants.

    K must be the class the pair was built on: the 3x bound is the radius
    of the pair's net over K, and the level is read off the net, since a
    level-n net has 2^n centers.  Encoder pairs are sampled from the cloud;
    decoder pairs from encoded cloud points jittered at the scale of the
    net radius, keeping the audit in the region the decoder actually
    serves.  Every evaluation runs at EVAL_TOL.
    """
    X = K.points
    recon = pair.roundtrip_batch(X, tol=EVAL_TOL)
    sup_error = float(np.max(norm(X - recon, K.space)))

    enc_pairs = sample_pairs(X, pair_samples, seed=seed)
    audit_a = lipschitz_audit(
        lambda Z: pair.encoder.eval_batch(Z, tol=EVAL_TOL),
        enc_pairs,
        pair.encoder.domain_space,
        pair.encoder.target_space,
    )
    rng = np.random.default_rng(seed + 1)
    images = pair.encoder.eval_batch(
        X[rng.choice(X.shape[0], size=min(512, X.shape[0]), replace=False)],
        tol=EVAL_TOL,
    )
    # audit the decoder on a bounded endpoint pool (images plus jittered
    # copies at the net scale) so the pair count can stay high while the
    # number of distinct decoder queries stays small
    jitter = 0.25 * (pair.net.radius if pair.net.radius > 0 else 1.0)
    clones = images[rng.integers(0, images.shape[0], size=2 * images.shape[0])]
    clones = clones + jitter * rng.standard_normal(clones.shape)
    pool = np.concatenate([images, clones], axis=0)
    dec_pairs = sample_pairs(pool, pair_samples, seed=seed + 1)
    audit_M = lipschitz_audit(
        lambda Z: pair.decoder.eval_batch(Z, tol=EVAL_TOL),
        dec_pairs,
        pair.decoder.domain_space,
        pair.decoder.target_space,
    )
    return WidthReport(
        n=len(pair.net.centers).bit_length() - 1,
        sup_error=sup_error,
        net_radius=pair.net.radius,
        lip_a=audit_a.measured,
        lip_M=audit_M.measured,
        seed=seed,
    )


def hilbert_linear_baseline(K: ModelClassSurrogate, n: int) -> float:
    """Sup distance from the cloud to its best rank-n subspace (uncentered SVD).

    An upper bound for the n-th linear width of the cloud in l_2; the
    nonlinear stable pair should not be dramatically worse than this on
    classes where linear approximation is already good.
    """
    if K.space.p != 2.0:
        raise ValueError("linear baseline is an l_2 computation")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return float(np.max(norm(K.points, K.space)))
    if n >= K.space.dim:
        return 0.0
    _, _, vt = np.linalg.svd(K.points, full_matrices=False)
    V = vt[:n]
    resid = K.points - (K.points @ V.T) @ V
    return float(np.max(norm(resid, K.space)))


@dataclass(frozen=True)
class ProbeRecord:
    """One perturbation trial of the stability inequality."""

    eta: float
    lhs: float
    rhs: float

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs


def stability_probe(
    pair: EncoderDecoderPair,
    f: np.ndarray,
    g: np.ndarray,
    eta: float,
    e_class: float,
    seed: int = 0,
) -> ProbeRecord:
    """Decode a corrupted code of a perturbed input and compare to the budget.

    With ||f - g|| <= eta and a code y' within eta of a(g), the decoded
    error obeys ||f - M(y')|| <= 2 * e_class + eta + gamma_M * eta,
    where e_class is the pair's measured class error.  The corruption is
    drawn adversarially on the eta-sphere in parameter space.  Both maps
    run at EVAL_TOL.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    ambient = pair.decoder.target_space
    gap = float(norm(f - g, ambient))
    if gap > eta + 1e-12:
        raise ValueError(f"||f - g|| = {gap:.6g} exceeds eta = {eta:.6g}")
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(pair.param_dim)
    direction /= np.linalg.norm(direction)
    y_prime = pair.encoder.eval_batch(g[None, :], tol=EVAL_TOL) + eta * direction
    decoded = pair.decoder.eval_batch(y_prime, tol=EVAL_TOL)[0]
    lhs = float(norm(f - decoded, ambient))
    rhs = 2.0 * e_class + eta + pair.gamma_M * eta
    return ProbeRecord(eta=eta, lhs=lhs, rhs=rhs)


@dataclass(frozen=True)
class CarlInputs:
    """Nonincreasing width sequence delta_m (m = 0, 1, ...) with its gamma.

    Raw measurements may wobble upward; construction applies a running
    minimum, which is the honest monotone envelope since a budget-m pair is
    also a budget-(m+1) pair.
    """

    delta_sequence: np.ndarray
    gamma: float
    r: float

    def __post_init__(self):
        seq = np.asarray(self.delta_sequence, dtype=float)
        if seq.ndim != 1 or len(seq) == 0:
            raise ValueError("delta_sequence must be a nonempty 1-d array")
        if np.any(seq < 0):
            raise ValueError("widths must be nonnegative")
        if self.gamma <= 0 or self.r <= 0:
            raise ValueError("gamma and r must be positive")
        object.__setattr__(self, "delta_sequence", np.minimum.accumulate(seq))

    @property
    def A(self) -> float:
        return 1.0 + 16.0 * self.gamma**2


def phi_of_eps(inputs: CarlInputs, eps: float) -> int:
    """Smallest m with delta_m <= eps; raises when eps is below the sequence."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    hit = np.nonzero(inputs.delta_sequence <= eps)[0]
    if len(hit) == 0:
        raise PhiUndefinedError(
            f"eps = {eps:.6g} below the last measured width "
            f"{inputs.delta_sequence[-1]:.6g}"
        )
    return int(hit[0])


@dataclass(frozen=True)
class CarlCoverBound:
    """Cover-count bound N(eps) <= A ** exponent over L dyadic levels."""

    eps: float
    R: float
    A: float
    L: int
    exponent: float  # math.inf when phi was undefined at some level

    @property
    def log2_bound(self) -> float:
        return self.exponent * math.log2(self.A)


def carl_cover_bound(inputs: CarlInputs, eps: float, R: float) -> CarlCoverBound:
    """Dyadic recursion bound on the eps-cover count of a radius-R class.

    L is the smallest level count with 2^L eps >= R (at least one level);
    the exponent is sum_{k=1..L} phi(2^k eps / 8).  Levels where phi is
    undefined make the bound infinite rather than erroring out.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if R < 0:
        raise ValueError("R must be nonnegative")
    L = max(1, math.ceil(math.log2(R / eps)) if R > eps else 1)
    total = 0
    for k in range(1, L + 1):
        try:
            total += phi_of_eps(inputs, (2.0**k) * eps / 8.0)
        except PhiUndefinedError:
            return CarlCoverBound(eps=eps, R=R, A=inputs.A, L=L, exponent=math.inf)
    return CarlCoverBound(eps=eps, R=R, A=inputs.A, L=L, exponent=float(total))


@dataclass(frozen=True)
class CarlRateReport:
    """Empirical constant in eps_n <= C (n+1)^(-r) Lambda."""

    r: float
    Lambda: float
    C: float
    rows: tuple[tuple[int, float, float], ...]  # (n, entropy_lower, bound_at_C1)


def carl_rate_check(
    inputs: CarlInputs, entropy_series: list[EntropyBracket]
) -> CarlRateReport:
    """Smallest C with every measured entropy lower bound <= C (n+1)^(-r) Lambda.

    Lambda = max_m (m+1)^r delta_m over the measured range.  Degenerate
    cases: all entropy lower bounds zero gives C = 0; Lambda = 0 with a
    positive lower bound gives C = inf.
    """
    m = np.arange(len(inputs.delta_sequence))
    Lambda = float(np.max((m + 1.0) ** inputs.r * inputs.delta_sequence))
    rows = []
    C = 0.0
    for bracket in entropy_series:
        base = (bracket.n + 1.0) ** (-inputs.r) * Lambda
        rows.append((bracket.n, bracket.lower, base))
        if bracket.lower > 0:
            C = math.inf if base == 0 else max(C, bracket.lower / base)
    return CarlRateReport(r=inputs.r, Lambda=Lambda, C=C, rows=tuple(rows))


def carl_inputs_from_width_series(
    reports: list[WidthReport],
    delta0: float,
    gamma: float,
    r: float,
) -> CarlInputs:
    """Step-fill measured roundtrip errors into a width-per-parameter sequence.

    A report at net level n certifies width sup_error at parameter budget
    DIM_PER_LEVEL * n, and every larger budget inherits it.  Budgets below
    the first report fall back to delta0, the no-parameter width (sup of
    the class norms).
    """
    if not reports:
        raise ValueError("need at least one width report")
    top = DIM_PER_LEVEL * max(rep.n for rep in reports)
    seq = np.full(top + 1, float(delta0))
    for rep in sorted(reports, key=lambda rep: rep.n):
        m = DIM_PER_LEVEL * rep.n
        seq[m:] = np.minimum(seq[m:], rep.sup_error)
    return CarlInputs(delta_sequence=seq, gamma=gamma, r=r)
