"""Stable encoder/decoder pairs on Hilbert clouds and covering-rate checks.

The pipeline behind build_stable_pair: cover the class by a 2^n-point inner
net, embed the net into R^(26n) by a verified random projection that keeps
all net pair distances within [1/GAMMA_M, 1] of their true values
(jl_project reads the extreme ratios from
widthlab.spaces.pair_ratio_extremes), then extend net -> image with
constant GAMMA_A = 1 (encoder) and image -> net with constant GAMMA_M = 2
(decoder) by ball-intersection evaluation.  Both extensions, and so the
roundtrip, the audits and the stability probes, run at the engine's one
tolerance, widthlab.extend.EVAL_TOL; no function here takes a tolerance.
The roundtrip reproduces the net, so the class error is at most 3 times
the net radius: one net radius to reach the net, 2 more through the
decoder's constant.  A Kirszbraun value lies in the affine hull of its
map's sample values (widthlab.extend), so a level-n encoder's codes lie in
a (2^n - 1)-dim affine subspace of R^(26n), 3 of 52 dimensions at n=2, and
the decoder's outputs in the hull of the net.

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
from .nets import EntropyBracket, greedy_cover
from .spaces import ModelClassSurrogate, norm, pair_ratio_extremes

__all__ = [
    "DIM_PER_LEVEL",
    "GAMMA_A",
    "GAMMA_M",
    "EncoderDecoderPair",
    "WidthReport",
    "CarlInputs",
    "CarlCoverBound",
    "CarlRateReport",
    "ProbeRecord",
    "JLDistortionError",
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

# the Lipschitz budgets of build_stable_pair's encoder and decoder
GAMMA_A = 1.0
GAMMA_M = 2.0


class JLDistortionError(RuntimeError):
    """All resampled projections failed the pairwise distortion check."""

    def __init__(self, tries: int, worst_ratio: float):
        super().__init__(
            f"no projection passed after {tries} draws; worst lower ratio "
            f"{worst_ratio:.4f} < {1.0 / GAMMA_M}"
        )
        self.tries = tries
        self.worst_ratio = worst_ratio

    def __reduce__(self):
        return type(self), (self.tries, self.worst_ratio)


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


# independent Gaussian draws jl_project tries before it gives up
_JL_RETRY_CAP = 32


def jl_project(points: np.ndarray, target_dim: int, seed: int) -> np.ndarray:
    """Gaussian projection verified on all pairs of the given points.

    Each draw T is rescaled by the largest pair ratio of the images
    points @ T.T, so the worst pairwise expansion is 1 (upper bound tight),
    then the contraction side is checked: the least ratio must be at least
    1 / GAMMA_M of the largest, so that the decoder's budget undoes it.
    The ratios are those of spaces.pair_ratio_extremes, whose ValueError
    passes through: for points at distance 0, and for a pair whose gaps
    pass the float range both in the points and in their images, whose
    ratio cannot be measured.  Draws are retried on independent seed
    streams, lowest stream index winning, so the outcome does not depend on
    evaluation order.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if target_dim < 1:
        raise ValueError("target_dim must be positive")
    worst = -math.inf
    for attempt in range(_JL_RETRY_CAP):
        rng = np.random.default_rng([seed, attempt])
        T = rng.standard_normal((target_dim, points.shape[1])) / math.sqrt(target_dim)
        if len(points) < 2:
            return T
        least, largest, _ = pair_ratio_extremes(points, points @ T.T)
        low = least / largest
        worst = max(worst, low)
        if low >= 1.0 / GAMMA_M:
            return T / largest
    raise JLDistortionError(_JL_RETRY_CAP, worst)


@dataclass(frozen=True)
class EncoderDecoderPair:
    """Encoder a: K -> R^param_dim and decoder M back, built over a net.

    The encoder extends net -> images with budget gamma_a, the decoder
    images -> net with budget gamma_M; recovery is exact on the net by
    sample interpolation.  The budgets are those of the two sampled maps.
    The net is a class surrogate whose resolution is its covering radius.
    """

    encoder: SampledLipschitzMap
    decoder: SampledLipschitzMap
    net: ModelClassSurrogate

    @classmethod
    def over_net(cls, net: ModelClassSurrogate, images: np.ndarray,
                 gamma_a: float, gamma_M: float) -> EncoderDecoderPair:
        """The pair interpolating net.points <-> images, both spaces l_2.

        The ambient dimension is the net's row length, the parameter
        dimension the images'.
        """
        return cls(
            encoder=SampledLipschitzMap(net.points, images, gamma_a),
            decoder=SampledLipschitzMap(images, net.points, gamma_M),
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
        return self.encoder.fs.shape[1]

    def roundtrip_batch(self, X: np.ndarray) -> np.ndarray:
        return self.decoder.eval_batch(self.encoder.eval_batch(X))


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
    """Greedy cover + verified projection + two ball-intersection extensions.

    Requires at least 2^n cloud points.  The parameter space is
    R^(DIM_PER_LEVEL * n) with its l_2 norm.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if 2**n > K.count:
        raise ValueError(f"need at least 2^{n} cloud points, have {K.count}")
    net = greedy_cover(K, 2**n)
    T = jl_project(net.points, DIM_PER_LEVEL * n, seed)
    return EncoderDecoderPair.over_net(net, net.points @ T.T, GAMMA_A, GAMMA_M)


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
    serves.
    """
    X = K.points
    recon = pair.roundtrip_batch(X)
    sup_error = float(np.max(norm(X - recon, 2.0)))

    enc_pairs = sample_pairs(X, pair_samples, seed=seed)
    lip_a = float(np.max(lipschitz_audit(pair.encoder.eval_batch, enc_pairs)))
    rng = np.random.default_rng(seed + 1)
    images = pair.encoder.eval_batch(
        X[rng.choice(X.shape[0], size=min(512, X.shape[0]), replace=False)]
    )
    # audit the decoder on a bounded endpoint pool (images plus jittered
    # copies at the net scale) so the pair count can stay high while the
    # number of distinct decoder queries stays small
    jitter = 0.25 * (pair.net.resolution if pair.net.resolution > 0 else 1.0)
    clones = images[rng.integers(0, images.shape[0], size=2 * images.shape[0])]
    clones = clones + jitter * rng.standard_normal(clones.shape)
    pool = np.concatenate([images, clones], axis=0)
    dec_pairs = sample_pairs(pool, pair_samples, seed=seed + 1)
    lip_M = float(np.max(lipschitz_audit(pair.decoder.eval_batch, dec_pairs)))
    return WidthReport(
        n=pair.net.count.bit_length() - 1,
        sup_error=sup_error,
        net_radius=pair.net.resolution,
        lip_a=lip_a,
        lip_M=lip_M,
        seed=seed,
    )


def hilbert_linear_baseline(K: ModelClassSurrogate, n: int) -> float:
    """Sup distance from the cloud to its best rank-n subspace (uncentered SVD).

    An upper bound for the n-th linear width of the cloud in l_2; the
    nonlinear stable pair should not be dramatically worse than this on
    classes where linear approximation is already good.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return float(np.max(norm(K.points, 2.0)))
    if n >= K.points.shape[1]:
        return 0.0
    _, _, vt = np.linalg.svd(K.points, full_matrices=False)
    V = vt[:n]
    resid = K.points - (K.points @ V.T) @ V
    return float(np.max(norm(resid, 2.0)))


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
    K: ModelClassSurrogate,
    e_class: float,
    rng: np.random.Generator,
) -> ProbeRecord:
    """Decode a corrupted code of a perturbed class point and compare to the budget.

    Draws f from K, eta uniform in [0.05, 0.5), g within eta of f and a code
    y' at distance eta from a(g), each along a random direction; then
    ||f - M(y')|| <= 2 * e_class + eta + gamma_M * eta, for the pair's
    measured class error e_class.
    """
    f = K.points[int(rng.integers(K.count))]
    eta = float(rng.uniform(0.05, 0.5))
    direction = rng.standard_normal(f.shape)
    direction /= np.linalg.norm(direction)
    g = f + direction * eta * rng.uniform()
    corruption = np.random.default_rng(int(rng.integers(2**31)))
    direction = corruption.standard_normal(pair.param_dim)
    direction /= np.linalg.norm(direction)
    y_prime = pair.encoder.eval_batch(g[None, :]) + eta * direction
    decoded = pair.decoder.eval_batch(y_prime)[0]
    lhs = float(norm(f - decoded, 2.0))
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


def phi_of_eps(inputs: CarlInputs, eps: float) -> int | float:
    """Smallest m with delta_m <= eps.

    Below the width sequence no m qualifies, and phi is math.inf, the
    least element of the empty set.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    hit = np.nonzero(inputs.delta_sequence <= eps)[0]
    return int(hit[0]) if len(hit) else math.inf


@dataclass(frozen=True)
class CarlCoverBound:
    """Cover-count bound N(eps) <= A ** exponent over L dyadic levels."""

    eps: float
    R: float
    A: float
    L: int
    exponent: float  # math.inf when phi is infinite at some level

    @property
    def log2_bound(self) -> float:
        return self.exponent * math.log2(self.A)


def carl_cover_bound(inputs: CarlInputs, eps: float, R: float) -> CarlCoverBound:
    """Dyadic recursion bound on the eps-cover count of a radius-R class.

    L is the smallest level count with 2^L eps >= R (at least one level);
    the exponent is sum_{k=1..L} phi(2^k eps / 8), infinite when some
    level lies below the width sequence.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if R < 0:
        raise ValueError("R must be nonnegative")
    L = max(1, math.ceil(math.log2(R / eps)) if R > eps else 1)
    total = sum(phi_of_eps(inputs, (2.0**k) * eps / 8.0) for k in range(1, L + 1))
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
