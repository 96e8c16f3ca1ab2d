"""Diagonal class where one-parameter coders beat every stable coder.

The class puts alpha_j on the j-th axis (plus the origin).  For each k the
scalar encoder a_k(x) = alpha_min(j, k) (alpha_k at the origin) and the
piecewise-linear decoder M_k through the breakpoints alpha_k < ... < alpha_1
recover every atom up to error below sqrt(2) * alpha_k, so the one-parameter
width drops to 0 as k grows.  Meanwhile the class's entropy numbers stay
bounded below by alpha_{2^n} / 2, so any such family of coders must blow up:
the decoder's constant is at least alpha_{k-1} / (alpha_{k-1} - alpha_k),
which diverges because the alpha sequence decays slowly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .extend import lipschitz_audit
from .nets import entropy_bracket
from .spaces import AlphaSequence, FiniteNormedSpace, generate_diag_class

__all__ = [
    "DiagMaps",
    "CounterexampleRow",
    "CounterexampleReport",
    "diag_encode",
    "diag_decode",
    "decoder_lipschitz_lower",
    "counterexample_report",
]


@dataclass(frozen=True)
class DiagMaps:
    """One-parameter coder pair at level k, acting in R^dim (dim >= k)."""

    k: int
    alpha: AlphaSequence
    dim: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.dim < self.k:
            raise ValueError("ambient dim must be at least k")

    @property
    def breakpoints(self) -> np.ndarray:
        """Decoder breakpoints alpha_k < ... < alpha_1, ascending."""
        return self.alpha.alpha(np.arange(self.k, 0, -1))


def _atom_index(maps: DiagMaps, x: np.ndarray) -> int:
    """Index j of an atom alpha_j e_j, or 0 for the origin; errors otherwise."""
    x = np.asarray(x, dtype=float)
    if x.shape != (maps.dim,):
        raise ValueError(f"expected a vector of length {maps.dim}")
    nz = np.nonzero(x)[0]
    if len(nz) == 0:
        return 0
    if len(nz) != 1:
        raise ValueError("not a class atom: more than one nonzero coordinate")
    j = int(nz[0]) + 1
    if not math.isclose(x[nz[0]], maps.alpha.alpha(j), rel_tol=0.0, abs_tol=1e-12):
        raise ValueError(
            f"not a class atom: coordinate {j} is {x[nz[0]]!r}, "
            f"expected alpha_{j} = {maps.alpha.alpha(j)!r}"
        )
    return j


def diag_encode(maps: DiagMaps, x: np.ndarray) -> float:
    """Scalar code alpha_min(j, k) for atom j, alpha_k for the origin.

    1-Lipschitz on the class into R with absolute value.
    """
    j = _atom_index(maps, x)
    if j == 0:
        return float(maps.alpha.alpha(maps.k))
    return float(maps.alpha.alpha(min(j, maps.k)))


def diag_decode(maps: DiagMaps, t: float) -> np.ndarray:
    """Piecewise-linear curve through 0 and the first k atoms.

    Clamped to 0 for t <= 0 and to alpha_1 e_1 for t >= alpha_1; on
    [alpha_{j+1}, alpha_j] it interpolates atom j+1 to atom j linearly, and
    on [0, alpha_k] it interpolates the origin to atom k.
    """
    t = float(t)
    out = np.zeros(maps.dim)
    bp = maps.breakpoints  # ascending: alpha_k .. alpha_1
    k = maps.k
    if t <= 0.0:
        return out
    if t >= bp[-1]:
        out[0] = bp[-1]
        return out
    if t <= bp[0]:
        # segment origin -> atom k
        out[k - 1] = t
        return out
    # bp[i-1] < t <= bp[i]; bp[i] = alpha_{k-i}, between atoms k-i+1 and k-i
    i = int(np.searchsorted(bp, t))
    lo, hi = bp[i - 1], bp[i]
    w = (t - lo) / (hi - lo)
    j_hi = k - i  # atom j sits at 0-indexed coordinate j - 1
    out[j_hi - 1] = w * hi
    out[j_hi] = (1.0 - w) * lo
    return out


def decoder_lipschitz_lower(maps: DiagMaps, probes: int = 64) -> float:
    """Audited lower bound for Lip(M_k) over all pairs of breakpoints and probes.

    The adjacent-breakpoint pair (alpha_k, alpha_{k-1}) alone already gives
    a ratio above alpha_{k-1} / (alpha_{k-1} - alpha_k).
    """
    bp = maps.breakpoints
    ts = np.unique(np.concatenate(
        [bp, [0.0, bp[-1] * 1.5], np.linspace(0.0, bp[-1], probes)]
    ))
    i, j = np.triu_indices(len(ts), k=1)
    pairs = np.stack([ts[i], ts[j]], axis=1)[:, :, None]
    audit = lipschitz_audit(
        lambda T: np.array([diag_decode(maps, t) for t in T[:, 0]]),
        pairs,
        FiniteNormedSpace(1, 2.0),
        FiniteNormedSpace(maps.dim, 2.0),
    )
    return audit.measured


@dataclass(frozen=True)
class CounterexampleRow:
    """Level-k measurements next to their predicted envelopes."""

    k: int
    sup_error: float
    sqrt2_alpha_k: float
    lip_Mk_lower: float
    lip_Mk_predicted: float


@dataclass(frozen=True)
class CounterexampleReport:
    rows: tuple[CounterexampleRow, ...]
    entropy_rows: tuple[tuple[int, float, float], ...]  # (n, lower, alpha_{2^n}/2)
    r: float
    m: int

    @property
    def all_errors_below_envelope(self) -> bool:
        return all(row.sup_error < row.sqrt2_alpha_k for row in self.rows)

    @property
    def entropy_lower_holds(self) -> bool:
        return all(lo >= target for (_, lo, target) in self.entropy_rows)

    @property
    def lip_lower_increasing(self) -> bool:
        lips = [row.lip_Mk_lower for row in self.rows]
        return all(b > a for a, b in zip(lips, lips[1:]))


def counterexample_report(
    alpha: AlphaSequence, k_max: int, n_max: int
) -> CounterexampleReport:
    """Run the coder family over a truncated class and collect the evidence.

    The class is truncated at m = 2^(n_max + 1) atoms so that every packing
    the entropy rows need (2^n + 1 points, n <= n_max) exists.  For k in
    2..k_max: roundtrip sup error over all class points against
    sqrt(2) alpha_k, and the measured decoder constant against
    alpha_{k-1} / (alpha_{k-1} - alpha_k).
    """
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    m = 2 ** (n_max + 1)
    if k_max > m:
        raise ValueError("k_max exceeds the truncated class size")
    K = generate_diag_class(alpha, m)
    rows = []
    for k in range(2, k_max + 1):
        maps = DiagMaps(k=k, alpha=alpha, dim=m)
        errs = [
            float(np.linalg.norm(x - diag_decode(maps, diag_encode(maps, x))))
            for x in K.points
        ]
        a_prev, a_k = alpha.alpha(k - 1), alpha.alpha(k)
        rows.append(
            CounterexampleRow(
                k=k,
                sup_error=max(errs),
                sqrt2_alpha_k=math.sqrt(2.0) * a_k,
                lip_Mk_lower=decoder_lipschitz_lower(maps),
                lip_Mk_predicted=a_prev / (a_prev - a_k),
            )
        )
    entropy_rows = []
    for n in range(1, n_max + 1):
        bracket = entropy_bracket(K, n)
        entropy_rows.append((n, bracket.lower, float(alpha.alpha(2**n)) / 2.0))
    return CounterexampleReport(
        rows=tuple(rows), entropy_rows=tuple(entropy_rows), r=alpha.r, m=m
    )
