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

import functools
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


def _atom_indices(maps: DiagMaps, X: np.ndarray) -> np.ndarray:
    """Index j of each row's atom alpha_j e_j, 0 for the origin; errors otherwise."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != maps.dim:
        raise ValueError(f"expected rows of length {maps.dim}")
    nonzero = X != 0.0
    j = np.where(nonzero.any(axis=1), np.argmax(nonzero, axis=1) + 1, 0)
    atoms = np.zeros_like(X)
    rows = np.flatnonzero(j)
    atoms[rows, j[rows] - 1] = maps.alpha.alpha(j[rows])
    bad = np.flatnonzero((nonzero.sum(axis=1) > 1)
                         | ~(np.max(np.abs(X - atoms), axis=1) <= 1e-12))
    if bad.size:
        raise ValueError(f"row {bad[0]} is neither an atom alpha_j e_j nor 0")
    return j


def diag_encode(maps: DiagMaps, X: np.ndarray) -> np.ndarray:
    """Codes (count, 1): alpha_min(j, k) for atom j, alpha_k for the origin.

    1-Lipschitz on the class into R with absolute value.  X holds one
    class point per row.
    """
    j = _atom_indices(maps, X)
    levels = np.where(j == 0, maps.k, np.minimum(j, maps.k))
    return maps.alpha.alpha(levels)[:, None]


def diag_decode(maps: DiagMaps, T: np.ndarray) -> np.ndarray:
    """Piecewise-linear curve through 0 and the first k atoms, row by row.

    T holds one code per row, shape (count, 1).  Clamped to 0 for t <= 0
    and to alpha_1 e_1 for t >= alpha_1; on [alpha_{j+1}, alpha_j] it
    interpolates atom j+1 to atom j linearly, and on [0, alpha_k] it
    interpolates the origin to atom k.
    """
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[1] != 1:
        raise ValueError("expected codes of shape (count, 1)")
    t = T[:, 0]
    out = np.zeros((len(t), maps.dim))
    bp = maps.breakpoints  # ascending: alpha_k .. alpha_1
    k = maps.k
    inside = (t > 0.0) & (t < bp[-1])
    out[t >= bp[-1], 0] = bp[-1]
    # segment origin -> atom k
    seg = np.flatnonzero(inside & (t <= bp[0]))
    out[seg, k - 1] = t[seg]
    # bp[i-1] < t <= bp[i]; bp[i] = alpha_{k-i}, between atoms k-i+1 and k-i
    mid = np.flatnonzero(inside & (t > bp[0]))
    i = np.searchsorted(bp, t[mid])
    lo, hi = bp[i - 1], bp[i]
    w = (t[mid] - lo) / (hi - lo)
    j_hi = k - i  # atom j sits at 0-indexed coordinate j - 1
    out[mid, j_hi - 1] = w * hi
    out[mid, j_hi] = (1.0 - w) * lo
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
        functools.partial(diag_decode, maps),
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
        recon = diag_decode(maps, diag_encode(maps, K.points))
        errs = np.linalg.norm(K.points - recon, axis=1)
        a_prev, a_k = alpha.alpha(k - 1), alpha.alpha(k)
        rows.append(
            CounterexampleRow(
                k=k,
                sup_error=float(np.max(errs)),
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
