"""Diagonal class where one-parameter coders beat every stable coder.

The class puts alpha_j on the j-th axis (plus the origin).  For each k the
scalar encoder a_k(x) = alpha_min(j, k) (alpha_k at the origin) and the
piecewise-linear decoder M_k through the breakpoints alpha_k < ... < alpha_1
recover every atom up to error below sqrt(2) * alpha_k, so the one-parameter
width drops to 0 as k grows.  Meanwhile the class's entropy numbers stay
bounded below by alpha_{2^n} / 2, so any such family of coders must blow up:
the decoder's constant is exactly

    max(1, max_{j<k} sqrt(alpha_j^2 + alpha_{j+1}^2) / (alpha_j - alpha_{j+1})),

the largest slope of its linear pieces.  It exceeds
alpha_{k-1} / (alpha_{k-1} - alpha_k), which diverges because the alpha
sequence decays slowly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nets import entropy_bracket
from .spaces import AlphaSequence, generate_diag_class

__all__ = [
    "DiagMaps",
    "CounterexampleRow",
    "CounterexampleReport",
    "diag_encode",
    "diag_decode",
    "decoder_lipschitz",
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
    interpolates the origin to atom k.  Infinite codes clamp like any
    other; a NaN code raises ValueError naming its row.
    """
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[1] != 1:
        raise ValueError("expected codes of shape (count, 1)")
    t = T[:, 0]
    nan = np.flatnonzero(np.isnan(t))
    if nan.size:
        raise ValueError(f"row {nan[0]} is NaN")
    knots = np.concatenate([[0.0], maps.breakpoints])  # 0, alpha_k, ..., alpha_1
    # knot i is alpha_j for j = k + 1 - i; atom j's coordinate j - 1 is the
    # hat that peaks there, which np.interp clamps beyond both end knots
    hats = np.diag(knots)
    out = np.zeros((len(t), maps.dim))
    for i in range(1, maps.k + 1):
        out[:, maps.k - i] = np.interp(t, knots, hats[i])
    return out


def decoder_lipschitz(maps: DiagMaps) -> float:
    """Lip(M_k) exactly: the largest slope of the decoder's linear pieces.

    M_k is piecewise linear in one variable, so its constant is the largest
    slope of a piece: 1 from the origin to atom k, 0 on the two clamped
    rays, and sqrt(alpha_j^2 + alpha_{j+1}^2) / (alpha_j - alpha_{j+1}) from
    atom j+1 to atom j.  The adjacent pair (alpha_k, alpha_{k-1}) alone
    exceeds alpha_{k-1} / (alpha_{k-1} - alpha_k).
    """
    lo, hi = maps.breakpoints[:-1], maps.breakpoints[1:]
    return float(np.max(np.hypot(lo, hi) / (hi - lo), initial=1.0))


@dataclass(frozen=True)
class CounterexampleRow:
    """Level-k measurements next to their predicted envelopes."""

    k: int
    sup_error: float
    sqrt2_alpha_k: float
    lip_Mk: float
    lip_Mk_predicted: float


@dataclass(frozen=True)
class CounterexampleReport:
    rows: tuple[CounterexampleRow, ...]
    entropy_rows: tuple[tuple[int, float, float], ...]  # (n, lower, alpha_{2^n}/2)

    @property
    def all_errors_below_envelope(self) -> bool:
        return all(row.sup_error < row.sqrt2_alpha_k for row in self.rows)

    @property
    def entropy_lower_holds(self) -> bool:
        return all(lo >= target for (_, lo, target) in self.entropy_rows)

    @property
    def lip_increasing(self) -> bool:
        lips = [row.lip_Mk for row in self.rows]
        return all(b > a for a, b in zip(lips, lips[1:]))


def counterexample_report(
    alpha: AlphaSequence, k_max: int, n_max: int
) -> CounterexampleReport:
    """Run the coder family over a truncated class and collect the evidence.

    The class is truncated at m = 2^(n_max + 1) atoms so that every packing
    the entropy rows need (2^n + 1 points, n <= n_max) exists.  For k in
    2..k_max: roundtrip sup error over all class points against
    sqrt(2) alpha_k, and the exact decoder constant against
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
                lip_Mk=decoder_lipschitz(maps),
                lip_Mk_predicted=a_prev / (a_prev - a_k),
            )
        )
    entropy_rows = []
    for n in range(1, n_max + 1):
        bracket = entropy_bracket(K, n)
        entropy_rows.append((n, bracket.lower, float(alpha.alpha(2**n)) / 2.0))
    return CounterexampleReport(rows=tuple(rows), entropy_rows=tuple(entropy_rows))
