"""Greedy packings, coverings, and two-sided entropy-number brackets.

The n-th entropy number of a class K is the smallest radius at which 2^n
balls cover K.  On a finite cloud we bracket it from both sides:

  lower: half the separation of a greedy (2^n + 1)-point packing, since any
         cover by 2^n balls puts two packed points in one ball;
  upper: the radius of a greedy 2^n-center cover with centers inside K.

Greedy farthest-point selection is a 2-approximation for both problems, and
both bounds are certificates in their own right (an actual packing, an
actual cover), so the bracket is valid regardless of approximation quality.

A cover is itself a finite model class: a ModelClassSurrogate whose points
are its centers and whose resolution is its covering radius over the cloud
it walked (K's own resolution is not added).

Farthest-point selection is nested: every cover, packing and bracket here
is a prefix of one traversal of the cloud, computed one distance row per
pick.  The gap of a pick (its distance to the picks before it) is both the
covering radius of those earlier picks and the separation of the set the
pick completes, so the bracket's upper end is twice its lower end
whenever the cloud has more than 2^n points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .spaces import ModelClassSurrogate, _distances

__all__ = [
    "EntropyBracket",
    "greedy_packing",
    "greedy_cover",
    "entropy_bracket",
    "build_net",
]


@dataclass(frozen=True)
class EntropyBracket:
    """Two-sided bracket for the n-th entropy number of a finite cloud.

    cover is the greedy 2^n-center cover; its resolution is the upper end.
    """

    n: int
    packing_witness: np.ndarray
    cover: ModelClassSurrogate

    @property
    def upper(self) -> float:
        return self.cover.resolution

    @property
    def lower(self) -> float:
        return self.upper / 2.0


def _farthest_first(K: ModelClassSurrogate):
    """Yield (index, gap) for each pick of the farthest-point traversal.

    The traversal starts at index 0; every later pick maximizes the distance
    to the picks before it, ties broken by lowest index (np.argmax).  The
    gap of a pick is that distance, which is also the covering radius of the
    earlier picks (inf for the first pick).  One distance row is computed
    per pick, by the pair expression of widthlab.spaces (cdist's bit for
    bit), so memory stays O(count).
    """
    coords = np.ascontiguousarray(K.points.T)
    mindist = np.full(K.count, math.inf)
    j, gap = 0, math.inf
    for _ in range(K.count):
        yield j, gap
        np.minimum(mindist, _distances(coords, coords[:, j : j + 1]), out=mindist)
        j = int(np.argmax(mindist))
        gap = float(mindist[j])


def _picks(K: ModelClassSurrogate, m: int) -> tuple[list[int], list[float]]:
    """Indices and gaps of the first min(m, count) picks of the traversal."""
    picks = list(itertools.islice(_farthest_first(K), m))
    return [j for j, _ in picks], [gap for _, gap in picks]


def _level_cover(
    K: ModelClassSurrogate, m: int
) -> tuple[ModelClassSurrogate, list[int]]:
    """Greedy m-center cover and the first min(m + 1, count) picks.

    The gap of pick m + 1 is the covering radius of the m before it; a
    cloud of at most m points is its own cover, at radius 0.
    """
    selected, gaps = _picks(K, m + 1)
    radius = gaps[m] if m < K.count else 0.0
    return ModelClassSurrogate(K.points[selected[:m]], radius), selected


def greedy_packing(
    K: ModelClassSurrogate, m: int
) -> tuple[np.ndarray, float]:
    """Greedy m-point packing of the cloud; returns (points, separation).

    The separation of the selected set is at least half the best separation
    achievable by any m-subset.  m = 1 reports infinite separation.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if m > K.count:
        raise ValueError(f"asked for {m} points but cloud has {K.count}")
    selected, gaps = _picks(K, m)
    # the min pairwise distance of the selected set equals the last gap
    # because greedy gaps are nonincreasing
    return K.points[selected], gaps[-1]


def greedy_cover(K: ModelClassSurrogate, m: int) -> ModelClassSurrogate:
    """Greedy m-center cover of the cloud by its own points.

    Its resolution is within a factor 2 of the best m-center cover radius
    with centers in the cloud (classical farthest-point guarantee).
    """
    if m < 1:
        raise ValueError("m must be positive")
    return _level_cover(K, m)[0]


def entropy_bracket(K: ModelClassSurrogate, n: int) -> EntropyBracket:
    """Bracket the n-th entropy number of the cloud, n >= 0.

    The lower bound needs a (2^n + 1)-point packing; when the cloud is too
    small for that the lower bound degrades to 0 with an empty witness.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    cover, selected = _level_cover(K, 2**n)
    witness = K.points[selected] if 2**n < K.count else K.points[:0]
    return EntropyBracket(n=n, packing_witness=witness, cover=cover)


def build_net(K: ModelClassSurrogate, eps: float) -> ModelClassSurrogate:
    """Smallest greedy cover of resolution <= eps (inner covering).

    Greedy radii are nonincreasing in the center count, so the traversal
    stops at the first pick whose gap (the radius of the picks before it)
    is at most eps.  eps = 0 returns the full cloud.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    selected: list[int] = []
    for j, gap in _farthest_first(K):
        if selected and gap <= eps:
            return ModelClassSurrogate(K.points[selected], gap)
        selected.append(j)
    # eps below the cloud's own granularity: every point is a center
    return ModelClassSurrogate(K.points[selected], 0.0)
