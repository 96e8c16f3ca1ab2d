"""Finite-rank Lipschitz surrogates: cutoff, mollify, piecewise-linear interpolate.

Given an evaluable gamma-Lipschitz map M on R^n and a bounded set S, the
pipeline builds a map of finite rank that stays gamma-Lipschitz and tracks
M on S to a requested accuracy:

  1. radial cutoff  Phi(x) = clip(1 - lam(||x|| - R1), 0, 1) * x with
     lam R1 = delta / (2 gamma); this keeps M o Phi equal to M on S, makes
     it constant far away, and costs at most a (1 + lam R1) factor in the
     Lipschitz constant;
  2. mollification by a discrete bump kernel at scale 1/m, chosen so the
     sup change stays below half the accuracy budget; averaging never
     increases a Lipschitz constant; the kernel's tap lattice is rebuilt on
     each mesh so the smoothed map carries no sub-mesh structure; on the
     vertex grid the kernel is a stencil, convolved through numpy.fft by
     overlap-add over blocks of the first axis, each transformed at about
     eight stencil lengths, so the transforms never grow with the mesh;
  3. interpolation on a Kuhn (sorted-coordinate) simplicial mesh, halving
     the mesh size until the audited interpolation error and the audited
     extra Lipschitz constant fit their budgets;
  4. a final gamma / (gamma + delta) rescale that returns the constant to
     gamma at a sup cost proportional to delta.

The result factors through the mesh's vertex values, so its rank is at most
the vertex count plus one.  Its Lipschitz constant on the closed cube is
exact: the interpolant is affine on each Kuhn simplex, so the constant is
the largest spectral norm of the simplex Jacobians (pl_lipschitz).  The
other statements are audited on sampled points and pairs, and are honest
lower bounds: the certificate check of M, the sup deviation, and each
level's Lipschitz excess, since the interpolant minus the mollified map is
not piecewise linear and certifying its suprema would need mesh sizes far
below the kernel scale.  The level audits always include deterministic
probes on the two spheres where the cutoff breaks differentiability; those
shells hold the worst curvature after mollification, and random probes
alone would miss them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import spaces
from .extend import lipschitz_audit
from .spaces import norm

__all__ = [
    "RadialCutoff",
    "KuhnMesh",
    "PLInterpolant",
    "PipelineLevel",
    "PipelineResult",
    "MeshBudgetError",
    "cutoff_eval",
    "cutoff_image_radius",
    "bump_kernel",
    "kernel_scale",
    "pl_eval_batch",
    "pl_lipschitz",
    "finite_rank_pipeline",
]


class MeshBudgetError(RuntimeError):
    """Mesh halving exhausted its vertex budget before meeting the audits."""

    def __init__(self, achieved_dev: float, achieved_excess: float, vertices: int):
        super().__init__(
            f"budget exhausted at {vertices} vertices: deviation {achieved_dev:.3e}, "
            f"lipschitz excess {achieved_excess:.3e}"
        )
        self.achieved_dev = achieved_dev
        self.achieved_excess = achieved_excess
        self.vertices = vertices

    def __reduce__(self):
        return type(self), (self.achieved_dev, self.achieved_excess, self.vertices)


@dataclass(frozen=True)
class RadialCutoff:
    """Radial retraction: identity inside R1, zero beyond R1 + 1/lam."""

    R1: float
    lam: float

    def __post_init__(self):
        if self.R1 <= 0 or self.lam <= 0:
            raise ValueError("R1 and lam must be positive")

    @property
    def support_radius(self) -> float:
        return self.R1 + 1.0 / self.lam


def cutoff_eval(cut: RadialCutoff, X: np.ndarray) -> np.ndarray:
    """Apply the cutoff to the rows of a 2-d array.

    (1 + lam R1)-Lipschitz in l_2; fixes the R1 ball pointwise.
    """
    X = np.asarray(X, dtype=float)
    factor = np.clip(1.0 - cut.lam * (norm(X, 2.0) - cut.R1), 0.0, 1.0)
    return X * factor[:, None]


def cutoff_image_radius(R1: float, lam: float) -> float:
    """Largest norm the cutoff can output.

    The profile r (1 - lam (r - R1)) peaks at (1 + lam R1)^2 / (4 lam) when
    that exceeds R1, which happens as soon as 1/lam >= R1.
    """
    peak = (1.0 + lam * R1) ** 2 / (4.0 * lam)
    return max(R1, peak) if 1.0 / lam >= R1 else R1


def bump_kernel(
    m: float, n: int, spacing: float
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """Bump kernel at scale 1/m sampled on a lattice of the given spacing.

    Returns (offsets, weights, first_moment, stencil): offset vectors with
    positive weight, their normalized weights (sum 1), sum_j w_j ||offset_j||,
    and the same weights as a dense (2k+1)^n array for grid convolution.
    When the lattice is coarser than the kernel radius the kernel degenerates
    to a single unit tap (no smoothing).
    """
    if m <= 0 or spacing <= 0:
        raise ValueError("m and spacing must be positive")
    kmax = int(math.floor((1.0 / m) / spacing * (1.0 - 1e-12)))
    if kmax < 1:
        return np.zeros((1, n)), np.ones(1), 0.0, np.ones((1,) * n)
    cells = np.arange(-kmax, kmax + 1)
    grids = np.meshgrid(*([cells] * n), indexing="ij")
    lattice = np.stack([g.ravel() for g in grids], axis=1).astype(float)
    r2 = np.sum((lattice * (spacing * m)) ** 2, axis=1)
    weights = np.zeros(len(lattice))
    inside = r2 < 1.0
    weights[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    weights /= weights.sum()
    stencil = weights.reshape((2 * kmax + 1,) * n)
    offsets = lattice[inside] * spacing
    weights = weights[inside]
    moment = float(np.sum(weights * np.linalg.norm(offsets, axis=1)))
    return offsets, weights, moment, stencil


# tap spacing, in kernel radii, of the reference kernel that fixes the scale m
UNIT_SPACING = 0.25


def kernel_scale(gamma: float, delta: float, eps: float, n: int) -> int:
    """The m of the kernel scale 1/m at which mollifying moves a map by <= eps/2.

    The sup change is at most (gamma + delta/2) times the kernel's first
    moment, and the moment of the reference kernel shrinks as 1/m.
    """
    _, _, unit_moment, _ = bump_kernel(1.0, n, UNIT_SPACING)
    return max(1, math.ceil((gamma + delta / 2.0) * unit_moment / (eps / 2.0)))


@dataclass(frozen=True)
class KuhnMesh:
    """Uniform simplicial mesh of [-D, D]^n by sorted-coordinate subdivision.

    Each subcube splits into n! simplices, one per coordinate ordering; the
    simplex for ordering pi is the chain from the subcube corner adding h
    along pi's axes one at a time.  Simplex diameter is h sqrt(n).
    """

    n: int
    D: float
    subdivisions: int

    def __post_init__(self):
        if not (1 <= self.n <= 3):
            raise ValueError("mesh dimension limited to 1..3")
        if self.D <= 0:
            raise ValueError("D must be positive")
        if self.subdivisions < 1:
            raise ValueError("subdivisions must be positive")

    @property
    def h(self) -> float:
        return 2.0 * self.D / self.subdivisions

    @property
    def points_per_axis(self) -> int:
        return self.subdivisions + 1

    @property
    def vertex_count(self) -> int:
        return self.points_per_axis**self.n

    @property
    def simplex_count(self) -> int:
        return self.subdivisions**self.n * math.factorial(self.n)

    def axis_coordinates(self) -> np.ndarray:
        return -self.D + self.h * np.arange(self.points_per_axis)

    def vertex_strides(self) -> np.ndarray:
        """Row-major strides into the flattened vertex array."""
        return self.points_per_axis ** np.arange(self.n - 1, -1, -1)


@dataclass(frozen=True)
class PLInterpolant:
    """Continuous piecewise-linear map: mesh vertex values inside the cube,
    a constant outside.

    values are flattened row-major, one row per vertex; continuity across
    simplex faces holds by construction of the barycentric rule.  The map
    is continuous on the closed cube only: where face vertex values differ
    from outside_value (by up to about 1e-16 in the pipeline), it jumps
    across the faces.  Its Lipschitz constant is therefore the one on the
    closed cube (pl_lipschitz), where every point it is measured at lies.
    """

    mesh: KuhnMesh
    values: np.ndarray
    outside_value: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] != self.mesh.vertex_count:
            raise ValueError(
                f"values must be ({self.mesh.vertex_count}, d), got {vals.shape}"
            )
        out = np.asarray(self.outside_value, dtype=float)
        if out.shape != (vals.shape[1],):
            raise ValueError("outside_value length != value dimension")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "outside_value", out)

    @property
    def rank_bound(self) -> int:
        return self.mesh.vertex_count + 1

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        return pl_eval_batch(self, X)


def pl_eval_batch(f: PLInterpolant, X: np.ndarray) -> np.ndarray:
    """Evaluate at rows of X.

    Points outside the closed cube, infinite coordinates included, return
    the constant; a row holding NaN raises ValueError naming it.  Inside,
    the containing simplex is located by sorting local cell coordinates in
    descending order (ties by axis index); barycentric weights are the
    successive gaps of the sorted coordinates.
    """
    mesh = f.mesh
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != mesh.n:
        raise ValueError(f"points must be rows of length {mesh.n}")
    nan = np.flatnonzero(np.isnan(X).any(axis=1))
    if nan.size:
        raise ValueError(f"row {nan[0]} holds NaN")
    Q, n = X.shape
    out = np.tile(f.outside_value, (Q, 1))
    inside = np.all(np.abs(X) <= mesh.D * (1.0 + 1e-12), axis=1)
    if not np.any(inside):
        return out
    Xi = X[inside]
    u = (Xi + mesh.D) / mesh.h
    cell = np.clip(np.floor(u).astype(int), 0, mesh.subdivisions - 1)
    local = np.clip(u - cell, 0.0, 1.0)
    order = np.argsort(-local, axis=1, kind="stable")
    sorted_local = np.take_along_axis(local, order, axis=1)
    strides = mesh.vertex_strides()
    vidx = cell @ strides
    acc = (1.0 - sorted_local[:, 0])[:, None] * f.values[vidx]
    gaps = np.empty_like(sorted_local)
    gaps[:, :-1] = sorted_local[:, :-1] - sorted_local[:, 1:]
    gaps[:, -1] = sorted_local[:, -1]
    for step in range(n):
        vidx = vidx + strides[order[:, step]]
        acc += gaps[:, step][:, None] * f.values[vidx]
    out[inside] = acc
    return out


def pl_lipschitz(f: PLInterpolant) -> float:
    """Exact Lipschitz constant of f on the closed cube.

    f is affine on each Kuhn simplex and continuous on the cube, which is
    convex, so its constant there is the largest spectral norm of the
    simplices' Jacobians.  On the simplex of ordering pi the Jacobian's
    columns are the successive vertex differences along pi's chain, divided
    by h.  The top eigenvalue of their n x n Gram matrix is the squared
    norm for n = 1, (a + c)/2 + hypot((a - c)/2, b) for n = 2, and
    numpy.linalg.eigvalsh's for n = 3.  Cells go through in blocks of
    first-axis planes holding about spaces._BLOCK_ELEMENTS values, so no
    temporary grows with the mesh.
    """
    mesh = f.mesh
    n, S, P = mesh.n, mesh.subdivisions, mesh.points_per_axis
    d = f.values.shape[1]
    grid = f.values.reshape((P,) * n + (d,))
    chains = []
    for perm in itertools.permutations(range(n)):
        corner = [0] * n
        chain = [tuple(corner)]
        for axis in perm:
            corner[axis] += 1
            chain.append(tuple(corner))
        chains.append(chain)
    rows = max(1, spaces._BLOCK_ELEMENTS // (P ** (n - 1) * d))
    top = 0.0
    for start in range(0, S, rows):
        stop = min(start + rows, S)

        def corner_values(offset):
            """Values at each block cell's corner moved by offset."""
            return grid[(slice(start + offset[0], stop + offset[0]),)
                        + tuple(slice(o, o + S) for o in offset[1:])]

        for chain in chains:
            cols = [corner_values(b) - corner_values(a)
                    for a, b in zip(chain, chain[1:])]
            # the Gram matrix's lower triangle, (i, j) with j <= i
            gram = {(i, j): np.einsum("...k,...k->...", cols[i], cols[j])
                    for i in range(n) for j in range(i + 1)}
            if n == 1:
                lam = gram[0, 0]
            elif n == 2:
                a, b, c = gram[0, 0], gram[1, 0], gram[1, 1]
                lam = (a + c) / 2.0 + np.hypot((a - c) / 2.0, b)
            else:
                lam = np.linalg.eigvalsh(np.stack(
                    [np.stack([gram[max(i, j), min(i, j)] for j in range(n)],
                              axis=-1) for i in range(n)], axis=-2))[..., -1]
            top = max(top, float(np.max(lam)))
    return math.sqrt(top) / mesh.h


@dataclass(frozen=True)
class PipelineLevel:
    """One mesh level of the halving loop, with its audited errors.

    sup_err and lip_excess run over all probes including the mollified
    cutoff shells and drive the halving decision.  The _smooth variants
    are upper-tail means over probes at least one kernel radius away from
    both shells (within-cell pair scales only, for the excess); they
    isolate the interpolation error of the smooth map content, which is
    the part that follows clean convergence orders (error ~ h^2, Lipschitz
    excess ~ h).  Shell probes converge too, but not as a power law: the
    kernel lattice rescales with the mesh, so the shell reading is a
    self-similar feature of the pair geometry, not of h alone.
    """

    subdivisions: int
    h: float
    sup_err: float
    lip_excess: float
    sup_err_smooth: float
    lip_excess_smooth: float


@dataclass(frozen=True)
class PipelineResult:
    interpolant: PLInterpolant
    gamma: float
    delta: float
    eps: float
    m: int
    D: float
    rank: int
    sup_dev_on_S: float
    lip_measured: float
    levels: tuple[PipelineLevel, ...]


# share of the largest values _upper_tail averages
_TAIL_FRAC = 0.05


def _upper_tail(values: np.ndarray) -> float:
    """Mean of the largest _TAIL_FRAC of values: a low-variance stand-in for max.

    The max over random probes is too seed-sensitive for order-of-convergence
    regressions; every upper quantile of the probe distribution scales the
    same way in h, and the trimmed mean is stable.
    """
    if values.size == 0:
        return math.nan
    k = max(1, int(math.ceil(_TAIL_FRAC * values.size)))
    part = np.partition(values, values.size - k)[values.size - k:]
    return float(np.mean(part))


def _unit_directions(n: int, count: int) -> np.ndarray:
    """Deterministic well-spread unit vectors: signs, a circle, or a spiral."""
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        ang = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    j = np.arange(count)
    z = 1.0 - (2.0 * j + 1.0) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    ang = 2.0 * np.pi * j / golden
    return np.stack([r * np.cos(ang), r * np.sin(ang), z], axis=1)


def _chunked_mesh_eval(mesh: KuhnMesh, fn_batch, d_out: int) -> np.ndarray:
    """Evaluate a batch map at all mesh vertices, row-major, memory-bounded.

    The vertices go to fn_batch in blocks of spaces._BLOCK_ELEMENTS rows.
    Each block's coordinates come from its flat vertex indices, as
    -D + h * index per axis, the elementwise expression of
    axis_coordinates, so every row is bit for bit the vertex's meshgrid
    row.  No array but the returned values grows with the mesh.
    """
    D, h, total = mesh.D, mesh.h, mesh.vertex_count
    shape = (mesh.points_per_axis,) * mesh.n
    out = np.empty((total, d_out))
    for start in range(0, total, spaces._BLOCK_ELEMENTS):
        stop = min(start + spaces._BLOCK_ELEMENTS, total)
        index = np.unravel_index(np.arange(start, stop), shape)
        out[start:stop] = fn_batch(np.stack([-D + h * i for i in index], axis=1))
    return out


# Overlap-add blocks along the first grid axis are transformed at
# F = _next_fast_len(_BLOCK_STENCILS * L) for a stencil of length L, so the
# stencil's overlap costs about 1/_BLOCK_STENCILS of each transform; 4 to 16
# timed alike on the default finest level (3.5M vertices, 295 taps, 2 cores)
_BLOCK_STENCILS = 8


def _next_fast_len(target: int) -> int:
    """The smallest 2^a 3^b 5^c >= target, as scipy.fft.next_fast_len(target, True)."""
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two times p35 that reaches target
            best = min(best, p35 << (-(-target // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _smooth_grid(grid_values: np.ndarray, mesh: KuhnMesh, stencil: np.ndarray,
                 base: np.ndarray) -> np.ndarray:
    """Convolve row-major vertex samples with a stencil, component-wise, in place.

    Subtracting `base` (the constant value the samples take near the cube
    boundary) first makes the transform's zero padding exact: the nonconstant
    part vanishes within one kernel radius of every face.

    The convolution is overlap-add along the first grid axis; the other
    axes are padded whole.  With L the stencil length, the transform length
    is F = next_fast_len(_BLOCK_STENCILS * L) and the base-shifted samples
    are cut into blocks of B = F - L + 1 rows, so that a block's full
    convolution fits its transform; a grid shorter than B is one block.
    The blocks are transformed a batch at a time by numpy.fft.rfftn and
    multiplied by the stencil's transform, taken once at F; the unscaled
    inverse (norm="forward") is scaled once by 1/prod of the transform
    shape.  A batch holds about spaces._BLOCK_ELEMENTS transform samples,
    which bounds the temporaries whatever the length of the first axis,
    unless one block's transform alone is larger.  Each block's full
    convolution is added into place, its last L - 1 rows onto the next
    block's first, and the same-mode centre is written back over the
    samples.
    Returns grid_values, overwritten with the smoothed samples.
    """
    if stencil.size == 1:
        return grid_values
    if not grid_values.flags.c_contiguous:
        raise ValueError("grid values must be C-contiguous to be smoothed in place")
    n, P, L = mesh.n, mesh.points_per_axis, stencil.shape[0]
    F = _next_fast_len(_BLOCK_STENCILS * L)
    B = F - L + 1
    rest = (P,) * (n - 1)
    fshape = (F,) + (_next_fast_len(P + L - 1),) * (n - 1)
    axes = tuple(range(1, n + 1))
    c = (L - 1) // 2  # full row c + i is same-mode row i
    inner = (slice(0, P),) * (n - 1)
    # a block's full convolution fills its F = B + L - 1 rows
    centre = (slice(None),) * 2 + (slice(c, c + P),) * (n - 1)
    per_batch = max(1, spaces._BLOCK_ELEMENTS // math.prod(fshape))
    kernel = np.fft.rfftn(stencil, fshape, axes=tuple(range(n)))
    grid = grid_values.reshape((P,) * n + (grid_values.shape[1],))
    for comp in range(grid_values.shape[1]):
        samples, shift = grid[..., comp], base[comp]
        for start in range(0, P, per_batch * B):
            count = min(per_batch, -(-(P - start) // B))
            stop = min(start + count * B, P)
            whole, part = divmod(stop - start, B)
            blocks = np.zeros((count,) + fshape)
            np.subtract(samples[start:start + whole * B].reshape((whole, B) + rest),
                        shift, out=blocks[(slice(0, whole), slice(0, B)) + inner])
            if part:
                np.subtract(samples[start + whole * B:stop], shift,
                            out=blocks[(whole, slice(0, part)) + inner])
            spec = np.fft.rfftn(blocks, fshape, axes=axes)
            spec *= kernel
            full = np.fft.irfftn(spec, fshape, axes=axes, norm="forward")[centre]
            full *= 1.0 / math.prod(fshape)
            # full row t of block j is convolution row start + j B + t
            full[1:, :L - 1] += full[:-1, B:]
            if start:
                full[0, :L - 1] += carry
            carry = full[-1, B:].copy()  # the last block's tail
            # same-mode rows below start + count B - c are complete, and the
            # input rows they overwrite are already in this batch's blocks
            lo, hi = max(start - c, 0), max(min(start + count * B - c, P), 0)
            done = full[:, :B].reshape((count * B,) + rest)
            np.add(done[lo + c - start:hi + c - start], shift, out=samples[lo:hi])
        end = start + count * B  # the tail holds convolution rows from end on
        np.add(carry[hi + c - end:P + c - end], shift, out=samples[hi:P])
    return grid_values


def _probe_pairs(anchor: np.ndarray, dirs: np.ndarray, scales: np.ndarray,
                 shell_anchor: np.ndarray, shell_dirs: np.ndarray,
                 h: float, D: float) -> tuple[np.ndarray, np.ndarray]:
    """(count, 2, n) pairs (a, clip(a + h * scale * dir)) and their scales.

    Each shell probe is appended twice, paired radially at a quarter cell
    and at one cell.  Pairs that the clip to the cube collapses are dropped.
    """
    a = np.concatenate([anchor, shell_anchor, shell_anchor], axis=0)
    dirs = np.concatenate([dirs, shell_dirs, shell_dirs], axis=0)
    scales = np.concatenate([
        scales,
        np.full(shell_anchor.shape[0], 0.25),
        np.full(shell_anchor.shape[0], 1.0),
    ])
    b = np.clip(a + dirs * (h * scales)[:, None], -D, D)
    keep = norm(a - b, 2.0) > 0
    return np.stack([a[keep], b[keep]], axis=1), scales[keep]


# random probes of the deviation audit, and random pairs of the Lipschitz audits
_AUDIT_POINTS = 2000
_AUDIT_PAIRS = 4000

# mesh vertices beyond which finite_rank_pipeline stops halving
_MAX_VERTICES = 32_000_000


def finite_rank_pipeline(
    M,
    S_points: np.ndarray,
    gamma: float,
    eps: float,
    delta: float,
    seed: int,
    initial_subdivisions: int,
    min_levels: int,
) -> PipelineResult:
    """Cutoff, mollify, interpolate, rescale; check every budget along the way.

    M must be a batch map (Q, n) -> (Q, d) that is gamma-Lipschitz on the
    ball the cutoff can reach (checked on sampled pairs).  S_points are the
    probes, one per row, on which the final deviation is reported.  The mesh
    is halved until the audited interpolation deviation is below eps/2 and
    the audited extra Lipschitz constant below delta/2, with at least
    min_levels levels recorded for convergence regressions; a level past
    _MAX_VERTICES vertices raises MeshBudgetError.  The result's
    lip_measured is the rescaled interpolant's exact constant, pl_lipschitz.
    """
    S_points = np.asarray(S_points, dtype=float)
    if S_points.ndim != 2 or not (1 <= S_points.shape[1] <= 3):
        raise ValueError("pipeline supports domain dimension 1..3")
    n = S_points.shape[1]
    if eps <= 0 or delta <= 0 or gamma <= 0:
        raise ValueError("gamma, eps, delta must be positive")
    rng = np.random.default_rng(seed)

    R1 = float(np.max(norm(S_points, 2.0)))
    if R1 == 0.0:
        R1 = 1.0
    lam = delta / (2.0 * gamma * R1)
    cut = RadialCutoff(R1=R1, lam=lam)
    R_cut = cut.support_radius

    M0 = M(np.zeros((1, n)))[0]
    d_out = M0.shape[0]

    # certificate audit: gamma must hold where the cutoff sends points
    img_radius = cutoff_image_radius(R1, lam)
    probe = rng.standard_normal((512, n))
    probe /= np.linalg.norm(probe, axis=1, keepdims=True)
    probe *= img_radius * rng.uniform(size=(512, 1)) ** (1.0 / n)
    partner = probe + rng.standard_normal((512, n)) * (0.05 * img_radius)
    worst = lipschitz_audit(M, np.stack([probe, partner], axis=1)).measured
    if worst > gamma * (1.0 + 1e-9):
        raise ValueError(
            f"map violates its gamma certificate: measured {worst:.6g} > {gamma:.6g}"
        )

    def M1(X: np.ndarray) -> np.ndarray:
        return M(cutoff_eval(cut, X))

    # The kernel itself is rebuilt per mesh level on the mesh lattice (taps at
    # spacing h): a fixed tap lattice would hand the interpolant a function
    # whose residual kinks, of size w_max times the cutoff's derivative break,
    # never shrink, so the Lipschitz-excess audit would stall at that floor no
    # matter how fine the mesh.  Taps at spacing h keep the smoothed map's
    # kinks O(h) and make the audited excess genuinely converge.
    m = kernel_scale(gamma, delta, eps, n)

    D = R_cut + 1.0 / m

    # The cutoff has derivative breaks on the spheres of radius R1 and R_cut.
    # Mollification smooths them into shells of width 2/m whose curvature
    # (roughly the break size times m) dominates everything else in the cube,
    # so the mesh audits must probe them deterministically: random anchors hit
    # a thin shell only by luck, and an audit that misses it would certify a
    # Lipschitz excess the interpolant does not actually satisfy.
    ring = _unit_directions(n, 64 if n == 2 else 128 if n == 3 else 2)
    blocks = [
        (ring * (radius + off), ring)
        for radius in (R1, R_cut)
        for off in (-0.5 / m, 0.0, 0.5 / m)
        if radius + off > 0.0
    ]
    shell_anchor = np.concatenate([b[0] for b in blocks], axis=0)
    shell_dirs = np.concatenate([b[1] for b in blocks], axis=0)

    def _shell_distance(P: np.ndarray) -> np.ndarray:
        r = norm(P, 2.0)
        return np.minimum(np.abs(r - R1), np.abs(r - R_cut))

    # fixed audit material across levels
    bulk = rng.uniform(-D, D, size=(_AUDIT_POINTS, n))
    dev_points = np.concatenate([S_points, bulk, shell_anchor], axis=0)
    dev_smooth = _shell_distance(dev_points) > 1.0 / m
    anchor = rng.uniform(-D, D, size=(_AUDIT_PAIRS, n))
    directions = rng.standard_normal((_AUDIT_PAIRS, n))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    # pair scales proportional to the current h: sub-cell pairs see the local
    # slope of the interpolation error, long ones the accumulated drift
    scale_mix = rng.choice([0.25, 1.0, 2.0, 8.0], size=_AUDIT_PAIRS)

    levels: list[PipelineLevel] = []
    subdivisions = initial_subdivisions
    interp: PLInterpolant | None = None
    achieved = (math.inf, math.inf)
    while True:
        mesh = KuhnMesh(n=n, D=D, subdivisions=subdivisions)
        if mesh.vertex_count > _MAX_VERTICES:
            raise MeshBudgetError(achieved[0], achieved[1], mesh.vertex_count)
        h = mesh.h
        offsets, weights, _, stencil = bump_kernel(float(m), n, h)

        def M2(X: np.ndarray) -> np.ndarray:
            acc = np.zeros((X.shape[0], d_out))
            for off, w in zip(offsets, weights):
                acc += w * M1(X - off)
            return acc

        # free the previous level's vertex values before the next grid exists;
        # smoothing is in place, so grid_M1 becomes the vertex values
        interp = None
        grid_M1 = _chunked_mesh_eval(mesh, M1, d_out)
        interp = PLInterpolant(mesh=mesh,
                               values=_smooth_grid(grid_M1, mesh, stencil, M0),
                               outside_value=M0)
        del grid_M1

        dev_errs = norm(interp.eval_batch(dev_points) - M2(dev_points), 2.0)
        sup_err = float(np.max(dev_errs))
        sup_err_smooth = _upper_tail(dev_errs[dev_smooth])
        pairs, scales = _probe_pairs(anchor, directions, scale_mix,
                                     shell_anchor, shell_dirs, h, D)
        audit = lipschitz_audit(lambda X: interp.eval_batch(X) - M2(X), pairs)
        lip_excess = audit.measured
        # smooth pairs: both endpoints a kernel radius clear of each shell
        # and on the same side of it, so the segment cannot cross one;
        # only the within-cell pair scales measure the local error slope
        ak, bk = pairs[:, 0], pairs[:, 1]
        ra, rb = norm(ak, 2.0), norm(bk, 2.0)
        smooth_pair = (
            (_shell_distance(ak) > 1.0 / m)
            & (_shell_distance(bk) > 1.0 / m)
            & (np.sign(ra - R1) == np.sign(rb - R1))
            & (np.sign(ra - R_cut) == np.sign(rb - R_cut))
            & (scales <= 1.0)
        )
        levels.append(PipelineLevel(
            subdivisions=subdivisions, h=h,
            sup_err=sup_err, lip_excess=lip_excess,
            sup_err_smooth=sup_err_smooth,
            lip_excess_smooth=_upper_tail(audit.ratios[smooth_pair]),
        ))
        achieved = (sup_err, lip_excess)
        passed = sup_err <= eps / 2.0 and lip_excess <= delta / 2.0
        if passed and len(levels) >= min_levels:
            break
        subdivisions *= 2

    # rescale the finest values in place: interp is not used again, and a
    # scaled copy would hold a second mesh-sized array at the run's peak
    scale = gamma / (gamma + delta)
    final = PLInterpolant(
        mesh=interp.mesh,
        values=np.multiply(interp.values, scale, out=interp.values),
        outside_value=interp.outside_value * scale,
    )

    sup_dev_on_S = float(
        np.max(norm(final.eval_batch(S_points) - M(S_points), 2.0))
    )
    return PipelineResult(
        interpolant=final,
        gamma=gamma,
        delta=delta,
        eps=eps,
        m=m,
        D=D,
        rank=final.rank_bound,
        sup_dev_on_S=sup_dev_on_S,
        lip_measured=pl_lipschitz(final),
        levels=tuple(levels),
    )
