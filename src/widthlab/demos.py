"""Reference maps and budget planning for the finite-rank pipeline.

Two smooth maps with closed-form Lipschitz and curvature bounds serve as
fixtures for the pipeline experiments: a scalar-input wave into R^3 whose
constant does not depend on the domain size, and a planar map whose
constant grows with the radius the cutoff can reach.  pipeline_budget
converts a target accuracy into consistent (gamma, delta, mesh) settings
without trial and error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .interp import UNIT_SPACING, bump_kernel, cutoff_image_radius, kernel_scale

__all__ = ["DemoMap", "PipelineBudget", "DEMOS", "pipeline_budget"]


@dataclass(frozen=True)
class DemoMap:
    """A batch-evaluable smooth map with certified derivative bounds.

    gamma_of_radius(rho) bounds the Lipschitz constant on the l_2 ball of
    radius rho; d2_bound bounds the second-derivative norm, which drives
    both the interpolation error (quadratic in mesh size) and the audited
    Lipschitz excess (linear in mesh size).
    """

    name: str
    domain_dim: int
    target_dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    gamma_of_radius: Callable[[float], float]
    d2_bound: float
    S_halfwidth: float


def _scalar_wave(X: np.ndarray) -> np.ndarray:
    x = X[:, 0]
    return np.stack([np.sin(x), np.cos(x), np.sin(2.0 * x)], axis=1)


def _plane_wave(X: np.ndarray) -> np.ndarray:
    return np.stack(
        [np.sin(X[:, 0]) * np.cos(X[:, 1]), X[:, 0] * X[:, 1] / 4.0], axis=1
    )


# The halfwidths are sized so that the mesh can resolve the mollified cutoff
# shells within a desk-scale vertex budget: the rescale penalty fixes
# delta/gamma ~ eps/max|M|, and the shell curvature ~ gamma*m forces
# h ~ delta/(gamma*m), so a larger domain (larger max|M| or longer cutoff
# ramp) quickly pushes the required mesh past memory.
DEMOS = {
    # rows of the Jacobian: (cos x, -sin x, 2 cos 2x); norm <= sqrt(5) everywhere
    "scalar-wave": DemoMap(
        name="scalar-wave",
        domain_dim=1,
        target_dim=3,
        fn=_scalar_wave,
        gamma_of_radius=lambda rho: math.sqrt(5.0),
        d2_bound=4.25,
        S_halfwidth=0.3,
    ),
    # Jacobian rows (cos x1 cos x2, -sin x1 sin x2) and (x2, x1)/4; the second
    # row's norm is ||x||/4, so the constant grows with the reachable radius
    "plane-wave": DemoMap(
        name="plane-wave",
        domain_dim=2,
        target_dim=2,
        fn=_plane_wave,
        gamma_of_radius=lambda rho: math.sqrt(1.0 + rho**2 / 16.0),
        d2_bound=2.2,
        S_halfwidth=0.05,
    ),
}


# share of eps the final rescale may spend, and the safety factors on the
# Lipschitz-excess and shell mesh scales
PENALTY_FRAC = 0.85
AUDIT_SAFETY = 1.05
SHELL_SAFETY = 0.75


@dataclass(frozen=True)
class PipelineBudget:
    """Consistent pipeline settings for one demo map at one accuracy."""

    demo: DemoMap
    S_points: np.ndarray
    gamma: float
    delta: float
    eps: float
    initial_subdivisions: int
    min_levels: int


def pipeline_budget(name: str, eps: float, min_levels: int = 4) -> PipelineBudget:
    """Plan gamma, delta and the mesh schedule for a demo map.

    The final rescale costs delta / (gamma + delta) times the largest value
    on S; PENALTY_FRAC says how much of eps that rescale may spend.  That
    fixes delta / gamma, hence the cutoff slope, the reachable radius, and
    gamma itself, with no fixed-point iteration.  The mesh target is the
    smallest of three scales: interpolation error ~ h^2 d2 / 8, smooth-region
    Lipschitz excess ~ h d2, and the shell term.  The shell term almost
    always binds: mollifying the cutoff's derivative breaks concentrates
    curvature ~ break * m * peak in shells of width 2/m, and the mesh must
    resolve those shells before the audited excess can drop below delta/2.
    The initial mesh is chosen so min_levels halvings land on the target.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if min_levels < 1:
        raise ValueError(f"min_levels must be at least 1, got {min_levels}")
    demo = DEMOS[name]
    n = demo.domain_dim
    a = demo.S_halfwidth
    # S is a grid on the cube of half-width a: 201 points per axis in 1-d, 41 in 2-d
    axis = np.linspace(-a, a, 201 if n == 1 else 41)
    grids = np.meshgrid(*([axis] * n), indexing="ij")
    S = np.stack([g.ravel() for g in grids], axis=1)

    B = float(np.max(np.linalg.norm(demo.fn(S), axis=1)))
    q = PENALTY_FRAC * eps / B
    if q >= 0.5:
        raise ValueError("accuracy budget too loose for this map: shrink eps")
    ratio = q / (1.0 - q)  # delta / gamma
    R1 = a * math.sqrt(n)
    lam = ratio / (2.0 * R1)
    rho = cutoff_image_radius(R1, lam)
    gamma = demo.gamma_of_radius(rho)
    delta = gamma * ratio

    h_excess = AUDIT_SAFETY * delta / demo.d2_bound
    h_sup = math.sqrt(8.0 * (eps / 2.0) / demo.d2_bound)
    m = kernel_scale(gamma, delta, eps, n)
    offsets_u, weights_u, _, _ = bump_kernel(1.0, n, UNIT_SPACING)
    # peak of the kernel's 1-d marginal; a derivative break of size `jump`
    # mollifies to a shell with curvature jump * m * peak
    spacing_u = float(np.min(np.diff(np.unique(offsets_u[:, 0]))))
    on_axis = np.abs(offsets_u[:, 0]) < spacing_u / 2.0
    peak = float(np.sum(weights_u[on_axis])) / spacing_u
    jump = gamma * (1.0 + lam * R1)
    h_shell = SHELL_SAFETY * delta / (jump * m * peak)
    h_target = min(h_excess, h_sup, h_shell)
    D = R1 + 1.0 / lam + 1.0 / m
    final_subdivisions = math.ceil(2.0 * D / h_target)
    initial = max(8, math.ceil(final_subdivisions / 2 ** (min_levels - 1)))
    return PipelineBudget(
        demo=demo,
        S_points=S,
        gamma=gamma,
        delta=delta,
        eps=eps,
        initial_subdivisions=initial,
        min_levels=min_levels,
    )
