import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import widthlab.demos as demos
from widthlab.demos import pipeline_budget
from widthlab.extend import lipschitz_audit, sample_pairs
import widthlab.interp as interp
import widthlab.spaces as spaces
from widthlab.interp import (
    UNIT_SPACING,
    _BLOCK_STENCILS,
    _next_fast_len,
    _smooth_grid,
    KuhnMesh,
    MeshBudgetError,
    PLInterpolant,
    RadialCutoff,
    bump_kernel,
    cutoff_eval,
    cutoff_image_radius,
    finite_rank_pipeline,
    kernel_scale,
    pl_eval_batch,
    pl_lipschitz,
)


def test_cutoff_known_values():
    cut = RadialCutoff(R1=1.0, lam=1.0)
    inside = np.array([[0.3, -0.2]])
    assert np.array_equal(cutoff_eval(cut, inside), inside)
    assert cutoff_eval(cut, np.array([[1.5, 0.0]])) == pytest.approx(
        np.array([[0.75, 0.0]]), abs=1e-12)
    assert np.array_equal(cutoff_eval(cut, np.array([[3.0, 0.0]])), np.zeros((1, 2)))


def test_cutoff_batch_matches_single():
    cut = RadialCutoff(R1=0.5, lam=2.0)
    X = np.random.default_rng(0).standard_normal((20, 3))
    batch = cutoff_eval(cut, X)
    for i in range(len(X)):
        assert np.array_equal(cutoff_eval(cut, X[i:i + 1]), batch[i:i + 1])


def test_cutoff_image_radius_known_values():
    # profile r (1 - lam (r - R1)) peaks at (1 + lam R1)^2 / (4 lam)
    assert cutoff_image_radius(1.0, 1.0) == pytest.approx(1.0)
    assert cutoff_image_radius(1.0, 0.5) == pytest.approx(1.125)
    assert cutoff_image_radius(1.0, 4.0) == pytest.approx(1.0)


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_cutoff_image_stays_inside_reported_radius(seed):
    rng = np.random.default_rng(seed)
    R1, lam = float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 3.0))
    cut = RadialCutoff(R1=R1, lam=lam)
    X = rng.standard_normal((200, 2)) * 3.0
    out_norms = np.linalg.norm(cutoff_eval(cut, X), axis=1)
    assert float(np.max(out_norms)) <= cutoff_image_radius(R1, lam) + 1e-9


@pytest.mark.parametrize("R1,lam", [(1.0, 1.0), (0.5, 2.0), (2.0, 0.25)])
def test_cutoff_lipschitz_budget_audited(R1, lam):
    cut = RadialCutoff(R1=R1, lam=lam)
    anchors = np.random.default_rng(17).standard_normal((60, 2)) * (R1 + 1.0)
    pairs = sample_pairs(anchors, 10_000, seed=17)
    pairs += 0.5 * R1 * np.random.default_rng(18).standard_normal(pairs.shape)
    ratios = lipschitz_audit(lambda X: cutoff_eval(cut, X), pairs)
    assert np.max(ratios) <= 1.0 + lam * R1 + 1e-6


def kuhn_simplices(mesh: KuhnMesh):
    """Yield each simplex as an (n+1, n) array of vertex multi-indices.

    Enumeration is per subcube, per coordinate ordering; for tiny meshes
    only (count grows as subdivisions^n * n!).
    """
    n = mesh.n
    for corner in itertools.product(range(mesh.subdivisions), repeat=n):
        for perm in itertools.permutations(range(n)):
            chain = np.empty((n + 1, n), dtype=int)
            chain[0] = corner
            for step, axis in enumerate(perm, start=1):
                chain[step] = chain[step - 1]
                chain[step, axis] += 1
            yield chain


def test_kuhn_mesh_counts_oracle():
    mesh = KuhnMesh(2, 1.0, 2)
    assert mesh.points_per_axis == 3
    assert mesh.vertex_count == 9
    assert mesh.h == pytest.approx(1.0)
    simplices = list(kuhn_simplices(mesh))
    assert len(simplices) == 8  # 4 cells x 2! simplices


@pytest.mark.parametrize("n", [0, 3, 4])
def test_kuhn_mesh_refuses_dimensions_the_pipeline_does_not_support(n):
    with pytest.raises(ValueError, match=f"must be 1 or 2, got {n}$"):
        KuhnMesh(n, 1.0, 2)


@pytest.mark.parametrize("n,subdiv", [(1, 4), (2, 3)])
def test_kuhn_mesh_tiles_the_cube(n, subdiv):
    D = 0.8
    mesh = KuhnMesh(n, D, subdiv)
    assert mesh.vertex_count == (subdiv + 1) ** n
    total = 0.0
    for simplex in kuhn_simplices(mesh):
        verts = -D + mesh.h * np.asarray(simplex, dtype=float)
        edges = verts[1:] - verts[0]
        total += abs(np.linalg.det(edges)) / math.factorial(n)
    assert total == pytest.approx((2.0 * D) ** n, rel=1e-12)


def axis_coordinates(mesh: KuhnMesh) -> np.ndarray:
    """The vertex coordinates along each axis."""
    return -mesh.D + mesh.h * np.arange(mesh.points_per_axis)


def grid_points(mesh: KuhnMesh) -> np.ndarray:
    """Mesh vertices, row-major."""
    axes = [axis_coordinates(mesh) for _ in range(mesh.n)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def grid_values(mesh: KuhnMesh, fn, d_out: int) -> np.ndarray:
    pts = grid_points(mesh)
    return np.asarray([fn(p) for p in pts], dtype=float).reshape(-1, d_out)


def test_pl_reproduces_vertex_values_and_affine_maps():
    mesh = KuhnMesh(2, 1.0, 3)
    A = np.array([[0.5, -1.0], [2.0, 0.25], [0.0, 1.0]])
    b = np.array([0.1, -0.2, 0.3])
    affine = lambda x: A @ x + b
    f = PLInterpolant(mesh=mesh, values=grid_values(mesh, affine, 3),
                      outside_value=np.zeros(3))
    axes = axis_coordinates(mesh)
    for x0 in axes:
        for x1 in axes:
            v = np.array([x0, x1])
            assert pl_eval_batch(f, v[None])[0] == pytest.approx(affine(v), abs=1e-12)
    rng = np.random.default_rng(1)
    for x in rng.uniform(-1.0, 1.0, size=(50, 2)):
        assert pl_eval_batch(f, x[None])[0] == pytest.approx(affine(x), abs=1e-12)


def test_pl_outside_value_and_batch_consistency():
    mesh = KuhnMesh(2, 1.0, 2)
    f = PLInterpolant(mesh=mesh, values=grid_values(mesh, lambda x: x, 2),
                      outside_value=np.array([9.0, 9.0]))
    assert np.array_equal(pl_eval_batch(f, np.array([[1.5, 0.0]])), [[9.0, 9.0]])
    with pytest.raises(ValueError):
        pl_eval_batch(f, np.array([1.5, 0.0]))  # one point is a one-row batch
    X = np.random.default_rng(2).uniform(-1.4, 1.4, size=(40, 2))
    batch = pl_eval_batch(f, X)
    for i in range(len(X)):
        assert np.array_equal(pl_eval_batch(f, X[i:i + 1]), batch[i:i + 1])


def test_pl_rank_bound_counts_interior_vertices():
    mesh = KuhnMesh(2, 1.0, 4)
    f = PLInterpolant(mesh=mesh, values=grid_values(mesh, lambda x: x, 2),
                      outside_value=np.zeros(2))
    assert f.rank_bound == mesh.vertex_count + 1


def test_pl_eval_refuses_nan_rows_and_sends_infinite_ones_outside():
    mesh = KuhnMesh(2, 1.0, 2)
    f = PLInterpolant(mesh=mesh, values=grid_values(mesh, lambda x: x, 2),
                      outside_value=np.array([9.0, 9.0]))
    with pytest.raises(ValueError, match="row 1"):
        pl_eval_batch(f, np.array([[0.1, 0.2], [np.nan, 0.0], [0.0, np.nan]]))
    far = np.array([[np.inf, 0.0], [0.0, -np.inf]])
    assert np.array_equal(pl_eval_batch(f, far), [[9.0, 9.0], [9.0, 9.0]])


def simplex_jacobian_norms(f: PLInterpolant):
    """Spectral norm of f's Jacobian on each Kuhn simplex, one at a time."""
    mesh = f.mesh
    for chain in kuhn_simplices(mesh):
        vals = f.values[chain @ mesh.vertex_strides()]
        yield np.linalg.norm(np.diff(vals, axis=0).T / mesh.h, 2)


def in_cube_pairs(mesh: KuhnMesh, count: int, seed: int) -> np.ndarray:
    """(count, 2, n) pairs in the closed cube, from a quarter cell to 64 cells long."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-mesh.D, mesh.D, size=(count, mesh.n))
    step = rng.standard_normal((count, mesh.n))
    step *= mesh.h * rng.choice([0.25, 1.0, 8.0, 64.0], size=(count, 1)) / \
        np.linalg.norm(step, axis=1, keepdims=True)
    b = np.clip(a + step, -mesh.D, mesh.D)
    keep = np.any(a != b, axis=1)
    return np.stack([a[keep], b[keep]], axis=1)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("n,subdiv", [(1, 4), (2, 3)])
def test_pl_lipschitz_is_the_largest_simplex_jacobian_norm(n, subdiv, d,
                                                          monkeypatch):
    mesh = KuhnMesh(n, 0.8, subdiv)
    rng = np.random.default_rng(10 * n + d)
    f = PLInterpolant(mesh=mesh,
                      values=rng.standard_normal((mesh.vertex_count, d)),
                      outside_value=np.zeros(d))
    exact = pl_lipschitz(f)
    assert exact == pytest.approx(max(simplex_jacobian_norms(f)), rel=1e-12)
    # sampled pairs in the closed cube only bound it from below
    ratios = lipschitz_audit(f.eval_batch, in_cube_pairs(mesh, 4000, n))
    assert np.max(ratios) <= exact * (1.0 + 1e-9)
    # one plane of cells per block
    monkeypatch.setattr(spaces, "_BLOCK_ELEMENTS", 1)
    assert pl_lipschitz(f) == exact


def test_pl_continuous_across_shared_faces():
    mesh = KuhnMesh(2, 1.0, 4)
    wavy = lambda x: np.array([math.sin(3.0 * x[0]) * math.cos(2.0 * x[1])])
    f = PLInterpolant(mesh=mesh, values=grid_values(mesh, wavy, 1),
                      outside_value=np.zeros(1))
    rng = np.random.default_rng(3)
    axes = axis_coordinates(mesh)
    delta = 1e-12
    for _ in range(200):
        # a random point on a random interior grid plane, approached from
        # both sides along the plane normal
        axis = int(rng.integers(2))
        plane = float(axes[int(rng.integers(1, len(axes) - 1))])
        x = rng.uniform(-1.0 + 1e-6, 1.0 - 1e-6, size=2)
        x[axis] = plane
        step = np.zeros(2)
        step[axis] = delta
        left = pl_eval_batch(f, (x - step)[None])
        right = pl_eval_batch(f, (x + step)[None])
        assert float(np.max(np.abs(left - right))) <= 1e-10


def test_bump_kernel_normalization_and_moment():
    for m in (2.0, 8.0):
        for n in (1, 2):
            offsets, weights, moment, stencil = bump_kernel(m, n, 1.0 / (4.0 * m))
            # taps at |offset| < 1/m: three cells a side
            assert stencil.shape == (7,) * n
            assert np.array_equal(np.sort(stencil[stencil > 0]), np.sort(weights))
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.linalg.norm(offsets, axis=1) <= 1.0 / m + 1e-12)
            assert moment == pytest.approx(
                float(np.sum(weights * np.linalg.norm(offsets, axis=1))),
                abs=1e-15)
            assert 0.0 < moment <= 1.0 / m


@pytest.mark.parametrize("gamma,delta,eps,n", [
    (1.0, 0.04, 0.02, 1), (2.3, 0.1, 0.01, 2), (0.5, 0.02, 3.0, 3),
])
def test_kernel_scale_is_the_coarsest_kernel_within_half_eps(gamma, delta, eps, n):
    # the mollification change (gamma + delta/2) * moment must fit eps/2 at
    # scale 1/m; the reference kernel's moment shrinks as 1/m
    unit_moment = bump_kernel(1.0, n, UNIT_SPACING)[2]
    m = kernel_scale(gamma, delta, eps, n)
    assert (gamma + delta / 2.0) * unit_moment / m <= eps / 2.0
    if m > 1:
        assert (gamma + delta / 2.0) * unit_moment / (m - 1) > eps / 2.0


@pytest.mark.parametrize("n", [1, 2])
def test_smooth_grid_preserves_constants_and_respects_the_moment_bound(n):
    # spacing 1/64 = 1/(4m) for m = 16; the input is a 1-Lipschitz plateau
    # that takes the base value within one kernel radius of every face, as
    # the pipeline's cut-off maps do
    m, base, top = 16.0, 3.7, 0.6
    mesh = KuhnMesh(n, 2.0, 256)
    _, _, moment, stencil = bump_kernel(m, n, mesh.h)
    assert stencil.size > 1
    r = np.linalg.norm(grid_points(mesh), axis=1)
    values = (base + np.clip(1.5 - r, 0.0, top))[:, None]
    smoothed = _smooth_grid(values.copy(), mesh, stencil, np.array([base]))
    plateau = r <= 1.5 - top - 1.0 / m
    outside = r >= 1.5 + 1.0 / m
    assert plateau.any() and outside.any()
    assert smoothed[plateau] == pytest.approx(values[plateau], abs=1e-12)
    assert smoothed[outside] == pytest.approx(values[outside], abs=1e-12)
    # smoothing a 1-Lipschitz map moves values at most by the first moment
    assert float(np.max(np.abs(smoothed - values))) <= moment + 1e-12


def test_next_fast_len_equals_scipy_up_to_2_17():
    from scipy.fft import next_fast_len

    targets = range(1, 2**17 + 1)
    expected = [next_fast_len(t, True) for t in targets]
    assert [_next_fast_len(t) for t in targets] == expected


@pytest.mark.parametrize("n", [1, 2])
def test_smooth_grid_with_a_single_tap_keeps_the_values(n):
    mesh = KuhnMesh(n, 1.0, 6)
    _, _, _, stencil = bump_kernel(1.0 / (0.5 * mesh.h), n, mesh.h)
    assert stencil.size == 1
    values = np.random.default_rng(n).standard_normal((mesh.vertex_count, 3))
    kept = values.copy()
    smoothed = _smooth_grid(values, mesh, stencil, np.array([0.5, -1.0, 2.0]))
    assert np.array_equal(smoothed, kept)


def shifted_sum_convolution(x: np.ndarray, stencil: np.ndarray) -> np.ndarray:
    """Same-mode convolution as a sum of shifted copies of the zero-padded x."""
    L = stencil.shape[0]
    c = (L - 1) // 2
    padded = np.pad(x, [(L - 1 - c, c)] * x.ndim)
    out = np.zeros_like(x)
    for k in itertools.product(range(L), repeat=x.ndim):
        window = tuple(slice(L - 1 - j, L - 1 - j + s) for j, s in zip(k, x.shape))
        out += stencil[k] * padded[window]
    return out


def convolution_tolerance(values: np.ndarray, base: np.ndarray,
                          stencil: np.ndarray, P: int) -> float:
    """Rounding bound between the smoothed grid and the shifted sum.

    The stencil's weights are nonnegative and sum to 1, so each output is a
    convex combination of the base-shifted samples x.  The shifted sum of
    stencil.size terms is off by at most stencil.size u max|x|.  A forward
    and an inverse transform of length F, with the product between them,
    are off by about 16 u log2(F) max|x| along each axis (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., section 24.1).  F is
    taken at the mesh length P + L - 1, which bounds the block transforms
    of a grid of several blocks; a grid of one block is transformed at a
    longer F, so the bound is the stricter there.  Restoring base rounds
    once more.
    """
    from scipy.fft import next_fast_len

    u = np.finfo(float).eps / 2.0
    F = next_fast_len(P + stencil.shape[0] - 1, True)
    shifted = float(np.max(np.abs(values - base)))
    terms = stencil.size + 16.0 * stencil.ndim * math.log2(F)
    return u * (terms * shifted + 2.0 * float(np.max(np.abs(values))))


def check_against_shifted_sum(n: int, subdivisions: int, radius_cells: float,
                              d: int = 3):
    mesh = KuhnMesh(n, 1.0, subdivisions)
    _, _, _, stencil = bump_kernel(1.0 / (radius_cells * mesh.h), n, mesh.h)
    rng = np.random.default_rng(10 * n + subdivisions)
    base = rng.uniform(-2.0, 2.0, size=d)
    values = base + rng.standard_normal((mesh.vertex_count, d))
    shape = (mesh.points_per_axis,) * n
    expected = np.stack([
        (shifted_sum_convolution(values[:, c].reshape(shape) - base[c], stencil)
         + base[c]).ravel()
        for c in range(d)
    ], axis=1)
    tol = convolution_tolerance(values, base, stencil, mesh.points_per_axis)
    smoothed = _smooth_grid(values, mesh, stencil, base)
    assert smoothed is values  # smoothed in place
    assert float(np.max(np.abs(smoothed - expected))) <= tol
    return mesh, stencil


def block_length(stencil: np.ndarray) -> int:
    """Rows per overlap-add block of the first grid axis."""
    from scipy.fft import next_fast_len

    L = stencil.shape[0]
    return next_fast_len(_BLOCK_STENCILS * L, True) - L + 1


@pytest.mark.parametrize("n,subdivisions", [
    (1, 40), (1, 41), (2, 20), (2, 21),
])
@pytest.mark.parametrize("d", [1, 3])
def test_smooth_grid_in_one_block_equals_the_shifted_sum(n, subdivisions, d):
    # every axis fits one overlap-add block, so the first axis is padded
    # to the block transform like the others are padded to theirs
    mesh, stencil = check_against_shifted_sum(n, subdivisions, 3.5, d)
    assert stencil.shape == (7,) * n
    assert mesh.points_per_axis <= block_length(stencil)


@pytest.mark.parametrize("n,subdivisions,one_block", [
    (1, 40, True), (1, 199, False), (2, 20, True), (2, 149, False),
])
def test_smooth_grid_transforms_every_grid_at_the_block_length(
        n, subdivisions, one_block, monkeypatch):
    # one-block and several-block grids alike take their first-axis
    # transforms at next_fast_len(_BLOCK_STENCILS * L), whatever P is
    mesh = KuhnMesh(n, 1.0, subdivisions)
    _, _, _, stencil = bump_kernel(1.0 / (3.5 * mesh.h), n, mesh.h)
    L = stencil.shape[0]
    shapes = []
    rfftn = np.fft.rfftn

    def recording_rfftn(x, s, axes):
        shapes.append((x.shape, tuple(s), tuple(axes)))
        return rfftn(x, s, axes=axes)

    monkeypatch.setattr(np.fft, "rfftn", recording_rfftn)
    values = np.random.default_rng(n).standard_normal((mesh.vertex_count, 2))
    _smooth_grid(values, mesh, stencil, np.zeros(2))
    B = block_length(stencil)
    assert (mesh.points_per_axis <= B) == one_block
    # the stencil over its own axes, then batches of blocks of each component
    (first, *batches) = shapes
    assert first[0] == stencil.shape and first[2] == tuple(range(n))
    assert batches and all(axes == tuple(range(1, n + 1)) for _, _, axes in batches)
    F = _next_fast_len(_BLOCK_STENCILS * L)
    assert all(fshape[0] == F for _, fshape, _ in shapes)
    blocks = sum(x_shape[0] for x_shape, _, _ in batches)
    assert blocks == 2 * -(-mesh.points_per_axis // B)


@pytest.mark.parametrize("subdivisions,radius_cells,one_block_per_batch", [
    (199, 3.5, False), (1000, 3.5, False), (4999, 20.5, False),
    (200_000, 3.5, False),
    (199, 3.5, True), (1000, 3.5, True), (4999, 20.5, True),
])
def test_smooth_grid_over_several_blocks_equals_the_shifted_sum(
        subdivisions, radius_cells, one_block_per_batch, monkeypatch):
    # P is not a multiple of B; 200,001 points take several batches of
    # blocks at the default batch size, and a one-sample budget puts every
    # block in a batch of its own
    if one_block_per_batch:
        monkeypatch.setattr(spaces, "_BLOCK_ELEMENTS", 1)
    mesh, stencil = check_against_shifted_sum(1, subdivisions, radius_cells)
    B = block_length(stencil)
    assert mesh.points_per_axis > 2 * B and mesh.points_per_axis % B != 0


@pytest.mark.parametrize("one_block_per_batch", [False, True])
def test_smooth_grid_over_several_blocks_of_a_plane_equals_the_shifted_sum(
        one_block_per_batch, monkeypatch):
    if one_block_per_batch:
        monkeypatch.setattr(spaces, "_BLOCK_ELEMENTS", 1)
    mesh, stencil = check_against_shifted_sum(2, 149, 3.5)
    assert mesh.points_per_axis > 2 * block_length(stencil)


@pytest.mark.parametrize("n,subdivisions", [(1, 1), (1, 4), (1, 9), (2, 4)])
def test_smooth_grid_shorter_than_its_stencil_equals_the_shifted_sum(n, subdivisions):
    # P < L: the kernel reaches past both faces from every vertex
    mesh, stencil = check_against_shifted_sum(n, subdivisions, 6.5)
    assert mesh.points_per_axis < stencil.shape[0]


def test_smooth_grid_temporaries_stay_below_one_grid_component():
    # the default finest level convolves 3.5M vertices with 295 taps; at
    # 2^20 vertices with the same stencil, the smoothing temporaries must
    # stay below the bytes of one component, whatever the grid length
    mesh = KuhnMesh(1, 1.0, 2**20 - 1)
    _, _, _, stencil = bump_kernel(1.0 / (147.5 * mesh.h), 1, mesh.h)
    assert stencil.shape == (295,)
    values = np.random.default_rng(0).standard_normal((mesh.vertex_count, 3))
    # import numpy.fft and run its first transforms before tracing
    _smooth_grid(values[:2 * 4096].copy(), KuhnMesh(1, 1.0, 2 * 4096 - 1),
                 stencil, np.zeros(3))
    tracemalloc.start()
    try:
        _smooth_grid(values, mesh, stencil, np.zeros(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < values[:, 0].nbytes


@pytest.mark.parametrize("budget", [1, 7, spaces._BLOCK_ELEMENTS])
@pytest.mark.parametrize("n,subdivisions", [(1, 9), (2, 5)])
def test_chunked_mesh_eval_equals_the_meshgrid_evaluation(n, subdivisions, budget,
                                                          monkeypatch):
    # blocks of 1 and 7 rows end mid-plane; the default budget is one block
    mesh = KuhnMesh(n, 0.7, subdivisions)

    def fn(X):
        return np.concatenate([X, np.sin(3.0 * X[:, :1]) * np.cos(X[:, -1:])], axis=1)

    rows = []

    def recorded(X):
        rows.append(X.shape[0])
        return fn(X)

    monkeypatch.setattr(spaces, "_BLOCK_ELEMENTS", budget)
    out = interp._chunked_mesh_eval(mesh, recorded, n + 1)
    assert np.array_equal(out, fn(grid_points(mesh)))
    assert sum(rows) == mesh.vertex_count and max(rows) <= budget


def test_chunked_mesh_eval_temporaries_stay_below_one_value_component():
    # no array but the vertex values may grow with the mesh: 2^20 vertices
    # of a 1-d mesh, three components of 8 MB each
    mesh = KuhnMesh(1, 1.0, 2**20 - 1)
    interp._chunked_mesh_eval(KuhnMesh(1, 1.0, 15), demos._scalar_wave, 3)
    tracemalloc.start()
    try:
        out = interp._chunked_mesh_eval(mesh, demos._scalar_wave, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes < out[:, 0].nbytes


def test_smooth_grid_refuses_a_strided_grid():
    # smoothing writes through a reshaped view, which a strided array lacks
    mesh = KuhnMesh(1, 1.0, 40)
    _, _, _, stencil = bump_kernel(1.0 / (3.5 * mesh.h), 1, mesh.h)
    values = np.zeros((mesh.vertex_count, 4))[:, ::2]
    with pytest.raises(ValueError, match="C-contiguous"):
        _smooth_grid(values, mesh, stencil, np.zeros(2))


def linear_demo(X):
    return np.stack([0.5 * X[:, 0], -0.25 * X[:, 0]], axis=1)


def unit_wave(X):
    return np.stack([np.sin(X[:, 0]), np.cos(X[:, 0])], axis=1)


def test_pipeline_linear_map_is_reproduced_cheaply():
    # delta sized so the final rescale penalty delta/(gamma+delta) * max|M|
    # stays well inside the eps budget
    S = np.linspace(-0.5, 0.5, 41)[:, None]
    result = finite_rank_pipeline(
        linear_demo, S, gamma=0.7, eps=0.02, delta=0.04,
        seed=0, initial_subdivisions=8, min_levels=1,
    )
    assert result.sup_dev_on_S <= 0.02
    assert result.lip_measured <= 0.7
    assert result.rank >= 1
    assert result.levels[-1].subdivisions >= 8


def test_pipeline_refuses_a_constant_above_gamma():
    # the wave is three times the size its gamma admits; the refusal reads
    # the interpolant's exact constant, not a sample of M
    S = np.linspace(-0.4, 0.4, 33)[:, None]
    with pytest.raises(ValueError, match=r"^the interpolant's exact constant "
                                         r"2\.92\d* exceeds gamma 1\.1$"):
        finite_rank_pipeline(
            lambda X: 3.0 * unit_wave(X), S, gamma=1.1, eps=0.05, delta=0.045,
            seed=0, initial_subdivisions=8, min_levels=1,
        )


def test_pipeline_refuses_a_deviation_above_eps():
    # at delta = 0.5 the final rescale moves the map by 0.5 / 1.2 of its
    # size on S, past eps, though every level audit passes
    S = np.linspace(-0.5, 0.5, 41)[:, None]
    with pytest.raises(ValueError, match=r"^the deviation on S 0\.117\d* "
                                         r"exceeds eps 0\.02$"):
        finite_rank_pipeline(
            linear_demo, S, gamma=0.7, eps=0.02, delta=0.5,
            seed=0, initial_subdivisions=8, min_levels=1,
        )


@pytest.mark.parametrize("S", [np.zeros((4, 3)), np.zeros((4, 0)), np.zeros(4)],
                         ids=["three-columns", "no-column", "one-d"])
def test_pipeline_refuses_domains_the_mesh_does_not_support(S):
    with pytest.raises(ValueError, match="^pipeline supports domain dimension 1 or 2$"):
        finite_rank_pipeline(
            linear_demo, S, gamma=0.7, eps=0.02, delta=0.04,
            seed=0, initial_subdivisions=8, min_levels=1,
        )


def test_pipeline_halves_the_mesh_and_reports_levels():
    S = np.linspace(-0.4, 0.4, 33)[:, None]
    result = finite_rank_pipeline(
        unit_wave, S, gamma=1.1, eps=0.05, delta=0.045,
        seed=1, initial_subdivisions=8, min_levels=3,
    )
    subdivisions = [lvl.subdivisions for lvl in result.levels]
    assert len(subdivisions) >= 3
    assert all(b == 2 * a for a, b in zip(subdivisions, subdivisions[1:]))
    hs = [lvl.h for lvl in result.levels]
    assert all(b == pytest.approx(a / 2.0) for a, b in zip(hs, hs[1:]))
    assert result.sup_dev_on_S <= 0.05
    assert result.lip_measured <= 1.1


def test_pipeline_reports_the_exact_constant_at_every_seed():
    S = np.linspace(-0.4, 0.4, 33)[:, None]
    results = [
        finite_rank_pipeline(
            unit_wave, S, gamma=1.1, eps=0.05, delta=0.045,
            seed=seed, initial_subdivisions=8, min_levels=3,
        )
        for seed in (0, 1)
    ]
    assert results[0].lip_measured == results[1].lip_measured
    final = results[1].interpolant
    assert results[1].lip_measured == pl_lipschitz(final)
    # a sampled audit in the cube may read above it by rounding only
    ratios = lipschitz_audit(final.eval_batch, in_cube_pairs(final.mesh, 4000, 1))
    assert np.max(ratios) <= results[1].lip_measured * (1.0 + 1e-9)


def test_pipeline_smooth_audit_slope_is_quadratic():
    # single-frequency wave, unit budget: halving h divides the smooth
    # sup deviation by about four (slope 2 on a log-log fit)
    S = np.linspace(-0.45, 0.45, 61)[:, None]
    result = finite_rank_pipeline(
        unit_wave, S, gamma=1.12, eps=0.05, delta=0.04,
        seed=0, initial_subdivisions=16, min_levels=4,
    )
    tail = result.levels[-4:]
    log_h = np.log([lvl.h for lvl in tail])
    log_err = np.log([lvl.sup_err_smooth for lvl in tail])
    slope = float(np.polyfit(log_h, log_err, 1)[0])
    assert slope == pytest.approx(2.0, abs=0.3)


def test_pipeline_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(interp, "_MAX_VERTICES", 64)
    S = np.linspace(-0.4, 0.4, 9)[:, None]
    fast_wave = lambda X: np.sin(4.0 * X[:, :1])
    with pytest.raises(MeshBudgetError) as info:
        finite_rank_pipeline(
            fast_wave, S, gamma=4.2, eps=1e-4, delta=0.05,
            seed=0, initial_subdivisions=4, min_levels=1,
        )
    assert info.value.achieved_dev > 0
    assert info.value.vertices > 64


@pytest.mark.parametrize("name, eps, min_levels, initial", [
    ("scalar-wave", 0.01, 4, 441723),
    ("scalar-wave", 0.003, 4, 16399570),
    ("plane-wave", 0.01, 4, 139),
    ("plane-wave", 0.02, 2, 68),
])
def test_pipeline_budget_holds_only_what_the_caller_lacks(name, eps, min_levels,
                                                          initial):
    # the plan is set by the cutoff-shell mesh scale alone; the caller
    # already holds the map, eps and min_levels
    budget = pipeline_budget(name, eps, min_levels=min_levels)
    assert [f.name for f in dataclasses.fields(budget)] == [
        "S_points", "gamma", "delta", "initial_subdivisions"]
    assert budget.initial_subdivisions == initial


@pytest.mark.parametrize("eps, min_levels, message", [
    (0.0, 4, "eps must be positive and finite"),
    (-0.01, 4, "eps must be positive and finite"),
    (math.nan, 4, "eps must be positive and finite"),
    (0.01, 0, "min_levels must be at least 1"),
])
def test_pipeline_budget_refuses_bad_settings(eps, min_levels, message):
    with pytest.raises(ValueError, match=message):
        pipeline_budget("scalar-wave", eps, min_levels=min_levels)
