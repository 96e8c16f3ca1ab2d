import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import widthlab.spaces as spaces
from widthlab.spaces import (
    AlphaSequence,
    FiniteNormedSpace,
    ModelClassSurrogate,
    generate_Kq,
    generate_diag_class,
    generate_sparse_class,
    nearest_distances,
    norm,
    pairwise_distances,
)

P_VALUES = [1.0, 1.5, 2.0, 3.0, math.inf]

finite_vectors = st.integers(min_value=1, max_value=6).flatmap(
    lambda d: st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=d, max_size=d,
    )
)


def test_norm_known_values():
    assert norm(np.array([3.0, 4.0]), FiniteNormedSpace(2, 2.0)) == 5.0
    assert norm(np.array([3.0, -4.0]), FiniteNormedSpace(2, 1.0)) == 7.0
    assert norm(np.array([3.0, -4.0]), FiniteNormedSpace(2, math.inf)) == 4.0
    got = norm(np.array([1.0, 2.0]), FiniteNormedSpace(2, 3.0))
    assert got == pytest.approx(9.0 ** (1.0 / 3.0), abs=1e-12)


def test_norm_rejects_wrong_length():
    with pytest.raises(ValueError):
        norm(np.ones(3), FiniteNormedSpace(2, 2.0))


def test_space_validation():
    with pytest.raises(ValueError):
        FiniteNormedSpace(0, 2.0)
    with pytest.raises(ValueError):
        FiniteNormedSpace(3, 0.5)


@given(finite_vectors, st.floats(min_value=-10, max_value=10, allow_nan=False),
       st.sampled_from(P_VALUES))
def test_norm_absolute_homogeneity(vec, c, p):
    x = np.asarray(vec)
    space = FiniteNormedSpace(len(vec), p)
    lhs = norm(c * x, space)
    rhs = abs(c) * norm(x, space)
    assert lhs == pytest.approx(rhs, abs=1e-12 * (1.0 + rhs))


@given(finite_vectors, finite_vectors.filter(lambda v: len(v) > 0),
       st.sampled_from(P_VALUES))
def test_norm_triangle_inequality(vec_a, vec_b, p):
    d = min(len(vec_a), len(vec_b))
    x, y = np.asarray(vec_a[:d]), np.asarray(vec_b[:d])
    space = FiniteNormedSpace(d, p)
    assert norm(x + y, space) <= norm(x, space) + norm(y, space) + 1e-9


@given(finite_vectors)
def test_norm_holder_monotone_in_p(vec):
    x = np.asarray(vec)
    space_of = lambda p: FiniteNormedSpace(len(vec), p)
    norms = [norm(x, space_of(p)) for p in P_VALUES]
    for smaller, larger in zip(norms, norms[1:]):
        assert smaller >= larger - 1e-9 * (1.0 + smaller)


def test_pairwise_distances_matches_norm():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((7, 3))
    for p in P_VALUES:
        dist = pairwise_distances(pts, p)
        space = FiniteNormedSpace(3, p)
        for i in range(7):
            for j in range(7):
                assert dist[i, j] == pytest.approx(
                    float(norm(pts[i] - pts[j], space)), abs=1e-12)


def test_alpha_sequence_known_values():
    alpha = AlphaSequence(2.0)
    assert alpha.alpha(1) == 1.0
    assert alpha.alpha(2) == pytest.approx(0.5)
    assert alpha.alpha(4) == pytest.approx(1.0 / 3.0)
    # at j = 2^n the value is 1/(n+1) for r = 2
    for n in range(1, 9):
        assert alpha.alpha(2**n) == pytest.approx(1.0 / (n + 1), abs=1e-12)


@given(st.floats(min_value=0.25, max_value=4.0))
def test_alpha_sequence_strictly_decreasing(r):
    alpha = AlphaSequence(r)
    vals = alpha.alpha(np.arange(1, 200))
    assert np.all(np.diff(vals) < 0)
    assert np.all(vals > 0)


def test_alpha_sequence_rejects_bad_args():
    with pytest.raises(ValueError):
        AlphaSequence(0.0)
    with pytest.raises(ValueError):
        AlphaSequence(2.0).alpha(0)


def test_diag_class_two_atoms_oracle():
    K = generate_diag_class(AlphaSequence(2.0), 2)
    rows = {tuple(np.round(row, 12)) for row in K.points}
    assert rows == {(1.0, 0.0), (0.0, 0.5), (0.0, 0.0)}
    assert K.resolution == pytest.approx((1.0 + math.log2(3.0)) ** -1.0)
    assert K.space.p == 2.0


def test_diag_class_atom_separation_formula():
    # distinct atoms sit on orthogonal axes, so their distance is the
    # hypotenuse of the two alpha values; atom-to-origin distance is alpha_j
    alpha = AlphaSequence(1.5)
    K = generate_diag_class(alpha, 12)
    a = alpha.alpha(np.arange(1, 13))
    dist = pairwise_distances(K.points, 2.0)
    for i in range(12):
        assert dist[i, 12] == pytest.approx(a[i], abs=1e-12)
        for j in range(i + 1, 12):
            assert dist[i, j] == pytest.approx(
                math.hypot(a[i], a[j]), abs=1e-12)


@given(st.sampled_from([1.0, 2.0, math.inf]), st.integers(0, 2**31 - 1))
def test_kq_points_stay_in_unit_ball(q, seed):
    K = generate_Kq(6, q, 40, seed)
    radii = norm(K.points, FiniteNormedSpace(6, q))
    assert np.all(radii <= 1.0 + 1e-9)
    assert K.count == 40


def test_kq_deterministic_by_seed():
    a = generate_Kq(8, 1.0, 50, seed=3)
    b = generate_Kq(8, 1.0, 50, seed=3)
    c = generate_Kq(8, 1.0, 50, seed=4)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_sparse_class_support_and_radius():
    K = generate_sparse_class(20, 3, 60, seed=1)
    assert np.all(np.sum(K.points != 0.0, axis=1) <= 3)
    assert np.all(np.linalg.norm(K.points, axis=1) <= 1.0 + 1e-9)
    assert K.resolution > 0.0


def test_surrogate_validation():
    space = FiniteNormedSpace(2, 2.0)
    with pytest.raises(ValueError):
        ModelClassSurrogate(space, np.zeros((2, 2)))  # duplicate rows
    with pytest.raises(ValueError):
        ModelClassSurrogate(space, np.zeros((1, 3)))  # wrong width
    with pytest.raises(ValueError):
        ModelClassSurrogate(space, np.zeros((0, 2)))  # empty


@pytest.mark.parametrize("probe_count", [1, 64, 150])
def test_chunked_probe_distance_equals_the_dense_tensor(probe_count):
    rng = np.random.default_rng(probe_count)
    pts = rng.standard_normal((40, 12))
    probes = rng.standard_normal((probe_count, 12))
    dense = np.linalg.norm(probes[:, None, :] - pts[None, :, :], axis=2)
    got = float(np.max(nearest_distances(probes, pts)))
    assert got == float(np.max(np.min(dense, axis=1)))


def dense_nearest(P, X):
    """Nearest distances through the full probes x points x dim tensor."""
    return np.min(np.linalg.norm(P[:, None] - X[None], axis=2), axis=1)


def test_nearest_distances_of_cloud_points_are_zero():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((50, 9))
    P = np.concatenate([X[[3, 7, 7, 0, 49]], rng.standard_normal((6, 9))])
    got = nearest_distances(P, X)
    assert np.array_equal(got, dense_nearest(P, X))
    assert np.all(got[:5] == 0.0)


def test_nearest_distances_with_duplicate_rows_and_ties():
    # (1, 0) is at distance exactly 1 from (0, 0) twice, (2, 0) and (1, 1)
    X = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 0.0], [1.0, 1.0], [5.0, 5.0]])
    P = np.array([[1.0, 0.0], [1.0, 0.5], [0.0, 0.0], [3.0, 3.0]])
    got = nearest_distances(P, X)
    assert np.array_equal(got, dense_nearest(P, X))
    assert got[0] == 1.0


def test_nearest_distances_to_a_one_point_cloud():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((1, 7))
    P = rng.standard_normal((20, 7))
    assert np.array_equal(nearest_distances(P, X), dense_nearest(P, X))


def test_nearest_distances_of_zero_queries():
    X = np.random.default_rng(13).standard_normal((5, 4))
    P = np.empty((0, 4))
    got = nearest_distances(P, X)
    assert got.shape == (0,)
    assert np.array_equal(got, dense_nearest(P, X))


def test_nearest_distances_refuse_an_empty_cloud_like_the_dense_form():
    P = np.ones((3, 4))
    with pytest.raises(ValueError):
        dense_nearest(P, np.empty((0, 4)))
    with pytest.raises(ValueError):
        nearest_distances(P, np.empty((0, 4)))
    with pytest.raises(ValueError):
        nearest_distances(np.ones((3, 5)), np.ones((2, 4)))


@pytest.mark.parametrize("probe_count", [63, 64, 65, 130])
def test_nearest_distances_across_the_block_size(probe_count):
    # 1024 points make blocks of 64 probes
    rng = np.random.default_rng(probe_count)
    X = rng.standard_normal((1024, 3))
    assert spaces._BLOCK_ELEMENTS // len(X) == 64
    P = rng.standard_normal((probe_count, 3))
    assert np.array_equal(nearest_distances(P, X), dense_nearest(P, X))


def test_nearest_distances_where_the_gram_form_cancels():
    # at 1e6 the squared norms swamp the distances, so the screen keeps
    # many rows and only the reference expression tells them apart
    rng = np.random.default_rng(14)
    X = rng.standard_normal((80, 16)) + 1e6
    P = np.concatenate([X[:3], rng.standard_normal((40, 16)) + 1e6])
    assert np.array_equal(nearest_distances(P, X), dense_nearest(P, X))


def test_nearest_distances_off_the_screen_for_huge_and_non_finite_rows():
    rng = np.random.default_rng(15)
    X = rng.standard_normal((30, 6)) * 1e160
    P = rng.standard_normal((10, 6)) * 1e160
    with np.errstate(over="ignore"):
        assert np.array_equal(nearest_distances(P, X), dense_nearest(P, X))
    P = rng.standard_normal((4, 6))
    P[1, 2] = np.nan
    P[2, 0] = np.inf
    with np.errstate(invalid="ignore"):
        assert np.array_equal(nearest_distances(P, X[:5] * 1e-160),
                              dense_nearest(P, X[:5] * 1e-160), equal_nan=True)


@given(
    seed=st.integers(0, 2**32 - 1),
    queries=st.integers(0, 40),
    points=st.integers(1, 30),
    dim=st.integers(1, 12),
    grid=st.booleans(),
    shift=st.sampled_from([0.0, 1.0, 1e3, 1e8]),
    budget=st.sampled_from([1, 7, 64, 1 << 16]),
)
def test_nearest_distances_equal_the_dense_tensor(seed, queries, points, dim,
                                                  grid, shift, budget):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((points, dim))
    P = rng.standard_normal((queries, dim))
    if grid:
        # small integer coordinates: duplicate rows, exact ties
        X, P = np.round(2.0 * X), np.round(2.0 * P)
    if queries:
        P[: queries // 3] = X[rng.integers(0, points, queries // 3)]
    X, P = X + shift, P + shift
    with mock.patch.object(spaces, "_BLOCK_ELEMENTS", budget):
        got = nearest_distances(P, X)
    assert np.array_equal(got, dense_nearest(P, X))


def test_probe_search_holds_no_probes_by_points_by_dim_temporary():
    # the default cs shape: 1,600 probes against a 400-point cloud in R^128;
    # the chunked tensor it replaced held 64 x 400 x 128 doubles (26 MB)
    points = generate_sparse_class(128, 4, 400, seed=0).points
    probes = generate_sparse_class(128, 4, 1600, seed=1).points
    old_chunk = 64 * 400 * 128 * 8
    tracemalloc.start()
    try:
        res = float(np.max(nearest_distances(probes, points)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res == float(np.max(dense_nearest(probes, points)))
    assert peak < old_chunk / 3
