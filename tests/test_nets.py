import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from widthlab.nets import (
    build_net,
    entropy_bracket,
    greedy_cover,
    greedy_packing,
)
from widthlab.spaces import (
    FiniteNormedSpace,
    ModelClassSurrogate,
    generate_Kq,
    pairwise_distances,
)


def line_cloud(*coords):
    pts = np.asarray(coords, dtype=float)[:, None]
    return ModelClassSurrogate(FiniteNormedSpace(1, 2.0), pts)


@st.composite
def small_clouds(draw):
    count = draw(st.integers(min_value=2, max_value=12))
    dim = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    pts = np.random.default_rng(seed).standard_normal((count, dim))
    return ModelClassSurrogate(FiniteNormedSpace(dim, 2.0), pts)


def exact_cover_radius(K: ModelClassSurrogate, m: int) -> float:
    """Best m-center cover radius with centers in the cloud, by enumeration.

    Exponential in the cloud size; refuses clouds larger than 14 points.
    Serves as the oracle for the greedy bounds.
    """
    if K.count > 14:
        raise ValueError("exact enumeration limited to clouds of <= 14 points")
    if m < 1:
        raise ValueError("m must be positive")
    m = min(m, K.count)
    dist = pairwise_distances(K.points, K.space.p)
    best = math.inf
    for subset in itertools.combinations(range(K.count), m):
        radius = np.max(np.min(dist[list(subset)], axis=0))
        if radius < best:
            best = float(radius)
    return best


def test_exact_cover_radius_collinear_oracle():
    K = line_cloud(0.0, 1.0, 2.0, 3.0)
    assert exact_cover_radius(K, 1) == pytest.approx(2.0)
    assert exact_cover_radius(K, 2) == pytest.approx(1.0)
    assert exact_cover_radius(K, 4) == pytest.approx(0.0)


def test_exact_cover_radius_refuses_large_clouds():
    pts = np.arange(15.0)[:, None]
    K = ModelClassSurrogate(FiniteNormedSpace(1, 2.0), pts)
    with pytest.raises(ValueError):
        exact_cover_radius(K, 2)


@given(small_clouds(), st.integers(min_value=1, max_value=12))
def test_greedy_cover_brackets_the_exact_radius(K, m):
    m = min(m, K.count)
    exact = exact_cover_radius(K, m)
    greedy = greedy_cover(K, m).radius
    assert exact <= greedy + 1e-12
    assert greedy <= 2.0 * exact + 1e-12


@given(small_clouds(), st.integers(min_value=2, max_value=12))
def test_greedy_packing_separation_is_the_selected_min_distance(K, m):
    m = min(m, K.count)
    pts, sep = greedy_packing(K, m)
    dist = pairwise_distances(pts, K.space.p)
    np.fill_diagonal(dist, math.inf)
    assert sep == pytest.approx(float(dist.min()), abs=1e-12)


@given(small_clouds(), st.integers(min_value=2, max_value=12))
def test_packing_cover_duality(K, m):
    m = min(m, K.count)
    _, sep = greedy_packing(K, m)
    radius = greedy_cover(K, m - 1).radius
    if math.isfinite(sep):
        assert sep / 2.0 <= radius + 1e-12


@given(small_clouds(), st.integers(min_value=0, max_value=4))
def test_entropy_bracket_sandwiches_the_exact_radius(K, n):
    bracket = entropy_bracket(K, n)
    exact = exact_cover_radius(K, 2**n)
    assert bracket.lower <= exact + 1e-12
    assert exact <= bracket.upper + 1e-12


@given(small_clouds())
def test_entropy_bracket_monotone_in_n(K):
    brackets = [entropy_bracket(K, n) for n in range(5)]
    for a, b in zip(brackets, brackets[1:]):
        assert b.upper <= a.upper + 1e-12
        assert b.lower <= a.lower + 1e-12


@given(small_clouds(), st.integers(min_value=1, max_value=12))
def test_cover_validity_exhaustive(K, m):
    net = greedy_cover(K, min(m, K.count))
    d = np.linalg.norm(K.points[:, None, :] - net.centers[None, :, :], axis=2)
    assert np.all(d.min(axis=1) <= net.radius + 1e-12)


def test_entropy_bracket_degrades_gracefully_on_tiny_clouds():
    K = line_cloud(0.0, 1.0, 2.0)
    bracket = entropy_bracket(K, 2)  # needs 5 packing points, cloud has 3
    assert bracket.lower == 0.0
    assert bracket.packing_witness.shape[0] == 0
    assert bracket.upper == 0.0  # 4 centers cover 3 points exactly


@given(small_clouds(), st.floats(min_value=0.01, max_value=4.0))
def test_build_net_achieves_requested_radius(K, eps):
    net = build_net(K, eps)
    d = np.linalg.norm(K.points[:, None, :] - net.centers[None, :, :], axis=2)
    realized = float(d.min(axis=1).max())
    assert realized <= eps + 1e-12
    assert net.radius == pytest.approx(realized, abs=1e-12)


def test_build_net_zero_eps_returns_whole_cloud():
    K = line_cloud(0.0, 0.5, 2.0, 3.5)
    net = build_net(K, 0.0)
    assert net.centers.shape[0] == K.count
    assert net.radius == 0.0


@given(small_clouds())
def test_build_net_center_count_monotone_in_eps(K):
    sizes = [build_net(K, eps).centers.shape[0]
             for eps in (2.0, 1.0, 0.5, 0.25, 0.125)]
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))


def test_greedy_argument_validation():
    K = line_cloud(0.0, 1.0)
    with pytest.raises(ValueError):
        greedy_packing(K, 0)
    with pytest.raises(ValueError):
        greedy_packing(K, 3)
    with pytest.raises(ValueError):
        greedy_cover(K, 0)
    with pytest.raises(ValueError):
        entropy_bracket(K, -1)
    with pytest.raises(ValueError):
        build_net(K, -0.1)


def reference_order(K, m):
    """Farthest-point order on the dense distance matrix: (indices, gaps).

    The traversal written out in full, as a plain argmax loop over a
    count x count matrix; the nets must reproduce it bit for bit.
    """
    dist = pairwise_distances(K.points, K.space.p)
    m = min(m, K.count)
    selected, gaps = [0], [math.inf]
    mindist = dist[0].copy()
    for _ in range(1, m):
        j = int(np.argmax(mindist))
        selected.append(j)
        gaps.append(float(mindist[j]))
        np.minimum(mindist, dist[j], out=mindist)
    return selected, gaps, dist


def reference_cover(K, m):
    selected, _, dist = reference_order(K, m)
    return selected, float(np.max(np.min(dist[selected], axis=0)))


def reference_net(K, eps):
    selected, _, dist = reference_order(K, K.count)
    mindist = np.full(K.count, math.inf)
    for used, j in enumerate(selected, start=1):
        np.minimum(mindist, dist[j], out=mindist)
        radius = float(np.max(mindist))
        if radius <= eps:
            return selected[:used], radius
    return selected, 0.0


@pytest.fixture(scope="module")
def l1_ball():
    return generate_Kq(32, 1.0, 2000, seed=0)


@pytest.mark.parametrize("n", range(1, 9))
def test_nets_match_the_dense_reference_on_the_l1_ball(l1_ball, n):
    K, budget = l1_ball, 2**n
    centers, radius = reference_cover(K, budget)
    net = greedy_cover(K, budget)
    assert np.array_equal(net.centers, K.points[centers])
    assert net.radius == radius
    packed, gaps, _ = reference_order(K, budget + 1)
    witness, sep = greedy_packing(K, budget + 1)
    assert np.array_equal(witness, K.points[packed])
    assert sep == gaps[-1]
    bracket = entropy_bracket(K, n)
    assert np.array_equal(bracket.cover_centers, K.points[centers])
    assert np.array_equal(bracket.packing_witness, K.points[packed])
    assert bracket.upper == radius
    assert bracket.lower == gaps[-1] / 2.0


@pytest.mark.parametrize("p", [1.0, 3.0, math.inf])
def test_nets_match_the_dense_reference_under_other_norms(p):
    pts = np.random.default_rng(3).standard_normal((300, 6))
    K = ModelClassSurrogate(FiniteNormedSpace(6, p), pts)
    for m in (1, 2, 5, 17, 64, 300):
        centers, radius = reference_cover(K, m)
        net = greedy_cover(K, m)
        assert np.array_equal(net.centers, K.points[centers])
        assert net.radius == radius
        packed, gaps, _ = reference_order(K, m)
        witness, sep = greedy_packing(K, m)
        assert np.array_equal(witness, K.points[packed])
        assert sep == gaps[-1]
    for eps in (2.0, 1.0, 0.5, 0.0):
        centers, radius = reference_net(K, eps)
        net = build_net(K, eps)
        assert np.array_equal(net.centers, K.points[centers])
        assert net.radius == radius


@pytest.mark.parametrize("eps", [0.5, 0.4, 0.3, 0.25, 0.0])
def test_build_net_matches_the_dense_reference_on_the_l1_ball(l1_ball, eps):
    centers, radius = reference_net(l1_ball, eps)
    net = build_net(l1_ball, eps)
    assert np.array_equal(net.centers, l1_ball.points[centers])
    assert net.radius == radius
