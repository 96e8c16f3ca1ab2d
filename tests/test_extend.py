import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from widthlab.extend import (
    SampledLipschitzMap,
    kirszbraun_eval_batch,
    lipschitz_audit,
    mcshane_eval,
    sample_pairs,
)
from widthlab.spaces import FiniteNormedSpace, pairwise_distances


def fit_gamma(xs, fs, domain_p, target_p, slack=1e-9):
    """Smallest budget making (xs, fs) a valid Lipschitz sample set."""
    dx = pairwise_distances(xs, domain_p)
    df = pairwise_distances(fs, target_p)
    mask = dx > 0
    return float(np.max(df[mask] / dx[mask])) * (1.0 + slack) + slack


@st.composite
def sample_sets(draw, target_p=2.0, domain_ps=(2.0,)):
    count = draw(st.integers(min_value=2, max_value=8))
    dim_in = draw(st.integers(min_value=1, max_value=4))
    dim_out = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    domain_p = draw(st.sampled_from(domain_ps))
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((count, dim_in))
    while np.unique(xs, axis=0).shape[0] < count:
        xs = rng.standard_normal((count, dim_in))
    fs = rng.standard_normal((count, dim_out))
    gamma = fit_gamma(xs, fs, domain_p, target_p)
    return SampledLipschitzMap(
        domain_space=FiniteNormedSpace(dim_in, domain_p),
        target_space=FiniteNormedSpace(dim_out, target_p),
        xs=xs, fs=fs, gamma=gamma,
    )


# a McShane extension keeps its budget into l_inf from any domain norm
mcshane_sets = sample_sets(target_p=math.inf, domain_ps=(1.0, 2.0, math.inf))


def test_mcshane_midpoint_oracle():
    map_ = SampledLipschitzMap(
        domain_space=FiniteNormedSpace(1, 2.0),
        target_space=FiniteNormedSpace(1, math.inf),
        xs=np.array([[0.0], [1.0]]),
        fs=np.array([[0.0], [1.0]]),
        gamma=1.0,
    )
    got = mcshane_eval(map_, np.array([[0.5], [2.0]]))
    assert got.shape == (2, 1)
    assert got[0, 0] == pytest.approx(0.5)
    # outside the hull the lower cone from the nearest sample wins
    assert got[1, 0] == pytest.approx(2.0)


def test_mcshane_refuses_an_l2_vector_target():
    map_ = SampledLipschitzMap(
        domain_space=FiniteNormedSpace(1, 2.0),
        target_space=FiniteNormedSpace(2, 2.0),
        xs=np.array([[0.0], [1.0]]),
        fs=np.array([[0.0, 0.0], [0.5, 0.5]]),
        gamma=1.0,
    )
    with pytest.raises(ValueError, match="l_inf or scalar target"):
        mcshane_eval(map_, np.array([[0.5]]))


def test_kirszbraun_two_ball_oracle():
    # constraints |y - 0| <= 1 and |y - 2| <= 1 intersect only at y = 1
    map_ = SampledLipschitzMap(
        domain_space=FiniteNormedSpace(1, 2.0),
        target_space=FiniteNormedSpace(1, 2.0),
        xs=np.array([[-1.0], [1.0]]),
        fs=np.array([[0.0], [2.0]]),
        gamma=1.0,
    )
    got = kirszbraun_eval_batch(map_, np.array([[0.0]]), tol=1e-10)
    assert got[0, 0] == pytest.approx(1.0, abs=1e-6)


def test_sample_set_validation_rejects_bad_budget():
    with pytest.raises(ValueError):
        SampledLipschitzMap(
            domain_space=FiniteNormedSpace(1, 2.0),
            target_space=FiniteNormedSpace(1, 2.0),
            xs=np.array([[0.0], [1.0]]),
            fs=np.array([[0.0], [2.0]]),
            gamma=1.0,
        )
    with pytest.raises(ValueError):
        SampledLipschitzMap(
            domain_space=FiniteNormedSpace(1, 2.0),
            target_space=FiniteNormedSpace(1, 2.0),
            xs=np.array([[0.0], [0.0]]),
            fs=np.array([[0.0], [0.0]]),
            gamma=1.0,
        )


@given(mcshane_sets)
def test_mcshane_reproduces_samples(map_):
    assert np.max(np.abs(mcshane_eval(map_, map_.xs) - map_.fs)) <= 1e-12


@given(mcshane_sets, st.integers(min_value=0, max_value=2**31 - 1))
def test_mcshane_keeps_the_budget(map_, seed):
    pairs = sample_pairs(map_.xs, 60, seed=seed, jitter=0.7)
    audit = lipschitz_audit(lambda X: mcshane_eval(map_, X), pairs,
                            map_.domain_space, map_.target_space)
    assert audit.measured <= map_.gamma + 1e-9


@given(sample_sets())
def test_kirszbraun_reproduces_samples(map_):
    got = kirszbraun_eval_batch(map_, map_.xs, tol=1e-8)
    assert float(np.max(np.linalg.norm(got - map_.fs, axis=1))) <= 1e-7


@given(sample_sets(), st.integers(min_value=0, max_value=2**31 - 1))
def test_kirszbraun_feasibility_residual(map_, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((5, map_.domain_space.dim)) * 2.0
    # accumulated queries never loosen the sample constraints
    for x, y in zip(X, kirszbraun_eval_batch(map_, X, tol=1e-8)):
        gaps = (np.linalg.norm(y[None, :] - map_.fs, axis=1)
                - map_.gamma * np.linalg.norm(x[None, :] - map_.xs, axis=1))
        assert float(np.max(gaps)) <= 1e-6


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_kirszbraun_scalar_interval_consistency(seed):
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.standard_normal(6))[:, None]
    fs = rng.standard_normal((6, 1))
    gamma = fit_gamma(xs, fs, 2.0, 2.0)
    map_ = SampledLipschitzMap(
        domain_space=FiniteNormedSpace(1, 2.0),
        target_space=FiniteNormedSpace(1, 2.0),
        xs=xs, fs=fs, gamma=gamma,
    )
    X = rng.uniform(-3, 3, size=(4, 1))
    for x, y in zip(X[:, 0], kirszbraun_eval_batch(map_, X, tol=1e-10)[:, 0]):
        radii = gamma * np.abs(x - xs[:, 0])
        lo = float(np.max(fs[:, 0] - radii))
        hi = float(np.min(fs[:, 0] + radii))
        assert lo - 1e-6 <= y <= hi + 1e-6


@given(sample_sets(), st.integers(min_value=0, max_value=2**31 - 1))
def test_kirszbraun_batch_realizes_a_lipschitz_map(map_, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((12, map_.domain_space.dim)) * 1.5
    Y = kirszbraun_eval_batch(map_, X, tol=1e-8)
    dx = pairwise_distances(X, 2.0)
    dy = pairwise_distances(Y, 2.0)
    mask = dx > 1e-9
    ratio = float(np.max(dy[mask] / dx[mask])) if mask.any() else 0.0
    # accumulated queries stay within the budget up to the accepted slack
    assert ratio <= map_.gamma * (1.0 + 1e-3) + 1e-6


def test_kirszbraun_batch_matches_sequential_accumulation():
    map_ = SampledLipschitzMap(
        domain_space=FiniteNormedSpace(2, 2.0),
        target_space=FiniteNormedSpace(2, 2.0),
        xs=np.array([[0.0, 0.0], [1.0, 0.0]]),
        fs=np.array([[0.0, 0.0], [0.5, 0.5]]),
        gamma=1.0,
    )
    X = np.array([[0.5, 0.25], [2.0, -1.0], [-0.5, 0.5]])
    batched = kirszbraun_eval_batch(map_, X, tol=1e-9)
    assert batched.shape == (3, 2)
    # query q sees the samples and queries 0..q-1 only, so every prefix of
    # the batch is the batch of that prefix
    for q in range(1, 4):
        assert np.array_equal(kirszbraun_eval_batch(map_, X[:q], tol=1e-9),
                              batched[:q])


def test_lipschitz_audit_exact_on_linear_map():
    rng = np.random.default_rng(5)
    pairs = sample_pairs(rng.standard_normal((30, 3)), 200, seed=1)
    space = FiniteNormedSpace(3, 2.0)
    audit = lipschitz_audit(lambda X: 2.0 * X, pairs, space, space)
    assert audit.measured == pytest.approx(2.0, abs=1e-9)
    assert audit.ratios.shape == (200,)
    assert np.allclose(audit.ratios, 2.0, rtol=0.0, atol=1e-9)


def test_lipschitz_audit_ratios_on_pairs_sharing_endpoints():
    # three points, each an endpoint of two pairs, and one pair listed again
    # in reverse order; the map squares the first coordinate
    p, q, r = [0.0, 1.0], [1.0, 1.0], [3.0, -1.0]
    pairs = np.array([(p, q), (q, r), (r, p), (q, p)])
    space = FiniteNormedSpace(2, 2.0)
    audit = lipschitz_audit(
        lambda X: np.stack([X[:, 0] ** 2, X[:, 1]], axis=1), pairs, space, space
    )
    # images (0, 1), (1, 1), (9, -1): image gaps 1, sqrt(68), sqrt(85)
    # over domain gaps 1, sqrt(8), sqrt(13)
    expected = [1.0, math.sqrt(68.0) / math.sqrt(8.0),
                math.sqrt(85.0) / math.sqrt(13.0), 1.0]
    assert audit.ratios.tolist() == expected
    assert audit.measured == max(expected) == math.sqrt(68.0) / math.sqrt(8.0)


def test_lipschitz_audit_rejects_degenerate_pairs():
    space = FiniteNormedSpace(1, 2.0)
    with pytest.raises(ValueError):
        lipschitz_audit(lambda X: X, np.empty((0, 2, 1)), space, space)
    with pytest.raises(ValueError):
        lipschitz_audit(lambda X: X, np.zeros((1, 2, 1)), space, space)


def test_sample_pairs_deterministic():
    pts = np.random.default_rng(2).standard_normal((10, 2))
    a = sample_pairs(pts, 25, seed=11, jitter=0.1)
    b = sample_pairs(pts, 25, seed=11, jitter=0.1)
    assert a.shape == (25, 2, 2)
    assert np.array_equal(a, b)


def pair_loop(points, count, seed, jitter=0.0):
    """Reference draw: the list of (x, y) tuples built one pair at a time."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        i, j = rng.choice(points.shape[0], size=2, replace=False)
        x, y = points[i].copy(), points[j].copy()
        if jitter > 0.0:
            x += jitter * rng.standard_normal(points.shape[1])
            y += jitter * rng.standard_normal(points.shape[1])
        if not np.array_equal(x, y):
            pairs.append((x, y))
    return pairs


@pytest.mark.parametrize("jitter", [0.0, 0.3])
@pytest.mark.parametrize("duplicates", [False, True])
def test_sample_pairs_match_the_pair_loop(jitter, duplicates):
    pts = np.random.default_rng(4).standard_normal((12, 3))
    if duplicates:
        # equal rows make collapsed pairs that the loop redraws
        pts = pts[np.arange(12) % 4]
    got = sample_pairs(pts, 300, seed=9, jitter=jitter)
    want = pair_loop(pts, 300, seed=9, jitter=jitter)
    assert got.shape == (300, 2, 3)
    assert all((got[k, 0] == x).all() and (got[k, 1] == y).all()
               for k, (x, y) in enumerate(want))
