import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from widthlab.extend import (
    ExtensionFeasibilityError,
    SampledLipschitzMap,
    kirszbraun_eval_batch,
    lipschitz_audit,
    sample_pairs,
)
from widthlab.spaces import FiniteNormedSpace, generate_Kq, pairwise_distances
from widthlab.stablewidth import build_stable_pair


def fit_gamma(xs, fs, slack=1e-9):
    """Smallest budget making (xs, fs) a valid l_2 Lipschitz sample set."""
    dx = pairwise_distances(xs, 2.0)
    df = pairwise_distances(fs, 2.0)
    mask = dx > 0
    return float(np.max(df[mask] / dx[mask])) * (1.0 + slack) + slack


@st.composite
def sample_sets(draw):
    count = draw(st.integers(min_value=2, max_value=8))
    dim_in = draw(st.integers(min_value=1, max_value=4))
    dim_out = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((count, dim_in))
    while np.unique(xs, axis=0).shape[0] < count:
        xs = rng.standard_normal((count, dim_in))
    fs = rng.standard_normal((count, dim_out))
    gamma = fit_gamma(xs, fs)
    return SampledLipschitzMap(
        domain_space=FiniteNormedSpace(dim_in, 2.0),
        target_space=FiniteNormedSpace(dim_out, 2.0),
        xs=xs, fs=fs, gamma=gamma,
    )


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
    gamma = fit_gamma(xs, fs)
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


def reference_kirszbraun(map_, X, tol=1e-8):
    """The Kirszbraun loop that scans every constraint row at every step."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Q = X.shape[0]
    m = map_.count
    cx = np.concatenate([map_.xs, np.empty((Q, X.shape[1]))], axis=0)
    cf = np.concatenate([map_.fs, np.empty((Q, map_.target_space.dim))], axis=0)
    slack = np.zeros(m + Q)
    Y = np.empty((Q, map_.target_space.dim))
    n_c = m
    for q in range(Q):
        x = X[q]
        d = np.sqrt(np.sum((cx[:n_c] - x) ** 2, axis=1))
        nearest = int(np.argmin(d))
        radii = map_.gamma * d + slack[:n_c]
        y = cf[nearest].copy()
        worst = 0.0
        for _ in range(100_000):
            dist = np.sqrt(np.sum((y - cf[:n_c]) ** 2, axis=1))
            viol = dist - radii
            j = int(np.argmax(viol))
            worst = float(viol[j])
            if worst <= tol:
                break
            # pull y onto the violated sphere; dist[j] > radii[j] >= 0
            y = cf[j] + (y - cf[j]) * (radii[j] / dist[j])
        else:
            raise ExtensionFeasibilityError(worst, 100_000)
        Y[q] = y
        if d[nearest] > 0.0:
            cx[n_c] = x
            cf[n_c] = y
            slack[n_c] = max(worst, 0.0) + 100.0 * tol
            n_c += 1
    return Y


def _surface_case(dim_in, dim_out, gamma, seed, shift=0.0):
    """Samples near a plane mapped onto a torus at 0.9 gamma, and queries.

    Samples and queries lie within 1e-3 of a random 2-plane, and the
    target curves, so many queries need projections, some of them hundreds.
    The queries end with repeats of earlier queries and of samples; the
    whole case is translated by shift.
    """
    rng = np.random.default_rng(seed)
    plane = np.linalg.qr(rng.standard_normal((dim_in, 2)))[0].T
    t = rng.uniform(0.0, 1.0, (60, 2))
    xs = t @ plane + 1e-4 * rng.standard_normal((60, dim_in))
    torus = np.linalg.qr(rng.standard_normal((dim_out, 4)))[0].T
    fs = np.concatenate([np.cos(3 * t), np.sin(3 * t)], axis=1) @ torus
    fs *= 0.9 * gamma / fit_gamma(xs, fs, slack=0.0)
    map_ = SampledLipschitzMap(
        domain_space=FiniteNormedSpace(dim_in, 2.0),
        target_space=FiniteNormedSpace(dim_out, 2.0),
        xs=xs + shift, fs=fs + shift, gamma=gamma,
    )
    fresh = (rng.uniform(-0.1, 1.1, (120, 2)) @ plane
             + 1e-3 * rng.standard_normal((120, dim_in)) + shift)
    return map_, np.concatenate([fresh, fresh[:10], map_.xs[:10], fresh[5:15]])


@pytest.mark.parametrize("dims", [(32, 52), (130, 32)])
@pytest.mark.parametrize("tol", [1e-7, 1e-8])
@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_screened_kernel_equals_the_full_scan(gamma, tol, dims):
    map_, X = _surface_case(*dims, gamma, seed=dims[0])
    assert np.array_equal(kirszbraun_eval_batch(map_, X, tol=tol),
                          reference_kirszbraun(map_, X, tol=tol))


def test_screened_kernel_equals_the_full_scan_far_from_the_origin():
    # norms near 1e4 against distances near 1: the Gram form cancels most
    map_, X = _surface_case(32, 52, 1.0, seed=3, shift=1e4)
    assert np.array_equal(kirszbraun_eval_batch(map_, X, tol=1e-8),
                          reference_kirszbraun(map_, X, tol=1e-8))


def test_screened_kernel_equals_the_full_scan_on_the_default_roundtrip():
    # stable-width's first task at its defaults: the n=2 pair of seed 0's
    # first spawned seed on the 2000-point l1-ball, at tol 1e-7; one of
    # its decoder queries takes 1,535 projections
    K = generate_Kq(32, 1.0, 2000, seed=0)
    pair = build_stable_pair(K, 2, seed=3757552657)
    Z = kirszbraun_eval_batch(pair.encoder, K.points, tol=1e-7)
    assert np.array_equal(Z, reference_kirszbraun(pair.encoder, K.points, tol=1e-7))
    assert np.array_equal(kirszbraun_eval_batch(pair.decoder, Z, tol=1e-7),
                          reference_kirszbraun(pair.decoder, Z, tol=1e-7))


def test_kirszbraun_refuses_non_finite_queries_and_tolerances():
    map_, _ = _surface_case(4, 4, 1.0, seed=1)
    X = np.zeros((4, 4))
    for bad in (math.nan, math.inf, -math.inf):
        X[2, 1] = bad
        with pytest.raises(ValueError, match="query row 2 is not finite"):
            kirszbraun_eval_batch(map_, X, tol=1e-8)
    # finite, but its squared norm overflows
    with pytest.raises(ValueError, match="query row 0 is not finite"):
        kirszbraun_eval_batch(map_, np.full((1, 4), 1e200), tol=1e-8)
    for tol in (0.0, -1e-8, math.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            kirszbraun_eval_batch(map_, np.zeros((1, 4)), tol=tol)


@pytest.mark.parametrize("domain_p, target_p",
                         [(1.0, 2.0), (math.inf, 2.0), (2.0, 1.0), (2.0, math.inf)])
def test_sample_set_validation_rejects_non_euclidean_spaces(domain_p, target_p):
    # Kirszbraun's theorem keeps the budget only between l_2 spaces
    with pytest.raises(ValueError, match="needs l_2 domain and target"):
        SampledLipschitzMap(
            domain_space=FiniteNormedSpace(1, domain_p),
            target_space=FiniteNormedSpace(1, target_p),
            xs=np.array([[0.0], [1.0]]),
            fs=np.array([[0.0], [0.5]]),
            gamma=1.0,
        )


@pytest.mark.parametrize("side", ["xs", "fs"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sample_set_validation_rejects_non_finite_samples(side, bad):
    samples = {"xs": np.array([[0.0], [1.0], [2.0]]),
               "fs": np.array([[0.0], [0.5], [1.0]])}
    samples[side][1, 0] = bad
    with pytest.raises(ValueError, match="sample 1 is not finite"):
        SampledLipschitzMap(
            domain_space=FiniteNormedSpace(1, 2.0),
            target_space=FiniteNormedSpace(1, 2.0),
            gamma=1.0, **samples,
        )


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


def test_lipschitz_audit_queries_the_rows_of_np_unique():
    # repeated points, and distinct points sharing one or two leading columns
    pts = np.array([[0.0, 1.0, 2.0], [0.0, 1.0, -1.0], [0.0, -3.0, 5.0],
                    [1.0, 1.0, 2.0], [-2.0, 0.0, 0.0], [0.0, 1.0, 2.5]])
    idx = np.random.default_rng(3).integers(0, len(pts), (200, 2))
    idx = idx[idx[:, 0] != idx[:, 1]]
    pairs = pts[idx]
    seen = []

    def fn(X):
        seen.append(X.copy())
        return X ** 3

    space = FiniteNormedSpace(3, 2.0)
    audit = lipschitz_audit(fn, pairs, space, space)
    uniq, inverse = np.unique(pairs.reshape(-1, 3), axis=0, return_inverse=True)
    assert len(seen) == 1 and seen[0].shape == uniq.shape
    assert (seen[0] == uniq).all()
    ends = inverse.reshape(-1, 2)
    vals = uniq ** 3
    want = (np.linalg.norm(vals[ends[:, 0]] - vals[ends[:, 1]], axis=1)
            / np.linalg.norm(pairs[:, 0] - pairs[:, 1], axis=1))
    assert (audit.ratios == want).all()


def test_lipschitz_audit_rejects_degenerate_pairs():
    space = FiniteNormedSpace(1, 2.0)
    with pytest.raises(ValueError):
        lipschitz_audit(lambda X: X, np.empty((0, 2, 1)), space, space)
    with pytest.raises(ValueError):
        lipschitz_audit(lambda X: X, np.zeros((1, 2, 1)), space, space)


def test_sample_pairs_deterministic():
    pts = np.random.default_rng(2).standard_normal((10, 2))
    a = sample_pairs(pts, 25, seed=11)
    b = sample_pairs(pts, 25, seed=11)
    assert a.shape == (25, 2, 2)
    assert np.array_equal(a, b)


def pair_loop(points, count, seed):
    """Reference draw: the list of (x, y) tuples built one pair at a time."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        i, j = rng.choice(points.shape[0], size=2, replace=False)
        x, y = points[i].copy(), points[j].copy()
        if not np.array_equal(x, y):
            pairs.append((x, y))
    return pairs


def _pair_clouds():
    pts = np.random.default_rng(4).standard_normal((12, 3))
    return {
        "distinct": pts,
        # equal rows make collapsed pairs that the loop redraws
        "duplicates": pts[np.arange(12) % 4],
        "two-points": pts[:2],
        # past 10,000 points rng.choice still runs Floyd's algorithm
        "large": np.random.default_rng(6).standard_normal((12_345, 3)),
    }


@pytest.mark.parametrize("cloud", list(_pair_clouds()))
def test_sample_pairs_match_the_pair_loop(cloud):
    pts = _pair_clouds()[cloud]
    got = sample_pairs(pts, 300, seed=9)
    want = pair_loop(pts, 300, seed=9)
    assert got.shape == (300, 2, 3)
    assert all((got[k, 0] == x).all() and (got[k, 1] == y).all()
               for k, (x, y) in enumerate(want))
