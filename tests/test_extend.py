import importlib
import inspect
import math
import pkgutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import widthlab
import widthlab.extend as extend
import widthlab.spaces as spaces
from widthlab.extend import (
    ExtensionFeasibilityError,
    SampledLipschitzMap,
    _two_ball_step,
    kirszbraun_eval_batch,
    lipschitz_audit,
    sample_pairs,
)
from widthlab.spaces import generate_Kq, pairwise_distances
from widthlab.cli import _task_seeds
from widthlab.stablewidth import build_stable_pair

from test_spaces import dense_ratio_extremes


def fit_gamma(xs, fs, slack=1e-9):
    """Smallest budget making (xs, fs) a valid l_2 Lipschitz sample set."""
    dx = pairwise_distances(xs)
    df = pairwise_distances(fs)
    mask = dx > 0
    return float(np.max(df[mask] / dx[mask])) * (1.0 + slack) + slack


@st.composite
def sample_sets(draw):
    # values of up to 12 coordinates, so that their count may pass it
    # (m - 1 >= df) or not (m - 1 < df, the kernel's hull coordinates)
    count = draw(st.integers(min_value=2, max_value=8))
    dim_in = draw(st.integers(min_value=1, max_value=4))
    dim_out = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((count, dim_in))
    while np.unique(xs, axis=0).shape[0] < count:
        xs = rng.standard_normal((count, dim_in))
    fs = rng.standard_normal((count, dim_out))
    gamma = fit_gamma(xs, fs)
    return SampledLipschitzMap(xs=xs, fs=fs, gamma=gamma)


def test_kirszbraun_two_ball_oracle():
    # constraints |y - 0| <= 1 and |y - 2| <= 1 intersect only at y = 1
    map_ = SampledLipschitzMap(
        xs=np.array([[-1.0], [1.0]]),
        fs=np.array([[0.0], [2.0]]),
        gamma=1.0,
    )
    got = kirszbraun_eval_batch(map_, np.array([[0.0]]))
    assert got[0, 0] == pytest.approx(1.0, abs=1e-6)


def test_sample_set_validation_rejects_bad_budget():
    with pytest.raises(ValueError):
        SampledLipschitzMap(
            xs=np.array([[0.0], [1.0]]),
            fs=np.array([[0.0], [2.0]]),
            gamma=1.0,
        )
    with pytest.raises(ValueError):
        SampledLipschitzMap(
            xs=np.array([[0.0], [0.0]]),
            fs=np.array([[0.0], [0.0]]),
            gamma=1.0,
        )


def dense_sample_check(xs, fs, gamma):
    """SampledLipschitzMap's pair check on full distance matrices.

    The reference the screened check reproduces: the same verdict, and a
    ValueError of the same text, dense_ratio_extremes' own or one naming
    the pair of the largest ratio when that ratio exceeds
    gamma (1 + 1e-9).  One sample has no pair to check.
    """
    if len(xs) < 2:
        return
    _, largest, pair = dense_ratio_extremes(xs, fs)
    if largest > gamma * (1.0 + 1e-9):
        raise ValueError(
            f"samples {pair[0]},{pair[1]} violate the gamma-Lipschitz "
            f"condition: pair ratio {largest} > gamma {gamma}"
        )


def outcome(check, *args):
    """The text of the ValueError check(*args) raises, or None."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            check(*args)
    except ValueError as exc:
        return str(exc)
    return None


def edge_budget(target):
    """The gamma at which the bound gamma * (1 + 1e-9) rounds to target."""
    gamma = target / (1.0 + 1e-9)
    while gamma * (1.0 + 1e-9) < target:
        gamma = np.nextafter(gamma, math.inf)
    while gamma * (1.0 + 1e-9) > target:
        gamma = np.nextafter(gamma, -math.inf)
    assert gamma * (1.0 + 1e-9) == target
    return float(gamma)


@pytest.mark.parametrize("side", [1.0, -1.0])
@pytest.mark.parametrize("shift", [0.0, 1e6 + 0.1, 1e6 + 0.3, 1e6 + 0.7])
def test_sample_check_one_ulp_from_the_budget(side, shift):
    # the bound sits 1 ulp above (side 1) or below (side -1) the ratio of
    # pair (0, 1), the largest; near 1e6 the Gram form keeps only a few
    # digits of the gaps, while the differences of the rows stay exact
    xs = np.array([[0.0, 0.0], [1.0, 0.0], [-7.0, 9.0]]) + shift
    fs = np.array([[0.0, 1.0], [1.25, 1.0], [0.5, 1.2]]) + shift
    ratio = pairwise_distances(fs)[0, 1] / pairwise_distances(xs)[0, 1]
    gamma = edge_budget(np.nextafter(ratio, side * math.inf))
    got = outcome(SampledLipschitzMap, xs, fs, gamma)
    assert got == outcome(dense_sample_check, xs, fs, gamma)
    assert (got is None) == (side > 0)
    if got is not None:
        assert got.startswith("samples 0,1 violate")


def test_sample_check_hand_made_cases_equal_the_dense_check():
    # squared norms whose Gram form overflows, while the gaps stay finite
    far = np.array([[5.0, 0.0], [0.0, 5.0], [-5.0, 0.0], [0.0, -5.0],
                    [1.0, 2.0]]) * 1e153
    cases = [
        # duplicate domain rows, with equal images
        (np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [3.0, 3.0]]),
         np.array([[0.0], [0.5], [0.0], [1.0]]), 1.0, "domain rows 0,2"),
        # distinct rows whose squared gap underflows to 0
        (np.array([[1e-170, 0.0], [2e-170, 0.0], [5.0, 5.0]]),
         np.zeros((3, 1)), 1.0, "domain rows 0,1"),
        # two images that coincide: fine one way, duplicates the other
        (np.array([[0.0], [1.0], [3.0]]), np.array([[2.0], [2.0], [0.0]]),
         1.0, None),
        (np.array([[2.0], [2.0], [0.0]]), np.array([[0.0], [1.0], [3.0]]),
         1.0, "domain rows 0,1"),
        # rows whose squared norms overflow: every pair is exact
        (far, far * 0.5, 0.5, None),
        (far, far * 0.5, 0.25, "samples 0,1"),
        (far, far[::-1] * 1e-160, 1.0, None),
        # gaps past the float range on both sides: a ratio near 1.13 that
        # reads inf / inf, with squared norms that overflow or stay finite
        (np.array([[0.0], [1.5e154]]), np.array([[0.0], [1.7e154]]), 1.0,
         "samples 0,1 have gaps past the float range"),
        (np.array([[1e154], [-1e154]]), np.array([[1e154], [-1e154]]), 1.0,
         "samples 0,1 have gaps past the float range"),
        (np.array([[0.0], [1.0], [1e154], [-1e154]]),
         np.array([[0.0], [1.0], [-1e154], [1e154]]), 1.0,
         "samples 2,3 have gaps past the float range"),
        # one and two samples
        (np.array([[0.3, -1.0]]), np.array([[2.0]]), 1e-3, None),
        (np.array([[0.0], [1.0]]), np.array([[0.0], [2.0]]), 2.0, None),
        (np.array([[0.0], [1.0]]), np.array([[0.0], [2.0]]), 1.9, "samples 0,1"),
    ]
    # pairs near 1e-161 whose squared gaps underflow to 0, where the
    # Gram form rounds at the bottom of the subnormals
    rng = np.random.default_rng(23)
    for _ in range(100):
        a = rng.uniform(2e-162, 3e-161, size=2)
        b = a + rng.uniform(-1e-162, 1e-162, size=2)
        cases.append((np.array([a, b, [5.0, 5.0]]), np.zeros((3, 1)), 1.0,
                      "domain rows 0,1"))
    for xs, fs, gamma, expected in cases:
        got = outcome(SampledLipschitzMap, xs, fs, gamma)
        assert got == outcome(dense_sample_check, xs, fs, gamma)
        assert (got is None) == (expected is None)
        if got is not None:
            assert got.startswith(expected)


@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 12),
    dims=st.tuples(st.integers(1, 4), st.integers(1, 3)),
    grid=st.booleans(),
    shift=st.sampled_from([0.0, 1.0, 1e3, 1e6]),
    scale=st.sampled_from([1.0, 1e-160, 3e153]),
    steps=st.integers(-3, 3),
    budget=st.sampled_from([1, 7, 64, 1 << 16]),
)
def test_sample_check_equals_the_dense_check(seed, count, dims, grid, shift,
                                              scale, steps, budget):
    # budgets a few ulps from the worst pair's edge, on clouds with exact
    # ties, duplicates (grid), cancelling Gram forms (shift), squares that
    # underflow or overflow (scale), and screens of one row or more a block
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((count, dims[0]))
    fs = rng.standard_normal((count, dims[1]))
    if grid:
        xs, fs = np.round(2.0 * xs), np.round(2.0 * fs)
    xs, fs = (xs + shift) * scale, (fs + shift) * scale
    try:
        largest = dense_ratio_extremes(xs, fs)[1]
    except ValueError:  # one sample, or a pair the check refuses anyway
        largest = 1.0
    gamma = largest / (1.0 + 1e-9) if 0.0 < largest < math.inf else 1.0
    for _ in range(abs(steps)):
        gamma = float(np.nextafter(gamma, steps * math.inf))
    with mock.patch.object(spaces, "_BLOCK_ELEMENTS", budget):
        got = outcome(SampledLipschitzMap, xs, fs, gamma)
    assert got == outcome(dense_sample_check, xs, fs, gamma)


@given(sample_sets())
def test_kirszbraun_reproduces_samples(map_):
    got = kirszbraun_eval_batch(map_, map_.xs)
    assert float(np.max(np.linalg.norm(got - map_.fs, axis=1))) <= 1e-7


@given(sample_sets(), st.integers(min_value=0, max_value=2**31 - 1))
def test_kirszbraun_feasibility_residual(map_, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((5, map_.xs.shape[1])) * 2.0
    # accumulated queries never loosen the sample constraints
    for x, y in zip(X, kirszbraun_eval_batch(map_, X)):
        gaps = (np.linalg.norm(y[None, :] - map_.fs, axis=1)
                - map_.gamma * np.linalg.norm(x[None, :] - map_.xs, axis=1))
        assert float(np.max(gaps)) <= 1e-6


@given(sample_sets(), st.integers(min_value=0, max_value=2**31 - 1),
       st.sampled_from([0.0, 1e3]))
def test_kirszbraun_values_stay_in_the_hull_and_meet_every_ball(map_, seed,
                                                                shift):
    # with m - 1 < df the kernel runs in the hull's coordinates, otherwise
    # in the value space's; either way a Kirszbraun value lies in the affine
    # hull of the sample values and meets every sample ball
    map_ = SampledLipschitzMap(xs=map_.xs, fs=map_.fs + shift, gamma=map_.gamma)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((6, map_.xs.shape[1])) * 2.0
    X = np.concatenate([X, map_.xs[:2], X[:2]])
    Y = kirszbraun_eval_batch(map_, X)
    f0 = map_.fs[0]
    spread = np.linalg.norm(map_.fs - f0, axis=1).max()
    for x, y in zip(X, Y):
        coef = np.linalg.lstsq((map_.fs[1:] - f0).T, y - f0, rcond=None)[0]
        off = y - f0 - coef @ (map_.fs[1:] - f0)
        assert np.linalg.norm(off) <= 1e-12 * max(spread, np.linalg.norm(y - f0),
                                                  np.linalg.norm(f0))
        gaps = (np.linalg.norm(y[None, :] - map_.fs, axis=1)
                - map_.gamma * np.linalg.norm(x[None, :] - map_.xs, axis=1))
        assert float(np.max(gaps)) <= 1e-6


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_kirszbraun_scalar_interval_consistency(seed):
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.standard_normal(6))[:, None]
    fs = rng.standard_normal((6, 1))
    gamma = fit_gamma(xs, fs)
    map_ = SampledLipschitzMap(xs=xs, fs=fs, gamma=gamma)
    X = rng.uniform(-3, 3, size=(4, 1))
    for x, y in zip(X[:, 0], kirszbraun_eval_batch(map_, X)[:, 0]):
        radii = gamma * np.abs(x - xs[:, 0])
        lo = float(np.max(fs[:, 0] - radii))
        hi = float(np.min(fs[:, 0] + radii))
        assert lo - 1e-6 <= y <= hi + 1e-6


@given(sample_sets(), st.integers(min_value=0, max_value=2**31 - 1))
def test_kirszbraun_batch_realizes_a_lipschitz_map(map_, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((12, map_.xs.shape[1])) * 1.5
    Y = kirszbraun_eval_batch(map_, X)
    dx = pairwise_distances(X)
    dy = pairwise_distances(Y)
    mask = dx > 1e-9
    ratio = float(np.max(dy[mask] / dx[mask])) if mask.any() else 0.0
    # accumulated queries stay within the budget up to the accepted slack
    assert ratio <= map_.gamma * (1.0 + 1e-3) + 1e-6


def test_kirszbraun_batch_matches_sequential_accumulation():
    map_ = SampledLipschitzMap(
        xs=np.array([[0.0, 0.0], [1.0, 0.0]]),
        fs=np.array([[0.0, 0.0], [0.5, 0.5]]),
        gamma=1.0,
    )
    X = np.array([[0.5, 0.25], [2.0, -1.0], [-0.5, 0.5]])
    batched = kirszbraun_eval_batch(map_, X)
    assert batched.shape == (3, 2)
    # query q sees the samples and queries 0..q-1 only, so every prefix of
    # the batch is the batch of that prefix
    for q in range(1, 4):
        assert np.array_equal(kirszbraun_eval_batch(map_, X[:q]),
                              batched[:q])


def reference_kirszbraun(map_, X):
    """The Kirszbraun loop that scans every constraint row at every step.

    It takes the kernel's two-ball step through the same helper, on the
    same trigger, the kernel's coordinates in the affine hull of the
    values through the same helper, and the kernel's tolerance,
    extend.EVAL_TOL, so its values are the screened kernel's bit for bit.
    Like the kernel, it gives a query at an earlier stored query's point
    that query's answer unscanned, and restores a kept sample's value also
    through a stored query that kept it.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Q = X.shape[0]
    m = map_.count
    hull = extend._hull_coordinates(map_.fs)
    fs = map_.fs if hull is None else hull[2]
    cx = np.concatenate([map_.xs, np.empty((Q, X.shape[1]))], axis=0)
    cf = np.concatenate([fs, np.empty((Q, fs.shape[1]))], axis=0)
    slack = np.zeros(m + Q)
    Y = np.empty((Q, fs.shape[1]))
    source = list(range(m))  # stored row -> the sample whose value it holds, or -1
    answered = []  # stored query row - m -> the query it answered
    kept = {}  # query -> the sample whose value it kept untouched
    repeats = {}  # query -> the earlier stored query at its point
    n_c = m
    for q in range(Q):
        x = X[q]
        d = np.sqrt(np.sum((cx[:n_c] - x) ** 2, axis=1))
        nearest = int(np.argmin(d))
        if d[nearest] == 0.0 and nearest >= m:
            repeats[q] = answered[nearest - m]
            continue
        radii = map_.gamma * d + slack[:n_c]
        y = cf[nearest].copy()
        worst = 0.0
        last = before = -1
        for _ in range(extend._ITERATION_CAP):
            dist = np.sqrt(np.sum((y - cf[:n_c]) ** 2, axis=1))
            viol = dist - radii
            j = int(np.argmax(viol))
            worst = float(viol[j])
            if worst <= extend.EVAL_TOL:
                break
            # the two-ball step when j was the row of the step before last
            p = None
            if j == before != last:
                p = _two_ball_step(y, cf[last], float(radii[last]),
                                   cf[j], float(radii[j]))
            if p is None:
                # pull y onto the violated sphere; dist[j] > radii[j] >= 0
                p = cf[j] + (y - cf[j]) * (radii[j] / dist[j])
            y = p
            before, last = last, j
        else:
            raise ExtensionFeasibilityError(worst, extend._ITERATION_CAP)
        Y[q] = y
        held = source[nearest] if last == -1 else -1
        if held >= 0:
            kept[q] = held
        if d[nearest] > 0.0:
            cx[n_c] = x
            cf[n_c] = y
            source.append(held)
            answered.append(q)
            slack[n_c] = max(worst, 0.0) + 100.0 * extend.EVAL_TOL
            n_c += 1
    if hull is not None:
        origin, basis, _ = hull
        Y = Y @ basis.T + origin
        for q, sample in kept.items():
            Y[q] = map_.fs[sample]
    for q, earlier in repeats.items():
        Y[q] = Y[earlier]
    return Y


def _surface_case(dim_in, dim_out, gamma, seed, shift=0.0, count=60):
    """count samples near a plane mapped onto a torus at 0.9 gamma, and queries.

    Samples and queries lie within 1e-3 of a random 2-plane, and the
    target curves, so many queries need projections, some of them hundreds.
    The queries end with repeats of earlier queries and of samples; the
    whole case is translated by shift.
    """
    rng = np.random.default_rng(seed)
    plane = np.linalg.qr(rng.standard_normal((dim_in, 2)))[0].T
    t = rng.uniform(0.0, 1.0, (count, 2))
    xs = t @ plane + 1e-4 * rng.standard_normal((count, dim_in))
    torus = np.linalg.qr(rng.standard_normal((dim_out, 4)))[0].T
    fs = np.concatenate([np.cos(3 * t), np.sin(3 * t)], axis=1) @ torus
    fs *= 0.9 * gamma / fit_gamma(xs, fs, slack=0.0)
    map_ = SampledLipschitzMap(xs=xs + shift, fs=fs + shift, gamma=gamma)
    fresh = (rng.uniform(-0.1, 1.1, (120, 2)) @ plane
             + 1e-3 * rng.standard_normal((120, dim_in)) + shift)
    return map_, np.concatenate([fresh, fresh[:10], map_.xs[:10], fresh[5:15]])


@pytest.mark.parametrize("dims", [(32, 52), (130, 32)])
@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_screened_kernel_equals_the_full_scan(gamma, dims):
    map_, X = _surface_case(*dims, gamma, seed=dims[0])
    assert np.array_equal(kirszbraun_eval_batch(map_, X),
                          reference_kirszbraun(map_, X))


def test_screened_kernel_equals_the_full_scan_far_from_the_origin():
    # norms near 1e4 against distances near 1: the Gram form cancels most
    map_, X = _surface_case(32, 52, 1.0, seed=3, shift=1e4)
    assert np.array_equal(kirszbraun_eval_batch(map_, X),
                          reference_kirszbraun(map_, X))


@pytest.mark.parametrize("dim_out, shift", [(52, 0.0), (130, 0.0), (130, 1e4)])
@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_screened_kernel_equals_the_full_scan_in_the_value_hull(gamma, dim_out,
                                                                 shift):
    # 20 values span 19 dimensions of R^52 or R^130, so both loops run in
    # the hull's coordinates; far from the origin its basis comes from
    # differences of rows near 1e4
    map_, X = _surface_case(32, dim_out, gamma, seed=dim_out, shift=shift,
                            count=20)
    assert extend._hull_coordinates(map_.fs)[1].shape == (dim_out, 19)
    assert np.array_equal(kirszbraun_eval_batch(map_, X),
                          reference_kirszbraun(map_, X))


@pytest.mark.parametrize("count", [20, 60])
def test_kirszbraun_returns_the_samples_bit_for_bit(count):
    # 20 values in R^52 run in hull coordinates and 60 do not; either way
    # a query at a sample keeps that sample's stored value
    map_, X = _surface_case(32, 52, 1.0, seed=7, shift=0.5, count=count)
    assert (extend._hull_coordinates(map_.fs) is None) == (count > 52)
    assert np.array_equal(kirszbraun_eval_batch(map_, map_.xs), map_.fs)
    # one sample: a hull of no dimensions, and every value is that sample's
    one = SampledLipschitzMap(xs=map_.xs[:1], fs=map_.fs[:1], gamma=1.0)
    assert np.array_equal(kirszbraun_eval_batch(one, X),
                          np.repeat(map_.fs[:1], len(X), axis=0))


def test_default_roundtrips_return_the_net_bit_for_bit():
    # stable-width's default pairs, n = 2..5 at seed 0's task seeds: the
    # encoder's values span 2^n - 1 of its 26n dimensions, and the decoder's
    # 2^n - 1 of 32, and the roundtrip of a net point is that point
    K = generate_Kq(32, 1.0, 2000, seed=0)
    for n, seed in zip(range(2, 6), _task_seeds(0, 4)):
        pair = build_stable_pair(K, n, seed=seed)
        assert extend._hull_coordinates(pair.encoder.fs)[1].shape[1] == 2**n - 1
        recon = pair.roundtrip_batch(pair.net.points)
        assert np.array_equal(recon, pair.net.points)


def test_default_roundtrips_decode_equal_codes_to_equal_rows():
    # stable-width's default pairs, n = 2..5 at seed 0's task seeds: about a
    # thousand cloud points share a code with an earlier one at each n, and
    # a repeated code decodes to its first answer bit for bit
    K = generate_Kq(32, 1.0, 2000, seed=0)
    for n, seed in zip(range(2, 6), _task_seeds(0, 4)):
        pair = build_stable_pair(K, n, seed=seed)
        Z = pair.encoder.eval_batch(K.points)
        codes, first, inverse = np.unique(Z, axis=0, return_index=True,
                                          return_inverse=True)
        assert len(Z) - len(codes) > 900
        recon = pair.decoder.eval_batch(Z)
        assert np.array_equal(recon, recon[first[inverse.ravel()]])


def test_screened_kernel_equals_the_full_scan_on_the_default_roundtrip():
    # stable-width's first task at its defaults: the n=2 pair of seed 0's
    # first spawned seed on the 2000-point l1-ball; without
    # the two-ball step one of its decoder queries took 1,535 projections
    K = generate_Kq(32, 1.0, 2000, seed=0)
    pair = build_stable_pair(K, 2, seed=3757552657)
    Z = kirszbraun_eval_batch(pair.encoder, K.points)
    assert np.array_equal(Z, reference_kirszbraun(pair.encoder, K.points))
    assert np.array_equal(kirszbraun_eval_batch(pair.decoder, Z),
                          reference_kirszbraun(pair.decoder, Z))


def test_two_ball_step_by_hand():
    # unit disks at (0, 0) and (1.5, 0) meet at (0.75, +-sqrt(0.4375))
    p = _two_ball_step(np.array([0.75, 2.0]), np.array([0.0, 0.0]), 1.0,
                       np.array([1.5, 0.0]), 1.0)
    assert p[0] == pytest.approx(0.75, abs=1e-15)
    assert p[1] == pytest.approx(math.sqrt(0.4375), abs=1e-15)


@given(st.integers(0, 2**32 - 1), st.integers(2, 40))
def test_two_ball_step_is_the_nearest_point_of_the_circle(seed, dim):
    rng = np.random.default_rng(seed)
    a, b, y = rng.standard_normal((3, dim))
    d = float(np.linalg.norm(b - a))
    # radii whose spheres meet: r_a + r_b > d > |r_a - r_b|
    r_a = rng.uniform(0.1, 2.0) * d
    r_b = rng.uniform(abs(d - r_a), d + r_a)
    p = _two_ball_step(y, a, r_a, b, r_b)
    if p is None:
        return  # tangent after rounding, or y on the axis
    assert np.linalg.norm(p - a) == pytest.approx(r_a, rel=1e-12)
    assert np.linalg.norm(p - b) == pytest.approx(r_b, rel=1e-12)
    # the nearest point of the circle: y - p is normal to the circle at p,
    # so it lies in the span of the two sphere normals p - a and p - b
    basis = np.linalg.qr(np.stack([p - a, p - b], axis=1))[0]
    e = y - p
    off = e - basis @ (basis.T @ e)
    assert np.linalg.norm(off) <= 1e-9 * (1.0 + np.linalg.norm(e))


@pytest.mark.parametrize("case", ["disjoint", "nested", "concentric", "axis"])
def test_two_ball_step_falls_back_without_a_circle(case):
    a, b = np.array([0.0, 0.0]), np.array([1.5, 0.0])
    y = np.array([0.75, 2.0])
    args = {
        "disjoint": (y, a, 0.5, b, 0.5),
        "nested": (y, a, 3.0, b, 1.0),
        "concentric": (y, a, 1.0, a.copy(), 2.0),
        "axis": (np.array([5.0, 0.0]), a, 1.0, b, 1.0),
    }[case]
    assert _two_ball_step(*args) is None


@pytest.mark.parametrize("n, seed", [(2, 3757552657), (3, 673228719)])
def test_default_decoder_roundtrips_converge_within_a_small_cap(n, seed):
    # stable-width's n=2 and n=3 pairs at seed 0; alternating projections
    # took up to 15,447 steps on one of these decoder queries, and the
    # two-ball step brings every query under 10
    K = generate_Kq(32, 1.0, 2000, seed=0)
    pair = build_stable_pair(K, n, seed=seed)
    with mock.patch.object(extend, "_ITERATION_CAP", 32):
        recon = pair.roundtrip_batch(K.points)
    assert recon.shape == K.points.shape


def test_kirszbraun_refuses_non_finite_queries():
    map_, _ = _surface_case(4, 4, 1.0, seed=1)
    X = np.zeros((4, 4))
    for bad in (math.nan, math.inf, -math.inf):
        X[2, 1] = bad
        with pytest.raises(ValueError, match="query row 2 is not finite"):
            kirszbraun_eval_batch(map_, X)
    # finite, but its squared norm overflows
    with pytest.raises(ValueError, match="query row 0 is not finite"):
        kirszbraun_eval_batch(map_, np.full((1, 4), 1e200))


@pytest.mark.parametrize("width", [1, 3, 5, 6])
def test_kirszbraun_refuses_query_rows_of_another_length(width):
    map_, _ = _surface_case(4, 6, 1.0, seed=1)
    with pytest.raises(ValueError, match=f"query rows of length {width} do not "
                                         "match sample rows of length 4"):
        kirszbraun_eval_batch(map_, np.zeros((2, width)))


def test_every_eval_batch_takes_only_the_rows():
    # the tolerance is the engine's constant, so no map's evaluation takes
    # one: every eval_batch in the package is eval_batch(X), and the kernel
    # is kirszbraun_eval_batch(map_, X)
    methods = {}
    for info in pkgutil.iter_modules(widthlab.__path__):
        module = importlib.import_module(f"widthlab.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and "eval_batch" in vars(cls):
                methods[name] = list(inspect.signature(cls.eval_batch).parameters)
    assert methods == {"SampledLipschitzMap": ["self", "X"],
                       "PLInterpolant": ["self", "X"]}
    assert list(inspect.signature(kirszbraun_eval_batch).parameters) == ["map_", "X"]


@pytest.mark.parametrize("side", ["xs", "fs"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sample_set_validation_rejects_non_finite_samples(side, bad):
    samples = {"xs": np.array([[0.0], [1.0], [2.0]]),
               "fs": np.array([[0.0], [0.5], [1.0]])}
    samples[side][1, 0] = bad
    with pytest.raises(ValueError, match="sample 1 is not finite"):
        SampledLipschitzMap(gamma=1.0, **samples)


@pytest.mark.parametrize("xs, fs", [
    (np.zeros((2, 0)), np.array([[0.0], [1.0]])),
    (np.array([[0.0], [1.0]]), np.zeros((2, 0))),
    (np.zeros((1, 0)), np.zeros((1, 0))),
])
def test_sample_set_validation_rejects_rows_of_width_zero(xs, fs):
    with pytest.raises(ValueError, match="rows of positive width"):
        SampledLipschitzMap(xs=xs, fs=fs, gamma=1.0)


def test_lipschitz_audit_exact_on_linear_map():
    rng = np.random.default_rng(5)
    pairs = sample_pairs(rng.standard_normal((30, 3)), 200, seed=1)
    audit = lipschitz_audit(lambda X: 2.0 * X, pairs)
    assert audit.measured == pytest.approx(2.0, abs=1e-9)
    assert audit.ratios.shape == (200,)
    assert np.allclose(audit.ratios, 2.0, rtol=0.0, atol=1e-9)


def test_lipschitz_audit_ratios_on_pairs_sharing_endpoints():
    # three points, each an endpoint of two pairs, and one pair listed again
    # in reverse order; the map squares the first coordinate
    p, q, r = [0.0, 1.0], [1.0, 1.0], [3.0, -1.0]
    pairs = np.array([(p, q), (q, r), (r, p), (q, p)])
    audit = lipschitz_audit(
        lambda X: np.stack([X[:, 0] ** 2, X[:, 1]], axis=1), pairs
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

    audit = lipschitz_audit(fn, pairs)
    uniq, inverse = np.unique(pairs.reshape(-1, 3), axis=0, return_inverse=True)
    assert len(seen) == 1 and seen[0].shape == uniq.shape
    assert (seen[0] == uniq).all()
    ends = inverse.reshape(-1, 2)
    vals = uniq ** 3
    want = (np.linalg.norm(vals[ends[:, 0]] - vals[ends[:, 1]], axis=1)
            / np.linalg.norm(pairs[:, 0] - pairs[:, 1], axis=1))
    assert (audit.ratios == want).all()


@given(
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(1, 130),
    count=st.integers(2, 9),
    grid=st.booleans(),
    signed_zeros=st.booleans(),
)
def test_lipschitz_audit_queries_the_rows_of_np_unique_everywhere(
        seed, width, count, grid, signed_zeros):
    # grid rows share first coordinates with rows that differ later on, and
    # signed zeros are rows equal to rows of other bits; pairs repeat rows
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, width))
    if grid:
        pts = np.round(pts)
    if signed_zeros:
        pts[pts == 0.0] *= np.where(rng.random(int(np.sum(pts == 0.0))) < 0.5,
                                    -1.0, 1.0)
        pts[rng.random(pts.shape) < 0.2] = -0.0
    idx = rng.integers(0, count, (3 * count, 2))
    pairs = pts[idx]
    pairs = pairs[np.any(pairs[:, 0] != pairs[:, 1], axis=1)]
    if len(pairs) == 0:
        return
    seen = []

    def fn(X):
        seen.append(X.copy())
        return X ** 3

    audit = lipschitz_audit(fn, pairs)
    uniq, inverse = np.unique(pairs.reshape(-1, width), axis=0,
                              return_inverse=True)
    assert len(seen) == 1 and seen[0].shape == uniq.shape
    assert (seen[0] == uniq).all()
    ends = inverse.reshape(-1, 2)
    vals = uniq ** 3
    want = (np.linalg.norm(vals[ends[:, 0]] - vals[ends[:, 1]], axis=1)
            / np.linalg.norm(pairs[:, 0] - pairs[:, 1], axis=1))
    assert (audit.ratios == want).all()


def test_lipschitz_audit_rejects_degenerate_pairs():
    with pytest.raises(ValueError):
        lipschitz_audit(lambda X: X, np.empty((0, 2, 1)))
    with pytest.raises(ValueError):
        lipschitz_audit(lambda X: X, np.zeros((1, 2, 1)))


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
