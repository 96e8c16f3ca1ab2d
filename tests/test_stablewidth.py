import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import widthlab.stablewidth as stablewidth
from widthlab.nets import entropy_bracket
from widthlab.spaces import AlphaSequence, generate_Kq, generate_diag_class, norm
from widthlab.stablewidth import (
    CarlInputs,
    JLDistortionError,
    ProbeRecord,
    build_stable_pair,
    carl_cover_bound,
    carl_inputs_from_width_series,
    carl_rate_check,
    evaluate_width,
    hilbert_linear_baseline,
    jl_dim,
    jl_project,
    phi_of_eps,
    stability_probe,
)

from test_spaces import dense_ratio_extremes


def test_jl_dim_known_values():
    # ceil(4 ln 2 / (eps^2/2 - eps^3/3))
    assert jl_dim(0.6) == 26
    assert jl_dim(0.5) == 34
    assert jl_dim(0.9) == math.ceil(
        4.0 * math.log(2.0) / (0.9**2 / 2 - 0.9**3 / 3))


def test_jl_dim_domain():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            jl_dim(bad)


def test_jl_project_certified_distortion():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((40, 30))
    T = jl_project(pts, target_dim=24, seed=3)
    assert T.shape == (24, 30)
    low = pts @ T.T
    d_in = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    d_out = np.linalg.norm(low[:, None] - low[None, :], axis=2)
    mask = d_in > 0
    ratio = d_out[mask] / d_in[mask]
    # rescaled so the worst expansion is exactly 1; contraction at most 1/2
    assert float(ratio.max()) == pytest.approx(1.0, abs=1e-9)
    assert float(ratio.min()) >= 0.5 - 1e-9
    again = jl_project(pts, target_dim=24, seed=3)
    assert np.array_equal(T, again)


def test_jl_project_refuses_a_pair_it_cannot_measure():
    # pair (0, 1) has gaps past the float range in the net and in the
    # first draw's images, so its ratio reads inf / inf
    net = np.array([[1e155, 0.0], [-1e155, 0.0], [0.0, 1e155]])
    with pytest.raises(ValueError, match="samples 0,1 have gaps past the "
                       "float range on both sides; their ratio cannot be measured"):
        jl_project(net, 3, 0)


def dense_jl_project(points, target_dim, seed):
    """jl_project on full distance matrices: the reference it reproduces."""
    worst = -math.inf
    for attempt in range(stablewidth._JL_RETRY_CAP):
        rng = np.random.default_rng([seed, attempt])
        T = rng.standard_normal((target_dim, points.shape[1])) / math.sqrt(target_dim)
        least, largest, _ = dense_ratio_extremes(points, points @ T.T)
        worst = max(worst, least / largest)
        if least / largest >= 0.5:
            return T / largest
    raise JLDistortionError(stablewidth._JL_RETRY_CAP, worst)


@pytest.mark.parametrize("target_dim, seed, draws", [(24, 3, 30), (24, 0, None),
                                                     (40, 1, 1)])
def test_jl_project_equals_the_dense_reference(target_dim, seed, draws):
    # the draw, or the worst ratio of JLDistortionError, bit for bit: seed
    # 3 passes on its 30th draw, seed 0 on none of the 32
    pts = np.random.default_rng(0).standard_normal((40, 30))

    def run(project):
        try:
            return project(pts, target_dim, seed)
        except JLDistortionError as exc:
            return exc.worst_ratio

    got, want = run(jl_project), run(dense_jl_project)
    assert np.array_equal(got, want)
    if draws is None:
        assert isinstance(got, float) and got < 0.5
    else:
        # the returned T is the last draw, rescaled
        raw = np.random.default_rng([seed, draws - 1]).standard_normal((target_dim, 30))
        assert np.allclose(got / got[0, 0], raw / raw[0, 0], rtol=1e-12, atol=0.0)


def test_jl_project_refuses_points_at_distance_zero():
    # the squared gap of rows 0 and 1 underflows to 0; no draw is tried
    pts = np.array([[1e-170, 0.0], [2e-170, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="domain rows 0,1 are at distance 0"):
        jl_project(pts, 2, seed=0)


def small_diag_class():
    return generate_diag_class(AlphaSequence(2.0), 16)


def test_stable_pair_recovers_net_centers():
    K = small_diag_class()
    pair = build_stable_pair(K, n=2, seed=0)
    roundtrip = pair.roundtrip_batch(pair.net.points)
    assert float(np.max(np.linalg.norm(roundtrip - pair.net.points, axis=1))) <= 1e-7


def test_stable_pair_budgets_and_main_inequality():
    K = small_diag_class()
    for n in (1, 2, 3):
        pair = build_stable_pair(K, n=n, seed=1)
        rep = evaluate_width(pair, K, pair_samples=2000, seed=1)
        assert rep.sup_error <= rep.three_eps_upper + 1e-9
        assert rep.three_eps_upper == 3.0 * pair.net.resolution
        # the pair's net is the entropy bracket's cover: one traversal
        assert pair.net.resolution == entropy_bracket(K, n).upper
        assert rep.n == n
        assert rep.lip_a <= 1.05
        assert rep.lip_M <= 2.1
        assert pair.gamma_a == 1.0 and pair.gamma_M == 2.0
        # the budget is the projection dimension of a 2^n-point net, per level
        assert pair.param_dim == 26 * n


def test_evaluate_width_runs_no_farthest_point_traversal(monkeypatch):
    import widthlab.nets as nets

    K = small_diag_class()
    pair = build_stable_pair(K, n=2, seed=3)

    def refuse(*args, **kwargs):
        raise AssertionError("evaluate_width ran a farthest-point traversal")

    monkeypatch.setattr(nets, "_farthest_first", refuse)
    rep = evaluate_width(pair, K, pair_samples=200, seed=3)
    assert rep.n == 2
    assert rep.net_radius == pair.net.resolution


def test_evaluate_width_deterministic():
    K = generate_Kq(12, 1.0, 120, seed=5)
    pair = build_stable_pair(K, n=3, seed=9)
    a = evaluate_width(pair, K, pair_samples=500, seed=9)
    b = evaluate_width(pair, K, pair_samples=500, seed=9)
    assert a.sup_error == b.sup_error
    assert a.lip_a == b.lip_a and a.lip_M == b.lip_M


def test_stability_probe_inequality_fields():
    K = small_diag_class()
    pair = build_stable_pair(K, n=2, seed=2)
    rep = evaluate_width(pair, K, pair_samples=1000, seed=2)
    rng = np.random.default_rng(4)
    for i in range(10):
        record = stability_probe(pair, K, rep.sup_error, rng)
        assert 0.05 <= record.eta < 0.5
        assert record.rhs == pytest.approx(
            2.0 * rep.sup_error + record.eta + pair.gamma_M * record.eta,
            rel=1e-12)
        assert record.passed
        assert record.lhs <= record.rhs + 1e-9


def reference_stability_probe(pair, f, g, eta, e_class, seed=0):
    """stability_probe when it took f, g and eta from its caller."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    gap = float(norm(f - g, 2.0))
    if gap > eta + 1e-12:
        raise ValueError(f"||f - g|| = {gap:.6g} exceeds eta = {eta:.6g}")
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(pair.param_dim)
    direction /= np.linalg.norm(direction)
    y_prime = pair.encoder.eval_batch(g[None, :]) + eta * direction
    decoded = pair.decoder.eval_batch(y_prime)[0]
    lhs = float(norm(f - decoded, 2.0))
    rhs = 2.0 * e_class + eta + pair.gamma_M * eta
    return ProbeRecord(eta=eta, lhs=lhs, rhs=rhs)


def reference_probe_rows(K, pair, rep, seed, probes):
    """The stable-width command's probe loop when the CLI drew the probes."""
    probe_rows = []
    rng = np.random.default_rng(seed + 1)
    for i in range(probes):
        f = K.points[int(rng.integers(K.count))]
        eta = float(rng.uniform(0.05, 0.5))
        direction = rng.standard_normal(f.shape)
        direction /= np.linalg.norm(direction)
        g = f + direction * eta * rng.uniform()
        record = reference_stability_probe(pair, f, g, eta=eta,
                                           e_class=rep.sup_error,
                                           seed=int(rng.integers(2**31)))
        probe_rows.append((i, record.eta, record.lhs, record.rhs, record.passed))
    return probe_rows


@pytest.mark.parametrize("K, n", [(small_diag_class(), 2),
                                  (generate_Kq(12, 1.0, 120, seed=5), 3)])
def test_stability_probe_draws_the_probes_of_the_reference_loop(K, n):
    pair = build_stable_pair(K, n=n, seed=7)
    rep = evaluate_width(pair, K, pair_samples=500, seed=7)
    rng = np.random.default_rng(3 + 1)
    rows = [(i, r.eta, r.lhs, r.rhs, r.passed) for i, r in enumerate(
        stability_probe(pair, K, rep.sup_error, rng) for _ in range(8))]
    assert rows == reference_probe_rows(K, pair, rep, seed=3, probes=8)


def test_hilbert_linear_baseline_monotone_and_exhausts():
    K = small_diag_class()
    vals = [hilbert_linear_baseline(K, n) for n in range(0, 17)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-12
    assert vals[-1] <= 1e-9  # n = ambient dim reproduces the cloud
    assert vals[0] > 0.1


def test_phi_of_eps_dyadic_oracle():
    # index m = 0 is the no-parameter width: delta_m = 2^-m
    inputs = CarlInputs(
        delta_sequence=2.0 ** -np.arange(0.0, 4.0), gamma=2.0, r=1.0)
    assert phi_of_eps(inputs, 1.0) == 0
    assert phi_of_eps(inputs, 0.3) == 2
    assert phi_of_eps(inputs, 0.25) == 2
    assert phi_of_eps(inputs, 0.13) == 3


def test_phi_of_eps_harmonic_oracle():
    # delta_m = 1/(m+1): 1, 0.5, 1/3, 0.25, 0.2, 1/6
    inputs = CarlInputs(
        delta_sequence=1.0 / np.arange(1.0, 7.0), gamma=1.0, r=1.0)
    assert phi_of_eps(inputs, 0.25) == 3
    # below the sequence no m qualifies: the least of the empty set
    assert phi_of_eps(inputs, 0.01) == math.inf


def test_carl_base_constant():
    assert CarlInputs(np.array([0.5]), gamma=2.0, r=1.0).A == 65.0
    assert CarlInputs(np.array([0.5]), gamma=1.0, r=1.0).A == 17.0


def test_carl_cover_bound_monotone_in_eps():
    inputs = CarlInputs(
        delta_sequence=2.0 ** -np.arange(1.0, 11.0), gamma=2.0, r=1.0)
    bounds = [carl_cover_bound(inputs, eps, R=2.0)
              for eps in (1.0, 0.5, 0.25, 0.125)]
    for b in bounds:
        assert b.A == 65.0
        assert math.isfinite(b.log2_bound)
    exponents = [b.exponent for b in bounds]
    for larger_eps, smaller_eps in zip(exponents, exponents[1:]):
        assert larger_eps <= smaller_eps


def test_carl_inputs_from_width_series_running_min():
    K = small_diag_class()
    reports = []
    for n in (1, 2, 3):
        pair = build_stable_pair(K, n=n, seed=n)
        reports.append(evaluate_width(pair, K, pair_samples=400, seed=n))
    delta0 = float(np.max(np.linalg.norm(K.points, axis=1)))
    inputs = carl_inputs_from_width_series(reports, delta0=delta0, gamma=2.0,
                                           r=1.0)
    seq = np.asarray(inputs.delta_sequence)
    assert np.all(np.diff(seq) <= 1e-12)
    assert seq[0] <= delta0 + 1e-12


def test_carl_rate_check_produces_finite_constant():
    K = small_diag_class()
    reports, entropy_series = [], []
    for n in (1, 2, 3):
        pair = build_stable_pair(K, n=n, seed=n)
        reports.append(evaluate_width(pair, K, pair_samples=400, seed=n))
        entropy_series.append(entropy_bracket(K, n))
    delta0 = float(np.max(np.linalg.norm(K.points, axis=1)))
    inputs = carl_inputs_from_width_series(reports, delta0=delta0, gamma=2.0,
                                           r=1.0)
    rate = carl_rate_check(inputs, entropy_series)
    assert math.isfinite(rate.C)
    assert rate.C >= 0.0
    assert len(rate.rows) == len(reports)
