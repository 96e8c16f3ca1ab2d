import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthlab.nets import entropy_bracket
from widthlab.spaces import AlphaSequence, generate_Kq, generate_diag_class
from widthlab.stablewidth import (
    CarlInputs,
    PhiUndefinedError,
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


def small_diag_class():
    return generate_diag_class(AlphaSequence(2.0), 16)


def test_stable_pair_recovers_net_centers():
    K = small_diag_class()
    pair = build_stable_pair(K, n=2, seed=0)
    roundtrip = pair.roundtrip_batch(pair.net.centers, tol=1e-8)
    assert float(np.max(np.linalg.norm(roundtrip - pair.net.centers, axis=1))) <= 1e-7


def test_stable_pair_budgets_and_main_inequality():
    K = small_diag_class()
    for n in (1, 2, 3):
        pair = build_stable_pair(K, n=n, seed=1)
        rep = evaluate_width(pair, K, pair_samples=2000, seed=1)
        assert rep.sup_error <= rep.three_eps_upper + 1e-9
        assert rep.three_eps_upper == 3.0 * pair.net.radius
        # the pair's net is the entropy bracket's cover: one traversal
        assert pair.net.radius == entropy_bracket(K, n).upper
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
    assert rep.net_radius == pair.net.radius


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
        f = K.points[int(rng.integers(K.count))]
        eta = float(rng.uniform(0.05, 0.4))
        direction = rng.standard_normal(f.shape)
        direction /= np.linalg.norm(direction)
        g = f + direction * eta * float(rng.uniform())
        record = stability_probe(pair, f, g, eta=eta, e_class=rep.sup_error,
                                 seed=int(rng.integers(2**31)))
        assert record.rhs == pytest.approx(
            2.0 * rep.sup_error + record.eta + pair.gamma_M * record.eta,
            rel=1e-12)
        assert record.passed
        assert record.lhs <= record.rhs + 1e-9


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
    with pytest.raises(PhiUndefinedError):
        phi_of_eps(inputs, 0.01)


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
