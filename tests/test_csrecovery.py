import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import widthlab.csrecovery as csrecovery
from widthlab.csrecovery import (
    L1ConvergenceError,
    SensingMatrix,
    build_nonlinear_pair,
    gaussian_matrix,
    instance_optimality_trials,
    l1_decode,
    op_norm_bracket,
    operator_norm_bound_check,
    rip_check,
    sigma_k,
)
from widthlab.spaces import generate_sparse_class


def test_sigma_k_known_values():
    x = np.array([3.0, 2.0, 1.0])
    assert sigma_k(x, 1) == pytest.approx(math.sqrt(5.0))
    assert sigma_k(x, 1, p=1.0) == pytest.approx(3.0)
    assert sigma_k(np.array([1.0, -2.0, 3.0]), 2, p=1.0) == pytest.approx(1.0)
    assert sigma_k(x, 3) == 0.0
    assert sigma_k(x, 7) == 0.0
    with pytest.raises(ValueError):
        sigma_k(x, -1)


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=0, max_value=8))
def test_sigma_k_monotone_and_dominated(seed, k):
    x = np.random.default_rng(seed).standard_normal(8)
    assert sigma_k(x, k) <= sigma_k(x, max(k - 1, 0)) + 1e-12
    assert sigma_k(x, k) <= float(np.linalg.norm(x)) + 1e-12


def test_gaussian_matrix_shape_and_determinism():
    Phi = gaussian_matrix(12, 40, seed=5)
    assert Phi.matrix.shape == (12, 40)
    assert Phi.n == 12 and Phi.N == 40
    again = gaussian_matrix(12, 40, seed=5)
    assert np.array_equal(Phi.matrix, again.matrix)


def test_rip_order_one_delta_is_exact_column_deviation():
    Phi = gaussian_matrix(20, 50, seed=2)
    cert = rip_check(Phi, 1)
    cols = np.linalg.norm(Phi.matrix, axis=0)
    expected = float(np.max(np.abs(cols - 1.0)))
    assert cert.delta == pytest.approx(expected, abs=1e-12)
    assert cert.exhaustive
    assert cert.supports_checked == 50


def test_rip_identity_matrix_is_a_perfect_isometry():
    Phi = SensingMatrix(matrix=np.eye(6))
    for k in (1, 2, 3):
        cert = rip_check(Phi, k)
        assert cert.delta == pytest.approx(0.0, abs=1e-12)


def test_rip_sampled_mode_reports_support_count():
    # C(60, 3) = 34,220 supports exceed the 200-sample budget
    Phi = gaussian_matrix(16, 60, seed=3)
    cert = rip_check(Phi, 3, samples=200, seed=1)
    assert not cert.exhaustive
    assert cert.supports_checked == 200
    assert 0.0 <= cert.delta < 1.0


def test_op_norm_bracket_endpoints_are_tight():
    Phi = gaussian_matrix(15, 45, seed=7)
    b1 = op_norm_bracket(Phi, 1.0)
    assert b1.lower == b1.upper
    assert b1.lower == pytest.approx(
        float(np.max(np.linalg.norm(Phi.matrix, axis=0))), abs=1e-12)
    b2 = op_norm_bracket(Phi, 2.0)
    true_spec = float(np.linalg.svd(Phi.matrix, compute_uv=False)[0])
    assert b2.lower <= true_spec * (1.0 + 1e-7)
    assert b2.upper >= true_spec * (1.0 - 1e-7)
    assert (b2.upper - b2.lower) <= 1e-6 * true_spec


@pytest.mark.parametrize("seed", [4270433696, *range(0, 200, 10)])
def test_op_norm_bracket_contains_the_spectral_norm(seed):
    # matrix seed 4270433696 has sigma_2 within 0.2% of sigma_1, where an
    # iterative estimate converges slowly and from below
    Phi = gaussian_matrix(40, 128, seed=seed)
    sigma = float(np.linalg.norm(Phi.matrix, 2))
    b2 = op_norm_bracket(Phi, 2.0, seed=seed)
    assert b2.lower <= sigma <= b2.upper
    # the p = 1.5 upper end interpolates the p = 1 and p = 2 norms, so it
    # must reach the interpolation bound at the true spectral norm
    theta = 2.0 / 1.5 - 1.0
    norm_1 = float(np.max(np.linalg.norm(Phi.matrix, axis=0)))
    b15 = op_norm_bracket(Phi, 1.5, seed=seed)
    assert b15.upper >= norm_1**theta * sigma ** (1.0 - theta) * (1.0 - 1e-12)
    assert b15.lower <= b15.upper


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.sampled_from([1.0, 1.25, 1.5, 1.75, 2.0]))
@settings(max_examples=25)
def test_op_norm_bracket_ordering(seed, p):
    Phi = gaussian_matrix(8, 20, seed=seed)
    bracket = op_norm_bracket(Phi, p, seed=seed)
    assert bracket.lower <= bracket.upper + 1e-9
    assert bracket.lower > 0


def test_op_norm_bracket_contains_witness_objectives():
    # the lower bound is a max over feasible unit-ball candidates, so any
    # specific candidate value must sit below it
    Phi = gaussian_matrix(10, 30, seed=11)
    bracket = op_norm_bracket(Phi, 1.5, seed=11)
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.standard_normal(30)
        v /= np.sum(np.abs(v) ** 1.5) ** (1.0 / 1.5)
        assert float(np.linalg.norm(Phi.matrix @ v)) <= bracket.upper + 1e-9


def test_operator_norm_bound_check_inequalities():
    for seed in range(5):
        Phi = gaussian_matrix(40, 128, seed=seed)
        for p in (1.0, 1.5, 2.0):
            rep = operator_norm_bound_check(Phi, p, seed=seed)
            assert rep.upper_holds
            assert rep.lower_holds
            scale = 128.0 ** (1.0 - 1.0 / p)
            assert rep.upper_bound == pytest.approx((1.0 + rep.delta) * scale)
            assert rep.derived_lower == pytest.approx(
                (1.0 - rep.delta) * scale / math.sqrt(40.0))
            # the inverted reading is weaker on the lower side
            assert rep.derived_lower <= rep.inverted_lower + 1e-12


def test_l1_decode_satisfies_measurements_exactly():
    Phi = gaussian_matrix(12, 32, seed=4)
    rng = np.random.default_rng(1)
    x0 = np.zeros(32)
    x0[[3, 17]] = rng.standard_normal(2)
    y = Phi.matrix @ x0
    xhat = l1_decode(Phi, y)
    assert float(np.linalg.norm(Phi.matrix @ xhat - y)) <= 1e-9


class NoSparseFitError(RuntimeError):
    """No support of the requested size fits the measurements exactly."""


def brute_sparse_decode(Phi: SensingMatrix, y: np.ndarray, k: int) -> np.ndarray:
    """Oracle decoder: least squares on every size-k support.

    Among supports fitting the measurements exactly (residual <= 1e-9) the
    reconstruction of minimal l_1 norm wins, lexicographically first support
    on ties.  Refuses more than 10^5 supports.
    """
    y = np.asarray(y, dtype=float)
    if k == 0:
        if np.linalg.norm(y) <= 1e-9:
            return np.zeros(Phi.N)
        raise NoSparseFitError("k = 0 but measurements are nonzero")
    if not (1 <= k <= Phi.N):
        raise ValueError(f"need 0 <= k <= N, got k={k}")
    total = math.comb(Phi.N, k)
    if total > 10**5:
        raise ValueError(f"refusing enumeration over {total} supports")
    best: np.ndarray | None = None
    best_l1 = math.inf
    for support in itertools.combinations(range(Phi.N), k):
        sub = Phi.matrix[:, list(support)]
        coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
        if np.linalg.norm(sub @ coef - y) > 1e-9:
            continue
        candidate = np.zeros(Phi.N)
        candidate[list(support)] = coef
        l1 = float(np.sum(np.abs(candidate)))
        if l1 < best_l1 - 1e-15:
            best, best_l1 = candidate, l1
    if best is None:
        raise NoSparseFitError(f"no exact fit on any support of size {k}")
    return best


def test_l1_decode_matches_brute_oracle_on_small_instances():
    rng = np.random.default_rng(3)
    for seed in range(6):
        Phi = gaussian_matrix(12, 24, seed=seed)
        x0 = np.zeros(24)
        support = rng.choice(24, size=2, replace=False)
        x0[support] = rng.standard_normal(2)
        x0 /= np.linalg.norm(x0)
        y = Phi.matrix @ x0
        via_l1 = l1_decode(Phi, y)
        via_brute = brute_sparse_decode(Phi, y, 2)
        assert float(np.linalg.norm(via_l1 - via_brute)) <= 1e-6
        assert float(np.linalg.norm(via_brute - x0)) <= 1e-8


def reference_l1_decode(Phi, y, cap=20000):
    """The l1_decode loop that solves through cho_solve and np.linalg.norm."""
    from scipy.linalg import cho_factor, cho_solve

    y = np.asarray(y, dtype=float)
    mat = Phi.matrix
    gram = cho_factor(mat @ mat.T)

    def project(v):
        return v - mat.T @ cho_solve(gram, mat @ v - y)

    def shrink(v):
        return np.sign(v) * np.maximum(np.abs(v) - 1.0, 0.0)

    z = project(np.zeros(Phi.N))
    w = z
    for _ in range(cap):
        x = shrink(z)
        w = project(2.0 * x - z)
        z = z + w - x
        gap = float(np.linalg.norm(w - x))
        if gap <= 1e-8 * max(1.0, float(np.linalg.norm(w))):
            return w
    raise L1ConvergenceError(gap, cap, w)


def _planted(Phi, k, seed):
    rng = np.random.default_rng(seed)
    x0 = np.zeros(Phi.N)
    x0[rng.choice(Phi.N, size=k, replace=False)] = rng.standard_normal(k)
    return Phi.matrix @ (x0 / np.linalg.norm(x0))


@pytest.mark.parametrize("n, N, k", [(40, 128, 4), (12, 32, 2), (20, 24, 5)])
def test_l1_decode_equals_the_cho_solve_loop(n, N, k):
    for seed in range(10):
        Phi = gaussian_matrix(n, N, seed=seed)
        y = _planted(Phi, k, seed + 100)
        assert np.array_equal(l1_decode(Phi, y), reference_l1_decode(Phi, y))
    # a dense signal, which l_1 does not recover
    y = Phi.matrix @ np.random.default_rng(7).standard_normal(N)
    assert np.array_equal(l1_decode(Phi, y), reference_l1_decode(Phi, y))


def test_capped_l1_decode_equals_the_capped_cho_solve_loop(monkeypatch):
    monkeypatch.setattr(csrecovery, "_L1_ITERATION_CAP", 7)
    Phi = gaussian_matrix(40, 128, seed=0)
    y = _planted(Phi, 4, 1)
    with pytest.raises(L1ConvergenceError) as got:
        l1_decode(Phi, y)
    with pytest.raises(L1ConvergenceError) as want:
        reference_l1_decode(Phi, y, cap=7)
    assert got.value.gap == want.value.gap
    assert got.value.iterations == want.value.iterations == 7
    assert np.array_equal(got.value.iterate, want.value.iterate)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_l1_decode_rejects_non_finite_measurements(bad):
    Phi = gaussian_matrix(12, 32, seed=4)
    y = _planted(Phi, 2, 0)
    y[5] = bad
    with pytest.raises(ValueError, match="finite"):
        l1_decode(Phi, y)


def test_brute_decode_refuses_huge_support_searches():
    Phi = gaussian_matrix(10, 400, seed=0)
    with pytest.raises(ValueError):
        brute_sparse_decode(Phi, np.zeros(10), 5)


def test_build_nonlinear_pair_constants_come_from_the_net_pairs():
    Phi = gaussian_matrix(24, 48, seed=6)
    net = generate_sparse_class(48, 3, 150, seed=6)
    pair = build_nonlinear_pair(Phi, net)
    cert = rip_check(Phi, 6, seed=6)
    xs = net.points
    ratios = [
        np.linalg.norm(Phi.matrix @ (xs[i] - xs[j])) / np.linalg.norm(xs[i] - xs[j])
        for i in range(len(xs)) for j in range(i)
    ]
    assert pair.gamma_a == pytest.approx(max(ratios), rel=1e-12)
    assert pair.gamma_M == pytest.approx(1.0 / min(ratios), rel=1e-12)
    # the order-2k certificate is computed beside the pair, as a diagnostic
    assert cert.order == 6
    assert not cert.exhaustive and cert.supports_checked == 1000
    assert 0.0 <= cert.delta < 1.0


def test_build_nonlinear_pair_computes_no_certificate(monkeypatch):
    import widthlab.csrecovery as csrecovery

    def refuse(*args, **kwargs):
        raise AssertionError("build_nonlinear_pair ran rip_check")

    monkeypatch.setattr(csrecovery, "rip_check", refuse)
    Phi = gaussian_matrix(12, 24, seed=3)
    net = generate_sparse_class(24, 2, 30, seed=3)
    pair = build_nonlinear_pair(Phi, net)
    assert pair.param_dim == 12
    assert np.array_equal(pair.net.centers, net.points)
    assert pair.net.radius == net.resolution


def test_build_nonlinear_pair_holds_where_the_sampled_certificate_understates():
    # the default cs inputs at seed 1596810411: the sampled delta_2k is
    # 0.6068, but one net pair stretches by 1.6100 > 1 + delta, so budgets
    # taken from the certificate broke on the net itself
    seed, k = 1596810411, 4
    Phi = gaussian_matrix(40, 128, seed=seed)
    net = generate_sparse_class(128, k, 400, seed=seed + 2)
    pair = build_nonlinear_pair(Phi, net)
    cert = rip_check(Phi, 2 * k, seed=seed)
    assert pair.gamma_a > 1.0 + cert.delta
    assert pair.gamma_a == pytest.approx(1.6100374829155297, rel=1e-12)
    report = instance_optimality_trials(pair, k, trials=20, seed=seed + 3)
    assert report.C == pytest.approx(pair.gamma_a * pair.gamma_M)
    assert report.all_passed


def test_instance_optimality_small_run_all_pass():
    Phi = gaussian_matrix(24, 48, seed=8)
    net = generate_sparse_class(48, 3, 150, seed=8)
    pair = build_nonlinear_pair(Phi, net)
    report = instance_optimality_trials(pair, 3, trials=20, seed=8)
    assert report.C == pytest.approx(pair.gamma_a * pair.gamma_M)
    assert report.net_resolution > 0
    assert len(report.trials) == 20
    for trial in report.trials:
        assert trial.passed
        assert trial.bound == pytest.approx(
            (report.C + 1.0) * trial.sigma
            + (1.0 + report.C) * report.net_resolution, rel=1e-12)
