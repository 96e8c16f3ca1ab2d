import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import widthlab.csrecovery as csrecovery
import widthlab.spaces as spaces
from widthlab.csrecovery import (
    L1ConvergenceError,
    RipCertificate,
    SensingMatrix,
    build_nonlinear_pair,
    gaussian_matrix,
    instance_optimality_trials,
    l1_decode,
    op_norm_bracket,
    operator_norm_bound_check,
    planted_recovery_trials,
    rip_check,
    sigma_k,
)
from widthlab.spaces import (
    ModelClassSurrogate,
    generate_sparse_class,
    norm,
)
from test_extend import dense_sample_check, outcome
from test_spaces import dense_ratio_extremes


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


def reference_rip_check(Phi, k, samples=1000, seed=0):
    """rip_check one support at a time: an SVD of each column submatrix.

    The reference the stacked SVDs reproduce under ==.
    """
    def support_delta(support):
        svals = np.linalg.svd(Phi.matrix[:, list(support)], compute_uv=False)
        return max(1.0 - float(svals[-1]), float(svals[0]) - 1.0, 0.0)

    total = math.comb(Phi.N, k)
    if total <= samples:
        delta = max(support_delta(s)
                    for s in itertools.combinations(range(Phi.N), k))
        return RipCertificate(order=k, delta=delta, exhaustive=True,
                              supports_checked=total)
    rng = np.random.default_rng(seed)
    delta = 0.0
    for _ in range(samples):
        support = rng.choice(Phi.N, size=k, replace=False)
        delta = max(delta, support_delta(support))
    return RipCertificate(order=k, delta=delta, exhaustive=False,
                          supports_checked=samples)


RIP_CASES = [
    # exhaustive: C(6, k) <= 1000 supports, and C(9, 3) = 84 of a 5 x 9
    (SensingMatrix(np.eye(6)), 2, 1000),
    (SensingMatrix(np.eye(6)), 3, 1000),
    (gaussian_matrix(5, 9, seed=12), 3, 1000),
    # sampled: C(60, 3) = 34,220 supports
    (gaussian_matrix(16, 60, seed=3), 3, 1),
    (gaussian_matrix(16, 60, seed=3), 3, 200),
    (gaussian_matrix(16, 60, seed=3), 3, 1000),
]
RIP_IDS = ["eye6-k2", "eye6-k3", "gauss5x9-k3",
           "sampled-1", "sampled-200", "sampled-1000"]


@pytest.mark.parametrize("budget", [1, 7, spaces._BLOCK_ELEMENTS])
@pytest.mark.parametrize("Phi, k, samples", RIP_CASES, ids=RIP_IDS)
def test_rip_check_equals_the_per_support_loop(Phi, k, samples, budget):
    for seed in (0, 5):
        with mock.patch.object(spaces, "_BLOCK_ELEMENTS", budget):
            got = rip_check(Phi, k, samples=samples, seed=seed)
        assert got == reference_rip_check(Phi, k, samples=samples, seed=seed)


@pytest.mark.parametrize("budget", [1, 7, 1000, spaces._BLOCK_ELEMENTS])
@pytest.mark.parametrize("Phi, k, samples", RIP_CASES, ids=RIP_IDS)
def test_rip_check_stacks_at_most_one_block(Phi, k, samples, budget):
    # every support is in exactly one stack, and no stack holds more than
    # budget / (n k) submatrices, one if a submatrix alone exceeds budget
    stacks = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        stacks.append(a.shape)
        return svd(a, *args, **kwargs)

    with mock.patch.object(spaces, "_BLOCK_ELEMENTS", budget), \
            mock.patch.object(np.linalg, "svd", recording_svd):
        cert = rip_check(Phi, k, samples=samples)
    block = max(1, budget // (Phi.n * k))
    assert all(shape[1:] == (Phi.n, k) for shape in stacks)
    assert [shape[0] for shape in stacks[:-1]] == [block] * (len(stacks) - 1)
    assert 1 <= stacks[-1][0] <= block
    assert sum(shape[0] for shape in stacks) == cert.supports_checked


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
    Phi = gaussian_matrix(40, 128, seed=seed)
    sigma = float(np.linalg.norm(Phi.matrix, 2))
    b2 = op_norm_bracket(Phi, 2.0)
    assert b2.lower <= sigma <= b2.upper
    # the p = 1.5 upper end interpolates the p = 1 and p = 2 norms, so it
    # must reach the interpolation bound at the true spectral norm
    theta = 2.0 / 1.5 - 1.0
    norm_1 = float(np.max(np.linalg.norm(Phi.matrix, axis=0)))
    b15 = op_norm_bracket(Phi, 1.5)
    assert b15.upper >= norm_1**theta * sigma ** (1.0 - theta) * (1.0 - 1e-12)
    assert b15.lower <= b15.upper


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.sampled_from([1.0, 1.25, 1.5, 1.75, 2.0]))
@settings(max_examples=25)
def test_op_norm_bracket_ordering(seed, p):
    Phi = gaussian_matrix(8, 20, seed=seed)
    bracket = op_norm_bracket(Phi, p)
    assert bracket.lower <= bracket.upper + 1e-9
    assert bracket.lower > 0


def test_op_norm_bracket_contains_witness_objectives():
    # the lower bound is a max over feasible unit-ball candidates, so any
    # specific candidate value must sit below it
    Phi = gaussian_matrix(10, 30, seed=11)
    bracket = op_norm_bracket(Phi, 1.5)
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.standard_normal(30)
        v /= np.sum(np.abs(v) ** 1.5) ** (1.0 / 1.5)
        assert float(np.linalg.norm(Phi.matrix @ v)) <= bracket.upper + 1e-9


def test_operator_norm_bound_check_inequalities():
    for seed in range(5):
        Phi = gaussian_matrix(40, 128, seed=seed)
        for p in (1.0, 1.5, 2.0):
            rep = operator_norm_bound_check(Phi, p)
            assert rep.upper_holds
            assert rep.lower_holds
            scale = 128.0 ** (1.0 - 1.0 / p)
            assert rep.upper_bound == pytest.approx((1.0 + rep.delta) * scale)
            assert rep.derived_lower == pytest.approx(
                (1.0 - rep.delta) * scale / math.sqrt(40.0))


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=48),
    N=st.integers(min_value=1, max_value=160),
    p=st.sampled_from([1.1, 1.25, 1.5, 1.75, 1.9]),
    fortran=st.booleans(),
    columns=st.sampled_from(["plain", "duplicated", "zero", "tiny"]),
)
@settings(max_examples=80)
def test_op_norm_bracket_lower_end_is_the_better_witness(seed, n, N, p,
                                                         fortran, columns):
    # duplicated and zero columns, and entries near the bottom of the float
    # range, on C- and Fortran-ordered matrices
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n, N))
    if columns == "duplicated":
        mat[:, rng.integers(N, size=N // 2)] = mat[:, rng.integers(N, size=N // 2)]
    elif columns == "zero":
        mat[:, rng.integers(N, size=(N + 1) // 2)] = 0.0
    elif columns == "tiny":
        mat *= 1e-100
    Phi = SensingMatrix(np.asfortranarray(mat) if fortran else mat)
    norm_1 = float(np.max(np.linalg.norm(Phi.matrix, axis=0)))
    _, svals, vt = np.linalg.svd(Phi.matrix, full_matrices=False)
    witness = float(svals[0]) / float(norm(vt[0], p))
    # the closed form is the objective's value at v = vt[0]
    assert witness == pytest.approx(
        float(np.linalg.norm(Phi.matrix @ vt[0])) / float(norm(vt[0], p)),
        rel=1e-9)
    bracket = op_norm_bracket(Phi, p)
    assert bracket.lower == min(max(norm_1, witness), bracket.upper)


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


def reference_l1_decode(Phi, y):
    """Minimum-l_1 decoding by Douglas-Rachford splitting, through cho_solve.

    Alternates l_1 shrinkage with exact projection onto Phi x = y and stops
    when the two agree to 1e-8, relative to the iterate.
    """
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
    for _ in range(20000):
        x = shrink(z)
        w = project(2.0 * x - z)
        z = z + w - x
        gap = float(np.linalg.norm(w - x))
        if gap <= 1e-8 * max(1.0, float(np.linalg.norm(w))):
            return w
    raise L1ConvergenceError(gap, 20000, w)


def _planted(Phi, k, seed):
    rng = np.random.default_rng(seed)
    x0 = np.zeros(Phi.N)
    x0[rng.choice(Phi.N, size=k, replace=False)] = rng.standard_normal(k)
    return Phi.matrix @ (x0 / np.linalg.norm(x0))


def assert_certified(Phi, y, x, w, eps=1e-9):
    """The three bounds of l1_decode's dual certificate w for x."""
    mat = Phi.matrix
    l1 = float(np.sum(np.abs(x)))
    assert float(np.max(np.abs(mat.T @ w), initial=0.0)) <= 1.0 + eps
    assert float(np.linalg.norm(mat @ x - y)) <= eps * float(np.linalg.norm(y))
    assert l1 - float(y @ w) <= eps * l1


def linprog_l1_decode(Phi, y):
    """Minimum-l_1 solution of Phi x = y as a HiGHS linear program."""
    from scipy.optimize import linprog

    mat, N = Phi.matrix, Phi.N
    res = linprog(np.ones(2 * N), A_eq=np.hstack([mat, -mat]), b_eq=y,
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return res.x[:N] - res.x[N:]


@pytest.mark.parametrize("n, N, k", [(40, 128, 4), (12, 32, 2), (20, 24, 5)])
def test_l1_decode_equals_the_cho_solve_loop(n, N, k):
    # the homotopy's certified minimiser agrees with the Douglas-Rachford
    # loop it replaced, up to that loop's stopping tolerance
    for seed in range(10):
        Phi = gaussian_matrix(n, N, seed=seed)
        y = _planted(Phi, k, seed + 100)
        x, w = csrecovery._l1_homotopy(Phi, y)
        ref = reference_l1_decode(Phi, y)
        assert np.array_equal(l1_decode(Phi, y), x)
        assert float(np.linalg.norm(x - ref)) <= 1e-6
        assert np.sum(np.abs(x)) <= np.sum(np.abs(ref)) + 1e-12
        assert_certified(Phi, y, x, w)
    # a dense signal, which l_1 does not recover; the loop stops 1.1e-6
    # from the minimiser at (40, 128), so a linear program is the oracle
    y = Phi.matrix @ np.random.default_rng(7).standard_normal(N)
    x, w = csrecovery._l1_homotopy(Phi, y)
    assert float(np.linalg.norm(x - linprog_l1_decode(Phi, y))) <= 1e-9
    assert np.sum(np.abs(x)) <= np.sum(np.abs(reference_l1_decode(Phi, y))) + 1e-12
    assert_certified(Phi, y, x, w)


def test_l1_decode_stops_at_the_step_cap_on_a_lasso_minimiser(monkeypatch):
    monkeypatch.setattr(csrecovery, "_L1_ITERATION_CAP", 3)
    Phi = gaussian_matrix(40, 128, seed=0)
    y = _planted(Phi, 4, 1)
    with pytest.raises(L1ConvergenceError) as got:
        l1_decode(Phi, y)
    assert got.value.iterations == 3
    x = got.value.iterate
    resid = float(np.linalg.norm(Phi.matrix @ x - y)) / float(np.linalg.norm(y))
    assert got.value.gap >= resid > 1e-9
    # the lasso minimiser at the third breakpoint: the first two columns
    # joined before it, and the third joins there at coefficient 0, with
    # correlation lam on the support and at most lam off it
    corr = Phi.matrix.T @ (y - Phi.matrix @ x)
    lam = float(np.max(np.abs(corr)))
    on = np.flatnonzero(x)
    assert len(on) == 2
    assert np.allclose(corr[on], lam * np.sign(x[on]), rtol=0.0, atol=1e-12)
    assert int(np.sum(np.abs(corr) >= lam * (1.0 - 1e-12))) == 3
    # without the cap the same solve ends certified
    monkeypatch.undo()
    assert float(np.linalg.norm(Phi.matrix @ l1_decode(Phi, y) - y)) <= 1e-9


def test_l1_decode_never_returns_a_missed_certificate(monkeypatch):
    # every defect read 1 too high: the end of the path is raised, not
    # returned
    Phi = gaussian_matrix(40, 128, seed=0)
    y = _planted(Phi, 4, 1)
    x = l1_decode(Phi, y)
    defect = csrecovery._l1_defect
    monkeypatch.setattr(csrecovery, "_l1_defect",
                        lambda *args: defect(*args) + 1.0)
    with pytest.raises(L1ConvergenceError) as got:
        l1_decode(Phi, y)
    assert 1.0 <= got.value.gap <= 1.0 + 1e-9
    assert np.array_equal(got.value.iterate, x)


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.integers(1, 24).flatmap(
        lambda N: st.tuples(st.integers(1, N), st.just(N))),
    kind=st.sampled_from(["sparse", "dense", "zero"]),
)
def test_l1_decode_returns_only_certified_solutions(seed, shape, kind):
    # Gaussian matrices up to square, where every column enters the path
    n, N = shape
    Phi = gaussian_matrix(n, N, seed=seed)
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(N)
    if kind == "sparse":
        x0[rng.permutation(N)[max(1, n // 2):]] = 0.0
    elif kind == "zero":
        x0[:] = 0.0
    y = Phi.matrix @ x0
    x, w = csrecovery._l1_homotopy(Phi, y)
    assert np.array_equal(l1_decode(Phi, y), x)
    assert_certified(Phi, y, x, w)
    assert np.sum(np.abs(x)) <= np.sum(np.abs(x0)) * (1.0 + 1e-9)


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


def reference_planted_rows(Phi, N, k, trials, seed, l1_decode):
    """The cs command's planted loop when the CLI ran it, l1_decode passed in."""
    rng = np.random.default_rng(seed + 1)
    recovery_rows = []
    successes = 0
    capped = 0
    for t in range(trials):
        support = rng.choice(N, size=k, replace=False)
        x0 = np.zeros(N)
        x0[support] = rng.standard_normal(k)
        x0 /= np.linalg.norm(x0)
        try:
            xhat = l1_decode(Phi, Phi.matrix @ x0)
        except L1ConvergenceError as exc:
            xhat = exc.iterate
            capped += 1
        err = float(np.linalg.norm(xhat - x0))
        ok = err <= 1e-5
        successes += ok
        recovery_rows.append((t, err, ok))
    return recovery_rows, successes, capped


def capped_every_third():
    """l1_decode, capped with half its solution on every third call."""
    calls = []

    def decode(Phi, y):
        calls.append(None)
        xhat = l1_decode(Phi, y)
        if len(calls) % 3 == 0:
            raise L1ConvergenceError(1e-3, 20_000, 0.5 * xhat)
        return xhat

    return decode


@pytest.mark.parametrize("capped_solves", [False, True])
def test_planted_recovery_trials_equal_the_reference_loop(monkeypatch,
                                                          capped_solves):
    Phi = gaussian_matrix(20, 40, seed=0)
    solve = l1_decode
    if capped_solves:
        monkeypatch.setattr(csrecovery, "l1_decode", capped_every_third())
        solve = capped_every_third()
    errors, capped = planted_recovery_trials(Phi, 2, 10, seed=1)
    rows, successes, ref_capped = reference_planted_rows(Phi, 40, 2, 10, 0,
                                                         solve)
    assert [(t, err, err <= 1e-5) for t, err in enumerate(errors)] == rows
    assert (capped, sum(err <= 1e-5 for err in errors)) == (ref_capped,
                                                            successes)
    assert capped == (3 if capped_solves else 0)
    assert successes == (7 if capped_solves else 10)


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
    assert np.array_equal(pair.net.points, net.points)
    assert pair.net.resolution == net.resolution


def test_build_nonlinear_pair_keeps_its_net():
    # the sparse class is the pair's net as given, resolution included
    Phi = gaussian_matrix(12, 24, seed=3)
    net = generate_sparse_class(24, 2, 30, seed=3)
    assert build_nonlinear_pair(Phi, net).net is net


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
    assert all(trial.passed for trial in report.trials)


def dense_budgets(Phi, net):
    """build_nonlinear_pair on full distance matrices: (gamma_a, gamma_M).

    The reference the screened budgets reproduce, == or by the same
    ValueError, with both sampled maps' checks run as they were.
    """
    xs = net.points
    images = xs @ Phi.matrix.T
    least, largest, _ = dense_ratio_extremes(xs, images)
    if not least > 0.0:
        raise ValueError("Phi maps two net points to one image; pair undefined")
    gamma_a, gamma_M = largest, 1.0 / least
    # the sampled maps of EncoderDecoderPair.over_net
    for domain, targets, gamma in ((xs, images, gamma_a), (images, xs, gamma_M)):
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        dense_sample_check(domain, targets, gamma)
    return gamma_a, gamma_M


def budgets(Phi, net):
    pair = build_nonlinear_pair(Phi, net)
    return pair.gamma_a, pair.gamma_M


def assert_budgets_equal_the_dense_budgets(Phi, net):
    got, want = outcome(budgets, Phi, net), outcome(dense_budgets, Phi, net)
    assert got == want
    if got is None:
        # == on the values, not only on the verdict
        with np.errstate(over="ignore", invalid="ignore"):
            assert budgets(Phi, net) == dense_budgets(Phi, net)
    return got


def test_budgets_hand_made_cases_equal_the_dense_budgets():
    rng = np.random.default_rng(22)
    # an isometry up to rounding: every pair ratio ties with every other
    Q = SensingMatrix(np.linalg.qr(rng.standard_normal((6, 6)))[0] * 3.0)
    tied = ModelClassSurrogate(rng.standard_normal((40, 6)) + 1e3)
    assert assert_budgets_equal_the_dense_budgets(Q, tied) is None
    # distinct rows whose squared gap underflows to 0
    tiny = ModelClassSurrogate(np.array([[1e-170, 0.0], [2e-170, 0.0], [1.0, 2.0]]))
    Phi = SensingMatrix(np.array([[1.0, 2.0], [0.5, -1.0]]))
    assert assert_budgets_equal_the_dense_budgets(Phi, tiny).startswith(
        "domain rows 0,1 are at distance 0")
    # two net points on one image
    flat = SensingMatrix(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    net = ModelClassSurrogate(np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 1.0],
                                        [2.0, 0.0, 0.0]]))
    assert assert_budgets_equal_the_dense_budgets(flat, net).startswith(
        "Phi maps two net points")
    # squared norms whose Gram form overflows, on both sides
    far = ModelClassSurrogate(np.array([[5.0, 0.0], [0.0, 5.0], [-5.0, 0.0],
                                        [1.0, 2.0]]) * 1e153)
    assert assert_budgets_equal_the_dense_budgets(Phi, far) is None
    # two points, and one
    two = ModelClassSurrogate(np.array([[0.0, 1.0], [3.0, -1.0]]))
    assert assert_budgets_equal_the_dense_budgets(Phi, two) is None
    with pytest.raises(ValueError, match="two points"):
        build_nonlinear_pair(Phi, ModelClassSurrogate(np.array([[0.0, 1.0]])))


def test_build_nonlinear_pair_refuses_a_pair_it_cannot_measure():
    # pair (0, 1) has gaps past the float range in the net and in its
    # images, so its ratio reads inf / inf
    net = ModelClassSurrogate(np.array([[1e155, 0.0], [-1e155, 0.0],
                                        [0.0, 1e155]]))
    with pytest.raises(ValueError, match="samples 0,1 have gaps past the "
                       "float range on both sides; their ratio cannot be measured"):
        build_nonlinear_pair(SensingMatrix(2.0 * np.eye(2)), net)


def test_build_nonlinear_pair_refuses_images_past_the_float_range():
    # the images of points 0 and 1 overflow to inf; the net's own gaps are
    # finite, so the refusal names the image, not a pair ratio
    net = ModelClassSurrogate(np.array([[1e300, 0.0], [2e300, 0.0],
                                        [0.0, 1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match="the image of net point 0 is not finite"):
            build_nonlinear_pair(SensingMatrix(1e10 * np.eye(2)), net)


@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(2, 14),
    dims=st.tuples(st.integers(1, 4), st.integers(1, 5)),
    grid=st.booleans(),
    shift=st.sampled_from([0.0, 1.0, 1e3, 1e6]),
    scale=st.sampled_from([1.0, 1e-160, 3e153]),
    budget=st.sampled_from([1, 7, 64, 1 << 16]),
)
def test_budgets_equal_the_dense_budgets(seed, count, dims, grid, shift, scale,
                                         budget):
    # grid rows and an integer Phi tie many ratios exactly; shift cancels
    # the Gram form; scale underflows or overflows the squares; budget
    # screens one row or more a block
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal(dims)
    pts = rng.standard_normal((count, dims[1]))
    if grid:
        mat, pts = np.round(2.0 * mat), np.round(2.0 * pts)
    pts = np.unique((pts + shift) * scale, axis=0)
    if len(pts) < 2:
        return
    with mock.patch.object(spaces, "_BLOCK_ELEMENTS", budget):
        assert_budgets_equal_the_dense_budgets(SensingMatrix(mat),
                                               ModelClassSurrogate(pts))


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
