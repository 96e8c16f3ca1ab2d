import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from widthlab.counterexample import (
    DiagMaps,
    counterexample_report,
    decoder_lipschitz_lower,
    diag_decode,
    diag_encode,
)
from widthlab.spaces import AlphaSequence


def atom(alpha, j, dim):
    x = np.zeros(dim)
    x[j - 1] = alpha.alpha(j)
    return x


def encode(maps, x):
    """Code of one point, through a one-row batch."""
    return float(diag_encode(maps, x[None, :])[0, 0])


def decode(maps, t):
    """Point of one code, through a one-row batch."""
    return diag_decode(maps, np.array([[t]]))[0]


def test_encode_known_values():
    alpha = AlphaSequence(2.0)
    maps = DiagMaps(k=2, alpha=alpha, dim=4)
    assert encode(maps, atom(alpha, 1, 4)) == pytest.approx(1.0)
    assert encode(maps, atom(alpha, 2, 4)) == pytest.approx(0.5)
    # beyond level k everything reads as the k-th code
    assert encode(maps, atom(alpha, 3, 4)) == pytest.approx(0.5)
    assert encode(maps, np.zeros(4)) == pytest.approx(0.5)


def test_encode_rejects_non_atoms():
    alpha = AlphaSequence(2.0)
    maps = DiagMaps(k=2, alpha=alpha, dim=3)
    with pytest.raises(ValueError):
        encode(maps, np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        encode(maps, np.array([0.9, 0.0, 0.0]))


def test_decode_known_values():
    alpha = AlphaSequence(2.0)  # alpha_1 = 1, alpha_2 = 1/2
    maps = DiagMaps(k=2, alpha=alpha, dim=2)
    assert np.array_equal(decode(maps, -0.3), np.zeros(2))
    assert np.array_equal(decode(maps, 2.0), np.array([1.0, 0.0]))
    # halfway between the two breakpoints
    got = decode(maps, 0.75)
    assert got == pytest.approx(np.array([0.5, 0.25]), abs=1e-12)
    # below the smallest breakpoint the curve heads to the origin
    got = decode(maps, 0.25)
    assert got == pytest.approx(np.array([0.0, 0.25]), abs=1e-12)


@given(st.integers(min_value=1, max_value=8),
       st.sampled_from([1.0, 2.0, 3.0]))
def test_roundtrip_exact_up_to_level_k(k, r):
    alpha = AlphaSequence(r)
    maps = DiagMaps(k=k, alpha=alpha, dim=max(k, 10))
    for j in range(1, k + 1):
        x = atom(alpha, j, maps.dim)
        got = decode(maps, encode(maps, x))
        assert got == pytest.approx(x, abs=1e-12)


@given(st.integers(min_value=1, max_value=6),
       st.sampled_from([1.0, 2.0]))
def test_error_formula_beyond_level_k(k, r):
    alpha = AlphaSequence(r)
    dim = 14
    maps = DiagMaps(k=k, alpha=alpha, dim=dim)
    a_k = alpha.alpha(k)
    for j in range(k + 1, dim + 1):
        x = atom(alpha, j, dim)
        err = float(np.linalg.norm(x - decode(maps, encode(maps, x))))
        expected = math.hypot(alpha.alpha(j), a_k)
        assert err == pytest.approx(expected, abs=1e-12)
        assert err < math.sqrt(2.0) * a_k


@given(st.integers(min_value=1, max_value=8))
def test_encoder_is_one_lipschitz_on_atom_pairs(k):
    alpha = AlphaSequence(2.0)
    dim = 12
    maps = DiagMaps(k=k, alpha=alpha, dim=dim)
    pts = [np.zeros(dim)] + [atom(alpha, j, dim) for j in range(1, dim + 1)]
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            gap = abs(encode(maps, x) - encode(maps, y))
            assert gap <= float(np.linalg.norm(x - y)) + 1e-12


def test_batch_maps_agree_with_one_row_batches():
    alpha = AlphaSequence(2.0)
    maps = DiagMaps(k=3, alpha=alpha, dim=8)
    X = np.vstack([np.zeros(8)] + [atom(alpha, j, 8) for j in range(1, 9)])
    codes = diag_encode(maps, X)
    assert codes.shape == (9, 1)
    assert codes[:, 0].tolist() == [encode(maps, x) for x in X]
    ts = np.array([[-0.5], [0.0], [0.3], [0.6], [0.7], [0.9], [1.0], [1.4]])
    rows = diag_decode(maps, ts)
    assert rows.shape == (8, 8)
    for t, row in zip(ts[:, 0], rows):
        assert np.array_equal(row, decode(maps, t))
    with pytest.raises(ValueError, match="row 2"):
        diag_encode(maps, np.vstack([X[:2], [[0.5, 0.5] + [0.0] * 6]]))


def test_decoder_lower_bound_beats_the_breakpoint_ratio():
    alpha = AlphaSequence(2.0)
    for k in range(2, 8):
        maps = DiagMaps(k=k, alpha=alpha, dim=k)
        floor = alpha.alpha(k - 1) / (alpha.alpha(k - 1) - alpha.alpha(k))
        assert decoder_lipschitz_lower(maps) >= floor - 1e-9


def pairwise_loop_lower(maps, probes=64):
    """decoder_lipschitz_lower as a double loop over breakpoint/probe pairs."""
    bp = maps.breakpoints
    ts = list(bp) + [0.0, float(bp[-1]) * 1.5]
    ts.extend(np.linspace(0.0, float(bp[-1]), probes).tolist())
    ts = sorted(set(ts))
    vals = [decode(maps, t) for t in ts]
    best = 0.0
    for i in range(len(ts)):
        for j in range(i + 1, len(ts)):
            ratio = float(np.linalg.norm(vals[j] - vals[i])) / (ts[j] - ts[i])
            best = max(best, ratio)
    return best


@pytest.mark.parametrize("k", range(2, 11))
def test_decoder_lower_bound_equals_the_pair_loop(k):
    alpha = AlphaSequence(2.0)
    # the report's ambient dimension: 2^(n_max + 1) at n_max = 6
    assert decoder_lipschitz_lower(DiagMaps(k=k, alpha=alpha, dim=128)) == \
        pairwise_loop_lower(DiagMaps(k=k, alpha=alpha, dim=128))
    # in dimension k the loop's 1-d np.linalg.norm goes through a BLAS dot,
    # whose fused multiply-add may round the last bit differently
    assert decoder_lipschitz_lower(DiagMaps(k=k, alpha=alpha, dim=k)) == \
        pytest.approx(pairwise_loop_lower(DiagMaps(k=k, alpha=alpha, dim=k)),
                      rel=1e-15)


def test_report_flags_and_rows():
    alpha = AlphaSequence(2.0)
    report = counterexample_report(alpha, k_max=10, n_max=6)
    assert report.all_errors_below_envelope
    assert report.entropy_lower_holds
    assert report.lip_lower_increasing
    ks = [row.k for row in report.rows]
    assert ks == list(range(2, 11))
    for row in report.rows:
        assert row.sup_error < row.sqrt2_alpha_k
        assert row.lip_Mk_lower >= row.lip_Mk_predicted - 1e-9
    lowers = [row.lip_Mk_lower for row in report.rows]
    assert all(b > a for a, b in zip(lowers, lowers[1:]))
    errors = [row.sup_error for row in report.rows]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    for n, lower, floor in report.entropy_rows:
        assert lower >= floor - 1e-12
        assert floor == pytest.approx(alpha.alpha(2**n) / 2.0)


def test_diag_maps_validation():
    alpha = AlphaSequence(2.0)
    with pytest.raises(ValueError):
        DiagMaps(k=0, alpha=alpha, dim=4)
    with pytest.raises(ValueError):
        DiagMaps(k=5, alpha=alpha, dim=4)
