"""Curvature invariants: closed forms, classical traces, Kronecker route."""

import math

import numpy as np
import pytest

from gbyamabe import (
    CalibrationError,
    calibrate_kronecker_constant,
    calibration_info,
    gauss_bonnet,
    gauss_bonnet_kronecker,
    hypersurface_sigma_check,
    invariant_constants,
    random_curvature_like,
    raw_kronecker_sum,
    ricci_2k,
    space_form_curvature,
    space_form_invariant,
    standard_metric,
    symmetric_bilinear,
)
from gbyamabe.forms import double_form
from gbyamabe.invariants import _power_contract, gauss_bonnet_coeffs

from reference_forms import brute_kronecker_sum, classical_ricci, classical_scalar, two_block_invariant


def algebra_orders(max_n):
    """Every (n, k) of the algebra's range 1 <= k <= n/2, for 3 <= n <= max_n."""
    return [(n, k) for n in range(3, max_n + 1) for k in range(1, n // 2 + 1)]


def test_space_form_closed_values():
    g = standard_metric(5)
    assert gauss_bonnet(space_form_curvature(5, 1.0), g, 2) == pytest.approx(30.0, rel=1e-14)
    assert gauss_bonnet(space_form_curvature(5, 1.0), g, 1) == pytest.approx(10.0, rel=1e-14)
    g7 = standard_metric(7)
    assert gauss_bonnet(space_form_curvature(7, -1.0), g7, 3) == pytest.approx(-630.0, rel=1e-14)
    assert gauss_bonnet(space_form_curvature(7, 1.0), g7, 3) == pytest.approx(630.0, rel=1e-14)


def test_space_form_invariant_formula():
    for n, k, mu in [(5, 2, 1.0), (6, 2, -2.0), (7, 3, 0.5), (8, 2, 1.0)]:
        expected = math.factorial(n) / (math.factorial(n - 2 * k) * 2**k) * mu**k
        assert space_form_invariant(n, k, mu) == pytest.approx(expected, rel=0)


def test_gauss_bonnet_k1_is_half_scalar_curvature():
    rng = np.random.default_rng(21)
    for n in (4, 5, 6):
        g = standard_metric(n)
        for _ in range(5):
            R = random_curvature_like(n, rng)
            assert gauss_bonnet(R, g, 1) == pytest.approx(
                classical_scalar(n, R.coeffs) / 2.0, rel=1e-12
            )


def test_ricci_2k_k1_is_classical_ricci():
    rng = np.random.default_rng(22)
    for n in (4, 5):
        g = standard_metric(n)
        for _ in range(5):
            R = random_curvature_like(n, rng)
            got = ricci_2k(R, g, 1)
            np.testing.assert_allclose(got.coeffs, classical_ricci(n, R.coeffs), atol=1e-12)


def test_trace_route_matches_power_and_contraction():
    # tr(w^k) from the last product's diagonal blocks against the full power
    # contracted 2k times, on stacks with two batch axes
    rng = np.random.default_rng(41)
    for n, k in algebra_orders(8):
        m = math.comb(n, 2)
        raw = rng.standard_normal((2, 3, m, m))
        w = (raw + np.swapaxes(raw, -1, -2)) / 2
        got = gauss_bonnet_coeffs(n, k, w)
        expected = _power_contract(n, k, w, 2 * k)[..., 0, 0] / math.factorial(2 * k)
        assert got.shape == (2, 3)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


def test_trace_route_matches_two_block_closed_form():
    rng = np.random.default_rng(42)
    for n, k in algebra_orders(9):
        m = math.comb(n, 2)
        k_rad, k_sph = rng.uniform(-2.0, 2.0, (2, 3))
        w = np.zeros((3, m, m))
        # ranked 2-subsets list the n - 1 radial pairs (0, j) first
        w[:, np.arange(n - 1), np.arange(n - 1)] = k_rad[:, None]
        w[:, np.arange(n - 1, m), np.arange(n - 1, m)] = k_sph[:, None]
        expected = [two_block_invariant(n, k, a, b) for a, b in zip(k_rad, k_sph)]
        np.testing.assert_allclose(gauss_bonnet_coeffs(n, k, w), expected, rtol=1e-12, atol=0)


def test_ricci_trace_recovers_gauss_bonnet():
    # ricci_2k stays on the product-and-contraction chain, gauss_bonnet on the
    # trace route: two code paths checked against each other
    rng = np.random.default_rng(23)
    for n, k in algebra_orders(8):
        g = standard_metric(n)
        for _ in range(3):
            R = random_curvature_like(n, rng)
            trace = float(np.trace(ricci_2k(R, g, k).coeffs))
            assert trace == pytest.approx(
                math.factorial(2 * k) * gauss_bonnet(R, g, k), rel=1e-11
            )


def test_ricci_of_space_form_is_isotropic():
    n, k, mu = 5, 2, 1.0
    out = ricci_2k(space_form_curvature(n, mu), standard_metric(n), k)
    consts = invariant_constants(n, k)
    np.testing.assert_allclose(out.coeffs, consts.ricci_coefficient * mu**k * np.eye(n), atol=1e-11)
    assert consts.ricci_coefficient == pytest.approx(144.0, rel=0)


def test_invariants_with_general_metric_are_invariant_under_pullback():
    # pulling back R and g by a linear map must not change the scalar
    rng = np.random.default_rng(24)
    n, k = 5, 2
    g = standard_metric(n)
    for _ in range(3):
        R = random_curvature_like(n, rng)
        base = gauss_bonnet(R, g, k)
        A = rng.standard_normal((n, n)) + n * np.eye(n)
        from gbyamabe.indexing import compound_matrix

        C2 = compound_matrix(A, 2)
        R_pulled = double_form(n, 2, 2, C2.T @ R.coeffs @ C2)
        g_pulled = symmetric_bilinear(A.T @ A, positive_definite=True)
        assert gauss_bonnet(R_pulled, g_pulled, k) == pytest.approx(base, rel=1e-9)


def test_raw_kronecker_sum_matches_brute_force():
    rng = np.random.default_rng(25)
    # the brute force takes about 2 s per tensor at (6, 3)
    for n, k, samples in [(4, 1, 2), (5, 1, 2), (4, 2, 2), (5, 2, 2), (6, 2, 2), (6, 3, 1)]:
        for _ in range(samples):
            R = random_curvature_like(n, rng)
            assert raw_kronecker_sum(R, k) == pytest.approx(
                brute_kronecker_sum(n, k, R.coeffs), rel=1e-11
            )


def test_calibration_constant_at_5_1():
    # brute-force-verified value under this package's conventions
    assert calibrate_kronecker_constant(5, 1) == pytest.approx(0.25, rel=1e-12)


def test_calibration_constant_is_a_power_of_four():
    for n, k in algebra_orders(7):
        assert calibrate_kronecker_constant(n, k) == pytest.approx(4.0**-k, rel=1e-12)


def test_calibrated_kronecker_matches_contraction():
    rng = np.random.default_rng(26)
    for n, k in [(5, 1), (5, 2), (6, 2)]:
        c = calibrate_kronecker_constant(n, k)
        g = standard_metric(n)
        for _ in range(5):
            R = random_curvature_like(n, rng)
            expected = gauss_bonnet(R, g, k)
            assert gauss_bonnet_kronecker(R, k, c) == pytest.approx(expected, rel=1e-10)


def test_calibration_info_reports_tight_spread():
    info = calibration_info(6, 2)
    assert info.relative_spread <= 1e-10
    assert info.samples >= 2
    again = calibration_info(6, 2)
    assert again is info  # cached


def test_calibration_cache_key_covers_samples_and_seed():
    few = calibration_info(5, 2, samples=3)
    more = calibration_info(5, 2, samples=8, seed=4)
    assert (few.samples, more.samples) == (3, 8)
    assert calibration_info(5, 2, samples=8, seed=4) is more


def test_calibration_with_explicit_tensors_and_degenerate_pool():
    n, k = 5, 1
    rng = np.random.default_rng(27)
    tensors = [random_curvature_like(n, rng) for _ in range(4)]
    c = calibrate_kronecker_constant(n, k, samples=3, tensors=tensors)
    assert c == pytest.approx(0.25, rel=1e-12)
    zero = double_form(n, 2, 2, np.zeros((10, 10)))
    with pytest.raises(CalibrationError):
        calibrate_kronecker_constant(n, k, samples=2, tensors=[zero, zero, zero])


def test_kronecker_dimension_guard():
    R = space_form_curvature(8, 1.0)
    with pytest.raises(ValueError):
        raw_kronecker_sum(R, 2)


def test_curvature_validation():
    g = standard_metric(5)
    with pytest.raises(ValueError):
        gauss_bonnet(g, g, 1)  # wrong bidegree
    lopsided = double_form(5, 2, 2, np.triu(np.ones((10, 10))))
    with pytest.raises(ValueError):
        gauss_bonnet(lopsided, g, 2)
    R = space_form_curvature(5, 1.0)
    with pytest.raises(ValueError):
        gauss_bonnet(R, g, 3)  # 2k > n
    with pytest.raises(ValueError):
        gauss_bonnet(R, g, 0)


def test_hypersurface_sigma_ratio_depends_only_on_order():
    # induced invariant vs elementary symmetric polynomial of principal
    # curvatures: the ratio collapses to (2k)!/2^k
    for n, r, k in [(5, 1.0, 2), (5, 2.0, 2), (6, 0.5, 2), (7, 3.0, 3), (5, 1.5, 1)]:
        s, sigma, ratio = hypersurface_sigma_check(n, r, k)
        assert ratio == pytest.approx(math.factorial(2 * k) / 2**k, rel=1e-12)
        assert s == pytest.approx(space_form_invariant(n, k, 1.0 / r**2), rel=1e-12)
    with pytest.raises(ValueError):
        hypersurface_sigma_check(5, -1.0, 2)


def test_invariant_constants_values():
    c52 = invariant_constants(5, 2)
    assert c52.base_coefficient == pytest.approx(12.0, rel=0)
    assert c52.ricci_coefficient == pytest.approx(144.0, rel=0)
    c51 = invariant_constants(5, 1)
    assert c51.base_coefficient == pytest.approx(1.0 / 3.0, rel=1e-15)
    c73 = invariant_constants(7, 3)
    assert c73.base_coefficient == pytest.approx(2160.0, rel=0)
    with_cal = invariant_constants(5, 1, calibrate=True)
    assert with_cal.kronecker_constant == pytest.approx(0.25, rel=1e-12)
