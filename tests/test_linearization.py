"""Linearization constants, finite-difference checks, generalized functionals."""

import math
import re
import warnings

import numpy as np
import pytest

from gbyamabe import (
    FULL_SPHERE,
    REAL_PROJECTIVE,
    SYNTHETIC_HYPERBOLIC,
    LinearFunctional,
    NondegeneracyViolated,
    conformal_linearization,
    conformal_metric,
    constancy_diagnostic,
    constants,
    fd_verify,
    field_from_values,
    generalized_constants,
    max_order,
    mode_field,
    shifted_laplacian,
    space_form,
    spaceform,
    sup_norm,
    zonal_basis,
)


def _constant_field(basis, value):
    return field_from_values(basis, np.full(basis.x.size, float(value)), parity="even")


def test_constants_at_unit_curvature_are_the_correctly_rounded_rationals():
    # tensor k (n-2)!/(2^k (n-2k)!) and conformal (n - 1) times it, formed
    # as rationals before rounding (int / int rounds correctly)
    f = math.factorial
    for n in range(3, 62):
        for k in range(1, max_order(n) + 1):
            c = constants(n, k, 1.0)
            assert c.tensor_coefficient == k * f(n - 2) / (2**k * f(n - 2 * k)), (n, k)
            assert c.conformal_coefficient == (n - 1) * k * f(n - 2) / (2**k * f(n - 2 * k)), (n, k)


def test_constants_closed_values():
    c = constants(5, 2, 1.0)
    assert c.base_coefficient == pytest.approx(12.0, rel=1e-14)
    assert c.tensor_coefficient == pytest.approx(3.0, rel=1e-14)
    assert c.conformal_coefficient == pytest.approx(12.0, rel=1e-14)

    c = constants(5, 1, 2.0)  # order 1 is curvature independent
    assert c.base_coefficient == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert c.tensor_coefficient == pytest.approx(0.5, rel=1e-14)
    assert c.conformal_coefficient == pytest.approx(2.0, rel=1e-14)

    for mu in (1.0, -1.0):
        c = constants(7, 3, mu)
        assert c.base_coefficient == pytest.approx(2160.0, rel=1e-14)
        assert c.tensor_coefficient == pytest.approx(45.0, rel=1e-14)
        assert c.conformal_coefficient == pytest.approx(270.0, rel=1e-14)

    c = constants(6, 2, 2.0)
    assert c.tensor_coefficient == pytest.approx(12.0, rel=1e-14)
    assert c.conformal_coefficient == pytest.approx(60.0, rel=1e-14)


def test_constants_validation():
    with pytest.raises(ValueError):
        constants(2, 1, 1.0)
    with pytest.raises(ValueError):
        constants(5, 0, 1.0)
    with pytest.raises(ValueError):
        constants(5, 3, 1.0)
    with pytest.raises(ValueError):
        constants(5, 2, 0.0)


@pytest.mark.parametrize("mu", [float("nan"), float("inf"), float("-inf")])
def test_constants_refuse_a_curvature_that_is_not_finite(mu):
    # a NaN curvature used to pass the nonzero check and return NaN constants
    with pytest.raises(ValueError, match=f"^background curvature must be finite, got {mu}$"):
        constants(7, 3, mu)


@pytest.mark.parametrize("mu", [1e200, -1e200])
def test_constants_refuse_a_curvature_whose_power_overflows(mu):
    # the invariant scales with mu^k, so a mu whose k-th power leaves the floats is refused
    message = f"background curvature {mu} overflows when raised to the power 2"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        constants(5, 2, mu)


def test_max_order():
    assert [max_order(n) for n in (3, 4, 5, 6, 7, 8)] == [1, 1, 2, 2, 3, 3]


def test_shifted_laplacian_annihilates_first_mode():
    for n, mu in [(5, 1.0), (7, 2.0)]:
        sf = space_form(n, mu, FULL_SPHERE)
        basis = zonal_basis(n, 8)
        f = mode_field(basis, 1, 1.0)
        out = shifted_laplacian(sf, f)
        assert sup_norm(out) <= 1e-13
        # and is strictly positive on every higher mode
        for ell in range(2, 9):
            g = mode_field(basis, ell, 1.0)
            factor = (ell * (ell + n - 1) - n) * mu
            np.testing.assert_allclose(
                shifted_laplacian(sf, g).modes, factor * g.modes, atol=1e-11 * abs(factor)
            )


def test_conformal_linearization_mode_factors():
    sf = space_form(5, 1.0, FULL_SPHERE)
    basis = zonal_basis(5, 8)
    coeff = constants(5, 2, 1.0).conformal_coefficient
    for ell in (0, 2, 3, 5):
        f = mode_field(basis, ell, 1.0) if ell else _constant_field(basis, 1.0)
        out = conformal_linearization(sf, f, 2)
        factor = coeff * (ell * (ell + 4) - 5)
        np.testing.assert_allclose(out.modes, factor * f.modes, atol=1e-10)


def test_fd_verify_small_relative_error():
    sf = space_form(5, 1.0, FULL_SPHERE)
    basis = zonal_basis(5, 10)
    f = mode_field(basis, 2, 0.05)
    _, _, relerr = fd_verify(sf, f, 2, eps=1e-3)
    assert relerr <= 1e-6
    _, _, relerr_c = fd_verify(sf, f, 2, eps=1e-3, pipeline="conformal")
    assert relerr_c <= 1e-6


def test_fd_verify_error_scales_quadratically():
    sf = space_form(6, -1.0, SYNTHETIC_HYPERBOLIC)
    basis = zonal_basis(6, 10)
    f = mode_field(basis, 4, 0.05)
    _, _, coarse = fd_verify(sf, f, 2, eps=1e-2)
    _, _, fine = fd_verify(sf, f, 2, eps=1e-3)
    assert 50.0 <= coarse / fine <= 200.0


def test_fd_verify_validation(monkeypatch):
    sf = space_form(5, 1.0, FULL_SPHERE)
    basis = zonal_basis(5, 8)
    f = mode_field(basis, 2, 0.05)
    with pytest.raises(ValueError):
        fd_verify(sf, f, 2, eps=0.0)
    with pytest.raises(ValueError):
        fd_verify(sf, _constant_field(basis, 0.0), 2)

    def refuse(*args):
        raise AssertionError("the invariant kernel was called")

    monkeypatch.setattr(spaceform, "gauss_bonnet_coeffs", refuse)
    with pytest.raises(ValueError, match="unknown pipeline"):
        fd_verify(sf, f, 2, pipeline="bogus")
    for k in (0, 3, 2.0):
        with pytest.raises(ValueError, match="order k"):
            fd_verify(sf, f, k)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1e-3])
def test_fd_verify_refuses_steps_that_are_not_finite_and_positive(eps):
    # refused before the curvature pipelines run, so they raise no warning
    sf = space_form(5, 1.0, FULL_SPHERE)
    f = mode_field(zonal_basis(5, 8), 2, 0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="eps must be finite and positive"):
            fd_verify(sf, f, 2, eps=eps)


def test_linear_functional_validation():
    g = LinearFunctional((1.0, 0.1))
    assert g.orders == (1, 2)
    assert g.coefficients == (1.0, 0.1)
    with pytest.raises(ValueError):
        LinearFunctional(())
    with pytest.raises(ValueError):
        LinearFunctional((1.0, float("nan")))


def test_generalized_constants_combination():
    gc = generalized_constants(5, 1.0, LinearFunctional((1.0, 0.1)))
    assert gc.tensor_coefficient == pytest.approx(0.5 + 0.1 * 3.0, rel=1e-14)
    assert gc.conformal_coefficient == pytest.approx(4 * 0.8, rel=1e-14)
    assert len(gc.per_order) == 2
    assert gc.per_order[1].tensor_coefficient == pytest.approx(3.0)


def test_generalized_constants_degenerate_combination():
    # coefficients chosen so 1.0 * (1/2) + c * 3 = 0
    with pytest.raises(NondegeneracyViolated):
        generalized_constants(5, 1.0, LinearFunctional((1.0, -1.0 / 6.0)))


def test_generalized_constants_too_many_orders():
    with pytest.raises(ValueError):
        generalized_constants(5, 1.0, LinearFunctional((1.0, 1.0, 1.0)))


def test_generalized_constants_single_order():
    # a one-term functional carries the constants of its order
    gc = generalized_constants(5, 1.0, LinearFunctional((1.0,)))
    assert gc.conformal_coefficient == constants(5, 1, 1.0).conformal_coefficient


def test_constancy_diagnostic_vanishes_at_round_metric():
    sf = space_form(5, 1.0, REAL_PROJECTIVE)
    basis = zonal_basis(5, 8)
    cm = conformal_metric(sf, _constant_field(basis, 0.0))
    diag = constancy_diagnostic(cm, 2)
    assert sup_norm(diag) <= 1e-8


def test_constancy_diagnostic_detects_perturbation():
    sf = space_form(5, 1.0, REAL_PROJECTIVE)
    basis = zonal_basis(5, 8)
    cm = conformal_metric(sf, mode_field(basis, 2, 0.05))
    diag = constancy_diagnostic(cm, 2)
    assert sup_norm(diag) >= 1e-2
    # mean-free by construction
    mean = float(basis.weights @ diag.values) / float(basis.weights.sum())
    assert abs(mean) <= 1e-10 * sup_norm(diag)
