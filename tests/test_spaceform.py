"""Zonal basis, latitude fields, curvature pipelines, volume, spectrum."""

import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gbyamabe import (
    FULL_SPHERE,
    REAL_PROJECTIVE,
    SYNTHETIC_HYPERBOLIC,
    SpaceForm,
    conformal_curvature,
    conformal_metric,
    double_form,
    fd_verify,
    field_from_modes,
    field_from_values,
    gauss_bonnet,
    gb_field,
    laplacian,
    max_order,
    mode_field,
    resample,
    space_form,
    space_form_invariant,
    spectrum_gap_check,
    standard_metric,
    sup_norm,
    volume,
    warped_curvature,
    zonal_basis,
)
from gbyamabe import spaceform
from gbyamabe.forms import DENSE_DIM_LIMIT
from gbyamabe.spaceform import _gb_values, _two_block_values

from reference_forms import two_block_invariant


def _constant_field(basis, value):
    return field_from_values(basis, np.full(basis.x.size, float(value)), parity="even")


def _reflect_field(field):
    """Pull back under theta -> pi - theta (odd modes change sign)."""
    modes = field.modes.copy()
    modes[1::2] *= -1.0
    return field_from_modes(field.basis, modes, parity=field.parity)


def random_phi(basis, rng, sup=0.15, parity="any"):
    modes = rng.standard_normal(basis.max_mode + 1)
    if parity == "even":
        modes[1::2] = 0.0
    modes *= 0.5 ** np.arange(basis.max_mode + 1)  # decay for smoothness
    field = field_from_modes(basis, modes, parity=parity)
    scale = sup / max(sup_norm(field), 1e-30)
    return field_from_modes(basis, scale * modes, parity=parity)


# ---------------------------------------------------------------------------
# Basis
# ---------------------------------------------------------------------------


# Gauss-Gegenbauer grids the quadrature checks cover, each as the default
# grid of its max_mode: nnodes = 2 max_mode + 16.
QUADRATURE_GRIDS = [(n, nnodes) for n in (5, 7, 9, 13, 21, 41) for nnodes in (20, 48, 96)]


def _grid_bases():
    for n, nnodes in QUADRATURE_GRIDS:
        basis = zonal_basis(n, (nnodes - 16) // 2)
        assert basis.x.size == nnodes
        yield basis


def _gegenbauer_mass(alpha):
    return math.sqrt(math.pi) * math.gamma(alpha + 0.5) / math.gamma(alpha + 1.0)


def test_basis_grid_is_exactly_symmetric():
    assert zonal_basis(5, 12).x.size == 2 * 12 + 16
    for basis in (zonal_basis(5, 12), *_grid_bases()):
        assert np.array_equal(basis.x, -basis.x[::-1])
        assert np.array_equal(basis.weights, basis.weights[::-1])
        assert np.all(np.diff(basis.x) > 0) and -1 < basis.x[0]


def test_basis_discrete_orthonormality():
    for n in (5, 6, 7):
        basis = zonal_basis(n, 10)
        gram = basis.values.T @ (basis.weights[:, None] * basis.values)
        np.testing.assert_allclose(gram, np.eye(11), atol=1e-13)
    for basis in _grid_bases():
        identity = np.eye(basis.max_mode + 1)
        assert np.abs(basis.projection @ basis.values - identity).max() <= 1e-13


def test_quadrature_reproduces_the_gegenbauer_norms():
    # int C_l C_m (1 - x^2)^(alpha - 1/2) dx
    #   = delta_lm pi 2^(1 - 2 alpha) Gamma(l + 2 alpha) / (l! (l + alpha) Gamma(alpha)^2),
    # checked on the raw polynomials, not on the basis normalized by its own grid
    for basis in _grid_bases():
        alpha = (basis.n - 1) / 2
        C = spaceform._gegenbauer_table(basis.max_mode, alpha, basis.x)
        gram = C.T @ (basis.weights[:, None] * C)
        norms = np.array(
            [
                math.pi * 2 ** (1 - 2 * alpha) * math.gamma(ell + 2 * alpha)
                / (math.factorial(ell) * (ell + alpha) * math.gamma(alpha) ** 2)
                for ell in range(basis.max_mode + 1)
            ]
        )
        scaled = gram / np.sqrt(np.outer(norms, norms))
        assert np.abs(scaled - np.eye(basis.max_mode + 1)).max() <= 1e-13, (basis.n, basis.x.size)


def test_basis_projection_round_trip():
    rng = np.random.default_rng(31)
    basis = zonal_basis(5, 14)
    modes = rng.standard_normal(15)
    field = field_from_modes(basis, modes)
    np.testing.assert_allclose(basis.projection @ field.values, modes, atol=1e-12)


def test_basis_derivatives_satisfy_eigenfunction_equation():
    # zonal harmonics: u'' + (n-1) cot(theta) u' + l(l+n-1) u = 0
    for n in (5, 7):
        basis = zonal_basis(n, 10)
        cot = basis.x / basis.sin_theta
        for ell in range(11):
            u = basis.values[:, ell]
            residual = basis.ddtheta[:, ell] + (n - 1) * cot * basis.dtheta[:, ell] + ell * (
                ell + n - 1
            ) * u
            assert np.abs(residual).max() <= 1e-9 * max(1.0, np.abs(u).max() * ell * (ell + n - 1))


def test_weights_integrate_sine_power():
    for n in (5, 6, 8):
        basis = zonal_basis(n, 8)
        exact = math.sqrt(math.pi) * math.gamma(n / 2) / math.gamma((n + 1) / 2)
        assert float(basis.weights.sum()) == pytest.approx(exact, rel=1e-14)
    for basis in _grid_bases():
        alpha = (basis.n - 1) / 2
        _, raw = spaceform._gauss_gegenbauer(basis.x.size, alpha)
        for w in (raw, basis.weights):
            assert np.all(w > 0)
            assert float(w.sum()) == pytest.approx(_gegenbauer_mass(alpha), rel=1e-14)


def test_quadrature_weights_stay_finite_at_high_order():
    # 1 / (C_{N-1} C'_N) over- or underflows here unless both factors are
    # log-normalized before the product
    x, w = spaceform._gauss_gegenbauer(300, 150.0)
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(w)) and np.all(w > 0)
    assert float(w.sum()) == pytest.approx(_gegenbauer_mass(150.0), rel=1e-13)


def test_basis_cache_resolves_the_default_node_count():
    # one grid, one object, however the call spells its node count
    assert zonal_basis(5, 16) is zonal_basis(5, 16, None) is zonal_basis(5, 16, 48)
    assert zonal_basis(5, 16, 50) is not zonal_basis(5, 16)


def test_basis_validation():
    with pytest.raises(ValueError):
        zonal_basis(5, 0)
    with pytest.raises(ValueError):
        zonal_basis(5, 10, nnodes=5)


@pytest.mark.parametrize(
    "args, message",
    [
        ((1, 4), "dimension n must be at least 2"),
        ((0, 4), "dimension n must be at least 2"),
        ((5.5, 4), "dimension n must be an integer"),
        ((5.0, 4), "dimension n must be an integer"),
        ((True, 4), "dimension n must be an integer"),
        ((5, True), "max_mode must be an integer"),
        ((5, 4.0), "max_mode must be an integer"),
        ((5, 4, True), "nnodes must be an integer"),
        ((5, 4, 30.0), "nnodes must be an integer"),
        ((5, 4, np.bool_(True)), "nnodes must be an integer"),
    ],
)
def test_basis_refuses_bad_dimensions_and_counts(args, message):
    # n = 1 and n = 0 used to give bases full of NaN; a non-integer n, a
    # bool max_mode or a float node count used to build a basis
    with pytest.raises(ValueError, match=message):
        zonal_basis(*args)


def test_basis_accepts_numpy_integers_as_the_same_grid():
    assert zonal_basis(np.int64(5), np.int32(16)) is zonal_basis(5, 16)
    assert type(zonal_basis(np.int64(5), 16).n) is int


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------


def test_field_from_values_round_trip():
    rng = np.random.default_rng(32)
    basis = zonal_basis(5, 12)
    f = random_phi(basis, rng)
    g = field_from_values(basis, f.values)
    np.testing.assert_allclose(g.modes, f.modes, atol=1e-12)
    np.testing.assert_allclose(g.dvalues, f.dvalues, atol=1e-10)


def test_even_parity_enforcement():
    basis = zonal_basis(5, 8)
    modes = np.zeros(9)
    modes[3] = 0.1
    with pytest.raises(ValueError):
        field_from_modes(basis, modes, parity="even")
    odd = field_from_modes(basis, modes)
    with pytest.raises(ValueError):
        field_from_values(basis, odd.values, parity="even")
    with pytest.raises(ValueError):
        field_from_modes(basis, np.zeros(9), parity="mixed")


def test_mode_field_amplitude_and_parity():
    basis = zonal_basis(6, 10)
    f = mode_field(basis, 4, 0.05)
    assert sup_norm(f) == pytest.approx(0.05, rel=1e-12)
    assert f.parity == "even"
    assert mode_field(basis, 3, 0.1).parity == "any"
    with pytest.raises(ValueError):
        mode_field(basis, 11, 0.1)
    # a bool index would set every mode, a float one would raise IndexError
    for ell in (True, 2.0):
        with pytest.raises(ValueError, match="mode must be an integer"):
            mode_field(basis, ell, 0.1)


def test_constant_field_and_reflection():
    basis = zonal_basis(5, 8)
    c = _constant_field(basis, 2.5)
    np.testing.assert_allclose(c.values, 2.5, atol=1e-13)
    rng = np.random.default_rng(33)
    f = random_phi(basis, rng)
    r = _reflect_field(f)
    np.testing.assert_allclose(r.values, f.values[::-1], atol=1e-11)
    rr = _reflect_field(r)
    np.testing.assert_allclose(rr.modes, f.modes, atol=0)


def test_resample_is_exact_on_band_limited_fields():
    rng = np.random.default_rng(34)
    coarse = zonal_basis(5, 8)
    fine = zonal_basis(5, 20, nnodes=64)
    f = random_phi(coarse, rng)
    g = resample(f, fine)
    np.testing.assert_allclose(g.modes[:9] * coarse.norms / fine.norms[:9], f.modes, atol=1e-13)
    back = resample(g, coarse)
    np.testing.assert_allclose(back.modes, f.modes, atol=1e-12)
    np.testing.assert_allclose(back.values, f.values, atol=1e-12)


def test_resample_rejects_truncation():
    basis = zonal_basis(5, 10)
    small = zonal_basis(5, 4)
    f = mode_field(basis, 8, 0.1)
    with pytest.raises(ValueError):
        resample(f, small)


# ---------------------------------------------------------------------------
# Space forms and conformal metrics
# ---------------------------------------------------------------------------


def test_space_form_factory_validation():
    sf = space_form(5, 2.0, REAL_PROJECTIVE)
    sphere = space_form(5, 2.0, FULL_SPHERE)
    assert sf.reference_volume == pytest.approx(sphere.reference_volume / 2.0, rel=1e-14)
    with pytest.raises(ValueError):
        space_form(4, 1.0, REAL_PROJECTIVE)
    with pytest.raises(ValueError):
        space_form(5, -1.0, REAL_PROJECTIVE)
    with pytest.raises(ValueError, match="requires negative curvature"):
        space_form(5, 1.0, SYNTHETIC_HYPERBOLIC)
    with pytest.raises(ValueError):
        space_form(5, 1.0, "klein_bottle")
    # the synthetic quotient has no grid, so no volume: nothing would read one
    hyp = space_form(6, -1.0, SYNTHETIC_HYPERBOLIC)
    assert hyp.reference_volume is None
    with pytest.raises(TypeError, match="reference_volume"):
        space_form(6, -1.0, SYNTHETIC_HYPERBOLIC, reference_volume=3.0)
    with pytest.raises(TypeError, match="reference_volume"):
        space_form(5, 1.0, REAL_PROJECTIVE, reference_volume=7.0)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="curvature must be finite"):
            space_form(5, bad, REAL_PROJECTIVE)
    # no quotient takes a declared spectrum
    assert [f.name for f in dataclasses.fields(SpaceForm)] == ["n", "curvature", "quotient", "reference_volume"]
    with pytest.raises(TypeError, match="lambda1"):
        space_form(6, -1.0, SYNTHETIC_HYPERBOLIC, lambda1=1.0)


@pytest.mark.parametrize("n", [5, 6, 21])
@pytest.mark.parametrize("mu", [-1e-9, -1.0, -50.0])
def test_hyperbolic_quotient_needs_no_spectral_data(n, mu):
    # Delta >= 0 > n mu on every closed hyperbolic manifold, so the gap
    # clears the critical level with nothing declared
    sf = space_form(n, mu, SYNTHETIC_HYPERBOLIC)
    assert (sf.n, sf.curvature, sf.reference_volume) == (n, mu, None)
    assert spectrum_gap_check(sf) == (None, n * mu, True)


@pytest.mark.parametrize(
    "n, message",
    [
        (5.5, "dimension must be an integer"),
        (6.0, "dimension must be an integer"),
        (True, "dimension must be an integer"),
        (4, "dimension must be at least 5"),
    ],
)
def test_space_form_refuses_non_integer_dimensions(n, message):
    with pytest.raises(ValueError, match=message):
        space_form(n, 1.0, REAL_PROJECTIVE)


@pytest.mark.parametrize(
    "n, mu, quotient",
    [(5, 1e-300, REAL_PROJECTIVE), (5, 1e300, FULL_SPHERE), (100_000_000, 1.0, REAL_PROJECTIVE)],
    ids=["volume-overflow", "volume-underflow", "sphere-constant-overflow"],
)
def test_space_form_refuses_a_reference_volume_outside_the_floats(n, mu, quotient):
    # an infinite volume used to raise OverflowError, and a zero one to divide by zero in the solver
    message = f"dimension {n} and curvature {mu} give no finite positive reference volume"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        space_form(n, mu, quotient)


def test_space_form_accepts_numpy_integer_dimensions():
    assert type(space_form(np.int64(5), 1.0).n) is int


def test_round_sphere_volume():
    sf = space_form(5, 1.0, FULL_SPHERE)
    assert sf.reference_volume == pytest.approx(math.pi**3, rel=1e-14)
    half = space_form(5, 4.0, FULL_SPHERE)  # radius 1/2
    assert half.reference_volume == pytest.approx(math.pi**3 / 2**5, rel=1e-13)


def test_conformal_metric_parity_guard():
    sf = space_form(5, 1.0, REAL_PROJECTIVE)
    basis = zonal_basis(5, 8)
    odd = mode_field(basis, 3, 0.1)
    with pytest.raises(ValueError):
        conformal_metric(sf, odd)
    conformal_metric(space_form(5, 1.0, FULL_SPHERE), odd)  # fine on the sphere


# ---------------------------------------------------------------------------
# Curvature pipelines
# ---------------------------------------------------------------------------


def test_round_metric_curvature_is_constant():
    sf = space_form(5, 1.0, FULL_SPHERE)
    basis = zonal_basis(5, 8)
    cm = conformal_metric(sf, _constant_field(basis, 0.0))
    g = standard_metric(5)
    node = basis.x.size // 3
    for R in (warped_curvature(cm, node), conformal_curvature(cm, node)):
        assert gauss_bonnet(R, g, 2) == pytest.approx(30.0, rel=1e-13)


def test_pipelines_agree_pointwise(monkeypatch):
    rng = np.random.default_rng(35)
    for n in (5, 6):
        sf = space_form(n, 1.0, FULL_SPHERE)
        basis = zonal_basis(n, 10)
        for _ in range(3):
            cm = conformal_metric(sf, random_phi(basis, rng, sup=0.2))
            for node in (0, basis.x.size // 2, basis.x.size - 1, -1):
                Rw = warped_curvature(cm, node)
                Rc = conformal_curvature(cm, node)
                scale = max(np.abs(Rw.coeffs).max(), 1e-30)
                assert np.abs(Rw.coeffs - Rc.coeffs).max() <= 1e-12 * scale
            # a negative node counts from the end on both pipelines
            for curvature in (warped_curvature, conformal_curvature):
                np.testing.assert_array_equal(curvature(cm, -1).coeffs, curvature(cm, basis.x.size - 1).coeffs)
    # a node that is not an integer in -size..size - 1 is refused before any
    # curvature is built (a bool would index every node as a mask)
    def refuse(*args):
        raise AssertionError("a curvature stack was built")

    monkeypatch.setattr(spaceform, "_curvature_stack", refuse)
    for curvature in (warped_curvature, conformal_curvature):
        for node, message in ((True, "integer"), (2.0, "integer"), (99, "outside"), (-99, "outside")):
            with pytest.raises(ValueError, match=message):
                curvature(cm, node)


def test_gb_field_matches_pointwise_operator_route():
    rng = np.random.default_rng(36)
    n, k = 5, 2
    sf = space_form(n, 1.0, FULL_SPHERE)
    basis = zonal_basis(n, 8)
    cm = conformal_metric(sf, random_phi(basis, rng, sup=0.15))
    field = gb_field(cm, k)
    g = standard_metric(n)
    for node in (1, basis.x.size // 2, basis.x.size - 2):
        expected = gauss_bonnet(warped_curvature(cm, node), g, k)
        assert field.values[node] == pytest.approx(expected, rel=1e-12)


def test_gb_field_matches_two_block_closed_form():
    rng = np.random.default_rng(37)
    for n, k in [(5, 2), (6, 2), (7, 3)]:
        sf = space_form(n, 1.0, FULL_SPHERE)
        basis = zonal_basis(n, 8)
        cm = conformal_metric(sf, random_phi(basis, rng, sup=0.15))
        field = gb_field(cm, k)
        m2 = basis.x.size // 2
        for node in (0, m2, basis.x.size - 1):
            R = warped_curvature(cm, node)
            kappa_rad = R.coeffs[0, 0]
            kappa_sph = R.coeffs[-1, -1]
            expected = two_block_invariant(n, k, kappa_rad, kappa_sph)
            assert field.values[node] == pytest.approx(expected, rel=1e-11)


def test_two_block_values_match_gauss_bonnet_on_both_pipelines():
    # every (n <= 8, k) of the algebra's range, node by node, against the
    # dense stacks of the warped and the conformal pipeline, at mu > 0 and
    # continued to mu < 0
    rng = np.random.default_rng(41)
    for n in range(3, 9):
        basis = zonal_basis(n, 6)
        g = standard_metric(n)
        phi = random_phi(basis, rng, sup=0.15)
        grids = (basis.x, basis.sin_theta, phi.values, phi.dvalues, phi.ddvalues)
        for mu in (1.0, -0.7):
            stacks = [spaceform._curvature_stack(n, mu, *grids, pipeline) for pipeline in ("warped", "conformal")]
            for k in range(1, n // 2 + 1):
                closed = _two_block_values(n, mu, k, basis, phi.values, phi.dvalues, phi.ddvalues)
                for stack in stacks:
                    dense = [gauss_bonnet(double_form(n, 2, 2, R), g, k) for R in stack]
                    np.testing.assert_allclose(closed, dense, rtol=1e-12, err_msg=f"n={n} k={k} mu={mu}")


def test_two_block_values_match_the_dense_evaluator_on_a_jacobian_batch():
    # the solver's Jacobian batch on RP^n: the 9 even modes of a cutoff-16
    # window, each perturbed up and down
    rng = np.random.default_rng(42)
    for n in range(5, 9):
        basis = zonal_basis(n, 16)
        phi = random_phi(basis, rng, sup=0.1, parity="even")
        vals, dv, ddv = (
            grid + 1e-3 * np.concatenate([table[:, ::2].T, -table[:, ::2].T])
            for grid, table in (
                (phi.values, basis.values),
                (phi.dvalues, basis.dtheta),
                (phi.ddvalues, basis.ddtheta),
            )
        )
        assert vals.shape == (2 * 9, basis.x.size)
        for k in range(1, max_order(n) + 1):
            closed = _two_block_values(n, 1.0, k, basis, vals, dv, ddv)
            dense = _gb_values(n, 1.0, k, basis, vals, dv, ddv)
            np.testing.assert_allclose(closed, dense, rtol=1e-12, err_msg=f"n={n} k={k}")


def test_two_block_values_reach_past_the_dense_limit_in_bounded_memory():
    # the dense evaluator stops at DENSE_DIM_LIMIT; the closed form holds
    # the space-form value at every problem order up to n = 21, and its
    # peak allocation on a Jacobian-shaped batch is a few grids, whatever n
    import tracemalloc

    assert DENSE_DIM_LIMIT < 21
    for n in range(3, 22):
        basis = zonal_basis(n, 4)
        zero = np.zeros(basis.x.size)
        t = np.linspace(-0.5, 0.5, basis.x.size)
        for k in range(1, max_order(n) + 1):
            lead = math.factorial(2 * k) // 2**k
            A, B = lead * math.comb(n - 1, 2 * k), lead * math.comb(n - 1, 2 * k - 1)
            for mu in (1.0, -1.0):
                values = _two_block_values(n, mu, k, basis, zero, zero, zero)
                np.testing.assert_allclose(values, space_form_invariant(n, k, mu), rtol=1e-14)
                # phi'' = t alone gives k_rad = mu (1 - t) and k_sph = mu,
                # so the radial coefficient B is checked apart from A + B
                values = _two_block_values(n, mu, k, basis, zero, zero, t)
                expected = mu ** (k - 1) * (A * mu + B * mu * (1.0 - t))
                np.testing.assert_allclose(values, expected, rtol=1e-14, err_msg=f"n={n} k={k} mu={mu}")
    basis = zonal_basis(21, 16)
    phi = mode_field(basis, 2, 0.05)
    vals, dv, ddv = (np.broadcast_to(a, (18, basis.x.size)).copy() for a in (phi.values, phi.dvalues, phi.ddvalues))
    tracemalloc.start()
    try:
        values = _two_block_values(21, 1.0, 10, basis, vals, dv, ddv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.shape == vals.shape and np.all(np.isfinite(values))
    assert peak <= 8 * vals.nbytes


def test_gb_field_round_value_and_negative_curvature():
    for n, k, mu in [(5, 2, 1.0), (6, 2, -1.0), (7, 3, -2.0)]:
        sf = space_form(n, mu, FULL_SPHERE if mu > 0 else SYNTHETIC_HYPERBOLIC)
        basis = zonal_basis(n, 6)
        cm = conformal_metric(sf, _constant_field(basis, 0.0))
        field = gb_field(cm, k)
        np.testing.assert_allclose(field.values, space_form_invariant(n, k, mu), rtol=1e-12)


def test_gb_field_constant_conformal_shift_scales_invariant():
    # e^{2a} g is a space form of curvature mu e^{-2a}
    n, k, a = 5, 2, 0.1
    sf = space_form(n, 1.0, FULL_SPHERE)
    basis = zonal_basis(n, 6)
    cm = conformal_metric(sf, _constant_field(basis, a))
    field = gb_field(cm, k)
    np.testing.assert_allclose(
        field.values, space_form_invariant(n, k, math.exp(-2 * a)), rtol=1e-12
    )


def test_gb_field_order_guard(monkeypatch):
    sf = space_form(5, 1.0, FULL_SPHERE)
    basis = zonal_basis(5, 6)
    cm = conformal_metric(sf, _constant_field(basis, 0.0))
    with pytest.raises(ValueError):
        gb_field(cm, 3)

    def refuse(*args):
        raise AssertionError("the invariant kernel was called")

    monkeypatch.setattr(spaceform, "gauss_bonnet_coeffs", refuse)
    with pytest.raises(ValueError, match="unknown pipeline"):
        gb_field(cm, 2, "bogus")


def test_dense_oracles_refuse_dimensions_above_the_dense_limit(monkeypatch):
    # refused before any dense evaluation: at n = 11 one (4,4) square builds
    # an array of 18M entries; the solver's closed form has no limit
    def refuse(*args):
        raise AssertionError("the dense evaluator was called")

    monkeypatch.setattr(spaceform, "_gb_chunk", refuse)
    n = DENSE_DIM_LIMIT + 1
    sf = space_form(n, 1.0, FULL_SPHERE)
    f = mode_field(zonal_basis(n, 4), 2, 0.05)
    for k in (1, 2, max_order(n)):
        with pytest.raises(ValueError, match=f"at most {DENSE_DIM_LIMIT}"):
            gb_field(conformal_metric(sf, f), k)
        with pytest.raises(ValueError, match=f"at most {DENSE_DIM_LIMIT}"):
            fd_verify(sf, f, k)


def test_gb_values_chunking_does_not_change_results(monkeypatch):
    rng = np.random.default_rng(39)
    basis = zonal_basis(6, 10)
    f = random_phi(basis, rng, sup=0.2)
    vals = np.stack([f.values] * 5) + 0.01 * rng.standard_normal((5, basis.x.size))
    dv = np.broadcast_to(f.dvalues, (5, basis.x.size))
    ddv = np.broadcast_to(f.ddvalues, (5, basis.x.size))
    whole = _gb_values(6, 1.0, 2, basis, vals, dv, ddv)
    monkeypatch.setattr(spaceform, "_GATHER_BUDGET", 1)  # one node per chunk
    assert np.array_equal(_gb_values(6, 1.0, 2, basis, vals, dv, ddv), whole)


def test_gb_values_gathers_stay_within_budget(monkeypatch):
    # n = 9, k = 3 builds w^2 with one square whose largest array, the row
    # stage's result Y, holds 126 matrices of 36 x 36 per node, so 20 nodes
    # in one chunk would hold 3.3e6 entries; the last step reads only the
    # diagonal blocks of w^2 w (84 * 15^2 entries per node). One node alone
    # exceeds the default budget, so the test pins one under which the
    # chunk rule fits 4 nodes in a chunk, and records the size of every
    # array np.take and np.matmul return: the product kernel's gathers and
    # its row stage, and the invariant's diagonal blocks
    per_node = 126 * 36 * 36
    budget = 4 * per_node
    monkeypatch.setattr(spaceform, "_GATHER_BUDGET", budget)

    sizes = []

    def recording(real):
        def wrapper(*args, **kwargs):
            out = real(*args, **kwargs)
            sizes.append(out.size)
            return out

        return wrapper

    monkeypatch.setattr(np, "take", recording(np.take))
    monkeypatch.setattr(np, "matmul", recording(np.matmul))
    n, k = 9, 3
    basis = zonal_basis(n, 2)
    cm = conformal_metric(space_form(n, 1.0, FULL_SPHERE), mode_field(basis, 2, 0.05))
    field = gb_field(cm, k)
    monkeypatch.undo()
    assert basis.x.size == 20
    assert 3 * per_node < max(sizes) <= budget
    for node in (0, 7, 19):
        R = warped_curvature(cm, node)
        expected = two_block_invariant(n, k, R.coeffs[0, 0], R.coeffs[-1, -1])
        assert field.values[node] == pytest.approx(expected, rel=1e-11)


def test_gb_values_diagonal_block_gathers_stay_within_budget(monkeypatch):
    # n = 5, k = 2 makes no product: the largest per-node arrays are the two
    # reads of the diagonal blocks and their product, 5 * 6^2 = 180 entries
    # against 10^2 for the curvature stack, so they alone size the chunks
    import gbyamabe.invariants as invariants

    taken, products = [], []
    real_take, real_product = np.take, invariants.product_coeffs

    def recording_take(a, indices, axis=None, **kwargs):
        out = real_take(a, indices, axis=axis, **kwargs)
        taken.append(out.size)
        return out

    def recording_product(*args):
        products.append(args)
        return real_product(*args)

    basis = zonal_basis(5, 16)
    f = mode_field(basis, 2, 0.05)
    vals = np.stack([f.values * scale for scale in (0.5, 1.0, 1.5)])
    dv, ddv = (np.stack([a * scale for scale in (0.5, 1.0, 1.5)]) for a in (f.dvalues, f.ddvalues))
    whole = _gb_values(5, 1.0, 2, basis, vals, dv, ddv)
    budget = 1000
    monkeypatch.setattr(spaceform, "_GATHER_BUDGET", budget)
    monkeypatch.setattr(np, "take", recording_take)
    monkeypatch.setattr(invariants, "product_coeffs", recording_product)
    chunked = _gb_values(5, 1.0, 2, basis, vals, dv, ddv)
    assert vals.size == 144 and len(taken) == 2 * math.ceil(144 / (budget // 180))
    assert budget // 2 < max(taken) <= budget
    assert products == []
    assert np.array_equal(chunked, whole)


_JACOBIAN_PEAK = """
import tracemalloc
import numpy as np
from gbyamabe.spaceform import _GATHER_BUDGET, _gb_values, mode_field, zonal_basis
basis = zonal_basis(7, 16, 48)
phi = mode_field(basis, 2, 0.05)
vals, dv, ddv = (
    grid + 1e-3 * np.concatenate([table[:, ::2].T, -table[:, ::2].T])
    for grid, table in ((phi.values, basis.values), (phi.dvalues, basis.dtheta), (phi.ddvalues, basis.ddtheta))
)
tracemalloc.start()
_gb_values(7, 1.0, 2, basis, vals, dv, ddv)
print(vals.shape[0], vals.shape[1], tracemalloc.get_traced_memory()[1], _GATHER_BUDGET)
"""


def test_k2_jacobian_batch_peaks_at_a_chunk_not_the_batch():
    # a dense (7, 2) batch of 18 perturbed fields at 48 nodes, the size of
    # an RP^7 k = 2 Jacobian batch: each of the invariant's two
    # diagonal-block gathers holds 1260 entries per node, 8.7 MB each for
    # the whole batch. Chunked, a call holds two gathers of at most the
    # budget, the chunk's curvature stack and the outputs. The invariant's
    # retained buffers persist per thread, so a process that has already
    # grown them would hide the peak: the call runs in a child.
    src = str(Path(spaceform.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", _JACOBIAN_PEAK], capture_output=True, text=True, env=env, check=True)
    fields, nodes, peak, budget = map(int, proc.stdout.split())
    assert (fields, nodes) == (18, 48)
    assert budget * 8 <= 2**20  # one gather in 1 MiB, so both fit a 2 MiB L2
    assert peak <= 4 * budget * 8
    assert peak < fields * nodes * 1260 * 8


# ---------------------------------------------------------------------------
# Volume, Laplacian, spectrum
# ---------------------------------------------------------------------------


def test_volume_of_round_and_shifted_metrics():
    sf = space_form(5, 1.0, REAL_PROJECTIVE)
    basis = zonal_basis(5, 10)
    zero = _constant_field(basis, 0.0)
    assert volume(conformal_metric(sf, zero)) == pytest.approx(sf.reference_volume, rel=1e-13)
    shifted = _constant_field(basis, 0.2)
    assert volume(conformal_metric(sf, shifted)) == pytest.approx(
        math.exp(5 * 0.2) * sf.reference_volume, rel=1e-13
    )
    for basis in _grid_bases():
        for quotient in (REAL_PROJECTIVE, FULL_SPHERE):
            sf_n = space_form(basis.n, 1.0, quotient)
            zero_n = _constant_field(basis, 0.0)
            assert volume(conformal_metric(sf_n, zero_n)) == pytest.approx(sf_n.reference_volume, rel=1e-14)
    hyp = space_form(5, -1.0, SYNTHETIC_HYPERBOLIC)
    with pytest.raises(ValueError):
        volume(conformal_metric(hyp, zero))


def test_laplacian_mode_eigenvalues_and_differential_formula():
    rng = np.random.default_rng(40)
    for n, mu in [(5, 1.0), (6, 2.0)]:
        sf = space_form(n, mu, FULL_SPHERE)
        basis = zonal_basis(n, 10)
        f = random_phi(basis, rng, sup=0.5)
        lap = laplacian(sf, f)
        ells = np.arange(11)
        np.testing.assert_allclose(lap.modes, ells * (ells + n - 1) * mu * f.modes, atol=1e-12)
        cot = basis.x / basis.sin_theta
        differential = -mu * (f.ddvalues + (n - 1) * cot * f.dvalues)
        np.testing.assert_allclose(lap.values, differential, atol=1e-8)


def test_spectrum_gap_check_all_quotients():
    assert spectrum_gap_check(space_form(5, 1.0, REAL_PROJECTIVE)) == (12.0, 5.0, True)
    assert spectrum_gap_check(space_form(5, 1.0, FULL_SPHERE)) == (5.0, 5.0, False)
    assert spectrum_gap_check(space_form(6, -1.0, SYNTHETIC_HYPERBOLIC)) == (None, -6.0, True)
    # scaling: curvature mu scales both sides
    lam1, critical, ok = spectrum_gap_check(space_form(7, 2.0, REAL_PROJECTIVE))
    assert lam1 == pytest.approx(2 * 8 * 2.0)
    assert critical == pytest.approx(14.0)
    assert ok
