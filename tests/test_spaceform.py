"""Zonal basis, latitude fields, curvature pipelines, volume, spectrum."""

import math

import numpy as np
import pytest

from gbyamabe import (
    FULL_SPHERE,
    REAL_PROJECTIVE,
    SYNTHETIC_HYPERBOLIC,
    conformal_curvature,
    conformal_metric,
    constant_field,
    field_from_modes,
    field_from_values,
    gauss_bonnet,
    gauss_bonnet_values,
    gb_field,
    laplacian,
    mode_field,
    reflect_field,
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
from gbyamabe.indexing import split_tables
from gbyamabe.spaceform import _GATHER_BUDGET, _gb_values

from reference_forms import two_block_invariant


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


def test_basis_grid_is_exactly_symmetric():
    basis = zonal_basis(5, 12)
    assert np.array_equal(basis.x, -basis.x[::-1])
    assert np.array_equal(basis.weights, basis.weights[::-1])
    assert basis.x.size == 2 * 12 + 16


def test_basis_discrete_orthonormality():
    for n in (5, 6, 7):
        basis = zonal_basis(n, 10)
        gram = basis.values.T @ (basis.weights[:, None] * basis.values)
        np.testing.assert_allclose(gram, np.eye(11), atol=1e-13)


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


def test_basis_validation():
    with pytest.raises(ValueError):
        zonal_basis(5, 0)
    with pytest.raises(ValueError):
        zonal_basis(5, 10, nnodes=5)


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


def test_constant_field_and_reflection():
    basis = zonal_basis(5, 8)
    c = constant_field(basis, 2.5)
    np.testing.assert_allclose(c.values, 2.5, atol=1e-13)
    rng = np.random.default_rng(33)
    f = random_phi(basis, rng)
    r = reflect_field(f)
    np.testing.assert_allclose(r.values, f.values[::-1], atol=1e-11)
    rr = reflect_field(r)
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
    with pytest.raises(ValueError):
        space_form(5, 1.0, SYNTHETIC_HYPERBOLIC, lambda1=1.0)
    with pytest.raises(ValueError):
        space_form(5, -1.0, SYNTHETIC_HYPERBOLIC)  # missing lambda1
    with pytest.raises(ValueError):
        space_form(5, 1.0, "klein_bottle")
    hyp = space_form(6, -1.0, SYNTHETIC_HYPERBOLIC, lambda1=0.5, reference_volume=3.0)
    assert hyp.reference_volume == 3.0


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
    cm = conformal_metric(sf, constant_field(basis, 0.0))
    g = standard_metric(5)
    node = basis.x.size // 3
    for R in (warped_curvature(cm, node), conformal_curvature(cm, node)):
        assert gauss_bonnet(R, g, 2) == pytest.approx(30.0, rel=1e-13)


def test_pipelines_agree_pointwise():
    rng = np.random.default_rng(35)
    for n in (5, 6):
        sf = space_form(n, 1.0, FULL_SPHERE)
        basis = zonal_basis(n, 10)
        for _ in range(3):
            cm = conformal_metric(sf, random_phi(basis, rng, sup=0.2))
            for node in (0, basis.x.size // 2, basis.x.size - 1):
                Rw = warped_curvature(cm, node)
                Rc = conformal_curvature(cm, node)
                scale = max(np.abs(Rw.coeffs).max(), 1e-30)
                assert np.abs(Rw.coeffs - Rc.coeffs).max() <= 1e-12 * scale


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


def test_gb_field_round_value_and_negative_curvature():
    for n, k, mu in [(5, 2, 1.0), (6, 2, -1.0), (7, 3, -2.0)]:
        if mu > 0:
            sf = space_form(n, mu, FULL_SPHERE)
        else:
            sf = space_form(n, mu, SYNTHETIC_HYPERBOLIC, lambda1=1.0)
        basis = zonal_basis(n, 6)
        cm = conformal_metric(sf, constant_field(basis, 0.0))
        field = gb_field(cm, k)
        np.testing.assert_allclose(field.values, space_form_invariant(n, k, mu), rtol=1e-12)


def test_gb_field_constant_conformal_shift_scales_invariant():
    # e^{2a} g is a space form of curvature mu e^{-2a}
    n, k, a = 5, 2, 0.1
    sf = space_form(n, 1.0, FULL_SPHERE)
    basis = zonal_basis(n, 6)
    cm = conformal_metric(sf, constant_field(basis, a))
    field = gb_field(cm, k)
    np.testing.assert_allclose(
        field.values, space_form_invariant(n, k, math.exp(-2 * a)), rtol=1e-12
    )


def test_gb_field_order_guard():
    sf = space_form(5, 1.0, FULL_SPHERE)
    basis = zonal_basis(5, 6)
    cm = conformal_metric(sf, constant_field(basis, 0.0))
    with pytest.raises(ValueError):
        gb_field(cm, 3)


def test_gauss_bonnet_values_multiple_orders():
    rng = np.random.default_rng(38)
    sf = space_form(5, 1.0, REAL_PROJECTIVE)
    basis = zonal_basis(5, 8)
    phi = random_phi(basis, rng, sup=0.1, parity="even")
    cm = conformal_metric(sf, phi)
    vals = gauss_bonnet_values(cm, (1, 2))
    np.testing.assert_allclose(vals[1], gb_field(cm, 1).values, atol=0)
    np.testing.assert_allclose(vals[2], gb_field(cm, 2).values, atol=0)
    with pytest.raises(ValueError):
        gauss_bonnet_values(cm, (0,))


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
    # n = 9, k = 3 builds w^2 with one product that gathers 756^2 entries per
    # node, so 20 nodes in one chunk would hold 1.1e7 entries; the last step
    # reads only the diagonal blocks of w^2 w (84 * 15^2 entries per node)
    import gbyamabe.invariants as invariants

    real = invariants.product_coeffs
    gathered = []

    def recording(n, p, q, w1, r, s, w2):
        batch = math.prod(np.broadcast_shapes(w1.shape[:-2], w2.shape[:-2]))
        gathered.append(batch * split_tables(n, p, r)[0].size * split_tables(n, q, s)[0].size)
        return real(n, p, q, w1, r, s, w2)

    monkeypatch.setattr(invariants, "product_coeffs", recording)
    n, k = 9, 3
    basis = zonal_basis(n, 2)
    cm = conformal_metric(space_form(n, 1.0, FULL_SPHERE), mode_field(basis, 2, 0.05))
    field = gb_field(cm, k)
    assert basis.x.size == 20
    assert 0 < max(gathered) <= _GATHER_BUDGET
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


# ---------------------------------------------------------------------------
# Volume, Laplacian, spectrum
# ---------------------------------------------------------------------------


def test_volume_of_round_and_shifted_metrics():
    sf = space_form(5, 1.0, REAL_PROJECTIVE)
    basis = zonal_basis(5, 10)
    zero = constant_field(basis, 0.0)
    assert volume(conformal_metric(sf, zero)) == pytest.approx(sf.reference_volume, rel=1e-13)
    shifted = constant_field(basis, 0.2)
    assert volume(conformal_metric(sf, shifted)) == pytest.approx(
        math.exp(5 * 0.2) * sf.reference_volume, rel=1e-13
    )
    hyp = space_form(5, -1.0, SYNTHETIC_HYPERBOLIC, lambda1=1.0)
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
    lam1, critical, ok = spectrum_gap_check(
        space_form(6, -1.0, SYNTHETIC_HYPERBOLIC, lambda1=0.75)
    )
    assert (lam1, critical, ok) == (0.75, -6.0, True)
    # scaling: curvature mu scales both sides
    lam1, critical, ok = spectrum_gap_check(space_form(7, 2.0, REAL_PROJECTIVE))
    assert lam1 == pytest.approx(2 * 8 * 2.0)
    assert critical == pytest.approx(14.0)
    assert ok
