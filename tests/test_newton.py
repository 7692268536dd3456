"""Newton solver, kernel demo, continuation, certificates."""

import dataclasses

import numpy as np
import pytest

from gbyamabe import (
    FULL_SPHERE,
    REAL_PROJECTIVE,
    SYNTHETIC_HYPERBOLIC,
    IterationRecord,
    LinearFunctional,
    NondegeneracyViolated,
    SolverConfig,
    SolverReport,
    continuation_sweep,
    field_from_modes,
    fixed_point_certificate,
    generalized_solve,
    mode_field,
    newton_solve,
    quadratic_tail,
    reflect_field,
    space_form,
    space_form_invariant,
    sphere_kernel_demo,
    sup_norm,
    zonal_basis,
)


def rp5():
    return space_form(5, 1.0, REAL_PROJECTIVE)


def default_psi(amp=0.05, ell=2, n=5, cutoff=16):
    return mode_field(zonal_basis(n, cutoff), ell, amp)


def test_projective_solve_converges_to_exact_correction():
    sf = rp5()
    psi = default_psi()
    report = newton_solve(sf, psi, 2)
    assert report.status == "converged"
    assert report.steps <= 8
    assert report.final_residual <= 1e-10
    assert report.final_volume_drift <= 1e-10
    assert report.achieved_constant == pytest.approx(space_form_invariant(5, 2, 1.0), rel=1e-9)
    # undoing the profile exactly restores the round metric
    assert np.abs(report.w.modes + psi.modes).max() <= 1e-9
    assert report.w.parity == "even"
    assert report.jacobian_min_singular_value > 1e-3


def test_warm_start_skips_iteration():
    sf = rp5()
    psi = default_psi()
    w0 = field_from_modes(psi.basis, -psi.modes, parity="even")
    report = newton_solve(sf, psi, 2, w0=w0, c0=space_form_invariant(5, 2, 1.0))
    assert report.status == "converged"
    assert report.steps == 0


def test_sphere_solve_uses_minimum_norm_steps():
    sf = space_form(5, 1.0, FULL_SPHERE)
    psi = default_psi(ell=3)
    report = newton_solve(sf, psi, 2)
    assert report.status == "converged"
    assert report.final_residual <= 1e-10
    # the Jacobian carries the first-mode kernel yet the solve still lands;
    # the landing point is a different member of the solution family than
    # -psi (first-mode content appears), so certify it rather than compare
    assert report.jacobian_min_singular_value <= 1e-6
    assert abs(report.w.modes[1]) > 1e-4
    cert = fixed_point_certificate(sf, psi, report, k=2)
    assert cert.passed


def test_sphere_solve_is_reflection_equivariant():
    sf = space_form(5, 1.0, FULL_SPHERE)
    psi = default_psi(ell=3)
    a = newton_solve(sf, psi, 2)
    b = newton_solve(sf, reflect_field(psi), 2)
    assert a.status == b.status == "converged"
    assert np.abs(reflect_field(a.w).modes - b.w.modes).max() <= 1e-8
    assert a.achieved_constant == pytest.approx(b.achieved_constant, abs=1e-10)


def test_max_iterations_status():
    sf = rp5()
    psi = default_psi(amp=0.2)
    cfg = SolverConfig(max_iterations=1, tol_residual=1e-18, tol_volume=1e-18)
    report = newton_solve(sf, psi, 2, cfg)
    assert report.status == "max_iterations"
    assert report.steps == 1


def test_line_search_failure_status(monkeypatch):
    # every trial step makes the residual grow: the solve must stop at the
    # initial iterate with its own status instead of taking the last trial
    import gbyamabe.newton as newton

    real = newton._evaluate
    calls = []

    def growing(*args):
        F, S, vol = real(*args)
        calls.append(args)
        return (F if len(calls) == 1 else F + 1e6), S, vol  # the first call is the initial state

    monkeypatch.setattr(newton, "_evaluate", growing)
    report = newton_solve(rp5(), default_psi(), 2)
    assert report.status == "line_search_failed"
    assert report.steps == 0
    assert len(calls) == 1 + 12
    assert np.all(report.w.modes == 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(mode_cutoff=1)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(tol_residual=0.0)
    with pytest.raises(ValueError):
        SolverConfig(damping=-0.5)


def test_solver_input_guards():
    sf = rp5()
    psi = default_psi()
    with pytest.raises(ValueError):
        newton_solve(sf, psi, 1)  # classical order handled by generalized_solve
    with pytest.raises(ValueError):
        newton_solve(sf, psi, 3)  # 2k >= n
    with pytest.raises(ValueError):
        newton_solve(sf, default_psi(amp=0.35), 2)
    hyp = space_form(5, -1.0, SYNTHETIC_HYPERBOLIC, lambda1=1.0)
    with pytest.raises(ValueError):
        newton_solve(hyp, psi, 2)
    odd = default_psi(ell=3)
    with pytest.raises(ValueError):
        newton_solve(sf, odd, 2)
    with pytest.raises(ValueError):
        newton_solve(sf, psi, 2, w0=odd)


def test_generalized_solve_combined_constant():
    sf = rp5()
    psi = default_psi()
    report = generalized_solve(sf, psi, LinearFunctional((1.0, 0.1)))
    assert report.status == "converged"
    expected = space_form_invariant(5, 1, 1.0) + 0.1 * space_form_invariant(5, 2, 1.0)
    assert report.achieved_constant == pytest.approx(expected, rel=1e-9)
    assert np.abs(report.w.modes + psi.modes).max() <= 1e-9


def test_generalized_solve_rejects_degenerate_functional():
    sf = rp5()
    psi = default_psi()
    with pytest.raises(NondegeneracyViolated):
        generalized_solve(sf, psi, LinearFunctional((1.0, -1.0 / 6.0)))


def test_generalized_solve_drops_zero_coefficients():
    sf = rp5()
    psi = default_psi()
    report = generalized_solve(sf, psi, LinearFunctional((0.0, 1.0)))
    assert report.status == "converged"
    assert report.achieved_constant == pytest.approx(30.0, rel=1e-9)


def test_continuation_sweep_warm_starts():
    sf = rp5()
    direction = default_psi(amp=1.0)
    sweep = continuation_sweep(sf, direction, [0.01, 0.03, 0.05], 2)
    assert [amp for amp, _ in sweep] == [0.01, 0.03, 0.05]
    for amp, report in sweep:
        assert report.status == "converged"
        assert np.abs(report.w.modes + amp * direction.modes).max() <= 1e-9


def test_fixed_point_certificate_passes_on_solution():
    sf = rp5()
    psi = default_psi()
    report = newton_solve(sf, psi, 2)
    cert = fixed_point_certificate(sf, psi, report, k=2)
    assert cert.passed
    assert cert.variation <= 1e-9
    assert cert.sup_deviation <= 1e-9
    assert cert.max_mode == 32
    assert cert.nnodes == 2 * psi.basis.x.size


def test_fixed_point_certificate_flags_wrong_constant():
    sf = rp5()
    psi = default_psi()
    report = newton_solve(sf, psi, 2)
    tampered = dataclasses.replace(report, achieved_constant=report.achieved_constant + 1e-6)
    cert = fixed_point_certificate(sf, psi, tampered, k=2)
    assert not cert.passed
    assert cert.sup_deviation >= 1e-7


def test_fixed_point_certificate_needs_orders():
    sf = rp5()
    psi = default_psi()
    report = newton_solve(sf, psi, 2)
    with pytest.raises(ValueError):
        fixed_point_certificate(sf, psi, report)


def synthetic_report(residuals):
    basis = zonal_basis(5, 4)
    w = field_from_modes(basis, np.zeros(5))
    records = tuple(
        IterationRecord(residual=r, volume_drift=0.0, step_norm=0.0, damping=1.0)
        for r in residuals
    )
    return SolverReport(
        status="converged",
        iterations=records,
        achieved_constant=30.0,
        w=w,
        jacobian_min_singular_value=1.0,
    )


def test_quadratic_tail_on_real_solve():
    report = newton_solve(rp5(), default_psi(), 2)
    assert quadratic_tail(report)


def test_quadratic_tail_synthetic_cases():
    assert quadratic_tail(synthetic_report([1.0, 1e-2, 1e-6, 1e-12]))
    assert not quadratic_tail(synthetic_report([1e-2, 1e-3, 1e-3]))
    # saturated floor excuses the final transition
    assert quadratic_tail(synthetic_report([1e-2, 1e-4, 1e-12]))
    # short histories: only the floor matters
    assert quadratic_tail(synthetic_report([5e-12]))
    assert not quadratic_tail(synthetic_report([1.0]))


def test_sphere_kernel_demo_separates_sectors():
    cfg = SolverConfig(mode_cutoff=8)
    even_min, full_min = sphere_kernel_demo(5, 1.0, 2, cfg)
    assert full_min <= 1e-3 * even_min
    with pytest.raises(ValueError):
        sphere_kernel_demo(5, 1.0, 0)
    with pytest.raises(ValueError):
        sphere_kernel_demo(5, -1.0, 2)
