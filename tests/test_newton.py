"""Newton solver, kernel demo, continuation, certificates."""

import dataclasses
import json

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
    conformal_metric,
    constants,
    continuation_sweep,
    field_from_modes,
    fixed_point_certificate,
    gb_field,
    generalized_solve,
    mode_field,
    newton_solve,
    quadratic_tail,
    space_form,
    space_form_invariant,
    sphere_kernel_demo,
    volume,
    zonal_basis,
)
from gbyamabe import newton
from gbyamabe.forms import DENSE_DIM_LIMIT
from gbyamabe.spaceform import _gauged_modes, _reflect_field, _sphere_factor, _two_block_values


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


def test_solve_uses_the_profile_basis_without_resampling(monkeypatch):
    from gbyamabe import newton

    calls = []
    resample = newton.resample
    monkeypatch.setattr(newton, "resample", lambda *args: calls.append(args) or resample(*args))
    report = newton_solve(rp5(), default_psi(), 2)
    assert report.status == "converged"
    assert calls == []


def test_warm_start_skips_iteration():
    sf = rp5()
    psi = default_psi()
    w0 = field_from_modes(psi.basis, -psi.modes, parity="even")
    report = newton_solve(sf, psi, 2, w0=w0, c0=space_form_invariant(5, 2, 1.0))
    assert report.status == "converged"
    assert report.steps == 0


def gauged_round_correction(psi):
    """The gauged S^n answer w* = -psi - log(alpha + beta cos theta) on psi's
    grid: e^{2 (psi + w*)} g is the round metric pulled back by a Moebius map
    (alpha^2 - beta^2 = 1 keeps the volume), and bisection on beta picks the
    one orbit point whose w* has no l = 1 mode."""
    basis = psi.basis

    def correction(beta):
        return -psi.values - np.log(np.sqrt(1.0 + beta * beta) + beta * basis.x)

    lo, hi = -0.5, 0.5  # the l = 1 mode of correction(beta) decreases in beta
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if basis.projection[1] @ correction(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return correction(0.5 * (lo + hi))


@pytest.mark.parametrize(
    "n, weights, profile",
    [
        (5, {2: 1.0}, {1: 0.03, 2: 0.01}),
        (6, {2: 1.0}, {1: 0.02, 2: 0.01, 3: -0.01}),
        (7, {3: 1.0}, {1: 0.02, 3: 0.01}),
        (5, {1: 1.0, 2: 0.2}, {1: 0.02, 2: 0.01, 3: 0.01}),
    ],
    ids=["S5-k2", "S6-k2", "S7-k3", "S5-combined"],
)
def test_sphere_solve_is_the_gauged_round_metric(n, weights, profile):
    # the gauge drops l = 1 from the unknowns and the equations, so the
    # Newton system stays square and nonsingular and the answer is the one
    # point of the Moebius orbit without l = 1 content
    sf = space_form(n, 1.0, FULL_SPHERE)
    basis = zonal_basis(n, 16)
    psi = field_from_modes(basis, sum(mode_field(basis, ell, amp).modes for ell, amp in profile.items()))
    functional = LinearFunctional(tuple(weights.get(k, 0.0) for k in range(1, max(weights) + 1)))
    report = generalized_solve(sf, psi, functional)
    assert report.status == "converged"
    assert report.w.modes[1] == 0.0
    assert np.abs(report.w.values - gauged_round_correction(psi)).max() <= 1e-12
    assert report.jacobian_min_singular_value >= 1e-3
    round_value = sum(c * space_form_invariant(n, k, 1.0) for k, c in weights.items())
    assert report.achieved_constant == pytest.approx(round_value, rel=1e-12)
    assert fixed_point_certificate(sf, psi, report, weights=weights).passed


def test_sphere_warm_start_ignores_the_first_mode():
    sf = space_form(5, 1.0, FULL_SPHERE)
    psi = default_psi(ell=3)
    cold = newton_solve(sf, psi, 2)
    w0 = field_from_modes(psi.basis, cold.w.modes + mode_field(psi.basis, 1, 0.01).modes)
    warm = newton_solve(sf, psi, 2, w0=w0, c0=cold.achieved_constant)
    assert warm.status == "converged" and warm.steps == 0
    assert warm.w.modes[1] == 0.0


def test_sphere_solve_is_reflection_equivariant():
    sf = space_form(5, 1.0, FULL_SPHERE)
    psi = default_psi(ell=3)
    a = newton_solve(sf, psi, 2)
    b = newton_solve(sf, _reflect_field(psi), 2)
    assert a.status == b.status == "converged"
    assert np.abs(_reflect_field(a.w).modes - b.w.modes).max() <= 1e-8
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


def test_a_projected_root_that_is_not_a_solution_ends_the_solve_early():
    # this profile leads to a root of the projected system whose pointwise
    # residual is about 22 c; once the projected residual is at round-off
    # no step decreases it, so the line search ends the solve there
    report = newton_solve(rp5(), default_psi(amp=-0.06, ell=6), 2)
    assert report.status == "line_search_failed"
    assert report.steps <= 8
    assert report.final_residual > 10 * report.achieved_constant


def test_config_validation():
    fields = [field.name for field in dataclasses.fields(SolverConfig)]
    assert fields == ["mode_cutoff", "max_iterations", "tol_residual", "tol_volume"]
    with pytest.raises(ValueError):
        SolverConfig(mode_cutoff=1)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(tol_residual=0.0)
    # every step starts at the full Newton step: there is no damping setting
    with pytest.raises(TypeError, match="damping"):
        SolverConfig(damping=0.5)
    for name in ("tol_residual", "tol_volume"):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            SolverConfig(**{name: float("nan")})


@pytest.mark.parametrize(
    "field, value, error, message",
    [
        ("max_iterations", 2.5, ValueError, "max_iterations must be an integer"),
        ("max_iterations", True, ValueError, "max_iterations must be an integer"),
        ("mode_cutoff", 16.0, ValueError, "mode_cutoff must be an integer"),
        # the solver grid is zonal_basis(n, mode_cutoff): there is no node count setting
        ("nnodes", 48.0, TypeError, "nnodes"),
        ("nnodes", True, TypeError, "nnodes"),
    ],
    ids=["max_iterations-2.5", "max_iterations-True", "mode_cutoff-16.0", "nnodes-48.0", "nnodes-True"],
)
def test_config_counts_must_be_integers(field, value, error, message):
    with pytest.raises(error, match=message):
        SolverConfig(**{field: value})


def test_singular_projective_jacobian_stops_at_the_initial_iterate(monkeypatch, capsys):
    import gbyamabe.newton as newton
    from gbyamabe.cli import main

    real = newton._assemble_jacobian

    def rank_deficient(*args):
        J = real(*args)
        J[:, 0] = 0.0
        return J

    monkeypatch.setattr(newton, "_assemble_jacobian", rank_deficient)
    report = newton_solve(rp5(), default_psi(), 2)
    assert report.status == "singular_jacobian"
    assert report.steps == 0
    assert np.all(report.w.modes == 0.0)
    assert report.jacobian_min_singular_value < 1e-10
    assert main(["solve"]) == 3
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["status"] == "singular_jacobian"
    assert "certificate" not in results


def test_singular_sphere_jacobian_stops_at_the_initial_iterate(monkeypatch):
    # the gauged sphere system is square as well, so the same gate applies
    import gbyamabe.newton as newton

    real = newton._assemble_jacobian

    def rank_deficient(*args):
        J = real(*args)
        J[:, 1] = 0.0
        return J

    monkeypatch.setattr(newton, "_assemble_jacobian", rank_deficient)
    report = newton_solve(space_form(5, 1.0, FULL_SPHERE), default_psi(ell=3), 2)
    assert report.status == "singular_jacobian"
    assert report.steps == 0
    assert np.all(report.w.modes == 0.0)


def test_converged_needs_the_volume_tolerance_too():
    # the residual meets its loose tolerance two steps before the volume
    # drift meets its tight one, so the solve must keep going
    cfg = SolverConfig(tol_residual=1e-2, tol_volume=1e-13)
    report = newton_solve(rp5(), default_psi(), 2, cfg)
    assert report.status == "converged"
    assert report.steps == 4
    assert report.iterations[2].residual <= 1e-2 and report.iterations[2].volume_drift > 1e-13
    assert report.final_volume_drift <= 1e-13


def test_reported_volume_drift_is_the_solved_metric_volume():
    sf = space_form(5, 1.0, FULL_SPHERE)
    psi = field_from_modes(zonal_basis(5, 16), default_psi(0.03, ell=1).modes + default_psi(0.01).modes)
    tight = SolverConfig(max_iterations=1, tol_residual=1e-18, tol_volume=1e-18)
    for config in (tight, None):
        report = newton_solve(sf, psi, 2, config)
        phi = field_from_modes(psi.basis, psi.modes + report.w.modes)
        drift = abs(volume(conformal_metric(sf, phi)) - sf.reference_volume) / sf.reference_volume
        assert report.final_volume_drift == drift


def test_non_integer_orders_are_refused():
    sf = rp5()
    psi = mode_field(zonal_basis(5, 16), 2, 0.02)
    # the integer rule comes before the range rule, so True and 1.5 are not
    # reported as orders below 2
    for k in (2.9, True, 1.5):
        with pytest.raises(ValueError, match="order k must be an integer"):
            newton_solve(sf, psi, k)
    report = newton_solve(sf, psi, 2)
    assert report.status == "converged"
    with pytest.raises(ValueError, match="order k must be an integer"):
        fixed_point_certificate(sf, psi, report, k=2.5)


def test_solver_input_guards():
    sf = rp5()
    psi = default_psi()
    with pytest.raises(ValueError):
        newton_solve(sf, psi, 1)  # classical order handled by generalized_solve
    with pytest.raises(ValueError):
        newton_solve(sf, psi, 3)  # 2k >= n
    with pytest.raises(ValueError):
        newton_solve(sf, default_psi(amp=0.35), 2)
    hyp = space_form(5, -1.0, SYNTHETIC_HYPERBOLIC)
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
    # the first solve starts cold, bit for bit
    psi = field_from_modes(direction.basis, 0.01 * direction.modes, parity="even")
    assert sweep[0][1].iterations == newton_solve(sf, psi, 2).iterations
    # on RP^n the branch w = -a d is linear in a, so the secant from the
    # space form lands on it
    for amp, report in sweep[1:]:
        assert report.steps == 0
        assert np.abs(report.w.modes + amp * direction.modes).max() <= 1e-12


@pytest.mark.parametrize(
    "amplitudes",
    [[0.01, 0.02, 0.03, 0.04], [0.05, -0.03, 0.06, 0.01]],
    ids=["monotone", "non-monotone"],
)
def test_continuation_sweep_secant_on_a_curved_branch(amplitudes):
    # l = 1 content bends the gauged S^n branch, so the secant is a
    # second-order start: exact answers in fewer steps than a cold start
    sf = space_form(5, 1.0, FULL_SPHERE)
    basis = zonal_basis(5, 16)
    modes = np.zeros(basis.max_mode + 1)
    modes[1:4] = [0.7, 0.4, -0.5]
    direction = field_from_modes(basis, modes / np.abs(basis.values @ modes).max())
    sweep = continuation_sweep(sf, direction, amplitudes, 2)
    assert [amp for amp, _ in sweep] == amplitudes
    for i, (amp, report) in enumerate(sweep):
        psi = field_from_modes(direction.basis, amp * direction.modes)
        assert report.status == "converged"
        assert fixed_point_certificate(sf, psi, report, k=2).passed
        assert np.abs(report.w.values - gauged_round_correction(psi)).max() <= 1e-12
        if i:
            assert report.steps < newton_solve(sf, psi, 2).steps


def test_continuation_sweep_restarts_cold_after_a_failure():
    sf = rp5()
    direction = default_psi(amp=1.0)
    cfg = SolverConfig(max_iterations=1)
    sweep = continuation_sweep(sf, direction, [0.0, 0.02, 0.04], 2, cfg)
    assert [report.status for _, report in sweep] == ["converged", "max_iterations", "max_iterations"]
    cold = newton_solve(sf, field_from_modes(direction.basis, 0.04 * direction.modes, parity="even"), 2, cfg)
    assert sweep[2][1].iterations[0] == cold.iterations[0]
    # a repeated amplitude starts from the last converged point
    sweep = continuation_sweep(sf, direction, [0.03, 0.03], 2)
    assert [report.status for _, report in sweep] == ["converged", "converged"]
    assert sweep[1][1].steps == 0


def test_continuation_sweep_checks_every_amplitude_before_solving(monkeypatch):
    from gbyamabe import newton

    def no_solve(*args):
        raise AssertionError("a solve ran before the amplitude check")

    monkeypatch.setattr(newton, "_solve_core", no_solve)
    with pytest.raises(ValueError, match=r"profile sup norm 0\.400 exceeds the validated neighborhood \(0\.3\)"):
        continuation_sweep(rp5(), default_psi(amp=1.0), [0.05, 0.4], 2)


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


@pytest.mark.parametrize("k", [2, 3])
def test_order_3_solve_runs_no_dense_evaluation(monkeypatch, k):
    from gbyamabe import spaceform

    def dense(*args):
        raise AssertionError("the solver evaluated the invariant densely")

    sf = space_form(7, 1.0, REAL_PROJECTIVE)
    psi = default_psi(n=7)
    with monkeypatch.context() as patch:
        patch.setattr(spaceform, "_gb_chunk", dense)
        report = newton_solve(sf, psi, k)
        cert = fixed_point_certificate(sf, psi, report, k=k)
    assert report.status == "converged" and cert.passed
    # the dense oracle still agrees with the solved metric
    phi = field_from_modes(psi.basis, psi.modes + report.w.modes, parity="even")
    field = gb_field(conformal_metric(sf, phi), k, "conformal")
    assert np.abs(field.values - report.achieved_constant).max() <= 1e-9


@pytest.mark.parametrize("n", [6, 7, DENSE_DIM_LIMIT + 1])
def test_order_2_solve_above_the_dense_bound_runs_no_dense_evaluation(monkeypatch, n):
    # the solver runs the dense k = 2 path only at n = 5, for the benchmark's
    # tracer test (ROADMAP item 1); every larger n, within the dense oracles'
    # bound and above it, takes the closed form
    from gbyamabe import spaceform

    def dense(*args):
        raise AssertionError("the solver evaluated the invariant densely")

    sf = space_form(n, 1.0, REAL_PROJECTIVE)
    psi = default_psi(amp=0.02, n=n)
    with monkeypatch.context() as patch:
        patch.setattr(spaceform, "_gb_chunk", dense)
        report = newton_solve(sf, psi, 2)
        cert = fixed_point_certificate(sf, psi, report, k=2)
    assert report.status == "converged" and cert.passed


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
    # both at once would leave one of them unchecked
    with pytest.raises(ValueError, match="exactly one of an order k and explicit weights"):
        fixed_point_certificate(sf, psi, report, k=1, weights={2: 1.0})


def test_fixed_point_certificate_needs_a_finite_positive_threshold():
    sf = rp5()
    psi = default_psi()
    report = newton_solve(sf, psi, 2)
    for threshold in (float("nan"), 0.0, -1.0):
        with pytest.raises(ValueError, match="threshold must be finite and positive"):
            fixed_point_certificate(sf, psi, report, k=2, threshold=threshold)


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
    # the constant 100 and the floor 1e-11 are fixed, not arguments
    with pytest.raises(TypeError):
        quadratic_tail(synthetic_report([1.0]), 100.0)
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


def complex_step_jacobian(sf, weights, basis, window, phi_modes):
    """The Newton Jacobian by the complex step (Squire & Trapp, SIAM Review
    40 (1998)): Im F(phi + i h e_l) / h along each selected mode l, with
    h = 1e-30, on the closed form. Exact to round-off: no difference of two
    evaluations is taken. The volume is integrated here because
    _volume_from_values returns floats, which would drop the imaginary part."""
    h = 1e-30
    m = window.sel.size
    J = np.zeros((m + 1, m + 1))
    for col, ell in enumerate(window.sel):
        phi = phi_modes.astype(complex)
        phi[ell] += 1j * h
        vals, dv, ddv = basis.values @ phi, basis.dtheta @ phi, basis.ddtheta @ phi
        S = sum(c * _two_block_values(sf.n, sf.curvature, k, basis, vals, dv, ddv) for k, c in weights.items())
        J[:m, col] = window.projection @ S.imag / h
        vol = _sphere_factor(sf.quotient, sf.n, sf.curvature, sf.n) * (np.exp(sf.n * vals) @ basis.weights)
        J[m, col] = vol.imag / h / sf.reference_volume
    J[:m, m] = -window.ones
    return J


@pytest.mark.parametrize(
    "n, weights, quotient",
    [
        (6, {1: 1.0}, REAL_PROJECTIVE),
        (7, {2: 1.0}, REAL_PROJECTIVE),
        (7, {3: 1.0}, FULL_SPHERE),
        (9, {4: 1.0}, REAL_PROJECTIVE),
        (13, {6: 1.0}, REAL_PROJECTIVE),
        (21, {10: 1.0}, REAL_PROJECTIVE),
        (7, {1: 1.0, 3: 0.2}, REAL_PROJECTIVE),
        (5, {1: 1.0}, FULL_SPHERE),
    ],
    ids=["RP6-k1", "RP7-k2", "S7-k3", "RP9-k4", "RP13-k6", "RP21-k10", "RP7-combined", "S5-k1"],
)
def test_exact_jacobian_matches_the_complex_step(n, weights, quotient):
    # central differences missed by 5.7e-6 of the largest entry at (7,3) and
    # by 1.06 at (21,10); the exact blocks sum the same products over the
    # nodes as the complex step, so they agree to a few ulps (measured
    # <= 4e-16 relative to each block's largest entry)
    sf = space_form(n, 1.0, quotient)
    basis = zonal_basis(n, 16)
    phi = mode_field(basis, 2, 0.05).modes + mode_field(basis, 4, -0.02).modes
    if quotient == FULL_SPHERE:
        phi = phi + mode_field(basis, 3, 0.02).modes
    window = newton._window(basis, _gauged_modes(sf, 16))
    J = newton._assemble_jacobian(sf, weights, basis, window, phi)
    reference = complex_step_jacobian(sf, weights, basis, window, phi)
    m = window.sel.size
    for rows in (slice(0, m), slice(m, m + 1)):  # the mode block, then the volume row
        block, ref = J[rows, :m], reference[rows, :m]
        assert np.abs(block - ref).max() <= 2e-15 * np.abs(ref).max()
    assert np.array_equal(J[:, m], reference[:, m])


@pytest.mark.parametrize("n", [6, 7, 9, 13, 21])
def test_newton_model_at_the_space_form_is_the_paper_linearization(n):
    # at phi = 0 the mode block is 2 c (Delta - n mu) on the gauged modes
    # (the paper's linearization, conformal_coefficient c): its diagonal is
    # 2 c mu (l (l + n - 1) - n), measured to <= 9e-16 relative, and the
    # quadrature is exact on the products of modes it projects, so what lies
    # off the diagonal is round-off of the node sums (measured <= 1e-14 of
    # the largest diagonal entry)
    for k in sorted({1, 2, (n - 1) // 2}):
        for mu in (1.0, 0.7):
            for quotient in (REAL_PROJECTIVE, FULL_SPHERE):
                sf = space_form(n, mu, quotient)
                basis = zonal_basis(n, 16)
                window = newton._window(basis, _gauged_modes(sf, 16))
                m = window.sel.size
                block = newton._assemble_jacobian(sf, {k: 1.0}, basis, window, np.zeros(basis.max_mode + 1))[:m, :m]
                ell = window.sel
                expected = 2.0 * constants(n, k, mu).conformal_coefficient * mu * (ell * (ell + n - 1) - n)
                assert np.all(np.abs(np.diag(block) - expected) <= 4e-15 * np.abs(expected))
                off_diagonal = block - np.diag(np.diag(block))
                assert np.abs(off_diagonal).max() <= 1e-13 * np.abs(expected).max()


def test_only_the_dense_order_evaluates_perturbation_batches(monkeypatch):
    # the exact Jacobian evaluates the invariant on the nodes alone; the
    # central differences of the dense n = 5, k = 2 order evaluate it on a
    # batch of perturbed grids, which the benchmark's traced RP^5 k = 2 solve
    # runs until that fork is deleted (ROADMAP items 1a/1c)
    real = newton._combined_values
    ndims = []

    def recording(sf, weights, basis, vals, dv, ddv):
        ndims.append(np.ndim(vals))
        return real(sf, weights, basis, vals, dv, ddv)

    monkeypatch.setattr(newton, "_combined_values", recording)
    rp7 = space_form(7, 1.0, REAL_PROJECTIVE)
    psi = default_psi(n=7)
    report = newton_solve(rp7, psi, 3)
    assert report.status == "converged" and report.steps >= 3
    assert fixed_point_certificate(rp7, psi, report, k=3).passed
    sphere = newton_solve(space_form(7, 1.0, FULL_SPHERE), default_psi(amp=0.03, ell=3, n=7), 2)
    assert sphere.status == "converged" and sphere.steps >= 3
    assert ndims and set(ndims) == {1}
    ndims.clear()
    assert newton_solve(rp5(), default_psi(), 2).status == "converged"
    assert 2 in ndims
