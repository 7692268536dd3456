"""End-to-end acceptance checks.

Each criterion prints one verdict line (ACCEPTANCE <i>: PASS/FAIL ...) and
then asserts, so a pytest run and a direct `python3 tests/test_acceptance.py`
both give a per-criterion verdict. Tolerances and parameter grids are pinned;
do not loosen them to make a failing criterion pass.
"""

import math
import sys
import time

import numpy as np

from gbyamabe import (
    FULL_SPHERE,
    REAL_PROJECTIVE,
    SYNTHETIC_HYPERBOLIC,
    LinearFunctional,
    NondegeneracyViolated,
    algebra_property_suite,
    conformal_curvature,
    conformal_linearization,
    conformal_metric,
    constants,
    fd_verify,
    field_from_modes,
    fixed_point_certificate,
    gauss_bonnet,
    gauss_bonnet_kronecker,
    generalized_solve,
    invariant_constants,
    max_order,
    mode_field,
    newton_solve,
    quadratic_tail,
    random_curvature_like,
    raw_kronecker_sum,
    ricci_2k,
    shifted_laplacian,
    space_form,
    space_form_curvature,
    space_form_invariant,
    sphere_kernel_demo,
    spectrum_gap_check,
    standard_metric,
    sup_norm,
    warped_curvature,
    zonal_basis,
)


def _verdict(num: int, ok: bool, detail: str, elapsed: float, budget: float) -> bool:
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"ACCEPTANCE {num}: {status} {detail} [{elapsed:.2f}s / budget {budget:.0f}s]")
    sys.stdout.flush()
    return ok and elapsed <= budget


def _positive_background(n: int, mu: float):
    return space_form(n, mu, FULL_SPHERE if mu > 0 else SYNTHETIC_HYPERBOLIC)


def test_criterion_1_closed_form_reproduction():
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    for n in range(5, 9):
        g = standard_metric(n)
        eye = np.eye(n)
        for k in range(1, max_order(n) + 1):
            consts = invariant_constants(n, k)
            for mu in (-2.0, -1.0, 1.0, 2.0):
                R = space_form_curvature(n, mu)
                closed = space_form_invariant(n, k, mu)
                rel = abs(gauss_bonnet(R, g, k) - closed) / abs(closed)
                worst = max(worst, rel)
                ricci_closed = consts.ricci_coefficient * mu**k
                ricci = ricci_2k(R, g, k)
                rel_r = np.abs(ricci.coeffs - ricci_closed * eye).max() / abs(ricci_closed)
                worst = max(worst, rel_r)
                cases += 1
    ok = worst <= 1e-11
    elapsed = time.perf_counter() - start
    assert _verdict(
        1, ok, f"{cases} space forms, worst relative error {worst:.2e} (tol 1e-11)", elapsed, 10.0
    )


def test_criterion_2_pipeline_equivalence():
    start = time.perf_counter()
    pairs = [(5, 1), (5, 2), (6, 2), (7, 2), (7, 3)]
    worst_rel = 0.0
    worst_ratio = 0.0
    for n, k in pairs:
        rng = np.random.default_rng(1000 + 10 * n + k)
        g = standard_metric(n)
        for _ in range(20):
            R = random_curvature_like(n, rng)
            direct = gauss_bonnet(R, g, k)
            kron = gauss_bonnet_kronecker(R, k)
            worst_rel = max(worst_rel, abs(kron - direct) / max(abs(direct), 1e-12))
            worst_ratio = max(worst_ratio, abs(direct * 4**k / raw_kronecker_sum(R, k) - 1.0))
    ok = worst_rel <= 1e-9 and worst_ratio <= 1e-10
    elapsed = time.perf_counter() - start
    assert _verdict(
        2,
        ok,
        f"5 pairs x 20 tensors, worst route disagreement {worst_rel:.2e} (tol 1e-9), "
        f"worst |gauss_bonnet 4^k / raw - 1| {worst_ratio:.2e} (tol 1e-10)",
        elapsed,
        120.0,
    )


def test_criterion_3_algebra_property_suite():
    start = time.perf_counter()
    suite = algebra_property_suite(cases=200, seed=0, dims=(3, 4, 5, 6), tol=1e-12)
    worst = max(entry["max_error"] for entry in suite.values())
    ok = all(entry["passed"] for entry in suite.values())
    elapsed = time.perf_counter() - start
    assert _verdict(
        3,
        ok,
        f"{len(suite)} properties x 200 cases, worst error {worst:.2e} (tol 1e-12)",
        elapsed,
        30.0,
    )


def test_criterion_4_linearization_exactness():
    start = time.perf_counter()
    worst_rel = 0.0
    ratio_min, ratio_max = math.inf, 0.0
    cases = 0
    for n, k in [(5, 2), (6, 2), (7, 2), (7, 3)]:
        basis = zonal_basis(n, 12)
        for mu in (-1.0, 1.0):
            sf = _positive_background(n, mu)
            for ell in (2, 4, 6, 8):
                f = mode_field(basis, ell, 0.05)
                _, _, fine = fd_verify(sf, f, k, eps=1e-3)
                _, _, coarse = fd_verify(sf, f, k, eps=1e-2)
                worst_rel = max(worst_rel, fine)
                ratio = coarse / fine
                ratio_min = min(ratio_min, ratio)
                ratio_max = max(ratio_max, ratio)
                cases += 1
    ok = worst_rel <= 1e-6 and 50.0 <= ratio_min and ratio_max <= 200.0
    elapsed = time.perf_counter() - start
    assert _verdict(
        4,
        ok,
        f"{cases} mode checks, worst relative error {worst_rel:.2e} (tol 1e-6), "
        f"step ratios in [{ratio_min:.1f}, {ratio_max:.1f}] (window [50, 200])",
        elapsed,
        120.0,
    )


def test_criterion_5_spectral_gap():
    start = time.perf_counter()
    rp = spectrum_gap_check(space_form(5, 1.0, REAL_PROJECTIVE))
    sphere = spectrum_gap_check(space_form(5, 1.0, FULL_SPHERE))
    tuples_ok = rp == (12.0, 5.0, True) and sphere == (5.0, 5.0, False)

    s5 = space_form(5, 1.0, FULL_SPHERE)
    basis = zonal_basis(5, 10)
    kill = sup_norm(shifted_laplacian(s5, mode_field(basis, 1, 1.0)))
    kernel_ok = kill <= 1e-12

    coeff = constants(5, 2, 1.0).conformal_coefficient
    factors = []
    for ell in range(2, 11, 2):
        f = mode_field(basis, ell, 1.0)
        out = conformal_linearization(s5, f, 2)
        factors.append(out.modes[ell] / f.modes[ell])
    margin = 7.0 * coeff
    bound_ok = min(factors) >= margin - 1e-9 and abs(factors[0] - margin) <= 1e-9

    ok = tuples_ok and kernel_ok and bound_ok
    elapsed = time.perf_counter() - start
    assert _verdict(
        5,
        ok,
        f"gap tuples {rp}/{sphere}, first-mode annihilation {kill:.2e} (tol 1e-12), "
        f"even-mode coefficient floor {min(factors):.6g} vs margin {margin:.6g}",
        elapsed,
        5.0,
    )


def test_criterion_6_constructive_solve():
    start = time.perf_counter()
    sf = space_form(5, 1.0, REAL_PROJECTIVE)
    psi = mode_field(zonal_basis(5, 16), 2, 0.05)
    report = newton_solve(sf, psi, 2)
    cert = fixed_point_certificate(sf, psi, report, k=2)
    tail = quadratic_tail(report)
    ok = (
        report.status == "converged"
        and report.steps <= 8
        and report.final_residual <= 1e-10
        and report.final_volume_drift <= 1e-10
        and tail
        and cert.passed
        and cert.variation <= 1e-9
        and cert.sup_deviation <= 1e-9
    )
    elapsed = time.perf_counter() - start
    assert _verdict(
        6,
        ok,
        f"{report.steps} steps, residual {report.final_residual:.2e}, "
        f"volume drift {report.final_volume_drift:.2e}, quadratic tail {tail}, "
        f"certificate variation {cert.variation:.2e} (tol 1e-9)",
        elapsed,
        60.0,
    )


def test_criterion_7_round_sphere_degeneracy():
    start = time.perf_counter()
    even_sv, full_sv = sphere_kernel_demo(5, 1.0, 2)
    ratio = full_sv / even_sv
    ok = ratio <= 1e-3
    elapsed = time.perf_counter() - start
    assert _verdict(
        7,
        ok,
        f"even-sector min sv {even_sv:.2e}, full-window {full_sv:.2e}, "
        f"collapse ratio {ratio:.2e} (tol 1e-3)",
        elapsed,
        30.0,
    )


def test_criterion_8_generalized_functional():
    start = time.perf_counter()
    sf = space_form(5, 1.0, REAL_PROJECTIVE)
    psi = mode_field(zonal_basis(5, 16), 2, 0.05)
    report = generalized_solve(sf, psi, LinearFunctional((1.0, 0.1)))
    expected = space_form_invariant(5, 1, 1.0) + 0.1 * space_form_invariant(5, 2, 1.0)
    deviation = abs(report.achieved_constant - expected) / expected
    converged = report.status == "converged" and deviation <= 0.05
    try:
        generalized_solve(sf, psi, LinearFunctional((1.0, -1.0 / 6.0)))
        rejected = False
    except NondegeneracyViolated:
        rejected = True
    ok = converged and rejected
    elapsed = time.perf_counter() - start
    assert _verdict(
        8,
        ok,
        f"combined constant {report.achieved_constant:.6f} vs {expected} "
        f"(deviation {deviation:.2e}, tol 5e-2), degenerate functional rejected: {rejected}",
        elapsed,
        60.0,
    )


def test_criterion_9_cross_pipeline_curvature():
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    for n in (5, 6):
        sf = space_form(n, 1.0, FULL_SPHERE)
        basis = zonal_basis(n, 10)
        rng = np.random.default_rng(900 + n)
        for _ in range(10):
            modes = rng.standard_normal(11) * 0.5 ** np.arange(11)
            raw = field_from_modes(basis, modes)
            amp = 0.2 * rng.uniform(0.3, 1.0)
            phi = field_from_modes(basis, amp / sup_norm(raw) * modes)
            cm = conformal_metric(sf, phi)
            for node in range(0, basis.x.size, 7):
                Rw = warped_curvature(cm, node)
                Rc = conformal_curvature(cm, node)
                scale = np.abs(Rw.coeffs).max()
                worst = max(worst, np.abs(Rw.coeffs - Rc.coeffs).max() / scale)
            cases += 1
    ok = worst <= 1e-9
    elapsed = time.perf_counter() - start
    assert _verdict(
        9,
        ok,
        f"{cases} conformal factors, worst pipeline disagreement {worst:.2e} (tol 1e-9)",
        elapsed,
        60.0,
    )


_CRITERIA = [
    test_criterion_1_closed_form_reproduction,
    test_criterion_2_pipeline_equivalence,
    test_criterion_3_algebra_property_suite,
    test_criterion_4_linearization_exactness,
    test_criterion_5_spectral_gap,
    test_criterion_6_constructive_solve,
    test_criterion_7_round_sphere_degeneracy,
    test_criterion_8_generalized_functional,
    test_criterion_9_cross_pipeline_curvature,
]


def main() -> int:
    failures = 0
    for criterion in _CRITERIA:
        try:
            criterion()
        except AssertionError:
            failures += 1
    print(f"{len(_CRITERIA) - failures}/{len(_CRITERIA)} acceptance criteria passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
