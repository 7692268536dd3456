"""Command-line interface.

Every subcommand prints a single JSON report to stdout: keys are sorted,
floats use their shortest round-trip representation, and nothing
time-dependent is included, so identical invocations produce identical
bytes. --output writes the same report to a file. solve and solve-g
report every Newton iteration under results.iterations, and each run of a
sweep carries its own.

Exit codes: 0 success, 2 invalid parameters (including a degenerate
combined functional), 3 solver finished without converging, 4 internal
verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields

import numpy as np

from ._validate import check_nonzero, check_positive, check_power, check_tolerance
from .forms import algebra_property_suite, check_dense_dim, standard_metric
from .invariants import (
    gauss_bonnet,
    gauss_bonnet_kronecker,
    invariant_constants,
    max_order,
    ricci_2k,
    space_form_curvature,
    space_form_invariant,
)
from .linearization import LinearFunctional, constants as linearization_constants, fd_verify
from .newton import (
    SolverConfig,
    continuation_sweep,
    fixed_point_certificate,
    generalized_solve,
    newton_solve,
    quadratic_tail,
    sphere_kernel_demo,
)
from .spaceform import (
    FULL_SPHERE,
    GRID_PARITY,
    REAL_PROJECTIVE,
    SYNTHETIC_HYPERBOLIC,
    field_from_modes,
    mode_field,
    space_form,
    spectrum_gap_check,
    zonal_basis,
)

__all__ = ["main"]

_QUOTIENTS = {"rp": REAL_PROJECTIVE, "sphere": FULL_SPHERE, "hyperbolic": SYNTHETIC_HYPERBOLIC}
_GRID_QUOTIENTS = tuple(name for name, quotient in _QUOTIENTS.items() if quotient in GRID_PARITY)


def _dumps(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _field_payload(field) -> dict:
    return {
        "modes": field.modes.tolist(),
        "parity": field.parity,
        "max_mode": field.basis.max_mode,
        "nodes": int(field.basis.x.size),
    }


def _list_items(text: str) -> list[str]:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise ValueError(f"no values in {text!r}")
    return items


def _parse_floats(text: str) -> list[float]:
    return [float(piece) for piece in _list_items(text)]


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(piece) for piece in _list_items(text)]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _parse_mode_coeffs(text: str) -> dict[int, float]:
    out: dict[int, float] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if ":" not in piece:
            raise ValueError(f"profile entry {piece!r} is not of the form mode:value")
        ell, val = piece.split(":", 1)
        ell = int(ell)
        if ell in out:
            raise ValueError(f"profile mode {ell} is given more than once")
        out[ell] = float(val)
    if not out:
        raise ValueError(f"no profile entries in {text!r}")
    return out


def _solver_config(args) -> SolverConfig:
    return SolverConfig(**{f.name: getattr(args, f.name) for f in fields(SolverConfig)})


def _profile_field(args, basis):
    """The perturbation profile: either a single mode or explicit modes."""
    if getattr(args, "coeffs", None):
        entries = _parse_mode_coeffs(args.coeffs)
        modes = np.zeros(basis.max_mode + 1)
        for ell, val in entries.items():
            if not 0 <= ell <= basis.max_mode:
                raise ValueError(f"profile mode {ell} outside 0..{basis.max_mode}")
            modes[ell] = val
        parity = "even" if all(ell % 2 == 0 for ell in entries) else "any"
        return field_from_modes(basis, modes, parity=parity)
    return mode_field(basis, args.mode, args.amp)


def _iteration_records(report) -> list[dict]:
    return [{"iteration": i, **asdict(rec)} for i, rec in enumerate(report.iterations)]


def _report_summary(report) -> dict:
    return {
        "status": report.status,
        "steps": report.steps,
        "achieved_constant": report.achieved_constant,
        "final_residual": report.final_residual,
        "final_volume_drift": report.final_volume_drift,
    }


def _report_results(report) -> dict:
    return {
        **_report_summary(report),
        "jacobian_min_singular_value": report.jacobian_min_singular_value,
        "quadratic_tail": quadratic_tail(report),
        "iterations": _iteration_records(report),
        "w": _field_payload(report.w),
    }


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (results, exit_code)
# ---------------------------------------------------------------------------


def _cmd_invariants(args):
    check_dense_dim("--n", args.n)
    check_tolerance("tol", args.tol)
    check_nonzero("background curvature", args.mu)
    # every closed form the report carries refuses a curvature that takes it
    # out of the floats (check_power), before any dense evaluation
    consts = invariant_constants(args.n, args.k)
    ricci_closed = check_power("background curvature", args.mu, args.k, consts.ricci_coefficient)
    closed = space_form_invariant(args.n, args.k, args.mu)
    lin = linearization_constants(args.n, args.k, args.mu) if args.k <= max_order(args.n) else None
    g = standard_metric(args.n)
    R = space_form_curvature(args.n, args.mu)
    measured = gauss_bonnet(R, g, args.k)
    ricci = ricci_2k(R, g, args.k)
    ricci_factor = float(np.trace(ricci.coeffs)) / args.n
    results = {
        "gauss_bonnet": measured,
        "closed_form": closed,
        "difference": measured - closed,
        "ricci_factor": ricci_factor,
        "ricci_closed_form": ricci_closed,
        "base_coefficient": consts.base_coefficient,
        "ricci_coefficient": consts.ricci_coefficient,
    }
    if lin is not None:
        results["tensor_coefficient"] = lin.tensor_coefficient
        results["conformal_coefficient"] = lin.conformal_coefficient
    scale = max(1.0, abs(closed))
    ricci_ok = abs(ricci_factor - ricci_closed) <= args.tol * max(1.0, abs(ricci_closed))
    ok = abs(measured - closed) <= args.tol * scale and ricci_ok
    if args.kronecker:
        kron = gauss_bonnet_kronecker(R, args.k)
        results["kronecker"] = kron
        results["kronecker_difference"] = kron - closed
        ok = ok and abs(kron - closed) <= args.tol * scale
    results["routes_agree"] = ok
    return results, 0 if ok else 4


def _cmd_verify_algebra(args):
    dims = tuple(_parse_ints(args.dims))
    suite = algebra_property_suite(cases=args.cases, seed=args.seed, dims=dims, tol=args.tol)
    ok = all(entry["passed"] for entry in suite.values())
    results = {"properties": suite, "all_passed": ok}
    return results, 0 if ok else 4


def _cmd_verify_linearization(args):
    check_tolerance("max_relerr", args.max_relerr)
    sf = space_form(args.n, args.mu, FULL_SPHERE if args.mu > 0 else SYNTHETIC_HYPERBOLIC)
    basis = zonal_basis(args.n, max(args.max_mode, args.mode))
    f = mode_field(basis, args.mode, args.amp)
    _, _, fine = fd_verify(sf, f, args.k, eps=args.eps)
    _, _, coarse = fd_verify(sf, f, args.k, eps=10.0 * args.eps)
    ratio = coarse / fine if fine > 0 else float("inf")
    ok = fine <= args.max_relerr and 50.0 <= ratio <= 200.0
    results = {
        "relative_error": fine,
        "relative_error_coarse": coarse,
        "step_ratio_window": [50.0, 200.0],
        "step_ratio": ratio,
        "max_relative_error": args.max_relerr,
        "passed": ok,
    }
    return results, 0 if ok else 4


def _cmd_spectrum(args):
    sf = space_form(args.n, args.mu, _QUOTIENTS[args.quotient])
    lam1, critical, ok = spectrum_gap_check(sf)
    results = {"lambda1": lam1, "critical_level": critical, "gap_clears": ok}
    return results, 0


def _cmd_solve(args):
    """solve (one order k) and solve-g (the combined functional of
    --g-coeffs). The certificate threshold is checked before the solve, also
    under --no-certify."""
    functional = LinearFunctional(tuple(_parse_floats(args.g_coeffs))) if args.command == "solve-g" else None
    sf = space_form(args.n, args.mu, _QUOTIENTS[args.quotient])
    check_positive("threshold", args.certificate_threshold)
    cfg = _solver_config(args)
    psi = _profile_field(args, zonal_basis(args.n, cfg.mode_cutoff))
    if functional is None:
        weights = {args.k: 1.0}
        report = newton_solve(sf, psi, args.k, cfg)
    else:
        weights = functional.weights
        report = generalized_solve(sf, psi, functional, cfg)
    results = _report_results(report)
    results["psi"] = _field_payload(psi)
    if functional is not None:
        results["functional"] = list(functional.coefficients)
    code = 0 if report.status == "converged" else 3
    if args.certify and report.status == "converged":
        cert = fixed_point_certificate(sf, psi, report, weights=weights, threshold=args.certificate_threshold)
        results["certificate"] = asdict(cert)
        if not cert.passed:
            code = 4
    return results, code


def _cmd_kernel_demo(args):
    cfg = SolverConfig(mode_cutoff=args.mode_cutoff)
    even_sv, full_sv = sphere_kernel_demo(args.n, args.mu, args.k, cfg)
    results = {
        "even_min_singular_value": even_sv,
        "full_min_singular_value": full_sv,
        "collapse_ratio": full_sv / even_sv if even_sv > 0 else float("inf"),
    }
    return results, 0


def _cmd_sweep(args):
    amplitudes = _parse_floats(args.amplitudes)
    sf = space_form(args.n, args.mu, _QUOTIENTS[args.quotient])
    cfg = _solver_config(args)
    direction = mode_field(zonal_basis(args.n, cfg.mode_cutoff), args.mode, 1.0)
    runs = continuation_sweep(sf, direction, amplitudes, args.k, cfg)
    entries = [
        {"amplitude": amp, **_report_summary(report), "iterations": _iteration_records(report)} for amp, report in runs
    ]
    converged = all(e["status"] == "converged" for e in entries)
    return {"runs": entries, "all_converged": converged}, 0 if converged else 3


# ---------------------------------------------------------------------------
# Parser construction and entry point
# ---------------------------------------------------------------------------


def _add_output_flags(sub):
    sub.add_argument("--output", help="also write the report to this path")


def _add_solver_flags(sub):
    """One flag per SolverConfig field, defaulting to the field's default."""
    for f in fields(SolverConfig):
        help_text = "highest retained correction mode" if f.name == "mode_cutoff" else None
        sub.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default), default=f.default, help=help_text)


def _add_background_flags(sub):
    sub.add_argument("--n", type=int, default=5)
    sub.add_argument("--mu", type=float, default=1.0)
    sub.add_argument("--quotient", choices=_GRID_QUOTIENTS, default="rp")


def _add_certificate_flags(sub):
    sub.add_argument("--certify", action=argparse.BooleanOptionalAction, default=True)
    sub.add_argument("--certificate-threshold", type=float, default=1e-9)


def _add_profile_flags(sub):
    sub.add_argument("--mode", type=int, default=2, help="perturbation profile: single mode index")
    sub.add_argument("--amp", type=float, default=0.05, help="sup amplitude of the single-mode profile")
    sub.add_argument("--coeffs", help="explicit profile modes, e.g. '2:0.05,4:-0.01' (overrides --mode/--amp)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbyamabe",
        description="Gauss-Bonnet curvature invariants and constant-invariant conformal metrics on space forms",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("invariants", help="closed-form vs computed invariants of a model space form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--kronecker", action="store_true", help="also run the Kronecker-delta route (n <= 7)")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_invariants)

    p = subs.add_parser("verify-algebra", help="randomized double-form algebra property suite")
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--dims", default="3,4,5,6", help="comma-separated dimensions to sample")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_verify_algebra)

    p = subs.add_parser("verify-linearization", help="finite-difference check of the closed-form linearization")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--mode", type=int, default=2)
    p.add_argument("--amp", type=float, default=0.05)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--max-mode", type=int, default=12, help="basis cutoff (raised to --mode if smaller)")
    p.add_argument("--max-relerr", type=float, default=1e-6)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_verify_linearization)

    p = subs.add_parser("spectrum", help="first nonzero Laplace eigenvalue vs the critical level")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--quotient", choices=tuple(_QUOTIENTS), default="rp")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_spectrum)

    p = subs.add_parser("solve", help="Newton solve for a constant order-2k invariant")
    _add_background_flags(p)
    p.add_argument("--k", type=int, default=2)
    _add_profile_flags(p)
    _add_solver_flags(p)
    _add_certificate_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = subs.add_parser("solve-g", help="Newton solve for a combined functional of several orders")
    _add_background_flags(p)
    p.add_argument("--g-coeffs", required=True, help="functional coefficients by order, e.g. '1,0.1'")
    _add_profile_flags(p)
    _add_solver_flags(p)
    _add_certificate_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = subs.add_parser("kernel-demo", help="full-sphere Jacobian kernel vs the even sector")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--mode-cutoff", type=int, default=SolverConfig.mode_cutoff)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_kernel_demo)

    p = subs.add_parser(
        "sweep", help="continuation in the profile amplitude, started by a secant predictor anchored at the space form"
    )
    _add_background_flags(p)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--mode", type=int, default=2, help="profile direction: single mode index")
    p.add_argument("--amplitudes", default="0.0,0.02,0.04,0.06,0.08,0.1")
    _add_solver_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


def _write_report(args, report: dict) -> None:
    text = _dumps(report)
    sys.stdout.write(text)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    inputs = {
        key: val
        for key, val in vars(args).items()
        if key not in ("func", "command", "output") and val is not None
    }
    base = {"schema": 1, "command": args.command, "inputs": inputs}
    try:
        results, code = args.func(args)
    except ValueError as exc:
        # NondegeneracyViolated lands here too; both are parameter problems
        report = dict(base, error={"type": type(exc).__name__, "message": str(exc)})
        sys.stdout.write(_dumps(report))
        return 2
    report = dict(base, results=results)
    _write_report(args, report)
    return code


if __name__ == "__main__":
    sys.exit(main())
