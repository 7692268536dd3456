"""Newton solver for constant-invariant metrics in a conformal class.

Given a background space form and an axisymmetric profile psi, the solver
looks for a correction w (a latitude field on the same mode window) and a
constant c such that the conformal metric e^{2 (psi + w)} g has its order-2k
curvature invariant identically equal to c, at fixed total volume. The
unknowns are the parity-admissible mode coefficients of w together with c;
the equations are the projections of the pointwise invariant onto the same
modes plus the relative volume defect.

The Jacobian is assembled by batched central differences in one curvature
evaluation per iteration (the column for c is analytic). On projective
quotients the system is square and uniformly invertible near the round
metric, and a near-singular Jacobian aborts with a dedicated status; on the
full sphere the lowest nonconstant mode genuinely annihilates the
linearization, so steps are taken in the minimum-norm least-squares sense
instead. That distinction is the point of sphere_kernel_demo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .invariants import check_problem_order
from .linearization import LinearFunctional, generalized_constants
from .spaceform import (
    FULL_SPHERE,
    REAL_PROJECTIVE,
    SYNTHETIC_HYPERBOLIC,
    LatitudeField,
    SpaceForm,
    ZonalBasis,
    _gb_values,
    _volume_from_values,
    field_from_modes,
    resample,
    space_form,
    sup_norm,
    zonal_basis,
)

__all__ = [
    "SolverConfig",
    "IterationRecord",
    "SolverReport",
    "newton_solve",
    "generalized_solve",
    "sphere_kernel_demo",
    "continuation_sweep",
    "CertificateResult",
    "fixed_point_certificate",
    "quadratic_tail",
]

_SUP_NORM_LIMIT = 0.3
_FD_STEP = 1e-6  # central-difference step of the Jacobian
_LINE_SEARCH_TRIALS = 12  # step fractions tried per Newton step, each half the last


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and stopping parameters for the Newton iteration.

    mode_cutoff is the highest retained mode of the correction; nnodes
    overrides the collocation count (default 2 * mode_cutoff + 16). damping
    is the initial step fraction, halved until the sup norm of the residual
    decreases enough.
    """

    mode_cutoff: int = 16
    max_iterations: int = 30
    tol_residual: float = 1e-10
    tol_volume: float = 1e-10
    damping: float = 1.0
    nnodes: int | None = None

    def __post_init__(self):
        if self.mode_cutoff < 2:
            raise ValueError("mode_cutoff must be at least 2")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        for name in ("tol_residual", "tol_volume", "damping"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class IterationRecord:
    """State after one accepted update (the first record is the initial
    state, with zero step)."""

    residual: float
    volume_drift: float
    step_norm: float
    damping: float


@dataclass(frozen=True)
class SolverReport:
    """Outcome of a solve. status is one of

    - "converged": residual and volume drift below their tolerances;
    - "max_iterations": the iteration budget ran out first;
    - "singular_jacobian": a projective Jacobian lost numerical rank;
    - "line_search_failed": none of the 12 step fractions damping,
      damping/2, ..., damping/2^11 along the last Newton direction decreased
      the residual enough, so the solve stopped at the last accepted iterate
      instead of taking a step that makes things worse.

    w and achieved_constant are always the last accepted iterate.
    """

    status: str
    iterations: tuple[IterationRecord, ...]
    achieved_constant: float
    w: LatitudeField
    jacobian_min_singular_value: float

    @property
    def steps(self) -> int:
        return len(self.iterations) - 1

    @property
    def final_residual(self) -> float:
        return self.iterations[-1].residual

    @property
    def final_volume_drift(self) -> float:
        return self.iterations[-1].volume_drift


def _phi_grids(basis: ZonalBasis, modes: np.ndarray):
    return basis.values @ modes, basis.dtheta @ modes, basis.ddtheta @ modes


def _combined_values(sf: SpaceForm, weights, basis, vals, dv, ddv):
    total = None
    for k in sorted(weights):
        part = weights[k] * _gb_values(sf.n, sf.curvature, k, basis, vals, dv, ddv)
        total = part if total is None else total + part
    return total


def _projected_ones(basis: ZonalBasis) -> np.ndarray:
    return basis.projection @ np.ones(basis.x.size)


def _evaluate(sf, weights, basis, sel, phi_modes, c):
    """Residual vector, pointwise invariant values, and volume."""
    vals, dv, ddv = _phi_grids(basis, phi_modes)
    S = _combined_values(sf, weights, basis, vals, dv, ddv)
    vol = float(_volume_from_values(sf, basis, vals))
    F = np.empty(sel.size + 1)
    F[:-1] = basis.projection[sel] @ S - c * _projected_ones(basis)[sel]
    F[-1] = (vol - sf.reference_volume) / sf.reference_volume
    return F, S, vol


def _assemble_jacobian(sf, weights, basis, sel, phi_modes):
    """Central-difference Jacobian in one batched curvature call.

    Rows: projected residual on the selected modes, then the volume defect.
    Columns: the selected modes of w, then c (analytic: only the constant
    mode of the projection sees a shift of c).
    """
    m = sel.size
    pert_v = basis.values[:, sel].T
    pert_d = basis.dtheta[:, sel].T
    pert_dd = basis.ddtheta[:, sel].T
    base_v, base_d, base_dd = _phi_grids(basis, phi_modes)
    vals = np.concatenate([base_v + _FD_STEP * pert_v, base_v - _FD_STEP * pert_v])
    dv = np.concatenate([base_d + _FD_STEP * pert_d, base_d - _FD_STEP * pert_d])
    ddv = np.concatenate([base_dd + _FD_STEP * pert_dd, base_dd - _FD_STEP * pert_dd])
    S = _combined_values(sf, weights, basis, vals, dv, ddv)
    vols = np.asarray(_volume_from_values(sf, basis, vals))
    dS = (S[:m] - S[m:]) / (2.0 * _FD_STEP)
    dvol = (vols[:m] - vols[m:]) / (2.0 * _FD_STEP)
    J = np.empty((m + 1, m + 1))
    J[:m, :m] = basis.projection[sel] @ dS.T
    J[m, :m] = dvol / sf.reference_volume
    J[:m, m] = -_projected_ones(basis)[sel]
    J[m, m] = 0.0
    return J


def _solve_core(sf, psi, weights, config, w0, c0):
    cfg = config if config is not None else SolverConfig()
    if sf.quotient == SYNTHETIC_HYPERBOLIC:
        raise ValueError("the solver needs a collocation grid; spherical quotients only")
    for k in weights:
        check_problem_order(sf.n, k)
    basis = zonal_basis(sf.n, cfg.mode_cutoff, cfg.nnodes)
    psi_b = psi if psi.basis is basis else resample(psi, basis)
    projective = sf.quotient == REAL_PROJECTIVE
    if projective and psi_b.parity != "even":
        raise ValueError("projective quotients need an even-parity profile")
    if sup_norm(psi_b) > _SUP_NORM_LIMIT:
        raise ValueError(
            f"profile sup norm {sup_norm(psi_b):.3f} exceeds the validated neighborhood ({_SUP_NORM_LIMIT})"
        )
    sel = np.arange(0, cfg.mode_cutoff + 1, 2) if projective else np.arange(cfg.mode_cutoff + 1)

    wm = np.zeros(basis.max_mode + 1)
    if w0 is not None:
        w0_b = w0 if w0.basis is basis else resample(w0, basis)
        if projective and w0_b.parity != "even":
            raise ValueError("projective quotients need an even-parity initial correction")
        wm = w0_b.modes.copy()
        mask = np.ones(basis.max_mode + 1, dtype=bool)
        mask[sel] = False
        wm[mask] = 0.0

    F, S, vol = _evaluate(sf, weights, basis, sel, psi_b.modes + wm, 0.0)
    c = float(c0) if c0 is not None else float(basis.weights @ S / basis.weights.sum())
    F[:-1] -= c * _projected_ones(basis)[sel]

    parity = "even" if projective else "any"
    records = [
        IterationRecord(
            residual=float(np.abs(S - c).max()),
            volume_drift=abs(vol - sf.reference_volume) / sf.reference_volume,
            step_norm=0.0,
            damping=0.0,
        )
    ]
    status = "max_iterations"
    smin = None

    for it in range(cfg.max_iterations + 1):
        resid_sup = records[-1].residual
        drift = records[-1].volume_drift
        if resid_sup <= cfg.tol_residual and drift <= cfg.tol_volume:
            status = "converged"
            break
        if it == cfg.max_iterations:
            break

        J = _assemble_jacobian(sf, weights, basis, sel, psi_b.modes + wm)
        U, svals, Vt = np.linalg.svd(J)
        smin = float(svals[-1])
        if projective and svals[-1] < 1e-10 * svals[0]:
            status = "singular_jacobian"
            break
        coeffs = U.T @ F
        if projective:
            delta = Vt.T @ (coeffs / svals)
        else:
            inv = np.where(svals > 1e-10 * svals[0], 1.0 / np.where(svals > 0, svals, 1.0), 0.0)
            delta = Vt.T @ (coeffs * inv)

        lam = cfg.damping
        old_norm = float(np.abs(F).max())
        accepted = None
        for _ in range(_LINE_SEARCH_TRIALS):
            wm_t = wm.copy()
            wm_t[sel] -= lam * delta[:-1]
            c_t = c - lam * delta[-1]
            F_t, S_t, vol_t = _evaluate(sf, weights, basis, sel, psi_b.modes + wm_t, c_t)
            new_norm = float(np.abs(F_t).max())
            if new_norm <= (1.0 - 1e-4 * lam) * old_norm or new_norm <= cfg.tol_residual:
                accepted = (wm_t, c_t, F_t, S_t, vol_t, lam)
                break
            lam *= 0.5
        if accepted is None:
            status = "line_search_failed"  # keep the last accepted iterate
            break
        wm, c, F, S, vol, lam_used = accepted
        records.append(
            IterationRecord(
                residual=float(np.abs(S - c).max()),
                volume_drift=abs(vol - sf.reference_volume) / sf.reference_volume,
                step_norm=float(lam_used * np.abs(delta).max()),
                damping=lam_used,
            )
        )

    if smin is None:
        J = _assemble_jacobian(sf, weights, basis, sel, psi_b.modes + wm)
        smin = float(np.linalg.svd(J, compute_uv=False)[-1])

    w_field = field_from_modes(basis, wm, parity=parity)
    return SolverReport(
        status=status,
        iterations=tuple(records),
        achieved_constant=float(c),
        w=w_field,
        jacobian_min_singular_value=smin,
    )


def newton_solve(
    sf: SpaceForm,
    psi: LatitudeField,
    k: int,
    config: SolverConfig | None = None,
    w0: LatitudeField | None = None,
    c0: float | None = None,
) -> SolverReport:
    """Solve for a constant order-2k invariant in the class of e^{2 psi} g.

    The classical k = 1 problem is excluded here (its full-sphere kernel is
    the subject of sphere_kernel_demo); pass a one-term LinearFunctional to
    generalized_solve if the first-order case is wanted anyway.
    """
    if k < 2:
        raise ValueError("newton_solve handles orders k >= 2")
    return _solve_core(sf, psi, {int(k): 1.0}, config, w0, c0)


def generalized_solve(
    sf: SpaceForm,
    psi: LatitudeField,
    functional: LinearFunctional,
    config: SolverConfig | None = None,
    w0: LatitudeField | None = None,
    c0: float | None = None,
) -> SolverReport:
    """Constant-value solve for a linear combination of invariant orders.

    Raises NondegeneracyViolated (before touching the grid) when the
    combined linearization coefficient cancels.
    """
    generalized_constants(sf.n, sf.curvature, functional)
    weights = {k: c for k, c in zip(functional.orders, functional.coefficients) if c != 0.0}
    return _solve_core(sf, psi, weights, config, w0, c0)


def sphere_kernel_demo(
    n: int, mu: float, k: int, config: SolverConfig | None = None
) -> tuple[float, float]:
    """Minimum singular value of the round-background Newton system on the
    even-mode sector versus the full mode window of the full sphere.

    The full window contains the lowest nonconstant mode, which the
    linearization annihilates identically, so the second number collapses
    (to finite-difference roundoff) while the first stays order one.
    """
    cfg = config if config is not None else SolverConfig()
    check_problem_order(n, k)
    sf = space_form(n, mu, FULL_SPHERE)
    basis = zonal_basis(n, cfg.mode_cutoff, cfg.nnodes)
    weights = {int(k): 1.0}
    phi0 = np.zeros(basis.max_mode + 1)
    even = np.arange(0, cfg.mode_cutoff + 1, 2)
    full = np.arange(cfg.mode_cutoff + 1)
    out = []
    for sel in (even, full):
        J = _assemble_jacobian(sf, weights, basis, sel, phi0)
        out.append(float(np.linalg.svd(J, compute_uv=False)[-1]))
    return out[0], out[1]


def continuation_sweep(
    sf: SpaceForm,
    direction: LatitudeField,
    amplitudes,
    k: int,
    config: SolverConfig | None = None,
) -> list[tuple[float, SolverReport]]:
    """Family of solves along psi = amplitude * direction, warm-started.

    Each solve reuses the previous converged correction and constant as the
    initial guess. Non-converged entries are recorded and do not stop the
    sweep (the next solve falls back to a cold start).
    """
    reports: list[tuple[float, SolverReport]] = []
    w_prev = None
    c_prev = None
    for amp in amplitudes:
        amp = float(amp)
        psi = field_from_modes(direction.basis, amp * direction.modes, parity=direction.parity)
        report = newton_solve(sf, psi, k, config, w0=w_prev, c0=c_prev)
        reports.append((amp, report))
        if report.status == "converged":
            w_prev, c_prev = report.w, report.achieved_constant
        else:
            w_prev, c_prev = None, None
    return reports


@dataclass(frozen=True)
class CertificateResult:
    """Fixed-point check of a solver result at doubled resolution."""

    variation: float
    sup_deviation: float
    volume_drift: float
    threshold: float
    max_mode: int
    nnodes: int
    passed: bool


def fixed_point_certificate(
    sf: SpaceForm,
    psi: LatitudeField,
    report: SolverReport,
    k: int | None = None,
    weights=None,
    threshold: float = 1e-9,
) -> CertificateResult:
    """Re-evaluate the solved metric with twice the modes and twice the
    nodes; the invariant of a genuine solution stays constant instead of
    revealing hidden sub-grid variation.

    variation is max - min of the re-evaluated invariant, sup_deviation its
    largest distance from the achieved constant.
    """
    if weights is None:
        if k is None:
            raise ValueError("pass either an order k or explicit weights")
        weights = {int(k): 1.0}
    for order in weights:
        check_problem_order(sf.n, order)
    src = report.w.basis
    fine = zonal_basis(sf.n, 2 * src.max_mode, 2 * src.x.size)
    phi_modes = resample(psi, fine).modes + resample(report.w, fine).modes
    vals, dv, ddv = _phi_grids(fine, phi_modes)
    S = _combined_values(sf, weights, fine, vals, dv, ddv)
    vol = float(_volume_from_values(sf, fine, vals))
    variation = float(S.max() - S.min())
    sup_dev = float(np.abs(S - report.achieved_constant).max())
    drift = abs(vol - sf.reference_volume) / sf.reference_volume
    passed = variation <= threshold and sup_dev <= threshold
    return CertificateResult(
        variation=variation,
        sup_deviation=sup_dev,
        volume_drift=drift,
        threshold=threshold,
        max_mode=fine.max_mode,
        nnodes=fine.x.size,
        passed=passed,
    )


def quadratic_tail(report: SolverReport, constant: float = 100.0, floor: float = 1e-11) -> bool:
    """Whether the last two residual reductions are (at least) quadratic.

    A transition r_i -> r_{i+1} counts as quadratic if r_{i+1} <= constant *
    r_i^2, or if r_{i+1} is already below the floor (machine saturation).
    """
    r = [rec.residual for rec in report.iterations]
    if len(r) < 3:
        return bool(r) and r[-1] <= floor
    for prev, nxt in ((r[-3], r[-2]), (r[-2], r[-1])):
        if nxt <= floor:
            continue
        if nxt > constant * prev * prev:
            return False
    return True
