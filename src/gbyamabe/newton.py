"""Newton solver for constant-invariant metrics in a conformal class.

Given a background space form and an axisymmetric profile psi, the solver
looks for a correction w (a latitude field on the same mode window) and a
constant c such that the conformal metric e^{2 (psi + w)} g has its order-2k
curvature invariant identically equal to c, at fixed total volume. The
unknowns are the mode coefficients of w together with c; the equations are
the projections of the pointwise invariant onto the same modes plus the
relative volume defect. Those modes are spaceform._gauged_modes: the modes
the quotient admits minus the kernel of Delta - n mu. On projective space
that kernel is empty. On the full sphere it is l = 1, the Moebius
directions along which the solutions form a one-parameter orbit; the gauge
fixes w's l = 1 mode at zero, and the dropped l = 1 equation holds at any
solution by the Kazdan-Warner identity (Ann. of Math. 101, 1975). The
pointwise residual that decides convergence still sees it.

The pointwise invariant comes from the two-block closed form
(spaceform._two_block_values) everywhere but at k = 2 with n = 5, where the
solver still runs the dense double-form evaluator _gb_values: the
benchmark's tracer test times a traced RP^5 k = 2 solve and needs it slower
than the closed form would be (ROADMAP item 1). The Jacobian is exact
wherever the solver evaluates the closed form: the chain rule through its
pointwise partials in (phi, phi', phi'') (spaceform._two_block_partials),
with no perturbation batch. Only a weighting that holds the dense n = 5,
k = 2 order takes batched central differences, in one curvature evaluation
per iteration. The column for c is analytic in both. Every step is one
square solve through the SVD of the Jacobian; a singular value below 1e-10
of the largest stops the solve with the singular_jacobian status on either
quotient.
sphere_kernel_demo builds the ungauged full window of the sphere to show
the kernel the gauge removes.

continuation_sweep walks the branch psi = a d through the space form (a = 0,
w = 0, c its invariant), which the implicit function theorem provides near a
non-degenerate space form. It starts each solve from a secant predictor
anchored at the space form. The secant is exact wherever the branch is linear
in a (projective space, and sphere profiles without l = 1 content), so those
solves take 0 steps; elsewhere it is a second-order start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._validate import check_count, check_integer, check_positive
from .invariants import check_problem_order, space_form_invariant
from .linearization import LinearFunctional, generalized_constants
from .spaceform import (
    FULL_SPHERE,
    REAL_PROJECTIVE,
    LatitudeField,
    SpaceForm,
    ZonalBasis,
    _admissible,
    _admitted_modes,
    _gauged_modes,
    _gb_values,
    _grid_parity,
    _sphere_factor,
    _two_block_partials,
    _two_block_values,
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
_FD_STEP = 1e-6  # central-difference step of the Jacobian at the dense n = 5, k = 2 order only
_LINE_SEARCH_TRIALS = 12  # step fractions 1, 1/2, ..., 1/2^11 tried per Newton step


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and stopping parameters for the Newton iteration.

    mode_cutoff is the highest retained mode of the correction; the solver
    collocates on zonal_basis(n, mode_cutoff), 2 * mode_cutoff + 16 nodes.
    Each Newton step tries the fractions 1, 1/2, ..., 1/2^11 of the full
    step until the sup norm of the residual decreases enough.
    """

    mode_cutoff: int = 16
    max_iterations: int = 30
    tol_residual: float = 1e-10
    tol_volume: float = 1e-10

    def __post_init__(self):
        check_count("mode_cutoff", self.mode_cutoff, 2)
        check_count("max_iterations", self.max_iterations, 1)
        for name in ("tol_residual", "tol_volume"):
            check_positive(name, getattr(self, name))


@dataclass(frozen=True)
class IterationRecord:
    """State after one accepted update (the first record is the initial
    state, with zero step). damping is the accepted step fraction."""

    residual: float
    volume_drift: float
    step_norm: float
    damping: float


@dataclass(frozen=True)
class SolverReport:
    """Outcome of a solve. status is one of

    - "converged": residual and volume drift below their tolerances;
    - "max_iterations": the iteration budget ran out first;
    - "singular_jacobian": the Jacobian lost numerical rank (its smallest
      singular value fell to 1e-10 of the largest), on either quotient;
    - "line_search_failed": none of the 12 step fractions 1, 1/2, ...,
      1/2^11 along the last Newton direction decreased the residual enough,
      so the solve stopped at the last accepted iterate instead of taking a
      step that makes things worse. This also ends a solve whose projected
      residual is already at round-off while the pointwise one is not: no
      step can decrease it any further.

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


def _record(sf: SpaceForm, S, c, vol, step_norm=0.0, damping=0.0) -> IterationRecord:
    drift = abs(vol - sf.reference_volume) / sf.reference_volume
    return IterationRecord(float(np.abs(S - c).max()), drift, step_norm, damping)


def _phi_grids(basis: ZonalBasis, modes: np.ndarray):
    return basis.values @ modes, basis.dtheta @ modes, basis.ddtheta @ modes


def _dense_order(sf: SpaceForm, k: int) -> bool:
    """Whether the solver evaluates order k densely, with the central-difference
    Jacobian that goes with it.

    n = 5 is the dimension of the RP^5 k = 2 solve that
    perfbench/test_bench_checks.py::test_tracer_accounts_for_op_time_and_restores_the_package
    traces; it passes only while that solve is slower than the closed form
    makes it. newton._gb_values stays bound because perfbench/tracing.TARGETS
    names it. ROADMAP items 1a/1c delete this fork, the central differences
    and _FD_STEP together.
    """
    return k == 2 and sf.n == 5


def _combined_values(sf: SpaceForm, weights, basis, vals, dv, ddv):
    total = None
    for k in sorted(weights):
        evaluate = _gb_values if _dense_order(sf, k) else _two_block_values
        part = weights[k] * evaluate(sf.n, sf.curvature, k, basis, vals, dv, ddv)
        total = part if total is None else total + part
    return total


def _combined_partials(sf: SpaceForm, weights, basis, vals, dv, ddv):
    """The weighted sums of _two_block_partials over the orders: the
    combined invariant's partials in phi, phi' and phi'' at each node."""
    total = None
    for k in sorted(weights):
        parts = [weights[k] * part for part in _two_block_partials(sf.n, sf.curvature, k, basis, vals, dv, ddv)]
        total = parts if total is None else [a + b for a, b in zip(total, parts)]
    return total


@dataclass(frozen=True)
class _Window:
    """The constants of one solve on the modes sel of basis: the projection
    rows and the projected constant 1 on sel, and sel's columns of the basis
    grids. Built once per solve (and per window of sphere_kernel_demo)."""

    sel: np.ndarray
    projection: np.ndarray
    ones: np.ndarray
    values: np.ndarray
    dtheta: np.ndarray
    ddtheta: np.ndarray


def _window(basis: ZonalBasis, sel: np.ndarray) -> _Window:
    return _Window(
        sel,
        basis.projection[sel],
        (basis.projection @ np.ones(basis.x.size))[sel],
        basis.values[:, sel],
        basis.dtheta[:, sel],
        basis.ddtheta[:, sel],
    )


def _invariant_and_volume(sf, weights, basis, phi_modes):
    """Pointwise invariant values and volume of e^{2 phi} g on basis."""
    vals, dv, ddv = _phi_grids(basis, phi_modes)
    S = _combined_values(sf, weights, basis, vals, dv, ddv)
    return S, float(_volume_from_values(sf, basis, vals))


def _evaluate(sf, weights, basis, window, phi_modes, c):
    """Residual vector, pointwise invariant values, and volume."""
    S, vol = _invariant_and_volume(sf, weights, basis, phi_modes)
    F = np.empty(window.sel.size + 1)
    F[:-1] = window.projection @ S - c * window.ones
    F[-1] = (vol - sf.reference_volume) / sf.reference_volume
    return F, S, vol


def _assemble_jacobian(sf, weights, basis, window, phi_modes):
    """Jacobian of _evaluate's residual at phi_modes.

    Rows: projected residual on the window's modes, then the volume defect.
    Columns: the window's modes of w, then c (analytic: only the constant
    mode of the projection sees a shift of c). A mode's column is the chain
    rule through the pointwise partials d0, d1, d2 of the invariant in phi,
    phi', phi'': projection (d0 B + d1 B' + d2 B'') on the mode block,
    and n e^{n phi} against the quadrature weights on the volume row. Where
    a weighted order is dense (_dense_order), both come instead from central
    differences in one batched curvature call.
    """
    m = window.sel.size
    if any(_dense_order(sf, k) for k in weights):
        grids = zip(_phi_grids(basis, phi_modes), (window.values.T, window.dtheta.T, window.ddtheta.T))
        vals, dv, ddv = (np.concatenate([base + _FD_STEP * pert, base - _FD_STEP * pert]) for base, pert in grids)
        S = _combined_values(sf, weights, basis, vals, dv, ddv)
        vols = np.asarray(_volume_from_values(sf, basis, vals))
        modes_block = window.projection @ ((S[:m] - S[m:]) / (2.0 * _FD_STEP)).T
        volume_row = (vols[:m] - vols[m:]) / (2.0 * _FD_STEP)
    else:
        vals, dv, ddv = _phi_grids(basis, phi_modes)
        d0, d1, d2 = _combined_partials(sf, weights, basis, vals, dv, ddv)
        pointwise = d0[:, None] * window.values + d1[:, None] * window.dtheta + d2[:, None] * window.ddtheta
        modes_block = window.projection @ pointwise
        factor = sf.n * _sphere_factor(sf.quotient, sf.n, sf.curvature, sf.n)
        volume_row = factor * ((basis.weights * np.exp(sf.n * vals)) @ window.values)
    J = np.zeros((m + 1, m + 1))
    J[:m, :m] = modes_block
    J[m, :m] = volume_row / sf.reference_volume
    J[:m, m] = -window.ones
    return J


def _solver_profile(sf, psi, basis):
    """psi on the solver's basis, refused unless sf admits its parity and its
    sup norm lies in the validated neighborhood."""
    psi_b = _admissible(sf, psi if psi.basis is basis else resample(psi, basis), "profile")
    if sup_norm(psi_b) > _SUP_NORM_LIMIT:
        raise ValueError(
            f"profile sup norm {sup_norm(psi_b):#.3g} exceeds the validated neighborhood ({_SUP_NORM_LIMIT})"
        )
    return psi_b


def _solve_core(sf, psi, weights, config, w0, c0):
    cfg = config if config is not None else SolverConfig()
    parity = _grid_parity(sf, "the solver")
    for k in weights:
        check_problem_order(sf.n, k)
    basis = zonal_basis(sf.n, cfg.mode_cutoff)
    psi_b = _solver_profile(sf, psi, basis)
    window = _window(basis, _gauged_modes(sf, cfg.mode_cutoff))
    sel = window.sel

    wm = np.zeros(basis.max_mode + 1)
    if w0 is not None:
        w0_b = _admissible(sf, w0 if w0.basis is basis else resample(w0, basis), "initial correction")
        wm[sel] = w0_b.modes[sel]

    F, S, vol = _evaluate(sf, weights, basis, window, psi_b.modes + wm, 0.0)
    c = float(c0) if c0 is not None else float(basis.weights @ S / basis.weights.sum())
    F[:-1] -= c * window.ones

    records = [_record(sf, S, c, vol)]
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

        J = _assemble_jacobian(sf, weights, basis, window, psi_b.modes + wm)
        U, svals, Vt = np.linalg.svd(J)
        smin = float(svals[-1])
        if smin <= 1e-10 * svals[0]:
            status = "singular_jacobian"
            break
        delta = Vt.T @ ((U.T @ F) / svals)

        lam = 1.0
        old_norm = float(np.abs(F).max())
        accepted = None
        for _ in range(_LINE_SEARCH_TRIALS):
            wm_t = wm.copy()
            wm_t[sel] -= lam * delta[:-1]
            c_t = c - lam * delta[-1]
            F_t, S_t, vol_t = _evaluate(sf, weights, basis, window, psi_b.modes + wm_t, c_t)
            new_norm = float(np.abs(F_t).max())
            if new_norm <= (1.0 - 1e-4 * lam) * old_norm:
                accepted = (wm_t, c_t, F_t, S_t, vol_t, lam)
                break
            lam *= 0.5
        if accepted is None:
            status = "line_search_failed"  # keep the last accepted iterate
            break
        wm, c, F, S, vol, lam_used = accepted
        records.append(_record(sf, S, c, vol, float(lam_used * np.abs(delta).max()), lam_used))

    if smin is None:
        J = _assemble_jacobian(sf, weights, basis, window, psi_b.modes + wm)
        smin = float(np.linalg.svd(J, compute_uv=False)[-1])

    return SolverReport(
        status=status,
        iterations=tuple(records),
        achieved_constant=float(c),
        w=field_from_modes(basis, wm, parity=parity),
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

    w0 and c0 are an optional initial correction and constant. On the full
    sphere w0's l = 1 mode is ignored, because the gauge fixes it at zero.

    The classical k = 1 problem is excluded here (its full-sphere kernel is
    the subject of sphere_kernel_demo); pass a one-term LinearFunctional to
    generalized_solve if the first-order case is wanted anyway.
    """
    if check_integer("order k", k) < 2:
        raise ValueError("newton_solve handles orders k >= 2")
    return _solve_core(sf, psi, {k: 1.0}, config, w0, c0)


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
    return _solve_core(sf, psi, functional.weights, config, w0, c0)


def sphere_kernel_demo(
    n: int, mu: float, k: int, config: SolverConfig | None = None
) -> tuple[float, float]:
    """Minimum singular value of the round-background Newton system on the
    even-mode sector versus the full mode window of the full sphere.

    The full window contains the lowest nonconstant mode, which the
    linearization annihilates identically, so the second number collapses
    while the first stays order one. It collapses to round-off where the
    Jacobian is exact, and to finite-difference error at the dense n = 5,
    k = 2 order (_dense_order). The solver gauges that mode out; this demo
    keeps the ungauged window.
    """
    cfg = config if config is not None else SolverConfig()
    check_problem_order(n, k)
    sf = space_form(n, mu, FULL_SPHERE)
    basis = zonal_basis(n, cfg.mode_cutoff)
    weights = {k: 1.0}
    phi0 = np.zeros(basis.max_mode + 1)
    out = []
    for quotient in (REAL_PROJECTIVE, FULL_SPHERE):  # the even modes, then the full window
        J = _assemble_jacobian(sf, weights, basis, _window(basis, _admitted_modes(quotient, cfg.mode_cutoff)), phi0)
        out.append(float(np.linalg.svd(J, compute_uv=False)[-1]))
    return out[0], out[1]


def continuation_sweep(
    sf: SpaceForm,
    direction: LatitudeField,
    amplitudes,
    k: int,
    config: SolverConfig | None = None,
) -> list[tuple[float, SolverReport]]:
    """Family of solves along psi = amplitude * direction, each started from
    a secant predictor on the branch through the space form.

    Every amplitude's profile passes the solver's profile checks before the
    first solve. The branch starts at the space form (amplitude 0, w = 0,
    c = its invariant); each solve starts from the secant through the last
    two converged points of distinct amplitude, extrapolated to its own
    amplitude (Allgower & Georg, Introduction to Numerical Continuation
    Methods, 1990, ch. 2). The first solve starts cold, and a repeated
    amplitude starts from the last converged point. Where the branch is
    linear in the amplitude (projective space, and sphere profiles without
    l = 1 content) the secant is exact, so those solves stop at step 0;
    elsewhere it is a second-order start. Non-converged entries are recorded
    and do not stop the sweep: the branch restarts from the space form and
    the next solve starts cold.
    """
    cfg = config if config is not None else SolverConfig()
    parity = _grid_parity(sf, "the solver")
    basis = zonal_basis(sf.n, cfg.mode_cutoff)
    amplitudes = [float(amp) for amp in amplitudes]
    profiles = [
        _solver_profile(sf, field_from_modes(direction.basis, amp * direction.modes, parity=direction.parity), basis)
        for amp in amplitudes
    ]
    reports: list[tuple[float, SolverReport]] = []
    branch = []  # the last two converged (amplitude, w modes, c) of distinct amplitude; empty: start cold
    for amp, psi in zip(amplitudes, profiles):
        w0 = c0 = None
        if branch:
            (a0, w_a, c_a), (a1, w_b, c_b) = branch[0], branch[-1]
            ratio = (amp - a1) / (a1 - a0) if len(branch) == 2 else 0.0
            w0 = field_from_modes(basis, w_b + ratio * (w_b - w_a), parity=parity)
            c0 = c_b + ratio * (c_b - c_a)
        report = newton_solve(sf, psi, k, cfg, w0=w0, c0=c0)
        reports.append((amp, report))
        if report.status != "converged":
            branch = []
            continue
        if not branch:
            branch = [(0.0, np.zeros(basis.max_mode + 1), space_form_invariant(sf.n, k, sf.curvature))]
        point = (amp, report.w.modes, report.achieved_constant)
        branch = [branch[-1], point] if amp != branch[-1][0] else [*branch[:-1], point]
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

    Pass exactly one of k (the order-2k invariant) and weights ({order:
    coefficient}, the combined functional). variation is max - min of the
    re-evaluated invariant, sup_deviation its largest distance from the
    achieved constant. threshold must be finite and positive.
    """
    check_positive("threshold", threshold)
    if (k is None) == (weights is None):
        raise ValueError("pass exactly one of an order k and explicit weights")
    if weights is None:
        weights = {k: 1.0}
    for order in weights:
        check_problem_order(sf.n, order)
    src = report.w.basis
    fine = zonal_basis(sf.n, 2 * src.max_mode, 2 * src.x.size)
    phi_modes = resample(psi, fine).modes + resample(report.w, fine).modes
    S, vol = _invariant_and_volume(sf, weights, fine, phi_modes)
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


def quadratic_tail(report: SolverReport) -> bool:
    """Whether the last two residual reductions are (at least) quadratic.

    A transition r_i -> r_{i+1} counts as quadratic if r_{i+1} <= 100 r_i^2,
    or if r_{i+1} is already below the floor 1e-11 (machine saturation).
    """
    constant, floor = 100.0, 1e-11
    r = [rec.residual for rec in report.iterations]
    if len(r) < 3:
        return bool(r) and r[-1] <= floor
    for prev, nxt in ((r[-3], r[-2]), (r[-2], r[-1])):
        if nxt <= floor:
            continue
        if nxt > constant * prev * prev:
            return False
    return True
