"""Closed-form checks for the benchmark's operations.

Every expected value here is computed from first principles (factorials,
binomials and the warped-product curvature formulas), never read back from a
stored run of the package. Each check returns a list of failure messages;
an empty list means the output passed.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

# Measured errors on today's code are below 1e-14, so these leave several
# orders of margin while still rejecting a constant off by 1e-6 relative. The
# solver stops at a residual of 1e-10, hence the looser solve tolerance.
SOLVE_TOL = 1e-9
ORACLE_RTOL = 1e-10


def space_form_constant(n: int, k: int, mu: float) -> float:
    """Order-2k invariant of the curvature-mu space form:
    n! / ((n - 2k)! 2^k) mu^k."""
    return math.factorial(n) / (math.factorial(n - 2 * k) * 2**k) * float(mu) ** k


def combined_constant(n: int, weights: dict[int, float], mu: float) -> float:
    """sum_k c_k n! / ((n - 2k)! 2^k) mu^k for a combined functional."""
    return sum(c * space_form_constant(n, k, mu) for k, c in weights.items())


def two_block_invariant(n: int, k: int, r, s):
    """Order-2k invariant of a curvature operator that is r on the n - 1
    planes through one axis and s on the others:
    (2k)!/2^k [C(n-1, 2k) s^k + C(n-1, 2k-1) r s^(k-1)].

    Counts the 2k-subsets of the axes: those avoiding the preferred axis see
    only s, those containing it pair it with exactly one other axis."""
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    lead = math.factorial(2 * k) / 2**k
    return lead * (math.comb(n - 1, 2 * k) * s**k + math.comb(n - 1, 2 * k - 1) * r * s ** (k - 1))


def sectional_curvatures(mu: float, theta, phi, dphi, ddphi):
    """Radial and orbit-tangent sectional curvatures of e^(2 phi) g_mu for a
    latitude profile phi(theta).

    In arclength s the metric is ds^2 + h(s)^2 g_sphere with
    ds = e^phi dtheta / sqrt(mu) and h = e^phi sin(theta) / sqrt(mu); the
    curvatures are -h''/h and (1 - h'^2)/h^2."""
    theta = np.asarray(theta, dtype=float)
    cot = np.cos(theta) / np.sin(theta)
    scale = mu * np.exp(-2.0 * np.asarray(phi))
    r = scale * (1.0 - ddphi - dphi * cot)
    s = scale * (1.0 - 2.0 * dphi * cot - dphi * dphi)
    return r, s


def two_block_matrix(n: int, r: float, s: float) -> np.ndarray:
    """Ranked (2,2) coefficient matrix of the two-block operator: diagonal,
    r on the planes containing axis 0 and s on the rest."""
    diag = [r if 0 in pair else s for pair in combinations(range(n), 2)]
    return np.diag(diag)


def _rel_gap(a: float, b: float, scale: float) -> float:
    return abs(a - b) / max(abs(scale), 1e-300)


# ---------------------------------------------------------------------------
# Solve checks
# ---------------------------------------------------------------------------


def check_solve(n, mu, projective, weights, psi, report, cert) -> list[str]:
    """Checks one certified solve against the closed forms.

    - status converged and certificate passed;
    - achieved constant equals sum_k c_k n!/((n-2k)! 2^k) mu^k, because the
      constant-invariant metrics of these classes near round with the
      reference volume are round;
    - projective: psi + w vanishes (local uniqueness);
    - always: the invariant, recomputed at every node from the solved
      field's values and derivatives with the two-block closed form, is the
      achieved constant.
    """
    failures = []
    if report.status != "converged":
        failures.append(f"status {report.status!r}, expected 'converged'")
    if cert is None or not cert.passed:
        failures.append("fixed-point certificate did not pass")
    expected = combined_constant(n, weights, mu)
    gap = _rel_gap(report.achieved_constant, expected, expected)
    if not gap <= SOLVE_TOL:
        failures.append(f"achieved constant {report.achieved_constant!r} vs closed form {expected!r} (rel {gap:.2e})")
    w = report.w
    if psi.values.shape != w.values.shape:
        return failures + ["profile and correction live on different grids"]
    phi = psi.values + w.values
    if projective:
        sup = float(np.abs(phi).max())
        if not sup <= SOLVE_TOL:
            failures.append(f"sup|psi + w| = {sup:.2e} on a projective quotient, expected 0")
    r, s = sectional_curvatures(mu, w.basis.theta, phi, psi.dvalues + w.dvalues, psi.ddvalues + w.ddvalues)
    values = sum(c * two_block_invariant(n, k, r, s) for k, c in weights.items())
    dev = float(np.abs(values - report.achieved_constant).max()) / max(1.0, abs(expected))
    if not dev <= SOLVE_TOL:
        failures.append(f"recomputed invariant deviates from the constant by {dev:.2e} (relative)")
    return failures


# ---------------------------------------------------------------------------
# Oracle (verify) checks
# ---------------------------------------------------------------------------


def invariant_scale(n: int, k: int, magnitude: float) -> float:
    """Size of an order-2k invariant built from entries of the given
    magnitude: max(1, magnitude)^k n!/((n-2k)! 2^k)."""
    return max(1.0, float(magnitude)) ** k * space_form_constant(n, k, 1.0)


def check_close(label: str, value: float, expected: float, scale: float) -> list[str]:
    gap = _rel_gap(value, expected, scale)
    if gap <= ORACLE_RTOL:
        return []
    return [f"{label}: {value!r} vs {expected!r} (rel {gap:.2e})"]


def check_verify(n, k, mu, two_block, node_curvatures, out) -> list[str]:
    """Checks one oracle op. `out` is what the verify op returned: per
    operator its invariant, Ricci trace and entry magnitude, the raw
    Kronecker sum (None above n = 7) and the warped and conformal curvature
    at one node. mu, two_block = (r, s) and the node's
    sectional curvatures are the op's inputs and the benchmark's own values."""
    failures = []
    fact = math.factorial(2 * k)
    for name, op in out["operators"].items():
        scale = invariant_scale(n, k, op["magnitude"])
        failures += check_close(f"{name}: tr ricci_2k / (2k)!", op["ricci_trace"] / fact, op["gauss_bonnet"], scale)
    sf = out["operators"]["space_form"]
    failures += check_close(
        "space-form invariant", sf["gauss_bonnet"], space_form_constant(n, k, mu), invariant_scale(n, k, abs(mu))
    )
    tb = out["operators"]["two_block"]
    failures += check_close(
        "two-block invariant",
        tb["gauss_bonnet"],
        float(two_block_invariant(n, k, *two_block)),
        invariant_scale(n, k, max(abs(two_block[0]), abs(two_block[1]))),
    )
    if out["kronecker"] is not None:
        rnd = out["operators"]["random"]
        failures += check_close(
            "gauss_bonnet vs raw_kronecker_sum / 4^k",
            rnd["gauss_bonnet"],
            out["kronecker"] / 4**k,
            invariant_scale(n, k, rnd["magnitude"]),
        )
    warped, conformal = out["pipelines"]
    scale = max(1.0, float(np.abs(warped).max()))
    gap = float(np.abs(warped - conformal).max()) / scale
    if not gap <= ORACLE_RTOL:
        failures.append(f"warped and conformal curvature differ by {gap:.2e} (relative)")
    gap = float(np.abs(warped - two_block_matrix(n, *node_curvatures)).max()) / scale
    if not gap <= ORACLE_RTOL:
        failures.append(f"warped curvature differs from the sectional-curvature closed form by {gap:.2e}")
    return failures
