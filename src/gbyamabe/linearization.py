"""Linearization of the order-2k invariants at space-form backgrounds.

At a round background the first variation of the total order-2k curvature
invariant collapses, for axisymmetric conformal directions, to a multiple of
the shifted Laplacian (Laplacian - n mu). The coefficients are explicit in
(n, k, mu) and are exposed here, together with a finite-difference harness
that verifies the closed forms against the nonlinear curvature pipelines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._validate import check_nonzero, check_positive, check_power
from .forms import check_dense_dim
from .invariants import _two_block_coefficients, check_problem_order, invariant_constants
from .spaceform import (
    ConformalMetric,
    LatitudeField,
    SpaceForm,
    _gb_values,
    field_from_modes,
    field_from_values,
    gb_field,
    laplacian,
    sup_norm,
)

__all__ = [
    "LinearizationConstants",
    "constants",
    "shifted_laplacian",
    "conformal_linearization",
    "fd_verify",
    "NondegeneracyViolated",
    "LinearFunctional",
    "GeneralizedConstants",
    "generalized_constants",
    "constancy_diagnostic",
]


class NondegeneracyViolated(ValueError):
    """The combined linearization coefficient vanishes (or nearly does), so
    the implicit-function argument behind the solver does not apply."""


@dataclass(frozen=True)
class LinearizationConstants:
    """Closed-form coefficients at the (n, mu) background, order k.

    base_coefficient scales the pointwise invariant of the background,
    tensor_coefficient = B / (2 (n - 1)) mu^(k-1) multiplies Laplacian tr h
    + div div h - (n - 1) mu tr h in a general metric direction h
    (geometer-sign Laplacian), and conformal_coefficient = B / 2 mu^(k-1),
    (n - 1) times it, multiplies the shifted Laplacian in conformal
    directions (B from invariants._two_block_coefficients).
    """

    n: int
    k: int
    mu: float
    base_coefficient: float
    tensor_coefficient: float
    conformal_coefficient: float


def constants(n: int, k: int, mu: float) -> LinearizationConstants:
    check_problem_order(n, k)
    check_nonzero("background curvature", mu)
    check_power("background curvature", mu, k)
    B = _two_block_coefficients(n, k)[1]
    return LinearizationConstants(
        n=n,
        k=k,
        mu=float(mu),
        base_coefficient=invariant_constants(n, k).base_coefficient,
        tensor_coefficient=check_power("background curvature", mu, k - 1, B / (2 * (n - 1))),
        conformal_coefficient=check_power("background curvature", mu, k - 1, B / 2),
    )


def shifted_laplacian(sf: SpaceForm, field: LatitudeField) -> LatitudeField:
    """(Laplacian - n mu) applied to an axisymmetric field."""
    lap = laplacian(sf, field)
    modes = lap.modes - sf.n * sf.curvature * field.modes
    return field_from_modes(field.basis, modes, parity=field.parity)


def conformal_linearization(sf: SpaceForm, field: LatitudeField, k: int) -> LatitudeField:
    """Derivative of the order-2k invariant in the direction of a conformal
    perturbation f (metric direction 2 f g contributes twice this)."""
    coeff = constants(sf.n, k, sf.curvature).conformal_coefficient
    shifted = shifted_laplacian(sf, field)
    return field_from_modes(field.basis, coeff * shifted.modes, parity=field.parity)


def fd_verify(
    sf: SpaceForm,
    field: LatitudeField,
    k: int,
    eps: float = 1e-3,
    pipeline: str = "warped",
) -> tuple[LatitudeField, LatitudeField, float]:
    """Central-difference check of the conformal linearization.

    Evaluates the order-2k invariant of e^{+-2 eps f} g_mu, forms the
    symmetric difference quotient, and compares with the closed form for the
    path derivative (the direction is h = 2 f g, hence twice the conformal
    linearization). Returns (fd, exact, sup relative error). Refused above
    forms.DENSE_DIM_LIMIT, like every dense oracle (check_dense_dim).
    """
    check_dense_dim("dimension", sf.n)
    check_positive("eps", eps)
    basis = field.basis
    lin = conformal_linearization(sf, field, k)
    exact = field_from_modes(basis, 2.0 * lin.modes, parity=field.parity)
    denom = sup_norm(exact)
    if denom == 0.0:
        raise ValueError("exact linearization vanishes; relative error undefined")
    # a large eps takes e^(+-2 eps f) g_mu out of the floats; the quotient
    # is then refused below, with no numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.stack([eps * field.values, -eps * field.values])
        dv = np.stack([eps * field.dvalues, -eps * field.dvalues])
        ddv = np.stack([eps * field.ddvalues, -eps * field.ddvalues])
        two_sided = _gb_values(sf.n, sf.curvature, k, basis, vals, dv, ddv, pipeline)
        fd_vals = (two_sided[0] - two_sided[1]) / (2.0 * eps)
    if not np.all(np.isfinite(fd_vals)):
        raise ValueError(f"eps {eps:.3g} gives non-finite difference quotients: e^(+-2 eps f) g_mu leaves the floats")
    fd = field_from_values(basis, fd_vals, parity=field.parity)
    relerr = float(np.abs(fd.values - exact.values).max() / denom)
    return fd, exact, relerr


# ---------------------------------------------------------------------------
# Linear combinations of invariants of several orders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearFunctional:
    """Linear combination sum_k coefficients[k-1] * (order-2k invariant)."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if not coeffs:
            raise ValueError("functional needs at least one coefficient")
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("functional coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(range(1, len(self.coefficients) + 1))

    @property
    def weights(self) -> dict[int, float]:
        """The nonzero coefficients by order, as the solver and
        fixed_point_certificate take them."""
        return {k: c for k, c in zip(self.orders, self.coefficients) if c != 0.0}


@dataclass(frozen=True)
class GeneralizedConstants:
    n: int
    mu: float
    coefficients: tuple[float, ...]
    per_order: tuple[LinearizationConstants, ...]
    tensor_coefficient: float
    conformal_coefficient: float


def generalized_constants(n: int, mu: float, functional: LinearFunctional) -> GeneralizedConstants:
    """Aggregate linearization coefficients of a combined functional.

    Raises NondegeneracyViolated when the combination cancels: the combined
    coefficient is negligible against the scale of its terms.
    """
    per_order = tuple(constants(n, k, mu) for k in functional.orders)
    combined = sum(c * pc.tensor_coefficient for c, pc in zip(functional.coefficients, per_order))
    scale = sum(abs(c * pc.tensor_coefficient) for c, pc in zip(functional.coefficients, per_order))
    if scale == 0.0 or abs(combined) < 1e-12 * scale:
        raise NondegeneracyViolated(
            f"combined linearization coefficient {combined:.3e} is degenerate (term scale {scale:.3e})"
        )
    return GeneralizedConstants(
        n=n,
        mu=float(mu),
        coefficients=functional.coefficients,
        per_order=per_order,
        tensor_coefficient=float(combined),
        conformal_coefficient=float((n - 1) * combined),
    )


def constancy_diagnostic(cm: ConformalMetric, k: int) -> LatitudeField:
    """Mean-free conformal Laplacian of the order-2k invariant field.

    For a metric solving the constant-invariant equation the invariant is
    constant, so this diagnostic vanishes (to discretization accuracy); at a
    generic conformal factor it is order one. The conformal Laplacian of
    e^{2 phi} g acts on axisymmetric u as
    e^{-2 phi} (Laplacian_g u - (n - 2) mu phi' u').
    """
    sf = cm.base
    phi = cm.phi
    field = gb_field(cm, k)
    lap = laplacian(sf, field)
    hat_vals = np.exp(-2.0 * phi.values) * (
        lap.values - (sf.n - 2) * sf.curvature * phi.dvalues * field.dvalues
    )
    mean = float(phi.basis.weights @ hat_vals) / float(phi.basis.weights.sum())
    return field_from_values(phi.basis, hat_vals - mean, parity=phi.parity)
