"""Axisymmetric conformal geometry on model space forms.

The background is a round sphere (or real projective space, or a synthetic
negative-curvature surrogate) of sectional curvature mu. Conformal factors
e^{2 phi} with phi depending only on the latitude angle theta are represented
spectrally in the Gegenbauer zonal basis C_l^{(n-1)/2}(cos theta), collocated
at Gauss nodes in cos theta. The nodes exclude the poles and, crucially, are
symmetrized so that reflection theta -> pi - theta is an exact involution of
the grid; the even-mode sector (functions that descend to projective space)
is then exact at machine precision.

Two independent pointwise curvature pipelines are provided and kept separate
on purpose, because their agreement is one of the package's main checks:

- warped_curvature: after arclength reparametrization the metric is a warped
  product over a unit sphere, carrying exactly two sectional curvatures
  (radial and spherical); the (2,2) curvature operator is diagonal with
  those two eigenvalue blocks.
- conformal_curvature: the conformal transformation law, with the rank-one
  correction assembled in the base orthonormal frame and the result rescaled
  into the conformal orthonormal frame.

Both pipelines are rational in mu and in the grid quantities, so evaluating
them at mu < 0 on the same grid is a legitimate analytic continuation; that
is what the finite-difference checks at negative curvature use. Volume and
the Newton solver, by contrast, insist on spherical (mu > 0) bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import eval_gegenbauer, roots_gegenbauer

from .forms import DoubleForm, double_form, product_coeffs, product_gather_entries
from .indexing import num_indices
from .invariants import check_problem_order, gauss_bonnet_coeffs, gauss_bonnet_gather_entries

__all__ = [
    "REAL_PROJECTIVE",
    "FULL_SPHERE",
    "SYNTHETIC_HYPERBOLIC",
    "SpaceForm",
    "space_form",
    "ZonalBasis",
    "zonal_basis",
    "LatitudeField",
    "field_from_modes",
    "field_from_values",
    "mode_field",
    "constant_field",
    "resample",
    "reflect_field",
    "sup_norm",
    "ConformalMetric",
    "conformal_metric",
    "warped_curvature",
    "conformal_curvature",
    "gb_field",
    "gauss_bonnet_values",
    "volume",
    "laplacian",
    "spectrum_gap_check",
]

REAL_PROJECTIVE = "real_projective"
FULL_SPHERE = "full_sphere"
SYNTHETIC_HYPERBOLIC = "synthetic_hyperbolic"
_QUOTIENTS = (REAL_PROJECTIVE, FULL_SPHERE, SYNTHETIC_HYPERBOLIC)


@dataclass(frozen=True)
class SpaceForm:
    """Background geometry: dimension, sectional curvature, quotient type.

    reference_volume is the volume of the quotient at curvature `curvature`
    (computed for the spherical quotients, user supplied for the synthetic
    hyperbolic one). lambda1 is only meaningful for the synthetic quotient,
    where no grid exists and the spectrum is declared instead of computed.
    """

    n: int
    curvature: float
    quotient: str
    reference_volume: float
    lambda1: float | None = None


def _round_sphere_volume(n: int, curvature: float) -> float:
    radius = curvature**-0.5
    return 2.0 * math.pi ** ((n + 1) / 2) / math.gamma((n + 1) / 2) * radius**n


def space_form(
    n: int,
    curvature: float,
    quotient: str = REAL_PROJECTIVE,
    lambda1: float | None = None,
    reference_volume: float | None = None,
) -> SpaceForm:
    """Validated SpaceForm constructor."""
    if n < 5:
        raise ValueError(f"dimension must be at least 5, got {n}")
    if quotient not in _QUOTIENTS:
        raise ValueError(f"unknown quotient {quotient!r}, expected one of {_QUOTIENTS}")
    if curvature == 0:
        raise ValueError("curvature must be nonzero")
    if quotient in (REAL_PROJECTIVE, FULL_SPHERE):
        if curvature <= 0:
            raise ValueError(f"{quotient} requires positive curvature")
        vol = _round_sphere_volume(n, curvature)
        if quotient == REAL_PROJECTIVE:
            vol /= 2.0
        return SpaceForm(n=n, curvature=float(curvature), quotient=quotient, reference_volume=vol)
    if curvature >= 0:
        raise ValueError("synthetic hyperbolic quotient requires negative curvature")
    if lambda1 is None or lambda1 <= 0:
        raise ValueError("synthetic hyperbolic quotient needs a declared lambda1 > 0")
    vol = 1.0 if reference_volume is None else float(reference_volume)
    if vol <= 0:
        raise ValueError("reference volume must be positive")
    return SpaceForm(
        n=n, curvature=float(curvature), quotient=quotient, reference_volume=vol, lambda1=float(lambda1)
    )


# ---------------------------------------------------------------------------
# Spectral basis and latitude fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZonalBasis:
    """Gegenbauer zonal basis data on a symmetric Gauss grid.

    values/dtheta/ddtheta hold the quadrature-normalized basis functions and
    their first two latitude derivatives, shaped (nodes, max_mode + 1);
    projection recovers mode coefficients from grid values. weights carry the
    sin^{n-1} theta measure, so plain dot products are integrals over the
    unit sphere's latitude.
    """

    n: int
    max_mode: int
    x: np.ndarray
    weights: np.ndarray
    theta: np.ndarray
    sin_theta: np.ndarray
    values: np.ndarray
    dtheta: np.ndarray
    ddtheta: np.ndarray
    projection: np.ndarray
    norms: np.ndarray


@lru_cache(maxsize=32)
def zonal_basis(n: int, max_mode: int, nnodes: int | None = None) -> ZonalBasis:
    """Build (and cache) the basis for dimension n with modes 0..max_mode."""
    if max_mode < 1:
        raise ValueError("max_mode must be at least 1")
    if nnodes is None:
        nnodes = 2 * max_mode + 16
    if nnodes < max_mode + 1:
        raise ValueError("need at least max_mode + 1 nodes for a faithful projection")
    alpha = (n - 1) / 2.0
    x, w = roots_gegenbauer(nnodes, alpha)
    # force exact reflection symmetry of the grid (scipy returns it only to
    # roundoff, which would leak odd modes into the even sector)
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    sin_t = np.sqrt(1.0 - x * x)
    theta = np.arccos(x)

    V = np.empty((nnodes, max_mode + 1))
    V[:, 0] = 1.0
    if max_mode >= 1:
        V[:, 1] = 2.0 * alpha * x
    for ell in range(1, max_mode):
        V[:, ell + 1] = (2.0 * (ell + alpha) * x * V[:, ell] - (ell + 2.0 * alpha - 1.0) * V[:, ell - 1]) / (ell + 1.0)
    Vx = np.zeros_like(V)
    Vxx = np.zeros_like(V)
    for ell in range(1, max_mode + 1):
        Vx[:, ell] = 2.0 * alpha * eval_gegenbauer(ell - 1, alpha + 1.0, x)
    for ell in range(2, max_mode + 1):
        Vxx[:, ell] = 4.0 * alpha * (alpha + 1.0) * eval_gegenbauer(ell - 2, alpha + 2.0, x)

    norms = np.sqrt(np.einsum("j,jl->l", w, V * V))
    V = V / norms
    Vx = Vx / norms
    Vxx = Vxx / norms
    Vt = -sin_t[:, None] * Vx
    Vtt = (sin_t**2)[:, None] * Vxx - x[:, None] * Vx
    P = (V * w[:, None]).T
    arrays = (x, w, theta, sin_t, V, Vt, Vtt, P, norms)
    for arr in arrays:
        arr.flags.writeable = False
    return ZonalBasis(n, max_mode, x, w, theta, sin_t, V, Vt, Vtt, P, norms)


@dataclass(frozen=True)
class LatitudeField:
    """An axisymmetric function: mode coefficients plus collocated values.

    parity "even" means the field is symmetric about the equator (only even
    modes, the sector that descends to projective space); "any" places no
    restriction. For fields built from raw grid values, `values` keeps the
    raw data while the derivative grids come from the projected modes.
    """

    basis: ZonalBasis
    modes: np.ndarray
    parity: str
    values: np.ndarray
    dvalues: np.ndarray
    ddvalues: np.ndarray


def _freeze(*arrays):
    for arr in arrays:
        arr.flags.writeable = False


def _check_parity_modes(modes: np.ndarray, parity: str, tol: float):
    if parity not in ("even", "any"):
        raise ValueError(f"parity must be 'even' or 'any', got {parity!r}")
    if parity == "even":
        odd = np.abs(modes[1::2])
        scale = max(1.0, float(np.abs(modes).max()))
        if odd.size and odd.max() > tol * scale:
            raise ValueError("even-parity field has odd-mode content")


def field_from_modes(basis: ZonalBasis, modes, parity: str = "any") -> LatitudeField:
    """Field from mode coefficients; grids are synthesized spectrally."""
    m = np.array(modes, dtype=float)
    if m.shape != (basis.max_mode + 1,):
        raise ValueError(f"expected {basis.max_mode + 1} mode coefficients, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("mode coefficients must be finite")
    _check_parity_modes(m, parity, tol=1e-10)
    if parity == "even":
        m[1::2] = 0.0
    vals = basis.values @ m
    dv = basis.dtheta @ m
    ddv = basis.ddtheta @ m
    _freeze(m, vals, dv, ddv)
    return LatitudeField(basis, m, parity, vals, dv, ddv)


def field_from_values(basis: ZonalBasis, values, parity: str = "any") -> LatitudeField:
    """Field from raw grid values; modes are the quadrature projection.

    The raw values are kept verbatim (they may contain content above the
    mode cutoff); derivatives are taken on the projected part.
    """
    vals = np.array(values, dtype=float)
    if vals.shape != basis.x.shape:
        raise ValueError(f"expected {basis.x.size} grid values, got shape {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("grid values must be finite")
    m = basis.projection @ vals
    if parity == "even":
        odd = np.abs(m[1::2])
        scale = max(1.0, float(np.abs(m).max()))
        if odd.size and odd.max() > 1e-8 * scale:
            raise ValueError("values have odd-mode content but parity is 'even'")
        m[1::2] = 0.0
    elif parity != "any":
        raise ValueError(f"parity must be 'even' or 'any', got {parity!r}")
    dv = basis.dtheta @ m
    ddv = basis.ddtheta @ m
    _freeze(vals, m, dv, ddv)
    return LatitudeField(basis, m, parity, vals, dv, ddv)


def mode_field(basis: ZonalBasis, ell: int, sup_amplitude: float = 1.0) -> LatitudeField:
    """A single basis mode rescaled to the requested sup norm on the grid."""
    if not 0 <= ell <= basis.max_mode:
        raise ValueError(f"mode {ell} outside 0..{basis.max_mode}")
    modes = np.zeros(basis.max_mode + 1)
    modes[ell] = 1.0
    peak = float(np.abs(basis.values @ modes).max())
    modes[ell] = sup_amplitude / peak
    return field_from_modes(basis, modes, parity="even" if ell % 2 == 0 else "any")


def constant_field(basis: ZonalBasis, value: float) -> LatitudeField:
    return field_from_values(basis, np.full(basis.x.size, float(value)), parity="even")


def resample(field: LatitudeField, basis: ZonalBasis) -> LatitudeField:
    """Re-express a field on another basis of the same dimension.

    Mode coefficients are renormalized through the stored polynomial norms,
    so band-limited fields transfer exactly; the target cutoff must not
    truncate the source.
    """
    src = field.basis
    if basis.n != src.n:
        raise ValueError("resampling across dimensions is not defined")
    if basis.max_mode < src.max_mode:
        nz = np.nonzero(field.modes)[0]
        if nz.size and nz.max() > basis.max_mode:
            raise ValueError("target basis would truncate nonzero modes")
    modes = np.zeros(basis.max_mode + 1)
    upto = min(src.max_mode, basis.max_mode) + 1
    modes[:upto] = field.modes[:upto] * basis.norms[:upto] / src.norms[:upto]
    return field_from_modes(basis, modes, parity=field.parity)


def reflect_field(field: LatitudeField) -> LatitudeField:
    """Pull back under theta -> pi - theta (odd modes change sign)."""
    modes = field.modes.copy()
    modes[1::2] *= -1.0
    return field_from_modes(field.basis, modes, parity=field.parity)


def sup_norm(field: LatitudeField) -> float:
    return float(np.abs(field.values).max())


# ---------------------------------------------------------------------------
# Conformal metrics and curvature pipelines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConformalMetric:
    """e^{2 phi} times the space form metric, phi axisymmetric."""

    base: SpaceForm
    phi: LatitudeField


def conformal_metric(base: SpaceForm, phi: LatitudeField) -> ConformalMetric:
    if phi.basis.n != base.n:
        raise ValueError("field dimension does not match the space form")
    if base.quotient == REAL_PROJECTIVE and phi.parity != "even":
        raise ValueError("projective quotients need even-parity conformal factors")
    return ConformalMetric(base=base, phi=phi)


def _sectional_blocks(mu, x, sin_t, vals, dv, ddv):
    """Radial and spherical sectional curvatures of e^{2 phi} g_mu.

    Derived from the warped-product normal form: after reparametrizing the
    latitude by conformal arclength the metric is ds^2 + h(s)^2 g_{S^{n-1}},
    whose only curvatures are -h''/h (planes containing the radial
    direction) and (1 - h'^2)/h^2 (planes tangent to the orbit spheres).
    Expressed back in theta these take the closed forms below; they are
    polynomial in mu, which is what makes mu < 0 continuation valid.
    """
    cot = x / sin_t
    scale = mu * np.exp(-2.0 * vals)
    k_rad = scale * (1.0 - ddv - dv * cot)
    k_sph = scale * (1.0 - 2.0 * cot * dv - dv * dv)
    return k_rad, k_sph


def _diagonal_curvature_stack(n, k_rad, k_sph):
    """Stack of (2,2) coefficient matrices, diagonal on coordinate planes."""
    m = num_indices(n, 2)
    batch = k_rad.shape
    diag = np.empty(batch + (m,))
    # ranked 2-subsets list the radial pairs (0, j) first
    diag[..., : n - 1] = k_rad[..., None]
    diag[..., n - 1 :] = k_sph[..., None]
    out = np.zeros(batch + (m, m))
    idx = np.arange(m)
    out[..., idx, idx] = diag
    return out


def _conformal_curvature_stack(n, mu, x, sin_t, vals, dv, ddv):
    """Conformal transformation law in the conformal orthonormal frame.

    T = Hess phi - dphi (x) dphi + 1/2 |dphi|^2 g is assembled in the base
    orthonormal frame (diagonal for axisymmetric phi), multiplied into the
    metric with the double-form product, subtracted from the base curvature
    operator, and the whole thing rescaled by e^{-2 phi} to land in the
    orthonormal frame of the conformal metric.
    """
    batch = vals.shape
    cot = x / sin_t
    t_rad = mu * (ddv - 0.5 * dv * dv)
    t_sph = mu * (cot * dv + 0.5 * dv * dv)
    T = np.zeros(batch + (n, n))
    T[..., 0, 0] = t_rad
    for i in range(1, n):
        T[..., i, i] = t_sph
    eye = np.broadcast_to(np.eye(n), batch + (n, n))
    gT = product_coeffs(n, 1, 1, eye, 1, 1, T)
    m = num_indices(n, 2)
    base = np.zeros((m, m))
    base[np.arange(m), np.arange(m)] = mu  # (mu/2) g^2 has value mu on plane pairs
    return np.exp(-2.0 * vals)[..., None, None] * (base - gT)


def warped_curvature(cm: ConformalMetric, node: int) -> DoubleForm:
    """Pointwise (2,2) curvature operator via the warped-product pipeline."""
    phi = cm.phi
    k_rad, k_sph = _sectional_blocks(
        cm.base.curvature,
        phi.basis.x[node],
        phi.basis.sin_theta[node],
        phi.values[node],
        phi.dvalues[node],
        phi.ddvalues[node],
    )
    stack = _diagonal_curvature_stack(cm.base.n, np.asarray(k_rad)[None], np.asarray(k_sph)[None])
    return double_form(cm.base.n, 2, 2, stack[0])


def conformal_curvature(cm: ConformalMetric, node: int) -> DoubleForm:
    """Pointwise (2,2) curvature operator via the conformal transformation law."""
    phi = cm.phi
    for arr in (phi.values, phi.dvalues, phi.ddvalues):
        if not np.isfinite(arr[node]):
            raise ValueError("field derivatives are not finite at the node")
    stack = _conformal_curvature_stack(
        cm.base.n,
        cm.base.curvature,
        phi.basis.x[node : node + 1],
        phi.basis.sin_theta[node : node + 1],
        phi.values[node : node + 1],
        phi.dvalues[node : node + 1],
        phi.ddvalues[node : node + 1],
    )
    return double_form(cm.base.n, 2, 2, stack[0])


# Float64 entries one product gather may hold: about 32 MB per gathered operand.
_GATHER_BUDGET = 4_000_000


def _gather_entries(n, k, pipeline):
    """Entries of the largest per-node array one evaluation gathers: the
    curvature stack, the product of g and T on the conformal pipeline, or
    one of the invariant kernel's own gathers."""
    sizes = [num_indices(n, 2) ** 2, gauss_bonnet_gather_entries(n, k)]
    if pipeline == "conformal":
        sizes.append(product_gather_entries(n, 1, 1, 1, 1))
    return max(sizes)


def _gb_chunk(n, mu, k, x, sin_t, vals, dv, ddv, pipeline):
    if pipeline == "warped":
        k_rad, k_sph = _sectional_blocks(mu, x, sin_t, vals, dv, ddv)
        R = _diagonal_curvature_stack(n, k_rad, k_sph)
    elif pipeline == "conformal":
        R = _conformal_curvature_stack(n, mu, x, sin_t, vals, dv, ddv)
    else:
        raise ValueError(f"unknown pipeline {pipeline!r}")
    return gauss_bonnet_coeffs(n, k, R)


def _gb_values(n, mu, k, basis: ZonalBasis, vals, dv, ddv, pipeline="warped"):
    """Pointwise order-2k invariant of e^{2 phi} g_mu on raw value arrays.

    vals/dv/ddv may carry leading batch dimensions in front of the node
    axis. Work runs in chunks sized so that no gather exceeds
    _GATHER_BUDGET entries. Chunking does not change results: outputs are
    concatenated, never reduced across chunks.
    """
    batch = np.shape(vals)
    grid = np.stack([np.broadcast_to(a, batch).reshape(-1) for a in (basis.x, basis.sin_theta, vals, dv, ddv)])
    chunk = max(1, _GATHER_BUDGET // _gather_entries(n, k, pipeline))
    parts = [_gb_chunk(n, mu, k, *grid[:, s : s + chunk], pipeline) for s in range(0, grid.shape[1], chunk)]
    return np.concatenate(parts).reshape(batch)


def gb_field(cm: ConformalMetric, k: int, pipeline: str = "warped") -> LatitudeField:
    """The order-2k invariant of the conformal metric as a latitude field.

    Values are the raw pointwise evaluations; mode coefficients are their
    projection onto the field's basis.
    """
    n = cm.base.n
    check_problem_order(n, k)
    phi = cm.phi
    vals = _gb_values(n, cm.base.curvature, k, phi.basis, phi.values, phi.dvalues, phi.ddvalues, pipeline)
    return field_from_values(phi.basis, vals, parity=phi.parity)


def gauss_bonnet_values(cm: ConformalMetric, ks, pipeline: str = "warped") -> dict[int, np.ndarray]:
    """Raw grid values of the invariant for each requested order."""
    return {int(k): gb_field(cm, int(k), pipeline).values for k in ks}


# ---------------------------------------------------------------------------
# Volume, Laplacian, spectrum
# ---------------------------------------------------------------------------


def _transverse_factor(sf: SpaceForm) -> float:
    radius = sf.curvature**-0.5
    factor = 2.0 * math.pi ** (sf.n / 2) / math.gamma(sf.n / 2) * radius**sf.n
    if sf.quotient == REAL_PROJECTIVE:
        factor /= 2.0
    return factor


def _volume_from_values(sf: SpaceForm, basis: ZonalBasis, vals) -> np.ndarray | float:
    """Volume of e^{2 phi} g from raw phi values (batch-aware)."""
    integrand = np.exp(sf.n * np.asarray(vals, dtype=float))
    return _transverse_factor(sf) * (integrand @ basis.weights)


def volume(cm: ConformalMetric) -> float:
    """Total volume of the conformal metric (spherical quotients only)."""
    if cm.base.quotient == SYNTHETIC_HYPERBOLIC:
        raise ValueError("volume is not defined for the synthetic hyperbolic quotient")
    return float(_volume_from_values(cm.base, cm.phi.basis, cm.phi.values))


def laplacian(sf: SpaceForm, field: LatitudeField) -> LatitudeField:
    """Laplace-Beltrami operator of the background (geometer sign: the
    eigenvalue on mode l is l (l + n - 1) mu, positive for mu > 0)."""
    if field.basis.n != sf.n:
        raise ValueError("field dimension does not match the space form")
    ells = np.arange(field.basis.max_mode + 1, dtype=float)
    eig = ells * (ells + sf.n - 1) * sf.curvature
    return field_from_modes(field.basis, field.modes * eig, parity=field.parity)


def spectrum_gap_check(sf: SpaceForm) -> tuple[float, float, bool]:
    """First nonzero Laplace eigenvalue on the quotient's function sector,
    the critical level n mu, and whether the gap clears it strictly."""
    critical = sf.n * sf.curvature
    if sf.quotient == REAL_PROJECTIVE:
        lam1 = 2.0 * (sf.n + 1) * sf.curvature  # smallest even mode, l = 2
    elif sf.quotient == FULL_SPHERE:
        lam1 = float(critical)  # l = 1
    else:
        lam1 = float(sf.lambda1)
    return lam1, float(critical), bool(lam1 > critical)
