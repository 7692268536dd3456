"""Axisymmetric conformal geometry on model space forms.

The background is a round sphere (or real projective space, or a synthetic
negative-curvature surrogate) of sectional curvature mu. Conformal factors
e^{2 phi} with phi depending only on the latitude angle theta are represented
spectrally in the Gegenbauer zonal basis C_l^{(n-1)/2}(cos theta), collocated
at Gauss-Gegenbauer nodes in cos theta. _gauss_gegenbauer computes the rule
with numpy alone: nodes are the eigenvalues of the Jacobi matrix
(Golub-Welsch) refined by one Newton step, weights come from the derivative
formula. The nodes exclude the poles and, crucially, are symmetrized so that
reflection theta -> pi - theta is an exact involution of the grid; the
even-mode sector (functions that descend to projective space) is then exact
at machine precision.

Two independent pointwise curvature pipelines are provided and kept separate
on purpose, because their agreement is one of the package's main checks:

- warped_curvature: after arclength reparametrization the metric is a warped
  product over a unit sphere, carrying exactly two sectional curvatures
  (radial and spherical); the (2,2) curvature operator is diagonal with
  those two eigenvalue blocks.
- conformal_curvature: the conformal transformation law, with the rank-one
  correction assembled in the base orthonormal frame and the result rescaled
  into the conformal orthonormal frame.

_curvature_stack is the one dispatch of the two pipelines: it maps a
pipeline name to its builder, for one node (the per-node operators above)
or for a grid of them (the dense evaluator below).

Both pipelines are rational in mu and in the grid quantities, so evaluating
them at mu < 0 on the same grid is a legitimate analytic continuation; that
is what the finite-difference checks at negative curvature use. Volume and
the Newton solver, by contrast, insist on spherical (mu > 0) bases.

The quotient rules live here. GRID_PARITY names the quotients with a
collocation grid (the spherical ones) and the parity of the zonal fields
each admits: real projective space identifies antipodes, so only fields
even under theta -> pi - theta descend to it, and _sphere_factor halves its
volume. _grid_parity and _admissible apply the table for volume,
conformal_metric and the solver; _even_modes is the parity rule of modes.
_admitted_modes lists the modes a quotient admits, and _gauged_modes drops
from them the kernel of Delta - n mu: those are the solver's unknowns.
The synthetic hyperbolic quotient carries no spectral data: on a closed
hyperbolic manifold Delta >= 0 > n mu, so Delta - n mu >= n |mu| is
invertible and spectrum_gap_check decides its gap in closed form.

The curvature operator of either pipeline has only two eigenvalues, k_rad on
the n - 1 radial planes and k_sph on the rest, so the order-2k invariant is a
two-term polynomial in them. _two_block_values evaluates that closed form in
O(nodes) and is what the solver uses everywhere but at k = 2 with n = 5;
_two_block_partials gives its exact derivatives in (phi, phi', phi''), from
which the solver assembles its Jacobian wherever it uses the closed form.
The dense evaluator _gb_values builds each pipeline's curvature stack and
runs the double-form algebra; it is the oracle behind gb_field, fd_verify
and constancy_diagnostic, and the solver's n = 5, k = 2 path. It runs in
chunks of nodes whose largest gather holds at most _GATHER_BUDGET entries,
a cache-sized budget far below the size up to which the forms kernels
retain their work buffers (forms._WORK_RETAIN). Every gather, the products' and the
invariant's diagonal blocks alike, goes into such a buffer, so no chunk maps
fresh memory, and the buffers a grid evaluation leaves behind are a chunk's
size, not the whole batch's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._validate import check_count, check_integer, check_nonzero
from .forms import DoubleForm, check_dense_dim, double_form, product_coeffs, product_gather_entries, standard_metric
from .indexing import num_indices
from .invariants import (
    _metric_square,
    _two_block_coefficients,
    check_problem_order,
    gauss_bonnet_coeffs,
    gauss_bonnet_gather_entries,
)

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
    "resample",
    "sup_norm",
    "ConformalMetric",
    "conformal_metric",
    "warped_curvature",
    "conformal_curvature",
    "gb_field",
    "volume",
    "laplacian",
    "spectrum_gap_check",
]

REAL_PROJECTIVE = "real_projective"
FULL_SPHERE = "full_sphere"
SYNTHETIC_HYPERBOLIC = "synthetic_hyperbolic"
# The quotients with a collocation grid, by the parity of the zonal fields
# they admit; the synthetic hyperbolic quotient has none.
GRID_PARITY = {REAL_PROJECTIVE: "even", FULL_SPHERE: "any"}
_QUOTIENTS = (*GRID_PARITY, SYNTHETIC_HYPERBOLIC)


def _admitted_modes(quotient: str, max_mode: int) -> np.ndarray:
    """The zonal modes 0..max_mode of the fields a grid quotient admits."""
    return np.arange(0, max_mode + 1, 2 if GRID_PARITY[quotient] == "even" else 1)


def _gauged_modes(sf: SpaceForm, max_mode: int) -> np.ndarray:
    """The solver's unknowns and equations: the admitted modes minus the
    kernel of Delta - n mu, which is l = 1 (the Moebius directions) on the
    full sphere and empty on projective space."""
    ell = _admitted_modes(sf.quotient, max_mode)
    return ell[_laplace_eigenvalue(ell, sf) != sf.n * sf.curvature]


@dataclass(frozen=True)
class SpaceForm:
    """Background geometry: dimension, sectional curvature, quotient type.

    reference_volume is the volume of a spherical quotient at curvature
    `curvature`, and None on the synthetic hyperbolic quotient, which has no
    grid and, since Delta - n mu >= n |mu| there, needs no spectrum either.
    """

    n: int
    curvature: float
    quotient: str
    reference_volume: float | None = None


def _sphere_factor(quotient: str, m: int, curvature: float, power: int) -> float:
    """|S^(m-1)| r^power at radius r = curvature^(-1/2), halved on real
    projective space, where antipodal points are one."""
    factor = 2.0 * math.pi ** (m / 2) / math.gamma(m / 2) * (curvature**-0.5) ** power
    return factor / 2.0 if quotient == REAL_PROJECTIVE else factor


def space_form(n: int, curvature: float, quotient: str = REAL_PROJECTIVE) -> SpaceForm:
    """Validated SpaceForm constructor. n is an integer of at least 5 and
    the curvature is finite: positive on the spherical quotients, which
    compute their reference volume and refuse an (n, curvature) where it is
    not a finite positive float, negative on the synthetic hyperbolic
    quotient, which has none."""
    n = check_count("dimension", n, 5)
    if quotient not in _QUOTIENTS:
        raise ValueError(f"unknown quotient {quotient!r}, expected one of {_QUOTIENTS}")
    check_nonzero("curvature", curvature)
    if quotient in GRID_PARITY:
        if curvature <= 0:
            raise ValueError(f"{quotient} requires positive curvature")
        try:
            vol = _sphere_factor(quotient, n + 1, curvature, n)
        except OverflowError:
            vol = math.inf
        if not (math.isfinite(vol) and vol > 0):
            raise ValueError(f"dimension {n} and curvature {curvature} give no finite positive reference volume")
        return SpaceForm(n=n, curvature=float(curvature), quotient=quotient, reference_volume=vol)
    if curvature >= 0:
        raise ValueError("synthetic hyperbolic quotient requires negative curvature")
    return SpaceForm(n=n, curvature=float(curvature), quotient=quotient)


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


def zonal_basis(n: int, max_mode: int, nnodes: int | None = None) -> ZonalBasis:
    """Build (and cache) the basis for dimension n with modes 0..max_mode on
    nnodes Gauss nodes (default 2 max_mode + 16).

    Arguments are validated and the default is resolved before the cache, so
    every spelling of one grid returns the same object and the solver, which
    compares bases by identity, never resamples a profile onto a copy of its
    own basis.
    """
    n = check_count("dimension n", n, 2)
    max_mode = check_count("max_mode", max_mode, 1)
    if nnodes is None:
        nnodes = 2 * max_mode + 16
    # max_mode + 1 nodes at least, for a faithful projection
    nnodes = check_count("nnodes", nnodes, max_mode + 1)
    return _zonal_basis(n, max_mode, nnodes)


def _gegenbauer_table(degree: int, alpha: float, x: np.ndarray) -> np.ndarray:
    """C_l^alpha(x) for l = 0..degree by the three-term recurrence, shaped
    (x.size, degree + 1); degree -1 gives no columns."""
    C = np.empty((x.size, degree + 1))
    C[:, :1] = 1.0
    C[:, 1:2] = 2.0 * alpha * x[:, None]
    for ell in range(1, degree):
        C[:, ell + 1] = (2.0 * (ell + alpha) * x * C[:, ell] - (ell + 2.0 * alpha - 1.0) * C[:, ell - 1]) / (ell + 1.0)
    return C


def _gauss_gegenbauer(nnodes: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule for the weight (1 - x^2)^(alpha - 1/2) on [-1, 1].

    Nodes are the eigenvalues of the symmetric tridiagonal Jacobi matrix
    (Golub-Welsch), refined by one Newton step on C_N. Weights are
    1 / (C_{N-1} C'_N), with both factors log-normalized so that their
    product neither overflows nor underflows at large N and alpha, scaled to
    the total mass sqrt(pi) Gamma(alpha + 1/2) / Gamma(alpha + 1). These are
    the steps of scipy.special.roots_gegenbauer, less its reflection
    symmetrization, which the caller applies.
    """
    k = np.arange(1.0, nnodes)
    offdiag = np.sqrt(k * (k + 2.0 * alpha - 1.0) / (4.0 * (k + alpha) * (k + alpha - 1.0)))
    x = np.linalg.eigvalsh(np.diag(offdiag, 1) + np.diag(offdiag, -1))
    C = _gegenbauer_table(nnodes, alpha, x)
    dC = (-nnodes * x * C[:, -1] + (nnodes + 2.0 * alpha - 1.0) * C[:, -2]) / (1.0 - x * x)
    x = x - C[:, -1] / dC
    fm = _gegenbauer_table(nnodes - 1, alpha, x)[:, -1]
    for f in (fm, dC):
        logs = np.log(np.abs(f))
        f /= np.exp(0.5 * (logs.max() + logs.min()))
    w = 1.0 / (fm * dC)
    mass = math.sqrt(math.pi) * math.gamma(alpha + 0.5) / math.gamma(alpha + 1.0)
    return x, w * (mass / w.sum())


@lru_cache(maxsize=32)
def _zonal_basis(n: int, max_mode: int, nnodes: int) -> ZonalBasis:
    alpha = (n - 1) / 2.0
    x, w = _gauss_gegenbauer(nnodes, alpha)
    # force exact reflection symmetry of the grid (the eigenvalues and the
    # Newton step of _gauss_gegenbauer give it only to roundoff, which would
    # leak odd modes into the even sector)
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    sin_t = np.sqrt(1.0 - x * x)
    theta = np.arccos(x)

    V = _gegenbauer_table(max_mode, alpha, x)
    Vx = np.zeros_like(V)
    Vxx = np.zeros_like(V)
    Vx[:, 1:] = 2.0 * alpha * _gegenbauer_table(max_mode - 1, alpha + 1.0, x)
    Vxx[:, 2:] = 4.0 * alpha * (alpha + 1.0) * _gegenbauer_table(max_mode - 2, alpha + 2.0, x)

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


zonal_basis.cache_info = _zonal_basis.cache_info
zonal_basis.cache_clear = _zonal_basis.cache_clear


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


def _even_modes(modes: np.ndarray, parity: str, tol: float):
    """The parity rule: parity is "even" or "any", and an even field's odd
    modes, refused above tol relative to its largest mode, are zeroed in
    place."""
    if parity not in ("even", "any"):
        raise ValueError(f"parity must be 'even' or 'any', got {parity!r}")
    if parity == "even":
        odd = np.abs(modes[1::2])
        scale = max(1.0, float(np.abs(modes).max()))
        if odd.size and odd.max() > tol * scale:
            raise ValueError("even-parity field has odd-mode content")
        modes[1::2] = 0.0


def field_from_modes(basis: ZonalBasis, modes, parity: str = "any") -> LatitudeField:
    """Field from mode coefficients; grids are synthesized spectrally."""
    m = np.array(modes, dtype=float)
    if m.shape != (basis.max_mode + 1,):
        raise ValueError(f"expected {basis.max_mode + 1} mode coefficients, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("mode coefficients must be finite")
    _even_modes(m, parity, tol=1e-10)
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
    # looser than field_from_modes: the projection carries quadrature rounding
    _even_modes(m, parity, tol=1e-8)
    dv = basis.dtheta @ m
    ddv = basis.ddtheta @ m
    _freeze(vals, m, dv, ddv)
    return LatitudeField(basis, m, parity, vals, dv, ddv)


def mode_field(basis: ZonalBasis, ell: int, sup_amplitude: float = 1.0) -> LatitudeField:
    """A single basis mode rescaled to the requested sup norm on the grid."""
    ell = check_integer("mode", ell)
    if not 0 <= ell <= basis.max_mode:
        raise ValueError(f"mode {ell} outside 0..{basis.max_mode}")
    modes = np.zeros(basis.max_mode + 1)
    modes[ell] = 1.0
    peak = float(np.abs(basis.values @ modes).max())
    modes[ell] = sup_amplitude / peak
    return field_from_modes(basis, modes, parity="even" if ell % 2 == 0 else "any")


def _constant_field(basis: ZonalBasis, value: float) -> LatitudeField:
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


def _reflect_field(field: LatitudeField) -> LatitudeField:
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


def _grid_parity(sf: SpaceForm, what: str) -> str:
    """The parity of the zonal fields sf admits (GRID_PARITY), refusing a
    quotient without a collocation grid for `what`."""
    if sf.quotient not in GRID_PARITY:
        raise ValueError(f"{what} needs a collocation grid; spherical quotients only")
    return GRID_PARITY[sf.quotient]


def _admissible(sf: SpaceForm, field: LatitudeField, what: str) -> LatitudeField:
    """field, refused as `what` where sf admits even fields only."""
    if GRID_PARITY.get(sf.quotient) == "even" and field.parity != "even":
        raise ValueError(f"projective quotients need an even-parity {what}")
    return field


def conformal_metric(base: SpaceForm, phi: LatitudeField) -> ConformalMetric:
    if phi.basis.n != base.n:
        raise ValueError("field dimension does not match the space form")
    return ConformalMetric(base=base, phi=_admissible(base, phi, "conformal factor"))


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
    metric g (the standard metric there) with the double-form product,
    subtracted from the base curvature operator (mu/2) g^2, read from the
    algebra's cached g^2 (invariants._metric_square, as in
    space_form_curvature), and the whole thing rescaled by e^{-2 phi} to
    land in the orthonormal frame of the conformal metric.
    """
    batch = vals.shape
    cot = x / sin_t
    t_rad = mu * (ddv - 0.5 * dv * dv)
    t_sph = mu * (cot * dv + 0.5 * dv * dv)
    T = np.zeros(batch + (n, n))
    T[..., 0, 0] = t_rad
    for i in range(1, n):
        T[..., i, i] = t_sph
    g = np.broadcast_to(standard_metric(n).coeffs, batch + (n, n))
    gT = product_coeffs(n, 1, 1, g, 1, 1, T)
    return np.exp(-2.0 * vals)[..., None, None] * ((mu / 2) * _metric_square(n) - gT)


def _curvature_stack(n, mu, x, sin_t, vals, dv, ddv, pipeline):
    """The (2,2) curvature operators of e^{2 phi} g_mu on the named pipeline,
    one (m, m) matrix per entry of the grids (one matrix for scalars)."""
    if pipeline == "warped":
        return _diagonal_curvature_stack(n, *_sectional_blocks(mu, x, sin_t, vals, dv, ddv))
    if pipeline == "conformal":
        return _conformal_curvature_stack(n, mu, x, sin_t, vals, dv, ddv)
    raise ValueError(f"unknown pipeline {pipeline!r}")


def _node_curvature(cm: ConformalMetric, node: int, pipeline: str) -> DoubleForm:
    """The curvature operator at one node; node is an integer that indexes
    the grids as numpy does, so a negative node counts from the last."""
    phi = cm.phi
    size = phi.basis.x.size
    node = check_integer("node", node)
    if not -size <= node < size:
        raise ValueError(f"node {node} outside {-size}..{size - 1}")
    grids = (phi.basis.x, phi.basis.sin_theta, phi.values, phi.dvalues, phi.ddvalues)
    stack = _curvature_stack(cm.base.n, cm.base.curvature, *(a[node] for a in grids), pipeline)
    return double_form(cm.base.n, 2, 2, stack)


def warped_curvature(cm: ConformalMetric, node: int) -> DoubleForm:
    """Pointwise (2,2) curvature operator via the warped-product pipeline."""
    return _node_curvature(cm, node, "warped")


def conformal_curvature(cm: ConformalMetric, node: int) -> DoubleForm:
    """Pointwise (2,2) curvature operator via the conformal transformation law."""
    return _node_curvature(cm, node, "conformal")


# Float64 entries one gather of a grid chunk may hold (1 MiB), unless one
# node alone needs more. The budget is sized to the cache, not to the forms
# work buffers (16 MB each): the k = 2 invariant's two diagonal-block gathers
# then fit a 2 MiB L2 together, and the buffers that the thread keeps after
# a grid evaluation hold one chunk instead of the whole batch. A dense
# (7, 2) batch of 18 fields x 48 nodes, the size of an RP^7 k = 2 solver
# Jacobian (which the solver now takes from the closed form), runs in 9
# chunks of up to 104 nodes; at a budget of 2^21 it would be one chunk,
# leaving 17 MB in the buffers.
_GATHER_BUDGET = 2**17


def _gather_entries(n, k, pipeline):
    """Entries of the largest per-node array one evaluation builds: the
    curvature stack, one of the arrays of the product of g and T on the
    conformal pipeline, or one of the invariant kernel's own arrays."""
    sizes = [num_indices(n, 2) ** 2, gauss_bonnet_gather_entries(n, k)]
    if pipeline == "conformal":
        sizes.append(product_gather_entries(n, 1, 1, 1, 1))
    return max(sizes)


def _chunk_nodes(n, k, pipeline):
    """Evaluations per chunk of _gb_values: as many as keep every gather
    within _GATHER_BUDGET entries, and at least one."""
    return max(1, _GATHER_BUDGET // _gather_entries(n, k, pipeline))


def _gb_chunk(n, mu, k, x, sin_t, vals, dv, ddv, pipeline):
    """One chunk of _gb_values: the pipeline's curvature stack and its invariant."""
    return gauss_bonnet_coeffs(n, k, _curvature_stack(n, mu, x, sin_t, vals, dv, ddv, pipeline))


def _gb_values(n, mu, k, basis: ZonalBasis, vals, dv, ddv, pipeline="warped"):
    """Pointwise order-2k invariant of e^{2 phi} g_mu on raw value arrays.

    vals/dv/ddv may carry leading batch dimensions in front of the node
    axis. Work runs in chunks sized so that no gather exceeds
    _GATHER_BUDGET entries (one node at least), well within the retained
    forms work buffers: every chunk's gathers reuse memory, and the memory
    a call holds is set by the chunk, not by the batch. Chunking does not
    change results: outputs are concatenated, never reduced across chunks.
    """
    batch = np.shape(vals)
    grid = np.stack([np.broadcast_to(a, batch).reshape(-1) for a in (basis.x, basis.sin_theta, vals, dv, ddv)])
    chunk = _chunk_nodes(n, k, pipeline)
    parts = [_gb_chunk(n, mu, k, *grid[:, s : s + chunk], pipeline) for s in range(0, grid.shape[1], chunk)]
    return np.concatenate(parts).reshape(batch)


def _two_block_values(n, mu, k, basis: ZonalBasis, vals, dv, ddv):
    """Pointwise order-2k invariant of e^{2 phi} g_mu by the two-block closed
    form k_sph^(k-1) (A k_sph + B k_rad), with the integers A and B of
    invariants._two_block_coefficients (Labbi, Trans. AMS 357 (2005)).

    vals/dv/ddv may carry leading batch dimensions in front of the node
    axis. O(nodes): no tables, chunks or work buffers, at every n.
    """
    k_rad, k_sph = _sectional_blocks(mu, basis.x, basis.sin_theta, vals, dv, ddv)
    A, B = _two_block_coefficients(n, k)
    return k_sph ** (k - 1) * (A * k_sph + B * k_rad)


def _two_block_partials(n, mu, k, basis: ZonalBasis, vals, dv, ddv):
    """Partial derivatives of _two_block_values in phi, phi' and phi'' at
    each node, as three arrays shaped like vals.

    Both blocks carry the factor scale = mu e^{-2 phi} and the invariant is
    homogeneous of degree k in them, so dS/dphi = -2k S. With cot = x /
    sin theta, phi' and phi'' enter through dk_rad/dphi' = -scale cot,
    dk_rad/dphi'' = -scale, dk_sph/dphi' = -2 scale (cot + phi') and
    dk_sph/dphi'' = 0, while dS/dk_rad = B k_sph^(k-1) and dS/dk_sph =
    k A k_sph^(k-1) + (k-1) B k_rad k_sph^(k-2).
    """
    k_rad, k_sph = _sectional_blocks(mu, basis.x, basis.sin_theta, vals, dv, ddv)
    A, B = _two_block_coefficients(n, k)
    lead = k_sph ** (k - 1)
    d_rad = B * lead
    d_sph = k * A * lead
    if k > 1:
        d_sph = d_sph + (k - 1) * B * k_rad * k_sph ** (k - 2)
    cot = basis.x / basis.sin_theta
    scale = mu * np.exp(-2.0 * vals)
    S = lead * (A * k_sph + B * k_rad)
    return -2.0 * k * S, -scale * (cot * d_rad + 2.0 * (cot + dv) * d_sph), -scale * d_rad


def gb_field(cm: ConformalMetric, k: int, pipeline: str = "warped") -> LatitudeField:
    """The order-2k invariant of the conformal metric as a latitude field.

    Values are the raw pointwise evaluations; mode coefficients are their
    projection onto the field's basis. The dense evaluator is an oracle,
    refused above forms.DENSE_DIM_LIMIT (check_dense_dim).
    """
    n = cm.base.n
    check_problem_order(n, k)
    check_dense_dim("dimension", n)
    phi = cm.phi
    vals = _gb_values(n, cm.base.curvature, k, phi.basis, phi.values, phi.dvalues, phi.ddvalues, pipeline)
    return field_from_values(phi.basis, vals, parity=phi.parity)


# ---------------------------------------------------------------------------
# Volume, Laplacian, spectrum
# ---------------------------------------------------------------------------


def _volume_from_values(sf: SpaceForm, basis: ZonalBasis, vals) -> np.ndarray | float:
    """Volume of e^{2 phi} g from raw phi values (batch-aware): the weights
    integrate over the latitude, |S^(n-1)| r^n over the orbit spheres."""
    integrand = np.exp(sf.n * np.asarray(vals, dtype=float))
    return _sphere_factor(sf.quotient, sf.n, sf.curvature, sf.n) * (integrand @ basis.weights)


def volume(cm: ConformalMetric) -> float:
    """Total volume of the conformal metric (spherical quotients only)."""
    _grid_parity(cm.base, "volume")
    return float(_volume_from_values(cm.base, cm.phi.basis, cm.phi.values))


def _laplace_eigenvalue(ell, sf: SpaceForm):
    """The Laplace eigenvalue l (l + n - 1) mu of zonal mode l (geometer
    sign, positive for mu > 0); ell may be an array of modes."""
    return ell * (ell + sf.n - 1) * sf.curvature


def laplacian(sf: SpaceForm, field: LatitudeField) -> LatitudeField:
    """Laplace-Beltrami operator of the background (geometer sign): mode l
    scales by _laplace_eigenvalue."""
    if field.basis.n != sf.n:
        raise ValueError("field dimension does not match the space form")
    eig = _laplace_eigenvalue(np.arange(field.basis.max_mode + 1, dtype=float), sf)
    return field_from_modes(field.basis, field.modes * eig, parity=field.parity)


def spectrum_gap_check(sf: SpaceForm) -> tuple[float | None, float, bool]:
    """First nonzero Laplace eigenvalue on the quotient's function sector
    (None on the synthetic hyperbolic quotient), the critical level n mu,
    and whether the gap clears it strictly."""
    critical = float(sf.n * sf.curvature)
    if sf.quotient not in GRID_PARITY:
        return None, critical, True  # Delta >= 0 > n mu there, whatever the spectrum
    ell = _admitted_modes(sf.quotient, 2)[1]  # lowest nonconstant mode the quotient admits
    lam1 = float(_laplace_eigenvalue(ell, sf))
    return lam1, critical, lam1 > critical
