"""Gauss-Bonnet curvature invariants of (2,2) curvature operators.

Two independent evaluation routes are kept deliberately separate:

- the trace route: 2k contractions of a (2k,2k) form give (2k)! times its
  trace, so the invariant is tr(R^k), read off the diagonal blocks of the
  last of the k-1 double-form products without forming that product
  (polynomial cost, the production path). ricci_2k keeps the full chain of
  products and contractions, so tr ricci_2k = (2k)! gauss_bonnet compares
  two code paths; and
- the generalized-Kronecker-delta route: enumeration of index tuples with
  antisymmetrized signs, summing each orbit of 4^k k! equal terms once
  (factorial cost, the oracle path, guarded to n <= 7).

The proportionality constant between the raw Kronecker sum and the invariant
depends on product normalization conventions, so it is never hardcoded: it is
measured at runtime on random symmetric (2,2) tensors, checked for
cross-sample constancy, and cached per (n, k, samples, seed).

The order rule of the conformal problem, 2k < n (max_order,
check_problem_order), lives here too, as does the batched trace kernel
(gauss_bonnet_coeffs) that spaceform's grid evaluator shares with the dense
oracles.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .forms import (
    DoubleForm,
    contract,
    contract_coeffs,
    double_form,
    is_in_symmetry_class,
    product_coeffs,
    product_gather_entries,
    standard_metric,
)
from .indexing import index_tuples, num_indices, split_tables

__all__ = [
    "CalibrationError",
    "InvariantConstants",
    "invariant_constants",
    "base_coefficient",
    "max_order",
    "check_problem_order",
    "gauss_bonnet",
    "ricci_2k",
    "raw_kronecker_sum",
    "gauss_bonnet_kronecker",
    "calibrate_kronecker_constant",
    "calibration_info",
    "space_form_curvature",
    "space_form_invariant",
    "hypersurface_sigma_check",
    "random_curvature_like",
]

KRONECKER_DIM_LIMIT = 7


class CalibrationError(RuntimeError):
    """The measured Kronecker ratio was not constant across samples."""


@dataclass(frozen=True)
class InvariantConstants:
    """Closed-form constants attached to the order-2k invariant in dimension n.

    base_coefficient is (2k)!(n-3)!/(2^k (n-2k)!), ricci_coefficient is
    (2k)!(n-1)!/(2^k (n-2k)!), and kronecker_constant is the runtime-measured
    proportionality constant of the Kronecker-delta formula (None when not
    calibrated).
    """

    n: int
    k: int
    base_coefficient: float
    ricci_coefficient: float
    kronecker_constant: float | None = None


def _check_order(n: int, k: int):
    """The algebra's range: k copies of a (2,2) form fit in dimension n."""
    if n < 3:
        raise ValueError(f"dimension {n} too small")
    if k < 1 or 2 * k > n:
        raise ValueError(f"order k={k} out of range for dimension {n} (need 1 <= k <= n/2)")


def max_order(n: int) -> int:
    """Largest k with 2k < n."""
    return (n - 1) // 2


def check_problem_order(n: int, k: int):
    """The conformal problem's range, 1 <= k and 2k < n (stricter than the
    algebra's: at 2k = n the invariant is the Gauss-Bonnet integrand)."""
    if k < 1 or k > max_order(n):
        raise ValueError(f"order k={k} must satisfy 1 <= k and 2k < n (n={n})")


def base_coefficient(n: int, k: int) -> float:
    """(2k)!(n-3)!/(2^k (n-2k)!), the base coefficient of InvariantConstants
    and of the linearization constants."""
    return math.factorial(2 * k) * math.factorial(n - 3) / (2**k * math.factorial(n - 2 * k))


def invariant_constants(n: int, k: int, calibrate: bool = False, samples: int = 6, seed: int = 0) -> InvariantConstants:
    _check_order(n, k)
    ricci = math.factorial(2 * k) * math.factorial(n - 1) / (2**k * math.factorial(n - 2 * k))
    c_nk = None
    if calibrate:
        c_nk = calibrate_kronecker_constant(n, k, samples=samples, seed=seed)
    return InvariantConstants(
        n=n, k=k, base_coefficient=base_coefficient(n, k), ricci_coefficient=ricci, kronecker_constant=c_nk
    )


def _validate_curvature(R: DoubleForm):
    if R.bidegree != (2, 2):
        raise ValueError(f"curvature input must have bidegree (2,2), got {R.bidegree}")
    if not is_in_symmetry_class(R, tol=1e-8):
        raise ValueError("curvature input is not block-swap symmetric")


def _orthonormal_components(R: DoubleForm, g: DoubleForm) -> np.ndarray:
    """Components of R in a g-orthonormal frame (identity g: no copy)."""
    n = R.dim
    if np.array_equal(g.coeffs, np.eye(n)):
        return R.coeffs
    from .forms import _frame_for, _to_frame  # shared frame plumbing

    E = _frame_for(g.coeffs)
    return _to_frame(R.coeffs, n, 2, 2, E)


def _power_contract(n: int, k: int, w: np.ndarray, contractions: int) -> np.ndarray:
    """w^k under the double-form product, then `contractions` standard-metric
    contractions. w may carry leading batch dimensions."""
    out = w
    deg = 2
    for _ in range(k - 1):
        out = product_coeffs(n, deg, deg, out, 2, 2, w)
        deg += 2
    for _ in range(contractions):
        out = contract_coeffs(n, deg, deg, out)
        deg -= 1
    return out


@lru_cache(maxsize=None)
def _trace_blocks(n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signed diagonal blocks of the product w^(k-1) w, for k >= 2.

    For every 2k-combination M and every pair (a, b) of its C(2k, 2) splits
    into a (2k-2)-part A and a 2-part B, the flat position of P[A_a, A_b] in
    a C(n, 2k-2)^2 matrix, that of w[B_a, B_b] in a C(n, 2)^2 matrix, and
    the sign s_a s_b; the diagonal entry of w^k at M is then the signed sum
    of P[A_a, A_b] w[B_a, B_b] over its block. Read from split_tables,
    which lists each combination's splits contiguously with one nonzero
    sign per column of E.
    """
    A, B, E = split_tables(n, 2 * k - 2, 2)
    shape = (num_indices(n, 2 * k), math.comb(2 * k, 2))
    A, B, s = A.reshape(shape), B.reshape(shape), E.sum(axis=0).reshape(shape)
    rows_p, rows_w = num_indices(n, 2 * k - 2), num_indices(n, 2)
    flat_p = (A[:, :, None] * rows_p + A[:, None, :]).ravel()
    flat_w = (B[:, :, None] * rows_w + B[:, None, :]).ravel()
    signs = (s[:, :, None] * s[:, None, :]).ravel()
    for arr in (flat_p, flat_w, signs):
        arr.flags.writeable = False
    return flat_p, flat_w, signs


def gauss_bonnet_coeffs(n: int, k: int, w: np.ndarray) -> np.ndarray:
    """Order-2k invariant of a batch of orthonormal-frame (2,2) coefficient
    matrices shaped (..., C(n,2), C(n,2)); returns the batch shape.

    2k contractions of a (2k,2k) form give (2k)! times its trace, so the
    invariant is tr(w^k): the plain trace at k = 1, else the diagonal
    blocks of the last product P w with P = w^(k-1) (_trace_blocks), which
    is never formed in full.
    """
    if k == 1:
        return np.trace(w, axis1=-2, axis2=-1)
    flat_p, flat_w, signs = _trace_blocks(n, k)
    batch = w.shape[:-2]
    P = _power_contract(n, k - 1, w, 0).reshape(batch + (-1,))
    terms = np.take(P, flat_p, axis=-1) * np.take(w.reshape(batch + (-1,)), flat_w, axis=-1)
    # one dot product per matrix, so a matrix's value never depends on its batch
    return (terms[..., None, :] @ signs[:, None])[..., 0, 0]


def gauss_bonnet_gather_entries(n: int, k: int) -> int:
    """Entries of the largest array gauss_bonnet_coeffs gathers per matrix:
    one of the k - 2 products that build w^(k-1), or the diagonal-block
    terms of the last product (0 at k = 1, which gathers nothing)."""
    sizes = [product_gather_entries(n, 2 * j, 2 * j, 2, 2) for j in range(1, k - 1)]
    if k > 1:
        sizes.append(_trace_blocks(n, k)[0].size)
    return max(sizes, default=0)


def gauss_bonnet(R: DoubleForm, g: DoubleForm, k: int) -> float:
    """The order-2k Gauss-Bonnet curvature: the k-th power of R contracted
    down to a scalar 2k times and divided by (2k)!, which is its trace.

    At k=1 this is half the scalar curvature under this package's product
    and inner-product conventions.
    """
    _check_order(R.dim, k)
    _validate_curvature(R)
    return float(gauss_bonnet_coeffs(R.dim, k, _orthonormal_components(R, g)))


def ricci_2k(R: DoubleForm, g: DoubleForm, k: int) -> DoubleForm:
    """The order-2k Ricci form: contract the k-th power of R down to
    bidegree (1,1). Its metric trace equals (2k)! times gauss_bonnet."""
    _check_order(R.dim, k)
    _validate_curvature(R)
    n = R.dim
    identity = np.array_equal(g.coeffs, np.eye(n))
    out = _power_contract(n, k, _orthonormal_components(R, g), 2 * k - 1)
    if not identity:
        from .forms import _frame_for

        Einv = np.linalg.inv(_frame_for(g.coeffs))
        out = Einv.T @ out @ Einv
    return double_form(n, 1, 1, out)


# ---------------------------------------------------------------------------
# Kronecker-delta route
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _pair_orbits(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Orbit representatives of the position permutations of range(m), with
    their parities (+-1.0): sigma, the m!/2^(m/2) permutations whose pairs
    (2j, 2j+1) are increasing, in every pair order; tau, those whose pairs
    are also sorted by first entry, one per pair partition ((m-1)!!)."""
    perms = np.array(list(permutations(range(m))), dtype=np.intp)
    inversions = np.zeros(len(perms), dtype=np.int64)
    for a in range(m):
        for b in range(a + 1, m):
            inversions += perms[:, a] > perms[:, b]
    parity = np.where(inversions % 2 == 0, 1.0, -1.0)
    sigma = np.all(perms[:, 0::2] < perms[:, 1::2], axis=1)
    tau = sigma & np.all(np.diff(perms[:, 0::2], axis=1) > 0, axis=1)
    out = (perms[sigma], parity[sigma], perms[tau], parity[tau])
    for arr in out:
        arr.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _pair_rank_table(n: int) -> np.ndarray:
    table = np.zeros((n, n), dtype=np.intp)
    for r, (a, b) in enumerate(index_tuples(n, 2)):
        table[a, b] = r
        table[b, a] = r
    table.flags.writeable = False
    return table


def raw_kronecker_sum(R: DoubleForm, k: int) -> float:
    """Uncalibrated generalized-Kronecker-delta sum of order 2k.

    The sum runs over every ordered pair of 2k-tuples of distinct indices;
    the antisymmetrized identity tensor restricts it to tuples sharing the
    same index set, contributing the sign of the relative permutation. Each
    term is unchanged by reversing a pair of either tuple (both signs flip)
    and by permuting the k pairs of both tuples together, so every orbit of
    4^k k! terms is summed once: sigma over the tuples made of increasing
    pairs, tau over the pair partitions, all index sets in one gather.
    Guarded to n <= 7 (factorial growth).
    """
    _validate_curvature(R)
    n = R.dim
    if n > KRONECKER_DIM_LIMIT:
        raise ValueError(f"Kronecker enumeration is limited to n <= {KRONECKER_DIM_LIMIT}, got {n}")
    _check_order(n, k)
    rank2 = _pair_rank_table(n)
    combos = np.array(index_tuples(n, 2 * k), dtype=np.intp)
    sigma, sigma_sign, tau, tau_sign = _pair_orbits(2 * k)

    def pair_ranks(perms):
        elems = combos[:, perms]  # (combinations, permutations, 2k)
        return rank2[elems[..., 0::2], elems[..., 1::2]]

    rs, rt = pair_ranks(sigma), pair_ranks(tau)
    terms = R.coeffs[rs[:, :, None, :], rt[:, None, :, :]].prod(axis=-1)
    return float(4**k * math.factorial(k) * (sigma_sign @ terms.sum(axis=0) @ tau_sign))


def gauss_bonnet_kronecker(R: DoubleForm, k: int, c_nk: float) -> float:
    """Calibrated Kronecker-delta evaluation: c_nk times the raw sum.

    R must carry orthonormal-frame components (transform first if the metric
    is not the identity).
    """
    return c_nk * raw_kronecker_sum(R, k)


@dataclass(frozen=True)
class CalibrationResult:
    n: int
    k: int
    constant: float
    relative_spread: float
    samples: int


_calibration_cache: dict[tuple[int, int, int, int], CalibrationResult] = {}
_calibration_lock = threading.Lock()


def random_curvature_like(n: int, rng: np.random.Generator) -> DoubleForm:
    """Random element of the (2,2) symmetry class: a symmetrized dense
    coefficient matrix. No Bianchi-type identity is imposed."""
    m = num_indices(n, 2)
    raw = rng.standard_normal((m, m))
    return double_form(n, 2, 2, (raw + raw.T) / 2)


def _calibration_pass(n: int, k: int, samples: int, seed: int, tensors) -> CalibrationResult:
    g = standard_metric(n)
    if tensors is None:
        rng = np.random.default_rng([seed, n, k, samples])
        pool = (random_curvature_like(n, rng) for _ in range(10 * samples))
    else:
        pool = iter(tensors)
    ratios = []
    for R in pool:
        if len(ratios) == samples:
            break
        raw = raw_kronecker_sum(R, k)
        scale = max(1.0, float(np.abs(R.coeffs).max()) ** k)
        if abs(raw) < 1e-12 * scale:
            continue  # degenerate sample, skip
        ratios.append(gauss_bonnet(R, g, k) / raw)
    if len(ratios) < 2:
        raise CalibrationError(f"not enough non-degenerate samples for (n={n}, k={k})")
    mean = float(np.mean(ratios))
    spread = float((max(ratios) - min(ratios)) / abs(mean)) if mean != 0 else float("inf")
    if spread > 1e-10:
        raise CalibrationError(
            f"Kronecker ratio not constant for (n={n}, k={k}): relative spread {spread:.3e}"
        )
    return CalibrationResult(n=n, k=k, constant=mean, relative_spread=spread, samples=len(ratios))


def calibration_info(n: int, k: int, samples: int = 6, seed: int = 0) -> CalibrationResult:
    """Calibrated constant plus its cross-sample spread, cached per
    (n, k, samples, seed)."""
    if samples < 2:
        raise ValueError("calibration needs at least 2 samples")
    key = (n, k, samples, seed)
    with _calibration_lock:
        hit = _calibration_cache.get(key)
    if hit is not None:
        return hit
    result = _calibration_pass(n, k, samples, seed, None)
    with _calibration_lock:
        return _calibration_cache.setdefault(key, result)


def calibrate_kronecker_constant(n: int, k: int, samples: int = 6, seed: int = 0, tensors=None) -> float:
    """Measure the Kronecker proportionality constant on random inputs.

    The ratio gauss_bonnet / raw sum is taken over `samples`
    non-degenerate random symmetric tensors (near-zero raw sums are skipped)
    and must be constant to 1e-10 relative, else CalibrationError. Results
    are cached per (n, k, samples, seed); passing an explicit `tensors`
    iterable bypasses the cache (useful for tests).
    """
    if tensors is not None:
        if samples < 2:
            raise ValueError("calibration needs at least 2 samples")
        return _calibration_pass(n, k, samples, seed, tensors).constant
    return calibration_info(n, k, samples=samples, seed=seed).constant


# ---------------------------------------------------------------------------
# Model-geometry constructors and oracles
# ---------------------------------------------------------------------------


def space_form_curvature(n: int, mu: float) -> DoubleForm:
    """Curvature operator of constant sectional curvature mu: (mu/2) g^2."""
    g = standard_metric(n)
    sq = product_coeffs(n, 1, 1, g.coeffs, 1, 1, g.coeffs)
    return double_form(n, 2, 2, (mu / 2.0) * sq)


def space_form_invariant(n: int, k: int, mu: float) -> float:
    """Closed-form order-2k invariant of the curvature-mu space form:
    n! / ((n-2k)! 2^k) mu^k."""
    _check_order(n, k)
    return math.factorial(n) / (math.factorial(n - 2 * k) * 2**k) * float(mu) ** k


def hypersurface_sigma_check(n: int, r: float, k: int) -> tuple[float, float, float]:
    """Round hypersphere of radius r in (n+1)-space: returns the induced
    metric's order-2k invariant, the elementary symmetric polynomial of
    order 2k in the principal curvatures (all 1/r), and their ratio. The
    ratio depends only on (n, k)."""
    if r <= 0:
        raise ValueError("radius must be positive")
    _check_order(n, k)
    mu = 1.0 / r**2
    R = space_form_curvature(n, mu)
    s = gauss_bonnet(R, standard_metric(n), k)
    sigma = math.comb(n, 2 * k) / r ** (2 * k)
    return s, sigma, s / sigma
