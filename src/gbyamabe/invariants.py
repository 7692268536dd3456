"""Gauss-Bonnet curvature invariants of (2,2) curvature operators.

Two independent evaluation routes are kept deliberately separate:

- the trace route: 2k contractions of a (2k,2k) form give (2k)! times its
  trace, so the invariant is tr(R^k) = tr(R^a R^b) with a = ceil(k/2) and
  b = floor(k/2), read off the diagonal blocks of the product R^a R^b
  without forming it (polynomial cost, the production path; R^a is R^b or
  R^b R, where R^b comes from repeated squaring). ricci_2k forms the full
  power R^k by repeated squaring and contracts it 2k - 1 times in one
  gather, so tr ricci_2k = (2k)! gauss_bonnet still compares two code
  paths: the full power against diagonal blocks of a product. Both only
  ask forms.product_coeffs for products: it owns the choice of kernel, and
  takes every square (the same array twice) by its square route, half the
  terms of the product; gauss_bonnet multiplies nothing at k = 2.
  gauss_bonnet_gather_entries reports the largest array it builds to
  spaceform's chunk rule; and
- the generalized-Kronecker-delta route: enumeration of index tuples with
  antisymmetrized signs, summing each orbit of 4^k k! equal terms once
  (factorial cost, the oracle path, guarded to n <= 7). Every factor of
  every orbit term is read in one gather through a plan cached per (n, k)
  (_kronecker_plan), like the trace route's tables. The raw sum counts
  every term of tr(R^k) 4^k times (gauss_bonnet_kronecker says why), so
  the route divides by that closed-form constant and takes no scale from
  the trace route it checks.

Both oracles take their metric argument under the one metric rule of
forms (_metric_frame), the rule forms.contract applies too, and evaluate
in a g-orthonormal frame.

The order rules live here: the algebra's range 2k <= n (_check_order) and
the conformal problem's 2k < n (max_order, check_problem_order, which
spaceform, linearization and newton call); both take an order only as an
integer (_validate.check_integer). So does the batched trace kernel
(gauss_bonnet_coeffs) that spaceform's grid evaluator shares with the
dense oracles.

The package's one memory constant lives here too, _GATHER_BUDGET: no
array that the dense grid evaluator builds per chunk holds more than that
many float64 entries (1 MiB) unless one node alone needs more
(spaceform._chunk_nodes), and no retained buffer keeps more. The one
kernel that keeps buffers is gauss_bonnet_coeffs, for its two
diagonal-block gathers (_work_array): the solver's n = 5, k = 2 path
repeats them on the same chunk shapes every Newton step. Every other
kernel allocates per call.

The closed forms at the space form live here too: every constant
(space_form_invariant, invariant_constants, linearization.constants and
spaceform's two-block evaluator) derives from the two integers of
_two_block_coefficients.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from ._validate import check_integer, check_power
from .forms import (
    DoubleForm,
    _metric_frame,
    _signed_gather_sum,
    _signed_ranks,
    _to_frame,
    double_form,
    is_in_symmetry_class,
    product_coeffs,
    product_gather_entries,
    standard_metric,
)
from .indexing import index_tuples, insertion_tables, num_indices, split_tables

__all__ = [
    "InvariantConstants",
    "invariant_constants",
    "max_order",
    "gauss_bonnet",
    "ricci_2k",
    "raw_kronecker_sum",
    "gauss_bonnet_kronecker",
    "space_form_curvature",
    "space_form_invariant",
    "random_curvature_like",
]

KRONECKER_DIM_LIMIT = 7


@dataclass(frozen=True)
class InvariantConstants:
    """Closed-form constants attached to the order-2k invariant in dimension n.

    ricci_coefficient is (2k-1)! B = (2k)!(n-1)!/(2^k (n-2k)!) and
    base_coefficient is ricci_coefficient / ((n-1)(n-2)), with B from
    _two_block_coefficients.
    """

    n: int
    k: int
    base_coefficient: float
    ricci_coefficient: float


def _check_order(n: int, k: int):
    """The algebra's range: k copies of a (2,2) form fit in dimension n."""
    check_integer("order k", k)
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
    check_integer("order k", k)
    if k < 1 or k > max_order(n):
        raise ValueError(f"order k={k} must satisfy 1 <= k and 2k < n (n={n})")


@lru_cache(maxsize=None)
def _two_block_coefficients(n: int, k: int) -> tuple[int, int]:
    """The integers A = (2k)!/2^k C(n-1, 2k) and B = (2k)!/2^k C(n-1, 2k-1).

    A curvature operator that is diagonal, with a on the n - 1 planes
    through one axis and s on the other planes, has the order-2k invariant
    s^(k-1) (A s + B a): the invariant sums over the k! orderings of every
    perfect matching of every 2k-set of axes, and a matching holds at most
    one plane through the axis. Every closed-form constant at the space form
    derives from A and B.
    """
    lead = math.factorial(2 * k) // 2**k
    return lead * math.comb(n - 1, 2 * k), lead * math.comb(n - 1, 2 * k - 1)


def invariant_constants(n: int, k: int) -> InvariantConstants:
    _check_order(n, k)
    ricci = math.factorial(2 * k - 1) * _two_block_coefficients(n, k)[1]
    return InvariantConstants(n=n, k=k, base_coefficient=ricci / ((n - 1) * (n - 2)), ricci_coefficient=float(ricci))


def _validate_curvature(R: DoubleForm):
    if R.bidegree != (2, 2):
        raise ValueError(f"curvature input must have bidegree (2,2), got {R.bidegree}")
    if not is_in_symmetry_class(R, tol=1e-8):
        raise ValueError("curvature input is not block-swap symmetric")


def _orthonormal_components(R: DoubleForm, g: DoubleForm) -> tuple[np.ndarray, np.ndarray | None]:
    """Components of R in a g-orthonormal frame, and that frame
    (forms._metric_frame: None for the standard metric, where the components
    are R's own, not a copy)."""
    E = _metric_frame(g, R.dim)
    return (R.coeffs if E is None else _to_frame(R.coeffs, R.dim, 2, 2, E)), E


def _power_steps(j: int) -> list[tuple[int, bool]]:
    """The products that build w^j from w by repeated squaring, in order:
    (i, True) squares w^i, giving w^(2i); (i, False) multiplies w^i by w.
    So w^(2i) = (w^i)^2 and w^(2i+1) = w^(2i) w."""
    if j == 1:
        return []
    if j % 2:
        return _power_steps(j - 1) + [(j - 1, False)]
    return _power_steps(j // 2) + [(j // 2, True)]


def _power(n: int, j: int, w: np.ndarray) -> np.ndarray:
    """w^j under the double-form product (_power_steps); w may carry leading
    batch dimensions. A square passes the same array twice, so
    product_coeffs takes its square route."""
    out = w
    for i, square in _power_steps(j):
        r, factor = (2 * i, out) if square else (2, w)
        out = product_coeffs(n, 2 * i, 2 * i, out, r, r, factor)
    return out


@lru_cache(maxsize=None)
def _trace_blocks(n: int, a: int, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signed diagonal blocks of the product P Q of a (2a,2a) form P and a
    (2b,2b) form Q.

    For every 2(a+b)-combination M and every pair (i, j) of its
    C(2a+2b, 2a) splits into a 2a-part A and a 2b-part B, the flat position
    of P[A_i, A_j] in a C(n, 2a)^2 matrix, that of Q[B_i, B_j] in a
    C(n, 2b)^2 matrix, and the sign s_i s_j; the diagonal entry of P Q at M
    is then the signed sum of P[A_i, A_j] Q[B_i, B_j] over its block. Read
    from split_tables, which lists each combination's splits as one
    contiguous run.
    """
    shape = (num_indices(n, 2 * (a + b)), math.comb(2 * (a + b), 2 * a))
    A, B, s = (arr.reshape(shape) for arr in split_tables(n, 2 * a, 2 * b))
    rows_p, rows_q = num_indices(n, 2 * a), num_indices(n, 2 * b)
    flat_p = (A[:, :, None] * rows_p + A[:, None, :]).ravel()
    flat_q = (B[:, :, None] * rows_q + B[:, None, :]).ravel()
    signs = (s[:, :, None] * s[:, None, :]).ravel()
    signs.flags.writeable = False
    # the index tables are C-contiguous and left writeable: np.take copies
    # any other index array on every call
    return flat_p, flat_q, signs


# Float64 entries (1 MiB) that one array of a dense grid chunk, or one
# retained buffer, may hold. The k = 2 invariant's two diagonal-block
# gathers then fit a 2 MiB L2 together. At n = 5, k = 2 a chunk holds
# 728 nodes of 180 entries (131,040), so the solver's gathers are kept.
_GATHER_BUDGET = 2**17
_work = threading.local()


def _work_array(slot: int, shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialized float64 array of `shape` for gauss_bonnet_coeffs'
    diagonal-block gather `slot` (0 or 1).

    Up to _GATHER_BUDGET entries it is a view of a buffer this thread keeps
    for the slot and grows when a call needs more, so repeated calls fault
    in no fresh memory pages (for arrays over a few hundred kB the
    allocator returns freed memory to the system, or not, depending on the
    sizes freed earlier in the process); larger requests are allocated per
    call. The view is valid until the next request for the same slot on
    this thread, so it must never be returned.
    """
    size = math.prod(shape)
    if size > _GATHER_BUDGET:
        return np.empty(shape)
    buffers = getattr(_work, "buffers", None)
    if buffers is None:
        buffers = _work.buffers = {}
    buf = buffers.get(slot)
    if buf is None or buf.size < size:
        buf = buffers[slot] = np.empty(size)
    return buf[:size].reshape(shape)


def gauss_bonnet_coeffs(n: int, k: int, w: np.ndarray) -> np.ndarray:
    """Order-2k invariant of a batch of orthonormal-frame (2,2) coefficient
    matrices shaped (..., C(n,2), C(n,2)); returns the batch shape.

    2k contractions of a (2k,2k) form give (2k)! times its trace, so the
    invariant is tr(w^k): the plain trace at k = 1, else the diagonal
    blocks of the product P Q with Q = w^b and P = w^a, a = ceil(k/2) and
    b = floor(k/2) (_trace_blocks), which is never formed in full. Q comes
    from repeated squaring (_power) and P is Q itself or Q w, so the largest
    power built is w^a. Every w w (P at k = 3, Q at k = 4) passes w twice,
    so product_coeffs takes its square route.

    Both diagonal-block gathers go into retained buffers (_work_array) and
    are multiplied in place, so repeated calls on chunks within
    _GATHER_BUDGET fault in no fresh memory pages.
    """
    if k == 1:
        return np.trace(w, axis1=-2, axis2=-1)
    a, b = (k + 1) // 2, k // 2
    flat_p, flat_q, signs = _trace_blocks(n, a, b)
    w = np.asarray(w, dtype=float)
    batch = w.shape[:-2]
    Q = _power(n, b, w)
    P = Q if a == b else product_coeffs(n, 2 * b, 2 * b, Q, 2, 2, w)
    # mode="clip" writes straight into out (mode="raise" buffers it); the
    # ranks are in range by construction
    terms = np.take(P.reshape(batch + (-1,)), flat_p, axis=-1, out=_work_array(0, batch + flat_p.shape), mode="clip")
    q_terms = np.take(Q.reshape(batch + (-1,)), flat_q, axis=-1, out=_work_array(1, batch + flat_q.shape), mode="clip")
    np.multiply(terms, q_terms, out=terms)
    # one dot product per matrix, so a matrix's value never depends on its batch
    return (terms[..., None, :] @ signs[:, None])[..., 0, 0]


def gauss_bonnet_gather_entries(n: int, k: int) -> int:
    """Entries of the largest array gauss_bonnet_coeffs builds per matrix:
    one of the arrays of a product that builds Q = w^floor(k/2)
    (_power_steps) or P = Q w (forms.product_gather_entries, exact for the
    squares among them), or the C(n, 2k) C(2k, 2 ceil(k/2))^2
    diagonal-block terms of the last product (0 at k = 1, which gathers
    nothing)."""
    if k == 1:
        return 0
    a, b = (k + 1) // 2, k // 2
    steps = _power_steps(b) + ([(b, False)] if a > b else [])
    sizes = [
        product_gather_entries(n, 2 * i, 2 * i, *((2 * i, 2 * i) if square else (2, 2)))
        for i, square in steps
    ]
    return max(sizes + [_trace_blocks(n, a, b)[0].size])


def gauss_bonnet(R: DoubleForm, g: DoubleForm, k: int) -> float:
    """The order-2k Gauss-Bonnet curvature: the k-th power of R contracted
    down to a scalar 2k times and divided by (2k)!, which is its trace.

    At k=1 this is half the scalar curvature under this package's product
    and inner-product conventions.
    """
    _check_order(R.dim, k)
    _validate_curvature(R)
    return float(gauss_bonnet_coeffs(R.dim, k, _orthonormal_components(R, g)[0]))


@lru_cache(maxsize=None)
def _ricci_plan(n: int, k: int) -> np.ndarray:
    """Gather ranks of ricci_2k's contraction of a (2k,2k) form W down to
    bidegree (1,1), shaped (C(n,2k-1), n, n) (forms._signed_ranks).

    Entry [S, i, j] reads W[S+i, S+j] times the signs of inserting i and j
    into the (2k-1)-combination S (insertion_tables, the table
    forms._contract_plan reads with direction and row swapped), or the zero
    where S holds i or j. 2k-1 chained contractions count each S once per
    order of its elements, with the same sign, so they sum to (2k-1)! times
    the sum of the entries over S.
    """
    rows, signs = insertion_tables(n, 2 * k - 1)
    m = num_indices(n, 2 * k)
    flat = rows[:, :, None] * m + rows[:, None, :]
    sign = signs[:, :, None] * signs[:, None, :]
    return _signed_ranks(flat, sign, m * m)


def ricci_2k(R: DoubleForm, g: DoubleForm, k: int) -> DoubleForm:
    """The order-2k Ricci form: contract the k-th power of R down to
    bidegree (1,1). Its metric trace equals (2k)! times gauss_bonnet.

    The power comes from repeated squaring (_power) and its 2k-1
    contractions from one gather (_ricci_plan). That gather reads entries of
    the full power, where gauss_bonnet reads only diagonal blocks of a
    product it never forms, so the trace identity compares two code paths.
    """
    _check_order(R.dim, k)
    _validate_curvature(R)
    n = R.dim
    w, E = _orthonormal_components(R, g)
    out = math.factorial(2 * k - 1) * _signed_gather_sum(_ricci_plan(n, k), _power(n, k, w))
    if E is not None:
        out = _to_frame(out, n, 1, 1, np.linalg.inv(E))
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
def _kronecker_plan(n: int, k: int) -> np.ndarray:
    """Flat ranks into R's C(n,2)^2 coefficients of every factor of every
    orbit term of raw_kronecker_sum, shaped (k, C(n,2k), |sigma|, |tau|):
    entry [t, M, s, u] reads R at the pair t of sigma s against the pair t
    of tau u on the 2k-combination M (_pair_orbits), each pair ranked by
    insertion_tables(n, 1). Factor-major, so each factor is one contiguous
    slice. C-contiguous and left writeable: np.take copies any other index
    array on every call."""
    # entry [a, b]: the rank of the pair {a, b} (a dummy 0 where a == b)
    rank2 = insertion_tables(n, 1)[0]
    combos = np.array(index_tuples(n, 2 * k), dtype=np.intp)
    sigma, _, tau, _ = _pair_orbits(2 * k)

    def pair_ranks(perms):
        elems = combos[:, perms]  # (combinations, permutations, 2k)
        return np.moveaxis(rank2[elems[..., 0::2], elems[..., 1::2]], -1, 0)

    rs, rt = pair_ranks(sigma), pair_ranks(tau)
    return np.ascontiguousarray(rs[:, :, :, None] * num_indices(n, 2) + rt[:, :, None, :])


def raw_kronecker_sum(R: DoubleForm, k: int) -> float:
    """Raw generalized-Kronecker-delta sum of order 2k.

    The sum runs over every ordered pair of 2k-tuples of distinct indices;
    the antisymmetrized identity tensor restricts it to tuples sharing the
    same index set, contributing the sign of the relative permutation. Each
    term is unchanged by reversing a pair of either tuple (both signs flip)
    and by permuting the k pairs of both tuples together, so every orbit of
    4^k k! terms is summed once: sigma over the tuples made of increasing
    pairs, tau over the pair partitions, all index sets in one gather
    through the cached plan (_kronecker_plan), whose k factor slices are
    multiplied in place. Guarded to n <= 7 (factorial growth).
    """
    _validate_curvature(R)
    n = R.dim
    if n > KRONECKER_DIM_LIMIT:
        raise ValueError(f"Kronecker enumeration is limited to n <= {KRONECKER_DIM_LIMIT}, got {n}")
    _check_order(n, k)
    plan = _kronecker_plan(n, k)
    _, sigma_sign, _, tau_sign = _pair_orbits(2 * k)
    factors = np.take(R.coeffs, plan)
    terms = factors[0]
    for factor in factors[1:]:
        np.multiply(terms, factor, out=terms)
    return float(4**k * math.factorial(k) * (sigma_sign @ terms.sum(axis=0) @ tau_sign))


def gauss_bonnet_kronecker(R: DoubleForm, k: int) -> float:
    """The order-2k invariant by the Kronecker-delta route: the raw sum
    divided by 4^k.

    Each ordered 2k-tuple is a sequence of k ordered pairs. With the
    antisymmetric extension of R, both orders of each of the k pairs, on
    each of the two tuples, give the same term. So the raw sum counts every
    term of tr(R^k) = sum_M (R^k)[M, M] 2^k * 2^k = 4^k times.

    R must carry orthonormal-frame components (transform first if the metric
    is not the identity).
    """
    return raw_kronecker_sum(R, k) / 4**k


def random_curvature_like(n: int, rng: np.random.Generator) -> DoubleForm:
    """Random element of the (2,2) symmetry class: a symmetrized dense
    coefficient matrix. No Bianchi-type identity is imposed."""
    m = num_indices(n, 2)
    raw = rng.standard_normal((m, m))
    return double_form(n, 2, 2, (raw + raw.T) / 2)


# ---------------------------------------------------------------------------
# Model-geometry constructors and oracles
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _metric_square(n: int) -> np.ndarray:
    """The coefficients of g g for the standard metric of R^n (read-only)."""
    g = standard_metric(n).coeffs
    sq = product_coeffs(n, 1, 1, g, 1, 1, g)
    sq.flags.writeable = False
    return sq


def space_form_curvature(n: int, mu: float) -> DoubleForm:
    """Curvature operator of constant sectional curvature mu: (mu/2) g^2."""
    return double_form(n, 2, 2, (mu / 2.0) * _metric_square(n))


def space_form_invariant(n: int, k: int, mu: float) -> float:
    """Closed-form order-2k invariant of the curvature-mu space form:
    (A + B) mu^k = n! / ((n-2k)! 2^k) mu^k (_two_block_coefficients)."""
    _check_order(n, k)
    return check_power("curvature", mu, k, sum(_two_block_coefficients(n, k)))

