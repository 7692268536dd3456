"""Dense double forms: the pointwise bigraded algebra over R^n.

A double form of bidegree (p, q) is a multilinear form antisymmetric
separately in a block of p vectors and a block of q vectors. Coefficients on
strictly increasing multi-index pairs determine the form; they are stored as a
C(n,p) x C(n,q) matrix in lexicographic rank order. Metrics and symmetric
bilinear forms live in bidegree (1,1); curvature operators in (2,2), inside
the symmetry class of forms invariant under swapping the two blocks.

Conventions (fixed once, relied on everywhere):

- The product is the exterior product applied independently in each block,
  as a plain signed shuffle sum with no factorial weights. In particular
  product(g, g) has value 2 on every diagonal pair of coordinate 2-planes.
- The inner product makes the monomials on increasing multi-index pairs
  orthonormal, i.e. it is the Frobenius pairing of coefficient matrices.
  Under these two choices, multiplication by the metric and contraction are
  exact adjoints; the test suite checks this rather than assuming it.
- Every metric argument (contract here, gauss_bonnet and ricci_2k in
  invariants) obeys one rule, _metric_frame: a symmetric positive definite
  (1,1) form in the dimension of the other argument. The standard metric
  needs no frame: the rule recognizes the cached standard_metric instance
  by identity, and any other identity matrix by comparing entries. A
  non-identity metric goes through an explicit g-orthonormal frame E
  (Cholesky by default): transform in, work there, transform back. The
  result is frame independent and the tests exercise that too.
- A frame change is itself a product (_to_frame): on a (p, q) form it
  applies the p-th and q-th exterior powers of E, and the p-th power is the
  product of p copies of E as a (1,1) form divided by p! (_exterior_power).
  The product kernel is the package's one implementation of exterior
  powers.

The *_coeffs functions at the bottom operate on raw coefficient arrays with
arbitrary leading batch dimensions; the geometry modules use them to evaluate
whole grids of curvature tensors in single numpy calls. product_coeffs sums
the signed splits of indexing.split_tables in two stages, with no sign
matrix (_two_stage_sum): for each row combination, one batched matmul
(BLAS) sums its run of row splits for every pair of columns, and the
column splits then gather single entries of that result and sum them with
their signs in one einsum. It also owns the choice of kernel plan: the same
array passed as both factors, of even total degree with a row split, is a
square, whose terms pair up under swapping both splits, so its row stage
sums the first half of every run of row splits and its column signs are
doubled, through the same kernel body. Callers only ask for products.
contract_coeffs reads every signed term of the contraction in one gather
through a table cached per bidegree (_contract_plan, from
indexing.insertion_tables) and sums over the n directions in one reduction
(_signed_gather_sum, which invariants.ricci_2k shares). The cached plans
hold their index tables C-contiguous and writeable, so np.take reads them
without a copy. The kernels allocate their intermediates per call and
keep no buffers; spaceform bounds them by evaluating grids in chunks
under the package's one memory constant (invariants._GATHER_BUDGET), and
product_gather_entries reports a product's largest array to that rule.
DENSE_DIM_LIMIT bounds the dimension of the dense algebra's oracles, and
check_dense_dim is the one rule that applies it.
is_in_symmetry_class and the metric rule _metric_frame share one symmetry
rule (_is_symmetric).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._validate import check_count, check_tolerance
from .indexing import insertion_tables, num_indices, split_tables

__all__ = [
    "DoubleForm",
    "double_form",
    "standard_metric",
    "product",
    "contract",
    "inner",
    "is_in_symmetry_class",
    "algebra_property_suite",
]


@dataclass(frozen=True)
class DoubleForm:
    """A (p, q) double form over R^dim with dense ranked coefficients.

    Instances are immutable; the coefficient array is marked read-only.
    Use the module-level constructors instead of instantiating directly.
    """

    dim: int
    p: int
    q: int
    coeffs: np.ndarray

    @property
    def bidegree(self) -> tuple[int, int]:
        return (self.p, self.q)

    def __post_init__(self):
        expect = (num_indices(self.dim, self.p), num_indices(self.dim, self.q))
        if self.coeffs.shape != expect:
            raise ValueError(
                f"coefficient shape {self.coeffs.shape} does not match "
                f"bidegree {(self.p, self.q)} in dimension {self.dim}, "
                f"expected {expect}"
            )
        if not np.isfinite(self.coeffs).all():
            raise ValueError("coefficients must be finite")


def double_form(dim: int, p: int, q: int, coeffs) -> DoubleForm:
    """Build a DoubleForm from a coefficient matrix (copied, frozen)."""
    arr = np.array(coeffs, dtype=float)
    arr.flags.writeable = False
    return DoubleForm(dim, p, q, arr)


@lru_cache(maxsize=None)
def standard_metric(dim: int) -> DoubleForm:
    """The Euclidean metric as a (1,1) form: the identity matrix (one
    immutable instance per dimension)."""
    return double_form(dim, 1, 1, np.eye(dim))


def _is_symmetric(c: np.ndarray, tol: float) -> bool:
    """The one symmetry rule: the finite square matrix c equals its
    transpose up to tol times max(1, max |c|)."""
    scale = max(1.0, float(np.abs(c).max()))
    return bool(np.abs(c - c.T).max() <= tol * scale)


def _check_same_dim(a: DoubleForm, b: DoubleForm):
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def product(a: DoubleForm, b: DoubleForm) -> DoubleForm:
    """Double-form product: exterior multiplication in each block.

    Associative, and graded commutative with sign (-1)^(p*r + q*s) for
    bidegrees (p,q) and (r,s). Raises on dimension mismatch or when either
    total degree would exceed the dimension.
    """
    _check_same_dim(a, b)
    n = a.dim
    if a.p + b.p > n or a.q + b.q > n:
        raise ValueError(
            f"degree overflow: ({a.p}+{b.p}, {a.q}+{b.q}) exceeds dimension {n}"
        )
    out = product_coeffs(n, a.p, a.q, a.coeffs, b.p, b.q, b.coeffs)
    return double_form(n, a.p + b.p, a.q + b.q, out)


def _exterior_power(n: int, E: np.ndarray, p: int) -> np.ndarray:
    """The p-th exterior power of the n x n matrix E on ranked
    p-combinations: the product of p copies of E as a (1,1) form, divided by
    p! (its entry [K, I] is p! det E[K, I]). p = 0 gives [[1]]."""
    power = np.ones((1, 1)) if p == 0 else E
    for j in range(1, p):
        power = product_coeffs(n, j, j, power, 1, 1, E)
    return power / math.factorial(p)


def _to_frame(w: np.ndarray, n: int, p: int, q: int, E: np.ndarray) -> np.ndarray:
    """The coefficients of the (p,q) form w in the frame of E's columns:
    the exterior powers of E applied to each block."""
    return _exterior_power(n, E, p).T @ w @ _exterior_power(n, E, q)


def _metric_frame(g: DoubleForm, dim: int, frame: np.ndarray | None = None) -> np.ndarray | None:
    """The metric rule of every metric argument: g is a symmetric positive
    definite (1,1) form over R^dim.

    Returns None for the standard metric when no frame is given (the
    coordinate frame is orthonormal); otherwise a g-orthonormal frame E,
    the explicit `frame` or the Cholesky one, checked to satisfy
    E^T g E = I, whose exterior powers move forms into the frame and
    back (_to_frame). Raises ValueError naming the first rule g breaks.
    """
    if g.bidegree != (1, 1):
        raise ValueError("metric must have bidegree (1,1)")
    if g.dim != dim:
        raise ValueError(f"dimension mismatch: {g.dim} vs {dim}")
    standard = standard_metric(dim)
    G, eye = g.coeffs, standard.coeffs
    # most callers pass the cached instance, which identity recognizes
    # without comparing entries
    if frame is None and (g is standard or np.array_equal(G, eye)):
        return None
    if not _is_symmetric(G, 1e-12):
        raise ValueError("metric is not symmetric")
    if frame is None:
        try:
            frame = np.linalg.inv(np.linalg.cholesky(G)).T
        except np.linalg.LinAlgError as exc:
            raise ValueError("metric is not positive definite") from exc
    E = np.asarray(frame, dtype=float)
    if not np.allclose(E.T @ G @ E, eye, rtol=0, atol=1e-10):
        raise ValueError("frame columns are not g-orthonormal")
    return E


def contract(g: DoubleForm, a: DoubleForm, frame: np.ndarray | None = None) -> DoubleForm:
    """Contraction against the metric g: trace over one slot of each block.

    Equals sum_i a(e_i ^ ..., e_i ^ ...) over any g-orthonormal frame {e_i}.
    For the standard metric this is a direct table lookup; otherwise the
    coefficients are moved to a g-orthonormal frame E (Cholesky derived, or
    the explicit `frame` argument, whose columns must satisfy E^T g E = I)
    by the exterior powers of E, contracted there, and moved back by those
    of E^-1 (_to_frame). Requires bidegree at least (1,1).
    """
    n = a.dim
    E = _metric_frame(g, n, frame)
    if a.p < 1 or a.q < 1:
        raise ValueError(f"cannot contract bidegree {(a.p, a.q)}")
    if E is None:
        return double_form(n, a.p - 1, a.q - 1, contract_coeffs(n, a.p, a.q, a.coeffs))
    hat_c = contract_coeffs(n, a.p, a.q, _to_frame(a.coeffs, n, a.p, a.q, E))
    return double_form(n, a.p - 1, a.q - 1, _to_frame(hat_c, n, a.p - 1, a.q - 1, np.linalg.inv(E)))


def inner(a: DoubleForm, b: DoubleForm) -> float:
    """Inner product with orthonormal increasing-multi-index monomials."""
    _check_same_dim(a, b)
    if a.bidegree != b.bidegree:
        raise ValueError(f"bidegree mismatch: {a.bidegree} vs {b.bidegree}")
    return float(np.sum(a.coeffs * b.coeffs))


def is_in_symmetry_class(a: DoubleForm, tol: float = 1e-12) -> bool:
    """True when the (p,p) form is invariant under swapping its two blocks,
    i.e. the coefficient matrix is symmetric up to tol (relative)."""
    if a.p != a.q:
        raise ValueError(f"symmetry class needs square bidegree, got {(a.p, a.q)}")
    return _is_symmetric(a.coeffs, tol)


def _random_form(n: int, p: int, q: int, rng: np.random.Generator) -> DoubleForm:
    """Random dense form with standard normal ranked coefficients."""
    return double_form(n, p, q, rng.standard_normal((num_indices(n, p), num_indices(n, q))))


# ---------------------------------------------------------------------------
# Raw-coefficient kernels. These accept arrays with arbitrary leading batch
# dimensions in front of the (rows, cols) coefficient axes, which is what the
# grid evaluators in the geometry modules feed them.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _product_plan(n, p, q, r, s):
    """Index tables of product_coeffs for one bidegree signature.

    Returns the row ranks into w1 stacked over -w1 (_signed_ranks: a
    negative split takes its row from the second half) and the row ranks
    into w2, shaped (C(n,p+r), C(p+r,p)): one run of row splits per
    (p+r)-combination; then the flat column ranks A2 C(n,s) + B2 into the
    row stage's C(n,q) x C(n,s) matrices and the column signs, shaped
    (C(q+s,q), C(n,q+s)): ordered split by split.
    """
    A1, B1, s1 = split_tables(n, p, r)
    A2, B2, s2 = split_tables(n, q, s)
    c1, c2 = math.comb(p + r, p), math.comb(q + s, q)
    runs, splits = (A1.size // c1, c1), (A2.size // c2, c2)
    rows_1 = _signed_ranks(A1, s1, num_indices(n, p)).reshape(runs)
    rows_2 = B1.reshape(runs).copy()
    cols = (A2 * num_indices(n, s) + B2).reshape(splits).T.copy()
    col_signs = s2.reshape(splits).T.copy()
    col_signs.flags.writeable = False
    # the index tables are C-contiguous copies, left writeable: np.take
    # copies any other index array on every call
    return rows_1, rows_2, cols, col_signs


@lru_cache(maxsize=None)
def _square_plan(n, p, q):
    """Index tables of product_coeffs' square route: those of
    _product_plan(n, p, q, p, q) with each run of row splits cut to its
    first half, and the column signs doubled (exact)."""
    rows_1, rows_2, cols, col_signs = _product_plan(n, p, q, p, q)
    half = rows_1.shape[1] // 2
    col_signs = 2.0 * col_signs
    col_signs.flags.writeable = False
    return rows_1[:, :half].copy(), rows_2[:, :half].copy(), cols, col_signs


def _two_stage_sum(plan, w1, w2) -> np.ndarray:
    """The product kernel on the tables of a plan, in two stages.

    Row stage: for each (p+r)-combination M, the signed rows U of w1 and the
    rows V of w2 of its row splits, shaped (..., C(n,p+r), c1, C(n,q)) and
    (..., C(n,p+r), c1, C(n,s)), are contracted over the c1 splits in one
    batched matmul: Y[M] = U[M]^T V[M], a C(n,q) x C(n,s) matrix. Column
    stage: Y's entries at the flat column ranks of every column split,
    gathered split by split, are summed with the column signs in one
    einsum."""
    rows_1, rows_2, cols, col_signs = plan
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    U = np.take(np.concatenate([w1, -w1], axis=-2), rows_1, axis=-2)
    V = np.take(w2, rows_2, axis=-2)
    Y = np.matmul(np.swapaxes(U, -1, -2), V)
    terms = np.take(Y.reshape(Y.shape[:-2] + (-1,)), cols, axis=-1)
    return np.einsum("...mcn,cn->...mn", terms, col_signs)


def product_coeffs(n, p, q, w1, r, s, w2) -> np.ndarray:
    """Coefficients of the product of a (p,q) and an (r,s) form.

    w1, w2: arrays shaped (..., C(n,p), C(n,q)) and (..., C(n,r), C(n,s));
    batch dimensions broadcast. Returns (..., C(n,p+r), C(n,q+s)).

    Entry (M, N) sums w1[A1, A2] w2[B1, B2], times the signs of both
    splits, over the row splits (A1, B1) of M and the column splits
    (A2, B2) of N (split_tables). The row splits go first: the row signs
    pick rows of w1 or of -w1, and one batched matmul sums each run of
    C(p+r,p) row splits, for every pair of columns at once. The column
    splits then read single entries of that result, and one einsum sums
    each run of C(q+s,q) of them with the column signs (_two_stage_sum).

    The same array passed as both factors (w1 is w2), of a bidegree with
    p >= 1 and p + q even, is a square, and takes half the terms
    (_square_plan). Swapping both splits of a term of entry (M, N), (A, B)
    to (B, A) in the rows and (A', B') to (B', A') in the columns, maps
    the terms one to one and changes each sign by (-1)^(p+q) = +1 (double
    forms of even total degree commute), whether or not w1 is symmetric.
    In split_tables(n, p, p) split j of a run has the complement
    C(2p,p) - 1 - j, so the entry is twice the sum over the first half of
    each row run: the row stage contracts half the row splits, and the
    column signs are doubled. A square agrees with the product of two
    distinct equal arrays to rounding, not bit for bit.
    """
    if w1 is w2 and (p, q) == (r, s) and p >= 1 and (p + q) % 2 == 0:
        return _two_stage_sum(_square_plan(n, p, q), w1, w1)
    return _two_stage_sum(_product_plan(n, p, q, r, s), w1, w2)


def product_gather_entries(n, p, q, r, s) -> int:
    """Entries of the largest array product_coeffs builds per product: the
    signed copy of w1, the row gathers U and V, the row stage's result Y or
    the column gather (_two_stage_sum). For a square (the same array twice,
    see product_coeffs) it is an upper bound, as that route's row gathers
    hold half the row splits; for a (p,p) square it is exact, since there
    the row gathers are no larger than Y (C(2p,p) <= C(n,p))."""
    rows, _, cols, _ = _product_plan(n, p, q, r, s)
    q_size, s_size = num_indices(n, q), num_indices(n, s)
    combos = rows.shape[0]
    return max(2 * num_indices(n, p) * q_size, rows.size * max(q_size, s_size), combos * q_size * s_size, combos * cols.size)


def _signed_ranks(flat: np.ndarray, sign: np.ndarray, size: int) -> np.ndarray:
    """Gather ranks of signed terms: each flat rank into a matrix of `size`
    entries read from the matrix where sign is +1, from its negation
    (followed after it) where sign is -1, and from one zero after both where
    sign is 0. The result is C-contiguous and left writeable: np.take copies
    any other index array on every call."""
    ranks = np.ascontiguousarray(np.where(sign < 0, flat + size, flat))
    ranks[sign == 0] = 2 * size
    return ranks


def _signed_gather_sum(ranks: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sum over the first axis of the terms that the _signed_ranks table
    `ranks` reads from w (..., rows, cols): one gather and one reduction."""
    w = np.asarray(w, dtype=float)
    batch = w.shape[:-2]
    flat = w.reshape(batch + (-1,))
    signed = np.concatenate([flat, -flat, np.zeros(batch + (1,))], axis=-1)
    terms = np.take(signed, ranks, axis=-1)
    # from +0.0, so that a sum of signed zeros is +0.0, never -0.0
    return np.add.reduce(terms, axis=-3, initial=0.0)


@lru_cache(maxsize=None)
def _contract_plan(n, p, q):
    """Gather ranks of contract_coeffs for one bidegree, shaped
    (n, C(n,p-1), C(n,q-1)).

    Entry [i, r, c] is the term direction i adds to entry (r, c) of the
    contraction (_signed_ranks): the zero stands in where i lies in row r or
    column c (insertion_tables).
    """
    Rr, Sr = insertion_tables(n, p - 1)
    Rc, Sc = insertion_tables(n, q - 1)
    flat = Rr.T[:, :, None] * num_indices(n, q) + Rc.T[:, None, :]
    sign = Sr.T[:, :, None] * Sc.T[:, None, :]
    return _signed_ranks(flat, sign, num_indices(n, p) * num_indices(n, q))


def contract_coeffs(n, p, q, w) -> np.ndarray:
    """Coefficients of the standard-metric contraction of a (p,q) form.

    w: array shaped (..., C(n,p), C(n,q)); returns the (p-1, q-1) batch.
    Entry (r, c) is the sum over directions i of w at the row and column
    with i inserted, times both insertion signs. One gather through
    _contract_plan reads every signed term, and one reduction over the
    direction axis sums them (_signed_gather_sum).
    """
    return _signed_gather_sum(_contract_plan(n, p, q), w)


# ---------------------------------------------------------------------------
# Randomized property suite (shared by the CLI verify-algebra command and the
# acceptance tests).
# ---------------------------------------------------------------------------


def _random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def _random_spd(n: int, rng: np.random.Generator) -> np.ndarray:
    A = rng.standard_normal((n, n))
    return A @ A.T + n * np.eye(n)


def _rel(err: float, scale: float) -> float:
    return err / max(scale, 1e-30)


# Largest dimension the dense algebra is run in. The largest array a product
# builds (product_gather_entries) is the row stage's result of a (4,4) by a
# (2,2) form, which the property suite and the order k >= 3 oracles make,
# or of a (4,4) square (order k >= 4): 1,984,500 entries at n = 10 (16 MB)
# for both, and for the square 18.0M at n = 11 (144 MB) and 121M at n = 12
# (970 MB).
DENSE_DIM_LIMIT = 10


def check_dense_dim(name: str, n: int):
    """The dense oracles' memory bound: refuse n above DENSE_DIM_LIMIT.
    Every entry point that evaluates the dense algebra on a caller's
    dimension (gb_field, fd_verify, gbyamabe invariants) checks it before
    any evaluation."""
    if n > DENSE_DIM_LIMIT:
        raise ValueError(f"{name} must be at most {DENSE_DIM_LIMIT} (the dense oracles' memory bound), got {n}")


# Dimensions the property suite samples: its symmetry check multiplies a
# (2,2) by a (1,1) form, so n >= 3.
SUITE_DIMS = range(3, DENSE_DIM_LIMIT + 1)


def algebra_property_suite(cases: int = 200, seed: int = 0, dims=(3, 4, 5, 6), tol: float = 1e-12) -> dict:
    """Randomized checks of the core algebra identities.

    Runs `cases` independent trials of each property over the given
    dimensions and returns, per property, the maximum relative error and a
    pass flag at `tol`. Properties: adjointness of metric multiplication and
    contraction, associativity, graded commutativity, frame independence of
    contraction, trace of the metric, and symmetry-class closure. Raises
    ValueError unless cases is an integer >= 1, every dimension is an
    integer in SUITE_DIMS and tol is finite and non-negative, so a report
    never passes with nothing checked.
    """
    check_count("cases", cases, 1)
    check_tolerance("tol", tol)
    dims = tuple(dims)
    bad = [d for d in dims if not isinstance(d, (int, np.integer)) or d not in SUITE_DIMS]
    if not dims or bad:
        raise ValueError(
            f"dims must be integers from {SUITE_DIMS.start} to {SUITE_DIMS.stop - 1}, got {list(dims)}"
        )
    rng = np.random.default_rng(seed)
    results: dict[str, dict] = {}

    def record(name, err):
        entry = results.setdefault(name, {"max_error": 0.0, "cases": 0})
        entry["max_error"] = max(entry["max_error"], float(err))
        entry["cases"] += 1

    for _ in range(cases):
        n = int(rng.choice(dims))
        g = standard_metric(n)

        # adjointness <g.w, t> = <w, c_g t>
        p = int(rng.integers(1, min(3, n - 1) + 1))
        q = int(rng.integers(1, min(3, n - 1) + 1))
        w = _random_form(n, p - 1, q - 1, rng)
        t = _random_form(n, p, q, rng)
        gw = product(g, w)
        ct = contract(g, t)
        # relative to the summed sizes of the terms, the rounding bound of an
        # inner product; |lhs| itself can cancel to near zero
        scale = max(np.abs(gw.coeffs * t.coeffs).sum(), np.abs(w.coeffs * ct.coeffs).sum())
        record("adjointness", _rel(abs(inner(gw, t) - inner(w, ct)), scale))

        # associativity and graded commutativity on degrees that fit
        degs = []
        budget_p, budget_q = n, n
        for _ in range(3):
            dp = int(rng.integers(0, min(2, budget_p) + 1))
            dq = int(rng.integers(0, min(2, budget_q) + 1))
            budget_p -= dp
            budget_q -= dq
            degs.append((dp, dq))
        a, b, c = (_random_form(n, dp, dq, rng) for dp, dq in degs)
        left = product(product(a, b), c)
        right = product(a, product(b, c))
        scale = max(np.abs(left.coeffs).max(), np.abs(right.coeffs).max())
        record("associativity", _rel(np.abs(left.coeffs - right.coeffs).max(), scale))

        ab = product(a, b)
        ba = product(b, a)
        sign = (-1.0) ** (degs[0][0] * degs[1][0] + degs[0][1] * degs[1][1])
        scale = max(np.abs(ab.coeffs).max(), 1e-30)
        record("graded_commutativity", _rel(np.abs(ab.coeffs - sign * ba.coeffs).max(), scale))

        # frame independence of contraction for a general metric
        G = double_form(n, 1, 1, _random_spd(n, rng))
        w22 = _random_form(n, 2, 2, rng)
        E0 = _metric_frame(G, n)
        E1 = E0 @ _random_orthogonal(n, rng)
        c_default = contract(G, w22)
        c_other = contract(G, w22, frame=E1)
        scale = max(np.abs(c_default.coeffs).max(), 1e-30)
        record("frame_independence", _rel(np.abs(c_default.coeffs - c_other.coeffs).max(), scale))

        # trace of the metric
        record("metric_trace", _rel(abs(float(contract(G, G).coeffs[0, 0]) - n), n))

        # closure of the symmetric classes under product and contraction
        m = num_indices(n, 2)
        raw = rng.standard_normal((m, m))
        R = double_form(n, 2, 2, (raw + raw.T) / 2)
        raw = rng.standard_normal((n, n))
        h = double_form(n, 1, 1, (raw + raw.T) / 2)
        prod_sym = is_in_symmetry_class(product(R, h), tol=tol)
        contr_sym = is_in_symmetry_class(contract(g, R), tol=tol)
        record("symmetry_closure", 0.0 if (prod_sym and contr_sym) else 1.0)

    for entry in results.values():
        entry["passed"] = entry["max_error"] <= tol
    return results
