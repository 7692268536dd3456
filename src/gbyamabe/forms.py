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
- Contraction against a non-identity metric goes through an explicit
  g-orthonormal frame (Cholesky by default): transform in, insert, transform
  back. The result is frame independent and the tests exercise that too.

The *_coeffs functions at the bottom operate on raw coefficient arrays with
arbitrary leading batch dimensions; the geometry modules use them to evaluate
whole grids of curvature tensors in single numpy calls. product_coeffs
writes its large intermediates into buffers kept per thread (_work_array), so
that repeated calls fault in no fresh memory pages.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .indexing import (
    compound_matrix,
    index_tuples,
    insertion_tables,
    num_indices,
    split_tables,
)

__all__ = [
    "DoubleForm",
    "double_form",
    "scalar_form",
    "standard_metric",
    "symmetric_bilinear",
    "product",
    "metric_multiply",
    "contract",
    "inner",
    "is_in_symmetry_class",
    "random_form",
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
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("coefficients must be finite")


def double_form(dim: int, p: int, q: int, coeffs) -> DoubleForm:
    """Build a DoubleForm from a coefficient matrix (copied, frozen)."""
    arr = np.array(coeffs, dtype=float)
    arr.flags.writeable = False
    return DoubleForm(dim, p, q, arr)


def scalar_form(dim: int, value: float) -> DoubleForm:
    """The (0,0) form with the given value; the unit of the algebra is 1."""
    return double_form(dim, 0, 0, [[float(value)]])


def standard_metric(dim: int) -> DoubleForm:
    """The Euclidean metric as a (1,1) form: the identity matrix."""
    return double_form(dim, 1, 1, np.eye(dim))


def symmetric_bilinear(coeffs, positive_definite: bool = False) -> DoubleForm:
    """Validate an n x n symmetric matrix as a (1,1) form.

    With positive_definite=True the eigenvalues must all be positive, which
    is what metric arguments require.
    """
    arr = np.array(coeffs, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("symmetric bilinear form needs a square matrix")
    if not np.allclose(arr, arr.T, rtol=0, atol=1e-12 * max(1.0, np.abs(arr).max())):
        raise ValueError("matrix is not symmetric")
    if positive_definite and np.linalg.eigvalsh(arr).min() <= 0:
        raise ValueError("matrix is not positive definite")
    return double_form(arr.shape[0], 1, 1, arr)


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


def metric_multiply(g: DoubleForm, a: DoubleForm) -> DoubleForm:
    """Multiply by a (1,1) metric form; the adjoint of contraction."""
    if g.bidegree != (1, 1):
        raise ValueError("metric must have bidegree (1,1)")
    return product(g, a)


def _frame_for(g: np.ndarray) -> np.ndarray:
    """Columns of a g-orthonormal frame via Cholesky: E^T g E = I."""
    try:
        L = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise ValueError("metric is not positive definite") from exc
    return np.linalg.inv(L).T


def _to_frame(w: np.ndarray, n: int, p: int, q: int, E: np.ndarray) -> np.ndarray:
    return compound_matrix(E, p).T @ w @ compound_matrix(E, q)


def contract(g: DoubleForm, a: DoubleForm, frame: np.ndarray | None = None) -> DoubleForm:
    """Contraction against the metric g: trace over one slot of each block.

    Equals sum_i a(e_i ^ ..., e_i ^ ...) over any g-orthonormal frame {e_i}.
    For the standard metric this is a direct table lookup; otherwise the
    coefficients are moved to a g-orthonormal frame (Cholesky derived, or the
    explicit `frame` argument, whose columns must satisfy E^T g E = I),
    contracted there, and moved back. Requires bidegree at least (1,1).
    """
    if g.bidegree != (1, 1):
        raise ValueError("metric must have bidegree (1,1)")
    _check_same_dim(g, a)
    if a.p < 1 or a.q < 1:
        raise ValueError(f"cannot contract bidegree {(a.p, a.q)}")
    n = a.dim
    G = g.coeffs
    identity = frame is None and np.array_equal(G, np.eye(n))
    if identity:
        out = contract_coeffs(n, a.p, a.q, a.coeffs)
        return double_form(n, a.p - 1, a.q - 1, out)
    E = _frame_for(G) if frame is None else np.asarray(frame, dtype=float)
    gram = E.T @ G @ E
    if not np.allclose(gram, np.eye(n), rtol=0, atol=1e-10):
        raise ValueError("frame columns are not g-orthonormal")
    hat = _to_frame(a.coeffs, n, a.p, a.q, E)
    hat_c = contract_coeffs(n, a.p, a.q, hat)
    Einv = np.linalg.inv(E)
    out = compound_matrix(Einv, a.p - 1).T @ hat_c @ compound_matrix(Einv, a.q - 1)
    return double_form(n, a.p - 1, a.q - 1, out)


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
    scale = max(1.0, float(np.abs(a.coeffs).max()))
    return bool(np.allclose(a.coeffs, a.coeffs.T, rtol=0, atol=tol * scale))


def random_form(n: int, p: int, q: int, rng: np.random.Generator) -> DoubleForm:
    """Random dense form with standard normal ranked coefficients."""
    return double_form(n, p, q, rng.standard_normal((num_indices(n, p), num_indices(n, q))))


# ---------------------------------------------------------------------------
# Raw-coefficient kernels. These accept arrays with arbitrary leading batch
# dimensions in front of the (rows, cols) coefficient axes, which is what the
# grid evaluators in the geometry modules feed them.
# ---------------------------------------------------------------------------


# Entries above which _work_array allocates per call instead of keeping the
# buffer (16 MB): a rare huge call then leaves nothing behind, and in calls
# that large the page faults are a small share of the work.
_WORK_RETAIN = 2**21
_work = threading.local()


def _work_array(slot: int, shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialized float64 array of `shape` for a kernel intermediate.

    It is a view of a buffer this thread keeps for `slot` and grows when a
    call needs more, so the memory is reused by the next call instead of
    being returned to the system and faulted in again (for arrays over a
    few hundred kB that is what the allocator does, or not, depending on
    the sizes freed earlier in the process). The view is valid until the
    next request for the same slot on this thread: a kernel must never
    return one, and must not call another kernel that uses the slot while
    holding one.
    """
    size = math.prod(shape)
    if size > _WORK_RETAIN:
        return np.empty(shape)
    buffers = getattr(_work, "buffers", None)
    if buffers is None:
        buffers = _work.buffers = {}
    buf = buffers.get(slot)
    if buf is None or buf.size < size:
        buf = buffers[slot] = np.empty(size)
    return buf[:size].reshape(shape)


def _gather(a: np.ndarray, rows: np.ndarray, cols: np.ndarray, slot: int) -> np.ndarray:
    """a[..., rows[:, None], cols[None, :]] as float64 in C order, written
    into _work_array(slot) through a row gather in _work_array(3)."""
    a = np.asarray(a, dtype=float)
    shape = a.shape[:-2]
    # mode="clip" writes straight into out (mode="raise" buffers it); the
    # ranks are in range by construction
    picked = np.take(a, rows, axis=-2, out=_work_array(3, shape + (rows.size, a.shape[-1])), mode="clip")
    return np.take(picked, cols, axis=-1, out=_work_array(slot, shape + (rows.size, cols.size)), mode="clip")


def product_coeffs(n, p, q, w1, r, s, w2) -> np.ndarray:
    """Coefficients of the product of a (p,q) and an (r,s) form.

    w1, w2: arrays shaped (..., C(n,p), C(n,q)) and (..., C(n,r), C(n,s));
    batch dimensions broadcast. Returns (..., C(n,p+r), C(n,q+s)).
    """
    A1, B1, E1 = split_tables(n, p, r)
    A2, B2, E2 = split_tables(n, q, s)
    g1, g2 = _gather(w1, A1, A2, 0), _gather(w2, B1, B2, 1)
    batch = np.broadcast_shapes(g1.shape[:-2], g2.shape[:-2])
    W = g1 if g1.shape[:-2] == batch else g2 if g2.shape[:-2] == batch else None
    W = np.multiply(g1, g2, out=W)
    # two-step matmul keeps the contraction order sane (sum splits per factor)
    half = np.matmul(W, E2.T, out=_work_array(2, batch + (A1.size, E2.shape[0])))
    return np.matmul(E1, half)


def product_gather_entries(n, p, q, r, s) -> int:
    """Entries product_coeffs gathers per product: one per pair of a row
    split and a column split."""
    return split_tables(n, p, r)[0].size * split_tables(n, q, s)[0].size


def contract_coeffs(n, p, q, w) -> np.ndarray:
    """Coefficients of the standard-metric contraction of a (p,q) form.

    w: array shaped (..., C(n,p), C(n,q)); returns the (p-1, q-1) batch.
    """
    Rr, Sr = insertion_tables(n, p - 1)
    Rc, Sc = insertion_tables(n, q - 1)
    out = np.zeros(w.shape[:-2] + (Rr.shape[0], Rc.shape[0]))
    for i in range(n):
        coef = Sr[:, i][:, None] * Sc[:, i][None, :]
        out += coef * w[..., Rr[:, i][:, None], Rc[:, i][None, :]]
    return out


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


def algebra_property_suite(cases: int = 200, seed: int = 0, dims=(3, 4, 5, 6), tol: float = 1e-12) -> dict:
    """Randomized checks of the core algebra identities.

    Runs `cases` independent trials of each property over the given
    dimensions and returns, per property, the maximum relative error and a
    pass flag at `tol`. Properties: adjointness of metric multiplication and
    contraction, associativity, graded commutativity, frame independence of
    contraction, trace of the metric, and symmetry-class closure.
    """
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
        w = random_form(n, p - 1, q - 1, rng)
        t = random_form(n, p, q, rng)
        gw = metric_multiply(g, w)
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
        a, b, c = (random_form(n, dp, dq, rng) for dp, dq in degs)
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
        G = symmetric_bilinear(_random_spd(n, rng), positive_definite=True)
        w22 = random_form(n, 2, 2, rng)
        E0 = _frame_for(G.coeffs)
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
        h = symmetric_bilinear((lambda M: (M + M.T) / 2)(rng.standard_normal((n, n))))
        prod_sym = is_in_symmetry_class(product(R, h), tol=tol)
        contr_sym = is_in_symmetry_class(contract(g, R), tol=tol)
        record("symmetry_closure", 0.0 if (prod_sym and contr_sym) else 1.0)

    for entry in results.values():
        entry["passed"] = entry["max_error"] <= tol
    return results
