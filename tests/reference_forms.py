"""Independent reference implementations for the test suite.

Everything here works on dense numpy tensors with explicit permutation
loops, sharing no code with the package's ranked-multi-index machinery. Slow
but unambiguous; keep dimensions and degrees small.
"""

import math
from itertools import combinations, permutations

import numpy as np


def perm_sign(perm) -> int:
    inversions = 0
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            inversions += perm[a] > perm[b]
    return -1 if inversions % 2 else 1


def to_dense(n: int, p: int, q: int, coeffs: np.ndarray) -> np.ndarray:
    """Dense antisymmetric tensor from a ranked coefficient matrix."""
    dense = np.zeros((n,) * (p + q))
    for a, left in enumerate(combinations(range(n), p)):
        for b, right in enumerate(combinations(range(n), q)):
            w = coeffs[a, b]
            if w == 0.0:
                continue
            for sp in permutations(range(p)):
                for sq in permutations(range(q)):
                    idx = tuple(left[t] for t in sp) + tuple(right[t] for t in sq)
                    dense[idx] = perm_sign(sp) * perm_sign(sq) * w
    return dense


def from_dense(n: int, p: int, q: int, dense: np.ndarray) -> np.ndarray:
    """Ranked coefficient matrix read off a dense antisymmetric tensor."""
    coeffs = np.zeros((math.comb(n, p), math.comb(n, q)))
    for a, left in enumerate(combinations(range(n), p)):
        for b, right in enumerate(combinations(range(n), q)):
            coeffs[a, b] = dense[left + right]
    return coeffs


def _alt_block(tensor: np.ndarray, start: int, length: int) -> np.ndarray:
    """Signed sum over all permutations of `length` axes starting at `start`."""
    out = np.zeros_like(tensor)
    base = list(range(tensor.ndim))
    for perm in permutations(range(length)):
        axes = base.copy()
        for i, t in enumerate(perm):
            axes[start + i] = start + t
        out += perm_sign(perm) * np.transpose(tensor, axes)
    return out


def dense_product(n, p, q, A, r, s, B) -> np.ndarray:
    """Unweighted shuffle-sum product of dense double forms.

    Antisymmetrizing the raw tensor product over each block counts every
    shuffle p! r! (resp. q! s!) times, hence the division.
    """
    T = np.multiply.outer(A, B)
    order = (
        list(range(p))
        + list(range(p + q, p + q + r))
        + list(range(p, p + q))
        + list(range(p + q + r, p + q + r + s))
    )
    T = np.transpose(T, order)
    T = _alt_block(T, 0, p + r)
    T = _alt_block(T, p + r, q + s)
    return T / (math.factorial(p) * math.factorial(r) * math.factorial(q) * math.factorial(s))


def dense_contract(p: int, q: int, dense: np.ndarray) -> np.ndarray:
    """Orthonormal contraction: trace the first slot of each block."""
    return np.trace(dense, axis1=0, axis2=p)


def dense_contract_metric(p: int, q: int, dense: np.ndarray, g_matrix: np.ndarray) -> np.ndarray:
    """Metric contraction via the inverse-metric pairing of the first slots."""
    ginv = np.linalg.inv(g_matrix)
    return np.einsum(ginv, [0, 1], dense, [0] + list(range(2, p + 1)) + [1] + list(range(p + 1, p + q)))


def dense_pullback(n: int, p: int, q: int, coeffs: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Ranked coefficients of the (p,q) form pulled back by the n x n matrix
    A: every slot of the dense tensor contracted with A's rows, so the new
    form evaluated on e_i equals the old one on column i of A."""
    dense = to_dense(n, p, q, coeffs)
    for _ in range(p + q):
        # contracts the leading axis and appends the new one last, so the
        # axes are back in order after p + q steps
        dense = np.tensordot(dense, A, axes=(0, 0))
    return from_dense(n, p, q, dense)


def dense_inner(p: int, q: int, A: np.ndarray, B: np.ndarray) -> float:
    """Full-sum pairing normalized so increasing monomials are orthonormal."""
    return float((A * B).sum()) / (math.factorial(p) * math.factorial(q))


def classical_ricci(n: int, R_coeffs: np.ndarray) -> np.ndarray:
    """Single trace of a (2,2) form: Ric[a,b] = sum_i R(i,a;i,b)."""
    dense = to_dense(n, 2, 2, R_coeffs)
    return np.einsum("iaib->ab", dense)


def classical_scalar(n: int, R_coeffs: np.ndarray) -> float:
    """Double trace of a (2,2) form."""
    dense = to_dense(n, 2, 2, R_coeffs)
    return float(np.einsum("ijij->", dense))


def two_block_invariant(n: int, k: int, kappa_rad: float, kappa_sph: float) -> float:
    """Order-2k invariant of a two-block curvature operator.

    The operator has value kappa_rad on the n-1 planes through a preferred
    axis and kappa_sph on the rest. Counting how many of the 2k contraction
    slots hit the preferred axis gives a two-term closed form with the P
    recursion below accumulating the mixed-slot multiplicities.
    """
    A, B = kappa_sph, kappa_rad - kappa_sph
    P, Q = 0.0, 1.0
    for m in range(2 * k):
        P, Q = (
            P * (2 * k - m) * (n - 2 * k + m + 1) + Q,
            Q * (2 * k - m - 1) * (n - 2 * k + m),
        )
    return (A / 2.0) ** k * math.factorial(n) / math.factorial(n - 2 * k) + k * (
        A / 2.0
    ) ** (k - 1) * B * P / math.factorial(2 * k)


def brute_kronecker_sum(n: int, k: int, R_coeffs: np.ndarray) -> float:
    """Generalized-Kronecker-delta sum by direct tuple enumeration.

    Sums sign(sigma) * prod_t R(i_{2t}, i_{2t+1}; j_{2t}, j_{2t+1}) over all
    ordered 2k-tuples of distinct indices i and all reorderings j = sigma(i).
    Written against the dense tensor; factorial cost, keep n and k tiny.
    """
    m = 2 * k
    dense = to_dense(n, 2, 2, R_coeffs)
    total = 0.0
    for combo in combinations(range(n), m):
        for left in permutations(combo):
            for order in permutations(range(m)):
                right = tuple(left[t] for t in order)
                term = perm_sign(order)
                for t in range(k):
                    term *= dense[left[2 * t], left[2 * t + 1], right[2 * t], right[2 * t + 1]]
                total += term
    return total


def orbit_kronecker_sum(n: int, k: int, R_coeffs: np.ndarray) -> float:
    """The raw Kronecker sum over orbit representatives, by one broadcast
    fancy index per call on tables built here.

    sigma runs over the position permutations of range(2k) whose pairs
    (2t, 2t+1) are increasing, tau over those that also sort the pairs by
    first entry, both in the lexicographic order of itertools.permutations.
    Every index set M and every (sigma, tau) gives the term sign(sigma)
    sign(tau) prod_t R(pair t of sigma(M); pair t of tau(M)), read from the
    ranked coefficients, and the orbit sum is 4^k k! times their total.
    """
    m = 2 * k
    pair_rank = {pair: r for r, pair in enumerate(combinations(range(n), 2))}
    sigma = [p for p in permutations(range(m)) if all(p[2 * t] < p[2 * t + 1] for t in range(k))]
    tau = [p for p in sigma if all(p[2 * t] < p[2 * t + 2] for t in range(k - 1))]
    combos = list(combinations(range(n), m))

    def pair_ranks(perms):
        # (combinations, permutations, k)
        return np.array(
            [[[pair_rank[(combo[p[2 * t]], combo[p[2 * t + 1]])] for t in range(k)] for p in perms] for combo in combos],
            dtype=np.intp,
        )

    sigma_sign = np.array([float(perm_sign(p)) for p in sigma])
    tau_sign = np.array([float(perm_sign(p)) for p in tau])
    rs, rt = pair_ranks(sigma), pair_ranks(tau)
    terms = R_coeffs[rs[:, :, None, :], rt[:, None, :, :]].prod(axis=-1)
    return float(4**k * math.factorial(k) * (sigma_sign @ terms.sum(axis=0) @ tau_sign))
