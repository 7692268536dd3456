"""Ranked multi-index tables for the dense double-form algebra.

Coefficients of a (p,q)-form over R^n are stored as a C(n,p) x C(n,q) matrix
indexed by strictly increasing multi-indices in lexicographic order. This
module owns the combinatorial plumbing: rank/unrank maps, the signed split
tables behind the wedge-type product and the insertion tables behind
contraction (frame changes are products: forms._to_frame). It is the one
owner of ranks and signs: every sign of a split or an insertion comes from
merge_sign, and the other modules read these tables instead of rebuilding
them (invariants._kronecker_plan, the cached gather plan of
raw_kronecker_sum, reads its pair ranks from insertion_tables(n, 1)).

All tables are cached per (n, degree) signature. split_tables lists the
splits of each (p+r)-combination as one contiguous run, so a product sums
runs instead of multiplying by a sign matrix (forms.product_coeffs, which
alone picks between the general plan and a square's half of each run), and
the invariant's trace reads the diagonal blocks of a product from the same
runs; its three arrays hold C(n, p+r) C(p+r, p) entries each (1260 for the
(4,2) split at n = 9). insertion_tables holds C(n, p) n entries per array
and feeds three cached gather plans: forms.contract_coeffs expands a pair
of them into a table of n entries (one per direction) per coefficient of
one contraction, invariants.ricci_2k expands the table of degree 2k - 1,
with row and direction swapped, into a table of C(n, 2k - 1) entries (one
per (2k - 1)-set) per coefficient of 2k - 1 contractions at once, and
invariants.raw_kronecker_sum ranks by the table of degree 1 the k pairs
of every orbit term of every 2k-combination (28,350 entries at n = 7,
k = 3, the largest the Kronecker route admits). What
grows with n and k is the arrays the kernels gather through these tables,
which spaceform bounds per grid chunk (invariants._GATHER_BUDGET).
"""

from functools import lru_cache
from itertools import combinations

import numpy as np


@lru_cache(maxsize=None)
def index_tuples(n: int, p: int) -> tuple[tuple[int, ...], ...]:
    """All strictly increasing p-tuples from range(n), lexicographic."""
    if not 0 <= p <= n:
        raise ValueError(f"degree {p} out of range for dimension {n}")
    return tuple(combinations(range(n), p))


@lru_cache(maxsize=None)
def rank_map(n: int, p: int) -> dict[tuple[int, ...], int]:
    """Inverse of index_tuples: tuple -> position."""
    return {combo: r for r, combo in enumerate(index_tuples(n, p))}


def num_indices(n: int, p: int) -> int:
    return len(index_tuples(n, p))


def merge_sign(left: tuple[int, ...], right: tuple[int, ...]) -> float:
    """Sign of the permutation sorting the concatenation of two disjoint
    increasing tuples, or 0.0 if they intersect."""
    if set(left) & set(right):
        return 0.0
    swaps = 0
    for a in left:
        swaps += sum(1 for b in right if b < a)
    return -1.0 if swaps % 2 else 1.0


@lru_cache(maxsize=None)
def split_tables(n: int, p: int, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signed split data for multiplying a p-form by an r-form.

    For every (p+r)-combination M, enumerate the ways to split M into an
    increasing p-part A and r-part B. Returns (A, B, signs), flat arrays of
    length C(n, p+r) C(p+r, p): the ranks of the parts and the sign of each
    split (merge_sign(A, B), the parity of the shuffle restoring increasing
    order).

    Layout: the C(p+r, p) splits of combination m are the contiguous run
    m C(p+r, p), ..., (m+1) C(p+r, p) - 1, in the lexicographic order of
    their p-parts, with m in rank order. Reshaped to (C(n, p+r), C(p+r, p)),
    each array has one row per combination. The product of coefficient
    matrices w1 (p,*) and w2 (r,*) along the row factor is then the signed
    sum of w1[A] * w2[B] over each run; see forms.product_coeffs.
    """
    big = index_tuples(n, p + r)
    rank_a = rank_map(n, p)
    rank_b = rank_map(n, r)
    rows_a: list[int] = []
    rows_b: list[int] = []
    signs: list[float] = []
    for combo in big:
        for part in combinations(combo, p):
            rest = tuple(i for i in combo if i not in part)
            rows_a.append(rank_a[part])
            rows_b.append(rank_b[rest])
            signs.append(merge_sign(part, rest))
    out = (np.array(rows_a, dtype=np.intp), np.array(rows_b, dtype=np.intp), np.array(signs))
    for arr in out:
        arr.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def insertion_tables(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Insertion data for contraction: for each p-combination row and each
    direction i, the rank of sorted({i} union row) among (p+1)-combinations
    and the sign of putting i first. Sign is 0 when i already lies in row
    (the target rank is then a dummy 0)."""
    rows = index_tuples(n, p)
    rank_big = rank_map(n, p + 1)
    R = np.zeros((len(rows), n), dtype=np.intp)
    S = np.zeros((len(rows), n))
    for r, combo in enumerate(rows):
        for i in range(n):
            if i in combo:
                continue
            sign = merge_sign((i,), combo)
            R[r, i] = rank_big[tuple(sorted((i,) + combo))]
            S[r, i] = sign
    R.flags.writeable = False
    S.flags.writeable = False
    return R, S
