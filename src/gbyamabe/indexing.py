"""Ranked multi-index tables for the dense double-form algebra.

Coefficients of a (p,q)-form over R^n are stored as a C(n,p) x C(n,q) matrix
indexed by strictly increasing multi-indices in lexicographic order. This
module owns the combinatorial plumbing: rank/unrank maps, the signed split
tables behind the wedge-type product, the insertion tables behind contraction,
and compound (minor-determinant) matrices for frame changes.

All tables are cached per (n, degree) signature. The largest is the dense
sign matrix E of split_tables, C(n, p+r) rows by C(n, p+r) C(p+r, p)
columns: under 1 MB for every table the invariants and the solver build up
to n = 9 (84 by 1260 for the (4,2) split at n = 9). What grows with n and k
is the arrays the products gather through these tables, which spaceform
bounds by chunking.
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
    increasing p-part A and r-part B. Returns (A, B, E):

    - A, B: flat int arrays of length T with the ranks of the parts,
    - E: a (C(n,p+r), T) matrix with E[m, t] = sign of split t of combination
      m (the parity of the shuffle restoring increasing order) and 0 for
      splits belonging to other combinations.

    The product of coefficient matrices w1 (p,*) and w2 (r,*) along the row
    factor is then E @ (w1[A] * w2[B]) row-wise; see forms.product.
    """
    big = index_tuples(n, p + r)
    rank_a = rank_map(n, p)
    rank_b = rank_map(n, r)
    rows_a: list[int] = []
    rows_b: list[int] = []
    owners: list[int] = []
    signs: list[float] = []
    for m, combo in enumerate(big):
        for part in combinations(combo, p):
            rest = tuple(i for i in combo if i not in part)
            # parity of moving the chosen p elements to the front
            pos = [combo.index(i) for i in part]
            swaps = sum(pos[j] - j for j in range(p))
            rows_a.append(rank_a[part])
            rows_b.append(rank_b[rest])
            owners.append(m)
            signs.append(-1.0 if swaps % 2 else 1.0)
    A = np.array(rows_a, dtype=np.intp)
    B = np.array(rows_b, dtype=np.intp)
    E = np.zeros((len(big), len(A)))
    E[owners, np.arange(len(A))] = signs
    for arr in (A, B, E):
        arr.flags.writeable = False
    return A, B, E


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


def compound_matrix(mat: np.ndarray, p: int) -> np.ndarray:
    """p-th compound of an n x n matrix: entry [K, I] is det(mat[K, I]) over
    ranked p-combinations K (rows) and I (columns). compound(mat, 1) = mat."""
    n = mat.shape[0]
    tuples = index_tuples(n, p)
    if p == 0:
        return np.ones((1, 1))
    if p == 1:
        return mat.copy()
    out = np.empty((len(tuples), len(tuples)))
    for a, K in enumerate(tuples):
        sub = mat[np.ix_(K, range(n))]
        for b, I in enumerate(tuples):
            out[a, b] = np.linalg.det(sub[:, I])
    return out
