"""Ranked multi-index tables for the dense double-form algebra.

Coefficients of a (p,q)-form over R^n are stored as a C(n,p) x C(n,q) matrix
indexed by strictly increasing multi-indices in lexicographic order. This
module owns the combinatorial plumbing: rank/unrank maps, the signed split
tables behind the wedge-type product and the insertion tables behind
contraction (frame changes are products: forms._to_frame). It is the one
owner of ranks and signs. Every sign is the parity of a permutation, and
permutation_signs alone computes one: split_tables signs the splits of one
combination with it and repeats those signs for every combination,
insertion_tables scatters split_tables(n, 1, p), and invariants._pair_orbits
signs the Kronecker route's orbit representatives with it. The other
modules read these tables instead of rebuilding them
(invariants._kronecker_plan, the cached gather plan of raw_kronecker_sum,
reads its pair ranks from insertion_tables(n, 1)).

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


def permutation_signs(perms) -> np.ndarray:
    """Sign (+-1.0) of each row of an array of permutations of range(m),
    shaped (count, m): the parity of its inversions."""
    perms = np.asarray(perms)
    m = perms.shape[-1]
    inversions = np.zeros(perms.shape[:-1], dtype=np.int64)
    for a in range(m):
        for b in range(a + 1, m):
            inversions += perms[..., a] > perms[..., b]
    return np.where(inversions % 2 == 0, 1.0, -1.0)


@lru_cache(maxsize=None)
def split_tables(n: int, p: int, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signed split data for multiplying a p-form by an r-form.

    For every (p+r)-combination M, enumerate the ways to split M into an
    increasing p-part A and r-part B. Returns (A, B, signs), flat arrays of
    length C(n, p+r) C(p+r, p): the ranks of the parts and the sign of each
    split (the parity of the shuffle restoring increasing order, which
    depends only on where A and B sit in M: permutation_signs of those
    positions, computed once and repeated for every M).

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
    # positions of the p-part and of the r-part in a sorted (p+r)-combination
    parts = list(combinations(range(p + r), p))
    rests = [tuple(i for i in range(p + r) if i not in part) for part in parts]
    rows_a = [rank_a[tuple(combo[i] for i in part)] for combo in big for part in parts]
    rows_b = [rank_b[tuple(combo[i] for i in rest)] for combo in big for rest in rests]
    shuffles = np.array([part + rest for part, rest in zip(parts, rests)], dtype=np.intp)
    signs = np.tile(permutation_signs(shuffles), len(big))
    out = (np.array(rows_a, dtype=np.intp), np.array(rows_b, dtype=np.intp), signs)
    for arr in out:
        arr.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def insertion_tables(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Insertion data for contraction: for each p-combination row and each
    direction i, the rank of sorted({i} union row) among (p+1)-combinations
    and the sign of putting i first. Sign is 0 when i already lies in row
    (the target rank is then a dummy 0).

    These are the splits of split_tables(n, 1, p), scattered: the split of
    combination M into {i} and row gives entry [row, i] the rank of M and
    the split's sign."""
    rows = num_indices(n, p)
    parts, rests, signs = split_tables(n, 1, p)
    R = np.zeros((rows, n), dtype=np.intp)
    S = np.zeros((rows, n))
    # split t of combination t // (p+1) puts direction parts[t] before the row rests[t]
    R[rests, parts] = np.arange(parts.size) // (p + 1)
    S[rests, parts] = signs
    R.flags.writeable = False
    S.flags.writeable = False
    return R, S
