"""Double-form algebra against the dense-tensor reference implementation."""

import itertools
import math
import threading

import numpy as np
import pytest

from gbyamabe import (
    algebra_property_suite,
    contract,
    double_form,
    inner,
    is_in_symmetry_class,
    product,
    standard_metric,
)
from gbyamabe import forms, invariants
from gbyamabe.forms import _random_form, contract_coeffs, product_coeffs
from gbyamabe.indexing import index_tuples, insertion_tables, rank_map, split_tables

from reference_forms import (
    dense_contract,
    dense_contract_metric,
    dense_inner,
    dense_product,
    dense_pullback,
    from_dense,
    to_dense,
)


def random_spd(n, rng):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def test_standard_metric_is_identity_bilinear():
    g = standard_metric(4)
    assert g.bidegree == (1, 1)
    assert np.array_equal(g.coeffs, np.eye(4))
    assert is_in_symmetry_class(g)


def test_product_against_dense_oracle():
    rng = np.random.default_rng(101)
    cases = [
        (3, (1, 1), (1, 1)),
        (4, (1, 1), (1, 1)),
        (4, (2, 2), (1, 1)),
        (5, (2, 2), (1, 1)),
        (4, (2, 1), (1, 2)),
        (5, (2, 2), (2, 2)),
        (5, (1, 2), (2, 1)),
        (6, (2, 2), (1, 1)),
    ]
    for n, (p, q), (r, s) in cases:
        for _ in range(4):
            a = _random_form(n, p, q, rng)
            b = _random_form(n, r, s, rng)
            got = product(a, b)
            expected = from_dense(
                n,
                p + r,
                q + s,
                dense_product(n, p, q, to_dense(n, p, q, a.coeffs), r, s, to_dense(n, r, s, b.coeffs)),
            )
            assert got.bidegree == (p + r, q + s)
            np.testing.assert_allclose(got.coeffs, expected, atol=1e-12)


# every bidegree signature (p, q) x (r, s) with p + r, q + s <= n whose dense
# product holds at most 4^7 entries: all of them for n = 3, all but total
# degree 8 at n = 4, up to total degree 6 at n = 5 and 5 at n = 6
_PRODUCT_SIGNATURES = {
    n: [
        (p, q, r, s)
        for p, q, r, s in itertools.product(range(n + 1), repeat=4)
        if p + r <= n and q + s <= n and n ** (p + q + r + s) <= 4**7
    ]
    for n in range(3, 7)
}


@pytest.mark.parametrize("n", sorted(_PRODUCT_SIGNATURES))
def test_product_coeffs_against_dense_oracle_on_every_signature(n):
    # batches broadcast against a factor without one, on either side
    rng = np.random.default_rng(n)
    for i, (p, q, r, s) in enumerate(_PRODUCT_SIGNATURES[n]):
        shapes = ((2,), ()) if i % 2 else ((), (2,))
        w1 = rng.standard_normal(shapes[0] + (math.comb(n, p), math.comb(n, q)))
        w2 = rng.standard_normal(shapes[1] + (math.comb(n, r), math.comb(n, s)))
        out = product_coeffs(n, p, q, w1, r, s, w2)
        assert out.shape == (2, math.comb(n, p + r), math.comb(n, q + s))
        b1, b2 = np.broadcast_to(w1, (2,) + w1.shape[-2:]), np.broadcast_to(w2, (2,) + w2.shape[-2:])
        for j in range(2):
            dense = dense_product(n, p, q, to_dense(n, p, q, b1[j]), r, s, to_dense(n, r, s, b2[j]))
            expected = from_dense(n, p + r, q + s, dense)
            atol = 1e-13 * max(1.0, np.abs(expected).max())
            np.testing.assert_allclose(out[j], expected, rtol=0, atol=atol, err_msg=str((p, q, r, s)))


def test_metric_square_has_value_two_on_plane_pairs():
    g = standard_metric(5)
    gg = product(g, g)
    diag = np.diag(gg.coeffs)
    np.testing.assert_allclose(diag, 2.0, atol=0)


def test_contract_identity_metric_against_dense_oracle():
    rng = np.random.default_rng(102)
    g4 = standard_metric(4)
    g5 = standard_metric(5)
    for n, g, p, q in [(4, g4, 2, 2), (4, g4, 1, 1), (5, g5, 2, 2), (5, g5, 3, 2), (5, g5, 2, 3)]:
        for _ in range(4):
            a = _random_form(n, p, q, rng)
            got = contract(g, a)
            expected = from_dense(n, p - 1, q - 1, dense_contract(p, q, to_dense(n, p, q, a.coeffs)))
            np.testing.assert_allclose(got.coeffs, expected, atol=1e-12)


# every bidegree (p, q), p != q too, whose dense tensor holds at most 1e6
# entries: all of them for n <= 4, p + q <= 8 at n = 5 and p + q <= 7 at n = 6
_CONTRACT_CASES = [
    (n, p, q) for n in range(1, 7) for p in range(1, n + 1) for q in range(1, n + 1) if n ** (p + q) <= 10**6
]


@pytest.mark.parametrize("n, p, q", _CONTRACT_CASES)
def test_contract_coeffs_against_dense_oracle(n, p, q):
    rng = np.random.default_rng([n, p, q])
    w = rng.standard_normal((math.comb(n, p), math.comb(n, q)))
    got = contract_coeffs(n, p, q, w)
    expected = from_dense(n, p - 1, q - 1, dense_contract(p, q, to_dense(n, p, q, w)))
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13 * max(1.0, np.abs(expected).max()))


def _loop_contract(n, p, q, w):
    # the contraction as a loop over the n directions, one fancy-indexed
    # signed accumulate each
    Rr, Sr = insertion_tables(n, p - 1)
    Rc, Sc = insertion_tables(n, q - 1)
    out = np.zeros(w.shape[:-2] + (Rr.shape[0], Rc.shape[0]))
    for i in range(n):
        out += np.outer(Sr[:, i], Sc[:, i]) * w[..., Rr[:, i][:, None], Rc[:, i][None, :]]
    return out


@pytest.mark.parametrize("n", range(2, 10))
def test_contract_coeffs_sums_like_the_direction_loop(n):
    # the same terms added in the same order, so bit for bit; only a
    # contraction down to one entry at n >= 8 is summed pairwise by numpy,
    # within n rounding errors of the summed sizes
    rng = np.random.default_rng(n)
    for p in range(1, n + 1):
        for q in range(1, n + 1):
            if math.comb(n, p) * math.comb(n, q) > 5000:
                continue
            w = rng.standard_normal((2, math.comb(n, p), math.comb(n, q)))
            w[0, ::2] = 0.0
            got, expected = contract_coeffs(n, p, q, w), _loop_contract(n, p, q, w)
            if p == q == 1 and n >= 8:
                bound = n * np.finfo(float).eps * np.abs(np.diagonal(w, axis1=1, axis2=2)).sum(axis=-1)
                assert np.all(np.abs(got - expected)[:, 0, 0] <= bound)
            else:
                assert np.array_equal(got, expected)
                assert np.array_equal(np.signbit(got), np.signbit(expected))


@pytest.mark.parametrize("n", [3, 5, 8, 9])
def test_batched_contractions_equal_single_calls_bitwise(n):
    rng = np.random.default_rng(n)
    for p, q in [(1, 1), (2, 2), (3, 2), (1, n), (n, n)]:
        w = rng.standard_normal((2, 3, math.comb(n, p), math.comb(n, q)))
        out = contract_coeffs(n, p, q, w)
        assert out.shape == (2, 3, math.comb(n, p - 1), math.comb(n, q - 1))
        for idx in np.ndindex(2, 3):
            assert np.array_equal(out[idx], contract_coeffs(n, p, q, w[idx]))


def test_contract_general_metric_against_dense_oracle():
    rng = np.random.default_rng(103)
    for n, p, q in [(4, 2, 2), (5, 2, 2), (5, 1, 1)]:
        for _ in range(4):
            G = random_spd(n, rng)
            g = double_form(n, 1, 1, G)
            a = _random_form(n, p, q, rng)
            got = contract(g, a)
            expected = from_dense(
                n, p - 1, q - 1, dense_contract_metric(p, q, to_dense(n, p, q, a.coeffs), G)
            )
            np.testing.assert_allclose(got.coeffs, expected, atol=1e-10)


def test_contract_metric_gives_dimension():
    for n in (3, 4, 5, 6):
        g = standard_metric(n)
        out = contract(g, g)
        assert out.bidegree == (0, 0)
        assert out.coeffs[0, 0] == pytest.approx(n, abs=1e-14)


def test_inner_against_dense_oracle():
    rng = np.random.default_rng(104)
    for n, p, q in [(4, 1, 1), (4, 2, 2), (5, 2, 2), (5, 2, 1)]:
        for _ in range(4):
            a = _random_form(n, p, q, rng)
            b = _random_form(n, p, q, rng)
            got = inner(a, b)
            expected = dense_inner(p, q, to_dense(n, p, q, a.coeffs), to_dense(n, p, q, b.coeffs))
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_adjointness_of_metric_multiplication_and_contraction():
    rng = np.random.default_rng(105)
    for n in (3, 4, 5):
        g = standard_metric(n)
        for p, q in [(1, 1), (2, 2), (2, 1)]:
            for _ in range(6):
                a = _random_form(n, p, q, rng)
                b = _random_form(n, p + 1, q + 1, rng)
                lhs = inner(product(g, a), b)
                rhs = inner(a, contract(g, b))
                assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


def test_product_associativity():
    rng = np.random.default_rng(106)
    for n in (4, 5):
        a = _random_form(n, 1, 1, rng)
        b = _random_form(n, 1, 1, rng)
        c = _random_form(n, 2, 1, rng)
        left = product(product(a, b), c)
        right = product(a, product(b, c))
        np.testing.assert_allclose(left.coeffs, right.coeffs, atol=1e-12)


def test_graded_commutativity_sign():
    rng = np.random.default_rng(107)
    n = 5
    for (p, q), (r, s) in [((1, 1), (1, 1)), ((2, 1), (1, 2)), ((1, 2), (1, 1)), ((2, 2), (1, 1))]:
        a = _random_form(n, p, q, rng)
        b = _random_form(n, r, s, rng)
        sign = (-1.0) ** (p * r + q * s)
        ab = product(a, b)
        ba = product(b, a)
        np.testing.assert_allclose(ab.coeffs, sign * ba.coeffs, atol=1e-12)


def test_contract_frame_independence():
    # two different g-orthonormal frames must give the same contraction
    rng = np.random.default_rng(108)
    n = 4
    G = random_spd(n, rng)
    g = double_form(n, 1, 1, G)
    E = np.linalg.inv(np.linalg.cholesky(G)).T
    # rotate: any orthogonal Q gives another valid frame
    raw = rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(raw)
    for _ in range(5):
        a = _random_form(n, 2, 2, rng)
        base = contract(g, a)
        rotated = contract(g, a, frame=E @ Q)
        np.testing.assert_allclose(rotated.coeffs, base.coeffs, atol=1e-10)


def test_to_frame_matches_the_dense_pullback():
    # the exterior powers of E are built as products of copies of E; the
    # reference contracts every slot of the dense tensor with E instead
    rng = np.random.default_rng(112)
    for n in range(1, 6):
        E = rng.standard_normal((n, n)) + n * np.eye(n)
        for p, q in itertools.product(range(n + 1), repeat=2):
            w = _random_form(n, p, q, rng).coeffs
            expected = dense_pullback(n, p, q, w, E)
            got = forms._to_frame(w, n, p, q, E)
            assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max(), (n, p, q)


def test_contract_rejects_non_orthonormal_frame():
    n = 4
    g = standard_metric(n)
    a = _random_form(n, 2, 2, np.random.default_rng(109))
    with pytest.raises(ValueError):
        contract(g, a, frame=2.0 * np.eye(n))


def test_symmetry_class_detection():
    rng = np.random.default_rng(111)
    n = 5
    raw = rng.standard_normal((10, 10))
    sym = double_form(n, 2, 2, (raw + raw.T) / 2)
    asym = double_form(n, 2, 2, raw + np.eye(10))
    assert is_in_symmetry_class(sym)
    if not np.allclose(raw, raw.T):
        assert not is_in_symmetry_class(asym)
    with pytest.raises(ValueError):
        is_in_symmetry_class(_random_form(n, 2, 1, rng))


def test_symmetry_rule_is_relative_and_shared():
    # tolerance 1e-12 times max(1, max |c|) = 4e-12, for both entry points:
    # the symmetry class and the metric rule of contract
    a = standard_metric(3)
    for gap, symmetric in [(3.9e-12, True), (4.1e-12, False)]:
        m = np.diag([4.0, 1.0, 1.0])
        m[0, 1] = gap
        g = double_form(3, 1, 1, m)
        assert is_in_symmetry_class(g) is symmetric
        if symmetric:
            assert contract(g, a).bidegree == (0, 0)
        else:
            with pytest.raises(ValueError, match="^metric is not symmetric$"):
                contract(g, a)
    with pytest.raises(ValueError, match="finite"):
        double_form(3, 1, 1, np.full((3, 3), np.inf))


def test_scalar_form_and_zero_degree_products():
    s = double_form(4, 0, 0, [[3.0]])
    g = standard_metric(4)
    out = product(s, g)
    np.testing.assert_allclose(out.coeffs, 3.0 * g.coeffs, atol=0)


def test_product_degree_overflow_raises():
    g = standard_metric(3)
    gg = product(g, g)
    with pytest.raises(ValueError):
        product(gg, gg)  # degree 4 > n = 3


def test_product_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        product(standard_metric(3), standard_metric(4))


def test_form_validation():
    with pytest.raises(ValueError):
        double_form(4, 1, 1, np.zeros((3, 4)))
    with pytest.raises(ValueError):
        double_form(4, 1, 1, np.full((4, 4), np.nan))
    with pytest.raises(ValueError, match="^metric is not symmetric$"):
        contract(double_form(2, 1, 1, [[1.0, 2.0], [2.1, 1.0]]), standard_metric(2))


def test_batched_kernels_match_single_evaluations():
    rng = np.random.default_rng(112)
    n = 5
    g = np.eye(n)
    batch = rng.standard_normal((7, 10, 10))
    batch = (batch + batch.transpose(0, 2, 1)) / 2
    prod = product_coeffs(n, 2, 2, batch, 1, 1, np.broadcast_to(g, (7, n, n)))
    ctr = contract_coeffs(n, 2, 2, batch)
    for i in range(7):
        form = double_form(n, 2, 2, batch[i])
        expected_prod = product(form, standard_metric(n)).coeffs
        expected_ctr = contract(standard_metric(n), form).coeffs
        np.testing.assert_allclose(prod[i], expected_prod, atol=1e-13)
        np.testing.assert_allclose(ctr[i], expected_ctr, atol=1e-13)


def _sign_matrix(n, p, r):
    # dense E[m, t]: the sign of split t in the row of the combination its two
    # parts make up, found from the ranks alone (not from the run layout)
    A, B, signs = split_tables(n, p, r)
    union = rank_map(n, p + r)
    owners = [union[tuple(sorted(index_tuples(n, p)[a] + index_tuples(n, r)[b]))] for a, b in zip(A, B)]
    E = np.zeros((len(union), A.size))
    E[owners, np.arange(A.size)] = signs
    return A, B, E


def _split_product(n, p, q, w1, r, s, w2):
    # the product as one fancy-indexed gather per factor and two matmuls
    # against dense sign matrices, with no work buffers
    A1, B1, E1 = _sign_matrix(n, p, r)
    A2, B2, E2 = _sign_matrix(n, q, s)
    W = w1[..., A1[:, None], A2[None, :]] * w2[..., B1[:, None], B2[None, :]]
    return E1 @ (W @ E2.T)


_BROADCAST_CASES = [
    (5, (2, 2, 2, 2), ((3, 4), (4,))),
    (6, (4, 4, 2, 2), ((4,), ())),
    (7, (2, 2, 1, 1), ((), (5,))),
    (8, (2, 2, 2, 2), ((3, 1), (1, 2))),
    (8, (6, 6, 2, 2), ((2,), (2,))),
]
# every other bidegree pair the package multiplies for n <= 8: the powers
# (2j,2j).(2,2), g.g and g.T, and R.h; plus one factor of degree (0,q)
_COVERED = {(n, degrees) for n, degrees, _ in _BROADCAST_CASES}
_BROADCAST_CASES += [
    (n, degrees, shapes)
    for n in range(3, 9)
    for degrees, shapes in [((1, 1, 1, 1), ((3,), ())), ((2, 2, 1, 1), ((2, 1), (3,)))]
    + [((2 * j, 2 * j, 2, 2), ((), (3,))) for j in range(1, n // 2)]
    if (n, degrees) not in _COVERED
]
_BROADCAST_CASES.append((5, (0, 2, 2, 1), ((2, 1), (3,))))


@pytest.mark.parametrize("n, degrees, shapes", _BROADCAST_CASES)
def test_product_coeffs_on_broadcast_batches(n, degrees, shapes):
    p, q, r, s = degrees
    rng = np.random.default_rng(n + p)
    w1 = rng.standard_normal(shapes[0] + (math.comb(n, p), math.comb(n, q)))
    w2 = rng.standard_normal(shapes[1] + (math.comb(n, r), math.comb(n, s)))
    out = product_coeffs(n, p, q, w1, r, s, w2)
    expected = _split_product(n, p, q, w1, r, s, w2)
    assert out.shape == expected.shape
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-13 * np.abs(expected).max())
    # each matrix's product is computed as if it were alone
    b1, b2 = np.broadcast_to(w1, out.shape[:-2] + w1.shape[-2:]), np.broadcast_to(w2, out.shape[:-2] + w2.shape[-2:])
    for idx in np.ndindex(out.shape[:-2]):
        assert np.array_equal(out[idx], product_coeffs(n, p, q, b1[idx], r, s, b2[idx]))


# (1,1) and (2,2) squares for every n up to 9, on non-symmetric stacks with
# no batch, one and two batch axes; (2,2) at n = 10 on a batch of one
_SQUARE_CASES = [
    (n, p, batch)
    for n in range(3, 10)
    for p in (1, 2)
    if 2 * p <= n
    for batch in [(), (3,), (2, 2)]
] + [(10, 2, (1,))]


def _square(n, p, q, w):
    # the same array twice: product_coeffs takes its square route
    return product_coeffs(n, p, q, w, p, q, w)


@pytest.mark.parametrize("n, p, batch", _SQUARE_CASES)
def test_square_coeffs_against_dense_signs(n, p, batch):
    # the square route against the dense-sign reference and against the
    # general route, which a copy of w takes
    rng = np.random.default_rng([n, p, len(batch)])
    w = rng.standard_normal(batch + (math.comb(n, p),) * 2)
    expected = _split_product(n, p, p, w, p, p, w)
    out = _square(n, p, p, w)
    assert out.shape == expected.shape
    atol = 1e-13 * np.abs(expected).max()
    np.testing.assert_allclose(out, expected, rtol=0, atol=atol)
    np.testing.assert_allclose(out, product_coeffs(n, p, p, w, p, p, w.copy()), rtol=0, atol=atol)
    # each matrix's square is computed as if it were alone
    for idx in np.ndindex(batch):
        assert np.array_equal(out[idx], _square(n, p, p, w[idx]))


def test_square_coeffs_on_mixed_bidegrees_and_broadcast_views():
    # p != q with p + q even, and a stride-0 batch view of one matrix
    rng = np.random.default_rng(9)
    for n, p, q in [(6, 1, 3), (6, 3, 1), (7, 3, 1), (8, 1, 3)]:
        w = rng.standard_normal((2, math.comb(n, p), math.comb(n, q)))
        expected = _split_product(n, p, q, w, p, q, w)
        np.testing.assert_allclose(_square(n, p, q, w), expected, rtol=0, atol=1e-13 * np.abs(expected).max())
    w = rng.standard_normal((21, 21))
    view = np.broadcast_to(w, (3, 21, 21))
    out = _square(7, 2, 2, view)
    assert all(np.array_equal(out[i], _square(7, 2, 2, w)) for i in range(3))


@pytest.mark.parametrize("p, q", [(0, 2), (1, 2), (2, 1)])
def test_square_coeffs_needs_even_total_degree_and_a_row_split(p, q):
    # the same array of odd total degree, or with no row split (p = 0),
    # takes the general route; at odd total degree w w cancels to rounding,
    # so the bound is relative to the largest sum of term sizes
    w = np.random.default_rng([p, q]).standard_normal((math.comb(5, p), math.comb(5, q)))
    out = _square(5, p, q, w)
    assert np.array_equal(out, product_coeffs(5, p, q, w, p, q, w.copy()))
    scale = math.comb(2 * p, p) * math.comb(2 * q, q) * np.abs(w).max() ** 2
    np.testing.assert_allclose(out, _split_product(5, p, q, w, p, q, w), rtol=0, atol=1e-13 * scale)


def _kernel_takes(monkeypatch, kernel):
    # the sizes of the arrays every np.take of the call returns, in order
    real_take = np.take
    sizes = []

    def recording(a, indices, *args, **kwargs):
        out = real_take(a, indices, *args, **kwargs)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(np, "take", recording)
    kernel()
    monkeypatch.setattr(np, "take", real_take)
    return sizes


def test_square_coeffs_gathers_half_the_rows_of_the_product(monkeypatch):
    # the takes are the row gathers U and V, then the column gather; the
    # square route's row stage contracts the first half of every run of row
    # splits (3 of 6 per 4-combination), and both routes read the row
    # stage's result alike
    w = np.random.default_rng(4).standard_normal((5, 21, 21))
    full = _kernel_takes(monkeypatch, lambda: product_coeffs(7, 2, 2, w, 2, 2, w.copy()))
    half = _kernel_takes(monkeypatch, lambda: _square(7, 2, 2, w))
    assert full == [5 * 35 * 6 * 21] * 2 + [5 * 35 * 6 * 35]
    assert half == [size // 2 for size in full[:2]] + full[2:]
    assert forms.product_gather_entries(7, 2, 2, 2, 2) == 35 * 21 * 21


def test_product_of_a_form_with_itself_takes_the_square_route(monkeypatch):
    a = double_form(7, 2, 2, np.random.default_rng(10).standard_normal((21, 21)))
    b = double_form(7, 2, 2, a.coeffs)  # equal, but a distinct array
    square = _kernel_takes(monkeypatch, lambda: product(a, a))
    general = _kernel_takes(monkeypatch, lambda: product(a, b))
    assert square == [size // 2 for size in general[:2]] + general[2:]
    np.testing.assert_allclose(product(a, a).coeffs, product(a, b).coeffs, rtol=0, atol=1e-13 * np.abs(a.coeffs).max() ** 2)


def test_product_and_square_plans_hand_take_writeable_contiguous_tables():
    # np.take copies a read-only or non-contiguous index array on every call
    for plan in (forms._product_plan(7, 2, 2, 2, 2), forms._square_plan(7, 2, 2)):
        rows_1, rows_2, cols, col_signs = plan
        for table in (rows_1, rows_2, cols):
            assert table.flags.writeable and table.flags.c_contiguous
        assert rows_1.shape[0] == rows_2.shape[0] == 35 and cols.shape == col_signs.shape == (6, 35)
        assert col_signs.flags.c_contiguous and not col_signs.flags.writeable
    assert not np.shares_memory(forms._product_plan(7, 2, 2, 2, 2)[1], split_tables(7, 2, 2)[1])
    assert forms._square_plan(7, 2, 2)[0].shape == (35, 3)


def test_product_coeffs_accepts_integer_coefficients():
    g = np.eye(4, dtype=int)
    assert np.array_equal(product_coeffs(4, 1, 1, g, 1, 1, g), product(standard_metric(4), standard_metric(4)).coeffs)


def test_work_arrays_are_per_thread_and_bounded(monkeypatch):
    # the retained buffers of invariants.gauss_bonnet_coeffs, the one kernel
    # that keeps any: the forms kernels allocate per call
    assert not hasattr(forms, "_work_array")
    mine = invariants._work_array(0, (3, 5))
    theirs = []
    worker = threading.Thread(target=lambda: theirs.append(invariants._work_array(0, (3, 5))))
    worker.start()
    worker.join()
    assert not np.shares_memory(mine, theirs[0])
    assert np.shares_memory(mine, invariants._work_array(0, (15,)))
    monkeypatch.setattr(invariants, "_GATHER_BUDGET", 10)
    assert not np.shares_memory(invariants._work_array(0, (3, 5)), mine)


def test_algebra_property_suite_smoke():
    # small dimensions, and the top of SUITE_DIMS
    for dims in ((3, 4, 5), (9, 10)):
        report = algebra_property_suite(cases=40, seed=3, dims=dims, tol=1e-12)
        assert set(report) >= {
            "adjointness",
            "associativity",
            "graded_commutativity",
            "frame_independence",
            "metric_trace",
            "symmetry_closure",
        }
        for name, entry in report.items():
            assert entry["passed"], f"{dims} {name}: max error {entry['max_error']:.3e}"
            assert entry["cases"] >= 40
    # tol = 0 asks for exact agreement, so it is a valid tolerance
    assert set(algebra_property_suite(cases=1, dims=(3,), tol=0.0)) == set(report)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"cases": 0},
        {"dims": ()},
        {"dims": (2,)},
        {"dims": (4.5,)},
        {"dims": (11,)},
        {"cases": 2.5},
        {"tol": float("nan")},
        {"tol": float("inf")},
        {"tol": -1e-12},
    ],
)
def test_algebra_property_suite_rejects_empty_or_unsupported_input(kwargs):
    with pytest.raises(ValueError):
        algebra_property_suite(**kwargs)


def test_algebra_property_suite_adjointness_survives_cancellation():
    # here <g.w, t> nearly cancels: the error relative to |<g.w, t>| was 1.25e-12
    report = algebra_property_suite(cases=2, seed=1864415716, dims=(5,), tol=1e-12)
    assert report["adjointness"]["passed"], report["adjointness"]


def test_frozen_coefficients_are_immutable():
    g = standard_metric(4)
    with pytest.raises(ValueError):
        g.coeffs[0, 0] = 2.0


def test_inner_orthonormality_of_monomials():
    # distinct increasing index pairs are orthonormal
    n = 4
    e1 = np.zeros((6, 6))
    e1[0, 1] = 1.0
    e2 = np.zeros((6, 6))
    e2[0, 2] = 1.0
    a = double_form(n, 2, 2, e1)
    b = double_form(n, 2, 2, e2)
    assert inner(a, a) == pytest.approx(1.0, abs=1e-15)
    assert inner(a, b) == pytest.approx(0.0, abs=1e-15)
