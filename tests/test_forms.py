"""Double-form algebra against the dense-tensor reference implementation."""

import math
import threading

import numpy as np
import pytest

try:
    import resource
except ImportError:  # not on every platform
    resource = None

from gbyamabe import (
    DoubleForm,
    algebra_property_suite,
    contract,
    double_form,
    inner,
    is_in_symmetry_class,
    metric_multiply,
    product,
    random_form,
    scalar_form,
    standard_metric,
    symmetric_bilinear,
)
from gbyamabe import forms
from gbyamabe.forms import contract_coeffs, product_coeffs
from gbyamabe.indexing import split_tables

from reference_forms import (
    dense_contract,
    dense_contract_metric,
    dense_inner,
    dense_product,
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
            a = random_form(n, p, q, rng)
            b = random_form(n, r, s, rng)
            got = product(a, b)
            expected = from_dense(
                n,
                p + r,
                q + s,
                dense_product(n, p, q, to_dense(n, p, q, a.coeffs), r, s, to_dense(n, r, s, b.coeffs)),
            )
            assert got.bidegree == (p + r, q + s)
            np.testing.assert_allclose(got.coeffs, expected, atol=1e-12)


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
            a = random_form(n, p, q, rng)
            got = contract(g, a)
            expected = from_dense(n, p - 1, q - 1, dense_contract(p, q, to_dense(n, p, q, a.coeffs)))
            np.testing.assert_allclose(got.coeffs, expected, atol=1e-12)


def test_contract_general_metric_against_dense_oracle():
    rng = np.random.default_rng(103)
    for n, p, q in [(4, 2, 2), (5, 2, 2), (5, 1, 1)]:
        for _ in range(4):
            G = random_spd(n, rng)
            g = symmetric_bilinear(G, positive_definite=True)
            a = random_form(n, p, q, rng)
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
            a = random_form(n, p, q, rng)
            b = random_form(n, p, q, rng)
            got = inner(a, b)
            expected = dense_inner(p, q, to_dense(n, p, q, a.coeffs), to_dense(n, p, q, b.coeffs))
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_adjointness_of_metric_multiplication_and_contraction():
    rng = np.random.default_rng(105)
    for n in (3, 4, 5):
        g = standard_metric(n)
        for p, q in [(1, 1), (2, 2), (2, 1)]:
            for _ in range(6):
                a = random_form(n, p, q, rng)
                b = random_form(n, p + 1, q + 1, rng)
                lhs = inner(metric_multiply(g, a), b)
                rhs = inner(a, contract(g, b))
                assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


def test_product_associativity():
    rng = np.random.default_rng(106)
    for n in (4, 5):
        a = random_form(n, 1, 1, rng)
        b = random_form(n, 1, 1, rng)
        c = random_form(n, 2, 1, rng)
        left = product(product(a, b), c)
        right = product(a, product(b, c))
        np.testing.assert_allclose(left.coeffs, right.coeffs, atol=1e-12)


def test_graded_commutativity_sign():
    rng = np.random.default_rng(107)
    n = 5
    for (p, q), (r, s) in [((1, 1), (1, 1)), ((2, 1), (1, 2)), ((1, 2), (1, 1)), ((2, 2), (1, 1))]:
        a = random_form(n, p, q, rng)
        b = random_form(n, r, s, rng)
        sign = (-1.0) ** (p * r + q * s)
        ab = product(a, b)
        ba = product(b, a)
        np.testing.assert_allclose(ab.coeffs, sign * ba.coeffs, atol=1e-12)


def test_contract_frame_independence():
    # two different g-orthonormal frames must give the same contraction
    rng = np.random.default_rng(108)
    n = 4
    G = random_spd(n, rng)
    g = symmetric_bilinear(G, positive_definite=True)
    E = np.linalg.inv(np.linalg.cholesky(G)).T
    # rotate: any orthogonal Q gives another valid frame
    raw = rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(raw)
    for _ in range(5):
        a = random_form(n, 2, 2, rng)
        base = contract(g, a)
        rotated = contract(g, a, frame=E @ Q)
        np.testing.assert_allclose(rotated.coeffs, base.coeffs, atol=1e-10)


def test_contract_rejects_non_orthonormal_frame():
    n = 4
    g = standard_metric(n)
    a = random_form(n, 2, 2, np.random.default_rng(109))
    with pytest.raises(ValueError):
        contract(g, a, frame=2.0 * np.eye(n))


def test_metric_multiply_matches_product_with_metric():
    rng = np.random.default_rng(110)
    g = standard_metric(5)
    a = random_form(5, 2, 2, rng)
    np.testing.assert_allclose(metric_multiply(g, a).coeffs, product(g, a).coeffs, atol=0)


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
        is_in_symmetry_class(random_form(n, 2, 1, rng))


def test_scalar_form_and_zero_degree_products():
    s = scalar_form(4, 3.0)
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
    with pytest.raises(ValueError):
        symmetric_bilinear(np.array([[1.0, 2.0], [2.1, 1.0]]))


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


def _split_product(n, p, q, w1, r, s, w2):
    # the product as one fancy-indexed gather per factor, with no work buffers
    A1, B1, E1 = split_tables(n, p, r)
    A2, B2, E2 = split_tables(n, q, s)
    W = w1[..., A1[:, None], A2[None, :]] * w2[..., B1[:, None], B2[None, :]]
    return E1 @ (W @ E2.T)


@pytest.mark.parametrize(
    "n, degrees, shapes",
    [
        (5, (2, 2, 2, 2), ((3, 4), (4,))),
        (6, (4, 4, 2, 2), ((4,), ())),
        (7, (2, 2, 1, 1), ((), (5,))),
        (8, (2, 2, 2, 2), ((3, 1), (1, 2))),
        (8, (6, 6, 2, 2), ((2,), (2,))),
    ],
)
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


def test_product_coeffs_accepts_integer_coefficients():
    g = np.eye(4, dtype=int)
    assert np.array_equal(product_coeffs(4, 1, 1, g, 1, 1, g), product(standard_metric(4), standard_metric(4)).coeffs)


def test_product_coeffs_reuses_its_work_buffers():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((4, 28, 28))
    first = product_coeffs(8, 2, 2, w, 2, 2, w)
    kept = first.copy()
    buffers = dict(forms._work.buffers)
    second = product_coeffs(8, 2, 2, w[::-1], 2, 2, w[::-1])
    assert all(forms._work.buffers[slot] is buf for slot, buf in buffers.items())
    assert not any(np.shares_memory(out, buf) for out in (first, second) for buf in buffers.values())
    assert np.array_equal(first, kept)
    assert np.array_equal(second, kept[::-1])


@pytest.mark.skipif(resource is None, reason="needs getrusage")
def test_repeated_products_fault_in_no_fresh_pages():
    # one n = 8 (2,2) x (2,2) product gathers two 420 x 420 arrays (1.4 MB
    # each); freshly allocated per call, ten calls would fault in thousands
    # of pages
    w = np.random.default_rng(6).standard_normal((28, 28))
    product_coeffs(8, 2, 2, w, 2, 2, w)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        product_coeffs(8, 2, 2, w, 2, 2, w)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 420 * 420 * 8 // 4096


def test_work_arrays_are_per_thread_and_bounded(monkeypatch):
    mine = forms._work_array(0, (3, 5))
    theirs = []
    worker = threading.Thread(target=lambda: theirs.append(forms._work_array(0, (3, 5))))
    worker.start()
    worker.join()
    assert not np.shares_memory(mine, theirs[0])
    assert np.shares_memory(mine, forms._work_array(0, (15,)))
    monkeypatch.setattr(forms, "_WORK_RETAIN", 10)
    assert not np.shares_memory(forms._work_array(0, (3, 5)), mine)


def test_algebra_property_suite_smoke():
    report = algebra_property_suite(cases=40, seed=3, dims=(3, 4, 5), tol=1e-12)
    assert set(report) >= {
        "adjointness",
        "associativity",
        "graded_commutativity",
        "frame_independence",
        "metric_trace",
        "symmetry_closure",
    }
    for name, entry in report.items():
        assert entry["passed"], f"{name}: max error {entry['max_error']:.3e}"
        assert entry["cases"] >= 40


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
