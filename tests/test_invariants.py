"""Curvature invariants: closed forms, classical traces, Kronecker route."""

import math
import os
import re
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

try:
    import resource
except ImportError:  # not on every platform
    resource = None

from gbyamabe import (
    contract,
    gauss_bonnet,
    gauss_bonnet_kronecker,
    invariant_constants,
    random_curvature_like,
    raw_kronecker_sum,
    ricci_2k,
    space_form_curvature,
    space_form_invariant,
    standard_metric,
)
from gbyamabe import forms, invariants, spaceform
from gbyamabe.forms import (
    DENSE_DIM_LIMIT,
    _to_frame,
    contract_coeffs,
    double_form,
    product_coeffs,
    product_gather_entries,
)
from gbyamabe.indexing import split_tables
from gbyamabe.invariants import (
    _power,
    _power_steps,
    _trace_blocks,
    _two_block_coefficients,
    gauss_bonnet_coeffs,
    gauss_bonnet_gather_entries,
)

from reference_forms import (
    brute_kronecker_sum,
    classical_ricci,
    classical_scalar,
    dense_pullback,
    orbit_kronecker_sum,
    two_block_invariant,
)


def algebra_orders(max_n):
    """Every (n, k) of the algebra's range 1 <= k <= n/2, for 3 <= n <= max_n."""
    return [(n, k) for n in range(3, max_n + 1) for k in range(1, n // 2 + 1)]


def test_space_form_curvature_scales_one_cached_metric_square():
    # (mu/2) g g, bit for bit, from one read-only g g per dimension
    for n in (3, 5, 8):
        eye = np.eye(n)
        gg = product_coeffs(n, 1, 1, eye, 1, 1, eye.copy())
        for mu in (1.0, -0.7, 2.5):
            assert np.array_equal(space_form_curvature(n, mu).coeffs, (mu / 2.0) * gg)
    assert invariants._metric_square(6) is invariants._metric_square(6)
    assert not invariants._metric_square(6).flags.writeable


def test_space_form_closed_values():
    g = standard_metric(5)
    assert gauss_bonnet(space_form_curvature(5, 1.0), g, 2) == pytest.approx(30.0, rel=1e-14)
    assert gauss_bonnet(space_form_curvature(5, 1.0), g, 1) == pytest.approx(10.0, rel=1e-14)
    g7 = standard_metric(7)
    assert gauss_bonnet(space_form_curvature(7, -1.0), g7, 3) == pytest.approx(-630.0, rel=1e-14)
    assert gauss_bonnet(space_form_curvature(7, 1.0), g7, 3) == pytest.approx(630.0, rel=1e-14)


def test_space_form_invariant_formula():
    for n, k, mu in [(5, 2, 1.0), (6, 2, -2.0), (7, 3, 0.5), (8, 2, 1.0)]:
        expected = math.factorial(n) / (math.factorial(n - 2 * k) * 2**k) * mu**k
        assert space_form_invariant(n, k, mu) == pytest.approx(expected, rel=0)


@pytest.mark.parametrize("mu", [1e200, -1e200])
def test_space_form_invariant_refuses_a_curvature_whose_power_overflows(mu):
    message = f"curvature {mu} overflows when raised to the power 2"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        space_form_invariant(5, 2, mu)
    assert math.isfinite(space_form_invariant(5, 2, 1e150))


def test_space_form_invariant_refuses_a_curvature_whose_closed_form_overflows():
    # mu^4 = 1e308 is a float, (A + B) mu^4 = 113400e308 is not
    message = "curvature 1e+77 overflows when its power 4 is scaled by a closed-form coefficient"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        space_form_invariant(10, 4, 1e77)


def test_gauss_bonnet_k1_is_half_scalar_curvature():
    rng = np.random.default_rng(21)
    for n in (4, 5, 6):
        g = standard_metric(n)
        for _ in range(5):
            R = random_curvature_like(n, rng)
            assert gauss_bonnet(R, g, 1) == pytest.approx(
                classical_scalar(n, R.coeffs) / 2.0, rel=1e-12
            )


def test_ricci_2k_k1_is_classical_ricci():
    rng = np.random.default_rng(22)
    for n in (4, 5):
        g = standard_metric(n)
        for _ in range(5):
            R = random_curvature_like(n, rng)
            got = ricci_2k(R, g, 1)
            np.testing.assert_allclose(got.coeffs, classical_ricci(n, R.coeffs), atol=1e-12)


def _random_stack(n, batch, rng):
    m = math.comb(n, 2)
    raw = rng.standard_normal(batch + (m, m))
    return (raw + np.swapaxes(raw, -1, -2)) / 2


def power_contract_chain(n, k, w, contractions):
    """Reference route: w^k built left to right, w w w ... with k - 1
    products (the first, w w, passes w twice and takes the square route),
    then `contractions` chained standard-metric contractions. w may carry
    batch dimensions."""
    out = w
    deg = 2
    for _ in range(k - 1):
        out = product_coeffs(n, deg, deg, out, 2, 2, w)
        deg += 2
    for _ in range(contractions):
        out = contract_coeffs(n, deg, deg, out)
        deg -= 1
    return out


def test_trace_route_matches_power_and_contraction():
    # tr(w^k) from the diagonal blocks of w^ceil(k/2) w^floor(k/2) against
    # the full power contracted 2k times, on stacks with two batch axes
    rng = np.random.default_rng(41)
    for n, k in algebra_orders(8):
        w = _random_stack(n, (2, 3), rng)
        got = gauss_bonnet_coeffs(n, k, w)
        expected = power_contract_chain(n, k, w, 2 * k)[..., 0, 0] / math.factorial(2 * k)
        assert got.shape == (2, 3)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


def _last_product_trace(n, k, w):
    # tr(w^k) from the diagonal blocks of w^(k-1) w, the route that reads
    # only (2k-2, 2) splits (k >= 2)
    shape = (math.comb(n, 2 * k), math.comb(2 * k, 2))
    A, B, s = (arr.reshape(shape) for arr in split_tables(n, 2 * k - 2, 2))
    flat_p = (A[:, :, None] * math.comb(n, 2 * k - 2) + A[:, None, :]).ravel()
    flat_w = (B[:, :, None] * math.comb(n, 2) + B[:, None, :]).ravel()
    signs = (s[:, :, None] * s[:, None, :]).ravel()
    batch = w.shape[:-2]
    P = power_contract_chain(n, k - 1, w, 0).reshape(batch + (-1,))
    terms = np.take(P, flat_p, axis=-1) * np.take(w.reshape(batch + (-1,)), flat_w, axis=-1)
    return (terms[..., None, :] @ signs[:, None])[..., 0, 0]


def test_balanced_trace_is_the_last_product_trace_bitwise_for_k_up_to_3():
    # (a, b) = (1, 1) at k = 2 and (2, 1) at k = 3 read the same blocks of
    # the same products as w^(k-1) w
    rng = np.random.default_rng(43)
    for n, k in algebra_orders(9):
        if 2 <= k <= 3:
            w = _random_stack(n, (2, 3), rng)
            assert np.array_equal(gauss_bonnet_coeffs(n, k, w), _last_product_trace(n, k, w))


@pytest.mark.parametrize("n, k, batch", [(8, 4, (2, 3)), (9, 4, (2, 2)), (10, 4, (2, 1)), (10, 5, (1, 1))])
def test_balanced_trace_matches_the_last_product_trace(n, k, batch):
    # n = 10 builds a (4,4).(2,2) product on the reference route (and at
    # k = 5 on both), whose row stage holds 2M entries per matrix, so those
    # stacks stay small
    w = _random_stack(n, batch, np.random.default_rng([n, k]))
    got = gauss_bonnet_coeffs(n, k, w)
    expected = np.array([_last_product_trace(n, k, w[idx]) for idx in np.ndindex(batch)]).reshape(batch)
    assert got.shape == batch
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


def test_balanced_trace_gathers_less_at_k_4(monkeypatch):
    # the largest array is the row stage's result Y of the square that
    # builds w^2, 126 matrices of 36 x 36; w^3 w would need the (4,4).(2,2)
    # product, whose Y holds 84 matrices of 126 x 36. Under a 2^21-entry
    # budget the balanced plan fits 12 nodes in a chunk, where w^3 w would
    # fit 5
    monkeypatch.setattr(spaceform, "_GATHER_BUDGET", 2**21)
    assert gauss_bonnet_gather_entries(9, 4) == 126 * 36 * 36
    assert spaceform._chunk_nodes(9, 4, "warped") == 12
    assert 2**21 // product_gather_entries(9, 4, 4, 2, 2) == 2**21 // (84 * 126 * 36) == 5


def test_warped_k2_chunks_are_sized_by_the_diagonal_blocks_alone():
    # k = 2 makes no product, so its chunk rule does not follow the product
    # kernel: 2^17 // (36 C(n, 4)) nodes for n = 5..10
    assert [spaceform._chunk_nodes(n, 2, "warped") for n in range(5, 11)] == [728, 242, 104, 52, 28, 17]


def _record_kernel_calls(monkeypatch):
    """The (p, q, r, s, same array) of every product_coeffs call invariants
    makes, appended to the returned list: a square passes one array twice."""
    calls = []
    real = invariants.product_coeffs

    def recording(n, p, q, w1, r, s, w2):
        calls.append((p, q, r, s, w1 is w2))
        return real(n, p, q, w1, r, s, w2)

    monkeypatch.setattr(invariants, "product_coeffs", recording)
    return calls


@pytest.mark.parametrize("n", [5, 7, 9])
def test_trace_route_builds_w_w_with_the_square_kernel_only(monkeypatch, n):
    # k = 2 multiplies nothing; k = 3 (P = w w) and k = 4 (Q = w w) build
    # one square and no other product
    calls = _record_kernel_calls(monkeypatch)
    w = _random_stack(n, (2,), np.random.default_rng(n))
    for k in range(2, n // 2 + 1):
        calls.clear()
        gauss_bonnet_coeffs(n, k, w)
        assert calls == ([] if k == 2 else [(2, 2, 2, 2, True)])


def test_trace_blocks_hand_take_writeable_contiguous_tables():
    # np.take copies a read-only or non-contiguous index array on every call
    for n, a, b in ((5, 1, 1), (7, 2, 1), (8, 2, 2)):
        flat_p, flat_q, signs = _trace_blocks(n, a, b)
        for table in (flat_p, flat_q):
            assert table.flags.writeable and table.flags.c_contiguous
        assert not signs.flags.writeable


def _plain_trace(n, k, w):
    # gauss_bonnet_coeffs' formula with fresh arrays: both diagonal-block
    # gathers by plain np.take, and their product
    a, b = (k + 1) // 2, k // 2
    flat_p, flat_q, signs = _trace_blocks(n, a, b)
    batch = w.shape[:-2]
    Q = _power(n, b, w)
    P = Q if a == b else product_coeffs(n, 2 * b, 2 * b, Q, 2, 2, w)
    terms = np.take(P.reshape(batch + (-1,)), flat_p, axis=-1) * np.take(Q.reshape(batch + (-1,)), flat_q, axis=-1)
    return (terms[..., None, :] @ signs[:, None])[..., 0, 0]


@pytest.mark.parametrize("n, k", [(7, 2), (7, 3), (8, 4)])
def test_gauss_bonnet_coeffs_reuses_its_work_buffers(monkeypatch, n, k):
    # the diagonal blocks, the last two takes, are gathered into the
    # retained buffers 0 and 1; at k >= 3 the product before them
    # allocates its arrays per call
    w = _random_stack(n, (3,), np.random.default_rng([n, k]))
    first = gauss_bonnet_coeffs(n, k, w)
    kept = first.copy()
    buffers = dict(invariants._work.buffers)
    assert {0, 1} <= set(buffers)
    outs, real_take = [], np.take

    def recording(a, indices, *args, out=None, **kwargs):
        outs.append(out)
        return real_take(a, indices, *args, out=out, **kwargs)

    monkeypatch.setattr(np, "take", recording)
    flipped = w[::-1]
    second = gauss_bonnet_coeffs(n, k, flipped)
    monkeypatch.undo()
    assert len(outs) == (2 if k == 2 else 5)
    assert all(out is not None and any(np.shares_memory(out, buf) for buf in buffers.values()) for out in outs[-2:])
    assert all(out is None for out in outs[:-2])
    assert all(invariants._work.buffers[slot] is buf for slot, buf in buffers.items())
    assert not any(np.shares_memory(out, buf) for out in (first, second) for buf in buffers.values())
    assert np.array_equal(first, kept)
    assert np.array_equal(second, kept[::-1])
    assert np.array_equal(first, _plain_trace(n, k, w))


_K2_TRACE_FAULTS = """
import resource
import numpy as np
from gbyamabe import spaceform
from gbyamabe.spaceform import _gb_values, mode_field, zonal_basis
faults, real = [0], spaceform.gauss_bonnet_coeffs
def counting(n, k, w):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    out = real(n, k, w)
    faults[0] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return out
spaceform.gauss_bonnet_coeffs = counting
basis = zonal_basis(5, 16)
phi = mode_field(basis, 2, 0.05)
rng = np.random.default_rng(14)
batches = [
    [grid + 1e-3 * rng.standard_normal((fields, grid.size)) for grid in (phi.values, phi.dvalues, phi.ddvalues)]
    for fields in (18, 32)
]
for vals, dv, ddv in batches:
    _gb_values(5, 1.0, 2, basis, vals, dv, ddv)
faults[0] = 0
for _ in range(5):
    for vals, dv, ddv in batches:
        _gb_values(5, 1.0, 2, basis, vals, dv, ddv)
print(basis.x.size, spaceform._chunk_nodes(5, 2, "warped"), faults[0])
"""


def _faults_in_child(script):
    # the integers the script prints, among them page faults, from a child
    # with glibc's mmap threshold pinned at its default of 128 KB: frees of
    # larger arrays raise it, so this process's history could hide fresh
    # allocations (other allocators ignore the variable)
    src = str(Path(invariants.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        MALLOC_MMAP_THRESHOLD_="131072",
        PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    return [int(word) for word in proc.stdout.split()]


@pytest.mark.skipif(resource is None or not sys.platform.startswith("linux"), reason="counts Linux page faults")
def test_repeated_k2_traces_fault_in_no_fresh_pages():
    # the one reason a buffer is kept: the solver's n = 5, k = 2 path
    # evaluates RP^5 batches of 18 fields and S^5 batches of 32 at 48 nodes
    # every Newton step. A chunk of 728 nodes fits the budget, and each of
    # its two diagonal-block gathers holds 728 * 5 * 6^2 entries (1 MB,
    # 255 pages); fresh arrays per call would fault those pages in anew
    # (the helper pins the mmap threshold). The invariant kernel's calls
    # over five rounds of both batches must fault in almost none.
    per_node = _trace_blocks(5, 1, 1)[0].size
    nodes, chunk, faults = _faults_in_child(_K2_TRACE_FAULTS)
    assert (nodes, chunk, per_node) == (48, 728, 180)
    assert chunk * per_node <= invariants._GATHER_BUDGET
    pages = chunk * per_node * 8 // 4096
    assert pages == 255
    assert faults < pages // 10


def test_trace_route_matches_two_block_closed_form():
    rng = np.random.default_rng(42)
    for n, k in algebra_orders(9):
        m = math.comb(n, 2)
        k_rad, k_sph = rng.uniform(-2.0, 2.0, (2, 3))
        w = np.zeros((3, m, m))
        # ranked 2-subsets list the n - 1 radial pairs (0, j) first
        w[:, np.arange(n - 1), np.arange(n - 1)] = k_rad[:, None]
        w[:, np.arange(n - 1, m), np.arange(n - 1, m)] = k_sph[:, None]
        expected = [two_block_invariant(n, k, a, b) for a, b in zip(k_rad, k_sph)]
        np.testing.assert_allclose(gauss_bonnet_coeffs(n, k, w), expected, rtol=1e-12, atol=0)


def test_power_by_squaring_matches_the_left_to_right_power():
    # the two routes make the same products up to k = 3; from k = 4 squaring
    # groups them differently, so they agree to rounding, which is relative
    # to the size of the summed terms: an entry that cancels to 1e-4 of the
    # largest keeps only the absolute error
    rng = np.random.default_rng(44)
    for n, k in algebra_orders(DENSE_DIM_LIMIT):
        w = _random_stack(n, (2,), rng)
        got, expected = _power(n, k, w), power_contract_chain(n, k, w, 0)
        if k <= 3:
            assert np.array_equal(got, expected)
        else:
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


def test_ricci_2k_matches_the_contraction_chain():
    # one gather against 2k - 1 chained contract_coeffs of the left-to-right
    # power, in the standard metric and in the Cholesky frame of another one
    rng = np.random.default_rng(45)
    for n, k in algebra_orders(DENSE_DIM_LIMIT):
        A = rng.standard_normal((n, n))
        G = A @ A.T + n * np.eye(n)
        E = np.linalg.inv(np.linalg.cholesky(G)).T
        R = random_curvature_like(n, rng)
        got = ricci_2k(R, standard_metric(n), k).coeffs
        np.testing.assert_allclose(got, power_contract_chain(n, k, R.coeffs, 2 * k - 1), rtol=1e-12, atol=0)
        # the same frame change on both sides (test_to_frame_matches_the_dense_pullback checks it)
        got = ricci_2k(R, double_form(n, 1, 1, G), k).coeffs
        chain = power_contract_chain(n, k, _to_frame(R.coeffs, n, 2, 2, E), 2 * k - 1)
        expected = _to_frame(chain, n, 1, 1, np.linalg.inv(E))
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


def test_ricci_2k_squares_and_makes_no_contraction_call(monkeypatch):
    # at k = 4 the power is (w w)(w w): no (6,6) power is formed, and the
    # 7 contractions are one gather, not contract_coeffs
    calls = _record_kernel_calls(monkeypatch)

    def refuse(*args):
        raise AssertionError("contract_coeffs called")

    monkeypatch.setattr(forms, "contract_coeffs", refuse)
    monkeypatch.setattr(invariants, "contract_coeffs", refuse, raising=False)
    R = random_curvature_like(8, np.random.default_rng(46))
    ricci_2k(R, standard_metric(8), 4)
    assert calls == [(2, 2, 2, 2, True), (4, 4, 4, 4, True)]


def _power_gathers(n, k):
    # the largest arrays of the products of repeated squaring and of the
    # left-to-right chain, summed over the products
    squaring = sum(
        product_gather_entries(n, 2 * i, 2 * i, *((2 * i, 2 * i) if square else (2, 2))) for i, square in _power_steps(k)
    )
    chain = sum(product_gather_entries(n, 2 * i, 2 * i, 2, 2) for i in range(1, k))
    return squaring, chain


def test_squaring_gathers_no_more_than_the_chain_in_the_dense_range():
    # from n = 11 on, squaring the (4,4) power builds larger arrays than the
    # two products by w it replaces (at k = 4: 19.0M against 13.6M
    # entries), so this test fails if the dense limit is raised past 10
    assert _power_gathers(8, 4) == (64680, 111328)
    for n, k in algebra_orders(DENSE_DIM_LIMIT):
        squaring, chain = _power_gathers(n, k)
        assert squaring <= chain, (n, k)
    assert _power_gathers(11, 4)[0] > _power_gathers(11, 4)[1]


def test_ricci_trace_recovers_gauss_bonnet():
    # ricci_2k contracts the full power in one gather, gauss_bonnet reads
    # diagonal blocks of a product: two code paths checked against each other
    rng = np.random.default_rng(23)
    for n, k in algebra_orders(8):
        g = standard_metric(n)
        for _ in range(3):
            R = random_curvature_like(n, rng)
            trace = float(np.trace(ricci_2k(R, g, k).coeffs))
            assert trace == pytest.approx(
                math.factorial(2 * k) * gauss_bonnet(R, g, k), rel=1e-11
            )


def test_ricci_of_space_form_is_isotropic():
    n, k, mu = 5, 2, 1.0
    out = ricci_2k(space_form_curvature(n, mu), standard_metric(n), k)
    consts = invariant_constants(n, k)
    np.testing.assert_allclose(out.coeffs, consts.ricci_coefficient * mu**k * np.eye(n), atol=1e-11)
    assert consts.ricci_coefficient == pytest.approx(144.0, rel=0)


@pytest.mark.parametrize("n, k", [(5, 1), (6, 2), (7, 3), (8, 4), (10, 2)])
def test_dense_routes_are_homogeneous_of_degree_k_in_the_curvature(n, k):
    # `gbyamabe invariants` runs the dense routes at the unit curvature of
    # mu's sign and scales them by |mu|^k; the routes themselves must agree
    g = standard_metric(n)
    for mu in (0.3, 2.5, -0.7, -4.0):
        R, unit = space_form_curvature(n, mu), space_form_curvature(n, math.copysign(1.0, mu))
        scale = abs(mu) ** k
        assert gauss_bonnet(R, g, k) == pytest.approx(scale * gauss_bonnet(unit, g, k), rel=1e-13)
        ricci = ricci_2k(R, g, k).coeffs
        np.testing.assert_allclose(ricci, scale * ricci_2k(unit, g, k).coeffs, rtol=1e-13, atol=1e-13 * np.abs(ricci).max())
        if n <= 7:
            assert gauss_bonnet_kronecker(R, k) == pytest.approx(scale * gauss_bonnet_kronecker(unit, k), rel=1e-13)


def test_invariants_with_general_metric_are_invariant_under_pullback():
    # pulling back R and g by a linear map must not change the scalar
    rng = np.random.default_rng(24)
    n, k = 5, 2
    g = standard_metric(n)
    for _ in range(3):
        R = random_curvature_like(n, rng)
        base = gauss_bonnet(R, g, k)
        A = rng.standard_normal((n, n)) + n * np.eye(n)
        R_pulled = double_form(n, 2, 2, dense_pullback(n, 2, 2, R.coeffs, A))
        g_pulled = double_form(n, 1, 1, A.T @ A)
        assert gauss_bonnet(R_pulled, g_pulled, k) == pytest.approx(base, rel=1e-9)


_ORACLES = {
    "gauss_bonnet": lambda R, g: gauss_bonnet(R, g, 2),
    "ricci_2k": lambda R, g: ricci_2k(R, g, 2),
    "contract": lambda R, g: contract(g, R),
}


@pytest.mark.parametrize("oracle", sorted(_ORACLES))
@pytest.mark.parametrize(
    "metric, message",
    [
        (standard_metric(4), "dimension mismatch: 4 vs 5"),
        (space_form_curvature(5, 1.0), r"metric must have bidegree \(1,1\)"),
        (double_form(5, 1, 1, np.triu(np.ones((5, 5))) + 4 * np.eye(5)), "metric is not symmetric"),
        (double_form(5, 1, 1, np.diag([1.0, 2.0, 3.0, 4.0, -1.0])), "metric is not positive definite"),
    ],
    ids=["wrong_dimension", "bidegree_2_2", "not_symmetric", "not_positive_definite"],
)
def test_every_metric_argument_obeys_one_rule(oracle, metric, message):
    # the oracles refuse the same metrics as contract, with the same message
    with pytest.raises(ValueError, match=f"^{message}$"):
        _ORACLES[oracle](space_form_curvature(5, 1.0), metric)


def test_raw_kronecker_sum_matches_brute_force():
    rng = np.random.default_rng(25)
    # the brute force takes about 2 s per tensor at (6, 3)
    for n, k, samples in [(4, 1, 2), (5, 1, 2), (4, 2, 2), (5, 2, 2), (6, 2, 2), (6, 3, 1)]:
        for _ in range(samples):
            R = random_curvature_like(n, rng)
            assert raw_kronecker_sum(R, k) == pytest.approx(
                brute_kronecker_sum(n, k, R.coeffs), rel=1e-11
            )


def test_kronecker_plan_matches_the_fancy_index_reference():
    # the cached plan against one broadcast fancy index per call on tables
    # the reference builds itself: the same products summed in the same
    # order, so bit for bit
    rng = np.random.default_rng(27)
    for n, k in algebra_orders(7):
        for _ in range(5):
            R = random_curvature_like(n, rng)
            assert raw_kronecker_sum(R, k) == orbit_kronecker_sum(n, k, R.coeffs), (n, k)


def test_kronecker_plan_is_one_factor_major_take_table():
    # (k, C(n,2k), |sigma|, |tau|) flat ranks into C(n,2)^2 coefficients,
    # cached, C-contiguous and writeable (np.take copies any other index
    # array on every call); the largest, at (7, 3), holds 28,350 ranks
    for n, k in algebra_orders(7):
        plan = invariants._kronecker_plan(n, k)
        sigma, _, tau, _ = invariants._pair_orbits(2 * k)
        assert plan.shape == (k, math.comb(n, 2 * k), len(sigma), len(tau))
        assert plan.flags.writeable and plan.flags.c_contiguous
        assert 0 <= plan.min() and plan.max() < math.comb(n, 2) ** 2
        assert invariants._kronecker_plan(n, k) is plan
    assert invariants._kronecker_plan(7, 3).size == 3 * 7 * 90 * 15 == 28350


def test_metric_rule_needs_no_frame_for_any_identity_metric():
    # the cached instance is recognized by identity, a fresh identity matrix
    # by its entries
    for n in (3, 5, 8):
        fresh = double_form(n, 1, 1, np.eye(n))
        assert fresh is not standard_metric(n)
        assert forms._metric_frame(fresh, n) is None
        assert forms._metric_frame(standard_metric(n), n) is None


def test_calibration_constant_at_5_1():
    # the brute-force raw sum, independent of raw_kronecker_sum, is 4 tr(R)
    rng = np.random.default_rng(24)
    g = standard_metric(5)
    for _ in range(3):
        R = random_curvature_like(5, rng)
        ratio = gauss_bonnet(R, g, 1) / brute_kronecker_sum(5, 1, R.coeffs)
        assert ratio == pytest.approx(0.25, rel=1e-12)


def test_calibration_constant_is_a_power_of_four():
    # the trace route fixes the constant of the raw sum at 4^-k
    rng = np.random.default_rng(23)
    for n, k in algebra_orders(7):
        R = random_curvature_like(n, rng)
        ratio = gauss_bonnet(R, standard_metric(n), k) / raw_kronecker_sum(R, k)
        assert ratio == pytest.approx(4.0**-k, rel=1e-12)


def test_calibrated_kronecker_matches_contraction():
    rng = np.random.default_rng(26)
    for n, k in algebra_orders(7):
        g = standard_metric(n)
        for _ in range(3):
            R = random_curvature_like(n, rng)
            assert gauss_bonnet_kronecker(R, k) == pytest.approx(gauss_bonnet(R, g, k), rel=1e-12)


@pytest.mark.parametrize("k", [2.0, 1.5, True, np.float64(2.0)])
def test_orders_must_be_integers(k):
    R = space_form_curvature(5, 1.0)
    with pytest.raises(ValueError, match="order k must be an integer"):
        invariants.check_problem_order(5, k)
    with pytest.raises(ValueError, match="order k must be an integer"):
        gauss_bonnet(R, standard_metric(5), k)


def test_orders_accept_numpy_integers():
    R = space_form_curvature(5, 1.0)
    assert gauss_bonnet(R, standard_metric(5), np.int64(2)) == pytest.approx(30.0, rel=1e-14)


def test_kronecker_dimension_guard():
    R = space_form_curvature(8, 1.0)
    with pytest.raises(ValueError):
        raw_kronecker_sum(R, 2)


def test_curvature_validation():
    g = standard_metric(5)
    with pytest.raises(ValueError):
        gauss_bonnet(g, g, 1)  # wrong bidegree
    lopsided = double_form(5, 2, 2, np.triu(np.ones((10, 10))))
    with pytest.raises(ValueError):
        gauss_bonnet(lopsided, g, 2)
    R = space_form_curvature(5, 1.0)
    with pytest.raises(ValueError):
        gauss_bonnet(R, g, 3)  # 2k > n
    with pytest.raises(ValueError):
        gauss_bonnet(R, g, 0)


@lru_cache(maxsize=None)
def matchings(m, j):
    """The j-pair matchings of m points: the last point is left out or
    paired with one of the other m - 1."""
    if j == 0:
        return 1
    if m < 2 * j:
        return 0
    return matchings(m - 1, j) + (m - 1) * matchings(m - 2, j - 1)


def test_two_block_coefficients_count_perfect_matchings():
    # in Python integers, no dense algebra: A (resp. B) counts the k!
    # orderings of the k-pair matchings that avoid (resp. hold) axis 0,
    # whose n - 1 planes are the radial ones
    for n, k in algebra_orders(61):
        A, B = _two_block_coefficients(n, k)
        assert type(A) is int and type(B) is int
        assert A == math.factorial(k) * matchings(n - 1, k), (n, k)
        assert B == math.factorial(k) * (n - 1) * matchings(n - 2, k - 1), (n, k)
        assert (A + B) * math.factorial(n - 2 * k) * 2**k == math.factorial(n), (n, k)


def test_space_form_constants_are_the_correctly_rounded_rationals():
    # int / int rounds correctly, so each constant is pinned to the bit
    f = math.factorial
    for n, k in algebra_orders(61):
        lead = f(2 * k) * f(n - 1)
        assert space_form_invariant(n, k, 1.0) == f(n) / (f(n - 2 * k) * 2**k), (n, k)
        consts = invariant_constants(n, k)
        assert consts.ricci_coefficient == lead / (2**k * f(n - 2 * k)), (n, k)
        assert consts.base_coefficient == lead / (2**k * f(n - 2 * k) * (n - 1) * (n - 2)), (n, k)


def test_invariant_constants_values():
    c52 = invariant_constants(5, 2)
    assert c52.base_coefficient == pytest.approx(12.0, rel=0)
    assert c52.ricci_coefficient == pytest.approx(144.0, rel=0)
    c51 = invariant_constants(5, 1)
    assert c51.base_coefficient == pytest.approx(1.0 / 3.0, rel=1e-15)
    c73 = invariant_constants(7, 3)
    assert c73.base_coefficient == pytest.approx(2160.0, rel=0)
