"""Tests of the benchmark's checker and tracer.

Each closed-form check must accept the package's real outputs and reject a
deliberately wrong one: a constant off by 1e-6 relative, a correction with
one mode's sign flipped, and two-block curvatures r and s swapped.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import dataclasses
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gbyamabe as gb

import checks
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent


def _flip_largest_mode(field):
    modes = field.modes.copy()
    top = int(np.argmax(np.abs(modes)))
    modes[top] = -modes[top]
    return gb.field_from_modes(field.basis, modes, parity=field.parity)


def _solve(quotient, modes, k=2):
    sf = gb.space_form(5, 1.0, quotient)
    basis = gb.zonal_basis(5, workloads.MODE_CUTOFF)
    coeffs = np.zeros(basis.max_mode + 1)
    for ell, value in modes.items():
        coeffs[ell] = value
    parity = "even" if all(ell % 2 == 0 for ell in modes) else "any"
    psi = gb.field_from_modes(basis, coeffs, parity=parity)
    report = gb.newton_solve(sf, psi, k)
    cert = gb.fixed_point_certificate(sf, psi, report, k=k)
    return sf, psi, report, cert


@pytest.fixture(scope="module")
def rp5():
    return _solve(gb.REAL_PROJECTIVE, {2: 0.008, 4: -0.002})


@pytest.fixture(scope="module")
def s5():
    return _solve(gb.FULL_SPHERE, {1: 0.01, 2: 0.005, 3: -0.004})


@pytest.mark.parametrize("name", ["rp5", "s5"])
def test_solve_check_accepts_real_output(name, request):
    sf, psi, report, cert = request.getfixturevalue(name)
    projective = sf.quotient == gb.REAL_PROJECTIVE
    assert checks.check_solve(5, 1.0, projective, {2: 1.0}, psi, report, cert) == []


@pytest.mark.parametrize("name", ["rp5", "s5"])
def test_solve_check_rejects_constant_off_by_1e6(name, request):
    sf, psi, report, cert = request.getfixturevalue(name)
    wrong = dataclasses.replace(report, achieved_constant=report.achieved_constant * (1 + 1e-6))
    failures = checks.check_solve(5, 1.0, sf.quotient == gb.REAL_PROJECTIVE, {2: 1.0}, psi, wrong, cert)
    assert any("achieved constant" in msg for msg in failures)


@pytest.mark.parametrize("name", ["rp5", "s5"])
def test_solve_check_rejects_flipped_mode(name, request):
    sf, psi, report, cert = request.getfixturevalue(name)
    wrong = dataclasses.replace(report, w=_flip_largest_mode(report.w))
    failures = checks.check_solve(5, 1.0, sf.quotient == gb.REAL_PROJECTIVE, {2: 1.0}, psi, wrong, cert)
    assert any("recomputed invariant" in msg for msg in failures)
    if sf.quotient == gb.REAL_PROJECTIVE:
        assert any("psi + w" in msg for msg in failures)


def test_solve_check_rejects_unconverged_and_uncertified(rp5):
    sf, psi, report, cert = rp5
    failures = checks.check_solve(5, 1.0, True, {2: 1.0}, psi, dataclasses.replace(report, status="max_iterations"), None)
    assert len(failures) == 2


def test_combined_constant_accepts_generalized_solve():
    sf = gb.space_form(5, 1.0, gb.REAL_PROJECTIVE)
    psi = gb.mode_field(gb.zonal_basis(5, workloads.MODE_CUTOFF), 2, 0.03)
    weights = {1: 1.0, 2: 0.2}
    report = gb.generalized_solve(sf, psi, gb.LinearFunctional((1.0, 0.2)))
    cert = gb.fixed_point_certificate(sf, psi, report, weights=weights)
    assert checks.combined_constant(5, weights, 1.0) == pytest.approx(10.0 + 0.2 * 30.0, rel=1e-15)
    assert checks.check_solve(5, 1.0, True, weights, psi, report, cert) == []


@pytest.mark.parametrize("n", range(5, 9))
def test_two_block_formula_matches_gauss_bonnet(n):
    g = gb.standard_metric(n)
    r, s = 0.7, -1.3
    R = gb.double_form(n, 2, 2, checks.two_block_matrix(n, r, s))
    for k in range(1, n // 2 + 1):
        expected = float(checks.two_block_invariant(n, k, r, s))
        assert gb.gauss_bonnet(R, g, k) == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert checks.space_form_constant(n, k, 1.0) == pytest.approx(
            float(checks.two_block_invariant(n, k, 1.0, 1.0)), rel=1e-15
        )


def _oracles(n, k, seed=3):
    inp = workloads.draw_oracle_inputs(n, k, np.random.default_rng(seed))
    return inp, workloads.run_oracles(inp)


@pytest.mark.parametrize("n,k", [(5, 1), (5, 2), (6, 3), (7, 3), (8, 4)])
def test_verify_check_accepts_real_output(n, k):
    inp, out = _oracles(n, k)
    assert workloads.check_oracles(inp, out) == []


@pytest.mark.parametrize("n,k", [(5, 1), (5, 2), (6, 3), (8, 4)])
def test_verify_check_rejects_swapped_two_block(n, k):
    inp, _ = _oracles(n, k)
    out = workloads.run_oracles(dataclasses.replace(inp, r=inp.s, s=inp.r))
    assert any("two-block invariant" in msg for msg in workloads.check_oracles(inp, out))


def test_verify_check_rejects_kronecker_and_constant_errors():
    inp, out = _oracles(7, 2)
    out["kronecker"] *= 1 + 1e-6
    out["operators"]["space_form"]["gauss_bonnet"] *= 1 + 1e-6
    failures = workloads.check_oracles(inp, out)
    assert any("raw_kronecker_sum" in msg for msg in failures)
    assert any("space-form invariant" in msg for msg in failures)


def test_tracer_accounts_for_op_time_and_restores_the_package():
    originals = {
        (mod, attr): getattr(sys.modules[mod], attr)
        for mod, attr, *_ in tracing.TARGETS
        if hasattr(sys.modules.get(mod), attr)
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sf = gb.space_form(5, 1.0, gb.REAL_PROJECTIVE)
        psi = gb.mode_field(gb.zonal_basis(5, workloads.MODE_CUTOFF), 2, 0.02)
        start = time.perf_counter()
        with tracer.root("op", "solve") as idx:
            report = gb.newton_solve(sf, psi, 2)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert all(getattr(sys.modules[mod], attr) is fn for (mod, attr), fn in originals.items())
    roots = tracing.summarize(tracer.spans)
    assert tracing.accounting_errors(roots, {idx: wall}) == []
    assert len(tracing.accounting_errors(roots, {idx: 1.5 * wall})) == 1
    root = roots[idx]
    assert root["names"]["newton.solve"]["info"] == report.steps
    assert root["names"]["newton.jacobian"]["calls"] == report.steps


@pytest.fixture
def run(monkeypatch):
    """run.py, imported without its thread pinning reaching the environment
    of the other tests."""
    monkeypatch.setattr(os, "environ", dict(os.environ))
    import run

    return run


def test_op_median_is_the_mean_of_per_kind_medians(run):
    tally = run.Tally()
    tally.durations = [("k2", 3.0), ("k3", 4.2), ("k2", 3.2), ("k3", 4.0), ("k2", 3.1), ("k3", 4.1)]
    assert run.mix_median(tally) == pytest.approx((3.1 + 4.1) / 2)
    tally.durations = tally.durations[::2]
    assert run.mix_median(tally) == pytest.approx(statistics.median([3.0, 3.2, 3.1]))


def test_tracer_reports_missing_targets_as_absent(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("gbyamabe.spaceform", "_no_such_kernel", "x", False, False, None),))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["gbyamabe.spaceform._no_such_kernel"]


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
