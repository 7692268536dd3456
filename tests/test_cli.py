"""CLI: exit codes, JSON report shape, iteration records, determinism."""

import argparse
import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import gbyamabe
from gbyamabe import constants, forms, invariant_constants, invariants, max_order, space_form_invariant, spaceform
from gbyamabe._validate import check_power
from gbyamabe.cli import build_parser, main


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


def strict_json(text):
    """json.loads without the NaN, Infinity and -Infinity tokens that RFC 8259 excludes."""
    return json.loads(text, parse_constant=_refuse_constant)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, strict_json(out)


def test_invariants_command(capsys):
    code, report = run_cli(capsys, ["invariants", "--n", "5", "--k", "2"])
    assert code == 0
    assert report["schema"] == 1
    assert report["command"] == "invariants"
    assert report["inputs"]["n"] == 5
    assert report["results"]["gauss_bonnet"] == pytest.approx(30.0, rel=1e-12)
    assert report["results"]["routes_agree"] is True
    assert report["results"]["conformal_coefficient"] == pytest.approx(12.0)


def test_invariants_with_kronecker(capsys):
    code, report = run_cli(capsys, ["invariants", "--n", "5", "--k", "1", "--kronecker"])
    assert code == 0
    assert set(report) == {"schema", "command", "inputs", "results"}
    assert report["results"]["kronecker"] == pytest.approx(10.0, rel=1e-9)
    assert abs(report["results"]["kronecker_difference"]) <= 1e-9
    assert report["results"]["routes_agree"] is True


def test_verify_algebra_command(capsys):
    code, report = run_cli(capsys, ["verify-algebra", "--cases", "20", "--dims", "3,4"])
    assert code == 0
    assert report["results"]["all_passed"] is True
    assert set(report["results"]["properties"]) >= {"adjointness", "associativity"}


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--cases", "0"], "cases must be at least 1"),
        (["--dims", "4.5"], "integers"),
        (["--dims", "2"], "dims must be integers from 3 to 10"),
        (["--dims", "3,11"], "dims must be integers from 3 to 10"),
    ],
)
def test_verify_algebra_rejects_input_that_checks_nothing_or_cannot_run(capsys, flags, message):
    code, report = run_cli(capsys, ["verify-algebra", *flags])
    assert code == 2
    assert "results" not in report
    assert report["error"]["type"] == "ValueError"
    assert message in report["error"]["message"]


_ORDER_RULE = "must satisfy 1 <= k and 2k < n (n=5)"


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["invariants", "--n", "11", "--k", "1"], "at most 10", id="11"),
        pytest.param(["invariants", "--n", "12", "--k", "1"], "at most 10", id="12"),
        pytest.param(["verify-linearization", "--n", "11", "--k", "2"], "at most 10", id="verify-linearization-11"),
        pytest.param(["verify-linearization", "--n", "5", "--k", "0"], _ORDER_RULE, id="verify-linearization-k0"),
        pytest.param(["verify-linearization", "--n", "5", "--k", "3"], _ORDER_RULE, id="verify-linearization-k3"),
        pytest.param(
            ["verify-linearization", "--n", "5", "--k", "2", "--mode", "1"],
            "exact linearization vanishes",
            id="verify-linearization-mode1",
        ),
    ],
)
def test_invariants_rejects_dimensions_above_the_dense_limit(capsys, monkeypatch, argv, message):
    # refused before any dense evaluation: one product gathers 366 MB per
    # operand at n = 11, and an order or a direction the check cannot use
    # is refused without evaluating anything
    def refuse(*args):
        raise AssertionError("a dense kernel was called")

    for module in (forms, invariants, spaceform):
        monkeypatch.setattr(module, "product_coeffs", refuse)
    monkeypatch.setattr(spaceform, "_gb_chunk", refuse)
    code, report = run_cli(capsys, argv)
    assert code == 2
    assert "results" not in report
    assert report["error"]["type"] == "ValueError"
    assert message in report["error"]["message"]


def test_invariants_accepts_the_dense_limit(capsys):
    code, report = run_cli(capsys, ["invariants", "--n", "10", "--k", "1"])
    assert code == 0
    assert report["results"]["gauss_bonnet"] == pytest.approx(45.0, rel=1e-12)


def test_verify_linearization_command(capsys):
    code, report = run_cli(capsys, ["verify-linearization", "--n", "5", "--k", "2"])
    assert code == 0
    assert report["results"]["passed"] is True
    assert report["results"]["relative_error"] <= 1e-6


def test_verify_linearization_negative_curvature(capsys):
    code, report = run_cli(
        capsys, ["verify-linearization", "--n", "6", "--k", "2", "--mu", "-1"]
    )
    assert code == 0
    assert report["results"]["passed"] is True


def test_verify_linearization_strict_tolerance_fails_honestly(capsys):
    code, report = run_cli(
        capsys, ["verify-linearization", "--n", "5", "--k", "2", "--max-relerr", "1e-12"]
    )
    assert code == 4
    assert report["results"]["passed"] is False


def test_spectrum_command(capsys):
    code, report = run_cli(capsys, ["spectrum", "--n", "5"])
    assert code == 0
    assert report["results"] == {"lambda1": 12.0, "critical_level": 5.0, "gap_clears": True}
    code, report = run_cli(capsys, ["spectrum", "--n", "5", "--quotient", "sphere"])
    assert code == 0
    assert report["results"]["gap_clears"] is False
    # the hyperbolic gap clears n mu in closed form, with no eigenvalue to report
    code, report = run_cli(capsys, ["spectrum", "--n", "6", "--mu", "-1", "--quotient", "hyperbolic"])
    assert code == 0
    assert report["results"] == {"lambda1": None, "critical_level": -6.0, "gap_clears": True}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--mu", "inf"], "curvature must be finite"),
        (["spectrum", "--n", "5", "--mu", "nan"], "curvature must be finite"),
        (["spectrum", "--n", "5", "--mu", "inf"], "curvature must be finite"),
        (["spectrum", "--n", "5", "--quotient", "rp", "--lambda1", "5"], "unrecognized arguments: --lambda1 5"),
        (["solve", "--tol-residual", "nan", "--max-iterations", "3"], "tol_residual must be finite and positive"),
        (["solve", "--damping", "nan"], "unrecognized arguments: --damping nan"),
        (["solve-g", "--g-coeffs", "1", "--damping", "0.5"], "unrecognized arguments: --damping 0.5"),
        (["sweep", "--damping", "0.5"], "unrecognized arguments: --damping 0.5"),
        (["solve", "--nnodes", "48"], "unrecognized arguments: --nnodes 48"),
        (["solve-g", "--g-coeffs", "1", "--nnodes", "48"], "unrecognized arguments: --nnodes 48"),
        (["sweep", "--nnodes", "48"], "unrecognized arguments: --nnodes 48"),
        (["kernel-demo", "--nnodes", "48"], "unrecognized arguments: --nnodes 48"),
        (["solve", "--certificate-threshold", "nan"], "threshold must be finite and positive"),
        (["solve", "--certificate-threshold", "-1"], "threshold must be finite and positive"),
        (["invariants", "--n", "5", "--k", "2", "--mu", "nan"], "background curvature must be finite, got nan"),
        (["invariants", "--n", "5", "--k", "2", "--mu", "inf"], "background curvature must be finite, got inf"),
        (["invariants", "--n", "5", "--k", "2", "--tol", "nan"], "tol must be finite and non-negative"),
        (["invariants", "--n", "5", "--k", "2", "--tol", "-1"], "tol must be finite and non-negative"),
        (["verify-algebra", "--cases", "2", "--tol", "nan"], "tol must be finite and non-negative"),
        (["verify-algebra", "--cases", "2", "--tol", "inf"], "tol must be finite and non-negative"),
        (["verify-linearization", "--n", "5", "--k", "2", "--max-relerr", "nan"], "max_relerr must be finite"),
        (["verify-linearization", "--n", "5", "--k", "2", "--max-relerr", "-1"], "max_relerr must be finite"),
        (["verify-linearization", "--n", "5", "--k", "2", "--eps", "nan"], "eps must be finite and positive"),
        (["solve", "--format", "csv"], "unrecognized arguments: --format csv"),
        (["invariants", "--n", "5", "--k", "2", "--mu", "1e200"], "curvature 1e+200 overflows when raised to the power 2"),
        (["spectrum", "--n", "5", "--mu", "1e-320"], "curvature 1e-320 give no finite positive reference volume"),
        (["spectrum", "--n", "100000000"], "dimension 100000000 and curvature 1.0 give no finite positive"),
        (["kernel-demo", "--n", "5", "--k", "2", "--mu", "1e-300"], "curvature 1e-300 give no finite positive"),
        (["verify-linearization", "--n", "5", "--k", "2", "--mu", "1e-300"], "curvature 1e-300 give no finite positive"),
        (["solve", "--n", "5", "--k", "2", "--coeffs", "2:0.05", "--mu", "1e-300"], "curvature 1e-300 give no finite"),
        (["solve", "--n", "5", "--k", "2", "--mu", "1e300", "--amp", "0.01"], "curvature 1e+300 give no finite positive"),
        (["invariants", "--n", "10", "--k", "4", "--mu", "1e77"], "background curvature 1e+77 overflows when its power 4"),
        (["invariants", "--n", "10", "--k", "4", "--mu", "5.6e75"], "background curvature 5.6e+75 overflows when its"),
        (["invariants", "--n", "10", "--k", "1", "--mu", "1e307"], "curvature 1e+307 overflows when its power 1"),
        (["kernel-demo", "--n", "5", "--k", "2", "--mu", "1e120"], "results.collapse_ratio is inf: a report holds"),
        (["solve", "--n", "5", "--k", "2", "--coeffs", "2:1e308"], "non-finite grids: values, first derivatives, second"),
        (["solve", "--n", "5", "--k", "2", "--coeffs", "2:1e200,4:1e200"], "profile sup norm 1.33e+201 exceeds"),
        (["solve", "--n", "5", "--k", "2", "--amp", "1e308"], "non-finite grids: second derivatives"),
        (["sweep", "--amplitudes", "1e308"], "non-finite grids: second derivatives"),
        (["verify-linearization", "--n", "5", "--k", "2", "--eps", "1e300"], "eps 1e+300 gives non-finite difference"),
    ],
    ids=[
        "solve-mu-inf",
        "spectrum-mu-nan",
        "spectrum-mu-inf",
        "spectrum-rp-lambda1",
        "solve-tol-residual-nan",
        "solve-damping-nan",
        "solve-g-damping",
        "sweep-damping",
        "solve-nnodes",
        "solve-g-nnodes",
        "sweep-nnodes",
        "kernel-demo-nnodes",
        "solve-threshold-nan",
        "solve-threshold-negative",
        "invariants-mu-nan",
        "invariants-mu-inf",
        "invariants-tol-nan",
        "invariants-tol-negative",
        "verify-algebra-tol-nan",
        "verify-algebra-tol-inf",
        "verify-linearization-max-relerr-nan",
        "verify-linearization-max-relerr-negative",
        "verify-linearization-eps-nan",
        "solve-format-csv",
        "invariants-mu-power-overflow",
        "spectrum-volume-overflow",
        "spectrum-n-volume-overflow",
        "kernel-demo-volume-overflow",
        "verify-linearization-volume-overflow",
        "solve-volume-overflow",
        "solve-volume-underflow",
        "invariants-closed-form-overflow",
        "invariants-ricci-constant-overflow",
        "invariants-k1-invariant-overflow",
        "kernel-demo-collapse-ratio-not-finite",
        "solve-profile-grids-overflow",
        "solve-profile-sup-norm-huge",
        "solve-amp-grids-overflow",
        "sweep-amplitude-grids-overflow",
        "verify-linearization-eps-overflow",
    ],
)
def test_non_finite_or_undeclarable_parameters_exit_2(capsys, argv, message):
    if message.startswith("unrecognized arguments"):
        # a removed flag: argparse refuses it before any report is written
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        return
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    captured = capsys.readouterr()
    report = strict_json(captured.out)
    assert code == 2
    assert "results" not in report
    assert report["error"]["type"] == "ValueError"
    assert message in report["error"]["message"]
    assert captured.err == ""
    warned = [str(w.message) for w in caught]
    if message.startswith("results."):
        # a result refused after the evaluation that overflowed
        assert all("overflow" in text for text in warned)
    else:
        # refused with no numpy warning: before any evaluation that could
        # overflow, or after one that ignores its overflow and checks it
        assert warned == []


def _refusal_bound(n, k):
    """The largest mu, to a few ulps, at which every closed form that
    `invariants` reports is a finite float: the bound at which it refuses."""

    def refused(mu):
        try:
            space_form_invariant(n, k, mu)
            check_power("mu", mu, k, invariant_constants(n, k).ricci_coefficient)
            if k <= max_order(n):
                constants(n, k, mu)
        except ValueError:
            return True
        return False

    lo, hi = 1.0, 1e308
    for _ in range(80):  # bisection in log mu; 80 halvings leave a ratio below 1 + 1e-15
        mid = lo**0.5 * hi**0.5
        lo, hi = (lo, mid) if refused(mid) else (mid, hi)
    return lo


@pytest.mark.parametrize("n, k", [(10, 1), (10, 2), (7, 3), (8, 3), (10, 4), (10, 5)])
def test_invariants_below_the_refusal_bound_exit_0(capsys, n, k):
    # the dense routes run at unit curvature and are scaled by |mu|^k, so
    # wherever the closed forms are finite the report is too: at 0.5, 0.9
    # and 0.999999 of the bound the dense Ricci trace used to overflow
    bound = _refusal_bound(n, k)
    for mu in (0.5 * bound, 0.9 * bound, 0.999999 * bound, -0.999999 * bound):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["invariants", "--n", str(n), "--k", str(k), f"--mu={mu!r}"])
        captured = capsys.readouterr()
        results = strict_json(captured.out)["results"]
        assert code == 0, (mu, results)
        assert captured.err == "" and caught == []
        assert results["routes_agree"] is True
        assert results["ricci_factor"] == pytest.approx(results["ricci_closed_form"], rel=1e-12)


@pytest.mark.parametrize("k", [2, 3])
def test_invariants_refuses_a_flat_background(capsys, k):
    # at k = 3 > max_order(6) no linearization constant is computed, so the
    # refusal must not depend on it
    code, report = run_cli(capsys, ["invariants", "--n", "6", "--k", str(k), "--mu", "0"])
    assert code == 2
    assert "results" not in report
    assert report["error"]["message"] == "background curvature must be nonzero"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--certificate-threshold", "nan", "--max-iterations", "1"],
        ["solve", "--no-certify", "--certificate-threshold", "nan"],
        ["solve-g", "--g-coeffs", "1,0.1", "--no-certify", "--certificate-threshold", "-1"],
    ],
    ids=["solve-unconverged", "solve-no-certify", "solve-g-no-certify"],
)
def test_certificate_threshold_is_checked_before_the_solve(capsys, monkeypatch, argv):
    import gbyamabe.cli as cli

    def refuse(*args):
        raise AssertionError("the solve ran")

    monkeypatch.setattr(cli, "newton_solve", refuse)
    monkeypatch.setattr(cli, "generalized_solve", refuse)
    code, report = run_cli(capsys, argv)
    assert code == 2
    assert "results" not in report
    assert "threshold must be finite and positive" in report["error"]["message"]


def test_solve_command_full_report(capsys):
    code, report = run_cli(capsys, ["solve"])
    assert code == 0
    results = report["results"]
    assert results["status"] == "converged"
    assert results["steps"] <= 8
    assert results["achieved_constant"] == pytest.approx(30.0, rel=1e-9)
    assert results["final_residual"] <= 1e-10
    assert results["quadratic_tail"] is True
    assert results["certificate"]["passed"] is True
    assert results["w"]["parity"] == "even"
    assert len(results["iterations"]) == results["steps"] + 1


def test_solve_exit_code_on_stall(capsys):
    code, report = run_cli(
        capsys,
        ["solve", "--max-iterations", "1", "--tol-residual", "1e-18", "--tol-volume", "1e-18"],
    )
    assert code == 3
    assert report["results"]["status"] == "max_iterations"


def test_solve_exit_code_on_line_search_failure(capsys, monkeypatch):
    import gbyamabe.newton as newton

    real = newton._evaluate
    calls = []

    def growing(*args):
        F, S, vol = real(*args)
        calls.append(args)
        return (F if len(calls) == 1 else F + 1e6), S, vol

    monkeypatch.setattr(newton, "_evaluate", growing)
    code, report = run_cli(capsys, ["solve"])
    assert code == 3
    assert report["results"]["status"] == "line_search_failed"
    assert "certificate" not in report["results"]


def test_solve_explicit_profile(capsys):
    code, report = run_cli(capsys, ["solve", "--coeffs", "2:0.03,4:0.01"])
    assert code == 0
    assert report["results"]["psi"]["parity"] == "even"


def test_solve_rejects_malformed_profile(capsys):
    code, report = run_cli(capsys, ["solve", "--coeffs", "2-0.03"])
    assert code == 2
    assert report["error"]["type"] == "ValueError"
    assert "results" not in report
    # a repeated mode would otherwise keep only its last value
    code, report = run_cli(capsys, ["solve", "--coeffs", "2:0.05,2:0.01"])
    assert code == 2
    assert report["error"]["message"] == "profile mode 2 is given more than once"
    assert "results" not in report


def test_solve_rejects_odd_profile_on_projective(capsys):
    code, report = run_cli(capsys, ["solve", "--mode", "3"])
    assert code == 2
    assert "even" in report["error"]["message"]


def test_solve_generalized(capsys):
    code, report = run_cli(capsys, ["solve-g", "--g-coeffs", "1,0.1"])
    assert code == 0
    assert report["results"]["achieved_constant"] == pytest.approx(13.0, rel=1e-9)
    assert report["results"]["functional"] == [1.0, 0.1]
    assert report["results"]["certificate"]["passed"] is True


def test_solve_generalized_degenerate(capsys):
    code, report = run_cli(capsys, ["solve-g", "--g-coeffs", "1,-0.16666666666666666"])
    assert code == 2
    assert report["error"]["type"] == "NondegeneracyViolated"


def test_kernel_demo_command(capsys):
    code, report = run_cli(capsys, ["kernel-demo", "--mode-cutoff", "8"])
    assert code == 0
    assert report["results"]["collapse_ratio"] <= 1e-3


def test_sweep_command(capsys):
    code, report = run_cli(capsys, ["sweep", "--amplitudes", "0.0,0.03"])
    assert code == 0
    runs = report["results"]["runs"]
    assert [r["amplitude"] for r in runs] == [0.0, 0.03]
    assert report["results"]["all_converged"] is True


def test_sweep_exit_code_when_a_run_does_not_converge(capsys):
    code, report = run_cli(
        capsys, ["sweep", "--n", "5", "--k", "2", "--amplitudes", "0.05,0.1", "--max-iterations", "1"]
    )
    assert code == 3
    assert report["results"]["all_converged"] is False


def test_sweep_refuses_a_large_amplitude_before_any_solve(capsys, monkeypatch):
    from gbyamabe import newton

    def no_solve(*args):
        raise AssertionError("a solve ran before the amplitude check")

    monkeypatch.setattr(newton, "_solve_core", no_solve)
    code, report = run_cli(capsys, ["sweep", "--amplitudes", "0.05,0.4"])
    assert code == 2
    assert report["error"] == {
        "type": "ValueError",
        "message": "profile sup norm 0.400 exceeds the validated neighborhood (0.3)",
    }


def _library_records(report):
    return [{"iteration": i, **dataclasses.asdict(rec)} for i, rec in enumerate(report.iterations)]


def test_iteration_records_match_the_library(capsys):
    # solve and every sweep run report each Newton iteration with all of its
    # fields, as floats equal to the library's
    sf = gbyamabe.space_form(5, 1.0, gbyamabe.REAL_PROJECTIVE)
    basis = gbyamabe.zonal_basis(5, gbyamabe.SolverConfig().mode_cutoff)
    code, report = run_cli(capsys, ["solve", "--coeffs", "2:0.03,4:0.01"])
    assert code == 0
    modes = [0.0] * (basis.max_mode + 1)
    modes[2], modes[4] = 0.03, 0.01
    psi = gbyamabe.field_from_modes(basis, modes, parity="even")
    expected = gbyamabe.newton_solve(sf, psi, 2)
    assert report["results"]["steps"] == expected.steps > 0
    assert report["results"]["iterations"] == _library_records(expected)
    amplitudes = [0.0, 0.02, 0.04, 0.06]
    code, report = run_cli(capsys, ["sweep", "--amplitudes", ",".join(map(str, amplitudes))])
    assert code == 0
    runs = gbyamabe.continuation_sweep(sf, gbyamabe.mode_field(basis, 2, 1.0), amplitudes, 2)
    assert [entry["amplitude"] for entry in report["results"]["runs"]] == amplitudes
    assert [entry["iterations"] for entry in report["results"]["runs"]] == [_library_records(r) for _, r in runs]
    assert any(entry["steps"] > 0 for entry in report["results"]["runs"])


def test_json_output_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["spectrum", "--n", "5", "--output", str(target)])
    out = capsys.readouterr().out
    assert code == 0
    assert target.read_text() == out


def test_reports_are_byte_identical(capsys):
    main(["solve"])
    first = capsys.readouterr().out
    main(["solve"])
    second = capsys.readouterr().out
    assert first == second


def test_unknown_command_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["bogus"])
    with pytest.raises(SystemExit):
        main([])


def test_module_entry_point():
    # the child imports the package from where this process did, which pytest
    # may have put on sys.path without touching PYTHONPATH
    src = str(Path(gbyamabe.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "gbyamabe.cli", "invariants", "--n", "5", "--k", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["results"]["routes_agree"] is True


def _readme_section():
    """The README's Command line section, up to the next heading."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return text.split("## Command line", 1)[1].split("\n## ", 1)[0]


def _readme_commands():
    """The gbyamabe lines of the README's Command line block."""
    block = _readme_section().split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("gbyamabe ")]


def test_readme_lists_commands():
    assert len(_readme_commands()) >= 9


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_commands_parse(line):
    # a subcommand or flag removed from the parser cannot stay documented
    try:
        build_parser().parse_args(shlex.split(line)[1:])
    except SystemExit:
        pytest.fail(f"README documents a command the parser refuses: {line}")


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_commands_print_strict_json(capsys, monkeypatch, tmp_path, line):
    monkeypatch.chdir(tmp_path)  # for the line that writes --output
    main(shlex.split(line)[1:])
    report = strict_json(capsys.readouterr().out)
    assert "results" in report


def test_non_finite_inputs_are_echoed_as_strings(capsys):
    code, report = run_cli(capsys, ["spectrum", "--n", "5", "--mu", "nan"])
    assert code == 2
    assert report["inputs"]["mu"] == "nan"


def test_readme_flags_exist():
    # every --flag the Command line section names, exit-code table included,
    # is an option of some subcommand: a removed flag cannot stay documented
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", _readme_section()))
    (subs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {opt for sub in subs.choices.values() for action in sub._actions for opt in action.option_strings}
    assert len(flags) >= 20
    assert sorted(flags - options) == []
