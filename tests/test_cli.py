"""CLI: exit codes, JSON report shape, CSV output, determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gbyamabe
from gbyamabe.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_invariants_command(capsys):
    code, report = run_cli(capsys, ["invariants", "--n", "5", "--k", "2"])
    assert code == 0
    assert report["schema"] == 1
    assert report["command"] == "invariants"
    assert report["inputs"]["n"] == 5
    assert report["results"]["gauss_bonnet"] == pytest.approx(30.0, rel=1e-12)
    assert report["results"]["routes_agree"] is True
    assert report["results"]["conformal_coefficient"] == pytest.approx(12.0)


def test_invariants_with_calibration(capsys):
    code, report = run_cli(capsys, ["invariants", "--n", "5", "--k", "1", "--calibrate"])
    assert code == 0
    entry = report["calibration"]["5,1"]
    assert entry["constant"] == pytest.approx(0.25, rel=1e-10)
    assert entry["relative_spread"] <= 1e-10
    assert report["results"]["kronecker"] == pytest.approx(10.0, rel=1e-9)


def test_verify_algebra_command(capsys):
    code, report = run_cli(capsys, ["verify-algebra", "--cases", "20", "--dims", "3,4"])
    assert code == 0
    assert report["results"]["all_passed"] is True
    assert set(report["results"]["properties"]) >= {"adjointness", "associativity"}


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
    code, report = run_cli(
        capsys,
        ["spectrum", "--n", "6", "--mu", "-1", "--quotient", "hyperbolic", "--lambda1", "0.75"],
    )
    assert code == 0
    assert report["results"]["lambda1"] == 0.75


def test_calibrate_command(capsys):
    code, report = run_cli(capsys, ["calibrate", "--n", "5", "--k", "1"])
    assert code == 0
    assert report["results"]["constant"] == pytest.approx(0.25, rel=1e-10)
    assert "5,1" in report["calibration"]


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


def test_csv_output(tmp_path, capsys):
    target = tmp_path / "history.csv"
    code, report = run_cli(capsys, ["solve", "--output", str(target), "--format", "csv"])
    assert code == 0
    with open(target, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["iteration", "residual", "volume_drift", "step_norm"]
    assert len(rows) == report["results"]["steps"] + 2
    assert rows[1][0] == "0"


def test_json_output_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["spectrum", "--n", "5", "--output", str(target)])
    out = capsys.readouterr().out
    assert code == 0
    assert target.read_text() == out


def test_csv_needs_output_path(capsys):
    code, report = run_cli(capsys, ["solve", "--format", "csv"])
    assert code == 2
    assert "--output" in report["error"]["message"]


def test_csv_limited_to_iterative_commands(tmp_path, capsys):
    target = tmp_path / "bad.csv"
    code, report = run_cli(
        capsys, ["spectrum", "--n", "5", "--format", "csv", "--output", str(target)]
    )
    assert code == 2
    assert not target.exists()


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
