"""Mutation sweep of the solver's honesty checks, the closed-form constants,
the dense evaluator's memory bound and the solver's use of it, the exact
Newton Jacobian's partials and volume row, the product
kernel's signs, the normalization of the exterior powers behind every frame
change, the background curvature of the conformal pipeline, the refusals
of curvatures whose volume or power leaves the floats, the signs and
factors of the Kronecker route, the metric rule's standard metric and the
CLI's strict JSON reports.

Each mutant is a one-line edit of a gate, a bound or a reported number. For
each, the sweep copies the repository to a temporary directory, applies the
edit, runs the Tier-1 suite there and prints the tests that caught it: those
that failed and failed again when rerun on the mutant. A test that passes on
the rerun is printed as flaky. A mutant that no test catches is printed as
SURVIVED.

Run from the repository root (standard library only; about 15 s per mutant):

    python tests/mutation_sweep.py            # every mutant
    python tests/mutation_sweep.py gauge      # the mutants whose name contains "gauge"

The exit status is the number of mutants that survived.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NEWTON = "src/gbyamabe/newton.py"
SPACEFORM = "src/gbyamabe/spaceform.py"
INVARIANTS = "src/gbyamabe/invariants.py"
FORMS = "src/gbyamabe/forms.py"
VALIDATE = "src/gbyamabe/_validate.py"
CLI = "src/gbyamabe/cli.py"

# (name, file, old text, new text, why); each old text occurs once in its file
MUTANTS = [
    (
        "singular-gate",
        NEWTON,
        "        if smin <= 1e-10 * svals[0]:\n",
        "        if smin < 0.0:\n",
        "a rank-deficient Jacobian is solved through anyway",
    ),
    (
        "gauge",
        SPACEFORM,
        "    return ell[_laplace_eigenvalue(ell, sf) != sf.n * sf.curvature]\n",
        "    return ell\n",
        "the sphere keeps its l = 1 Moebius kernel among the unknowns",
    ),
    (
        "tol-volume",
        NEWTON,
        "if resid_sup <= cfg.tol_residual and drift <= cfg.tol_volume:",
        "if resid_sup <= cfg.tol_residual:",
        "converged ignores the volume tolerance",
    ),
    (
        "drift-report",
        NEWTON,
        "    drift = abs(vol - sf.reference_volume) / sf.reference_volume\n    return IterationRecord(",
        "    drift = abs(vol - sf.reference_volume) / sf.reference_volume / 10\n    return IterationRecord(",
        "the reported volume drift is ten times too small",
    ),
    (
        "certificate-and",
        NEWTON,
        "passed = variation <= threshold and sup_dev <= threshold",
        "passed = variation <= threshold or sup_dev <= threshold",
        "the certificate passes a constant invariant that is not the reported one",
    ),
    (
        "sup-norm-gate",
        NEWTON,
        "    if sup_norm(psi_b) > _SUP_NORM_LIMIT:\n",
        "    if sup_norm(psi_b) > 10 * _SUP_NORM_LIMIT:\n",
        "profiles outside the validated neighborhood are solved",
    ),
    (
        "line-search-decrease",
        NEWTON,
        "new_norm <= (1.0 - 1e-4 * lam) * old_norm",
        "new_norm <= (1.0 + 0.1 * lam) * old_norm",
        "a step that grows the residual by up to 10% is accepted",
    ),
    (
        "line-search-floor",
        NEWTON,
        "            if new_norm <= (1.0 - 1e-4 * lam) * old_norm:\n",
        "            if new_norm <= (1.0 - 1e-4 * lam) * old_norm or new_norm <= cfg.tol_residual:\n",
        "any step is accepted once the projected residual is below the tolerance",
    ),
    (
        "two-block-radial",
        INVARIANTS,
        "    return lead * math.comb(n - 1, 2 * k), lead * math.comb(n - 1, 2 * k - 1)\n",
        "    return lead * math.comb(n - 1, 2 * k), lead * math.comb(n - 1, 2 * k - 1) + 1\n",
        "the radial coefficient B of the two-block closed form is off by one",
    ),
    (
        "predictor-zero-order",
        NEWTON,
        "            ratio = (amp - a1) / (a1 - a0) if len(branch) == 2 else 0.0\n",
        "            ratio = 0.0\n",
        "the sweep starts each solve from the last converged point, not the secant",
    ),
    (
        "predictor-keeps-branch-after-failure",
        NEWTON,
        "            branch = []\n            continue\n",
        "            continue\n",
        "a solve after a non-converged one starts from the old branch, not cold",
    ),
    (
        "sweep-gate-late",
        NEWTON,
        "        _solver_profile(sf, field_from_modes(direction.basis, amp * direction.modes, parity=direction.parity), basis)\n",
        "        field_from_modes(direction.basis, amp * direction.modes, parity=direction.parity)\n",
        "the sweep checks an amplitude only when its solve starts, after earlier solves ran",
    ),
    (
        "chunk-ignores-budget",
        SPACEFORM,
        "    return max(1, _GATHER_BUDGET // _gather_entries(n, k, pipeline))\n",
        "    return 1 << 62\n",
        "the dense evaluator runs a whole batch as one chunk, whatever its gathers hold",
    ),
    (
        "square-undoubled",
        FORMS,
        "    col_signs = 2.0 * col_signs\n",
        "    col_signs = 1.0 * col_signs\n",
        "the square route sums half of each run of row splits without doubling the result",
    ),
    (
        "column-signs-dropped",
        FORMS,
        '    return np.einsum("...mcn,cn->...mn", terms, col_signs)\n',
        "    return terms.sum(axis=-2)\n",
        "the product sums each run of column splits without their signs",
    ),
    (
        "exterior-power-unnormalized",
        FORMS,
        "    return power / math.factorial(p)\n",
        "    return power\n",
        "a frame change applies p! times the p-th exterior power of the frame",
    ),
    (
        "conformal-base-doubled",
        SPACEFORM,
        "((mu / 2) * _metric_square(n) - gT)",
        "(mu * _metric_square(n) - gT)",
        "the conformal pipeline starts from twice the space form's curvature operator",
    ),
    (
        "dense-k2-widened",
        NEWTON,
        "    return k == 2 and sf.n == 5\n",
        "    return k == 2 and sf.n >= 5\n",
        "the solver runs the dense k = 2 path and its central differences at every n, not only at the traced n = 5",
    ),
    (
        "partials-cross-term-dropped",
        SPACEFORM,
        "        d_sph = d_sph + (k - 1) * B * k_rad * k_sph ** (k - 2)\n",
        "        d_sph = d_sph\n",
        "the exact Jacobian drops the (k - 1) B k_rad k_sph^(k - 2) term of dS/dk_sph",
    ),
    (
        "partials-sph-slope",
        SPACEFORM,
        "-scale * (cot * d_rad + 2.0 * (cot + dv) * d_sph)",
        "-scale * (cot * d_rad + 2.0 * cot * d_sph)",
        "the exact Jacobian drops phi' from dk_sph/dphi', a term that vanishes at the space form",
    ),
    (
        "volume-row-without-n",
        NEWTON,
        "        factor = sf.n * _sphere_factor(",
        "        factor = _sphere_factor(",
        "the exact Jacobian's volume row drops the factor n of d e^{n phi} / d phi",
    ),
    (
        "reference-volume-unchecked",
        SPACEFORM,
        "        if not (math.isfinite(vol) and vol > 0):\n",
        "        if False:\n",
        "a space form whose reference volume overflows or underflows is built",
    ),
    (
        "kronecker-tau-sign",
        INVARIANTS,
        "(sigma_sign @ terms.sum(axis=0) @ tau_sign)",
        "(sigma_sign @ terms.sum(axis=0).sum(axis=1))",
        "the Kronecker route sums the pair partitions without their signs",
    ),
    (
        "kronecker-factor",
        INVARIANTS,
        "    for factor in factors[1:]:\n",
        "    for factor in factors[:-1]:\n",
        "the Kronecker route multiplies factor 0 twice and drops the last factor",
    ),
    (
        "metric-identity-by-dim",
        FORMS,
        "if frame is None and (g is standard or np.array_equal(G, eye)):",
        "if frame is None and (g.dim == dim or np.array_equal(G, eye)):",
        "every metric of the right dimension is taken for the standard one",
    ),
    (
        "power-overflow-unchecked",
        VALIDATE,
        "    if not math.isfinite(power):\n",
        "    if False:\n",
        "a curvature whose k-th power overflows gives an infinite closed form",
    ),
    (
        "closed-form-overflow-unchecked",
        VALIDATE,
        "    if not math.isfinite(scaled):\n",
        "    if False:\n",
        "a curvature whose power is finite but whose closed form overflows gives an infinite closed form",
    ),
    (
        "report-finite-unchecked",
        CLI,
        '        _check_finite(results, "results")\n',
        "",
        "a result that is not a finite float reaches the strict JSON encoder unnamed",
    ),
    (
        "input-non-finite-echoed",
        CLI,
        "str(val) if isinstance(val, float) and not math.isfinite(val) else val",
        "val",
        "a non-finite input is echoed as a float, which strict JSON cannot hold",
    ),
]

TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "results", "*.egg-info")


def _failures(tree: Path, tests: list[str]) -> list[str]:
    env = {**os.environ, "PYTHONPATH": "src"}
    done = subprocess.run(TIER1 + tests, cwd=tree, capture_output=True, text=True, env=env)
    # a test id may hold spaces (the README commands'), so it runs up to " - message"
    return re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", done.stdout, flags=re.MULTILINE)


def run_mutant(file: str, old: str, new: str) -> tuple[list[str], list[str]]:
    """Tier-1 on a copy of the repository with old replaced by new: the tests
    that failed, then failed again when rerun (caught), and those that
    passed on the rerun (flaky, so they prove nothing)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        path = tree / file
        text = path.read_text()
        if text.count(old) != 1:
            raise SystemExit(f"{file}: the text to mutate occurs {text.count(old)} times, expected once")
        path.write_text(text.replace(old, new))
        failed = _failures(tree, [])
        again = set(_failures(tree, failed)) if failed else set()
    return [t for t in failed if t in again], [t for t in failed if t not in again]


def main(argv: list[str]) -> int:
    survivors = 0
    for name, file, old, new, why in MUTANTS:
        if argv and not any(pattern in name for pattern in argv):
            continue
        caught, flaky = run_mutant(file, old, new)
        survivors += not caught
        print(f"{name}: {why}")
        for test in caught:
            print(f"  caught by {test}")
        for test in flaky:
            print(f"  flaky, passed on rerun: {test}")
        if not caught:
            print("  SURVIVED")
    return survivors


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
