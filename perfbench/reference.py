"""Reference figures for the dense path, in the layout of ROADMAP item 1.

    python3 perfbench/reference.py

L1 times the pointwise invariant evaluator on a Jacobian-sized batch
(2 x 17 fields x 48 nodes) for each (n, k) from n5k2 to n8k3 and both
curvature pipelines; L3 times a certified Newton solve on RP^5 and RP^7
(profile: mode 2, sup amplitude 0.05). Each entry records its best wall time
and the peak RSS of this process after it. n9k4 is left out: one L1 batch
there takes about 150 s. Writes perfbench/results/reference.json.
"""

from run import RESULTS, import_package  # first: pins BLAS to one thread before numpy loads

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

L1_ORDERS = ((5, 2), (6, 2), (7, 2), (7, 3), (8, 2), (8, 3))
L3_SOLVES = ((5, 2), (7, 2), (7, 3))
ETA = 1e-6


def best_of(fn, reps):
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    gb = import_package()
    from gbyamabe.spaceform import _gb_values

    entries = []
    for n, k in L1_ORDERS:
        basis = gb.zonal_basis(n, 16)
        base = gb.mode_field(basis, 2, 0.05)
        pairs = ((base.values, basis.values), (base.dvalues, basis.dtheta), (base.ddvalues, basis.ddtheta))
        grids = [np.concatenate([f + ETA * b[:, :17].T, f - ETA * b[:, :17].T]) for f, b in pairs]
        reps = 3 if n < 8 else 1
        for pipeline in ("warped", "conformal"):
            wall = best_of(lambda: _gb_values(n, 1.0, k, basis, *grids, pipeline), reps)
            entries.append({"layer": "L1", "n": n, "k": k, "pipeline": pipeline, "evaluations": grids[0].size,
                            "best_s": wall, "reps": reps, "peak_rss_mb": peak_rss_mb()})
            print(f"L1 n{n}k{k} {pipeline:9s} {grids[0].size} evaluations: {wall:.4g} s, peak RSS {peak_rss_mb():.0f} MB", flush=True)
    for n, k in L3_SOLVES:
        sf = gb.space_form(n, 1.0, gb.REAL_PROJECTIVE)
        psi = gb.mode_field(gb.zonal_basis(n, 16), 2, 0.05)
        out = {}

        def solve():
            out["report"] = gb.newton_solve(sf, psi, k)
            out["cert"] = gb.fixed_point_certificate(sf, psi, out["report"], k=k)

        wall = best_of(solve, 3 if n < 7 else 2)
        steps, passed = out["report"].steps, out["cert"].passed
        entries.append({"layer": "L3", "n": n, "k": k, "steps": steps, "certified": passed,
                        "best_s": wall, "peak_rss_mb": peak_rss_mb()})
        print(f"L3 RP^{n} k={k}: {steps} steps, certified {passed}: {wall:.4g} s, peak RSS {peak_rss_mb():.0f} MB", flush=True)
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / "reference.json", "w") as handle:
        json.dump(entries, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
