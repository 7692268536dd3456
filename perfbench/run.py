"""Benchmark of certified Newton solves and the dense oracle path.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-n5 --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 runs the same rounds
once untraced and once with spans around the calls between the package's
modules, and prints the per-layer metrics. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

# One BLAS/OpenMP thread, set before numpy loads: with OpenBLAS's default two
# threads a solve burns twice the CPU for the same wall time and repeats far
# less steadily.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GB_THREADS", None)  # the package's own default: no thread pool

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

SETUP_REPS = 3
CLI_REPS = 3


def metric_units(section):
    """Units by metric name for one section of BENCHMARK.json, which is the
    one list of the metrics this command prints."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="solve-n5, solve-n7 or verify")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import the package from this checkout's src/ and nowhere else."""
    if not (SRC / "gbyamabe" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'gbyamabe'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import gbyamabe

    return gbyamabe


def reset_package_caches():
    """Empty every lru_cache and module-level *_cache dict of the package, so
    a repeated set-up pays for the lazily built tables and bases again."""
    for key, module in list(sys.modules.items()):
        if key != "gbyamabe" and not key.startswith("gbyamabe."):
            continue
        for attr, value in vars(module).items():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
            elif isinstance(value, dict) and attr.endswith("_cache"):
                value.clear()


class Tally:
    """Op outcomes of one phase: durations of completed ops by kind, failed
    ops (the op raised) and check failures (the op returned a wrong result)."""

    def __init__(self):
        self.durations: list[tuple[str, float]] = []
        self.failed = 0
        self.errors: list[str] = []
        self.op_walls: dict[int, float] = {}  # root span index -> op duration, traced ops

    def run(self, op, tracer=None, count=True):
        span = None
        start = time.perf_counter()
        try:
            if tracer is None:
                out = op.run()
            else:
                with tracer.root("op", op.kind) as span:
                    out = op.run()
        except Exception as exc:  # a raising op is a failed op; the run goes on
            if count:
                self.failed += 1
            self.errors.append(f"{op.kind}: raised {type(exc).__name__}: {exc}")
            return
        elapsed = time.perf_counter() - start
        if count:
            self.durations.append((op.kind, elapsed))
        if span is not None:
            self.op_walls[span] = elapsed
        self.errors.extend(f"{op.kind}: {msg}" for msg in op.check(out))

    @property
    def attempted(self) -> int:
        return len(self.durations) + self.failed

    def times(self) -> list[float]:
        return [t for _, t in self.durations]


def run_rounds(pool, seconds, tally, tracer=None, stick=None):
    """Whole rounds from the start of the pool until `seconds` have passed,
    visiting the yardstick, if given, after every op."""
    start = time.perf_counter()
    rounds = 0
    while True:
        for op in pool[rounds % len(pool)]:
            tally.run(op, tracer)
            if stick is not None:
                stick.visit()
        rounds += 1
        if time.perf_counter() - start >= seconds:
            return rounds


def set_up(workloads, name, seed, tally):
    """Input generation plus one untimed warm-up round; returns the pool and
    the time taken."""
    start = time.perf_counter()
    warmup, pool = workloads.prepare(name, seed)
    for op in warmup:
        tally.run(op, count=False)
    return pool, time.perf_counter() - start


def tail_percentile(times):
    """Highest whole percentile with at least ten samples above it, by
    nearest rank; None below 40 samples."""
    n = len(times)
    if n < 40:
        return None
    ordered = sorted(times)
    pct = math.floor(100.0 * (n - 10) / n)
    rank = math.ceil(pct / 100.0 * n)
    return pct, ordered[rank - 1], n - rank


def kind_medians(tally):
    kinds = {}
    for kind, t in tally.durations:
        kinds.setdefault(kind, []).append(t)
    return {kind: {"p50_s": statistics.median(ts), "ops": len(ts)} for kind, ts in sorted(kinds.items())}


def mix_median(tally):
    """Mean over op kinds of each kind's median time; every kind occurs once
    in a round. With one kind it is the plain median; with several it does
    not fall in the gap between two kinds' clusters of times."""
    return statistics.fmean(entry["p50_s"] for entry in kind_medians(tally).values())


def package_env():
    """This process's environment (one BLAS thread) with src/ on the path."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))


def cold_import_s():
    """Wall time of a fresh interpreter that imports the package and exits:
    the start-up a user pays before the first call."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import gbyamabe"], cwd=ROOT, env=package_env(), check=True, timeout=120)
    return time.perf_counter() - start


def cli_cold_start():
    """Wall time of a cold `python -m gbyamabe.cli spectrum --n 5`, checked
    against the projective gap 2 (n + 1) and the critical level n."""
    cmd = [sys.executable, "-m", "gbyamabe.cli", "spectrum", "--n", "5"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=package_env(), capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    errors = []
    if proc.returncode != 0:
        errors.append(f"cli spectrum exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
    else:
        results = json.loads(proc.stdout)["results"]
        if (results["lambda1"], results["critical_level"], results["gap_clears"]) != (12.0, 5.0, True):
            errors.append(f"cli spectrum reported {results}, expected lambda1 12, critical level 5")
    return elapsed, errors


def cli_report_overhead(gb):
    """In-process `gbyamabe solve` minus the same library solve and
    certificate: the cost of argument parsing and the JSON report."""
    from gbyamabe import cli

    argv = ["solve", "--n", "5", "--k", "2", "--mode", "2", "--amp", "0.05"]
    sf = gb.space_form(5, 1.0, gb.REAL_PROJECTIVE)
    psi = gb.mode_field(gb.zonal_basis(5, 16), 2, 0.05)
    gaps, errors = [], []
    for _ in range(CLI_REPS):
        start = time.perf_counter()
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        mid = time.perf_counter()
        report = gb.newton_solve(sf, psi, 2)
        gb.fixed_point_certificate(sf, psi, report, k=2)
        end = time.perf_counter()
        gaps.append((mid - start) - (end - mid))
        results = json.loads(buf.getvalue()).get("results", {})
        if code != 0 or results.get("status") != "converged" or not results.get("certificate", {}).get("passed"):
            errors.append(f"cli solve exited {code} with status {results.get('status')!r}")
    return statistics.median(gaps), errors


def layer_metrics(tracing, tracer, untraced, traced, gb):
    """Per-layer figures from the traced phase (per op unless the name says
    per run), plus the tracing overhead against the untraced phase."""
    roots = tracing.summarize(tracer.spans)
    ops = [root for root in roots.values() if root["name"] == "op"]

    def aggregate(selected):
        out = {}
        for root in selected:
            for name, entry in root["names"].items():
                acc = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "info": 0})
                for key in acc:
                    acc[key] += entry[key]
        return out

    per_op = aggregate(ops)
    whole = aggregate(roots.values())
    n_ops = max(1, len(ops))

    def op_mean(name, key):
        return per_op.get(name, {}).get(key, 0) / n_ops

    solves = per_op.get("newton.solve", {}).get("calls", 0)
    steps = per_op.get("newton.solve", {}).get("info", 0)
    evals = per_op.get("newton.evaluate", {}).get("calls", 0)

    def per_solve(value):
        return value / solves if solves else 0.0

    gb_s = op_mean("spaceform.gb_values", "total")
    gb_nodes = op_mean("spaceform.gb_values", "info")
    errors = tracing.accounting_errors(roots, traced.op_walls)

    cold = [cli_cold_start() for _ in range(CLI_REPS)]
    errors += [msg for _, errs in cold for msg in errs]
    report_s, report_errors = cli_report_overhead(gb)
    errors += report_errors

    untraced_rate = len(untraced.durations) / sum(untraced.times())
    traced_rate = len(traced.durations) / sum(traced.times())
    values = {
        "forms.product_s": op_mean("forms.product", "total"),
        "forms.product_calls": op_mean("forms.product", "calls"),
        "forms.product_gather_mb": op_mean("forms.product", "info") / 1e6,
        "forms.contract_s": op_mean("forms.contract", "total"),
        "forms.contract_calls": op_mean("forms.contract", "calls"),
        "indexing.tables_s": sum(whole.get(n, {}).get("total", 0.0) for n in ("indexing.split_tables", "indexing.insertion_tables")),
        "spaceform.basis_s": whole.get("spaceform.zonal_basis", {}).get("total", 0.0),
        "spaceform.gb_s": gb_s,
        "spaceform.gb_nodes": gb_nodes,
        "spaceform.gb_us_per_node": 1e6 * gb_s / gb_nodes if gb_nodes else 0.0,
        "newton.steps": per_solve(steps),
        "newton.jacobians": per_solve(per_op.get("newton.jacobian", {}).get("calls", 0)),
        "newton.residual_evals": per_solve(evals),
        "newton.backtracks": per_solve(evals - solves - steps) if "newton.evaluate" not in tracer.absent else 0.0,
        "newton.jacobian_s": op_mean("newton.jacobian", "self"),
        "newton.svd_s": op_mean("linalg.svd", "total"),
        "newton.self_s": op_mean("newton.solve", "self"),
        "newton.certificate_s": op_mean("newton.certificate", "total"),
        "invariants.gauss_bonnet_s": op_mean("invariants.gauss_bonnet", "total"),
        "invariants.kronecker_s": op_mean("invariants.kronecker", "total"),
        "linearization.constants_s": op_mean("linearization.generalized_constants", "total"),
        "cli.cold_start_s": statistics.median(t for t, _ in cold),
        "cli.report_s": report_s,
        "trace.overhead_pct": 100.0 * (untraced_rate / traced_rate - 1.0),
        "trace.remainder_s": sum(root["remainder"] for root in ops) / n_ops,
    }
    notes = {
        "ops_traced": len(ops),
        "solves_traced": solves,
        "overhead_base": f"untraced {untraced_rate:.6g} ops/s over {len(untraced.durations)} ops; "
        f"traced {traced_rate:.6g} ops/s over {len(traced.durations)} ops",
        "gather_bytes": "computed from shapes: both gathered operands and their product, float64",
        "absent": tracer.absent,
        "unaccounted_max_s": max((abs(roots[i]["wall"] - wall) for i, wall in traced.op_walls.items()), default=0.0),
        "kinds": kind_medians(traced),
    }
    return values, notes, errors


def main(argv=None) -> int:
    args = parse_args(argv)
    gb = import_package()
    sys.path.insert(0, str(BENCH_DIR))
    import tracing
    import workloads
    import yardstick

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    warm = Tally()
    timed = Tally()
    notes = {}

    if not args.trace:
        phases = [timed]
        import_times, setup_times = [], []
        with yardstick.Yardstick() as stick:
            for rep in range(SETUP_REPS):
                if rep:
                    reset_package_caches()
                stick.sample()
                import_times.append(cold_import_s())
                pool, elapsed = set_up(workloads, args.workload, args.seed, warm)
                setup_times.append(elapsed)
            stick.sample()
            notes["rounds"] = run_rounds(pool, args.seconds, timed, stick=stick)
        times = timed.times()
        wall = {
            "setup_s": statistics.median(import_times) + statistics.median(setup_times),
            "op_s_p50": mix_median(timed),
            "ops_per_s": len(times) / sum(times),
        }
        parts = workloads.YARDSTICK_PARTS[args.workload]
        scale = stick.scale(parts)
        values = {
            "setup_s": scale * wall["setup_s"],
            "op_s_p50": scale * wall["op_s_p50"],
            "ops_per_s": wall["ops_per_s"] / scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        notes.update(
            wall=wall,
            yardstick={
                "scale": scale,
                "parts": parts,
                "nominal_s": sum(yardstick.NOMINAL_S[part] for part in parts),
                "median_s": stick.median_s(parts),
                "parts_s": stick.part_medians_s(),
                "samples": len(stick.samples),
            },
            import_samples_s=import_times,
            setup_samples_s=setup_times,
            kinds=kind_medians(timed),
        )
        tail = tail_percentile(times)
        if tail is not None:
            notes["tail"] = {"percentile": tail[0], "value_s": tail[1], "samples_beyond": tail[2], "samples": len(times)}
        errors = []
    else:
        untraced = Tally()
        phases = [untraced, timed]
        tracer = tracing.Tracer()
        tracer.install()
        with tracer.root("setup", args.workload):
            pool, _ = set_up(workloads, args.workload, args.seed, warm)
        tracer.uninstall()
        run_rounds(pool, args.seconds / 2.0, untraced)
        tracer.install()
        notes["rounds"] = run_rounds(pool, args.seconds / 2.0, timed, tracer)
        tracer.uninstall()
        values, layer_notes, errors = layer_metrics(tracing, tracer, untraced, timed, gb)
        notes.update(layer_notes)
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl")

    units = metric_units("per_layer" if args.trace else "end_to_end")
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")
    errors = warm.errors + [msg for phase in phases for msg in phase.errors] + errors
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    for msg in errors[:20]:
        print(f"CHECK FAILED {msg}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {attempted} ops attempted, {failed} failed")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if "yardstick" in notes:
        stick = notes["yardstick"]
        print(
            f"timings above are on the yardstick scale: wall time x {stick['scale']:.6g} "
            f"(nominal {stick['nominal_s']:.6g} s / median {stick['median_s']:.6g} s of {stick['samples']} samples "
            f"of the yardstick parts {', '.join(stick['parts'])})"
        )
        for name, value in notes["wall"].items():
            print(f"wall {name} = {value:.6g} {units[name]}")
    if "tail" in notes:
        tail = notes["tail"]
        print(f"wall op_s_p{tail['percentile']} = {tail['value_s']:.6g} s ({tail['samples_beyond']} of {tail['samples']} samples beyond it; no bound)")
    if args.trace:
        print(f"trace.overhead_pct base: {notes['overhead_base']}")
        if notes["absent"]:
            print(f"absent (no longer defined, not traced): {', '.join(notes['absent'])}")

    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as handle:
        json.dump(dict(result, notes=notes, errors=errors), handle, indent=1, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
