"""The mckay benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run writes the workload's inputs for
the seed under `.bench_build/perfbench/`, then runs passes over the
workload's jobs, each pass in a fresh worker process, until the next pass
would end after S seconds (at least two passes).  It checks every job's
output, prints each metric by name with its unit, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones, medians over the
passes.  With --trace 1 untraced and traced passes alternate; the metrics
are the per-layer ones from the traced passes (counts from the first,
times as medians) and `trace_overhead`, the median ratio of traced to
untraced pass wall time.  Spans and counts go to
`.bench_build/perfbench/trace/`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

WORK_DIR = Path(".bench_build") / "perfbench"
SETUP_SAMPLES = 5  # set-up-only workers per run, besides one per pass
# Untraced runs median at least two passes; a traced round is two passes.
MIN_ROUNDS = {False: 2, True: 1}
# Seconds; a run must end within 180 s even when the program gets slower.
WORKER_TIMEOUT = 100
ROUNDS_LIMIT = 160

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "job_p50_s": "s",
    "job_max_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "cyclo.mul_calls": "count",
    "cyclo.inverse_calls": "count",
    "cyclo.self_s": "s",
    "cyclo.fields_built": "count",
    "cyclo.field_build_s": "s",
    "linalg.mat_mul_calls": "count",
    "linalg.self_s": "s",
    "matgroup.closures": "count",
    "matgroup.elements": "count",
    "matgroup.close_s": "s",
    "matgroup.self_s": "s",
    "matgroup.mul_calls": "count",
    "matgroup.mul_hit_ratio": "ratio",
    "matgroup.lifts": "count",
    "matgroup.lift_s": "s",
    "age.eigen_exponents_calls": "count",
    "age.grade_s": "s",
    "age.self_s": "s",
    "toric.build_lattice_s": "s",
    "toric.condition_i_s": "s",
    "toric.resolve_s": "s",
    "toric.box_points": "count",
    "toric.self_s": "s",
    "valuation.eigen_decompose_s": "s",
    "valuation.stab_group_s": "s",
    "valuation.ram_group_s": "s",
    "valuation.self_s": "s",
    "quiver.fold_s": "s",
    "quiver.self_s": "s",
    "groupfile.parse_s": "s",
    "groupfile.parse_calls": "count",
    "groupfile.self_s": "s",
    "cli.self_s": "s",
    "trace_overhead": "ratio",
}


class Worker:
    """Starts worker processes for one workload and seed."""

    def __init__(self, workload: workloads.Workload, tag: str):
        self.workload = workload
        self.tag = tag
        self.count = 0

    def run(self, setup_only=False, trace=False):
        """Run one worker; returns (set-up seconds, pass result or None).
        The result is None for a set-up-only worker and for a worker that
        failed, which the caller counts as a pass whose jobs all failed."""
        self.count += 1
        manifest = {
            "setup_only": setup_only,
            "trace": trace,
            "trace_out": str(WORK_DIR / "trace" / f"{self.tag}-pass{self.count}.json"),
            "inputs": list(self.workload.inputs),
            "jobs": [{"id": j.id, "argv": list(j.argv), "chain": j.chain}
                     for j in self.workload.jobs],
        }
        path = WORK_DIR / f"manifest-{self.tag}.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py"), str(path)],
                                stdout=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=WORKER_TIMEOUT)
        except subprocess.TimeoutExpired:
            print(f"worker still running after {WORKER_TIMEOUT} s", file=sys.stderr)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if ready != "ready\n" or proc.returncode != 0:
            print(f"worker exited with code {proc.returncode}", file=sys.stderr)
            return setup, None
        return setup, (None if setup_only else json.loads(rest))


def _passes(worker: Worker, seconds: float, trace: bool):
    """Run rounds until the next one would end after `seconds`, at least
    MIN_ROUNDS of them.  A round is one untraced pass, followed by one
    traced pass when tracing.  Yields (setup seconds, untraced result,
    traced result or None) per round."""
    start = time.perf_counter()
    for count in itertools.count(1):
        r0 = time.perf_counter()
        setup, plain = worker.run()
        traced = worker.run(trace=True)[1] if trace else None
        yield setup, plain, traced
        now = time.perf_counter()
        next_end = now - start + (now - r0)
        if next_end > ROUNDS_LIMIT or (count >= MIN_ROUNDS[trace] and next_end > seconds):
            return


def _end_to_end(passes, setups) -> dict:
    med = statistics.median
    return {
        "wall_s": med(r["wall_s"] for r in passes),
        "cpu_s": med(r["cpu_s"] for r in passes),
        "job_p50_s": med(med(j["seconds"] for j in r["jobs"]) for r in passes),
        "job_max_s": med(max(j["seconds"] for j in r["jobs"]) for r in passes),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in passes),
        "setup_s": med(setups),
    }


def _per_layer(pairs) -> tuple[dict, list[str]]:
    """Counts from the first traced pass, times as medians.  Also returns
    the counts that differ between traced passes, which they must not."""
    layers = [traced["layers"] for _, traced in pairs]
    metrics, unrepeated = {}, []
    for name, unit in PER_LAYER.items():
        if name == "trace_overhead":
            metrics[name] = statistics.median(t["wall_s"] / p["wall_s"] for p, t in pairs)
        elif unit == "count":
            metrics[name] = layers[0][name]
            if any(layer[name] != metrics[name] for layer in layers):
                unrepeated.append(name)
        else:
            metrics[name] = statistics.median(layer[name] for layer in layers)
    return metrics, unrepeated


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (Path("src/mckay/__init__.py").is_file() and Path("groups").is_dir()):
        print("error: run from the root of a mckay checkout "
              "(src/mckay/ and groups/ not found)", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}"
    (WORK_DIR / "trace").mkdir(parents=True, exist_ok=True)
    workload = workloads.build(args.workload, args.seed, WORK_DIR / "inputs" / tag)
    recorded = json.loads((BENCH_DIR / "expected.json").read_text(encoding="utf-8"))
    digests = None
    if args.workload == "corpus" or args.seed == recorded["seed"]:
        digests = recorded["workloads"].get(args.workload)

    worker = Worker(workload, tag)
    worker.run(setup_only=True)  # warm-up: bytecode caches, file cache
    setups = [worker.run(setup_only=True)[0] for _ in range(SETUP_SAMPLES)]
    plain, traced, failures = [], [], {}
    attempted = 0
    for setup, *results in _passes(worker, args.seconds, bool(args.trace)):
        setups.append(setup)
        for result in results if args.trace else results[:1]:
            attempted += len(workload.jobs)
            jobs = {j["id"]: j for j in result["jobs"]} if result else {}
            for job_id, reason in workloads.check_pass(workload, jobs, digests).items():
                failures.setdefault(job_id, []).append(reason)
        plain.append(results[0])
        traced.append(results[1])
    failed = sum(len(v) for v in failures.values())

    passes = [r for r in plain if r is not None]
    pairs = [(p, t) for p, t in zip(plain, traced) if p and t]
    if not (pairs if args.trace else passes):
        print("error: every pass failed", file=sys.stderr)
        return 1
    if args.trace:
        metrics, unrepeated = _per_layer(pairs)
        units = PER_LAYER
    else:
        metrics, unrepeated = _end_to_end(passes, setups), []
        units = END_TO_END

    print(f"mckay benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} python={platform.python_version()} nproc={os.cpu_count()}")
    print(f"jobs_per_pass={len(workload.jobs)} untraced_passes={len(passes)} "
          f"traced_passes={len(pairs)} setup_samples={len(setups)}")
    print("untraced pass wall_s: " + " ".join(f"{r['wall_s']:.4f}" for r in passes))
    for name, value in metrics.items():
        shown = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"  {name:<28} {shown:>14} {units[name]}")
    print(f"  {'fail_ratio':<28} {failed / attempted:>14.6f} ratio "
          f"({failed} of {attempted} jobs)")
    for job_id, reasons in sorted(failures.items()):
        print(f"  FAILED {job_id}: {reasons[0]} ({len(reasons)}x)")
    for name in unrepeated:
        print(f"  FAILED {name} differs between traced passes of one seed")
    print(json.dumps({
        "correct": not failures and not unrepeated,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
