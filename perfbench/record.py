"""Record the expected outputs: `python3 perfbench/record.py` from the root
of a checkout.

Runs one pass of every workload at the default seed and writes each job's
exit code and stdout digest to `perfbench/expected.json`.  A pass whose
outputs break a seed-independent invariant is not recorded.  Record only
at a commit whose outputs are known good; a benchmark run compares every
corpus job, and every job of a run at the default seed, with these digests.
"""

import json
import sys

import run
import workloads


def main() -> int:
    recorded = {}
    for name in workloads.BUILDERS:
        tag = f"{name}-seed{workloads.DEFAULT_SEED}"
        workload = workloads.build(name, workloads.DEFAULT_SEED,
                                   run.WORK_DIR / "inputs" / tag)
        _, result = run.Worker(workload, tag).run()
        jobs = {j["id"]: j for j in result["jobs"]} if result else {}
        failed = workloads.check_pass(workload, jobs, None)
        if failed:
            for job_id, reason in sorted(failed.items()):
                print(f"{name} {job_id}: {reason}", file=sys.stderr)
            return 1
        recorded[name] = {
            job_id: {"rc": j["rc"], "sha256": workloads.digest(j["stdout"])}
            for job_id, j in jobs.items()
        }
        print(f"{name}: {len(jobs)} jobs recorded")
    doc = {"seed": workloads.DEFAULT_SEED, "workloads": recorded}
    path = run.BENCH_DIR / "expected.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
