"""One benchmark pass in a fresh process: `python3 perfbench/worker.py MANIFEST`.

Run from the root of a checkout.  The worker imports mckay from `src/`,
parses every input of the pass, and writes one line to stdout to mark the
end of its set-up.  Unless the manifest asks for set-up only, it then runs
the jobs one after another and writes one JSON line with the pass timings,
its peak memory and every job's exit code and captured output.  With
tracing on it also writes the spans and counts to the manifest's trace path.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback

sys.path.insert(0, "src")

import mckay  # noqa: E402
import mckay.cli  # noqa: E402
from mckay import groupfile, toric  # noqa: E402


def _chain(path: str) -> str:
    """The n = 4 work of `mckay toric check` by public library calls."""
    spec = groupfile.parse_group_file(path).to_spec()
    lattice = toric.build_lattice(spec)
    juniors = toric.junior_points(lattice)
    gamma2 = toric.gamma2_hyperplane_count(lattice)
    witness = toric.condition_i(lattice)
    point = getattr(witness, "witness", None)
    return json.dumps({
        "index": lattice.index,
        "junior_count": len(juniors),
        "gamma2_hyperplane_count": gamma2,
        "condition_i": witness.holds,
        "witness": ",".join(map(str, point)) if point else None,
    }, sort_keys=True) + "\n"


def _run_job(job: dict) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if job["chain"]:
                out.write(_chain(job["chain"]))
                rc = 0
            else:
                rc = mckay.cli.main(list(job["argv"]))
        except SystemExit as exc:  # argparse rejects an argument list
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash counts as a failed job, the pass goes on
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue()


def main(manifest_path: str) -> int:
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    tracer = None
    if manifest["trace"]:
        from tracer import Tracer  # beside this script, on sys.path

        tracer = Tracer()
        tracer.install(mckay)
    for path in manifest["inputs"]:
        groupfile.parse_group_file(path)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if manifest["setup_only"]:
        return 0

    jobs = []
    cpu0, t0 = time.process_time(), time.perf_counter()
    for job in manifest["jobs"]:
        if tracer:
            tracer.begin_job(job["id"])
        j0 = time.perf_counter()
        rc, stdout, stderr = _run_job(job)
        seconds = time.perf_counter() - j0
        if tracer:
            tracer.end_job(seconds)
        jobs.append({"id": job["id"], "rc": rc, "seconds": seconds,
                     "stdout": stdout, "stderr": stderr})
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": jobs,
    }
    if tracer:
        result["layers"] = tracer.metrics()
        tracer.write(manifest["trace_out"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
