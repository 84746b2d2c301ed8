"""Tests of the benchmark itself: `python3 -m pytest perfbench` from the root
of a checkout.  They run a few short toric_dim4 passes (about 15 s)."""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _generated(workload, directory):
    return {Path(p).name: Path(p).read_bytes()
            for p in workload.inputs if Path(p).parent == directory}


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_generator_gives_identical_files_for_one_seed(tmp_path):
    changed = set()
    for name in workloads.BUILDERS:
        first = workloads.build(name, 7, tmp_path / name / "a")
        again = workloads.build(name, 7, tmp_path / name / "b")
        files = _generated(first, tmp_path / name / "a")
        assert files == _generated(again, tmp_path / name / "b")
        for seed in range(8, 13):
            other = workloads.build(name, seed, tmp_path / name / str(seed))
            assert [j.id for j in other.jobs] == [j.id for j in first.jobs]
            other_files = _generated(other, tmp_path / name / str(seed))
            assert other_files.keys() == files.keys()
            if other_files != files:
                changed.add(name)
    assert changed == {"abelian_scale", "cyclic_prime", "toric_dim4"}


def test_abelian_cross_check_counts_a_mismatch(tmp_path):
    workload = workloads.build("abelian_scale", 1, tmp_path)
    results = {}
    for job in workload.jobs:
        order = job.fact("order")
        out = {"group": {"order": order, "class_count": order},
               "crepant_divisor_count": 2,
               "classes": [{"age": a} for a in (0, 1, 1, 2)]}
        results[job.id] = {"rc": 0, "stdout": json.dumps(out)}
    assert workloads.check_pass(workload, results, None) == {}

    job_id = workload.jobs[0].id
    assert job_id.startswith("classes:")
    out = json.loads(results[job_id]["stdout"])
    out["classes"] = [{"age": a} for a in (0, 1, 2)]
    results[job_id]["stdout"] = json.dumps(out)
    stem = job_id.split(":")[1]
    assert set(workloads.check_pass(workload, results, None)) == {
        job_id, f"toric_resolve:{stem}"}


def test_altered_output_is_counted_as_failure(at_root):
    seed = workloads.DEFAULT_SEED
    tag = f"toric_dim4-seed{seed}"
    workload = workloads.build("toric_dim4", seed, run.WORK_DIR / "inputs" / tag)
    _, result = run.Worker(workload, f"{tag}-test").run()
    jobs = {j["id"]: j for j in result["jobs"]}
    recorded = json.loads((BENCH_DIR / "expected.json").read_text())
    digests = recorded["workloads"]["toric_dim4"]
    assert workloads.check_pass(workload, jobs, digests) == {}

    job_id = "chain:t4_r5"
    out = json.loads(jobs[job_id]["stdout"])
    out["junior_count"] += 1  # breaks the digest, not an invariant
    jobs[job_id] = dict(jobs[job_id], stdout=json.dumps(out, sort_keys=True) + "\n")
    assert set(workloads.check_pass(workload, jobs, digests)) == {job_id}
    assert workloads.check_pass(workload, jobs, None) == {}

    out["index"] += 1  # breaks an invariant too
    jobs[job_id]["stdout"] = json.dumps(out)
    assert set(workloads.check_pass(workload, jobs, None)) == {job_id}

    jobs[job_id] = dict(jobs[job_id], rc=3)
    assert "exit code" in workloads.check_pass(workload, jobs, None)[job_id]


def test_metric_names_match_benchmark_json(at_root, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= workloads.BUILDERS.keys()

    assert run.main(["--workload", "toric_dim4", "--seed", "3", "--seconds", "1"]) == 0
    report = _last_json(capsys)
    assert report["correct"] and report["failed"] == 0
    assert report["attempted"] == 2 * len(workloads.build(
        "toric_dim4", 3, run.WORK_DIR / "inputs" / "toric_dim4-seed3").jobs)
    assert {k: v["unit"] for k, v in report["metrics"].items()} == run.END_TO_END


def test_traced_toric_dim4_pass_makes_no_matrix_work(at_root, capsys):
    argv = ["--workload", "toric_dim4", "--seed", "3", "--seconds", "1", "--trace", "1"]
    assert run.main(argv) == 0
    report = _last_json(capsys)
    metrics = {k: v["value"] for k, v in report["metrics"].items()}
    assert metrics.keys() == run.PER_LAYER.keys()
    assert metrics["cyclo.mul_calls"] == 0
    assert metrics["matgroup.closures"] == 0
    assert metrics["toric.box_points"] > 0 and metrics["toric.condition_i_s"] > 0


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "corpus", "--seed", "1", "--seconds", "1"]) != 0
