import importlib.util
import json
import pathlib
import sys

import pytest

from mckay.cli import main

from conftest import group_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_info(capsys):
    data = run_json(capsys, "info", str(group_path("bd8")))
    assert data["schema_version"] == 1
    assert data["group"] == {
        "dimension": 2,
        "order": 8,
        "exponent": 4,
        "in_sl": True,
        "class_count": 5,
        "field_order": 4,
    }


def test_classes_cyclic7(capsys):
    data = run_json(capsys, "classes", str(group_path("cyclic_7_124")))
    ages = sorted(c["age"] for c in data["classes"])
    assert ages == [0, 1, 1, 1, 2, 2, 2]
    by_age = {}
    for c in data["classes"]:
        by_age.setdefault(c["age"], []).append(tuple(c["exponents"]))
    assert sorted(by_age[1]) == [(1, 2, 4), (1, 2, 4), (1, 2, 4)]
    assert sorted(by_age[2]) == [(3, 5, 6), (3, 5, 6), (3, 5, 6)]


def test_choice_inverse_swaps_ages(capsys):
    # the closed group is the same either way; inversion changes which
    # element the generator name denotes, so the generator's age flips
    std = run_json(capsys, "classes", str(group_path("cyclic_7_124")))
    inv = run_json(capsys, "classes", str(group_path("cyclic_7_124")),
                   "--choice", "inverse")

    def generator_class(data):
        return next(c for c in data["classes"] if c["representative"] == "g1")

    assert generator_class(std)["age"] == 1
    assert generator_class(std)["exponents"] == [1, 2, 4]
    assert generator_class(inv)["age"] == 2
    assert generator_class(inv)["exponents"] == [3, 5, 6]


def test_betti_trihedral(capsys):
    data = run_json(capsys, "betti", str(group_path("trihedral27")))
    assert (data["h0"], data["h2"], data["h4"]) == (1, 9, 1)
    assert data["euler"] == 11
    assert len(data["gamma1_zero"]) == 1
    assert len(data["gamma2"]) == 1
    assert data["fix_junior_check"] is True
    assert list(data["gamma1_zero_to_gamma2"]) == data["gamma1_zero"]


def test_toric_juniors(capsys):
    data = run_json(capsys, "toric", "juniors", str(group_path("cyclic_7_124")))
    assert data["crepant_divisor_count"] == 3
    assert "1/7,2/7,4/7" in data["junior_points"]


def test_toric_resolve(capsys):
    data = run_json(capsys, "toric", "resolve", str(group_path("cyclic_7_124")))
    assert len(data["simplices"]) == 7
    assert data["crepant_divisor_count"] == 3


def test_toric_check_terminal(capsys):
    data = run_json(capsys, "toric", "check", str(group_path("terminal_5_1423")))
    assert data["condition_i"] is False
    assert data["condition_i_witness"] is not None
    assert data["junior_count"] == 0
    assert data["gamma2_hyperplane_count"] == 4
    assert "condition_ii" not in data


def test_toric_check_cyclic7(capsys):
    data = run_json(capsys, "toric", "check", str(group_path("cyclic_7_124")))
    assert data["condition_i"] is True
    assert data["condition_ii"] is True
    assert data["simplex_count"] == 7


def test_toric_requires_diagonal_format(capsys):
    code, out, err = run(capsys, "toric", "juniors", str(group_path("bd8")))
    assert code == 2
    assert "diagonal" in err


def test_diagram_dot_deterministic(capsys):
    code1, out1, err1 = run(capsys, "diagram", str(group_path("bd8")))
    code2, out2, err2 = run(capsys, "diagram", str(group_path("bd8")))
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("graph G {")
    assert out1.count("--") == 3


def test_diagram_json(capsys):
    data = run_json(capsys, "diagram", str(group_path("bd12")),
                    "--format", "json")
    assert len(data["nodes"]) == 5
    assert len(data["edges"]) == 4


def test_diagram_rejects_dimension3(capsys):
    code, out, err = run(capsys, "diagram", str(group_path("trihedral27")))
    assert code == 3
    assert "dimension 2" in err


def test_ram_junior_class(capsys):
    classes = run_json(capsys, "classes", str(group_path("cyclic_7_124")))
    junior = next(c for c in classes["classes"]
                  if c["age"] == 1 and c["exponents"] == [1, 2, 4])
    data = run_json(capsys, "ram", str(group_path("cyclic_7_124")),
                    "--class", str(junior["id"]))
    assert data["ramification_degree"] == 7
    assert data["a_F"] == 6
    assert data["a_E"] == "0"
    assert data["experimental"] is False
    assert data["fingerprint"]["1,1,1"] == 1


def test_ram_senior_is_experimental(capsys):
    classes = run_json(capsys, "classes", str(group_path("cyclic_7_124")))
    senior = next(c for c in classes["classes"] if c["age"] == 2)
    data = run_json(capsys, "ram", str(group_path("cyclic_7_124")),
                    "--class", str(senior["id"]), "--probe", "3")
    assert data["experimental"] is True
    assert data["probe_degree"] == 3


def test_ram_rejects_identity_and_bad_id(capsys):
    classes = run_json(capsys, "classes", str(group_path("bd8")))
    ident = next(c for c in classes["classes"] if c["age"] == 0)
    code, _, err = run(capsys, "ram", str(group_path("bd8")),
                       "--class", str(ident["id"]))
    assert code == 3
    code, _, err = run(capsys, "ram", str(group_path("bd8")), "--class", "99")
    assert code == 3


def test_missing_file(capsys):
    code, out, err = run(capsys, "info", "no_such_file.grp")
    assert code == 2
    assert err


def test_parse_error_reports_position(capsys, tmp_path):
    bad = tmp_path / "bad.grp"
    bad.write_text(
        "format matrix\ndimension 2\ncyclotomic_order 4\n"
        "generator A\nz, q\n0, 1\n"
    )
    code, out, err = run(capsys, "info", str(bad))
    assert code == 2
    assert "line 5" in err


def test_max_order_cap(capsys):
    code, out, err = run(capsys, "info", str(group_path("bd8")),
                         "--max-order", "4")
    assert code == 4
    assert "cap" in err


def test_output_is_sorted_and_stable(capsys):
    code1, out1, _ = run(capsys, "betti", str(group_path("trihedral27")))
    code2, out2, _ = run(capsys, "betti", str(group_path("trihedral27")))
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert json.dumps(data, indent=2, sort_keys=True) + "\n" == out1


def test_corpus_stdout_matches_recorded_digests(capsys, monkeypatch):
    # The benchmark's corpus workload (every command on every groups/ file)
    # must reproduce the exit codes and stdout digests it recorded.
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for dataclasses
    spec.loader.exec_module(workloads)
    recorded = json.loads((root / "perfbench" / "expected.json").read_text())
    expected = recorded["workloads"]["corpus"]
    jobs = workloads.corpus(workloads.DEFAULT_SEED, None).jobs
    assert {job.id for job in jobs} == set(expected)
    monkeypatch.chdir(root)  # job argv name groups/<file>.grp
    mismatched = {}
    for job in jobs:
        code, out, _ = run(capsys, *job.argv)
        got = {"rc": code, "sha256": workloads.digest(out)}
        if got != expected[job.id]:
            mismatched[job.id] = got
    assert mismatched == {}
