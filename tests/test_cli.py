import importlib.util
import json
import pathlib
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mckay import cli, toric
from mckay.cli import main
from mckay.cyclo import MAX_FIELD_ORDER
from mckay.groupfile import GroupFile
from mckay.valuation import MAX_PROBE_MONOMIALS

from conftest import CORPUS, group_path


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


def test_toric_commands_build_no_matrix_group(capsys, monkeypatch):
    # the toric commands work on the overlattice alone: no closure, no field
    def refuse(*args, **kwargs):
        raise AssertionError("toric command built a matrix group or field")

    for target in ("mckay.groupfile.close_group", "mckay.groupfile.cyclotomic_field",
                   "mckay.toric.cyclotomic_field"):
        monkeypatch.setattr(target, refuse)
    for name in ("cyclic_7_124", "terminal_5_1423"):
        for action in ("juniors", "box", "resolve", "check"):
            for choice in ("standard", "inverse"):
                code, out, err = run(capsys, "toric", action,
                                     str(group_path(name)), "--choice", choice)
                if action == "resolve" and name == "terminal_5_1423":
                    assert (code, err) == (
                        3, "error: toric resolution implemented for n in "
                        "(2, 3), got 4\n")
                else:
                    assert code == 0, err
                    assert json.loads(out)["group"]["order"] in (5, 7)


def test_toric_max_order_cap_matches_closure(capsys):
    path = str(group_path("cyclic_7_124"))
    info = run(capsys, "info", path, "--max-order", "6")
    juniors = run(capsys, "toric", "juniors", path, "--max-order", "6")
    assert juniors == info
    assert info == (4, "", "error: closure exceeded cap of 6 elements; "
                    "group too large or infinite\n")
    assert run_json(capsys, "toric", "juniors", path, "--max-order", "7")[
        "group"]["order"] == 7


def test_choice_inverse_rejects_a_singular_generator(capsys, tmp_path):
    path = tmp_path / "singular.grp"
    path.write_text("format matrix\ndimension 2\ncyclotomic_order 4\n"
                    "generator A\n1, 0\n0, 0\n")
    for choice in ("standard", "inverse"):
        assert run(capsys, "info", str(path), "--choice", choice) == \
            (3, "", "error: non-invertible generator\n")


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


def test_parser_is_built_once_and_survives_a_rejected_argv(
        capsys, monkeypatch):
    # main keeps one parser per process: a call that argparse rejects, or
    # one that sets an option, must not change what a later call parses
    built, real_build = [], cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or real_build())
    argv = ["ram", "--class", "1", str(group_path("cyclic_7_124"))]
    code, recorded, _ = run(capsys, *argv)
    assert code == 0
    with pytest.raises(SystemExit):
        main(["ram", "--class", "one", str(group_path("cyclic_7_124"))])
    capsys.readouterr()
    assert run(capsys, *argv, "--probe", "3")[1] != recorded
    assert run(capsys, *argv) == (0, recorded, "")
    assert built == [1]


def test_ram_probe_cap(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "ram", "--class", "1", "--probe", "3000",
                         str(group_path("cyclic_7_124")))
    assert time.perf_counter() - start < 1
    assert (code, out) == (4, "")
    assert err == ("error: probe degree 3000 in dimension 3 gives 4509005500 "
                   f"monomials, over the limit of {MAX_PROBE_MONOMIALS}\n")


def test_ram_default_probe_fits_the_monomial_limit(capsys, tmp_path):
    # the exponent 83 would enumerate 102339 monomials; the default probe
    # is lowered to 82 (98769 monomials) instead of exiting 4
    path = tmp_path / "cyclic83.grp"
    path.write_text("format diagonal\ndimension 3\ngenerator 83 : 1 2 80\n")
    data = run_json(capsys, "ram", "--class", "1", str(path))
    assert data["probe_degree"] == 82


def _tamper_after_closing(monkeypatch, tamper):
    """Make `GroupFile.close` hand the CLI a group changed by `tamper`."""
    real_close = GroupFile.close

    def close(self, cap):
        group = real_close(self, cap)
        tamper(group)
        return group

    monkeypatch.setattr(GroupFile, "close", close)


def test_eigenvalues_that_miss_the_trace_are_an_internal_error(capsys, monkeypatch):
    # swap the matrices of x^2 and x^3 for x = g1^-1 in (1/7)(1,2,4): they
    # sit at places 5 and 4 of the walk of g1, past the traces Tr(g1^k),
    # k <= 3, of its characteristic polynomial, so the polynomial splits
    # and the roots derived for g1^4 miss the trace that g1^4 now holds
    def swap(group):
        g = group.generator_indices[0]
        a, b = (group.elements[group.power(g, -k)] for k in (2, 3))
        a.entries, b.entries = b.entries, a.entries

    _tamper_after_closing(monkeypatch, swap)
    code, out, err = run(capsys, "classes", str(group_path("cyclic_7_124")))
    assert (code, out) == (5, "")
    assert err == ("internal error: the eigenvalues derived for element g1^4 "
                   "(order 7) do not sum to its trace\n")


def test_internal_error_names_the_element(capsys, monkeypatch):
    # swap the matrices of x^4 and x^5 for x = g1 in (1/7)(1,2,4): past the
    # traces Tr(x^k), k <= 3, of the characteristic polynomial, and with
    # the sum of all traces kept, so the polynomial splits.  g = x^2 keeps
    # its trace, but g^2 = x^4 now holds the trace of x^5: the power sum at
    # k = 2 is an invariant failure, exit 5, naming g, stdout empty
    def swap(group):
        x = group.generator_indices[0]
        a, b = (group.elements[group.power(x, k)] for k in (4, 5))
        a.entries, b.entries = b.entries, a.entries

    _tamper_after_closing(monkeypatch, swap)
    code, out, err = run(capsys, "ram", "--class", "2",
                         str(group_path("cyclic_7_124")))
    assert (code, out) == (5, "")
    assert err == ("internal error: the eigenvalues derived for element g1^2 "
                   "(order 7), raised to the power 2, do not sum to the trace "
                   "of its power 2\n")


def test_characteristic_polynomial_that_does_not_split_is_an_internal_error(
        capsys, monkeypatch):
    # give the walk generator g1 of (1/7)(1,2,4) the matrix diag(2, 3, 1/6),
    # whose eigenvalues are no 7th roots of unity
    def replace_generator(group):
        field = group.field
        diagonal = (Fraction(2), Fraction(3), Fraction(1, 6))
        group.elements[group.generator_indices[0]].entries = tuple(
            tuple(field.from_rational(diagonal[i] if i == j else 0)
                  for j in range(3)) for i in range(3))

    _tamper_after_closing(monkeypatch, replace_generator)
    code, out, err = run(capsys, "classes", str(group_path("cyclic_7_124")))
    assert (code, out) == (5, "")
    assert err == ("internal error: the characteristic polynomial of element "
                   "g1 (order 7) has 0 of its 3 roots among the 7-th roots "
                   "of unity\n")


def test_classes_on_a_cyclic_group_of_order_211(capsys, tmp_path):
    # 211 singleton classes, graded from one characteristic polynomial
    path = tmp_path / "cyclic211.grp"
    path.write_text("format diagonal\ndimension 3\ngenerator 211 : 1 2 208\n")
    data = run_json(capsys, "classes", str(path))
    assert len(data["classes"]) == 211


@pytest.mark.parametrize("members, reason", [
    (lambda g: [0, g.generator_indices[0]],
     "is not closed under product: it contains A (order 4) and A (order 4) "
     "but not their product"),
    (lambda g: list(range(1, len(g))), "does not contain the identity"),
])
def test_stabilizer_that_is_no_subgroup_is_an_internal_error(
        capsys, monkeypatch, members, reason):
    # after closing, h * A equals A * h exactly for the listed h, so that
    # they form the centralizer of the class-1 representative A
    def tamper(group):
        a, listed, real = group.classes[1].representative, set(members(group)), group.mul

        def mul(i, j):
            if j != a or i == a:
                return real(i, j)
            k = real(a, i)  # A * h, or A * A * h != A * h
            return k if i in listed else real(a, k)

        group.mul = mul

    _tamper_after_closing(monkeypatch, tamper)
    code, out, err = run(capsys, "ram", "--class", "1", str(group_path("bd8")))
    assert (code, out) == (5, "")
    assert err == ("internal error: stabilizer of the valuation of element "
                   f"A (order 4) {reason}\n")


def test_walk_past_its_bound_is_an_internal_error(capsys, monkeypatch):
    # a walk that cannot reach its point within the step bound is an
    # invariant failure: exit 5, the message names the point, stdout empty
    walked, real_walk = [], toric._walk

    def walk_no_steps(third, start, p, max_steps):
        walked.append(p)
        return real_walk(third, start, p, 0)

    monkeypatch.setattr(toric, "_walk", walk_no_steps)
    code, out, err = run(capsys, "toric", "resolve",
                         str(group_path("cyclic_7_124")))
    assert (code, out) == (5, "")
    assert walked[-1] == (0, -2)
    assert err == ("internal error: walk to lattice point (0, -2) took more "
                   "than 0 steps\n")


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
    assert err == "error: line 5, col 4: expected a term\n"
    bad.write_text(
        "format matrix\ndimension 2\ncyclotomic_order 4\n"
        "generator A\nz, 0\n0, 1/0\n"
    )
    code, out, err = run(capsys, "info", str(bad))
    assert code == 2
    assert err == "error: line 6, col 6: zero denominator\n"


def test_invalid_utf8_is_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.grp"
    bad.write_bytes(b"format diagonal\ndimension 3\ngenerator 7 : 1 2 \xff4\n")
    code, out, err = run(capsys, "info", str(bad))
    assert (code, out) == (2, "")
    assert err == "error: line 3: invalid UTF-8 byte 0xff at byte offset 46\n"


# bytes of the file grammar keep many mutants parseable; any byte may occur
_byte_edits = st.lists(st.tuples(
    st.sampled_from(("insert", "delete", "replace")),
    st.floats(0, 1, exclude_max=True),
    st.one_of(st.sampled_from(b"0123456789 ,-+*^/z:\n"), st.integers(0, 255)),
), min_size=1, max_size=3)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(CORPUS), edits=_byte_edits)
def test_mutated_group_files_exit_cleanly(capsys, tmp_path, name, edits):
    # byte-level mutants of the corpus finish with a documented exit code;
    # the small cap stops the closure of a mutant that is infinite
    data = bytearray(group_path(name).read_bytes())
    for kind, where, byte in edits:
        at = int(where * len(data))
        if kind == "insert":
            data.insert(at, byte)
        elif kind == "delete":
            del data[at]
        else:
            data[at] = byte
    path = tmp_path / "mutant.grp"
    path.write_bytes(bytes(data))
    for command in (["info"], ["toric", "box"], ["toric", "check"]):
        code, _, _ = run(capsys, *command, str(path), "--max-order", "200")
        assert code in (0, 2, 3, 4)


def test_max_order_cap(capsys):
    code, out, err = run(capsys, "info", str(group_path("bd8")),
                         "--max-order", "4")
    assert code == 4
    assert "cap" in err


@pytest.mark.parametrize("text, order", [
    ("format matrix\ndimension 1\ncyclotomic_order 100000\ngenerator A\nz\n", 100000),
    # coprime generator orders: the group's field is Q(zeta_(997*991))
    ("format diagonal\ndimension 2\ngenerator 997 : 1 996\n"
     "generator 991 : 1 990\n", 997 * 991),
], ids=["matrix", "diagonal"])
def test_field_order_cap(capsys, tmp_path, text, order):
    path = tmp_path / "huge_field.grp"
    path.write_text(text)
    start = time.perf_counter()
    code, out, err = run(capsys, "info", str(path))
    assert time.perf_counter() - start < 1
    assert code == 4
    assert out == ""
    assert err == (f"error: cyclotomic order {order} exceeds the limit of "
                   f"{MAX_FIELD_ORDER}\n")


def test_max_order_cap_counts_identity_and_generators(capsys, tmp_path):
    # the closure of -I is {I, -I}: already two elements before any product
    path = tmp_path / "minus_one.grp"
    path.write_text("format diagonal\ndimension 2\ngenerator 2 : 1 1\n")
    code, out, err = run(capsys, "info", str(path), "--max-order", "1")
    assert code == 4
    assert out == ""
    assert "cap of 1" in err
    assert run_json(capsys, "info", str(path), "--max-order", "2")["group"]["order"] == 2


@pytest.mark.parametrize("command", [["info"], ["toric", "box"]])
@pytest.mark.parametrize("cap", ["0", "-5"])
def test_max_order_below_1_is_refused_at_parse_time(capsys, command, cap):
    # a cap that no closure can meet is a malformed flag: argparse's exit 2
    with pytest.raises(SystemExit) as raised:
        main([*command, str(group_path("cyclic_7_124")), "--max-order", cap])
    captured = capsys.readouterr()
    assert (raised.value.code, captured.out) == (2, "")
    assert captured.err.endswith(
        f"error: argument --max-order: must be at least 1, got {cap}\n")


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
