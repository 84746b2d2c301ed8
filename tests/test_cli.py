import importlib.util
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mckay import age, cli, cyclo, toric
from mckay.cli import main
from mckay.cyclo import MAX_FIELD_ORDER, cyclotomic_field
from mckay.groupfile import GroupFile
from mckay.valuation import MAX_PROBE_MONOMIALS

from conftest import CORPUS, group_path

ROOT = pathlib.Path(__file__).resolve().parents[1]


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
    # the determinant's image mod the split prime is 0, which no root of
    # unity maps to; it does not tell a singular generator from one of
    # infinite order
    path = tmp_path / "singular.grp"
    path.write_text("format matrix\ndimension 2\ncyclotomic_order 4\n"
                    "generator A\n1, 0\n0, 0\n")
    for choice in ("standard", "inverse"):
        assert run(capsys, "info", str(path), "--choice", choice) == \
            (3, "", "error: generator A is singular or of infinite order: its "
             "determinant is not a root of unity\n")


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


WRONG_DIMENSION = [
    (["betti"], "bd8", "betti requires dimension 3, got 2"),
    (["diagram"], "trihedral27", "resolution graphs require dimension 2, got 3"),
    (["diagram", "--format", "json"], "trihedral27",
     "resolution graphs require dimension 2, got 3"),
]


@pytest.mark.parametrize("command, name, message", WRONG_DIMENSION)
@pytest.mark.parametrize("choice", ["standard", "inverse"])
def test_wrong_dimension_is_refused_before_the_closure(
        capsys, monkeypatch, command, name, message, choice):
    def refuse(*args, **kwargs):
        raise AssertionError("closed the group of a file of the wrong dimension")

    monkeypatch.setattr(GroupFile, "close", refuse)
    code, out, err = run(capsys, *command, str(group_path(name)),
                         "--choice", choice)
    assert (code, out, err) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("command, name, message", WRONG_DIMENSION)
@pytest.mark.parametrize("choice", ["standard", "inverse"])
def test_wrong_dimension_takes_precedence_over_the_closure_cap(
        capsys, command, name, message, choice):
    # under `--choice inverse` too: the matrix generators are inverted
    # when the group is closed, after the dimension check
    path = str(group_path(name))
    cap = ["--max-order", "2", "--choice", choice]
    assert run(capsys, "info", path, *cap)[0] == 4
    code, out, err = run(capsys, *command, path, *cap)
    assert (code, out, err) == (3, "", f"error: {message}\n")


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


@pytest.mark.parametrize("choice", ["standard", "inverse"])
def test_ram_probe_on_a_matrix_file_is_refused_before_the_closure(
        capsys, monkeypatch, choice):
    # a matrix file has no exponent vectors to fingerprint, so the probe
    # would change nothing
    path = str(group_path("bd8"))
    assert run(capsys, "ram", "--class", "1", path, "--choice", choice)[0] == 0

    def refuse(*args, **kwargs):
        raise AssertionError("closed the group of a matrix file under --probe")

    monkeypatch.setattr(GroupFile, "close", refuse)
    code, out, err = run(capsys, "ram", "--class", "1", path, "--probe", "3",
                         "--choice", choice)
    assert (code, out, err) == (3, "", "error: --probe needs a diagonal file\n")


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
        g, elements = group.generator_indices[0], group.elements
        a, b = (group.power(g, -k) for k in (2, 3))
        elements[a], elements[b] = elements[b], elements[a]

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
        x, elements = group.generator_indices[0], group.elements
        a, b = (group.power(x, k) for k in (4, 5))
        elements[a], elements[b] = elements[b], elements[a]

    _tamper_after_closing(monkeypatch, swap)
    code, out, err = run(capsys, "ram", "--class", "2",
                         str(group_path("cyclic_7_124")))
    assert (code, out) == (5, "")
    assert err == ("internal error: the eigenvalues derived for element g1^2 "
                   "(order 7), raised to the power 2, do not sum to the trace "
                   "of its power 2\n")


def _replace_generator(diagonal):
    """A tamper giving the walk generator g1 the matrix diag(`diagonal`)."""
    def replace_generator(group):
        ids = []
        for i, d in enumerate(diagonal):
            x = group.field.from_rational(d)
            ids.append(len(group.rows))
            group.rows.append(((i, x.nums, x.den),))
        group.elements[group.generator_indices[0]] = tuple(ids)

    return replace_generator


def test_characteristic_polynomial_that_does_not_split_is_an_internal_error(
        capsys, monkeypatch):
    # give the walk generator g1 of (1/7)(1,2,4) the matrix diag(2, 3, 5),
    # whose eigenvalues are no 7th roots of unity
    _tamper_after_closing(monkeypatch, _replace_generator((2, 3, 5)))
    code, out, err = run(capsys, "classes", str(group_path("cyclic_7_124")))
    assert (code, out) == (5, "")
    assert err == ("internal error: the characteristic polynomial of element "
                   "g1 (order 7) has 0 of its 3 roots among the 7-th roots "
                   "of unity\n")


@pytest.mark.parametrize("command", [["classes"], ["ram", "--class", "1"]])
def test_a_trace_that_is_not_integral_is_an_internal_error(capsys, monkeypatch, command):
    # diag(2, 3, 1/6) has the trace 31/6; a sum of roots of unity is an
    # algebraic integer, so `trace` refuses it before any grading
    _tamper_after_closing(monkeypatch, _replace_generator((2, 3, Fraction(1, 6))))
    code, out, err = run(capsys, *command, str(group_path("cyclic_7_124")))
    assert (code, out) == (5, "")
    assert err == "internal error: the trace of element g1 (order 7) is not integral\n"


def test_roots_whose_powers_miss_the_traces_fail_the_certificate(capsys, monkeypatch):
    # add the split prime P of Q(zeta_7) to the first numerator of the trace
    # of x^2, x = g1 in (1/7)(1,2,4): the traces keep their images mod P, so
    # the search finds the roots (1, 2, 4), which sum to Tr(x) but whose
    # squares miss the trace of x^2 in Q(zeta_7); exit 5, naming x and k = 2
    def shift(group):
        x = group.generator_indices[0]
        square = group.power(x, 2)
        first, *rest = group.trace(square)
        group._traces[square] = (first + cyclo.split_prime(7)[0], *rest)

    _tamper_after_closing(monkeypatch, shift)
    code, out, err = run(capsys, "classes", str(group_path("cyclic_7_124")))
    assert (code, out) == (5, "")
    assert err == ("internal error: the roots found modulo the split prime for "
                   "element g1 (order 7), raised to the power 2, do not sum to "
                   "the trace of its power 2\n")


@pytest.mark.parametrize("wrong", ["one", "power"])
@pytest.mark.parametrize("command", [["classes"], ["ram", "--class", "1"]])
@pytest.mark.parametrize("name", CORPUS)
def test_an_omega_of_the_wrong_order_is_an_internal_error(
        capsys, monkeypatch, name, command, wrong):
    # zeta_L -> omega is then no ring map: whatever roots the search finds,
    # the exact certificate refuses them, and no report is printed
    def split_prime(order, above=2 ** 62):
        prime, omega = cyclo.split_prime(order, above)
        if wrong == "one":
            return prime, 1
        return prime, pow(omega, cyclo.prime_factors(order)[0], prime)

    monkeypatch.setattr(age, "split_prime", split_prime)
    code, out, err = run(capsys, *command, str(group_path(name)))
    assert (code, out) == (5, "")
    assert err.startswith("internal error: ")


@pytest.mark.parametrize("command", [["classes"], ["betti"], ["ram", "--class", "1"]])
def test_eigenvalue_field_cap(capsys, tmp_path, command):
    # the cyclic permutation of order 3 over Q(zeta_2048): its eigenvalues
    # live in Q(zeta_6144), refused before any root is searched
    path = tmp_path / "permutation.grp"
    path.write_text(f"format matrix\ndimension 3\ncyclotomic_order {MAX_FIELD_ORDER}\n"
                    "generator C\n0, 1, 0\n0, 0, 1\n1, 0, 0\n")
    start = time.perf_counter()
    code, out, err = run(capsys, *command, str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (4, "")
    assert err == (f"error: cyclotomic order {3 * MAX_FIELD_ORDER} exceeds the "
                   f"limit of {MAX_FIELD_ORDER}\n")


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
    # after closing, the listed h are reported as the centralizer of the
    # class-1 representative A; products stay those of the group
    def tamper(group):
        listed = members(group)
        group.centralizer = lambda g: listed

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


@pytest.mark.parametrize("entry, col, reason", [
    ("z^\u00b2", 3, "expected exponent"), ("\u00b2", 1, "expected a term")])
def test_superscript_digit_is_a_parse_error(capsys, tmp_path, entry, col, reason):
    # str.isdigit accepts '\u00b2' and int() refuses it: a traceback, exit 1
    bad = tmp_path / "bad.grp"
    bad.write_text("format matrix\ndimension 2\ncyclotomic_order 4\n"
                   f"generator A\n{entry}, 0\n0, 1\n", encoding="utf-8")
    code, out, err = run(capsys, "info", str(bad))
    assert (code, out) == (2, "")
    assert err == f"error: line 5, col {col}: {reason}\n"


def dense_pivot_text(seed=1, terms=12):
    """A group file for P diag(z, z^-1) P^-1 in SL(2, Q(zeta_97)), of order
    97, with P = [[1, u], [v, 1 + uv]] for sparse random u and v with
    coefficients in [-2, 2].  Its entries are dense, and so was the pivot
    that an exact elimination inverted for its determinant."""
    field = cyclotomic_field(97)
    rng = random.Random(seed)
    u, v = (field.element({rng.randrange(97): rng.choice((-2, -1, 1, 2))
                           for _ in range(terms)}) for _ in range(2))
    z, z_inv, w = field.zeta(), field.zeta(96), field.one() + u * v
    matrix = ((z * w - u * v * z_inv, u * (z_inv - z)),
              (v * w * (z - z_inv), w * z_inv - u * v * z))
    return ("format matrix\ndimension 2\ncyclotomic_order 97\ngenerator A\n"
            + "".join(", ".join(x.to_literal() for x in row) + "\n" for row in matrix))


@pytest.mark.parametrize("choice", ["standard", "inverse"])
def test_dense_pivot_in_a_large_field_inverts_fast(capsys, tmp_path, choice):
    # nothing inverts a field element: the determinant is taken modulo a
    # split prime, and the inverse generators are read off the closure
    path = tmp_path / "dense97.grp"
    path.write_text(dense_pivot_text())
    start = time.perf_counter()
    group = run_json(capsys, "info", str(path), "--choice", choice)["group"]
    assert time.perf_counter() - start < 2
    assert (group["order"], group["in_sl"]) == (97, True)


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


@pytest.mark.parametrize("name", ["cyclic_7_124", "bd8"])  # diagonal, matrix
@pytest.mark.parametrize("probe", ["0", "-2"])
def test_probe_below_1_is_refused_at_parse_time(capsys, name, probe):
    # as with --max-order, in either file format: 0 did not mean the
    # default degree, and -2 was exit 3 or ignored
    with pytest.raises(SystemExit) as raised:
        main(["ram", "--class", "1", str(group_path(name)), "--probe", probe])
    captured = capsys.readouterr()
    assert (raised.value.code, captured.out) == (2, "")
    assert captured.err.endswith(
        f"error: argument --probe: must be at least 1, got {probe}\n")


@pytest.mark.parametrize("generators, word, trace", [
    ("A\n1/2, 0\n0, 2\n", "generator A", "5/2"),  # not an algebraic integer, nor <= 2
    ("A\n0, -1\n1, 1/2\n", "generator A", "1/2"),  # not an algebraic integer
    ("A\n2, 1\n1, 1\n", "generator A", "3"),  # an integer, but more than 2
    # the infinite dihedral group: its generators have the trace 0, and
    # their product is diag(1/2, 2)
    ("A\n0, 1\n1, 0\ngenerator B\n0, 2\n1/2, 0\n", "element A*B", "5/2"),
    # the trace of A is 1 and its determinant -1, A^2 = [[2, 1], [1, 1]]
    ("A\n1, 1\n1, 0\n", "element A^2", "3"),
], ids=["diag(1/2,2)", "[[0,-1],[1,1/2]]", "[[2,1],[1,1]]", "infinite dihedral",
        "[[1,1],[1,0]]"])
def test_generator_of_infinite_order_fails_fast(capsys, tmp_path, generators,
                                                word, trace):
    # the trace of an element of finite order is a sum of n roots of unity,
    # and the words of length 1 and 2 are tested; the closure of these ran
    # to the cap (at the default cap for 150 s and 1 GB, for 33 s and
    # 3.7 GB, and for 66 s and 250 MB)
    path = tmp_path / "infinite.grp"
    path.write_text("format matrix\ndimension 2\ncyclotomic_order 1\n"
                    "generator " + generators)
    start = time.perf_counter()
    code, out, err = run(capsys, "info", str(path), "--max-order", "5000")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == (f"error: {word} has infinite order: its trace {trace} "
                   "is not a sum of 2 roots of unity\n")


GOLDEN = "-1*z^2 - z^3"  # 1 + zeta_5 + zeta_5^4, the golden ratio


@pytest.mark.parametrize("choice", ["standard", "inverse"])
@pytest.mark.parametrize("order, dimension, rows", [
    # the golden-ratio unit: every power is an algebraic integer that is
    # not rational, so every word passes the trace test; the closure ran
    # to the default cap (exit 4 after 10.4 s, 1.49 GB)
    (5, 1, GOLDEN),
    (5, 2, f"{GOLDEN}, 0\n0, 1"),
    (1, 2, "0, 2\n1, 0"),  # the determinant -2; A^2 = 2I
    (6, 2, "1/2 + 1/2*z, 0\n0, 1"),  # the determinant has absolute value 3^(1/2)
], ids=["golden 1x1", "diag(golden,1)", "[[0,2],[1,0]]", "diag((1+z6)/2,1)"])
def test_determinant_not_a_root_of_unity_fails_fast(capsys, tmp_path, choice,
                                                    order, dimension, rows):
    path = tmp_path / "infinite.grp"
    path.write_text(f"format matrix\ndimension {dimension}\ncyclotomic_order "
                    f"{order}\ngenerator A\n{rows}\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "info", str(path), "--choice", choice)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (3, "", "error: generator A is singular or of "
                                "infinite order: its determinant is not a root "
                                "of unity\n")


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


def test_cli_import_loads_no_dataclasses():
    # start-up is most of a command's time on the corpus files: the result
    # records are plain classes, so importing the CLI pulls in neither
    # `dataclasses` nor the `inspect` it imports
    code = ("import sys; before = set(sys.modules); import mckay.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    added = out.split()
    assert "mckay.cli" in added
    assert not {"dataclasses", "inspect"} & set(added)


def test_readme_library_snippets_print_their_comments(capsys, monkeypatch):
    # each `print(...)   # value` line of README's Library use section
    snippets = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(snippets) == 2
    monkeypatch.chdir(ROOT)  # the snippets name groups/<file>.grp
    for code in snippets:
        expected = [line.split("#", 1)[1].strip()
                    for line in code.splitlines() if line.startswith("print(")]
        exec(compile(code, "README.md", "exec"), {})
        assert capsys.readouterr().out.splitlines() == expected
