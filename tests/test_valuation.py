from fractions import Fraction

import pytest
from hypothesis import given, settings

from mckay import linalg, valuation
from mckay.cli import main
from mckay.errors import RequirementError
from mckay.groupfile import parse_group_file
from mckay.matgroup import close_group
from mckay.toric import DiagonalGroupSpec
from mckay.age import eigen_exponents
from mckay.valuation import (
    EigenDecomposition,
    MonomialValuation,
    _primitivize,
    diagonal_exponents,
    eigen_decompose,
    monomial_valuation,
    quotient_discrepancy,
    ram_group,
    stab_group,
    valuation_fingerprint,
)

from conftest import CORPUS, closed_group, group_path
from test_toric import diagonal_specs


def _diag_group(n, generators):
    spec = DiagonalGroupSpec(n, tuple(generators))
    return close_group(spec.matrices())


def test_eigen_decompose_bd8_b():
    group = closed_group("bd8")
    b = group.generator_indices[1]
    dec = eigen_decompose(group, b)
    assert dec.expression.exponents == (1, 3)
    assert dec.expression.r == 4
    # inverse really inverts the basis
    product = linalg.mat_mul(dec.basis_inverse, dec.basis)
    assert product == linalg.identity(group.field, 2)


def test_eigen_decompose_permutation():
    group = closed_group("trihedral27")
    t = group.generator_indices[1]
    assert group.elements[t].order == 3
    dec = eigen_decompose(group, t)
    assert dec.expression.exponents == (0, 1, 2)


def test_monomial_valuation_primitivizes():
    group = _diag_group(2, [(4, (2, 2))])
    g = group.generator_indices[0]
    v = monomial_valuation(group, g)
    assert group.elements[g].order == 2
    assert v.weights == (1, 1)


def test_monomial_valuation_rejects_identity():
    group = closed_group("bd8")
    with pytest.raises(RequirementError):
        monomial_valuation(group, 0)


def test_stab_and_ram_for_scalar_junior():
    # g = (1/3)(1,1,1) inside the trihedral group: all weights equal, so
    # Stab is the whole group and Ram is the scalar subgroup <g>
    group = closed_group("trihedral27")
    g = next(
        i for i in range(1, len(group))
        if all(
            group.elements[i].entries[p][q] == (
                group.elements[i].entries[0][0] if p == q else group.field.zero()
            )
            for p in range(3) for q in range(3)
        ) and group.elements[i].order == 3
    )
    v = monomial_valuation(group, g)
    assert v.weights == (1, 1, 1)
    assert len(stab_group(group, v)) == 27
    ram = ram_group(group, v)
    assert ram.degree == 3
    assert set(ram.members) == group.cyclic_subgroup(g)


def test_stab_and_ram_for_unequal_weights():
    group = _diag_group(3, [(7, (1, 2, 4))])
    g = group.generator_indices[0]
    v = monomial_valuation(group, g)
    assert v.weights == (1, 2, 4)
    assert stab_group(group, v) == list(range(7))  # abelian diagonal group
    ram = ram_group(group, v)
    assert ram.degree == 7
    assert set(ram.members) == group.cyclic_subgroup(g)


def _corpus_group(name, choice):
    gf = parse_group_file(group_path(name))
    return (gf.inverted() if choice == "inverse" else gf).close()


def _block_diagonal_members(group, v):
    """Reference stabilizer: every element conjugated into the eigenbasis
    of `v`, kept when it is block diagonal with respect to equal weights."""
    d = v.decomposition
    field = d.basis[0][0].field
    n = group.dimension
    members = []
    for h, element in enumerate(group.elements):
        m = linalg.mat_mul(d.basis_inverse, linalg.mat_mul(
            linalg.mat_embed(element.entries, field), d.basis))
        if all(not m[i][j] for i in range(n) for j in range(n)
               if v.weights[i] != v.weights[j]):
            members.append(h)
    return members


def _assert_stab_is_block_diagonal_scan(group):
    for cls in group.classes:
        if cls.representative != 0:
            v = monomial_valuation(group, cls.representative)
            assert stab_group(group, v) == _block_diagonal_members(group, v)


@pytest.mark.parametrize("choice", ["standard", "inverse"])
@pytest.mark.parametrize("name", CORPUS)
def test_stab_equals_block_diagonal_scan_on_corpus(name, choice):
    _assert_stab_is_block_diagonal_scan(_corpus_group(name, choice))


@settings(max_examples=25, deadline=None)
@given(spec=diagonal_specs(max_index=24, max_order=8))
def test_stab_equals_block_diagonal_scan_on_diagonal_groups(spec):
    _assert_stab_is_block_diagonal_scan(close_group(spec.matrices()))


def test_ram_member_outside_the_block_structure_is_an_internal_error(
        capsys, monkeypatch):
    # <B> is a subgroup, so stab_group accepts it, but B does not commute
    # with the class-1 representative A: exit 5, both elements named
    group = closed_group("bd8")
    b = group.generator_indices[1]
    monkeypatch.setattr(valuation, "_stabilizer_members",
                        lambda group, v: sorted(group.cyclic_subgroup(b)))
    code = main(["ram", "--class", "1", str(group_path("bd8"))])
    captured = capsys.readouterr()
    assert (code, captured.out) == (5, "")
    assert captured.err == (
        "internal error: stabilizer of the valuation of element A (order 4) "
        "contains B (order 4), which is not block diagonal in the "
        "valuation's eigenbasis\n")


def test_ram_is_subgroup_of_stab():
    for name in CORPUS:
        for choice in ("standard", "inverse"):
            group = _corpus_group(name, choice)
            for cls in group.classes:
                rep = cls.representative
                if rep == 0:
                    continue
                v = monomial_valuation(group, rep)
                stab = set(stab_group(group, v))
                ram = ram_group(group, v)
                assert set(ram.members) <= stab
                assert 0 in stab
                # Ram is normal in Stab
                ram_set = set(ram.members)
                for h in stab:
                    for m in ram.members:
                        conj = group.mul(group.mul(h, m), group.inv(h))
                        assert conj in ram_set


def monomial_valuation_from_weights(group, weights):
    """A monomial valuation in the standard coordinates, for weightings not
    tied to a group element (the eigenbasis is the identity).  Its source
    element is the identity, whose centralizer is the whole group: the
    stabilizer only for a weighting with all weights equal."""
    if len(weights) != group.dimension or any(w < 0 for w in weights):
        raise RequirementError("weights must be nonnegative of length n")
    weights = _primitivize(weights)
    ident = linalg.identity(group.field, group.dimension)
    decomposition = EigenDecomposition(0, eigen_exponents(group, 0), ident, ident)
    return MonomialValuation(weights, 0, decomposition)


def test_valuation_from_weights():
    group = closed_group("bd8")
    v = monomial_valuation_from_weights(group, (1, 1))
    assert v.weights == (1, 1)
    assert len(stab_group(group, v)) == 8
    ram = ram_group(group, v)
    assert ram.degree == 2  # the scalars {1, -1}
    with pytest.raises(RequirementError):
        monomial_valuation_from_weights(group, (0, 0))
    with pytest.raises(RequirementError):
        monomial_valuation_from_weights(group, (1, -1))


def test_quotient_discrepancy():
    assert quotient_discrepancy(2, 3) == 0
    assert quotient_discrepancy(2, 1) == 2
    assert quotient_discrepancy(1, 2) == 0
    assert quotient_discrepancy(3, 2) == 1
    assert quotient_discrepancy(Fraction(1, 2), 1) == Fraction(1, 2)
    with pytest.raises(RequirementError):
        quotient_discrepancy(1, 0)


def test_junior_valuation_is_crepant():
    # a_F = sum(a_i) - 1 = r - 1 for a junior g, so a_E = 0 downstairs
    group = closed_group("trihedral27")
    from mckay.age import eigen_exponents

    for cls in group.classes:
        rep = cls.representative
        if rep == 0:
            continue
        expr = eigen_exponents(group, rep)
        if expr.age != 1:
            continue
        v = monomial_valuation(group, rep)
        ram = ram_group(group, v)
        a_f = sum(expr.exponents) - 1
        assert quotient_discrepancy(a_f, ram.degree) == 0


def test_diagonal_exponents():
    group = _diag_group(3, [(7, (1, 2, 4))])
    g = group.generator_indices[0]
    step = group.field.order // 7
    assert diagonal_exponents(group, g) == (step, 2 * step, 4 * step)
    nondiag = closed_group("bd8")
    with pytest.raises(RequirementError):
        diagonal_exponents(nondiag, nondiag.generator_indices[1])


def test_fingerprint_half_11():
    group = _diag_group(2, [(2, (1, 1))])
    g = group.generator_indices[0]
    fp = valuation_fingerprint(group, g, 2)
    assert fp == {(2, 0): 1, (1, 1): 1, (0, 2): 1}


def test_fingerprint_third_12():
    group = _diag_group(2, [(3, (1, 2))])
    g = group.generator_indices[0]
    fp = valuation_fingerprint(group, g, 3)
    assert fp == {(3, 0): 1, (1, 1): 1, (0, 3): 2}


def test_fingerprint_values_are_integral_on_invariants():
    # v_g of an invariant monomial lies in (1/r) Z and here is integral for
    # the junior generator of (1/7)(1,2,4)
    group = _diag_group(3, [(7, (1, 2, 4))])
    g = group.generator_indices[0]
    fp = valuation_fingerprint(group, g, 7)
    assert fp  # x*y*z among others
    assert fp[(1, 1, 1)] == 1
    assert all(isinstance(v, int) for v in fp.values())
    with pytest.raises(RequirementError):
        valuation_fingerprint(group, g, 0)
