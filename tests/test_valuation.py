from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckay import age, cyclo, linalg, valuation
from mckay.age import FractionalExpression, eigen_exponents
from mckay.cli import main
from mckay.cyclo import CycNum, cyclotomic_field
from mckay.errors import InternalInvariantError, RequirementError
from mckay.groupfile import parse_group_file, parse_group_text
from mckay.toric import DiagonalGroupSpec
from mckay.valuation import (
    _primitivize,
    monomial_valuation,
    quotient_discrepancy,
    ram_group,
    stab_group,
    valuation_fingerprint,
)

from conftest import (CORPUS, close, close_spec, closed_group, dense, element_matrix,
                      group_path, identity, mat_mul, oracle_mat_inv, oracle_rref)
from test_age import _counted_walks, unimodular_matrices
from test_cyclo import power
from test_toric import diagonal_specs, spec_text


def _diag_group(n, generators):
    return close_spec(DiagonalGroupSpec(n, tuple(generators)))


@dataclass
class EigenDecomposition:
    expression: FractionalExpression
    # eigenvector columns over Q(zeta_lcm(N, r)), aligned with the
    # (ascending) expression.exponents
    basis: tuple


def kernel_basis(a):
    """Basis of the right kernel of `a`, one vector per free column of its
    reduced row echelon form, in column order."""
    field = a[0][0].field
    echelon, pivots = oracle_rref(a)
    basis = []
    for f in (c for c in range(len(a[0])) if c not in pivots):
        v = [field.zero()] * len(a[0])
        v[f] = field.one()
        for r, p in enumerate(pivots):
            v[p] = -echelon[r][f]
        basis.append(tuple(v))
    return basis


def embed(matrix, field):
    return tuple(tuple(x.embed(field) for x in row) for row in matrix)


def eigen_decompose(group, index):
    """The eigenbasis `monomial_valuation` computed before it read the
    exponents off the power walks alone: kernels of (g - zeta_r^a * I), with
    g embedded into Q(zeta_lcm(N, r)), whose dimensions must be the
    exponents' multiplicities, and g * v = zeta_r^a * v on every column."""
    expr = eigen_exponents(group, index)
    r = group.orders[index]
    field = cyclotomic_field(lcm(group.field.order, r))
    entries = embed(element_matrix(group, index), field)
    step = field.order // r
    n = group.dimension
    columns, exps = [], []
    for a in sorted(set(expr.exponents)):
        eigval = field.zeta(step * a)
        shifted = tuple(tuple(entries[i][j] - (eigval if i == j else field.zero())
                              for j in range(n)) for i in range(n))
        kernel = kernel_basis(shifted)
        assert len(kernel) == expr.exponents.count(a)
        columns += kernel
        exps += [a] * len(kernel)
    basis = tuple(tuple(columns[j][i] for j in range(n)) for i in range(n))
    image = mat_mul(entries, basis)
    assert all(image[i][j] == field.zeta(step * a) * basis[i][j]
               for j, a in enumerate(exps) for i in range(n))
    return EigenDecomposition(expr, basis)


def test_eigen_decompose_bd8_b():
    group = closed_group("bd8")
    b = group.generator_indices[1]
    dec = eigen_decompose(group, b)
    assert dec.expression.exponents == (1, 3)
    assert dec.expression.r == 4
    # the eigenvectors form a basis
    product = mat_mul(oracle_mat_inv(dec.basis), dec.basis)
    assert product == identity(dec.basis[0][0].field, 2)


def test_eigen_decompose_permutation():
    group = closed_group("trihedral27")
    t = group.generator_indices[1]
    assert group.orders[t] == 3
    dec = eigen_decompose(group, t)
    assert dec.expression.exponents == (0, 1, 2)


def test_monomial_valuation_primitivizes():
    group = _diag_group(2, [(4, (2, 2))])
    g = group.generator_indices[0]
    v = monomial_valuation(group, g)
    assert group.orders[g] == 2
    assert v.weights == (1, 1)


def test_power_sums_are_checked_up_to_the_dimension():
    # swap the matrices of x^5 and x^6 for x = g1 in (1/7)(1,1,5), past the
    # traces Tr(x^k), k <= 3, of its walk polynomial: g = x^4 keeps Tr(g)
    # and Tr(g^2) = Tr(x), but g^3 = x^5 now holds the trace of x^6
    group = _diag_group(3, [(7, (1, 1, 5))])
    x, elements = group.generator_indices[0], group.elements
    a, b = (group.power(x, k) for k in (5, 6))
    elements[a], elements[b] = elements[b], elements[a]
    with pytest.raises(InternalInvariantError, match=r"^the eigenvalues derived "
                       r"for element g1\^4 \(order 7\), raised to the power 3,"):
        monomial_valuation(group, group.power(x, 4))


def test_power_sums_reject_exponents_that_only_match_the_trace(monkeypatch):
    # diag(1, i, -1, -i) has the exponents (0, 1, 2, 3) over 4; (0, 0, 2, 2)
    # has the same trace 0, but its squares sum to 4, not to Tr(g^2) = 0
    group = _diag_group(4, [(4, (0, 1, 2, 3))])
    monkeypatch.setattr(age, "_walk_exponents",
                        lambda group, walk: [0, 0, 2, 2])
    with pytest.raises(InternalInvariantError, match="raised to the power 2,"):
        monomial_valuation(group, group.generator_indices[0])


def test_valuation_of_the_dimension_family_makes_linear_work(monkeypatch):
    # one order-3 generator with exponents (1, 2, 0, ..., 0) in dimension
    # 200: the valuation reads 3 walk traces and 3 power traces, summed on
    # integers with no field arithmetic, where the eigenbasis took 40003
    # products and 120003 subtractions
    n = 200
    group = _diag_group(n, [(3, (1, 2) + (0,) * (n - 2))])
    calls = []
    for name in ("__add__", "__sub__", "__mul__"):
        def counted(x, y, real=getattr(CycNum, name)):
            calls.append(x)
            return real(x, y)

        monkeypatch.setattr(CycNum, name, counted)
    v = monomial_valuation(group, group.generator_indices[0])
    assert v.weights == (0,) * (n - 2) + (1, 2)
    assert not calls


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
            element_matrix(group, i)[p][q] == (
                element_matrix(group, i)[0][0] if p == q else group.field.zero()
            )
            for p in range(3) for q in range(3)
        ) and group.orders[i] == 3
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


def _in_eigenbasis(group, v):
    """(h, the matrix of h in the eigenbasis of `v`) for every element h."""
    basis = eigen_decompose(group, v.source_index).basis
    field, basis_inverse = basis[0][0].field, oracle_mat_inv(basis)
    for h in range(len(group)):
        element = element_matrix(group, h)
        yield h, mat_mul(basis_inverse, mat_mul(embed(element, field), basis))


def _block_diagonal_members(group, v):
    """Reference stabilizer: every element conjugated into the eigenbasis
    of `v`, kept when it is block diagonal with respect to equal weights."""
    n = group.dimension
    return [h for h, m in _in_eigenbasis(group, v)
            if all(not m[i][j] for i in range(n) for j in range(n)
                   if v.weights[i] != v.weights[j])]


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
    _assert_stab_is_block_diagonal_scan(close_spec(spec))


def test_walk_weights_that_differ_from_the_valuation_are_an_internal_error(
        capsys, monkeypatch):
    # -I = A^2 has the weights (1, 1); a valuation that claims (1, 3) for
    # it disagrees with the first maximal walk through it, that of A:
    # exit 5, both elements named
    real = valuation.monomial_valuation

    def claim_weights(*args):
        v = real(*args)
        return valuation.MonomialValuation((1, 3), v.source_index, v.expression)

    monkeypatch.setattr(valuation, "monomial_valuation", claim_weights)
    code = main(["ram", "--class", "3", str(group_path("bd8"))])
    captured = capsys.readouterr()
    assert (code, captured.out) == (5, "")
    assert captured.err == (
        "internal error: element A^2 (order 2) has the weights (1, 1) on the "
        "walk of A (order 4), not the weights (1, 3) of its valuation\n")


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
                        conj = group.times(group.times(h, group.runs(m)),
                                           group.runs(group.inverses[h]))
                        assert conj in ram_set


def _ext_gcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _bezout_root(diag, weights):
    """eps = prod d_i^{x_i} for integers x with sum x_i * b_i = 1 over the
    nonzero weights b_i."""
    coeffs, g = {}, 0
    for i, w in enumerate(weights):
        if not w:
            continue
        if g == 0:
            g, coeffs = w, {i: 1}
        else:
            g, x, y = _ext_gcd(g, w)
            coeffs = {k: c * x for k, c in coeffs.items()}
            coeffs[i] = coeffs.get(i, 0) + y
    assert g == 1
    eps = diag[0].field.one()
    for i, x in coeffs.items():
        eps = eps * power(diag[i], x)
    return eps


def _is_eps_power(diag, weights):
    """Reference test for diag = (eps^{b_1}, ..., eps^{b_n}): the entries at
    zero weights are 1 and the Bezout root eps reproduces the others."""
    one = diag[0].field.one()
    if any(d != one for d, w in zip(diag, weights) if w == 0):
        return False
    eps = _bezout_root(diag, weights)
    return all(d == power(eps, w) for d, w in zip(diag, weights) if w)


def _bezout_ram_members(group, v):
    """Reference ramification group: every element conjugated into the
    eigenbasis of `v`, kept when it is diag(eps^b) by the Bezout root."""
    n = group.dimension
    return [h for h, m in _in_eigenbasis(group, v)
            if all(not m[i][j] for i in range(n) for j in range(n) if i != j)
            and _is_eps_power([m[i][i] for i in range(n)], v.weights)]


def _corpus_valuations(name, choice):
    group = _corpus_group(name, choice)
    for cls in group.classes:
        if cls.representative != 0:
            yield group, monomial_valuation(group, cls.representative)


@pytest.mark.parametrize("choice", ["standard", "inverse"])
@pytest.mark.parametrize("name", CORPUS)
def test_ram_equals_bezout_oracle_on_corpus(name, choice):
    for group, v in _corpus_valuations(name, choice):
        assert ram_group(group, v).members == _bezout_ram_members(group, v)


@st.composite
def _diagonal_groups(draw):
    """A diagonal with entries 1 (so that weights can be zero) or
    +-zeta_M^k, and half of the time a second one with entries +-1, so
    that some groups are not cyclic."""
    field = cyclotomic_field(draw(st.sampled_from((1, 2, 3, 4, 5, 6, 8, 9, 12))))
    n = draw(st.integers(2, 4))

    def diagonal(order):
        diag = [field.one() if draw(st.booleans()) else
                field.zeta(draw(st.integers(0, order - 1)) * field.order // order)
                * draw(st.sampled_from((1, -1))) for _ in range(n)]
        return tuple(tuple(diag[i] if i == j else field.zero() for j in range(n))
                     for i in range(n))

    return close([diagonal(field.order)] + [diagonal(1)] * draw(st.integers(0, 1)))


@settings(max_examples=60, deadline=None)
@given(_diagonal_groups())
def test_pairwise_criterion_equals_bezout_oracle(group):
    # in the standard basis, Ram of each element's valuation holds exactly
    # the elements whose Bezout root reproduces them
    for g in range(1, len(group)):
        v = monomial_valuation(group, g)
        assert ram_group(group, v).members == _bezout_ram_members(group, v)


def oracle_ram_group(group, v):
    """`ram_group` as it was before the power walks: every member of the
    stabilizer conjugated into the eigenbasis, checked block diagonal, and
    kept when its diagonal passes the pairwise criterion by field powers."""
    weights, n = v.weights, group.dimension
    basis = eigen_decompose(group, v.source_index).basis
    field, basis_inverse = basis[0][0].field, oracle_mat_inv(basis)
    members = []
    for h in stab_group(group, v):
        m = mat_mul(basis_inverse, mat_mul(embed(element_matrix(group, h), field), basis))
        assert not any(m[i][j] for i in range(n) for j in range(n)
                       if weights[i] != weights[j])
        if any(m[i][j] for i in range(n) for j in range(n) if i != j):
            continue
        if all(power(m[i][i], weights[j]) == power(m[j][j], weights[i])
               for i in range(n) for j in range(i + 1, n)):
            members.append(h)
    generator = next(h for h in members
                     if group.cyclic_subgroup(h) == set(members))
    return valuation.RamificationGroup(members, generator, len(members))


def _assert_ram_matches_oracle(group):
    for cls in group.classes:
        if cls.representative != 0:
            v = monomial_valuation(group, cls.representative)
            assert ram_group(group, v) == oracle_ram_group(group, v)


@pytest.mark.parametrize("choice", ["standard", "inverse"])
@pytest.mark.parametrize("name", CORPUS)
def test_ram_equals_the_conjugation_oracle_on_corpus(name, choice):
    _assert_ram_matches_oracle(_corpus_group(name, choice))


@settings(max_examples=40, deadline=None)
@given(spec=diagonal_specs(max_index=24, max_order=8, sl=None))
def test_ram_equals_the_conjugation_oracle_on_diagonal_groups(spec):
    _assert_ram_matches_oracle(close_spec(spec))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_ram_equals_the_conjugation_oracle_off_the_diagonal(data):
    # P^-1 D P: the eigenbasis is dense, and each power walk's exponents
    # come from the characteristic polynomial of a dense generator
    spec = data.draw(diagonal_specs(max_index=24, max_order=8, sl=None))
    field = cyclotomic_field(spec.exponent_vectors()[0])
    diagonal = [dense(field, g) for g in spec.matrices()]
    p = tuple(tuple(field.from_rational(c) for c in row)
              for row in data.draw(unimodular_matrices(spec.n)))
    p_inv = oracle_mat_inv(p)
    _assert_ram_matches_oracle(close([mat_mul(mat_mul(p_inv, d), p) for d in diagonal]))


def test_ram_builds_one_polynomial_per_walk(capsys, monkeypatch, tmp_path):
    # class 1 of (1/211)(1,2,208) generates the one walk; the valuation and
    # Ram share its characteristic polynomial, which the group keeps, in
    # the CLI and in library calls alike
    path = tmp_path / "cyclic211.grp"
    path.write_text("format diagonal\ndimension 3\ngenerator 211 : 1 2 208\n")
    walks = _counted_walks(monkeypatch)
    assert main(["ram", "--class", "1", str(path)]) == 0
    assert capsys.readouterr().err == ""
    assert len(walks) == 1
    group = _diag_group(3, [(211, (1, 2, 208))])
    ram_group(group, monomial_valuation(group, group.classes[1].representative))
    assert len(walks) == 2


def test_ram_reads_integers_off_the_walks(monkeypatch):
    # class 1 of (1/211)(1,2,208): no member is conjugated into the
    # eigenbasis and no diagonal entry is raised to a weight
    group = _diag_group(3, [(211, (1, 2, 208))])
    v = monomial_valuation(group, group.classes[1].representative)

    def refuse(*args, **kwargs):
        raise AssertionError("ram_group did matrix or power work")

    monkeypatch.setattr(cyclo, "_dot", refuse)  # every field product
    monkeypatch.setattr(linalg.RightMultiplier, "__call__", refuse)
    assert ram_group(group, v).degree == 211


@pytest.mark.parametrize("generators", [
    ((4, (1, 0)), (2, (0, 1))),  # Ram is the first walk through g
    ((4, (1, 2)), (4, (1, 0))),  # Ram is the second walk through g
])
def test_ram_is_read_off_whichever_walk_holds_it(generators):
    # g = (1/4)(2, 0) lies in the walks of (1/4)(1, 0) and (1/4)(1, 2),
    # and Ram, the elements (1/4)(a, 0), is the first of them
    spec, group = _spec_and_group(2, generators)
    vector = [spec.word_vector(group.runs(i)) for i in range(len(group))]
    g = vector.index((2, 0))
    assert sum(g in s.members for s in group.maximal_cyclic_subgroups()) == 2
    ram = ram_group(group, monomial_valuation(group, g))
    assert ram.members == [h for h, e in enumerate(vector) if e[1] == 0]


def test_valuation_from_weights():
    # -I in bd8: all weights equal, so Stab is the whole group and Ram the
    # scalars {I, -I}
    group = closed_group("bd8")
    minus_one = next(i for i in range(1, len(group))
                     if group.orders[i] == 2)
    v = monomial_valuation(group, minus_one)
    assert v.weights == (1, 1)
    assert len(stab_group(group, v)) == 8
    ram = ram_group(group, v)
    assert ram.degree == 2
    assert ram.members == [0, minus_one]


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


def _scan_diagonal_exponents(group, index):
    """The zeta scan that the word vector replaced: e_i with
    entry_ii = zeta_N^{e_i}, trying k = 0..N-1."""
    element, field = element_matrix(group, index), group.field
    n = group.dimension
    assert not any(element[i][j]
                   for i in range(n) for j in range(n) if i != j)
    return tuple(next(k for k in range(field.order)
                      if element[i][i] == field.zeta(k))
                 for i in range(n))


def _monomials(n: int, max_degree: int):
    """Every exponent vector of total degree 1..max_degree, by recursion
    over the coordinates."""
    def rec(prefix, remaining, slots):
        if slots == 1:
            yield prefix + (remaining,)
            return
        for k in range(remaining + 1):
            yield from rec(prefix + (k,), remaining - k, slots - 1)

    for total in range(1, max_degree + 1):
        yield from rec((), total, n)


def _scan_fingerprint(group, index, probe_degree):
    """The fingerprint as computed before word vectors, from scanned
    diagonals of the generators and of the element."""
    L, n = group.field.order, group.dimension
    generator_exps = [_scan_diagonal_exponents(group, i)
                      for i in group.generator_indices]
    r = group.orders[index]
    b = _primitivize(tuple(e // (L // r)
                           for e in _scan_diagonal_exponents(group, index)))
    fingerprint = {}
    for m in _monomials(n, probe_degree):
        if all(sum(mi * ei for mi, ei in zip(m, exps)) % L == 0
               for exps in generator_exps):
            value = Fraction(sum(mi * bi for mi, bi in zip(m, b)), r)
            fingerprint[m] = value.numerator if value.denominator == 1 else value
    return fingerprint


def _spec_and_group(n, generators):
    spec = DiagonalGroupSpec(n, tuple(generators))
    return spec, close_spec(spec)


def test_diagonal_exponents():
    spec, group = _spec_and_group(3, [(7, (1, 2, 4))])
    g = group.generator_indices[0]
    assert spec.word_vector(group.runs(g)) == (1, 2, 4)
    assert _scan_diagonal_exponents(group, g) == (1, 2, 4)
    assert spec.word_vector(group.runs(group.power(g, 3))) == (3, 6, 5)


@settings(max_examples=25, deadline=None)
@given(spec=diagonal_specs(max_index=24, max_order=8))
def test_word_vectors_and_fingerprints_match_the_scan(spec):
    # the toric side (spec exponents along closure runs) against the
    # matrix side (scanned diagonals), under both choices
    inverse = parse_group_text(spec_text(spec)).inverted().to_spec()
    for s in (spec, inverse):
        group = close_spec(s)
        L = group.field.order
        assert s.exponent_vectors()[0] == L
        for i in range(1, len(group)):
            vector = s.word_vector(group.runs(i))
            assert vector == _scan_diagonal_exponents(group, i)
            # the walk polynomial agrees with the spec's integer vector
            step = L // group.orders[i]
            assert monomial_valuation(group, i).expression.exponents == \
                tuple(sorted(e // step for e in vector))
            for probe in range(1, 7):
                assert valuation_fingerprint(s, group, i, probe) == \
                    _scan_fingerprint(group, i, probe)


def test_fingerprint_matches_the_scan_in_higher_dimension():
    # most monomials leave most variables out, and only some are invariant
    n = 9
    spec, group = _spec_and_group(
        n, [(3, (1, 2) + (0,) * 7), (5, (0, 0, 1, 4, 0, 2, 3, 0, 0))])
    for i in range(1, len(group)):
        assert valuation_fingerprint(spec, group, i, 3) == \
            _scan_fingerprint(group, i, 3)


def test_fingerprint_order_mismatch_names_the_element():
    # the group has an involution where the spec has an element of order 4
    _, group = _spec_and_group(2, [(2, (1, 1))])
    spec = DiagonalGroupSpec(2, ((4, (1, 3)),))
    with pytest.raises(InternalInvariantError,
                       match=r"\(1/4\)\(1, 3\) of element g1 \(order 2\) "
                             r"has order 4"):
        valuation_fingerprint(spec, group, group.generator_indices[0], 2)


def test_fingerprint_half_11():
    spec, group = _spec_and_group(2, [(2, (1, 1))])
    g = group.generator_indices[0]
    fp = valuation_fingerprint(spec, group, g, 2)
    assert fp == {(2, 0): 1, (1, 1): 1, (0, 2): 1}


def test_fingerprint_third_12():
    spec, group = _spec_and_group(2, [(3, (1, 2))])
    g = group.generator_indices[0]
    fp = valuation_fingerprint(spec, group, g, 3)
    assert fp == {(3, 0): 1, (1, 1): 1, (0, 3): 2}


def test_fingerprint_values_are_integral_on_invariants():
    # v_g of an invariant monomial lies in (1/r) Z and here is integral for
    # the junior generator of (1/7)(1,2,4)
    spec, group = _spec_and_group(3, [(7, (1, 2, 4))])
    g = group.generator_indices[0]
    fp = valuation_fingerprint(spec, group, g, 7)
    assert fp  # x*y*z among others
    assert fp[(1, 1, 1)] == 1
    assert all(isinstance(v, int) for v in fp.values())
    with pytest.raises(RequirementError):
        valuation_fingerprint(spec, group, g, 0)
