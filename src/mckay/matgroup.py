"""Finite matrix groups over a cyclotomic field.

Closure from generators is a breadth-first search on distinct row vectors:
row i of M*g is (row i of M)*g, and the elements of a group share few rows
(icosahedral60 has 180 rows, 30 of them distinct), so each distinct row is
multiplied by each generator once and an element is the tuple of its row
ids.  This is the orbit method of Holt, Eick and O'Brien (Handbook of
Computational Group Theory, 2005, 4.1): act on a small orbit, not on the
group.  The closure keeps a row sparse, as its nonzero entries
(column, nums, den) in integer normal form (`linalg`), so rows dedupe on
tuples of integers and a diagonal row of any dimension is one entry.
After closure, every group operation works on element indices.  Each
element keeps one entry of a Schreier tree with run lengths (ibid.):
elements[i] = elements[j] * g_k^m, where the word of elements[j] does not
end in g_k.  Products follow the runs (k, m) of the breadth-first word,
read by walking the tree, through the right-multiplication table.
Powers come from one walk x^0, x^1, ..., x^(r-1) per cyclic subgroup <x>
not reached by an earlier walk: an element found as x^k in a walk of
length r has order r/gcd(r, k), and its powers, its inverse and its cyclic
subgroup are read off that walk.  Conjugacy classes are orbits under
conjugation by the generators, g^-1 x g = (x^-1 g)^-1 g from the table;
the maximal cyclic subgroups are the walks that no other walk contains.
An element is the tuple of its row ids into the group's one list of
distinct rows; its order, inverse, class and trace are kept by the group.
A trace is kept as its integer numerators, one tuple per distinct trace.
"""

from __future__ import annotations

from collections import Counter
from math import gcd, lcm

from . import linalg
from .cyclo import CycNum, _terms, split_prime
from .errors import ClosureCapError, InternalInvariantError, RequirementError

DEFAULT_CAP = 100_000


class ConjugacyClass:
    __slots__ = ("representative", "members")

    def __init__(self, representative: int, members: tuple[int, ...]):
        self.representative = representative
        self.members = members

    def __len__(self):
        return len(self.members)

    def __repr__(self):
        return f"ConjugacyClass(rep={self.representative}, size={len(self.members)})"


class CyclicSubgroup:
    __slots__ = ("generator", "members")

    def __init__(self, generator: int, members: tuple[int, ...]):
        self.generator = generator
        self.members = members

    def __len__(self):
        return len(self.members)


class MatrixGroup:
    """A closed finite matrix group; immutable once constructed, but for
    the traces and walk exponents it keeps once computed.

    `elements[i]` is element i as the tuple of its row ids: its row k is
    `rows[elements[i][k]]`, a sparse row of `linalg`.
    `right[k][i]` is the index of elements[i] * generator k, as recorded by
    the closure; products and classes are read from it.  `_tree[i]` is the
    tree entry (j, k, m) of elements[i], (0, None, 0) for the identity, and
    `runs(i)` reads its word, for products and names.  `_walks` holds one
    power walk (x^0, x^1, ..., x^(r-1)) for each x, in index order, that no
    earlier walk reached, and `places[i]` is the pair (walk, k) with
    walk[k] == i from the first walk that reached i.  `orders`, `inverses`,
    powers and cyclic subgroups are read from it, and `class_of[i]` is the
    class of element i.  `walk_exponents` maps a walk's generator to the
    eigenvalue exponents that `age.eigen_exponents` reads off the walk.
    """

    def __init__(self, dimension, field, rows, elements, generator_indices,
                 generator_names, right, tree, in_sl):
        self.dimension = dimension
        self.field = field
        self.rows = rows
        self.elements = elements
        self.generator_indices = generator_indices
        self.generator_names = generator_names
        self._right = right
        self._tree = tree
        self.in_sl = in_sl
        self._walks = []
        self.places = [None] * len(elements)
        self.orders = [None] * len(elements)
        for x in range(len(elements)):
            if self.places[x] is not None:
                continue
            walk, acc, runs = [0], x, self.runs(x)
            while acc:
                walk.append(acc)
                if len(walk) > len(elements):
                    raise InternalInvariantError(
                        f"the powers of element {self.element_name(x)} do "
                        f"not reach the identity within {len(elements)} steps"
                    )
                acc = self.times(acc, runs)  # acc * x, reading x's runs once a walk
            walk = tuple(walk)
            self._walks.append(walk)
            for k, y in enumerate(walk):
                if self.places[y] is None:
                    self.places[y] = (walk, k)
                    self.orders[y] = len(walk) // gcd(len(walk), k)
        self.inverses = [walk[-k % len(walk)] for walk, k in self.places]
        self.exponent = lcm(*(len(walk) for walk in self._walks))
        self._traces, self._distinct_traces = [None] * len(elements), {}
        self.walk_exponents = {}
        self.class_of = [None] * len(elements)
        self.classes = self._conjugacy_classes()

    # -- basic structure ---------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def runs(self, i: int) -> list[tuple[int, int]]:
        """The breadth-first word of elements[i] as runs [(k, m), ...]."""
        runs = []
        while i:
            i, k, m = self._tree[i]
            runs.append((k, m))
        return runs[::-1]

    def times(self, i: int, runs) -> int:
        """elements[i] times the word of the runs [(k, m), ...]."""
        for k, m in runs:
            row = self._right[k]
            for _ in range(m):
                i = row[i]
        return i

    def power(self, i: int, m: int) -> int:
        walk, k = self.places[i]
        return walk[k * m % len(walk)]

    def trace(self, i: int) -> tuple[int, ...]:
        """The trace of elements[i], an algebraic integer, as its phi(N) integer
        numerators; computed on first use, equal traces kept as one tuple."""
        t = self._traces[i]
        if t is None:
            nums, den = _trace(self.field, self.rows, self.elements[i])
            if den != 1:
                raise InternalInvariantError(
                    f"the trace of element {self.describe(i)} is not integral")
            t = self._traces[i] = self._distinct_traces.setdefault(nums, nums)
        return t

    def element_name(self, i: int) -> str:
        return "*".join(self.generator_names[k] + (f"^{m}" if m > 1 else "")
                        for k, m in self.runs(i)) or "e"

    def describe(self, i: int) -> str:
        """The element's name and order, for error messages."""
        return f"{self.element_name(i)} (order {self.orders[i]})"

    def _conjugacy_classes(self):
        """Orbits of x -> g^-1 x g over the generators g, found in index
        order; fills `class_of`."""
        inv, classes = self.inverses, []
        for i in range(len(self.elements)):
            if self.class_of[i] is not None:
                continue
            orbit, todo = {i}, [i]
            while todo:
                x_inv = inv[todo.pop()]
                for row in self._right:
                    y = row[inv[row[x_inv]]]
                    if y not in orbit:
                        orbit.add(y)
                        todo.append(y)
            members = tuple(sorted(orbit))
            for m in members:
                self.class_of[m] = len(classes)
            classes.append(ConjugacyClass(members[0], members))
        return classes

    # -- derived structure -------------------------------------------------

    def centralizer(self, g: int) -> list[int]:
        """The elements commuting with elements[g], in index order: one
        breadth-first sweep sets conj[h] = h^-1 g h, as conj[p * g_k] =
        g_k^-1 conj[p] g_k by the table lookup of `_conjugacy_classes`."""
        inv = self.inverses
        conj = [None] * len(self.elements)
        conj[0] = g
        for p, x in enumerate(conj):
            for row in self._right:
                conj[row[p]] = row[inv[row[inv[x]]]]
        return [h for h, x in enumerate(conj) if x == g]

    def cyclic_subgroup(self, i: int) -> frozenset[int]:
        walk, k = self.places[i]
        return frozenset(walk[::gcd(len(walk), k)])

    def maximal_cyclic_subgroups(self) -> list[CyclicSubgroup]:
        """All cyclic subgroups maximal under inclusion, each reported once
        with its lowest-index generator.

        A maximal <g> is the walk of that generator: an earlier walk
        reaching it would contain <g>, so equal it and start at a
        lower-index generator.  A walk is maximal iff its generator lies in
        no other walk."""
        containing = Counter(y for walk in self._walks for y in walk)
        subgroups = [
            CyclicSubgroup(walk[1 % len(walk)], tuple(sorted(walk)))
            for walk in self._walks if containing[walk[1 % len(walk)]] == 1
        ]
        subgroups.sort(key=lambda sg: (len(sg.members), sg.members))
        return subgroups


class _Lazy(dict):
    """A dict that fills a missing key with `compute(key)`."""

    __slots__ = ("compute",)

    def __init__(self, compute):
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


def _trace(field, rows, ids):
    """The normal form (nums, den) of the sum of entry i of row i over the
    rows `ids` of an element, summed on integers over one denominator."""
    entries = [(nums, d) for i, r in enumerate(ids) for j, nums, d in rows[r] if j == i]
    den = lcm(*(d for _, d in entries))
    nums = tuple(map(sum, zip(field.zero().nums, *(
        nums if d == den else [c * (den // d) for c in nums] for nums, d in entries))))
    if den != 1 and (g := gcd(den, *nums)) != 1:
        nums, den = tuple(c // g for c in nums), den // g
    return nums, den


def _require_finite_order(field, rows, ids, names, tree, entry):
    """The trace of a matrix of finite order is a sum of n roots of unity:
    integral in the power basis of Z[zeta_N] and, when rational, at most n
    in absolute value.  Otherwise the word of length 1 or 2 of the tree
    `entry` (j, k, m) is named: g_k^m after the one letter of element j."""
    n, (nums, den) = len(ids), _trace(field, rows, ids)
    if den != 1 or (not any(nums[1:]) and abs(nums[0]) > n):
        j, k, m = entry
        word = (f"{names[tree[j][1]]}*" if j else "") + names[k] + (f"^{m}" if m > 1 else "")
        raise RequirementError(f"{'element' if j or m > 1 else 'generator'} {word} "
                               f"has infinite order: its trace "
                               f"{CycNum(field, nums, den).to_literal()} "
                               f"is not a sum of {n} roots of unity")


def _scan(keys, steps, admit):
    """The breadth-first scan of a closure on hashable element keys: `keys`
    holds the identity's key, then the generators', and `steps[k](key)` is
    the key of that element times generator k.  A new key goes to
    `admit(key, entry, tree, check)` before it is indexed, `check` being
    true for the words of length 1 and 2.  Returns the keys in index order,
    the tree, `right` and the generator indices."""
    found, index_of, tree = [], {}, []

    def add(key, entry, check):
        index = index_of.get(key)
        if index is None:
            admit(key, entry, tree, check)
            index = index_of[key] = len(found)
            found.append(key)
            tree.append(entry)
        return index

    add(keys[0], (0, None, 0), False)
    generator_indices = tuple(add(key, (0, k, 1), True) for k, key in enumerate(keys[1:]))
    short = max(generator_indices)  # scanning p <= short adds the words of length 2
    right = [[] for _ in steps]
    # `found` grows during the scan, so this visits elements in
    # breadth-first order and right[k][p] is filled for every p.
    for p, key in enumerate(found):
        j, last, m = tree[p]
        for k, step in enumerate(steps):
            entry = (j, k, m + 1) if k == last else (p, k, 1)
            right[k].append(add(step(key), entry, p <= short))
    return found, tree, right, generator_indices


def close_group(field, generators, cap: int = DEFAULT_CAP, names=None,
                inverse: bool = False) -> MatrixGroup:
    """Breadth-first closure of a generator list under multiplication, or,
    if `inverse`, of the list of their inverses.  A generator is a tuple
    of n sparse rows over `field` (`linalg`): its nonzero entries (column,
    nums, den), sorted by column, each in the field's normal form.

    Each generator's determinant is first mapped into F_P by
    `linalg.det_image`, P the field's first split prime that divides no
    denominator.  A generator of finite order has its determinant in
    mu_M, M = lcm(2, R), which maps injectively into F_P^*: an image
    outside it, zero included, refuses the generator as singular or of
    infinite order.  Once the closure succeeds, `in_sl` (every image
    is 1) is exact.

    `_scan` keys an element by its row ids.  `rows` holds each distinct
    row once, and `row_of` dedupes a row on its integers.  `images[k][r]`,
    the id of row r times generator k, is computed on first lookup by
    `linalg.RightMultiplier`, so the field work is (distinct rows) x
    (generators) row products.  Raises ClosureCapError past `cap`
    elements, and RequirementError for a word of length 1 or 2 that fails
    the trace test of `_require_finite_order`.

    Under `inverse`, each table right[k] of the closed group is a
    permutation, whose inverse is right multiplication by the inverse of
    generator k.  The scan re-runs on indices with the inverted tables,
    which gives the elements, tree and tables that closing the inverted
    matrices gives, with no field work.
    """
    if not generators:
        raise RequirementError("at least one generator is required")
    n = len(generators[0])
    for g in generators:
        if len(g) != n or any([j for j, _, _ in row] != sorted(
                {j for j, _, _ in row if 0 <= j < n}) for row in g):
            raise RequirementError("generators must be square matrices of equal "
                                   "size, as rows of entries sorted by column")
        if any(len(nums) != field.degree or den < 1 or not any(nums)
               or gcd(den, *nums) != 1 for row in g for _, nums, den in row):
            raise RequirementError(f"generators must share one cyclotomic field: "
                                   f"every entry a nonzero normal form of {field}")
    if names is None:
        names = [f"g{i + 1}" for i in range(len(generators))]
    prime, omega = split_prime(field.order)
    while any(den % prime == 0 for g in generators for row in g for _, _, den in row):
        prime, omega = split_prime(field.order, prime)
    determinants = [linalg.det_image(field, g, prime, omega) for g in generators]
    for name, d in zip(names, determinants):
        if pow(d, lcm(2, field.order), prime) != 1:
            raise RequirementError(f"generator {name} is singular or of infinite "
                                   "order: its determinant is not a root of unity")

    rows = []  # the distinct rows, shared by the elements
    operands = []  # operands[r]: the entries of rows[r] as kernel terms
    row_of = {}  # row -> id

    def row_id(row):
        r = row_of.setdefault(row, len(rows))  # hashes the long row once
        if r == len(rows):
            rows.append(row)
            operands.append([(den, _terms(nums)) for _, nums, den in row])
        return r

    def image_table(g):
        """The dict r -> id of rows[r] * g, each entry computed on first use."""
        times = linalg.RightMultiplier(field, g)
        return _Lazy(lambda r: row_id(times(rows[r], operands[r])))

    def admit(ids, entry, tree, check):
        if check:
            _require_finite_order(field, rows, ids, names, tree, entry)
        if len(tree) >= cap:
            raise ClosureCapError(cap)

    one = field.one().nums
    steps = [lambda ids, get=image_table(g).__getitem__: tuple(map(get, ids))
             for g in generators]
    keys = [tuple(map(row_id, g))
            for g in ([((i, one, 1),) for i in range(n)], *generators)]
    elements, tree, right, generator_indices = _scan(keys, steps, admit)
    if inverse:  # the p with right[k][p] == q is q times generator k's inverse
        steps = [sorted(range(len(row)), key=row.__getitem__).__getitem__
                 for row in right]
        order, tree, right, generator_indices = _scan(
            [0] + [step(0) for step in steps], steps, lambda *args: None)
        elements = [elements[i] for i in order]
    return MatrixGroup(n, field, rows, elements, generator_indices, list(names),
                       right, tree, all(d == 1 for d in determinants))
