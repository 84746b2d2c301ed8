"""Finite matrix groups over a cyclotomic field.

Closure from generators is a breadth-first search on distinct row vectors:
row i of M*g is (row i of M)*g, and the elements of a group share few rows
(icosahedral60 has 180 rows, 30 of them distinct), so each distinct row is
multiplied by each generator once and an element is the tuple of its row
ids.  This is the orbit method of Holt, Eick and O'Brien (Handbook of
Computational Group Theory, 2005, 4.1): act on a small orbit, not on the
group.  Rows are deduplicated through the unique normal form of their
entries.  After closure, every group operation works on element
indices.  Each element keeps one entry of a Schreier tree with run lengths
(ibid.): elements[i] = elements[j] * g_k^m, where the word of elements[j]
does not end in g_k.  Products follow the runs (k, m) of the breadth-first
word, read by walking the tree, through the right-multiplication table.
Powers come from one walk x^0, x^1, ..., x^(r-1) per cyclic subgroup <x>
not reached by an earlier walk: an element found as x^k in a walk of
length r has order r/gcd(r, k), and its powers, its inverse and its cyclic
subgroup are read off that walk.  Conjugacy classes are orbits under
conjugation by the generators, g^-1 x g = (x^-1 g)^-1 g from the table;
the maximal cyclic subgroups are the walks that no other walk contains.
"""

from __future__ import annotations

from collections import Counter
from math import gcd, lcm

from . import linalg
from .errors import ClosureCapError, InternalInvariantError, RequirementError

DEFAULT_CAP = 100_000


class GroupElement:
    """An n x n matrix over Q(zeta_N) with its order and a stable index."""

    __slots__ = ("entries", "order", "index")

    def __init__(self, entries, index):
        self.entries = entries
        self.index = index
        self.order = None  # filled in by the group once closed

    def trace(self):
        return linalg.trace(self.entries)

    def __repr__(self):
        return f"<GroupElement #{self.index} order={self.order}>"


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
    """A closed finite matrix group; immutable once constructed.

    `right[k][i]` is the index of elements[i] * generator k, as recorded by
    the closure; products and classes are read from it.  `_tree[i]` is the
    tree entry (j, k, m) of elements[i], (0, None, 0) for the identity, and
    `runs(i)` reads its word, for products and names.  `_walks` holds one
    power walk (x^0, x^1, ..., x^(r-1)) for each x, in index order, that no
    earlier walk reached, and `places[i]` is the pair (walk, k) with
    walk[k] == i from the first walk that reached i.  Orders, powers,
    inverses, cyclic subgroups and (in `age`) eigenvalues are read from it.
    """

    def __init__(self, dimension, field, elements, generator_indices,
                 generator_names, right, tree, in_sl):
        self.dimension = dimension
        self.field = field
        self.elements = elements
        self.generator_indices = generator_indices
        self.generator_names = generator_names
        self._right = right
        self._tree = tree
        self.in_sl = in_sl
        self._walks = []
        self.places = [None] * len(elements)
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
                for k, m in runs:  # acc * x, reading x's runs once a walk
                    for _ in range(m):
                        acc = right[k][acc]
            walk = tuple(walk)
            self._walks.append(walk)
            for k, y in enumerate(walk):
                if self.places[y] is None:
                    self.places[y] = (walk, k)
                    elements[y].order = len(walk) // gcd(len(walk), k)
        self.exponent = lcm(*(len(walk) for walk in self._walks))
        self.class_of = {}
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

    def mul(self, i: int, j: int) -> int:
        for k, m in self.runs(j):
            for _ in range(m):
                i = self._right[k][i]
        return i

    def inv(self, i: int) -> int:
        return self.power(i, -1)

    def power(self, i: int, m: int) -> int:
        walk, k = self.places[i]
        return walk[k * m % len(walk)]

    def element_name(self, i: int) -> str:
        return "*".join(self.generator_names[k] + (f"^{m}" if m > 1 else "")
                        for k, m in self.runs(i)) or "e"

    def describe(self, i: int) -> str:
        """The element's name and order, for error messages."""
        return f"{self.element_name(i)} (order {self.elements[i].order})"

    def _conjugacy_classes(self):
        """Orbits of x -> g^-1 x g over the generators g, found in index
        order; fills `class_of`."""
        inv, classes = self.inv, []
        for i in range(len(self.elements)):
            if i in self.class_of:
                continue
            orbit, todo = {i}, [i]
            while todo:
                x_inv = inv(todo.pop())
                for row in self._right:
                    y = row[inv(row[x_inv])]
                    if y not in orbit:
                        orbit.add(y)
                        todo.append(y)
            members = tuple(sorted(orbit))
            for m in members:
                self.class_of[m] = len(classes)
            classes.append(ConjugacyClass(members[0], members))
        return classes

    # -- derived structure -------------------------------------------------

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


def close_group(generators, cap: int = DEFAULT_CAP, names=None) -> MatrixGroup:
    """Breadth-first closure of a generator list under multiplication.

    `rows` holds the distinct row vectors met so far, and an element is the
    tuple of its row ids, deduplicated on that tuple; `GroupElement.entries`
    shares the row tuples.  The image of a row under generator k is computed
    once, when first needed, by the generator's `linalg.RightMultiplier` on
    a 1 x n matrix, so the field work is (distinct rows) x (generators) row
    products.  The result contains the identity and all products and
    inverses; raises ClosureCapError if more than `cap` elements appear.
    """
    if not generators:
        raise RequirementError("at least one generator is required")
    n = len(generators[0])
    field = generators[0][0][0].field
    determinants = []
    for g in generators:
        if len(g) != n or any(len(row) != n for row in g):
            raise RequirementError("generators must be square matrices of equal size")
        if any(x.field is not field for row in g for x in row):
            raise RequirementError("generators must share one cyclotomic field")
        determinants.append(linalg.det(g))
        if not determinants[-1]:
            raise RequirementError("non-invertible generator")
    if names is None:
        names = [f"g{i + 1}" for i in range(len(generators))]

    rows = []
    row_of = {}

    def row_id(row):
        r = row_of.get(row)
        if r is None:
            r = row_of[row] = len(rows)
            rows.append(row)
        return r

    multipliers = [linalg.RightMultiplier(g) for g in generators]
    images = [{} for _ in generators]  # images[k][r]: id of rows[r] * g_k

    def image(r, k):
        s = images[k].get(r)
        if s is None:
            s = images[k][r] = row_id(multipliers[k]((rows[r],))[0])
        return s

    elements = []
    ids_of = []  # ids_of[i]: the row ids of elements[i]
    index_of = {}
    tree = []

    def add(ids, entry):
        index = index_of.get(ids)
        if index is None:
            if len(elements) >= cap:
                raise ClosureCapError(cap)
            index = len(elements)
            elements.append(GroupElement(tuple(rows[r] for r in ids), index))
            ids_of.append(ids)
            index_of[ids] = index
            tree.append(entry)
        return index

    add(tuple(row_id(row) for row in linalg.identity(field, n)), (0, None, 0))
    generator_indices = tuple(add(tuple(row_id(tuple(row)) for row in g), (0, k, 1))
                              for k, g in enumerate(generators))
    right = [[] for _ in generators]
    # `ids_of` grows during the scan, so this visits elements in
    # breadth-first order and right[k][p] is filled for every p.
    for p, ids in enumerate(ids_of):
        j, last, m = tree[p]
        for k in range(len(generators)):
            entry = (j, k, m + 1) if k == last else (p, k, 1)
            right[k].append(add(tuple(image(r, k) for r in ids), entry))

    in_sl = all(d == 1 for d in determinants)
    return MatrixGroup(n, field, elements, generator_indices, list(names),
                       right, tree, in_sl)
