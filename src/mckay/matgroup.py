"""Finite matrix groups over a cyclotomic field.

Closure from generators by breadth-first search, element orders, conjugacy
classes as orbits under conjugation by the generators, and maximal cyclic
subgroups.  Elements are deduplicated through the unique normal form of
their entries during closure; after it, every group operation works on
element indices through the closure's right-multiplication table.
"""

from __future__ import annotations

from math import lcm

from . import linalg
from .errors import ClosureCapError, RequirementError

DEFAULT_CAP = 100_000


def _key(entries):
    """Dedup key of a matrix: the normal forms (numerators, denominator) of
    its entries."""
    return tuple(tuple((x.nums, x.den) for x in row) for row in entries)


class GroupElement:
    """An n x n matrix over Q(zeta_N) with its order and a stable index."""

    __slots__ = ("entries", "order", "index", "word")

    def __init__(self, entries, index, word):
        self.entries = entries
        self.index = index
        self.word = word  # generator-index sequence from the BFS closure
        self.order = None  # filled in by the group once closed

    def name(self, generator_names) -> str:
        if not self.word:
            return "e"
        parts = []
        i = 0
        while i < len(self.word):
            j = i
            while j < len(self.word) and self.word[j] == self.word[i]:
                j += 1
            base = generator_names[self.word[i]]
            parts.append(base if j - i == 1 else f"{base}^{j - i}")
            i = j
        return "*".join(parts)

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
    the closure; products, inverses, orders and classes are read from it.
    """

    def __init__(self, dimension, field, elements, generator_indices,
                 generator_names, right):
        self.dimension = dimension
        self.field = field
        self.elements = elements
        self.generator_indices = generator_indices
        self.generator_names = generator_names
        self._right = right
        self._fill_orders()
        self.exponent = lcm(*(e.order for e in self.elements))
        self.in_sl = all(
            linalg.det(self.elements[i].entries) == 1 for i in generator_indices
        )
        self._inverses = [self.power(i, self.elements[i].order - 1)
                          for i in range(len(self.elements))]
        self.class_of = {}
        self.classes = self._conjugacy_classes()

    # -- basic structure ---------------------------------------------------

    def __len__(self):
        return len(self.elements)

    @property
    def order(self):
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        # elements[j] is the product of the generators in its word
        for k in self.elements[j].word:
            i = self._right[k][i]
        return i

    def inv(self, i: int) -> int:
        return self._inverses[i]

    def power(self, i: int, k: int) -> int:
        result, base = 0, i
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def element_name(self, i: int) -> str:
        return self.elements[i].name(self.generator_names)

    def _fill_orders(self):
        for element in self.elements:
            k, acc = 1, element.index
            while acc != 0:
                acc = self.mul(acc, element.index)
                k += 1
            element.order = k

    def _conjugacy_classes(self):
        """Orbits of x -> g^-1 x g over the generators g, found in index
        order; fills `class_of`."""
        classes = []
        for i in range(len(self.elements)):
            if i in self.class_of:
                continue
            orbit, todo = {i}, [i]
            while todo:
                x = todo.pop()
                for g in self.generator_indices:
                    y = self.mul(self.mul(self._inverses[g], x), g)
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
        members = {0}
        acc = i
        while acc != 0:
            members.add(acc)
            acc = self.mul(acc, i)
        return frozenset(members)

    def maximal_cyclic_subgroups(self) -> list[CyclicSubgroup]:
        """All cyclic subgroups maximal under inclusion, each reported once."""
        by_set: dict[frozenset[int], int] = {}
        for i in range(len(self.elements)):
            s = self.cyclic_subgroup(i)
            gen = by_set.get(s)
            # keep a generator of maximal order; ties go to the lowest index
            if gen is None or self.elements[i].order > self.elements[gen].order:
                by_set[s] = i
        sets = list(by_set)
        maximal = [
            s for s in sets
            if not any(s < other for other in sets)
        ]
        subgroups = [CyclicSubgroup(by_set[s], tuple(sorted(s))) for s in maximal]
        subgroups.sort(key=lambda sg: (len(sg.members), sg.members))
        return subgroups


def close_group(generators, cap: int = DEFAULT_CAP, names=None) -> MatrixGroup:
    """Breadth-first closure of a generator list under multiplication.

    The result contains the identity and all products and inverses; raises
    ClosureCapError if more than `cap` elements appear.
    """
    if not generators:
        raise RequirementError("at least one generator is required")
    n = len(generators[0])
    field = generators[0][0][0].field
    for g in generators:
        if len(g) != n or any(len(row) != n for row in g):
            raise RequirementError("generators must be square matrices of equal size")
        if any(x.field is not field for row in g for x in row):
            raise RequirementError("generators must share one cyclotomic field")
        if not linalg.det(g):
            raise RequirementError("non-invertible generator")
    if names is None:
        names = [f"g{i + 1}" for i in range(len(generators))]

    elements = []
    index_of = {}

    def add(entries, word):
        key = _key(entries)
        index = index_of.get(key)
        if index is None:
            if len(elements) >= cap:
                raise ClosureCapError(cap)
            index = len(elements)
            elements.append(GroupElement(entries, index, word))
            index_of[key] = index
        return index

    add(linalg.identity(field, n), ())
    generator_indices = tuple(add(tuple(tuple(row) for row in g), (k,))
                              for k, g in enumerate(generators))
    right = [[] for _ in generators]
    # `elements` grows during the scan, so this visits elements in
    # breadth-first order and right[k][i] is filled for every i.
    for element in elements:
        for k, g in enumerate(generators):
            product = linalg.mat_mul(element.entries, g)
            right[k].append(add(product, element.word + (k,)))

    return MatrixGroup(n, field, elements, generator_indices, list(names), right)
