"""Finite matrix groups over a cyclotomic field.

Closure from generators by breadth-first search, element orders, conjugacy
classes by brute-force orbit expansion, and maximal cyclic subgroups.
Elements are deduplicated through the unique normal form of their entries.
"""

from __future__ import annotations

from math import lcm

from . import linalg
from .errors import ClosureCapError, RequirementError

DEFAULT_CAP = 100_000


def _key(entries):
    """Dedup key of a matrix: the normal-form coefficients of its entries."""
    return tuple(tuple(x.coeffs for x in row) for row in entries)


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
    """A closed finite matrix group; immutable once constructed."""

    def __init__(self, dimension, field, elements, generator_indices,
                 generator_names, index_map):
        self.dimension = dimension
        self.field = field
        self.elements = elements
        self.generator_indices = generator_indices
        self.generator_names = generator_names
        self._index = index_map
        self._products: dict[tuple[int, int], int] = {}
        self._fill_orders()
        self.exponent = lcm(*(e.order for e in self.elements))
        self.in_sl = all(
            linalg.det(self.elements[i].entries) == 1 for i in generator_indices
        )
        self._inverses = [self.power(i, self.elements[i].order - 1)
                          for i in range(len(self.elements))]
        self.classes = self._conjugacy_classes()
        self.class_of = {}
        for k, cls in enumerate(self.classes):
            for m in cls.members:
                self.class_of[m] = k

    # -- basic structure ---------------------------------------------------

    def __len__(self):
        return len(self.elements)

    @property
    def order(self):
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        key = (i, j)
        cached = self._products.get(key)
        if cached is not None:
            return cached
        product = linalg.mat_mul(self.elements[i].entries, self.elements[j].entries)
        result = self._index[_key(product)]
        self._products[key] = result
        return result

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
        n = len(self.elements)
        assigned = [False] * n
        classes = []
        for i in range(n):
            if assigned[i]:
                continue
            orbit = set()
            for h in range(n):
                orbit.add(self.mul(self.mul(h, i), self._inverses[h]))
            members = tuple(sorted(orbit))
            for m in members:
                assigned[m] = True
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

    def inverted_generators(self):
        """Generator matrices replaced by their inverses (the opposite
        choice of roots of unity; see the grading convention note)."""
        return [self.elements[self.inv(i)].entries for i in self.generator_indices]


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

    identity = linalg.identity(field, n)
    elements = []
    index_map = {}

    def add(entries, word):
        key = _key(entries)
        existing = index_map.get(key)
        if existing is not None:
            return None
        element = GroupElement(entries, len(elements), word)
        elements.append(element)
        index_map[key] = element.index
        return element

    add(identity, ())
    gen_elements = []
    for k, g in enumerate(generators):
        element = add(tuple(tuple(row) for row in g), (k,))
        if element is None:  # duplicate generator or identity
            element = elements[index_map[_key(g)]]
        gen_elements.append(element)

    frontier = list(elements)
    while frontier:
        new_frontier = []
        for element in frontier:
            for k, g in enumerate(gen_elements):
                product = linalg.mat_mul(element.entries, g.entries)
                added = add(product, element.word + (k,))
                if added is not None:
                    new_frontier.append(added)
                    if len(elements) > cap:
                        raise ClosureCapError(
                            f"closure exceeded cap of {cap} elements; "
                            "group too large or infinite"
                        )
        frontier = new_frontier

    generator_indices = tuple(e.index for e in gen_elements)
    return MatrixGroup(n, field, elements, generator_indices, list(names), index_map)
