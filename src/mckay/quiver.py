"""Resolution graphs for n = 2: junior chains of maximal cyclic subgroups
folded by conjugacy into the ADE diagrams.

Each maximal cyclic subgroup <g> of order r contributes the chain of its
nonidentity powers ordered along the junior interval; identifying equal and
conjugate elements projects chain edges to edges between conjugacy classes.
"""

from __future__ import annotations

from math import gcd

from .age import eigen_exponents
from .errors import InternalInvariantError, RequirementError
from .matgroup import MatrixGroup
from .record import Record


class CyclicChain(Record):
    __slots__ = ("generator", "nodes", "edges")
    def __init__(self, generator: int, nodes: list[int], edges: list[tuple[int, int]]):
        self.generator = generator  # element index of the subgroup generator
        self.nodes = nodes  # element indices ordered along the junior interval
        self.edges = edges  # consecutive pairs


class FoldedGraph(Record):
    __slots__ = ("nodes", "labels", "edges")
    def __init__(self, nodes: list[int], labels: dict[int, str],
                 edges: list[tuple[int, int]]):
        self.nodes = nodes  # conjugacy class ids, identity class excluded
        self.labels = labels  # class id -> representative name
        self.edges = edges  # unordered class-id pairs, deduplicated


def _require_sl2(group: MatrixGroup):
    if group.dimension != 2:
        raise RequirementError(
            f"resolution graphs require dimension 2, got {group.dimension}"
        )
    if not group.in_sl:
        raise RequirementError("resolution graphs require a subgroup of SL(2, C)")
    if len(group.elements) == 1:
        raise RequirementError("the trivial group has no resolution graph")


def junior_chains(group: MatrixGroup) -> list[CyclicChain]:
    """One chain per maximal cyclic subgroup, powers ordered by the exponent
    of the distinguished eigenvalue of the generator."""
    _require_sl2(group)
    chains = []
    for subgroup in group.maximal_cyclic_subgroups():
        g = subgroup.generator
        r = group.orders[g]
        expr = eigen_exponents(group, g)
        a = expr.exponents[0] if expr.exponents[0] != 0 else expr.exponents[1]
        if gcd(a, r) != 1:
            raise InternalInvariantError(
                f"cyclic generator {group.describe(g)} has non-primitive "
                f"eigenvalue exponent {a}"
            )
        a_inv = pow(a, -1, r)
        # the power sitting at interval position j has exponent j, i.e. g^(j/a)
        nodes = [group.power(g, (j * a_inv) % r) for j in range(1, r)]
        edges = list(zip(nodes, nodes[1:]))
        chains.append(CyclicChain(g, nodes, edges))
    return chains


def fold(group: MatrixGroup) -> FoldedGraph:
    """Project every chain edge to its pair of conjugacy classes; nodes are
    all nonidentity classes, duplicate edges removed."""
    _require_sl2(group)
    identity_class = group.class_of[0]
    nodes = [k for k in range(len(group.classes)) if k != identity_class]
    edge_set = set()
    for chain in junior_chains(group):
        for u, v in chain.edges:
            cu, cv = group.class_of[u], group.class_of[v]
            if cu == cv:
                raise RequirementError(
                    "a chain edge folds to a loop; the folded graph is not "
                    "defined for this group"
                )
            edge_set.add((min(cu, cv), max(cu, cv)))
    labels = {
        k: group.element_name(group.classes[k].representative) for k in nodes
    }
    return FoldedGraph(nodes, labels, sorted(edge_set))


def to_dot(graph: FoldedGraph) -> str:
    """Deterministic DOT text: nodes sorted by class representative index,
    edges lexicographically."""
    lines = ["graph G {"]
    for k in sorted(graph.nodes):
        lines.append(f'  c{k} [label="{graph.labels[k]}"];')
    for u, v in sorted(graph.edges):
        lines.append(f"  c{u} -- c{v};")
    lines.append("}")
    return "\n".join(lines)


def to_json_dict(graph: FoldedGraph) -> dict:
    nodes = sorted(graph.nodes)
    position = {k: i for i, k in enumerate(nodes)}
    return {
        "nodes": [graph.labels[k] for k in nodes],
        "edges": [[position[u], position[v]] for u, v in sorted(graph.edges)],
    }
