import pytest

from mckay.errors import RequirementError
from mckay.quiver import fold, junior_chains, to_dot, to_json_dict
from mckay.toric import DiagonalGroupSpec

from conftest import close, close_spec, closed_group, identity


def _degrees(graph):
    out = {n: 0 for n in graph.nodes}
    for u, v in graph.edges:
        out[u] += 1
        out[v] += 1
    return out


def test_bd8_folds_to_d4():
    group = closed_group("bd8")
    graph = fold(group)
    assert len(graph.nodes) == 4
    assert len(graph.edges) == 3
    degrees = _degrees(graph)
    assert sorted(degrees.values()) == [1, 1, 1, 3]
    center = next(k for k, d in degrees.items() if d == 3)
    # the trivalent node is the central element -1 = A^2
    rep = group.classes[center].representative
    assert rep == group.power(group.generator_indices[0], 2)
    assert len(group.classes[center]) == 1
    assert group.orders[rep] == 2


def test_bd12_folds_to_d5():
    graph = fold(closed_group("bd12"))
    assert len(graph.nodes) == 5
    assert len(graph.edges) == 4
    assert sorted(_degrees(graph).values()) == [1, 1, 1, 2, 3]


def test_bt_folds_to_e6():
    group = closed_group("bt48")
    graph = fold(group)
    assert len(graph.nodes) == 6
    assert len(graph.edges) == 5
    assert sorted(_degrees(graph).values()) == [1, 1, 1, 2, 2, 3]
    a, b, c = group.generator_indices
    # node identifications: A, A^3 and B collapse to one class
    assert group.class_of[a] == group.class_of[group.power(a, 3)]
    assert group.class_of[a] == group.class_of[b]
    # the powers of C land in pairwise distinct classes
    c_classes = [group.class_of[group.power(c, k)] for k in range(1, 6)]
    assert len(set(c_classes)) == 5
    # the branch node is the central involution C^3
    degrees = _degrees(graph)
    center = next(k for k, d in degrees.items() if d == 3)
    assert center == group.class_of[group.power(c, 3)]


def test_cyclic_folds_to_path():
    spec = DiagonalGroupSpec(2, ((5, (1, 4)),))
    group = close_spec(spec, names=["g"])
    graph = fold(group)
    assert len(graph.nodes) == 4
    assert len(graph.edges) == 3
    assert sorted(_degrees(graph).values()) == [1, 1, 2, 2]


def test_junior_chain_order_bd8():
    group = closed_group("bd8")
    chains = junior_chains(group)
    from mckay.age import eigen_exponents

    for chain in chains:
        assert len(chain.nodes) == group.orders[chain.generator] - 1
        # interval position j carries the element with first exponent j
        for j, node in enumerate(chain.nodes, start=1):
            expr = eigen_exponents(group, node)
            r = group.orders[chain.generator]
            scale = r // expr.r
            assert j in tuple(e * scale for e in expr.exponents)
        assert len(chain.edges) == len(chain.nodes) - 1


def test_fold_requires_sl2():
    with pytest.raises(RequirementError):
        fold(closed_group("trihedral27"))
    spec = DiagonalGroupSpec(2, ((4, (1, 0)),))
    with pytest.raises(RequirementError):
        fold(close_spec(spec))
    from mckay.cyclo import cyclotomic_field

    trivial = close([identity(cyclotomic_field(1), 2)])
    with pytest.raises(RequirementError):
        fold(trivial)


def test_to_dot_format():
    graph = fold(closed_group("bd8"))
    dot = to_dot(graph)
    lines = dot.splitlines()
    assert lines[0] == "graph G {"
    assert lines[-1] == "}"
    node_lines = [l for l in lines if "[label=" in l]
    edge_lines = [l for l in lines if " -- " in l]
    assert len(node_lines) == 4
    assert len(edge_lines) == 3
    assert to_dot(graph) == dot  # deterministic


def test_to_json_dict():
    graph = fold(closed_group("bd12"))
    data = to_json_dict(graph)
    assert len(data["nodes"]) == 5
    assert len(data["edges"]) == 4
    for u, v in data["edges"]:
        assert 0 <= u < 5 and 0 <= v < 5 and u != v
