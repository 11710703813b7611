import pytest

from sliceprov.topology import (
    DEFAULT_FIXED_COSTS,
    InfraLink,
    InfraNode,
    InfrastructureGraph,
    ResourceVector,
    build_fat_tree,
    validate,
)

CAPS = {
    "central": ResourceVector(16.0, 32.0, 0.0),
    "regional": ResourceVector(8.0, 16.0, 0.0),
    "edge": ResourceVector(4.0, 12.0, 0.0),
    "rrh": ResourceVector(1.0, 2.0, 2.0),
}
BWS = {"central-regional": 10.0, "regional-edge": 5.0, "edge-rrh": 2.5}


def test_resource_vector_accessors():
    rv = ResourceVector(1.0, 2.0, 3.0)
    assert rv.get("c") == 1.0
    assert rv.get("m") == 2.0
    assert rv.get("w") == 3.0
    assert rv.as_tuple() == (1.0, 2.0, 3.0)


def test_resource_vector_rejects_negative():
    with pytest.raises(ValueError):
        ResourceVector(-1.0, 0.0, 0.0)


def test_fat_tree_k2_shape():
    graph = build_fat_tree(2, CAPS, bandwidths=BWS)
    assert len(graph.nodes) == 15  # 1 + 2 + 4 + 8
    # 28 directed tree links (14 adjacent pairs) plus one loopback per node.
    assert len(graph.links) == 28 + 15
    layers = {}
    for node in graph.nodes.values():
        layers[node.layer] = layers.get(node.layer, 0) + 1
    assert layers == {"central": 1, "regional": 2, "edge": 4, "rrh": 8}
    assert validate(graph) == []


def test_fat_tree_k3_shape():
    graph = build_fat_tree(3, CAPS, bandwidths=BWS)
    assert len(graph.nodes) == 1 + 3 + 9 + 27
    assert validate(graph) == []


def test_fat_tree_fixed_costs_and_bandwidths():
    graph = build_fat_tree(2, CAPS, bandwidths=BWS)
    assert graph.nodes["central"].fixed_cost == DEFAULT_FIXED_COSTS["central"] == 65.0
    assert graph.nodes["regional-0"].fixed_cost == 60.0
    assert graph.nodes["edge-0-1"].fixed_cost == 55.0
    assert graph.nodes["rrh-1-0-1"].fixed_cost == 50.0
    assert graph.links[("central", "regional-0")].bandwidth == 10.0
    assert graph.links[("regional-1", "edge-1-0")].bandwidth == 5.0
    assert graph.links[("edge-0-0", "rrh-0-0-1")].bandwidth == 2.5
    # Links come in directed pairs.
    assert ("rrh-0-0-1", "edge-0-0") in graph.links
    # Loopback bandwidth defaults to the node's uplink rate.
    assert graph.links[("rrh-0-0-0", "rrh-0-0-0")].bandwidth == 2.5
    assert graph.links[("central", "central")].bandwidth == 10.0


def test_fat_tree_rejects_bad_config():
    with pytest.raises(ValueError):
        build_fat_tree(1, CAPS, bandwidths=BWS)
    with pytest.raises(ValueError):
        build_fat_tree(2, CAPS, bandwidths=None)
    with pytest.raises(ValueError):
        build_fat_tree(2, {"central": CAPS["central"]}, bandwidths=BWS)
    bad_caps = dict(CAPS, edge=ResourceVector(4.0, 12.0, 1.0))
    with pytest.raises(ValueError):
        build_fat_tree(2, bad_caps, bandwidths=BWS)


def test_validate_reports_violations():
    graph = InfrastructureGraph()
    graph.add_node(InfraNode("a", "edge", ResourceVector(1.0, 1.0, 0.0)))
    # No loopback, and a link to an unknown node.
    graph.add_link(InfraLink("a", "ghost", 1.0))
    issues = validate(graph)
    assert any("loopback" in v for v in issues)
    assert any("unknown destination" in v for v in issues)


def test_duplicate_nodes_and_links_rejected():
    graph = InfrastructureGraph()
    node = InfraNode("a", "edge", ResourceVector(1.0, 1.0, 0.0))
    graph.add_node(node)
    with pytest.raises(ValueError):
        graph.add_node(node)
    graph.add_link(InfraLink("a", "a", 1.0))
    with pytest.raises(ValueError):
        graph.add_link(InfraLink("a", "a", 1.0))
