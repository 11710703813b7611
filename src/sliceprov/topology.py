"""Infrastructure network model: capacitated nodes, directed links, fat-tree generator."""

from __future__ import annotations

from dataclasses import dataclass, field

RESOURCE_TYPES = ("c", "m", "w")
LAYERS = ("central", "regional", "edge", "rrh")
TIERS = ("central-regional", "regional-edge", "edge-rrh")

# Per-layer fixed node costs (central, regional, edge, rrh).
DEFAULT_FIXED_COSTS = {"central": 65.0, "regional": 60.0, "edge": 55.0, "rrh": 50.0}


@dataclass(frozen=True)
class ResourceVector:
    """Amounts of (compute, memory, wireless) resources, in CPUs / Gbytes / Gbps."""

    compute: float = 0.0
    memory: float = 0.0
    wireless: float = 0.0

    def __post_init__(self):
        for name in ("compute", "memory", "wireless"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    def get(self, rtype: str) -> float:
        return {"c": self.compute, "m": self.memory, "w": self.wireless}[rtype]

    def as_tuple(self) -> tuple:
        return (self.compute, self.memory, self.wireless)


@dataclass(frozen=True)
class InfraNode:
    id: str
    layer: str
    capacity: ResourceVector
    unit_cost: ResourceVector = ResourceVector(1.0, 1.0, 1.0)
    fixed_cost: float = 0.0

    def __post_init__(self):
        if self.layer not in LAYERS:
            raise ValueError(f"unknown layer {self.layer!r}")
        if self.fixed_cost < 0:
            raise ValueError("fixed_cost must be nonnegative")


@dataclass(frozen=True)
class InfraLink:
    src: str
    dst: str
    bandwidth: float
    unit_cost: float = 1.0

    def __post_init__(self):
        if self.bandwidth < 0 or self.unit_cost < 0:
            raise ValueError("bandwidth and unit_cost must be nonnegative")

    @property
    def is_loopback(self) -> bool:
        return self.src == self.dst


@dataclass
class InfrastructureGraph:
    """Directed capacitated graph; one loopback link per node is expected."""

    nodes: dict = field(default_factory=dict)  # id -> InfraNode
    links: dict = field(default_factory=dict)  # (src, dst) -> InfraLink

    def add_node(self, node: InfraNode) -> None:
        if node.id in self.nodes:
            raise ValueError(f"duplicate node id {node.id!r}")
        self.nodes[node.id] = node

    def add_link(self, link: InfraLink) -> None:
        key = (link.src, link.dst)
        if key in self.links:
            raise ValueError(f"duplicate link {key}")
        self.links[key] = link

    def node_ids(self) -> list:
        return list(self.nodes)

    def link_keys(self) -> list:
        return list(self.links)

    def out_links(self, node_id: str) -> list:
        return [k for k in self.links if k[0] == node_id]


def validate(graph: InfrastructureGraph) -> list:
    """Return a list of human-readable invariant violations (empty when well formed)."""
    violations = []
    for (src, dst), link in graph.links.items():
        if src not in graph.nodes:
            violations.append(f"link {src}->{dst}: unknown source node")
        if dst not in graph.nodes:
            violations.append(f"link {src}->{dst}: unknown destination node")
        if (link.src, link.dst) != (src, dst):
            violations.append(f"link {src}->{dst}: key/payload mismatch")
    for node_id, node in graph.nodes.items():
        if (node_id, node_id) not in graph.links:
            violations.append(f"node {node_id}: missing loopback link")
        if node.layer != "rrh" and node.capacity.wireless > 0:
            violations.append(f"node {node_id}: wireless capacity on non-rrh layer")
    return violations


def build_fat_tree(k: int, layer_caps: dict,
                   bandwidths: dict | None = None) -> InfrastructureGraph:
    """Generate a 4-layer k-ary fat tree: central root, k regional, k^2 edge, k^3 RRH.

    ``layer_caps`` maps each layer name to a ResourceVector; ``bandwidths`` maps
    tier names ("central-regional", "regional-edge", "edge-rrh") to link rates
    in Gbps.  Adjacent layers are joined by directed link pairs and every node
    gets one loopback link at its uplink rate (the root reuses the
    central-regional rate).  Node fixed costs are DEFAULT_FIXED_COSTS by
    layer; every unit cost, of node resources and of link bandwidth
    (loopbacks included), is 1.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if bandwidths is None:
        raise ValueError("bandwidths per tier are required")
    for layer in LAYERS:
        if layer not in layer_caps:
            raise ValueError(f"missing capacity config for layer {layer!r}")
    for tier in TIERS:
        if tier not in bandwidths:
            raise ValueError(f"missing bandwidth config for tier {tier!r}")

    graph = InfrastructureGraph()

    def make_node(node_id, layer):
        cap = layer_caps[layer]
        if layer != "rrh" and cap.wireless > 0:
            raise ValueError("wireless capacity only allowed on the rrh layer")
        graph.add_node(
            InfraNode(id=node_id, layer=layer, capacity=cap,
                      fixed_cost=DEFAULT_FIXED_COSTS[layer])
        )

    uplink_rate = {
        "central": bandwidths["central-regional"],
        "regional": bandwidths["central-regional"],
        "edge": bandwidths["regional-edge"],
        "rrh": bandwidths["edge-rrh"],
    }

    make_node("central", "central")
    for a in range(k):
        make_node(f"regional-{a}", "regional")
        for b in range(k):
            make_node(f"edge-{a}-{b}", "edge")
            for c in range(k):
                make_node(f"rrh-{a}-{b}-{c}", "rrh")

    def link_pair(u, v, rate):
        graph.add_link(InfraLink(u, v, rate))
        graph.add_link(InfraLink(v, u, rate))

    for a in range(k):
        link_pair("central", f"regional-{a}", bandwidths["central-regional"])
        for b in range(k):
            link_pair(f"regional-{a}", f"edge-{a}-{b}", bandwidths["regional-edge"])
            for c in range(k):
                link_pair(f"edge-{a}-{b}", f"rrh-{a}-{b}-{c}", bandwidths["edge-rrh"])

    for node_id, node in graph.nodes.items():
        graph.add_link(InfraLink(node_id, node_id, uplink_rate[node.layer]))

    return graph
