import dataclasses

import pytest

from sliceprov import milp, planner
from sliceprov.demand import BackgroundModel, slice_catalog
from sliceprov.planner import (
    ProvisioningPlan,
    VariantConfig,
    calibrate_gamma,
    check_flow_conservation,
    order_slices,
    provision,
    variant_from_name,
)
from sliceprov.topology import ResourceVector, build_fat_tree

from _helpers import FAST_QMC, chain_spec, micro_spec

CAPS = {
    "central": ResourceVector(16.0, 32.0, 0.0),
    "regional": ResourceVector(8.0, 16.0, 0.0),
    "edge": ResourceVector(4.0, 12.0, 0.0),
    "rrh": ResourceVector(1.0, 2.0, 2.1),
}
BWS = {"central-regional": 10.0, "regional-edge": 5.0, "edge-rrh": 2.5}


def default_graph():
    return build_fat_tree(2, CAPS, bandwidths=BWS)


def fast_variant(name, **overrides):
    overrides.setdefault("qmc", FAST_QMC)
    return variant_from_name(name, **overrides)


def test_variant_names():
    assert variant_from_name("SP").name == "SP"
    assert variant_from_name("jp").mode == "joint"
    assert variant_from_name("SP-B").impact_aware is True
    assert variant_from_name("JP-B").name == "JP-B"
    with pytest.raises(ValueError):
        variant_from_name("XX")
    with pytest.raises(ValueError):
        VariantConfig(mode="sideways")
    with pytest.raises(ValueError):
        VariantConfig(ordering="random")


def test_plan_cost_is_the_milp_cost_of_its_assignment():
    # Type 2 under SP is a plan whose cost, summed per resource type rather
    # than term by term, comes out one ulp higher.
    graph = default_graph()
    spec = next(s for s in slice_catalog() if s.id == "type2")
    variant = variant_from_name("SP")
    plan = provision([spec], graph, variant).slices[spec.id]
    [(_, _, res)] = planner.sequential_steps([spec], graph, variant)
    assert plan.accepted
    cost = sum(c * res.assignment[v] for c, v in milp.slice_cost_terms(spec, graph))
    assert plan.cost.hex() == cost.hex()
    assert plan.earnings == spec.income - cost


def test_order_slices():
    a = micro_spec(slice_id="a", income=100.0)
    b = micro_spec(slice_id="b", income=300.0)
    c = micro_spec(slice_id="c", income=300.0)
    assert [s.id for s in order_slices([a, b, c], "by_income")] == ["b", "c", "a"]
    assert [s.id for s in order_slices([a, b, c], "given")] == ["a", "b", "c"]


def test_calibrate_gamma_cached():
    variant = fast_variant("SP")
    spec = micro_spec()
    first = calibrate_gamma(spec, variant)
    second = calibrate_gamma(spec, variant)
    assert first == second
    # A different requirement is a different cache entry.
    other = calibrate_gamma(dataclasses.replace(spec, required_psp=0.95), variant)
    assert other >= first


def test_provision_sequential_accepts_profitable_slice():
    graph = default_graph()
    spec = micro_spec(income=500.0)
    plan = provision([spec], graph, fast_variant("SP"))
    slice_plan = plan.slices[spec.id]
    assert slice_plan.accepted
    assert slice_plan.cost > 0.0
    assert plan.earnings == pytest.approx(500.0 - plan.cost)
    assert plan.solver_status[spec.id] == "optimal"
    # Demand actually covered: provisioned compute reaches the target box.
    provisioned = sum(
        0.5 * count for (_, vnf), count in slice_plan.node_counts.items()
    )
    assert provisioned >= slice_plan.box.upper[0] - 1e-9
    assert slice_plan.used_nodes
    assert check_flow_conservation(plan, graph) == []


def test_provision_rejects_unprofitable_slice():
    graph = default_graph()
    # Cheapest possible placement costs at least one fixed node cost (50).
    spec = micro_spec(income=10.0)
    plan = provision([spec], graph, fast_variant("SP"))
    assert not plan.slices[spec.id].accepted
    assert plan.slices[spec.id].cost == 0.0
    assert plan.earnings == 0.0
    assert plan.slices[spec.id].node_counts == {}


def test_provision_impact_aware_requires_background():
    graph = default_graph()
    with pytest.raises(ValueError):
        provision([micro_spec()], graph, fast_variant("SP-B"))


def test_provision_duplicate_ids_rejected():
    graph = default_graph()
    with pytest.raises(ValueError):
        provision([micro_spec(), micro_spec()], graph, fast_variant("SP"))


def test_provision_impact_aware_costs_at_least_as_much():
    graph = default_graph()
    background = BackgroundModel.from_graph(graph, 0.2, 0.05)
    spec = chain_spec(income=500.0)
    sp = provision([spec], graph, fast_variant("SP"), background=background)
    spb = provision([spec], graph, fast_variant("SP-B"), background=background)
    assert sp.slices[spec.id].accepted and spb.slices[spec.id].accepted
    # Reserving background headroom can only shrink the feasible region.
    assert spb.cost >= sp.cost - 1e-9
    assert spb.earnings <= sp.earnings + 1e-9
    for plan in (sp, spb):
        assert check_flow_conservation(plan, graph) == []


def test_joint_dominates_sequential_on_small_instance():
    graph = default_graph()
    slices = [
        micro_spec(slice_id="s1", income=400.0),
        micro_spec(slice_id="s2", income=300.0),
    ]
    sp = provision(slices, graph, fast_variant("SP"))
    jp = provision(slices, graph, fast_variant("JP"))
    assert jp.solver_status["joint"] == "optimal"
    assert jp.earnings >= sp.earnings - 1e-6
    assert set(jp.accepted_ids) <= {"s1", "s2"}


def test_joint_path_reuses_the_first_stand_alone_solve(monkeypatch):
    solved = []
    solve_model = planner.solve_model

    def counting_solve_model(model, *args, **kwargs):
        solved.append(sorted(model.variables))
        return solve_model(model, *args, **kwargs)

    monkeypatch.setattr(planner, "solve_model", counting_solve_model)
    graph = default_graph()
    slices = [
        micro_spec(slice_id="s1", income=400.0),
        micro_spec(slice_id="s2", income=300.0),
    ]
    plan = provision(slices, graph, fast_variant("JP"))
    assert plan.solver_status["joint"] == "optimal"
    assert "s1" in plan.accepted_ids
    # Two stand-alone cost-floor solves; the warm-start pass reuses the one
    # of s1 (nothing consumed yet) and solves s2 on the remaining capacity;
    # then the joint model.
    assert len(solved) == 4
    assert solved[0] != solved[1]
    assert solved[2] == solved[1]
    assert len(solved[3]) == len(solved[0]) + len(solved[1])


def test_plan_aggregates_provisioned_amounts():
    graph = default_graph()
    spec = chain_spec(income=500.0)
    plan = provision([spec], graph, fast_variant("SP"))
    slice_plan = plan.slices[spec.id]
    node_total = sum(plan.provisioned_node.values())
    expected = sum(
        count * sum(v.requirement.as_tuple())
        for (_, vnf_name), count in slice_plan.node_counts.items()
        for v in spec.sfc.vnfs
        if v.name == vnf_name
    )
    assert node_total == pytest.approx(expected)
    link_total = sum(plan.provisioned_link.values())
    expected_links = 0.2 * sum(slice_plan.link_counts.values())
    assert link_total == pytest.approx(expected_links)


def test_check_flow_conservation_detects_tampering():
    graph = default_graph()
    spec = chain_spec(income=500.0)
    plan = provision([spec], graph, fast_variant("SP"))
    slice_plan = plan.slices[spec.id]
    assert check_flow_conservation(plan, graph) == []
    # Corrupt the routing: add a dangling unit of the virtual link.
    key = (("central", "regional-0"), ("vA", "vB"))
    slice_plan.link_counts[key] = slice_plan.link_counts.get(key, 0) + 1
    assert check_flow_conservation(plan, graph) != []


def test_sequential_ordering_respects_variant():
    graph = default_graph()
    low = micro_spec(slice_id="low", income=200.0)
    high = micro_spec(slice_id="high", income=900.0)
    plan = provision([low, high], graph, fast_variant("SP"))
    # Both fit; ordering is observable through the per-slice statuses keys.
    assert set(plan.solver_status) == {"low", "high"}
    assert plan.slices["high"].accepted
