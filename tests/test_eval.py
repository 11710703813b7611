import io
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from sliceprov import planner
from sliceprov.demand import BACKGROUND_BLOCK_ROWS, Z_MAX, BackgroundModel, slice_catalog
from sliceprov.evaluation import (
    IMPACT_SWEEP_GRID,
    PSP_SWEEP_GRID,
    REPORT_COLUMNS,
    SLICE_COLUMNS,
    GraphConfig,
    Scenario,
    ScenarioReport,
    SliceReport,
    builtin_scenarios,
    emit_report,
    metrics,
    run_scenario,
    scenario_by_name,
    verify_by_simulation,
    wilson_interval,
)
from sliceprov.planner import ProvisioningPlan, SlicePlan
from sliceprov.probability import DemandBox, plan_impact_probabilities

from _helpers import FAST_QMC, chain_spec, micro_spec, reference_verify_by_simulation


def test_builtin_scenario_names():
    names = [s.name for s in builtin_scenarios()]
    assert names == ["mix-2", "mix-4", "mix-6", "mix-8", "single-type1", "sweep-type1"]
    assert scenario_by_name("mix-2").size == 2
    assert scenario_by_name("mix-8").size == 8
    assert scenario_by_name("sweep-type1").size == 10
    with pytest.raises(KeyError):
        scenario_by_name("mix-99")


def test_sweep_grids_frozen():
    assert IMPACT_SWEEP_GRID == (0.05, 0.1, 0.2, 0.3, 0.4)
    assert PSP_SWEEP_GRID == (0.9, 0.95, 0.99)


def test_scenario_builds_graph_and_slices():
    scenario = scenario_by_name("mix-4")
    graph = scenario.build_graph()
    assert len(graph.nodes) == 15
    slices = scenario.build_slices()
    assert [s.id for s in slices] == ["type1_0", "type1_1", "type2_0", "type3_0"]
    single = scenario_by_name("single-type1")
    spec = single.build_slices()[0]
    assert spec.required_psp == 0.99  # per-mix override applied
    background = single.build_background(graph)
    assert background.node_mean["central"].compute == pytest.approx(0.2 * 16)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(name="x", mix=(("type1", -1, None),))
    with pytest.raises(ValueError):
        Scenario(name="x", mix=(("type1", 1, None),), variants=())
    with pytest.raises(ValueError):
        Scenario(name="x", mix=(("ghost", 1, None),)).build_slices()


def _toy_plan(graph, accepted=True):
    """A hand-built one-slice plan: both VNFs and the virtual link on one RRH."""
    spec = chain_spec()
    slice_plan = SlicePlan(spec=spec, gamma=1.0, box=DemandBox(np.zeros(7)))
    if accepted:
        node = "rrh-0-0-0"
        slice_plan.accepted = True
        slice_plan.node_counts = {(node, "vA"): 1, (node, "vB"): 1}
        slice_plan.link_counts = {((node, node), ("vA", "vB")): 1}
        slice_plan.used_nodes = {node}
        slice_plan.cost = 51.0
    return ProvisioningPlan(variant="SP", slices={spec.id: slice_plan})


def test_metrics_on_toy_plan():
    graph = GraphConfig().build()
    background = BackgroundModel.from_graph(graph)
    plan = _toy_plan(graph)
    row = metrics(plan, graph, background, max_impact=0.1)
    assert row["node_usage_pct"] == pytest.approx(100.0 / 15)
    assert row["link_usage_pct"] == pytest.approx(100.0 / 43)
    assert 0.0 < row["node_capacity_pct"] < 100.0
    assert row["provisioning_cost"] == 51.0
    assert row["total_earnings"] == pytest.approx(200.0 - 51.0)
    assert row["acceptance_rate"] == 1.0
    # 0.9 CPU on a 1-CPU RRH with mean 0.2 / std 0.05 background: impacted.
    assert row["impacted_node_count"] >= 1
    assert row["max_impact_prob"] > 0.1


def test_metrics_on_empty_plan():
    graph = GraphConfig().build()
    background = BackgroundModel.from_graph(graph)
    plan = _toy_plan(graph, accepted=False)
    row = metrics(plan, graph, background, max_impact=0.1)
    assert row["node_usage_pct"] == 0.0
    assert row["acceptance_rate"] == 0.0
    assert row["impacted_node_count"] == 0
    assert row["max_impact_prob"] < 1e-9


def test_wilson_interval():
    low, high = wilson_interval(50, 100)
    assert low < 0.5 < high
    assert low == pytest.approx(1.0 - high, abs=1e-12)  # symmetric at p = 1/2
    low, high = wilson_interval(0, 100)
    assert low == 0.0 and high > 0.0
    low, high = wilson_interval(100, 100)
    assert high == 1.0 and low < 1.0
    with pytest.raises(ValueError):
        wilson_interval(1, 0)


def test_provisioned_box_matches_counts():
    graph = GraphConfig().build()
    plan = _toy_plan(graph)
    slice_plan = next(iter(plan.slices.values()))
    box = slice_plan.provisioned_box()
    # Components: vA (c, m, w), vB (c, m, w), vlink bandwidth.
    assert box.upper == pytest.approx([0.5, 0.0, 0.0, 0.4, 0.2, 0.0, 0.2])
    assert _toy_plan(graph, accepted=False).slices["chain"].provisioned_box() is None


def test_verify_by_simulation_toy_plan():
    graph = GraphConfig().build()
    background = BackgroundModel.from_graph(graph)
    plan = _toy_plan(graph)
    outcome = verify_by_simulation(plan, graph, background, trials=10_000, seed=1)
    freq, (low, high) = outcome["psp"]["chain"]
    assert 0.0 <= low <= freq <= high <= 1.0
    # Provisioned box (0.5, ..., 0.2) is far above the demand means: PSP high.
    assert freq > 0.95
    # The 0.9-CPU RRH placement overruns the background often.
    rrh_c = outcome["impact"][("rrh-0-0-0", "c")]
    assert rrh_c[0] > 0.1
    with pytest.raises(ValueError):
        verify_by_simulation(plan, graph, background, trials=100)


def test_verification_reads_background_loads_by_key():
    graph = GraphConfig().build()
    background = BackgroundModel.from_graph(graph)
    reordered = BackgroundModel(
        *(dict(reversed(list(d.items()))) for d in (
            background.node_mean, background.node_std,
            background.link_mean, background.link_std,
        ))
    )
    plan = _toy_plan(graph)
    trials = 20_000
    outcome = verify_by_simulation(plan, graph, reordered, trials=trials, seed=2)
    node_probs, link_probs = plan_impact_probabilities(plan, graph, reordered)
    exact = {**node_probs, **link_probs}
    assert outcome["impact"].keys() == exact.keys()
    for key, p in exact.items():
        freq = outcome["impact"][key][0]
        # Five standard errors, floored at p(1 - p) = 1e-4 for tails near 0 or 1.
        assert abs(freq - p) <= 5 * math.sqrt(max(p * (1 - p), 1e-4) / trials), key


@pytest.fixture(scope="module")
def catalog_plans():
    graph = GraphConfig().build()
    background = BackgroundModel.from_graph(graph)
    type1, type2, _ = slice_catalog()
    plans = {
        (spec.id, name): planner.provision(
            [spec], graph, planner.variant_from_name(name), background=background
        )
        for spec in (type1, type2)
        for name in ("SP", "SP-B")
    }
    return graph, background, plans


@pytest.mark.parametrize("trials", [10_000, 5 * BACKGROUND_BLOCK_ROWS, 12_345])
def test_verification_equals_the_full_draw(catalog_plans, trials):
    graph, background, plans = catalog_plans
    for key, plan in plans.items():
        assert plan.accepted_ids, key
        expected = reference_verify_by_simulation(plan, graph, background, trials, seed=7)
        assert verify_by_simulation(plan, graph, background, trials, seed=7) == expected, key


def _edge_plans(graph, background, z, offset=0.0):
    """Plans provisioned at capacity + offset - (mu + sd * z), and a few ulps
    either side, on one node resource and one link."""
    node_key, link_key = ("rrh-0-1-0", "w"), ("edge-0-1", "rrh-0-1-0")
    node_id, rtype = node_key
    node_edge = graph.nodes[node_id].capacity.get(rtype) + offset - (
        background.node_mean[node_id].get(rtype) + background.node_std[node_id].get(rtype) * z
    )
    link_edge = graph.links[link_key].bandwidth + offset - (
        background.link_mean[link_key] + background.link_std[link_key] * z
    )
    for ulps in range(-3, 4):
        yield SimpleNamespace(
            slices={},
            provisioned_node={node_key: node_edge + ulps * math.ulp(node_edge)},
            provisioned_link={link_key: link_edge + ulps * math.ulp(link_edge)},
        )


def test_verification_equals_the_full_draw_at_the_dead_column_bound():
    graph = GraphConfig().build()
    background = BackgroundModel.from_graph(graph)
    for z in (3.0, Z_MAX):
        for plan in _edge_plans(graph, background, z):
            expected = reference_verify_by_simulation(plan, graph, background, 10_000, seed=4)
            assert verify_by_simulation(plan, graph, background, 10_000, seed=4) == expected
            # About 13 of 10^4 draws lie beyond 3 standard deviations.
            assert (expected["impact"][("rrh-0-1-0", "w")][0] > 0) == (z == 3.0)
    # Without spread the background overruns in every trial or in none, and
    # these plans straddle the overrun threshold, capacity + 1e-12.
    fixed = BackgroundModel.from_graph(graph, std_frac=0.0)
    counts = set()
    for plan in _edge_plans(graph, fixed, 0.0, offset=1e-12):
        outcome = verify_by_simulation(plan, graph, fixed, 10_000, seed=4)
        assert outcome == reference_verify_by_simulation(plan, graph, fixed, 10_000, seed=4)
        counts.add((outcome["impact"][("rrh-0-1-0", "w")][0],
                    outcome["impact"][("edge-0-1", "rrh-0-1-0")][0]))
    assert {0.0, 1.0} <= {node for node, _ in counts}
    assert {0.0, 1.0} <= {link for _, link in counts}


def test_verification_memory_is_bounded(catalog_plans):
    graph, background, plans = catalog_plans
    plan = plans[("type1", "SP-B")]
    tracemalloc.start()
    try:
        verify_by_simulation(plan, graph, background, trials=20_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12e6, f"peak {peak / 1e6:.1f} MB"


def _report(wall_time=1.5):
    return ScenarioReport(
        scenario="s", variant="SP", repetition=0, seed=0, max_impact=0.1,
        node_usage_pct=10.0, link_usage_pct=5.0, node_capacity_pct=1.0,
        link_capacity_pct=0.5, max_impact_prob=0.01, provisioning_cost=100.0,
        total_earnings=800.0, acceptance_rate=1.0, impacted_node_count=0,
        impacted_link_count=0, solver_gap=0.0, wall_time=wall_time,
        slices=[SliceReport(slice_id="a", accepted=True, gamma=2.0, cost=100.0)],
    )


def test_emit_report_columns_and_determinism():
    text = emit_report([_report()])
    header = text.splitlines()[0].split(",")
    assert header == REPORT_COLUMNS
    assert "wall_time" not in header
    # Byte-identical across reruns with different wall times.
    assert emit_report([_report(wall_time=9.9)]) == text
    timed = emit_report([_report()], include_timing=True)
    assert timed.splitlines()[0].split(",")[-1] == "wall_time"


def test_emit_report_slice_stream_and_nan():
    stream = io.StringIO()
    slice_stream = io.StringIO()
    emit_report([_report()], stream=stream, slice_stream=slice_stream)
    lines = slice_stream.getvalue().splitlines()
    assert lines[0].split(",") == SLICE_COLUMNS
    # Unset PSP estimates (NaN) render as empty cells.
    assert lines[1].endswith(",,,,")
    assert "nan" not in slice_stream.getvalue()
    assert math.isnan(_report().slices[0].psp_qmc)


def test_repetitions_are_independent_qmc_replicates(monkeypatch):
    seeds = []
    find_gamma_s = planner.find_gamma_s

    def recording_find_gamma_s(spec, cfg, *args, **kwargs):
        seeds.append(cfg.seed)
        return find_gamma_s(spec, cfg, *args, **kwargs)

    monkeypatch.setattr(planner, "find_gamma_s", recording_find_gamma_s)
    monkeypatch.setattr(planner, "_GAMMA_CACHE", {})
    scenario = Scenario(
        name="replicates",
        mix=(("micro", 1, None),),
        variants=("SP",),
        seed=7,
        repetitions=2,
        extra_types=(("micro", micro_spec(income=500.0)),),
    )
    reports = run_scenario(scenario, qmc=FAST_QMC)
    assert seeds == [7, 8]
    assert [r.seed for r in reports] == [7, 8]
