"""The benchmark's own checks pass on the program's outputs and fail on
corrupted ones.  Runs at a reduced QMC size:

    python3 -m pytest -q perfbench/tests
"""

import copy
import dataclasses

import numpy as np
import pytest
from scipy.stats import norm

from sliceprov import demand, evaluation, milp, planner, probability
from sliceprov.demand import SfcGraph, SliceSpec, UserCountPmf, UserDemandModel, VLink, Vnf
from sliceprov.topology import ResourceVector

import checks
import inputs
from tracing import Tracer, layer_metrics

FAST_QMC = probability.QmcConfig(samples=1024, randomizations=4)


def one_component_spec():
    """One stochastic demand component: the QMC estimator is exact here, so
    the calibrated margin is the true minimal one."""
    return SliceSpec(
        id="single",
        sfc=SfcGraph(vnfs=(Vnf("vA", ResourceVector(0.5, 0.0, 0.0)),), vlinks=()),
        user_model=UserDemandModel(np.array([0.1, 0.0, 0.0]), np.diag([0.01**2, 0.0, 0.0])),
        user_count=UserCountPmf.deterministic(20),
        income=100.0,
        required_psp=0.95,
    )


def chain_spec():
    return SliceSpec(
        id="chain",
        sfc=SfcGraph(
            vnfs=(Vnf("vA", ResourceVector(0.5, 0.0, 0.0)), Vnf("vB", ResourceVector(0.4, 0.2, 0.0))),
            vlinks=(VLink("vA", "vB", 0.2),),
        ),
        user_model=UserDemandModel(
            np.array([0.1, 0.0, 0.0, 0.08, 0.0, 0.0, 0.05]),
            np.diag([0.01**2, 0.0, 0.0, 0.008**2, 0.0, 0.0, 0.005**2]),
        ),
        user_count=UserCountPmf.deterministic(6),
        income=200.0,
        required_psp=0.9,
    )


@pytest.fixture(scope="module")
def infra():
    graph = evaluation.GraphConfig().build()
    return graph, demand.BackgroundModel.from_graph(graph, 0.2, 0.05)


@pytest.fixture(scope="module")
def provisioned(infra):
    graph, background = infra
    capture = checks.Capture(planner)
    capture.active = True
    try:
        variant = planner.variant_from_name("SP-B", qmc=FAST_QMC, max_impact=inputs.MAX_IMPACT)
        plan = planner.provision([chain_spec()], graph, variant, background=background)
    finally:
        capture.uninstall()
    return plan, capture.pairs


def test_checks_pass_on_program_outputs(infra, provisioned):
    graph, background = infra
    plan, pairs = provisioned
    assert plan.accepted_ids == ["chain"]
    assert len(pairs) == 1
    assert checks.check_solve(*pairs[0]) == []
    assert checks.check_plan(plan, graph, background, True, inputs.MAX_IMPACT) == []
    report = evaluation.verify_by_simulation(plan, graph, background, 20_000, seed=3)
    rng = np.random.default_rng(0)
    assert checks.check_verification(plan, report, graph, background, 20_000, rng) == []


def test_dropping_an_instance_fails_the_plan_check(infra, provisioned):
    graph, background = infra
    plan = copy.deepcopy(provisioned[0])
    sp = plan.slices["chain"]
    key = next(k for k, count in sp.node_counts.items() if count)
    sp.node_counts[key] -= 1
    assert checks.check_plan(plan, graph, background, True, inputs.MAX_IMPACT)


def test_shifted_capacity_fails_the_plan_check(infra, provisioned):
    graph, background = infra
    plan = provisioned[0]
    node_id, _ = next(k for k, count in plan.slices["chain"].node_counts.items() if count)
    shrunk = copy.deepcopy(graph)
    node = shrunk.nodes[node_id]
    shrunk.nodes[node_id] = dataclasses.replace(
        node, capacity=ResourceVector(0.1, node.capacity.memory, node.capacity.wireless)
    )
    assert any("node" in p for p in checks.check_plan(plan, shrunk, background, True, 0.1))
    # Without the reserves the plan still fits the true capacities.
    assert checks.check_plan(plan, graph, background, False, inputs.MAX_IMPACT) == []


def test_shifted_capacity_row_fails_the_highs_check(provisioned):
    model, result = provisioned[1][0]
    shifted = copy.deepcopy(model)
    index = next(
        i for i, row in enumerate(shifted.constraints)
        if row.name.startswith("cap_") and any(
            result.assignment[v] for _, v in row.terms
        )
    )
    row = shifted.constraints[index]
    shifted.constraints[index] = milp.make_constraint(row.name, row.terms, row.relation, 0)
    assert checks.check_solve(shifted, result)


def test_wrong_objective_fails_the_highs_check(provisioned):
    model, result = provisioned[1][0]
    worse = dataclasses.replace(result, objective=result.objective - 1.0)
    assert checks.check_solve(model, worse)
    assert checks.check_solve(model, dataclasses.replace(result, status="feasible_gap"))


def test_margin_checks_accept_the_calibrated_margin_only():
    spec = one_component_spec()
    gamma = probability.find_gamma_s(spec, FAST_QMC)
    rng = np.random.default_rng(1)
    assert checks.check_margin(spec, gamma, rng) == []
    step = checks._minimality_step(spec)
    lowered = checks.check_margin(spec, gamma - 2 * step, rng)
    assert any("below required" in p for p in lowered)
    raised = checks.check_margin(spec, gamma + 3 * step, rng)
    assert any("not minimal" in p for p in raised)


def test_own_sampler_matches_closed_form():
    spec = one_component_spec()
    upper = np.array([20 * 0.1 + 20 * 0.01 * 1.5, 0.0, 0.0])
    p, se = checks.psp_estimate(spec, upper, np.random.default_rng(2))
    assert abs(p - norm.cdf(1.5)) < 4 * se


def test_corrupted_verification_report_fails(infra, provisioned):
    graph, background = infra
    plan = provisioned[0]
    report = evaluation.verify_by_simulation(plan, graph, background, 20_000, seed=4)
    freq, interval = report["psp"]["chain"]
    bad_psp = {"psp": {"chain": (freq - 0.05, interval)}, "impact": report["impact"]}
    rng = np.random.default_rng(0)
    assert checks.check_verification(plan, bad_psp, graph, background, 20_000, rng)
    key = next(iter(report["impact"]))
    impact = {**report["impact"], key: (0.5, (0.0, 1.0))}
    bad_impact = {"psp": report["psp"], "impact": impact}
    assert checks.check_verification(plan, bad_impact, graph, background, 20_000, rng)


def test_joint_below_sequential_fails():
    assert checks.check_joint_dominates(10.0, 10.0, "batch") == []
    assert checks.check_joint_dominates(9.0, 10.0, "batch")


def test_inputs_repeat_for_a_seed_and_vary_across_seeds():
    a, b = inputs.make_inputs("joint", 5), inputs.make_inputs("joint", 5)
    c = inputs.make_inputs("joint", 6)
    assert [r.id for r in a.requests] == [r.id for r in b.requests]
    assert a.verify_seeds == b.verify_seeds
    assert [r.id for r in a.requests] != [r.id for r in c.requests]
    assert a.verify_seeds != c.verify_seeds
    cal = inputs.make_inputs("calibrate", 5)
    assert len(cal.calibrate_specs) == 2
    assert cal.calibrate_specs[0].user_model.mean.tolist() == (
        inputs.make_inputs("calibrate", 5).calibrate_specs[0].user_model.mean.tolist()
    )


def test_tracer_counts_repeat_and_uninstall_restores(infra):
    graph, background = infra
    original = planner.solve_model
    tracer = Tracer()
    tracer.install()
    try:
        assert planner.solve_model is not original
        variant = planner.variant_from_name("SP", qmc=FAST_QMC)
        tracer.enabled = True
        planner.calibrate_gamma(one_component_spec(), variant)
        phases = []
        for index in range(2):
            tracer.phase = f"round{index}"
            phases.append(tracer.phase)
            planner.provision([one_component_spec()], graph, variant, background=background)
    finally:
        tracer.uninstall()
    assert planner.solve_model is original
    metrics, repeat = layer_metrics(tracer.spans, phases)
    assert repeat
    assert metrics["solver.solves"][0] == 1
    assert metrics["simplex.lp_solves"][0] == metrics["solver.bnb_nodes"][0]
    # Set-up plus one round: the margin is calibrated in set-up, then cached.
    assert metrics["planner.calibrate_gamma_calls"][0] == 2
    assert metrics["planner.calibrate_gamma_misses"][0] <= 1
    assert 0.0 <= metrics["solver.self_s"][0] <= metrics["solver.solve_model_s"][0]
