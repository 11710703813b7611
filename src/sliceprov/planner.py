"""Provisioning variants: joint vs. slice-by-slice, impact-aware or not.

The planner calibrates the per-slice demand margin, builds the corresponding
MILP (with background reserves when impact-aware), solves it, and converts
the assignment into a :class:`ProvisioningPlan` with per-slice placements,
costs, and infrastructure usage totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import milp
from .demand import BackgroundModel, SliceSpec
from .probability import (
    QmcConfig,
    background_targets,
    find_gamma_s,
    gamma_b,
    targets_for_gamma,
)
from .solver import SolverConfig, solve_model
from .topology import RESOURCE_TYPES, InfrastructureGraph

VARIANT_NAMES = ("JP", "SP", "JP-B", "SP-B")


@dataclass(frozen=True)
class VariantConfig:
    """How to provision: joint or sequential, with or without background
    reserves, and the numerical configuration shared by both stages."""

    mode: str = "sequential"  # "joint" | "sequential"
    impact_aware: bool = False
    max_impact: float = 0.1
    ordering: str = "by_income"  # "by_income" | "given"
    stat_mode: str = "per_user"
    iid_covariance: bool = False
    gamma_tolerance: float = 1e-3
    qmc: QmcConfig = field(default_factory=QmcConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    warm_start_joint: bool = True

    def __post_init__(self):
        if self.mode not in ("joint", "sequential"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.ordering not in ("by_income", "given"):
            raise ValueError(f"unknown ordering {self.ordering!r}")

    @property
    def name(self) -> str:
        base = "JP" if self.mode == "joint" else "SP"
        return base + ("-B" if self.impact_aware else "")


def variant_from_name(name: str, **overrides) -> VariantConfig:
    """Shorthand: JP / SP for joint / sequential, -B suffix for
    impact-aware (background-reserving) provisioning."""
    key = name.strip().upper()
    if key not in VARIANT_NAMES:
        raise ValueError(f"unknown variant {name!r}; expected one of {VARIANT_NAMES}")
    return VariantConfig(
        mode="joint" if key.startswith("JP") else "sequential",
        impact_aware=key.endswith("-B"),
        **overrides,
    )


@dataclass
class SlicePlan:
    spec: SliceSpec
    gamma: float
    box: object  # DemandBox
    accepted: bool = False
    node_counts: dict = field(default_factory=dict)  # (node id, vnf) -> int
    link_counts: dict = field(default_factory=dict)  # (link key, (v, w)) -> int
    used_nodes: set = field(default_factory=set)
    cost: float = 0.0

    @property
    def earnings(self) -> float:
        return (self.spec.income if self.accepted else 0.0) - self.cost


@dataclass
class ProvisioningPlan:
    variant: str
    slices: dict = field(default_factory=dict)  # slice id -> SlicePlan
    solver_status: dict = field(default_factory=dict)  # slice id or "joint" -> status
    node_count: int = 0
    wall_time: float = 0.0
    gap: float = 0.0
    warnings: list = field(default_factory=list)

    @property
    def provisioned_node(self) -> dict:
        """(node id, resource type) -> total provisioned amount."""
        totals = {}
        for plan in self.slices.values():
            for (node_id, vnf_name), count in plan.node_counts.items():
                req = next(v for v in plan.spec.sfc.vnfs if v.name == vnf_name).requirement
                for rtype in RESOURCE_TYPES:
                    amount = req.get(rtype) * count
                    if amount:
                        key = (node_id, rtype)
                        totals[key] = totals.get(key, 0.0) + amount
        return totals

    @property
    def provisioned_link(self) -> dict:
        """link key -> total provisioned bandwidth."""
        totals = {}
        for plan in self.slices.values():
            for (key, (vsrc, vdst)), count in plan.link_counts.items():
                vl = next(
                    v for v in plan.spec.sfc.vlinks if (v.src, v.dst) == (vsrc, vdst)
                )
                amount = vl.bandwidth * count
                if amount:
                    totals[key] = totals.get(key, 0.0) + amount
        return totals

    @property
    def accepted_ids(self) -> list:
        return [sid for sid, plan in self.slices.items() if plan.accepted]

    @property
    def cost(self) -> float:
        return sum(plan.cost for plan in self.slices.values())

    @property
    def earnings(self) -> float:
        return sum(plan.earnings for plan in self.slices.values())


# Calibrated margins are deterministic for a given spec and configuration, so
# they are cached per process; repeated provisioning runs (sweeps, variant
# comparisons) then pay the QMC dichotomy only once per distinct slice.
_GAMMA_CACHE: dict = {}


def calibrate_gamma(spec: SliceSpec, variant: VariantConfig) -> float:
    key = (
        spec.fingerprint(),
        variant.stat_mode,
        variant.iid_covariance,
        variant.gamma_tolerance,
        variant.qmc,
    )
    if key not in _GAMMA_CACHE:
        _GAMMA_CACHE[key] = find_gamma_s(
            spec,
            variant.qmc,
            gamma_tolerance=variant.gamma_tolerance,
            stat_mode=variant.stat_mode,
            iid_covariance=variant.iid_covariance,
        )
    return _GAMMA_CACHE[key]


def order_slices(slices, ordering: str):
    if ordering == "given":
        return list(slices)
    return sorted(slices, key=lambda s: (-s.income, s.id))


def _slice_cost(plan: SlicePlan, graph: InfrastructureGraph) -> float:
    cost = sum(graph.nodes[i].fixed_cost for i in plan.used_nodes)
    for (node_id, vnf_name), count in plan.node_counts.items():
        req = next(v for v in plan.spec.sfc.vnfs if v.name == vnf_name).requirement
        unit = graph.nodes[node_id].unit_cost
        cost += count * sum(req.get(t) * unit.get(t) for t in RESOURCE_TYPES)
    for (key, (vsrc, vdst)), count in plan.link_counts.items():
        vl = next(v for v in plan.spec.sfc.vlinks if (v.src, v.dst) == (vsrc, vdst))
        cost += count * vl.bandwidth * graph.links[key].unit_cost
    return cost


def _extract(model, assignment, plans, graph):
    """Fill SlicePlan placements from a solved assignment via model metadata."""
    for name, value in assignment.items():
        if not value:
            continue
        meta = model.metadata.get(name)
        if meta is None:
            continue
        kind = meta[0]
        if kind == "node":
            _, sid, node_id, vnf = meta
            plans[sid].node_counts[(node_id, vnf)] = int(value)
        elif kind == "link":
            _, sid, key, vlink = meta
            plans[sid].link_counts[(key, vlink)] = int(value)
        elif kind == "used":
            _, sid, node_id = meta
            plans[sid].used_nodes.add(node_id)
        elif kind == "accept":
            plans[meta[1]].accepted = True
    for plan in plans.values():
        if not plan.accepted:
            plan.node_counts.clear()
            plan.link_counts.clear()
            plan.used_nodes.clear()
        plan.cost = _slice_cost(plan, graph)


def _reserves(variant: VariantConfig, background: BackgroundModel | None):
    if not variant.impact_aware:
        return None, None
    if background is None:
        raise ValueError("impact-aware provisioning requires a background model")
    margin = gamma_b(variant.max_impact)
    return background_targets(background, margin)


def provision(
    slices,
    graph: InfrastructureGraph,
    variant: VariantConfig,
    background: BackgroundModel | None = None,
) -> ProvisioningPlan:
    """Provision the given slices on the infrastructure under one variant.

    Returns the plan with per-slice placements and acceptance; earnings are
    total income of accepted slices minus provisioning cost.
    """
    slices = list(slices)
    ids = [s.id for s in slices]
    if len(set(ids)) != len(ids):
        raise ValueError("slice ids must be unique")
    result = ProvisioningPlan(variant=variant.name)
    plans = {}
    targets = {}
    for spec in slices:
        gamma = calibrate_gamma(spec, variant)
        box = targets_for_gamma(
            spec, gamma, stat_mode=variant.stat_mode, iid_covariance=variant.iid_covariance
        )
        targets[spec.id] = box
        plans[spec.id] = SlicePlan(spec=spec, gamma=gamma, box=box)
    result.slices = plans
    node_reserves, link_reserves = _reserves(variant, background)

    if variant.mode == "sequential":
        _provision_sequential(
            slices, graph, variant, targets, plans, node_reserves, link_reserves, result
        )
    else:
        _provision_joint(
            slices, graph, variant, targets, plans, node_reserves, link_reserves,
            background, result
        )
    return result


def _provision_sequential(
    slices, graph, variant, targets, plans, node_reserves, link_reserves, result,
    ordering=None, standalone=None,
):
    """Provision slice by slice, each step on the capacity left by the slices
    accepted before it.  ``standalone`` optionally maps slice id -> (model,
    SolveResult) of that slice solved on the untouched capacity; a step
    reuses it while nothing has been consumed yet, since its model would be
    the same."""
    consumed_node = {}
    consumed_link = {}
    for spec in order_slices(slices, ordering or variant.ordering):
        if standalone and spec.id in standalone and not consumed_node and not consumed_link:
            model, res = standalone[spec.id]
        else:
            model = milp.build_sequential_step(
                spec,
                graph,
                targets[spec.id],
                node_reserves,
                link_reserves,
                consumed_node=consumed_node,
                consumed_link=consumed_link,
            )
            res = solve_model(model, variant.solver)
        result.warnings.extend(model.warnings)
        result.solver_status[spec.id] = res.status
        result.node_count += res.node_count
        result.wall_time += res.wall_time
        result.gap = max(result.gap, res.gap if res.assignment else 0.0)
        if res.assignment:
            _extract(model, res.assignment, {spec.id: plans[spec.id]}, graph)
        plan = plans[spec.id]
        if plan.accepted:
            for (node_id, vnf_name), count in plan.node_counts.items():
                req = next(v for v in spec.sfc.vnfs if v.name == vnf_name).requirement
                for rtype in RESOURCE_TYPES:
                    amount = req.get(rtype) * count
                    if amount:
                        key = (node_id, rtype)
                        consumed_node[key] = consumed_node.get(key, 0.0) + amount
            for (key, vlink_key), count in plan.link_counts.items():
                vl = next(v for v in spec.sfc.vlinks if (v.src, v.dst) == vlink_key)
                consumed_link[key] = consumed_link.get(key, 0.0) + vl.bandwidth * count


def _provision_joint(
    slices, graph, variant, targets, plans, node_reserves, link_reserves,
    background, result
):
    # Stand-alone solves give each slice a proven cost floor: income minus
    # the single-slice bound never exceeds the slice's cost in any joint
    # solution, and the resulting rows make the joint relaxation nearly
    # exact when capacity coupling is loose.
    cost_floors = {}
    standalone = {}
    for spec in slices:
        single = milp.build_sequential_step(
            spec, graph, targets[spec.id], node_reserves, link_reserves
        )
        res = solve_model(single, variant.solver)
        standalone[spec.id] = (single, res)
        result.node_count += res.node_count
        result.wall_time += res.wall_time
        if res.assignment:
            best_bound = res.objective + res.gap * max(1.0, abs(res.objective))
            floor = spec.income - best_bound
            if floor > 0:
                cost_floors[spec.id] = floor
    model = milp.build_joint(
        slices, graph, targets, node_reserves, link_reserves, cost_floors=cost_floors
    )
    result.warnings.extend(model.warnings)
    warm = None
    if variant.warm_start_joint:
        # A sequential pass supplies a feasible incumbent, so the joint
        # solution can never fall below the slice-by-slice one even when the
        # search stops at the time or node limit.
        seq_variant = replace(variant, mode="sequential")
        seq_result = ProvisioningPlan(variant="warm")
        seq_plans = {
            sid: SlicePlan(spec=p.spec, gamma=p.gamma, box=p.box)
            for sid, p in plans.items()
        }
        _provision_sequential(
            slices, graph, seq_variant, targets, seq_plans,
            node_reserves, link_reserves, seq_result, standalone=standalone,
        )
        warm = _assignment_from_plans(seq_plans)
    res = solve_model(model, variant.solver, warm_start=warm)
    result.solver_status["joint"] = res.status
    result.node_count += res.node_count
    result.wall_time += res.wall_time
    result.gap = res.gap if res.assignment else 0.0
    if res.assignment:
        _extract(model, res.assignment, plans, graph)


def _assignment_from_plans(plans) -> dict:
    assignment = {}
    for sid, plan in plans.items():
        assignment[milp.accept_var(sid)] = 1 if plan.accepted else 0
        for (node_id, vnf_name), count in plan.node_counts.items():
            assignment[milp.node_var(sid, node_id, vnf_name)] = count
        for ((src, dst), (vsrc, vdst)), count in plan.link_counts.items():
            assignment[milp.link_var(sid, src, dst, vsrc, vdst)] = count
        for node_id in plan.used_nodes:
            assignment[milp.used_var(sid, node_id)] = 1
    return assignment


def check_flow_conservation(plan: ProvisioningPlan, graph: InfrastructureGraph) -> list:
    """Re-check flow conservation of every accepted slice in exact rational
    arithmetic.  Returns a list of violation descriptions (empty when clean).
    """
    violations = []
    for sid, slice_plan in plan.slices.items():
        if not slice_plan.accepted:
            continue
        spec = slice_plan.spec
        values = {}
        for (node_id, vnf_name), count in slice_plan.node_counts.items():
            values[milp.node_var(sid, node_id, vnf_name)] = Fraction(count)
        for ((src, dst), (vsrc, vdst)), count in slice_plan.link_counts.items():
            values[milp.link_var(sid, src, dst, vsrc, vdst)] = Fraction(count)
        for row in milp.flow_constraints(spec, graph):
            total = sum(
                coeff * values.get(var, Fraction(0)) for coeff, var in row.terms
            )
            if total != row.rhs:
                violations.append(f"{row.name}: {total} != {row.rhs}")
    return violations
