"""Provisioning variants: joint vs. slice-by-slice, impact-aware or not.

The planner calibrates the per-slice demand margin, builds the corresponding
MILP (with background reserves when impact-aware), solves it, and converts
the assignment into a :class:`ProvisioningPlan` with per-slice placements,
costs, and infrastructure usage totals.  The slice-by-slice loop is one
generator of steps, shared by :func:`provision`, the warm start of the joint
variants and :func:`sequential_steps` (which exposes each step's model).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import milp
from .demand import BackgroundModel, SliceSpec
from .probability import (
    DemandBox,
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
    qmc: QmcConfig = field(default_factory=QmcConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)

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

    def node_amounts(self, into=None) -> dict:
        """(node id, resource type) -> amount the slice's VNF instances take
        there, added into ``into`` when given."""
        totals = {} if into is None else into
        for (node_id, vnf_name), count in self.node_counts.items():
            requirement = self.spec.sfc.vnf(vnf_name).requirement
            for rtype in RESOURCE_TYPES:
                amount = requirement.get(rtype) * count
                if amount:
                    key = (node_id, rtype)
                    totals[key] = totals.get(key, 0.0) + amount
        return totals

    def link_amounts(self, into=None) -> dict:
        """link key -> bandwidth the slice's virtual-link instances take there,
        added into ``into`` when given."""
        totals = {} if into is None else into
        for (key, vlink_key), count in self.link_counts.items():
            amount = self.spec.sfc.vlink(vlink_key).bandwidth * count
            if amount:
                totals[key] = totals.get(key, 0.0) + amount
        return totals

    def provisioned_box(self):
        """The componentwise amounts provisioned for the slice, over its SFC
        component ordering; None when the slice is rejected."""
        if not self.accepted:
            return None
        per_vnf = {}
        for (_, vnf_name), count in self.node_counts.items():
            per_vnf[vnf_name] = per_vnf.get(vnf_name, 0) + count
        per_vlink = {}
        for (_, vlink_key), count in self.link_counts.items():
            per_vlink[vlink_key] = per_vlink.get(vlink_key, 0) + count
        sfc = self.spec.sfc
        upper = []
        for label in sfc.component_labels():
            if len(label) == 2:
                vnf_name, rtype = label
                upper.append(per_vnf.get(vnf_name, 0) * sfc.vnf(vnf_name).requirement.get(rtype))
            else:
                vlink_key = label[:2]
                upper.append(per_vlink.get(vlink_key, 0) * sfc.vlink(vlink_key).bandwidth)
        return DemandBox(upper=np.array(upper, dtype=float))


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
            plan.node_amounts(totals)
        return totals

    @property
    def provisioned_link(self) -> dict:
        """link key -> total provisioned bandwidth."""
        totals = {}
        for plan in self.slices.values():
            plan.link_amounts(totals)
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
    key = (spec.fingerprint(), variant.stat_mode, variant.qmc)
    if key not in _GAMMA_CACHE:
        _GAMMA_CACHE[key] = find_gamma_s(spec, variant.qmc, stat_mode=variant.stat_mode)
    return _GAMMA_CACHE[key]


def order_slices(slices, ordering: str):
    if ordering == "given":
        return list(slices)
    return sorted(slices, key=lambda s: (-s.income, s.id))


def _extract(model, assignment, plans, graph):
    """Fill SlicePlan placements from a solved assignment via model metadata,
    and price each plan with the cost terms of the MILP objective."""
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
    for sid, plan in plans.items():
        if not plan.accepted:
            plan.node_counts.clear()
            plan.link_counts.clear()
            plan.used_nodes.clear()
        counts = _assignment_from_plans({sid: plan})
        plan.cost = sum(
            cost * counts.get(var, 0) for cost, var in milp.slice_cost_terms(plan.spec, graph)
        )


def _reserves(variant: VariantConfig, background: BackgroundModel | None):
    if not variant.impact_aware:
        return None, None
    if background is None:
        raise ValueError("impact-aware provisioning requires a background model")
    margin = gamma_b(variant.max_impact)
    return background_targets(background, margin)


def _calibrated(slices, variant: VariantConfig) -> dict:
    """Slice id -> SlicePlan holding the calibrated margin and target box, in
    the given slice order."""
    slices = list(slices)
    ids = [s.id for s in slices]
    if len(set(ids)) != len(ids):
        raise ValueError("slice ids must be unique")
    plans = {}
    for spec in slices:
        gamma = calibrate_gamma(spec, variant)
        box = targets_for_gamma(spec, gamma, stat_mode=variant.stat_mode)
        plans[spec.id] = SlicePlan(spec=spec, gamma=gamma, box=box)
    return plans


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
    result = ProvisioningPlan(variant=variant.name, slices=_calibrated(slices, variant))
    reserves = _reserves(variant, background)
    if variant.mode == "joint":
        _provision_joint(result, graph, variant, reserves)
        return result
    for spec, model, res in _sequential_steps(result.slices, graph, variant, reserves):
        result.warnings.extend(model.warnings)
        result.solver_status[spec.id] = res.status
        result.node_count += res.node_count
        result.wall_time += res.wall_time
        result.gap = max(result.gap, res.gap if res.assignment else 0.0)
    return result


def sequential_steps(
    slices,
    graph: InfrastructureGraph,
    variant: VariantConfig,
    background: BackgroundModel | None = None,
):
    """Provision slice by slice exactly as :func:`provision` does for a
    sequential variant, yielding ``(spec, model, result)`` per step in
    provisioning order: the step's MILP on the capacity left by the slices
    accepted before it, and its solve."""
    yield from _sequential_steps(
        _calibrated(slices, variant), graph, variant, _reserves(variant, background)
    )


def joint_model(
    slices,
    graph: InfrastructureGraph,
    variant: VariantConfig,
    background: BackgroundModel | None = None,
) -> milp.MilpModel:
    """The joint MILP over all slices on the capacity left after the
    variant's background reserves.  :func:`provision` solves it with
    cost-floor rows added from stand-alone solves of each slice."""
    plans = _calibrated(slices, variant)
    return milp.build_joint(
        [plan.spec for plan in plans.values()],
        graph,
        {sid: plan.box for sid, plan in plans.items()},
        *_reserves(variant, background),
    )


def _sequential_steps(plans, graph, variant, reserves, standalone=None):
    """Provision the calibrated ``plans`` slice by slice, each step on the
    capacity left by the slices accepted before it, and yield ``(spec,
    model, result)`` once the step's plan is filled.  ``standalone``
    optionally maps slice id -> (model, SolveResult) of that slice solved on
    the untouched capacity; a step reuses it while nothing has been consumed
    yet, since its model would be the same."""
    consumed_node = {}
    consumed_link = {}
    for spec in order_slices([plan.spec for plan in plans.values()], variant.ordering):
        plan = plans[spec.id]
        if standalone and spec.id in standalone and not consumed_node and not consumed_link:
            model, res = standalone[spec.id]
        else:
            model = milp.build_sequential_step(
                spec,
                graph,
                plan.box,
                *reserves,
                consumed_node=consumed_node,
                consumed_link=consumed_link,
            )
            res = solve_model(model, variant.solver)
        if res.assignment:
            _extract(model, res.assignment, {spec.id: plan}, graph)
        if plan.accepted:
            plan.node_amounts(consumed_node)
            plan.link_amounts(consumed_link)
        yield spec, model, res


def _provision_joint(result, graph, variant, reserves):
    plans = result.slices
    specs = [plan.spec for plan in plans.values()]
    # Stand-alone solves give each slice a proven cost floor: income minus
    # the single-slice bound never exceeds the slice's cost in any joint
    # solution, and the resulting rows make the joint relaxation nearly
    # exact when capacity coupling is loose.
    cost_floors = {}
    standalone = {}
    for spec in specs:
        single = milp.build_sequential_step(spec, graph, plans[spec.id].box, *reserves)
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
        specs,
        graph,
        {sid: plan.box for sid, plan in plans.items()},
        *reserves,
        cost_floors=cost_floors,
    )
    result.warnings.extend(model.warnings)
    # A sequential pass supplies a feasible incumbent, so the joint solution
    # can never fall below the slice-by-slice one even when the search stops
    # at the time or node limit.
    warm = {
        sid: SlicePlan(spec=plan.spec, gamma=plan.gamma, box=plan.box)
        for sid, plan in plans.items()
    }
    for _ in _sequential_steps(warm, graph, variant, reserves, standalone):
        pass
    res = solve_model(model, variant.solver, warm_start=_assignment_from_plans(warm))
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
