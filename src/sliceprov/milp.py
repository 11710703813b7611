"""MILP model construction for joint and slice-by-slice provisioning.

Models are neutral variable/constraint/objective structures; the solver module
executes them.  Coefficients are kept as they are given: floats and ints,
except the flow-conservation rows, whose coefficients are exact rationals
(``Fraction``) so that a plan's flows can be re-checked exactly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .demand import SliceSpec
from .probability import DemandBox
from .topology import RESOURCE_TYPES, InfrastructureGraph

_BOUND_EPS = 1e-9


@dataclass(frozen=True)
class MilpVariable:
    name: str
    kind: str  # "nonneg_integer" | "binary"
    lower: float = 0.0
    upper: float = 0.0

    def __post_init__(self):
        if self.kind not in ("nonneg_integer", "binary"):
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError(f"variable {self.name}: bounds must be finite")
        if self.lower > self.upper:
            raise ValueError(f"variable {self.name}: lower > upper")
        if self.kind == "binary" and not (0 <= self.lower and self.upper <= 1):
            raise ValueError(f"binary variable {self.name}: bounds outside [0, 1]")


@dataclass(frozen=True)
class LinearConstraint:
    name: str
    terms: tuple  # ((coefficient, variable name), ...)
    relation: str  # "<=", "=", ">="
    rhs: float

    def __post_init__(self):
        if self.relation not in ("<=", "=", ">="):
            raise ValueError(f"unknown relation {self.relation!r}")
        if not self.terms:
            raise ValueError(f"constraint {self.name}: needs at least one term")


def make_constraint(name, terms, relation, rhs) -> LinearConstraint:
    return LinearConstraint(name=name, terms=tuple(terms), relation=relation, rhs=rhs)


@dataclass
class MilpModel:
    variables: dict = field(default_factory=dict)  # name -> MilpVariable
    constraints: list = field(default_factory=list)
    objective: dict = field(default_factory=dict)  # name -> coefficient, sense maximize
    metadata: dict = field(default_factory=dict)  # name -> (slice, infra element, virtual element)
    warnings: list = field(default_factory=list)

    def add_variable(self, var: MilpVariable, meta=None) -> None:
        if var.name in self.variables:
            raise ValueError(f"duplicate variable {var.name}")
        self.variables[var.name] = var
        if meta is not None:
            self.metadata[var.name] = meta

    def add_constraint(self, constraint: LinearConstraint) -> None:
        for _, v in constraint.terms:
            if v not in self.variables:
                raise ValueError(f"constraint {constraint.name}: unknown variable {v}")
        self.constraints.append(constraint)

    def set_objective(self, coeff_map: dict) -> None:
        for v in coeff_map:
            if v not in self.variables:
                raise ValueError(f"objective references unknown variable {v}")
        self.objective = dict(coeff_map)


def sanitize(token: str) -> str:
    return _sanitize_str(str(token))


@lru_cache(maxsize=2**14)
def _sanitize_str(token: str) -> str:
    # The model builders ask for the same few ids over and over.
    return re.sub(r"[^A-Za-z0-9]", "_", token)


def node_var(slice_id, node_id, vnf) -> str:
    return f"kN_{sanitize(slice_id)}_{sanitize(node_id)}_{sanitize(vnf)}"


def link_var(slice_id, src, dst, vsrc, vdst) -> str:
    return (
        f"kL_{sanitize(slice_id)}_{sanitize(src)}__{sanitize(dst)}"
        f"_{sanitize(vsrc)}__{sanitize(vdst)}"
    )


def used_var(slice_id, node_id) -> str:
    return f"ku_{sanitize(slice_id)}_{sanitize(node_id)}"


def accept_var(slice_id) -> str:
    return f"d_{sanitize(slice_id)}"


def _box_components(spec: SliceSpec, box: DemandBox):
    """Split the box vector into per-(vnf, type) and per-vlink targets."""
    labels = spec.sfc.component_labels()
    node_targets = {}
    link_targets = {}
    for label, value in zip(labels, box.upper):
        if len(label) == 2:
            node_targets[label] = float(value)
        else:
            link_targets[(label[0], label[1])] = float(value)
    return node_targets, link_targets


def _ceil(x: float) -> int:
    return int(math.ceil(x - _BOUND_EPS))


def _floor(x: float) -> int:
    return int(math.floor(x + _BOUND_EPS))


def effective_capacities(graph, node_reserves, link_reserves, consumed_node=None,
                         consumed_link=None, warnings=None):
    """Per-node/type and per-link provisionable capacity after subtracting
    background reserves and previously consumed amounts (clamped at zero)."""
    node_cap = {}
    for node_id, node in graph.nodes.items():
        for rtype in RESOURCE_TYPES:
            cap = node.capacity.get(rtype)
            if node_reserves is not None:
                cap -= node_reserves[node_id].get(rtype)
            if consumed_node:
                cap -= consumed_node.get((node_id, rtype), 0.0)
            if cap < 0:
                if warnings is not None and cap < -_BOUND_EPS:
                    warnings.append(
                        f"node {node_id}/{rtype}: reserve exceeds capacity, clamped to 0"
                    )
                cap = 0.0
            node_cap[(node_id, rtype)] = cap
    link_cap = {}
    for key, link in graph.links.items():
        cap = link.bandwidth
        if link_reserves is not None:
            cap -= link_reserves[key]
        if consumed_link:
            cap -= consumed_link.get(key, 0.0)
        if cap < 0:
            if warnings is not None and cap < -_BOUND_EPS:
                warnings.append(f"link {key}: reserve exceeds capacity, clamped to 0")
            cap = 0.0
        link_cap[key] = cap
    return node_cap, link_cap


def variable_upper_bounds(spec: SliceSpec, graph, box: DemandBox, node_cap, link_cap):
    """Audited finite bounds for the instance-count variables.

    A count above the full per-component requirement (every demand row already
    covered by this variable alone) only adds cost, so the requirement-side
    bound is the max over resource types of ceil(target / per-instance amount);
    the capacity side caps by what the node or link can physically host.
    """
    node_targets, link_targets = _box_components(spec, box)
    node_bounds = {}
    need_by_vnf = {}
    for vnf in spec.sfc.vnfs:
        need = 0
        for rtype in RESOURCE_TYPES:
            r = vnf.requirement.get(rtype)
            target = node_targets.get((vnf.name, rtype), 0.0)
            if r > 0 and target > 0:
                need = max(need, _ceil(target / r))
        need_by_vnf[vnf.name] = need
        for node_id in graph.nodes:
            cap_limit = need
            for rtype in RESOURCE_TYPES:
                r = vnf.requirement.get(rtype)
                if r > 0:
                    cap_limit = min(cap_limit, _floor(node_cap[(node_id, rtype)] / r))
            node_bounds[(node_id, vnf.name)] = max(cap_limit, 0)
    link_bounds = {}
    need_by_vlink = {}
    for vlink in spec.sfc.vlinks:
        target = link_targets.get((vlink.src, vlink.dst), 0.0)
        need = _ceil(target / vlink.bandwidth) if vlink.bandwidth > 0 and target > 0 else 0
        need_by_vlink[(vlink.src, vlink.dst)] = need
        for key in graph.links:
            limit = need
            if vlink.bandwidth > 0:
                limit = min(limit, _floor(link_cap[key] / vlink.bandwidth))
            link_bounds[(key, (vlink.src, vlink.dst))] = max(limit, 0)
    return node_bounds, link_bounds, need_by_vnf, need_by_vlink


def flow_constraints(spec: SliceSpec, graph: InfrastructureGraph) -> list:
    """Flow-conservation rows: for every node i and virtual link vw the net
    outflow of vw equals the hosted share of v minus the hosted share of w,
    with exact rational bandwidth ratios (ratio 1 for chains).

    A loopback link leaves and enters its node, so its variable cancels and
    co-located endpoints balance without external flow.
    """
    out_sum = {}
    in_sum = {}
    for vlink in spec.sfc.vlinks:
        out_sum[vlink.src] = out_sum.get(vlink.src, Fraction(0)) + Fraction(vlink.bandwidth)
        in_sum[vlink.dst] = in_sum.get(vlink.dst, Fraction(0)) + Fraction(vlink.bandwidth)
    # Each node's leaving (+1) and entering (-1) links, in link order.
    incident = {}
    for link in graph.links.values():
        if not link.is_loopback:
            incident.setdefault(link.src, []).append((Fraction(1), link.src, link.dst))
            incident.setdefault(link.dst, []).append((Fraction(-1), link.src, link.dst))
    rows = []
    for vlink in spec.sfc.vlinks:
        v, w = vlink.src, vlink.dst
        r_b = Fraction(vlink.bandwidth)
        ratio_out = r_b / out_sum[v] if out_sum.get(v) else None
        ratio_in = r_b / in_sum[w] if in_sum.get(w) else None
        for node_id in graph.nodes:
            terms = {
                link_var(spec.id, src, dst, v, w): sign
                for sign, src, dst in incident.get(node_id, ())
            }
            if ratio_out is not None:
                terms[node_var(spec.id, node_id, v)] = -ratio_out
            if ratio_in is not None:
                name = node_var(spec.id, node_id, w)
                terms[name] = terms.get(name, Fraction(0)) + ratio_in
            terms = {k: c for k, c in terms.items() if c != 0}
            if not terms:
                continue
            rows.append(
                make_constraint(
                    f"flow_{sanitize(spec.id)}_{sanitize(node_id)}_{sanitize(v)}__{sanitize(w)}",
                    list((c, k) for k, c in terms.items()),
                    "=",
                    Fraction(0),
                )
            )
    return rows


def fixed_cost_rows(spec: SliceSpec, graph, node_bounds) -> list:
    """Big-M linkage between instance counts and the node-usage binary:
    sum_v kappa(i, v) <= M_i * used(i) with M_i the sum of audited bounds,
    plus disaggregated rows kappa(i, v) <= U(i, v) * used(i) that tighten the
    LP relaxation without cutting any integer solution."""
    rows = []
    for node_id in graph.nodes:
        big_m = sum(node_bounds[(node_id, v.name)] for v in spec.sfc.vnfs)
        if big_m == 0:
            continue
        terms = [(1, node_var(spec.id, node_id, v.name)) for v in spec.sfc.vnfs]
        terms.append((-big_m, used_var(spec.id, node_id)))
        rows.append(
            make_constraint(f"use_{sanitize(spec.id)}_{sanitize(node_id)}", terms, "<=", 0)
        )
        for vnf in spec.sfc.vnfs:
            bound = node_bounds[(node_id, vnf.name)]
            if bound == 0:
                continue
            rows.append(
                make_constraint(
                    f"use_{sanitize(spec.id)}_{sanitize(node_id)}_{sanitize(vnf.name)}",
                    [(1, node_var(spec.id, node_id, vnf.name)),
                     (-bound, used_var(spec.id, node_id))],
                    "<=",
                    0,
                )
            )
    return rows


def _add_slice_variables(model, spec, graph, node_bounds, link_bounds):
    for node_id in graph.nodes:
        for vnf in spec.sfc.vnfs:
            model.add_variable(
                MilpVariable(
                    node_var(spec.id, node_id, vnf.name),
                    "nonneg_integer",
                    0.0,
                    float(node_bounds[(node_id, vnf.name)]),
                ),
                meta=("node", spec.id, node_id, vnf.name),
            )
    for key in graph.links:
        for vlink in spec.sfc.vlinks:
            model.add_variable(
                MilpVariable(
                    link_var(spec.id, key[0], key[1], vlink.src, vlink.dst),
                    "nonneg_integer",
                    0.0,
                    float(link_bounds[(key, (vlink.src, vlink.dst))]),
                ),
                meta=("link", spec.id, key, (vlink.src, vlink.dst)),
            )
    for node_id in graph.nodes:
        model.add_variable(
            MilpVariable(used_var(spec.id, node_id), "binary", 0.0, 1.0),
            meta=("used", spec.id, node_id),
        )
    model.add_variable(
        MilpVariable(accept_var(spec.id), "binary", 0.0, 1.0),
        meta=("accept", spec.id),
    )


def _add_demand_rows(model, spec, graph, box, need_by_vnf, need_by_vlink):
    node_targets, link_targets = _box_components(spec, box)
    d_name = accept_var(spec.id)
    for vnf in spec.sfc.vnfs:
        for rtype in RESOURCE_TYPES:
            target = node_targets.get((vnf.name, rtype), 0.0)
            if target <= 0:
                continue
            r = vnf.requirement.get(rtype)
            terms = [(r, node_var(spec.id, i, vnf.name)) for i in graph.nodes if r > 0]
            terms.append((-target, d_name))
            model.add_constraint(
                make_constraint(
                    f"dem_{sanitize(spec.id)}_{sanitize(vnf.name)}_{rtype}",
                    terms,
                    ">=",
                    0,
                )
            )
        # Integral-count strengthening: the instance total must reach the
        # rounded-up requirement whenever the slice is accepted.
        need = need_by_vnf[vnf.name]
        if need > 0:
            terms = [(1, node_var(spec.id, i, vnf.name)) for i in graph.nodes]
            terms.append((-need, d_name))
            model.add_constraint(
                make_constraint(
                    f"demcount_{sanitize(spec.id)}_{sanitize(vnf.name)}", terms, ">=", 0
                )
            )
    for vlink in spec.sfc.vlinks:
        target = link_targets.get((vlink.src, vlink.dst), 0.0)
        if target <= 0:
            continue
        r_b = vlink.bandwidth
        terms = [
            (r_b, link_var(spec.id, key[0], key[1], vlink.src, vlink.dst))
            for key in graph.links
            if r_b > 0
        ]
        terms.append((-target, d_name))
        model.add_constraint(
            make_constraint(
                f"dem_{sanitize(spec.id)}_{sanitize(vlink.src)}__{sanitize(vlink.dst)}_b",
                terms,
                ">=",
                0,
            )
        )
        need = need_by_vlink[(vlink.src, vlink.dst)]
        if need > 0:
            terms = [
                (1, link_var(spec.id, key[0], key[1], vlink.src, vlink.dst))
                for key in graph.links
            ]
            terms.append((-need, d_name))
            model.add_constraint(
                make_constraint(
                    f"demcount_{sanitize(spec.id)}_{sanitize(vlink.src)}__{sanitize(vlink.dst)}",
                    terms,
                    ">=",
                    0,
                )
            )


def _add_capacity_rows(model, slices, graph, node_cap, link_cap):
    for node_id in graph.nodes:
        for rtype in RESOURCE_TYPES:
            terms = []
            for spec in slices:
                for vnf in spec.sfc.vnfs:
                    r = vnf.requirement.get(rtype)
                    if r > 0:
                        terms.append((r, node_var(spec.id, node_id, vnf.name)))
            if not terms:
                continue
            model.add_constraint(
                make_constraint(
                    f"cap_{sanitize(node_id)}_{rtype}",
                    terms,
                    "<=",
                    node_cap[(node_id, rtype)],
                )
            )
    for key in graph.links:
        terms = []
        for spec in slices:
            for vlink in spec.sfc.vlinks:
                if vlink.bandwidth > 0:
                    terms.append(
                        (vlink.bandwidth, link_var(spec.id, key[0], key[1], vlink.src, vlink.dst))
                    )
        if not terms:
            continue
        model.add_constraint(
            make_constraint(
                f"cap_{sanitize(key[0])}__{sanitize(key[1])}_b", terms, "<=", link_cap[key]
            )
        )


def slice_cost_terms(spec: SliceSpec, graph: InfrastructureGraph):
    """(coefficient, variable) pairs of the slice's provisioning cost."""
    terms = []
    for node_id, node in graph.nodes.items():
        terms.append((node.fixed_cost, used_var(spec.id, node_id)))
        for vnf in spec.sfc.vnfs:
            unit = sum(
                vnf.requirement.get(rtype) * node.unit_cost.get(rtype)
                for rtype in RESOURCE_TYPES
            )
            if unit:
                terms.append((unit, node_var(spec.id, node_id, vnf.name)))
    for key, link in graph.links.items():
        for vlink in spec.sfc.vlinks:
            cost = vlink.bandwidth * link.unit_cost
            if cost:
                terms.append((cost, link_var(spec.id, key[0], key[1], vlink.src, vlink.dst)))
    return terms


def cost_floor_row(spec: SliceSpec, graph, min_cost: float) -> LinearConstraint:
    """Valid lower bound on an accepted slice's own cost.

    Capacity shared with other slices can only make a slice's placement more
    expensive than its stand-alone optimum, so cost_s >= min_cost * d_s holds
    for every integer-feasible joint solution; the row tightens the LP
    relaxation of the fixed-charge structure considerably.
    """
    terms = list(slice_cost_terms(spec, graph))
    terms.append((-min_cost, accept_var(spec.id)))
    return make_constraint(f"costfloor_{sanitize(spec.id)}", terms, ">=", 0)


def _objective(slices, graph):
    coeffs = {}
    for spec in slices:
        coeffs[accept_var(spec.id)] = spec.income
        for cost, var in slice_cost_terms(spec, graph):
            coeffs[var] = -cost
    return coeffs


def _build(slices, graph, targets, node_reserves, link_reserves,
           consumed_node=None, consumed_link=None) -> MilpModel:
    model = MilpModel()
    node_cap, link_cap = effective_capacities(
        graph, node_reserves, link_reserves, consumed_node, consumed_link, model.warnings
    )
    per_slice_bounds = {}
    for spec in slices:
        bounds = variable_upper_bounds(spec, graph, targets[spec.id], node_cap, link_cap)
        per_slice_bounds[spec.id] = bounds
        _add_slice_variables(model, spec, graph, bounds[0], bounds[1])
    for spec in slices:
        node_bounds, link_bounds, need_by_vnf, need_by_vlink = per_slice_bounds[spec.id]
        _add_demand_rows(model, spec, graph, targets[spec.id], need_by_vnf, need_by_vlink)
        for row in flow_constraints(spec, graph):
            model.add_constraint(row)
        for row in fixed_cost_rows(spec, graph, node_bounds):
            model.add_constraint(row)
    _add_capacity_rows(model, slices, graph, node_cap, link_cap)
    model.set_objective(_objective(slices, graph))
    return model


def build_joint(slices, graph, targets, node_reserves=None, link_reserves=None,
                cost_floors=None) -> MilpModel:
    """Joint provisioning model over all slices: maximize total income of
    accepted slices minus provisioning cost, subject to demand-satisfaction
    rows gated by the acceptance binaries, capacity-minus-reserve rows, flow
    conservation, and fixed-cost linkage.

    ``targets`` maps slice id -> DemandBox; reserves of None mean the
    impact-unaware variant (all-zero reserves).  ``cost_floors`` optionally
    maps slice id -> a proven lower bound on that slice's stand-alone cost
    (see :func:`cost_floor_row`).
    """
    ids = [s.id for s in slices]
    if len(set(ids)) != len(ids):
        raise ValueError("slice ids must be unique")
    model = _build(list(slices), graph, targets, node_reserves, link_reserves)
    for spec in slices:
        floor = (cost_floors or {}).get(spec.id, 0.0)
        if floor > 0:
            model.add_constraint(cost_floor_row(spec, graph, floor))
    return model


def build_sequential_step(
    spec,
    graph,
    target,
    node_reserves=None,
    link_reserves=None,
    consumed_node=None,
    consumed_link=None,
) -> MilpModel:
    """Single-slice provisioning model whose capacity rows additionally
    subtract the amounts consumed by previously accepted slices."""
    return _build(
        [spec],
        graph,
        {spec.id: target},
        node_reserves,
        link_reserves,
        consumed_node=consumed_node,
        consumed_link=consumed_link,
    )
