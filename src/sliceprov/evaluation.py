"""Scenario library, metrics, Monte Carlo verification, and CSV reporting.

Infrastructure capacities are configuration with documented defaults: the
reference topology figure gives no numeric labels, so the numbers below are
chosen (and tunable per scenario) such that a single high-definition video
slice occupies a handful of nodes and the wireless tier is the binding
resource, which reproduces the qualitative structure of the published
comparisons.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .demand import (
    BackgroundModel,
    background_peaks,
    sample_aggregate,
    sample_background,
    slice_catalog,
)
from .planner import ProvisioningPlan, provision, variant_from_name
from .probability import plan_impact_probabilities, plan_psp
from .topology import RESOURCE_TYPES, ResourceVector, build_fat_tree

# Invented defaults (see module docstring); override per scenario as needed.
DEFAULT_LAYER_CAPACITIES = {
    "central": ResourceVector(16.0, 32.0, 0.0),
    "regional": ResourceVector(8.0, 16.0, 0.0),
    "edge": ResourceVector(4.0, 12.0, 0.0),
    "rrh": ResourceVector(1.0, 2.0, 2.1),
}
DEFAULT_TIER_BANDWIDTHS = {
    "central-regional": 10.0,
    "regional-edge": 5.0,
    "edge-rrh": 2.5,
}
DEFAULT_BACKGROUND_MEAN_FRAC = 0.2
DEFAULT_BACKGROUND_STD_FRAC = 0.05

IMPACT_SWEEP_GRID = (0.05, 0.1, 0.2, 0.3, 0.4)
PSP_SWEEP_GRID = (0.9, 0.95, 0.99)


@dataclass(frozen=True)
class GraphConfig:
    k: int = 2
    capacities: tuple = tuple(sorted(DEFAULT_LAYER_CAPACITIES.items()))
    bandwidths: tuple = tuple(sorted(DEFAULT_TIER_BANDWIDTHS.items()))

    def build(self):
        return build_fat_tree(
            self.k, dict(self.capacities), bandwidths=dict(self.bandwidths)
        )


@dataclass(frozen=True)
class Scenario:
    """A reproducible experiment: infrastructure, background, slice mix,
    variants, and seeding."""

    name: str
    mix: tuple  # ((slice type name, count, required_psp override or None), ...)
    variants: tuple = ("SP", "SP-B")
    graph: GraphConfig = field(default_factory=GraphConfig)
    background_mean_frac: float = DEFAULT_BACKGROUND_MEAN_FRAC
    background_std_frac: float = DEFAULT_BACKGROUND_STD_FRAC
    max_impact: float = 0.1
    correlation: float = 0.0
    seed: int = 0
    repetitions: int = 1
    verify_trials: int = 0  # 0 disables per-slice PSP verification
    extra_types: tuple = ()  # ((name, SliceSpec), ...) beyond the catalog

    def __post_init__(self):
        if not self.variants:
            raise ValueError("scenario needs at least one variant")
        for name in self.variants:
            variant_from_name(name)  # an unknown name fails before any provisioning
        if not 0.0 < self.max_impact < 1.0:
            raise ValueError("max_impact must lie strictly in (0, 1)")
        if self.repetitions < 1 or self.verify_trials < 0:
            raise ValueError("repetitions must be >= 1 and verify_trials >= 0")
        for _, count, _ in self.mix:
            if count < 0:
                raise ValueError("slice counts must be nonnegative")

    def build_graph(self):
        return self.graph.build()

    def build_background(self, graph):
        return BackgroundModel.from_graph(
            graph,
            mean_frac=self.background_mean_frac,
            std_frac=self.background_std_frac,
        )

    def build_slices(self):
        catalog = {s.id: s for s in slice_catalog(correlation=self.correlation)}
        catalog.update(dict(self.extra_types))
        slices = []
        for type_name, count, psp in self.mix:
            if type_name not in catalog:
                raise ValueError(f"unknown slice type {type_name!r}")
            for idx in range(count):
                spec = dataclasses.replace(catalog[type_name], id=f"{type_name}_{idx}")
                if psp is not None:
                    spec = dataclasses.replace(spec, required_psp=psp)
                slices.append(spec)
        return slices

    @property
    def size(self) -> int:
        return sum(count for _, count, _ in self.mix)


def builtin_scenarios() -> list:
    """The four mixed scenarios, the single Type-1 scenario, and the
    ten-Type-1 sweep base scenario."""
    mixes = {2: (1, 1, 0), 4: (2, 1, 1), 6: (2, 2, 2), 8: (3, 2, 3)}
    scenarios = [
        Scenario(
            name=f"mix-{total}",
            mix=tuple(
                (f"type{i + 1}", count, None) for i, count in enumerate(counts) if count
            ),
            variants=("SP", "JP", "SP-B", "JP-B"),
        )
        for total, counts in mixes.items()
    ]
    scenarios.append(
        Scenario(
            name="single-type1",
            mix=(("type1", 1, 0.99),),
            variants=("SP", "SP-B"),
            max_impact=0.1,
        )
    )
    scenarios.append(
        Scenario(
            name="sweep-type1",
            mix=(("type1", 10, None),),
            variants=("SP", "SP-B"),
        )
    )
    return scenarios


def scenario_by_name(name: str) -> Scenario:
    for scenario in builtin_scenarios():
        if scenario.name == name:
            return scenario
    raise KeyError(f"no builtin scenario named {name!r}")


@dataclass
class SliceReport:
    slice_id: str
    accepted: bool
    gamma: float
    cost: float
    psp_qmc: float = math.nan
    psp_qmc_error: float = math.nan
    psp_mc: float = math.nan
    psp_mc_error: float = math.nan


@dataclass
class ScenarioReport:
    scenario: str
    variant: str
    repetition: int
    seed: int
    max_impact: float
    node_usage_pct: float
    link_usage_pct: float
    node_capacity_pct: float
    link_capacity_pct: float
    max_impact_prob: float
    provisioning_cost: float
    total_earnings: float
    acceptance_rate: float
    impacted_node_count: int
    impacted_link_count: int
    solver_gap: float
    wall_time: float
    slices: list = field(default_factory=list)
    plan: ProvisioningPlan | None = None


# A report row holds every ScenarioReport field but the wall time (appended
# on request), the slice reports and the plan; a slice row holds the keys of
# its report row, then every SliceReport field.
REPORT_COLUMNS = [
    f.name for f in dataclasses.fields(ScenarioReport)
    if f.name not in ("wall_time", "slices", "plan")
]
SLICE_COLUMNS = ["scenario", "variant", "repetition"] + [
    f.name for f in dataclasses.fields(SliceReport)
]


def metrics(plan: ProvisioningPlan, graph, background, max_impact: float) -> dict:
    """Usage, impact, cost, and acceptance metrics of a plan.

    Usage counts infrastructure elements touched by at least one slice
    (loopback links included); impacted elements are those whose impact
    probability exceeds ``max_impact`` for any resource type.
    """
    used_nodes = set()
    for slice_plan in plan.slices.values():
        used_nodes.update(slice_plan.used_nodes)
    used_links = {key for key, amount in plan.provisioned_link.items() if amount > 0}
    node_probs, link_probs = plan_impact_probabilities(plan, graph, background)
    impacted_nodes = {node_id for (node_id, _), p in node_probs.items() if p > max_impact}
    impacted_links = {key for key, p in link_probs.items() if p > max_impact}
    max_prob = max(
        [*node_probs.values(), *link_probs.values()], default=0.0
    )
    provisioned_node = plan.provisioned_node
    total_cap = sum(
        node.capacity.get(t) for node in graph.nodes.values() for t in RESOURCE_TYPES
    )
    used_cap = sum(provisioned_node.values())
    total_bw = sum(link.bandwidth for link in graph.links.values())
    used_bw = sum(plan.provisioned_link.values())
    n_slices = len(plan.slices)
    return {
        "node_usage_pct": 100.0 * len(used_nodes) / len(graph.nodes),
        "link_usage_pct": 100.0 * len(used_links) / len(graph.links),
        "node_capacity_pct": 100.0 * used_cap / total_cap if total_cap else 0.0,
        "link_capacity_pct": 100.0 * used_bw / total_bw if total_bw else 0.0,
        "max_impact_prob": float(max_prob),
        "provisioning_cost": plan.cost,
        "total_earnings": plan.earnings,
        "acceptance_rate": len(plan.accepted_ids) / n_slices if n_slices else 0.0,
        "impacted_node_count": len(impacted_nodes),
        "impacted_link_count": len(impacted_links),
    }


def wilson_interval(successes: int, trials: int, z: float = 1.959964):
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


# Fewest trials for which verify_by_simulation reports intervals.
MIN_VERIFY_TRIALS = 10_000


def verify_by_simulation(plan: ProvisioningPlan, graph, background, trials: int,
                         seed: int = 0) -> dict:
    """Empirical check of the plan against fresh randomness.

    Samples aggregate demands per accepted slice and background loads, and
    reports the frequency of componentwise demand satisfaction (empirical
    PSP, per slice) and of background-capacity overrun (empirical impact,
    per node/type and link), each with a 95% Wilson interval.  Background
    loads are looked up by element key and drawn only for the elements that
    can overrun at all.
    """
    if trials < MIN_VERIFY_TRIALS:
        raise ValueError(f"need at least {MIN_VERIFY_TRIALS:,} trials for meaningful intervals")
    psp = {}
    for index, (sid, slice_plan) in enumerate(sorted(plan.slices.items())):
        box = slice_plan.provisioned_box()
        if box is None:
            continue
        samples = sample_aggregate(slice_plan.spec, seed=(seed, 1, index), size=trials)
        hits = int(np.sum(np.all(samples <= box.upper[None, :] + 1e-9, axis=1)))
        psp[sid] = (hits / trials, wilson_interval(hits, trials))
    node_keys = [(node_id, rtype) for node_id in graph.nodes for rtype in RESOURCE_TYPES]
    keys = node_keys + list(graph.links)
    capacity = np.array(
        [graph.nodes[node_id].capacity.get(rtype) for node_id, rtype in node_keys]
        + [link.bandwidth for link in graph.links.values()],
        dtype=float,
    )
    provisioned_node = plan.provisioned_node
    provisioned_link = plan.provisioned_link
    provisioned = np.array(
        [provisioned_node.get(key, 0.0) for key in node_keys]
        + [provisioned_link.get(key, 0.0) for key in graph.links],
        dtype=float,
    )
    # An element that stays below capacity even under the largest load the
    # sampler can draw, by a relative 1e-9 that no rounding reaches, overruns
    # in no trial; only the other elements are sampled.
    peak = background_peaks(background, keys)
    slack = 1e-9 * np.maximum.reduce(
        [np.ones_like(capacity), np.abs(capacity), np.abs(provisioned), peak]
    )
    live = np.flatnonzero(~(provisioned + peak + slack < capacity + 1e-12))
    loads = sample_background(
        background, seed=(seed, 2), size=trials, keys=[keys[i] for i in live]
    )
    overruns = np.zeros(len(keys), dtype=np.int64)
    overruns[live] = np.count_nonzero(
        provisioned[live] + loads > capacity[live] + 1e-12, axis=0
    )
    impact = {
        key: (count / trials, wilson_interval(count, trials))
        for key, count in zip(keys, overruns.tolist())
    }
    return {"psp": psp, "impact": impact}


def run_scenario(scenario: Scenario, **overrides) -> list:
    """Provision every (variant, repetition) of the scenario and compute
    metrics; returns a list of ScenarioReport, each carrying its plan.

    ``overrides`` are VariantConfig fields applied to every variant (for
    example ``ordering``, ``stat_mode``, ``solver`` or ``qmc``).  Repetition
    r seeds the QMC margin calibration with ``scenario.seed + r``.
    """
    graph = scenario.build_graph()
    background = scenario.build_background(graph)
    slices = scenario.build_slices()
    reports = []
    for variant_name in scenario.variants:
        variant = variant_from_name(variant_name, max_impact=scenario.max_impact, **overrides)
        for repetition in range(scenario.repetitions):
            seed = scenario.seed + repetition
            # Each repetition is an independent QMC replicate of the margins.
            replicate = dataclasses.replace(
                variant, qmc=dataclasses.replace(variant.qmc, seed=seed)
            )
            plan = provision(slices, graph, replicate, background=background)
            row = metrics(plan, graph, background, scenario.max_impact)
            report = ScenarioReport(
                scenario=scenario.name,
                variant=variant_name,
                repetition=repetition,
                seed=seed,
                max_impact=scenario.max_impact,
                solver_gap=plan.gap,
                wall_time=plan.wall_time,
                plan=plan,
                **row,
            )
            for sid in sorted(plan.slices):
                slice_plan = plan.slices[sid]
                slice_report = SliceReport(
                    slice_id=sid,
                    accepted=slice_plan.accepted,
                    gamma=slice_plan.gamma,
                    cost=slice_plan.cost,
                )
                if scenario.verify_trials and slice_plan.accepted:
                    estimate = plan_psp(
                        slice_plan.spec,
                        slice_plan.provisioned_box(),
                        replicate.qmc,
                        mc_trials=scenario.verify_trials,
                        seed=seed,
                    )
                    slice_report.psp_qmc = estimate.qmc
                    slice_report.psp_qmc_error = estimate.qmc_error
                    slice_report.psp_mc = estimate.mc
                    slice_report.psp_mc_error = estimate.mc_error
                report.slices.append(slice_report)
            reports.append(report)
    return reports


def _format_cell(value):
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return f"{value:.10g}"
    return str(value)


def emit_report(reports, stream=None, include_timing: bool = False,
                slice_stream=None) -> str:
    """Write summary (and optionally per-slice) CSVs.

    Timing is excluded by default so reruns with the same seeds produce
    byte-identical files; pass ``include_timing=True`` to append wall times.
    """
    own = stream is None
    stream = stream or io.StringIO()
    columns = REPORT_COLUMNS + (["wall_time"] if include_timing else [])
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for report in reports:
        row = [getattr(report, name) for name in columns]
        writer.writerow([_format_cell(v) for v in row])
    if slice_stream is not None:
        slice_writer = csv.writer(slice_stream, lineterminator="\n")
        slice_writer.writerow(SLICE_COLUMNS)
        for report in reports:
            for slice_report in report.slices:
                row = [getattr(report, name) for name in SLICE_COLUMNS[:3]]
                row += [getattr(slice_report, name) for name in SLICE_COLUMNS[3:]]
                slice_writer.writerow([_format_cell(v) for v in row])
    return stream.getvalue() if own else ""
