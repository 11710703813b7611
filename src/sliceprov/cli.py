"""Command-line front end: provision, calibrate, export-lp, verify.

Scenario inputs are either builtin names (``sliceprov provision --scenario
mix-2``) or YAML files following the schema documented in
:mod:`sliceprov.config`.  All commands are deterministic under a fixed seed.
"""

from __future__ import annotations

import dataclasses
import pathlib
import sys

import click
import numpy as np

from . import config as config_mod
from . import evaluation, planner
from .demand import slice_catalog
from .milp import build_joint, build_sequential_step
from .probability import QmcConfig, find_gamma_s, psp_of_box, targets_for_gamma
from .solver import SolverConfig, export_lp

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TIMEOUT = 3


def _load_scenario(token: str) -> evaluation.Scenario:
    path = pathlib.Path(token)
    if path.exists():
        return config_mod.load_scenario(path)
    try:
        return evaluation.scenario_by_name(token)
    except KeyError:
        raise click.UsageError(
            f"{token!r} is neither a scenario file nor a builtin scenario "
            f"({', '.join(s.name for s in evaluation.builtin_scenarios())})"
        )


def _apply_overrides(scenario, variant, seed, max_impact, trials):
    if variant:
        scenario = dataclasses.replace(scenario, variants=tuple(variant))
    if seed is not None:
        scenario = dataclasses.replace(scenario, seed=seed)
    if max_impact is not None:
        scenario = dataclasses.replace(scenario, max_impact=max_impact)
    if trials is not None:
        scenario = dataclasses.replace(scenario, verify_trials=trials)
    return scenario


def _variant_config(scenario, name, ordering, stat_mode, time_limit):
    # The scenario seed also seeds the QMC margin calibration.
    overrides = {"max_impact": scenario.max_impact, "qmc": QmcConfig(seed=scenario.seed)}
    if ordering:
        overrides["ordering"] = ordering
    if stat_mode:
        overrides["stat_mode"] = stat_mode
    if time_limit:
        overrides["solver"] = SolverConfig(time_limit=time_limit)
    try:
        return planner.variant_from_name(name, **overrides)
    except ValueError as exc:
        raise click.UsageError(str(exc))


@click.group()
def main():
    """Uncertainty-aware slice provisioning toolkit."""


@main.command()
@click.option("--scenario", "scenario_token", required=True,
              help="Builtin scenario name or YAML file path.")
@click.option("--variant", multiple=True,
              help="Variant(s) to run (JP, SP, JP-B, SP-B); default from scenario.")
@click.option("--seed", type=int, default=None, help="Base seed override.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=".",
              help="Output directory for CSV files.")
@click.option("--max-impact", type=float, default=None,
              help="Tolerated impact probability override.")
@click.option("--ordering", type=click.Choice(["by_income", "given"]), default=None,
              help="Sequential provisioning order.")
@click.option("--stat-mode", type=click.Choice(["per_user", "aggregate"]), default=None,
              help="Statistics used for the target box.")
@click.option("--trials", type=int, default=None,
              help="Per-slice PSP verification trials (0 disables).")
@click.option("--time-limit", type=float, default=None,
              help="Solver time limit per model, seconds.")
@click.option("--include-timing", is_flag=True,
              help="Append wall times to the report (breaks byte-identical reruns).")
def provision(scenario_token, variant, seed, out_dir, max_impact, ordering,
              stat_mode, trials, time_limit, include_timing):
    """Provision a scenario and write report.csv / slices.csv / plan.csv."""
    try:
        scenario = _apply_overrides(
            _load_scenario(scenario_token), variant, seed, max_impact, trials
        )
    except config_mod.ConfigError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    graph = scenario.build_graph()
    background = scenario.build_background(graph)
    slices = scenario.build_slices()
    reports = []
    plan_rows = []
    timed_out = False
    for name in scenario.variants:
        variant_cfg = _variant_config(scenario, name, ordering, stat_mode, time_limit)
        plan = planner.provision(slices, graph, variant_cfg, background=background)
        if "timeout" in plan.solver_status.values():
            timed_out = True
        row = evaluation.metrics(plan, graph, background, scenario.max_impact)
        report = evaluation.ScenarioReport(
            scenario=scenario.name, variant=name, repetition=0, seed=scenario.seed,
            max_impact=scenario.max_impact, solver_gap=plan.gap,
            wall_time=plan.wall_time, **row,
        )
        for sid in sorted(plan.slices):
            slice_plan = plan.slices[sid]
            report.slices.append(
                evaluation.SliceReport(
                    slice_id=sid, accepted=slice_plan.accepted,
                    gamma=slice_plan.gamma, cost=slice_plan.cost,
                )
            )
            for (node_id, vnf), count in sorted(slice_plan.node_counts.items()):
                plan_rows.append((scenario.name, name, sid, "node", node_id, vnf, count))
            for ((src, dst), (vs, vd)), count in sorted(slice_plan.link_counts.items()):
                plan_rows.append(
                    (scenario.name, name, sid, "link", f"{src}->{dst}", f"{vs}->{vd}", count)
                )
        reports.append(report)

    with open(out / "report.csv", "w", encoding="utf-8") as rep, \
            open(out / "slices.csv", "w", encoding="utf-8") as sli:
        evaluation.emit_report(reports, stream=rep, include_timing=include_timing,
                               slice_stream=sli)
    with open(out / "plan.csv", "w", encoding="utf-8") as handle:
        handle.write("scenario,variant,slice,kind,element,virtual,count\n")
        for row in plan_rows:
            handle.write(",".join(str(v) for v in row) + "\n")
    for report in reports:
        click.echo(
            f"{report.scenario} {report.variant}: earnings={report.total_earnings:.3f} "
            f"cost={report.provisioning_cost:.3f} acceptance={report.acceptance_rate:.2f} "
            f"impacted nodes/links={report.impacted_node_count}/{report.impacted_link_count}"
        )
    if timed_out:
        click.echo("warning: at least one solve hit the time limit; outputs are "
                   "partial/bound-gapped", err=True)
        sys.exit(EXIT_TIMEOUT)
    sys.exit(EXIT_OK)


@main.command()
@click.option("--slice-type", default="type1",
              help="Catalog slice type to calibrate.")
@click.option("--psp", "required_psp", type=float, default=None,
              help="Required PSP override.")
@click.option("--samples", type=int, default=2**14, help="QMC samples.")
@click.option("--curve-points", type=int, default=5,
              help="Number of PSP curve samples to print around the margin.")
def calibrate(slice_type, required_psp, samples, curve_points):
    """Calibrate the demand margin for a slice type and print the PSP curve."""
    catalog = {s.id: s for s in slice_catalog()}
    if slice_type not in catalog:
        click.echo(f"error: unknown slice type {slice_type!r}", err=True)
        sys.exit(EXIT_CONFIG)
    spec = catalog[slice_type]
    if required_psp is not None:
        spec = dataclasses.replace(spec, required_psp=required_psp)
    cfg = QmcConfig(samples=samples)
    gamma = find_gamma_s(spec, cfg)
    click.echo(f"margin for {spec.id} at required PSP {spec.required_psp}: "
               f"gamma = {gamma:.6f}")
    click.echo("gamma,psp")
    for factor in np.linspace(0.8, 1.2, curve_points):
        g = gamma * factor
        value, _ = psp_of_box(spec, targets_for_gamma(spec, g), cfg)
        click.echo(f"{g:.6f},{value:.6f}")
    sys.exit(EXIT_OK)


@main.command("export-lp")
@click.option("--scenario", "scenario_token", required=True)
@click.option("--variant", default="SP", help="Variant to export (one).")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=".")
@click.option("--seed", type=int, default=None)
def export_lp_cmd(scenario_token, variant, out_dir, seed):
    """Write the provisioning MILP(s) in LP format: one file for joint
    variants, one file per sequential step."""
    try:
        scenario = _apply_overrides(_load_scenario(scenario_token), (), seed, None, None)
    except config_mod.ConfigError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    variant_cfg = _variant_config(scenario, variant, None, None, None)
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    graph = scenario.build_graph()
    background = scenario.build_background(graph)
    slices = scenario.build_slices()
    targets = {}
    for spec in slices:
        gamma = planner.calibrate_gamma(spec, variant_cfg)
        targets[spec.id] = targets_for_gamma(
            spec, gamma, stat_mode=variant_cfg.stat_mode,
            iid_covariance=variant_cfg.iid_covariance,
        )
    node_reserves, link_reserves = planner._reserves(variant_cfg, background)
    written = []
    if variant_cfg.mode == "joint":
        model = build_joint(slices, graph, targets, node_reserves, link_reserves)
        path = out / f"{scenario.name}-{variant_cfg.name}.lp"
        path.write_text(export_lp(model), encoding="utf-8")
        written.append(path)
    else:
        plan = planner.provision(slices, graph, variant_cfg, background=background)
        consumed_node = {}
        consumed_link = {}
        for step, spec in enumerate(
            planner.order_slices(slices, variant_cfg.ordering)
        ):
            model = build_sequential_step(
                spec, graph, targets[spec.id], node_reserves, link_reserves,
                consumed_node=consumed_node, consumed_link=consumed_link,
            )
            path = out / f"{scenario.name}-{variant_cfg.name}-step{step}-{spec.id}.lp"
            path.write_text(export_lp(model), encoding="utf-8")
            written.append(path)
            slice_plan = plan.slices[spec.id]
            if slice_plan.accepted:
                for (node_id, vnf_name), count in slice_plan.node_counts.items():
                    req = next(
                        v for v in spec.sfc.vnfs if v.name == vnf_name
                    ).requirement
                    for rtype, amount in zip("cmw", req.as_tuple()):
                        if amount:
                            key = (node_id, rtype)
                            consumed_node[key] = consumed_node.get(key, 0.0) + amount * count
                for (key, vlink_key), count in slice_plan.link_counts.items():
                    vl = next(
                        v for v in spec.sfc.vlinks if (v.src, v.dst) == vlink_key
                    )
                    consumed_link[key] = consumed_link.get(key, 0.0) + vl.bandwidth * count
    for path in written:
        click.echo(str(path))
    sys.exit(EXIT_OK)


@main.command()
@click.option("--scenario", "scenario_token", required=True)
@click.option("--variant", default="SP-B")
@click.option("--trials", type=int, default=100_000)
@click.option("--seed", type=int, default=None)
def verify(scenario_token, variant, trials, seed):
    """Provision, then check the plan empirically against fresh randomness."""
    try:
        scenario = _apply_overrides(_load_scenario(scenario_token), (), seed, None, None)
    except config_mod.ConfigError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    variant_cfg = _variant_config(scenario, variant, None, None, None)
    graph = scenario.build_graph()
    background = scenario.build_background(graph)
    slices = scenario.build_slices()
    plan = planner.provision(slices, graph, variant_cfg, background=background)
    outcome = evaluation.verify_by_simulation(
        plan, graph, background, trials=trials, seed=scenario.seed,
        iid_covariance=variant_cfg.iid_covariance,
    )
    for sid, (value, (low, high)) in sorted(outcome["psp"].items()):
        required = plan.slices[sid].spec.required_psp
        click.echo(f"{sid}: empirical PSP {value:.5f} [{low:.5f}, {high:.5f}] "
                   f"(required {required})")
    worst = max(outcome["impact"].items(), key=lambda kv: kv[1][0])
    click.echo(f"max empirical impact {worst[1][0]:.5f} at {worst[0]} "
               f"[{worst[1][1][0]:.5f}, {worst[1][1][1]:.5f}]")
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
