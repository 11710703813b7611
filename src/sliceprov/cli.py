"""Command-line front end: provision, calibrate, export-lp, verify.

Scenario inputs are either builtin names (``sliceprov provision --scenario
mix-2``) or YAML files following the schema documented in
:mod:`sliceprov.config`.  All commands are deterministic under a fixed seed.

The commands hold no provisioning logic of their own: ``provision`` runs
:func:`sliceprov.evaluation.run_scenario` (one report row per variant and
repetition, PSP estimates when ``--trials`` is set), ``export-lp`` writes the
models of :func:`sliceprov.planner.sequential_steps` or
:func:`sliceprov.planner.joint_model`, and ``verify`` checks a
:func:`sliceprov.planner.provision` plan by simulation.
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


def _variant_config(scenario, name):
    # The scenario seed also seeds the QMC margin calibration.
    try:
        return planner.variant_from_name(
            name, max_impact=scenario.max_impact, qmc=QmcConfig(seed=scenario.seed)
        )
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
    for name in scenario.variants:
        _variant_config(scenario, name)  # an unknown variant fails before any solve
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    overrides = {}
    if ordering:
        overrides["ordering"] = ordering
    if stat_mode:
        overrides["stat_mode"] = stat_mode
    if time_limit:
        overrides["solver"] = SolverConfig(time_limit=time_limit)
    reports = evaluation.run_scenario(scenario, **overrides)

    with open(out / "report.csv", "w", encoding="utf-8") as rep, \
            open(out / "slices.csv", "w", encoding="utf-8") as sli:
        evaluation.emit_report(reports, stream=rep, include_timing=include_timing,
                               slice_stream=sli)
    with open(out / "plan.csv", "w", encoding="utf-8") as handle:
        handle.write("scenario,variant,repetition,slice,kind,element,virtual,count\n")
        for report in reports:
            for sid, slice_plan in sorted(report.plan.slices.items()):
                prefix = f"{report.scenario},{report.variant},{report.repetition},{sid}"
                for (node_id, vnf), count in sorted(slice_plan.node_counts.items()):
                    handle.write(f"{prefix},node,{node_id},{vnf},{count}\n")
                for ((src, dst), (vs, vd)), count in sorted(slice_plan.link_counts.items()):
                    handle.write(f"{prefix},link,{src}->{dst},{vs}->{vd},{count}\n")
    for report in reports:
        click.echo(
            f"{report.scenario} {report.variant}: earnings={report.total_earnings:.3f} "
            f"cost={report.provisioning_cost:.3f} acceptance={report.acceptance_rate:.2f} "
            f"impacted nodes/links={report.impacted_node_count}/{report.impacted_link_count}"
        )
    if any("timeout" in r.plan.solver_status.values() for r in reports):
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
    variant_cfg = _variant_config(scenario, variant)
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    graph = scenario.build_graph()
    background = scenario.build_background(graph)
    slices = scenario.build_slices()
    stem = f"{scenario.name}-{variant_cfg.name}"
    if variant_cfg.mode == "joint":
        models = [(f"{stem}.lp", planner.joint_model(slices, graph, variant_cfg, background))]
    else:
        steps = planner.sequential_steps(slices, graph, variant_cfg, background)
        models = (
            (f"{stem}-step{step}-{spec.id}.lp", model)
            for step, (spec, model, _) in enumerate(steps)
        )
    for filename, model in models:
        path = out / filename
        path.write_text(export_lp(model), encoding="utf-8")
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
    variant_cfg = _variant_config(scenario, variant)
    graph = scenario.build_graph()
    background = scenario.build_background(graph)
    slices = scenario.build_slices()
    plan = planner.provision(slices, graph, variant_cfg, background=background)
    outcome = evaluation.verify_by_simulation(
        plan, graph, background, trials=trials, seed=scenario.seed
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
