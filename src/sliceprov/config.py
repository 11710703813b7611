"""YAML scenario configuration: schema, round-trip, and validation.

Schema (all keys optional unless noted):

.. code-block:: yaml

    name: my-scenario            # required
    graph:
      k: 2
      capacities:                # per layer: [compute, memory, wireless]
        central: [16, 32, 0]
        regional: [8, 16, 0]
        edge: [4, 12, 0]
        rrh: [1, 2, 2]
      bandwidths:                # per tier
        central-regional: 10.0
        regional-edge: 5.0
        edge-rrh: 2.5
    background: {mean_frac: 0.2, std_frac: 0.05}
    mix:                         # required; slice instances to provision
      - {type: type1, count: 1, required_psp: 0.99}
    slice_types:                 # optional additional/overriding slice specs
      mytype:
        income: 500
        required_psp: 0.95
        users: {kind: binomial, n: 10, p: 0.5}   # or {kind: deterministic, n: 5}
        vnfs:
          - name: vA
            requirement: [0.1, 0.2, 0]           # per-instance [c, m, w]
            mean: [1.0e-3, 2.0e-3, 0]            # per-user demand means
            std: [1.0e-4, 2.0e-4, 0]
        vlinks:
          - {src: vA, dst: vB, bandwidth: 0.1, mean: 1.0e-3, std: 1.0e-4}
    variants: [SP, SP-B]
    max_impact: 0.1
    correlation: 0.0
    seed: 0
    repetitions: 1
    verify_trials: 0
"""

from __future__ import annotations

import numpy as np
import yaml

from .demand import (
    SfcGraph,
    SliceSpec,
    UserCountPmf,
    UserDemandModel,
    VLink,
    Vnf,
)
from .evaluation import GraphConfig, Scenario
from .topology import ResourceVector


class ConfigError(ValueError):
    """Malformed scenario configuration."""


def _resource_vector(values) -> ResourceVector:
    if len(values) != 3:
        raise ConfigError(f"resource vectors need 3 entries, got {values!r}")
    return ResourceVector(*[float(v) for v in values])


def slice_spec_from_dict(name: str, data: dict) -> SliceSpec:
    try:
        vnfs = []
        means = []
        variances = []
        for entry in data["vnfs"]:
            vnfs.append(Vnf(entry["name"], _resource_vector(entry["requirement"])))
            means.extend(float(x) for x in entry["mean"])
            variances.extend(float(x) ** 2 for x in entry["std"])
        vlinks = []
        for entry in data.get("vlinks", []):
            vlinks.append(VLink(entry["src"], entry["dst"], float(entry["bandwidth"])))
            means.append(float(entry["mean"]))
            variances.append(float(entry["std"]) ** 2)
        users = data["users"]
        if users["kind"] == "binomial":
            pmf = UserCountPmf.binomial(int(users["n"]), float(users["p"]))
        elif users["kind"] == "deterministic":
            pmf = UserCountPmf.deterministic(int(users["n"]))
        elif users["kind"] == "pmf":
            pmf = UserCountPmf(np.array([float(p) for p in users["probs"]]))
        else:
            raise ConfigError(f"unknown user-count kind {users['kind']!r}")
        return SliceSpec(
            id=name,
            sfc=SfcGraph(vnfs=tuple(vnfs), vlinks=tuple(vlinks)),
            user_model=UserDemandModel(
                mean=np.array(means), covariance=np.diag(variances)
            ),
            user_count=pmf,
            income=float(data["income"]),
            required_psp=float(data["required_psp"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"slice type {name!r}: {exc}") from exc


def slice_spec_to_dict(spec: SliceSpec) -> dict:
    mean = spec.user_model.mean
    std = np.sqrt(np.clip(np.diag(spec.user_model.covariance), 0.0, None))
    vnfs = []
    offset = 0
    for vnf in spec.sfc.vnfs:
        vnfs.append(
            {
                "name": vnf.name,
                "requirement": list(vnf.requirement.as_tuple()),
                "mean": [float(x) for x in mean[offset:offset + 3]],
                "std": [float(x) for x in std[offset:offset + 3]],
            }
        )
        offset += 3
    vlinks = []
    for vlink in spec.sfc.vlinks:
        vlinks.append(
            {
                "src": vlink.src,
                "dst": vlink.dst,
                "bandwidth": vlink.bandwidth,
                "mean": float(mean[offset]),
                "std": float(std[offset]),
            }
        )
        offset += 1
    probs = spec.user_count.probs
    users = {"kind": "pmf", "probs": [float(p) for p in probs]}
    # Use the compact forms when they reproduce the pmf exactly.
    nonzero = np.nonzero(probs)[0]
    if len(nonzero) == 1:
        users = {"kind": "deterministic", "n": int(nonzero[0])}
    return {
        "income": spec.income,
        "required_psp": spec.required_psp,
        "users": users,
        "vnfs": vnfs,
        "vlinks": vlinks,
    }


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ConfigError("scenario config must be a mapping")
    try:
        graph_data = data.get("graph", {})
        capacities = {
            layer: _resource_vector(values)
            for layer, values in graph_data.get(
                "capacities", {k: list(v.as_tuple()) for k, v in
                               dict(GraphConfig().capacities).items()}
            ).items()
        }
        bandwidths = {
            tier: float(v)
            for tier, v in graph_data.get(
                "bandwidths", dict(GraphConfig().bandwidths)
            ).items()
        }
        background = data.get("background", {})
        scenario = Scenario(
            name=data["name"],
            mix=tuple(
                (entry["type"], int(entry.get("count", 1)),
                 float(entry["required_psp"]) if "required_psp" in entry else None)
                for entry in data["mix"]
            ),
            variants=tuple(data.get("variants", ("SP", "SP-B"))),
            graph=GraphConfig(
                k=int(graph_data.get("k", 2)),
                capacities=tuple(sorted(capacities.items())),
                bandwidths=tuple(sorted(bandwidths.items())),
            ),
            background_mean_frac=float(background.get("mean_frac", 0.2)),
            background_std_frac=float(background.get("std_frac", 0.05)),
            max_impact=float(data.get("max_impact", 0.1)),
            correlation=float(data.get("correlation", 0.0)),
            seed=int(data.get("seed", 0)),
            repetitions=int(data.get("repetitions", 1)),
            verify_trials=int(data.get("verify_trials", 0)),
            extra_types=tuple(sorted(
                (type_name, slice_spec_from_dict(type_name, spec_data))
                for type_name, spec_data in data.get("slice_types", {}).items()
            )),
        )
        # Builds every slice of the mix: unknown types and out-of-range
        # overrides fail here rather than in the middle of a run.
        scenario.build_slices()
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"scenario config: {exc}") from exc
    return scenario


def scenario_to_dict(scenario: Scenario) -> dict:
    data = {
        "name": scenario.name,
        "graph": {
            "k": scenario.graph.k,
            "capacities": {
                layer: list(v.as_tuple()) for layer, v in scenario.graph.capacities
            },
            "bandwidths": dict(scenario.graph.bandwidths),
        },
        "background": {
            "mean_frac": scenario.background_mean_frac,
            "std_frac": scenario.background_std_frac,
        },
        "mix": [
            {"type": t, "count": c, **({"required_psp": p} if p is not None else {})}
            for t, c, p in scenario.mix
        ],
        "variants": list(scenario.variants),
        "max_impact": scenario.max_impact,
        "correlation": scenario.correlation,
        "seed": scenario.seed,
        "repetitions": scenario.repetitions,
        "verify_trials": scenario.verify_trials,
    }
    if scenario.extra_types:
        data["slice_types"] = {
            name: slice_spec_to_dict(spec) for name, spec in scenario.extra_types
        }
    return data


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = yaml.safe_load(handle)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return scenario_from_dict(data)


def dump_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        yaml.safe_dump(scenario_to_dict(scenario), handle, sort_keys=False)
