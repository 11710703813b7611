"""Seeded inputs of the three workloads.

Every input is drawn from ``numpy.random.default_rng(seed)``, so one seed
always gives the same inputs.  The program only ever sees the slice specs,
the graph and the background model built here.

``calibrate`` jitters the demand statistics and the user-count pmf, because
the cost of calibration barely depends on them.  The requests keep the
catalog's incomes and a fixed structure (slice type, user count, variant),
and the seed draws their ids, their order and the Monte Carlo seeds:
branch-and-bound effort is chaotic in the inputs (SP of type 1 takes 2 nodes
with 50 users and 184 with 80; SP-B of type 1 with 30 users takes 42 nodes at
an income of 896 and 57 at 908), and a run is too short to hold enough
requests to average that out.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from sliceprov import demand, evaluation

# The planner's default tolerated impact probability of the -B variants.
MAX_IMPACT = 0.1

# Trials of every evaluation.verify_by_simulation call (the least it accepts
# is 10^4).
VERIFY_TRIALS = 20_000

# (slice type, deterministic user count, variant): one single-slice request
# each.  Per-request SP/SP-B times on the default k=2 fat tree range from
# 0.1 s (2 branch-and-bound nodes) to 1.6 s (42 nodes).
SEQUENTIAL_REQUESTS = (
    ("type1", 50, "SP"),
    ("type1", 50, "SP-B"),
    ("type1", 30, "SP-B"),
    ("type2", 200, "SP"),
    ("type2", 200, "SP-B"),
)

# Batches of two requests, each provisioned with JP and JP-B.
JOINT_BATCHES = (
    (("type1", 50), ("type2", 200)),
    (("type2", 200), ("type2", 200)),
)
JOINT_VARIANTS = ("JP", "JP-B")

# The request the calibrate workload provisions after calibrating.
CALIBRATE_REQUEST = ("type2", 200, "SP")

# The calibrate workload's variants: a type-1-shaped one with a binomial user
# count (a mixture over its support, 9 stochastic dimensions) and a
# type-3-shaped one with a deterministic count (one component, 15 stochastic
# dimensions).
CALIBRATE_TYPE1_USERS = 8

DEMAND_JITTER = 0.1


@dataclass(frozen=True)
class Request:
    id: str
    specs: tuple  # SliceSpec, one per slice of the batch
    variant: str  # "SP", "SP-B", "JP" or "JP-B"


@dataclass
class Inputs:
    graph: object
    background: object
    requests: list  # Request, provisioned every round
    calibrate_specs: list  # SliceSpec, calibrated cold every round
    verify_seeds: list  # one per request
    check_seed: int


def _catalog():
    return {spec.id: spec for spec in demand.slice_catalog()}


def _fixed_shape(catalog, type_name, users, slice_id):
    return dataclasses.replace(
        catalog[type_name], id=slice_id, user_count=demand.UserCountPmf.deterministic(users),
    )


def _jittered_shape(catalog, type_name, user_count, slice_id, rng):
    """A catalog type with every per-user mean scaled by its own factor; the
    standard deviations keep their ratio to the mean."""
    base = catalog[type_name]
    scale = rng.uniform(1.0 - DEMAND_JITTER, 1.0 + DEMAND_JITTER, base.user_model.mean.size)
    model = demand.UserDemandModel(
        base.user_model.mean * scale,
        base.user_model.covariance * np.outer(scale, scale),
    )
    return dataclasses.replace(base, id=slice_id, user_model=model, user_count=user_count)


def make_inputs(workload: str, seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    catalog = _catalog()
    graph = evaluation.GraphConfig().build()
    background = demand.BackgroundModel.from_graph(
        graph,
        mean_frac=evaluation.DEFAULT_BACKGROUND_MEAN_FRAC,
        std_frac=evaluation.DEFAULT_BACKGROUND_STD_FRAC,
    )
    tag = int(rng.integers(1000, 10000))
    requests = []
    calibrate_specs = []
    if workload == "calibrate":
        pmf = demand.UserCountPmf.binomial(CALIBRATE_TYPE1_USERS, float(rng.uniform(0.85, 0.95)))
        calibrate_specs.append(_jittered_shape(catalog, "type1", pmf, f"t1v{tag}", rng))
        pmf = demand.UserCountPmf.deterministic(int(rng.integers(40, 61)))
        calibrate_specs.append(_jittered_shape(catalog, "type3", pmf, f"t3v{tag}", rng))
        type_name, users, variant = CALIBRATE_REQUEST
        spec = _fixed_shape(catalog, type_name, users, f"c{tag}")
        requests.append(Request(f"cal-{tag}", (spec,), variant))
    elif workload == "sequential":
        for i, (type_name, users, variant) in enumerate(SEQUENTIAL_REQUESTS):
            spec = _fixed_shape(catalog, type_name, users, f"s{tag}_{i}")
            requests.append(Request(f"seq-{tag}-{i}", (spec,), variant))
    elif workload == "joint":
        for b, batch in enumerate(JOINT_BATCHES):
            specs = tuple(
                _fixed_shape(catalog, type_name, users, f"j{tag}_{b}_{i}")
                for i, (type_name, users) in enumerate(batch)
            )
            for variant in JOINT_VARIANTS:
                requests.append(Request(f"joint-{tag}-{b}-{variant}", specs, variant))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    order = rng.permutation(len(requests))
    requests = [requests[i] for i in order]
    if not calibrate_specs:
        # The distinct request shapes: the slice types of the workload.
        shapes = {}
        for request in requests:
            for spec in request.specs:
                shapes.setdefault(spec.fingerprint(), spec)
        calibrate_specs = list(shapes.values())
    verify_seeds = [int(s) for s in rng.integers(0, 2**31, len(requests))]
    return Inputs(
        graph=graph,
        background=background,
        requests=requests,
        calibrate_specs=calibrate_specs,
        verify_seeds=verify_seeds,
        check_seed=int(rng.integers(0, 2**31)),
    )
