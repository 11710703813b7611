"""Shared test fixtures: small synthetic slice specs that keep calibration and
MILP solves fast, plus the low-cost QMC configuration used by unit tests."""

import numpy as np
from scipy.special import ndtr, ndtri
from scipy.stats import qmc

from sliceprov.demand import (
    SfcGraph,
    SliceSpec,
    UserCountPmf,
    UserDemandModel,
    VLink,
    Vnf,
)
from sliceprov import probability
from sliceprov.probability import QmcConfig
from sliceprov.topology import ResourceVector

# Cheap QMC settings for unit tests; acceptance tests use the defaults.
FAST_QMC = QmcConfig(samples=1024, randomizations=4)


def micro_spec(slice_id="micro", income=100.0, required_psp=0.9, users=2,
               mean_c=0.1, std_c=0.01, req_c=0.5):
    """One VNF, no virtual links, a single stochastic component: calibration
    is closed-form-fast and the provisioning MILP is tiny."""
    return SliceSpec(
        id=slice_id,
        sfc=SfcGraph(vnfs=(Vnf("vA", ResourceVector(req_c, 0.0, 0.0)),), vlinks=()),
        user_model=UserDemandModel(
            mean=np.array([mean_c, 0.0, 0.0]),
            covariance=np.diag([std_c**2, 0.0, 0.0]),
        ),
        user_count=UserCountPmf.deterministic(users),
        income=income,
        required_psp=required_psp,
    )


def chain_spec(slice_id="chain", income=200.0, required_psp=0.9):
    """Two-VNF chain with one virtual link, three stochastic components."""
    return SliceSpec(
        id=slice_id,
        sfc=SfcGraph(
            vnfs=(
                Vnf("vA", ResourceVector(0.5, 0.0, 0.0)),
                Vnf("vB", ResourceVector(0.4, 0.2, 0.0)),
            ),
            vlinks=(VLink("vA", "vB", 0.2),),
        ),
        user_model=UserDemandModel(
            mean=np.array([0.1, 0.0, 0.0, 0.08, 0.0, 0.0, 0.05]),
            covariance=np.diag([0.01**2, 0.0, 0.0, 0.008**2, 0.0, 0.0, 0.005**2]),
        ),
        user_count=UserCountPmf.deterministic(2),
        income=income,
        required_psp=required_psp,
    )


def correlated_fig_regime_spec():
    """Two correlated stochastic components, binomial user count: the
    mixture-probability regime used for the frozen Monte Carlo oracle."""
    rho = 0.85
    cov = np.zeros((3, 3))
    cov[0, 0] = cov[1, 1] = 1.0
    cov[0, 1] = cov[1, 0] = rho
    return SliceSpec(
        id="corr2d",
        sfc=SfcGraph(vnfs=(Vnf("vX", ResourceVector(1.0, 1.0, 0.0)),), vlinks=()),
        user_model=UserDemandModel(np.array([2.0, 3.0, 0.0]), cov),
        user_count=UserCountPmf.binomial(10, 0.5),
        income=1.0,
        required_psp=0.9,
    )


def degenerate_spec(required_psp):
    """One deterministic user, one stochastic component: the calibrated margin
    has the closed form gamma = Phi^-1(required_psp)."""
    return SliceSpec(
        id="degenerate",
        sfc=SfcGraph(vnfs=(Vnf("vY", ResourceVector(1.0, 0.0, 0.0)),), vlinks=()),
        user_model=UserDemandModel(
            mean=np.array([1.0, 0.0, 0.0]),
            covariance=np.diag([0.04, 0.0, 0.0]),
        ),
        user_count=UserCountPmf.deterministic(1),
        income=1.0,
        required_psp=required_psp,
    )


def reference_qmc_points(dim, samples, randomizations, seed):
    """The serial estimator's point sets: one scrambled Sobol set per
    randomization, seeded from (seed, r), all drawn up front."""
    sets = []
    for r in range(randomizations):
        engine = qmc.Sobol(d=dim, scramble=True, seed=np.random.default_rng([seed, r]))
        sets.append(engine.random(samples))
    return sets


def reference_genz_batch(shifts, scales, chol, upper, points):
    """The serial estimator's Genz sequential conditioning over one whole
    (n, d-1) point set; returns the per-batch-member mean of the integrand."""
    batch, d = shifts.shape
    n = points.shape[0] if d > 1 else 1
    b = (upper[None, :] - shifts) / scales[:, None]  # (batch, d)
    e_cur = ndtr(b[:, 0] / chol[0, 0])  # (batch,)
    if d == 1:
        return e_cur
    prod = np.repeat(e_cur[:, None], n, axis=1)  # (batch, n)
    e_vals = prod.copy()
    y = np.empty((batch, n, d - 1))
    for i in range(1, d):
        u = np.clip(points[None, :, i - 1] * e_vals, 1e-300, 1.0 - 1e-16)
        y[:, :, i - 1] = ndtri(u)
        partial = np.einsum("j,bnj->bn", chol[i, :i], y[:, :, : i])
        e_vals = ndtr((b[:, i, None] - partial) / chol[i, i])
        prod *= e_vals
    return prod.mean(axis=1)


def reference_genz_estimates(shifts, scales, chol, upper, cfg):
    """Drop-in serial replacement of ``probability._genz_estimates``."""
    d = shifts.shape[1]
    if d == 1:
        return [reference_genz_batch(shifts, scales, chol, upper, np.empty((0, 0)))]
    point_sets = reference_qmc_points(d - 1, cfg.samples, cfg.randomizations, cfg.seed)
    return [reference_genz_batch(shifts, scales, chol, upper, pts) for pts in point_sets]


def serial(fn, *args):
    """``fn(*args)`` with the serial reference estimator in place of the kernel."""
    kernel = probability._genz_estimates
    probability._genz_estimates = reference_genz_estimates
    try:
        return fn(*args)
    finally:
        probability._genz_estimates = kernel
