"""Normal CDF machinery, quasi-Monte Carlo box probabilities for the compound
demand mixture, robustness-margin calibration, and post-hoc plan evaluation."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr, ndtri
from scipy.stats import qmc

from .demand import (
    BackgroundModel,
    SliceSpec,
    aggregate_moments,
    sample_aggregate,
)
from .topology import RESOURCE_TYPES, InfrastructureGraph, ResourceVector

_DET_VAR_TOL = 1e-14
_DET_SLACK = 1e-12
_PMF_CUTOFF = 1e-12
_U_CLIP = (1e-300, 1.0 - 1e-16)


class CalibrationError(RuntimeError):
    """Raised when no margin within the search cap reaches the required PSP."""


@dataclass(frozen=True)
class DemandBox:
    """Upper corner of the acceptance region {x <= upper} over the slice's
    demand component ordering."""

    upper: np.ndarray

    def __post_init__(self):
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "upper", upper)
        if not np.all(np.isfinite(upper)):
            raise ValueError("box entries must be finite")


@dataclass(frozen=True)
class QmcConfig:
    samples: int = 2**14  # per mixture component
    randomizations: int = 12
    seed: int = 0
    abs_tolerance: float = 5e-4

    def __post_init__(self):
        if self.samples < 1024:
            raise ValueError("samples must be >= 1024")
        if self.randomizations < 2:
            raise ValueError("randomizations must be >= 2")
        if self.abs_tolerance <= 0:
            raise ValueError("abs_tolerance must be positive")


def std_normal_cdf(x: float):
    return ndtr(x)


def std_normal_inv_cdf(p: float):
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr <= 0.0) or np.any(p_arr >= 1.0):
        raise ValueError("inverse normal CDF requires p strictly in (0, 1)")
    return ndtri(p)


def _split_deterministic(cov: np.ndarray):
    """Indices of zero-variance (deterministic) and stochastic components.

    A deterministic component must carry no cross-covariance either.
    """
    diag = np.diag(cov)
    det = diag <= _DET_VAR_TOL
    for i in np.flatnonzero(det):
        if np.any(np.abs(cov[i]) > 1e-10):
            raise ValueError("zero-variance component has nonzero cross-covariance")
    return np.flatnonzero(det), np.flatnonzero(~det)


def _cholesky_psd(cov: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        eigvals = np.linalg.eigvalsh(cov)
        scale = max(1.0, float(np.max(np.abs(eigvals))))
        if eigvals.min() < -1e-10 * scale:
            raise ValueError("covariance must be positive semidefinite")
        jitter = 1e-12 * scale * np.eye(cov.shape[0])
        return np.linalg.cholesky(cov + jitter)


def _qmc_points(dim: int, samples: int, randomizations: int, seed):
    """One scrambled Sobol point set per randomization, seeded from (seed, r).

    The sets are precomputed so results do not depend on evaluation order.
    """
    sets = []
    for r in range(randomizations):
        engine = qmc.Sobol(d=dim, scramble=True, seed=np.random.default_rng([seed, r]))
        sets.append(engine.random(samples))
    return sets


def _genz_batch(shifts: np.ndarray, scales: np.ndarray, chol: np.ndarray,
                upper: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Genz sequential-conditioning estimates of Pr{X <= upper} for a batch of
    Gaussians X_j ~ Normal(shifts[j], scales[j]^2 * L L^T).

    ``points`` is an (n, d-1) low-discrepancy set shared by the batch; returns
    the per-batch-member mean of the transformed integrand.
    """
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
        u = np.clip(points[None, :, i - 1] * e_vals, *_U_CLIP)
        y[:, :, i - 1] = ndtri(u)
        partial = np.einsum("j,bnj->bn", chol[i, :i], y[:, :, : i])
        e_vals = ndtr((b[:, i, None] - partial) / chol[i, i])
        prod *= e_vals
    return prod.mean(axis=1)


def mvn_box_probability(mean, cov, box: DemandBox, cfg: QmcConfig):
    """Estimate Pr{X <= box.upper} for X ~ Normal(mean, cov).

    Uses the Genz transform (Cholesky plus sequential conditioning onto the
    unit cube) with randomized scrambled-Sobol rules.  Returns (estimate,
    error_estimate) where the error is the standard error over randomizations.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    upper = box.upper
    if mean.size != upper.size or cov.shape != (mean.size, mean.size):
        raise ValueError("dimension mismatch between mean, covariance, and box")
    det_idx, sto_idx = _split_deterministic(cov)
    if np.any(mean[det_idx] > upper[det_idx] + _DET_SLACK):
        return 0.0, 0.0
    if sto_idx.size == 0:
        return 1.0, 0.0
    sub_cov = cov[np.ix_(sto_idx, sto_idx)]
    chol = _cholesky_psd(sub_cov)
    shifts = mean[sto_idx][None, :]
    scales = np.ones(1)
    d = sto_idx.size
    if d == 1:
        est = float(_genz_batch(shifts, scales, chol, upper[sto_idx], np.empty((0, 0)))[0])
        return est, 0.0
    point_sets = _qmc_points(d - 1, cfg.samples, cfg.randomizations, cfg.seed)
    estimates = np.array(
        [float(_genz_batch(shifts, scales, chol, upper[sto_idx], pts)[0]) for pts in point_sets]
    )
    err = float(np.std(estimates, ddof=1) / np.sqrt(cfg.randomizations))
    return float(np.mean(estimates)), err


def targets_for_gamma(spec: SliceSpec, gamma: float, stat_mode: str = "per_user") -> DemandBox:
    """Demand target box mu + gamma * sigma.

    ``per_user`` uses the per-user statistics (the literal target definition);
    ``aggregate`` uses the compound-mixture moments, which keeps gamma on a
    scale independent of the expected user count.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if stat_mode == "per_user":
        mu = spec.user_model.mean
        sd = spec.user_model.std
    elif stat_mode == "aggregate":
        mu, var = aggregate_moments(spec)
        sd = np.sqrt(var)
    else:
        raise ValueError(f"unknown stat_mode {stat_mode!r}")
    return DemandBox(mu + gamma * sd)


def psp_of_box(spec: SliceSpec, box: DemandBox, cfg: QmcConfig):
    """Probability that the aggregate demand of the slice falls inside the box:
    sum_k p_k Pr{Normal(k mu, k^2 Gamma) <= upper}, the k = 0 term counting as
    p_0 (an empty user set is always satisfied).

    Returns (estimate, error_estimate).
    """
    upper = box.upper
    mu = spec.user_model.mean
    cov = spec.user_model.covariance
    if upper.size != mu.size:
        raise ValueError("box dimension does not match the slice demand model")
    probs = spec.user_count.probs
    ks = np.flatnonzero(probs > _PMF_CUTOFF)
    est = probs[0] if 0 in ks else 0.0
    ks = ks[ks >= 1]
    if ks.size == 0:
        return float(est), 0.0

    det_idx, sto_idx = _split_deterministic(cov)
    # Deterministic components: the k-user demand is exactly k * mu there.
    if det_idx.size:
        ok = np.all(
            ks[:, None] * mu[det_idx][None, :] <= upper[det_idx][None, :] + _DET_SLACK,
            axis=1,
        )
        ks = ks[ok]
        if ks.size == 0:
            return float(est), 0.0

    weights = probs[ks]
    scales = ks.astype(float)
    shifts = ks[:, None] * mu[sto_idx][None, :]
    if sto_idx.size == 0:
        return float(est + weights.sum()), 0.0
    chol = _cholesky_psd(cov[np.ix_(sto_idx, sto_idx)])
    d = sto_idx.size
    if d == 1:
        terms = _genz_batch(shifts, scales, chol, upper[sto_idx], np.empty((0, 0)))
        return float(est + weights @ terms), 0.0
    point_sets = _qmc_points(d - 1, cfg.samples, cfg.randomizations, cfg.seed)
    per_rand = np.array(
        [weights @ _genz_batch(shifts, scales, chol, upper[sto_idx], pts) for pts in point_sets]
    )
    err = float(np.std(per_rand, ddof=1) / np.sqrt(cfg.randomizations))
    return float(est + np.mean(per_rand)), err


def find_gamma_s(
    spec: SliceSpec,
    cfg: QmcConfig,
    gamma_tolerance: float = 1e-3,
    stat_mode: str = "per_user",
) -> float:
    """Smallest margin gamma (within tolerance) whose target box reaches the
    slice's required PSP, found by dichotomy on the monotone PSP curve.

    The bracket search doubles the upper end from 1 (cap 2^20).  Bisection runs
    on a reduced-cost QMC configuration and the root is re-verified (and nudged
    if needed) at the full configuration; sample counts are increased when the
    bracket stalls inside the QMC noise band.
    """
    target = spec.required_psp
    coarse = replace(
        cfg,
        samples=max(1024, cfg.samples // 8),
        randomizations=max(4, cfg.randomizations // 2),
    )
    boost = {"factor": 1}
    cache = {}

    def psp(gamma: float, use_cfg: QmcConfig):
        key = (round(gamma, 12), use_cfg.samples, use_cfg.randomizations)
        if key not in cache:
            box = targets_for_gamma(spec, gamma, stat_mode)
            cache[key] = psp_of_box(spec, box, use_cfg)
        return cache[key]

    def coarse_cfg():
        if boost["factor"] == 1:
            return coarse
        return replace(coarse, samples=min(4 * cfg.samples, coarse.samples * boost["factor"]))

    value, _ = psp(0.0, coarse_cfg())
    if value >= target:
        lo, hi = 0.0, 0.0
    else:
        hi = 1.0
        while True:
            value, _ = psp(hi, coarse_cfg())
            if value >= target:
                break
            hi *= 2.0
            if hi > 2**20:
                raise CalibrationError(
                    f"required PSP {target} unreachable within gamma <= 2^20 "
                    f"for slice {spec.id!r}"
                )
        lo = hi / 2.0 if hi > 1.0 else 0.0

    while hi - lo > gamma_tolerance:
        mid = 0.5 * (lo + hi)
        value, err = psp(mid, coarse_cfg())
        if abs(value - target) < 3.0 * err and boost["factor"] < 32:
            boost["factor"] *= 4
            continue
        if value >= target:
            hi = mid
        else:
            lo = mid

    gamma = hi
    # Confirm at the full configuration; walk in tolerance steps if the coarse
    # root sits marginally on the wrong side.
    value, _ = psp(gamma, cfg)
    if value < target:
        for _ in range(64):
            gamma += gamma_tolerance
            value, _ = psp(gamma, cfg)
            if value >= target:
                break
        else:
            raise CalibrationError(
                f"QMC refinement failed to reach PSP {target} for slice {spec.id!r}"
            )
    else:
        for _ in range(16):
            if gamma - gamma_tolerance < 0.0:
                break
            value, _ = psp(gamma - gamma_tolerance, cfg)
            if value < target:
                break
            gamma -= gamma_tolerance
    return gamma


def gamma_b(max_impact: float) -> float:
    """Impact margin matching a tolerated impact probability: Phi^-1(1 - p)."""
    if not 0.0 < max_impact < 1.0:
        raise ValueError("max_impact must lie strictly in (0, 1)")
    return float(ndtri(1.0 - max_impact))


def background_targets(model: BackgroundModel, gamma_b_value: float):
    """Reserve levels mu_B + gamma_B * sigma_B for every node resource and link.

    Returns (node_reserves, link_reserves): node id -> ResourceVector and
    link key -> float.
    """
    if gamma_b_value < 0:
        raise ValueError("gamma_b must be nonnegative")
    node_reserves = {}
    for node_id, mu in model.node_mean.items():
        sd = model.node_std[node_id]
        node_reserves[node_id] = ResourceVector(
            mu.compute + gamma_b_value * sd.compute,
            mu.memory + gamma_b_value * sd.memory,
            mu.wireless + gamma_b_value * sd.wireless,
        )
    link_reserves = {
        key: model.link_mean[key] + gamma_b_value * model.link_std[key]
        for key in model.link_mean
    }
    return node_reserves, link_reserves


def _tail_probability(capacity: float, provisioned: float, mu: float, sigma: float) -> float:
    if sigma > 0.0:
        return float(1.0 - ndtr((capacity - provisioned - mu) / sigma))
    return 1.0 if provisioned > capacity - mu + _DET_SLACK else 0.0


def plan_impact_probabilities(plan, graph: InfrastructureGraph, model: BackgroundModel):
    """Per-node/type and per-link probabilities that the provisioning intrudes
    on the background load: 1 - Phi((a - provisioned - mu_B) / sigma_B).

    ``plan`` must expose ``provisioned_node`` ((node id, type) -> amount) and
    ``provisioned_link`` (link key -> amount) mappings.  Returns
    (node_probs, link_probs) keyed the same way.
    """
    prov_node = getattr(plan, "provisioned_node", plan)
    prov_link = getattr(plan, "provisioned_link", None)
    if prov_link is None:
        prov_node, prov_link = plan
    node_probs = {}
    for node_id, node in graph.nodes.items():
        mu = model.node_mean[node_id]
        sd = model.node_std[node_id]
        for rtype in RESOURCE_TYPES:
            node_probs[(node_id, rtype)] = _tail_probability(
                node.capacity.get(rtype),
                prov_node.get((node_id, rtype), 0.0),
                mu.get(rtype),
                sd.get(rtype),
            )
    link_probs = {}
    for key, link in graph.links.items():
        link_probs[key] = _tail_probability(
            link.bandwidth,
            prov_link.get(key, 0.0),
            model.link_mean[key],
            model.link_std[key],
        )
    return node_probs, link_probs


@dataclass(frozen=True)
class PspEstimate:
    qmc: float
    qmc_error: float
    mc: float
    mc_error: float


def plan_psp(
    spec: SliceSpec,
    box: DemandBox,
    cfg: QmcConfig,
    mc_trials: int = 10_000,
    seed: int = 0,
) -> PspEstimate:
    """Post-hoc PSP of provisioned totals: QMC mixture estimate plus a plain
    Monte Carlo cross-check over sampled aggregate demands."""
    qmc_est, qmc_err = psp_of_box(spec, box, cfg)
    draws = sample_aggregate(spec, seed, size=mc_trials)
    hits = np.all(draws <= box.upper[None, :] + _DET_SLACK, axis=1)
    mc_est = float(np.mean(hits))
    mc_err = float(np.sqrt(max(mc_est * (1.0 - mc_est), 1e-12) / mc_trials))
    return PspEstimate(qmc_est, qmc_err, mc_est, mc_err)
