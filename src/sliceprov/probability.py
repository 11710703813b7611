"""Normal CDF machinery, box probabilities for the compound demand mixture
(exact for independent components, quasi-Monte Carlo for correlated ones),
robustness-margin calibration, and post-hoc plan evaluation."""

from __future__ import annotations

import copy
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache

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
# Absolute accuracy of a calibrated margin.
_GAMMA_TOLERANCE = 1e-3


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

    def __post_init__(self):
        if self.samples < 1024:
            raise ValueError("samples must be >= 1024")
        if self.randomizations < 2:
            raise ValueError("randomizations must be >= 2")


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


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


# The QMC randomizations run as tasks on one thread per CPU.  The heavy
# ufuncs (ndtr, ndtri and the elementwise arithmetic) release the GIL, so the
# threads run them in parallel.  With a single CPU the tasks run inline.
_WORKERS = _cpu_count()


def _new_pool():
    if _WORKERS == 1:
        return None
    return ThreadPoolExecutor(max_workers=_WORKERS, thread_name_prefix="sliceprov-qmc")


def _rebuild_pool_in_child():
    # A forked child inherits the pool's record of the parent's worker threads
    # but none of the threads, so tasks submitted to it would never run.
    global _POOL
    _POOL = _new_pool()


_POOL = _new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_rebuild_pool_in_child)

# Points are drawn and conditioned in chunks of about _CHUNK_VALUES normal
# quantiles (512 KiB).  When one randomization needs fewer, a task conditions
# several randomizations together, as rows of its arrays, so that small
# problems still make few, large ufunc calls.
_CHUNK_VALUES = 2**16
# Sobol points are drawn about _DRAW_VALUES coordinates (128 KiB) at a time.
_DRAW_VALUES = 2**14


@lru_cache(maxsize=256)
def _sobol_engine(dim: int, seed, r: int) -> qmc.Sobol:
    """Scrambled Sobol engine of randomization ``r``, seeded from (seed, r).

    The cached engine is never drawn from: callers draw from a copy, so a
    point set depends only on (dim, seed, r).
    """
    return qmc.Sobol(d=dim, scramble=True, seed=np.random.default_rng([seed, r]))


def _pow2_floor(n: int) -> int:
    return 1 << (max(1, n).bit_length() - 1)


def _task_plan(batch: int, d: int, samples: int, rands: int):
    """(groups, chunk): the randomizations of each task, in order, and the
    points per chunk.

    A chunk holds about _CHUNK_VALUES normal quantiles.  A randomization that
    fills less than one chunk shares its task with as many others as fit,
    spread over a multiple of the worker count of tasks.
    """
    cells = max(1, _CHUNK_VALUES // (d - 1))  # rows x points per chunk
    if batch * samples >= cells:
        chunk = min(samples, max(64, _pow2_floor(cells // batch)))
        return [range(r, r + 1) for r in range(rands)], chunk
    fit = cells // (batch * samples)
    tasks = min(rands, _WORKERS * -(-rands // (_WORKERS * fit)))
    return [range(k * rands // tasks, (k + 1) * rands // tasks) for k in range(tasks)], samples


def _work_values(group: int, batch: int, d: int, samples: int, chunk: int) -> int:
    """float64 values of the work array ``_genz_group`` needs."""
    return group * (batch * (samples + (d + 1) * chunk) + (d - 1) * chunk)


def _genz_group(b: np.ndarray, chol: np.ndarray, samples: int, seed, rands: range,
                chunk: int, work: np.ndarray) -> np.ndarray:
    """Per-batch-member means of the Genz integrand over the ``samples`` points
    of each randomization in ``rands``; ``b`` holds the standardized box
    corners (batch, d).  Returns a (len(rands), batch) array.

    Points are drawn and conditioned ``chunk`` at a time in views of ``work``;
    the integrand products fill one (group, batch, samples) array, whose row
    means are the estimates.  The estimates do not depend on the chunk or the
    grouping, bit for bit: each value goes through the same elementwise
    operations, the dot product over the conditioned coordinates runs along
    the last axis of ``y`` (einsum sums in another order when that axis comes
    first), and each mean runs over one contiguous row of ``samples``.
    """
    group = len(rands)
    batch, d = b.shape
    rows = group * batch
    prod = work[: rows * samples].reshape(group, batch, samples)
    scratch = work[rows * samples:]
    engines = [copy.deepcopy(_sobol_engine(d - 1, seed, r)) for r in rands]
    # Small draws keep the arrays the engine allocates in this thread small.
    draw = _pow2_floor(_DRAW_VALUES // (d - 1))
    e_first = ndtr(b[:, 0] / chol[0, 0])[:, None]
    for start in range(0, samples, chunk):
        m = min(chunk, samples - start)
        cells = rows * m
        y = scratch[: cells * (d - 1)].reshape(group, batch, m, d - 1)
        e_vals = scratch[cells * (d - 1): cells * d].reshape(group, batch, m)
        partial = scratch[cells * d: cells * (d + 1)].reshape(group, batch, m)
        points = scratch[cells * (d + 1): cells * (d + 1) + group * (d - 1) * m]
        points = points.reshape(group, d - 1, m)
        for g, engine in enumerate(engines):
            for lo in range(0, m, draw):
                hi = min(m, lo + draw)
                points[g, :, lo:hi] = engine.random(hi - lo).T
        block = prod[:, :, start: start + m]
        block[...] = e_first
        e_vals[...] = e_first
        for i in range(1, d):
            np.multiply(points[:, None, i - 1], e_vals, out=e_vals)
            np.clip(e_vals, *_U_CLIP, out=e_vals)
            ndtri(e_vals, out=y[..., i - 1])
            np.einsum("j,gbnj->gbn", chol[i, :i], y[..., :i], out=partial)
            np.subtract(b[:, i, None], partial, out=partial)
            np.divide(partial, chol[i, i], out=partial)
            ndtr(partial, out=e_vals)
            block *= e_vals
    return prod.mean(axis=2)


def _genz_estimates(shifts: np.ndarray, scales: np.ndarray, chol: np.ndarray,
                    upper: np.ndarray, cfg: QmcConfig) -> list:
    """Genz sequential-conditioning estimates of Pr{X <= upper} for a batch of
    Gaussians X_j ~ Normal(shifts[j], scales[j]^2 * L L^T).

    When the Cholesky factor L is diagonal (independent components, which
    includes d == 1), every conditioning term is Phi(b_i / L_ii) whatever the
    point, so the probability is the product of the d normal CDFs: a single
    exact (batch,) array is returned, its factors multiplied in the order the
    kernel multiplies them, and nothing is sampled.  Otherwise returns one
    (batch,) array per randomization, in randomization order; the
    randomizations run on the module's thread pool and the result does not
    depend on the thread count.
    """
    b = (upper[None, :] - shifts) / scales[:, None]  # (batch, d)
    batch, d = b.shape
    if not np.tril(chol, -1).any():
        phi = ndtr(b / np.diag(chol))
        exact = phi[:, 0]
        for i in range(1, d):
            exact = exact * phi[:, i]
        return [exact]
    samples = cfg.samples
    groups, chunk = _task_plan(batch, d, samples, cfg.randomizations)
    size = _work_values(max(len(g) for g in groups), batch, d, samples, chunk)
    # The caller allocates one work array per task that can run at a time and
    # each task borrows one, so the memory is the caller's to reuse once the
    # call returns rather than kept by the worker threads.
    work = queue.SimpleQueue()
    for _ in range(1 if _POOL is None else min(_WORKERS, len(groups))):
        work.put(np.empty(size))

    def task(group_rands):
        buf = work.get()
        try:
            return _genz_group(b, chol, samples, cfg.seed, group_rands, chunk, buf)
        finally:
            work.put(buf)

    if _POOL is None:
        means = [task(g) for g in groups]
    else:
        means = list(_POOL.map(task, groups))
    return [row for group_means in means for row in group_means]


def _mixture_box_probability(mu, cov, probs, upper, cfg: QmcConfig):
    """sum_k probs[k] Pr{Normal(k mu, k^2 cov) <= upper}, the k = 0 term
    counting as probs[0]; returns (estimate, error_estimate)."""
    if upper.size != mu.size or cov.shape != (mu.size, mu.size):
        raise ValueError("dimension mismatch between mean, covariance, and box")
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
    terms = _genz_estimates(shifts, scales, chol, upper[sto_idx], cfg)
    if len(terms) == 1:
        return float(est + weights @ terms[0]), 0.0
    per_rand = np.array([weights @ t for t in terms])
    err = float(np.std(per_rand, ddof=1) / np.sqrt(cfg.randomizations))
    return float(est + np.mean(per_rand)), err


def mvn_box_probability(mean, cov, box: DemandBox, cfg: QmcConfig):
    """Estimate Pr{X <= box.upper} for X ~ Normal(mean, cov): the mixture of
    :func:`psp_of_box` with exactly one user.

    Independent components (a diagonal covariance over the stochastic ones)
    give the exact product of normal CDFs, with error 0.0.  Otherwise uses
    the Genz transform (Cholesky plus sequential conditioning onto the unit
    cube) with randomized scrambled-Sobol rules.  Returns (estimate,
    error_estimate) where the error is the standard error over randomizations.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    return _mixture_box_probability(mean, cov, np.array([0.0, 1.0]), box.upper, cfg)


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

    With independent demand components each mixture term is an exact product
    of normal CDFs and the error is 0.0; with correlated ones each term is
    estimated by randomized QMC and the error is the standard error over
    randomizations.  Returns (estimate, error_estimate).
    """
    model = spec.user_model
    return _mixture_box_probability(model.mean, model.covariance, spec.user_count.probs,
                                    box.upper, cfg)


def find_gamma_s(spec: SliceSpec, cfg: QmcConfig, stat_mode: str = "per_user") -> float:
    """Smallest margin gamma (within _GAMMA_TOLERANCE) whose target box
    reaches the slice's required PSP, found by dichotomy on the monotone PSP
    curve.

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

    while hi - lo > _GAMMA_TOLERANCE:
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
            gamma += _GAMMA_TOLERANCE
            value, _ = psp(gamma, cfg)
            if value >= target:
                break
        else:
            raise CalibrationError(
                f"QMC refinement failed to reach PSP {target} for slice {spec.id!r}"
            )
    else:
        for _ in range(16):
            if gamma - _GAMMA_TOLERANCE < 0.0:
                break
            value, _ = psp(gamma - _GAMMA_TOLERANCE, cfg)
            if value < target:
                break
            gamma -= _GAMMA_TOLERANCE
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
    prov_node = plan.provisioned_node
    prov_link = plan.provisioned_link
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
