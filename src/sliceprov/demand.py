"""Slice demand models: SFC graphs, per-user stochastic demand, user-count pmf,
aggregate (compound) demand, and background best-effort load."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats
from scipy.special import ndtri

from .topology import InfrastructureGraph, ResourceVector

PSD_TOLERANCE = 1e-10
PMF_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Vnf:
    name: str
    requirement: ResourceVector  # fixed per-instance (c, m, w) amounts


@dataclass(frozen=True)
class VLink:
    src: str
    dst: str
    bandwidth: float  # fixed per-instance Gbps

    def __post_init__(self):
        if self.bandwidth < 0:
            raise ValueError("bandwidth must be nonnegative")


@dataclass(frozen=True)
class SfcGraph:
    """Service function chain: ordered VNFs and directed virtual links."""

    vnfs: tuple
    vlinks: tuple

    def __post_init__(self):
        names = [v.name for v in self.vnfs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate VNF names")
        for vl in self.vlinks:
            if vl.src not in names or vl.dst not in names:
                raise ValueError(f"virtual link {vl.src}->{vl.dst} has unknown endpoint")

    def vnf(self, name: str) -> Vnf:
        for v in self.vnfs:
            if v.name == name:
                return v
        raise KeyError(name)

    def vlink(self, key) -> VLink:
        """The virtual link with (src, dst) == ``key``."""
        for vl in self.vlinks:
            if (vl.src, vl.dst) == key:
                return vl
        raise KeyError(key)

    def component_labels(self) -> list:
        """Fixed component ordering: (c, m, w) per VNF in order, then vlinks in order."""
        labels = []
        for v in self.vnfs:
            labels.extend([(v.name, "c"), (v.name, "m"), (v.name, "w")])
        for vl in self.vlinks:
            labels.append((vl.src, vl.dst, "b"))
        return labels

    @property
    def dimension(self) -> int:
        return 3 * len(self.vnfs) + len(self.vlinks)


@dataclass(frozen=True)
class UserDemandModel:
    """Multivariate normal per-user demand over the SFC component ordering."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape does not match mean dimension")
        if not np.allclose(cov, cov.T, atol=1e-12, rtol=0.0):
            raise ValueError("covariance must be symmetric")
        eigvals = np.linalg.eigvalsh(cov)
        if eigvals.min(initial=0.0) < -PSD_TOLERANCE * max(1.0, eigvals.max(initial=1.0)):
            raise ValueError("covariance must be positive semidefinite")

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))


@dataclass(frozen=True)
class UserCountPmf:
    """Finite pmf (p_0 ... p_m) of the number of slice users."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or probs.size < 2:
            raise ValueError("pmf needs at least p_0 and p_1 entries (m >= 1)")
        if probs.min() < 0:
            raise ValueError("pmf entries must be nonnegative")
        if abs(probs.sum() - 1.0) > PMF_TOLERANCE:
            raise ValueError("pmf must sum to 1 within 1e-12")

    @property
    def max_users(self) -> int:
        return self.probs.size - 1

    def moment(self, order: int) -> float:
        k = np.arange(self.probs.size, dtype=float)
        return float(np.sum(self.probs * k**order))

    @staticmethod
    def binomial(n: int, p: float) -> "UserCountPmf":
        probs = stats.binom.pmf(np.arange(n + 1), n, p)
        return UserCountPmf(probs / probs.sum())

    @staticmethod
    def deterministic(n: int) -> "UserCountPmf":
        probs = np.zeros(max(n, 1) + 1)
        probs[n] = 1.0
        return UserCountPmf(probs)


@dataclass(frozen=True)
class SliceSpec:
    id: str
    sfc: SfcGraph
    user_model: UserDemandModel
    user_count: UserCountPmf
    income: float
    required_psp: float

    def __post_init__(self):
        if not 0.0 < self.required_psp < 1.0:
            raise ValueError("required_psp must lie strictly in (0, 1)")
        if self.income < 0:
            raise ValueError("income must be nonnegative")
        if self.user_model.mean.size != self.sfc.dimension:
            raise ValueError("user model dimension does not match SFC component count")

    def fingerprint(self) -> tuple:
        """Hashable content key, used for calibration caching."""
        return (
            tuple(self.sfc.component_labels()),
            self.user_model.mean.tobytes(),
            self.user_model.covariance.tobytes(),
            self.user_count.probs.tobytes(),
            self.required_psp,
        )


@dataclass(frozen=True)
class BackgroundModel:
    """Independent Gaussian load per node resource and per link.

    node_mean / node_std map node id -> ResourceVector; link_mean / link_std map
    (src, dst) -> Gbps.
    """

    node_mean: dict
    node_std: dict
    link_mean: dict
    link_std: dict

    def __post_init__(self):
        for d in (self.node_mean, self.node_std):
            for rv in d.values():
                if min(rv.as_tuple()) < 0:
                    raise ValueError("background node parameters must be nonnegative")
        for d in (self.link_mean, self.link_std):
            for x in d.values():
                if x < 0:
                    raise ValueError("background link parameters must be nonnegative")

    @staticmethod
    def from_graph(
        graph: InfrastructureGraph, mean_frac: float = 0.2, std_frac: float = 0.05
    ) -> "BackgroundModel":
        """Background load as a fraction of available capacity at every node and link."""
        node_mean, node_std = {}, {}
        for node_id, node in graph.nodes.items():
            c, m, w = node.capacity.as_tuple()
            node_mean[node_id] = ResourceVector(mean_frac * c, mean_frac * m, mean_frac * w)
            node_std[node_id] = ResourceVector(std_frac * c, std_frac * m, std_frac * w)
        link_mean = {key: mean_frac * link.bandwidth for key, link in graph.links.items()}
        link_std = {key: std_frac * link.bandwidth for key, link in graph.links.items()}
        return BackgroundModel(node_mean, node_std, link_mean, link_std)

    @staticmethod
    def zero(graph: InfrastructureGraph) -> "BackgroundModel":
        return BackgroundModel.from_graph(graph, 0.0, 0.0)


def aggregate_moments(spec: SliceSpec):
    """Componentwise mean and variance of the aggregate demand mixture
    sum_k p_k Normal(k mu, k^2 Gamma).

    Returns (mean, variance) arrays over the SFC component ordering.
    """
    mu = spec.user_model.mean
    var = np.clip(np.diag(spec.user_model.covariance), 0.0, None)
    e_n = spec.user_count.moment(1)
    e_n2 = spec.user_count.moment(2)
    var_n = e_n2 - e_n**2
    return e_n * mu, e_n2 * var + var_n * mu**2


def _standard_normals(rng: np.random.Generator, shape) -> np.ndarray:
    # Inverse-CDF sampling keeps the draw algorithm explicit and reproducible.
    u = rng.random(shape)
    u = np.clip(u, 1e-16, 1.0 - 1e-16)
    return ndtri(u)


def sample_aggregate(
    spec: SliceSpec,
    seed,
    size: int = 1,
    clamp: bool = True,
) -> np.ndarray:
    """Draw aggregate demand vectors: k from the pmf, then Normal(k mu, k^2 Gamma).

    Negative coordinates are clamped to zero (demands are physical); pass
    ``clamp=False`` for the raw Gaussian draws.  Returns shape (size, dim).
    """
    rng = np.random.default_rng(seed)
    dim = spec.user_model.mean.size
    counts = rng.choice(spec.user_count.probs.size, size=size, p=spec.user_count.probs)
    cov = spec.user_model.covariance
    # Factor the covariance once; zero-variance components contribute nothing.
    eigvals, eigvecs = np.linalg.eigh(cov)
    root = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    z = _standard_normals(rng, (size, dim))
    # The k-user component has covariance k^2 Gamma, so its draws scale by k.
    scale = counts.astype(float)
    out = counts[:, None] * spec.user_model.mean[None, :] + scale[:, None] * (z @ root.T)
    if clamp:
        np.clip(out, 0.0, None, out=out)
    return out


def sample_background(model: BackgroundModel, seed, size: int = 1):
    """Draw background load vectors; returns (node_loads, link_loads) where
    node_loads has shape (size, |N|, 3) and link_loads (size, |E|), both in the
    iteration order of the model dicts.  Negative draws are clamped to zero."""
    rng = np.random.default_rng(seed)
    node_ids = list(model.node_mean)
    link_keys = list(model.link_mean)
    node_mu = np.array([model.node_mean[i].as_tuple() for i in node_ids], dtype=float)
    node_sd = np.array([model.node_std[i].as_tuple() for i in node_ids], dtype=float)
    link_mu = np.array([model.link_mean[k] for k in link_keys], dtype=float)
    link_sd = np.array([model.link_std[k] for k in link_keys], dtype=float)
    node_mu = node_mu.reshape(1, -1, 3)
    node_sd = node_sd.reshape(1, -1, 3)
    nodes = node_mu + node_sd * _standard_normals(rng, (size,) + node_mu.shape[1:])
    links = link_mu[None, :] + link_sd[None, :] * _standard_normals(rng, (size, link_mu.size))
    np.clip(nodes, 0.0, None, out=nodes)
    np.clip(links, 0.0, None, out=links)
    return nodes, links


def _chain(vnf_table, link_table, correlation: float):
    """Assemble an SfcGraph plus demand model from per-VNF and per-link rows."""
    vnfs = tuple(Vnf(name, ResourceVector(*req)) for name, _, req in vnf_table)
    vlinks = tuple(VLink(src, dst, r_b) for src, dst, _, r_b in link_table)
    sfc = SfcGraph(vnfs, vlinks)
    mean, std = [], []
    for _, (mu_c, sd_c, mu_m, sd_m, mu_w, sd_w), _ in vnf_table:
        mean.extend([mu_c, mu_m, mu_w])
        std.extend([sd_c, sd_m, sd_w])
    for _, _, (mu_b, sd_b), _ in link_table:
        mean.append(mu_b)
        std.append(sd_b)
    mean = np.array(mean)
    std = np.array(std)
    cov = np.diag(std**2)
    if correlation:
        # Correlate compute and memory demand within each VNF.
        for idx in range(len(vnfs)):
            c_i, m_i = 3 * idx, 3 * idx + 1
            cov[c_i, m_i] = cov[m_i, c_i] = correlation * std[c_i] * std[m_i]
    return sfc, UserDemandModel(mean, cov)


def slice_catalog(correlation: float = 0.0) -> tuple:
    """The three built-in slice types (HD video, SD video, video surveillance).

    ``correlation`` optionally applies a same-VNF compute/memory correlation
    coefficient; the default diagonal covariance transcribes the evaluation
    table as given.
    """
    type1_vnfs = [
        ("vVOC", (5.4e-3, 0.54e-3, 1.5e-2, 0.15e-2, 0.0, 0.0), (0.29, 0.81, 0.0)),
        ("vGW", (9.0e-4, 0.90e-4, 5.0e-4, 0.50e-4, 0.0, 0.0), (0.05, 0.03, 0.0)),
        ("vBBU", (8.0e-4, 0.80e-4, 5.0e-4, 0.50e-4, 4e-3, 0.4e-3), (0.04, 0.03, 0.2)),
    ]
    type1_links = [
        ("vVOC", "vGW", (4e-3, 0.4e-3), 0.22),
        ("vGW", "vBBU", (4e-3, 0.4e-3), 0.22),
    ]
    sfc1, model1 = _chain(type1_vnfs, type1_links, correlation)
    type1 = SliceSpec(
        id="type1",
        sfc=sfc1,
        user_model=model1,
        user_count=UserCountPmf.binomial(300, 0.9),
        income=900.0,
        required_psp=0.99,
    )

    type2_vnfs = [
        ("vVOC", (1.1e-3, 0.11e-3, 7.5e-3, 0.75e-3, 0.0, 0.0), (0.17, 1.20, 0.0)),
        ("vGW", (1.8e-4, 0.18e-4, 2.5e-4, 0.25e-4, 0.0, 0.0), (0.03, 0.04, 0.0)),
        ("vBBU", (0.8e-4, 0.08e-4, 2.5e-4, 0.25e-4, 2e-3, 0.2e-3), (0.01, 0.04, 0.3)),
    ]
    type2_links = [
        ("vVOC", "vGW", (2e-3, 0.2e-3), 0.32),
        ("vGW", "vBBU", (2e-3, 0.2e-3), 0.32),
    ]
    sfc2, model2 = _chain(type2_vnfs, type2_links, correlation)
    type2 = SliceSpec(
        id="type2",
        sfc=sfc2,
        user_model=model2,
        user_count=UserCountPmf.binomial(1000, 0.8),
        income=1000.0,
        required_psp=0.95,
    )

    # Type 3 user count: the parameter table header gives N_s = 50 (the prose
    # mentions 100 cameras); the table value is used here.
    type3_vnfs = [
        ("vBBU", (2.0e-4, 0.20e-4, 1.3e-4, 0.13e-4, 1e-3, 0.1e-3), (0.004, 0.0025, 0.02)),
        ("vGW", (9.0e-4, 0.90e-4, 1.3e-4, 0.13e-4, 0.0, 0.0), (0.018, 0.003, 0.0)),
        ("vTM", (1.1e-3, 0.11e-3, 1.3e-4, 0.13e-4, 0.0, 0.0), (0.266, 0.003, 0.0)),
        ("vVOC", (5.4e-3, 0.54e-3, 3.8e-3, 0.38e-3, 0.0, 0.0), (0.108, 0.080, 0.0)),
        ("vIDPS", (1.1e-2, 0.11e-2, 1.3e-4, 0.13e-4, 0.0, 0.0), (0.214, 0.003, 0.0)),
    ]
    type3_links = [
        ("vBBU", "vGW", (1e-3, 0.1e-3), 0.02),
        ("vGW", "vTM", (1e-3, 0.1e-3), 0.02),
        ("vTM", "vVOC", (1e-3, 0.1e-3), 0.02),
        ("vVOC", "vIDPS", (1e-3, 0.1e-3), 0.02),
    ]
    sfc3, model3 = _chain(type3_vnfs, type3_links, correlation)
    type3 = SliceSpec(
        id="type3",
        sfc=sfc3,
        user_model=model3,
        user_count=UserCountPmf.deterministic(50),
        income=800.0,
        required_psp=0.9,
    )

    return type1, type2, type3
