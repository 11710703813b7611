"""Slice demand models: SFC graphs, per-user stochastic demand, user-count pmf,
aggregate (compound) demand, and background best-effort load."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats
from scipy.special import ndtri

from .topology import RESOURCE_TYPES, InfrastructureGraph, ResourceVector

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


# Uniforms are clipped to [U_CLIP, 1 - U_CLIP] before the inverse normal CDF,
# so no standard normal draw exceeds Z_MAX (about 8.2095).
U_CLIP = 1e-16
Z_MAX = float(ndtri(1.0 - U_CLIP))

# Rows of uniforms that sample_background draws at a time.
BACKGROUND_BLOCK_ROWS = 2048


def _to_normals(u: np.ndarray) -> np.ndarray:
    return ndtri(np.clip(u, U_CLIP, 1.0 - U_CLIP))


def _standard_normals(rng: np.random.Generator, shape) -> np.ndarray:
    # Inverse-CDF sampling keeps the draw algorithm explicit and reproducible.
    return _to_normals(rng.random(shape))


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


def _background_params(model: BackgroundModel, keys) -> list:
    """(part, column, mean, std) of each key, a (node id, resource type) or a
    link key.  Part 0 is the node uniforms, 3 columns per node in the model's
    node order; part 1 the link uniforms, one column per link in its link
    order."""
    node_pos = {node_id: 3 * i for i, node_id in enumerate(model.node_mean)}
    link_pos = {key: j for j, key in enumerate(model.link_mean)}
    params = []
    for key in keys:
        if key in link_pos:
            if key[0] in node_pos and key[1] in RESOURCE_TYPES:
                raise ValueError(f"{key!r} names both a link and a node resource")
            params.append((1, link_pos[key], model.link_mean[key], model.link_std[key]))
        else:
            node_id, rtype = key
            params.append((
                0,
                node_pos[node_id] + RESOURCE_TYPES.index(rtype),
                model.node_mean[node_id].get(rtype),
                model.node_std[node_id].get(rtype),
            ))
    return params


def background_peaks(model: BackgroundModel, keys) -> np.ndarray:
    """An upper bound on every load ``sample_background`` can draw for each
    key: mean + std * Z_MAX clamped at zero, with Z_MAX widened by 1e-6 to
    cover the rounding of the inverse normal CDF."""
    params = _background_params(model, keys)
    mean = np.array([p[2] for p in params], dtype=float)
    std = np.array([p[3] for p in params], dtype=float)
    return np.maximum(mean + std * (Z_MAX + 1e-6), 0.0)


def sample_background(model: BackgroundModel, seed, size: int = 1, *, keys) -> np.ndarray:
    """Draw the background loads of ``keys``, each a (node id, resource type)
    or a link key; returns shape (size, len(keys)).

    The uniforms are drawn as if by one (size, |N|, 3) draw over the model's
    nodes and then one (size, |E|) draw over its links, in blocks of
    ``BACKGROUND_BLOCK_ROWS`` rows, and only the requested columns go through
    the inverse normal CDF.  So a key's loads do not depend on which other keys
    are requested, and beyond the result memory does not grow with ``size``.
    Negative draws are clamped to zero."""
    params = _background_params(model, keys)
    widths = (3 * len(model.node_mean), len(model.link_mean))
    rng = np.random.default_rng(seed)
    out = np.empty((size, len(keys)))
    # No uniform after the last requested part is drawn.
    last = max((p[0] for p in params), default=-1)
    for part, width in enumerate(widths[: last + 1]):
        dest = [i for i, p in enumerate(params) if p[0] == part]
        source = np.array([params[i][1] for i in dest], dtype=np.intp)
        mean = np.array([params[i][2] for i in dest], dtype=float)
        std = np.array([params[i][3] for i in dest], dtype=float)
        for start in range(0, size, BACKGROUND_BLOCK_ROWS):
            stop = min(start + BACKGROUND_BLOCK_ROWS, size)
            u = rng.random((stop - start, width))
            if dest:
                loads = mean + std * _to_normals(u[:, source])
                out[start:stop, dest] = np.clip(loads, 0.0, None)
    return out


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
