import numpy as np
import pytest
from scipy.special import ndtri

from sliceprov.demand import (
    BACKGROUND_BLOCK_ROWS,
    U_CLIP,
    Z_MAX,
    BackgroundModel,
    SfcGraph,
    SliceSpec,
    UserCountPmf,
    UserDemandModel,
    Vnf,
    aggregate_moments,
    background_peaks,
    sample_aggregate,
    sample_background,
    slice_catalog,
)
from sliceprov.topology import RESOURCE_TYPES, ResourceVector, build_fat_tree

from _helpers import micro_spec, reference_sample_background

CAPS = {
    "central": ResourceVector(16.0, 32.0, 0.0),
    "regional": ResourceVector(8.0, 16.0, 0.0),
    "edge": ResourceVector(4.0, 12.0, 0.0),
    "rrh": ResourceVector(1.0, 2.0, 2.0),
}
BWS = {"central-regional": 10.0, "regional-edge": 5.0, "edge-rrh": 2.5}


def test_catalog_structure():
    type1, type2, type3 = slice_catalog()
    assert (type1.id, type2.id, type3.id) == ("type1", "type2", "type3")
    assert (type1.income, type2.income, type3.income) == (900.0, 1000.0, 800.0)
    assert (type1.required_psp, type2.required_psp, type3.required_psp) == (
        0.99, 0.95, 0.9,
    )
    # 3 VNFs + 2 virtual links -> 11 demand components; 5 + 4 -> 19.
    assert type1.sfc.dimension == 11
    assert type2.sfc.dimension == 11
    assert type3.sfc.dimension == 19
    assert [v.name for v in type1.sfc.vnfs] == ["vVOC", "vGW", "vBBU"]
    assert [v.name for v in type3.sfc.vnfs] == ["vBBU", "vGW", "vTM", "vVOC", "vIDPS"]
    assert type1.user_count.probs.size == 301
    assert type2.user_count.probs.size == 1001
    assert type3.user_count.probs[50] == 1.0


def test_catalog_correlation_option():
    type1 = slice_catalog(correlation=0.5)[0]
    cov = type1.user_model.covariance
    # Compute/memory of the first VNF correlated, nothing else off-diagonal.
    assert cov[0, 1] == pytest.approx(0.5 * 0.54e-3 * 0.15e-2)
    assert cov[0, 2] == 0.0
    diag_default = np.diag(slice_catalog()[0].user_model.covariance)
    assert np.allclose(np.diag(cov), diag_default)


def test_binomial_pmf_moments():
    pmf = UserCountPmf.binomial(10, 0.5)
    assert pmf.moment(1) == pytest.approx(5.0, abs=1e-12)
    assert pmf.moment(2) == pytest.approx(27.5, abs=1e-9)
    assert pmf.moment(2) - pmf.moment(1) ** 2 == pytest.approx(2.5, abs=1e-9)


def test_deterministic_pmf():
    pmf = UserCountPmf.deterministic(3)
    assert pmf.probs[3] == 1.0
    assert pmf.moment(1) == 3.0
    assert pmf.moment(2) == 9.0


def test_pmf_validation():
    with pytest.raises(ValueError):
        UserCountPmf(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        UserCountPmf(np.array([1.0]))
    with pytest.raises(ValueError):
        UserCountPmf(np.array([-0.1, 1.1]))


def test_aggregate_moments_closed_form():
    # N ~ B(10, 0.5), mu = 2, sigma^2 = 1:
    # mean = 10, variance = E[N^2] * 1 + Var(N) * 4 = 27.5 + 10 = 37.5.
    spec = SliceSpec(
        id="scalar",
        sfc=SfcGraph(vnfs=(Vnf("v", ResourceVector(1.0, 0.0, 0.0)),), vlinks=()),
        user_model=UserDemandModel(np.array([2.0, 0.0, 0.0]), np.diag([1.0, 0.0, 0.0])),
        user_count=UserCountPmf.binomial(10, 0.5),
        income=1.0,
        required_psp=0.9,
    )
    mean, var = aggregate_moments(spec)
    assert mean[0] == pytest.approx(10.0, abs=1e-9)
    assert var[0] == pytest.approx(37.5, abs=1e-6)


def test_aggregate_moments_degenerate_cases():
    spec = micro_spec(users=1, mean_c=2.0, std_c=1.0)
    mean, var = aggregate_moments(spec)
    assert mean[0] == pytest.approx(2.0)
    assert var[0] == pytest.approx(1.0)
    zero_users = SliceSpec(
        id="empty",
        sfc=spec.sfc,
        user_model=spec.user_model,
        user_count=UserCountPmf(np.array([1.0, 0.0])),
        income=1.0,
        required_psp=0.9,
    )
    mean0, var0 = aggregate_moments(zero_users)
    assert np.allclose(mean0, 0.0)
    assert np.allclose(var0, 0.0)


def test_sample_aggregate_reproducible_and_consistent():
    spec = slice_catalog()[0]
    a = sample_aggregate(spec, seed=7, size=1000)
    b = sample_aggregate(spec, seed=7, size=1000)
    assert np.array_equal(a, b)
    c = sample_aggregate(spec, seed=8, size=1000)
    assert not np.array_equal(a, c)
    assert a.shape == (1000, 11)
    assert a.min() >= 0.0  # clamped

    big = sample_aggregate(spec, seed=0, size=200_000)
    mean, var = aggregate_moments(spec)
    rel_err = np.abs(big.mean(axis=0) - mean) / np.maximum(mean, 1e-12)
    assert rel_err.max() < 0.02


def test_sample_aggregate_mixture_count_scaling():
    # With a deterministic count, draws are Normal(k mu, k^2 Gamma).  The
    # mean sits 20 standard deviations above zero, more than Z_MAX, so no
    # draw is clamped.
    spec = micro_spec(users=4, mean_c=10.0, std_c=0.5)
    draws = sample_aggregate(spec, seed=3, size=100_000)
    assert draws[:, 0].min() > 0.0
    assert draws[:, 0].mean() == pytest.approx(40.0, abs=0.02)
    assert draws[:, 0].std() == pytest.approx(4 * 0.5, abs=0.02)
    # Components with zero variance and zero mean stay exactly zero.
    assert np.all(draws[:, 1:] == 0.0)


def test_background_model_from_graph():
    graph = build_fat_tree(2, CAPS, bandwidths=BWS)
    model = BackgroundModel.from_graph(graph, mean_frac=0.2, std_frac=0.05)
    assert model.node_mean["central"].compute == pytest.approx(0.2 * 16.0)
    assert model.node_std["rrh-0-0-0"].wireless == pytest.approx(0.05 * 2.0)
    assert model.link_mean[("central", "regional-0")] == pytest.approx(2.0)
    zero = BackgroundModel.from_graph(graph, mean_frac=0.0, std_frac=0.0)
    assert all(max(rv.as_tuple()) == 0.0 for rv in zero.node_mean.values())


def _every_key(model):
    """Every node resource, then every link, in the order the sampler draws."""
    keys = [(node_id, rtype) for node_id in model.node_mean for rtype in RESOURCE_TYPES]
    return keys + list(model.link_mean)


def test_sample_background_shapes_and_clamp():
    graph = build_fat_tree(2, CAPS, bandwidths=BWS)
    model = BackgroundModel.from_graph(graph)
    keys = _every_key(model)
    loads = sample_background(model, seed=5, size=64, keys=keys)
    assert loads.shape == (64, 3 * 15 + len(graph.links))
    assert loads.min() >= 0.0
    assert np.array_equal(loads, sample_background(model, seed=5, size=64, keys=keys))
    assert sample_background(model, seed=5, size=64, keys=[]).shape == (64, 0)


@pytest.mark.parametrize("size", [1, BACKGROUND_BLOCK_ROWS, 2 * BACKGROUND_BLOCK_ROWS + 3])
def test_sample_background_blocks_equal_one_draw(size):
    graph = build_fat_tree(2, CAPS, bandwidths=BWS)
    model = BackgroundModel.from_graph(graph, mean_frac=0.1, std_frac=0.1)
    nodes, links = reference_sample_background(model, 9, size)
    full = np.concatenate([nodes.reshape(size, -1), links], axis=1)
    every = _every_key(model)
    assert np.array_equal(sample_background(model, seed=9, size=size, keys=every), full)
    # Any subset of keys, in any order, gets the same columns.
    keys = [("rrh-0-1-1", "w"), ("central", "regional-1"), ("central", "c"),
            ("edge-1-0", "m"), ("rrh-1-1-0", "rrh-1-1-0")]
    expected = full[:, [every.index(key) for key in keys]]
    assert np.array_equal(sample_background(model, seed=9, size=size, keys=keys), expected)
    nodes_only = [key for key in keys if key[1] in RESOURCE_TYPES]
    assert np.array_equal(
        sample_background(model, seed=9, size=size, keys=nodes_only),
        full[:, [every.index(key) for key in nodes_only]],
    )


def test_sample_background_rejects_unknown_and_ambiguous_keys():
    graph = build_fat_tree(2, CAPS, bandwidths=BWS)
    model = BackgroundModel.from_graph(graph)
    with pytest.raises(KeyError):
        sample_background(model, seed=1, keys=[("ghost", "c")])
    # A link to a node named like a resource type reads as either kind.
    model.link_mean[("central", "c")] = model.link_std[("central", "c")] = 0.0
    with pytest.raises(ValueError):
        sample_background(model, seed=1, keys=[("central", "c")])


def test_background_peaks_bound_every_draw():
    graph = build_fat_tree(2, CAPS, bandwidths=BWS)
    model = BackgroundModel.from_graph(graph)
    keys = [("rrh-0-0-0", "w"), ("central", "w"), ("central", "regional-0")]
    peaks = background_peaks(model, keys)
    assert peaks[1] == 0.0  # no wireless capacity, so no background load
    # The largest uniform the generator returns gives the largest normal.
    z = ndtri(np.clip(1.0 - 2.0**-53, U_CLIP, 1.0 - U_CLIP))
    assert z <= Z_MAX
    largest = np.array([0.4 + 0.1 * z, 0.0, 2.0 + 0.5 * z])
    assert np.all(largest <= peaks)
    assert np.all(peaks < largest + 1e-5)
    assert np.all(sample_background(model, seed=2, size=10_000, keys=keys) <= peaks)


def test_model_validation():
    with pytest.raises(ValueError):
        UserDemandModel(np.array([1.0, 2.0]), np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(ValueError):
        UserDemandModel(np.array([1.0, 2.0]), np.array([[1.0, 2.0], [2.0, 1.0]]))
    spec = micro_spec()
    with pytest.raises(ValueError):
        SliceSpec(
            id="bad",
            sfc=spec.sfc,
            user_model=spec.user_model,
            user_count=spec.user_count,
            income=1.0,
            required_psp=1.5,
        )
    with pytest.raises(ValueError):
        SfcGraph(vnfs=(Vnf("a", ResourceVector()), Vnf("a", ResourceVector())), vlinks=())


def test_fingerprint_distinguishes_specs():
    a = micro_spec()
    b = micro_spec(required_psp=0.95)
    assert a.fingerprint() != b.fingerprint()
    assert a.fingerprint() == micro_spec().fingerprint()
