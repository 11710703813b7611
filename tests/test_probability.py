import dataclasses
import time

import numpy as np
import pytest
from scipy.special import ndtr

from sliceprov.demand import (
    BackgroundModel,
    SfcGraph,
    SliceSpec,
    UserCountPmf,
    UserDemandModel,
    VLink,
    Vnf,
    sample_aggregate,
    slice_catalog,
)
from sliceprov.probability import (
    DemandBox,
    QmcConfig,
    background_targets,
    find_gamma_s,
    gamma_b,
    mvn_box_probability,
    plan_impact_probabilities,
    plan_psp,
    psp_of_box,
    std_normal_cdf,
    std_normal_inv_cdf,
    targets_for_gamma,
)
from sliceprov.topology import ResourceVector, build_fat_tree

from _helpers import FAST_QMC, correlated_fig_regime_spec, micro_spec, serial

CAPS = {
    "central": ResourceVector(16.0, 32.0, 0.0),
    "regional": ResourceVector(8.0, 16.0, 0.0),
    "edge": ResourceVector(4.0, 12.0, 0.0),
    "rrh": ResourceVector(1.0, 2.0, 2.0),
}
BWS = {"central-regional": 10.0, "regional-edge": 5.0, "edge-rrh": 2.5}


def test_normal_cdf_reference_values():
    assert std_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-12)
    assert std_normal_inv_cdf(0.9) == pytest.approx(1.281552, abs=1e-5)
    assert std_normal_inv_cdf(0.975) == pytest.approx(1.959964, abs=1e-5)
    assert std_normal_inv_cdf(0.99) == pytest.approx(2.326348, abs=1e-5)
    for p in (0.1, 0.42, 0.77, 0.999):
        assert std_normal_cdf(std_normal_inv_cdf(p)) == pytest.approx(p, abs=1e-12)
    with pytest.raises(ValueError):
        std_normal_inv_cdf(0.0)
    with pytest.raises(ValueError):
        std_normal_inv_cdf(1.0)


def test_gamma_b_closed_form():
    assert gamma_b(0.1) == pytest.approx(1.281552, abs=1e-5)
    assert gamma_b(0.5) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        gamma_b(0.0)
    with pytest.raises(ValueError):
        gamma_b(1.0)


def test_mvn_box_probability_diagonal():
    rng = np.random.default_rng(1)
    for dim in (1, 2, 3):
        mean = rng.normal(size=dim)
        sd = rng.uniform(0.5, 2.0, size=dim)
        upper = mean + rng.uniform(-1.0, 2.0, size=dim) * sd
        expected = float(np.prod(ndtr((upper - mean) / sd)))
        est, err = mvn_box_probability(mean, np.diag(sd**2), DemandBox(upper), FAST_QMC)
        assert est == pytest.approx(expected, rel=1e-15) and err == 0.0


def test_mvn_box_probability_deterministic_components():
    mean = np.array([1.0, 2.0])
    cov = np.diag([0.0, 1.0])
    # Deterministic component above its bound: probability zero.
    est, err = mvn_box_probability(mean, cov, DemandBox(np.array([0.5, 10.0])), FAST_QMC)
    assert est == 0.0 and err == 0.0
    # Deterministic component within bound reduces to the 1-D case.
    est, _ = mvn_box_probability(mean, cov, DemandBox(np.array([1.0, 2.0])), FAST_QMC)
    assert est == pytest.approx(0.5, abs=1e-9)
    # Fully deterministic and inside: probability one.
    est, _ = mvn_box_probability(mean, np.zeros((2, 2)), DemandBox(mean), FAST_QMC)
    assert est == 1.0


def test_mvn_box_probability_correlated_vs_complement():
    # P{X <= u} + P{not both <= u} structure: check symmetry at the mean where
    # the orthant probability has the closed form 1/4 + asin(rho) / (2 pi).
    rho = 0.85
    cov = np.array([[1.0, rho], [rho, 1.0]])
    est, err = mvn_box_probability(np.zeros(2), cov, DemandBox(np.zeros(2)), QmcConfig())
    expected = 0.25 + np.arcsin(rho) / (2 * np.pi)
    assert est == pytest.approx(expected, abs=5e-4)


def test_psp_of_box_counts_empty_user_set():
    spec = dataclasses.replace(
        micro_spec(),
        user_count=micro_spec().user_count.__class__(np.array([0.3, 0.7])),
    )
    # Box below even a single user's demand: only the empty-user term remains.
    est, _ = psp_of_box(spec, DemandBox(np.array([0.0, 0.0, 0.0])), FAST_QMC)
    assert est == pytest.approx(0.3, abs=1e-6)


def test_psp_of_box_monotone_in_gamma():
    spec = slice_catalog()[2]  # deterministic user count, fast single component
    values = []
    for gamma in (0.0, 200.0, 1000.0):
        box = targets_for_gamma(spec, gamma)
        est, _ = psp_of_box(spec, box, FAST_QMC)
        values.append(est)
    assert values == sorted(values)
    assert values[-1] > 0.9


def test_targets_for_gamma_modes():
    spec = micro_spec(users=2, mean_c=0.1, std_c=0.01)
    per_user = targets_for_gamma(spec, 2.0, stat_mode="per_user")
    assert per_user.upper[0] == pytest.approx(0.1 + 2.0 * 0.01)
    aggregate = targets_for_gamma(spec, 2.0, stat_mode="aggregate")
    # Deterministic 2 users: mean 0.2, sd 2 * 0.01.
    assert aggregate.upper[0] == pytest.approx(0.2 + 2.0 * 0.02)
    with pytest.raises(ValueError):
        targets_for_gamma(spec, -1.0)
    with pytest.raises(ValueError):
        targets_for_gamma(spec, 1.0, stat_mode="bogus")


def test_find_gamma_s_trivial_when_already_satisfied():
    # p_0-heavy slice: PSP at gamma 0 exceeds the small requirement.
    spec = dataclasses.replace(micro_spec(), required_psp=0.05)
    spec = dataclasses.replace(
        spec, user_count=spec.user_count.__class__(np.array([0.5, 0.5]))
    )
    assert find_gamma_s(spec, FAST_QMC) == pytest.approx(0.0, abs=2e-3)


def test_background_targets():
    graph = build_fat_tree(2, CAPS, bandwidths=BWS)
    model = BackgroundModel.from_graph(graph, 0.2, 0.05)
    node_res, link_res = background_targets(model, 2.0)
    assert node_res["central"].compute == pytest.approx(0.2 * 16 + 2.0 * 0.05 * 16)
    assert link_res[("central", "regional-0")] == pytest.approx(2.0 + 2.0 * 0.5)
    with pytest.raises(ValueError):
        background_targets(model, -1.0)


def test_plan_impact_probabilities_known_values():
    graph = build_fat_tree(2, CAPS, bandwidths=BWS)
    model = BackgroundModel.from_graph(graph, 0.2, 0.05)
    # Provision exactly capacity - mean on one RRH wireless: tail prob 1/2.
    rrh = "rrh-0-0-0"
    prov_node = {(rrh, "w"): 2.0 - 0.2 * 2.0}
    node_probs, link_probs = plan_impact_probabilities((prov_node, {}), graph, model)
    assert node_probs[(rrh, "w")] == pytest.approx(0.5, abs=1e-12)
    # Unprovisioned elements sit far in the safe tail.
    assert node_probs[("central", "c")] < 1e-12
    assert max(link_probs.values()) < 1e-12


def test_plan_impact_probabilities_deterministic_background():
    graph = build_fat_tree(2, CAPS, bandwidths=BWS)
    zero = BackgroundModel.zero(graph)
    node_probs, _ = plan_impact_probabilities(({("central", "c"): 17.0}, {}), graph, zero)
    assert node_probs[("central", "c")] == 1.0  # exceeds capacity outright
    node_probs, _ = plan_impact_probabilities(({("central", "c"): 15.0}, {}), graph, zero)
    assert node_probs[("central", "c")] == 0.0


def test_plan_psp_estimates_agree():
    spec = micro_spec(users=2, mean_c=0.1, std_c=0.01)
    # Aggregate-mode box at gamma 2.5 covers the two-user demand with
    # probability Phi(2.5) ~ 0.9938.
    box = targets_for_gamma(spec, 2.5, stat_mode="aggregate")
    estimate = plan_psp(spec, box, FAST_QMC, mc_trials=20_000, seed=11)
    assert abs(estimate.qmc - estimate.mc) < 3 * (estimate.mc_error + 1e-4)
    assert 0.9 < estimate.qmc < 1.0


def test_qmc_config_validation():
    with pytest.raises(ValueError):
        QmcConfig(samples=10)
    with pytest.raises(ValueError):
        QmcConfig(randomizations=1)


def independent_spec(user_count, slice_id="indep"):
    """Four stochastic components with unequal variances and a deterministic
    one with a nonzero mean, all independent."""
    return SliceSpec(
        id=slice_id,
        sfc=SfcGraph(
            vnfs=(
                Vnf("vA", ResourceVector(0.5, 0.5, 0.0)),
                Vnf("vB", ResourceVector(0.4, 0.2, 0.0)),
            ),
            vlinks=(VLink("vA", "vB", 0.2),),
        ),
        user_model=UserDemandModel(
            mean=np.array([0.1, 0.2, 0.0, 0.08, 0.05, 0.0, 0.05]),
            covariance=np.diag([0.01**2, 0.0, 0.0, 0.008**2, 0.02**2, 0.0, 0.005**2]),
        ),
        user_count=user_count,
        income=1.0,
        required_psp=0.95,
    )


INDEPENDENT_SPECS = [
    # A binomial mixture with p_0 = 0.3^12 > 0.
    independent_spec(UserCountPmf.binomial(12, 0.7), "binomial"),
    # A large mixture: the smallest user counts fall below the pmf cutoff.
    independent_spec(UserCountPmf.binomial(80, 0.9), "cutoff"),
    # A heavy empty-user term.
    independent_spec(UserCountPmf.binomial(3, 0.4), "p0"),
    independent_spec(UserCountPmf.deterministic(5), "deterministic"),
    # A single stochastic component.
    micro_spec(users=3),
]


def close_to(value, reference):
    return abs(value - reference) <= 1e-15 * abs(reference)


# scipy warns that 1500 Sobol points are not a power of 2.
@pytest.mark.filterwarnings("ignore:The balance properties")
@pytest.mark.parametrize("cfg", [FAST_QMC, QmcConfig(samples=1500, randomizations=3, seed=7)],
                         ids=["fast", "odd-samples"])
@pytest.mark.parametrize("spec", INDEPENDENT_SPECS, ids=lambda spec: spec.id)
def test_independent_components_are_exact(spec, cfg):
    # The per-user boxes leave the deterministic component room for one user
    # only; the aggregate ones keep most user counts.
    for stat_mode, gamma in (("aggregate", 0.0), ("aggregate", 1.5), ("per_user", 2.0)):
        box = targets_for_gamma(spec, gamma, stat_mode=stat_mode)
        value, err = psp_of_box(spec, box, cfg)
        reference, _ = serial(psp_of_box, spec, box, cfg)
        assert err == 0.0
        assert close_to(value, reference)
    users = spec.user_count.probs.size - 1
    mean = users * spec.user_model.mean
    cov = users**2 * spec.user_model.covariance
    box = DemandBox(mean + np.sqrt(np.diag(cov)))
    value, err = mvn_box_probability(mean, cov, box, cfg)
    reference, _ = serial(mvn_box_probability, mean, cov, box, cfg)
    assert err == 0.0
    assert close_to(value, reference)


@pytest.mark.parametrize("spec", INDEPENDENT_SPECS, ids=lambda spec: spec.id)
def test_exact_path_calibrates_the_reference_margin(spec):
    # Per-user boxes cannot reach the PSP here: they fit the deterministic
    # component of one user only.
    gamma = find_gamma_s(spec, FAST_QMC, stat_mode="aggregate")
    assert gamma > 0.0
    assert gamma == serial(find_gamma_s, spec, FAST_QMC, 1e-3, "aggregate")


def test_correlated_components_keep_a_qmc_error():
    spec = correlated_fig_regime_spec()
    value, err = psp_of_box(spec, targets_for_gamma(spec, 1.0), FAST_QMC)
    assert 0.0 < value < 1.0 and err > 0.0
    cov = spec.user_model.covariance[:2, :2]
    _, err = mvn_box_probability(np.zeros(2), cov, DemandBox(np.zeros(2)), FAST_QMC)
    assert err > 0.0


def test_catalog_margins_reach_their_psp():
    catalog = slice_catalog()
    started = time.perf_counter()
    gammas = [find_gamma_s(spec, QmcConfig()) for spec in catalog]
    assert time.perf_counter() - started < 2.0
    trials = 200_000
    for index, (spec, gamma) in enumerate(zip(catalog, gammas)):
        box = targets_for_gamma(spec, gamma)
        draws = sample_aggregate(spec, index, size=trials)
        hit = float(np.mean(np.all(draws <= box.upper[None, :] + 1e-12, axis=1)))
        stderr = np.sqrt(max(hit * (1.0 - hit), 1e-12) / trials)
        assert hit >= spec.required_psp - 4.0 * stderr, (spec.id, gamma, hit)
