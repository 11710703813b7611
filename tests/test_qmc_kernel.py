"""The threaded, chunked QMC kernel against the serial estimator it replaces,
its thread safety, and the Sobol properties it relies on."""

import copy
import os
import signal
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from sliceprov import probability
from sliceprov.demand import SfcGraph, SliceSpec, UserCountPmf, UserDemandModel, Vnf
from sliceprov.probability import (
    DemandBox,
    QmcConfig,
    mvn_box_probability,
    psp_of_box,
    targets_for_gamma,
)
from sliceprov.topology import ResourceVector

from _helpers import FAST_QMC, correlated_fig_regime_spec, serial

# scipy warns when a Sobol draw does not start with a power-of-2 count
# (samples=1500 below), for the serial reference and the kernel alike.
pytestmark = pytest.mark.filterwarnings("ignore:The balance properties")


def random_mixture_spec(rng, stochastic, batch, slice_id="mix"):
    """A slice with ``stochastic`` correlated demand components (the rest of
    its VNF components deterministic) and ``batch`` mixture components."""
    vnfs = -(-stochastic // 3)
    dim = 3 * vnfs
    a = rng.normal(size=(stochastic, stochastic))
    cov = np.zeros((dim, dim))
    cov[:stochastic, :stochastic] = 0.01 * (a @ a.T / stochastic + 0.2 * np.eye(stochastic))
    mean = rng.uniform(0.5, 1.5, dim)
    if batch == 1:
        users = UserCountPmf.deterministic(int(rng.integers(1, 20)))
    else:
        users = UserCountPmf.binomial(batch, float(rng.uniform(0.5, 0.9)))
    return SliceSpec(
        id=slice_id,
        sfc=SfcGraph(
            vnfs=tuple(Vnf(f"v{i}", ResourceVector(1.0, 1.0, 1.0)) for i in range(vnfs)),
            vlinks=(),
        ),
        user_model=UserDemandModel(mean=mean, covariance=cov),
        user_count=users,
        income=1.0,
        required_psp=0.9,
    )


@pytest.mark.parametrize("samples", [1024, 1500, 16384])
@pytest.mark.parametrize("stochastic", [2, 9, 15])
@pytest.mark.parametrize("batch", [1, 8])
def test_kernel_is_bit_identical_to_the_serial_estimator(batch, stochastic, samples):
    rng = np.random.default_rng([batch, stochastic, samples])
    spec = random_mixture_spec(rng, stochastic, batch)
    cfg = QmcConfig(samples=samples, randomizations=3, seed=int(rng.integers(1000)))
    for gamma in (0.0, 1.3):
        box = targets_for_gamma(spec, gamma, stat_mode="aggregate")
        new = psp_of_box(spec, box, cfg)
        assert new == serial(psp_of_box, spec, box, cfg)
        assert 0.0 < new[0] < 1.0
    # One Gaussian: the mvn path shares the kernel.
    cov = spec.user_model.covariance[:stochastic, :stochastic]
    mean = spec.user_model.mean[:stochastic]
    box = DemandBox(mean + rng.uniform(0.0, 0.2, stochastic))
    new = mvn_box_probability(mean, cov, box, cfg)
    assert new == serial(mvn_box_probability, mean, cov, box, cfg)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_result_does_not_depend_on_the_worker_count(monkeypatch, workers):
    rng = np.random.default_rng(3)
    # One randomization per task (batch 8) and several per task (batch 1).
    cases = [random_mixture_spec(rng, 9, batch) for batch in (8, 1)]
    cfg = QmcConfig(samples=2048, randomizations=5)
    boxes = [targets_for_gamma(spec, 1.0, stat_mode="aggregate") for spec in cases]
    expected = [psp_of_box(spec, box, cfg) for spec, box in zip(cases, boxes)]
    pool = ThreadPoolExecutor(workers) if workers > 1 else None
    monkeypatch.setattr(probability, "_WORKERS", workers)
    monkeypatch.setattr(probability, "_POOL", pool)
    try:
        assert [psp_of_box(spec, box, cfg) for spec, box in zip(cases, boxes)] == expected
    finally:
        if pool is not None:
            pool.shutdown()


def test_concurrent_callers_get_their_serial_results():
    rng = np.random.default_rng(11)
    jobs = []
    # More calling threads than CPUs, on specs that take one randomization
    # per task (batch 8) and several per task (batch 1).
    for index, (stochastic, batch) in enumerate(((9, 8), (15, 1), (9, 1), (2, 8))):
        spec = random_mixture_spec(rng, stochastic, batch, slice_id=f"s{index}")
        box = targets_for_gamma(spec, 1.0, stat_mode="aggregate")
        jobs.append((spec, box))
    cfg = QmcConfig(samples=2048, randomizations=6)
    expected = [serial(psp_of_box, spec, box, cfg) for spec, box in jobs]
    start = threading.Barrier(len(jobs))
    results = [[] for _ in jobs]

    def run(index):
        spec, box = jobs[index]
        start.wait()
        for _ in range(3):
            results[index].append(psp_of_box(spec, box, cfg))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[value] * 3 for value in expected]


def test_chunked_draws_after_reset_equal_one_draw():
    engine = copy.deepcopy(probability._sobol_engine(8, 0, 3))
    whole = engine.random(16384)
    engine.reset()
    chunks = np.concatenate([engine.random(m) for m in (2048, 2048, 4096, 8192)])
    assert np.array_equal(chunks, whole)


def test_coarse_point_set_is_a_prefix_of_the_full_set():
    full = copy.deepcopy(probability._sobol_engine(14, 5, 0)).random(2**14)
    coarse = copy.deepcopy(probability._sobol_engine(14, 5, 0)).random(2**11)
    assert np.array_equal(coarse, full[: 2**11])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_can_estimate_after_the_parent():
    # A correlated spec: independent components are computed exactly and
    # never reach the thread pool.
    spec = correlated_fig_regime_spec()
    box = targets_for_gamma(spec, 1.0)
    expected = psp_of_box(spec, box, FAST_QMC)
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            signal.alarm(10)  # a hung child dies of SIGALRM
            value, err = psp_of_box(spec, box, FAST_QMC)
            os.write(write_end, f"{value.hex()} {err.hex()}".encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    _, status = os.waitpid(pid, 0)
    with os.fdopen(read_end, "rb") as pipe:
        reply = pipe.read().decode()
    assert os.WIFEXITED(status), f"child killed by signal {os.WTERMSIG(status)}"
    assert os.WEXITSTATUS(status) == 0
    assert tuple(float.fromhex(x) for x in reply.split()) == expected
