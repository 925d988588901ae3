"""Jump noise: PRM sampling, thinning, compensator drift, and determinism."""

import tracemalloc

import numpy as np
import pytest
from scipy.stats import chisquare, poisson

from sggl import (Control, JumpModel, NoiseScale, constant_control,
                  drift_coefficient, sample_prm, sample_prm_scales,
                  validate_model)


def jm1(g=0.5, nu=1.0):
    return JumpModel(nu=np.array([nu]), g=np.array([g]))


# ---------------------------------------------------------------------------
# model validation

def test_validate_model_zero_amplitude():
    assert validate_model(jm1(g=0.0, nu=1.0), delta=1.0) == pytest.approx(1.0)


def test_validate_model_two_marks():
    jm = JumpModel(nu=np.array([1.0, 1.0]), g=np.array([1.0, 1.0]))
    assert validate_model(jm, delta=1.0) == pytest.approx(2.0 * np.e, rel=1e-14)


def test_validate_model_direct_sum():
    nu = np.array([1.0, 2.0, 0.1])
    g = np.array([0.5, -0.5, 2.0])
    jm = JumpModel(nu=nu, g=g)
    want = sum(np.exp(0.3 * gj ** 2) * nj for gj, nj in zip(g, nu))
    assert validate_model(jm, delta=0.3) == pytest.approx(want, rel=1e-14)


def test_validate_model_rejects_bad_delta():
    with pytest.raises(ValueError):
        validate_model(jm1(), delta=0.0)


def test_jump_model_rejects_bad_weights():
    with pytest.raises(ValueError):
        JumpModel(nu=np.array([1.0, 0.0]), g=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        JumpModel(nu=np.array([1.0]), g=np.array([1.0, 2.0]))


def test_noise_scale_positive():
    with pytest.raises(ValueError):
        NoiseScale(0.0)


# ---------------------------------------------------------------------------
# raw PRM sampling

def test_sample_prm_poisson_mean():
    # sum_j nu_j = 2, T = 1, eps=0.5: mean count 4; check over many seeds
    jm = JumpModel(nu=np.array([2.0]), g=np.array([0.3]))
    eps = NoiseScale(0.5)
    n = 100_000
    counts = np.fromiter(
        (sample_prm(jm, eps, 1.0, s).n_events for s in range(n)), dtype=float)
    band = 5.0 * np.sqrt(4.0 / n)
    assert abs(counts.mean() - 4.0) <= band


def test_sample_prm_deterministic():
    jm = JumpModel(nu=np.array([1.0, 0.5]), g=np.array([0.5, -0.3]))
    a = sample_prm(jm, NoiseScale(1.0), 1.0, seed=42)
    b = sample_prm(jm, NoiseScale(1.0), 1.0, seed=42)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.marks, b.marks)
    c = sample_prm(jm, NoiseScale(1.0), 1.0, seed=43)
    assert not (np.array_equal(a.times, c.times)
                and np.array_equal(a.marks, c.marks))


def test_sample_prm_mark_frequencies():
    # marks categorical with probabilities nu_j / sum_k nu_k = (0.25, 0.75)
    jm = JumpModel(nu=np.array([1.0, 3.0]), g=np.array([0.1, 0.2]))
    eps = NoiseScale(0.001)
    marks = np.concatenate(
        [sample_prm(jm, eps, 1.0, s).marks for s in range(25)])
    n = marks.size
    assert n > 50_000
    freq1 = np.mean(marks == 1)
    band = 3.0 * np.sqrt(0.75 * 0.25 / n)
    assert abs(freq1 - 0.75) <= band


def test_sample_prm_times_sorted_in_range():
    jm = JumpModel(nu=np.array([1.0, 2.0]), g=np.array([0.5, -0.5]))
    s = sample_prm(jm, NoiseScale(0.01), 2.0, seed=7)
    assert np.all(np.diff(s.times) > 0)
    assert s.times[0] >= 0 and s.times[-1] <= 2.0
    assert set(np.unique(s.marks)) <= {0, 1}


def test_sample_prm_uniform_times():
    # conditional on the count, arrival times are i.i.d. uniform on [0,T]
    jm = jm1(nu=1.0)
    times = np.concatenate(
        [sample_prm(jm, NoiseScale(0.002), 1.0, s).times for s in range(20)])
    n = times.size
    assert abs(times.mean() - 0.5) <= 5.0 / np.sqrt(12 * n)


@pytest.mark.parametrize("n_marks, phi", [
    (3, None), (3, [[1.0, 0.3, 0.0], [0.4, 1.7, 0.0]]),
    (1, None), (1, [[1.0], [0.4]]),
], ids=["raw", "two_bins", "one_mark", "one_mark_two_bins"])
def test_sample_prm_scales_match_one_scale_calls(n_marks, phi):
    # one seed drawn at several noise scales, each mark's generator built
    # once, gives what a sample_prm call per scale gives: times, marks and,
    # under the control, the thinning draws that follow the event times in
    # the mark's stream.  Under the 3-mark control mark 2's dominating
    # intensity is 0.  Seed 561 draws 16 mark-0 gaps below 7.4 at
    # eps = 1/7.4, so _rate_scaled_times needs a second chunk there.  A
    # one-mark sample is its stream as drawn, which must be in time order.
    jm = JumpModel(nu=np.array([1.0, 2.0, 0.5][:n_marks]),
                   g=np.array([0.5, -0.3, 0.2][:n_marks]))
    ctrl = None if phi is None else Control(T=1.0, phi=np.array(phi))
    scales = [NoiseScale(e) for e in (0.5, 1 / 7.4, 0.05, 0.5)]
    assert np.count_nonzero(sample_prm(jm, scales[1], 1.0, 561).marks == 0) >= 16
    for seed in (0, 1, 561):
        got = sample_prm_scales(jm, scales, 1.0, seed, ctrl)
        want = [sample_prm(jm, eps, 1.0, seed, ctrl) for eps in scales]
        assert len(got) == len(scales)
        for a, b in zip(got, want):
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.marks, b.marks)
            assert np.all(np.diff(a.times) > 0)
        assert got[0].n_events < got[2].n_events
        if ctrl is not None and n_marks == 3:
            assert not np.any(got[2].marks == 2)


# ---------------------------------------------------------------------------
# controlled PRM via thinning

def test_thinning_identity_control():
    jm = JumpModel(nu=np.array([1.0, 0.5]), g=np.array([0.5, -0.3]))
    for ctrl in (constant_control(1.0, 2, 1.0),
                 Control(T=1.0, phi=np.ones((3, 2)))):
        for seed in (1, 2, 3):
            a = sample_prm(jm, NoiseScale(0.25), 1.0, seed)
            b = sample_prm(jm, NoiseScale(0.25), 1.0, seed, ctrl=ctrl)
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.marks, b.marks)


def test_thinning_zero_control():
    jm = jm1()
    ctrl = constant_control(1.0, 1, 0.0)
    s = sample_prm(jm, NoiseScale(0.1), ctrl.T, 5, ctrl)
    assert s.n_events == 0


def test_thinning_piecewise_mean():
    # phi = 2 on [0, 1/2], 0 after: integrated intensity 1, so mean count 1
    jm = jm1(nu=1.0)
    ctrl = Control(T=1.0, phi=np.array([[2.0], [0.0]]))
    n = 100_000
    counts = np.fromiter(
        (sample_prm(jm, NoiseScale(1.0), ctrl.T, s, ctrl).n_events
         for s in range(n)), dtype=float)
    assert abs(counts.mean() - 1.0) <= 3.0 * np.sqrt(1.0 / n)
    # no event survives in the zero-intensity second half
    late = max(sample_prm(jm, NoiseScale(1.0), ctrl.T, s, ctrl).times.max(initial=0.0)
               for s in range(200))
    assert late <= 0.5


def test_thinning_poisson_gof():
    # constant phi: per-mark count ~ Poisson(phi nu T / eps); chi-square GOF
    jm = jm1(nu=1.5)
    phi = 1.4
    lam = phi * 1.5 * 1.0 / 0.5
    ctrl = constant_control(1.0, 1, phi)
    n = 10_000
    counts = np.fromiter(
        (sample_prm(jm, NoiseScale(0.5), ctrl.T, s, ctrl).n_events
         for s in range(n)), dtype=int)
    kmax = int(counts.max())
    observed = np.bincount(counts, minlength=kmax + 1).astype(float)
    expected = poisson.pmf(np.arange(kmax + 1), lam) * n
    # pool the tail so expected cell counts stay above 5
    while expected[-1] < 5:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    expected *= observed.sum() / expected.sum()
    stat, pval = chisquare(observed, expected)
    assert pval > 0.001


def test_thinning_determinism():
    jm = JumpModel(nu=np.array([1.0, 2.0]), g=np.array([0.2, -0.1]))
    ctrl = Control(T=1.0, phi=np.array([[1.5, 0.5], [0.2, 2.0]]))
    a = sample_prm(jm, NoiseScale(0.2), ctrl.T, 9, ctrl)
    b = sample_prm(jm, NoiseScale(0.2), ctrl.T, 9, ctrl)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.marks, b.marks)


def test_thinning_rejects_control_on_other_horizon():
    # a control is sampled on its own horizon only, never cut or stretched
    jm = jm1()
    ctrl = Control(T=1.0, phi=np.full((2, 1), 2.0))
    for T in (0.5, 2.0):
        with pytest.raises(ValueError, match="horizon"):
            sample_prm(jm, NoiseScale(0.1), T, 5, ctrl)


def test_sample_prm_scales_rejects_a_huge_count_before_drawing():
    # mark 0 expects 1e6 events at eps = 1e-9, over 40 MB of draws; mark 1
    # expects 1e9, past the limit, so nothing may be drawn at all
    jm = JumpModel(nu=np.array([1e-3, 1.0]), g=np.array([0.5, -0.3]))
    scales = [NoiseScale(0.5), NoiseScale(1e-9)]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"mark 1 expects M\*nu_j\*T/eps = "
                           r"1e\+09 events at eps = 1e-09, above the limit 1e\+08"):
            sample_prm_scales(jm, scales, 1.0, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_control_rejects_negative():
    with pytest.raises(ValueError):
        Control(T=1.0, phi=np.array([[1.0, -0.1]]))


# ---------------------------------------------------------------------------
# compensator drift

def test_drift_identity_control_vanishes():
    jm = JumpModel(nu=np.array([1.0, 2.0]), g=np.array([0.7, -0.3]))
    ctrl = constant_control(1.0, 2, 1.0)
    assert drift_coefficient(jm, ctrl.phi)[0] == 0.0


def test_drift_coefficient_per_bin_hand_values():
    # c_b = sum_j g_j (phi[b, j] - 1) nu_j with g = (1, -0.5), nu = (1, 2):
    #   bin 0: 1*1*1 + (-0.5)*2*2 = -1
    #   bin 1: 1*(-1)*1 + (-0.5)*0*2 = -1
    #   bin 2: 1*0.5*1 + (-0.5)*(-0.5)*2 = 1
    jm = JumpModel(nu=np.array([1.0, 2.0]), g=np.array([1.0, -0.5]))
    ctrl = Control(T=1.0, phi=np.array([[2.0, 3.0], [0.0, 1.0], [1.5, 0.5]]))
    c = drift_coefficient(jm, ctrl.phi)
    assert c.shape == (3,)
    assert c.tolist() == [-1.0, -1.0, 1.0]


def test_drift_additive_over_marks():
    jm = JumpModel(nu=np.array([1.0, 2.0]), g=np.array([0.3, -0.2]))
    ctrl = Control(T=1.0, phi=np.array([[1.7, 0.4]]))
    total = drift_coefficient(jm, ctrl.phi)[0]
    parts = 0.0
    for j in range(2):
        jm_j = JumpModel(nu=jm.nu[j:j + 1], g=jm.g[j:j + 1])
        ctrl_j = Control(T=1.0, phi=ctrl.phi[:, j:j + 1])
        parts += drift_coefficient(jm_j, ctrl_j.phi)[0]
    assert total == pytest.approx(parts, rel=1e-14)
