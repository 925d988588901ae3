"""Jump-driven SPDE paths: invariance, closed-form oracles, determinism."""

import numpy as np
import pytest

from sggl import (Control, JumpModel, NoiseScale, Parameters, TimeGrid,
                  constant_control, drift_coefficient, empty_sample,
                  make_basis, mode_field, sample_prm, solve_skeleton,
                  solve_spde, zero_field)

from conftest import jm2


def scalar_setup(params_pi):
    basis = make_basis(1, 1, params_pi, pad_factor=4)
    u0 = mode_field(basis, 1, 1, amp=1e-3 + 5e-4j)
    return basis, u0


# ---------------------------------------------------------------------------
# invariances

def test_zero_initial_state(params_pi, basis8):
    grid = TimeGrid(T=0.3, n_steps=30)
    jm = jm2()
    for seed in range(10):
        traj = solve_spde(params_pi, basis8, zero_field(basis8), jm,
                          NoiseScale(0.25), grid, seed)
        assert np.all(traj.modes == 0)
        traj = solve_spde(params_pi, basis8, zero_field(basis8), jm,
                          NoiseScale(0.25), grid, seed,
                          ctrl=constant_control(0.3, 2, 1.7))
        assert np.all(traj.modes == 0)


def test_zero_amplitude_equals_skeleton(params_pi, basis8):
    # g = 0: kicks are identity and the compensator vanishes, so the path
    # must equal the phi=1 skeleton bit for bit
    jm = JumpModel(nu=np.array([1.0]), g=np.array([0.0]))
    u0 = mode_field(basis8, 1, 1, 0.3 + 0.1j)
    grid = TimeGrid(T=0.4, n_steps=40)
    skel = solve_skeleton(params_pi, basis8, u0, jm,
                          constant_control(0.4, 1, 1.0), grid)
    path = solve_spde(params_pi, basis8, u0, jm, NoiseScale(0.2), grid, seed=3)
    assert len(path.modes) == len(skel.modes)
    for a, b in zip(path.modes, skel.modes):
        assert np.array_equal(a, b)


def test_controlled_identity_control_matches_spde(params_pi, basis8):
    jm = jm2()
    u0 = mode_field(basis8, 1, 1, 0.2)
    grid = TimeGrid(T=0.3, n_steps=30)
    ctrl = constant_control(0.3, 2, 1.0)
    for seed in (0, 1, 2):
        a = solve_spde(params_pi, basis8, u0, jm, NoiseScale(0.25), grid, seed)
        b = solve_spde(params_pi, basis8, u0, jm, NoiseScale(0.25), grid, seed,
                       ctrl=ctrl)
        for x, y in zip(a.modes, b.modes):
            assert np.array_equal(x, y)


def test_controlled_path_is_raw_spde_on_its_events(params_pi, basis8):
    # the controlled SPDE keeps the raw drift -sum g nu: on the same
    # thinned events a 1-bin phi != 1 path is the raw path bit for bit
    jm = jm2()
    u0 = mode_field(basis8, 1, 1, 0.2)
    grid = TimeGrid(T=0.3, n_steps=30)
    eps = NoiseScale(0.25)
    ctrl = Control(T=0.3, phi=np.array([[1.7, 0.4]]))
    for seed in (0, 1, 2):
        events = sample_prm(jm, eps, ctrl.T, seed, ctrl)
        a = solve_spde(params_pi, basis8, u0, jm, eps, grid, seed, events=events)
        b = solve_spde(params_pi, basis8, u0, jm, eps, grid, seed, ctrl=ctrl,
                       events=events)
        assert events.n_events > 0
        assert np.array_equal(a.times, b.times)
        for x, y in zip(a.modes, b.modes):
            assert np.array_equal(x, y)


def test_empty_events_balanced_model_equals_skeleton(params_pi, basis8):
    # with sum_j g_j phi_j nu_j = 0 the controlled-noise compensator drops
    # out, so injecting an empty event set reproduces the skeleton exactly
    jm = JumpModel(nu=np.array([1.0, 1.0]), g=np.array([1.0, -1.0]))
    ctrl = constant_control(0.3, 2, 1.5)
    u0 = mode_field(basis8, 1, 1, 0.2)
    grid = TimeGrid(T=0.3, n_steps=30)
    skel = solve_skeleton(params_pi, basis8, u0, jm, ctrl, grid)
    path = solve_spde(params_pi, basis8, u0, jm, NoiseScale(0.1), grid, seed=0,
                      ctrl=ctrl, events=empty_sample(0.3))
    for a, b in zip(path.modes, skel.modes):
        assert np.array_equal(a, b)


def test_pathwise_determinism(params_pi, basis8):
    jm = jm2()
    u0 = mode_field(basis8, 2, 1, 0.25)
    grid = TimeGrid(T=0.3, n_steps=30)
    a = solve_spde(params_pi, basis8, u0, jm, NoiseScale(0.2), grid, seed=11)
    b = solve_spde(params_pi, basis8, u0, jm, NoiseScale(0.2), grid, seed=11)
    assert np.array_equal(a.times, b.times)
    for x, y in zip(a.modes, b.modes):
        assert np.array_equal(x, y)


# ---------------------------------------------------------------------------
# scalar closed-form oracles

def test_scalar_product_formula(params_pi):
    # single mode, negligible nonlinearity: u(T) = u0 exp(((1+ia)mu + gamma
    # - g nu) T) prod_i (1 + eps g); jump times do not enter the product
    basis, u0 = scalar_setup(params_pi)
    jm = JumpModel(nu=np.array([1.0]), g=np.array([0.4]))
    T = 0.3
    grid = TimeGrid(T=T, n_steps=30)
    eps = NoiseScale(0.25)
    mu = basis.eigenvalues[0, 0]
    for seed in range(50):
        events = sample_prm(jm, eps, T, seed)
        traj = solve_spde(params_pi, basis, u0, jm, eps, grid, seed)
        want = (u0.modes[0, 0]
                * np.exp(((1 + 0.5j) * mu + 1.0 - 0.4 * 1.0) * T)
                * (1 + eps.epsilon * 0.4) ** events.n_events)
        got = traj.endpoint.modes[0, 0]
        assert abs(got - want) <= 1e-8 * abs(want)


def test_scalar_controlled_product_formula(params_pi):
    # controlled drift: c(t) - sum g phi nu = g nu (phi-1) - g nu phi = -g nu
    basis, u0 = scalar_setup(params_pi)
    jm = JumpModel(nu=np.array([1.5]), g=np.array([0.3]))
    T = 0.4
    phi = 1.8
    ctrl = constant_control(T, 1, phi)
    grid = TimeGrid(T=T, n_steps=40)
    eps = NoiseScale(0.2)
    mu = basis.eigenvalues[0, 0]
    drift = drift_coefficient(jm, ctrl)[0] - 0.3 * phi * 1.5
    for seed in range(20):
        events = sample_prm(jm, eps, ctrl.T, seed, ctrl)
        traj = solve_spde(params_pi, basis, u0, jm, eps, grid, seed, ctrl=ctrl)
        want = (u0.modes[0, 0] * np.exp(((1 + 0.5j) * mu + 1.0 + drift) * T)
                * (1 + eps.epsilon * 0.3) ** events.n_events)
        assert abs(traj.endpoint.modes[0, 0] - want) <= 1e-8 * abs(want)


def test_event_log_records_kicks(params_pi):
    basis, u0 = scalar_setup(params_pi)
    jm = JumpModel(nu=np.array([4.0]), g=np.array([0.5]))
    grid = TimeGrid(T=0.5, n_steps=20)
    eps = NoiseScale(0.5)
    log = []
    solve_spde(params_pi, basis, u0, jm, eps, grid, seed=1, event_log=log)
    events = sample_prm(jm, eps, 0.5, 1)
    assert len(log) == events.n_events
    for (t, mark, pre, post), (te, me) in zip(log, zip(events.times,
                                                       events.marks)):
        assert t == pytest.approx(te)
        assert mark == me
        assert post == pytest.approx(pre * (1 + 0.5 * 0.5), rel=1e-12)


# ---------------------------------------------------------------------------
# energy tameness across eps

def test_energy_stable_as_eps_shrinks(params_pi, basis8):
    jm = jm2()
    u0 = mode_field(basis8, 1, 1, 0.3)
    grid = TimeGrid(T=0.3, n_steps=30)
    sigma_p = int(round(2 * params_pi.sigma + 2))

    def mean_energy(eps, n=20):
        vals = []
        for seed in range(n):
            traj = solve_spde(params_pi, basis8, u0, jm, NoiseScale(eps),
                              grid, seed)
            nr = traj.norms
            sup_sq = max(nr.l2 ** 2)
            dt = np.diff(traj.times)
            grad = sum(d * g ** 2
                       for d, g in zip(dt, nr.grad_l2[1:]))
            lp = sum(d * v ** sigma_p
                     for d, v in zip(dt, nr.lp[sigma_p][1:]))
            vals.append(sup_sq + grad + lp)
        return float(np.mean(vals))

    e = [mean_energy(eps) for eps in (0.2, 0.1, 0.05)]
    for a, b in zip(e, e[1:]):
        assert b <= 2.0 * a
    assert all(np.isfinite(e))
