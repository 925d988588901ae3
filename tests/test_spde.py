"""Jump-driven SPDE paths: invariance, closed-form oracles, determinism."""

import numpy as np
import pytest

from sggl import (Control, JumpModel, JumpSample, NoiseScale, TimeGrid,
                  constant_control, drift_coefficient, empty_sample,
                  make_basis, mode_field, sample_prm, solve_skeleton,
                  solve_spde, zero_field)
from sggl.jumps import compensator_drift
from sggl.skeleton import march_trajectory
from sggl.spde import _pad_events

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
    # must equal the phi=1 skeleton bit for bit, with or without an event
    # log, and the log lists no kick
    jm = JumpModel(nu=np.array([1.0]), g=np.array([0.0]))
    u0 = mode_field(basis8, 1, 1, 0.3 + 0.1j)
    grid = TimeGrid(T=0.4, n_steps=40)
    assert sample_prm(jm, NoiseScale(0.2), grid.T, 3).n_events > 0
    skel = solve_skeleton(params_pi, basis8, u0, jm,
                          constant_control(0.4, 1, 1.0), grid)
    path = solve_spde(params_pi, basis8, u0, jm, NoiseScale(0.2), grid, seed=3)
    log = []
    logged = solve_spde(params_pi, basis8, u0, jm, NoiseScale(0.2), grid,
                        seed=3, event_log=log)
    assert len(path.modes) == len(skel.modes)
    assert np.array_equal(path.modes, skel.modes)
    assert np.array_equal(logged.modes, skel.modes)
    assert log == []


def test_zero_amplitude_mark_is_no_event(params_pi, basis8):
    # marks g = (0, 0.5): the g = 0 events neither split a step nor enter
    # the log, so the path, logged or not, is the march on the g != 0
    # events alone
    jm = JumpModel(nu=np.array([3.0, 1.0]), g=np.array([0.0, 0.5]))
    u0 = mode_field(basis8, 1, 1, 0.3 + 0.1j)
    grid = TimeGrid(T=0.4, n_steps=40)
    eps = NoiseScale(0.2)
    events = sample_prm(jm, eps, grid.T, 5)
    kicked = events.marks == 1
    assert kicked.any() and not kicked.all()
    want = march_trajectory(params_pi, basis8, u0, grid,
                            events.times[kicked][None],
                            np.full((1, kicked.sum()), 1 + 0.2 * 0.5),
                            compensator_drift(jm), 1)
    log = []
    logged = solve_spde(params_pi, basis8, u0, jm, eps, grid, seed=5,
                        event_log=log)
    path = solve_spde(params_pi, basis8, u0, jm, eps, grid, seed=5)
    assert np.array_equal(logged.modes, want.modes)
    assert np.array_equal(path.modes, want.modes)
    assert [(t, m) for t, m, _, _ in log] == \
        [(t, 1) for t in events.times[kicked].tolist()]
    for _, _, pre, post in log:
        assert post / pre == pytest.approx(abs(1 + 0.2 * 0.5), rel=1e-12)


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
                      ctrl=ctrl, events=empty_sample())
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
    drift = drift_coefficient(jm, ctrl.phi)[0] - 0.3 * phi * 1.5
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


def planted_log(params_pi, jm, steps, marks):
    # the planted events, at the given multiples of the step, and the event
    # log of the scalar path they drive at eps = 0.5
    basis, u0 = scalar_setup(params_pi)
    grid = TimeGrid(T=0.5, n_steps=20)
    events = JumpSample(times=np.array(steps) * (grid.T / grid.n_steps),
                        marks=np.array(marks))
    log = []
    solve_spde(params_pi, basis, u0, jm, NoiseScale(0.5), grid, seed=1,
               events=events, event_log=log)
    return events, log


def test_event_log_kicks_each_planted_event_in_order(params_pi):
    # marks of opposite sign, one event on a grid time and two inside one
    # step: each kick must take its own event's mark, in order
    jm = jm2()
    events, log = planted_log(params_pi, jm, [3, 10.2, 10.7], [1, 0, 1])
    assert [(t, m) for t, m, _, _ in log] == \
        list(zip(events.times.tolist(), events.marks.tolist()))
    for _, mark, pre, post in log:
        assert post / pre == pytest.approx(abs(1 + 0.5 * jm.g[mark]), rel=1e-12)


def test_event_log_skips_no_events_before_and_between_kicks(params_pi):
    # mark 2 has g = 0, so its events are no events: planted before and
    # between the kicks, they make a kick's index in its padded row differ
    # from its index in the sample, and the log must still list each kick's
    # own time and mark
    jm = JumpModel(nu=np.append(jm2().nu, 1.0), g=np.append(jm2().g, 0.0))
    events, log = planted_log(params_pi, jm, [1, 2.5, 3, 7, 10.2, 10.5, 10.7],
                              [2, 2, 1, 2, 0, 2, 1])
    kicks = events.marks != 2
    assert [(t, m) for t, m, _, _ in log] == \
        list(zip(events.times[kicks].tolist(), events.marks[kicks].tolist()))


def test_pad_events_matches_per_sample_padding():
    # a batch padded without a per-sample loop equals each sample's kicks
    # padded one by one.  Mark 1 has g = 0 and mark 2 a g so small
    # that 1 + eps g is exactly 1.0 at every eps used, so neither kicks;
    # the batch mixes noise scales and holds empty rows and rows whose
    # every event is a mark-1 or mark-2 one
    jm = JumpModel(nu=np.array([2.0, 3.0, 1.0]), g=np.array([0.5, 0.0, 1e-17]))
    eps = [0.25, 0.1, 0.05]
    samples = [sample_prm(jm, NoiseScale(e), 1.0, seed)
               for seed in range(3) for e in eps]
    only = samples[1].marks != 0
    samples += [empty_sample(),
                JumpSample(samples[1].times[only], samples[1].marks[only])]
    eps = eps * 3 + [0.25, 0.1]
    kicks = [np.count_nonzero(s.marks == 0) for s in samples]
    assert min(kicks[:-2]) > 0 and kicks[-2:] == [0, 0]
    assert set(samples[-1].marks.tolist()) == {1, 2}

    def padded(batch, scales):
        rows = []
        for sample, e in zip(batch, scales):
            f = 1.0 + e * jm.g[sample.marks]
            rows.append((sample.times[f != 1.0], f[f != 1.0],
                         sample.marks[f != 1.0]))
        width = max((t.size for t, _, _ in rows), default=0)
        times = np.full((len(rows), width), np.inf)
        factors = np.ones((len(rows), width))
        marks = np.full((len(rows), width), -1)
        for i, (t, f, m) in enumerate(rows):
            times[i, :t.size] = t
            factors[i, :t.size] = f
            marks[i, :t.size] = m
        return times, factors, marks

    for batch, scales in ((samples, eps), (samples[-2:], eps[-2:])):
        times, factors, marks = _pad_events(batch, jm, scales)
        want_times, want_factors, want_marks = padded(batch, scales)
        assert times.shape == want_times.shape
        assert times.tobytes() == want_times.tobytes()
        assert factors.tobytes() == want_factors.tobytes()
        assert marks.dtype == want_marks.dtype
        assert marks.tobytes() == want_marks.tobytes()
        width = max(np.count_nonzero(s.marks == 0) for s in batch)
        assert times.shape == (len(batch), width)


# ---------------------------------------------------------------------------
# energy tameness across eps

def test_energy_stable_as_eps_shrinks(params_pi, basis8):
    jm = jm2()
    u0 = mode_field(basis8, 1, 1, 0.3)
    grid = TimeGrid(T=0.3, n_steps=30)
    sigma_p = params_pi.lp_exponent

    def mean_energy(eps, n=20):
        vals = []
        for seed in range(n):
            traj = solve_spde(params_pi, basis8, u0, jm, NoiseScale(eps),
                              grid, seed)
            nr = traj.norms
            sup_sq = max(nr["l2"] ** 2)
            dt = np.diff(traj.times)
            grad = sum(d * g ** 2
                       for d, g in zip(dt, nr["grad_l2"][1:]))
            lp = sum(d * v ** sigma_p
                     for d, v in zip(dt, nr["l2sigma2"][1:]))
            vals.append(sup_sq + grad + lp)
        return float(np.mean(vals))

    e = [mean_energy(eps) for eps in (0.2, 0.1, 0.05)]
    for a, b in zip(e, e[1:]):
        assert b <= 2.0 * a
    assert all(np.isfinite(e))
