"""Lock-step batched marcher: agreement with single paths, batching
independence, blow-up ordering, table cache, and control-bin edges."""

import warnings

import numpy as np
import pytest

from sggl import (BlowUpError, Control, EndpointSpec, JumpModel, JumpSample,
                  NoiseScale, StateField, TimeGrid, constant_control,
                  convergence_sweep, drift_coefficient, make_basis, mode_field,
                  sample_prm, solve_skeleton, solve_spde, tail_probability,
                  trajectory_seed)
from sggl import harness, spde
from sggl.skeleton import march
from sggl.spde import march_batch
from sggl.timestep import linear_tables

from conftest import jm2


def reversed_map(fn, args):
    # an out-of-order parallel schedule; results in argument order
    return [fn(a) for a in list(args)[::-1]][::-1]


# ---------------------------------------------------------------------------
# linear tables

def test_linear_tables_zero_step_is_identity():
    L = np.array([[-3.0 + 1j, 0.5], [-40.0 - 2j, 0.0]])
    E, hp1, hp2 = linear_tables(0.0, L)
    assert np.array_equal(E, np.ones_like(L))
    assert not hp1.any() and not hp2.any()
    # batched: a zero step in one row leaves the other rows untouched
    Eb, hp1b, _ = linear_tables(np.array([0.0, 0.1]), np.stack([L, L]))
    assert np.array_equal(Eb[0], np.ones_like(L)) and not hp1b[0].any()
    E1, hp11, _ = linear_tables(0.1, L)
    assert np.array_equal(Eb[1], E1) and np.array_equal(hp1b[1], hp11)


def test_linear_tables_match_direct_form_across_series_cut():
    # on both sides of |z| = 0.5 the tables agree with the direct formulas
    r = np.array([0.05, 0.2, 0.49, 0.51, 1.0, 4.0])
    z = np.concatenate([r, -r, 1j * r, r * np.exp(2.5j)])
    _, hp1, hp2 = linear_tables(1.0, z.reshape(4, -1))
    p1 = np.expm1(z) / z
    p2 = (np.expm1(z) - z) / z ** 2
    assert np.max(np.abs(hp1.ravel() - p1) / np.abs(p1)) <= 1e-12
    # the direct phi2 loses digits to cancellation near 0; 1e-10 covers it
    assert np.max(np.abs(hp2.ravel() - p2) / np.abs(p2)) <= 1e-10


# ---------------------------------------------------------------------------
# batch against single paths

@pytest.mark.parametrize("controlled", [False, True])
def test_batched_endpoints_match_single_paths(params_pi, controlled):
    basis = make_basis(4, 4, params_pi, pad_factor=4)
    u0 = mode_field(basis, 1, 1, 0.3)
    jm = jm2()
    grid = TimeGrid(T=0.25, n_steps=25)
    eps = NoiseScale(0.0625)
    ctrl = Control(T=grid.T, phi=np.array([[1.5, 0.5], [1.0, 1.5]])) if controlled else None
    seeds = [trajectory_seed(5, i) for i in range(9)]
    if controlled:
        samples = [sample_prm(jm, eps, ctrl.T, s, ctrl) for s in seeds]
    else:
        samples = [sample_prm(jm, eps, grid.T, s) for s in seeds]
    res = march_batch(params_pi, basis, u0, jm, [eps.epsilon], ctrl, grid, seeds)
    assert res.errors == [None] * len(seeds)
    assert sum(s.n_events for s in samples) > 0
    for seed, got in zip(seeds, res.endpoints):
        if controlled:
            one = solve_spde(params_pi, basis, u0, jm, eps, grid, seed, ctrl=ctrl)
        else:
            one = solve_spde(params_pi, basis, u0, jm, eps, grid, seed)
        assert np.array_equal(got, one.endpoint.modes)


def per_row_setup(params_pi):
    basis = make_basis(4, 4, params_pi, pad_factor=4)
    u0 = mode_field(basis, 1, 1, 0.3)
    grid = TimeGrid(T=0.25, n_steps=25)
    drifts = np.array([[0.5, -0.3], [-1.0, 2.0], [0.0, 0.7]])
    return basis, u0, grid, drifts


def test_per_row_drift_rows_match_their_single_marches(params_pi):
    # each row of a march with per-path drift is its own S = 1 march, bit
    # for bit; a fourth row whose drift blows it up is frozen alone
    basis, u0, grid, drifts = per_row_setup(params_pi)
    none = np.empty((1, 0))
    alone = [march(params_pi, basis, u0, grid, none, none, d, 2).endpoints[0]
             for d in drifts]
    assert not np.array_equal(alone[0], alone[1])
    for rows in (drifts, np.vstack([drifts, [[1e3, 0.0]]])):
        none = np.empty((len(rows), 0))
        res = march(params_pi, basis, u0, grid, none, none, rows, 2)
        assert res.errors[:3] == [None] * 3
        for got, want in zip(res.endpoints, alone):
            assert np.array_equal(got, want)
    assert isinstance(res.errors[3], BlowUpError)


@pytest.mark.parametrize("shape", [(2, 2), (3, 3)])
def test_per_row_drift_shape_is_checked(params_pi, shape):
    # a 2-D drift needs one row per path and one column per bin
    basis, u0, grid, _ = per_row_setup(params_pi)
    none = np.empty((3, 0))
    with pytest.raises(ValueError, match="per-path drift"):
        march(params_pi, basis, u0, grid, none, none, np.zeros(shape), 2)


def tail_setup(params_pi):
    basis = make_basis(2, 2, params_pi, pad_factor=4)
    u0 = mode_field(basis, 1, 1, 1e-3)
    jm = JumpModel(nu=np.array([16.0]), g=np.array([1.0]))
    grid = TimeGrid(T=0.5, n_steps=50)
    skel = solve_skeleton(params_pi, basis, u0, jm,
                          constant_control(grid.T, 1, 1.0), grid)
    # endpoints with markedly fewer jumps than typical
    event = EndpointSpec(center=StateField(0.3 * skel.endpoint.modes, basis),
                         radius=0.5 * skel.endpoint.l2())
    return basis, u0, jm, grid, event


def test_mc_results_independent_of_batching(params_pi, monkeypatch):
    basis, u0, jm, grid, event = tail_setup(params_pi)
    basis4 = make_basis(4, 4, params_pi, pad_factor=4)
    u4 = mode_field(basis4, 1, 1, 0.2)
    ctrl = Control(T=0.25, phi=np.array([[1.5, 0.5], [1.0, 1.5]]))
    grid4 = TimeGrid(T=0.25, n_steps=25)

    def run(batch, pool_map=None):
        monkeypatch.setattr(harness, "BATCH", batch)
        tail = tail_probability(params_pi, basis, jm, u0, grid, event,
                                [0.2, 0.12], n_samples=13, master_seed=3,
                                _pool_map=pool_map)
        sweep = convergence_sweep(params_pi, basis4, jm2(), u4, ctrl, grid4,
                                  [0.25, 0.125], n_samples=13, master_seed=3,
                                  _pool_map=pool_map)
        return [c.hits for c in tail.cells], sweep.cells

    one_batch = run(64)
    assert sum(one_batch[0]) > 0
    assert run(4) == one_batch
    assert run(4, reversed_map) == one_batch
    assert run(1, reversed_map) == one_batch


def test_tail_eps_rows_do_not_interact(params_pi, monkeypatch):
    # a tail batch marches every (path, eps) row together; each eps cell is
    # that of a run at its eps alone, and merging adds no sub-step
    basis, u0, jm, grid, event = tail_setup(params_pi)
    eps_list = [0.2, 0.12]

    def run(eps, pool_map):
        return tail_probability(params_pi, basis, jm, u0, grid, event, eps,
                                n_samples=13, master_seed=3, _pool_map=pool_map)

    for batch, pool_map in [(64, None), (4, reversed_map), (1, reversed_map)]:
        monkeypatch.setattr(harness, "BATCH", batch)
        merged = run(eps_list, pool_map)
        alone = [run([eps], pool_map) for eps in eps_list]
        assert [c.hits for c in merged.cells] == [a.cells[0].hits for a in alone]
        assert merged.substeps == sum(a.substeps for a in alone)
        assert merged.table_hits == sum(a.table_hits for a in alone)
        assert merged.marches == alone[0].marches == -(-13 // batch)
    assert sum(c.hits for c in merged.cells) > 0


# ---------------------------------------------------------------------------
# blow-up

def planted_blowups(params_pi):
    # paths 1, 3 and 5 take a huge kick; path 1 kicks last, so a run that
    # stopped at the first blow-up in time would report another path
    basis = make_basis(2, 2, params_pi, pad_factor=4)
    u0 = mode_field(basis, 1, 1, 0.1)
    # a rare, huge jump: the compensator drift -g nu stays -1
    jm = JumpModel(nu=np.array([1e-9]), g=np.array([1e9]))
    grid = TimeGrid(T=0.5, n_steps=50)
    master = 7
    index = {trajectory_seed(master, i): i for i in range(7)}
    kick_at = {1: 0.305, 3: 0.105, 5: 0.015}

    def planted_prm(jm_, eps, T, seed, ctrl=None):
        i = index[seed]
        times = np.array([kick_at[i]]) if i in kick_at else np.empty(0)
        return JumpSample(times, np.zeros(times.size, dtype=int), T)

    def single(i, eps):
        # the BlowUpError of path i run alone at eps
        with pytest.raises(BlowUpError) as exc:
            solve_spde(params_pi, basis, u0, jm, NoiseScale(eps), grid, 0,
                       events=planted_prm(jm, None, grid.T, trajectory_seed(master, i)))
        return exc.value

    far = EndpointSpec(center=mode_field(basis, 2, 2, 5.0), radius=1e-3)
    return basis, u0, jm, grid, master, far, planted_prm, single


def test_blowup_raises_lowest_index_path(params_pi, monkeypatch):
    basis, u0, jm, grid, master, far, planted_prm, single_run = planted_blowups(params_pi)
    single = {i: single_run(i, 0.25) for i in (1, 3, 5)}
    assert single[1].step > single[3].step > single[5].step

    monkeypatch.setattr(spde, "sample_prm", planted_prm)
    for batch, pool_map in [(64, None), (4, None), (4, reversed_map), (2, reversed_map)]:
        monkeypatch.setattr(harness, "BATCH", batch)
        with pytest.raises(BlowUpError) as exc:
            tail_probability(params_pi, basis, jm, u0, grid, far, [0.25],
                             n_samples=7, master_seed=master, _pool_map=pool_map)
        assert (exc.value.step, exc.value.t) == (single[1].step, single[1].t)


@pytest.mark.parametrize("eps_list", [[0.25, 0.5], [0.5, 0.25]])
def test_blowup_order_across_eps_in_one_march(params_pi, monkeypatch, eps_list):
    # every path meets the same planted events at each eps, so path 1 blows
    # up at both; the run reports it at eps_list[0], told apart by the norm
    # (kicks 1 + 0.25e9 and 1 + 0.5e9).  Blow-ups are ordered by path, then
    # by eps: with path 1 kicked at eps_list[1] only, it is still reported
    basis, u0, jm, grid, master, far, planted_prm, single_run = planted_blowups(params_pi)
    first = single_run(1, eps_list[0])
    second = single_run(1, eps_list[1])
    assert first.norm != second.norm

    def late_prm(jm_, eps, T, seed, ctrl=None):
        # path 1 unkicked at eps_list[0]: it still precedes path 3 and 5
        if seed == trajectory_seed(master, 1) and eps.epsilon == eps_list[0]:
            return JumpSample(np.empty(0), np.zeros(0, dtype=int), T)
        return planted_prm(jm_, eps, T, seed)

    for prm, want in [(planted_prm, first), (late_prm, second)]:
        monkeypatch.setattr(spde, "sample_prm", prm)
        for batch, pool_map in [(64, None), (4, reversed_map), (2, reversed_map)]:
            monkeypatch.setattr(harness, "BATCH", batch)
            with pytest.raises(BlowUpError) as exc:
                tail_probability(params_pi, basis, jm, u0, grid, far, eps_list,
                                 n_samples=7, master_seed=master, _pool_map=pool_map)
            got = exc.value
            assert (got.step, got.t, got.norm) == (want.step, want.t, want.norm)


def test_blowup_detected_on_the_kick_substep(params_pi):
    # a kick far past the cap is caught on its own sub-step, before the next
    # step evaluates |u|^{2 sigma} u on it, so the error reports a finite norm
    basis = make_basis(2, 2, params_pi, pad_factor=4)
    u0 = mode_field(basis, 1, 1, 0.1)
    jm = JumpModel(nu=np.array([1e-9]), g=np.array([1e9]))
    grid = TimeGrid(T=0.5, n_steps=50)
    events = JumpSample(np.array([0.105]), np.zeros(1, dtype=int), grid.T)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(BlowUpError) as exc:
            solve_spde(params_pi, basis, u0, jm, NoiseScale(0.25), grid, 0,
                       events=events)
    err = exc.value
    assert (err.step, err.t) == (10, 0.105)
    assert np.isfinite(err.norm) and err.norm > err.cap


def test_blowup_freezes_only_its_path(params_pi):
    basis = make_basis(2, 2, params_pi, pad_factor=4)
    u0 = mode_field(basis, 1, 1, 0.1)
    grid = TimeGrid(T=0.2, n_steps=20)
    # path 2's event lies after T, so it is never kicked
    times = np.array([[np.inf], [0.05], [0.25]])
    factors = np.array([[1.0], [1e9], [1e9]])
    res = march(params_pi, basis, u0, grid, times, factors, 0.0, 1)
    assert res.errors[0] is None and res.errors[2] is None
    assert isinstance(res.errors[1], BlowUpError)
    assert np.array_equal(res.endpoints[0], res.endpoints[2])
    none = np.empty((1, 0))
    alone = march(params_pi, basis, u0, grid, none, none, 0.0, 1)
    assert np.array_equal(res.endpoints[0], alone.endpoints[0])


# ---------------------------------------------------------------------------
# table cache

def test_table_cache_serves_whole_grid_steps(params_pi):
    basis = make_basis(4, 4, params_pi, pad_factor=4)
    u0 = mode_field(basis, 1, 1, 0.2)
    jm = jm2()
    grid = TimeGrid(T=0.3, n_steps=30)
    ctrl = Control(T=grid.T, phi=np.array([[1.5, 0.5], [1.0, 1.5], [0.2, 2.0]]))
    # a skeleton march serves every step from the cache
    none = np.empty((1, 0))
    skel = march(params_pi, basis, u0, grid, none, none,
                 drift_coefficient(jm, ctrl.phi), ctrl.n_bins)
    assert skel.substeps == skel.table_hits == grid.n_steps
    # a jump-dense path: every sub-step that does not span a whole grid step
    # builds fresh tables, so only the uniform grid steps are cache hits
    eps = NoiseScale(1 / 256)
    samples = [sample_prm(jm, eps, ctrl.T, s, ctrl) for s in (1, 2)]
    res = march_batch(params_pi, basis, u0, jm, [eps.epsilon], ctrl, grid, [1, 2])
    assert min(s.n_events for s in samples) > grid.n_steps
    assert res.substeps == 2 * grid.n_steps + sum(s.n_events for s in samples)
    assert res.substeps - res.table_hits > sum(s.n_events for s in samples)


# ---------------------------------------------------------------------------
# control-bin edges

def test_control_bin_from_step_index_at_rounding_edge(params_pi):
    # T = 0.1, n_steps = 7, 5 bins -> 10 steps of 0.01.  Binning by float
    # time, int(t * n_bins / T), puts the step starting at t = 0.06 into
    # bin 2 instead of bin 3.  On a single linear mode ETDRK2 is exact, so
    # the endpoint must match the closed form with every bin's drift
    # applied for exactly T / n_bins.
    basis = make_basis(1, 1, params_pi, pad_factor=4)
    c0 = 1e-6
    u0 = mode_field(basis, 1, 1, c0)
    jm = JumpModel(nu=np.array([1.0]), g=np.array([1.0]))
    phi = np.array([0.5, 1.0, 2.0, 12.0, 3.0])
    ctrl = Control(T=0.1, phi=phi[:, None])
    grid = TimeGrid(T=0.1, n_steps=7)
    assert grid.refined_steps(ctrl.n_bins) == 10
    assert int(0.06 * 5 / 0.1) == 2        # the float formula's verdict
    traj = solve_skeleton(params_pi, basis, u0, jm, ctrl, grid)
    mu = basis.eigenvalues[0, 0]
    drift = np.sum((phi - 1.0) * 0.1 / 5)
    want = c0 * np.exp(((1 + 0.5j) * mu + params_pi.gamma) * 0.1 + drift)
    got = traj.endpoint.modes[0, 0]
    assert abs(got - want) <= 1e-10 * abs(want)


def test_event_on_grid_time(params_pi):
    # An event exactly on a grid time kicks before the grid step ending
    # there, whose remaining sub-step has h = 0 and identity tables.  On a
    # single linear mode ETDRK2 is exact, so every endpoint is the closed
    # form times its kicks.
    basis = make_basis(1, 1, params_pi, pad_factor=4)
    c0 = 1e-6
    u0 = mode_field(basis, 1, 1, c0)
    grid = TimeGrid(T=0.1, n_steps=10)
    grid_times = np.arange(1, 11) * (0.1 / 10)
    times = np.array([grid_times[[2, 5]], [0.045, np.inf]])
    factors = np.array([[2.0, 3.0], [6.0, 1.0]])
    saved = {}

    def on_save(rows, ks, modes):
        saved.update(((int(r), int(k)), m[0, 0]) for r, k, m in zip(rows, ks, modes))

    res = march(params_pi, basis, u0, grid, times, factors, 0.0, 1,
                on_save=on_save)
    lam = (1 + 0.5j) * basis.eigenvalues[0, 0] + params_pi.gamma
    want = 6.0 * c0 * np.exp(lam * 0.1)
    got = res.endpoints[:, 0, 0]
    assert np.max(np.abs(got - want)) <= 1e-10 * abs(want)
    assert res.substeps == 2 * grid.n_steps + 3
    # the state saved at t = 0.03 already carries the kick there
    want3 = 2.0 * c0 * np.exp(lam * 0.03)
    assert abs(saved[0, 3] - want3) <= 1e-10 * abs(want3)

