"""Lock-step batched marcher: agreement with single paths, batching
independence, blow-up ordering, table cache, and control-bin edges."""

import pickle
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from sggl import (BlowUpError, Control, EndpointSpec, JumpModel, JumpSample,
                  NoiseScale, StateField, TimeGrid, constant_control,
                  convergence_sweep, drift_coefficient, in_level_set, make_basis,
                  mode_field, sample_prm, solve_skeleton, solve_spde, tail_probability,
                  trajectory_seed)
from sggl import harness, skeleton, spde, timestep
from sggl.skeleton import march
from sggl.spde import march_batch
from sggl.spectral import chunk_rows, make_nonlin
from sggl.timestep import etdrk2_step, linear_tables

from conftest import jm2


def reversed_map(fn, args):
    # an out-of-order parallel schedule; results in argument order
    return [fn(a) for a in list(args)[::-1]][::-1]


def per_scale(prm):
    # a fake of march_batch's sampler, sample_prm_scales, that draws each
    # noise scale with the per-(seed, eps) fake ``prm``
    def prm_scales(jm_, scales, T, seed, ctrl=None):
        return [prm(jm_, eps, T, seed, ctrl) for eps in scales]
    return prm_scales


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


@pytest.mark.parametrize("per_entry", [False, True])
def test_linear_tables_lone_entry_matches_its_row(per_entry):
    # a 1x1 L alone gets the bits of its row in a batch, on both sides of
    # the series cut: numpy rounds an in-place complex product of a lone
    # entry without the fused multiply-adds of its vector loop
    rng = np.random.default_rng(11)
    n = 300
    L = (-rng.uniform(0.0, 80.0, n) + 1j * rng.uniform(-40.0, 40.0, n)).reshape(n, 1, 1)
    h = rng.uniform(0.001, 0.02, n) if per_entry else 0.01
    full = linear_tables(h, L)
    for k in range(n):
        one = linear_tables(h[k:k + 1] if per_entry else h, L[k:k + 1])
        for alone, batched in zip(one, full):
            assert np.array_equal(alone[0], batched[k])


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


def phi12_three_way(z):
    # reference: the series evaluated on the |z| < 0.5 entries only, by an
    # all-small shortcut or a gather and scatter, and the direct form
    # gathered from the rest
    small = np.abs(z) < timestep._SERIES_CUT
    if small.all():
        p2 = timestep._phi2_series(z)
        return 1.0 + z * p2, p2
    p1 = np.empty_like(z)
    p2 = np.empty_like(z)
    if small.any():
        zs = z[small]
        s2 = timestep._phi2_series(zs)
        p1[small] = 1.0 + zs * s2
        p2[small] = s2
    big = ~small
    zb = z[big]
    d1 = np.expm1(zb) / zb
    p1[big] = d1
    p2[big] = (d1 - 1.0) / zb
    return p1, p2


_BELOW = np.nextafter(0.5, 0.0)
_RNG = np.random.default_rng(3)
_MIXED = (_RNG.normal(size=(3, 5, 7)) + 1j * _RNG.normal(size=(3, 5, 7))) * 0.4


@pytest.mark.parametrize("z", [
    np.zeros((2, 3), complex),
    np.array([0.5, 0.5j, -0.5], complex),
    np.array([_BELOW, 1j * _BELOW, -_BELOW]),
    _MIXED * 0.1,                       # all small
    _MIXED * 100.0,                     # all large
    _MIXED,                             # mixed
    np.concatenate([_MIXED.ravel(), [0j, 0.5, -_BELOW]]).reshape(2, -1),
    # stiff modes: Re z <= 0, where the series overflows and the direct
    # form does not
    np.array([-1e30, 1e30j, 1e30 * np.exp(2.5j), 0.25, -1e30 + 0j]),
], ids=["zero", "cut", "below_cut", "all_small", "all_large", "mixed",
        "mixed_flat", "huge"])
def test_phi12_matches_three_way_reference(z):
    # bit for bit, and without a warning: the suite turns warnings into errors
    for g, w in zip(timestep._phi12(z), phi12_three_way(z)):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


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


@pytest.mark.parametrize("one_point", [False, True], ids=["8x8 with F", "one-point"])
def test_marches_sharing_a_kernel_match_their_own(params_pi, one_point):
    # one kernel serves a 1-row march, a march of more rows than a kernel
    # chunk holds, then a 1-row march again; each gives the endpoints of the
    # same march with a kernel of its own, bit for bit.  On a one-point grid
    # the 1-row marches go through the kernel's lone-row guard.
    p = replace(params_pi, lambda1=(0.3 + 0.1j, -0.2), lambda2=(0.1, 0.4j))
    basis = (make_basis(1, 1, p, pad_factor=1) if one_point
             else make_basis(8, 8, p, pad_factor=4))
    assert (basis.grid_shape == (1, 1)) == one_point
    u0 = mode_field(basis, 1, 1, 0.3)
    grid = TimeGrid(T=0.1, n_steps=10)
    S = chunk_rows(p, basis) + 3
    drifts = np.stack([np.linspace(-1.0, 1.0, S), np.linspace(0.5, -0.5, S)], axis=1)
    nonlin = make_nonlin(p, basis)
    for rows in (drifts[:1], drifts, drifts[-1:]):
        none = np.empty((len(rows), 0))
        shared = march(p, basis, u0, grid, none, none, rows, 2, nonlin=nonlin)
        own = march(p, basis, u0, grid, none, none, rows, 2)
        assert shared.errors == own.errors == [None] * len(rows)
        assert np.array_equal(shared.endpoints, own.endpoints)


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


def test_sweep_eps_rows_do_not_interact(params_pi, monkeypatch):
    # a sweep batch marches the rows of a group of eps cells together; each
    # cell, its six statistics and its counters included, is that of a sweep
    # at its eps alone, whether a march holds every cell, two or one
    basis = make_basis(4, 4, params_pi, pad_factor=4)
    u0 = mode_field(basis, 1, 1, 0.2)
    ctrl = Control(T=0.25, phi=np.array([[1.5, 0.5], [1.0, 1.5]]))
    grid = TimeGrid(T=0.25, n_steps=25)
    eps_list = [0.25, 0.125, 0.0625]

    def run(eps, pool_map):
        return convergence_sweep(params_pi, basis, jm2(), u0, ctrl, grid, eps,
                                 n_samples=20, master_seed=3, _pool_map=pool_map)

    # 20 paths and a kernel chunk of 32 rows: a batch of 4 paths groups all
    # three cells, one of 16 two, one of 20 (BATCH 64) one
    monkeypatch.setattr(harness, "chunk_rows", lambda params, basis: 32)
    for batch, pool_map, groups in [(4, reversed_map, 1), (16, None, 2),
                                    (16, reversed_map, 2), (64, None, 3)]:
        monkeypatch.setattr(harness, "BATCH", batch)
        merged = run(eps_list, pool_map)
        alone = [run([eps], pool_map) for eps in eps_list]
        assert merged.cells == [a.cells[0] for a in alone]
        assert merged.marches == groups * -(-20 // batch)
        for name in ("substeps", "table_hits", "kicks"):
            assert getattr(merged, name) == sum(getattr(a, name) for a in alone)
    assert merged.kicks > 0


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
        return JumpSample(times, np.zeros(times.size, dtype=int))

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

    monkeypatch.setattr(spde, "sample_prm_scales", per_scale(planted_prm))
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
            return JumpSample(np.empty(0), np.zeros(0, dtype=int))
        return planted_prm(jm_, eps, T, seed)

    for prm, want in [(planted_prm, first), (late_prm, second)]:
        monkeypatch.setattr(spde, "sample_prm_scales", per_scale(prm))
        for batch, pool_map in [(64, None), (4, reversed_map), (2, reversed_map)]:
            monkeypatch.setattr(harness, "BATCH", batch)
            with pytest.raises(BlowUpError) as exc:
                tail_probability(params_pi, basis, jm, u0, grid, far, eps_list,
                                 n_samples=7, master_seed=master, _pool_map=pool_map)
            got = exc.value
            assert (got.step, got.t, got.norm) == (want.step, want.t, want.norm)


def test_sweep_blowup_order_is_cell_then_path(params_pi, monkeypatch):
    # a sweep raises its first cell's lowest-index blow-up, as a cell-by-cell
    # run would, however many cells share a march: with path 1 unkicked at
    # eps_list[0] that is path 3 there, not path 1 at eps_list[1]
    basis, u0, jm, grid, master, _, planted_prm, single_run = planted_blowups(params_pi)
    eps_list = [0.25, 0.5]
    want = single_run(3, eps_list[0])

    def late_prm(jm_, eps, T, seed, ctrl=None):
        if seed == trajectory_seed(master, 1) and eps.epsilon == eps_list[0]:
            return JumpSample(np.empty(0), np.zeros(0, dtype=int))
        return planted_prm(jm_, eps, T, seed)

    monkeypatch.setattr(spde, "sample_prm_scales", per_scale(late_prm))
    ctrl = constant_control(grid.T, 1, 1.0)
    # a kernel chunk of 1 row marches one cell at a time
    for batch, rows, pool_map in [(64, 32, None), (4, 32, reversed_map),
                                  (2, 32, reversed_map), (64, 1, None),
                                  (4, 1, reversed_map)]:
        monkeypatch.setattr(harness, "BATCH", batch)
        monkeypatch.setattr(harness, "chunk_rows", lambda params, basis: rows)
        with pytest.raises(BlowUpError) as exc:
            convergence_sweep(params_pi, basis, jm, u0, ctrl, grid, eps_list,
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
    events = JumpSample(np.array([0.105]), np.zeros(1, dtype=int))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(BlowUpError) as exc:
            solve_spde(params_pi, basis, u0, jm, NoiseScale(0.25), grid, 0,
                       events=events)
    err = exc.value
    assert (err.step, err.t) == (10, 0.105)
    assert np.isfinite(err.norm) and err.norm > err.cap


def test_overflowed_tables_blow_up_before_their_substep(params_pi):
    # a drift of 1e6 overflows its rows' tables (Re(hL) about 5e3): such a
    # row steps to a state that is not finite and blows up with an infinite
    # norm on its first sub-step, as any other runaway row does; the other
    # row marches and kicks as it does alone, without a warning
    basis = make_basis(2, 2, params_pi, pad_factor=4)
    u0 = mode_field(basis, 1, 1, 0.1)
    grid = TimeGrid(T=0.5, n_steps=50)
    times = np.array([[0.105], [0.005], [np.inf]])
    factors = np.array([[1.5], [1.5], [1.0]])
    drift = np.array([[0.0], [1e6], [1e6]])

    def logger(log):
        def on_kick(rows, j, before, after):
            for s, js, b, a in zip(rows.tolist(), j.tolist(), before, after):
                log.append((s, js, b.tobytes(), a.tobytes()))
        return on_kick
    logged, logged_alone = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = march(params_pi, basis, u0, grid, times, factors, drift, 1,
                    on_kick=logger(logged))
        alone = march(params_pi, basis, u0, grid, times[:1], factors[:1],
                      drift[:1], 1, on_kick=logger(logged_alone))
    assert res.errors[0] is None
    assert res.endpoints[0].tobytes() == alone.endpoints[0].tobytes()
    assert len(logged_alone) == 1
    assert [e for e in logged if e[0] == 0] == logged_alone
    for s, step, t in ((1, 0, 0.005), (2, 1, 0.01)):
        err = res.errors[s]
        assert (err.step, err.t, err.norm) == (step, t, np.inf)


def test_blowup_freezes_only_its_path(params_pi):
    basis = make_basis(2, 2, params_pi, pad_factor=4)
    u0 = mode_field(basis, 1, 1, 0.1)
    grid = TimeGrid(T=0.2, n_steps=20)
    # path 2's event lies after T, so it is never kicked; path 1 blows up
    # before its second event
    times = np.array([[np.inf, np.inf], [0.05, 0.15], [0.25, np.inf]])
    factors = np.array([[1.0, 1.0], [1e9, 2.0], [1e9, 1.0]])
    res = march(params_pi, basis, u0, grid, times, factors, 0.0, 1)
    assert res.errors[0] is None and res.errors[2] is None
    assert isinstance(res.errors[1], BlowUpError)
    # path 1's counters stop at its blow-up: four grid steps, then the
    # sub-step to its first kick, at t = 0.05
    assert res.substeps.tolist() == [20, 5, 20]
    assert res.table_hits.tolist() == [20, 4, 20]
    assert res.kicks.tolist() == [0, 1, 0]
    assert np.array_equal(res.endpoints[0], res.endpoints[2])
    none = np.empty((1, 0))
    alone = march(params_pi, basis, u0, grid, none, none, 0.0, 1)
    assert np.array_equal(res.endpoints[0], alone.endpoints[0])


def test_blowup_error_survives_pickle():
    # a worker process hands its BlowUpError back pickled: the copy keeps
    # every field and the message
    err = BlowUpError(step=7, t=0.125, norm=3.5e9, cap=12.0)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is BlowUpError
    assert (back.step, back.t, back.norm, back.cap) == (7, 0.125, 3.5e9, 12.0)
    assert str(back) == str(err)


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
    assert skel.substeps.tolist() == skel.table_hits.tolist() == [grid.n_steps]
    assert skel.kicks.tolist() == [0]
    # a jump-dense path: every sub-step that does not span a whole grid step
    # builds fresh tables, so only the uniform grid steps are cache hits
    eps = NoiseScale(1 / 256)
    samples = [sample_prm(jm, eps, ctrl.T, s, ctrl) for s in (1, 2)]
    res = march_batch(params_pi, basis, u0, jm, [eps.epsilon], ctrl, grid, [1, 2])
    n_events = np.array([s.n_events for s in samples])
    assert min(n_events) > grid.n_steps
    # counted per path: a sub-step per grid step and per event, a kick per
    # event
    assert np.array_equal(res.substeps, grid.n_steps + n_events)
    assert np.array_equal(res.kicks, n_events)
    assert np.all(res.substeps - res.table_hits > n_events)


def banked_rows(params_pi):
    # seven rows under per-path drift over 2 bins: row 0 kicks exactly on two
    # grid times (the rest of each step has h = 0, identity tables), row 1
    # is jump-dense and finishes last, row 2 has no events and finishes
    # first, row 3 blows up on a huge kick, row 4 kicks inside the first step
    # and its last event lies after T, row 5 takes negative factors, one on a
    # grid time, and row 6 a factor of exactly 0 on a grid time and later
    # kicks of its zero state, the last one at T
    basis = make_basis(2, 2, params_pi, pad_factor=4)
    u0 = mode_field(basis, 1, 1, 0.1)
    grid = TimeGrid(T=0.2, n_steps=20)
    grid_times = np.arange(1, 21) * (0.2 / 20)
    rng = np.random.default_rng(4)
    events = [np.sort(np.concatenate([grid_times[[3, 11]], [0.0512, 0.1337]])),
              np.sort(rng.uniform(0.0, 0.2, 40)),
              np.empty(0),
              np.array([0.0235, 0.0871, 0.1410]),
              np.array([0.004, 0.0333, 0.25]),
              np.array([grid_times[7], 0.0911, 0.1502]),
              np.array([0.0123, grid_times[9], 0.1111, 0.165, grid_times[19]])]
    times = np.full((7, 40), np.inf)
    factors = np.ones((7, 40))
    for s, t in enumerate(events):
        times[s, :t.size] = t
        factors[s, :t.size] = rng.uniform(0.6, 1.4, t.size)
    factors[3, 1] = 1e9
    factors[5, :3] = -0.8, 1.1, -1.3
    factors[6, 1] = 0.0
    drift = np.array([[0.5, -0.3], [-1.0, 2.0], [0.0, 0.7], [0.2, 0.2], [1.5, -2.0],
                      [-0.4, 0.9], [0.3, -0.6]])
    return basis, u0, grid, times, factors, drift


def banked_march(params_pi, setup, rows=slice(None)):
    # the march of the given rows, its on_save and on_kick calls recorded
    basis, u0, grid, times, factors, drift = setup
    saves, kicks = [], []

    def on_save(r, k, modes):
        saves.append((r.tolist(), k.tolist(), modes.tobytes()))

    def on_kick(r, j, before, after):
        kicks.append((r.tolist(), j.tolist(), before.tobytes(), after.tobytes()))

    res = march(params_pi, basis, u0, grid, times[rows], factors[rows],
                drift[rows], 2, on_save=on_save, on_kick=on_kick)
    return res, saves, kicks


def stepped_alone(params_pi, setup, s):
    # row s's endpoint, stepped one sub-step at a time with tables built for
    # each sub-step, as a march without a table bank or cache would
    basis, u0, grid, times, factors, drift = setup
    n = grid.refined_steps(2)
    dt = grid.T / n
    grid_times = np.arange(1, n + 1) * dt
    nonlin = make_nonlin(params_pi, basis)
    Lbase = (1.0 + 1j * params_pi.alpha) * basis.eigenvalues + params_pi.gamma
    c = u0.modes.astype(complex)[None]
    t, k, j, kicked = 0.0, 0, 0, False
    while k < n:
        event = j < times.shape[1] and times[s, j] <= grid_times[k]
        L = Lbase + drift[s, min(k, n - 1) // (n // 2)]
        h = times[s, j] - t if event else (dt if not kicked else grid_times[k] - t)
        c = etdrk2_step(c, linear_tables(h, L), nonlin)
        if event:
            t, j = times[s, j], j + 1
            c = c * factors[s, j - 1]
        else:
            t, k = grid_times[k], k + 1
        kicked = event
    return c[0]


def blowup(err):
    return None if err is None else (err.step, err.t, err.norm, err.cap)


def own_calls(calls, s):
    # row s's share of a march's recorded callbacks, as its S = 1 march
    # records them
    mine = []
    for rows, index, *fields in calls:
        if s in rows:
            i, n = rows.index(s), len(rows)
            mine.append(([0], [index[i]]) + tuple(
                f[i * len(f) // n:(i + 1) * len(f) // n] for f in fields))
    return mine


def test_banked_tables_do_not_depend_on_block_size(params_pi, monkeypatch):
    # a march builds its off-grid tables in blocks of rounds within an
    # eighth of WORKSPACE_BYTES; squeezed to one slot a block is one round,
    # to seven slots a few rounds.  Every result, counter and callback
    # equals the default budget's (one block) and each row's S = 1 march's,
    # and a row that does not blow up ends where sub-step-by-sub-step
    # stepping does
    setup = banked_rows(params_pi)
    basis = setup[0]
    slot = 3 * 16 * basis.n1 * basis.n2         # one sub-step's tables
    tables = []

    def counted(h, L):
        tables.append(np.size(h))
        return linear_tables(h, L)

    monkeypatch.setattr(skeleton, "linear_tables", counted)
    default = banked_march(params_pi, setup)
    res = default[0]
    fine = (0, 1, 2, 4, 5, 6)
    assert [res.errors[s] for s in fine] == [None] * 6
    assert isinstance(res.errors[3], BlowUpError)
    assert len(set(res.substeps.tolist())) == 7
    # every kick multiplies its row's state by its factor, as a complex
    # array times a real; the zero factor leaves a zero state
    assert res.kicks[5] == 3 and res.kicks[6] == 5
    for rows, j, before, after in default[2]:
        before = np.frombuffer(before, complex).reshape(len(rows), -1)
        after = np.frombuffer(after, complex).reshape(len(rows), -1)
        want = before * setup[4][rows, j][:, None]
        assert want.tobytes() == after.tobytes()
    assert not np.any(res.endpoints[6])
    for s in range(7):
        assert [j for _, (j,), *_ in own_calls(default[2], s)] == list(range(res.kicks[s]))
    # the cache, then one block, which holds row 3's sub-steps after its
    # blow-up too
    off_grid = int(np.sum(res.substeps - res.table_hits))
    assert len(tables) == 2 and tables[1] > off_grid
    blocks = []
    for most in (1, 7):
        monkeypatch.setattr(skeleton, "WORKSPACE_BYTES", 8 * most * slot)
        del tables[:]
        got = banked_march(params_pi, setup)
        blocks.append(tables[1:])
        assert np.array_equal(got[0].endpoints, res.endpoints)
        assert list(map(blowup, got[0].errors)) == list(map(blowup, res.errors))
        for name in ("substeps", "table_hits", "kicks"):
            assert np.array_equal(getattr(got[0], name), getattr(res, name))
        assert got[1:] == default[1:]
    # one round a block builds only the sub-steps taken; seven slots hold
    # a few rounds
    assert sum(blocks[0]) == off_grid and len(blocks[0]) > 20
    assert max(blocks[1]) <= 7 and len(blocks[0]) > len(blocks[1]) > 5
    monkeypatch.undo()

    for s in fine:
        assert stepped_alone(params_pi, setup, s).tobytes() == res.endpoints[s].tobytes()
    for s in range(7):
        one, saves, kicks = banked_march(params_pi, setup, slice(s, s + 1))
        assert np.array_equal(one.endpoints[0], res.endpoints[s])
        assert blowup(one.errors[0]) == blowup(res.errors[s])
        for name in ("substeps", "table_hits", "kicks"):
            assert getattr(one, name)[0] == getattr(res, name)[s]
        assert own_calls(default[1], s) == saves
        assert own_calls(default[2], s) == kicks


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
    # path 0 kicks at two grid times, path 1 at 0.045
    assert res.substeps.tolist() == [grid.n_steps + 2, grid.n_steps + 1]
    assert res.kicks.tolist() == [2, 1]
    # the state saved at t = 0.03 already carries the kick there
    want3 = 2.0 * c0 * np.exp(lam * 0.03)
    assert abs(saved[0, 3] - want3) <= 1e-10 * abs(want3)



# ---------------------------------------------------------------------------
# argument checks that no config reaches

def sweep_of_no_samples(params, basis):
    grid = TimeGrid(T=0.25, n_steps=25)
    return convergence_sweep(params, basis, jm2(), mode_field(basis, 1, 1, 0.2),
                             constant_control(grid.T, 2), grid, [0.5], 0, 1)


@pytest.mark.parametrize("call, message", [
    (lambda p, b: TimeGrid(T=0, n_steps=10), "need T > 0, n_steps >= 1"),
    (lambda p, b: Control(T=0, phi=np.ones((1, 2))), "control horizon T must be > 0"),
    (lambda p, b: sample_prm(jm2(), NoiseScale(0.5), 0.0, 1), "T must be > 0"),
    (lambda p, b: replace(p, L1=0.0), "domain dimensions L1, L2 must be > 0"),
    (lambda p, b: in_level_set(constant_control(1.0, 2), jm2(), N=-1),
     "level N must be >= 0"),
    (lambda p, b: mode_field(b, 9, 1), "mode (9,1) outside basis 8x8"),
    (sweep_of_no_samples, "n_samples must be >= 1"),
], ids=["time_grid", "control", "sample_prm", "parameters", "level_set",
        "mode_field", "sweep_samples"])
def test_out_of_range_argument_raises_its_message(params_pi, basis8, call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(params_pi, basis8)
