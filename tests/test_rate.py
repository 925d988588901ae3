"""Entropy cost, level sets, and the rate-function estimator."""

import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sggl import (Control, EndpointSpec, JumpModel, OptConfig, TimeGrid,
                  constant_control, cost, ell, estimate_rate, in_level_set,
                  make_basis, mode_field, solve_skeleton)
from sggl import rate
from sggl.cli import _opt_config
from sggl.config import parse_config
from sggl.skeleton import MarchResult, march

from conftest import jm2

BENCH = Path(__file__).resolve().parent.parent / "bench"


def jm1(g=0.5, nu=1.0):
    return JumpModel(nu=np.array([nu]), g=np.array([g]))


# ---------------------------------------------------------------------------
# entropy density

def test_ell_reference_values():
    assert ell(1.0) == pytest.approx(0.0, abs=1e-15)
    assert ell(0.0) == pytest.approx(1.0)
    assert ell(np.e) == pytest.approx(1.0, rel=1e-14)


def test_ell_rejects_negative():
    with pytest.raises(ValueError):
        ell(-0.1)


def test_ell_nonnegative_and_convex():
    rng = np.random.default_rng(1)
    for _ in range(500):
        r1, r2 = rng.uniform(0, 5, size=2)
        t = rng.uniform(0.01, 0.99)
        mid = ell(t * r1 + (1 - t) * r2)
        assert mid >= 0
        assert mid <= t * ell(r1) + (1 - t) * ell(r2) + 1e-12


# ---------------------------------------------------------------------------
# cost functional

def test_cost_identity_control_is_zero():
    ctrl = constant_control(2.0, 3, 1.0)
    jm = JumpModel(nu=np.array([1.0, 2.0, 0.5]), g=np.zeros(3))
    assert cost(ctrl, jm) == pytest.approx(0.0, abs=1e-15)


def test_cost_zero_control_equals_total_mass():
    # l(0) = 1, so the cost is the total intensity mass nu(Z) * T
    jm = JumpModel(nu=np.array([1.0, 1.5]), g=np.array([0.5, -0.5]))
    ctrl = constant_control(2.0, 2, 0.0)
    assert cost(ctrl, jm) == pytest.approx(2.5 * 2.0, rel=1e-14)


def test_cost_two_bin_hand_value():
    # K=1, nu=2, T=1, phi=(e, 1): 2 * (l(e) * 0.5 + l(1) * 0.5) = 1
    jm = jm1(nu=2.0)
    ctrl = Control(T=1.0, phi=np.array([[np.e], [1.0]]))
    assert cost(ctrl, jm) == pytest.approx(1.0, rel=1e-14)


def test_cost_scales_with_horizon():
    jm = JumpModel(nu=np.array([1.0, 2.0]), g=np.array([0.3, -0.1]))
    phi = np.array([[1.7, 0.4], [0.9, 2.2]])
    c1 = cost(Control(T=1.0, phi=phi), jm)
    c3 = cost(Control(T=3.0, phi=phi), jm)
    assert c3 == pytest.approx(3.0 * c1, rel=1e-14)


def test_cost_additive_over_marks():
    jm = JumpModel(nu=np.array([1.0, 2.0]), g=np.array([0.3, -0.1]))
    phi = np.array([[1.7, 0.4]])
    total = cost(Control(T=1.0, phi=phi), jm)
    parts = sum(cost(Control(T=1.0, phi=phi[:, j:j + 1]),
                     JumpModel(nu=jm.nu[j:j + 1], g=jm.g[j:j + 1]))
                for j in range(2))
    assert total == pytest.approx(parts, rel=1e-14)


def test_level_set_membership():
    jm = jm1(nu=5.0)
    assert in_level_set(constant_control(1.0, 1, 1.0), jm, 0.0)
    assert not in_level_set(constant_control(1.0, 1, 0.0), jm, 4.0)
    # closed set: boundary cost counts as inside
    c = cost(constant_control(1.0, 1, 0.0), jm)
    assert in_level_set(constant_control(1.0, 1, 0.0), jm, c)


# ---------------------------------------------------------------------------
# rate estimation

def rate_setup(params_pi, g=0.5, nu=1.0, T=0.25, amp=1e-2):
    basis = make_basis(2, 2, params_pi, pad_factor=4)
    u0 = mode_field(basis, 1, 1, amp)
    jm = jm1(g=g, nu=nu)
    grid = TimeGrid(T=T, n_steps=25)
    return basis, u0, jm, grid


def test_rate_of_noiseless_endpoint_is_zero(params_pi):
    basis, u0, jm, grid = rate_setup(params_pi)
    ctrl1 = constant_control(grid.T, 1, 1.0)
    center = solve_skeleton(params_pi, basis, u0, jm, ctrl1, grid).endpoint
    res = estimate_rate(EndpointSpec(center=center, radius=0.0), params_pi,
                        basis, jm, u0, grid,
                        OptConfig(n_bins=1, gap_tol=1e-8))
    assert res.feasible
    assert res.value <= 1e-6
    assert res.endpoint_gap <= 1e-8


def test_rate_beats_generating_control(params_pi):
    basis, u0, jm, grid = rate_setup(params_pi)
    phi_star = Control(T=grid.T, phi=np.array([[1.9]]))
    center = solve_skeleton(params_pi, basis, u0, jm, phi_star, grid).endpoint
    radius = 1e-3 * abs(center.modes[0, 0])
    res = estimate_rate(EndpointSpec(center=center, radius=radius), params_pi,
                        basis, jm, u0, grid,
                        OptConfig(n_bins=1, n_rho=8, gap_tol=radius * 1e-2))
    assert res.feasible
    assert res.value <= 1.05 * cost(phi_star, jm)


def test_rate_matches_bisection_oracle(params_pi):
    # 1 mark, 1 bin, linearized single mode: |u(T)| is monotone in phi, so
    # the cheapest point of the target ball (its low-magnitude edge, the one
    # nearer phi=1) is found by scalar bisection; the rate is ell(phi_hat)
    # * nu * T at that edge
    basis, u0, jm, grid = rate_setup(params_pi, g=0.5, nu=1.0, T=0.25)
    phi_star = 1.6
    center = solve_skeleton(params_pi, basis, u0, jm,
                            Control(T=grid.T, phi=np.array([[phi_star]])),
                            grid).endpoint

    def endpoint_mag(phi):
        traj = solve_skeleton(params_pi, basis, u0, jm,
                              Control(T=grid.T, phi=np.array([[phi]])), grid)
        return abs(traj.endpoint.modes[0, 0])

    target_mag = abs(center.modes[0, 0])
    radius = 0.05 * target_mag
    lo, hi = 0.5, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if endpoint_mag(mid) < target_mag - radius:
            lo = mid
        else:
            hi = mid
    phi_hat = 0.5 * (lo + hi)
    oracle = ell(phi_hat) * 1.0 * grid.T

    res = estimate_rate(EndpointSpec(center=center, radius=radius), params_pi,
                        basis, jm, u0, grid,
                        OptConfig(n_bins=1, n_rho=9, gap_tol=radius * 1e-4,
                                  fd_step=1e-5))
    assert res.feasible
    assert res.value == pytest.approx(oracle, abs=1e-3)


def test_rate_reports_infeasible_target(params_pi):
    # center supported on a mode the linearized dynamics cannot excite
    basis, u0, jm, grid = rate_setup(params_pi)
    center = mode_field(basis, 2, 2, 0.05)
    res = estimate_rate(EndpointSpec(center=center, radius=1e-6), params_pi,
                        basis, jm, u0, grid,
                        OptConfig(n_bins=1, n_rho=2, max_inner=8))
    assert not res.feasible
    assert res.endpoint_gap > 1e-6


def test_rate_result_fields(params_pi, monkeypatch):
    basis, u0, jm, grid = rate_setup(params_pi)
    ctrl1 = constant_control(grid.T, 1, 1.0)
    center = solve_skeleton(params_pi, basis, u0, jm, ctrl1, grid).endpoint
    marched = []

    def recording_march(params, basis, u0, grid, times, factors, drift, n_bins, **kw):
        marched.extend(row.tobytes() for row in drift)
        return march(params, basis, u0, grid, times, factors, drift, n_bins, **kw)

    monkeypatch.setattr(rate, "march", recording_march)
    res = estimate_rate(EndpointSpec(center=center, radius=1e-6), params_pi,
                        basis, jm, u0, grid, OptConfig(n_bins=2))
    assert res.value >= 0
    assert res.endpoint_gap >= 0
    assert res.iterations >= 0
    assert res.control.phi.shape == (2, 1)
    # phi = 1 lands on the center, so the objective is 0 and every line-search
    # candidate costs more: the search marches the start and one gradient of
    # two probes, and no candidate (the later stages find the gradient's rows
    # already marched)
    assert (res.marches, res.skeleton_paths) == (2, 3)
    # no drift row is marched twice, though every continuation stage retries
    # the same failed line search from the same phi
    assert len(set(marched)) == len(marched) == res.skeleton_paths


def test_rate_search_independent_of_batching(params_pi, monkeypatch):
    # the batched search gives what solving its skeletons one at a time
    # gives, bit for bit: 2 bins x 2 marks, so two drift rows a gradient
    basis, u0, _, grid = rate_setup(params_pi)
    jm = jm2()
    phi_star = Control(T=grid.T, phi=np.array([[1.8, 0.6], [0.9, 1.4]]))
    center = solve_skeleton(params_pi, basis, u0, jm, phi_star, grid).endpoint
    target = EndpointSpec(center=center, radius=1e-2 * center.l2())
    opt = OptConfig(n_bins=2)
    marched = []

    def one_row_at_a_time(params, basis, u0, grid, times, factors, drift,
                          n_bins, **kw):
        marched.extend(row.tobytes() for row in drift)
        parts = [march(params, basis, u0, grid, times[i:i + 1],
                       factors[i:i + 1], drift[i:i + 1], n_bins, **kw)
                 for i in range(len(drift))]
        counters = [np.concatenate([getattr(p, name) for p in parts])
                    for name in ("substeps", "table_hits", "kicks")]
        return MarchResult(np.concatenate([p.endpoints for p in parts]),
                           [e for p in parts for e in p.errors], *counters)

    batched = estimate_rate(target, params_pi, basis, jm, u0, grid, opt)
    monkeypatch.setattr(rate, "march", one_row_at_a_time)
    serial = estimate_rate(target, params_pi, basis, jm, u0, grid, opt)
    assert batched.feasible and batched.skeleton_paths >= 4 * batched.iterations
    for name in ("value", "endpoint_gap", "iterations", "feasible", "marches",
                 "skeleton_paths"):
        assert getattr(batched, name) == getattr(serial, name), name
    assert np.array_equal(batched.control.phi, serial.control.phi)
    # no drift row is marched twice: the search keeps every gap it marched
    assert len(set(marched)) == len(marched) == serial.skeleton_paths


def test_rate_gradient_marches_one_drift_row_per_bin(params_pi, monkeypatch):
    # a probe reaches the skeleton only through its bin's drift, so the
    # first gradient of a 2-bin x 2-mark search marches one row per bin,
    # after the start row
    basis, u0, _, grid = rate_setup(params_pi)
    jm = jm2()
    phi_star = Control(T=grid.T, phi=np.array([[1.8, 0.6], [0.9, 1.4]]))
    center = solve_skeleton(params_pi, basis, u0, jm, phi_star, grid).endpoint
    sizes = []

    def recording_march(params, basis, u0, grid, times, factors, drift, n_bins, **kw):
        sizes.append(len(drift))
        return march(params, basis, u0, grid, times, factors, drift, n_bins, **kw)

    monkeypatch.setattr(rate, "march", recording_march)
    estimate_rate(EndpointSpec(center=center, radius=1e-2 * center.l2()),
                  params_pi, basis, jm, u0, grid,
                  OptConfig(n_bins=2, n_rho=1, max_inner=1))
    assert sizes[:2] == [1, 2]


def test_rate_without_drift_marches_only_the_start(params_pi):
    # no mark moves a drift (every g_j = 0): every probe's gap is the start
    # row's, so nothing but that row is marched and phi = 1 stays optimal
    basis, u0, _, grid = rate_setup(params_pi)
    jm = JumpModel(nu=np.array([1.0, 0.5]), g=np.zeros(2))
    center = solve_skeleton(params_pi, basis, u0, jm,
                            constant_control(grid.T, 2, 1.0), grid).endpoint
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = estimate_rate(EndpointSpec(center=center, radius=1e-6), params_pi,
                            basis, jm, u0, grid, OptConfig(n_bins=2))
    assert (res.marches, res.skeleton_paths) == (1, 1)
    assert res.feasible and res.value == 0.0
    assert np.array_equal(res.control.phi, np.ones((2, 2)))


def test_rate_search_skips_only_candidates_it_would_reject(tmp_path, monkeypatch):
    # on the benchmark's tiny rate configuration (4x4 basis, 20 steps), the
    # search that marches every line-search candidate, its cost ruling it
    # out or not, finds the same answer bit for bit with more skeletons
    sys.path.insert(0, str(BENCH))
    try:
        from workloads import DEFAULT_SEED, ini_text
    finally:
        sys.path.remove(str(BENCH))
    ini = tmp_path / "rate.ini"
    ini.write_text(ini_text("rate-default", DEFAULT_SEED, "tiny", BENCH.parent),
                   encoding="utf-8")
    spec = parse_config(str(ini))
    assert (spec.basis.n1, spec.basis.n2, spec.grid.n_steps) == (4, 4, 20)
    center = solve_skeleton(spec.params, spec.basis, spec.u0, spec.jm,
                            Control(T=spec.grid.T, phi=spec.target_phi),
                            spec.grid).endpoint
    target = EndpointSpec(center=center, radius=spec.target_radius)

    def solve():
        return estimate_rate(target, spec.params, spec.basis, spec.jm, spec.u0,
                             spec.grid, _opt_config(spec))
    pruned = solve()
    monkeypatch.setattr(rate, "_may_improve", lambda c, f: True)
    every = solve()
    assert pruned.feasible
    for name in ("value", "endpoint_gap", "iterations", "feasible"):
        assert getattr(pruned, name) == getattr(every, name), name
    assert np.array_equal(pruned.control.phi, every.control.phi)
    assert pruned.skeleton_paths < every.skeleton_paths
    assert pruned.marches <= every.marches


def test_endpoint_spec_rejects_negative_radius(params_pi, basis8):
    with pytest.raises(ValueError):
        EndpointSpec(center=mode_field(basis8, 1, 1), radius=-1.0)
