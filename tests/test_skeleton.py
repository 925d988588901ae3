"""Skeleton solver: fixed points, oracles, convergence, and refinement."""

import os

import numpy as np
import pytest

from sggl import (BlowUpError, Control, Parameters, StateField, TimeGrid,
                  constant_control, drift_coefficient,
                  galerkin_refine, make_basis, make_nonlin, mode_field,
                  solve_skeleton, zero_field)
from sggl.config import parse_config
from sggl.spectral import norm_powers

from conftest import jm2, rel_err


def rk4_oracle(params, basis, u0_modes, jm, ctrl, T, n_steps):
    """Classical RK4 on the same Galerkin system, integrated bin by bin.

    The drift coefficient is constant inside each control bin, so each bin is
    integrated separately; stage evaluations then never straddle a drift
    discontinuity and the oracle converges at full order.
    """
    nonlin = make_nonlin(params, basis)
    Lbase = (1.0 + 1j * params.alpha) * basis.eigenvalues + params.gamma
    c = u0_modes.astype(complex).copy()
    n_bins = ctrl.n_bins
    steps_per_bin = -(-n_steps // n_bins)
    for b in range(n_bins):
        L = Lbase + drift_coefficient(jm, ctrl.phi)[b]
        h = (T / n_bins) / steps_per_bin

        def rhs(v):
            return L * v + nonlin(v)

        for _ in range(steps_per_bin):
            k1 = rhs(c)
            k2 = rhs(c + 0.5 * h * k1)
            k3 = rhs(c + 0.5 * h * k2)
            k4 = rhs(c + h * k3)
            c = c + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return c


# ---------------------------------------------------------------------------
# fixed points and linearized dynamics

def test_zero_fixed_point(params_pi, basis8):
    grid = TimeGrid(T=0.5, n_steps=50)
    traj = solve_skeleton(params_pi, basis8, zero_field(basis8), jm2(),
                          constant_control(0.5, 2, 1.3), grid)
    assert np.all(traj.modes == 0)


def test_trajectory_time_axis(params_pi, basis8):
    grid = TimeGrid(T=0.5, n_steps=40)
    traj = solve_skeleton(params_pi, basis8, mode_field(basis8, 1, 1, 0.1),
                          jm2(), constant_control(0.5, 2, 1.0), grid)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.5, abs=1e-15)
    assert np.all(np.diff(traj.times) > 0)
    assert list(traj.norms) == ["l2", "grad_l2", "l2sigma2"]
    assert all(len(traj.modes) == len(traj.times) == len(v) for v in traj.norms.values())


def test_stacked_norms_match_per_field_norms():
    # the skeleton of configs/default.ini: the norms of its stacked states
    # equal the roots of each state's own norm_powers and the per-field
    # formulas bit for bit, the Lp root (np.power on the whole stack) included
    spec = parse_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                     "configs", "default.ini"))
    b, grid, n_bins = spec.basis, spec.grid, spec.ctrl.n_bins
    traj = solve_skeleton(spec.params, b, spec.u0, spec.jm, spec.ctrl, grid)
    n = grid.refined_steps(n_bins)
    dt = grid.T / n
    assert np.array_equal(traj.times, np.arange(n + 1) * dt)
    p = spec.params.lp_exponent
    assert p == 8
    nr = traj.norms
    for i, modes in enumerate(traj.modes):
        l2sq, gradsq, lp_p = norm_powers(b, modes, p)
        one_l2, one_grad, one_lp = np.sqrt(l2sq), np.sqrt(gradsq), np.power(lp_p, 1.0 / p)
        sq = np.abs(modes) ** 2
        U = b.to_grid(modes)
        u2 = U.real * U.real + U.imag * U.imag
        u4 = u2 * u2                        # |u|^8 by binary powering: (|u|^4)^2
        lp = float(np.power(b.cell_area * np.sum(u4 * u4), 1.0 / p))
        assert nr["l2"][i] == one_l2 == float(np.sqrt(np.sum(sq)))
        assert nr["grad_l2"][i] == one_grad == float(
            np.sqrt(np.sum(np.abs(b.eigenvalues) * sq)))
        assert nr["l2sigma2"][i] == one_lp == lp


def test_linearized_single_mode(params_pi, basis8):
    # |c| << 1: modes evolve as c exp(((1+i a) mu + gamma) t) up to O(|c|^7)
    c0 = 1e-4
    T = 0.2
    grid = TimeGrid(T=T, n_steps=80)
    traj = solve_skeleton(params_pi, basis8, mode_field(basis8, 1, 1, c0),
                          jm2(), constant_control(T, 2, 1.0), grid)
    mu = basis8.eigenvalues[0, 0]
    want = c0 * np.exp(((1 + 0.5j) * mu + 1.0) * T)
    got = traj.endpoint.modes[0, 0]
    assert abs(got - want) <= 1e-10 * abs(want)
    off = traj.endpoint.modes.copy()
    off[0, 0] = 0
    assert np.max(np.abs(off)) < 1e-20


def test_drift_control_closed_form(basis1, params_pi):
    # 1-bin control shifts the linear growth rate by sum g(phi-1)nu exactly
    c0 = 1e-4
    T = 0.3
    jm = jm2()
    ctrl = constant_control(T, 2, 1.8)
    grid = TimeGrid(T=T, n_steps=60)
    traj = solve_skeleton(params_pi, basis1, mode_field(basis1, 1, 1, c0),
                          jm, ctrl, grid)
    drift = drift_coefficient(jm, ctrl.phi)[0]
    want = c0 * np.exp(((1 + 0.5j) * (-2.0) + 1.0 + drift) * T)
    assert abs(traj.endpoint.modes[0, 0] - want) <= 1e-10 * abs(want)


# ---------------------------------------------------------------------------
# high-resolution RK4 oracle

def full_params():
    return Parameters(alpha=0.5, beta=0.5, gamma=1.0, sigma=3.0, L1=np.pi,
                      L2=np.pi, lambda1=(0.1, 0.05), lambda2=(0.05, -0.02))


def test_nonlinear_endpoint_vs_rk4(params_pi):
    p = full_params()
    basis = make_basis(8, 8, p)
    u0 = zero_field(basis)
    u0.modes[0, 0] = 0.5
    u0.modes[1, 1] = 0.25 + 0.1j
    jm = jm2()
    ctrl = constant_control(0.5, 2, 1.5)
    n_steps = 100
    grid = TimeGrid(T=0.5, n_steps=n_steps)
    traj = solve_skeleton(p, basis, u0, jm, ctrl, grid)
    ref = rk4_oracle(p, basis, u0.modes, jm, ctrl, 0.5, 100 * n_steps)
    num = np.sqrt(np.sum(np.abs(traj.endpoint.modes - ref) ** 2))
    den = np.sqrt(np.sum(np.abs(ref) ** 2))
    assert num / den < 1e-5


def test_binned_control_vs_rk4(params_pi):
    p = full_params()
    basis = make_basis(8, 8, p)
    u0 = mode_field(basis, 1, 1, 0.4)
    jm = jm2()
    ctrl = Control(T=0.5, phi=np.array([[2.0, 0.5], [0.3, 1.5]]))
    grid = TimeGrid(T=0.5, n_steps=100)
    traj = solve_skeleton(p, basis, u0, jm, ctrl, grid)
    ref = rk4_oracle(p, basis, u0.modes, jm, ctrl, 0.5, 10_000)
    assert rel_err(traj.endpoint.modes, ref) < 1e-5


def test_second_order_step_convergence():
    # halving dt shrinks the endpoint error by a factor in [3.4, 4.6]
    p = full_params()
    basis = make_basis(8, 8, p)
    u0 = mode_field(basis, 1, 1, 0.5)
    jm = jm2()
    ctrl = constant_control(0.5, 2, 1.5)
    ref = rk4_oracle(p, basis, u0.modes, jm, ctrl, 0.5, 8000)

    def err(n_steps):
        traj = solve_skeleton(p, basis, u0, jm, ctrl,
                              TimeGrid(T=0.5, n_steps=n_steps))
        return np.sqrt(np.sum(np.abs(traj.endpoint.modes - ref) ** 2))

    e1, e2, e3 = err(20), err(40), err(80)
    assert 3.4 <= e1 / e2 <= 4.6
    assert 3.4 <= e2 / e3 <= 4.6


# ---------------------------------------------------------------------------
# blow-up detection

def test_blowup_reports_step(params_pi, basis8):
    # a large initial mode: the first coarse step overshoots the cap ~2e8-fold
    u0 = mode_field(basis8, 1, 1, 5.0)
    grid = TimeGrid(T=0.5, n_steps=4)
    with pytest.raises(BlowUpError) as exc:
        solve_skeleton(params_pi, basis8, u0, jm2(),
                       constant_control(0.5, 2, 1.0), grid)
    assert exc.value.step >= 1
    assert exc.value.norm > exc.value.cap


# ---------------------------------------------------------------------------
# control continuity under bin refinement

def test_control_continuity_bin_refinement(params_pi):
    # piecewise-constant samplings of a smooth phi converge to its trajectory
    p = full_params()
    basis = make_basis(8, 8, p)
    u0 = mode_field(basis, 1, 1, 0.3)
    jm = jm2()
    T = 0.5
    grid = TimeGrid(T=T, n_steps=96)

    def binned(n_bins):
        mids = (np.arange(n_bins) + 0.5) * T / n_bins
        phi = 1.0 + 0.8 * np.sin(2 * np.pi * mids / T)[:, None] * np.ones((1, 2))
        return Control(T=T, phi=np.maximum(phi, 0.0))

    ref = solve_skeleton(p, basis, u0, jm, binned(96), grid)

    def sup_dist(n_bins):
        traj = solve_skeleton(p, basis, u0, jm, binned(n_bins), grid)
        return max(np.sqrt(np.sum(np.abs(a - b) ** 2))
                   for a, b in zip(traj.modes, ref.modes))

    d = [sup_dist(n) for n in (2, 4, 8, 16)]
    for a, b in zip(d, d[1:]):
        assert b <= 1.1 * a
    assert d[-1] < 0.1 * d[0]


# ---------------------------------------------------------------------------
# Galerkin refinement

def test_galerkin_refine_linear_no_coupling(params_pi):
    # lambda = 0 and tiny amplitude: modes evolve independently, so every
    # truncation supported on the common modes agrees with the reference
    u0_modes = np.zeros((4, 4), dtype=complex)
    u0_modes[0, 0] = 1e-5
    basis4 = make_basis(4, 4, params_pi)
    u0 = StateField(u0_modes, basis4)
    out = galerkin_refine(params_pi, jm2(), constant_control(0.3, 2, 1.0),
                          u0, TimeGrid(T=0.3, n_steps=30), [4, 8, 16])
    for n, err in out:
        assert err < 1e-10


def test_galerkin_refine_monotone(params_pi):
    p = full_params()
    basis = make_basis(4, 4, p)
    u0 = zero_field(basis)
    u0.modes[0, 0] = 0.5
    u0.modes[1, 0] = 0.3
    out = galerkin_refine(p, jm2(), constant_control(0.25, 2, 1.5), u0,
                          TimeGrid(T=0.25, n_steps=50), [4, 8, 16, 32])
    errs = [e for _, e in out]
    assert all(b <= 1.1 * a for a, b in zip(errs, errs[1:]))


def test_galerkin_refine_needs_increasing_list(params_pi, basis8):
    u0 = mode_field(basis8, 1, 1, 0.1)
    for n_list in ([8, 4], [4, 4, 8]):
        with pytest.raises(ValueError):
            galerkin_refine(params_pi, jm2(), constant_control(0.2, 2, 1.0), u0,
                            TimeGrid(T=0.2, n_steps=10), n_list)
