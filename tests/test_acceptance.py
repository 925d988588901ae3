"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line
with its measured figure of merit and runtime.
"""

import os
import time

import numpy as np
import pytest

from sggl import (Control, EndpointSpec, JumpModel, NoiseScale, OptConfig,
                  Parameters, StateField, TimeGrid, apply_A, constant_control,
                  convergence_sweep, cost, ell, energy_audit, estimate_rate,
                  galerkin_refine, make_basis, mode_field, sample_prm,
                  solve_skeleton, solve_spde, tail_probability, zero_field)
from sggl.cli import main

from conftest import jm2


def _report(num: int, label: str, ok: bool, detail: str, t0: float,
            budget: float):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"\nACCEPTANCE {num} {status}: {label} ({detail}, "
          f"{elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f}s"


def full_params():
    return Parameters(alpha=0.5, beta=0.5, gamma=1.0, sigma=3.0,
                      L1=np.pi, L2=np.pi,
                      lambda1=np.array([0.1 + 0j, 0.05 + 0j]),
                      lambda2=np.array([0.05 + 0j, -0.02 + 0j]))


def test_criterion_1_spectral_exactness(params_pi):
    t0 = time.perf_counter()
    basis = make_basis(16, 16, params_pi, pad_factor=4)
    worst = 0.0
    for k in range(1, 17):
        for m in range(1, 17):
            e = mode_field(basis, k, m, 1.0)
            got = apply_A(e, params_pi).modes
            want = (1 + 1j * params_pi.alpha) * basis.eigenvalues[k - 1,
                                                                  m - 1] \
                * e.modes
            denom = np.max(np.abs(want))
            worst = max(worst, np.max(np.abs(got - want)) / denom)
    _report(1, "eigenfunction action of the linear operator", worst <= 1e-13,
            f"max rel err {worst:.2e}", t0, 1.0)


def test_criterion_2_zero_state_invariance(params_pi):
    t0 = time.perf_counter()
    basis = make_basis(2, 2, params_pi, pad_factor=4)
    jm = jm2()
    grid = TimeGrid(T=0.2, n_steps=10)
    u0 = zero_field(basis)
    ctrl = constant_control(grid.T, 2, 1.5)

    def all_zero(traj):
        return not np.any(traj.modes)

    ok = all_zero(solve_skeleton(params_pi, basis, u0, jm, ctrl, grid))
    for seed in range(100):
        a = solve_spde(params_pi, basis, u0, jm, NoiseScale(0.25), grid, seed)
        b = solve_spde(params_pi, basis, u0, jm, NoiseScale(0.25), grid, seed,
                       ctrl=ctrl)
        ok = ok and all_zero(a) and all_zero(b)
    _report(2, "zero field invariant under all three solvers", ok,
            "100 seeds, exact", t0, 10.0)


def test_criterion_3_scalar_product_formula(params_pi):
    t0 = time.perf_counter()
    basis = make_basis(1, 1, params_pi, pad_factor=4)
    u0 = mode_field(basis, 1, 1, amp=1e-3 + 5e-4j)
    g, nu = 0.4, 1.0
    jm = JumpModel(nu=np.array([nu]), g=np.array([g]))
    T = 0.3
    grid = TimeGrid(T=T, n_steps=30)
    eps = NoiseScale(0.25)
    mu = basis.eigenvalues[0, 0]
    worst = 0.0
    for seed in range(50):
        events = sample_prm(jm, eps, T, seed)
        got = solve_spde(params_pi, basis, u0, jm, eps, grid,
                         seed).endpoint.modes[0, 0]
        want = (u0.modes[0, 0]
                * np.exp(((1 + 1j * params_pi.alpha) * mu
                          + params_pi.gamma - g * nu) * T)
                * (1 + eps.epsilon * g) ** events.n_events)
        worst = max(worst, abs(got - want) / abs(want))
    _report(3, "single-mode jump system matches the closed-form product",
            worst <= 1e-8, f"max rel err {worst:.2e} over 50 seeds", t0, 10.0)


@pytest.mark.slow
def test_criterion_4_sqrt_eps_convergence(params_pi):
    t0 = time.perf_counter()
    basis = make_basis(8, 8, params_pi, pad_factor=4)
    u0 = zero_field(basis)
    u0.modes[0, 0] = 0.5
    u0.modes[1, 1] = 0.25 + 0.1j
    jm = jm2()
    grid = TimeGrid(T=0.5, n_steps=100)
    ctrl = Control(T=grid.T, phi=np.array([[1.5, 0.5], [1.0, 1.5]]))
    eps_list = [2.0 ** (-k) for k in range(3, 10)]
    rep = convergence_sweep(params_pi, basis, jm, u0, ctrl, grid, eps_list,
                            n_samples=400, master_seed=12345)
    ok = rep.slope >= 0.4 and rep.r2 >= 0.9 and not rep.slope_flag
    _report(4, "controlled-process error shrinks like a power of the noise "
            "scale", ok, f"slope {rep.slope:.3f}, R2 {rep.r2:.4f}", t0,
            15 * 60.0)


def test_criterion_5_energy_bound_audit(params_pi):
    t0 = time.perf_counter()
    basis = make_basis(4, 4, params_pi, pad_factor=4)
    u0 = mode_field(basis, 1, 1, 0.3)
    jm = jm2()
    grid = TimeGrid(T=0.25, n_steps=25)
    rng = np.random.default_rng(0)
    violations = 0
    checked = 0
    while checked < 50:
        ctrl = Control(T=grid.T, phi=rng.uniform(0.0, 3.0, size=(2, 2)))
        if cost(ctrl, jm) > 5.0:
            continue
        checked += 1
        traj = solve_skeleton(params_pi, basis, u0, jm, ctrl, grid)
        rep = energy_audit(traj, params_pi, jm, ctrl=ctrl)
        if not (rep.energy_ok and rep.grad_ok):
            violations += 1
    _report(5, "a priori energy bounds hold for bounded-cost controls",
            violations == 0, f"{violations} violations in {checked} controls",
            t0, 5 * 60.0)


def test_criterion_6_rate_function_sanity(params_pi):
    t0 = time.perf_counter()
    basis = make_basis(2, 2, params_pi, pad_factor=4)
    u0 = mode_field(basis, 1, 1, 1e-2)
    jm = JumpModel(nu=np.array([1.0]), g=np.array([0.5]))
    grid = TimeGrid(T=0.25, n_steps=25)

    # (a) the unperturbed endpoint costs nothing
    ctrl1 = constant_control(grid.T, 1, 1.0)
    center1 = solve_skeleton(params_pi, basis, u0, jm, ctrl1, grid).endpoint
    res_a = estimate_rate(EndpointSpec(center=center1, radius=0.0), params_pi,
                          basis, jm, u0, grid,
                          OptConfig(n_bins=1, gap_tol=1e-8))
    ok_a = res_a.feasible and res_a.value <= 1e-6

    # (b) never worse than a control known to generate the target
    phi_star = Control(T=grid.T, phi=np.array([[1.9]]))
    center_b = solve_skeleton(params_pi, basis, u0, jm, phi_star,
                              grid).endpoint
    rad_b = 1e-3 * abs(center_b.modes[0, 0])
    res_b = estimate_rate(EndpointSpec(center=center_b, radius=rad_b),
                          params_pi, basis, jm, u0, grid,
                          OptConfig(n_bins=1, n_rho=8, gap_tol=rad_b * 1e-2))
    ok_b = res_b.feasible and res_b.value <= 1.05 * cost(phi_star, jm)

    # (c) scalar case against a bisection oracle: the cheapest point of the
    # ball is its low-magnitude edge, found by bisecting the endpoint size
    center_c = solve_skeleton(params_pi, basis, u0, jm,
                              Control(T=grid.T, phi=np.array([[1.6]])),
                              grid).endpoint
    target_mag = abs(center_c.modes[0, 0])
    rad_c = 0.05 * target_mag

    def endpoint_mag(phi):
        traj = solve_skeleton(params_pi, basis, u0, jm,
                              Control(T=grid.T, phi=np.array([[phi]])), grid)
        return abs(traj.endpoint.modes[0, 0])

    lo, hi = 0.5, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if endpoint_mag(mid) < target_mag - rad_c:
            lo = mid
        else:
            hi = mid
    oracle = ell(0.5 * (lo + hi)) * 1.0 * grid.T
    res_c = estimate_rate(EndpointSpec(center=center_c, radius=rad_c),
                          params_pi, basis, jm, u0, grid,
                          OptConfig(n_bins=1, n_rho=9, gap_tol=rad_c * 1e-4,
                                    fd_step=1e-5))
    ok_c = res_c.feasible and abs(res_c.value - oracle) <= 1e-3

    _report(6, "rate estimates: zero at the free endpoint, bounded by "
            "generating controls, matching the scalar oracle",
            ok_a and ok_b and ok_c,
            f"free {res_a.value:.2e}; vs control "
            f"{res_b.value:.4f}<= {1.05 * cost(phi_star, jm):.4f}; "
            f"oracle gap {abs(res_c.value - oracle):.2e}", t0, 10 * 60.0)


@pytest.mark.slow
def test_criterion_7_ldp_upper_bound(params_pi):
    t0 = time.perf_counter()
    # Event: the endpoint collapses to at most a tenth of its noiseless
    # size, i.e. into the ball of radius 0.05*|u_det(T)| around
    # 0.05*u_det(T).  It is hit when markedly fewer jumps than typical
    # arrive, and the thin lower Poisson tail keeps the empirical decay
    # close to the rate-function prediction already at moderate noise.
    basis = make_basis(2, 2, params_pi, pad_factor=4)
    u0 = mode_field(basis, 1, 1, 1e-3)
    jm = JumpModel(nu=np.array([16.0]), g=np.array([1.0]))
    grid = TimeGrid(T=0.5, n_steps=50)
    skel = solve_skeleton(params_pi, basis, u0, jm,
                          constant_control(grid.T, 1, 1.0), grid)
    center = StateField(0.05 * skel.endpoint.modes, basis)
    radius = 0.05 * skel.endpoint.l2()
    event = EndpointSpec(center=center, radius=radius)

    res = estimate_rate(event, params_pi, basis, jm, u0, grid,
                        OptConfig(n_bins=1, n_rho=10, max_inner=200,
                                  gap_tol=radius * 1e-3, fd_step=1e-6,
                                  step0=0.1))
    assert res.feasible
    rate = res.value

    eps_list = [0.2, 0.17, 0.1445, 0.1228]
    rep = tail_probability(params_pi, basis, jm, u0, grid, event, eps_list,
                           n_samples=5000, master_seed=2024)
    cells = [c for c in rep.cells if not c.censored]
    ok = len(cells) == len(eps_list)
    margins = []
    for c in cells:
        margin = c.eps_log_p + rate + 2 * c.se_eps_log_p + 0.5 * rate
        margins.append(c.eps_log_p + rate)
        ok = ok and margin >= 0.0
    for a, b in zip(cells, cells[1:]):
        ok = ok and (b.eps_log_p
                     >= a.eps_log_p - 2 * (a.se_eps_log_p + b.se_eps_log_p))
    _report(7, "empirical tail decay never beats the rate-function bound",
            ok, f"rate {rate:.4f}, eps*log p + I = "
            + ", ".join(f"{m:+.3f}" for m in margins), t0, 30 * 60.0)


def test_criterion_8_galerkin_refinement(params_pi):
    t0 = time.perf_counter()
    p = Parameters(alpha=0.5, beta=0.5, gamma=1.0, sigma=3.0,
                   L1=np.pi, L2=np.pi,
                   lambda1=np.array([0.1 + 0j, 0.0 + 0j]))
    basis = make_basis(4, 4, p, pad_factor=4)
    u0 = zero_field(basis)
    u0.modes[0, 0] = 0.5
    u0.modes[1, 0] = 0.3
    out = galerkin_refine(p, jm2(), constant_control(0.25, 2, 1.5), u0,
                          TimeGrid(T=0.25, n_steps=50), [4, 8, 16, 32])
    errs = [e for _, e in out]
    ok = all(b <= 1.1 * a for a, b in zip(errs, errs[1:]))
    _report(8, "endpoint error decreases with basis size",
            ok, "errors " + ", ".join(f"{e:.2e}" for e in errs), t0,
            5 * 60.0)


ACCEPT_CONFIG = """\
[physics]
alpha = 0.5
beta = 0.5
gamma = 1.0
sigma = 3.0
L1 = 3.141592653589793
L2 = 3.141592653589793
lambda1 = 0.1+0j, 0.05+0j
lambda2 = 0.05+0j, -0.02+0j

[spectral]
n1 = 4
n2 = 4
pad_factor = 4

[jumps]
nu = 1.0, 0.5
g = 0.5, -0.3

[control]
phi = 1.5, 0.5; 1.0, 1.5

[time]
T = 0.2
n_steps = 20

[noise]
eps_list = 0.25, 0.125

[initial]
modes = 1, 1, 0.3, 0.0

[harness]
n_samples = 10

[run]
master_seed = 99
workers = 1
"""


def test_criterion_9_deterministic_reruns(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "run.ini"
    cfg.write_text(ACCEPT_CONFIG)
    ok = True
    blobs = {}
    for tag, extra in [("a", []), ("b", []), ("c", ["--workers", "3"])]:
        for cmd in ("simulate", "sweep"):
            out = tmp_path / f"{cmd}_{tag}"
            ok = ok and main([cmd, "--config", str(cfg), "--out",
                              str(out)] + extra) == 0
            for name in sorted(os.listdir(out)):
                data = (out / name).read_bytes()
                key = (cmd, name)
                if key in blobs:
                    ok = ok and blobs[key] == data
                else:
                    blobs[key] = data
    _report(9, "subcommand reruns are byte-identical across worker counts",
            ok, f"{len(blobs)} files compared over 3 runs", t0, 2 * 60.0)
