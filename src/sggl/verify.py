"""Fast invariant suite behind the ``verify`` subcommand.

Runs structural checks (spectral exactness, Parseval, zero invariance,
sampler determinism, entropy-density convexity, thinning consistency) on the
configured model and collects violations; empty list means pass.
"""

from __future__ import annotations

import numpy as np

from .config import RunSpec
from .jumps import NoiseScale, constant_control, sample_prm
from .rate import cost, ell
from .skeleton import solve_skeleton
from .spde import solve_spde
from .spectral import (StateField, apply_A, apply_B, apply_F, compute_norms, mode_field,
                       zero_field)


def run_invariant_suite(spec: RunSpec) -> list[str]:
    failures: list[str] = []
    params, basis, jm, grid = spec.params, spec.basis, spec.jm, spec.grid

    def check(name: str, ok: bool, detail: str = ""):
        if not ok:
            failures.append(f"{name}: {detail}" if detail else name)

    # eigen-exactness of A on every basis mode
    coef = (1.0 + 1j * params.alpha) * basis.eigenvalues
    worst = 0.0
    for k in range(1, basis.n1 + 1):
        for m in range(1, basis.n2 + 1):
            got = apply_A(mode_field(basis, k, m), params).modes[k - 1, m - 1]
            worst = max(worst, abs(got - coef[k - 1, m - 1]) / abs(coef[k - 1, m - 1]))
    check("eigen_exactness", worst <= 1e-13, f"worst rel err {worst:.3g}")

    # Parseval on random fields: the coefficient L2 norm against the grid
    # quadrature of |u|^2
    rng = np.random.default_rng(0)
    z = rng.normal(size=(20, 2, basis.n1, basis.n2))
    nr = compute_norms(StateField(z[:, 0] + 1j * z[:, 1], basis), [2])
    worst = float(np.max(np.abs(nr.lp[2] - nr.l2) / nr.l2))
    check("parseval", worst <= 1e-9, f"worst rel err {worst:.3g}")

    # zero preservation
    z = zero_field(basis)
    check("zero_A", not apply_A(z, params).modes.any())
    check("zero_B", not apply_B(z, params).modes.any())
    check("zero_F", not apply_F(z, params).modes.any())

    # zero fixed point of the dynamics
    ctrl1 = constant_control(grid.T, jm.n_marks, 1.0)
    traj = solve_skeleton(params, basis, z, jm, ctrl1, grid)
    check("zero_skeleton", not traj.modes.any())
    eps = NoiseScale(spec.eps_list[0])
    traj = solve_spde(params, basis, z, jm, eps, grid, seed=spec.master_seed)
    check("zero_spde", not traj.modes.any())

    # sampler determinism
    s1 = sample_prm(jm, eps, grid.T, seed=spec.master_seed)
    s2 = sample_prm(jm, eps, grid.T, seed=spec.master_seed)
    check("prm_determinism", np.array_equal(s1.times, s2.times)
          and np.array_equal(s1.marks, s2.marks))
    c1 = sample_prm(jm, eps, grid.T, spec.master_seed, ctrl1)
    c2 = sample_prm(jm, eps, grid.T, spec.master_seed, ctrl1)
    check("thinning_determinism", np.array_equal(c1.times, c2.times))
    check("thinning_phi1_identity", np.array_equal(c1.times, s1.times)
          and np.array_equal(c1.marks, s1.marks))

    # entropy density: values and convexity
    check("ell_values", ell(1.0) == 0.0 and ell(0.0) == 1.0
          and abs(ell(np.e) - 1.0) < 1e-12)
    r = rng.uniform(0, 5, size=(200, 2))
    t = rng.uniform(0, 1, size=200)
    lhs = ell(t * r[:, 0] + (1 - t) * r[:, 1])
    rhs = t * ell(r[:, 0]) + (1 - t) * ell(r[:, 1])
    check("ell_convexity", bool(np.all(lhs <= rhs + 1e-12)))

    # cost of the unit control vanishes
    check("unit_control_zero_cost", cost(ctrl1, jm) == 0.0)
    return failures
