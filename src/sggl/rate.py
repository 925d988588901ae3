"""Relative-entropy cost of controls and the numerical rate-function estimator.

The cost of a piecewise-constant intensity phi is the relative-entropy
functional sum_b sum_j l(phi[b,j]) nu_j (T/n_bins) with density
l(r) = r log r - r + 1.  The rate of an endpoint event (a closed ball around
a target field) is estimated by exterior-penalty minimization of the cost
subject to the skeleton endpoint landing in the ball: one penalty
continuation from the noiseless control phi = 1, with projected
finite-difference gradient descent over the control entries.

A skeleton sees its control only through the compensator drift on each bin
(``drift_coefficient``), so the search marches drift rows: every skeleton
solve is one row of a batched ``march``, a gradient's forward differences
share one march, and the line search marches its candidate steps in batches
that double in size.  A row's result does not depend on its batch and
candidates are accepted in their serial order, so the estimate is the one
that solving the skeletons one at a time gives, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jumps import Control, JumpModel, drift_coefficient
from .params import Parameters
from .skeleton import TimeGrid, march
from .spectral import SpectralBasis, StateField, norm_powers


def ell(r) -> float:
    """Entropy density l(r) = r log r - r + 1, with l(0) = 1 by continuity."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("l(r) is defined for r >= 0 only")
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.where(r > 0, r * np.log(np.where(r > 0, r, 1.0)) - r + 1.0, 1.0)
    return float(v) if v.ndim == 0 else v


def cost(ctrl: Control, jm: JumpModel) -> float:
    """Relative-entropy cost; exact for piecewise-constant controls."""
    return _phi_cost(ctrl.phi, jm, ctrl.T)


def _phi_cost(phi: np.ndarray, jm: JumpModel, T: float) -> float:
    """Cost of the (n_bins, K) intensities ``phi`` on [0, T]."""
    dt_bin = T / phi.shape[0]
    return float(np.sum(ell(phi) * jm.nu[None, :]) * dt_bin)


def in_level_set(ctrl: Control, jm: JumpModel, N: float) -> bool:
    """Membership in the closed level set {cost <= N}."""
    if N < 0:
        raise ValueError("level N must be >= 0")
    return cost(ctrl, jm) <= N


@dataclass(frozen=True)
class EndpointSpec:
    """Target event: skeleton endpoint within ``radius`` of ``center`` in L2."""

    center: StateField
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("radius must be >= 0")

    def gaps(self, modes: np.ndarray) -> np.ndarray:
        """L2 distance from the center of each field of a (..., n1, n2)
        coefficient stack, shaped like its leading axes; the field is in
        the event ball when its gap is at most ``radius``."""
        return np.sqrt(norm_powers(self.center.basis, modes - self.center.modes)[0])


_RHO0 = 10.0            # penalty weight of the first continuation stage
_RHO_GROWTH = 10.0      # penalty weight factor between continuation stages


@dataclass(frozen=True)
class OptConfig:
    n_bins: int = 1
    n_rho: int = 6
    max_inner: int = 60
    fd_step: float = 1e-4
    step0: float = 0.5
    gap_tol: float = 1e-4


@dataclass
class RateResult:
    """Estimate and its cost: ``marches`` batched skeleton marches that
    solved ``skeleton_paths`` skeletons in all."""

    value: float
    control: Control
    endpoint_gap: float
    iterations: int
    feasible: bool
    marches: int
    skeleton_paths: int


def _endpoint_gaps(drift: np.ndarray, target: EndpointSpec, params, basis,
                   u0, grid) -> list[float]:
    """Endpoint gap of the skeleton under each (n_bins,) drift row
    ``drift[i]``, all marched at once; inf for a skeleton that blew up."""
    none = np.empty((len(drift), 0))
    res = march(params, basis, u0, grid, none, none, drift, drift.shape[1])
    gaps = target.gaps(res.endpoints)
    # an exploding skeleton can never satisfy the endpoint constraint; an
    # infinite gap lets the line search back off the candidate
    gaps[[err is not None for err in res.errors]] = math.inf
    return gaps.tolist()


def estimate_rate(target: EndpointSpec, params: Parameters, basis: SpectralBasis,
                  jm: JumpModel, u0: StateField, grid: TimeGrid,
                  opt_cfg: OptConfig = OptConfig()) -> RateResult:
    """Estimate inf{cost(phi) : skeleton endpoint within the target ball}.

    Exterior penalty with geometric continuation in rho, started once from
    phi = 1; the inner loop is projected gradient descent (phi >= 0) with
    forward-difference gradients and backtracking line search, and the
    result is the best iterate seen (feasible first, then cheapest).  Control
    dimension n_bins x K stays small, so finite differences are affordable:
    the n_bins x K perturbed controls of a gradient share one march.  The
    line search tries steps s, s/2, s/4, ... (at most 25), marched in that
    order in batches of 2, 4, 8, ..., and accepts the first that improves
    the objective, so it accepts what a serial search would, bit for bit.
    Infeasibility within the budget is reported via the ``feasible`` flag
    (the numerical proxy for an infinite rate), never as a sentinel value.
    """
    K = jm.n_marks
    shape = (opt_cfg.n_bins, K)
    tol = opt_cfg.gap_tol
    marches = paths = 0

    def gaps_of(phis):
        nonlocal marches, paths
        marches += 1
        paths += len(phis)
        return _endpoint_gaps(drift_coefficient(jm, phis), target, params,
                              basis, u0, grid)

    def cost_of(phi):
        return _phi_cost(phi, jm, grid.T)

    def violation(gap):
        return max(0.0, gap - target.radius)

    def objective(phi, gap):
        return cost_of(phi) + rho * violation(gap) ** 2

    best = None   # (cost, phi, gap)
    iterations = 0
    phi = np.ones(shape)
    gap = gaps_of(phi[None])[0]
    rho = _RHO0
    h = opt_cfg.fd_step
    for _outer in range(opt_cfg.n_rho):
        f = objective(phi, gap)
        step = opt_cfg.step0
        for _inner in range(opt_cfg.max_inner):
            iterations += 1
            probes = phi + h * np.eye(phi.size).reshape((-1,) + shape)
            f2 = np.array([objective(p, g) for p, g in zip(probes, gaps_of(probes))])
            grad = ((f2 - f) / h).reshape(shape)
            gnorm = float(np.sqrt(np.sum(grad**2)))
            if gnorm < 1e-10:
                break
            # backtracking projected line search over a ladder of batches
            scales = step * 0.5 ** np.arange(25)
            improved = False
            lo, size = 0, 2
            while lo < scales.size and not improved:
                batch = scales[lo:lo + size]
                cands = np.maximum(0.0, phi - batch[:, None, None] * grad)
                for s, cand, gc in zip(batch, cands, gaps_of(cands)):
                    fc = objective(cand, gc)
                    if fc < f - 1e-14:
                        phi, f, gap = cand, fc, gc
                        step = min(s * 2.0, 1e3)
                        improved = True
                        break
                lo, size = lo + size, 2 * size
            if not improved:
                break
            cur = (cost_of(phi), phi.copy(), gap)
            best = _better(best, cur, target.radius, tol)
        if violation(gap) <= tol and rho > _RHO0 * 10:
            break
        rho *= _RHO_GROWTH
    best = _better(best, (cost_of(phi), phi.copy(), gap), target.radius, tol)

    c_val, phi_best, gap_best = best
    feasible = violation(gap_best) <= tol
    return RateResult(value=c_val, control=Control(T=grid.T, phi=phi_best),
                      endpoint_gap=gap_best, iterations=iterations,
                      feasible=feasible, marches=marches, skeleton_paths=paths)


def _better(best, cand, radius: float, tol: float):
    """Prefer feasible candidates; among feasible, lower cost; else lower gap."""
    if best is None:
        return cand
    bc, _, bg = best
    cc, _, cg = cand
    b_feas = bg <= radius + tol
    c_feas = cg <= radius + tol
    if c_feas and not b_feas:
        return cand
    if b_feas and not c_feas:
        return best
    if b_feas:
        return cand if cc < bc else best
    return cand if cg < bg else best
