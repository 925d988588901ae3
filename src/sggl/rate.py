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
solve is one row of a batched ``march``, a gradient marches one
forward-difference row per bin in one march (the bin's other marks take
their gaps linearized along its drift), and the line search marches its
candidate steps in batches that double in size, leaving out a step whose
cost alone rules it out.  The search keeps the gap of every drift row it has
marched and marches each row once.  A row's result does not depend on its
batch and candidates are accepted in their serial order, so the estimate is
the one that solving the skeletons one at a time gives, bit for bit.
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


def _may_improve(c: float, f: float) -> bool:
    """Whether a line-search candidate of cost c can pass the search's test
    objective < f - 1e-14; its objective is at least its cost, so one that
    fails here is rejected without a march."""
    return c < f - 1e-14


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
    forward-difference gradients and backtracking line search.  The result
    is chosen among the accepted iterates and the last one: an iterate is
    feasible when ``violation(gap) <= gap_tol``; the cheapest feasible one
    wins, else the one of smallest gap, and the earliest wins a tie.  A
    gradient's n_bins x K forward differences take their cost part entry by
    entry and their gaps from n_bins drift rows in one march: per bin, the
    probe of the mark that moves the drift most (none if no mark moves it),
    each other mark's gap linearized along the drift from that row's.  A
    march holds only the drift rows the search has not marched before.  The
    line search tries steps s, s/2, s/4, ... (at most 25), marched in that
    order in batches of 2, 4, 8, ..., and accepts the first that improves
    the objective, so it accepts what a serial search would, bit for bit.
    A candidate whose cost alone rules out an improvement is not marched.
    Infeasibility within the budget is reported via the ``feasible`` flag
    (the numerical proxy for an infinite rate), never as a sentinel value.
    """
    K = jm.n_marks
    shape = (opt_cfg.n_bins, K)
    tol = opt_cfg.gap_tol
    marches = paths = 0
    # a probe of mark j moves its bin's drift by h*w[j], ratio[j] times as
    # much as the lead mark's, which moves it most (the first on a tie)
    w = jm.g * jm.nu
    lead = int(np.argmax(np.abs(w)))
    ratio = w / w[lead] if w[lead] else None

    known = {}      # the gap of every drift row marched, keyed by its bytes

    def gaps_of(phis):
        nonlocal marches, paths
        drift = drift_coefficient(jm, phis)
        keys = [row.tobytes() for row in drift]
        # the rows not marched yet, each once, in first-seen order
        fresh = {key: row for key, row in zip(keys, drift) if key not in known}
        if fresh:
            marches += 1
            paths += len(fresh)
            known.update(zip(fresh, _endpoint_gaps(
                np.array(list(fresh.values())), target, params, basis, u0, grid)))
        return [known[key] for key in keys]

    def probe_gaps(probes, gap):
        """Gaps of the n_bins*K forward-difference ``probes`` of a control
        whose gap is ``gap``: bin b's lead-mark probe is marched, and every
        other mark of the bin takes its gap linearized along the bin's drift,
        gap + ratio[j] * (that row's gap - gap); a blown-up row makes them
        +inf, and a mark that moves no drift keeps ``gap``."""
        if ratio is None:
            return [gap] * len(probes)
        row_gaps = np.array(gaps_of(probes.reshape(shape + shape)[:, lead]))
        blown = np.isinf(row_gaps)
        lin = gap + ratio * np.where(blown, 0.0, row_gaps - gap)[:, None]
        lin[blown[:, None] & (ratio != 0)] = math.inf
        lin[:, lead] = row_gaps
        return lin.ravel().tolist()

    def cost_of(phi):
        return _phi_cost(phi, jm, grid.T)

    def violation(gap):
        return max(0.0, gap - target.radius)

    def objective(phi, gap):
        return cost_of(phi) + rho * violation(gap) ** 2

    seen = []     # (cost, phi, gap) of each accepted iterate, then the last
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
            f2 = np.array([objective(p, g)
                           for p, g in zip(probes, probe_gaps(probes, gap))])
            grad = ((f2 - f) / h).reshape(shape)
            gnorm = float(np.sqrt(np.sum(grad**2)))
            if gnorm < 1e-10:
                break
            # backtracking projected line search over a ladder of batches
            scales = np.ldexp(step, -np.arange(25))      # step / 2^k, exactly
            improved = False
            lo, size = 0, 2
            while lo < scales.size and not improved:
                batch = scales[lo:lo + size]
                cands = np.maximum(0.0, phi - batch[:, None, None] * grad)
                live = np.array([_may_improve(cost_of(c), f) for c in cands], dtype=bool)
                batch, cands = batch[live], cands[live]
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
            seen.append((cost_of(phi), phi, gap))
        if violation(gap) <= tol and rho > _RHO0 * 10:
            break
        rho *= _RHO_GROWTH
    seen.append((cost_of(phi), phi, gap))

    def key(it):
        return (0, it[0]) if violation(it[2]) <= tol else (1, it[2])
    c_val, phi_best, gap_best = min(seen, key=key)
    feasible = violation(gap_best) <= tol
    return RateResult(value=c_val, control=Control(T=grid.T, phi=phi_best),
                      endpoint_gap=gap_best, iterations=iterations,
                      feasible=feasible, marches=marches, skeleton_paths=paths)

