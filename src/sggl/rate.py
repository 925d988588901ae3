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
their gaps linearized along its drift), the start phi = 1 marches with its
first gradient's rows, and the line search marches its candidate steps in
the batches of ``_LADDER``, leaving out a step whose cost alone rules it
out.  Every march of a search shares one nonlinearity kernel.  A control's
forward differences are taken once and reused when a new penalty weight
restarts the search at that control.  A row's result does not depend on its
batch and candidates are accepted in their serial order, so the estimate is
the one that solving the skeletons one at a time gives, bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .jumps import Control, JumpModel, drift_coefficient
from .params import Parameters
from .skeleton import TimeGrid, march
from .spectral import SpectralBasis, StateField, make_nonlin, norm_powers


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
        # a NaN radius fails too; +inf is a ball that holds every field
        if not self.radius >= 0:
            raise ValueError(f"radius must be >= 0, got {self.radius!r}")

    def gaps(self, modes: np.ndarray) -> np.ndarray:
        """L2 distance from the center of each field of a (..., n1, n2)
        coefficient stack, shaped like its leading axes; the field is in
        the event ball when its gap is at most ``radius``."""
        return np.sqrt(norm_powers(self.center.basis, modes - self.center.modes)[0])


_RHO0 = 10.0            # penalty weight of the first continuation stage
_RHO_GROWTH = 10.0      # penalty weight factor between continuation stages
# Where the line search splits its candidate steps s, s/2, ..., s/2^24 into
# the batches it marches in turn: 2, 2, 4 and 17.  A march costs a fixed
# part plus well over half of it again per row, and a search that rejects s
# to s/8 finds no step at all most of the time, so the rest go in one march.
_LADDER = (2, 4, 8)


@dataclass(frozen=True)
class OptConfig:
    n_bins: int = 1
    n_rho: int = 6
    max_inner: int = 60
    fd_step: float = 1e-4
    step0: float = 0.5
    gap_tol: float = 1e-4

    def __post_init__(self):
        # each int field is a count, each float a step size or tolerance;
        # the [rate] keys are read through this check too
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(f.default, int):
                if not (isinstance(v, numbers.Integral) and v >= 1):
                    raise ValueError(f"{f.name} must be an integer >= 1, got {v!r}")
            elif not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v!r}")
            elif not v > 0:
                raise ValueError(f"{f.name} must be > 0, got {v!r}")


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
                   u0, grid, nonlin) -> list[float]:
    """Endpoint gap of the skeleton under each (n_bins,) drift row
    ``drift[i]``, all marched at once with the kernel ``nonlin``; inf for a
    skeleton that blew up."""
    none = np.empty((len(drift), 0))
    res = march(params, basis, u0, grid, none, none, drift, drift.shape[1],
                nonlin=nonlin)
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
    each other mark's gap linearized along the drift from that row's.  They
    are taken at a control when an iteration first needs them there, and a
    new penalty weight that restarts at the same control reuses them; the
    first iteration always needs them at phi = 1, so their rows march with
    the start's.  The line search tries steps s, s/2, s/4, ... (at most 25),
    marched in that order in batches of 2, 2, 4 and 17 (``_LADDER``), and
    accepts the first that improves the objective, so it accepts what a
    serial search would, bit for bit.  A candidate whose cost alone rules
    out an improvement is not marched.  Every march shares one kernel.
    Infeasibility within the budget is reported via the ``feasible`` flag
    (the numerical proxy for an infinite rate), never as a sentinel value.
    """
    shape = (opt_cfg.n_bins, jm.n_marks)
    tol = opt_cfg.gap_tol
    h = opt_cfg.fd_step
    marches = paths = 0
    # a probe of mark j moves its bin's drift by h*w[j], ratio[j] times as
    # much as the lead mark's, which moves it most (the first on a tie)
    w = jm.g * jm.nu
    lead = int(np.argmax(np.abs(w)))
    ratio = w / w[lead] if w[lead] else None
    unit = np.eye(math.prod(shape)).reshape((-1,) + shape)  # e_(b, j), row b*K + j
    # e_(b, lead) of each bin b, or none when no mark moves a drift
    lead_unit = unit[:0] if ratio is None else unit.reshape(shape + shape)[:, lead]
    nonlin = make_nonlin(params, basis)

    def gaps_of(phis):
        nonlocal marches, paths
        if not len(phis):
            return []
        marches += 1
        paths += len(phis)
        return _endpoint_gaps(drift_coefficient(jm, phis), target, params, basis,
                              u0, grid, nonlin)

    def cost_of(phi):
        return _phi_cost(phi, jm, grid.T)

    def forward_differences(row_gaps):
        """Costs and gaps of the n_bins*K forward-difference probes of phi,
        given ``row_gaps``, the gaps of its lead-mark probes phi + h *
        lead_unit: every other mark of bin b takes its gap linearized along
        the bin's drift, gap + ratio[j] * (row_gaps[b] - gap); a blown-up row
        makes them +inf, and a mark that moves no drift keeps ``gap``."""
        probes = phi + h * unit
        costs = [cost_of(p) for p in probes]
        if ratio is None:
            return costs, [gap] * len(probes)
        row_gaps = np.array(row_gaps)
        blown = np.isinf(row_gaps)
        lin = gap + ratio * np.where(blown, 0.0, row_gaps - gap)[:, None]
        lin[blown[:, None] & (ratio != 0)] = math.inf
        lin[:, lead] = row_gaps
        return costs, lin.ravel().tolist()

    def violation(gap):
        return max(0.0, gap - target.radius)

    def line_search(f, step, grad):
        """(s, phi, cost, gap, objective) of the first step s, s/2, s/4, ...
        whose projected candidate improves the objective f, or None."""
        for batch in np.split(np.ldexp(step, -np.arange(25)), _LADDER):
            cands = np.maximum(0.0, phi - batch[:, None, None] * grad)
            costs = [cost_of(cand) for cand in cands]
            live = [i for i, ci in enumerate(costs) if _may_improve(ci, f)]
            for i, gi in zip(live, gaps_of(cands[live])):
                fi = costs[i] + rho * violation(gi) ** 2
                if fi < f - 1e-14:
                    return batch[i], cands[i], costs[i], gi, fi
        return None

    seen = []     # (cost, phi, gap) of each accepted iterate, then the last
    iterations = 0
    phi = np.ones(shape)
    c = cost_of(phi)
    # the forward differences at phi, once an iteration needs them; the first
    # one does (n_rho and max_inner are at least 1), so they march with phi
    gap, *row_gaps = gaps_of(np.concatenate((phi[None], phi + h * lead_unit)))
    diffs = forward_differences(row_gaps)
    rho = _RHO0
    for _outer in range(opt_cfg.n_rho):
        f = c + rho * violation(gap) ** 2
        step = opt_cfg.step0
        for _inner in range(opt_cfg.max_inner):
            iterations += 1
            if diffs is None:
                diffs = forward_differences(gaps_of(phi + h * lead_unit))
            f2 = np.array([c2 + rho * violation(g2) ** 2 for c2, g2 in zip(*diffs)])
            grad = ((f2 - f) / h).reshape(shape)
            if np.sqrt(np.sum(grad**2)) < 1e-10:
                break
            found = line_search(f, step, grad)
            if found is None:
                break
            s, phi, c, gap, f = found
            step = min(s * 2.0, 1e3)
            diffs = None
            seen.append((c, phi, gap))
        if violation(gap) <= tol and rho > _RHO0 * 10:
            break
        rho *= _RHO_GROWTH
    seen.append((c, phi, gap))

    def key(it):
        return (0, it[0]) if violation(it[2]) <= tol else (1, it[2])
    c_val, phi_best, gap_best = min(seen, key=key)
    feasible = violation(gap_best) <= tol
    return RateResult(value=c_val, control=Control(T=grid.T, phi=phi_best),
                      endpoint_gap=gap_best, iterations=iterations,
                      feasible=feasible, marches=marches, skeleton_paths=paths)
