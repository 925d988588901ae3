"""Monte Carlo experiment harness: epsilon sweeps, tail probabilities,
energy-bound audits.

Monte Carlo runs cut their path indices into fixed batches of BATCH
consecutive ones and reduce what each batch's march returns; the rows and
their events are built by ``spde.march_batch``.  A tail batch marches all of
its (path, eps) rows together, a sweep batch the paths of one eps cell.
Per-path seeds are derived from the master seed by index and batches are
cut by index, never by worker count, so reports are bit-identical under any
parallel schedule; MC reductions are done with numpy pairwise summation over
index-ordered arrays.  A path that blows up is frozen; the run then raises
the ``BlowUpError`` of the lowest path index (then lowest eps), the one a
path-by-path run would have met first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .jumps import Control, JumpModel, constant_control, trajectory_seed
from .params import Parameters
from .rate import EndpointSpec
from .skeleton import TimeGrid, Trajectory, solve_skeleton
from .spde import march_batch
from .spectral import (SpectralBasis, StateField, lp_integrals, norm_powers,
                       scalar_pow)

# paths marched together; the batch of path i is i // BATCH
BATCH = 64
# a sweep's log-log fit with R^2 below this is flagged unreliable
R2_FLOOR = 0.9


def _first_error(errors):
    """The first non-None entry of an index-ordered error list, or None."""
    return next((err for err in errors if err is not None), None)


def _seeds(master_seed: int, lo: int, hi: int) -> list[int]:
    return [trajectory_seed(master_seed, i) for i in range(lo, hi)]


def _map_batches(task, n_samples: int, _pool_map):
    """``task((lo, hi))`` over the batches of paths lo..hi-1; results in
    batch order, which the mapper keeps, as ``map`` and ``Executor.map`` do.

    Each batch returns its first blow-up last; after every batch has run,
    the lowest-index blow-up is raised, whatever the schedule.
    """
    mapper = _pool_map if _pool_map is not None else map
    spans = [(lo, min(lo + BATCH, n_samples)) for lo in range(0, n_samples, BATCH)]
    done = list(mapper(task, spans))
    err = _first_error([r[-1] for r in done])
    if err is not None:
        raise err
    return done


def _fit_loglog(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and R^2 of log y against log x (positive data only)."""
    lx, ly = np.log(x), np.log(y)
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), r2


# ---------------------------------------------------------------------------
# epsilon sweep: controlled SPDE against its skeleton

@dataclass
class SweepCell:
    eps: float
    mean_sup_sq: float
    se_sup_sq: float
    mean_grad_int: float
    se_grad_int: float
    mean_lp_int: float
    se_lp_int: float
    n_samples: int


@dataclass
class SweepReport:
    cells: list[SweepCell]
    slope: float
    r2: float
    slope_flag: bool          # True when R^2 < R2_FLOOR or slope and r2 are NaN


def _sweep_batch(params: Parameters, basis: SpectralBasis, u0: StateField,
                 jm: JumpModel, ctrl: Control, grid: TimeGrid, master_seed: int,
                 skel: Trajectory, eps: float, span: tuple[int, int]):
    """(rows, first blow-up) for paths lo..hi-1 of one eps cell.

    Row i holds (sup_t ||d||^2, sum dt ||grad d||^2,
    sum dt ||d||_{2s+2}^{2s+2}) for d = path - skeleton, reduced at each
    grid time as the path crosses it; dt is the time since the previous
    grid time.
    """
    lo, hi = span
    p = params.lp_exponent
    dts = np.diff(skel.times, prepend=0.0)
    rows = np.zeros((hi - lo, 3))

    def on_save(r, k, modes):
        l2sq, gradsq, lp = norm_powers(basis, modes - skel.modes[k], [p])
        w = dts[k]
        rows[r, 0] = np.maximum(rows[r, 0], l2sq)
        rows[r, 1] += w * gradsq
        rows[r, 2] += w * lp[p]

    res = march_batch(params, basis, u0, jm, [eps], ctrl, grid,
                      _seeds(master_seed, lo, hi), on_save=on_save)
    return rows, _first_error(res.errors)


def convergence_sweep(params: Parameters, basis: SpectralBasis, jm: JumpModel,
                      u0: StateField, ctrl: Control, grid: TimeGrid,
                      eps_list: list[float], n_samples: int, master_seed: int,
                      _pool_map=None,
                      precomputed: dict[float, SweepCell] | None = None,
                      on_cell=None) -> SweepReport:
    """MC estimate of E[sup_t ||u_eps - u_skel||^2] (and companions) per eps.

    Common random numbers: each sample index keeps one seed across all eps,
    and the jump sampler nests event streams across intensities.
    ``precomputed`` supplies already-finished cells (checkpoint resume);
    ``on_cell`` is called after each freshly computed cell.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    skel = solve_skeleton(params, basis, u0, jm, ctrl, grid, with_norms=False)
    task = partial(_sweep_batch, params, basis, u0, jm, ctrl, grid, master_seed, skel)
    precomputed = precomputed or {}
    cells = []
    for eps in eps_list:
        if eps in precomputed:
            cells.append(precomputed[eps])
            continue
        done = _map_batches(partial(task, eps), n_samples, _pool_map)
        rows = np.concatenate([r[0] for r in done])
        mean = rows.mean(axis=0)
        se = (rows.std(axis=0, ddof=1) / math.sqrt(n_samples) if n_samples > 1
              else np.zeros(3))
        cell = SweepCell(eps, mean[0], se[0], mean[1], se[1], mean[2], se[2],
                         n_samples)
        cells.append(cell)
        if on_cell is not None:
            on_cell(cell)
    eps_arr = np.asarray(eps_list, dtype=float)
    sup_means = np.asarray([c.mean_sup_sq for c in cells])
    if len(set(eps_list)) < 2:
        slope = r2 = math.nan      # no line through a single point
    elif np.all(sup_means > 0):
        slope, r2 = _fit_loglog(eps_arr, sup_means)
    else:
        slope, r2 = 0.0, 1.0   # degenerate (noise-free) sweep: statistics are 0
    return SweepReport(cells=cells, slope=slope, r2=r2,
                       slope_flag=not r2 >= R2_FLOOR)


# ---------------------------------------------------------------------------
# tail probabilities vs the rate estimate

@dataclass
class TailCell:
    eps: float
    n_samples: int
    hits: int
    p_hat: float
    eps_log_p: float          # nan when censored (zero hits)
    se_eps_log_p: float       # delta-method band, nan when censored
    wilson_low: float
    wilson_high: float
    censored: bool


@dataclass
class TailReport:
    cells: list[TailCell]
    # the Monte Carlo marches, one per batch; their sub-steps, and those
    # that reused a cached uniform-step table
    marches: int
    substeps: int
    table_hits: int


def _tail_batch(params: Parameters, basis: SpectralBasis, u0: StateField,
                jm: JumpModel, grid: TimeGrid, event: EndpointSpec,
                eps_list: list[float], master_seed: int, span: tuple[int, int]):
    """(hits, substeps, table hits, first blow-up) for paths lo..hi-1 over
    every eps.

    The batch's (path, eps) rows march together (``march_batch``), sharing
    the raw drift, grid and bin.  hits[i, j] is 1 when path lo+i ends in the
    event ball at eps_list[j]; blow-ups are ordered by path, then by eps, as
    a path-by-path run meets them.
    """
    lo, hi = span
    res = march_batch(params, basis, u0, jm, eps_list, None, grid,
                      _seeds(master_seed, lo, hi))
    hits = (event.gaps(res.endpoints) <= event.radius).astype(int)
    hits = hits.reshape(hi - lo, len(eps_list))
    return hits, res.substeps, res.table_hits, _first_error(res.errors)


def _wilson(k: int, n: int, z: float = 1.96) -> tuple[float, float]:
    if n == 0:
        return 0.0, 1.0
    p = k / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def tail_probability(params: Parameters, basis: SpectralBasis, jm: JumpModel,
                     u0: StateField, grid: TimeGrid, event: EndpointSpec,
                     eps_list: list[float], n_samples: int, master_seed: int,
                     _pool_map=None) -> TailReport:
    """Empirical decay of P(endpoint in the event ball) across eps.

    Precondition: the event excludes the noiseless endpoint, else the
    probability tends to one and there is nothing to estimate.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    ctrl1 = constant_control(grid.T, jm.n_marks, 1.0)
    skel = solve_skeleton(params, basis, u0, jm, ctrl1, grid, with_norms=False)
    d0 = float(event.gaps(skel.endpoint.modes))
    if d0 <= event.radius:
        raise ValueError(
            "event must exclude the noiseless endpoint "
            f"(distance {d0:.3g} <= radius {event.radius:.3g})")

    task = partial(_tail_batch, params, basis, u0, jm, grid, event,
                   list(eps_list), master_seed)
    done = _map_batches(task, n_samples, _pool_map)
    hit_matrix = np.concatenate([r[0] for r in done])

    cells = []
    for k, eps in enumerate(eps_list):
        hits = int(hit_matrix[:, k].sum())
        p_hat = hits / n_samples
        lo, hi = _wilson(hits, n_samples)
        if hits == 0:
            cells.append(TailCell(eps, n_samples, 0, 0.0, math.nan, math.nan,
                                  lo, hi, censored=True))
        else:
            se_p = math.sqrt(p_hat * (1 - p_hat) / n_samples)
            cells.append(TailCell(eps, n_samples, hits, p_hat,
                                  eps * math.log(p_hat),
                                  eps * se_p / p_hat, lo, hi, censored=False))
    return TailReport(cells=cells, marches=len(done),
                      substeps=sum(r[1] for r in done),
                      table_hits=sum(r[2] for r in done))


# ---------------------------------------------------------------------------
# energy-bound audit

@dataclass
class AuditReport:
    sup_l2_sq: float
    int_grad_sq: float
    int_lp: float
    energy_total: float
    energy_bound: float
    energy_ok: bool
    sup_grad_p: float
    int_gradp2_lap: float
    int_mixed: float
    grad_total: float
    grad_bound: float
    grad_ok: bool
    violations: list[str]


# Gronwall bookkeeping: sup + (integrals)/1 <= 3/2 * ||u0||^2 exp(...)
_GRONWALL_PREFACTOR = 1.5
# fitted constants of the derivative-term contribution at the L2 and H1
# level, and the relative slack on both bounds
_C_F, _C_G, _SLACK = 2.0, 4.0, 0.2


def energy_audit(traj: Trajectory, params: Parameters, jm: JumpModel,
                 ctrl: Control | None = None, eps: float | None = None,
                 events=None) -> AuditReport:
    """Audit a trajectory against the reconstructed a-priori energy bounds.

    The L2-level bound is  sup||u||^2 + int ||grad u||^2 + int ||u||_{2s+2}^{2s+2}
    <= 1.5 * ||u0||^2 * exp[(2 gamma + c_f) T + 2 int sum_j |g_j||phi-1| nu_j]
    * (1 + slack); the H1-level bound is the analogous expression at
    exponent p = min(2 sigma - 1/2, max(2, sigma)) starting from ||grad u0||^p
    with constant c_g (c_f, c_g, slack: _C_F, _C_G, _SLACK).  For jump
    trajectories pass eps (a float) and the realized events: each
    kick scales the admissible bound by max(1, (1+eps*g)^2).
    """
    basis, modes = traj.basis, traj.modes
    sigma = params.sigma
    p = min(2 * sigma - 0.5, max(2.0, sigma))
    T = float(traj.times[-1])
    dts = np.diff(traj.times)
    p2s2 = params.lp_exponent

    l2sq, gradsq, _ = norm_powers(basis, modes)
    absU = np.abs(basis.to_grid(modes))
    lp = lp_integrals(basis, absU, [p2s2])[p2s2]
    lapsq = np.sum(basis.eigenvalues ** 2 * np.abs(modes) ** 2, axis=(-2, -1))
    Ux, Uy = basis.grad_to_grid(modes)
    mixed = basis.cell_area * np.sum(absU ** (2 * sigma)
                                     * (np.abs(Ux) ** 2 + np.abs(Uy) ** 2), axis=(-2, -1))
    gp = scalar_pow(gradsq, (p - 2) / 2)
    sup_sq = float(np.max(l2sq))
    sup_gp = float(np.max(scalar_pow(gradsq, p / 2)))
    # right-endpoint sums over the saved states, added in time order
    int_grad = float(np.cumsum(dts * gradsq[1:])[-1])
    int_lp = float(np.cumsum(dts * lp[1:])[-1])
    int_lap = float(np.cumsum(dts * gp[1:] * lapsq[1:])[-1])
    int_mixed = float(np.cumsum(dts * gp[1:] * mixed[1:])[-1])

    # time-integrated drift-deviation factor int sum_j |g_j||phi-1| nu_j ds
    if ctrl is not None:
        dt_bin = ctrl.T / ctrl.n_bins
        dev = float(np.sum(np.abs(jm.g)[None, :] * np.abs(ctrl.phi - 1.0)
                           * jm.nu[None, :]) * dt_bin)
    else:
        dev = 0.0

    jump_factor = 1.0
    if eps is not None and events is not None and events.n_events:
        kicks = 1.0 + eps * jm.g[events.marks]
        jump_factor = float(np.prod(np.maximum(1.0, kicks ** 2)))

    u0_sq, grad0_sq = float(l2sq[0]), float(gradsq[0])

    energy_total = sup_sq + int_grad + int_lp
    energy_bound = (_GRONWALL_PREFACTOR * u0_sq
                    * math.exp((2 * params.gamma + _C_F) * T + 2 * dev)
                    * jump_factor * (1 + _SLACK))
    grad_total = sup_gp + int_lap + int_mixed
    grad_bound = (_GRONWALL_PREFACTOR * (grad0_sq ** (p / 2) + 1.0)
                  * math.exp((p * params.gamma + _C_G) * T + p * dev)
                  * (jump_factor ** (p / 2)) * (1 + _SLACK))

    violations = []
    energy_ok = energy_total <= energy_bound
    grad_ok = grad_total <= grad_bound
    if not energy_ok:
        violations.append(
            f"L2 energy {energy_total:.6g} exceeds bound {energy_bound:.6g}")
    if not grad_ok:
        violations.append(
            f"H1 energy {grad_total:.6g} exceeds bound {grad_bound:.6g}")
    return AuditReport(sup_sq, int_grad, int_lp, energy_total, energy_bound,
                       energy_ok, sup_gp, int_lap, int_mixed, grad_total,
                       grad_bound, grad_ok, violations)
