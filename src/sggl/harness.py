"""Monte Carlo experiment harness: epsilon sweeps, tail probabilities,
energy-bound audits.

Monte Carlo runs cut their path indices into fixed batches of BATCH
consecutive ones and reduce what each batch's march returns; the rows and
their events are built by ``spde.march_batch``.  A tail batch marches all of
its (path, eps) rows together; a sweep batch marches the rows of a group of
eps cells, as many cells as keep the march within one chunk of the
nonlinearity kernel (``spectral.chunk_rows``), or one cell.  A sweep
batch buffers each path's difference from the skeleton at the grid times it
crosses and reduces the buffer in batches, each path's terms summed in its
time order.
Per-path seeds are derived from the master seed by index and batches are
cut by index, never by worker count, so reports are bit-identical under any
parallel schedule; MC reductions are done with numpy pairwise summation over
index-ordered arrays.  A path that blows up is frozen; a tail run then
raises the ``BlowUpError`` of the lowest path index (then lowest eps), the
one a path-by-path run would have met first, and a sweep that of its first
eps cell (then lowest path), the one a cell-by-cell run would have met.
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
from .spectral import (WORKSPACE_BYTES, SpectralBasis, StateField, _abs_sq, _norm_rows,
                       _or_inf, _power, _row_chunks, chunk_rows, norm_powers, scalar_pow)

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

    Each batch returns its blow-ups last; the caller raises the first of
    them once every batch has run, so the one raised never depends on the
    schedule.
    """
    mapper = _pool_map if _pool_map is not None else map
    spans = [(lo, min(lo + BATCH, n_samples)) for lo in range(0, n_samples, BATCH)]
    return list(mapper(task, spans))


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
    # the cell's ETDRK2 sub-steps, those that reused a cached uniform-step
    # table, and its kicks
    substeps: int
    table_hits: int
    kicks: int


@dataclass
class SweepReport:
    cells: list[SweepCell]
    slope: float
    r2: float
    slope_flag: bool          # True when R^2 < R2_FLOOR or slope and r2 are NaN
    # the Monte Carlo marches of a fresh run, one per batch of each group of
    # cells, and the cells' counters
    marches: int
    substeps: int
    table_hits: int
    kicks: int


def _sweep_batch(params: Parameters, basis: SpectralBasis, u0: StateField,
                 jm: JumpModel, ctrl: Control, grid: TimeGrid, master_seed: int,
                 skel: Trajectory, eps_list: list[float], span: tuple[int, int]):
    """(rows, counters, first blow-ups) for paths lo..hi-1 of the cells at
    ``eps_list``, all marched together (``march_batch``).

    rows[i, j] holds (sup_t ||d||^2, sum dt ||grad d||^2,
    sum dt ||d||_{2s+2}^{2s+2}) for d = path lo+i at eps_list[j] - skeleton;
    dt is the time since the previous grid time.  Each d handed over at a
    grid time is buffered with its row and grid index, and a full buffer is
    reduced in one ``norm_powers`` call, its terms folded into the rows in
    append order, so each row's sums still run in time order.  The buffer
    holds a quarter of WORKSPACE_BYTES of fields, or a whole hand-over if
    that is more.  counters[:, j] sums the (substeps, table_hits, kicks) of
    cell j's rows, and blow-ups[j] is its first by path.
    """
    lo, hi = span
    m = len(eps_list)
    p = params.lp_exponent
    dts = np.diff(skel.times, prepend=0.0)
    rows = np.zeros(((hi - lo) * m, 3))
    size = max(len(rows), WORKSPACE_BYTES // 4 // skel.modes[0].nbytes)
    buf = np.empty((size,) + skel.modes.shape[1:], dtype=complex)
    buf_row = np.empty(size, dtype=np.intp)
    buf_k = np.empty(size, dtype=np.intp)
    n = 0           # fields buffered

    def flush():
        nonlocal n
        l2sq, gradsq, lp = norm_powers(basis, buf[:n], [p])
        r, w = buf_row[:n], dts[buf_k[:n]]
        np.maximum.at(rows[:, 0], r, l2sq)
        np.add.at(rows[:, 1], r, w * gradsq)
        np.add.at(rows[:, 2], r, w * lp[p])
        n = 0

    def on_save(r, k, modes):
        nonlocal n
        if n + len(r) > size:
            flush()
        at = slice(n, n + len(r))
        np.subtract(modes, skel.modes[k], out=buf[at])
        buf_row[at], buf_k[at] = r, k
        n = at.stop

    res = march_batch(params, basis, u0, jm, eps_list, ctrl, grid,
                      _seeds(master_seed, lo, hi), on_save=on_save)
    flush()
    counters = np.stack([res.substeps, res.table_hits, res.kicks])
    return (rows.reshape(hi - lo, m, 3), counters.reshape(3, hi - lo, m).sum(axis=1),
            [_first_error(res.errors[j::m]) for j in range(m)])


def _sweep_cell(eps: float, rows: np.ndarray, counters: np.ndarray) -> SweepCell:
    """The cell at ``eps`` from its paths' rows (n, 3) and its counters."""
    n = len(rows)
    mean = rows.mean(axis=0)
    se = rows.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.zeros(3)
    substeps, table_hits, kicks = map(int, counters)
    return SweepCell(eps, mean[0], se[0], mean[1], se[1], mean[2], se[2], n,
                     substeps=substeps, table_hits=table_hits, kicks=kicks)


def convergence_sweep(params: Parameters, basis: SpectralBasis, jm: JumpModel,
                      u0: StateField, ctrl: Control, grid: TimeGrid,
                      eps_list: list[float], n_samples: int, master_seed: int,
                      _pool_map=None,
                      precomputed: dict[float, SweepCell] | None = None,
                      on_cell=None) -> SweepReport:
    """MC estimate of E[sup_t ||u_eps - u_skel||^2] (and companions) per eps.

    Common random numbers: each sample index keeps one seed across all eps,
    and the jump sampler nests event streams across intensities.  The cells
    are taken in groups of consecutive distinct eps, as many as keep a
    batch's (path, eps) rows within one chunk of the nonlinearity kernel
    (``chunk_rows``), or one; a group's cells march together, and its march
    never outgrows the kernel's buffers.  An eps repeated in the list is
    marched once and shares its cell.  ``precomputed`` supplies
    already-finished cells (checkpoint resume); ``on_cell`` is called for
    each freshly computed cell when its group has finished.  The first
    blow-up raised is that of the first cell, then the lowest path,
    whatever the grouping.  The report's ``marches`` are those of a fresh
    run, one per batch of each group, resumed or not; its ``substeps``,
    ``table_hits`` and ``kicks`` sum over the listed cells, a repeated eps
    counted once per listing.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    skel = solve_skeleton(params, basis, u0, jm, ctrl, grid, with_norms=False)
    task = partial(_sweep_batch, params, basis, u0, jm, ctrl, grid, master_seed, skel)
    known = dict(precomputed or {})
    per_march = max(1, chunk_rows(params, basis) // min(BATCH, n_samples))
    distinct = list(dict.fromkeys(eps_list))
    groups = [distinct[i:i + per_march] for i in range(0, len(distinct), per_march)]
    for group in groups:
        todo = [eps for eps in group if eps not in known]
        if not todo:
            continue
        done = _map_batches(partial(task, todo), n_samples, _pool_map)
        err = _first_error(d[2][j] for j in range(len(todo)) for d in done)
        if err is not None:
            raise err
        rows = np.concatenate([d[0] for d in done])
        counters = sum(d[1] for d in done)
        for j, eps in enumerate(todo):
            known[eps] = _sweep_cell(eps, rows[:, j], counters[:, j])
            if on_cell is not None:
                on_cell(known[eps])
    cells = [known[eps] for eps in eps_list]
    eps_arr = np.asarray(eps_list, dtype=float)
    sup_means = np.asarray([c.mean_sup_sq for c in cells])
    if len(distinct) < 2:
        slope = r2 = math.nan      # no line through a single point
    elif np.all(sup_means > 0):
        slope, r2 = _fit_loglog(eps_arr, sup_means)
    else:
        slope, r2 = 0.0, 1.0   # degenerate (noise-free) sweep: statistics are 0
    return SweepReport(cells=cells, slope=slope, r2=r2,
                       slope_flag=not r2 >= R2_FLOOR,
                       marches=len(groups) * math.ceil(n_samples / BATCH),
                       substeps=sum(c.substeps for c in cells),
                       table_hits=sum(c.table_hits for c in cells),
                       kicks=sum(c.kicks for c in cells))


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
    # the Monte Carlo marches, one per batch; their sub-steps, those that
    # reused a cached uniform-step table, and their kicks
    marches: int
    substeps: int
    table_hits: int
    kicks: int
    cells: list[TailCell]


def _tail_batch(params: Parameters, basis: SpectralBasis, u0: StateField,
                jm: JumpModel, grid: TimeGrid, event: EndpointSpec,
                eps_list: list[float], master_seed: int, span: tuple[int, int]):
    """(hits, counters, first blow-up) for paths lo..hi-1 over every eps;
    counters sums the rows' (substeps, table_hits, kicks).

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
    counters = np.array([res.substeps.sum(), res.table_hits.sum(), res.kicks.sum()])
    return hits, counters, _first_error(res.errors)


def _wilson(k: int, n: int, z: float = 1.96) -> tuple[float, float]:
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
    err = _first_error(r[2] for r in done)
    if err is not None:
        raise err
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
    substeps, table_hits, kicks = map(int, sum(r[1] for r in done))
    return TailReport(cells=cells, marches=len(done), substeps=substeps,
                      table_hits=table_hits, kicks=kicks)


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
    kick scales the admissible bound by max(1, (1+eps*g)^2).  A bound or
    total beyond float range is +inf; a total that is not finite fails
    its check, whatever the bound.

    The grid-side integrals, int ||u||_{2s+2}^{2s+2} (``norm_powers``) and
    int |u|^(2 sigma) |grad u|^2, are taken in row chunks of the trajectory
    (``spectral._norm_rows`` rows), so the audit's memory does not grow
    with the number of saved states.
    """
    basis, modes = traj.basis, traj.modes
    sigma = params.sigma
    p = min(2 * sigma - 0.5, max(2.0, sigma))
    T = float(traj.times[-1])
    dts = np.diff(traj.times)
    p2s2 = params.lp_exponent

    l2sq, gradsq, lp = norm_powers(basis, modes, [p2s2])
    lapsq = np.sum(basis.eigenvalues ** 2 * np.abs(modes) ** 2, axis=(-2, -1))

    def mixed_part(rows: slice) -> np.ndarray:
        sq = _abs_sq(basis.to_grid(modes[rows]))
        Ux, Uy = basis.grad_to_grid(modes[rows])
        grad_sq = np.abs(Ux) ** 2 + np.abs(Uy) ** 2
        return basis.cell_area * np.sum(_power(sq, sigma) * grad_sq, axis=(-2, -1))
    mixed = np.concatenate([mixed_part(rows)
                            for rows in _row_chunks(len(modes), _norm_rows(basis))])
    gp = scalar_pow(gradsq, (p - 2) / 2)
    sup_sq = float(np.max(l2sq))
    sup_gp = float(np.max(scalar_pow(gradsq, p / 2)))
    # right-endpoint sums over the saved states, added in time order; at a
    # large sigma the H1 ones may overflow to inf
    int_grad = float(np.cumsum(dts * gradsq[1:])[-1])
    int_lp = float(np.cumsum(dts * lp[p2s2][1:])[-1])
    with np.errstate(over="ignore"):
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
                    * _or_inf(math.exp, (2 * params.gamma + _C_F) * T + 2 * dev)
                    * jump_factor * (1 + _SLACK)) if u0_sq else 0.0  # not 0 * inf
    grad_total = sup_gp + int_lap + int_mixed
    grad_bound = (_GRONWALL_PREFACTOR * (_or_inf(pow, grad0_sq, p / 2) + 1.0)
                  * _or_inf(math.exp, (p * params.gamma + _C_G) * T + p * dev)
                  * _or_inf(pow, jump_factor, p / 2) * (1 + _SLACK))

    energy_ok = math.isfinite(energy_total) and energy_total <= energy_bound
    grad_ok = math.isfinite(grad_total) and grad_total <= grad_bound
    violations = [
        f"{name} energy {total:.6g} " + (f"exceeds bound {bound:.6g}"
                                         if math.isfinite(total) else "is not finite")
        for name, total, bound, ok in (("L2", energy_total, energy_bound, energy_ok),
                                       ("H1", grad_total, grad_bound, grad_ok))
        if not ok]
    return AuditReport(sup_sq, int_grad, int_lp, energy_total, energy_bound,
                       energy_ok, sup_gp, int_lap, int_mixed, grad_total,
                       grad_bound, grad_ok, violations)
