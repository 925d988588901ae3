"""Deterministic skeleton equation du/dt = Au + Bu + c(t)u.

c(t) = c_b = sum_j g_j (phi[b, j] - 1) nu_j on control bin b is the
compensator drift of a piecewise-constant control intensity phi.  The map
from a control to its skeleton trajectory is the deterministic solution
operator whose continuity underpins the small-noise analysis; numerically it
is the workhorse behind the rate-function estimator.

The module also hosts ``march``, the one marching engine behind every
solver.  It advances a batch of S paths in lock step on (S, n1, n2) arrays:
uniform ETDRK2 steps, refined so control-bin edges are step boundaries, with
each path's sampled jump times inserted exactly and followed by its
multiplicative kick.  The drift is one value per control bin, shared by
the batch or given per path.  A skeleton solve is a march of one path
without events and with the drift values c_b; skeletons under different
controls march together as paths with their own drift rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .jumps import Control, JumpModel, drift_coefficient
from .params import Parameters
from .spectral import WORKSPACE_BYTES, SpectralBasis, StateField, make_nonlin, norm_powers
from .timestep import BlowUpError, etdrk2_step, linear_tables

# a path blows up when its L2 norm exceeds BLOWUP_FACTOR * (||u0|| + 1)
BLOWUP_FACTOR = 1e6


@dataclass(frozen=True)
class TimeGrid:
    T: float
    n_steps: int

    def __post_init__(self):
        if not (self.T > 0 and self.n_steps >= 1):
            raise ValueError("need T > 0, n_steps >= 1")

    def refined_steps(self, n_bins: int) -> int:
        """Step count rounded up so control-bin edges are grid points."""
        q = -(-self.n_steps // n_bins)   # ceil division
        return q * n_bins


@dataclass
class Trajectory:
    """States ``modes`` (K, n1, n2) at the grid ``times`` (K,) in ``basis``,
    with their norms, or None when not computed: {"l2", "grad_l2",
    "l2sigma2"} to arrays of shape (K,), the L2 norm, H1 seminorm and
    L^(2 sigma + 2) norm, named as ``trajectory.csv``'s columns."""

    times: np.ndarray
    modes: np.ndarray
    basis: SpectralBasis
    norms: dict[str, np.ndarray] | None

    @property
    def endpoint(self) -> StateField:
        return StateField(self.modes[-1], self.basis)


class MarchResult(NamedTuple):
    """Outcome of one lock-step march over S paths.

    ``errors[s]`` is the ``BlowUpError`` of path s, or None; a path that
    blew up is frozen and its row of ``endpoints`` holds the state that
    failed the check.
    The counters are (S,) integer arrays: ``substeps[s]`` counts path s's
    ETDRK2 sub-steps, of which ``table_hits[s]`` reused a cached
    uniform-step table, and ``kicks[s]`` the kicks it took.
    """

    endpoints: np.ndarray
    errors: list
    substeps: np.ndarray
    table_hits: np.ndarray
    kicks: np.ndarray


# A march enters np.errstate once, not once per round (which costs about 1%
# of a rate search): an overflow or invalid operation leaves a state that is
# not finite, and the norm check blows its path up.
@np.errstate(over="ignore", invalid="ignore")
def march(params: Parameters, basis: SpectralBasis, u0: StateField,
          grid: TimeGrid, event_times: np.ndarray, kick_factors: np.ndarray,
          drift, n_bins: int, on_save=None, on_kick=None) -> MarchResult:
    """Integrate S paths of du/dt = Au + Bu + d(t)u from u0, kicking at events.

    d(t) = drift[b] is constant on control bin b.  ``drift`` is a float or
    an (n_bins,) vector, broadcast to every path, or an (S, n_bins) array
    whose row s is path s's drift, so paths under different controls share
    one march.  The stiff linear part (1+i alpha)Lap + gamma + d is
    mode-diagonal and integrated exactly.
    ``event_times`` and ``kick_factors`` are (S, E) arrays: row s holds path
    s's increasing event times, padded with +inf, and the factors its state
    is multiplied by after the drift step ending at each event (left-limit
    convention), padded with 1.0.

    Each round every unfinished path takes its own sub-step, to its next
    event or its next grid time, whichever comes first; every path's
    sequence of sub-steps, with the factor each one ends by multiplying its
    state by (1.0 without an event), is laid out before stepping, and each
    round reads the unfinished paths' entries of its row, so a path that
    leaves the batch drops only its state, never a copy of the schedule.  A
    round in which some path kicks applies its kicks in one multiply masked
    to the kicked rows, which leaves every other row as it is.  A path's grid
    index k counts its finished grid steps and fixes its control bin
    k // (steps per bin), so bins never depend on rounded float times.  A
    sub-step that starts on a grid time and ends on the next one uses the
    cached uniform-step tables of its bin (of its path and bin under
    per-path drift).  Any other sub-step, one an event cuts or the rest of a
    step after it, has tables for its own h (h = 0, an event on a grid time,
    gives identity tables): they are built before its round, in blocks of
    whole rounds holding at most an eighth of WORKSPACE_BYTES of tables (one
    round if that is more; building a block takes about three times its
    size in temporaries), and banked after the cached ones, so a round
    gathers all its tables in one take.  A march without events builds no
    block.  A path's arithmetic is the same whatever else its batch holds,
    so its result is its S = 1 march's, bit for bit.

    Callbacks see the batch rows they concern: ``on_save(rows, k, modes)``
    after each path's k-th grid step, and
    ``on_kick(rows, j, before, after)`` at each path's j-th event.  A path
    whose norm leaves the blow-up cap after any sub-step, a kick included,
    is frozen and its ``BlowUpError`` recorded, with an infinite norm if
    its state is not finite (as after a sub-step whose tables overflow).
    """
    n_steps = grid.refined_steps(n_bins)
    dt = grid.T / n_steps
    nonlin = make_nonlin(params, basis)
    Lbase = (1.0 + 1j * params.alpha) * basis.eigenvalues + params.gamma
    S, E = event_times.shape
    d = np.asarray(drift, dtype=float)
    if d.ndim == 2 and d.shape != (S, n_bins):
        raise ValueError(f"per-path drift must be shaped ({S}, {n_bins}), "
                         f"got {d.shape}")
    # L and the cache hold one entry per bin of each drift row: under
    # per-path drift path s's bin b is entry s * n_bins + b, else entry b
    per_path = d.ndim == 2
    d = np.broadcast_to(d, (len(d) if per_path else 1, n_bins))
    L = (Lbase + d[..., None, None]).reshape((d.size,) + Lbase.shape)
    cache = np.stack(linear_tables(dt, L))      # (3, entries, n1, n2)
    step_bin = np.arange(n_steps, dtype=np.int32) // (n_steps // n_bins)
    cap = BLOWUP_FACTOR * (u0.l2() + 1.0)
    grid_times = np.arange(1, n_steps + 1) * dt

    ev = np.asarray(event_times, dtype=float)
    # Each path's sub-steps in order: one per grid step and one per event up
    # to the last grid time, an event first where it equals a grid time.
    # Row r of the (R, S) arrays below describes each path's r-th one;
    # path s takes last[s] of them.  Grid indices and table entries are
    # int32, half the size of int64, as these arrays peak beside a sweep's
    # buffers.
    last = n_steps + np.count_nonzero(ev <= grid_times[-1], axis=1)
    R = last.max(initial=0)
    es, ej = np.nonzero(np.arange(E) < (last - n_steps)[:, None])
    pos = ej + np.searchsorted(grid_times, ev[es, ej])
    is_ev = np.zeros((R, S), dtype=bool)
    is_ev[pos, es] = True
    k_after = np.cumsum(~is_ev, axis=0, dtype=np.int32)  # grid steps finished after it
    end = grid_times[np.minimum(k_after, n_steps) - 1]     # time it ends at
    end[pos, es] = ev[es, ej]
    # the factor it multiplies its state by (1.0 without an event)
    kicked = is_ev.any(axis=1)              # rounds in which some path kicks
    fac = np.ones((R, S))
    fac[pos, es] = kick_factors[es, ej]
    del es, ej, pos                         # one entry per event: set-up only
    uniform = ~is_ev                        # a whole grid step
    uniform[1:] &= ~is_ev[:-1]
    # its control bin's entry in L and the cache
    entry = step_bin[np.minimum(k_after - ~is_ev, n_steps - 1)]
    if per_path:
        entry += np.arange(S, dtype=np.int32) * n_bins

    # The bank: the cache, then the off-grid tables of one block of rounds
    # (`most` slots, or one round's if more); a banked sub-step's entry
    # becomes its slot.
    off = ~uniform & (np.arange(R)[:, None] < last)
    per_round = np.count_nonzero(off, axis=1)
    n_entries = cache.shape[1]
    most = max(1, WORKSPACE_BYTES // 8 // cache[:, 0].nbytes)
    slots = min(max(most, per_round.max(initial=0)), per_round.sum())
    bank = np.concatenate((cache, np.empty((3, slots) + Lbase.shape, complex)), axis=1)
    csum = np.concatenate(([0], np.cumsum(per_round)))
    block_end = 0

    endpoints = np.repeat(u0.modes.astype(complex)[None], S, axis=0)
    errors: list = [None] * S
    n_real = 2 * u0.modes.size      # floats per path, for the norm check
    # State of the unfinished paths, row i being path rows[i]; a path's row
    # is dropped (its endpoint stored) when it finishes or blows up.
    rows = np.arange(S)
    sel = slice(None)       # their columns of the schedule: all, until one ends
    c = endpoints.copy()
    next_end = last.min() if S else 0
    substeps = np.zeros(S, dtype=np.int64)  # set as each path finishes

    for r in range(R):
        if r == block_end:
            # the next block: its unfinished paths' off-grid sub-steps
            block_end = max(r + 1, int(np.searchsorted(
                csum, csum[r] + most, side="right")) - 1)
            br, bi = np.nonzero(off[r:block_end, sel])
            if br.size:
                br += r
                bs = rows[bi]
                h = end[br, bs] - np.where(br > 0, end[br - 1, bs], 0.0)
                np.stack(linear_tables(h, L[entry[br, bs]]),
                         out=bank[:, n_entries:n_entries + br.size])
                entry[br, bs] = np.arange(n_entries, n_entries + br.size)
        kick = is_ev[r][sel]
        kg = k_after[r][sel]
        c = etdrk2_step(c, bank.take(entry[r][sel], axis=1), nonlin)

        if kicked[r]:
            logged = on_kick is not None and kick.any()
            if logged:
                before = c[kick]
            # writes the kicked rows only: a signed zero, an inf or a NaN
            # of any other row stays as it is
            np.multiply(c, fac[r][sel][:, None, None], out=c,
                        where=kick[:, None, None])
            if logged:
                # j: earlier sub-steps less grid steps done
                on_kick(rows[kick], r - kg[kick], before, c[kick])

        # blow-up check on every row; saving and finishing on a grid time
        w = c.view(np.float64).reshape(rows.size, n_real)
        sq = (w * w).sum(axis=1)
        ok = sq <= cap * cap                # a NaN norm fails too
        n_bad = rows.size - np.count_nonzero(ok)
        if n_bad:
            sq[np.isnan(sq)] = np.inf       # a state that overflows, inf - inf
            for i in np.flatnonzero(~ok):
                errors[rows[i]] = BlowUpError(int(kg[i]), float(end[r, rows[i]]),
                                              float(np.sqrt(sq[i])), cap)
        if on_save is not None:
            keep = ok > kick                # a kicked row is off the grid
            if np.count_nonzero(keep):
                on_save(rows[keep], kg[keep], c.compress(keep, axis=0))
        if n_bad or r + 1 == next_end:
            done = (last[rows] == r + 1) | ~ok
            endpoints[rows[done]] = c[done]
            substeps[rows[done]] = r + 1
            stay = ~done
            rows, c = rows[stay], c[stay]
            sel = rows
            if not rows.size:
                break
            next_end = last[rows].min()

    taken = np.arange(R)[:, None] < substeps      # (R, S): the rounds it stepped in
    return MarchResult(endpoints=endpoints, errors=errors, substeps=substeps,
                       table_hits=np.count_nonzero(uniform & taken, axis=0),
                       kicks=np.count_nonzero(is_ev & taken, axis=0))


def march_trajectory(params: Parameters, basis: SpectralBasis, u0: StateField,
                     grid: TimeGrid, event_times: np.ndarray,
                     kick_factors: np.ndarray, drift, n_bins: int,
                     with_norms: bool = True, on_kick=None) -> Trajectory:
    """``march`` of a single path (S = 1), its state at every grid time as
    a Trajectory.

    Raises the path's ``BlowUpError`` if it blew up.
    """
    n = grid.refined_steps(n_bins)
    stack = np.empty((n + 1,) + u0.modes.shape, dtype=complex)
    stack[0] = u0.modes

    def on_save(rows, k, modes):
        stack[k] = modes

    res = march(params, basis, u0, grid, event_times, kick_factors, drift,
                n_bins, on_save=on_save, on_kick=on_kick)
    if res.errors[0] is not None:
        raise res.errors[0]
    norms = None
    if with_norms:
        p = params.lp_exponent
        l2sq, gradsq, lp = norm_powers(basis, stack, p)
        norms = {"l2": np.sqrt(l2sq), "grad_l2": np.sqrt(gradsq),
                 "l2sigma2": np.power(lp, 1.0 / p)}
    return Trajectory(np.arange(n + 1) * (grid.T / n), stack, basis, norms)


def solve_skeleton(params: Parameters, basis: SpectralBasis, u0: StateField,
                   jm: JumpModel, ctrl: Control, grid: TimeGrid,
                   with_norms: bool = True) -> Trajectory:
    """Integrate the controlled deterministic equation on [0, T]."""
    none = np.empty((1, 0))
    return march_trajectory(params, basis, u0, grid, none, none,
                            drift_coefficient(jm, ctrl.phi), ctrl.n_bins,
                            with_norms=with_norms)


def embed_modes(modes: np.ndarray, basis_to: SpectralBasis) -> np.ndarray:
    """Truncate or zero-pad a coefficient matrix into another basis size."""
    out = np.zeros((basis_to.n1, basis_to.n2), dtype=complex)
    n1 = min(modes.shape[0], basis_to.n1)
    n2 = min(modes.shape[1], basis_to.n2)
    out[:n1, :n2] = modes[:n1, :n2]
    return out


def galerkin_refine(params: Parameters, jm: JumpModel, ctrl: Control,
                    u0: StateField, grid: TimeGrid,
                    n_list: list[int]) -> list[tuple[int, float]]:
    """Endpoint self-convergence study over basis sizes.

    Runs the skeleton at each n in n_list (increasing; the largest is the
    reference), every basis padded as u0's, and reports
    ||u_n(T) - u_nmax(T)|| for the coarser sizes.
    """
    from .spectral import make_basis
    if len(n_list) < 2 or any(a >= b for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be increasing with at least two entries")
    pad_factor = u0.basis.pad_factor
    endpoints = {}
    for n in n_list:
        basis_n = make_basis(n, n, params, pad_factor)
        u0_n = StateField(embed_modes(u0.modes, basis_n), basis_n)
        traj = solve_skeleton(params, basis_n, u0_n, jm, ctrl, grid, with_norms=False)
        endpoints[n] = traj.endpoint.modes
    basis_max = basis_n     # the loop's last basis, the largest
    ref = endpoints[n_list[-1]]
    out = []
    for n in n_list[:-1]:
        diff = ref - embed_modes(endpoints[n], basis_max)
        out.append((n, float(np.sqrt(norm_powers(basis_max, diff)[0]))))
    return out
