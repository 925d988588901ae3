"""Pathwise integration of the jump-driven SPDE and its controlled variant.

Between events the dynamics are deterministic, with the constant drift
-(sum_j g_j nu_j) u of the compensated noise term; at a sampled event
(t_i, j) the field takes the multiplicative kick
u(t_i) = u(t_i-) * (1 + eps * g_j).  The controlled process is the same
equation driven by the thinned measure of intensity eps^-1 phi nu: it is
still compensated by eps^-1 nu, so only its events differ from the raw
process, never its drift.  Jump times are inserted exactly into the step
sequence, so a scalar single-mode run admits a closed-form product oracle.

``march_batch`` marches a batch of sampled paths in lock step; the
single-path solvers are the same march with one path.
"""

from __future__ import annotations

import numpy as np

from .jumps import (Control, JumpModel, JumpSample, NoiseScale,
                    sample_controlled_prm, sample_prm)
from .params import Parameters
from .skeleton import MarchResult, TimeGrid, Trajectory, march, march_trajectory
from .spectral import SpectralBasis, StateField


def _pad_events(samples: list[JumpSample], jm: JumpModel, eps: float,
                keep_identity: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(S, E) event times padded with +inf and kick factors padded with 1.0.

    A path whose kicks are all the identity loses its events unless
    ``keep_identity``, so it steps exactly like the deterministic run.
    """
    kicks = [1.0 + eps * jm.g[s.marks] for s in samples]
    if not keep_identity:
        kicks = [f if np.any(f != 1.0) else f[:0] for f in kicks]
    width = max((f.size for f in kicks), default=0)
    times = np.full((len(samples), width), np.inf)
    factors = np.ones((len(samples), width))
    for i, (s, f) in enumerate(zip(samples, kicks)):
        times[i, :f.size] = s.times[:f.size]
        factors[i, :f.size] = f
    return times, factors


def march_batch(params: Parameters, basis: SpectralBasis, u0: StateField,
                jm: JumpModel, eps: NoiseScale, ctrl: Control | None,
                grid: TimeGrid, samples: list[JumpSample],
                on_save=None) -> MarchResult:
    """March one path per sample in lock step: raw SPDE if ``ctrl`` is None,
    else the controlled SPDE (samples drawn from the thinned PRM).

    A controlled march keeps the control's bins, so its grid is the one its
    skeleton is solved on.
    """
    times, factors = _pad_events(samples, jm, eps.epsilon)
    n_bins = 1 if ctrl is None else ctrl.n_bins
    return march(params, basis, u0, grid, times, factors,
                 -np.sum(jm.g * jm.nu), n_bins, on_save=on_save)


def _solve_path(params, basis, u0, jm, eps, ctrl, grid, events, event_log,
                with_norms) -> Trajectory:
    times, factors = _pad_events([events], jm, eps.epsilon,
                                 keep_identity=event_log is not None)
    on_kick = None
    if event_log is not None:
        def on_kick(rows, j, before, after):
            i = int(j[0])
            event_log.append((float(events.times[i]), int(events.marks[i]),
                              float(np.sqrt(np.sum(np.abs(before) ** 2))),
                              float(np.sqrt(np.sum(np.abs(after) ** 2)))))
    n_bins = 1 if ctrl is None else ctrl.n_bins
    return march_trajectory(params, basis, u0, grid, times, factors,
                            -np.sum(jm.g * jm.nu), n_bins, with_norms, on_kick)


def solve_spde(params: Parameters, basis: SpectralBasis, u0: StateField,
               jm: JumpModel, eps: NoiseScale, grid: TimeGrid, seed: int,
               events: JumpSample | None = None,
               event_log: list | None = None, with_norms: bool = True) -> Trajectory:
    """One path of the small-noise SPDE, deterministic given the seed.

    The compensator of the compensated-noise term contributes the constant
    drift -(sum_j g_j nu_j) between kicks; ``events`` overrides sampling
    (used by tests that inject a fixed or empty event set).
    """
    if events is None:
        events = sample_prm(jm, eps, grid.T, seed)
    return _solve_path(params, basis, u0, jm, eps, None, grid, events,
                       event_log, with_norms)


def solve_controlled_spde(params: Parameters, basis: SpectralBasis, u0: StateField,
                          jm: JumpModel, eps: NoiseScale, ctrl: Control,
                          grid: TimeGrid, seed: int,
                          events: JumpSample | None = None,
                          event_log: list | None = None,
                          with_norms: bool = True) -> Trajectory:
    """One path of the controlled SPDE driven by the thinned PRM.

    The drift is the raw one, -(sum_j g_j nu_j) u: the control changes only
    the events, so under a 1-bin control and the same ``events`` this is
    ``solve_spde`` bit for bit.
    """
    if events is None:
        events = sample_controlled_prm(jm, eps, ctrl, seed)
    return _solve_path(params, basis, u0, jm, eps, ctrl, grid, events,
                       event_log, with_norms)
