"""Pathwise integration of the jump-driven SPDE, raw or under a control.

Between events the dynamics are deterministic, with the constant drift
-(sum_j g_j nu_j) u of the compensated noise term; at a sampled event
(t_i, j) the field takes the multiplicative kick
u(t_i) = u(t_i-) * (1 + eps * g_j).  The controlled process is the same
equation driven by the thinned measure of intensity eps^-1 phi nu: it is
still compensated by eps^-1 nu, so only its events differ from the raw
process, never its drift.  Jump times are inserted exactly into the step
sequence, so a scalar single-mode run admits a closed-form product oracle.
An event whose kick factor is exactly 1.0 (a mark with g_j = 0) is no
event at all: ``_pad_events``, the one place that lays out a path's kicks,
drops it, so it never splits a step and no event log lists it.

``march_batch`` marches the Monte Carlo rows of a batch of seeds, each
seed at every noise scale of a list, in lock step; it is the one place where
Monte Carlo events are sampled, each seed once for all its noise scales.
``solve_spde``, the single-path solver, is the same march with one path and
samples its own events, from the thinned measure when given a control.
"""

from __future__ import annotations

import numpy as np

from .jumps import (Control, JumpModel, JumpSample, NoiseScale, compensator_drift,
                    sample_prm, sample_prm_scales)
from .params import Parameters
from .skeleton import MarchResult, TimeGrid, Trajectory, march, march_trajectory
from .spectral import SpectralBasis, StateField, norm_powers


def _pad_events(samples: list[JumpSample], jm: JumpModel,
                eps: list[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S, E) times, kick factors 1 + eps g_j and marks of the events that
    kick each sample's path, padded with +inf, 1.0 and -1; ``eps`` holds the
    noise scale of each sample.

    The batch's events are laid end to end, their factors computed in one
    expression and the kicking ones scattered to (sample, rank among its
    kicks), E being the most kicks any sample takes.
    """
    n = [s.n_events for s in samples]
    row = np.repeat(np.arange(len(samples)), n)
    t = np.concatenate([s.times for s in samples])
    m = np.concatenate([s.marks for s in samples])
    f = 1.0 + np.repeat(eps, n) * jm.g[m]
    # a factor of exactly 1.0 (g_j = 0, or eps g_j below rounding) is no event
    keep = f != 1.0
    row, t, f, m = row[keep], t[keep], f[keep], m[keep]
    count = np.bincount(row, minlength=len(samples))
    rank = np.arange(row.size) - (np.cumsum(count) - count)[row]
    times = np.full((len(samples), count.max()), np.inf)
    factors = np.ones(times.shape)
    marks = np.full(times.shape, -1)
    times[row, rank] = t
    factors[row, rank] = f
    marks[row, rank] = m
    return times, factors, marks


def march_batch(params: Parameters, basis: SpectralBasis, u0: StateField,
                jm: JumpModel, eps_list: list[float], ctrl: Control | None,
                grid: TimeGrid, seeds: list[int], on_save=None) -> MarchResult:
    """March every (seed, eps) pair as one path, in lock step: the raw SPDE
    if ``ctrl`` is None, else the controlled SPDE.

    Row i * m + j is ``seeds[i]`` at ``eps_list[j]`` (m noise scales); its
    events are those ``sample_prm`` draws from that seed, thinned under
    ``ctrl``.  Each seed is sampled once for all m scales
    (``sample_prm_scales``), so its mark generators are built once.
    Rows at different noise scales differ only in their events and kicks, so
    they march together.  A controlled march keeps the control's bins, so its
    grid is the one its skeleton is solved on.
    """
    scales = [NoiseScale(e) for e in eps_list]
    samples = [sample for s in seeds
               for sample in sample_prm_scales(jm, scales, grid.T, s, ctrl)]
    times, factors = _pad_events(samples, jm, list(eps_list) * len(seeds))[:2]
    n_bins = 1 if ctrl is None else ctrl.n_bins
    return march(params, basis, u0, grid, times, factors,
                 compensator_drift(jm), n_bins, on_save=on_save)


def solve_spde(params: Parameters, basis: SpectralBasis, u0: StateField,
               jm: JumpModel, eps: NoiseScale, grid: TimeGrid, seed: int,
               ctrl: Control | None = None, events: JumpSample | None = None,
               event_log: list | None = None) -> Trajectory:
    """One path of the small-noise SPDE, deterministic given the seed.

    Under ``ctrl`` the path is driven by the thinned PRM of intensity
    eps^-1 phi nu and marched on the control's bins.  The drift is the raw
    -(sum_j g_j nu_j) either way: the control changes only the events, so
    under a 1-bin control and the same ``events`` the two paths agree bit for
    bit.  ``events`` overrides sampling (used by tests that inject a fixed or
    empty event set); ``event_log`` collects (t, mark, ||u(t-)||, ||u(t)||)
    for every kick the path takes, so keeping a log never changes the path.
    """
    if events is None:
        events = sample_prm(jm, eps, grid.T, seed, ctrl)
    times, factors, marks = _pad_events([events], jm, [eps.epsilon])
    on_kick = None
    if event_log is not None:
        def on_kick(rows, j, before, after):
            i = int(j[0])
            pre, post = np.sqrt(norm_powers(basis, np.concatenate([before, after]))[0])
            event_log.append((float(times[0, i]), int(marks[0, i]),
                              float(pre), float(post)))
    n_bins = 1 if ctrl is None else ctrl.n_bins
    return march_trajectory(params, basis, u0, grid, times, factors,
                            compensator_drift(jm), n_bins, on_kick=on_kick)
