"""Pathwise integration of the jump-driven SPDE, raw or under a control.

Between events the dynamics are deterministic, with the constant drift
-(sum_j g_j nu_j) u of the compensated noise term; at a sampled event
(t_i, j) the field takes the multiplicative kick
u(t_i) = u(t_i-) * (1 + eps * g_j).  The controlled process is the same
equation driven by the thinned measure of intensity eps^-1 phi nu: it is
still compensated by eps^-1 nu, so only its events differ from the raw
process, never its drift.  Jump times are inserted exactly into the step
sequence, so a scalar single-mode run admits a closed-form product oracle.

``march_batch`` marches the Monte Carlo rows of a batch of seeds, each
seed at every noise scale of a list, in lock step; it is the one place where
Monte Carlo events are sampled.
``solve_spde``, the single-path solver, is the same march with one path and
samples its own events, from the thinned measure when given a control.
"""

from __future__ import annotations

import numpy as np

from .jumps import (Control, JumpModel, JumpSample, NoiseScale, compensator_drift,
                    sample_prm)
from .params import Parameters
from .skeleton import MarchResult, TimeGrid, Trajectory, march, march_trajectory
from .spectral import SpectralBasis, StateField, norm_powers


def _pad_events(samples: list[JumpSample], jm: JumpModel, eps: list[float],
                keep_identity: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(S, E) event times padded with +inf and kick factors padded with 1.0.

    ``eps`` holds the noise scale of each sample.  A path whose kicks are all
    the identity loses its events unless ``keep_identity``, so it steps
    exactly like the deterministic run.
    """
    kicks = [1.0 + e * jm.g[s.marks] for s, e in zip(samples, eps)]
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
                jm: JumpModel, eps_list: list[float], ctrl: Control | None,
                grid: TimeGrid, seeds: list[int], on_save=None) -> MarchResult:
    """March every (seed, eps) pair as one path, in lock step: the raw SPDE
    if ``ctrl`` is None, else the controlled SPDE.

    Row i * m + j is ``seeds[i]`` at ``eps_list[j]`` (m noise scales); its
    events are drawn by ``sample_prm`` from that seed, thinned under ``ctrl``.
    Rows at different noise scales differ only in their events and kicks, so
    they march together.  A controlled march keeps the control's bins, so its
    grid is the one its skeleton is solved on.
    """
    samples = [sample_prm(jm, NoiseScale(e), grid.T, s, ctrl)
               for s in seeds for e in eps_list]
    times, factors = _pad_events(samples, jm, list(eps_list) * len(seeds))
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
    for every event, identity kicks included.
    """
    if events is None:
        events = sample_prm(jm, eps, grid.T, seed, ctrl)
    times, factors = _pad_events([events], jm, [eps.epsilon],
                                 keep_identity=event_log is not None)
    on_kick = None
    if event_log is not None:
        def on_kick(rows, j, before, after):
            i = int(j[0])
            pre, post = np.sqrt(norm_powers(basis, np.concatenate([before, after]))[0])
            event_log.append((float(events.times[i]), int(events.marks[i]),
                              float(pre), float(post)))
    n_bins = 1 if ctrl is None else ctrl.n_bins
    return march_trajectory(params, basis, u0, grid, times, factors,
                            compensator_drift(jm), n_bins, on_kick=on_kick)
