"""Full-recompute reference for the labeled-particle jump chain.

A deliberately plain construction for the tests to compare
`sipsim.dynamics` against: before every event the whole list of
(particle, target, rate) triples is rebuilt from scratch, the total is a
left-to-right `total += r` loop, and the event is the first whose running
sum `acc += r` exceeds u * total (the last one if none does). The waiting
time is drawn before the event, so a run consumes the stream exactly as the
incremental kernel must.

`kind` is "sip" (or `ProcessKind.SIP`) or "irw": the free-walker chain,
every particle an independent rate-(m/2) walk, lives here alone.

`sample_tuples` and `reference_block` translate between the kernel's site
ids and particle tuples, so that tests can compare the two.
"""

import numpy as np

from sipsim.core import occupation_of
from sipsim.dynamics import ProcessKind, Trajectory, sample_at_times, site_ids


def particles_of(counts):
    """Expand an occupation map to a particle tuple, sites in sorted order."""
    out = []
    for site in sorted(counts):
        out.extend([site] * counts[site])
    return tuple(out)


def sample_tuples(starts, params, times, streams, log=None):
    """`sample_at_times` on particle tuples: the starts through `site_ids`,
    and per replica its state at each grid time as a tuple."""
    paths, sites = sample_at_times(*site_ids(starts), params, times, streams, log)
    return [[tuple(sites[k] for k in state if k >= 0) for state in path]
            for path in paths.tolist()]


def reference_block(starts, sites, params, times, streams):
    """`sample_at_times` by the full-recompute reference: each start of the
    id array run alone as a tuple, its states turned back into ids, sites
    outside `sites` appended in order of first sight."""
    table = {x: k for k, x in enumerate(sites)}
    out = np.full((len(starts), len(times), starts.shape[1]), -1, dtype=np.intp)
    for path, row, stream in zip(out, starts.tolist(), streams):
        xi0 = tuple(sites[k] for k in row if k >= 0)
        for ids, state in zip(path, reference_sample_at_times(xi0, ProcessKind.SIP, params,
                                                               times, stream)):
            ids[: len(state)] = [table.setdefault(x, len(table)) for x in state]
    return out, list(table)


def reference_sip_rates(particles, params):
    geo = params.geometry
    half_m = 0.5 * params.m
    p_edge = 1.0 / (2.0 * geo.d)
    occ = occupation_of(particles)
    entries = []
    for i, x in enumerate(particles):
        for y in geo.neighbors(x):
            entries.append((i, y, p_edge * (half_m + occ.get(y, 0))))
    return entries


def reference_irw_rates(particles, params):
    geo = params.geometry
    rate = 0.5 * params.m / (2.0 * geo.d)
    entries = []
    for i, x in enumerate(particles):
        for y in geo.neighbors(x):
            entries.append((i, y, rate))
    return entries


_RATE_FNS = {"sip": reference_sip_rates, "irw": reference_irw_rates}


def _rate_fn(kind):
    return _RATE_FNS[getattr(kind, "value", kind)]


def reference_step(particles, rates, stream):
    total = 0.0
    for _, _, r in rates:
        total += r
    dt = stream.exponential(total)
    u = stream.uniform() * total
    acc = 0.0
    chosen = rates[-1]
    for entry in rates:
        acc += entry[2]
        if u < acc:
            chosen = entry
            break
    i, y, _ = chosen
    out = list(particles)
    out[i] = y
    return tuple(out), dt


def reference_simulate(xi0, kind, params, horizon, stream, record="final"):
    rate_fn = _rate_fn(kind)
    full = record == "full"
    state = tuple(xi0)
    times = [0.0]
    states = [state]
    t = 0.0
    while state:
        rates = rate_fn(state, params)
        state_next, dt = reference_step(state, rates, stream)
        if t + dt > horizon:
            break
        t += dt
        state = state_next
        if full:
            times.append(t)
            states.append(state)
    if not full:
        times = [t]
        states = [state]
    return Trajectory(times=times, states=states, horizon=horizon)


def reference_sample_at_times(xi0, kind, params, times, stream):
    grid = list(times)
    rate_fn = _rate_fn(kind)
    state = tuple(xi0)
    out = []
    if not state:
        return [state for _ in grid]
    t = 0.0
    gi = 0
    n_grid = len(grid)
    while gi < n_grid:
        rates = rate_fn(state, params)
        state_next, dt = reference_step(state, rates, stream)
        t_next = t + dt
        while gi < n_grid and grid[gi] < t_next:
            out.append(state)
            gi += 1
        t = t_next
        state = state_next
    return out
