"""Event-driven continuous-time dynamics of labeled particles.

Under SIP(m), a labeled particle at x jumps to each neighbor y at rate
p(x,y) * (m/2 + eta(y)), where eta counts all particles of the list and p
is the symmetric nearest-neighbor kernel 1/(2d); summing over the eta(x)
particles at a site recovers the occupation-level rate
eta(x) * p(x,y) * (m/2 + eta(y)). `event_rates` is the one statement of
this rate list and its order; the OR coupling takes the inclusion part
p(x,y) * eta(y) from it with half_m = 0.0.

Simulation is plain Gillespie, one `gillespie_step` per event, and every
rate and running sum takes the floating-point operations of a full rebuild
of `event_rates`, in the same order, so each event consumes the same two
draws and picks the same move as full recomputation would. The one kernel
is `sample_at_times`, lockstep over a block of trajectories: each round
steps every live replica once, moves all movers, and rebuilds their rows
of running sums at once with numpy from integer site ids, a neighbor-id
table and per-replica occupation counts. `simulate` runs a one-start
block and replays its event log.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Geometry, ParticleList, RandomStream, occupation_of


class NoEventError(ValueError):
    """Gillespie step invoked with an empty rate list."""


class ProcessKind(str, Enum):
    SIP = "sip"


@dataclass(frozen=True)
class SipParams:
    m: float
    geometry: Geometry

    def __post_init__(self):
        if not (math.isfinite(self.m) and self.m > 0):
            raise ValueError(
                f"inclusion parameter m must be positive and finite, got {self.m!r}")


def event_rates(particles, geometry: Geometry, half_m: float):
    """Per-(particle, neighbor) rates p(x,y) * (half_m + eta(y)), as a list.

    Entry 2d*i + j is particle i jumping to its j-th neighbor, in geometry
    order. With half_m = m/2 these are the SIP jump rates; with half_m = 0.0
    they are the inclusion part alone, exactly 0.0 towards an empty site.
    """
    p_edge = 1.0 / (2.0 * geometry.d)
    occ = occupation_of(particles)
    return [p_edge * (half_m + occ.get(y, 0)) for x in particles for y in geometry.neighbors(x)]


def gillespie_step(cumulative, stream: RandomStream):
    """One exact jump: exponential dt at the total rate, then a rate-weighted pick.

    `cumulative` holds the running sums of the event rates, left to right
    (`itertools.accumulate`), so its last entry is the total rate; a list,
    a 1-D numpy array and a 1-D float memoryview of the same sums give the
    same (event index, dt), dt a Python float; bisecting a memoryview reads
    Python floats, a numpy row makes a numpy scalar per probe. The waiting
    time is drawn first and the event second, which fixes the draw order
    ties are broken by: the event picked is the first whose running sum
    exceeds u * total, and the last one if rounding puts u * total at or
    above the total.
    """
    if len(cumulative) == 0:
        raise NoEventError("no events available")
    total = float(cumulative[-1])
    dt = stream.exponential(total)
    k = bisect_right(cumulative, stream.uniform() * total)
    return min(k, len(cumulative) - 1), dt


@dataclass
class Trajectory:
    """Jump-chain record: strictly increasing event times with snapshots."""

    times: list
    states: list
    horizon: float

    @property
    def final(self) -> ParticleList:
        return self.states[-1]


def simulate(xi0, kind: ProcessKind, params: SipParams, horizon: float,
             stream: RandomStream, record: str = "final") -> Trajectory:
    """Exact SIP jump chain up to the time horizon: a one-start block of
    `sample_at_times` to [horizon], its event log replayed.

    record="full" keeps every event; "final" keeps only the endpoint,
    stamped with the time it was entered.
    """
    ProcessKind(kind)  # SIP is the one kind; any other value raises ValueError
    if record not in ("final", "full"):
        raise ValueError(f"record must be 'final' or 'full', got {record!r}")
    log = []
    sample_at_times([xi0], params, [horizon], [stream], log)
    positions = list(xi0)
    times, states = [0.0], [tuple(positions)]
    for t, _, i, y in log:
        positions[i] = y
        if record == "full":
            times.append(t)
            states.append(tuple(positions))
    if record == "final":
        times, states = [log[-1][0] if log else 0.0], [tuple(positions)]
    return Trajectory(times=times, states=states, horizon=horizon)


class _SiteTable:
    """Integer ids for the sites a block of B replicas sees, with their levels.

    Id 0 is a void site: padding entries of the running-sum rows point at
    it, and its level is exactly 0.0. A site, on a torus as on Z^d, gets an
    id when it is first seen as a particle's position or neighbor.
    `neighbors[k]` holds the ids of site k's 2d neighbors in geometry order
    (`Geometry.neighbors`), or None until a particle stands on k, and row k
    of `targets` holds the same ids times B. Entry k*B + b of `occupation`
    (a list) counts the particles of replica b on site k, and the same
    entry of `level` (an array) is that site's level in replica b.
    """

    __slots__ = ("geometry", "n_block", "sites", "neighbors", "targets", "occupation",
                 "level", "_ids", "_empty")

    def __init__(self, geometry: Geometry, n_block: int, empty_level: float):
        self.geometry, self.n_block, self._empty = geometry, n_block, empty_level
        width, cap = 2 * geometry.d, 64
        self.sites, self.neighbors, self._ids = [None], [(0,) * width], {}
        self.targets = np.zeros((cap, width), dtype=np.intp)
        self.occupation = [0] * (cap * n_block)
        self.level = np.full(cap * n_block, empty_level)
        self.level[:n_block] = 0.0

    def _id(self, site) -> int:
        k = self._ids.get(site)
        if k is None:
            k = self._ids[site] = len(self.sites)
            self.sites.append(site)
            self.neighbors.append(None)
            cap = len(self.targets)
            if k == cap:  # double every table; old flat indices keep their entries
                B = self.n_block
                self.targets = np.concatenate((self.targets, np.zeros_like(self.targets)))
                self.occupation += [0] * (cap * B)
                self.level = np.concatenate((self.level, np.full(cap * B, self._empty)))
        return k

    def stand(self, k: int):
        """Fill the neighbor row of site id k, on which a particle stands."""
        around = self.neighbors[k] = tuple(map(self._id, self.geometry.neighbors(self.sites[k])))
        self.targets[k] = [z * self.n_block for z in around]

    def enter(self, start) -> list:
        """The ids of a start's sites, their neighbor rows filled; on a torus
        a site outside [0, L) raises `ValueError` from `Geometry.neighbors`."""
        ids, neighbors, out = self._ids, self.neighbors, []
        for site in start:
            k = ids.get(site)
            if k is None or neighbors[k] is None:
                k = self._id(site)
                self.stand(k)
            out.append(k)
        return out


def sample_at_times(starts, params: SipParams, times, streams, log=None):
    """SIP states observed at each requested time (ascending), for a block
    of trajectories: entry b of the result lists, per grid time, the state
    of starts[b] evolved on streams[b] alone.

    Each trajectory is evolved to max(times); snapshots at the grid points
    are the pre-jump states, matching right-continuous paths up to a
    measure-zero set of exact ties. The last event drawn spends its two
    draws and its move is never seen. Empty starts and an empty grid draw
    nothing.

    The replicas run in lockstep. Each round calls `gillespie_step` once per
    live replica on that replica's row of running sums, a memoryview slice
    of one buffer: entry 2d*i + j is particle i jumping to its j-th
    neighbor, the entries past the replica's own particles are exactly 0.0,
    and the pick is clamped to the replica's own last entry. The first rows
    and the occupation counts come from one array of site ids per replica,
    padded with the void site id 0, in a few array operations. Then every
    mover's row is rebuilt from the level table p_edge * (half_m + c) at
    its neighbors' occupations and re-accumulated with `np.cumsum`, which
    adds left to right as
    `itertools.accumulate` does, so every replica draws and moves bit for
    bit as it would alone. Finished replicas leave the live prefix of the
    row buffers, replaced by the last live one.

    Passing a list as `log` records every applied move as a (time, replica,
    particle, site moved to) tuple, in the order applied.
    """
    grid = list(times)
    if (not all(math.isfinite(t) and t >= 0 for t in grid)
            or any(b < a for a, b in zip(grid, grid[1:]))):
        raise ValueError("times must be finite, nonnegative and ascending")
    if len(streams) != len(starts):
        raise ValueError(f"{len(starts)} starts need as many streams, got {len(streams)}")
    geo = params.geometry
    width, B = 2 * geo.d, len(starts)
    n_max = max(map(len, starts), default=0)
    p_edge, half_m = 1.0 / (2.0 * geo.d), 0.5 * params.m
    levels = [p_edge * (half_m + c) for c in range(n_max + 1)]
    table = _SiteTable(geo, B, levels[0])
    positions = [table.enter(start) for start in starts]
    out = [[] if p else [() for _ in grid] for p in positions]
    live = [b for b, p in enumerate(positions) if p and grid]
    held = np.arange(n_max) < np.array(list(map(len, positions)))[:, None]
    ids = np.zeros((B, n_max), dtype=np.intp)
    ids[held] = [x for p in positions for x in p]
    counts = np.bincount((ids * B + np.arange(B)[:, None])[held], minlength=len(table.occupation))
    table.occupation = counts.tolist()
    table.level[B:] = np.take(levels, counts[B:])
    sites, neighbors, occupation = table.sites, table.neighbors, table.occupation
    n_live, n_grid = len(live), len(grid)
    # a padding entry of replica b reads level[b], the void site's 0.0
    gather = (table.targets[ids[live]] + np.array(live, dtype=np.intp)[:, None, None]
              ).reshape(n_live, width * n_max)
    cumulative = np.empty(gather.shape)
    flat = memoryview(cumulative.ravel())  # bisect reads Python floats from it
    rows = [flat[s * width * n_max:(s + 1) * width * n_max] for s in range(n_live)]
    moves = gather.reshape(n_live * n_max, width)  # one row per (slot, particle)
    last = [width * len(p) - 1 for p in positions]
    clock, next_time = [0.0] * B, [0] * B
    while n_live:
        # mode="clip" fills the buffer in place ("raise" would stage a copy);
        # every index is in range
        table.level.take(gather[:n_live], out=cumulative[:n_live], mode="clip")
        np.cumsum(cumulative[:n_live], axis=1, out=cumulative[:n_live])
        changed, new_levels, moved, landed, movers, done = [], [], [], [], [], []
        for s in range(n_live):
            b = live[s]
            k, dt = gillespie_step(rows[s], streams[b])
            t = clock[b] + dt
            gi = next_time[b]
            if grid[gi] < t:
                state = tuple([sites[x] for x in positions[b]])
                path = out[b]
                while gi < n_grid and grid[gi] < t:
                    path.append(state)
                    gi += 1
                if gi == n_grid:
                    done.append(s)
                    continue
                next_time[b] = gi
            clock[b] = t
            if k > last[b]:
                k = last[b]
            i, j = divmod(k, width)
            p = positions[b]
            x = p[i]
            y = p[i] = neighbors[x][j]
            if neighbors[y] is None:
                table.stand(y)
            fx, fy = x * B + b, y * B + b
            cx = occupation[fx] = occupation[fx] - 1
            cy = occupation[fy] = occupation[fy] + 1
            changed += fx, fy
            new_levels += levels[cx], levels[cy]
            moved.append(s * n_max + i)
            landed.append(y)
            movers.append(b)
        if moved:
            table.level.put(changed, new_levels)
            moves[moved] = table.targets[landed] + np.array(movers)[:, None]
            if log is not None:
                log += [(clock[b], b, k % n_max, sites[y])
                        for b, k, y in zip(movers, moved, landed)]
        for s in reversed(done):
            n_live -= 1
            live[s] = live[n_live]
            gather[s] = gather[n_live]
    return out
