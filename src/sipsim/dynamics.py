"""Event-driven continuous-time dynamics of labeled particles.

Under SIP(m), a labeled particle at x jumps to each neighbor y at rate
p(x,y) * (m/2 + eta(y)), where eta counts all particles of the list and p
is the symmetric nearest-neighbor kernel 1/(2d), `Geometry.p_edge`; summing
over the eta(x) particles at a site recovers the occupation-level rate
eta(x) * p(x,y) * (m/2 + eta(y)). The kernel's level table p(x,y) * (m/2 + c)
is the one statement of this rate; the rate list's entry 2d*i + j is particle
i jumping to its j-th neighbor, in geometry order.

Simulation is plain Gillespie: an exponential waiting time at the total
rate, then a rate-weighted pick, as `gillespie_step` states them. Every rate
and running sum takes the floating-point operations of a full rebuild of
that list, in the same order, so each event consumes the same two draws
and picks the same move as full recomputation would. The one kernel is
`sample_at_times`, lockstep over a block of trajectories: each round is a
few array operations over every live replica, on a window of peeked draws,
integer site ids, a neighbor-id table and per-replica occupation counts;
it takes and returns site-id arrays. `simulate` runs a one-start block.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Geometry, ParticleList, RandomStream, check_grid, waiting_times


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


def gillespie_step(cumulative, stream: RandomStream):
    """One exact jump: exponential dt at the total rate, then a rate-weighted pick.

    `cumulative` holds the running sums of the event rates, left to right
    (`itertools.accumulate`); a list, a 1-D numpy array and a 1-D float
    memoryview give the same (event index, dt). The waiting time is drawn
    first, then the event: the first whose running sum exceeds u * total,
    or the last one if rounding puts u * total at or above the total.
    `sample_at_times` takes these float operations for a whole block.
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
    `sample_at_times` to [horizon].

    record="full" replays the event log into every event; "final" keeps only
    the endpoint, stamped with the time it was entered, and its log keeps
    only the last row.
    """
    ProcessKind(kind)  # SIP is the one kind; any other value raises ValueError
    if record not in ("final", "full"):
        raise ValueError(f"record must be 'final' or 'full', got {record!r}")
    log = [] if record == "full" else deque(maxlen=1)
    paths, sites = sample_at_times(*site_ids([xi0]), params, [horizon], [stream], log)
    if record == "final":
        final = tuple(map(sites.__getitem__, paths[0, 0].tolist()))
        return Trajectory(times=[log[-1][0] if log else 0.0], states=[final], horizon=horizon)
    positions, times, states = list(xi0), [0.0], [tuple(xi0)]
    for t, _, i, y in log:
        positions[i] = y
        times.append(t)
        states.append(tuple(positions))
    return Trajectory(times=times, states=states, horizon=horizon)


def site_ids(states, sites=()):
    """Particle tuples as `sample_at_times` takes them: an id array padded
    with -1, and the id -> site list, `sites` then new sites as first seen."""
    table = {x: k for k, x in enumerate(sites)}
    ids = np.full((len(states), max(map(len, states), default=0)), -1, dtype=np.intp)
    for row, state in zip(ids, states):
        row[: len(state)] = [table.setdefault(x, len(table)) for x in state]
    return ids, list(table)


class _SiteTable:
    """Integer ids for the sites a block of B replicas sees, with their levels.

    Id 0 is a void site: padding entries of the running-sum rows point at it,
    and its level is exactly 0.0. Ids 1, 2, ... are the caller's sites, then
    each site first seen as a position or neighbor; a torus table has room
    for every site. Once a particle stands on site k, row k of `targets`
    holds its 2d neighbors' ids in geometry order (`Geometry.neighbors`)
    times B, until then 0. Entry k*B + b of `occupation` counts the particles
    of replica b on site k, and the same entry of `level` is their level.
    """

    __slots__ = ("geometry", "n_block", "sites", "targets", "occupation", "level", "_ids",
                 "_empty")

    def __init__(self, geometry: Geometry, n_block: int, empty_level: float, sites):
        self.geometry, self.n_block, self._empty = geometry, n_block, empty_level
        self.sites, self._ids = [None, *sites], {x: k for k, x in enumerate(sites, 1)}
        cap = max(geometry.n_sites if geometry.is_torus else 63, len(sites)) + 1
        self.targets = np.zeros((cap, 2 * geometry.d), dtype=np.intp)
        self.occupation = np.zeros(cap * n_block, dtype=np.intp)
        self.level = np.full(cap * n_block, empty_level)
        self.level[:n_block] = 0.0

    def _id(self, site) -> int:
        k = self._ids.get(site)
        if k is None:
            k = self._ids[site] = len(self.sites)
            self.sites.append(site)
            if k == len(self.targets):  # double every table; old flat indices keep their entries
                self.targets = np.concatenate((self.targets, np.zeros_like(self.targets)))
                self.occupation = np.concatenate((self.occupation, np.zeros_like(self.occupation)))
                self.level = np.concatenate((self.level, np.full(len(self.level), self._empty)))
        return k

    def stand(self, ks):
        """Fill the neighbor rows of the site ids ks (an array) on which
        particles stand; on a torus a site outside [0, L) raises
        `ValueError` from `Geometry.neighbors`."""
        for k in dict.fromkeys(ks[self.targets[ks, 0] == 0].tolist()):  # np.unique loads numpy.ma
            self.targets[k] = [self._id(z) * self.n_block
                               for z in self.geometry.neighbors(self.sites[k])]


# Rounds a block reads from one peek: each live stream's next 2 * _WINDOW
# draws, advanced past the draws used when it finishes or the window ends.
_WINDOW = 16


def sample_at_times(starts, sites, params: SipParams, times, streams, log=None):
    """SIP states at each requested time (ascending) of a block: row b of the
    (B x n) int array `starts` holds start b's ids (k names distinct sites[k])
    in label order, -1 padding last. Returns the (B x len(times) x n) ids of
    each start evolved on streams[b] alone, and `sites` plus sites first seen.

    Each trajectory is evolved to max(times); snapshots at the grid points
    are the pre-jump states, matching right-continuous paths up to a
    measure-zero set of exact ties. The last event drawn spends its two
    draws and its move is never seen. Empty starts and an empty grid draw
    nothing; bad ids and torus sites outside [0, L) raise before any draw.

    The replicas run in lockstep, one round of array operations per event,
    with `gillespie_step`'s float operations: a live replica's running sums
    (entry 2d*i + j is particle i jumping to its j-th neighbor, exactly 0.0
    past its own particles) give the wait `waiting_times` at u1 and the
    event as the count of sums at or below u2 * total, clamped to its own
    last entry, u1 and u2 its next draws in the block's window. The sums are
    rebuilt from the level table p(x,y) * (m/2 + c) and `np.cumsum`, left
    to right as `itertools.accumulate` adds, so every replica draws and
    moves bit for bit as it would alone.

    Passing a list (or a deque) as `log` appends every applied move as a
    (time, replica, particle, site moved to) tuple, in the order applied.
    """
    grid = check_grid(times)
    starts = np.asarray(starts)
    held = starts >= 0
    if (starts.ndim != 2 or starts.dtype.kind not in "iu" or len(starts) != len(streams)
            or ((starts < -1) | (starts >= len(sites)) | (held.cumprod(1) < held)).any()):
        raise ValueError(f"starts need a row of ids in [-1, {len(sites)}) per stream, -1 last")
    geo = params.geometry
    width, (B, n_max) = 2 * geo.d, starts.shape
    levels = np.array([geo.p_edge * (0.5 * params.m + c) for c in range(n_max + 1)])
    table = _SiteTable(geo, B, levels[0], sites)
    ids = starts.astype(np.intp) + 1  # table ids: the void site 0 for padding
    table.stand(ids[held])
    sizes, n_grid = held.sum(1), len(grid)
    out = np.full((B, n_grid, n_max), -1, dtype=np.intp)
    table.occupation = np.bincount((ids * B + np.arange(B)[:, None])[held],
                                   minlength=len(table.level))
    table.level[B:] = levels[table.occupation[B:]]
    # per live slot: replica, flat index k*B + b of each particle's site (b for padding,
    # the void site), running-sum sources, clock, next grid index and last own entry
    live = np.flatnonzero(sizes if grid else ())
    n_live = len(live)
    pos = ids[live] * B + live[:, None]
    gather = (table.targets[ids[live]] + live[:, None, None]).reshape(n_live, width * n_max)
    moves = gather.reshape(n_live * n_max, width)  # one row per (slot, particle)
    cumulative = np.empty(gather.shape)
    clock, next_time, last = np.zeros(n_live), np.zeros_like(live), width * sizes[live] - 1
    grid_at, slots, g = np.array(grid), np.arange(n_live), np.arange(n_grid)
    rows = slots * n_max
    r = 0
    while n_live:
        if not r:  # a window: each live stream's next 2 * _WINDOW draws
            draws = np.array([streams[b].peek(2 * _WINDOW) for b in live[:n_live].tolist()])
        c = cumulative[:n_live]
        # mode="clip" fills c in place ("raise" would stage a copy); indices are in range
        table.level.take(gather[:n_live], out=c, mode="clip")
        c.cumsum(1, out=c)  # the method skips np.cumsum's dispatch
        total = c[:, -1]
        k = np.minimum((c <= (draws[:n_live, 2 * r + 1] * total)[:, None]).sum(1),
                       last[:n_live])
        t = clock[:n_live] + waiting_times(draws[:n_live, 2 * r], total)
        r += 1
        cross = done = (grid_at[next_time[:n_live]] < t).nonzero()[0]
        if len(cross):
            passed = grid_at.searchsorted(t[cross])  # grid times before the event
            at, gi = ((next_time[cross, None] <= g) & (g < passed[:, None])).nonzero()
            out[live[cross[at]], gi] = pos[cross[at]] // B - 1
            next_time[cross] = passed
            done = cross[passed == n_grid]
        for b in (live[:n_live] if r == _WINDOW else live[done]).tolist():
            streams[b].advance(2 * r)  # past the draws it used
        r %= _WINDOW
        # every live replica moves: the move of one that finished is never
        # seen, and it leaves the live prefix below
        s, b, i = slots[:n_live], live[:n_live], k // width
        fx, fy = pos[s, i], gather[s, k]
        pos[s, i], y = fy, fy // B
        clock[:n_live] = t
        table.occupation[fx] -= 1
        table.occupation[fy] += 1
        f = np.concatenate((fx, fy))
        table.level[f] = levels[table.occupation[f]]
        table.stand(y)
        moves[rows[:n_live] + i] = table.targets[y] + b[:, None]
        if log is not None:
            go = np.delete(s, done)
            log += zip(t[go].tolist(), b[go].tolist(), i[go].tolist(),
                       map(table.sites.__getitem__, y[go].tolist()))
        if not len(done):
            continue
        # each finished slot, last first, takes the last live slot's place
        src = {}
        for s in done[::-1].tolist():
            n_live -= 1
            src[s] = src.pop(n_live, n_live)
        holes = [s for s in src if s < n_live]
        fill = [src[s] for s in holes]
        for a in (live, pos, gather, draws, clock, next_time, last):
            a[holes] = a[fill]
    return out, table.sites[1:]
