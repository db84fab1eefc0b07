"""Event-driven continuous-time dynamics of labeled particles.

Under SIP(m), a labeled particle at x jumps to each neighbor y at rate
p(x,y) * (m/2 + eta(y)), where eta counts all particles of the list and p
is the symmetric nearest-neighbor kernel 1/(2d); summing over the eta(x)
particles at a site recovers the occupation-level rate
eta(x) * p(x,y) * (m/2 + eta(y)). Under IRW the inclusion term is absent
and every particle is an independent rate-(m/2) walk. `event_rates` is the
one statement of this rate list and its order; the OR coupling takes the
inclusion part p(x,y) * eta(y) from it with half_m = 0.0.

Simulation is plain Gillespie on one incremental event kernel, which starts
from `event_rates` and, after a move from x to y, recomputes only the moved
particle's rates and the rates aimed at x or y (a dependency-graph update in
the spirit of Gibson & Bruck, J. Phys. Chem. A 104, 2000). Every rate and
running sum takes the floating-point operations of a full rebuild, in the
same order, so each event consumes the same two draws and picks the same
move as full recomputation would. Neighbor tuples are `Geometry.neighbors`,
a per-site table lookup on a torus.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate

from .core import Geometry, ParticleList, RandomStream, occupation_of


class NoEventError(ValueError):
    """Gillespie step invoked with an empty rate list."""


class ProcessKind(str, Enum):
    SIP = "sip"
    IRW = "irw"


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
    (`itertools.accumulate`), so its last entry is the total rate. Returns
    (event index, dt). The waiting time is drawn first and the event second,
    which fixes the draw order ties are broken by: the event picked is the
    first whose running sum exceeds u * total, and the last one if rounding
    puts u * total at or above the total.
    """
    if not cumulative:
        raise NoEventError("no events available")
    total = cumulative[-1]
    dt = stream.exponential(total)
    k = bisect_right(cumulative, stream.uniform() * total)
    return min(k, len(cumulative) - 1), dt


class _EventKernel:
    """The state of one labeled jump chain, updated in place event by event.

    Between events it keeps the particle positions, each particle's
    `Geometry.neighbors` tuple (a table entry on a torus), a site ->
    occupants map and the flat rate list of `event_rates`: entry 2d*i + j
    is particle i jumping to its j-th neighbor. `cumulative` is that list's
    running sum, what `gillespie_step` selects from. A neighbor z of a site
    x holds x in slot j ^ 1 when x holds z in slot j, so the rates aimed at
    a site are found from its neighbors' occupants. Under IRW the rates
    never change and only positions move.
    """

    __slots__ = ("positions", "cumulative", "_neighbors", "_geometry", "_width",
                 "_inclusion", "_occupants", "_rates", "_p_edge", "_half_m")

    def __init__(self, xi0, kind: ProcessKind, params: SipParams):
        kind = ProcessKind(kind)
        geo = params.geometry
        self.positions = list(xi0)
        self._geometry = geo
        self._width = 2 * geo.d
        self._neighbors = [geo.neighbors(x) for x in self.positions]
        self._inclusion = kind is ProcessKind.SIP
        self._p_edge = 1.0 / (2.0 * geo.d)
        self._half_m = 0.5 * params.m
        if self._inclusion:
            self._rates = event_rates(self.positions, geo, self._half_m)
        else:  # not p_edge * half_m, which differs in the last bit at m = 5, d = 3
            self._rates = [0.5 * params.m / (2.0 * geo.d)] * (self._width * len(self.positions))
        self.cumulative = list(accumulate(self._rates))
        self._occupants = {}
        for i, x in enumerate(self.positions):
            self._occupants.setdefault(x, []).append(i)

    def jump(self, k: int):
        """Apply event k (as indexed by `cumulative`) and refresh the rates."""
        i, j = divmod(k, self._width)
        around_x = self._neighbors[i]
        x = self.positions[i]
        y = around_x[j]
        around_y = self._geometry.neighbors(y)
        self.positions[i] = y
        self._neighbors[i] = around_y
        if not self._inclusion:
            return
        occupants = self._occupants
        here = occupants[x]
        here.remove(i)
        if not here:
            del occupants[x]
        occupants.setdefault(y, []).append(i)
        rates, width = self._rates, self._width
        p_edge, half_m = self._p_edge, self._half_m
        base = i * width
        for s, z in enumerate(around_y):
            rates[base + s] = p_edge * (half_m + len(occupants.get(z, ())))
        for site, around in ((x, around_x), (y, around_y)):
            rate = p_edge * (half_m + len(occupants.get(site, ())))
            for s, z in enumerate(around):
                for q in occupants.get(z, ()):
                    rates[q * width + (s ^ 1)] = rate
        self.cumulative = list(accumulate(rates))


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
    """Exact jump-chain simulation of `kind` up to the time horizon.

    record="full" keeps every event; "final" keeps only the endpoint for
    memory-bounded long runs.
    """
    if not (math.isfinite(horizon) and horizon >= 0):
        raise ValueError(f"horizon must be finite and >= 0, got {horizon}")
    if record not in ("final", "full"):
        raise ValueError(f"record must be 'final' or 'full', got {record!r}")
    kernel = _EventKernel(xi0, kind, params)
    full = record == "full"
    times = [0.0]
    states = [tuple(kernel.positions)]
    t = 0.0
    while kernel.positions:
        k, dt = gillespie_step(kernel.cumulative, stream)
        if t + dt > horizon:
            break
        t += dt
        kernel.jump(k)
        if full:
            times.append(t)
            states.append(tuple(kernel.positions))
    if not full:
        # single entry: the state holding at the horizon, stamped with the
        # time it was entered
        times = [t]
        states = [tuple(kernel.positions)]
    return Trajectory(times=times, states=states, horizon=horizon)


def sample_at_times(xi0, params: SipParams, times, stream: RandomStream):
    """SIP states observed at each requested time (ascending), one per entry.

    A single trajectory is evolved to max(times); snapshots at the grid
    points are the pre-jump states, matching right-continuous paths up to a
    measure-zero set of exact ties.
    """
    grid = list(times)
    if (not all(math.isfinite(t) and t >= 0 for t in grid)
            or any(b < a for a, b in zip(grid, grid[1:]))):
        raise ValueError("times must be finite, nonnegative and ascending")
    kernel = _EventKernel(xi0, ProcessKind.SIP, params)
    if not (kernel.positions and grid):
        return [() for _ in grid]
    out = []
    t = 0.0
    gi = 0
    n_grid = len(grid)
    while True:
        k, dt = gillespie_step(kernel.cumulative, stream)
        t += dt
        if grid[gi] < t:
            state = tuple(kernel.positions)
            while gi < n_grid and grid[gi] < t:
                out.append(state)
                gi += 1
            if gi == n_grid:
                # the last event's draws are spent; its move is never seen
                return out
        kernel.jump(k)
