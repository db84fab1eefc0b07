"""Couplings of SIP and IRW particle sets, and the two-stage coupling scheme.

Two event routines make up every coupling here:

* `or_coupled_step`, the OR coupling: SIP sets shadowed by IRW sets. All
  lists receive the same shared random-walk events, so any two lists moved
  only by them keep every pairwise distance (the same-jump pairing); the
  SIP sets alone additionally perform inclusion jumps, so a SIP set's
  summed distance to its shadow changes by exactly one unit per inclusion
  event while both marginals stay exact;
* `_stage_two`, the coordinate-wise Ornstein pairing: paired walkers whose
  coordinates run on independent clocks until a coordinate difference hits
  zero, after which that coordinate moves jointly forever. The difference
  of an unsynced coordinate is a symmetric walk at twice the single-walker
  speed (rate m in one dimension).

The two-stage scheme runs the OR coupling of both SIP sets to shared-jump
IRW shadows on [0, (1-delta)t] and then pairs the two SIP sets directly
with the Ornstein coupling on [(1-delta)t, t]. During the second stage the
SIP sets are evolved as if they were free walkers, which is lawful exactly
while no two particles of the same set sit within l1 distance 1 of each
other (inclusion rates vanish on such configurations). A collision
therefore aborts the attempt; an aborted or expired attempt hands its
terminal positions to the next attempt of an iterated schedule, preserving
the marginal laws throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .core import Geometry, ParticleList, RandomStream, occupation_of
from .dynamics import SipParams


class OutcomeKind(str, Enum):
    COUPLED = "coupled"
    COLLISION_ABORT = "collision_abort"
    HORIZON_EXPIRED = "horizon_expired"


@dataclass(frozen=True)
class CouplingOutcome:
    kind: OutcomeKind
    time: float
    rw_jumps: int
    inclusion_jumps: int
    collisions: int
    final_x: ParticleList
    final_y: ParticleList
    attempts: int = 1

    def __post_init__(self):
        if self.kind is OutcomeKind.COUPLED and self.time < 0:
            raise ValueError("coupling time must be nonnegative")


def collision_check(particles, geometry: Geometry) -> bool:
    """True iff two distinct particles sit within l1 distance 1.

    Distance 0 counts: paths only reach co-occupancy through adjacency, but
    an arbitrary starting state may not have, so same-site pairs are
    conservatively treated as collisions.
    """
    n = len(particles)
    for i in range(n):
        xi = particles[i]
        for j in range(i + 1, n):
            if geometry.l1_distance(xi, particles[j]) <= 1:
                return True
    return False


def _inclusion_entries(positions, geo: Geometry, p_edge: float):
    """(particle, target, rate) for every occupied neighbor, plus the total."""
    occ = occupation_of(positions)
    entries = []
    total = 0.0
    for i, x in enumerate(positions):
        for y in geo.neighbors(x):
            c = occ.get(y, 0)
            if c:
                r = p_edge * c
                entries.append((i, y, r))
                total += r
    return entries, total


def or_coupled_step(sips, shadows, params: SipParams, stream: RandomStream,
                    t: float = 0.0, t_end: float | None = None):
    """One event of the OR coupling, applied in place to the position lists.

    `sips` is a tuple of SIP position lists and `shadows` a tuple of IRW
    position lists, all of one length n. A shared random-walk event (rate
    m/(4d) per particle and direction) displaces particle i of every list by
    the same unit vector; an inclusion event (rate p(x,y) * eta(y) per
    particle and occupied neighbor y in its own SIP set) moves one particle
    of one SIP set. The waiting time dt is drawn first, at the total rate
    rw_total + the SIP sets' inclusion totals summed left to right.

    Returns None when t + dt >= t_end, having drawn only dt. Otherwise
    draws the event and returns (dt, event_class, moves): event_class is
    "rw" or "inclusion", and moves lists (list, particle, from, to) with
    lists indexed along sips + shadows.
    """
    geo = params.geometry
    n = len(sips[0])
    if n == 0:
        raise ValueError("no particles to move")
    d = geo.d
    rate_each = params.m / (4.0 * d)
    rw_total = n * 2 * d * rate_each
    p_edge = 1.0 / (2.0 * d)
    incs = [_inclusion_entries(s, geo, p_edge) for s in sips]
    total = rw_total
    for _, tot in incs:
        total += tot
    dt = stream.exponential(total)
    if t_end is not None and t + dt >= t_end:
        return None
    u = stream.uniform() * total
    if u < rw_total:
        k = min(int(u / rate_each), n * 2 * d - 1)
        i, rem = divmod(k, 2 * d)
        axis, side = divmod(rem, 2)
        step = 1 if side else -1
        moves = []
        for j, lst in enumerate(sips + shadows):
            src = lst[i]
            lst[i] = dst = geo.shift(src, axis, step)
            moves.append((j, i, src, dst))
        return dt, "rw", moves
    u -= rw_total
    j = 0
    while j < len(incs) - 1 and u >= incs[j][1]:
        u -= incs[j][1]
        j += 1
    entries = incs[j][0]
    acc = 0.0
    chosen = entries[-1]
    for entry in entries:
        acc += entry[2]
        if u < acc:
            chosen = entry
            break
    i, dst, _ = chosen
    src = sips[j][i]
    sips[j][i] = dst
    return dt, "inclusion", ((j, i, src, dst),)


def _ornstein_entries(xs, ys, d: int):
    """Move list for the coordinate-wise Ornstein pairing.

    Synced coordinates get two joint moves, unsynced ones four independent
    moves; every entry carries the same rate m/(4d), so selection is a
    uniform pick over the list.
    """
    entries = []
    for i, (x, y) in enumerate(zip(xs, ys)):
        for k in range(d):
            if x[k] == y[k]:
                entries.append((i, k, 1, 1))
                entries.append((i, k, -1, -1))
            else:
                entries.append((i, k, 1, 0))
                entries.append((i, k, -1, 0))
                entries.append((i, k, 0, 1))
                entries.append((i, k, 0, -1))
    return entries


class _Counters:
    __slots__ = ("rw", "inclusion", "collisions")

    def __init__(self):
        self.rw = 0
        self.inclusion = 0
        self.collisions = 0


# event-log set names, indexed along sips + shadows of stage one
_STAGE_ONE_SETS = ("XS", "YS", "XI", "YI")


def _stage_one(xs, ys, xi_shadow, yi_shadow, params, t_start, t_end, stream,
               counters, log=None):
    """Shared-jump IRW shadows with OR-coupled SIP sets, on [t_start, t_end].

    Mutates the four position lists in place. Stage-one collisions are
    genuine SIP behavior and never abort; they are only counted.
    """
    geo = params.geometry
    t = t_start
    colliding = collision_check(xs, geo) or collision_check(ys, geo)
    while True:
        step = or_coupled_step((xs, ys), (xi_shadow, yi_shadow), params, stream,
                               t, t_end)
        if step is None:
            return
        dt, cls, moves = step
        t += dt
        if log is not None:
            log.extend((t, _STAGE_ONE_SETS[j], i, src, dst, cls)
                       for j, i, src, dst in moves)
        if cls == "rw":
            counters.rw += 1
        else:
            counters.inclusion += 1
        now = collision_check(xs, geo) or collision_check(ys, geo)
        if now and not colliding:
            counters.collisions += 1
        colliding = now


def _stage_two(xs, ys, params, t_start, t_end, stream, counters, log=None):
    """Ornstein pairing of the two SIP sets, aborting on collision.

    Returns (outcome kind, time). Equality is checked before the collision
    predicate: at the instant the lists meet, the attempt has already
    succeeded and the sets evolve jointly afterwards.
    """
    geo = params.geometry
    d = geo.d
    rate_each = params.m / (4.0 * d)
    t = t_start
    while True:
        if xs == ys:
            return OutcomeKind.COUPLED, t
        if collision_check(xs, geo) or collision_check(ys, geo):
            counters.collisions += 1
            return OutcomeKind.COLLISION_ABORT, t
        entries = _ornstein_entries(xs, ys, d)
        total = len(entries) * rate_each
        dt = stream.exponential(total)
        if t + dt >= t_end:
            return OutcomeKind.HORIZON_EXPIRED, t_end
        t += dt
        j = min(int(stream.uniform() * len(entries)), len(entries) - 1)
        i, k, dx, dy = entries[j]
        if dx:
            if log is not None:
                log.append((t, "XS", i, xs[i], geo.shift(xs[i], k, dx), "ornstein"))
            xs[i] = geo.shift(xs[i], k, dx)
        if dy:
            if log is not None:
                log.append((t, "YS", i, ys[i], geo.shift(ys[i], k, dy), "ornstein"))
            ys[i] = geo.shift(ys[i], k, dy)
        counters.rw += 1


def two_stage_coupling(x, y, params: SipParams, horizon: float, delta: float,
                       stream: RandomStream, log=None) -> CouplingOutcome:
    """One attempt at coupling two n-particle SIP sets within `horizon`.

    Stage one on [0, (1-delta)*horizon]: both SIP sets follow shared-jump
    IRW shadows through the OR coupling. Stage two on the remaining time:
    the SIP sets are paired by index, coordinate-wise (Ornstein); a
    within-set collision before the lists meet aborts the attempt.

    Passing a list as `log` records every movement as a
    (time, set, particle, from, to, event-class) tuple; see dump_event_log.
    """
    x = tuple(params.geometry.wrap(s) for s in x)
    y = tuple(params.geometry.wrap(s) for s in y)
    if len(x) != len(y):
        raise ValueError("particle sets must have equal sizes")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    counters = _Counters()
    if x == y:
        return CouplingOutcome(OutcomeKind.COUPLED, 0.0, 0, 0, 0, x, y)
    xs, ys = list(x), list(y)
    stage1_end = (1.0 - delta) * horizon
    _stage_one(xs, ys, list(x), list(y), params, 0.0, stage1_end, stream,
               counters, log=log)
    kind, t = _stage_two(xs, ys, params, stage1_end, horizon, stream, counters,
                         log=log)
    return CouplingOutcome(kind, t, counters.rw, counters.inclusion,
                           counters.collisions, tuple(xs), tuple(ys))


def doubling_schedule(t0: float, doublings: int):
    """Horizons t0, 2*t0, ..., t0 * 2^doublings."""
    if not (math.isfinite(t0) and t0 > 0):
        raise ValueError(f"initial horizon must be positive and finite, got {t0}")
    if doublings < 0:
        raise ValueError(f"doublings must be >= 0, got {doublings}")
    # 2.0**k itself overflows (OverflowError) from k = 1024 on
    if doublings >= 1024 or not math.isfinite(t0 * 2.0**doublings):
        raise ValueError(f"last horizon {t0} * 2^{doublings} is not finite")
    return tuple(t0 * 2.0**k for k in range(doublings + 1))


def iterated_coupling(x, y, params: SipParams, schedule, stream: RandomStream,
                      delta: float = 0.5) -> CouplingOutcome:
    """Independent two-stage attempts along a horizon schedule.

    Each failed attempt (abort or expiry) hands its terminal positions to
    the next attempt, driven by a fresh child stream. Returns the first
    success, or expiry after the whole schedule; times accumulate across
    attempts.
    """
    schedule = tuple(schedule)
    if not schedule:
        raise ValueError("schedule must be nonempty")
    cx, cy = tuple(x), tuple(y)
    elapsed = 0.0
    rw = inclusion = collisions = 0
    for a, horizon in enumerate(schedule):
        out = two_stage_coupling(cx, cy, params, horizon, delta, stream.child(a))
        rw += out.rw_jumps
        inclusion += out.inclusion_jumps
        collisions += out.collisions
        if out.kind is OutcomeKind.COUPLED:
            return CouplingOutcome(OutcomeKind.COUPLED, elapsed + out.time, rw,
                                   inclusion, collisions, out.final_x, out.final_y,
                                   attempts=a + 1)
        elapsed += out.time
        cx, cy = out.final_x, out.final_y
    return CouplingOutcome(OutcomeKind.HORIZON_EXPIRED, elapsed, rw, inclusion,
                           collisions, cx, cy, attempts=len(schedule))


def or_distance_single(x, params: SipParams, t_grid, stream: RandomStream):
    """Summed SIP-IRW pair distance at each grid time, one OR trajectory.

    Both sets start at x, so the distance starts at zero; shared moves leave
    it unchanged and an inclusion move changes only the moved particle's
    term, by exactly one unit.
    """
    geo = params.geometry
    grid = list(t_grid)
    if not all(math.isfinite(g) for g in grid):
        raise ValueError("t_grid must be finite")
    if any(b < a for a, b in zip(grid, grid[1:])) or (grid and grid[0] < 0):
        raise ValueError("t_grid must be nonnegative and ascending")
    sip = [geo.wrap(s) for s in x]
    irw = list(sip)
    out = []
    dist = 0
    t = 0.0
    gi = 0
    while gi < len(grid):
        dt, cls, moves = or_coupled_step((sip,), (irw,), params, stream)
        t_next = t + dt
        while gi < len(grid) and grid[gi] < t_next:
            out.append(dist)
            gi += 1
        if cls == "inclusion":
            _, i, src, dst = moves[0]
            dist += geo.l1_distance(dst, irw[i]) - geo.l1_distance(src, irw[i])
        t = t_next
    return out


def dump_event_log(rows, path):
    """Write coupling movements as CSV: time,set,particle,from,to,event_class.

    Sites are printed as ':'-joined coordinates.
    """

    def site(s):
        return ":".join(str(c) for c in s)

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time,set,particle,from,to,event_class\n")
        for t, name, i, src, dst, cls in rows:
            fh.write(f"{t:.12g},{name},{i},{site(src)},{site(dst)},{cls}\n")
