"""Couplings of SIP and IRW particle sets, and the two-stage coupling scheme.

Two kinds of event make up every coupling here:

* `or_coupled_step`, the OR coupling: SIP sets shadowed by IRW sets, all
  held by one `OrState`. All lists receive the same shared random-walk
  events, so any two lists moved only by them keep every pairwise distance
  (the same-jump pairing); the SIP sets alone additionally perform
  inclusion jumps, so a SIP set's summed distance to its shadow changes by
  exactly one unit per inclusion event while both marginals stay exact;
* `_stage_two`, the coordinate-wise Ornstein pairing: paired walkers whose
  coordinates run on independent clocks until a coordinate difference hits
  zero, after which that coordinate moves jointly forever. The difference
  of an unsynced coordinate is a symmetric walk at twice the single-walker
  speed (rate m in one dimension).

Both run as free flights (`_free_flight`) while their move table is fixed: the
Ornstein pairing between syncs, the OR coupling (`OrState.fly`) from states
with every within-set SIP pair at l1 distance >= _REACH to the first contact
(inclusion totals are 0.0 till then). A block of peeked draws goes through the
per-event float operations at once (waits by `core.waiting_times`) and is cut
at the first contact, sync, stage end or last grid time; only the applied
events' draws are consumed, so every event, output and next draw is that of a
per-event loop (Oppelstrup et al., PRL 97, 230602, 2006). Other OR events go
through `or_coupled_step`, which keeps each SIP set's inclusion sums
(`_inclusion_sums`) and pair distances across events. One loop, `_or_run`,
applies this rule for stage one and for the OR distance alike.

The two-stage scheme runs the OR coupling of both SIP sets to shared-jump
IRW shadows on [0, (1-delta)t] and then pairs the two SIP sets directly
with the Ornstein coupling on [(1-delta)t, t]. During the second stage the
SIP sets are evolved as if they were free walkers, which is lawful exactly
while no two particles of the same set sit within l1 distance 1 of each
other (inclusion rates vanish on such configurations). A collision
therefore aborts the attempt; an aborted or expired attempt hands its
terminal positions to the next attempt of an iterated schedule, preserving
the marginal laws throughout. An outcome holds its kind, time, final
positions and attempt count.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .core import (COORD_LIMIT, CoordinateOverflowError, Geometry, ParticleList, RandomStream,
                   check_grid, occupation_of, waiting_times)
from .dynamics import SipParams


class OutcomeKind(str, Enum):
    COUPLED = "coupled"
    COLLISION_ABORT = "collision_abort"
    HORIZON_EXPIRED = "horizon_expired"


@dataclass(frozen=True)
class CouplingOutcome:
    kind: OutcomeKind
    time: float
    final_x: ParticleList
    final_y: ParticleList
    attempts: int = 1

    def __post_init__(self):
        if self.kind is OutcomeKind.COUPLED and self.time < 0:
            raise ValueError("coupling time must be nonnegative")


def _pair_distances(particles, geometry: Geometry):
    """The l1 distance of every pair p < q of `particles`, in (p, q) order."""
    n = len(particles)
    return (geometry.l1_distance(particles[p], particles[q])
            for p in range(n) for q in range(p + 1, n))


def collision_check(particles, geometry: Geometry) -> bool:
    """True iff two distinct particles sit within l1 distance 1.

    Distance 0 counts: paths only reach co-occupancy through adjacency, but
    an arbitrary starting state may not have, so same-site pairs are
    conservatively treated as collisions.
    """
    return any(dist <= 1 for dist in _pair_distances(particles, geometry))


def _inclusion_sums(sip, geometry: Geometry):
    """A SIP set's inclusion rates p(x,y) * eta(y) summed left to right, by (particle, neighbor)."""
    p_edge, occ = geometry.p_edge, occupation_of(sip)
    return list(accumulate(p_edge * occ.get(y, 0) for x in sip for y in geometry.neighbors(x)))


class OrState:
    """SIP position lists `sips` OR-coupled to IRW lists `shadows`, all of one
    length n and moved in place: the rate m/(4d) of a shared move per
    particle and direction (`rate_each`), their total `rw_total`, the move
    table with its contact watches, and per SIP set the inclusion running sums
    (`_inclusion_sums`) and each within-set pair's l1 distance, then an inf
    sentinel; `nearest` is the least over all sets, and `pairs_of[i]` lists
    (pair index, other particle) for particle i."""

    def __init__(self, sips, shadows, params: SipParams):
        n, d = len(sips[0]), params.geometry.d
        if n == 0:
            raise ValueError("no particles to move")
        self.sips, self.shadows, self.geo = sips, shadows, params.geometry
        self.rate_each = params.m / (4.0 * d)
        self.rw_total = n * 2 * d * self.rate_each
        self.table, self.watches = _or_table(len(sips), len(sips) + len(shadows), n, d)
        pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
        self.pairs_of = [[(e, p + q - i) for e, (p, q) in enumerate(pairs) if i in (p, q)]
                         for i in range(n)]
        self._rebuild()

    def _rebuild(self):
        self.dist = [[*_pair_distances(sip, self.geo), math.inf] for sip in self.sips]
        self.sums = [_inclusion_sums(sip, self.geo) for sip in self.sips]
        self.nearest = min(map(min, self.dist))

    def fly(self, stream: RandomStream, t: float, **kw):
        """`_free_flight` of shared moves at the total rate rw_total, from a
        state with every within-set SIP pair at l1 distance >= 2 (every
        inclusion total is exactly 0.0 there) to the first contact; then
        rebuilds the sums and distances."""
        out = _free_flight(self.sips + self.shadows, self.table,
                           lambda u: u * self.rw_total / self.rate_each, self.rw_total,
                           self.watches, self.geo, stream, t, cls="rw", **kw)
        self._rebuild()
        return out


def or_coupled_step(state: OrState, stream: RandomStream, t: float = 0.0,
                    t_end: float = math.inf):
    """One event of the OR coupling, applied in place to the lists of `state`.

    A shared random-walk event (rate m/(4d) per particle and direction)
    displaces particle i of every list by the same unit vector; an
    inclusion event (rate p(x,y) * eta(y) in its own SIP set) moves one
    particle of one SIP set, picked by bisection on that set's running sums
    (`_inclusion_sums`). The waiting time dt is drawn first, at the total
    rate rw_total + the SIP sets' inclusion totals (their last running sums)
    summed left to right.

    `state` is updated in place; a set's sums are rebuilt only when its
    moved particle is within l1 distance 1 of another before or after the
    move.

    Returns None when t + dt >= t_end, having drawn only dt. Otherwise
    draws the event and returns (dt, event_class, moves): event_class is
    "rw" or "inclusion", and moves lists (list, particle, from, to) with
    lists indexed along sips + shadows.
    """
    geo, sips, sums = state.geo, state.sips, state.sums
    total = state.rw_total
    for cumulative in sums:
        total += cumulative[-1]
    dt = stream.exponential(total)
    if t + dt >= t_end:
        return None
    u = stream.uniform() * total
    if u < state.rw_total:
        k = min(int(u / state.rate_each), len(state.table) - 1)
        cls, lists = "rw", enumerate(sips + state.shadows)
    else:
        u -= state.rw_total
        j = 0
        while j < len(sums) - 1 and u >= sums[j][-1]:
            u -= sums[j][-1]
            j += 1
        cumulative = sums[j]
        k = bisect_right(cumulative, u)
        if k == len(cumulative):  # rounding: the last occupied move, not len - 1
            k = bisect_left(cumulative, cumulative[-1])
        cls, lists = "inclusion", ((j, sips[j]),)
    i, axis, step = state.table[k][:3]
    moves = []
    for j, lst in lists:
        src = lst[i]
        lst[i] = dst = geo.shift(src, axis, step)
        moves.append((j, i, src, dst))
    for j, _, _, dst in moves[: len(sips)]:  # the moved SIP sets come first
        sip, dist, touched = sips[j], state.dist[j], False
        for e, q in state.pairs_of[i]:
            old, dist[e] = dist[e], geo.l1_distance(dst, sip[q])
            touched = touched or min(old, dist[e]) <= 1
        if touched:  # no pair at distance 1: every rate is 0.0
            sums[j] = _inclusion_sums(sip, geo) if 1 in dist else [0.0] * len(sums[j])
    state.nearest = min(map(min, state.dist))
    return dt, cls, moves


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


# free-flight blocks start at _FIRST_BLOCK events and double up to _BLOCK
_FIRST_BLOCK = 128
_BLOCK = 4096
# OR flights start only with every within-set SIP pair at l1 distance >= _REACH; a
# flight's fixed cost is ~25 per-event steps, so (R - 1)^2 ~ 25 balances the two
_REACH = 6


def _contact_watches(sets, n):
    """Watches for `_free_flight`: two particles of one of the given lists
    come within l1 distance 1."""
    return tuple((c * n + p, c * n + q, None, 1) for c in sets
                 for p in range(n) for q in range(p + 1, n))


@lru_cache(maxsize=256)
def _flight_plan(table, watches, n_lists, n, d):
    """Arrays for `_free_flight`: per row of the move table, the displacement
    of every (list, particle) coordinate, flattened, and the change of every
    watched coordinate gap; then the watches' particles, axis masks and
    reaches."""
    disp = np.zeros((len(table), n_lists * n, d), dtype=np.int64)
    for r, (i, axis, *steps) in enumerate(table):
        disp[r, np.arange(n_lists) * n + i, axis] = steps
    a = np.array([w[0] for w in watches], dtype=np.intp)
    b = np.array([w[1] for w in watches], dtype=np.intp)
    mask = np.array([[w[2] is None or w[2] == k for k in range(d)] for w in watches],
                    dtype=np.int64).reshape(-1, d)
    plan = (disp.reshape(len(table), -1), disp[:, a] - disp[:, b], a, b, mask,
            np.array([w[3] for w in watches]))
    for arr in plan:  # shared by every caller through the cache
        arr.flags.writeable = False
    return plan


def _free_flight(lists, table, pick, total, watches, geo, stream, t,
                 t_end=math.inf, t_last=math.inf, log=None, cls=""):
    """Run events of a fixed move table in blocks of draws, until a cut.

    An event draws its wait dt by `waiting_times`, then row
    min(int(pick(u')), len(table) - 1) of `table`: (particle, axis, step in
    each of `lists`). Each block peeks at the stream, applies these float
    operations per draw, sums the times in sequence by np.cumsum and
    consumes only the draws of the events it applies. A watch (a, b, axis,
    reach) names two particles by flat index (list * n + particle) and the
    axis whose distance counts (None: l1). The run stops after the first
    event bringing a watched pair within reach ("watch"; all start out of
    reach), at the first event reaching t_end having drawn only its dt
    ("end"), or after the first event past t_last ("last"). `lists` move in
    place, `log` gets the per-event rows (lists named along `_SETS`), and
    (t, stop, events applied) is returned.
    """
    n, d, L = len(lists[0]), geo.d, geo.L
    disp, gap_step, a, b, mask, reach = _flight_plan(table, watches, len(lists), n, d)
    block = _FIRST_BLOCK
    events = 0
    while True:
        left = (min(t_end, t_last) - t) * total  # events expected before the last cut
        block = min(block, 1 + int(min(left + 3.0 * math.sqrt(left), _BLOCK)))
        start = np.array(lists, dtype=np.int64).reshape(-1, d)
        us = np.asarray(stream.peek(2 * block))
        rows = np.minimum(pick(us[1::2]).astype(np.intp), len(table) - 1)
        gap = start[a] - start[b] + gap_step[rows].cumsum(axis=0)
        if L is None:
            gap = np.abs(gap)
        else:
            gap %= L
            gap = np.minimum(gap, L - gap)
        hits = np.flatnonzero(((gap * mask).sum(axis=2) <= reach).any(axis=1))
        applied, stop = (int(hits[0]) + 1, "watch") if len(hits) else (block, None)
        times = np.concatenate(([t], waiting_times(us[: 2 * applied : 2], total))).cumsum()
        ended = int(np.searchsorted(times[1:], t_end))
        if ended < applied:
            applied, stop = ended, "end"
        passed = int(np.searchsorted(times[1:], t_last, side="right"))
        if passed < applied:
            applied, stop = passed + 1, "last"
        stream.advance(2 * applied + (stop == "end"))
        path = np.vstack((start.ravel(), disp[rows[:applied]])).cumsum(axis=0)
        if L is None and np.abs(path).max() > COORD_LIMIT:
            raise CoordinateOverflowError("coordinate beyond +-2^62")
        path = (path % L if L else path).reshape(applied + 1, len(lists), n, d)
        for lst, sites in zip(lists, path[-1].tolist()):
            lst[:] = map(tuple, sites)
        if log is not None:
            path, stamps = path.tolist(), times[1 : applied + 1].tolist()
            for e, row in enumerate(rows[:applied].tolist()):
                i, _, *steps = table[row]
                log.extend((stamps[e], _SETS[j], i, tuple(path[e][j][i]),
                            tuple(path[e + 1][j][i]), cls)
                           for j, step in enumerate(steps) if step)
        t = times[applied].item()
        events += applied
        if stop:
            return t, stop, events
        block = min(2 * block, _BLOCK)


@lru_cache(maxsize=64)
def _or_table(n_sets, n_lists, n, d):
    """The OR move table, in the order of `or_coupled_step`, and its watches."""
    table = tuple((i, axis) + (step,) * n_lists
                  for i in range(n) for axis in range(d) for step in (-1, 1))
    return table, _contact_watches(range(n_sets), n)


# event-log set names, indexed along the lists of a flight or OR step
_SETS = ("XS", "YS", "XI", "YI")


def _or_run(state: OrState, stream, t, t_end=math.inf, t_last=math.inf, log=None):
    """The OR coupling of `state` from time t, while t <= t_last.

    States with every within-set SIP pair at l1 distance >= _REACH run as
    free flights, all others one `or_coupled_step` at a time; `log` gets
    every movement. Yields (t, event class, moves) after each flight ("rw",
    no moves) or step (one event), and ends at the first event reaching
    t_end, having drawn only its waiting time.
    """
    while t <= t_last:
        if state.nearest >= _REACH:
            t, stop, _ = state.fly(stream, t, t_end=t_end, t_last=t_last, log=log)
            yield t, "rw", ()
            if stop == "end":
                return
            continue
        step = or_coupled_step(state, stream, t, t_end)
        if step is None:
            return
        dt, cls, moves = step
        t += dt
        if log is not None:
            log.extend((t, _SETS[j], i, src, dst, cls) for j, i, src, dst in moves)
        yield t, cls, moves


def _stage_two(xs, ys, geo, rate_each, t_start, t_end, stream, log=None):
    """Ornstein pairing of the two SIP sets, aborting on collision; every
    move runs at `rate_each`, the OR coupling's rate per direction.

    Returns (outcome kind, time). Equality is checked before the collision
    predicate: at the instant the lists meet, the attempt has already
    succeeded and the sets evolve jointly afterwards. Between such checks
    the move table is fixed, so the events run as a free flight cut at the
    first within-set contact or synced coordinate.
    """
    d = geo.d
    n = len(xs)
    t = t_start
    while True:
        if xs == ys:
            return OutcomeKind.COUPLED, t
        if collision_check(xs, geo) or collision_check(ys, geo):
            return OutcomeKind.COLLISION_ABORT, t
        entries = tuple(_ornstein_entries(xs, ys, d))
        watches = _contact_watches((0, 1), n) + tuple(
            (i, n + i, k, 0) for i, (x, y) in enumerate(zip(xs, ys))
            for k in range(d) if x[k] != y[k])
        t, stop, _ = _free_flight(
            (xs, ys), entries, lambda u: u * len(entries), len(entries) * rate_each,
            watches, geo, stream, t, t_end=t_end, log=log, cls="ornstein")
        if stop == "end":
            return OutcomeKind.HORIZON_EXPIRED, t_end


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
    if x == y:
        return CouplingOutcome(OutcomeKind.COUPLED, 0.0, x, y)
    xs, ys = list(x), list(y)
    stage1_end = (1.0 - delta) * horizon
    state = OrState((xs, ys), (list(x), list(y)), params)
    for _ in _or_run(state, stream, 0.0, stage1_end, log=log):  # SIP contacts never abort it
        pass
    kind, t = _stage_two(xs, ys, state.geo, state.rate_each, stage1_end, horizon, stream,
                         log=log)
    return CouplingOutcome(kind, t, tuple(xs), tuple(ys))


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
    for a, horizon in enumerate(schedule):
        out = two_stage_coupling(cx, cy, params, horizon, delta, stream.child(a))
        if out.kind is OutcomeKind.COUPLED:
            return CouplingOutcome(OutcomeKind.COUPLED, elapsed + out.time, out.final_x,
                                   out.final_y, attempts=a + 1)
        elapsed += out.time
        cx, cy = out.final_x, out.final_y
    return CouplingOutcome(OutcomeKind.HORIZON_EXPIRED, elapsed, cx, cy, attempts=len(schedule))


def or_distance_single(x, params: SipParams, t_grid, stream: RandomStream):
    """Summed SIP-IRW pair distance at each grid time, one OR trajectory.

    Both sets start at x, so the distance starts at zero; shared moves leave
    it unchanged and an inclusion move changes only the moved particle's
    term, by exactly one unit. Grid times passed are read before the move
    of the event that passes them.
    """
    geo, grid = params.geometry, check_grid(t_grid)
    sip = [geo.wrap(s) for s in x]
    irw = list(sip)
    out, dist = [], 0
    for t, cls, moves in _or_run(OrState((sip,), (irw,), params), stream, 0.0,
                                 t_last=max(grid, default=-1.0)):
        while len(out) < len(grid) and grid[len(out)] < t:
            out.append(dist)
        if cls == "inclusion":  # shared moves leave the distance as it is
            _, i, src, dst = moves[0]
            dist += geo.l1_distance(dst, irw[i]) - geo.l1_distance(src, irw[i])
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
