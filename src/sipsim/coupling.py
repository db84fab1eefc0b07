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
through `or_coupled_step`. What a SIP set's events need and every translate
of it shares (its inclusion running sums by `_inclusion_sums`, its pair
distances and nearest pair, and the set that each row of the move table
leads to) is kept once per shape, the set's sites relative to particle 0
(reduced mod L on a torus), in a bounded table per geometry and n, filled
on first use; a step reads its total and pick off the shapes and follows
its move by one lookup, unchecked: on Z no particle may stand at +-2^62, and
`Geometry.shift` (a step) or `_free_flight` (a flight) raises on a move onto
it. One loop, `_or_run`, applies this rule for stage one and for the OR
distance alike, and yields only the inclusion events, the only events that
change a SIP set's distance to its shadow.

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
from itertools import accumulate, combinations

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
    """The l1 distance of every pair p < q of `particles`, in `combinations` order."""
    return (geometry.l1_distance(x, y) for x, y in combinations(particles, 2))


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


class _Shape:
    """What every translate of a SIP set shares: its inclusion running sums
    (`_inclusion_sums`), its within-set pair distances in (p, q) order then
    an inf sentinel, their least `nearest`, and `next`, per row of the OR
    move table, the shape after the row's move once `_next_shape` has filled
    it. Reading it looks at no site: no particle stands at +-2^62, where
    `Geometry.neighbors` raises, so no recount could raise where it is read."""

    __slots__ = ("sums", "dist", "nearest", "next")

    def __init__(self, sums, dist, rows):
        self.sums, self.dist, self.nearest = sums, dist, min(dist)
        self.next = [None] * rows


# shapes kept per table, about 1 KB each; a full table is emptied and its
# shapes' moves unlinked
_SHAPES = 4096


@lru_cache(maxsize=4)
def _shape_table(geo, n):
    """The shapes of n-particle SIP sets on `geo`, keyed by the sites relative
    to particle 0; the OR move table, whose rows `_Shape.next` follows, is
    fixed by n and geo.d."""
    return {}


def _intern(known, sip, geo, sums, dist):
    """The shape of `sip` in `known`, made from `sums` and `dist` if new."""
    o, L = sip[0], geo.L
    if L is None:
        key = tuple([c - c0 for s in sip for c, c0 in zip(s, o)])
    else:
        key = tuple([(c - c0) % L for s in sip for c, c0 in zip(s, o)])
    shape = known.get(key)
    if shape is None:
        if len(known) >= _SHAPES:
            for old in known.values():
                old.next = [None] * len(old.next)
            known.clear()
        shape = known[key] = _Shape(sums, dist, len(sip) * 2 * geo.d)
    return shape


def _next_shape(state, shape, k, j):
    """Fill `shape.next[k]` once SIP set j has made row k's move: only the
    moved particle's pair distances change, and the sums are recounted, as
    after a per-event move, only where it is within l1 distance 1 of another
    before or after the move (no pair at distance 1: every rate is 0.0);
    else they are `shape`'s."""
    geo, sip, i = state.geo, state.sips[j], state.table[k][0]
    dist, touched = list(shape.dist), False
    for e, q in state.pairs_of[i]:
        dist[e] = geo.l1_distance(sip[i], sip[q])
        touched = touched or min(shape.dist[e], dist[e]) <= 1
    recount = touched and 1 in dist
    sums = (_inclusion_sums(sip, geo) if recount
            else [0.0] * len(shape.sums) if touched else shape.sums)
    shape.next[k] = _intern(state.known, sip, geo, sums, dist)
    return shape.next[k]


class OrState:
    """SIP position lists `sips` OR-coupled to IRW lists `shadows`, all of one
    length n and moved in place (`lists`: sips + shadows): the rate m/(4d)
    of a shared move per particle and direction (`rate_each`), their total
    `rw_total`, the move table with its contact watches, `pairs_of[i]`
    listing (pair index, other particle) for particle i, the shape table
    `known` of the geometry and n, and per SIP set its `_Shape` in `shapes`,
    which carries the set's inclusion running sums and pair distances across
    events; `nearest` is the least pair distance over all sets."""

    def __init__(self, sips, shadows, params: SipParams):
        n, d = len(sips[0]), params.geometry.d
        if n == 0:
            raise ValueError("no particles to move")
        self.sips, self.lists, self.geo = sips, sips + shadows, params.geometry
        self.rate_each = params.m / (4.0 * d)
        self.rw_total = n * 2 * d * self.rate_each
        self.table, self.watches = _or_table(len(sips), len(self.lists), n, d)
        self.pairs_of = [[(e, p + q - i) for e, (p, q) in enumerate(combinations(range(n), 2))
                          if i in (p, q)] for i in range(n)]
        self.known = _shape_table(self.geo, n)
        self._rebuild()

    def _rebuild(self):
        """Each set's shape, from its sums counted on the absolute sites
        (which checks them) and its pair distances."""
        self.shapes = [_intern(self.known, sip, self.geo, _inclusion_sums(sip, self.geo),
                               [*_pair_distances(sip, self.geo), math.inf])
                       for sip in self.sips]
        self.nearest = min(shape.nearest for shape in self.shapes)

    def fly(self, stream: RandomStream, t: float, **kw):
        """`_free_flight` of shared moves at the total rate rw_total, from a
        state with every within-set SIP pair at l1 distance >= 2 (every
        inclusion total is exactly 0.0 there) to the first contact; then
        rebuilds the shapes."""
        out = _free_flight(self.lists, self.table,
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

    Each moved SIP set's shape follows the move by one lookup in the shape
    table (`_next_shape` on first use).

    Returns None when t + dt >= t_end, having drawn only dt. Otherwise
    draws the event and returns (dt, event_class, moves): event_class is
    "rw" or "inclusion", and moves lists (list, particle, from, to) with
    lists indexed along sips + shadows.
    """
    shapes = state.shapes
    total = state.rw_total
    for shape in shapes:
        total += shape.sums[-1]
    dt = stream.exponential(total)
    if t + dt >= t_end:
        return None
    u = stream.uniform() * total
    if u < state.rw_total:
        k = min(int(u / state.rate_each), len(state.table) - 1)
        cls, lists = "rw", enumerate(state.lists)
    else:
        u -= state.rw_total
        j = 0
        while j < len(shapes) - 1 and u >= shapes[j].sums[-1]:
            u -= shapes[j].sums[-1]
            j += 1
        cumulative = shapes[j].sums
        k = bisect_right(cumulative, u)
        if k == len(cumulative):  # rounding: the last occupied move, not len - 1
            k = bisect_left(cumulative, cumulative[-1])
        cls, lists = "inclusion", ((j, state.sips[j]),)
    i, axis, step = state.table[k][:3]
    shift, moves = state.geo.shift, []
    for j, lst in lists:
        src = lst[i]
        lst[i] = dst = shift(src, axis, step)
        moves.append((j, i, src, dst))
    for j, *_ in moves[: len(shapes)]:  # the moved SIP sets come first
        shape = shapes[j]
        shapes[j] = shape.next[k] or _next_shape(state, shape, k, j)
    nearest = math.inf
    for shape in shapes:
        if shape.nearest < nearest:
            nearest = shape.nearest
    state.nearest = nearest
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
# OR flights start only with every within-set SIP pair at l1 distance >= _REACH; on the
# or-long workload a flight's fixed cost (60-120 us) is 24-30 per-event steps (2.5-4 us),
# so (R - 1)^2 ~ 25 balances the two (R = 8 measured no faster)
_REACH = 6


def _contact_watches(sets, n):
    """Watches for `_free_flight`: two particles of one of the given lists
    come within l1 distance 1."""
    return tuple((c * n + p, c * n + q, None, 1) for c in sets
                 for p, q in combinations(range(n), 2))


@lru_cache(maxsize=256)
def _flight_plan(table, watches, n_lists, n, d):
    """Arrays for `_free_flight`: per row of the move table, the displacement
    of every (list, particle) coordinate, flattened, and the change of every
    watched coordinate gap; then the watches' particles, axis masks and
    reaches, the mask None when every watch is l1."""
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
    return plan[:4] + (None if mask.all() else mask,) + plan[5:]


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
        if mask is not None:
            gap *= mask
        hits = np.flatnonzero((gap.sum(axis=2) <= reach).any(axis=1))
        applied, stop = (int(hits[0]) + 1, "watch") if len(hits) else (block, None)
        times = np.concatenate(([t], waiting_times(us[: 2 * applied : 2], total))).cumsum()
        if times[applied] >= t_end or times[applied] > t_last:
            ended = int(np.searchsorted(times[1:], t_end))
            if ended < applied:
                applied, stop = ended, "end"
            passed = int(np.searchsorted(times[1:], t_last, side="right"))
            if passed < applied:
                applied, stop = passed + 1, "last"
        stream.advance(2 * applied + (stop == "end"))
        moved = disp[rows[:applied]]
        if log is None and (L or np.abs(start).max() + applied < COORD_LIMIT):
            path = start.ravel() + moved.sum(axis=0)  # the end alone: no step can reach the limit
        else:
            path = np.vstack((start.ravel(), moved)).cumsum(axis=0)
            if L is None and np.abs(path).max() >= COORD_LIMIT:
                raise CoordinateOverflowError("coordinate at or beyond +-2^62")
        path = (path % L if L else path).reshape(-1, len(lists), n, d)
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
    every movement. Yields (t, moves) after each inclusion event, the only
    events that change a SIP set's distance to its shadow, and ends at the
    first event reaching t_end, having drawn only its waiting time.
    """
    while t <= t_last:
        if state.nearest >= _REACH:
            t, stop, _ = state.fly(stream, t, t_end=t_end, t_last=t_last, log=log)
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
        if cls == "inclusion":
            yield t, moves


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
    of the event that passes them, so grid times after the last inclusion
    event read the final distance.
    """
    geo, grid = params.geometry, check_grid(t_grid)
    sip = [geo.wrap(s) for s in x]
    irw = list(sip)
    out, dist = [], 0
    for t, ((_, i, src, dst),) in _or_run(OrState((sip,), (irw,), params), stream, 0.0,
                                          t_last=max(grid, default=-1.0)):
        while len(out) < len(grid) and grid[len(out)] < t:
            out.append(dist)
        dist += geo.l1_distance(dst, irw[i]) - geo.l1_distance(src, irw[i])
    return out + [dist] * (len(grid) - len(out))


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
