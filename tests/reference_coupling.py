"""Reference implementation of the OR and two-stage couplings.

A deliberately plain construction for the tests to compare
`sipsim.coupling` against: one hand-written event loop per use. The OR step
builds new tuples per event, `_stage_one` inlines its own OR selection over
two SIP sets with four lists, and `or_distance_single` re-sums every pair
distance at each grid time. Every loop draws the waiting time first, at
total rate rw_total + inclusion totals summed left to right, then u * total;
the inclusion event is the first whose running sum `acc += r` exceeds the
remainder of u (the last entry if none does). A run therefore consumes the
stream exactly as the library routines must.
"""

from collections import namedtuple

from sipsim.coupling import CouplingOutcome, OutcomeKind

OrStep = namedtuple("OrStep", "sip irw dt inclusion")


def collision_check(particles, geo):
    n = len(particles)
    for i in range(n):
        for j in range(i + 1, n):
            if geo.l1_distance(particles[i], particles[j]) <= 1:
                return True
    return False


def _inclusion_entries(positions, geo, p_edge):
    occ = {}
    for s in positions:
        occ[s] = occ.get(s, 0) + 1
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


def _ornstein_entries(xs, ys, d):
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


def reference_or_coupled_step(sip, irw, params, stream):
    geo = params.geometry
    n = len(sip)
    d = geo.d
    rate_each = params.m / (4.0 * d)
    rw_total = n * 2 * d * rate_each
    p_edge = 1.0 / (2.0 * d)
    inc, inc_total = _inclusion_entries(sip, geo, p_edge)
    total = rw_total + inc_total
    dt = stream.exponential(total)
    u = stream.uniform() * total
    if u < rw_total:
        k = min(int(u / rate_each), n * 2 * d - 1)
        i, rem = divmod(k, 2 * d)
        axis, side = divmod(rem, 2)
        step = 1 if side else -1
        sip_l = list(sip)
        irw_l = list(irw)
        sip_l[i] = geo.shift(sip_l[i], axis, step)
        irw_l[i] = geo.shift(irw_l[i], axis, step)
        return OrStep(tuple(sip_l), tuple(irw_l), dt, False)
    u -= rw_total
    acc = 0.0
    chosen = inc[-1]
    for entry in inc:
        acc += entry[2]
        if u < acc:
            chosen = entry
            break
    i, target, _ = chosen
    sip_l = list(sip)
    sip_l[i] = target
    return OrStep(tuple(sip_l), tuple(irw), dt, True)


def reference_stage_one(xs, ys, xi_shadow, yi_shadow, params, t_start, t_end,
                        stream, log=None):
    geo = params.geometry
    n = len(xs)
    d = geo.d
    rate_each = params.m / (4.0 * d)
    rw_total = n * 2 * d * rate_each
    p_edge = 1.0 / (2.0 * d)
    t = t_start
    while True:
        inc_x, tot_x = _inclusion_entries(xs, geo, p_edge)
        inc_y, tot_y = _inclusion_entries(ys, geo, p_edge)
        total = rw_total + tot_x + tot_y
        dt = stream.exponential(total)
        if t + dt >= t_end:
            return
        t += dt
        u = stream.uniform() * total
        if u < rw_total:
            k = min(int(u / rate_each), n * 2 * d - 1)
            i, rem = divmod(k, 2 * d)
            axis, side = divmod(rem, 2)
            step = 1 if side else -1
            if log is not None:
                for name, lst in (("XS", xs), ("YS", ys), ("XI", xi_shadow),
                                  ("YI", yi_shadow)):
                    log.append((t, name, i, lst[i], geo.shift(lst[i], axis, step), "rw"))
            xs[i] = geo.shift(xs[i], axis, step)
            ys[i] = geo.shift(ys[i], axis, step)
            xi_shadow[i] = geo.shift(xi_shadow[i], axis, step)
            yi_shadow[i] = geo.shift(yi_shadow[i], axis, step)
        else:
            u -= rw_total
            if u < tot_x:
                entries, lst, name = inc_x, xs, "XS"
            else:
                u -= tot_x
                entries, lst, name = inc_y, ys, "YS"
            acc = 0.0
            chosen = entries[-1]
            for entry in entries:
                acc += entry[2]
                if u < acc:
                    chosen = entry
                    break
            if log is not None:
                log.append((t, name, chosen[0], lst[chosen[0]], chosen[1], "inclusion"))
            lst[chosen[0]] = chosen[1]


def reference_stage_two(xs, ys, params, t_start, t_end, stream, log=None):
    geo = params.geometry
    d = geo.d
    rate_each = params.m / (4.0 * d)
    t = t_start
    while True:
        if xs == ys:
            return "coupled", t
        if collision_check(xs, geo) or collision_check(ys, geo):
            return "collision", t
        entries = _ornstein_entries(xs, ys, d)
        total = len(entries) * rate_each
        dt = stream.exponential(total)
        if t + dt >= t_end:
            return "expired", t_end
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


def reference_two_stage(x, y, params, horizon, delta, stream, log=None):
    x = tuple(params.geometry.wrap(s) for s in x)
    y = tuple(params.geometry.wrap(s) for s in y)
    if x == y:
        return CouplingOutcome(OutcomeKind.COUPLED, 0.0, x, y)
    xs, ys = list(x), list(y)
    stage1_end = (1.0 - delta) * horizon
    reference_stage_one(xs, ys, list(x), list(y), params, 0.0, stage1_end, stream, log=log)
    status, t = reference_stage_two(xs, ys, params, stage1_end, horizon, stream, log=log)
    fx, fy = tuple(xs), tuple(ys)
    if status == "coupled":
        return CouplingOutcome(OutcomeKind.COUPLED, t, fx, fy)
    if status == "collision":
        return CouplingOutcome(OutcomeKind.COLLISION_ABORT, t, fx, fy)
    return CouplingOutcome(OutcomeKind.HORIZON_EXPIRED, horizon, fx, fy)


def reference_or_distance_single(x, params, t_grid, stream):
    geo = params.geometry
    grid = list(t_grid)
    sip = tuple(geo.wrap(s) for s in x)
    irw = sip
    out = []
    t = 0.0
    gi = 0
    while gi < len(grid):
        step = reference_or_coupled_step(sip, irw, params, stream)
        t_next = t + step.dt
        while gi < len(grid) and grid[gi] < t_next:
            out.append(sum(geo.l1_distance(a, b) for a, b in zip(sip, irw)))
            gi += 1
        sip, irw = step.sip, step.irw
        t = t_next
    return out
