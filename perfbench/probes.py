"""L0-L3 layer probes: public sipsim functions called directly at fixed sizes.

Usage: python probes.py SRC_DIR SEED

Prints one JSON object of probe metrics. The sizes follow the layer table
in ROADMAP.md: stream setup plus first draw and steady draw cost (L0); 1D
SIP events/s through simulate(record="full") at N = 2, 10, 40, 160, and
or_distance_single / two_stage_coupling to t = 1e4 (L1); build_generator
and semigroup_apply at t = 10 on the 4,368-state sector, 5 particles on the
12-site ring (L3). Each probe repeats until MIN_S has elapsed and reports
the median (or the total rate) of its repetitions.
"""

import json
import statistics
import sys
import time

MIN_S = 0.25
clock = time.perf_counter

# 1D SIP particle counts with horizons giving roughly 0.05 s per simulate call
SIP_HORIZONS = {2: 5000.0, 10: 250.0, 40: 10.0, 160: 0.6}


def repeat(fn, min_s=MIN_S, min_reps=3):
    """Call fn(rep) until min_s has passed; returns the per-call times."""
    times = []
    t_begin = clock()
    while len(times) < min_reps or clock() - t_begin < min_s:
        t0 = clock()
        fn(len(times))
        times.append(clock() - t0)
    return times


def main(argv):
    src, seed = argv[0], int(argv[1])
    sys.path.insert(0, src)
    import numpy as np
    from sipsim.core import Geometry, RandomStream
    from sipsim.coupling import or_distance_single, two_stage_coupling
    from sipsim.dynamics import ProcessKind, SipParams, simulate
    from sipsim.oracle import build_generator, semigroup_apply, state_space

    out = {}

    # L0: a fresh stream plus its first draw (includes the refill), then the
    # steady per-draw cost served from the buffer
    streams = 200

    def setup_block(rep):
        for i in range(streams):
            RandomStream(seed, (7, rep, i)).uniform()

    out["core.stream_setup_us"] = statistics.median(repeat(setup_block)) / streams * 1e6
    stream = RandomStream(seed, (8,))
    draws = 100_000

    def draw_block(_rep):
        u = stream.uniform
        for _ in range(draws):
            u()

    out["core.draw_ns"] = statistics.median(repeat(draw_block)) / draws * 1e9

    # L1: SIP event kernel, 1D infinite lattice, particles started side by side
    params_1d = SipParams(m=2.0, geometry=Geometry(1))
    for n, horizon in SIP_HORIZONS.items():
        start = tuple((i,) for i in range(n))
        events = []

        def sip_run(rep, start=start, horizon=horizon, events=events):
            traj = simulate(start, ProcessKind.SIP, params_1d, horizon,
                            RandomStream(seed, (9, n, rep)), record="full")
            events.append(len(traj.times) - 1)

        times = repeat(sip_run)
        out[f"dynamics.sip_events_per_s.n{n}"] = sum(events) / sum(times)

    grid = (100.0, 1000.0, 10000.0)
    out["coupling.or_ms_t1e4"] = 1e3 * statistics.median(repeat(
        lambda rep: or_distance_single(((0,), (1,)), params_1d, grid,
                                       RandomStream(seed, (10, rep)))))
    out["coupling.two_stage_ms_t1e4"] = 1e3 * statistics.median(repeat(
        lambda rep: two_stage_coupling(((0,), (10,)), ((3,), (17,)), params_1d,
                                       10000.0, 0.8, RandomStream(seed, (11, rep))),
        min_reps=5))

    # L3: assembly without the lru_caches, then one semigroup application
    params_ring = SipParams(m=2.0, geometry=Geometry(1, 12))

    def assemble(_rep):
        state_space.cache_clear()
        build_generator.cache_clear()
        return build_generator(5, params_ring)

    build_times = repeat(assemble)
    q = build_generator(5, params_ring)
    if q.shape[0] != 4368:
        raise RuntimeError(f"expected the 4,368-state sector, got {q.shape[0]}")
    out["oracle.build_us_per_state.s4368"] = statistics.median(build_times) / 4368 * 1e6
    f = np.random.default_rng(seed).random(q.shape[0])
    out["oracle.semigroup_ms.s4368"] = 1e3 * statistics.median(
        repeat(lambda _rep: semigroup_apply(q, 10.0, f)))
    json.dump(out, sys.stdout)
    print()


if __name__ == "__main__":
    main(sys.argv[1:])
