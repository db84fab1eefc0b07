import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import skellam

import sipsim.coupling as coupling
from sipsim.core import COORD_LIMIT, CoordinateOverflowError, Geometry, RandomStream
from sipsim.coupling import (
    _REACH,
    OrState,
    OutcomeKind,
    _inclusion_sums,
    _ornstein_entries,
    _pair_distances,
    collision_check,
    doubling_schedule,
    dump_event_log,
    iterated_coupling,
    or_coupled_step,
    or_distance_single,
    two_stage_coupling,
)
from sipsim.dynamics import SipParams
from sipsim.oracle import build_generator, state_space
from sipsim.stats import batched

from difference_chain import transient_distribution
from reference_coupling import _inclusion_entries as reference_inclusion_entries
from reference_coupling import (
    reference_or_coupled_step,
    reference_or_distance_single,
    reference_two_stage,
)
from reference_dynamics import reference_simulate

P1 = SipParams(m=2.0, geometry=Geometry(1))
P2 = SipParams(m=2.0, geometry=Geometry(2))
R = _REACH  # OR free flights start only with every within-set pair this far apart


def hitting_probability(a, t, rate):
    """P(tau_a <= t) = P(S_t >= a) + P(S_t > a) for a >= 1, by reflection: S is
    a rate-`rate` symmetric walk on Z from 0, S_t ~ Skellam(rate t/2, rate t/2)."""
    mu = 0.5 * rate * t
    return float(skellam.sf(a - 1, mu, mu) + skellam.sf(a, mu, mu))


# (x, y, params) starts on either side of the flight rule: the nearest
# within-set pair at R - 1, R and R + 1 on Z, in d = 1 and d = 2; three
# particles with one near and one far pair; a torus on which no pair reaches
# R, so no flight ever starts; one particle, no pair, so every event flies
STRADDLING = [
    *[(((0,), (r,)), ((3,), (3 + r,)), P1) for r in (R - 1, R, R + 1)],
    *[(((0, 0), (2, r - 2)), ((1, 1), (1, r + 1)), P2) for r in (R - 1, R, R + 1)],
    (((0,), (2,), (3 * R,)), ((5,), (5 + 2 * R,), (6 + 2 * R,)), P1),
    (((0, 0), (2, 2)), ((1, 0), (3, 2)), SipParams(2.0, Geometry(2, 5))),
    (((0,),), ((7,),), P1),
]


def straddling(*args):
    """One @example per STRADDLING start, with seed = its index and `args`
    for the test's remaining parameters."""

    def add(test):
        for seed, system in enumerate(STRADDLING):
            test = example(system, seed, *args)(test)
        return test

    return add


class _StubStream:
    """Fixed draws: waiting time 0.5, every uniform `u`."""

    def __init__(self, u):
        self.u = u

    def exponential(self, rate):
        return 0.5

    def uniform(self):
        return self.u


class _ListStream:
    """The given draws in order, served as `RandomStream` serves its own."""

    def __init__(self, draws):
        self.draws, self.pos = list(draws), 0

    def uniform(self):
        self.pos += 1
        return self.draws[self.pos - 1]

    def exponential(self, rate):
        return -math.log(1.0 - self.uniform()) / rate

    def peek(self, k):
        return self.draws[self.pos : self.pos + k]

    def advance(self, j):
        self.pos += j


def l1_sum(xs, ys, geo):
    return sum(geo.l1_distance(a, b) for a, b in zip(xs, ys))


def distance_profile(x, params, t_grid, reps, stream):
    """Monte Carlo mean and stderr of the OR-coupled distance per grid time."""
    rows = [or_distance_single(x, params, t_grid, stream.child(r)) for r in range(reps)]
    return [batched([row[j] for row in rows]) for j in range(len(t_grid))]


def stage_two_states(x, y, log):
    """(xs, ys) at stage-two entry and after each stage-two event, replayed
    from a two-stage event log (the rows of one event share its time)."""
    pos = {"XS": list(x), "YS": list(y), "XI": list(x), "YI": list(y)}
    states = []
    for j, (t, name, i, src, dst, cls) in enumerate(log):
        assert pos[name][i] == src
        if cls == "ornstein" and not states:
            states.append((tuple(pos["XS"]), tuple(pos["YS"])))
        pos[name][i] = dst
        if cls == "ornstein" and (j + 1 == len(log) or log[j + 1][0] != t):
            states.append((tuple(pos["XS"]), tuple(pos["YS"])))
    return states


class TestCollisionCheck:
    def test_far_apart(self):
        assert not collision_check(((0,), (5,)), Geometry(1))

    def test_adjacent(self):
        assert collision_check(((2,), (3,)), Geometry(1))

    def test_same_site_counts(self):
        assert collision_check(((4,), (4,)), Geometry(1))

    def test_single_particle(self):
        assert not collision_check(((0,),), Geometry(1))

    def test_wrapped_adjacency(self):
        assert collision_check(((0,), (9,)), Geometry(1, 10))


class TestSameJump:
    """Two shadow lists of one OR coupling receive the same shared moves."""

    def test_distance_is_exactly_conserved(self):
        geo = Geometry(1)
        xs, ys = [(0,), (4,)], [(7,), (11,)]
        sip = list(xs)
        s = RandomStream(0, (0,))
        k0 = l1_sum(xs, ys, geo)
        state = OrState((sip,), (xs, ys), P1)
        for _ in range(500):
            or_coupled_step(state, s)
            assert l1_sum(xs, ys, geo) == k0

    def test_equal_lists_stay_equal(self):
        xs, ys = [(0,), (3,)], [(0,), (3,)]
        sip = list(xs)
        s = RandomStream(1, (0,))
        state = OrState((sip,), (xs, ys), P1)
        for _ in range(200):
            or_coupled_step(state, s)
            assert xs == ys

    def test_single_pair_offset_constant(self):
        xs, ys = [(0,)], [(7,)]
        sip = list(xs)
        s = RandomStream(2, (0,))
        state = OrState((sip,), (xs, ys), P1)
        for _ in range(200):
            or_coupled_step(state, s)
            assert ys[0][0] - xs[0][0] == 7


class TestOrCoupling:
    def test_distance_changes_only_at_inclusion_events_by_one(self):
        geo = Geometry(1)
        sip, irw = [(0,), (1,)], [(0,), (1,)]
        s = RandomStream(3, (0,))
        state = OrState((sip,), (irw,), P1)
        for _ in range(2000):
            before = l1_sum(sip, irw, geo)
            _, cls, _ = or_coupled_step(state, s)
            after = l1_sum(sip, irw, geo)
            if cls == "inclusion":
                assert abs(after - before) == 1
            else:
                assert after == before

    def test_no_inclusion_without_neighbors(self):
        # two far-apart particles produce no inclusion events over a few steps
        sip, irw = [(0,), (100,)], [(0,), (100,)]
        s = RandomStream(4, (0,))
        state = OrState((sip,), (irw,), P1)
        for _ in range(50):
            _, cls, _ = or_coupled_step(state, s)
            assert cls == "rw"
            if collision_check(sip, Geometry(1)):
                break

    def test_stops_before_the_event_draw_at_t_end(self):
        # past t_end only the waiting time is drawn and nothing moves
        sip, irw = [(0,), (1,)], [(0,), (1,)]
        s, twin = RandomStream(3, (1,)), RandomStream(3, (1,))
        assert or_coupled_step(OrState((sip,), (irw,), P1), s, 0.0, 1e-300) is None
        assert sip == irw == [(0,), (1,)]
        twin.uniform()
        assert s.uniform() == twin.uniform()

    @pytest.mark.parametrize("u", [1.0, 0.999, 0.7])
    def test_inclusion_pick_matches_the_reference_scan(self, u):
        # at u = 1.0 rounding leaves u past every running sum: only the last
        # occupied move (1 -> 0) matches the scan, not the last entry (1 -> 2)
        sip, irw = [(0,), (1,)], [(0,), (1,)]
        ref = reference_or_coupled_step(tuple(sip), tuple(irw), P1, _StubStream(u))
        dt, cls, _ = or_coupled_step(OrState((sip,), (irw,), P1), _StubStream(u))
        assert (tuple(sip), tuple(irw), dt, cls == "inclusion") == tuple(ref)
        assert cls == "inclusion"

    @pytest.mark.parametrize("params, sip, irw", [
        (P1, [(0,), (R,)], [(4,), (R + 9,)]),
        (P2, [(0, 0), (3, R - 3)], [(1, 1), (5, R + 1)]),
    ])
    @pytest.mark.parametrize("u", [0.05, 0.3, 0.55, 0.8, 0.999])
    def test_free_step_and_one_event_flight_agree(self, params, sip, irw, u):
        # from a state a flight may start from, the per-event step and a
        # flight cut after its first event make the same move at the same
        # time and leave the same next draw
        draws = [0.37, u] * 40
        step_lists, flight_lists = (list(sip), list(irw)), (list(sip), list(irw))
        a, b = _ListStream(draws), _ListStream(draws)
        dt, cls, _ = or_coupled_step(OrState(step_lists[:1], step_lists[1:], params), a)
        t, stop, events = OrState(flight_lists[:1], flight_lists[1:], params).fly(
            b, 0.0, t_last=0.0)
        assert (cls, stop, events) == ("rw", "last", 1)
        assert (step_lists, dt) == (flight_lists, t)
        assert step_lists != (sip, irw)
        assert a.uniform() == b.uniform()

    def test_coordinate_limit_on_z(self):
        # no particle may stand at +-2^62: the step onto it raises, also where
        # the same move near the origin has filled the shape's transition,
        # and a flight raises when its path touches the limit, even where
        # the flight ends back inside it
        M = COORD_LIMIT
        for sign, u in ((1, 0.3), (-1, 0.1)):  # row 1 steps particle 0 up, row 0 down
            for filled in (False, True):
                coupling._shape_table.cache_clear()
                if filled:
                    near = [(sign,), (-sign,)]
                    or_coupled_step(OrState((near,), (list(near),), P1), _ListStream([0.5, u]))
                    assert near == [(2 * sign,), (-sign,)]
                far = [(sign * (M - 1),), (sign * (M - 3),)]
                state = OrState((far,), (list(far),), P1)
                with pytest.raises(CoordinateOverflowError):
                    or_coupled_step(state, _ListStream([0.5, u]))
            there, back = [0.37, 0.5 + 0.4 * sign], [0.37, 0.5 - 0.4 * sign]
            state = OrState(([(sign * (M - 1),)],), ([(sign * (M - 1),)],), P1)
            with pytest.raises(CoordinateOverflowError):
                state.fly(_ListStream((there + back) * 64), 0.0)

    def test_sip_marginal_matches_oracle(self):
        # the SIP side of the OR pair must follow the plain SIP law
        params = SipParams(m=2.0, geometry=Geometry(1, 5))
        space = state_space(2, params.geometry)
        q = build_generator(2, params)
        start = ((0,), (2,))
        t = 1.0
        target = transient_distribution(q, t, space.index_of_particles(start))
        reps = 20_000
        counts = np.zeros(space.size)
        for r in range(reps):
            s = RandomStream(5, (r,))
            sip, irw = list(start), list(start)
            state = OrState((sip,), (irw,), params)
            clock = 0.0
            while True:
                step = or_coupled_step(state, s, clock, t)
                if step is None:
                    break
                clock += step[0]
            counts[space.index_of_particles(tuple(sip))] += 1
        freq = counts / reps
        for p_hat, p in zip(freq, target):
            se = math.sqrt(p * (1 - p) / reps)
            assert abs(p_hat - p) <= 3 * se + 1e-9


class TestOrnstein:
    """The Ornstein pairing, seen through stage two of the two-stage coupling."""

    def test_equal_lists_stay_equal(self):
        # equal lists only get joint moves, so any Ornstein event keeps them equal
        xs = ((0,), (5,))
        assert all(dx == dy for _, _, dx, dy in _ornstein_entries(xs, xs, 1))
        xs = ((0, 3), (5, -1))
        assert all(dx == dy for _, _, dx, dy in _ornstein_entries(xs, xs, 2))

    def test_synced_coordinate_is_absorbing(self):
        # once a coordinate difference hits zero it never reopens
        x, y = ((0, 0),), ((6, 3),)
        log = []
        two_stage_coupling(x, y, P2, 5000.0, 0.9, RandomStream(7, (0,)), log=log)
        states = stage_two_states(x, y, log)
        synced = set()
        for xs, ys in states:
            for k in synced:
                assert xs[0][k] == ys[0][k]
            synced |= {k for k in range(2) if xs[0][k] == ys[0][k]}
        assert synced  # the first coordinate to meet does so well within this window

    def test_meeting_law_matches_hitting_oracle(self):
        # a single walker pair keeps its offset through stage one (no
        # inclusion partner), then its difference is a rate-m walk: P(meet
        # within the stage-two window t) by reflection
        t = 3.0
        target = hitting_probability(2, t, 2.0)
        reps = 4000
        hits = 0
        for r in range(reps):
            out = two_stage_coupling(((0,),), ((2,),), P1, 2 * t, 0.5, RandomStream(8, (r,)))
            hits += out.kind is OutcomeKind.COUPLED
        p_hat = hits / reps
        se = math.sqrt(target * (1 - target) / reps)
        assert abs(p_hat - target) <= 3 * se

    def test_coordinates_are_independent_in_2d(self):
        # coordinate 2 starts synced (stage one's shared moves keep it so) and
        # must never be desynced by coordinate-1 activity
        x, y = ((0, 4),), ((9, 4),)
        log = []
        two_stage_coupling(x, y, P2, 2000.0, 0.9, RandomStream(9, (0,)), log=log)
        states = stage_two_states(x, y, log)
        assert len(states) > 1
        for xs, ys in states:
            assert xs[0][1] == ys[0][1]


class TestTwoStage:
    def test_equal_start_couples_immediately(self):
        out = two_stage_coupling(((0,), (5,)), ((0,), (5,)), P1, 10.0, 0.5,
                                 RandomStream(10, (0,)))
        assert out.kind is OutcomeKind.COUPLED
        assert out.time == 0.0

    def test_coupled_outcome_has_equal_lists(self):
        hits = 0
        for r in range(40):
            out = two_stage_coupling(((0,),), ((6,),), P1, 200.0, 0.5,
                                     RandomStream(11, (r,)))
            if out.kind is OutcomeKind.COUPLED:
                hits += 1
                assert out.final_x == out.final_y
                assert out.time <= 200.0
        assert hits > 0

    def test_single_walker_reduces_to_ornstein_hitting_law(self):
        # no collisions are possible for n=1, so success probability equals
        # the probability the rate-m difference walk meets within the
        # second-stage window
        horizon, delta = 60.0, 0.5
        gap = 4
        target = hitting_probability(gap, delta * horizon, 2.0)
        reps = 3000
        hits = 0
        for r in range(reps):
            out = two_stage_coupling(((0,),), ((gap,),), P1, horizon, delta,
                                     RandomStream(12, (r,)))
            hits += out.kind is OutcomeKind.COUPLED
        se = math.sqrt(target * (1 - target) / reps)
        assert abs(hits / reps - target) <= 3 * se

    def test_success_grows_with_horizon_for_single_walkers(self):
        reps = 400
        rates = []
        for j, horizon in enumerate((30.0, 300.0, 3000.0)):
            hits = 0
            for r in range(reps):
                out = two_stage_coupling(((0,),), ((7,),), P1, horizon, 0.5,
                                         RandomStream(13, (1000 * j + r,)))
                hits += out.kind is OutcomeKind.COUPLED
            rates.append(hits / reps)
        assert rates[0] < rates[1] < rates[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            two_stage_coupling(((0,),), ((1,), (2,)), P1, 10.0, 0.5, RandomStream(0, (0,)))
        with pytest.raises(ValueError):
            two_stage_coupling(((0,),), ((1,),), P1, 0.0, 0.5, RandomStream(0, (0,)))
        with pytest.raises(ValueError):
            two_stage_coupling(((0,),), ((1,),), P1, 10.0, 1.0, RandomStream(0, (0,)))

    @pytest.mark.parametrize("horizon", [math.nan, math.inf])
    def test_non_finite_horizon(self, horizon):
        # both used to run without end: t + dt >= nan is never true, and an
        # infinite stage two waits for a meeting that may never come
        with pytest.raises(ValueError):
            two_stage_coupling(((0,),), ((5,),), P1, horizon, 0.5, RandomStream(0, (0,)))


class TestIterated:
    def test_equal_start(self):
        out = iterated_coupling(((3,),), ((3,),), P1, doubling_schedule(10.0, 3),
                                RandomStream(15, (0,)))
        assert out.kind is OutcomeKind.COUPLED
        assert out.time == 0.0
        assert out.attempts == 1

    def test_first_attempt_success_matches_single_call(self):
        # the first attempt consumes stream.child(0), so a direct call with
        # that stream must reproduce it
        sched = doubling_schedule(50.0, 4)
        stream = RandomStream(16, (0,))
        direct = two_stage_coupling(((0,),), ((4,),), P1, 50.0, 0.5, stream.child(0))
        combined = iterated_coupling(((0,),), ((4,),), P1, sched, RandomStream(16, (0,)))
        if direct.kind is OutcomeKind.COUPLED:
            assert combined.kind is OutcomeKind.COUPLED
            assert combined.time == direct.time
            assert combined.attempts == 1
        # a one-horizon schedule is exactly the direct attempt, whatever its
        # outcome (at this seed it expires)
        single = iterated_coupling(((0,),), ((4,),), P1, (50.0,), RandomStream(16, (0,)))
        assert single == direct

    def test_schedule_must_be_nonempty(self):
        with pytest.raises(ValueError):
            iterated_coupling(((0,),), ((1,),), P1, (), RandomStream(0, (0,)))

    def test_eventual_success_for_single_walkers(self):
        # recurrence in one dimension: a deep enough schedule couples
        # essentially always when collisions are impossible
        reps = 150
        hits = 0
        for r in range(reps):
            out = iterated_coupling(((0,),), ((9,),), P1, doubling_schedule(20.0, 11),
                                    RandomStream(17, (r,)))
            hits += out.kind is OutcomeKind.COUPLED
        assert hits / reps >= 0.95

    def test_doubling_schedule_shape(self):
        assert doubling_schedule(100.0, 2) == (100.0, 200.0, 400.0)
        with pytest.raises(ValueError):
            doubling_schedule(0.0, 2)

    @pytest.mark.parametrize("t0,doublings", [(1e300, 30), (1.0, 2000),
                                              (math.nan, 2), (math.inf, 0)])
    def test_doubling_schedule_must_stay_finite(self, t0, doublings):
        # (1e300, 30) used to end in an infinite horizon, (1.0, 2000) in an
        # OverflowError
        with pytest.raises(ValueError):
            doubling_schedule(t0, doublings)


class TestDistanceProfile:
    def test_zero_time_and_single_particle(self):
        prof = distance_profile(((0,),), P1, [0.0, 5.0], 120, RandomStream(18, (0,)))
        assert prof[0][0] == 0.0
        assert prof[1][0] == 0.0  # no inclusion partner, distance stays 0

    def test_distance_starts_at_zero(self):
        vals = or_distance_single(((0,), (1,)), P1, [0.0], RandomStream(19, (0,)))
        assert vals == [0]

    def test_profile_grows_with_time_for_adjacent_pair(self):
        prof = distance_profile(((0,), (1,)), P1, [5.0, 500.0], 200, RandomStream(20, (0,)))
        (m1, s1), (m2, s2) = prof
        assert m2 - 3 * s2 > m1 + 3 * s1

    def test_more_particles_accumulate_more_distance(self):
        # three clustered particles generate more inclusion events than two
        t = [50.0]
        two, se2 = distance_profile(((0,), (1,)), P1, t, 300, RandomStream(23, (0,)))[0]
        three, se3 = distance_profile(((0,), (1,), (2,)), P1, t, 300,
                                      RandomStream(24, (0,)))[0]
        assert three - 3 * se3 > two + 3 * se2

    @pytest.mark.parametrize("grid", [[math.nan], [0.5, math.nan], [math.inf], [1.0, math.inf]])
    def test_non_finite_grid(self, grid):
        # a NaN or infinite grid time is never passed, so the loop never ended
        with pytest.raises(ValueError):
            or_distance_single(((0,), (1,)), P1, grid, RandomStream(19, (0,)))


class TestEventLog:
    def test_log_records_unit_moves_with_ordered_times(self, tmp_path):
        log = []
        two_stage_coupling(((0,), (9,)), ((2,), (12,)), P1, 20.0, 0.5,
                           RandomStream(25, (0,)), log=log)
        assert log
        geo = Geometry(1)
        times = [row[0] for row in log]
        assert times == sorted(times)
        classes = {row[5] for row in log}
        assert classes <= {"rw", "inclusion", "ornstein"}
        for _, name, i, src, dst, _cls in log:
            assert name in ("XS", "YS", "XI", "YI")
            assert geo.l1_distance(src, dst) == 1
        path = tmp_path / "events.csv"
        dump_event_log(log, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time,set,particle,from,to,event_class"
        assert len(lines) == len(log) + 1


class TestReflection:
    """Survival of level a by a rate-`rate` walk from 0, simulated as a
    single IRW particle by the full-recompute reference, against
    1 - P(tau_a <= t) by reflection."""

    @staticmethod
    def check(a, t, rate, reps, stream):
        params = SipParams(m=2.0 * rate, geometry=Geometry(1))  # IRW jump rate m/2
        survived = 0
        for r in range(reps):
            traj = reference_simulate(((0,),), "irw", params, t, stream.child(r),
                                      record="full")
            survived += all(state[0][0] != a for state in traj.states)
        p = 1.0 - hitting_probability(a, t, rate)
        se = math.sqrt(p * (1 - p) / reps)
        assert abs(survived / reps - p) <= 3 * se
        return p

    def test_short_time_both_sides_near_one(self):
        assert self.check(5, 1.0, 2.0, 2000, RandomStream(21, (0,))) > 0.99

    def test_long_time_spread_walk(self):
        assert self.check(1, 100.0, 2.0, 2000, RandomStream(22, (0,))) < 0.1


@st.composite
def coupling_systems(draw):
    """n <= 4 particle pairs on a small torus or near the origin of Z^d.

    d = 3 is included because only there (rate m/(4d) inexact in binary)
    does the order of the rate sum change the total's last bit."""
    d = draw(st.integers(1, 3))
    L = draw(st.sampled_from([None, 3, 4, 5]))
    lo, hi = (0, L - 1) if L else (-3, 3)
    site = st.tuples(*[st.integers(lo, hi)] * d)
    n = draw(st.integers(1, 4))
    x = tuple(draw(st.lists(site, min_size=n, max_size=n)))
    y = tuple(draw(st.lists(site, min_size=n, max_size=n)))
    m = draw(st.sampled_from([2.0, 0.7, 1.3, 5.0]))
    return x, y, SipParams(m=m, geometry=Geometry(d, L))


class TestOrState:
    @settings(max_examples=200, deadline=None)
    @given(coupling_systems(), st.integers(0, 2**32 - 1), st.integers(1, 60))
    def test_kept_state_equals_a_rebuilt_one(self, system, seed, steps):
        # the bookkeeping a step carries over in its shapes (running sums bit
        # for bit, pair distances, nearest) equals that counted afresh on the
        # absolute positions
        x, y, params = system
        geo = params.geometry
        sips, shadows = (list(x), list(y)), (list(x), list(y))
        state = OrState(sips, shadows, params)
        stream = RandomStream(seed)
        for _ in range(steps):
            or_coupled_step(state, stream)
            assert ([[r.hex() for r in shape.sums] for shape in state.shapes]
                    == [[r.hex() for r in _inclusion_sums(sip, geo)] for sip in sips])
            dist = [[*_pair_distances(sip, geo), math.inf] for sip in sips]
            assert [shape.dist for shape in state.shapes] == dist
            assert state.nearest == min(map(min, dist))

    def test_shape_table_stays_under_its_bound(self, monkeypatch):
        # a contact pair and a third particle on Z, run one event at a time
        # (no flights): as the three spread out, most events meet a new
        # shape. The table fills, is emptied and stays under its bound, and
        # a far smaller bound gives the same run
        params = SipParams(0.5, Geometry(1))

        def run():
            coupling._shape_table.cache_clear()
            sip = [(0,), (1,), (2,)]
            state = OrState((sip,), (list(sip),), params)
            stream, sizes = RandomStream(8, (0,)), []
            for _ in range(30_000):
                or_coupled_step(state, stream)
                sizes.append(len(state.known))
            emptied = sum(b < a for a, b in zip(sizes, sizes[1:]))
            return (sip, stream.uniform()), max(sizes), emptied

        bound = coupling._SHAPES
        kept, most, emptied = run()
        assert most == bound and emptied >= 1
        monkeypatch.setattr(coupling, "_SHAPES", 100)
        small, most, emptied = run()
        assert small == kept
        assert most == 100 and emptied > 100

    @settings(max_examples=200, deadline=None)
    @given(coupling_systems())
    def test_inclusion_sums_match_the_reference(self, system):
        # the running sums of the reference's inclusion entries, placed at
        # entry 2d*i + j (particle i to its j-th neighbor) and 0.0 elsewhere,
        # with the same bitwise set total
        x, _, params = system
        geo = params.geometry
        width = 2 * geo.d
        entries, total = reference_inclusion_entries(x, geo, 1.0 / width)
        rates = [0.0] * (width * len(x))
        for i, y, r in entries:
            rates[width * i + geo.neighbors(x[i]).index(y)] = r
        sums = _inclusion_sums(x, geo)
        assert [s.hex() for s in sums] == [s.hex() for s in accumulate(rates)]
        assert sums[-1] == total


class TestAgainstReference:
    """The shared OR routine must replay the parent's per-use loops exactly:
    the same values at the same float times, and the same draws consumed."""

    @settings(max_examples=200, deadline=None)
    @given(coupling_systems(), st.integers(0, 2**32 - 1),
           st.lists(st.floats(0.0, 20.0), max_size=4))
    @straddling([2.0, 20.0])
    # grid times after the last inclusion event (here at t ~ 1.32) read the
    # final distance once the run ends; equal grid times read one value; an
    # empty grid draws nothing
    @example((((0, 0, 0), (1, 0, 0)), None, SipParams(2.0, Geometry(3))), 7, [1.0, 20.0])
    @example((((0,), (1,)), None, P1), 1, [3.0, 3.0, 7.0])
    @example((((0,), (1,)), None, P1), 2, [])
    def test_or_distance_single(self, system, seed, grid):
        x, _, params = system
        grid = sorted(grid)
        fast, slow = RandomStream(seed), RandomStream(seed)
        a = or_distance_single(x, params, grid, fast)
        b = reference_or_distance_single(x, params, grid, slow)
        assert a == b
        assert fast.uniform() == slow.uniform()

    @settings(max_examples=200, deadline=None)
    @given(coupling_systems(), st.integers(0, 2**32 - 1), st.floats(0.01, 30.0),
           st.floats(0.05, 0.95))
    @straddling(30.0, 0.5)
    def test_two_stage_coupling(self, system, seed, horizon, delta):
        x, y, params = system
        fast, slow = RandomStream(seed), RandomStream(seed)
        log_fast, log_slow = [], []
        a = two_stage_coupling(x, y, params, horizon, delta, fast, log=log_fast)
        b = reference_two_stage(x, y, params, horizon, delta, slow, log=log_slow)
        assert a == b
        assert log_fast == log_slow
        assert fast.uniform() == slow.uniform()


@st.composite
def long_systems(draw):
    """n <= 4 particle pairs on a torus of side 3-6 or spread over Z^d."""
    d = draw(st.integers(1, 3))
    L = draw(st.sampled_from([None, 3, 4, 5, 6]))
    lo, hi = (0, L - 1) if L else (-8, 8)
    site = st.tuples(*[st.integers(lo, hi)] * d)
    n = draw(st.integers(1, 4))
    x = tuple(draw(st.lists(site, min_size=n, max_size=n)))
    y = tuple(draw(st.lists(site, min_size=n, max_size=n)))
    m = draw(st.sampled_from([2.0, 0.7, 1.3]))
    return x, y, SipParams(m=m, geometry=Geometry(d, L))


class TestLongHorizonsAgainstReference:
    """Over long horizons almost every event runs inside a free flight, cut
    at contacts, syncs, grid ends and stage ends; the runs must still replay
    the reference loops: equal outputs, equal event logs, equal next draw."""

    @settings(max_examples=30, deadline=None)
    @given(long_systems(), st.integers(0, 2**32 - 1),
           st.lists(st.floats(0.0, 3000.0), min_size=1, max_size=4))
    @example((((0,), (1,)), None, P1), 0, [30.0, 300.0, 3000.0])
    @example((((0, 0), (3, 3), (0, 3)), None, SipParams(1.3, Geometry(2, 6))), 7,
             [100.0, 1000.0])
    @straddling([30.0, 300.0, 3000.0])
    def test_or_distance_single(self, system, seed, grid):
        x, _, params = system
        grid = sorted(grid)
        fast, slow = RandomStream(seed), RandomStream(seed)
        a = or_distance_single(x, params, grid, fast)
        b = reference_or_distance_single(x, params, grid, slow)
        assert a == b
        assert fast.uniform() == slow.uniform()

    @settings(max_examples=30, deadline=None)
    @given(long_systems(), st.integers(0, 2**32 - 1), st.floats(1.0, 2000.0),
           st.floats(0.05, 0.95))
    @example((((0,), (10,)), ((3,), (17,)), P1), 1, 2000.0, 0.8)
    @example((((0, 0), (3, 3)), ((2, 1), (5, 4)), SipParams(2.0, Geometry(2, 6))), 3,
             500.0, 0.5)
    @example((((0, 0, 0),), ((2, 5, 1),), SipParams(0.7, Geometry(3, 5))), 4, 300.0, 0.3)
    @straddling(2000.0, 0.8)
    def test_two_stage_coupling(self, system, seed, horizon, delta):
        x, y, params = system
        fast, slow = RandomStream(seed), RandomStream(seed)
        log_fast, log_slow = [], []
        a = two_stage_coupling(x, y, params, horizon, delta, fast, log=log_fast)
        b = reference_two_stage(x, y, params, horizon, delta, slow, log=log_slow)
        assert a == b
        assert log_fast == log_slow
        assert fast.uniform() == slow.uniform()

    def test_early_event_times_keep_every_bit(self):
        # early in a run a logged time is a short sum of waiting times, so it
        # shows the last bit of each; later ones absorb it. Over 2,000 short
        # runs a log that rounds unlike math.log on a few draws in 1,000
        # (as np.log can) changes some logged time
        for seed in range(2000):
            fast, slow = RandomStream(seed, (1,)), RandomStream(seed, (1,))
            log_fast, log_slow = [], []
            a = two_stage_coupling(((0,), (10,)), ((3,), (17,)), P1, 2.0, 0.5, fast,
                                   log=log_fast)
            b = reference_two_stage(((0,), (10,)), ((3,), (17,)), P1, 2.0, 0.5, slow,
                                    log=log_slow)
            assert (a, log_fast) == (b, log_slow)
