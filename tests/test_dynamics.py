import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sipsim.dynamics as dynamics
from sipsim.core import Geometry, RandomStream
from sipsim.coupling import _inclusion_sums
from sipsim.dynamics import (
    NoEventError,
    ProcessKind,
    SipParams,
    gillespie_step,
    sample_at_times,
    simulate,
    site_ids,
)
from sipsim.experiments import _LOCKSTEP

from reference_dynamics import (
    reference_irw_rates,
    reference_sample_at_times,
    reference_simulate,
    reference_sip_rates,
    reference_step,
    sample_tuples,
)

G1 = Geometry(1)
P1 = SipParams(m=2.0, geometry=G1)


def irw_rates(particles, params):
    """The free-walker (IRW) reference's constant rate list, in the order of
    the SIP rate list: entry 2d*i + j is particle i to its j-th neighbor."""
    return [r for _, _, r in reference_irw_rates(particles, params)]


def sip_rates(particles, params):
    """The SIP rate list p(x,y) * (m/2 + eta(y)) of the full-recompute
    reference, which `TestAgainstFullRecompute` holds the kernel to."""
    return [r for _, _, r in reference_sip_rates(particles, params)]


class TestRates:
    def test_single_free_particle(self):
        # neighbors in geometry order: (-1,) then (1,)
        assert sip_rates(((0,),), P1) == [0.5, 0.5]

    def test_inclusion_term_on_occupied_neighbor(self):
        rates = sip_rates(((0,), (1,)), P1)
        # 0 -> -1, 0 -> 1, 1 -> 0, 1 -> 2
        assert rates == pytest.approx([0.5, 1.0, 1.0, 0.5])  # (1/2)(1+1) when occupied

    def test_empty_list(self):
        assert sip_rates((), P1) == []
        assert irw_rates((), P1) == []
        assert _inclusion_sums((), G1) == []

    def test_irw_total_rate_is_n_m_half(self):
        assert sum(irw_rates(((0,),), P1)) == pytest.approx(1.0)
        p = SipParams(m=4.0, geometry=Geometry(2))
        assert sum(irw_rates(((0, 0), (5, 5), (9, 0)), p)) == pytest.approx(6.0)  # n*m/2

    def test_irw_rates_ignore_other_particles(self):
        rates = irw_rates(((0,), (1,)), P1)
        for i in (0, 1):
            assert sum(rates[2 * i : 2 * i + 2]) == pytest.approx(1.0)  # m/2 each

    def test_sip_equals_irw_for_one_particle(self):
        assert sip_rates(((3,),), P1) == irw_rates(((3,),), P1)

    def test_sip_minus_inclusion_equals_irw(self):
        # the OR coupling's inclusion part is p(x,y) * eta(y), so removing it
        # entrywise must recover the free rates
        rng = np.random.default_rng(3)
        for _ in range(50):
            particles = tuple((int(x),) for x in rng.integers(-10, 10, size=4))
            sip = sip_rates(particles, P1)
            sums = _inclusion_sums(particles, G1)
            inclusion = [b - a for a, b in zip([0.0] + sums, sums)]
            irw = irw_rates(particles, P1)
            assert len(sip) == len(inclusion) == len(irw)
            for rs, ri, rf in zip(sip, inclusion, irw):
                assert rs - ri == pytest.approx(rf)

    def test_occupation_level_rates_match_generator_form(self):
        # summing labeled rates at a site recovers eta(x) p(x,y) (m/2 + eta(y))
        from sipsim.core import occupation_of

        particles = ((0,), (0,), (1,), (3,))
        occ = occupation_of(particles)
        rates = sip_rates(particles, P1)
        lumped = {}
        for k, r in enumerate(rates):
            x = particles[k // 2]
            y = G1.neighbors(x)[k % 2]
            lumped[(x, y)] = lumped.get((x, y), 0.0) + r
        for (x, y), r in lumped.items():
            assert r == pytest.approx(0.5 * occ[x] * (1.0 + occ.get(y, 0)))

    def test_m_must_be_positive(self):
        with pytest.raises(ValueError):
            SipParams(m=0.0, geometry=Geometry(1))


class _StubStream:
    """Fixed draws in pairs: 0.5 for the waiting time, then `u` for the pick,
    served one at a time or peeked, as `RandomStream` serves them."""

    def __init__(self, u):
        self.u, self.pos = u, 0

    def _draw(self, j):
        return self.u if j % 2 else 0.5

    def uniform(self):
        self.pos += 1
        return self._draw(self.pos - 1)

    def exponential(self, rate):
        return -math.log(1.0 - self.uniform()) / rate

    def peek(self, k):
        return np.array([self._draw(self.pos + j) for j in range(k)])

    def advance(self, j):
        self.pos += j


def running_sums(rates):
    return list(accumulate(rates))


class TestGillespie:
    def test_single_event_fires(self):
        s = RandomStream(0, (0,))
        k, dt = gillespie_step([2.0], s)
        assert k == 0
        assert dt > 0

    def test_empty_rates(self):
        with pytest.raises(NoEventError):
            gillespie_step([], RandomStream(0, (0,)))

    def test_empty_numpy_row(self):
        with pytest.raises(NoEventError):
            gillespie_step(np.empty(0), RandomStream(0, (0,)))

    @staticmethod
    def row_kinds(rates, padding):
        """The running sums of rates and `padding` zero rates as a list, a
        numpy row and a memoryview row: the lockstep kernel's rows are
        slices of a memoryview of its buffer, here its second row."""
        sums = np.cumsum(list(rates) + [0.0] * padding)
        buffer = np.stack([np.full_like(sums, np.nan), sums])
        return sums.tolist(), buffer[1], memoryview(buffer.ravel())[len(sums):]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=40).filter(any),
           st.integers(0, 8), st.integers(0, 2**32 - 1))
    def test_a_numpy_row_steps_as_its_list_does(self, rates, padding, seed):
        # trailing zero rates are the kernel's padding
        rows = self.row_kinds(rates, padding)
        streams = [RandomStream(seed) for _ in rows]
        (k, dt), *others = [gillespie_step(row, s) for row, s in zip(rows, streams)]
        for k_row, dt_row in others:
            assert k_row == k
            assert type(dt_row) is float and dt_row.hex() == dt.hex()
        assert len({s.uniform() for s in streams}) == 1

    def test_selection_frequencies(self):
        s = RandomStream(5, (0,))
        n = 100_000
        cumulative = running_sums([1.0, 3.0])
        hits = 0
        for _ in range(n):
            k, _ = gillespie_step(cumulative, s)
            hits += k == 1
        p = hits / n
        assert abs(p - 0.75) < 3 * math.sqrt(0.75 * 0.25 / n)

    def test_waiting_time_mean(self):
        s = RandomStream(6, (0,))
        n = 100_000
        cumulative = running_sums([1.0, 1.0])
        mean_dt = np.mean([gillespie_step(cumulative, s)[1] for _ in range(n)])
        assert abs(mean_dt - 0.5) < 3 * 0.5 / math.sqrt(n)

    @staticmethod
    def reference_pick(rates, u):
        # the full-recompute loop, fed the same stub draws
        entries = [(0, (k,), r) for k, r in enumerate(rates)]
        state, _ = reference_step(((-1,),), entries, _StubStream(u))
        return state[0][0]

    @pytest.mark.parametrize("u,expected", [(0.0, 0), (0.25, 1), (0.5, 2), (0.75, 2)])
    def test_boundary_hit_picks_next_entry(self, u, expected):
        # u * total lands exactly on a running sum: `u < acc` fails there, so
        # the next entry is the one picked
        rates = [1.0, 1.0, 2.0]
        assert gillespie_step(running_sums(rates), _StubStream(u))[0] == expected
        assert self.reference_pick(rates, u) == expected

    @pytest.mark.parametrize("rates,u", [
        ([1.0, 1.0, 2.0], 1.0),
        # the running sums stall at 1.0, so u * total = total picks the last
        ([1.0, 1e-17, 1e-17], 1.0),
        # subnormal total: 0.9 * 1e-323 rounds up to the total itself
        ([5e-324, 5e-324], 0.9),
    ])
    def test_rounding_past_total_picks_last_entry(self, rates, u):
        cumulative = running_sums(rates)
        assert u * cumulative[-1] >= cumulative[-1]
        assert gillespie_step(cumulative, _StubStream(u))[0] == len(rates) - 1
        for padding in (0, 3):
            for row in self.row_kinds(rates, padding):
                assert gillespie_step(row, _StubStream(u))[0] == len(rates) + padding - 1
        assert self.reference_pick(rates, u) == len(rates) - 1

    def test_rounding_past_a_padded_total_picks_the_replicas_last_entry(self):
        # in a block the shorter start's row is padded with zero rates, so
        # u * total = total must pick its own last entry, not the padding
        starts = [((0,),), ((3,), (4,), (4,))]
        [path, _] = sample_tuples(starts, P1, [0.75], [_StubStream(1.0), _StubStream(1.0)])
        assert path == reference_sample_at_times(starts[0], ProcessKind.SIP, P1, [0.75],
                                                 _StubStream(1.0))
        assert path == [((1,),)]


class TestSimulate:
    def test_zero_horizon(self):
        traj = simulate(((0,), (4,)), ProcessKind.SIP, P1, 0.0, RandomStream(1, (0,)))
        assert traj.final == ((0,), (4,))

    def test_negative_horizon(self):
        with pytest.raises(ValueError):
            simulate(((0,),), ProcessKind.SIP, P1, -1.0, RandomStream(1, (0,)))

    def test_particle_count_conserved_and_steps_are_unit_moves(self):
        traj = simulate(((0,), (1,), (5,)), ProcessKind.SIP, P1, 5.0,
                        RandomStream(2, (0,)), record="full")
        geo = P1.geometry
        assert all(len(s) == 3 for s in traj.states)
        assert all(b > a for a, b in zip(traj.times, traj.times[1:]))
        for prev, cur in zip(traj.states, traj.states[1:]):
            moved = [(p, c) for p, c in zip(prev, cur) if p != c]
            assert len(moved) == 1
            assert geo.l1_distance(*moved[0]) == 1

    def test_empty_configuration(self):
        traj = reference_simulate((), "irw", P1, 3.0, RandomStream(1, (0,)))
        assert traj.final == ()
        assert simulate((), ProcessKind.SIP, P1, 3.0, RandomStream(1, (0,))).final == ()

    def test_shared_stream_sip_and_irw_agree_for_one_particle(self):
        # with a single particle there is no inclusion partner, so the two
        # processes consume the stream identically
        a = simulate(((0,),), ProcessKind.SIP, P1, 50.0, RandomStream(3, (1,)), record="full")
        b = reference_simulate(((0,),), "irw", P1, 50.0, RandomStream(3, (1,)), record="full")
        assert a.states == b.states
        assert a.times == b.times

    def test_irw_mean_displacement_is_zero(self):
        reps = 2000
        t = 4.0
        disp = []
        for r in range(reps):
            traj = reference_simulate(((0,),), "irw", P1, t, RandomStream(7, (r,)))
            disp.append(traj.final[0][0])
        se = np.std(disp, ddof=1) / math.sqrt(reps)
        assert abs(np.mean(disp)) < 3 * se

    @pytest.mark.parametrize("m,d", [(2.0, 1), (4.0, 2)])
    def test_single_particle_variance_rate(self, m, d):
        # per-coordinate variance of a free particle is (m/2) t / d
        params = SipParams(m=m, geometry=Geometry(d))
        t = 4.0
        reps = 4000
        target = 0.5 * m * t / d
        coords = []
        for r in range(reps):
            traj = reference_simulate(((0,) * d,), "irw", params, t, RandomStream(8, (r,)))
            coords.append(traj.final[0][0])
        var = np.var(coords, ddof=1)
        se = var * math.sqrt(2.0 / (reps - 1))
        assert abs(var - target) < 3 * se

    def test_sample_at_times_validates_grid(self):
        with pytest.raises(ValueError):
            sample_tuples([((0,),)], P1, [2.0, 1.0], [RandomStream(0, (0,))])

    @pytest.mark.parametrize("horizon", [math.nan, math.inf])
    def test_non_finite_horizon(self, horizon):
        # a NaN horizon used to loop forever: t + dt > nan is never true
        with pytest.raises(ValueError):
            simulate(((0,),), ProcessKind.SIP, P1, horizon, RandomStream(1, (0,)))

    @pytest.mark.parametrize("grid", [[math.nan], [0.5, math.nan], [math.inf], [1.0, math.inf]])
    def test_sample_at_times_rejects_non_finite_grid(self, grid):
        with pytest.raises(ValueError):
            sample_tuples([((0,),)], P1, grid, [RandomStream(0, (0,))])

    def test_final_record_keeps_no_rows(self, monkeypatch):
        # a long run on Z logs thousands of moves; record="final" keeps the
        # last row only, and the same final state and time as the reference
        logs = []
        kernel = dynamics.sample_at_times

        def spy(starts, sites, params, times, streams, log=None):
            logs.append(log)
            return kernel(starts, sites, params, times, streams, log)

        monkeypatch.setattr(dynamics, "sample_at_times", spy)
        xi0 = ((0,), (1,))
        fast, slow = RandomStream(4, (0,)), RandomStream(4, (0,))
        traj = simulate(xi0, ProcessKind.SIP, P1, 2000.0, fast)
        ref = reference_simulate(xi0, ProcessKind.SIP, P1, 2000.0, slow, record="full")
        assert len(ref.times) > 3000
        assert (traj.times, traj.states) == ([ref.times[-1]], [ref.states[-1]])
        assert fast.uniform() == slow.uniform()
        [log] = logs
        assert log.maxlen == 1 and len(log) == 1

    @pytest.mark.parametrize("m", [math.nan, math.inf])
    def test_m_must_be_finite(self, m):
        with pytest.raises(ValueError):
            SipParams(m=m, geometry=Geometry(1))


def small_starts(geometry):
    """Up to 8 particles on a small torus or near the origin of Z^d; the few
    sites make stacked particles common."""
    lo, hi = (0, geometry.L - 1) if geometry.L else (-2, 2)
    site = st.tuples(*[st.integers(lo, hi)] * geometry.d)
    return st.lists(site, max_size=8).map(tuple)


@st.composite
def small_systems(draw, block=False):
    """A few particles on a small torus or near the origin of Z^d, d = 1..3;
    with block=True, a list of 1-12 such starts on one geometry instead."""
    d = draw(st.integers(1, 3))
    L = draw(st.sampled_from([None, 3, 4, 5]))
    geometry = Geometry(d, L)
    starts = small_starts(geometry)
    xi = draw(st.lists(starts, min_size=1, max_size=12) if block else starts)
    m = draw(st.sampled_from([2.0, 0.7, 1.3, 5.0, 0.1]))
    kind = draw(st.sampled_from(list(ProcessKind)))
    return xi, kind, SipParams(m=m, geometry=geometry)


class TestAgainstFullRecompute:
    """The incremental kernel must replay the full-recompute chain exactly:
    the same states at the same float times, and the same draws consumed."""

    @settings(max_examples=300, deadline=None)
    @given(small_systems(), st.integers(0, 2**32 - 1), st.floats(0.0, 3.0))
    def test_simulate_full_record(self, system, seed, horizon):
        xi, kind, params = system
        fast, slow = RandomStream(seed), RandomStream(seed)
        a = simulate(xi, kind, params, horizon, fast, record="full")
        b = reference_simulate(xi, kind, params, horizon, slow, record="full")
        assert a.times == b.times
        assert a.states == b.states
        assert fast.uniform() == slow.uniform()

    @settings(max_examples=300, deadline=None)
    @given(small_systems(), st.integers(0, 2**32 - 1),
           st.lists(st.floats(0.0, 3.0), max_size=4))
    def test_sample_at_times(self, system, seed, grid):
        xi, _, params = system  # sample_at_times runs SIP only
        grid = sorted(grid)
        fast, slow = RandomStream(seed), RandomStream(seed)
        # two calls on one stream: the second starts where the first left it
        for start in (xi, xi[::-1]):
            [a] = sample_tuples([start], params, grid, [fast])
            b = reference_sample_at_times(start, ProcessKind.SIP, params, grid, slow)
            assert a == b
            assert fast.uniform() == slow.uniform()

    @settings(max_examples=300, deadline=None)
    @given(small_systems(block=True), st.integers(0, 2**32 - 1),
           st.lists(st.floats(0.0, 3.0), max_size=4))
    @example(([((0,), (1,), (1,))], ProcessKind.SIP, P1), 3, [0.5, 2.0])
    @example(([(), (), ()], ProcessKind.SIP, SipParams(2.0, Geometry(2, 4))), 4, [1.0])
    @example(([((0,), (0,)), (), ((2,),)], ProcessKind.SIP, P1), 5, [])
    def test_a_block_equals_its_replicas_run_alone(self, system, seed, grid):
        # empty starts, stacked particles and different sizes share one
        # block; replica b runs on its own stream (seed, (b,))
        starts, _, params = system
        grid = sorted(grid)
        fast = [RandomStream(seed, (b,)) for b in range(len(starts))]
        slow = [RandomStream(seed, (b,)) for b in range(len(starts))]
        assert sample_tuples(starts, params, grid, fast) == [
            reference_sample_at_times(xi, ProcessKind.SIP, params, grid, stream)
            for xi, stream in zip(starts, slow)]
        assert [s.uniform() for s in fast] == [s.uniform() for s in slow]

    @pytest.mark.parametrize("d", [1, 2])
    def test_a_long_block_on_z_equals_its_replicas_run_alone(self, d):
        # more sites come into sight on Z^d than the 64 ids a block's site
        # table starts with, so the table grows while replicas run
        params = SipParams(2.0, Geometry(d))
        origin = (0,) * d
        starts = [(origin, origin), (origin,) * 3, (), ((4,) + origin[1:],)]
        grid = [10.0, 60.0, 150.0]
        fast = [RandomStream(12, (b,)) for b in range(len(starts))]
        slow = [RandomStream(12, (b,)) for b in range(len(starts))]
        paths = sample_tuples(starts, params, grid, fast)
        assert paths == [reference_sample_at_times(xi, ProcessKind.SIP, params, grid, stream)
                         for xi, stream in zip(starts, slow)]
        assert len({x for path in paths for state in path for x in state}) > 8
        assert [s.uniform() for s in fast] == [s.uniform() for s in slow]

    @settings(max_examples=200, deadline=None)
    @given(small_systems(block=True), st.integers(0, 2**32 - 1),
           st.lists(st.floats(0.0, 3.0), min_size=1, max_size=4))
    def test_a_blocks_log_replays_each_replicas_full_path(self, system, seed, grid):
        # the rows of replica b, in log order, are its moves up to the last
        # grid time: the full path the reference records alone
        starts, _, params = system
        grid = sorted(grid)
        streams = [RandomStream(seed, (b,)) for b in range(len(starts))]
        log = []
        sample_tuples(starts, params, grid, streams, log)
        for b, xi in enumerate(starts):
            ref = reference_simulate(xi, ProcessKind.SIP, params, grid[-1],
                                     RandomStream(seed, (b,)), record="full")
            positions, times, states = list(xi), [], []
            for t, _, i, y in (row for row in log if row[1] == b):
                positions[i] = y
                times.append(t)
                states.append(tuple(positions))
            assert (times, states) == (ref.times[1:], ref.states[1:])


def check_block(starts, params, grid, seed):
    """A block of starts on the streams (seed, (b,)) gives each replica the
    path, the log rows and the next draw it gets alone, and the path and next
    draw of the full-recompute reference; its rows replay the reference's
    full path up to the last grid time."""
    streams = [RandomStream(seed, (b,)) for b in range(len(starts))]
    log = []
    paths = sample_tuples(starts, params, grid, streams, log)
    for b, xi in enumerate(starts):
        alone, slow = RandomStream(seed, (b,)), RandomStream(seed, (b,))
        alone_log = []
        assert [paths[b]] == sample_tuples([xi], params, grid, [alone], alone_log)
        assert paths[b] == reference_sample_at_times(xi, ProcessKind.SIP, params, grid, slow)
        rows = [(t, i, y) for t, r, i, y in log if r == b]
        assert rows == [(t, i, y) for t, _, i, y in alone_log]
        assert streams[b].uniform() == alone.uniform() == slow.uniform()
        if grid:
            ref = reference_simulate(xi, ProcessKind.SIP, params, grid[-1],
                                     RandomStream(seed, (b,)), record="full")
            positions, states = list(xi), []
            for _, i, y in rows:
                positions[i] = y
                states.append(tuple(positions))
            assert ([t for t, _, _ in rows], states) == (ref.times[1:], ref.states[1:])


class TestBlockEdges:
    """Blocks whose replicas end at, before and after the end of a draw
    window, blocks around the lockstep size, and a site table that grows
    within one round."""

    @pytest.mark.parametrize("window, rounds", [
        (w, w + offset) for w in (1, 2, 3, 5) for offset in (-1, 0, 1) if w + offset])
    @pytest.mark.parametrize("geometry", [Geometry(1), Geometry(2, 4)], ids=["Z", "torus"])
    def test_blocks_straddling_a_draw_window(self, monkeypatch, geometry, window, rounds):
        # replica 0 draws exactly window - 1, window or window + 1 events,
        # the last one past the grid; the others draw more or fewer
        monkeypatch.setattr(dynamics, "_WINDOW", window)
        params = SipParams(2.0, geometry)
        origin = (0,) * geometry.d
        neighbor = geometry.neighbors(origin)[1]
        starts = [(origin, neighbor), (), (neighbor,) * 3, (origin,), (origin, origin)]
        full = reference_simulate(starts[0], ProcessKind.SIP, params, 50.0,
                                  RandomStream(7, (0,)), record="full")
        end = full.times[rounds - 1]
        check_block(starts, params, sorted({0.5 * end, end}), seed=7)

    @pytest.mark.parametrize("size", [_LOCKSTEP - 1, _LOCKSTEP, _LOCKSTEP + 1])
    @pytest.mark.parametrize("geometry", [Geometry(1), Geometry(2, 4)], ids=["Z", "torus"])
    def test_blocks_of_the_lockstep_size(self, geometry, size):
        # mixed sizes and empty starts, as the studies hand the kernel
        rng = np.random.default_rng(size)
        hi = geometry.L or 3
        starts = [tuple(tuple(int(c) for c in rng.integers(0, hi, geometry.d))
                        for _ in range(rng.integers(0, 5)))
                  for _ in range(size)]
        assert () in starts
        check_block(starts, SipParams(1.3, geometry), [0.05, 0.2], seed=size)

    def test_a_z_table_grows_past_its_first_ids_within_one_round(self):
        # 21 lone particles far apart see 63 sites, which with the void site
        # fill the table's first 64 ids; the first round stands 21 landing
        # sites at once, and their outer neighbors need ids past 64
        starts = [((100 * b,),) for b in range(21)]
        check_block(starts, SipParams(2.0, Geometry(1)), [0.3, 2.0], seed=5)


class TestSiteIds:
    """The kernel's input and output are site ids and the id -> site list."""

    @pytest.mark.parametrize("starts", [
        [[0, 3]],  # one id past the list
        [[-2, 0]],
        [[-1, 0]],  # padding before a particle
        [[0, -1, 1]],
        [[0, 1], [2, 3]],  # in the second row
    ])
    def test_bad_ids_fail_before_any_draw(self, starts):
        streams = [RandomStream(0, (b,)) for b in range(len(starts))]
        with pytest.raises(ValueError, match=r"ids in \[-1, 3\) per stream, -1 last"):
            sample_at_times(np.array(starts), [(0,), (1,), (2,)], P1, [1.0], streams)
        assert [s.uniform() for s in streams] == [
            RandomStream(0, (b,)).uniform() for b in range(len(starts))]

    def test_starts_must_be_an_integer_row_per_stream(self):
        streams = [RandomStream(0, (0,))]
        for starts in (np.zeros((1, 2)), np.zeros(2, dtype=int), np.zeros((2, 1), dtype=int)):
            with pytest.raises(ValueError, match="per stream"):
                sample_at_times(starts, [(0,), (1,)], P1, [1.0], streams)

    def test_torus_ids_are_site_indices_and_the_list_comes_back_whole(self):
        # seeded with the torus's own sites, every id the kernel hands back
        # is a Geometry.sites() index; padding stays -1 at every grid time
        geometry = Geometry(2, 4)
        params, sites = SipParams(1.3, geometry), list(geometry.sites())
        starts = [((0, 0), (3, 1), (0, 0)), (), ((2, 2),)]
        ids, listed = site_ids(starts, sites)
        assert listed == sites
        assert ids.tolist() == [[0, 13, 0], [-1, -1, -1], [10, -1, -1]]
        grid = [0.3, 1.0]
        paths, out = sample_at_times(ids, sites, params, grid,
                                     [RandomStream(3, (b,)) for b in range(3)])
        assert out == sites and paths.shape == (3, 2, 3)
        assert (paths[1] == -1).all() and (paths[2, :, 1:] == -1).all()
        assert [[tuple(sites[k] for k in s if k >= 0) for s in path]
                for path in paths.tolist()] == [
            reference_sample_at_times(xi, ProcessKind.SIP, params, grid, RandomStream(3, (b,)))
            for b, xi in enumerate(starts)]

    def test_z_ids_extend_the_callers_list(self):
        # on Z^d a site first seen on the way gets the next id after the
        # caller's list, which comes back as the prefix of the one returned
        ids, sites = site_ids([((5,), (5,))], [(9,)])
        assert ids.tolist() == [[1, 1]] and sites == [(9,), (5,)]
        paths, out = sample_at_times(ids, sites, P1, [4.0], [RandomStream(2, (0,))])
        assert out[:2] == sites and len(out) > 2
        assert [tuple(out[k] for k in s) for s in paths[0].tolist()] == (
            reference_sample_at_times(((5,), (5,)), ProcessKind.SIP, P1, [4.0],
                                      RandomStream(2, (0,))))
