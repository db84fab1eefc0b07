import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sipsim.core import (
    COORD_LIMIT,
    CoordinateOverflowError,
    Geometry,
    RandomStream,
    check_grid,
    occupation_of,
    stream_words,
    waiting_times,
)
from sipsim.coupling import or_distance_single
from sipsim.dynamics import SipParams, sample_at_times, site_ids

from reference_dynamics import particles_of

# seeds of one word, of two to four words and of five or more: a seed of
# fewer than four words is padded to four when a spawn key follows it
SEEDS = st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**128 - 1),
                  st.integers(2**128, 2**200))
HEADS = st.lists(st.integers(0, 2**32 - 1), max_size=2).map(tuple)
INDICES = st.one_of(st.just(0), st.integers(0, 2**32 - 1))


class TestGeometry:
    def test_neighbors_1d_infinite(self):
        g = Geometry(1)
        assert set(g.neighbors((0,))) == {(-1,), (1,)}

    def test_neighbors_2d_infinite(self):
        g = Geometry(2)
        assert set(g.neighbors((0, 0))) == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_neighbors_wrap_on_torus(self):
        g = Geometry(1, 4)
        assert set(g.neighbors((3,))) == {(2,), (0,)}

    def test_every_site_has_2d_neighbors(self):
        for g in (Geometry(1), Geometry(2), Geometry(3), Geometry(2, 5)):
            assert len(g.neighbors((0,) * g.d)) == 2 * g.d

    @pytest.mark.parametrize("g", [Geometry(1), Geometry(2), Geometry(3), Geometry(1, 3),
                                   Geometry(2, 3), Geometry(3, 3), Geometry(1, 4),
                                   Geometry(2, 5), Geometry(3, 4)])
    def test_neighbor_order(self, g):
        # entry 2d*i + j of the kernel's and the OR coupling's rate lists, the
        # kernel's j ^ 1 slot for the reverse move and build_generator all
        # rely on this order
        rng = np.random.default_rng(11)
        lo, hi = (0, g.L) if g.is_torus else (-50, 50)
        for _ in range(100):
            x = tuple(int(c) for c in rng.integers(lo, hi, size=g.d))
            around = g.neighbors(x)
            assert around == tuple(g.shift(x, a, s) for a in range(g.d) for s in (-1, 1))
            for j, z in enumerate(around):
                assert g.neighbors(z)[j ^ 1] == x
        assert Geometry(2).neighbors((0, 0)) == ((-1, 0), (1, 0), (0, -1), (0, 1))
        assert Geometry(1, 3).neighbors((0,)) == ((2,), (1,))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_neighbors_stop_at_the_coordinate_limit(self, d):
        g = Geometry(d)
        for axis in range(d):
            for c in (COORD_LIMIT, -COORD_LIMIT):
                with pytest.raises(CoordinateOverflowError):
                    g.neighbors(tuple(c if k == axis else 0 for k in range(d)))
        assert len(g.neighbors((COORD_LIMIT - 1,) * d)) == 2 * d

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("L", [3, 4, 5])
    def test_torus_table_keeps_the_shift_answer(self, d, L):
        g = Geometry(d, L)
        for x in g.sites():
            expected = tuple(g.shift(x, a, s) for a in range(d) for s in (-1, 1))
            assert g.neighbors(x) == expected
            assert g.neighbors(x) == expected  # a second call gives the same tuple

    def test_torus_table_leaves_equality_hash_and_repr(self):
        g = Geometry(2, 8)
        for x in g.sites():
            g.neighbors(x)
        fresh = Geometry(2, 8)
        assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)

    def test_state_space_cache_hits_across_fresh_geometries(self):
        from sipsim.oracle import state_space

        state_space(2, Geometry(1, 6))
        hits = state_space.cache_info().hits
        g = Geometry(1, 6)
        g.neighbors((0,))
        state_space(2, g)
        assert state_space.cache_info().hits == hits + 1

    def test_unreduced_torus_sites_are_rejected(self):
        # (6,) would be a different occupancy key from its reduced twin (2,)
        from sipsim.coupling import _inclusion_sums
        from sipsim.dynamics import ProcessKind, SipParams, sample_at_times, simulate, site_ids

        g = Geometry(1, 4)
        params = SipParams(2.0, g)
        pair = ((1,), (6,))
        with pytest.raises(ValueError, match=r"\(6,\) is outside \[0, 4\)"):
            _inclusion_sums(pair, g)
        # the adapter's ids, on the torus's own site list or alone, reach the
        # kernel, which rejects the start before any draw
        for sites in ((), list(g.sites())):
            stream = RandomStream(0, (0,))
            with pytest.raises(ValueError, match="outside"):
                sample_at_times(*site_ids([pair], sites), params, [1.0], [stream])
            assert stream.uniform() == RandomStream(0, (0,)).uniform()
        with pytest.raises(ValueError, match="outside"):
            simulate(pair, ProcessKind.SIP, params, 1.0, RandomStream(0, (0,)))
        for site in ((-1,), (4,)):
            with pytest.raises(ValueError):
                g.neighbors(site)
        assert _inclusion_sums(((1,), (2,)), g) == [0.0, 0.5, 1.0, 1.0]

    def test_l1_distance(self):
        g = Geometry(2)
        assert g.l1_distance((0, 0), (3, -4)) == 7
        assert g.l1_distance((2, 5), (2, 5)) == 0

    def test_l1_wraps_on_torus(self):
        g = Geometry(1, 10)
        assert g.l1_distance((1,), (9,)) == 2

    def test_l1_is_a_metric(self):
        # symmetry and triangle inequality over random triples, both modes
        rng = np.random.default_rng(42)
        for g in (Geometry(2), Geometry(2, 7)):
            hi = 6 if g.is_torus else 50
            for _ in range(200):
                x, y, z = (tuple(rng.integers(0, hi, size=2)) for _ in range(3))
                assert g.l1_distance(x, y) == g.l1_distance(y, x)
                assert g.l1_distance(x, z) <= g.l1_distance(x, y) + g.l1_distance(y, z)
                assert (g.l1_distance(x, y) == 0) == (g.wrap(x) == g.wrap(y))

    def test_overflow_aborts_instead_of_wrapping(self):
        g = Geometry(1)
        with pytest.raises(CoordinateOverflowError):
            g.shift((COORD_LIMIT,), 0, 1)
        for c, step in ((COORD_LIMIT - 1, 1), (1 - COORD_LIMIT, -1)):  # no site at the limit
            with pytest.raises(CoordinateOverflowError):
                g.shift((c,), 0, step)
        assert g.shift((COORD_LIMIT - 1,), 0, -1) == (COORD_LIMIT - 2,)

    def test_site_index_matches_enumeration(self):
        g = Geometry(2, 4)
        for idx, site in enumerate(g.sites()):
            assert g.site_index(site) == idx

    def test_validation(self):
        with pytest.raises(ValueError):
            Geometry(0)
        with pytest.raises(ValueError):
            Geometry(1, 2)


class TestConfigurations:
    def test_occupation_of(self):
        assert occupation_of(((0,), (0,), (3,))) == {(0,): 2, (3,): 1}
        assert occupation_of(()) == {}

    def test_occupation_is_order_insensitive(self):
        a = occupation_of(((1,), (5,), (1,), (2,)))
        b = occupation_of(((5,), (1,), (2,), (1,)))
        assert a == b

    def test_particles_roundtrip(self):
        counts = {(2,): 2, (0,): 1}
        assert occupation_of(particles_of(counts)) == counts


class TestRandomStream:
    def test_replay_is_identical(self):
        a = RandomStream(123, (4,))
        b = RandomStream(123, (4,))
        n = 1_000_000
        assert all(a.uniform() == b.uniform() for _ in range(n))

    def test_distinct_indices_are_uncorrelated(self):
        n = 100_000
        a = RandomStream(9, (0,))
        b = RandomStream(9, (1,))
        xs = np.array([a.uniform() for _ in range(n)])
        ys = np.array([b.uniform() for _ in range(n)])
        corr = np.corrcoef(xs, ys)[0, 1]
        assert abs(corr) < 4.0 / math.sqrt(n)

    def test_distinct_seeds_differ(self):
        a = RandomStream(5, (0,))
        b = RandomStream(6, (0,))
        assert [a.uniform() for _ in range(16)] != [b.uniform() for _ in range(16)]

    def test_children_are_independent_of_siblings(self):
        s = RandomStream(77)
        a = s.child(0)
        b = s.child(1)
        assert [a.uniform() for _ in range(16)] != [b.uniform() for _ in range(16)]

    def test_exponential_mean(self):
        s = RandomStream(1, (0,))
        n = 100_000
        draws = [s.exponential(2.0) for _ in range(n)]
        # exponential sd equals its mean
        assert abs(np.mean(draws) - 0.5) < 3 * 0.5 / math.sqrt(n)

    def test_growing_refills_match_one_block_draw(self):
        # 20,000 draws cross every refill boundary (64, 128, ..., 8192, 8192)
        n = 20_000
        s = RandomStream(31, (2, 5))
        block = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=31, spawn_key=(2, 5)))
        ).random(n)
        assert [s.uniform() for _ in range(n)] == block.tolist()

    @pytest.mark.parametrize("ops", [
        # around the 64-draw first refill
        [("uniform", 63), ("peek", 2), ("advance", 1), ("uniform", 1), ("peek", 64),
         ("uniform", 64), ("advance", 200)],
        # a peek past the 8,192-draw cap, then scalar draws across it
        [("peek", 8193), ("uniform", 8191), ("peek", 3), ("advance", 2), ("uniform", 9000)],
        # advances that run ahead of the buffer
        [("advance", 70), ("peek", 5), ("advance", 8192), ("uniform", 100), ("advance", 0)],
    ])
    def test_peek_and_advance_follow_the_scalar_sequence(self, ops):
        scalar = RandomStream(31, (3,))
        expected = [scalar.uniform() for _ in range(30_000)]
        s = RandomStream(31, (3,))
        at = 0
        for op, k in ops:
            if op == "peek":
                assert s.peek(k).tolist() == expected[at : at + k]
            elif op == "advance":
                s.advance(k)
                at += k
            else:
                assert [s.uniform() for _ in range(k)] == expected[at : at + k]
                at += k
        assert s.uniform() == expected[at]

    def test_peek_is_a_read_only_view(self):
        # peeks inside the first refill, across a growing refill and past the
        # cap; a write to the view raises and leaves the next draws as they were
        scalar = RandomStream(31, (3,))
        expected = [scalar.uniform() for _ in range(9000)]
        s = RandomStream(31, (3,))
        at = 0
        for drawn, k in ((0, 5), (3, 100), (200, 8192)):
            for _ in range(drawn):
                assert s.uniform() == expected[at]
                at += 1
            head = s.peek(k)
            with pytest.raises(ValueError):
                head[0] = 0.5
            with pytest.raises(ValueError):
                head[-1] = 0.5
            assert head.tolist() == expected[at : at + k]
        assert s.uniform() == expected[at]

    @pytest.mark.parametrize("fill", ["peek", "uniform"])
    def test_a_full_buffer_holds_eight_bytes_a_draw(self, fill):
        # each refill is held once, as float64; a second copy as a list of
        # Python floats would cost about 40 bytes a draw
        s = RandomStream(31, (4,))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            if fill == "peek":
                s.peek(RandomStream._BUFFER)
            else:  # refills of 64, 128, ..., 4096 hold 8,128 draws; one more fills the cap
                for _ in range(RandomStream._BUFFER - RandomStream._FIRST_BUFFER + 1):
                    s.uniform()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(s._buf) == RandomStream._BUFFER
        assert held / RandomStream._BUFFER < 16

    @pytest.mark.parametrize("op", ["advance", "peek"])
    @pytest.mark.parametrize("count", [-1, -2])
    @pytest.mark.parametrize("drawn", [0, 3])
    def test_negative_counts_are_rejected(self, op, count, drawn):
        # a negative advance used to rewind the buffer and a negative peek
        # to return an empty array; the stream is left as it was
        expected = RandomStream(31, (3,))
        s = RandomStream(31, (3,))
        for _ in range(drawn):
            assert s.uniform() == expected.uniform()
        with pytest.raises(ValueError, match=str(count)):
            getattr(s, op)(count)
        assert s.uniform() == expected.uniform()

    @settings(max_examples=200, deadline=None)
    @given(SEEDS, HEADS, INDICES, st.integers(1, 4))
    @example(0, (), 2**32 - 3, 3)
    @example(2**32, (7,), 0, 2)
    @example(2**128, (1, 2), 2**32 - 1, 1)
    def test_stream_words_are_the_seed_sequence_words(self, seed, head, lo, n):
        hi = min(lo + n, 2**32)
        words = stream_words(seed, head, lo, hi)
        assert words.dtype == np.uint64 and words.shape == (hi - lo, 4)
        for r in range(lo, hi):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=head + (r,))
            assert words[r - lo].tolist() == ss.generate_state(4, np.uint64).tolist()

    @settings(max_examples=40, deadline=None)
    @given(SEEDS, HEADS, INDICES, st.integers(0, 100), st.integers(0, 100))
    def test_streams_from_words_draw_as_streams_from_paths(self, seed, head, r, k, j):
        path = head + (r,)
        batch = RandomStream(seed, path, stream_words(seed, head, r, r + 1)[0])
        alone = RandomStream(seed, path)
        assert [batch.uniform() for _ in range(200)] == [alone.uniform() for _ in range(200)]
        assert batch.peek(k).tolist() == alone.peek(k).tolist()
        batch.advance(j)
        alone.advance(j)
        assert batch.uniform() == alone.uniform()

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            RandomStream(-1)
        with pytest.raises(ValueError):
            RandomStream(1, (2**33,))


# every draw a stream can give: a multiple of 2^-53 in [0, 1)
DRAWS = st.integers(0, 2**53 - 1).map(lambda k: k * 2.0**-53)
# totals from the least subnormal to 1e300
TOTALS = st.floats(5e-324, 1e300)


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


class TestWaitingTimes:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(DRAWS, TOTALS), min_size=1, max_size=40))
    @example([(0.0, 5e-324), (1.0 - 2.0**-53, 5e-324), (0.0, 1e300), (1.0 - 2.0**-53, 1e300),
              (0.5, 2.2250738585072014e-308), (1.0 - 2.0**-53, 1e-310)])
    def test_the_column_is_the_scalar_exponential(self, pairs):
        # on the same draws, per-draw totals or one total for the column; a
        # tiny total overflows to inf in both
        us, totals = map(np.array, zip(*pairs))
        s = RandomStream(0)
        with np.errstate(over="ignore"):
            s._refill(us)
            assert bits(waiting_times(us, totals)) == bits([s.exponential(r)
                                                            for r in totals.tolist()])
            s._refill(us)
            first = totals[0].item()
            assert bits(waiting_times(us, first)) == bits([s.exponential(first) for _ in us])

    def test_the_column_follows_a_stream(self):
        fresh, s = RandomStream(9, (1,)), RandomStream(9, (1,))
        assert bits(waiting_times(s.peek(500), 3.0)) == bits([fresh.exponential(3.0)
                                                               for _ in range(500)])


# NaN, +-inf, negative and descending grids
BAD_GRIDS = [[math.nan], [0.5, math.nan], [math.inf], [1.0, math.inf], [-math.inf],
             [0.0, -math.inf], [-0.5], [-1.0, 1.0], [2.0, 1.0], [0.0, 3.0, 3.0, 2.0]]


class TestTimeGrid:
    def test_ties_and_the_empty_grid_pass(self):
        assert check_grid((0.0, 1.0, 1.0)) == [0.0, 1.0, 1.0]
        assert check_grid(iter([0.5])) == [0.5]
        assert check_grid(()) == []

    @pytest.mark.parametrize("grid", BAD_GRIDS)
    def test_bad_grids_raise_before_any_draw(self, grid):
        params, xi = SipParams(2.0, Geometry(1)), ((0,), (1,))
        for run in (lambda s: sample_at_times(*site_ids([xi]), params, grid, [s]),
                    lambda s: or_distance_single(xi, params, grid, s)):
            s, fresh = RandomStream(5, (0,)), RandomStream(5, (0,))
            with pytest.raises(ValueError, match="finite, nonnegative and ascending"):
                run(s)
            assert s.uniform() == fresh.uniform()
