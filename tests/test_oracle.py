import gc
import math
import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

from sipsim.core import Geometry, RandomStream, occupation_of
from sipsim.duality import DualityEvaluator
from sipsim.dynamics import SipParams
from sipsim import oracle
from sipsim.measures import marginal_pmf
from sipsim.oracle import (
    StateCapError,
    build_generator,
    cesaro_apply,
    exact_dual_expectation,
    poisson,
    semigroup_apply,
    state_space,
)
from difference_chain import transient_distribution
from reference_dynamics import particles_of, sample_tuples
from reference_generator import (
    reference_cesaro_apply,
    reference_generator,
    reference_semigroup_apply,
    reference_states,
    reference_uniformized,
)

T3 = SipParams(m=2.0, geometry=Geometry(1, 3))
T5 = SipParams(m=2.0, geometry=Geometry(1, 5))

# (n, geometry): rings L = 3, 5 with n = 1..3 and tori L = 3, 4 with n = 2, 3
SECTORS = [(n, Geometry(1, L)) for L in (3, 5) for n in (1, 2, 3)] + [
    (n, Geometry(2, L)) for L in (3, 4) for n in (2, 3)
]


def csr_bytes(q):
    """The CSR arrays with their dtypes, for bitwise comparison."""
    return [(a.dtype.str, a.tobytes()) for a in (q.data, q.indices, q.indptr)]


def product_weights(space, lam, m):
    return np.array([math.prod(marginal_pmf(k, lam, m) for k in s)
                     for s in space.states.tolist()])


class TestStateSpace:
    def test_single_particle_count(self):
        assert state_space(1, Geometry(1, 3)).size == 3

    def test_two_particles_stars_and_bars(self):
        assert state_space(2, Geometry(1, 3)).size == 6  # C(4,2)

    def test_counts_match_formula(self):
        for n in range(4):
            space = state_space(n, Geometry(1, 5))
            assert space.size == math.comb(5 + n - 1, n)

    def test_colex_enumeration_delivers_bijective_index(self):
        space = state_space(2, Geometry(1, 3))
        assert tuple(space.states[0]) == (2, 0, 0)
        assert tuple(space.states[-1]) == (0, 0, 2)
        assert sorted(space.rank(space.states).tolist()) == list(range(space.size))

    @pytest.mark.parametrize("n, geometry", SECTORS + [(3, Geometry(2, 6))])
    def test_rank_of_each_state_is_its_row(self, n, geometry):
        # the 6x6 torus with 3 particles would overflow a base-(n+1) key (4^36 > 2^63)
        space = state_space(n, geometry)
        assert np.array_equal(space.rank(space.states), np.arange(space.size))

    @pytest.mark.parametrize("n, geometry", SECTORS)
    def test_states_match_reference_enumeration(self, n, geometry):
        space = state_space(n, geometry)
        assert [tuple(s) for s in space.states.tolist()] == reference_states(n, geometry)

    def test_index_of_occupation_rejects_other_sectors(self):
        space = state_space(2, Geometry(1, 5))
        assert space.index_of_occupation({(4,): 2}) == space.size - 1
        with pytest.raises(KeyError):
            space.index_of_occupation({(0,): 1})

    def test_index_of_occupation_adds_keys_that_wrap_to_one_site(self):
        space = state_space(2, Geometry(1, 5))
        assert space.index_of_occupation({(0,): 1, (5,): 1}) == \
            space.index_of_occupation({(0,): 2})

    def test_cap(self, monkeypatch):
        # 1,771 states: under the default cap, over the lowered one
        monkeypatch.setattr(oracle, "DEFAULT_STATE_CAP", 1000)
        with pytest.raises(StateCapError):
            state_space(3, Geometry(1, 21))


class TestGenerator:
    def test_single_particle_rates_on_t3(self):
        q = build_generator(1, T3)
        dense = q.toarray()
        for i in range(3):
            row = dense[i]
            assert row[i] == pytest.approx(-1.0)
            assert sorted(row[j] for j in range(3) if j != i) == [0.5, 0.5]

    def test_rows_sum_to_zero(self):
        for n in (1, 2, 3):
            q = build_generator(n, T5)
            assert np.max(np.abs(q.sum(axis=1))) < 1e-12

    def test_detailed_balance_against_product_weights(self):
        # w(eta) q(eta, eta') must equal w(eta') q(eta', eta)
        lam, m = 0.4, 2.0
        space = state_space(2, Geometry(1, 5))
        q = build_generator(2, T5).toarray()

        def weight(state):
            return math.prod(marginal_pmf(k, lam, m) for k in state)

        for i, si in enumerate(space.states):
            for j, sj in enumerate(space.states):
                if i < j and (q[i, j] > 0 or q[j, i] > 0):
                    assert weight(si) * q[i, j] == pytest.approx(
                        weight(sj) * q[j, i], rel=1e-12
                    )


class TestVectorizedAssembly:
    @pytest.mark.parametrize("m", (2.0, 0.7))
    @pytest.mark.parametrize("n, geometry", SECTORS)
    def test_bitwise_equal_to_reference_loop(self, n, geometry, m):
        params = SipParams(m=m, geometry=geometry)
        assert csr_bytes(build_generator(n, params)) == csr_bytes(
            reference_generator(n, params))

    @pytest.mark.parametrize("n, dtype", [(255, np.uint8), (256, np.uint16)])
    def test_widest_counts_of_a_count_type(self, n, dtype):
        # 32,896 and 33,153 states on the 3-site ring: the sector is held in
        # the narrowest type that holds n, and neither ranks nor rates wrap
        params = SipParams(m=0.7, geometry=Geometry(1, 3))
        space = state_space(n, params.geometry)
        assert space.states.dtype == dtype
        assert np.array_equal(space.rank(space.states), np.arange(space.size))
        assert csr_bytes(build_generator(n, params)) == csr_bytes(
            reference_generator(n, params))

    def test_one_cache_entry_per_sector(self):
        # both sides of the identity live on the 2-particle sector; the
        # direct call afterwards must reuse the entry they created
        params = SipParams(m=1.3, geometry=Geometry(1, 7))
        before = build_generator.cache_info()
        exact_dual_expectation(((0,), (2,)), {(1,): 1, (3,): 1}, (0.5,), params)
        q = build_generator(2, params)
        after = build_generator.cache_info()
        assert after.misses - before.misses == 1
        assert after.hits - before.hits == 2
        assert q is build_generator(2, params)


@st.composite
def small_sectors(draw):
    d = draw(st.sampled_from((1, 2)))
    L = draw(st.integers(3, 6 if d == 1 else 4))
    n = draw(st.integers(0, 4 if d == 1 else 3))
    m = draw(st.floats(0.1, 6.0))
    return n, SipParams(m=m, geometry=Geometry(d, L))


class TestGeneratorProperties:
    @settings(max_examples=40, deadline=None)
    @given(small_sectors())
    def test_rows_sum_to_zero(self, sector):
        n, params = sector
        q = build_generator(n, params)
        scale = max(1.0, float(np.max(np.abs(q.diagonal()))))
        assert np.max(np.abs(q.sum(axis=1))) <= 1e-13 * scale

    @settings(max_examples=40, deadline=None)
    @given(small_sectors(), st.floats(0.05, 0.9))
    def test_detailed_balance_against_product_weights(self, sector, lam):
        n, params = sector
        q = build_generator(n, params)
        flow = q.multiply(product_weights(state_space(n, params.geometry), lam,
                                          params.m)[:, None]).toarray()
        np.fill_diagonal(flow, 0.0)
        assert np.max(np.abs(flow - flow.T)) <= 1e-12 * np.max(flow, initial=0.0)

    @settings(max_examples=40, deadline=None)
    @given(small_sectors())
    def test_equal_to_reference_loop(self, sector):
        n, params = sector
        assert csr_bytes(build_generator(n, params)) == csr_bytes(
            reference_generator(n, params))


class TestPoisson:
    # mu over six decades, as reached by uniformization (mu = lambda * t)
    MUS = np.geomspace(0.01, 5000.0, 306)

    def test_bitwise_equal_to_scipy_stats(self):
        ref = scipy.stats.poisson
        for mu in self.MUS:
            for tail in (1e-12, 1e-13):
                assert poisson.isf(tail, mu) == ref.isf(tail, mu)
            ks = np.arange(int(ref.isf(1e-13, mu)) + 1)
            assert poisson.pmf(ks, mu).tobytes() == ref.pmf(ks, mu).tobytes()
            assert poisson.sf(ks, mu).tobytes() == ref.sf(ks, mu).tobytes()

    def test_isf_at_exact_quantiles(self):
        # where 1 - q is exactly cdf(k), pdtrik's continuous inverse often
        # lands just above k and isf must step back down to k; for cdf(k) in
        # [0.5, 1), 1 - (1 - cdf(k)) == cdf(k) holds exactly
        ref = scipy.stats.poisson
        for mu in self.MUS[::10]:
            for k in range(int(mu), int(mu + 3 * math.sqrt(mu)) + 2):
                cdf = ref.cdf(k, mu)
                if 0.5 <= cdf < 1.0:
                    assert poisson.isf(1.0 - cdf, mu) == ref.isf(1.0 - cdf, mu) == k


class TestSemigroup:
    def test_time_zero_is_identity(self):
        q = build_generator(2, T5)
        f = np.arange(q.shape[0], dtype=float)
        assert np.allclose(semigroup_apply(q, 0.0, f), f)

    def test_preserves_constants(self):
        q = build_generator(3, T5)
        ones = np.ones(q.shape[0])
        for t in (0.5, 2.0, 10.0):
            out = semigroup_apply(q, t, ones)
            assert np.max(np.abs(out - 1.0)) < 1e-10

    def test_preserves_nonnegativity(self):
        q = build_generator(2, T5)
        rng = np.random.default_rng(0)
        f = rng.random(q.shape[0])
        assert semigroup_apply(q, 1.5, f).min() > -1e-13

    def test_distribution_row_sums(self):
        q = build_generator(2, T5)
        dist = transient_distribution(q, 1.0, 4)
        assert dist.min() > -1e-13
        assert abs(dist.sum() - 1.0) < 1e-10

    def test_long_time_matches_conditioned_product_measure(self):
        # the sector-stationary law is the product law conditioned on the
        # particle number, independent of lam
        lam, m = 0.4, 2.0
        space = state_space(2, Geometry(1, 5))
        q = build_generator(2, T5)
        dist = transient_distribution(q, 200.0, 0)
        weights = np.array(
            [math.prod(marginal_pmf(k, lam, m) for k in s) for s in space.states]
        )
        weights /= weights.sum()
        assert np.max(np.abs(dist - weights)) < 1e-8


class TestSeriesAgainstReference:
    """Both series against the per-call reference, bit for bit."""

    @pytest.mark.parametrize("n, geometry", SECTORS)
    def test_bitwise_equal_to_reference(self, n, geometry):
        q = build_generator(n, SipParams(m=0.7, geometry=geometry))
        f = np.random.default_rng(n).random(q.shape[0])
        for t in (0.0, 0.05, 3.0):
            assert (semigroup_apply(q, t, f).tobytes()
                    == reference_semigroup_apply(q, t, f).tobytes())
        for horizon in (0.05, 3.0, 40.0):
            assert (cesaro_apply(q, horizon, f).tobytes()
                    == reference_cesaro_apply(q, horizon, f).tobytes())

    def test_cesaro_doubling_bitwise_equal_to_reference(self, monkeypatch):
        # from the 1e-13 quantile the residual is already below 1e-12, so
        # start a quarter of the way there to make the doubling run
        sf_calls = []

        def sf(k, mu):
            sf_calls.append(len(k))
            return poisson.sf(k, mu)

        monkeypatch.setattr(oracle, "poisson", SimpleNamespace(
            pmf=poisson.pmf, sf=sf, isf=lambda q, mu: poisson.isf(q, mu) // 4))
        q = build_generator(3, T5)
        f = np.random.default_rng(3).random(q.shape[0])
        out = cesaro_apply(q, 5.0, f)
        assert len(sf_calls) >= 2
        assert out.tobytes() == reference_cesaro_apply(q, 5.0, f).tobytes()

    @pytest.mark.parametrize("n, geometry", SECTORS)
    def test_grid_sweep_bitwise_equal_to_reference(self, n, geometry):
        # one sweep for a grid with 0.0, a repeated time and times out of order
        q = build_generator(n, SipParams(m=0.7, geometry=geometry))
        f = np.random.default_rng(n).random(q.shape[0])
        grid = (3.0, 0.0, 0.05, 3.0, 1.2)
        outs = oracle._poisson_series(q, grid, f, oracle._transient_weights)
        assert len(outs) == len(grid)
        for t, out in zip(grid, outs):
            assert out.tobytes() == reference_semigroup_apply(q, t, f).tobytes()
        assert outs[0] is not outs[3]

    def test_dual_expectation_does_one_sweep_per_side(self, monkeypatch):
        # as many P @ v products per side as the longest truncation alone,
        # not one series per grid time
        xi, eta = ((0,), (2,)), occupation_of(((0,), (1,), (3,)))
        grid = (0.5, 2.0, 1.0)
        products = {}

        class CountingP:
            def __init__(self, p):
                self.p = p

            def __matmul__(self, v):
                products[self.p.shape[0]] = products.get(self.p.shape[0], 0) + 1
                return self.p @ v

        expected = {}
        for n in (len(xi), sum(eta.values())):
            q = build_generator(n, T5)
            semigroup_apply(q, 0.0, np.ones(q.shape[0]))  # fills the cache entry
            p, lam = oracle._uniformized_cache[id(q)]
            monkeypatch.setitem(oracle._uniformized_cache, id(q), (CountingP(p), lam))
            expected[q.shape[0]] = max(int(poisson.isf(oracle.TAIL, lam * max(grid))), 1)
        pairs = exact_dual_expectation(xi, eta, grid, T5)
        assert len(pairs) == len(grid)
        assert products == expected == {15: expected[15], 35: expected[35]}

    def test_uniformized_matrix_built_once_per_generator(self):
        q = build_generator(3, T5)
        f = np.ones(q.shape[0])
        semigroup_apply(q, 1.0, f)
        entry = oracle._uniformized_cache[id(q)]
        cesaro_apply(q, 2.0, f)
        semigroup_apply(q, 0.5, f)
        assert oracle._uniformized_cache[id(q)] is entry

    def test_concurrent_sweeps_of_one_generator_share_one_kernel(self, monkeypatch):
        # more threads than cores reach the empty cache entry of one q
        # together; each waits for the first one's P instead of building its own
        q = build_generator(3, SipParams(m=1.3, geometry=Geometry(2, 3))).copy()
        f = np.random.default_rng(5).random(q.shape[0])
        times = (2.0, 0.7, 2.0, 0.3, 1.1)
        serial = [semigroup_apply(q.copy(), t, f) for t in times]
        builds = []
        jump_kernel = oracle._jump_kernel

        def slow_jump_kernel(*args):
            builds.append(threading.current_thread().name)
            time.sleep(0.05)  # keeps the first builder inside while the others arrive
            return jump_kernel(*args)

        monkeypatch.setattr(oracle, "_jump_kernel", slow_jump_kernel)
        barrier = threading.Barrier(len(times), timeout=30)
        outs = [None] * len(times)

        def sweep(i):
            barrier.wait()
            outs[i] = semigroup_apply(q, times[i], f)

        threads = [threading.Thread(target=sweep, args=(i,)) for i in range(len(times))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(builds) == 1
        assert [out.tobytes() for out in outs] == [out.tobytes() for out in serial]

    def test_transposed_generators_leave_no_entry(self):
        q = build_generator(2, T5)
        before = len(oracle._uniformized_cache)
        transient_distribution(q, 1.0, 0)
        gc.collect()
        assert len(oracle._uniformized_cache) == before


class TestJumpKernel:
    """uniformized's P = I + Q/Lambda against scipy's eye + q.multiply(1/Lambda)."""

    @staticmethod
    def check(q):
        before = csr_bytes(q)
        (p, lam), (want, want_lam) = oracle.uniformized(q), reference_uniformized(q)
        assert lam == want_lam
        assert (p is None) == (want is None)
        if p is not None:
            assert csr_bytes(p) == csr_bytes(want)
        assert csr_bytes(q) == before
        return p

    @pytest.mark.parametrize("n, geometry", SECTORS)
    def test_bitwise_equal_to_reference(self, n, geometry):
        q = build_generator(n, SipParams(m=0.7, geometry=geometry)).copy()
        self.check(q)
        self.check(q.T.tocsr())

    @settings(max_examples=40, deadline=None)
    @given(small_sectors())
    def test_bitwise_equal_to_reference_on_small_sectors(self, sector):
        n, params = sector
        self.check(build_generator(n, params).copy())

    def test_diagonal_entries_that_round_to_zero_are_dropped(self):
        # one particle: every state has the largest exit rate, so 1 + q_ii / Lambda is 0.0
        q = build_generator(1, SipParams(m=2.0, geometry=Geometry(2, 4))).copy()
        p = self.check(q)
        assert (q.nnz, p.nnz) == (80, 64)
        assert not p.diagonal().any()

    def test_missing_diagonal_and_non_canonical_inputs(self):
        # an absorbing state with no stored entry gets P's 1.0; unsorted or
        # duplicate entries and other formats give the same matrix
        dense = np.array([[-1.0, 1.0, 0.0], [0.5, -1.5, 1.0], [0.0, 0.0, 0.0]])
        q = sparse.csr_matrix(dense)
        assert q.nnz == 5 and self.check(q)[2, 2] == 1.0
        scrambled = sparse.csr_matrix(
            (np.array([1.0, -1.0, 0.25, 1.0, -1.5, 0.25]), np.array([1, 0, 0, 2, 1, 0]),
             np.array([0, 2, 6, 6])), shape=(3, 3))
        for other in (scrambled, sparse.coo_matrix(dense), sparse.csc_matrix(dense)):
            p, lam = oracle.uniformized(other)
            assert lam == 1.5
            assert np.array_equal(p.toarray(), reference_uniformized(q)[0].toarray())

    def test_duplicate_diagonal_entries_add_up(self):
        # a diagonal stored as two entries is summed before 1.0 is added to it
        q = sparse.csr_matrix((np.array([-0.5, 1.0, -0.5, 0.5, -0.25, -0.25]),
                               np.array([0, 1, 0, 0, 1, 1]), np.array([0, 3, 6])), shape=(2, 2))
        assert np.array_equal(self.check(q).toarray(), [[0.0, 1.0], [0.5, 0.5]])

    def test_assembly_and_kernel_hold_few_bytes_per_entry(self):
        # a 15,504-state sector with 263,568 entries, its uint8 states built
        # before tracing. Per entry, the assembly peaks near 24 bytes (a CSR
        # entry is 12, the int32 rank-shift tables about 8 until the passes
        # end, each pass's float rows and the site-major copy the rest) and
        # P's build near 17: 12 of them P's own, 5 each entry's int32 row and
        # its diagonal flag while the diagonal's offsets are found
        params = SipParams(m=2.0, geometry=Geometry(2, 4))
        assert state_space(5, params.geometry).states.dtype == np.min_scalar_type(5)
        tracemalloc.start()
        try:
            q = build_generator.__wrapped__(5, params)
            assembly = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            oracle.uniformized(q)
            kernel = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert q.nnz == 263_568
        assert assembly / q.nnz < 26
        assert kernel / q.nnz < 20


class TestSelfDuality:
    def test_time_zero_is_plain_duality(self):
        xi = ((0,), (2,))
        eta = occupation_of(((0,), (1,), (3,)))
        [(left, right)] = exact_dual_expectation(xi, eta, (0.0,), T5)
        d0 = DualityEvaluator(2.0).value(xi, eta)
        assert left == pytest.approx(d0, abs=1e-12)
        assert right == pytest.approx(d0, abs=1e-12)

    def test_empty_dual_side(self):
        eta = occupation_of(((0,), (1,)))
        for t in (0.0, 1.0):
            [(left, right)] = exact_dual_expectation((), eta, (t,), T5)
            assert left == pytest.approx(1.0, abs=1e-10)
            assert right == pytest.approx(1.0, abs=1e-10)

    def test_identity_on_15_and_35_state_sectors(self):
        xi = ((0,), (2,))
        eta = occupation_of(((0,), (1,), (3,)))
        for t in (0.5, 1.0, 2.0):
            [(left, right)] = exact_dual_expectation(xi, eta, (t,), T5)
            assert abs(left - right) <= 1e-8

    def test_eta_keys_that_wrap_to_one_site_add_up(self):
        # (5,) is site 0 on a ring of 5: eta holds two particles there
        params = SipParams(m=1.0, geometry=Geometry(1, 5))
        grid = (0.0, 1.0)
        wrapped = exact_dual_expectation(((0,),), {(0,): 1, (5,): 1}, grid, params)
        assert wrapped == exact_dual_expectation(((0,),), {(0,): 2}, grid, params)
        assert wrapped != exact_dual_expectation(((0,),), {(0,): 1}, grid, params)

    @pytest.mark.parametrize("params, xi, eta, size", [
        # the xi sectors of the oracle-2d workload, the default self-duality
        # config and the stacked golden config; at m = 2 each factor is a
        # binomial coefficient, so their products take any order exactly
        (SipParams(2.0, Geometry(2, 4)), ((0, 0), (0, 2)),
         ((0, 0), (0, 1), (1, 1), (2, 3), (3, 3), (1, 2)), 136),
        (T5, ((0,), (2,)), ((0,), (1,), (3,)), 15),
        (SipParams(2.0, Geometry(2, 3)), ((1, 1), (0, 2), (1, 1)),
         ((2, 1), (1, 1), (0, 2), (1, 1)), 165),
        # here 4 entries change bits when their 3 factors run in reverse site order
        (SipParams(0.7, Geometry(2, 3)), ((1, 1), (0, 2), (1, 1)),
         ((2, 1), (1, 1), (0, 2), (1, 1), (0, 0), (2, 2), (2, 2)), 165),
    ])
    def test_right_vector_is_value_at_particles_in_site_order(self, monkeypatch, params, xi,
                                                              eta, size):
        # D's factor order has one owner: each entry of E_xi D(xi_t, eta)'s
        # vector is `value` at that state's particles listed in site order
        vectors = []
        series = oracle._poisson_series

        def spy(q, times, f, weights_of):
            vectors.append(np.array(f))
            return series(q, times, f, weights_of)

        monkeypatch.setattr(oracle, "_poisson_series", spy)
        eta_counts = occupation_of(eta)
        exact_dual_expectation(xi, eta_counts, (0.5,), params)
        sites, value = list(params.geometry.sites()), DualityEvaluator(params.m).value
        want = [value([x for x, k in zip(sites, row) for _ in range(k)], eta_counts)
                for row in state_space(len(xi), params.geometry).states.tolist()]
        assert len(want) == size and 0.0 < max(want)
        assert vectors[1].tobytes() == np.array(want).tobytes()

    def test_identity_across_parameters(self):
        for m in (0.7, 3.0):
            params = SipParams(m=m, geometry=Geometry(1, 4))
            xi = ((1,), (1,))
            eta = {(0,): 2, (2,): 1}
            [(left, right)] = exact_dual_expectation(xi, eta, (0.8,), params)
            assert abs(left - right) <= 1e-8


class TestAgainstExpmMultiply:
    """The uniformized series against scipy's truncated-Taylor e^{tQ} v
    (Al-Mohy & Higham 2011), a method that shares no code with them."""

    TIMES = (0.3, 1.0, 2.5, 6.0)
    CASES = [  # (params, xi, eta particles): one d = 1 ring and one d = 2 torus
        (SipParams(m=0.7, geometry=Geometry(1, 5)), ((0,), (2,)), ((0,), (1,), (3,))),
        (SipParams(m=2.0, geometry=Geometry(2, 3)), ((0, 0), (1, 1)),
         ((0, 0), (0, 1), (2, 2), (0, 1))),
    ]

    @staticmethod
    def close(got, want):
        return abs(got - want) <= 1e-10 * max(abs(want), 1e-300)

    @pytest.mark.parametrize("n, geometry", [(3, Geometry(1, 5)), (3, Geometry(2, 3))])
    def test_semigroup_apply(self, n, geometry):
        q = build_generator(n, SipParams(m=0.7, geometry=geometry))
        f = np.random.default_rng(n).random(q.shape[0])
        for t in self.TIMES:
            want = expm_multiply(t * q, f)
            got = semigroup_apply(q, t, f)
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_exact_dual_expectation(self, case):
        params, xi, eta_particles = self.CASES[case]
        geo = params.geometry
        eta = occupation_of(eta_particles)
        evaluator = DualityEvaluator(params.m)
        sites = list(geo.sites())

        def counts(row):
            return {s: k for s, k in zip(sites, row) if k}

        space_eta, space_xi = state_space(len(eta_particles), geo), state_space(len(xi), geo)
        f_left = np.array([evaluator.value(xi, counts(row))
                           for row in space_eta.states.tolist()])
        f_right = np.array([evaluator.value(particles_of(counts(row)), eta)
                            for row in space_xi.states.tolist()])
        q_eta = build_generator(space_eta.n, params)
        q_xi = build_generator(space_xi.n, params)
        pairs = exact_dual_expectation(xi, eta, self.TIMES, params)
        for t, (left, right) in zip(self.TIMES, pairs):
            assert self.close(left, expm_multiply(t * q_eta, f_left)[
                space_eta.index_of_occupation(eta)])
            assert self.close(right, expm_multiply(t * q_xi, f_right)[
                space_xi.index_of_particles(xi)])


class TestMonteCarloAgreement:
    def test_pair_distribution_matches_uniformization(self):
        # light version of the acceptance check: 20k replicas, 3 sigma per state
        params = T5
        space = state_space(2, params.geometry)
        q = build_generator(2, params)
        start = ((0,), (2,))
        t = 1.0
        target = transient_distribution(q, t, space.index_of_particles(start))
        reps = 20_000
        counts = np.zeros(space.size)
        for lo in range(0, reps, 32):  # lockstep blocks, as the studies run them
            block = range(lo, min(lo + 32, reps))
            for [state] in sample_tuples([start] * len(block), params, [t],
                                         [RandomStream(21, (r,)) for r in block]):
                counts[space.index_of_particles(state)] += 1
        freq = counts / reps
        for p_hat, p in zip(freq, target):
            se = math.sqrt(p * (1 - p) / reps)
            assert abs(p_hat - p) <= 3 * se + 1e-9


class TestCesaro:
    def test_average_of_constant(self):
        q = build_generator(2, T5)
        ones = np.ones(q.shape[0])
        out = cesaro_apply(q, 5.0, ones)
        assert np.max(np.abs(out - 1.0)) < 1e-8

    def test_converges_to_sector_average(self):
        space = state_space(2, Geometry(1, 5))
        q = build_generator(2, T5)
        f = np.array([DualityEvaluator(2.0).value(((0,), (1,)), dict(zip(
            [tuple((i,)) for i in range(5)], s))) for s in space.states])
        lam = 0.4
        weights = np.array(
            [math.prod(marginal_pmf(k, lam, 2.0) for k in s) for s in space.states]
        )
        weights /= weights.sum()
        limit = float(weights @ f)
        prev_gap = None
        for horizon in (10.0, 20.0, 40.0):
            out = cesaro_apply(q, horizon, f)
            gap = float(np.max(np.abs(out - limit)))
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap

