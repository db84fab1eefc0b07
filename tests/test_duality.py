import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sipsim.core import Geometry, RandomStream, occupation_of
from sipsim.duality import DualityEvaluator, ah_density
from sipsim.dynamics import site_ids
from sipsim.measures import (
    NuLambda,
    NuMixture,
    PoissonProduct,
    sample_product,
)
from sipsim.oracle import state_space
from sipsim.stats import batched

EV2 = DualityEvaluator(2.0)


def empirical_transform(xi, sampler, reps, stream):
    """Sample mean and batch-means stderr of D(xi, .) over sampled fields:
    the Monte Carlo check of the closed-form transforms."""
    return batched([EV2.value(xi, sampler(stream)) for _ in range(reps)])


def product_sampler(law, geometry):
    """One configuration of `law` per call, from a block of one stream, as
    the site -> count map `DualityEvaluator.value` reads."""
    return lambda s: dict(zip(geometry.sites(), sample_product(law, geometry, [s])[0].tolist()))


class TestSingleSite:
    def test_d00_is_one(self):
        assert EV2.single(0, 0) == 1.0

    def test_zero_above_diagonal(self):
        assert EV2.single(3, 2) == 0.0
        assert DualityEvaluator(0.7).single(1, 0) == 0.0

    def test_first_order_is_2l_over_m(self):
        assert EV2.single(1, 3) == pytest.approx(3.0)
        for m in (0.5, 1.0, 3.7):
            for l in (1, 2, 9):
                assert DualityEvaluator(m).single(1, l) == pytest.approx(2.0 * l / m)

    def test_d22_at_m_two(self):
        assert EV2.single(2, 2) == pytest.approx(1.0)

    def test_log_space_matches_direct_products(self):
        # against the plain product form, up to k,l ~ 170
        rng = np.random.default_rng(0)
        for _ in range(200):
            l = int(rng.integers(0, 171))
            k = int(rng.integers(0, l + 1))
            m = float(rng.uniform(0.2, 8.0))
            direct = 1.0
            for j in range(k):
                direct *= (l - j) / (0.5 * m + j)
            assert DualityEvaluator(m).single(k, l) == pytest.approx(direct, rel=1e-10)

    def test_ladder_growth(self):
        # the Gamma ratio ladder rises strictly from k=1 for every m, and
        # from k=0 only once m >= 2
        for m in (0.5, 1.0, 2.0, 6.0):
            ev = DualityEvaluator(m)
            ratios = [math.exp(ev._log_gamma_ratio(k)) for k in range(8)]
            assert all(b > a for a, b in zip(ratios[1:], ratios[2:]))
            assert ratios[0] == 1.0
            if m >= 2.0:
                assert ratios[1] >= ratios[0]
            else:
                assert ratios[1] < ratios[0]


class TestPolynomial:
    def test_empty_dual_configuration(self):
        assert EV2.value((), {(0,): 5}) == 1.0

    def test_single_particle_counts_occupation(self):
        assert EV2.value(((0,),), {(0,): 5}) == pytest.approx(5.0)

    def test_short_circuit_on_insufficient_occupation(self):
        xi = ((0,), (1,), (1,))
        assert EV2.value(xi, {(1,): 2}) == 0.0

    def test_relabeling_invariance(self):
        eta = {(0,): 3, (2,): 1}
        a = DualityEvaluator(1.5).value(((0,), (2,), (0,)), eta)
        b = DualityEvaluator(1.5).value(((0,), (0,), (2,)), eta)
        assert a == b

    def test_multiplicative_over_disjoint_supports(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            eta = {(int(s),): int(rng.integers(0, 5)) for s in range(-4, 5)}
            xi1 = tuple((int(x),) for x in rng.integers(-4, 0, size=2))
            xi2 = tuple((int(x),) for x in rng.integers(1, 5, size=2))
            m = float(rng.uniform(0.3, 5.0))
            lhs = DualityEvaluator(m).value(xi1 + xi2, eta)
            rhs = DualityEvaluator(m).value(xi1, eta) * DualityEvaluator(m).value(xi2, eta)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            xi = tuple((int(x),) for x in rng.integers(-3, 4, size=3))
            eta = {(int(s),): int(rng.integers(0, 4)) for s in range(-3, 4)}
            assert DualityEvaluator(1.1).value(xi, eta) >= 0.0


class TestProduct:
    def test_bitwise_equal_to_state_by_state_products(self):
        space = state_space(4, Geometry(2, 3))
        evaluator = DualityEvaluator(0.7)
        rows = space.states.tolist()
        support = [(0, 1), (4, 2), (8, 1), (5, 3)]  # (site index, k)
        left = evaluator.product([(k, space.states[:, s]) for s, k in support], space.size)
        expect = np.array([math.prod(evaluator.single(k, state[s]) for s, k in support)
                           for state in rows])
        assert left.tobytes() == expect.tobytes()
        eta = [2, 0, 1, 3, 0, 1, 2, 0, 1]
        right = evaluator.product([(space.states[:, s], l) for s, l in enumerate(eta)],
                                  space.size)
        expect = np.array([math.prod(evaluator.single(k, eta[s])
                                     for s, k in enumerate(state) if k)
                           for state in rows])
        assert right.tobytes() == expect.tobytes()

    def test_the_table_is_not_square(self):
        # a square table to l = 1500 would hold d(750, 1500), which overflows
        ls = np.array([0, 5, 1500])
        with pytest.raises(OverflowError):
            EV2.single(750, 1500)
        out = EV2.product([(2, ls)], 3)
        assert np.isfinite(out).all()
        assert out.tobytes() == np.array([EV2.single(2, l) for l in ls.tolist()]).tobytes()

    def test_no_factors_give_ones(self):
        empty = np.array([], dtype=int)
        assert EV2.product([], 4).tobytes() == np.ones(4).tobytes()
        assert EV2.product([(empty, empty)], 0).tobytes() == np.ones(0).tobytes()
        assert EV2.product([(0, empty), (empty, 3)], 0).shape == (0,)

    def test_matches_value_on_count_rows(self):
        # the correlation and stationarity arms read D this way from count rows
        g = Geometry(1, 4)
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 4, size=(50, 4))
        for xi in [((0,),), ((0,), (0,), (2,)), ((3,), (1,), (3,), (3,))]:
            pairs = [(k, counts[:, x[0]]) for x, k in occupation_of(xi).items()]
            expect = [EV2.value(xi, dict(zip(g.sites(), row))) for row in counts.tolist()]
            assert EV2.product(pairs, len(counts)).tolist() == expect


class TestClosedTransforms:
    def test_nu_lambda_is_rho_power(self):
        law = NuLambda(0.4, 2.0)
        assert EV2.closed_transform(law, ()) == 1.0
        assert EV2.closed_transform(law, ((0,), (7,))) == pytest.approx((2.0 / 3.0) ** 2)

    def test_nu_half_is_one_for_any_size(self):
        law = NuLambda(0.5, 2.0)
        for n in range(5):
            xi = tuple((j,) for j in range(n))
            assert EV2.closed_transform(law, xi) == pytest.approx(1.0)

    def test_poisson_doubled_site(self):
        law = PoissonProduct(1.0)
        assert EV2.closed_transform(law, ((0,), (0,))) == pytest.approx(0.5)

    def test_mixture_average(self):
        law = NuMixture(atoms=((0.2, 0.5), (0.6, 0.5)), m=2.0)
        xi = ((0,), (1,))
        assert EV2.closed_transform(law, xi) == pytest.approx((0.25**2 + 1.5**2) / 2)

    def test_m_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DualityEvaluator(3.0).closed_transform(NuLambda(0.4, 2.0), ((0,),))

    @pytest.mark.parametrize("m", [float("nan"), float("inf")])
    def test_non_finite_m_rejected(self, m):
        with pytest.raises(ValueError, match="finite"):
            DualityEvaluator(m)


@st.composite
def placement_free_laws(draw):
    """A NuLambda or NuMixture law at a random m."""
    m = draw(st.floats(0.1, 8.0))
    lams = st.floats(0.0, 0.99)
    if draw(st.booleans()):
        return NuLambda(draw(lams), m)
    parts = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
    weights = [k / sum(parts) for k in parts]
    return NuMixture(atoms=tuple((draw(lams), w) for w in weights), m=m)


@st.composite
def two_placements(draw):
    """Two dual configurations of one size, on a torus or on Z; particles
    may share a site."""
    d = draw(st.integers(1, 2))
    L = draw(st.one_of(st.none(), st.integers(3, 6)))
    coord = st.integers(0, L - 1) if L else st.integers(-50, 50)
    sites = st.tuples(*[coord] * d)
    n = draw(st.integers(0, 6))
    return tuple(tuple(draw(st.lists(sites, min_size=n, max_size=n))) for _ in range(2))


@settings(max_examples=300, deadline=None)
@given(placement_free_laws(), two_placements())
def test_placement_free_transforms_ignore_the_sites(law, placements):
    # the stationarity study's dual rows rest on this: its simulated paths
    # conserve the particle count, so each would give the probe's transform
    a, b = placements
    ev = DualityEvaluator(law.m)
    assert ev.closed_transform(law, a).hex() == ev.closed_transform(law, b).hex()


class TestEmpiricalTransform:
    def test_point_mass_sampler_is_exact(self):
        eta = {(0,): 4}
        est, se = empirical_transform(((0,),), lambda s: eta, 500, RandomStream(0, (0,)))
        assert est == pytest.approx(4.0)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_nu_lambda_sampler_matches_closed_form(self):
        g = Geometry(1, 8)
        law = NuLambda(0.4, 2.0)
        xi = ((0,),)
        est, se = empirical_transform(xi, product_sampler(law, g), 40_000, RandomStream(1, (0,)))
        assert abs(est - 2.0 / 3.0) < 3 * se

    def test_closed_form_coverage_grid(self):
        # 3 sigma agreement for |xi| up to 4 over a small parameter grid
        g = Geometry(1, 8)
        stream = RandomStream(2, (0,))
        for lam in (0.2, 0.5):
            law = NuLambda(lam, 2.0)
            for n in (2, 4):
                xi = tuple((j,) for j in range(n))
                est, se = empirical_transform(xi, product_sampler(law, g), 40_000, stream)
                target = law.rho**n
                assert abs(est - target) < 3 * se + 1e-12

    def test_empty_configuration_sampler(self):
        est, se = empirical_transform(((0,),), lambda s: {}, 100, RandomStream(3, (0,)))
        assert est == 0.0
        assert se == 0.0

    def test_needs_two_replicas(self):
        with pytest.raises(ValueError):
            empirical_transform(((0,),), lambda s: {}, 1, RandomStream(0, (0,)))


class TestTemperednessBound:
    def test_nu_lambda_bound(self):
        law = NuLambda(0.4, 2.0)
        for n in range(1, 5):
            assert EV2.temperedness_bound(law, n) == pytest.approx((2.0 / 3.0) ** n)

    def test_lam_zero(self):
        assert EV2.temperedness_bound(NuLambda(0.0, 2.0), 3) == 0.0

    def test_poisson_at_m_two(self):
        assert EV2.temperedness_bound(PoissonProduct(1.0), 3) == pytest.approx(1.0)

    def test_poisson_singletons_dominate(self):
        # sup is (2 theta / m)^n, attained by spreading the particles out
        law = PoissonProduct(1.5)
        for m, n in [(3.0, 4), (0.8, 3)]:
            bound = DualityEvaluator(m).temperedness_bound(law, n)
            assert bound == pytest.approx((2 * 1.5 / m) ** n)

    def test_empirical_unsupported(self):
        with pytest.raises(TypeError):
            EV2.temperedness_bound(lambda s: {}, 2)

    @pytest.mark.parametrize("m,law", [
        (2.0, NuLambda(0.4, 2.0)),
        (0.6, NuLambda(0.7, 0.6)),
        (3.0, NuMixture(atoms=((0.2, 0.3), (0.75, 0.7)), m=3.0)),
    ] + [(m, PoissonProduct(theta)) for m in (0.4, 1.3, 2.0, 3.0, 6.5)
         for theta in (0.2, 1.0, 2.7)])
    def test_bound_is_the_brute_force_supremum(self, m, law):
        # the maximum of the transform over every placement of n particles
        # on a ring of n and of n + 2 sites, so coinciding particles compete
        # with spread-out ones
        ev = DualityEvaluator(m)
        for n in range(1, 5):
            for ring in (n, n + 2):
                brute = max(ev.closed_transform(law, tuple((s,) for s in xi))
                            for xi in itertools.combinations_with_replacement(range(ring), n))
                bound = ev.temperedness_bound(law, n)
                assert abs(bound - brute) <= 1e-12 * brute, (n, ring)


def test_ah_density_values():
    assert ah_density(NuLambda(0.4, 2.0), 2.0) == pytest.approx(2.0 / 3.0)
    assert ah_density(PoissonProduct(1.0), 2.0) == pytest.approx(1.0)
    assert ah_density(NuMixture(atoms=((0.2, 0.5), (0.6, 0.5)), m=2.0), 2.0) == pytest.approx(0.875)


class TestDualityOfIdArrays:
    """The dynamics arms read D and the Poisson transform off the kernel's id
    arrays; every state's value must be bitwise the scalar one, with sites
    held more than once and factors in `occupation_of`'s order."""

    GEO = Geometry(2, 3)
    SITES = list(GEO.sites())

    @staticmethod
    def bits(values):
        return np.asarray(values, dtype=float).view(np.int64).tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from([0.1, 0.7, 2.0, 5.0]))
    def test_label_factors_equal_value_and_the_poisson_transform(self, data, m):
        # |xi| <= 6 on 4 of the 9 sites, so most states hold a site twice
        n = data.draw(st.integers(0, 6))
        index = st.integers(0, 3)
        states = [tuple(self.SITES[i] for i in row) for row in data.draw(
            st.lists(st.lists(index, min_size=n, max_size=n), min_size=1, max_size=8))]
        eta = tuple(self.SITES[i] for i in data.draw(st.lists(st.integers(0, 8), max_size=8)))
        theta = data.draw(st.floats(0.05, 4.0))
        evaluator, law = DualityEvaluator(m), PoissonProduct(theta=theta)
        ids, _ = site_ids(states, self.SITES)
        # (B x T x n) as the kernel gives it: two replicas when the states pair up
        paths = ids.reshape(2, len(ids) // 2, n) if len(ids) % 2 == 0 else ids[:, None, :]
        d = evaluator.label_product(paths, site_ids([eta], self.SITES)[0][0])
        assert self.bits(d.ravel()) == self.bits(
            [evaluator.value(s, occupation_of(eta)) for s in states])
        one_site = states[0][:1]
        f = evaluator.label_product(paths, (),
                                    lambda k, _: evaluator.closed_transform(law, one_site * k))
        assert self.bits(f.ravel()) == self.bits(
            [evaluator.closed_transform(law, s) for s in states])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 8), max_size=7), min_size=1, max_size=6),
           st.lists(st.integers(0, 3), max_size=6), st.sampled_from([0.1, 0.7, 2.0, 5.0]))
    def test_counts_read_off_padded_ids_equal_value(self, rows, probe, m):
        # states of different sizes, padded with -1, and a probe holding a
        # site more than once: each state's count at a site is the number
        # of its ids equal to the site's index
        states = [tuple(self.SITES[i] for i in row) for row in rows]
        xi = tuple(self.SITES[i] for i in probe)
        evaluator = DualityEvaluator(m)
        ids, _ = site_ids(states, self.SITES)
        paths = ids[:, None, :]
        [d] = evaluator.moments([xi], lambda x: (paths == self.GEO.site_index(x)).sum(2),
                                paths.shape[:2])
        assert d.shape == (len(states), 1)
        assert self.bits(d.ravel()) == self.bits(
            [evaluator.value(xi, occupation_of(s)) for s in states])
