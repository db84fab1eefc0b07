import math

import numpy as np
import pytest
from scipy.stats import nbinom

from sipsim.core import Geometry, RandomStream
from sipsim.measures import NuLambda, NuMixture, PoissonProduct, marginal_pmf, sample_product

from reference_measures import (reference_fugacity, reference_invert, reference_sample_product,
                                reference_sums)
from reversibility import detailed_balance_ratio
from test_benchmark_interface import _CountingStream


class TestMarginalPmf:
    def test_lam_zero_is_empty(self):
        assert marginal_pmf(0, 0.0, 2.0) == 1.0
        assert marginal_pmf(3, 0.0, 2.0) == 0.0

    def test_m_two_is_geometric(self):
        assert marginal_pmf(2, 0.5, 2.0) == pytest.approx(0.125)
        for k in range(6):
            assert marginal_pmf(k, 0.3, 2.0) == pytest.approx(0.7 * 0.3**k)

    def test_against_scipy_negative_binomial(self):
        for lam, m in [(0.4, 2.0), (0.7, 1.5), (0.25, 5.0)]:
            for k in range(12):
                assert marginal_pmf(k, lam, m) == pytest.approx(
                    nbinom.pmf(k, 0.5 * m, 1.0 - lam), rel=1e-12
                )

    def test_mass_sums_to_one(self):
        for lam, m in [(0.4, 2.0), (0.9, 0.5), (0.6, 7.0)]:
            total = sum(marginal_pmf(k, lam, m) for k in range(2000))
            assert abs(total - 1.0) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            marginal_pmf(0, 1.0, 2.0)
        with pytest.raises(ValueError):
            marginal_pmf(0, -0.1, 2.0)
        assert marginal_pmf(-1, 0.5, 2.0) == 0.0


def marginal_draws(lam, m, n, stream):
    """n draws of the NuLambda(lam, m) marginal: the counts on a ring of n sites."""
    return sample_product(NuLambda(lam, m), Geometry(1, n), [stream])[0].tolist()


class TestSampling:
    def test_lam_zero_always_zero(self):
        assert marginal_draws(0.0, 2.0, 100, RandomStream(0, (0,))) == [0] * 100

    def test_mean_matches_density(self):
        # mean count is (m/2) * lam/(1-lam)
        n = 100_000
        draws = marginal_draws(0.4, 2.0, n, RandomStream(1, (0,)))
        target = 0.4 / 0.6
        se = np.std(draws, ddof=1) / math.sqrt(n)
        assert abs(np.mean(draws) - target) < 3 * se

    def test_pmf_at_zero_m_one(self):
        n = 100_000
        hits = marginal_draws(0.5, 1.0, n, RandomStream(2, (0,))).count(0)
        p = (1.0 - 0.5) ** 0.5
        assert abs(hits / n - p) < 3 * math.sqrt(p * (1 - p) / n)

    def test_empirical_pmf_profile(self):
        n = 50_000
        lam, m = 0.6, 3.0
        counts = np.bincount(marginal_draws(lam, m, n, RandomStream(3, (0,))))
        for k in range(4):
            p = marginal_pmf(k, lam, m)
            assert abs(counts[k] / n - p) < 3 * math.sqrt(p * (1 - p) / n) + 1e-9


class TestSampleProduct:
    def test_lam_zero_gives_empty_configuration(self):
        counts = sample_product(NuLambda(0.0, 2.0), Geometry(1, 5), [RandomStream(0, (0,))])
        assert counts.tolist() == [[0] * 5]

    def test_poisson_product_is_not_sampled(self):
        # no study samples it: only its closed transform is used
        with pytest.raises(TypeError):
            sample_product(PoissonProduct(0.0), Geometry(1, 5), [RandomStream(0, (0,))])

    @pytest.mark.parametrize("law,extra", [
        (NuLambda(0.4, 2.0), 0), (NuMixture(atoms=((0.2, 0.5), (0.6, 0.5)), m=2.0), 1)])
    @pytest.mark.parametrize("geometry", [Geometry(1, 7), Geometry(2, 4)])
    def test_one_uniform_per_site(self, law, extra, geometry):
        # stationarity and correlation replicas, and marginal_draws, rely on it
        stream = _CountingStream(6, (0,))
        stream.draws = 0
        sample_product(law, geometry, [stream])
        assert stream.draws == geometry.n_sites + extra

    def test_requires_torus(self):
        with pytest.raises(ValueError):
            sample_product(NuLambda(0.4, 2.0), Geometry(1), [RandomStream(0, (0,))])

    def test_sites_are_independent(self):
        g = Geometry(1, 6)
        reps = 20_000
        streams = [RandomStream(4, (r,)) for r in range(reps)]
        counts = sample_product(NuLambda(0.4, 2.0), g, streams)
        a, b = counts[:, 0], counts[:, 3]
        cov = np.cov(a, b)[0, 1]
        se = np.std(a * b, ddof=1) / math.sqrt(reps)
        assert abs(cov) < 3 * se + 1e-9

    def test_mixture_shares_one_fugacity_per_draw(self):
        # under the mixture, distinct sites must be positively correlated
        g = Geometry(1, 6)
        law = NuMixture(atoms=((0.0, 0.5), (0.8, 0.5)), m=2.0)
        counts = sample_product(law, g, [RandomStream(5, (r,)) for r in range(20_000)])
        # rho^2/4 = 4 in expectation, far from 0
        assert np.cov(counts[:, 0], counts[:, 3])[0, 1] > 1.0


class _Draws:
    """Fixed draws, served as `RandomStream.uniform`, `peek` and `advance`
    serve them."""

    def __init__(self, draws):
        self.draws, self.pos = np.asarray(draws, dtype=float), 0

    def uniform(self):
        self.pos += 1
        return float(self.draws[self.pos - 1])

    def peek(self, k):
        return self.draws[self.pos : self.pos + k]

    def advance(self, k):
        self.pos += k


class TestBlockSampler:
    """`sample_product` inverts a block's uniforms through one CDF table per
    atom; it must give the count the sequential walk
    (tests/reference_measures.py) gives for every u, at the CDF values
    themselves and just below them, and pick the atom it picks."""

    @pytest.mark.parametrize("m", [0.5, 2.0, 7.0])
    @pytest.mark.parametrize("lam", [0.0, 0.4, 0.5, 0.999])
    def test_cdf_values_and_their_predecessors(self, lam, m):
        sums = reference_sums(lam, 0.5 * m, 40_000)
        grows = [k for k in range(1, len(sums)) if sums[k] > sums[k - 1]]
        last = grows[-1] if grows else 0  # the sums never grow past it
        picks = sorted(set(range(min(last, 60) + 1))
                       | set(np.geomspace(1, last + 1, 80).astype(int) - 1))
        us = [0.0, 1e-300, 0.25, 0.5]
        for k in picks:
            us += [u for u in (sums[k], np.nextafter(sums[k], 0.0)) if u < min(1.0, sums[last])]
        us += [0.0] * (len(us) % 2)  # two streams of equal length
        half = len(us) // 2
        streams = [_Draws(us[:half]), _Draws(us[half:])]
        counts = sample_product(NuLambda(lam, m), Geometry(1, half), streams)
        assert counts.ravel().tolist() == [reference_invert(u, lam, 0.5 * m) for u in us]
        assert [s.pos for s in streams] == [half, half]

    def test_a_u_past_every_sum_gets_the_count_where_the_pmf_underflows(self):
        # the sums of (0.2, 7) stop growing at 1 - 2^-53, the largest uniform
        # below 1, and the walk goes on to where the pmf underflows, at 472
        u = np.nextafter(1.0, 0.0)
        assert max(reference_sums(0.2, 3.5, 1_000)) == u
        assert reference_invert(u, 0.2, 3.5) == 472
        counts = sample_product(NuLambda(0.2, 7.0), Geometry(1, 3), [_Draws([u] * 3)])
        assert counts.tolist() == [[472] * 3]

    @pytest.mark.parametrize("law", [
        NuLambda(0.4, 2.0), NuLambda(0.999, 0.5),
        NuMixture(atoms=((0.2, 0.5), (0.6, 0.5)), m=2.0),
        NuMixture(atoms=((0.0, 0.3), (0.5, 0.3), (0.9, 0.4)), m=7.0)])
    def test_sample_product_equals_the_sequential_inversion(self, law):
        # the correlation study's mixture path: the same map and the same
        # next draw as one uniform per site walked in order
        assert_block_is_the_reference(law, Geometry(2, 4), 9, 100)

    def test_a_block_of_streams_equals_each_stream_alone(self):
        assert_block_is_the_reference(NuLambda(0.4, 2.0), Geometry(1, 10), 3, 40)

    @pytest.mark.parametrize("law", [
        NuLambda(0.0, 2.0), NuMixture(atoms=((0.0, 1.0),), m=2.0),
        NuMixture(atoms=((0.0, 0.5), (0.0, 0.5)), m=0.5)])
    def test_lam_zero_blocks_are_empty(self, law):
        counts = assert_block_is_the_reference(law, Geometry(2, 3), 2, 30)
        assert not counts.any()

    @pytest.mark.parametrize("law", [
        NuLambda(0.6, 3.0), NuMixture(atoms=((0.2, 0.5), (0.6, 0.5)), m=2.0)])
    def test_a_block_of_one_stream(self, law):
        assert_block_is_the_reference(law, Geometry(1, 5), 4, 1)

    @pytest.mark.parametrize("atoms", [
        ((0.2, 0.3), (0.5, 0.2), (0.9, 0.5)),
        ((0.2, 0.5), (0.5, 0.0), (0.7, 0.5)),  # a zero-weight atom, never picked
        ((0.0, 0.0), (0.3, 0.4), (0.6, 0.0), (0.8, 0.6), (0.1, 0.0))])
    def test_the_atoms_mix_within_one_block(self, atoms):
        law = NuMixture(atoms=atoms, m=2.0)
        assert_block_is_the_reference(law, Geometry(2, 3), 8, 200)
        picked = {reference_fugacity(law, RandomStream(8, (r,)).uniform()) for r in range(200)}
        assert picked == {lam for lam, w in atoms if w > 0}

    def test_a_fugacity_draw_at_or_past_every_running_weight_picks_the_last_atom(self):
        # seven weights 1/7 run up to 1 - 2^-52, below the largest uniform
        law = NuMixture(atoms=tuple((0.1 * j, 1 / 7) for j in range(7)), m=2.0)
        last = np.cumsum([1 / 7] * 7)[-1]
        assert last == 1.0 - 2.0**-52
        sites = [0.3, 0.7, 0.95]
        firsts = [last, np.nextafter(last, 1.0), np.nextafter(1.0, 0.0)]
        counts = sample_product(law, Geometry(1, 3), [_Draws([u] + sites) for u in firsts])
        last_lam = law.atoms[-1][0]
        assert [reference_fugacity(law, u) for u in firsts] == [last_lam] * 3
        assert counts.tolist() == [[reference_invert(u, last_lam, 1.0) for u in sites]] * 3


    def test_a_fugacity_draw_past_every_running_weight_skips_trailing_zero_weights(self):
        # the weights sum to 1 - 1e-13; a draw above that sum picks the last
        # atom that carries weight, never the zero-weight atom after it
        law = NuMixture(atoms=((0.2, 0.5), (0.6, 0.4999999999999), (0.9, 0.0)), m=2.0)
        u = 0.99999999999995
        assert u >= np.cumsum([w for _, w in law.atoms])[-1]
        sites = [0.999, 0.5, 0.999]
        counts = sample_product(law, Geometry(1, 3), [_Draws([u] + sites)])
        assert reference_fugacity(law, u) == 0.6
        assert counts.tolist() == [[reference_invert(v, 0.6, 1.0) for v in sites]]
        assert counts[0, 0] == 13 and reference_invert(0.999, 0.9, 1.0) == 65

def assert_block_is_the_reference(law, geometry, seed, size):
    """sample_product on a block of `size` streams equals
    `reference_sample_product` stream by stream, and leaves each stream where
    a fresh one stands after 1 + n_sites draws (a mixture) or n_sites (NuLambda)."""
    streams = [RandomStream(seed, (r,)) for r in range(size)]
    counts = sample_product(law, geometry, streams)
    assert counts.shape == (size, geometry.n_sites)
    drawn = geometry.n_sites + isinstance(law, NuMixture)
    for r, (row, stream) in enumerate(zip(counts.tolist(), streams)):
        alone = reference_sample_product(law, geometry, RandomStream(seed, (r,)))
        assert {site: k for site, k in zip(geometry.sites(), row) if k} == alone
        fresh = RandomStream(seed, (r,))
        fresh.advance(drawn)
        assert stream.uniform() == fresh.uniform()
    return counts


class TestDetailedBalance:
    def test_simple_case_is_one(self):
        assert detailed_balance_ratio(1, 0, 0.3, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_spec_point(self):
        assert detailed_balance_ratio(3, 2, 0.7, 1.5) == pytest.approx(1.0, abs=1e-12)

    def test_randomized_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            a = int(rng.integers(1, 21))
            b = int(rng.integers(0, 21))
            lam = float(rng.uniform(0.01, 0.95))
            m = float(rng.uniform(0.1, 8.0))
            assert abs(detailed_balance_ratio(a, b, lam, m) - 1.0) < 1e-12

    def test_precondition(self):
        with pytest.raises(ValueError):
            detailed_balance_ratio(0, 3, 0.4, 2.0)


class TestLaws:
    def test_rho_and_inverse(self):
        law = NuLambda(0.4, 2.0)
        assert law.rho == pytest.approx(2.0 / 3.0)
        assert law.rho / (1.0 + law.rho) == pytest.approx(0.4)

    def test_mixture_validation(self):
        with pytest.raises(ValueError):
            NuMixture(atoms=((0.2, 0.6), (0.6, 0.2)), m=2.0)  # weights not 1
        with pytest.raises(ValueError):
            NuMixture(atoms=((1.2, 1.0),), m=2.0)

    def test_nu_lambda_domain(self):
        with pytest.raises(ValueError):
            NuLambda(1.0, 2.0)
        with pytest.raises(ValueError):
            NuLambda(0.5, 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("make", [
        lambda x: PoissonProduct(x),
        lambda x: NuLambda(x, 2.0),
        lambda x: NuLambda(0.4, x),
        lambda x: NuMixture(atoms=((0.2, x), (0.6, 0.5)), m=2.0),
        lambda x: NuMixture(atoms=((0.2, 1.0),), m=x),
    ], ids=["poisson-theta", "nu-lambda-lam", "nu-lambda-m", "mixture-weight",
            "mixture-m"])
    def test_non_finite_parameters_rejected(self, make, bad):
        with pytest.raises(ValueError):
            make(bad)
