import math
import os
import threading
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sipsim.cli import DEFAULT_CONFIGS
from sipsim.core import Geometry, RandomStream
from sipsim.duality import DualityEvaluator
from sipsim.dynamics import ProcessKind, SipParams
from sipsim.experiments import (
    _ARM_CONVERGENCE,
    _CONVERGENCE_LAWS,
    _LOCKSTEP,
    STUDIES,
    ExperimentConfig,
    _each,
    _map_calls,
    _map_replicas,
    Report,
    band_row,
    info_row,
    run_convergence,
    run_correlation_inequality,
    run_coupling_success,
    run_factorization,
    run_oracle_check,
    run_or_distance,
    run_self_duality,
    run_stationarity,
    threshold_row,
)
from sipsim.measures import NuMixture, PoissonProduct
from sipsim.stats import InsufficientDataError, batched

from difference_chain import exact_transform
from reference_coupling import reference_or_distance_single, reference_two_stage
from reference_dynamics import reference_block, reference_sample_at_times, sample_tuples


class TestBatchStats:
    def test_constant_samples(self):
        est, se = batched([2.0] * 5)
        assert est == 2.0
        assert se == 0.0

    def test_two_singleton_groups(self):
        est, se = batched([1.0, 2.0])
        assert est == 1.5
        assert se == pytest.approx(0.5)  # half the absolute difference

    def test_uniform_mean(self):
        rng = np.random.default_rng(0)
        vals = rng.random(10_000)
        est, se = batched(vals)
        assert abs(est - 0.5) < 3 * se

    def test_needs_two_groups(self):
        for values in ([], [1.0]):
            with pytest.raises(InsufficientDataError):
                batched(values)

    def test_stderr_shrinks_with_groups(self):
        rng = np.random.default_rng(1)
        vals = rng.random(4096)
        _, se_batched = batched(vals)
        # 30 batches against one group per value: batching changes only the
        # df, not the scale
        se_single = float(np.std(vals, ddof=1)) / np.sqrt(len(vals))
        assert se_batched == pytest.approx(se_single, rel=0.5)


class TestRows:
    def test_band_row_pass_logic(self):
        row = band_row("x", 1.05, stderr=0.02, target=1.0)
        assert row.tolerance == pytest.approx(0.06)
        assert row.passed
        assert not band_row("x", 1.2, stderr=0.02, target=1.0).passed

    def test_band_row_floor(self):
        row = band_row("x", 1.0 + 5e-9, stderr=0.0, target=1.0, floor=1e-8)
        assert row.passed

    def test_threshold_row(self):
        assert threshold_row("x", 0.995, None, 0.99).passed
        assert not threshold_row("x", 0.985, None, 0.99).passed
        assert not threshold_row("x", 0.0, None, 0.0, strict=True).passed

    def test_info_row_always_passes(self):
        assert info_row("x", 123.0).passed


class TestReport:
    def test_csv_shape_and_determinism(self):
        rows = [band_row("a", 1.0, 0.0, 1.0), info_row("b", 2.5, 0.1)]
        rep1 = Report(study="demo", rows=rows, seed=3, wall_ms=10)
        rep2 = Report(study="demo", rows=rows, seed=3, wall_ms=99)
        assert rep1.csv_text() == rep2.csv_text()  # wall time kept out of CSV
        lines = rep1.csv_text().splitlines()
        assert lines[0] == "study,statistic,estimate,stderr,target,tolerance,pass"
        assert lines[1].endswith(",true")
        assert ",," in lines[2]  # info row leaves target/tolerance empty

    def test_json_summary_fields(self):
        rep = Report(study="demo", rows=[info_row("x", 1.0)], seed=3, wall_ms=10)
        js = rep.json_summary()
        assert set(js) == {"study", "seed", "version", "wall_ms", "pass"}
        assert js["pass"] is True

    def test_passed_aggregates(self):
        bad = band_row("a", 2.0, 0.0, 1.0)
        rep = Report(study="demo", rows=[bad], seed=0)
        assert not rep.passed


class TestConfigValidation:
    def test_unknown_study(self):
        with pytest.raises(ValueError):
            ExperimentConfig(study="nope")

    def test_torus_needs_side(self):
        with pytest.raises(ValueError):
            ExperimentConfig(study="stationarity", boundary="torus")

    def test_lambda_cap(self):
        with pytest.raises(ValueError):
            ExperimentConfig(study="stationarity", boundary="torus", L=5, lam=0.9995)

    def test_mc_studies_need_replicas(self):
        with pytest.raises(ValueError):
            ExperimentConfig(study="stationarity", boundary="torus", L=5, lam=0.4,
                             replicas=50)

    def test_grid_must_ascend(self):
        with pytest.raises(ValueError):
            ExperimentConfig(study="convergence", t_grid=(2.0, 1.0), xi=((0,),),
                             initial_law="poisson", theta=1.0, replicas=100)

    @pytest.mark.parametrize("field,value", [
        ("t_grid", (float("nan"),)),
        ("t_grid", (1.0, float("inf"))),
        ("m", float("nan")),
        ("m", float("inf")),
        ("theta", float("nan")),
        ("theta", float("inf")),
        ("schedule_t0", float("nan")),
        ("schedule_t0", float("inf")),
        ("mixture", ((0.2, float("nan")), (0.6, 0.5))),
        ("schedule_doublings", 2000),
    ])
    def test_non_finite_values_rejected(self, field, value):
        fields = dict(study="convergence", xi=((0,),), initial_law="poisson",
                      theta=1.0, replicas=100)
        fields[field] = value
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**fields)

    def test_overflowing_schedule_rejected(self):
        # 1e300 * 2^30 is infinite: the last iterated attempt never ended
        with pytest.raises(ValueError, match="schedule_doublings"):
            ExperimentConfig(study="coupling", x_start=((0,),), y_start=((1,),),
                             replicas=100, schedule_t0=1e300, schedule_doublings=30)

    def test_site_dimension_checked(self):
        with pytest.raises(ValueError):
            ExperimentConfig(study="convergence", d=2, xi=((0,),),
                             initial_law="poisson", theta=1.0, replicas=100)

    @pytest.mark.parametrize("study,sites", [
        ("coupling", dict(x_start=((0,),), y_start=((1,),))),
        ("or-distance", dict(x_start=((0,),))),
    ])
    def test_one_point_grid_rejected(self, study, sites):
        with pytest.raises(ValueError, match="t_grid"):
            ExperimentConfig(study=study, t_grid=(100.0,), replicas=100, **sites)

    def test_delta_domain(self):
        with pytest.raises(ValueError):
            ExperimentConfig(study="coupling", x_start=((0,),), y_start=((1,),),
                             delta=1.0, replicas=100)

    @pytest.mark.parametrize("study", list(STUDIES))
    def test_missing_required_field_rejected(self, study):
        assert STUDIES[study].required
        for name in STUDIES[study].required:
            fields = dict(DEFAULT_CONFIGS[study], **{name: None})
            with pytest.raises(ValueError, match=f"requires the '{name}' field"):
                ExperimentConfig(study=study, **fields)

    @pytest.mark.parametrize("study", list(STUDIES))
    def test_torus_only_studies_reject_the_infinite_lattice(self, study):
        fields = dict(DEFAULT_CONFIGS[study], boundary="infinite", L=None)
        if STUDIES[study].torus:
            with pytest.raises(ValueError, match="runs on a torus"):
                ExperimentConfig(study=study, **fields)
        else:
            assert not ExperimentConfig(study=study, **fields).geometry.is_torus


def _models_accept(d, L, m, theta, mixture):
    try:
        SipParams(m, Geometry(d, L))
        PoissonProduct(theta)
        if mixture is not None:
            NuMixture(mixture, m)
    except ValueError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.integers(-1, 3), st.one_of(st.none(), st.integers(0, 6)), st.floats(), st.floats(),
       st.one_of(st.none(), st.lists(st.tuples(st.floats(-0.5, 0.999),
                                               st.sampled_from([0.25, 0.5, 1.0, -0.5, math.nan])),
                                     min_size=1, max_size=3).map(tuple)))
def test_config_accepts_what_its_models_accept(d, L, m, theta, mixture):
    # below the config's own cap on lambda, the models alone decide
    fields = dict(d=d, boundary="infinite" if L is None else "torus", L=L, m=m, theta=theta,
                  mixture=mixture, xi=((0,) * d,), initial_law="poisson", replicas=100)
    try:
        ExperimentConfig(study="convergence", **fields)
    except ValueError:
        assert not _models_accept(d, L, m, theta, mixture)
    else:
        assert _models_accept(d, L, m, theta, mixture)


@pytest.fixture
def started_threads(monkeypatch):
    """The threads started while the test runs."""
    started = []
    start = threading.Thread.start

    def counted(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


class TestMapCalls:
    def test_results_in_call_order_on_at_most_one_thread_per_call(self, started_threads):
        calls = [partial(pow, 3, k) for k in range(7)]
        for workers in (2, 3, 64):
            started_threads.clear()
            assert _map_calls(calls, workers) == [3**k for k in range(7)]
            assert 1 <= len(started_threads) <= min(workers, len(calls))

    def test_no_thread_at_one_worker_or_one_call(self, started_threads):
        assert _map_calls([partial(pow, 2, 5)] * 3, 1) == [32] * 3
        assert _map_calls([partial(pow, 2, 5)], 64) == [32]
        assert _map_calls([], 64) == []
        assert started_threads == []

    def test_first_failing_call_is_raised_after_every_thread_ends(self, started_threads):
        def fail(message):
            raise ValueError(message)

        calls = [partial(fail, "first"), partial(pow, 2, 1), partial(fail, "second")]
        with pytest.raises(ValueError, match="first"):
            _map_calls(calls, 3)
        assert started_threads and not any(t.is_alive() for t in started_threads)


@pytest.fixture
def inline_pool(monkeypatch):
    """Run `_map_replicas`'s pool tasks in this process, in task order; the
    list records the size of each pool asked for."""
    import sipsim.experiments as experiments

    sizes = []

    class InlinePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, tasks):
            return [fn(*task) for task in tasks]

    monkeypatch.setattr(experiments, "mp",
                        SimpleNamespace(get_context=lambda method: SimpleNamespace(
                            Pool=InlinePool)))
    return sizes


def kernel_block(streams):
    """A block function on the lockstep kernel: three stacked and adjacent
    particles on Z, the coordinate sum at t = 0.5 and t = 2."""
    paths = sample_tuples([((0,), (1,), (1,))] * len(streams), SipParams(2.0, Geometry(1)),
                          [0.5, 2.0], streams)
    return [[sum(x for (x,) in state) for state in path] for path in paths]


def kernel_rows_alone(seed, arm, n):
    """kernel_block's rows with every replica run alone on the reference."""
    return np.array([[sum(x for (x,) in state) for state in reference_sample_at_times(
        ((0,), (1,), (1,)), ProcessKind.SIP, SipParams(2.0, Geometry(1)), [0.5, 2.0],
        RandomStream(seed, (arm, r)))] for r in range(n)], dtype=float)


class TestMapReplicas:
    def test_pool_never_outnumbers_its_chunks(self, inline_pool, monkeypatch):
        # 100 replicas make at most 100 chunks, so 200 workers must not fork
        # 100 processes that never get one; the pool runs inline here, on a
        # host that lets this process run on 256 CPUs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(256)),
                            raising=False)
        sizes = inline_pool
        cfg = ExperimentConfig(study="stationarity", boundary="torus", L=5, lam=0.4, seed=3)

        def block(streams):
            return [[stream.uniform()] for stream in streams]

        serial = _map_replicas(block, 0, cfg, 100, 1)
        assert sizes == []
        for workers, processes in ((2, 2), (200, 100)):
            assert np.array_equal(_map_replicas(block, 0, cfg, 100, workers), serial)
            assert sizes.pop() == processes

    @pytest.mark.parametrize("affinity, cpu_count, processes",
                             [({0, 5}, 64, 2), (None, 3, 3), (None, None, 1)])
    def test_pool_never_outnumbers_the_usable_cpus(self, inline_pool, monkeypatch,
                                                   affinity, cpu_count, processes):
        # --workers 64 used to fork 64 processes however few CPUs the host
        # has; the chunks, and so the rows, still follow the requested count
        sizes = inline_pool
        cfg = ExperimentConfig(study="stationarity", boundary="torus", L=5, lam=0.4, seed=3)
        chunks = []

        def block(streams):
            chunks.append(len(streams))
            return [[stream.uniform()] for stream in streams]

        serial = _map_replicas(block, 0, cfg, 300, 1)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        chunks.clear()
        assert np.array_equal(_map_replicas(block, 0, cfg, 300, 64), serial)
        assert sizes == [processes]
        assert len(chunks) == 256  # 4 * 64 chunks of one or two replicas

    def test_rows_are_equal_at_every_worker_count(self):
        cfg = ExperimentConfig(study="stationarity", boundary="torus", L=5, lam=0.4, seed=3)
        rows = [_map_replicas(kernel_block, 2, cfg, 150, workers) for workers in (1, 2, 3)]
        assert np.array_equal(rows[0], kernel_rows_alone(3, 2, 150))
        assert all(np.array_equal(r, rows[0]) for r in rows[1:])

    @pytest.mark.parametrize("n", [_LOCKSTEP - 1, _LOCKSTEP, _LOCKSTEP + 1])
    def test_rows_straddling_one_block_equal_replicas_run_alone(self, n):
        cfg = ExperimentConfig(study="stationarity", boundary="torus", L=5, lam=0.4, seed=4)
        assert np.array_equal(_map_replicas(kernel_block, 5, cfg, n, 1),
                              kernel_rows_alone(4, 5, n))

    def test_each_drops_every_stream_it_has_used(self):
        # a per-replica arm may buffer 8,192 draws per stream; the block's
        # list must not keep them all alive
        streams = [RandomStream(0, (r,)) for r in range(5)]
        seen = []

        def replica(stream):
            seen.append(streams.count(None))
            return stream.uniform()

        assert _each(replica)(streams) == [RandomStream(0, (r,)).uniform() for r in range(5)]
        assert seen == [1, 2, 3, 4, 5]
        assert streams == [None] * 5

    @pytest.mark.parametrize("n, workers", [(1, 1), (_LOCKSTEP + 1, 1), (64, 1),
                                            (2 * _LOCKSTEP, 1), (3 * _LOCKSTEP + 5, 3),
                                            (7, 64)])
    def test_block_functions_see_each_stream_once_in_replica_order(self, inline_pool, n,
                                                                   workers):
        cfg = ExperimentConfig(study="stationarity", boundary="torus", L=5, lam=0.4, seed=5)
        seen = []

        def block(streams):
            seen.append([stream.path for stream in streams])
            return [[float(r)] for r in range(len(streams))]

        _map_replicas(block, 7, cfg, n, workers)
        assert [path for paths in seen for path in paths] == [(7, r) for r in range(n)]
        assert max(map(len, seen)) <= _LOCKSTEP


def small_self_duality_cfg(**kw):
    base = dict(study="self-duality", boundary="torus", L=4, m=2.0,
                xi=((0,), (2,)), eta=((0,), (1,)), t_grid=(0.5,), replicas=400, seed=5)
    base.update(kw)
    return ExperimentConfig(**base)


class TestStudies:
    def test_self_duality_exact_rows_pass(self):
        rep = run_self_duality(small_self_duality_cfg())
        exact = [r for r in rep.rows if r.statistic.startswith("exact_gap")]
        assert exact and all(r.passed for r in exact)
        assert all(r.estimate <= 1e-8 for r in exact)

    def test_self_duality_mc_gap_within_band(self):
        rep = run_self_duality(small_self_duality_cfg(replicas=4000))
        mc = [r for r in rep.rows if r.statistic.startswith("mc_gap")]
        assert mc and all(r.passed for r in mc)

    def test_stationarity_lambda_zero_is_exact(self):
        cfg = ExperimentConfig(study="stationarity", boundary="torus", L=5, m=2.0,
                               lam=0.0, xi_sizes=(1, 2), t_grid=(0.5,), replicas=200,
                               seed=6)
        rep = run_stationarity(cfg)
        assert rep.passed
        direct = [r for r in rep.rows if r.statistic.startswith("direct")]
        assert all(r.estimate == 0.0 and r.target == 0.0 for r in direct)

    def test_stationarity_small_run_passes(self):
        cfg = ExperimentConfig(study="stationarity", boundary="torus", L=6, m=2.0,
                               lam=0.4, xi_sizes=(1,), t_grid=(0.5,), replicas=4000,
                               seed=7)
        rep = run_stationarity(cfg)
        assert rep.passed
        row = next(r for r in rep.rows if r.statistic.startswith("direct"))
        assert row.target == pytest.approx(2.0 / 3.0)

    def test_stationarity_simulates_the_direct_arm_alone(self, monkeypatch):
        # the dual rows are exact: one stream and one sample_at_times
        # trajectory per replica, both of the direct arm
        import sipsim.experiments as experiments

        calls, streams = [], []
        sample, init = experiments.sample_at_times, RandomStream.__init__

        def counted_sample(*args):
            calls.append(args)
            return sample(*args)

        def counted_stream(self, *args):
            # every stream, from a path or from a chunk's batch of words,
            # runs __init__, which is what the benchmark tracer counts
            streams.append(args)
            init(self, *args)

        monkeypatch.setattr(experiments, "sample_at_times", counted_sample)
        monkeypatch.setattr(RandomStream, "__init__", counted_stream)
        cfg = ExperimentConfig(study="stationarity", boundary="torus", L=5, m=2.0,
                               lam=0.4, xi_sizes=(1, 2, 3), t_grid=(0.5, 1.0),
                               replicas=120, seed=8)
        rep = run_stationarity(cfg, workers=1)
        assert sum(len(starts) for starts, *_ in calls) == cfg.replicas
        assert len(streams) == cfg.replicas
        dual = [r for r in rep.rows if r.statistic.startswith("dual_transform")]
        assert len(dual) == 6 and all(r.passed for r in dual)

    @pytest.mark.parametrize("law, field", [("nu_lambda", {"lam": 0.4}),
                                            ("mixture", {"mixture": ((0.2, 0.5), (0.6, 0.5))})])
    def test_placement_free_convergence_simulates_nothing(self, monkeypatch, law, field):
        # nu_lambda and mixture transforms depend on |xi| alone, which the
        # dynamics conserve: the rows are the ones the simulated dual paths
        # gave, with no sample_at_times call
        import sipsim.experiments as experiments

        def unexpected(*args):
            raise AssertionError("sample_at_times was called")

        monkeypatch.setattr(experiments, "sample_at_times", unexpected)
        cfg = ExperimentConfig(study="convergence", initial_law=law, xi=((0,), (1,), (1,)),
                               t_grid=(0.5, 2.0), replicas=100, seed=9, **field)
        rows = run_convergence(cfg).rows
        closed = _CONVERGENCE_LAWS[law][1](cfg)
        evaluator = DualityEvaluator(cfg.m)
        simulated = np.array([[evaluator.closed_transform(closed, s)
                               for s in reference_sample_at_times(
                                   cfg.xi, ProcessKind.SIP, cfg.sip_params, cfg.t_grid,
                                   RandomStream(cfg.seed, (_ARM_CONVERGENCE, r)))]
                              for r in range(cfg.replicas)])
        for j, t in enumerate(cfg.t_grid):
            row = next(r for r in rows if r.statistic == f"transform[t={t:g}]")
            assert (row.estimate, row.stderr) == batched(simulated[:, j])

    def test_dense_stationarity_rows_match_full_recompute(self, monkeypatch):
        # about 64 particles per direct replica: every event of the
        # incremental kernel must replay the full-recompute chain, so the
        # report rows are equal to the last bit
        import sipsim.experiments as experiments

        cfg = ExperimentConfig(study="stationarity", d=2, boundary="torus", L=8,
                               lam=0.5, t_grid=(0.25, 1.0), replicas=100, seed=19)
        fast = run_stationarity(cfg, workers=1)
        monkeypatch.setattr(experiments, "sample_at_times", reference_block)
        slow = run_stationarity(cfg, workers=1)
        assert fast.rows == slow.rows

    def test_coupling_rows_match_reference_loops(self, monkeypatch):
        # two clustered pairs on Z: stage one sees inclusion events and
        # collisions, stage two both aborts and meetings; every attempt of
        # both arms must replay the reference loops event for event
        import sipsim.coupling as coupling
        import sipsim.experiments as experiments

        cfg = ExperimentConfig(study="coupling", x_start=((0,), (2,)),
                               y_start=((3,), (7,)), t_grid=(5.0, 50.0), replicas=100,
                               iterated_replicas=100, delta=0.6, schedule_t0=5.0,
                               schedule_doublings=3, seed=21)
        fast = run_coupling_success(cfg, workers=1)
        monkeypatch.setattr(experiments, "two_stage_coupling", reference_two_stage)
        monkeypatch.setattr(coupling, "two_stage_coupling", reference_two_stage)
        slow = run_coupling_success(cfg, workers=1)
        assert fast.rows == slow.rows

    def test_or_distance_rows_match_reference_loop(self, monkeypatch):
        # three particles on a 2D torus, so the distance wraps
        import sipsim.experiments as experiments

        cfg = ExperimentConfig(study="or-distance", d=2, boundary="torus", L=4,
                               x_start=((0, 0), (0, 1), (1, 1)), t_grid=(1.0, 10.0, 50.0),
                               replicas=100, seed=22)
        fast = run_or_distance(cfg, workers=1)
        monkeypatch.setattr(experiments, "or_distance_single", reference_or_distance_single)
        slow = run_or_distance(cfg, workers=1)
        assert fast.rows == slow.rows

    def test_convergence_matches_exact_transient_value(self):
        # independent oracle: the folded two-particle difference chain gives
        # the exact E D-transform at t=1; the dual Monte Carlo must agree at
        # 3 sigma
        cfg = ExperimentConfig(study="convergence", m=2.0, initial_law="poisson",
                               theta=1.0, xi=((0,), (1,)), t_grid=(1.0,),
                               replicas=4000, seed=8)
        rep = run_convergence(cfg)
        row = next(r for r in rep.rows if r.statistic == "transform[t=1]")
        exact = exact_transform(PoissonProduct(theta=1.0), 2.0, cfg.xi, 1.0)
        assert abs(row.estimate - exact) <= 3 * row.stderr

    def test_convergence_stationary_start_passes_everywhere(self):
        cfg = ExperimentConfig(study="convergence", m=2.0, initial_law="nu_lambda",
                               lam=0.5, xi=((0,), (1,)), t_grid=(0.5, 1.0),
                               replicas=400, seed=9)
        rep = run_convergence(cfg)
        assert rep.passed
        final = next(r for r in rep.rows if r.statistic == "transform[t=1]")
        assert final.target == pytest.approx(1.0)

    def test_convergence_reports_temperedness_bound_last(self):
        # the theorem's hypothesis at |xi| = 2: for Poisson(theta) at m the
        # sup of the transform is (2 theta / m)^n, attained on distinct sites
        cfg = ExperimentConfig(study="convergence", m=2.0, initial_law="poisson",
                               theta=1.5, xi=((0,), (1,)), t_grid=(0.5, 1.0),
                               replicas=100, seed=9)
        rep = run_convergence(cfg)
        assert [r.statistic for r in rep.rows] == [
            "ah_density", "transform[t=0.5]", "transform[t=1]",
            "temperedness_bound[n=2]"]
        last = rep.rows[-1]
        assert last.estimate == pytest.approx(1.5**2)
        assert last.passed and last.target is None

    def test_convergence_mixture_has_invariant_target(self):
        cfg = ExperimentConfig(study="convergence", m=2.0, initial_law="mixture",
                               mixture=((0.2, 0.5), (0.6, 0.5)), xi=((0,), (1,)),
                               t_grid=(0.5,), replicas=400, seed=10)
        rep = run_convergence(cfg)
        final = next(r for r in rep.rows if r.statistic.startswith("transform"))
        assert final.target == pytest.approx((0.25**2 + 1.5**2) / 2)
        assert final.passed

    def test_convergence_requires_known_law(self):
        with pytest.raises(ValueError):
            ExperimentConfig(study="convergence", xi=((0,),), replicas=100)

    def test_correlation_closed_forms(self):
        cfg = ExperimentConfig(study="correlation", boundary="torus", L=8, m=2.0,
                               mixture=((0.2, 0.5), (0.6, 0.5)), n=2,
                               replicas=4000, seed=11)
        rep = run_correlation_inequality(cfg)
        by_name = {r.statistic: r for r in rep.rows}
        assert by_name["closed_lhs"].estimate == pytest.approx(1.15625)
        assert by_name["closed_rhs"].estimate == pytest.approx(0.765625)
        assert by_name["jensen_gap"].passed
        assert by_name["sampled_lhs"].passed
        assert by_name["sampled_rhs"].passed

    def test_correlation_point_mixture_is_equality(self):
        cfg = ExperimentConfig(study="correlation", boundary="torus", L=8, m=2.0,
                               mixture=((0.4, 1.0),), n=2, replicas=400, seed=12)
        rep = run_correlation_inequality(cfg)
        gap = next(r for r in rep.rows if r.statistic == "jensen_gap")
        assert gap.passed
        assert gap.estimate == pytest.approx(0.0, abs=1e-12)

    def test_correlation_n_one_is_equality(self):
        cfg = ExperimentConfig(study="correlation", boundary="torus", L=8, m=2.0,
                               mixture=((0.2, 0.5), (0.6, 0.5)), n=1,
                               replicas=400, seed=13)
        rep = run_correlation_inequality(cfg)
        gap = next(r for r in rep.rows if r.statistic == "jensen_gap")
        assert gap.passed

    def test_factorization_static_and_dynamic(self):
        cfg = ExperimentConfig(study="factorization", boundary="torus", L=5, m=2.0,
                               lam=0.4, eta=((0,), (1,), (3,)),
                               t_grid=(5.0, 10.0, 20.0), seed=14)
        rep = run_factorization(cfg)
        by_name = {r.statistic: r for r in rep.rows}
        assert by_name["position_spread[n=2]"].estimate <= 1e-10
        assert by_name["factorization_gap"].estimate <= 1e-10
        assert by_name["transform_value[n=2]"].estimate == pytest.approx((2.0 / 3.0) ** 2)
        assert by_name["cesaro_spread_shrinks"].passed
        assert rep.passed

    def test_oracle_check_passes(self):
        cfg = ExperimentConfig(study="oracle-check", boundary="torus", L=5, m=2.0,
                               xi=((0,), (2,)), eta=((0,), (1,), (3,)),
                               t_grid=(0.5, 1.0, 2.0), seed=15)
        rep = run_oracle_check(cfg)
        assert rep.passed
        gaps = [r for r in rep.rows if r.statistic.startswith("exact_gap")]
        assert len(gaps) == 3 and all(r.tolerance == 1e-8 for r in gaps)

    def test_oracle_check_threads_never_outnumber_its_sweeps(self, started_threads):
        # two sectors and the dual expectation: three calls, so at most
        # three threads however many workers
        cfg = ExperimentConfig(study="oracle-check", boundary="torus", L=5, m=2.0,
                               xi=((0,), (2,)), eta=((0,), (1,), (3,)),
                               t_grid=(0.5, 1.0, 2.0), seed=15)
        serial = run_oracle_check(cfg, workers=1).csv_text()
        assert started_threads == []
        assert run_oracle_check(cfg, workers=64).csv_text() == serial
        assert 1 <= len(started_threads) <= 3

    def test_worker_count_does_not_change_results(self):
        cfg = ExperimentConfig(study="correlation", boundary="torus", L=8, m=2.0,
                               mixture=((0.2, 0.5), (0.6, 0.5)), n=2,
                               replicas=2000, seed=16)
        a = run_correlation_inequality(cfg, workers=1)
        b = run_correlation_inequality(cfg, workers=4)
        assert a.csv_text() == b.csv_text()
