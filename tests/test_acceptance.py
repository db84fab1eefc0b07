"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s`. Every test pins the
tolerances stated for it; nothing is deferred to later calibration. The
convergence criterion (7) is checked at the final horizon t=400: the paper's
convergence is a t -> infinity statement without a rate, and the exact
transient of the dual estimate (tests/difference_chain.py) is still 0.028
below the limit at t=100, outside the 0.02 band, but 0.014 below it at t=400.
The test asserts that margin in code and checks the estimate against the
exact transient at every grid time.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from sipsim.cli import build_invocation, parse_config, run
from sipsim.core import Geometry, RandomStream, occupation_of
from sipsim.dynamics import SipParams
from sipsim.experiments import (
    ExperimentConfig,
    run_convergence,
    run_coupling_success,
    run_correlation_inequality,
    run_factorization,
    run_or_distance,
    run_stationarity,
)
from sipsim.measures import PoissonProduct
from sipsim.oracle import build_generator, exact_dual_expectation, state_space

from difference_chain import exact_transform, transient_distribution
from reference_dynamics import sample_tuples
from reversibility import detailed_balance_ratio

SEED = 11


def verdict(num, ok, detail):
    print(f"\ncriterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_exact_self_duality():
    t0 = time.monotonic()
    params = SipParams(m=2.0, geometry=Geometry(1, 5))
    xi = ((0,), (2,))
    eta = occupation_of(((0,), (1,), (3,)))
    assert state_space(2, params.geometry).size == 15
    assert state_space(3, params.geometry).size == 35
    gaps = []
    for t in (0.5, 1.0, 2.0):
        [(left, right)] = exact_dual_expectation(xi, eta, (t,), params)
        gaps.append(abs(left - right))
    elapsed = time.monotonic() - t0
    ok = max(gaps) <= 1e-8 and elapsed < 5.0
    assert verdict(1, ok, f"max gap {max(gaps):.2e} over 15/35-state sectors, {elapsed:.2f}s")


def test_criterion_02_reversibility_grid():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(500):
        a = int(rng.integers(1, 21))
        b = int(rng.integers(0, 21))
        lam = float(rng.uniform(0.01, 0.95))
        m = float(rng.uniform(0.1, 8.0))
        worst = max(worst, abs(detailed_balance_ratio(a, b, lam, m) - 1.0))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    assert verdict(2, ok, f"max |ratio-1| {worst:.2e} on 500-point grid, {elapsed:.2f}s")


def test_criterion_03_stationary_moments():
    t0 = time.monotonic()
    cfg = ExperimentConfig(study="stationarity", boundary="torus", L=10, m=2.0,
                           lam=0.4, xi_sizes=(1, 2, 3), t_grid=(1.0,),
                           replicas=100_000, seed=SEED)
    rep = run_stationarity(cfg, workers=2)
    elapsed = time.monotonic() - t0
    direct = [r for r in rep.rows if r.statistic.startswith("direct_moment")]
    targets = [r.target for r in direct]
    ok = (all(r.passed for r in rep.rows) and elapsed < 120.0
          and targets == pytest.approx([2 / 3, 4 / 9, 8 / 27]))
    detail = ", ".join(f"n={n}: {r.estimate:.4f}/{r.target:.4f}"
                       for n, r in zip((1, 2, 3), direct))
    assert verdict(3, ok, f"{detail}, {elapsed:.0f}s")


def test_criterion_04_simulation_oracle_agreement():
    t0 = time.monotonic()
    params = SipParams(m=2.0, geometry=Geometry(1, 5))
    space = state_space(2, params.geometry)
    q = build_generator(2, params)
    start = ((0,), (2,))
    t = 1.0
    target = transient_distribution(q, t, space.index_of_particles(start))
    reps = 100_000
    counts = np.zeros(space.size)
    for lo in range(0, reps, 32):  # lockstep blocks, as the studies run them
        block = range(lo, min(lo + 32, reps))
        for [state] in sample_tuples([start] * len(block), params, [t],
                                     [RandomStream(SEED, (r,)) for r in block]):
            counts[space.index_of_particles(state)] += 1
    freq = counts / reps
    worst_sigma = 0.0
    for p_hat, p in zip(freq, target):
        se = math.sqrt(p * (1 - p) / reps)
        worst_sigma = max(worst_sigma, abs(p_hat - p) / se)
    elapsed = time.monotonic() - t0
    ok = worst_sigma <= 3.0 and elapsed < 120.0
    assert verdict(4, ok, f"all 15 state probabilities within 3 sigma "
                          f"(worst {worst_sigma:.2f}), {elapsed:.0f}s")


def test_criterion_05_coupling_success():
    t0 = time.monotonic()
    cfg = replace(parse_config("", "coupling"), seed=SEED)
    assert cfg.x_start == ((0,), (10,)) and cfg.y_start == ((3,), (17,))
    assert cfg.t_grid == (100.0, 1000.0, 10000.0) and cfg.replicas == 500
    rep = run_coupling_success(cfg, workers=2)
    elapsed = time.monotonic() - t0
    rows = {r.statistic: r for r in rep.rows}
    curve = [rows[f"success[t={t:g}]"].estimate for t in cfg.t_grid]
    ok = (rows["trend_separation"].passed
          and all(b >= a for a, b in zip(curve, curve[1:]))
          and rows["iterated_success"].passed
          and rows["iterated_success"].estimate >= 0.99
          and elapsed < 600.0)
    assert verdict(5, ok, f"success curve {curve[0]:.3f}->{curve[1]:.3f}->{curve[2]:.3f}, "
                          f"iterated {rows['iterated_success'].estimate:.4f}, {elapsed:.0f}s")


def test_criterion_06_or_distance_decay():
    t0 = time.monotonic()
    cfg = replace(parse_config("", "or-distance"), seed=SEED)
    assert cfg.replicas == 1000 and cfg.t_grid == (100.0, 1000.0, 10000.0)
    rep = run_or_distance(cfg, workers=2)
    elapsed = time.monotonic() - t0
    rows = {r.statistic: r for r in rep.rows}
    norm = [rows[f"normalized_distance[t={t:g}]"].estimate for t in cfg.t_grid]
    ok = (rows["strict_decrease_margin"].passed
          and rows["endpoint_separation"].passed and elapsed < 600.0)
    assert verdict(6, ok, f"normalized distance {norm[0]:.3f}->{norm[1]:.3f}->{norm[2]:.3f}, "
                          f"{elapsed:.0f}s")


def test_criterion_07_convergence_poisson():
    t0 = time.monotonic()
    cfg = replace(parse_config("", "convergence"), seed=SEED)
    assert cfg.initial_law == "poisson" and cfg.theta == 1.0 and cfg.m == 2.0
    assert cfg.xi == ((0,), (1,)) and cfg.replicas == 10_000
    assert cfg.t_grid == (1.0, 10.0, 100.0, 400.0)
    rep = run_convergence(cfg, workers=2)
    elapsed = time.monotonic() - t0
    rows = [next(r for r in rep.rows if r.statistic == f"transform[t={t:g}]")
            for t in cfg.t_grid]
    final = rows[-1]
    # the limit is a t -> infinity statement; the exact transient of the
    # folded difference chain says how close the final horizon must be
    law = PoissonProduct(theta=cfg.theta)
    exact = [exact_transform(law, cfg.m, cfg.xi, t) for t in cfg.t_grid]
    gaps = [abs(e - final.target) for e in exact]
    ok = (final.passed and final.target == pytest.approx(1.0)
          and final.tolerance == pytest.approx(0.02 * final.target)
          and gaps[-1] + 5 * final.stderr <= final.tolerance
          and all(b < a for a, b in zip(gaps, gaps[1:]))
          and all(abs(r.estimate - e) <= 3 * r.stderr for r, e in zip(rows, exact))
          and elapsed < 300.0)
    worst = max(abs(r.estimate - e) / r.stderr for r, e in zip(rows, exact))
    assert verdict(7, ok, f"final estimate {final.estimate:.4f} vs target 1.0 "
                          f"within {final.tolerance:.4f} (exact transient "
                          f"{exact[-1]:.4f}); all {len(rows)} horizons within "
                          f"3 sigma of exact (worst {worst:.2f}), {elapsed:.0f}s")


def test_criterion_08_correlation_inequality():
    t0 = time.monotonic()
    cfg = replace(parse_config("", "correlation"), seed=SEED)
    rep = run_correlation_inequality(cfg, workers=2)
    elapsed = time.monotonic() - t0
    rows = {r.statistic: r for r in rep.rows}
    ok = (rows["closed_lhs"].estimate == pytest.approx(1.15625)
          and rows["closed_rhs"].estimate == pytest.approx(0.765625)
          and rows["jensen_gap"].passed
          and rows["sampled_lhs"].passed and rows["sampled_rhs"].passed
          and elapsed < 60.0)
    assert verdict(8, ok, f"lhs {rows['closed_lhs'].estimate:.6f} > "
                          f"rhs {rows['closed_rhs'].estimate:.6f}, sampled within 3 sigma, "
                          f"{elapsed:.1f}s")


def test_criterion_09_factorization():
    from sipsim.duality import DualityEvaluator
    from sipsim.experiments import _nu_transform_series

    # static arm timed on its own: the 1 s budget covers exactly the spread
    # and factorization identities
    t0 = time.monotonic()
    geo = Geometry(1, 5)
    evaluator = DualityEvaluator(2.0)
    sites = list(geo.sites())
    values = []
    for a in range(len(sites)):
        for b in range(a, len(sites)):
            counts = occupation_of((sites[a], sites[b]))
            values.append(_nu_transform_series(counts, 0.4, 2.0, evaluator))
    spread = max(values) - min(values)
    hat = {
        n: _nu_transform_series({(j,): 1 for j in range(n)}, 0.4, 2.0, evaluator)
        for n in (1, 2, 3)
    }
    gap = abs(hat[3] - hat[1] * hat[2])
    elapsed_static = time.monotonic() - t0
    rep = run_factorization(replace(parse_config("", "factorization"), seed=SEED))
    rows = {r.statistic: r for r in rep.rows}
    ok = (spread <= 1e-10 and gap <= 1e-10 and elapsed_static < 1.0
          and rows["position_spread[n=2]"].passed
          and rows["factorization_gap"].passed
          and rows["cesaro_spread_shrinks"].passed)
    assert verdict(9, ok, f"placement spread {spread:.1e}, factorization gap {gap:.1e}, "
                          f"{elapsed_static:.3f}s static arm")


def test_criterion_10_worker_determinism(tmp_path):
    t0 = time.monotonic()
    text = ("boundary = torus\nL = 8\nm = 2.0\nmixture = 0.2:0.5 0.6:0.5\n"
            "n = 2\nreplicas = 2000\nseed = 7\n")
    cfg_path = tmp_path / "corr.cfg"
    cfg_path.write_text(text)
    or_text = "x_start = 0 1\nt_grid = 5 10\nreplicas = 200\nseed = 7\n"
    or_path = tmp_path / "or.cfg"
    or_path.write_text(or_text)
    outputs = {}
    for study, path in (("correlation", cfg_path), ("or-distance", or_path)):
        for workers in (1, 8):
            out = tmp_path / f"{study}-{workers}"
            inv = build_invocation([study, "--config", str(path), "--out", str(out),
                                    "--workers", str(workers)])
            # the tiny or-distance grid fails its decay contract (exit 2);
            # reports are written either way and the bytes are what matters
            assert run(inv) in (0, 2)
            outputs[(study, workers)] = (out / f"{study}.csv").read_bytes()
    elapsed = time.monotonic() - t0
    ok = all(outputs[(s, 1)] == outputs[(s, 8)] for s in ("correlation", "or-distance"))
    assert verdict(10, ok, f"CSV bytes identical at workers 1 and 8 "
                           f"for two studies, {elapsed:.0f}s")
