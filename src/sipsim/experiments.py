"""Reproducible verification studies with statistical pass/fail contracts.

Every study is a pure function of (config, seed). A Monte Carlo arm is one
call of `_map_replicas` with a block function, which turns a list of at
most `_LOCKSTEP` streams into one row per stream: row r of arm a depends on
the stream (seed, (a, r)) alone, blocks are handed out in replica order,
rows come back in replica order, and all reductions are order-independent,
so reports are identical for any worker count. The dynamics arms run a
whole block through one lockstep `sample_at_times` call on site ids, the
correlation arm through one `sample_product` call, and `DualityEvaluator`
reads D off the arrays; the coupling arms apply a per-replica function to
each stream (`_each`). Report rows come in three kinds:

* band rows: pass iff |estimate - target| <= max(3*stderr, floor);
* threshold rows: one-sided, pass iff estimate >= target (or > for strict
  contracts such as Jensen gaps and CI separations);
* info rows: diagnostics with no contract (empty target/tolerance in CSV).
"""

from __future__ import annotations

import csv
import io
import math
import multiprocessing as mp
import os
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from . import __version__
from .core import Geometry, RandomStream, check_grid, occupation_of, stream_words
from .coupling import (
    OutcomeKind,
    doubling_schedule,
    iterated_coupling,
    or_distance_single,
    two_stage_coupling,
)
from .duality import DualityEvaluator, ah_density
from .dynamics import SipParams, sample_at_times, site_ids
from .measures import NuLambda, NuMixture, PoissonProduct, marginal_pmf, sample_product
from .stats import batched


class Study(NamedTuple):
    """What a study needs from its config; `ExperimentConfig` enforces it."""

    required: tuple  # fields that must be set
    optional: tuple = ()  # further fields a config may set; the runner reads each
    torus: bool = False  # runs on a torus only
    exact: bool = False  # builds exact rows with `oracle` (and so imports scipy)


STUDIES = {
    "self-duality": Study(("xi", "eta"), ("replicas", "t_grid"), torus=True, exact=True),
    "stationarity": Study(("lam",), ("xi_sizes", "replicas", "t_grid"), torus=True),
    "coupling": Study(("x_start", "y_start"),
                      ("delta", "schedule_t0", "schedule_doublings", "iterated_replicas",
                       "replicas", "t_grid")),
    "or-distance": Study(("x_start",), ("replicas", "t_grid")),
    "convergence": Study(("xi", "initial_law"), ("theta", "lam", "mixture", "replicas", "t_grid")),
    "correlation": Study(("mixture",), ("n", "replicas"), torus=True),
    "factorization": Study(("lam", "eta"), ("t_grid",), torus=True, exact=True),
    "oracle-check": Study(("xi", "eta"), ("t_grid",), torus=True, exact=True),
}

# convergence initial_law -> (the field that parametrizes it, the law)
_CONVERGENCE_LAWS = {
    "nu_lambda": ("lam", lambda cfg: NuLambda(lam=cfg.lam, m=cfg.m)),
    "poisson": ("theta", lambda cfg: PoissonProduct(theta=cfg.theta)),
    "mixture": ("mixture", lambda cfg: NuMixture(atoms=cfg.mixture, m=cfg.m)),
}

# stream arm ids; replica r of arm a draws from RandomStream(seed, (a, r)).
# Arm 2, the simulated stationarity dual arm, is retired; the direct arm
# keeps 3 because tests/golden/ pins its draws.
_ARM_SD_LHS = 0
_ARM_SD_RHS = 1
_ARM_STAT_DIRECT = 3
_ARM_COUPLING_BASE = 10  # + horizon index
_ARM_ITERATED = 50
_ARM_OR_DISTANCE = 20
_ARM_CONVERGENCE = 30
_ARM_CORRELATION = 40


class FieldError(ValueError):
    """A config value outside its domain; `field` names the config field."""

    def __init__(self, field, message):
        super().__init__(message)
        self.field = field


def _built(field, build, name=None):
    """build(), its ValueError raised again as a FieldError of `field`, whose
    message starts with `name` (by default the quoted field)."""
    try:
        return build()
    except ValueError as exc:
        raise FieldError(field, f"{name or repr(field)}: {exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one study run."""

    study: str
    d: int = 1
    boundary: str = "infinite"
    L: int | None = None
    m: float = 2.0
    seed: int = 0
    replicas: int = 1000
    t_grid: tuple = (1.0,)
    lam: float | None = None
    theta: float | None = None
    mixture: tuple | None = None  # ((lam_i, weight_i), ...)
    initial_law: str | None = None  # convergence: nu_lambda | poisson | mixture
    xi: tuple | None = None
    eta: tuple | None = None
    xi_sizes: tuple = (1, 2, 3)
    n: int = 2
    delta: float = 0.5
    schedule_t0: float = 100.0
    schedule_doublings: int = 6
    iterated_replicas: int = 200
    x_start: tuple | None = None
    y_start: tuple | None = None

    def __post_init__(self):
        if self.study not in STUDIES:
            raise ValueError(f"unknown study {self.study!r}")
        if self.boundary not in ("infinite", "torus"):
            raise FieldError("boundary",
                             f"boundary must be 'infinite' or 'torus', got {self.boundary!r}")
        if self.boundary == "torus" and self.L is None:
            raise FieldError("L", "torus boundary needs its side L")
        if self.boundary == "infinite" and self.L is not None:
            raise FieldError("L", "L is only meaningful on the torus")
        # the model objects state the domains of d, L, m, theta and the
        # mixture: building them checks the config
        _built("d", partial(Geometry, self.d))
        _built("L", lambda: self.geometry)
        _built("m", lambda: self.sip_params)
        if not isinstance(self.seed, int) or self.seed < 0:
            raise FieldError("seed", f"seed must be a nonnegative integer, got {self.seed!r}")
        study = STUDIES[self.study]
        if "replicas" in study.optional and self.replicas < 100:
            raise FieldError("replicas", f"{self.study} needs replicas >= 100, got {self.replicas}")
        if self.iterated_replicas < 100:
            raise FieldError("iterated_replicas",
                             f"iterated_replicas must be >= 100, got {self.iterated_replicas}")
        grid = _built("t_grid", partial(check_grid, self.t_grid))
        if not grid or any(a == b for a, b in zip(grid, grid[1:])):
            raise FieldError("t_grid", "t_grid must be nonempty and strictly ascending")
        if self.lam is not None:
            if self.lam > 0.999:
                raise FieldError("lam", f"lam must lie in [0, 0.999], got {self.lam}")
            _built("lam", partial(NuLambda, self.lam, self.m))
        if self.theta is not None:
            _built("theta", partial(PoissonProduct, self.theta))
        if self.mixture is not None:
            top = max((lam for lam, _ in self.mixture), default=0.0)
            if top > 0.999:
                raise FieldError("mixture", f"mixture lam must lie in [0, 0.999], got {top}")
            _built("mixture", partial(NuMixture, self.mixture, self.m))
        if not 0.0 < self.delta < 1.0:
            raise FieldError("delta", f"delta must lie in (0, 1), got {self.delta}")
        # t0 alone is checked as the schedule without doublings
        for field, doublings in (("schedule_t0", 0),
                                 ("schedule_doublings", self.schedule_doublings)):
            _built(field, partial(doubling_schedule, self.schedule_t0, doublings),
                   f"'schedule_t0' {self.schedule_t0}, "
                   f"'schedule_doublings' {self.schedule_doublings}")
        if self.n < 1:
            raise FieldError("n", f"n must be >= 1, got {self.n}")
        # a repeated size would print its rows twice
        if any(s < 1 for s in self.xi_sizes) or len(set(self.xi_sizes)) < len(self.xi_sizes):
            raise FieldError("xi_sizes", "xi_sizes entries must be >= 1 and distinct")
        for name in ("xi", "eta", "x_start", "y_start"):
            sites = getattr(self, name) or ()
            if not all(isinstance(s, tuple) and len(s) == self.d for s in sites):
                raise FieldError(name, f"{name} must be a tuple of {self.d}-coordinate sites")
            # the oracle would wrap an unreduced torus site, the simulations would not
            if self.L and not all(0 <= c < self.L for s in sites for c in s):
                raise FieldError(name, f"{name} coordinates must lie in [0, {self.L}) on the torus")
        # their contracts compare the first grid time with the last, and take
        # coupling horizons, sqrt(t) or time averages that need t > 0
        grid_studies = ("coupling", "or-distance", "factorization")
        if self.study in grid_studies and len(self.t_grid) < 2:
            raise FieldError("t_grid", f"t_grid needs at least 2 times for {self.study}, "
                             f"got {len(self.t_grid)}")
        if self.study in grid_studies and self.t_grid[0] <= 0:
            raise FieldError("t_grid", f"t_grid times must be positive for {self.study}")
        for name in study.required:
            if getattr(self, name) is None:
                raise FieldError(name, f"study {self.study!r} requires the {name!r} field")
        # each would run every replica to a crash or a false failure (exit 2)
        if self.study == "coupling" and len(self.y_start) != len(self.x_start):
            raise FieldError("y_start", f"y_start needs the {len(self.x_start)} particles "
                             f"of x_start, got {len(self.y_start)}")
        if self.study == "coupling" and self.y_start == self.x_start:
            raise FieldError("y_start", "y_start equals x_start, so every replica couples at t = 0")
        if self.study == "or-distance" and len(self.x_start) < 2:
            raise FieldError("x_start", "x_start needs 2 or more particles, or no inclusion "
                             "event moves the distance")
        if study.torus and self.boundary != "torus":
            raise FieldError("boundary", f"{self.study} study runs on a torus")
        if self.study == "correlation" and self.geometry.n_sites < self.n:
            raise FieldError("n", f"n = {self.n} exceeds the torus's "
                             f"{self.geometry.n_sites} sites")
        if self.study == "convergence":
            if self.initial_law not in _CONVERGENCE_LAWS:
                raise FieldError("initial_law", "initial_law must be nu_lambda, poisson or "
                                 f"mixture, got {self.initial_law!r}")
            law_field = _CONVERGENCE_LAWS[self.initial_law][0]
            if getattr(self, law_field) is None:
                raise FieldError("initial_law", f"initial_law {self.initial_law!r} "
                                 f"requires the {law_field!r} field")

    @property
    def geometry(self) -> Geometry:
        return Geometry(self.d, self.L if self.boundary == "torus" else None)

    @property
    def sip_params(self) -> SipParams:
        return SipParams(m=self.m, geometry=self.geometry)


@dataclass(frozen=True)
class ReportRow:
    statistic: str
    estimate: float
    stderr: float | None
    target: float | None
    tolerance: float | None
    passed: bool


def band_row(statistic, estimate, stderr, target, floor=0.0) -> ReportRow:
    tol = max(3.0 * (stderr or 0.0), floor)
    return ReportRow(statistic, float(estimate), stderr, float(target), tol,
                     abs(estimate - target) <= tol)


def threshold_row(statistic, estimate, stderr, threshold, strict=False) -> ReportRow:
    ok = estimate > threshold if strict else estimate >= threshold
    return ReportRow(statistic, float(estimate), stderr, float(threshold), None, ok)


def info_row(statistic, estimate, stderr=None) -> ReportRow:
    return ReportRow(statistic, float(estimate), stderr, None, None, True)


@dataclass
class Report:
    study: str
    rows: list
    seed: int
    version: str = __version__
    wall_ms: int = 0  # set by cli.run, which times the runner

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def csv_text(self) -> str:
        def fmt(v):
            return "" if v is None else f"{v:.12g}"

        out = csv.writer(buf := io.StringIO(), lineterminator="\n")  # quotes a field with a comma
        out.writerow(("study", "statistic", "estimate", "stderr", "target", "tolerance", "pass"))
        out.writerows((self.study, r.statistic, fmt(r.estimate), fmt(r.stderr), fmt(r.target),
                       fmt(r.tolerance), "true" if r.passed else "false") for r in self.rows)
        return buf.getvalue()

    def json_summary(self) -> dict:
        return {
            "study": self.study,
            "seed": self.seed,
            "version": self.version,
            "wall_ms": self.wall_ms,
            "pass": self.passed,
        }


# Most replicas a block function is handed at once. The lockstep kernel
# pays each round's array operations once per block, and each live replica
# holds its stream, a draw window and two rows of running sums.
_LOCKSTEP = 192

# (block, arm, seed) of the fan-out in progress. Pool workers are forked
# after it is set and inherit it, so the block function may be a closure
# and only (lo, hi) crosses the pipe.
_fanout = None


def _replica_block(lo, hi):
    """Rows of replicas lo..hi-1 of the fan-out in progress, handed to its
    block function in equal blocks of at most _LOCKSTEP streams, in replica
    order."""
    block, arm, seed = _fanout
    words = stream_words(seed, (arm,), lo, hi)
    blocks = -(-(hi - lo) // _LOCKSTEP)
    edges = [lo + round(i * (hi - lo) / blocks) for i in range(blocks + 1)]
    rows = []
    for first, end in zip(edges, edges[1:]):
        rows += block([RandomStream(seed, (arm, r), words[r - lo]) for r in range(first, end)])
    return np.array(rows, dtype=float)


def _map_replicas(block, arm, cfg, n, workers):
    """The rows block(streams) gives for the streams RandomStream(cfg.seed,
    (arm, r)), r < n, one row per stream, in replica order. A row depends on
    its own stream alone, so the array is independent of the worker count,
    chunking and blocking. The chunks follow `workers`; the pool has at most
    one process per usable CPU."""
    global _fanout
    _fanout = (block, arm, cfg.seed)
    try:
        if workers <= 1:
            return _replica_block(0, n)
        chunks = max(1, min(4 * workers, n))
        edges = [round(i * n / chunks) for i in range(chunks + 1)]
        tasks = [(lo, hi) for lo, hi in zip(edges, edges[1:]) if hi > lo]
        affinity = getattr(os, "sched_getaffinity", None)
        cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
        with mp.get_context("fork").Pool(processes=min(workers, len(tasks), cpus)) as pool:
            parts = pool.starmap(_replica_block, tasks)
        return np.concatenate(parts, axis=0)
    finally:
        _fanout = None


def _each(replica):
    """The block function that applies replica to each stream in turn. It
    drops each stream from the block's list before the call, so a long run
    (up to 8,192 buffered draws) holds one draw buffer, not a block's."""
    def block(streams):
        rows = []
        for i, stream in enumerate(streams):
            streams[i] = None
            rows.append(replica(stream))
        return rows

    return block


def _map_calls(calls, workers):
    """[call() for call in calls], in call order, on min(workers, len(calls))
    threads, or inline when that is 1. For exact sweeps: scipy's sparse
    matvec and numpy's array arithmetic release the GIL."""
    threads = min(workers, len(calls))
    if threads <= 1:
        return [call() for call in calls]
    from concurrent.futures import ThreadPoolExecutor  # kept out of every start-up
    with ThreadPoolExecutor(threads) as pool:
        return list(pool.map(lambda call: call(), calls))


# ---------------------------------------------------------------------------
# self-duality


def _exact_gap_rows(cfg, exact):
    """One band row |left - right| <= 1e-8 per grid time of `exact_dual_expectation`."""
    return [band_row(f"exact_gap[t={t:g}]", abs(left - right), 0.0, 0.0, floor=1e-8)
            for t, (left, right) in zip(cfg.t_grid, exact)]


def run_self_duality(cfg: ExperimentConfig, workers: int = 1) -> Report:
    """Exact and Monte Carlo check of E_eta D(xi, eta_t) = E_xi D(xi_t, eta)."""
    from .oracle import exact_dual_expectation
    geo, params = cfg.geometry, cfg.sip_params
    evaluator = DualityEvaluator(cfg.m)
    rows = _exact_gap_rows(cfg, exact_dual_expectation(cfg.xi, occupation_of(cfg.eta),
                                                       cfg.t_grid, params))
    sites = list(geo.sites())
    (eta_ids, _), (xi_ids, _) = site_ids([cfg.eta], sites), site_ids([cfg.xi], sites)

    def lhs_block(streams):
        paths, _ = sample_at_times(eta_ids.repeat(len(streams), 0), sites, params,
                                   cfg.t_grid, streams)
        [d] = evaluator.moments([cfg.xi], lambda x: (paths == geo.site_index(x)).sum(2),
                                paths.shape[:2])
        return d.tolist()

    def rhs_block(streams):
        paths, _ = sample_at_times(xi_ids.repeat(len(streams), 0), sites, params,
                                   cfg.t_grid, streams)
        return evaluator.label_product(paths, eta_ids[0]).tolist()

    lhs = _map_replicas(lhs_block, _ARM_SD_LHS, cfg, cfg.replicas, workers)
    rhs = _map_replicas(rhs_block, _ARM_SD_RHS, cfg, cfg.replicas, workers)
    for j, t in enumerate(cfg.t_grid):
        l_est, l_se = batched(lhs[:, j])
        r_est, r_se = batched(rhs[:, j])
        rows.append(info_row(f"mc_lhs[t={t:g}]", l_est, l_se))
        rows.append(info_row(f"mc_rhs[t={t:g}]", r_est, r_se))
        rows.append(band_row(f"mc_gap[t={t:g}]", abs(l_est - r_est),
                             math.hypot(l_se, r_se), 0.0))
    return Report(study=cfg.study, rows=rows, seed=cfg.seed)


# ---------------------------------------------------------------------------
# stationarity


def _dual_sites(cfg, n):
    geo = cfg.geometry
    return tuple(geo.wrap((j,) + (0,) * (cfg.d - 1)) for j in range(n))


def run_stationarity(cfg: ExperimentConfig, workers: int = 1) -> Report:
    """Stationary duality moments: both arms must return rho^|xi| at every t.

    Dual arm: exact, nothing is simulated. By duality E_nu[D(xi, eta_t)] =
    E_xi[rho^|xi_t|]; the dynamics conserve |xi_t| = |xi|, and the nu_lambda
    transform does not depend on where the particles sit, so every dual
    path gives rho^|xi|, the closed transform at the probe. `batched` still
    reduces one copy per replica, so the rows keep a sample mean's rounding.
    Direct arm: sample eta from nu_lambda, evolve the full configuration,
    evaluate D(xi, eta_t).
    """
    geo = cfg.geometry
    params = cfg.sip_params
    law = NuLambda(lam=cfg.lam, m=cfg.m)
    evaluator = DualityEvaluator(cfg.m)
    probes = [_dual_sites(cfg, n) for n in cfg.xi_sizes]
    sites = list(geo.sites())

    def direct_block(streams):
        counts = sample_product(law, geo, streams)
        held = np.arange(counts.sum(1).max()) < counts.sum(1)[:, None]
        starts = np.full(held.shape, -1)  # each replica's particles in site order
        starts[held] = np.repeat(np.arange(counts.size) % len(sites), counts.ravel())
        paths, _ = sample_at_times(starts, sites, params, cfg.t_grid, streams)
        return np.hstack(evaluator.moments(probes, lambda x: (paths == geo.site_index(x)).sum(2),
                                           paths.shape[:2])).tolist()

    rows = []
    direct = _map_replicas(direct_block, _ARM_STAT_DIRECT, cfg, cfg.replicas, workers)
    col = 0
    for n, probe in zip(cfg.xi_sizes, probes):
        target = law.rho**n
        d_est, d_se = batched(np.full(cfg.replicas, evaluator.closed_transform(law, probe)))
        for t in cfg.t_grid:
            rows.append(band_row(f"dual_transform[n={n},t={t:g}]",
                                 d_est, d_se, target, floor=1e-9))
            m_est, m_se = batched(direct[:, col])
            rows.append(band_row(f"direct_moment[n={n},t={t:g}]", m_est, m_se, target))
            col += 1
    return Report(study=cfg.study, rows=rows, seed=cfg.seed)


# ---------------------------------------------------------------------------
# coupling success


def _coupled(outcome) -> float:
    return 1.0 if outcome.kind is OutcomeKind.COUPLED else 0.0


def run_coupling_success(cfg: ExperimentConfig, workers: int = 1) -> Report:
    """Success frequency of two-stage attempts per horizon, plus the
    iterated schedule.

    Contracts: endpoint success CIs separated at 3 sigma (the monotone
    trend surrogate), and iterated success frequency >= 0.99.
    """
    params = cfg.sip_params
    rows = []
    curve = []
    for j, t in enumerate(cfg.t_grid):
        flags = _map_replicas(
            _each(lambda stream: _coupled(two_stage_coupling(cfg.x_start, cfg.y_start, params,
                                                             t, cfg.delta, stream))),
            _ARM_COUPLING_BASE + j, cfg, cfg.replicas, workers)
        p_est, p_se = batched(flags)
        curve.append((p_est, p_se))
        rows.append(info_row(f"success[t={t:g}]", p_est, p_se))
    for j in range(len(curve) - 1):
        rows.append(info_row(f"success_increment[t={cfg.t_grid[j]:g}->{cfg.t_grid[j+1]:g}]",
                             curve[j + 1][0] - curve[j][0]))
    (p_first, se_first), (p_last, se_last) = curve[0], curve[-1]
    separation = (p_last - 3.0 * se_last) - (p_first + 3.0 * se_first)
    rows.append(threshold_row("trend_separation", separation, None, 0.0, strict=True))
    schedule = doubling_schedule(cfg.schedule_t0, cfg.schedule_doublings)
    iterated = _map_replicas(
        _each(lambda stream: _coupled(iterated_coupling(cfg.x_start, cfg.y_start, params,
                                                        schedule, stream, delta=cfg.delta))),
        _ARM_ITERATED, cfg, cfg.iterated_replicas, workers)
    it_est, it_se = batched(iterated)
    rows.append(threshold_row("iterated_success", it_est, it_se, 0.99))
    return Report(study=cfg.study, rows=rows, seed=cfg.seed)


# ---------------------------------------------------------------------------
# OR-coupling distance


def run_or_distance(cfg: ExperimentConfig, workers: int = 1) -> Report:
    """Mean OR-coupled SIP-IRW distance, normalized by sqrt(t).

    Contracts: the normalized means decrease strictly across the grid, and
    the first and last grid points are separated at 3 sigma.
    """
    params = cfg.sip_params
    rows = []
    block = _map_replicas(
        _each(lambda stream: or_distance_single(cfg.x_start, params, cfg.t_grid, stream)),
        _ARM_OR_DISTANCE, cfg, cfg.replicas, workers)
    normalized = []
    for j, t in enumerate(cfg.t_grid):
        est, se = batched(block[:, j])
        rows.append(info_row(f"distance[t={t:g}]", est, se))
        scale = math.sqrt(t)
        normalized.append((est / scale, se / scale))
        rows.append(info_row(f"normalized_distance[t={t:g}]", est / scale, se / scale))
    drops = [normalized[j][0] - normalized[j + 1][0] for j in range(len(normalized) - 1)]
    rows.append(threshold_row("strict_decrease_margin", min(drops), None, 0.0, strict=True))
    (n_first, se_first), (n_last, se_last) = normalized[0], normalized[-1]
    separation = (n_first - 3.0 * se_first) - (n_last + 3.0 * se_last)
    rows.append(threshold_row("endpoint_separation", separation, None, 0.0, strict=True))
    return Report(study=cfg.study, rows=rows, seed=cfg.seed)


# ---------------------------------------------------------------------------
# convergence to the invariant product measure


def run_convergence(cfg: ExperimentConfig, workers: int = 1) -> Report:
    """Dual Monte Carlo surrogate of the convergence theorem.

    Only the dual particles are simulated (infinite geometry allowed); the
    initial law enters through its closed-form transform evaluated along
    dual trajectories. The nu_lambda and mixture transforms depend on |xi|
    alone, which the dynamics conserve, so for them every dual path gives
    the transform at xi and nothing is simulated; `batched` still reduces
    one copy per replica. The contract binds the final grid time: estimate
    within max(3 sigma, 0.02 * target) of the analytic limit. The last row
    reports the theorem's hypothesis at |xi|: the tempered moment bound c_n.
    For these laws c_n is that limit: product laws converge to rho^n, and a
    mixture is invariant, so its transform stays at E[rho^n].
    """
    law = _CONVERGENCE_LAWS[cfg.initial_law][1](cfg)
    params = cfg.sip_params
    evaluator = DualityEvaluator(cfg.m)
    n = len(cfg.xi)
    target = evaluator.temperedness_bound(law, n)
    rows = [info_row("ah_density", ah_density(law, cfg.m))]

    xi_ids, xi_sites = site_ids([cfg.xi])

    def replica_block(streams):  # a site holding k: the transform of k particles on one site
        paths, _ = sample_at_times(xi_ids.repeat(len(streams), 0), xi_sites, params,
                                   cfg.t_grid, streams)
        return evaluator.label_product(paths, (), lambda k, _:
                                       evaluator.closed_transform(law, cfg.xi[:1] * k)).tolist()

    if isinstance(law, PoissonProduct):
        block = _map_replicas(replica_block, _ARM_CONVERGENCE, cfg, cfg.replicas, workers)
    else:  # the simulated array's shape, so batched sees the same columns
        block = np.full((cfg.replicas, len(cfg.t_grid)),
                        evaluator.closed_transform(law, cfg.xi))
    last = len(cfg.t_grid) - 1
    for j, t in enumerate(cfg.t_grid):
        est, se = batched(block[:, j])
        if j == last:
            rows.append(band_row(f"transform[t={t:g}]", est, se, target, floor=0.02 * target))
        else:
            rows.append(info_row(f"transform[t={t:g}]", est, se))
    rows.append(info_row(f"temperedness_bound[n={n}]", target))
    return Report(study=cfg.study, rows=rows, seed=cfg.seed)


# ---------------------------------------------------------------------------
# correlation inequality


def run_correlation_inequality(cfg: ExperimentConfig, workers: int = 1) -> Report:
    """Jensen gap of mixture moments: E[rho^n] >= (E[rho])^n.

    Closed forms on both sides, plus a sampled arm that must reproduce them
    within 3 sigma. The gap is strict for a non-degenerate mixture with
    n >= 2 and collapses to equality otherwise.
    """
    n = cfg.n
    geo = cfg.geometry
    law = NuMixture(atoms=cfg.mixture, m=cfg.m)
    evaluator = DualityEvaluator(cfg.m)
    probe = _dual_sites(cfg, n)
    lhs_closed = evaluator.closed_transform(law, probe)
    rhs_closed = evaluator.closed_transform(law, probe[:1]) ** n
    rows = [
        info_row("closed_lhs", lhs_closed),
        info_row("closed_rhs", rhs_closed),
    ]
    distinct = len({lam for lam, w in cfg.mixture if w > 0}) > 1
    gap = lhs_closed - rhs_closed
    if n >= 2 and distinct:
        rows.append(threshold_row("jensen_gap", gap, None, 0.0, strict=True))
    else:
        rows.append(band_row("jensen_gap", gap, 0.0, 0.0, floor=1e-12))

    def replica_block(streams):
        counts = sample_product(law, geo, streams)
        return np.transpose(evaluator.moments((probe, probe[:1]),
                                              lambda x: counts[:, geo.site_index(x)],
                                              len(counts))).tolist()

    block = _map_replicas(replica_block, _ARM_CORRELATION, cfg, cfg.replicas, workers)
    lhs_est, lhs_se = batched(block[:, 0])
    f_est, f_se = batched(block[:, 1])
    rows.append(band_row("sampled_lhs", lhs_est, lhs_se, lhs_closed))
    # the product of n single-site moments, delta-method error bar
    rhs_est = f_est**n
    rhs_se = n * abs(f_est) ** (n - 1) * f_se
    rows.append(band_row("sampled_rhs", rhs_est, rhs_se, rhs_closed))
    return Report(study=cfg.study, rows=rows, seed=cfg.seed)


# ---------------------------------------------------------------------------
# factorization and position-independence


def _nu_transform_series(xi_counts, lam, m, evaluator):
    """Duality moment of nu_lambda by per-site truncated series, no shortcut.

    Site factor sum_k pmf(k) d(j, k); the pmf ratio tends to lam < 1, so
    the series is truncated once terms stop mattering at 1e-17 relative.
    """
    out = 1.0
    for j in xi_counts.values():
        acc = 0.0
        for k in range(j, 100_000):
            term = marginal_pmf(k, lam, m) * evaluator.single(j, k)
            acc += term
            if k > j + 20 and term <= acc * 1e-17 + 1e-300:
                break
        out *= acc
    return out


def run_factorization(cfg: ExperimentConfig, workers: int = 1) -> Report:
    """Position-independence and factorization of stationary duality moments.

    Static arm: the nu_lambda transform, evaluated by truncated series per
    site, satisfies hat(3) = hat(1) * hat(2) to 1e-10, and its two-particle
    value is the same for a stacked pair as for a split pair. The series
    reads occupation counts only, so no placement of two particles has a
    third value and `position_spread[n=2]` compares those two. Dynamic arm:
    time-averaged duality polynomials on a conserved torus sector flatten
    toward a placement-independent limit as the averaging horizon doubles.
    """
    from .oracle import build_generator, cesaro_apply, state_space
    geo = cfg.geometry
    evaluator = DualityEvaluator(cfg.m)
    sites = list(geo.sites())
    hat = {
        n: _nu_transform_series(occupation_of(_dual_sites(cfg, n)), cfg.lam, cfg.m,
                                evaluator)
        for n in (1, 2, 3)
    }
    stacked = _nu_transform_series(occupation_of(sites[:1] * 2), cfg.lam, cfg.m, evaluator)
    rows = [info_row("transform_value[n=2]", stacked),
            band_row("position_spread[n=2]", abs(stacked - hat[2]), 0.0, 0.0, floor=1e-10),
            band_row("factorization_gap", abs(hat[3] - hat[1] * hat[2]), 0.0, 0.0, floor=1e-10)]

    params = cfg.sip_params
    n_eta = len(cfg.eta)
    space = state_space(n_eta, geo)
    q = build_generator(n_eta, params)
    eta_index = space.index_of_particles(cfg.eta)
    pair_probes = evaluator.moments(
        [(x, y) for a, x in enumerate(sites) for y in sites[a + 1:]],
        lambda x: space.states[:, geo.site_index(x)], space.size)
    spreads = []
    for horizon in cfg.t_grid:
        averaged = [float(cesaro_apply(q, horizon, vec)[eta_index]) for vec in pair_probes]
        s = max(averaged) - min(averaged)
        spreads.append(s)
        rows.append(info_row(f"cesaro_spread[T={horizon:g}]", s))
    rows.append(threshold_row("cesaro_spread_shrinks",
                              spreads[0] - spreads[-1], None, 0.0, strict=True))
    return Report(study=cfg.study, rows=rows, seed=cfg.seed)


# ---------------------------------------------------------------------------
# oracle self-check


def run_oracle_check(cfg: ExperimentConfig, workers: int = 1) -> Report:
    """Structural checks of the exact solver: sector sizes, row sums,
    conservation under the semigroup, and the self-duality identity."""
    from .oracle import (build_generator, exact_dual_expectation, semigroup_apply,
                         state_space, uniformized)
    geo = cfg.geometry
    params = cfg.sip_params
    eta_counts = occupation_of(cfg.eta)
    sectors = sorted({len(cfg.xi), sum(eta_counts.values())})
    for n in sectors:  # P here too: a thread would not reuse the memory the assembly freed
        uniformized(build_generator(n, params))

    def sector_rows(n):
        size, q = state_space(n, geo).size, build_generator(n, params)
        rowsum = float(np.max(np.abs(q.sum(axis=1))))
        drift = float(np.max(np.abs(semigroup_apply(q, max(cfg.t_grid), np.ones(size)) - 1.0)))
        return [band_row(f"state_count[n={n}]", size, 0.0, math.comb(geo.n_sites + n - 1, n)),
                band_row(f"generator_rowsum_max[n={n}]", rowsum, 0.0, 0.0, floor=1e-12),
                band_row(f"stochasticity_gap[n={n}]", drift, 0.0, 0.0, floor=1e-10)]

    *blocks, exact = _map_calls(
        [partial(sector_rows, n) for n in sectors]
        + [partial(exact_dual_expectation, cfg.xi, eta_counts, cfg.t_grid, params)], workers)
    rows = [row for block in blocks for row in block] + _exact_gap_rows(cfg, exact)
    return Report(study=cfg.study, rows=rows, seed=cfg.seed)


RUNNERS = {
    "self-duality": run_self_duality,
    "stationarity": run_stationarity,
    "coupling": run_coupling_success,
    "or-distance": run_or_distance,
    "convergence": run_convergence,
    "correlation": run_correlation_inequality,
    "factorization": run_factorization,
    "oracle-check": run_oracle_check,
}
