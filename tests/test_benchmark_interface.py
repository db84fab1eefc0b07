"""The benchmark reaches into sipsim by name from outside the package.

`perfbench/probes.py` imports public functions and `perfbench/tracer.py`
wraps module attributes that the studies look up at call time. A rename in
`src/` would make `perfbench/run.py --trace 1` fail, or, for a wrapped name
that the code no longer calls through its module, silently lose a metric.
These tests read both files (without importing or changing them) and check
what they reach.
"""

import ast
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sipsim
import sipsim.coupling as coupling
import sipsim.dynamics as dynamics
import sipsim.experiments as experiments
import sipsim.oracle as oracle
from sipsim.core import Geometry, RandomStream
from sipsim.dynamics import SipParams
from sipsim.experiments import _LOCKSTEP, ExperimentConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def sipsim_bindings(tree):
    """Local name -> object for each `import sipsim.x as y` and each
    `from sipsim.x import y` in the file, asserting that every imported name
    exists."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("sipsim"):
                    module = importlib.import_module(alias.name)
                    if alias.asname:
                        bound[alias.asname] = module
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sipsim"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                bound[alias.asname or alias.name] = getattr(module, alias.name)
    return bound


def attribute_reads(tree, bound):
    """(owner, attribute) for each read `owner.attribute` of a bound name, and
    for each `getattr(owner, name)` in a loop of `name` over literal strings."""
    reads = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id in bound):
            reads.add((node.value.id, node.attr))
        elif (isinstance(node, ast.For) and isinstance(node.target, ast.Name)
              and isinstance(node.iter, ast.Tuple)):
            names = [e.value for e in node.iter.elts if isinstance(e, ast.Constant)]
            for call in ast.walk(node):
                if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                        and call.func.id == "getattr" and len(call.args) == 2
                        and isinstance(call.args[0], ast.Name) and call.args[0].id in bound
                        and isinstance(call.args[1], ast.Name)
                        and call.args[1].id == node.target.id):
                    reads.update((call.args[0].id, name) for name in names)
    return reads


@pytest.mark.parametrize("name, expected", [
    ("probes.py", {("state_space", "cache_clear"), ("build_generator", "cache_clear")}),
    ("tracer.py", {("coupling", "or_coupled_step"), ("dynamics", "gillespie_step"),
                   ("dynamics", "sample_at_times"), ("coupling", "or_distance_single"),
                   ("oracle", "build_generator"), ("oracle", "semigroup_apply"),
                   ("oracle", "exact_dual_expectation"), ("oracle", "cesaro_apply"),
                   ("oracle", "state_space"), ("poisson", "isf"),
                   ("DualityEvaluator", "closed_transform"), ("cli", "run")}),
])
def test_every_name_the_benchmark_reaches_exists(name, expected):
    tree = ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))
    bound = sipsim_bindings(tree)
    reads = attribute_reads(tree, bound)
    assert expected <= reads  # the scan sees the names it must guard
    missing = [f"{owner}.{attr}" for owner, attr in sorted(reads)
               if not hasattr(bound[owner], attr)]
    assert not missing


def test_semigroup_apply_takes_a_scalar_positional_time():
    # the tracer's semigroup hook reads (q, t) from args[0] and args[1] and
    # prices one series at the scalar t; probes.py calls it the same way
    assert list(inspect.signature(oracle.semigroup_apply).parameters) == ["q", "t", "f"]
    q = oracle.build_generator(2, SipParams(2.0, Geometry(2, 3)))
    f = np.ones(q.shape[0])
    out = oracle.semigroup_apply(q, 10.0, f)
    assert isinstance(out, np.ndarray) and out.shape == f.shape
    assert np.max(np.abs(out - 1.0)) < 1e-10


def test_or_steps_are_called_through_the_module_global(monkeypatch):
    # the tracer counts per-event OR steps by replacing the module attribute,
    # so both OR callers must look it up at call time
    calls = []
    step = coupling.or_coupled_step

    def counted(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(coupling, "or_coupled_step", counted)
    params = SipParams(2.0, Geometry(1))
    coupling.or_distance_single(((0,), (1,)), params, [5.0], RandomStream(0, (0,)))
    from_distance = len(calls)
    coupling.two_stage_coupling(((0,), (1,)), ((5,), (6,)), params, 10.0, 0.5,
                                RandomStream(1, (0,)))
    assert from_distance > 0
    assert len(calls) > from_distance


def test_both_product_law_arms_sample_through_the_module_global(monkeypatch):
    # the tracer times measures.sample_product by replacing the experiments
    # attribute, so the stationarity and correlation arms must look it up at
    # call time, once per block
    calls = []
    sample = experiments.sample_product

    def counted(law, geometry, streams):
        calls.append((type(law).__name__, len(streams)))
        return sample(law, geometry, streams)

    monkeypatch.setattr(experiments, "sample_product", counted)
    experiments.run_stationarity(ExperimentConfig(study="stationarity", boundary="torus", L=4,
                                                  lam=0.4, replicas=100, t_grid=(0.5,)))
    assert calls == [("NuLambda", 100)]
    experiments.run_correlation_inequality(ExperimentConfig(
        study="correlation", boundary="torus", L=4, mixture=((0.2, 0.5), (0.6, 0.5)),
        replicas=_LOCKSTEP + 1))
    assert [law for law, _ in calls[1:]] == ["NuMixture"] * 2
    assert sum(size for _, size in calls[1:]) == _LOCKSTEP + 1


class _CountingStream(RandomStream):
    """A stream that counts the draws it is moved past: uniform() calls and
    advance(j); peek moves nothing."""

    __slots__ = ("draws",)

    def uniform(self):
        self.draws += 1
        return super().uniform()

    def advance(self, j):
        self.draws += j
        super().advance(j)


def drawn_events(starts, geometry, grid, seed=0):
    """Per replica of one block: (log rows + one drawn but unapplied event if
    its start and the grid are non-empty, half the draws its stream moved
    past). The next draw of each stream is checked against a fresh one."""
    streams = [_CountingStream(seed, (b,)) for b in range(len(starts))]
    for stream in streams:
        stream.draws = 0
    log = []
    dynamics.sample_at_times(*dynamics.site_ids(starts), SipParams(2.0, geometry), grid,
                             streams, log)
    out = []
    for b, (xi0, stream) in enumerate(zip(starts, streams)):
        moved = stream.draws
        assert stream.uniform() == RandomStream(seed, (b,)).peek(moved + 1)[-1]
        rows = sum(row[1] == b for row in log)
        out.append((rows + (bool(xi0) and bool(grid)), moved / 2))
    return out


@pytest.mark.parametrize("geometry, xi0", [
    (Geometry(1), ((0,), (1,), (1,))),
    (Geometry(2, 4), ((0, 0), (0, 1), (2, 2), (3, 3))),
])
def test_events_are_log_rows_and_one_drawn_event(geometry, xi0):
    # the counting rule for dynamics.events: with log=[] the events a
    # trajectory draws are its log rows and the last, unapplied event, and
    # each spends two draws (its time and its pick)
    [(events, half_draws)] = drawn_events([xi0], geometry, [0.5, 3.0])
    assert events > 10
    assert events == half_draws


@pytest.mark.parametrize("geometry, starts", [
    (Geometry(1), [((0,), (1,), (1,)), (), ((5,),), ((0,), (0,))]),
    (Geometry(2, 4), [((0, 0), (0, 1), (2, 2), (3, 3)), ((1, 1),), ()]),
])
def test_gillespie_steps_of_a_block_are_one_per_replica_event(geometry, starts):
    # a lockstep block draws per replica exactly the events the counting
    # rule gives, so dynamics.events counts the events of every trajectory
    counted = drawn_events(starts, geometry, [0.5, 3.0])
    for xi0, (events, half_draws) in zip(starts, counted):
        assert events == half_draws
        assert (events > 0) == bool(xi0)
    # an empty grid draws nothing
    assert drawn_events(starts, geometry, []) == [(0, 0.0)] * len(starts)


@pytest.mark.parametrize("n", [1, _LOCKSTEP + 1, 100])
def test_every_replica_stream_runs_the_wrapped_init(monkeypatch, n):
    # the tracer counts core.streams by wrapping RandomStream.__init__, so
    # the fan-out must build each replica's stream through it exactly once
    paths = []
    init = RandomStream.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        paths.append(self.path)

    monkeypatch.setattr(RandomStream, "__init__", counted)
    cfg = ExperimentConfig(study="stationarity", boundary="torus", L=5, lam=0.4, seed=3)
    rows = experiments._map_replicas(lambda streams: [[s.uniform()] for s in streams],
                                     4, cfg, n, 1)
    assert paths == [(4, r) for r in range(n)]
    assert len(rows) == n


def test_the_probes_run_and_give_ten_positive_finite_metrics():
    # probes.py calls simulate, two_stage_coupling, build_generator and more
    # with fixed arguments, so a changed signature fails here first
    src = str(Path(sipsim.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, str(PERFBENCH / "probes.py"), src, "0"],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    metrics = json.loads(out.stdout)
    assert len(metrics) == 10
    assert all(math.isfinite(v) and v > 0 for v in metrics.values()), metrics


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy.random loads with the first stream; oracle-check builds none, and
    # loading it with the package raises that run's peak memory by about 18%
    src = str(Path(sipsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, sipsim.cli; print(sorted(m for m in sys.modules if 'numpy.random' in m))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout.strip() == "[]"


# Runs in a child process: `install` patches sipsim's modules for good.
TRACED_RUN = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer as tracing
from sipsim.core import Geometry, RandomStream
from sipsim.dynamics import ProcessKind, SipParams, simulate
from sipsim.experiments import RUNNERS, ExperimentConfig

CONFIGS = [
    dict(study="stationarity", boundary="torus", L=4, lam=0.4, t_grid=(0.5, 1.0)),
    dict(study="self-duality", boundary="torus", L=4, xi=((0,), (2,), (2,)),
         eta=((1,), (0,), (1,), (2,)), t_grid=(0.5, 1.0)),
    dict(study="convergence", initial_law="poisson", theta=1.0, xi=((0,), (1,), (1,)),
         t_grid=(1.0, 2.0)),
]

def reports():
    return [RUNNERS[c["study"]](ExperimentConfig(seed=0, replicas=100, **c)).csv_text()
            for c in CONFIGS]

plain = reports()
tracer = tracing.Tracer("tier-1")
tracing.install(tracer)
traced = reports()
# as perfbench/probes.py times the kernel: a tuple start on Z, recorded in full
stream = RandomStream(0, (9, 10, 0))
traj = simulate(tuple((i,) for i in range(10)), ProcessKind.SIP,
                SipParams(m=2.0, geometry=Geometry(1)), 5.0, stream, record="full")
events = len(traj.times) - 1
json.dump({"same": plain == traced, "aggregates": tracer.dump()["aggregates"],
           "events": events,
           "next_draw_ok": bool(stream.uniform() == RandomStream(0, (9, 10, 0)).peek(
               2 * (events + 1) + 1)[-1])}, sys.stdout)
"""


def test_traced_runs_give_the_untraced_reports():
    # `perfbench/run.py --trace 1` installs the tracer before the study
    # runs; the dynamics studies must give the same CSV through it, with
    # the kernel's spans recorded, and the probes' `simulate` call must
    # draw two draws per applied event plus one drawn but unapplied event
    src = str(Path(sipsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", TRACED_RUN, str(PERFBENCH)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    assert result["same"]
    calls = {name: agg["calls"] for name, agg in result["aggregates"].items()}
    # one block per arm (stationarity's direct arm, both self-duality arms
    # and the Poisson convergence arm) and the block `simulate` runs
    assert calls["dynamics.sample_at_times"] == 5
    assert calls["measures.sample_product"] == 1
    assert calls["experiments._map_replicas"] == 4
    assert result["events"] > 10 and result["next_draw_ok"]
