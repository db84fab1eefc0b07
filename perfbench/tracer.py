"""In-memory span tracer that wraps sipsim's public names from outside.

Nothing under src/ is edited: `install` replaces module attributes and class
methods that the studies look up at call time (for example
`sipsim.experiments.sample_at_times` or `RandomStream.__init__`) with timing
wrappers. Every span feeds per-name aggregates (calls, inclusive time, self
time = span time minus the time of its child spans). The first SPAN_CAP
spans are also kept individually as (name, start, end, parent, run id);
per-event functions are wrapped with bare counters instead of spans, because
millions of spans would distort the run they measure.
"""

from __future__ import annotations

import functools
import time

SPAN_CAP = 50_000

# module -> names whose self time is attributed to that module
MODULES = ("cli", "experiments", "core", "dynamics", "coupling", "measures",
           "duality", "stats", "oracle")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self._stack = []  # one [child_time] cell per open span
        self._open = []  # span-record index of each open span, -1 if dropped
        self.agg = {}  # name -> [calls, inclusive_s, self_s]
        self.counts = {}  # name -> [calls]
        self.spans = []
        self.dropped = 0
        self.oracle = {"states": 0, "nnz": 0, "matvecs": 0, "matvec_bytes": 0}
        self._sectors = set()

    def span(self, name, fn, after=None):
        """Wrap fn so that each call records a span; `after(result, args,
        kwargs)` runs once the span is closed."""
        stack, opened, spans, agg = self._stack, self._open, self.spans, self.agg
        cell = agg.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if len(spans) < SPAN_CAP:
                idx = len(spans)
                spans.append(None)
            else:
                idx = -1
                self.dropped += 1
            parent = opened[-1] if opened else -1
            frame = [0.0]
            stack.append(frame)
            opened.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                opened.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                cell[0] += 1
                cell[1] += dur
                cell[2] += dur - frame[0]
                if idx >= 0:
                    spans[idx] = (name, start, end, parent)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def counter(self, name, fn):
        """Wrap fn with a bare call counter (no span, for per-event calls)."""
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- oracle work accounting (computed from matrix sizes, not measured) --

    def _after_generator(self, q, _args, _kwargs):
        if id(q) in self._sectors:  # lru_cache hit: the sector was counted
            return
        self._sectors.add(id(q))
        self.oracle["states"] += q.shape[0]
        self.oracle["nnz"] += q.nnz

    def _after_semigroup(self, _result, args, kwargs):
        import numpy as np
        from sipsim.oracle import poisson

        q, t = args[0], args[1]
        tail = kwargs.get("tail", args[3] if len(args) > 3 else 1e-12)
        diag = q.diagonal()
        mu = (float(np.max(-diag)) if diag.size else 0.0) * t
        if mu <= 0.0:
            return
        kmax = max(int(poisson.isf(tail, mu)), 1)
        n = q.shape[0]
        self.oracle["matvecs"] += kmax
        # CSR matvec: values (8 B) and column indices (4 B) per nonzero,
        # row pointers (4 B) per row, one read and one write of the vector
        per = q.nnz * 12 + (n + 1) * 4 + 2 * n * 8
        self.oracle["matvec_bytes"] += kmax * per

    # -- aggregation -----------------------------------------------------------

    def module_self(self, module) -> float:
        prefix = module + "."
        return sum(v[2] for k, v in self.agg.items() if k.startswith(prefix))

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "span_fields": ["name", "start_s", "end_s", "parent"],
            "spans": self.spans,
            "spans_dropped": self.dropped,
            "aggregates": {k: {"calls": v[0], "inclusive_s": v[1], "self_s": v[2]}
                           for k, v in sorted(self.agg.items())},
            "counts": {k: v[0] for k, v in sorted(self.counts.items())},
            "module_self_s": {m: self.module_self(m) for m in MODULES},
            "oracle_work": dict(self.oracle),
        }


def _patch(modules, attr, wrapper):
    for mod in modules:
        if hasattr(mod, attr):
            setattr(mod, attr, wrapper)


def install(tracer: Tracer):
    """Wrap the public names the studies reach; call before the CLI runs."""
    import numpy as np
    import sipsim.cli as cli
    import sipsim.coupling as coupling
    import sipsim.dynamics as dynamics
    import sipsim.experiments as experiments
    import sipsim.oracle as oracle
    from sipsim.core import RandomStream
    from sipsim.duality import DualityEvaluator

    for attr in ("run", "parse_config", "_atomic_write"):
        setattr(cli, attr, tracer.span("cli." + attr, getattr(cli, attr)))

    for study, fn in list(experiments.RUNNERS.items()):
        experiments.RUNNERS[study] = tracer.span("experiments." + fn.__name__, fn)
    for attr in dir(experiments):
        if attr == "_map_replicas" or attr.endswith("_block"):
            setattr(experiments, attr,
                    tracer.span("experiments." + attr, getattr(experiments, attr)))

    # A stream fills its draw buffer lazily, on the first draw, so most of
    # its set-up cost sits in the refill: route each stream's generator
    # through a stand-in whose random() is a span and whose arrays time their
    # conversion to Python floats as a second span.
    to_list = tracer.span("core.RandomStream.tolist", np.ndarray.tolist)

    class TimedDraws(np.ndarray):
        def tolist(self):
            return to_list(self)

    refill = tracer.span(
        "core.RandomStream.refill",
        lambda gen, *args, **kwargs: gen.random(*args, **kwargs).view(TimedDraws))

    class TracedGenerator:
        __slots__ = ("gen",)

        def __init__(self, gen):
            self.gen = gen

        def random(self, *args, **kwargs):
            return refill(self.gen, *args, **kwargs)

        def __getattr__(self, name):
            return getattr(self.gen, name)

    init = RandomStream.__init__

    @functools.wraps(init)
    def init_traced(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._gen = TracedGenerator(self._gen)

    RandomStream.__init__ = tracer.span("core.RandomStream.__init__", init_traced)

    _patch((experiments, dynamics), "sample_at_times",
           tracer.span("dynamics.sample_at_times", dynamics.sample_at_times))
    dynamics.gillespie_step = tracer.counter("dynamics.gillespie_step",
                                             dynamics.gillespie_step)

    for attr in ("or_distance_single", "two_stage_coupling", "iterated_coupling"):
        _patch((experiments, coupling), attr,
               tracer.span("coupling." + attr, getattr(coupling, attr)))
    coupling.or_coupled_step = tracer.counter("coupling.or_coupled_step",
                                              coupling.or_coupled_step)

    experiments.sample_product = tracer.span("measures.sample_product",
                                             experiments.sample_product)
    for attr in ("value", "closed_transform"):
        setattr(DualityEvaluator, attr,
                tracer.span("duality.DualityEvaluator." + attr,
                            getattr(DualityEvaluator, attr)))
    experiments.batched = tracer.span("stats.batched", experiments.batched)

    hooks = {"build_generator": tracer._after_generator,
             "semigroup_apply": tracer._after_semigroup}
    for attr in ("state_space", "build_generator", "semigroup_apply",
                 "exact_dual_expectation", "cesaro_apply"):
        _patch((experiments, oracle), attr,
               tracer.span("oracle." + attr, getattr(oracle, attr), hooks.get(attr)))
