"""Time-to-verdict benchmark for `sip-verify`.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each operation is one CLI run,
`sip-verify STUDY --config perfbench/workloads/NAME.conf --seed N`, in a
fresh interpreter (see child.py). The inputs are the workload's config file
and the seed; nothing else varies.

--trace 0 repeats the CLI run at --workers 2 while another repetition fits
in --seconds (at least MIN_REPS times) and prints the end-to-end metrics,
each the median over the repetitions:
  wall_s       study call -> both report files written;
  setup_s      interpreter start -> study call (imports plus parse_config);
  peak_rss_mb  peak resident memory of the CLI process and its pool children.
Every repetition's values are written to .perfbench_out/samples-NAME-seedN.json.

--trace 1 prints the per-layer metrics: an untraced run at --workers 2, an
untraced and a traced run at --workers 1 (spans from forked pool children
would be lost), and the L0-L3 probes (probes.py). The trace is written to
.perfbench_out/trace-NAME-seedN.json.

Correctness gate, for every run: no traceback; both reports exist; the CSV
bytes equal those of every other run of this seed (repetitions, --workers 1
and 2, traced and untraced); every CSV verdict agrees with its own estimate,
target and tolerance; the JSON summary agrees with the CSV; and the exit
status is 2 if a row failed and 0 otherwise. How many rows may fail:
  - at the default seed 0, none, on every workload;
  - at a seed that perfbench/baseline.json records for the workload
    (rows_failed_by_seed, from the seed sweep of baseline.py), exactly the
    recorded number: the CSV bytes are a function of (config, seed);
  - at any other seed, only chance misses: band rows whose tolerance is
    3 * stderr with stderr > 0, missed by at most 5 * stderr. Rows with a
    fixed tolerance or a threshold must pass, so oracle-2d, whose rows all
    have stderr 0, must pass outright.
`attempted`/`failed` count CLI runs (ops_failed); rows_failed counts CSV
rows with pass=false.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from tracer import MODULES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(HERE, "child.py")
PROBES = os.path.join(HERE, "probes.py")

# name -> (study, module that should dominate its traced self time, why);
# each workload's config file says more about why it was chosen
WORKLOADS = {
    "or-long": (
        "or-distance", "coupling",
        "or-distance, 100 OR trajectories to t=3000 (~6e3 events each): time is in "
        "coupling.or_coupled_step and draws; few streams, no dynamics, no oracle"),
    "stationarity-short": (
        "stationarity", "core",
        "stationarity, 6000 replicas: 12k streams of tens of draws each, so stream "
        "set-up is half the time, plus dynamics at N~7, measures, duality, fan-out"),
    "stationarity-dense": (
        "stationarity", "dynamics",
        "stationarity on an 8x8 torus, lambda 0.5, 640 replicas to t=0.25: ~64 particles "
        "per replica, so sample_at_times and O(N*d) rate recomputation dominate"),
    "oracle-2d": (
        "oracle-check", "oracle",
        "oracle-check, 6 particles on a 4x4 torus: a 54,264-state sector, so generator "
        "assembly and memory dominate; no Monte Carlo, it bypasses every simulation change"),
}
DEFAULT_SEED = 0  # every workload passes all its contract rows at this seed
CHANCE_SIGMAS = 5.0  # largest miss, in stderrs, that counts as a chance miss
WORKERS = 2
MIN_REPS = 3
RUN_TIMEOUT_S = 150.0
CSV_HEADER = "study,statistic,estimate,stderr,target,tolerance,pass"

# Length of one benchmark run as recorded in BENCHMARK.json; the run takes
# it from --seconds.
RUN_SECONDS = 30

# (name, unit, bound): the bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
# On a shared 2-core x86_64 host, timings of identical work drift by
# 10-20% from one run to the next, so the time bounds are the widest allowed.
END_TO_END = (("wall_s", "s", 0.25), ("setup_s", "s", 0.25), ("peak_rss_mb", "MB", 0.1))

# (name, unit, better); see layer_metrics for how each is derived
PER_LAYER = (
    ("core.streams", "count", "lower"),
    ("core.stream_init_s", "s", "lower"),
    ("core.refills", "count", "lower"),
    ("core.refill_s", "s", "lower"),
    ("core.stream_setup_us", "us", "lower"),
    ("core.draw_ns", "ns", "lower"),
    ("dynamics.sample_at_times_s", "s", "lower"),
    ("dynamics.events", "count", "lower"),
    ("dynamics.events_per_s", "1/s", "higher"),
    ("dynamics.sip_events_per_s.n2", "1/s", "higher"),
    ("dynamics.sip_events_per_s.n10", "1/s", "higher"),
    ("dynamics.sip_events_per_s.n40", "1/s", "higher"),
    ("dynamics.sip_events_per_s.n160", "1/s", "higher"),
    ("coupling.or_distance_s", "s", "lower"),
    ("coupling.events", "count", "lower"),
    ("coupling.events_per_s", "1/s", "higher"),
    ("coupling.or_ms_t1e4", "ms", "lower"),
    ("coupling.two_stage_ms_t1e4", "ms", "lower"),
    ("measures.sample_product_s", "s", "lower"),
    ("measures.sample_product_calls", "count", "lower"),
    ("duality.eval_s", "s", "lower"),
    ("duality.eval_calls", "count", "lower"),
    ("stats.batched_s", "s", "lower"),
    ("stats.batched_calls", "count", "lower"),
    ("oracle.state_space_s", "s", "lower"),
    ("oracle.build_generator_s", "s", "lower"),
    ("oracle.states", "count", "lower"),
    ("oracle.nnz", "count", "lower"),
    ("oracle.states_per_s", "1/s", "higher"),
    ("oracle.semigroup_s", "s", "lower"),
    ("oracle.dual_expectation_s", "s", "lower"),
    ("oracle.matvecs", "count", "lower"),
    ("oracle.matvec_bytes", "bytes", "lower"),
    ("oracle.build_us_per_state.s4368", "us", "lower"),
    ("oracle.semigroup_ms.s4368", "ms", "lower"),
    ("experiments.fanout_speedup", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
) + tuple((m + ".self_s", "s", "lower") for m in MODULES)


class Op:
    """Outcome of one CLI run."""

    def __init__(self, tag):
        self.tag = tag
        self.problems = []
        self.status = None
        self.setup_s = None
        self.wall_s = None
        self.rss_mb = None
        self.csv = None
        self.rows_failed = 0
        self.trace = None

    @property
    def failed(self):
        return bool(self.problems)


def _wait_group_gone(pgid, limit_s=10.0):
    """Wait until no process of the killed group (pool workers) is left."""
    t_stop = time.monotonic() + limit_s
    while time.monotonic() < t_stop:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _wait(proc, deadline):
    """Reap proc (killing its process group after the deadline); returns
    (exit status, rusage). The rusage of a reaped child covers the
    descendants it reaped itself, here the multiprocessing pool workers."""
    while True:
        pid, wstatus, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(wstatus)
            return proc.returncode, usage
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            _, wstatus, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(wstatus)
            _wait_group_gone(proc.pid)
            return None, usage
        time.sleep(0.02)


def recorded_rows_failed(workload):
    """{seed: rows_failed} of the seed sweep recorded in baseline.json."""
    try:
        with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
            entry = json.load(fh)["workloads"][workload]
    except (OSError, ValueError, KeyError):
        return {}
    return {int(k): v for k, v in entry.get("rows_failed_by_seed", {}).items()}


def chance_miss(est, se, target, tol):
    """True for a failing band row whose tolerance is 3 * stderr (stderr > 0)
    and whose miss is at most CHANCE_SIGMAS stderrs: a 3-sigma band is
    missed by chance at some seeds."""
    if target == "" or tol == "" or se == "" or float(se) <= 0:
        return False
    se_v = float(se)
    return (abs(float(tol) - 3.0 * se_v) <= 1e-9 * float(tol)
            and abs(float(est) - float(target)) <= CHANCE_SIGMAS * se_v)


def check_reports(op, csv_text, json_text, study, seed):
    """Recheck every CSV verdict from its own numbers; returns
    (rows_failed, failing rows that are not chance misses)."""
    lines = csv_text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        op.problems.append("CSV header missing or changed")
        return 0, []
    rows_failed = 0
    not_chance = []
    for line in lines[1:]:
        head, *mid = line.split(",")
        if head != study or len(mid) < 6:
            op.problems.append(f"malformed CSV row {line!r}")
            continue
        est, se, target, tol, verdict = mid[-5:]
        if verdict not in ("true", "false"):
            op.problems.append(f"bad pass field in {line!r}")
            continue
        passed = verdict == "true"
        rows_failed += not passed
        if not passed and not chance_miss(est, se, target, tol):
            not_chance.append(line)
        if target == "":  # info row: no contract
            ok = True
        else:
            est_v, target_v = float(est), float(target)
            slack = 1e-9 * max(1.0, abs(est_v), abs(target_v))
            if tol != "":  # band row
                gap = abs(est_v - target_v) - float(tol)
            else:  # threshold row
                gap = target_v - est_v
            if abs(gap) <= slack:
                continue  # on the boundary to printed precision
            ok = gap < 0
        if ok != passed:
            op.problems.append(f"verdict disagrees with its numbers: {line!r}")
    try:
        summary = json.loads(json_text)
    except ValueError:
        op.problems.append("JSON summary does not parse")
        return rows_failed, not_chance
    if (summary.get("study") != study or summary.get("seed") != seed
            or summary.get("pass") != (rows_failed == 0)):
        op.problems.append(f"JSON summary disagrees with the CSV: {summary}")
    return rows_failed, not_chance


class Bench:
    def __init__(self, workload, seed, tmp):
        self.workload = workload
        self.study, self.dominant, _ = WORKLOADS[workload]
        self.config = os.path.join(HERE, "workloads", workload + ".conf")
        self.seed = seed
        # rows that may fail at this seed, or None to allow only chance misses
        self.expected_rows_failed = (
            0 if seed == DEFAULT_SEED else recorded_rows_failed(workload).get(seed))
        self.tmp = tmp
        self.t_end = time.monotonic() + RUN_TIMEOUT_S
        self.ops = []

    def cli(self, mode, workers, tag):
        """One CLI run, recorded in self.ops."""
        op = Op(tag)
        self.ops.append(op)
        out_dir = os.path.join(self.tmp, tag)
        stamps_path = out_dir + ".stamps.json"
        trace_path = out_dir + ".trace.json"
        err_path = out_dir + ".stderr"
        argv = [sys.executable, CHILD, SRC, stamps_path, mode, trace_path, "--",
                self.study, "--config", self.config, "--seed", str(self.seed),
                "--workers", str(workers), "--out", out_dir]
        with open(err_path, "wb") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL,
                                    stdout=err, stderr=err, start_new_session=True)
            op.status, usage = _wait(proc, self.t_end)
        op.rss_mb = usage.ru_maxrss / 1024.0
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        if op.status is None:
            op.problems.append("timed out")
        if "Traceback" in stderr:
            op.problems.append("raised: " + stderr.strip().splitlines()[-1])
        try:
            with open(stamps_path, encoding="utf-8") as fh:
                stamps = json.load(fh)
            op.setup_s = stamps["study_start"] - t_spawn
            op.wall_s = stamps["done"] - stamps["study_start"]
        except (OSError, ValueError, KeyError):
            op.problems.append("no time stamps")
        base = os.path.join(out_dir, self.study)
        try:
            with open(base + ".csv", encoding="utf-8") as fh:
                op.csv = fh.read()
            with open(base + ".json", encoding="utf-8") as fh:
                json_text = fh.read()
        except OSError:
            op.problems.append("report files missing")
        else:
            op.rows_failed, not_chance = check_reports(op, op.csv, json_text,
                                                       self.study, self.seed)
            if self.expected_rows_failed is not None:
                if op.rows_failed != self.expected_rows_failed:
                    op.problems.append(f"{op.rows_failed} rows failed, expected "
                                       f"{self.expected_rows_failed} at this seed")
            elif not_chance:
                op.problems.append("rows failed beyond chance: " + " | ".join(not_chance))
            expected = 2 if op.rows_failed else 0
            if op.status is not None and op.status != expected:
                op.problems.append(f"exit status {op.status}, expected {expected}")
        if mode == "traced":
            try:
                with open(trace_path, encoding="utf-8") as fh:
                    op.trace = json.load(fh)
            except (OSError, ValueError):
                op.problems.append("trace missing")
        reference = next((o.csv for o in self.ops if o.csv is not None), op.csv)
        if op.csv is not None and op.csv != reference:
            op.problems.append("CSV bytes differ from an earlier run of this seed")
        return op

    def untraced(self, seconds):
        t_begin = time.monotonic()
        while True:
            op = self.cli("full", WORKERS, f"rep{len(self.ops)}")
            reps = len(self.ops)
            elapsed = time.monotonic() - t_begin
            if op.status is None or (reps >= MIN_REPS
                                     and elapsed * (reps + 1) / reps > seconds):
                break
        if any(o.failed for o in self.ops):
            return {}
        return {
            "wall_s": [o.wall_s for o in self.ops],
            "setup_s": [o.setup_s for o in self.ops],
            "peak_rss_mb": [o.rss_mb for o in self.ops],
        }

    def traced(self):
        w2 = self.cli("full", WORKERS, "workers2")
        w1 = self.cli("full", 1, "workers1")
        tr = self.cli("traced", 1, "traced")
        try:
            probe = subprocess.run([sys.executable, PROBES, SRC, str(self.seed)],
                                   cwd=ROOT, capture_output=True, text=True,
                                   timeout=max(1.0, self.t_end - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise SystemExit("probes timed out") from None
        if probe.returncode != 0:
            raise SystemExit("probes failed:\n" + probe.stderr)
        probes = json.loads(probe.stdout.strip().splitlines()[-1])
        if any(o.failed for o in (w2, w1, tr)) or tr.trace is None:
            return {}
        metrics = layer_metrics(tr.trace, probes, w1, w2, tr)
        if not metrics[self.dominant + ".self_s"] > 0:
            tr.problems.append(f"no self time traced in {self.dominant}")
        write_out(f"trace-{self.workload}-seed{self.seed}.json",
                  {"workload": self.workload, "seed": self.seed, "metrics": metrics,
                   **tr.trace})
        return {k: [v] for k, v in metrics.items()}


def write_out(name, obj):
    """Write obj as JSON to .perfbench_out/name."""
    path = os.path.join(OUT, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    print(f"wrote {os.path.relpath(path, ROOT)}")


def layer_metrics(trace, probes, w1, w2, tr):
    agg, counts = trace["aggregates"], trace["counts"]
    work = trace["oracle_work"]

    def incl(*names):
        return sum(agg[n]["inclusive_s"] for n in names if n in agg)

    def calls(*names):
        return sum(agg[n]["calls"] if n in agg else counts.get(n, 0) for n in names)

    def rate(n, s):
        return n / s if s > 0 else 0.0

    duality = ("duality.DualityEvaluator.value", "duality.DualityEvaluator.closed_transform")
    out = {
        "core.streams": calls("core.RandomStream.__init__"),
        "core.stream_init_s": incl("core.RandomStream.__init__"),
        "core.refills": calls("core.RandomStream.refill"),
        "core.refill_s": incl("core.RandomStream.refill", "core.RandomStream.tolist"),
        "dynamics.sample_at_times_s": incl("dynamics.sample_at_times"),
        "dynamics.events": calls("dynamics.gillespie_step"),
        "coupling.or_distance_s": incl("coupling.or_distance_single"),
        "coupling.events": calls("coupling.or_coupled_step"),
        "measures.sample_product_s": incl("measures.sample_product"),
        "measures.sample_product_calls": calls("measures.sample_product"),
        "duality.eval_s": incl(*duality),
        "duality.eval_calls": calls(*duality),
        "stats.batched_s": incl("stats.batched"),
        "stats.batched_calls": calls("stats.batched"),
        "oracle.state_space_s": incl("oracle.state_space"),
        "oracle.build_generator_s": incl("oracle.build_generator"),
        "oracle.states": work["states"],
        "oracle.nnz": work["nnz"],
        "oracle.semigroup_s": incl("oracle.semigroup_apply"),
        "oracle.dual_expectation_s": incl("oracle.exact_dual_expectation"),
        "oracle.matvecs": work["matvecs"],
        "oracle.matvec_bytes": work["matvec_bytes"],
        "experiments.fanout_speedup": w1.wall_s / w2.wall_s,
        "trace.overhead_s": tr.wall_s - w1.wall_s,
    }
    out["dynamics.events_per_s"] = rate(out["dynamics.events"],
                                        out["dynamics.sample_at_times_s"])
    out["coupling.events_per_s"] = rate(out["coupling.events"],
                                        out["coupling.or_distance_s"])
    out["oracle.states_per_s"] = rate(out["oracle.states"],
                                      out["oracle.build_generator_s"])
    out.update(probes)
    for module, value in trace["module_self_s"].items():
        out[module + ".self_s"] = value
    return out


def tail(values):
    """(percentile, value): the highest percentile with >= 10 samples beyond
    it, or None for fewer than 11 samples."""
    n = len(values)
    if n < 11:
        return None
    return 100 * (n - 10) // n, sorted(values)[n - 11]


def summarize(samples, defs):
    """Median of each metric, printed with its spread and sample count."""
    metrics = {}
    for name, unit in defs:
        values = samples.get(name)
        if not values:
            continue
        med = statistics.median(values)
        if len(values) == 1:
            print(f"  {name}: {med:.6g} {unit}")
        else:
            high = tail(values)
            high = (f"p{high[0]} {high[1]:.6g}" if high
                    else "no percentile has 10 samples beyond it")
            print(f"  {name}: median {med:.6g} {unit} (n={len(values)}, "
                  f"min {min(values):.6g}, max {max(values):.6g}; {high})")
        metrics[name] = {"value": med, "unit": unit}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0 (the CLI rejects negative seeds)")
    if not os.path.isfile(os.path.join(SRC, "sipsim", "cli.py")):
        print(f"error: no sipsim source tree under {ROOT}; run from the repo root",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        bench = Bench(args.workload, args.seed, tmp)
        print(f"workload {args.workload}: {bench.study} seed {args.seed} "
              f"trace {args.trace}")
        if args.trace:
            samples = bench.traced()
            defs = [(name, unit) for name, unit, _ in PER_LAYER]
        else:
            samples = bench.untraced(args.seconds)
            defs = [(name, unit) for name, unit, _ in END_TO_END]
            # every repetition, for tail percentiles pooled over seeds
            write_out(f"samples-{args.workload}-seed{args.seed}.json", samples)
        metrics = summarize(samples, defs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    ops = bench.ops
    failed = [o for o in ops if o.failed]
    rows_failed = max((o.rows_failed for o in ops), default=0)
    for o in failed:
        print(f"  FAILED {o.tag}: {'; '.join(o.problems)}")
    print(f"  ops_failed: {len(failed)}/{len(ops)}")
    print(f"  rows_failed: {rows_failed}")
    correct = not failed and len(metrics) == len(defs)
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
