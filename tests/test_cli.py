import json
import os
import re
import subprocess
import sys
import time

import pytest

from sipsim import __version__
from sipsim.cli import (
    DEFAULT_CONFIGS,
    ConfigError,
    build_invocation,
    parse_config,
    run,
)
from sipsim.experiments import RUNNERS, STUDIES, Report
from sipsim.oracle import build_generator, state_space

CORRELATION_CFG = """\
# two-atom mixture, small sampling run
boundary = torus
L = 8
m = 2.0
mixture = 0.2:0.5 0.6:0.5
n = 2
replicas = 2000
seed = 21
"""


# the config keys each study accepts, written out literally: parse_config
# derives them from experiments.STUDIES, and an edit there must not move them
COMMON_KEYS = {"d", "boundary", "L", "m", "seed"}
STUDY_KEYS = {
    "self-duality": COMMON_KEYS | {"replicas", "t_grid", "xi", "eta"},
    "stationarity": COMMON_KEYS | {"replicas", "t_grid", "lambda", "xi_sizes"},
    "coupling": COMMON_KEYS | {"replicas", "t_grid"}
    | {"x_start", "y_start", "delta", "schedule_t0", "schedule_doublings", "iterated_replicas"},
    "or-distance": COMMON_KEYS | {"replicas", "t_grid", "x_start"},
    "convergence": COMMON_KEYS
    | {"replicas", "t_grid", "initial_law", "theta", "lambda", "mixture", "xi"},
    "correlation": COMMON_KEYS | {"replicas", "mixture", "n"},
    "factorization": COMMON_KEYS | {"t_grid", "lambda", "eta"},
    "oracle-check": COMMON_KEYS | {"t_grid", "xi", "eta"},
}


def fresh_python(code):
    """Run `code` in a new interpreter with the source tree on its path."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)


def invocation(study, tmp_path, config_text=None, seed=None, workers=1, name="run"):
    argv = [study, "--out", str(tmp_path / name), "--workers", str(workers)]
    if config_text is not None:
        config_path = str(tmp_path / f"{name}.cfg")
        with open(config_path, "w") as fh:
            fh.write(config_text)
        argv += ["--config", config_path]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return build_invocation(argv)


class TestParseConfig:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config("lambda = 0.3\n", "stationarity")
        assert cfg.lam == 0.3
        assert cfg.delta == 0.5  # documented default
        assert cfg.L == 10  # study default kept
        assert cfg.boundary == "torus"

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2: unknown key 'lamda'"):
            parse_config("m = 2.0\nlamda = 0.3\n", "stationarity")

    def test_key_for_wrong_study_rejected(self):
        with pytest.raises(ConfigError, match="does not apply"):
            parse_config("theta = 1.0\n", "stationarity")

    @pytest.mark.parametrize("study", list(STUDY_KEYS))
    def test_allowed_keys_per_study(self, study):
        # a key that does not apply is rejected before its value is parsed
        accepted = set()
        for key in set().union(*STUDY_KEYS.values()):
            try:
                parse_config(f"{key} = 1\n", study)
            except ConfigError as exc:
                if "does not apply" in str(exc):
                    continue
            accepted.add(key)
        assert accepted == STUDY_KEYS[study]

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="line 3: duplicate key 'm'"):
            parse_config("m = 2.0\nseed = 1\nm = 3.0\n", "stationarity")

    def test_domain_error_names_key_and_line(self):
        with pytest.raises(ConfigError, match="line 1") as err:
            parse_config("lambda = 1.2\n", "stationarity")
        assert "lambda must lie in" in str(err.value)

    def test_missing_law_parameter_is_named_by_its_key(self):
        # the config key is `lambda`; the ExperimentConfig field is `lam`
        with pytest.raises(ConfigError, match="line 1") as err:
            parse_config("initial_law = nu_lambda\n", "convergence")
        assert "requires the 'lambda' field" in str(err.value)
        assert not re.search(r"\blam\b", str(err.value))

    def test_the_default_theta_does_not_stop_another_initial_law(self):
        # DEFAULT_CONFIGS supplies theta = 1.0, which a written lambda must not trip
        cfg = parse_config("initial_law = nu_lambda\nlambda = 0.4\n", "convergence")
        assert (cfg.initial_law, cfg.lam) == ("nu_lambda", 0.4)

    @pytest.mark.parametrize("text,line", [
        ("schedule_t0 = -1\nschedule_doublings = 3\n", 1),
        ("schedule_doublings = 3\nschedule_t0 = -1\n", 2),
        ("schedule_t0 = 25\nschedule_doublings = -1\n", 2),
        ("schedule_doublings = -1\nschedule_t0 = 25\n", 1),
    ])
    def test_schedule_error_reports_the_offending_key(self, text, line):
        # the message names both schedule keys; the line is the faulty key's
        with pytest.raises(ConfigError, match=f"^line {line}: 'schedule_t0'"):
            parse_config(text, "coupling")

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# comment\n\nlambda = 0.2  # trailing\n", "stationarity")
        assert cfg.lam == 0.2

    def test_site_lists(self):
        cfg = parse_config("x_start = 0 10\ny_start = 3 17\n", "coupling")
        assert cfg.x_start == ((0,), (10,))
        assert cfg.y_start == ((3,), (17,))

    def test_2d_sites(self):
        text = "d = 2\nxi = 0,0 1,2\neta = 0,0 0,1 2,2\n"
        cfg = parse_config(text, "self-duality")
        assert cfg.xi == ((0, 0), (1, 2))

    def test_malformed_value(self):
        with pytest.raises(ConfigError, match="line 1: bad value"):
            parse_config("replicas = many\n", "stationarity")

    def test_default_configs_are_valid(self):
        for study in ("self-duality", "stationarity", "coupling", "or-distance",
                      "convergence", "correlation", "factorization", "oracle-check"):
            cfg = parse_config("", study)
            assert cfg.study == study


class TestArgs:
    def test_flags(self):
        inv = build_invocation(["correlation", "--seed", "9", "--out", "o",
                                "--workers", "4"])
        assert inv.study == "correlation"
        assert inv.seed == 9
        assert inv.workers == 4

    def test_unknown_study_rejected(self):
        with pytest.raises(SystemExit) as exc:
            build_invocation(["not-a-study"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv,code", [
        ("stationarity --workers 0", 1), ("stationarity --seed x", 1),
        ("stationarity --no-such-flag", 1), ("--help", 0), ("--version", 0),
    ])
    def test_usage_exit_status(self, argv, code):
        # a usage error writes nothing: exit 2 means a statistical failure
        with pytest.raises(SystemExit) as exc:
            build_invocation(argv.split())
        assert exc.value.code == code


class TestRun:
    def test_module_entry_point(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-m", "sipsim.cli", "--version"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"sip-verify {__version__}"

    def test_cold_start_leaves_scipy_unimported(self):
        # only the studies with exact rows need the solver, and scipy behind it
        proc = fresh_python("import sys\nimport sipsim.cli as cli\n"
                            "cli.parse_config('x_start = 0 1\\n', 'or-distance')\n"
                            "print('scipy' in sys.modules, 'sipsim.oracle' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False"]

    def test_exact_studies_load_the_solver_before_the_runner(self, tmp_path):
        # the import happens before the report clock starts, as the runner
        # entry of RUNNERS sees it
        proc = fresh_python(
            "import sys\nimport sipsim.cli as cli\nimport sipsim.experiments as ex\n"
            "runner = ex.RUNNERS['oracle-check']\n"
            "def entered(cfg, workers=1):\n"
            "    print('sipsim.oracle' in sys.modules)\n"
            "    return runner(cfg, workers=workers)\n"
            "ex.RUNNERS['oracle-check'] = entered\n"
            f"cli.main(['oracle-check', '--out', {str(tmp_path)!r}])\n")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True"]

    def test_a_byte_order_mark_before_the_config_is_dropped(self, tmp_path, monkeypatch):
        # an editor may save UTF-8 with a leading U+FEFF; the run then gets
        # the config the plain file gives
        seen = []
        monkeypatch.setitem(RUNNERS, "correlation",
                            lambda cfg, workers: seen.append(cfg) or Report("correlation", [], 0))
        for name, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
            path = tmp_path / f"{name}.cfg"
            path.write_text(CORRELATION_CFG, encoding=encoding)
            inv = build_invocation(["correlation", "--config", str(path),
                                    "--out", str(tmp_path / name)])
            assert run(inv) == 0
        assert (tmp_path / "bom.cfg").read_bytes()[:3] == b"\xef\xbb\xbf"
        assert seen == [parse_config(CORRELATION_CFG, "correlation")] * 2

    def test_oracle_check_default_config_exits_zero(self, tmp_path):
        inv = invocation("oracle-check", tmp_path)
        assert run(inv) == 0
        csv_path = os.path.join(inv.out, "oracle-check.csv")
        text = open(csv_path).read()
        assert "exact_gap[t=1]" in text
        assert "1e-08" in text  # the headline tolerance appears in the CSV
        summary = json.load(open(os.path.join(inv.out, "oracle-check.json")))
        assert summary["pass"] is True
        assert set(summary) == {"study", "seed", "version", "wall_ms", "pass"}

    def test_bad_domain_exits_one_without_outputs(self, tmp_path):
        inv = invocation("stationarity", tmp_path, config_text="lambda = 1.2\n")
        assert run(inv) == 1
        assert not os.path.exists(inv.out)

    @pytest.mark.parametrize("study,text", [
        ("stationarity", "t_grid = nan\n"),
        ("stationarity", "t_grid = 0.5 inf\n"),
        ("stationarity", "m = nan\n"),
        ("stationarity", "m = inf\n"),
        ("convergence", "theta = nan\n"),
        ("convergence", "theta = inf\n"),
        ("coupling", "schedule_t0 = nan\n"),
        ("coupling", "schedule_t0 = inf\n"),
        ("coupling", "schedule_t0 = 1e300\nschedule_doublings = 30\n"),
    ])
    def test_non_finite_value_exits_one_without_outputs(self, tmp_path, study, text):
        # each of these used to be accepted and then run without end
        inv = invocation(study, tmp_path, config_text=text)
        assert run(inv) == 1
        assert not os.path.exists(inv.out)

    @pytest.mark.parametrize("study", list(STUDIES))
    def test_study_table_errors_exit_one_before_dispatch(self, tmp_path, monkeypatch,
                                                         study):
        # config text cannot unset a field, so the bad configs come in as
        # built-in defaults
        calls = []
        monkeypatch.setitem(RUNNERS, study, lambda cfg, workers=1: calls.append(cfg))
        defaults = DEFAULT_CONFIGS[study]
        cases = [dict(defaults, **{name: None}) for name in STUDIES[study].required]
        if STUDIES[study].torus:
            cases.append(dict(defaults, boundary="infinite", L=None))
        for j, fields in enumerate(cases):
            monkeypatch.setitem(DEFAULT_CONFIGS, study, fields)
            inv = invocation(study, tmp_path, name=f"run{j}")
            assert run(inv) == 1
            assert not os.path.exists(inv.out)
        assert calls == []

    @pytest.mark.parametrize("study,text", [
        ("coupling", "t_grid = 1000\n"),
        ("or-distance", "t_grid = 1000\n"),
        ("factorization", "t_grid = 5\n"),
    ])
    def test_one_point_grid_exits_one_before_simulating(self, tmp_path, capsys,
                                                         study, text):
        # these contracts compare the first grid time with the last; a single
        # time used to run every replica and then fail or crash (factorization
        # exited 2, a false statistical failure)
        inv = invocation(study, tmp_path, config_text=text)
        assert run(inv) == 1
        assert not os.path.exists(inv.out)
        assert "line 1: t_grid" in capsys.readouterr().err

    @pytest.mark.parametrize("study,text,where", [
        ("factorization", "L = 4\nreplicas = 100\n", "line 2: key 'replicas'"),
        ("oracle-check", "replicas = 100\n", "line 1: key 'replicas'"),
        ("correlation", "n = 2\nt_grid = 1 2\n", "line 2: key 't_grid'"),
        # convergence reads the parameter of its initial law alone
        ("convergence", "initial_law = poisson\ntheta = 1\nlambda = 0.3\n"
         "mixture = 0.2:0.5 0.6:0.5\n", "line 3: key 'lambda' is not read with initial_law "
         "'poisson'"),
        ("convergence", "mixture = 0.2:0.5 0.6:0.5\n",
         "line 1: key 'mixture' is not read with initial_law 'poisson'"),
        ("convergence", "initial_law = nu_lambda\nlambda = 0.4\ntheta = 1\n",
         "line 3: key 'theta' is not read with initial_law 'nu_lambda'"),
        ("convergence", "theta = 1\ninitial_law = mixture\nmixture = 0.2:0.5 0.6:0.5\n",
         "line 1: key 'theta' is not read with initial_law 'mixture'"),
    ])
    def test_a_key_the_study_does_not_read_exits_one(self, tmp_path, capsys, study, text,
                                                      where):
        # these studies used to accept the key and then run without reading it
        inv = invocation(study, tmp_path, config_text=text)
        assert run(inv) == 1
        assert not os.path.exists(inv.out)
        reason = "" if study == "convergence" else f" does not apply to study '{study}'"
        assert f"error: {where}{reason}" in capsys.readouterr().err

    @pytest.mark.parametrize("study,text,where", [
        ("or-distance", "t_grid = 0 100\n", "line 1: t_grid"),
        ("coupling", "t_grid = 0 100\n", "line 1: t_grid"),
        ("factorization", "t_grid = 0 5 10\n", "line 1: t_grid"),
        ("correlation", "L = 3\nn = 4\n", "line 2: n = 4"),
        ("convergence", "initial_law = gamma\n", "line 1: initial_law"),
        ("convergence", "m = 3\ninitial_law = nu_lambda\n", "line 2: initial_law"),
        # two_stage_coupling raised on unequal sizes; the other two gave exit 2
        ("coupling", "x_start = 0 10\ny_start = 3\n", "line 2: y_start"),
        ("coupling", "x_start = 0 10\ny_start = 0 10\n", "line 2: y_start"),
        ("or-distance", "x_start = 0\nt_grid = 1 2\nreplicas = 100\n", "line 1: x_start"),
    ])
    def test_study_errors_exit_one_with_their_line_before_dispatch(
            self, tmp_path, capsys, monkeypatch, study, text, where):
        # each of these used to be raised by the runner, with no line
        calls = []
        monkeypatch.setitem(RUNNERS, study, lambda cfg, workers=1: calls.append(cfg))
        inv = invocation(study, tmp_path, config_text=text)
        assert run(inv) == 1
        assert not os.path.exists(inv.out)
        assert calls == []
        assert f"error: {where}" in capsys.readouterr().err

    @pytest.mark.parametrize("study,text,where", [
        ("self-duality", "boundary = torus\nd = 1\nL = 4\nxi = 5\neta = 0 1\n"
         "replicas = 200\n", "line 4: xi"),
        ("oracle-check", "eta = 0 -1\n", "line 1: eta"),
        ("coupling", "boundary = torus\nL = 12\nx_start = 0 1\ny_start = 3 12\n",
         "line 4: y_start"),
        ("or-distance", "boundary = torus\nL = 4\nx_start = 0 4\n", "line 3: x_start"),
    ])
    def test_torus_sites_outside_the_box_exit_one(self, tmp_path, capsys, study, text,
                                                  where):
        # the oracle reduces sites mod L but the Monte Carlo arms do not, so an
        # unreduced site used to give a false statistical failure (exit 2)
        inv = invocation(study, tmp_path, config_text=text)
        assert run(inv) == 1
        assert not os.path.exists(inv.out)
        assert f"error: {where} coordinates must lie in [0, " in capsys.readouterr().err

    def test_reduced_torus_site_runs(self, tmp_path):
        # the same self-duality run with xi = 1 in place of xi = 5
        text = "boundary = torus\nd = 1\nL = 4\nxi = 1\neta = 0 1\nreplicas = 200\n"
        assert run(invocation("self-duality", tmp_path, config_text=text)) == 0

    def test_wall_ms_times_the_runner(self, tmp_path, monkeypatch):
        def slow_runner(cfg, workers=1):
            time.sleep(0.05)
            return Report(study=cfg.study, rows=[], seed=cfg.seed)

        monkeypatch.setitem(RUNNERS, "oracle-check", slow_runner)
        inv = invocation("oracle-check", tmp_path)
        assert run(inv) == 0
        summary = json.load(open(os.path.join(inv.out, "oracle-check.json")))
        assert summary["wall_ms"] >= 50

    @pytest.mark.parametrize("below", [(), ("sub",)])
    def test_unusable_out_exits_one_before_dispatch(self, tmp_path, capsys, monkeypatch,
                                                    below):
        # --out naming a file, or a path through one, used to fail with a
        # traceback once the whole study had run
        calls = []
        runner = RUNNERS["factorization"]
        monkeypatch.setitem(RUNNERS, "factorization",
                            lambda cfg, workers=1: calls.append(cfg) or runner(cfg, workers))
        blocker = tmp_path / "file"
        blocker.write_text("")
        inv = build_invocation(["factorization", "--out", os.path.join(blocker, *below)])
        assert run(inv) == 1
        assert calls == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("study,line", [
        ("or-distance", "d = 0"),
        ("self-duality", "L = 2"),
        ("or-distance", "m = 0"),
        ("convergence", "theta = -1"),
        ("correlation", "mixture = 0.2:0.5 0.6:0.4"),
        ("correlation", "mixture = -0.2:0.5 0.6:0.5"),
        ("stationarity", "xi_sizes = 1 1"),
    ], ids=["d", "L", "m", "theta", "mixture-weights", "mixture-lambda", "xi_sizes"])
    def test_out_of_domain_value_exits_one_naming_key_and_line(self, tmp_path, capsys,
                                                                study, line):
        # the model objects state the domains of d, L, m, theta and the
        # mixture; a repeated xi_sizes entry would print its rows twice
        key = line.split(" = ")[0]
        inv = invocation(study, tmp_path, config_text=f"replicas = 200\n{line}\n")
        assert run(inv) == 1
        assert re.match(rf"error: line 2: .*\b{key}\b", capsys.readouterr().err)
        assert not os.path.exists(inv.out)

    def test_missing_config_file_exits_one(self, tmp_path):
        inv = build_invocation(["correlation", "--config", str(tmp_path / "nope.cfg"),
                                "--out", str(tmp_path / "o")])
        assert run(inv) == 1

    def test_statistical_failure_exits_two(self, tmp_path):
        # the Poisson transient at t=1 sits far outside the stated band, an
        # honest failing contract (exact transient value 0.8236 vs target 1)
        text = ("initial_law = poisson\ntheta = 1.0\nxi = 0 1\n"
                "t_grid = 1.0\nreplicas = 400\nseed = 3\n")
        inv = invocation("convergence", tmp_path, config_text=text)
        assert run(inv) == 2
        csv_path = os.path.join(inv.out, "convergence.csv")
        assert os.path.exists(csv_path)
        assert ",false" in open(csv_path).read()

    def test_oracle_check_bytes_equal_at_every_worker_count(self, tmp_path):
        # a 3,876-state sector on the 4x4 torus, built afresh for each run;
        # its sweeps run on 1, 2 and 3 threads
        text = "d = 2\nL = 4\nxi = 0,0 1,2\neta = 0,0 0,1 2,3 3,3\n"
        reports = set()
        for workers in (1, 2, 3):
            state_space.cache_clear()
            build_generator.cache_clear()
            inv = invocation("oracle-check", tmp_path, config_text=text, workers=workers,
                             name=f"workers{workers}")
            assert run(inv) == 0
            with open(os.path.join(inv.out, "oracle-check.csv"), "rb") as fh:
                reports.add(fh.read())
        assert len(reports) == 1
        assert b"state_count[n=4],3876," in reports.pop()

    def test_rerun_is_byte_identical(self, tmp_path):
        inv1 = invocation("correlation", tmp_path, config_text=CORRELATION_CFG, name="a")
        inv2 = invocation("correlation", tmp_path, config_text=CORRELATION_CFG, name="b")
        assert run(inv1) == 0
        assert run(inv2) == 0
        a = open(os.path.join(inv1.out, "correlation.csv"), "rb").read()
        b = open(os.path.join(inv2.out, "correlation.csv"), "rb").read()
        assert a == b

    def test_seed_override_changes_output(self, tmp_path):
        inv1 = invocation("correlation", tmp_path, config_text=CORRELATION_CFG,
                          name="a")
        inv2 = invocation("correlation", tmp_path, config_text=CORRELATION_CFG,
                          seed=99, name="b")
        run(inv1)
        run(inv2)
        a = open(os.path.join(inv1.out, "correlation.csv")).read()
        b = open(os.path.join(inv2.out, "correlation.csv")).read()
        assert a != b

    def test_no_partial_files_on_success(self, tmp_path):
        inv = invocation("correlation", tmp_path, config_text=CORRELATION_CFG)
        run(inv)
        leftovers = [f for f in os.listdir(inv.out) if f.startswith(".tmp-")]
        assert leftovers == []
