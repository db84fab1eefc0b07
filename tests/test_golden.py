"""Golden report bytes: every study at a tiny size, seed 0, plus two
benchmark workloads, a d = 2 torus OR distance and a coupling on Z^2.

The files under tests/golden/ pin what the statistical checks cannot see:
the stream arm ids, the replica-to-stream mapping and the order of rows.
Each report must come out byte for byte the same at one and two workers.
Regenerate them only for a change that is meant to alter the draws, or one
that fixes the CSV format: stationarity.csv was regenerated once when a
statistic holding a comma, such as `direct_moment[n=1,t=0.5]`, came to be
quoted, which changed no other byte.
"""

import csv
import io
import os
from dataclasses import replace

import pytest

from sipsim.cli import DEFAULT_CONFIGS, parse_config
from sipsim.experiments import RUNNERS, ExperimentConfig

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

CONFIGS = {
    "self-duality": dict(boundary="torus", L=4, xi=((0,), (2,)), eta=((0,), (1,)),
                         t_grid=(0.5, 1.0), replicas=100),
    # a site of xi held twice and eta out of lexicographic order pin the
    # particle-label order and the order of the duality factors
    "self-duality-stacked": dict(boundary="torus", d=2, L=3, xi=((1, 1), (0, 2), (1, 1)),
                                 eta=((2, 1), (1, 1), (0, 2), (1, 1)),
                                 t_grid=(0.5, 1.0), replicas=100),
    "stationarity": dict(boundary="torus", L=5, lam=0.4, xi_sizes=(1, 2),
                         t_grid=(0.5, 1.0), replicas=100),
    "coupling": dict(x_start=((0,), (2,)), y_start=((3,), (7,)), t_grid=(5.0, 50.0),
                     replicas=100, iterated_replicas=100, delta=0.6, schedule_t0=5.0,
                     schedule_doublings=3),
    "or-distance": dict(x_start=((0,), (1,)), t_grid=(5.0, 50.0), replicas=100),
    "convergence": dict(initial_law="poisson", theta=1.0, xi=((0,), (1,)),
                        t_grid=(1.0, 5.0), replicas=100),
    "correlation": dict(boundary="torus", L=4, mixture=((0.2, 0.5), (0.6, 0.5)), n=2,
                        replicas=200),
    "factorization": dict(boundary="torus", L=4, lam=0.4, eta=((0,), (1,)),
                          t_grid=(1.0, 2.0)),
    "oracle-check": dict(boundary="torus", L=4, xi=((0,), (2,)), eta=((0,), (1,)),
                         t_grid=(0.5, 1.0)),
    # the stationarity-dense and oracle-2d benchmark workloads, values copied
    # from their configs over the study defaults
    "stationarity-dense": dict(boundary="torus", d=2, L=8, m=2.0, lam=0.5, xi_sizes=(1, 2, 3),
                               t_grid=(0.25,), replicas=640),
    "oracle-2d": dict(boundary="torus", d=2, L=4, m=2.0, xi=((0, 0), (0, 2)),
                      eta=((0, 0), (0, 1), (1, 1), (2, 3), (3, 3), (1, 2)),
                      t_grid=(0.5, 1.0, 2.0)),
    # two particles 8 apart on the 8x8 torus: OR free flights that wrap (the decay
    # rows read false, as from far apart the distance has only begun to grow)
    "or-distance-torus": dict(boundary="torus", d=2, L=8, x_start=((0, 0), (4, 4)),
                              t_grid=(5.0, 50.0), replicas=100),
    # two particles on Z^2: stage two's sync watches count one axis each, the
    # per-axis mask of `_free_flight`, which no d = 1 run and no torus OR run reaches
    "coupling-2d": dict(d=2, x_start=((0, 0), (3, 1)), y_start=((2, 1), (4, 4)),
                        t_grid=(5.0, 40.0), replicas=100, iterated_replicas=100, delta=0.6,
                        schedule_t0=5.0, schedule_doublings=3),
}


# rows appended to a report after its golden file was cut: every earlier
# line keeps its bytes and position, so dropping these must give the file
LATER_ROWS = ("convergence,temperedness_bound[",)

# golden files beyond one per study: file name -> study
STUDY_OF = {"self-duality-stacked": "self-duality", "stationarity-dense": "stationarity",
            "oracle-2d": "oracle-check", "or-distance-torus": "or-distance",
            "coupling-2d": "coupling"}


def golden_csv(name, workers):
    study = STUDY_OF.get(name, name)
    cfg = ExperimentConfig(study=study, seed=0, **CONFIGS[name])
    text = RUNNERS[study](cfg, workers=workers).csv_text()
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith(LATER_ROWS))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("study", sorted(CONFIGS))
def test_report_bytes_match_golden(study, workers):
    with open(os.path.join(GOLDEN, study + ".csv"), encoding="utf-8") as fh:
        assert golden_csv(study, workers) == fh.read()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_rows_parse_into_seven_fields(name):
    with open(os.path.join(GOLDEN, name + ".csv"), encoding="utf-8", newline="") as fh:
        assert {len(row) for row in csv.reader(fh)} == {7}


@pytest.mark.parametrize("study", sorted(DEFAULT_CONFIGS))
def test_default_report_rows_parse_into_seven_fields(study):
    # a default report's statistics follow its grid and probe sizes, not its
    # replica counts or its schedule's length, so a small run of the default
    # config prints every statistic the full run prints
    cfg = replace(parse_config("", study), replicas=100, iterated_replicas=100,
                  schedule_doublings=2)
    report = RUNNERS[study](cfg, workers=1)
    rows = list(csv.reader(io.StringIO(report.csv_text())))
    assert [len(row) for row in rows] == [7] * (len(report.rows) + 1)
    assert [row[1] for row in rows[1:]] == [r.statistic for r in report.rows]
    assert len({r.statistic for r in report.rows}) == len(report.rows)  # no row printed twice
