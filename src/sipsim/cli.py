"""Batch front door: flat key=value configs in, CSV/JSON reports out.

Exit status: 0 when every contract row passes, 2 on a statistical failure,
1 on usage, configuration or runtime errors (in which case no output files
are written). Reports are written atomically (temp file then rename).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
import tempfile
import time

from . import __version__
from .experiments import _CONVERGENCE_LAWS, RUNNERS, STUDIES, ExperimentConfig


class ConfigError(ValueError):
    """Invalid configuration text; carries a line number when known."""

    def __init__(self, message, line=None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


# key -> parser; every config value is a scalar, a site list, or a pair list
def _parse_floats(v):
    return tuple(float(tok) for tok in v.split())


def _parse_ints(v):
    return tuple(int(tok) for tok in v.split())


def _parse_sites(v):
    # sites separated by whitespace, coordinates by commas: "0 10" or "0,0 1,2"
    return tuple(tuple(int(c) for c in tok.split(",")) for tok in v.split())


def _parse_mixture(v):
    # atoms "lam:weight" separated by whitespace: "0.2:0.5 0.6:0.5"
    atoms = []
    for tok in v.split():
        lam, _, w = tok.partition(":")
        if not _:
            raise ValueError(f"mixture atom {tok!r} must look like lam:weight")
        atoms.append((float(lam), float(w)))
    return tuple(atoms)


_KEY_PARSERS = {
    "d": int,
    "boundary": str,
    "L": int,
    "m": float,
    "seed": int,
    "replicas": int,
    "t_grid": _parse_floats,
    "lambda": float,
    "theta": float,
    "mixture": _parse_mixture,
    "initial_law": str,
    "xi": _parse_sites,
    "eta": _parse_sites,
    "xi_sizes": _parse_ints,
    "n": int,
    "delta": float,
    "schedule_t0": float,
    "schedule_doublings": int,
    "iterated_replicas": int,
    "x_start": _parse_sites,
    "y_start": _parse_sites,
}

_COMMON_KEYS = {"d", "boundary", "L", "m", "seed"}

# renames from config syntax to ExperimentConfig fields
_FIELD_OF_KEY = {"lambda": "lam"}
_KEY_OF_FIELD = {field: key for key, field in _FIELD_OF_KEY.items()}

# built-in defaults, where they differ from ExperimentConfig's; every
# subcommand runs out of the box
DEFAULT_CONFIGS = {
    "self-duality": {
        "boundary": "torus", "L": 5, "xi": ((0,), (2,)), "eta": ((0,), (1,), (3,)),
        "t_grid": (0.5, 1.0, 2.0), "replicas": 20000,
    },
    "stationarity": {"boundary": "torus", "L": 10, "lam": 0.4, "replicas": 100000},
    "coupling": {
        "x_start": ((0,), (10,)), "y_start": ((3,), (17,)),
        "t_grid": (100.0, 1000.0, 10000.0), "replicas": 500,
        "delta": 0.8, "schedule_t0": 25.0, "schedule_doublings": 20,
    },
    "or-distance": {"x_start": ((0,), (1,)), "t_grid": (100.0, 1000.0, 10000.0)},
    "convergence": {
        "initial_law": "poisson", "theta": 1.0, "xi": ((0,), (1,)),
        "t_grid": (1.0, 10.0, 100.0, 400.0), "replicas": 10000,
    },
    "correlation": {
        "boundary": "torus", "L": 8, "mixture": ((0.2, 0.5), (0.6, 0.5)), "replicas": 100000,
    },
    "factorization": {
        "boundary": "torus", "L": 5, "lam": 0.4,
        "eta": ((0,), (1,), (3,)), "t_grid": (5.0, 10.0, 20.0, 40.0),
    },
    "oracle-check": {
        "boundary": "torus", "L": 5, "xi": ((0,), (2,)),
        "eta": ((0,), (1,), (3,)), "t_grid": (0.5, 1.0, 2.0),
    },
}


def parse_config(text: str, study: str) -> ExperimentConfig:
    """Parse flat key=value text (UTF-8, '#' comments) into a validated config.

    Unknown and duplicate keys are hard errors with line numbers; values
    outside their documented domains are rejected with the offending key
    named. Missing optional keys fall back to the study's defaults.
    """
    if study not in STUDIES:
        raise ConfigError(f"unknown study {study!r}")
    spec = STUDIES[study]
    allowed = _COMMON_KEYS | {_KEY_OF_FIELD.get(f, f) for f in spec.required + spec.optional}
    raw = {}
    lines_of = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected key=value, got {stripped!r}", lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEY_PARSERS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key not in allowed:
            raise ConfigError(f"key {key!r} does not apply to study {study!r}", lineno)
        if key in raw:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        if not value:
            raise ConfigError(f"key {key!r} has no value", lineno)
        try:
            raw[key] = _KEY_PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}", lineno) from None
        lines_of[key] = lineno
    fields = dict(DEFAULT_CONFIGS[study])
    for key, value in raw.items():
        fields[_FIELD_OF_KEY.get(key, key)] = value
    law = fields.get("initial_law") if study == "convergence" else None
    if law in _CONVERGENCE_LAWS:  # the run reads the field of its initial law alone
        unread = {field for field, _ in _CONVERGENCE_LAWS.values()} - {_CONVERGENCE_LAWS[law][0]}
        for key in (key for key in raw if _FIELD_OF_KEY.get(key, key) in unread):
            raise ConfigError(f"key {key!r} is not read with initial_law {law!r}", lines_of[key])
    try:
        return ExperimentConfig(study=study, **fields)
    except ValueError as exc:
        # a domain error names its field: report it as a key, on its line if set
        field = getattr(exc, "field", None)
        message = str(exc)
        for name, key in _KEY_OF_FIELD.items():
            message = re.sub(rf"\b{name}\b", key, message)
        raise ConfigError(message, lines_of.get(_KEY_OF_FIELD.get(field, field))) from None


def _atomic_write(path: str, data: str):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-report-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run(args: argparse.Namespace) -> int:
    """Execute the study `build_invocation` parsed and write its report
    files; returns the exit status."""
    try:
        text = ""  # no --config: the study's defaults
        if args.config is not None:  # utf-8-sig: a leading byte-order mark is dropped
            with open(args.config, "r", encoding="utf-8-sig") as fh:
                text = fh.read()
        cfg = parse_config(text, args.study)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        os.makedirs(args.out, exist_ok=True)  # an unusable --out fails before the run
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if STUDIES[args.study].exact:  # scipy's import stays off the report clock
        from . import oracle  # noqa: F401
    t0 = time.monotonic()
    try:
        report = RUNNERS[args.study](cfg, workers=args.workers)
    except Exception as exc:  # runtime failure: no partial outputs
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report.wall_ms = int((time.monotonic() - t0) * 1000.0)
    base = os.path.join(args.out, args.study)
    _atomic_write(base + ".csv", report.csv_text())
    _atomic_write(base + ".json", json.dumps(report.json_summary(), indent=2) + "\n")
    return 0 if report.passed else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # status 2 means a statistical failure
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_invocation(argv) -> argparse.Namespace:
    parser = _Parser(
        prog="sip-verify",
        description="Run one verification study of the inclusion-process simulator.",
    )
    parser.add_argument("study", choices=STUDIES)
    parser.add_argument("--config", default=None, metavar="PATH")
    parser.add_argument("--seed", type=int, default=None, metavar="N")
    parser.add_argument("--out", default="reports", metavar="DIR")
    parser.add_argument("--workers", type=int, default=1, metavar="N")
    parser.add_argument("--version", action="version", version=f"sip-verify {__version__}")
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    return args


def main(argv=None) -> None:
    sys.exit(run(build_invocation(argv)))


if __name__ == "__main__":
    main()
