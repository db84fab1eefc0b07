"""One `sip-verify` run in a fresh interpreter, with time stamps.

Usage: python child.py SRC_DIR STAMPS_JSON MODE TRACE_JSON -- CLI_ARGS...

MODE is "full" (run the study) or "traced" (run it under the span tracer
and write the trace to TRACE_JSON). The study call is found by wrapping the
entry of `sipsim.experiments.RUNNERS` that the CLI dispatches to; stamps are taken
with time.monotonic(), which on Linux is CLOCK_MONOTONIC and therefore
comparable with the parent's clock. The package is run from the source
tree because it is not installed, and through `sipsim.cli.main` because
`python -m sipsim.cli` has no `__main__` guard.
"""

import json
import sys
import time


def main(argv):
    src, stamps_path, mode, trace_path, sep, *cli_args = argv
    if sep != "--" or mode not in ("full", "traced"):
        raise SystemExit("usage: child.py SRC STAMPS MODE TRACE -- CLI_ARGS...")
    sys.path.insert(0, src)
    import sipsim.cli
    import sipsim.experiments

    stamps = {}
    tracer = None
    if mode == "traced":
        import tracer as tracing

        tracer = tracing.Tracer(run_id=" ".join(cli_args))
        tracing.install(tracer)
    study = cli_args[0]
    runner = sipsim.experiments.RUNNERS[study]

    def stamped_runner(cfg, workers=1):
        stamps["study_start"] = time.monotonic()
        return runner(cfg, workers=workers)

    sipsim.experiments.RUNNERS[study] = stamped_runner
    status = 0
    try:
        sipsim.cli.main(cli_args)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    stamps["done"] = time.monotonic()
    with open(stamps_path, "w", encoding="utf-8") as fh:
        json.dump(stamps, fh)
    if tracer is not None:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
