"""One workload run in a fresh interpreter (started by ``run.py``).

Times the imports, runs the workload's set-up and timed phase, checks
the outputs and prints the result object as the last line of standard
output; exits 1 when a check failed.  With ``--trace 1`` the layer
spans of ``layers.py`` are installed before the program is imported,
and the per-layer metrics replace the end-to-end ones.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

MODULES = {
    "serve-stream": "serve_stream",
    "generate-compact": "generate_compact",
    "campaign-sweep": "campaign_sweep",
}
#: Where a traced run writes its spans (relative to the checkout).
TRACE_DIR = Path(".perfbench-out")
#: Extra interpreter start + import samples behind ``setup_s``.
IMPORT_PROBES = 2


def import_seconds(first: float, module: str) -> float:
    """Median time to start an interpreter and import the workload.

    *first* is this process's own sample; ``IMPORT_PROBES`` more come
    from fresh interpreters that only import (one sample of a ~1 s
    import does not repeat within a tenth).
    """
    samples = [first]
    for _ in range(IMPORT_PROBES):
        started = time.monotonic()
        subprocess.run([sys.executable, "-c", f"import {module}, checks"],
                       check=True)
        samples.append(time.monotonic() - started)
    return statistics.median(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None,
                        help="monotonic time the parent started us at")
    args = parser.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.monotonic()

    from common import NoTrace, end_to_end_metrics, peak_rss_mb
    tracer = NoTrace()
    if args.trace:
        import layers
        tracer = layers.Tracer()
        tracer.install()
    module = importlib.import_module(MODULES[args.workload])
    from checks import run_checks
    import_s = time.monotonic() - t0

    run, state = module.run(args.seed, args.seconds, tracer)
    rss_mb = peak_rss_mb()  # before the checks and the import probes
    if tracer.active:
        tracer.uninstall()  # the checks below are not the workload
    state["seed"] = args.seed
    problems = run_checks(args.workload, state)
    for problem in problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)

    if tracer.active:
        metrics = layers.per_layer_metrics(
            tracer, args.workload, state, run)
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = end_to_end_metrics(
            run, import_seconds(import_s, MODULES[args.workload]), rss_mb)
    print(json.dumps({"correct": not problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
