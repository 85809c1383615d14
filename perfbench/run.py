"""Benchmark entry point.

    python3 perfbench/run.py --workload serve-stream --seed 1 --seconds 20 --trace 0

Runs one named workload in a fresh interpreter (``perfbench/workload.py``)
with BLAS/OpenMP pinned to one thread and ``src/`` on the import path,
and relays its output.  The last line of standard output is the result
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones (see ``perfbench/README.md``).

The exit code is the workload's; it is not 0 when the repository's
``src/repro`` package is missing, so a checkout without the program
fails fast instead of printing a result.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve-stream", "generate-compact", "campaign-sweep")

#: Thread-count variables pinned to one in the workload's environment:
#: two BLAS threads fighting over the host's two cores make every
#: timing noisier without making the single-threaded solver faster.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: Hard wall-clock cap on one workload process (seconds).
CHILD_TIMEOUT = 175.0


def child_env() -> dict[str, str]:
    """Environment of the workload process."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    command = [sys.executable, str(HERE / "workload.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--t0", repr(time.monotonic())]
    # A session of its own, so a timeout also ends the campaign's
    # worker processes.
    proc = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                            start_new_session=True)
    try:
        return proc.wait(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload exceeded {CHILD_TIMEOUT:.0f} s",
              file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        try:  # stray workers of a crashed workload
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


if __name__ == "__main__":
    sys.exit(main())
