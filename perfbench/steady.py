"""Steadiness command: run one workload K times and show the spread.

    python3 perfbench/steady.py --workload serve-stream --runs 10 \\
        --seconds 20 [--first-seed 1]

Each run uses the next seed.  Before and after every run it times a
fixed reference kernel (numpy matrix work plus a Python loop, ~30 ms)
so host drift can be told apart from a change of the program.  At the
end it prints, for every end-to-end metric, the median, the quartiles
(``statistics.quantiles(n=4)``) and the quartile spread as a share of
the median, next to the metric's bound in ``BENCHMARK.json``.

The bounds are set from the spread between two sets of runs taken
minutes apart (compare the medians two invocations print), not from
the spread within one set, because the host drifts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def reference_kernel_ms(repeats: int = 9) -> float:
    """Median time of a fixed ~30 ms numpy + Python kernel."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((160, 160))
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(12):
            np.linalg.solve(a, a)
        total = 0.0
        for i in range(60000):
            total += (i % 7) * 0.5
        times.append(time.perf_counter() - started)
    return 1e3 * statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    shares = set()
    for k in range(args.runs):
        seed = args.first_seed + k
        before = reference_kernel_ms()
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, check=False)
        wall = time.monotonic() - started
        after = reference_kernel_ms()
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}", flush=True)
            continue
        result = json.loads(lines[-1])
        shares.add((result["failed"] / result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: kernel {before:.1f} -> {after:.1f} ms, "
              f"wall {wall:.1f} s, correct {result['correct']}, "
              f"{result['failed']}/{result['attempted']} failed, "
              + ", ".join(f"{n}={m['value']:.4g}"
                          for n, m in result["metrics"].items()),
              flush=True)

    print(f"\n{args.workload}: {len(next(iter(values.values()), []))} runs, "
          f"failed shares {sorted(shares)}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = (statistics.quantiles(series, n=4) if len(series) > 1
                     else (median, median, median))
        spread = (q3 - q1) / median if median else 0.0
        print(f"  {name:16s} median {median:.5g}  q1 {q1:.5g}  q3 {q3:.5g}"
              f"  spread {spread:.3f}  bound {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
