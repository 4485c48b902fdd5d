"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload lookup-hot --seed 1 --seconds 20 --trace 0

Run from the root of a checkout of the repository: the server is built
from ``src/`` there.  Every metric is printed by name with its unit and
sample count; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics of ``BENCHMARK.json`` for ``--trace 0``, its per-layer metrics
for ``--trace 1``).  The exit code is non-zero, and no result line is
printed, when the run cannot complete.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Hard limit on one invocation; the run aborts (non-zero exit) past it.
WALL_LIMIT_SECONDS = 170


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout(f"run exceeded {WALL_LIMIT_SECONDS}s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro next to perfbench/; run from a checkout"
              " of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.bench import BenchmarkError, Run
    from perfbench.loadgen import GeneratorError
    from perfbench.report import render

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(WALL_LIMIT_SECONDS)
    try:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
        run.execute()
    except (BenchmarkError, GeneratorError, _Timeout) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    lines, result = render(run)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
