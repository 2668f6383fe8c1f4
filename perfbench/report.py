"""Print every metric of every workload, end to end and per layer.

    python3 perfbench/report.py --seconds 30 --seed 0

Runs run.py once per workload with `--trace 0` and once with `--trace 1`,
prints each run's metric lines (name, value, unit; timings with their sample
count and tail percentile) and ends with one JSON line holding all results.
Exits 1 if any output failed the exactness gate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from workloads import HERE, ROOT, WORKLOADS


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--seed", default="0")
    args = parser.parse_args(argv)
    results = {}
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            print("== %s, trace %s" % (workload, trace), flush=True)
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", args.seed, "--seconds", args.seconds, "--trace", trace],
                capture_output=True, text=True, cwd=ROOT, check=False)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                return 1
            print("\n".join(lines[:-1]), flush=True)
            results["%s/trace%s" % (workload, trace)] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
