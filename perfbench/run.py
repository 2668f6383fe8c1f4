"""Run the qosp benchmark: time CLI workloads end to end, or trace them by layer.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

`--trace 0` runs the workload as fresh `python -m qosp.cli ...` processes,
one at a time in a closed loop with a single client, until `--seconds` have
passed.  Each invocation is timed by its parent (wall clock) and by
`os.wait4` (child user+sys CPU time and peak RSS), and its output must pass
the exactness gate in workloads.py; a failed invocation is counted and never
timed.  Fresh `import qosp` processes, interleaved with the invocations,
give the set-up time.

The times are reported at a reference CPU speed.  On a shared machine the
speed of one CPU changes by up to a factor of two within seconds, as other
tenants come and go.  So the benchmark and its children stay on one CPU, a
fixed pure-Python loop (the speed probe) is timed on it between any two
children and, while an invocation runs, every PROBE_EVERY_S with the child
stopped; each child's times are multiplied by CAL_REF_S over the mean probe
time around and during it.  The measured (unscaled) medians are printed
alongside.

`--trace 1` alternates untraced and traced in-process runs of the same call
(tracer.py) and reports the per-layer metrics and the tracing overhead.

The workload inputs are fixed by the paper; the seed only fixes the order in
which the set-up probes and the invocations (or the traced and untraced
runs) are interleaved.  The last line of standard output is the JSON result;
the lines before it list every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

from tracer import STABLE_COUNTS, UNITS
from workloads import HERE, ROOT, SRC, WORKLOADS, gate

OUT = HERE / "out"
SETUP_PROBES = 25  # fresh `import qosp` processes per timed run
MIN_INVOCATIONS = 3  # timed invocations per run, even past --seconds
CHILD_TIMEOUT_S = 150
CAL_ITERATIONS = 10000
CAL_REF_S = 0.05  # calibration loop time at the reference speed, by definition
PROBE_EVERY_S = 0.5

SETUP_CODE = (
    "import time; t = time.perf_counter(); import qosp; "
    "print(time.perf_counter() - t)"
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def calibration_s():
    """Time the speed probe: a fixed loop of Fraction arithmetic and dict updates."""
    t0 = time.perf_counter()
    x, counts = Fraction(1, 3), {}
    for i in range(CAL_ITERATIONS):
        y = Fraction(i % 7 + 1, i % 5 + 2)
        x = x * y + y
        if x.denominator > 10**9:
            x = Fraction(x.numerator % 97 + 1, 3)
        counts[i & 63] = counts.get(i & 63, 0) + 1
    return time.perf_counter() - t0


def invoke(args, env, probe=False):
    """Run one child; return (stdout, exit code, wall s, user+sys s, peak RSS bytes, probes).

    With probe, the child is stopped every PROBE_EVERY_S while the speed
    probe runs, so that long invocations are scaled by the speed they met;
    probes lists those loop times, and the pauses are not in the wall time.
    """
    probes, paused = [], 0.0
    with open(OUT / "child.stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=subprocess.PIPE, stderr=err,
            stdin=subprocess.DEVNULL, cwd=ROOT, env=env)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        pidfd = os.pidfd_open(proc.pid)
        try:
            out_fd, chunks = proc.stdout.fileno(), []
            waiting = [pidfd, out_fd]
            next_probe = t0 + PROBE_EVERY_S if probe else None
            while pidfd in waiting:
                timeout = None if next_probe is None else max(0.0, next_probe - time.perf_counter())
                ready = select.select(waiting, [], [], timeout)[0]
                if out_fd in ready:
                    chunk = os.read(out_fd, 1 << 16)
                    if chunk:
                        chunks.append(chunk)
                    else:
                        waiting.remove(out_fd)
                if pidfd in ready:
                    t1 = time.perf_counter()
                    waiting.remove(pidfd)
                elif not ready:
                    p0 = time.perf_counter()
                    os.kill(proc.pid, signal.SIGSTOP)
                    # WNOWAIT: a child that exited meanwhile stays unreaped for wait4.
                    info = os.waitid(os.P_PID, proc.pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
                    if info.si_code == os.CLD_STOPPED:
                        probes.append(calibration_s())
                    os.kill(proc.pid, signal.SIGCONT)
                    paused += time.perf_counter() - p0
                    next_probe = time.perf_counter() + PROBE_EVERY_S
            chunks.append(proc.stdout.read())
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            proc.stdout.close()
            os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (b"".join(chunks).decode(), proc.returncode, t1 - t0 - paused,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024, probes)


def stderr_tail():
    return (OUT / "child.stderr").read_text(errors="replace")[-2000:]


def schedule(rng, first, second, n_first, n_second):
    order = [first] * n_first + [second] * n_second
    rng.shuffle(order)
    return order


def tail(values):
    """Highest percentile with at least ten samples beyond it, if n allows one."""
    n = len(values)
    p = 100 * (n - 10) // n
    if p > 50:
        return "p%d %.6g (n=%d)" % (p, statistics.quantiles(values, n=100)[p - 1], n)
    return "max %.6g (n=%d; too few samples for a tail percentile)" % (max(values), n)


def timed_run(workload, seed, seconds, env):
    argv = ["-m", "qosp.cli", *WORKLOADS[workload]]
    rng = random.Random(seed)
    order = schedule(rng, "setup", "work", SETUP_PROBES, MIN_INVOCATIONS)
    samples = {"wall_s": [], "cpu_s": [], "peak_rss_mb": [], "setup_s": []}
    measured = {"wall_s": [], "cpu_s": [], "setup_s": []}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    cal_before = calibration_s()
    while order or time.perf_counter() < deadline:
        kind = order.pop() if order else "work"
        times, probes = {}, []
        if kind == "setup":
            out, rc, *_ = invoke(["-c", SETUP_CODE], env)
            if rc != 0:
                raise SystemExit("import qosp failed:\n" + stderr_tail())
            times["setup_s"] = float(out)
        else:
            out, rc, wall, cpu, maxrss, probes = invoke(argv, env, probe=True)
            a, f, problems = gate(workload, rc, out)
            attempted += a
            failed += f
            if f:
                print("invocation failed: %s" % "; ".join(problems[:5]))
            else:
                times = {"wall_s": wall, "cpu_s": cpu}
                samples["peak_rss_mb"].append(maxrss / 1e6)
        cal_after = calibration_s()
        scale = CAL_REF_S / statistics.mean([cal_before, *probes, cal_after])
        cal_before = cal_after
        for name, value in times.items():
            measured[name].append(value)
            samples[name].append(value * scale)
    units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    metrics = {}
    for name, values in samples.items():
        if not values:
            continue
        metrics[name] = {"value": statistics.median(values), "unit": units[name]}
        raw = ("; measured median %.6g" % statistics.median(measured[name])
               if name in measured else "")
        print("%-14s %-10.6g %-3s median of %d; %s%s" % (
            name, metrics[name]["value"], units[name], len(values), tail(values), raw))
    print("%-14s %-10.6g %-3s (%d of %d attempted)" % (
        "failed_ratio", failed / attempted, "", failed, attempted))
    return attempted, failed, metrics


def traced_run(workload, seed, seconds, env):
    rng = random.Random(seed)
    order = schedule(rng, "plain", "traced", 1, 1)
    walls = {"plain": [], "traced": []}
    counts, per_run = None, []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while order or time.perf_counter() < deadline:
        kind = order.pop() if order else ("plain", "traced")[i % 2]
        args = [str(HERE / "tracer.py"), "--workload", workload]
        if kind == "traced":
            args += ["--traced", "--spans", str(OUT / ("%s.spans.json" % workload)),
                     "--trace-id", "%s-%d-%d" % (workload, seed, i)]
        i += 1
        out, rc, *_ = invoke(args, env)
        if rc != 0:
            raise SystemExit("traced run failed:\n" + stderr_tail())
        result = json.loads(out.splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        if result["failed"]:
            print("%s run failed: %s" % (kind, "; ".join(result["problems"][:5])))
        walls[kind].append(result["wall_s"])
        if kind == "traced":
            per_run.append(result["metrics"])
            run_counts = {k: result["metrics"][k] for k in STABLE_COUNTS}
            # Op counts of one program are deterministic; a change between
            # runs is a failure of the run, not noise.
            attempted += 1
            if counts is None:
                counts = run_counts
            elif run_counts != counts:
                failed += 1
                print("op counts differ between traced runs: %s vs %s" % (counts, run_counts))
    metrics = {}
    for name, unit in UNITS.items():
        pick = statistics.median if unit == "s" else statistics.median_low
        metrics[name] = {"value": pick([m[name] for m in per_run]), "unit": unit}
    ratio = statistics.median(walls["traced"]) / statistics.median(walls["plain"])
    metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    for name, m in metrics.items():
        print("%-38s %-12.6g %s" % (name, m["value"], m["unit"]))
    print("traced runs %d, untraced runs %d; spans in %s" % (
        len(walls["traced"]), len(walls["plain"]), OUT.relative_to(ROOT)))
    return attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qosp" / "cli.py").is_file():
        sys.stderr.write("error: no qosp sources under %s\n" % SRC)
        return 2
    OUT.mkdir(exist_ok=True)
    # One CPU for this process and every child it starts (see the docstring).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = child_env()
    # Compile the bytecode once, untimed: users do not pay that on every run.
    _, rc, *_ = invoke(["-c", "import qosp.cli"], env)
    if rc != 0:
        sys.stderr.write("error: import qosp.cli failed:\n%s\n" % stderr_tail())
        return 2
    run = traced_run if args.trace else timed_run
    attempted, failed, metrics = run(args.workload, args.seed, args.seconds, env)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
