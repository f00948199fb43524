"""Benchmark of tatehk: certified Tate-curve reports and identity suites.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): grid, branch_sweep, identities. The package is
imported from the checkout's src/ and called only through its public
functions; every output is checked against the oracles in oracle.py.

--trace 0 runs one untimed warm-up op, then measures whole passes of ops
for about --seconds and reports the end-to-end metrics of BENCHMARK.json.
Set-up time is the median over several fresh interpreters (setup_probe.py).
Every timing is scaled by the host's speed as a fixed reference loop,
sampled all through the run, reads it around the timing (hostspeed.py); raw
wall times are printed on a comment line.

--trace 1 runs the seed's first pass traced, and again untraced in a fresh
process, and reports the per-layer metrics: self time and calls per traced
function, inclusive time per compute_tate stage, exact work counts, and the
tracing overhead (traced minus untraced op time). Spans are written to
.perfbench_out/ at the end of the run; they include the host-speed samples
that fall inside them, about 3% of their time.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. An op fails when it raises, when a suite
reports failure or fewer checks than its floor, or when any output
disagrees with the oracle, including a report that certifies fewer digits
than its working precision.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback

import hostspeed
import oracle
import workloads
from tracer import Tracer

ROOT = workloads.ROOT
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 11


def median(times):
    """Harrell-Davis estimate of the median: the mean of the order statistics
    weighted by the mass of Beta((n+1)/2, (n+1)/2) over their shares of
    [0, 1]. Where two middle values swap places it moves smoothly, while
    the sample median jumps from one to the other; on grid the median op is
    one of nine distinct curves, so the sample median of a run is the time
    of a single job."""
    xs = sorted(times)
    n = len(xs)
    a = (n + 1) / 2
    log_beta = 2 * math.lgamma(a) - math.lgamma(2 * a)

    def density(t):
        if a == 1:
            return 1.0
        if t <= 0 or t >= 1:
            return 0.0
        return math.exp((a - 1) * (math.log(t) + math.log1p(-t)) - log_beta)

    steps = 16                  # Simpson's rule on each share
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        weights.append(sum((1 if k in (0, steps) else 4 if k % 2 else 2)
                           * density(lo + k * h) for k in range(steps + 1)))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail(times):
    """(seconds, samples beyond it) of the tail: the highest percentile with
    at least ten samples beyond it, never below the median. With 22 ops or
    fewer no percentile above the median has ten samples beyond it, and
    the tail is the median."""
    xs = sorted(times)
    k = len(xs) - 11
    if k <= len(xs) // 2:
        return median(xs), len(xs) - len(xs) // 2 - 1
    return xs[k], 10


class Outcome:
    """Op times and failures of a run."""

    def __init__(self):
        self.times = []
        self.intervals = []
        self.failures = []
        self.digits = []

    def record(self, op, host, t0, t1, output, error):
        self.times.append(host.op_seconds(t0, t1))
        self.intervals.append((t0, t1))
        if error is not None:
            self.failures.append(f"{op.label}: raised {error!r}")
            return
        try:
            margin = workloads.check_op(op, output)
        except (oracle.Mismatch, KeyError, TypeError, ValueError) as ex:
            self.failures.append(f"{op.label}: {ex}")
            return
        if margin is not None:
            self.digits.append(margin)

    def scaled(self, host):
        """Op times scaled to the nominal host (hostspeed.py)."""
        return [t * host.scale(t0, t1)
                for t, (t0, t1) in zip(self.times, self.intervals)]


def run_op(tatehk, op):
    """(start, end, output, error) of one op; the clock covers package calls
    only."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        output = workloads.run_op(tatehk, op)
    except Exception as ex:  # an op that raises is a failed op, not a crash
        t1 = time.perf_counter()
        traceback.print_exc(file=sys.stderr)
        return t0, t1, None, ex
    return t0, time.perf_counter(), output, None


def measure(tatehk, workload, seed, seconds, plan=workloads.plan_pass):
    """Whole passes until another pass would end after `seconds`; grid
    makes one pass, so that no curve is computed twice in a process.

    Set-up is timed in fresh interpreters spread over the run, between ops,
    so that its median sees the same machine as the ops do. Returns
    (outcome, passes, set-up probes, host speed)."""
    out = Outcome()
    run_op(tatehk, workloads.warm_up_op(tatehk, workload))  # untimed, unchecked
    gap = seconds / SETUP_PROBES
    with hostspeed.HostSpeed() as host:
        probes = [setup_probe(workload, seed)]
        t_start = time.perf_counter()
        t_probe = t_start
        index = 0
        while True:
            t_pass = time.perf_counter()
            for op in plan(tatehk, workload, seed, index):
                out.record(op, host, *run_op(tatehk, op))
                if time.perf_counter() - t_probe >= gap and len(probes) < SETUP_PROBES:
                    probes.append(setup_probe(workload, seed))
                    t_probe = time.perf_counter()
            index += 1
            now = time.perf_counter()
            if workload == "grid" or now - t_start + (now - t_pass) > seconds:
                break
        while len(probes) < SETUP_PROBES:
            probes.append(setup_probe(workload, seed))
    return out, index, probes, host


def measure_traced(tatehk, workload, seed, plan=workloads.plan_pass):
    """The seed's first pass, traced; returns (outcome, scaled op seconds,
    tracer). The tracer is taken out while outputs are checked."""
    out = Outcome()
    run_op(tatehk, workloads.warm_up_op(tatehk, workload))  # untimed, unchecked
    tracer = Tracer(tatehk)
    with hostspeed.HostSpeed() as host:
        for k, op in enumerate(plan(tatehk, workload, seed, 0)):
            tracer.op_id = k
            tracer.install()
            try:
                result = run_op(tatehk, op)
            finally:
                tracer.remove()
            out.record(op, host, *result)
    return out, sum(out.scaled(host)), tracer


def untraced_pass(workload, seed):
    """Result of the seed's first pass, untraced, in a fresh process, so
    that nothing the traced pass left in memory can speed it up."""
    res = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", "0", "--trace", "0"],
                         capture_output=True, text=True, timeout=170, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])


def setup_probe(workload, seed):
    """(raw, scaled) seconds to import tatehk and plan the first pass in a
    fresh interpreter; the interpreter reads the host speed itself."""
    probe = str(ROOT / "perfbench" / "setup_probe.py")
    res = subprocess.run([sys.executable, probe, workload, str(seed)],
                         capture_output=True, text=True, timeout=120, check=True)
    seconds, reference = map(float, res.stdout.split())
    return seconds, seconds * hostspeed.NOMINAL_S / reference


def end_to_end(times, setup_s):
    return {
        "setup_s": setup_s,
        "ops_per_s": len(times) / sum(times),
        "op_s_p50": median(times),
        "op_s_tail": tail(times)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None, plan=workloads.plan_pass):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tatehk = workloads.load_package()
    attempted = failed = 0
    if args.trace:
        out, traced, tracer = measure_traced(tatehk, args.workload, args.seed, plan)
        base = untraced_pass(args.workload, args.seed)
        attempted, failed = base["attempted"], base["failed"]
        untraced = base["attempted"] / base["metrics"]["ops_per_s"]["value"]
        names = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = tracer.metrics()
        values["trace.overhead_s"] = traced - untraced
        values["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{args.workload}-{args.seed}.bin.gz"
        tracer.write(trace_file)
        print(f"# {len(tracer.start)} spans written to {trace_file.relative_to(ROOT)}; "
              f"ops untraced {untraced:.3f} s, traced {traced:.3f} s (scaled)")
    else:
        out, passes, probes, host = measure(tatehk, args.workload, args.seed,
                                            args.seconds, plan)
        names = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        raw_setup, setup = zip(*probes)
        values = end_to_end(out.scaled(host), statistics.median(setup))
        raw = end_to_end(out.times, statistics.median(raw_setup))
        n = len(out.times)
        beyond = tail(out.times)[1]
        print(f"# {args.workload}: {passes} passes, {n} ops in "
              f"{sum(out.times):.3f} s; tail is p{100 * (n - beyond) / n:.1f} "
              f"of {n} samples, {beyond} beyond it")
        print(f"# host: {len(host.samples)} samples, reference loop median "
              f"{statistics.median(host.samples):.5f} s (nominal "
              f"{hostspeed.NOMINAL_S} s); raw wall "
              + ", ".join(f"{k} {raw[k]:.4f}" for k in raw if k != "peak_rss_mb"))
    attempted += len(out.times)
    failed += len(out.failures)
    if out.digits:
        print(f"# digits_min {min(out.digits)} (least stated depth minus prec)")
    print(f"# failed_frac {failed / attempted:.4f} ({failed} of {attempted})")
    for line in out.failures[:20]:
        print(f"# FAILED {line}", file=sys.stderr)
    missing = set(names) - set(values)
    if missing:
        raise SystemExit(f"metrics not measured: {sorted(missing)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in names.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
