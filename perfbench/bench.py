"""One workload of the `bergman` benchmark, run in one process.

run.py starts this script (with the BLAS thread count and PYTHONPATH set)
and reads the JSON object it prints last.  The process imports `bergman`,
builds the workload's inputs from the seed, runs one untimed warm-up
operation and then runs whole rounds of the workload's operations as a
closed loop: one caller, each operation waiting for the previous one.
The end-to-end times are each operation's median over the run's rounds.

Untraced (``--trace 0``) it reports setup_s, run_s, peak_rss_mb,
query_p50_ms and query_tail_ms.  Traced (``--trace 1``) it alternates an
untraced and a traced round of the same operations, requires their outputs
to be identical, and reports the per-layer metrics of the traced rounds
with the tracing overhead (traced minus untraced round time).

With ``--setup-only`` it stops after the warm-up and reports setup_s alone.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("verify-radial", "verify-operators", "cli-queries")


def _parse():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before start")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def run_round(ops, r):
    """Run every operation once as round ``r``.

    Returns (wall time, latencies, outputs, failures).
    """
    latencies, outputs, failed = [], [], []
    t_round = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            out, error = op.call(r), None
        except Exception as exc:         # a failed operation, not a crash
            out, error = None, "%s: %s" % (type(exc).__name__, exc)
        latencies.append(time.perf_counter() - t0)
        if op.after is not None and out is not None:
            out = op.after(out)
        if error is None and op.fails is not None and op.fails(out):
            error = "failed"
        outputs.append(out)
        failed.append(error)
    return time.perf_counter() - t_round, latencies, outputs, failed


def _nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def main():
    args = _parse()
    warnings.simplefilter("ignore")
    sys.path.insert(0, HERE)
    import workloads
    workdir = os.path.join(HERE, "out", "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        make = getattr(workloads, args.workload.replace("-", "_"))
        ops, warmup, check = make(args.seed, workdir)
        warmup()
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            result = {"setup_s": setup_s}
        else:
            result = measure(args, ops, check)
            result["setup_s"] = setup_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


def measure(args, ops, check):
    from layertrace import Tracer
    import workloads
    rounds, traced = [], []
    tracer = Tracer() if args.trace else None
    t_start = time.monotonic()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    while True:
        r = len(rounds)
        rounds.append(run_round(ops, r))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_round(ops, r))
            finally:
                tracer.restore()
        elapsed = time.monotonic() - t_start
        # start another round only if it can end within --seconds
        if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    peak_rss_mb = ru1.ru_maxrss / 1024.0

    # correctness: rounds with their own seeds each against the oracles;
    # otherwise the first round against the oracles and every later round
    # against the first.  Each traced round must equal its untraced twin.
    t_check = time.monotonic()
    import oracles
    chk = oracles.Checks()
    fresh = args.workload in workloads.SEED_PER_ROUND
    for i, r in enumerate(rounds if fresh else rounds[:1]):
        broken = [op.label for op, err in zip(ops, r[3])
                  if err and not op.known_fault]
        if broken:
            chk.true("round %d" % i, False, "not checked: %s failed" % broken)
        else:
            check(ops, r[2], chk)
    reference = [[workloads.canonical(o) for o in r[2]] for r in rounds]
    pairs = [("traced round %d" % i, t[2], reference[i])
             for i, t in enumerate(traced)]
    if not fresh:
        pairs += [("round %d" % i, r[2], reference[0])
                  for i, r in enumerate(rounds) if i]
    for kind, outputs, ref in pairs:
        for op, out, want in zip(ops, outputs, ref):
            if workloads.canonical(out) != want:
                chk.true("%s %s output" % (kind, op.label), False,
                         "differs from the untraced round it repeats")
    check_s = time.monotonic() - t_check
    all_rounds = rounds + traced
    attempted = len(ops) * len(all_rounds)
    errors = [(op, err) for r in all_rounds for op, err in zip(ops, r[3]) if err]
    for op, err in errors:
        chk.true("operation %s" % op.label, op.known_fault, err)

    if args.trace:
        metrics = tracer.metrics(len(traced))
        metrics["trace.overhead_s"] = statistics.median(
            t[0] - u[0] for u, t in zip(rounds, traced))
    else:
        # each operation's median time over the run's rounds; a dozen or
        # more rounds per run keep it steady while the host's speed drifts
        best = [statistics.median(r[1][i] for r in rounds)
                for i in range(len(ops))]
        if args.workload == "cli-queries":
            p50 = statistics.median(best)
            tail = _nearest_rank(best, workloads.TAIL_PERCENTILE)
        else:
            # a few scenario calls per round: the middle and the slowest
            p50, tail = statistics.median(best), max(best)
        metrics = {"run_s": math.fsum(best),
                   "peak_rss_mb": peak_rss_mb,
                   "query_p50_ms": 1e3 * p50,
                   "query_tail_ms": 1e3 * tail}
    by_label = {}
    for r in rounds:
        for op, x in zip(ops, r[1]):
            by_label.setdefault(op.label, []).append(1e3 * x)
    latency_ms = {k: [len(v), statistics.median(v), max(v)]
                  for k, v in sorted(by_label.items())}
    return {"correct": not chk.failures, "attempted": attempted,
            "failed": len(errors), "metrics": metrics,
            "rounds": len(rounds), "traced_rounds": len(traced),
            "check_failures": chk.failures[:20], "checks": chk.numeric,
            "latency_ms_by_label": latency_ms, "check_s": check_s,
            "round_s": [r[0] for r in rounds],
            "op_s": [r[1] for r in rounds],
            "user_s": ru1.ru_utime - ru0.ru_utime,
            "sys_s": ru1.ru_stime - ru0.ru_stime,
            "minor_faults": ru1.ru_minflt - ru0.ru_minflt,
            "traced_round_s": [r[0] for r in traced]}


if __name__ == "__main__":
    main()
