"""Benchmark of the `bergman` library and CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify-radial --seed 1 --seconds 40 --trace 0

Workloads: verify-radial, verify-operators, cli-queries (see README.md).
The last line printed is one JSON object with the keys correct, attempted,
failed and metrics.  With ``--trace 0`` the metrics are the end-to-end ones
(setup_s, run_s, peak_rss_mb, query_p50_ms, query_tail_ms); with
``--trace 1`` they are the per-layer ones.  The full result, including any
check failures, is also written to perfbench/out/.

This script imports nothing from the program.  It starts bench.py in fresh
interpreters with a fixed environment: ``src`` on PYTHONPATH, one BLAS
thread, no bytecode writing, glibc keeping freed memory for reuse.
setup_s is the median over SETUP_SAMPLES fresh interpreters of the time
from process start to the first timed operation; the last of them goes
on to run the workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150.0


def _env():
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # glibc keeps freed memory for reuse instead of returning it, so a
    # round does not pay the kernel's first touch of pages a previous round
    # already had (see README.md, "What a run does")
    env["MALLOC_MMAP_THRESHOLD_"] = env["MALLOC_TRIM_THRESHOLD_"] = str(2 ** 30)
    return env


def _child(args, extra, deadline):
    cmd = [sys.executable, os.path.join(HERE, "bench.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=_env(),
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("bench.py failed with exit code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("verify-radial", "verify-operators", "cli-queries"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "bergman", "__init__.py")):
        raise SystemExit("run from the root of a bergman checkout "
                         "(src/bergman not found)")
    if args.seed < 0 or args.seconds < 1:
        raise SystemExit("--seed must be >= 0 and --seconds >= 1")

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_child(args, ["--setup-only"], deadline)["setup_s"])
    full = _child(args, [], deadline)
    setups.append(full["setup_s"])

    units = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
             "query_p50_ms": "ms", "query_tail_ms": "ms"}
    if args.trace:
        metrics = {name: {"value": v, "unit": "s" if name.endswith("_s")
                          else "count"}
                   for name, v in full["metrics"].items()}
    else:
        values = dict(full["metrics"], setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": units[name]}
                   for name in units}
    result = {"correct": full["correct"], "attempted": full["attempted"],
              "failed": full["failed"], "metrics": metrics}

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    detail = dict(full, setup_samples_s=setups, result=result,
                  argv=sys.argv[1:])
    name = "result-%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                               args.trace)
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    for failure in full.get("check_failures", []):
        sys.stderr.write("check failed: %s\n" % failure)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
