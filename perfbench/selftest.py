"""Self-test of the benchmark's checks and tracer.

Run from the root of a checkout (takes about a minute):

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/selftest.py

1. For each workload (seed 0) one round of outputs passes every check, and
   with every value under test perturbed by 1e-6 relative each numeric
   check rejects it.
2. The tracer reaches names bound by ``from .x import f``: a traced
   COR-HILB run records ``analytic.hardy_means_u`` calls, which COR-HILB
   makes only through its own p-norm helper in ``bergman.verify``; and
   ``restore()`` puts every original binding back.
3. A traced round of cli-queries gives outputs identical to an untraced
   one, and every per-layer metric name is reported.
"""

import os
import shutil
import sys
import tempfile
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench            # noqa: E402
import layertrace       # noqa: E402
import oracles          # noqa: E402
import workloads        # noqa: E402

PERTURBATION = 1e-6


def check_rejects_perturbation(workdir):
    for name in bench.WORKLOADS:
        ops, warmup, check = getattr(workloads, name.replace("-", "_"))(
            0, workdir)
        _, _, outputs, errors = bench.run_round(ops, 0)
        assert all(op.known_fault or err is None
                   for op, err in zip(ops, errors)), errors
        plain = oracles.Checks()
        check(ops, outputs, plain)
        assert not plain.failures, plain.failures[:5]
        moved = oracles.Checks(perturb=PERTURBATION)
        check(ops, outputs, moved)
        assert moved.numeric == plain.numeric > 0
        assert len(moved.failures) == moved.numeric, (
            "%d of %d numeric checks accept a 1e-6 perturbation"
            % (moved.numeric - len(moved.failures), moved.numeric))
        print("%s: %d numeric checks pass, and each rejects a %g "
              "perturbation" % (name, plain.numeric, PERTURBATION))


def check_trace_is_complete():
    import bergman.analytic
    import bergman.verify
    original = bergman.analytic.hardy_means_u
    tracer = layertrace.Tracer().install()
    try:
        assert bergman.verify.hardy_means_u is not original
        bergman.verify.run_scenario("COR-HILB", {"count": 1, "seed": 0})
    finally:
        tracer.restore()
    assert bergman.verify.hardy_means_u is original
    assert bergman.analytic.hardy_means_u is original
    calls = tracer.metrics(1)["analytic.hardy_means_u.calls"]
    assert calls > 0, "COR-HILB's own p-norm calls were not traced"
    print("trace: COR-HILB records %d hardy_means_u calls; originals "
          "restored" % calls)


def check_traced_outputs_equal(workdir):
    ops, warmup, _ = workloads.cli_queries(0, workdir)
    warmup()
    _, _, plain, _ = bench.run_round(ops, 0)
    tracer = layertrace.Tracer().install()
    try:
        _, _, traced, _ = bench.run_round(ops, 0)
    finally:
        tracer.restore()
    differ = [op.label for op, a, b in zip(ops, plain, traced)
              if workloads.canonical(a) != workloads.canonical(b)]
    assert not differ, differ
    metrics = tracer.metrics(1)
    assert list(metrics) == layertrace.metric_names()
    assert metrics["cli.main.calls"] == len(ops)
    print("trace: %d traced cli queries answer exactly as untraced ones; "
          "%d per-layer metrics" % (len(ops), len(metrics)))


def main():
    warnings.simplefilter("ignore")
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=out)
    try:
        check_trace_is_complete()
        check_traced_outputs_equal(workdir)
        check_rejects_perturbation(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
