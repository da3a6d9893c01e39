"""The benchmark's workloads: their operations, inputs and output checks.

A workload is a fixed list of operations (one round).  Each operation is
timed as a unit; ``after`` collects what the operation left behind (a
report file) outside the timed region.  ``check`` validates the outputs
of one round against the independent values in ``oracles``; it runs after
the timed loop, so oracles (and mpmath) never enter the timings.

The seed reaches the program only as a scenario's ``seed`` key and as the
RNG seed of the CLI query generator.  A workload named in ``SEED_PER_ROUND``
gives each round its own scenario seed, drawn from the benchmark seed and
the round's index, so that a run's median spans a dozen inputs rather than
one; its rounds are all checked against the oracles.  The other workloads
repeat one round exactly, and later rounds must reproduce the first.
"""

import contextlib
import io
import json
import math
import os
import random

import numpy as np


SEED_PER_ROUND = {"verify-radial"}


def round_seed(seed, r):
    """The scenario seed of round ``r`` (0 for the warm-up and round 0)."""
    return 1000 * seed + r


class Op:
    """One timed operation: ``call(r)`` runs it as part of round ``r``.

    ``known_fault`` marks an operation that fails on every run because of
    a fault of the program named in the README; ``fails`` tells from its
    output whether it failed without raising.
    """

    def __init__(self, label, call, after=None, known_fault=False,
                 fails=None, expect=None):
        self.label = label
        self.call = call
        self.after = after
        self.known_fault = known_fault
        self.fails = fails
        self.expect = expect


def canonical(output):
    """Text form of an output, for comparing rounds and traced runs."""
    if hasattr(output, "cases"):            # a ScenarioReport
        output = {"scenario": output.scenario, "cases": output.cases,
                  "stats": list(output.stats), "verdict": output.verdict,
                  "window": output.window, "seed": output.seed,
                  "diagnostics": output.diagnostics}
    return json.dumps(output, sort_keys=True, default=repr)


# ---------------------------------------------------------------------------
# verify-radial and verify-operators: scenario calls


def _scenario_op(sid, cfg, seed, per_round=False, **kw):
    from bergman import verify

    def call(r):
        s = round_seed(seed, r) if per_round else seed
        # looked up at call time, so the tracer's binding is the one called
        return verify.run_scenario(sid, dict(cfg, seed=s))

    return Op(sid, call, **kw)


def _gorro_fails(report):
    """TH-GORRO fails while any extremal phi_r case is non-finite."""
    return any(not (math.isfinite(c["lhs"]) and math.isfinite(c["rhs"]))
               for c in report.cases if c["case_id"].startswith("phi-"))


# Every operation is kept well under a second, so that a run holds a dozen
# rounds or more and each operation's fastest time is well sampled.
COR_HILB_COUNT = 1
# corpus_functions puts the monomials z, z^2, z^4, ... up to the degree
# first and 8 kernels last: 19 functions keep 4 random polynomials at
# degree 64 and 3 at degree 128.  TH-DEC's degree keeps its cost clearly
# below INEQ-MINFTY's, so the round's median call is always INEQ-MINFTY.
RADIAL_COUNT = 19
TH_DEC_DEGREE = 64
INEQ_MINFTY_DEGREE = 128


def verify_radial(seed, workdir):
    from bergman import verify
    ops = [_scenario_op("COR-HILB", {"count": COR_HILB_COUNT}, seed, True),
           _scenario_op("TH-DEC", {"count": RADIAL_COUNT,
                                   "degree": TH_DEC_DEGREE}, seed, True),
           _scenario_op("INEQ-MINFTY", {"count": RADIAL_COUNT,
                                        "degree": INEQ_MINFTY_DEGREE},
                        seed, True)]

    def warmup():
        verify.run_scenario("TH-DEC", {
            "weights": ["const"], "pairs": [(3.0, 1.5)], "alphas": [1.0],
            "degree": 32, "count": RADIAL_COUNT,
            "seed": round_seed(seed, 0)})

    return ops, warmup, check_verify_radial


PQ_N_MAX = 5               # the default 6 takes 6 s, mostly on two symbols
QP_SYMBOLS = ["z"]
GORRO = {"j_max": 4, "n_random": 10}


def verify_operators(seed, workdir):
    from bergman import verify
    ops = [_scenario_op("TH-MAIN-PQ", {"n_max": PQ_N_MAX}, seed),
           _scenario_op("TH-MAIN-QP", {"symbols": QP_SYMBOLS}, seed),
           _scenario_op("TH-HS", {}, seed),
           _scenario_op("TH-GORRO", GORRO, seed, known_fault=True,
                        fails=_gorro_fails)]

    def warmup():
        verify.run_scenario("TH-GORRO", {"j_max": 0, "n_random": 1,
                                         "seed": seed})

    return ops, warmup, check_verify_operators


def _verdict(chk, rep, count):
    chk.equal(rep.scenario + " verdict", rep.verdict, "Comparable")
    chk.equal(rep.scenario + " cases", len(rep.cases), count)


def check_verify_radial(ops, outputs, chk):
    import oracles
    cor, dec, ineq = outputs
    seed = cor.seed

    # COR-HILB: p = 2 rows are exact coefficient sums on std(-1/2)
    _verdict(chk, cor, 3 * COR_HILB_COUNT)
    om = [float(v) for v in oracles.std_odd_moments(-0.5, 2048)]
    for c in cor.cases:
        chk.true("COR-HILB %s finite" % c["case_id"],
                 math.isfinite(c["ratio"]) and c["ratio"] > 0)
        if c["params"]["p"] != 2.0:
            continue
        a = np.random.default_rng(seed + c["params"]["i"]).uniform(0.0, 1.0, 129)
        img = oracles.hilbert_coefficients([complex(x) for x in a], 2048)
        lhs = math.sqrt(2.0 * math.fsum(abs(x) ** 2 * om[k]
                                        for k, x in enumerate(img)))
        rhs = math.sqrt(2.0 * math.fsum(x * x * om[k] for k, x in enumerate(a)))
        chk.close("COR-HILB %s lhs" % c["case_id"], c["lhs"], lhs, 1e-10)
        chk.close("COR-HILB %s rhs" % c["case_id"], c["rhs"], rhs, 1e-10)

    # TH-DEC: the mixed norm of z^N is (integral of r^(Nq) omega)^(1/q)
    _verdict(chk, dec, 4 * 3 * 3 * RADIAL_COUNT)
    for c in dec.cases:
        pr = c["params"]
        if not pr.get("f", "").startswith("mono"):
            continue
        w, n, q = pr["weight"], int(pr["f"][4:]), pr["q"]
        chk.close("TH-DEC %s rhs" % c["case_id"], c["rhs"],
                  float(oracles.named_plain(w, n * q) ** (1.0 / q)), 3e-7)

    # INEQ-MINFTY: lhs <= rhs everywhere; monomials have closed forms
    chk.equal("INEQ-MINFTY cases", len(ineq.cases), 3 * 3 * RADIAL_COUNT)
    for c in ineq.cases:
        chk.leq("INEQ-MINFTY %s" % c["case_id"], c["lhs"], c["rhs"])
        pr = c["params"]
        if pr["f"].startswith("mono"):
            x = int(pr["f"][4:]) * pr["p"] + 1.0
            plain = oracles.named_plain(pr["weight"], x)
            chk.close("INEQ-MINFTY %s lhs" % c["case_id"], c["lhs"],
                      float(plain / x), 5e-7)
            chk.close("INEQ-MINFTY %s rhs" % c["case_id"], c["rhs"],
                      float(oracles.mp.pi * plain), 1e-8)


def check_verify_operators(ops, outputs, chk):
    import oracles
    pq, qp, hs, gorro = outputs
    by_id = lambda rep: {c["case_id"]: c for c in rep.cases}

    # TH-MAIN-PQ on std(-1/2), p = q = 2
    _verdict(chk, pq, 4)
    cases = by_id(pq)
    chk.leq("TH-MAIN-PQ z lower bound <= ||H_z||", cases["z"]["lhs"],
            float(oracles.rank_one_hz_norm(-0.5)))
    # Lipschitz norms: sup over the grid of M_2(r, g')(1-r)^(1/2)
    grid = oracles.geometric_grid()
    chk.close("TH-MAIN-PQ z rhs", cases["z"]["rhs"], 1.0, 1e-12)
    chk.close("TH-MAIN-PQ z2 rhs", cases["z2"]["rhs"],
              max(2.0 * (1.0 - u) * math.sqrt(u) for u in grid), 1e-12)

    # TH-MAIN-QP: for g = z, rhs^6 = integral of (1-r)^3 what(r)
    # = (1 - integral of (1-t)^4 omega(t)) / 4 on std(-1/2)
    _verdict(chk, qp, len(QP_SYMBOLS))
    m4 = oracles.mp.fsum(math.comb(4, j) * (-1) ** j
                         * oracles.std_plain(-0.5, j) for j in range(5))
    chk.close("TH-MAIN-QP z rhs", by_id(qp)["z"]["rhs"],
              float(((1 - m4) / 4) ** (oracles.mp.mpf(1) / 6)), 1e-9)

    # TH-HS: partial sums, their extrapolation and the true limit for z^2
    _verdict(chk, hs, 5)
    cases = by_id(hs)
    sums = oracles.hs_partial_sums([0, 0, 1], -0.5, 4000)
    z2 = cases["z2"]
    chk.close("TH-HS z2 stab", z2["params"]["stab"],
              float(abs(sums[4000] - sums[2000]) / sums[2000]), 1e-9)
    chk.close("TH-HS z2 estimate", z2["lhs"],
              float(oracles.hs_extrapolation(sums)), 1e-9)
    # the extrapolation itself is off by 9.8e-5 at K = 4000
    limit = float(oracles.hs_z2_limit_std(-0.5))
    chk.true("TH-HS z2 estimate vs limit", abs(z2["lhs"] / limit - 1) < 2e-4,
             "%r vs %r" % (z2["lhs"], limit))
    chk.close("TH-HS z2 rhs", z2["rhs"], 2.0, 1e-12)
    chk.close("TH-HS z+3z3 rhs", cases["z+3z3"]["rhs"], 28.0, 1e-12)

    if not _gorro_fails(gorro):
        _verdict(chk, gorro, GORRO["j_max"] + 1 + GORRO["n_random"])


# ---------------------------------------------------------------------------
# cli-queries: in-process `bergman` command lines


def _cli_op(label, argv, expect, report=None, known_fault=False):
    from bergman import cli

    def call(r):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}

    after = None
    if report is not None:
        def after(result):
            if os.path.exists(report):
                with open(report) as fh:
                    result["report"] = fh.read()
                os.remove(report)
            return result

    return Op(label, call, after=after, known_fault=known_fault,
              expect=dict(expect, argv=argv))


def _fmt(x):
    return repr(float(x))


def _poly(coeffs):
    return "poly(%s)" % ",".join(
        _fmt(c.real) if c.imag == 0 else repr(complex(c)).strip("()")
        for c in coeffs)


def _rand_complex(rng, n):
    return [complex(round(rng.uniform(-1.0, 1.0), 6),
                    round(rng.uniform(-1.0, 1.0), 6)) for _ in range(n)]


# a fixed degree-12 symbol for the tail queries: every tail query costs the
# same, and the seed only rotates and scales it
_F0 = _rand_complex(random.Random(20121012), 13)

# queries per round, by kind; README.md explains the proportions
QUERY_MIX = [("hs", 6), ("lacunary", 6), ("norms-p2", 6), ("apply", 6),
             ("decompose", 6), ("inspect-other", 8), ("inspect-divergent", 8),
             ("inspect-finite", 79), ("norms-monomial", 48), ("verify", 10),
             ("norms-p3", 16), ("verify-lem-up", 1)]
QUICK_SCENARIOS = ["COR-PREV", "TH-COMPACT", "TH-LACSUP", "PROP-LIP",
                   "LEM-LIMITS"]
TAIL_PERCENTILE = 95


def _query(kind, i, rng, workdir):
    if kind == "hs":
        b = [0j] + _rand_complex(rng, 3)
        a = round(rng.uniform(-0.9, -0.4), 4)
        return ["hs", "--g", _poly(b), "--weight", "std(alpha=%r)" % a,
                "--K", "2000"], {"b": b, "alpha": a}
    if kind == "lacunary":
        exps = [rng.randint(1, 3)]
        while len(exps) < 6:
            exps.append(exps[-1] * rng.randint(2, 3) + rng.randint(0, 1))
        coeffs = [round(rng.uniform(0.1, 2.0), 4) * rng.choice((-1, 1))
                  for _ in exps]
        b, q = round(rng.uniform(0.0, 2.0), 3), rng.choice((1.5, 2.0, 3.0))
        # "--coeffs=" keeps a leading minus sign from reading as an option
        return ["lacunary", "--coeffs=" + ",".join(map(repr, coeffs)),
                "--exps", ",".join(map(str, exps)),
                "--weight", "pow(beta=%r)" % b, "--q", repr(q)], \
            {"exps": exps, "coeffs": coeffs, "beta": b, "q": q}
    if kind == "norms-p2":
        c = _rand_complex(rng, 7)
        a = round(rng.uniform(-0.5, 1.5), 4)
        return ["norms", "--f", _poly(c), "--weight", "std(alpha=%r)" % a,
                "--p", "2", "--q", "2"], {"c": c, "alpha": a}
    if kind == "apply":
        b, f = [0j] + _rand_complex(rng, 5), _rand_complex(rng, 8)
        a = round(rng.uniform(-0.9, -0.2), 4)
        return ["apply", "--g", _poly(b), "--f", _poly(f),
                "--weight", "std(alpha=%r)" % a, "--kmax", "16"], \
            {"b": b, "f": f}
    if kind == "decompose":
        b = round(rng.uniform(0.0, 1.5), 3)
        c = _rand_complex(rng, 41)
        return ["decompose", "--weight", "pow(beta=%r)" % b,
                "--alpha", _fmt(b + 1.0), "--max-degree", "2000",
                "--f", _poly(c), "--p", "2", "--q", "2"], \
            {"c": c, "alpha": b + 1.0}
    if kind == "inspect-finite":
        a = round(rng.uniform(-0.8, 1.5), 4)
        p = round(1.0 + (a + 1.0) / rng.uniform(0.5, 0.9), 4)
        return ["weights", "inspect", "--weight", "std(alpha=%r)" % a,
                "--p", repr(p)], {"family": "std", "alpha": a, "p": p,
                                  "verdict": "finite"}
    if kind == "inspect-divergent":
        a = round(rng.uniform(-0.5, 1.5), 4)
        p = round(1.0 + (a + 1.0) * rng.uniform(0.4, 0.9), 4)
        return ["weights", "inspect", "--weight", "std(alpha=%r)" % a,
                "--p", repr(p)], {"family": "std", "alpha": a, "p": p,
                                  "verdict": "divergent"}
    if kind == "inspect-other":
        family = ("const", "pow", "logpow", "logprod")[i % 4]
        if family == "const":
            v = round(rng.uniform(0.5, 3.0), 3)
            spec, mass, cls = "const(c=%r)" % v, v, "Regular"
        elif family == "pow":
            v = round(rng.uniform(0.0, 0.8), 3)
            spec, mass, cls = "pow(beta=%r)" % v, 1.0 / (v + 1.0), "Regular"
        else:
            v = round(rng.uniform(1.5, 3.0), 3)
            key = "beta" if family == "logpow" else "alpha"
            spec, mass = "%s(%s=%r)" % (family, key, v), 1.0 / (v - 1.0)
            cls = "RapidlyIncreasing"
        return ["weights", "inspect", "--weight", spec, "--p", "3"], \
            {"family": family, "mass": mass, "classification": cls}
    if kind == "norms-monomial":
        n, p = (4, 8, 16, 32)[i % 4], (1.5, 3.0)[i // 4 % 2]
        a = round(rng.uniform(-0.5, 1.5), 4)
        q = round(rng.uniform(1.5, 3.0), 3)
        return ["norms", "--f", _poly([0j] * n + [1 + 0j]),
                "--weight", "std(alpha=%r)" % a, "--p", repr(p),
                "--q", repr(q)], {"n": n, "p": p, "q": q, "alpha": a}
    if kind == "norms-p3":
        rho, theta = rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * math.pi)
        lam = complex(rho * math.cos(theta), rho * math.sin(theta))
        c = [lam * x for x in _F0]
        return ["norms", "--f", _poly(c), "--weight", "std(alpha=0.5)",
                "--p", "3"], {"scale": abs(lam)}
    if kind == "verify":
        sid = QUICK_SCENARIOS[i % len(QUICK_SCENARIOS)]
        seed = rng.randint(0, 10 ** 6)
        return ["verify", "--scenario", sid, "--seed", str(seed),
                "--out", os.path.join(workdir, sid + ".json"),
                "--format", "json"], {"scenario": sid, "seed": seed}
    if kind == "verify-lem-up":
        # known fault: write_report raises TypeError on LEM-UP's numpy bool
        # parameters; the arguments do not depend on the benchmark seed
        return ["verify", "--scenario", "LEM-UP", "--seed", "0",
                "--out", os.path.join(workdir, "LEM-UP.json"),
                "--format", "json"], {"scenario": "LEM-UP", "seed": 0}
    raise ValueError(kind)


def cli_queries(seed, workdir):
    rng = random.Random(seed)
    queries = []
    for kind, count in QUERY_MIX:
        for i in range(count):
            argv, expect = _query(kind, i, rng, workdir)
            report = argv[argv.index("--out") + 1] if "--out" in argv else None
            queries.append(_cli_op(kind, argv, dict(expect, kind=kind),
                                   report=report,
                                   known_fault=kind == "verify-lem-up"))
    rng.shuffle(queries)
    warm = _cli_op("warmup", ["weights", "inspect", "--weight",
                              "std(alpha=0.5)", "--p", "3"], {})
    return queries, lambda: warm.call(0), check_cli_queries


def _values(text):
    """The 'name: value' lines of a CLI answer, as a dict of strings."""
    out = {}
    for line in text.splitlines():
        name, _, value = line.partition(": ")
        out[name] = value
    return out


def _csv_rows(text):
    lines = [ln for ln in text.splitlines() if "," in ln]
    return [ln.split(",") for ln in lines[1:]]


def check_cli_queries(ops, outputs, chk):
    import oracles
    mp = oracles.mp
    h0 = float(oracles.hardy_mean_trig(_F0, 3))
    for op, res in zip(ops, outputs):
        e = op.expect
        kind, tag = e["kind"], " ".join(e["argv"][:2])
        if op.known_fault:
            continue
        chk.true(tag + " exit code", res["rc"] == 0, res["err"])
        if res["rc"] != 0:
            continue
        v = _values(res["out"])
        if kind == "hs":
            sums = oracles.hs_partial_sums(e["b"], e["alpha"], 2000)
            last = _csv_rows(res["out"])[-1]
            chk.equal(tag + " last K", last[0], "2000")
            chk.close(tag + " S_2000", float(last[1]), float(sums[-1]), 1e-9)
            chk.true(tag + " verdict", v["hs_limit"].startswith("finite"),
                     v["hs_limit"])
        elif kind == "lacunary":
            exps, b1 = e["exps"], e["beta"] + 1.0
            chk.equal(tag + " gap test", v["omega_lacunary"], "true")
            ratios = v["tail_ratios"].split()
            chk.equal(tag + " ratios", len(ratios), len(exps) - 1)
            for k, r in enumerate(ratios):
                chk.close(tag + " ratio %d" % k, float(r),
                          (exps[k + 1] / exps[k]) ** b1, 1e-10)
            want = mp.fsum(abs(a) ** e["q"] * oracles.pow_odd_moment(e["beta"], n)
                           for a, n in zip(e["coeffs"], exps))
            chk.close(tag + " moment sum", float(v["coefficient_moment_sum"]),
                      float(want), 1e-10)
        elif kind == "norms-p2":
            c, a = e["c"], e["alpha"]
            om = oracles.std_odd_moments(a, len(c))
            hardy = math.sqrt(math.fsum(abs(x) ** 2 for x in c))
            chk.close(tag + " hardy", float(v["hardy_p2"]), hardy, 1e-10)
            chk.close(tag + " bergman", float(v["bergman_p2"]), float(mp.sqrt(
                2 * mp.fsum(abs(x) ** 2 * om[k] for k, x in enumerate(c)))),
                1e-10)
            chk.close(tag + " mixed", float(v["mixed_p2_q2_gamma0"]),
                      float(mp.sqrt(mp.fsum(abs(x) ** 2 * oracles.std_plain(a, 2 * k)
                                            for k, x in enumerate(c)))), 1e-10)
            chk.close(tag + " mixed sup", float(v["mixed_sup_p2"]), hardy, 1e-9)
        elif kind == "apply":
            rows = _csv_rows(res["out"])
            b, f = e["b"], e["f"]
            chk.equal(tag + " rows", len(rows), len(b) - 1)
            mu = oracles.hilbert_coefficients(f, len(b) - 2)
            for k, row in enumerate(rows):
                want = (k + 1) * b[k + 1] * mu[k]
                chk.close(tag + " c_%d" % k,
                          complex(float(row[1]), float(row[2])), want, 1e-10)
        elif kind == "decompose":
            rows, c, alpha = _csv_rows(res["out"]), e["c"], e["alpha"]
            chk.equal(tag + " blocks", len(rows), 11)
            for n, row in enumerate(rows):
                lo, hi = (0 if n == 0 else 2 ** n), 2 ** (n + 1)
                chk.equal(tag + " M_%d" % n, int(row[2]), 2 ** n)
                chk.equal(tag + " block_%d" % n, (int(row[3]), int(row[4])),
                          (lo, hi))
                wt = 2.0 ** (-n * alpha)
                chk.close(tag + " weight_%d" % n, float(row[6]), wt, 1e-10)
                if lo >= len(c):
                    chk.true(tag + " empty block_%d" % n,
                             float(row[5]) == 0.0 == float(row[7]), row)
                    continue
                norm = math.sqrt(math.fsum(abs(x) ** 2 for x in c[lo:hi]))
                chk.close(tag + " norm_%d" % n, float(row[5]), norm, 1e-10)
                chk.close(tag + " contribution_%d" % n, float(row[7]),
                          wt * norm ** 2, 1e-10)
        elif kind.startswith("inspect"):
            _check_inspect(chk, tag, e, v)
        elif kind == "norms-monomial":
            n, p, q, a = e["n"], e["p"], e["q"], e["alpha"]
            sfx = "p%g" % p
            chk.close(tag + " hardy", float(v["hardy_" + sfx]), 1.0, 1e-10)
            chk.close(tag + " bergman", float(v["bergman_" + sfx]),
                      float((2 * oracles.std_plain(a, n * p + 1)) ** (1 / mp.mpf(p))),
                      1e-8)
            chk.close(tag + " mixed",
                      float(v["mixed_%s_q%g_gamma0" % (sfx, q)]),
                      float(oracles.std_plain(a, n * q) ** (1 / mp.mpf(q))), 1e-8)
            chk.close(tag + " mixed sup", float(v["mixed_sup_" + sfx]),
                      (1.0 - 2.0 ** -40) ** n, 1e-10)
        elif kind == "norms-p3":
            hardy = float(v["hardy_p3"])
            chk.close(tag + " hardy", hardy, e["scale"] * h0, 1e-9)
            om0 = float(oracles.std_odd_moments(0.5, 0)[0])
            chk.leq(tag + " bergman <= hardy (2 omega_0)^(1/3)",
                    float(v["bergman_p3"]), hardy * (2.0 * om0) ** (1 / 3.0))
            chk.leq(tag + " mixed <= hardy", float(v["mixed_p3_q2_gamma0"]),
                    hardy)
            chk.leq(tag + " mixed sup <= hardy", float(v["mixed_sup_p3"]),
                    hardy * (1.0 + 1e-12))
        elif kind == "verify":
            _check_scenario_report(chk, tag, e, res)


def _check_inspect(chk, tag, e, v):
    import oracles
    if e["family"] == "std":
        a1 = oracles.mp.mpf(e["alpha"]) + 1
        chk.close(tag + " mass", float(v["total_mass"]),
                  float(oracles.mp.beta(oracles.HALF, a1) / 2), 1e-10)
        chk.equal(tag + " class", v["classification"], "Regular")
        chk.close(tag + " tail exponent", float(v["tail_exponent"]),
                  float(a1), 1e-9)
        # Muckenhoupt and condition (99) are finite exactly when
        # (alpha+1)/(p-1) < 1, i.e. alpha < p - 2
        key = "%g" % e["p"]
        for name in ("muckenhoupt_p", "condition_99_p"):
            chk.equal(tag + " " + name, v[name + key].split()[0], e["verdict"])
        chk.equal(tag + " verdict rule", e["alpha"] < e["p"] - 2,
                  e["verdict"] == "finite")
    else:
        chk.close(tag + " mass", float(v["total_mass"]), e["mass"], 1e-10)
        chk.equal(tag + " class", v["classification"], e["classification"])
        chk.equal(tag + " muckenhoupt", v["muckenhoupt_p3"].split()[0],
                  "finite")


def _check_scenario_report(chk, tag, e, res):
    sid = e["scenario"]
    chk.true(tag + " " + sid + " line",
             res["out"].startswith("scenario %s: Comparable" % sid), res["out"])
    rep = json.loads(res.get("report", "null") or "null")
    chk.true(tag + " " + sid + " report written", rep is not None)
    if rep is None:
        return
    chk.equal(tag + " " + sid + " report verdict", rep["verdict"], "Comparable")
    chk.equal(tag + " " + sid + " report seed", rep["seed"], e["seed"])
    cases = {c["case_id"]: c for c in rep["cases"]}
    if sid == "COR-PREV":
        for cid, c in cases.items():
            n = c["params"].get("n")
            if cid.startswith("dyadic-M"):
                chk.equal(tag + " " + cid, c["lhs"], float(2 ** n))
            elif cid.startswith("loglog-M"):
                chk.equal(tag + " " + cid, c["lhs"],
                          float("%.12e" % 2 ** (2 ** n - 1)))
    elif sid == "PROP-LIP":
        # rho(t) = t^(1/2): the Dini constant is 2, and b1 peaks at
        # t = 2^-20 with 2 (1 - 2^-10)
        chk.close(tag + " dini", cases["dini"]["lhs"], 2.0, 1e-9)
        chk.close(tag + " b1", cases["b1"]["lhs"], 2.0 * (1 - 2.0 ** -10), 1e-9)
    elif sid == "LEM-LIMITS":
        chk.true(tag + " all ok", all(c["verdict"] == "ok" for c in rep["cases"]))
