"""Command-line frontend.

Subcommands
-----------
weights inspect   classification, tail exponents, Muckenhoupt verdict
decompose         block partition (and per-block norms) as CSV; columns
                  n,r_n,M_n,block_lo,block_hi,block_Hp_norm,weight,
                  contribution are addressed by their header names; a
                  block norm that hits the circle-node cap is an error
apply             generalized Hilbert operator coefficients as CSV
hs                Hilbert-Schmidt partial sums as CSV (to --out if given),
                  then a verdict line on stdout:
                  "hs_limit: finite <estimate>", "hs_limit: divergent"
                  or "hs_limit: undetermined" (fewer than 8 sums)
lacunary          gap test and coefficient-moment sum for a gap series
verify            run a named verification scenario, write its report
norms             norm battery for one function against one weight: the
                  Bergman and mixed lines come from one radial integral
                  that samples each circle once (at p = 2 the Bergman
                  line is the exact moment sum), then the sup-grid line
                  and M_p(1, f); a norm whose circle means hit the node
                  cap, or whose radial integral hit the level cap, is an
                  error; --p inf prints the mixed, sup and
                  M_inf lines and names the Bergman line
                  "undefined (A^p_omega needs finite p)"

Weight specs:   const(c=1) | std(alpha=A) | pow(beta=B) | logpow(beta=B)
                | logprod(alpha=A[,n=N]) | osc() | table(path=FILE)
                optionally suffixed with *SCALE (e.g. "std(alpha=1)*2.5").
Function specs: poly(c0,c1,...) | logk(deg=D) | binom(s=S,deg=D)
                | rand(deg=D,seed=S[,dist=unit|sym|normal])

Exit codes: 0 success, 1 domain error (invalid mathematical input,
ill-defined operator), 2 usage error.  A domain error prints one
"error: ..." line on stderr and nothing on stdout; out-of-range numbers
are domain errors, not ignored: decompose needs finite alpha, p, q > 0,
apply needs kmax >= 0 and lacunary needs finite q > 0.  All floats print
as %.12e.
"""

import argparse
import functools
import math
import sys

from . import decomposition as dec
from . import operators as ops
from .analytic import (hardy_means_u, m_infinity_u, mixed_norm_sup,
                       parse_function_spec, radial_norms)
from .errors import DomainError, QuadratureDivergence
from .results import finite
from .verify import run_scenario, write_report
from .weights import (classify, condition_99, muckenhoupt, parse_weight,
                      tail_exponent)

_F = "%.12e"


def _emit(lines, out):
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_weights_inspect(args):
    w = parse_weight(args.weight)
    cls = classify(w)
    lines = ["weight: %s" % args.weight,
             "total_mass: " + _F % w.total_mass,
             "classification: %s" % cls.verdict,
             "distortion_ratio_range: " + _F % cls.ratio_range[0] + " "
             + _F % cls.ratio_range[1],
             "tail_exponent: " + _F % tail_exponent(w)]
    if cls.verdict == "Regular":
        lo, hi = cls.exponents
        lines.append("regularity_exponents: " + _F % lo + " " + _F % hi)
    if args.p is not None:
        mp = muckenhoupt(w, args.p)
        c99 = condition_99(w, args.p)
        lines.append("muckenhoupt_p%g: %s%s" % (
            args.p, mp.verdict,
            (" " + _F % mp.value) if mp.verdict == "finite" else ""))
        lines.append("condition_99_p%g: %s%s" % (
            args.p, c99.verdict,
            (" " + _F % c99.value) if c99.verdict == "finite" else ""))
    _emit(lines, args.out)
    return 0


def _cmd_decompose(args):
    if not (0 < args.p < math.inf and 0 < args.q < math.inf):     # NaN fails both
        raise DomainError("decompose requires finite p > 0 and q > 0")
    w = parse_weight(args.weight).normalized()
    part = dec.partition(w, args.alpha, args.max_degree)
    norms = [0.0] * part.block_count
    if args.f:
        norms, _, capped = dec.block_hardy_norms(parse_function_spec(args.f), [args.p], part)
        dec.capped_blocks(capped[0], args.p)
        norms = norms[0]
    lines = ["n,r_n,M_n,block_lo,block_hi,block_Hp_norm,weight,contribution"]
    for n, (lo, hi) in enumerate(part.blocks()):
        norm = float(norms[n])
        wt = 2.0 ** (-n * part.alpha)
        contribution = wt * norm ** args.q
        lines.append(("%d," + _F + ",%d,%d,%d," + _F + "," + _F + "," + _F)
                     % (n, part.radii[n], part.marks[n], lo, hi, norm, wt,
                        contribution))
    _emit(lines, args.out)
    return 0


def _cmd_apply(args):
    w = parse_weight(args.weight).normalized()
    g = parse_function_spec(args.g)
    f = parse_function_spec(args.f)
    setting = ops.OperatorSetting(args.p, args.q, w)
    img = ops.apply_generalized(g, f, args.kmax, setting)
    lines = ["k,re,im"]
    for k, c in enumerate(img.coefficients):
        lines.append(("%d," + _F + "," + _F) % (k, c.real, c.imag))
    _emit(lines, args.out)
    return 0


def _cmd_hs(args):
    w = parse_weight(args.weight).normalized()
    g = parse_function_spec(args.g)
    s = ops.hilbert_schmidt_partial(g, w, args.K)
    step = max(1, args.K // 200)
    lines = ["K,S_K"]
    for n in range(0, args.K + 1, step):
        lines.append(("%d," + _F) % (n, s[n]))
    if (args.K % step) != 0:
        lines.append(("%d," + _F) % (args.K, s[args.K]))
    _emit(lines, args.out)
    est, verdict = ops.hs_limit_estimate(s)
    sys.stdout.write("hs_limit: %s%s\n" % (
        verdict, (" " + _F % est) if verdict == "finite" else ""))
    return 0


def _cmd_lacunary(args):
    w = parse_weight(args.weight).normalized()
    exps = [int(v) for v in args.exps.split(",")]
    coeffs = [float(v) for v in args.coeffs.split(",")]
    if len(exps) != len(coeffs):
        raise DomainError("need as many coefficients as exponents")
    ok, witness, ratios = dec.is_omega_lacunary(exps, w, args.gap)
    lines = ["omega_lacunary: %s" % ("true" if ok else "false")]
    if not ok:
        lines.append("first_violation_k: %d" % witness)
    lines.append("tail_ratios: " + " ".join(_F % r for r in ratios))
    norm = dec.lacunary_norm(coeffs, exps, args.q, w, gap=args.gap)
    lines.append("coefficient_moment_sum: " + _F % float(norm))
    _emit(lines, args.out)
    return 0


def _cmd_verify(args):
    config = {"seed": args.seed}
    if args.weight:
        config["weight"] = args.weight
    if args.p is not None:
        config["p"] = args.p
    if args.q is not None:
        config["q"] = args.q
    report = run_scenario(args.scenario, config)
    if args.out:
        write_report(report, args.out, fmt=args.format)
    sys.stdout.write("scenario %s: %s (spread " % (report.scenario,
                                                   report.verdict)
                     + _F % report.stats[2] + ", window "
                     + _F % report.window + ")\n")
    return 0 if report.verdict != "Violation" else 1


def _cmd_norms(args):
    w = parse_weight(args.weight).normalized()
    f = parse_function_spec(args.f)
    # A^p_omega has no p = inf member: that line names the gap (None)
    p_inf = args.p == math.inf
    mixed_line = (args.p, w, args.q, args.gamma)
    if p_inf:
        bergman, mixed = None, *radial_norms(f, [mixed_line])
    else:
        bergman, mixed = radial_norms(f, [(args.p, w), mixed_line])
    rows = [("bergman_p%g" % args.p, bergman),
            ("mixed_p%g_q%g_gamma%g" % (args.p, args.q, args.gamma), mixed),
            ("mixed_sup_p%g" % args.p, mixed_norm_sup(f, args.p, w))]
    hardy, diag = m_infinity_u(f, [0.0]) if p_inf else hardy_means_u(f, args.p, [0.0])
    rows.append(("hardy_p%g" % args.p, finite(hardy[0], capped=diag["capped"])))
    capped = [name for name, v in rows if v is not None and v.diagnostics.get("capped")]
    deep = [name for name, v in rows
            if v is not None and v.diagnostics.get("stop") == "max-level"]
    causes = []
    if capped:
        causes.append("the circle means behind %s hit the 2^18 node cap" % ", ".join(capped))
    if deep:
        causes.append("the radial integrals behind %s hit the level cap" % ", ".join(deep))
    if causes:
        raise DomainError("%s: undetermined" % "; ".join(causes))
    _emit(["%s: " % name + ("undefined (A^p_omega needs finite p)" if v is None
                            else _F % float(v)) for name, v in rows], args.out)
    return 0


@functools.cache
def _build_parser():
    """The argument parser, built once per process: parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="bergman",
        description="Hilbert-type operators on weighted Bergman spaces",
        epilog=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p_w = sub.add_parser("weights", help="weight diagnostics")
    sub_w = p_w.add_subparsers(dest="weights_command", required=True)
    p_wi = sub_w.add_parser("inspect", help="classify a weight")
    p_wi.add_argument("--weight", required=True)
    p_wi.add_argument("--p", type=float, default=None)
    p_wi.add_argument("--out", default=None)
    p_wi.set_defaults(func=_cmd_weights_inspect)

    p_d = sub.add_parser("decompose", help="block partition as CSV")
    p_d.add_argument("--weight", required=True)
    p_d.add_argument("--alpha", type=float, required=True)
    p_d.add_argument("--max-degree", type=int, required=True)
    p_d.add_argument("--f", default=None)
    p_d.add_argument("--p", type=float, default=2.0)
    p_d.add_argument("--q", type=float, default=2.0)
    p_d.add_argument("--out", default=None)
    p_d.set_defaults(func=_cmd_decompose)

    p_a = sub.add_parser("apply", help="apply the generalized Hilbert operator")
    p_a.add_argument("--g", required=True)
    p_a.add_argument("--f", required=True)
    p_a.add_argument("--weight", required=True)
    p_a.add_argument("--p", type=float, default=2.0)
    p_a.add_argument("--q", type=float, default=2.0)
    p_a.add_argument("--kmax", type=int, default=256)
    p_a.add_argument("--out", default=None)
    p_a.set_defaults(func=_cmd_apply)

    p_h = sub.add_parser("hs", help="Hilbert-Schmidt partial sums")
    p_h.add_argument("--g", required=True)
    p_h.add_argument("--weight", required=True)
    p_h.add_argument("--K", type=int, default=2000)
    p_h.add_argument("--out", default=None)
    p_h.set_defaults(func=_cmd_hs)

    p_l = sub.add_parser("lacunary", help="gap tests for a lacunary series")
    p_l.add_argument("--coeffs", required=True)
    p_l.add_argument("--exps", required=True)
    p_l.add_argument("--weight", required=True)
    p_l.add_argument("--q", type=float, default=2.0)
    p_l.add_argument("--gap", type=float, default=1.05)
    p_l.add_argument("--out", default=None)
    p_l.set_defaults(func=_cmd_lacunary)

    p_v = sub.add_parser("verify", help="run a verification scenario")
    p_v.add_argument("--scenario", required=True)
    p_v.add_argument("--weight", default=None)
    p_v.add_argument("--p", type=float, default=None)
    p_v.add_argument("--q", type=float, default=None)
    p_v.add_argument("--seed", type=int, default=0)
    p_v.add_argument("--out", default=None)
    p_v.add_argument("--format", choices=["csv", "json"], default="csv")
    p_v.set_defaults(func=_cmd_verify)

    p_n = sub.add_parser("norms", help="norm battery for one function")
    p_n.add_argument("--f", required=True)
    p_n.add_argument("--weight", required=True)
    p_n.add_argument("--p", type=float, default=2.0)
    p_n.add_argument("--q", type=float, default=2.0)
    p_n.add_argument("--gamma", type=float, default=0.0)
    p_n.add_argument("--out", default=None)
    p_n.set_defaults(func=_cmd_norms)
    return ap


def main(argv=None):
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (DomainError, QuadratureDivergence) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except (ValueError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
