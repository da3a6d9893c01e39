"""Theorem-level verification scenarios.

Each scenario turns one norm-equivalence statement into a corpus of cases:
for every case a left-hand quantity and a right-hand quantity are computed
by independent code paths and their ratio is recorded.  A scenario passes
("Comparable") when the spread max/min of the finite ratios stays inside a
configured window; scenarios probing divergent situations pass when the
divergence is detected ("Divergence-consistent"); anything else is a
"Violation" naming the offending case.  A case with a NaN side (an
``undetermined`` norm, e.g. from ``analytic.radial_norms`` at a node or
level cap) is itself a violation, so no truncation passes unseen.

A scenario is registered in ``_scenarios`` as id -> (function, defaults).
``run_scenario`` owns the protocol they share: it times the run, rejects
config keys the defaults lack, builds the report and judges it; the
function ``fn(cfg, rep, window)`` only adds cases and diagnostics.  The
window is an ordinary default: windows are configuration, not code, ship
in ``data/windows.json`` and were measured once on the reference corpus.
Reports are deterministic byte-for-byte given identical configuration and
seeds.
"""

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, field
from importlib import resources

import numpy as np

from . import decomposition as dec
from . import operators as ops
from .analytic import (AnalyticFunction, binomial_kernel, dirichlet_norm,
                       lambda_norm, log_kernel, mixed_norm, mixed_norm_sup,
                       bergman_norm, radial_norms, random_function)
from .errors import DivergentMassError, DomainError
from .quadrature import geometric_u_grid, integrate_geometric
from .weights import (classify, const_weight, derived_weight, distortion,
                      logpow_weight, muckenhoupt, pow_weight, std_weight,
                      u_p_weight)


# ---------------------------------------------------------------------------
# report plumbing

@dataclass
class ScenarioReport:
    scenario: str
    cases: list = field(default_factory=list)
    stats: tuple = (math.nan, math.nan, math.nan)   # (min, max, spread)
    verdict: str = "Comparable"
    window: float = math.inf
    runtime: float = 0.0
    seed: int = 0
    diagnostics: dict = field(default_factory=dict)


def _config(config, defaults):
    """The defaults updated by ``config``, which may set only their keys: an
    unknown key would otherwise be ignored silently."""
    unknown = sorted(set(config) - set(defaults))
    if unknown:
        raise DomainError("unknown config keys %s (known: %s)"
                          % (", ".join(unknown), ", ".join(sorted(defaults))))
    return {**defaults, **config}


def _case(case_id, params, lhs, rhs, verdict="ok"):
    lhs, rhs = float(lhs), float(rhs)
    if math.isnan(lhs) or math.isnan(rhs):
        verdict = "violation"           # an undetermined norm decides nothing
    ratio = lhs / rhs if (math.isfinite(lhs) and math.isfinite(rhs) and rhs != 0) \
        else math.nan
    return {"case_id": case_id, "params": params, "lhs": lhs, "rhs": rhs,
            "ratio": ratio, "verdict": verdict}


def ratio_statistics(values):
    """(min, max, spread = max/min) of a nonempty list of positive ratios."""
    vals = [float(v) for v in values]
    if not vals:
        raise DomainError("ratio_statistics needs a nonempty list")
    lo, hi = min(vals), max(vals)
    return lo, hi, hi / lo


def _finish(report, window, t0, expect="comparable"):
    ratios = [c["ratio"] for c in report.cases
              if math.isfinite(c["ratio"]) and c["ratio"] > 0]
    if ratios:
        report.stats = ratio_statistics(ratios)
    report.window = window
    report.runtime = time.monotonic() - t0
    flagged = [c for c in report.cases if c["verdict"] == "violation"]
    if expect == "divergence":
        report.verdict = "Violation" if flagged else "Divergence-consistent"
    elif flagged or (ratios and report.stats[2] > window):
        report.verdict = "Violation"
        if not flagged and ratios:
            worst = max(report.cases, key=lambda c: c["ratio"]
                        if math.isfinite(c["ratio"]) else -math.inf)
            report.diagnostics["worst_case"] = worst["case_id"]
    else:
        report.verdict = "Comparable"
    return report


def _round12(x):
    if isinstance(x, float):
        return float("%.12e" % x)
    if isinstance(x, dict):
        return {k: _round12(v) for k, v in sorted(x.items())}
    if isinstance(x, (list, tuple)):
        return [_round12(v) for v in x]
    return x


def write_report(report, path, fmt="csv"):
    """Serialize a report deterministically (sorted keys, %.12e floats).
    CSV rows go through ``csv``, which quotes the commas of ``param_json``."""
    if fmt not in ("csv", "json"):
        raise DomainError("format must be csv or json")
    with open(path, "w", newline="") as fh:
        if fmt == "json":          # every field but the runtime
            obj = _round12({k: v for k, v in asdict(report).items() if k != "runtime"})
            fh.write(json.dumps(obj, sort_keys=True, indent=1, allow_nan=True) + "\n")
            return path
        rows = csv.writer(fh, lineterminator="\n")
        rows.writerow("scenario,case_id,param_json,lhs,rhs,ratio,verdict".split(","))
        for c in report.cases:
            pj = json.dumps(c["params"], sort_keys=True,
                            separators=(",", ":")).replace('"', "'")
            rows.writerow([report.scenario, c["case_id"], pj,
                           *("%.12e" % c[k] for k in ("lhs", "rhs", "ratio")), c["verdict"]])
    return path


def default_windows():
    with resources.files("bergman").joinpath("data/windows.json").open() as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# shared corpora and weights

def named_weight(name):
    table = {
        "const": const_weight(1.0),
        "linear": pow_weight(1.0).normalized(),        # 2(1-r)
        "std-0.5": std_weight(-0.5).normalized(),
        "std1": std_weight(1.0).normalized(),
        "logpow2": logpow_weight(2.0).normalized(),
    }
    if name not in table:
        raise DomainError("unknown scenario weight %r" % name)
    return table[name]


def corpus_functions(degree=256, count=30, seed=0):
    """Deterministic corpus: monomials, random polynomials, kernel truncations."""
    fns = []
    e = 1
    while e <= degree and len(fns) < 10:
        fns.append(("mono%d" % e, AnalyticFunction(np.eye(1, e + 1, e)[0])))
        e *= 2
    dists = ["unit", "sym", "normal"]
    degs = [max(degree // 4, 4), max(degree // 2, 8), degree]
    i = 0
    while len(fns) < count - 8:
        fns.append(("rand%02d" % i,
                    random_function(degs[i % 3], seed + 100 + i, dists[i // 3 % 3])))
        i += 1
    fns.extend([
        ("logk", log_kernel(degree)),
        ("logk-half", log_kernel(max(degree // 2, 8))),
        ("binom0.5", binomial_kernel(0.5, degree)),
        ("binom0.25", binomial_kernel(0.25, degree)),
        ("binom0.75", binomial_kernel(0.75, max(degree // 2, 8))),
        ("one-plus-z", AnalyticFunction([1.0, 1.0])),
        ("alt", AnalyticFunction([(-1.0) ** k / (k + 1.0) for k in range(degree + 1)])),
        ("geo", AnalyticFunction([0.5 ** k for k in range(degree + 1)])),
    ])
    return fns[:count]


def hat_weight(w):
    """The tail as a weight: density hat-omega(r) = tail(r)."""
    return derived_weight(lambda u: np.asarray(w.tail_u(u), dtype=float),
                          family="hat-" + w.family, params=dict(w.params),
                          mass=w.moment_plain(1.0))


# ---------------------------------------------------------------------------
# scenarios

def _th_dec(cfg, rep, window):
    fns = corpus_functions(cfg["degree"], cfg["count"], cfg["seed"])
    weights = {wname: named_weight(wname) for wname in cfg["weights"]}

    # The mixed norms dominate the cost, and the geometric quadrature nodes
    # are identical for every weight and pair, so one radial pass per
    # function serves all (pair, weight) lines and samples each circle once
    # for every p.
    pairs = cfg["pairs"]
    lines = [(wname, p, q) for p, q in pairs for wname in weights]
    mixed = {}
    for label, f in fns:
        norms = radial_norms(f, [(p, weights[wname], q, 0.0) for wname, p, q in lines],
                             circle_tol=1e-6, rel_tol=1e-8)
        mixed.update({(*line, label): norm for line, norm in zip(lines, norms)})

    cell_spreads = {}
    for wname, w in weights.items():
        parts = {a: dec.partition(w, a, cfg["degree"]) for a in cfg["alphas"]}
        # one batched block-norm call per (alpha, f) serves every pair
        dec_vals = {(a, label): dec.decomposition_norm(f, *zip(*pairs), parts[a])
                    for a in cfg["alphas"] for label, f in fns}
        for i, (p, q) in enumerate(pairs):
            for a in cfg["alphas"]:
                cell = "%s|p%g-q%g|a%g" % (wname, p, q, a)
                cases = [_case(cell + "|" + label, {"weight": wname, "p": p, "q": q, "alpha": a,
                                                    "f": label},
                               dec_vals[(a, label)][i], mixed[(wname, p, q, label)])
                         for label, _ in fns]
                rep.cases.extend(cases)
                # an undetermined side fails its case; the spread is over the rest
                ratios = [c["ratio"] for c in cases if math.isfinite(c["ratio"])]
                if ratios:
                    cell_spreads[cell] = ratio_statistics(ratios)[2]
    rep.diagnostics["cell_spreads"] = cell_spreads
    rep.diagnostics["max_cell_spread"] = max(cell_spreads.values(), default=math.nan)
    if rep.diagnostics["max_cell_spread"] > window:
        rep.cases.append(_case("cell-window", {}, rep.diagnostics["max_cell_spread"],
                               window, verdict="violation"))


def _cor_prev(cfg, rep, window):
    # power-tail weight: alpha = q*gamma makes the marks exactly dyadic
    qg = cfg["q"] * cfg["gamma"]
    w1 = pow_weight(qg - 1.0).normalized()
    part1 = dec.partition(w1, qg, 1024)
    for n, m in enumerate(part1.marks):
        rep.cases.append(_case("dyadic-M%d" % n, {"n": n}, float(m),
                               float(2 ** n),
                               verdict="ok" if m == 2 ** n else "violation"))

    # log-tail weight: marks are doubly dyadic 2^(2^n - 1)
    m_exp = cfg["m"]
    c = m_exp * math.log(2.0) ** m_exp

    def density_u(u):
        u = np.asarray(u, dtype=float)
        return c / (u * np.log(2.0 / u) ** (m_exp + 1.0))

    def tail_u(u):
        u = np.asarray(u, dtype=float)
        return (math.log(2.0) / np.log(2.0 / u)) ** m_exp

    w2 = derived_weight(density_u, family="logtail", params={"m": m_exp},
                        tail_u=tail_u, mass=1.0)
    part2 = dec.partition(w2, m_exp, 1000)
    for n, m in enumerate(part2.marks):
        expect = 2 ** (2 ** n - 1)
        rep.cases.append(_case("loglog-M%d" % n, {"n": n}, float(m),
                               float(expect),
                               verdict="ok" if m == expect else "violation"))

    # the two decomposition code paths agree exactly on the dyadic weight
    f = log_kernel(512)
    lhs = float(dec.decomposition_norm(f, 2.0, 2.0, part1))
    norms = [float(np.sqrt(np.sum(np.abs(
        f.coefficients[(0 if n == 0 else part1.marks[n]):part1.marks[n + 1]]) ** 2)))
        for n in range(part1.block_count)]
    rhs = float(np.sqrt(sum(2.0 ** (-n * part1.alpha) * v ** 2
                            for n, v in enumerate(norms))))
    rep.cases.append(_case("paths-agree", {"f": "logk512"}, lhs, rhs))


def _lacunary_series(w, q, count, seed, k_terms):
    """Seeded omega-lacunary test series on the alpha = 1 marks of w."""
    part = dec.partition(w, 1.0, 0)
    exps = []
    for n in range(k_terms):
        m = part.mark_float(n)
        if not math.isfinite(m) or m > 2 ** 28:
            break
        m = int(m)
        if exps and m <= exps[-1]:
            continue
        exps.append(m)
    rng = np.random.default_rng(seed)
    series = []
    for i in range(count):
        decay = rng.uniform(0.0, 0.8 / q)
        a = rng.uniform(0.2, 1.0, size=len(exps)) * \
            2.0 ** (-decay * np.arange(len(exps)))
        series.append(a)
    return exps, series


def _th_lac(cfg, rep, window):
    for wname in cfg["weights"]:
        w = named_weight(wname)
        exps, series = _lacunary_series(w, 2.0, cfg["count"], cfg["seed"],
                                        cfg["k_terms"])
        part = dec.partition(w, 1.0, exps[-1])
        if not part.complete:
            # the mark after exps[-1] exceeded the partition cap; drop the
            # exponents past the covered degree range
            exps = [e for e in exps if e <= part.covered_degree]
            series = [a[:len(exps)] for a in series]
        block_of = [part.block_index(e) for e in exps]
        for q in cfg["qs"]:
            for i, a in enumerate(series):
                coeffs = np.zeros(exps[-1] + 1)
                coeffs[exps] = a
                f = AnalyticFunction(coeffs)
                rhs = float(mixed_norm(f, 2.0, q, w)) ** q
                by_block = {}
                for ak, b in zip(a, block_of):
                    by_block.setdefault(b, []).append(ak)
                s2 = sum(2.0 ** -b * np.sum(np.square(v)) ** (q / 2.0)
                         for b, v in by_block.items())
                s3 = sum(2.0 ** -b * np.sum(np.power(v, q))
                         for b, v in by_block.items())
                s4 = sum(2.0 ** -b * np.sum(v) ** q
                         for b, v in by_block.items())
                s5 = float(dec.lacunary_norm(a, exps, q, w))
                for name, s in [("ii", s2), ("iii", s3), ("iv", s4), ("v", s5)]:
                    cid = "%s|q%g|s%02d|%s" % (wname, q, i, name)
                    rep.cases.append(_case(cid, {"weight": wname, "q": q,
                                                 "series": i, "sum": name},
                                           float(s), rhs))


def _th_lacsup(cfg, rep, window):
    for wname in cfg["weights"]:
        w = named_weight(wname)
        exps, _ = _lacunary_series(w, 2.0, 1, cfg["seed"], cfg["k_terms"])
        exps = [e for e in exps if e <= 2 ** 18]
        for beta in cfg["betas"]:
            base = np.array([w.moment_plain(n) ** -beta for n in exps])
            member_a = base
            escaper_a = base * (np.arange(len(exps)) + 1.0) ** 2
            ok_m, margin_m = dec.lacunary_sup_test(member_a, exps, w, beta)
            ok_e, margin_e = dec.lacunary_sup_test(escaper_a, exps, w, beta)
            rep.cases.append(_case(
                "%s|b%g|member" % (wname, beta),
                {"weight": wname, "beta": beta}, margin_m, 1.0,
                verdict="ok" if ok_m else "violation"))
            # the escaper's margin grows by design; rhs = 0 keeps the
            # pass/fail case out of the comparability spread statistics
            rep.cases.append(_case(
                "%s|b%g|escaper" % (wname, beta),
                {"weight": wname, "beta": beta}, margin_e, 0.0,
                verdict="ok" if not ok_e else "violation"))
            # the member's coefficient margin matches its sup norm
            coeffs = np.zeros(exps[-1] + 1)
            coeffs[exps] = member_a
            f = AnalyticFunction(coeffs)
            sup = float(mixed_norm_sup(f, 2.0, w, beta=beta))
            rep.cases.append(_case("%s|b%g|sup-vs-margin" % (wname, beta),
                                   {"weight": wname, "beta": beta},
                                   sup, margin_m))


def _th_gorro(cfg, rep, window):
    w = named_weight(cfg["weight"])
    p = cfg["p"]
    mp = muckenhoupt(w, p)
    rep.diagnostics["muckenhoupt"] = mp.verdict
    escape = cfg["escape"] if cfg["escape"] is not None else mp.divergent

    # every node of the span [r, 1) has t >= r, where phi_r = phi_0, so one
    # shared-kernel call gives every p = 2 numerator
    phi_0 = ops.phi_r_profile(w, 0.0, p)[0]
    if not escape:
        rs = [1.0 - 2.0 ** -j for j in range(cfg["j_max"] + 1)]
        nums = ops.hilbert_norm2_profile(phi_0, w, t_min=rs) if p == 2 else None
        for j, r in enumerate(rs):
            phi, edge = ops.phi_r_profile(w, r, p)
            den = float(ops.lp_hat_norm(phi, p, w, t_min=edge))
            num = float(nums[j]) if p == 2 \
                else _hilbert_norm_general(phi, edge, p, w)
            rep.cases.append(_case("phi-j%02d" % j,
                                   {"j": j, "family": "phi_r"}, num, den))
        for i in range(cfg["n_random"]):
            f = random_function(64, cfg["seed"] + i, dist="unit")
            img = ops.apply_classical(f, 4096)
            num = float(bergman_norm(img, p, w))
            den = float(ops.lp_hat_norm(lambda u: np.real(f(1.0 - u)), p, w))
            rep.cases.append(_case("rand%03d" % i,
                                   {"i": i, "family": "random"}, num, den))
        return None

    # divergent Muckenhoupt constant: the phi_r ratios escape every bound.
    # The profiles are truncated at the Carleson-square depth (1-r)^2 to
    # keep both norms finite; growth of the ratio along j is the evidence.
    ratios = {}
    js = range(1, cfg["j_max"] + 1)             # j = 0 has an empty square
    rs = [1.0 - 2.0 ** -j for j in js]
    nums = ops.hilbert_norm2_profile(phi_0, w, t_min=rs,
                                     t_max=[1.0 - (1.0 - r) ** 2 for r in rs])
    for j, r, num in zip(js, rs, nums.tolist()):
        phi, edge = ops.phi_r_profile(w, r, p)
        den_sq = integrate_geometric(
            lambda u: np.asarray(phi(u)) ** p * np.asarray(w.tail_u(u)),
            (1.0 - r) ** 2, 1.0 - r)
        den = den_sq ** (1.0 / p)
        ratios[j] = num / den
        rep.cases.append(_case("phi-j%02d" % j, {"j": j, "family": "phi_r"},
                               num, den))
    rep.diagnostics["escape_factor"] = ratios[cfg["j_max"]] / ratios[2]
    if not ratios[cfg["j_max"]] > 4.0 * ratios[2]:
        rep.cases.append(_case("escape", {}, ratios[cfg["j_max"]], ratios[2],
                               verdict="violation"))
    return window, "divergence"


#: moments of a phi_r profile that the general-p TH-GORRO norm keeps
_GORRO_K_MAX = 2 ** 14


def _hilbert_norm_general(phi, edge, p, w):
    mu = ops.moments_profile(phi, _GORRO_K_MAX, t_min=edge)
    return float(bergman_norm(AnalyticFunction(mu), p, w))


def _cor_hilb(cfg, rep, window):
    w = named_weight(cfg["weight"])

    # relaxed-tolerance p-norms: the spread window is orders of magnitude
    # wider than six-digit norms, and the images carry thousands of
    # coefficients, so chasing 1e-11 here would dominate the runtime
    lines = [(p, w) for p in cfg["ps"]]

    def pnorms(f):
        return [float(norm) for norm in radial_norms(f, lines, circle_tol=1e-6, rel_tol=1e-7)]

    norms = []
    for i in range(cfg["count"]):
        f = random_function(cfg["degree"], cfg["seed"] + i, dist="unit")
        norms.append((pnorms(ops.apply_classical(f, 2048)), pnorms(f)))
    for k, p in enumerate(cfg["ps"]):
        for i, (lhs, rhs) in enumerate(norms):
            rep.cases.append(_case("p%g|s%02d" % (p, i), {"p": p, "i": i},
                                   lhs[k], rhs[k]))


_SYMBOLS = {
    "z": lambda: AnalyticFunction([0.0, 1.0]),
    "z2": lambda: AnalyticFunction([0.0, 0.0, 1.0]),
    "logk": lambda: log_kernel(2048),
    "binom0.5": lambda: binomial_kernel(0.5, 2048),
}


def _th_main_pq(cfg, rep, window):
    w = named_weight(cfg["weight"])
    p, q = cfg["p"], cfg["q"]
    setting = ops.OperatorSetting(p, q, w)
    part = dec.partition(w, 1.0, 2 ** 22)
    eta = 1.0 / p - 1.0 / q
    pairs = []
    for name in cfg["symbols"]:
        g = _SYMBOLS[name]()
        lhs = ops.operator_norm_lower(g, setting, part, n_max=cfg["n_max"])
        rhs = float(lambda_norm(g, q, 1.0 / p, eta, w))
        pairs.append((name, lhs, rhs))
        rep.cases.append(_case(name, {"symbol": name}, lhs, rhs))
    # ordering: a clearly larger symbol norm must give a larger lower bound.
    # The norms agree only up to the comparability constant, so ordering is
    # decidable only for pairs separated by more than the observed spread
    # (e.g. the exact A^2 norms of H_z and H_{z^2} order opposite to their
    # Lipschitz-space norms, which differ by a factor well inside it).
    ratios = [li / ri for _, li, ri in pairs if ri > 0]
    spread = max(ratios) / min(ratios) if ratios else 1.0
    for i in range(len(pairs)):
        for j in range(len(pairs)):
            ni, li, ri = pairs[i]
            nj, lj, rj = pairs[j]
            if ri > spread * rj and li < lj:
                rep.cases.append(_case("order-%s-%s" % (ni, nj),
                                       {"larger": ni, "smaller": nj},
                                       li, lj, verdict="violation"))


def _th_main_qp(cfg, rep, window):
    w = named_weight(cfg["weight"])
    p, q = cfg["p"], cfg["q"]
    setting = ops.OperatorSetting(p, q, w)
    s = setting.s
    hw = hat_weight(w)
    # only the q >= p test family reads the partition
    part = dec.partition(w, 1.0, 2 ** 22) if q >= p else None
    for name in cfg["symbols"]:
        g = _SYMBOLS[name]()
        lhs = ops.operator_norm_lower(g, setting, part)
        rhs = float(mixed_norm(g.derivative(), q, s, hw,
                               gamma=s * (1.0 - 1.0 / q)))
        rep.cases.append(_case(name, {"symbol": name, "s": s}, lhs, rhs))


def _th_compact(cfg, rep, window):
    w = named_weight(cfg["weight"])
    part = dec.partition(w, 1.0, 2 ** 13)
    trends = {}
    for name in cfg["symbols"]:
        g = _SYMBOLS[name]()
        sup, profile = dec.block_criterion_lambda(g, cfg["q"], cfg["p"],
                                                  cfg["eta"], part)
        nz = profile[profile > 0]
        trend = float(nz[-1] / nz.max()) if len(nz) else 0.0
        trends[name] = {"sup": float(sup), "tail_over_peak": trend,
                        "profile": [float(v) for v in profile]}
        rep.cases.append(_case(name, {"symbol": name}, float(sup),
                               max(trend, 1e-300)))
    rep.diagnostics["profiles"] = trends
    rep.diagnostics["note"] = ("report-only: finite profiles cannot certify "
                               "the little-o decay, only exhibit trends")


def _th_hs(cfg, rep, window):
    w = named_weight(cfg["weight"])
    symbols = [("z2", AnalyticFunction([0.0, 0.0, 1.0])),
               ("z+3z3", AnalyticFunction([0.0, 1.0, 0.0, 3.0])),
               ("rand8", random_function(8, cfg["seed"], dist="sym"))]
    for name, g in symbols:
        s = ops.hilbert_schmidt_partial(g, w, cfg["K"])
        est, verdict = ops.hs_limit_estimate(s)
        stab = abs(s[cfg["K"]] - s[cfg["K"] // 2]) / s[cfg["K"] // 2]
        rhs = float(dirichlet_norm(g - AnalyticFunction([g.coefficients[0]]))) ** 2
        ok = verdict == "finite" and stab < cfg["stab_bar"]
        rep.cases.append(_case(name, {"symbol": name, "stab": stab},
                               est, rhs, verdict="ok" if ok else "violation"))
    # divergence slope for the logarithm symbol
    g = log_kernel(8192)
    s = ops.hilbert_schmidt_partial(g, w, cfg["K"])
    incs = [s[2 * K] - s[K] for K in (500, 1000, 2000)]
    c_fit = float(np.mean(incs)) / math.log(2.0)
    ok = all(0.5 * c_fit * math.log(2.0) <= inc <= 2.0 * c_fit * math.log(2.0)
             for inc in incs)
    est, verdict = ops.hs_limit_estimate(s)
    rep.cases.append(_case("logk-divergence", {"c_fit": c_fit, "incs": incs},
                           incs[-1], c_fit * math.log(2.0),
                           verdict="ok" if ok and verdict == "divergent"
                           else "violation"))
    # eq:suma comparability
    suma = [float(ops.suma_ratio(w, k)) for k in range(1, cfg["k_suma"] + 1)]
    lo, hi, spread = ratio_statistics(suma)
    rep.diagnostics["suma_spread"] = spread
    rep.cases.append(_case("eq-suma", {"k_max": cfg["k_suma"]}, hi, lo,
                           verdict="ok" if spread <= cfg["suma_window"]
                           else "violation"))


def _lem_limits(cfg, rep, window):
    for p in cfg["ps"]:
        for off in cfg["offsets"]:
            alpha = p - 2.0 + off
            if alpha <= -1.0:
                continue
            w = std_weight(alpha).normalized()
            # the distortion quotient psi/(1-r) at depth vs the 1/(p-1) bar
            u = 2.0 ** -30
            quotient = float(distortion(w, 1.0 - u)) / u
            predicted = "finite" if quotient > 1.0 / (p - 1.0) + 1e-6 \
                else "divergent"
            actual = muckenhoupt(w, p).verdict
            rep.cases.append(_case(
                "p%g|a%+g" % (p, off), {"p": p, "alpha": alpha,
                                        "quotient": quotient},
                quotient, 1.0 / (p - 1.0),
                verdict="ok" if predicted == actual else "violation"))


def _prop_lip(cfg, rep, window):
    w = named_weight(cfg["weight"])
    p, eta = cfg["p"], cfg["eta"]

    def rho(t):
        t = np.asarray(t, dtype=float)
        v = t ** (1.0 / p)
        if eta:
            v = v * np.asarray(w.tail_u(t), dtype=float) ** eta
        return v

    ts = 2.0 ** -np.arange(1, 21, dtype=float)
    dini = []
    b1 = []
    for t in ts:
        d = integrate_geometric(lambda s: rho(s) / s, 0.0, t)
        dini.append(d / float(rho(t)))
        b = integrate_geometric(lambda s: rho(s) / s ** 2, t, 1.0)
        b1.append(b / (float(rho(t)) / t))
    rep.cases.append(_case("dini", {"constants": [float(v) for v in dini]},
                           max(dini), 1.0))
    rep.cases.append(_case("b1", {"constants": [float(v) for v in b1]},
                           max(b1), 1.0))


def _ineq_minfty(cfg, rep, window):
    fns = corpus_functions(cfg["degree"], cfg["count"], cfg["seed"])
    half_pi = math.pi / 2.0
    worst = 0.0
    pairs = [(wname, named_weight(wname)) for wname in cfg["weights"]]
    bases = [w for _, w in pairs]
    # the quadrature panels coincide across weights and p, so each side is
    # one radial pass per function over all its (weight, p) lines, and the
    # circle maxima / p-means are computed once per node block
    cols = [(i, wname, p) for i, (wname, _) in enumerate(pairs) for p in cfg["ps"]]
    hats = [hat_weight(w) for w in bases]
    for label, f in fns:
        # grid maxima are certified lower bounds, so a loose
        # tolerance keeps the one-sided check conservative
        lhs_norms = radial_norms(f, [(math.inf, hats[i], p, 0.0) for i, _, p in cols],
                                 circle_tol=1e-3, rel_tol=1e-8)
        rhs_norms = radial_norms(f, [(p, bases[i]) for i, _, p in cols],
                                 circle_tol=1e-5, rel_tol=1e-7)
        for (i, wname, p), lhs, rhs in zip(cols, lhs_norms, rhs_norms):
            lhs, rhs = float(lhs) ** p, half_pi * float(rhs) ** p
            ok = lhs <= rhs * (1.0 + 1e-9)
            worst = max(worst, lhs / rhs)
            rep.cases.append(_case("%s|p%g|%s" % (wname, p, label),
                                   {"weight": wname, "p": p, "f": label},
                                   lhs, rhs,
                                   verdict="ok" if ok else "violation"))
    rep.diagnostics["max_lhs_over_rhs"] = worst


def _lem_up(cfg, rep, window):
    us = geometric_u_grid(30, 2)
    for p in cfg["ps"]:
        for off in cfg["offsets"]:
            alpha = p - 2.0 + off
            if alpha <= -1.0:
                continue
            w = std_weight(alpha).normalized()
            in_mp = muckenhoupt(w, p).verdict == "finite"
            # (ii): tail^(-1/(p-1)) integrable and regular
            def inv_tail_log(lu, w=w, p=p):
                # density * u from log u, stable below tail underflow depth
                lu = np.asarray(lu, dtype=float)
                with np.errstate(under="ignore"):
                    return np.exp(-w.tail_u_log(lu) / (p - 1.0) + lu)

            try:
                wi = derived_weight(lambda u, w=w: np.asarray(w.tail_u(u)) **
                                    (-1.0 / (p - 1.0)), family="inv-tail",
                                    density_u_log=inv_tail_log)
                cond_ii = classify(wi).verdict == "Regular"
            except DivergentMassError:
                cond_ii = False
            # (iii): u_p is a regular weight
            try:
                cond_iii = classify(u_p_weight(w, p)).verdict == "Regular"
            except DivergentMassError:
                cond_iii = False
            # (iv): (1-r)^p / tail * int_0^r tail/(1-t)^p  comparable to 1-r
            f_b = lambda v: v ** -p * np.asarray(w.tail_u(v))
            vals = []
            for u in us[::4]:
                b = integrate_geometric(f_b, u, 1.0) if u < 1.0 else 0.0
                if b > 0:
                    vals.append(u ** p / float(w.tail_u(u)) * b / u)
            cond_iv = bool(max(vals) / min(vals) <= window) if vals else False
            agree = (cond_ii == in_mp) and (cond_iii == in_mp) and \
                (cond_iv == in_mp)
            rep.cases.append(_case(
                "p%g|a%+g" % (p, off),
                {"p": p, "alpha": alpha, "mp": in_mp, "ii": cond_ii,
                 "iii": cond_iii, "iv": cond_iv},
                max(vals) / min(vals) if vals else math.nan, 1.0,
                verdict="ok" if agree else "violation"))
    # the window bars condition (iv) alone; the (iv) spreads are no
    # comparability ratios, so the report is judged without a window
    return math.inf, "comparable"


def _scenarios():
    """Scenario id -> (function, config defaults).  A ``window`` default is
    the scenario's entry in ``data/windows.json``, or inf for a scenario
    that has none; a scenario without a ``window`` key rejects one."""
    win = default_windows()
    return {
        "TH-DEC": (_th_dec, {"weights": ["const", "linear", "std-0.5", "logpow2"],
                             "pairs": [(2.0, 2.0), (2.0, 3.0), (3.0, 1.5)],
                             "alphas": [0.5, 1.0, 2.0], "degree": 256, "count": 30,
                             "seed": 0, "window": win["TH-DEC"]}),
        "COR-PREV": (_cor_prev, {"q": 2.0, "gamma": 1.0, "m": 2.0, "seed": 0,
                                 "window": win["COR-PREV"]}),
        "TH-LAC": (_th_lac, {"weights": ["const", "logpow2"], "seed": 7, "qs": [1.0, 2.0, 3.0],
                             "count": 20, "k_terms": 14, "window": win["TH-LAC"]}),
        "TH-LACSUP": (_th_lacsup, {"weights": ["const", "logpow2"], "betas": [0.5, 1.0],
                                   "seed": 3, "k_terms": 16, "window": win["TH-LACSUP"]}),
        "TH-GORRO": (_th_gorro, {"weight": "std-0.5", "p": 2.0, "j_max": 12, "n_random": 100,
                                 "seed": 11, "escape": None, "window": win["TH-GORRO"]}),
        "COR-HILB": (_cor_hilb, {"weight": "std-0.5", "ps": [1.5, 2.0, 3.0], "count": 20,
                                 "degree": 128, "seed": 5, "window": win["COR-HILB"]}),
        "TH-MAIN-PQ": (_th_main_pq, {"weight": "std-0.5", "p": 2.0, "q": 2.0, "seed": 0,
                                     "symbols": ["z", "z2", "logk", "binom0.5"], "n_max": 6,
                                     "window": win["TH-MAIN-PQ"]}),
        "TH-MAIN-QP": (_th_main_qp, {"weight": "std-0.5", "p": 3.0, "q": 2.0, "seed": 0,
                                     "symbols": ["z", "z2", "logk", "binom0.5"],
                                     "window": win["TH-MAIN-QP"]}),
        "TH-COMPACT": (_th_compact, {"weight": "const", "q": 2.0, "p": 2.0, "eta": 0.0,
                                     "symbols": ["z2", "logk", "binom0.5"], "seed": 0}),
        # the partial-sum tails decay like K^(-1/2) for these weights, so the
        # doubling increment at K ~ thousands sits at the percent scale
        "TH-HS": (_th_hs, {"weight": "std-0.5", "K": 4000, "seed": 17, "k_suma": 200,
                           "stab_bar": 0.05, "suma_window": win["EQ-SUMA"],
                           "window": win["TH-HS"]}),
        "LEM-LIMITS": (_lem_limits, {"ps": [1.5, 2.0, 3.0], "offsets": [-0.75, -0.25, 0.0, 0.5],
                                     "seed": 0, "window": math.inf}),
        "PROP-LIP": (_prop_lip, {"weight": "std-0.5", "p": 2.0, "eta": 0.0, "seed": 0,
                                 "window": win["PROP-LIP"]}),
        "INEQ-MINFTY": (_ineq_minfty, {"weights": ["const", "std-0.5", "std1"], "seed": 23,
                                       "ps": [1.5, 2.0, 3.0], "degree": 512, "count": 50,
                                       "window": math.inf}),
        "LEM-UP": (_lem_up, {"ps": [1.5, 2.0, 3.0], "offsets": [-0.75, -0.25, 0.5], "seed": 0,
                             "window": win["LEM-UP"]}),
    }


def scenario_ids():
    return sorted(_scenarios())


def run_scenario(scenario_id, config=None):
    """Run a registered scenario and return its ScenarioReport.

    The runner owns the protocol every scenario shares: it starts the
    timer, validates ``config`` against the scenario's defaults, builds the
    report, reads the window and judges the cases.  The scenario only fills
    in the cases and diagnostics; it returns the (window, expect) to judge
    by when they differ from (its window, "comparable").
    """
    scenarios = _scenarios()
    if scenario_id not in scenarios:
        raise DomainError("unknown scenario %r (known: %s)"
                          % (scenario_id, ", ".join(sorted(scenarios))))
    t0 = time.monotonic()
    fn, defaults = scenarios[scenario_id]
    cfg = _config(config or {}, defaults)
    rep = ScenarioReport(scenario_id, seed=cfg["seed"])
    window = cfg.get("window", math.inf)
    window, expect = fn(cfg, rep, window) or (window, "comparable")
    return _finish(rep, window, t0, expect)
