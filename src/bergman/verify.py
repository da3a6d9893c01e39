"""Theorem-level verification scenarios.

Each scenario turns one norm-equivalence statement into a corpus of cases:
for every case a left-hand quantity and a right-hand quantity are computed
by independent code paths and their ratio is recorded.  A scenario passes
("Comparable") when the spread max/min of the finite ratios stays inside a
configured window; scenarios probing divergent situations pass when the
divergence is detected ("Divergence-consistent"); anything else is a
"Violation" naming the offending case.

Windows are configuration, not code: the defaults ship in
``data/windows.json`` and were measured once on the reference corpus.
Reports are deterministic byte-for-byte given identical configuration and
seeds.
"""

import json
import math
import time
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import decomposition as dec
from . import operators as ops
from .analytic import (AnalyticFunction, binomial_kernel, dirichlet_norm,
                       hardy_means_u, lambda_norm, log_kernel, m_infinity_u,
                       mixed_norm, mixed_norm_sup, bergman_norm,
                       random_function, weighted_radial_integral)
from .errors import DivergentMassError, DomainError
from .quadrature import geometric_u_grid, integrate_geometric
from .weights import (classify, condition_99, const_weight, derived_weight,
                      distortion, logpow_weight, muckenhoupt, pow_weight,
                      std_weight, u_p_weight)


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


def _config(config, defaults, overrides=("window",)):
    """The defaults updated by ``config``, which may set only their keys and
    the ``overrides``: an unknown key would otherwise be ignored silently."""
    unknown = sorted(set(config) - set(defaults) - set(overrides))
    if unknown:
        known = sorted(set(defaults) | set(overrides))
        raise DomainError("unknown config keys %s (known: %s)"
                          % (", ".join(unknown), ", ".join(known)))
    return {**defaults, **config}


def _case(case_id, params, lhs, rhs, verdict="ok"):
    ratio = lhs / rhs if (math.isfinite(lhs) and math.isfinite(rhs) and rhs != 0) \
        else math.nan
    return {"case_id": case_id, "params": params, "lhs": float(lhs),
            "rhs": float(rhs), "ratio": float(ratio), "verdict": verdict}


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
    """Serialize a report deterministically (sorted keys, %.12e floats)."""
    if fmt == "csv":
        lines = ["scenario,case_id,param_json,lhs,rhs,ratio,verdict"]
        for c in report.cases:
            pj = json.dumps(c["params"], sort_keys=True,
                            separators=(",", ":")).replace('"', "'")
            lines.append("%s,%s,%s,%.12e,%.12e,%.12e,%s" % (
                report.scenario, c["case_id"], pj,
                c["lhs"], c["rhs"], c["ratio"], c["verdict"]))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        obj = {"scenario": report.scenario,
               "cases": [_round12(c) for c in report.cases],
               "stats": _round12(list(report.stats)),
               "verdict": report.verdict,
               "window": _round12(report.window),
               "seed": report.seed,
               "diagnostics": _round12(report.diagnostics)}
        text = json.dumps(obj, sort_keys=True, indent=1,
                          allow_nan=True) + "\n"
    else:
        raise DomainError("format must be csv or json")
    with open(path, "w") as fh:
        fh.write(text)
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

def _th_dec(config):
    t0 = time.monotonic()
    cfg = _config(config, {
        "weights": ["const", "linear", "std-0.5", "logpow2"],
        "pairs": [(2.0, 2.0), (2.0, 3.0), (3.0, 1.5)],
        "alphas": [0.5, 1.0, 2.0], "degree": 256, "count": 30, "seed": 0})
    rep = ScenarioReport("TH-DEC", seed=cfg["seed"])
    window = cfg.get("window", default_windows()["TH-DEC"])
    fns = corpus_functions(cfg["degree"], cfg["count"], cfg["seed"])
    weights = {wname: named_weight(wname) for wname in cfg["weights"]}

    # The mixed norms dominate the cost, and the geometric quadrature nodes
    # are identical for every weight, so the circle means of each corpus
    # function are computed once and shared across weights.
    mixed_vals = {}
    for (p, q) in cfg["pairs"]:
        for label, f in fns:
            cache = {}

            def gfn(u, f=f, p=p, q=q, cache=cache):
                key = u.tobytes()
                if key not in cache:
                    cache[key] = hardy_means_u(f, p, u, rel_tol=1e-6)[0]
                return cache[key] ** q

            for wname, w in weights.items():
                val, _ = weighted_radial_integral(gfn, w, rel_tol=1e-8)
                mixed_vals[(wname, p, q, label)] = float(val ** (1.0 / q))

    cell_spreads = {}
    for wname, w in weights.items():
        parts = {a: dec.partition(w, a, cfg["degree"]) for a in cfg["alphas"]}
        for (p, q) in cfg["pairs"]:
            mixed = {label: mixed_vals[(wname, p, q, label)] for label, f in fns}
            for a in cfg["alphas"]:
                ratios = []
                for label, f in fns:
                    lhs = float(dec.decomposition_norm(f, p, q, parts[a]))
                    rhs = mixed[label]
                    cid = "%s|p%g-q%g|a%g|%s" % (wname, p, q, a, label)
                    rep.cases.append(_case(cid, {"weight": wname, "p": p,
                                                 "q": q, "alpha": a,
                                                 "f": label}, lhs, rhs))
                    if rhs > 0:
                        ratios.append(lhs / rhs)
                cell_spreads["%s|p%g-q%g|a%g" % (wname, p, q, a)] = \
                    ratio_statistics(ratios)[2]
    rep.diagnostics["cell_spreads"] = cell_spreads
    rep.diagnostics["max_cell_spread"] = max(cell_spreads.values())
    if rep.diagnostics["max_cell_spread"] > window:
        rep.cases.append(_case("cell-window", {}, rep.diagnostics["max_cell_spread"],
                               window, verdict="violation"))
    return _finish(rep, window, t0)


def _cor_prev(config):
    t0 = time.monotonic()
    cfg = _config(config, {"q": 2.0, "gamma": 1.0, "m": 2.0, "seed": 0})
    rep = ScenarioReport("COR-PREV", seed=cfg["seed"])
    window = cfg.get("window", default_windows()["COR-PREV"])

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
    return _finish(rep, window, t0)


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


def _th_lac(config):
    t0 = time.monotonic()
    cfg = _config(config, {"weights": ["const", "logpow2"], "seed": 7,
                           "qs": [1.0, 2.0, 3.0], "count": 20, "k_terms": 14})
    rep = ScenarioReport("TH-LAC", seed=cfg["seed"])
    window = cfg.get("window", default_windows()["TH-LAC"])
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
    return _finish(rep, window, t0)


def separating_example_growth(w, q_coeff, q_norm, n_counts=(12, 24, 36)):
    """Truncated norms of sum_n 2^(n/q_coeff) z^(M_n) in the q_norm space.

    Returns the list of mixed-norm q_norm-th powers at increasing
    truncation length; stabilization means membership, steady growth means
    the function escapes the space.  Evaluated sparsely (the exponents are
    the alpha = 1 marks, up to 2^36), via the Parseval profile.
    """
    part = dec.partition(w, 1.0, 0)
    values = []
    for count in n_counts:
        ms = np.array([part.mark_float(n) for n in range(count)])
        amps = 4.0 ** (np.arange(count) / q_coeff)      # |a_n|^2

        def gfn(u):
            u = np.asarray(u, dtype=float)
            with np.errstate(divide="ignore"):
                lr = np.log1p(-u)
            m2 = np.exp(np.outer(lr, 2.0 * ms)) @ amps
            return m2 ** (q_norm / 2.0)

        val, _ = weighted_radial_integral(gfn, w)
        values.append(val)
    return values


def _th_lacsup(config):
    t0 = time.monotonic()
    cfg = _config(config, {"weights": ["const", "logpow2"],
                           "betas": [0.5, 1.0], "seed": 3, "k_terms": 16})
    rep = ScenarioReport("TH-LACSUP", seed=cfg["seed"])
    window = cfg.get("window", default_windows()["TH-LACSUP"])
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
    return _finish(rep, window, t0)


def _th_gorro(config):
    t0 = time.monotonic()
    cfg = _config(config, {"weight": "std-0.5", "p": 2.0, "j_max": 12,
                           "n_random": 100, "seed": 11, "escape": None})
    rep = ScenarioReport("TH-GORRO", seed=cfg["seed"])
    window = cfg.get("window", default_windows()["TH-GORRO"])
    w = named_weight(cfg["weight"])
    p = cfg["p"]
    mp = muckenhoupt(w, p)
    rep.diagnostics["muckenhoupt"] = mp.verdict
    escape = cfg["escape"] if cfg["escape"] is not None else mp.divergent

    if not escape:
        for j in range(cfg["j_max"] + 1):
            r = 1.0 - 2.0 ** -j
            phi, edge = ops.phi_r_profile(w, r, p)
            den = float(ops.lp_hat_norm(phi, p, w, t_min=edge))
            num = ops.hilbert_norm2_profile(phi, w, t_min=edge) if p == 2 \
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
        return _finish(rep, window, t0)

    # divergent Muckenhoupt constant: the phi_r ratios escape every bound.
    # The profiles are truncated at the Carleson-square depth (1-r)^2 to
    # keep both norms finite; growth of the ratio along j is the evidence.
    ratios = {}
    for j in range(1, cfg["j_max"] + 1):        # j = 0 has an empty square
        r = 1.0 - 2.0 ** -j
        t_top = 1.0 - (1.0 - r) ** 2
        phi, edge = ops.phi_r_profile(w, r, p)
        den_sq = integrate_geometric(
            lambda u: np.asarray(phi(u)) ** p * np.asarray(w.tail_u(u)),
            (1.0 - r) ** 2, 1.0 - r)
        den = den_sq ** (1.0 / p)
        num = ops.hilbert_norm2_profile(phi, w, t_min=edge, t_max=t_top)
        ratios[j] = num / den
        rep.cases.append(_case("phi-j%02d" % j, {"j": j, "family": "phi_r"},
                               num, den))
    rep.diagnostics["escape_factor"] = ratios[cfg["j_max"]] / ratios[2]
    if not ratios[cfg["j_max"]] > 4.0 * ratios[2]:
        rep.cases.append(_case("escape", {}, ratios[cfg["j_max"]], ratios[2],
                               verdict="violation"))
    return _finish(rep, window, t0, expect="divergence")


def _hilbert_norm_general(phi, edge, p, w, k_max=2 ** 14):
    mu = ops.moments_profile(phi, k_max, t_min=edge)
    return float(bergman_norm(AnalyticFunction(mu), p, w))


def _cor_hilb(config):
    t0 = time.monotonic()
    cfg = _config(config, {"weight": "std-0.5", "ps": [1.5, 2.0, 3.0],
                           "count": 20, "degree": 128, "seed": 5})
    rep = ScenarioReport("COR-HILB", seed=cfg["seed"])
    window = cfg.get("window", default_windows()["COR-HILB"])
    w = named_weight(cfg["weight"])

    # relaxed-tolerance p-norm: the spread window is orders of magnitude
    # wider than six-digit norms, and the images carry thousands of
    # coefficients, so chasing 1e-11 here would dominate the runtime
    def pnorm(f, p):
        if p == 2:
            return float(bergman_norm(f, p, w))

        def gfn(u):
            return hardy_means_u(f, p, u, rel_tol=1e-6)[0] ** p

        val, _ = weighted_radial_integral(gfn, w, include_r=True, rel_tol=1e-7)
        return float((2.0 * val) ** (1.0 / p))

    for p in cfg["ps"]:
        for i in range(cfg["count"]):
            f = random_function(cfg["degree"], cfg["seed"] + i, dist="unit")
            img = ops.apply_classical(f, 2048)
            lhs = pnorm(img, p)
            rhs = pnorm(f, p)
            rep.cases.append(_case("p%g|s%02d" % (p, i), {"p": p, "i": i},
                                   lhs, rhs))
    return _finish(rep, window, t0)


_SYMBOLS = {
    "z": lambda: AnalyticFunction([0.0, 1.0]),
    "z2": lambda: AnalyticFunction([0.0, 0.0, 1.0]),
    "logk": lambda: log_kernel(2048),
    "binom0.5": lambda: binomial_kernel(0.5, 2048),
}


def _th_main_pq(config):
    t0 = time.monotonic()
    cfg = _config(config, {"weight": "std-0.5", "p": 2.0, "q": 2.0, "seed": 0,
                           "symbols": ["z", "z2", "logk", "binom0.5"],
                           "n_max": 6})
    rep = ScenarioReport("TH-MAIN-PQ", seed=cfg["seed"])
    window = cfg.get("window", default_windows()["TH-MAIN-PQ"])
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
    return _finish(rep, window, t0)


def _th_main_qp(config):
    t0 = time.monotonic()
    cfg = _config(config, {"weight": "std-0.5", "p": 3.0, "q": 2.0, "seed": 0,
                           "symbols": ["z", "z2", "logk", "binom0.5"]})
    rep = ScenarioReport("TH-MAIN-QP", seed=cfg["seed"])
    window = cfg.get("window", default_windows()["TH-MAIN-QP"])
    w = named_weight(cfg["weight"])
    p, q = cfg["p"], cfg["q"]
    setting = ops.OperatorSetting(p, q, w)
    s = setting.s
    hw = hat_weight(w)
    part = dec.partition(w, 1.0, 2 ** 22)
    for name in cfg["symbols"]:
        g = _SYMBOLS[name]()
        lhs = ops.operator_norm_lower(g, setting, part)
        rhs = float(mixed_norm(g.derivative(), q, s, hw,
                               gamma=s * (1.0 - 1.0 / q)))
        rep.cases.append(_case(name, {"symbol": name, "s": s}, lhs, rhs))
    return _finish(rep, window, t0)


def _th_compact(config):
    t0 = time.monotonic()
    cfg = _config(config, {"weight": "const", "q": 2.0, "p": 2.0, "eta": 0.0,
                           "symbols": ["z2", "logk", "binom0.5"], "seed": 0},
                  overrides=())
    rep = ScenarioReport("TH-COMPACT", seed=cfg["seed"])
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
    return _finish(rep, math.inf, t0)


def _th_hs(config):
    t0 = time.monotonic()
    cfg = _config(config, {"weight": "std-0.5", "K": 4000, "seed": 17,
                           "k_suma": 200},
                  overrides=("window", "suma_window", "stab_bar"))
    rep = ScenarioReport("TH-HS", seed=cfg["seed"])
    window = cfg.get("window", default_windows()["TH-HS"])
    suma_window = cfg.get("suma_window", default_windows()["EQ-SUMA"])
    w = named_weight(cfg["weight"])
    symbols = [("z2", AnalyticFunction([0.0, 0.0, 1.0])),
               ("z+3z3", AnalyticFunction([0.0, 1.0, 0.0, 3.0])),
               ("rand8", random_function(8, cfg["seed"], dist="sym"))]
    # the partial-sum tails decay like K^(-1/2) for these weights, so the
    # doubling increment at K ~ thousands sits at the percent scale
    stab_bar = cfg.get("stab_bar", 0.05)
    for name, g in symbols:
        s = ops.hilbert_schmidt_partial(g, w, cfg["K"])
        est, verdict = ops.hs_limit_estimate(s)
        stab = abs(s[cfg["K"]] - s[cfg["K"] // 2]) / s[cfg["K"] // 2]
        rhs = float(dirichlet_norm(g - AnalyticFunction([g.coefficients[0]]))) ** 2
        rep.cases.append(_case(name, {"symbol": name, "stab": stab},
                               est, rhs,
                               verdict="ok" if verdict == "finite" and stab < stab_bar
                               else "violation"))
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
                           verdict="ok" if spread <= suma_window
                           else "violation"))
    return _finish(rep, window, t0)


def _lem_limits(config):
    t0 = time.monotonic()
    cfg = _config(config, {"ps": [1.5, 2.0, 3.0],
                           "offsets": [-0.75, -0.25, 0.0, 0.5], "seed": 0})
    rep = ScenarioReport("LEM-LIMITS", seed=cfg["seed"])
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
    return _finish(rep, cfg.get("window", math.inf), t0)


def _prop_lip(config):
    t0 = time.monotonic()
    cfg = _config(config, {"weight": "std-0.5", "p": 2.0, "eta": 0.0, "seed": 0})
    rep = ScenarioReport("PROP-LIP", seed=cfg["seed"])
    window = cfg.get("window", default_windows()["PROP-LIP"])
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
    return _finish(rep, window, t0)


def _ineq_minfty(config):
    t0 = time.monotonic()
    cfg = _config(config, {"weights": ["const", "std-0.5", "std1"], "seed": 23,
                           "ps": [1.5, 2.0, 3.0], "degree": 512, "count": 50})
    rep = ScenarioReport("INEQ-MINFTY", seed=cfg["seed"])
    fns = corpus_functions(cfg["degree"], cfg["count"], cfg["seed"])
    half_pi = math.pi / 2.0
    worst = 0.0
    pairs = [(wname, named_weight(wname)) for wname in cfg["weights"]]
    hats = {wname: hat_weight(w) for wname, w in pairs}
    for label, f in fns:
        # the geometric quadrature panels coincide across weights and p,
        # so the circle maxima / p-means are computed once per node block
        # and reused on every weight
        minf_cache = {}
        mean_cache = {}

        def minf(u):
            key = u.tobytes()
            vals = minf_cache.get(key)
            if vals is None:
                # grid maxima are certified lower bounds, so a loose
                # tolerance keeps the one-sided check conservative
                vals, _ = m_infinity_u(f, u, rel_tol=1e-3)
                minf_cache[key] = vals
            return vals

        def mean_p(u, p):
            key = (p, u.tobytes())
            vals = mean_cache.get(key)
            if vals is None:
                vals, _ = hardy_means_u(f, p, u, rel_tol=1e-5)
                mean_cache[key] = vals
            return vals

        for wname, w in pairs:
            for p in cfg["ps"]:
                lhs, _ = weighted_radial_integral(
                    lambda u: minf(u) ** p, hats[wname], rel_tol=1e-8)
                if p == 2:
                    rhs = half_pi * float(bergman_norm(f, p, w)) ** p
                else:
                    area, _ = weighted_radial_integral(
                        lambda u: mean_p(u, p) ** p, w,
                        include_r=True, rel_tol=1e-7)
                    rhs = half_pi * 2.0 * area
                ok = lhs <= rhs * (1.0 + 1e-9)
                worst = max(worst, lhs / rhs)
                rep.cases.append(_case("%s|p%g|%s" % (wname, p, label),
                                       {"weight": wname, "p": p, "f": label},
                                       lhs, rhs,
                                       verdict="ok" if ok else "violation"))
    rep.diagnostics["max_lhs_over_rhs"] = worst
    return _finish(rep, cfg.get("window", math.inf), t0)


def _lem_up(config):
    t0 = time.monotonic()
    cfg = _config(config, {"ps": [1.5, 2.0, 3.0],
                           "offsets": [-0.75, -0.25, 0.5], "seed": 0})
    rep = ScenarioReport("LEM-UP", seed=cfg["seed"])
    window = cfg.get("window", default_windows()["LEM-UP"])
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
    return _finish(rep, math.inf, t0)


_SCENARIOS = {
    "TH-DEC": _th_dec,
    "COR-PREV": _cor_prev,
    "TH-LAC": _th_lac,
    "TH-LACSUP": _th_lacsup,
    "TH-GORRO": _th_gorro,
    "COR-HILB": _cor_hilb,
    "TH-MAIN-PQ": _th_main_pq,
    "TH-MAIN-QP": _th_main_qp,
    "TH-COMPACT": _th_compact,
    "TH-HS": _th_hs,
    "LEM-LIMITS": _lem_limits,
    "PROP-LIP": _prop_lip,
    "INEQ-MINFTY": _ineq_minfty,
    "LEM-UP": _lem_up,
}


def scenario_ids():
    return sorted(_SCENARIOS)


def run_scenario(scenario_id, config=None):
    """Run a registered scenario and return its ScenarioReport."""
    if scenario_id not in _SCENARIOS:
        raise DomainError("unknown scenario %r (known: %s)"
                          % (scenario_id, ", ".join(scenario_ids())))
    return _SCENARIOS[scenario_id](config or {})
