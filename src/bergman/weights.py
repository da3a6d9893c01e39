"""Radial weight families on [0, 1): densities, tail integrals, distortion,
classification, Muckenhoupt-type constants, radial moments.

A radial weight is a positive integrable density omega(r) on [0, 1).  The
derived quantity everything else depends on is the tail

    what(r) = integral of omega over (r, 1),

and the distortion psi(r) = what(r) / omega(r).  Weights whose distortion is
comparable to 1 - r are "regular"; weights with psi(r)/(1-r) -> infinity are
"rapidly increasing" and behave genuinely differently in every theorem this
library checks.

All internal evaluation happens in the variable u = 1 - r so that radii
exponentially close to 1 keep full relative precision (see quadrature.py).
Weights are immutable; every operation here is pure.
"""

import math

import numpy as np

from . import spec, special
from .spec import REQUIRED
from .errors import DivergentMassError, DomainError
from .quadrature import (_WEIGHTS, adaptive_panel, gauss_panels,
                         geometric_u_grid, integrate_geometric)
from .results import divergent, finite, undetermined

__all__ = [
    "RadialWeight",
    "WeightClassification",
    "parse_weight",
    "const_weight",
    "std_weight",
    "pow_weight",
    "logpow_weight",
    "logprod_weight",
    "osc_weight",
    "table_weight",
    "derived_weight",
    "distortion",
    "classify",
    "tail_exponent",
    "muckenhoupt",
    "condition_99",
    "u_p_weight",
    "carleson_mass",
]


class RadialWeight:
    """Immutable radial weight.

    ``density_u(u)`` evaluates omega(1 - u) (vectorized), ``tail_u(u)``
    evaluates what(1 - u).  A closed-form tail is used when the family
    admits one; otherwise tails are computed by quadrature and cached, and
    an array of points takes one sweep upward from its smallest point.
    ``scale`` is a plain multiplicative factor, so normalization and the
    scale-invariance properties are exact by construction.
    ``moment_closed(lo, hi)``, when given, returns the unscaled
    omega_lo..omega_(hi-1), each with the same bits whatever lo and hi.
    """

    def __init__(self, family, params, density_u, tail_u=None, mass=None,
                 scale=1.0, density_u_log=None, tail_u_log=None,
                 moment_closed=None, moment_plain_closed=None):
        self.family = family
        self.params = dict(params)
        self._density_u = density_u
        self._tail_u = tail_u
        self._density_u_log = density_u_log
        self._tail_u_log = tail_u_log
        self._moment_closed = moment_closed
        self._moment_plain_closed = moment_plain_closed
        self.scale = float(scale)
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise DomainError("weight scale must be finite and positive")
        self._tail_cache = {}
        self._moment_cache = {}
        if mass is None:
            if tail_u is not None:
                mass = float(tail_u(1.0))
            else:
                mass = self._tail_numeric_cached(1.0)
        self._mass = float(mass)
        if not math.isfinite(self._mass) or self._mass <= 0:
            raise DivergentMassError(
                "weight %s%r has non-finite or non-positive mass" % (family, params))

    # -- evaluation ---------------------------------------------------------

    @property
    def has_closed_moments(self):
        return self._moment_closed is not None

    @property
    def total_mass(self):
        return self.scale * self._mass

    def density_u(self, u):
        return self.scale * self._density_u(np.asarray(u, dtype=float))

    def tail_u(self, u):
        if self._tail_u is not None:
            return self.scale * self._tail_u(np.asarray(u, dtype=float))
        u = np.asarray(u, dtype=float)
        if u.ndim == 0:
            return self.scale * self._tail_numeric_cached(float(u))
        return self.scale * self._tail_numeric_many(u.ravel().tolist()).reshape(u.shape)

    def tail(self, r):
        return self.tail_u(1.0 - np.asarray(r, dtype=float))

    def tail_u_log(self, lu):
        """log(tail_u) evaluated from lu = log u.

        Stays accurate at depths where the tail itself underflows; falls
        back to log(tail_u(e^lu)) when no closed log form is available.
        """
        lu = np.asarray(lu, dtype=float)
        if self._tail_u_log is not None:
            return math.log(self.scale) + self._tail_u_log(lu) \
                if self.scale != 1.0 else self._tail_u_log(lu)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(np.asarray(self.tail_u(np.exp(lu)), dtype=float))

    def _tail_numeric_cached(self, u):
        v = self._tail_cache.get(u)
        if v is None:
            v = self._tail_numeric_unscaled(u)
            self._tail_cache[u] = v
        return v

    def _tail_numeric_unscaled(self, u0):
        return _integrate_endpoint(self._density_u, u0,
                                   f_log=self._density_u_log)

    def _tail_numeric_many(self, us):
        """Unscaled tails at the floats ``us`` in one sweep.

        The smallest point not yet cached takes the endpoint integral; every
        larger one adds the adaptive panels from its sorted neighbour below
        (summing upward), so a grid costs one endpoint integral instead of
        one per point.  Each value lands in ``_tail_cache``.
        """
        new = sorted({v for v in us if 0 < v < math.inf and v not in self._tail_cache})
        if new:
            total = self._tail_numeric_unscaled(new[0])
            self._tail_cache[new[0]] = total
            h = self._density_u_log or (lambda lu: _density_times_u(self._density_u, np.exp(lu)))
            lus = np.log(new)
            for lo, hi, v in zip(lus[:-1], lus[1:], new[1:]):
                total += _integrate_log_span(h, lo, hi)
                self._tail_cache[v] = total
        return np.array([self._tail_numeric_cached(v) for v in us])

    # -- derived weights ----------------------------------------------------

    def scaled(self, c):
        return RadialWeight(self.family, self.params, self._density_u,
                            tail_u=self._tail_u, mass=self._mass,
                            scale=self.scale * c,
                            density_u_log=self._density_u_log,
                            tail_u_log=self._tail_u_log,
                            moment_closed=self._moment_closed,
                            moment_plain_closed=self._moment_plain_closed)

    def normalized(self):
        """Unit-mass rescaling; the applied factor is 1/total_mass."""
        if abs(self.total_mass - 1.0) < 1e-14:
            return self
        return self.scaled(1.0 / self.total_mass)

    # -- moments ------------------------------------------------------------

    def moment(self, n):
        """omega_n = integral of r^(2n+1) omega(r) dr over [0,1], memoized;
        a closed form reads the ``moments_upto`` table when it is long
        enough, whose entries have the bits of the single values."""
        if n < 0:
            raise DomainError("moment index must be >= 0")
        key = ("m", int(n))
        v = self._moment_cache.get(key)
        if v is None:
            table = self._moment_cache.get("upto")
            if table is not None and n < len(table):
                v = float(table[n])
            elif self._moment_closed is not None:
                v = float(self._moment_closed(int(n), int(n) + 1)[0])
            else:
                v = self._moment_quadrature(2 * int(n) + 1)
            self._moment_cache[key] = v
        return self.scale * v

    def moment_plain(self, x):
        """integral of r^x omega(r) dr over [0,1] for real x >= 0."""
        if x < 0:
            raise DomainError("moment exponent must be >= 0")
        key = ("p", float(x))
        v = self._moment_cache.get(key)
        if v is None:
            if self._moment_plain_closed is not None:
                v = self._moment_plain_closed(float(x))
            else:
                v = self._moment_quadrature(float(x))
            self._moment_cache[key] = v
        return self.scale * v

    def moments_upto(self, n_max):
        """Vectorized omega_0..omega_n_max (closed form when available).

        The longest closed-form table computed so far stays in the moment
        cache: a shorter call reads its head, a longer one computes only
        the entries it lacks.  An entry of the closed form does not depend
        on the range asked, so each value keeps its bits.
        """
        if self._moment_closed is not None:
            table = self._moment_cache.get("upto")
            if table is None:
                table = self._moment_cache["upto"] = self._moment_closed(0, n_max + 1)
            elif len(table) <= n_max:
                table = self._moment_cache["upto"] = np.concatenate(
                    (table, self._moment_closed(len(table), n_max + 1)))
            return self.scale * table[:n_max + 1]
        return np.array([self.moment(n) for n in range(n_max + 1)])

    def _moment_quadrature(self, x):
        if self._tail_u is not None and x >= 1.0:
            # integrate by parts: int r^x omega dr = x int r^(x-1) what dr;
            # the tail integrand decays geometrically on dyadic panels even
            # for rapidly increasing weights, unlike the density itself
            f = lambda u: np.exp((x - 1.0) * np.log1p(-u)) * self._tail_u(u)
            return x * integrate_geometric(f, 0.0, 1.0,
                                           adaptive=(self.family == "osc"))
        f = lambda u: np.exp(x * np.log1p(-u)) * self._density_u(u)
        return integrate_geometric(f, 0.0, 1.0,
                                   adaptive=(self.family == "osc"))

    def __repr__(self):
        ps = ",".join("%s=%g" % kv for kv in sorted(self.params.items()))
        s = "" if self.scale == 1.0 else ", scale=%g" % self.scale
        return "RadialWeight(%s(%s)%s)" % (self.family, ps, s)


def _density_times_u(f_u, u):
    """f(u) * u at the nodes u, with the rounding noise of extreme depths zeroed."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals = np.asarray(f_u(u) * u, dtype=float)
    # at extreme depths u goes subnormal and both u and the density turn
    # into rounding noise (or inf/nan at exact zero); any integrable density
    # contributes nothing there, while divergent ones are caught by the
    # growth test at much shallower levels (u ~ 1e-14).  Densities needing
    # genuine depth (slow log-type decay) supply f_log instead.
    bad = (u < 1e-290) | (~np.isfinite(vals) & (u < 1e-30))
    if np.any(bad):
        vals = np.where(bad, 0.0, vals)
    return vals


def _integrate_log_span(h, lo, hi):
    """integral of h(s) ds over [lo, hi] in adaptive panels at most log 2 wide.

    With h(s) = f(e^s) e^s this is the integral of f(u) du between e^lo and
    e^hi, on the dyadic scale at which the geometric panels resolve f.
    """
    edges = np.linspace(lo, hi, max(1, math.ceil((hi - lo) / math.log(2.0) - 1e-9)) + 1)
    return sum(adaptive_panel(h, a, b) for a, b in zip(edges[:-1], edges[1:]))


def _integrate_endpoint(f_u, u0, f_log=None):
    """integral of f(u) du over (0, u0] for an integrable density.

    Uses the exponential substitution u = u0 * e^(1-t), t in [1, inf), and
    geometrically growing panels in t.  Power-type singularities decay
    exponentially in t and finish quickly; log-type singularities become
    pure power laws in t, which the stable-ratio extrapolation closes
    exactly.  ``f_log(lu)``, when supplied, evaluates f(u)*u as a function
    of lu = log u, avoiding underflow for extremely deep panels.
    """
    if u0 <= 0:
        return 0.0
    lu0 = math.log(u0)
    if f_log is not None:
        g = lambda t: f_log(lu0 + 1.0 - t)
    else:
        g = lambda t: _density_times_u(f_u, u0 * np.exp(1.0 - t))

    total = 0.0
    contribs = []
    t_lo = 1.0
    for level in range(120):
        t_hi = 2.0 ** (level + 1)
        c = adaptive_panel(g, t_lo, t_hi)
        total += c
        contribs.append(c)
        t_lo = t_hi
        if len(contribs) >= 2 and abs(total) > 0:
            if (abs(contribs[-1]) < 1e-13 * abs(total)
                    and abs(contribs[-2]) < 1e-13 * abs(total)):
                return total
        if not math.isfinite(c):
            raise DivergentMassError("density is not integrable near r = 1")
        if len(contribs) >= 8:
            ratios = [contribs[i + 1] / contribs[i] for i in range(-4, -1)
                      if contribs[i] != 0]
            if len(ratios) == 3 and all(r > 0 for r in ratios):
                # sustained growth means non-integrability; a transient hump
                # of the substituted integrand never survives to this depth
                if min(ratios) >= 1.0:
                    raise DivergentMassError("density is not integrable near r = 1")
                if max(ratios) < 1.0 and \
                        max(ratios) - min(ratios) < 1e-9 * max(ratios):
                    rho = ratios[-1]
                    return total + contribs[-1] * rho / (1.0 - rho)
    return total


# ---------------------------------------------------------------------------
# families


def const_weight(c=1.0):
    return RadialWeight(
        "const", {"c": c},
        density_u=lambda u: np.ones_like(u),
        tail_u=lambda u: u,
        tail_u_log=lambda lu: np.asarray(lu, dtype=float),
        mass=1.0, scale=c,
        moment_closed=lambda lo, hi: 1.0 / (2.0 * np.arange(lo, hi) + 2.0),
        moment_plain_closed=lambda x: 1.0 / (x + 1.0),
    )


def std_weight(alpha):
    """omega(r) = (1 - r^2)^alpha, the standard radial family."""
    if alpha <= -1:
        raise DivergentMassError("std weight needs alpha > -1 (mass diverges)")
    a1 = alpha + 1.0
    # the tail 2^alpha u^(alpha+1) I(u), I(u) the integral of
    # t^alpha (1 - u t/2)^alpha over (0, 1): its series for small u, a
    # Gauss-Jacobi rule above, up to alpha = 50; the incomplete Beta
    # function's continued fraction beyond (special.std_tail).  Its log
    # form stays accurate where the tail underflows; the mass is
    # B(alpha+1, 1/2)/2 and the moments B(n+1, alpha+1)/2
    tail = special.std_tail(alpha)
    return RadialWeight(
        "std", {"alpha": alpha},
        density_u=lambda u: (u * (2.0 - u)) ** alpha,
        tail_u=tail,
        tail_u_log=tail.log,
        mass=0.5 * special.beta(a1, 0.5),
        moment_closed=lambda lo, hi: 0.5 * special.beta(np.arange(lo + 1.0, hi + 1.0), a1),
        moment_plain_closed=lambda x: 0.5 * special.beta((x + 1.0) / 2.0, a1),
    )


def pow_weight(beta):
    """omega(r) = (1 - r)^beta; same class as std but with exact dyadic tail."""
    if beta <= -1:
        raise DivergentMassError("pow weight needs beta > -1 (mass diverges)")
    b1 = beta + 1.0
    return RadialWeight(
        "pow", {"beta": beta},
        density_u=lambda u: u ** beta,
        tail_u=lambda u: u ** b1 / b1,
        tail_u_log=lambda lu: b1 * np.asarray(lu, dtype=float) - math.log(b1),
        mass=1.0 / b1,
        moment_closed=lambda lo, hi: special.beta(2.0 * np.arange(lo + 1.0, hi + 1.0), b1),
        moment_plain_closed=lambda x: special.beta(x + 1.0, b1),
    )


def logpow_weight(beta):
    """v_beta(r) = (1-r)^(-1) (log(e/(1-r)))^(-beta), rapidly increasing."""
    if beta <= 1:
        raise DivergentMassError("logpow weight needs beta > 1 (mass diverges)")

    def density_u(u):
        return (1.0 - np.log(u)) ** (-beta) / u

    def density_u_log(lu):
        # f(u) * u as a function of log u
        return (1.0 - lu) ** (-beta)

    return RadialWeight(
        "logpow", {"beta": beta},
        density_u=density_u,
        tail_u=lambda u: (1.0 - np.log(u)) ** (1.0 - beta) / (beta - 1.0),
        tail_u_log=lambda lu: ((1.0 - beta) * np.log1p(-np.asarray(lu, float))
                               - math.log(beta - 1.0)),
        mass=1.0 / (beta - 1.0),
        density_u_log=density_u_log,
    )


def logprod_weight(alpha, n_logs=1):
    """Iterated-log rapidly increasing family.

    omega(r) = [ (1-r) * prod_{k=1}^{N} log_k(E/(1-r)) * (log_{N+1}(E/(1-r)))^alpha ]^{-1}

    with N = n_logs and E the exponential tower of height N+1 over 1, so
    the innermost iterated logarithm equals exactly 1 at r = 0.  This keeps
    the density positive and integrable on all of [0, 1) while preserving
    the tail behaviour near r = 1 (the constants inside the logarithms are
    irrelevant there).  Closed tail:
    what = (log_{N+1}(E/(1-r)))^{1-alpha} / (alpha - 1).
    """
    if alpha <= 1:
        raise DivergentMassError("logprod weight needs alpha > 1 (mass diverges)")
    n_logs = int(n_logs)
    if n_logs < 1:
        raise DomainError("logprod weight needs n_logs >= 1")
    log_e = 1.0
    for _ in range(n_logs + 1):
        log_e = math.exp(log_e)   # E = exp^{N+1}(1); for N=1 this is e^e
    ln_e = math.log(log_e)

    def _iterated(lu):
        """l_1..l_{N+1} where l_1 = log(E/u) evaluated from lu = log(u)."""
        l = ln_e - lu
        chain = [l]
        for _ in range(n_logs):
            l = np.log(l)
            chain.append(l)
        return chain

    def density_u_log(lu):
        chain = _iterated(lu)
        prod = np.ones_like(np.asarray(lu, dtype=float))
        for l in chain[:-1]:
            prod = prod * l
        return 1.0 / (prod * chain[-1] ** alpha)

    def density_u(u):
        u = np.asarray(u, dtype=float)
        return density_u_log(np.log(u)) / u

    def tail_u(u):
        chain = _iterated(np.log(np.asarray(u, dtype=float)))
        return chain[-1] ** (1.0 - alpha) / (alpha - 1.0)

    def tail_u_log(lu):
        chain = _iterated(np.asarray(lu, dtype=float))
        return (1.0 - alpha) * np.log(chain[-1]) - math.log(alpha - 1.0)

    return RadialWeight(
        "logprod", {"alpha": alpha, "n_logs": n_logs},
        density_u=density_u,
        tail_u=tail_u,
        tail_u_log=tail_u_log,
        mass=1.0 / (alpha - 1.0),
        density_u_log=density_u_log,
    )


def osc_weight():
    """Weight defined through the oscillating tail

        what(r) = 2(1-r) cos(1/sqrt(1-r)) + 16 sqrt(1-r).

    The density is the negated derivative of the tail,

        omega(r) = 2 cos(x) + x (sin(x) + 8),   x = 1/sqrt(1-r),

    which is positive for all r in [0,1) since x >= 1 there.  Positivity is
    re-checked numerically on the diagnostic grid at construction.  The
    distortion ratio psi/(1-r) oscillates between bounded limits: a regular
    weight whose ratio never converges.
    """

    def density_u(u):
        x = 1.0 / np.sqrt(u)
        return 2.0 * np.cos(x) + x * (np.sin(x) + 8.0)

    def tail_u(u):
        return 2.0 * u * np.cos(1.0 / np.sqrt(u)) + 16.0 * np.sqrt(u)

    w = RadialWeight("osc", {}, density_u=density_u, tail_u=tail_u,
                     mass=2.0 * math.cos(1.0) + 16.0)
    grid = geometric_u_grid(30, 8)
    if np.any(w.density_u(grid) <= 0):
        raise DomainError("osc density failed the positivity check")
    return w


def table_weight(radii, densities):
    """Piecewise log-linear density through the samples (r_i, omega_i).

    The density is exponential-in-r on each segment, constant outside the
    sampled range, and the tail is integrated segment-exactly, so this
    family counts as closed-form for partition purposes.
    """
    r = np.asarray(radii, dtype=float)
    d = np.asarray(densities, dtype=float)
    if r.ndim != 1 or len(r) < 2 or np.any(np.diff(r) <= 0):
        raise DomainError("table weight needs at least 2 strictly increasing radii")
    if r[0] < 0 or r[-1] >= 1:
        raise DomainError("table radii must lie in [0, 1)")
    if np.any(d <= 0):
        raise DomainError("table densities must be positive")

    logd = np.log(d)
    slopes = np.diff(logd) / np.diff(r)

    def _segment_integral(i, a, b):
        # integral of d_i * exp(s_i (t - r_i)) dt over [a, b]
        s = slopes[i]
        if s == 0.0:
            return d[i] * (b - a)
        return d[i] / s * (math.exp(s * (b - a)) * math.exp(s * (a - r[i]))
                           - math.exp(s * (a - r[i])))

    # suffix tails at the sample points, built right to left
    suffix = np.zeros(len(r))
    suffix_last = d[-1] * (1.0 - r[-1])        # constant extension to 1
    suffix[-1] = suffix_last
    for i in range(len(r) - 2, -1, -1):
        suffix[i] = suffix[i + 1] + _segment_integral(i, r[i], r[i + 1])
    head = d[0] * r[0]                          # constant extension below r_0

    def density_u(u):
        rr = 1.0 - np.asarray(u, dtype=float)
        rr = np.clip(rr, 0.0, 1.0)
        idx = np.clip(np.searchsorted(r, rr, side="right") - 1, 0, len(r) - 2)
        out = d[idx] * np.exp(slopes[idx] * (rr - r[idx]))
        out = np.where(rr < r[0], d[0], out)
        out = np.where(rr >= r[-1], d[-1], out)
        return out

    def tail_u(u):
        u = np.asarray(u, dtype=float)
        scalar = u.ndim == 0
        u = np.atleast_1d(u)
        out = np.empty_like(u)
        for j, uu in enumerate(u):
            rr = 1.0 - uu
            if rr >= r[-1]:
                out[j] = d[-1] * uu
            elif rr <= r[0]:
                out[j] = suffix[0] + d[0] * (r[0] - rr)
            else:
                i = int(np.searchsorted(r, rr, side="right") - 1)
                out[j] = suffix[i + 1] + _segment_integral(i, rr, r[i + 1])
        return out[0] if scalar else out

    return RadialWeight("table", {"n_samples": len(r)},
                        density_u=density_u, tail_u=tail_u,
                        mass=float(head + suffix[0]))


def derived_weight(density_u, family="derived", params=None, tail_u=None,
                   mass=None, density_u_log=None):
    """Wrap an arbitrary positive density given as a function of u = 1-r.

    ``density_u_log(lu)``, when supplied, evaluates density(u)*u from
    lu = log u; numeric tail integrals then stay accurate at depths where
    u or the density underflows.
    """
    return RadialWeight(family, params or {}, density_u=density_u,
                        tail_u=tail_u, mass=mass,
                        density_u_log=density_u_log)


# ---------------------------------------------------------------------------
# weight-spec grammar:  family(key=value,...)

def _csv_table_weight(path):
    r, omega = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, unpack=True)
    return table_weight(r, omega)


#: weight families of the spec grammar (see spec.py)
_WEIGHT_FAMILIES = {
    "const": (const_weight, {"c": (float, 1.0)}),
    "std": (std_weight, {"alpha": (float, REQUIRED)}),
    "pow": (pow_weight, {"beta": (float, REQUIRED)}),
    "logpow": (logpow_weight, {"beta": (float, REQUIRED)}),
    "logprod": (lambda alpha, n: logprod_weight(alpha, n),
                {"alpha": (float, REQUIRED), "n": (int, 1)}),
    "osc": (osc_weight, {}),
    "table": (_csv_table_weight, {"path": (str, REQUIRED)}),
}


def parse_weight(text):
    """Parse a weight spec string such as ``std(alpha=-0.5)``.

    Grammar: family(key=value,...); families const, std, logpow, logprod,
    osc, table (``path=`` to a two-column CSV ``r,omega`` with header) and
    the extra convenience family pow (``(1-r)^beta``).  A trailing
    ``*SCALE`` multiplies the density by a positive constant.
    """
    scale = 1.0
    if ")" in text and "*" in text.rsplit(")", 1)[1]:
        text, scale_part = text.rsplit("*", 1)
        scale = spec.value(float, scale_part.strip(), "scale")
    return spec.parse(text, _WEIGHT_FAMILIES).scaled(scale)


# ---------------------------------------------------------------------------
# tails, distortion, classification


def distortion(w, r):
    """psi(r) = what(r) / omega(r)."""
    u = 1.0 - r
    return float(w.tail_u(u) / w.density_u(u))


class WeightClassification:
    """Outcome of the regular / rapidly-increasing diagnostic."""

    def __init__(self, verdict, ratio_range, exponents):
        self.verdict = verdict                 # Regular | RapidlyIncreasing | Undetermined
        self.ratio_range = ratio_range         # (min, max) of psi(r)/(1-r) on grid
        self.exponents = exponents             # (alpha_hat, beta_hat) or None

    def __repr__(self):
        return "WeightClassification(%s, ratio range [%.4g, %.4g])" % (
            self.verdict, self.ratio_range[0], self.ratio_range[1])


#: a regular weight must keep psi/(1-r) within this dynamic range on the grid
_REGULAR_SPREAD_BOUND = 50.0

#: the deep dyadic levels whose tail ratios give tail_exponent
_TAIL_LEVELS = (38, 39, 40)


def classify(w):
    """Classify a weight as Regular / RapidlyIncreasing / Undetermined.

    The diagnostic quantity is psi(r)/(1-r) on the geometric grid
    1 - r = 2^(-j), j = 0..24.  Bounded dynamic range means Regular; a ratio
    that is still increasing at the end of the grid and has grown by more
    than a factor 10 means RapidlyIncreasing; anything else is reported as
    Undetermined rather than guessed.
    """
    us = 2.0 ** (-np.arange(0, 25, dtype=float))
    tails = np.asarray(w.tail_u(us), dtype=float)
    ratios = tails / (np.asarray(w.density_u(us), dtype=float) * us)
    rmin, rmax = float(np.min(ratios)), float(np.max(ratios))

    tail_part = ratios[-6:]
    increasing = bool(np.all(np.diff(tail_part) > 0))
    if increasing and ratios[-1] > 10.0 * ratios[0]:
        verdict = "RapidlyIncreasing"
        exps = None
    elif rmax <= _REGULAR_SPREAD_BOUND * rmin:
        verdict = "Regular"
        exps = _fit_exponents(us, tails)
    else:
        verdict = "Undetermined"
        exps = None
    return WeightClassification(verdict, (rmin, rmax), exps)


def _fit_exponents(us, tails):
    """Extreme pairwise slopes of log what against log(1-r) on the deep grid."""
    deep = us <= 2.0 ** -4
    logs_u = np.log(us[deep])
    logs_t = np.log(tails[deep])
    slopes = []
    for i in range(len(logs_u)):
        for j in range(i + 1, len(logs_u)):
            slopes.append((logs_t[i] - logs_t[j]) / (logs_u[i] - logs_u[j]))
    return (float(np.min(slopes)), float(np.max(slopes)))


def tail_exponent(w):
    """Local power exponent of what near r = 1 on deep dyadic levels."""
    levels = np.arange(_TAIL_LEVELS[0], _TAIL_LEVELS[-1] + 2)
    tails = np.asarray(w.tail_u(np.ldexp(1.0, -levels)), dtype=float).tolist()
    slopes = [math.log(t1 / t2) / math.log(2.0) for t1, t2 in zip(tails[:-1], tails[1:])]
    return float(np.mean(slopes))


# divergence detector thresholds for integral of what^(-1/(p-1)):
# exponent ratio >= 1 - 0.02 is divergent, <= 1 - 0.05 finite, in between
# the verdict is honestly Undetermined.
_DIVERGE_HI = 0.98
_DIVERGE_LO = 0.95


def _integrability_verdict(w, p):
    theta = tail_exponent(w)
    m = theta / (p - 1.0)
    if m >= _DIVERGE_HI:
        return "divergent", m, theta
    if m > _DIVERGE_LO:
        return "undetermined", m, theta
    return "finite", m, theta


def condition_99(w, p):
    """Verdict (and value when finite) of integral of what^(-1/(p-1)) over (0,1).

    This is the well-definedness condition for the generalized Hilbert
    operator on A^p_omega.  Scale-invariant decisions: only the tail
    exponent enters the verdict.
    """
    if not p > 1:                # NaN fails too
        raise DomainError("condition requires p > 1")
    verdict, m, theta = _integrability_verdict(w, p)
    if verdict == "divergent":
        return divergent(method="quadrature", exponent=-m, tail_exponent=theta)
    if verdict == "undetermined":
        return undetermined(method="quadrature", exponent=-m, tail_exponent=theta)
    q = 1.0 / (p - 1.0)
    value = integrate_geometric(lambda v: np.asarray(w.tail_u(v)) ** -q, 0.0, 1.0)
    return finite(value, method="quadrature", exponent=-m, tail_exponent=theta)


def muckenhoupt(w, p):
    """Muckenhoupt-type constant

        M_p = sup_r (int_r^1 what^(-1/(p-1)))^(1-1/p) (int_0^r (1-t)^(-p) what)^(1/p)

    computed on a geometric sup grid.  The improper first factor carries a
    divergence detector on the tail exponent of what; divergence is a
    verdict, not an exception.  Both factors are cumulative sums over the
    Gauss panels between neighbouring grid points, which share one tail
    evaluation.
    """
    if not p > 1:                # NaN fails too
        raise DomainError("muckenhoupt constant requires p > 1")
    verdict, m, theta = _integrability_verdict(w, p)
    if verdict == "divergent":
        return divergent(method="sup-grid", exponent=-m, tail_exponent=theta)
    if verdict == "undetermined":
        return undetermined(method="sup-grid", exponent=-m, tail_exponent=theta)

    us = geometric_u_grid(40, 4)               # descending from u = 1
    qexp = 1.0 / (p - 1.0)
    nodes, halves = gauss_panels(us)           # panel i spans [us[i+1], us[i]]
    tails = np.asarray(w.tail_u(nodes.ravel()), dtype=float).reshape(nodes.shape)
    a_panels = halves * np.sum(_WEIGHTS * tails ** -qexp, axis=1)
    b_panels = halves * np.sum(_WEIGHTS * (nodes ** -p * tails), axis=1)
    # a(u_i) adds panels from the deepest point up, b(u_i) from u = 1 down;
    # a contiguous a_vals takes the same power loop as a filled array
    a_deep = integrate_geometric(lambda v: np.asarray(w.tail_u(v)) ** -qexp,
                                 0.0, us[-1])
    a_vals = np.cumsum(np.concatenate(([a_deep], a_panels[::-1])))[::-1].copy()
    b_vals = np.cumsum(np.concatenate(([0.0], b_panels)))

    vals = a_vals ** (1.0 - 1.0 / p) * b_vals ** (1.0 / p)
    k = int(np.argmax(vals))
    return finite(vals[k], method="sup-grid",
                  argmax_u=float(us[k]), grid_size=len(us),
                  exponent=-m, tail_exponent=theta)


def u_p_weight(w, p):
    """The derived weight u_p(r) = (what(r) (1-r))^(-1/p).

    Integrability requires the tail exponent theta of what to satisfy
    (theta + 1)/p < 1; otherwise the mass diverges and the weight does not
    exist (consistent with the weight failing the Muckenhoupt condition).
    """
    if not p > 1:                # NaN fails too
        raise DomainError("u_p weight requires p > 1")
    theta = tail_exponent(w)
    if (theta + 1.0) / p >= _DIVERGE_HI:
        raise DivergentMassError(
            "u_p density ~ (1-r)^(-%.3f) is not integrable" % ((theta + 1.0) / p))

    def density_u(u):
        return (np.asarray(w.tail_u(u)) * u) ** (-1.0 / p)

    def density_u_log(lu):
        # density * u evaluated from log u: the product what(u)*u underflows
        # to subnormals near machine depth, so the exponent is assembled in
        # log space where it stays O(|log u|)
        lu = np.asarray(lu, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
            return np.exp(-(w.tail_u_log(lu) + lu) / p + lu)

    return RadialWeight("u_p", {"p": p, "base": w.family},
                        density_u=density_u, density_u_log=density_u_log)


def carleson_mass(w, a):
    """omega(S(a)) = ((1-a)/pi) * integral of omega(r) r dr over (a, 1)."""
    if not 0.0 <= a < 1.0:
        raise DomainError("carleson_mass requires 0 <= a < 1")
    u0 = 1.0 - a
    f = lambda v: (1.0 - v) * np.asarray(w.density_u(v))
    val = integrate_geometric(f, 0.0, u0, adaptive=(w.family == "osc"))
    return (u0 / math.pi) * val
