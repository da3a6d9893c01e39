"""Analytic functions as truncated Maclaurin series, and their norms.

Functions are finite coefficient lists.  Circle means M_p(r, f) and the
grid maxima behind M_inf are computed by uniform sampling at the N-th roots
of unity via the FFT, doubling N until the mean at N agrees with the mean
over its even nodes, which are the N/2 nodes of the same FFT.  One doubling
loop, ``_doubling_means``, serves every p, M_inf included, and many
coefficient rows, each of which stops on its own: a radius's value does not
depend on the other radii of its call, nor a block's of a decomposition on
the other blocks.  The moduli at each N are computed once for the rows
still running, in row blocks that bound the FFT temporaries.  The scaled
coefficients c_k r^k are built once per call, for all radii at once.
Sampling a degree-d polynomial at N points is the DFT
of that row folded modulo N, exact for every N; the FFT zero-pads the row
itself, so the fold happens only when d + 1 > N, i.e. at the 2^18 node
cap.  Real coefficients (every corpus function, operator image and symbol
in the scenarios) take the real FFT: |f| is symmetric under conjugation,
so the N/2 + 1 bins of the half spectrum give the mean, the inner bins
weighted twice.  For p = 2 Parseval gives a direct coefficient formula
which is used as a fast path.  A circle mean that hits the node cap makes
the norms built on it ``undetermined``, never ``finite``.

Radial norm integrals reuse the geometric-panel scheme of quadrature.py in
u = 1 - r.  Their integrands come from one builder, ``circle_profile``: one
row M_p(1-u, f)^q per column (p, q), every finite p from one
``hardy_means_u`` call and p = inf from ``m_infinity_u``; ``radial_norms``
turns them into every Bergman and mixed norm, scenarios included.  For rapidly
increasing weights the tail of the weight decays subgeometrically while
M_p(r, f)^p of a polynomial is eventually constant to machine precision;
the integrator detects this flatness and closes the integral with the
exact remaining tail mass of the weight, which is what makes mixed norms
against such weights converge at all.
"""

import math

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import spec
from .spec import REQUIRED
from .errors import DomainError
from .quadrature import _WEIGHTS, gauss_panels, geometric_u_grid
from .results import finite, undetermined
from .special import lgamma_ratio

__all__ = [
    "AnalyticFunction",
    "parse_function_spec",
    "hardy_mean",
    "hardy_means_u",
    "m_infinity_u",
    "circle_profile",
    "radial_norms",
    "bergman_norm",
    "mixed_norm",
    "mixed_norm_sup",
    "lambda_norm",
    "dirichlet_norm",
    "partial_sum",
    "modulus_of_continuity",
    "weighted_radial_integral",
]


class AnalyticFunction:
    """A finite Maclaurin coefficient list a_0..a_N with exact evaluation."""

    __slots__ = ("coefficients", "label")

    def __init__(self, coefficients, label=None):
        c = np.atleast_1d(np.asarray(coefficients, dtype=complex))
        if c.ndim != 1 or len(c) == 0:
            raise DomainError("coefficients must be a nonempty 1-d sequence")
        # trim trailing zeros but keep at least the constant term
        nz = np.nonzero(c)[0]
        c = c[: nz[-1] + 1] if len(nz) else c[:1]
        self.coefficients = c
        self.label = label

    @property
    def degree(self):
        return len(self.coefficients) - 1

    def __call__(self, z):
        # Horner evaluation, the exact-arithmetic contract of the type
        return npoly.polyval(z, self.coefficients)

    def derivative(self):
        c = self.coefficients
        if len(c) == 1:
            return AnalyticFunction([0.0], label=self.label)
        k = np.arange(1, len(c))
        return AnalyticFunction(c[1:] * k, label=self.label)

    def __add__(self, other):
        a, b = self.coefficients, other.coefficients
        n = max(len(a), len(b))
        out = np.zeros(n, dtype=complex)
        out[: len(a)] += a
        out[: len(b)] += b
        return AnalyticFunction(out)

    def __sub__(self, other):
        return self + (other * (-1.0))

    def __mul__(self, scalar):
        return AnalyticFunction(self.coefficients * scalar, label=self.label)

    __rmul__ = __mul__

    def __repr__(self):
        tag = " %r" % self.label if self.label else ""
        return "AnalyticFunction(degree=%d%s)" % (self.degree, tag)


def partial_sum(f, n1, n2):
    """S_{n1,n2} f = sum of a_k z^k over n1 <= k < n2, exact slice."""
    if not 0 <= n1 < n2:
        raise DomainError("partial_sum needs 0 <= n1 < n2")
    c = np.zeros(min(n2, len(f.coefficients)), dtype=complex)
    hi = min(n2, len(f.coefficients))
    if n1 < hi:
        c[n1:hi] = f.coefficients[n1:hi]
    return AnalyticFunction(c if len(c) else [0.0])


def log_kernel(deg):
    """Truncation of log(1/(1-z)) = sum_{k>=1} z^k / k."""
    if deg < 1:
        raise DomainError("logk needs deg >= 1")
    c = np.zeros(deg + 1)
    c[1:] = 1.0 / np.arange(1, deg + 1)
    return AnalyticFunction(c, label="logk(deg=%d)" % deg)


def binomial_kernel(s, deg):
    """Truncation of (1-z)^(-s); coefficients Gamma(k+s)/(Gamma(s) k!)."""
    if not s > 0:
        raise DomainError("binom needs s > 0")
    k = np.arange(deg + 1.0)
    c = np.exp(lgamma_ratio(k + 1.0, s - 1.0) - math.lgamma(s))
    return AnalyticFunction(c, label="binom(s=%g,deg=%d)" % (s, deg))


def random_function(deg, seed, dist="unit"):
    rng = np.random.default_rng(seed)
    if dist == "unit":
        c = rng.uniform(0.0, 1.0, deg + 1)
    elif dist == "sym":
        c = rng.uniform(-1.0, 1.0, deg + 1)
    elif dist == "normal":
        c = rng.standard_normal(deg + 1)
    else:
        raise DomainError("unknown coefficient distribution %r" % dist)
    return AnalyticFunction(c, label="rand(deg=%d,seed=%d,dist=%s)" % (deg, seed, dist))


# ---------------------------------------------------------------------------
# function-spec grammar

#: function families of the spec grammar (see spec.py)
_FUNCTION_FAMILIES = {
    "poly": (AnalyticFunction, spec.COMPLEX),
    "logk": (log_kernel, {"deg": (int, 2048)}),
    "binom": (binomial_kernel, {"s": (float, REQUIRED), "deg": (int, 2048)}),
    "rand": (random_function, {"deg": (int, 512), "seed": (int, 0),
                               "dist": (str, "unit")}),
}


def parse_function_spec(text):
    """Parse a function spec string.

    Grammar:
      poly(c0,c1,...)          explicit coefficients
      logk(deg=2048)           truncation of log(1/(1-z)) = sum z^k / k
      binom(s=0.5,deg=2048)    truncation of (1-z)^(-s)
      rand(deg=512,seed=7,dist=unit)   seeded random coefficients,
                               dist in {unit: U[0,1], sym: U[-1,1], normal}
    """
    f = spec.parse(text, _FUNCTION_FAMILIES)
    if f.label is None:
        f.label = text.strip()        # poly: the spec is the label
    return f


# ---------------------------------------------------------------------------
# circle means

_N_START_LOG2 = 7
_N_CAP_LOG2 = 18
#: circle samples (radii x N) per FFT block, which bounds the temporaries
_BLOCK_SAMPLES = 2 ** 16


def _power_matrix(us, ks, factor=1.0):
    """(1-u)^(factor*k) for u in us, k in ks, safe at u = 1 (r = 0)."""
    us = np.asarray(us, dtype=float)
    ks = np.asarray(ks, dtype=float)
    at_zero = us >= 1.0              # r = 0: rows set below, log1p(0) meanwhile
    mat = np.log1p(-np.where(at_zero, 0.0, us))[:, None] * ks
    mat *= factor
    np.exp(mat, out=mat)
    if at_zero.any():
        mat[at_zero] = np.where(ks == 0, 1.0, 0.0)
    return mat


def _scaled_coefficients(coeffs, us):
    """Rows c_k r_i^k for the radii r_i = 1 - us[i], computed once per call.

    Real when every coefficient has zero imaginary part, so the circle
    samples can use the half-spectrum real FFT.  Radial factors come from
    u through log1p, so radii within double rounding of 1 lose no precision.
    """
    mat = _power_matrix(us, np.arange(len(coeffs)))
    if coeffs.imag.any():
        return coeffs[None, :] * mat
    mat *= coeffs.real
    return mat


def _node_weights(n, real):
    """Weights of the moduli ``_circle_moduli`` returns at n nodes, which sum
    to 1 over a row: the n/2 + 1 half-spectrum bins of a real row (the inner
    ones twice), or the n bins of a complex one.  The even bins of n nodes
    are the n/2 nodes, so ``_node_weights(n // 2, real)`` weights them.
    """
    if not real:
        return np.full(n, 1.0 / n)
    weights = np.full(n // 2 + 1, 2.0 / n)
    weights[0] = weights[-1] = 1.0 / n
    return weights


def _circle_moduli(scaled, n):
    """|f| at the n-th roots of unity on every circle, and the node weights.

    The DFT of the coefficient row folded modulo n samples f exactly at the
    n nodes (aliasing is the identity sum_k c_k r^k zeta^{jk} rearranged);
    the FFT pads shorter rows itself, so folding is needed only when the
    degree reaches n.  Real rows take the real FFT: by conjugate symmetry
    the n/2 + 1 bins carry every modulus, the inner ones twice, which the
    returned weights (``_node_weights``) account for in means.
    """
    m = scaled.shape[1]
    if m > n:
        folded = np.zeros((len(scaled), n), dtype=scaled.dtype)
        for lo in range(0, m, n):
            folded[:, :min(n, m - lo)] += scaled[:, lo:lo + n]
        scaled = folded
    real = scaled.dtype.kind == "f"
    fft = np.fft.rfft if real else np.fft.fft
    return np.abs(fft(scaled, n=n, axis=1)), _node_weights(n, real)


def _doubling_means(scaled, least, ps, rel_tol):
    """Circle means of the rows ``scaled``, shape (len(ps), rows), and each
    (p, row)'s stop ``nodes``, ``gaps`` and ``capped``, each of that shape.
    ``least`` is each row's least node count, or one count for every row.
    A finite p gives the p-mean, p = inf the grid maximum.

    Every row stops on its own.  Its first N is the least power of two
    >= its least count in [2^7, 2^18], and it is sampled from twice that
    (clipped to 2^18), doubling.  Each N stands on its own: its mean is
    compared with the mean over its even nodes, which are the N/2 nodes,
    and a p stops on a row once the two agree to ``rel_tol`` (the gap), or
    N is 2^18.  So a row stops at the N, with the bits, of a loop that
    samples every N of that row from the first and compares successive N.
    A first N at 2^18 has no N/2 to compare with: its gap is NaN and it
    caps.  Moduli are computed once per N for the rows some p still runs,
    in blocks of <= ``_BLOCK_SAMPLES`` samples with one reduction per row:
    no other row moves a row's stop or bits.
    """
    cap, rows = 2 ** _N_CAP_LOG2, len(scaled)
    first = lambda m: 2 ** max(_N_START_LOG2, min(_N_CAP_LOG2, (int(m) - 1).bit_length()))
    firsts = np.full(rows, first(least)) if np.ndim(least) == 0 else \
        np.array([first(m) for m in least], dtype=int)
    starts = np.minimum(2 * firsts, cap)
    roots = [1.0 / p if p < math.inf else 1.0 for p in ps]
    todo = np.ones((len(ps), rows), dtype=bool)        # the rows each p runs
    sums, halves, gaps = np.full((3, len(ps), rows), math.nan)
    nodes = np.zeros((len(ps), rows), dtype=int)
    n, live, vals = 0, todo.any(axis=0), sums
    while live.any():
        n = max(2 * n, int(starts[live].min()))
        now = live & (starts <= n)                     # the rows sampled at n
        sampled = now.nonzero()[0]
        every = todo.all(axis=1).tolist()              # the p that run every row
        # only a row that starts at the cap is longer than n (and is folded)
        cols = scaled if n >= cap else scaled[:, :n]
        block = max(1, _BLOCK_SAMPLES // n)
        even = _node_weights(n // 2, scaled.dtype.kind == "f")
        for lo in range(0, len(sampled), block):
            ids = sampled[lo:lo + block]
            sel = slice(ids[0], ids[-1] + 1) if ids[-1] - ids[0] == len(ids) - 1 else ids
            mods, weights = _circle_moduli(cols[sel], n)
            for k, p in enumerate(ps):
                use = None if every[k] else todo[k, ids]
                if use is None or use.all():
                    at, part = sel, mods
                elif use.any():
                    at, part = ids[use], mods[use]
                else:
                    continue
                if p == math.inf:
                    sums[k, at], halves[k, at] = part.max(axis=1), part[:, ::2].max(axis=1)
                    continue
                powers = part ** p
                sums[k, at] = np.vecdot(powers, weights)
                halves[k, at] = np.vecdot(powers[:, ::2], even)
                del powers              # freed before the next FFT, as mods ** p was
        vals = np.array([s ** root for s, root in zip(sums, roots)])
        errs = np.array([np.abs(v - h ** root) / (v + 1e-300)
                         for v, h, root in zip(vals, halves, roots)])
        stop = todo & now
        if n >= cap:
            errs[:, firsts >= n] = math.nan            # a first N has no N/2
        else:
            stop &= errs < rel_tol
        np.copyto(nodes, n, where=stop)
        np.copyto(gaps, errs, where=stop)
        todo ^= stop
        live = todo.any(axis=0)
    return vals, nodes, gaps, ~(gaps < rel_tol)


def _stop_diags(nodes, gaps, capped):
    """One diag per p of a call's rows: the largest stop ``nodes`` any row
    used, the largest gap at a row's stop (``last_increment``, NaN where a
    first N had none) and ``capped`` if any row capped."""
    return [{"nodes": int(n.max(initial=0)), "last_increment": float(g.max(initial=0.0)),
             "capped": bool(c.any())} for n, g, c in zip(nodes, gaps, capped)]


def hardy_means_u(f, p, us, rel_tol=1e-9):
    """M_p(1-u, f) for every u in ``us``, for one p or a sequence of p.

    Returns (values, diag), values of shape (len(us),) for a scalar p and
    (len(p), len(us)) for a sequence; each p must be finite and > 0.  p = 2
    is exact (Parseval, summed radius by radius).  Other p take the
    ``_doubling_means`` schedule from least 2d + 2 nodes, where each radius
    stops on its own, so every value is that of a call on its radius alone
    with one p, bit for bit.  One ``diag``: the ``method``, or the largest
    ``nodes`` any radius used and the largest ``last_increment`` at a
    radius's stop, of the p that sampled most; ``capped`` if any radius of
    any p hit 2^18; and each p's own in ``per_p``.
    """
    scalar = isinstance(p, (int, float, np.number))
    ps = [float(q) for q in ([p] if scalar else p)]
    if not all(0 < q < math.inf for q in ps):       # NaN fails both
        raise DomainError("hardy mean requires finite p > 0")
    coeffs = f.coefficients
    us = np.asarray(us, dtype=float)
    means = np.empty((len(ps), len(us)))
    per_p = [{"method": "parseval", "capped": False} for _ in ps]
    if 2.0 in ps:
        mags = np.abs(coeffs) ** 2
        nz = np.nonzero(mags)[0]
        # only nonzero coefficients enter (sparse gap series can have huge degree)
        means[[q == 2 for q in ps]] = \
            np.sqrt(np.vecdot(_power_matrix(us, nz, factor=2.0), mags[nz])) if len(nz) else 0.0
    odd = [k for k, q in enumerate(ps) if q != 2]
    if odd:
        means[odd], nodes, gaps, capped = _doubling_means(
            _scaled_coefficients(coeffs, us), 2 * len(coeffs), [ps[k] for k in odd], rel_tol)
        for k, dk in zip(odd, _stop_diags(nodes, gaps, capped)):
            per_p[k] = dk
    # the p that sampled most (the last of them on ties) speaks for the call
    last = max(reversed(per_p), key=lambda dk: dk.get("nodes", 0))
    diag = dict(last, capped=any(dk["capped"] for dk in per_p), per_p=per_p)
    return (means[0] if scalar else means), diag


def hardy_mean(f, p, r, rel_tol=1e-9):
    """Circle p-mean M_p(r, f).  r = 1 is allowed (polynomials only)."""
    if not 0.0 <= r <= 1.0:
        raise DomainError("hardy mean radius must lie in [0, 1]")
    return float(hardy_means_u(f, p, np.array([1.0 - r]), rel_tol=rel_tol)[0][0])


def m_infinity_u(f, us, rel_tol=1e-6):
    """Grid maxima of |f| on circles (certified lower bounds of M_inf).

    A nonnegative real series peaks at theta = 0, exactly f(r), and samples
    nothing (``capped`` false).  Otherwise the maxima take the
    ``_doubling_means`` schedule from least max(4d + 4, 2^9) nodes, where
    each radius stops on its own; either way a value is that of a call on
    its radius alone, bit for bit.  ``diag``: the largest ``nodes`` any
    radius used, the largest ``resolution`` (gap) at a radius's stop, and
    ``capped`` if some radius's comparison failed at 2^18, or a first N at
    2^18 had none.
    """
    coeffs = f.coefficients
    us = np.asarray(us, dtype=float)
    if np.all(coeffs.imag == 0) and np.all(coeffs.real >= 0):
        # triangle equality: the maximum sits at theta = 0 and equals f(r)
        nz = np.nonzero(coeffs.real)[0]
        return np.vecdot(_power_matrix(us, nz), coeffs.real[nz]), {"method": "nonneg-exact",
                                                                    "capped": False}
    (vals,), *stops = _doubling_means(_scaled_coefficients(coeffs, us),
                                      max(4 * len(coeffs), 2 ** 9), [math.inf], rel_tol)
    [diag] = _stop_diags(*stops)
    diag["resolution"] = diag.pop("last_increment")
    return vals, diag


def circle_profile(f, cols, rel_tol=None):
    """The profile u -> one row M_p(1-u, f)^q per column (p, q) in ``cols``.

    Every distinct finite p comes from one ``hardy_means_u`` call and p = inf
    from ``m_infinity_u``, each at ``rel_tol`` (None keeps each one's own
    default), so a column's row is that function's value raised to q, bit
    for bit.  Each radius stops on its own, so a radius's column values do
    not depend on which other radii share its evaluation.  The profile feeds
    ``weighted_radial_integral`` one column per line of ``radial_norms``, or
    ``mixed_norm_sup`` at q = 1.  Its ``capped`` is true once a radius of a
    call it made hit the 2^18 node cap.
    """
    ps = list(dict.fromkeys(p for p, _ in cols if p != math.inf))
    tol = {} if rel_tol is None else {"rel_tol": rel_tol}

    def profile(u):
        means = {}
        if ps:
            vals, diag = hardy_means_u(f, ps, u, **tol)
            means.update(zip(ps, vals))
            profile.capped |= diag["capped"]
        if any(p == math.inf for p, _ in cols):
            means[math.inf], diag = m_infinity_u(f, u, **tol)
            profile.capped |= diag["capped"]
        return np.array([means[p] ** q for p, q in cols])

    profile.capped = False
    return profile


def _slice_norms(coeffs, bounds, ps):
    """M_p(1, coeffs[lo:hi]) for (lo, hi) in ``bounds`` (each slice ending
    in a nonzero coefficient) and every p, with the nodes (0 for p = 2) and
    whether they capped, each shape (len(ps), slices).  hardy_mean(slice,
    p, 1.0) bit for bit: p = 2 by its Parseval sum (all-ones powers at
    r = 1), other p in one ``_doubling_means`` loop per FFT kind it takes,
    where each slice stops on its own.
    """
    vals, nodes, capped = np.zeros((3, len(ps), len(bounds)))
    if 2.0 in ps:
        mags, ones = np.abs(coeffs) ** 2, np.ones(len(coeffs))
        nonzero = (mags[lo:hi][mags[lo:hi] != 0] for lo, hi in bounds)  # Parseval's terms
        vals[[p == 2 for p in ps]] = [math.sqrt(np.dot(m, ones[:len(m)])) for m in nonzero]
    odd = [k for k, p in enumerate(ps) if p != 2]
    real = [not coeffs.imag[lo:hi].any() for lo, hi in bounds]
    for kind, src in ((True, coeffs.real), (False, coeffs)):
        ids = [j for j, r in enumerate(real) if r is kind]
        if odd and ids:
            lengths = [bounds[j][1] - bounds[j][0] for j in ids]
            mat = np.zeros((len(ids), max(lengths)), dtype=src.dtype)
            for row, (lo, hi) in zip(mat, [bounds[j] for j in ids]):
                row[:hi - lo] = src[lo:hi]
            means, n, _, cap = _doubling_means(mat, [2 * m for m in lengths],
                                               [ps[k] for k in odd], 1e-9)
            for k, mk, nk, ck in zip(odd, means, n, cap):
                vals[k, ids], nodes[k, ids], capped[k, ids] = mk, nk, ck
    return vals, nodes.astype(int), capped.astype(bool)


# ---------------------------------------------------------------------------
# radial integrals against a weight

_FLAT_SHORTCUT_MIN_LEVEL = 34

#: dyadic levels per profile evaluation, and the level cap
_LEVELS_PER_CHUNK, _MAX_LEVEL = 8, 220


def weighted_radial_integral(gfn, ws, gamma=0.0, include_r=False,
                             rel_tol=1e-11):
    """integral over (0,1) of g(r) (1-r)^gamma omega(r) [r] dr.

    ``gfn(u_nodes)`` returns the profile g at radii 1 - u (vectorized).
    Geometric panels toward u = 0, evaluated in chunks of 8 levels to
    amortize the circle-mean FFTs.  Two stopping rules:

    * contributions negligible twice in a row (plus geometric tail), or
    * the profile has gone flat to 1e-9 at a depth where the remaining
      integral equals g_flat times the exact weight tail (gamma = 0 only)
      -- required for rapidly increasing weights whose tails decay more
      slowly than geometrically.

    ``ws`` is a weight, or a list of weights with one value returned per
    weight; ``gfn`` then returns one profile shared by all (shape (n,)) or
    one per weight (shape (len(ws), n)), and ``gamma`` and ``include_r``
    are one value for every weight or a sequence of one per weight
    (``radial_norms``, the one caller, passes one of each per line).  Each
    weight keeps the arithmetic and stopping rules of its own call, so its
    value is that call's bit for bit; the profile is evaluated per chunk
    while any weight still runs, and each distinct weight object's density
    once per chunk.  ``diag`` has the deepest weight's
    ``levels``; its ``stop`` is "max-level" if any weight hit the level
    cap, else the deepest one's rule; ``per_weight`` holds each weight's
    own ``levels`` and ``stop``.
    """
    single = not isinstance(ws, (list, tuple))
    weights = [ws] if single else list(ws)
    gammas = np.broadcast_to(gamma, len(weights)).tolist()
    with_r = np.broadcast_to(include_r, len(weights)).tolist()
    totals = [0.0] * len(weights)
    contribs = [[] for _ in weights]
    stops = [None] * len(weights)          # (value, levels, rule) per weight
    for chunk in range(0, _MAX_LEVEL, _LEVELS_PER_CHUNK):
        running = [k for k, stop in enumerate(stops) if stop is None]
        if not running:
            break
        js = np.arange(chunk, min(chunk + _LEVELS_PER_CHUNK, _MAX_LEVEL))
        nodes, halves = gauss_panels(1.0, js)
        u_nodes = nodes.ravel()
        g_all = np.asarray(gfn(u_nodes), dtype=float)
        # one density per distinct running weight: columns often share one
        density = {id(weights[k]): weights[k] for k in running}
        density = {key: np.asarray(w.density_u(u_nodes), dtype=float).reshape(nodes.shape)
                   for key, w in density.items()}
        for k in running:
            w, c, gam = weights[k], contribs[k], gammas[k]
            g_vals = (g_all if g_all.ndim == 1 else g_all[k]).reshape(nodes.shape)
            integ = g_vals * density[id(w)]
            if gam:
                integ = integ * nodes ** gam
            if with_r[k]:
                integ = integ * (1.0 - nodes)
            panel_sums = halves * (integ @ _WEIGHTS)
            for idx, j in enumerate(js):
                totals[k] += panel_sums[idx]
                c.append(panel_sums[idx])
                total = totals[k]
                if len(c) >= 2 and total > 0:
                    if abs(c[-1]) < rel_tol * total and abs(c[-2]) < rel_tol * total:
                        ratio = c[-1] / c[-2] if c[-2] != 0 else 0.0
                        extra = c[-1] * ratio / (1.0 - ratio) if 0 < ratio < 1 else 0.0
                        stops[k] = (total + extra, int(j) + 1, "decay")
                        break
                if gam == 0.0 and j >= _FLAT_SHORTCUT_MIN_LEVEL:
                    row = g_vals[idx]
                    gref = row[-1]
                    if gref > 0 and np.max(np.abs(row - gref)) < 1e-9 * gref:
                        rest = gref * float(w.tail_u(np.ldexp(1.0, -int(j) - 1)))
                        stops[k] = (total + rest, int(j) + 1, "flat")
                        break
    stops = [s or (t, _MAX_LEVEL, "max-level") for s, t in zip(stops, totals)]
    _, levels, rule = max(stops, key=lambda s: s[1])
    if any(s[2] == "max-level" for s in stops):
        rule = "max-level"
    diag = {"levels": levels, "stop": rule,
            "per_weight": [{"levels": n, "stop": r} for _, n, r in stops]}
    return (stops[0][0] if single else np.array([s[0] for s in stops])), diag


def radial_norms(f, lines, circle_tol=None, rel_tol=1e-11):
    """Radial norms of f, one per line (any mix of p, weights and kinds),
    from one radial pass.

    A line (p, w) is the Bergman norm (2 integral of M_p^p(r,f) omega(r) r dr)^(1/p)
    and a line (p, w, q, gamma) the mixed norm (integral of M_p^q(r,f)
    (1-r)^gamma omega(r) dr)^(1/q): no factor r and no factor 2, the
    H(p,q,omega_gamma) convention, deliberately distinct from the area one.

    A p = 2 Bergman line is the exact coefficient sum 2 sum |a_k|^2 omega_k.
    Every other line is one column of one ``circle_profile`` (circle means
    at ``circle_tol``, None for their defaults) and one
    ``weighted_radial_integral`` at ``rel_tol``, with its own weight, factor
    r or (1-r)^gamma and stop rule, so each circle is sampled once for all
    lines and each value is that of a one-line call bit for bit.  A capped
    circle mean makes these lines ``undetermined`` (diagnostic ``capped``),
    and so does a radial integral at the level cap (``stop`` "max-level").
    """
    area = [len(line) == 2 for line in lines]
    for p, _, *mixed in lines:
        if not mixed and not 0 < p < math.inf:
            raise DomainError("bergman norm requires finite p > 0")
        if mixed and not 0 < mixed[0] < math.inf:
            raise DomainError("mixed norm requires finite q > 0")
        if mixed and not mixed[1] >= 0:
            raise DomainError("mixed norm requires gamma >= 0")
    norms = [_moment_norm(f, line[1]) if a and line[0] == 2 else None
             for line, a in zip(lines, area)]
    quad = [k for k, norm in enumerate(norms) if norm is None]
    if not quad:
        return norms
    cols = [(lines[k][0], lines[k][0] if area[k] else lines[k][2]) for k in quad]
    profile = circle_profile(f, cols, rel_tol=circle_tol)
    vals, diag = weighted_radial_integral(
        profile, [lines[k][1] for k in quad],
        gamma=[0.0 if area[k] else lines[k][3] for k in quad],
        include_r=[area[k] for k in quad], rel_tol=rel_tol)
    for k, (_, q), val, line_diag in zip(quad, cols, vals, diag["per_weight"]):
        if area[k]:
            line_diag["convention"] = "area"
        if profile.capped:
            norms[k] = undetermined(method="quadrature", capped=True, **line_diag)
        elif line_diag["stop"] == "max-level":
            norms[k] = undetermined(method="quadrature", **line_diag)
        else:
            norms[k] = finite((2.0 * val if area[k] else val) ** (1.0 / q),
                              method="quadrature", **line_diag)
    return norms


def _moment_norm(f, w):
    """The p = 2 Bergman norm (2 sum |a_k|^2 omega_k)^(1/2), exact."""
    c = f.coefficients
    mags = np.abs(c) ** 2
    if np.count_nonzero(mags) <= max(64, len(c) // 8):
        idx = np.nonzero(mags)[0]
        val = 2.0 * sum(mags[k] * w.moment(int(k)) for k in idx)
    else:
        val = 2.0 * float(mags @ w.moments_upto(len(c) - 1))
    return finite(val ** 0.5, method="closed-form", convention="area")


def bergman_norm(f, p, w):
    """Bergman norm: (2 integral of M_p^p(r,f) omega(r) r dr)^(1/p).

    The one-line ``radial_norms`` call at its default tolerances: exact at
    p = 2, ``undetermined`` at a node or level cap, as ``mixed_norm`` is.
    """
    return radial_norms(f, [(p, w)])[0]


def mixed_norm(f, p, q, w, gamma=0.0):
    """Mixed norm (integral of M_p^q(r,f) (1-r)^gamma omega(r) dr)^(1/q), the
    one-line ``radial_norms`` call at its default tolerances (H(p,q,omega_gamma)).
    """
    return radial_norms(f, [(p, w, q, gamma)])[0]


_SUP_GRID = geometric_u_grid(40, 4)


def mixed_norm_sup(f, p, w, beta=0.0, gamma=0.0):
    """sup over r of M_p(r, f) (1-r)^gamma what(r)^beta on the geometric grid."""
    us = _SUP_GRID
    profile = circle_profile(f, [(p, 1.0)])
    vals = profile(us)[0]
    if profile.capped:
        return undetermined(method="sup-grid", capped=True, grid_size=len(us))
    if gamma:
        vals = vals * us ** gamma
    if beta:
        vals = vals * np.asarray(w.tail_u(us), dtype=float) ** beta
    k = int(np.argmax(vals))
    return finite(float(vals[k]), method="sup-grid", argmax_u=float(us[k]),
                  grid_size=len(us))


def lambda_norm(g, q, alpha, eta, w):
    """Mean Lipschitz norm: sup_r M_q(r, g')(1-r)^(1-alpha)/what(r)^eta + |g(0)|."""
    if not 0 < alpha <= 1:
        raise DomainError("lambda norm requires alpha in (0, 1]")
    if eta < 0:
        raise DomainError("lambda norm requires eta >= 0")
    sup = mixed_norm_sup(g.derivative(), q, w, beta=-eta, gamma=1.0 - alpha)
    if sup.verdict != "finite":
        return sup
    return finite(sup.value + abs(complex(g.coefficients[0])),
                  method="sup-grid", **sup.diagnostics)


def dirichlet_norm(g):
    """Dirichlet norm (|g(0)|^2 + sum k |b_k|^2)^(1/2) of the truncation.

    The value is exact for the stored coefficients; whether the underlying
    infinite series diverges is a question for the truncation-doubling test
    in the verify layer, so the method tag is "truncation".
    """
    c = g.coefficients
    k = np.arange(len(c))
    val = abs(c[0]) ** 2 + float(k[1:] @ (np.abs(c[1:]) ** 2))
    return finite(val ** 0.5, method="truncation", degree=len(c) - 1)


def modulus_of_continuity(g, q, h):
    """q-mean of the boundary difference g(e^{i(t+h)}) - g(e^{it}).

    Computed exactly through the coefficient identity: the difference is
    the polynomial with coefficients a_k (e^{ikh} - 1) evaluated on the
    unit circle.
    """
    if not 0 < h <= math.pi:
        raise DomainError("shift h must lie in (0, pi]")
    c = g.coefficients
    k = np.arange(len(c))
    diff = AnalyticFunction(c * (np.exp(1j * k * h) - 1.0))
    return hardy_mean(diff, q, 1.0)

