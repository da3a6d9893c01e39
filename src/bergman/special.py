"""The special functions of the radial weights, in numpy and ``math`` only.

They replace the four scipy.special functions the package once imported
(gammaln, beta, betainc and hyp2f1), each only on the arguments it meets:

* :func:`lgamma_ratio`, ln Gamma(a + b) - ln Gamma(a): the binomial
  coefficients of ``analytic.binomial_kernel`` and of
  ``operators.test_function_fN``;
* :func:`beta`, the Beta function of the std and pow moments;
* :func:`std_tail`, the tail integral of (1 - s^2)^alpha over (1 - u, 1)
  and its logarithm, for ``weights.std_weight``: :class:`StdTail` up to
  alpha = 50, :class:`StdTailCF` above;
* :func:`hyp2f1_11`, 2F1(1, 1; c; y) for 0 <= y <= 1/2, and
  :func:`hyp2f1_11_int`, 2F1(1, 1; m + 2; x) for a positive integer m and
  1/2 < x <= 1, taken in 1 - x: the closed A^2_omega kernel of std weights
  in ``operators._bergman2_kernel``.

A float argument gives the bits of the same value inside an array.  The
float paths do their arithmetic in Python floats, which round as numpy's
element-wise operations do, and take every logarithm, exponential and
power from the numpy ufunc the array path calls: numpy's SIMD loops and
``math`` differ in the last bit.
"""

import functools
import math

import numpy as np

__all__ = ["lgamma_ratio", "beta", "std_tail", "StdTail", "StdTailCF", "hyp2f1_11",
           "hyp2f1_11_int"]

#: from this min(a, a + b) on, lgamma_ratio and beta take the Stirling
#: difference; below it, quotients of math.gamma values, which stay finite
#: while their arguments stay below _GAMMA_MAX
_STIRLING_MIN, _GAMMA_MAX = 20.0, 170.0

#: B_2k / (2k (2k - 1)) for k = 5, 4, ..., 1: ln Gamma(z) minus its main
#: part (z - 1/2) ln z - z + ln(2 pi)/2 is sum_k c_k z^(1 - 2k), with a
#: truncation error below 1e-17 from z = 20 on
_STIRLING = (1.0 / 1188.0, -1.0 / 1680.0, 1.0 / 1260.0, -1.0 / 360.0, 1.0 / 12.0)


def _is_scalar(x):
    """np.ndim(x) == 0 for a number or an array, at a tenth of its cost."""
    return getattr(x, "ndim", 0) == 0


def _stirling_series(z):
    """sum_k c_k z^(1 - 2k) for z >= 20, a float or, in place on new
    arrays, an array, in the same operations."""
    if _is_scalar(z):
        r = 1.0 / (z * z)
        s = _STIRLING[0]
        for c in _STIRLING[1:]:
            s = s * r + c
        return s / z
    r = z * z
    np.divide(1.0, r, out=r)
    s = _STIRLING[0] * r
    for c in _STIRLING[1:-1]:
        s += c
        s *= r
    s += _STIRLING[-1]
    s /= z
    return s


def _stirling_rest(a, b):
    """ln Gamma(a + b) - ln Gamma(a) - b ln a for min(a, a + b) >= 20, a a
    float or an array: a difference of Stirling series whose two main
    parts, each of size a ln a, cancel into (a + b - 1/2) log1p(b/a) - b."""
    if _is_scalar(a):
        return ((a + b - 0.5) * float(np.log1p(b / a)) - b
                + (_stirling_series(a + b) - _stirling_series(a)))
    z = a + b
    rest = np.divide(b, a)
    np.log1p(rest, out=rest)
    rest *= z - 0.5
    rest -= b
    rest += _stirling_series(z) - _stirling_series(a)
    return rest


def _by_range(a, b, stirling, small):
    """``stirling(a)`` where min(a, a + b) >= 20 and the float function
    ``small`` below, for a float or an array ``a``."""
    edge = _STIRLING_MIN - min(b, 0.0)
    if _is_scalar(a):
        a = float(a)
        return small(a) if a < edge else float(stirling(a))
    a = np.asarray(a, dtype=float)
    low = (a.reshape(-1) < edge).nonzero()[0]
    if low.size == a.size:
        return np.array([small(v) for v in a.ravel().tolist()]).reshape(a.shape)
    out = stirling(a)
    if low.size:
        out.flat[low] = [small(v) for v in a.flat[low].tolist()]
    return out


def lgamma_ratio(a, b):
    """ln Gamma(a + b) - ln Gamma(a) for a > 0 and a + b > 0, b a float.

    From min(a, a + b) = 20 on it is b ln a plus the Stirling difference
    (``_stirling_rest``), whose rounding error stays at a few ulps of
    b ln a; the two ln Gamma values are each of size a ln a and would
    cancel.  Below that it is ln(Gamma(a + b)/Gamma(a)) from
    ``math.gamma``, or ``math.lgamma`` once a + b reaches 170.  A float
    ``a`` gives a float, an array an array.
    """
    b = float(b)

    def small(a):
        if a + b < _GAMMA_MAX:
            return math.log(math.gamma(a + b) / math.gamma(a))
        return math.lgamma(a + b) - math.lgamma(a)

    return _by_range(a, b, lambda a: b * np.log(a) + _stirling_rest(a, b), small)


#: terms of the asymptotic series of _ratio_series
_RATIO_TERMS = 6

#: the Bernoulli numbers B_0, ..., B_15
_BERNOULLI = (1.0, -0.5, 1.0 / 6.0, 0.0, -1.0 / 30.0, 0.0, 1.0 / 42.0, 0.0, -1.0 / 30.0, 0.0,
              5.0 / 66.0, 0.0, -691.0 / 2730.0, 0.0, 7.0 / 6.0, 0.0)


@functools.lru_cache(maxsize=64)
def _ratio_series(y):
    """For 0 < y <= 100: the coefficients g_6, ..., g_1 of

        ln(Gamma(x)/Gamma(x + y)) = -y ln w + sum_m g_m w^(-2m),
        w = x + (y - 1)/2,  g_m = -2 B_(2m+1)(h) / (2m (2m + 1)),

    h = (1 - y)/2, an asymptotic series in w^-2 (the two ln Gamma
    expansions at w -/+ y/2 share their even Bernoulli terms), and the x
    from which its first omitted term is below 2^-56 (at least 1)."""
    h = 0.5 * (1.0 - y)
    g = []
    for m in range(1, _RATIO_TERMS + 2):
        n = 2 * m + 1
        bern = math.fsum(math.comb(n, k) * _BERNOULLI[k] * h ** (n - k) for k in range(n + 1))
        g.append(-2.0 * bern / (2 * m * (2 * m + 1)))
    w_min = (abs(g[-1]) * 2.0 ** 56) ** (1.0 / (2 * _RATIO_TERMS + 2))
    return tuple(g[-2::-1]), max(1.0, w_min - 0.5 * (y - 1.0))


def beta(x, y):
    """The Beta function B(x, y) = Gamma(x) Gamma(y) / Gamma(x + y) for
    x > 0 and 0 < y <= 100 (a float), and the exponential of the ln Gamma
    terms for larger y.

    From the x of ``_ratio_series`` on, the x that make up a moment table,
    it is Gamma(y) w^(-y) exp(sum_m g_m w^(-2m)) with w = x + (y - 1)/2:
    the power keeps y ln w out of any rounded logarithm.  Below that, from
    min(x, x + y) = 20 on, it is Gamma(y) exp(-rest) x^(-y), rest the
    Stirling difference of ``lgamma_ratio``, and below 20 the quotient of
    ``math.gamma`` values.
    """
    y = float(y)
    if y > 100.0:
        return np.exp(math.lgamma(y) - lgamma_ratio(x, y))
    gy = math.gamma(y)
    g, x_min = _ratio_series(y)
    c = 0.5 * (y - 1.0)

    def small(x):
        return math.gamma(x) * gy / math.gamma(x + y)

    def below(x):
        if not _is_scalar(x) and x_min <= _STIRLING_MIN:
            return np.array([small(v) for v in x.tolist()])
        return _by_range(x, y, lambda x: gy * np.exp(-_stirling_rest(x, y)) * np.power(x, -y),
                         small)

    if _is_scalar(x):
        x = float(x)
        if x < x_min:
            return below(x)
        w = x + c
        r = 1.0 / (w * w)
        s = g[0] * r
        for gm in g[1:]:
            s = (s + gm) * r
        return float(np.exp(s)) * float(np.power(w, -y)) * gy
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    low = (flat < x_min).nonzero()[0]
    if low.size == flat.size:
        return below(flat).reshape(x.shape)
    w = np.maximum(flat, x_min)                 # the entries below are replaced
    w += c
    r = w * w
    np.divide(1.0, r, out=r)
    out = g[0] * r
    for gm in g[1:]:
        out += gm
        out *= r
    np.exp(out, out=out)
    out *= np.power(w, -y)
    out *= gy
    if low.size:
        out[low] = below(flat[low])
    return out.reshape(x.shape)


#: points of the Gauss-Jacobi rule of StdTail
_JACOBI_POINTS = 16

#: StdTail's series, in 8 terms, serves u <= _SERIES_U / max(1, |alpha|),
#: where each term is at most 2^-8 of the one before
_SERIES_U = 2.0 ** -7

#: below this u, a negative alpha's u^alpha may overflow: take u^(alpha+1)
_TINY = 2.0 ** -1022


@functools.lru_cache(maxsize=64)
def _jacobi_rule(alpha):
    """Half-nodes t_i/2 and weights w_i of the 16-point Gauss rule for the
    integral of t^alpha g(t) over (0, 1), read-only and shared by every
    StdTail of this alpha.

    Golub-Welsch: the eigenvalues x_i of the Jacobi matrix of the weight
    (1 + x)^alpha on [-1, 1] give the nodes t_i = (1 + x_i)/2, and the
    squared first components of the eigenvectors the weights, times the
    mass 1/(alpha + 1).
    """
    n = np.arange(1.0, _JACOBI_POINTS)
    s = 2.0 * n + alpha
    diag = np.concatenate(([alpha / (alpha + 2.0)], alpha * alpha / (s * (s + 2.0))))
    off = 2.0 * n * (n + alpha) / (s * np.sqrt((s - 1.0) * (s + 1.0)))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    half_t, w = 0.25 * (1.0 + x), v[0] ** 2 / (alpha + 1.0)
    half_t.flags.writeable = w.flags.writeable = False
    return half_t, w


@functools.lru_cache(maxsize=64)
def _tail_series(alpha):
    """The coefficients 2^alpha binom(alpha, k) (-1/2)^k / (alpha + 1 + k),
    k = 7, ..., 0, of StdTail's series, as floats and as 0-d arrays (the
    cheaper operand for an array)."""
    c, coef = [], 2.0 ** alpha                  # coef = 2^alpha (-1)^k binom(alpha, k)
    for k in range(8):
        c.append(coef * 0.5 ** k / (alpha + 1.0 + k))
        coef *= (k - alpha) / (k + 1.0)
    return tuple(c[::-1]), tuple(np.array(v) for v in c[::-1])


def _sum16(terms):
    """The 16 entries (or rows) of ``terms`` summed as a pairwise tree, the
    same for one point as for many."""
    terms = terms[:8] + terms[8:]
    terms = terms[:4] + terms[4:]
    terms = terms[:2] + terms[2:]
    return terms[0] + terms[1]


#: std_tail takes StdTail's rule up to this alpha, StdTailCF above
_RULE_ALPHA_MAX = 50.0


def std_tail(alpha):
    """The std tail T(u) = integral of (1 - s^2)^alpha over (1 - u, 1) for
    alpha > -1: a callable of u with a ``log`` method of ln u.

    For 0 <= u <= 1 it is within 1e-14 of mpmath up to alpha = 50 (the
    rule of :class:`StdTail`), and beyond within a few alpha ulps (the
    continued fraction of :class:`StdTailCF`).  For 1 < u <= 2 it is the
    whole integral B(alpha + 1, 1/2) less T(2 - u), and NaN beyond.
    """
    return StdTail(alpha) if alpha <= _RULE_ALPHA_MAX else StdTailCF(alpha)


def _reflected(flat):
    """For a flat array u: v = u on [0, 1] and 2 - u on (1, 2], exact,
    the mask of the points with 1 < u <= 2, and the mask of those
    outside [0, 2] (NaN included), where v is set to 0."""
    v = np.where(flat <= 1.0, flat, 2.0 - flat)
    bad = ~((v >= 0.0) & (v <= 1.0))
    v[bad] = 0.0
    return v, (flat > 1.0) & ~bad, bad


def _unreflected(out, full, mirror, bad):
    """``out`` at v = 2 - u turned into the tail at u: full - T(v) on the
    ``mirror`` points, NaN on the ``bad`` ones."""
    out[mirror] = full - out[mirror]
    out[bad] = math.nan
    return out


class StdTail:
    """The std tail T(u) for -1 < alpha <= 50.

    With s = 1 - u t, for every 0 <= u <= 1,

        T(u) = u^(alpha+1) J(u),
        J(u) = 2^alpha I(u),  I(u) = integral over (0, 1) of
               t^alpha (1 - u t/2)^alpha dt.

    For u <= 2^-7 / max(1, |alpha|), I(u) is its series
    sum_k binom(alpha, k) (-u/2)^k / (alpha + 1 + k) in 8 terms.  Above,
    it is the 16-point Gauss-Jacobi rule for the weight t^alpha, built on
    first use: the rest of the integrand, (1 - u t/2)^alpha, is analytic
    up to t = 2/u >= 2, which the rule resolves to rounding: within
    2e-15 of mpmath for -1 < alpha <= 50.  Calling the object gives T;
    ``log`` gives ln T from ln u, also where T underflows.  For
    1 < u <= 2 it is B(alpha + 1, 1/2) - T(2 - u), outside 0 <= u <= 2
    NaN.  A float gives the bits of the same point inside an array.
    """

    def __init__(self, alpha):
        self.alpha = alpha = float(alpha)
        self._a1 = alpha + 1.0
        self._pow2 = 2.0 ** alpha
        self._u_series = _SERIES_U / max(1.0, abs(alpha))
        self._series, self._series_0d = _tail_series(alpha)

    def _rule_sum(self, u):
        """J(u) by the Gauss-Jacobi rule for a float or a flat array u."""
        half_t, w = _jacobi_rule(self.alpha)
        if not _is_scalar(u):
            half_t, w = half_t[:, None], w[:, None]
        terms = np.power(1.0 - half_t * u, self.alpha)
        terms *= w
        return _sum16(terms) * self._pow2

    def _scaled_integral(self, u):
        """J(u) for a float 0 <= u <= 1, in the operations of the array path."""
        if u > self._u_series:
            return float(self._rule_sum(u))
        s = self._series[0]
        for c in self._series[1:]:
            s = s * u + c
        return s

    def _scaled_integrals(self, u, lo, hi):
        """J(u) for a flat array lo <= u <= hi in [0, 1]: the series, the
        rule where u is above the series' range."""
        if lo > self._u_series:
            return self._rule_sum(u)
        out = self._series[0]
        for c in self._series_0d[1:]:
            out = out * u + c
        if hi > self._u_series:
            shallow = np.flatnonzero(u > self._u_series)
            out[shallow] = self._rule_sum(u[shallow])
        return out

    def __call__(self, u):
        if _is_scalar(u):
            u = float(u)
            if _TINY <= u <= 1.0:
                return np.float64(np.power(u, self.alpha) * u * self._scaled_integral(u))
            return self(np.array([u]))[0]
        u = np.asarray(u, dtype=float)
        flat = u.reshape(-1)
        if not flat.size:
            return np.zeros(u.shape)
        lo, hi = flat.min(), flat.max()
        if lo >= _TINY and hi <= 1.0:
            return (np.power(flat, self.alpha) * flat
                    * self._scaled_integrals(flat, lo, hi)).reshape(u.shape)
        # zeros, subnormals, NaN or points outside [0, 1]
        v, mirror, bad = _reflected(flat)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = np.power(v, self.alpha) * v * self._scaled_integrals(v, 0.0, 1.0)
        tiny = v < _TINY
        out[tiny] = np.power(v[tiny], self._a1) * self._scaled_integrals(v[tiny], 0.0, 0.0)
        full = beta(self._a1, 0.5) if mirror.any() else 0.0
        return _unreflected(out, full, mirror, bad).reshape(u.shape)

    def log(self, lu):
        """ln T(e^lu) = (alpha + 1) lu + ln J(e^lu)."""
        if _is_scalar(lu):
            lu = float(lu)
            if not lu <= 0.0:
                return self.log(np.array([lu]))[0]
            return np.float64(self._a1 * lu
                              + np.log(self._scaled_integral(float(np.exp(lu)))))
        lu = np.asarray(lu, dtype=float)
        flat = lu.reshape(-1)
        if not flat.size:
            return np.zeros(lu.shape)
        hi = flat.max()
        if not hi <= 0.0:
            # u = e^lu above 1 (or NaN): the log of the tail itself
            up = ~(flat <= 0.0)
            out = self.log(np.where(up, 0.0, flat))
            with np.errstate(over="ignore"):
                out[up] = np.log(self(np.exp(flat[up])))
            return out.reshape(lu.shape)
        u = np.exp(flat)
        out = self._a1 * flat + np.log(self._scaled_integrals(u, np.exp(flat.min()), np.exp(hi)))
        return out.reshape(lu.shape)


def _two_product_err(a, b, p):
    """a b - p for p = fl(a b) and |a|, |b| <= 2, exactly (Dekker's
    product with Veltkamp's split)."""
    ca = 134217729.0 * a
    ah = ca - (ca - a)
    al = a - ah
    cb = 134217729.0 * b
    bh = cb - (cb - b)
    bl = b - bh
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


#: _beta_cf stops an entry whose last factor is within this of 1, and
#: every entry after this many steps
_CF_EPS, _CF_MAX_STEPS = 2.0 ** -52, 10000


def _beta_cf(a, b, x):
    """K with B_x(a, b) = x^a (1 - x)^b K / a, B_x the incomplete Beta
    function, for a flat array 0 <= x < (a + 1)/(a + b + 2): the continued
    fraction of DLMF 8.17.22 by the modified Lentz method, whose partial
    numerators are m (b - m) x / ((a + 2m - 1)(a + 2m)) and
    -(a + m)(a + b + m) x / ((a + 2m)(a + 2m + 1)).  An entry stops at the
    first step whose factor is within 2^-52 of 1, so it has the same bits
    inside any array."""
    c = np.ones(x.shape)
    d = 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    h = d.copy()
    live = np.ones(x.shape, dtype=bool)
    m = 0
    with np.errstate(all="ignore"):
        while m < _CF_MAX_STEPS and live.any():
            m += 1
            step = 1.0
            for e in (m * (b - m) / ((a - 1.0 + 2 * m) * (a + 2 * m)),
                      -(a + m) * (a + b + m) / ((a + 2 * m) * (a + 1.0 + 2 * m))):
                aa = e * x
                d = 1.0 / (1.0 + aa * d)
                c = 1.0 + aa / c
                f = d * c
                step = step * f
            h = np.where(live, h * step, h)
            live &= np.abs(f - 1.0) > _CF_EPS
    return h


#: below this StdTailCF.log takes ln T term by term
_LOG_DEEP = 2.0 ** -960


class StdTailCF:
    """The std tail T(u) for alpha > 50: T(u) = B_x(a, 1/2)/2 with
    a = alpha + 1 and x = u (2 - u), from the continued fraction of
    ``_beta_cf``, which converges in at most a few dozen steps for any a.

    For x <= (a + 1)/(a + 5/2) it is x^a (1 - x)^(1/2) K(a, 1/2, x)/(2a);
    above, B(a, 1/2)/2 less (1 - u) x^a K(1/2, a, (1 - u)^2), the same
    form at 1 - x = (1 - u)^2 with the parameters swapped.  x is the
    rounded product p, and its rounding error dx, known exactly, enters
    at first order through dB_x/dx = x^(a-1) (1 - x)^(-1/2).  Within
    2e-14 of mpmath at alpha = 150 and 1.5e-13 at alpha = 1000: next to
    the switch the fraction's value is of size a and its first partial
    denominators cancel to 1/a.  ``log`` and the points 1 < u <= 2 and
    outside [0, 2] are as for StdTail; a float goes through a one-point
    array.
    """

    def __init__(self, alpha):
        self.alpha = alpha = float(alpha)
        self._a = alpha + 1.0
        self._full = beta(self._a, 0.5)

    def _tail(self, v):
        """T at a flat array 0 <= v <= 1."""
        a = self._a
        w = 2.0 - v
        p = v * w
        dx = _two_product_err(v, w, p) + v * ((2.0 - w) - v)      # x - p
        out = np.empty(v.shape)
        direct = p <= (a + 1.0) / (a + 2.5)
        i = np.flatnonzero(direct)
        if i.size:
            pi = p[i]
            qi = 1.0 - pi
            k = _beta_cf(a, 0.5, pi)
            out[i] = 0.5 * np.power(pi, a - 1.0) / np.sqrt(qi) * (pi * qi * k / a + dx[i])
        j = np.flatnonzero(~direct)
        if j.size:
            pj = p[j]
            omv = 1.0 - v[j]
            k = _beta_cf(0.5, a, omv * omv)
            out[j] = 0.5 * self._full - omv * np.power(pj, a) * (1.0 + a * dx[j] / pj) * k
        return out

    def __call__(self, u):
        if _is_scalar(u):
            return self(np.array([float(u)]))[0]
        u = np.asarray(u, dtype=float)
        v, mirror, bad = _reflected(u.reshape(-1))
        with np.errstate(under="ignore"):
            out = self._tail(v)
        return _unreflected(out, self._full, mirror, bad).reshape(u.shape)

    def log(self, lu):
        """ln T(e^lu): the log of the tail, and where it nears underflow
        a ln x + ln(1 - x)/2 + ln K - ln(2a), ln x = lu + ln(2 - u)."""
        if _is_scalar(lu):
            return self.log(np.array([float(lu)]))[0]
        lu = np.asarray(lu, dtype=float)
        flat = lu.reshape(-1)
        with np.errstate(over="ignore", divide="ignore"):
            u = np.exp(flat)
            t = self(u)
            out = np.log(t)
            deep = np.flatnonzero(t < _LOG_DEEP)
            if deep.size:
                v = u[deep]
                x = v * (2.0 - v)
                out[deep] = (self._a * (flat[deep] + np.log(2.0 - v)) + 0.5 * np.log1p(-x)
                             + np.log(_beta_cf(self._a, 0.5, x)) - math.log(2.0 * self._a))
        return out.reshape(lu.shape)


#: the bands of y in which hyp2f1_11 sums its series: y in (previous edge,
#: edge] takes the terms that y = edge needs
_HYP_BANDS = (2.0 ** -16, 2.0 ** -8, 2.0 ** -4, 2.0 ** -2, 0.5)


@functools.lru_cache(maxsize=64)
def _hyp_series(c):
    """Per band edge Y, the coefficients a_0..a_(K-1) of 2F1(1, 1; c; y),
    a_k = k!/(c)_k, that y <= Y needs, highest first: the dropped tail is
    at most |a_K| Y^K / (1 - rho) <= 2^-56, rho bounding the term ratios
    Y (k + 1)/(c + k) from k = K on."""
    a, bands = [1.0], []
    for edge in _HYP_BANDS:
        while True:
            k = len(a) - 1
            rho = edge * max(1.0, (k + 1.0) / (c + k)) if c + k > 0 else 1.0
            if rho < 1.0 and abs(a[k]) * edge ** k <= 2.0 ** -56 * (1.0 - rho):
                break
            a.append(a[k] * (k + 1.0) / (c + k))
        bands.append((edge, tuple(a[k - 1::-1])))
    return tuple(bands)


def _horner(coeffs, y, out):
    """The polynomial of ``coeffs`` (highest first) at y, into ``out``."""
    out.fill(coeffs[0])
    for c in coeffs[1:]:
        out *= y
        out += c
    return out


def hyp2f1_11(c, y):
    """2F1(1, 1; c; y) = sum over k of k!/(c)_k y^k for 0 <= y <= 1/2 and c
    not a nonpositive integer.

    c > 0 makes every term positive.  The series runs in bands of y: all
    entries take the terms of y <= 2^-16 in place, and each entry above a
    band's edge takes the next band's, up to the about 57 terms of
    y = 1/2, so the deep entries that dominate the kernel's arguments cost
    four terms.
    """
    y = np.asarray(y, dtype=float)
    out = np.empty(y.shape)
    flat_y, flat = y.ravel(), out.reshape(-1)
    bands = _hyp_series(float(c))
    _horner(bands[0][1], flat_y, flat)
    idx = None
    for (edge, _), (_, coeffs) in zip(bands, bands[1:]):
        above = (flat_y if idx is None else flat_y[idx]) > edge
        idx = np.flatnonzero(above) if idx is None else idx[above]
        if not idx.size:
            break
        sub = flat_y[idx]
        flat[idx] = _horner(coeffs, sub, np.empty_like(sub))
    return out


def hyp2f1_11_int(m, omx):
    """2F1(1, 1; m + 2; x) for a positive integer m and 1/2 < x <= 1, from
    omx = 1 - x, which stays exact where x rounds to 1.

    2F1 = (m + 1) J_m with J_i = integral over (0, 1) of (1 - t)^i/(1 - x t),
    by the recurrence J_i = (1/i - (1 - x) J_(i-1))/x from
    J_0 = -log(1 - x)/x, which damps errors by (1 - x)/x < 1 per step.
    At x = 1 it gives (m + 1)/m.  Entries with x <= 1/2 get values that
    mean nothing.
    """
    omx = np.asarray(omx, dtype=float)
    x = 1.0 - omx
    j = np.zeros(omx.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.log(omx, out=j, where=omx > 0.0)
        j *= omx                    # (1 - x) J_0 = -j/x, 0 at x = 1
        j /= x
        j += 1.0
        j /= x                      # J_1
        for i in range(2, int(m) + 1):
            j *= omx
            np.subtract(1.0 / i, j, out=j)
            j /= x
    j *= m + 1.0
    return j
