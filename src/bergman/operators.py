"""Hilbert-type operators on weighted Bergman spaces.

The generalized operator with analytic symbol g(z) = sum b_k z^k acts on an
integrable analytic f by

    H_g(f)(z) = integral over (0,1) of f(t) g'(tz) dt,

which in coefficients reads  c_k = (k+1) b_(k+1) mu_k(f)  with the moments
mu_k(f) = integral of t^k f(t) dt.  The symbol g(z) = log(1/(1-z)) recovers
the classical Hilbert operator c_k = sum_n a_n / (n+k+1).  The moments and
the Hilbert-Schmidt sums are products with the Hankel matrices 1/(n+k+1)
and 1/(n+k+1)^2, run by FFT when large (``_hankel``).  Profiles on the
radius are callables of u = 1 - t, which stays exact where t rounds to 1.
The A^2_omega norm of H(phi) for a profile phi (``hilbert_norm2_profile``)
is a quadratic form with the closed Bergman kernel, which keeps every
coefficient of H(phi); a batch of spans of phi evaluates the kernel once
on the union of their nodes, one block of rows at a time, so the dyadic
sweep r = 1 - 2^-j of the extremal profiles costs about its widest span.

Well-definedness of H_g on the source space A^p_omega is governed by the
integrability of tail(r)^(-1/(p-1)) (checked once per OperatorSetting);
operator norms are estimated from below with the two test-function
families of the norm-equivalence theorems (Bergman kernels normalized on
Carleson boxes for q >= p, and the Hilbert transform of a mixed-mean
profile for q < p).  One call bounds a list of symbols: each kernel test
function and its source norm are built once for all of them.
The Hilbert-Schmidt sum over the monomial basis of A^2_omega decides
membership of H_g in the Schatten class S_2 against the Dirichlet norm of
the symbol.
"""

import math
import warnings

import numpy as np
from scipy.special import gammaln, hyp2f1

from .analytic import AnalyticFunction, bergman_norm, circle_profile
from .errors import DomainError, WellDefinednessError
from .quadrature import (_WEIGHTS as _GAUSS_WEIGHTS, gauss_panels,
                         integrate_geometric, integrate_geometric_vec)
from .results import divergent, finite, undetermined
from .weights import carleson_mass, condition_99

#: largest Hankel product N m still summed densely (cheaper than the FFT)
_HANKEL_DENSE_MAX = 2 ** 16

#: default truncation degree cap for expanded test functions
_FN_DEGREE_CAP = 2 ** 17

#: dyadic levels in 1 - t of the node set of hilbert_norm2_profile
_PROFILE_LEVELS = 60

#: radii rho of the Q_rho test functions in operator_norm_lower
_Q_RHOS = (0.9, 0.95, 0.99)


class OperatorSetting:
    """Exponent pair and weight fixing the action A^p_omega -> A^q_omega.

    ``s`` is the derived exponent with 1/s = 1/q - 1/p, defined exactly
    when q < p (it parametrizes the mixed norm characterizing bounded
    symbols in that regime).  The well-definedness verdict — finiteness of
    the integral of tail^(-1/(p-1)) — is computed once and cached.
    """

    def __init__(self, p, q, weight):
        if not (p > 1 and q > 1):        # NaN fails too
            raise DomainError("operator setting requires p, q > 1")
        if abs(weight.total_mass - 1.0) > 1e-9:
            raise DomainError("operator setting requires a normalized weight")
        self.p = float(p)
        self.q = float(q)
        self.weight = weight
        self.s = 1.0 / (1.0 / q - 1.0 / p) if q < p else None
        self._condition = None

    @property
    def condition(self):
        """Cached well-definedness verdict (NormValue)."""
        if self._condition is None:
            self._condition = condition_99(self.weight, self.p)
        return self._condition

    def require_well_defined(self):
        c = self.condition
        if c.verdict != "finite":
            raise WellDefinednessError(
                "H_g is not defined on A^p for p = %g with this weight: "
                "integral of tail^(-1/(p-1)) is %s" % (self.p, c.verdict))

    def __repr__(self):
        s = "" if self.s is None else ", s=%g" % self.s
        return "OperatorSetting(p=%g, q=%g%s, %s)" % (self.p, self.q, s, self.weight)


# ---------------------------------------------------------------------------
# moments

def _hankel(x, h, m):
    """sum over n of x_n h_(n+k), k < m, for positive h_0..h_(N+m-2).

    Dense when N m <= 2^16; otherwise an FFT correlation of the positive and
    negative parts of x (real and imaginary), whose nonnegative rows keep
    the rounding error at the dense sum's own scale sum |x_n| h_(n+k).
    """
    n = len(x)
    if n * m <= _HANKEL_DENSE_MAX:
        return x @ h[np.add.outer(np.arange(n), np.arange(m))]
    rows, signs = [], []
    for part, unit in ((x.real, 1.0), (x.imag, 1j)):
        for sign in (1.0, -1.0):
            row = np.maximum(sign * part, 0.0)
            if np.any(row):
                rows.append(row)
                signs.append(sign * unit)
    if not rows:
        return np.zeros(m)
    size = 1 << (n + m - 1).bit_length()
    spec = np.fft.rfft(np.stack(rows)[:, ::-1], size) * np.fft.rfft(h, size)
    return np.asarray(signs) @ np.fft.irfft(spec, size)[:, n - 1:n - 1 + m]


def moments(f, k_max):
    """mu_k = integral of t^k f(t) dt over (0,1) for k = 0..k_max.

    Coefficient representations give mu_k = sum_n a_n / (n+k+1), a product
    with the Hilbert matrix (``_hankel``); a pointwise callable is a profile
    in u = 1 - t and falls back to endpoint-adapted quadrature.
    """
    if k_max < 0:
        raise DomainError("k_max must be nonnegative")
    if isinstance(f, AnalyticFunction):
        a = f.coefficients
        out = _hankel(a, 1.0 / (np.arange(len(a) + k_max, dtype=float) + 1.0),
                      k_max + 1)
        return out if np.any(np.imag(out)) else np.real(out)
    return moments_profile(f, k_max)


def moments_profile(phi, k_max, t_min=0.0):
    """mu_k of a pointwise profile phi(u), u = 1 - t, on [t_min, 1).

    Integrates in u with geometric panels toward the endpoint;
    t^k = exp(k log(1-u)) stays accurate for k up to ~2^60.
    """
    ks = np.arange(k_max + 1, dtype=float)

    def integrand(u):
        lt = np.log1p(-u)
        return np.asarray(phi(u), dtype=float)[:, None] * \
            np.exp(np.outer(lt, ks))

    vals = integrate_geometric_vec(integrand, 1.0 - t_min)
    return np.asarray(vals, dtype=float)


# ---------------------------------------------------------------------------
# the operators

def apply_generalized(g, f, k_max, setting):
    """H_g(f) truncated at degree k_max: c_k = (k+1) b_(k+1) mu_k(f).

    Requires the setting's well-definedness condition to be finite.  The
    output degree never exceeds deg(g) - 1 (higher coefficients vanish).
    """
    if k_max < 0:
        raise DomainError("k_max must be nonnegative")
    setting.require_well_defined()
    b = g.coefficients
    top = min(k_max, len(b) - 2)
    if top < 0:
        return AnalyticFunction([0.0])
    mu = moments(f, top)
    ks = np.arange(top + 1)
    c = (ks + 1) * b[1:top + 2] * mu
    return AnalyticFunction(c if len(c) else [0.0])


def apply_classical(f, k_max):
    """Classical Hilbert operator: c_k = sum_n a_n / (n+k+1), exact.

    This is H_g for g(z) = log(1/(1-z)), computed without truncating the
    symbol: (k+1) b_(k+1) = 1 for every k.  A callable f is a profile in
    u = 1 - t, as for ``moments``.
    """
    c = moments(f, k_max)
    return AnalyticFunction(c if len(np.atleast_1d(c)) else [0.0])


# ---------------------------------------------------------------------------
# norms of [0,1)-profiles

def lp_hat_norm(phi, p, w, t_min=0.0):
    """(integral of |phi(t)|^p tail(t) dt)^(1/p) over [t_min, 1).

    The natural restriction of the Bergman norm to profiles phi(u),
    u = 1 - t; divergence of the improper integral is returned as a verdict,
    ``divergent`` with its local exponent, or ``undetermined`` when the
    quadrature reached its level cap without one.
    """
    if p <= 0:
        raise DomainError("lp_hat_norm requires p > 0")

    def integrand(u):
        return np.abs(np.asarray(phi(u), dtype=float)) ** p * \
            np.asarray(w.tail_u(u), dtype=float)

    try:
        val = integrate_geometric(integrand, 0.0, 1.0 - t_min)
    except ArithmeticError as exc:
        exponent = getattr(exc, "exponent", None)
        if exponent is None:
            return undetermined(method="quadrature", reason=str(exc))
        return divergent(method="quadrature", exponent=exponent)
    return finite(val ** (1.0 / p), method="quadrature")


def phi_r_profile(w, r, p):
    """The extremal profile phi_r(t) = tail(t)^(-1/(p-1)) for t >= r.

    Returns (phi, r): a vectorized callable of u = 1 - t (exact where t
    rounds to 1) vanishing for t < r, together with its support edge r for
    exact quadrature splitting.
    """
    if not 0.0 <= r < 1.0:
        raise DomainError("phi_r requires 0 <= r < 1")
    e = -1.0 / (p - 1.0)

    def phi(u):
        u = np.asarray(u, dtype=float)
        vals = np.zeros_like(u)
        m = 1.0 - u >= r
        if np.any(m):
            vals[m] = np.asarray(w.tail_u(u[m]), dtype=float) ** e
        return vals

    return phi, r


def _bergman2_kernel(w):
    """Closed form of K(x) = 2 sum_k omega_k x^k for the shipped families.

    K is the diagonal reproducing profile of A^2_omega: for any profile
    phi on [0,1),  ||H(phi)||^2 = double integral of phi(t) phi(s) K(ts),
    which evaluates the Bergman norm of H(phi) without truncating the
    coefficient series.  Only weights with hypergeometric moment series
    (const, std) are supported.

    The returned callable takes 1 - x rather than x: near x = 1 the
    quantity 1 - ts is exactly representable from the node offsets
    u = 1 - t while x itself rounds to 1.0, so evaluation stays accurate
    arbitrarily close to the boundary.
    """
    k0 = 2.0 * w.moment(0)
    alpha = w.params.get("alpha", 0.0) if w.family == "std" else 0.0
    if w.family == "const" or (w.family == "std" and alpha == 0.0):
        # K/k0 = -log(1-x)/x exactly (hyp2f1(1,1,2,x))
        def kernel(omx):
            omx = np.asarray(omx, dtype=float)
            x = 1.0 - omx
            with np.errstate(divide="ignore", invalid="ignore"):
                v = -np.log(omx) / x
            return k0 * np.where(x == 0.0, 1.0, v)
        return kernel
    if w.family == "std":
        if alpha == round(alpha):
            # positive integer alpha: hyp2f1(1,1,alpha+2,.) is continuous
            # up to x = 1 with value (alpha+1)/alpha, so direct evaluation
            # is stable even when x rounds to 1
            def kernel(omx):
                x = 1.0 - np.asarray(omx, dtype=float)
                return k0 * hyp2f1(1.0, 1.0, alpha + 2.0, x)
            return kernel

        # non-integer alpha: connection formula at x = 1,
        # hyp2f1(1,1,a+2,x) = A hyp2f1(1,1,1-a,1-x) + B (1-x)^a x^(-(a+1))
        ca = math.gamma(alpha + 2.0) * math.gamma(alpha) / math.gamma(alpha + 1.0) ** 2
        cb = math.gamma(alpha + 2.0) * math.gamma(-alpha)

        def kernel(omx):
            omx = np.asarray(omx, dtype=float)
            x = 1.0 - omx
            near = x > 0.5
            v = np.empty_like(omx)
            v[~near] = hyp2f1(1.0, 1.0, alpha + 2.0, x[~near])
            # in place, as few block-sized arrays as hilbert_norm2_profile's
            # memory allows, in the order of ca*h + cb*o^alpha/x^(alpha+1)
            o, x = omx[near], x[near]
            h = hyp2f1(1.0, 1.0, 1.0 - alpha, o)
            h *= ca
            o **= alpha
            o *= cb
            x **= alpha + 1.0
            o /= x
            h += o
            v[near] = h
            v *= k0
            return v
        return kernel
    raise DomainError("closed Bergman kernel only available for const/std "
                      "weights (got %s)" % w.family)


def _span_rows(phi, t_min, t_max):
    """The union u of the spans' panel nodes in 1 - t, and row k: span k's
    quadrature weights on u times phi(u)."""
    spans = [gauss_panels(1.0 - lo, np.arange(_PROFILE_LEVELS), 1.0 - hi)
             for lo, hi in zip(t_min, t_max)]
    nodes = [n.ravel() for n, _ in spans]
    u, col = np.unique(np.concatenate([np.empty(0), *nodes]), return_inverse=True)
    c = np.zeros((len(spans), len(u)))
    c[np.repeat(np.arange(len(spans)), [len(n) for n in nodes]), col] = np.concatenate(
        [np.empty(0), *[(h[:, None] * _GAUSS_WEIGHTS).ravel() for _, h in spans]])
    c *= np.asarray(phi(u), dtype=float)
    return u, c


def hilbert_norm2_profile(phi, w, t_min=0.0, t_max=1.0):
    """||H(phi)||_{A^2_omega} for a profile phi(u) >= 0, truncation-free.

    Uses the bilinear form  ||H(phi)||^2 = integral over [t_min,t_max)^2 of
    phi(t) phi(s) K(ts) dt ds  with the closed moment kernel K, so the full
    coefficient series of H(phi) enters even when phi concentrates at
    machine-scale distance from 1 (where any k_max truncation would lose
    the mass).  Geometric panels in 1 - t on both axes.

    Scalar ``t_min`` and ``t_max`` give a float; arrays, broadcast
    together, give one norm per span [t_min, t_max).  K is evaluated once
    on the union of all spans' nodes, one block of rows of the upper
    triangle at a time, and each span's quadratic form takes the block's
    diagonal square once and the columns to its right twice; phi is
    evaluated once on the union.  No len(u)^2 array is held.  Spans at
    t_min = 1 - 2^-j share dyadic levels, so a sweep over j costs about its
    widest span.  Spans that share no dyadic levels get no sharing, and the
    blocks still cover their cross pairs: pass those in separate calls.
    """
    kernel = _bergman2_kernel(w)
    t_min, t_max = np.broadcast_arrays(np.asarray(t_min, dtype=float),
                                       np.asarray(t_max, dtype=float))
    u, c = _span_rows(phi, t_min.ravel(), t_max.ravel())
    norms2 = np.zeros(len(c))
    step = len(_GAUSS_WEIGHTS)
    for a in range(0, len(u), step):
        # 1 - ts for t = 1-u, s = 1-v: u + v - uv, exact even when ts rounds
        # to 1 and symmetric in u, v, so a row block stands for its mirror
        ub = u[a:a + step, None]
        rows = c[:, a:a + step] @ kernel(ub + u[a:] - ub * u[a:])
        rows[:, step:] *= 2.0
        norms2 += np.einsum("kn,kn->k", rows, c[:, a:])
    norms = np.sqrt(np.maximum(norms2, 0.0))
    return float(norms[0]) if t_min.ndim == 0 else norms.reshape(t_min.shape)


# ---------------------------------------------------------------------------
# test-function families

def test_function_fN(setting, gamma, n, part):
    """Normalized kernel-type test function attached to block n.

    With a = 1 - 1/M_n, returns the truncated expansion of

        f(z) = (M_n^(gamma+1) omega(S(a)))^(-1/p) (1 - a z)^(-(gamma+1)/p),

    whose Bergman p-norms are uniformly bounded in n when gamma exceeds
    the weight's kernel-comparison threshold (gamma = p + 2 is a safe
    default for the shipped families).
    """
    if gamma <= setting.p - 1.0:
        raise DomainError("gamma must exceed p - 1")
    if not 0 <= n < len(part.marks):
        raise DomainError("block index out of range")
    m = part.marks[n]
    a = 1.0 - 1.0 / m
    s = (gamma + 1.0) / setting.p
    const = (m ** (gamma + 1.0) * carleson_mass(setting.weight, a)) ** (-1.0 / setting.p)
    if a == 0.0:
        return AnalyticFunction([const])
    deg = min(20 * m, _FN_DEGREE_CAP)
    js = np.arange(deg + 1, dtype=float)
    # binomial series (1-az)^(-s): coefficient Gamma(j+s)/(Gamma(s) j!) a^j
    logc = gammaln(js + s) - gammaln(s) - gammaln(js + 1.0) + js * math.log(a)
    coeffs = const * np.exp(logc)
    # dropped Bergman mass: the tail terms c_j^2 omega_j decay roughly like
    # a^(2j), so a geometric closure at the last kept coefficient bounds it
    tail_sq = 2.0 * coeffs[-1] ** 2 * float(setting.weight.moment(int(deg))) \
        * 0.5 * m
    if math.sqrt(max(tail_sq, 0.0)) > 1e-6:
        warnings.warn("test function truncation drops Bergman mass %.2e "
                      "(> 1e-6 of the unit-scale norm)" % math.sqrt(tail_sq),
                      stacklevel=2)
    return AnalyticFunction(coeffs)


def test_function_Q(g, rho, setting, k_max=1024):
    """Profile/transform pair for lower bounds in the q < p regime.

    phi_rho(t) = (M_q(t, g_rho') (1-t)^(1-1/q))^(q/(p-q)) with
    g_rho'(z) = g'(rho z), and Q_rho(z) = integral of phi_rho(t)/(1-tz) dt,
    returned as (phi callable of u = 1 - t, Q as AnalyticFunction).  Q_rho
    dominates a constant multiple of phi_rho on the radius and its Bergman
    norm is comparable to the hat-norm of phi_rho.  ``phi.capped`` is true
    when a circle mean behind Q's moments hit the node cap, which leaves Q
    undetermined.
    """
    p, q = setting.p, setting.q
    if not q < p:
        raise DomainError("Q test functions require q < p")
    if not 0.0 < rho < 1.0:
        raise DomainError("rho must lie in (0, 1)")
    gp = g.derivative()
    g_rho = AnalyticFunction(gp.coefficients * rho ** np.arange(len(gp.coefficients)))
    e = q / (p - q)
    if g_rho.degree == 0 and g_rho.coefficients[0] == 0:
        phi = lambda u: np.zeros_like(np.asarray(u, dtype=float))
        phi.capped = False
        return phi, AnalyticFunction([0.0])

    means = circle_profile(g_rho, [(q, 1.0)])

    def phi(u):
        u = np.asarray(u, dtype=float)
        return (means(u)[0] * u ** (1.0 - 1.0 / q)) ** e

    mu = moments_profile(phi, k_max)
    phi.capped = means.capped
    return phi, AnalyticFunction(mu)


# ---------------------------------------------------------------------------
# operator-norm estimates

def _ratio(num, den):
    """num/den of two norms; NaN when either is not finite (an undetermined
    test function decides nothing), 0 for a vanishing test function."""
    num, den = float(num), float(den)
    if not (math.isfinite(num) and math.isfinite(den)):
        return math.nan
    return num / den if den > 0 else 0.0


def operator_norm_lower(g, setting, part, n_max=6):
    """Lower bound for ||H_g|| via the theorem-side test families.

    Maximizes bergman_norm(H_g f, q) / bergman_norm(f, p) over the kernel
    family f_(M_n) at gamma = p + 2, n <= n_max (regime q >= p) or the
    Q_rho family on rho in ``_Q_RHOS`` (regime q < p).  Only the kernel
    family reads the partition ``part``, which may be None when q < p.

    ``g`` is one symbol (the bound is a float) or a sequence of symbols
    (a list of bounds, each equal to its one-symbol call).  Each f_(M_n)
    and its source norm are built once per call.  A symbol whose g' is a
    monomial takes only the first rho: exactly then is every g'(rho z) a
    scalar multiple of one function, and both norms are homogeneous of
    degree 1 in Q, so every rho gives the same ratio.  A bound is NaN once
    one of its test functions has a norm that is not finite, or a Q whose
    circle means capped.
    """
    setting.require_well_defined()
    gs = [g] if isinstance(g, AnalyticFunction) else list(g)
    w = setting.weight
    ratios = [[] for _ in gs]
    live = [i for i, gi in enumerate(gs) if np.any(gi.coefficients[1:])]

    def image_norm(gi, f):
        img = apply_generalized(gi, f, max(gi.degree - 1, 0), setting)
        return bergman_norm(img, setting.q, w)

    if setting.q >= setting.p and live:
        for n in range(min(n_max + 1, len(part.marks))):
            f = test_function_fN(setting, setting.p + 2.0, n, part)
            den = bergman_norm(f, setting.p, w)
            for i in live:
                ratios[i].append(_ratio(image_norm(gs[i], f), den))
    elif setting.q < setting.p:
        for i in live:
            monomial = np.count_nonzero(gs[i].derivative().coefficients) == 1
            for rho in _Q_RHOS[:1] if monomial else _Q_RHOS:
                phi, Q = test_function_Q(gs[i], rho, setting)
                ratios[i].append(math.nan if phi.capped else
                                 _ratio(image_norm(gs[i], Q),
                                        bergman_norm(Q, setting.p, w)))
    bounds = [math.nan if any(map(math.isnan, rs)) else max(rs, default=0.0)
              for rs in ratios]
    return bounds[0] if isinstance(g, AnalyticFunction) else bounds


# ---------------------------------------------------------------------------
# Hilbert-Schmidt diagnostics on A^2_omega

def hilbert_schmidt_partial(g, w, K):
    """Partial Hilbert-Schmidt sums S_0..S_K of H_g over the monomial basis.

    S_N = sum over n <= N of (1/(2 omega_n)) sum_k (k+1)^2 |b_(k+1)|^2
    omega_k / (n+k+1)^2, a Hankel product over the deg(g) terms of the
    truncated symbol.  Returns the cumulative array, whose convergence or
    logarithmic growth decides Hilbert-Schmidt membership.
    """
    if K < 0:
        raise DomainError("K must be nonnegative")
    b = g.coefficients
    if len(b) < 2 or not np.any(b[1:]):
        return np.zeros(K + 1)
    ks = np.arange(len(b) - 1, dtype=float)
    v = (ks + 1.0) ** 2 * np.abs(b[1:]) ** 2 * w.moments_upto(len(b) - 2)
    h = 1.0 / (np.arange(len(v) + K, dtype=float) + 1.0) ** 2
    return np.cumsum(_hankel(v, h, K + 1) / (2.0 * w.moments_upto(K)))


def hs_limit_estimate(partial_sums):
    """Extrapolated limit of the partial Hilbert-Schmidt sums.

    Fits a geometric-in-doubling model to the increments S_2K - S_K at the
    last three dyadic checkpoints; returns (estimate, verdict) where the
    verdict flags logarithmic growth (increments failing to shrink) as
    divergent.  With K < 8 there are no three checkpoints to fit, so the
    verdict is undetermined (NaN estimate) unless every sum is zero.
    """
    s = np.asarray(partial_sums, dtype=float)
    K = len(s) - 1
    if K < 8:
        if not np.any(s):
            return 0.0, "finite"
        return math.nan, "undetermined"
    cps = [K // 8, K // 4, K // 2, K]
    incs = [s[cps[i + 1]] - s[cps[i]] for i in range(3)]
    if incs[-1] <= 0:
        return float(s[-1]), "finite"
    ratios = [incs[i + 1] / incs[i] for i in range(2) if incs[i] > 0]
    if not ratios or min(ratios) > 0.9:
        return math.inf, "divergent"
    r = ratios[-1]
    return float(s[-1] + incs[-1] * r / (1.0 - r)), "finite"


def suma_ratio(w, k):
    """Ratio of  sum_n 1/((n+k+1)^2 omega_n)  to  1/((k+1) omega_k).

    The sum is truncated adaptively with a power-law tail estimate fitted
    to the last terms; a tail exponent at or below 1 flags divergence
    (which happens exactly when the weight fails the p = 2 Muckenhoupt
    condition, e.g. omega = const).
    """
    if k < 0:
        raise DomainError("k must be nonnegative")
    n_max = max(4096, 32 * (k + 1)) if w.has_closed_moments else 512
    ns = np.arange(n_max + 1, dtype=float)
    om = np.asarray(w.moments_upto(n_max), dtype=float)
    terms = 1.0 / ((ns + k + 1.0) ** 2 * om)
    total = float(np.sum(terms))
    # tail exponent from the last octave of terms
    t1, t2 = terms[n_max // 2], terms[n_max]
    theta = math.log(t1 / t2) / math.log(2.0) if t1 > 0 and t2 > 0 else math.inf
    if theta <= 1.02:
        return divergent(method="truncation", tail_exponent=theta, n_max=n_max)
    tail = terms[n_max] * n_max / (theta - 1.0)
    rhs = 1.0 / ((k + 1.0) * float(w.moment(int(k))))
    return finite((total + tail) / rhs, method="truncation",
                  tail_exponent=theta, n_max=n_max, tail_fraction=tail / total)
