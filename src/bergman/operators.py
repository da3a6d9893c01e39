"""Hilbert-type operators on weighted Bergman spaces.

The generalized operator with analytic symbol g(z) = sum b_k z^k acts on an
integrable analytic f by

    H_g(f)(z) = integral over (0,1) of f(t) g'(tz) dt,

which in coefficients reads  c_k = (k+1) b_(k+1) mu_k(f)  with the moments
mu_k(f) = integral of t^k f(t) dt.  The symbol g(z) = log(1/(1-z)) recovers
the classical Hilbert operator c_k = sum_n a_n / (n+k+1), and replacing f
by |f| gives the sublinear companion H~.  The moments and the Hilbert-Schmidt
sums are products with the Hankel matrices 1/(n+k+1) and 1/(n+k+1)^2, run
by FFT when large (``_hankel``).  Profiles on the radius are callables of
u = 1 - t, which stays exact where t rounds to 1.

Well-definedness of H_g on the source space A^p_omega is governed by the
integrability of tail(r)^(-1/(p-1)) (checked once per OperatorSetting);
operator norms are estimated from below with the two test-function
families of the norm-equivalence theorems (Bergman kernels normalized on
Carleson boxes for q >= p, and the Hilbert transform of a mixed-mean
profile for q < p).
The Hilbert-Schmidt sum over the monomial basis of A^2_omega decides
membership of H_g in the Schatten class S_2 against the Dirichlet norm of
the symbol.
"""

import math
import warnings

import numpy as np
from scipy.special import gammaln, hyp2f1

from .analytic import AnalyticFunction, bergman_norm, hardy_means_u
from .errors import DomainError, WellDefinednessError
from .quadrature import (_NODES as _GAUSS_NODES, _WEIGHTS as _GAUSS_WEIGHTS,
                         geometric_u_grid, integrate_geometric,
                         integrate_geometric_vec)
from .results import divergent, finite
from .weights import carleson_mass, condition_99

#: largest Hankel product N m still summed densely (cheaper than the FFT)
_HANKEL_DENSE_MAX = 2 ** 16

#: default truncation degree cap for expanded test functions
_FN_DEGREE_CAP = 2 ** 17


class OperatorSetting:
    """Exponent pair and weight fixing the action A^p_omega -> A^q_omega.

    ``s`` is the derived exponent with 1/s = 1/q - 1/p, defined exactly
    when q < p (it parametrizes the mixed norm characterizing bounded
    symbols in that regime).  The well-definedness verdict — finiteness of
    the integral of tail^(-1/(p-1)) — is computed once and cached.
    """

    def __init__(self, p, q, weight):
        if p <= 1 or q <= 1:
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

    vals = integrate_geometric_vec(integrand, 0.0, 1.0 - t_min)
    return np.asarray(vals, dtype=float)


# ---------------------------------------------------------------------------
# the operators

def apply_generalized(g, f, k_max, setting):
    """H_g(f) truncated at degree k_max: c_k = (k+1) b_(k+1) mu_k(f).

    Requires the setting's well-definedness condition to be finite.  The
    output degree never exceeds deg(g) - 1 (higher coefficients vanish).
    """
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


def apply_sublinear(f, x):
    """H~(f)(x) = integral of |f(t)| / (1 - t x) dt at a real point x.

    For f with nonnegative coefficients this equals the classical operator
    evaluated at x; in general it dominates it (triangle inequality).
    """
    if not 0.0 <= x < 1.0:
        raise DomainError("sublinear operator evaluated at real x in [0, 1)")
    fn = f if not isinstance(f, AnalyticFunction) else (lambda t: f(t))

    def integrand(u):
        t = 1.0 - u
        return np.abs(fn(t)) / (1.0 - t * x)

    return float(integrate_geometric(integrand, 0.0, 1.0))


# ---------------------------------------------------------------------------
# norms of [0,1)-profiles

def lp_hat_norm(phi, p, w, t_min=0.0):
    """(integral of |phi(t)|^p tail(t) dt)^(1/p) over [t_min, 1).

    The natural restriction of the Bergman norm to profiles phi(u),
    u = 1 - t; divergence of the improper integral is returned as a verdict.
    """
    if p <= 0:
        raise DomainError("lp_hat_norm requires p > 0")

    def integrand(u):
        return np.abs(np.asarray(phi(u), dtype=float)) ** p * \
            np.asarray(w.tail_u(u), dtype=float)

    try:
        val = integrate_geometric(integrand, 0.0, 1.0 - t_min)
    except ArithmeticError as exc:
        return divergent(method="quadrature",
                         exponent=getattr(exc, "exponent", None))
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
            v[near] = (ca * hyp2f1(1.0, 1.0, 1.0 - alpha, omx[near])
                       + cb * omx[near] ** alpha / x[near] ** (alpha + 1.0))
            return k0 * v
        return kernel
    raise DomainError("closed Bergman kernel only available for const/std "
                      "weights (got %s)" % w.family)


def hilbert_norm2_profile(phi, w, t_min=0.0, t_max=1.0, max_levels=60):
    """||H(phi)||_{A^2_omega} for a profile phi(u) >= 0, truncation-free.

    Uses the bilinear form  ||H(phi)||^2 = integral over [t_min,t_max)^2 of
    phi(t) phi(s) K(ts) dt ds  with the closed moment kernel K, so the full
    coefficient series of H(phi) enters even when phi concentrates at
    machine-scale distance from 1 (where any k_max truncation would lose
    the mass).  Geometric panels in 1 - t on both axes.
    """
    kernel = _bergman2_kernel(w)
    u_hi = 1.0 - t_min
    u_lo = 1.0 - t_max
    nodes = []
    coefs = []
    hi = u_hi
    for m in range(max_levels):
        lo = max(u_hi * 0.5 ** (m + 1), u_lo)
        if lo >= hi:
            break
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        u = mid + half * _GAUSS_NODES
        nodes.append(u)
        coefs.append(half * _GAUSS_WEIGHTS * np.asarray(phi(u), dtype=float))
        hi = lo
        if lo == u_lo:
            break
    if not nodes:
        return 0.0
    u = np.concatenate(nodes)
    c = np.concatenate(coefs)
    # 1 - ts for t = 1-u, s = 1-v: u + v - uv, exact even when ts rounds to 1;
    # the form is symmetric, so each pair of nodes is evaluated once
    i, j = np.triu_indices(len(u), 1)
    val = float(c ** 2 @ kernel(u + u - u * u)
                + 2.0 * (c[i] * c[j]) @ kernel(u[i] + u[j] - u[i] * u[j]))
    return math.sqrt(max(val, 0.0))


# ---------------------------------------------------------------------------
# test-function families

def zhu_ratio(w, gamma, a_grid=None):
    """Stability ratio of the kernel-mass comparison at exponent gamma.

    Computes  integral over D of omega(z) |1 - a z|^(-(gamma+1)) dA(z)
    divided by  omega(S(a)) / (1-a)^(gamma+1)  on a grid of a and returns
    (max ratio / min ratio).  A ratio close to 1 across the grid certifies
    that gamma is large enough for the kernel test functions.
    """
    if a_grid is None:
        a_grid = 1.0 - geometric_u_grid(10, 1)[1:]
    s = 0.5 * (gamma + 1.0)
    ratios = []
    for a in a_grid:
        def integrand(u, a=a):
            rr = 1.0 - u
            return rr * np.asarray(w.density_u(u), dtype=float) * \
                hyp2f1(s, s, 1.0, (a * rr) ** 2)
        lhs = 2.0 * integrate_geometric(integrand, 0.0, 1.0,
                                        adaptive=(w.family == "osc"))
        rhs = carleson_mass(w, a) / (1.0 - a) ** (gamma + 1.0)
        ratios.append(lhs / rhs)
    return float(max(ratios) / min(ratios))


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
    norm is comparable to the hat-norm of phi_rho.
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
        return (lambda u: np.zeros_like(np.asarray(u, dtype=float))), \
            AnalyticFunction([0.0])

    def phi(u):
        u = np.asarray(u, dtype=float)
        means, _ = hardy_means_u(g_rho, q, u)
        return (means * u ** (1.0 - 1.0 / q)) ** e

    mu = moments_profile(phi, k_max)
    return phi, AnalyticFunction(mu)


# ---------------------------------------------------------------------------
# operator-norm estimates

def operator_norm_lower(g, setting, part, n_max=6, gamma=None,
                        rho_grid=(0.9, 0.95, 0.99)):
    """Lower bound for ||H_g|| via the theorem-side test families.

    Maximizes bergman_norm(H_g f, q) / bergman_norm(f, p) over the kernel
    family f_(M_n), n <= n_max (regime q >= p) or the Q_rho family on
    ``rho_grid`` (regime q < p).
    """
    setting.require_well_defined()
    if not np.any(g.coefficients[1:]):
        return 0.0
    w = setting.weight
    if gamma is None:
        gamma = setting.p + 2.0
    k_max = max(g.degree - 1, 0)
    best = 0.0
    if setting.q >= setting.p:
        for n in range(min(n_max + 1, len(part.marks))):
            f = test_function_fN(setting, gamma, n, part)
            img = apply_generalized(g, f, k_max, setting)
            num = float(bergman_norm(img, setting.q, w))
            den = float(bergman_norm(f, setting.p, w))
            if den > 0:
                best = max(best, num / den)
    else:
        for rho in rho_grid:
            phi, Q = test_function_Q(g, rho, setting)
            img = apply_generalized(g, Q, k_max, setting)
            num = float(bergman_norm(img, setting.q, w))
            den = float(bergman_norm(Q, setting.p, w))
            if den > 0:
                best = max(best, num / den)
    return best


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


def suma_ratio(w, k, n_max=None):
    """Ratio of  sum_n 1/((n+k+1)^2 omega_n)  to  1/((k+1) omega_k).

    The sum is truncated adaptively with a power-law tail estimate fitted
    to the last terms; a tail exponent at or below 1 flags divergence
    (which happens exactly when the weight fails the p = 2 Muckenhoupt
    condition, e.g. omega = const).
    """
    if k < 0:
        raise DomainError("k must be nonnegative")
    if n_max is None:
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
