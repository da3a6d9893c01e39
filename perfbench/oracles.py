"""Independent reference values for the benchmark's output checks.

Nothing here calls `bergman`: moments come from closed Beta forms and
mpmath, sums from ``math.fsum`` or 30-digit mpmath arithmetic.  Weights
are normalized to unit mass, as the scenarios and the CLI normalize them.
"""

import functools
import math

import mpmath as mp

mp.mp.dps = 30

HALF = mp.mpf(1) / 2


class Checks:
    """Collects check outcomes.

    With ``perturb`` set, every numeric value under test is first moved by
    that relative amount (an inequality's left side is moved to its right
    side times ``1 + perturb``), so a run in that mode shows which checks
    reject a perturbed value.
    """

    def __init__(self, perturb=0.0):
        self.perturb = perturb
        self.numeric = 0
        self.failures = []

    def _fail(self, label, detail):
        self.failures.append("%s: %s" % (label, detail))

    def close(self, label, got, want, rtol):
        self.numeric += 1
        got = complex(got) * (1.0 + self.perturb)
        want = complex(want)
        if not abs(got - want) <= rtol * abs(want):
            self._fail(label, "got %r, want %r (rtol %g)" % (got, want, rtol))

    def leq(self, label, lhs, rhs):
        self.numeric += 1
        if self.perturb:
            lhs = rhs * (1.0 + self.perturb)
        if not lhs <= rhs:
            self._fail(label, "%r > %r" % (lhs, rhs))

    def equal(self, label, got, want):
        """Exact equality; numbers take part in the perturbation."""
        if isinstance(want, (int, float)) and not isinstance(want, bool):
            self.numeric += 1
            got = got * (1.0 + self.perturb)
        if got != want:
            self._fail(label, "got %r, want %r" % (got, want))

    def true(self, label, cond, detail=""):
        if not cond:
            self._fail(label, detail or "condition failed")


# ---------------------------------------------------------------------------
# moments of the normalized weights


def std_plain(alpha, x):
    """integral of r^x omega for omega = (1-r^2)^alpha at unit mass."""
    a1 = mp.mpf(alpha) + 1
    return mp.beta((mp.mpf(x) + 1) / 2, a1) / mp.beta(HALF, a1)


@functools.lru_cache(maxsize=None)
def std_odd_moments(alpha, n_max):
    """omega_n = integral of r^(2n+1) omega, n = 0..n_max, for std(alpha).

    omega_n = B(n+1, alpha+1) / B(1/2, alpha+1); consecutive moments obey
    omega_n = omega_(n-1) n / (n + alpha + 1).
    """
    a1 = mp.mpf(alpha) + 1
    om = [1 / (a1 * mp.beta(HALF, a1))]
    for n in range(1, n_max + 1):
        om.append(om[-1] * n / (n + a1))
    return tuple(om)            # cached: callers share one copy


@functools.lru_cache(maxsize=None)
def named_plain(name, x):
    """integral of r^x omega for the weights the scenarios name."""
    x = mp.mpf(x)
    if name == "const":
        return 1 / (x + 1)
    if name == "linear":                      # 2(1-r)
        return 2 / ((x + 1) * (x + 2))
    if name == "std-0.5":
        return std_plain(-0.5, x)
    if name == "std1":
        return std_plain(1.0, x)
    if name == "logpow2":
        # omega(r) = 1/((1-r)(1 - log(1-r))^2), unit mass; with 1-r = e^-s
        # the integral is that of (1 - e^-s)^x / (1+s)^2 over s > 0
        edge = mp.log(x + 1)
        return mp.quad(lambda s: (1 - mp.exp(-s)) ** x / (1 + s) ** 2,
                       [0, max(edge - 3, HALF), edge, edge + 3, edge + 30,
                        mp.inf])
    raise ValueError("no oracle for weight %r" % name)


def pow_odd_moment(beta, n):
    """omega_n of the unit-mass (beta+1)(1-r)^beta: (beta+1) B(2n+2, beta+1)."""
    b1 = mp.mpf(beta) + 1
    return b1 * mp.beta(2 * n + 2, b1)


def geometric_grid(j_max=40, per_level=4):
    """u_i = 2^(-i/per_level), i = 0..j_max*per_level."""
    return [2.0 ** (-i / per_level) for i in range(j_max * per_level + 1)]


# ---------------------------------------------------------------------------
# operator quantities


def hilbert_coefficients(a, k_max):
    """c_k = sum_n a_n / (n+k+1), k = 0..k_max, each summed by fsum."""
    out = []
    for k in range(k_max + 1):
        re = math.fsum(x.real / (n + k + 1) for n, x in enumerate(a))
        im = math.fsum(x.imag / (n + k + 1) for n, x in enumerate(a))
        out.append(complex(re, im))
    return out


def hs_partial_sums(b, alpha, K):
    """S_0..S_K of the Hilbert-Schmidt sum of H_g on A^2 of std(alpha).

    S_N = sum_(n<=N) (1/(2 omega_n)) sum_k (k+1)^2 |b_(k+1)|^2 omega_k
    / (n+k+1)^2, in 30-digit arithmetic.
    """
    om = std_odd_moments(alpha, max(K, len(b)))
    v = [(k + 1) ** 2 * abs(complex(b[k + 1])) ** 2 * om[k]
         for k in range(len(b) - 1)]
    sums, total = [], mp.mpf(0)
    for n in range(K + 1):
        total += mp.fsum(vk / (n + k + 1) ** 2 for k, vk in enumerate(v)) \
            / (2 * om[n])
        sums.append(total)
    return sums


def hs_z2_limit_std(alpha):
    """lim S_N for g = z^2 on std(alpha): sum_n 4 omega_1 / (2 omega_n (n+2)^2).

    With 1/omega_n = (alpha+2)_n / (omega_0 n!) and
    (n+2)^-2 = ((2)_n / (2 (3)_n))^2 the series is
    2 omega_1 / (4 omega_0) * 3F2(alpha+2, 2, 2; 3, 3; 1).
    """
    a1 = mp.mpf(alpha) + 1
    om = std_odd_moments(alpha, 1)
    series = mp.hyp3f2(a1 + 1, 2, 2, 3, 3, 1)
    return 2 * om[1] / om[0] * series / 4


def hs_extrapolation(sums):
    """The doubling extrapolation the `hs` verdict is defined by, on S_0..S_K.

    incs = S at K/4-K/8, K/2-K/4, K-K/2; estimate = S_K + inc r/(1-r)
    with r the last increment ratio.
    """
    K = len(sums) - 1
    cps = [K // 8, K // 4, K // 2, K]
    incs = [sums[cps[i + 1]] - sums[cps[i]] for i in range(3)]
    r = incs[2] / incs[1]
    return sums[K] + incs[2] * r / (1 - r)


def rank_one_hz_norm(alpha):
    """Exact norm of H_z on A^2 of std(alpha): H_z f = mu_0(f), a rank-one map.

    ||H_z|| = sqrt(2 omega_0) * (sum_n 1/((n+1)^2 2 omega_n))^(1/2), and
    sum_n 1/((n+1)^2 omega_n) = 3F2(alpha+2, 1, 1; 2, 2; 1) / omega_0.
    """
    a1 = mp.mpf(alpha) + 1
    om0 = std_odd_moments(alpha, 0)[0]
    series = mp.hyp3f2(a1 + 1, 1, 1, 2, 2, 1) / om0
    return mp.sqrt(2 * om0) * mp.sqrt(series / 2)


def hardy_mean_trig(coeffs, p):
    """M_p(1, f) = ((1/2pi) integral of |f(e^it)|^p dt)^(1/p) by mpmath quad."""
    cs = [mp.mpc(c.real, c.imag) for c in coeffs]

    def integrand(t):
        z = mp.expj(t)
        return abs(mp.polyval(cs[::-1], z)) ** p

    pieces = [2 * mp.pi * i / 16 for i in range(17)]
    return (mp.quad(integrand, pieces) / (2 * mp.pi)) ** (mp.mpf(1) / p)
