"""Hilbert-type operators: moments, matrix action, Hilbert-Schmidt sums."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergman import operators
from bergman.analytic import AnalyticFunction, dirichlet_norm, log_kernel
from bergman.errors import DomainError, WellDefinednessError
from bergman.operators import (OperatorSetting, _bergman2_kernel,
                               apply_classical, apply_generalized,
                               hilbert_norm2_profile, hilbert_schmidt_partial,
                               hs_limit_estimate, lp_hat_norm, moments,
                               moments_profile, operator_norm_lower,
                               phi_r_profile, suma_ratio)
from bergman.operators import test_function_Q as q_test_function
from bergman.operators import test_function_fN as fn_test_function
from bergman.decomposition import partition
from bergman.quadrature import _WEIGHTS as _GAUSS_WEIGHTS, gauss_panels

coeff_lists = st.lists(st.floats(min_value=-2.0, max_value=2.0)
                       .map(lambda x: round(x, 3)),
                       min_size=1, max_size=10)


# --------------------------------------------------------------------------
# moments

def test_moments_monomial_exact():
    f = AnalyticFunction([0, 0, 1.0])        # z^2
    mu = moments(f, 6)
    assert np.allclose(mu, [1.0 / (k + 3) for k in range(7)], rtol=1e-14)


def _mu_fsum(a, k):
    """math.fsum values of mu_k = sum a_n/(n+k+1) and of sum |a_n|/(n+k+1)."""
    t = np.asarray(a, dtype=complex) / (np.arange(len(a)) + k + 1.0)
    return (complex(math.fsum(t.real), math.fsum(t.imag)),
            math.fsum(np.abs(t)))


# (60, 999): 60 000 products, summed densely; (129, 2048): 264 321, by FFT
@pytest.mark.parametrize("n, k_max", [(60, 999), (129, 2048)])
@pytest.mark.parametrize("kind", ["signed", "complex"])
def test_moments_against_fsum(n, k_max, kind):
    rng = np.random.default_rng(n)
    a = rng.standard_normal(n)
    if kind == "complex":
        a = a + 1j * rng.standard_normal(n)
    mu = moments(AnalyticFunction(a), k_max)
    assert np.iscomplexobj(mu) == (kind == "complex")
    for k in (0, 1, k_max // 3, k_max - 1, k_max):
        ref, cond = _mu_fsum(a, k)
        assert abs(mu[k] - ref) <= 1e-13 * cond


def test_moments_kernel_test_function_against_fsum(w_std_m05):
    # block 5 of the std(-1/2) partition: (1 - a z)^(-5/2), a = 1 - 1/830,
    # expanded to degree 16600 as in TH-MAIN-PQ
    setting = OperatorSetting(2, 2, w_std_m05)
    f = fn_test_function(setting, 4.0, 5, partition(w_std_m05, 1.0, 2 ** 22))
    assert f.degree == 16600
    mu = moments(f, 2047)
    for k in (0, 1, 700, 2047):
        ref, cond = _mu_fsum(f.coefficients, k)
        assert abs(mu[k] - ref) <= 1e-13 * cond


# N m = 2^16 - 1 takes the dense sum and 2^16 + 1 (prime) the FFT
@pytest.mark.parametrize("n, m", [(255, 257), (2 ** 16 + 1, 1)])
def test_hankel_dense_and_fft_agree(monkeypatch, n, m):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    h = 1.0 / (np.arange(n + m - 1) + 1.0)
    first = operators._hankel(x, h, m)
    flip = n * m if n * m > operators._HANKEL_DENSE_MAX else n * m - 1
    monkeypatch.setattr(operators, "_HANKEL_DENSE_MAX", flip)
    second = operators._hankel(x, h, m)
    scale = np.abs(x) @ h[np.add.outer(np.arange(n), np.arange(m))]
    assert np.all(np.abs(first - second) <= 1e-12 * scale)


def test_moments_profile_log_density():
    # mu_0 of 1/(1 - t/2) = 2/(1 + u) is 2 log 2
    mu = moments_profile(lambda u: 2.0 / (1.0 + np.asarray(u)), 2)
    assert mu[0] == pytest.approx(2.0 * math.log(2.0), rel=1e-10)


def test_moments_profile_agrees_with_coefficients():
    f = AnalyticFunction([1.0, -0.5, 0.25])
    mu_exact = moments(f, 8)
    mu_quad = moments_profile(lambda u: np.real(f(1.0 - np.asarray(u))), 8)
    assert np.allclose(mu_quad, np.real(mu_exact), rtol=1e-9)


# --------------------------------------------------------------------------
# operator action

def test_classical_hilbert_matrix_columns():
    # column n of the matrix is 1/(n+k+1), exactly
    for n in (0, 3, 17):
        f = AnalyticFunction(np.eye(1, n + 1, n)[0])
        img = apply_classical(f, 32)
        expect = [1.0 / (n + k + 1.0) for k in range(33)]
        assert np.allclose(np.real(img.coefficients), expect, atol=1e-14)


def test_generalized_reduces_to_classical(w_std_m05):
    from bergman.analytic import log_kernel
    setting = OperatorSetting(2, 2, w_std_m05)
    f = AnalyticFunction([1.0, 0.5, 0.25])
    a = apply_generalized(log_kernel(64), f, 32, setting)
    b = apply_classical(f, 32)
    assert np.allclose(a.coefficients, b.coefficients[:len(a.coefficients)],
                       rtol=1e-13)


@given(coeff_lists, coeff_lists, st.floats(min_value=-2.0, max_value=2.0)
       .map(lambda x: round(x, 3)))
@settings(max_examples=25, deadline=None)
def test_generalized_linear_in_argument(c1, c2, t):
    w = __import__("bergman.weights", fromlist=["std_weight"]) \
        .std_weight(-0.5).normalized()
    g = AnalyticFunction([0.0, 1.0, 0.5, 0.25])
    setting = OperatorSetting(2, 2, w)
    f1, f2 = AnalyticFunction(c1), AnalyticFunction(c2)
    lhs = apply_generalized(g, f1 + f2 * t, 8, setting)
    r1 = apply_generalized(g, f1, 8, setting)
    r2 = apply_generalized(g, f2, 8, setting)
    rhs = r1 + r2 * t
    n = max(len(lhs.coefficients), len(rhs.coefficients))
    a = np.zeros(n, dtype=complex)
    b = np.zeros(n, dtype=complex)
    a[:len(lhs.coefficients)] = lhs.coefficients
    b[:len(rhs.coefficients)] = rhs.coefficients
    assert np.allclose(a, b, atol=1e-12)


def test_well_definedness_refusal(w_const, w_std_m05):
    # flat weight fails the tail-integrability condition at p = 2
    setting = OperatorSetting(2, 2, w_const)
    with pytest.raises(WellDefinednessError):
        setting.require_well_defined()
    OperatorSetting(2, 2, w_std_m05).require_well_defined()


# --------------------------------------------------------------------------
# profile norms

def test_lp_hat_norm_flat_profile(w_const):
    # phi = 1: integral of tail = integral of (1-t) dt = 1/2
    val = lp_hat_norm(lambda u: np.ones_like(np.asarray(u)), 2, w_const)
    assert float(val) == pytest.approx(math.sqrt(0.5), rel=1e-11)


def test_lp_hat_norm_zero_profile_is_finite_zero(w_std_m05):
    # the zero integrand walks the quadrature to its level cap, where
    # all-zero panels give 0 rather than a divergence verdict
    val = lp_hat_norm(lambda u: np.zeros_like(u), 2.0, w_std_m05)
    assert val.verdict == "finite" and val.value == 0.0


def test_lp_hat_norm_divergence(w_const):
    # phi(t) = (1-t)^(-3/2) = u^(-3/2) against tail (1-t): local exponent -2
    # diverges
    val = lp_hat_norm(lambda u: np.asarray(u) ** -1.5, 2, w_const)
    assert val.divergent
    assert val.diagnostics["exponent"] == pytest.approx(2.0, abs=1e-6)


def test_phi_r_profile_support(w_std_m05):
    phi, edge = phi_r_profile(w_std_m05, 0.5, 2)
    assert edge == 0.5
    u = np.array([0.9, 0.51, 0.5, 0.1])          # t = 0.1, 0.49, 0.5, 0.9
    v = phi(u)
    assert v[0] == 0.0 and v[1] == 0.0 and v[2] > 0 and v[3] > v[2]


def test_hilbert_norm2_profile_flat_weight_zeta3(w_const):
    # H(1) has coefficients 1/(k+1) and the flat weight 2 omega_k = 1/(k+1),
    # so ||H(1)||^2 = zeta(3)
    mpmath = pytest.importorskip("mpmath")
    val = hilbert_norm2_profile(lambda u: np.ones_like(u), w_const)
    assert val == pytest.approx(float(mpmath.sqrt(mpmath.zeta(3))), rel=1e-12)


def _pairwise_norm(phi, w, t_min, t_max=1.0):
    """One span's ||H(phi)|| as a sum over node pairs i <= j (triu_indices)."""
    kernel = _bergman2_kernel(w)
    nodes, halves = gauss_panels(1.0 - t_min, np.arange(60), 1.0 - t_max)
    u = nodes.ravel()
    c = (halves[:, None] * _GAUSS_WEIGHTS).ravel() * phi(u)
    i, j = np.triu_indices(len(u), 1)
    val = c ** 2 @ kernel(u + u - u * u) \
        + 2.0 * (c[i] * c[j]) @ kernel(u[i] + u[j] - u[i] * u[j])
    return math.sqrt(val)


@pytest.mark.parametrize("alpha", [-0.5, 1.0, 0.0], ids=["std-0.5", "std1", "const"])
def test_hilbert_norm2_profile_spans_share_one_table(alpha, w_std_m05, w_std_1, w_const):
    # TH-GORRO's spans [r_j, 1), r_j = 1 - 2^-j, and its escape spans
    # [r_j, 1 - (1 - r_j)^2) in one call; phi_0 = phi_r on every node of
    # span j, and each norm is the pairwise form of its own span
    w = {-0.5: w_std_m05, 1.0: w_std_1, 0.0: w_const}[alpha]
    rs = [1.0 - 2.0 ** -j for j in range(13)]
    tops = [1.0 - (1.0 - r) ** 2 for r in rs[1:]]
    phi_0 = phi_r_profile(w, 0.0, 2.0)[0]
    got = hilbert_norm2_profile(phi_0, w, t_min=rs + rs[1:], t_max=[1.0] * 13 + tops)
    assert got.shape == (25,)
    for k, j in [(0, 0), (12, 12), (13, 1), (19, 7), (24, 12)]:
        r = rs[j]
        want = _pairwise_norm(phi_r_profile(w, r, 2.0)[0], w, r,
                              1.0 if k < 13 else tops[j - 1])
        assert got[k] == pytest.approx(want, rel=4e-15, abs=0.0), (k, j)


def test_hilbert_norm2_profile_shapes_and_empty_spans(w_const):
    phi = lambda u: np.ones_like(u)
    one = hilbert_norm2_profile(phi, w_const, t_min=0.5)
    assert type(one) is float and one > 0.0
    assert hilbert_norm2_profile(phi, w_const, t_min=0.5, t_max=0.5) == 0.0
    assert hilbert_norm2_profile(phi, w_const, t_min=0.7, t_max=0.5) == 0.0
    grid = hilbert_norm2_profile(phi, w_const, t_min=[[0.5], [0.75], [0.9]],
                                 t_max=[0.75, 1.0])
    assert grid.shape == (3, 2)
    assert grid[0, 1] == pytest.approx(one, rel=1e-15)
    assert grid[1, 0] == grid[2, 0] == 0.0 and 0.0 < grid[0, 0] < grid[0, 1]
    assert hilbert_norm2_profile(phi, w_const, t_min=np.array([])).shape == (0,)


def test_hilbert_norm2_profile_flat_weight_polylog(w_const):
    # phi = 1 on [r, 1): H(phi) has coefficients (1 - r^(k+1))/(k+1) and
    # 2 omega_k = 1/(k+1), so ||H(phi)||^2 = zeta(3) - 2 Li_3(r) + Li_3(r^2)
    mpmath = pytest.importorskip("mpmath")
    rs = [1.0 - 2.0 ** -j for j in range(8)]
    got = hilbert_norm2_profile(lambda u: np.ones_like(u), w_const, t_min=rs)
    with mpmath.workdps(40):
        for j, r in enumerate(rs):
            r = mpmath.mpf(r)
            want = mpmath.zeta(3) - 2 * mpmath.polylog(3, r) + mpmath.polylog(3, r * r)
            assert got[j] ** 2 == pytest.approx(float(want), rel=1e-13), j


def test_hilbert_norm2_profile_memory(w_std_m05):
    # TH-GORRO's 13 default spans evaluate the kernel on their 1152 union
    # nodes one block of 16 rows at a time; the whole table once took
    # 10.6 MB, and pair arrays of a single span 31.7 MB
    rs = [1.0 - 2.0 ** -j for j in range(13)]
    phi = phi_r_profile(w_std_m05, 0.0, 2.0)[0]
    hilbert_norm2_profile(phi, w_std_m05, t_min=rs[:1])
    tracemalloc.start()
    try:
        hilbert_norm2_profile(phi, w_std_m05, t_min=rs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_phi_r_profile_finite_below_machine_epsilon(w_std_m05):
    # 1 - 1e-17 rounds to 1, where the tail vanishes; u itself does not
    phi, _ = phi_r_profile(w_std_m05, 0.0, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        v = phi(np.array([1e-17]))
    assert np.isfinite(v[0])
    expect = 1.0 / float(w_std_m05.tail_u(1e-17))
    assert v[0] == pytest.approx(expect, rel=1e-14)


# --------------------------------------------------------------------------
# Hilbert-Schmidt sums

def test_hs_partial_log_symbol_against_fsum(w_std_m05):
    # log(1/(1-z)) has (k+1)^2 |b_(k+1)|^2 = 1, so the inner sums are
    # sum_k omega_k / (n+k+1)^2 over its 8192 terms
    K = 4000
    s = hilbert_schmidt_partial(log_kernel(8192), w_std_m05, K)
    om = w_std_m05.moments_upto(8191)
    ks = np.arange(8192, dtype=float)
    terms = [math.fsum((om / (n + ks + 1.0) ** 2).tolist()) / (2.0 * om[n])
             for n in range(K + 1)]
    for n in (0, 1000, 4000):
        assert s[n] == pytest.approx(math.fsum(terms[:n + 1]), rel=1e-13)


def test_hs_partial_monotone(w_std_m05):
    g = AnalyticFunction([0.0, 0.0, 1.0])
    s = hilbert_schmidt_partial(g, w_std_m05, 500)
    assert len(s) == 501
    assert np.all(np.diff(s) > 0)


def test_hs_limit_close_to_dirichlet(w_std_m05):
    g = AnalyticFunction([0.0, 0.0, 1.0])
    s = hilbert_schmidt_partial(g, w_std_m05, 2000)
    est, verdict = hs_limit_estimate(s)
    assert verdict == "finite"
    rhs = float(dirichlet_norm(g)) ** 2
    assert 1.0 / 8.0 < est / rhs < 8.0


def test_hs_log_symbol_diverges(w_std_m05):
    from bergman.analytic import log_kernel
    s = hilbert_schmidt_partial(log_kernel(4096), w_std_m05, 1000)
    est, verdict = hs_limit_estimate(s)
    assert verdict == "divergent" and est == math.inf


def test_hs_zero_symbol(w_std_m05):
    s = hilbert_schmidt_partial(AnalyticFunction([3.0]), w_std_m05, 50)
    assert np.all(s == 0)


def test_hs_limit_short_run_undetermined(w_std_m05):
    from bergman.analytic import log_kernel
    s = hilbert_schmidt_partial(log_kernel(64), w_std_m05, 4)
    est, verdict = hs_limit_estimate(s)
    assert verdict == "undetermined" and math.isnan(est)
    zero = hilbert_schmidt_partial(AnalyticFunction([3.0]), w_std_m05, 4)
    assert hs_limit_estimate(zero) == (0.0, "finite")


def test_suma_ratio_verdicts(w_std_m05, w_const):
    r = suma_ratio(w_std_m05, 10)
    assert r.verdict == "finite" and 0.1 < float(r) < 10.0
    assert suma_ratio(w_const, 10).divergent


# --------------------------------------------------------------------------
# test functions and lower bounds

def test_q_test_function_shape(w_std_m05):
    # the Q family exists only in the q < p regime
    g = AnalyticFunction([0.0, 1.0])
    setting = OperatorSetting(3, 2, w_std_m05)
    phi, q = q_test_function(g, 0.9, setting, k_max=128)
    assert q.degree <= 128 and np.any(np.abs(q.coefficients) > 0)
    assert float(phi(np.array([0.5]))[0]) > 0.0


def test_operator_norm_lower_positive(w_std_m05):
    setting = OperatorSetting(2, 2, w_std_m05)
    part = partition(w_std_m05, 1.0, 2 ** 12)
    g = AnalyticFunction([0.0, 1.0])
    lb = operator_norm_lower(g, setting, part, n_max=3)
    assert 0.0 < lb < 100.0


_SYMBOLS = [AnalyticFunction([0.0, 1.0]), AnalyticFunction([0.0, 0.0, 1.0]),
            log_kernel(64), AnalyticFunction([2.0])]


@pytest.mark.parametrize("p, q", [(2.0, 2.0), (2.0, 3.0), (3.0, 2.0)])
def test_operator_norm_lower_symbol_list(p, q, w_std_m05, monkeypatch):
    # a list of symbols gives each one's own bound; the kernel family builds
    # each f_N once per call, and the Q family takes one Q for a monomial
    # symbol (g'(rho z) is a multiple of g'(0.9 z)) and three for logk
    setting = OperatorSetting(p, q, w_std_m05)
    part = partition(w_std_m05, 1.0, 2 ** 12) if q >= p else None
    built = []                          # first argument of each test function built
    for name in ("test_function_fN", "test_function_Q"):
        real = getattr(operators, name)
        monkeypatch.setattr(operators, name,
                            lambda *a, real=real, **k: built.append(a[0]) or real(*a, **k))
    got = operator_norm_lower(_SYMBOLS, setting, part, n_max=2)
    calls = list(built)
    built.clear()
    one = [operator_norm_lower(g, setting, part, n_max=2) for g in _SYMBOLS]
    assert type(got) is list and got == one and type(one[0]) is float
    assert got[-1] == 0.0 and all(b > 0.0 for b in got[:-1])
    if q >= p:
        assert len(calls) == 3 and len(built) == 9
    else:
        assert [sum(g is s for g in calls) for s in _SYMBOLS] == [1, 1, 3, 0]


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5],
                         ids=["const", "std1", "std-0.5"])
def test_bergman2_kernel_mpmath(alpha, w_const, w_std_1, w_std_m05):
    # K(x) = k0 2F1(1,1;alpha+2;x) with k0 = 2 omega_0, taken in 1 - x; the
    # working precision keeps x = 1 - (1 - x) exact
    mpmath = pytest.importorskip("mpmath")
    w = {0.0: w_const, 1.0: w_std_1, -0.5: w_std_m05}[alpha]
    kernel = _bergman2_kernel(w)
    for omx in (1e-300, 1e-17, 1e-8, 0.3, 0.9):
        with mpmath.workdps(30 + max(0, -math.floor(math.log10(omx)))):
            a1 = mpmath.mpf(alpha) + 1
            k0 = 2 / (a1 * mpmath.beta(mpmath.mpf(1) / 2, a1))
            x = 1 - mpmath.mpf(omx)
            if omx < 1e-100 and alpha != -0.5:
                # at 330 digits mpmath's logarithmic case (integer c - a - b)
                # spends seconds on set-up; 2F1(1,1;2;x) and 2F1(1,1;3;x)
                # have elementary forms
                lg = mpmath.log(1 - x)
                expect = k0 * (-lg / x if alpha == 0.0
                               else 2 * ((1 - x) * lg + x) / x ** 2)
            else:
                expect = k0 * mpmath.hyp2f1(1, 1, alpha + 2, x)
        got = float(kernel(np.array([omx]))[0])
        assert got == pytest.approx(float(expect), rel=1e-12), omx


def test_moments_rejects_negative_kmax():
    with pytest.raises(DomainError):
        moments(AnalyticFunction([1.0]), -1)
