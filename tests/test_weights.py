"""Radial weights: tails, classification, integrability conditions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergman.errors import DivergentMassError, DomainError
from bergman.weights import (carleson_mass, classify, condition_99,
                             derived_weight, distortion, muckenhoupt,
                             parse_weight, pow_weight, std_weight,
                             table_weight, tail_exponent, u_p_weight)


# --------------------------------------------------------------------------
# parsing and construction

def test_parse_round_trip_families():
    for spec, family in [("const(c=1)", "const"), ("std(alpha=-0.5)", "std"),
                         ("pow(beta=1)", "pow"), ("logpow(beta=2)", "logpow"),
                         ("osc()", "osc")]:
        w = parse_weight(spec)
        assert w.family == family


def test_parse_scale_suffix():
    w = parse_weight("std(alpha=1)*3.5")
    base = std_weight(1.0)
    assert w.tail(0.5) == pytest.approx(3.5 * base.tail(0.5), rel=1e-14)


def test_parse_rejects_divergent_mass():
    with pytest.raises(DivergentMassError):
        parse_weight("std(alpha=-1.5)")


def test_parse_rejects_garbage():
    with pytest.raises(DomainError):
        parse_weight("frobnicate(x=1)")


def test_normalized_has_unit_mass(w_std_1, w_logpow2, w_osc):
    for w in (w_std_1, w_logpow2, w_osc):
        assert w.tail(0.0) == pytest.approx(1.0, rel=1e-12)


# --------------------------------------------------------------------------
# tails: closed forms and numerics

def test_const_tail_linear(w_const):
    for r in np.linspace(0.0, 0.999, 21):
        assert w_const.tail(float(r)) == pytest.approx(1.0 - r, rel=1e-14)


def test_std_tail_closed_form():
    # unnormalized (1-r^2)^1: tail(r) = (2 - 3r + r^3)/3
    w = std_weight(1.0)
    for r in (0.0, 0.3, 0.9, 0.999):
        expect = (2.0 - 3.0 * r + r ** 3) / 3.0
        assert w.tail(r) == pytest.approx(expect, rel=1e-11)


#: u from 1e-300 to 1, the series/rule switch of special.StdTail, the
#: switch of StdTailCF's continued fraction for alpha >= 50 (x = u(2-u)
#: near 1), and 1 < u <= 2, i.e. -1 <= r < 0
_TAIL_US = np.concatenate([np.logspace(-300, -1, 300), np.linspace(0.05, 1.0, 41),
                           [2.0 ** -7, 2.0 ** -7 * (1 + 2.0 ** -52), 2.0 ** -8],
                           np.linspace(0.7, 0.995, 60),
                           [1.0 + 2.0 ** -40, 1.001, 1.2, 1.5, 1.75, 1.9, 1.999999, 2.0]])


def _std_tail_oracle(mpmath, alpha, u):
    """The integral of (1 - s^2)^alpha over (1 - u, 1) for 0 <= u <= 2:
    0.5 B_x(a, 1/2) with a = alpha + 1 and x = u(2 - u), through its
    hypergeometric form x^a/a 2F1(a, 1/2; a + 1; x), and B(a, 1/2) less
    the tail at 2 - u for u > 1."""
    a1 = mpmath.mpf(alpha) + 1
    v = mpmath.mpf(u) if u <= 1 else 2 - mpmath.mpf(u)
    x = v * (2 - v)
    tail = x ** a1 / a1 * mpmath.hyp2f1(a1, 0.5, a1 + 1, x) / 2
    return tail if u <= 1 else mpmath.beta(a1, 0.5) - tail


@pytest.mark.parametrize("alpha, tol", [
    (-0.9, 1e-14), (-0.5, 1e-14), (0.0, 1e-14), (0.37, 1e-14), (1.0, 1e-14), (2.5, 1e-14),
    (50.5, 2e-14), (150.0, 3e-14), (1000.0, 1.5e-13)])
def test_std_tail_mpmath(alpha, tol):
    # the tail within tol wherever it is a normal float, its log within tol
    # of max(1, |ln tail|).  Above alpha = 50 special.StdTailCF's continued
    # fraction loses about alpha ulps next to its switch (scipy's betainc,
    # on u in [0, 1]: 4.6e-14, 8.1e-14 and 1.1e-12)
    mpmath = pytest.importorskip("mpmath")
    w = std_weight(alpha)
    tails, logs = w.tail_u(_TAIL_US), w.tail_u_log(np.log(_TAIL_US))
    with mpmath.workdps(40):
        for u, t, lt in zip(_TAIL_US.tolist(), tails.tolist(), logs.tolist()):
            want = _std_tail_oracle(mpmath, alpha, u)
            if want > 2.2250738585072014e-308:
                assert abs(t / want - 1) <= tol, u
            assert abs(lt - mpmath.log(want)) <= tol * max(1, abs(mpmath.log(want))), u


@pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.37, 1.0, 150.0])
def test_std_tail_float_equals_array(alpha):
    # a float, a 0-d array and an entry of an array get the same bits,
    # 0 at u = 0, the mirror for 1 < u <= 2 and NaN beyond included
    w = std_weight(alpha).scaled(1.7)
    us = np.concatenate([_TAIL_US, [0.0, 5e-324, 1e-310, 1.5, -0.5, math.nan]])
    lus = np.concatenate([np.log(_TAIL_US), [-np.inf, -1000.0, -745.0, 1e-300, 0.4, math.nan]])
    for f, xs in ((w.tail_u, us), (w.tail_u_log, lus)):
        got = f(xs)
        assert got.tobytes() == f(xs.reshape(2, -1)).ravel().tobytes()
        assert np.array([f(x) for x in xs.tolist()]).tobytes() == got.tobytes()
        assert np.array([f(np.array(x)) for x in xs]).tobytes() == got.tobytes()
    assert w.tail_u(0.0) == 0.0 and np.isnan(w.tail_u(2.5)) and np.isnan(w.tail_u(-0.5))
    assert w.tail_u(1.5) == pytest.approx(2.0 * w.total_mass - w.tail_u(0.5), rel=1e-15)


def test_logpow_tail_value(w_logpow2):
    # density ~ (1-r)^{-1} log(e/(1-r))^{-3} integrates to log(e/(1-r))^{-2}/2
    # up to normalization; at 1-r = e^{1-e} the unnormalized tail is 1/e
    from bergman.weights import logpow_weight
    w = logpow_weight(2.0)
    r = 1.0 - math.exp(1.0 - math.e)
    assert w.tail(r) == pytest.approx(1.0 / math.e, rel=1e-12)


def test_tail_numeric_matches_closed(w_std_m05):
    # the same density without its closed tail takes the endpoint integral
    numeric = derived_weight(w_std_m05.density_u)
    for r in (0.1, 0.7, 0.99, 1.0 - 2.0 ** -20):
        assert float(numeric.tail_u(1.0 - r)) == pytest.approx(
            w_std_m05.tail(r), rel=1e-10)


def test_tail_deep_endpoint_no_underflow(w_std_1):
    u = 2.0 ** -400
    t = w_std_1.tail_u(u)
    assert t > 0 and math.isfinite(math.log(t))


@given(st.floats(min_value=0.0, max_value=0.9999))
@settings(max_examples=50, deadline=None)
def test_tail_monotone_decreasing(r):
    w = std_weight(-0.5).normalized()
    assert w.tail(r) >= w.tail(min(r + 1e-4, 1.0)) - 1e-15


# --------------------------------------------------------------------------
# distortion and classification

def test_osc_distortion_value(w_osc):
    from bergman.weights import osc_weight
    assert distortion(osc_weight(), 0.99) == pytest.approx(
        0.021723145125553962, rel=1e-11)


def test_distortion_scale_invariant(w_std_m05):
    assert distortion(w_std_m05.scaled(17.0), 0.9) == pytest.approx(
        distortion(w_std_m05, 0.9), rel=1e-13)


def test_classify_verdicts(w_std_m05, w_osc, w_logpow2):
    assert classify(w_std_m05).verdict == "Regular"
    assert classify(w_osc).verdict == "Regular"
    assert classify(w_logpow2).verdict == "RapidlyIncreasing"


def test_regularity_exponents(w_const, w_std_1, w_logpow2):
    lo, hi = classify(w_const).exponents
    assert (lo, hi) == pytest.approx((1.0, 1.0), abs=1e-9)
    lo, hi = classify(w_std_1).exponents
    assert hi == pytest.approx(2.0, abs=1e-6)
    assert lo == pytest.approx(2.0, abs=0.05)
    assert classify(w_logpow2).exponents is None


def test_tail_exponent_standard():
    # tail of (1-r^2)^alpha behaves like (1-r)^(alpha+1)
    for alpha in (-0.5, 0.0, 1.0, 3.0):
        w = std_weight(alpha).normalized()
        assert tail_exponent(w) == pytest.approx(alpha + 1.0, abs=1e-6)


@pytest.mark.parametrize("spec", ["const(c=2)", "std(alpha=-0.5)", "std(alpha=1.5)*3",
                                  "pow(beta=0.7)", "logpow(beta=2)",
                                  "logprod(alpha=1.5,n=2)", "osc()"])
def test_tail_exponent_is_one_tail_call(spec, monkeypatch):
    # one array call on levels 38-41 gives the slopes of six scalar calls
    w = parse_weight(spec)
    slopes = [math.log(float(w.tail_u(2.0 ** -j)) / float(w.tail_u(2.0 ** -(j + 1))))
              / math.log(2.0) for j in (38, 39, 40)]
    calls = []
    tail_u = w.tail_u
    monkeypatch.setattr(w, "tail_u", lambda u: calls.append(u) or tail_u(u))
    assert tail_exponent(w) == float(np.mean(slopes))
    assert len(calls) == 1


# --------------------------------------------------------------------------
# integrability conditions

def test_muckenhoupt_std_value(w_std_m05):
    m = muckenhoupt(w_std_m05, 2)
    assert m.verdict == "finite"
    assert m.value == pytest.approx(1.9999991331920044, rel=1e-10)


def test_condition_99_std_value(w_std_m05):
    c = condition_99(w_std_m05, 2)
    assert c.verdict == "finite"
    assert c.value == pytest.approx(2.1531881786469427, rel=1e-9)


def test_muckenhoupt_threshold():
    # std(alpha) lies in M_p exactly for alpha < p - 2
    for p in (2.0, 3.0):
        assert muckenhoupt(std_weight(p - 2.25).normalized(), p).verdict == "finite"
        assert muckenhoupt(std_weight(p - 2.0).normalized(), p).divergent
        assert muckenhoupt(std_weight(p - 1.5).normalized(), p).divergent


def test_muckenhoupt_scale_invariant(w_std_m05):
    a = muckenhoupt(w_std_m05, 2).value
    b = muckenhoupt(w_std_m05.scaled(17.0), 2).value
    assert b == pytest.approx(a, rel=1e-12)


def test_muckenhoupt_requires_p_gt_1(w_const):
    with pytest.raises(DomainError):
        muckenhoupt(w_const, 1.0)


def test_u_p_weight_existence(w_const, w_std_m05):
    # const fails M_2, so u_2 has divergent mass; std(-0.5) is fine
    with pytest.raises(DivergentMassError):
        u_p_weight(w_const, 2)
    up = u_p_weight(w_std_m05, 2)
    assert classify(up).verdict == "Regular"


@pytest.mark.parametrize("beta,p", [(0.5, 3.0), (0.0, 2.5), (-0.5, 1.8)])
def test_tail_sweep_matches_closed_form(beta, p):
    # u_p of pow(beta) has density c u^(-s), s = (beta+2)/p, c = (beta+1)^(1/p),
    # so its tail is c u^(1-s)/(1-s); the grid is classify's plus the deep
    # levels of tail_exponent, with a 14-level gap between the two
    s, c = (beta + 2.0) / p, (beta + 1.0) ** (1.0 / p)
    us = 2.0 ** -np.concatenate((np.arange(25.0), np.arange(38.0, 42.0)))
    exact = c * us ** (1.0 - s) / (1.0 - s)
    plain = lambda: derived_weight(lambda u: c * u ** -s)   # no log-space density
    for make in (lambda: u_p_weight(pow_weight(beta), p), plain):
        swept = make().tail_u(us[::-1])[::-1]
        np.testing.assert_allclose(swept, exact, rtol=1e-13, atol=0)
        w = make()
        one_by_one = np.array([float(w.tail_u(u)) for u in us])
        np.testing.assert_allclose(swept, one_by_one, rtol=1e-13, atol=0)
        # scalar calls after a sweep read its values back from the cache
        w = make()
        swept = w.tail_u(us)
        assert [float(w.tail_u(u)) for u in us] == swept.tolist()


# --------------------------------------------------------------------------
# moments and Carleson masses

def test_moment_radial_std_beta_function():
    # integral of r^(2n+1)(1-r^2)^alpha dr = B(n+1, alpha+1)/2
    mpmath = pytest.importorskip("mpmath")
    w = std_weight(-0.5)
    assert w.moment(10) == pytest.approx(float(mpmath.beta(11, 0.5) / 2), rel=1e-12)
    assert w.moment(10) == pytest.approx(0.270260183572877, rel=1e-12)


#: n up to 2^20, across the Beta function's Stirling switch at n + 1 = 20
_MOMENT_NS = np.unique(np.concatenate([np.arange(40), np.geomspace(40, 2 ** 20, 60)
                                       .astype(int)]))


@pytest.mark.parametrize("make, alpha", [
    (std_weight, -0.5), (std_weight, 0.37), (std_weight, 1.0),
    (pow_weight, 0.0), (pow_weight, 0.5), (pow_weight, 1.37)])
def test_closed_moments_mpmath(make, alpha):
    # std: omega_n = B(n+1, alpha+1)/2; pow: B(2n+2, beta+1); both within
    # 1e-14 of mpmath, and a single moment has the bits of the table's
    mpmath = pytest.importorskip("mpmath")
    table = make(alpha).moments_upto(2 ** 20)
    with mpmath.workdps(40):
        for n in _MOMENT_NS.tolist():
            if make is std_weight:
                want = mpmath.beta(n + 1, mpmath.mpf(alpha) + 1) / 2
            else:
                want = mpmath.beta(2 * n + 2, mpmath.mpf(alpha) + 1)
            assert abs(table[n] / want - 1) <= 1e-14, n
    assert [make(alpha).moment(n) for n in _MOMENT_NS.tolist()] == table[_MOMENT_NS].tolist()


def test_moments_upto_reads_the_longest_table():
    # a shorter call reads the head of the longest closed-form table, a
    # longer one extends it; every value keeps the bits of a fresh weight's
    for make in (lambda: std_weight(0.37), lambda: std_weight(-0.5).scaled(2.5),
                 lambda: pow_weight(1.0).normalized()):
        w = make()
        w.moments_upto(4096)
        for n in (0, 7, 4096, 5000, 100):
            assert np.array_equal(w.moments_upto(n), make().moments_upto(n)), n
    w = std_weight(0.37)
    w.moments_upto(6000)
    v = w.scaled(3.0)
    v.moments_upto(6000)
    assert np.array_equal(v.moments_upto(10), std_weight(0.37).scaled(3.0).moments_upto(10))


def test_moment_monotone_decreasing(w_std_1):
    ms = [w_std_1.moment(n) for n in range(20)]
    assert all(a > b > 0 for a, b in zip(ms, ms[1:]))


def test_moment_plain_const(w_const):
    for x in (0.0, 1.0, 4.5):
        assert w_const.moment_plain(x) == pytest.approx(1.0 / (x + 1.0), rel=1e-12)


@pytest.mark.parametrize("spec", ["std(alpha=-0.5)", "logpow(beta=2)"])
def test_moments_reject_negative_order(spec):
    # with or without closed moments, a negative order is out of the domain
    w = parse_weight(spec)
    with pytest.raises(DomainError):
        w.moment(-1)
    with pytest.raises(DomainError):
        w.moment_plain(-0.5)


def test_carleson_mass_value():
    assert carleson_mass(std_weight(1.0), 0.9) == pytest.approx(
        0.00028727467228085285, rel=1e-11)


def test_carleson_mass_monotone(w_std_m05):
    ms = [carleson_mass(w_std_m05, a) for a in (0.0, 0.5, 0.9, 0.99)]
    assert all(a > b > 0 for a, b in zip(ms, ms[1:]))


def test_carleson_mass_total(w_const):
    # S(0) is the whole disc: mass = (1/pi) * integral of r dr = 1/(2 pi)
    assert carleson_mass(w_const, 0.0) == pytest.approx(
        1.0 / (2.0 * math.pi), rel=1e-12)


# --------------------------------------------------------------------------
# table weights

def test_table_weight_tail_piecewise():
    # constant samples extend to a globally constant density 2
    w = table_weight([0.0, 0.5, 0.9], [2.0, 2.0, 2.0])
    assert w.tail(0.25) == pytest.approx(1.5, rel=1e-12)
    assert w.tail(0.75) == pytest.approx(0.5, rel=1e-12)
