"""The numpy special functions against mpmath at 40 digits."""

import math

import numpy as np
import pytest

from bergman.special import _jacobi_rule, beta, hyp2f1_11, hyp2f1_11_int, lgamma_ratio

mpmath = pytest.importorskip("mpmath")

#: a across the Stirling switch at min(a, a + b) = 20, up to 2^21
_A = np.concatenate([np.linspace(0.6, 30.0, 150), np.geomspace(30.0, 2.0 ** 21, 60)])


@pytest.mark.parametrize("b", [-0.5, 0.37, 1.37, 2.0])
def test_lgamma_ratio_mpmath(b):
    got = lgamma_ratio(_A, b)
    with mpmath.workdps(40):
        for a, g in zip(_A.tolist(), got.tolist()):
            want = mpmath.loggamma(mpmath.mpf(a) + b) - mpmath.loggamma(a)
            assert abs(g - want) <= 1e-14, a


@pytest.mark.parametrize("y", [0.5, 1.0, 1.37, 2.0, 3.0, 5.5])
def test_beta_mpmath(y):
    # each y crosses the asymptotic series' threshold of _ratio_series
    # (1 to 29), and 5.5 the Stirling difference between 20 and 29
    got = beta(_A, y)
    with mpmath.workdps(40):
        for x, g in zip(_A.tolist(), got.tolist()):
            assert abs(g / mpmath.beta(x, y) - 1) <= 1e-14, x


def test_float_paths_give_the_array_bits():
    # a float argument runs the arithmetic of its array entry: the
    # logarithms, exponentials and powers come from the same numpy ufuncs
    for b in (-0.5, 1.37, 4.5):
        got = lgamma_ratio(_A, b)
        assert [lgamma_ratio(a, b) for a in _A.tolist()] == got.tolist()
        got = beta(_A, b + 1.0)
        assert [beta(a, b + 1.0) for a in _A.tolist()] == got.tolist()


@pytest.mark.parametrize("c", [1.2, 1.5, 2.37, 3.0, 0.5, -0.5, -1.37])
def test_hyp2f1_11_mpmath(c):
    # c = 1 - alpha of the non-integer kernel: in (0, 1) for 0 < alpha < 1,
    # negative above, where the terms change sign
    ys = np.concatenate([[0.0], np.logspace(-300, math.log10(0.5), 149),
                         np.linspace(0.01, 0.5, 50)])
    got = hyp2f1_11(c, ys.reshape(4, -1)).ravel()
    with mpmath.workdps(40):
        for y, g in zip(ys.tolist(), got.tolist()):
            assert abs(g / mpmath.hyp2f1(1, 1, c, y) - 1) <= 1e-14, y


@pytest.mark.parametrize("m", [1, 2, 3])
def test_hyp2f1_11_int_mpmath(m):
    # x = 1 - omx from just above 1/2 up to 1 - 1e-6, and x = 1 exactly
    omx = np.concatenate([np.linspace(0.499, 0.01, 50), np.logspace(-2, -6, 40)])
    got = hyp2f1_11_int(m, omx)
    with mpmath.workdps(40):
        for o, g in zip(omx.tolist(), got.tolist()):
            want = mpmath.hyp2f1(1, 1, m + 2, 1 - mpmath.mpf(o))
            assert abs(g / want - 1) <= 1e-14, o
    assert hyp2f1_11_int(m, np.array([0.0]))[0] == (m + 1.0) / m


def test_std_tail_rule_is_built_once_per_alpha():
    half_t, w = _jacobi_rule(0.37)
    assert _jacobi_rule(0.37)[0] is half_t and not half_t.flags.writeable
    # the 16 weights integrate t^alpha: their sum is 1/(alpha + 1)
    assert math.fsum(w.ravel()) == pytest.approx(1.0 / 1.37, rel=1e-15)
