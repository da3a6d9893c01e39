"""Geometric-panel quadrature against closed forms."""

import math
import time

import numpy as np
import pytest

from bergman import quadrature
from bergman.analytic import weighted_radial_integral
from bergman.errors import QuadratureDivergence
from bergman.operators import lp_hat_norm
from bergman.quadrature import (_WEIGHTS, adaptive_panel, gauss_panel, gauss_panels,
                                geometric_u_grid, integrate_geometric,
                                integrate_geometric_vec)
from bergman.weights import (carleson_mass, logpow_weight, muckenhoupt, osc_weight,
                             pow_weight, std_weight, u_p_weight)


@pytest.mark.parametrize("s", [-0.5, 0.0, 3.0])
def test_integrate_geometric_powers(s):
    f = lambda u: u ** s
    assert integrate_geometric(f, 0.0, 1.0) == pytest.approx(1.0 / (s + 1.0), rel=1e-12)
    # u_lo > 0: the loop ends on the clipped panel at the lower limit
    closed = (1.0 - 1e-3 ** (s + 1.0)) / (s + 1.0)
    assert integrate_geometric(f, 1e-3, 1.0) == pytest.approx(closed, rel=1e-12)


def test_integrate_geometric_divergence_exponent():
    with pytest.raises(QuadratureDivergence) as info:
        integrate_geometric(lambda u: u ** -1.5, 0.0, 1.0)
    assert info.value.exponent == pytest.approx(1.5, abs=1e-9)


_REL = quadrature._REL_TOL
_CHUNK = quadrature._LEVELS_PER_CHUNK


def _panel_by_panel(f, u_lo, u_hi, adaptive=False):
    """(value, levels) of the geometric loop with one call of f per panel."""
    panel = adaptive_panel if adaptive else gauss_panel
    stable = quadrature._stable_ratio
    total, hi, contribs = 0.0, u_hi, []
    for level in range(quadrature._MAX_LEVELS):
        lo = u_hi * 0.5 ** (level + 1)
        if lo <= u_lo:
            return total + panel(f, max(u_lo, lo), hi), level + 1
        c = panel(f, lo, hi)
        total += c
        contribs.append(c)
        hi = lo
        small = _REL * abs(total)
        if len(contribs) >= 2 and abs(total) > 0 and abs(contribs[-1]) < small \
                and abs(contribs[-2]) < small:
            ratio = stable(contribs)
            if ratio is not None and 0 < ratio < 1:
                total += contribs[-1] * ratio / (1.0 - ratio)
            return total, level + 1
        if u_lo <= 0.0 and level >= 24:
            ratio = stable(contribs)
            if ratio is not None:
                if ratio >= 1.0 - 1e-12:
                    raise QuadratureDivergence("reference", exponent=1.0 + np.log2(ratio))
                return total + contribs[-1] * ratio / (1.0 - ratio), level + 1
    if not any(contribs):
        return 0.0, quadrature._MAX_LEVELS
    raise QuadratureDivergence("reference")


_REFERENCE_CASES = {
    **{"u^%g" % s: (lambda u, s=s: u ** s, 0.0, 1.0) for s in (-0.5, 0.0, 0.7, 3.0, 12.0)},
    "u^0.3 below 0.6": (lambda u: u ** 0.3, 0.0, 0.6),
    "lo inside chunk 0": (lambda u: u ** -0.5, 1e-3, 1.0),
    "lo inside chunk 1": (lambda u: u ** -0.5, 2.0 ** -(_CHUNK + 3.5), 1.0),
    "lo on a chunk edge": (lambda u: u ** 2.0, 2.0 ** -_CHUNK, 1.0),
    "lo one past an edge": (lambda u: u ** 2.0, 2.0 ** -(2 * _CHUNK + 1), 1.0),
    "growing to lo": (lambda u: u ** -1.5, 1e-30, 1.0),
    "zero to lo": (np.zeros_like, 1e-3, 1.0),
    # never small against a total of 0: all-zero panels up to the cap give 0
    "zero to the cap": (np.zeros_like, 0.0, 1.0),
    "log decay to the cap": (lambda u: 1.0 / (u * (1.0 - np.log(u)) ** 2), 0.0, 1.0),
    "exp tail": (lambda u: np.exp(-1.0 / u) / u ** 2, 0.0, 0.5),
}


@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
def test_integrate_geometric_matches_panel_loop(case):
    f, u_lo, u_hi = _REFERENCE_CASES[case]
    try:
        expected, levels = _panel_by_panel(f, u_lo, u_hi)
    except QuadratureDivergence as ref:
        # both loops raise at the level cap, neither with an exponent
        with pytest.raises(QuadratureDivergence) as mine:
            integrate_geometric(f, u_lo, u_hi)
        assert mine.value.exponent is ref.exponent is None
        return
    calls = []

    def counted(u):
        calls.append(len(u))
        return f(u)

    assert integrate_geometric(counted, u_lo, u_hi) == expected
    # one integrand call per chunk, at most one chunk past the last level
    assert len(calls) <= math.ceil(levels / _CHUNK)
    assert sum(calls) <= 16 * _CHUNK * math.ceil(levels / _CHUNK)


def test_integrate_geometric_log_decay_reaches_the_level_cap():
    # an integral of 1/(u (1 - log u)^2) over (0, 1] equals 1 exactly, but
    # its panel contributions decay like 1/j^2, so 400 levels leave about
    # 1/400 of it: an error at the cap, not a guessed geometric tail
    f = _REFERENCE_CASES["log decay to the cap"][0]
    with pytest.raises(QuadratureDivergence, match="after 400 geometric levels") as info:
        integrate_geometric(f, 0.0, 1.0)
    assert info.value.exponent is None


# 1/(u (1 - log u)^s) over (0, 1] is 1/(s - 1) for s > 1 and diverges for
# s <= 1; both cases below decay too slowly for the ratio tests, and no
# geometric tail at the cap tells them apart
_LOG_CAP_CASES = {"divergent (s = 1)": 1.0, "10000 (s = 1.0001)": 1.0001}


@pytest.mark.parametrize("case", sorted(_LOG_CAP_CASES))
def test_integrate_geometric_raises_at_the_level_cap(case):
    s = _LOG_CAP_CASES[case]
    f = lambda u: 1.0 / (u * (1.0 - np.log(u)) ** s)
    with pytest.raises(QuadratureDivergence) as info:
        integrate_geometric(f, 0.0, 1.0)
    assert info.value.exponent is None
    # the same integrand as |phi|^p tail against std(alpha=0), tail(u) = u
    w = std_weight(0.0)
    assert w.tail_u(np.array([0.5, 1e-9])) == pytest.approx([0.5, 1e-9], rel=1e-14)
    norm = lp_hat_norm(lambda u: f(u) / u, 1.0, w)
    assert norm.verdict == "undetermined" and "400" in norm.diagnostics["reason"]


def test_integrate_geometric_raises_as_the_panel_loop():
    f = lambda u: u ** -1.5
    with pytest.raises(QuadratureDivergence) as ref:
        _panel_by_panel(f, 0.0, 1.0)
    with pytest.raises(QuadratureDivergence) as mine:
        integrate_geometric(f, 0.0, 1.0)
    assert mine.value.exponent == ref.value.exponent


@pytest.mark.parametrize("u_lo", [0.0, 1e-5])
def test_integrate_geometric_adaptive_matches_panel_loop(u_lo):
    # the osc tail oscillates below the panel scale; adaptive panels bisect
    # one by one, so the chunked loop and the reference agree bit for bit
    tail = osc_weight().tail_u
    assert integrate_geometric(tail, u_lo, 1.0, adaptive=True) == \
        _panel_by_panel(tail, u_lo, 1.0, adaptive=True)[0]


@pytest.mark.parametrize("call", [lambda: carleson_mass(osc_weight(), 0.9),
                                  lambda: u_p_weight(osc_weight(), 2.0),
                                  lambda: osc_weight().moment_plain(0.5)],
                         ids=["carleson-mass", "u-p-weight", "moment-plain"])
def test_unresolved_adaptive_panels_raise_within_seconds(call):
    # each of these bisected the oscillating osc density for minutes; the
    # sub-panel budget of one adaptive_panel call turns that into an error
    t0 = time.monotonic()
    with pytest.raises(QuadratureDivergence, match="sub-panels") as err:
        call()
    assert err.value.exponent is None
    assert time.monotonic() - t0 < 20.0


def test_integrate_geometric_vec_columns():
    ks = np.arange(6, dtype=float)
    vals = integrate_geometric_vec(lambda u: (1.0 - u)[:, None] ** ks, 1.0)
    np.testing.assert_allclose(vals, 1.0 / (ks + 1.0), rtol=1e-11)


def test_integrate_geometric_vec_raises_at_the_level_cap():
    # 20 exactly; 200 levels leave 2^(-200 * 0.05) of it, far above the
    # stopping tolerance, where the scalar loop extrapolates the tail
    f = lambda u: u ** -0.95
    assert integrate_geometric(f, 0.0, 1.0) == pytest.approx(20.0, rel=1e-14)
    with pytest.raises(QuadratureDivergence):
        integrate_geometric_vec(lambda u: f(u)[:, None] * np.ones(2), 1.0)


def test_gauss_panels_dyadic_and_edge_forms():
    nodes, halves = gauss_panels(1.0, np.arange(10), 0.3)
    # levels below u_lo are dropped; the last kept panel is clipped at u_lo
    np.testing.assert_array_equal(halves, [0.25, 0.1])
    edge_nodes, edge_halves = gauss_panels([1.0, 0.5, 0.3])
    np.testing.assert_array_equal(nodes, edge_nodes)
    np.testing.assert_array_equal(halves, edge_halves)
    # degree <= 31 polynomials integrate exactly panel by panel
    panels = halves * np.sum(_WEIGHTS * nodes ** 7, axis=1)
    np.testing.assert_allclose(panels, [(1.0 - 0.5 ** 8) / 8, (0.5 ** 8 - 0.3 ** 8) / 8],
                               rtol=1e-14)


@pytest.mark.parametrize("beta,p", [(0.3, 3.0), (-0.5, 2.0), (0.0, 4.0)])
def test_muckenhoupt_pow_weight_closed_form(beta, p):
    # tail of (1-r)^beta is u^b1 / b1; both factors of the constant are
    # elementary, and the sup is taken over the same grid
    b1 = beta + 1.0
    q = 1.0 / (p - 1.0)
    us = geometric_u_grid(40, 4)
    a = b1 ** q * us ** (1.0 - q * b1) / (1.0 - q * b1)
    b = (1.0 - us ** (b1 - p + 1.0)) / (b1 * (b1 - p + 1.0))
    expected = np.max(a ** (1.0 - 1.0 / p) * b ** (1.0 / p))
    m = muckenhoupt(pow_weight(beta), p)
    assert m.verdict == "finite"
    assert m.value == pytest.approx(expected, rel=1e-12)


def _profile(u):
    # flat to 1e-9 only for u below about 1e-9
    return 1.0 + (1.0 - u) ** 2 * u


def test_weighted_radial_integral_weights_match_single_calls():
    # the weights stop in different chunks, and the deepest by the flat rule
    ws = [std_weight(1.0), logpow_weight(2.0), std_weight(3.0)]
    singles = [weighted_radial_integral(_profile, w) for w in ws]
    assert [(d["levels"], d["stop"]) for _, d in singles] == [
        (21, "decay"), (35, "flat"), (12, "decay")]
    vals, diag = weighted_radial_integral(_profile, ws)
    assert list(vals) == [v for v, _ in singles]
    assert (diag["levels"], diag["stop"]) == (35, "flat")
    assert diag["per_weight"] == [d["per_weight"][0] for _, d in singles]

    # one profile per weight, with a column that never stops
    def per_weight(u):
        return np.array([_profile(u), u ** 0.5, np.zeros_like(u)])

    ws = [logpow_weight(2.0), std_weight(1.0), std_weight(1.0)]
    vals, diag = weighted_radial_integral(per_weight, ws, include_r=True)
    expected = [weighted_radial_integral(g, w, include_r=True)
                for g, w in [(_profile, ws[0]), (lambda u: u ** 0.5, ws[1]),
                             (np.zeros_like, ws[2])]]
    assert list(vals) == [v for v, _ in expected]
    assert [d["stop"] for _, d in expected] == ["flat", "decay", "max-level"]
    assert (diag["levels"], diag["stop"]) == (220, "max-level")


def test_weighted_radial_integral_factors_per_weight_match_single_calls():
    # one gamma and one factor r per weight, each with its own stop rule:
    # flat only where gamma = 0
    ws = [logpow_weight(2.0), logpow_weight(2.0), std_weight(1.0)]
    gammas, with_r = [0.0, 0.5, 0.0], [True, False, False]
    vals, diag = weighted_radial_integral(_profile, ws, gamma=gammas, include_r=with_r)
    singles = [weighted_radial_integral(_profile, w, gamma=g, include_r=r)
               for w, g, r in zip(ws, gammas, with_r)]
    assert list(vals) == [v for v, _ in singles]
    assert diag["per_weight"] == [d["per_weight"][0] for _, d in singles]
    assert [d["stop"] for d in diag["per_weight"]] == ["flat", "decay", "decay"]


def test_weighted_radial_integral_one_density_per_weight_and_chunk(monkeypatch):
    # columns that repeat one weight object share its density once per
    # chunk while any of them runs, and keep the values of single calls
    a, b = std_weight(1.0), logpow_weight(2.0)
    ws, gammas = [a, b, a, b, a], [0.0, 0.0, 0.5, 0.5, 1.0]
    singles = [weighted_radial_integral(_profile, w, gamma=g) for w, g in zip(ws, gammas)]
    density, calls = type(a).density_u, []

    def counted(self, u):
        calls.append(self)
        return density(self, u)

    monkeypatch.setattr(type(a), "density_u", counted)
    vals, diag = weighted_radial_integral(_profile, ws, gamma=gammas)
    assert list(vals) == [v for v, _ in singles]
    levels = [d["levels"] for d in diag["per_weight"]]
    for w in (a, b):
        deepest = max(n for v, n in zip(ws, levels) if v is w)
        assert sum(c is w for c in calls) == math.ceil(deepest / 8)
    assert len({(n - 1) // 8 for n in levels}) > 2      # repeats stop in different chunks


def test_weighted_radial_integral_gamma_against_closed_form():
    # integral of (1-r)^gamma (1-r)^beta over (0, 1) = 1/(gamma + beta + 1)
    val, diag = weighted_radial_integral(np.ones_like, pow_weight(0.5), gamma=1.0)
    assert diag["stop"] == "decay"
    assert val == pytest.approx(1.0 / 2.5, rel=1e-10)
