"""Geometric-panel quadrature against closed forms."""

import numpy as np
import pytest

from bergman.analytic import weighted_radial_integral
from bergman.errors import QuadratureDivergence
from bergman.quadrature import (_WEIGHTS, gauss_panels, geometric_u_grid,
                                integrate_geometric, integrate_geometric_vec)
from bergman.weights import logpow_weight, muckenhoupt, pow_weight, std_weight


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


def test_integrate_geometric_vec_columns():
    ks = np.arange(6, dtype=float)
    vals = integrate_geometric_vec(lambda u: (1.0 - u)[:, None] ** ks, 1.0)
    np.testing.assert_allclose(vals, 1.0 / (ks + 1.0), rtol=1e-11)


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
    assert diag == {"levels": 35, "stop": "flat"}

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
    assert diag == {"levels": 220, "stop": "max-level"}


def test_weighted_radial_integral_gamma_against_closed_form():
    # integral of (1-r)^gamma (1-r)^beta over (0, 1) = 1/(gamma + beta + 1)
    val, diag = weighted_radial_integral(np.ones_like, pow_weight(0.5), gamma=1.0)
    assert diag["stop"] == "decay"
    assert val == pytest.approx(1.0 / 2.5, rel=1e-10)
