"""Quadrature for radial integrals with endpoint singularities at r = 1.

Every integrand in this library lives on [0, 1) and is well behaved away
from the right endpoint, where power/log type singularities (or just very
sharp decay of the weight tail) concentrate all the action on the scale of
1 - r.  We therefore always integrate in the variable

    u = 1 - r,

splitting the domain into the geometric panels [u0/2^{j+1}, u0/2^j].  On
each panel the integrand is a mild perturbation of a pure power u^s, which
a fixed-order Gauss rule resolves to near machine precision; an adaptive
bisection fallback handles the few genuinely rough panels (oscillatory
densities).  Working in u keeps full relative precision arbitrarily close
to the endpoint: u = 2^{-400} is a perfectly good double even though
1 - 2^{-400} rounds to 1.

For improper integrals toward u = 0 the panel contributions of a power-law
integrand form an exact geometric sequence, so the loop stops once the
contribution ratio stabilizes and closes the remaining tail with the
geometric sum.  A ratio that refuses to drop below 1 is reported as
divergence together with the implied local exponent.  An integrand that
is exactly 0 on every panel up to the level cap integrates to 0; any other
integrand that reaches the cap raises, without an exponent.

:func:`gauss_panels` is the one panel table: nodes and half-widths of a
batch of dyadic levels or of the panels between descending edges.  Its
users evaluate the integrand once on the flattened nodes and reduce per
panel: :func:`integrate_geometric` (chunks of ``_LEVELS_PER_CHUNK``
levels; ``np.ldexp`` edges equal ``u_hi * 0.5**k`` and a row of 16 terms
sums in the pairwise order of a 1-D sum, so its values are those of a
per-panel loop), :func:`integrate_geometric_vec`, ``weighted_radial_integral``
(chunks of 8 levels, on the ``analytic.circle_profile`` rows of its one
caller ``analytic.radial_norms``, which serves ``bergman_norm``,
``mixed_norm``, ``bergman norms`` and every radial norm of the TH-DEC,
COR-HILB and INEQ-MINFTY scenarios), ``hilbert_norm2_profile``
(60 levels per span, one kernel table on the union of a batch of spans'
nodes) and ``weights._sup_grid_factors`` (panels between the sup-grid
points, then one cumulative sum per factor), the one reader for both
``muckenhoupt`` and ``condition_99``, whose integral is the first factor
at r = 0.
:func:`adaptive_panel` bisects one panel at a time; it serves the
``adaptive`` panels of :func:`integrate_geometric` and
``weights._integrate_endpoint``, whose panels grow geometrically in
t = 1 - log(u/u0).
"""

import math

import numpy as np

from .errors import QuadratureDivergence

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)

#: levels after which a stable contribution ratio is trusted for
#: geometric extrapolation of the remaining tail
_MIN_LEVELS_BEFORE_EXTRAPOLATION = 24

#: stopping tolerance and level caps of the scalar / vector geometric loops
_REL_TOL, _MAX_LEVELS, _VEC_MAX_LEVELS = 1e-12, 400, 200

#: dyadic levels per integrand call in integrate_geometric
_LEVELS_PER_CHUNK = 32

#: agreement with the bisected estimate, depth cap, and the sub-panels one
#: call may evaluate (osc weight quantities take up to ~5000) in adaptive_panel
_PANEL_TOL, _MAX_DEPTH, _MAX_SUBPANELS = 1e-13, 30, 2 ** 14


def gauss_panel(f, a, b):
    """Fixed 16-node Gauss-Legendre estimate of ``integral of f on [a, b]``."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid + half * _NODES
    return half * float(np.sum(_WEIGHTS * f(x)))


def gauss_panels(u_hi, levels=None, u_lo=0.0):
    """Nodes (panels x 16) and half-widths of a batch of Gauss panels.

    With integer ``levels``, panel j spans [max(u_hi 2^-(j+1), u_lo),
    u_hi 2^-j] (edges exact by ``np.ldexp``), and levels at or below
    ``u_lo`` are left out; otherwise ``u_hi`` holds descending edges e and
    panel i spans [e[i+1], e[i]].  Panel i integrates to
    ``halves[i] * sum(_WEIGHTS * f(nodes[i]))``.
    """
    if levels is None:
        edges = np.asarray(u_hi, dtype=float)
        his, los = edges[:-1], edges[1:]
    else:
        levels = np.asarray(levels)
        his = np.ldexp(float(u_hi), -levels)
        keep = his > u_lo
        his = his[keep]
        los = np.maximum(np.ldexp(float(u_hi), -(levels[keep] + 1)), u_lo)
    mids = 0.5 * (his + los)
    halves = 0.5 * (his - los)
    return mids[:, None] + halves[:, None] * _NODES, halves


def adaptive_panel(f, a, b):
    """Bisection-adaptive Gauss quadrature on a single finite panel.

    Only needed for integrands with structure below the panel scale
    (e.g. trigonometric oscillation of the `osc` weight family); for the
    power-law panels of the geometric scheme the first estimate already
    agrees with its refinement and no recursion happens.  Past
    ``_MAX_SUBPANELS`` sub-panels it raises :class:`QuadratureDivergence`
    (no exponent) rather than bisect an unresolved integrand for minutes.
    """
    whole = gauss_panel(f, a, b)
    stack = [(a, b, whole, 0)]
    total, evaluated = 0.0, 0
    while stack:
        lo, hi, est, depth = stack.pop()
        evaluated += 2
        if evaluated > _MAX_SUBPANELS:
            raise QuadratureDivergence("adaptive panel [%g, %g] unresolved after %d sub-panels"
                                       % (a, b, _MAX_SUBPANELS))
        mid = 0.5 * (lo + hi)
        left = gauss_panel(f, lo, mid)
        right = gauss_panel(f, mid, hi)
        refined = left + right
        # the absolute floor keeps subnormal-magnitude panels (pure rounding
        # noise, relative error O(1)) from being subdivided to _MAX_DEPTH;
        # non-finite estimates cannot improve under bisection either
        if depth >= _MAX_DEPTH or not math.isfinite(refined - est) \
                or abs(refined - est) <= max(_PANEL_TOL * abs(refined), 1e-290):
            total += refined
        else:
            stack.append((lo, mid, left, depth + 1))
            stack.append((mid, hi, right, depth + 1))
    return total


def integrate_geometric(f, u_lo, u_hi, adaptive=False):
    """Integrate f(u) du over (u_lo, u_hi] with geometric panels toward 0.

    Panel j spans [u_hi 2^-(j+1), u_hi 2^-j], the last one clipped at
    ``u_lo``.  ``f`` is called once per chunk of ``_LEVELS_PER_CHUNK``
    levels on the flattened nodes (``adaptive`` bisects each panel on its
    own, for the `osc` densities); the stop, extrapolation and divergence
    decisions of the module docstring are then taken level by level.  So
    the value is that of a loop calling ``f`` per panel, bit for bit, and
    ``f`` sees at most one chunk past the last level used.  Raises
    :class:`QuadratureDivergence` when the contributions fail to decay (with
    the local exponent) or are still not negligible at the level cap
    (without one).
    """
    if u_hi <= u_lo:
        return 0.0

    total = 0.0
    contribs = []
    for level, c in _panel_contributions(f, u_lo, u_hi, adaptive):
        total += c
        if u_hi * 0.5 ** (level + 1) <= u_lo:
            return total                        # the last panel, clipped at u_lo
        contribs.append(c)

        if len(contribs) >= 2 and abs(total) > 0:
            if abs(contribs[-1]) < _REL_TOL * abs(total) and abs(contribs[-2]) < _REL_TOL * abs(total):
                # tail closed geometrically (harmless if already negligible)
                ratio = _stable_ratio(contribs)
                if ratio is not None and 0 < ratio < 1:
                    total += contribs[-1] * ratio / (1.0 - ratio)
                return total

        # ratio-based extrapolation / divergence detection only applies to
        # improper integrals; with u_lo > 0 growing contributions are simply
        # integrated until the lower limit is reached
        if u_lo <= 0.0 and level >= _MIN_LEVELS_BEFORE_EXTRAPOLATION:
            ratio = _stable_ratio(contribs)
            if ratio is not None:
                if ratio >= 1.0 - 1e-12:
                    raise QuadratureDivergence(
                        "panel contributions do not decay (local exponent ~ %.4f)"
                        % (1.0 + np.log2(ratio)),
                        exponent=1.0 + np.log2(ratio))
                total += contribs[-1] * ratio / (1.0 - ratio)
                return total

    # Ran out of levels: an integrand that was exactly 0 on every panel
    # integrates to 0.  Anything else is unresolved (slow log-type decay or
    # divergence look alike here), so no tail is guessed.
    if not any(contribs):
        return 0.0
    raise QuadratureDivergence("no convergence after %d geometric levels" % _MAX_LEVELS)


def _panel_contributions(f, u_lo, u_hi, adaptive):
    """(level, contribution) of each dyadic panel below u_hi, the last one
    clipped at u_lo.

    Fixed panels take one call of ``f`` per chunk of levels, and each row
    of 16 terms the 1-D pairwise sum that ``gauss_panel`` takes; adaptive
    panels are bisected one at a time, as the caller asks for them.
    """
    for chunk in range(0, _MAX_LEVELS, _LEVELS_PER_CHUNK):
        levels = np.arange(chunk, min(chunk + _LEVELS_PER_CHUNK, _MAX_LEVELS))
        if adaptive:
            his = np.ldexp(float(u_hi), -levels).tolist()
            los = np.maximum(np.ldexp(float(u_hi), -(levels + 1)), u_lo).tolist()
            sums = (adaptive_panel(f, lo, hi) for lo, hi in zip(los, his))
        else:
            nodes, halves = gauss_panels(u_hi, levels, u_lo)
            vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
            sums = (halves * np.sum(_WEIGHTS * vals, axis=1)).tolist()
        yield from zip(levels.tolist(), sums)


def _stable_ratio(contribs):
    """Common ratio of the last few panel contributions, if they agree."""
    window, agree = 4, 1e-8
    if len(contribs) < window + 1:
        return None
    tail = contribs[-(window + 1):]
    if any(c == 0 for c in tail[:-1]):
        return None
    ratios = [tail[i + 1] / tail[i] for i in range(window)]
    if any(r <= 0 for r in ratios):
        return None
    lo, hi = min(ratios), max(ratios)
    if hi - lo <= agree * max(hi, 1e-300):
        return ratios[-1]
    return None


def integrate_geometric_vec(f, u_hi):
    """Vector-valued version of :func:`integrate_geometric` over (0, u_hi].

    ``f(u_nodes)`` must return an array of shape ``(len(u_nodes), dim)``.
    Convergence is judged on the max-norm of the panel contribution, so all
    components stop together (they share the quadrature nodes).  No
    ratio-based divergence detection: callers use it for manifestly
    convergent moment integrals.  Raises :class:`QuadratureDivergence` when
    the contributions are still not negligible at the level cap.
    """
    total = None
    prev_small = False
    for level in range(_VEC_MAX_LEVELS):
        nodes, halves = gauss_panels(u_hi, [level])
        c = halves[0] * (_WEIGHTS[:, None] * f(nodes[0])).sum(axis=0)
        total = c if total is None else total + c
        scale = float(np.max(np.abs(total))) + 1e-300
        small = float(np.max(np.abs(c))) < _REL_TOL * scale
        if small and prev_small:
            return total
        prev_small = small
    raise QuadratureDivergence("no convergence after %d geometric levels" % _VEC_MAX_LEVELS)


def geometric_u_grid(j_max, per_level):
    """Diagnostic grid u_i = 2^{-(j + i/per_level)}, descending from 1.

    Covers r = 1 - u from 0 up to 1 - 2^{-j_max} with ``per_level`` points
    in every dyadic level, the resolution at which all weight conditions in
    this library vary.
    """
    exps = np.arange(0, j_max * per_level + 1) / per_level
    return 2.0 ** (-exps)
