"""Circle means, area norms, and coefficient functionals."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergman.analytic import (AnalyticFunction, _circle_moduli,
                              _scaled_coefficients, bergman_norm,
                              binomial_kernel, circle_profile, dirichlet_norm,
                              hardy_mean, hardy_means_u, lambda_norm,
                              log_kernel, m_infinity_u, mixed_norm,
                              mixed_norm_sup,
                              modulus_of_continuity, parse_function_spec,
                              partial_sum, radial_norms, random_function,
                              weighted_radial_integral)
from bergman.decomposition import block_hardy_norms, partition
from bergman.errors import DomainError
from bergman.operators import apply_classical
from bergman.quadrature import _NODES
from bergman.weights import const_weight, std_weight

# round to avoid coefficients so tiny that |f|^p underflows to zero
coeff_lists = st.lists(st.floats(min_value=-2.0, max_value=2.0)
                       .map(lambda x: round(x, 3)),
                       min_size=1, max_size=12)


# --------------------------------------------------------------------------
# circle means

def test_hardy_mean_one_plus_z():
    # M_4(1, 1+z)^4 = (1/2pi) integral of (2 + 2cos t)^2 dt = 6
    f = AnalyticFunction([1.0, 1.0])
    assert hardy_mean(f, 4, 1.0) == pytest.approx(6.0 ** 0.25, rel=1e-12)


def test_hardy_mean_monomial_power():
    # M_p(r, z^m) = r^m for every p
    f = AnalyticFunction([0, 0, 0, 1.0])
    for p in (1.0, 1.5, 2.0, 7.0):
        assert hardy_mean(f, p, 0.8) == pytest.approx(0.8 ** 3, rel=1e-11)


@given(coeff_lists, st.floats(min_value=0.05, max_value=0.99))
@settings(max_examples=40, deadline=None)
def test_hardy_mean_parseval(coeffs, r):
    f = AnalyticFunction(coeffs)
    expect = math.sqrt(sum(abs(a) ** 2 * r ** (2 * n)
                           for n, a in enumerate(coeffs)))
    assert hardy_mean(f, 2, r) == pytest.approx(expect, rel=1e-9, abs=1e-12)


@given(coeff_lists)
@settings(max_examples=30, deadline=None)
def test_means_monotone_in_p_and_r(coeffs):
    f = AnalyticFunction(coeffs)
    m_a = hardy_mean(f, 1.5, 0.5)
    m_b = hardy_mean(f, 3.0, 0.5)
    assert m_a <= m_b * (1.0 + 1e-9)
    assert hardy_mean(f, 2, 0.3) <= hardy_mean(f, 2, 0.8) * (1.0 + 1e-9)


def test_m_infinity_positive_coeffs():
    # nonnegative coefficients peak on the positive axis
    f = AnalyticFunction([1.0, 2.0, 0.5])
    vals, diag = m_infinity_u(f, [0.1])
    assert float(vals[0]) == pytest.approx(f(0.9).real, rel=1e-9)
    # the shortcut samples nothing, and says so as every sampled path does
    assert diag == {"method": "nonneg-exact", "capped": False}


# sign-changing real coefficients; zeros at moduli 0.783 (pair) and 2.17
_SIGNED = [1.0, -2.0, 0.5, 0.75]


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("r", [0.5, 0.9, 1.0])
def test_hardy_mean_mpmath_quadrature(p, r):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        def integrand(t):
            z = r * mpmath.expj(t)
            return abs(mpmath.polyval(_SIGNED[::-1], z)) ** p
        nodes = mpmath.linspace(0, 2 * mpmath.pi, 9)
        expect = float((mpmath.quad(integrand, nodes) / (2 * mpmath.pi))
                       ** (1 / mpmath.mpf(p)))
    got = hardy_mean(AnalyticFunction(_SIGNED), p, r, rel_tol=1e-13)
    assert got == pytest.approx(expect, rel=1e-13)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hardy_means_real_and_complex_paths_agree(seed):
    # e^{i phi} f has complex coefficients and the same moduli at the same
    # nodes as the real f, so the node sequence and the means coincide
    c = np.random.default_rng(seed).standard_normal(40)
    us = np.array([0.5, 0.2, 0.05])
    for p in (1.5, 3.0):
        real, d_real = hardy_means_u(AnalyticFunction(c), p, us)
        cplx, d_cplx = hardy_means_u(AnalyticFunction(c * np.exp(0.7j)), p, us)
        assert d_cplx["nodes"] == d_real["nodes"]
        assert np.allclose(cplx, real, rtol=1e-12, atol=0)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_hardy_means_rotation_invariant(p):
    # f(e^{i psi} z) samples |f| at rotated nodes: the converged means agree
    c = np.array(_SIGNED)
    rotated = c * np.exp(1.3j * np.arange(len(c)))
    us = np.array([0.5, 0.1, 0.0])
    real, _ = hardy_means_u(AnalyticFunction(c), p, us, rel_tol=1e-12)
    cplx, _ = hardy_means_u(AnalyticFunction(rotated), p, us, rel_tol=1e-12)
    assert np.allclose(cplx, real, rtol=1e-12, atol=0)


def test_hardy_mean_high_monomials():
    # M_p(r, z^n) = r^n, also when z^n has a complex coefficient
    for n in (200, 1000, 5000):
        for scale in (1.0, 1j):
            f = AnalyticFunction(scale * np.eye(1, n + 1, n)[0])
            for p in (1.5, 3.0):
                assert hardy_mean(f, p, 0.999) == pytest.approx(
                    0.999 ** n, rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_hardy_means_fold_at_node_cap(p):
    # 1 + z^N with N = 2^18 + 5 exceeds the node cap: folded modulo 2^18,
    # z^N sampled at the nodes is z^5, a permutation of the nodes, so the
    # mean is M_p(rho, 1 + z) with rho = (1-u)^N, by Parseval on
    # (1 + rho z)^(p/2): 2F1(-p/2, -p/2; 1; rho^2)^(1/p)
    mpmath = pytest.importorskip("mpmath")
    big = 2 ** 18 + 5
    u = 1e-7
    c = np.zeros(big + 1)
    c[0] = c[big] = 1.0
    vals, diag = hardy_means_u(AnalyticFunction(c), p, np.array([u]))
    assert diag["capped"] is True and diag["nodes"] == 2 ** 18
    with mpmath.workdps(30):
        rho = (1 - mpmath.mpf(u)) ** big
        expect = float(mpmath.hyp2f1(-p / 2, -p / 2, 1, rho ** 2) ** (1 / p))
    assert vals[0] == pytest.approx(expect, rel=1e-12)


def test_m_infinity_real_and_complex_paths_agree():
    f = AnalyticFunction(_SIGNED)
    us = np.array([0.5, 0.1, 0.0])
    real, d_real = m_infinity_u(f, us)
    cplx, d_cplx = m_infinity_u(f * np.exp(0.4j), us)
    assert "nodes" in d_real and d_real["nodes"] == d_cplx["nodes"]
    assert np.allclose(cplx, real, rtol=1e-12, atol=0)
    # grid maxima never exceed the triangle bound sum |a_k| r^k
    assert np.all(real <= np.polyval(np.abs(_SIGNED)[::-1], 1.0 - us))


def test_hardy_means_node_count_pinned():
    # a COR-HILB-shaped call: the degree-2048 image of a degree-128
    # polynomial under the classical Hilbert operator, on the 128 radii of
    # the first eight quadrature levels, at p = 3.  The node sequence must
    # not grow silently; 16384 is what every earlier engine used.
    img, us = _cor_hilb_chunk()
    assert len(us) == 128 and img.degree == 2048
    _, diag = hardy_means_u(img, 3.0, us, rel_tol=1e-6)
    assert diag["nodes"] == 16384


def _cor_hilb_chunk():
    # the degree-2048 COR-HILB image on the 128 radii of the first eight
    # quadrature levels: 16384 nodes, so the default budget splits it
    img = apply_classical(random_function(128, 5, dist="unit"), 2048)
    his = 2.0 ** -np.arange(8)
    return img, (0.75 * his[:, None] + 0.25 * his[:, None] * _NODES[None, :]).ravel()


def test_hardy_means_vector_equals_scalar_calls():
    # each p of a vector call stops at its own N with its scalar call's
    # bits, also when the p stop at different N and with a Parseval entry
    f = random_function(128, 5, dist="unit")
    us = np.array([0.05, 0.01, 1e-3, 0.0])
    for ps in ([1.5, 2.0, 3.0], [3.0, 1.5]):
        vals, diag = hardy_means_u(f, ps, us, rel_tol=1e-6)
        assert vals.shape == (len(ps), len(us))
        for k, p in enumerate(ps):
            one, d_one = hardy_means_u(f, p, us, rel_tol=1e-6)
            assert np.array_equal(vals[k], one)
            mine = diag["per_p"][k]
            assert mine.get("nodes") == d_one.get("nodes")
            assert mine.get("last_increment") == d_one.get("last_increment")
        nodes = {p: d.get("nodes") for p, d in zip(ps, diag["per_p"])}
        assert nodes[1.5] == 16384 and nodes[3.0] == 4096
        assert diag["nodes"] == 16384 and diag["capped"] is False


def test_hardy_means_blocks_do_not_move_bits(monkeypatch):
    # the row-block budget changes memory, never values: one row per block
    # and all rows in one block agree with the default bit for bit, for the
    # p-means and for the grid maxima (alternating signs keep M_inf off its
    # nonnegative shortcut)
    import bergman.analytic as analytic
    img, us = _cor_hilb_chunk()
    signed = AnalyticFunction(img.coefficients * (-1.0) ** np.arange(img.degree + 1))
    calls = [lambda: hardy_means_u(img, [1.5, 3.0], us, rel_tol=1e-6),
             lambda: m_infinity_u(signed, us)]
    refs = [call() for call in calls]
    assert all(d_ref["nodes"] * len(us) > analytic._BLOCK_SAMPLES for _, d_ref in refs)
    for budget in (1, 2 ** 40):
        monkeypatch.setattr(analytic, "_BLOCK_SAMPLES", budget)
        for call, (ref, d_ref) in zip(calls, refs):
            vals, diag = call()
            assert np.array_equal(vals, ref) and diag == d_ref


def test_hardy_means_vector_capped_per_p():
    # a sparse series of degree > 2^18: both sampled p cap, Parseval does not
    c = np.zeros(2 ** 18 + 6)
    c[0] = c[-1] = 1.0
    _, diag = hardy_means_u(AnalyticFunction(c), [1.5, 2.0, 3.0], np.array([1e-7]))
    assert diag["capped"] is True and diag["nodes"] == 2 ** 18
    assert [d["capped"] for d in diag["per_p"]] == [True, False, True]
    assert diag["per_p"][1] == {"method": "parseval", "capped": False}


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, 0.0, -1.0,
                               [1.5, math.nan], [math.inf, 3.0]])
def test_hardy_means_reject_non_finite_p(p):
    with pytest.raises(DomainError):
        hardy_means_u(AnalyticFunction([1.0, 2.0, 3.0]), p, np.array([0.5]))


# --------------------------------------------------------------------------
# the doubling schedule against a loop that samples every N

_CAP = 2 ** 18


def _reference_doubling(rows, p, rel_tol=1e-9):
    """(nodes, capped, means) of the rows stopping together: a fresh FFT at
    every N from the least power of two >= 2 length in [2^7, 2^18], each
    N's p-means compared with the N before until they agree or N is 2^18."""
    n = 2 ** max(7, min(18, (2 * rows.shape[1] - 1).bit_length()))
    prev = None
    while True:
        mods, weights = _circle_moduli(rows, n)
        vals = np.vecdot(mods ** p, weights) ** (1.0 / p)
        err = math.nan if prev is None else float(np.max(np.abs(vals - prev) / (vals + 1e-300)))
        if err < rel_tol or n >= _CAP:
            return n, not err < rel_tol, vals
        prev, n = vals, 2 * n


def _reference_blocks(f, p, part):
    """(nodes, capped, norms) of every block of ``part``, one reference loop
    per block on its slice, trimmed to its last nonzero coefficient."""
    out = []
    for lo, hi in part.blocks():
        sl = f.coefficients[lo:hi]
        nz = np.nonzero(sl)[0]
        if not len(nz):
            out.append((0, False, 0.0))
            continue
        sl = sl[:nz[-1] + 1]
        n, capped, vals = _reference_doubling((sl.real if not sl.imag.any() else sl)[None], p)
        out.append((n, capped, vals[0]))
    return [np.array(x) for x in zip(*out)]


def _schedule_corpus():
    # real and complex series whose circles near 1 need several doublings
    rng = np.random.default_rng(2026)
    for deg in (5, 40, 130, 300):
        c = rng.standard_normal(deg + 1)
        yield AnalyticFunction(c)
        yield AnalyticFunction(c + 1j * rng.standard_normal(deg + 1))


_SCHEDULE_PS = [0.7, 1.5, 3.0, 5.0]


@pytest.mark.parametrize("rel_tol", [1e-9, 1e-6])
def test_hardy_means_stop_where_every_n_is_sampled(rel_tol):
    # each row's stop N, cap flag and bits, for each p, are those of the
    # loop that samples that row's first N too, instead of its even
    # subsample; the call's diag holds the largest N and any cap
    us = np.array([0.5, 0.05, 1e-3, 1e-5, 0.0])
    seen, spread = set(), False
    for f in _schedule_corpus():
        vals, diag = hardy_means_u(f, _SCHEDULE_PS, us, rel_tol=rel_tol)
        scaled = _scaled_coefficients(f.coefficients, us)
        start = max(128, 2 ** (2 * len(f.coefficients) - 1).bit_length())
        for k, p in enumerate(_SCHEDULE_PS):
            nodes, capped, want = zip(*[_reference_doubling(scaled[i:i + 1], p, rel_tol)
                                        for i in range(len(us))])
            mine = diag["per_p"][k]
            assert (mine["nodes"], mine["capped"]) == (max(nodes), any(capped)), (f, p)
            assert np.array_equal(vals[k], np.concatenate(want)), (f, p)
            seen.update(n // start for n in nodes)
            spread |= len(set(nodes)) > 1
    assert {2, 4}.issubset(seen)          # stops at the start and past it
    assert spread                         # rows of one call stop at different N


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_block_hardy_norms_stop_where_every_n_is_sampled(alpha):
    # each block stops on its own, at the N and with the bits of its own
    # reference loop
    seen = set()
    for f in _schedule_corpus():
        part = partition(const_weight(1.0), alpha, 300)
        norms, nodes, capped = block_hardy_norms(f, _SCHEDULE_PS, part)
        for k, p in enumerate(_SCHEDULE_PS):
            want_nodes, want_capped, want = _reference_blocks(f, p, part)
            assert np.array_equal(nodes[k], want_nodes), (f, p)
            assert np.array_equal(capped[k], want_capped), (f, p)
            assert np.array_equal(norms[k], want), (f, p)
            seen.update(nodes[k].tolist())
    assert {256, 512, 1024}.issubset(seen)


@pytest.mark.parametrize("top, capped", [(40000, [True, False]), (_CAP + 5, [True, True])])
def test_hardy_means_cap_edges(top, capped):
    # 1 + z^40000 needs 2^17 nodes first: its one FFT at the cap compares
    # with its even subsample, which is the 2^17 nodes, and caps only where
    # they differ (p = 1.5 on the unit circle, by 1.5e-9).  A degree past
    # 2^18 needs the cap first: no comparison, so every p caps
    c = np.zeros(top + 1)
    c[0] = c[top] = 1.0
    f = AnalyticFunction(c)
    us = np.array([1e-7, 0.0])
    vals, diag = hardy_means_u(f, [1.5, 3.0], us)
    scaled = _scaled_coefficients(f.coefficients, us)
    for k, p in enumerate([1.5, 3.0]):
        n, cap, want = _reference_doubling(scaled, p)
        mine = diag["per_p"][k]
        assert mine["nodes"] == n == _CAP and mine["capped"] is cap is capped[k]
        assert math.isnan(mine["last_increment"]) is (top > _CAP)
        assert np.array_equal(vals[k], want)


def _even_p_means(c, k, us):
    """M_2k(1 - u, f) of f = sum c_n z^n, independent of the FFT path.

    |f|^2k = |f^k|^2, so M_2k^2k = sum_n |(f^k)_n|^2 r^(2n) (Parseval),
    summed by math.fsum.  f^k comes from np.convolve, or from products of
    the nonzero terms when f is a gap series.
    """
    nz = np.nonzero(c)[0]
    if len(nz) < len(c) // 2:
        power = {0: 1.0}
        for _ in range(k):
            nxt = {}
            for e, a in power.items():
                for m in nz:
                    nxt[e + m] = nxt.get(e + m, 0.0) + a * c[m]
            power = nxt
        exps, coefs = np.array(list(power)), np.array(list(power.values()))
    else:
        coefs = c
        for _ in range(k - 1):
            coefs = np.convolve(coefs, c)
        exps = np.arange(len(coefs))
    mags = np.abs(coefs) ** 2
    return np.array([math.fsum(mags * (np.exp(2.0 * exps * math.log1p(-u)) if u < 1.0
                                       else exps == 0)) ** (0.5 / k) for u in us])


@pytest.mark.parametrize("seed", range(3))
def test_hardy_means_even_p_against_powers(seed):
    # p = 4 and 6 take the FFT doubling loop; the oracle sums |f^2|^2 and
    # |f^3|^2 coefficient by coefficient
    rng = np.random.default_rng(seed)
    us = np.array([1.0, 0.5, 0.1, 1e-3, 1e-8, 0.0])
    for deg in (0, *rng.integers(1, 65, size=4)):
        c = rng.standard_normal(deg + 1)
        if deg % 2:
            c = c + 1j * rng.standard_normal(deg + 1)
        vals, diag = hardy_means_u(AnalyticFunction(c), [4.0, 6.0], us)
        for k, mine in zip((2, 3), diag["per_p"]):
            assert not mine["capped"]
            assert np.allclose(vals[k - 2], _even_p_means(c, k, us), rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("top, capped", [(2 ** 16 - 1, False), (2 ** 16, True),
                                         (_CAP // 2 - 1, True), (_CAP // 2, True)])
def test_hardy_means_even_p_cap_edges(top, capped):
    # least node count 2 (top + 1) = 2^17 is compared at the cap with its
    # 2^17 even nodes; 2^17 + 2 and the two counts around 2^18 start at the
    # cap and cap.  No two sums of k <= 3 exponents differ by a multiple of
    # 2^18, so the trapezoid rule stays exact at the cap too
    c = np.zeros(top + 1)
    exps = [1, 9, 1000, 40000, top]
    c[exps] = np.random.default_rng(top).standard_normal(len(exps))
    us = np.array([0.3, 1e-3, 1e-6, 0.0])
    vals, diag = hardy_means_u(AnalyticFunction(c), [4.0, 6.0], us)
    for k, mine in zip((2, 3), diag["per_p"]):
        assert mine["nodes"] == _CAP and mine["capped"] is capped
        assert np.allclose(vals[k - 2], _even_p_means(c, k, us), rtol=1e-9, atol=0.0)


def test_block_hardy_norms_cap_edges():
    # dyadic blocks [2^n, 2^(n+1)): block 16 holds 1 + z^40000 (shifted),
    # which needs 2^17 nodes first and is compared at the cap, where only
    # p = 1.5 caps; block 17 has length 2^17, block 19 one past 2^18
    # (folded): both need the cap first
    part = partition(const_weight(1.0), 1.0, 2 ** 20)
    blocks = part.blocks()
    c = np.zeros(2 ** 19 + _CAP + 6)
    c[[0, 3, 2 ** 16, 2 ** 16 + 40000, 2 ** 17, _CAP - 1, 2 ** 19, len(c) - 1]] = 1.0
    f = AnalyticFunction(c)
    assert [blocks[n] for n in (16, 17, 19)] == [(2 ** 16, 2 ** 17), (2 ** 17, _CAP),
                                                 (2 ** 19, 2 ** 20)]
    norms, nodes, capped = block_hardy_norms(f, [1.5, 3.0], part)
    for k, (p, want_capped_blocks) in enumerate([(1.5, [16, 17, 19]), (3.0, [17, 19])]):
        want_nodes, want_capped, want = _reference_blocks(f, p, part)
        assert np.nonzero(capped[k])[0].tolist() == want_capped_blocks
        assert nodes[k, [16, 17, 19]].tolist() == [_CAP] * 3
        assert np.array_equal(nodes[k], want_nodes) and np.array_equal(capped[k], want_capped)
        assert np.array_equal(norms[k], want)


def _reference_m_infinity(f, us, rel_tol=1e-6):
    """(nodes, maxima) of one radius's grid maxima with a fresh FFT at every
    N from the least power of two >= 4d + 4 (below 2^18), until successive
    maxima agree or N is 2^18."""
    scaled = _scaled_coefficients(f.coefficients, us)
    n = 2 ** max(9, min(18, (4 * len(f.coefficients) - 1).bit_length()))
    prev = None
    while True:
        vals = np.max(_circle_moduli(scaled, n)[0], axis=1)
        if prev is not None and (np.max(np.abs(vals - prev) / (vals + 1e-300)) < rel_tol
                                 or n >= _CAP):
            return n, np.maximum(vals, prev)
        prev, n = vals, 2 * n


def test_m_infinity_stops_where_every_n_is_sampled():
    # each radius stops at the N of its own loop that samples the first N
    # too; at a stop on the first comparison the maximum of the even
    # subsample is already in the grid, so only a separate FFT's rounding
    # of it can differ
    us = np.array([0.5, 0.05, 1e-3, 0.0])
    seen = set()
    for f in _schedule_corpus():
        vals, diag = m_infinity_u(f, us)
        nodes, want = zip(*[_reference_m_infinity(f, us[i:i + 1]) for i in range(len(us))])
        assert diag["nodes"] == max(nodes) and diag["capped"] is False
        assert diag["resolution"] < 1e-6
        assert np.allclose(vals, np.concatenate(want), rtol=1e-15, atol=0)
        seen.update(nodes)
    assert len(seen) > 1


def test_m_infinity_stays_within_node_cap():
    # 1 - z^40000 + 0.5 z^7 needs 2^18 nodes first: one FFT at the cap and
    # no comparison, so it caps (it once doubled to 2^19 to compare);
    # hardy_means_u on it stops at the cap too
    c = np.zeros(40001)
    c[0], c[7], c[40000] = 1.0, 0.5, -1.0
    f = AnalyticFunction(c)
    us = np.array([1e-3, 0.0])
    vals, diag = m_infinity_u(f, us)
    assert diag["nodes"] == _CAP and diag["capped"] is True
    assert math.isnan(diag["resolution"])
    mods = _circle_moduli(_scaled_coefficients(f.coefficients, us), _CAP)[0]
    assert np.array_equal(vals, np.max(mods, axis=1))
    assert hardy_means_u(f, 3.0, us)[1]["nodes"] == _CAP


def test_stop_gap_is_the_even_subsample():
    # at each radius's stop N, last_increment (resolution for M_inf) is the
    # relative gap between the N-point mean and the mean over its even
    # nodes, both from that N's one FFT: no mean is carried over from the N
    # before.  A one-radius call stops that radius as the full call does,
    # and the full call reports the largest N and the largest gap
    us = np.array([0.5, 0.05, 1e-3, 1e-5, 0.0])
    past_start = 0
    for f in _schedule_corpus():
        m = len(f.coefficients)
        _, diag = hardy_means_u(f, _SCHEDULE_PS, us)
        _, diag_inf = m_infinity_u(f, us)
        rows = [(hardy_means_u(f, _SCHEDULE_PS, us[i:i + 1])[1], m_infinity_u(f, us[i:i + 1])[1])
                for i in range(len(us))]
        for i, (one, one_inf) in enumerate(rows):
            scaled = _scaled_coefficients(f.coefficients, us[i:i + 1])
            for p, mine in zip(_SCHEDULE_PS, one["per_p"]):
                n = mine["nodes"]
                mods, weights = _circle_moduli(scaled, n)
                powers = mods ** p
                full = np.vecdot(powers, weights) ** (1.0 / p)
                half = np.vecdot(powers[:, ::2], _circle_moduli(scaled, n // 2)[1]) ** (1.0 / p)
                assert mine["last_increment"] == np.max(np.abs(full - half) / (full + 1e-300))
                past_start += n > 2 * max(128, 2 ** (2 * m - 1).bit_length())
            mods = _circle_moduli(scaled, one_inf["nodes"])[0]
            top = mods.max(axis=1)
            assert one_inf["resolution"] == np.max((top - mods[:, ::2].max(axis=1))
                                                   / (top + 1e-300))
            past_start += one_inf["nodes"] > 2 * max(512, 2 ** (4 * m - 1).bit_length())
        for k, mine in enumerate(diag["per_p"]):
            assert mine["nodes"] == max(one["per_p"][k]["nodes"] for one, _ in rows)
            assert mine["last_increment"] == max(one["per_p"][k]["last_increment"]
                                                 for one, _ in rows)
        assert diag_inf["nodes"] == max(one["nodes"] for _, one in rows)
        assert diag_inf["resolution"] == max(one["resolution"] for _, one in rows)
    assert past_start


def test_rows_stand_alone():
    # a radius's value and stop do not depend on the other radii of its
    # call: each row of a call equals the one-radius call bit for bit, for
    # the sampled p, Parseval at p = 2, the sampled grid maxima and the
    # nonnegative M_inf shortcut
    img, chunk = _cor_hilb_chunk()
    us = np.array([0.5, 0.05, 1e-3, 1e-5, 0.0])
    signed = AnalyticFunction(img.coefficients * (-1.0) ** np.arange(img.degree + 1))
    cases = [(f, us, 1e-9) for f in _schedule_corpus()] + [(img, chunk, 1e-6),
                                                           (signed, chunk, 1e-6)]
    for f, radii, tol in cases:
        vals, _ = hardy_means_u(f, [0.7, 1.5, 2.0, 3.0], radii, rel_tol=tol)
        maxima, _ = m_infinity_u(f, radii)
        for i in range(0, len(radii), 8 if len(radii) > 8 else 1):
            one = radii[i:i + 1]
            assert np.array_equal(vals[:, i], hardy_means_u(f, [0.7, 1.5, 2.0, 3.0], one,
                                                            rel_tol=tol)[0][:, 0]), (f, i)
            assert maxima[i] == m_infinity_u(f, one)[0][0], (f, i)


def test_caps_are_set_per_row(monkeypatch):
    # |1 - z|^1.5 is not smooth on the unit circle: with the node cap at
    # 2^10 the radii near 1 cap at p = 1.5 and the others stop below the
    # cap with the N and bits they have under the default cap; p = 3 caps
    # nowhere
    import bergman.analytic as analytic
    scaled = _scaled_coefficients(np.array([1.0, -1.0]), np.array([0.5, 0.1, 1e-2, 1e-4, 0.0]))
    ref_vals, ref_nodes, _, ref_capped = analytic._doubling_means(scaled, 4, [1.5, 3.0], 1e-9)
    assert not ref_capped.any()
    monkeypatch.setattr(analytic, "_N_CAP_LOG2", 10)
    vals, nodes, gaps, capped = analytic._doubling_means(scaled, 4, [1.5, 3.0], 1e-9)
    assert capped.tolist() == [[False, False, True, True, True], [False] * 5]
    assert np.all(nodes[capped] == 2 ** 10) and np.all(gaps[capped] >= 1e-9)
    assert np.array_equal(nodes[~capped], ref_nodes[~capped])
    assert np.array_equal(vals[~capped], ref_vals[~capped])


def test_norms_p3_circle_samples_pinned(monkeypatch):
    # the degree-12 complex polynomial of the benchmark's p = 3 norm
    # queries: every circle sample of one `bergman norms --p 3` call,
    # counted at the FFT, with each radius stopping on its own
    import bergman.analytic as analytic
    from bergman.cli import main
    rng = random.Random(20121012)
    c = [complex(round(rng.uniform(-1.0, 1.0), 6), round(rng.uniform(-1.0, 1.0), 6))
         for _ in range(13)]
    moduli, samples = analytic._circle_moduli, []

    def counted(scaled, n):
        samples.append(len(scaled) * n)
        return moduli(scaled, n)

    monkeypatch.setattr(analytic, "_circle_moduli", counted)
    spec = "poly(%s)" % ",".join(repr(x).strip("()") for x in c)
    assert main(["norms", "--f", spec, "--weight", "std(alpha=0.5)", "--p", "3"]) == 0
    assert sum(samples) == 551424


def test_empty_radii_give_empty_values():
    f = AnalyticFunction([1.0, -2.0, 0.5])
    none = np.array([])
    for vals, diag in (hardy_means_u(f, 3.0, none), m_infinity_u(f, none)):
        assert vals.shape == (0,) and diag["capped"] is False
    vals, diag = hardy_means_u(f, [1.5, 2.0, 3.0], none)
    assert vals.shape == (3, 0) and diag["capped"] is False
    profile = circle_profile(f, [(3.0, 2.0), (2.0, 1.0), (math.inf, 1.0)])
    assert profile(none).shape == (3, 0) and profile.capped is False


@pytest.mark.parametrize("rel_tol", [None, 1e-3])
def test_circle_profile_rows_equal_per_column_calls(rel_tol):
    # a repeated p, p = 2 (Parseval), p = inf and q != p: each row is its
    # column's own circle-mean call raised to q, bit for bit, and rel_tol
    # None keeps each call's default
    cols = [(3.0, 2.0), (1.5, 1.5), (2.0, 3.0), (math.inf, 2.5), (3.0, 3.0),
            (math.inf, 1.0)]
    tol = {} if rel_tol is None else {"rel_tol": rel_tol}
    us = np.array([0.5, 0.05, 0.01, 1e-3, 1e-6, 0.0])
    for f in (AnalyticFunction(_SIGNED), AnalyticFunction([1 + 2j, -0.5, 0.25j, 3.0]),
              random_function(64, 3, dist="sym")):
        got = circle_profile(f, cols, rel_tol=rel_tol)(us)
        assert got.shape == (len(cols), len(us))
        for row, (p, q) in zip(got, cols):
            one = m_infinity_u(f, us, **tol) if p == math.inf else hardy_means_u(f, p, us, **tol)
            assert np.array_equal(row, one[0] ** q), (f, p, q)


# --------------------------------------------------------------------------
# area norms

def test_bergman_norm_monomial_moment(w_std_m05):
    # ||z^n||_2^2 = 2 * omega_n for a probability weight
    for n in (0, 1, 5, 12):
        f = AnalyticFunction(np.eye(1, n + 1, n)[0])
        expect = math.sqrt(2.0 * w_std_m05.moment(n))
        assert float(bergman_norm(f, 2, w_std_m05)) == pytest.approx(
            expect, rel=1e-10)


@pytest.mark.parametrize("alpha", [-0.5, 1.0])
@pytest.mark.parametrize("p", [1.5, 3.0])
def test_bergman_norm_monomial_beta_oracle(alpha, p):
    # ||z^n||^p on std(alpha) = 2 int_0^1 r^(np+1) (1-r^2)^alpha dr
    # = B(np/2 + 1, alpha + 1), in mpmath: an oracle apart from the moments
    mpmath = pytest.importorskip("mpmath")
    w = std_weight(alpha)
    for n in (1, 7, 64):
        f = AnalyticFunction(np.eye(1, n + 1, n)[0])
        with mpmath.workdps(30):
            expect = float(mpmath.beta(mpmath.mpf(n) * p / 2 + 1, alpha + 1))
        assert float(bergman_norm(f, p, w)) ** p == pytest.approx(expect, rel=2e-9)


@pytest.mark.parametrize("wname", ["w_std_m05", "w_logpow2"])
@pytest.mark.parametrize("gamma", [0.0, 0.5])
@pytest.mark.parametrize("p", [1.5, 3.0])
def test_radial_norms_lines_match_separate_integrals(request, wname, gamma, p, w_std_1):
    # one profile and one integral for both lines; each line keeps the bits
    # of its own profile and integral, and of the one-line calls
    w, q = request.getfixturevalue(wname), 2.5
    f = AnalyticFunction([1.0, 0.5 - 0.25j, -0.75j, 0.3, 0.0, 0.2 + 0.1j])
    bergman, mixed = radial_norms(f, [(p, w), (p, w, q, gamma)])
    area, area_diag = weighted_radial_integral(circle_profile(f, [(p, p)]), w, include_r=True)
    line, line_diag = weighted_radial_integral(circle_profile(f, [(p, q)]), w, gamma=gamma)
    assert bergman.value == (2.0 * area) ** (1.0 / p) == bergman_norm(f, p, w).value
    assert mixed.value == line ** (1.0 / q) == mixed_norm(f, p, q, w, gamma=gamma).value
    assert bergman.diagnostics == dict(area_diag["per_weight"][0], convention="area")
    assert mixed.diagnostics == line_diag["per_weight"][0]
    # the flat rule closes the gamma = 0 lines; a mixed line with gamma > 0 decays
    assert bergman.diagnostics["stop"] == "flat"
    assert mixed.diagnostics["stop"] == ("flat" if gamma == 0 else "decay")
    # one call mixing p values (p = 2 and inf too), weights and both kinds of
    # line, at the defaults and at scenario tolerances: every line is its
    # one-line call, bit for bit
    lines = [(p, w), (3.0 - p / 2, w_std_1), (2.0, w), (p, w_std_1, q, gamma),
             (math.inf, w, 2.0, gamma), (2.0, w_std_1, 1.5, 0.0), (p, w, q, gamma)]
    for tols in ({}, {"circle_tol": 1e-6, "rel_tol": 1e-8}):
        together = radial_norms(f, lines, **tols)
        for line, norm in zip(lines, together):
            [one] = radial_norms(f, [line], **tols)
            assert norm.value == one.value and norm.diagnostics == one.diagnostics, line


def test_radial_norms_p2_bergman_line_is_the_moment_sum(w_std_m05):
    f = AnalyticFunction([1.0, 2.0, -0.5j])
    bergman, mixed = radial_norms(f, [(2.0, w_std_m05), (2.0, w_std_m05, 2.0, 0.0)])
    assert bergman.method == "closed-form" and mixed.method == "quadrature"
    assert bergman.value == math.sqrt(2.0 * sum(abs(c) ** 2 * w_std_m05.moment(k)
                                                for k, c in enumerate(f.coefficients)))


@pytest.mark.parametrize("kwargs", [{"q": math.nan}, {"q": math.inf},
                                    {"q": 0.0}, {"gamma": math.nan},
                                    {"gamma": -0.5}])
def test_mixed_norm_rejects_bad_q_and_gamma(w_std_m05, kwargs):
    args = {"q": 2.0, "gamma": 0.0, **kwargs}
    with pytest.raises(DomainError):
        mixed_norm(AnalyticFunction([1.0, 2.0, 3.0]), 1.5, args["q"], w_std_m05,
                   gamma=args["gamma"])


def test_mixed_norms_keep_p_infinity(w_std_m05):
    # p = inf is the M_inf path; nonnegative coefficients make M_inf(r, f) =
    # f(r), which grows to f(1) = 6 at the end of the sup grid
    f = AnalyticFunction([1.0, 2.0, 3.0])
    assert float(mixed_norm_sup(f, math.inf, w_std_m05)) == pytest.approx(6.0, rel=1e-9)
    assert math.isfinite(float(mixed_norm(f, math.inf, 2.0, w_std_m05)))
    for p in (math.nan, math.inf):
        with pytest.raises(DomainError):
            bergman_norm(f, p, w_std_m05)


def test_capped_circle_means_are_undetermined(monkeypatch, w_std_m05):
    # with the node cap at 2^9 a degree-300 series needs the cap first, so
    # its p-means and grid maxima cap: no norm built on them is finite
    import bergman.analytic as analytic
    monkeypatch.setattr(analytic, "_N_CAP_LOG2", 9)
    f = random_function(300, 1, "sym")
    for value in (bergman_norm(f, 3.0, w_std_m05),
                  mixed_norm(f, 3.0, 2.0, w_std_m05), mixed_norm(f, math.inf, 2.0, w_std_m05),
                  mixed_norm_sup(f, 3.0, w_std_m05), mixed_norm_sup(f, math.inf, w_std_m05),
                  lambda_norm(f, 3.0, 0.5, 0.0, w_std_m05)):
        assert value.verdict == "undetermined" and value.diagnostics["capped"] is True
        assert math.isnan(float(value))


def test_level_capped_radial_integrals_are_undetermined(monkeypatch, w_std_m05):
    # with the level cap at one chunk the radial integrals stop at
    # "max-level": the quadrature lines turn undetermined, the exact p = 2
    # Bergman line does not
    import bergman.analytic as analytic
    monkeypatch.setattr(analytic, "_MAX_LEVEL", analytic._LEVELS_PER_CHUNK)
    f = AnalyticFunction(_SIGNED)
    for value in (bergman_norm(f, 3.0, w_std_m05), mixed_norm(f, 3.0, 2.0, w_std_m05),
                  mixed_norm(f, 2.0, 2.0, w_std_m05), mixed_norm(f, math.inf, 2.0, w_std_m05)):
        assert value.verdict == "undetermined" and math.isnan(float(value))
        assert value.diagnostics["stop"] == "max-level" and "capped" not in value.diagnostics
    assert bergman_norm(f, 2.0, w_std_m05).verdict == "finite"


def test_mixed_norm_p2_coefficient_sum(w_linear, small_corpus):
    # no factor r in the mixed convention: the 2n-th plain moments appear
    for f in small_corpus[:4]:
        a = float(mixed_norm(f, 2, 2, w_linear)) ** 2
        b = sum(abs(c) ** 2 * w_linear.moment_plain(2 * n)
                for n, c in enumerate(f.coefficients))
        assert a == pytest.approx(b, rel=1e-8)


@given(coeff_lists, st.floats(min_value=0.1, max_value=3.0))
@settings(max_examples=25, deadline=None)
def test_bergman_norm_homogeneous(coeffs, c):
    w = const_weight().normalized()
    f = AnalyticFunction(coeffs)
    base = float(bergman_norm(f, 2, w))
    assert float(bergman_norm(f * c, 2, w)) == pytest.approx(
        c * base, rel=1e-9, abs=1e-12)


def test_mixed_norm_sup_truncated_cauchy_kernel(w_const):
    # sup_r M_2(r, 1/(1-z)) * tail(r)^(1/2) = 1 for the flat weight
    f = binomial_kernel(1.0, 256)
    assert float(mixed_norm_sup(f, 2, w_const, beta=0.5)) == pytest.approx(
        1.0, rel=1e-9)


def test_dirichlet_norm_log_kernel():
    # Dirichlet norm of sum z^k/k is the square root of the harmonic number
    h = sum(1.0 / k for k in range(1, 513))
    assert float(dirichlet_norm(log_kernel(512))) == pytest.approx(
        math.sqrt(h), rel=1e-13)


# --------------------------------------------------------------------------
# modulus of continuity

def test_modulus_monomial_exact():
    for m in (1, 3, 8):
        f = AnalyticFunction(np.eye(1, m + 1, m)[0])
        for h in (0.01, 0.1, 1.0):
            assert modulus_of_continuity(f, 2, h) == pytest.approx(
                2.0 * abs(math.sin(m * h / 2.0)), rel=1e-10)


@given(coeff_lists, st.floats(min_value=0.01, max_value=0.5),
       st.floats(min_value=0.01, max_value=0.5))
@settings(max_examples=30, deadline=None)
def test_modulus_subadditive(coeffs, h1, h2):
    f = AnalyticFunction(coeffs)
    a = modulus_of_continuity(f, 2, h1 + h2)
    b = modulus_of_continuity(f, 2, h1) + modulus_of_continuity(f, 2, h2)
    assert a <= b * (1.0 + 1e-9) + 1e-12


# --------------------------------------------------------------------------
# coefficient plumbing

def test_differentiate_shifts_coefficients():
    f = AnalyticFunction([5.0, 1.0, 2.0, 3.0])
    g = f.derivative()
    assert np.allclose(g.coefficients, [1.0, 4.0, 9.0])


def test_partial_sum_window():
    # half-open window: n1 <= k < n2
    f = AnalyticFunction(np.arange(10.0))
    g = partial_sum(f, 3, 6)
    assert g.coefficients[3] == 3.0 and g.coefficients[5] == 5.0
    assert np.all(g.coefficients[:3] == 0) and g.degree == 5


def test_block_reconstruction():
    f = AnalyticFunction(np.arange(1.0, 9.0))
    total = partial_sum(f, 0, 4) + partial_sum(f, 4, 8)
    assert np.allclose(total.coefficients, f.coefficients)


def test_random_function_deterministic():
    a = random_function(32, 9, dist="sym")
    b = random_function(32, 9, dist="sym")
    assert np.array_equal(a.coefficients, b.coefficients)
    c = random_function(32, 10, dist="sym")
    assert not np.array_equal(a.coefficients, c.coefficients)


def test_binomial_kernel_coefficients():
    mpmath = pytest.importorskip("mpmath")
    f = binomial_kernel(0.5, 16)
    expect = [float(mpmath.gamma(k + 0.5) / (mpmath.gamma(0.5) * mpmath.gamma(k + 1)))
              for k in range(5)]
    assert np.allclose(f.coefficients[:5], expect, rtol=1e-12)


def test_parse_function_spec_grammar():
    f = parse_function_spec("poly(1,0.5,-2)")
    assert np.allclose(f.coefficients, [1.0, 0.5, -2.0])
    g = parse_function_spec("logk(deg=64)")
    assert g.degree == 64 and g.coefficients[1] == pytest.approx(1.0)
    h = parse_function_spec("rand(deg=8,seed=3)")
    assert h.degree <= 8
    with pytest.raises(DomainError):
        parse_function_spec("nosuch(1)")


def test_evaluation_horner_consistency():
    f = AnalyticFunction([1.0, -2.0, 0.5])
    z = 0.3 + 0.4j
    assert f(z) == pytest.approx(1.0 - 2.0 * z + 0.5 * z * z, rel=1e-14)
