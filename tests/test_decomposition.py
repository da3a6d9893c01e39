"""Block partitions, decomposition norms, lacunary criteria."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergman.analytic import (AnalyticFunction, bergman_norm, hardy_mean,
                              log_kernel)
from bergman.decomposition import (block, block_criterion_lambda,
                                   block_hardy_norms, decomposition_norm,
                                   decomposition_norm_gamma,
                                   is_omega_lacunary, lacunary_norm,
                                   lacunary_sup_test, partition)
from bergman.errors import DomainError
from bergman.weights import const_weight, pow_weight


@pytest.fixture(scope="module")
def part_dyadic(w_const):
    return partition(w_const, 1.0, 2 ** 20)


# --------------------------------------------------------------------------
# partitions

def test_dyadic_marks_flat_weight(part_dyadic):
    for n, m in enumerate(part_dyadic.marks[:21]):
        assert m == 2 ** n


def test_dyadic_radii_flat_weight(part_dyadic):
    for n, r in enumerate(part_dyadic.radii[:12]):
        assert r == pytest.approx(1.0 - 2.0 ** -n, abs=1e-10)


def test_linear_weight_sqrt2_marks():
    w = pow_weight(1.0).normalized()      # 2(1-r): tail (1-r)^2
    part = partition(w, 1.0, 2 ** 10)
    for n, m in enumerate(part.marks[:21]):
        assert m == int(2.0 ** (n / 2.0))


def test_block_index_consistent(part_dyadic):
    for k in (0, 1, 7, 8, 1000):
        n = part_dyadic.block_index(k)
        lo = 0 if n == 0 else part_dyadic.marks[n]
        assert lo <= k < part_dyadic.marks[n + 1]


def test_mark_float_extends_marks(part_dyadic):
    for n in (0, 5, 30, 60):
        assert part_dyadic.mark_float(n) == pytest.approx(2.0 ** n, rel=1e-9)


def test_mark_float_snaps_like_the_stored_marks(w_const):
    # the flat weight's radii are u_n = 2^-n exactly; the solver may land
    # an ulp to either side, and the continuation marks snap as the
    # stored ones do instead of reading 2^n - 1
    part = partition(w_const, 1.0, 0)
    assert part.marks == (1,)
    assert [part.mark_float(n) for n in range(1, 41)] == [2 ** n for n in range(1, 41)]


def _bisect_radius_u(w, target):
    """The bisection in log u that the Newton solver replaced."""
    if target >= w.tail_u(1.0):
        return 1.0
    s_hi, s_lo = 0.0, -1.0
    while w.tail_u(math.exp(s_lo)) > target:
        s_lo *= 2.0
        if s_lo < -745.0:
            return 0.0
    for _ in range(200):
        s_mid = 0.5 * (s_lo + s_hi)
        t = w.tail_u(math.exp(s_mid))
        if abs(t - target) <= 1e-12 * target:
            return math.exp(s_mid)
        if t > target:
            s_hi = s_mid
        else:
            s_lo = s_mid
        if s_hi - s_lo < 1e-13:
            break
    return math.exp(0.5 * (s_lo + s_hi))


def test_radius_solver_keeps_the_bisection_marks(monkeypatch, w_const, w_linear,
                                                 w_std_m05, w_std_1, w_logpow2):
    # every mark of these partitions equals the one the bisection gives,
    # each radius meets the tail tolerance, and the Newton steps take at
    # most a third of the bisection's tail evaluations
    from bergman import decomposition
    from bergman.weights import RadialWeight
    calls = []
    tail_u = RadialWeight.tail_u
    monkeypatch.setattr(RadialWeight, "tail_u",
                        lambda self, u: calls.append(u) or tail_u(self, u))
    cases = [(w, alpha) for w in (w_const, w_linear, w_std_m05, w_std_1, w_logpow2)
             for alpha in (0.5, 1.0, 2.0)]
    newton, bisection = [], []
    for w, alpha in cases:
        calls.clear()
        part = partition(w, alpha, 4000)
        newton.append(len(calls))
        monkeypatch.setattr(decomposition, "_solve_radius_u", _bisect_radius_u)
        calls.clear()
        assert partition(w, alpha, 4000).marks == part.marks, (w, alpha)
        bisection.append(len(calls))
        monkeypatch.undo()
        monkeypatch.setattr(RadialWeight, "tail_u",
                            lambda self, u: calls.append(u) or tail_u(self, u))
        for n, u in enumerate(part.us):
            assert float(w.tail_u(u)) == pytest.approx(2.0 ** (-n * alpha), rel=1e-12)
    assert 3 * sum(newton) <= sum(bisection)


def test_partition_requires_normalized():
    with pytest.raises(DomainError):
        partition(pow_weight(1.0), 1.0, 64)


# --------------------------------------------------------------------------
# decomposition norms

def test_decomposition_norm_monomial(part_dyadic):
    # z^4 sits alone in block 3 of the dyadic partition (weight 2^-3q/... )
    z4 = AnalyticFunction([0, 0, 0, 0, 1.0])
    assert float(decomposition_norm(z4, 2, 2, part_dyadic)) == pytest.approx(
        0.5, rel=1e-12)
    assert float(decomposition_norm_gamma(z4, 2, 2, 1.0, part_dyadic)) == \
        pytest.approx(1.0 / 16.0, rel=1e-12)


def test_blocks_reassemble(part_dyadic):
    f = AnalyticFunction(np.arange(1.0, 18.0))
    total = np.zeros(17)
    for n in range(part_dyadic.block_index(16) + 1):
        b = block(f, part_dyadic, n)
        total[:len(b.coefficients)] += np.real(b.coefficients)
    assert np.allclose(total, f.coefficients)


def _blocks_one_by_one(f, p, part):
    # the reference: one circle mean at r = 1 per nonzero coefficient slice
    out = []
    for lo, hi in part.blocks():
        sl = f.coefficients[lo:hi]
        out.append(hardy_mean(AnalyticFunction(sl), p, 1.0) if sl.any() else 0.0)
    return np.array(out)


def _block_corpus():
    rng = np.random.default_rng(9)
    real = rng.standard_normal(150)
    real[32:64] = 0.0                        # block 5 of the dyadic partition is zero
    cplx = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    cplx[64:128] = cplx[64:128].real         # block 6 is all real: the real FFT
    return [AnalyticFunction(real), AnalyticFunction(cplx),
            AnalyticFunction([0.0, 0.0, 0.0, 1.0])]


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_block_hardy_norms_equal_single_block_calls(alpha):
    # every block of every p in one batched call moves no bit against one
    # hardy_mean(block, p, 1.0) call per block; the partitions reach degree 300, so
    # the tail blocks past each function's degree are empty
    part = partition(const_weight(1.0), alpha, 300)
    ps = [1.5, 2.0, 3.0, 4.0]
    for f in _block_corpus():
        norms, nodes, capped = block_hardy_norms(f, ps, part)
        for k, p in enumerate(ps):
            assert np.array_equal(norms[k], _blocks_one_by_one(f, p, part)), (f, p)
        assert not capped.any()
        assert not nodes[1].any() and nodes[[0, 2, 3]].max() >= 128
    real, cplx, _ = _block_corpus()
    assert not real.coefficients[32:64].any() and cplx.coefficients[:64].imag.all()
    assert not cplx.coefficients[64:128].imag.any() and cplx.coefficients[128:].imag.all()


def test_decomposition_norm_pairs_equal_scalar_calls():
    part = partition(pow_weight(1.0).normalized(), 0.5, 300)
    pairs = [(2.0, 2.0), (2.0, 3.0), (3.0, 1.5), (1.5, 4.0)]
    for f in _block_corpus():
        batched = decomposition_norm(f, [p for p, _ in pairs], [q for _, q in pairs], part)
        for (p, q), got in zip(pairs, batched):
            want = decomposition_norm(f, p, q, part)
            assert got.value == want.value and got.diagnostics == want.diagnostics
    with pytest.raises(DomainError):
        decomposition_norm(f, [2.0, 3.0], [2.0], part)
    with pytest.raises(DomainError):
        decomposition_norm(f, [2.0, math.nan], [2.0, 2.0], part)


def test_decomposition_norm_capped_block_is_undetermined():
    # const weight, alpha = 1: block 17 is [2^17, 2^18) and starts at the
    # 2^18-node cap, so its p = 3 mean cannot be checked by a doubling
    part = partition(const_weight(1.0), 1.0, 2 ** 18 - 1)
    c = np.zeros(2 ** 18)
    c[1] = c[2 ** 18 - 1] = 1.0
    f = AnalyticFunction(c)
    capped = decomposition_norm(f, 3.0, 2.0, part)
    assert capped.verdict == "undetermined" and math.isnan(capped.value)
    assert capped.diagnostics["capped_blocks"] == [17]
    exact = decomposition_norm(f, 2.0, 2.0, part)
    assert exact.verdict == "finite" and exact.diagnostics["nodes"] == 0
    assert exact.value == pytest.approx(math.sqrt(1.0 + 2.0 ** -17), rel=1e-14)
    small = decomposition_norm(AnalyticFunction([1.0, 2.0, 3.0]), 3.0, 2.0, part)
    assert small.verdict == "finite" and small.diagnostics["nodes"] >= 128


def test_decomposition_norm_gamma_capped_block_is_undetermined():
    # the input of the decomposition_norm test above: the H^3 norm of
    # block 17 starts at the 2^18-node cap
    part = partition(const_weight(1.0), 1.0, 2 ** 18 - 1)
    c = np.zeros(2 ** 18)
    c[1] = c[2 ** 18 - 1] = 1.0
    f = AnalyticFunction(c)
    capped = decomposition_norm_gamma(f, 3.0, 2.0, 0.5, part)
    assert capped.verdict == "undetermined" and math.isnan(capped.value)
    assert capped.diagnostics["capped_blocks"] == [17]
    exact = decomposition_norm_gamma(f, 2.0, 2.0, 0.0, part)
    assert exact.verdict == "finite"
    assert exact.value == pytest.approx(1.0 + 2.0 ** -17, rel=1e-14)


def test_block_criterion_capped_block_is_an_error():
    # g' = 2z + 2^18 z^(2^18 - 1) is the input of the decomposition_norm
    # test above up to its coefficients: the H^3 norm of block 17 starts at
    # the 2^18-node cap, and a profile cannot carry an undetermined value
    part = partition(const_weight(1.0), 1.0, 2 ** 18 - 1)
    c = np.zeros(2 ** 18 + 1)
    c[2] = c[2 ** 18] = 1.0
    g = AnalyticFunction(c)
    with pytest.raises(DomainError, match=r"blocks 17 of g'"):
        block_criterion_lambda(g, 3.0, 2.0, 0.0, part)
    # q = 2 is Parseval's sum, which never caps
    sup, profile = block_criterion_lambda(g, 2.0, 2.0, 0.0, part)
    assert profile[17] == sup == pytest.approx(2.0 ** 18 / 2.0 ** 8.5, rel=1e-14)


def _fsum_m4(c):
    # M_4(1, g)^4 = M_2(1, g^2)^2 = sum |(g^2)_k|^2 (Parseval of g^2), with
    # each coefficient of the convolution g^2 summed in fsum
    n = len(c)
    sq = [math.fsum(c[i] * c[k - i] for i in range(max(0, k - n + 1), min(k, n - 1) + 1))
          for k in range(2 * n - 1)]
    return math.fsum(x * x for x in sq)


def test_block_hardy_norms_parseval_oracles():
    # independent of the FFT: p = 4 through the coefficients of the squared
    # block, p = 2 through the fsum of |a_k|^2
    part = partition(const_weight(1.0), 1.0, 300)
    f = _block_corpus()[0]
    norms = block_hardy_norms(f, [2.0, 4.0], part)[0]
    for n, (lo, hi) in enumerate(part.blocks()):
        c = [float(x) for x in f.coefficients[lo:hi].real]
        assert norms[0, n] == pytest.approx(math.sqrt(math.fsum(x * x for x in c)), rel=1e-14)
        if any(c):
            assert norms[1, n] ** 4 == pytest.approx(_fsum_m4(c), rel=1e-12)
        else:
            assert norms[1, n] == 0.0


@given(st.lists(st.floats(min_value=0.01, max_value=2.0), min_size=2,
                max_size=20),
       st.floats(min_value=0.2, max_value=3.0))
@settings(max_examples=20, deadline=None)
def test_decomposition_norm_homogeneous(coeffs, c):
    w = pow_weight(1.0).normalized()
    part = partition(w, 1.0, 64)
    f = AnalyticFunction(coeffs)
    base = float(decomposition_norm(f, 2, 2, part))
    assert float(decomposition_norm(f * c, 2, 2, part)) == pytest.approx(
        c * base, rel=1e-10)


def test_block_criterion_profile_shape(part_dyadic):
    sup, profile = block_criterion_lambda(log_kernel(1024), 2, 2, 0.0,
                                          part_dyadic)
    assert sup == pytest.approx(max(profile), rel=1e-12)
    assert len(profile) >= 10


# --------------------------------------------------------------------------
# lacunary criteria

def test_is_omega_lacunary_dyadic(w_const):
    ok, _, _ = is_omega_lacunary([1, 2, 4, 8, 16, 32], w_const, 1.05)
    assert ok
    ok, k_bad, _ = is_omega_lacunary([1, 2, 3, 4, 5, 6], w_const, 1.5)
    assert not ok and k_bad >= 1


def test_lacunary_norm_q2_matches_parseval(w_std_m05):
    # q = 2: the moment sum is exactly half the squared area norm
    exps = [1, 2, 4, 8, 16, 32, 64]
    a = np.array([1.0, 0.5, 0.9, 0.3, 0.7, 0.2, 0.4])
    coeffs = np.zeros(max(exps) + 1)
    coeffs[exps] = a
    f = AnalyticFunction(coeffs)
    s = float(lacunary_norm(a, exps, 2, w_std_m05))
    assert s == pytest.approx(0.5 * float(bergman_norm(f, 2, w_std_m05)) ** 2,
                              rel=1e-11)


def test_lacunary_norm_warns_on_gap_failure(w_const):
    with pytest.warns(UserWarning):
        lacunary_norm([1.0, 1.0, 1.0], [10, 11, 12], 2, w_const, gap=1.5)


def test_lacunary_sup_test_separates(w_const):
    exps = [2 ** k for k in range(14)]
    base = np.array([w_const.moment_plain(n) ** -0.5 for n in exps])
    ok, _ = lacunary_sup_test(base, exps, w_const, 0.5)
    assert ok
    ok, _ = lacunary_sup_test(base * (np.arange(14) + 1.0) ** 2, exps,
                              w_const, 0.5)
    assert not ok
