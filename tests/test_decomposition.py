"""Block partitions, decomposition norms, lacunary criteria."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergman.analytic import AnalyticFunction, bergman_norm, log_kernel
from bergman.decomposition import (block, block_criterion_lambda,
                                   decomposition_norm,
                                   decomposition_norm_gamma,
                                   is_omega_lacunary, lacunary_norm,
                                   lacunary_sup_test, partition, radii)
from bergman.errors import DomainError
from bergman.weights import pow_weight


@pytest.fixture(scope="module")
def part_dyadic(w_const):
    return partition(w_const, 1.0, 2 ** 20)


# --------------------------------------------------------------------------
# partitions

def test_dyadic_marks_flat_weight(part_dyadic):
    for n, m in enumerate(part_dyadic.marks[:21]):
        assert m == 2 ** n


def test_dyadic_radii_flat_weight(w_const):
    rs = radii(w_const, 1.0, 12)
    for n, r in enumerate(rs):
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
