"""Weight-adapted block decompositions and lacunary-series criteria.

Given a normalized radial weight omega and a block exponent alpha > 0, the
radii r_n are defined by

    what(r_n) = integral of omega over [r_n, 1) = 2^(-n alpha),

the integer marks are M_n = floor(1/(1 - r_n)), and the index blocks are
I(n) = {k : M_n <= k < M_(n+1)}.  The block projection of an analytic
function f = sum a_k z^k is Delta_n f = sum over k in I(n) of a_k z^k.

The central equivalences realized here compare weighted mixed norms of f
with weighted l^q sums of the Hardy norms of its blocks,

    ||f||_(p,q,omega) ~ (sum_n 2^(-n alpha) ||Delta_n f||_{H^p}^q)^(1/q),

together with a gamma-weighted variant for derivatives, a block growth
criterion for membership in the Lipschitz-type symbol class and
omega-lacunary gap tests.  The Hardy norms of all blocks, for every p
asked, come from one batched circle-mean call per function and partition.

All radii are stored and solved in the variable u = 1 - r, which keeps
full relative precision as r_n crowds toward 1 (for rapidly increasing
weights u_n underflows long before r_n distinguishes itself from 1.0).
"""

import math
import warnings

import numpy as np

from .analytic import AnalyticFunction, _slice_norms
from .errors import DomainError
from .results import finite, undetermined

#: marks above this are not materialized as integer blocks
_MARK_CAP = 2 ** 31

#: relative distance at which 1/u_n counts as a near-integer tie
_TIE_TOL = 1e-9

#: largest log-log slope of b_k that lacunary_sup_test reads as bounded
_SLOPE_TOL = 0.2


def _solve_radius_u(w, target):
    """Solve tail(w, 1-u) = target for u in (0, 1], by Newton steps in log u.

    The tail is increasing in u, so the bracket in s = log u is monotone.
    Each step is Newton's on log tail, whose derivative in s is
    u omega(1-u) / tail: one density evaluation next to the tail's.  A step
    that leaves the bracket, or fails to halve the step before it, is a
    bisection instead.  Tolerance is 1e-12 absolute in r (i.e. in u) or
    1e-12 relative in the tail value, whichever binds first; for rapidly
    increasing weights the radius tolerance alone cannot separate
    consecutive radii, the tail tolerance can.  Returns u; underflow to 0.0
    signals "beyond double precision".
    """
    if target >= w.tail_u(1.0):
        return 1.0
    s_hi = 0.0       # u = 1
    s_lo = -1.0
    while w.tail_u(math.exp(s_lo)) > target:
        s_lo *= 2.0
        if s_lo < -745.0:          # exp underflows: radius indistinguishable from 1
            return 0.0
    log_target = math.log(target)
    s = 0.5 * (s_lo + s_hi)
    step_old = s_hi - s_lo
    for _ in range(200):
        u = math.exp(s)
        t = float(w.tail_u(u))
        if abs(t - target) <= 1e-12 * target:
            return u
        if t > target:
            s_hi = s
        else:
            s_lo = s
        if s_hi - s_lo < 1e-13:
            break
        slope = u * float(w.density_u(u)) / t if t > 0 else math.nan
        step = (math.log(t) - log_target) / slope if slope > 0 else math.nan
        if s_lo < s - step < s_hi and abs(step) <= 0.5 * abs(step_old):
            s -= step
        else:
            step = s - 0.5 * (s_lo + s_hi)
            s -= step
        step_old = step
    return math.exp(0.5 * (s_lo + s_hi))


def _mark_from_u(u):
    """M = floor(1/u) with deterministic near-tie handling.

    When 1/u sits within relative 1e-9 of an integer the floor is
    discontinuous under quadrature noise; we snap to the nearest integer
    so fixtures stay stable.
    """
    if u <= 0.0:
        return None
    x = 1.0 / u
    nearest = round(x)
    if nearest >= 1 and abs(x - nearest) <= _TIE_TOL * max(1.0, x):
        return int(nearest)
    return int(math.floor(x))


class BlockPartition:
    """Radii, marks and index blocks of an (omega, alpha) decomposition.

    Immutable after construction.  ``marks`` lists M_0..M_K with M_K past
    the requested degree when the partition fully covers it; for rapidly
    increasing weights the marks explode doubly exponentially and the
    partition stops at the cap, reporting partial coverage via ``complete``
    and ``covered_degree``.
    """

    def __init__(self, weight, alpha, us, marks, complete):
        self.weight = weight
        self.alpha = float(alpha)
        self.us = tuple(us)                      # u_n = 1 - r_n
        self.radii = tuple(1.0 - u for u in us)
        self.marks = tuple(marks)
        self.complete = bool(complete)
        self._mark_cache = {}                    # continuation marks beyond K
        self._validate()

    def _validate(self):
        if self.marks[0] != 1:
            raise DomainError("partition must start at M_0 = 1")
        if any(b < a for a, b in zip(self.marks, self.marks[1:])):
            raise DomainError("marks must be nondecreasing")
        if any(b > a for a, b in zip(self.us, self.us[1:])):
            raise DomainError("radii must be nondecreasing")
        for n, u in enumerate(self.us):
            target = 2.0 ** (-n * self.alpha)
            t = float(self.weight.tail_u(u))
            if not math.isclose(t, target, rel_tol=1e-9):
                raise DomainError("tail(r_%d) = %g misses 2^(-%d alpha) = %g"
                                  % (n, t, n, target))

    @property
    def block_count(self):
        return len(self.marks) - 1

    @property
    def covered_degree(self):
        """Largest degree d such that every k <= d lies in some block."""
        return self.marks[-1] - 1

    def blocks(self):
        """Half-open index ranges [M_n, M_(n+1)); block 0 starts at k = 0."""
        out = []
        for n in range(self.block_count):
            lo = 0 if n == 0 else self.marks[n]
            out.append((lo, self.marks[n + 1]))
        return out

    def block_index(self, k):
        if not 0 <= k <= self.covered_degree:
            raise DomainError("index %d not covered (partition reaches %d)"
                              % (k, self.covered_degree))
        for n in range(self.block_count):
            if k < self.marks[n + 1]:
                return n
        raise AssertionError("unreachable")

    def mark_float(self, n):
        """M_n continued past the stored blocks as a float (may be huge).

        Used by the series majorants, which only ever need r^(M_n): values
        past 1/u underflowing are returned as inf and the corresponding
        power r^(M_n) is exactly 0 for r < 1.  Near-integer 1/u snaps as
        for the stored marks (``_mark_from_u``).
        """
        if n < len(self.marks):
            return float(self.marks[n])
        m = self._mark_cache.get(n)
        if m is None:
            m = _mark_from_u(_solve_radius_u(self.weight, 2.0 ** (-n * self.alpha)))
            m = math.inf if m is None else m
            self._mark_cache[n] = m
        return m

    def __repr__(self):
        return ("BlockPartition(%s, alpha=%g, %d blocks, covers degree %d%s)"
                % (self.weight, self.alpha, self.block_count,
                   self.covered_degree, "" if self.complete else ", partial"))


def _require_normalized(w):
    if abs(w.total_mass - 1.0) > 1e-9:
        raise DomainError("weight must be normalized to unit mass "
                          "(total mass = %g); call .normalized()" % w.total_mass)
    return w


def partition(w, alpha, max_degree):
    """Build the (omega, alpha) block partition covering degrees <= max_degree.

    Marks are capped at 2^31; if the cap is reached before max_degree is
    covered the partition is returned with ``complete = False`` and callers
    must check coverage.
    """
    w = _require_normalized(w)
    if not 0 < alpha < math.inf:                    # NaN fails both
        raise DomainError("block exponent alpha must be finite and positive")
    if max_degree < 0:
        raise DomainError("max_degree must be nonnegative")
    us = [1.0]
    marks = [1]
    complete = True
    n = 0
    while marks[-1] <= max_degree:
        n += 1
        u = _solve_radius_u(w, 2.0 ** (-n * alpha))
        m = _mark_from_u(u)
        if m is None or m > _MARK_CAP:
            complete = False
            break
        us.append(u)
        marks.append(m)
    return BlockPartition(w, alpha, us, marks, complete)


def block(f, part, n):
    """Delta_n f: the exact coefficient slice of f over I(n)."""
    if not 0 <= n < part.block_count:
        raise DomainError("block index %d out of range [0, %d)"
                          % (n, part.block_count))
    lo = 0 if n == 0 else part.marks[n]
    hi = part.marks[n + 1]
    c = np.zeros(min(hi, len(f.coefficients)), dtype=complex)
    top = min(hi, len(f.coefficients))
    if lo < top:
        c[lo:top] = f.coefficients[lo:top]
    return AnalyticFunction(c if len(c) else [0.0])


def block_hardy_norms(f, ps, part):
    """(norms, nodes, capped) of the blocks Delta_n f for every p in ``ps``,
    each of shape (len(ps), blocks): ||Delta_n f||_{H^p}, the circle nodes
    used (0 for p = 2 and for zero blocks) and whether they hit the 2^18
    cap.  Circle means are invariant under the shift z^(-M_n), so each block
    is a polynomial of its own length; all blocks and p take one batched
    call, bit for bit hardy_mean(slice, p, 1.0) of each block's slice.
    """
    ps = [float(p) for p in ps]
    if not all(0 < p < math.inf for p in ps):       # NaN fails both
        raise DomainError("hardy mean requires finite p > 0")
    if f.degree > part.covered_degree:
        raise DomainError("function degree %d exceeds partition coverage %d"
                          % (f.degree, part.covered_degree))
    # a block ends at its last nonzero coefficient; index -1 (none below hi)
    # wraps past the block, and a block without one is zero
    nz = np.nonzero(f.coefficients)[0]
    last = nz[np.searchsorted(nz, part.marks[1:]) - 1].tolist() if len(nz) else []
    live = [(n, (lo, top + 1)) for n, ((lo, hi), top) in enumerate(zip(part.blocks(), last))
            if lo <= top < hi]
    out = np.zeros((3, len(ps), part.block_count))
    if live:
        out[:, :, [n for n, _ in live]] = _slice_norms(f.coefficients, [b for _, b in live], ps)
    return out[0], out[1].astype(int), out[2].astype(bool)


def capped_blocks(capped, p=None, of=""):
    """The indices of the blocks whose circle nodes hit the 2^18 cap, from a
    ``capped`` row of ``block_hardy_norms``.  A value with a verdict turns
    ``undetermined`` and lists them; a caller with no verdict to carry the
    cap passes the row's ``p`` (and ``of``, naming the function) and gets a
    DomainError naming the blocks instead.
    """
    bad = np.nonzero(capped)[0].tolist()
    if bad and p is not None:
        raise DomainError("the H^%g norms of blocks %s%s hit the 2^18 circle-node cap "
                          "and are undetermined" % (p, ",".join(map(str, bad)), of))
    return bad


def decomposition_norm(f, p, q, part):
    """(sum_n 2^(-n alpha) ||Delta_n f||_{H^p}^q)^(1/q), the block l^q norm.

    Exact per-block Hardy norms; equivalent (with weight-dependent
    constants) to the mixed norm of f against omega with the same (p, q).
    Equal-length sequences p and q give one value per pair, from one
    batched ``block_hardy_norms`` call.  The diagnostics carry the largest
    block ``nodes``; blocks whose nodes hit the 2^18 cap make the value
    ``undetermined``, listed as ``capped_blocks``.
    """
    scalar = isinstance(p, (int, float, np.number))
    pairs = [(p, q)] if scalar else list(zip(p, q))
    if not scalar and len(p) != len(q):
        raise DomainError("decomposition_norm needs one q per p")
    if not all(1 < a < math.inf and 0 < b < math.inf for a, b in pairs):
        raise DomainError("decomposition_norm requires finite p > 1 and q > 0")
    ps = list(dict.fromkeys(float(a) for a, _ in pairs))
    norms, nodes, capped = block_hardy_norms(f, ps, part)
    wts = 2.0 ** (-np.arange(part.block_count) * part.alpha)
    out = []
    for a, b in pairs:
        k = ps.index(float(a))
        bad = capped_blocks(capped[k])
        out.append(undetermined(method="truncation", blocks=part.block_count,
                                capped_blocks=bad) if bad else
                   finite(float((wts * norms[k] ** b).sum()) ** (1.0 / b), method="truncation",
                          blocks=part.block_count, nodes=max(nodes[k].tolist(), default=0)))
    return out[0] if scalar else out


def decomposition_norm_gamma(g, q, p, gamma, part):
    """sum_n 2^(-n) ||Delta_n g||_{H^q}^p / M_n^gamma, for alpha = 1 partitions.

    Returns the raw sum (not its p-th root): it is the quantity compared
    against the p-th power of the gamma-weighted mixed norm.  At gamma = 0
    the sum equals decomposition_norm(g, q, p, part)**p.  Blocks whose
    nodes hit the 2^18 cap make the sum ``undetermined``, listed as
    ``capped_blocks``.
    """
    if q <= 1:
        raise DomainError("decomposition_norm_gamma requires q > 1")
    if abs(part.alpha - 1.0) > 1e-12:
        raise DomainError("partition must be built with alpha = 1")
    norms, _, capped = block_hardy_norms(g, [q], part)
    bad = capped_blocks(capped[0])
    if bad:
        return undetermined(method="truncation", blocks=part.block_count,
                            capped_blocks=bad)
    norms = norms[0]
    ns = np.arange(part.block_count)
    ms = np.array(part.marks[:-1], dtype=float)
    ms[0] = 1.0                                   # block 0 uses M_0 = 1
    s = float(np.sum(2.0 ** (-ns) * norms ** p / ms ** gamma))
    return finite(s, method="truncation", blocks=part.block_count)


def block_criterion_lambda(g, q, p, eta, part):
    """Block growth functional for the Lipschitz-type symbol class.

    Returns (sup_n 2^(n eta) ||Delta_n g'||_{H^q} / M_n^(1-1/p), profile),
    where the profile lists the per-block values; decay of the profile to 0
    is the compactness-side (little-lambda) criterion.  A profile has no
    verdict to carry a cap, so blocks whose nodes hit the 2^18 cap raise a
    DomainError naming them.
    """
    if abs(part.alpha - 1.0) > 1e-12:
        raise DomainError("partition must be built with alpha = 1")
    if not 0 <= eta < 1.0 / p:
        raise DomainError("eta must lie in [0, 1/p)")
    norms, _, capped = block_hardy_norms(g.derivative(), [q], part)
    capped_blocks(capped[0], q, of=" of g'")
    norms = norms[0]
    ns = np.arange(part.block_count)
    ms = np.array(part.marks[:-1], dtype=float)
    ms[0] = 1.0
    profile = 2.0 ** (ns * eta) * norms / ms ** (1.0 - 1.0 / p)
    return float(np.max(profile)) if len(profile) else 0.0, profile


# ---------------------------------------------------------------------------
# omega-lacunary series

def is_omega_lacunary(exponents, w, lam):
    """Gap test: tail(1 - 1/n_k) / tail(1 - 1/n_(k+1)) >= lam for all k.

    Returns (ok, witness) where witness is the first violating index k (or
    None), plus the ratio list for diagnostics.
    """
    if not lam > 1:                                 # NaN fails
        raise DomainError("gap threshold must exceed 1")
    exps = [int(n) for n in exponents]
    if any(b <= a for a, b in zip(exps, exps[1:])) or (exps and exps[0] < 1):
        raise DomainError("exponents must be strictly increasing and >= 1")
    tails = [float(w.tail_u(1.0 / n)) for n in exps]
    ratios = [tails[k] / tails[k + 1] for k in range(len(exps) - 1)]
    for k, r in enumerate(ratios):
        if r < lam:
            return False, k, ratios
    return True, None, ratios


def lacunary_norm(coeffs, exponents, q, w, gap=1.05):
    """sum_k |a_k|^q omega_(n_k) with omega_n the odd radial moment.

    The sum characterizes (up to constants) the q-th power of every mixed
    norm of the gap series sum a_k z^(n_k); the gap hypothesis is checked
    and a warning issued when it fails (the identity then loses meaning,
    but the sum is still returned).
    """
    if not 0 < q < math.inf:                        # NaN fails both
        raise DomainError("lacunary_norm requires finite q > 0")
    coeffs = np.asarray(coeffs, dtype=complex)
    exps = [int(n) for n in exponents]
    if len(coeffs) != len(exps):
        raise DomainError("coefficients and exponents must align")
    ok, k_bad, _ = is_omega_lacunary(exps, w, gap)
    if not ok:
        warnings.warn("series is not omega-lacunary (gap fails at k=%d); "
                      "the moment sum no longer bounds the norm" % k_bad,
                      stacklevel=2)
    s = 0.0
    for a, n in zip(coeffs, exps):
        if a == 0:
            continue
        s += abs(a) ** q * w.moment(n)
    return finite(s, method="truncation", terms=len(exps), lacunary=ok)


def lacunary_sup_test(coeffs, exponents, w, beta):
    """Coefficient criterion |a_k| <= C (integral of r^(n_k) omega)^(-beta).

    Computes b_k = |a_k| * moment_plain(n_k)^beta; the series belongs to
    the corresponding sup-norm space iff b_k stays bounded.  A finite
    sample cannot see boundedness directly, so membership is decided by
    the trend: the fitted log-log slope of b_k over the second half of the
    indices must not exceed ``_SLOPE_TOL``.  Returns (member, margin) with
    margin = max_k b_k.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    exps = [int(n) for n in exponents]
    if len(coeffs) != len(exps):
        raise DomainError("coefficients and exponents must align")
    b = np.array([abs(a) * w.moment_plain(n) ** beta
                  for a, n in zip(coeffs, exps)])
    margin = float(np.max(b)) if len(b) else 0.0
    nz = np.nonzero(b)[0]
    if len(nz) < 4:
        return True, margin
    half = nz[len(nz) // 2:]
    slope = np.polyfit(np.log(half + 1.0), np.log(b[half]), 1)[0]
    return bool(slope <= _SLOPE_TOL), margin
