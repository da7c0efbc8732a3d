"""Closed-form statistics and threshold formulas, plus the inversions
needed to parameterize experiments.

The central quantities for a probability vector p over m features are

    S1   = sum_i n*p_i*(1 - (1-p_i)^(n-1))
    S2   = sum_i n*p_i*(1 - (1 - (1-2p_i)^n) / (2*n*p_i))
    S3   = sum_i n*p_i*((1 - (1-2p_i)^n) / (2*n*p_i) - (1-p_i)^(n-1))
    S1t  = sum_i t*C(n,t)*p_i^t*(1-p_i)^(n-t)        for t = 2..t_max

S1 is the expected total size of the non-singleton feature classes, S3 the
expected number of odd ones (size >= 3), S2 = S1 - S3, and S1t the size-t
slice, so S1 = sum_t S1t.  These drive both the coupling's sandwich law and
the c-axis parameterization of the sweep experiments.

Each sum evaluates its term once per distinct p_i and adds it with the
value's multiplicity exactly (``_fsum``), so the result is the correctly
rounded sum over all m features at the cost of the distinct values.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRangeError, ValidationError
from .sampling import FeatureProbabilities

DEFAULT_T_MAX = 12


def _is_finite(value) -> bool:
    """Whether value is a number, not a bool, that converts to a finite float."""
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an int past the float range
        return False


def check_omega(omega) -> None:
    """Raise ValidationError unless omega, the coupling's slack, is a finite number > 0."""
    if not (_is_finite(omega) and omega > 0):
        raise ValidationError(f"omega must be a finite positive number, got {omega!r}")


def default_omega(n: int) -> float:
    """Slowly growing divergence knob; recorded in every report that uses it."""
    if n >= 3:
        return max(2.0, math.log(math.log(n)))
    return 2.0


@dataclass(frozen=True)
class ThresholdStats:
    """Feature-sum statistics for one (n, p) model.

    S1t[j] holds the size-(j+2) slice, i.e. S1t[0] is the t=2 term.
    a_n = S1t[0] / S1 when S1 > 0.
    """

    n: int
    m: int
    S1: float
    S2: float
    S3: float
    S1t: tuple[float, ...]
    a_n: float


def _pow_1m_p(p: np.ndarray, k: int) -> np.ndarray:
    """(1-p)^k without cancellation, for p in (0,1)."""
    return np.exp(k * np.log1p(-p))


def _one_minus_pow_1m_2p(p: np.ndarray, k: int) -> np.ndarray:
    """1 - (1-2p)^k, kept accurate when the power is close to 1 (tiny p)."""
    out = np.empty_like(p)
    lo = p < 0.5
    hi = p > 0.5
    out[lo] = -np.expm1(k * np.log1p(-2.0 * p[lo]))
    sign = -1.0 if k % 2 else 1.0
    out[hi] = 1.0 - sign * np.exp(k * np.log(2.0 * p[hi] - 1.0))
    out[~lo & ~hi] = 1.0
    return out


def _distinct(values: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The distinct entries of values, ascending, and the ``_fsum`` weights of
    their multiplicities."""
    distinct, counts = np.unique(values, return_counts=True)
    return distinct, _weights(counts)


def _weights(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The binary expansion of nonnegative counts as ``(index, factor)``: one
    piece per set bit b of counts[i], with index i and factor 2**b."""
    bits = np.arange(int(counts.max(initial=0)).bit_length())
    index, bit = np.nonzero((counts[:, None] >> bits) & 1)
    return index, np.ldexp(1.0, bit)


def _fsum(terms: np.ndarray, weights: tuple[np.ndarray, np.ndarray]) -> float:
    """The sum of counts[i] copies of terms[i], correctly rounded, for the
    ``_weights`` of counts: ``math.fsum`` over the pieces terms[i] * 2**b.
    Scaling by a power of two is exact, so this equals ``math.fsum`` over
    the expanded list, which can hold m = 1e7 terms."""
    index, factor = weights
    return math.fsum((terms[index] * factor).tolist())


def _s1(n: int, arr: np.ndarray, weights: tuple[np.ndarray, np.ndarray]) -> float:
    """S1 = sum_i n*p_i*(1 - (1-p_i)^(n-1)) over distinct probabilities and
    the weights of their multiplicities."""
    return _fsum(n * arr * -np.expm1((n - 1) * np.log1p(-arr)), weights)


def summary_stats(n: int, p: FeatureProbabilities, t_max: int | None = None) -> ThresholdStats:
    """Evaluate S1, S2, S3 and S1t for t = 2..t_max, each term once per
    distinct probability value."""
    if n < 2:
        raise ValidationError(f"need n >= 2, got {n}")
    if t_max is None:
        t_max = min(n, DEFAULT_T_MAX)
    if not (2 <= t_max <= n):
        raise ValidationError(f"t_max must lie in [2, {n}], got {t_max}")
    arr, weights = _distinct(p.values)
    np_i = n * arr
    q_pow = _pow_1m_p(arr, n - 1)                     # (1-p)^(n-1)
    one_m_w = _one_minus_pow_1m_2p(arr, n)            # 1 - (1-2p)^n
    # per-feature terms, expanded so that p never sits in a denominator
    s1 = _s1(n, arr, weights)
    s2 = _fsum(np_i - one_m_w / 2.0, weights)
    s3 = _fsum(one_m_w / 2.0 - np_i * q_pow, weights)
    log_p = np.log(arr)
    log_q = np.log1p(-arr)
    s1t = []
    for t in range(2, t_max + 1):
        log_binom = math.lgamma(n + 1) - math.lgamma(t + 1) - math.lgamma(n - t + 1)
        terms = t * np.exp(log_binom + t * log_p + (n - t) * log_q)
        s1t.append(_fsum(terms, weights))
    a_n = (s1t[0] / s1) if s1 > 0 else 0.0
    return ThresholdStats(n=n, m=p.m, S1=s1, S2=s2, S3=s3, S1t=tuple(s1t), a_n=a_n)


def sandwich_law(stats: ThresholdStats, omega: float) -> tuple[str, float, float, float]:
    """(regime, pair mean, triple mean, slack) of the sandwich graph
    H2(n, p_hat2) u proj H3(n, p_hat3) that the coupling chain draws.

    The chain takes Poisson(pair mean) uniform pairs, with pair mean
    (S1 - 3*S3 - 5*omega*sqrt(S1))/2, and Poisson(triple mean) uniform
    triples, with triple mean S3 - 2*omega*sqrt(S1); by the Poissonization
    identity p_hat_i = 1 - exp(-mean_i / C(n, i)).  The slack omega*sqrt(S1)
    bounds |sum of active sizes - S1| in the size-concentration guards.
    regime is "dominant-S3" when S3 > omega^2 * sqrt(S1) (the finite-n
    surrogate for S3 >> sqrt(S1)), else "small-S3".  An omega so large that a
    mean or the slack overflows is a ValidationError, as is a nonpositive one.
    """
    check_omega(omega)
    s1, s3 = stats.S1, stats.S3
    sqrt_s1 = math.sqrt(s1)
    regime = "dominant-S3" if s3 > omega * omega * sqrt_s1 else "small-S3"
    mean_pairs = (s1 - 3.0 * s3 - 5.0 * omega * sqrt_s1) / 2.0
    mean_triples = s3 - 2.0 * omega * sqrt_s1
    slack = omega * sqrt_s1
    if not all(map(math.isfinite, (mean_pairs, mean_triples, slack))):
        raise ValidationError(f"omega = {omega!r} overflows the sandwich law: pair mean "
                              f"{mean_pairs}, triple mean {mean_triples}, slack {slack}")
    return regime, mean_pairs, mean_triples, slack


def limit_probability(c: float) -> float:
    """The double-exponential limit law f(c) = exp(-exp(-c)).

    f(-inf) = 0, f(+inf) = 1, strictly increasing in between.
    """
    if isinstance(c, float) and math.isnan(c):
        raise ValidationError("limit_probability is undefined for NaN")
    c = float(c)
    if c == -math.inf:
        return 0.0
    if c == math.inf:
        return 1.0
    return math.exp(-math.exp(-c))


def per_feature_mass(n: int, p: float) -> float:
    """g(p) = p*(1 - (1-p)^(n-1)); S1 = n*m*g(p) for a homogeneous model."""
    return p * -math.expm1((n - 1) * math.log1p(-p))


def poisson_hit_probability(n: int, i: int, mean: float) -> float:
    """Probability that Poisson(max(0, mean)) uniform draws of i-subsets of n
    vertices hit a given one: 1 - exp(-max(0, mean) / C(n, i)), the
    Poissonization identity, or 0 when there is no i-subset."""
    subsets = math.comb(n, i)
    return -math.expm1(-max(mean, 0.0) / subsets) if subsets else 0.0


def _bisect(f, lo: float, hi: float, rel: float) -> float:
    """Midpoint of [lo, hi] after halving it around the root of an increasing f
    (f(mid) <= 0 keeps lo) until hi - lo <= rel * max(lo, 1e-300), at most 200 times."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rel * max(lo, 1e-300):
            break
    return 0.5 * (lo + hi)


def homogeneous_p_for_target(n: int, m: int, rhs: float) -> float:
    """Solve p*(1 - (1-p)^(n-1)) = rhs for p in (0,1) by bisection.

    g is strictly increasing on (0,1) with range (0,1) for n >= 2, so the
    solve is well posed whenever 0 < rhs < 1.  Relative tolerance 1e-12 on
    p, with a residual check of 1e-10 on the target.
    """
    if n < 2:
        raise ValidationError(f"need n >= 2, got {n}")
    if m < 1:
        raise ValidationError(f"feature count must be positive, got {m}")
    if not (0.0 < rhs < 1.0):
        raise OutOfRangeError(
            f"target {rhs} outside the attainable range (0, 1) of p*(1-(1-p)^(n-1)) "
            f"at n={n}, m={m}"
        )
    # g(p) <= p, so lo = rhs keeps g(lo) <= rhs; g(1) = 1 > rhs
    p = _bisect(lambda q: per_feature_mass(n, q) - rhs, rhs, 1.0, 1e-12)
    resid = abs(per_feature_mass(n, p) - rhs) / rhs
    if not resid <= 1e-10:
        raise OutOfRangeError(f"bisection residual {resid:.3e} exceeds 1e-10 for target {rhs}")
    return p


def _scale_explicit(n: int, base: tuple[float, ...], s1_target: float) -> FeatureProbabilities:
    """Scale a base profile by a scalar (entries clipped into (0,1)) to hit S1,
    searching on the base's distinct values and building the full profile once.
    Clipping may merge two values; the sum is exact either way."""
    base = np.asarray(base, dtype=np.float64)
    distinct, weights = _distinct(base)

    def scaled(scale: float, values: np.ndarray) -> np.ndarray:
        return np.minimum(1.0 - 1e-12, np.fmax(1e-300, scale * values))

    def excess(scale: float) -> float:
        return _s1(n, scaled(scale, distinct), weights) - s1_target

    hi = 1.0
    while excess(hi) < 0:
        hi *= 2.0
        if hi > 1e9:
            raise OutOfRangeError(f"explicit profile cannot reach S1 target {s1_target}")
    scale = _bisect(excess, 0.0, hi, 1e-13)
    resid = abs(excess(scale)) / s1_target
    if not resid <= 1e-8:
        raise OutOfRangeError(
            f"profile scaling residual {resid:.2e} exceeds 1e-8 for S1 target {s1_target}")
    return FeatureProbabilities(scaled(scale, base))


def refined_threshold_rhs(n: int, p: float, kind: str, k: int = 1) -> float:
    """Numerator of the refined homogeneous threshold displays (without c).

    kind "hamiltonicity":   ln n + ln(max{1, ln(np*e^(-np)*ln n / (1-e^(-np)))})
    kind "k-connectivity":  ln n + ln(max{1, (np)^(k-1) * (r^(k-1) + r)})   with
                            r = e^(-np)*ln n / (1-e^(-np))

    The k-connectivity term is taken in logarithms only where the plain
    product overflows; a k too large even for that raises OverflowError.
    The caller adds its grid value c and divides by m.
    """
    if not (0.0 < p < 1.0):
        raise ValidationError(f"p must lie in (0, 1), got {p}")
    if n < 2:
        raise ValidationError(f"need n >= 2, got {n}")
    x = n * p
    r = math.exp(-x) * math.log(n) / -math.expm1(-x)
    if kind == "hamiltonicity":
        inner_arg = x * math.exp(-x) * math.log(n) / -math.expm1(-x)
        inner = math.log(inner_arg) if inner_arg > 0 else -math.inf
    elif kind == "k-connectivity":
        if k < 1:
            raise ValidationError(f"k must be positive, got {k}")
        try:
            inner = x ** (k - 1) * (r ** (k - 1) + r)
        except OverflowError:
            inner = math.inf
        if inner == math.inf:  # in logs, with ln r = ln ln n - np - ln(1 - e^(-np))
            log_x, log_r = math.log(x), math.log(math.log(n)) - x - math.log(-math.expm1(-x))
            log_inner = np.logaddexp((k - 1) * (log_x + log_r), (k - 1) * log_x + log_r)
            return math.log(n) + max(0.0, float(log_inner))
    else:
        raise ValidationError(f"unknown kind {kind!r}")
    return math.log(n) + math.log(max(1.0, inner))


def refined_p_for_target(n: int, m: int, kind: str, k: int, c: float) -> float:
    """Solve m*g(p) = refined_threshold_rhs(n, p, kind, k) + c for p in (0,1)
    by bisection, with g = per_feature_mass; relative tolerance 1e-13 on p and
    a residual check of 1e-8 on the target."""

    def h(p: float) -> float:
        return m * per_feature_mass(n, p) - refined_threshold_rhs(n, p, kind, k) - c

    lo, hi = 1e-15, 1.0 - 1e-15
    if not h(lo) <= 0 <= h(hi):
        raise OutOfRangeError(f"refined target not bracketed on (0,1) at n={n}, m={m}, c={c}")
    p = _bisect(h, lo, hi, 1e-13)
    target = (refined_threshold_rhs(n, p, kind, k) + c) / m
    if not (target > 0 and abs(per_feature_mass(n, p) - target) / target <= 1e-8):
        raise OutOfRangeError(f"refined solve residual too large at n={n}, m={m}, c={c}")
    return p
