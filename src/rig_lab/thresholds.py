"""Closed-form statistics and threshold formulas, plus the inversions
needed to parameterize experiments.

The central quantities for a probability vector p over m features are

    S1   = sum_i n*p_i*(1 - (1-p_i)^(n-1))
    S2   = sum_i n*p_i*(1 - (1 - (1-2p_i)^n) / (2*n*p_i))
    S3   = sum_i n*p_i*((1 - (1-2p_i)^n) / (2*n*p_i) - (1-p_i)^(n-1))
    S1t  = sum_i t*C(n,t)*p_i^t*(1-p_i)^(n-t)        for t = 2..t_max

S1 is the expected total size of the non-singleton feature classes, S3 the
expected number of odd ones (size >= 3), S2 = S1 - S3, and S1t the size-t
slice, so S1 = sum_t S1t.  These drive both the coupling parameters and the
c-axis parameterization of the sweep experiments.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRangeError, ValidationError
from .sampling import FeatureProbabilities

DEFAULT_T_MAX = 12


def check_omega(omega) -> None:
    """Raise ValidationError unless omega, the coupling's slack, is a finite number > 0."""
    if isinstance(omega, bool) or not isinstance(omega, numbers.Real) or not 0 < omega < math.inf:
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

    def t_max(self) -> int:
        return len(self.S1t) + 1


@dataclass(frozen=True)
class CouplingParameters:
    """Edge/triangle probabilities for the sandwich graph built under a model.

    regime is "dominant-S3" when the odd mass S3 exceeds omega^2 * sqrt(S1)
    (the finite-n surrogate for S3 >> sqrt(S1)), else "small-S3" where the
    triangle layer is dropped.  variant "linear" uses the ratio forms;
    "exponential" uses the 1 - exp(-x) forms appropriate for dense models.
    Negative intermediate values clamp to 0 and set the matching flag.
    """

    p_hat: float
    p_hat2: float
    p_hat3: float
    regime: str
    variant: str
    omega: float
    clamped_p_hat: bool = False
    clamped_p_hat2: bool = False
    clamped_p_hat3: bool = False


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


def _fsum(terms: np.ndarray) -> float:
    """Compensated summation over features (m can reach 1e7)."""
    return math.fsum(terms.tolist())


def _s1(n: int, arr: np.ndarray) -> float:
    """S1 = sum_i n*p_i*(1 - (1-p_i)^(n-1)) over a probability array."""
    return _fsum(n * arr * -np.expm1((n - 1) * np.log1p(-arr)))


def summary_stats(n: int, p: FeatureProbabilities, t_max: int | None = None) -> ThresholdStats:
    """Evaluate S1, S2, S3 and S1t for t = 2..t_max."""
    if n < 2:
        raise ValidationError(f"need n >= 2, got {n}")
    if t_max is None:
        t_max = min(n, DEFAULT_T_MAX)
    if not (2 <= t_max <= n):
        raise ValidationError(f"t_max must lie in [2, {n}], got {t_max}")
    arr = p.as_array()
    np_i = n * arr
    q_pow = _pow_1m_p(arr, n - 1)                     # (1-p)^(n-1)
    one_m_w = _one_minus_pow_1m_2p(arr, n)            # 1 - (1-2p)^n
    # per-feature terms, expanded so that p never sits in a denominator
    s1 = _s1(n, arr)
    s2 = _fsum(np_i - one_m_w / 2.0)
    s3 = _fsum(one_m_w / 2.0 - np_i * q_pow)
    log_p = np.log(arr)
    log_q = np.log1p(-arr)
    s1t = []
    for t in range(2, t_max + 1):
        log_binom = math.lgamma(n + 1) - math.lgamma(t + 1) - math.lgamma(n - t + 1)
        terms = t * np.exp(log_binom + t * log_p + (n - t) * log_q)
        s1t.append(_fsum(terms))
    a_n = (s1t[0] / s1) if s1 > 0 else 0.0
    return ThresholdStats(n=n, m=p.m, S1=s1, S2=s2, S3=s3, S1t=tuple(s1t), a_n=a_n)


def _clamp01(x: float) -> tuple[float, bool]:
    if x < 0.0:
        return 0.0, True
    if x > 1.0:
        return 1.0, True
    return x, False


def coupling_parameters(
    stats: ThresholdStats,
    n: int,
    omega: float,
    variant: str = "linear",
) -> CouplingParameters:
    """Derive the sandwich probabilities (p_hat, p_hat2, p_hat3) from stats.

    variant "linear" divides shifted masses by 2*C(n,2) and C(n,3);
    variant "exponential" maps the same shifted masses through 1 - exp(-x/..),
    the form that stays valid when S1 grows like n^2.
    """
    check_omega(omega)
    if variant not in ("linear", "exponential"):
        raise ValidationError(f"unknown variant {variant!r}")
    s1, s2, s3 = stats.S1, stats.S2, stats.S3
    pairs2 = 2.0 * math.comb(n, 2)
    triples = float(math.comb(n, 3))
    dominant = s3 > omega * omega * math.sqrt(s1) if s1 > 0 else False
    regime = "dominant-S3" if dominant else "small-S3"

    if variant == "linear":
        raw_hat = (s2 - omega * math.sqrt(s2) - 2.0 * s2 * s2 / n**2) / pairs2
        if dominant:
            raw2 = (s1 - 3.0 * s3 - omega * math.sqrt(s1) - 2.0 * s1 * s1 / n**2) / pairs2
            raw3 = (s3 - omega * math.sqrt(s1) - 6.0 * s3 * s3 / n**3) / triples
        else:
            raw2 = (s1 - omega * math.sqrt(s1) - 2.0 * s1 * s1 / n**2) / pairs2
            raw3 = 0.0
    else:
        raw_hat = -math.expm1(-(s2 - omega * math.sqrt(s2)) / pairs2)
        if dominant:
            raw2 = -math.expm1(-(s1 - 3.0 * s3 - omega * math.sqrt(s1)) / pairs2)
            raw3 = -math.expm1(-(s3 - omega * math.sqrt(s1)) / triples)
        else:
            raw2 = -math.expm1(-(s1 - omega * math.sqrt(s1)) / pairs2)
            raw3 = 0.0

    p_hat, c_hat = _clamp01(raw_hat)
    p_hat2, c2 = _clamp01(raw2)
    p_hat3, c3 = _clamp01(raw3)
    return CouplingParameters(
        p_hat=p_hat,
        p_hat2=p_hat2,
        p_hat3=p_hat3,
        regime=regime,
        variant=variant,
        omega=omega,
        clamped_p_hat=c_hat,
        clamped_p_hat2=c2,
        clamped_p_hat3=c3,
    )


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
    lo, hi = rhs, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if per_feature_mass(n, mid) <= rhs:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(lo, 1e-300):
            break
    p = 0.5 * (lo + hi)
    resid = abs(per_feature_mass(n, p) - rhs) / rhs
    if resid > 1e-10:
        raise OutOfRangeError(f"bisection residual {resid:.3e} exceeds 1e-10 for target {rhs}")
    return p


def _scale_explicit(n: int, base: tuple[float, ...], s1_target: float) -> FeatureProbabilities:
    """Scale a base profile by a scalar (entries clipped into (0,1)) to hit S1,
    searching on arrays and building the FeatureProbabilities once."""
    base = np.asarray(base, dtype=np.float64)

    def scaled(scale: float) -> np.ndarray:
        # fmax, like the builtin max it replaced, clips a NaN entry to 1e-300
        return np.minimum(1.0 - 1e-12, np.fmax(1e-300, scale * base))

    hi = 1.0
    while _s1(n, scaled(hi)) < s1_target:
        hi *= 2.0
        if hi > 1e9:
            raise OutOfRangeError(f"explicit profile cannot reach S1 target {s1_target}")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _s1(n, scaled(mid)) <= s1_target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(hi, 1e-300):
            break
    probs = scaled(0.5 * (lo + hi))
    resid = abs(_s1(n, probs) - s1_target) / s1_target
    if resid > 1e-8:
        raise OutOfRangeError(
            f"profile scaling residual {resid:.2e} exceeds 1e-8 for S1 target {s1_target}")
    return FeatureProbabilities(tuple(probs.tolist()))


def refined_threshold_rhs(n: int, p: float, kind: str, k: int = 1) -> float:
    """Numerator of the refined homogeneous threshold displays (without c).

    kind "hamiltonicity":   ln n + ln(max{1, ln(np*e^(-np)*ln n / (1-e^(-np)))})
    kind "k-connectivity" / "min-degree" (same display):
        ln n + ln(max{1, (np)^(k-1) * (r^(k-1) + r)})   with
        r = e^(-np)*ln n / (1-e^(-np))

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
    elif kind in ("k-connectivity", "min-degree"):
        if k < 1:
            raise ValidationError(f"k must be positive, got {k}")
        inner = x ** (k - 1) * (r ** (k - 1) + r)
    else:
        raise ValidationError(f"unknown kind {kind!r}")
    return math.log(n) + math.log(max(1.0, inner))
