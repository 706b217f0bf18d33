"""Certified evaluation of the real special functions behind the norm bounds.

Closed forms return plain floats.  Series evaluations return a
CertifiedValue, a (value, error_bound) pair guaranteeing

    |value - exact| <= error_bound.

Error bounds account for truncation, and the series' bounds add an
a-priori rounding term; the moment tails are assembled in log space, where
rounding scales with the size of the logs, so ``log_moment_tail`` is rounded
outward.  The module is plain Python; numpy is left to the matrix layer.

Contents:

* ``zeta(s)``: Riemann zeta for real s > 1 by Euler-Maclaurin summation with
  the B2 correction term.  The remainder is bounded by the magnitude of the
  first omitted Bernoulli term, plus a bound on the rounding.
* ``log_moment_sum(s, i)``: sum_{k>=1} (log k)^i k^(-s) by the same engine
  (zeta is its i = 0 case), with the incomplete-gamma integral and the B4 term.
* ``log_moment_tail(s, i, J)``: a certified upper bound on the tail
  sum_{k>J} (log k)^i k^(-s), shared by the series and the matrix layer.
* ``lower_bound_h``, ``lower_bound_g``, ``lower_bound_f``: closed-form
  comparison functions for zeta lower bounds,

      h(s) = 1/(s-1) + ((s-1)/s) / sqrt(2 pi)
      g(x) = (414 + 49 x - 6 x^2 - x^3) / 720
      f(x) = (x/(x+1)) / sqrt(2 pi)

* ``crossing_root()``: the unique positive solution of f(x) = g(x), located
  by bisection on the bracket [0.1, 10].
* ``verification_suite()``: grid checks of the inequalities the norm bounds
  rest on, each reported with its worst margin.
* ``linspace``, ``geomspace``: the fixed grids, by numpy's formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul

from .errors import BracketingError, BudgetExhaustedError, DomainError

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
UNIT_ROUNDOFF = 2.0**-53


@dataclass(frozen=True)
class PrecisionBudget:
    """Tolerance and work limits for certified series evaluation.

    The achieved error bound must satisfy
    ``error_bound <= max(abs_tol, rel_tol * |value|)``; otherwise the
    evaluation raises BudgetExhaustedError instead of silently degrading.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_terms: int = 10**6

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0 and math.isfinite(self.abs_tol)):
            raise DomainError(f"abs_tol must be positive and finite, got {self.abs_tol}")
        if not (self.rel_tol > 0.0 and math.isfinite(self.rel_tol)):
            raise DomainError(f"rel_tol must be positive and finite, got {self.rel_tol}")
        if not (isinstance(self.max_terms, int) and self.max_terms >= 16):
            raise DomainError(f"max_terms must be an int >= 16, got {self.max_terms}")


DEFAULT_BUDGET = PrecisionBudget()


@dataclass(frozen=True)
class CertifiedValue:
    """A value together with a rigorous absolute error bound."""

    value: float
    error_bound: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise DomainError(f"certified value must be finite, got {self.value}")
        if not (self.error_bound >= 0.0):
            raise DomainError(f"error bound must be >= 0, got {self.error_bound}")

    @property
    def lower(self) -> float:
        return self.value - self.error_bound

    @property
    def upper(self) -> float:
        return self.value + self.error_bound


def zeta(s: float, budget: PrecisionBudget = DEFAULT_BUDGET) -> CertifiedValue:
    """Certified zeta(s) for real s > 1.

    The direct sum over k < N plus the Euler-Maclaurin tail from N, with N
    chosen so that the remainder bound s (s+1) (s+2) N^(-s-3) / 720 meets
    the budget.  The error bound is that remainder plus the a-priori
    rounding bound of ``_zeta_rounding``; where the two together exceed the
    tolerance, N is raised for what the rounding leaves of it.
    """
    s = float(s)
    if not s > 1.0:
        raise DomainError(f"zeta requires s > 1, got {s}")

    # zeta(s) >= max(1, 1/(s-1)) gives a safe pre-estimate for the relative target.
    target = max(budget.abs_tol, budget.rel_tol * max(1.0, 1.0 / (s - 1.0)))
    need = (_em_remainder_coef(s) / target) ** (1.0 / (s + 3.0))
    n = min(max(16, int(math.ceil(need))), budget.max_terms)
    while True:
        partial = math.fsum(map(pow, range(1, n), repeat(-s, n - 1)))
        value, remainder, rounding = _euler_maclaurin_tail(s, n, partial)
        tol = max(budget.abs_tol, budget.rel_tol * abs(value))
        room = tol - rounding
        if remainder <= room or room <= 0.0 or n >= budget.max_terms:
            break
        need = (_em_remainder_coef(s) / room) ** (1.0 / (s + 3.0))
        n = min(max(n + 1, int(math.ceil(need))), budget.max_terms)
    return _certified(f"zeta({s})", n, budget, value, remainder, rounding)


def _certified(
    what: str, n: int, budget: PrecisionBudget, value: float, remainder: float, rounding: float
) -> CertifiedValue:
    """value with error bound remainder + rounding, or BudgetExhaustedError past the budget."""
    tol = max(budget.abs_tol, budget.rel_tol * abs(value))
    err = remainder + rounding
    if err > tol:
        raise BudgetExhaustedError(
            f"{what} misses the requested tolerance {tol:.3e} with {n} terms "
            f"(max_terms = {budget.max_terms}); achieved error bound {err:.3e}, "
            f"of which {rounding:.3e} is rounding",
            achieved_error_bound=err,
        )
    return CertifiedValue(value, err)


def _zeta_rounding(s: float, n: int, partial: float, value: float) -> float:
    """A-priori bound on the rounding error of zeta's ``value``.

    With u = 2^-53 and T = value - partial the Euler-Maclaurin tail:

    * each k^-s of the head is within one ulp (2u relative) of exact, and
      math.fsum rounds their sum once, so the head is off by at most
      3u partial;
    * the tail terms n^(1-s)/(s-1), n^-s/2 and s n^(-s-1)/12 carry one ulp
      from pow (2u), at most two roundings of divisions and products, and
      the rounding of their exponents 1-s and -s-1 (relative u |e|), which
      n^e turns into a relative error u |e| ln n: at most (4 + (s+1) ln n) u T
      in all;
    * the three additions that fold the tail terms into the head are each
      off by at most u times a partial sum no larger than value: 3u value.

    Raising the head's 3u to 4u and the tail's 4 to 5 covers the
    second-order terms, and subnormal powers cost less than u value because
    value >= 1.  The bound is never 0, so no enclosure claims that zeta(s)
    is exactly representable.
    """
    tail = value - partial
    return UNIT_ROUNDOFF * (
        4.0 * partial + 3.0 * value + (5.0 + (s + 1.0) * math.log(n)) * tail
    )


def _em_remainder_coef(s: float) -> float:
    return s * (s + 1.0) * (s + 2.0) / 720.0


def _euler_maclaurin_tail(
    s: float, n: int, head: float = 0.0, i: int = 0
) -> tuple[float, float, float]:
    """head + sum_{k>=n} f(k), f(x) = (ln x)^i x^-s, by Euler-Maclaurin.

    Returns the value and bounds on its remainder and rounding.  As the
    periodic Bernoulli function B4({x}) stays within |B4| = 1/30,

        sum_{k>=n} f(k) = integral_n^inf f + f(n)/2 - f'(n)/12 + f'''(n)/720 + R,
        |R| <= integral_n^inf |f''''| / 720 = |f'''(n)| / 720

    while f'''' keeps one sign on [n, inf): for i >= 1 past
    ``_moment_root_bound``; left of it, the f(n)/2 form alone leaves at most
    half the variation of f, at most max f (f is unimodal), and the two
    derivative terms are added.  For i = 0 (zeta) f is completely monotone:
    the remainder without the f''' term has its sign and is smaller, so the
    term is left out.  ``head`` is added first, in a fixed order.
    """
    if i == 0:
        value = head + n ** (1.0 - s) / (s - 1.0) + 0.5 * n ** (-s) + s * n ** (-s - 1.0) / 12.0
        return value, _em_remainder_coef(s) * n ** (-s - 3.0), _zeta_rounding(s, n, head, value)
    polys = _log_polynomials(s, i)
    d0, d1, d3 = (_moment_derivative(s, i, m, polys[m], n) for m in (0, 1, 3))
    integral, integral_rounding = _moment_tail_integral(s, i, n)
    value = head + integral + 0.5 * d0 - d1 / 12.0 + d3 / 720.0
    remainder = abs(d3) / 720.0
    if math.log(n) <= _moment_root_bound(polys[4]):
        remainder += math.exp(_log_summand_peak(s, i)) + abs(d1) / 12.0
    size = sum(_moment_derivative(s, i, m, [abs(c) for c in polys[m]], n) / w
               for m, w in ((0, 2.0), (1, 12.0), (3, 720.0)))
    return value, remainder, _moment_rounding(s, i, n, head, integral, integral_rounding, size)


def _log_polynomials(s: float, i: int) -> list[list[float]]:
    """Q_0..Q_4 with f^(m)(x) = x^(-s-m) t^(i-m) Q_m(t), t = ln x, f = t^i x^-s.

    Differentiating gives Q_(m+1) = (i-m) Q_m + t Q_m' - (s+m) t Q_m, so
    coefficient k of Q_(m+1) is (i-m+k) q_k - (s+m) q_(k-1).  The roots of
    P_m = t^(i-m) Q_m are real and >= 0: e^(-(s+m) t) P_(m+1) is the
    derivative of e^(-(s+m) t) P_m, so by Rolle P_(m+1) has a root between
    consecutive roots of P_m, 0 included, and one past the last, which with
    its root at 0 accounts for its degree i.
    """
    polys = [[1.0]]
    for m in range(4):
        q = polys[-1] + [0.0]  # q[-1] reads this padding 0 for k = 0
        polys.append([(i - m + k) * q[k] - (s + m) * q[k - 1] for k in range(m + 2)])
    return polys


def _moment_derivative(s: float, i: int, m: int, q: list[float], x: float) -> float:
    """x^(-s-m) t^(i-m) q(t), t = ln x: f^(m)(x) when q = Q_m."""
    t = math.log(x)
    return x ** (-s - m) * t ** (i - m) * sum(c * t**k for k, c in enumerate(q))


def _moment_root_bound(q: list[float]) -> float:
    """An upper bound on the largest root of Q_4, whose four roots are real.

    With a = -q_3/q_4 their sum and b = q_2/q_4 their pairwise products'
    sum, their mean is a/4 and variance (3a^2 - 8b)/16; by Samuelson, no
    root exceeds the mean by sqrt(3) deviations.  Padded 1e-12 for rounding.
    """
    a, b = -q[3] / q[4], q[2] / q[4]
    return 0.25 * (a + math.sqrt(max(9.0 * a * a - 24.0 * b, 0.0))) * (1.0 + 1e-12)


def _moment_rounding(
    s: float, i: int, n: int, head: float, integral: float, integral_rounding: float,
    size: float,
) -> float:
    """A-priori bound on the rounding error of a log-moment value, i >= 1.

    With u = 2^-53, t = ln n and ``size`` the three derivative terms summed
    with the absolute values of their coefficients:

    * each head term (ln k)^i k^-s: ln k within one ulp (2u relative), so
      its i-th power within (2i + 2)u, k^-s within 2u and the product u;
      math.fsum rounds the sum once: (2i + 6)u head;
    * the integral: its own bound from ``_moment_tail_integral``;
    * each derivative term n^(-s-m) t^(i-m) Q_m(t) / w: t^(i-m) within
      (2|i-m| + 2)u, n^(-s-m) within 2u plus u (s+m) t from the rounding of
      its exponent, Q_m's coefficients and its five-term sum within 32u of
      the absolute polynomial, two products and a division: (2i + (s+3) t + 46)u;
    * the four additions folding the tail into the head: 4u times a partial
      sum no larger than head + integral + size.

    Raising each constant by one covers the second-order terms.
    """
    factor = 2.0 * i + (s + 3.0) * math.log(n) + 51.0
    return integral_rounding + UNIT_ROUNDOFF * (
        (2.0 * i + 11.0) * head + 5.0 * integral + factor * size
    )


def _moment_tail_integral(s: float, i: int, n: int) -> tuple[float, float]:
    """integral_n^inf (log t)^i t^(-s) dt, i >= 1, and a bound on its rounding.

    In linear space, i! sum_(m<=i) t_m / (s-1)^(i+1) with z = (s-1) ln n
    and t_m = e^-z z^m/m! by the recurrence t_m = t_(m-1) (z/m), wherever
    every piece stays in range: i <= 170, z <= 700, (s-1)^(i+1) normal and
    the result finite.  With u = 2^-53 and exp and pow within one ulp (2u),
    as in ``_zeta_rounding``, the relative error is at most u times:

    * (3 + [s > 2]) w z, w = t_i / sum t_m, for the rounding of z: the
      log of the integral has slope -w in z (see ``_log_tail_rounding``);
    * 2 for exp(-z), 2m for the quotients and products up to t_m, and i for
      the additions of the i+1 nonnegative terms: 3i + 2 in all;
    * i! exact up to 22! and within 1 past it, (s-1)^(i+1) within 2 plus,
      past s = 2, (i+1) from s - 1, and the product and the division 2;
    * terms below the normal range, at most i 2^-1074 against a sum of at
      least e^-700: 1.

    Two more units cover the second-order terms.  Elsewhere it is the exp
    of ``log_moment_tail_integral``, off by at most expm1(rho) + 2u
    relatively, rho the ``_log_tail_rounding``.
    """
    z = (s - 1.0) * math.log(n)
    scale = (s - 1.0) ** (i + 1)
    if i <= 170 and z <= 700.0 and scale >= 2.0**-1022:
        terms = list(accumulate((z / m for m in range(1, i + 1)), mul, initial=math.exp(-z)))
        total = sum(terms)
        integral = math.factorial(i) * total / scale
        if math.isfinite(integral):
            past_two = 1.0 if s > 2.0 else 0.0
            units = (3.0 + past_two) * z * terms[-1] / total + 3.0 * i + (i + 1.0) * past_two
            units += (1.0 if i > 22 else 0.0) + 9.0
            return integral, integral * units * UNIT_ROUNDOFF
    log_integral = log_moment_tail_integral(s, i, n)
    integral = math.exp(log_integral)
    rho = _log_tail_rounding(s, i, float(n), log_integral)
    return integral, integral * (math.expm1(rho) + 2.0 * UNIT_ROUNDOFF)


def log_moment_tail_integral(s: float, i: int, x: float) -> float:
    """log of integral_x^inf (log t)^i t^(-s) dt, for s > 1, i >= 0, x >= 1.

    Substituting u = (s-1) log t turns the integral into an upper incomplete
    gamma function:

        integral = Gamma(i+1, (s-1) log x) / (s-1)^(i+1)

    with Gamma(i+1, z) = i! e^-z sum_{m<=i} z^m/m! for integer i.  The terms
    are summed relative to the largest, at m = min(floor(z), i), by the ratios
    z/(m+1) upward and m/z downward, and the rest is assembled in log space.
    """
    z = (s - 1.0) * math.log(x)
    mode = min(math.floor(z), i)
    up = accumulate((z / m for m in range(mode + 1, i + 1)), mul, initial=1.0)
    total = sum(up) + sum(accumulate((m / z for m in range(mode, 0, -1)), mul))
    log_mode = mode * math.log(z) - math.lgamma(mode + 1.0) if mode else 0.0
    return math.lgamma(i + 1.0) - z + log_mode + math.log(total) - (i + 1.0) * math.log(s - 1.0)


def log_moment_tail(s: float, i: int, j_max: int) -> float:
    """log of a certified upper bound on sum_{k>J} (log k)^i k^-s, s > 1, J >= 1.

    For i = 0 this is the Euler-Maclaurin tail at n = J+1 plus its remainder
    bound.  For i >= 1 it is the integral from J, which dominates the sum
    wherever the summand decreases; while J sits left of the summand's peak
    at k = e^(i/s), the peak value is added.  The result is rounded outward
    by a derived bound on each step's rounding, in units of u = 2^-53:

    * i = 0: the tail's own bound from ``_zeta_rounding``; the remainder
      s (s+1) (s+2) n^(-s-3) / 720 within (8 + (s+3) ln n) u relatively
      (five roundings in the coefficient, the rounded exponent, pow and the
      product); the sum u; log 2 |log_tail|;
    * i >= 1: ``_log_tail_rounding`` for the integral; where the peak
      i (log(i/s) - 1) is added, its own rounding (i/s, log, the
      subtraction and the product: i (1 + 2 |L| + |L - 1|) + |peak|,
      L = log(i/s)), and the log-sum-exp, which is 1-Lipschitz in its
      inputs and adds at most |log_tail| + 4 for its exp, log1p and sum.

    The final addition of the bound is rounded up.
    """
    if i == 0:
        x = float(j_max + 1)
        tail, remainder, rounding = _euler_maclaurin_tail(s, x)
        total = tail + remainder
        if not total > 0.0:
            return -math.inf
        log_tail = math.log(total)
        remainder_units = 8.0 + (s + 3.0) * math.log(x)
        rho = (rounding + UNIT_ROUNDOFF * remainder_units * remainder) / total
        rho += UNIT_ROUNDOFF * (2.0 * abs(log_tail) + 1.0)
    else:
        x = float(j_max)
        log_tail = log_moment_tail_integral(s, i, x)
        rho = _log_tail_rounding(s, i, x, log_tail)
        if math.log(x) < i / s:  # log(e^log_tail + peak value)
            peak = _log_summand_peak(s, i)
            log_ratio = math.log(i / s)
            peak_units = i * (1.0 + 2.0 * abs(log_ratio) + abs(log_ratio - 1.0)) + abs(peak)
            low, high = sorted((log_tail, peak))
            log_tail = high + math.log1p(math.exp(low - high))
            rho = max(rho, UNIT_ROUNDOFF * peak_units)
            rho += UNIT_ROUNDOFF * (abs(log_tail) + 4.0)
    return math.nextafter(log_tail + rho, math.inf)


def _log_tail_rounding(s: float, i: int, x: float, log_integral: float) -> float:
    """A-priori bound on the rounding error of ``log_moment_tail_integral``.

    The result is log_integral = A - z + M + T - S with A = lgamma(i+1),
    z = (s-1) ln x, M = mode log z - lgamma(mode+1), T the log of the sum
    of the terms z^m/m! relative to the mode term and S = (i+1) log(s-1).
    With u = 2^-53, log within one ulp (2u relative), as pow in
    ``_zeta_rounding``, and lgamma at an integer y >= 3 within 2 ulps of
    its result plus 2u, as in ``operator_matrix._entry_rounding``
    (CPython's Lanczos sum; against 40-digit mpmath its error stays below
    2.8u |lgamma y| + 2u at every integer y <= 60000), and exact at
    y = 1, 2, the error is at most u times the sum of:

    * z: s - 1 is exact up to s = 2 (Sterbenz) and within u past it, ln x
      within 2u and the product u, so z is within (3 + [s > 2]) u
      relatively.  As a function of z the exact log integral has slope
      -(z^i/i!) / sum_(m<=i) z^m/m!, in [-1, 0], so this costs
      (3 + [s > 2]) z, and the steps below evaluate it at the rounded z;
    * A: 4 A + 2;
    * M: log z within 2 |log z|, the product by mode and the subtraction
      one rounding each, and lgamma(mode+1) as above:
      3 mode |log z| + |M| + 4 lgamma(mode+1) + 2;
    * T: each of the i+1 terms is a product of k <= K = max(mode, i - mode)
      quotients z/m or m/z, 2k - 1 roundings, and the nonnegative terms are
      added in i steps, so their sum is within gamma_(i+2K-1) relatively,
      and log adds 2 |T|;
    * S: log(s-1) within 2 |log(s-1)| and, past s = 2, u from s - 1, and
      the product one rounding: (i+1) (3 |log(s-1)| + [s > 2]);
    * the four additions that assemble the result, each one rounding of
      its partial sum: |A - z| + |A - z + M| + |A - z + M + T| + |result|.

    Two more units cover the second-order terms.
    """
    z = (s - 1.0) * math.log(x)
    mode = min(math.floor(z), i)
    past_two = 1.0 if s > 2.0 else 0.0
    a = math.lgamma(i + 1.0)
    log_s1 = math.log(s - 1.0)
    units = (3.0 + past_two) * z + 4.0 * a + 2.0 + (i + 1.0) * (3.0 * abs(log_s1) + past_two)
    partial = a - z  # A - z, then A - z + M
    units += abs(partial)
    if mode:
        lgam = math.lgamma(mode + 1.0)
        log_mode = mode * math.log(z) - lgam
        units += 3.0 * mode * abs(math.log(z)) + abs(log_mode) + 4.0 * lgam + 2.0
        partial += log_mode
    log_total = log_integral + (i + 1.0) * log_s1 - partial
    units += max(i + 2.0 * max(mode, i - mode) - 1.0, 0.0) + 2.0 * abs(log_total)
    units += abs(partial) + abs(partial + log_total) + abs(log_integral) + 2.0
    return units * UNIT_ROUNDOFF


def _log_summand_peak(s: float, i: int) -> float:
    """log max_x (log x)^i x^-s = i (log(i/s) - 1), attained at x = e^(i/s)."""
    return i * (math.log(i / s) - 1.0)


def log_moment_sum(
    s: float, i: int, budget: PrecisionBudget = DEFAULT_BUDGET
) -> CertifiedValue:
    """Certified sum_{k>=1} (log k)^i k^(-s), for real s > 1 and integer i >= 0.

    For i = 0 this is zeta(s) and is delegated.  Otherwise the k = 1 term
    vanishes, and the sum is an fsum head over 2 <= k < n plus the
    Euler-Maclaurin tail from n.  The cutoff starts past
    ``_moment_root_bound``, where the remainder bound |f'''(n)|/720 falls
    like n^(-s-3) up to powers of ln n, and grows geometrically until it
    fits what the rounding bound leaves of the tolerance.  Where the root
    bound lies past max_terms (large i), n = 16 and the summand's peak
    bounds the remainder instead.
    """
    if not isinstance(i, int) or i < 0:
        raise DomainError(f"moment order must be an int >= 0, got {i}")
    s = float(s)
    if not s > 1.0:
        raise DomainError(f"log_moment_sum requires s > 1, got {s}")
    if i == 0:
        return zeta(s, budget)

    polys = _log_polynomials(s, i)
    root = _moment_root_bound(polys[4])
    past_root = root < math.log(budget.max_terms)
    n = max(16, math.floor(math.exp(root)) + 1) if past_root else 16
    # the k = 2 term and, f decreasing past the root, the integral from n
    # bound disjoint parts of the sum from below
    target = math.log(2.0) ** i * 2.0**-s + math.exp(log_moment_tail_integral(s, i, n))
    target = max(budget.abs_tol, budget.rel_tol * target)
    while True:
        remainder = abs(_moment_derivative(s, i, 3, polys[3], n)) / 720.0
        while past_root and remainder > target and n < budget.max_terms:
            grown = math.ceil(n * (remainder / target) ** (1.0 / (s + 3.0)))
            n = min(max(n + 1, grown), budget.max_terms)
            remainder = abs(_moment_derivative(s, i, 3, polys[3], n)) / 720.0
        k = range(2, n)
        head = math.fsum(map(mul, map(pow, map(math.log, k), repeat(i)), map(pow, k, repeat(-s))))
        value, remainder, rounding = _euler_maclaurin_tail(s, n, head, i)
        if not math.isfinite(value):
            raise OverflowError(f"log_moment_sum({s}, {i}) exceeds the binary64 range")
        tol = max(budget.abs_tol, budget.rel_tol * abs(value))
        target = tol - rounding
        if remainder <= target or target <= 0.0 or not past_root or n >= budget.max_terms:
            break
    return _certified(f"log_moment_sum({s}, {i})", n, budget, value, remainder, rounding)


def lower_bound_h(s: float) -> float:
    """h(s) = 1/(s-1) + ((s-1)/s)/sqrt(2 pi), a zeta lower bound for s > 1."""
    s = float(s)
    if not s > 1.0:
        raise DomainError(f"lower_bound_h requires s > 1, got {s}")
    return 1.0 / (s - 1.0) + ((s - 1.0) / s) / SQRT_TWO_PI


def lower_bound_g(x: float) -> float:
    """g(x) = (414 + 49 x - 6 x^2 - x^3)/720, for x >= 0.

    Cubic comparison function with g(0) = 23/40; dominates f on (0, s2) and
    is dominated by f past the crossing root s2.
    """
    x = float(x)
    if not x >= 0.0:
        raise DomainError(f"lower_bound_g requires x >= 0, got {x}")
    return (414.0 + 49.0 * x - 6.0 * x * x - x * x * x) / 720.0


def lower_bound_f(x: float) -> float:
    """f(x) = (x/(x+1))/sqrt(2 pi), for x >= 0.  Increasing, -> 1/sqrt(2 pi)."""
    x = float(x)
    if not x >= 0.0:
        raise DomainError(f"lower_bound_f requires x >= 0, got {x}")
    return (x / (x + 1.0)) / SQRT_TWO_PI


CROSSING_BRACKET = (0.1, 10.0)


def crossing_root(budget: PrecisionBudget = DEFAULT_BUDGET) -> float:
    """The unique positive root of f(x) = g(x), by bisection on [0.1, 10].

    f is increasing and bounded by 1/sqrt(2 pi) < g(0), while g is a cubic
    falling below zero past x = 7, so exactly one sign change of f - g lies
    inside the bracket.  Bisection halves until the half-width drops below
    the absolute tolerance; the returned midpoint is within abs_tol of the
    root.
    """
    a, b = CROSSING_BRACKET
    fa = lower_bound_f(a) - lower_bound_g(a)
    fb = lower_bound_f(b) - lower_bound_g(b)
    if not (fa < 0.0 < fb):
        raise BracketingError(
            f"no sign change of f - g on [{a}, {b}]: endpoints {fa}, {fb}"
        )
    while 0.5 * (b - a) > budget.abs_tol:
        mid = 0.5 * (a + b)
        fm = lower_bound_f(mid) - lower_bound_g(mid)
        if fm == 0.0:
            return mid
        if fm < 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


_VERIFY_S_LO = 1.001
_VERIFY_S_HI = 100.0
_VERIFY_S_POINTS = 500
_VERIFY_X_LO = 1e-3
_DOMINANCE_POINTS = 400
_DOMINANCE_WINDOW = 1e-3
_MOMENT_ORDERS = tuple(range(1, 11))
_MOMENT_ARGS = (1.5, 2.0, 3.0, 10.0)


@dataclass(frozen=True)
class GridCheck:
    """Outcome of one inequality sweep over a grid of arguments.

    A point fails when its margin (right side minus left side, with all
    certified error bounds credited to the right) is negative by more than
    the derived bound on the margin's own rounding: then even the exact
    margin of the computed enclosures is negative.
    """

    name: str
    points: int
    worst_margin: float
    failures: tuple[tuple[str, float], ...]

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class VerificationReport:
    """All grid checks plus the computed crossing point of f and g."""

    crossing: float
    checks: tuple[GridCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)


def _collect(name: str, labelled_margins) -> GridCheck:
    worst = math.inf
    failures = []
    points = 0
    for label, margin, rounding in labelled_margins:
        points += 1
        worst = min(worst, margin)
        if margin < -rounding:
            failures.append((label, margin))
    return GridCheck(name, points, worst, tuple(failures))


# Each margin generator yields (label, margin, rounding): the computed
# difference of the two sides and a bound on how far rounding moved it from
# the exact difference of the floats it starts from (the grid point and the
# certified value and error bound).  With u = 2^-53, the terms are:
#
# * a sum or difference of two floats, and each product or quotient of
#   floats: one rounding, u times its result; s - 1 is exact up to s = 2
#   (Sterbenz) and one rounding past it;
# * a constant that is itself rounded: SQRT_TWO_PI within 2u (pi, 2 pi and
#   the square root);
# * the final subtraction: u |margin|.
#
# Every side below is charged one unit more than it takes, which covers the
# second-order terms and the rounding of the bound itself.


def _g_size(x: float) -> float:
    """(414 + 49 x + 6 x^2 + x^3) / 720, the size of g's terms at x >= 0.

    lower_bound_g rounds each term at most twice, its three additions and
    the division once each, each by u times at most this size: 7u of it
    bounds g's rounding, 8u with the second-order terms."""
    return (414.0 + 49.0 * x + 6.0 * x * x + x * x * x) / 720.0


def _bracket_margins(s_grid, zeta_values, invert):
    # low: zeta's upper end (one rounding) minus 1/(s-1) (two); high:
    # s/(s-1) (two) minus zeta's lower end (one)
    for s, z in zip(s_grid, zeta_values):
        upper, inverse = z.value + z.error_bound, 1.0 / (s - 1.0)
        low = upper - inverse
        low_rounding = UNIT_ROUNDOFF * (2.0 * abs(upper) + 3.0 * inverse + abs(low))
        if invert:
            low = -low
        ratio, lower = s / (s - 1.0), z.value - z.error_bound
        high = ratio - lower
        high_rounding = UNIT_ROUNDOFF * (3.0 * ratio + 2.0 * abs(lower) + abs(high))
        yield (f"s={s:.6g}", *min((low, low_rounding), (high, high_rounding)))


def _h_margins(s_grid, zeta_values):
    # zeta's upper end (one rounding) minus h(s): s - 1, 1/(s-1), (s-1)/s,
    # the division by SQRT_TWO_PI (2u of its own) and the sum, six
    for s, z in zip(s_grid, zeta_values):
        upper, h = z.value + z.error_bound, lower_bound_h(s)
        margin = upper - h
        yield f"s={s:.6g}", margin, UNIT_ROUNDOFF * (2.0 * abs(upper) + 7.0 * h + abs(margin))


def _shifted_g_margins(budget):
    # zeta's upper end (one rounding) minus 1/x + g(x) (1/x and the sum one
    # each, g within 8u of _g_size).  zeta is taken at s' = fl(1 + x), within
    # u (1 + x) of 1 + x; between the two |zeta'| <= 1/(s-1)^2 + 1/(e s)
    # (integral plus peak of (ln k) k^-s), at most 2/x^2 + 1 for x >= 1e-3,
    # which moves zeta by at most u (1 + x) (2/x^2 + 1)
    for x in geomspace(_VERIFY_X_LO, _VERIFY_S_HI, _VERIFY_S_POINTS):
        z = zeta(1.0 + x, budget)
        upper, bound = z.value + z.error_bound, 1.0 / x + lower_bound_g(x)
        margin = upper - bound
        rounding = 2.0 * abs(upper) + 2.0 / x + 8.0 * _g_size(x) + abs(bound) + abs(margin)
        rounding += (1.0 + x) * (2.0 / (x * x) + 1.0)
        yield f"x={x:.6g}", margin, UNIT_ROUNDOFF * rounding


def _dominance_margins(crossing):
    # f(x) - g(x): f takes x + 1, the division and the division by
    # SQRT_TWO_PI (2u of its own), five, and g 8u of _g_size
    for x in linspace(CROSSING_BRACKET[0], CROSSING_BRACKET[1], _DOMINANCE_POINTS):
        f = lower_bound_f(x)
        gap = f - lower_bound_g(x)
        rounding = UNIT_ROUNDOFF * (6.0 * f + 8.0 * _g_size(x) + abs(gap))
        if x > crossing + _DOMINANCE_WINDOW:
            yield f"x={x:.6g}", gap, rounding
        elif x < crossing - _DOMINANCE_WINDOW:
            yield f"x={x:.6g}", -gap, rounding
        # points inside the window around the crossing are not classified


def _moment_margins(budget):
    # factor = i!/(s-1)^i within e = 4 + i [s > 2] units: pow 2, the
    # division 1, i! 1 (exact in binary64 up to 22!), and s - 1's rounding
    # past s = 2, which the power scales by i.  factor * zeta adds one unit,
    # the credited errors' product and sum two, and the sum of the two one
    # of both sizes: e + 3 units of |scaled| + combined, one more for the
    # second order
    for s in _MOMENT_ARGS:
        z = zeta(s, budget)
        for i in _MOMENT_ORDERS:
            factor = math.factorial(i) / (s - 1.0) ** i
            moment = log_moment_sum(s, i, budget)
            combined = moment.error_bound + factor * z.error_bound
            scaled = factor * z.value
            margin = scaled + combined - moment.value
            units = 8.0 + (i if s > 2.0 else 0.0)
            rounding = UNIT_ROUNDOFF * (units * (abs(scaled) + combined) + abs(margin))
            yield f"s={s:g},i={i}", margin, rounding


def verification_suite(
    budget: PrecisionBudget = DEFAULT_BUDGET, *, inject_fault: bool = False
) -> VerificationReport:
    """Sweep the inequalities the norm bounds rest on and report margins.

    Checks, each on its documented grid:

    * ``zeta-bracket``: 1/(s-1) <= zeta(s) <= s/(s-1) on 500 log-spaced
      points s in [1.001, 100].
    * ``zeta-lower-h``: h(s) <= zeta(s) on the same grid.
    * ``shifted-zeta-g``: 1/x + g(x) <= zeta(1+x) on 500 log-spaced points
      x in [0.001, 100].
    * ``dominance-switch``: g(x) >= f(x) below the crossing point and
      g(x) <= f(x) above it, on 400 points across [0.1, 10].
    * ``log-moment``: sum_k (log k)^i k^(-s) <= i!/(s-1)^i zeta(s) for
      i = 1..10 and s in {1.5, 2, 3, 10}.

    All certified error bounds are credited to the inequality's right side,
    and a point fails only when its margin is negative by more than a
    derived bound on the margin's own rounding, a few u times the sizes of
    the two sides (see _collect), so a healthy library passes everywhere.

    ``inject_fault`` flips the direction of the lower bracket inequality;
    it exists so harnesses can confirm the suite actually detects failures.
    """
    s_grid = geomspace(_VERIFY_S_LO, _VERIFY_S_HI, _VERIFY_S_POINTS)
    zeta_values = [zeta(s, budget) for s in s_grid]
    crossing = crossing_root(budget)
    checks = (
        _collect("zeta-bracket", _bracket_margins(s_grid, zeta_values, inject_fault)),
        _collect("zeta-lower-h", _h_margins(s_grid, zeta_values)),
        _collect("shifted-zeta-g", _shifted_g_margins(budget)),
        _collect("dominance-switch", _dominance_margins(crossing)),
        _collect("log-moment", _moment_margins(budget)),
    )
    return VerificationReport(crossing=crossing, checks=checks)


def linspace(lo: float, hi: float, num: int) -> list[float]:
    """numpy.linspace(lo, hi, num >= 2), bit for bit: lo + k step, ending at hi."""
    step = (hi - lo) / (num - 1)
    return [lo + k * step for k in range(num - 1)] + [hi]


def geomspace(lo: float, hi: float, num: int) -> list[float]:
    """numpy.geomspace's formula: 10 ** linspace(log10 lo, log10 hi), exact ends.

    numpy's vectorised pow may round a point the other way than math's.
    """
    grid = [10.0**e for e in linspace(math.log10(lo), math.log10(hi), num)]
    grid[0], grid[-1] = lo, hi
    return grid
