"""Certified evaluation of the real special functions behind the norm bounds.

Closed forms return plain floats.  Series evaluations return a
CertifiedValue, a (value, error_bound) pair guaranteeing

    |value - exact| <= error_bound.

Error bounds account for truncation, and the series' bounds add an
a-priori rounding term.  The module is plain Python; numpy is left to the
matrix layer.

Contents:

* ``zeta(s)``: Riemann zeta for real s > 1 by Euler-Maclaurin summation with
  the B2 correction term.  The remainder is bounded by the magnitude of the
  first omitted Bernoulli term, plus a bound on the rounding.
* ``log_moment_sum(s, i)``: sum_{k>=1} (log k)^i k^(-s), zeta at i = 0, by the
  eight-term Euler-Maclaurin model that the matrix layer's Gram moments share.
* ``_poisson_terms(z)``: the Poisson terms e^-z z^m / m! of every incomplete
  gamma tail here and in the matrix layer, with the library's one proof of
  their rounding and its one statement of lgamma's accuracy.
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
from itertools import accumulate, count, islice, repeat
from operator import mul, truediv
from typing import Iterator, NamedTuple

from .errors import BracketingError, BudgetExhaustedError, DomainError

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
UNIT_ROUNDOFF = 2.0**-53
_POISSON_RECURRENCE_MAX = 700.0  # e^-z stays normal up to here (see _poisson_terms)


class _Budget(NamedTuple):
    abs_tol: float
    rel_tol: float
    max_terms: int


class PrecisionBudget(_Budget):
    """Tolerance and work limits for certified series evaluation.

    The achieved error bound must satisfy
    ``error_bound <= max(abs_tol, rel_tol * |value|)``; otherwise the
    evaluation raises BudgetExhaustedError instead of silently degrading.
    """

    __slots__ = ()

    def __new__(
        cls, abs_tol: float = 1e-12, rel_tol: float = 1e-12, max_terms: int = 10**6
    ) -> PrecisionBudget:
        if not (abs_tol > 0.0 and math.isfinite(abs_tol)):
            raise DomainError(f"abs_tol must be positive and finite, got {abs_tol}")
        if not (rel_tol > 0.0 and math.isfinite(rel_tol)):
            raise DomainError(f"rel_tol must be positive and finite, got {rel_tol}")
        if not (isinstance(max_terms, int) and max_terms >= 16):
            raise DomainError(f"max_terms must be an int >= 16, got {max_terms}")
        return super().__new__(cls, abs_tol, rel_tol, max_terms)

    @classmethod
    def _make(cls, iterable) -> PrecisionBudget:
        return cls(*iterable)  # so that _replace validates its copy too


DEFAULT_BUDGET = PrecisionBudget()


class _Certified(NamedTuple):
    value: float
    error_bound: float


class CertifiedValue(_Certified):
    """A value together with a rigorous absolute error bound."""

    __slots__ = ()

    def __new__(cls, value: float, error_bound: float) -> CertifiedValue:
        if not math.isfinite(value):
            raise DomainError(f"certified value must be finite, got {value}")
        if not (error_bound >= 0.0):
            raise DomainError(f"error bound must be >= 0, got {error_bound}")
        return super().__new__(cls, value, error_bound)

    @classmethod
    def _make(cls, iterable) -> CertifiedValue:
        return cls(*iterable)  # so that _replace validates its copy too

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
    tolerance, N is raised for what the rounding leaves of it.  Past
    s = 2^11 every term but the first underflows and the series returns
    1 with error bound 7u, the rounding bound at N = 16, far above
    zeta(s) - 1 < 2^(1-s); that value is returned at once, as the
    remainder's coefficient overflows for huge s.
    """
    s = float(s)
    if not s > 1.0:
        raise DomainError(f"zeta requires s > 1, got {s}")
    if s > 2048.0:
        return _certified(f"zeta({s})", 16, budget, 1.0, 0.0, 7.0 * UNIT_ROUNDOFF)

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


def _euler_maclaurin_tail(s: float, n: int, head: float = 0.0) -> tuple[float, float, float]:
    """head + sum_{k>=n} k^-s by Euler-Maclaurin: zeta's tail.

    Returns the value and bounds on its remainder and rounding.  As the
    periodic Bernoulli function B4({x}) stays within |B4| = 1/30, with
    f(x) = x^-s,

        sum_{k>=n} f(k) = integral_n^inf f + f(n)/2 - f'(n)/12 + f'''(n)/720 + R,
        |R| <= integral_n^inf |f''''| / 720 = |f'''(n)| / 720.

    f is completely monotone: the remainder without the f''' term has its
    sign and is smaller, so the term is left out.  ``head`` is added first,
    in a fixed order.
    """
    value = head + n ** (1.0 - s) / (s - 1.0) + 0.5 * n ** (-s) + s * n ** (-s - 1.0) / 12.0
    return value, _em_remainder_coef(s) * n ** (-s - 3.0), _zeta_rounding(s, n, head, value)


# Euler-Maclaurin summation with p = _EM_TERMS Bernoulli terms, for
# log_moment_sum and operator_matrix._euler_maclaurin_moments.  Let
# F_n(x) = kappa_n (ln x)^n x^-s, kappa_n > 0, so x F_n' = c_n F_(n-1) - s F_n
# with c_n F_(n-1) = (n / ln x) F_n (c_0 = 0).  With D = x d/dx,
# x^m F^(m) = D (D-1) ... (D-m+1) F = V_m: V_0 = F and
# V_(m+1) = c shift(V_m) - (s + m) V_m, shift(V)_n = V_(n-1), so order n of
# V_m reads only orders n-m..n; in U form V_m = U_m F, U_m[n] = sum_j (n)_j
# (ln x)^-j a_(m,j)(s), (n)_j falling factorials and sum_j a_(m,j)(s) y^j =
# prod_(i<m) (y - s - i).  The same recurrence with + for - (|a| for a) bounds
# |V_m|, and by induction and AM-GM |V_m|_n <= prod_(j<m) (n / ln x + s + j) F_n
# <= Lambda_n(x)^m F_n for m <= 2p, Lambda_n(x) = n / ln x + s + p - 1/2.  By
# DLMF 2.10.1, its B_2p term taken into the sum, sum_(N<=k<=J) F_n(k) is
# integral_N^J F_n + (F_n(N) + F_n(J)) / 2 + sum_(r<=p) beta_r (F_n^(2r-1)(J)
# - F_n^(2r-1)(N)) + R, beta_r = B_2r / (2r)!, |R| <= K integral_N^J |F_n^(2p)|
# and K = |B_2p| / (2p)!, as |B_2p(x - floor x)| <= |B_2p|.  Lambda_n(x) / x <=
# Lambda_n(N) / N = L_n for x >= N, so |R| <= K L_n^2p times the integral and
# beta_r F_n^(2r-1)(x) = beta_r V_(2r-1) / x^(2r-1) is at most
# |beta_r| L_n^(2r-1) F_n(x).  N is the least power of two (from a caller's
# first) with Lambda_n(N) <= theta N (_em_fits), K theta^2p = u: then the
# remainder is about u of the integral.  B_2r is (numerator, denominator),
# beta_r is correctly rounded (int / int is), and K is rounded up.
_EM_TERMS = 8
_EM_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510))
_EM_BETA = tuple(num / (den * math.factorial(2 * r)) for r, (num, den) in enumerate(_EM_BERNOULLI, 1))
_EM_REMAINDER = math.nextafter(3617 / (510 * math.factorial(2 * _EM_TERMS)), 1.0)
_EM_RATIO = (2.0**-53 / _EM_REMAINDER) ** (1.0 / (2 * _EM_TERMS))


def _em_fits(s: float, order: int, n: int) -> bool:
    """Lambda = order / ln n + s + p - 1/2 is at most theta n (theta = _EM_RATIO)."""
    return order / math.log(n) + s + _EM_TERMS - 0.5 <= _EM_RATIO * n


def _moment_tail(s: float, i: int, n: int) -> tuple[float, float, float]:
    """sum_{k>=2} (ln k)^i k^-s, 1 <= i < 2^22, n a power of two, with bounds
    on its remainder and rounding: an fsum head over 2 <= k < n and the
    Euler-Maclaurin tail from n in the model above _EM_TERMS, taken for
    h_m(x) = (q ln x)^m x^-s, c_m = m q, q = 2^-e with the least e >= 0 that
    keeps (q ln n)^i below 2^800, and scaled by 2^(e i) at the end (+inf past
    the binary64 range).  The tail is I + h_i(n)/2 - sum_r beta_r V_(2r-1) /
    n^(2r-1) + R, I from _moment_tail_integral and |R| <= K L^2p (I + its
    rounding), L = Lambda_i(n) / n raised by 8u for its own rounding.
    Rounding, in units of u = 2^-53, with log and pow within one ulp (2u):

    * each head term and h_m(n): ln 2, its m-th power 2m + 2, x^-s 2 and the
      product 1: 2m + 5; the head's fsum 1 more;
    * V: c_m is exact, and a step rounds c V, s + m, its product and the
      difference, 3 a path, so V_(2r-1) is within 2i + 5 + 3 (2r - 1) of the
      recurrence with + for -, at most (L n)^(2r-1) h_i(n); beta_r and the
      product 2 (n^(2r-1) is a power of two): the derivative terms are within
      (2i + 52) omega h_i(n), omega = sum_r |beta_r| L^(2r-1);
    * the integral its own bound (see _poisson_terms), the fsum u |value|.

    Below 2^-1022 a pow is off by at most 2^-1074 and a product by 2^-1075
    past its relative bound, times what multiplies it later: each head term
    and h_m(n) by 2 + B, B = max(1, (q ln n)^i); a step of V adds 1 and
    scales what V carries by at most i + s + 16 = S n, and each derivative
    term adds 1, so they carry (B + 18) omega', omega' as omega with S for L;
    (n + 1 + omega') (B + 18) 2^-1074 covers these and the fsums.  Every
    relative bound here stays below 2^-24 for i < 2^22, so raising both
    bounds by 2^-20 of themselves covers the second-order terms and their
    own roundings.
    """
    log_n = math.log(n)
    e = max(0, math.ceil(math.log2(log_n) - 800.0 / i))
    q = 2.0**-e
    k = range(2, n)
    head = math.fsum(map(mul, map(pow, map(mul, map(math.log, k), repeat(q)), repeat(i)),
                         map(pow, k, repeat(-s))))
    orders = range(i + 1 - 2 * _EM_TERMS, i + 1)
    v = [pow(q * log_n, m) * n ** -s if m >= 0 else 0.0 for m in orders]
    top = v[-1]
    steps = [m * q for m in orders]
    terms = [head, 0.5 * top]
    for m in range(2 * _EM_TERMS - 1):
        v = [c * prev - (s + m) * cur for c, prev, cur in zip(steps, [0.0, *v], v)]
        if m % 2 == 0:  # V_(2r-1), r = m // 2 + 1
            terms.append(-_EM_BETA[m // 2] * math.ldexp(v[-1], -(m + 1) * (n.bit_length() - 1)))
    integral, integral_rounding = _moment_tail_integral(s, i, n, e)
    value = math.fsum([integral, *terms])

    ratio = (i / log_n + s + _EM_TERMS - 0.5) / n * (1.0 + 8.0 * UNIT_ROUNDOFF)
    spread = (i + s + 2 * _EM_TERMS) / n
    omega, carried = (sum(abs(beta) * r ** (2 * j + 1) for j, beta in enumerate(_EM_BETA))
                      for r in (ratio, spread))
    coef = _EM_REMAINDER * ratio ** (2 * _EM_TERMS)  # each small factor first: no overflow
    remainder = coef * integral + coef * integral_rounding
    floor = (n + 1.0 + carried) * (max(1.0, pow(q * log_n, i)) + 18.0) * 2.0**-1074
    rounding = (UNIT_ROUNDOFF * (2 * i + 6) * head + UNIT_ROUNDOFF * abs(value)
                + UNIT_ROUNDOFF * (i + 2.5 + (2 * i + 52) * omega) * top)
    slack = 1.0 + 2.0**-20
    results = (value, remainder * slack, (rounding + integral_rounding + floor) * slack)
    return tuple(math.ldexp(x, e * i) if math.frexp(x)[1] + e * i <= 1024 or not x else math.inf
                 for x in results)


def _moment_tail_integral(s: float, i: int, n: int, e: int) -> tuple[float, float]:
    """2^-(e i) integral_n^inf (ln x)^i x^-s dx, i >= 1, and a bound on its rounding.

    The integral is G Q_i(z), G = i! / (s-1)^(i+1), z = (s-1) ln n and Q_i
    the fsum of the terms p_0..p_i of _poisson_terms(z).  G 2^-(e i) is the
    running product g 2^k of m / (2^e (s-1)) from 1 / (s-1), its exponent
    taken out by frexp at each step, so no partial product leaves the
    normal range.  The result g Q 2^k is taken through the integral itself,
    g Q 2^(k + e i), which raises OverflowError past binary64.  Its relative
    error is at most eps_i (1 + 2^-20), eps_i = _poisson_rounding(z, i),
    plus u = 2^-53 times: 3 w z for the rounding of z (ln n 2 and the
    product 1; s - 1 is exact for s < 2^53), as d ln Q_i / dz = -w,
    w = p_i / Q_i (1 past z = 700); 2i + 1 for g; 1 each for the fsum and
    g Q; and 2 for the second-order terms.  Below 2^-1022 a term adds at
    most 2^-1074 to Q, g Q 2^(k-1075) and each ldexp 2^-1075: as g < 1,
    (i + 3) 2^(k-1074) + 2^-1074 covers them.
    """
    a = s - 1.0
    z = a * math.log(n)
    g, k = math.frexp(1.0 / a)
    for m in range(1, i + 1):
        g, shift = math.frexp(g * (m / (a * 2.0**e)))
        k += shift
    terms = list(islice(_poisson_terms(z), i + 1))
    q = math.fsum(terms)
    integral = math.ldexp(math.ldexp(g * q, k + e * i), -e * i)
    w = terms[-1] / q if z <= _POISSON_RECURRENCE_MAX else 1.0
    rel = (3.0 * w * z + 2.0 * i + 5.0) * UNIT_ROUNDOFF + _poisson_rounding(z, i) * (1.0 + 2.0**-20)
    return integral, rel * integral + math.ldexp(i + 3.0, k - 1074) + 2.0**-1074


def _poisson_terms(z: float) -> Iterator[float]:
    """The Poisson terms p_m(z) = e^-z z^m / m!, m = 0, 1, ..., at the float
    z > 0, one step a term as they are drawn (Q_n(z) = sum_(m<=n) p_m is the
    regularized upper incomplete gamma function, DLMF 8.4.10): up to
    z = 700 by p_0 = e^-z and p_m = p_(m-1) (z/m), past it each as
    exp(m ln z - z - lgamma(m+1)).

    The library's one proof of their rounding and one statement of
    lgamma's accuracy.  With u = 2^-53, exp and log are within one ulp (2u
    relative, 2^-1074 below 2^-1022), a product or quotient within u
    (2^-1075 below 2^-1022), and math.lgamma at an integer y in [3, 2^28]
    within 2.8u |lgamma y| + 2u <= (4 lgamma y + 2) u, exact at y = 1, 2
    (CPython's Lanczos sum; the tests check it against 40-digit mpmath on
    1,985 integers drawn log-uniform there, worst 2.45 at y = 92).  Term
    m < 2^28 is within eps_m p_m(z), eps_m = _poisson_rounding(z, m), plus
    2^-1074 where it comes out below 2^-1022:

    * Recurrence: e^-z and each step carry 2u: eps_m = gamma_(2m+2) (see
      _gamma).  The terms rise to the mode and fall past it, and
      p_0 >= e^-700, so the first below 2^-1022, m_1, has p_m < 2^-1021
      < e^-7 p_0, z^m / m! < e^-7 and so m_1 >= 2z (for m < 2z,
      m! <= e sqrt(m) (m/e)^m gives z^m / m! > (e/2)^m / (e sqrt m) > 1/e).
      From m_1 on each step scales the error carried by z/m <= 1/2 and
      adds at most 2^-1075, so that error stays below 2^-1074.
    * Logs (z > 700): m ln z carries 3 m ln z units, the subtraction of z
      m ln z + z, lgamma 4 lgamma + 2 and the last subtraction
      m ln z + z + lgamma, so with one unit for the second-order terms the
      exponent is within E_m = 5 m ln z + 2z + 5 lgamma + 3 units, and
      eps_m = expm1(E_m u) (1 + 2u) + 2u.  Where p_m >= e^-746,
      m ln z <= z + lgamma (p_m <= 1) and z <= 2m + 1490 (past z = 2m,
      ln p_m falls at rate 1/2 or more from -m (1 - ln 2) - ln(2 pi m) / 2
      or less), so E_m <= 14m + 10 lgamma + 10433, taken where smaller.
      Where p_m < e^-746, exp returns 0 or 2^-1074, as the exponent's error
      is below (10B + 3) u < 1, B = z + lgamma >= m ln z, for B <= 2^49,
      and past that z > 2^48 (lgamma < 2^37), m ln z < 2^-10 z and the
      exponent is below -B (1 - 2^-10 - 6u).

    eps_m grows with m, so eps_n bounds terms 0..n; it is raised by 8u of
    itself for its own roundings.
    """
    if z <= _POISSON_RECURRENCE_MAX:
        return accumulate(map(truediv, repeat(z), count(1)), mul, initial=math.exp(-z))
    log_z = math.log(z)
    return (math.exp(m * log_z - z - math.lgamma(m + 1.0)) for m in count())


def _poisson_rounding(z: float, n: int) -> float:
    """eps_n of _poisson_terms(z), which bounds its terms 0..n, n < 2^28."""
    if z <= _POISSON_RECURRENCE_MAX:
        return _gamma(2 * n + 2) * (1.0 + 8.0 * UNIT_ROUNDOFF)
    lgam = math.lgamma(n + 1.0)
    e = min(5.0 * n * math.log(z) + 2.0 * z, 14.0 * n + 5.0 * lgam + 10430.0) + 5.0 * lgam + 3.0
    eps = math.expm1(e * UNIT_ROUNDOFF) * (1.0 + 2.0 * UNIT_ROUNDOFF) + 2.0 * UNIT_ROUNDOFF
    return eps * (1.0 + 8.0 * UNIT_ROUNDOFF)


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u) (Accuracy and Stability of Numerical
    Algorithms, 2002, ch. 3): a sum of n nonnegative products, added in any
    order, is off by at most gamma_n of its value.  The bound holds only
    while n u < 1; past that it is +inf."""
    nu = n * UNIT_ROUNDOFF
    return nu / (1.0 - nu) if nu < 1.0 else math.inf


def log_moment_sum(
    s: float, i: int, budget: PrecisionBudget = DEFAULT_BUDGET
) -> CertifiedValue:
    """Certified sum_{k>=1} (log k)^i k^(-s), for real s > 1 and integer i >= 0.

    For i = 0 this is zeta(s) and is delegated.  Otherwise the k = 1 term
    vanishes, and _moment_tail sums the rest from the least power of two
    n >= 16 with Lambda_i(n) <= theta n (_em_fits), where the remainder is
    about u of the integral; n is doubled while the remainder does not fit
    what the rounding leaves of the tolerance, up to max_terms.  Past
    s = 2^11 with i <= s/2 the summand f falls from k = 2 on, and the sum is
    at most f(2) (1 + 2/c) < 2^-2047, c = s - 1 - i / ln 2 (the log of the
    integrand t^i e^-(s-1)t falls at rate c or more from t = ln 2): 0 is
    returned with error bound 2^-1074.
    """
    if not isinstance(i, int) or not 0 <= i < 2**22:
        raise DomainError(f"moment order must be an int in [0, 2^22), got {i}")
    s = float(s)
    if not s > 1.0:
        raise DomainError(f"log_moment_sum requires s > 1, got {s}")
    if i == 0:
        return zeta(s, budget)
    what = f"log_moment_sum({s}, {i})"
    if s > 2048.0 and i <= 0.5 * s:
        return _certified(what, 16, budget, 0.0, 0.0, 2.0**-1074)

    n = 16
    while 2 * n <= budget.max_terms and not _em_fits(s, i, n):
        n *= 2
    while True:
        try:
            value, remainder, rounding = _moment_tail(s, i, n)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise OverflowError(f"{what} exceeds the binary64 range")
        room = max(budget.abs_tol, budget.rel_tol * value) - rounding
        if remainder <= room or room <= 0.0 or 2 * n > budget.max_terms:
            break
        n *= 2
    return _certified(what, n, budget, value, remainder, rounding)


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


class GridCheck(NamedTuple):
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


class VerificationReport(NamedTuple):
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
    # factor = i!/(s-1)^i within e = 4 units: pow 2, the division 1 and
    # i! 1 (exact in binary64 up to 22!); s - 1 is exact (1 < s < 2^53).
    # factor * zeta adds one unit,
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
            rounding = UNIT_ROUNDOFF * (8.0 * (abs(scaled) + combined) + abs(margin))
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
