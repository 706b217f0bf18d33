"""Certified evaluation of the real special functions behind the norm bounds.

Closed forms return plain floats.  Series evaluations return a
CertifiedValue, a (value, error_bound) pair guaranteeing

    |value - exact| <= error_bound.

Error bounds account for truncation only; floating-point rounding is assumed
negligible at the supported tolerances (>= 1e-12 on binary64).  The moment
tails are the exception: they are assembled in log space, where rounding
scales with the size of the logs, so ``log_moment_tail`` is rounded outward.

Contents:

* ``zeta(s)``: Riemann zeta for real s > 1 by Euler-Maclaurin summation with
  the B2 correction term.  The remainder is bounded by the magnitude of the
  first omitted Bernoulli term.
* ``log_moment_sum(s, i)``: sum_{k>=1} (log k)^i k^(-s), by direct summation
  up to a cutoff plus an integral tail bracket expressed through the upper
  incomplete gamma function.
* ``log_moment_tail(s, i, J)``: a certified upper bound on the tail
  sum_{k>J} (log k)^i k^(-s), shared by the series and the matrix layer,
  together with ``log_factorials`` and ``logsumexp``.
* ``lower_bound_h``, ``lower_bound_g``, ``lower_bound_f``: closed-form
  comparison functions for zeta lower bounds,

      h(s) = 1/(s-1) + ((s-1)/s) / sqrt(2 pi)
      g(x) = (414 + 49 x - 6 x^2 - x^3) / 720
      f(x) = (x/(x+1)) / sqrt(2 pi)

* ``crossing_root()``: the unique positive solution of f(x) = g(x), located
  by bisection on the bracket [0.1, 10].
* ``verification_suite()``: grid checks of the inequalities the norm bounds
  rest on, each reported with its worst margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketingError, BudgetExhaustedError, DomainError

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
UNIT_ROUNDOFF = 2.0**-53

_CHUNK = 1 << 20


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
    the budget.
    """
    s = float(s)
    if not s > 1.0:
        raise DomainError(f"zeta requires s > 1, got {s}")

    # zeta(s) >= max(1, 1/(s-1)) gives a safe pre-estimate for the relative target.
    target = max(budget.abs_tol, budget.rel_tol * max(1.0, 1.0 / (s - 1.0)))
    need = (_em_remainder_coef(s) / target) ** (1.0 / (s + 3.0))
    n = max(16, int(math.ceil(need)))

    exhausted = n > budget.max_terms
    if exhausted:
        n = budget.max_terms

    partial = math.fsum(k ** (-s) for k in range(1, n))
    value, remainder = _euler_maclaurin_tail(s, n, partial)
    # half-ulp floor: a certified bound must never claim exact representability
    err = max(remainder, 0.5 * float(np.spacing(abs(value))))

    if exhausted and err > max(budget.abs_tol, budget.rel_tol * abs(value)):
        raise BudgetExhaustedError(
            f"zeta({s}) needs {int(math.ceil(need))} terms for the requested "
            f"tolerance but max_terms = {budget.max_terms}; achieved error "
            f"bound {err:.3e}",
            achieved_error_bound=err,
        )
    return CertifiedValue(value, err)


def _em_remainder_coef(s: float) -> float:
    return s * (s + 1.0) * (s + 2.0) / 720.0


def _euler_maclaurin_tail(s: float, n: float, head: float = 0.0) -> tuple[float, float]:
    """head + sum_{k>=n} k^-s by Euler-Maclaurin, and a bound on the remainder.

        sum_{k>=n} k^-s = n^(1-s)/(s-1) + n^-s/2 + s n^(-s-1)/12 + R,
        |R| <= s (s+1) (s+2) n^(-s-3) / 720,

    since for completely monotone summands R has the sign of, and is smaller
    than, the first omitted Bernoulli term.  ``head`` is added first so that a
    partial sum absorbs the tail terms in a fixed order.
    """
    value = head + n ** (1.0 - s) / (s - 1.0) + 0.5 * n ** (-s) + s * n ** (-s - 1.0) / 12.0
    return value, _em_remainder_coef(s) * n ** (-s - 3.0)


def log_factorials(n: int) -> np.ndarray:
    """lgamma(i+1) = log(i!) for i = 0..n, each entry computed by math.lgamma."""
    return np.array([math.lgamma(i + 1.0) for i in range(n + 1)])


def logsumexp(log_terms: np.ndarray, axis: int | None = None):
    """log(sum(exp(log_terms))) along ``axis``; -inf where every term is -inf."""
    top = np.max(log_terms, axis=axis, keepdims=True)
    top = np.where(top > -math.inf, top, 0.0)
    with np.errstate(divide="ignore"):
        sums = np.log(np.sum(np.exp(log_terms - top), axis=axis))
    return np.squeeze(top, axis=axis) + sums


def log_moment_tail_integral(s: float, i: int, x: float) -> float:
    """log of integral_x^inf (log t)^i t^(-s) dt, for s > 1, i >= 0, x >= 2.

    Substituting u = (s-1) log t turns the integral into an upper incomplete
    gamma function:

        integral = Gamma(i+1, (s-1) log x) / (s-1)^(i+1)

    with Gamma(i+1, z) = i! e^-z sum_{m<=i} z^m/m! for integer i.  Everything
    is assembled in log space so large i cannot overflow the factorial.
    """
    z = (s - 1.0) * math.log(x)
    m = np.arange(i + 1, dtype=np.float64)
    if z > 0.0:
        log_terms = -z + m * math.log(z) - log_factorials(i)
    else:  # x == 1 would give z == 0; only the m = 0 term survives
        log_terms = np.where(m == 0, 0.0, -np.inf)
    log_r = float(logsumexp(log_terms))
    return math.lgamma(i + 1.0) + log_r - (i + 1.0) * math.log(s - 1.0)


def log_moment_tail(s: float, i: int, j_max: int) -> float:
    """log of a certified upper bound on sum_{k>J} (log k)^i k^-s, s > 1, J >= 1.

    For i = 0 this is the Euler-Maclaurin tail at n = J+1 plus its remainder
    bound.  For i >= 1 it is the integral from J, which dominates the sum
    wherever the summand decreases; while J sits left of the summand's peak
    at k = e^(i/s), the peak value is added.  The result is rounded outward
    by ``_log_tail_rounding``.
    """
    if i == 0:
        x = float(j_max + 1)
        tail, remainder = _euler_maclaurin_tail(s, x)
        tail += remainder
        if not tail > 0.0:
            return -math.inf
        log_tail = math.log(tail)
    else:
        x = float(j_max)
        log_tail = log_moment_tail_integral(s, i, x)
        if math.log(x) < i / s:
            log_tail = float(np.logaddexp(log_tail, _log_summand_peak(s, i)))
    return log_tail + _log_tail_rounding(s, i, x, log_tail)


def _log_tail_rounding(s: float, i: int, x: float, log_tail: float) -> float:
    """A-priori bound on the rounding error of a log-space moment tail at x.

    The assembly adds pieces of size log i!, (i+1) |log(s-1)|, z = (s-1) log x
    (and i |log z| inside the log-sum-exp of i+1 terms), and ends at
    log_tail; for i = 0 the Euler-Maclaurin powers n^(1-s), n^-s carry the
    rounding of their exponents, u |log_tail| relative.  Each elementary step
    (log, lgamma, pow, product, sum) is accurate to a couple of ulps of its
    own result, so 4 u per unit of total magnitude, plus one unit per summed
    term and a few for the fixed steps, covers it; against 40-digit mpmath
    the actual error stays below 1.1 u per unit over s in [1.001, 101],
    i <= 400, x <= 10^7.
    """
    z = (s - 1.0) * math.log(x)
    log_z = abs(math.log(z)) if z > 0.0 else 0.0
    magnitude = (
        math.lgamma(i + 1.0)
        + (i + 1.0) * abs(math.log(s - 1.0))
        + z
        + i * log_z
        + abs(log_tail)
        + i
        + 6.0
    )
    return 4.0 * UNIT_ROUNDOFF * magnitude


def _log_summand_peak(s: float, i: int) -> float:
    """log max_x (log x)^i x^-s = i (log(i/s) - 1), attained at x = e^(i/s)."""
    return i * (math.log(i / s) - 1.0)


def _log_moment_partial(s: float, i: int, cutoff: int) -> float:
    """sum_{2 <= k <= cutoff} (log k)^i k^(-s) by direct summation."""
    total = 0.0
    for start in range(2, cutoff + 1, _CHUNK):
        k = np.arange(start, min(cutoff, start + _CHUNK - 1) + 1, dtype=np.float64)
        logk = np.log(k)
        total += float(np.sum(np.exp(i * np.log(logk) - s * logk)))
    return total


def log_moment_sum(
    s: float, i: int, budget: PrecisionBudget = DEFAULT_BUDGET
) -> CertifiedValue:
    """Certified sum_{k>=1} (log k)^i k^(-s), for real s > 1 and integer i >= 0.

    For i = 0 this is zeta(s) and is delegated.  Otherwise the k = 1 term
    vanishes and the sum is evaluated directly up to a cutoff J, with the
    remainder bracketed by integral bounds.  The integrand (log x)^i x^(-s)
    peaks at x = e^(i/s); when the cutoff has not yet passed the peak, the
    bracket widens by the peak value, which keeps it valid on both monotone
    pieces.
    """
    if not isinstance(i, int) or i < 0:
        raise DomainError(f"moment order must be an int >= 0, got {i}")
    s = float(s)
    if not s > 1.0:
        raise DomainError(f"log_moment_sum requires s > 1, got {s}")
    if i == 0:
        return zeta(s, budget)

    cutoff = min(budget.max_terms, 1024)
    while True:
        partial = _log_moment_partial(s, i, cutoff)
        hi_tail = math.exp(log_moment_tail(s, i, cutoff))
        log_lo = log_moment_tail_integral(s, i, float(cutoff + 1))
        lo_tail = math.exp(log_lo - _log_tail_rounding(s, i, float(cutoff + 1), log_lo))
        if math.log(float(cutoff)) < i / s:
            # cutoff before the summand's peak: the lower end loses up to
            # twice the peak value on the rising piece
            lo_tail = max(0.0, lo_tail - 2.0 * math.exp(_log_summand_peak(s, i)))
        value = partial + 0.5 * (hi_tail + lo_tail)
        err = max(0.5 * (hi_tail - lo_tail), 0.5 * float(np.spacing(abs(value))))

        if not math.isfinite(value):
            raise OverflowError(
                f"log_moment_sum({s}, {i}) exceeds the binary64 range"
            )
        if err <= max(budget.abs_tol, budget.rel_tol * abs(value)):
            return CertifiedValue(value, err)
        if cutoff >= budget.max_terms:
            raise BudgetExhaustedError(
                f"log_moment_sum({s}, {i}) cannot reach the requested tolerance "
                f"within max_terms = {budget.max_terms}; achieved error bound "
                f"{err:.3e}",
                achieved_error_bound=err,
            )
        cutoff = min(budget.max_terms, 4 * cutoff)


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


MARGIN_FLOOR = -1e-12

# The moment series converges too slowly for 1e-12 relative accuracy within
# the term cap (most of its mass can sit past k = e^20), but the integral
# bracket still pins it to ~1e-8 relative.  The grid checks add the achieved
# error bound to the inequality, so the relaxation costs no rigor.
SLOW_SERIES_BUDGET = PrecisionBudget(abs_tol=1e-9, rel_tol=1e-7, max_terms=10**6)

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
    certified error bounds credited to the right) drops below MARGIN_FLOOR.
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
    for label, margin in labelled_margins:
        points += 1
        worst = min(worst, margin)
        if margin < MARGIN_FLOOR:
            failures.append((label, margin))
    return GridCheck(name, points, worst, tuple(failures))


def _bracket_margins(s_grid, zeta_values, invert):
    for s, z in zip(s_grid, zeta_values):
        low = z.value + z.error_bound - 1.0 / (s - 1.0)
        if invert:
            low = -low
        high = s / (s - 1.0) - (z.value - z.error_bound)
        yield f"s={s:.6g}", min(low, high)


def _h_margins(s_grid, zeta_values):
    for s, z in zip(s_grid, zeta_values):
        yield f"s={s:.6g}", z.value + z.error_bound - lower_bound_h(s)


def _shifted_g_margins(budget):
    for x in np.geomspace(_VERIFY_X_LO, _VERIFY_S_HI, _VERIFY_S_POINTS):
        x = float(x)
        z = zeta(1.0 + x, budget)
        yield f"x={x:.6g}", z.value + z.error_bound - (1.0 / x + lower_bound_g(x))


def _dominance_margins(crossing):
    for x in np.linspace(CROSSING_BRACKET[0], CROSSING_BRACKET[1], _DOMINANCE_POINTS):
        x = float(x)
        gap = lower_bound_f(x) - lower_bound_g(x)
        if x > crossing + _DOMINANCE_WINDOW:
            yield f"x={x:.6g}", gap
        elif x < crossing - _DOMINANCE_WINDOW:
            yield f"x={x:.6g}", -gap
        # points inside the window around the crossing are not classified


def _moment_margins(budget):
    moment_budget = PrecisionBudget(
        abs_tol=max(budget.abs_tol, SLOW_SERIES_BUDGET.abs_tol),
        rel_tol=max(budget.rel_tol, SLOW_SERIES_BUDGET.rel_tol),
        max_terms=max(budget.max_terms, SLOW_SERIES_BUDGET.max_terms),
    )
    for s in _MOMENT_ARGS:
        z = zeta(s, budget)
        for i in _MOMENT_ORDERS:
            factor = math.factorial(i) / (s - 1.0) ** i
            moment = log_moment_sum(s, i, moment_budget)
            combined = moment.error_bound + factor * z.error_bound
            margin = factor * z.value + combined - moment.value
            yield f"s={s:g},i={i}", margin


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
    so a healthy library yields margins >= MARGIN_FLOOR everywhere.

    ``inject_fault`` flips the direction of the lower bracket inequality;
    it exists so harnesses can confirm the suite actually detects failures.
    """
    s_grid = [float(s) for s in np.geomspace(_VERIFY_S_LO, _VERIFY_S_HI, _VERIFY_S_POINTS)]
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
