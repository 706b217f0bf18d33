"""Norm and approximation-number bounds computed from symbol parameters alone.

For an admissible symbol with sigma1 = Re c1 and c = |c2| > 0, the squared
operator norm is bracketed by

    zeta(2 sigma1)  <=  ||C_phi||^2  <=  zeta(2 sigma1 - r c),

where r is the smallest positive root of the Schur-weight quadratic

    P(r) = c r^2 + (1 - 2 sigma1) r + c.

All formulas consume only (sigma1, c), so reports are invariant under
vertical translation of c1 and rotation of c2.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .errors import DomainError, NonCompactError
from .special_functions import DEFAULT_BUDGET, UNIT_ROUNDOFF, PrecisionBudget, geomspace, zeta
from .symbol import EQ_TOL, DirichletSymbol, SymbolClass, classify

_KERNEL_GRID = tuple(geomspace(0.5 + 1e-6, 60.0, 512))
_KERNEL_REFINE_WIDTH = 1e-10

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def schur_radius(sigma1: float, c2_abs: float) -> float:
    """Smallest positive root of P(r) = c r^2 + (1 - 2 sigma1) r + c, rounded up.

    c is rounded up one ulp, which covers the modulus of a complex c2 that
    abs rounds.  Over one power-of-two denominator d, 2 sigma1 - 1 = B / d
    and 2c = C / d, and the roots are (B +- sqrt(B^2 - C^2)) / C, with
    product 1.  Where B <= C the symbol lies on or below the boundary line
    sigma1 = 1/2 + c, which DirichletSymbol admits only within EQ_TOL, and
    r = 1, where P(1) = (C - B) / d >= 0: the Schur certificate reads False
    there unless B = C.  Otherwise r is the least float at or above
    C / (B + sqrt(B^2 - C^2)), with a floor square root 64 bits past the
    point, capped at 1.  P(r) <= 0 holds exactly at the rounded-up c: r
    lies at most 2^-64 relative plus one ulp above the smaller root, and
    1 lies between the roots.  The two roots are far further apart: where
    B > C, sigma1 > c, so d < 2^53 / c, B - C >= 1 >= 2^-54 C, and the
    roots lie at least about 2^-26 apart in relative terms.
    """
    sigma1 = float(sigma1)
    c = float(c2_abs)
    if not c > 0.0:
        raise DomainError(f"schur_radius requires |c2| > 0, got {c}")
    if sigma1 < 0.5 + c - EQ_TOL:
        raise DomainError(
            f"schur_radius requires sigma1 >= 1/2 + |c2|: {sigma1} < {0.5 + c}"
        )
    _, big_b, big_c, _ = _line_integers(sigma1, c, True)
    if big_b <= big_c:
        return 1.0
    root = math.isqrt((big_b * big_b - big_c * big_c) << 128)
    return min(_ceil_quotient(big_c << 64, (big_b << 64) + root), 1.0)


def _line_integers(sigma1: float, c: float, raise_c: bool) -> tuple[int, int, int, int]:
    """(n_1, B, C, d): 2 sigma1 = 2 n_1 / d, 2 sigma1 - 1 = B / d and 2c = C / d over
    one power-of-two d, c first raised by its ulp if raise_c (DBL_MAX to 2^1024)."""
    n1, nc, ulp, d = _integers(sigma1, c, math.ulp(c) if raise_c else 0.0)
    return n1, 2 * n1 - d, 2 * (nc + ulp), d


def _integers(*values: float) -> tuple[int, ...]:
    """The floats as integers n_k over one power-of-two denominator d: (n_1, ..., d)."""
    ratios = [v.as_integer_ratio() for v in values]
    d = max(q for _, q in ratios)
    return (*(p * (d // q) for p, q in ratios), d)


def _ceil_quotient(num: int, den: int) -> float:
    """The least float >= num / den, for positive integers."""
    value = num / den  # correctly rounded
    p, q = value.as_integer_ratio()
    return math.nextafter(value, math.inf) if p * den < num * q else value


def schur_polynomial_nonpositive(sigma1: float, c2_abs: float, r: float) -> bool:
    """P(r) = c r^2 + (1 - 2 sigma1) r + c <= 0, decided exactly on the floats.

    Over one denominator d, d^3 P = n_c (n_r^2 + d^2) + (d - 2 n_1) n_r d
    is an integer with the sign of P.
    """
    n1, nc, nr, d = _integers(sigma1, c2_abs, r)
    return nc * (nr * nr + d * d) + (d - 2 * n1) * nr * d <= 0


def c2_abs_upper(sym: DirichletSymbol) -> float:
    """A float at or above the exact |c2| of the symbol's float components.

    abs is exact when either component is zero and within one ulp
    otherwise, so the next float up bounds it.
    """
    c2 = sym.c2
    if c2.real == 0.0 or c2.imag == 0.0:
        return sym.c2_abs
    return math.nextafter(sym.c2_abs, math.inf)


def schur_exponent(sym: DirichletSymbol, r: float) -> float:
    """s = 2 sigma1 - r |c2|, rounded down, with |c2| from c2_abs_upper.

    zeta(s) and every row sum of the Schur test fall as s grows, so values
    at this s bound those at the exact one from above.
    """
    sigma1, c = sym.sigma1, c2_abs_upper(sym)
    s = 2.0 * sigma1 - r * c
    ns, n1, nr, nc, d = _integers(s, sigma1, r, c)
    if ns * d > 2 * n1 * d - nr * nc:  # the two roundings move s by at most an ulp
        s = math.nextafter(s, -math.inf)
    return s


class NormBoundReport(NamedTuple):
    """Squared-norm bracket for one symbol.

    ``schur_r`` is None for constant symbols, where the bracket collapses to
    the exact value zeta(2 sigma1) and no Schur weights are involved.
    """

    symbol_class: SymbolClass
    schur_r: float | None
    lower_sq: float
    upper_sq: float
    kernel_lower_sq: float


@lru_cache(maxsize=16)
def _kernel_denominators(budget: PrecisionBudget) -> tuple[float, ...]:
    """zeta(2x) on the kernel grid; it does not depend on the symbol."""
    return tuple(zeta(2.0 * x, budget).value for x in _KERNEL_GRID)


def kernel_lower_bound(
    sym: DirichletSymbol, budget: PrecisionBudget = DEFAULT_BUDGET
) -> float:
    """sup over x > 1/2 of zeta(2 sigma1 - 2 |c2| 2^(-x)) / zeta(2 x).

    Reproducing-kernel lower bound for the squared norm, taken at q = 2
    whatever ``sym.q`` is.  The norm does not depend on q: the isometry U
    that sends (q^i)^-s to (q'^i)^-s maps the closed span where C_phi
    takes its values for base q onto the one for q', and C_phi for q' is
    U C_phi for q, so the bound at q = 2 holds for every q.  At a fixed
    t = q^-x a larger q means a smaller x and so a larger zeta(2x), so
    q = 2 gives the largest bound.  The ratio tends to zeta(2 sigma1) as
    x -> inf but can peak at finite x, so the implementation scans a
    log-spaced grid and refines the best bracket by golden section before
    taking the max with the limit value.
    """
    sigma1 = sym.sigma1
    c = sym.c2_abs
    limit = zeta(2.0 * sigma1, budget).value
    if classify(sym) is SymbolClass.CONSTANT:
        return limit

    log_q = math.log(2.0)

    def numerator(x: float) -> float:
        return zeta(2.0 * (sigma1 - c * math.exp(-x * log_q)), budget).value

    def ratio(x: float) -> float:
        return numerator(x) / zeta(2.0 * x, budget).value

    grid = _KERNEL_GRID
    values = [numerator(x) / den for x, den in zip(grid, _kernel_denominators(budget))]
    k = max(range(len(values)), key=values.__getitem__)  # the first maximum
    best = values[k]

    a, b = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = ratio(x1), ratio(x2)
    while b - a > _KERNEL_REFINE_WIDTH:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = ratio(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = ratio(x1)
    best = max(best, f1, f2)
    return max(best, limit)


def _zeta_bracket(
    sym: DirichletSymbol, budget: PrecisionBudget
) -> tuple[SymbolClass, float | None, float, float]:
    """(class, schur_r, lower_sq, upper_sq) of norm_bounds, without the
    kernel bound and its zeta calls."""
    cls = classify(sym)
    if cls is SymbolClass.CONSTANT:
        exact = zeta(2.0 * sym.sigma1, budget).value
        return cls, None, exact, exact
    r = schur_radius(sym.sigma1, sym.c2_abs)
    lower = zeta(2.0 * sym.sigma1, budget).value
    upper = zeta(2.0 * sym.sigma1 - r * sym.c2_abs, budget).value
    return cls, r, lower, upper


def norm_bounds(
    sym: DirichletSymbol, budget: PrecisionBudget = DEFAULT_BUDGET
) -> NormBoundReport:
    """Certified squared-norm bracket plus the kernel lower bound.

    Constant symbols give the exact value zeta(2 sigma1) on both ends.  For
    boundary symbols r = 1 and the bracket specializes to
    [zeta(1 + 2 |c2|), zeta(1 + |c2|)].
    """
    return NormBoundReport(*_zeta_bracket(sym, budget), kernel_lower_bound(sym, budget))


class ApproxNumberBound(NamedTuple):
    """Geometric bound a_(N+1) <= prefactor * ratio^N for a compact symbol."""

    prefactor: float
    ratio: float

    def bound_at(self, n: int) -> float:
        """prefactor * ratio^n, rounded up.

        With u = 2^-53 and Higham's gamma_m = m u / (1 - m u) (Accuracy
        and Stability of Numerical Algorithms, 2002, ch. 3): ratio^n is
        within gamma_(n+4) of its value whether libm's pow is taken
        accurate to 2 ulps (4u) or as the n - 1 products of repeated
        multiplication.  The product by prefactor, 1 - m u and the division
        by it add three roundings, so the factor 1 + gamma_(n+8) =
        1 / (1 - (n+8) u) covers them all; past m u >= 1 the bound is +inf.
        A power below the normal range is raised to 2^-1021, which covers
        its absolute error.  n = 0 is exact.
        """
        if n < 0:
            raise DomainError(f"approximation-number index must be >= 0, got {n}")
        if n == 0:
            return self.prefactor
        m = (n + 8) * UNIT_ROUNDOFF
        power = max(self.ratio**n, 2.0**-1021)
        return self.prefactor * power / (1.0 - m) if m < 1.0 else math.inf


def approx_number_bound(sym: DirichletSymbol) -> ApproxNumberBound:
    """Geometric approximation-number bound, requires 2 sigma1 - 2 |c2| - 1 > 0.

        a_(N+1) <= sqrt((2 sigma1 - 1)(2 sigma1) / ((2 sigma1 - 1)^2 - (2 |c2|)^2))
                   * (2 |c2| / (2 sigma1 - 1))^N

    The exact test B > C of schur_radius decides the sign of the gap, and
    ``classify`` rejects the symbols within its EQ_TOL above the line as
    boundary symbols.  Both
    numbers grow with |c2| and are rounded up: they are exact rationals at
    c2_abs_upper, rounded to the next float up, and the prefactor's
    correctly rounded square root is raised by one ulp.  A rejected
    symbol's gap is reported from the exact integers at the float |c2|,
    correctly rounded, so it is finite even where 2 sigma1 overflows.
    """
    n1, big_b, big_c, d = _line_integers(sym.sigma1, sym.c2_abs, c2_abs_upper(sym) > sym.c2_abs)
    if big_b <= big_c or classify(sym) is SymbolClass.BOUNDARY:
        _, gap_b, gap_c, gap_d = _line_integers(sym.sigma1, sym.c2_abs, False)
        raise NonCompactError(
            "approximation-number bound needs 2 Re c1 - 2 |c2| - 1 > 0, "
            f"got {(gap_b - gap_c) / gap_d}"
        )
    den = big_b * big_b - big_c * big_c
    prefactor = math.nextafter(math.sqrt(_ceil_quotient(big_b * 2 * n1, den)), math.inf)
    return ApproxNumberBound(prefactor, _ceil_quotient(big_c, big_b))
