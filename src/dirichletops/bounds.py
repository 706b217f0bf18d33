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
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonCompactError
from .special_functions import DEFAULT_BUDGET, PrecisionBudget, zeta
from .symbol import EQ_TOL, DirichletSymbol, SymbolClass, classify

_KERNEL_GRID_LO = 0.5 + 1e-6
_KERNEL_GRID_HI = 60.0
_KERNEL_GRID_POINTS = 512
_KERNEL_REFINE_WIDTH = 1e-10

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def schur_radius(sigma1: float, c2_abs: float) -> float:
    """Smallest positive root of P(r) = c r^2 + (1 - 2 sigma1) r + c.

    Evaluated in the subtraction-free form

        r = 2 c / ((2 sigma1 - 1) + sqrt((2 sigma1 - 1)^2 - 4 c^2)),

    which is stable as the discriminant approaches zero.  The two roots have
    product 1, so r <= 1 always, with r = 1 exactly on the boundary line
    sigma1 = 1/2 + c.
    """
    sigma1 = float(sigma1)
    c = float(c2_abs)
    if not c > 0.0:
        raise DomainError(f"schur_radius requires |c2| > 0, got {c}")
    if sigma1 < 0.5 + c - EQ_TOL:
        raise DomainError(
            f"schur_radius requires sigma1 >= 1/2 + |c2|: {sigma1} < {0.5 + c}"
        )
    b = 2.0 * sigma1 - 1.0
    disc = b * b - 4.0 * c * c
    if abs(disc) <= 1e-12 * (b * b + 4.0 * c * c):
        # rounding fuzz near the double root; 2c/b stays inside the root
        # interval (P(2c/b) = -c disc / b^2 <= 0) so the bound remains valid
        disc = 0.0
    elif disc < 0.0:
        raise DomainError(
            f"negative discriminant {disc} for sigma1 = {sigma1}, |c2| = {c}"
        )
    r = 2.0 * c / (b + math.sqrt(disc))
    return min(r, 1.0)


@dataclass(frozen=True)
class NormBoundReport:
    """Squared-norm bracket for one symbol.

    ``schur_r`` is None for constant symbols, where the bracket collapses to
    the exact value zeta(2 sigma1) and no Schur weights are involved.
    """

    symbol_class: SymbolClass
    schur_r: float | None
    lower_sq: float
    upper_sq: float
    kernel_lower_sq: float


def kernel_lower_bound(
    sym: DirichletSymbol, budget: PrecisionBudget = DEFAULT_BUDGET
) -> float:
    """sup over x > 1/2 of zeta(2 sigma1 - 2 |c2| q^(-x)) / zeta(2 x).

    Reproducing-kernel lower bound for the squared norm.  The ratio tends to
    zeta(2 sigma1) as x -> inf but can peak at finite x, so the implementation
    scans a log-spaced grid and refines the best bracket by golden section
    before taking the max with the limit value.
    """
    sigma1 = sym.sigma1
    c = sym.c2_abs
    limit = zeta(2.0 * sigma1, budget).value
    if classify(sym) is SymbolClass.CONSTANT:
        return limit

    log_q = math.log(sym.q)

    def ratio(x: float) -> float:
        num = zeta(2.0 * sigma1 - 2.0 * c * math.exp(-x * log_q), budget).value
        den = zeta(2.0 * x, budget).value
        return num / den

    grid = np.geomspace(_KERNEL_GRID_LO, _KERNEL_GRID_HI, _KERNEL_GRID_POINTS)
    values = [ratio(float(x)) for x in grid]
    k = int(np.argmax(values))
    best = values[k]

    lo = float(grid[max(k - 1, 0)])
    hi = float(grid[min(k + 1, len(grid) - 1)])
    a, b = lo, hi
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


def norm_bounds(
    sym: DirichletSymbol, budget: PrecisionBudget = DEFAULT_BUDGET
) -> NormBoundReport:
    """Certified squared-norm bracket plus the kernel lower bound.

    Constant symbols give the exact value zeta(2 sigma1) on both ends.  For
    boundary symbols r = 1 and the bracket specializes to
    [zeta(1 + 2 |c2|), zeta(1 + |c2|)].
    """
    cls = classify(sym)
    if cls is SymbolClass.CONSTANT:
        exact = zeta(2.0 * sym.sigma1, budget).value
        return NormBoundReport(cls, None, exact, exact, kernel_lower_bound(sym, budget))

    r = schur_radius(sym.sigma1, sym.c2_abs)
    lower = zeta(2.0 * sym.sigma1, budget).value
    upper = zeta(2.0 * sym.sigma1 - r * sym.c2_abs, budget).value
    kernel = kernel_lower_bound(sym, budget)
    return NormBoundReport(cls, r, lower, upper, kernel)


@dataclass(frozen=True)
class ApproxNumberBound:
    """Geometric bound a_(N+1) <= prefactor * ratio^N for a compact symbol."""

    prefactor: float
    ratio: float

    def bound_at(self, n: int) -> float:
        if n < 0:
            raise DomainError(f"approximation-number index must be >= 0, got {n}")
        return self.prefactor * self.ratio**n


def approx_number_bound(sym: DirichletSymbol) -> ApproxNumberBound:
    """Geometric approximation-number bound, requires 2 sigma1 - 2 |c2| - 1 > 0.

        a_(N+1) <= sqrt((2 sigma1 - 1)(2 sigma1) / ((2 sigma1 - 1)^2 - (2 |c2|)^2))
                   * (2 |c2| / (2 sigma1 - 1))^N

    Boundary symbols are rejected by ``classify``, with its EQ_TOL, because
    rounding can leave the raw gap positive on the boundary line.
    """
    sigma1 = sym.sigma1
    c = sym.c2_abs
    gap = 2.0 * sigma1 - 2.0 * c - 1.0
    if gap <= 0.0 or classify(sym) is SymbolClass.BOUNDARY:
        raise NonCompactError(
            f"approximation-number bound needs 2 Re c1 - 2 |c2| - 1 > 0, got {gap}"
        )
    b = 2.0 * sigma1 - 1.0
    prefactor = math.sqrt(b * 2.0 * sigma1 / (b * b - 4.0 * c * c))
    ratio = 2.0 * c / b
    return ApproxNumberBound(prefactor, ratio)
