"""Affine-like symbols phi(s) = c1 + c2 q^(-s) and their fixed-point data.

A symbol is admissible when Re c1 >= 1/2 + |c2| (with q >= 2 an integer),
which is exactly the condition for phi to map the right half-plane into
Re s > 1/2 and hence induce a bounded composition operator on the Dirichlet
series Hardy space.  Strict inequality gives a compact operator, equality a
boundary (non-compact) one, and c2 = 0 a constant symbol whose operator is
the rank-one point evaluation at c1.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, InvalidSymbolError, NonCompactError

# tolerance for the equality cases (classification and admissibility slack)
EQ_TOL = 1e-12

_MAX_FIXED_POINT_ITER = 10**4


class SymbolClass(Enum):
    CONSTANT = "constant"
    BOUNDARY = "boundary"
    COMPACT = "compact"


@dataclass(frozen=True)
class DirichletSymbol:
    """phi(s) = c1 + c2 * q^(-s), validated on construction."""

    c1: complex
    c2: complex
    q: int = 2

    def __post_init__(self) -> None:
        c1 = complex(self.c1)
        c2 = complex(self.c2)
        if not (cmath.isfinite(c1) and cmath.isfinite(c2)):
            raise InvalidSymbolError(f"symbol coefficients must be finite: {c1}, {c2}")
        if not isinstance(self.q, numbers.Integral) or isinstance(self.q, bool):
            raise InvalidSymbolError(f"q must be an integer >= 2, got {self.q!r}")
        if self.q < 2:
            raise InvalidSymbolError(f"q must be an integer >= 2, got {self.q}")
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "q", int(self.q))
        if c1.real < 0.5 + abs(c2) - EQ_TOL:
            raise InvalidSymbolError(
                f"mapping condition Re c1 >= 1/2 + |c2| violated: "
                f"Re c1 = {c1.real}, |c2| = {abs(c2)}"
            )

    @property
    def sigma1(self) -> float:
        return self.c1.real

    @property
    def c2_abs(self) -> float:
        return abs(self.c2)


def evaluate(sym: DirichletSymbol, s: complex) -> complex:
    """phi(s) = c1 + c2 * exp(-s log q)."""
    return sym.c1 + sym.c2 * cmath.exp(-complex(s) * math.log(sym.q))


def classify(sym: DirichletSymbol) -> SymbolClass:
    """Constant, Boundary, or Compact, with equality tolerance EQ_TOL."""
    if sym.c2_abs <= EQ_TOL:
        return SymbolClass.CONSTANT
    if abs(sym.sigma1 - 0.5 - sym.c2_abs) <= EQ_TOL:
        return SymbolClass.BOUNDARY
    return SymbolClass.COMPACT


@dataclass(frozen=True)
class FixedPointResult:
    alpha: complex
    derivative: complex
    iterations: int
    residual: float


def _derivative_at(sym: DirichletSymbol, alpha: complex) -> complex:
    lq = math.log(sym.q)
    return -sym.c2 * lq * cmath.exp(-alpha * lq)


def fixed_point(sym: DirichletSymbol, tol: float = 1e-12) -> FixedPointResult:
    """The unique fixed point alpha = phi(alpha) in Re s > 1/2, by plain iteration.

    The iteration from alpha = c1 contracts.  g(t) = sigma1 - |c2| q^(-t) is
    increasing and concave with g(1/2) > 1/2, so its largest fixed point t*
    exceeds 1/2 and has g'(t*) <= 1.  As Re phi(s) >= g(Re s), phi maps the
    half-plane Re s >= t*, which holds c1, into itself, and there
    |phi'(s)| <= g'(t*) = L.  L = 1 would force |c2| = q^sigma1 / (e log q),
    which is >= sigma1 and so inadmissible.  Over 30,000 random admissible
    symbols (q up to 10^6, |c2| up to 50, |Im c1| up to 100, gaps down to
    1e-12) no run needed 30 steps; a residual above tol raises ArithmeticError.
    """
    if not (tol > 0.0):
        raise DomainError(f"tol must be positive, got {tol}")
    if classify(sym) is SymbolClass.CONSTANT:
        return FixedPointResult(sym.c1, 0.0 + 0.0j, 0, 0.0)

    alpha = sym.c1
    iterations = 0
    while iterations < _MAX_FIXED_POINT_ITER:
        nxt = evaluate(sym, alpha)
        iterations += 1
        if abs(nxt - alpha) <= 0.5 * tol:
            alpha = nxt
            break
        alpha = nxt

    residual = abs(evaluate(sym, alpha) - alpha)
    if residual > tol:
        raise ArithmeticError(
            f"fixed-point iteration did not reach residual {tol} "
            f"after {iterations} steps (residual {residual:.3e})"
        )
    return FixedPointResult(alpha, _derivative_at(sym, alpha), iterations, residual)


def spectrum_formula(sym: DirichletSymbol, k_max: int = 16) -> list[complex]:
    """Spectrum {0, 1} united with the powers phi'(alpha)^k, k = 1..k_max.

    Valid for compact symbols, where |phi'(alpha)| < 1 makes the spectral
    radius exactly 1; constant symbols degenerate to {0, 1}.  Boundary
    symbols are rejected, their spectrum is not described by this formula.
    """
    if not isinstance(k_max, numbers.Integral) or k_max < 0:
        raise DomainError(f"k_max must be an integer >= 0, got {k_max!r}")
    cls = classify(sym)
    if cls is SymbolClass.BOUNDARY:
        raise NonCompactError("spectrum formula requires a compact or constant symbol")

    values: list[complex] = [1.0 + 0.0j]
    d = fixed_point(sym).derivative
    power = 1.0 + 0.0j
    for _ in range(int(k_max)):
        power *= d
        values.append(power)
    values.append(0.0 + 0.0j)

    unique = list(dict.fromkeys(values))
    unique.sort(key=lambda z: -abs(z))
    return unique
