"""Truncated matrix realization of the composition operator.

Against the orthonormal bases {j^-s} (domain side) and {(q^i)^-s} (range
side) the operator acts as the infinite matrix

    a[i][j] = j^(-c1) (-c2 log j)^i / i!,    i >= 0, j >= 1,

which never references q.  This module builds dense truncations of that
matrix, certifies the norm of the discarded rows and columns, estimates the
largest singular value by power iteration, computes singular spectra with
LAPACK, and checks the two-weight Schur inequalities numerically.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, MatrixSizeError
from .special_functions import (
    DEFAULT_BUDGET,
    PrecisionBudget,
    log_factorials,
    log_moment_tail,
    logsumexp,
)
from .special_functions import zeta as _certified_zeta
from .symbol import DirichletSymbol, SymbolClass, classify

MAX_ENTRIES_ENV = "DIRICHLETOPS_MAX_MATRIX_ENTRIES"
_DEFAULT_MAX_ENTRIES = 10**8

_COLUMN_CHUNK = 1 << 16


def _max_entries() -> int:
    raw = os.environ.get(MAX_ENTRIES_ENV)
    if raw is None:
        return _DEFAULT_MAX_ENTRIES
    try:
        cap = int(raw)
    except ValueError as exc:
        raise MatrixSizeError(f"{MAX_ENTRIES_ENV} must be an integer, got {raw!r}") from exc
    if cap <= 0:
        raise MatrixSizeError(f"{MAX_ENTRIES_ENV} must be positive, got {cap}")
    return cap


def _check_truncation(i_max: int, j_max: int) -> None:
    if not isinstance(i_max, int) or isinstance(i_max, bool) or i_max < 0:
        raise DomainError(f"row index bound must be an integer >= 0, got {i_max!r}")
    if not isinstance(j_max, int) or isinstance(j_max, bool) or j_max < 1:
        raise DomainError(f"column count must be an integer >= 1, got {j_max!r}")


@dataclass(frozen=True, eq=False)
class TruncatedMatrix:
    """Dense (I+1) x J slice of the operator matrix.

    ``tail_bound`` is a certified upper bound on the operator norm of the
    discarded part (rows > I and columns > J); it is infinite for boundary
    symbols, whose row tails do not decay geometrically.  The entry array is
    frozen after construction and safe to share across threads.
    """

    entries: np.ndarray
    symbol: DirichletSymbol
    tail_bound: float

    @property
    def row_count(self) -> int:
        return self.entries.shape[0]

    @property
    def col_count(self) -> int:
        return self.entries.shape[1]

    @property
    def i_max(self) -> int:
        return self.row_count - 1

    @property
    def j_max(self) -> int:
        return self.col_count


def build_matrix(sym: DirichletSymbol, i_max: int, j_max: int) -> TruncatedMatrix:
    """Entries a[i][j] = j^(-c1) (-c2 log j)^i / i! for i <= I, j <= J.

    Assembled column-blockwise in log space,

        a[i][j] = exp(-c1 ln j + i log(-c2 ln j) - lgamma(i+1)),

    with the principal branch of the complex logarithm, so large i cannot
    overflow the factorial.  Column j = 1 is (1, 0, 0, ...) and a zero c2
    collapses everything onto row 0.
    """
    _check_truncation(i_max, j_max)
    total = (i_max + 1) * j_max
    cap = _max_entries()
    if total > cap:
        raise MatrixSizeError(
            f"matrix would hold {total} entries, cap is {cap} (set {MAX_ENTRIES_ENV})"
        )

    entries = np.zeros((i_max + 1, j_max), dtype=np.complex128)
    entries[0, 0] = 1.0
    if j_max >= 2:
        log_fact = log_factorials(i_max)
        i_idx = np.arange(i_max + 1, dtype=np.float64)
        for start in range(2, j_max + 1, _COLUMN_CHUNK):
            stop = min(start + _COLUMN_CHUNK - 1, j_max)
            j = np.arange(start, stop + 1, dtype=np.float64)
            lj = np.log(j)
            if sym.c2 == 0:
                entries[0, start - 1 : stop] = np.exp(-sym.c1 * lj)
            else:
                w = np.log(-sym.c2 * lj.astype(np.complex128))
                expo = (
                    i_idx[:, None] * w[None, :]
                    - log_fact[:, None]
                    - sym.c1 * lj[None, :]
                )
                entries[:, start - 1 : stop] = np.exp(expo)
    entries.flags.writeable = False
    tail = tail_bounds(sym, i_max, j_max)
    return TruncatedMatrix(entries=entries, symbol=sym, tail_bound=tail)


def tail_bounds(sym: DirichletSymbol, i_max: int, j_max: int) -> float:
    """Certified operator-norm bound on the discarded rows and columns.

    Root-sum of two Hilbert-Schmidt pieces:

    * rows i > I: each squared row norm is |c2|^2i/(i!)^2 times the 2i-th
      log moment of j^(-2 sigma1), which the factorial-moment chain bounds by
      rho^2i * 2 sigma1/(2 sigma1 - 1) with rho = 2|c2|/(2 sigma1 - 1); the
      geometric sum is closed form, and infinite for boundary symbols where
      rho = 1.
    * columns j > J within rows i <= I: log-moment tails of order 2i, each
      bounded by its incomplete-gamma integral (plus peak term when J is left
      of the summand's peak).
    """
    _check_truncation(i_max, j_max)
    sigma1 = sym.sigma1
    c = sym.c2_abs
    s = 2.0 * sigma1

    if c == 0.0:
        # single nonzero row: only the column tail survives
        col_sq = math.exp(log_moment_tail(s, 0, j_max))
        return math.sqrt(col_sq)

    rho_sq = (2.0 * c / (2.0 * sigma1 - 1.0)) ** 2
    if rho_sq >= 1.0 or classify(sym) is SymbolClass.BOUNDARY:
        return math.inf
    row_sq = (s / (s - 1.0)) * rho_sq ** (i_max + 1) / (1.0 - rho_sq)

    log_c = math.log(c)
    col_sq = 0.0
    for i in range(i_max + 1):
        log_term = (
            2.0 * i * log_c
            - 2.0 * math.lgamma(i + 1.0)
            + log_moment_tail(s, 2 * i, j_max)
        )
        col_sq += math.exp(log_term)
    return math.sqrt(row_sq + col_sq)


class NormEstimate(NamedTuple):
    lower: float
    upper: float
    iterations: int
    converged: bool


def operator_norm_estimate(
    m: TruncatedMatrix, tol: float = 1e-12, max_iter: int = 1000
) -> NormEstimate:
    """Largest singular value of the truncation, bracketing the operator norm.

    Power iteration on the Gram operator x -> A*(A x) from the deterministic
    all-ones start vector.  Every reported ``lower`` is a Rayleigh quotient
    ||A x|| with ||x|| = 1, hence a true lower bound for the norm of the full
    operator even before convergence; ``upper`` adds the certified tail bound
    (infinite for boundary symbols).  Non-convergence after max_iter is
    reported through the flag, not an exception.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    if not isinstance(max_iter, int) or isinstance(max_iter, bool) or max_iter < 1:
        raise DomainError(f"max_iter must be an integer >= 1, got {max_iter!r}")

    a = m.entries
    x = np.ones(a.shape[1], dtype=np.complex128) / math.sqrt(a.shape[1])
    sigma_prev = math.inf
    sigma = 0.0
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        y = a @ x
        sigma = float(np.linalg.norm(y))
        if sigma == 0.0:
            converged = True  # start vector annihilated; norm estimate is 0
            break
        if abs(sigma - sigma_prev) <= tol * max(1.0, sigma):
            converged = True
            break
        sigma_prev = sigma
        z = a.conj().T @ y
        nz = float(np.linalg.norm(z))
        if nz == 0.0:
            converged = True
            break
        x = z / nz
    return NormEstimate(
        lower=sigma,
        upper=sigma + m.tail_bound,
        iterations=iterations,
        converged=converged,
    )


@dataclass(frozen=True, eq=False)
class SingularSpectrum:
    """Leading singular values of a truncation, largest first."""

    values: np.ndarray
    truncation: tuple[int, int]


def singular_values(m: TruncatedMatrix, count: int) -> SingularSpectrum:
    """Top ``count`` singular values of the truncation.

    LAPACK's divide-and-conquer SVD of whichever orientation is tall (the
    wide one rounds differently deep in the spectrum); it raises
    numpy.linalg.LinAlgError if it does not converge.  Each sigma_(N+1) is
    a certified lower bound for the (N+1)-th approximation number of the
    full operator, because a truncation is a compression.
    """
    limit = min(m.row_count, m.col_count)
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise DomainError(f"count must be an integer >= 1, got {count!r}")
    if count > limit:
        raise DomainError(f"count = {count} exceeds min(I+1, J) = {limit}")

    a = m.entries
    tall = a if a.shape[0] >= a.shape[1] else a.conj().T
    values = np.linalg.svd(tall, compute_uv=False)[:count]
    values.flags.writeable = False
    return SingularSpectrum(values=values, truncation=(m.i_max, m.j_max))


@dataclass(frozen=True)
class SchurCertificate:
    """Numerical record of the two-weight Schur test at parameter r.

    With weights p_j = j^(r|c2| - sigma1), q_i = r^i the column sums must
    stay below alpha p_j (alpha = 1, an exact analytic identity) and the row
    sums below beta q_i (beta = zeta(2 sigma1 - r|c2|)).  Residuals are
    relative, with the certified truncation tails already added to the left
    sides; a true verdict implies the operator norm is at most
    sqrt(alpha beta), recorded in ``implied_norm_bound``.
    """

    r: float
    alpha: float
    beta: float
    max_column_residual: float
    max_row_residual: float
    column_tail: float
    row_tail: float
    verdict: bool
    implied_norm_bound: float | None


def schur_certificate(
    sym: DirichletSymbol,
    r: float,
    i_max: int,
    j_max: int,
    budget: PrecisionBudget = DEFAULT_BUDGET,
) -> SchurCertificate:
    """Check the Schur-test inequalities for the given weight parameter.

    Columns j <= J are exact exponential-series identities, so their
    residuals measure rounding plus the certified series remainder for
    i > I.  Rows i <= I carry genuine analytic slack away from the critical
    parameter; the incomplete-gamma tail for columns j > J is added to each
    row sum before comparison.  Everything is assembled in log space, so
    deep rows with astronomically small weights still produce finite
    relative residuals.
    """
    r = float(r)
    if not (0.0 < r <= 1.0) or not math.isfinite(r):
        raise DomainError(f"Schur parameter r must lie in (0, 1], got {r}")
    _check_truncation(i_max, j_max)
    if classify(sym) is SymbolClass.CONSTANT:
        raise DomainError("Schur certificate requires a non-constant symbol")

    sigma1 = sym.sigma1
    c = sym.c2_abs
    s = 2.0 * sigma1 - r * c  # zeta argument; > 1 for every valid symbol
    z = _certified_zeta(s, budget)
    beta = z.value
    beta_low = z.value - z.error_bound
    slack = 1000.0 * max(budget.abs_tol, budget.rel_tol)

    log_fact = log_factorials(i_max)
    i_idx = np.arange(i_max + 1, dtype=np.float64)
    log_r = math.log(r)
    log_c = math.log(c)

    # accumulated in log space across column chunks
    row_acc = np.full(i_max + 1, -math.inf)
    max_column_residual = 0.0  # column j = 1 is exact
    column_tail = 0.0
    for start in range(2, j_max + 1, _COLUMN_CHUNK):
        stop = min(start + _COLUMN_CHUNK - 1, j_max)
        j = np.arange(start, stop + 1, dtype=np.float64)
        lj = np.log(j)
        base = np.log(c * lj)  # real: c > 0, log j > 0
        core = i_idx[:, None] * base[None, :] - log_fact[:, None]

        # column check: partial sum of e^x at x = r c log j, relative to e^x
        x = r * c * lj
        col_terms = core + i_idx[:, None] * log_r - x[None, :]
        log_partial = logsumexp(col_terms, axis=0)
        # remainder of e^x relative to e^x: Taylor-Lagrange gives
        # x^(I+1)/(I+1)!; for x < I+2 the geometric majorant times e^-x
        # is sharper, and sharpness here is what lets a deep truncation
        # certify at tight slack; the log1p argument is zeroed where the
        # branch is discarded, which keeps it inside log1p's domain
        near = x < i_max + 2.0
        log_rem = (i_max + 1.0) * np.log(x) - math.lgamma(i_max + 2.0)
        log_rem += np.where(
            near, -np.log1p(-np.where(near, x, 0.0) / (i_max + 2.0)) - x, 0.0
        )
        residuals = np.expm1(np.logaddexp(log_partial, log_rem))
        max_column_residual = max(max_column_residual, float(np.max(residuals)))
        abs_rem = np.exp(log_rem + (r * c - sigma1) * lj)
        column_tail = max(column_tail, float(np.max(abs_rem)))

        # row sums: (c log j)^i / i! * j^(r c - 2 sigma1)
        row_terms = core + (r * c - 2.0 * sigma1) * lj[None, :]
        row_acc = np.logaddexp(row_acc, logsumexp(row_terms, axis=1))

    row_acc[0] = np.logaddexp(row_acc[0], 0.0)  # j = 1 contributes to row 0 only

    max_row_residual = -math.inf
    row_tail = 0.0
    log_beta_low = math.log(beta_low)
    for i in range(i_max + 1):
        log_tail = i * log_c - log_fact[i] + log_moment_tail(s, i, j_max)
        row_tail = max(row_tail, math.exp(log_tail))
        log_lhs = float(np.logaddexp(row_acc[i], log_tail))
        log_rhs = log_beta_low + i * log_r
        max_row_residual = max(max_row_residual, math.expm1(log_lhs - log_rhs))

    verdict = max_column_residual <= slack and max_row_residual <= slack
    implied = math.sqrt(z.value + z.error_bound) if verdict else None
    return SchurCertificate(
        r=r,
        alpha=1.0,
        beta=beta,
        max_column_residual=max_column_residual,
        max_row_residual=max_row_residual,
        column_tail=column_tail,
        row_tail=row_tail,
        verdict=verdict,
        implied_norm_bound=implied,
    )


def write_matrix(m: TruncatedMatrix, path) -> None:
    """Text dump: first line "I J", then (I+1)*J lines "re im" row-major."""
    flat = m.entries.reshape(-1)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{m.i_max} {m.j_max}\n")
        np.savetxt(fh, np.column_stack([flat.real, flat.imag]), fmt="%.17g")


def read_matrix(path) -> np.ndarray:
    """Inverse of write_matrix; returns the dense complex entry array."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise DomainError(f"malformed matrix header in {path}")
        i_max, j_max = int(header[0]), int(header[1])
        data = np.loadtxt(fh, ndmin=2)
    expected = (i_max + 1) * j_max
    if data.shape != (expected, 2):
        raise DomainError(
            f"matrix dump {path} holds {data.shape[0]} entries, expected {expected}"
        )
    return (data[:, 0] + 1j * data[:, 1]).reshape(i_max + 1, j_max)
