"""Truncated matrix realization of the composition operator.

Against the orthonormal bases {j^-s} (domain side) and {(q^i)^-s} (range
side) the operator acts as the infinite matrix

    a[i][j] = j^(-c1) (-c2 log j)^i / i!,    i >= 0, j >= 1,

which never references q.  With theta = arg(-c2) and tau = Im c1 it factors
exactly as A = D_row B D_col, where D_row = diag(e^(i k theta)) and
D_col = diag(j^(-i tau)) are unitary and

    B[i][j] = j^(-sigma1) (|c2| log j)^i / i!  >= 0

is real and nonnegative.  Norms, singular values and Schur data depend only
on B, so this module builds, iterates and decomposes B; the phases are
applied only when the complex entries are exported.  It also certifies the
norm of the discarded rows and columns and checks the row inequalities of
the two-weight Schur test, the only ones that are not exact identities.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DomainError, MatrixSizeError
from .special_functions import DEFAULT_BUDGET, UNIT_ROUNDOFF, PrecisionBudget, log_moment_tail
from .special_functions import zeta as _certified_zeta
from .symbol import DirichletSymbol, SymbolClass, classify

MAX_ENTRIES_ENV = "DIRICHLETOPS_MAX_MATRIX_ENTRIES"
_DEFAULT_MAX_ENTRIES = 10**8
_ENTRY_BYTES = np.dtype(np.float64).itemsize

# the Schur check streams through one reused block of I x width float64
# entries, width = max(_SCHUR_MIN_WIDTH, _SCHUR_BLOCK_ENTRIES // (I+1))
_SCHUR_BLOCK_ENTRIES = 1 << 19
_SCHUR_MIN_WIDTH = 256


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


def log_factorials(n: int) -> np.ndarray:
    """lgamma(i+1) = log(i!) for i = 0..n, each entry computed by math.lgamma."""
    return np.array([math.lgamma(i + 1.0) for i in range(n + 1)])


def _check_truncation(i_max: int, j_max: int) -> None:
    if not isinstance(i_max, int) or isinstance(i_max, bool) or i_max < 0:
        raise DomainError(f"row index bound must be an integer >= 0, got {i_max!r}")
    if not isinstance(j_max, int) or isinstance(j_max, bool) or j_max < 1:
        raise DomainError(f"column count must be an integer >= 1, got {j_max!r}")


@dataclass(frozen=True, eq=False)
class TruncatedMatrix:
    """Dense (I+1) x J slice of the operator matrix.

    ``magnitudes`` is the real nonnegative block B = |A|, read-only and safe
    to share across threads.  ``entries`` is the phased complex block
    A = D_row B D_col, computed on first access and cached read-only.
    ``tail_bound`` is a certified upper bound on the operator norm of the
    discarded part (rows > I and columns > J); it is infinite for boundary
    symbols, whose row tails do not decay geometrically.
    """

    magnitudes: np.ndarray
    symbol: DirichletSymbol
    tail_bound: float

    @cached_property
    def entries(self) -> np.ndarray:
        """Phased entries a[k][j] = e^(i k theta) B[k][j] j^(-i tau), k the row index."""
        b = self.magnitudes
        theta = cmath.phase(-self.symbol.c2)
        row_phase = np.exp(1j * theta * np.arange(b.shape[0], dtype=np.float64))
        lj = np.log(np.arange(1, b.shape[1] + 1, dtype=np.float64))
        a = b * row_phase[:, None]
        a *= np.exp(-1j * self.symbol.c1.imag * lj)
        a.flags.writeable = False
        return a

    @property
    def row_count(self) -> int:
        return self.magnitudes.shape[0]

    @property
    def col_count(self) -> int:
        return self.magnitudes.shape[1]

    @property
    def i_max(self) -> int:
        return self.row_count - 1

    @property
    def j_max(self) -> int:
        return self.col_count


def build_matrix(sym: DirichletSymbol, i_max: int, j_max: int) -> TruncatedMatrix:
    """Magnitudes B[i][j] = j^(-sigma1) (|c2| log j)^i / i! for i <= I, j <= J.

    Assembled in place in real log space,

        B[i][j] = exp(i log(|c2| ln j) - lgamma(i+1) - sigma1 ln j),

    so large i cannot overflow the factorial, and no entry exceeds 1 because
    sigma1 >= |c2|.  Column j = 1 is (1, 0, 0, ...) and a zero c2 collapses
    everything onto row 0.  The block takes 8 bytes per entry.
    """
    _check_truncation(i_max, j_max)
    total = (i_max + 1) * j_max
    cap = _max_entries()
    if total > cap:
        raise MatrixSizeError(
            f"matrix would hold {total} entries ({total * _ENTRY_BYTES} bytes at "
            f"{_ENTRY_BYTES} B per entry), cap is {cap} entries ({cap * _ENTRY_BYTES} "
            f"bytes); set {MAX_ENTRIES_ENV} to raise it"
        )

    b = np.zeros((i_max + 1, j_max))
    b[0, 0] = 1.0
    if j_max >= 2:
        lj = np.log(np.arange(2, j_max + 1, dtype=np.float64))
        body = b[:, 1:]
        if sym.c2 == 0:
            np.exp(-sym.sigma1 * lj, out=body[0])
        else:
            np.multiply.outer(np.arange(i_max + 1.0), np.log(sym.c2_abs * lj), out=body)
            body -= log_factorials(i_max)[:, None]
            body -= sym.sigma1 * lj
            np.exp(body, out=body)
    b.flags.writeable = False
    tail = tail_bounds(sym, i_max, j_max)
    return TruncatedMatrix(magnitudes=b, symbol=sym, tail_bound=tail)


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

    Power iteration on the Gram operator x -> B^T (B x) of the real block
    B = |A|, which has the singular values of A, from the all-ones start
    vector.  B is nonnegative, so by Perron-Frobenius its top right singular
    vector is nonnegative and the positive start meets it.  Every reported
    ``lower`` is a Rayleigh quotient ||B x|| with ||x|| = 1, hence a true
    lower bound for the norm of the full operator even before convergence;
    ``upper`` adds the certified tail bound (infinite for boundary symbols).
    Non-convergence after max_iter is reported through the flag, not an
    exception.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    if not isinstance(max_iter, int) or isinstance(max_iter, bool) or max_iter < 1:
        raise DomainError(f"max_iter must be an integer >= 1, got {max_iter!r}")

    b = m.magnitudes
    x = np.full(b.shape[1], 1.0 / math.sqrt(b.shape[1]))
    sigma_prev = math.inf
    sigma = 0.0
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        y = b @ x
        sigma = float(np.linalg.norm(y))
        if sigma == 0.0:
            converged = True  # start vector annihilated; norm estimate is 0
            break
        if abs(sigma - sigma_prev) <= tol * max(1.0, sigma):
            converged = True
            break
        sigma_prev = sigma
        z = y @ b
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
    """Leading singular values of a truncation, largest first.

    ``resolution`` bounds the absolute error of every value against the
    exact singular values of the truncation; values below it are rounding.
    """

    values: np.ndarray
    truncation: tuple[int, int]
    resolution: float


def singular_values(m: TruncatedMatrix, count: int) -> SingularSpectrum:
    """Top ``count`` singular values of the truncation.

    LAPACK's divide-and-conquer SVD of whichever orientation of the real
    block B = |A| is tall (the wide one rounds differently deep in the
    spectrum); it raises numpy.linalg.LinAlgError if it does not converge.
    Each sigma_(N+1) is a certified lower bound for the (N+1)-th
    approximation number of the full operator, because a truncation is a
    compression.
    """
    limit = min(m.row_count, m.col_count)
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise DomainError(f"count must be an integer >= 1, got {count!r}")
    if count > limit:
        raise DomainError(f"count = {count} exceeds min(I+1, J) = {limit}")

    b = m.magnitudes
    tall = b if b.shape[0] >= b.shape[1] else b.T
    values = np.linalg.svd(tall, compute_uv=False)[:count]
    values.flags.writeable = False
    return SingularSpectrum(
        values=values,
        truncation=(m.i_max, m.j_max),
        resolution=_svd_resolution(m, float(values[0])),
    )


def _svd_resolution(m: TruncatedMatrix, sigma1: float) -> float:
    """Weyl bound on |computed - exact| for each singular value of the block.

    Two perturbations of the exact B, each relative to sigma1 = ||B||_2:

    * LAPACK's SVD is backward stable: its values are exact for B + E with
      ||E||_2 <= p(m, n) u ||B||_2 and p a modestly growing function
      (LAPACK Users' Guide, sec. 4.9); p = max(m, n) is taken.
    * The build rounds each entry to B (1 + theta) with |theta| <= eta.
      The log-space exponent i log(|c2| ln j) - log i! - sigma1 ln j is a
      few elementary steps on pieces of size at most
      M = I (1 + max_j |log(|c2| ln j)|) + log I! + sigma1 ln J, each step
      accurate to 2 ulps of its result, and exp adds one more: eta <= 4 u
      (M + 2).  B >= 0, so ||B theta||_2 <= eta ||B||_2 by monotonicity of
      the norm on nonnegative matrices.
    """
    i_max, j_max = m.i_max, m.j_max
    sym = m.symbol
    size = sym.sigma1 * math.log(j_max) + math.lgamma(i_max + 1.0)
    if sym.c2 != 0 and j_max >= 2:
        log_base = max(abs(math.log(sym.c2_abs * math.log(j))) for j in (2, j_max))
        size += i_max * (1.0 + log_base)
    return (max(m.row_count, m.col_count) + 4.0 * (size + 2.0)) * UNIT_ROUNDOFF * sigma1


@dataclass(frozen=True)
class SchurCertificate:
    """Numerical record of the two-weight Schur test at parameter r.

    With weights p_j = j^(r|c2| - sigma1), q_i = r^i the column sums must
    stay below alpha p_j and the row sums below beta q_i, where
    beta = zeta(s) and s = 2 sigma1 - r|c2|.  Two families hold exactly:
    column j sums to j^(-sigma1) times the exponential series of
    r|c2| ln j, which is p_j, so alpha = 1; and row 0 is
    sum_j j^-s = beta.  Only rows 1..I are checked: ``max_row_residual`` is
    the worst relative residual over them, each with its certified column
    tail (at most ``row_tail``) added to the left side, and over row 0's
    exact 0, so it never reads below 0.  A true verdict (no positive
    residual) implies the operator norm is at most sqrt(alpha beta), taken
    at beta's certified upper end in ``implied_norm_bound``.
    """

    r: float
    alpha: float
    beta: float
    max_row_residual: float
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
    """Check the Schur-test inequalities that can fail: rows i = 1..I.

    The column family and row 0 are exact identities (see SchurCertificate)
    and are not recomputed.  Rows i >= 1 carry genuine analytic slack away
    from the critical parameter; the incomplete-gamma tail for columns
    j > J is added to each row sum before it is compared with
    beta_low r^i.  Everything is assembled in log space, so deep rows with
    astronomically small weights still produce finite relative residuals.

    The columns j >= 2 stream through one reused block of about 4 MiB, so
    memory does not grow with J; column j = 1 adds nothing to rows i >= 1,
    and with I = 0 nothing is streamed.  Each block is filled with its log
    terms, every row is shifted by its largest term, known in closed form,
    and one exp and one sum follow: no shifted term exceeds 1 beyond
    rounding and every block sum is at least 1, so exp cannot overflow and
    log never sees 0.
    """
    r = float(r)
    if not (0.0 < r <= 1.0) or not math.isfinite(r):
        raise DomainError(f"Schur parameter r must lie in (0, 1], got {r}")
    _check_truncation(i_max, j_max)
    if classify(sym) is SymbolClass.CONSTANT:
        raise DomainError("Schur certificate requires a non-constant symbol")

    c = sym.c2_abs
    s = 2.0 * sym.sigma1 - r * c  # zeta argument; > 1 for every valid symbol
    z = _certified_zeta(s, budget)

    log_fact = log_factorials(i_max)
    i_idx = np.arange(1, i_max + 1, dtype=np.float64)
    width = max(_SCHUR_MIN_WIDTH, _SCHUR_BLOCK_ENTRIES // (i_max + 1))
    store = np.empty(i_max * min(width, j_max - 1))
    # row sums without the 1/i! factor, accumulated in log space across blocks
    row_acc = np.full(i_max, -math.inf)
    for start in range(2, j_max + 1 if i_max else 2, width):
        stop = min(start + width - 1, j_max)
        n = stop - start + 1
        block = store[: i_max * n].reshape(i_max, n)
        lj = np.log(np.arange(start, stop + 1, dtype=np.float64))

        # (c log j)^i / i! * j^-s; i log(c ln j) - s ln j is concave in
        # ln j with its maximum at ln j = i/s, so each row is shifted by the
        # larger of its two columns around j = e^(i/s), clamped to this
        # block, where the shifted term is exactly 0
        log_base = np.log(c * lj)  # real: c > 0, log j > 0
        decay = s * lj
        peak = np.floor(np.exp(np.clip(i_idx / s, lj[0], lj[-1])))
        k_lo = np.clip(peak - start, 0, n - 1).astype(np.intp)
        k_hi = np.minimum(k_lo + 1, n - 1)
        row_peak = np.maximum(
            i_idx * log_base[k_lo] - decay[k_lo], i_idx * log_base[k_hi] - decay[k_hi]
        )
        np.multiply.outer(i_idx, log_base, out=block)
        block -= decay
        block -= row_peak[:, None]
        np.exp(block, out=block)
        row_acc = np.logaddexp(row_acc, row_peak + np.log(np.sum(block, axis=1)))

    worst_log_ratio = 0.0  # row 0 is exact
    row_tail = 0.0
    log_beta_low = math.log(z.lower)
    log_r = math.log(r)
    log_c = math.log(c)
    for i, log_row in enumerate(row_acc - log_fact[1:], start=1):
        log_tail = i * log_c - log_fact[i] + log_moment_tail(s, i, j_max)
        row_tail = max(row_tail, math.exp(log_tail))
        log_lhs = float(np.logaddexp(log_row, log_tail))
        worst_log_ratio = max(worst_log_ratio, log_lhs - log_beta_low - i * log_r)
    with np.errstate(over="ignore"):  # a ratio past e^709 reads +inf
        max_row_residual = float(np.expm1(worst_log_ratio))

    verdict = max_row_residual <= 0.0
    return SchurCertificate(
        r=r,
        alpha=1.0,
        beta=z.value,
        max_row_residual=max_row_residual,
        row_tail=row_tail,
        verdict=verdict,
        implied_norm_bound=math.sqrt(z.upper) if verdict else None,
    )


def write_matrix(m: TruncatedMatrix, path) -> None:
    """Text dump: first line "I J", then (I+1)*J lines "re im" row-major."""
    flat = m.entries.reshape(-1)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{m.i_max} {m.j_max}\n")
        np.savetxt(fh, np.column_stack([flat.real, flat.imag]), fmt="%.17g")


def read_matrix(path) -> np.ndarray:
    """Inverse of write_matrix; returns the dense complex entry array.

    Every malformed dump raises DomainError.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            i_max, j_max = (int(token) for token in fh.readline().split())
            _check_truncation(i_max, j_max)
            data = np.loadtxt(fh, ndmin=2)
    except ValueError as exc:  # a bad header or body token, or a non-ASCII byte
        raise DomainError(f"malformed matrix dump {path}: {exc}") from exc
    expected = (i_max + 1) * j_max
    if data.shape != (expected, 2):
        raise DomainError(
            f"matrix dump {path} holds {data.shape[0]} entries, expected {expected}"
        )
    return (data[:, 0] + 1j * data[:, 1]).reshape(i_max + 1, j_max)
