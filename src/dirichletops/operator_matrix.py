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
import mmap
import os
import warnings
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

# the Schur check runs its row recurrence over column chunks of this many
# float64 entries (256 KiB, which stays in L2) and recomputes every
# _SCHUR_RESTART-th row exactly (see schur_certificate)
_SCHUR_CHUNK = 1 << 15
_SCHUR_RESTART = 8

# blocks from this size on get their own memory mapping (see _zeros); it is
# numpy's own threshold for asking for transparent huge pages
_MAPPED_MIN_BYTES = 1 << 22

# rows whose closed-form bound sqrt(J) max_j B[i][j] falls below this are
# left out of the Gram matrix that picks the power iteration's start: they
# cannot move it, and their underflowing products slow the row products and
# eigh
_GRAM_FLOOR = 1e-30
# every iterate is scaled to x_1 = 1 and raised to at least this floor
_X_FLOOR = 2.0**-900


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


def _zeros(shape: tuple[int, int], dtype) -> np.ndarray:
    """A zeroed array; from _MAPPED_MIN_BYTES on, in its own anonymous mapping.

    Blocks of tens of MiB allocated by malloc can land on the brk heap once
    its dynamic mmap threshold has risen, where small objects allocated
    after them pin the freed space, so a loop that builds block after block
    grows its resident set.  A private mapping is returned to the system
    as soon as the last view of the array goes.  Like numpy's own large
    allocations it asks for transparent huge pages where the platform has
    them, without which the first write to the block takes several ms
    longer.  Smaller blocks stay on the heap, where reuse costs no page
    faults.
    """
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if nbytes < _MAPPED_MIN_BYTES:
        return np.zeros(shape, dtype)
    buffer = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buffer.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buffer, dtype=dtype).reshape(shape)


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
        a = _zeros(b.shape, np.complex128)
        np.multiply(b, row_phase[:, None], out=a)
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
    everything onto row 0.  The block takes 8 bytes per entry; a large one
    sits in its own memory mapping (see _zeros).
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

    b = _zeros((i_max + 1, j_max), np.float64)
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


def _gamma(n):
    """Higham's gamma_n = n u / (1 - n u) (Accuracy and Stability of Numerical
    Algorithms, 2002, ch. 3): a sum of n nonnegative products, added in any
    order, is off by at most gamma_n of its value.  The bound holds only
    while n u < 1; past that it is +inf.  n may be a scalar or an array."""
    nu = np.asarray(n, dtype=np.float64) * UNIT_ROUNDOFF
    out = np.full_like(nu, math.inf)
    np.divide(nu, 1.0 - nu, out=out, where=nu < 1.0)
    return out if out.ndim else float(out)


def _gram_rows(sym: DirichletSymbol, i_max: int, j_max: int) -> int:
    """Row count k of the start's Gram matrix: one past the last row whose
    closed-form bound sqrt(J) max_j B[i][j] reaches _GRAM_FLOOR.

    i log(|c2| t) - sigma1 t is concave in t = ln j with its peak at
    t = i / sigma1, so its value there, clamped to [ln 2, ln J], bounds
    row i.  Rows i >= 1 are zero when c2 = 0 or J = 1.
    """
    if sym.c2 == 0 or j_max == 1 or i_max == 0:
        return 1
    i = np.arange(1.0, i_max + 1.0)
    t = np.clip(i / sym.sigma1, math.log(2.0), math.log(j_max))
    log_peak = i * np.log(sym.c2_abs * t) - sym.sigma1 * t - log_factorials(i_max)[1:]
    kept = np.flatnonzero(log_peak + 0.5 * math.log(j_max) >= math.log(_GRAM_FLOOR))
    return 2 + int(kept[-1]) if kept.size else 1


def _perron_start(rows: np.ndarray) -> np.ndarray:
    """x = |v| @ rows, v the top eigenvector of the Gram rows rows^T, x_1 = 1.

    Row i of B is (|c2| ln j)^i / i! j^-sigma1, so
    (B B^T)[i][l] = |c2|^(i+l) / (i! l!) h_(i+l) with
    h_n = sum_j (ln j)^n j^(-2 sigma1), a Hankel matrix up to the
    factorials.  The 2k - 1 row products d_n = B[a] . B[b], a = floor(n/2),
    b = ceil(n/2), give every h_n, hence
    (B B^T)[i][l] = a! b! / (i! l!) d_(i+l): one pass over the rows in place
    of a k x k x J product.  The factor is at most 1, since a, b are the
    most balanced split of i + l.
    """
    k = rows.shape[0]
    d = np.empty(2 * k - 1)
    for i in range(k):  # d_2i and d_2i+1 while row i is in cache
        d[2 * i : 2 * i + 2] = rows[i : i + 2] @ rows[i]
    log_fact = log_factorials(k)
    n = np.arange(2 * k - 1)
    log_split = log_fact[n // 2] + log_fact[(n + 1) // 2]
    idx = np.add.outer(np.arange(k), np.arange(k))
    gram = d[idx] * np.exp(log_split[idx] - log_fact[:k, None] - log_fact[:k])
    x = np.abs(np.linalg.eigh(gram)[1][:, -1]) @ rows
    return x / x[0]


def operator_norm_estimate(
    m: TruncatedMatrix, tol: float = 1e-12, max_iter: int = 1000
) -> NormEstimate:
    """Certified bracket [lower, upper] on the operator norm from the truncation.

    Power iteration on the real block B = |A|, which has the singular
    values of A.  The start vector comes from the Perron vector of the Gram
    matrix of B's leading rows (see _perron_start); it meets the top
    singular vector so closely that one step usually certifies.  Each step
    computes y = B x and z = y B on the full block and brackets ||B||:

    * lower^2 = ||z||^2 / ||y||^2 = ||B^T y||^2 / ||y||^2, a Rayleigh
      quotient of B^T, never below ||y||^2 / ||x||^2;
    * upper^2 = max_j z_j / x_j, the Collatz-Wielandt bound on the top
      eigenvalue of B^T B (Horn & Johnson, Matrix Analysis, 2nd ed.,
      ch. 8), valid for every x > 0 because B >= 0.

    The loop stops when upper^2 - lower^2 <= tol lower^2, so ``converged``
    means the bracket is that tight.  In exact arithmetic the
    Collatz-Wielandt bound never increases and the Rayleigh quotient never
    decreases from step to step, so a gap that fails to shrink means
    rounding has taken over: the loop stops there too, with ``converged``
    false, instead of running to ``max_iter``.  Both ends carry derived rounding
    terms and outward-rounded square roots: whether or not the loop
    converged, [lower, upper - tail_bound] holds the norm of the truncation
    and [lower, upper] that of the full operator (upper is infinite for
    boundary symbols).
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    if not isinstance(max_iter, int) or isinstance(max_iter, bool) or max_iter < 1:
        raise DomainError(f"max_iter must be an integer >= 1, got {max_iter!r}")

    b = m.magnitudes
    n_rows, n_cols = b.shape
    x = _perron_start(b[: _gram_rows(m.symbol, m.i_max, m.j_max)])
    converged = False
    last_gap = math.inf
    for iterations in range(1, max_iter + 1):
        np.maximum(x, _X_FLOOR, out=x)  # x > 0, and no z_j / x_j overflows
        y = b @ x
        z = y @ b
        z_sq = float(z @ z)
        lower_sq = z_sq / float(y @ y)
        upper_sq = float(np.max(z / x))
        gap = upper_sq - lower_sq
        if gap <= tol * lower_sq:
            converged = True
            break
        if gap >= last_gap:  # in exact arithmetic the gap never grows
            break
        last_gap = gap
        x = z / z[0]

    # Rounding (Higham 2002, ch. 3).  A computed sum of n nonnegative
    # products, added in any order, is within gamma_n of its value plus
    # n 2^-1075 from products that underflow.  x_1 = 1 and column 1 of B is
    # (1, 0, ..., 0), so the computed y_1 = z_1 >= 1, and ||y||^2, ||z||^2 and
    # max_j z_j / x_j are all at least 1.  With B <= 1 (see build_matrix),
    # x >= _X_FLOOR and (I+1)(J+1) < 2^60, every absolute term is below
    # 2^-60 u of them: one u covers all of them on each end, and one more
    # the rounding of gamma itself.
    # lower: the computed y is a vector like any other, so z (I+1 terms
    # each) enters squared, ||z||^2 adds J terms and ||y||^2 I+1; the
    # quotient, 1 - gamma and the product round once each.
    lower_sq *= 1.0 - _gamma(n_cols + 3 * n_rows + 5)
    # upper: y's error (J terms) passes into z (I+1 terms); the quotient,
    # 1 + gamma and the product round once each.
    upper_sq *= 1.0 + _gamma(n_cols + n_rows + 5)
    upper = math.nextafter(math.sqrt(upper_sq), math.inf)
    return NormEstimate(
        lower=math.nextafter(math.sqrt(lower_sq), 0.0),
        upper=math.nextafter(upper + m.tail_bound, math.inf),
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
    tail (at most ``row_tail``) and its rounding bound (at most
    ``row_rounding``, relative) added to the left side, and over row 0's
    exact 0, so it never reads below 0.  A true verdict (no positive
    residual) implies the operator norm is at most sqrt(alpha beta), taken
    at beta's certified upper end and rounded up in ``implied_norm_bound``.
    """

    r: float
    alpha: float
    beta: float
    max_row_residual: float
    row_tail: float
    row_rounding: float
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
    j > J and the rounding bound of _schur_rounding are added to each row
    sum before it is compared with beta_low r^i.  Everything is assembled
    in log space, so deep rows with astronomically small weights still
    produce finite relative residuals.

    The columns j >= 2 stream through chunks of _SCHUR_CHUNK entries, one
    row at a time, so memory does not grow with I or J; column j = 1 adds
    nothing to rows i >= 1, and with I = 0 nothing is streamed.  Within a
    chunk, row i's terms (c ln j)^i j^-s are shifted by their largest
    value e^(P_i), known in closed form, so the shifted terms
    T_i = e^(i log(c ln j) - s ln j - P_i) are at most 1 beyond rounding
    and every chunk sum is at least 1: exp cannot overflow and log never
    sees 0.  Row i follows from row i-1 by two products,

        T_i = T_(i-1) (c ln j) e^(P_(i-1) - P_i),

    and every _SCHUR_RESTART-th row, from row 1 on, is computed afresh by
    exp in log space.  The restarts bound how far a term that underflowed
    can grow in later rows: without them, row 1's terms at small j read 0
    and so, wrongly, would those of deep rows that peak there.
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
    terms = np.empty(min(_SCHUR_CHUNK, j_max - 1))
    chunk_sums = np.empty(i_max)
    # row sums without the 1/i! factor, accumulated in log space across chunks
    row_acc = np.full(i_max, -math.inf)
    for start in range(2, j_max + 1 if i_max else 2, _SCHUR_CHUNK):
        stop = min(start + _SCHUR_CHUNK - 1, j_max)
        t = terms[: stop - start + 1]
        # ln j goes into the terms buffer, which the rows overwrite after it
        lj = np.log(np.arange(start, stop + 1, dtype=np.float64), out=t)
        base = c * lj  # > 0: c > 0, log j > 0
        log_base = np.log(base)
        decay = s * lj

        # i log(c ln j) - s ln j is concave in ln j with its maximum at
        # ln j = i/s, so each row's peak is the larger of its two columns
        # around j = e^(i/s), clamped to this chunk, where the shifted term
        # is exactly 1
        peak = np.floor(np.exp(np.clip(i_idx / s, lj[0], lj[-1])))
        k_lo = np.clip(peak - start, 0, t.size - 1).astype(np.intp)
        k_hi = np.minimum(k_lo + 1, t.size - 1)
        row_peak = np.maximum(
            i_idx * log_base[k_lo] - decay[k_lo], i_idx * log_base[k_hi] - decay[k_hi]
        )
        step = np.exp(row_peak[:-1] - row_peak[1:])
        for i in range(i_max):  # row i + 1
            if i % _SCHUR_RESTART:
                t *= base
                t *= step[i - 1]
            else:
                np.multiply(log_base, i + 1.0, out=t)
                t -= decay
                t -= row_peak[i]
                np.exp(t, out=t)
            chunk_sums[i] = t.sum()
        row_acc = np.logaddexp(row_acc, row_peak + np.log(chunk_sums))

    log_beta_low = math.log(z.lower)
    log_moments = np.array([log_moment_tail(s, i, j_max) for i in range(1, i_max + 1)])
    log_tails = i_idx * math.log(c) - log_fact[1:] + log_moments
    log_lhs = np.logaddexp(row_acc - log_fact[1:], log_tails)
    rounding = _schur_rounding(c, r, s, j_max, log_beta_low, log_moments, log_lhs)
    log_ratios = log_lhs + rounding - log_beta_low - i_idx * math.log(r)
    worst_log_ratio = log_ratios.max(initial=0.0)  # row 0 is exact
    with np.errstate(over="ignore"):  # a ratio past e^709 reads +inf
        max_row_residual = float(np.expm1(worst_log_ratio))

    verdict = max_row_residual <= 0.0
    implied = math.nextafter(math.sqrt(z.upper), math.inf)
    return SchurCertificate(
        r=r,
        alpha=1.0,
        beta=z.value,
        max_row_residual=max_row_residual,
        row_tail=math.exp(log_tails.max(initial=-math.inf)),
        row_rounding=float(rounding.max(initial=0.0)),
        verdict=verdict,
        implied_norm_bound=implied if verdict else None,
    )


def _schur_rounding(
    c: float,
    r: float,
    s: float,
    j_max: int,
    log_beta_low: float,
    log_moments: np.ndarray,
    log_lhs: np.ndarray,
) -> np.ndarray:
    """A-priori bound on the rounding error of each row's log ratio
    log(left side) - log(beta_low r^i) in schur_certificate.

    The model is Higham's (Accuracy and Stability of Numerical Algorithms,
    2002, ch. 3): each arithmetic operation rounds once, by at most
    u = 2^-53 relative, and each log, exp, log1p, expm1 and lgamma, numpy's
    or libm's, is taken accurate to 2 ulps (4u) of its result, as in
    _svd_resolution.  Row i's log terms x_j = i log(c ln j) - s ln j and
    its chunk peaks P_i are at most m_i = i (1 + Lambda) + s ln J in
    magnitude, Lambda = max_j |log(c ln j)| (at j = 2 or J).  An absolute
    error d in a logarithm is a relative error of at most d/(1 - d) in its
    value, so every error below is counted in units of u, of the log or
    relatively, and the sum N_i of the counts gives the bound
    gamma_(N_i) = N_i u / (1 - N_i u), which also covers their products:

    * a restart row's argument x_j - P_i: ln j and c ln j are within 5u
      relatively, which log turns into 5u absolutely, and log adds 4u of
      its result; with the product by i, s ln j (5u relatively) and two
      subtractions (u of results of at most m_i and 2 m_i) this is at most
      8 m_i + 1 units; then the exp, 4 units;
    * each recurrence step since the last restart (k_i of them, at most
      _SCHUR_RESTART - 1): the factor c ln j (5), the step factor
      e^(P_(i-1) - P_i) (the subtraction, at most 2 m_i, and exp, 4) and the
      two products (2): 11 + 2 m_i units;
    * the sum of a chunk's n <= _SCHUR_CHUNK nonnegative terms, added in
      any order, is within gamma_(n-1) of its value: n units; the sum lies
      in [1/2, 2n] (the term at P_i's own column is 1 up to the rounding
      above), so its log adds 4 (ln n + 1) and the add of P_i
      m_i + ln n + 1;
    * the log-space adds over the C chunks, each 1-Lipschitz in its
      inputs: exp, log1p and the final add of a result of at most
      m_i + ln J + 1 in magnitude, m_i + ln J + 8 units each;
    * the assembly: subtracting lgamma(i+1) (5 lgamma + m_i + ln J + 1),
      the tail's log i log c - lgamma(i+1) + log_moment_tail, whose last
      term is rounded outward already (8 (i |log c| + lgamma + |log tail|)),
      the log-space add of row and tail (8 + |log lhs|), log beta_low
      (4 |log beta_low| + 1), i log r (5 i |log r|), the add of this
      bound and the two subtractions (3 |log lhs| + 2 |log beta_low| +
      i |log r|) and expm1 (5);
    * the weights: s = fl(2 sigma1 - fl(r c)) equals 2 sigma1 - r' c
      exactly for an r' within (2 + s/(r c)) u of r relatively, and the
      column identity holds at r', so the rows are checked against
      r'^i: i (2 + s/(r c)) + 1 units.

    Terms below the normal range carry an absolute error instead, at most
    2^-1075 per product and 2^-1073 per exp.  A later step multiplies it
    by (c ln j) e^(P_(k-1) - P_k); over the m steps from row k this is
    (c ln j)^m e^(P_k - P_(k+m)) <= (ln j / ln j*)^m <= (ln J / ln 2)^m,
    j* the column of P_k, because P_(k+m) is at least row k+m's log term
    at j*, P_k + m log(c ln j*), all up to rounding.  The first product of
    a step, t (c ln j), can underflow too; its error is then multiplied by
    the step factor e^(P_(k-1) - P_k) <= 1/(c ln j*) <= 1/(c ln 2) before
    the later steps' growth, so a step adds at most
    2^-1075 (1 + f) <= 2^-1074 f, f = max(1, 1/(c ln 2)).  With
    m <= K - 1, K = _SCHUR_RESTART, an entry carries at most
    (K + 1) f 2^-1074 (ln J / ln 2)^(K-1), which against a chunk sum of at
    least 1/2 adds 2 n (K + 1) f 2^-1074 (ln J / ln 2)^(K-1) to every row.
    Without the restarts m, and this term, would grow with I.

    A count N_i with N_i u >= 1 gives no bound: that row's rounding, and
    so its residual, reads +inf and the verdict fails.  This happens when
    r c is so small that s no longer determines r, i (2 + s/(r c)) u >= 1.
    """
    i_max = log_lhs.size
    i = np.arange(1.0, i_max + 1.0)
    lgam = log_factorials(i_max)[1:]
    ln_j = math.log(j_max)
    lam = max(abs(math.log(c * math.log(j))) for j in (2, max(j_max, 2)))
    m = i * (1.0 + lam) + s * ln_j
    k = (i - 1.0) % _SCHUR_RESTART
    n = min(_SCHUR_CHUNK, max(j_max - 1, 1))
    chunks = -(-(j_max - 1) // _SCHUR_CHUNK)
    log_r = abs(math.log(r))
    units = (
        (8.0 + 2.0 * k) * m + 11.0 * k + 5.0  # entries
        + n + 5.0 * math.log(n) + m + 5.0  # chunk sum, its log, the shift
        + chunks * (m + ln_j + 8.0)  # log-space adds over chunks
        + 5.0 * lgam + m + ln_j + 1.0  # the 1/i! factor
        + 8.0 * (i * abs(math.log(c)) + lgam + np.abs(log_moments))  # the tail
        + 4.0 * np.abs(log_lhs) + 6.0 * abs(log_beta_low) + 6.0 * i * log_r + 14.0
        + i * (2.0 + s / (r * c)) + 1.0  # the weights
    )
    growth = (ln_j / math.log(2.0)) ** (_SCHUR_RESTART - 1)
    f = max(1.0, 1.0 / (c * math.log(2.0)))
    underflow = 2.0 * n * (_SCHUR_RESTART + 1) * f * growth * 2.0**-1074
    return _gamma(units) + underflow


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
            with warnings.catch_warnings():
                # an empty body is reported by the entry count below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, ndmin=2)
    except ValueError as exc:  # a bad header or body token, or a non-ASCII byte
        raise DomainError(f"malformed matrix dump {path}: {exc}") from exc
    expected = (i_max + 1) * j_max
    if data.shape != (expected, 2):
        raise DomainError(
            f"matrix dump {path} holds {data.shape[0]} entries, expected {expected}"
        )
    return (data[:, 0] + 1j * data[:, 1]).reshape(i_max + 1, j_max)
