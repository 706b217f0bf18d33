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
norm of the discarded rows and columns and proves the two-weight Schur test
in closed form.
"""

from __future__ import annotations

import cmath
import math
import mmap
import os
import threading
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .bounds import c2_abs_upper, schur_exponent, schur_polynomial_nonpositive
from .errors import DomainError, MatrixSizeError
from .special_functions import DEFAULT_BUDGET, UNIT_ROUNDOFF, PrecisionBudget, log_moment_tail
from .special_functions import lower_bound_h
from .special_functions import zeta as _certified_zeta
from .symbol import DirichletSymbol, SymbolClass, classify

MAX_ENTRIES_ENV = "DIRICHLETOPS_MAX_MATRIX_ENTRIES"
_DEFAULT_MAX_ENTRIES = 10**8
_ENTRY_BYTES = np.dtype(np.float64).itemsize

# blocks from this size on get their own memory mapping (see _zeros); it is
# numpy's own threshold for asking for transparent huge pages
_MAPPED_MIN_BYTES = 1 << 22

# every iterate is scaled to x_1 = 1 and raised to at least this floor
_X_FLOOR = 2.0**-900
# build_matrix uses the row recurrence on the columns with sigma1 ln j at
# most this: row 0 there is at least e^-700, far inside the normal range
# (2^-1022 = e^-708.4)
_ROW0_EXPONENT_MAX = 700.0


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
    as soon as the last view of the array goes, and its pages become
    resident only when written.  Like numpy's own large allocations it asks
    for transparent huge pages where the platform has them, without which
    the first write to the block takes several ms longer.  Smaller blocks
    stay on the heap, where reuse costs no page faults.
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


class TruncatedMatrix:
    """Dense (I+1) x J slice of the operator matrix.

    ``magnitudes`` is the real nonnegative block B = |A|, read-only and safe
    to share across threads.  A block from build_matrix starts empty and
    fills its rows on demand, in order and under a lock: ``magnitudes``
    fills every row, operator_norm_estimate only the rows it iterates.  A
    block passed in is taken as filled.  ``entries`` is the phased complex
    block A = D_row B D_col, computed on first access and cached read-only.
    """

    def __init__(self, magnitudes: np.ndarray, symbol: DirichletSymbol) -> None:
        self.symbol = symbol
        self._block = magnitudes
        self._view = magnitudes.view()
        self._view.flags.writeable = False
        self._filled = magnitudes.shape[0]
        self._lock = threading.Lock()

    @property
    def magnitudes(self) -> np.ndarray:
        self._rows(self.row_count)
        return self._view

    def _rows(self, k: int) -> np.ndarray:
        """Rows 0..k-1 of B, read-only; those not yet filled are filled
        first, from the last filled row on, as build_matrix describes."""
        with self._lock:
            lo, b, sym = self._filled, self._block, self.symbol
            if lo < k:  # with J = 1 every slice below is empty
                lj = np.log(np.arange(2, b.shape[1] + 1, dtype=np.float64))
                body = b[:, 1:]
                if lo == 0:
                    b[0, 0] = 1.0
                    np.multiply(lj, -sym.sigma1, out=body[0])
                    np.exp(body[0], out=body[0])
                    lo = 1
                near = int(np.searchsorted(lj, _ROW0_EXPONENT_MAX / sym.sigma1, side="right"))
                g = sym.c2_abs * lj[:near]
                for i in range(lo, k):
                    row = body[i, :near]
                    np.multiply(body[i - 1, :near], g, out=row)
                    row *= 1.0 / i
                far, lj_far = body[lo:k, near:], lj[near:]  # often empty
                with np.errstate(divide="ignore"):  # log(0) = -inf when c2 = 0
                    log_g = np.log(sym.c2_abs * lj_far)
                np.multiply.outer(np.arange(float(lo), float(k)), log_g, out=far)
                far -= log_factorials(k - 1)[lo:, None]
                far -= sym.sigma1 * lj_far
                np.exp(far, out=far)
                self._filled = k
        return self._view[:k]

    @cached_property
    def tail_bound(self) -> float:
        """Certified upper bound on the operator norm of the discarded part
        (rows > I and columns > J), from tail_bounds on first access; it is
        infinite for boundary symbols, whose row tails do not decay
        geometrically."""
        return tail_bounds(self.symbol, self.i_max, self.j_max)

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
        return self._block.shape[0]

    @property
    def col_count(self) -> int:
        return self._block.shape[1]

    @property
    def i_max(self) -> int:
        return self.row_count - 1

    @property
    def j_max(self) -> int:
        return self.col_count


def build_matrix(sym: DirichletSymbol, i_max: int, j_max: int) -> TruncatedMatrix:
    """Magnitudes B[i][j] = j^(-sigma1) (|c2| log j)^i / i! for i <= I, j <= J.

    Row 0 is exp(-sigma1 ln j), one exp per column.  Each later row follows
    from the one above by the exact recurrence

        B[i][j] = B[i-1][j] * g_j * (1/i),    g_j = |c2| ln j,

    two in-place products per entry into a row that is still in cache, on
    every column whose row 0 stays in the normal range, sigma1 ln j <=
    _ROW0_EXPONENT_MAX.  Past that column, rows i >= 1 keep the log-space
    assembly exp(i log(|c2| ln j) - lgamma(i+1) - sigma1 ln j).  With
    c2 = 0, g is 0 and log(0) is -inf, so rows i >= 1 come out 0.  No
    entry exceeds 1 because sigma1 >= |c2|, and _entry_rounding bounds the
    error of every entry.  Column j = 1 is (1, 0, 0, ...).  The block takes
    8 bytes per entry; a large one sits in its own memory mapping (see
    _zeros).  Only the size is checked here: rows are filled when first
    read (see TruncatedMatrix), so rows never read cost no time and no
    resident pages.  The tail bound is computed on first access.
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

    m = TruncatedMatrix(_zeros((i_max + 1, j_max), np.float64), sym)
    m._filled = 0
    return m


def tail_bounds(sym: DirichletSymbol, i_max: int, j_max: int) -> float:
    """Certified operator-norm bound on the discarded rows and columns.

    Root-sum of two Hilbert-Schmidt pieces:

    * rows i >= k_t, over all columns: each squared row norm is
      |c2|^2i/(i!)^2 times the 2i-th log moment of j^(-2 sigma1), which the
      factorial-moment chain bounds by rho^2i * 2 sigma1/(2 sigma1 - 1) with
      rho = 2|c2|/(2 sigma1 - 1); the geometric sum from k_t is
      (s/(s-1)) rho^(2 k_t) / (1 - rho^2), s = 2 sigma1, and infinite for
      boundary symbols where rho = 1.
    * columns j > J within rows i < k_t: log-moment tails of order 2i, each
      bounded by its incomplete-gamma integral (plus peak term when J is left
      of the summand's peak).

    k_t is I + 1, or the first row at which the row piece is at most u times
    the i = 0 column tail, from logs, if that comes sooner: rows k_t..I
    then cost no log-moment tail, and a superset of the discarded part is
    still charged.
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
    log_col0 = log_moment_tail(s, 0, j_max)
    rows = i_max + 1
    if log_col0 > -math.inf and rho_sq > 0.0:
        # least k with (s/(s-1)) rho^2k / (1 - rho^2) <= u e^log_col0
        log_room = math.log(UNIT_ROUNDOFF * (1.0 - rho_sq) * (s - 1.0) / s) + log_col0
        rows = min(rows, max(1, math.ceil(log_room / math.log(rho_sq))))
    row_sq = (s / (s - 1.0)) * rho_sq**rows / (1.0 - rho_sq)

    log_c = math.log(c)
    col_sq = math.exp(log_col0)
    for i in range(1, rows):
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


def _entry_rounding(sym: DirichletSymbol, i_max: int, j_max: int) -> float:
    """Bound eta on the relative rounding of every entry build_matrix computes.

    Each computed entry is B[i][j] (1 + theta) + e with |theta| <= eta and
    |e| <= max(I, 1) 2^-1074.  numpy's log and exp are taken within one ulp
    (2u relative), as numpy's own accuracy tests hold them, and each
    product within u; theta_n is a relative error of at most gamma_n
    (Higham 2002, ch. 3).

    * Row 0: ln j carries theta_2 and sigma1 ln j one more rounding, so
      exp's argument is off by at most d = gamma_3 sigma1 ln J, which moves
      e^(-sigma1 ln j) by a factor within d e^d of 1; exp adds theta_2.
    * Rows i >= 1 on the recurrence columns: g_j = |c2| ln j carries
      theta_3, 1/i theta_1 and the two products theta_2, so each row adds
      theta_6, and eta <= gamma_(6I+2) + d e^d (1 + gamma_(6I+2)).
    * Underflow on those columns: row 0 is at least e^-700 and a column's
      entries rise while g_j >= i, so no product leaves the normal range
      before the entries fall, by the factor g_j / i < 1 a row.  From the
      first subnormal product on, a row adds at most 2^-1075 (1 + fl(1/i)
      (1 + u)) < 2^-1074 (row 1's second product is exact) and scales the
      absolute error it carries by (g_j / i)(1 + theta_6), which exceeds 1
      on at most one row: I 2^-1074 in all.
    * Columns past _ROW0_EXPONENT_MAX (only when sigma1 ln J passes it; the
      build compares numpy's ln j with 700 / sigma1, and a margin of 1
      keeps this test on the safe side): rows i >= 1 come from the
      exponent i log(|c2| ln j) - log i! - sigma1 ln j, a few elementary
      steps on pieces of size at most M = I (1 + max_j |log(|c2| ln j)|) +
      log I! + sigma1 ln J, each accurate to 2 ulps of its result, and exp
      adds one more: 4 u (M + 2), to first order.  A subnormal result
      adds 2^-1074.  With c2 = 0 these rows are exactly 0.

    About a dozen roundings compute eta itself; 16 u relative covers them.
    """
    log_j = math.log(j_max)
    d = _gamma(3) * sym.sigma1 * log_j
    rows = _gamma(6 * i_max + 2)
    eta = rows + d * math.exp(d) * (1.0 + rows)
    if sym.c2 != 0 and sym.sigma1 * log_j > _ROW0_EXPONENT_MAX - 1.0:
        log_base = max(abs(math.log(sym.c2_abs * math.log(j))) for j in (2, j_max))
        size = i_max * (1.0 + log_base) + math.lgamma(i_max + 1.0) + sym.sigma1 * log_j
        eta = max(eta, 4.0 * (size + 2.0) * UNIT_ROUNDOFF)
    return math.nextafter(eta * (1.0 + 16.0 * UNIT_ROUNDOFF), math.inf)


def _significant_rows(sym: DirichletSymbol, i_max: int, j_max: int) -> tuple[int, float]:
    """(k, dropped): the rows k..I of B whose Frobenius norm, bounded in closed
    form, is at most u = 2^-53, and dropped, a bound on that norm.

    Row i >= 1 is 0 at j = 1 and at most e^(phi_i(t)), t = ln j, elsewhere,
    phi_i(t) = i log(|c2| t) - sigma1 t - log i!, which is concave with its
    peak at t = i / sigma1; clamped to [ln 2, ln J] that peak bounds the
    row, and sqrt(J) times it the row's norm.  k is the least row count at
    which the squares of these bounds for rows k..I sum to at most u^2, and
    dropped is the root of that sum, rounded up.  Since ||B|| >= B[0][0] = 1,
    dropped <= u ||B||, up to an ulp.  Rows i >= 1 are exactly zero when
    c2 = 0 or J = 1: then k = 1 and dropped = 0.

    Rounding, in units of u: |c2| is taken from c2_abs_upper and t within
    2u of the clamped peak (ln j and i / sigma1 round once each, the clip
    not at all), which moves phi by at most |phi'| 2u t <= 2u (i + sigma1 t).
    Evaluating phi_i + (ln J)/2 rounds the product |c2| t, log (one ulp,
    2u) and the product by i: i (1 + 3 |L|), L = log(|c2| t); sigma1 t
    once; lgamma within 4 log i! + 2 (see _log_tail_rounding); (ln J)/2
    within ln J; and the four additions, with the padding's own, within
    4 times the sum of the parts' sizes.  With
    M = i (1 + |L|) + sigma1 t + log i! + ln J + 1 that is at most 8 M, and
    9 M covers the second-order terms.  The squared bound is exp of twice
    the padded log, within 2u (plus 2^-1074 when it underflows); each
    suffix sum of n <= I such terms is within gamma_I of its value, and
    1 + 2 gamma_(I+4) covers 1 / (1 - gamma_I) times 1 + 2u and the
    rounding of the correction itself.
    """
    if sym.c2 == 0 or j_max == 1 or i_max == 0:
        return 1, 0.0
    c = c2_abs_upper(sym)
    i = np.arange(1.0, i_max + 1.0)
    log_j = math.log(j_max)
    t = np.clip(i / sym.sigma1, math.log(2.0), log_j)
    log_ct = np.log(c * t)
    log_fact = log_factorials(i_max)[1:]
    sigma_t = sym.sigma1 * t
    log_row = i * log_ct - sigma_t - log_fact + 0.5 * log_j
    size = i * (1.0 + np.abs(log_ct)) + sigma_t + log_fact + log_j + 1.0
    log_row += UNIT_ROUNDOFF * (9.0 * size + 2.0 * (i + sigma_t))
    suffix = np.cumsum(np.exp(2.0 * log_row)[::-1])[::-1]  # rows i..I, i >= 1
    suffix = suffix * (1.0 + 2.0 * _gamma(i_max + 4)) + i_max * 2.0**-1074
    k = 1 + int(np.searchsorted(-suffix, -(UNIT_ROUNDOFF**2)))
    if k > i_max:
        return i_max + 1, 0.0
    return k, math.nextafter(math.sqrt(float(suffix[k - 1])), math.inf)


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
    values of A, restricted to its rows that can move the norm: B_k, the
    first k rows, with rows k..I of Frobenius norm at most ``dropped``
    <= u ||B|| (see _significant_rows); only B_k is filled.  The start
    vector comes from the Perron vector of the Gram matrix of B_k (see
    _perron_start); it meets the top singular vector so closely that one
    step usually certifies.
    Each step computes y = B_k x and z = y B_k and brackets ||B_k||:

    * lower^2 = ||z||^2 / ||y||^2 = ||B_k^T y||^2 / ||y||^2, a Rayleigh
      quotient of B_k^T, never below ||y||^2 / ||x||^2;
    * upper^2 = max_j z_j / x_j, the Collatz-Wielandt bound on the top
      eigenvalue of B_k^T B_k (Horn & Johnson, Matrix Analysis, 2nd ed.,
      ch. 8), valid for every x > 0 because B >= 0.

    B_k is a compression of B, so lower bounds ||B|| too, and
    ||B|| <= ||B_k|| + dropped, so the upper end adds dropped; where no
    row is cut, it adds nothing.

    The loop stops when upper^2 - lower^2 <= tol lower^2, so ``converged``
    means the bracket is that tight.  In exact arithmetic the
    Collatz-Wielandt bound never increases and the Rayleigh quotient never
    decreases from step to step, so a gap that fails to shrink means
    rounding has taken over: the loop stops there too, with ``converged``
    false, instead of running to ``max_iter``.  Both ends carry derived rounding
    terms, for the power step and for the entries themselves, and
    outward-rounded square roots: whether or not the loop converged,
    [lower, upper - tail_bound] holds the norm of the exact truncation and
    [lower, upper] that of the full operator (upper is infinite for
    boundary symbols).
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    if not isinstance(max_iter, int) or isinstance(max_iter, bool) or max_iter < 1:
        raise DomainError(f"max_iter must be an integer >= 1, got {max_iter!r}")

    n_rows, dropped = _significant_rows(m.symbol, m.i_max, m.j_max)
    b = m._rows(n_rows)
    n_cols = b.shape[1]
    x = _perron_start(b)
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
    # x >= _X_FLOOR and k (J+1) < 2^60, every absolute term is below
    # 2^-60 u of them, the entries' own (see below) too: one u covers all
    # of them on each end, and one more the rounding of the correction.
    # lower: the computed y is a vector like any other, so z (k terms
    # each) enters squared, ||z||^2 adds J terms and ||y||^2 k; the
    # quotient, 1 - gamma and the product round once each.
    # upper: y's error (J terms) passes into z (k terms); the quotient,
    # 1 + gamma and the product round once each.  The sum with dropped is
    # rounded up like the square root.
    # Entries: the computed block is B (1 + theta) + e with |theta| <= eta
    # (see _entry_rounding).  B >= 0 and the norm is monotone in the
    # entries of a nonnegative matrix, so ||B|| is at least the computed
    # block's norm over 1 + eta, whose square is at least 1 - 2 eta of
    # it, and at most its norm over 1 - eta, whose square is at most
    # 1 + 3 eta of it while eta <= 1/5; 1 + gamma + 4 eta covers
    # (1 + gamma)(1 + 3 eta) while gamma <= 1/3.
    eta = _entry_rounding(m.symbol, m.i_max, m.j_max)
    lower_sq *= 1.0 - (_gamma(n_cols + 3 * n_rows + 5) + 2.0 * eta)
    upper_sq *= 1.0 + (_gamma(n_cols + n_rows + 5) + 4.0 * eta)
    upper = math.nextafter(math.sqrt(upper_sq), math.inf)
    if dropped:  # ||B|| <= ||B_k|| + ||rows k..I||_F
        upper = math.nextafter(upper + dropped, math.inf)
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
    * The build's entries are B (1 + theta) + e with |theta| <= eta (see
      _entry_rounding).  B >= 0, so ||B theta||_2 <= eta ||B||_2 by
      monotonicity of the norm on nonnegative matrices; ||e||_2 < 2^-1000
      is far below the ulp that each outward rounding gives away, since
      sigma1 >= B[0][0] = 1.
    """
    eta = _entry_rounding(m.symbol, m.i_max, m.j_max)
    p = max(m.row_count, m.col_count)
    return math.nextafter(math.nextafter(p * UNIT_ROUNDOFF + eta, math.inf) * sigma1, math.inf)


@dataclass(frozen=True)
class SchurCertificate:
    """The two-weight Schur test at parameter r, proven for every row.

    With weights p_j = j^(r|c2| - sigma1), q_i = r^i the column sums must
    stay below alpha p_j and the row sums below beta q_i, beta >= zeta(s),
    s = 2 sigma1 - r|c2|.  Column j sums to j^(-sigma1) times the
    exponential series of r|c2| ln j, which is p_j, so alpha = 1; row 0 is
    zeta(s).  ``row_bound`` bounds every row's ratio to beta r^i at once
    (see schur_certificate), and ``max_row_residual`` is the proven
    supremum of the relative residuals over all rows: 0.0 when
    row_bound <= 1, +inf when P(r) > 0.  A true verdict implies the
    operator norm is at most sqrt(beta), taken at beta's certified upper
    end and rounded up in ``implied_norm_bound``.
    """

    r: float
    alpha: float
    beta: float
    max_row_residual: float
    row_bound: float
    verdict: bool
    implied_norm_bound: float | None


def schur_certificate(
    sym: DirichletSymbol,
    r: float,
    i_max: int,
    j_max: int,
    budget: PrecisionBudget = DEFAULT_BUDGET,
) -> SchurCertificate:
    """The Schur test at weight ratio r, in closed form for all rows.

    Row i >= 1 sums to |c2|^i / i! M_i(s), M_i(s) = sum_j (ln j)^i j^-s.
    Its summand f(x) = (ln x)^i x^-s is unimodal with f(1) = 0, so
    M_i(s) <= integral_1^inf f + max f = i!/(s-1)^(i+1) + (i/(s e))^i.
    With q = |c2| / ((s-1) r) and Stirling's i! >= sqrt(2 pi i) (i/e)^i,
    row i's ratio to zeta(s) r^i is at most

        (q^i / (s-1) + (q (s-1)/s)^i / sqrt(2 pi i)) / zeta(s),

    which for q <= 1 falls with i, so row 1 bounds every row by
    h(s) / zeta(s), h = lower_bound_h.  q <= 1 is exactly
    P(r) = |c2| r^2 + (1 - 2 sigma1) r + |c2| <= 0; where P(r) > 0 the
    ratios grow like q^i and the test fails in deep rows.  The verdict is
    therefore P(r) <= 0, decided exactly on the floats, and h(s) <= zeta(s),
    O(1) work.  i_max and j_max are validated and kept for call
    compatibility only: no row or column is summed, and they do not affect
    the result.

    Rounding: P is decided at an upper bound on the exact |c2| of the
    symbol's float components (P grows with |c2|); s is 2 sigma1 - r |c2|
    at that bound, rounded down, and lies below the exact s, where zeta and
    h are both larger, so beta = zeta(s).upper still bounds row 0.  Each
    term of h(s) takes at most six roundings (s - 1, three divisions,
    sqrt(2 pi) and the sum), gamma_6 < 8u, and h is rounded up by that, and
    zeta(s).lower and the quotient outward by an ulp each.
    """
    r = float(r)
    if not (0.0 < r <= 1.0) or not math.isfinite(r):
        raise DomainError(f"Schur parameter r must lie in (0, 1], got {r}")
    _check_truncation(i_max, j_max)
    if classify(sym) is SymbolClass.CONSTANT:
        raise DomainError("Schur certificate requires a non-constant symbol")

    s = schur_exponent(sym, r)
    z = _certified_zeta(s, budget)
    row_bound = math.inf
    if schur_polynomial_nonpositive(sym.sigma1, c2_abs_upper(sym), r):
        h = math.nextafter(lower_bound_h(s) * (1.0 + 8.0 * UNIT_ROUNDOFF), math.inf)
        row_bound = math.nextafter(h / math.nextafter(z.lower, 0.0), math.inf)
    verdict = row_bound <= 1.0
    implied = math.nextafter(math.sqrt(z.upper), math.inf)
    return SchurCertificate(
        r=r,
        alpha=1.0,
        beta=z.value,
        max_row_residual=max(row_bound - 1.0, 0.0),
        row_bound=row_bound,
        verdict=verdict,
        implied_norm_bound=implied if verdict else None,
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
