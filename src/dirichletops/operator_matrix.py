"""Truncated matrix realization of the composition operator.

Against the orthonormal bases {j^-s} (domain side) and {(q^i)^-s} (range
side) the operator acts as the infinite matrix

    a[i][j] = j^(-c1) (-c2 log j)^i / i!,    i >= 0, j >= 1,

which never references q.  With theta = arg(-c2) and tau = Im c1 it factors
exactly as A = D_row B D_col, where D_row = diag(e^(i k theta)) and
D_col = diag(j^(-i tau)) are unitary and

    B[i][j] = j^(-sigma1) (|c2| log j)^i / i!  >= 0

is real and nonnegative.  Norms, singular values and Schur data depend only
on B, so this module builds and decomposes B, and brackets its norm from
the Gram matrix of its leading rows; the phases are applied only when the
complex entries are exported.  It also certifies the
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
from functools import cached_property
from itertools import islice
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .bounds import approx_number_bound, c2_abs_upper, schur_exponent
from .bounds import schur_polynomial_nonpositive
from .errors import DomainError, MatrixSizeError, NonCompactError
from .special_functions import DEFAULT_BUDGET, UNIT_ROUNDOFF, PrecisionBudget
from .special_functions import _EM_BETA, _EM_REMAINDER, _EM_TERMS, _em_fits
from .special_functions import _POISSON_RECURRENCE_MAX, _gamma, _poisson_rounding, _poisson_terms
from .special_functions import _euler_maclaurin_tail, lower_bound_h
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
_SQUARINGS, _START_SETTLED = 12, 2.0**-26  # the start vector's bounds (_start_vector)
_MAX_ITER = 1000  # operator_norm_estimate's steps on the Gram matrix, at most
# build_matrix uses the row recurrence on the columns with sigma1 ln j at
# most this: row 0 there is at least e^-700, far inside the normal range
# (2^-1022 = e^-708.4)
_ROW0_EXPONENT_MAX = 700.0
_TINY = 2.0**-1022  # the least normal float
# past this exponent x an exact entry e^-x lies below 2^-1076, and exp at a
# computed exponent below -745.2 returns 0 or 2^-1074 (2^-1075 = e^-745.13)
_UNDERFLOW_EXPONENT = 746.0

# the Gram moments past column N (_gram_moments) use special_functions'
# Euler-Maclaurin model: beta_r, the orders 2r - 1 and the powers 0..2p-1
_EM_BETA_COLUMN = np.array(_EM_BETA)[:, None]
_EM_ORDERS = np.arange(1.0, 2 * _EM_TERMS, 2.0)[:, None]
_EM_POWERS = np.arange(2.0 * _EM_TERMS)
_EM_FIRST = 64
# Euler-Maclaurin errors up to this are charged as absolute ones: k times
# it, over _X_FLOOR, stays far below u in the norm's bracket
_EM_ABSOLUTE = 2.0**-1000
# the moment chain evaluates at most this many entries at a time (1 MiB)
_CHAIN_ENTRIES = 1 << 17

# the size-only tables that _table keeps, by build function; each is kept
# while it holds at most _TABLE_BYTES
_TABLE_BYTES = 1 << 21
_tables: dict[Callable[[int], np.ndarray], np.ndarray] = {}


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


def _table(build: Callable[[int], np.ndarray], size: int) -> np.ndarray:
    """build(size), read-only, cut from the largest table build has made.

    The tables built here (_log_factorial_table, _step_table,
    _gram_factor_table and _falling_factorial_table) depend on nothing but
    their size, and each is a prefix, or a leading block, of every larger
    one.  So one table serves every smaller size, and it is rebuilt only
    when a larger size is asked for.  A table is kept only while it holds
    at most _TABLE_BYTES, so the four together keep at most 4 _TABLE_BYTES
    = 8 MiB; a larger one serves its own call alone.  Kept tables, and so
    every slice handed out, are read-only.  Two threads may both build a table;
    both results are the same table, and either is kept.
    """
    table = _tables.get(build)
    if table is None or table.shape[0] < size:
        table = build(size)
        table.flags.writeable = False
        if table.nbytes <= _TABLE_BYTES:
            _tables[build] = table
    return table[(slice(size),) * table.ndim]


def _log_factorial_table(size: int) -> np.ndarray:
    return np.fromiter(map(math.lgamma, np.arange(1.0, size + 1.0).tolist()), np.float64, size)


def log_factorials(n: int) -> np.ndarray:
    """lgamma(i+1) = log(i!) for i = 0..n, each entry computed by math.lgamma;
    a read-only view of a kept table (see _table)."""
    return _table(_log_factorial_table, n + 1)


def _check_truncation(i_max: int, j_max: int) -> None:
    if not isinstance(i_max, int) or isinstance(i_max, bool) or i_max < 0:
        raise DomainError(f"row index bound must be an integer >= 0, got {i_max!r}")
    if not isinstance(j_max, int) or isinstance(j_max, bool) or j_max < 1:
        raise DomainError(f"column count must be an integer >= 1, got {j_max!r}")


class TruncatedMatrix:
    """The symbol's (I+1) x J truncation of the operator matrix.

    The truncation and the entry cap (see _max_entries) are checked here,
    and no array is held until ``magnitudes`` is first read: then the real
    nonnegative block B = |A| is allocated (see _zeros), filled by _rows
    under a lock and kept read-only, so a shared matrix is safe across
    threads.  ``entries`` is the phased complex block A = D_row B D_col,
    computed on first access and cached read-only.
    """

    def __init__(self, symbol: DirichletSymbol, i_max: int, j_max: int) -> None:
        _check_truncation(i_max, j_max)
        total = (i_max + 1) * j_max
        cap = _max_entries()
        if total > cap:
            raise MatrixSizeError(
                f"matrix would hold {total} entries ({total * _ENTRY_BYTES} bytes at "
                f"{_ENTRY_BYTES} B per entry), cap is {cap} entries ({cap * _ENTRY_BYTES} "
                f"bytes); set {MAX_ENTRIES_ENV} to raise it"
            )
        self.symbol, self.i_max, self.j_max = symbol, i_max, j_max
        self.row_count, self.col_count = i_max + 1, j_max
        self._block: np.ndarray | None = None
        self._lock = threading.Lock()

    @property
    def magnitudes(self) -> np.ndarray:
        with self._lock:
            if self._block is None:
                block = _zeros((self.row_count, self.col_count), np.float64)
                _rows(self.symbol, self.row_count, block)
                block.flags.writeable = False
                self._block = block
        return self._block

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


def build_matrix(sym: DirichletSymbol, i_max: int, j_max: int) -> TruncatedMatrix:
    """Magnitudes B[i][j] = j^(-sigma1) (|c2| log j)^i / i! for i <= I, j <= J.

    The block takes 8 bytes per entry; a large one sits in its own memory
    mapping (see _zeros).  Only the truncation and the size are checked
    here, and nothing is allocated: the rows, as _rows computes them, are
    filled on the first read of ``magnitudes`` (see TruncatedMatrix), so a
    block whose entries are never read costs no time and no resident
    pages.  The tail bound is computed on first access.
    """
    return TruncatedMatrix(sym, i_max, j_max)


def _rows(sym: DirichletSymbol, count: int, out: np.ndarray) -> None:
    """Fill rows 0..count-1 of the count x J block out with B, in order.

    Row 0 is exp(-sigma1 ln j), one exp per column.  Each later row follows
    from the one above by the exact recurrence

        B[i][j] = B[i-1][j] * g_j * (1/i),    g_j = |c2| ln j,

    two in-place products per entry into a row that is still in cache, on
    every column whose row 0 stays in the normal range, sigma1 ln j <=
    _ROW0_EXPONENT_MAX.  Past that column, rows i >= 1 are assembled in log
    space, exp(i log(|c2| ln j) - lgamma(i+1) - sigma1 ln j).  With c2 = 0,
    g is 0 and log(0) is -inf, so rows i >= 1 come out 0.  Where |c2| ln j
    overflows, sigma1 ln j is at least about 1.8e308 (sigma1 >= |c2|), so
    every entry of the column lies below 2^-1074, and its log is taken as
    -inf too.  No entry exceeds 1 because sigma1 >= |c2|, and
    _entry_rounding bounds the error of every entry.  Column j = 1 has
    ln j = 0, so the recurrence makes it (1, 0, 0, ...) exactly.
    """
    lj = np.log(np.arange(1.0, out.shape[1] + 1.0))
    near = int(np.searchsorted(lj, _ROW0_EXPONENT_MAX / sym.sigma1, side="right"))
    g = sym.c2_abs * lj[:near]
    with np.errstate(divide="ignore", over="ignore"):  # log(0) = -inf when c2 = 0
        log_g = np.log(sym.c2_abs * lj[near:])
        sigma_lj = sym.sigma1 * lj  # inf past 1.8e308: the entry is 0
    log_g[log_g == math.inf] = -math.inf
    sigma_far = sigma_lj[near:]
    log_fact = log_factorials(max(count - 1, 0)) if log_g.size else None
    np.negative(sigma_lj, out=out[0])
    np.exp(out[0], out=out[0])
    for i in range(1, count):
        head = out[i, :near]
        np.multiply(out[i - 1, :near], g, out=head)
        head *= 1.0 / i
        if log_g.size:  # columns past the normal range, often none
            far = out[i, near:]
            np.multiply(log_g, float(i), out=far)
            far -= log_fact[i]
            far -= sigma_far
            np.exp(far, out=far)


def tail_bounds(sym: DirichletSymbol, i_max: int, j_max: int) -> float:
    """Certified operator-norm bound on the discarded rows and columns.

    The root of a Hilbert-Schmidt sum, with c = |c2| from c2_abs_upper and
    s = 2 sigma1 taken as min(s, 2^1000) in all but r, c/s and s - 2c:
    every piece grows with c and falls as s grows (s - 2c is taken as
    min(2 sigma1 - 2c, 2^1000) likewise).  Row i >= 1 sums
    g_i(j) = c^2i (ln j)^2i j^-s / (i!)^2, which is 0 at j = 1 and unimodal
    in x >= 1 with its peak at ln x = 2i/s, and a unimodal f has
    sum_(j>=m) f(j) <= integral_m^inf f + max_(x>=m) f(x).

    * Row 0 past column J: its Euler-Maclaurin tail at n = J + 1 with the
      remainder bound (special_functions._euler_maclaurin_tail), at s up to
      2^11, past which every term lies below 2^-2047.
    * Rows 1 <= i < k_t past column J: the integral from J + 1,
      T_i = b_i Q_2i(z) with b_i = C(2i, i) r^2i / (s-1) <= rho^2i / (s-1),
      r = c / (2 sigma1 - 1), rho = 2r, z = (s-1) ln(J+1) and
      Q_n(z) = e^-z sum_(m<=n) z^m / m! (the regularized upper incomplete
      gamma function), plus g_i's largest value from column J + 1 on,
      P_i = c^2i t^2i e^-st / (i!)^2 at t = max(2i/s, ln(J+1)).
    * Rows i >= k_t over all columns: row i is at most
      integral_1^inf g_i + max_(x>=2) g_i = b_i + P*_i.  b_(i+1) <= rho^2 b_i.
      Where 2i/s >= ln 2, P*_i is the peak g_i(e^(2i/s)) =
      (2ic / (se))^2i / (i!)^2, and P*_(i+1) <= (2c/s)^2 P*_i, as
      (1 + 1/i)^2i <= e^2; left of that, P*_i = g_i(2), and at the first
      row past it P*_(i+1) <= g_i(e^(2(i+1)/s)) (2c/s)^2 <= (2c/s)^2 g_i(2),
      g_i falling from 2 on.  With 2c/s <= rho, the rows from k = k_t sum to
      at most (b_k + Pi_k) / (1 - rho^2): Pi_k is the peak, which bounds
      P*_i for every row, or, where 2k/s < ln 2 (tested with 4u to spare),
      sum_(i>=k) g_i(2) <= 2^-s (y^k / k!)^2 e^2y, y = c ln 2,
      as y^i / i! <= (y^k / k!)(y^(i-k) / (i-k)!), so
      Pi_k = exp(2 (k ln y - log k!) - (s - 2c) ln 2).  1 / (1 - rho^2) is
      the square of approx_number_bound's prefactor times (s-1)/s, +inf
      for boundary symbols.

    One pass adds the rows to a running sum S with O(1) work a row:
    b_i = b_(i-1) 2 (2i-1) r^2 / i, and Q_2i adds the Poisson terms
    p_m = e^-z z^m / m!, m = 2i-1, 2i, the next two that
    special_functions._poisson_terms(z) gives.  k_t is the first row whose
    row piece is at most max(u S, 2^-1074), or I + 1; any k_t gives a bound.

    Rounded outward in units of u = 2^-53, with gamma_n as in _gamma, exp,
    log and pow within 2u, lgamma(m+1) within 4 log m! + 2 (see
    special_functions._poisson_terms), and the root rounded up:

    * z is rounded down, as Q_n falls when z grows: the factor 1 - 6u
      undoes the four units of s - 1, ln(J+1) and their product.
    * Each p_m, m <= 2k - 2 with k = k_t, is within eps_p p_m of its value
      at that z, eps_p = _poisson_rounding(z, 2k - 2), plus 2^-1074 where
      it comes out below 2^-1022 (the proof is _poisson_terms').
    * P_i = exp(2i (L + log w - w) - 2 log i!), L = ln(2i c / s) and
      w = s t / (2i) = max(1, s ln(J+1) / (2i)), which takes the clamped s
      (that lowers w and raises log w - w).  At w = 1, the peak itself,
      the exponent is off by at most 2i (5 |L| + 5) + 10 log i! + 6,
      largest at i = 1 or k_t - 1.  Past it, w is within 4u, which moves
      log w - w by at most 4u (w - 1), and log w, the two new sums and
      the larger terms rounded later add at most 2 |L| + 7 log w + 4w - 3
      more per unit of 2i, at most 2 |L| + 15 (w - 1) + 1: L + log w - w
      is raised by (2 |L| + 16 w) u, so the bound at w = 1 holds for every
      row, and with exp's ulp each P_i is within eps_P = expm1(D u)
      (1 + 2u) + 2u of its value, D that bound at its largest.  Below
      c / s = 2^-1022 every P_i is below 2^-1074 and none is added.
    * b_i (8i + 2 roundings), the 2i additions of Q_2i and their product
      put each T_i within (1 + gamma_(10k-7)) (1 + eps_p).  Row 0 takes
      its own rounding bound, (8 + (s+3) ln n) u of its remainder (five
      roundings of the coefficient, its exponent's, pow and the product)
      and gamma_5, and S gamma_2k: eps = gamma_(12k-7) + (1 +
      gamma_(12k-7)) max(eps_p, eps_P), raised by 16u for its own
      roundings.  1 + 8u covers the product by 1 + eps, the sum and the
      floor's addition.
    * The row piece: b_k is below b' (1 + 2 gamma_(8k+2)) plus its
      shortfall, b' the computed one.  Pi_k's exponent is raised by its
      own error bound before exp, which leaves exp's 2u:
      2k (5 |L| + 5) + 10 log k! + 6 at the peak, as for P_i, and at
      column 2, where y = c ln 2 is within 2u,
      2k (4 |ln y| + 3) + 10 log k! + 4 (s - 2c) + 10 plus the exponent's
      own size.  The prefactor, squared, exceeds its exact square by at
      most u, and (s-1)/s takes 2: 1 + 6u covers them and the product, and
      1 + 4u the sum and the product by 1 / (1 - rho^2).
    * The floor, in units of 2^-1074: a result below 2^-1022 is off by at
      most one unit past its relative bound, times what multiplies it
      later.  The pass tracks how far b and Q may fall short: a step below
      2^-1020 (r or r^2 may be subnormal) adds 3 b_(i-1), a b_i below 2^-1022
      adds 1, both carried by later steps, and each Poisson term below
      2^-1022 adds 1 to Q's.  Row i costs 2 (b_i Q's + b's Q_2i), the 2
      covering 1 + eps_p and the gammas, plus 1 for T_i and 2 for P_i below
      2^-1022.  The row piece costs 2 (b's shortfall + 2) / (1 - rho^2),
      the 2 covering a subnormal Pi_k and the roundings.  Row 0's pieces
      cost 5, and K = (s+2)^3 / 500
      more (past s = 12 at least the coefficients s/12 + s (s+1) (s+2) / 720
      of its powers n^-(s+1), n^-(s+3)) where one may be subnormal
      ((s+3) ln n > 700) and its piece pass 2^-1075 ((s+1) ln n < 746 +
      ln K; never past s = 1100, where K is capped).
    """
    _check_truncation(i_max, j_max)
    s = min(2.0 * sym.sigma1, 2.0**1000)
    if not s > 1.0:  # sigma1 within EQ_TOL of 1/2 or below: row 0 has no finite tail
        return math.inf
    c = c2_abs_upper(sym)
    s0, log_n = min(s, 2048.0), math.log(j_max + 1.0)
    tail, remainder, rounding = _euler_maclaurin_tail(s0, j_max + 1.0)
    col = tail + rounding + remainder * (1.0 + (8.0 + (s0 + 3.0) * log_n) * UNIT_ROUNDOFF)
    big_k = (min(s, 1100.0) + 2.0) ** 3 / 500.0
    band = 700.0 < (s + 3.0) * log_n and (s + 1.0) * log_n < 746.0 + math.log(big_k)
    floor = 5.0 + (big_k if band else 0.0)

    i, row_sq, term_eps = 1, 0.0, 0.0  # with c2 = 0 rows i >= 1 of B vanish
    if c > 0.0:
        try:
            law = approx_number_bound(sym)
        except NonCompactError:  # boundary symbols: the rows do not decay
            return math.inf
        s1 = s - 1.0
        geometric = law.prefactor * law.prefactor * (s1 / s) * (1.0 + 6.0 * UNIT_ROUNDOFF)
        v, r_sq = 0.5 * (c / sym.sigma1), (0.5 * (c / (sym.sigma1 - 0.5))) ** 2  # sigma1, unclamped
        log_y, gap = math.log(c * math.log(2.0)), min(2.0 * (sym.sigma1 - c), 2.0**1000)
        z = s1 * log_n * (1.0 - 6.0 * UNIT_ROUNDOFF)
        poisson = _poisson_terms(z)
        b, q = 1.0 / s1, next(poisson)
        b_low, q_low = 0.0, float(q < _TINY)  # shortfalls in units of 2^-1074
        while True:
            step = 2.0 * (2 * i - 1) / i * r_sq
            b_low = b_low * step + 3.0 * b * (step < 4.0 * _TINY)  # r_sq may be subnormal
            b *= step
            b_low += b < _TINY
            lgam = math.lgamma(i + 1.0)
            cut = max(UNIT_ROUNDOFF * col, 2.0**-1074)
            row_sq = geometric * b * (1.0 + 2.0 * _gamma(8 * i + 2)) * (1.0 + 4.0 * UNIT_ROUNDOFF)
            if i > i_max or row_sq <= cut:  # else the row piece passes the cut already
                if 2 * i < s * math.log(2.0) * (1.0 - 4.0 * UNIT_ROUNDOFF):  # the peak lies left of 2
                    lead = 2.0 * (i * log_y - lgam) - gap * math.log(2.0)
                    size = 2 * i * (4.0 * abs(log_y) + 3.0) + 10.0 * lgam + 4.0 * gap + 10.0 + abs(lead)
                else:  # the peak, which bounds every row's largest summand
                    big_l = math.log(2 * i * v)
                    lead = 2 * i * (big_l - 1.0) - 2.0 * lgam
                    size = 2 * i * (5.0 * abs(big_l) + 5.0) + 10.0 * lgam + 6.0
                rest = math.exp(lead + size * UNIT_ROUNDOFF) * (1.0 + 2.0 * UNIT_ROUNDOFF)
                row_sq += geometric * rest * (1.0 + 4.0 * UNIT_ROUNDOFF)
                if i > i_max or row_sq <= cut:
                    floor += 2.0 * geometric * (b_low + 2.0)  # rows i.. are charged by this piece
                    break
            for p in islice(poisson, 2):  # m = 2i - 1, 2i
                q += p
                q_low += p < _TINY
            t = b * q
            col += t
            floor += 2.0 * (b * q_low + b_low * q) + (t < _TINY)
            if v >= _TINY:  # the summand's largest value from column J + 1 on
                big_l, w = math.log(2 * i * v), max(s * log_n / (2 * i), 1.0)
                lead = big_l + math.log(w) - w
                if w > 1.0:  # column J + 1 lies right of the peak
                    lead += (2.0 * abs(big_l) + 16.0 * w) * UNIT_ROUNDOFF
                p = math.exp(2 * i * lead - 2.0 * lgam)
                col += p
                floor += 2.0 * (p < _TINY)
            i += 1
        top = i - 1
        if top:
            term_eps = _poisson_rounding(z, 2 * top)
            if v >= _TINY:  # P_i's exponent bound, at its largest
                size = 5.0 * max(abs(math.log(2.0 * v)), abs(math.log(2.0 * top * v))) + 5.0
                size = (2.0 * top * size + 10.0 * math.lgamma(top + 1.0) + 6.0) * UNIT_ROUNDOFF
                term_eps = max(term_eps, math.expm1(size) * (1 + 2 * UNIT_ROUNDOFF) + 2 * UNIT_ROUNDOFF)

    gamma = _gamma(12 * i - 7)
    eps = (gamma + (1.0 + gamma) * term_eps) * (1 + 16 * UNIT_ROUNDOFF)
    total = (row_sq + col * (1.0 + eps)) * (1.0 + 8.0 * UNIT_ROUNDOFF)
    return math.nextafter(math.sqrt(total + floor * 2.0**-1074), math.inf)


class NormEstimate(NamedTuple):
    lower: float
    upper: float
    iterations: int
    converged: bool


def _entry_rounding(sym: DirichletSymbol, i_max: int, j_max: int) -> float:
    """Bound eta on the relative rounding of every entry build_matrix computes.

    Each computed entry is B[i][j] (1 + theta) + e with |theta| <= eta and
    |e| <= max(I, 1) 2^-1074.  numpy's log and exp are taken within one ulp
    (2u relative), as numpy's own accuracy tests hold them, and each
    product within u; theta_n is a relative error of at most gamma_n
    (Higham 2002, ch. 3).

    * Row 0: ln j carries theta_2 and sigma1 ln j one more rounding, so
      exp's argument is off by at most gamma_3 sigma1 ln j, which moves
      e^(-sigma1 ln j) by a factor within d e^d of 1,
      d = gamma_3 min(sigma1 ln J, 746); exp adds theta_2.  Past
      sigma1 ln j = 746 (_UNDERFLOW_EXPONENT) the computed entry and the
      exact one are both at most 2^-1074: e covers their difference.
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
      keeps this test on the safe side): rows i >= 1 are exp of
      E = i L - l_i - x, L = log(|c2| ln j), l_i = lgamma(i+1) and
      x = sigma1 ln j, counted step by step in units of u, with lgamma
      within 4 l_i + 2 units (special_functions._poisson_terms).
      |c2| ln j carries theta_3 and log adds 2 ulps of L, so L is off by
      at most 2|L| + 3 and i L by i (3|L| + 3); l_i by 4 l_i + 2; x by 3x;
      the two subtractions by i|L| + l_i and i|L| + l_i + x: E is off by
      at most 5i|L| + 3i + 6 l_i + 4x + 2 units, and one more covers the
      second-order terms.  All of it grows with i, and |L| is largest at
      j = 2 or J (L is monotone in j).  An E of at least -746 has
      x <= I max|L| + 746, so E is off by at most
      eps = (5I max|L| + 3I + 6 log I! + 4 min(sigma1 ln J, I max|L| + 746) + 3) u,
      and the entry by a factor within expm1(eps) (1 + 2u) + 2u of 1.
      Below -746, as x <= |E| + i|L|, the computed E is at most
      -|E| (1 - 4u) + (9I max|L| + 3I + 6 log I! + 3) u < -745.5 while
      eta <= 1/5 (then eps <= log 1.2, and that u term is at most
      1.8 eps), and exp returns at most 2^-1074 (2^-1075 = e^-745.13),
      which e covers, as it covers a subnormal result.  With c2 = 0 these
      rows are exactly 0.

    About a dozen roundings compute eta itself; 16 u relative covers them.
    An eta above 1/5, past what the callers' proofs assume, raises
    DomainError.
    """
    log_j = math.log(j_max)
    exponent = sym.sigma1 * log_j
    d = min(_gamma(3) * sym.sigma1 * log_j, _gamma(3) * _UNDERFLOW_EXPONENT)
    rows = _gamma(6 * i_max + 2)
    eta = rows + d * math.exp(d) * (1.0 + rows)
    if sym.c2 != 0 and exponent > _ROW0_EXPONENT_MAX - 1.0:
        log_c = math.log(sym.c2_abs)  # log(|c2| ln j) without overflow
        log_base = max(abs(log_c + math.log(math.log(j))) for j in (2, j_max))
        powers = i_max * log_base
        size = 5.0 * powers + 3.0 * i_max + 6.0 * math.lgamma(i_max + 1.0)
        size += 4.0 * min(exponent, powers + _UNDERFLOW_EXPONENT)
        eps = (size + 3.0) * UNIT_ROUNDOFF
        eta = max(eta, math.expm1(eps) * (1.0 + 2.0 * UNIT_ROUNDOFF) + 2.0 * UNIT_ROUNDOFF)
    eta = math.nextafter(eta * (1.0 + 16.0 * UNIT_ROUNDOFF), math.inf)
    if not eta <= 0.2:
        raise DomainError(
            f"entry rounding bound {eta:.3e} of a {i_max + 1} x {j_max} block exceeds 1/5"
        )
    return eta


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
    once; lgamma within 4 log i! + 2 (see special_functions._poisson_terms);
    (ln J)/2 within ln J; and the four additions, with the padding's own,
    within 4 times the sum of the parts' sizes.  With
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
    log_row += 9.0 * UNIT_ROUNDOFF * size + 2.0 * UNIT_ROUNDOFF * (i + sigma_t)  # no overflow
    with np.errstate(over="ignore"):  # -inf past -8.9e307: the row is 0
        suffix = np.cumsum(np.exp(2.0 * log_row)[::-1])[::-1]  # rows i..I, i >= 1
    suffix = suffix * (1.0 + 2.0 * _gamma(i_max + 4)) + i_max * 2.0**-1074
    k = 1 + int(np.searchsorted(-suffix, -(UNIT_ROUNDOFF**2)))
    if k > i_max:
        return i_max + 1, 0.0
    return k, math.nextafter(math.sqrt(float(suffix[k - 1])), math.inf)


def _gram_moments(sym: DirichletSymbol, k: int, j_max: int) -> tuple[np.ndarray, float, float]:
    """(d, delta, eps): the 2k - 1 balanced moments d_n = B[a] . B[b],
    n = 0..2k-2, a = n // 2, b = n - a, each computed as d_n (1 + theta) + e
    with |theta| <= delta and |e| <= eps.

    Row i of B is w_j g_j^i / i!, w_j = j^-sigma1 and g_j = |c2| ln j, so
    d_n = sum_(j<=J) F_n(j), F_n(x) = x^-s (|c2| ln x)^n / (a! b!), s = 2 sigma1,
    and F_n = F_(n-1) g / ceil(n/2).  The columns j <= N, N from
    _em_columns, are summed directly (_chain_moments, which takes every
    F_n of a column from that one recurrence); the columns N < j <= J by
    _euler_maclaurin_moments, from the values F_n(N) and F_n(J) of the same
    recurrence.  The moments so cost 2k - 1 products over N + 1 columns and
    O(k p) more, whatever J is.  Where N = J, or the Euler-Maclaurin part is
    out of its model or costs more than summing its J - N columns would
    (rho > gamma_(J-N), below), the J columns are summed directly, by the
    same recurrence.

    Rounding.  The direct part is D_n (1 + theta) + e, |theta| <= delta_0 and
    |e| <= eps_0 (_gram_rounding with N columns), and the Euler-Maclaurin
    part E_n within err_n + floor of its exact value, err_n its remainder
    and relative rounding (see _euler_maclaurin_moments).  Both parts are
    >= 0, so

        low_n = max(D'_n - eps_0, 0) / (1 + delta_0) + max(E'_n - err_n - floor, 0),

    primes the computed values, rounded down by 8u, is at most d_n, and
    rho = max_n err_n / low_n, raised by 4u, over the n with
    err_n > _EM_ABSOLUTE gives err_n <= rho d_n; the other err_n, up to
    _EM_ABSOLUTE, join floor (moments far out in a fast-decaying row
    underflow, and their low_n is 0).  The sum D'_n + E'_n rounds once
    more, which delta_0 counts, so delta = delta_0 + rho (1 + u) and
    eps = (eps_0 + floor)(1 + u).  A delta above 1/2, past what
    operator_norm_estimate's proof assumes, raises DomainError.
    """
    n_cut = _em_columns(sym, k, j_max)
    d, f = _chain_moments(sym, k, n_cut, j_max)
    phi = _chain_rounding(sym, k, j_max)
    delta, eps = _gram_rounding(phi, k, n_cut, j_max)
    if n_cut < j_max:
        with np.errstate(over="ignore", invalid="ignore"):  # out of its model it returns None
            part = _euler_maclaurin_moments(sym, k, n_cut, j_max, f, phi)
        rho = math.inf
        if part is not None:
            e, err, floor = part
            low = np.maximum(d - eps, 0.0) / (1.0 + delta) + np.maximum(e - err - floor, 0.0)
            small = err <= _EM_ABSOLUTE
            floor += float(np.max(err, where=small, initial=0.0))
            with np.errstate(divide="ignore", invalid="ignore"):  # err / 0 fails the test below
                ratio = err / (low * (1.0 - 8.0 * UNIT_ROUNDOFF))
            rho = float(np.max(ratio, where=~small, initial=0.0)) * (1.0 + 4.0 * UNIT_ROUNDOFF)
        if rho <= _gamma(j_max - n_cut):
            d += e
            delta = math.nextafter(delta + rho * (1.0 + 2.0 * UNIT_ROUNDOFF), math.inf)
            eps = (eps + floor) * (1.0 + 2.0 * UNIT_ROUNDOFF)
        else:
            d, _ = _chain_moments(sym, k, j_max, j_max)
            delta, eps = _gram_rounding(phi, k, j_max, j_max)
    if not delta <= 0.5:
        raise DomainError(f"Gram rounding bound {delta:.3e} of {k} rows exceeds 1/2")
    return d, delta, eps


def _em_columns(sym: DirichletSymbol, k: int, j_max: int) -> int:
    """N, the columns _gram_moments sums directly: the least power of two
    from _EM_FIRST at which Lambda = (2k - 2) / ln N + s + p - 1/2 is at most
    theta N (special_functions._em_fits), so that the Euler-Maclaurin
    remainder is about u of its integral, and z_N = (s - 1) ln N in (0, 700]
    keeps e^-z_N normal and column N in the chain's recurrence (see _chain);
    J where no such N is at most J / 2.
    """
    s = 2.0 * sym.sigma1
    n = _EM_FIRST
    while 2 * n <= j_max and 0.0 < (s - 1.0) * math.log(n) <= _POISSON_RECURRENCE_MAX:
        if _em_fits(s, 2 * k - 2, n):
            return n
        n *= 2
    return j_max


def _chain_moments(
    sym: DirichletSymbol, k: int, n_cut: int, j_max: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """(d, f): the 2k - 1 balanced moments summed over the columns j <= N,
    and, where N < J, f = (F_n(N), F_n(J)) as a (2k - 1) x 2 array (else
    None).

    _chain evaluates the columns 1..N, and J with the last of them, in
    chunks of at most _CHAIN_ENTRIES entries, so the sums hold no more than
    that whatever N is, and each chunk's sums are one matrix-vector
    product: F_n(j) = T[n, j] m[j], so d += T m.
    """
    top = 2 * k - 1
    width = max(_CHAIN_ENTRIES // top, 1)
    d = np.zeros(top)
    for start in range(1, n_cut + 1, width):
        size = min(width, n_cut + 1 - start)
        last = start + size > n_cut and n_cut < j_max
        columns = np.arange(float(start), float(start + size + last))
        if last:  # the last chunk also takes column J
            columns[-1] = j_max
        table, scale = _chain(sym, top, columns)
        d += table[:, :size] @ scale[:size]
    if n_cut == j_max:
        return d, None
    return d, table[:, -2:] * scale[-2:]


def _chain(sym: DirichletSymbol, top: int, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, m): F_n(j) = T[n, i] m[i] for n < top and the ascending column
    indices j = columns[i] >= 1, F_n as in _gram_moments.

    On the columns with sigma1 ln j <= _ROW0_EXPONENT_MAX, T[0] = m = w,
    w = exp(-sigma1 ln j), which stays in the normal range there (as row 0
    of B does in _rows), and one cumprod along n gives
    T[n] = T[n-1] g / ceil(n/2), g = |c2| ln j: T is F / w, so T m is F.
    Starting from w, not from F_0 = w^2, keeps the start normal on every
    column where it is for the rows of B (w^2 leaves the normal range at
    half the exponent), and no entry of T exceeds 1 / w <= e^700, as
    F <= 1.  Past that column, F_n = exp(n log g - log a! - log b! -
    2 sigma1 ln j) directly, and m = 1; with c2 = 0, or where |c2| ln j
    overflows (every entry is then below 2^-1074, see _rows), log g is
    taken as -inf, and rows n >= 1 come out 0.  _chain_rounding bounds the
    error of every F_n(j).
    """
    lj = np.log(columns)
    near = int(np.searchsorted(lj, _ROW0_EXPONENT_MAX / sym.sigma1, side="right"))
    with np.errstate(over="ignore"):
        exponent = (-sym.sigma1) * lj  # -inf past 1.8e308: the entry is 0
    scale = np.exp(exponent)
    table = np.empty((top, columns.size))
    head = table[:, :near]
    head[0] = scale[:near]
    np.multiply.outer(_table(_step_table, top - 1), sym.c2_abs * lj[:near], out=head[1:])
    np.cumprod(head, axis=0, out=head)
    if near < columns.size:  # columns past the normal range, often none
        with np.errstate(divide="ignore", over="ignore"):  # log(0) = -inf when c2 = 0
            log_g = np.log(sym.c2_abs * lj[near:])
            far_exponent = 2.0 * exponent[near:]
        log_g[log_g == math.inf] = -math.inf
        n = np.arange(top)
        log_fact = log_factorials((top - 1) // 2)
        far = table[:, near:]
        far[0] = 0.0
        np.multiply.outer(n[1:], log_g, out=far[1:])
        far -= (log_fact[n // 2] + log_fact[n - n // 2])[:, None]
        far += far_exponent
        np.exp(far, out=far)
        scale[near:] = 1.0
    return table, scale


def _step_table(size: int) -> np.ndarray:
    """1 / ceil(n/2) for n = 1..size (see _chain)."""
    return 1.0 / np.ceil(0.5 * np.arange(1.0, size + 1.0))


def _chain_rounding(sym: DirichletSymbol, k: int, j_max: int) -> float:
    """Bound phi on the relative rounding of every F_n(j), n <= 2k - 2,
    j <= J, that _chain computes, as T m: each is F_n(j) (1 + theta) + e
    with |theta| <= phi and |e| <= k 2^-1074.  numpy's log and exp are
    taken within one ulp (2u relative), each product and quotient within
    u, lgamma(m+1) within 4 log m! + 2 units (see
    special_functions._poisson_terms), and theta_n is a relative error
    of at most gamma_n (Higham 2002, ch. 3).

    * Columns with sigma1 ln j <= 700 (tested as ln j <= 700 / sigma1, as
      _rows does, which keeps sigma1 ln j below 701).  ln j carries
      theta_2 and sigma1 ln j one more rounding, so exp's argument is off
      by at most d = gamma_3 min(sigma1 ln J, 746), which moves w by a
      factor within d e^d of 1, and exp adds theta_2:
      w is within h = d e^d + gamma_2 (1 + d e^d).  Each of the 2k - 2
      steps of the chain rounds g = |c2| ln j (theta_3), 1 / ceil(n/2),
      the product of the two and the cumulative product (theta_1 each):
      theta_6.  T m rounds once more, and carries w twice, so
      1 + theta <= (1 + h)^2 (1 + gamma_(12k-11)).
    * Underflow on those columns: T[0] = w >= e^-700 (1 - 2u), and a
      column's entries rise while g >= ceil(n/2), so no product leaves the
      normal range before the entries fall, by a factor below 1 a step.
      From the first subnormal product on, a step adds at most 2^-1075 and
      scales the absolute error it carries by at most 1 + gamma_6, and T m,
      with m = w <= 1, adds 2^-1075 more: (2k - 1) 2^-1075 (1 + gamma_12k)
      <= k 2^-1074 in all.
    * Columns past 700 (only when sigma1 ln J passes 699): F_n is exp of
      E = n L - l_n - x, L = log g, l_n = log a! + log b!, x = 2 sigma1 ln j.
      g rounds as above and log adds 2 ulps of L, so n L is off by at most
      n (3 |L| + 3) units; l_n by 5 l_n + 4; x by 3 x; the two
      subtractions by n |L| + l_n + x each: E is off by at most
      5 n (1 + |L|) + 7 l_n + 4 x + 4 units, and one more covers the
      second-order terms.  With P = (2k - 2)(1 + max |L|), max |L| taken
      at j = 2 and J (L is monotone in j), and l_n <= 2 log (k-1)!, an E of
      at least -746 has x <= P + 746, so E is off by at most
      eps = (5 P + 14 log (k-1)! + 4 min(2 sigma1 ln J, P + 746) + 5) u,
      and F_n(j) by a factor within expm1(eps) (1 + 2u) + 2u of 1.  Below
      -746, as x <= |E| + n |L|, the computed E is at most
      -|E| (1 - 4u) + (9 P + 14 log (k-1)! + 4) u < -745.5 while
      phi <= 1/5 (then eps <= log 1.2, so (9 P + 14 log (k-1)!) u < 0.33),
      and exp returns at most 2^-1074 (2^-1075 = e^-745.13), which e
      covers, as it covers a subnormal result; row 0 there is
      exp(-x) < 2^-1074 likewise.  With c2 = 0 rows n >= 1 are exactly 0.

    phi is the larger bound, computed as a sum of nonnegative terms and
    raised by 16 u for its own roundings.  A phi above 1/5, past what the
    callers' proofs assume, raises DomainError.
    """
    log_j = math.log(j_max)
    exponent = sym.sigma1 * log_j
    d = _gamma(3) * min(exponent, _UNDERFLOW_EXPONENT)
    shift = d * math.exp(d)
    head = shift + _gamma(2) * (1.0 + shift)
    phi = 2.0 * head + head * head + _gamma(12 * k - 11) * (1.0 + head) ** 2
    if sym.c2 != 0 and exponent > _ROW0_EXPONENT_MAX - 1.0:
        log_c = math.log(sym.c2_abs)  # log(|c2| ln j) without overflow
        log_base = max(abs(log_c + math.log(math.log(j))) for j in (2, j_max))
        powers = (2 * k - 2) * (1.0 + log_base)
        size = 5.0 * powers + 14.0 * math.lgamma(k) + 4.0 * min(2.0 * exponent, powers + 746.0)
        eps = (size + 5.0) * UNIT_ROUNDOFF
        phi = max(phi, math.expm1(eps) * (1.0 + 2.0 * UNIT_ROUNDOFF) + 2.0 * UNIT_ROUNDOFF)
    phi = math.nextafter(phi * (1.0 + 16.0 * UNIT_ROUNDOFF), math.inf)
    if not phi <= 0.2:
        raise DomainError(f"moment rounding bound {phi:.3e} of {k} rows and {j_max} columns exceeds 1/5")
    return phi


def _derivative_table() -> np.ndarray:
    """Row 2p (r-1) + j: the coefficients of s^0..s^(2p-1) in a_(2r-1, j)(s)
    (see _euler_maclaurin_moments).  Times y - s - m, the coefficients P of
    y^j s^l become P[j-1, l] - P[j, l-1] - m P[j, l]: integers below
    (m+1)! <= 16! < 2^53, so exact."""
    poly, odd, back = np.zeros((2 * _EM_TERMS + 1,) * 2), [], np.arange(-1, 2 * _EM_TERMS)
    poly[0, 0] = 1.0
    for m in range(2 * _EM_TERMS - 1):  # index -1 reads the zero row and column
        poly = poly[back] - poly[:, back] - m * poly
        odd += [poly[:-1, :-1]] * (m % 2 == 0)
    return np.concatenate(odd)


_EM_DERIVATIVES = _derivative_table()


def _falling_factorial_table(size: int) -> np.ndarray:
    """(n)_j for n < size and j < 2p (see _euler_maclaurin_moments)."""
    table = np.maximum(np.subtract.outer(np.arange(1.0, size + 1.0), _EM_POWERS), 0.0)
    table[:, 0] = 1.0
    return np.cumprod(table, axis=1, out=table)


def _euler_maclaurin_moments(
    sym: DirichletSymbol, k: int, n_cut: int, j_max: int, f: np.ndarray, phi: float
) -> tuple[np.ndarray, np.ndarray, float] | None:
    """(e, err, floor): e_n is sum_(N<j<=J) F_n(j), n = 0..2k-2, within
    err_n + floor, by Euler-Maclaurin summation with p = _EM_TERMS Bernoulli
    terms from the values f[n] = (F_n(N), F_n(J)) of _chain, each within
    phi (_chain_rounding); None where the evaluation leaves its model.

    With c = |c2|, s = 2 sigma1, a = s - 1 and r_n = n / ceil(n/2) (r_n F_n
    has the factorials of F_(n-1) over those of F_n, times n):

    * x F_n' = c r_n F_(n-1) - s F_n and c r_n F_(n-1) = (n / ln x) F_n, so
      the Euler-Maclaurin model above special_functions._EM_TERMS holds with
      c_n = c r_n, and with L_n = Lambda_n(N) / N the remainder of the sum
      over N <= j <= J is at most K L_n^2p I_n, I_n the integral, and each
      derivative term at most omega_n F_n(x), omega_n = sum_r |beta_r|
      L_n^(2r-1).  In the model's U form the derivative terms at x are
      F (FF W): FF[n, j] = (n)_j, kept (see _table), and W[j] = t^-j
      sum_r beta_r x^-(2r-1) a_(2r-1, j)(s), t = ln x, the a's the constant
      _EM_DERIVATIVES times the powers of s.  Taking F_n(N) out leaves the
      sum over N < j <= J, with (F_n(J) - F_n(N)) / 2.
    * I_n = G_n (Q_n(z_N) - Q_n(z_J)), G_n = C(n, a_n) (c/a)^n / a =
      G_(n-1) (c/a) r_n, z_x = a ln x and Q_n(z) = sum_(m<=n) p_m(z), the
      Poisson terms of special_functions._poisson_terms (integral F_n is
      (c/a)^n / a times that of t^n e^-t / n! over [z_N, z_J]).  The
      difference is taken as the lower sums over m <= n or as the upper
      ones over n < m <= M,
      M = 2k - 2 + 2 ceil(z_J) + 64, whichever bound below is smaller; the
      upper form misses sum_(m>M) p_m <= p_M, since z / (M + 1) <= 1/2.

    Rounding, in units of u = 2^-53 with Higham's gamma_n (see _gamma), log
    and pow within 2.  The sums for a (2p terms of one sign), W and FF W are
    within gamma of those with |a| for a, which the model bounds by
    Lambda_n(x)^(2r-1), so their roundings count against omega_n F_n(x):
    s^l 2, a 2p, beta_r x^-(2r-1) 4, W's sum p, t^-j 4p (t within 2), FF
    2p - 2, FF W 2p, the products by t^-j and F and the difference of the
    ends 3, and 1 for subnormal results (for J < 2^53 every term of W's sum
    is at least 2^-916): 11p + 8 <= 12p.  a = s - 1 is exact (1 < s < 2^53),
    G_n takes 5n + 2.  p_0..p_M are evaluated as _poisson_terms(z_x) takes
    them (lgamma as log_factorials has it), each within eps'_x p_m of p_m
    at the float z_x, eps'_x = _poisson_rounding(z_x, M), plus 2^-1074
    below 2^-1022; z_x is within gamma_3 of a ln x, which moves p_m by a
    factor within e^(gamma_3 z_x) (1 + gamma_3)^m <= 1 + gamma_B,
    B = 3 z_x + 3m + 1.  A sum of M + 1 terms takes M, a difference and the
    product by G 2, and the four additions that assemble e 4: eps_x =
    gamma_A + (1 + gamma_A) eps'_x, A = 5(2k-2) + 3 z_x + 4M + 9.  With
    T_n = (1/2 + omega_n)(F_n(N) + F_n(J)),

        err_n = K L_n^2p (I'_n + ierr_n) + ierr_n + eps_f T_n,

    ierr_n = G_n (eps_N size_N + eps_J size_J), size_x the sum of the form
    taken at z_x, plus 2 (1 + eps_x) G_n p_M(z_x) for the upper form, and
    eps_f = phi + gamma_12p (1 + phi).  Each relative bound is below 2^-24
    (or the result is None), and err is raised by 2^-20 of itself for the
    second-order terms.  floor, in units of 2^-1074: each F carries k (see
    _chain_rounding), which the half difference keeps and FF W, at most
    2 omega, scales: 2k (1 + 2 omega); a Poisson term below 2^-1022
    carries 1, so each of the four sums carries M + 1, and the upper form's
    p_M 1 more, times max G (None where a G_n is subnormal); the products
    and additions 10.
    """
    s, c = 2.0 * sym.sigma1, sym.c2_abs
    a = s - 1.0
    top = f.shape[0] - 1
    n = np.arange(top + 1.0)
    r = n / np.maximum(np.ceil(0.5 * n), 1.0)
    x = np.array([float(n_cut), float(j_max)])
    log_x = np.log(x)

    poly = (_EM_DERIVATIVES @ s**_EM_POWERS).reshape(_EM_TERMS, -1)  # a_(2r-1, j)(s)
    w = (poly.T @ (_EM_BETA_COLUMN / x**_EM_ORDERS)) * log_x ** -_EM_POWERS[:, None]
    corr = f * (_table(_falling_factorial_table, max(top + 1, 2 * _EM_TERMS))[: top + 1] @ w)

    g = np.cumprod(np.concatenate([[1.0 / a], (c / a) * r[1:]]))
    z = a * log_x
    top_m = top + 2 * math.ceil(z[1]) + 64
    m = np.arange(top_m + 1.0)
    p = np.cumprod(np.hstack([np.exp(-z)[:, None], z[:, None] / m[1:]]), axis=1)
    if z[1] > _POISSON_RECURRENCE_MAX:  # p_m(z_J) from its log, as _poisson_terms takes it
        p[1] = np.exp(m * math.log(z[1]) - z[1] - log_factorials(top_m))
    eps_p = np.array([_gamma(5 * top + math.ceil(3.0 * zx) + 4 * top_m + 9) for zx in z.tolist()])
    eps_p += (1.0 + eps_p) * [_poisson_rounding(zx, top_m) for zx in z.tolist()]
    low = np.cumsum(p, axis=1)[:, : top + 1]
    high = np.cumsum(p[:, ::-1], axis=1)[:, ::-1][:, 1 : top + 2]
    err_low = eps_p @ low
    err_high = eps_p @ high + 2.0 * (1.0 + eps_p) @ p[:, -1]
    integral = g * np.where(err_high < err_low, high[1] - high[0], low[0] - low[1])
    integral_err = g * np.minimum(err_low, err_high)

    eps_f = phi + _gamma(12 * _EM_TERMS) * (1.0 + phi)
    ratio = (n / log_x[0] * (1.0 + 4.0 * UNIT_ROUNDOFF) + s + _EM_TERMS - 0.5) / n_cut
    omega = sum(abs(beta) * float(ratio[-1]) ** (2 * j + 1) for j, beta in enumerate(_EM_BETA))
    remainder = _EM_REMAINDER * ratio ** (2 * _EM_TERMS) * (integral + integral_err)
    err = remainder + integral_err + eps_f * (0.5 + omega) * (f[:, 0] + f[:, 1])
    err *= 1.0 + 2.0**-20
    e = integral + 0.5 * (f[:, 1] - f[:, 0]) + (corr[:, 1] - corr[:, 0])

    floor = 2.0 * k * (1.0 + 2.0 * omega) + 4.0 * (top_m + 2) * max(1.0, float(np.max(g))) + 10.0
    floor *= 2.0**-1074 * (1.0 + 2.0**-20)
    finite = np.isfinite(e + err).all() and j_max < 2**53
    if not (max(*eps_p, eps_f) <= 2.0**-24 and np.min(g) >= _TINY and finite):
        return None
    return e, err, floor


def _gram(d: np.ndarray) -> np.ndarray:
    """The k x k Gram matrix G = B_k B_k^T of the first k rows of B, from
    their balanced moments d (see _gram_moments):

        G[i][l] = |c2|^(i+l) h_(i+l) / (i! l!) = F[i][l] d_(i+l),
        F[i][l] = a! b! / (i! l!),  a = (i+l) // 2, b = i + l - a,

    a Hankel matrix, a read-only strided view of d, scaled by F <= 1
    (a, b is the most balanced split of i + l), which depends on k alone
    and is kept (see _table).
    """
    k = (d.shape[0] + 1) // 2
    return as_strided(d, (k, k), d.strides * 2, writeable=False) * _table(_gram_factor_table, k)


def _gram_factor_table(k: int) -> np.ndarray:
    """F[i][l] = a! b! / (i! l!) for i, l < k (see _gram).  Along row i,
    F[i][i] = 1 and F[i][l+1] = F[i][l] ceil((i+l+1)/2) / (l+1), so above
    the diagonal F is a running product of quotients of integers, and it is
    symmetric.  Each entry depends on i and l alone, so F of k rows is the
    leading block of F of any more."""
    i = np.arange(k)
    ratio = np.ones((k, k))
    np.divide((i[:, None] + i + 1) // 2, i, out=ratio, where=i > i[:, None])
    f = np.triu(np.cumprod(ratio, axis=1))
    f += np.triu(f, 1).T
    return f


def _gram_rounding(phi: float, k: int, n_cut: int, j_max: int) -> tuple[float, float]:
    """(delta_0, eps_0): each balanced moment summed directly over the
    columns j <= N (see _chain_moments), times the factor F[i][l] of
    _gram, is its exact value (1 + theta) + e with |theta| <= delta_0 and
    |e| <= eps_0, and delta_0 leaves one rounding for _gram_moments'
    addition of the columns past N.

    * Every F_n(j), j <= J, that _chain computes is F_n(j) (1 + theta) + e
      with |theta| <= phi = _chain_rounding(sym, k, J), which counts the
      product T m, and |e| <= k 2^-1074.
    * d_n adds N such values, N - 1 additions, within gamma_(N-1) of its
      value in any order and grouping (Higham 2002, ch. 3), chunks
      included; sums of subnormals are exact.
    * F: each integer quotient and each factor of the running product
      rounds once, at most 2k - 3 roundings; past k of about 1000 its
      entries underflow (F[0][l] >= 2^-l), which costs at most
      k 2^-1075 d_n <= k J 2^-1075, since F_n <= 1.  The product F d rounds
      once more, and the addition of the columns past N once.

    (1 + gamma_a)(1 + gamma_b) <= 1 + gamma_(a+b), so
    1 + theta <= (1 + phi)(1 + gamma_(N+2k-2)), and
    delta_0 = phi + gamma_(N+2k-2) (1 + phi), computed as a sum of
    nonnegative terms and raised by 16 u for its own roundings.  The
    absolute parts add up to at most k N (1 + gamma_N) + k J / 2 units of
    2^-1074, and eps_0 = (2 k N + k J) 2^-1074 covers them times 1 + u.
    """
    delta = phi + _gamma(n_cut + 2 * k - 2) * (1.0 + phi)
    delta = math.nextafter(delta * (1.0 + 16.0 * UNIT_ROUNDOFF), math.inf)
    return delta, (2.0 * k * n_cut + k * j_max) * 2.0**-1074


def _start_vector(gram: np.ndarray) -> np.ndarray:
    """y = G^(2^q - 1) 1 / max: y = P x from x = 1 and P = G / max G, P
    squared between, until y moves by at most _START_SETTLED of each
    component.  It converges like (lambda_2 / lambda_1)^(2^q), and
    powers of G >= 0 are accurate entry by entry (Higham 2002, ch. 3)."""
    p, x = gram / np.max(gram), np.ones(gram.shape[0])
    for _ in range(_SQUARINGS):
        y = p @ x
        y /= np.max(y)
        if np.all(np.abs(y - x) <= _START_SETTLED * y):
            break
        p, x = p @ (p / np.max(p)), y  # max P never falls, and grows k-fold at most
    return y


def operator_norm_estimate(m: TruncatedMatrix, tol: float = 1e-12) -> NormEstimate:
    """Certified bracket [lower, upper] on the operator norm from the truncation.

    The norm bracketed is that of the symbol's (I+1) x J truncation
    B = |A|, which has the singular values of A: only ``m.symbol``,
    ``m.i_max`` and ``m.j_max`` are read, and no block is made.
    Rows k..I of B have Frobenius norm at most ``dropped`` <= u ||B|| (see
    _significant_rows).  ||B_k||^2, B_k the first k rows, is the Perron
    root of the k x k Gram matrix G = B_k B_k^T >= 0, assembled from 2k - 1
    moments (see _gram_moments and _gram): the first N columns summed from
    one cumulative product over a (2k - 1) x (N + 1) table, the rest by
    Euler-Maclaurin with p = _EM_TERMS Bernoulli terms, O(k N + k p) work
    whatever J is, N a power of two from 64 (or N = J, summed at most
    2^17 table entries at a time).  The tables that depend on k alone are
    kept between calls, read-only, in at most 8 MiB (see _table).  The
    start vector is taken by squaring G (see _start_vector); any x > 0
    would do.  Each step computes y = G x, k^2 products, and brackets the
    Perron root:

    * lower^2 = x . y / x . x, a Rayleigh quotient of the symmetric G;
    * upper^2 = max_i y_i / x_i, the Collatz-Wielandt bound (Horn &
      Johnson, Matrix Analysis, 2nd ed., ch. 8), valid for every x > 0
      because G >= 0;

    then x = y / max y, floored at _X_FLOOR.  B_k is a compression of B,
    so lower bounds ||B|| too, and ||B|| <= ||B_k|| + dropped, so the upper
    end adds dropped; where no row is cut, it adds nothing.

    The loop stops when upper^2 - lower^2 <= tol lower^2, so ``converged``
    means the bracket is that tight and ``iterations`` counts the steps on
    G.  In exact arithmetic the Collatz-Wielandt bound never increases from
    step to step, so a gap that fails to shrink means rounding has taken
    over: the loop stops there too, with ``converged`` false, instead of
    running to _MAX_ITER steps.  Both ends carry derived rounding terms, for
    the Gram matrix (the moments' delta and eps: the recurrence's error,
    the N-term sums and the Euler-Maclaurin remainder and rounding, see
    _gram_moments, _chain_rounding and _gram_rounding) and for the steps, and
    outward-rounded square roots: whether or not the loop converged,
    [lower, upper - tail_bound] holds the norm of the exact truncation and
    [lower, upper] that of the full operator (upper is infinite for
    boundary symbols).  A G of more entries than the cap that build_matrix
    applies (see _max_entries) raises MatrixSizeError.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise DomainError(f"tolerance must be positive and finite, got {tol}")

    sym = m.symbol
    k, dropped = _significant_rows(sym, m.i_max, m.j_max)
    cap = _max_entries()
    if k * k > cap:
        raise MatrixSizeError(
            f"the norm's Gram matrix of {k} rows would hold {k * k} entries, cap is "
            f"{cap} entries; set {MAX_ENTRIES_ENV} to raise it"
        )
    d, delta, eps = _gram_moments(sym, k, m.j_max)
    gram = _gram(d)
    x = _start_vector(gram)
    converged = False
    last_gap = math.inf
    for iterations in range(1, _MAX_ITER + 1):
        np.maximum(x, _X_FLOOR, out=x)  # x > 0, and no y_i / x_i overflows
        y = gram @ x
        xy, xx = float(x @ y), float(x @ x)
        lower_sq = xy / xx
        upper_sq = float(np.max(y / x))
        gap = upper_sq - lower_sq
        if gap <= tol * lower_sq:
            converged = True
            break
        if gap >= last_gap:  # in exact arithmetic the gap never grows
            break
        last_gap = gap
        x = y / np.max(y)

    # Rounding (Higham 2002, ch. 3).  The computed G is G (1 + theta) + e
    # entrywise with |theta| <= delta and |e| <= eps (see _gram_moments),
    # so the exact G lies between max(G' - eps, 0) / (1 + delta) and
    # (G' + eps) / (1 - delta), G' the computed one: nonnegative matrices
    # whose Perron roots bracket ||B_k||^2, the root being monotone in the
    # entries.  max x = 1 makes x . x >= 1 and sum x <= k, and x >= _X_FLOOR.
    # lower: x^T max(G' - eps, 0) x >= x . G'x - eps k^2.  Each computed y_i
    # is a sum of k nonnegative products, within gamma_k of its value plus
    # k 2^-1075 from products that underflow; x . y adds k more of each, so
    # the computed x . y is within gamma_2k of x . G'x plus (k^2 + k) 2^-1075,
    # and x . x within gamma_k plus k 2^-1075, below u of it; the two
    # subtractions, the quotient, the product and 1 - (gamma + delta), two
    # roundings, round once each.  ||B|| >= B[0][0] = 1 bounds it too.
    # upper: the Collatz-Wielandt bound of G' + eps 11^T at x exceeds that of
    # G' by at most eps k / _X_FLOOR.  The computed max y_i / x_i is within
    # gamma_(k+1) of its value plus k 2^-1075 / _X_FLOOR; 1 + gamma, the
    # product, the sum, 1 - delta and the quotient round once each.
    tiny = 2.0**-1074
    lower_sq = (xy - (k * k + k) * tiny - eps * k * k) / xx
    lower_sq = max(lower_sq * (1.0 - (_gamma(3 * k + 8) + delta)), 1.0)
    upper_sq *= 1.0 + _gamma(k + 6)
    upper_sq = (upper_sq + (k * tiny + eps * k) / _X_FLOOR) / (1.0 - delta)
    upper = math.nextafter(math.sqrt(upper_sq), math.inf)
    if dropped:  # ||B|| <= ||B_k|| + ||rows k..I||_F
        upper = math.nextafter(upper + dropped, math.inf)
    return NormEstimate(
        lower=math.nextafter(math.sqrt(lower_sq), 0.0),
        upper=math.nextafter(upper + m.tail_bound, math.inf),
        iterations=iterations,
        converged=converged,
    )


class SingularSpectrum(NamedTuple):
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


class SchurCertificate(NamedTuple):
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
