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
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np

from .bounds import approx_number_bound, c2_abs_upper, schur_exponent
from .bounds import schur_polynomial_nonpositive
from .errors import DomainError, MatrixSizeError, NonCompactError
from .special_functions import DEFAULT_BUDGET, UNIT_ROUNDOFF, PrecisionBudget
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
# build_matrix uses the row recurrence on the columns with sigma1 ln j at
# most this: row 0 there is at least e^-700, far inside the normal range
# (2^-1022 = e^-708.4)
_ROW0_EXPONENT_MAX = 700.0
_TINY = 2.0**-1022  # the least normal float
# past this exponent x an exact entry e^-x lies below 2^-1076, and exp at a
# computed exponent below -745.2 returns 0 or 2^-1074 (2^-1075 = e^-745.13)
_UNDERFLOW_EXPONENT = 746.0


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
                for _ in _rows(self.symbol, self.row_count, block):
                    pass
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


def _rows(sym: DirichletSymbol, count: int, out: np.ndarray) -> Iterator[np.ndarray]:
    """Compute rows 0..count-1 of B in order and yield each, row i written
    to out[i % len(out)]: an (I+1) x J buffer receives the whole block, a
    2 x J one streams it.

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
    _entry_rounding bounds the error of every entry.  Column j = 1 is
    (1, 0, 0, ...).
    """
    lj = np.log(np.arange(2, out.shape[1] + 1, dtype=np.float64))
    near = int(np.searchsorted(lj, _ROW0_EXPONENT_MAX / sym.sigma1, side="right"))
    g = sym.c2_abs * lj[:near]
    with np.errstate(divide="ignore", over="ignore"):  # log(0) = -inf when c2 = 0
        log_g = np.log(sym.c2_abs * lj[near:])
        sigma_lj = sym.sigma1 * lj  # inf past 1.8e308: the entry is 0
    log_g[log_g == math.inf] = -math.inf
    sigma_far = sigma_lj[near:]
    log_fact = log_factorials(max(count - 1, 0))
    depth = out.shape[0]
    for i in range(count):
        row, body = out[i % depth], out[i % depth, 1:]
        if i == 0:
            row[0] = 1.0
            np.negative(sigma_lj, out=body)
            np.exp(body, out=body)
        else:  # with J = 1 every slice below is empty
            row[0] = 0.0
            prev = out[(i - 1) % depth, 1 : near + 1]
            np.multiply(prev, g, out=body[:near])
            body[:near] *= 1.0 / i
            if log_g.size:  # columns past the normal range, often none
                far = body[near:]
                np.multiply(log_g, float(i), out=far)
                far -= log_fact[i]
                far -= sigma_far
                np.exp(far, out=far)
        yield row


def tail_bounds(sym: DirichletSymbol, i_max: int, j_max: int) -> float:
    """Certified operator-norm bound on the discarded rows and columns.

    The root of a Hilbert-Schmidt sum, with c = |c2| from c2_abs_upper and
    s = 2 sigma1 taken as min(s, 2^1000) in all but r and c/s: every piece
    grows with c and falls as s grows.

    * Row 0 past column J: its Euler-Maclaurin tail at n = J + 1 with the
      remainder bound (special_functions._euler_maclaurin_tail), at s up to
      2^11, past which every term lies below 2^-2047.
    * Rows 1 <= i < k_t past column J: c^2i / (i!)^2 sum_(j>J) (ln j)^2i j^-s
      is at most the integral from J, T_i = b_i Q_2i(z) with
      b_i = C(2i, i) r^2i / (s-1) <= rho^2i / (s-1), r = c / (2 sigma1 - 1),
      rho = 2r, z = (s-1) ln J and Q_n(z) = e^-z sum_(m<=n) z^m / m! (the
      regularized upper incomplete gamma function), plus, while
      ln J < 2i/s, the summand's largest value right of column J,
      P_i = c^2i t^2i e^-st / (i!)^2 at t = max(2i/s, ln(J+1)): a unimodal
      f has sum_(j>J) f(j) <= integral_J^inf f + max_(x>=J+1) f(x).
    * Rows i >= k_t: approx_number_bound(sym).bound_at(k_t) squared, at
      least (s/(s-1)) rho^2k_t / (1 - rho^2), +inf for boundary symbols.

    One pass adds the rows to a running sum S with O(1) work a row:
    b_i = b_(i-1) 2 (2i-1) r^2 / i, and Q_2i adds the Poisson terms
    p_m = e^-z z^m / m!, m = 2i-1, 2i, each the exp of its log, so that no
    row needs e^-z in the normal range.  k_t is the first row whose row
    piece is at most max(u S, 2^-1074), or I + 1; any k_t gives a bound.

    Rounded outward in units of u = 2^-53, with gamma_n as in _gamma, exp,
    log and pow within 2u, lgamma(m+1) within 4 log m! + 2 (see
    special_functions._log_tail_rounding), and the root rounded up:

    * z is rounded down, as Q_n falls when z grows: the factor 1 - 6u
      undoes the four units of s - 1, ln J and their product.
    * p_m's exponent, m >= 1, is off by at most
      E_m = 5m |ln z| + 2z + 5 log m! + 3.  Where p_m >= e^-746, either
      z < 1 and m |ln z| + z + log m! <= 746, or m ln z <= z + log m! and
      z <= 2m + 1490, so E_m <= 14m + 10 log m! + 10433 too; a smaller
      term comes out below 2^-1022 and costs only the floor.
    * P_i = exp(2i (L + log w - w) - 2 log i!), L = ln(2i c / s) and
      w = s t / (2i) = max(1, s ln(J+1) / (2i)), which takes the clamped s
      (that lowers w and raises log w - w).  At w = 1, the peak itself,
      the exponent is off by at most 2i (5 |L| + 5) + 10 log i! + 6,
      largest at i = 1 or k_t - 1.  Past it, w is within 4u, which moves
      log w - w by at most 4u (w - 1), and log w, the two new sums and
      the larger terms rounded later add at most 2 |L| + 7 log w + 4w - 3
      more per unit of 2i, at most 2 |L| + 15 (w - 1) + 1: L + log w - w
      is raised by (2 |L| + 16 w) u, so the bound at w = 1 holds for every
      row.  Below c / s = 2^-1022 every P_i is below 2^-1074 and none is
      added.
    * With k = k_t and E the largest exponent bound used, b_i (8i + 2
      roundings), Q_2i (a sum of 2i + 1 terms) and their product put each
      T_i, and each P_i, within (1 + gamma_10k) e^(E u).  Row 0 takes its
      own rounding bound, (8 + (s+3) ln n) u of its remainder (five
      roundings of the coefficient, its exponent's, pow and the product)
      and gamma_5, and S gamma_2k: eps = gamma_12k + (1 + gamma_12k)
      expm1(E u), raised by 16u for its own roundings.  1 + 8u covers the
      square of the row piece, the product by 1 + eps, the sum and the
      floor's addition.
    * The floor, in units of 2^-1074: a result below 2^-1022 is off by at
      most one unit past its relative bound, times what multiplies it
      later.  The pass tracks how far b and Q may fall short: a step below
      2^-1020 (r or r^2 may be subnormal) adds 3 b_(i-1), a b_i below 2^-1022
      adds 1, both carried by later steps, and each Poisson term below
      2^-1022 adds 1 to Q's.  Row i costs 2 (b_i Q's + b's Q_2i), the 2
      covering e^(E u) and the gammas, plus 1 for T_i and 2 for P_i below
      2^-1022.  Row 0's pieces and the square cost 5, and K = (s+2)^3 / 500
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

    i, row_sq, drift = 1, 0.0, 0.0  # with c2 = 0 rows i >= 1 of B vanish
    if c > 0.0:
        try:
            law = approx_number_bound(sym)
        except NonCompactError:  # boundary symbols: the rows do not decay
            return math.inf
        s1, log_j = s - 1.0, math.log(j_max)
        v, r_sq = 0.5 * (c / sym.sigma1), (0.5 * (c / (sym.sigma1 - 0.5))) ** 2  # sigma1, unclamped
        z = s1 * log_j * (1.0 - 6.0 * UNIT_ROUNDOFF)
        log_z = math.log(z) if z > 0.0 else -math.inf  # J = 1: Q_n(0) = 1
        peak_row = math.inf if v < _TINY else 0.5 * s * log_j * (1.0 - 8.0 * UNIT_ROUNDOFF)
        b, q = 1.0 / s1, math.exp(-z)
        b_low, q_low = 0.0, float(q < _TINY)  # shortfalls in units of 2^-1074
        while True:
            row = law.bound_at(i)  # rows i.. are charged by this piece if the pass ends
            row_sq = row * row
            if i > i_max or row_sq <= max(UNIT_ROUNDOFF * col, 2.0**-1074):
                break
            step = 2.0 * (2 * i - 1) / i * r_sq
            b_low = b_low * step + 3.0 * b * (step < 4.0 * _TINY)  # r_sq may be subnormal
            b *= step
            b_low += b < _TINY
            for m in (2 * i - 1, 2 * i):
                p = math.exp(m * log_z - z - math.lgamma(m + 1.0))
                q += p
                q_low += p < _TINY
            t = b * q
            col += t
            floor += 2.0 * (b * q_low + b_low * q) + (t < _TINY)
            if i > peak_row:  # the summand's largest value from column J + 1 on
                big_l, w = math.log(2 * i * v), max(s * log_n / (2 * i), 1.0)
                lead = big_l + math.log(w) - w
                if w > 1.0:  # column J + 1 lies right of the peak
                    lead += (2.0 * abs(big_l) + 16.0 * w) * UNIT_ROUNDOFF
                p = math.exp(2 * i * lead - 2.0 * math.lgamma(i + 1.0))
                col += p
                floor += 2.0 * (p < _TINY)
            i += 1
        top = i - 1
        if z > 0.0 and top:
            n, lgam = 2 * top, math.lgamma(2 * top + 1.0)
            drift = min(5.0 * n * abs(log_z) + 2.0 * z, 14.0 * n + 5.0 * lgam + 10430.0)
            drift += 5.0 * lgam + 3.0
        if peak_row < top:
            size = 5.0 * max(abs(math.log(2.0 * v)), abs(math.log(2.0 * top * v))) + 5.0
            drift = max(drift, 2.0 * top * size + 10.0 * math.lgamma(top + 1.0) + 6.0)

    gamma = _gamma(12 * i)
    eps = (gamma + (1.0 + gamma) * math.expm1(drift * UNIT_ROUNDOFF)) * (1 + 16 * UNIT_ROUNDOFF)
    total = (row_sq + col * (1.0 + eps)) * (1.0 + 8.0 * UNIT_ROUNDOFF)
    return math.nextafter(math.sqrt(total + floor * 2.0**-1074), math.inf)


class NormEstimate(NamedTuple):
    lower: float
    upper: float
    iterations: int
    converged: bool


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u) (Accuracy and Stability of Numerical
    Algorithms, 2002, ch. 3): a sum of n nonnegative products, added in any
    order, is off by at most gamma_n of its value.  The bound holds only
    while n u < 1; past that it is +inf."""
    nu = n * UNIT_ROUNDOFF
    return nu / (1.0 - nu) if nu < 1.0 else math.inf


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
      keeps this test on the safe side): rows i >= 1 come from the
      exponent i log(|c2| ln j) - log i! - sigma1 ln j, a few elementary
      steps on pieces of size at most M, each accurate to 2 ulps of its
      result, and exp adds one more: 4 u (M + 2), to first order.  With
      S = I (1 + max_j |log(|c2| ln j)|) + log I!, the first two pieces
      are at most S, so an entry whose exponent is at least -746 has
      sigma1 ln j <= S + 746, and M = S + min(sigma1 ln J, S + 746).  Below
      -746 the computed exponent is off by at most 4 u (|exponent| + 2S + 2),
      so it stays below -745.5 while eta <= 1/5 (then 4 u S <= 1/5), and e
      covers the entry as in row 0.  A subnormal result adds 2^-1074.
      With c2 = 0 these rows are exactly 0.

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
        pieces = i_max * (1.0 + log_base) + math.lgamma(i_max + 1.0)
        size = pieces + min(exponent, pieces + _UNDERFLOW_EXPONENT)
        eta = max(eta, 4.0 * (size + 2.0) * UNIT_ROUNDOFF)
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
    log_row += 9.0 * UNIT_ROUNDOFF * size + 2.0 * UNIT_ROUNDOFF * (i + sigma_t)  # no overflow
    with np.errstate(over="ignore"):  # -inf past -8.9e307: the row is 0
        suffix = np.cumsum(np.exp(2.0 * log_row)[::-1])[::-1]  # rows i..I, i >= 1
    suffix = suffix * (1.0 + 2.0 * _gamma(i_max + 4)) + i_max * 2.0**-1074
    k = 1 + int(np.searchsorted(-suffix, -(UNIT_ROUNDOFF**2)))
    if k > i_max:
        return i_max + 1, 0.0
    return k, math.nextafter(math.sqrt(float(suffix[k - 1])), math.inf)


def _gram_moments(sym: DirichletSymbol, k: int, j_max: int) -> np.ndarray:
    """The 2k - 1 balanced moments d_n = B[a] . B[b], n = 0..2k-2, a = n // 2, b = n - a.

    Row i of B is w_j g_j^i / i!, w_j = j^-sigma1 and g_j = |c2| ln j, so
    d_n = sum_(j<=J) w_j^2 g_j^n / (a! b!) = |c2|^n h_n / (a! b!), with
    h_n = sum_(j<=J) (ln j)^n j^(-2 sigma1).  The rows come from _rows
    through a 2 x J buffer: d_(2i-1) and d_(2i) are taken while row i is in
    cache, so the moments cost k row recurrences and 2k - 1 dot products
    over J columns, and no block is held.
    """
    d = np.empty(2 * k - 1)
    prev = None
    for i, row in enumerate(_rows(sym, k, np.empty((2, j_max)))):
        if i:
            d[2 * i - 1] = prev @ row
        d[2 * i] = row @ row
        prev = row
    return d


def _gram(d: np.ndarray) -> np.ndarray:
    """The k x k Gram matrix G = B_k B_k^T of the first k rows of B, from
    their balanced moments d (see _gram_moments):

        G[i][l] = |c2|^(i+l) h_(i+l) / (i! l!) = F[i][l] d_(i+l),
        F[i][l] = a! b! / (i! l!),  a = (i+l) // 2, b = i + l - a,

    a Hankel matrix scaled by F <= 1 (a, b is the most balanced split of
    i + l).  Along row i, F[i][i] = 1 and
    F[i][l+1] = F[i][l] ceil((i+l+1)/2) / (l+1), so above the diagonal F
    is a running product of quotients of integers, and it is symmetric.
    """
    k = (d.shape[0] + 1) // 2
    i = np.arange(k)
    ratio = np.ones((k, k))
    np.divide((i[:, None] + i + 1) // 2, i, out=ratio, where=i > i[:, None])
    f = np.triu(np.cumprod(ratio, axis=1))
    f += np.triu(f, 1).T
    return d[np.add.outer(i, i)] * f


def _gram_rounding(sym: DirichletSymbol, k: int, j_max: int) -> tuple[float, float]:
    """(delta, eps): each entry of the computed Gram matrix (see _gram) is
    G[i][l] (1 + theta) + e with |theta| <= delta and |e| <= eps.

    * The rows 0..k-1 from _rows are B_k (1 + theta) + e with
      |theta| <= eta = _entry_rounding(sym, k - 1, J) and
      |e| <= max(k - 1, 1) 2^-1074: no row below them enters their
      recurrence.  A product of two entries is off by (1 + eta)^2 and its
      own rounding, and, with B <= 1 and eta <= 1/5, by at most
      (3k + 1) 2^-1074 more.
    * d_n adds J nonnegative products, within gamma_J of its value in any
      order (Higham 2002, ch. 3), plus 2^-1075 per product that underflows.
    * F: each integer quotient and each factor of the running product
      rounds once, at most 2k - 3 roundings; past k of about 1000 its
      entries underflow (F[0][l] >= 2^-l), which costs at most
      k 2^-1075 d_n <= 1.5 k J 2^-1074, since d_n <= 1.44 J.  The product
      F d rounds once more.

    (1 + gamma_a)(1 + gamma_b) <= 1 + gamma_(a+b), so
    1 + theta <= (1 + eta)^2 (1 + gamma_(J+2k)), and
    delta = 2 eta + eta^2 + gamma_(J+2k) (1 + eta)^2, computed as a sum of
    nonnegative terms and raised by 16 u for its own roundings.  The
    absolute parts add up to at most (4.5 k + 2) J + 1 <= 8 k J units of
    2^-1074.  A delta above 1/2, past what operator_norm_estimate's proof
    assumes, raises DomainError.
    """
    eta = _entry_rounding(sym, k - 1, j_max)
    sums = _gamma(j_max + 2 * k)
    delta = 2.0 * eta + eta * eta + sums * (1.0 + eta) ** 2
    delta = math.nextafter(delta * (1.0 + 16.0 * UNIT_ROUNDOFF), math.inf)
    if not delta <= 0.5:
        raise DomainError(f"Gram rounding bound {delta:.3e} of {k} rows exceeds 1/2")
    return delta, 8.0 * k * j_max * 2.0**-1074


def operator_norm_estimate(
    m: TruncatedMatrix, tol: float = 1e-12, max_iter: int = 1000
) -> NormEstimate:
    """Certified bracket [lower, upper] on the operator norm from the truncation.

    The norm bracketed is that of the symbol's (I+1) x J truncation
    B = |A|, which has the singular values of A: only ``m.symbol``,
    ``m.i_max`` and ``m.j_max`` are read, and no block is made.
    Rows k..I of B have Frobenius norm at most ``dropped`` <= u ||B|| (see
    _significant_rows).  ||B_k||^2, B_k the first k rows, is the Perron
    root of the k x k Gram matrix G = B_k B_k^T >= 0, assembled from 2k - 1
    moments streamed over the J columns (see _gram_moments and _gram).
    The start vector is |v|, v the top eigenvector of the computed G from
    LAPACK's eigh.  Each step computes y = G x, k^2 products, and brackets
    the Perron root:

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
    running to ``max_iter``.  Both ends carry derived rounding terms, for
    the Gram matrix (see _gram_rounding) and for the steps, and
    outward-rounded square roots: whether or not the loop converged,
    [lower, upper - tail_bound] holds the norm of the exact truncation and
    [lower, upper] that of the full operator (upper is infinite for
    boundary symbols).  A G of more entries than the cap that build_matrix
    applies (see _max_entries) raises MatrixSizeError.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    if not isinstance(max_iter, int) or isinstance(max_iter, bool) or max_iter < 1:
        raise DomainError(f"max_iter must be an integer >= 1, got {max_iter!r}")

    sym = m.symbol
    k, dropped = _significant_rows(sym, m.i_max, m.j_max)
    cap = _max_entries()
    if k * k > cap:
        raise MatrixSizeError(
            f"the norm's Gram matrix of {k} rows would hold {k * k} entries, cap is "
            f"{cap} entries; set {MAX_ENTRIES_ENV} to raise it"
        )
    gram = _gram(_gram_moments(sym, k, m.j_max))
    x = np.abs(np.linalg.eigh(gram)[1][:, -1])
    x /= np.max(x)
    converged = False
    last_gap = math.inf
    for iterations in range(1, max_iter + 1):
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
    # entrywise with |theta| <= delta and |e| <= eps (see _gram_rounding),
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
    delta, eps = _gram_rounding(sym, k, m.j_max)
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
