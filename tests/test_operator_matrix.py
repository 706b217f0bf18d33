"""Tests for the truncated-matrix module.

Independent oracles keep the implementation honest: a brute-force series
summation for column norms, an 80-digit mpmath eigendecomposition of the
Gram matrix for singular spectra (the module itself calls LAPACK), 40-digit
zeta derivatives for the Schur rows, and a dense log-space reference that
the closed-form Schur bound must dominate.
"""

import cmath
import math
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from dirichletops import operator_matrix
from dirichletops.bounds import c2_abs_upper, norm_bounds, schur_radius
from dirichletops.errors import DomainError, MatrixSizeError
from dirichletops.operator_matrix import (
    MAX_ENTRIES_ENV,
    build_matrix,
    log_factorials,
    operator_norm_estimate,
    read_matrix,
    schur_certificate,
    singular_values,
    tail_bounds,
    write_matrix,
)
from dirichletops.special_functions import UNIT_ROUNDOFF, _gamma, zeta
from dirichletops.symbol import DirichletSymbol, SymbolClass, classify
from mp_tails import mp_moment_tails, mp_tail_sq


def mp_singular_values(a, dps=80):
    """Singular values of a float matrix, largest first, from the eigenvalues
    of its smaller Gram matrix computed in dps-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    with mp.workdps(dps):
        m = mp.matrix([[mp.mpc(complex(z)) for z in row] for row in a])
        gram = m * m.H if a.shape[0] <= a.shape[1] else m.H * m
        eigenvalues = mp.eighe(gram, eigvals_only=True)
        return np.array(sorted((float(mp.sqrt(max(e, 0))) for e in eigenvalues), reverse=True))


def column_norm_sq_oracle(sym, j):
    """Brute-force sum of |a[i][j]|^2 over all i, by term recursion."""
    if j == 1:
        return 1.0
    x_sq = (sym.c2_abs * math.log(j)) ** 2
    total, term, i = 0.0, 1.0, 0
    while term > 1e-30 * max(total, 1.0):
        total += term
        i += 1
        term *= x_sq / (i * i)
    return j ** (-2.0 * sym.sigma1) * total


def log_row_tails(sym, s, i_max, j_max):
    """log of |c2|^i / i! times the closed-form column tail of order i past
    J (mp_moment_tails at 30 digits), for the rows i = 1..I."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        tails = mp_moment_tails(s, i_max, j_max)[1:]
        return np.array(
            [
                i * math.log(sym.c2_abs) - math.lgamma(i + 1.0) + float(mpmath.log(tail))
                for i, tail in enumerate(tails, start=1)
            ]
        )


def dense_schur_ratio(sym, r, i_max, j_max):
    """Largest ratio over rows 1..I of a Schur row's left side (its sum over
    j <= J plus the closed-form column tail) to beta_low r^i, from the whole
    I x (J-1) log-space block at once, each row shifted by its largest term
    as np.max finds it, then one exp and one sum.  (A sequential
    np.logaddexp.reduce drops every increment below half an ulp of its
    running total and reads up to about J u low.)"""
    c = sym.c2_abs
    s = 2.0 * sym.sigma1 - r * c
    i = np.arange(1, i_max + 1.0)[:, None]
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(1, i_max + 1)])
    lj = np.log(np.arange(2, j_max + 1.0))
    log_terms = i * np.log(c * lj) - log_fact[:, None] - s * lj
    peak = log_terms.max(axis=1)
    log_rows = peak + np.log(np.exp(log_terms - peak[:, None]).sum(axis=1))
    log_rhs = math.log(zeta(s).lower) + i[:, 0] * math.log(r)
    log_lhs = np.logaddexp(log_rows, log_row_tails(sym, s, i_max, j_max))
    with np.errstate(over="ignore"):
        return float(np.exp(np.max(log_lhs - log_rhs)))


def assert_dominates_dense(sym, r, i_max, j_max):
    """The closed-form row bound is at least every dense row's ratio, up to
    the dense sum's own rounding, so a true verdict (residual 0) never sits
    beside a failing dense row."""
    cert = schur_certificate(sym, r, i_max, j_max)
    ratio = dense_schur_ratio(sym, r, i_max, j_max)
    assert cert.row_bound >= ratio * (1.0 - 1e-12), (sym, r, cert, ratio)
    assert cert.max_row_residual >= ratio - 1.0 - 1e-12, (sym, r, cert, ratio)


def assert_tail_matches_closed_form(sym, i_max, j_max):
    """tail_bounds against its closed form at 50 digits (mp_tail_sq): never
    below it at the exact |c2| of the float components, and within 1e-11
    relative above it at c2_abs_upper, the |c2| it computes with, plus
    1e-150 for a sum at the subnormal floor.  Returns the bound."""
    mpmath = pytest.importorskip("mpmath")
    t = tail_bounds(sym, i_max, j_max)
    with mpmath.workdps(50):
        c = mpmath.sqrt(mpmath.mpf(sym.c2.real) ** 2 + mpmath.mpf(sym.c2.imag) ** 2)
        _, high = mp_tail_sq(sym.sigma1, c, i_max, j_max)
        low, _ = mp_tail_sq(sym.sigma1, c2_abs_upper(sym), i_max, j_max)
        assert mpmath.mpf(t) >= mpmath.sqrt(high), (sym, i_max, j_max, t)
        assert mpmath.mpf(t) <= mpmath.sqrt(low) * (1 + mpmath.mpf(1e-11)) + mpmath.mpf(1e-150), (
            sym, i_max, j_max, t, mpmath.nstr(mpmath.sqrt(low), 17))
    return t


def assert_entries_within_model(m, positions):
    """Each sampled entry of B against 40-digit mpmath: within eta of it
    (operator_matrix._entry_rounding) plus the absolute max(I, 1) 2^-1074
    that underflow may lose."""
    mpmath = pytest.importorskip("mpmath")
    eta = operator_matrix._entry_rounding(m.symbol, m.i_max, m.j_max)
    floor = max(m.i_max, 1) * 2.0**-1074
    with mpmath.workdps(40):
        s1, c = mpmath.mpf(m.symbol.sigma1), mpmath.mpf(m.symbol.c2_abs)
        for i, j in positions:
            exact = mpmath.power(j, -s1) * (c * mpmath.log(j)) ** i / mpmath.factorial(i)
            error = abs(mpmath.mpf(float(m.magnitudes[i, j - 1])) - exact)
            assert error <= eta * exact + floor, (m.symbol, i, j, error / exact)


def sampled_positions(m, count, seed):
    """Rows 0, 1 and I and columns 1, 2 and J, the columns on either side of
    the last recurrence column, and count random positions."""
    rng = np.random.default_rng(seed)
    rows = {0, min(1, m.i_max), m.i_max}
    cols = {1, min(2, m.j_max), m.j_max}
    log_edge = 700.0 / m.symbol.sigma1
    if log_edge < math.log(m.j_max):
        edge = math.floor(math.exp(log_edge))
        cols |= {edge, edge + 1}
    positions = [(i, j) for i in rows for j in cols]
    positions += [(int(rng.integers(0, m.i_max + 1)), int(rng.integers(1, m.j_max + 1)))
                  for _ in range(count)]
    return positions


# Im c1 up to 100, arbitrary arg c2, large q
PHASED_SYMBOLS = (
    DirichletSymbol(2.0 - 100.0j, 0.5 * np.exp(2.9j), q=999983),
    DirichletSymbol(1.3 + 57.5j, 0.7 * np.exp(-1.1j), q=10**6),
    DirichletSymbol(3.0 + 0.25j, 2.2 * np.exp(0.4j), q=7),
    DirichletSymbol(0.9 + 99.0j, 0.15 * np.exp(-3.0j), q=2),
)


class TestBuildMatrix:
    def test_reference_entries(self):
        m = build_matrix(DirichletSymbol(2.0, 0.5), 4, 4)
        assert m.entries[0, 0] == 1.0
        assert np.all(m.entries[1:, 0] == 0.0)
        assert m.entries[0, 1] == pytest.approx(0.25, abs=1e-15)
        assert m.entries[1, 1] == pytest.approx(-0.5 * math.log(2) * 0.25, abs=1e-15)
        assert m.entries[2, 2] == pytest.approx(
            (0.5 * math.log(3)) ** 2 / 2.0 * 3.0**-2.0, rel=1e-14
        )

    def test_log_factorials(self):
        assert log_factorials(4) == pytest.approx(np.log([1.0, 1.0, 2.0, 6.0, 24.0]), rel=1e-15)

    def test_row_and_column_counts(self):
        m = build_matrix(DirichletSymbol(1.5, 0.25), 7, 12)
        assert m.row_count == 8 and m.col_count == 12
        assert m.i_max == 7 and m.j_max == 12
        assert m.entries.shape == (8, 12)
        assert not m.entries.flags.writeable

    def test_constant_symbol_single_row(self):
        m = build_matrix(DirichletSymbol(0.75, 0.0), 3, 10)
        j = np.arange(1, 11)
        assert np.allclose(m.entries[0].real, j**-0.75, rtol=1e-15)
        assert np.all(m.entries[1:] == 0.0)

    @pytest.mark.parametrize(
        "sigma1, c, i_max, j_max",
        [
            (2.0, 0.5, 200, 20000),
            (1.6, 0.3, 200, 20000),  # deep rows of small columns underflow
            (51.0, 50.0, 200, 20000),
            # row 0 leaves the normal range: log-space columns from j = 6311
            # and from j = 6, and with c2 = 0 from j = 1097
            (80.0, 79.5, 200, 20000),
            (400.0, 0.1, 40, 20000),
            (100.0, 0.0, 5, 5000),
            # every entry but column 1 underflows
            (1e14, 1.0, 3, 1000),
        ],
    )
    def test_entries_within_rounding_model(self, sigma1, c, i_max, j_max):
        m = build_matrix(DirichletSymbol(sigma1, c), i_max, j_max)
        assert_entries_within_model(m, sampled_positions(m, 60, seed=int(sigma1 * 10)))

    def test_hostile_entries_within_rounding_model(self):
        # |c2| from 1e-3 to 50, gaps from 1e-12 to 10 or sigma1 up to 400,
        # up to 201 rows and 2e4 columns
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @st.composite
        def symbols(draw):
            c = math.exp(draw(st.floats(math.log(1e-3), math.log(50.0))))
            if draw(st.booleans()):
                return 0.5 + c + math.exp(draw(st.floats(math.log(1e-12), math.log(10.0)))), c
            return draw(st.floats(0.5 + c + 10.0, 400.0)), c

        @hypothesis.settings(
            max_examples=40,
            deadline=None,
            derandomize=True,
            database=None,
            suppress_health_check=[hypothesis.HealthCheck.too_slow],
        )
        @hypothesis.given(symbols(), st.integers(0, 200), st.integers(1, 20000))
        def check(symbol, i_max, j_max):
            m = build_matrix(DirichletSymbol(*symbol), i_max, j_max)
            assert_entries_within_model(m, sampled_positions(m, 12, seed=i_max))

        check()

    def test_entry_rounding_is_tight(self):
        # the recurrence charges 6u a row and 3u per unit of sigma1 ln J:
        # about 1,250u at 201 x 20000, where sigma1 ln J = 15.8 keeps every
        # column on the recurrence, so no log-space count applies
        eta = operator_matrix._entry_rounding(DirichletSymbol(1.6, 0.3), 200, 20000)
        assert eta < 1260 * UNIT_ROUNDOFF

    def test_entry_rounding_at_huge_sigma1(self):
        # only entries that do not underflow are charged, so eta stops
        # growing with sigma1: charged in full it was 0.31 at sigma1 = 1e14,
        # past the 1/5 the norm bracket's proof assumes
        etas = {operator_matrix._entry_rounding(DirichletSymbol(s, 1.0), 3, 1000)
                for s in (1e3, 1e14, 2e14, 1e300)}
        assert len(etas) == 1 and etas.pop() < 1e-12
        with pytest.raises(DomainError):
            operator_matrix._entry_rounding(DirichletSymbol(2.0, 0.5), 10**15, 1000)

    def test_entry_rounding_covers_the_log_space_steps(self):
        # past sigma1 ln j = 700 row i is exp(i L - log i! - sigma1 ln j),
        # L = log(|c2| ln j), whose steps are off by up to
        # 5i|L| + 3i + 6 log i! + 4 sigma1 ln j + 2 units: 1.828e-12 at
        # (150, 100), 201 x 1000, where sigma1 ln J = 1036
        i_max, j_max = 200, 1000
        x = 150.0 * math.log(j_max)
        log_base = math.log(100.0 * math.log(j_max))
        count = 5 * i_max * log_base + 3 * i_max + 6 * math.lgamma(i_max + 1.0) + 4 * x + 2
        eta = operator_matrix._entry_rounding(DirichletSymbol(150.0, 100.0), i_max, j_max)
        assert eta >= count * UNIT_ROUNDOFF

    def test_column_norm_oracle(self):
        # contract: every column matches the series oracle to 1e-10 relative
        for c1, c2 in [(2.0, 0.5), (1.0, 0.5), (2 + 3j, 0.5 * np.exp(1.3j))]:
            sym = DirichletSymbol(c1, complex(c2))
            m = build_matrix(sym, 60, 40)
            norms_sq = np.sum(np.abs(m.entries) ** 2, axis=0)
            for j in (1, 2, 3, 7, 25, 40):
                assert norms_sq[j - 1] == pytest.approx(
                    column_norm_sq_oracle(sym, j), rel=1e-10
                )

    def test_q_invariance_bit_for_bit(self):
        m2 = build_matrix(DirichletSymbol(2.0, 0.5, q=2), 10, 50)
        m3 = build_matrix(DirichletSymbol(2.0, 0.5, q=3), 10, 50)
        assert np.array_equal(m2.entries, m3.entries)

    def test_modulus_depends_only_on_sigma1_and_c2_abs(self):
        m_ref = build_matrix(DirichletSymbol(2.0, 0.5), 8, 30)
        m_rot = build_matrix(DirichletSymbol(2 + 5j, 0.5 * np.exp(2j)), 8, 30)
        assert np.allclose(np.abs(m_ref.entries), np.abs(m_rot.entries), rtol=1e-13)

    def test_phased_entries_match_mpmath(self):
        # independent of the B-and-phases construction: the textbook entry
        # at 40 digits; the column phase j^(-i tau) carries about u |tau ln j|
        # (7e-14 at tau = 100, j = 400), hence 1e-12 relative
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(8)
        with mpmath.workdps(40):
            for sym in PHASED_SYMBOLS:
                m = build_matrix(sym, 30, 400)
                c1, c2 = mpmath.mpc(sym.c1), mpmath.mpc(sym.c2)
                for _ in range(25):
                    i, j = int(rng.integers(0, 31)), int(rng.integers(2, 401))
                    exact = mpmath.power(j, -c1) * (-c2 * mpmath.log(j)) ** i / mpmath.factorial(i)
                    assert abs(mpmath.mpc(m.entries[i, j - 1]) - exact) <= 1e-12 * abs(exact), (sym, i, j)

    def test_entries_are_cached_read_only(self):
        m = build_matrix(PHASED_SYMBOLS[0], 6, 30)
        first = m.entries
        assert m.entries is first
        assert not first.flags.writeable
        assert not m.magnitudes.flags.writeable
        assert m.magnitudes.dtype == np.float64
        assert np.all(m.magnitudes >= 0.0)

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmRSS")
    def test_large_blocks_return_their_memory(self):
        # a fresh process builds six 31 MiB blocks and their 62 MiB complex
        # exports, keeping a small record after each; heap-allocated blocks
        # leave 32 MiB resident once all are freed
        probe = (
            "from dirichletops.operator_matrix import build_matrix, operator_norm_estimate\n"
            "from dirichletops.symbol import DirichletSymbol\n"
            "def rss():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(l.split()[1]) for l in fh if l.startswith('VmRSS')) / 1024\n"
            "before, kept = rss(), []\n"
            "for r in range(6):\n"
            "    m = build_matrix(DirichletSymbol(complex(2.0, r), 0.5), 200, 20000)\n"
            "    kept.append((operator_norm_estimate(m).lower, complex(m.entries[1, 2])))\n"
            "    del m\n"
            "print(rss() - before)\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 8.0

    def test_truncation_validation(self):
        sym = DirichletSymbol(2.0, 0.5)
        with pytest.raises(DomainError):
            build_matrix(sym, -1, 5)
        with pytest.raises(DomainError):
            build_matrix(sym, 3, 0)
        with pytest.raises(DomainError):
            build_matrix(sym, 2.5, 5)

    def test_memory_cap(self, monkeypatch):
        sym = DirichletSymbol(2.0, 0.5)
        monkeypatch.setenv(MAX_ENTRIES_ENV, "100")
        with pytest.raises(MatrixSizeError) as excinfo:
            build_matrix(sym, 10, 100)
        message = str(excinfo.value)
        assert "1100 entries (8800 bytes at 8 B per entry)" in message
        assert "cap is 100 entries (800 bytes)" in message
        assert MAX_ENTRIES_ENV in message
        assert build_matrix(sym, 4, 20).row_count == 5  # 100 entries: at the cap
        monkeypatch.setenv(MAX_ENTRIES_ENV, "not-a-number")
        with pytest.raises(MatrixSizeError):
            build_matrix(sym, 1, 1)


def reference_fill(sym, i_max, j_max):
    """B by whole-block numpy steps that round as operator_matrix._rows
    does: row 0 as exp(-sigma1 ln j), then each row from the one above on
    the columns with sigma1 ln j <= 700, and the log-space rows past them."""
    b = np.zeros((i_max + 1, j_max))
    b[0, 0] = 1.0
    lj = np.log(np.arange(2, j_max + 1, dtype=np.float64))
    b[0, 1:] = np.exp(-(sym.sigma1 * lj))
    near = int(np.searchsorted(lj, 700.0 / sym.sigma1, side="right"))
    g = sym.c2_abs * lj[:near]
    for i in range(1, i_max + 1):
        b[i, 1 : near + 1] = b[i - 1, 1 : near + 1] * g * (1.0 / i)
    with np.errstate(divide="ignore"):  # log(0) = -inf when c2 = 0
        log_g = np.log(sym.c2_abs * lj[near:])
    i = np.arange(1.0, i_max + 1.0)[:, None]
    far = i * log_g - log_factorials(i_max)[1:, None] - sym.sigma1 * lj[near:]
    b[1:, near + 1 :] = np.exp(far)
    return b


class TestRowsOnDemand:
    # far columns at (80, 79.5), zero columns past j = 6 at (400, 0.1), a
    # constant symbol, a phased one, 1 x 1, J = 1 and I = 0
    CASES = [
        ((2.0, 0.5), 100, 20000),
        ((1.6, 0.3), 200, 20000),
        ((4.0, 3.5), 200, 20000),
        ((80.0, 79.5), 40, 20000),
        ((400.0, 0.1), 10, 300),
        ((0.75, 0.0), 4, 100),
        ((2.0, 0.5), 0, 1),
        ((2.0 - 100.0j, 0.5 * np.exp(2.9j)), 30, 400),
        ((2.0, 0.5), 30, 1),
        ((1.6, 0.3), 0, 500),
    ]

    @pytest.mark.parametrize("c1, c2, i_max, j_max", [(*sym, i, j) for sym, i, j in CASES])
    def test_rows_on_demand_match_a_full_fill(self, c1, c2, i_max, j_max):
        # the block is filled whole when its magnitudes are first read,
        # bit for bit as the whole-block reference computes it
        sym = DirichletSymbol(c1, complex(c2))
        m = build_matrix(sym, i_max, j_max)
        block = m.magnitudes
        assert not block.flags.writeable
        assert np.array_equal(block, reference_fill(sym, i_max, j_max))
        assert m.magnitudes is block

    def test_fill_order_does_not_matter(self):
        # the entries read first fill the block through the magnitudes:
        # the same bits as a block whose magnitudes are read first
        sym = DirichletSymbol(1.6 + 2.0j, 0.3 * np.exp(1.0j))
        first = build_matrix(sym, 200, 2000)
        phased = first.entries
        second = build_matrix(sym, 200, 2000)
        assert np.array_equal(second.magnitudes, first.magnitudes)
        assert np.array_equal(second.entries, phased)

    @pytest.fixture
    def made(self, monkeypatch):
        # every block, real or complex, is allocated by _zeros: the shapes
        # and dtypes of the calls, in order
        made = []
        zeros = operator_matrix._zeros

        def counted(shape, dtype):
            made.append((shape, np.dtype(dtype)))
            return zeros(shape, dtype)

        monkeypatch.setattr(operator_matrix, "_zeros", counted)
        return made

    def test_norm_fills_no_row(self, made):
        # the norm reads the symbol and the truncation only: no block is made
        m = build_matrix(DirichletSymbol(1.6, 0.3), 400, 50000)
        assert operator_norm_estimate(m).converged
        assert made == []

    def test_block_is_made_on_first_read(self, made):
        # the build, the norm and the tail make no block; the first read of
        # the magnitudes makes the real one, the entries the complex one
        m = build_matrix(DirichletSymbol(2.0 + 1.0j, 0.5), 30, 400)
        operator_norm_estimate(m)
        assert m.tail_bound > 0.0
        assert made == []
        block = m.magnitudes
        assert made == [((31, 400), np.dtype(np.float64))]
        assert m.magnitudes is block
        assert m.entries.shape == (31, 400)
        assert made[1:] == [((31, 400), np.dtype(np.complex128))]

    def test_threads_read_identical_blocks(self, monkeypatch):
        # more threads than cores, switching every microsecond, read the
        # magnitudes or the entries of one empty block: it is filled once,
        # and every thread reads the bits of a reference fill
        sym = DirichletSymbol(2.0, 0.5)
        reference = build_matrix(sym, 100, 20000)
        expected = {"magnitudes": reference.magnitudes, "entries": reference.entries}
        fills = []
        rows = operator_matrix._rows

        def counted(sym, out):
            fills.append(out.shape[0])
            return rows(sym, out)

        monkeypatch.setattr(operator_matrix, "_rows", counted)
        m = build_matrix(sym, 100, 20000)
        wants = ("magnitudes", "entries", "magnitudes", "entries", "magnitudes", "magnitudes")
        barrier = threading.Barrier(len(wants))
        got = [None] * len(wants)

        def read(slot):
            barrier.wait(timeout=60)
            got[slot] = getattr(m, wants[slot])

        threads = [threading.Thread(target=read, args=(slot,)) for slot in range(len(wants))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert fills == [101]
        for name, block in zip(wants, got):
            assert np.array_equal(block, expected[name])
        assert got[0] is got[2] is got[4] is got[5]


class TestTailBounds:
    def test_tail_is_computed_on_first_access(self, monkeypatch):
        # the spectrum and the SVD never read the tail: the build must not
        # pay for it, and the first read computes it once
        calls = []

        def counted(*args):
            calls.append(args)
            return tail_bounds(*args)

        monkeypatch.setattr(operator_matrix, "tail_bounds", counted)
        sym = DirichletSymbol(2.0, 0.5)
        m = build_matrix(sym, 10, 100)
        singular_values(m, 3)
        assert calls == []
        assert m.tail_bound == tail_bounds(sym, 10, 100)
        assert m.tail_bound == tail_bounds(sym, 10, 100)
        assert calls == [(sym, 10, 100)]

    def test_row_tail_geometric_reference(self):
        # for (2, 0.5), s = 4, r = 1/6 and rho = 1/3, the rows from
        # k = I + 1 on are charged (b_k + Pi_k) / (1 - rho^2), their own
        # integrals b_k = C(2k, k) 6^-2k / 3 plus the largest summand from
        # column 2 on, at most the peak (k / (4e))^2k / (k!)^2: at k = 1,
        # whose summand peaks left of column 2, (1 / (4e))^2 is below the
        # column-2 bound 2^-3 (ln 2 / 2)^2.  That is below half the
        # approximation-number bound squared, (4/3) (1/9)^k / (1 - 1/9),
        # which the rows were charged before
        sym = DirichletSymbol(2.0, 0.5)
        for i_max in (0, 3, 10):
            k = i_max + 1
            b = math.comb(2 * k, k) / 36.0**k / 3.0
            peak = (k / (4.0 * math.e)) ** (2 * k) / math.factorial(k) ** 2
            row_sq = (b + peak) * 9.0 / 8.0
            t = tail_bounds(sym, i_max, 10**6)
            # the column tails of rows 0..I past J = 1e6 add below 1e-13
            assert 0.0 <= t * t - row_sq <= 1e-13
            assert row_sq < 0.25 * (4.0 / 3.0) * (1.0 / 9.0) ** k / (1.0 - 1.0 / 9.0)

    def test_decreasing_in_both_directions(self):
        sym = DirichletSymbol(1.2, 0.3)
        assert tail_bounds(sym, 10, 100) < tail_bounds(sym, 2, 100)
        assert tail_bounds(sym, 10, 400) < tail_bounds(sym, 10, 100)
        assert tail_bounds(sym, 10, 10**4) < tail_bounds(sym, 10, 400)
        # column decay is only polynomial in J, so "small" is relative
        assert tail_bounds(sym, 60, 10**6) < 2e-3

    def test_constant_symbol_closed_form(self):
        sym = DirichletSymbol(0.75, 0.0)
        t = tail_bounds(sym, 0, 1000)
        integral = math.sqrt(1000.0**-0.5 / 0.5)
        # sharp Euler-Maclaurin tail sits just under the plain integral bound
        assert 0.9 * integral < t <= integral

    def test_boundary_symbol_infinite(self):
        assert tail_bounds(DirichletSymbol(1.0, 0.5), 10, 100) == math.inf

    @pytest.mark.parametrize("sigma1", [0.5, 0.5 - 1e-13])
    def test_critical_line_constant_symbol_infinite(self, sigma1):
        # sum_(j>J) j^(-2 sigma1) diverges for sigma1 <= 1/2, which EQ_TOL admits
        assert tail_bounds(DirichletSymbol(sigma1, 0.0), 0, 100) == math.inf

    @pytest.mark.parametrize("sigma1, c, j_max", [(2.0, 0.5, 50), (1.6, 0.3, 20000), (3.0, 1.5, 20000)])
    def test_negligible_rows_cost_no_moment_tail(self, sigma1, c, j_max):
        # past the first row k_t whose closed-form row tail is at most u
        # times the running column sum, rows are charged by that closed form
        # alone: the pass ends there, so the bound stops depending on I (a
        # billion rows cost no more than 150), and it stays within 1e-11 of
        # the closed form that charges every row's column tail
        sym = DirichletSymbol(sigma1, c)
        t = assert_tail_matches_closed_form(sym, 300, j_max)
        assert t == tail_bounds(sym, 150, j_max) == tail_bounds(sym, 10**9, j_max)

    @pytest.mark.parametrize(
        "sigma1, c2, i_max, j_max",
        [
            (1.6, 0.3, 200, 20000),
            (0.9 + 1e-6, 0.3, 400, 500),
            (0.8 + 1e-6, 0.3, 400, 500),
            (0.55 + 1e-6, 0.05j, 400, 20000),
            (2.5 + 1e-6, 2.0 * cmath.exp(0.7j), 400, 2000),
            (20.5 + 1e-3, 20.0 * cmath.exp(-2.1j), 300, 20000),
            (3.0, 1.5 * cmath.exp(1.3j), 1, 1),
            (0.75, 0.0, 0, 1000),
            (80.0 + 1e-6, 79.5, 40, 20000),  # every row's column mass lies far out
            (50.5 + 2e-12, 50.0, 200, 20000),
            (1e10, 1.0, 300, 10),  # row 0's tail underflows
            (1e300, 1.0, 40, 1000),
            (1e308, 1e307, 60, 10),  # s is clamped far below 2 sigma1, rho = 0.1
            (1e302, 9e301, 300, 2),
            (1e302, 9e301, 300, 1),
            (20.0, 10.0, 30, 1),  # rows 1..13 peak in (J, J + 1)
            (1.0, 5e-324, 5, 100),  # c / s underflows to 0: no peak is taken
            (1.0, 5e-324, 40, 2000),
        ],
    )
    def test_rounded_outward_against_mpmath(self, sigma1, c2, i_max, j_max):
        assert_tail_matches_closed_form(DirichletSymbol(sigma1, c2), i_max, j_max)

    @pytest.mark.parametrize(
        "sigma1, c, i_max, j_max, most",
        [(2000.0, 1999.0, 100, 1000, 2.0), (1000.0, 999.0, 99, 2000, 2.0),
         (300.0, 299.0, 99, 2000, 1.0), (1100.0, 1000.0, 100, 1000, 1e-6)],
    )
    def test_row_piece_left_of_column_2_is_capped(self, sigma1, c, i_max, j_max, most):
        # rows from k whose summands peak left of column 2 sum there to at
        # most 2^-s (y^k / k!)^2 e^2y, y = |c2| ln 2, which grows without
        # limit while k < y: exp overflowed at (2000, 1999), and the bound
        # read 1.85e127, 4.1e74 and 1.7e97 on the others.  The whole series
        # caps it at 2^-s e^2y, and the peak caps it below that (with the
        # series alone the first three read 22.4, 15.8 and 8.66)
        t = assert_tail_matches_closed_form(DirichletSymbol(sigma1, c), i_max, j_max)
        assert t < most

    @pytest.mark.parametrize(
        "sigma1, c, i_max, j_max, before",
        [
            (2.0, 0.5, 40, 2000, 1.3355874038933798e-4),
            (2.0, 0.5, 100, 20000, 1.2518419700164138e-5),
            (2.5, 0.5, 125, 20000, 7.255906238923931e-8),
            (3.0, 1.5, 150, 20000, 9.471031251862051e-6),
            (1.6, 0.3, 200, 20000, 1.1546425928373159e-4),
            (20.0, 10.0, 30, 1, 3.3710261453332477e-4),
        ],
    )
    def test_each_peak_carries_its_own_rounding(self, sigma1, c, i_max, j_max, before):
        # `before` is the bound when every P_i shared the largest row's
        # exponent error as one relative term on the whole column sum; each
        # P_i now carries its own, which is never looser and is tighter here
        # in the 12th significant digit on the two widest symbols
        t = assert_tail_matches_closed_form(DirichletSymbol(sigma1, c), i_max, j_max)
        assert t <= before
        if (sigma1, i_max) in ((2.0, 100), (3.0, 150)):
            assert t < before

    def test_closed_form_sweep(self):
        # gaps from 1e-12 (boundary symbols within EQ_TOL: +inf) to 10,
        # |c2| in [1e-3, 1e3] or a fraction rho/2 of 2 Re c1 - 1, some
        # phased, Re c1 up to 1e308 (often past 1e300, where the tail clamps
        # s = 2 Re c1), I <= 60 and 1 <= J <= 1e6
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
        @hypothesis.given(
            st.floats(-12.0, 1.0),
            st.floats(-3.0, 3.0),
            st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
            st.one_of(st.just(0.0), st.floats(0.0, 308.0), st.floats(300.0, 308.0)),
            st.integers(0, 60),
            st.floats(0.0, 6.0),
            st.one_of(st.just(0.0), st.floats(0.01, 0.99)),
        )
        def check(log_gap, log_c, arg, log_sigma1, i_max, log_j, rho):
            c = 10.0**log_c
            sigma1 = max(0.5 + c + 10.0**log_gap, 10.0**log_sigma1)
            if rho:  # |c2| on the scale of Re c1, however large
                c = rho * (sigma1 - 0.5)
            sym = DirichletSymbol(sigma1, c * cmath.exp(1j * arg))
            j_max = int(10.0**log_j)
            if classify(sym) is SymbolClass.BOUNDARY:
                assert tail_bounds(sym, i_max, j_max) == math.inf
            else:
                assert_tail_matches_closed_form(sym, i_max, j_max)

        check()

    def test_peak_left_of_the_first_summed_column(self):
        # at (20, 10) and J = 1 the summands of rows 1..13 peak in (1, 2),
        # left of column 2, the first one summed: each row is charged its
        # largest summand from column 2 on, and every row's closed form
        # still bounds its true 50-digit tail past column J, by the Hurwitz
        # zeta derivative sum_(j>J) (ln j)^2i j^-s = zeta^(2i)(s, J + 1)
        mpmath = pytest.importorskip("mpmath")
        sym, i_max, j_max = DirichletSymbol(20.0, 10.0), 30, 1
        with mpmath.workdps(50):
            s, c = 2 * mpmath.mpf(sym.sigma1), mpmath.mpf(sym.c2_abs)
            closed = mp_moment_tails(s, 2 * i_max, j_max)[::2]
            exact = [mpmath.zeta(s, j_max + 1, 2 * i) for i in range(i_max + 1)]
            for i, (bound, tail) in enumerate(zip(closed, exact)):
                assert tail <= bound, (i, tail, bound)
            true_sq = sum(c ** (2 * i) / mpmath.factorial(i) ** 2 * tail for i, tail in enumerate(exact))
        t = assert_tail_matches_closed_form(sym, i_max, j_max)
        assert mpmath.mpf(t) ** 2 >= true_sq
        # 0.065 with each row's column tail taken as the integral from J,
        # 0.21 with each row's peak taken at t = 2i/s
        assert t**2 <= 1.2 * true_sq
        # every row of (1e302, 9e301) peaks left of column 2, where the
        # summands vanish, and the rows past I are charged their own
        # integrals, with 1 / (s-1), and their values at column 2: all that
        # is left is the floor (3.9e-14 with the approximation-number bound)
        assert tail_bounds(DirichletSymbol(1e302, 9e301), 300, 1) < 1e-150

    @pytest.mark.parametrize("sigma1, c", [(20.0, 10.0), (2.0, 0.5), (3.0, 1.5), (60.0, 5.0)])
    def test_rows_past_the_cut_hold_their_true_mass(self, sigma1, c):
        # at J = 1 the bound covers every row over all columns j >= 2, rows
        # past I by (b_k + Pi_k) / (1 - rho^2): with Pi_k at column 2 while
        # 2k/s < ln 2 (k <= 13 at (20, 10), all k <= 20 at (60, 5)) and at
        # the peak after; it must hold the true 50-digit mass of all rows,
        # row i's by the Hurwitz zeta derivative zeta^(2i)(s, 2)
        mpmath = pytest.importorskip("mpmath")
        sym = DirichletSymbol(sigma1, c)
        with mpmath.workdps(50):
            s, c = 2 * mpmath.mpf(sigma1), mpmath.mpf(c)
            terms = [c ** (2 * i) / mpmath.factorial(i) ** 2 * mpmath.zeta(s, 2, 2 * i) for i in range(90)]
            true_sq = mpmath.fsum(terms)
            assert terms[-1] < mpmath.mpf(10) ** -30 * true_sq  # the rows left out are negligible
        for i_max in (0, 1, 3, 12, 13, 20, 30):
            t = tail_bounds(sym, i_max, 1)
            assert mpmath.mpf(t) ** 2 >= true_sq, (i_max, t, true_sq)

    def test_underflowing_row0_tail_ends_the_pass_early(self):
        # at (1e10, 1) and J = 10 row 0's column tail underflows, so the cut
        # compares the row piece with 2^-1074: 16 of 20001 rows are summed
        start = time.perf_counter()
        t = tail_bounds(DirichletSymbol(1e10, 1.0), 20000, 10)
        assert time.perf_counter() - start < 1.0
        assert 0.0 < t < 1e-160

    def test_certifies_actual_discarded_mass(self):
        # the bound must dominate the Hilbert-Schmidt norm of everything a
        # much larger reference truncation holds outside the small one
        sym = DirichletSymbol(2.0, 0.5)
        ref = build_matrix(sym, 25, 3000)
        i_max, j_max = 6, 50
        mass = np.sum(np.abs(ref.entries) ** 2)
        kept = np.sum(np.abs(ref.entries[: i_max + 1, :j_max]) ** 2)
        discarded = math.sqrt(mass - kept)
        assert discarded <= tail_bounds(sym, i_max, j_max)


def exact_dot(a, b):
    """a . b for float vectors with entries in [0, 1], as an mpf good to
    about 32 digits: every product split exactly into p + e (Dekker's
    two-product; a product below about 2^-969 may lose e, an absolute error
    under 2^-1000), the 2J parts summed by math.fsum, and the remainder of
    that sum summed once more."""
    mpmath = pytest.importorskip("mpmath")

    def halves(x):
        t = 134217729.0 * x  # 2^27 + 1
        high = t - (t - x)
        return high, x - high

    (ah, al), (bh, bl) = halves(a), halves(b)
    p = a * b
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    parts = np.concatenate([p, e]).tolist()
    total = math.fsum(parts)
    return mpmath.mpf(total) + mpmath.mpf(math.fsum(parts + [-total]))


def mp_top_singular_value(block, dps=60):
    """Largest singular value of a float block, as an mpf: the top
    eigenvalue, in dps-digit arithmetic, of its smaller Gram matrix, each
    entry an exact_dot."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    rows = block if block.shape[0] <= block.shape[1] else block.T
    with mp.workdps(dps):
        gram = mp.matrix(rows.shape[0], rows.shape[0])
        for i in range(rows.shape[0]):
            for l in range(i, rows.shape[0]):
                gram[i, l] = gram[l, i] = exact_dot(rows[i], rows[l])
        return mp.sqrt(max(mp.eigsy(gram, eigvals_only=True)))


def mp_frobenius(sym, rows, j_max, dps=40):
    """Frobenius norm of rows ``rows`` of the exact block B, j <= j_max, by
    the term recurrence in dps-digit arithmetic, as an mpf."""
    mpmath = pytest.importorskip("mpmath")
    mpf = mpmath.mpf
    with mpmath.workdps(dps):
        c, total = mpf(c2_abs_upper(sym)), mpf(0)
        for j in range(2, j_max + 1):
            x = c * mpmath.log(j)
            term = x ** rows.start / mpmath.factorial(rows.start)
            col = mpf(0)
            for i in range(rows.start, rows.stop):
                col += term**2
                term *= x / (i + 1)
            total += col * mpf(j) ** (-2 * mpf(sym.sigma1))
        return mpmath.sqrt(total)


def mp_block_norm(sym, i_max, j_max, dps=60):
    """Norm of the exact (I+1) x J block B in dps-digit arithmetic: the top
    eigenvalue of B B^T, whose entry (i, l) is
    |c2|^(i+l) / (i! l!) sum_j (ln j)^(i+l) j^(-2 sigma1)."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    with mp.workdps(dps):
        c, s = mp.mpf(sym.c2_abs), 2 * mp.mpf(sym.sigma1)
        h = [mp.mpf(1)] + [mp.mpf(0)] * (2 * i_max)  # j = 1 adds only to h_0
        for j in range(2, j_max + 1):
            lj, w = mp.log(j), mp.mpf(j) ** -s
            for n in range(2 * i_max + 1):
                h[n] += w
                w *= lj
        gram = mp.matrix(i_max + 1, i_max + 1)
        for i in range(i_max + 1):
            for l in range(i_max + 1):
                gram[i, l] = c ** (i + l) / (mp.factorial(i) * mp.factorial(l)) * h[i + l]
        return mp.sqrt(max(mp.eigsy(gram, eigvals_only=True)))


def mp_moments(sym, k, j_max, cut=256, terms=20):
    """(low, high) around the 2k - 1 balanced moments
    d_n = |c2|^n / (a! b!) h_n, h_n = sum_(j<=J) (ln j)^n j^-s, s = 2 sigma1,
    a = n // 2, b = n - a, as mpf lists at the caller's precision.

    The columns j <= min(J, cut) are summed term by term, all orders at
    once.  Past cut, f_n = (ln x)^n x^-s is summed by Euler-Maclaurin with
    ``terms`` Bernoulli numbers from mpmath: the integral is
    mpmath.gammainc(n + 1, (s-1) ln cut, (s-1) ln J) / (s-1)^(n+1), and
    x^m f^(m) = V_m by V_(m+1) = n shift(V_m) - (s + m) V_m.  Its remainder,
    at most |B_2p| / (2p)! (Lambda / cut)^2p times the integral with
    Lambda = n / ln cut + s + p, widens both ends.  Where Lambda / cut
    passes 0.9 (large s), the columns past cut are bracketed by
    [0, integral from cut + the largest summand] instead.  At s = 1 the
    integral is (ln J)^(n+1) - (ln cut)^(n+1), over n + 1.
    """
    mpmath = pytest.importorskip("mpmath")
    mpf = mpmath.mpf
    s, c, top = 2 * mpf(sym.sigma1), mpf(sym.c2_abs), 2 * k - 2
    h = [mpf(1)] + [mpf(0)] * top  # j = 1 adds only to h_0
    for j in range(2, min(j_max, cut) + 1):
        lj, w = mpmath.log(j), mpf(j) ** -s
        for n in range(top + 1):
            h[n] += w
            w *= lj
    low, high = list(h), list(h)
    if j_max > cut:
        log_n, log_j = mpmath.log(cut), mpmath.log(j_max)
        if s == 1:  # sigma1 = 1/2 exactly, a constant symbol on the critical line
            integrals = [(log_j ** (n + 1) - log_n ** (n + 1)) / (n + 1) for n in range(top + 1)]
        else:
            integrals = [mpmath.gammainc(n + 1, (s - 1) * log_n, (s - 1) * log_j) / (s - 1) ** (n + 1)
                         for n in range(top + 1)]
        ratio = (top / log_n + s + terms) / cut
        if ratio < 0.9:
            part = [i for i in integrals]
            for x, sign in ((mpf(cut), -1), (mpf(j_max), 1)):
                lx = mpmath.log(x)
                v = [lx**n * x**-s for n in range(top + 1)]
                for n in range(top + 1):
                    part[n] += sign * v[n] / 2
                for m in range(2 * terms - 1):
                    v = [n * (v[n - 1] if n else 0) - (s + m) * v[n] for n in range(top + 1)]
                    if m % 2 == 0:
                        beta = mpmath.bernoulli(m + 2) / mpmath.factorial(m + 2)
                        for n in range(top + 1):
                            part[n] += sign * beta * x ** -(m + 1) * v[n]
            bound = abs(mpmath.bernoulli(2 * terms)) / mpmath.factorial(2 * terms) * ratio ** (2 * terms)
            for n in range(top + 1):
                low[n] += part[n] - bound * integrals[n]
                high[n] += part[n] + bound * integrals[n]
        else:
            for n in range(top + 1):
                t = max(n / s, log_n)
                high[n] += integrals[n] + t**n * mpmath.exp(-s * t)
    scale = [c**n / (mpmath.factorial(n // 2) * mpmath.factorial(n - n // 2)) for n in range(top + 1)]
    return [x * f for x, f in zip(low, scale)], [x * f for x, f in zip(high, scale)]


class TestGramMoments:
    def test_oracle_matches_zeta_derivatives(self):
        # the Euler-Maclaurin part of mp_moments against mpmath's Hurwitz
        # zeta derivatives, h_n = (-1)^n (zeta^(n)(s) - zeta^(n)(s, J + 1))
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            for sigma1, c, k, j_max in [(2.0, 0.5, 8, 5000), (1.6, 0.3, 5, 10**6)]:
                sym = DirichletSymbol(sigma1, c)
                low, high = mp_moments(sym, k, j_max)
                s = 2 * mpmath.mpf(sigma1)
                for n in range(2 * k - 1):
                    h = (-1) ** n * (mpmath.zeta(s, 1, n) - mpmath.zeta(s, j_max + 1, n))
                    d = mpmath.mpf(c) ** n / (mpmath.factorial(n // 2) * mpmath.factorial(n - n // 2)) * h
                    assert low[n] <= d * (1 + mpmath.mpf(10) ** -40) and d <= high[n] * (1 + mpmath.mpf(10) ** -40)
                    assert high[n] - low[n] <= mpmath.mpf(10) ** -30 * d

    def test_moments_against_a_50_digit_oracle(self, monkeypatch):
        # every d_n of _gram_moments within delta d_n + eps of mp_moments:
        # gaps down to 1e-12 above sigma1 = 1/2 + |c2| (boundary symbols
        # included), c2 = 0, sigma1 up to 1e3, 1 <= J <= 1e6 with J near
        # twice the N the Euler-Maclaurin part would use, orders up to 400,
        # and steep symbols whose z_J = (2 sigma1 - 1) ln J passes 708, where
        # the Poisson terms at J come from their logs; fixed cases add 90
        # rows of (150, 100) over 1000 columns, 894 of them past
        # sigma1 ln j = 700 and taken in log space, and row 0 of (1000, 1)
        # over 1e5 columns, past column N = 4096 where z_N = 16627
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        mpmath = pytest.importorskip("mpmath")

        @st.composite
        def cases(draw):
            c = draw(st.one_of(st.just(0.0), st.floats(1e-3, 50.0)))
            kind = draw(st.sampled_from(["gap", "boundary", "large", "steep"]))
            if kind == "steep":  # z_J past 708 wherever the model fits
                c = draw(st.floats(35.0, 55.0))
                sym = DirichletSymbol(0.5 + c + 10.0 ** draw(st.floats(-12.0, 0.0)), c)
                return sym, draw(st.integers(1, 201)), int(10.0 ** draw(st.floats(4.0, 6.0)))
            if kind == "gap":
                sigma1 = 0.5 + c + 10.0 ** draw(st.floats(-12.0, 1.0))
            elif kind == "boundary":
                sigma1 = 0.5 + c
            else:
                sigma1 = max(0.5 + c + 1.0, 10.0 ** draw(st.floats(0.0, 3.0)))
            sym = DirichletSymbol(sigma1, c)
            k = 1 if c == 0.0 else draw(st.integers(1, 201))
            n_far = operator_matrix._em_columns(sym, k, 10**7)
            if n_far < 10**6 and draw(st.booleans()):
                j_max = 2 * n_far + draw(st.integers(-1, 1))
            else:
                j_max = int(10.0 ** draw(st.floats(0.0, 6.0)))
            return sym, k, j_max

        read = []  # the columns each direct sum read
        chain_moments = operator_matrix._chain_moments

        def recorded(sym, k, n_cut, j_max):
            read.append((n_cut, j_max))
            return chain_moments(sym, k, n_cut, j_max)

        monkeypatch.setattr(operator_matrix, "_chain_moments", recorded)
        used, steep = [], []

        @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None,
                             suppress_health_check=[hypothesis.HealthCheck.too_slow])
        @hypothesis.given(cases())
        def check(case):
            sym, k, j_max = case
            d, delta, eps = operator_matrix._gram_moments(sym, k, j_max)
            used.append(read[-1][0] < j_max)
            steep.append(used[-1] and (2.0 * sym.sigma1 - 1.0) * math.log(j_max) > 700.0)
            with mpmath.workdps(50):
                low, high = mp_moments(sym, k, j_max)
                for n, value in enumerate(d):
                    got = mpmath.mpf(float(value))
                    assert got >= low[n] * (1 - mpmath.mpf(delta)) - eps, (case, n)
                    assert got <= high[n] * (1 + mpmath.mpf(delta)) + eps, (case, n)

        check()
        for sigma1, c, k, j_max in [(150.0, 100.0, 90, 1000), (1000.0, 1.0, 1, 10**5),
                                    (4.0, 3.5, 201, 20000), (50.5 + 1e-12, 50.0, 201, 20000),
                                    (50.5 + 1e-12, 50.0, 201, 4 * 10**5), (26.0, 25.5, 401, 10**6),
                                    (2.0, 0.5, 201, 10**6)]:
            check.hypothesis.inner_test((DirichletSymbol(sigma1, c), k, j_max))
        # past column 512: the hostile symbol at both sizes, with z_J 990 and
        # 1290, and orders up to 800 at z_J = 705, where Q_n(z_J) counts
        assert steep[-4:-1] == [True] * 3 and read[-4][0] == read[-3][0] == read[-2][0] == 512
        # 400 orders past column 256 of 1e6, the last 104 below 2^-1000
        assert used[-1] and read[-1] == (256, 10**6)
        # all 1000 columns of (150, 100), and (1000, 1) past column 4096
        assert read[-7] == (1000, 1000) and used[-6] and read[-6][0] == 4096
        assert any(used) and not all(used)
        assert sum(steep) > 2

    def test_chain_evaluates_n_columns_and_column_j(self, monkeypatch):
        # at 99 x 1e6 the recurrence evaluates columns 1..N and J only, N a
        # power of two far below J, and the norm still brackets the
        # 1e6-column truncation
        evaluated = []
        chain = operator_matrix._chain

        def recorded(sym, k, columns):
            evaluated.append(columns.copy())
            return chain(sym, k, columns)

        monkeypatch.setattr(operator_matrix, "_chain", recorded)
        sym = DirichletSymbol(2.0, 0.5)
        m = build_matrix(sym, 98, 10**6)
        est = operator_norm_estimate(m)
        k, _ = operator_matrix._significant_rows(sym, 98, 10**6)
        n_cut = operator_matrix._em_columns(sym, k, 10**6)
        assert n_cut == 64
        assert np.array_equal(np.concatenate(evaluated), np.append(np.arange(1.0, 65.0), 1e6))
        assert est.converged and est.lower <= est.upper
        assert est.lower**2 <= norm_bounds(sym).upper_sq


    @pytest.mark.parametrize("sigma1, c, i_max, j_max", [(2.0, 0.5, 40, 2000), (150.0, 100.0, 199, 1000)])
    def test_gram_matches_the_block(self, sigma1, c, i_max, j_max):
        # the Gram matrix from the moments against B_k B_k^T of the built
        # block, entry by entry, within the moments' delta and eps, the
        # block's own entry rounding on both factors and the product's
        # gamma_J; (150, 100) takes the columns past j = 106 in log space
        sym = DirichletSymbol(sigma1, c)
        k, _ = operator_matrix._significant_rows(sym, i_max, j_max)
        d, delta, eps = operator_matrix._gram_moments(sym, k, j_max)
        gram = operator_matrix._gram(d)
        rows = build_matrix(sym, i_max, j_max).magnitudes[:k]
        block = rows @ rows.T
        eta = operator_matrix._entry_rounding(sym, i_max, j_max)
        slack = delta + 2.0 * eta + eta * eta + _gamma(j_max)
        floor = eps + 4.0 * j_max * max(i_max, 1) * 2.0**-1074
        assert np.all(np.abs(gram - block) <= slack * 1.01 * block + floor)

    def test_moment_rounding_keeps_the_products_cap(self):
        # phi, each product of two entries' bound, composed from
        # _entry_rounding with reach 373 (a product of at least e^-746 has
        # 2 sigma1 ln j <= 2I max|L| + 746), against the moment chain's own
        # proof that it replaces; composing at the block's reach of 746
        # charges the far columns' 4 sigma1 ln j term up to the product's
        # underflow once per factor, and exceeds it
        cases = {(2.0, 0.5, 28, 20000): 4.972043339606678e-14,
                 (4.0, 3.5, 94, 20000): 1.5084419283229376e-13,
                 (150.0, 100.0, 90, 1000): 2.153399817662881e-12,
                 (80.0, 79.5, 41, 20000): 1.1165415960987342e-12,
                 (1000.0, 1.0, 1, 10**5): 4.974909373347193e-13}
        plain = []
        for (sigma1, c, k, j_max), before in cases.items():
            sym = DirichletSymbol(sigma1, c)
            phi, _, _ = operator_matrix._gram_rounding(sym, k, j_max, j_max)
            assert phi <= 1.01 * before, (sigma1, c, phi, before)
            eta = operator_matrix._entry_rounding(sym, k - 1, j_max)
            plain.append((1.0 + eta) ** 2 * (1.0 + UNIT_ROUNDOFF) - 1.0 > 1.01 * before)
        assert plain == [False, False, False, True, True]

    def test_direct_path_holds_one_chunk(self, monkeypatch):
        # (40.5, 40) at 401 x 1e4, whose Euler-Maclaurin part past N = 512
        # fails the rho test, sums all 1e4 columns directly, 401 rows of B
        # at a time over chunks of at most 2^17 entries (1 MiB): the peak is
        # the k x k Gram matrix and the squarings' products, five of them
        # at 1.2 MiB, and two chunks' worth, where an 801 x 1e4 table would
        # take 64 MB
        read = []
        chain_moments = operator_matrix._chain_moments

        def recorded(sym, k, n_cut, j_max):
            read.append(n_cut)
            return chain_moments(sym, k, n_cut, j_max)

        monkeypatch.setattr(operator_matrix, "_chain_moments", recorded)
        sym = DirichletSymbol(40.5, 40.0)
        m = build_matrix(sym, 400, 10**4)
        k, _ = operator_matrix._significant_rows(sym, 400, 10**4)
        assert k == 401
        tracemalloc.start()
        try:
            est = operator_norm_estimate(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert read == [512, 10**4]
        assert peak < 5 * k * k * 8 + 2 * 2**20
        assert est.converged and est.lower <= est.upper

    def test_euler_maclaurin_poisson_terms_do_not_grow_with_s(self, monkeypatch):
        # (1e4, 1) at one row and 1e6 columns sums the columns past
        # N = 65536 by Euler-Maclaurin, where z_N = (s - 1) ln N is about
        # 2.2e5: only the lower Poisson sums are taken, so the part holds
        # O(k) terms where the upper ones would need M > 2 z_J = 5.5e5 of
        # them, 4.4 MB an array; the peak is the direct part's 1 MiB chunk
        monkeypatch.setattr(operator_matrix, "_tables", {})
        sym, j_max = DirichletSymbol(1e4, 1.0), 10**6
        n_cut = operator_matrix._em_columns(sym, 1, j_max)
        assert n_cut < j_max and (2.0 * sym.sigma1 - 1.0) * math.log(n_cut) > 2e5
        tracemalloc.start()
        try:
            d, delta, eps = operator_matrix._gram_moments(sym, 1, j_max)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20
        assert d[0] == 1.0 and delta < 1e-10 and eps < 1e-300

    def test_size_tables_are_kept_read_only_and_bounded(self, monkeypatch):
        # each kept table is read-only, serves every smaller size with the
        # bits a build at that size gives, and is kept only up to
        # _TABLE_BYTES, so the three keep at most 3 _TABLE_BYTES
        monkeypatch.setattr(operator_matrix, "_tables", {})
        om = operator_matrix
        for sigma1, c, i_max in [(4.0, 3.5, 200), (2.0, 0.5, 100), (50.5 + 1e-12, 50.0, 200)]:
            operator_norm_estimate(build_matrix(DirichletSymbol(sigma1, c), i_max, 20000))
        kept = dict(om._tables)
        assert set(kept) == {om._log_factorial_table, om._gram_factor_table, om._falling_factorial_table}
        assert kept[om._gram_factor_table].shape == (201, 201)
        assert kept[om._falling_factorial_table].shape == (401, 2 * om._EM_TERMS)
        for build in kept:
            small = om._table(build, 30)
            assert not small.flags.writeable and not kept[build].flags.writeable
            assert np.array_equal(small, build(30))
            with pytest.raises(ValueError):
                small[0] = 1.0
        assert not log_factorials(10).flags.writeable
        om._gram(np.ones(2 * 600 - 1))  # a 600 x 600 table of 2.7 MiB serves that call only
        assert om._tables[om._gram_factor_table] is kept[om._gram_factor_table]
        assert sum(table.nbytes for table in om._tables.values()) <= 3 * om._TABLE_BYTES == 6 * 2**20


    def test_threads_share_the_size_tables(self, monkeypatch):
        # more threads than cores, switching every microsecond, take norms
        # of different k from one empty set of tables: each gets the bits
        # that a later serial call, reading the kept tables, gets
        monkeypatch.setattr(operator_matrix, "_tables", {})
        cases = [(4.0, 3.5, 200), (2.0, 0.5, 100), (4.0, 3.5, 60), (3.0, 1.5, 150), (1.6, 0.3, 30),
                 (4.0, 3.5, 20)]
        got = [None] * len(cases)
        barrier = threading.Barrier(len(cases))

        def norm(slot):
            sigma1, c, i_max = cases[slot]
            barrier.wait(timeout=60)
            got[slot] = operator_norm_estimate(build_matrix(DirichletSymbol(sigma1, c), i_max, 20000))

        threads = [threading.Thread(target=norm, args=(slot,)) for slot in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for (sigma1, c, i_max), est in zip(cases, got):
            assert est == operator_norm_estimate(build_matrix(DirichletSymbol(sigma1, c), i_max, 20000))


class TestSignificantRows:
    @pytest.mark.parametrize(
        "sigma1, c, i_max, j_max",
        [
            (2.0, 0.5, 100, 1000),
            (1.6, 0.3, 120, 1000),
            (3.0, 1.5, 150, 1000),
            (400.0, 0.1, 40, 1000),
            (2.5 + 1e-9, 2.0, 120, 300),  # gap 1e-9 above the boundary line
            (2.0, 0.5, 60, 2),
        ],
    )
    def test_dropped_bounds_the_cut_rows(self, sigma1, c, i_max, j_max):
        sym = DirichletSymbol(sigma1, c)
        k, dropped = operator_matrix._significant_rows(sym, i_max, j_max)
        assert 1 <= k <= i_max  # every case cuts rows
        assert mp_frobenius(sym, range(k, i_max + 1), j_max) <= dropped
        # and charges no more than one unit roundoff of ||B|| >= 1
        assert 0.0 < dropped <= UNIT_ROUNDOFF * (1.0 + 4.0 * UNIT_ROUNDOFF)

    def test_row_counts_of_the_wide_blocks(self):
        # rows whose bounds pass u at 2e4 columns: 23 of the 201 of
        # (1.6, 0.3), and a quarter to a half of the others
        kept = {
            (2.0, 0.5, 100): 28, (2.5, 0.5, 125): 25, (1.0, 0.5, 100): 33,
            (3.0, 1.5, 150): 49, (1.6, 0.3, 200): 23, (3.0, 2.5, 200): 76,
            (4.0, 3.5, 200): 94,
        }
        for (sigma1, c, i_max), k in kept.items():
            sym = DirichletSymbol(sigma1, c)
            assert operator_matrix._significant_rows(sym, i_max, 20000)[0] == k

    @pytest.mark.parametrize(
        "sigma1, c, i_max, j_max", [(2.0, 0.5, 20, 500), (0.75, 0.0, 5, 100), (2.0, 0.5, 9, 1)]
    )
    def test_uncut_blocks_drop_nothing(self, sigma1, c, i_max, j_max):
        # the README's 21 x 500 block keeps every row; with c2 = 0 or J = 1
        # rows i >= 1 are exactly zero and are dropped for free
        k, dropped = operator_matrix._significant_rows(DirichletSymbol(sigma1, c), i_max, j_max)
        assert dropped == 0.0
        assert k == (i_max + 1 if c and j_max > 1 else 1)


class TestOperatorNormEstimate:
    def test_one_by_one(self):
        m = build_matrix(DirichletSymbol(2.0, 0.5), 0, 1)
        est = operator_norm_estimate(m)
        assert est.lower == pytest.approx(1.0, abs=1e-15)
        assert est.lower <= 1.0 <= est.upper - m.tail_bound
        assert est.converged and est.iterations == 1

    def test_result_unpacks_as_tuple(self):
        lower, upper, iterations, converged = operator_norm_estimate(
            build_matrix(DirichletSymbol(2.0, 0.5), 5, 50)
        )
        assert lower <= upper and iterations >= 1 and converged

    def test_constant_symbol_partial_zeta(self):
        j_max = 4000
        m = build_matrix(DirichletSymbol(0.75, 0.0), 0, j_max)
        est = operator_norm_estimate(m)
        partial = float(np.sum(np.arange(1.0, j_max + 1.0) ** -1.5))
        assert est.lower**2 == pytest.approx(partial, rel=1e-12)
        assert est.lower**2 <= partial * (1.0 + 1e-15)
        assert est.converged and est.iterations == 1
        # zero rows below row 0 change nothing but the rounding terms
        deep = operator_norm_estimate(build_matrix(DirichletSymbol(0.75, 0.0), 5, j_max))
        assert deep.converged and deep.iterations == 1
        assert deep.lower == pytest.approx(est.lower, rel=1e-14)

    def test_bracket_containment(self):
        # truncated norm^2 must land inside the certified zeta bracket
        sym = DirichletSymbol(2.0, 0.5)
        m = build_matrix(sym, 60, 5000)
        est = operator_norm_estimate(m, tol=1e-12)
        rep = norm_bounds(sym)
        assert m.tail_bound < 0.01
        assert rep.lower_sq - 5e-3 <= est.lower**2 <= rep.upper_sq + 5e-3
        # the gap reached tol; rounding terms of about (2J + 4(I+1)) u widen
        # the two ends, and the outward square roots a few ulps more
        rounding = (2 * 5000 + 4 * 61 + 20) * UNIT_ROUNDOFF
        assert est.lower + m.tail_bound <= est.upper
        assert est.upper <= est.lower * (1.0 + 1e-12 + rounding) + m.tail_bound
        assert est.converged

    def test_monotone_in_truncation(self):
        sym = DirichletSymbol(1.5, 0.4)
        lo_small = operator_norm_estimate(build_matrix(sym, 4, 40)).lower
        lo_rows = operator_norm_estimate(build_matrix(sym, 9, 40)).lower
        lo_cols = operator_norm_estimate(build_matrix(sym, 4, 160)).lower
        assert lo_small <= lo_rows + 1e-14
        assert lo_small <= lo_cols + 1e-14

    def test_non_convergence_is_flagged(self, monkeypatch):
        # a tied Gram matrix: its top pair 1 + 1e-20 and 1 - 1e-20 lies
        # within rounding.  Its row sums are its Perron vector, so the
        # squaring start certifies at once; from the unit vector e_0 the
        # gap closes like 1/n, far too slowly for three steps
        tied = np.array([[1.0, 1e-20], [1e-20, 1.0]])
        monkeypatch.setattr(operator_matrix, "_gram", lambda d: tied)
        monkeypatch.setattr(operator_matrix, "_MAX_ITER", 3)
        m = build_matrix(DirichletSymbol(2.0, 0.5), 1, 5)
        est = operator_norm_estimate(m)
        assert est.converged and est.iterations == 1
        monkeypatch.setattr(operator_matrix, "_start_vector", lambda gram: np.array([1.0, 0.0]))
        est = operator_norm_estimate(m)
        assert not est.converged
        assert est.iterations == 3
        # the bracket still holds the Perron root 1 + 1e-20
        assert 0.99 < est.lower <= 1.0 <= est.upper - m.tail_bound < 1.5

    def test_rounding_terms_against_mpmath(self):
        # the bracket holds the block's exact norm; the plain Rayleigh
        # quotient of (2, 0.5) at 21 x 500 sits 4e-16 above it
        m = build_matrix(DirichletSymbol(2.0, 0.5), 20, 500)
        est = operator_norm_estimate(m)
        exact = mp_top_singular_value(m.magnitudes)
        assert est.lower <= exact <= est.upper - exact.context.mpf(m.tail_bound)
        assert est.upper - m.tail_bound <= exact * (1.0 + 1e-12)
        assert est.converged and est.iterations == 1

    @pytest.mark.parametrize(
        "sigma1, c, i_max, j_max",
        [
            pytest.param(2.0, 0.5, 200, 20, id="2.0-0.5"),
            pytest.param(51.0, 50.0, 200, 20, id="51.0-50.0"),
            pytest.param(2.0, 0.5, 30, 20000, id="2.0-0.5-30-20000"),
        ],
    )
    def test_bracket_covers_entry_rounding(self, sigma1, c, i_max, j_max, monkeypatch):
        # moments within the Gram model of the computed ones stand in for
        # the exact ones: every moment 0.99 delta above them, then every
        # moment 0.99 delta below, and the computed block's 60-digit norm
        # must stay in the bracket.  (51, 50) keeps all 201 rows, where delta
        # (about 2,800u, mostly the recurrence's phi) passes the steps' own
        # rounding terms (at most 3k + 8 = 611u), so the bracket holds only
        # if it charges delta; at 31 x 20000, (2, 0.5) sums columns past 64
        # by Euler-Maclaurin, whose error delta must carry too
        sym = DirichletSymbol(sigma1, c)
        m = build_matrix(sym, i_max, j_max)
        exact = mp_top_singular_value(m.magnitudes)
        k, _ = operator_matrix._significant_rows(sym, i_max, j_max)
        gram_moments = operator_matrix._gram_moments
        _, delta, _ = gram_moments(sym, k, j_max)
        assert delta > operator_matrix._gamma(3 * k + 8) or k < 201
        assert (operator_matrix._em_columns(sym, k, j_max) < j_max) == (j_max > 20)
        ends = []
        for scale in (1.0 + 0.99 * delta, 1.0 - 0.99 * delta):
            def scaled(*args, f=scale):
                d, delta, eps = gram_moments(*args)
                return d * f, delta, eps

            monkeypatch.setattr(operator_matrix, "_gram_moments", scaled)
            ends.append(operator_norm_estimate(m))
        high, low = ends
        assert high.lower <= exact
        assert exact <= low.upper - exact.context.mpf(m.tail_bound)

    @pytest.mark.parametrize("tol", [1e-16, 1e-30])
    def test_tolerance_below_rounding_stops_early(self, tol):
        # the computed gap on the 46 x 46 Gram matrix stops shrinking at
        # about 2e-16: the loop stops there, unconverged, instead of
        # running all _MAX_ITER steps
        m = build_matrix(DirichletSymbol(3.0, 1.5), 80, 4000)
        est = operator_norm_estimate(m, tol=tol)
        assert not est.converged and est.iterations <= 5
        top = float(np.linalg.svd(m.magnitudes, compute_uv=False)[0])
        assert est.lower <= top <= est.upper - m.tail_bound

    def test_slowly_shrinking_gap_still_converges(self, monkeypatch):
        # from |v|, v the top eigenvector of LAPACK's eigh, which is right
        # only in absolute terms in the components near 1e-30, the gap
        # falls about tenfold per step here (14 steps); a shrinking gap
        # must not stop the loop
        def eigh_start(gram):
            x = np.abs(np.linalg.eigh(gram)[1][:, -1])
            return x / np.max(x)

        monkeypatch.setattr(operator_matrix, "_start_vector", eigh_start)
        m = build_matrix(DirichletSymbol(50.5 + 1e-12, 50.0), 200, 20000)
        est = operator_norm_estimate(m)
        assert est.converged and est.iterations >= 10

    def test_squaring_start_certifies_in_one_step_without_eigh(self, monkeypatch):
        # the seven matrix bench slots and the hostile (50.5 + 1e-12, 50):
        # no eigh runs, and the start is accurate enough for one step
        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh is not on the norm path")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        for sigma1, c, rows in [(2.0, 0.5, 101), (2.5, 0.5, 126), (1.0, 0.5, 101), (3.0, 1.5, 151),
                                (1.6, 0.3, 201), (3.0, 2.5, 201), (4.0, 3.5, 201),
                                (50.5 + 1e-12, 50.0, 201)]:
            est = operator_norm_estimate(build_matrix(DirichletSymbol(sigma1, c), rows - 1, 20000))
            assert est.converged and est.iterations == 1, (sigma1, c, rows)

    @pytest.mark.parametrize("sigma1, c", [(1.0, 0.5), (3.0, 2.5), (4.0, 3.5)])
    def test_boundary_symbols_certify_in_two_steps(self, sigma1, c):
        m = build_matrix(DirichletSymbol(sigma1, c), 200, 20000)
        est = operator_norm_estimate(m)
        assert est.converged and est.iterations <= 2
        assert est.upper == math.inf
        top = float(np.linalg.svd(m.magnitudes, compute_uv=False)[0])
        assert est.lower == pytest.approx(top, rel=1e-11)

    @pytest.mark.parametrize("sigma1, c", [(80.0, 79.5), (400.0, 0.1)])
    def test_underflowing_rows(self, sigma1, c):
        # row 0 leaves the normal range at j = 7000 for (80, 79.5) and at
        # j = 6 for (400, 0.1), whose columns past j = 6 are exactly zero:
        # the iterate is floored there, and no 0/0 or overflow warns
        m = build_matrix(DirichletSymbol(sigma1, c), 40, 20000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = operator_norm_estimate(m)
        assert est.converged
        top = float(np.linalg.svd(m.magnitudes, compute_uv=False)[0])
        assert est.lower == pytest.approx(top, rel=1e-11)
        assert est.lower <= top
        # (80, 79.5) is a boundary symbol: no tail bound, so no finite upper
        assert est.upper == math.inf if sigma1 == 80.0 else top <= est.upper - m.tail_bound

    def test_upper_end_charges_the_dropped_rows(self, monkeypatch):
        # ||B|| <= ||B_k|| + ||rows k..I||_F: whatever the cut rows are
        # charged is added to the upper end, and the lower end ignores it
        sym = DirichletSymbol(1.6, 0.3)
        m = build_matrix(sym, 60, 2000)
        k, dropped = operator_matrix._significant_rows(sym, 60, 2000)
        assert 0.0 < dropped and k < 61
        base = operator_norm_estimate(m)
        monkeypatch.setattr(operator_matrix, "_significant_rows", lambda *args: (k, 0.5))
        charged = operator_norm_estimate(m)
        assert charged.lower == base.lower
        assert charged.upper >= base.upper - dropped + 0.5

    def test_hostile_brackets_hold_the_exact_norm(self):
        # gaps from 1e-12 to 10, |c2| up to 50, sigma1 up to 400, I <= 30,
        # J <= 300: [lower, upper - tail_bound] must hold the 60-digit norm
        # of the whole (I+1) x J block, also where rows are cut
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @st.composite
        def symbols(draw):
            c = math.exp(draw(st.floats(math.log(1e-3), math.log(50.0))))
            if draw(st.booleans()):
                return 0.5 + c + math.exp(draw(st.floats(math.log(1e-12), math.log(10.0)))), c
            return draw(st.floats(0.5 + c + 10.0, 400.0)), c

        cut = []

        @hypothesis.settings(
            max_examples=30,
            deadline=None,
            derandomize=True,
            database=None,
            suppress_health_check=[hypothesis.HealthCheck.too_slow],
        )
        @hypothesis.given(symbols(), st.integers(0, 30), st.integers(1, 300))
        def check(symbol, i_max, j_max):
            sym = DirichletSymbol(*symbol)
            m = build_matrix(sym, i_max, j_max)
            est = operator_norm_estimate(m)
            exact = mp_block_norm(sym, i_max, j_max)
            assert est.lower <= exact <= est.upper - exact.context.mpf(m.tail_bound)
            cut.append(operator_matrix._significant_rows(sym, i_max, j_max)[0] <= i_max)

        check()
        assert any(cut) and not all(cut)

    def test_bracket_is_sound(self):
        # lower <= sigma_max <= upper - tail_bound, sigma_max the 60-digit
        # top singular value of the built block: gaps from 1e-12 to 10,
        # |c2| up to 50, sigma1 up to 400, I <= 30, J <= 300; then columns
        # past sigma1 ln j = 700 from j = 6312 (a boundary symbol, whose
        # upper end is infinite) and from j = 6, and all 101 rows kept at
        # 1e-12 above the boundary line
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        def assert_sound(sym, i_max, j_max):
            m = build_matrix(sym, i_max, j_max)
            est = operator_norm_estimate(m)
            sigma = mp_top_singular_value(m.magnitudes)
            assert est.lower <= sigma, (sym, i_max, j_max)
            if math.isfinite(est.upper):
                assert sigma <= est.upper - sigma.context.mpf(m.tail_bound), (sym, i_max, j_max)

        @st.composite
        def symbols(draw):
            c = math.exp(draw(st.floats(math.log(1e-3), math.log(50.0))))
            if draw(st.booleans()):
                return 0.5 + c + math.exp(draw(st.floats(math.log(1e-12), math.log(10.0)))), c
            return draw(st.floats(0.5 + c + 10.0, 400.0)), c

        @hypothesis.settings(
            max_examples=30,
            deadline=None,
            derandomize=True,
            database=None,
            suppress_health_check=[hypothesis.HealthCheck.too_slow],
        )
        @hypothesis.given(symbols(), st.integers(0, 30), st.integers(1, 300))
        def check(symbol, i_max, j_max):
            assert_sound(DirichletSymbol(*symbol), i_max, j_max)

        check()
        for sigma1, c, i_max, j_max in [
            (80.0, 79.5, 40, 20000), (400.0, 0.1, 40, 20000), (50.5 + 1e-12, 50.0, 100, 2000)
        ]:
            assert_sound(DirichletSymbol(sigma1, c), i_max, j_max)

    def test_gram_matrix_under_the_entry_cap(self, monkeypatch):
        # 31 x 3 = 93 entries fit under a cap of 100, but (5.5, 5) keeps all
        # 31 rows, and their Gram matrix would hold 961
        monkeypatch.setenv(MAX_ENTRIES_ENV, "100")
        m = build_matrix(DirichletSymbol(5.5, 5.0), 30, 3)
        with pytest.raises(MatrixSizeError, match="961 entries"):
            operator_norm_estimate(m)
        monkeypatch.setenv(MAX_ENTRIES_ENV, "961")
        assert operator_norm_estimate(m).converged

    def test_parameter_validation(self):
        m = build_matrix(DirichletSymbol(2.0, 0.5), 2, 5)
        with pytest.raises(DomainError):
            operator_norm_estimate(m, tol=0.0)


class TestSingularValues:
    def test_against_dense_svd_oracle(self):
        # contract: 1e-8 relative agreement on sizes <= 200
        m = build_matrix(DirichletSymbol(2 + 1j, 0.5 * np.exp(0.7j)), 30, 120)
        spec = singular_values(m, 16)
        oracle = mp_singular_values(m.entries)[:16]
        top = oracle[0]
        for mine, ref in zip(spec.values, oracle):
            assert abs(mine - ref) <= 1e-8 * ref + 1e-14 * top
        assert spec.truncation == (30, 120)

    def test_phased_block_matches_dense_svd(self):
        # the norm and the spectrum come from B; the phased complex export
        # must have the same ones, to within the spectrum's resolution
        for sym in PHASED_SYMBOLS:
            m = build_matrix(sym, 30, 400)
            reference = np.linalg.svd(m.entries, compute_uv=False)
            spec = singular_values(m, 31)
            assert np.max(np.abs(spec.values - reference)) <= spec.resolution, sym
            lower = operator_norm_estimate(m).lower
            assert lower == pytest.approx(reference[0], rel=1e-10)
            assert lower <= reference[0] * (1.0 + 1e-13)

    def test_sorted_and_nonnegative(self):
        spec = singular_values(build_matrix(DirichletSymbol(1.0, 0.5), 20, 300), 15)
        assert np.all(np.diff(spec.values) <= 0)
        assert np.all(spec.values >= 0)

    def test_constant_symbol_rank_one(self):
        j_max = 500
        m = build_matrix(DirichletSymbol(0.75, 0.0), 5, j_max)
        spec = singular_values(m, 3)
        expected = math.sqrt(float(np.sum(np.arange(1.0, j_max + 1.0) ** -1.5)))
        assert spec.values[0] == pytest.approx(expected, rel=1e-13)
        assert spec.values[1] == pytest.approx(0.0, abs=1e-14)
        assert spec.values[2] == pytest.approx(0.0, abs=1e-14)

    def test_phase_invariance(self):
        specs = [
            singular_values(build_matrix(DirichletSymbol(c1, complex(c2)), 25, 800), 10)
            for c1, c2 in [(2.0, 0.5), (2 + 5j, 0.5), (2.0, 0.5 * np.exp(2j))]
        ]
        for other in specs[1:]:
            assert np.max(np.abs(specs[0].values - other.values)) < 1e-10

    def test_approx_number_dominance(self):
        # sigma_(N+1) of any truncation is below the geometric bound
        spec = singular_values(build_matrix(DirichletSymbol(2.0, 0.5), 30, 2000), 16)
        for n in range(1, 16):
            assert spec.values[n] <= math.sqrt(1.5) * (1.0 / 3.0) ** n + 1e-9

    def test_count_validation(self):
        m = build_matrix(DirichletSymbol(2.0, 0.5), 4, 100)
        with pytest.raises(DomainError):
            singular_values(m, 0)
        with pytest.raises(DomainError):
            singular_values(m, 6)  # min(I+1, J) = 5


class TestSchurCertificate:
    def test_verdict_true_at_schur_radius(self):
        sym = DirichletSymbol(2.0, 0.5)
        r = schur_radius(2.0, 0.5)
        cert = schur_certificate(sym, r, 60, 5000)
        assert cert.verdict
        assert cert.alpha == 1.0
        assert cert.beta == pytest.approx(zeta(4.0 - r * 0.5).value, rel=1e-14)
        assert cert.max_row_residual == 0.0
        # the closed-form row ratio h(s) / zeta(s) at s = 3.914
        assert cert.row_bound == pytest.approx(0.588, abs=1e-3)
        assert cert.implied_norm_bound == pytest.approx(math.sqrt(cert.beta), rel=1e-12)

    def test_row_zero_is_exact(self):
        # row 0 is sum_j j^-s = zeta(s), below beta's upper end, and every
        # row i >= 1 is proven at once: the truncation arguments are only
        # validated, and I = 0 reads exactly as I = 60
        sym = DirichletSymbol(2.0, 0.5)
        r = schur_radius(2.0, 0.5)
        cert = schur_certificate(sym, r, 0, 5000)
        assert cert.max_row_residual == 0.0 and cert.verdict
        assert schur_certificate(sym, r, 60, 5000) == cert
        assert schur_certificate(sym, r, 1000, 1) == cert

    def test_deep_columns_do_not_fail_the_verdict(self):
        # r |c2| ln j reaches 900 here, far past I: a checked column series
        # would read a remainder past e^709, but the column sums are the
        # exponential series exactly, and every row holds
        cert = schur_certificate(DirichletSymbol(200.0, 150.0), 1.0, 400, 400)
        assert cert.verdict
        assert cert.implied_norm_bound == math.nextafter(math.sqrt(zeta(250.0).upper), math.inf)

    def test_implied_bound_dominates_computed_norm(self):
        sym = DirichletSymbol(2.0, 0.5)
        cert = schur_certificate(sym, schur_radius(2.0, 0.5), 40, 2000)
        est = operator_norm_estimate(build_matrix(sym, 40, 2000))
        assert est.lower <= cert.implied_norm_bound + 1e-12

    def test_verdict_false_below_root_interval(self):
        # P(0.1) > 0 for (2, 0.5): deep rows must violate their inequality
        cert = schur_certificate(DirichletSymbol(2.0, 0.5), 0.1, 60, 5000)
        assert not cert.verdict
        assert cert.max_row_residual > 1.0
        assert cert.implied_norm_bound is None

    @pytest.mark.parametrize("r", [8.7e-16, 1e-300])
    def test_rounding_past_its_model_fails_the_verdict(self, r):
        # r |c2| is so small that s = 2 sigma1 - r |c2| rounds to 2 sigma1,
        # which no longer determines r; P(r) > 0, decided exactly, fails
        # the verdict whatever s rounds to
        cert = schur_certificate(DirichletSymbol(2.0, 0.5), r, 1, 400)
        assert not cert.verdict
        assert cert.max_row_residual == math.inf and cert.row_bound == math.inf
        assert cert.implied_norm_bound is None

    def test_gamma_is_infinite_past_its_model(self):
        assert operator_matrix._gamma(5) == 5 * UNIT_ROUNDOFF / (1.0 - 5 * UNIT_ROUNDOFF)
        assert operator_matrix._gamma(2**53) == math.inf
        assert operator_matrix._gamma(2**60) == math.inf

    def test_boundary_symbol_at_r_one(self):
        cert = schur_certificate(DirichletSymbol(1.0, 0.5), 1.0, 60, 5000)
        assert cert.verdict
        assert cert.beta == pytest.approx(zeta(1.5).value, rel=1e-13)
        assert abs(cert.max_row_residual) < 1e-10

    def test_random_compact_symbols_accept_their_radius(self):
        # |c2| from 0.05 to 50, gaps sigma1 - 1/2 - |c2| from 1e-6 to 2.5,
        # each at a shallow and a deep row truncation; arg c2 = 0.5 makes
        # abs round, so P is decided one ulp above the float |c2|
        rng = np.random.default_rng(17)
        for _ in range(100):
            c = float(10.0 ** rng.uniform(math.log10(0.05), math.log10(50.0)))
            gap = float(10.0 ** rng.uniform(-6.0, math.log10(2.5)))
            for c2 in (c, c * np.exp(0.5j)):
                sym = DirichletSymbol(0.5 + abs(c2) + gap, c2)
                r = schur_radius(sym.sigma1, sym.c2_abs)
                for i_max in (8, 64):
                    cert = schur_certificate(sym, r, i_max, 400)
                    assert cert.verdict, (sym.sigma1, c2, i_max, cert)

    def test_residuals_match_independent_oracle(self):
        # every row's ratio to zeta(s) r^i, from 40-digit zeta derivatives:
        # row i sums to |c2|^i / i! (-1)^i zeta^(i)(s), and row 0 to zeta(s);
        # none may exceed 1 + max_row_residual, nor row_bound beyond the
        # certified width of beta
        mpmath = pytest.importorskip("mpmath")
        cases = [
            (DirichletSymbol(2.0, 0.5), schur_radius(2.0, 0.5)),
            (DirichletSymbol(2.0, 0.5), 0.5),
            (DirichletSymbol(1.0, 0.5), 1.0),
            (DirichletSymbol(3.0, 2.0), 0.5),  # P(0.5) = 0 exactly
            (DirichletSymbol(3.0, 2.0), 0.75),
            (DirichletSymbol(1.6, 0.3), schur_radius(1.6, 0.3)),
            (DirichletSymbol(51.0, 50.0), schur_radius(51.0, 50.0)),
        ]
        for sym, r in cases:
            cert = schur_certificate(sym, r, 40, 1000)
            assert cert.verdict and cert.row_bound < 1.0, (sym, r)
            with mpmath.workdps(40):
                c, rr = mpmath.mpf(sym.c2_abs), mpmath.mpf(r)
                s = 2 * mpmath.mpf(sym.sigma1) - rr * c
                beta = mpmath.zeta(s)
                for i in (*range(1, 13), 20, 40):
                    row = c**i / mpmath.factorial(i) * (-1) ** i * mpmath.zeta(s, 1, i)
                    ratio = row / (beta * rr**i)
                    assert ratio <= cert.row_bound * (1 + 1e-12), (sym, r, i)
                    assert ratio <= 1 + cert.max_row_residual, (sym, r, i)

    def test_row_bound_lemma_against_mpmath(self):
        # (-1)^i zeta^(i)(s) = sum_j (ln j)^i j^-s <= i!/(s-1)^(i+1) + (i/(s e))^i,
        # the integral plus the peak of a unimodal summand; at large i the
        # bound is tight below 40 digits (1 - ratio reads about -2e-41 at
        # s = 1.05), so it holds up to a relative 1e-35
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for s in (1.05, 1.5, 2.0, 3.414, 7.0):
                s = mpmath.mpf(s)
                for i in (*range(1, 11), 15, 20, 30, 50, 80, 120, 160, 200):
                    moment = (-1) ** i * mpmath.zeta(s, 1, i)
                    bound = mpmath.factorial(i) / (s - 1) ** (i + 1) + (i / (s * mpmath.e)) ** i
                    assert moment <= bound * (1 + mpmath.mpf(10) ** -35), (s, i)

    @pytest.mark.parametrize(
        "sigma1, c, i_max, j_max",
        [
            (51.0, 50.0, 60, 20000),  # every row peaks at j <= 2, the left edge
            (2.0, 0.5, 400, 2000),
            (2.0, 0.5, 1000, 2000),
            (200.0, 150.0, 60, 5000),
            (200.0, 1.0, 40, 3000),
            (2.0, 0.5, 40, 2),
            (2.0, 0.5, 40, 3),
            # row 1's terms at small j underflow, and deep rows peak there
            (200.0, 150.0, 1000, 5000),
            (2.0, 0.5, 40, 32770),  # rows longer than 2^15 columns
        ],
    )
    def test_streamed_matches_dense_reference(self, sigma1, c, i_max, j_max):
        # at the Schur radius every dense row holds below the closed-form
        # bound; at 0.9 times it P(r) > 0, the certificate reads +inf and
        # deep dense rows fail
        sym = DirichletSymbol(sigma1, c)
        for r in (schur_radius(sigma1, c), 0.9 * schur_radius(sigma1, c)):
            assert_dominates_dense(sym, r, i_max, j_max)
        assert not schur_certificate(sym, 0.9 * schur_radius(sigma1, c), i_max, j_max).verdict

    def test_hostile_symbols_match_dense_reference(self):
        # |c2| in [0.05, 200], gaps in [1e-6, 10], up to 1000 rows and 2e4
        # columns but at most 2e6 dense entries; r from half the Schur radius,
        # where deep rows fail, to the radius, where every row holds
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @st.composite
        def truncations(draw):
            i_max = draw(st.integers(1, 1000))
            return i_max, draw(st.integers(2, min(20000, 2 * 10**6 // i_max)))

        @hypothesis.settings(
            max_examples=40,
            deadline=None,
            derandomize=True,
            database=None,
            suppress_health_check=[hypothesis.HealthCheck.too_slow],
        )
        @hypothesis.given(
            st.floats(math.log(0.05), math.log(200.0)),
            st.floats(math.log(1e-6), math.log(10.0)),
            st.floats(0.5, 1.0),
            truncations(),
        )
        def check(log_c, log_gap, scale, truncation):
            c = math.exp(log_c)
            sym = DirichletSymbol(0.5 + c + math.exp(log_gap), c)
            assert_dominates_dense(sym, scale * schur_radius(sym.sigma1, c), *truncation)

        check()

    def test_overflowing_residuals_read_infinite(self):
        # r^i below e^-709 on deep rows: the residual is +inf and the
        # verdict false, without an exception
        rows = schur_certificate(DirichletSymbol(51.0, 50.0), 0.1, 1000, 400)
        assert rows.max_row_residual == math.inf and not rows.verdict
        assert rows.implied_norm_bound is None

    def test_streamed_memory_is_bounded(self):
        # no block and no row is held, whatever I and J; the dense block of
        # this check would take 156 MiB
        sym = DirichletSymbol(2.5, 0.8)
        tracemalloc.start()
        try:
            schur_certificate(sym, schur_radius(2.5, 0.8), 40, 5 * 10**5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_tails_are_recorded(self):
        # the closed-form bound covers each row's full sum, tail included
        cert = schur_certificate(DirichletSymbol(2.0, 0.5), 0.5, 20, 200)
        assert 0.0 < cert.row_bound < 1.0

    @pytest.mark.parametrize(
        "sigma1, c, fraction",
        [(2.0, 0.5, 0.19), (1.6, 0.3, 0.295), (3.0, 1.0, 0.065), (1.51, 1.0, 0.235),
         (5.55, 5.0, 0.005)],
    )
    def test_precondition_is_checked(self, sigma1, c, fraction):
        # below the radius P(r) > 0: row 1 alone holds, but deep rows fail,
        # and sqrt(zeta(2 sigma1 - r |c2|)) lies below the norm itself
        sym = DirichletSymbol(sigma1, c)
        r = fraction * schur_radius(sigma1, c)
        cert = schur_certificate(sym, r, 1, 20000)
        assert not cert.verdict and cert.max_row_residual == math.inf
        assert cert.implied_norm_bound is None
        if (sigma1, c) in ((2.0, 0.5), (1.51, 1.0)):
            est = operator_norm_estimate(build_matrix(sym, 60, 20000))
            assert est.lower > math.sqrt(zeta(2.0 * sigma1 - r * c).upper)

    @pytest.mark.parametrize("sigma1, c2", [(2.0, 0.5), (1.6, 0.3), (2.5, 0.8 * np.exp(1j))])
    def test_one_ulp_below_the_root_fails(self, sigma1, c2):
        # the least float r with P(r) <= 0, decided on Fractions at the
        # certificate's |c2|, passes; the float below it reads +inf
        from fractions import Fraction

        sym = DirichletSymbol(sigma1, c2)
        c = Fraction(c2_abs_upper(sym))

        def holds(r):
            return c * Fraction(r) ** 2 + (1 - 2 * Fraction(sigma1)) * Fraction(r) + c <= 0

        r = schur_radius(sigma1, sym.c2_abs)
        while holds(math.nextafter(r, 0.0)):
            r = math.nextafter(r, 0.0)
        assert holds(r) and schur_certificate(sym, r, 40, 2000).verdict
        below = schur_certificate(sym, math.nextafter(r, 0.0), 40, 2000)
        assert not below.verdict and below.max_row_residual == math.inf

    def test_parameter_validation(self):
        sym = DirichletSymbol(2.0, 0.5)
        for bad_r in (0.0, -0.5, 1.5, math.inf, math.nan):
            with pytest.raises(DomainError):
                schur_certificate(sym, bad_r, 10, 50)
        with pytest.raises(DomainError):
            schur_certificate(DirichletSymbol(0.75, 0.0), 0.5, 10, 50)
        for i_max, j_max in ((-1, 50), (10, 0), (1.5, 50)):
            with pytest.raises(DomainError):
                schur_certificate(sym, 0.5, i_max, j_max)


class TestMatrixDump:
    def test_round_trip_bit_exact(self, tmp_path):
        m = build_matrix(DirichletSymbol(2 + 1j, 0.5 * np.exp(1j)), 4, 7)
        path = tmp_path / "matrix.txt"
        write_matrix(m, path)
        header = path.read_text().splitlines()[0]
        assert header == "4 7"
        assert np.array_equal(read_matrix(path), m.entries)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        for text in (
            "only-one-token\n",
            "a b\n",  # non-integer header
            "0 1\nzz 0\n",  # non-numeric body cell
            "-3 1\n",  # header outside the truncation domain
            "0 1\n",  # a valid header and no body
        ):
            path.write_text(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError):
                    read_matrix(path)
