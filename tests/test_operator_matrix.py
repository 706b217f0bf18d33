"""Tests for the truncated-matrix module.

Independent oracles keep the implementation honest: a brute-force series
summation for column norms, an 80-digit mpmath eigendecomposition of the
Gram matrix for singular spectra (the module itself calls LAPACK), 40-digit
zeta derivatives for the Schur rows, and a dense log-space reference that
the closed-form Schur bound must dominate.
"""

import math
import subprocess
import sys
import threading
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
from dirichletops.special_functions import UNIT_ROUNDOFF, log_moment_tail, zeta
from dirichletops.symbol import DirichletSymbol


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
    return np.array(
        [
            i * math.log(sym.c2_abs) - math.lgamma(i + 1.0) + log_moment_tail(s, i, j_max)
            for i in range(1, i_max + 1)
        ]
    )


def dense_schur_ratio(sym, r, i_max, j_max):
    """Largest ratio over rows 1..I of a Schur row's left side (its sum over
    j <= J plus the certified column tail) to beta_low r^i, from the whole
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
        # about 1,250u at 201 x 20000, a quarter of the log-space model's
        # 4 (M + 2) u there
        eta = operator_matrix._entry_rounding(DirichletSymbol(1.6, 0.3), 200, 20000)
        assert eta < 1260 * UNIT_ROUNDOFF

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
        assert build_matrix(sym, 4, 20)._filled == 0  # 100 entries: at the cap, no row filled
        monkeypatch.setenv(MAX_ENTRIES_ENV, "not-a-number")
        with pytest.raises(MatrixSizeError):
            build_matrix(sym, 1, 1)


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
        sym = DirichletSymbol(c1, complex(c2))
        full = build_matrix(sym, i_max, j_max).magnitudes
        m = build_matrix(sym, i_max, j_max)
        for k in (1, 2, 7, i_max // 2, i_max + 1):
            rows = m._rows(min(k, i_max + 1))
            assert not rows.flags.writeable
            assert np.array_equal(rows, full[: rows.shape[0]])
        assert np.array_equal(m.magnitudes, full)
        assert np.array_equal(m.entries, build_matrix(sym, i_max, j_max).entries)

    def test_fill_order_does_not_matter(self):
        sym = DirichletSymbol(1.6, 0.3)
        m = build_matrix(sym, 200, 2000)
        first = m._rows(5).copy()
        assert m._filled == 5
        full = build_matrix(sym, 200, 2000).magnitudes
        assert np.array_equal(first, full[:5])
        assert np.array_equal(m.magnitudes, full)
        assert m._filled == 201
        assert m.magnitudes is m.magnitudes

    def test_norm_fills_only_the_rows_it_iterates(self):
        sym = DirichletSymbol(1.6, 0.3)
        m = build_matrix(sym, 400, 50000)
        assert m._filled == 0
        operator_norm_estimate(m)
        k = operator_matrix._significant_rows(sym, 400, 50000)[0]
        assert k < 30 and m._filled == k

    def test_threads_read_identical_blocks(self):
        # more threads than cores, switching every microsecond, ask for
        # overlapping row counts: each gets the rows of a full fill, and the
        # filled count ends at the most rows asked for
        sym = DirichletSymbol(2.0, 0.5)
        full = build_matrix(sym, 100, 20000).magnitudes
        m = build_matrix(sym, 100, 20000)
        wants = (101, 7, 101, 40, 3, 101)
        barrier = threading.Barrier(len(wants))
        got = [None] * len(wants)

        def read(slot):
            barrier.wait(timeout=60)
            got[slot] = m.magnitudes if wants[slot] == 101 else m._rows(wants[slot])

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
        for k, rows in zip(wants, got):
            assert np.array_equal(rows, full[:k])
        assert got[0] is got[2] is got[5]
        assert m._filled == 101


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
        # for (2, 0.5) the row part is sum_{k>I} (1/9)^k * 4/3 in closed form
        sym = DirichletSymbol(2.0, 0.5)
        for i_max in (0, 3, 10):
            row_part = math.sqrt((4.0 / 3.0) * (1.0 / 9.0) ** (i_max + 1) / (1 - 1.0 / 9.0))
            t = tail_bounds(sym, i_max, 10**6)
            # column part at J = 1e6 adds only a few 1e-9 in absolute terms
            assert 0.0 <= t - row_part <= 1e-8

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

    @pytest.mark.parametrize("sigma1, c, j_max", [(2.0, 0.5, 50), (1.6, 0.3, 20000), (3.0, 1.5, 20000)])
    def test_negligible_rows_cost_no_moment_tail(self, sigma1, c, j_max, monkeypatch):
        # past the row k_t where the closed-form row tail falls below u times
        # the i = 0 column tail, rows are charged by that closed form alone:
        # no moment tail is computed for them, the bound stops depending on
        # I, and it stays within 2u of the row-by-row sum over every column
        # tail
        sym = DirichletSymbol(sigma1, c)
        s, rho_sq = 2.0 * sigma1, (2.0 * c / (2.0 * sigma1 - 1.0)) ** 2
        i_max = 300
        col_sq = sum(
            math.exp(2.0 * i * math.log(c) - 2.0 * math.lgamma(i + 1.0) + log_moment_tail(s, 2 * i, j_max))
            for i in range(i_max + 1)
        )
        full = math.sqrt((s / (s - 1.0)) * rho_sq ** (i_max + 1) / (1.0 - rho_sq) + col_sq)
        calls = []

        def counted(*args):
            calls.append(args)
            return log_moment_tail(*args)

        monkeypatch.setattr(operator_matrix, "log_moment_tail", counted)
        t = tail_bounds(sym, i_max, j_max)
        k_t = len(calls)
        assert k_t < 150
        assert t == tail_bounds(sym, 150, j_max) and len(calls) == 2 * k_t
        assert abs(t - full) <= 2.0 * UNIT_ROUNDOFF * full

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


def mp_top_singular_value(block, dps=60):
    """Largest singular value of a float block, from the top eigenvalue of
    its smaller Gram matrix in dps-digit arithmetic, as an mpf."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    with mp.workdps(dps):
        m = mp.matrix(block.tolist())
        gram = m * m.T if block.shape[0] <= block.shape[1] else m.T * m
        return mp.sqrt(max(mp.eigsy(gram, eigvals_only=True)))


def tied_block(gap):
    """A block like build_matrix's (B <= 1, column j = 1 is (1, 0, 0)) whose
    top singular values 1 and 1 - gap belong to rows 0 and 2.  Its Gram
    matrix is not Hankel, so the start vector mixes the two."""
    b = np.zeros((3, 4))
    b[0, 0] = 1.0
    b[1, 1:3] = 0.1
    b[2, 3] = 1.0 - gap
    return b


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
        est = operator_norm_estimate(m, tol=1e-12, max_iter=1000)
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

    def test_non_convergence_is_flagged(self):
        # top pair 1 and 1 - 1e-4: the weight of the second vector falls by
        # (1 - 1e-4)^2 a step, far too slowly for three steps
        m = operator_matrix.TruncatedMatrix(tied_block(1e-4), DirichletSymbol(2.0, 0.5))
        est = operator_norm_estimate(m, max_iter=3)
        assert not est.converged
        assert est.iterations == 3
        # the bracket is still proven
        assert 0.99 < est.lower <= 1.0 <= est.upper - m.tail_bound
        assert est.upper - m.tail_bound < 1.0 + 1e-14

    def test_rounding_terms_against_mpmath(self):
        # the bracket holds the block's exact norm; the plain Rayleigh
        # quotient of (2, 0.5) at 21 x 500 sits 4e-16 above it
        m = build_matrix(DirichletSymbol(2.0, 0.5), 20, 500)
        est = operator_norm_estimate(m)
        exact = mp_top_singular_value(m.magnitudes)
        assert est.lower <= exact <= est.upper - exact.context.mpf(m.tail_bound)
        assert est.upper - m.tail_bound <= exact * (1.0 + 1e-12)
        assert est.converged and est.iterations == 1

    @pytest.mark.parametrize("sigma1, c", [(2.0, 0.5), (51.0, 50.0)])
    def test_bracket_covers_entry_rounding(self, sigma1, c):
        # a block within the entry model of the built one, whose exact norm
        # stands in for ||B||: every entry 0.99 eta above it, then every
        # entry 0.99 eta below.  At 201 x 20 eta (at least 1,200u) passes the
        # power step's own rounding terms (about 310u and 110u on the two
        # ends), so the bracket holds only if it charges eta
        sym = DirichletSymbol(sigma1, c)
        m = build_matrix(sym, 200, 20)
        exact = mp_top_singular_value(m.magnitudes)
        eta = operator_matrix._entry_rounding(sym, 200, 20)
        high = operator_matrix.TruncatedMatrix(m.magnitudes * (1.0 + 0.99 * eta), sym)
        low = operator_matrix.TruncatedMatrix(m.magnitudes * (1.0 - 0.99 * eta), sym)
        assert operator_norm_estimate(high).lower <= exact
        assert exact <= operator_norm_estimate(low).upper - exact.context.mpf(m.tail_bound)

    @pytest.mark.parametrize("tol", [1e-15, 1e-16])
    def test_tolerance_below_rounding_stops_early(self, tol):
        # the computed gap stops shrinking at about 1e-15: the loop stops
        # there, unconverged, instead of running all max_iter steps
        m = build_matrix(DirichletSymbol(2.0, 0.5), 40, 2000)
        est = operator_norm_estimate(m, tol=tol)
        assert not est.converged and est.iterations <= 5
        top = float(np.linalg.svd(m.magnitudes, compute_uv=False)[0])
        assert est.lower <= top <= est.upper - m.tail_bound

    def test_slowly_shrinking_gap_still_converges(self):
        # the gap falls about tenfold per step here (14 steps); a shrinking
        # gap must not stop the loop
        m = build_matrix(DirichletSymbol(50.5 + 1e-12, 50.0), 200, 20000)
        est = operator_norm_estimate(m)
        assert est.converged and est.iterations >= 10

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

    def test_parameter_validation(self):
        m = build_matrix(DirichletSymbol(2.0, 0.5), 2, 5)
        with pytest.raises(DomainError):
            operator_norm_estimate(m, tol=0.0)
        with pytest.raises(DomainError):
            operator_norm_estimate(m, max_iter=0)


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

    def test_random_dense_oracle(self):
        # the SVD reads the nonnegative block, so a random one is injected there
        rng = np.random.default_rng(42)
        a = rng.random((40, 40))
        m = operator_matrix.TruncatedMatrix(a, DirichletSymbol(2.0, 0.5))
        spec = singular_values(m, 40)
        oracle = mp_singular_values(a)
        assert np.max(np.abs(spec.values - oracle) / oracle) < 1e-10

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
        assert operator_matrix._gamma(np.array([2.0**60]))[0] == math.inf

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
