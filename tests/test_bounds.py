"""Tests for the norm-bound module.

Reference values for zeta come from scipy.special.zeta, which is an
independent implementation from the certified Euler-Maclaurin evaluator the
bounds module uses internally.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sp

from dirichletops.bounds import (
    ApproxNumberBound,
    _line_integers,
    approx_number_bound,
    kernel_lower_bound,
    norm_bounds,
    schur_radius,
)
from dirichletops.errors import DomainError, NonCompactError
from dirichletops.operator_matrix import build_matrix, operator_norm_estimate
from dirichletops.special_functions import zeta
from dirichletops.symbol import EQ_TOL, DirichletSymbol, SymbolClass


def random_admissible_pairs(n, seed=0):
    """(sigma1, c2_abs) pairs strictly inside the admissible region."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        margin = float(rng.uniform(0.05, 3.5))
        sigma1 = 0.5 + margin
        c = float(rng.uniform(1e-6, 0.999)) * margin
        pairs.append((sigma1, c))
    return pairs


def least_radius(sigma1, c_up):
    """The least float r <= 1 with P(r) <= 0 exactly at c_up, decided with
    Fraction, or None where no such float exists; a 60-digit mpmath root
    is the starting point of the walk over floats."""
    mpmath = pytest.importorskip("mpmath")
    f1, fc = Fraction(sigma1), Fraction(c_up)

    def qualifies(r):
        fr = Fraction(r)
        return r <= 1.0 and fc * fr * fr + (1 - 2 * f1) * fr + fc <= 0

    b, two_c = 2 * f1 - 1, 2 * fc
    if b < two_c:
        return None
    with mpmath.workdps(60):
        mb = mpmath.mpf(b.numerator) / b.denominator
        mc = mpmath.mpf(two_c.numerator) / two_c.denominator
        r = min(float(mc / (mb + mpmath.sqrt(mb * mb - mc * mc))), 1.0)
    while not qualifies(r):
        r = math.nextafter(r, math.inf)
    while qualifies(math.nextafter(r, 0.0)):
        r = math.nextafter(r, 0.0)
    return r


def assert_radius_is_rounded_root(sigma1, c):
    """r is the least float with P(r) <= 0 exactly at |c2| one ulp up, or
    one ulp above it, and 1 where no float r <= 1 qualifies; where r < 1
    the |P(r)| <= 2e-12 scale of the theory benchmark's check holds."""
    r = schur_radius(sigma1, c)
    least = least_radius(sigma1, math.nextafter(c, math.inf))
    if least is None:
        assert r == 1.0, (sigma1, c, r)
        return
    assert r in (least, math.nextafter(least, math.inf)), (sigma1, c, r, least)
    if r < 1.0:
        f1, fc, fr = Fraction(sigma1), Fraction(c), Fraction(r)
        p_r = fc * fr * fr + (1 - 2 * f1) * fr + fc
        assert abs(p_r) <= 2e-12 * (fc * fr * fr + (2 * f1 - 1) * fr + fc), (sigma1, c, r)


class TestSchurRadius:
    def test_reference_value(self):
        # for sigma1 = 2, c = 0.5 the quadratic is r^2/2 - 3r + 1/2
        assert schur_radius(2.0, 0.5) == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-14)

    def test_boundary_symbols_give_radius_one(self):
        for t in (0.1, 0.3, 0.5):
            assert schur_radius(0.5 + t, t) == pytest.approx(1.0, abs=1e-12)

    def test_radius_at_the_largest_float(self):
        # |c2| is raised by its ulp on the integer side: to the next float up,
        # and past DBL_MAX, which has none, to 2^1024
        big = 1.7976931348623157e308
        n1, big_b, big_c, d = _line_integers(big, big, True)
        assert Fraction(big_c, 2 * d) == 2**1024 and Fraction(n1, d) == big
        assert schur_radius(big, big) == 1.0
        for sigma1, c in random_admissible_pairs(200, seed=4):
            n1, big_b, big_c, d = _line_integers(sigma1, c, True)
            assert Fraction(big_c, 2 * d) == Fraction(math.nextafter(c, math.inf))
            assert Fraction(big_b, d) == 2 * Fraction(sigma1) - 1 == Fraction(2 * n1 - d, d)
            _, _, big_c, d = _line_integers(sigma1, c, False)
            assert Fraction(big_c, 2 * d) == Fraction(c)

    def test_quadratic_root_property(self):
        for sigma1, c in random_admissible_pairs(1000, seed=11):
            r = schur_radius(sigma1, c)
            assert 0.0 < r <= 1.0
            residual = c * r * r + (1.0 - 2.0 * sigma1) * r + c
            scale = max(c, 2.0 * sigma1 - 1.0)
            assert abs(residual) <= 1e-10 * scale
            # r is the smaller root; the two roots multiply to 1
            assert r <= 2.0 * c / (2.0 * sigma1 - 1.0) * (1.0 + 1e-12)
            other = (2.0 * sigma1 - 1.0 - c * r) / c
            assert r * other == pytest.approx(1.0, rel=1e-9)

    def test_radius_satisfies_the_quadratic_exactly(self):
        # 20,000 seeded symbols, |c2| log-uniform in [0.05, 50] and gap
        # sigma1 - 1/2 - |c2| in [1e-12, 10]; the closed-form root in floats
        # misses P(r) <= 0 at 9,636 of them
        rng = np.random.default_rng(29)
        cs = 10.0 ** rng.uniform(math.log10(0.05), math.log10(50.0), 20000)
        gaps = 10.0 ** rng.uniform(-12.0, 1.0, 20000)
        for c, gap in zip(cs.tolist(), gaps.tolist()):
            assert_radius_is_rounded_root(0.5 + c + gap, c)

    def test_radius_on_hostile_symbols(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @hypothesis.given(
            st.floats(math.log(0.05), math.log(50.0)), st.floats(math.log(1e-12), math.log(10.0))
        )
        def check(log_c, log_gap):
            c = math.exp(log_c)
            assert_radius_is_rounded_root(0.5 + c + math.exp(log_gap), c)

        check()

    def test_radius_near_the_boundary_line(self):
        # gaps sigma1 - 1/2 - |c2| from -EQ_TOL to 1e-6, where a float
        # root rounds far above the exact one: it put r about 5.7e9 ulps
        # too high at (50.50000000001, 50)
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @hypothesis.given(st.floats(math.log(1e-3), math.log(1e3)), st.floats(-EQ_TOL, 1e-6))
        def check(log_c, gap):
            c = math.exp(log_c)
            sigma1 = 0.5 + c + gap
            hypothesis.assume(sigma1 >= 0.5 + c - EQ_TOL)
            assert_radius_is_rounded_root(sigma1, c)

        check()
        assert_radius_is_rounded_root(50.50000000001, 50.0)
        assert schur_radius(0.9999999999995, 0.5) == 1.0
        assert f"{schur_radius(3.5000000000015, 3.0):.12g}" == "0.999999000104"

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            schur_radius(2.0, 0.0)
        with pytest.raises(DomainError):
            schur_radius(0.6, 0.2)


class TestNormBounds:
    def test_compact_reference(self):
        rep = norm_bounds(DirichletSymbol(2.0, 0.5))
        assert rep.symbol_class is SymbolClass.COMPACT
        assert rep.schur_r == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-14)
        assert rep.lower_sq == pytest.approx(float(sp.zeta(4.0)), abs=5e-12)
        upper_arg = 4.0 - rep.schur_r * 0.5
        assert upper_arg == pytest.approx(2.5 + math.sqrt(2.0), abs=1e-13)
        assert rep.upper_sq == pytest.approx(float(sp.zeta(upper_arg)), abs=5e-12)
        assert rep.lower_sq < rep.upper_sq

    def test_boundary_reference(self):
        rep = norm_bounds(DirichletSymbol(1.0, 0.5))
        assert rep.symbol_class is SymbolClass.BOUNDARY
        assert rep.schur_r == pytest.approx(1.0, abs=1e-12)
        # bracket specializes to [zeta(2), zeta(1.5)]
        assert rep.lower_sq == pytest.approx(math.pi**2 / 6.0, abs=5e-12)
        assert rep.upper_sq == pytest.approx(float(sp.zeta(1.5)), abs=1e-11)

    def test_hostile_ends_against_mpmath(self):
        # gaps from 1e-12 to 10 above the boundary line, |c2| from 1e-2 to
        # 50, q up to 1e6, |Im c1| up to 100: each end lies within the
        # budget's 1e-12 max(1, zeta) of the 40-digit zeta at the floats'
        # exact argument, plus 4u s |zeta'(s)| for the rounding of the float
        # s = 2 sigma1 - r |c2|, and the radius is a rounded root of P
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        mpmath = pytest.importorskip("mpmath")
        u = 2.0**-53

        @hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
        @hypothesis.given(
            st.floats(math.log(1e-2), math.log(50.0)),
            st.floats(math.log(1e-12), math.log(10.0)),
            st.integers(2, 10**6),
            st.floats(-100.0, 100.0),
            st.floats(-math.pi, math.pi),
        )
        def check(log_c, log_gap, q, tau, arg):
            c = math.exp(log_c)
            c1 = complex(0.5 + c + math.exp(log_gap), tau)
            sym = DirichletSymbol(c1, c * cmath.exp(1j * arg), q)
            rep = norm_bounds(sym)
            sigma1, c_abs = mpmath.mpf(sym.sigma1), mpmath.mpf(sym.c2_abs)
            ends = [(rep.lower_sq, 2 * sigma1), (rep.upper_sq, 2 * sigma1 - rep.schur_r * c_abs)]
            for value, s in ends:
                exact = mpmath.zeta(s)
                slack = 1e-12 * max(1, exact) + 4 * u * s * abs(mpmath.zeta(s, derivative=1))
                assert abs(value - exact) <= slack, (sym, value, s)
            assert rep.schur_r == schur_radius(sym.sigma1, sym.c2_abs)
            assert_radius_is_rounded_root(sym.sigma1, sym.c2_abs)

        with mpmath.workdps(40):
            check()

    def test_constant_symbol_is_exact(self):
        rep = norm_bounds(DirichletSymbol(0.75, 0.0))
        assert rep.symbol_class is SymbolClass.CONSTANT
        assert rep.schur_r is None
        assert rep.lower_sq == rep.upper_sq == rep.kernel_lower_sq
        assert rep.lower_sq == pytest.approx(float(sp.zeta(1.5)), abs=1e-11)

    def test_constant_on_critical_line_rejected(self):
        # the norm is infinite there: zeta(1) diverges
        with pytest.raises(DomainError):
            norm_bounds(DirichletSymbol(0.5, 0.0))

    def test_kernel_bound_sits_inside_bracket(self):
        for c1, c2 in [(2.0, 0.5), (1.0, 0.5), (0.8, 0.25), (3.0, 0.1)]:
            rep = norm_bounds(DirichletSymbol(c1, c2))
            assert rep.lower_sq - 1e-9 <= rep.kernel_lower_sq <= rep.upper_sq + 1e-9

    def test_kernel_bound_dominates_limit(self):
        # the x -> inf limit of the kernel ratio is zeta(2 sigma1)
        sym = DirichletSymbol(1.0, 0.5)
        assert kernel_lower_bound(sym) >= math.pi**2 / 6.0 - 1e-12
        # on the boundary the kernel ratio peaks well above the limit
        assert kernel_lower_bound(sym) > math.pi**2 / 6.0 + 0.05

    def test_kernel_bound_is_taken_at_q_2(self):
        # the norm does not depend on q, so the kernel bound is the one at
        # q = 2, the largest: bit-identical for every q, and for q = 10
        # below the certified norm^2 lower end of the 101 x 2e4 truncation
        # and strictly above zeta(2 sigma1), which it would equal at q = 10
        for c1, c2 in [(2.0, 0.5), (1.0, 0.45)]:
            bounds = {kernel_lower_bound(DirichletSymbol(c1, c2, q)) for q in (2, 3, 10, 1000)}
            assert len(bounds) == 1
            sym = DirichletSymbol(c1, c2, 10)
            lower = operator_norm_estimate(build_matrix(sym, 100, 20000)).lower
            assert zeta(2.0 * c1).upper < bounds.pop() <= lower * lower

    def test_invariance_under_translation_and_rotation(self):
        # bounds depend on (Re c1, |c2|) only, bit for bit
        base = DirichletSymbol(complex(2.0, 0.0), complex(0.5, 0.0))
        ref = norm_bounds(base)
        for c1, c2 in [
            (complex(2.0, 17.3), complex(0.5, 0.0)),
            (complex(2.0, 0.0), 0.5 * np.exp(1j * 2.1)),
            (complex(2.0, -4.0), 0.5 * np.exp(-1j * 0.7)),
        ]:
            sym = DirichletSymbol(c1, complex(c2))
            # reconstruct with the exact floats the rotated symbol exposes,
            # since abs() of a rotated complex is not always bit-identical
            twin = DirichletSymbol(complex(sym.sigma1), complex(sym.c2_abs))
            rep = norm_bounds(sym)
            twin_rep = norm_bounds(twin)
            assert rep == twin_rep
            assert abs(rep.upper_sq - ref.upper_sq) <= 1e-12 * ref.upper_sq


class TestApproxNumberBound:
    def test_reference_values(self):
        ab = approx_number_bound(DirichletSymbol(2.0, 0.5))
        assert ab.prefactor**2 == pytest.approx(1.5, rel=1e-12)
        assert ab.ratio == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert ab.bound_at(0) == ab.prefactor
        assert ab.bound_at(5) == pytest.approx(ab.prefactor / 3.0**5, rel=1e-12)

    def test_bound_decreases_geometrically(self):
        ab = approx_number_bound(DirichletSymbol(1.2, 0.3))
        values = [ab.bound_at(n) for n in range(10)]
        ratios = [b / a for a, b in zip(values, values[1:])]
        assert all(abs(rho - ab.ratio) <= 1e-12 for rho in ratios)

    def test_invariants_on_random_symbols(self):
        for sigma1, c in random_admissible_pairs(300, seed=5):
            ab = approx_number_bound(DirichletSymbol(sigma1, c))
            assert 0.0 < ab.ratio < 1.0
            assert ab.prefactor > 1.0

    def test_boundary_symbol_rejected(self):
        # rounding can leave 2 sigma1 - 2|c2| - 1 slightly positive on the
        # boundary line; every such symbol must still be rejected
        for c in [0.5, *np.geomspace(0.01, 50.0, 2000)]:
            with pytest.raises(NonCompactError):
                approx_number_bound(DirichletSymbol(0.5 + float(c), float(c)))

    def test_rounded_outward(self):
        # prefactor, ratio and bound_at(n) lie at or above their 40-digit
        # values at the exact |c2| of the float components; rounded to
        # nearest, about half of the ratios fell below
        mpmath = pytest.importorskip("mpmath")
        for sigma1, c in random_admissible_pairs(300, seed=13):
            for c2 in (c, c * cmath.exp(0.7j)):
                ab = approx_number_bound(DirichletSymbol(sigma1, c2))
                with mpmath.workdps(40):
                    two_c = 2 * mpmath.sqrt(mpmath.mpf(c2.real) ** 2 + mpmath.mpf(c2.imag) ** 2)
                    b = 2 * mpmath.mpf(sigma1) - 1
                    ratio = two_c / b
                    prefactor = mpmath.sqrt(b * (b + 1) / (b * b - two_c * two_c))
                    assert ab.ratio >= ratio and ab.prefactor >= prefactor, (sigma1, c2)
                    for n in (1, 2, 7, 60, 400):
                        assert ab.bound_at(n) >= prefactor * ratio**n, (sigma1, c2, n)

    def test_largest_float_symbol_rejected_as_boundary(self):
        big = 1.7976931348623157e308
        for c2 in (big, big * cmath.exp(0.5j)):
            with pytest.raises(NonCompactError):
                approx_number_bound(DirichletSymbol(big, c2))

    def test_negative_index_rejected(self):
        ab = ApproxNumberBound(prefactor=2.0, ratio=0.5)
        with pytest.raises(DomainError):
            ab.bound_at(-1)
