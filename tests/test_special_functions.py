"""Tests for certified zeta, log-moment sums, and the comparison functions.

Oracles are deliberately independent of the library paths: zeta gets a brute
partial sum with an integral bracket, the log-moment tail is checked against
scipy's regularized incomplete gamma, and the crossing root is re-located by
scipy's brentq.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import gammaincc

from dirichletops import (
    BudgetExhaustedError,
    DomainError,
    PrecisionBudget,
    crossing_root,
    log_moment_sum,
    lower_bound_f,
    lower_bound_g,
    lower_bound_h,
    zeta,
)
from dirichletops import special_functions
from dirichletops.special_functions import (
    CertifiedValue,
    _log_tail_rounding,
    _moment_tail_integral,
    log_moment_tail_integral,
    verification_suite,
)
from mp_tails import mp_moment_tails

LOOSE = PrecisionBudget(abs_tol=1e-12, rel_tol=1e-7, max_terms=10**6)


def zeta_bracket_oracle(s: float, n: int = 10**6) -> tuple[float, float]:
    """Partial sum to n plus integral tail bracket; returns (mid, halfwidth)."""
    k = np.arange(1, n + 1, dtype=np.float64)
    partial = float(np.sum(k ** (-s)))
    hi = n ** (1.0 - s) / (s - 1.0)
    lo = (n + 1) ** (1.0 - s) / (s - 1.0)
    return partial + 0.5 * (hi + lo), 0.5 * (hi - lo)


def log_moment_partial_oracle(s: float, i: int, n: int = 10**6) -> float:
    k = np.arange(2, n + 1, dtype=np.float64)
    lk = np.log(k)
    return float(np.sum(lk**i * k ** (-s)))


def test_zeta_matches_integral_bracket_oracle():
    for s in (1.1, 1.5, 2.0, 4.0, 10.0):
        z = zeta(s)
        mid, hw = zeta_bracket_oracle(s)
        assert abs(z.value - mid) <= z.error_bound + hw + 1e-13


def test_zeta_reference_values():
    z2 = zeta(2.0)
    assert abs(z2.value - math.pi**2 / 6.0) <= z2.error_bound + 1e-15
    z4 = zeta(4.0)
    assert abs(z4.value - math.pi**4 / 90.0) <= z4.error_bound + 1e-15
    # frozen from the bracket oracle at n = 10^6
    assert abs(z2.value - 1.6449340668482269) <= 2e-12
    assert abs(z4.value - 1.0823232337111381) <= 2e-12


def test_zeta_error_bound_honors_budget():
    for abs_tol, rel_tol in ((1e-6, 1e-6), (1e-9, 1e-12), (1e-12, 1e-12)):
        budget = PrecisionBudget(abs_tol=abs_tol, rel_tol=rel_tol, max_terms=10**6)
        for s in (1.01, 2.0, 7.7):
            z = zeta(s, budget)
            assert z.error_bound <= max(abs_tol, rel_tol * abs(z.value))


def test_zeta_elementary_bracket_on_grid():
    # 1/(s-1) <= zeta(s) <= s/(s-1), checked through the certified enclosure
    for s in np.geomspace(1.001, 100.0, 501)[1:]:
        z = zeta(float(s))
        assert z.value + z.error_bound >= 1.0 / (s - 1.0) - 1e-12
        assert z.value - z.error_bound <= s / (s - 1.0) + 1e-12


def test_zeta_monotone_on_grid():
    # above s ~ 52 the values hit the 1.0 ulp plateau, so stop at 50
    values = [zeta(float(s)).value for s in np.geomspace(1.01, 50.0, 120)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_zeta_large_s_tends_to_one():
    z = zeta(50.0)
    assert z.value >= 1.0
    assert abs(z.value - (1.0 + 2.0**-50.0)) <= z.error_bound + 1e-15


def test_zeta_at_huge_and_infinite_s():
    # past s = 2^11 zeta is 1 with the series' rounding bound 7u, returned at
    # once: the remainder's coefficient s (s+1) (s+2) / 720 overflowed from
    # about s = 5e99, and at s = inf the series loop never ended
    series = zeta(2048.0)
    assert series == CertifiedValue(1.0, 7.0 * 2.0**-53)
    for s in (2048.5, 1e200, 2e200, 1e308, math.inf):
        assert zeta(s) == series, s
    with pytest.raises(BudgetExhaustedError):
        zeta(math.inf, PrecisionBudget(abs_tol=1e-17, rel_tol=1e-17))
    with pytest.raises(DomainError):
        zeta(math.nan)


def test_zeta_domain_errors():
    for s in (1.0, 0.5, -3.0):
        with pytest.raises(DomainError):
            zeta(s)


def test_zeta_budget_exhausted_reports_achieved_bound():
    tight = PrecisionBudget(abs_tol=1e-12, rel_tol=1e-12, max_terms=16)
    with pytest.raises(BudgetExhaustedError) as info:
        zeta(1.001, tight)
    assert info.value.achieved_error_bound > 1e-12


def test_zeta_enclosure_mpmath_oracle():
    # the enclosure [value - error_bound, value + error_bound] must hold the
    # 40-digit zeta(s): the remainder bound is nearly sharp below s ~ 5, and
    # near s ~ 10 the rounding of the summed powers exceeds a half ulp, so
    # only the rounding term keeps these points inside
    mpmath = pytest.importorskip("mpmath")
    loose = PrecisionBudget(abs_tol=1e-8, rel_tol=1e-8, max_terms=10**6)
    with mpmath.workdps(40):
        for s in np.geomspace(1.001, 100.0, 400):
            s = float(s)
            exact = mpmath.zeta(s)
            for budget in (PrecisionBudget(), loose):
                z = zeta(s, budget)
                assert abs(mpmath.mpf(z.value) - exact) <= z.error_bound, (s, budget)
                assert z.error_bound <= max(budget.abs_tol, budget.rel_tol * z.value)


def test_zeta_tolerance_below_rounding_raises():
    with pytest.raises(BudgetExhaustedError) as info:
        zeta(1.5, PrecisionBudget(abs_tol=1e-17, rel_tol=1e-17))
    assert info.value.achieved_error_bound > 1e-17


def test_log_moment_order_zero_is_zeta():
    a = log_moment_sum(2.0, 0)
    b = zeta(2.0)
    assert a.value == b.value and a.error_bound == b.error_bound


def test_log_moment_direct_sum_oracle():
    v = log_moment_sum(4.0, 2)
    oracle = log_moment_partial_oracle(4.0, 2)  # tail beyond 10^6 is < 1e-15
    assert abs(v.value - oracle) <= v.error_bound + 1e-12
    assert abs(v.value - 0.06505816136788053) <= 1e-10  # frozen oracle value


def test_log_moment_tail_is_included():
    # at s = 2, i = 3 the cutoff tail is ~3e-3 and must be accounted for
    v = log_moment_sum(2.0, 3, LOOSE)
    partial = log_moment_partial_oracle(2.0, 3)
    tail = gammaincc(4, math.log(1e6)) * math.gamma(4)
    assert abs(v.value - (partial + tail)) <= v.error_bound + 1e-7
    assert v.value > partial + 1e-3


def test_log_moment_tail_integral_vs_scipy():
    rng = np.random.default_rng(7)
    for _ in range(200):
        s = float(rng.uniform(1.05, 12.0))
        i = int(rng.integers(0, 60))
        x = float(rng.uniform(2.0, 5e5))
        mine = log_moment_tail_integral(s, i, x)
        ref = (
            math.log(gammaincc(i + 1, (s - 1.0) * math.log(x)))
            + math.lgamma(i + 1)
            - (i + 1) * math.log(s - 1.0)
        )
        assert abs(mine - ref) <= 1e-12 * max(1.0, abs(ref))


def test_log_moment_tail_bounds_hurwitz_oracle():
    # sum_{k>J} (log k)^i k^-s = (-1)^i d^i/ds^i zeta(s, J+1) against the
    # closed-form bounds the matrix layer's tails rest on (mp_moment_tails:
    # Euler-Maclaurin for i = 0, the integral from J plus the peak term for
    # i >= 1); J = 3 sits left of the summand's peak for the larger orders.
    # The margin can be tiny: (1.1, 12, 10^5) has 1.8e-15 relative and
    # (1.05, 21, J) 7e-31 to 1e-30, so the check runs at 50 digits
    mpmath = pytest.importorskip("mpmath")
    cases = [
        (s, i, j_max)
        for s in (1.1, 2.0, 4.5)
        for i in (0, 1, 4, 12)
        for j_max in (3, 100, 10**5)
    ]
    cases += [(1.05, 21, j_max) for j_max in (3, 50, 2000, 10**5, 10**7)]
    with mpmath.workdps(50):
        for s, i, j_max in cases:
            exact = (-1) ** i * mpmath.zeta(s, j_max + 1, i)
            bound = mp_moment_tails(s, i, j_max)[i]
            assert exact <= bound, (s, i, j_max)
            if i == 0:  # over by at most twice the remainder bound
                slack = s * (s + 1) * (s + 2) / 360 * (j_max + 1.0) ** (-s - 3)
                assert bound <= exact + slack, (s, j_max)


def test_log_tail_rounding_covers_the_error():
    # 3,000 random (s, i, x), s in [1.001, 101], i <= 400, x <= 10^7, half
    # of x integers: the derived bound covers the 40-digit error of the log
    # integral
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(41)
    with mpmath.workdps(40):
        for _ in range(3000):
            s = float(10.0 ** rng.uniform(math.log10(1.001), math.log10(101.0)))
            i = int(rng.integers(0, 401))
            x = float(10.0 ** rng.uniform(0.0, 7.0))
            if rng.random() < 0.5:
                x = float(math.floor(x))
            got = log_moment_tail_integral(s, i, x)
            ms = mpmath.mpf(s)
            z = (ms - 1) * mpmath.log(x)
            exact = mpmath.log(mpmath.gammainc(i + 1, z)) - (i + 1) * mpmath.log(ms - 1)
            assert abs(got - exact) <= _log_tail_rounding(s, i, x, got), (s, i, x)


def test_linear_tail_integral_covers_the_error():
    # the engine's integral, in linear space where it stays in range, within
    # its derived bound of the 40-digit value; 1,000 random (s, i, n)
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(43)
    with mpmath.workdps(40):
        for _ in range(1000):
            s = float(10.0 ** rng.uniform(math.log10(1.001), math.log10(30.0)))
            i = int(rng.integers(1, 201))
            n = int(10.0 ** rng.uniform(math.log10(16.0), 6.0))
            ms = mpmath.mpf(s)
            exact = mpmath.gammainc(i + 1, (ms - 1) * mpmath.log(n)) / (ms - 1) ** (i + 1)
            if exact > 1e300:
                continue
            value, rounding = _moment_tail_integral(s, i, n)
            assert abs(value - exact) <= rounding, (s, i, n)


def test_log_moment_factorial_zeta_bound_grid():
    # sum_k (log k)^i k^-s <= i!/(s-1)^i * zeta(s), with certified slack
    for s in (1.5, 2.0, 3.0, 10.0):
        z = zeta(s)
        for i in range(1, 11):
            v = log_moment_sum(s, i, LOOSE)
            bound = math.factorial(i) / (s - 1.0) ** i * (z.value + z.error_bound)
            assert bound - (v.value - v.error_bound) >= -1e-12


def test_log_moment_large_order_log_space():
    # i > 170 would overflow a naive factorial; value stays finite here
    v = log_moment_sum(2.5, 180, LOOSE)
    assert math.isfinite(v.value) and v.value > 0.0
    log_bound = math.lgamma(181) - 180 * math.log(1.5) + math.log(zeta(2.5).value * (1 + 1e-12))
    assert math.log(v.value) <= log_bound
    assert v.error_bound <= 1e-7 * v.value


def test_log_moment_domain_errors():
    with pytest.raises(DomainError):
        log_moment_sum(1.0, 2)
    with pytest.raises(DomainError):
        log_moment_sum(2.0, -1)
    with pytest.raises(DomainError):
        log_moment_sum(2.0, 1.5)  # type: ignore[arg-type]


def test_lower_bound_h_closed_form():
    assert abs(lower_bound_h(3.0) - (0.5 + math.sqrt(2.0 / math.pi) / 3.0)) <= 1e-15
    assert abs(lower_bound_h(2.0) - 1.1994711402007163) <= 1e-15
    assert lower_bound_h(1.0 + 1e-9) > 1e8  # diverges at s -> 1+
    with pytest.raises(DomainError):
        lower_bound_h(1.0)


def test_lower_bound_g_closed_form_and_alternative():
    assert abs(lower_bound_g(0.0) - 23.0 / 40.0) <= 1e-15
    for x in np.linspace(0.0, 10.0, 101):
        alt = 0.5 + (x + 1.0) / 12.0 - (x + 1.0) * (x + 2.0) * (x + 3.0) / 720.0
        assert abs(lower_bound_g(float(x)) - alt) <= 1e-14
    with pytest.raises(DomainError):
        lower_bound_g(-0.1)


def test_lower_bound_f_closed_form():
    assert abs(lower_bound_f(2.0) - math.sqrt(2.0 / math.pi) / 3.0) <= 1e-15
    xs = np.linspace(0.0, 50.0, 200)
    vals = [lower_bound_f(float(x)) for x in xs]
    assert all(a < b for a, b in zip(vals, vals[1:]))  # strictly increasing
    assert abs(lower_bound_f(1e9) - 1.0 / math.sqrt(2.0 * math.pi)) <= 2e-9
    with pytest.raises(DomainError):
        lower_bound_f(-1.0)


def test_crossing_root_value_and_oracle():
    root = crossing_root()
    assert abs(root - 6.2101553299428325) <= 1e-11  # frozen, tol 1e-12
    ref = brentq(
        lambda x: lower_bound_f(x) - lower_bound_g(x), 0.1, 10.0, xtol=1e-13
    )
    assert abs(root - ref) <= 1e-10


def test_crossing_root_sign_structure():
    assert lower_bound_f(6.0) - lower_bound_g(6.0) < 0.0
    assert lower_bound_f(7.0) - lower_bound_g(7.0) > 0.0


def test_crossing_root_refinement_is_stable():
    tol = 1e-3
    prev = crossing_root(PrecisionBudget(abs_tol=tol))
    while tol > 1e-9:
        tol /= 2.0
        cur = crossing_root(PrecisionBudget(abs_tol=tol))
        assert abs(cur - prev) <= 2.0 * tol  # old tolerance
        prev = cur


def test_dominance_switch_around_crossing_root():
    root = crossing_root()
    for x in np.linspace(0.1, 10.0, 500):
        x = float(x)
        if x < root - 1e-6:
            assert lower_bound_g(x) >= lower_bound_f(x)
        elif x > root + 1e-6:
            assert lower_bound_f(x) >= lower_bound_g(x)


def test_budget_validation():
    with pytest.raises(DomainError):
        PrecisionBudget(abs_tol=0.0)
    with pytest.raises(DomainError):
        PrecisionBudget(rel_tol=-1e-9)
    with pytest.raises(DomainError):
        PrecisionBudget(max_terms=8)


def test_certified_value_interval():
    v = CertifiedValue(2.0, 0.25)
    assert v.lower == 1.75 and v.upper == 2.25
    with pytest.raises(DomainError):
        CertifiedValue(1.0, -1e-18)
    with pytest.raises(DomainError):
        CertifiedValue(math.inf, 1.0)


class TestVerificationSuite:
    def test_all_checks_pass(self):
        rep = verification_suite()
        assert rep.all_passed
        assert [c.name for c in rep.checks] == [
            "zeta-bracket",
            "zeta-lower-h",
            "shifted-zeta-g",
            "dominance-switch",
            "log-moment",
        ]
        for check in rep.checks:
            assert check.failures == ()
            assert check.worst_margin > 0.0

    def test_crossing_reported(self):
        rep = verification_suite()
        assert rep.crossing == pytest.approx(6.2102, abs=5e-4)

    def test_grid_sizes(self):
        counts = {c.name: c.points for c in verification_suite().checks}
        assert counts["zeta-bracket"] == 500
        assert counts["zeta-lower-h"] == 500
        assert counts["shifted-zeta-g"] == 500
        assert counts["log-moment"] == 40
        # the window around the crossing drops a couple of dominance points
        assert 390 <= counts["dominance-switch"] <= 400

    def test_injected_fault_is_detected(self):
        rep = verification_suite(inject_fault=True)
        assert not rep.all_passed
        bracket = rep.checks[0]
        assert bracket.name == "zeta-bracket"
        assert bracket.failures
        assert bracket.worst_margin < 0.0
        for check in rep.checks[1:]:
            assert check.passed

    def test_only_rounding_is_forgiven(self):
        # a negative margin passes only within its own rounding bound
        passing = special_functions._collect("c", [("a", -1e-16, 1e-16), ("b", 0.5, 0.0)])
        assert passing.passed and passing.worst_margin == -1e-16
        failing = special_functions._collect("c", [("a", -1e-15, 1e-16), ("b", -5e-324, 0.0)])
        assert failing.failures == (("a", -1e-15), ("b", -5e-324))

    def test_margin_rounding_against_mpmath(self):
        # each grid margin is within its rounding bound of the exact
        # difference of the floats it starts from, at 40 digits; for the
        # shifted check, at the exact argument 1 + x rather than fl(1 + x)
        mpmath = pytest.importorskip("mpmath")
        mpf = mpmath.mpf
        sf = special_functions
        with mpmath.workdps(40):

            def g(x):
                x = mpf(x)
                return (414 + 49 * x - 6 * x**2 - x**3) / 720

            def f(x):
                x = mpf(x)
                return x / (x + 1) / mpmath.sqrt(2 * mpmath.pi)

            def within(triple, exact):
                _, margin, rounding = triple
                assert abs(mpf(margin) - exact) <= rounding, (triple, exact)
                # the bound is a few u of the sides, not a loose floor
                assert rounding <= 1e-9 * max(1.0, abs(margin))

            s_grid = sf.geomspace(sf._VERIFY_S_LO, sf._VERIFY_S_HI, sf._VERIFY_S_POINTS)[::7]
            zetas = [zeta(s) for s in s_grid]
            for invert in (False, True):
                for triple, s, z in zip(sf._bracket_margins(s_grid, zetas, invert), s_grid, zetas):
                    low = mpf(z.value) + mpf(z.error_bound) - 1 / (mpf(s) - 1)
                    high = mpf(s) / (mpf(s) - 1) - (mpf(z.value) - mpf(z.error_bound))
                    within(triple, min(-low if invert else low, high))
            for triple, s, z in zip(sf._h_margins(s_grid, zetas), s_grid, zetas):
                h = 1 / (mpf(s) - 1) + (mpf(s) - 1) / mpf(s) / mpmath.sqrt(2 * mpmath.pi)
                within(triple, mpf(z.value) + mpf(z.error_bound) - h)
            x_grid = sf.geomspace(sf._VERIFY_X_LO, sf._VERIFY_S_HI, sf._VERIFY_S_POINTS)
            for k, triple in enumerate(sf._shifted_g_margins(sf.DEFAULT_BUDGET)):
                if k % 7:
                    continue
                x = x_grid[k]
                z = zeta(1.0 + x)
                shift = mpmath.zeta(1 + mpf(x)) - mpmath.zeta(mpf(1.0 + x))
                within(triple, mpf(z.value) + mpf(z.error_bound) + shift - (1 / mpf(x) + g(x)))
            crossing = crossing_root()
            d_grid = [x for x in sf.linspace(*sf.CROSSING_BRACKET, sf._DOMINANCE_POINTS)
                      if abs(x - crossing) > sf._DOMINANCE_WINDOW]
            for triple, x in zip(sf._dominance_margins(crossing), d_grid, strict=True):
                gap = f(x) - g(x)
                within(triple, gap if x > crossing else -gap)
            for triple, (s, i) in zip(sf._moment_margins(sf.DEFAULT_BUDGET),
                                      [(s, i) for s in sf._MOMENT_ARGS for i in sf._MOMENT_ORDERS]):
                z, moment = zeta(s), log_moment_sum(s, i)
                factor = mpf(math.factorial(i)) / (mpf(s) - 1) ** i
                exact = (factor * mpf(z.value) + mpf(moment.error_bound)
                         + factor * mpf(z.error_bound) - mpf(moment.value))
                within(triple, exact)


def test_log_moment_sum_enclosure_mpmath_oracle():
    # sum_k (log k)^i k^-s = (-1)^i zeta^(i)(s), at 30 digits.  The direct
    # sum this replaced missed at 22 of these 56 points, by up to 19.6 times
    # its error bound, because its summation rounding was not counted
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for s in (1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 10.0, 20.0):
            for i in range(1, 13):
                v = log_moment_sum(s, i)
                exact = (-1) ** i * mpmath.zeta(s, 1, i)
                assert abs(mpmath.mpf(v.value) - exact) <= v.error_bound, (s, i)
                assert v.error_bound <= max(1e-12, 1e-12 * v.value), (s, i)
        # orders whose fourth derivative changes sign past max_terms: the
        # cutoff stays at 16 and the summand's peak bounds the remainder
        for s, i in ((2.0, 40), (1.5, 25)):
            v = log_moment_sum(s, i)
            exact = (-1) ** i * mpmath.zeta(s, 1, i)
            assert abs(mpmath.mpf(v.value) - exact) <= v.error_bound, (s, i)
