"""Tests for symbol validation, classification, fixed points, spectra."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from dirichletops import CertifiedValue, DomainError, InvalidSymbolError, NonCompactError
from dirichletops import PrecisionBudget
from dirichletops.symbol import (
    EQ_TOL,
    DirichletSymbol,
    SymbolClass,
    classify,
    evaluate,
    fixed_point,
    spectrum_formula,
)


def random_compact_symbols(count: int, seed: int = 11) -> list[DirichletSymbol]:
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        sigma1 = float(rng.uniform(0.55, 4.0))
        margin = sigma1 - 0.5
        c2_abs = float(rng.uniform(0.05, 0.95) * margin)
        if c2_abs < 1e-3:
            continue
        c1 = complex(sigma1, float(rng.uniform(-6.0, 6.0)))
        c2 = c2_abs * cmath.exp(1j * float(rng.uniform(-math.pi, math.pi)))
        q = int(rng.choice([2, 3, 5]))
        out.append(DirichletSymbol(c1, c2, q))
    return out


def test_constructor_accepts_and_rejects():
    DirichletSymbol(2.0, 0.5)
    DirichletSymbol(1.0, 0.5)          # boundary equality
    DirichletSymbol(0.5, 0.0)          # constant at the edge
    DirichletSymbol(0.8, 0.3 * cmath.exp(0.4j), 3)
    with pytest.raises(InvalidSymbolError):
        DirichletSymbol(0.6, 0.5)
    with pytest.raises(InvalidSymbolError):
        DirichletSymbol(1.0, 0.5 + 1e-6)
    with pytest.raises(InvalidSymbolError):
        DirichletSymbol(2.0, 0.5, q=1)
    with pytest.raises(InvalidSymbolError):
        DirichletSymbol(2.0, 0.5, q=2.5)  # type: ignore[arg-type]
    with pytest.raises(InvalidSymbolError):
        DirichletSymbol(complex(math.inf, 0.0), 0.0)


def test_records_validate_copies_and_stay_immutable():
    # _replace builds its copy through the validating constructor, which
    # normalises the copy as it does a new symbol
    sym = DirichletSymbol(2, 0.5, np.int64(3))
    assert sym._replace(c1=3) == DirichletSymbol(3.0, 0.5, 3)
    assert type(sym.q) is int and type(sym._replace(c1=3).c1) is complex
    with pytest.raises(InvalidSymbolError):
        sym._replace(q=1)
    with pytest.raises(InvalidSymbolError):
        DirichletSymbol(2.0, 0.5, q=True)
    with pytest.raises(DomainError):
        PrecisionBudget()._replace(abs_tol=0.0)
    with pytest.raises(DomainError):
        CertifiedValue(1.0, 0.0)._replace(error_bound=-1.0)
    with pytest.raises(AttributeError):
        sym.q = 5  # type: ignore[misc]
    with pytest.raises(AttributeError):
        sym.extra = 1  # type: ignore[attr-defined]


def test_constructor_tolerates_rounding_at_boundary():
    # equality spoiled by one part in 1e13 still builds, classifies boundary
    sym = DirichletSymbol(0.5 + 0.3 - 1e-13, 0.3)
    assert classify(sym) is SymbolClass.BOUNDARY


def test_evaluate_spot_values():
    sym = DirichletSymbol(2.0, 0.5, 2)
    assert abs(evaluate(sym, 0.0) - 2.5) <= 1e-15
    assert abs(evaluate(sym, 1.0) - 2.25) <= 1e-15
    s = 0.3 + 1.7j
    expect = 2.0 + 0.5 * cmath.exp(-s * math.log(2.0))
    assert abs(evaluate(sym, s) - expect) <= 1e-15


def test_half_plane_mapping_property():
    rng = np.random.default_rng(3)
    for sym in random_compact_symbols(40):
        for _ in range(25):
            s = complex(float(rng.uniform(1e-3, 5.0)), float(rng.uniform(-20.0, 20.0)))
            assert evaluate(sym, s).real > 0.5


def test_classify_tolerance_edges():
    assert classify(DirichletSymbol(2.0, 1e-13)) is SymbolClass.CONSTANT
    assert classify(DirichletSymbol(0.5 + 0.2 + 1e-13, 0.2)) is SymbolClass.BOUNDARY
    assert classify(DirichletSymbol(0.5 + 0.2 + 1e-6, 0.2)) is SymbolClass.COMPACT
    assert classify(DirichletSymbol(2.0, 0.5)) is SymbolClass.COMPACT


def test_fixed_point_real_case_against_brentq():
    sym = DirichletSymbol(2.0, 0.5)
    fp = fixed_point(sym)
    ref = brentq(lambda a: a - 2.0 - 0.5 * 2.0**-a, 1.5, 3.0, xtol=1e-14)
    assert abs(fp.alpha - ref) <= 1e-12
    assert abs(fp.alpha - 2.1153914732780374) <= 1e-12  # frozen
    assert abs(fp.derivative - (-0.07998327436333601)) <= 1e-12
    assert fp.residual <= 1e-12


def test_fixed_point_properties_random_symbols():
    for sym in random_compact_symbols(30, seed=5):
        fp = fixed_point(sym, tol=1e-12)
        assert abs(evaluate(sym, fp.alpha) - fp.alpha) <= 1e-12
        assert fp.alpha.real > 0.5
        assert abs(fp.derivative) < 1.0
        expect_d = -sym.c2 * math.log(sym.q) * cmath.exp(-fp.alpha * math.log(sym.q))
        assert abs(fp.derivative - expect_d) <= 1e-14


def test_fixed_point_boundary_symbol_converges():
    fp = fixed_point(DirichletSymbol(1.0, 0.5))
    assert abs(evaluate(DirichletSymbol(1.0, 0.5), fp.alpha) - fp.alpha) <= 1e-12
    assert abs(fp.derivative) < 1.0


def test_fixed_point_constant_symbol():
    fp = fixed_point(DirichletSymbol(0.75, 0.0))
    assert fp.alpha == 0.75 + 0.0j
    assert fp.derivative == 0.0 + 0.0j
    assert fp.iterations == 0 and fp.residual == 0.0


def test_fixed_point_rejects_bad_tol():
    with pytest.raises(DomainError):
        fixed_point(DirichletSymbol(2.0, 0.5), tol=0.0)


def test_spectrum_structure():
    sym = DirichletSymbol(2.0, 0.5)
    spec = spectrum_formula(sym, k_max=3)
    d = fixed_point(sym).derivative
    assert spec[0] == 1.0 + 0.0j
    assert spec[-1] == 0.0 + 0.0j
    assert len(spec) == 5
    assert abs(spec[1] - d) <= 1e-15 and abs(spec[2] - d * d) <= 1e-15
    moduli = [abs(z) for z in spec]
    assert moduli == sorted(moduli, reverse=True)
    assert max(moduli) == 1.0  # spectral radius exactly one


def test_spectrum_constant_and_kmax_zero():
    assert spectrum_formula(DirichletSymbol(2.0, 0.0), k_max=5) == [1.0 + 0.0j, 0.0 + 0.0j]
    assert spectrum_formula(DirichletSymbol(2.0, 0.5), k_max=0) == [1.0 + 0.0j, 0.0 + 0.0j]


def test_spectrum_rejects_boundary_and_bad_kmax():
    with pytest.raises(NonCompactError):
        spectrum_formula(DirichletSymbol(1.0, 0.5))
    with pytest.raises(DomainError):
        spectrum_formula(DirichletSymbol(2.0, 0.5), k_max=-1)
