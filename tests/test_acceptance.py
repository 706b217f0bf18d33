"""Release acceptance gate.

One test per criterion, each at its stated tolerance and runtime ceiling;
run with -v to get one pass/fail line per criterion.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import time

import numpy as np
import pytest

from dirichletops.bounds import norm_bounds, schur_radius
from dirichletops.cli import main
from dirichletops.operator_matrix import (
    build_matrix,
    operator_norm_estimate,
    schur_certificate,
    singular_values,
)
from dirichletops.special_functions import verification_suite, zeta
from dirichletops.symbol import DirichletSymbol, fixed_point, spectrum_formula


def run_json(capsys, argv):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def test_criterion_01_crossing_root(capsys):
    start = time.perf_counter()
    code, doc = run_json(capsys, ["verify-lemmas"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert doc["result"]["crossing"] == pytest.approx(6.2102, abs=5e-4)
    assert elapsed < 1.0


def test_criterion_02_inequality_grids():
    start = time.perf_counter()
    report = verification_suite()
    elapsed = time.perf_counter() - start
    assert report.all_passed
    names = [check.name for check in report.checks]
    for required in ("zeta-bracket", "zeta-lower-h", "shifted-zeta-g", "log-moment"):
        assert required in names
    for check in report.checks:
        assert check.worst_margin >= -1e-12
    assert elapsed < 10.0


def test_criterion_03_schur_radius_closed_form():
    assert schur_radius(2.0, 0.5) == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-12)
    for t in (0.1, 0.3, 0.5):
        assert schur_radius(0.5 + t, t) == pytest.approx(1.0, abs=1e-12)


def test_criterion_04_theorem_bracket_containment():
    start = time.perf_counter()
    sym = DirichletSymbol(2.0, 0.5)
    matrix = build_matrix(sym, 60, 5000)
    estimate = operator_norm_estimate(matrix)
    assert estimate.converged
    norm_sq = estimate.lower**2
    low = zeta(4.0)
    high = zeta(3.9142136)
    assert low.value - 5e-3 <= norm_sq <= high.value + 5e-3
    # the float 3 - 2 sqrt(2) lies 7 ulps below the root 3 - 2 sqrt(2),
    # where P(r) > 0 and the Schur test fails in deep rows; schur_radius
    # rounds the root up
    certificate = schur_certificate(sym, schur_radius(2.0, 0.5), 60, 5000)
    assert certificate.verdict
    assert time.perf_counter() - start < 60.0


def test_criterion_05_boundary_bracket(capsys):
    start = time.perf_counter()
    code, doc = run_json(
        capsys,
        ["matrix-norm", "--c1-re", "1", "--c2-abs", "0.5", "--rows", "200", "--cols", "20000"],
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    result = doc["result"]
    assert zeta(2.0).value - 1e-2 <= result["lower_sq"] <= zeta(1.5).value + 1e-2
    assert result["upper_status"] == "uncertified"
    assert elapsed < 300.0


def test_criterion_06_approximation_number_dominance():
    start = time.perf_counter()
    sym = DirichletSymbol(2.0, 0.5)
    spectrum = singular_values(build_matrix(sym, 30, 4000), 17)
    values = spectrum.values
    prefactor = math.sqrt(1.5)
    for n in range(1, 16):
        assert values[n] <= prefactor * (1.0 / 3.0) ** n + 1e-9
    for n in range(5, 13):
        assert values[n + 1] / values[n] <= 1.0 / 3.0 + 0.05
    assert time.perf_counter() - start < 60.0


def test_criterion_07_phase_invariance():
    symbols = (
        DirichletSymbol(2.0, 0.5),
        DirichletSymbol(2.0 + 5.0j, 0.5),
        DirichletSymbol(2.0, 0.5 * cmath.exp(2.0j)),
    )
    spectra = [
        singular_values(build_matrix(sym, 30, 1000), 10).values for sym in symbols
    ]
    for a, b in itertools.combinations(spectra, 2):
        assert float(np.max(np.abs(a - b))) <= 1e-10


def test_criterion_08_constant_symbol_exactness():
    sym = DirichletSymbol(0.75, 0.0)
    report = norm_bounds(sym)
    certified = zeta(1.5)
    assert report.lower_sq == report.upper_sq
    assert report.lower_sq == certified.value
    matrix = build_matrix(sym, 0, 10**6)
    estimate = operator_norm_estimate(matrix)
    # a single-row matrix loses exactly tail_bound^2 of squared norm to the
    # discarded columns, so the completed square recovers the full value
    completed = estimate.lower**2 + matrix.tail_bound**2
    assert abs(completed - certified.value) <= 1e-4


def test_criterion_09_spectrum_formula():
    rng = np.random.default_rng(2026)
    for _ in range(20):
        margin = float(rng.uniform(0.05, 2.0))
        sigma1 = 0.5 + margin
        modulus = float(rng.uniform(0.05, 0.95)) * margin
        c1 = complex(sigma1, float(rng.uniform(-5.0, 5.0)))
        c2 = modulus * cmath.exp(1j * float(rng.uniform(-math.pi, math.pi)))
        sym = DirichletSymbol(c1, c2)
        result = fixed_point(sym, tol=1e-13)
        assert result.residual < 1e-12
        assert abs(result.derivative) < 1.0
        assert max(abs(z) for z in spectrum_formula(sym)) == 1.0


def test_criterion_10_figure_ordering(capsys):
    code = main(["figure"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    data = [[float(cell) for cell in line.split(",")] for line in lines[1:-1]]
    assert len(data) == 200
    crossing = float(lines[-1].split(",")[1])
    for x, with_f, with_g, zeta_col in data:
        assert with_f <= zeta_col + 1e-9
        assert with_g <= zeta_col + 1e-9
        if x < crossing:
            assert with_g > with_f
        else:
            assert with_g < with_f
